//! The reference bandwidth governor: demand-driven ROI selection with
//! graceful degradation under an air-time budget.
//!
//! Implements `cooper_core::GovernorPolicy` for the fleet's governed
//! exchange path. Per directed transfer the governor:
//!
//! 1. picks a **base ROI** from the receiver's demand — no blind
//!    sectors means the cheap car-following wedge suffices
//!    ([`RoiCategory::ForwardOneWay`]); blind sectors confined to the
//!    frontal ±60° mean the junction exchange
//!    ([`RoiCategory::FrontFov120`]); anything blocked behind or beside
//!    the receiver demands the full frame — capped at the configured
//!    widest category;
//! 2. walks a **degradation ladder** until a candidate fits the
//!    channel's remaining air time: the cadence frame kind at the base
//!    ROI, then at progressively narrower ROIs, then delta-only frames
//!    at every ROI, and finally [`GovernorVerdict::Skip`] when nothing
//!    fits — the fleet records the skip as a budget drop rather than
//!    blowing the exchange window for every later sender.
//!
//! With [`BandwidthGovernor::with_features`], a rung precedes the raw
//! ladder: the widest fitting [`FrameKind::Features`] candidate (a
//! quantized BEV feature frame, wire-format v3) at or inside the
//! demanded ROI is sent instead of points — the F-Cooper exchange
//! level, typically an order of magnitude fewer bytes than the raw
//! front-FoV delta at comparable recall.
//!
//! Candidates whose air time is unknown (the channel model keeps no
//! accounting) always fit: an unmetered channel imposes no budget.
//!
//! The governor is a pure function of the offer and its configuration —
//! telemetry counters (`v2x.governor.*`) are its only side effects — so
//! governed fleet runs stay bit-identical at any thread count.

use cooper_core::{GovernorPolicy, GovernorVerdict, TransferCandidate, TransferOffer};
use cooper_pointcloud::roi::{BlindSector, RoiCategory};
use cooper_pointcloud::FrameKind;
use cooper_telemetry::names as telemetry_names;

/// Half-angle of the frontal wedge used to classify demand: blind
/// sectors whose centers all lie within ±60° are served by the
/// bidirectional 120° front-FoV exchange.
const FRONT_HALF_ANGLE: f64 = std::f64::consts::PI / 3.0;

/// Slack added to the headroom comparison so a candidate sized exactly
/// to the remaining window is not rejected by floating-point noise.
const HEADROOM_EPS: f64 = 1e-12;

/// ROI categories from widest to narrowest — the degradation order.
const WIDEST_FIRST: [RoiCategory; 3] = [
    RoiCategory::FullFrame,
    RoiCategory::FrontFov120,
    RoiCategory::ForwardOneWay,
];

fn narrowness(roi: RoiCategory) -> usize {
    match roi {
        RoiCategory::FullFrame => 0,
        RoiCategory::FrontFov120 => 1,
        RoiCategory::ForwardOneWay => 2,
    }
}

/// The ROI category the receiver's blind sectors demand, before the
/// governor's cap is applied.
pub fn demand_roi(blind_sectors: &[BlindSector]) -> RoiCategory {
    if blind_sectors.is_empty() {
        return RoiCategory::ForwardOneWay;
    }
    if blind_sectors
        .iter()
        .all(|s| s.center().abs() <= FRONT_HALF_ANGLE)
    {
        return RoiCategory::FrontFov120;
    }
    RoiCategory::FullFrame
}

/// Budget-aware ROI + frame-kind selection (see the module docs for the
/// decision ladder).
#[derive(Debug, Clone, Copy)]
pub struct BandwidthGovernor {
    /// Widest ROI category the governor may ever choose.
    cap: RoiCategory,
    /// Prefer the feature-exchange tier: when the offer carries
    /// [`FrameKind::Features`] candidates, pick the widest fitting one
    /// before walking the raw-point ladder.
    prefer_features: bool,
}

impl BandwidthGovernor {
    /// A governor allowed to use ROIs up to and including `cap`.
    pub fn new(cap: RoiCategory) -> Self {
        BandwidthGovernor {
            cap,
            prefer_features: false,
        }
    }

    /// Prefers quantized BEV feature frames (wire-format v3) over raw
    /// points whenever the sender offers them: the widest fitting
    /// feature candidate at or inside the demanded ROI wins; the raw
    /// ladder remains the fallback when no feature candidate fits.
    /// Offers without feature candidates decide exactly as before.
    pub fn with_features(mut self) -> Self {
        self.prefer_features = true;
        self
    }

    /// The configured widest category.
    pub fn cap(&self) -> RoiCategory {
        self.cap
    }

    /// The base (pre-degradation) ROI for a receiver with these blind
    /// sectors: its demand, narrowed to the cap when the cap is tighter.
    pub fn base_roi(&self, blind_sectors: &[BlindSector]) -> RoiCategory {
        let demand = demand_roi(blind_sectors);
        if narrowness(demand) >= narrowness(self.cap) {
            demand
        } else {
            self.cap
        }
    }

    fn fits(candidate: &TransferCandidate, headroom_s: Option<f64>) -> bool {
        match (candidate.airtime_s, headroom_s) {
            (Some(airtime), Some(headroom)) => airtime <= headroom + HEADROOM_EPS,
            _ => true,
        }
    }
}

impl Default for BandwidthGovernor {
    /// Caps at [`RoiCategory::FullFrame`], i.e. no cap: demand alone
    /// picks the base ROI.
    fn default() -> Self {
        BandwidthGovernor::new(RoiCategory::FullFrame)
    }
}

impl GovernorPolicy for BandwidthGovernor {
    fn decide(&mut self, offer: &TransferOffer<'_>) -> GovernorVerdict {
        let base = self.base_roi(offer.receiver_blind_sectors);
        if self.prefer_features {
            for roi in WIDEST_FIRST
                .into_iter()
                .filter(|r| narrowness(*r) >= narrowness(base))
            {
                let Some(candidate) = offer.candidate(roi, FrameKind::Features) else {
                    continue;
                };
                if !Self::fits(&candidate, offer.headroom_s) {
                    continue;
                }
                if roi != base {
                    cooper_telemetry::counter_add(telemetry_names::V2X_GOVERNOR_ROI_NARROWED, 1);
                }
                cooper_telemetry::counter_add(telemetry_names::V2X_GOVERNOR_FEATURE_FRAMES, 1);
                return GovernorVerdict::Send(candidate);
            }
        }
        // Cadence kind first; delta-only is the late degradation rung.
        let kinds = if offer.keyframe_due {
            [FrameKind::Keyframe, FrameKind::Delta]
        } else {
            [FrameKind::Delta, FrameKind::Keyframe]
        };
        for kind in kinds {
            for roi in WIDEST_FIRST
                .into_iter()
                .filter(|r| narrowness(*r) >= narrowness(base))
            {
                let Some(candidate) = offer.candidate(roi, kind) else {
                    continue;
                };
                if !Self::fits(&candidate, offer.headroom_s) {
                    continue;
                }
                if roi != base {
                    cooper_telemetry::counter_add(telemetry_names::V2X_GOVERNOR_ROI_NARROWED, 1);
                }
                if kind == FrameKind::Delta {
                    cooper_telemetry::counter_add(telemetry_names::V2X_GOVERNOR_DELTA_FRAMES, 1);
                }
                return GovernorVerdict::Send(candidate);
            }
        }
        cooper_telemetry::counter_add(telemetry_names::V2X_GOVERNOR_BUDGET_SKIPS, 1);
        GovernorVerdict::Skip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(
        roi: RoiCategory,
        kind: FrameKind,
        wire_bytes: usize,
        airtime_s: Option<f64>,
    ) -> TransferCandidate {
        TransferCandidate {
            roi,
            kind,
            wire_bytes,
            airtime_s,
        }
    }

    /// All six (ROI, kind) combinations, full frame priced highest.
    fn full_menu() -> Vec<TransferCandidate> {
        let mut menu = Vec::new();
        for (roi, bytes) in [
            (RoiCategory::FullFrame, 70_000usize),
            (RoiCategory::FrontFov120, 24_000),
            (RoiCategory::ForwardOneWay, 6_000),
        ] {
            for (kind, scale) in [(FrameKind::Keyframe, 1.0), (FrameKind::Delta, 0.05)] {
                let b = (bytes as f64 * scale) as usize;
                menu.push(candidate(roi, kind, b, Some(b as f64 * 1e-6)));
            }
        }
        menu
    }

    fn offer<'a>(
        candidates: &'a [TransferCandidate],
        sectors: &'a [BlindSector],
        keyframe_due: bool,
        headroom_s: Option<f64>,
    ) -> TransferOffer<'a> {
        TransferOffer {
            step: 3,
            from: 1,
            to: 2,
            keyframe_due,
            receiver_blind_sectors: sectors,
            candidates,
            headroom_s,
        }
    }

    fn sector_at(center: f64) -> BlindSector {
        BlindSector {
            start: center - 0.2,
            end: center + 0.2,
            occluder_range: 8.0,
        }
    }

    #[test]
    fn demand_maps_blind_sectors_to_categories() {
        assert_eq!(demand_roi(&[]), RoiCategory::ForwardOneWay);
        assert_eq!(demand_roi(&[sector_at(0.3)]), RoiCategory::FrontFov120);
        assert_eq!(
            demand_roi(&[sector_at(0.3), sector_at(3.0)]),
            RoiCategory::FullFrame
        );
        assert_eq!(demand_roi(&[sector_at(-2.0)]), RoiCategory::FullFrame);
    }

    #[test]
    fn unconstrained_choice_follows_demand_and_cadence() {
        let menu = full_menu();
        let mut gov = BandwidthGovernor::default();
        // No demand, keyframe due: cheapest wedge, keyframe.
        match gov.decide(&offer(&menu, &[], true, None)) {
            GovernorVerdict::Send(c) => {
                assert_eq!(c.roi, RoiCategory::ForwardOneWay);
                assert_eq!(c.kind, FrameKind::Keyframe);
            }
            GovernorVerdict::Skip => panic!("expected a send"),
        }
        // Demand behind the receiver, delta step: full frame, delta.
        let behind = [sector_at(3.0)];
        match gov.decide(&offer(&menu, &behind, false, None)) {
            GovernorVerdict::Send(c) => {
                assert_eq!(c.roi, RoiCategory::FullFrame);
                assert_eq!(c.kind, FrameKind::Delta);
            }
            GovernorVerdict::Skip => panic!("expected a send"),
        }
    }

    #[test]
    fn tight_budget_narrows_roi_before_dropping_to_delta() {
        let menu = full_menu();
        let behind = [sector_at(3.0)];
        let mut gov = BandwidthGovernor::default();
        // Headroom fits the 120° keyframe (24 ms) but not the full
        // frame (70 ms): the ROI narrows, the kind survives.
        match gov.decide(&offer(&menu, &behind, true, Some(0.030))) {
            GovernorVerdict::Send(c) => {
                assert_eq!(c.roi, RoiCategory::FrontFov120);
                assert_eq!(c.kind, FrameKind::Keyframe);
            }
            GovernorVerdict::Skip => panic!("expected a send"),
        }
        // Headroom below every keyframe but above the full-frame delta:
        // delta-only degradation keeps the widest demanded ROI.
        match gov.decide(&offer(&menu, &behind, true, Some(0.0058))) {
            GovernorVerdict::Send(c) => {
                assert_eq!(c.roi, RoiCategory::FullFrame);
                assert_eq!(c.kind, FrameKind::Delta);
            }
            GovernorVerdict::Skip => panic!("expected a send"),
        }
    }

    #[test]
    fn exhausted_budget_skips() {
        let menu = full_menu();
        let mut gov = BandwidthGovernor::default();
        assert_eq!(
            gov.decide(&offer(&menu, &[], true, Some(1e-9))),
            GovernorVerdict::Skip
        );
        // An empty menu also skips.
        assert_eq!(
            gov.decide(&offer(&[], &[], true, None)),
            GovernorVerdict::Skip
        );
    }

    #[test]
    fn cap_overrides_demand() {
        let menu = full_menu();
        let behind = [sector_at(-3.0)];
        let mut gov = BandwidthGovernor::new(RoiCategory::ForwardOneWay);
        match gov.decide(&offer(&menu, &behind, true, None)) {
            GovernorVerdict::Send(c) => assert_eq!(c.roi, RoiCategory::ForwardOneWay),
            GovernorVerdict::Skip => panic!("expected a send"),
        }
        assert_eq!(gov.base_roi(&behind), RoiCategory::ForwardOneWay);
        assert_eq!(gov.base_roi(&[]), RoiCategory::ForwardOneWay);
    }

    #[test]
    fn unmetered_candidates_always_fit() {
        // Candidates without air-time pricing ignore the headroom.
        let menu = [candidate(
            RoiCategory::ForwardOneWay,
            FrameKind::Keyframe,
            1_000_000,
            None,
        )];
        let mut gov = BandwidthGovernor::default();
        match gov.decide(&offer(&menu, &[], true, Some(1e-9))) {
            GovernorVerdict::Send(c) => assert_eq!(c.wire_bytes, 1_000_000),
            GovernorVerdict::Skip => panic!("expected a send"),
        }
    }

    #[test]
    fn feature_preference_picks_feature_candidates_first() {
        let mut menu = full_menu();
        menu.push(candidate(
            RoiCategory::FullFrame,
            FrameKind::Features,
            4_000,
            Some(4e-3),
        ));
        menu.push(candidate(
            RoiCategory::ForwardOneWay,
            FrameKind::Features,
            900,
            Some(9e-4),
        ));
        // Without the preference the feature candidates are ignored.
        let mut plain = BandwidthGovernor::default();
        match plain.decide(&offer(&menu, &[], true, None)) {
            GovernorVerdict::Send(c) => assert_eq!(c.kind, FrameKind::Keyframe),
            GovernorVerdict::Skip => panic!("expected a send"),
        }
        // With it, the demanded ROI's feature frame wins.
        let mut gov = BandwidthGovernor::default().with_features();
        let behind = [sector_at(3.0)];
        match gov.decide(&offer(&menu, &behind, true, None)) {
            GovernorVerdict::Send(c) => {
                assert_eq!(c.kind, FrameKind::Features);
                assert_eq!(c.roi, RoiCategory::FullFrame);
            }
            GovernorVerdict::Skip => panic!("expected a send"),
        }
        // Over-budget feature frames degrade to narrower feature ROIs,
        // then fall back to the raw ladder.
        match gov.decide(&offer(&menu, &behind, true, Some(1e-3))) {
            GovernorVerdict::Send(c) => {
                assert_eq!(c.kind, FrameKind::Features);
                assert_eq!(c.roi, RoiCategory::ForwardOneWay);
            }
            GovernorVerdict::Skip => panic!("expected a send"),
        }
        let feature_free = full_menu();
        match gov.decide(&offer(&feature_free, &[], true, None)) {
            GovernorVerdict::Send(c) => assert_eq!(c.kind, FrameKind::Keyframe),
            GovernorVerdict::Skip => panic!("expected a send"),
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let menu = full_menu();
        let behind = [sector_at(2.0)];
        let mut a = BandwidthGovernor::default();
        let mut b = BandwidthGovernor::default();
        for headroom in [None, Some(0.030), Some(0.0058), Some(1e-9)] {
            let o = offer(&menu, &behind, false, headroom);
            assert_eq!(a.decide(&o), b.decide(&o));
        }
    }
}
