//! Multi-frame object tracking over cooperative detections.
//!
//! §II-A: "the sensing devices on autonomous vehicles work together to
//! map the local environment and monitor the motion \[of\] surrounding
//! vehicles". Detection gives positions per frame; this module links
//! them through time: greedy nearest-neighbour association with a
//! constant-velocity prediction (an alpha-beta filter — the classic
//! lightweight precursor to a Kalman filter), track confirmation after
//! repeated hits and retirement after repeated misses.
//!
//! Works identically on single-shot and cooperative detections — fused
//! input simply gives the tracker more (and more confident) detections
//! to associate, which is the paper's point.

use cooper_geometry::Vec3;
use cooper_lidar_sim::ObjectClass;
use cooper_spod::Detection;
use serde::{Deserialize, Serialize};

/// Identifier of a track, stable across its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TrackId(pub u64);

impl std::fmt::Display for TrackId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Lifecycle state of a track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrackState {
    /// Seen, but not yet confirmed by enough consecutive hits.
    Tentative,
    /// Confirmed object.
    Confirmed,
    /// Missed recently; kept alive on prediction.
    Coasting,
}

/// One tracked object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Track {
    /// Stable identifier.
    pub id: TrackId,
    /// Object class (from the first associated detection).
    pub class: ObjectClass,
    /// Current position estimate (receiver frame, metres).
    pub position: Vec3,
    /// Current velocity estimate, m/s.
    pub velocity: Vec3,
    /// Lifecycle state.
    pub state: TrackState,
    /// Consecutive updates with an associated detection.
    pub hits: u32,
    /// Consecutive updates without one.
    pub misses: u32,
    /// Last associated detection score.
    pub last_score: f32,
}

/// Consecutive hits that confirm a track.
const CONFIRM_AFTER: u32 = 2;

/// Consecutive misses that drop a track.
const DROP_AFTER: u32 = 3;

/// Confidence decay applied to [`Track::last_score`] on every missed
/// frame. A hit restores the carried confidence to at least the new
/// detection's score (see [`Tracker::update`]).
const SCORE_DECAY: f32 = 0.9;

/// Tracker parameters. A track confirms after two consecutive hits and
/// is dropped after three consecutive misses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackerConfig {
    /// Maximum association distance between a predicted track position
    /// and a detection center, metres.
    pub gate_distance: f64,
    /// Position smoothing gain (alpha), `0..=1`; higher trusts the
    /// measurement more.
    pub alpha: f64,
    /// Velocity gain (beta), `0..=1`.
    pub beta: f64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            gate_distance: 3.0,
            alpha: 0.6,
            beta: 0.3,
        }
    }
}

impl TrackerConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message for the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.gate_distance > 0.0 && self.gate_distance.is_finite()) {
            return Err("gate distance must be positive and finite".into());
        }
        if !(0.0..=1.0).contains(&self.alpha) || !(0.0..=1.0).contains(&self.beta) {
            return Err("alpha/beta must be in [0, 1]".into());
        }
        Ok(())
    }
}

/// What one [`Tracker::update`] call did, for per-step reporting and
/// telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrackerStepSummary {
    /// Detections associated with an existing track.
    pub matched: usize,
    /// New tentative tracks spawned from unmatched detections.
    pub spawned: usize,
    /// Tracks promoted (or restored) to [`TrackState::Confirmed`].
    pub promoted: usize,
    /// Confirmed tracks that missed and went [`TrackState::Coasting`].
    pub coasted: usize,
    /// Tracks retired after too many consecutive misses.
    pub dropped: usize,
}

/// A greedy nearest-neighbour multi-object tracker with alpha-beta
/// smoothing.
///
/// # Examples
///
/// ```
/// use cooper_core::tracking::{Tracker, TrackerConfig};
/// use cooper_core::Detection;
/// use cooper_geometry::{Obb3, Vec3};
/// use cooper_lidar_sim::ObjectClass;
///
/// let mut tracker = Tracker::new(TrackerConfig::default());
/// let det = |x: f64| Detection {
///     class: ObjectClass::Car,
///     obb: Obb3::new(Vec3::new(x, 0.0, -1.0), Vec3::new(4.5, 1.8, 1.5), 0.0),
///     score: 0.9,
/// };
/// tracker.update(&[det(10.0)], 0.1);
/// tracker.update(&[det(11.0)], 0.1);
/// let confirmed = tracker.confirmed_tracks();
/// assert_eq!(confirmed.len(), 1);
/// assert!(confirmed[0].velocity.x > 0.0); // moving away
/// ```
#[derive(Debug, Clone)]
pub struct Tracker {
    config: TrackerConfig,
    tracks: Vec<Track>,
    next_id: u64,
}

impl Tracker {
    /// Creates a tracker.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`TrackerConfig::validate`].
    pub fn new(config: TrackerConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid tracker config: {msg}");
        }
        Tracker {
            config,
            tracks: Vec::new(),
            next_id: 0,
        }
    }

    /// All live tracks.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Confirmed tracks only.
    pub fn confirmed_tracks(&self) -> Vec<&Track> {
        self.tracks
            .iter()
            .filter(|t| matches!(t.state, TrackState::Confirmed | TrackState::Coasting))
            .collect()
    }

    /// Live tracks per lifecycle state:
    /// `(tentative, confirmed, coasting)`.
    pub fn state_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for t in &self.tracks {
            match t.state {
                TrackState::Tentative => counts.0 += 1,
                TrackState::Confirmed => counts.1 += 1,
                TrackState::Coasting => counts.2 += 1,
            }
        }
        counts
    }

    /// Advances the tracker by one frame: predict, associate (greedy
    /// best-distance, same class, within the gate), update hits/misses
    /// and spawn tracks for unmatched detections.
    ///
    /// Confidence is carried across frames: a hit raises
    /// [`Track::last_score`] to at least the new detection's score but
    /// never lowers it, and every miss decays it by a factor of 0.9 — so
    /// a briefly occluded object
    /// keeps most of the confidence its evidence earned.
    ///
    /// # Panics
    ///
    /// Panics when `dt` is not positive and finite.
    pub fn update(&mut self, detections: &[Detection], dt: f64) -> TrackerStepSummary {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        let mut summary = TrackerStepSummary::default();
        // Predict.
        for t in &mut self.tracks {
            t.position += t.velocity * dt;
        }
        // Build all candidate (distance, track, detection) pairs within
        // the gate, then associate greedily by ascending distance.
        let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
        for (ti, t) in self.tracks.iter().enumerate() {
            for (di, d) in detections.iter().enumerate() {
                if d.class != t.class {
                    continue;
                }
                let dist = t.position.distance_xy(d.obb.center);
                if dist <= self.config.gate_distance {
                    pairs.push((dist, ti, di));
                }
            }
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut track_used = vec![false; self.tracks.len()];
        let mut det_used = vec![false; detections.len()];
        for (_, ti, di) in pairs {
            if track_used[ti] || det_used[di] {
                continue;
            }
            track_used[ti] = true;
            det_used[di] = true;
            summary.matched += 1;
            let t = &mut self.tracks[ti];
            let d = &detections[di];
            let residual = d.obb.center - t.position;
            t.position += residual * self.config.alpha;
            t.velocity += residual * (self.config.beta / dt);
            t.hits += 1;
            t.misses = 0;
            t.last_score = d.score.max(t.last_score);
            // A Coasting track was already confirmed once; the preceding
            // miss zeroed `hits`, so waiting for `CONFIRM_AFTER` fresh
            // hits would strand it in Coasting under alternating
            // hit/miss. Re-association restores Confirmed immediately.
            if t.state == TrackState::Coasting || t.hits >= CONFIRM_AFTER {
                if t.state != TrackState::Confirmed {
                    summary.promoted += 1;
                }
                t.state = TrackState::Confirmed;
            }
        }
        // Unmatched tracks miss.
        for (ti, used) in track_used.iter().enumerate() {
            if !used {
                let t = &mut self.tracks[ti];
                t.misses += 1;
                t.hits = 0;
                t.last_score *= SCORE_DECAY;
                if t.state == TrackState::Confirmed {
                    t.state = TrackState::Coasting;
                    summary.coasted += 1;
                }
            }
        }
        let before = self.tracks.len();
        self.tracks.retain(|t| t.misses < DROP_AFTER);
        summary.dropped = before - self.tracks.len();
        // Unmatched detections spawn tentative tracks.
        for (di, d) in detections.iter().enumerate() {
            if det_used[di] {
                continue;
            }
            summary.spawned += 1;
            self.next_id += 1;
            self.tracks.push(Track {
                id: TrackId(self.next_id),
                class: d.class,
                position: d.obb.center,
                velocity: Vec3::ZERO,
                state: TrackState::Tentative,
                hits: 1,
                misses: 0,
                last_score: d.score,
            });
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooper_geometry::Obb3;

    fn det(x: f64, y: f64) -> Detection {
        Detection {
            class: ObjectClass::Car,
            obb: Obb3::new(Vec3::new(x, y, -1.0), Vec3::new(4.5, 1.8, 1.5), 0.0),
            score: 0.8,
        }
    }

    fn ped(x: f64, y: f64) -> Detection {
        Detection {
            class: ObjectClass::Pedestrian,
            obb: Obb3::new(Vec3::new(x, y, -1.0), Vec3::new(0.6, 0.6, 1.7), 0.0),
            score: 0.6,
        }
    }

    #[test]
    fn track_confirms_and_estimates_velocity() {
        let mut tr = Tracker::new(TrackerConfig::default());
        // A car moving +10 m/s in x, 10 Hz frames.
        for step in 0..5 {
            tr.update(&[det(10.0 + step as f64, 0.0)], 0.1);
        }
        let confirmed = tr.confirmed_tracks();
        assert_eq!(confirmed.len(), 1);
        let t = confirmed[0];
        assert!(t.velocity.x > 4.0, "velocity {}", t.velocity);
        assert!((t.position.x - 14.0).abs() < 1.5, "position {}", t.position);
    }

    #[test]
    fn identity_is_stable_across_frames() {
        let mut tr = Tracker::new(TrackerConfig::default());
        tr.update(&[det(10.0, 0.0), det(30.0, 5.0)], 0.1);
        let ids_before: Vec<TrackId> = tr.tracks().iter().map(|t| t.id).collect();
        tr.update(&[det(10.2, 0.0), det(30.1, 5.1)], 0.1);
        let ids_after: Vec<TrackId> = tr.tracks().iter().map(|t| t.id).collect();
        assert_eq!(ids_before, ids_after);
    }

    #[test]
    fn missed_tracks_coast_then_drop() {
        let mut tr = Tracker::new(TrackerConfig::default());
        tr.update(&[det(10.0, 0.0)], 0.1);
        tr.update(&[det(10.0, 0.0)], 0.1);
        assert_eq!(tr.confirmed_tracks().len(), 1);
        // Object disappears.
        tr.update(&[], 0.1);
        assert_eq!(tr.tracks()[0].state, TrackState::Coasting);
        tr.update(&[], 0.1);
        tr.update(&[], 0.1);
        assert!(tr.tracks().is_empty(), "track should be dropped");
    }

    #[test]
    fn tentative_track_drops_after_three_misses() {
        // One hit leaves a track tentative; misses never promote it, and
        // the third consecutive miss retires it.
        let mut tr = Tracker::new(TrackerConfig::default());
        tr.update(&[det(10.0, 0.0)], 0.1);
        for _ in 0..2 {
            tr.update(&[], 0.1);
            assert_eq!(tr.state_counts(), (1, 0, 0));
        }
        let summary = tr.update(&[], 0.1);
        assert_eq!(summary.dropped, 1);
        assert!(tr.tracks().is_empty());
    }

    #[test]
    fn classes_do_not_cross_associate() {
        let mut tr = Tracker::new(TrackerConfig::default());
        tr.update(&[det(10.0, 0.0)], 0.1);
        // A pedestrian appears exactly where the car track predicts.
        tr.update(&[ped(10.0, 0.0)], 0.1);
        assert_eq!(tr.tracks().len(), 2, "must spawn a separate track");
        let classes: Vec<ObjectClass> = tr.tracks().iter().map(|t| t.class).collect();
        assert!(classes.contains(&ObjectClass::Car));
        assert!(classes.contains(&ObjectClass::Pedestrian));
    }

    #[test]
    fn gate_prevents_far_association() {
        let mut tr = Tracker::new(TrackerConfig::default());
        tr.update(&[det(10.0, 0.0)], 0.1);
        tr.update(&[det(20.0, 0.0)], 0.1);
        // 10 m jump exceeds the 3 m gate: two distinct tracks.
        assert_eq!(tr.tracks().len(), 2);
    }

    #[test]
    fn greedy_association_prefers_nearest() {
        let mut tr = Tracker::new(TrackerConfig::default());
        tr.update(&[det(10.0, 0.0), det(12.0, 0.0)], 0.1);
        let id_near = tr.tracks()[0].id;
        // Both detections move slightly; the nearer one must keep its id.
        tr.update(&[det(10.2, 0.0), det(12.2, 0.0)], 0.1);
        assert_eq!(tr.tracks()[0].id, id_near);
        assert_eq!(tr.tracks().len(), 2);
    }

    #[test]
    fn coasting_track_prediction_reacquires() {
        let mut tr = Tracker::new(TrackerConfig::default());
        // Build velocity over several frames: 10 m/s.
        for step in 0..4 {
            tr.update(&[det(10.0 + step as f64, 0.0)], 0.1);
        }
        let id = tr.confirmed_tracks()[0].id;
        // One missed frame; object continues moving.
        tr.update(&[], 0.1);
        // Reappears where prediction says (~15): reacquired, same id.
        tr.update(&[det(15.0, 0.0)], 0.1);
        let t = tr.tracks().iter().find(|t| t.id == id).expect("track kept");
        assert_eq!(t.misses, 0);
        assert_eq!(t.state, TrackState::Confirmed, "reacquired track confirms");
    }

    #[test]
    fn coasting_track_reconfirms_on_rehit() {
        // Regression: hit → hit (confirm) → miss (coast) → hit. The miss
        // zeroes `hits`, so the re-hit leaves `hits = 1 < CONFIRM_AFTER`;
        // before the fix the track stayed Coasting forever under
        // alternating hit/miss even though it was already confirmed.
        let mut tr = Tracker::new(TrackerConfig::default());
        tr.update(&[det(10.0, 0.0)], 0.1);
        tr.update(&[det(10.0, 0.0)], 0.1);
        assert_eq!(tr.tracks()[0].state, TrackState::Confirmed);
        tr.update(&[], 0.1);
        assert_eq!(tr.tracks()[0].state, TrackState::Coasting);
        let summary = tr.update(&[det(10.0, 0.0)], 0.1);
        let t = &tr.tracks()[0];
        assert_eq!(t.hits, 1, "miss reset the hit streak");
        assert_eq!(
            t.state,
            TrackState::Confirmed,
            "re-associated Coasting track must restore Confirmed immediately"
        );
        assert_eq!(summary.promoted, 1);
        // Alternating hit/miss keeps the already-confirmed object
        // flapping between Confirmed and Coasting, never Tentative.
        for _ in 0..3 {
            tr.update(&[], 0.1);
            assert_eq!(tr.tracks()[0].state, TrackState::Coasting);
            tr.update(&[det(10.0, 0.0)], 0.1);
            assert_eq!(tr.tracks()[0].state, TrackState::Confirmed);
        }
    }

    #[test]
    fn confidence_carries_across_misses() {
        let mut tr = Tracker::new(TrackerConfig::default());
        let strong = Detection {
            score: 0.9,
            ..det(10.0, 0.0)
        };
        let weak = Detection {
            score: 0.3,
            ..det(10.0, 0.0)
        };
        tr.update(&[strong], 0.1);
        tr.update(&[], 0.1);
        let decayed = tr.tracks()[0].last_score;
        assert!((decayed - 0.9 * 0.9).abs() < 1e-6, "miss decays the score");
        tr.update(&[weak], 0.1);
        assert!(
            tr.tracks()[0].last_score > weak.score,
            "a weak re-hit must not erase carried confidence"
        );
    }

    #[test]
    fn update_summary_counts_transitions() {
        let mut tr = Tracker::new(TrackerConfig::default());
        let s = tr.update(&[det(10.0, 0.0), det(30.0, 5.0)], 0.1);
        assert_eq!(s.spawned, 2);
        assert_eq!(s.matched, 0);
        let s = tr.update(&[det(10.0, 0.0)], 0.1);
        assert_eq!(s.matched, 1);
        assert_eq!(s.promoted, 1);
        assert_eq!(tr.state_counts(), (1, 1, 0));
        let s = tr.update(&[], 0.1);
        assert_eq!(s.coasted, 1);
        let s = tr.update(&[], 0.1);
        let s2 = tr.update(&[], 0.1);
        assert_eq!(s.dropped + s2.dropped, 2, "both tracks retire");
        assert!(tr.tracks().is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid tracker config")]
    fn bad_config_panics() {
        let _ = Tracker::new(TrackerConfig {
            gate_distance: 0.0,
            ..TrackerConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "dt")]
    fn bad_dt_panics() {
        let mut tr = Tracker::new(TrackerConfig::default());
        tr.update(&[], 0.0);
    }

    #[test]
    fn config_validation_messages() {
        let bad_alpha = TrackerConfig {
            alpha: 1.5,
            ..TrackerConfig::default()
        };
        assert!(bad_alpha.validate().unwrap_err().contains("alpha"));
    }

    #[test]
    fn validate_rejects_a_non_finite_gate() {
        // A NaN gate would pass every distance test as false: no
        // detection would ever associate.
        for gate_distance in [f64::NAN, f64::INFINITY] {
            let config = TrackerConfig {
                gate_distance,
                ..TrackerConfig::default()
            };
            assert!(
                config.validate().unwrap_err().contains("gate"),
                "{gate_distance}"
            );
        }
    }
}
