//! Fragment-level ARQ (automatic repeat request) over the DSRC model.
//!
//! A ~210 KB ROI scan fragments into ~150 link-layer frames; under the
//! original model a single lost frame voided the whole scan. This
//! module retransmits exactly the lost fragments in rounds separated by
//! an exponentially backed-off timeout, all inside a per-step delivery
//! **deadline budget** (`1/rate_hz` for a periodic exchange). When the
//! budget runs out the caller salvages the contiguous prefix that did
//! arrive instead of discarding the scan — see
//! [`crate::salvage_prefix`].
//!
//! Every random draw comes from the caller-supplied [`Rng`], so a
//! per-(sender, receiver, step) seeded stream keeps fleet runs
//! bit-identical at any thread count.

use crate::dsrc::{DsrcChannel, MTU, PER_FRAME_OVERHEAD};
use cooper_telemetry as telemetry;
use cooper_telemetry::names as telemetry_names;
use rand::Rng;

/// Wait before the first retransmission round, seconds — models the
/// receiver's NACK turnaround.
const INITIAL_TIMEOUT_S: f64 = 0.02;

/// Timeout multiplier applied between successive rounds (exponential
/// backoff).
const BACKOFF_FACTOR: f64 = 2.0;

/// Retransmission policy for one (sender, receiver, message) transfer.
/// Rounds are separated by a timeout of 20 ms that doubles each round.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ArqConfig {
    /// Maximum retransmission rounds after the initial transmission.
    /// Zero disables retransmission (the transfer still honours the
    /// deadline).
    pub max_retries: usize,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig { max_retries: 4 }
    }
}

impl ArqConfig {
    /// The per-step delivery deadline budget for a periodic exchange:
    /// everything must land before the next scan, i.e. within
    /// `1/rate_hz` seconds.
    ///
    /// # Panics
    ///
    /// Panics when `rate_hz` is not positive and finite.
    pub fn deadline_for_rate(rate_hz: f64) -> f64 {
        assert!(
            rate_hz > 0.0 && rate_hz.is_finite(),
            "exchange rate must be positive and finite"
        );
        1.0 / rate_hz
    }
}

/// The outcome of one ARQ transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArqReport {
    /// Link-layer fragments the payload was split into.
    pub fragments: usize,
    /// Fragments that were delivered (in any round).
    pub fragments_delivered: usize,
    /// Leading fragments delivered without a gap — what prefix salvage
    /// can decode.
    pub contiguous_prefix: usize,
    /// Transmission rounds executed (1 = no retransmission needed).
    pub rounds: usize,
    /// Frames put on the air across all rounds.
    pub frames_sent: usize,
    /// Frames sent beyond the first attempt per fragment.
    pub retransmits: usize,
    /// Bytes put on the air (payload + per-frame overhead, all rounds).
    pub bytes_on_air: usize,
    /// Time consumed: air time and backoff waits, seconds.
    pub elapsed_s: f64,
    /// `true` when every fragment was delivered within the deadline.
    pub complete: bool,
    /// `true` when the deadline expired before the transfer finished.
    pub deadline_exceeded: bool,
}

impl ArqReport {
    /// Delivered payload fraction the prefix salvage can decode,
    /// in `[0, 1]`.
    pub fn salvage_fraction(&self) -> f64 {
        if self.fragments == 0 {
            return 0.0;
        }
        self.contiguous_prefix as f64 / self.fragments as f64
    }
}

/// Transmits a payload of `payload_bytes` over `channel` with
/// fragment-level ARQ, stopping at `deadline_s` seconds of simulated
/// time.
///
/// Lost fragments are retransmitted in rounds: after each incomplete
/// round the sender waits the (backed-off) timeout, then resends only
/// the fragments still missing. Frames that would start after the
/// deadline are never sent. Burst-loss state
/// ([`crate::LossModel::GilbertElliott`]) persists across rounds of the
/// transfer, so a burst can swallow a retransmission round too.
///
/// Emits the `v2x.arq.retransmits` and `v2x.arq.deadline_miss`
/// telemetry counters.
///
/// # Panics
///
/// Panics when `deadline_s` is not positive.
pub fn transmit_with_arq<R: Rng + ?Sized>(
    channel: &DsrcChannel,
    payload_bytes: usize,
    deadline_s: f64,
    config: &ArqConfig,
    rng: &mut R,
) -> ArqReport {
    assert!(deadline_s > 0.0, "deadline must be positive");
    let cfg = channel.config();
    let fragments = channel.frames_for(payload_bytes);
    // Per-fragment payload sizes: full MTU except a ragged tail.
    let frag_payload = |i: usize| -> usize {
        if i + 1 < fragments {
            MTU
        } else {
            payload_bytes - MTU * (fragments - 1)
        }
    };
    let frame_airtime = |payload: usize| -> f64 {
        (payload + PER_FRAME_OVERHEAD) as f64 * 8.0 / cfg.data_rate.bits_per_second()
            + cfg.per_frame_access_time
    };

    let mut process = channel.loss_process(rng);
    let mut delivered = vec![false; fragments];
    let mut elapsed = 0.0_f64;
    let mut frames_sent = 0usize;
    let mut bytes_on_air = 0usize;
    let mut rounds = 0usize;
    let mut timeout = INITIAL_TIMEOUT_S;
    let mut deadline_exceeded = false;

    'transfer: loop {
        rounds += 1;
        for (i, slot) in delivered.iter_mut().enumerate() {
            if *slot {
                continue;
            }
            let payload = frag_payload(i);
            let airtime = frame_airtime(payload);
            if elapsed + airtime > deadline_s {
                deadline_exceeded = true;
                break 'transfer;
            }
            elapsed += airtime;
            frames_sent += 1;
            bytes_on_air += payload + PER_FRAME_OVERHEAD;
            if !process.frame_lost(rng) {
                *slot = true;
            }
        }
        if delivered.iter().all(|d| *d) {
            break;
        }
        if rounds > config.max_retries {
            break;
        }
        elapsed += timeout;
        timeout *= BACKOFF_FACTOR;
        if elapsed >= deadline_s {
            deadline_exceeded = true;
            break;
        }
    }

    let fragments_delivered = delivered.iter().filter(|d| **d).count();
    let contiguous_prefix = delivered.iter().take_while(|d| **d).count();
    let retransmits = frames_sent.saturating_sub(fragments.min(frames_sent));
    if telemetry::is_enabled() {
        telemetry::counter_add(telemetry_names::V2X_ARQ_RETRANSMITS, retransmits as u64);
        if deadline_exceeded {
            telemetry::counter_add(telemetry_names::V2X_ARQ_DEADLINE_MISS, 1);
        }
    }
    ArqReport {
        fragments,
        fragments_delivered,
        contiguous_prefix,
        rounds,
        frames_sent,
        retransmits,
        bytes_on_air,
        elapsed_s: elapsed,
        complete: fragments_delivered == fragments,
        deadline_exceeded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsrc::{DsrcConfig, GilbertElliott, LossModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lossy(loss: f64) -> DsrcChannel {
        DsrcChannel::new(DsrcConfig {
            loss_probability: loss,
            ..DsrcConfig::default()
        })
    }

    #[test]
    fn lossless_transfer_completes_in_one_round() {
        let ch = lossy(0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let r = transmit_with_arq(&ch, 100_000, 1.0, &ArqConfig::default(), &mut rng);
        assert!(r.complete);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.retransmits, 0);
        assert!(!r.deadline_exceeded);
        assert_eq!(r.contiguous_prefix, r.fragments);
        assert!((r.salvage_fraction() - 1.0).abs() < 1e-12);
        assert!((r.elapsed_s - ch.airtime_for(100_000)).abs() < 1e-12);
        // Nothing was lost, so nothing was drawn: the caller's stream is
        // where it started.
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(0).gen::<u64>());
    }

    #[test]
    fn retransmission_rounds_wait_a_doubling_timeout() {
        // One fragment lost in all three rounds: the sender waits 20 ms
        // after the first round and 40 ms after the second.
        let ch = lossy(0.99);
        let cfg = ArqConfig { max_retries: 2 };
        let mut rng = StdRng::seed_from_u64(5);
        let r = transmit_with_arq(&ch, 1000, 1.0, &cfg, &mut rng);
        assert_eq!((r.rounds, r.frames_sent, r.retransmits), (3, 3, 2));
        assert!(!r.complete && !r.deadline_exceeded);
        assert_eq!(r.bytes_on_air, 3 * (1000 + PER_FRAME_OVERHEAD));
        let frame = ch.airtime_for(1000);
        let waits = 0.02 + 0.04;
        assert!((r.elapsed_s - (3.0 * frame + waits)).abs() < 1e-12, "{r:?}");
    }

    #[test]
    fn arq_recovers_losses_the_plain_channel_drops() {
        let ch = lossy(0.2);
        let mut completed = 0usize;
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = transmit_with_arq(&ch, 100_000, 1.0, &ArqConfig::default(), &mut rng);
            assert!(r.retransmits > 0 || r.complete);
            if r.complete {
                completed += 1;
            }
        }
        // 69 frames at 20% loss: a plain transfer essentially never
        // completes; ARQ almost always does.
        assert!(completed >= 45, "only {completed}/50 completed");
    }

    #[test]
    fn deadline_bounds_elapsed_time_and_flags_misses() {
        let ch = lossy(0.4);
        let deadline = 0.05; // far too tight for 100 KB at 6 Mbit/s
        let mut rng = StdRng::seed_from_u64(2);
        let r = transmit_with_arq(&ch, 100_000, deadline, &ArqConfig::default(), &mut rng);
        assert!(r.deadline_exceeded);
        assert!(!r.complete);
        assert!(r.elapsed_s <= deadline + 1e-9);
        assert!(r.fragments_delivered < r.fragments);
    }

    #[test]
    fn zero_retries_sends_each_fragment_once() {
        let ch = lossy(0.3);
        let cfg = ArqConfig { max_retries: 0 };
        let mut rng = StdRng::seed_from_u64(3);
        let r = transmit_with_arq(&ch, 50_000, 1.0, &cfg, &mut rng);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.frames_sent, r.fragments);
        assert_eq!(r.retransmits, 0);
    }

    #[test]
    fn burst_state_persists_across_rounds() {
        // An extreme burst profile: once bad, stays bad for a long
        // time. ARQ rounds inside one burst keep failing, so some
        // transfers stay incomplete even with retries.
        let ge = GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.002,
            loss_good: 0.0,
            loss_bad: 0.99,
        };
        let ch = DsrcChannel::new(DsrcConfig {
            loss_model: LossModel::GilbertElliott(ge),
            ..DsrcConfig::default()
        });
        let mut incomplete = 0usize;
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = transmit_with_arq(&ch, 60_000, 10.0, &ArqConfig::default(), &mut rng);
            if !r.complete {
                incomplete += 1;
            }
        }
        assert!(incomplete > 0, "bursts should defeat some transfers");
    }

    #[test]
    fn empty_payload_still_transfers() {
        let ch = lossy(0.0);
        let mut rng = StdRng::seed_from_u64(4);
        let r = transmit_with_arq(&ch, 0, 1.0, &ArqConfig::default(), &mut rng);
        assert!(r.complete);
        assert_eq!(r.fragments, 1);
    }

    #[test]
    fn deadline_for_rate_is_reciprocal() {
        assert!((ArqConfig::deadline_for_rate(1.0) - 1.0).abs() < 1e-12);
        assert!((ArqConfig::deadline_for_rate(10.0) - 0.1).abs() < 1e-12);
    }
}
