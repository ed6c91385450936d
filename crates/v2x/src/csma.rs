//! Slotted CSMA/CA contention — what happens when *several* vehicles
//! broadcast frames on one DSRC channel at once.
//!
//! The paper's feasibility study (§IV-G) accounts a two-vehicle
//! exchange; its broader vision has whole fleets cooperating. 802.11p
//! has no RTS/CTS for broadcast, so simultaneous transmissions collide
//! and are lost. This module provides a slotted CSMA/CA model (binary
//! exponential backoff, EDCA-style parameters) to quantify how many
//! cooperators one channel sustains.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::DsrcChannel;

/// Backoff slot time, seconds (13 µs for 802.11p OFDM).
const SLOT_TIME_S: f64 = 13e-6;

/// Initial contention window, slots.
const CW_MIN: u32 = 15;

/// Maximum contention window, slots.
const CW_MAX: u32 = 1023;

/// Attempts per frame before it is dropped.
const MAX_RETRIES: u32 = 7;

/// The outcome of one contention round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CsmaReport {
    /// Stations that entered the round.
    pub stations: usize,
    /// Frames delivered.
    pub delivered: usize,
    /// Frames dropped after exhausting retries.
    pub dropped: usize,
    /// Collision events observed.
    pub collisions: usize,
    /// Wall-clock time until the last frame resolved, seconds.
    pub round_time_s: f64,
    /// Mean per-frame delay (arrival to delivery), seconds, over
    /// delivered frames; 0 when none were delivered.
    pub mean_delay_s: f64,
}

impl CsmaReport {
    /// Delivery ratio in `[0, 1]`.
    pub fn delivery_ratio(&self) -> f64 {
        if self.stations == 0 {
            1.0
        } else {
            self.delivered as f64 / self.stations as f64
        }
    }
}

/// A shared channel with slotted CSMA/CA contention.
///
/// # Examples
///
/// ```
/// use cooper_v2x::{CsmaMedium, DsrcChannel, DsrcConfig};
///
/// let medium = CsmaMedium::new(DsrcChannel::new(DsrcConfig::default()));
/// // Two vehicles broadcast a ~100 KB ROI frame simultaneously.
/// let report = medium.simulate_round(&[100_000, 100_000], &mut rand::thread_rng());
/// assert_eq!(report.delivered + report.dropped, 2);
/// ```
#[derive(Debug, Clone)]
pub struct CsmaMedium {
    channel: DsrcChannel,
}

impl CsmaMedium {
    /// Creates a contention medium over a channel, with 802.11p's
    /// OFDM contention parameters: 13 µs slots, a contention window
    /// doubling from 15 to at most 1023 slots, and 7 attempts per frame.
    pub fn new(channel: DsrcChannel) -> Self {
        CsmaMedium { channel }
    }

    /// The underlying channel.
    pub fn channel(&self) -> &DsrcChannel {
        &self.channel
    }

    /// Simulates one saturated round: every station has one frame ready
    /// at `t = 0` (the worst-case synchronized broadcast, e.g. all
    /// vehicles sampling on the same 1 Hz tick) and contends until
    /// delivery or drop.
    pub fn simulate_round<R: Rng + ?Sized>(&self, payloads: &[usize], rng: &mut R) -> CsmaReport {
        struct Station {
            payload: usize,
            backoff: u32,
            cw: u32,
            retries: u32,
            done: Option<Result<f64, ()>>, // Ok(delivery time) | Err(dropped)
        }
        let mut stations: Vec<Station> = payloads
            .iter()
            .map(|&payload| Station {
                payload,
                backoff: rng.gen_range(0..=CW_MIN),
                cw: CW_MIN,
                retries: 0,
                done: None,
            })
            .collect();

        let mut now = 0.0f64;
        let mut collisions = 0usize;
        loop {
            let pending: Vec<usize> = stations
                .iter()
                .enumerate()
                .filter(|(_, s)| s.done.is_none())
                .map(|(i, _)| i)
                .collect();
            if pending.is_empty() {
                break;
            }
            // Advance to the smallest backoff; stations holding it fire.
            let min_backoff = pending
                .iter()
                .map(|&i| stations[i].backoff)
                .min()
                .expect("pending");
            now += f64::from(min_backoff) * SLOT_TIME_S;
            let firing: Vec<usize> = pending
                .iter()
                .copied()
                .filter(|&i| stations[i].backoff == min_backoff)
                .collect();
            for &i in &pending {
                stations[i].backoff -= min_backoff;
            }
            // The channel is busy for the longest frame either way.
            let busy = firing
                .iter()
                .map(|&i| self.channel.airtime_for(stations[i].payload))
                .fold(0.0f64, f64::max);
            now += busy;
            if firing.len() == 1 {
                stations[firing[0]].done = Some(Ok(now));
            } else {
                collisions += 1;
                for &i in &firing {
                    let s = &mut stations[i];
                    s.retries += 1;
                    if s.retries >= MAX_RETRIES {
                        s.done = Some(Err(()));
                    } else {
                        s.cw = (s.cw * 2 + 1).min(CW_MAX);
                        s.backoff = rng.gen_range(0..=s.cw);
                    }
                }
            }
            // Survivors redraw nothing; their backoff already counted
            // down. Stations at zero backoff that did not fire (only
            // possible after a collision redraw) simply contend again.
            for &i in &pending {
                let s = &mut stations[i];
                if s.done.is_none() && s.backoff == 0 && !firing.contains(&i) {
                    s.backoff = rng.gen_range(0..=s.cw);
                }
            }
        }

        let delivered_times: Vec<f64> = stations
            .iter()
            .filter_map(|s| match s.done {
                Some(Ok(t)) => Some(t),
                _ => None,
            })
            .collect();
        let dropped = stations
            .iter()
            .filter(|s| matches!(s.done, Some(Err(()))))
            .count();
        CsmaReport {
            stations: payloads.len(),
            delivered: delivered_times.len(),
            dropped,
            collisions,
            round_time_s: now,
            mean_delay_s: if delivered_times.is_empty() {
                0.0
            } else {
                delivered_times.iter().sum::<f64>() / delivered_times.len() as f64
            },
        }
    }

    /// Averages [`CsmaMedium::simulate_round`] over `rounds` independent
    /// rounds.
    pub fn simulate_rounds<R: Rng + ?Sized>(
        &self,
        payloads: &[usize],
        rounds: usize,
        rng: &mut R,
    ) -> CsmaReport {
        assert!(rounds > 0, "need at least one round");
        let mut acc = CsmaReport {
            stations: payloads.len(),
            delivered: 0,
            dropped: 0,
            collisions: 0,
            round_time_s: 0.0,
            mean_delay_s: 0.0,
        };
        for _ in 0..rounds {
            let r = self.simulate_round(payloads, rng);
            acc.delivered += r.delivered;
            acc.dropped += r.dropped;
            acc.collisions += r.collisions;
            acc.round_time_s += r.round_time_s;
            acc.mean_delay_s += r.mean_delay_s;
        }
        acc.delivered /= rounds;
        acc.dropped /= rounds;
        acc.round_time_s /= rounds as f64;
        acc.mean_delay_s /= rounds as f64;
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DsrcConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn medium() -> CsmaMedium {
        CsmaMedium::new(DsrcChannel::new(DsrcConfig::default()))
    }

    #[test]
    fn single_station_never_collides() {
        let m = medium();
        let mut rng = StdRng::seed_from_u64(0);
        let r = m.simulate_round(&[50_000], &mut rng);
        assert_eq!(r.delivered, 1);
        assert_eq!(r.collisions, 0);
        assert_eq!(r.dropped, 0);
        assert!(r.delivery_ratio() == 1.0);
        // Round time ≈ backoff + airtime.
        assert!(r.round_time_s >= m.channel().airtime_for(50_000));
    }

    #[test]
    fn lone_station_backs_off_within_the_initial_window() {
        let m = medium();
        let airtime = m.channel().airtime_for(50_000);
        let longest = f64::from(CW_MIN) * SLOT_TIME_S + airtime;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let r = m.simulate_round(&[50_000], &mut rng);
            assert!(r.round_time_s <= longest + 1e-12, "{}", r.round_time_s);
        }
    }

    #[test]
    fn contention_grows_with_station_count() {
        let m = medium();
        let mut rng = StdRng::seed_from_u64(1);
        let two = m.simulate_rounds(&[20_000; 2], 30, &mut rng);
        let ten = m.simulate_rounds(&[20_000; 10], 30, &mut rng);
        assert!(
            ten.collisions > two.collisions,
            "{} vs {}",
            ten.collisions,
            two.collisions
        );
        assert!(ten.round_time_s > two.round_time_s);
    }

    #[test]
    fn all_frames_resolve() {
        let m = medium();
        let mut rng = StdRng::seed_from_u64(2);
        for n in [1usize, 3, 8, 16] {
            let r = m.simulate_round(&vec![10_000; n], &mut rng);
            assert_eq!(r.delivered + r.dropped, n, "n = {n}");
        }
    }

    #[test]
    fn moderate_fleets_deliver_everything() {
        // Backoff spreads 4 stations comfortably: drops are rare enough
        // that 30 rounds of 4 stations see near-total delivery.
        let m = medium();
        let mut rng = StdRng::seed_from_u64(3);
        let r = m.simulate_rounds(&[100_000; 4], 30, &mut rng);
        assert!(r.delivery_ratio() > 0.9, "ratio {}", r.delivery_ratio());
    }

    #[test]
    fn delay_exceeds_pure_airtime_under_contention() {
        let m = medium();
        let mut rng = StdRng::seed_from_u64(4);
        let airtime = m.channel().airtime_for(100_000);
        let r = m.simulate_rounds(&[100_000; 6], 10, &mut rng);
        // Six stations sharing the channel: the last finisher waits for
        // the other five at least.
        assert!(r.round_time_s > 5.0 * airtime, "round {}", r.round_time_s);
    }

    #[test]
    fn report_delivery_ratio_edge() {
        let r = CsmaReport {
            stations: 0,
            delivered: 0,
            dropped: 0,
            collisions: 0,
            round_time_s: 0.0,
            mean_delay_s: 0.0,
        };
        assert_eq!(r.delivery_ratio(), 1.0);
    }
}
