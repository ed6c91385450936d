//! The DSRC (802.11p) channel model.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// The 802.11p data rates (10 MHz channel), as standardized by IEEE
/// 1609 / the DSRC profile the paper cites \[12\].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataRate {
    /// 3 Mbit/s (BPSK 1/2) — the most robust mandatory rate.
    Mbps3,
    /// 6 Mbit/s (QPSK 1/2) — the common default control rate.
    Mbps6,
    /// 12 Mbit/s (16-QAM 1/2).
    Mbps12,
    /// 27 Mbit/s (64-QAM 3/4) — the highest 10 MHz rate.
    Mbps27,
}

impl DataRate {
    /// All rates, ascending.
    pub const ALL: [DataRate; 4] = [
        DataRate::Mbps3,
        DataRate::Mbps6,
        DataRate::Mbps12,
        DataRate::Mbps27,
    ];

    /// The rate in bits per second.
    pub fn bits_per_second(self) -> f64 {
        match self {
            DataRate::Mbps3 => 3.0e6,
            DataRate::Mbps6 => 6.0e6,
            DataRate::Mbps12 => 12.0e6,
            DataRate::Mbps27 => 27.0e6,
        }
    }
}

impl std::fmt::Display for DataRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} Mbit/s", self.bits_per_second() / 1e6)
    }
}

/// The Gilbert–Elliott two-state burst-loss parameters.
///
/// Real 802.11p channels do not lose frames independently: fades and
/// hidden-terminal collisions arrive in *bursts*. The Gilbert–Elliott
/// model captures this with a two-state Markov chain — a `Good` state
/// with low frame loss and a `Bad` state with high loss — whose state
/// transitions happen once per transmitted frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GilbertElliott {
    /// Per-frame probability of entering the bad state from the good
    /// state.
    pub p_good_to_bad: f64,
    /// Per-frame probability of recovering from the bad state. Its
    /// reciprocal is the mean burst length in frames.
    pub p_bad_to_good: f64,
    /// Frame-loss probability while in the good state.
    pub loss_good: f64,
    /// Frame-loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Builds a bursty profile whose long-run frame-loss rate is
    /// approximately `loss_rate`, with a mean burst length of 8 frames
    /// and a 75 % in-burst loss probability.
    ///
    /// # Panics
    ///
    /// Panics when `loss_rate` is outside `[0, 0.7)` — higher rates
    /// cannot be reached with the fixed in-burst loss probability.
    pub fn from_loss_rate(loss_rate: f64) -> Self {
        assert!(
            (0.0..0.7).contains(&loss_rate),
            "burst loss rate must be in [0, 0.7)"
        );
        let loss_bad = 0.75;
        let p_bad_to_good = 0.125; // mean burst length: 8 frames
        let stationary_bad = loss_rate / loss_bad;
        let p_good_to_bad = if stationary_bad == 0.0 {
            0.0
        } else {
            p_bad_to_good * stationary_bad / (1.0 - stationary_bad)
        };
        GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good: 0.0,
            loss_bad,
        }
    }

    /// Long-run fraction of frames spent in the bad state.
    pub fn stationary_bad(&self) -> f64 {
        if self.p_good_to_bad == 0.0 && self.p_bad_to_good == 0.0 {
            return 0.0;
        }
        self.p_good_to_bad / (self.p_good_to_bad + self.p_bad_to_good)
    }

    /// Long-run expected frame-loss rate.
    pub fn expected_loss(&self) -> f64 {
        let bad = self.stationary_bad();
        bad * self.loss_bad + (1.0 - bad) * self.loss_good
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message for the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1]"));
            }
        }
        for (name, p) in [("loss_good", self.loss_good), ("loss_bad", self.loss_bad)] {
            if !(0.0..1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1)"));
            }
        }
        Ok(())
    }
}

/// How per-frame loss is sampled.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum LossModel {
    /// Independent per-frame loss with
    /// [`DsrcConfig::loss_probability`] — the original model.
    #[default]
    Independent,
    /// Gilbert–Elliott burst loss; `loss_probability` is ignored.
    GilbertElliott(GilbertElliott),
}

/// Per-transfer frame-loss sampler.
///
/// Holds the channel state that persists across the frames of one
/// transfer — the Gilbert–Elliott good/bad state — so burst
/// correlation spans fragments (and ARQ retransmission rounds) of one
/// message while outcomes stay independent of how transfers are
/// ordered. Obtain one per transfer via [`DsrcChannel::loss_process`].
#[derive(Debug, Clone)]
pub struct LossProcess {
    model: LossModel,
    iid_loss: f64,
    in_bad: bool,
}

impl LossProcess {
    /// Samples whether the next transmitted frame is lost, advancing
    /// the burst state.
    pub fn frame_lost<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        match self.model {
            LossModel::Independent => self.iid_loss > 0.0 && rng.gen::<f64>() < self.iid_loss,
            LossModel::GilbertElliott(ge) => {
                let loss = if self.in_bad {
                    ge.loss_bad
                } else {
                    ge.loss_good
                };
                let lost = loss > 0.0 && rng.gen::<f64>() < loss;
                let flip = if self.in_bad {
                    ge.p_bad_to_good
                } else {
                    ge.p_good_to_bad
                };
                if flip > 0.0 && rng.gen::<f64>() < flip {
                    self.in_bad = !self.in_bad;
                }
                lost
            }
        }
    }
}

/// Maximum payload bytes per link-layer frame (the 802.11 MSDU bound
/// a LiDAR payload is fragmented to).
pub const MTU: usize = 1460;

/// MAC + PHY header overhead per frame, bytes.
pub(crate) const PER_FRAME_OVERHEAD: usize = 64;

/// Channel model parameters. Every frame carries at most [`MTU`]
/// payload bytes plus a fixed MAC + PHY header.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DsrcConfig {
    /// PHY data rate.
    pub data_rate: DataRate,
    /// Fixed per-frame channel-access time (preamble, SIFS, contention),
    /// seconds.
    pub per_frame_access_time: f64,
    /// Independent per-frame loss probability, used when `loss_model`
    /// is [`LossModel::Independent`].
    pub loss_probability: f64,
    /// How per-frame loss is sampled (independent vs burst).
    pub loss_model: LossModel,
    /// Probability that a *delivered* frame arrives damaged (bit flips
    /// or mid-frame truncation that slipped past the PHY) — sampled
    /// independently of loss, per frame. Zero (the default) disables
    /// the corruption process and consumes no randomness, so enabling
    /// it never perturbs the random streams of corruption-free runs.
    pub corruption_probability: f64,
}

impl Default for DsrcConfig {
    fn default() -> Self {
        DsrcConfig {
            data_rate: DataRate::Mbps6,
            per_frame_access_time: 110e-6,
            loss_probability: 0.0,
            loss_model: LossModel::Independent,
            corruption_probability: 0.0,
        }
    }
}

impl DsrcConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message for the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.loss_probability) {
            return Err("loss probability must be in [0, 1)".into());
        }
        if self.per_frame_access_time < 0.0 {
            return Err("access time must be non-negative".into());
        }
        if !(0.0..1.0).contains(&self.corruption_probability) {
            return Err("corruption probability must be in [0, 1)".into());
        }
        if let LossModel::GilbertElliott(ge) = &self.loss_model {
            ge.validate()?;
        }
        Ok(())
    }
}

/// The outcome of transmitting one application payload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransmissionReport {
    /// Number of link-layer frames used.
    pub frames: usize,
    /// Frames actually delivered.
    pub frames_delivered: usize,
    /// Total bytes put on the air (payload + per-frame overhead).
    pub bytes_on_air: usize,
    /// Total air time consumed, seconds.
    pub airtime_s: f64,
    /// `true` when every frame was delivered.
    pub complete: bool,
}

/// A DSRC channel.
///
/// # Examples
///
/// ```
/// use cooper_v2x::{DsrcChannel, DsrcConfig};
///
/// let channel = DsrcChannel::new(DsrcConfig::default());
/// // One ~210 KB LiDAR frame (the paper's compressed scan size).
/// let report = channel.transmit_sized(210_000, &mut rand::thread_rng());
/// assert!(report.complete);
/// assert!(report.frames > 100); // fragmented over the MTU
/// ```
#[derive(Debug, Clone)]
pub struct DsrcChannel {
    config: DsrcConfig,
}

impl DsrcChannel {
    /// Creates a channel.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`DsrcConfig::validate`].
    pub fn new(config: DsrcConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid DSRC config: {msg}");
        }
        DsrcChannel { config }
    }

    /// The channel configuration.
    pub fn config(&self) -> &DsrcConfig {
        &self.config
    }

    /// Number of link-layer frames needed for `payload_bytes`.
    pub fn frames_for(&self, payload_bytes: usize) -> usize {
        payload_bytes.div_ceil(MTU).max(1)
    }

    /// Air time (seconds) to move `payload_bytes`, ignoring loss.
    pub fn airtime_for(&self, payload_bytes: usize) -> f64 {
        let frames = self.frames_for(payload_bytes);
        let bytes_on_air = payload_bytes + frames * PER_FRAME_OVERHEAD;
        bytes_on_air as f64 * 8.0 / self.config.data_rate.bits_per_second()
            + frames as f64 * self.config.per_frame_access_time
    }

    /// Starts a fresh per-transfer loss process. For the
    /// Gilbert–Elliott model the initial burst state is sampled from
    /// the chain's stationary distribution using `rng`; the independent
    /// model consumes no randomness here.
    pub fn loss_process<R: Rng + ?Sized>(&self, rng: &mut R) -> LossProcess {
        let in_bad = match &self.config.loss_model {
            LossModel::Independent => false,
            LossModel::GilbertElliott(ge) => {
                let stationary = ge.stationary_bad();
                stationary > 0.0 && rng.gen::<f64>() < stationary
            }
        };
        LossProcess {
            model: self.config.loss_model,
            iid_loss: self.config.loss_probability,
            in_bad,
        }
    }

    /// Transmits a payload of the given size, sampling per-frame loss
    /// with the configured loss model.
    pub fn transmit_sized<R: Rng + ?Sized>(
        &self,
        payload_bytes: usize,
        rng: &mut R,
    ) -> TransmissionReport {
        let frames = self.frames_for(payload_bytes);
        let mut process = self.loss_process(rng);
        let mut delivered = 0usize;
        for _ in 0..frames {
            if !process.frame_lost(rng) {
                delivered += 1;
            }
        }
        TransmissionReport {
            frames,
            frames_delivered: delivered,
            bytes_on_air: payload_bytes + frames * PER_FRAME_OVERHEAD,
            airtime_s: self.airtime_for(payload_bytes),
            complete: delivered == frames,
        }
    }

    /// Fraction of channel capacity consumed by an application sending
    /// `bytes_per_second` continuously. Values above 1.0 mean the
    /// channel cannot carry the load.
    pub fn utilization(&self, bytes_per_second: f64) -> f64 {
        // Approximate: payload of one second, fragmented.
        self.airtime_for(bytes_per_second.ceil() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rates_ascend() {
        let mut prev = 0.0;
        for r in DataRate::ALL {
            assert!(r.bits_per_second() > prev);
            prev = r.bits_per_second();
            assert!(!format!("{r}").is_empty());
        }
    }

    #[test]
    fn fragmentation_counts() {
        let ch = DsrcChannel::new(DsrcConfig::default());
        assert_eq!(ch.frames_for(0), 1);
        assert_eq!(ch.frames_for(1460), 1);
        assert_eq!(ch.frames_for(1461), 2);
        assert_eq!(ch.frames_for(14600), 10);
    }

    #[test]
    fn airtime_scales_with_payload_and_rate() {
        let slow = DsrcChannel::new(DsrcConfig {
            data_rate: DataRate::Mbps3,
            ..DsrcConfig::default()
        });
        let fast = DsrcChannel::new(DsrcConfig {
            data_rate: DataRate::Mbps27,
            ..DsrcConfig::default()
        });
        let payload = 225_000; // ~1.8 Mbit
        assert!(slow.airtime_for(payload) > fast.airtime_for(payload));
        // 1.8 Mbit over 3 Mbit/s is at least 0.6 s of raw air time.
        assert!(slow.airtime_for(payload) > 0.6);
        // And over 27 Mbit/s well under 0.2 s.
        assert!(fast.airtime_for(payload) < 0.2);
    }

    #[test]
    fn paper_full_frame_fits_at_one_hertz() {
        // The paper's costliest case: ~1.8 Mbit/frame/car at 1 Hz, two
        // cars. Even at the 6 Mbit/s default both directions fit with
        // headroom.
        let ch = DsrcChannel::new(DsrcConfig::default());
        let per_car = ch.airtime_for(225_000);
        assert!(2.0 * per_car < 1.0, "two cars need {} s/s", 2.0 * per_car);
    }

    #[test]
    fn airtime_exceeds_bare_payload_time() {
        // Framing and channel access cost air time, but less than the
        // payload itself.
        let ch = DsrcChannel::new(DsrcConfig::default());
        let bare = 100_000.0 * 8.0 / ch.config().data_rate.bits_per_second();
        let airtime = ch.airtime_for(100_000);
        assert!(
            airtime > bare && airtime < 2.0 * bare,
            "{airtime} vs {bare}"
        );
    }

    #[test]
    fn lossless_channel_is_complete() {
        let ch = DsrcChannel::new(DsrcConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let r = ch.transmit_sized(50_000, &mut rng);
        assert!(r.complete);
        assert_eq!(r.frames, r.frames_delivered);
        assert!(r.bytes_on_air > 50_000);
    }

    #[test]
    fn transmission_report_prices_every_frame() {
        // 3000 bytes fill two 1460-byte frames and a 80-byte tail, each
        // with 64 bytes of MAC + PHY header.
        let ch = DsrcChannel::new(DsrcConfig::default());
        let r = ch.transmit_sized(3000, &mut StdRng::seed_from_u64(0));
        assert_eq!(r.frames, 3);
        assert_eq!(r.bytes_on_air, 3000 + 3 * 64);
        assert_eq!(r.airtime_s, ch.airtime_for(3000));
        let bits = (3000 + 3 * 64) as f64 * 8.0;
        assert!((r.airtime_s - (bits / 6.0e6 + 3.0 * 110e-6)).abs() < 1e-15);
    }

    #[test]
    fn lossless_transfer_draws_no_randomness() {
        // Only loss is random, so a transfer over a loss-free channel
        // leaves the per-transfer stream where it found it.
        let ch = DsrcChannel::new(DsrcConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        ch.transmit_sized(50_000, &mut rng);
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(3).gen::<u64>());
    }

    #[test]
    fn lossy_channel_drops_frames() {
        let ch = DsrcChannel::new(DsrcConfig {
            loss_probability: 0.5,
            ..DsrcConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let r = ch.transmit_sized(500_000, &mut rng);
        assert!(!r.complete);
        let ratio = r.frames_delivered as f64 / r.frames as f64;
        assert!((0.4..0.6).contains(&ratio), "delivery ratio {ratio}");
    }

    #[test]
    fn utilization_over_capacity() {
        let ch = DsrcChannel::new(DsrcConfig {
            data_rate: DataRate::Mbps3,
            ..DsrcConfig::default()
        });
        // 3 Mbit/s of payload on a 3 Mbit/s channel: overhead pushes it
        // past capacity.
        assert!(ch.utilization(375_000.0) > 1.0);
        assert!(ch.utilization(10_000.0) < 0.1);
    }

    #[test]
    #[should_panic(expected = "invalid DSRC config")]
    fn invalid_config_panics() {
        let _ = DsrcChannel::new(DsrcConfig {
            corruption_probability: 1.0,
            ..DsrcConfig::default()
        });
    }

    #[test]
    fn gilbert_elliott_hits_target_loss_rate() {
        let ge = GilbertElliott::from_loss_rate(0.1);
        assert!((ge.expected_loss() - 0.1).abs() < 1e-9);
        let ch = DsrcChannel::new(DsrcConfig {
            loss_model: LossModel::GilbertElliott(ge),
            ..DsrcConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(7);
        let mut frames = 0usize;
        let mut lost = 0usize;
        for _ in 0..200 {
            let r = ch.transmit_sized(100_000, &mut rng);
            frames += r.frames;
            lost += r.frames - r.frames_delivered;
        }
        let rate = lost as f64 / frames as f64;
        assert!((0.05..0.15).contains(&rate), "empirical loss {rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Same long-run loss rate, but burst losses cluster: the number
        // of *incomplete transfers of few frames* must be much lower
        // than under independent loss, while whole transfers still fail.
        let ge = DsrcChannel::new(DsrcConfig {
            loss_model: LossModel::GilbertElliott(GilbertElliott::from_loss_rate(0.1)),
            ..DsrcConfig::default()
        });
        let iid = DsrcChannel::new(DsrcConfig {
            loss_probability: 0.1,
            ..DsrcConfig::default()
        });
        let runs = 400;
        let count_incomplete = |ch: &DsrcChannel, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..runs)
                .filter(|_| !ch.transmit_sized(30_000, &mut rng).complete)
                .count()
        };
        let ge_incomplete = count_incomplete(&ge, 3);
        let iid_incomplete = count_incomplete(&iid, 3);
        // 21 frames at 10% iid loss: ~89% of transfers lose a frame.
        // Bursty loss concentrates the same frame budget in fewer
        // transfers.
        assert!(
            ge_incomplete * 2 < iid_incomplete,
            "GE {ge_incomplete} vs iid {iid_incomplete}"
        );
        assert!(ge_incomplete > 0);
    }

    #[test]
    fn validate_messages() {
        let c = DsrcConfig {
            loss_probability: 1.0,
            ..DsrcConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("loss"));
        let c2 = DsrcConfig {
            per_frame_access_time: -1.0,
            ..DsrcConfig::default()
        };
        assert!(c2.validate().unwrap_err().contains("access"));
    }
}
