//! Timing decorators around the fleet's two pluggable trait objects.
//!
//! The fleet loop calls its [`ChannelModel`] and [`GovernorPolicy`]
//! serially in phase 2, so wrapping them measures the channel and the
//! governor from outside the program, with no tracing inside it. The
//! channel's `on_step_begin` also marks where each fleet step's
//! exchange phase starts: the gaps between those marks are the
//! fleet-step period.
//!
//! Both decorators forward every trait method, default ones included.
//! Dropping one would silently change the run: without
//! `airtime_headroom_s` the governor sees an unbudgeted channel and
//! stops governing.

use std::time::{Duration, Instant};

use cooper_core::{
    ChannelModel, Delivery, GovernorPolicy, GovernorVerdict, TransferCtx, TransferOffer,
};

/// What a decorator measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Wall time spent inside the wrapped calls.
    pub busy: Duration,
    /// Calls made.
    pub calls: u64,
    /// Calls that did not succeed: answers other than a whole delivery
    /// for the channel, skipped transfers for the governor.
    pub misses: u64,
}

impl Tally {
    fn time<R>(&mut self, f: impl FnOnce() -> R, success: impl Fn(&R) -> bool) -> R {
        let start = Instant::now();
        let answer = f();
        self.busy += start.elapsed();
        self.calls += 1;
        if !success(&answer) {
            self.misses += 1;
        }
        answer
    }
}

/// A [`ChannelModel`] that times every delivery question it forwards.
#[derive(Debug)]
pub struct TimedChannel<C> {
    inner: C,
    step_starts: Vec<Instant>,
    tally: Tally,
}

impl<C: ChannelModel> TimedChannel<C> {
    /// Wraps `inner`.
    pub fn new(inner: C) -> Self {
        TimedChannel {
            inner,
            step_starts: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Instants at which each step's exchange phase began, in step order.
    pub fn step_starts(&self) -> &[Instant] {
        &self.step_starts
    }

    /// The delivery questions answered so far.
    pub fn tally(&self) -> Tally {
        self.tally
    }
}

impl<C: ChannelModel> ChannelModel for TimedChannel<C> {
    fn deliver(&mut self, tx: &TransferCtx) -> bool {
        let inner = &mut self.inner;
        self.tally.time(|| inner.deliver(tx), |&ok| ok)
    }

    fn deliver_verdict(&mut self, tx: &TransferCtx) -> Delivery {
        let inner = &mut self.inner;
        self.tally.time(
            || inner.deliver_verdict(tx),
            |v| matches!(v, Delivery::Delivered),
        )
    }

    fn on_step_begin(&mut self, step: usize) {
        self.step_starts.push(Instant::now());
        self.inner.on_step_begin(step);
    }

    fn airtime_for(&self, payload_bytes: usize) -> Option<f64> {
        self.inner.airtime_for(payload_bytes)
    }

    fn airtime_headroom_s(&self) -> Option<f64> {
        self.inner.airtime_headroom_s()
    }
}

/// A [`GovernorPolicy`] that times every decision it forwards.
#[derive(Debug)]
pub struct TimedPolicy<P> {
    inner: P,
    tally: Tally,
}

impl<P: GovernorPolicy> TimedPolicy<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        TimedPolicy {
            inner,
            tally: Tally::default(),
        }
    }

    /// The decisions made so far.
    pub fn tally(&self) -> Tally {
        self.tally
    }
}

impl<P: GovernorPolicy> GovernorPolicy for TimedPolicy<P> {
    fn decide(&mut self, offer: &TransferOffer<'_>) -> GovernorVerdict {
        let inner = &mut self.inner;
        self.tally
            .time(|| inner.decide(offer), |v| *v != GovernorVerdict::Skip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooper_core::fleet::{
        straight_trajectory, FleetConfig, FleetSimulation, FleetStats, FleetVehicle,
    };
    use cooper_core::{CooperPipeline, GovernorConfig};
    use cooper_lidar_sim::scenario::tj_scenario_1;
    use cooper_lidar_sim::BeamModel;
    use cooper_pointcloud::roi::RoiCategory;
    use cooper_spod::{SpodConfig, SpodDetector};
    use cooper_v2x::{
        ArqConfig, BandwidthGovernor, DataRate, DsrcChannel, DsrcConfig, GilbertElliott, LossModel,
        SharedMedium,
    };

    /// A lossy medium slow enough that the governor's air-time budget
    /// binds within a step, so its decisions depend on the headroom the
    /// channel reports.
    fn lossy_medium() -> SharedMedium {
        SharedMedium::new(DsrcChannel::new(DsrcConfig {
            data_rate: DataRate::Mbps3,
            per_frame_access_time: 0.1,
            loss_model: LossModel::GilbertElliott(GilbertElliott::from_loss_rate(0.2)),
            corruption_probability: 0.01,
            ..DsrcConfig::default()
        }))
        .with_seed(5)
        .with_arq(ArqConfig::default())
    }

    fn ctx(step: usize, from: u32, to: u32, wire_bytes: usize) -> TransferCtx {
        TransferCtx {
            step,
            from,
            to,
            wire_bytes,
        }
    }

    /// Every trait method answers exactly as the wrapped model does,
    /// including the air-time queries the governor budgets with.
    #[test]
    fn channel_forwards_every_method() {
        let mut plain = lossy_medium();
        let mut timed = TimedChannel::new(lossy_medium());
        for step in 0..3 {
            plain.on_step_begin(step);
            timed.on_step_begin(step);
            for (k, bytes) in [40_000, 400_000, 90_000].into_iter().enumerate() {
                let tx = ctx(step, 1 + k as u32, 9, bytes);
                assert_eq!(plain.airtime_for(bytes), timed.airtime_for(bytes));
                assert_eq!(plain.deliver_verdict(&tx), timed.deliver_verdict(&tx));
                assert_eq!(
                    ChannelModel::airtime_headroom_s(&plain),
                    timed.airtime_headroom_s()
                );
                let tx = ctx(step, 5 + k as u32, 9, bytes / 4);
                assert_eq!(plain.deliver(&tx), timed.deliver(&tx));
            }
        }
        assert!(ChannelModel::airtime_headroom_s(&plain).is_some());
        assert_eq!(timed.step_starts().len(), 3);
        assert_eq!(timed.tally().calls, 18);
    }

    fn short_fleet(threads: usize) -> FleetSimulation {
        let scene = tj_scenario_1();
        let vehicles = (0..3)
            .map(|i| FleetVehicle {
                id: i as u32 + 1,
                trajectory: straight_trajectory(scene.observers[i], 1.0, 3),
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            })
            .collect();
        FleetSimulation::new(
            scene.world.clone(),
            vehicles,
            FleetConfig {
                seed: 3,
                threads: Some(threads),
                ..FleetConfig::default()
            },
        )
    }

    fn views(
        reports: &[cooper_core::fleet::FleetStepReport],
        stats: &FleetStats,
    ) -> (Vec<String>, String) {
        (
            reports
                .iter()
                .map(|r| format!("{:?}", r.deterministic_view()))
                .collect(),
            format!("{stats:?}"),
        )
    }

    /// A wrapped lossy governed drive with the feature tier reports
    /// exactly what the unwrapped one does, at 1 and 2 threads.
    #[test]
    fn wrapped_governed_drive_is_unchanged() {
        let pipeline = CooperPipeline::new(SpodDetector::new(SpodConfig::default()));
        let governor = GovernorConfig {
            delta_encode: true,
            features: true,
            keyframe_every: 2,
            ..GovernorConfig::default()
        };
        let policy = || BandwidthGovernor::new(RoiCategory::FullFrame).with_features();
        for threads in [1, 2] {
            let sim = short_fleet(threads);
            let (reports, stats) =
                sim.run_governed(&pipeline, 3, &mut lossy_medium(), &mut policy(), &governor);
            let mut channel = TimedChannel::new(lossy_medium());
            let mut timed_policy = TimedPolicy::new(policy());
            let (wrapped_reports, wrapped_stats) =
                sim.run_governed(&pipeline, 3, &mut channel, &mut timed_policy, &governor);
            assert_eq!(
                views(&reports, &stats),
                views(&wrapped_reports, &wrapped_stats),
                "threads = {threads}"
            );
            assert_eq!(stats, wrapped_stats);
            assert_eq!(channel.step_starts().len(), 3);
            assert!(channel.tally().calls > 0);
            assert!(timed_policy.tally().misses > 0, "the budget never bound");
        }
    }
}
