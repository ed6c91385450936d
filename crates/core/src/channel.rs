//! The channel-model API: who hears whom, decided one transfer at a
//! time.
//!
//! The fleet loop used to take a bare `FnMut(usize, u32, u32, usize) ->
//! bool` — four anonymous integers whose meaning lived only in a doc
//! comment. [`ChannelModel`] names the contract: the simulation asks
//! the channel about each directed transfer via a [`TransferCtx`], and
//! the channel answers whether the packet arrives. Stateful media
//! (air-time budgets, contention, per-link loss) keep their state in
//! `self`; `cooper-v2x` implements the trait for its `SharedMedium`.
//!
//! Closures still work: any `FnMut(usize, u32, u32, usize) -> bool`
//! implements `ChannelModel` through a blanket impl, so quick one-off
//! filters in tests don't need a named type.
//!
//! Delivery decisions are always made **serially, in deterministic
//! order** (by step, then receiver, then sender) — the channel is the
//! one stage of the parallel fleet loop that must observe a single
//! global order, because shared-medium state makes delivery of one
//! packet depend on every packet before it.

use serde::{Deserialize, Serialize};

/// Everything a channel model may consult about one directed transfer.
///
/// Fields are the stable identity of the transfer, not indices into
/// simulation internals, so models can key per-link state off
/// `(from, to)` and per-window state off `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferCtx {
    /// Simulation step the transfer happens in.
    pub step: usize,
    /// Transmitting vehicle's id.
    pub from: u32,
    /// Receiving vehicle's id.
    pub to: u32,
    /// Bytes the packet occupies on the wire.
    pub wire_bytes: usize,
}

/// What became of one directed transfer — the graded verdict behind
/// the boolean [`ChannelModel::deliver`] answer.
///
/// `Partial` carries byte counts rather than a float so the verdict
/// stays `Eq`-comparable (and therefore usable in deterministic report
/// diffs); use [`Delivery::fraction`] for the ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Delivery {
    /// The whole packet arrived in time.
    Delivered,
    /// Nothing usable arrived (loss, saturation, or policy).
    Dropped,
    /// The delivery deadline expired before any usable prefix arrived.
    DeadlineExceeded,
    /// The deadline expired mid-transfer: only a leading portion of the
    /// wire bytes arrived, available for salvage.
    Partial {
        /// Contiguous leading wire bytes that arrived.
        delivered_bytes: usize,
        /// Total wire bytes of the packet.
        total_bytes: usize,
    },
    /// The packet arrived but bytes were damaged in flight (bit flips
    /// or mid-frame truncation the link layer detected). Nothing of it
    /// is trustworthy — content-integrity checks, not salvage, decide
    /// what happens next.
    Corrupted,
}

impl Delivery {
    /// Fraction of the packet that arrived, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        match self {
            Delivery::Delivered => 1.0,
            Delivery::Dropped | Delivery::DeadlineExceeded | Delivery::Corrupted => 0.0,
            Delivery::Partial {
                delivered_bytes,
                total_bytes,
            } => {
                if *total_bytes == 0 {
                    0.0
                } else {
                    *delivered_bytes as f64 / *total_bytes as f64
                }
            }
        }
    }
}

/// Decides, per directed transfer, whether a packet is delivered.
///
/// Implementations may be stateful (`&mut self`): a shared medium
/// spends air time, a scheduler counts sends per window. The fleet
/// simulation calls [`ChannelModel::deliver_verdict`] in a
/// deterministic order — by step, then receiver id order, then sender
/// order — so stateful models behave identically run to run and at any
/// thread count.
pub trait ChannelModel {
    /// Returns `true` when the packet described by `tx` arrives.
    fn deliver(&mut self, tx: &TransferCtx) -> bool;

    /// The graded form of [`ChannelModel::deliver`]: distinguishes
    /// deadline misses and partial (salvageable) deliveries from plain
    /// drops. The default maps the boolean answer to
    /// [`Delivery::Delivered`] / [`Delivery::Dropped`]; models with
    /// ARQ + deadline semantics override this.
    fn deliver_verdict(&mut self, tx: &TransferCtx) -> Delivery {
        if self.deliver(tx) {
            Delivery::Delivered
        } else {
            Delivery::Dropped
        }
    }

    /// Called by the fleet loop once at the start of each step's
    /// exchange phase, before any delivery question of that step.
    /// Stateful media reset per-window accounting here (e.g. a
    /// one-second air-time window). The default does nothing.
    fn on_step_begin(&mut self, step: usize) {
        let _ = step;
    }

    /// Air time `payload_bytes` would occupy on this channel, seconds.
    /// `None` (the default) means the model does not account air time —
    /// budget-aware callers (the bandwidth governor) then have no size
    /// signal and fall back to their unconstrained choice.
    fn airtime_for(&self, payload_bytes: usize) -> Option<f64> {
        let _ = payload_bytes;
        None
    }

    /// Air time still unspent in the current window, seconds. `None`
    /// (the default) when the model keeps no window accounting.
    fn airtime_headroom_s(&self) -> Option<f64> {
        None
    }
}

/// The ideal channel: every packet arrives. The default for
/// [`crate::fleet::FleetSimulation::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfectChannel;

impl ChannelModel for PerfectChannel {
    fn deliver(&mut self, _tx: &TransferCtx) -> bool {
        true
    }
}

/// Blanket impl: the old closure form keeps working. The callback
/// receives `(step, from, to, wire_bytes)` — the same four values,
/// now also available as a named [`TransferCtx`].
impl<F> ChannelModel for F
where
    F: FnMut(usize, u32, u32, usize) -> bool,
{
    fn deliver(&mut self, tx: &TransferCtx) -> bool {
        self(tx.step, tx.from, tx.to, tx.wire_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(step: usize, from: u32, to: u32, bytes: usize) -> TransferCtx {
        TransferCtx {
            step,
            from,
            to,
            wire_bytes: bytes,
        }
    }

    #[test]
    fn perfect_channel_delivers_everything() {
        let mut channel = PerfectChannel;
        for step in 0..4 {
            assert!(channel.deliver(&ctx(step, 1, 2, 100_000)));
        }
    }

    #[test]
    fn closures_implement_channel_model() {
        let mut seen = Vec::new();
        let mut filter = |step: usize, from: u32, to: u32, bytes: usize| {
            seen.push((step, from, to, bytes));
            from != 2
        };
        assert!(filter.deliver(&ctx(0, 1, 2, 64)));
        assert!(!filter.deliver(&ctx(1, 2, 1, 64)));
        assert_eq!(seen, vec![(0, 1, 2, 64), (1, 2, 1, 64)]);
    }

    #[test]
    fn default_verdict_mirrors_deliver() {
        let mut channel = PerfectChannel;
        assert_eq!(
            channel.deliver_verdict(&ctx(0, 1, 2, 10)),
            Delivery::Delivered
        );
        let mut never = |_: usize, _: u32, _: u32, _: usize| false;
        assert_eq!(never.deliver_verdict(&ctx(0, 1, 2, 10)), Delivery::Dropped);
    }

    #[test]
    fn delivery_fraction() {
        assert_eq!(Delivery::Delivered.fraction(), 1.0);
        assert_eq!(Delivery::Dropped.fraction(), 0.0);
        assert_eq!(Delivery::DeadlineExceeded.fraction(), 0.0);
        assert_eq!(Delivery::Corrupted.fraction(), 0.0);
        let half = Delivery::Partial {
            delivered_bytes: 50,
            total_bytes: 100,
        };
        assert!((half.fraction() - 0.5).abs() < 1e-12);
        let degenerate = Delivery::Partial {
            delivered_bytes: 0,
            total_bytes: 0,
        };
        assert_eq!(degenerate.fraction(), 0.0);
    }

    #[test]
    fn stateful_closure_keeps_state_across_calls() {
        let mut budget = 2usize;
        let mut capped = move |_: usize, _: u32, _: u32, _: usize| {
            if budget == 0 {
                false
            } else {
                budget -= 1;
                true
            }
        };
        assert!(capped.deliver(&ctx(0, 1, 2, 1)));
        assert!(capped.deliver(&ctx(0, 2, 1, 1)));
        assert!(!capped.deliver(&ctx(0, 3, 1, 1)));
    }
}
