//! `cooper-telemetry`: pipeline-wide tracing spans and a metrics
//! registry for the Cooper workspace.
//!
//! The crate is deliberately tiny and dependency-free (std plus the
//! workspace's existing `serde` marker derives and `parking_lot`): the
//! perception pipeline must pay essentially nothing for
//! instrumentation when telemetry is off, and the crate must build in
//! the offline environments the workspace targets.
//!
//! # Model
//!
//! - **Spans** time a region via an RAII guard. Spans opened while
//!   another span is open on the same thread nest under it, producing
//!   `/`-joined paths such as
//!   `pipeline.perceive/pipeline.fuse/packet.decode`.
//!   Durations aggregate into fixed-footprint power-of-two histograms,
//!   so p50/p95/p99/max come free at snapshot time.
//! - **Counters** accumulate monotonically (`pipeline.packets_fused`).
//! - **Gauges** keep their latest value (`fleet.connected_ratio`).
//! - **Value histograms** aggregate non-duration observations
//!   (`v2x.frame_bytes`).
//!
//! # Naming scheme
//!
//! Names are `<subsystem>.<point>` with dots: `pipeline.fuse`,
//! `spod.voxelize`, `v2x.tx_bytes`, `fleet.step`. The `/` separator is
//! reserved for span nesting.
//!
//! # Global vs local
//!
//! Instrumented library code records into the process-wide registry
//! via the free functions ([`span()`], [`counter_add`], ...). Tests and
//! embedders that need isolation construct their own [`Registry`].
//!
//! ```
//! cooper_telemetry::enable();
//! {
//!     let _outer = cooper_telemetry::span("pipeline.fuse");
//!     let _inner = cooper_telemetry::span("packet.decode");
//! }
//! cooper_telemetry::counter_add("pipeline.packets_fused", 3);
//! let snapshot = cooper_telemetry::snapshot();
//! assert_eq!(snapshot.span("pipeline.fuse/packet.decode").unwrap().count, 1);
//! cooper_telemetry::reset();
//! cooper_telemetry::disable();
//! ```

pub mod histogram;
pub mod names;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use histogram::Histogram;
pub use registry::{Registry, SpanGuard};
pub use snapshot::{SelfTimeEntry, SpanSummary, TelemetrySnapshot, ValueSummary};
pub use trace::{ChromeTrace, TraceEvent, TraceId};

static GLOBAL: Registry = Registry::new();

/// The process-wide registry used by the free functions below.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Turns global recording on.
pub fn enable() {
    GLOBAL.enable();
}

/// Turns global recording off; recorded data is kept.
pub fn disable() {
    GLOBAL.disable();
}

/// Whether the global registry currently records.
pub fn is_enabled() -> bool {
    GLOBAL.is_enabled()
}

/// Opens a timing span on the global registry.
pub fn span(name: &'static str) -> SpanGuard<'static> {
    GLOBAL.span(name)
}

/// Adds to a global monotonic counter.
pub fn counter_add(name: &str, delta: u64) {
    GLOBAL.counter_add(name, delta);
}

/// Sets a global gauge.
pub fn gauge_set(name: &str, value: f64) {
    GLOBAL.gauge_set(name, value);
}

/// Records into a global value histogram.
pub fn record_value(name: &str, value: u64) {
    GLOBAL.record_value(name, value);
}

/// Snapshots the global registry.
pub fn snapshot() -> TelemetrySnapshot {
    GLOBAL.snapshot()
}

/// Turns global trace capture on or off (see [`Registry::set_tracing`];
/// effective only while [`enable`]d).
pub fn set_tracing(on: bool) {
    GLOBAL.set_tracing(on);
}

/// Whether the global registry currently captures trace events.
pub fn is_tracing() -> bool {
    GLOBAL.is_tracing()
}

/// Appends a per-transfer stage mark to the global trace buffer.
pub fn trace_mark(trace: TraceId, stage: &str, terminal: bool) {
    GLOBAL.trace_mark(trace, stage, terminal);
}

/// [`trace_mark`] with a stage-specific numeric detail.
pub fn trace_mark_with(trace: TraceId, stage: &str, terminal: bool, detail: u64) {
    GLOBAL.trace_mark_with(trace, stage, terminal, detail);
}

/// Drains the global trace buffer.
pub fn take_trace() -> ChromeTrace {
    GLOBAL.take_trace()
}

/// Clears all global recordings (keeps the enabled and tracing flags).
pub fn reset() {
    GLOBAL.reset();
}

/// Opens a span on the global registry:
/// `let _guard = span!("pipeline.fuse");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

#[cfg(test)]
mod tests {
    // The global registry is shared across the test binary's threads,
    // so tests here use distinctive names and avoid `reset`; behaviour
    // is covered in depth by per-module tests on local registries.
    use super::*;

    #[test]
    fn global_round_trip() {
        enable();
        {
            let _guard = span!("lib_test.outer");
            let _inner = span!("lib_test.inner");
        }
        counter_add("lib_test.counter", 2);
        gauge_set("lib_test.gauge", 1.5);
        record_value("lib_test.value", 64);

        let snap = snapshot();
        assert_eq!(snap.span("lib_test.outer").unwrap().count, 1);
        assert_eq!(snap.span("lib_test.outer/lib_test.inner").unwrap().count, 1);
        assert_eq!(snap.counter("lib_test.counter"), Some(2));
        assert_eq!(snap.gauge("lib_test.gauge"), Some(1.5));
        assert_eq!(snap.value("lib_test.value").unwrap().count, 1);
    }
}
