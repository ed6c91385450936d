//! The telemetry registry: span timing, counters, gauges and value
//! histograms, behind one enable switch.
//!
//! Disabled (the default) the cost of every instrumentation point is a
//! single relaxed atomic load — no clock read, no allocation, no lock.
//! Enabled, recording takes one short mutex hold; contention is
//! negligible next to the millisecond-scale stages being measured.

use crate::histogram::Histogram;
use crate::snapshot::{SpanSummary, TelemetrySnapshot, ValueSummary};
use crate::trace::{ChromeTrace, TraceEvent, TraceId};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::ThreadId;
use std::time::Instant;

#[derive(Default)]
struct Inner {
    /// Completed spans, keyed by full `/`-joined path.
    spans: BTreeMap<String, Histogram>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    values: BTreeMap<String, Histogram>,
    /// Per-thread stacks of open span names; linear scan is fine for
    /// the handful of threads a simulation run uses.
    stacks: Vec<(ThreadId, Vec<&'static str>)>,
    /// Time zero of the trace buffer, set lazily at the first traced
    /// event so timestamps start near zero.
    trace_epoch: Option<Instant>,
    /// Completed span slices and per-transfer stage marks, in
    /// completion order.
    trace_events: Vec<TraceEvent>,
    /// Stable thread → lane mapping; index in this vec is the lane.
    trace_lanes: Vec<ThreadId>,
}

impl Inner {
    /// Lane index for `thread`, assigning the next free lane on first
    /// sight.
    fn lane_for(&mut self, thread: ThreadId) -> usize {
        match self.trace_lanes.iter().position(|id| *id == thread) {
            Some(lane) => lane,
            None => {
                self.trace_lanes.push(thread);
                self.trace_lanes.len() - 1
            }
        }
    }

    /// Microseconds since the trace epoch, establishing it on first
    /// use.
    fn trace_now_us(&mut self) -> u64 {
        let epoch = *self.trace_epoch.get_or_insert_with(Instant::now);
        epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

/// A thread-safe telemetry registry, usable as a `static`.
pub struct Registry {
    enabled: AtomicBool,
    /// Whether completed spans and stage marks are additionally
    /// captured into the trace buffer; only effective while `enabled`.
    tracing: AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A disabled registry with no recordings.
    pub const fn new() -> Self {
        Registry {
            enabled: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            inner: Mutex::new(Inner {
                spans: BTreeMap::new(),
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                values: BTreeMap::new(),
                stacks: Vec::new(),
                trace_epoch: None,
                trace_events: Vec::new(),
                trace_lanes: Vec::new(),
            }),
        }
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns recording off; existing data is kept.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether instrumentation points currently record.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns trace capture on or off. Tracing only records while the
    /// registry is also enabled.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Whether completed spans and stage marks currently land in the
    /// trace buffer.
    pub fn is_tracing(&self) -> bool {
        self.is_enabled() && self.tracing.load(Ordering::Relaxed)
    }

    /// Appends a per-transfer stage mark to the trace buffer. No-op
    /// unless tracing.
    pub fn trace_mark(&self, trace: TraceId, stage: &str, terminal: bool) {
        self.trace_mark_inner(trace, stage, terminal, None);
    }

    /// [`Registry::trace_mark`] with a stage-specific numeric detail
    /// (bytes, retransmit count, residual, ...).
    pub fn trace_mark_with(&self, trace: TraceId, stage: &str, terminal: bool, detail: u64) {
        self.trace_mark_inner(trace, stage, terminal, Some(detail));
    }

    fn trace_mark_inner(&self, trace: TraceId, stage: &str, terminal: bool, detail: Option<u64>) {
        if !self.is_tracing() {
            return;
        }
        let thread = std::thread::current().id();
        let mut inner = self.inner.lock();
        let ts_us = inner.trace_now_us();
        let lane = inner.lane_for(thread);
        inner.trace_events.push(TraceEvent {
            name: stage.to_string(),
            trace: Some(trace),
            lane,
            ts_us,
            dur_us: 0,
            instant: true,
            terminal,
            detail,
        });
    }

    /// Drains the trace buffer, returning everything captured since
    /// tracing was enabled (or last drained). The epoch and lane
    /// mapping are kept so successive drains stay on one time base.
    pub fn take_trace(&self) -> ChromeTrace {
        let mut inner = self.inner.lock();
        ChromeTrace {
            events: std::mem::take(&mut inner.trace_events),
            lane_count: inner.trace_lanes.len(),
        }
    }

    /// Opens a timing span; the returned guard records the elapsed
    /// wall-clock time on drop, nested under any enclosing spans opened
    /// on the same thread. When disabled this is a no-op guard.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard { open: None };
        }
        let thread = std::thread::current().id();
        {
            let mut inner = self.inner.lock();
            match inner.stacks.iter_mut().find(|(id, _)| *id == thread) {
                Some((_, stack)) => stack.push(name),
                None => inner.stacks.push((thread, vec![name])),
            }
        }
        SpanGuard {
            open: Some(OpenSpan {
                registry: self,
                name,
                start: Instant::now(),
            }),
        }
    }

    fn close_span(&self, name: &'static str, elapsed_us: u64) {
        let thread = std::thread::current().id();
        let mut inner = self.inner.lock();
        // RAII guarantees LIFO drop order per thread, so `name` is the
        // top of this thread's stack unless `reset` intervened.
        let path = match inner.stacks.iter_mut().find(|(id, _)| *id == thread) {
            Some((_, stack)) if stack.last() == Some(&name) => {
                let path = stack.join("/");
                stack.pop();
                path
            }
            _ => name.to_string(),
        };
        if self.tracing.load(Ordering::Relaxed) {
            let now_us = inner.trace_now_us();
            let lane = inner.lane_for(thread);
            inner.trace_events.push(TraceEvent {
                name: path.clone(),
                trace: None,
                lane,
                ts_us: now_us.saturating_sub(elapsed_us),
                dur_us: elapsed_us,
                instant: false,
                terminal: false,
                detail: None,
            });
        }
        inner.spans.entry(path).or_default().record(elapsed_us);
    }

    /// Adds `delta` to a monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        match inner.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets a gauge to its latest value.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        match inner.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                inner.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Records one observation into a named value histogram
    /// (payload sizes, queue depths, ...).
    pub fn record_value(&self, name: &str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        match inner.values.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                inner.values.insert(name.to_string(), h);
            }
        }
    }

    /// Clears all recorded data (spans, counters, gauges, values, open
    /// span stacks, and the trace buffer). The enabled and tracing
    /// flags are kept.
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        inner.spans.clear();
        inner.counters.clear();
        inner.gauges.clear();
        inner.values.clear();
        inner.stacks.clear();
        inner.trace_epoch = None;
        inner.trace_events.clear();
        inner.trace_lanes.clear();
    }

    /// Copies current state into an immutable, serializable summary.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.inner.lock();
        let spans = inner
            .spans
            .iter()
            .map(|(path, hist)| {
                let name = path.rsplit('/').next().unwrap_or(path).to_string();
                SpanSummary {
                    depth: path.matches('/').count(),
                    path: path.clone(),
                    name,
                    count: hist.count(),
                    total_us: hist.sum(),
                    mean_us: hist.mean(),
                    p50_us: hist.percentile(0.50),
                    p95_us: hist.percentile(0.95),
                    p99_us: hist.percentile(0.99),
                    max_us: hist.max(),
                }
            })
            .collect();
        let values = inner
            .values
            .iter()
            .map(|(name, hist)| ValueSummary {
                name: name.clone(),
                count: hist.count(),
                sum: hist.sum(),
                p50: hist.percentile(0.50),
                p95: hist.percentile(0.95),
                p99: hist.percentile(0.99),
                max: hist.max(),
            })
            .collect();
        TelemetrySnapshot {
            spans,
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            values,
        }
    }
}

struct OpenSpan<'a> {
    registry: &'a Registry,
    name: &'static str,
    start: Instant,
}

/// RAII guard returned by [`Registry::span`]; records the span's
/// duration when dropped.
#[must_use = "a span records its duration when the guard drops; binding to _ closes it immediately"]
pub struct SpanGuard<'a> {
    open: Option<OpenSpan<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let elapsed_us = open.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            open.registry.close_span(open.name, elapsed_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        {
            let _guard = reg.span("a");
            reg.counter_add("c", 1);
            reg.gauge_set("g", 1.0);
            reg.record_value("v", 1);
        }
        let snap = reg.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.values.is_empty());
    }

    #[test]
    fn nested_spans_build_slash_paths() {
        let reg = Registry::new();
        reg.enable();
        {
            let _outer = reg.span("outer");
            {
                let _inner = reg.span("inner");
            }
            {
                let _inner = reg.span("inner");
            }
        }
        {
            let _lone = reg.span("inner");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.span("outer").expect("outer").count, 1);
        assert_eq!(snap.span("outer/inner").expect("nested").count, 2);
        assert_eq!(snap.span("inner").expect("top-level inner").count, 1);
        assert_eq!(snap.span("outer/inner").unwrap().depth, 1);
        assert_eq!(snap.span("outer/inner").unwrap().name, "inner");
    }

    #[test]
    fn nested_span_total_includes_child_time() {
        let reg = Registry::new();
        reg.enable();
        {
            let _outer = reg.span("outer");
            let _inner = reg.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = reg.snapshot();
        let outer = snap.span("outer").unwrap();
        let inner = snap.span("outer/inner").unwrap();
        assert!(inner.total_us >= 2_000, "inner = {}us", inner.total_us);
        assert!(
            outer.total_us >= inner.total_us,
            "outer {}us < inner {}us",
            outer.total_us,
            inner.total_us
        );
    }

    #[test]
    fn sibling_threads_do_not_nest_under_each_other() {
        let reg = Registry::new();
        reg.enable();
        std::thread::scope(|scope| {
            let _outer = reg.span("outer");
            scope
                .spawn(|| {
                    let _other = reg.span("other");
                })
                .join()
                .unwrap();
        });
        let snap = reg.snapshot();
        assert!(
            snap.span("other").is_some(),
            "span from second thread is top-level"
        );
        assert!(snap.span("outer/other").is_none());
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let reg = Registry::new();
        reg.enable();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        reg.counter_add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter("hits"), Some(4000));
    }

    #[test]
    fn gauges_keep_latest_value() {
        let reg = Registry::new();
        reg.enable();
        reg.gauge_set("load", 0.25);
        reg.gauge_set("load", 0.75);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges, vec![("load".to_string(), 0.75)]);
    }

    #[test]
    fn reset_clears_data_but_keeps_enabled() {
        let reg = Registry::new();
        reg.enable();
        reg.counter_add("c", 5);
        {
            let _s = reg.span("s");
        }
        reg.reset();
        assert!(reg.is_enabled());
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn tracing_captures_spans_and_marks_with_lanes() {
        let reg = Registry::new();
        reg.enable();
        reg.set_tracing(true);
        assert!(reg.is_tracing());
        let id = TraceId::new(0, 1, 2);
        {
            let _outer = reg.span("outer");
            let _inner = reg.span("inner");
            reg.trace_mark(id, crate::trace::stage::DELIVERED, false);
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _other = reg.span("other");
                reg.trace_mark_with(id, crate::trace::stage::FUSED, true, 7);
            });
        });
        let trace = reg.take_trace();
        assert_eq!(trace.lane_count, 2, "one lane per recording thread");
        assert!(trace
            .events
            .iter()
            .any(|e| e.name == "outer/inner" && !e.instant));
        assert!(trace.has_terminal(id));
        let chain = trace.events_for(id);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[1].detail, Some(7));
        // Drained: a second take is empty.
        assert!(reg.take_trace().events.is_empty());
        // Metrics side is unaffected by tracing.
        assert_eq!(reg.snapshot().span("outer").unwrap().count, 1);
    }

    #[test]
    fn tracing_is_inert_when_disabled_or_off() {
        let reg = Registry::new();
        reg.set_tracing(true);
        // Enabled flag off: nothing records.
        reg.trace_mark(TraceId::new(0, 0, 1), "x", true);
        assert!(!reg.is_tracing());
        assert!(reg.take_trace().events.is_empty());
        // Enabled but tracing off: spans record, buffer stays empty.
        reg.enable();
        reg.set_tracing(false);
        {
            let _s = reg.span("plain");
        }
        reg.trace_mark(TraceId::new(0, 0, 1), "x", true);
        assert!(reg.take_trace().events.is_empty());
        assert_eq!(reg.snapshot().span("plain").unwrap().count, 1);
    }

    #[test]
    fn reset_clears_trace_buffer_and_lanes() {
        let reg = Registry::new();
        reg.enable();
        reg.set_tracing(true);
        {
            let _s = reg.span("s");
        }
        reg.trace_mark(TraceId::new(1, 2, 3), "x", true);
        reg.reset();
        let trace = reg.take_trace();
        assert!(trace.events.is_empty());
        assert_eq!(trace.lane_count, 0);
        assert!(reg.is_tracing(), "tracing flag survives reset");
    }
}
