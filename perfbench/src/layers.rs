//! Per-layer numbers of one traced drive, read from the telemetry span
//! and counter registry the program already keeps, plus the timing
//! decorators' tallies.
//!
//! Every span and counter is named through `cooper_telemetry::names`,
//! never a string literal: renaming a constant's value renames the
//! metric, and the smoke test then fails against `BENCHMARK.json`
//! instead of the benchmark reporting a silent zero.

use cooper_telemetry::names;
use cooper_telemetry::TelemetrySnapshot;

use crate::workload::{Drive, Outcome};

/// Spans whose self time is reported per step, as `<span>.self_ms`.
/// Worker threads open these as root spans, so their self time is CPU
/// time summed over workers.
pub const SELF_TIME_SPANS: &[&str] = &[
    names::SPAN_PACKET_ENCODE,
    names::SPAN_PACKET_DECODE,
    names::SPAN_PACKET_DECODE_PARTIAL,
    names::SPAN_PACKET_PAYLOAD_DECODE,
    names::SPAN_PIPELINE_PERCEIVE,
    names::SPAN_PIPELINE_PERCEIVE_SINGLE,
    names::SPAN_PIPELINE_FUSE,
    names::SPAN_PIPELINE_FUSE_FEATURES,
    names::SPAN_SPOD_PREPROCESS,
    names::SPAN_SPOD_VOXELIZE,
    names::SPAN_SPOD_FEATURIZE,
    names::SPAN_SPOD_VFE,
    names::SPAN_SPOD_MIDDLE,
    names::SPAN_SPOD_CONV1,
    names::SPAN_SPOD_CONV2,
    names::SPAN_SPOD_RULEBOOK,
    names::SPAN_SPOD_BEV,
    names::SPAN_SPOD_RPN,
    names::SPAN_SPOD_NMS,
];

/// The fleet step's phases, reported per step as `<span>.wall_ms`: wall
/// time on the coordinating thread, nested layer spans included.
pub const PHASE_SPANS: &[&str] = &[
    names::SPAN_FLEET_SCAN,
    names::SPAN_FLEET_EXCHANGE,
    names::SPAN_FLEET_PERCEIVE,
];

/// Counters reported per drive under their own names.
pub const COUNTERS: &[&str] = &[
    names::PIPELINE_POINTS_MERGED,
    names::V2X_ARQ_RETRANSMITS,
    names::V2X_FRAMES_LOST,
    names::V2X_WINDOW_SATURATED,
    names::FLEET_PARTIAL_SALVAGED,
    names::FLEET_SALVAGE_FAILED,
    names::V2X_GOVERNOR_DELTA_FRAMES,
    names::V2X_GOVERNOR_FEATURE_FRAMES,
    names::ALIGN_EVALUATED,
    names::ALIGN_REFINED,
    names::ALIGN_REJECTED,
    names::GUARD_CONSISTENCY_CHECKS,
    names::GUARD_CONSISTENCY_REJECTS,
    names::TRUST_BLOCKED_TRANSFERS,
    names::TRUST_QUARANTINES,
    names::SPOD_VOXELS_OCCUPIED,
    names::SPOD_INCREMENTAL_CHUNKS_REUSED,
    names::TRACK_DETECTIONS_IN,
    names::TRACK_SPAWNED,
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Σ total time of every span path ending in `name`, microseconds.
fn span_total_us(snapshot: &TelemetrySnapshot, name: &str) -> u64 {
    snapshot
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.total_us)
        .sum()
}

/// Time workers spent inside pipeline entry points: every
/// `pipeline.perceive` / `pipeline.perceive_single` span not nested in
/// another of the two, microseconds.
fn pipeline_entry_us(snapshot: &TelemetrySnapshot) -> u64 {
    let entry = [
        names::SPAN_PIPELINE_PERCEIVE,
        names::SPAN_PIPELINE_PERCEIVE_SINGLE,
    ];
    snapshot
        .spans
        .iter()
        .filter(|s| {
            entry.contains(&s.name.as_str())
                && !s.path.rsplit('/').skip(1).any(|seg| entry.contains(&seg))
        })
        .map(|s| s.total_us)
        .sum()
}

/// The per-layer metrics of one traced drive at `threads` workers, in
/// a fixed order. Run-level ratios (`fleet.cold_drive_s`,
/// `exec.speedup_2t`, `trace.overhead`) are added by the caller.
pub fn traced_drive_metrics(
    snapshot: &TelemetrySnapshot,
    drive: &Drive,
    outcome: &Outcome,
    threads: usize,
) -> Vec<Metric> {
    let steps = drive.reports.len().max(1) as f64;
    let per_step_ms = |us: u64| us as f64 / 1e3 / steps;
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    let mut out = Vec::new();

    let phases_us: u64 = PHASE_SPANS
        .iter()
        .map(|&span| {
            let us = span_total_us(snapshot, span);
            out.push(Metric::new(
                format!("{span}.wall_ms"),
                "ms",
                per_step_ms(us),
            ));
            us
        })
        .sum();
    out.push(Metric::new(
        "fleet.phase_coverage",
        "fraction",
        ratio(
            phases_us as f64,
            span_total_us(snapshot, names::SPAN_FLEET_STEP) as f64,
        ),
    ));

    let self_us = snapshot.self_times_by_name();
    for &span in SELF_TIME_SPANS {
        let us = self_us
            .iter()
            .find(|e| e.name == span)
            .map_or(0, |e| e.self_us);
        out.push(Metric::new(
            format!("{span}.self_ms"),
            "ms",
            per_step_ms(us),
        ));
    }

    for &name in COUNTERS {
        out.push(Metric::new(name, "count/drive", counter(name)));
    }
    out.push(Metric::new(
        "spod.incremental.reuse_frac",
        "fraction",
        ratio(
            counter(names::SPOD_INCREMENTAL_VOXELS_REUSED),
            counter(names::SPOD_VOXELS_OCCUPIED),
        ),
    ));

    let ch = &drive.channel;
    out.push(Metric::new(
        "v2x.channel.busy_ms",
        "ms",
        ch.busy.as_secs_f64() * 1e3 / steps,
    ));
    out.push(Metric::new(
        "v2x.channel.calls",
        "count/drive",
        ch.calls as f64,
    ));
    out.push(Metric::new(
        "v2x.channel.fail_frac",
        "fraction",
        ratio(ch.misses as f64, ch.calls as f64),
    ));
    let gov = &drive.governor;
    out.push(Metric::new(
        "v2x.governor.busy_ms",
        "ms",
        gov.busy.as_secs_f64() * 1e3 / steps,
    ));
    out.push(Metric::new(
        "v2x.governor.calls",
        "count/drive",
        gov.calls as f64,
    ));
    out.push(Metric::new(
        "v2x.governor.skip_frac",
        "fraction",
        ratio(gov.misses as f64, gov.calls as f64),
    ));
    out.push(Metric::new(
        "fleet.xfer_fail_frac",
        "fraction",
        ratio(outcome.transfers_failed as f64, outcome.transfers as f64),
    ));
    out.push(Metric::new(
        "exec.perceive_util",
        "fraction",
        ratio(
            pipeline_entry_us(snapshot) as f64,
            span_total_us(snapshot, names::SPAN_FLEET_PERCEIVE) as f64 * threads as f64,
        ),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name the extraction reads is declared in the registry, so
    /// a span or counter the program renames fails here rather than
    /// reading as zero.
    #[test]
    fn every_name_is_registered() {
        for span in SELF_TIME_SPANS.iter().chain(PHASE_SPANS) {
            assert!(names::is_registered_span(span), "{span}");
        }
        for span in names::SPOD_SUBPHASES {
            assert!(SELF_TIME_SPANS.contains(span), "{span} not reported");
        }
        for counter in COUNTERS {
            assert!(names::is_registered_metric(counter), "{counter}");
        }
    }

    #[test]
    fn pipeline_entry_skips_nested_entries() {
        let span = |path: &str, total_us: u64| cooper_telemetry::SpanSummary {
            path: path.to_string(),
            name: path.rsplit('/').next().unwrap().to_string(),
            depth: path.matches('/').count(),
            count: 1,
            total_us,
            mean_us: total_us as f64,
            p50_us: total_us,
            p95_us: total_us,
            p99_us: total_us,
            max_us: total_us,
        };
        let snapshot = TelemetrySnapshot {
            spans: vec![
                span("pipeline.perceive", 100),
                span("pipeline.perceive/pipeline.perceive_single", 60),
                span("pipeline.perceive_single", 40),
                span("spod.featurize", 7),
            ],
            ..TelemetrySnapshot::default()
        };
        assert_eq!(pipeline_entry_us(&snapshot), 140);
        assert_eq!(span_total_us(&snapshot, "pipeline.perceive_single"), 100);
    }
}
