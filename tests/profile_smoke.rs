//! Smoke test of the `cooper profile` subcommand's engine: the ranked
//! self-time table must decompose at least 90% of the perceive-phase
//! CPU time into named stages (the SPOD sub-phases, fusion, payload
//! decode), every SPOD sub-phase and `lidar.scan` must appear, and the
//! exported Chrome trace must be well-formed JSON with per-thread lanes.
//! Calls [`cooper_cli::run_profile`] directly so the assertions run on
//! data, not parsed stdout. One test function owns the global registry
//! (this file is its own test binary).

use cooper_cli::run_profile;
use cooper_telemetry::names;

#[test]
fn profile_decomposes_perceive_and_exports_chrome_trace() {
    let report = run_profile("kitti1", 4, 2, Some(2), 1).expect("profile runs");

    assert_eq!(report.vehicles, 4);
    assert_eq!(report.steps, 2);

    // The acceptance bar: at least 90% of perceive-phase time is
    // attributed to named stages, so the table answers "where does
    // perceive_us go" rather than hiding it in the entry-point spans.
    assert!(
        report.coverage_pct >= 90.0,
        "named stages cover only {:.1}% of perceive time\n{}",
        report.coverage_pct,
        report.table
    );

    // The ranked table lists every sub-phase, and ray casting apart
    // from the rest of phase 1.
    for sub in names::SPOD_SUBPHASES
        .iter()
        .chain([&names::SPAN_LIDAR_SCAN])
    {
        assert!(
            report.table.contains(sub),
            "self-time table is missing {sub}:\n{}",
            report.table
        );
    }

    // Chrome trace-event JSON: the `traceEvents` envelope, balanced
    // braces/brackets, thread-name metadata for more than one lane
    // (phase 3 ran on 2 workers plus the coordinating thread), span
    // slices, and per-transfer instant marks that terminate.
    let json = &report.trace_json;
    assert!(json.starts_with("{\"traceEvents\":["), "bad envelope");
    assert!(json.ends_with("]}"), "bad envelope tail");
    for (open, close) in [('{', '}'), ('[', ']')] {
        assert_eq!(
            json.matches(open).count(),
            json.matches(close).count(),
            "unbalanced {open}{close} in trace JSON"
        );
    }
    assert!(report.lane_count >= 2, "expected multi-thread lanes");
    assert!(
        json.contains("\"name\":\"thread_name\""),
        "no lane metadata"
    );
    assert!(
        json.contains("\"args\":{\"name\":\"lane-1\"}"),
        "missing lane-1"
    );
    assert!(json.contains("\"ph\":\"X\""), "no duration slices");
    assert!(json.contains("\"ph\":\"i\""), "no instant marks");
    assert!(json.contains("\"trace\":\"s0:"), "no step-0 transfer marks");
    assert!(json.contains("\"terminal\":true"), "no terminal marks");
    // Every SPOD sub-phase shows up as a slice somewhere in the trace.
    for sub in names::SPOD_SUBPHASES {
        assert!(json.contains(sub), "trace has no {sub} slice");
    }
}
