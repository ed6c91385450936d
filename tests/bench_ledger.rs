//! The bench regression ledger's CI contract, exercised through the
//! real `bench_check` binary: a healthy history passes (exit 0), an
//! injected regression past tolerance fails (exit non-zero), and a
//! corrupt or empty ledger also fails rather than silently passing.

use std::path::PathBuf;
use std::process::Command;

use cooper_bench::ledger::{append, BenchRecord, HISTORY_FILE};

fn bench_check(history: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_check"))
        .args(["--history", history.to_str().expect("utf-8 path")])
        .output()
        .expect("bench_check runs")
}

/// A ledger path in a directory of its own, named from the process id
/// and a tag so that neither another test nor a concurrent run of the
/// suite shares it; the directory is removed when the guard drops.
struct TempLedger {
    dir: PathBuf,
    path: PathBuf,
}

impl TempLedger {
    fn new(tag: &str) -> Self {
        let name = format!("cooper-bench-ledger-{}-{tag}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join(HISTORY_FILE);
        TempLedger { dir, path }
    }
}

impl Drop for TempLedger {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn bench_check_gates_on_injected_regression() {
    // A healthy two-run history across all three --check benches: small
    // in-tolerance movement, noisy-but-informational timings.
    let ledger = TempLedger::new("healthy");
    let path = &ledger.path;
    for record in [
        BenchRecord::new(
            "bandwidth_sweep",
            &[("reduction", 3.40), ("detection_drift", 0.00)],
        ),
        BenchRecord::new(
            "fault_sweep",
            &[("guard_on_recall", 0.82), ("guard_off_recall", 0.40)],
        ),
        BenchRecord::new(
            "parallel_fleet",
            &[("deterministic", 1.0), ("total_4t_us", 1_000_000.0)],
        ),
        BenchRecord::new(
            "bandwidth_sweep",
            &[("reduction", 3.25), ("detection_drift", 0.01)],
        ),
        BenchRecord::new(
            "fault_sweep",
            &[("guard_on_recall", 0.81), ("guard_off_recall", 0.35)],
        ),
        BenchRecord::new(
            "parallel_fleet",
            &[("deterministic", 1.0), ("total_4t_us", 7_000_000.0)],
        ),
    ] {
        append(path, &record).expect("append");
    }
    let out = bench_check(path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "healthy history must pass: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("bench_check passed"), "{stdout}");

    // Inject a regression: the guard's recall collapses past tolerance.
    append(
        path,
        &BenchRecord::new(
            "fault_sweep",
            &[("guard_on_recall", 0.60), ("guard_off_recall", 0.35)],
        ),
    )
    .expect("append");
    let out = bench_check(path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "regressed history must fail: {stdout}"
    );
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stderr.contains("bench_check FAILED"), "{stderr}");
}

#[test]
fn bench_check_rejects_missing_empty_and_corrupt_ledgers() {
    let missing = TempLedger::new("missing");
    let out = bench_check(&missing.path);
    assert!(!out.status.success(), "missing ledger must fail");

    let empty = TempLedger::new("empty");
    std::fs::create_dir_all(&empty.dir).expect("mkdir");
    std::fs::write(&empty.path, "\n\n").expect("write");
    let out = bench_check(&empty.path);
    assert!(!out.status.success(), "empty ledger must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no records"),
        "diagnostic names the problem"
    );

    let corrupt = TempLedger::new("corrupt");
    std::fs::create_dir_all(&corrupt.dir).expect("mkdir");
    std::fs::write(&corrupt.path, "{\"kind\":\"a\",\"m\":1.0}\nnot json\n").expect("write");
    let out = bench_check(&corrupt.path);
    assert!(!out.status.success(), "corrupt ledger must fail");
}

#[test]
fn bench_check_fails_closed_on_null_and_missing_floored_metrics() {
    let floors = "\"deterministic\":1.0,\"quarantine_within_bound\":1.0,\"recall_delta\":0.4";
    let healthy = format!("{{\"kind\":\"chaos_sweep\",{floors},\"ghost_rejection_rate\":0.9}}\n");
    for (tag, latest) in [
        (
            "null-floor",
            format!("{{\"kind\":\"chaos_sweep\",{floors},\"ghost_rejection_rate\":null}}\n"),
        ),
        (
            "missing-floor",
            format!("{{\"kind\":\"chaos_sweep\",{floors}}}\n"),
        ),
    ] {
        let ledger = TempLedger::new(tag);
        let path = &ledger.path;
        std::fs::create_dir_all(&ledger.dir).expect("mkdir");
        std::fs::write(path, format!("{healthy}{healthy}")).expect("write");
        assert!(bench_check(path).status.success(), "{tag}: healthy passes");
        std::fs::write(path, format!("{healthy}{latest}")).expect("write");
        let out = bench_check(path);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!out.status.success(), "{tag}: must fail: {stdout}");
        assert!(stdout.contains("ghost_rejection_rate"), "{stdout}");
        assert!(stdout.contains("BELOW FLOOR"), "{stdout}");
    }
}
