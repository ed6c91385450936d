//! The bench regression ledger: a JSON-lines history of normalized
//! `--check` results under `results/BENCH_history.jsonl`, and the
//! comparison logic `bench_check` runs in CI.
//!
//! Every bench binary's `--check` mode appends one [`BenchRecord`] per
//! run: the bench name plus a flat map of scalar metrics, one JSON
//! object per line (`{"kind":"<bench>","<metric>":<number>,...}`), so
//! the file is greppable and `jq`-able. `bench_check` then
//! compares the *latest* record of each bench against its *baseline*
//! (the oldest record on file) with per-metric tolerance: quality
//! metrics regress the build, timing/throughput metrics are recorded
//! but informational, because CI machines are not a benchmarking lab.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File name of the ledger inside the results directory.
pub const HISTORY_FILE: &str = "BENCH_history.jsonl";

/// Default ledger path relative to the repo root.
pub fn default_history_path() -> PathBuf {
    PathBuf::from("results").join(HISTORY_FILE)
}

/// One normalized `--check` result: a bench name and scalar metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// The bench binary that produced the record (e.g. `fault_sweep`).
    pub bench: String,
    /// Metric name → value, in name order. A non-finite value is
    /// written as `null` and reads back as NaN.
    pub metrics: BTreeMap<String, f64>,
}

impl BenchRecord {
    /// Creates a record for `bench` with the given metrics; of two
    /// metrics with one name, the later wins.
    pub fn new(bench: impl Into<String>, metrics: &[(&str, f64)]) -> Self {
        BenchRecord {
            bench: bench.into(),
            metrics: metrics
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
        }
    }

    /// Looks up a metric value.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Encodes as one JSON line (no trailing newline): `kind` first,
    /// then the metrics in name order, every finite value with a
    /// decimal point or exponent and every other one as `null`.
    ///
    /// # Errors
    ///
    /// Returns a message when a metric is named `kind`, the member that
    /// holds the bench name.
    pub fn to_json_line(&self) -> Result<String, String> {
        if self.metrics.contains_key("kind") {
            return Err("metric name \"kind\" is reserved for the bench name".into());
        }
        let mut out = String::from("{\"kind\":");
        push_json_string(&self.bench, &mut out);
        for (name, value) in &self.metrics {
            out.push(',');
            push_json_string(name, &mut out);
            out.push(':');
            if value.is_finite() {
                let text = value.to_string();
                out.push_str(&text);
                if !text.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        out.push('}');
        Ok(out)
    }

    /// Decodes a ledger line: a flat JSON object with one string `kind`
    /// member and otherwise only number or `null` members, each name
    /// once.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first problem.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let mut cursor = Cursor {
            text: line.trim(),
            pos: 0,
        };
        cursor.expect('{')?;
        let mut bench = None;
        let mut metrics = BTreeMap::new();
        if !cursor.eat('}') {
            loop {
                let name = cursor.string()?;
                cursor.expect(':')?;
                if name == "kind" {
                    cursor.skip_ws();
                    if !cursor.rest().starts_with('"') {
                        return Err(cursor.error("\"kind\" must be a string"));
                    }
                    if bench.replace(cursor.string()?).is_some() {
                        return Err(cursor.error("duplicate \"kind\" member"));
                    }
                } else if metrics.insert(name, cursor.number()?).is_some() {
                    return Err(cursor.error("duplicate metric"));
                }
                if cursor.eat('}') {
                    break;
                }
                cursor.expect(',')?;
            }
        }
        cursor.skip_ws();
        if !cursor.rest().is_empty() {
            return Err(cursor.error("trailing bytes after object"));
        }
        let bench = bench.ok_or_else(|| "missing \"kind\" member".to_string())?;
        Ok(BenchRecord { bench, metrics })
    }
}

fn push_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A read position in one ledger line.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl Cursor<'_> {
    fn rest(&self) -> &str {
        &self.text[self.pos..]
    }

    fn error(&self, message: &str) -> String {
        format!("byte {}: {message}", self.pos)
    }

    fn skip_ws(&mut self) {
        let rest = self.rest();
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        let found = self.rest().starts_with(c);
        if found {
            self.pos += c.len_utf8();
        }
        found
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {c:?}")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        let mut chars = self.rest().char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => out.push(match chars.next().map(|(_, e)| e) {
                    Some('"') => '"',
                    Some('\\') => '\\',
                    Some('/') => '/',
                    Some('n') => '\n',
                    Some('r') => '\r',
                    Some('t') => '\t',
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        u32::from_str_radix(&hex, 16)
                            .ok()
                            .filter(|_| hex.len() == 4)
                            .and_then(char::from_u32)
                            .ok_or_else(|| self.error("bad \\u escape"))?
                    }
                    _ => return Err(self.error("bad escape")),
                }),
                c => out.push(c),
            }
        }
        Err(self.error("unterminated string"))
    }

    /// A JSON number, or `null` as NaN.
    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let rest = self.rest();
        if rest.starts_with("null") {
            self.pos += 4;
            return Ok(f64::NAN);
        }
        let len = rest
            .find(|c: char| !matches!(c, '-' | '+' | '.' | 'e' | 'E' | '0'..='9'))
            .unwrap_or(rest.len());
        let value = rest[..len]
            .parse()
            .map_err(|_| self.error("expected a number or null"))?;
        self.pos += len;
        Ok(value)
    }
}

/// Appends `record` to the ledger at `path`, creating parent
/// directories and the file as needed.
pub fn append(path: &Path, record: &BenchRecord) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let line = record
        .to_json_line()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(file, "{line}")
}

/// Reads every record from the ledger at `path`, oldest first. Blank
/// lines are skipped; a malformed line is an error (a corrupt ledger
/// must not silently pass CI).
pub fn read_history(path: &Path) -> Result<Vec<BenchRecord>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = BenchRecord::from_json_line(line)
            .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        records.push(record);
    }
    Ok(records)
}

/// Which way a metric is allowed to move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// A drop below baseline − tolerance is a regression.
    HigherIsBetter,
    /// A rise above baseline + tolerance is a regression.
    LowerIsBetter,
}

/// Allowed movement of a checked metric relative to its baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerance {
    /// Which direction counts as worse.
    pub direction: Direction,
    /// Relative slack as a fraction of `|baseline|`.
    pub rel: f64,
    /// Absolute slack in metric units.
    pub abs: f64,
}

impl Tolerance {
    fn slack(&self, baseline: f64) -> f64 {
        (self.rel * baseline.abs()).max(self.abs)
    }

    /// `true` when `latest` has regressed past the slack window, or
    /// when either value is NaN (a `null` in the ledger): a gate that
    /// cannot compare fails closed.
    pub fn regressed(&self, baseline: f64, latest: f64) -> bool {
        let slack = self.slack(baseline);
        let within = match self.direction {
            Direction::HigherIsBetter => latest >= baseline - slack,
            Direction::LowerIsBetter => latest <= baseline + slack,
        };
        !within
    }
}

/// The per-metric policy: which metrics gate CI and with how much
/// slack. `None` means informational — recorded in the ledger and the
/// report, never failing the build. Timing, byte and speedup metrics
/// are informational by design: CI hosts are shared and noisy, and a
/// wall-clock delta there is not evidence of a code regression.
pub fn tolerance_for(bench: &str, metric: &str) -> Option<Tolerance> {
    // Measured-time / throughput metrics never gate.
    if metric.ends_with("_us") || metric.ends_with("_ms") || metric.ends_with("_bytes") {
        return None;
    }
    let t = |direction, rel, abs| {
        Some(Tolerance {
            direction,
            rel,
            abs,
        })
    };
    match (bench, metric) {
        // Wire-byte reduction of the headline governed configuration
        // vs the v1 full-frame exchange; detection drift it costs.
        ("bandwidth_sweep", "reduction") => t(Direction::HigherIsBetter, 0.15, 0.0),
        ("bandwidth_sweep", "detection_drift") => t(Direction::LowerIsBetter, 0.0, 0.02),
        // Recall arms of the pose-fault study. The guard-off arm is the
        // intentionally broken one — informational.
        ("fault_sweep", "ego_recall") => t(Direction::HigherIsBetter, 0.0, 0.02),
        ("fault_sweep", "clean_recall") => t(Direction::HigherIsBetter, 0.0, 0.02),
        ("fault_sweep", "guard_on_recall") => t(Direction::HigherIsBetter, 0.0, 0.02),
        // The determinism contract is binary: 1.0 or the build is wrong.
        ("parallel_fleet", "deterministic") => t(Direction::HigherIsBetter, 0.0, 0.0),
        // The composed chaos campaign: determinism is binary, the
        // defense-quality metrics get a little count-noise slack on
        // top of their absolute floors below.
        ("chaos_sweep", "deterministic") => t(Direction::HigherIsBetter, 0.0, 0.0),
        ("chaos_sweep", "ghost_rejection_rate") => t(Direction::HigherIsBetter, 0.0, 0.05),
        ("chaos_sweep", "recall_delta") => t(Direction::HigherIsBetter, 0.0, 0.25),
        ("chaos_sweep", "quarantine_latency_steps") => t(Direction::LowerIsBetter, 0.0, 1.0),
        _ => None,
    }
}

/// An absolute floor the *latest* record of a bench must clear.
///
/// Unlike [`Tolerance`], which compares against the oldest record on
/// file, a floor encodes an external requirement the current build has
/// to meet regardless of history — useful when the baseline predates
/// the feature being gated (a pre-parallelization speedup of ~1.0 would
/// make any relative tolerance meaningless). The optional gate metric
/// lets hardware-dependent floors apply only on hosts that can express
/// them: a single-core runner cannot measure a parallel speedup.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Floor {
    /// Minimum acceptable value of the metric.
    pub min: f64,
    /// `Some((name, threshold))`: the floor applies only when the same
    /// record carries metric `name` at or above `threshold`; a record
    /// without the gate metric is exempt.
    pub gate: Option<(&'static str, f64)>,
}

impl Floor {
    /// An ungated floor at `min`.
    const fn at(min: f64) -> Floor {
        Floor { min, gate: None }
    }

    /// `true` when this floor applies to `record` — its gate metric,
    /// if any, is present and at or above the threshold.
    pub fn applies(&self, record: &BenchRecord) -> bool {
        match self.gate {
            None => true,
            Some((name, threshold)) => record.metric(name).is_some_and(|v| v >= threshold),
        }
    }

    /// `true` when `latest` falls below the floor or is NaN.
    pub fn violated(&self, latest: f64) -> bool {
        let clears = latest >= self.min;
        !clears
    }
}

/// Absolute floors as `(bench, metric, floor)`, applied to the newest
/// record of each bench only (see [`Floor`]); a floored metric that
/// record lacks, where its floor applies, fails the check.
///
/// The parallel-fleet speedup floor backs the chunk-parallel SPOD hot
/// path: on a host with at least 4 hardware threads, the 8-vehicle
/// fleet must run at least 2.5x faster at 4 worker threads than at 1.
///
/// The chaos campaign's defense floors: under composed burst loss +
/// drift + corruption + ghost injection, the trust-guarded fleet
/// must reject at least 80% of the ghost sender's delivered broadcasts,
/// never fall below ego-only detections, quarantine the attacker within
/// the bench's bound, and stay bit-identical across thread counts.
/// Absolute requirements of the build, not relative baselines.
pub const FLOORS: [(&str, &str, Floor); 5] = [
    (
        "parallel_fleet",
        "speedup_4_threads",
        Floor {
            min: 2.5,
            gate: Some(("hardware_threads", 4.0)),
        },
    ),
    ("chaos_sweep", "ghost_rejection_rate", Floor::at(0.8)),
    ("chaos_sweep", "recall_delta", Floor::at(0.0)),
    ("chaos_sweep", "quarantine_within_bound", Floor::at(1.0)),
    ("chaos_sweep", "deterministic", Floor::at(1.0)),
];

/// The entry of [`FLOORS`] for `metric` of `bench`, if any.
pub fn floor_for(bench: &str, metric: &str) -> Option<Floor> {
    FLOORS
        .iter()
        .find(|(b, m, _)| *b == bench && *m == metric)
        .map(|&(_, _, floor)| floor)
}

/// The comparison of one metric: latest vs baseline under its policy.
#[derive(Clone, Debug)]
pub struct MetricVerdict {
    /// Bench the metric belongs to.
    pub bench: String,
    /// Metric name.
    pub metric: String,
    /// Value in the oldest record on file.
    pub baseline: f64,
    /// Value in the newest record on file; NaN when it is `null` there,
    /// or when that record lacks a floored metric.
    pub latest: f64,
    /// `None` when the metric is informational.
    pub tolerance: Option<Tolerance>,
    /// The absolute floor in force for this metric, if any —
    /// `None` also when a gated floor does not apply to this record.
    pub floor: Option<Floor>,
    /// `true` when the metric moved past its slack window or fell
    /// below its floor.
    pub regressed: bool,
}

/// The full `bench_check` comparison across every bench in the ledger.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// One verdict per (bench, metric) present in the latest records,
    /// plus one per floored metric a latest record lacks.
    pub verdicts: Vec<MetricVerdict>,
}

impl CheckReport {
    /// `true` when any gated metric regressed.
    pub fn failed(&self) -> bool {
        self.verdicts.iter().any(|v| v.regressed)
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:<18} {:>12} {:>12}  verdict",
            "bench", "metric", "baseline", "latest"
        )?;
        for v in &self.verdicts {
            let verdict = match (&v.tolerance, &v.floor, v.regressed) {
                (_, Some(f), true) if f.violated(v.latest) => "BELOW FLOOR",
                (None, None, _) => "info",
                (_, _, false) => "ok",
                (_, _, true) => "REGRESSED",
            };
            writeln!(
                f,
                "{:<16} {:<18} {:>12.4} {:>12.4}  {verdict}",
                v.bench, v.metric, v.baseline, v.latest
            )?;
        }
        Ok(())
    }
}

/// Compares the latest record of each bench against its baseline (the
/// oldest record of the same bench), applying [`tolerance_for`] per
/// metric and [`FLOORS`] to the latest record. Benches with a single
/// record compare against themselves and pass their tolerances — the
/// first run *defines* the baseline — but not a floor they miss.
pub fn check_history(records: &[BenchRecord]) -> CheckReport {
    let mut benches: Vec<&str> = Vec::new();
    for r in records {
        if !benches.contains(&r.bench.as_str()) {
            benches.push(&r.bench);
        }
    }
    let mut report = CheckReport::default();
    for bench in benches {
        let baseline = records
            .iter()
            .find(|r| r.bench == bench)
            .expect("bench came from records");
        let latest = records
            .iter()
            .rev()
            .find(|r| r.bench == bench)
            .expect("bench came from records");
        // Every metric the latest record carries, then, as NaN, every
        // floored metric it lacks where the floor applies.
        let present = latest.metrics.iter().map(|(m, v)| (m.as_str(), *v));
        let missing = FLOORS
            .iter()
            .filter(|(b, m, floor)| {
                *b == bench && floor.applies(latest) && latest.metric(m).is_none()
            })
            .map(|&(_, m, _)| (m, f64::NAN));
        for (metric, latest_value) in present.chain(missing) {
            // A metric absent from the baseline has no reference point
            // yet; treat the latest value as its baseline.
            let baseline_value = baseline.metric(metric).unwrap_or(latest_value);
            let tolerance = tolerance_for(bench, metric);
            let floor = floor_for(bench, metric).filter(|f| f.applies(latest));
            let regressed = tolerance
                .map(|t| t.regressed(baseline_value, latest_value))
                .unwrap_or(false)
                || floor.is_some_and(|f| f.violated(latest_value));
            report.verdicts.push(MetricVerdict {
                bench: bench.to_string(),
                metric: metric.to_string(),
                baseline: baseline_value,
                latest: latest_value,
                regressed,
                tolerance,
                floor,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json() {
        let record = BenchRecord::new(
            "bandwidth_sweep",
            &[("reduction", 3.41), ("detection_drift", 0.0)],
        );
        let line = record.to_json_line().expect("encodes");
        let back = BenchRecord::from_json_line(&line).expect("parses");
        assert_eq!(back.bench, "bandwidth_sweep");
        assert_eq!(back.metric("reduction"), Some(3.41));
        assert_eq!(back.metric("detection_drift"), Some(0.0));
    }

    #[test]
    fn committed_ledger_lines_re_encode_byte_for_byte() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_history.jsonl");
        let text = std::fs::read_to_string(path).expect("the committed ledger reads");
        assert!(text.lines().count() > 0);
        for line in text.lines() {
            let record = BenchRecord::from_json_line(line).expect("parses");
            assert_eq!(record.to_json_line().expect("encodes"), line);
        }
    }

    #[test]
    fn lines_are_kind_first_name_ordered_floats_or_null() {
        let record = BenchRecord::new(
            "k",
            &[
                ("whole", 3.0),
                ("dx", -42.0),
                ("gone", f64::NAN),
                ("inf", f64::INFINITY),
            ],
        );
        assert_eq!(
            record.to_json_line().expect("encodes"),
            r#"{"kind":"k","dx":-42.0,"gone":null,"inf":null,"whole":3.0}"#
        );
    }

    #[test]
    fn integer_negative_exponent_and_null_numbers_parse() {
        let line = r#" { "kind" : "k", "u": 7, "i":-42, "e":1.5e3, "E":-2E-2, "n":null } "#;
        let record = BenchRecord::from_json_line(line).expect("parses");
        assert_eq!(record.bench, "k");
        assert_eq!(record.metric("u"), Some(7.0));
        assert_eq!(record.metric("i"), Some(-42.0));
        assert_eq!(record.metric("e"), Some(1500.0));
        assert_eq!(record.metric("E"), Some(-0.02));
        assert!(record.metric("n").expect("present").is_nan());
    }

    #[test]
    fn names_escape_and_round_trip() {
        let name = "line one\nline \"two\" \\ done\t\u{1}";
        let record = BenchRecord::new(name, &[(name, 1.0)]);
        let line = record.to_json_line().expect("encodes");
        assert!(line.contains("\\u0001"), "line = {line}");
        assert_eq!(BenchRecord::from_json_line(&line).expect("parses"), record);
        let escaped = BenchRecord::from_json_line(r#"{"kind":"a\/b\u0041"}"#).expect("parses");
        assert_eq!(escaped.bench, "a/bA");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for line in [
            "",
            "not json",
            "{}",
            r#"{"m":1.0}"#,
            r#"{"kind":3}"#,
            r#"{"kind":"k"} extra"#,
            r#"{"kind":"k","a":}"#,
            r#"{"kind":"k","a":1.0,}"#,
            r#"{"kind":"k","a":"text"}"#,
            r#"{"kind":"k","a":true}"#,
            r#"{"kind":"k","a":1.0,"a":2.0}"#,
            r#"{"kind":"k","kind":"j"}"#,
            r#"{"kind":"k","kind":1.0}"#,
            r#"{"kind":"k\q"}"#,
            r#"{"kind":"k\u00"}"#,
            r#"{"kind":"k"#,
        ] {
            assert!(
                BenchRecord::from_json_line(line).is_err(),
                "accepted {line:?}"
            );
        }
    }

    /// A directory under the system temp dir, named from the process id
    /// and `tag` so that no other test or concurrent run shares it.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cooper-ledger-test-{}-{tag}", std::process::id()))
    }

    #[test]
    fn a_metric_named_kind_is_never_written() {
        let record = BenchRecord::new("k", &[("kind", 1.0)]);
        assert!(record.to_json_line().is_err());
        let dir = temp_dir("kind");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join(HISTORY_FILE);
        assert!(append(&path, &record).is_err());
        assert!(std::fs::read_to_string(&path)
            .unwrap_or_default()
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_and_read_preserve_order() {
        let dir = temp_dir("order");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join(HISTORY_FILE);
        append(&path, &BenchRecord::new("a", &[("m", 1.0)])).expect("append");
        append(&path, &BenchRecord::new("b", &[("m", 2.0)])).expect("append");
        append(&path, &BenchRecord::new("a", &[("m", 3.0)])).expect("append");
        let records = read_history(&path).expect("reads");
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].bench, "a");
        assert_eq!(records[2].metric("m"), Some(3.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_record_is_its_own_baseline_and_passes() {
        let report = check_history(&[BenchRecord::new("fault_sweep", &[("guard_on_recall", 0.8)])]);
        assert!(!report.failed());
        assert_eq!(report.verdicts.len(), 1);
        assert_eq!(report.verdicts[0].baseline, report.verdicts[0].latest);
    }

    #[test]
    fn injected_regression_fails_the_check() {
        let history = [
            BenchRecord::new("fault_sweep", &[("guard_on_recall", 0.80)]),
            BenchRecord::new("fault_sweep", &[("guard_on_recall", 0.70)]),
        ];
        let report = check_history(&history);
        assert!(report.failed(), "a 0.10 recall drop must gate");
        let v = &report.verdicts[0];
        assert!(v.regressed);
        assert_eq!(v.baseline, 0.80);
        assert_eq!(v.latest, 0.70);
    }

    #[test]
    fn movement_within_tolerance_passes() {
        let history = [
            BenchRecord::new("bandwidth_sweep", &[("reduction", 3.4)]),
            BenchRecord::new("bandwidth_sweep", &[("reduction", 3.1)]),
        ];
        assert!(!check_history(&history).failed(), "within 15% slack");
        let history = [
            BenchRecord::new("bandwidth_sweep", &[("reduction", 3.4)]),
            BenchRecord::new("bandwidth_sweep", &[("reduction", 2.0)]),
        ];
        assert!(check_history(&history).failed(), "past 15% slack");
    }

    #[test]
    fn lower_is_better_gates_upward_movement() {
        let history = [
            BenchRecord::new("bandwidth_sweep", &[("detection_drift", 0.00)]),
            BenchRecord::new("bandwidth_sweep", &[("detection_drift", 0.04)]),
        ];
        assert!(check_history(&history).failed());
    }

    #[test]
    fn timing_metrics_are_informational() {
        let history = [
            BenchRecord::new("parallel_fleet", &[("perceive_us", 1000.0)]),
            BenchRecord::new("parallel_fleet", &[("perceive_us", 9000.0)]),
        ];
        let report = check_history(&history);
        assert!(!report.failed(), "a 9x wall-clock delta must not gate");
        assert!(report.verdicts[0].tolerance.is_none());
    }

    #[test]
    fn speedup_floor_gates_on_capable_hosts() {
        // Baseline predates the parallel hot path (speedup ~0.9); the
        // floor judges the latest record absolutely, not relatively.
        let history = [
            BenchRecord::new("parallel_fleet", &[("speedup_4_threads", 0.9)]),
            BenchRecord::new(
                "parallel_fleet",
                &[("speedup_4_threads", 1.2), ("hardware_threads", 8.0)],
            ),
        ];
        let report = check_history(&history);
        assert!(report.failed(), "1.2x on an 8-thread host is below floor");
        assert!(format!("{report}").contains("BELOW FLOOR"));
        let history = [
            BenchRecord::new("parallel_fleet", &[("speedup_4_threads", 0.9)]),
            BenchRecord::new(
                "parallel_fleet",
                &[("speedup_4_threads", 3.1), ("hardware_threads", 8.0)],
            ),
        ];
        assert!(!check_history(&history).failed(), "3.1x clears the floor");
    }

    #[test]
    fn speedup_floor_is_exempt_on_narrow_hosts() {
        // A single-core runner cannot express a parallel speedup; the
        // gate metric turns the floor off rather than failing noise.
        let history = [BenchRecord::new(
            "parallel_fleet",
            &[("speedup_4_threads", 1.0), ("hardware_threads", 1.0)],
        )];
        let report = check_history(&history);
        assert!(!report.failed());
        assert!(report.verdicts.iter().all(|v| v.floor.is_none()));
        // Records that never measured the gate metric are exempt too.
        let legacy = [BenchRecord::new(
            "parallel_fleet",
            &[("speedup_4_threads", 0.9)],
        )];
        assert!(!check_history(&legacy).failed());
    }

    #[test]
    fn chaos_floors_are_absolute() {
        // A first record already fails when a defense floor is broken —
        // there is no baseline grace period for the trust layer.
        let weak = [BenchRecord::new(
            "chaos_sweep",
            &[
                ("deterministic", 1.0),
                ("ghost_rejection_rate", 0.6),
                ("recall_delta", 0.4),
                ("quarantine_within_bound", 1.0),
            ],
        )];
        assert!(
            check_history(&weak).failed(),
            "60% ghost rejection is below the 80% floor"
        );
        let isolated = [BenchRecord::new(
            "chaos_sweep",
            &[
                ("deterministic", 1.0),
                ("ghost_rejection_rate", 0.95),
                ("recall_delta", -0.2),
                ("quarantine_within_bound", 1.0),
            ],
        )];
        assert!(
            check_history(&isolated).failed(),
            "fused below ego means the guard quarantined the honest fleet"
        );
        let late = [BenchRecord::new(
            "chaos_sweep",
            &[
                ("deterministic", 1.0),
                ("ghost_rejection_rate", 0.95),
                ("recall_delta", 0.4),
                ("quarantine_within_bound", 0.0),
            ],
        )];
        assert!(
            check_history(&late).failed(),
            "unbounded quarantine latency"
        );
        let healthy = [BenchRecord::new(
            "chaos_sweep",
            &[
                ("deterministic", 1.0),
                ("ghost_rejection_rate", 0.95),
                ("recall_delta", 0.4),
                ("quarantine_within_bound", 1.0),
                ("quarantine_latency_steps", 3.0),
            ],
        )];
        assert!(!check_history(&healthy).failed());
    }

    /// A chaos record that clears every floor, with its quarantine
    /// latency.
    fn chaos(latency_steps: f64) -> BenchRecord {
        BenchRecord::new(
            "chaos_sweep",
            &[
                ("deterministic", 1.0),
                ("ghost_rejection_rate", 0.95),
                ("recall_delta", 0.4),
                ("quarantine_within_bound", 1.0),
                ("quarantine_latency_steps", latency_steps),
            ],
        )
    }

    #[test]
    fn chaos_quarantine_latency_gates_upward_movement() {
        assert!(
            check_history(&[chaos(2.0), chaos(6.0)]).failed(),
            "a 4-step latency regression must gate"
        );
        assert!(
            !check_history(&[chaos(2.0), chaos(3.0)]).failed(),
            "one step of slack"
        );
    }

    #[test]
    fn nan_fails_every_gate_it_reaches() {
        // A `null` in the ledger reads back as NaN.
        let line = r#"{"kind":"fault_sweep","guard_on_recall":null,"guard_off_recall":null}"#;
        let nan = BenchRecord::from_json_line(line).expect("parses");
        let clean = BenchRecord::new(
            "fault_sweep",
            &[("guard_on_recall", 0.8), ("guard_off_recall", 0.4)],
        );
        let report = check_history(&[clean.clone(), nan]);
        assert!(report.failed(), "a NaN recall must gate");
        let failed: Vec<&str> = report
            .verdicts
            .iter()
            .filter(|v| v.regressed)
            .map(|v| v.metric.as_str())
            .collect();
        // The guard-off arm stays informational.
        assert_eq!(failed, ["guard_on_recall"]);
        // A NaN baseline cannot vouch for anything either.
        let line = r#"{"kind":"fault_sweep","guard_on_recall":null}"#;
        let nan_baseline = BenchRecord::from_json_line(line).expect("parses");
        assert!(check_history(&[nan_baseline, clean]).failed());
        // A NaN never clears a floor, on a first record too.
        let mut floored = chaos(1.0);
        floored
            .metrics
            .insert("ghost_rejection_rate".into(), f64::NAN);
        let report = check_history(&[floored]);
        assert!(report.failed());
        assert!(format!("{report}").contains("BELOW FLOOR"));
    }

    #[test]
    fn a_floored_metric_the_latest_record_lacks_fails() {
        let mut partial = chaos(1.0);
        partial.metrics.remove("ghost_rejection_rate");
        let report = check_history(&[chaos(1.0), partial]);
        assert!(report.failed());
        let v = report
            .verdicts
            .iter()
            .find(|v| v.metric == "ghost_rejection_rate")
            .expect("the missing floored metric gets a verdict");
        assert!(v.regressed && v.latest.is_nan() && v.baseline == 0.95);
        // A gated floor applies only where its gate does.
        let wide = BenchRecord::new("parallel_fleet", &[("hardware_threads", 8.0)]);
        assert!(check_history(&[wide]).failed());
        let narrow = BenchRecord::new("parallel_fleet", &[("hardware_threads", 2.0)]);
        assert!(!check_history(&[narrow]).failed());
    }

    #[test]
    fn determinism_has_zero_slack() {
        let history = [
            BenchRecord::new("parallel_fleet", &[("deterministic", 1.0)]),
            BenchRecord::new("parallel_fleet", &[("deterministic", 0.0)]),
        ];
        assert!(check_history(&history).failed());
    }
}
