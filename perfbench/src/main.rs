//! `perf_baseline`: times Cooper's fleet loop on four pinned workloads.
//!
//! ```text
//! perf_baseline --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--smoke]
//! perf_baseline [--seed N] [--seconds N] [--smoke]     # every workload, both passes
//! ```
//!
//! One process measures one workload, so each run has its own peak RSS
//! and its own global telemetry registry; without `--workload` the
//! binary re-runs itself once per workload and pass. With `--trace 0`
//! it times untraced drives and prints the end-to-end metrics; with
//! `--trace 1` it alternates untraced, traced and 1-thread drives and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Every drive of a seed must produce the same report digest, at 2
//! worker threads and at 1, traced or not; otherwise the run prints
//! where the drives first differ, reports `"correct": false` and exits
//! with status 1. See `README.md` for the workloads and metrics.

mod layers;
mod stats;
mod timed;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use cooper_spod::train::TrainingConfig;
use cooper_spod::{SpodConfig, SpodDetector};

use layers::Metric;
use workload::{
    drive_seed, fnv64, step_gaps_ms, Drive, Outcome, Workload, SEEDS_PER_RUN, VEHICLES,
};

/// Worker threads of every timed and traced drive.
const THREADS: usize = 2;
/// Steps per drive.
const STEPS: usize = 10;
/// Timed drives a run makes at least: 4 per seed, and 16 drives × 8 step
/// gaps gives 128 samples, enough for a p90 with 10 samples beyond it.
const MIN_TIMED_DRIVES: usize = 4 * SEEDS_PER_RUN;
/// Traced drives a run makes at least: one per seed.
const MIN_TRACED_DRIVES: usize = SEEDS_PER_RUN;
/// Samples a reported tail percentile needs beyond it.
const TAIL_MIN_BEYOND: usize = 10;
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: perf_baseline [--workload NAME] [--seed N] [--seconds N] \
                     [--trace 0|1] [--smoke]\n\
                     workloads: raw_broadcast, governed_features, lossy_chaos, parked_incremental";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    /// 2 timed drives (1 traced) of 3 steps, no time floor: checks that
    /// every metric is produced, not what it measures.
    smoke: bool,
    /// Train the detector into the weight cache and exit; runs in a
    /// child process so training never counts toward a run's peak RSS.
    train_weights: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        train_weights: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => {
                parsed.smoke = true;
                continue;
            }
            "--train-weights" => {
                parsed.train_weights = true;
                continue;
            }
            _ => {}
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                parsed.seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?);
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                parsed.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_baseline: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.train_weights {
        weights_path().and_then(|path| train_weights(&path).map(|()| true))
    } else {
        match args.workload {
            Some(w) => run_workload(w, &args),
            None => run_all(&argv),
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_baseline: {e}");
            ExitCode::FAILURE
        }
    }
}

fn own_binary() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))
}

/// Re-runs this binary once per workload and pass, in sequence, and
/// waits for each. `Ok(false)` when any run failed.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let exe = own_binary()?;
    let mut all_ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            println!("== {} --trace {trace}", w.name());
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(argv)
                .status()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            all_ok &= status.success();
        }
    }
    Ok(all_ok)
}

/// Where the standard detector's weights are cached: next to this
/// binary, inside the build directory, keyed by the detector and
/// training configuration.
fn weights_path() -> Result<PathBuf, String> {
    let key = fnv64(
        format!(
            "{:?}|{:?}",
            SpodConfig::default(),
            TrainingConfig::standard()
        )
        .as_bytes(),
    );
    let exe = own_binary()?;
    let dir = exe.parent().map_or_else(PathBuf::new, PathBuf::from);
    Ok(dir.join(format!("cooper-spod-weights-{key:016x}.bin")))
}

/// Trains the standard detector (deterministic, seeded) and caches it.
fn train_weights(path: &Path) -> Result<(), String> {
    let bytes = SpodDetector::train_default(&TrainingConfig::standard()).to_bytes();
    // Write-then-rename, so a concurrent reader never sees half a file.
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, &bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("cannot cache weights at {}: {e}", path.display()))
}

/// The cached weights, training them first in a child process when the
/// cache is cold. Returns the training time when it trained.
fn load_weights() -> Result<(Vec<u8>, Option<Duration>), String> {
    let path = weights_path()?;
    let cached = |path: &Path| {
        std::fs::read(path)
            .ok()
            .filter(|bytes| SpodDetector::from_bytes(bytes).is_ok())
    };
    if let Some(bytes) = cached(&path) {
        return Ok((bytes, None));
    }
    let start = Instant::now();
    let status = Command::new(own_binary()?)
        .arg("--train-weights")
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start training: {e}"))?;
    let train = start.elapsed();
    if !status.success() {
        return Err(format!("training failed: {status}"));
    }
    let bytes = cached(&path).ok_or("training left no usable weights")?;
    Ok((bytes, Some(train)))
}

/// Peak resident set size of this process, megabytes (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// Compares every drive of a run against the first drive of the same
/// seed.
struct Checker {
    workload: Workload,
    steps: usize,
    /// First outcome per drive-seed index.
    references: [Option<Outcome>; SEEDS_PER_RUN],
    problems: Vec<String>,
}

impl Checker {
    fn new(workload: Workload, steps: usize) -> Checker {
        Checker {
            workload,
            steps,
            references: Default::default(),
            problems: Vec::new(),
        }
    }

    /// Checks `drive` of drive-seed index `k`, labelled `label` in any
    /// problem it reports. Returns its outcome and whether it passed.
    fn check(&mut self, label: &str, k: usize, drive: &Drive) -> (Outcome, bool) {
        let outcome = Outcome::of(drive);
        let before = self.problems.len();
        if drive.reports.len() != self.steps
            || drive
                .reports
                .iter()
                .any(|r| r.per_vehicle.len() != VEHICLES)
        {
            self.problems.push(format!(
                "{label}: expected {} steps of {VEHICLES} vehicle reports",
                self.steps
            ));
        }
        if self.workload.lossless() && outcome.transfers_failed > 0 {
            self.problems.push(format!(
                "{label}: {} transfers failed on the perfect channel",
                outcome.transfers_failed
            ));
        }
        match &self.references[k] {
            None => self.references[k] = Some(outcome.clone()),
            Some(reference) => {
                if let Some(at) = reference.first_difference(&outcome) {
                    self.problems.push(format!(
                        "{label} (seed #{k}): digest {:016x} differs from its first drive's \
                         {:016x}, first at {at}",
                        outcome.digest(),
                        reference.digest()
                    ));
                }
            }
        }
        let ok = self.problems.len() == before;
        (outcome, ok)
    }

    fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.references.iter().flatten()
    }

    /// Mean of `f` over the seeds driven so far.
    fn mean(&self, f: impl Fn(&Outcome) -> f64) -> f64 {
        let values: Vec<f64> = self.outcomes().map(f).collect();
        values.iter().sum::<f64>() / values.len().max(1) as f64
    }
}

fn print_summary(name: &str, unit: &str, samples: &[f64]) {
    if let Some(s) = stats::summarize(samples) {
        println!(
            "  {name:<34} median {:>12.4} {unit:<11} q1 {:.4} q3 {:.4} n {}",
            s.median, s.q1, s.q3, s.n
        );
    }
}

fn median_or_err(samples: &[f64], what: &str) -> Result<f64, String> {
    stats::median(samples).ok_or_else(|| format!("no samples of {what}"))
}

/// Runs one workload: the untraced timing pass (`--trace 0`) or the
/// traced per-layer pass (`--trace 1`). `Ok(false)` when a correctness
/// check failed.
fn run_workload(w: Workload, args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(w.default_seed());
    let (steps, seconds, min_timed, min_traced, round) = if args.smoke {
        (3, 0.0, 2, 1, 1)
    } else {
        (
            STEPS,
            args.seconds,
            MIN_TIMED_DRIVES,
            MIN_TRACED_DRIVES,
            SEEDS_PER_RUN,
        )
    };
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let seeds: Vec<u64> = (0..SEEDS_PER_RUN).map(|k| drive_seed(seed, k)).collect();
    println!(
        "workload {} seed {seed} (drive seeds {seeds:?}) vehicles {VEHICLES} steps/drive {steps} \
         threads {THREADS} host_cores {host_cores}{}",
        w.name(),
        if THREADS > host_cores {
            " oversubscribed"
        } else {
            ""
        }
    );
    let (weights, train) = load_weights()?;
    if let Some(train) = train {
        println!(
            "train_s {:.3} (cold weight cache, untimed)",
            train.as_secs_f64()
        );
    }
    let mut checker = Checker::new(w, steps);
    let rig = |k: usize, threads: usize| w.rig(&weights, seeds[k], steps, threads);

    // The first drive of the process pays first-use costs; it is never
    // timed as a steady-state drive.
    let cold = rig(0, THREADS).drive();
    checker.check("warm-up drive", 0, &cold);

    let start = Instant::now();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let vehicle_steps = (VEHICLES * steps) as u64;
    let metrics = if args.trace {
        let mut untraced_walls = Vec::new();
        let mut traced_walls = Vec::new();
        let mut one_thread_walls = Vec::new();
        let mut rows: Vec<Vec<Metric>> = Vec::new();
        while rows.len() < min_traced || start.elapsed().as_secs_f64() < seconds {
            let k = rows.len() % SEEDS_PER_RUN;
            let drive = rig(k, THREADS).drive();
            untraced_walls.push(drive.wall.as_secs_f64());
            checker.check("untraced drive", k, &drive);

            let traced = rig(k, THREADS);
            cooper_telemetry::reset();
            cooper_telemetry::enable();
            let drive = traced.drive();
            let snapshot = cooper_telemetry::snapshot();
            cooper_telemetry::disable();
            cooper_telemetry::reset();
            traced_walls.push(drive.wall.as_secs_f64());
            let (outcome, ok) = checker.check("traced drive", k, &drive);
            attempted += vehicle_steps;
            failed += if ok { 0 } else { vehicle_steps };
            rows.push(layers::traced_drive_metrics(
                &snapshot, &drive, &outcome, THREADS,
            ));

            let drive = rig(k, 1).drive();
            one_thread_walls.push(drive.wall.as_secs_f64());
            checker.check("1-thread drive", k, &drive);
        }

        let untraced = median_or_err(&untraced_walls, "untraced drive wall")?;
        let mut metrics: Vec<Metric> = (0..rows[0].len())
            .map(|i| {
                let values: Vec<f64> = rows.iter().map(|r| r[i].value).collect();
                let first = &rows[0][i];
                Metric::new(
                    first.name.clone(),
                    first.unit,
                    stats::median(&values).unwrap_or(0.0),
                )
            })
            .collect();
        metrics.push(Metric::new(
            "fleet.cold_drive_s",
            "s",
            cold.wall.as_secs_f64(),
        ));
        metrics.push(Metric::new(
            "exec.speedup_2t",
            "x",
            median_or_err(&one_thread_walls, "1-thread drive wall")? / untraced,
        ));
        metrics.push(Metric::new(
            "trace.overhead",
            "x",
            median_or_err(&traced_walls, "traced drive wall")? / untraced,
        ));
        println!(
            "traced drives {}, untraced {}, 1-thread {}; per-layer values are medians over \
             traced drives",
            rows.len(),
            untraced_walls.len(),
            one_thread_walls.len()
        );
        for (i, m) in metrics.iter().enumerate() {
            let values: Vec<f64> = match rows[0].get(i) {
                Some(_) => rows.iter().map(|r| r[i].value).collect(),
                None => vec![m.value],
            };
            print_summary(&m.name, m.unit, &values);
        }
        metrics
    } else {
        let mut setup_s = Vec::new();
        let mut walls = Vec::new();
        let mut gaps = Vec::new();
        while walls.len() < min_timed
            || start.elapsed().as_secs_f64() < seconds
            || walls.len() % round != 0
        {
            let k = walls.len() % SEEDS_PER_RUN;
            let setup_start = Instant::now();
            let timed = rig(k, THREADS);
            setup_s.push(setup_start.elapsed().as_secs_f64());
            let drive = timed.drive();
            walls.push(drive.wall.as_secs_f64());
            gaps.extend(step_gaps_ms(&drive.step_starts));
            let (_, ok) = checker.check("timed drive", k, &drive);
            attempted += vehicle_steps;
            failed += if ok { 0 } else { vehicle_steps };
        }
        let one_thread = rig(0, 1).drive();
        checker.check("1-thread drive", 0, &one_thread);

        let tail_min = if args.smoke { 0 } else { TAIL_MIN_BEYOND };
        let p50 = stats::percentile(&gaps, 0.5, 0)?;
        let p90 = stats::percentile(&gaps, 0.9, tail_min)?;
        let drive_wall = median_or_err(&walls, "drive wall time")?;
        println!(
            "timed drives {}; step gaps n {} (p90 has {} beyond)",
            walls.len(),
            p90.n,
            p90.beyond
        );
        print_summary("step_ms", "ms", &gaps);
        print_summary("drive_wall_s", "s", &walls);
        print_summary("setup_s", "s", &setup_s);
        vec![
            Metric::new("step_ms_p50", "ms", p50.value),
            Metric::new("step_ms_p90", "ms", p90.value),
            Metric::new(
                "vehicle_steps_per_s",
                "1/s",
                vehicle_steps as f64 / drive_wall,
            ),
            Metric::new("setup_s", "s", median_or_err(&setup_s, "set-up time")?),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb()?),
            Metric::new(
                "fused_det",
                "detections/drive",
                checker.mean(|o| o.fused_det as f64),
            ),
            Metric::new(
                "ego_det",
                "detections/drive",
                checker.mean(|o| o.ego_det as f64),
            ),
            Metric::new(
                "wire_kb",
                "KB/drive",
                checker.mean(|o| o.wire_bytes as f64 / 1000.0),
            ),
        ]
    };

    if checker
        .outcomes()
        .any(|o| o.ego_det == 0 || o.fused_det == 0)
    {
        checker
            .problems
            .push("a drive's detector found no cars at all".to_string());
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        checker
            .problems
            .push(format!("{} is not finite: {}", m.name, m.value));
    }
    let digests: Vec<u64> = checker.outcomes().map(Outcome::digest).collect();
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    println!(
        "digest {:016x} over drive seeds {digests:016x?}",
        fnv64(&bytes)
    );
    for o in checker.outcomes() {
        println!(
            "  fused_det {} ego_det {} wire_kb {:.3} transfers failed {}/{}",
            o.fused_det,
            o.ego_det,
            o.wire_bytes as f64 / 1000.0,
            o.transfers_failed,
            o.transfers
        );
    }
    for problem in &checker.problems {
        println!("INCORRECT {problem}");
    }
    let correct = checker.problems.is_empty();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`,
/// every value printed with all its digits.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "lossy_chaos",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, Some(Workload::LossyChaos));
        assert_eq!(args.seed, Some(9));
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace && !args.smoke && !args.train_weights);
        let args = parse_args(&strings(&["--smoke"])).unwrap();
        assert!(args.smoke && args.workload.is_none() && !args.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seed"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            80,
            0,
            &[
                Metric::new("step_ms_p50", "ms", 81.25),
                Metric::new("vehicle_steps_per_s", "1/s", 97.0),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 80, \"failed\": 0, \"metrics\": \
             {\"step_ms_p50\": {\"value\": 81.25, \"unit\": \"ms\"}, \
             \"vehicle_steps_per_s\": {\"value\": 97, \"unit\": \"1/s\"}}}"
        );
    }
}
