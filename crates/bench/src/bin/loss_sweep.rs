//! Loss sweep: scan recall and bandwidth vs burst-loss rate, with and
//! without fragment-level ARQ — the lossy-transport extension of the
//! paper's Fig. 9 / Table IV bandwidth study.
//!
//! The paper's feasibility argument assumes DSRC delivers the ~210 KB
//! compressed scan; this benchmark measures what survives when the
//! channel fails in bursts (Gilbert–Elliott model). For each long-run
//! loss rate it transmits a batch of scan-sized payloads under a 1 Hz
//! delivery deadline, once with plain transmission and once with ARQ
//! retransmission, and reports how many scans arrive whole, how many
//! are salvaged as a contiguous prefix, and what the recovery costs in
//! air time. Emits `BENCH_loss.json`.

use cooper_bench::{output_dir, render_table, write_artifact};
use cooper_v2x::{
    transmit_with_arq, ArqConfig, DsrcChannel, DsrcConfig, GilbertElliott, LossModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's compressed scan size (§II-C: "200 KB per scan").
const PAYLOAD_BYTES: usize = 210_000;
/// Transfers per configuration — enough for stable rates.
const TRANSFERS: usize = 200;
/// 1 Hz exchange: everything must land within a second.
const DEADLINE_S: f64 = 1.0;
/// Long-run burst-loss rates swept.
const LOSS_RATES: [f64; 5] = [0.0, 0.05, 0.10, 0.20, 0.30];

/// Outcome of one (loss rate, arq on/off) configuration.
struct SweepPoint {
    loss_rate: f64,
    arq: bool,
    scans_complete: usize,
    scans_salvaged: usize,
    scans_lost: usize,
    scan_recall: f64,
    payload_recall: f64,
    mbit_on_air: f64,
    retransmits: usize,
    deadline_misses: usize,
}

fn channel_for(loss_rate: f64) -> DsrcChannel {
    let loss_model = if loss_rate == 0.0 {
        LossModel::Independent
    } else {
        LossModel::GilbertElliott(GilbertElliott::from_loss_rate(loss_rate))
    };
    DsrcChannel::new(DsrcConfig {
        loss_model,
        ..DsrcConfig::default()
    })
}

fn run_point(loss_rate: f64, arq_on: bool, seed_base: u64) -> SweepPoint {
    let channel = channel_for(loss_rate);
    let config = if arq_on {
        ArqConfig::default()
    } else {
        ArqConfig { max_retries: 0 }
    };
    let mut complete = 0usize;
    let mut salvaged = 0usize;
    let mut payload_fraction_sum = 0.0f64;
    let mut bytes_on_air = 0usize;
    let mut retransmits = 0usize;
    let mut deadline_misses = 0usize;
    for i in 0..TRANSFERS {
        let mut rng = StdRng::seed_from_u64(seed_base + i as u64);
        let report = transmit_with_arq(&channel, PAYLOAD_BYTES, DEADLINE_S, &config, &mut rng);
        if report.complete {
            complete += 1;
        } else if report.contiguous_prefix > 0 {
            salvaged += 1;
        }
        payload_fraction_sum += report.salvage_fraction();
        bytes_on_air += report.bytes_on_air;
        retransmits += report.retransmits;
        deadline_misses += usize::from(report.deadline_exceeded);
    }
    SweepPoint {
        loss_rate,
        arq: arq_on,
        scans_complete: complete,
        scans_salvaged: salvaged,
        scans_lost: TRANSFERS - complete,
        scan_recall: complete as f64 / TRANSFERS as f64,
        payload_recall: payload_fraction_sum / TRANSFERS as f64,
        mbit_on_air: bytes_on_air as f64 * 8.0 / 1e6,
        retransmits,
        deadline_misses,
    }
}

fn run_sweep() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for (ri, &rate) in LOSS_RATES.iter().enumerate() {
        for arq_on in [false, true] {
            // Same seed base for both arms of a rate: the comparison
            // sees the same channel draws where the policies coincide.
            points.push(run_point(rate, arq_on, 1000 * (ri as u64 + 1)));
        }
    }
    points
}

fn main() {
    println!("=== Loss sweep: scan recall vs burst loss, ARQ off/on ===\n");
    let points = run_sweep();

    let headers = [
        "loss_rate",
        "arq",
        "complete",
        "salvaged",
        "lost",
        "scan_recall",
        "payload_recall",
        "mbit_on_air",
        "retransmits",
        "deadline_miss",
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.loss_rate),
                p.arq.to_string(),
                p.scans_complete.to_string(),
                p.scans_salvaged.to_string(),
                p.scans_lost.to_string(),
                format!("{:.3}", p.scan_recall),
                format!("{:.3}", p.payload_recall),
                format!("{:.1}", p.mbit_on_air),
                p.retransmits.to_string(),
                p.deadline_misses.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    let at = |rate: f64, arq: bool| {
        points
            .iter()
            .find(|p| p.loss_rate == rate && p.arq == arq)
            .expect("sweep covers the point")
    };
    let (no_arq, with_arq) = (at(0.10, false), at(0.10, true));
    let recovered = 1.0 - with_arq.scans_lost as f64 / no_arq.scans_lost.max(1) as f64;
    println!(
        "At 10% burst loss: {} scans lost without ARQ, {} with ARQ ({:.0}% recovered) for {:.1}% extra air time.",
        no_arq.scans_lost,
        with_arq.scans_lost,
        recovered * 100.0,
        (with_arq.mbit_on_air / no_arq.mbit_on_air - 1.0) * 100.0,
    );

    let sweep_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"loss_rate\": {:.2}, \"arq\": {}, \"scans_complete\": {}, \"scans_salvaged\": {}, \"scans_lost\": {}, \"scan_recall\": {:.4}, \"payload_recall\": {:.4}, \"mbit_on_air\": {:.2}, \"retransmits\": {}, \"deadline_misses\": {}}}",
                p.loss_rate,
                p.arq,
                p.scans_complete,
                p.scans_salvaged,
                p.scans_lost,
                p.scan_recall,
                p.payload_recall,
                p.mbit_on_air,
                p.retransmits,
                p.deadline_misses
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"payload_bytes\": {PAYLOAD_BYTES},\n  \"transfers_per_point\": {TRANSFERS},\n  \"deadline_s\": {DEADLINE_S},\n  \"arq_max_retries\": {},\n  \"sweep\": [\n{}\n  ],\n  \"arq_recovery_at_10pct_loss\": {{\"scans_lost_without_arq\": {}, \"scans_lost_with_arq\": {}, \"recovered_fraction\": {:.4}}}\n}}\n",
        ArqConfig::default().max_retries,
        sweep_json.join(",\n"),
        no_arq.scans_lost,
        with_arq.scans_lost,
        recovered,
    );
    let dir = output_dir().unwrap_or_else(|| std::path::PathBuf::from("results"));
    write_artifact(Some(&dir), "BENCH_loss.json", &json);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's acceptance criterion, enforced where CI sees it: at 10%
    /// burst loss ARQ must recover at least half of the scans that
    /// plain transmission loses.
    #[test]
    fn arq_recovers_at_least_half_the_lost_scans_at_ten_percent() {
        let no_arq = run_point(0.10, false, 3000);
        let with_arq = run_point(0.10, true, 3000);
        assert!(
            no_arq.scans_lost > 0,
            "10% burst loss must actually lose scans without ARQ"
        );
        assert!(
            2 * with_arq.scans_lost <= no_arq.scans_lost,
            "ARQ left {} of {} lost scans unrecovered",
            with_arq.scans_lost,
            no_arq.scans_lost
        );
    }

    #[test]
    fn lossless_point_is_perfect_and_free() {
        let p = run_point(0.0, true, 500);
        assert_eq!(p.scans_complete, TRANSFERS);
        assert_eq!(p.retransmits, 0);
        assert!((p.scan_recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recall_degrades_with_loss_without_arq() {
        let light = run_point(0.05, false, 700);
        let heavy = run_point(0.30, false, 700);
        assert!(light.scan_recall >= heavy.scan_recall);
        assert!(heavy.scan_recall < 0.5, "30% burst loss must bite");
    }
}
