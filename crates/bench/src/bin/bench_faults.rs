//! Loss-sweep benchmark: goodput and tail latency vs injected fault rate,
//! written to `BENCH_faults.json`.
//!
//! Runs `fm-testbed`'s [`fm_testbed::faults`] experiment — the real
//! protocol engine on the discrete-event engine with a seeded faulty wire
//! (drop, duplication, CRC-checked bit corruption, delay/reorder applied
//! independently at each rate) — and records, per sweep point: delivered
//! goodput, p50/p99 end-to-end message latency, and the recovery counters
//! (timer retransmissions, duplicate suppressions, CRC rejections).
//!
//! Every run is deterministic (fixed seed per point) and doubles as an
//! exactly-once check: the experiment panics if any message is lost,
//! duplicated or reordered. `--smoke` shrinks the per-point message count
//! for CI; `--out PATH` overrides the output path.
//!
//! The binary is its own gate (exit 1): at the 1 % point a lost frame may
//! cost at most [`MAX_RETRANSMITS_PER_LOSS`] retransmissions
//! (`retransmitted / (drops + crc_rejected)`) and the median latency may
//! be at most [`MAX_P50_OVER_CLEAN`] times the clean wire's.

use fm_testbed::faults::{run_loss_point, FaultSweepConfig};
use std::fmt::Write as _;

/// The injected per-category fault rates of the sweep.
const RATES: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.10];

/// The sweep point the gate reads.
const GATED_RATE: f64 = 0.01;

/// Retransmissions allowed per lost frame at [`GATED_RATE`]. A smoke run
/// loses only about forty frames there, so one unlucky ack frame (four
/// acks, four spurious repairs) moves the ratio by a tenth: it gets 3.
const MAX_RETRANSMITS_PER_LOSS: f64 = 2.0;
const MAX_RETRANSMITS_PER_LOSS_SMOKE: f64 = 3.0;

/// Median latency allowed at [`GATED_RATE`], as a multiple of the clean
/// wire's.
const MAX_P50_OVER_CLEAN: f64 = 10.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = "BENCH_faults.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: bench_faults [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let cfg = FaultSweepConfig {
        count: if smoke { 2_000 } else { 20_000 },
        ..Default::default()
    };

    let mut points = String::new();
    let mut clean_p50_ps = 0u64;
    let mut gate_failures = Vec::new();
    for (i, &rate) in RATES.iter().enumerate() {
        eprintln!(
            "bench_faults: rate {:.0}% ({} messages)...",
            rate * 100.0,
            cfg.count
        );
        let p = run_loss_point(rate, cfg);
        // run_loss_point asserts exactly-once in-order delivery itself.
        assert_eq!(p.delivered as usize, cfg.count);
        if rate == 0.0 {
            clean_p50_ps = p.p50.as_ps();
        }
        if rate == GATED_RATE {
            let per_loss = p.retransmitted as f64 / (p.injected_drops + p.crc_rejected) as f64;
            let max_per_loss = if smoke {
                MAX_RETRANSMITS_PER_LOSS_SMOKE
            } else {
                MAX_RETRANSMITS_PER_LOSS
            };
            if per_loss > max_per_loss {
                gate_failures.push(format!(
                    "{per_loss:.2} retransmissions per lost frame (limit {max_per_loss})"
                ));
            }
            let over_clean = p.p50.as_ps() as f64 / clean_p50_ps as f64;
            if over_clean > MAX_P50_OVER_CLEAN {
                gate_failures.push(format!(
                    "p50 is {over_clean:.1}x the clean wire's (limit {MAX_P50_OVER_CLEAN})"
                ));
            }
        }
        println!(
            "rate {:>4.1}%: goodput {:>8.2} MB/s  p50 {:>7.1} us  p99 {:>8.1} us  \
             (drops {} dups {} corrupt {} delays {} | rtx {} timer {} gap {} dedup {})",
            rate * 100.0,
            p.goodput_mbs,
            p.p50.as_ps() as f64 / 1e6,
            p.p99.as_ps() as f64 / 1e6,
            p.injected_drops,
            p.injected_dups,
            p.injected_corrupt,
            p.injected_delays,
            p.retransmitted,
            p.timer_retransmits,
            p.gap_retransmits,
            p.duplicates_suppressed,
        );
        write!(
            points,
            concat!(
                "    {{\n",
                "      \"rate\": {rate},\n",
                "      \"delivered\": {delivered},\n",
                "      \"goodput_mbs\": {goodput:.3},\n",
                "      \"p50_us\": {p50:.2},\n",
                "      \"p99_us\": {p99:.2},\n",
                "      \"elapsed_us\": {elapsed:.1},\n",
                "      \"injected\": {{ \"drops\": {drops}, \"dups\": {dups}, \"corrupt\": {corrupt}, \"delays\": {delays} }},\n",
                "      \"recovery\": {{ \"crc_rejected\": {crc}, \"retransmitted\": {rtx}, \"timer_retransmits\": {trtx}, \"gap_retransmits\": {grtx}, \"duplicates_suppressed\": {dedup} }}\n",
                "    }}{comma}\n",
            ),
            rate = rate,
            delivered = p.delivered,
            goodput = p.goodput_mbs,
            p50 = p.p50.as_ps() as f64 / 1e6,
            p99 = p.p99.as_ps() as f64 / 1e6,
            elapsed = p.elapsed.as_ps() as f64 / 1e6,
            drops = p.injected_drops,
            dups = p.injected_dups,
            corrupt = p.injected_corrupt,
            delays = p.injected_delays,
            crc = p.crc_rejected,
            rtx = p.retransmitted,
            trtx = p.timer_retransmits,
            grtx = p.gap_retransmits,
            dedup = p.duplicates_suppressed,
            comma = if i + 1 < RATES.len() { "," } else { "" },
        )
        .expect("writing to String cannot fail");
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"fault_sweep\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"messages_per_point\": {count},\n",
            "  \"payload_bytes\": {payload},\n",
            "  \"seed\": {seed},\n",
            "  \"exactly_once\": true,\n",
            "  \"points\": [\n",
            "{points}",
            "  ]\n",
            "}}\n",
        ),
        smoke = smoke,
        count = cfg.count,
        payload = cfg.payload,
        seed = cfg.seed,
        points = points,
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");
    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!(
                "bench_faults: gate failed at {:.0}%: {f}",
                GATED_RATE * 100.0
            );
        }
        std::process::exit(1);
    }
}
