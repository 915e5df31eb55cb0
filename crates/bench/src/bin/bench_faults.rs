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
//! duplicated or reordered. `--smoke` shrinks the per-point message count.
//!
//! The binary is its own gate (exit 1): at the 1 % point a lost frame may
//! cost at most [`MAX_RETRANSMITS_PER_LOSS`] retransmissions
//! (`retransmitted / (drops + crc_rejected)`) and the median latency may
//! be at most [`MAX_P50_OVER_CLEAN`] times the clean wire's.

use fm_bench::report::{Args, Gate, Report};
use fm_testbed::faults::{run_loss_point, FaultSweepConfig};

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
    let args = Args::parse("BENCH_faults.json", &[]);
    let cfg = FaultSweepConfig {
        count: if args.smoke { 2_000 } else { 20_000 },
        ..Default::default()
    };

    let mut points = Vec::new();
    let mut gates = Vec::new();
    let mut clean_p50_ps = 0u64;
    for rate in RATES {
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
            let max_per_loss = if args.smoke {
                MAX_RETRANSMITS_PER_LOSS_SMOKE
            } else {
                MAX_RETRANSMITS_PER_LOSS
            };
            gates.push(Gate::at_most(
                "retransmits_per_loss_at_1pct",
                p.retransmitted as f64 / (p.injected_drops + p.crc_rejected) as f64,
                max_per_loss,
            ));
            gates.push(Gate::at_most(
                "p50_over_clean_at_1pct",
                p.p50.as_ps() as f64 / clean_p50_ps as f64,
                MAX_P50_OVER_CLEAN,
            ));
        }
        let us = |ps: u64| ps as f64 / 1e6;
        println!(
            "rate {:>4.1}%: goodput {:>8.2} MB/s  p50 {:>7.1} us  p99 {:>8.1} us  \
             (drops {} dups {} corrupt {} delays {} | rtx {} timer {} gap {} dedup {})",
            rate * 100.0,
            p.goodput_mbs,
            us(p.p50.as_ps()),
            us(p.p99.as_ps()),
            p.injected_drops,
            p.injected_dups,
            p.injected_corrupt,
            p.injected_delays,
            p.retransmitted,
            p.timer_retransmits,
            p.gap_retransmits,
            p.duplicates_suppressed,
        );
        points.push(
            Report::new()
                .num("rate", rate, 2)
                .set("delivered", p.delivered)
                .num("goodput_mbs", p.goodput_mbs, 3)
                .num("p50_us", us(p.p50.as_ps()), 2)
                .num("p99_us", us(p.p99.as_ps()), 2)
                .num("elapsed_us", us(p.elapsed.as_ps()), 1)
                .set(
                    "injected",
                    Report::new()
                        .set("drops", p.injected_drops)
                        .set("dups", p.injected_dups)
                        .set("corrupt", p.injected_corrupt)
                        .set("delays", p.injected_delays),
                )
                .set(
                    "recovery",
                    Report::new()
                        .set("crc_rejected", p.crc_rejected)
                        .set("retransmitted", p.retransmitted)
                        .set("timer_retransmits", p.timer_retransmits)
                        .set("gap_retransmits", p.gap_retransmits)
                        .set("duplicates_suppressed", p.duplicates_suppressed),
                ),
        );
    }

    Report::new()
        .set("bench", "fault_sweep")
        .set("smoke", args.smoke)
        .set("messages_per_point", cfg.count)
        .set("payload_bytes", cfg.payload)
        .set("seed", cfg.seed)
        .set("exactly_once", true)
        .set("points", points)
        .finish(&args.out, &gates)
}
