//! Switch-scale gate: aggregate bandwidth + tail latency vs cluster size,
//! incast fairness and reject-queue boundedness, and the multi-trunk
//! capacity win, on the live switched runtime.
//!
//! Runs clusters of 2→64 endpoints (`--smoke`: 2→8 for the wall-clock
//! sweep) through `fm_core::SwitchedCluster` — real threads, real SPSC
//! rings, frames store-and-forwarded through switch shards wired as the
//! fat-tree `SwitchTopology::for_cluster_wide` — and emits
//! `BENCH_scaling.json` with four sections:
//!
//! * `points`  — per cluster size: disjoint-pair aggregate bandwidth
//!   (wall-clock, best of three runs), pingpong p50/p99 one-way latency
//!   between the two most distant hosts, and the hop count between them;
//! * `incast`  — per sender count K: every sender's peak reject-queue
//!   occupancy while overloading one receiver, receiver bounces, and
//!   Jain-fairness over per-sender completion rates (deterministic:
//!   single-threaded drive);
//! * `trunks`  — deterministic drive-round counts for 8 all-crossing
//!   flows over 1 vs 4 parallel trunks, and the resulting speedup;
//! * `gate`    — the assertions, with `enforced_gates` naming which ones
//!   fail the run. Deterministic gates (reject bounds, incast fairness,
//!   trunk speedup) are enforced even under `--smoke`: they are exact
//!   protocol properties, not timing measurements, so CI noise is no
//!   excuse. The wall-clock monotonicity gate is enforced only on full
//!   runs, with a 15% allowance and best-of-3 points to shed scheduler
//!   noise (a single-measurement n=8 dip shipped a red gate once).
//!
//! Exit status is 1 whenever any *enforced* gate is false — in both
//! modes — so the CI smoke job cannot stay green past a regression.

use fm_core::{
    ClusterRunner, EndpointConfig, HandlerId, NodeId, SwitchRunner, SwitchTopology, SwitchedCluster,
};
use fm_telemetry::Histogram;
use fm_testbed::scaling::{
    incast_config, live_incast, live_parallel_pairs, rounds_cross_pairs, LIVE_MSG_BYTES,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!("usage: bench_scaling [--smoke] [--out PATH]");
    std::process::exit(2);
}

/// Incast fairness floor at the highest K (the ROADMAP target).
const FAIRNESS_FLOOR: f64 = 0.8;
/// Required deterministic round-count speedup of 4 trunks over 1. The
/// flow hash spreads 8 flows [4,1,1,2] over 4 trunks, so the busiest
/// trunk carries half the single-trunk load: the exact speedup is 2.0,
/// and anything under 1.5 means trunk selection stopped spreading.
const TRUNK_SPEEDUP_FLOOR: f64 = 1.5;
/// Wall-clock monotonicity allowance per size step.
const MONOTONE_ALLOWANCE: f64 = 0.85;

struct SizePoint {
    n: usize,
    pairs: usize,
    aggregate_mbs: f64,
    fairness: f64,
    p50_us: f64,
    p99_us: f64,
    hops: usize,
}

struct IncastPoint {
    k: usize,
    peak_outstanding: usize,
    rejected: u64,
    total_mbs: f64,
    fairness: f64,
}

/// One-way latency percentiles for a pingpong between host 0 and the most
/// distant host of an `n`-endpoint switched cluster.
fn switched_pingpong(n: usize, warmup: u64, rounds: u64) -> (f64, f64, usize) {
    let topo = SwitchTopology::for_cluster_wide(n);
    let far = NodeId((n - 1) as u16);
    let hops = topo.hops(NodeId(0), far);
    let mut cluster = SwitchedCluster::new(&topo, EndpointConfig::default());
    cluster.endpoints[n - 1].register_handler_at(HandlerId(1), |out, src, data| {
        out.send_copy(src, HandlerId(2), data);
    });
    let echoes = Arc::new(AtomicU64::new(0));
    let e2 = echoes.clone();
    cluster.endpoints[0].register_handler_at(HandlerId(2), move |_, _, _| {
        e2.fetch_add(1, Ordering::Relaxed);
    });
    let (mut endpoints, shards) = cluster.split();
    let switches = SwitchRunner::start(shards);
    let mut ep0 = endpoints.remove(0);
    let others = ClusterRunner::start(endpoints);
    let payload = [0x5Au8; 16];
    let mut done = 0u64;
    let mut round = |ep0: &mut fm_core::MemEndpoint| {
        ep0.send(far, HandlerId(1), &payload);
        done += 1;
        while echoes.load(Ordering::Relaxed) < done {
            ep0.extract();
            std::thread::yield_now();
        }
    };
    for _ in 0..warmup {
        round(&mut ep0);
    }
    let rtts = Histogram::new();
    for _ in 0..rounds {
        let t = Instant::now();
        round(&mut ep0);
        rtts.record(t.elapsed().as_nanos() as u64);
    }
    for _ in 0..20 {
        ep0.extract();
        std::thread::yield_now();
    }
    others
        .shutdown(Duration::from_secs(10))
        .expect("endpoint threads join");
    switches
        .shutdown(Duration::from_secs(10))
        .expect("switch threads join");
    (
        rtts.quantile(0.50) as f64 / 2.0 / 1000.0,
        rtts.quantile(0.99) as f64 / 2.0 / 1000.0,
        hops,
    )
}

fn main() {
    let mut smoke = false;
    let mut out = String::from("BENCH_scaling.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    let sizes: &[usize] = if smoke {
        &[2, 4, 8]
    } else {
        &[2, 4, 8, 16, 32, 64]
    };
    // Best-of-3 per size on full runs: the monotone gate reads wall-clock
    // bandwidth on a possibly core-starved box, and single measurements
    // swing ±40% under scheduler noise (the committed n=8 "anomaly"
    // turned out to be exactly that). The max of three is a far more
    // stable estimator of what the fabric can actually carry.
    let reps = if smoke { 1 } else { 3 };
    let (pair_count, rounds, warmup) = if smoke {
        (600, 200, 30)
    } else {
        (3000, 500, 50)
    };
    let incast_ks: &[usize] = &[2, 4, 8, 15];
    let incast_msgs = if smoke { 150 } else { 600 };
    const TRUNK_FLOWS: usize = 8;
    let trunk_msgs = if smoke { 100 } else { 200 };

    eprintln!(
        "bench_scaling: sizes {sizes:?} (best of {reps}), {pair_count} msgs/pair, \
         incast K {incast_ks:?}"
    );

    let mut points = Vec::new();
    for &n in sizes {
        let pairs = n / 2;
        let bw = (0..reps)
            .map(|_| live_parallel_pairs(pairs, pair_count))
            .max_by(|a, b| a.total_mbs.total_cmp(&b.total_mbs))
            .expect("at least one rep");
        let (p50_us, p99_us, hops) = switched_pingpong(n, warmup, rounds);
        eprintln!(
            "  n={n:>2}: {:.1} MB/s aggregate over {pairs} pairs (fairness {:.3}), \
             p50 {p50_us:.1}us / p99 {p99_us:.1}us over {hops} hop(s)",
            bw.total_mbs, bw.fairness
        );
        points.push(SizePoint {
            n,
            pairs,
            aggregate_mbs: bw.total_mbs,
            fairness: bw.fairness,
            p50_us,
            p99_us,
            hops,
        });
    }

    let window = incast_config().window;
    let mut incasts = Vec::new();
    for &k in incast_ks {
        let r = live_incast(k, incast_msgs, incast_config());
        let peak = r.peak_outstanding.iter().copied().max().unwrap_or(0);
        eprintln!(
            "  incast k={k:>2}: peak reject-queue {peak}/{window}, {} bounces, \
             {:.1} MB/s, fairness {:.3}",
            r.rejected, r.total_mbs, r.fairness
        );
        incasts.push(IncastPoint {
            k,
            peak_outstanding: peak,
            rejected: r.rejected,
            total_mbs: r.total_mbs,
            fairness: r.fairness,
        });
    }

    let rounds_w1 = rounds_cross_pairs(TRUNK_FLOWS, 1, trunk_msgs);
    let rounds_w4 = rounds_cross_pairs(TRUNK_FLOWS, 4, trunk_msgs);
    let trunk_speedup = rounds_w1 as f64 / rounds_w4 as f64;
    eprintln!(
        "  trunks: {TRUNK_FLOWS} crossing flows, {rounds_w1} rounds over 1 trunk vs \
         {rounds_w4} over 4 ({trunk_speedup:.2}x)"
    );

    // Gates. Monotonicity gets a 15% wall-clock allowance per step on top
    // of best-of-3 — a genuine serialization bug (every pair through one
    // blocked port) costs far more than that. The reject-queue bound is
    // exact (a correctness property, not a timing one); "constant in K"
    // tolerates a quarter-window of spread; fairness and the trunk
    // speedup are deterministic drive-round measurements.
    let aggregate: Vec<f64> = points.iter().map(|p| p.aggregate_mbs).collect();
    let monotone_2_64 = aggregate
        .windows(2)
        .all(|w| w[1] >= MONOTONE_ALLOWANCE * w[0]);
    let reject_bounded = incasts.iter().all(|p| p.peak_outstanding <= window);
    let peaks: Vec<usize> = incasts.iter().map(|p| p.peak_outstanding).collect();
    let spread = peaks.iter().max().unwrap_or(&0) - peaks.iter().min().unwrap_or(&0);
    let reject_constant = spread <= window / 4;
    let fairness_k15 = incasts
        .iter()
        .max_by_key(|p| p.k)
        .map(|p| p.fairness)
        .unwrap_or(0.0);
    let fairness_ok = fairness_k15 >= FAIRNESS_FLOOR;
    let trunk_ok = trunk_speedup >= TRUNK_SPEEDUP_FLOOR;
    // Deterministic gates are enforced in every mode; the wall-clock
    // monotone gate only on full runs.
    let mut enforced_gates = vec![
        ("reject_bounded", reject_bounded),
        ("reject_constant", reject_constant),
        ("fairness_k15", fairness_ok),
        ("trunk_speedup", trunk_ok),
    ];
    if !smoke {
        enforced_gates.push(("monotone_2_64", monotone_2_64));
    }

    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\n",
            "  \"bench\": \"scaling_gate\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"msg_bytes\": {msg_bytes},\n",
            "  \"msgs_per_pair\": {pair_count},\n",
            "  \"reps\": {reps},\n",
            "  \"points\": [\n"
        ),
        smoke = smoke,
        msg_bytes = LIVE_MSG_BYTES,
        pair_count = pair_count,
        reps = reps,
    );
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"pairs\": {}, \"aggregate_mbs\": {:.2}, \"fairness\": {:.4}, \
             \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"hops\": {}}}{}",
            p.n,
            p.pairs,
            p.aggregate_mbs,
            p.fairness,
            p.p50_us,
            p.p99_us,
            p.hops,
            if i + 1 < points.len() { "," } else { "" },
        );
    }
    let _ = write!(
        json,
        concat!(
            "  ],\n",
            "  \"incast\": {{\n",
            "    \"window\": {window},\n",
            "    \"msgs_per_sender\": {msgs},\n",
            "    \"points\": [\n"
        ),
        window = window,
        msgs = incast_msgs,
    );
    for (i, p) in incasts.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"k\": {}, \"peak_outstanding\": {}, \"rejected\": {}, \
             \"total_mbs\": {:.2}, \"fairness\": {:.4}}}{}",
            p.k,
            p.peak_outstanding,
            p.rejected,
            p.total_mbs,
            p.fairness,
            if i + 1 < incasts.len() { "," } else { "" },
        );
    }
    let _ = write!(
        json,
        concat!(
            "    ]\n",
            "  }},\n",
            "  \"trunks\": {{\n",
            "    \"flows\": {flows},\n",
            "    \"msgs_per_flow\": {msgs},\n",
            "    \"rounds_width1\": {w1},\n",
            "    \"rounds_width4\": {w4},\n",
            "    \"speedup\": {speedup:.2}\n",
            "  }},\n",
            "  \"gate\": {{\n",
            "    \"monotone_2_64\": {monotone},\n",
            "    \"reject_bounded\": {bounded},\n",
            "    \"reject_constant\": {constant},\n",
            "    \"fairness_k15\": {fairness},\n",
            "    \"trunk_speedup\": {trunk},\n",
            "    \"enforced_gates\": [{names}]\n",
            "  }}\n",
            "}}\n"
        ),
        flows = TRUNK_FLOWS,
        msgs = trunk_msgs,
        w1 = rounds_w1,
        w4 = rounds_w4,
        speedup = trunk_speedup,
        monotone = monotone_2_64,
        bounded = reject_bounded,
        constant = reject_constant,
        fairness = fairness_ok,
        trunk = trunk_ok,
        names = enforced_gates
            .iter()
            .map(|(name, _)| format!("\"{name}\""))
            .collect::<Vec<_>>()
            .join(", "),
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("bench_scaling: cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("{json}");

    let mut failed = false;
    for &(name, ok) in &enforced_gates {
        if !ok {
            failed = true;
            match name {
                "monotone_2_64" => eprintln!(
                    "GATE FAIL: aggregate bandwidth not non-decreasing 2->64 \
                     (allowance {MONOTONE_ALLOWANCE}): {aggregate:?}"
                ),
                "reject_bounded" => {
                    eprintln!("GATE FAIL: reject-queue peak exceeded window {window}: {peaks:?}")
                }
                "reject_constant" => eprintln!(
                    "GATE FAIL: reject-queue peak varies with K (spread {spread} > {}): {peaks:?}",
                    window / 4
                ),
                "fairness_k15" => eprintln!(
                    "GATE FAIL: incast fairness {fairness_k15:.4} < {FAIRNESS_FLOOR} at K=15"
                ),
                "trunk_speedup" => eprintln!(
                    "GATE FAIL: 4-trunk speedup {trunk_speedup:.2} < {TRUNK_SPEEDUP_FLOOR} \
                     ({rounds_w1} vs {rounds_w4} rounds)"
                ),
                _ => eprintln!("GATE FAIL: {name}"),
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("bench_scaling: all enforced gates PASS");
}
