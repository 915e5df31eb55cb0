//! Switch-scale gate: pair throughput and tail latency vs cluster size,
//! incast fairness and reject-queue boundedness, and the multi-trunk
//! capacity win, on the live switched runtime.
//!
//! Runs clusters of 2→64 endpoints (`--smoke`: 2→8) through
//! `fm_core::SwitchedCluster` — real SPSC rings, frames store-and-forwarded
//! through switch shards wired as the fat-tree
//! `SwitchTopology::for_cluster_wide`, driven in deterministic rounds for
//! the counted columns and by real threads for the wall-clock ones — and
//! emits
//! `BENCH_scaling.json` with four sections:
//!
//! * `points`  — per cluster size: delivered messages per drive round for
//!   the disjoint pairs (`fm_testbed::scaling::rounds_pairs`), their
//!   threaded aggregate bandwidth (wall clock, best of three runs),
//!   pingpong p50/p99 one-way latency between the two most distant hosts,
//!   and the hop count between them;
//! * `incast`  — per sender count K: every sender's peak reject-queue
//!   occupancy while overloading one receiver, receiver bounces, and
//!   Jain-fairness over per-sender completion rates (deterministic:
//!   single-threaded drive);
//! * `trunks`  — deterministic drive-round counts for 8 all-crossing
//!   flows over 1 vs 4 parallel trunks, and the resulting speedup;
//! * `gate`    — the assertions, every one counted in drive rounds and
//!   enforced in both modes: pair throughput doubling with the pair count,
//!   reject bounds, incast bounces and fairness, trunk speedup. The
//!   wall-clock columns are reported, never gated: 64 endpoint threads
//!   plus shards on a two-core host cannot keep aggregate bandwidth flat.

use fm_bench::report::{gate_section, Args, Gate, Report};
use fm_core::{
    ClusterRunner, EndpointConfig, HandlerId, NodeId, SwitchRunner, SwitchTopology, SwitchedCluster,
};
use fm_telemetry::Histogram;
use fm_testbed::scaling::{
    incast_config, live_incast, live_parallel_pairs, rounds_cross_pairs, rounds_pairs,
    LIVE_MSG_BYTES,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Incast fairness floor at the highest K (the ROADMAP target).
const FAIRNESS_FLOOR: f64 = 0.8;
/// Required deterministic round-count speedup of 4 trunks over 1. The
/// flow hash spreads 8 flows `[4, 1, 1, 2]` over 4 trunks, so the busiest
/// trunk carries half the single-trunk load: the exact speedup is 2.0,
/// and anything under 1.5 means trunk selection stopped spreading.
const TRUNK_SPEEDUP_FLOOR: f64 = 1.5;
/// Required growth of delivered messages per drive round when the pair
/// count doubles. Neighbour pairs share no port, so the measured curve
/// doubles exactly at every step from 2 to 64 endpoints (same round count
/// at every size); a fabric that serialized pairs would fall toward 1. The
/// pairs stay inside one leaf switch, so this gates a shard serving its
/// inputs side by side, not trunk capacity: a shard serving one input per
/// pump reads 1.00.
const PAIR_STEP_FLOOR: f64 = 1.9;

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
    let args = Args::parse("BENCH_scaling.json", &[]);
    let smoke = args.smoke;
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
    let reps: u32 = if smoke { 1 } else { 3 };
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
    let mut rates = Vec::new();
    for &n in sizes {
        let pairs = n / 2;
        let counted = rounds_pairs(n, pair_count);
        let rate = counted.delivered as f64 / counted.rounds as f64;
        let bw = (0..reps)
            .map(|_| live_parallel_pairs(pairs, pair_count))
            .max_by(|a, b| a.total_mbs.total_cmp(&b.total_mbs))
            .expect("at least one rep");
        let (p50_us, p99_us, hops) = switched_pingpong(n, warmup, rounds);
        println!(
            "  n={n:>2}: {rate:.1} msgs/round over {pairs} pairs; threaded {:.1} MB/s \
             (fairness {:.3}), p50 {p50_us:.1}us / p99 {p99_us:.1}us over {hops} hop(s)",
            bw.total_mbs, bw.fairness
        );
        rates.push(rate);
        points.push(
            Report::new()
                .set("n", n)
                .set("pairs", pairs)
                .num("msgs_per_round", rate, 2)
                .num("aggregate_mbs", bw.total_mbs, 2)
                .num("fairness", bw.fairness, 4)
                .num("p50_us", p50_us, 2)
                .num("p99_us", p99_us, 2)
                .set("hops", hops),
        );
    }

    let window = incast_config().window;
    let mut incasts = Vec::new();
    let (mut peaks, mut min_rejected, mut fairness_top_k) = (Vec::new(), u64::MAX, 0.0);
    for &k in incast_ks {
        let (r, mbs) = live_incast(k, incast_msgs, incast_config());
        let peak = r.peaks.outstanding;
        println!(
            "  incast k={k:>2}: peak reject-queue {peak}/{window}, {} bounces, \
             {:.1} MB/s, fairness {:.3}",
            r.rejected, mbs, r.fairness
        );
        peaks.push(peak);
        min_rejected = min_rejected.min(r.rejected);
        fairness_top_k = r.fairness; // ks ascend: the last is the highest K
        incasts.push(
            Report::new()
                .set("k", k)
                .set("peak_outstanding", peak)
                .set("rejected", r.rejected)
                .num("total_mbs", mbs, 2)
                .num("fairness", r.fairness, 4),
        );
    }

    let rounds_w1 = rounds_cross_pairs(TRUNK_FLOWS, 1, trunk_msgs);
    let rounds_w4 = rounds_cross_pairs(TRUNK_FLOWS, 4, trunk_msgs);
    let trunk_speedup = rounds_w1 as f64 / rounds_w4 as f64;
    println!(
        "  trunks: {TRUNK_FLOWS} crossing flows, {rounds_w1} rounds over 1 trunk vs \
         {rounds_w4} over 4 ({trunk_speedup:.2}x)"
    );

    // The reject-queue bound is exact; "constant in K" tolerates a
    // quarter-window of spread. Everything here is counted in drive rounds.
    let worst_step = rates
        .windows(2)
        .map(|w| w[1] / w[0])
        .fold(f64::INFINITY, f64::min);
    let peak_max = peaks.iter().copied().max().unwrap_or(0);
    let spread = peak_max - peaks.iter().copied().min().unwrap_or(0);
    let gates = [
        Gate::at_least("monotone_2_64", worst_step, PAIR_STEP_FLOOR),
        Gate::at_most("reject_bounded", peak_max as f64, window as f64),
        Gate::at_most("reject_constant", spread as f64, (window / 4) as f64),
        Gate::at_least("fairness_k15", fairness_top_k, FAIRNESS_FLOOR),
        Gate::at_least("trunk_speedup", trunk_speedup, TRUNK_SPEEDUP_FLOOR),
        // An incast that never bounces is not exercising the reject path.
        Gate::at_least("incast_bounces", min_rejected as f64, 1.0),
    ];

    Report::new()
        .set("bench", "scaling_gate")
        .set("smoke", smoke)
        .set("msg_bytes", LIVE_MSG_BYTES)
        .set("msgs_per_pair", pair_count)
        .set("reps", reps)
        .set("points", points)
        .set(
            "incast",
            Report::new()
                .set("window", window)
                .set("msgs_per_sender", incast_msgs)
                .set("points", incasts),
        )
        .set(
            "trunks",
            Report::new()
                .set("flows", TRUNK_FLOWS)
                .set("msgs_per_flow", trunk_msgs)
                .set("rounds_width1", rounds_w1)
                .set("rounds_width4", rounds_w4)
                .num("speedup", trunk_speedup, 2),
        )
        .set("gate", gate_section(&gates))
        .finish(&args.out, &gates)
}
