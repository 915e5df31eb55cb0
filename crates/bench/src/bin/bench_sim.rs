//! Million-endpoint DES campaign over the calibrated cluster simulator.
//!
//! Runs the `fm-sim` scenario suite — incast, uniform pairs, binomial
//! broadcast, join/leave/revive churn, sustained overload — up a ladder
//! of fabric sizes: live-table fat-trees at calibration scale (64
//! endpoints, the exact `SwitchTopology` the threaded runtime runs), then
//! computed Clos fat-trees at 1k / 10k / 100k / 1M endpoints. Per-event
//! costs come from `fm_core::CostModel::CALIBRATED`, derived from the
//! committed live measurements in `BENCH_scaling.json`; the envelope in
//! which that model is trusted is pinned by `crates/sim/tests/sim_vs_live.rs`.
//!
//! Emits `BENCH_sim.json`. Every number in the file is a pure function of
//! (ladder, parameters, seed): wall-clock timings go to stderr only, so
//! the same seed produces a bit-identical file — the `determinism`
//! section proves it by re-running the largest size and comparing event
//! digests.
//!
//! Gates (all deterministic, enforced in both modes — protocol
//! properties, not timing measurements):
//!
//! * `exactly_once`      — every message delivered fresh exactly once at
//!   every size and load shape (duplicate transmissions happen under
//!   congestion and must all be suppressed by receiver sequencing);
//! * `dup_noise`         — suppressed duplicates stay ≤ 10% of traffic
//!   (spurious-RTO noise is marginal, not a delivery strategy);
//! * `window_bounded`    — peak sender reject-queue occupancy never
//!   exceeds the window (paper §4.5: memory grows with outstanding,
//!   not cluster size);
//! * `ring_bounded`      — peak receive-ring occupancy ≤ ring depth;
//! * `pull_bounded`      — peak DRR pull ≤ the configured batch;
//! * `switch_state`      — materialized input-port queues stay
//!   O(switches × ports);
//! * `routing_state`     — routing bytes stay O(switches × ports):
//!   measured tables at calibration sizes, O(1) computed routing beyond;
//! * `fairness`          — Jain ≥ 0.8 over per-flow completion rates for
//!   uniform pairs at every size, and for incast at the fan-ins the live
//!   runtime validated (k ≤ 64; at 1024-to-1 port-level DRR is not
//!   flow-level fairness — reported, not gated);
//! * `collective_depth`  — binomial broadcast depth == ⌈log₂ n⌉ up to 1M;
//! * `churn`             — dead peers detected within the retry budget,
//!   per-peer state bounded after leave (the per-epoch exactly-once
//!   identity is asserted inside the scenario itself);
//! * `deterministic`     — same seed, same digests, run twice.
//!
//! `--smoke` caps the ladder at 8192 endpoints for CI; the full ladder
//! tops out at 1,024,000 (Clos k=160).

use fm_bench::report::{gate_section, Args, Gate, Report};
use fm_sim::{
    churn, collective, incast, overload, uniform, ChurnReport, CollectiveReport, LoadReport,
    SimConfig, TABLES_MAX_HOSTS,
};
use std::time::Instant;

const SEED: u64 = 42;
const FAIRNESS_FLOOR: f64 = 0.8;
/// Messages per sender in the incast/overload scenarios (live incast
/// sends 25 per sender; 20 keeps the 1M ladder step square).
const INCAST_MSGS: u64 = 20;
/// Churn shape: epochs of paired traffic with ~10% of participants down.
const CHURN_EPOCHS: u32 = 3;
const CHURN_MSGS: u64 = 3;

/// Fan-in of the incast scenario: the live calibration shape (15 → 1)
/// at table sizes, a 1024-way storm on the big fabrics.
fn incast_k(n: u64) -> u64 {
    if n <= TABLES_MAX_HOSTS {
        (n - 1).min(15)
    } else {
        (n - 1).min(1024)
    }
}

/// Messages per direction per pair under uniform load, scaled down as the
/// fabric grows so the event count stays near-linear in endpoints.
fn uniform_count(n: u64) -> u64 {
    if n <= 1024 {
        8
    } else if n <= 20_000 {
        4
    } else {
        2
    }
}

/// Churn participants: everyone on small fabrics, a 10k-endpoint cohort
/// on the big ones (even, for partner pairing).
fn churn_participants(n: u64) -> u64 {
    let p = n.min(10_000);
    p & !1
}

struct SizeRun {
    requested: u64,
    n: u64,
    fabric: String,
    switches: u64,
    ports: u64,
    routing_bytes: u64,
    incast_k: u64,
    incast: LoadReport,
    uniform_count: u64,
    uniform: LoadReport,
    collective: CollectiveReport,
    churn_participants: u64,
    churn: ChurnReport,
}

fn run_size(requested: u64, config: SimConfig) -> SizeRun {
    let probe = fm_sim::SimFabric::for_endpoints(requested);
    let (n, fabric, switches, ports, routing_bytes) = (
        probe.hosts(),
        probe.label(),
        probe.switches(),
        probe.ports(),
        probe.routing_state_bytes(),
    );
    drop(probe);

    let k = incast_k(n);
    let t = Instant::now();
    let inc = incast(n, k, INCAST_MSGS, config, SEED);
    eprintln!(
        "  n={n} incast k={k}: {} delivered, {} rejected, fairness {:.4}, {} events, {:.1}s",
        inc.delivered,
        inc.rejected,
        inc.fairness,
        inc.events,
        t.elapsed().as_secs_f64()
    );

    let uc = uniform_count(n);
    let t = Instant::now();
    let uni = uniform(n, uc, config, SEED);
    eprintln!(
        "  n={n} uniform count={uc}: {} delivered, fairness {:.4}, {:.1} MB/s agg, {} events, {:.1}s",
        uni.delivered,
        uni.fairness,
        uni.mbs,
        uni.events,
        t.elapsed().as_secs_f64()
    );

    let t = Instant::now();
    let coll = collective(n, config, SEED);
    eprintln!(
        "  n={n} collective: depth {} (expect {}), span {} ns, {} events, {:.1}s",
        coll.depth,
        coll.expected_depth,
        coll.span_ns,
        coll.events,
        t.elapsed().as_secs_f64()
    );

    let cp = churn_participants(n);
    let t = Instant::now();
    let ch = churn(n, cp, CHURN_EPOCHS, CHURN_MSGS, config, SEED);
    eprintln!(
        "  n={n} churn participants={cp}: {} delivered, {} dead detections (max miss {}), {} events, {:.1}s",
        ch.delivered,
        ch.dead_detections,
        ch.max_detect_miss,
        ch.events,
        t.elapsed().as_secs_f64()
    );

    SizeRun {
        requested,
        n,
        fabric,
        switches,
        ports,
        routing_bytes,
        incast_k: k,
        incast: inc,
        uniform_count: uc,
        uniform: uni,
        collective: coll,
        churn_participants: cp,
        churn: ch,
    }
}

fn load_json(r: &LoadReport) -> Report {
    Report::new()
        .set("flows", r.flows)
        .set("msgs", r.msgs)
        .set("delivered", r.delivered)
        .set("dups", r.dups)
        .set("rejected", r.rejected)
        .set("dead_detections", r.dead_detections)
        .set("sim_ns", r.sim_ns)
        .num("mbs", r.mbs, 2)
        .num("fairness", r.fairness, 4)
        .set("p50_ns", r.p50_ns)
        .set("p99_ns", r.p99_ns)
        .set("events", r.events)
        .set("peak_outstanding", r.peaks.outstanding)
        .set("peak_ring", r.peaks.ring)
        .set("peak_pull", r.peaks.pull)
        .set("switch_port_entries", r.peaks.switch_port_entries)
        .set("digest", hex(r.digest))
}

fn churn_json(r: &ChurnReport) -> Report {
    Report::new()
        .set("participants", r.participants)
        .set("epochs", r.epochs)
        .set("enqueued", r.enqueued)
        .set("delivered", r.delivered)
        .set("dups", r.dups)
        .set("failed_sends", r.failed_sends)
        .set("abandoned", r.abandoned)
        .set("dead_detections", r.dead_detections)
        .set("max_detect_miss", r.max_detect_miss)
        .set("max_peer_state", r.max_peer_state)
        .set("sim_ns", r.sim_ns)
        .set("events", r.events)
        .set("digest", hex(r.digest))
}

fn collective_json(r: &CollectiveReport) -> Report {
    Report::new()
        .set("depth", r.depth)
        .set("expected_depth", r.expected_depth)
        .set("delivered", r.delivered)
        .set("span_ns", r.span_ns)
        .set("events", r.events)
        .set("digest", hex(r.digest))
}

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

fn main() {
    let args = Args::parse("BENCH_sim.json", &["--ladder"]);
    let smoke = args.smoke;
    let config = SimConfig::default();
    config.check();
    let ladder: Vec<u64> = match args.get("--ladder") {
        Some(spec) => spec
            .split(',')
            .map(|s| s.trim().parse())
            .collect::<Result<_, _>>()
            .unwrap_or_else(|_| args.fail("--ladder takes sizes like 64,4096")),
        None if smoke => vec![64, 1_000, 8_000],
        None => vec![64, 1_000, 10_000, 100_000, 1_000_000],
    };

    eprintln!(
        "bench_sim: {} campaign, ladder {:?}",
        if smoke { "smoke" } else { "full" },
        ladder
    );
    let wall = Instant::now();
    let runs: Vec<SizeRun> = ladder.iter().map(|&req| run_size(req, config)).collect();

    // Sustained overload at calibration scale: receiver 8× slower than
    // the model says, so the reject path carries the load.
    let over = overload(64, 15, INCAST_MSGS, config, SEED + 1);
    eprintln!(
        "  overload n=64 k=15: {} delivered, {} rejected, peak window {}",
        over.delivered, over.rejected, over.peaks.outstanding
    );

    // Determinism: re-run the top of the ladder with the same seed; every
    // digest must come back bit-identical.
    let top = runs.last().expect("ladder is non-empty");
    let t = Instant::now();
    let inc2 = incast(top.n, top.incast_k, INCAST_MSGS, config, SEED);
    let ch2 = churn(
        top.n,
        top.churn_participants,
        CHURN_EPOCHS,
        CHURN_MSGS,
        config,
        SEED,
    );
    let deterministic = inc2.digest == top.incast.digest && ch2.digest == top.churn.digest;
    eprintln!(
        "  determinism re-run at n={}: {} ({:.1}s)",
        top.n,
        if deterministic {
            "bit-identical"
        } else {
            "DIVERGED"
        },
        t.elapsed().as_secs_f64()
    );
    eprintln!(
        "bench_sim: campaign done in {:.1}s",
        wall.elapsed().as_secs_f64()
    );

    // ---------------------------------------------------------------- gates
    // Exactly-once *delivery*: every enqueued message delivered fresh
    // exactly once. Duplicate transmissions do happen at scale — switch
    // queueing outlasts the fixed initial RTO, exactly as on a real
    // congested fabric — and the receiver's sequence tracking must
    // suppress all of them (`dups` counts suppressed copies, never
    // double-deliveries). A separate gate keeps that retransmit noise
    // marginal.
    let exactly_once = runs.iter().all(|r| {
        r.incast.delivered == r.incast.msgs
            && r.uniform.delivered == r.uniform.msgs
            && r.collective.delivered == r.n - 1
    }) && over.delivered == over.msgs;
    let dup_noise = runs.iter().all(|r| {
        r.incast.dups <= r.incast.msgs / 10
            && r.uniform.dups <= r.uniform.msgs / 10
            && r.churn.dups <= r.churn.enqueued / 10
    }) && over.dups <= over.msgs / 10;
    let window = config.window;
    let window_bounded = runs
        .iter()
        .flat_map(|r| [r.incast.peaks.outstanding, r.uniform.peaks.outstanding])
        .chain([over.peaks.outstanding])
        .all(|p| p <= window);
    let ring_bounded = runs
        .iter()
        .flat_map(|r| [r.incast.peaks.ring, r.uniform.peaks.ring])
        .chain([over.peaks.ring])
        .all(|p| p <= config.recv_ring);
    let pull_bounded = runs
        .iter()
        .flat_map(|r| [r.incast.peaks.pull, r.uniform.peaks.pull])
        .chain([over.peaks.pull])
        .all(|p| p <= config.drr_batch);
    let switch_state = runs.iter().all(|r| {
        [
            r.incast.peaks.switch_port_entries,
            r.uniform.peaks.switch_port_entries,
        ]
        .iter()
        .all(|&e| e <= 4 * r.switches * r.ports)
    });
    let routing_state = runs
        .iter()
        .all(|r| r.routing_bytes <= 128 * r.switches * r.ports);
    // Uniform-load fairness gates at every size. Incast fairness gates
    // only at the fan-ins the live runtime validated (k ≤ 64): at
    // 1024-to-1 the fabric's port-level DRR — faithfully mirroring the
    // live shards — hands same-edge senders a private input port while
    // hundreds of remote senders multiplex a few agg uplink ports, so
    // completion-rate Jain drops to ~0.4–0.65 by topology, not by a
    // protocol bug. The campaign reports it rather than gating it; see
    // EXPERIMENTS.md for the discussion.
    let fairness = runs.iter().all(|r| {
        r.uniform.fairness >= FAIRNESS_FLOOR
            && (r.incast_k > 64 || r.incast.fairness >= FAIRNESS_FLOOR)
    });
    let collective_depth = runs
        .iter()
        .all(|r| r.collective.depth == r.collective.expected_depth);
    let churn_ok = runs.iter().all(|r| {
        r.churn.dead_detections > 0
            && r.churn.max_detect_miss <= config.retry_budget + 1
            && r.churn.max_peer_state <= 4
    });
    let gates = [
        Gate::holds("exactly_once", exactly_once),
        Gate::holds("dup_noise", dup_noise),
        Gate::holds("window_bounded", window_bounded),
        Gate::holds("ring_bounded", ring_bounded),
        Gate::holds("pull_bounded", pull_bounded),
        Gate::holds("switch_state", switch_state),
        Gate::holds("routing_state", routing_state),
        Gate::holds("fairness", fairness),
        Gate::holds("collective_depth", collective_depth),
        Gate::holds("churn", churn_ok),
        Gate::holds("deterministic", deterministic),
    ];

    // ----------------------------------------------------------------- json
    let cost = config.cost;
    let sizes: Vec<Report> = runs
        .iter()
        .map(|r| {
            Report::new()
                .set("requested", r.requested)
                .set("n", r.n)
                .set("fabric", r.fabric.as_str())
                .set("switches", r.switches)
                .set("ports", r.ports)
                .set("routing_bytes", r.routing_bytes)
                .set("incast_k", r.incast_k)
                .set("incast", load_json(&r.incast))
                .set("uniform_count", r.uniform_count)
                .set("uniform", load_json(&r.uniform))
                .set("collective", collective_json(&r.collective))
                .set("churn", churn_json(&r.churn))
        })
        .collect();
    Report::new()
        .set("mode", if smoke { "smoke" } else { "full" })
        .set("seed", SEED)
        .set(
            "cost_model",
            Report::new()
                .set("host_frame_ps", cost.host_frame_ps)
                .set("shard_frame_ps", cost.shard_frame_ps)
                .set("link_hop_ps", cost.link_hop_ps)
                .set("ack_reverse_ps", cost.ack_reverse_ps)
                .set("bounce_reverse_ps", cost.bounce_reverse_ps)
                .set("rto_initial_ps", cost.rto_initial_ps)
                .set("rto_max_ps", cost.rto_max_ps),
        )
        .set(
            "config",
            Report::new()
                .set("window", config.window)
                .set("recv_ring", config.recv_ring)
                .set("drr_batch", config.drr_batch)
                .set("retry_budget", config.retry_budget)
                .set("msg_bytes", config.msg_bytes),
        )
        .set("sizes", sizes)
        .set("overload", load_json(&over))
        .set(
            "determinism",
            Report::new()
                .set("n", top.n)
                .set("incast_digest", hex(top.incast.digest))
                .set("incast_digest_rerun", hex(inc2.digest))
                .set("churn_digest", hex(top.churn.digest))
                .set("churn_digest_rerun", hex(ch2.digest))
                .set("bit_identical", deterministic),
        )
        .set("gate", gate_section(&gates))
        .finish(&args.out, &gates)
}
