//! The scale campaign on the shipped engine, written to `BENCH_sim.json`.
//!
//! Runs `fm_testbed::campaign`'s five scenarios — incast, uniform pairs,
//! binomial broadcast, churn, overload — as round-driven runs of real
//! `SwitchedCluster`s: the shipped `EndpointCore`, `SwitchShard` DRR and
//! fat-tree route tables, at 64 / 1 024 / 4 096 endpoints (`--smoke`:
//! 64 / 1 024; `--ladder 64,256` picks the sizes). Time is counted in
//! drive rounds, so every number in the file is a pure function of
//! (ladder, seed); wall time and peak RSS go to stderr only.
//!
//! Gates, all read from the engine's own counters and enforced in both
//! modes:
//!
//! * `exactly_once` — every message delivered once, in per-flow order, and
//!   churn's per-epoch accounting: all messages to live partners delivered,
//!   the rest equal to the senders' own `unreachable_drops`;
//! * `dup_noise` — suppressed duplicates ≤ 10 % of the messages;
//! * `window_bounded` — no sender's reject queue past its window (paper
//!   §4.5: memory grows with outstanding frames, not cluster size);
//! * `ring_bounded` — the throttled receiver's ring never past its depth;
//! * `pull_bounded` — no sampled shard poll past the batch ceiling;
//! * `switch_state` — frames parked in shard stashes ≤ switches × ports;
//! * `fairness` — Jain ≥ 0.8 over completion rates for uniform pairs at
//!   every size, and for incast up to fan-in 64 (the 1 023 → 1 incast is
//!   reported, not gated);
//! * `collective_depth` — the highest round a broadcast frame carried is
//!   ⌈log₂ n⌉;
//! * `churn` — every down partner declared dead, within
//!   `campaign::detect_bound` rounds, and every participant quiescent
//!   (reorder buffers empty) after the final revival;
//! * `deterministic` — uniform pairing and churn casualties, both drawn
//!   from the seed, re-run to the same digests.

use fm_bench::report::{gate_section, Args, Gate, Report};
use fm_core::{SwitchConfig, SwitchTopology};
use fm_testbed::campaign::{
    broadcast, churn, churn_config, incast, uniform, ChurnReport, LoadReport,
};
use fm_testbed::scaling::incast_config;
use std::time::Instant;

const SEED: u64 = 42;
const FAIRNESS_FLOOR: f64 = 0.8;
/// Messages per sender in the incast and overload scenarios.
const INCAST_MSGS: usize = 20;
/// Messages each way per uniform pair.
const UNIFORM_MSGS: usize = 8;
/// Churn shape: epochs of partner traffic, messages each way per epoch.
const CHURN_EPOCHS: u32 = 3;
const CHURN_MSGS: usize = 3;

/// Incast fan-in: the live calibration shape (15 → 1) up to 64 endpoints,
/// 1 023 → 1 beyond.
fn incast_k(n: usize) -> usize {
    (n - 1).min(if n <= 64 { 15 } else { 1023 })
}

/// Churn participants: everyone up to 256 endpoints, the first 256 beyond.
/// A participant's per-peer vectors run to its partner's id, so a round
/// costs O(participants²): 256 of 1 024 take 2.8 s, all 1 024 take 19 s.
fn churn_participants(n: usize) -> usize {
    n.min(256) & !1
}

/// ⌈log₂ n⌉, the depth a binomial broadcast over n ranks must take.
fn ceil_log2(n: usize) -> u32 {
    usize::BITS - (n - 1).leading_zeros()
}

struct SizeRun {
    n: usize,
    switches: usize,
    ports: usize,
    incast: LoadReport,
    uniform: LoadReport,
    broadcast: LoadReport,
    churn: ChurnReport,
}

/// Print one scenario's wall time and return its result.
fn timed<T>(label: String, run: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = run();
    eprintln!("  {label}: {:.1}s", t.elapsed().as_secs_f64());
    r
}

fn run_size(n: usize) -> SizeRun {
    let topo = SwitchTopology::for_cluster_wide(n);
    let k = incast_k(n);
    let cp = churn_participants(n);
    SizeRun {
        n,
        switches: topo.switches(),
        ports: topo.ports(),
        incast: timed(format!("n={n} incast {k}->1"), || {
            incast(n, k, INCAST_MSGS, 1)
        }),
        uniform: timed(format!("n={n} uniform"), || uniform(n, UNIFORM_MSGS, SEED)),
        broadcast: timed(format!("n={n} broadcast"), || broadcast(n)),
        churn: timed(format!("n={n} churn over {cp}"), || {
            churn(n, cp, CHURN_EPOCHS, CHURN_MSGS, SEED)
        }),
    }
}

fn load_json(r: &LoadReport) -> Report {
    Report::new()
        .set("msgs", r.msgs)
        .set("delivered", r.delivered)
        .set("dups", r.dups)
        .set("rejected", r.rejected)
        .num(
            "rejects_per_delivered",
            r.rejected as f64 / r.delivered as f64,
            4,
        )
        .set("timed_out", r.timed_out)
        .set("rounds", r.rounds)
        .num("fairness", r.fairness, 4)
        .set("p50_rounds", r.p50_rounds)
        .set("p99_rounds", r.p99_rounds)
        .set("peak_outstanding", r.peaks.outstanding)
        .set("peak_ring", r.peaks.ring)
        .set("peak_pull", r.peaks.pull)
        .set("peak_stash", r.peaks.stash)
        .set("digest", hex(r.digest))
}

fn churn_json(r: &ChurnReport) -> Report {
    Report::new()
        .set("participants", r.participants)
        .set("epochs", r.epochs)
        .set("enqueued", r.enqueued)
        .set("delivered", r.delivered)
        .set("abandoned", r.abandoned)
        .set("late", r.late)
        .set("dups", r.dups)
        .set("dead_detections", r.dead_detections)
        .set("expected_detections", r.expected_detections)
        .set("max_detect_rounds", r.max_detect_rounds)
        .set("detect_bound", r.detect_bound)
        .set("quiescent", r.quiescent)
        .set("rounds", r.rounds)
        .set("digest", hex(r.digest))
}

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// This process's peak resident set, from `/proc` (0 where there is none).
fn peak_rss_mib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    kib.and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .map_or(0, |kib: u64| kib / 1024)
}

fn main() {
    let args = Args::parse("BENCH_sim.json", &["--ladder"]);
    let smoke = args.smoke;
    let ladder: Vec<usize> = match args.get("--ladder") {
        Some(spec) => spec
            .split(',')
            .map(|s| s.trim().parse())
            .collect::<Result<_, _>>()
            .ok()
            .filter(|l: &Vec<usize>| l.iter().all(|&n| (4..=u16::MAX as usize).contains(&n)))
            .unwrap_or_else(|| args.fail("--ladder takes sizes from 4 up, like 64,256")),
        None if smoke => vec![64, 1024],
        None => vec![64, 1024, 4096],
    };
    eprintln!("bench_sim: ladder {ladder:?}");
    let wall = Instant::now();
    let runs: Vec<SizeRun> = ladder.iter().map(|&n| run_size(n)).collect();
    // Overload: the 64-endpoint incast's receiver extracts one round in 8.
    let over = timed("overload n=64 15->1".into(), || {
        incast(64, 15, INCAST_MSGS, 8)
    });

    // Determinism: re-run the two scenarios that draw from the seed.
    let top = runs.last().expect("ladder is non-empty");
    let uni2 = timed(format!("re-run n={} uniform", top.n), || {
        uniform(top.n, UNIFORM_MSGS, SEED)
    });
    let first = &runs[0];
    let cp = churn_participants(first.n);
    let churn2 = timed(format!("re-run n={} churn", first.n), || {
        churn(first.n, cp, CHURN_EPOCHS, CHURN_MSGS, SEED)
    });
    let deterministic = uni2.digest == top.uniform.digest && churn2.digest == first.churn.digest;
    eprintln!(
        "bench_sim: campaign done in {:.1}s, peak RSS {} MiB",
        wall.elapsed().as_secs_f64(),
        peak_rss_mib()
    );

    let config = incast_config();
    let max_batch = SwitchConfig::default().max_batch as u64;
    let loads = || {
        runs.iter()
            .flat_map(|r| [&r.incast, &r.uniform])
            .chain([&over])
    };
    let exactly_once = loads().all(|r| r.delivered == r.msgs && r.violations == 0)
        && runs.iter().all(|r| {
            r.broadcast.delivered + 1 == r.n as u64
                && r.broadcast.violations == 0
                && r.churn.violations == 0
                && r.churn.accounting_ok
        });
    let dup_noise = loads().all(|r| r.dups <= r.msgs / 10)
        && runs.iter().all(|r| r.churn.dups <= r.churn.enqueued / 10);
    let window_bounded = loads().all(|r| r.peaks.outstanding <= config.window);
    let ring_bounded = runs
        .iter()
        .map(|r| &r.incast)
        .chain([&over])
        .all(|r| r.peaks.ring <= config.recv_ring);
    let pull_bounded = loads().all(|r| r.peaks.pull <= max_batch);
    let switch_state = runs.iter().all(|r| {
        [&r.incast, &r.uniform]
            .iter()
            .all(|l| l.peaks.stash <= r.switches * r.ports)
    });
    let fairness = runs.iter().all(|r| {
        r.uniform.fairness >= FAIRNESS_FLOOR
            && (incast_k(r.n) > 64 || r.incast.fairness >= FAIRNESS_FLOOR)
    });
    let collective_depth = runs.iter().all(|r| r.broadcast.depth == ceil_log2(r.n));
    let churn_ok = runs.iter().all(|r| {
        let c = &r.churn;
        c.dead_detections > 0
            && c.dead_detections == c.expected_detections
            && c.max_detect_rounds <= c.detect_bound
            && c.quiescent
    });
    let gates = [
        Gate::holds("exactly_once", exactly_once),
        Gate::holds("dup_noise", dup_noise),
        Gate::holds("window_bounded", window_bounded),
        Gate::holds("ring_bounded", ring_bounded),
        Gate::holds("pull_bounded", pull_bounded),
        Gate::holds("switch_state", switch_state),
        Gate::holds("fairness", fairness),
        Gate::holds("collective_depth", collective_depth),
        Gate::holds("churn", churn_ok),
        Gate::holds("deterministic", deterministic),
    ];

    let sizes: Vec<Report> = runs
        .iter()
        .map(|r| {
            Report::new()
                .set("n", r.n)
                .set("switches", r.switches)
                .set("ports", r.ports)
                .set("incast_k", incast_k(r.n))
                .set("incast", load_json(&r.incast))
                .set("uniform", load_json(&r.uniform))
                .set(
                    "broadcast",
                    Report::new()
                        .set("depth", r.broadcast.depth)
                        .set("expected_depth", ceil_log2(r.n))
                        .set("reached", r.broadcast.delivered)
                        .set("rounds", r.broadcast.rounds)
                        .set("digest", hex(r.broadcast.digest)),
                )
                .set("churn", churn_json(&r.churn))
        })
        .collect();
    let churn_cfg = churn_config();
    Report::new()
        .set("mode", if smoke { "smoke" } else { "full" })
        .set("seed", SEED)
        .set(
            "config",
            Report::new()
                .set("window", config.window)
                .set("recv_ring", config.recv_ring)
                .set("retransmit_per_extract", config.retransmit_per_extract)
                .set("max_batch", max_batch)
                .set("msg_bytes", fm_testbed::scaling::LIVE_MSG_BYTES)
                .set("incast_msgs", INCAST_MSGS)
                .set("uniform_msgs", UNIFORM_MSGS)
                .set("churn_rto", vec![churn_cfg.rto_initial, churn_cfg.rto_max])
                .set("churn_retry_budget", churn_cfg.retry_budget),
        )
        .set("sizes", sizes)
        .set("overload", load_json(&over))
        .set(
            "determinism",
            Report::new()
                .set("uniform_n", top.n)
                .set("uniform_digest", hex(top.uniform.digest))
                .set("uniform_digest_rerun", hex(uni2.digest))
                .set("churn_n", first.n)
                .set("churn_digest", hex(first.churn.digest))
                .set("churn_digest_rerun", hex(churn2.digest))
                .set("bit_identical", deterministic),
        )
        .set("gate", gate_section(&gates))
        .finish(&args.out, &gates)
}
