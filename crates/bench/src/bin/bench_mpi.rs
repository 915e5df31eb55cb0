//! Collective-latency gate for fm-mpi's topology-aware collectives:
//! writes `BENCH_mpi.json`.
//!
//! For each cluster size (4 … 64 ranks on the fat-tree wiring) the bench
//! runs barrier and allreduce twice — once with the spanning-tree
//! algorithms the communicator picks on switched wirings, once with the
//! naive all-to-root `*_linear` baselines — and reads the switch shards'
//! per-port forwarding counters back out of the fabric afterwards.
//!
//! The reported latency unit is **frames crossing the busiest link per
//! operation**. On a serialization-bound network (the paper's regime —
//! and the only timing-stable unit on a single-CPU CI host, where
//! wall-clock measures the thread scheduler instead of the network) the
//! busiest link *is* the latency bound: every frame on it is serialized.
//! Linear fan-in piles `O(n)` frames onto the root's host link; the
//! spanning tree keeps every link's load bounded by its fan-out, so the
//! busiest link carries `O(log n)`-ish traffic. Wall-clock per op is
//! recorded alongside for reference, unenforced.
//!
//! Gates (always enforced; frame counts are deterministic, so `--smoke`
//! only trims the iteration count):
//!
//! * busiest-link ratio `linear / tree` at the largest size >= 2.0, for
//!   both barrier and allreduce;
//! * sub-linear growth: the tree's busiest-link load must grow more
//!   slowly from 16 to 64 ranks than the linear baseline's.
//!
//! A nonzero exit on gate failure.

use fm_bench::report::{Args, Gate, Json, Report};
use fm_core::endpoint::EndpointConfig;
use fm_core::{SwitchConfig, SwitchTopology};
use fm_mpi::{Communicator, MpiCluster, ReduceOp};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIZES: [usize; 5] = [4, 8, 16, 32, 64];
const MIN_RATIO_AT_MAX: f64 = 2.0;

#[derive(Clone, Copy, PartialEq)]
enum Algo {
    Tree,
    Linear,
}

#[derive(Clone, Copy)]
enum Op {
    Barrier,
    Allreduce,
}

struct Phase {
    /// Frames across the busiest single link, per operation.
    busiest_link: f64,
    /// Rank 0 wall clock per operation, microseconds (reference only).
    wall_us: f64,
}

/// Run `iters` repetitions of one collective on a fresh `n`-rank fat-tree
/// cluster and return the per-op busiest-link load from the shard
/// counters. One untimed warmup repetition absorbs thread-start skew; its
/// frames are counted, so loads divide by `iters + 1`.
fn run_phase(n: usize, iters: u32, op: Op, algo: Algo) -> Phase {
    let topo = SwitchTopology::for_cluster_wide(n);
    let (comms, fabric) = MpiCluster::switched_instrumented(
        &topo,
        EndpointConfig {
            window: 256,
            recv_ring: 1024,
            ..Default::default()
        },
        SwitchConfig::default(),
    );
    let handles: Vec<_> = comms
        .into_iter()
        .map(|mut c: Communicator| {
            std::thread::spawn(move || {
                let mut elapsed = Duration::ZERO;
                for rep in 0..=iters {
                    let t0 = Instant::now();
                    match (op, algo) {
                        (Op::Barrier, Algo::Tree) => c.barrier(),
                        (Op::Barrier, Algo::Linear) => c.barrier_linear(),
                        (Op::Allreduce, Algo::Tree) => {
                            c.allreduce(&[c.rank() as f64; 8], ReduceOp::Sum)
                                .expect("clean fabric");
                        }
                        (Op::Allreduce, Algo::Linear) => {
                            c.allreduce_linear(&[c.rank() as f64; 8], ReduceOp::Sum)
                                .expect("clean fabric");
                        }
                    }
                    if rep > 0 {
                        // rep 0 is the warmup: threads are still starting.
                        elapsed += t0.elapsed();
                    }
                }
                // Drain trailing acks so the fabric can quiesce.
                for _ in 0..50 {
                    c.progress();
                    std::thread::yield_now();
                }
                (c.rank(), elapsed)
            })
        })
        .collect();
    let mut rank0_elapsed = Duration::ZERO;
    for h in handles {
        let (rank, elapsed) = h.join().expect("rank thread");
        if rank == 0 {
            rank0_elapsed = elapsed;
        }
    }
    // Every communicator is gone; the handle is the last reference.
    let Ok(runner) = Arc::try_unwrap(fabric) else {
        panic!("all communicators dropped; the runner handle must be unique");
    };
    let shards = runner
        .shutdown(Duration::from_secs(30))
        .expect("shards drain and join");
    let busiest = shards
        .iter()
        .map(|s| {
            let inp = s.input_forwarded().into_iter().max().unwrap_or(0);
            let out = s.output_forwarded().iter().copied().max().unwrap_or(0);
            inp.max(out)
        })
        .max()
        .unwrap_or(0);
    Phase {
        busiest_link: busiest as f64 / (iters + 1) as f64,
        wall_us: rank0_elapsed.as_secs_f64() * 1e6 / iters as f64,
    }
}

struct SizeRow {
    n: usize,
    barrier_tree: Phase,
    barrier_linear: Phase,
    allreduce_tree: Phase,
    allreduce_linear: Phase,
}

fn main() {
    let args = Args::parse("BENCH_mpi.json", &[]);
    let iters: u32 = if args.smoke { 2 } else { 8 };

    let mut rows = Vec::new();
    for &n in &SIZES {
        eprintln!("bench_mpi: {n} ranks ({} iters/op)...", iters);
        rows.push(SizeRow {
            n,
            barrier_tree: run_phase(n, iters, Op::Barrier, Algo::Tree),
            barrier_linear: run_phase(n, iters, Op::Barrier, Algo::Linear),
            allreduce_tree: run_phase(n, iters, Op::Allreduce, Algo::Tree),
            allreduce_linear: run_phase(n, iters, Op::Allreduce, Algo::Linear),
        });
    }

    // Growth from 16 -> max size: the tree must scale sub-linearly
    // relative to the baseline.
    let at16 = rows.iter().find(|r| r.n == 16).expect("size measured");
    let last = rows.last().expect("sizes nonempty");
    let growth = |pick: fn(&SizeRow) -> &Phase| pick(last).busiest_link / pick(at16).busiest_link;
    let gates = [
        Gate::at_least(
            "barrier_busiest_link_ratio_at_max",
            last.barrier_linear.busiest_link / last.barrier_tree.busiest_link,
            MIN_RATIO_AT_MAX,
        ),
        Gate::at_least(
            "allreduce_busiest_link_ratio_at_max",
            last.allreduce_linear.busiest_link / last.allreduce_tree.busiest_link,
            MIN_RATIO_AT_MAX,
        ),
        Gate::below(
            "barrier_tree_growth_sublinear_vs_baseline",
            growth(|r| &r.barrier_tree),
            growth(|r| &r.barrier_linear),
        ),
        Gate::below(
            "allreduce_tree_growth_sublinear_vs_baseline",
            growth(|r| &r.allreduce_tree),
            growth(|r| &r.allreduce_linear),
        ),
    ];

    println!("bench_mpi: busiest-link frames per op (linear/tree ratio)");
    let mut sizes = Vec::new();
    for r in &rows {
        let pair = |tree: &Phase, linear: &Phase| {
            Report::new()
                .num("tree", tree.busiest_link, 2)
                .num("linear", linear.busiest_link, 2)
                .num("ratio", linear.busiest_link / tree.busiest_link, 2)
                .num("tree_wall_us", tree.wall_us, 1)
                .num("linear_wall_us", linear.wall_us, 1)
        };
        println!(
            "  n={:>2}: barrier {:>6.1} vs {:>6.1} ({:>4.1}x)   allreduce {:>6.1} vs {:>6.1} ({:>4.1}x)",
            r.n,
            r.barrier_linear.busiest_link,
            r.barrier_tree.busiest_link,
            r.barrier_linear.busiest_link / r.barrier_tree.busiest_link,
            r.allreduce_linear.busiest_link,
            r.allreduce_tree.busiest_link,
            r.allreduce_linear.busiest_link / r.allreduce_tree.busiest_link,
        );
        sizes.push(
            Report::new()
                .set("n", r.n)
                .set("barrier", pair(&r.barrier_tree, &r.barrier_linear))
                .set("allreduce", pair(&r.allreduce_tree, &r.allreduce_linear)),
        );
    }
    Report::new()
        .set("bench", "mpi_collectives")
        .set("smoke", args.smoke)
        .set("iters_per_op", iters)
        .set("unit", "frames on busiest link per collective op")
        .set("topology", "for_cluster_wide (fat tree past 8 hosts)")
        .set("sizes", sizes)
        .set("gates", gates.iter().map(Json::from).collect::<Vec<_>>())
        .set("enforced", true)
        .set("pass", gates.iter().all(|g| g.pass))
        .finish(&args.out, &gates)
}
