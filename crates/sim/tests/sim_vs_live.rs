//! The calibration envelope: the simulator is only allowed to extrapolate
//! to a million endpoints because, at the sizes the live threaded runtime
//! can actually be run (2–64 endpoints on this machine), the same seeded
//! scenarios produce the same protocol behaviour on both.
//!
//! Two kinds of agreement are checked, strongest first:
//!
//! 1. **Incast discipline** (fully deterministic on both sides): the live
//!    `fm_testbed::scaling::live_incast_wired` drive and the simulated
//!    incast must both deliver exactly once, both bounce (reject > 0),
//!    both keep every sender's reject queue within the window, and land
//!    Jain fairness within 0.2 of each other (both ≥ 0.8).
//! 2. **Unloaded latency and single-flow bandwidth** against the
//!    *committed* live measurements in `BENCH_scaling.json` — the numbers
//!    the cost model was calibrated from, re-derived here through the full
//!    event pipeline rather than the closed-form `CostModel` check.
//!
//! Both sides report fairness through the one `fm_metrics::jain`.
//!
//! What is deliberately *not* compared: live wall-clock aggregate
//! bandwidth and tail latency at n ≥ 8. Those measurements time real
//! threads multiplexed onto this machine's cores, so their curve bends
//! where the host saturates — a property of the test box, not of the
//! protocol. The simulator models each endpoint as its own host (the
//! regime the paper reasons about), so past the calibration anchors the
//! two curves legitimately diverge. `DESIGN.md` ("Beyond the paper")
//! records this envelope.

use fm_sim::{incast, uniform, SimConfig};
use fm_testbed::scaling::{incast_config, live_incast_wired, ClusterWiring};

/// Committed live measurements from `BENCH_scaling.json` (full run,
/// bench_scaling at HEAD): `(n, aggregate_mbs, p50_us)` for the disjoint
/// pair sweep / distant-pair pingpong. Only the sizes below the machine
/// saturation knee participate in strict comparisons.
const LIVE_POINTS: &[(u64, f64, f64)] = &[(2, 83.18, 3.33), (4, 87.40, 5.12), (8, 88.39, 11.26)];

const MSGS: u64 = 25;

#[test]
fn incast_discipline_matches_live() {
    let config = incast_config();
    let sim_cfg = SimConfig::default();
    assert_eq!(config.window, sim_cfg.window as usize);
    assert_eq!(config.recv_ring, sim_cfg.recv_ring as usize);
    for k in [2u64, 4, 8] {
        let live = live_incast_wired(k as usize, MSGS as usize, config, ClusterWiring::Wide);
        let sim = incast(k + 1, k, MSGS, sim_cfg, 42);

        // Exactly-once delivery on both sides (the live handler panics on
        // duplicates internally; the sim counts them).
        assert_eq!(live.delivered, k * MSGS);
        assert_eq!(sim.delivered, k * MSGS, "k={k}");
        assert_eq!(sim.dups, 0, "k={k}");

        // Both overload the 8-slot ring and bounce.
        assert!(live.rejected > 0, "k={k}: live incast never bounced");
        assert!(sim.rejected > 0, "k={k}: sim incast never bounced");

        // Window discipline: reject queues bounded by the window on both
        // sides — the paper's §4.5 claim, live and simulated.
        let live_peak = live.peak_outstanding.iter().copied().max().unwrap_or(0);
        assert!(
            live_peak <= live.window,
            "k={k}: live peak {live_peak} > window {}",
            live.window
        );
        assert!(
            sim.peaks.outstanding <= sim_cfg.window,
            "k={k}: sim peak {} > window {}",
            sim.peaks.outstanding,
            sim_cfg.window
        );

        // Fairness agreement: both fair, and within tolerance of each
        // other despite completely different clocks.
        assert!(
            live.fairness >= 0.8,
            "k={k}: live fairness {}",
            live.fairness
        );
        assert!(sim.fairness >= 0.8, "k={k}: sim fairness {}", sim.fairness);
        assert!(
            (live.fairness - sim.fairness).abs() <= 0.2,
            "k={k}: live {} vs sim {}",
            live.fairness,
            sim.fairness
        );
    }
}

#[test]
fn unloaded_latency_tracks_committed_live_curve() {
    // One message across the smallest fabrics; the simulated end-to-end
    // time (send stage included) must track the committed pingpong p50
    // within the calibration tolerance — and the tolerance widens with n
    // because the live number starts absorbing host scheduling noise.
    for &(n, _, p50_us) in &LIVE_POINTS[..2] {
        let r = incast(n, 1, 1, SimConfig::default(), 7);
        let sim_us = r.sim_ns as f64 / 1_000.0;
        // n=2 is the calibration anchor itself; n=4 is the same one-hop
        // path but the live p50 already carries host scheduling noise
        // (4 endpoint threads on this box), hence the wider band.
        let tol = if n == 2 { 0.15 } else { 0.40 };
        assert!(
            (sim_us - p50_us).abs() / p50_us <= tol,
            "n={n}: sim one-way {sim_us:.2}us vs live p50 {p50_us:.2}us"
        );
    }
}

#[test]
fn single_flow_bandwidth_matches_committed_calibration() {
    // A long 0 -> 1 stream at n=2: the receiver service stage is the
    // bottleneck, so simulated goodput must reproduce the committed
    // n=2 live aggregate (83.18 MB/s) closely — this is the anchor the
    // whole cost model hangs off.
    let r = incast(2, 1, 500, SimConfig::default(), 7);
    assert_eq!(r.delivered, 500);
    let committed = LIVE_POINTS[0].1;
    assert!(
        (r.mbs - committed).abs() / committed <= 0.05,
        "sim {:.2} MB/s vs committed {committed:.2} MB/s",
        r.mbs
    );
}

#[test]
fn aggregate_grows_and_per_flow_erosion_stays_bounded() {
    // The live aggregate curve plateaus because the test host saturates;
    // the sim, modelling independent hosts on the shared switched fabric,
    // separates the two effects the live box conflates:
    //
    //   * **aggregate goodput grows with size** — more leaves and trunks
    //     mean more fabric capacity, so n pairs always move at least as
    //     much in total as the single calibrated flow (measured:
    //     83 MB/s at n=2 up to ~520 MB/s at n=64);
    //   * **per-flow erosion is fabric sharing, not collapse** — both
    //     directions of a pair share each host's serial service stage and
    //     cross-leaf pairs contend for trunk DRR service, so per-flow
    //     goodput declines as sharing deepens (36 → 18 → 16 → 8 MB/s
    //     across 8..64). The gate bounds that erosion at 12× of the n=2
    //     anchor — at n=64 each flow shares its trunk ports with ~10
    //     others, so an order-of-magnitude-plus drop would mean the
    //     fabric stopped scaling with pairs.
    let anchor = LIVE_POINTS[0].1;
    for n in [8u64, 16, 32, 64] {
        let r = uniform(n, 50, SimConfig::default(), 11);
        assert_eq!(r.delivered, r.msgs, "n={n}");
        assert!(
            r.mbs >= anchor,
            "n={n}: aggregate {:.2} MB/s fell below the single-flow anchor",
            r.mbs
        );
        let per_flow = r.mbs / r.flows as f64;
        assert!(
            per_flow >= anchor / 12.0 && per_flow <= anchor,
            "n={n}: per-flow {per_flow:.2} MB/s vs anchor {anchor:.2}"
        );
        assert!(r.fairness >= 0.8, "n={n}: fairness {}", r.fairness);
    }
}
