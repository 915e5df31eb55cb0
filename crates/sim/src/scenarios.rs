//! Campaign scenarios: seeded, deterministic workloads over a
//! [`SimCluster`], each returning a report whose every number is a pure
//! function of (size, parameters, seed).

use fm_des::rng::Xoshiro256;

use crate::cluster::{Peaks, SimCluster};
use crate::config::SimConfig;
use crate::fabric::SimFabric;
use crate::report::{goodput_mbs, jain};

/// Ceiling on events per scenario run — a wedged simulation fails loudly
/// instead of spinning (mirrors the live drive loops' round caps).
const MAX_EVENTS: u64 = 2_000_000_000;

/// Report of a load scenario (uniform pairs, incast, overload).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Endpoints in the fabric.
    pub n: u64,
    /// Sending flows.
    pub flows: u64,
    /// Messages enqueued.
    pub msgs: u64,
    pub delivered: u64,
    pub dups: u64,
    pub rejected: u64,
    pub dead_detections: u64,
    /// Simulated time of the last delivery, ns.
    pub sim_ns: u64,
    /// Aggregate goodput over simulated time, MB/s.
    pub mbs: f64,
    /// Jain's index over per-flow completion rates.
    pub fairness: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub peaks: Peaks,
    pub events: u64,
    pub digest: u64,
}

fn finish_rates(c: &SimCluster, senders: &[u32], count: u64) -> Vec<f64> {
    senders
        .iter()
        .map(|&s| {
            c.finished_at(s)
                .map(|t| count as f64 / (t.as_ps().max(1) as f64))
                .unwrap_or(0.0)
        })
        .collect()
}

fn load_report(c: &SimCluster, flows: u64, msgs: u64, rates: &[f64]) -> LoadReport {
    let t = c.totals();
    // Completion = the last delivery, not engine quiescence: after the
    // final message lands, the engine still drains armed retransmission
    // timers (pure no-ops up to a full RTO later), and counting that tail
    // would understate goodput on short runs.
    let sim_ns = c.last_delivery().as_ps() / 1_000;
    LoadReport {
        n: c.hosts(),
        flows,
        msgs,
        delivered: t.delivered,
        dups: t.dups,
        rejected: t.rejected,
        dead_detections: t.dead_detections,
        sim_ns,
        mbs: goodput_mbs(t.delivered * c.config.msg_bytes as u64, sim_ns),
        fairness: jain(rates),
        p50_ns: c.latency().quantile_ns(0.5),
        p99_ns: c.latency().quantile_ns(0.99),
        peaks: c.peaks(),
        events: c.events_dispatched(),
        digest: c.digest(),
    }
}

/// `k` senders blast `count` messages each at endpoint 0 — the
/// return-to-sender stress. Mirrors `fm_testbed::scaling::live_incast`.
pub fn incast(n: u64, k: u64, count: u64, config: SimConfig, seed: u64) -> LoadReport {
    assert!(k < n, "incast needs k < n");
    let mut c = SimCluster::new(SimFabric::for_endpoints(n), config, seed);
    let senders: Vec<u32> = (1..=k as u32).collect();
    for &s in &senders {
        c.enqueue(s, 0, count);
    }
    c.run_to_quiescence(MAX_EVENTS);
    let rates = finish_rates(&c, &senders, count);
    load_report(&c, k, k * count, &rates)
}

/// Seeded random disjoint pairs: every endpoint is in exactly one pair,
/// both sides stream `count` messages to each other concurrently. The
/// fairness gate runs here: nothing about the fabric should starve one
/// pair to feed another.
pub fn uniform(n: u64, count: u64, config: SimConfig, seed: u64) -> LoadReport {
    assert!(n >= 2);
    let mut c = SimCluster::new(SimFabric::for_endpoints(n), config, seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x756e_6966_6f72_6d01);
    rng.shuffle(&mut perm);
    let pairs = n as usize / 2;
    let mut senders = Vec::with_capacity(pairs * 2);
    for p in 0..pairs {
        let (a, b) = (perm[2 * p], perm[2 * p + 1]);
        c.enqueue(a, b, count);
        c.enqueue(b, a, count);
        senders.push(a);
        senders.push(b);
    }
    c.run_to_quiescence(MAX_EVENTS);
    let rates = finish_rates(&c, &senders, count);
    load_report(
        &c,
        senders.len() as u64,
        senders.len() as u64 * count,
        &rates,
    )
}

/// Incast against a receiver serving 8× slower than calibrated — the
/// sustained-overload regime where the reject path carries the load.
pub fn overload(n: u64, k: u64, count: u64, mut config: SimConfig, seed: u64) -> LoadReport {
    config.recv_slowdown = 8;
    incast(n, k, count, config, seed)
}

/// Report of a churn scenario.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    pub n: u64,
    pub participants: u64,
    pub epochs: u32,
    pub enqueued: u64,
    pub delivered: u64,
    pub dups: u64,
    pub failed_sends: u64,
    pub abandoned: u64,
    pub dead_detections: u64,
    pub max_detect_miss: u32,
    /// Largest per-peer receiver state held by any participant after the
    /// final epoch's cleanup — the bounded-state gate.
    pub max_peer_state: usize,
    pub sim_ns: u64,
    pub events: u64,
    pub digest: u64,
}

/// Join/leave/revive churn over `participants` endpoints (fixed partner
/// pairs), `epochs` rounds of `count` messages each way. Each epoch a
/// seeded ~10% of participants is down; their partners must detect death
/// within the retry budget, fail the rest fast, and resume cleanly after
/// `revive_peer`. Delivery is exactly-once *per epoch*: the report's
/// accounting identity (`enqueued = delivered + failed + abandoned`) is
/// asserted inside, per epoch, not just in aggregate.
pub fn churn(
    n: u64,
    participants: u64,
    epochs: u32,
    count: u64,
    config: SimConfig,
    seed: u64,
) -> ChurnReport {
    assert!(participants >= 4 && participants.is_multiple_of(2) && participants <= n);
    let mut c = SimCluster::new(SimFabric::for_endpoints(n), config, seed);
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x6368_7572_6e00_0001);
    let half = (participants / 2) as u32;
    let partner = |h: u32| if h < half { h + half } else { h - half };
    let mut down: Vec<u32> = Vec::new();
    let mut prev = c.totals();
    for _epoch in 0..epochs {
        // Revive last epoch's casualties. A rejoin is a *new* peer
        // instance: both sides drop their per-peer sequence state
        // together, or the restarted sequence numbers get misread as
        // duplicates on one side (the live `reset_peer` contract).
        for &h in &down {
            c.revive(h);
            c.revive_peer(partner(h), h);
            c.forget_peer(partner(h), h);
            c.forget_peer(h, partner(h));
        }
        down.clear();
        // ~10% of participants (at least one) leave this epoch.
        let casualties = (participants / 10).max(1);
        for _ in 0..casualties {
            let h = rng.next_below(participants) as u32;
            if !down.contains(&h) {
                down.push(h);
                c.kill(h);
            }
        }
        for h in 0..participants as u32 {
            if !down.contains(&h) {
                c.enqueue(h, partner(h), count);
            }
        }
        c.run_to_quiescence(MAX_EVENTS);
        let now = c.totals();
        let enq = now.enqueued - prev.enqueued;
        let del = now.delivered - prev.delivered;
        let failed = now.failed_sends - prev.failed_sends;
        let abandoned = now.abandoned - prev.abandoned;
        assert_eq!(
            enq,
            del + failed + abandoned,
            "exactly-once accounting broke within an epoch"
        );
        prev = now;
    }
    // Final cleanup, then measure residual per-peer state.
    for &h in &down {
        c.revive(h);
        c.revive_peer(partner(h), h);
        c.forget_peer(partner(h), h);
        c.forget_peer(h, partner(h));
    }
    let max_peer_state = (0..participants as u32)
        .map(|h| c.peer_state_entries(h))
        .max()
        .unwrap_or(0);
    let t = c.totals();
    ChurnReport {
        n: c.hosts(),
        participants,
        epochs,
        enqueued: t.enqueued,
        delivered: t.delivered,
        dups: t.dups,
        failed_sends: t.failed_sends,
        abandoned: t.abandoned,
        dead_detections: t.dead_detections,
        max_detect_miss: t.max_detect_miss,
        max_peer_state,
        sim_ns: c.now().as_ps() / 1_000,
        events: c.events_dispatched(),
        digest: c.digest(),
    }
}

/// Report of a collective scenario.
#[derive(Debug, Clone)]
pub struct CollectiveReport {
    pub n: u64,
    pub depth: u32,
    pub expected_depth: u32,
    pub delivered: u64,
    pub span_ns: u64,
    pub events: u64,
    pub digest: u64,
}

/// Binomial-tree broadcast from endpoint 0 to the whole fabric — the
/// O(log N) collective-depth gate.
pub fn collective(n: u64, config: SimConfig, seed: u64) -> CollectiveReport {
    let mut c = SimCluster::new(SimFabric::for_endpoints(n), config, seed);
    let (depth, span, delivered) = c.run_collective(0, MAX_EVENTS);
    CollectiveReport {
        n: c.hosts(),
        depth,
        expected_depth: SimFabric::collective_depth(c.hosts()),
        delivered,
        span_ns: span.as_ps() / 1_000,
        events: c.events_dispatched(),
        digest: c.digest(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incast_is_fair_and_bounded_at_calibration_scale() {
        for k in [2u64, 4, 8] {
            let r = incast(k + 1, k, 20, SimConfig::default(), 42);
            assert_eq!(r.delivered, 20 * k);
            assert_eq!(r.dups, 0);
            assert!(r.rejected > 0, "k={k} incast must bounce");
            assert!(r.fairness >= 0.8, "k={k} fairness {}", r.fairness);
            assert!(r.peaks.outstanding <= 32);
            assert!(r.peaks.ring <= 8);
        }
    }

    #[test]
    fn uniform_pairs_deliver_everything_fairly() {
        let r = uniform(64, 10, SimConfig::default(), 7);
        assert_eq!(r.delivered, 64 * 10);
        assert!(r.fairness >= 0.8, "fairness {}", r.fairness);
        assert_eq!(r.dead_detections, 0);
        // Same seed reproduces bit-identically.
        let r2 = uniform(64, 10, SimConfig::default(), 7);
        assert_eq!(r.digest, r2.digest);
        // A different seed re-pairs endpoints: different digest.
        let r3 = uniform(64, 10, SimConfig::default(), 8);
        assert_ne!(r.digest, r3.digest);
    }

    #[test]
    fn overload_keeps_rejects_bounded_by_window_discipline() {
        let r = overload(9, 8, 25, SimConfig::default(), 3);
        assert_eq!(r.delivered, 200);
        assert!(r.rejected > r.delivered, "8× slowdown must bounce heavily");
        assert!(r.peaks.outstanding <= 32, "window discipline held");
        assert_eq!(r.dups, 0);
    }

    #[test]
    fn churn_detects_death_and_cleans_up() {
        let r = churn(64, 32, 4, 5, SimConfig::default(), 99);
        assert!(r.dead_detections >= 1);
        assert!(r.max_detect_miss <= 17);
        assert!(r.delivered > 0);
        // Receiver state after cleanup stays bounded by live partners,
        // not by churn history.
        assert!(r.max_peer_state <= 4, "leaked {} entries", r.max_peer_state);
    }

    #[test]
    fn collective_depth_matches_log2() {
        let r = collective(100, SimConfig::default(), 1);
        assert_eq!(r.depth, 7);
        assert_eq!(r.delivered, 99);
    }
}
