//! Reliability-layer soak tests over the fault-injection fabric.
//!
//! These are the acceptance tests for the beyond-paper reliability layer:
//! a seeded [`FaultInjector`] drops, duplicates, corrupts and delays
//! frames on every link while the CRC trailer, the per-source sequence
//! windows and the retransmission timers put the pieces back together.
//! Every test drives its endpoints from a single thread in a fixed
//! round-robin, so a given seed replays the exact same fault schedule —
//! failures here reproduce, always.

use fm_core::seg::{self, SEG_HANDLER};
use fm_core::{
    ClusterRunner, EndpointConfig, EndpointStats, FabricKind, FaultConfig, FaultStats, HandlerId,
    MemCluster, MemEndpoint, NodeId, SendError, SwitchTopology, SwitchedCluster, TelemetryCounter,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// Messages per direction in the bidirectional soak.
const SOAK_MSGS: u32 = 2_000;
/// Drive-loop iterations before a soak is declared wedged. Each iteration
/// extracts once per node, so this bounds virtual time too.
const SOAK_ITER_CAP: usize = 400_000;

/// Endpoint sizing for fault soaks: timers tight enough to recover drops
/// quickly (the round-robin drive gives a ~2-tick RTT), budget generous
/// enough that a 5% drop rate cannot plausibly burn it.
fn soak_config() -> EndpointConfig {
    EndpointConfig {
        window: 32,
        recv_ring: 32,
        rto_initial: 64,
        rto_max: 1 << 12,
        retry_budget: 32,
        ..Default::default()
    }
}

/// Everything a deterministic soak must reproduce bit-for-bit.
#[derive(Debug, PartialEq, Eq)]
struct SoakDigest {
    stats: Vec<EndpointStats>,
    faults: Vec<FaultStats>,
    fault_events: Vec<usize>,
}

/// Two nodes stream [`SOAK_MSGS`] sequenced messages at each other through
/// a faulty fabric; returns the digest after both sides quiesce.
///
/// Panics if any message is lost, duplicated or reordered, or if the run
/// exceeds [`SOAK_ITER_CAP`] iterations (a hang, by definition).
fn run_soak(faults: FaultConfig) -> SoakDigest {
    let mut nodes = MemCluster::with_faulty_fabric(2, soak_config(), FabricKind::Ring, faults);
    let mut b = nodes.pop().unwrap();
    let mut a = nodes.pop().unwrap();

    let got_a: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new())); // b -> a
    let got_b: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new())); // a -> b
    let ga = got_a.clone();
    let gb = got_b.clone();
    let ha = a.register_handler(move |_, src, data| {
        assert_eq!(src, NodeId(1));
        ga.lock().push(u32::from_le_bytes(data.try_into().unwrap()));
    });
    let hb = b.register_handler(move |_, src, data| {
        assert_eq!(src, NodeId(0));
        gb.lock().push(u32::from_le_bytes(data.try_into().unwrap()));
    });
    assert_eq!(ha, hb, "symmetric registration gives symmetric ids");

    let mut next_a = 0u32; // next value a sends to b
    let mut next_b = 0u32;
    let mut iters = 0usize;
    loop {
        iters += 1;
        assert!(
            iters < SOAK_ITER_CAP,
            "soak wedged: a→b {}/{SOAK_MSGS} b→a {}/{SOAK_MSGS}\n a: {a:?}\n b: {b:?}",
            got_b.lock().len(),
            got_a.lock().len(),
        );
        if next_a < SOAK_MSGS && a.try_send(NodeId(1), hb, &next_a.to_le_bytes()).is_ok() {
            next_a += 1;
        }
        if next_b < SOAK_MSGS && b.try_send(NodeId(0), ha, &next_b.to_le_bytes()).is_ok() {
            next_b += 1;
        }
        a.extract();
        b.extract();
        if next_a == SOAK_MSGS
            && next_b == SOAK_MSGS
            && got_a.lock().len() as u32 == SOAK_MSGS
            && got_b.lock().len() as u32 == SOAK_MSGS
            && a.is_quiescent()
            && b.is_quiescent()
        {
            break;
        }
    }

    // Exactly once, in order: the handler saw 0..SOAK_MSGS verbatim.
    for (dir, got) in [("b→a", &got_a), ("a→b", &got_b)] {
        let got = got.lock();
        assert_eq!(got.len() as u32, SOAK_MSGS, "{dir} lost or duplicated");
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v, i as u32, "{dir} out of order at {i}");
        }
    }
    assert!(!a.is_peer_dead(NodeId(1)) && !b.is_peer_dead(NodeId(0)));

    SoakDigest {
        stats: vec![a.stats(), b.stats()],
        faults: vec![a.fault_stats().unwrap(), b.fault_stats().unwrap()],
        fault_events: vec![
            a.fault_events().unwrap().count(),
            b.fault_events().unwrap().count(),
        ],
    }
}

/// The headline acceptance soak: 5% drop + dup + corrupt + delay on every
/// link, 2000 messages each way, exactly-once in-order delivery, no hang.
#[test]
fn soak_5pct_combined_faults_exactly_once_in_order() {
    let digest = run_soak(FaultConfig::uniform(0xF00D_CAFE, 0.05));
    // At 5% per category over ~4000+ data frames the injector must have
    // actually exercised every fault path.
    let total: FaultStats = {
        let mut t = FaultStats::default();
        for f in &digest.faults {
            t.dropped += f.dropped;
            t.duplicated += f.duplicated;
            t.corrupted += f.corrupted;
            t.delayed += f.delayed;
            t.passed += f.passed;
        }
        t
    };
    assert!(total.dropped > 0, "no drops injected: {total:?}");
    assert!(total.duplicated > 0, "no dups injected: {total:?}");
    assert!(total.corrupted > 0, "no corruption injected: {total:?}");
    assert!(total.delayed > 0, "no delays injected: {total:?}");
    // And the protocol must have seen them: CRC rejections, duplicate
    // suppressions and loss-driven retransmissions all nonzero. Hole
    // repair gets to a mid-stream loss before its timer does; timers are
    // left with the losses nothing was acknowledged past.
    let corrupt: u64 = digest.stats.iter().map(|s| s.corrupt).sum();
    let dups: u64 = digest.stats.iter().map(|s| s.duplicates).sum();
    let gap_rtx: u64 = digest.stats.iter().map(|s| s.gap_retransmits).sum();
    assert!(corrupt > 0, "CRC never fired: {:?}", digest.stats);
    assert!(dups > 0, "dedup never fired: {:?}", digest.stats);
    assert!(gap_rtx > 0, "hole repair never fired: {:?}", digest.stats);
    // Every retransmission is attributable from the counters alone: at
    // quiescence each bounce has been retransmitted exactly once, and the
    // rest are timer- or gap-driven.
    for s in &digest.stats {
        assert_eq!(
            s.retransmitted,
            s.bounced + s.timer_retransmits + s.gap_retransmits,
            "{s:?}"
        );
    }
    assert_eq!(
        digest.stats.iter().map(|s| s.handler_panics).sum::<u64>(),
        0
    );
}

/// The same seed replays the same fault schedule and the same recovery,
/// counter for counter; a different seed produces a different schedule.
#[test]
fn soak_is_deterministic_per_seed() {
    let first = run_soak(FaultConfig::uniform(42, 0.03));
    let second = run_soak(FaultConfig::uniform(42, 0.03));
    assert_eq!(first, second, "same seed must replay identically");
    let other = run_soak(FaultConfig::uniform(43, 0.03));
    assert_ne!(
        first.faults, other.faults,
        "different seeds should draw different fault schedules"
    );
}

/// Corruption-only at a brutal 20%: every flipped frame must be caught by
/// the CRC (never delivered corrupted) and recovered by retransmission.
#[test]
fn heavy_corruption_never_reaches_handlers() {
    let faults = FaultConfig {
        seed: 7,
        default: fm_core::LinkFaults {
            corrupt: 0.20,
            ..fm_core::LinkFaults::NONE
        },
        ..Default::default()
    };
    let digest = run_soak(faults);
    let corrupt: u64 = digest.stats.iter().map(|s| s.corrupt).sum();
    let injected: u64 = digest.faults.iter().map(|f| f.corrupted).sum();
    assert!(injected > 0);
    // Every injected corruption was either caught by the receiver CRC or
    // hit a frame the receiver never needed (it can't be *delivered*: the
    // in-order payload check above already proved that). Most are caught:
    assert!(
        corrupt >= injected / 2,
        "CRC caught {corrupt} of {injected} injected corruptions"
    );
}

/// One stalled peer degrades gracefully: senders to it burn their retry
/// budget and get [`SendError::PeerUnreachable`], while traffic between
/// the live nodes keeps flowing; nothing wedges. Once the stall lifts, a
/// reset at both ends brings the peer back.
#[test]
fn stalled_peer_fails_fast_rest_of_cluster_flows() {
    let cfg = EndpointConfig {
        window: 16,
        recv_ring: 16,
        rto_initial: 8,
        rto_max: 64,
        retry_budget: 4,
        ..Default::default()
    };
    let faults = FaultConfig::new(99).stall(NodeId(2));
    let mut nodes = MemCluster::with_faulty_fabric(3, cfg, FabricKind::Ring, faults);
    let mut dead = nodes.pop().unwrap(); // node 2: not driven while stalled
    let mut b = nodes.pop().unwrap();
    let mut a = nodes.pop().unwrap();

    let live = Arc::new(AtomicU64::new(0));
    let l = live.clone();
    let hb = b.register_handler(move |_, _, _| {
        l.fetch_add(1, Ordering::Relaxed);
    });

    // Optimistic sends to the stalled node enter the window fine...
    for _ in 0..4 {
        a.try_send(NodeId(2), HandlerId(1), b"hello?").unwrap();
    }
    // ...and the live link keeps moving while the timers grind through
    // their backoff on the dead one.
    let mut sent_live = 0u64;
    let mut iters = 0;
    while !a.is_peer_dead(NodeId(2)) {
        iters += 1;
        assert!(iters < 10_000, "dead-peer detection wedged: {a:?}");
        if a.try_send(NodeId(1), hb, b"alive").is_ok() {
            sent_live += 1;
        }
        a.extract();
        b.extract();
    }
    // Retry budget 4, rto 8..64: detection must be prompt, not geological.
    assert!(iters < 2_000, "took {iters} iterations to declare death");
    assert!(a.stats().unreachable_drops > 0);

    // Failed-fast from now on, without disturbing the live link.
    assert_eq!(
        a.try_send(NodeId(2), HandlerId(1), b"again"),
        Err(SendError::PeerUnreachable(NodeId(2)))
    );
    assert_eq!(
        a.send_checked(NodeId(2), HandlerId(1), b"again"),
        Err(SendError::PeerUnreachable(NodeId(2)))
    );
    assert!(matches!(
        a.send_large(NodeId(2), HandlerId(9), &[0u8; 4096]),
        Err(SendError::PeerUnreachable(_))
    ));
    for _ in 0..32 {
        a.send(NodeId(1), hb, b"alive");
        a.extract();
        b.extract();
        sent_live += 1;
    }
    for _ in 0..64 {
        a.extract();
        b.extract();
    }
    assert_eq!(live.load(Ordering::Relaxed), sent_live);
    assert!(!a.is_peer_dead(NodeId(1)));

    // The way back: lift the stall (a clean injector on every endpoint),
    // drain the fabric, then reset the pair at both ends. The purged
    // frames left a hole in the old streams; the reset starts new ones.
    let back = Arc::new(AtomicU64::new(0));
    let k = back.clone();
    let hd = dead.register_handler(move |_, _, _| {
        k.fetch_add(1, Ordering::Relaxed);
    });
    for ep in [&mut a, &mut b, &mut dead] {
        ep.inject_faults(&FaultConfig::new(99));
    }
    for _ in 0..64 {
        a.extract();
        b.extract();
        dead.extract();
    }
    a.reset_peer(NodeId(2));
    dead.reset_peer(NodeId(0));
    assert!(!a.is_peer_dead(NodeId(2)));
    for i in 0..8u8 {
        a.send(NodeId(2), hd, &[i]);
    }
    let mut rounds = 0;
    while back.load(Ordering::Relaxed) < 8 || !a.is_quiescent() || !dead.is_quiescent() {
        rounds += 1;
        assert!(rounds < 2_000, "the reset peer wedged: {a:?} {dead:?}");
        a.extract();
        dead.extract();
    }
    for _ in 0..64 {
        a.extract();
        dead.extract();
    }
    assert_eq!(
        back.load(Ordering::Relaxed),
        8,
        "each delivered exactly once"
    );
    assert_eq!((a.recv_buffered(), dead.recv_buffered()), (0, 0));
    assert!(a.is_quiescent() && dead.is_quiescent());
}

/// A sender cut off mid-message: after `k` of a 4-KiB message's 36
/// fragments its links stall, and the receiver, whose probe goes
/// unanswered, declares it dead. The half-built message is aborted exactly
/// once and delivers nothing. After a reset at both ends the next
/// `send_large` completes exactly once, and both ends quiesce.
#[test]
fn a_peer_cut_off_mid_message_aborts_its_partial_once_then_resets_cleanly() {
    let cfg = EndpointConfig {
        rto_initial: 8,
        rto_max: 64,
        retry_budget: 4,
        ..Default::default()
    };
    let data: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
    let frags = seg::fragment(0, HandlerId(0), &data);
    assert_eq!(frags.len(), 36);
    let aborts = |ep: &MemEndpoint| {
        let counters = ep.observability_counters();
        let at = |c: TelemetryCounter| counters[c as usize];
        (
            at(TelemetryCounter::ReassemblyAborts),
            at(TelemetryCounter::EvictedPartials),
        )
    };
    for k in [1, 18, 35] {
        let mut nodes = MemCluster::with_config(2, cfg);
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        let lh = b.register_large_handler(move |_, src, msg| g.lock().push((src, msg)));
        assert_eq!(lh, HandlerId(0), "the id send_large's fragments name");
        let probe = a.register_handler(|_, _, _| {});

        // The first k fragments arrive and are acked.
        for frag in &frags[..k] {
            a.try_send(NodeId(1), SEG_HANDLER, frag).unwrap();
        }
        b.extract();
        a.extract();
        assert_eq!(b.reassembly_stats(), (k as u64, 0));
        assert!(!b.is_quiescent(), "k = {k}: a message is half built");

        // Node 0 is cut off; b's probe goes unanswered until b gives up.
        for ep in [&mut a, &mut b] {
            ep.inject_faults(&FaultConfig::new(7).stall(NodeId(0)));
        }
        b.try_send(NodeId(0), probe, b"there?").unwrap();
        let mut ticks = 0;
        while !b.is_peer_dead(NodeId(0)) {
            ticks += 1;
            assert!(ticks < 2_000, "k = {k}: death never declared: {b:?}");
            b.extract();
        }
        assert_eq!(aborts(&b), (1, 0), "k = {k}: aborted once");
        assert!(got.lock().is_empty(), "k = {k}: nothing delivered");
        assert!(b.is_quiescent(), "k = {k}: {b:?}");

        // The link comes back: both ends reset, and the whole message
        // goes through once.
        for ep in [&mut a, &mut b] {
            ep.inject_faults(&FaultConfig::new(7));
        }
        a.reset_peer(NodeId(1));
        b.reset_peer(NodeId(0));
        a.send_large(NodeId(1), lh, &data).expect("peer reset");
        let mut rounds = 0;
        while got.lock().is_empty() || !a.is_quiescent() || !b.is_quiescent() {
            rounds += 1;
            assert!(
                rounds < 2_000,
                "k = {k}: the reset pair wedged: {a:?} {b:?}"
            );
            b.extract();
            a.extract();
        }
        for _ in 0..64 {
            b.extract();
            a.extract();
        }
        assert_eq!(*got.lock(), [(NodeId(0), data.clone())], "k = {k}");
        assert_eq!(b.reassembly_stats(), (k as u64 + 36, 1));
        assert_eq!((aborts(&a), aborts(&b)), ((0, 0), (1, 0)), "k = {k}");
        assert!(a.is_quiescent() && b.is_quiescent(), "k = {k}: {a:?} {b:?}");
    }
}

/// A panicking handler must not take the endpoint (or its thread) down:
/// the panic is contained, the handler is dropped, and later traffic to
/// other handlers flows normally.
#[test]
fn handler_panic_is_contained() {
    let mut nodes = MemCluster::new(2);
    let mut b = nodes.pop().unwrap();
    let mut a = nodes.pop().unwrap();
    let ok = Arc::new(AtomicU64::new(0));
    let o = ok.clone();
    let bomb = b.register_handler(|_, _, _| panic!("handler bug"));
    let good = b.register_handler(move |_, _, _| {
        o.fetch_add(1, Ordering::Relaxed);
    });

    a.send(NodeId(1), bomb, b"boom");
    a.send(NodeId(1), good, b"fine");
    for _ in 0..16 {
        a.extract();
        b.extract();
    }
    assert_eq!(b.stats().handler_panics, 1, "{b:?}");
    assert_eq!(ok.load(Ordering::Relaxed), 1);
    // The poisoned handler is gone; further frames to it are counted as
    // dropped deliveries, not repeated panics.
    a.send(NodeId(1), bomb, b"boom again");
    for _ in 0..16 {
        a.extract();
        b.extract();
    }
    assert_eq!(b.stats().handler_panics, 1);
    assert_eq!(ok.load(Ordering::Relaxed), 1);
    assert!(b.is_quiescent(), "{b:?}");
}

/// Satellite (b): a cluster under live cross-traffic shuts down cleanly —
/// every worker thread joins within the timeout, mid-storm.
#[test]
fn cluster_shutdown_joins_under_inflight_traffic() {
    const NODES: usize = 4;
    let mut nodes = MemCluster::new(NODES);
    let delivered = Arc::new(AtomicU64::new(0));
    // Relay handler: bounce the hop counter around the ring forever (well
    // past any plausible test duration), so traffic is genuinely in flight
    // at the instant of shutdown.
    for ep in &mut nodes {
        let me = ep.node_id();
        let d = delivered.clone();
        ep.register_handler_at(HandlerId(1), {
            Box::new(move |outbox: &mut fm_core::Outbox, _src, data: &[u8]| {
                d.fetch_add(1, Ordering::Relaxed);
                let hops = u64::from_le_bytes(data.try_into().unwrap());
                if hops > 0 {
                    let next = NodeId(((me.0 as usize + 1) % NODES) as u16);
                    outbox.send_copy(next, HandlerId(1), &(hops - 1).to_le_bytes());
                }
            })
        });
    }
    // Seed the storm: 8 tokens with effectively-infinite hop budgets.
    for i in 0..8u64 {
        let hops = u64::MAX - i;
        nodes[(i % NODES as u64) as usize].send(
            NodeId(((i + 1) % NODES as u64) as u16),
            HandlerId(1),
            &hops.to_le_bytes(),
        );
    }

    let runner = ClusterRunner::start(nodes);
    std::thread::sleep(Duration::from_millis(100));
    let before = delivered.load(Ordering::Relaxed);
    assert!(before > 0, "storm never started");

    let nodes: Vec<MemEndpoint> = runner
        .shutdown(Duration::from_secs(10))
        .expect("threads must join within the timeout despite in-flight traffic");
    assert_eq!(nodes.len(), NODES);
    let after = delivered.load(Ordering::Relaxed);
    assert!(after >= before);
    // The tokens were still circulating when we pulled the plug.
    let outstanding: usize = nodes.iter().map(|n| n.outstanding()).sum();
    let sent: u64 = nodes.iter().map(|n| n.stats().sent).sum();
    assert!(sent > after, "relays keep resending: {sent} vs {after}");
    let _ = outstanding; // in-flight state at shutdown is legal, not asserted
}

/// Switch-routed soak: 16 endpoints spanning three switches, every
/// transmit path under 5% uniform faults (drop / duplicate / corrupt /
/// delay), every node streaming to a peer five hosts away so most streams
/// cross at least one trunk. Exactly-once, in-order-per-source delivery
/// must survive both the faults *and* the store-and-forward fabric, and
/// the whole cluster must quiesce afterwards.
#[test]
fn switched_soak_16_endpoints_5pct_faults_exactly_once() {
    const N: usize = 16;
    const MSGS: u32 = 400;
    let topo = SwitchTopology::for_cluster(N);
    assert!(topo.switches() > 1, "16 hosts must span multiple switches");
    let mut cluster = SwitchedCluster::with_faults(
        &topo,
        soak_config(),
        FaultConfig::uniform(0x51AB_F00D, 0.05),
    );

    // Stream map i -> (i + 5) % 16: a bijection, so every node receives
    // exactly one stream and the in-order check below covers per-source
    // ordering end to end.
    let dst_of = |i: usize| (i + 5) % N;
    let got: Arc<Mutex<Vec<Vec<u32>>>> = Arc::new(Mutex::new(vec![Vec::new(); N]));
    let delivered = Arc::new(AtomicU64::new(0));
    for (i, ep) in cluster.endpoints.iter_mut().enumerate() {
        let got = got.clone();
        let delivered = delivered.clone();
        let expect_src = NodeId(((i + N - 5) % N) as u16);
        ep.register_handler_at(HandlerId(1), move |_, src, data| {
            assert_eq!(src, expect_src, "stream map is a bijection");
            got.lock()[i].push(u32::from_le_bytes(data.try_into().unwrap()));
            delivered.fetch_add(1, Ordering::Relaxed);
        });
    }

    let total = (N as u64) * MSGS as u64;
    let mut next = [0u32; N];
    let mut iters = 0usize;
    loop {
        iters += 1;
        assert!(
            iters < SOAK_ITER_CAP,
            "switched soak wedged at {}/{total} delivered",
            delivered.load(Ordering::Relaxed)
        );
        let mut all_sent = true;
        for (i, nx) in next.iter_mut().enumerate() {
            while *nx < MSGS {
                match cluster.endpoints[i].try_send(
                    NodeId(dst_of(i) as u16),
                    HandlerId(1),
                    &nx.to_le_bytes(),
                ) {
                    Ok(()) => *nx += 1,
                    Err(SendError::WouldBlock) => break,
                    Err(e) => panic!("node {i}: {e}"),
                }
            }
            all_sent &= *nx == MSGS;
        }
        cluster.drive_round();
        if all_sent && delivered.load(Ordering::Relaxed) == total {
            break;
        }
    }
    // Quiesce: trailing acks, retransmits and delayed frames all land.
    let mut settle = 0usize;
    while !(cluster.endpoints.iter().all(|e| e.is_quiescent())
        && cluster.shards.iter().all(|s| s.is_idle()))
    {
        cluster.drive_round();
        settle += 1;
        assert!(settle < SOAK_ITER_CAP, "cluster never quiesced");
    }

    let got = got.lock();
    for (i, stream) in got.iter().enumerate() {
        assert_eq!(stream.len(), MSGS as usize, "node {i} delivery count");
        for (k, &v) in stream.iter().enumerate() {
            assert_eq!(v, k as u32, "node {i} out of order at {k}");
        }
    }
    let injected: u64 = cluster
        .endpoints
        .iter()
        .map(|e| {
            let f = e.fault_stats().expect("injector attached");
            f.dropped + f.duplicated + f.corrupted + f.delayed
        })
        .sum();
    assert!(
        injected > 100,
        "5% over {total} sends must fire often: {injected}"
    );
    let retransmitted: u64 = cluster
        .endpoints
        .iter()
        .map(|e| e.stats().retransmitted)
        .sum();
    assert!(retransmitted > 0, "drops must be recovered by timers");
}

/// The 7→1 incast of `incast_arbitration.rs` (window 32, ring 8, a
/// receiver that delivers two messages a round) under 2 % drop / dup /
/// delay. The senders overrun the receiver, so frames park beyond the ack
/// reach: their timer resends bounce until the in-order point catches up,
/// while frames lost behind them are repaired from acks. Exactly once, in
/// order per source, then quiescence.
#[test]
fn switched_incast_2pct_faults_exactly_once() {
    const HOSTS: usize = 8;
    const MSGS: u32 = 1_500;
    let cfg = EndpointConfig {
        recv_ring: 8,
        retransmit_per_extract: 8,
        ..soak_config()
    };
    let faults = FaultConfig {
        seed: 0x1CA5_7002,
        default: fm_core::LinkFaults {
            drop: 0.02,
            dup: 0.02,
            delay: 0.02,
            ..fm_core::LinkFaults::NONE
        },
        ..Default::default()
    };
    let topo = SwitchTopology::for_cluster_wide(HOSTS);
    let mut cluster = SwitchedCluster::with_faults(&topo, cfg, faults);
    let got: Arc<Mutex<Vec<Vec<u32>>>> = Arc::new(Mutex::new(vec![Vec::new(); HOSTS]));
    let g = got.clone();
    cluster.endpoints[0].register_handler_at(HandlerId(1), move |_, src, data| {
        g.lock()[src.index()].push(u32::from_le_bytes(data.try_into().unwrap()));
    });

    let total = (HOSTS - 1) * MSGS as usize;
    let delivered = || got.lock().iter().map(Vec::len).sum::<usize>();
    let mut next = [0u32; HOSTS];
    let mut iters = 0usize;
    while delivered() < total {
        iters += 1;
        assert!(
            iters < SOAK_ITER_CAP,
            "incast wedged at {}/{total}",
            delivered()
        );
        for (src, nx) in next.iter_mut().enumerate().skip(1) {
            while *nx < MSGS {
                match cluster.endpoints[src].try_send(NodeId(0), HandlerId(1), &nx.to_le_bytes()) {
                    Ok(()) => *nx += 1,
                    Err(SendError::WouldBlock) => break,
                    Err(e) => panic!("sender {src}: {e}"),
                }
            }
        }
        cluster.endpoints[0].extract_budget(2);
        for ep in &mut cluster.endpoints[1..] {
            ep.service();
        }
        for shard in &mut cluster.shards {
            shard.pump();
        }
    }
    let mut settle = 0usize;
    while !(cluster.endpoints.iter().all(|e| e.is_quiescent())
        && cluster.shards.iter().all(|s| s.is_idle()))
    {
        cluster.drive_round();
        settle += 1;
        assert!(settle < SOAK_ITER_CAP, "incast never quiesced");
    }

    for (src, stream) in got.lock().iter().enumerate().skip(1) {
        assert_eq!(stream.len(), MSGS as usize, "sender {src} delivery count");
        for (k, &v) in stream.iter().enumerate() {
            assert_eq!(v, k as u32, "sender {src} out of order at {k}");
        }
    }
    let senders: Vec<EndpointStats> = cluster.endpoints[1..].iter().map(|e| e.stats()).collect();
    assert!(
        senders.iter().map(|s| s.gap_retransmits).sum::<u64>() > 0,
        "hole repair never fired: {senders:?}"
    );
    for (src, ep) in cluster.endpoints.iter().enumerate().skip(1) {
        assert!(!ep.is_peer_dead(NodeId(0)), "sender {src} gave up");
    }
}

/// Dead-peer isolation at switch scale: one of 16 hosts is stalled (its
/// inbound links blackhole) and never driven, while the other 15 stream
/// through the same switches. The senders to the dead host must burn
/// their retry budget and fail fast with [`SendError::PeerUnreachable`];
/// every live stream must complete exactly once and in order; nothing may
/// wedge.
#[test]
fn switched_dead_node_does_not_wedge_the_other_15() {
    const N: usize = 16;
    const DEAD: usize = 11; // last host on the middle switch
    const MSGS: u32 = 200;
    let cfg = EndpointConfig {
        window: 16,
        recv_ring: 16,
        rto_initial: 8,
        rto_max: 64,
        retry_budget: 4,
        ..Default::default()
    };
    let topo = SwitchTopology::for_cluster(N);
    let faults = FaultConfig::new(99).stall(NodeId(DEAD as u16));
    let mut cluster = SwitchedCluster::with_faults(&topo, cfg, faults);

    // Live streams: i -> next live host (skipping the dead one). Still
    // injective over live nodes, so each receiver sees one source.
    let dst_of = |i: usize| {
        let d = (i + 1) % N;
        if d == DEAD {
            (i + 2) % N
        } else {
            d
        }
    };
    let got: Arc<Mutex<Vec<Vec<u32>>>> = Arc::new(Mutex::new(vec![Vec::new(); N]));
    let delivered = Arc::new(AtomicU64::new(0));
    for (i, ep) in cluster.endpoints.iter_mut().enumerate() {
        let got = got.clone();
        let delivered = delivered.clone();
        ep.register_handler_at(HandlerId(1), move |_, _, data| {
            got.lock()[i].push(u32::from_le_bytes(data.try_into().unwrap()));
            delivered.fetch_add(1, Ordering::Relaxed);
        });
    }

    // Optimistic sends toward the dead host occupy window slots until the
    // retry budget gives up on them.
    for _ in 0..4 {
        cluster.endpoints[DEAD - 1]
            .try_send(NodeId(DEAD as u16), HandlerId(1), b"any\0")
            .unwrap();
    }

    let total = (N as u64 - 1) * MSGS as u64;
    let mut next = [0u32; N];
    let mut iters = 0usize;
    loop {
        iters += 1;
        assert!(
            iters < SOAK_ITER_CAP,
            "dead node wedged the cluster at {}/{total} delivered",
            delivered.load(Ordering::Relaxed)
        );
        let mut all_sent = true;
        for i in (0..N).filter(|&i| i != DEAD) {
            while next[i] < MSGS {
                match cluster.endpoints[i].try_send(
                    NodeId(dst_of(i) as u16),
                    HandlerId(1),
                    &next[i].to_le_bytes(),
                ) {
                    Ok(()) => next[i] += 1,
                    Err(SendError::WouldBlock) => break,
                    Err(e) => panic!("live node {i}: {e}"),
                }
            }
            all_sent &= next[i] == MSGS;
        }
        for i in (0..N).filter(|&i| i != DEAD) {
            cluster.endpoints[i].extract(); // the dead host is never driven
        }
        for shard in &mut cluster.shards {
            shard.pump();
        }
        if all_sent
            && delivered.load(Ordering::Relaxed) == total
            && cluster.endpoints[DEAD - 1].is_peer_dead(NodeId(DEAD as u16))
        {
            break;
        }
    }

    // The sender next to the dead host failed fast...
    assert!(cluster.endpoints[DEAD - 1].stats().unreachable_drops > 0);
    assert_eq!(
        cluster.endpoints[DEAD - 1].try_send(NodeId(DEAD as u16), HandlerId(1), b"gone"),
        Err(SendError::PeerUnreachable(NodeId(DEAD as u16)))
    );
    // ...and no live peer was mistaken for dead anywhere.
    for i in (0..N).filter(|&i| i != DEAD) {
        assert!(
            !cluster.endpoints[i].is_peer_dead(NodeId(dst_of(i) as u16)),
            "node {i} wrongly declared its live peer dead"
        );
    }
    let got = got.lock();
    for (i, stream) in got.iter().enumerate() {
        if i == DEAD {
            assert!(stream.is_empty(), "the dead host extracted nothing");
            continue;
        }
        // The skip map routes exactly one live stream to every live node.
        assert_eq!(stream.len(), MSGS as usize, "node {i} delivery count");
        for (k, &v) in stream.iter().enumerate() {
            assert_eq!(v, k as u32, "node {i} out of order at {k}");
        }
    }
}

/// Dropping the runner (instead of calling `shutdown`) must also stop and
/// join the threads rather than leaking them.
#[test]
fn cluster_runner_drop_stops_threads() {
    let mut nodes = MemCluster::new(2);
    let pings = Arc::new(AtomicU64::new(0));
    let p = pings.clone();
    let h = nodes[1].register_handler(move |_, _, _| {
        p.fetch_add(1, Ordering::Relaxed);
    });
    nodes[0].send(NodeId(1), h, b"ping");
    {
        let _runner = ClusterRunner::start(nodes);
        std::thread::sleep(Duration::from_millis(20));
    } // Drop joins here; a deadlock would hang the test harness.
    assert_eq!(pings.load(Ordering::Relaxed), 1);
}
