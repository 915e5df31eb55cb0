//! Faulty cluster: the beyond-paper reliability layer at work.
//!
//! ```sh
//! cargo run --example faulty_cluster
//! ```
//!
//! The paper's Myrinet was a reliable network — FM 1.0 could assume the
//! wire never lost or corrupted a packet, so its only recovery mechanism
//! is return-to-sender flow control. This repository adds a reliability
//! layer (CRC32 trailers, per-source sequence windows, retransmission
//! timers, dead-peer detection) and a seeded fault injector to prove it:
//! here we run a two-node cluster over a wire that drops, duplicates,
//! corrupts and delays 5% of frames per category, and every message still
//! arrives exactly once and in order.
//!
//! Act two stalls a peer entirely: sends to it burn the bounded retry
//! budget, fail fast with `SendError::PeerUnreachable`, and the rest of
//! the cluster keeps flowing. Then the stall lifts and both ends reset the
//! link, the one way back from a peer declared dead.

use fm_repro::fm_core::{EndpointConfig, FabricKind, FaultConfig, SendError};
use fm_repro::prelude::*;

/// Messages per direction in the lossy-wire soak.
const MSGS: u32 = 1_000;

fn lossy_wire() {
    println!("== act 1: 5% drop + dup + corrupt + delay per link ==");

    // Tight timers suit the single-threaded drive loop below (each loop
    // iteration is one virtual tick per endpoint); the defaults are sized
    // for free-running threads instead.
    let config = EndpointConfig {
        window: 32,
        recv_ring: 32,
        rto_initial: 64,
        retry_budget: 32,
        ..Default::default()
    };
    // One seed fixes the entire fault schedule: rerunning this example
    // replays byte-identical drops, duplicates, corruptions and delays.
    let faults = FaultConfig::uniform(0xF00D_CAFE, 0.05);
    let mut nodes = MemCluster::with_faulty_fabric(2, config, FabricKind::Ring, faults);
    let mut b = nodes.pop().expect("node 1");
    let mut a = nodes.pop().expect("node 0");

    // The receiver's handler asserts it sees 0, 1, 2, ... with no gaps,
    // repeats or reordering — despite what the injector does below.
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    let received = Arc::new(AtomicU32::new(0));
    let count = |expected: Arc<AtomicU32>| {
        move |_outbox: &mut fm_repro::fm_core::Outbox, _src: NodeId, data: &[u8]| {
            let v = u32::from_le_bytes(data.try_into().expect("4-byte payload"));
            let want = expected.fetch_add(1, Ordering::Relaxed);
            assert_eq!(v, want, "delivery out of order or duplicated");
        }
    };
    // Both nodes register the same table so handler ids line up (like
    // linking the same binary on every workstation); only b's instance
    // runs, since all traffic flows a -> b.
    let ha = a.register_handler(count(Arc::new(AtomicU32::new(0))));
    let hb = b.register_handler(count(received.clone()));
    assert_eq!(ha, hb, "symmetric registration gives symmetric ids");

    // a streams MSGS messages at b; try_send + extract in a round-robin
    // keeps both sides' timers ticking.
    let mut sent = 0u32;
    while sent < MSGS
        || received.load(Ordering::Relaxed) < MSGS
        || !a.is_quiescent()
        || !b.is_quiescent()
    {
        if sent < MSGS && a.try_send(NodeId(1), hb, &sent.to_le_bytes()).is_ok() {
            sent += 1;
        }
        a.extract();
        b.extract();
    }

    let (sa, sb) = (a.stats(), b.stats());
    let inj = a.fault_stats().expect("injector attached");
    println!(
        "  injected : {} dropped, {} duplicated, {} corrupted, {} delayed ({} passed clean)",
        inj.dropped, inj.duplicated, inj.corrupted, inj.delayed, inj.passed
    );
    println!(
        "  recovered: {} timer retransmits, {} duplicates suppressed, {} CRC rejects",
        sa.timer_retransmits, sb.duplicates, sb.corrupt
    );
    println!(
        "  delivered: {}/{MSGS} exactly once, in order",
        received.load(Ordering::Relaxed)
    );
}

fn stalled_peer() {
    println!("== act 2: peer 2 stalls; the cluster degrades gracefully ==");

    let config = EndpointConfig {
        rto_initial: 8, // fail fast for the demo
        retry_budget: 4,
        ..Default::default()
    };
    // Node 2 is blackholed: every frame to or from it vanishes.
    let faults = FaultConfig::new(0xDEAD).stall(NodeId(2));
    let mut nodes = MemCluster::with_faulty_fabric(3, config, FabricKind::Ring, faults);
    let mut dead = nodes.pop().expect("node 2 (stalled)");
    let mut live = nodes.pop().expect("node 1");
    let mut origin = nodes.pop().expect("node 0");

    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    let back = Arc::new(AtomicU32::new(0));
    let k = back.clone();
    let h = origin.register_handler(|_, _, _| {});
    assert_eq!(h, live.register_handler(|_, _, _| {}));
    assert_eq!(
        h,
        dead.register_handler(move |_, _, _| {
            k.fetch_add(1, Ordering::Relaxed);
        })
    );

    // Sends to the stalled node are accepted until the retransmission
    // timers burn the retry budget and declare it dead...
    let _ = origin.try_send(NodeId(2), h, b"anyone home?");
    let verdict = loop {
        origin.extract();
        live.extract();
        match origin.try_send(NodeId(2), h, b"hello?") {
            Ok(()) | Err(SendError::WouldBlock) => continue,
            Err(e) => break e,
        }
    };
    println!("  send to stalled peer: {verdict}");
    assert!(matches!(verdict, SendError::PeerUnreachable(NodeId(2))));
    println!(
        "  frames purged for the dead peer: {}",
        origin.stats().unreachable_drops
    );

    // ...while traffic to the live peer is unaffected:
    origin.send(NodeId(1), h, b"still flowing");
    while live.extract() == 0 {}
    println!("  live peer still receiving: ok");

    // The peer recovers: lift the stall (a clean injector everywhere) and
    // drain the fabric. Frames were purged both ways when it was declared
    // dead, so the old streams have a hole neither end will fill; a reset
    // at both ends starts new ones.
    for ep in [&mut origin, &mut live, &mut dead] {
        ep.inject_faults(&FaultConfig::new(0xDEAD));
    }
    for _ in 0..64 {
        origin.extract();
        live.extract();
        dead.extract();
    }
    origin.reset_peer(NodeId(2));
    dead.reset_peer(NodeId(0));
    for i in 0..8u8 {
        origin.send(NodeId(2), h, &[i]);
    }
    let mut rounds = 0;
    while back.load(Ordering::Relaxed) < 8 || !origin.is_quiescent() || !dead.is_quiescent() {
        rounds += 1;
        assert!(rounds < 2_000, "the reset peer wedged");
        origin.extract();
        dead.extract();
    }
    for _ in 0..64 {
        origin.extract();
        dead.extract();
    }
    assert_eq!(
        back.load(Ordering::Relaxed),
        8,
        "each delivered exactly once"
    );
    assert_eq!((origin.recv_buffered(), dead.recv_buffered()), (0, 0));
    assert!(origin.is_quiescent() && dead.is_quiescent());
    println!("  after reset_peer at both ends: 8/8 delivered exactly once");
}

fn main() {
    lossy_wire();
    stalled_peer();
}
