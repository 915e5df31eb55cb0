//! Stress tests of the real threaded FM library: randomized traffic,
//! overload, many nodes — asserting the protocol's core guarantees
//! (exactly-once delivery, bounded sender memory, quiescence).

use fm_core::endpoint::EndpointConfig;
use fm_core::mem::MemCluster;
use fm_core::{HandlerId, NodeId};
use fm_des::rng::Xoshiro256;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// All-to-all randomized short messages across threads: every message
/// delivered exactly once, to the right node, with intact content.
#[test]
fn random_all_to_all_exactly_once() {
    const NODES: usize = 4;
    const PER_NODE: u64 = 300;
    let nodes = MemCluster::new(NODES);
    // seen[dst] collects (src, serial) pairs delivered at dst.
    type SeenPerNode = Vec<Mutex<HashSet<(u16, u64)>>>;
    let seen: Arc<SeenPerNode> = Arc::new((0..NODES).map(|_| Mutex::new(HashSet::new())).collect());
    let delivered = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = nodes
        .into_iter()
        .map(|mut ep| {
            let seen = seen.clone();
            let delivered = delivered.clone();
            std::thread::spawn(move || {
                let me = ep.node_id();
                let my_seen = seen.clone();
                let d2 = delivered.clone();
                ep.register_handler_at(HandlerId(1), move |_, src, data| {
                    let serial = u64::from_le_bytes(data[..8].try_into().expect("8B"));
                    // Payload body must be the serial repeated.
                    assert!(data[8..].iter().all(|&b| b == (serial % 251) as u8));
                    let fresh = my_seen[me.index()].lock().insert((src.0, serial));
                    assert!(fresh, "duplicate delivery ({src}, {serial}) at {me}");
                    d2.fetch_add(1, Ordering::Relaxed);
                });
                let mut rng = Xoshiro256::seed_from_u64(me.0 as u64 * 7919 + 13);
                for serial in 0..PER_NODE {
                    let dst = loop {
                        let d = rng.next_below(NODES as u64) as u16;
                        if d != me.0 {
                            break d;
                        }
                    };
                    let body_len = rng.next_below(120) as usize;
                    let mut msg = serial.to_le_bytes().to_vec();
                    msg.extend(std::iter::repeat_n((serial % 251) as u8, body_len));
                    ep.send(NodeId(dst), HandlerId(1), &msg);
                    if serial % 7 == 0 {
                        ep.extract();
                    }
                }
                // Keep servicing until the whole cluster is done.
                while delivered.load(Ordering::Relaxed) < (NODES as u64) * PER_NODE {
                    ep.extract();
                    std::thread::yield_now();
                }
                for _ in 0..20 {
                    ep.extract();
                    std::thread::yield_now();
                }
                ep.stats()
            })
        })
        .collect();

    let stats: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("node"))
        .collect();
    assert_eq!(delivered.load(Ordering::Relaxed), NODES as u64 * PER_NODE);
    let total_sent: u64 = stats.iter().map(|s| s.sent).sum();
    assert_eq!(total_sent, NODES as u64 * PER_NODE);
    let total: usize = seen.iter().map(|s| s.lock().len()).sum();
    assert_eq!(total, (NODES as u64 * PER_NODE) as usize);
}

/// Overload with a tiny ring and window on one thread: heavy rejection and
/// retransmission traffic, but zero loss, zero duplication, and sender
/// memory bounded by the window.
#[test]
fn single_thread_overload_torture() {
    let mut nodes = MemCluster::with_config(
        2,
        EndpointConfig {
            window: 8,
            recv_ring: 3,
            retransmit_per_extract: 2,
            ..Default::default()
        },
    );
    let mut b = nodes.pop().expect("node 1");
    let mut a = nodes.pop().expect("node 0");
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let s2 = seen.clone();
    let h = b.register_handler(move |_, _, data| {
        let v = u32::from_le_bytes(data.try_into().expect("4B"));
        assert!(s2.lock().insert(v), "duplicate {v}");
    });

    const TOTAL: u32 = 500;
    let mut next = 0u32;
    let mut rng = Xoshiro256::seed_from_u64(99);
    let mut guard = 0u32;
    while seen.lock().len() < TOTAL as usize {
        // Push as hard as the window allows.
        while next < TOTAL && a.try_send(NodeId(1), h, &next.to_le_bytes()).is_ok() {
            next += 1;
        }
        assert!(a.outstanding() <= 8, "window must bound sender memory");
        // Receiver extracts a random trickle.
        b.extract_budget(rng.next_below(3) as usize + 1);
        a.service();
        guard += 1;
        assert!(guard < 100_000, "no progress");
    }
    assert!(b.stats().rejected > 0, "torture must cause rejections");
    assert!(a.stats().retransmitted > 0);
    assert_eq!(seen.lock().len(), TOTAL as usize);
    // Quiesce completely.
    for _ in 0..50 {
        a.service();
        b.extract();
    }
    assert!(a.is_quiescent(), "{a:?}");
    assert!(b.is_quiescent(), "{b:?}");
}

/// Bidirectional saturation: both nodes blast at each other through small
/// windows; the blocking send's service loop must prevent deadlock.
#[test]
fn bidirectional_no_deadlock() {
    let mut nodes = MemCluster::with_config(
        2,
        EndpointConfig {
            window: 4,
            recv_ring: 8,
            retransmit_per_extract: 4,
            ..Default::default()
        },
    );
    let b = nodes.pop().expect("node 1");
    let a = nodes.pop().expect("node 0");
    const N: u64 = 400;
    let total = Arc::new(AtomicU64::new(0));

    let mk = |mut ep: fm_core::mem::MemEndpoint, total: Arc<AtomicU64>| {
        std::thread::spawn(move || {
            let t2 = total.clone();
            ep.register_handler_at(HandlerId(1), move |_, _, _| {
                t2.fetch_add(1, Ordering::Relaxed);
            });
            let peer = NodeId(1 - ep.node_id().0);
            for i in 0..N {
                ep.send(peer, HandlerId(1), &i.to_le_bytes());
            }
            while total.load(Ordering::Relaxed) < 2 * N {
                ep.extract();
                std::thread::yield_now();
            }
            for _ in 0..20 {
                ep.extract();
                std::thread::yield_now();
            }
        })
    };
    let ta = mk(a, total.clone());
    let tb = mk(b, total.clone());
    ta.join().expect("a");
    tb.join().expect("b");
    assert_eq!(total.load(Ordering::Relaxed), 2 * N);
}

/// Large messages interleaved from two senders to one receiver: the
/// segmentation layer must reassemble both correctly despite interleaving.
#[test]
fn interleaved_large_messages() {
    let mut nodes = MemCluster::new(3);
    let mut sink = nodes.pop().expect("node 2");
    let mut s1 = nodes.pop().expect("node 1");
    let mut s0 = nodes.pop().expect("node 0");

    let got = Arc::new(Mutex::new(Vec::new()));
    let g2 = got.clone();
    let lh = sink.register_large_handler(move |_, src, msg| {
        g2.lock().push((src, msg));
    });

    let m0: Vec<u8> = (0..30_000).map(|i| (i % 199) as u8).collect();
    let m1: Vec<u8> = (0..25_000).map(|i| (i % 173) as u8).collect();
    let (m0c, m1c) = (m0.clone(), m1.clone());
    let t0 = std::thread::spawn(move || s0.send_large(NodeId(2), lh, &m0c).expect("peer alive"));
    let t1 = std::thread::spawn(move || s1.send_large(NodeId(2), lh, &m1c).expect("peer alive"));
    while got.lock().len() < 2 {
        sink.extract();
        std::thread::yield_now();
    }
    t0.join().expect("s0");
    t1.join().expect("s1");
    let results = got.lock();
    for (src, msg) in results.iter() {
        match src.0 {
            0 => assert_eq!(msg, &m0),
            1 => assert_eq!(msg, &m1),
            other => panic!("unexpected source {other}"),
        }
    }
}
