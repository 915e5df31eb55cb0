//! MPI collectives under lossy fabric: a fixed-seed soak on a 16-endpoint
//! switched cluster with 5% per-frame drop/duplicate/corrupt on every
//! link. FM's protocol machinery (checksums, retransmit, per-source
//! windows) plus the MPI sequence layer must deliver every collective
//! exactly once: identical allreduce bytes on every rank, no stray
//! messages left in any matching queue, and the endpoint ledgers clean.

use fm_core::endpoint::EndpointConfig;
use fm_core::{FaultConfig, SwitchTopology};
use fm_mpi::{Communicator, MpiCluster, ReduceOp, Tag};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const RANKS: usize = 16;
const ROUNDS: usize = 40;
const SEED: u64 = 0xFACE_0FF5;

#[test]
fn collectives_survive_5pct_faults_exactly_once() {
    let topo = SwitchTopology::for_cluster(RANKS);
    let comms = MpiCluster::switched_with_faults(
        &topo,
        EndpointConfig {
            window: 256,
            recv_ring: 1024,
            ..Default::default()
        },
        FaultConfig::uniform(SEED, 0.05),
    );

    let handles: Vec<_> = comms
        .into_iter()
        .map(|mut c: Communicator| {
            std::thread::spawn(move || {
                let mut sums = Vec::with_capacity(ROUNDS);
                for round in 0..ROUNDS {
                    c.barrier();
                    // Values vary per round so a replayed stale payload
                    // cannot masquerade as the current epoch's.
                    let mine = [c.rank() as f64 + round as f64, (round as f64) * 0.5];
                    let v = c
                        .allreduce(&mine, ReduceOp::Sum)
                        .expect("aligned contributions despite corruption faults");
                    sums.push(v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>());
                }
                c.barrier();
                // Quiesce: drain retransmits and trailing acks.
                for _ in 0..200 {
                    c.progress();
                    std::thread::yield_now();
                }
                let pending = c.match_pending();
                let retransmitted = c.fm_stats().retransmitted;
                (c.rank(), sums, pending, retransmitted)
            })
        })
        .collect();

    let mut rows: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("rank"))
        .collect();
    rows.sort_by_key(|r| r.0);

    // Ground truth, bit-exact: recursive doubling combines in the same
    // order on every rank, and sums of small integers are exact anyway.
    for round in 0..ROUNDS {
        let expect_a: f64 = (0..RANKS).map(|r| r as f64 + round as f64).sum();
        let expect_b = (round as f64) * 0.5 * RANKS as f64;
        let expect = vec![expect_a.to_bits(), expect_b.to_bits()];
        for (rank, sums, _, _) in &rows {
            assert_eq!(
                sums[round], expect,
                "rank {rank} round {round}: faults changed a reduction"
            );
        }
    }

    // Exactly once: nothing duplicated (it would linger in a matching
    // queue unmatched), nothing lost (the collectives would have hung).
    for (rank, _, pending, _) in &rows {
        assert_eq!(*pending, 0, "rank {rank} has leftover matched messages");
    }

    // The soak must actually have exercised the repair path: with 5% per
    // link across 40 rounds of 16-rank collectives, dropped or corrupted
    // frames forced retransmissions somewhere.
    let total_retransmitted: u64 = rows.iter().map(|(_, _, _, r)| *r).sum();
    assert!(
        total_retransmitted > 0,
        "no retransmissions observed — faults were not injected?"
    );
}

/// MPI's non-overtaking rule across the two send paths: 4-KiB messages go
/// through segmentation (37 frames each, any of which the fabric may drop,
/// duplicate, corrupt or delay) and the 16-B messages between them ride
/// one frame each, so a short message routinely reaches the matching queue
/// before the long one sent ahead of it. Both draw one per-destination
/// sequence number and meet in one matching queue, so the receiver still
/// sees send order.
#[test]
fn one_frame_and_segmented_messages_do_not_overtake_each_other() {
    const MESSAGES: usize = 400;
    const TAG: Tag = Tag(7);
    fn payload(i: usize) -> Vec<u8> {
        let len = if i.is_multiple_of(2) { 4096 } else { 16 };
        (0..len).map(|b| (b * 3 + i * 31) as u8).collect()
    }

    let mut comms = MpiCluster::switched_with_faults(
        &SwitchTopology::for_cluster(2),
        EndpointConfig {
            window: 256,
            recv_ring: 1024,
            ..Default::default()
        },
        FaultConfig::uniform(SEED, 0.05),
    );
    let mut c1 = comms.pop().expect("rank 1");
    let mut c0 = comms.pop().expect("rank 0");
    let received_all = Arc::new(AtomicBool::new(false));
    let stop = received_all.clone();
    let sender = std::thread::spawn(move || {
        for i in 0..MESSAGES {
            c0.send(1, TAG, &payload(i));
        }
        // Keep retransmitting until the receiver has everything.
        while !stop.load(Ordering::SeqCst) {
            c0.progress();
            std::thread::yield_now();
        }
        c0.fm_stats().retransmitted
    });
    for i in 0..MESSAGES {
        let (src, tag, data) = c1.recv(Some(0), Some(TAG));
        assert_eq!((src, tag), (0, TAG));
        assert!(data == payload(i), "message {i} was overtaken or damaged");
    }
    received_all.store(true, Ordering::SeqCst);
    let retransmitted = sender.join().expect("rank 0");
    assert_eq!(c1.match_pending(), 0, "leftover matched messages");
    assert_eq!((c1.stale_messages(), c1.malformed_messages()), (0, 0));
    assert!(retransmitted > 0, "faults were not injected?");
    // A frame handler runs inside the extract that a completed large
    // message is only dispatched after, so the overtaking is routine.
    assert!(
        c1.reordered_messages() > 0,
        "no short message arrived ahead of its predecessor — nothing was repaired"
    );
}
