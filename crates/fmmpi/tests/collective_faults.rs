//! MPI collectives under lossy fabric: a fixed-seed soak on a 16-endpoint
//! switched cluster with 5% per-frame drop/duplicate/corrupt on every
//! link. FM's protocol machinery (checksums, retransmit, per-source
//! windows) plus the MPI sequence layer must deliver every collective
//! exactly once: identical allreduce bytes on every rank, no stray
//! messages left in any matching queue, and the endpoint ledgers clean.

use fm_core::endpoint::EndpointConfig;
use fm_core::{FaultConfig, SwitchTopology};
use fm_mpi::{Communicator, MpiCluster, ReduceOp};

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
