//! Integration tests for fm-mpi on the switch-routed fabric: the
//! topology-aware collectives across multi-switch wirings, the
//! collective-tag epoch wrap, and the handler-before-extract construction
//! guard for externally wired endpoints.

use fm_core::endpoint::EndpointConfig;
use fm_core::{HandlerId, NodeId, SwitchRunner, SwitchTopology, SwitchedCluster};
use fm_mpi::matching::Envelope;
use fm_mpi::{Communicator, MpiCluster, ReduceOp, Tag};

fn run_comms<T: Send + 'static>(
    comms: Vec<Communicator>,
    f: impl Fn(&mut Communicator) -> T + Send + Sync + Clone + 'static,
) -> Vec<T> {
    let handles: Vec<_> = comms
        .into_iter()
        .map(|mut c| {
            let f = f.clone();
            std::thread::spawn(move || {
                let out = f(&mut c);
                // Drain trailing acks so the shard threads can park.
                for _ in 0..10 {
                    c.progress();
                    std::thread::yield_now();
                }
                (c.rank(), out)
            })
        })
        .collect();
    let mut results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("rank"))
        .collect();
    results.sort_by_key(|(r, _)| *r);
    results.into_iter().map(|(_, t)| t).collect()
}

/// The full collective suite on a 12-rank two-switch chain: every payload
/// crossing the trunk at most once per direction is the tentpole claim;
/// here we check the *answers* stay right when the tree spans switches.
#[test]
fn chain_cluster_collectives_agree() {
    let out = run_comms(MpiCluster::switched(12), |c| {
        c.barrier();
        let b = c.bcast(3, &if c.rank() == 3 { vec![7u8; 33] } else { vec![] });
        let r = c.reduce(5, &[c.rank() as f64, 1.0], ReduceOp::Sum).unwrap();
        let a = c.allreduce(&[c.rank() as f64], ReduceOp::Max).unwrap();
        c.barrier();
        (b, r, a)
    });
    let sum: f64 = (0..12).map(|r| r as f64).sum();
    for (rank, (b, r, a)) in out.iter().enumerate() {
        assert_eq!(b, &vec![7u8; 33], "rank {rank} bcast");
        if rank == 5 {
            assert_eq!(r, &Some(vec![sum, 12.0]), "root reduce");
        } else {
            assert!(r.is_none(), "rank {rank} is not the reduce root");
        }
        assert_eq!(a, &vec![11.0], "rank {rank} allreduce");
    }
}

/// 16 ranks on the fat tree: power-of-two size takes the
/// recursive-doubling allreduce path across spines, and every rank must
/// end with bit-identical bytes.
#[test]
fn fat_tree_allreduce_is_bit_identical() {
    let out = run_comms(MpiCluster::switched_wide(16), |c| {
        // Awkward values whose sum depends on order in general — recursive
        // doubling's symmetric pairing makes every rank compute the same
        // combination order anyway.
        let mine = vec![
            (c.rank() as f64 + 0.1) * 1e10,
            1.0 / (c.rank() as f64 + 3.0),
        ];
        let v = c.allreduce(&mine, ReduceOp::Sum).unwrap();
        c.barrier();
        v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
    });
    for (rank, bits) in out.iter().enumerate() {
        assert_eq!(bits, &out[0], "rank {rank} drifted from rank 0");
    }
}

/// Gather/scatter/alltoall still work when the wiring is a multi-switch
/// chain (they are rank-space algorithms riding the same fabric).
#[test]
fn chain_cluster_data_movement() {
    let n = 12usize;
    let out = run_comms(MpiCluster::switched(n), move |c| {
        let me = c.rank();
        let chunks: Option<Vec<Vec<u8>>> =
            (me == 0).then(|| (0..n).map(|r| vec![r as u8; 4]).collect());
        let mine = c.scatter(0, chunks.as_deref());
        let rows = c.gather(11, &mine);
        c.barrier();
        (mine, rows)
    });
    for (rank, (mine, _)) in out.iter().enumerate() {
        assert_eq!(mine, &vec![rank as u8; 4]);
    }
    let rows = out[11].1.as_ref().expect("rank 11 gathered");
    for (src, row) in rows.iter().enumerate() {
        assert_eq!(row, &vec![src as u8; 4]);
    }
}

/// Regression for the collective-tag overflow: sub-spaces are 0x1000 tags
/// apart, and before the epoch wrap a long-running job's 4096th barrier
/// aliased into the bcast space. Run well past 4096 collectives,
/// interleaving kinds, with epoch-stamped payload checks.
#[test]
fn tag_epochs_survive_4096_collectives() {
    let out = run_comms(MpiCluster::new(3), |c| {
        let mut checked = 0u32;
        for epoch in 0..4104u32 {
            c.barrier();
            let payload = if c.rank() == 0 {
                epoch.to_le_bytes().to_vec()
            } else {
                vec![]
            };
            let got = c.bcast(0, &payload);
            assert_eq!(
                u32::from_le_bytes(got.try_into().expect("4B")),
                epoch,
                "bcast crossed epochs after the tag wrap"
            );
            checked += 1;
        }
        checked
    });
    assert_eq!(out, vec![4104, 4104, 4104]);
}

/// The reduce path wraps too: alternate reduce and allreduce past the
/// wrap point and keep verifying results.
#[test]
fn reduce_epochs_survive_the_wrap() {
    let out = run_comms(MpiCluster::new(2), |c| {
        for epoch in 0..4100u32 {
            let v = c
                .allreduce(&[c.rank() as f64 + epoch as f64], ReduceOp::Sum)
                .unwrap();
            assert_eq!(v, vec![2.0 * epoch as f64 + 1.0], "epoch {epoch}");
        }
        true
    });
    assert_eq!(out, vec![true, true]);
}

/// Build a switched cluster by hand, fire an eager MPI message at an
/// endpoint that has not been wrapped yet, and only then adopt it. The
/// frame must sit in the fabric/ring until the first extract *after*
/// registration — and then deliver exactly once.
#[test]
fn adopting_an_unwrapped_endpoint_races_an_eager_sender() {
    let topo = SwitchTopology::for_cluster(4);
    let cluster = SwitchedCluster::with_switch_config(
        &topo,
        EndpointConfig {
            window: 64,
            recv_ring: 256,
            ..Default::default()
        },
        Default::default(),
    );
    let (mut endpoints, shards) = cluster.split();
    let runner = SwitchRunner::start(shards);
    let ep1 = endpoints.remove(1);
    let mut ep0 = endpoints.remove(0);

    // Eager sender: a fully formed MPI envelope leaves rank 0 before rank
    // 1 has any handler registered.
    let env = Envelope {
        tag: Tag(5),
        seq: 0,
        src: 0,
        data: b"early bird".to_vec(),
    };
    ep0.send_large(NodeId(1), HandlerId(0), &env.encode())
        .expect("send from rank 0");
    // Let the fabric carry it to rank 1's downlink.
    for _ in 0..50 {
        ep0.extract();
        std::thread::yield_now();
    }

    // Adoption registers the handler before rank 1's first extract, so
    // the guard passes and the message is still deliverable.
    let mut c1 = Communicator::adopt(ep1, 4);
    let (src, tag, data) = c1.recv(Some(0), Some(Tag(5)));
    assert_eq!((src, tag, data.as_slice()), (0, Tag(5), &b"early bird"[..]));
    assert_eq!(c1.match_pending(), 0, "nothing left over");
    // Drain the delivery ack back to rank 0.
    for _ in 0..50 {
        ep0.extract();
        c1.progress();
        std::thread::yield_now();
    }
    drop(runner);
}

/// The other side of the race: extracting before handlers register
/// consumes (and acks) the data frame as unknown-handler — a silent,
/// unrecoverable loss. `adopt` must refuse such an endpoint loudly.
#[test]
#[should_panic(expected = "handlers must register before the first extract")]
fn adopt_rejects_an_endpoint_that_already_extracted() {
    let topo = SwitchTopology::for_cluster(2);
    let cluster =
        SwitchedCluster::with_switch_config(&topo, EndpointConfig::default(), Default::default());
    let (mut endpoints, shards) = cluster.split();
    let runner = SwitchRunner::start(shards);
    let mut ep1 = endpoints.remove(1);
    let mut ep0 = endpoints.remove(0);

    let env = Envelope {
        tag: Tag(5),
        seq: 0,
        src: 0,
        data: b"lost".to_vec(),
    };
    ep0.send_large(NodeId(1), HandlerId(0), &env.encode())
        .expect("send from rank 0");
    // The bug being guarded against: extract with an empty handler table.
    for _ in 0..10_000 {
        ep0.extract();
        ep1.extract();
        if ep1.stats().unknown_handler > 0 || ep1.stats().delivered > 0 {
            break;
        }
        std::thread::yield_now();
    }
    assert!(
        ep1.stats().unknown_handler > 0 || ep1.stats().delivered > 0,
        "frame never arrived; cannot exercise the guard"
    );
    drop(runner);
    let _ = Communicator::adopt(ep1, 2); // panics
}

/// Malformed reduce contributions surface as an error at the MPI level on
/// the switched wiring too (release-guard policy: a peer's bug is
/// reported, not aborted on). Rank 1 calls the collective with the wrong
/// vector length; rank 0 must get `LengthMismatch`, not a panic.
#[test]
fn switched_mismatched_reduce_is_an_error() {
    let out = run_comms(MpiCluster::switched(4), |c| {
        let mine = if c.rank() == 1 {
            vec![1.0, 2.0] // wrong length
        } else {
            vec![1.0]
        };
        c.reduce(0, &mine, ReduceOp::Sum).map(|_| ())
    });
    assert_eq!(
        out[0],
        Err(fm_mpi::MpiError::LengthMismatch {
            src: 1,
            got: 2,
            expect: 1
        }),
        "rank 0 must report the peer's bad contribution"
    );
}
