//! An application-shaped integration test for the MPI layer: a distributed
//! dot product with verification against the serial answer, plus a
//! scatter/compute/gather round — the usage pattern the paper's Section 7
//! plans FM-MPI for.

use fm_mpi::{MpiCluster, ReduceOp, Tag};

const RANKS: usize = 4;
const N: usize = 1024;

fn spawn_ranks<T: Send + 'static>(
    n: usize,
    f: impl Fn(&mut fm_mpi::Communicator) -> T + Send + Sync + Clone + 'static,
) -> Vec<T> {
    let comms = MpiCluster::new(n);
    let handles: Vec<_> = comms
        .into_iter()
        .map(|mut c| {
            let f = f.clone();
            std::thread::spawn(move || {
                let out = f(&mut c);
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

fn serial_vectors() -> (Vec<f64>, Vec<f64>) {
    let x: Vec<f64> = (0..N).map(|i| (i as f64 * 0.37).sin()).collect();
    let y: Vec<f64> = (0..N).map(|i| (i as f64 * 0.11).cos()).collect();
    (x, y)
}

#[test]
fn distributed_dot_product_matches_serial() {
    let (x, y) = serial_vectors();
    let serial: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();

    let outs = spawn_ranks(RANKS, move |c| {
        let me = c.rank() as usize;
        let chunk = N / c.size();
        let (x, y) = serial_vectors();
        let local: f64 = x[me * chunk..(me + 1) * chunk]
            .iter()
            .zip(&y[me * chunk..(me + 1) * chunk])
            .map(|(a, b)| a * b)
            .sum();
        c.allreduce(&[local], ReduceOp::Sum)
            .expect("aligned contributions")[0]
    });
    for got in outs {
        assert!(
            (got - serial).abs() < 1e-9,
            "distributed {got} vs serial {serial}"
        );
    }
}

#[test]
fn scatter_compute_gather_pipeline() {
    let outs = spawn_ranks(RANKS, |c| {
        // Root scatters blocks of u8s; each rank squares (mod 256) its
        // block; root gathers.
        let chunks: Option<Vec<Vec<u8>>> = if c.rank() == 0 {
            Some(
                (0..RANKS)
                    .map(|r| (0..16).map(|i| (r * 16 + i) as u8).collect())
                    .collect(),
            )
        } else {
            None
        };
        let mine = c.scatter(0, chunks.as_deref());
        let squared: Vec<u8> = mine.iter().map(|&v| v.wrapping_mul(v)).collect();
        c.gather(0, &squared)
    });
    let rows = outs[0].as_ref().expect("root gathered");
    assert_eq!(rows.len(), RANKS);
    for (r, row) in rows.iter().enumerate() {
        for (i, &v) in row.iter().enumerate() {
            let orig = (r * 16 + i) as u8;
            assert_eq!(v, orig.wrapping_mul(orig));
        }
    }
    for o in &outs[1..] {
        assert!(o.is_none());
    }
}

#[test]
fn mixed_traffic_with_wildcards() {
    let outs = spawn_ranks(3, |c| {
        match c.rank() {
            0 => {
                // Send two tagged streams to rank 2, interleaved.
                for i in 0..10u32 {
                    c.send(2, Tag(1), &i.to_le_bytes());
                    c.send(2, Tag(2), &(i * 100).to_le_bytes());
                }
                c.barrier();
                0
            }
            1 => {
                for i in 0..5u32 {
                    c.send(2, Tag(1), &(i + 1000).to_le_bytes());
                }
                c.barrier();
                0
            }
            _ => {
                // Tag-1 messages from anyone: 15 total; rank-0 stream must
                // arrive in order relative to itself.
                let mut zero_stream = Vec::new();
                let mut one_count = 0;
                for _ in 0..15 {
                    let (src, _, d) = c.recv(None, Some(Tag(1)));
                    let v = u32::from_le_bytes(d.try_into().expect("4B"));
                    if src == 0 {
                        zero_stream.push(v);
                    } else {
                        one_count += 1;
                    }
                }
                assert_eq!(zero_stream, (0..10).collect::<Vec<u32>>());
                assert_eq!(one_count, 5);
                // Then drain the tag-2 stream with a source wildcard.
                for i in 0..10u32 {
                    let (_, _, d) = c.recv(Some(0), Some(Tag(2)));
                    assert_eq!(u32::from_le_bytes(d.try_into().expect("4B")), i * 100);
                }
                c.barrier();
                1
            }
        }
    });
    assert_eq!(outs, vec![0, 0, 1]);
}
