//! A 1-D heat-diffusion stencil on fm-mpi — the kind of tightly-coupled
//! parallel computation the paper argues workstation clusters could not
//! run over TCP/PVM but can over a low-latency layer like FM.
//!
//! ```sh
//! cargo run --release --example stencil
//! ```
//!
//! Each rank owns a slab of the rod and exchanges one-cell halos with its
//! neighbours every timestep (two small messages per step — exactly the
//! short-message traffic FM optimizes for), then the ranks allreduce the
//! total heat to verify conservation.

use fm_repro::fm_mpi::{MpiCluster, ReduceOp, Tag};

const RANKS: usize = 4;
const CELLS_PER_RANK: usize = 64;
const STEPS: usize = 200;
const ALPHA: f64 = 0.25;

const HALO_LEFT: Tag = Tag(1);
const HALO_RIGHT: Tag = Tag(2);

fn main() {
    let comms = MpiCluster::new(RANKS);
    let handles: Vec<_> = comms
        .into_iter()
        .map(|mut comm| {
            std::thread::spawn(move || {
                let me = comm.rank() as usize;
                let n = comm.size();
                // Initial condition: a hot spike in rank 0's first cell.
                let mut u = vec![0.0f64; CELLS_PER_RANK + 2]; // +2 ghost cells
                if me == 0 {
                    u[1] = 1000.0;
                }

                for _step in 0..STEPS {
                    // Halo exchange with neighbours (non-periodic rod).
                    if me + 1 < n {
                        comm.send(
                            (me + 1) as u16,
                            HALO_RIGHT,
                            &u[CELLS_PER_RANK].to_le_bytes(),
                        );
                    }
                    if me > 0 {
                        comm.send((me - 1) as u16, HALO_LEFT, &u[1].to_le_bytes());
                    }
                    if me > 0 {
                        let (_, _, d) = comm.recv(Some((me - 1) as u16), Some(HALO_RIGHT));
                        u[0] = f64::from_le_bytes(d.try_into().expect("8 bytes"));
                    }
                    if me + 1 < n {
                        let (_, _, d) = comm.recv(Some((me + 1) as u16), Some(HALO_LEFT));
                        u[CELLS_PER_RANK + 1] = f64::from_le_bytes(d.try_into().expect("8 bytes"));
                    }
                    // Explicit diffusion update on the interior.
                    let prev = u.clone();
                    for i in 1..=CELLS_PER_RANK {
                        u[i] = prev[i] + ALPHA * (prev[i - 1] - 2.0 * prev[i] + prev[i + 1]);
                    }
                    // Boundary cells at the rod's ends reflect (insulated).
                    if me == 0 {
                        u[1] = prev[1] + ALPHA * (prev[2] - prev[1]);
                    }
                    if me + 1 == n {
                        u[CELLS_PER_RANK] = prev[CELLS_PER_RANK]
                            + ALPHA * (prev[CELLS_PER_RANK - 1] - prev[CELLS_PER_RANK]);
                    }
                }

                let local: f64 = u[1..=CELLS_PER_RANK].iter().sum();
                let total = comm
                    .allreduce(&[local], ReduceOp::Sum)
                    .expect("aligned contributions")[0];
                let peak = comm
                    .allreduce(
                        &[u[1..=CELLS_PER_RANK].iter().cloned().fold(0.0, f64::max)],
                        ReduceOp::Max,
                    )
                    .expect("aligned contributions")[0];
                comm.barrier();
                (me, local, total, peak, comm.fm_stats())
            })
        })
        .collect();

    let mut results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("rank"))
        .collect();
    results.sort_by_key(|r| r.0);

    println!("1-D heat diffusion: {RANKS} ranks x {CELLS_PER_RANK} cells, {STEPS} steps\n");
    for &(me, local, _, _, stats) in &results {
        println!(
            "rank {me}: local heat {local:>9.3}   ({} frames sent, {} delivered)",
            stats.sent, stats.delivered
        );
    }
    let (_, _, total, peak, _) = results[0];
    println!("\nglobal heat  = {total:.6} (conserved: initial spike was 1000)");
    println!("global peak  = {peak:.3}");
    assert!(
        (total - 1000.0).abs() < 1e-6,
        "diffusion must conserve heat"
    );
    println!("heat conservation verified across {RANKS} ranks");
}
