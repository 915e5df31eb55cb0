//! A 1-D heat-diffusion stencil on fm-mpi, run on the switch-routed
//! cluster: 64 ranks across a fat tree (11 leaf switches, 4 spines), halo
//! exchanges with neighbours every step, and a topology-aware allreduce
//! checking heat conservation — the tightly-coupled workload at the
//! cluster scale the paper's Section 7 aims FM at.
//!
//! ```sh
//! cargo run --release --example mpi_stencil            # 200 steps
//! cargo run --release --example mpi_stencil -- --smoke # CI-sized
//! ```

use fm_repro::fm_core::SwitchTopology;
use fm_repro::fm_mpi::{MpiCluster, ReduceOp, Tag};

const RANKS: usize = 64;
const CELLS_PER_RANK: usize = 16;
const ALPHA: f64 = 0.25;

const HALO_LEFT: Tag = Tag(1);
const HALO_RIGHT: Tag = Tag(2);

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let steps: usize = if smoke { 10 } else { 200 };

    let topo = SwitchTopology::for_cluster_wide(RANKS);
    println!(
        "mpi_stencil: {RANKS} ranks x {CELLS_PER_RANK} cells over {} switches, {steps} steps",
        topo.switches()
    );

    let comms = MpiCluster::switched_wide(RANKS);
    let handles: Vec<_> = comms
        .into_iter()
        .map(|mut comm| {
            std::thread::spawn(move || {
                let me = comm.rank() as usize;
                let n = comm.size();
                let mut u = vec![0.0f64; CELLS_PER_RANK + 2]; // +2 ghost cells
                if me == 0 {
                    u[1] = 1000.0;
                }

                for _step in 0..steps {
                    // Halo exchange with rank-space neighbours. Adjacent
                    // ranks usually share a leaf switch; at slab borders
                    // the halo crosses a trunk — the traffic mix the
                    // fat-tree wiring is built for.
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
                    let prev = u.clone();
                    for i in 1..=CELLS_PER_RANK {
                        u[i] = prev[i] + ALPHA * (prev[i - 1] - 2.0 * prev[i] + prev[i + 1]);
                    }
                    // Insulated rod ends.
                    if me == 0 {
                        u[1] = prev[1] + ALPHA * (prev[2] - prev[1]);
                    }
                    if me + 1 == n {
                        u[CELLS_PER_RANK] = prev[CELLS_PER_RANK]
                            + ALPHA * (prev[CELLS_PER_RANK - 1] - prev[CELLS_PER_RANK]);
                    }
                }

                let local: f64 = u[1..=CELLS_PER_RANK].iter().sum();
                // Both allreduces ride the spanning tree / recursive
                // doubling over the fat tree (64 is a power of two).
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
                for _ in 0..10 {
                    comm.progress();
                    std::thread::yield_now();
                }
                (me, local, total, peak, comm.fm_stats())
            })
        })
        .collect();

    let mut results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("rank"))
        .collect();
    results.sort_by_key(|r| r.0);

    let (_, _, total, peak, _) = results[0];
    for &(_, _, t, p, _) in &results {
        assert_eq!(
            t.to_bits(),
            total.to_bits(),
            "allreduce must agree bit-exactly"
        );
        assert_eq!(
            p.to_bits(),
            peak.to_bits(),
            "allreduce must agree bit-exactly"
        );
    }
    let sent: u64 = results.iter().map(|r| r.4.sent).sum();
    let retransmitted: u64 = results.iter().map(|r| r.4.retransmitted).sum();
    println!("global heat  = {total:.6} (initial spike was 1000)");
    println!("global peak  = {peak:.3}");
    println!("frames sent  = {sent} ({retransmitted} retransmitted)");
    assert!(
        (total - 1000.0).abs() < 1e-6,
        "diffusion must conserve heat"
    );
    println!(
        "heat conservation verified across {RANKS} ranks and {} switches",
        topo.switches()
    );
}
