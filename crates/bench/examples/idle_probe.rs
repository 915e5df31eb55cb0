//! What a quiet port costs: an `extract` with nothing arrived and a switch
//! shard `pump` with nothing queued, in ns per call.
//!
//! ```text
//! cargo run --release -p fm-bench --example idle_probe
//! ```
//!
//! Three loops over one settled 8-host, one-switch `SwitchedCluster`:
//!
//! * `idle extract` — host 0 after it has heard all seven others and
//!   every frame is acked: nothing to deliver, nothing to send;
//! * `full-window extract` — host 1 with its 32-frame window outstanding
//!   toward a receiver that has stopped extracting, nothing arriving and
//!   the retransmission timer far off (what a blocked incast sender's
//!   `service()` spends between acks);
//! * `idle pump` — the 8-input shard with every ring empty.
//!
//! Each figure is the median of five timed repetitions of a million calls.
//! EXPERIMENTS.md records this program's output before and after the
//! change that made these paths O(1).

use fm_core::{EndpointConfig, HandlerId, NodeId, SwitchTopology, SwitchedCluster};
use std::hint::black_box;
use std::time::Instant;

const CALLS: u32 = 1_000_000;
const REPS: usize = 5;
const H: HandlerId = HandlerId(1);

/// Median ns per call of `f` over [`REPS`] timed runs of [`CALLS`] calls.
fn ns_per_call(mut f: impl FnMut() -> usize) -> f64 {
    let mut runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..CALLS {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[REPS / 2]
}

/// Eight hosts on one switch; hosts 1..=7 have each sent host 0 a few
/// frames and the cluster has settled.
fn settled(config: EndpointConfig) -> SwitchedCluster {
    let mut cluster = SwitchedCluster::new(&SwitchTopology::single(8, 8), config);
    cluster.endpoints[0].register_handler_at(H, |_, _, data| {
        black_box(data.len());
    });
    for src in 1..8 {
        for k in 0..4u8 {
            cluster.endpoints[src]
                .try_send(NodeId(0), H, &[k; 64])
                .expect("window room for four frames");
        }
    }
    while cluster.drive_round() > 0 {}
    assert!(cluster.endpoints.iter().all(|ep| ep.is_quiescent()));
    cluster
}

fn main() {
    let incast = EndpointConfig {
        window: 32,
        recv_ring: 8,
        // No retransmission timer falls due inside the timed loops.
        rto_initial: 1 << 40,
        rto_max: 1 << 40,
        ..Default::default()
    };
    let mut cluster = settled(incast);
    let idle_extract = ns_per_call(|| cluster.endpoints[0].extract());
    let shard = &mut cluster.shards[0];
    let idle_pump = ns_per_call(|| shard.pump());
    let sender = &mut cluster.endpoints[1];
    while sender.try_send(NodeId(0), H, &[0; 128]).is_ok() {}
    assert_eq!(sender.outstanding(), incast.window);
    let full_window = ns_per_call(|| sender.extract());
    println!(
        "idle extract {idle_extract:.1} ns | full-window extract {full_window:.1} ns | \
         idle pump {idle_pump:.1} ns (8 inputs)"
    );
}
