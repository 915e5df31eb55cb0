//! A token circulating around a ring of nodes — handlers sending from
//! handlers, the Active-Messages-style idiom FM supports without
//! request/reply coupling.
//!
//! ```sh
//! cargo run --release --example token_ring
//! ```

use fm_repro::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NODES: usize = 6;
const LAPS: u64 = 50;

fn main() {
    let nodes = MemCluster::new(NODES);
    let hops_target = LAPS * NODES as u64;
    let counter = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = nodes
        .into_iter()
        .map(|mut ep| {
            let counter = counter.clone();
            std::thread::spawn(move || {
                let me = ep.node_id();
                let next = NodeId(((me.0 as usize + 1) % NODES) as u16);
                let c = counter.clone();
                // Handler 1 on every node: bump the hop count and forward.
                ep.register_handler_at(HandlerId(1), move |outbox, _src, data| {
                    let hops = u64::from_le_bytes(data.try_into().expect("8 bytes"));
                    c.store(hops, Ordering::SeqCst);
                    if hops < LAPS * NODES as u64 {
                        outbox.send(next, HandlerId(1), (hops + 1).to_le_bytes().to_vec());
                    }
                });
                if me.0 == 0 {
                    ep.send(next, HandlerId(1), &1u64.to_le_bytes());
                }
                while counter.load(Ordering::SeqCst) < hops_target {
                    ep.extract();
                    std::thread::yield_now();
                }
                // Drain trailing acks so every peer can settle.
                for _ in 0..20 {
                    ep.extract();
                    std::thread::yield_now();
                }
                (me, ep.stats())
            })
        })
        .collect();

    let mut stats: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("node"))
        .collect();
    stats.sort_by_key(|(id, _)| id.0);

    println!("token ring: {NODES} nodes, {LAPS} laps = {hops_target} hops\n");
    for (id, s) in &stats {
        println!(
            "{id}: forwarded {} tokens, delivered {}, acks {}",
            s.sent, s.delivered, s.acks_received
        );
    }
    let total: u64 = stats.iter().map(|(_, s)| s.delivered).sum();
    assert_eq!(total, hops_target, "every hop delivered exactly once");
    println!("\ntoken completed {LAPS} laps; {total} handler invocations total");
}
