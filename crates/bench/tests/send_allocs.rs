//! `FM_send_4` and the gather send are frame-sized sends, and frame-sized
//! sends allocate nothing: the words (or parts) are gathered on the stack
//! and copied into an inline `Bytes`. Both used to build a `Vec` per call.
//!
//! One test in this file, so nothing else allocates while it counts.

use fm_bench::alloc_track::{allocations, CountingAlloc};
use fm_core::{EndpointConfig, EndpointCore, HandlerId, NodeId};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const H: HandlerId = HandlerId(1);

/// Zero-latency lossless wire between two bare protocol engines.
fn drain(a: &mut EndpointCore, b: &mut EndpointCore) {
    while let Some(f) = a.pop_outgoing() {
        b.on_wire(f);
    }
    b.extract(usize::MAX);
    while let Some(f) = b.pop_outgoing() {
        a.on_wire(f);
    }
    a.extract(usize::MAX);
}

#[test]
fn send_4_and_gather_allocate_nothing() {
    let mut a = EndpointCore::new(NodeId(0), EndpointConfig::default());
    let mut b = EndpointCore::new(NodeId(1), EndpointConfig::default());
    b.register_handler_at(H, Box::new(|_, _, _| {}));
    let (head, body) = ([7u8; 12], [9u8; 100]);
    let batch = |a: &mut EndpointCore, b: &mut EndpointCore| {
        let before = allocations();
        for i in 0..16u32 {
            a.try_send_4(NodeId(1), H, [i, 1, 2, 3])
                .expect("window has room");
            a.try_send_gather(NodeId(1), H, &[&head, &body])
                .expect("window has room");
        }
        let during = allocations().since(before);
        drain(a, b);
        during.allocs
    };
    // Queues grow to their working size once.
    for _ in 0..8 {
        batch(&mut a, &mut b);
    }
    let allocs: u64 = (0..64).map(|_| batch(&mut a, &mut b)).sum();
    assert_eq!(allocs, 0, "allocations over 2048 send calls");
    assert_eq!(b.stats().delivered, 72 * 32);
}
