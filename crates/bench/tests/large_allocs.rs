//! What one `send_large` message costs the allocator, counted rather than
//! timed. Each fragment's subheader and data are gathered straight into
//! the frame's window slot, so sending allocates nothing; the receiver
//! appends the fragments in order to one buffer of the message's length,
//! which is what its large handler gets. One block per delivered message.
//!
//! Only the test thread's own allocations are counted: the test
//! harness's threads allocate while it runs.

use fm_bench::alloc_track::{thread_allocations, CountingAlloc};
use fm_core::{MemCluster, MemEndpoint};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const LARGE: usize = 4096;
const WARMUP: u64 = 8;
const ROUNDS: u64 = 256;

/// `from` sends one 4-KiB message to `to` and `to` extracts until its
/// large handler has run; returns the blocks allocated while sending and
/// while delivering.
fn one_way(
    from: &mut MemEndpoint,
    to: &mut MemEndpoint,
    data: &[u8],
    got: &AtomicU64,
) -> (u64, u64) {
    let before = thread_allocations();
    from.send_large(to.node_id(), fm_core::HandlerId(0), data)
        .expect("peer alive");
    let sent = thread_allocations().since(before).allocs;
    let want = got.load(Ordering::Relaxed) + 1;
    let before = thread_allocations();
    while got.load(Ordering::Relaxed) < want {
        to.extract();
    }
    let delivered = thread_allocations().since(before).allocs;
    // Acks back to the sender free its window for the next message.
    from.extract();
    (sent, delivered)
}

#[test]
fn a_large_message_allocates_one_block_where_it_is_delivered() {
    let mut nodes = MemCluster::new(2);
    let mut b = nodes.pop().expect("two nodes");
    let mut a = nodes.pop().expect("two nodes");
    let got = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    for ep in [&mut a, &mut b] {
        let (got, me) = (got.clone(), ep.node_id().index());
        let h = ep.register_large_handler(move |_, _, msg| {
            assert_eq!(msg.len(), LARGE);
            got[me].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(h.0, 0);
    }
    let data: Vec<u8> = (0..LARGE).map(|i| (i * 13) as u8).collect();
    // Queues grow to their working size once.
    for _ in 0..WARMUP {
        one_way(&mut a, &mut b, &data, &got[1]);
        one_way(&mut b, &mut a, &data, &got[0]);
    }

    let (mut sent, mut delivered) = (0, 0);
    for _ in 0..ROUNDS {
        for (s, d) in [
            one_way(&mut a, &mut b, &data, &got[1]),
            one_way(&mut b, &mut a, &data, &got[0]),
        ] {
            sent += s;
            delivered += d;
        }
    }
    let per_message = LARGE.div_ceil(fm_core::seg::FRAG_DATA) as u64;
    let fragments = 2 * ROUNDS * per_message;
    let all_sent = a.stats().sent + b.stats().sent;
    assert_eq!(all_sent, fragments + 2 * WARMUP * per_message);
    assert_eq!(sent, 0, "blocks for {fragments} fragments sent");
    assert_eq!(delivered, 2 * ROUNDS, "blocks for {} messages", 2 * ROUNDS);
}
