//! What one fm-mpi message costs the allocator, counted rather than timed.
//! A message that fits one FM frame behind its envelope is copied out of
//! the receive ring into the `Vec` that `try_recv` returns, and that `Vec`
//! is the only block allocated for it on either side. A segmented message
//! costs the sender's `[envelope | data]` image and the reassembly buffer;
//! the buffer itself is what the receiver gets.
//!
//! Only the test thread's own allocations are counted: the test
//! harness's threads allocate while it runs.

use fm_bench::alloc_track::{thread_allocations, CountingAlloc};
use fm_mpi::{Communicator, MpiCluster, Tag};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const PING: Tag = Tag(1);
const ECHO: Tag = Tag(2);

/// One message 0 -> 1 and its echo 1 -> 0, both ranks polled inline (the
/// `mpi_pingpong` workload's round).
fn round(r0: &mut Communicator, r1: &mut Communicator, data: &[u8]) {
    r0.send(1, PING, data);
    loop {
        if let Some((_, _, ping)) = r1.try_recv(Some(0), Some(PING)) {
            r1.send(0, ECHO, &ping);
        }
        if let Some((_, _, echo)) = r0.try_recv(Some(1), Some(ECHO)) {
            assert_eq!(echo, data);
            return;
        }
    }
}

#[test]
fn short_messages_allocate_one_block_each() {
    let mut ranks = MpiCluster::new(2);
    let mut r1 = ranks.pop().expect("two ranks");
    let mut r0 = ranks.pop().expect("two ranks");
    let (short, long) = ([0x5Au8; 16], vec![0xA5u8; 4096]);
    // Queues and maps grow to their working size once.
    for _ in 0..64 {
        round(&mut r0, &mut r1, &short);
    }
    round(&mut r0, &mut r1, &long);

    const ROUNDS: u64 = 2048;
    let before = thread_allocations();
    for _ in 0..ROUNDS {
        round(&mut r0, &mut r1, &short);
    }
    let allocs = thread_allocations().since(before).allocs;
    assert_eq!(allocs, 2 * ROUNDS, "blocks for {} messages", 2 * ROUNDS);

    let before = thread_allocations();
    round(&mut r0, &mut r1, &long);
    let allocs = thread_allocations().since(before).allocs;
    assert!(allocs <= 2 * 2, "{allocs} blocks for two 4-KiB messages");
    assert_eq!((r0.match_pending(), r1.match_pending()), (0, 0));
}
