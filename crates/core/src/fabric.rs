//! Counter-coordinated SPSC ring fabric — the zero-copy wire between
//! in-memory FM nodes.
//!
//! The paper's host/LANai interface (Section 4.2) is a pair of queues per
//! direction coordinated by *two single-writer counters*: "the host and the
//! LANai each maintain a counter ... the producer increments its counter
//! after depositing a packet, the consumer increments its own after removing
//! one", so neither side ever writes the other's cache line and polling is a
//! cheap read. This module is that structure for a shared-memory "wire":
//!
//! * one [`spsc_ring`] per **ordered** node pair — exactly one producer
//!   handle and one consumer handle, so no compare-and-swap loops are
//!   needed, only one Release store per side;
//! * frames are encoded **in place** into fixed [`FM_FRAME_MAX`]-byte slots
//!   ([`RingProducer::try_push_with`]) and decoded straight out of the slot
//!   ([`RingConsumer::poll_batch`]) — no per-frame heap allocation, ever;
//! * the consumer drains in batches: one Acquire load to observe every
//!   frame published since the last poll, one Release store to retire the
//!   whole batch — amortizing the synchronization the way the paper
//!   amortizes DMA setup over streamed packets;
//! * counters are monotonically increasing `u64`s (never masked until slot
//!   lookup), so full/empty is `produced - consumed == depth` with no
//!   wasted slot and wraparound-correct arithmetic.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::frame::FM_FRAME_MAX;

/// Pad-and-align wrapper keeping each counter on its own cache line pair
/// (128 covers adjacent-line prefetchers on modern x86 and Apple ARM).
#[repr(align(128))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

/// One fixed-size frame slot. `len` is written by the producer before the
/// Release store that publishes the slot, so the consumer always reads a
/// consistent (len, bytes) pair.
struct Slot {
    len: u16,
    buf: [u8; FM_FRAME_MAX],
}

struct RingShared {
    /// `depth - 1`; depth is a power of two so masking replaces modulo.
    mask: u64,
    slots: Box<[UnsafeCell<Slot>]>,
    /// Owned (written) by the producer only.
    produced: CachePadded<AtomicU64>,
    /// Owned (written) by the consumer only.
    consumed: CachePadded<AtomicU64>,
}

// SAFETY: the only mutation of a slot happens in `try_push_with` on the
// unique producer handle, and only for indices in `[consumed, produced)`'s
// complement — i.e. slots the consumer has already retired (Acquire on
// `consumed` orders the producer's writes after the consumer's reads).
// The consumer reads slots in `[consumed, produced)` after an Acquire on
// `produced`, which orders its reads after the producer's writes. Each
// handle is `Send` but the pair discipline (one producer, one consumer)
// is enforced by ownership: handles are not `Clone`.
unsafe impl Send for RingShared {}
unsafe impl Sync for RingShared {}

/// Statistics kept by a [`RingProducer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProducerStats {
    /// Frames successfully pushed.
    pub pushed: u64,
    /// Pushes refused because the ring was full even after refreshing the
    /// consumer counter.
    pub full: u64,
}

/// The producing half of an SPSC frame ring. Not `Clone` — single-producer
/// is a type-level guarantee.
pub struct RingProducer {
    shared: Arc<RingShared>,
    /// Local mirror of `shared.produced` (we are its only writer).
    head: u64,
    /// Last observed value of the consumer's counter; refreshed (one
    /// Acquire) only when the ring looks full, so the hot path does zero
    /// atomic loads.
    cached_consumed: u64,
    /// Statistics.
    pub stats: ProducerStats,
}

/// Statistics kept by a [`RingConsumer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsumerStats {
    /// Frames delivered to poll callbacks.
    pub polled: u64,
    /// Non-empty batches drained (each cost one Acquire + one Release).
    pub batches: u64,
}

/// The consuming half of an SPSC frame ring. Not `Clone`.
pub struct RingConsumer {
    shared: Arc<RingShared>,
    /// Local mirror of `shared.consumed` (we are its only writer).
    tail: u64,
    /// Last observed value of the producer's counter.
    cached_produced: u64,
    /// Statistics.
    pub stats: ConsumerStats,
}

/// Build one ring of at least `depth` slots (rounded up to a power of two)
/// and split it into its two single-owner halves.
///
/// # Panics
/// If `depth` is zero — an empty ring can never carry a frame, so a zero
/// capacity is always a configuration bug (see
/// [`crate::endpoint::EndpointConfig::wire_ring`]).
pub fn spsc_ring(depth: usize) -> (RingProducer, RingConsumer) {
    assert!(depth > 0, "spsc_ring depth must be > 0");
    let cap = depth.next_power_of_two() as u64;
    let slots: Box<[UnsafeCell<Slot>]> = (0..cap)
        .map(|_| {
            UnsafeCell::new(Slot {
                len: 0,
                buf: [0; FM_FRAME_MAX],
            })
        })
        .collect();
    let shared = Arc::new(RingShared {
        mask: cap - 1,
        slots,
        produced: CachePadded(AtomicU64::new(0)),
        consumed: CachePadded(AtomicU64::new(0)),
    });
    (
        RingProducer {
            shared: Arc::clone(&shared),
            head: 0,
            cached_consumed: 0,
            stats: ProducerStats::default(),
        },
        RingConsumer {
            shared,
            tail: 0,
            cached_produced: 0,
            stats: ConsumerStats::default(),
        },
    )
}

impl RingProducer {
    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        (self.shared.mask + 1) as usize
    }

    /// Slots currently free from this producer's point of view (may
    /// understate: the consumer counter is only refreshed on apparent full).
    pub fn free_hint(&self) -> usize {
        (self.shared.mask + 1 - (self.head - self.cached_consumed)) as usize
    }

    /// Encode one frame directly into the next free slot. `write` receives
    /// the slot's [`FM_FRAME_MAX`]-byte buffer and returns the number of
    /// bytes it filled. Returns `false` (and does not call `write`) when the
    /// ring is full.
    #[inline]
    pub fn try_push_with(&mut self, write: impl FnOnce(&mut [u8]) -> usize) -> bool {
        let cap = self.shared.mask + 1;
        if self.head - self.cached_consumed == cap {
            // Apparent full: refresh our view of the consumer's counter.
            self.cached_consumed = self.shared.consumed.0.load(Ordering::Acquire);
            if self.head - self.cached_consumed == cap {
                self.stats.full += 1;
                return false;
            }
        }
        let idx = (self.head & self.shared.mask) as usize;
        // SAFETY: slot `idx` is outside `[cached_consumed, head)` modulo
        // capacity, i.e. retired by the consumer; we are the unique producer.
        unsafe {
            let slot = &mut *self.shared.slots[idx].get();
            let n = write(&mut slot.buf);
            debug_assert!(n <= FM_FRAME_MAX, "frame over slot size: {n}");
            slot.len = n as u16;
        }
        self.head += 1;
        // Publish: slot contents happen-before this Release store.
        self.shared.produced.0.store(self.head, Ordering::Release);
        self.stats.pushed += 1;
        true
    }
}

impl RingConsumer {
    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        (self.shared.mask + 1) as usize
    }

    /// `true` when the last poll saw an empty ring (may be stale — a frame
    /// published since is discovered by the next [`Self::poll_batch`]).
    pub fn is_empty_hint(&self) -> bool {
        self.cached_produced == self.tail
    }

    /// Drain up to `max` frames, invoking `deliver` with each slot's encoded
    /// bytes. Costs one Acquire load (refreshing the producer counter) and
    /// one Release store (retiring the whole batch) no matter how many
    /// frames are delivered. Returns the number delivered.
    #[inline]
    pub fn poll_batch(&mut self, max: usize, mut deliver: impl FnMut(&[u8])) -> usize {
        if max == 0 {
            return 0;
        }
        if self.cached_produced - self.tail < max as u64 {
            // Cached view cannot satisfy the batch; refresh it (the only
            // atomic load this call makes).
            self.cached_produced = self.shared.produced.0.load(Ordering::Acquire);
            if self.cached_produced == self.tail {
                return 0;
            }
        }
        let avail = (self.cached_produced - self.tail) as usize;
        let n = avail.min(max);
        for i in 0..n {
            let idx = ((self.tail + i as u64) & self.shared.mask) as usize;
            // SAFETY: slot `idx` is in `[tail, cached_produced)`: published
            // by the producer's Release store which our Acquire load
            // observed, and not yet retired so the producer will not touch
            // it. We are the unique consumer.
            unsafe {
                let slot = &*self.shared.slots[idx].get();
                deliver(&slot.buf[..slot.len as usize]);
            }
        }
        self.tail += n as u64;
        // Retire the batch: our slot reads happen-before this Release store.
        self.shared.consumed.0.store(self.tail, Ordering::Release);
        self.stats.polled += n as u64;
        self.stats.batches += 1;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_bytes(p: &mut RingProducer, data: &[u8]) -> bool {
        p.try_push_with(|slot| {
            slot[..data.len()].copy_from_slice(data);
            data.len()
        })
    }

    #[test]
    fn depth_rounds_to_power_of_two() {
        let (p, c) = spsc_ring(5);
        assert_eq!(p.capacity(), 8);
        assert_eq!(c.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "depth must be > 0")]
    fn zero_depth_panics() {
        let _ = spsc_ring(0);
    }

    #[test]
    fn push_then_poll_roundtrips_bytes() {
        let (mut p, mut c) = spsc_ring(4);
        assert!(push_bytes(&mut p, b"alpha"));
        assert!(push_bytes(&mut p, b""));
        assert!(push_bytes(&mut p, &[7u8; FM_FRAME_MAX]));
        let mut got: Vec<Vec<u8>> = Vec::new();
        let n = c.poll_batch(16, |b| got.push(b.to_vec()));
        assert_eq!(n, 3);
        assert_eq!(
            got,
            vec![b"alpha".to_vec(), vec![], vec![7u8; FM_FRAME_MAX]]
        );
        assert_eq!(c.poll_batch(16, |_| panic!("ring should be empty")), 0);
    }

    #[test]
    fn full_ring_refuses_without_calling_writer() {
        let (mut p, mut c) = spsc_ring(2);
        assert!(push_bytes(&mut p, b"a"));
        assert!(push_bytes(&mut p, b"b"));
        assert!(!p.try_push_with(|_| panic!("writer must not run when full")));
        assert_eq!(p.stats.full, 1);
        // Draining one frees one slot; the producer notices via the
        // refreshed consumer counter.
        assert_eq!(c.poll_batch(1, |b| assert_eq!(b, b"a")), 1);
        assert!(push_bytes(&mut p, b"c"));
        let mut got = Vec::new();
        c.poll_batch(8, |b| got.push(b.to_vec()));
        assert_eq!(got, vec![b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn poll_batch_respects_max_and_batches_atomics() {
        let (mut p, mut c) = spsc_ring(8);
        for i in 0..6u8 {
            assert!(push_bytes(&mut p, &[i]));
        }
        let mut got = Vec::new();
        assert_eq!(c.poll_batch(4, |b| got.push(b[0])), 4);
        assert_eq!(c.poll_batch(4, |b| got.push(b[0])), 2);
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(c.stats.batches, 2, "each non-empty drain is one batch");
        assert_eq!(c.stats.polled, 6);
    }

    #[test]
    fn counters_survive_many_wraps() {
        let (mut p, mut c) = spsc_ring(4);
        let mut expect: u64 = 0;
        for round in 0..10_000u64 {
            let val = round.to_le_bytes();
            assert!(push_bytes(&mut p, &val));
            if round % 3 == 0 {
                // Occasionally let a second frame queue to vary occupancy.
                continue;
            }
            c.poll_batch(4, |b| {
                assert_eq!(b[..8], expect.to_le_bytes());
                expect += 1;
            });
        }
        c.poll_batch(usize::MAX, |b| {
            assert_eq!(b[..8], expect.to_le_bytes());
            expect += 1;
        });
        assert_eq!(expect, 10_000);
        assert_eq!(p.stats.pushed, 10_000);
        assert_eq!(c.stats.polled, 10_000);
    }

    #[test]
    fn two_thread_handoff() {
        const N: u64 = 50_000;
        let (mut p, mut c) = spsc_ring(64);
        let producer = std::thread::spawn(move || {
            let mut i: u64 = 0;
            while i < N {
                let v = i;
                if p.try_push_with(|slot| {
                    slot[..8].copy_from_slice(&v.to_le_bytes());
                    8
                }) {
                    i += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
            p.stats
        });
        let mut next: u64 = 0;
        while next < N {
            c.poll_batch(32, |b| {
                let got = u64::from_le_bytes(b.try_into().unwrap());
                assert_eq!(got, next, "frames must arrive in order, intact");
                next += 1;
            });
        }
        let stats = producer.join().unwrap();
        assert_eq!(stats.pushed, N);
        assert_eq!(c.stats.polled, N);
        assert!(c.stats.batches <= N);
    }
}
