//! The four queues of FM 1.0 (paper Figure 6) and their counter-based
//! coordination (Section 4.4).
//!
//! * **LANai send queue** — host writes packets straight into LANai SRAM and
//!   bumps `hostsent`; the LANai drains to the network and bumps
//!   `lanaisent`. "Allowing each to own (and keep in a register) its
//!   respective counter reduces the amount of synchronization" — modeled by
//!   [`CounterPair`]: each side only ever *writes* its own counter.
//! * **LANai receive queue** — filled by the incoming-channel DMA, drained
//!   (aggregated) to the host by the host DMA. Same counter discipline.
//! * **host receive queue** — the pinned DMA region ring the host polls in
//!   `FM_extract`.
//! * **host reject queue** — sender-side slots reserved for outstanding
//!   packets; bounced packets land here awaiting retransmission
//!   ([`RejectQueue`]).

use std::collections::VecDeque;

/// The `hostsent`/`lanaisent` coordination counters: two monotonically
/// increasing `u64`s, one owned by each side. Occupancy is their
/// difference; the producer refuses to advance past `depth`.
///
/// (The 1995 code used 32-bit counters with wraparound-safe comparison; we
/// use u64 — at one packet per 25 µs it would take 14 million years to
/// wrap, and the arithmetic stays transparently correct.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterPair {
    /// Total packets the producer has made available.
    pub produced: u64,
    /// Total packets the consumer has retired.
    pub consumed: u64,
    depth: u64,
    /// `produced % depth` and `consumed % depth`, kept as wrapping cursors
    /// so no queue operation divides by the (runtime, not necessarily
    /// power-of-two) depth.
    produce_at: usize,
    consume_at: usize,
}

impl CounterPair {
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        CounterPair {
            produced: 0,
            consumed: 0,
            depth: depth as u64,
            produce_at: 0,
            consume_at: 0,
        }
    }

    #[inline]
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Packets currently in the queue. Invariant: `0 <= occupancy <= depth`.
    #[inline]
    pub fn occupancy(&self) -> u64 {
        debug_assert!(self.consumed <= self.produced);
        self.produced - self.consumed
    }

    #[inline]
    pub fn is_full(&self) -> bool {
        self.occupancy() == self.depth
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }

    #[inline]
    fn step(&self, at: usize) -> usize {
        if at + 1 == self.depth as usize {
            0
        } else {
            at + 1
        }
    }

    /// Producer side: advance `produced` if there is space.
    #[inline]
    pub fn try_produce(&mut self) -> bool {
        if self.is_full() {
            false
        } else {
            self.produced += 1;
            self.produce_at = self.step(self.produce_at);
            true
        }
    }

    /// Consumer side: advance `consumed` if anything is pending.
    #[inline]
    pub fn try_consume(&mut self) -> bool {
        if self.is_empty() {
            false
        } else {
            self.consumed += 1;
            self.consume_at = self.step(self.consume_at);
            true
        }
    }

    /// Ring index the next produced item goes to.
    #[inline]
    pub fn produce_index(&self) -> usize {
        self.produce_at
    }

    /// Ring index of the next item to consume.
    #[inline]
    pub fn consume_index(&self) -> usize {
        self.consume_at
    }
}

/// A bounded single-producer/single-consumer ring coordinated by a
/// [`CounterPair`]. Used for the LANai send queue, LANai receive queue and
/// host receive queue.
///
/// The slots are allocated once and reused in place: the producer may
/// write an item where it will live ([`PacketRing::push_with`]) and the
/// consumer may read it there and then let go ([`PacketRing::peek`],
/// [`PacketRing::release`]), so an item the size of a frame is never moved.
#[derive(Debug, Clone)]
pub struct PacketRing<T> {
    slots: Vec<T>,
    counters: CounterPair,
}

impl<T: Default> PacketRing<T> {
    pub fn new(depth: usize) -> Self {
        PacketRing {
            slots: (0..depth).map(|_| T::default()).collect(),
            counters: CounterPair::new(depth),
        }
    }
}

impl<T> PacketRing<T> {
    pub fn depth(&self) -> usize {
        self.counters.depth()
    }

    pub fn len(&self) -> usize {
        self.counters.occupancy() as usize
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.counters.is_full()
    }

    pub fn counters(&self) -> CounterPair {
        self.counters
    }

    /// Producer: enqueue by writing the next slot where it stands (it still
    /// holds whatever item last lived there). Returns false, without
    /// calling `fill`, when the ring is full.
    pub fn push_with(&mut self, fill: impl FnOnce(&mut T)) -> bool {
        if self.is_full() {
            return false;
        }
        fill(&mut self.slots[self.counters.produce_index()]);
        self.counters.try_produce()
    }

    /// Peek the oldest item without consuming.
    pub fn peek(&self) -> Option<&T> {
        if self.counters.is_empty() {
            None
        } else {
            Some(&self.slots[self.counters.consume_index()])
        }
    }

    /// Consumer: retire the oldest item where it stands (the counterpart of
    /// [`PacketRing::peek`]). Returns false when the ring is empty.
    pub fn release(&mut self) -> bool {
        self.counters.try_consume()
    }
}

/// State of one reject-queue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    /// Packet sent, neither acked nor returned yet. The slot reservation
    /// *is* the deadlock-avoidance buffer: if the packet bounces, this slot
    /// is guaranteed to have room for it. Unlike the paper's scheme (which
    /// only ever sees receiver-full loss and so can rely on the bounce to
    /// carry the payload back), the slot's owner keeps the packet itself
    /// for as long as the slot is held, and the slot carries a
    /// retransmission deadline, so a frame lost *in the network* — or whose
    /// ack was lost — is recovered by timeout.
    InFlight {
        /// Tick at which the retransmission timer fires.
        deadline: u64,
        /// Current retransmission timeout (doubles per timeout, capped).
        rto: u64,
        /// Timeout retransmissions so far (bounce retransmits don't count:
        /// a bouncing receiver is demonstrably alive).
        retries: u32,
    },
    /// Packet bounced back; parked here awaiting paced retransmission.
    Returned {
        rto: u64,
        retries: u32,
    },
}

/// The host reject queue: a slot table whose capacity bounds the node's
/// outstanding (unacknowledged) packets.
///
/// "Because each sender's buffering requirements are proportional to the
/// number of outstanding packets, there is no large collection of buffers
/// that must be statically allocated" (Section 4.5) — capacity here is per
/// *node*, independent of cluster size, and the property tests in
/// `fm-core/tests` verify that memory stays bounded under overload.
///
/// The table holds slot *state* only. The packet a slot stands for lives
/// with the caller, indexed by the slot id, from [`RejectQueue::reserve`]
/// until the slot is freed — it is written once and never handed back and
/// forth, so a bounce or a retransmission is a state flip here and a slot
/// id there. Which packet an ack or a bounce names is the caller's to
/// check, against the packet it keeps (by sequence number); this table
/// only refuses a transition its state does not allow.
#[derive(Debug, Clone)]
pub struct RejectQueue {
    slots: Vec<SlotState>,
    free: Vec<u16>,
    /// Returned slots in bounce order, awaiting retransmission.
    returned_fifo: VecDeque<u16>,
    in_flight: usize,
    /// Earliest retransmission deadline across in-flight slots; a cheap
    /// (possibly stale-low) bound so the no-timeouts fast path is O(1).
    next_deadline: u64,
}

impl RejectQueue {
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0 && capacity <= 1 << 16,
            "reject queue capacity must be 1..=65536 (slot ids are u16)"
        );
        RejectQueue {
            slots: vec![SlotState::Free; capacity],
            free: (0..capacity as u16).rev().collect(),
            returned_fifo: VecDeque::new(),
            in_flight: 0,
            next_deadline: u64::MAX,
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Outstanding packets (in flight + returned-awaiting-retransmit).
    #[inline]
    pub fn outstanding(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Packets parked after a bounce.
    pub fn returned(&self) -> usize {
        self.returned_fifo.len()
    }

    #[inline]
    pub fn has_space(&self) -> bool {
        !self.free.is_empty()
    }

    /// True while `slot` is reserved — in flight or parked after a bounce.
    #[inline]
    pub fn holds(&self, slot: u16) -> bool {
        self.slots
            .get(slot as usize)
            .is_some_and(|s| *s != SlotState::Free)
    }

    /// True when some in-flight slot's retransmission deadline may have
    /// passed. A false positive triggers a harmless scan; never a false
    /// negative.
    #[inline]
    pub fn timer_due(&self, now: u64) -> bool {
        self.next_deadline <= now
    }

    /// Reserve a slot for a new outgoing packet, arming its retransmission
    /// timer. `None` when the window is
    /// exhausted (the caller must extract/ack before sending more).
    #[inline]
    pub fn reserve(&mut self, now: u64, rto: u64) -> Option<u16> {
        let slot = self.free.pop()?;
        debug_assert_eq!(self.slots[slot as usize], SlotState::Free);
        let deadline = now.saturating_add(rto);
        self.slots[slot as usize] = SlotState::InFlight {
            deadline,
            rto,
            retries: 0,
        };
        self.in_flight += 1;
        self.next_deadline = self.next_deadline.min(deadline);
        Some(slot)
    }

    #[inline]
    fn is_in_flight(&self, slot: u16) -> bool {
        matches!(
            self.slots.get(slot as usize),
            Some(SlotState::InFlight { .. })
        )
    }

    /// An acknowledgement arrived for the packet in `slot`: release it.
    /// Returns false for a slot that is not in flight (free, or parked
    /// after a bounce: the parked copy is resent and acked again).
    #[inline]
    pub fn ack(&mut self, slot: u16) -> bool {
        let ok = self.is_in_flight(slot);
        if ok {
            self.slots[slot as usize] = SlotState::Free;
            self.free.push(slot);
            self.in_flight -= 1;
        }
        ok
    }

    /// The packet in `slot` bounced back: park the slot for retransmission.
    /// Returns false if the slot was not in flight. Whatever the bounce
    /// carried is not needed: the caller still holds the packet.
    #[inline]
    pub fn bounce(&mut self, slot: u16) -> bool {
        if !self.is_in_flight(slot) {
            return false;
        }
        if let SlotState::InFlight { rto, retries, .. } = self.slots[slot as usize] {
            self.slots[slot as usize] = SlotState::Returned { rto, retries };
            self.returned_fifo.push_back(slot);
            self.in_flight -= 1;
        }
        true
    }

    /// Take the oldest returned slot for retransmission; it stays reserved
    /// (the retransmitted packet is still outstanding) and its
    /// retransmission timer is re-armed from `now`.
    #[inline]
    pub fn pop_retransmit(&mut self, now: u64) -> Option<u16> {
        loop {
            let slot = self.returned_fifo.pop_front()?;
            // Anything else: the slot was released (its peer died and the
            // queue was purged) after the FIFO entry was recorded.
            if let SlotState::Returned { rto, retries } = self.slots[slot as usize] {
                let deadline = now.saturating_add(rto);
                self.slots[slot as usize] = SlotState::InFlight {
                    deadline,
                    rto,
                    retries,
                };
                self.in_flight += 1;
                self.next_deadline = self.next_deadline.min(deadline);
                return Some(slot);
            }
        }
    }

    /// Retransmit an in-flight packet ahead of its timer (hole repair: the
    /// sender saw later packets acknowledged past this one). The timer is
    /// re-armed from `now` at the slot's current timeout; the retry count
    /// is left alone, since later acks prove the peer alive. False for a
    /// slot that is free or parked after a bounce (its retransmission is
    /// already queued).
    pub fn rearm(&mut self, slot: u16, now: u64) -> bool {
        let Some(SlotState::InFlight { deadline, rto, .. }) = self.slots.get_mut(slot as usize)
        else {
            return false;
        };
        *deadline = now.saturating_add(*rto);
        self.next_deadline = self.next_deadline.min(*deadline);
        true
    }

    /// Walk in-flight slots whose retransmission deadline has passed.
    /// For each expired slot: if its retry count reached `max_retries` the
    /// slot is freed and `fail(slot)` is invoked (the caller declares the
    /// peer dead); otherwise the retry count increments, the rto doubles
    /// (capped at `max_rto`, plus `jitter(rto)` to decorrelate retransmit
    /// storms) and `retransmit(slot)` is invoked.
    pub fn scan_expired(
        &mut self,
        now: u64,
        max_retries: u32,
        max_rto: u64,
        mut jitter: impl FnMut(u64) -> u64,
        mut retransmit: impl FnMut(u16),
        mut fail: impl FnMut(u16),
    ) {
        if !self.timer_due(now) {
            return;
        }
        let mut next = u64::MAX;
        for idx in 0..self.slots.len() {
            let SlotState::InFlight {
                deadline,
                rto,
                retries,
            } = &mut self.slots[idx]
            else {
                continue;
            };
            if *deadline > now {
                next = next.min(*deadline);
                continue;
            }
            if *retries >= max_retries {
                self.slots[idx] = SlotState::Free;
                self.free.push(idx as u16);
                self.in_flight -= 1;
                fail(idx as u16);
                continue;
            }
            *retries += 1;
            *rto = (*rto * 2).min(max_rto);
            *deadline = now.saturating_add(*rto + jitter(*rto));
            next = next.min(*deadline);
            retransmit(idx as u16);
        }
        self.next_deadline = next;
    }

    /// Release every held slot `pred` picks (used to purge all traffic
    /// toward a dead peer), returning how many. Stale `returned_fifo`
    /// entries are skipped lazily by [`RejectQueue::pop_retransmit`].
    pub fn release_where(&mut self, mut pred: impl FnMut(u16) -> bool) -> usize {
        let mut released = 0;
        for idx in 0..self.slots.len() {
            let state = self.slots[idx];
            if state == SlotState::Free || !pred(idx as u16) {
                continue;
            }
            self.slots[idx] = SlotState::Free;
            self.free.push(idx as u16);
            if matches!(state, SlotState::InFlight { .. }) {
                self.in_flight -= 1;
            }
            released += 1;
        }
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_pair_invariant() {
        let mut c = CounterPair::new(3);
        assert!(c.is_empty());
        assert!(c.try_produce());
        assert!(c.try_produce());
        assert!(c.try_produce());
        assert!(c.is_full());
        assert!(!c.try_produce(), "producer must refuse when full");
        assert_eq!(c.occupancy(), 3);
        assert!(c.try_consume());
        assert_eq!(c.occupancy(), 2);
        assert!(c.try_produce());
        assert_eq!(c.produced, 4);
        assert_eq!(c.consumed, 1);
    }

    #[test]
    fn counter_pair_indices_wrap() {
        let mut c = CounterPair::new(4);
        for i in 0..4 {
            assert_eq!(c.produce_index(), i);
            c.try_produce();
        }
        c.try_consume();
        assert_eq!(c.consume_index(), 1);
        c.try_produce();
        assert_eq!(c.produce_index(), 1);
    }

    /// By-value push and pop over the in-place calls.
    fn push(r: &mut PacketRing<u64>, v: u64) -> bool {
        r.push_with(|slot| *slot = v)
    }

    fn pop(r: &mut PacketRing<u64>) -> Option<u64> {
        let v = r.peek().copied();
        assert_eq!(r.release(), v.is_some());
        v
    }

    #[test]
    fn ring_fifo_order() {
        let mut r = PacketRing::new(3);
        assert!(push(&mut r, 1) && push(&mut r, 2));
        assert_eq!(r.peek(), Some(&1));
        assert_eq!(pop(&mut r), Some(1));
        assert!(push(&mut r, 3) && push(&mut r, 4));
        assert!(r.is_full());
        assert!(!push(&mut r, 5));
        assert_eq!(pop(&mut r), Some(2));
        assert_eq!(pop(&mut r), Some(3));
        assert_eq!(pop(&mut r), Some(4));
        assert_eq!(pop(&mut r), None);
    }

    #[test]
    fn ring_long_run_wraps_cleanly() {
        // Depth 5: not a power of two, so the wrapping cursors (not a mask)
        // are what keeps the indices right.
        let mut r = PacketRing::new(5);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for step in 0..1_000 {
            if step % 3 != 0 {
                if push(&mut r, next_in) {
                    next_in += 1;
                }
            } else if let Some(v) = pop(&mut r) {
                assert_eq!(v, next_out, "FIFO violated");
                next_out += 1;
            }
        }
        while let Some(v) = pop(&mut r) {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_in, next_out);
    }

    #[test]
    fn ring_items_are_written_and_read_in_place() {
        let mut r: PacketRing<Vec<u8>> = PacketRing::new(2);
        assert!(r.push_with(|slot| slot.extend_from_slice(b"one")));
        assert!(r.push_with(|slot| slot.extend_from_slice(b"two")));
        assert!(!r.push_with(|_| unreachable!("full ring must not call fill")));
        assert_eq!(r.peek().map(Vec::as_slice), Some(&b"one"[..]));
        assert!(r.release());
        assert_eq!(r.len(), 1);
        // The freed slot still holds its old item for the producer to
        // overwrite: nothing was moved out.
        assert!(r.push_with(|slot| {
            assert_eq!(slot, b"one");
            slot.clear();
            slot.extend_from_slice(b"three");
        }));
        assert!(r.release());
        assert_eq!(r.peek().map(Vec::as_slice), Some(&b"three"[..]));
        assert!(r.release());
        assert!(!r.release(), "nothing left to release");
    }

    const FAR: u64 = 1 << 40;

    #[test]
    fn reject_queue_reserve_ack_cycle() {
        let mut q = RejectQueue::new(2);
        let a = q.reserve(0, FAR).unwrap();
        let b = q.reserve(0, FAR).unwrap();
        assert_ne!(a, b);
        assert!(q.reserve(0, 1).is_none(), "window exhausted");
        assert_eq!(q.outstanding(), 2);
        assert!(q.ack(a));
        assert!(!q.ack(a), "double ack refused");
        assert_eq!(q.outstanding(), 1);
        assert_eq!(q.reserve(0, 1), Some(a));
    }

    #[test]
    fn reject_queue_bounce_and_retransmit() {
        let mut q = RejectQueue::new(3);
        let a = q.reserve(0, FAR).unwrap();
        let b = q.reserve(0, FAR).unwrap();
        assert!(q.bounce(a));
        assert!(q.bounce(b));
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.returned(), 2);
        assert!(q.holds(a), "a parked slot is still held");
        // Retransmission order is bounce order.
        assert_eq!(q.pop_retransmit(0), Some(a));
        assert_eq!(q.in_flight(), 1);
        // Slot stays outstanding until acked.
        assert_eq!(q.outstanding(), 2);
        assert!(q.ack(a));
        assert!(!q.holds(a));
        assert_eq!(q.pop_retransmit(0), Some(b));
        assert!(q.pop_retransmit(0).is_none());
    }

    #[test]
    fn reject_queue_rejects_bad_slots_and_states() {
        let mut q = RejectQueue::new(2);
        assert!(!q.ack(0), "slot never reserved");
        assert!(!q.bounce(7), "slot out of range");
        assert!(!q.holds(7));
        let a = q.reserve(0, 1).unwrap();
        assert!(q.bounce(a));
        assert!(!q.bounce(a), "double bounce refused");
        assert!(!q.ack(a), "ack of a returned slot refused (not in flight)");
    }

    #[test]
    fn timer_expiry_retransmits_with_backoff_then_fails() {
        let mut q = RejectQueue::new(2);
        let a = q.reserve(0, 10).unwrap();
        assert!(!q.timer_due(5));
        assert!(q.timer_due(10));
        let mut retx = Vec::new();
        let mut failed = Vec::new();
        // First expiry: retry 1, rto doubles 10 -> 20, deadline 10+20=30.
        q.scan_expired(10, 2, 1000, |_| 0, |s| retx.push(s), |s| failed.push(s));
        assert_eq!(retx, vec![a]);
        assert!(!q.timer_due(29));
        // Second expiry: retry 2 (== budget next time).
        q.scan_expired(30, 2, 1000, |_| 0, |s| retx.push(s), |s| failed.push(s));
        assert_eq!(retx.len(), 2);
        // Third expiry: budget exhausted -> fail, slot freed.
        q.scan_expired(100, 2, 1000, |_| 0, |s| retx.push(s), |s| failed.push(s));
        assert_eq!(failed, vec![a]);
        assert_eq!(q.outstanding(), 0);
        assert!(q.has_space());
    }

    #[test]
    fn rearm_restarts_the_timer_of_in_flight_slots_only() {
        let mut q = RejectQueue::new(2);
        let a = q.reserve(0, 10).unwrap();
        assert!(q.rearm(a, 7));
        // The deadline moved from 10 to 17 (`timer_due` may still say yes
        // early: its cached bound is allowed to be stale-low).
        let mut fired = 0;
        q.scan_expired(16, 9, 1000, |_| 0, |_| fired += 1, |_| {});
        assert_eq!(fired, 0);
        assert!(!q.timer_due(16));
        q.scan_expired(17, 9, 1000, |_| 0, |_| fired += 1, |_| {});
        assert_eq!(fired, 1);
        // Not for a bounced slot, a free slot, or one outside the table.
        assert!(q.bounce(a));
        assert!(!q.rearm(a, 8));
        assert!(!q.rearm(1, 8));
        assert!(!q.rearm(9, 8));
    }

    #[test]
    fn rto_caps_at_max() {
        let mut q = RejectQueue::new(1);
        q.reserve(0, 8).unwrap();
        let mut deadlines = Vec::new();
        let mut now = 8;
        for _ in 0..5 {
            q.scan_expired(now, 100, 16, |_| 0, |_| {}, |_| {});
            // Next deadline is now + capped rto.
            let mut probe = now;
            while !q.timer_due(probe) {
                probe += 1;
            }
            deadlines.push(probe - now);
            now = probe;
        }
        assert_eq!(deadlines, vec![16, 16, 16, 16, 16], "rto capped at 16");
    }

    #[test]
    fn release_where_purges_picked_slots() {
        let mut q = RejectQueue::new(4);
        let a = q.reserve(0, FAR).unwrap();
        let b = q.reserve(0, FAR).unwrap();
        let c = q.reserve(0, FAR).unwrap();
        q.bounce(c);
        let mut asked = Vec::new();
        let released = q.release_where(|slot| {
            asked.push(slot);
            slot != b
        });
        asked.sort_unstable();
        assert_eq!(asked, vec![a, b, c], "only held slots are offered");
        assert_eq!(released, 2, "in-flight and parked alike");
        assert_eq!(q.outstanding(), 1, "b untouched");
        assert_eq!(q.in_flight(), 1);
        assert!(q.ack(b));
        // The stale fifo entry for c is skipped, not retransmitted.
        assert!(q.pop_retransmit(0).is_none());
    }
}
