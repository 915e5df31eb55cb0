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
}

impl CounterPair {
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        CounterPair {
            produced: 0,
            consumed: 0,
            depth: depth as u64,
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

    /// Producer side: advance `produced` if there is space.
    #[inline]
    pub fn try_produce(&mut self) -> bool {
        if self.is_full() {
            false
        } else {
            self.produced += 1;
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
            true
        }
    }

    /// Ring index the next produced item goes to.
    #[inline]
    pub fn produce_index(&self) -> usize {
        (self.produced % self.depth) as usize
    }

    /// Ring index of the next item to consume.
    #[inline]
    pub fn consume_index(&self) -> usize {
        (self.consumed % self.depth) as usize
    }
}

/// A bounded single-producer/single-consumer ring coordinated by a
/// [`CounterPair`]. Used for the LANai send queue, LANai receive queue and
/// host receive queue.
#[derive(Debug, Clone)]
pub struct PacketRing<T> {
    slots: Vec<Option<T>>,
    counters: CounterPair,
    high_water: u64,
}

impl<T> PacketRing<T> {
    pub fn new(depth: usize) -> Self {
        PacketRing {
            slots: (0..depth).map(|_| None).collect(),
            counters: CounterPair::new(depth),
            high_water: 0,
        }
    }

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

    /// Peak occupancy observed.
    pub fn high_water(&self) -> usize {
        self.high_water as usize
    }

    pub fn counters(&self) -> CounterPair {
        self.counters
    }

    /// Producer: enqueue, failing (and returning the item) when full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.counters.is_full() {
            return Err(item);
        }
        let idx = self.counters.produce_index();
        debug_assert!(self.slots[idx].is_none(), "ring slot still occupied");
        self.slots[idx] = Some(item);
        let ok = self.counters.try_produce();
        debug_assert!(ok);
        self.high_water = self.high_water.max(self.counters.occupancy());
        Ok(())
    }

    /// Consumer: dequeue the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        if self.counters.is_empty() {
            return None;
        }
        let idx = self.counters.consume_index();
        let item = self.slots[idx].take();
        debug_assert!(item.is_some(), "ring slot unexpectedly empty");
        let ok = self.counters.try_consume();
        debug_assert!(ok);
        item
    }

    /// Peek the oldest item without consuming.
    pub fn peek(&self) -> Option<&T> {
        if self.counters.is_empty() {
            None
        } else {
            self.slots[self.counters.consume_index()].as_ref()
        }
    }
}

/// Slots are limited so a slot id plus a 6-bit generation tag pack into the
/// 16-bit ack words piggybacked on frames (see [`crate::flow::ack_word`]).
pub const REJECT_SLOT_LIMIT: usize = 1 << 10;

/// State of one reject-queue slot.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SlotState<T> {
    Free,
    /// Packet sent, neither acked nor returned yet. The slot reservation
    /// *is* the deadlock-avoidance buffer: if the packet bounces, this slot
    /// is guaranteed to have room for it. Unlike the paper's scheme (which
    /// only ever sees receiver-full loss and so can rely on the bounce to
    /// carry the payload back), the slot retains a copy of the packet with
    /// a retransmission deadline, so a frame lost *in the network* — or
    /// whose ack was lost — is recovered by timeout.
    InFlight {
        packet: Option<T>,
        /// Low bits of the packet's sequence number; acks and bounces must
        /// present a matching tag, so a delayed duplicate ack from a
        /// previous occupancy of this slot cannot release the wrong packet.
        tag: u8,
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
        packet: T,
        tag: u8,
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
#[derive(Debug, Clone)]
pub struct RejectQueue<T> {
    slots: Vec<SlotState<T>>,
    free: Vec<u16>,
    /// Returned slots in bounce order, awaiting retransmission.
    returned_fifo: VecDeque<u16>,
    in_flight: usize,
    /// Earliest retransmission deadline across in-flight slots; a cheap
    /// (possibly stale-low) bound so the no-timeouts fast path is O(1).
    next_deadline: u64,
}

impl<T> RejectQueue<T> {
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0 && capacity <= REJECT_SLOT_LIMIT,
            "reject queue capacity must be 1..={REJECT_SLOT_LIMIT}"
        );
        RejectQueue {
            slots: (0..capacity).map(|_| SlotState::Free).collect(),
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

    pub fn has_space(&self) -> bool {
        !self.free.is_empty()
    }

    /// True when some in-flight slot's retransmission deadline may have
    /// passed. A false positive triggers a harmless scan; never a false
    /// negative.
    pub fn timer_due(&self, now: u64) -> bool {
        self.next_deadline <= now
    }

    /// Reserve a slot for a new outgoing packet, arming its retransmission
    /// timer. `None` when the window is exhausted (the caller must
    /// extract/ack before sending more). The caller attaches the packet
    /// copy and generation tag with [`RejectQueue::store`] once the packet is
    /// built around the slot id.
    pub fn reserve(&mut self, now: u64, rto: u64) -> Option<u16> {
        let slot = self.free.pop()?;
        debug_assert!(matches!(self.slots[slot as usize], SlotState::Free));
        let deadline = now.saturating_add(rto);
        self.slots[slot as usize] = SlotState::InFlight {
            packet: None,
            tag: 0,
            deadline,
            rto,
            retries: 0,
        };
        self.in_flight += 1;
        self.next_deadline = self.next_deadline.min(deadline);
        Some(slot)
    }

    /// Attach the retransmission copy and generation tag to a slot returned
    /// by [`RejectQueue::reserve`].
    pub fn store(&mut self, slot: u16, gen_tag: u8, pkt: T) {
        if let Some(SlotState::InFlight { packet, tag, .. }) = self.slots.get_mut(slot as usize) {
            *packet = Some(pkt);
            *tag = gen_tag;
        } else {
            debug_assert!(false, "store on a slot that is not in flight");
        }
    }

    /// An acknowledgement arrived for `slot` with generation tag `tag`:
    /// release it. Returns false for a slot that was not in flight or whose
    /// tag does not match (a stale or corrupted ack — tolerated, counted by
    /// the caller).
    pub fn ack(&mut self, slot: u16, tag: u8) -> bool {
        match self.slots.get_mut(slot as usize) {
            Some(s @ SlotState::InFlight { .. }) => {
                if !matches!(s, SlotState::InFlight { tag: t, .. } if *t == tag) {
                    return false;
                }
                *s = SlotState::Free;
                self.free.push(slot);
                self.in_flight -= 1;
                true
            }
            _ => false,
        }
    }

    /// The packet in `slot` bounced back: park it for retransmission.
    /// Returns false if the slot was not in flight or the tag disagrees
    /// (a bounce of a stale duplicate must not displace the packet that
    /// currently owns the slot).
    pub fn bounce(&mut self, slot: u16, tag: u8, pkt: T) -> bool {
        match self.slots.get_mut(slot as usize) {
            Some(s @ SlotState::InFlight { .. }) => {
                let SlotState::InFlight {
                    tag: t,
                    rto,
                    retries,
                    ..
                } = s
                else {
                    unreachable!()
                };
                if *t != tag {
                    return false;
                }
                let (rto, retries) = (*rto, *retries);
                *s = SlotState::Returned {
                    packet: pkt,
                    tag,
                    rto,
                    retries,
                };
                self.returned_fifo.push_back(slot);
                self.in_flight -= 1;
                true
            }
            _ => false,
        }
    }

    /// Take the oldest returned packet for retransmission; its slot stays
    /// reserved (the retransmitted packet is still outstanding) and its
    /// retransmission timer is re-armed from `now`.
    pub fn pop_retransmit(&mut self, now: u64) -> Option<(u16, T)>
    where
        T: Clone,
    {
        loop {
            let slot = self.returned_fifo.pop_front()?;
            match std::mem::replace(&mut self.slots[slot as usize], SlotState::Free) {
                SlotState::Returned {
                    packet,
                    tag,
                    rto,
                    retries,
                } => {
                    let deadline = now.saturating_add(rto);
                    self.slots[slot as usize] = SlotState::InFlight {
                        packet: Some(packet.clone()),
                        tag,
                        deadline,
                        rto,
                        retries,
                    };
                    self.in_flight += 1;
                    self.next_deadline = self.next_deadline.min(deadline);
                    return Some((slot, packet));
                }
                other => {
                    // The slot was released (e.g. its peer died and the
                    // queue was purged) after the FIFO entry was recorded;
                    // put the state back and skip the stale entry.
                    self.slots[slot as usize] = other;
                }
            }
        }
    }

    /// Retransmit an in-flight packet ahead of its timer (hole repair: the
    /// sender saw later packets acknowledged past this one). The timer is
    /// re-armed from `now` at the slot's current timeout; the retry count
    /// is left alone, since later acks prove the peer alive. `None` for a
    /// slot that is free, parked after a bounce (its retransmission is
    /// already queued), or holds no copy.
    pub fn rearm(&mut self, slot: u16, now: u64) -> Option<&T> {
        let Some(SlotState::InFlight {
            packet: Some(packet),
            deadline,
            rto,
            ..
        }) = self.slots.get_mut(slot as usize)
        else {
            return None;
        };
        *deadline = now.saturating_add(*rto);
        self.next_deadline = self.next_deadline.min(*deadline);
        Some(packet)
    }

    /// Walk in-flight slots whose retransmission deadline has passed.
    /// For each expired slot: if its retry count reached `max_retries` the
    /// slot is freed and `fail(slot, packet)` is invoked (the caller
    /// declares the peer dead); otherwise the retry count increments, the
    /// rto doubles (capped at `max_rto`, plus `jitter(rto)` to decorrelate
    /// retransmit storms) and `retransmit(slot, &packet)` is invoked.
    pub fn scan_expired(
        &mut self,
        now: u64,
        max_retries: u32,
        max_rto: u64,
        mut jitter: impl FnMut(u64) -> u64,
        mut retransmit: impl FnMut(u16, &T),
        mut fail: impl FnMut(u16, T),
    ) {
        if !self.timer_due(now) {
            return;
        }
        let mut next = u64::MAX;
        for idx in 0..self.slots.len() {
            let SlotState::InFlight {
                packet,
                deadline,
                rto,
                retries,
                ..
            } = &mut self.slots[idx]
            else {
                continue;
            };
            if *deadline > now {
                next = next.min(*deadline);
                continue;
            }
            let Some(pkt) = packet else {
                // reserve() without store(): a caller that tracks packets
                // elsewhere (or a unit test); nothing to retransmit.
                *deadline = now.saturating_add(*rto);
                next = next.min(*deadline);
                continue;
            };
            if *retries >= max_retries {
                let pkt = packet.take().expect("checked above");
                self.slots[idx] = SlotState::Free;
                self.free.push(idx as u16);
                self.in_flight -= 1;
                fail(idx as u16, pkt);
                continue;
            }
            *retries += 1;
            *rto = (*rto * 2).min(max_rto);
            *deadline = now.saturating_add(*rto + jitter(*rto));
            next = next.min(*deadline);
            retransmit(idx as u16, pkt);
        }
        self.next_deadline = next;
    }

    /// Release every slot whose packet matches `pred` (used to purge all
    /// traffic toward a dead peer), invoking `dropped` for each. Stale
    /// `returned_fifo` entries are skipped lazily by
    /// [`RejectQueue::pop_retransmit`].
    pub fn release_where(&mut self, mut pred: impl FnMut(&T) -> bool, mut dropped: impl FnMut(T)) {
        for idx in 0..self.slots.len() {
            let matches = match &self.slots[idx] {
                SlotState::InFlight {
                    packet: Some(p), ..
                } => pred(p),
                SlotState::Returned { packet, .. } => pred(packet),
                _ => false,
            };
            if !matches {
                continue;
            }
            let was_in_flight = matches!(self.slots[idx], SlotState::InFlight { .. });
            match std::mem::replace(&mut self.slots[idx], SlotState::Free) {
                SlotState::InFlight { packet, .. } => {
                    if let Some(p) = packet {
                        dropped(p);
                    }
                }
                SlotState::Returned { packet, .. } => dropped(packet),
                SlotState::Free => unreachable!(),
            }
            self.free.push(idx as u16);
            if was_in_flight {
                self.in_flight -= 1;
            }
        }
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

    #[test]
    fn ring_fifo_order() {
        let mut r = PacketRing::new(3);
        r.push(1).unwrap();
        r.push(2).unwrap();
        assert_eq!(r.peek(), Some(&1));
        assert_eq!(r.pop(), Some(1));
        r.push(3).unwrap();
        r.push(4).unwrap();
        assert!(r.is_full());
        assert_eq!(r.push(5), Err(5));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(4));
        assert_eq!(r.pop(), None);
        assert_eq!(r.high_water(), 3);
    }

    #[test]
    fn ring_long_run_wraps_cleanly() {
        let mut r = PacketRing::new(5);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for step in 0..1_000 {
            if step % 3 != 0 {
                if r.push(next_in).is_ok() {
                    next_in += 1;
                }
            } else if let Some(v) = r.pop() {
                assert_eq!(v, next_out, "FIFO violated");
                next_out += 1;
            }
        }
        while let Some(v) = r.pop() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_in, next_out);
    }

    /// Reserve + store in one step with tag 0 and a far-future deadline —
    /// the shape most tests want.
    fn reserve_stored<T>(q: &mut RejectQueue<T>, pkt: T) -> Option<u16> {
        let slot = q.reserve(0, 1 << 40)?;
        q.store(slot, 0, pkt);
        Some(slot)
    }

    #[test]
    fn reject_queue_reserve_ack_cycle() {
        let mut q: RejectQueue<&str> = RejectQueue::new(2);
        let a = reserve_stored(&mut q, "a").unwrap();
        let b = reserve_stored(&mut q, "b").unwrap();
        assert_ne!(a, b);
        assert!(q.reserve(0, 1).is_none(), "window exhausted");
        assert_eq!(q.outstanding(), 2);
        assert!(q.ack(a, 0));
        assert!(!q.ack(a, 0), "double ack refused");
        assert_eq!(q.outstanding(), 1);
        assert!(q.reserve(0, 1).is_some());
    }

    #[test]
    fn reject_queue_bounce_and_retransmit() {
        let mut q: RejectQueue<&str> = RejectQueue::new(3);
        let a = reserve_stored(&mut q, "pkt-a").unwrap();
        let b = reserve_stored(&mut q, "pkt-b").unwrap();
        assert!(q.bounce(a, 0, "pkt-a"));
        assert!(q.bounce(b, 0, "pkt-b"));
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.returned(), 2);
        // Retransmission order is bounce order.
        let (s1, p1) = q.pop_retransmit(0).unwrap();
        assert_eq!((s1, p1), (a, "pkt-a"));
        assert_eq!(q.in_flight(), 1);
        // Slot stays outstanding until acked.
        assert_eq!(q.outstanding(), 2);
        assert!(q.ack(a, 0));
        let (s2, _) = q.pop_retransmit(0).unwrap();
        assert_eq!(s2, b);
        assert!(q.pop_retransmit(0).is_none());
    }

    #[test]
    fn reject_queue_rejects_bad_slots_and_tags() {
        let mut q: RejectQueue<()> = RejectQueue::new(2);
        assert!(!q.ack(0, 0), "slot never reserved");
        assert!(!q.bounce(7, 0, ()), "slot out of range");
        let a = q.reserve(0, 1).unwrap();
        q.store(a, 3, ());
        assert!(!q.ack(a, 5), "tag mismatch refused");
        assert!(!q.bounce(a, 5, ()), "bounce tag mismatch refused");
        assert!(q.bounce(a, 3, ()));
        assert!(!q.bounce(a, 3, ()), "double bounce refused");
        assert!(
            !q.ack(a, 3),
            "ack of a returned slot refused (not in flight)"
        );
    }

    #[test]
    fn timer_expiry_retransmits_with_backoff_then_fails() {
        let mut q: RejectQueue<&str> = RejectQueue::new(2);
        let a = q.reserve(0, 10).unwrap();
        q.store(a, 0, "pkt");
        assert!(!q.timer_due(5));
        assert!(q.timer_due(10));
        let mut retx = Vec::new();
        let mut failed = Vec::new();
        // First expiry: retry 1, rto doubles 10 -> 20, deadline 10+20=30.
        q.scan_expired(
            10,
            2,
            1000,
            |_| 0,
            |s, p| retx.push((s, *p)),
            |s, p| failed.push((s, p)),
        );
        assert_eq!(retx, vec![(a, "pkt")]);
        assert!(!q.timer_due(29));
        // Second expiry: retry 2 (== budget next time).
        q.scan_expired(
            30,
            2,
            1000,
            |_| 0,
            |s, p| retx.push((s, *p)),
            |s, p| failed.push((s, p)),
        );
        assert_eq!(retx.len(), 2);
        // Third expiry: budget exhausted -> fail, slot freed.
        q.scan_expired(
            100,
            2,
            1000,
            |_| 0,
            |s, p| retx.push((s, *p)),
            |s, p| failed.push((s, p)),
        );
        assert_eq!(failed, vec![(a, "pkt")]);
        assert_eq!(q.outstanding(), 0);
        assert!(q.has_space());
    }

    #[test]
    fn rearm_restarts_the_timer_of_in_flight_slots_only() {
        let mut q: RejectQueue<&str> = RejectQueue::new(2);
        let a = q.reserve(0, 10).unwrap();
        q.store(a, 0, "pkt");
        assert_eq!(q.rearm(a, 7), Some(&"pkt"));
        // The deadline moved from 10 to 17 (`timer_due` may still say yes
        // early: its cached bound is allowed to be stale-low).
        let mut fired = 0;
        q.scan_expired(16, 9, 1000, |_| 0, |_, _| fired += 1, |_, _| {});
        assert_eq!(fired, 0);
        assert!(!q.timer_due(16));
        q.scan_expired(17, 9, 1000, |_| 0, |_, _| fired += 1, |_, _| {});
        assert_eq!(fired, 1);
        // Not for a bounced slot, a free slot, or one outside the table.
        assert!(q.bounce(a, 0, "pkt"));
        assert_eq!(q.rearm(a, 8), None);
        assert_eq!(q.rearm(1, 8), None);
        assert_eq!(q.rearm(9, 8), None);
    }

    #[test]
    fn rto_caps_at_max() {
        let mut q: RejectQueue<u8> = RejectQueue::new(1);
        let a = q.reserve(0, 8).unwrap();
        q.store(a, 0, 1);
        let mut deadlines = Vec::new();
        let mut now = 8;
        for _ in 0..5 {
            q.scan_expired(now, 100, 16, |_| 0, |_, _| {}, |_, _| {});
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
    fn release_where_purges_matching_slots() {
        let mut q: RejectQueue<u8> = RejectQueue::new(4);
        let a = reserve_stored(&mut q, 1).unwrap();
        let b = reserve_stored(&mut q, 2).unwrap();
        let c = reserve_stored(&mut q, 1).unwrap();
        q.bounce(c, 0, 1);
        let mut dropped = Vec::new();
        q.release_where(|p| *p == 1, |p| dropped.push(p));
        dropped.sort_unstable();
        assert_eq!(dropped, vec![1, 1], "both copies of peer-1 traffic freed");
        assert_eq!(q.outstanding(), 1, "peer-2 slot untouched");
        assert!(q.ack(b, 0));
        // The stale fifo entry for c is skipped, not retransmitted.
        assert!(q.pop_retransmit(0).is_none());
        let _ = a;
    }
}
