//! Return-to-sender flow control (paper Section 4.5) plus the reliability
//! extensions the paper's lossless Myrinet let it omit.
//!
//! The sender side is a [`RejectQueue`] (see [`crate::queues`]) driven by
//! [`SenderFlow`]: an outstanding-packet window whose slots now also carry
//! retransmission timers (exponential backoff + jitter) and a bounded retry
//! budget, so loss of a frame *or of its ack* recovers by timeout and a
//! peer that never answers is eventually declared dead; a mid-stream hole
//! does not wait for the timeout, because the endpoint resends it as soon
//! as later frames are acknowledged past it ([`SenderFlow::retransmit_now`],
//! driven by `EndpointCore`'s hole repair). The receiver side
//! is an [`AckTracker`] that batches acknowledgements and prefers
//! piggybacking them on reverse-direction data frames ("FM 1.0 optimizes
//! further by piggybacking acknowledgements on ordinary data packets"),
//! holding a reply's ack one extract for the next data frame to carry it,
//! plus a per-source [`SeqWindow`] that suppresses duplicates and releases
//! frames in sequence order.
//!
//! An ack names its frame by the frame's 32-bit per-pair sequence number,
//! the name the receiver already delivers and suppresses duplicates by.
//! The sender resolves it through its per-peer send order to the window
//! slot the frame holds (`EndpointCore`'s `send_order`); an ack for a seq
//! not outstanding to that peer — a late duplicate, or a stale ack that
//! outlived its frame — frees nothing. A sequence number repeats only
//! after 2^32 later frames to the same peer, or after a `reset_peer`
//! (which needs the old streams' frames gone), so a stale ack names a
//! frame that is gone rather than the one now holding its slot.
//!
//! `EndpointCore` drives these state machines on every runtime: threads and
//! rings (`fm-core::mem`), UDP, and `fm-testbed`'s virtual-time harnesses,
//! which run the endpoint itself. The paper-figure simulation in
//! `fm-testbed` prices flow control with its own layer costs instead.

use crate::frame::{PiggyAcks, PIGGY_MAX};
use crate::queues::RejectQueue;
use fm_myrinet::NodeId;
use std::collections::VecDeque;

/// Acks per full batch: one piggyback area's worth. A reply's partial
/// batch (fewer than this) may wait a flush for a data frame to ride on
/// (see [`AckTracker`]); full batches always leave at the flush.
pub const ACK_BATCH: usize = PIGGY_MAX;

/// Retransmission-timer knobs shared by every slot of a [`SenderFlow`].
/// Time is the endpoint's virtual tick (one tick per `extract`/service
/// pass) — the protocol core has no clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// Initial per-packet retransmission timeout, in ticks.
    pub rto_initial: u64,
    /// Backoff cap: the rto doubles per timeout up to this.
    pub rto_max: u64,
    /// Timeout retransmissions per packet before the destination is
    /// declared unreachable. Bounce retransmits are not counted — a
    /// bouncing receiver is alive, merely full.
    pub retry_budget: u32,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            rto_initial: 2048,
            rto_max: 1 << 16,
            retry_budget: 16,
        }
    }
}

/// Sender-side flow state: the outstanding-packet window and retransmission
/// queue. It deals in slot ids; the packet each held slot stands for stays
/// with the caller (see [`RejectQueue`]).
#[derive(Debug, Clone)]
pub struct SenderFlow {
    reject: RejectQueue,
    retransmit: RetransmitConfig,
    /// Per-slot reservation tick, read back on ack for the send→ack RTT.
    sent_at: Vec<u64>,
    /// Per-slot "transmitted more than once" flags (bounce- or
    /// timer-driven alike), cleared on reservation. This is Karn's rule's
    /// input: an ack for a retransmitted slot is ambiguous between
    /// transmissions, so its RTT must never feed the estimator.
    retx: Vec<bool>,
    /// Deterministic xorshift state for retransmission jitter.
    jitter_state: u64,
}

impl SenderFlow {
    pub fn new(window: usize, retransmit: RetransmitConfig, jitter_seed: u64) -> Self {
        assert!(retransmit.rto_initial > 0, "rto_initial must be positive");
        assert!(retransmit.rto_max >= retransmit.rto_initial);
        SenderFlow {
            reject: RejectQueue::new(window),
            retransmit,
            sent_at: vec![0; window],
            retx: vec![false; window],
            jitter_state: jitter_seed | 1,
        }
    }

    pub fn window(&self) -> usize {
        self.reject.capacity()
    }

    #[inline]
    pub fn outstanding(&self) -> usize {
        self.reject.outstanding()
    }

    #[inline]
    pub fn can_send(&self) -> bool {
        self.reject.has_space()
    }

    /// Reserve a window slot for a fresh packet, arming its retransmission
    /// timer at `now`.
    #[inline]
    pub fn begin_send(&mut self, now: u64) -> Option<u16> {
        let slot = self.reject.reserve(now, self.retransmit.rto_initial)?;
        self.sent_at[slot as usize] = now;
        self.retx[slot as usize] = false;
        Some(slot)
    }

    /// Has `slot`'s current occupant been transmitted more than once?
    /// Query *before* [`SenderFlow::on_ack`] frees the slot; a valid ack
    /// for a retransmitted slot must be excluded from RTT sampling
    /// (Karn's rule).
    #[inline]
    pub fn slot_retransmitted(&self, slot: u16) -> bool {
        self.retx.get(slot as usize).copied().unwrap_or(false)
    }

    /// Replace the base retransmission timeout for *future* reservations
    /// (in-flight slots keep the deadline they were armed with). Clamped
    /// to `[1, rto_max]` so the `new()` invariants keep holding. This is
    /// how the endpoint's adaptive RTT estimator steers the timers.
    pub fn set_rto_initial(&mut self, rto: u64) {
        self.retransmit.rto_initial = rto.clamp(1, self.retransmit.rto_max);
    }

    /// The base retransmission timeout currently armed on fresh sends.
    pub fn rto_initial(&self) -> u64 {
        self.retransmit.rto_initial
    }

    /// True while `slot` is reserved (see [`RejectQueue::holds`]).
    #[inline]
    pub fn holds(&self, slot: u16) -> bool {
        self.reject.holds(slot)
    }

    /// The packet in `slot` was acked: free the slot and return the
    /// send→ack round trip in ticks (`now` minus the slot's reservation
    /// tick). `None`, freeing nothing, unless the slot is in flight.
    #[inline]
    pub fn on_ack(&mut self, slot: u16, now: u64) -> Option<u64> {
        self.reject
            .ack(slot)
            .then(|| now.saturating_sub(self.sent_at[slot as usize]))
    }

    /// The packet in `slot` bounced back; park the slot for
    /// retransmission. False unless the slot is in flight.
    #[inline]
    pub fn on_bounce(&mut self, slot: u16) -> bool {
        self.reject.bounce(slot)
    }

    /// Next parked slot to retransmit (it stays reserved, timer re-armed
    /// from `now`).
    #[inline]
    pub fn pop_retransmit(&mut self, now: u64) -> Option<u16> {
        let slot = self.reject.pop_retransmit(now)?;
        self.retx[slot as usize] = true;
        Some(slot)
    }

    /// Hole repair: `slot`'s packet is to be retransmitted now, ahead of
    /// its timer (which is re-armed from `now`). The slot is flagged
    /// retransmitted, so its eventual ack is never an RTT sample (Karn's
    /// rule). False unless the slot is in flight — a bounced slot already
    /// has its retransmission queued.
    pub fn retransmit_now(&mut self, slot: u16, now: u64) -> bool {
        let ok = self.reject.rearm(slot, now);
        if ok {
            self.retx[slot as usize] = true;
        }
        ok
    }

    /// Frames parked awaiting retransmission.
    pub fn pending_retransmits(&self) -> usize {
        self.reject.returned()
    }

    /// Cheap check: could any retransmission timer have expired by `now`?
    #[inline]
    pub fn timer_due(&self, now: u64) -> bool {
        self.reject.timer_due(now)
    }

    /// Fire expired retransmission timers: `retransmit(slot)` per retry,
    /// `fail(slot)` for slots whose retry budget is exhausted (freed; the
    /// caller declares the destination unreachable).
    pub fn fire_timers(
        &mut self,
        now: u64,
        mut retransmit: impl FnMut(u16),
        fail: impl FnMut(u16),
    ) {
        let RetransmitConfig {
            retry_budget,
            rto_max,
            ..
        } = self.retransmit;
        let jitter_state = &mut self.jitter_state;
        let retx = &mut self.retx;
        self.reject.scan_expired(
            now,
            retry_budget,
            rto_max,
            |rto| {
                // xorshift64: deterministic, cheap, seeded per endpoint so
                // two nodes' retransmit storms decorrelate. Jitter is
                // 0..rto/4.
                let mut x = *jitter_state;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *jitter_state = x;
                if rto >= 4 {
                    x % (rto / 4)
                } else {
                    0
                }
            },
            |slot| {
                retx[slot as usize] = true;
                retransmit(slot);
            },
            fail,
        );
    }

    /// Free every held slot `pred` picks (purging traffic toward a dead
    /// peer), returning how many.
    pub fn release_where(&mut self, pred: impl FnMut(u16) -> bool) -> usize {
        self.reject.release_where(pred)
    }
}

/// Why [`SeqWindow::buffer`] refused a frame.
///
/// Both variants used to be `debug_assert!`s, so a release build would
/// silently park frames outside the window (pinning memory past the
/// lookahead bound) or overwrite an already-buffered frame (dropping data
/// that had been acknowledged). The checks are now always on: the frame is
/// handed back, and the endpoint counts the refusal
/// (`EndpointStats::seq_buffer_misuse`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqBufferError {
    /// The sequence number is not strictly ahead of `next_expected()` by
    /// at most the lookahead — it was never classified [`SeqClass::Ahead`].
    OutOfWindow,
    /// A frame with this sequence number is already parked.
    Occupied,
}

/// Classification of an arriving sequence number against a [`SeqWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqClass {
    /// Exactly the next expected sequence number: deliver now.
    InOrder,
    /// Already delivered or already buffered: re-acknowledge and drop.
    Duplicate,
    /// Ahead of the expected number but within the lookahead window:
    /// buffer until the gap fills.
    Ahead,
    /// Beyond the lookahead window: refuse (bounce, unacked) so receiver
    /// memory stays bounded even under pathological reordering. Under the
    /// endpoint's ack reach only a sender with a larger window than the
    /// receiver's gets here.
    TooFar,
}

/// Per-source receive window: exactly-once, in-order release of sequenced
/// frames, tolerant of duplication and bounded reordering.
///
/// `next` summarizes everything already released (all seqs strictly before
/// it), so duplicate suppression needs no bitmap; frames ahead of `next`
/// are parked in a dense ring where entry `i` holds sequence number
/// `next + i`, so a lookup is an index, not a hash. The ring is reserved
/// once, at `lookahead + 1` entries on the first park, and never grows:
/// a receiver's reorder memory is `sources x (lookahead + 1)` frames
/// however long the cluster lives. Comparisons use wrapping u32
/// arithmetic, so the window is correct across sequence-number wraparound.
///
/// The window parks and releases; when a parked frame is *acknowledged*
/// is the endpoint's call, made against [`SeqWindow::parked_at`]: only
/// once it lies within `reach = lookahead − window` of `next`, so that a
/// sender whose window is no larger than `window` can never run more
/// than `lookahead` past `next` (see `EndpointConfig::reorder_window`).
/// Offsets shrink one step per release, so "acked ⇔ offset ≤ reach"
/// needs no per-entry flag.
#[derive(Debug, Clone)]
pub struct SeqWindow<T> {
    next: u32,
    lookahead: u32,
    /// `parked[i]` is the frame with sequence number `next + i`, if it has
    /// arrived. Empty whenever `parked_count` is 0.
    parked: VecDeque<Option<T>>,
    parked_count: usize,
}

impl<T> SeqWindow<T> {
    pub fn new(lookahead: u32) -> Self {
        Self::starting_at(0, lookahead)
    }

    /// A window whose first expected sequence number is `next` (a stream
    /// that resumes mid-sequence; the tests start just below `u32::MAX`).
    pub fn starting_at(next: u32, lookahead: u32) -> Self {
        // `lookahead == 0` is legal: it disables Ahead-buffering entirely,
        // so any out-of-order frame bounces — the paper's original
        // return-to-sender dynamics (delivery guaranteed, ordering by
        // retransmission alone).
        assert!(
            lookahead < i32::MAX as u32,
            "lookahead must leave room for wrapping comparison"
        );
        SeqWindow {
            next,
            lookahead,
            parked: VecDeque::new(),
            parked_count: 0,
        }
    }

    /// The next sequence number this window will release.
    pub fn next_expected(&self) -> u32 {
        self.next
    }

    /// Frames parked waiting for a gap to fill.
    pub fn buffered(&self) -> usize {
        self.parked_count
    }

    /// Ring entries in use (parked frames plus the holes between them) and
    /// the ring's reserved capacity. The first never exceeds
    /// `lookahead + 1`; the second is 0 until the first park and constant
    /// afterwards.
    pub fn storage(&self) -> (usize, usize) {
        (self.parked.len(), self.parked.capacity())
    }

    /// The frame parked `offset` past the next expected sequence number,
    /// if it has arrived.
    #[inline]
    pub fn parked_at(&self, offset: u32) -> Option<&T> {
        self.parked.get(offset as usize)?.as_ref()
    }

    /// Classify an arriving sequence number. The caller acts on the class
    /// (deliver / re-ack / [`SeqWindow::buffer`] / bounce).
    pub fn classify(&self, seq: u32) -> SeqClass {
        let delta = seq.wrapping_sub(self.next) as i32;
        if delta < 0 {
            SeqClass::Duplicate
        } else if delta as u32 > self.lookahead {
            SeqClass::TooFar
        } else if self.parked_at(delta as u32).is_some() {
            // Includes `delta == 0`: a second copy of a frame that is
            // parked at the head waiting for ring space must not be
            // delivered beside it.
            SeqClass::Duplicate
        } else if delta == 0 {
            SeqClass::InOrder
        } else {
            SeqClass::Ahead
        }
    }

    /// The in-order frame was released: advance the expectation (dropping
    /// a parked copy of that frame, should there be one).
    pub fn advance(&mut self) {
        if self.parked_count == 0 {
            // The clean path: the ring is empty, there is nothing to shift.
            self.next = self.next.wrapping_add(1);
        } else {
            self.pop_head();
        }
    }

    /// Move the expectation past the head entry, returning what was parked
    /// there.
    fn pop_head(&mut self) -> Option<T> {
        self.next = self.next.wrapping_add(1);
        let item = self.parked.pop_front().flatten();
        if item.is_some() {
            self.parked_count -= 1;
        }
        if self.parked_count == 0 {
            // Only holes are left; keep `parked` empty when nothing is.
            self.parked.clear();
        }
        item
    }

    /// Park an [`SeqClass::Ahead`] frame until the gap before it fills.
    ///
    /// Refuses (returning the frame) when `seq` is outside the Ahead range
    /// or already buffered — checked in release builds too, because either
    /// misuse corrupts the window: out-of-window parks defeat the memory
    /// bound, double-inserts silently drop the earlier frame.
    pub fn buffer(&mut self, seq: u32, item: T) -> Result<(), (SeqBufferError, T)> {
        let delta = seq.wrapping_sub(self.next);
        if delta == 0 || delta > self.lookahead {
            return Err((SeqBufferError::OutOfWindow, item));
        }
        if self.parked_at(delta).is_some() {
            return Err((SeqBufferError::Occupied, item));
        }
        let idx = delta as usize;
        if self.parked.capacity() == 0 {
            self.parked.reserve_exact(self.lookahead as usize + 1);
        }
        if self.parked.len() <= idx {
            self.parked.resize_with(idx + 1, || None);
        }
        self.parked[idx] = Some(item);
        self.parked_count += 1;
        Ok(())
    }

    /// If the next expected frame is parked, release it (advancing the
    /// expectation). Call repeatedly to drain a filled gap.
    pub fn take_ready(&mut self) -> Option<T> {
        if self.parked_at(0).is_some() {
            self.pop_head()
        } else {
            None
        }
    }

    /// Drop all parked frames (the source died; its unfinished reordering
    /// state must not pin memory).
    pub fn clear_buffered(&mut self) -> usize {
        let n = self.parked_count;
        self.parked.clear();
        self.parked_count = 0;
        n
    }
}

/// Receiver-side acknowledgement batching.
///
/// Pending acks (the sequence numbers of retained frames) are kept per
/// peer in a table indexed by node id, like every other per-peer table of
/// the endpoint — a lookup on each accepted frame and each send is an
/// index — and drained in node-id order, which is what keeps runs
/// reproducible.
///
/// Acks ride data frames toward their peer whenever one is queued
/// ([`AckTracker::take_piggy`]); what is left goes out in standalone ack
/// frames at the end of each extract ([`AckTracker::take_standalone`]),
/// with one exception. A data frame from P that arrives after we queued
/// data to P, and before any other frame from P was accepted, is a
/// *reply*: whoever drives this endpoint is in a request/response exchange
/// with P and is likely to send P data next. When the newest ack pending
/// toward P is for a reply, the partial batch toward P waits one flush for
/// that data frame to carry it. An ack that has waited once leaves at the
/// next flush, so every ack leaves no later than the second flush after
/// its frame was accepted, and a peer we never send data to is acked
/// exactly as if the rule did not exist.
#[derive(Debug, Clone, Default)]
pub struct AckTracker {
    pending: Vec<PeerAcks>,
    /// Acks pending toward anyone (the sum of the `seqs` lengths).
    total: usize,
}

/// One peer's entry in an [`AckTracker`].
#[derive(Debug, Clone, Default)]
struct PeerAcks {
    /// Sequence numbers of the peer's frames owed an ack, oldest first.
    seqs: Vec<u32>,
    /// We queued a data frame to the peer since its last accepted frame.
    spoke: bool,
    /// The peer's last accepted frame was a reply.
    reply: bool,
    /// Acks at the front of `seqs` that a flush has already held once.
    held: usize,
}

impl AckTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that data frame `seq` from `src` was retained (or recognized
    /// as a duplicate of a retained frame) and must be (re-)acknowledged.
    #[inline]
    pub fn on_accept(&mut self, src: NodeId, seq: u32) {
        let peer = self.peer_mut(src);
        peer.seqs.push(seq);
        peer.reply = std::mem::take(&mut peer.spoke);
        self.total += 1;
    }

    /// Record that a data frame to `dst` was queued, so the next frame
    /// accepted from `dst` counts as a reply.
    #[inline]
    pub fn note_sent(&mut self, dst: NodeId) {
        self.peer_mut(dst).spoke = true;
    }

    fn peer_mut(&mut self, node: NodeId) -> &mut PeerAcks {
        if node.index() >= self.pending.len() {
            self.pending
                .resize_with(node.index() + 1, PeerAcks::default);
        }
        &mut self.pending[node.index()]
    }

    /// Drop every pending ack toward `dst` (the peer died; acks to it
    /// would only wedge quiescence) and forget the exchange with it. Keeps
    /// the entry's capacity.
    pub fn purge(&mut self, dst: NodeId) -> usize {
        let n = self.pending.get_mut(dst.index()).map_or(0, |p| {
            let n = p.seqs.len();
            p.seqs.clear();
            (p.spoke, p.reply, p.held) = (false, false, 0);
            n
        });
        self.total -= n;
        n
    }

    /// Total acks pending toward `dst`.
    pub fn pending_for(&self, dst: NodeId) -> usize {
        self.pending.get(dst.index()).map_or(0, |p| p.seqs.len())
    }

    /// Total acks pending toward anyone.
    #[inline]
    pub fn pending_total(&self) -> usize {
        self.total
    }

    /// Fill a piggyback area for a data frame headed to `dst` (oldest acks
    /// first).
    ///
    /// A drained destination keeps its (empty) `Vec` and so its capacity —
    /// on a steady ping-pong the accept/piggyback cycle allocates nothing.
    #[inline]
    pub fn take_piggy(&mut self, dst: NodeId) -> PiggyAcks {
        let Some(peer) = self.pending.get_mut(dst.index()) else {
            return PiggyAcks::new();
        };
        let acks = PiggyAcks::from_prefix(&peer.seqs);
        let take = acks.len();
        peer.seqs.drain(..take);
        peer.held = peer.held.saturating_sub(take);
        self.total -= take;
        acks
    }

    /// The end-of-extract flush: drain pending acks into standalone ack
    /// frames, handing each frame's worth ([`PiggyAcks`]) to `emit`,
    /// destinations in node-id order. Everything goes except a
    /// reply's partial batch that has not waited yet (see the type docs):
    /// it is held for one flush, in case a data frame can carry it. A
    /// sender with no reverse traffic is therefore never starved of acks.
    /// Visitor-style so the common nothing-to-do and everything-piggybacked
    /// cases allocate nothing — and, with nothing pending at all, look at
    /// nothing.
    pub fn take_standalone(&mut self, mut emit: impl FnMut(NodeId, PiggyAcks)) {
        if self.total == 0 {
            return;
        }
        for (node, peer) in self.pending.iter_mut().enumerate() {
            if peer.seqs.is_empty() {
                continue;
            }
            let hold = if peer.reply && peer.held == 0 {
                peer.seqs.len() % ACK_BATCH
            } else {
                0
            };
            let send = peer.seqs.len() - hold;
            let mut sent = 0;
            while sent < send {
                let acks = PiggyAcks::from_prefix(&peer.seqs[sent..send]);
                sent += acks.len();
                emit(NodeId(node as u16), acks);
            }
            peer.seqs.drain(..send);
            peer.held = hold;
            self.total -= send;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(window: usize) -> SenderFlow {
        SenderFlow::new(window, RetransmitConfig::default(), 42)
    }

    #[test]
    fn sender_window_blocks_then_reopens() {
        let mut s = flow(2);
        let a = s.begin_send(0).unwrap();
        let _b = s.begin_send(0).unwrap();
        assert!(s.begin_send(0).is_none());
        assert!(!s.can_send());
        s.on_ack(a, 0);
        assert!(s.can_send());
        let c = s.begin_send(0).unwrap();
        assert_eq!(c, a, "slot recycled");
        assert_eq!(s.outstanding(), 2);
    }

    #[test]
    fn bounce_then_retransmit_then_ack() {
        let mut s = flow(4);
        let slot = s.begin_send(0).unwrap();
        assert!(s.on_bounce(slot));
        assert_eq!(s.pending_retransmits(), 1);
        assert!(!s.slot_retransmitted(slot));
        assert!(s.on_ack(slot, 0).is_none(), "a parked slot is not acked");
        assert_eq!(s.pop_retransmit(0), Some(slot));
        assert!(s.slot_retransmitted(slot), "Karn's flag");
        assert!(s.holds(slot));
        assert!(s.on_ack(slot, 0).is_some());
        assert!(!s.holds(slot));
        assert_eq!(s.outstanding(), 0);
    }

    #[test]
    fn on_ack_reports_round_trip_ticks() {
        let mut s = flow(2);
        let slot = s.begin_send(100).unwrap();
        assert_eq!(s.on_ack(slot, 175), Some(75));
        // A second ack of the freed slot reports nothing.
        assert_eq!(s.on_ack(slot, 200), None);
    }

    #[test]
    fn stray_acks_and_bounces_are_refused_not_fatal() {
        let mut s = flow(2);
        assert_eq!(s.on_ack(0, 0), None, "never reserved");
        assert_eq!(s.on_ack(17, 0), None, "past the window");
        assert!(!s.on_bounce(17));
        let slot = s.begin_send(0).unwrap();
        assert!(s.on_bounce(slot));
        assert!(!s.on_bounce(slot), "already parked");
        assert_eq!(s.outstanding(), 1);
    }

    #[test]
    fn timer_retransmits_then_declares_peer_dead() {
        let mut s = SenderFlow::new(
            4,
            RetransmitConfig {
                rto_initial: 10,
                rto_max: 20,
                retry_budget: 2,
            },
            1,
        );
        let slot = s.begin_send(0).unwrap();
        assert!(!s.timer_due(9));
        let mut retx = 0;
        let mut dead = Vec::new();
        // Drive time forward until the retry budget trips.
        for now in 10..210 {
            if s.timer_due(now) {
                s.fire_timers(now, |_| retx += 1, |slot| dead.push(slot));
            }
            if !dead.is_empty() {
                break;
            }
        }
        assert_eq!(retx, 2, "budget of 2 retries before failure");
        assert_eq!(dead, vec![slot]);
        assert_eq!(s.outstanding(), 0, "failed slot freed");
    }

    #[test]
    fn seq_window_buffer_refuses_misuse() {
        let mut w: SeqWindow<&str> = SeqWindow::new(4);
        assert!(w.buffer(2, "ahead").is_ok());
        // Double-insert hands the frame back instead of overwriting.
        assert_eq!(w.buffer(2, "dup"), Err((SeqBufferError::Occupied, "dup")));
        // seq == next is InOrder, not Ahead; seq past the lookahead and
        // already-delivered (wrapped-negative delta) are out of window.
        assert_eq!(
            w.buffer(0, "now"),
            Err((SeqBufferError::OutOfWindow, "now"))
        );
        assert_eq!(
            w.buffer(5, "far"),
            Err((SeqBufferError::OutOfWindow, "far"))
        );
        assert_eq!(
            w.buffer(u32::MAX, "old"),
            Err((SeqBufferError::OutOfWindow, "old"))
        );
        assert_eq!(w.buffered(), 1, "misuse never parked anything");
        // The valid parked frame still releases once the gap fills.
        w.advance();
        w.advance();
        assert_eq!(w.take_ready(), Some("ahead"));
    }

    #[test]
    fn second_copy_of_a_frame_parked_at_the_head_is_a_duplicate() {
        // 1 is parked; 0 arrives and is released, but the caller's ring is
        // full, so 1 stays parked — now at the head. A retransmitted copy
        // of 1 must not be delivered beside it (the old map keyed by seq
        // called it InOrder and then leaked the parked copy forever).
        let mut w: SeqWindow<&str> = SeqWindow::new(4);
        w.buffer(1, "one").unwrap();
        assert_eq!(w.classify(0), SeqClass::InOrder);
        w.advance();
        assert_eq!(w.classify(1), SeqClass::Duplicate);
        assert_eq!(w.take_ready(), Some("one"));
        assert_eq!(w.next_expected(), 2);
        assert_eq!((w.buffered(), w.storage().0), (0, 0));
    }

    #[test]
    fn ack_tracker_piggyback_prefers_oldest() {
        let mut a = AckTracker::new();
        for seq in 0..6 {
            a.on_accept(NodeId(1), seq);
        }
        let p = a.take_piggy(NodeId(1));
        assert_eq!(p.iter().collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(a.pending_for(NodeId(1)), 2);
        assert_eq!(a.pending_total(), 2);
        // No pending acks toward node 2.
        assert!(a.take_piggy(NodeId(2)).is_empty());
    }

    #[test]
    fn acks_too_far_apart_for_one_frame_go_in_the_next() {
        // A late duplicate re-acks a seq far behind the stream's.
        let mut a = AckTracker::new();
        for seq in [40_000, 3, 40_001, 40_002] {
            a.on_accept(NodeId(1), seq);
        }
        assert_eq!(a.take_piggy(NodeId(1)).iter().collect::<Vec<_>>(), [40_000]);
        assert_eq!(a.pending_total(), 3);
        assert_eq!(
            collect_standalone(&mut a),
            [(NodeId(1), vec![3]), (NodeId(1), vec![40_001, 40_002])]
        );
    }

    fn collect_standalone(a: &mut AckTracker) -> Vec<(NodeId, Vec<u32>)> {
        let mut out = Vec::new();
        a.take_standalone(|node, acks| out.push((node, acks.iter().collect())));
        out
    }

    #[test]
    fn standalone_only_when_batch_reached() {
        // Node 1's newest frame answers one of ours: the partial batch
        // waits a flush for a data frame; then it goes, whatever the count.
        let mut a = AckTracker::new();
        a.on_accept(NodeId(1), 0);
        a.note_sent(NodeId(1));
        a.on_accept(NodeId(1), 1);
        assert!(collect_standalone(&mut a).is_empty(), "below batch");
        a.on_accept(NodeId(1), 2);
        a.note_sent(NodeId(1));
        a.on_accept(NodeId(1), 3);
        let out = collect_standalone(&mut a);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], (NodeId(1), vec![0, 1, 2, 3]));
        assert_eq!(a.pending_total(), 0);
    }

    #[test]
    fn a_replys_full_batches_leave_and_its_remainder_rides_the_next_data_frame() {
        let mut a = AckTracker::new();
        for seq in 0..6 {
            a.on_accept(NodeId(1), seq);
        }
        a.note_sent(NodeId(1));
        a.on_accept(NodeId(1), 6);
        assert_eq!(collect_standalone(&mut a), [(NodeId(1), vec![0, 1, 2, 3])]);
        assert_eq!(
            a.take_piggy(NodeId(1)).iter().collect::<Vec<_>>(),
            [4, 5, 6]
        );
        assert!(collect_standalone(&mut a).is_empty());
    }

    #[test]
    fn force_flush_drains_everything_in_node_order() {
        let mut a = AckTracker::new();
        a.on_accept(NodeId(5), 50);
        a.on_accept(NodeId(2), 20);
        a.on_accept(NodeId(2), 21);
        let out = collect_standalone(&mut a);
        assert_eq!(
            out,
            vec![(NodeId(2), vec![20, 21]), (NodeId(5), vec![50])],
            "deterministic node order, all drained"
        );
        assert_eq!(a.pending_total(), 0);
    }

    #[test]
    fn big_backlog_splits_into_frame_sized_groups() {
        let mut a = AckTracker::new();
        for seq in 0..10 {
            a.on_accept(NodeId(1), seq);
        }
        let out = collect_standalone(&mut a);
        let sizes: Vec<usize> = out.iter().map(|(_, v)| v.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        let all: Vec<u32> = out.into_iter().flat_map(|(_, v)| v).collect();
        assert_eq!(all, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn drained_destinations_keep_capacity() {
        // The accept -> piggyback cycle must not shed the per-peer Vec: its
        // retained capacity is what makes the steady-state path allocation
        // free.
        let mut a = AckTracker::new();
        for round in 0..100 {
            a.on_accept(NodeId(1), round);
            let p = a.take_piggy(NodeId(1));
            assert_eq!(p.iter().collect::<Vec<_>>(), [round]);
        }
        assert_eq!(a.pending_total(), 0);
    }

    /// The [`AckTracker`] model: per peer, the acks still owed, oldest
    /// first, each with the number of flushes before its acceptance.
    type Owed = Vec<VecDeque<(u32, u32)>>;

    const PEERS: usize = 3;

    /// `acks` left the tracker toward one peer: each must be the oldest
    /// ack still owed to it.
    fn emitted(owed: &mut VecDeque<(u32, u32)>, acks: PiggyAcks) -> Result<(), String> {
        for seq in acks.iter() {
            match owed.pop_front() {
                Some((want, _)) if want == seq => {}
                other => return Err(format!("emitted {seq}, owed {other:?}")),
            }
        }
        Ok(())
    }

    /// One end-of-extract flush, checked against the model.
    fn flush(
        a: &mut AckTracker,
        owed: &mut Owed,
        flushes: &mut u32,
        sent_to: &[bool],
    ) -> Result<(), String> {
        let mut out = Vec::new();
        a.take_standalone(|node, acks| out.push((node, acks)));
        *flushes += 1;
        for (node, acks) in out {
            proptest::prop_assert!(!acks.is_empty() && acks.len() <= PIGGY_MAX);
            emitted(&mut owed[node.index()], acks)?;
        }
        for (peer, left) in owed.iter().enumerate() {
            proptest::prop_assert!(
                left.iter().all(|&(_, before)| before + 1 == *flushes),
                "peer {peer}: an ack outlived its second flush: {left:?}"
            );
            proptest::prop_assert!(
                sent_to[peer] || left.is_empty(),
                "peer {peer} was never sent to, yet {left:?} outlived a flush"
            );
        }
        Ok(())
    }

    proptest::proptest! {
        /// Random interleavings of accepts, sends, piggybacks, flushes and
        /// purges over three peers: every accepted ack leaves exactly
        /// once, in its peer's order, by the second flush after it was
        /// accepted, and by the first toward a peer never sent to. Every
        /// fourth seq jumps 40 000 ahead, so some neighbours do not share
        /// a frame.
        #[test]
        fn ack_tracker_matches_its_model(ops in proptest::collection::vec(0usize..5 * PEERS, 1..300usize)) {
            let mut a = AckTracker::new();
            let mut owed: Owed = vec![VecDeque::new(); PEERS];
            let mut sent_to = [false; PEERS];
            let (mut next_seq, mut flushes) = (0u32, 0u32);
            for op in ops {
                let (peer, node) = (op / 5, NodeId((op / 5) as u16));
                match op % 5 {
                    0 => {
                        a.on_accept(node, next_seq);
                        owed[peer].push_back((next_seq, flushes));
                        next_seq = next_seq.wrapping_add(if next_seq % 4 == 3 { 40_000 } else { 1 });
                    }
                    1 => {
                        a.note_sent(node);
                        sent_to[peer] = true;
                    }
                    2 => emitted(&mut owed[peer], a.take_piggy(node))?,
                    3 => flush(&mut a, &mut owed, &mut flushes, &sent_to)?,
                    _ => {
                        proptest::prop_assert_eq!(a.purge(node), owed[peer].len());
                        owed[peer].clear();
                    }
                }
                proptest::prop_assert_eq!(a.pending_total(), owed.iter().map(VecDeque::len).sum::<usize>());
            }
            flush(&mut a, &mut owed, &mut flushes, &sent_to)?;
            flush(&mut a, &mut owed, &mut flushes, &sent_to)?;
            proptest::prop_assert_eq!(a.pending_total(), 0);
        }
    }
}
