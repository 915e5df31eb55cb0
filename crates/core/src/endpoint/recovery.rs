//! The recovery side of [`EndpointCore`]: what the sender does with acks,
//! bounces, silence and death.
//!
//! Every window slot keeps its frame until it is acknowledged, so nothing
//! here handles frame bytes: an ack or a bounce is checked against the
//! frame its slot holds and flips the slot's state, and a retransmission —
//! paced after a bounce, fired by a timer, or triggered by hole repair —
//! is the slot's id going back on the wire queue.

use fm_myrinet::NodeId;

use super::{span, EndpointCore, OutEntry};
use crate::flow::SeqWindow;
use crate::frame::FrameHeader;
use fm_telemetry::{EventKind, Metric};

/// Why a frame is going out again.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Retransmit {
    /// It bounced off a full receiver.
    Bounce,
    /// Its retransmission timer expired.
    Timer,
    /// Later frames were acknowledged past it.
    Gap,
}

impl EndpointCore {
    /// True when `peer` has been declared dead (retry budget exhausted).
    pub fn is_dead(&self, peer: NodeId) -> bool {
        self.dead.get(peer.index()).copied().unwrap_or(false)
    }

    /// Drain the list of peers declared dead since the last call. The
    /// transport uses this to purge per-peer state outside the core (e.g.
    /// frames parked for a full wire).
    pub fn take_newly_dead(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.newly_dead)
    }

    /// Does window slot `slot` hold data frame `seq` to `dst`? A slot's
    /// frame stays behind when the slot is freed, so the slot must be held
    /// too.
    pub(super) fn holds_frame(&self, slot: u16, dst: NodeId, seq: u32) -> bool {
        self.sender.holds(slot) && {
            let head = &self.frames[slot as usize].head;
            head.dst == dst && head.seq == seq
        }
    }

    /// The ack for frame `seq` arrived from `from`, piggybacked or
    /// standalone. It is resolved through `from`'s send order: at the
    /// front on the clean in-order path, by binary search past a hole. A
    /// seq not outstanding to `from` frees nothing and counts as stale; an
    /// outstanding frame parked after a bounce stays parked (its resend is
    /// acked again).
    pub(super) fn on_ack(&mut self, seq: u32, from: NodeId) {
        self.stats.acks_received += 1;
        let found = self
            .send_order
            .get(from.index())
            .and_then(|order| match order.front() {
                Some(&(front, slot)) if front == seq => Some((0, slot)),
                _ => order
                    .binary_search_by(|&(s, _)| (s.wrapping_sub(seq) as i32).cmp(&0))
                    .ok()
                    .map(|pos| (pos, order[pos].1)),
            });
        let Some((pos, slot)) = found else {
            self.stats.stale_acks += 1;
            return;
        };
        // Karn's rule needs the flag *before* on_ack frees the slot: a
        // retransmitted slot's ack is ambiguous between transmissions
        // and must never become an RTT sample.
        let karn_clean = !self.sender.slot_retransmitted(slot);
        let Some(rtt) = self.sender.on_ack(slot, self.now) else {
            return;
        };
        self.telemetry.record(Metric::AckRttTicks, rtt);
        if karn_clean && self.config.adaptive_rto {
            self.rtt.on_sample(rtt);
            self.sender.set_rto_initial(self.rtt.rto());
        }
        if pos == 0 {
            self.send_order[from.index()].pop_front();
        } else {
            self.repair_holes(from, pos, seq);
        }
        // The one valid ack of a traced frame closes that trace's
        // send→ack round trip (clocksync's t3); like every ingress span it
        // carries the tick of the extract that services it.
        let trace = self.frames[slot as usize].head.trace;
        span(&self.telemetry, trace, self.now + 1, |trace, hop| {
            EventKind::SpanAckIn {
                trace,
                hop,
                peer: from.0,
            }
        });
    }

    /// Sender-side hole repair, from acks alone. The ack for `acked`
    /// (entry `pos` of `dst`'s send order) freed a frame behind still-held
    /// ones, so it overtook each of them that was last transmitted before
    /// `acked` first left.
    /// A held in-flight frame overtaken [`super::GAP_REPAIR_ACKS`] times is
    /// retransmitted at once instead of waiting out its timer while the
    /// receiver parks (and acks) ever more successors behind the hole. A
    /// bounced frame is skipped: its retransmission is already queued, and
    /// on a FIFO path its bounce arrives before any ack that overtook it,
    /// so return-to-sender arbitration is undisturbed.
    #[cold]
    fn repair_holes(&mut self, dst: NodeId, pos: usize, acked: u32) {
        let order = &mut self.send_order[dst.index()];
        order.remove(pos);
        let mut repairs = std::mem::take(&mut self.retx_scratch);
        for &(_, slot) in order.range(..pos) {
            let flow = &mut self.slot_flow[slot as usize];
            if (acked.wrapping_sub(flow.barrier) as i32) < 0 {
                continue;
            }
            flow.overtaken += 1;
            if flow.overtaken >= flow.needed && self.sender.retransmit_now(slot, self.now) {
                repairs.push(slot);
            }
        }
        for slot in repairs.drain(..) {
            self.queue_retransmit(slot, Retransmit::Gap);
        }
        self.retx_scratch = repairs;
    }

    /// Put the frame in `slot` on the wire queue again, with fresh acks
    /// claimed for it, counted and traced by cause. Restarts the frame's
    /// hole-repair count: only frames that leave after this transmission
    /// can overtake it.
    fn queue_retransmit(&mut self, slot: u16, cause: Retransmit) {
        let FrameHeader { dst, trace, .. } = self.frames[slot as usize].head;
        let flow = &mut self.slot_flow[slot as usize];
        flow.barrier = self.next_seq[dst.index()];
        flow.overtaken = 0;
        self.stats.retransmitted += 1;
        match cause {
            Retransmit::Bounce => {}
            Retransmit::Timer => self.stats.timer_retransmits += 1,
            Retransmit::Gap => {
                self.stats.gap_retransmits += 1;
                flow.needed = self.config.window as u32;
            }
        }
        self.telemetry.trace(
            self.now,
            EventKind::Retransmit {
                peer: dst.0,
                slot,
                timer: cause == Retransmit::Timer,
            },
        );
        span(&self.telemetry, trace, self.now, |trace, hop| {
            EventKind::SpanRetransmit {
                trace,
                hop,
                peer: dst.0,
            }
        });
        self.outgoing.push_back(OutEntry::Data {
            dst,
            slot,
            seq: self.frames[slot as usize].head.seq,
            piggy: self.acks.take_piggy(dst),
        });
    }

    /// One of our frames came back: the receiver had no room. The slot
    /// still holds the frame, so the returned copy only has to prove which
    /// frame it is — its slot, found in O(1), must hold the frame with the
    /// returned destination and seq; the slot is parked for a paced
    /// retransmission.
    pub(super) fn on_return(&mut self, head: &FrameHeader) {
        if self.holds_frame(head.slot, head.src, head.seq) && self.sender.on_bounce(head.slot) {
            self.stats.bounced += 1;
            self.telemetry.trace(
                self.now,
                EventKind::Bounce {
                    peer: head.src.0,
                    slot: head.slot,
                },
            );
        }
    }

    /// Fire expired retransmission timers: resend frames whose ack never
    /// came (covering both lost data and lost acks), and declare peers dead
    /// once a frame exhausts its retry budget. O(1) on the clean path via
    /// the reject queue's cached earliest deadline.
    pub(super) fn service_timers(&mut self) {
        if !self.sender.timer_due(self.now) {
            return;
        }
        let mut retx = std::mem::take(&mut self.retx_scratch);
        let mut failed = std::mem::take(&mut self.fail_scratch);
        self.sender
            .fire_timers(self.now, |slot| retx.push(slot), |slot| failed.push(slot));
        for slot in retx.drain(..) {
            self.queue_retransmit(slot, Retransmit::Timer);
        }
        self.retx_scratch = retx;
        for slot in failed.drain(..) {
            self.stats.unreachable_drops += 1; // the frame that gave up
            self.mark_dead(self.frames[slot as usize].head.dst);
        }
        self.fail_scratch = failed;
    }

    pub(super) fn retransmit_some(&mut self) {
        for _ in 0..self.config.retransmit_per_extract {
            let Some(slot) = self.sender.pop_retransmit(self.now) else {
                break;
            };
            self.queue_retransmit(slot, Retransmit::Bounce);
        }
    }

    /// Drop everything this endpoint still holds for or from `peer`,
    /// returning how many messages that loses — each once, however many
    /// times it was queued for the wire: frames in window slots toward it
    /// (their queue entries go with the slots), deferred sends and queued
    /// control frames toward it, pending acks (not messages: uncounted) and
    /// frames from it parked in the reorder window. Its half-reassembled
    /// large message, if any, is aborted too (counted by the reassembler,
    /// once: a later purge finds nothing open).
    fn purge_peer(&mut self, peer: NodeId) -> u64 {
        let idx = peer.index();
        let Self {
            sender,
            frames,
            outgoing,
            returns,
            ..
        } = self;
        let mut drops = sender.release_where(|slot| frames[slot as usize].head.dst == peer) as u64;
        if let Some(order) = self.send_order.get_mut(idx) {
            order.clear();
        }
        let mut return_is_lost = returns.iter().map(|image| image.head.dst == peer);
        outgoing.retain(|entry| {
            let lost = match *entry {
                // Counted above, by its slot, however often it is queued.
                OutEntry::Data { dst, .. } => return dst != peer,
                OutEntry::Ack { dst, .. } => dst == peer,
                OutEntry::Return => return_is_lost.next().expect("one image per Return entry"),
            };
            drops += lost as u64;
            !lost
        });
        returns.retain(|image| image.head.dst != peer);
        let before = self.deferred.len();
        self.deferred.retain(|(dst, _, _)| *dst != peer);
        drops += (before - self.deferred.len()) as u64;
        self.acks.purge(peer);
        self.reasm.abort_source(peer);
        if let Some(win) = self.recv_windows.get_mut(idx) {
            let cleared = win.clear_buffered();
            self.parked -= cleared;
            drops += cleared as u64;
        }
        drops
    }

    /// Declare `peer` dead and purge every piece of state that would
    /// otherwise wedge waiting on it (see [`Self::purge_peer`]). Surviving
    /// traffic to other peers is untouched — this is graceful degradation,
    /// not shutdown.
    pub(super) fn mark_dead(&mut self, peer: NodeId) {
        let idx = peer.index();
        if idx >= self.dead.len() {
            self.dead.resize(idx + 1, false);
        }
        if self.dead[idx] {
            return;
        }
        self.dead[idx] = true;
        self.newly_dead.push(peer);
        self.stats.dead_peers += 1;
        self.telemetry
            .trace(self.now, EventKind::PeerDead { peer: peer.0 });
        self.stats.unreachable_drops += self.purge_peer(peer);
    }

    /// `peer` restarted as a *new process* (the UDP handshake saw its
    /// generation change): wipe the bidirectional stream state so traffic
    /// resumes against its fresh sequence space instead of wedging.
    /// Outgoing sequence numbers restart at 0 (the new incarnation's
    /// receive window expects 0), the receive window is rebuilt (the new
    /// incarnation sends from 0), and everything still in flight toward
    /// the old incarnation is purged and counted in `unreachable_drops`,
    /// exactly as if the peer had died (see `purge_peer`). The dead
    /// mark, if set, is cleared: this is the one way back from a dead peer,
    /// and both ends must apply it. A peer declared dead has lost frames
    /// both ways (purged from window slots here, purged from the reorder
    /// window there), so resuming the old streams would leave a hole
    /// neither end ever fills. Sequence numbers restart at 0, so the
    /// fabric must hold no frame of the old streams (the UDP handshake's
    /// new generation, or a drained fabric) when both ends reset.
    pub fn reset_peer(&mut self, peer: NodeId) {
        let idx = peer.index();
        self.stats.unreachable_drops += self.purge_peer(peer);
        if let Some(seq) = self.next_seq.get_mut(idx) {
            *seq = 0;
        }
        if let Some(win) = self.recv_windows.get_mut(idx) {
            *win = SeqWindow::new(self.config.reorder_window);
        }
        if let Some(dead) = self.dead.get_mut(idx) {
            *dead = false;
        }
        self.stats.peer_resets += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{EndpointConfig, EndpointCore, OutEntry};
    use crate::handler::HandlerId;
    use fm_myrinet::NodeId;

    #[test]
    fn one_lost_frame_is_repaired_from_acks_without_a_timer() {
        let (mut a, mut b, hid) = stream_pair(EndpointConfig {
            adaptive_rto: true,
            ..Default::default()
        });
        send_n(&mut a, hid, 8);
        carry(&mut a, &mut b, |f| is_data(f, 2));
        assert_eq!(
            b.extract(usize::MAX),
            2,
            "0 and 1; 3..=7 park behind the hole"
        );
        // Acks 0, 1 free the front of the send order; 3, 4, 5 overtake
        // seq 2, and the third of them repairs it.
        carry(&mut b, &mut a, |_| false);
        assert_eq!(a.stats().gap_retransmits, 1);
        assert_eq!(a.stats().retransmitted, 1);
        assert_eq!(a.outgoing_len(), 1);
        carry(&mut a, &mut b, |_| false);
        assert_eq!(b.extract(usize::MAX), 6);
        carry(&mut b, &mut a, |_| false);
        assert!(a.is_quiescent() && b.is_quiescent(), "{a:?} {b:?}");
        assert_eq!(a.stats().timer_retransmits, 0);
        assert_eq!(b.stats().duplicates, 0);
        // Karn: the repaired slot's ack is ambiguous between its two
        // transmissions and never becomes an RTT sample.
        assert_eq!(a.rtt().samples(), 7);
    }

    #[test]
    fn two_holes_in_one_window_are_repaired_in_the_same_ack_round() {
        let (mut a, mut b, hid) = stream_pair(EndpointConfig::default());
        send_n(&mut a, hid, 12);
        carry(&mut a, &mut b, |f| is_data(f, 2) || is_data(f, 4));
        b.extract(usize::MAX);
        carry(&mut b, &mut a, |_| false);
        assert_eq!(a.stats().gap_retransmits, 2);
        let mut seqs = Vec::new();
        carry(&mut a, &mut b, |f| {
            seqs.push(f.head.seq);
            false
        });
        assert_eq!(seqs, [2, 4]);
        assert_eq!(b.extract(usize::MAX), 10);
        carry(&mut b, &mut a, |_| false);
        assert!(a.is_quiescent() && b.is_quiescent());
        assert_eq!(a.stats().timer_retransmits, 0);
    }

    #[test]
    fn a_lost_repair_is_repaired_again_after_a_further_window_of_acks() {
        let window = 8;
        let (mut a, mut b, hid) = stream_pair(EndpointConfig {
            window,
            ..Default::default()
        });
        // Seq 0 is lost twice: the original and its first repair.
        let mut losses = 2;
        let mut lose_head = move |f: &WireFrame| {
            let lost = is_data(f, 0) && losses > 0;
            losses -= lost as u32;
            lost
        };
        let mut round = |a: &mut EndpointCore, b: &mut EndpointCore, n: usize| {
            send_n(a, hid, n);
            carry(a, b, &mut lose_head);
            b.extract(usize::MAX);
            carry(b, a, |_| false);
            assert_eq!(a.send_order[1].len(), a.outstanding());
            assert!(a.outstanding() <= window);
        };
        // 1..=7 are acked past the hole: the third ack repairs it. The
        // repair went out after all of them, so none of the rest count.
        round(&mut a, &mut b, window);
        assert_eq!(a.stats().gap_retransmits, 1);
        // The repair is lost on the way out of this round. Seven later
        // frames acked: one short of a window, no second repair yet.
        round(&mut a, &mut b, window - 1);
        assert_eq!(a.stats().gap_retransmits, 1);
        // The eighth ack of a frame sent after the repair sends another.
        round(&mut a, &mut b, window - 1);
        assert_eq!(a.stats().gap_retransmits, 2);
        round(&mut a, &mut b, 0);
        assert!(a.is_quiescent() && b.is_quiescent(), "{a:?} {b:?}");
        assert_eq!(b.stats().delivered as usize, 3 * window - 2);
        assert_eq!(a.stats().timer_retransmits, 0);
    }

    /// A sender against a receiver whose ring holds four frames.
    fn shallow_receiver() -> (EndpointCore, EndpointCore, HandlerId) {
        let a = EndpointCore::new(NodeId(0), EndpointConfig::default());
        let mut b = EndpointCore::new(
            NodeId(1),
            EndpointConfig {
                recv_ring: 4,
                ..Default::default()
            },
        );
        let hid = b.register_handler(Box::new(|_, _, data| assert_eq!(data, [0u8; 8])));
        (a, b, hid)
    }

    #[test]
    fn a_bounced_head_is_never_gap_retransmitted() {
        let (mut a, mut b, hid) = shallow_receiver();
        // 0..=3 fill the ring, 4 bounces, 5..=9 park and are acked.
        send_n(&mut a, hid, 10);
        carry(&mut a, &mut b, |_| false);
        b.flush_acks();
        // The bounce is queued ahead of the acks that overtook it, so by
        // the time they arrive seq 4 is parked for its own retransmission.
        carry(&mut b, &mut a, |_| false);
        assert_eq!(a.stats().bounced, 1);
        assert_eq!(a.outstanding(), 1);
        assert_eq!(a.stats().gap_retransmits, 0);
        assert_eq!(a.outgoing_len(), 0, "five later acks, no repair");
        a.extract(usize::MAX);
        assert_eq!(a.stats().retransmitted, 1, "the bounce path resends it");
        assert_eq!(a.stats().gap_retransmits, 0);
    }

    /// The window slot is the source of truth for a bounced frame: the
    /// returned copy only has to identify it (the CRC vouched for the wire).
    #[test]
    fn a_bounce_retransmits_the_slots_bytes_not_the_returned_copy() {
        let (mut a, mut b, hid) = shallow_receiver();
        send_n(&mut a, hid, 5);
        carry(&mut a, &mut b, |_| false);
        let mut bounce = b.pop_outgoing().expect("seq 4 bounced");
        assert_eq!((bounce.head.kind, bounce.head.seq), (FrameKind::Return, 4));
        // A return naming its slot under another seq, or coming from
        // another node, is refused outright...
        let mut stale = bounce.clone();
        stale.head.seq -= 1;
        a.on_wire(stale);
        let mut foreign = bounce.clone();
        foreign.head.src = NodeId(2);
        a.on_wire(foreign);
        assert_eq!(a.stats().bounced, 0);
        // ...and one whose payload was altered still parks the slot.
        bounce.payload = bytes::Bytes::from_static(b"not what was sent");
        a.on_wire(bounce);
        assert_eq!(a.stats().bounced, 1);
        a.extract(usize::MAX);
        let resent = a.pop_outgoing().expect("paced retransmission");
        assert!(is_data(&resent, 4));
        assert_eq!(&resent.payload[..], [0u8; 8], "the slot's own bytes");
        // The receiver's handler checks them again on delivery.
        b.extract(usize::MAX);
        b.on_wire(resent);
        assert_eq!(b.extract(usize::MAX), 1);
    }

    /// A late ack may overtake a resend that is queued but not yet on the
    /// wire. The queue entry then refers to a slot its frame no longer
    /// holds: it must not put that slot's next occupant on the wire, and
    /// the acks it had claimed for the peer must still get there.
    #[test]
    fn a_queued_resend_whose_slot_was_acked_meanwhile_is_not_emitted() {
        let (mut a, mut b, hid) = stream_pair(EndpointConfig {
            rto_initial: 4,
            ..Default::default()
        });
        a.register_handler_at(hid, Box::new(|_, _, _| {}));
        send_n(&mut a, hid, 1);
        carry(&mut a, &mut b, |_| false);
        b.extract(usize::MAX);
        let late_ack = b.pop_outgoing().expect("the ack, delayed in the network");
        for _ in 0..3 {
            a.extract(usize::MAX);
        }
        // A frame of b's arrives just before a's timer fires, so the resend
        // claims its ack.
        b.try_send(NodeId(0), hid, [9]).unwrap();
        carry(&mut b, &mut a, |_| false);
        a.extract(usize::MAX);
        assert_eq!(a.stats().timer_retransmits, 1);
        assert_eq!(a.outgoing_len(), 1, "resend queued, wire not flushed yet");
        a.on_wire(late_ack);
        assert_eq!(a.outstanding(), 0);
        let acks = a.pop_outgoing().expect("the claimed ack travels alone");
        assert_eq!((acks.head.kind, acks.head.piggy.len()), (FrameKind::Ack, 1));
        b.on_wire(acks);
        assert_eq!(b.outstanding(), 0, "and frees b's slot");
        assert!(a.pop_outgoing().is_none(), "nothing left to resend");
        assert!(a.is_quiescent(), "{a:?}");
        // The freed slot is reused by the next seq, and only the new frame
        // is emitted for it.
        send_n(&mut a, hid, 1);
        let next = a.pop_outgoing().expect("fresh frame").head;
        assert_eq!((next.slot, next.seq), (0, 1));
        assert!(a.pop_outgoing().is_none());
        assert_eq!(a.outstanding(), 1);
    }

    /// The hazard a reused-slot name had: an ack held back in the network
    /// while its slot is reused 64 times names that slot under the same
    /// 6-bit generation tag as its current occupant. Named by seq, it
    /// names a frame long freed and frees nothing.
    #[test]
    fn an_ack_that_outlives_64_reuses_of_its_slot_frees_nothing() {
        let (mut a, mut b, _) = stream_pair(EndpointConfig {
            window: 1,
            rto_initial: 4,
            ..Default::default()
        });
        let got = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = got.clone();
        let hid = b.register_handler(Box::new(move |_, _, data| {
            log.lock().unwrap().push(data[0])
        }));
        let send = |a: &mut EndpointCore, i: u8| a.try_send(NodeId(1), hid, [i]).unwrap();
        // Seq 0 is delivered; its ack is held back in the network. The
        // timer resends seq 0, and the re-ack of that copy frees slot 0.
        send(&mut a, 0);
        carry(&mut a, &mut b, |_| false);
        b.extract(usize::MAX);
        let held = b.pop_outgoing().expect("the ack of seq 0");
        while a.stats().timer_retransmits == 0 {
            a.extract(usize::MAX);
        }
        carry(&mut a, &mut b, |_| false);
        b.extract(usize::MAX);
        carry(&mut b, &mut a, |_| false);
        assert_eq!(a.outstanding(), 0);
        // Slot 0 carries seqs 1..=63 out and back, then seq 64 — its 64th
        // reuse — which the network loses.
        for i in 1..=63 {
            send(&mut a, i);
            carry(&mut a, &mut b, |_| false);
            b.extract(usize::MAX);
            carry(&mut b, &mut a, |_| false);
        }
        send(&mut a, 64);
        assert_eq!(
            a.pop_outgoing().map(|f| (f.head.slot, f.head.seq)),
            Some((0, 64))
        );
        a.on_wire(held);
        // Seq 64's timer resends it; nothing else is lost.
        for _ in 0..64 {
            a.extract(usize::MAX);
            carry(&mut a, &mut b, |_| false);
            b.extract(usize::MAX);
            carry(&mut b, &mut a, |_| false);
        }
        assert_eq!(
            *got.lock().unwrap(),
            (0..=64).collect::<Vec<u8>>(),
            "each once"
        );
        assert!(a.is_quiescent() && b.is_quiescent(), "{a:?} {b:?}");
        assert_eq!(a.stats().stale_acks, 1);
    }

    #[test]
    fn a_dead_peer_loses_each_message_once_however_often_it_was_queued() {
        let mut a = EndpointCore::new(
            NodeId(0),
            EndpointConfig {
                window: 4,
                rto_initial: 2,
                rto_max: 4,
                retry_budget: 3,
                ..Default::default()
            },
        );
        for i in 0..4u8 {
            a.try_send(NodeId(1), HandlerId(1), [i]).unwrap();
        }
        // The wire is never drained: every fresh frame and every timer
        // resend of it stays queued until the peer is given up on.
        let mut ticks = 0;
        while !a.is_dead(NodeId(1)) {
            a.extract(usize::MAX);
            ticks += 1;
            assert!(ticks < 100, "{a:?}");
        }
        assert_eq!(a.stats().timer_retransmits, 12, "4 frames x 3 retries");
        assert_eq!(a.stats().unreachable_drops, 4);
        assert!(a.is_quiescent(), "queue entries went with the slots: {a:?}");
        assert_eq!(a.take_newly_dead(), [NodeId(1)]);
    }

    #[test]
    fn control_frames_toward_a_reset_peer_are_purged_with_their_images() {
        // Node 1 bounces a frame of node 0's and one of node 2's, acks
        // both; then node 0 restarts.
        let mut b = EndpointCore::new(
            NodeId(1),
            EndpointConfig {
                recv_ring: 1,
                ..Default::default()
            },
        );
        for src in [0, 2] {
            let mut a = EndpointCore::new(NodeId(src), EndpointConfig::default());
            send_n(&mut a, HandlerId(1), 2);
            carry(&mut a, &mut b, |_| false);
        }
        b.flush_acks();
        let kinds = |b: &EndpointCore| -> Vec<&str> {
            b.outgoing
                .iter()
                .map(|e| match e {
                    OutEntry::Data { .. } => "data",
                    OutEntry::Ack { .. } => "ack",
                    OutEntry::Return => "return",
                })
                .collect()
        };
        // One ring slot: node 0's first frame got it; its second, and node
        // 2's first (ring full), bounce; node 2's second parks, acked.
        assert_eq!(kinds(&b), ["return", "return", "ack", "ack"]);
        b.reset_peer(NodeId(0));
        assert_eq!(kinds(&b), ["return", "ack"]);
        assert_eq!(b.stats().unreachable_drops, 2, "one return, one ack");
        let left: Vec<_> = std::iter::from_fn(|| b.pop_outgoing())
            .map(|f| (f.head.kind, f.head.dst))
            .collect();
        assert_eq!(
            left,
            [(FrameKind::Return, NodeId(2)), (FrameKind::Ack, NodeId(2))]
        );
    }

    #[test]
    fn dead_and_reset_peers_leave_no_send_order_behind() {
        let (mut a, _b, hid) = stream_pair(EndpointConfig::default());
        send_n(&mut a, hid, 5);
        assert_eq!(a.send_order[1].len(), 5);
        a.mark_dead(NodeId(1));
        assert!(a.send_order[1].is_empty());
        a.reset_peer(NodeId(1));
        assert!(!a.is_dead(NodeId(1)), "a reset clears the dead mark");
        send_n(&mut a, hid, 3);
        assert_eq!(a.send_order[1].len(), 3);
        a.reset_peer(NodeId(1));
        assert!(a.send_order[1].is_empty());
        assert_eq!(a.outstanding(), 0);
    }
}
