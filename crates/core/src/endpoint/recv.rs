//! The receive side of [`EndpointCore`]: the receive ring is the handler's
//! buffer.
//!
//! A frame arrives as a validated header plus a borrow of its payload
//! (still in the wire). Admission — sequence class, ring space, the
//! source's ring quota — is decided on the header alone; only then is the
//! payload copied, once, to wherever the decision sends it: the next
//! receive-ring slot, the reorder window, a return image, or nowhere.
//! `extract` runs each handler on the ring slot itself and releases the
//! slot afterwards.

use fm_myrinet::NodeId;

use super::{grow, span, EndpointCore, OutEntry, RING_ACTIVE_TICKS};
use crate::flow::{SeqClass, SeqWindow};
use crate::frame::{FrameHeader, FrameKind, FrameSlot, WireFrame};
use crate::time::TimeSource;
use fm_telemetry::{EventKind, Metric};

impl EndpointCore {
    /// Process one frame that arrived from the network: `head` and
    /// `payload` as [`FrameHeader::parse`] split them, the payload still
    /// lying in the transport's buffer.
    pub fn on_frame(&mut self, head: &FrameHeader, payload: &[u8]) {
        debug_assert_eq!(head.dst, self.id, "transport misrouted a frame");
        // Wire-ingress span events are stamped with the tick of the
        // `extract` that will process the arrival (`now` increments at the
        // top of extract, but transports pump the wire just before calling
        // it). Stamping at `now` instead would label every receive one
        // tick *before* the send that caused it whenever the crossing
        // completes within one service round — a systematic skew that
        // makes the merged timeline's happens-before constraints
        // cyclically infeasible on ring topologies.
        //
        // Under wall-clock time the opposite staleness bites: `now` still
        // holds the *previous* extract's reading, so an endpoint that sat
        // idle between service rounds would stamp this arrival tens of
        // microseconds before the send that caused it — the same
        // infeasibility, from the other direction. Re-read the clock at
        // ingress instead (real time has genuinely advanced; the one
        // Instant read is noise next to the recv syscall that got us here).
        if self.config.time_source == TimeSource::WallMicros {
            self.advance_clock();
        }
        // Piggybacked acks count regardless of what happens to the frame.
        for &word in head.piggy.as_slice() {
            self.on_ack_word(word, head.src);
        }
        match head.kind {
            FrameKind::Data => self.on_data(head, payload),
            FrameKind::Return => self.on_return(head),
            FrameKind::Ack => { /* piggy area already processed above */ }
        }
    }

    /// [`EndpointCore::on_frame`] for harnesses that carry frames by value.
    pub fn on_wire(&mut self, frame: WireFrame) {
        self.on_frame(&frame.head, &frame.payload);
    }

    /// Admit one incoming data frame through the per-source sequence
    /// window. Four outcomes:
    ///
    /// * duplicate (retransmission of something already accepted) — drop
    ///   it but re-ack, since the ack may be what got lost; unless the
    ///   accepted copy is parked beyond the ack reach and so was never
    ///   acked: then bounce it, as the sender may not count it yet;
    /// * in order — accept into the ring (bounce if full), ack, and pull
    ///   any directly-following buffered frames in behind it;
    /// * ahead within the reorder window — buffer, deliver when the gap
    ///   fills, and ack once within the ack reach (now, or when the
    ///   in-order point catches up: [`Self::ack_reached`]);
    /// * too far ahead — bounce without acking (bounds receiver memory;
    ///   the sender's bounce path retransmits it later). Only a sender
    ///   with a larger window than ours can get here.
    fn on_data(&mut self, head: &FrameHeader, payload: &[u8]) {
        let FrameHeader {
            src,
            slot,
            slot_gen: gen,
            seq,
            trace,
            ..
        } = *head;
        // Span events fire only on *acceptance* (never for duplicates the
        // sequence window suppresses), so every traced `(trace, hop)` wire
        // crossing yields exactly one SpanWireIn even under loss-driven
        // retransmission — the invariant the merged-timeline flow pairing
        // relies on. See on_frame: ingress spans carry the tick of the
        // extract that services them.
        let arrival = self.now + 1;
        let wire_in = |trace, hop| EventKind::SpanWireIn {
            trace,
            hop,
            src: src.0,
        };
        *grow(&mut self.last_data, src.index()) = self.now;
        let reach = self.ack_reach;
        let win = self.window_mut(src);
        let offset = seq.wrapping_sub(win.next_expected());
        match win.classify(seq) {
            // The first copy is parked beyond reach, so never acked (this is
            // a timer resend or a network copy): acking it would let the
            // sender run past the lookahead. Bounce it, like TooFar.
            SeqClass::Duplicate if offset as i32 > reach as i32 => self.bounce(head, payload),
            SeqClass::Duplicate => {
                self.stats.duplicates += 1;
                self.accept_ack(src, slot, gen);
            }
            // Return to sender: the receiver has no room (or this source
            // is over its ring quota, or ran too far ahead); the source
            // reserved reject-queue space for exactly this case. Not
            // acked, not advanced — an in-order frame's retransmission
            // will be InOrder again.
            SeqClass::InOrder if !self.ring_admissible(src.index()) => self.bounce(head, payload),
            SeqClass::TooFar => self.bounce(head, payload),
            SeqClass::InOrder => {
                *grow(&mut self.ring_share, src.index()) += 1;
                let pushed = self.recv_ring.push_with(|at| at.fill(*head, payload));
                debug_assert!(pushed, "ring_admissible checked capacity");
                span(&self.telemetry, trace, arrival, wire_in);
                self.accept_and_span(head, arrival);
                // classify() above guarantees the window exists at
                // src.index(), grow() the share entry.
                self.recv_windows[src.index()].advance();
                self.ack_reached(src.index(), arrival);
                self.drain_window(src.index(), arrival);
            }
            // Park first, ack second: an acked frame is a frame the sender
            // will never resend, so the ack must only go out once the
            // frame is actually retained.
            SeqClass::Ahead => match self
                .window_mut(src)
                .buffer(seq, FrameSlot::new(*head, payload))
            {
                Ok(()) => {
                    span(&self.telemetry, trace, arrival, wire_in);
                    span(&self.telemetry, trace, arrival, |trace, hop| {
                        EventKind::SpanPark {
                            trace,
                            hop,
                            src: src.0,
                        }
                    });
                    if offset <= reach {
                        self.accept_and_span(head, arrival);
                    }
                }
                Err(_) => {
                    // classify() filters duplicates and out-of-window seqs,
                    // so a refusal here is unreachable — but if it ever
                    // fires, bouncing (unacked) is the safe recovery: the
                    // sender retransmits instead of losing the frame.
                    self.stats.seq_buffer_misuse += 1;
                    self.bounce(head, payload);
                }
            },
        }
    }

    /// Send a data frame back where it came from, unacked.
    fn bounce(&mut self, head: &FrameHeader, payload: &[u8]) {
        self.stats.rejected += 1;
        self.returns
            .push_back(FrameSlot::new(head.into_return(), payload));
        self.outgoing.push_back(OutEntry::Return);
    }

    /// May one more in-order frame from `src` enter the receive ring?
    /// Both ring capacity and the source's quota must have room. A
    /// refusal is bounced exactly like a full ring: not acked, not
    /// advanced, retransmitted in order.
    fn ring_admissible(&self, src: usize) -> bool {
        !self.recv_ring.is_full()
            && (self.ring_share.get(src).copied().unwrap_or(0) as usize) < self.ring_quota
    }

    /// Recompute the per-source ring quota from the set of recently-active
    /// sources. Called once per extract tick — O(sources), amortized away
    /// by the deliveries the tick performs.
    pub(super) fn refresh_ring_quota(&mut self) {
        let now = self.now;
        let active = self
            .last_data
            .iter()
            .filter(|&&t| t != 0 && now.saturating_sub(t) <= RING_ACTIVE_TICKS)
            .count();
        self.ring_quota = (self.config.recv_ring / active.max(1)).max(1);
    }

    /// Queue a (re-)ack for an accepted frame, counting refusals — a slot
    /// too wide for the 10-bit ack word would alias another slot on the
    /// sender, so it is dropped unacked and recovered by the sender's
    /// retransmission timer.
    fn accept_ack(&mut self, src: NodeId, slot: u16, gen: u8) -> bool {
        let ok = self.acks.on_accept(src, slot, gen);
        if !ok {
            self.stats.invalid_ack_slots += 1;
        }
        ok
    }

    /// [`Self::accept_ack`] for a freshly retained frame, with the
    /// ack-out span of a sampled one.
    fn accept_and_span(&mut self, head: &FrameHeader, arrival: u64) {
        if self.accept_ack(head.src, head.slot, head.slot_gen) {
            span(&self.telemetry, head.trace, arrival, |trace, hop| {
                EventKind::SpanAckOut {
                    trace,
                    hop,
                    dst: head.src.0,
                }
            });
        }
    }

    fn window_mut(&mut self, src: NodeId) -> &mut SeqWindow<FrameSlot> {
        let idx = src.index();
        if idx >= self.recv_windows.len() {
            let lookahead = self.config.reorder_window;
            self.recv_windows
                .resize_with(idx + 1, || SeqWindow::new(lookahead));
        }
        &mut self.recv_windows[idx]
    }

    /// Source `src`'s in-order point just moved up by one, bringing the
    /// frame parked `ack_reach` past it (if any) within reach: ack it now,
    /// its ack-out span stamped at `tick`. Every parked frame is acked
    /// exactly once — on parking within reach, or here, since offsets
    /// shrink one step at a time.
    fn ack_reached(&mut self, src: usize, tick: u64) {
        if let Some(frame) = self.recv_windows[src].parked_at(self.ack_reach) {
            let head = frame.head;
            self.accept_and_span(&head, tick);
        }
    }

    /// Move `src`'s consecutively-sequenced buffered frames into the
    /// receive ring, stopping at the source's quota — a primed reorder
    /// buffer must not refill every slot extract frees (that is the incast
    /// capture path; see `ring_share`). Each release acks the frame it
    /// brings within reach, stamped at `tick`.
    fn drain_window(&mut self, src: usize, tick: u64) {
        while self.recv_windows[src].buffered() > 0
            && !self.recv_ring.is_full()
            && (self.ring_share[src] as usize) < self.ring_quota
        {
            let Some(frame) = self.recv_windows[src].take_ready() else {
                break;
            };
            let pushed = self.recv_ring.push_with(|at| *at = frame);
            debug_assert!(pushed, "checked not full above");
            self.ring_share[src] += 1;
            self.ack_reached(src, tick);
        }
    }

    /// Refill the receive ring from every source's reorder buffer,
    /// starting at a rotating source so no source owns the front of the
    /// scan. Under incast, K backlogged sources contend for the freed
    /// ring slots every extract; rotation shares them ~1/K instead of
    /// letting source order decide.
    pub(super) fn drain_all_windows(&mut self) {
        let n = self.recv_windows.len();
        if n == 0 {
            return;
        }
        if self.ring_share.len() < n {
            self.ring_share.resize(n, 0);
        }
        // `(drain_rr + 1) % n`, then `(drain_rr + k) % n` — as wrapping
        // cursors, since this runs two or three times per extract.
        let next = |i: usize| if i + 1 >= n { 0 } else { i + 1 };
        self.drain_rr = next(self.drain_rr);
        let mut i = self.drain_rr;
        for _ in 0..n {
            if self.recv_ring.is_full() {
                break;
            }
            if self.recv_windows[i].buffered() > 0 {
                self.drain_window(i, self.now);
            }
            i = next(i);
        }
    }

    /// Run the handler of the frame at the head of the receive ring on the
    /// frame where it lies, then release the ring slot — before the sends
    /// the handler queued are flushed, so a handler that sends to its own
    /// node finds the slot free again. Returns true when a handler ran to
    /// completion (frames for unknown or panicking handlers are consumed
    /// without counting as deliveries).
    pub(super) fn deliver_head(&mut self) -> bool {
        let frame = self.recv_ring.peek().expect("caller saw a frame");
        let FrameHeader {
            src,
            handler,
            trace,
            ..
        } = frame.head;
        let mut taken = self.registry.take(handler);
        let mut panicked = false;
        if let Some(h) = taken.as_mut() {
            span(&self.telemetry, trace, self.now, |trace, hop| {
                EventKind::SpanHandlerStart {
                    trace,
                    hop,
                    src: src.0,
                }
            });
            // Time only 1 delivery in 64 (the default trace sampling
            // rate): two clock reads are ~50 ns against a ~250 ns message,
            // the single largest instrumentation cost on the clean path,
            // and a 1-in-64 sample still feeds the service-time histogram
            // tens of thousands of points per second under load.
            self.handler_probe = self.handler_probe.wrapping_add(1);
            let start = (self.handler_probe & 63 == 0).then(std::time::Instant::now);
            let outbox = &mut self.outbox;
            panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                h(outbox, src, frame.payload())
            }))
            .is_err();
            if let Some(t0) = start {
                self.telemetry
                    .record(Metric::HandlerNs, t0.elapsed().as_nanos() as u64);
            }
        }
        self.recv_ring.release();
        let share = grow(&mut self.ring_share, src.index());
        *share = share.saturating_sub(1);
        match taken {
            None => {
                // Unknown handler: the message is consumed (and was already
                // acked on acceptance) — matching FM's "buffers do not
                // persist"; we surface it in stats rather than crashing the
                // node.
                self.stats.unknown_handler += 1;
                false
            }
            Some(_) if panicked => {
                // The handler's internal state is suspect, so it is
                // dropped rather than put back (later frames for this id
                // count as unknown_handler), and any sends it queued
                // before dying are discarded — a half-built causal burst
                // must not escape. The node itself keeps running: one bad
                // handler cannot wedge the cluster.
                self.stats.handler_panics += 1;
                drop(self.outbox.drain());
                false
            }
            Some(h) => {
                self.registry.put_back(handler, h);
                self.stats.delivered += 1;
                span(&self.telemetry, trace, self.now, |trace, hop| {
                    EventKind::SpanHandlerEnd { trace, hop }
                });
                // Flush handler sends immediately so causally-related
                // messages leave in issue order when the window allows;
                // those of a sampled delivery leave one hop deeper in its
                // trace.
                self.active_trace = trace.sampled.then_some(trace);
                self.flush_handler_sends();
                self.active_trace = None;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{EndpointConfig, EndpointCore};
    use crate::handler::HandlerId;
    use fm_myrinet::NodeId;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn full_ring_bounces_and_retransmission_recovers() {
        let mut a = EndpointCore::new(NodeId(0), EndpointConfig::default());
        let mut b = EndpointCore::new(
            NodeId(1),
            EndpointConfig {
                recv_ring: 4,
                ..Default::default()
            },
        );
        let delivered = Arc::new(AtomicU64::new(0));
        let d2 = delivered.clone();
        let hid = b.register_handler(Box::new(move |_, _, data| {
            // In order, and the bounced frame's bytes survived the trip.
            assert_eq!(data, [d2.fetch_add(1, Ordering::SeqCst) as u8]);
        }));
        // Send 10 frames into a 4-deep ring without extracting. Seqs 0-3
        // fill the ring; seq 4 is next-in-order but finds the ring full and
        // bounces; seqs 5-9 are ahead of the in-order point, so the reorder
        // window buffers and acks them for delivery once 4 lands.
        for i in 0..10u8 {
            a.try_send(NodeId(1), hid, [i]).unwrap();
        }
        pump(&mut a, &mut b);
        assert_eq!(b.stats().rejected, 1);
        assert_eq!(a.stats().bounced, 1);
        assert_eq!(b.recv_buffered(), 5);
        // Drain and retransmit until everything lands.
        let mut rounds = 0;
        while delivered.load(Ordering::SeqCst) < 10 {
            b.extract(usize::MAX);
            a.extract(usize::MAX); // paces retransmissions
            pump(&mut a, &mut b);
            rounds += 1;
            assert!(rounds < 50, "no progress: {:?} / {:?}", a, b);
        }
        // The bounced in-order frame must have been retransmitted.
        assert!(a.stats().retransmitted >= 1);
        pump(&mut a, &mut b);
        b.extract(usize::MAX);
        a.extract(usize::MAX);
        pump(&mut a, &mut b);
        assert!(a.is_quiescent(), "{a:?}");
        assert!(b.is_quiescent(), "{b:?}");
    }

    #[test]
    fn handler_reply_from_handler() {
        let (mut a, mut b) = pair();
        let got_reply = Arc::new(AtomicU64::new(0));
        let g2 = got_reply.clone();
        let reply_h = a.register_handler(Box::new(move |_, src, data| {
            assert_eq!(src, NodeId(1));
            assert_eq!(data, b"pong");
            g2.fetch_add(1, Ordering::SeqCst);
        }));
        // b's handler replies to the sender — the Active-Messages idiom.
        let ping_h = b.register_handler(Box::new(move |out, src, _| {
            out.send(src, reply_h, &b"pong"[..]);
        }));
        assert_eq!(ping_h, reply_h, "both registries assign id 1 here");
        a.try_send(NodeId(1), ping_h, b"ping").unwrap();
        pump(&mut a, &mut b);
        b.extract(usize::MAX);
        pump(&mut a, &mut b);
        a.extract(usize::MAX);
        assert_eq!(got_reply.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unknown_handler_counted_not_fatal() {
        let (mut a, mut b) = pair();
        a.try_send(NodeId(1), HandlerId(77), b"?").unwrap();
        pump(&mut a, &mut b);
        assert_eq!(b.extract(usize::MAX), 0);
        assert_eq!(b.stats().unknown_handler, 1);
        // Still acked: sender's slot frees.
        pump(&mut a, &mut b);
        assert_eq!(a.outstanding(), 0);
    }

    /// Delivery happens in the ring slot; every way a delivery can end —
    /// handler returns, handler panics, no handler — must give the slot
    /// (and the source's share of the ring) back.
    #[test]
    fn every_kind_of_delivery_releases_its_ring_slot() {
        let (mut a, mut b) = pair();
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        let good = b.register_handler(Box::new(move |_, _, data| {
            s2.fetch_add(data[0] as u64, Ordering::SeqCst);
        }));
        let bad = b.register_handler(Box::new(|out, src, _| {
            out.send(src, HandlerId(1), &b"must not escape"[..]);
            panic!("handler bug");
        }));
        let unknown = HandlerId(77);
        for (i, h) in [bad, good, unknown, good, bad, good]
            .into_iter()
            .enumerate()
        {
            a.try_send(NodeId(1), h, [1 << i]).unwrap();
        }
        pump(&mut a, &mut b);
        assert_eq!(b.pending_extract(), 6);
        assert_eq!(b.ring_share[0], 6);
        for left in (0..6).rev() {
            // A failed delivery uses no budget, so one call may retire two.
            b.extract(1);
            assert!(b.pending_extract() <= left, "slot {left} not released");
        }
        assert_eq!(b.pending_extract(), 0);
        assert_eq!(b.ring_share[0], 0, "share ledger balanced");
        let stats = b.stats();
        // The second `bad` frame found the handler gone.
        assert_eq!(
            (stats.delivered, stats.handler_panics, stats.unknown_handler),
            (3, 1, 2)
        );
        assert_eq!(seen.load(Ordering::SeqCst), 0b101010);
        assert!(
            std::iter::from_fn(|| b.pop_outgoing()).all(|f| f.head.kind == FrameKind::Ack),
            "a panicking handler's sends are discarded"
        );
    }

    #[test]
    fn a_handler_sending_to_its_own_node_finds_its_ring_slot_free() {
        // recv_ring 1: the loopback send a handler issues is flushed after
        // the delivery released the only slot, so it is accepted.
        let mut a = EndpointCore::new(
            NodeId(0),
            EndpointConfig {
                recv_ring: 1,
                ..Default::default()
            },
        );
        let hops = Arc::new(AtomicU64::new(0));
        let h2 = hops.clone();
        a.register_handler_at(
            HandlerId(1),
            Box::new(move |out, me, _| {
                if h2.fetch_add(1, Ordering::SeqCst) < 3 {
                    out.send(me, HandlerId(1), &b"again"[..]);
                }
            }),
        );
        a.try_send(NodeId(0), HandlerId(1), b"go").unwrap();
        assert_eq!(a.extract(usize::MAX), 4);
        assert_eq!(a.stats().deferred_sends, 0);
        assert!(a.is_quiescent());
    }

    #[test]
    fn a_deferred_send_to_its_own_node_loops_back_once_the_ring_has_room() {
        // recv_ring 1: of the two messages a handler sends its own node,
        // the second finds the ring full and is deferred. It must wait for
        // ring space, not leave as a network frame addressed to itself
        // (which no wire delivers: its timer would declare this node dead).
        let mut a = EndpointCore::new(
            NodeId(0),
            EndpointConfig {
                recv_ring: 1,
                rto_initial: 8,
                rto_max: 8,
                retry_budget: 4,
                ..Default::default()
            },
        );
        let got = Arc::new(AtomicU64::new(0));
        let g = got.clone();
        a.register_handler_at(
            HandlerId(1),
            Box::new(move |out, me, data| {
                g.fetch_add(1, Ordering::SeqCst);
                if data == b"go" {
                    out.send(me, HandlerId(1), &b"one"[..]);
                    out.send(me, HandlerId(1), &b"two"[..]);
                }
            }),
        );
        a.try_send(NodeId(0), HandlerId(1), b"go").unwrap();
        for _ in 0..64 {
            a.extract(usize::MAX);
            assert_eq!(a.outgoing_len(), 0, "nothing for the wire");
        }
        assert_eq!(got.load(Ordering::SeqCst), 3);
        let stats = a.stats();
        assert_eq!((stats.deferred_sends, stats.loopback), (1, 3));
        assert_eq!((stats.sent, stats.timer_retransmits), (0, 0));
        assert!(!a.is_dead(NodeId(0)));
        assert!(a.is_quiescent(), "{a:?}");
    }

    #[test]
    fn a_handler_send_to_a_dead_peer_is_an_unreachable_drop_not_a_deferral() {
        let mut a = EndpointCore::new(NodeId(0), EndpointConfig::default());
        a.register_handler_at(
            HandlerId(1),
            Box::new(|out, _, _| out.send(NodeId(1), HandlerId(1), &b"lost"[..])),
        );
        a.mark_dead(NodeId(1));
        a.try_send(NodeId(0), HandlerId(1), b"go").unwrap();
        assert_eq!(a.extract(usize::MAX), 1);
        let stats = a.stats();
        assert_eq!((stats.deferred_sends, stats.unreachable_drops), (0, 1));
        assert!(a.is_quiescent(), "{a:?}");
    }

    #[test]
    fn extract_budget_limits_deliveries() {
        let (mut a, mut b) = pair();
        let hid = b.register_handler(Box::new(|_, _, _| {}));
        for _ in 0..5 {
            a.try_send(NodeId(1), hid, [0]).unwrap();
        }
        pump(&mut a, &mut b);
        assert_eq!(b.extract(2), 2);
        assert_eq!(b.pending_extract(), 3);
        assert_eq!(b.extract(usize::MAX), 3);
    }

    /// `b`'s in-order point for frames from node 0.
    fn next_expected(b: &EndpointCore) -> u32 {
        b.recv_windows.first().map_or(0, |w| w.next_expected())
    }

    /// [`pump`], checking every frame on its way: a data frame lies at
    /// most `reorder_window` past `b`'s in-order point when `b` gets it.
    /// Returns how many of `b`'s bounces carried a frame past that point.
    fn pump_checked(a: &mut EndpointCore, b: &mut EndpointCore) -> usize {
        let lookahead = b.config.reorder_window as i32;
        let mut past = 0;
        loop {
            let mut moved = false;
            while let Some(f) = a.pop_outgoing() {
                moved = true;
                let ahead = f.head.seq.wrapping_sub(next_expected(b)) as i32;
                if f.head.kind == FrameKind::Data {
                    assert!(ahead <= lookahead, "seq {} is {ahead} ahead", f.head.seq);
                }
                b.on_wire(f);
            }
            while let Some(f) = b.pop_outgoing() {
                moved = true;
                let ahead = f.head.seq.wrapping_sub(next_expected(b)) as i32;
                past += (f.head.kind == FrameKind::Return && ahead > 0) as usize;
                a.on_wire(f);
            }
            if !moved {
                return past;
            }
        }
    }

    /// A receiver with `cfg` whose handler checks that node 0's messages
    /// arrive numbered 0, 1, 2, ..., and the count it has seen.
    fn counting_receiver(cfg: EndpointConfig) -> (EndpointCore, HandlerId, Arc<AtomicU64>) {
        let mut b = EndpointCore::new(NodeId(1), cfg);
        let got = Arc::new(AtomicU64::new(0));
        let g = got.clone();
        let hid = b.register_handler(Box::new(move |_, _, data| {
            let want = g.fetch_add(1, Ordering::SeqCst) as u32;
            assert_eq!(data, want.to_le_bytes(), "exactly once, in order");
        }));
        (b, hid, got)
    }

    /// Send what the window takes of `msgs` numbered messages.
    fn send_numbered(a: &mut EndpointCore, hid: HandlerId, sent: &mut u32, msgs: u32) {
        while *sent < msgs && a.try_send(NodeId(1), hid, sent.to_le_bytes()).is_ok() {
            *sent += 1;
        }
    }

    /// Stream `msgs` messages over a lossless pair with `cfg` into a
    /// receiver that extracts one message every fourth round, checking
    /// every frame with [`pump_checked`], until both sides are quiescent.
    /// Returns the pair and the deepest reorder-ring use seen.
    fn slow_receiver_stream(cfg: EndpointConfig, msgs: u32) -> (EndpointCore, EndpointCore, usize) {
        let mut a = EndpointCore::new(NodeId(0), cfg);
        let (mut b, hid, got) = counting_receiver(cfg);
        let (mut sent, mut deepest) = (0, 0);
        for round in 0.. {
            assert!(round < 100_000, "{a:?} {b:?}");
            send_numbered(&mut a, hid, &mut sent, msgs);
            assert_eq!(
                pump_checked(&mut a, &mut b),
                0,
                "bounced past the in-order point"
            );
            deepest = deepest.max(b.recv_windows[0].storage().0);
            if round % 4 == 0 {
                b.extract(1);
            }
            a.extract(usize::MAX);
            if got.load(Ordering::SeqCst) == msgs as u64 && a.is_quiescent() && b.is_quiescent() {
                break;
            }
        }
        (a, b, deepest)
    }

    #[test]
    fn a_sender_never_runs_past_the_lookahead() {
        let (a, b, deepest) = slow_receiver_stream(
            EndpointConfig {
                window: 8,
                reorder_window: 32,
                recv_ring: 1,
                ..Default::default()
            },
            300,
        );
        assert!(deepest > 25, "frames were parked beyond the reach of 24");
        assert!(b.stats().rejected > 0, "in-order bounces still happen");
        assert_eq!(b.stats().rejected, a.stats().bounced);
    }

    #[test]
    fn every_held_frame_is_acked_exactly_once() {
        // Ack reach 24, 0 (window = lookahead) and 12.
        for (window, reorder_window, recv_ring) in [(8, 32, 1), (8, 8, 1), (4, 16, 2)] {
            let cfg = EndpointConfig {
                window,
                reorder_window,
                recv_ring,
                ..Default::default()
            };
            let (a, b, deepest) = slow_receiver_stream(cfg, 200);
            let reach = reorder_window as usize - window;
            assert!(deepest > reach + 1, "{cfg:?}: nothing was held");
            assert_eq!(a.stats().acks_received, a.stats().sent, "{cfg:?}");
            assert_eq!(b.stats().duplicates, 0, "{cfg:?}");
        }
    }

    #[test]
    fn a_resend_of_a_frame_held_beyond_reach_is_bounced_not_acked() {
        // Ack reach 8. With retry budget 8 a silently dropped resend would
        // have its peer declared dead within the stall below.
        let cfg = EndpointConfig {
            window: 8,
            reorder_window: 16,
            recv_ring: 1,
            rto_initial: 4,
            rto_max: 64,
            retry_budget: 8,
            ..Default::default()
        };
        const MSGS: u32 = 64;
        let mut a = EndpointCore::new(NodeId(0), cfg);
        let (mut b, hid, got) = counting_receiver(cfg);
        let mut sent = 0;
        // The receiver stalls: it still takes frames off the wire and
        // sends acks, but delivers nothing.
        let mut held_bounces = 0;
        for _ in 0..10 * cfg.rto_max {
            send_numbered(&mut a, hid, &mut sent, MSGS);
            held_bounces += pump_checked(&mut a, &mut b);
            b.extract(0);
            a.extract(usize::MAX);
        }
        assert!(a.stats().timer_retransmits > 0, "held frames timed out");
        assert!(held_bounces > 0, "and their resends came back");
        assert_eq!(b.stats().duplicates, 0, "none was re-acked");
        assert!(!a.is_dead(NodeId(1)));
        let mut rounds = 0;
        while !(got.load(Ordering::SeqCst) == MSGS as u64 && a.is_quiescent() && b.is_quiescent()) {
            rounds += 1;
            assert!(rounds < 10_000, "{a:?} {b:?}");
            send_numbered(&mut a, hid, &mut sent, MSGS);
            pump_checked(&mut a, &mut b);
            b.extract(usize::MAX);
            a.extract(usize::MAX);
        }
        assert!(!a.is_dead(NodeId(1)));
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sb.delivered, MSGS as u64);
        assert_eq!(sb.rejected, sa.bounced);
        assert_eq!(
            sa.retransmitted,
            sa.bounced + sa.timer_retransmits + sa.gap_retransmits
        );
    }

    #[test]
    fn traced_roundtrip_records_span_events() {
        let cfg = EndpointConfig {
            trace_one_in: 1,
            ..Default::default()
        };
        let mut a = EndpointCore::new(NodeId(0), cfg);
        let mut b = EndpointCore::new(NodeId(1), cfg);
        let hid = b.register_handler(Box::new(|_, _, _| {}));
        a.try_send(NodeId(1), hid, b"x").unwrap();
        pump(&mut a, &mut b);
        b.extract(usize::MAX);
        pump(&mut a, &mut b);
        assert_eq!(a.outstanding(), 0);
        let names = |ep: &EndpointCore| -> Vec<&str> {
            ep.telemetry()
                .events()
                .iter()
                .map(|e| e.kind.name())
                .collect()
        };
        let (a_kinds, b_kinds) = (names(&a), names(&b));
        assert!(a_kinds.contains(&"span_send"), "{a_kinds:?}");
        assert!(a_kinds.contains(&"span_ack_in"), "{a_kinds:?}");
        assert!(b_kinds.contains(&"span_wire_in"), "{b_kinds:?}");
        assert!(b_kinds.contains(&"span_ack_out"), "{b_kinds:?}");
        assert!(b_kinds.contains(&"span_handler_start"), "{b_kinds:?}");
        assert!(b_kinds.contains(&"span_handler_end"), "{b_kinds:?}");
        // All spans on both sides agree on the trace id.
        let ids: std::collections::HashSet<u32> = a
            .telemetry()
            .events()
            .iter()
            .chain(b.telemetry().events().iter())
            .filter_map(|e| e.kind.span().map(|(id, _)| id))
            .collect();
        assert_eq!(ids.len(), 1, "one message, one trace id");
    }
}
