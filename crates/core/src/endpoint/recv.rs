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
use crate::frame::{FrameHeader, FrameKind, FrameSlot, TraceCtx, WireFrame};
use crate::seg::SEG_HANDLER;
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
        // microseconds before the send that caused it. This call reads no
        // clock: the transport catches `now` up to wall time once per
        // batch of arrivals (`catch_up_clock`), after the synchronisation
        // that made the batch visible, so every frame of the batch was
        // sent before the reading its arrival is stamped with.
        //
        // Piggybacked acks count regardless of what happens to the frame.
        for seq in head.piggy.iter() {
            self.on_ack(seq, head.src);
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
            src, seq, trace, ..
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
        let last = grow(&mut self.last_data, src.index());
        if !is_active(*last, self.now) {
            // The source joins the active set: recount at the next tick.
            self.quota_stale = true;
        }
        *last = self.now;
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
                self.acks.on_accept(src, seq);
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
                    self.parked += 1;
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

    /// Bring the per-source ring quota up to date with the set of
    /// recently-active sources. Called once per extract tick; it recounts
    /// (O(sources)) only when [`Self::quota_due`] says the set may have
    /// changed, and otherwise costs one comparison.
    pub(super) fn refresh_ring_quota(&mut self) {
        if !self.quota_due(self.now) {
            return;
        }
        let now = self.now;
        let mut active = 0;
        let mut oldest = u64::MAX;
        for &t in self.last_data.iter().filter(|&&t| is_active(t, now)) {
            active += 1;
            oldest = oldest.min(t);
        }
        self.ring_quota = (self.config.recv_ring / active.max(1)).max(1);
        self.quota_stale = false;
        self.quota_expires = oldest.saturating_add(RING_ACTIVE_TICKS + 1);
    }

    /// Could the active-source set at tick `now` differ from the one the
    /// quota was last counted from? Only if a source turned active since
    /// (`on_data` flags it) or the oldest counted one has aged out: a
    /// source's last-data tick only moves forward, so no other source can
    /// have left the set.
    pub(super) fn quota_due(&self, now: u64) -> bool {
        self.quota_stale || now >= self.quota_expires
    }

    /// The ring quota counted from scratch at the current tick, for tests
    /// to hold the incrementally kept one against.
    #[cfg(test)]
    pub(super) fn ring_quota_recount(&self) -> usize {
        let active = self
            .last_data
            .iter()
            .filter(|&&t| is_active(t, self.now))
            .count();
        (self.config.recv_ring / active.max(1)).max(1)
    }

    /// Queue the ack for a freshly retained frame, with the ack-out span
    /// of a sampled one.
    fn accept_and_span(&mut self, head: &FrameHeader, arrival: u64) {
        self.acks.on_accept(head.src, head.seq);
        span(&self.telemetry, head.trace, arrival, |trace, hop| {
            EventKind::SpanAckOut {
                trace,
                hop,
                dst: head.src.0,
            }
        });
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
            self.parked -= 1;
            self.ring_share[src] += 1;
            self.ack_reached(src, tick);
        }
    }

    /// Refill the receive ring from every source's reorder buffer,
    /// starting at a rotating source so no source owns the front of the
    /// scan. Under incast, K backlogged sources contend for the freed
    /// ring slots every extract; rotation shares them ~1/K instead of
    /// letting source order decide.
    ///
    /// The rotation turns on every call; the scan stops as soon as nothing
    /// is parked anywhere, so with an empty reorder buffer a call is O(1).
    pub(super) fn drain_all_windows(&mut self) {
        let n = self.recv_windows.len();
        if n == 0 {
            return;
        }
        // `(drain_rr + 1) % n`, then `(drain_rr + k) % n` — as wrapping
        // cursors, since this runs two or three times per extract.
        let next = |i: usize| if i + 1 >= n { 0 } else { i + 1 };
        self.drain_rr = next(self.drain_rr);
        if self.parked == 0 {
            return;
        }
        if self.ring_share.len() < n {
            self.ring_share.resize(n, 0);
        }
        let mut i = self.drain_rr;
        for _ in 0..n {
            if self.recv_ring.is_full() || self.parked == 0 {
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
    /// without counting as deliveries). A fragment goes to the reassembler
    /// instead, and always counts.
    pub(super) fn deliver_head(&mut self) -> bool {
        let frame = self.recv_ring.peek().expect("caller saw a frame");
        let FrameHeader {
            src,
            handler,
            trace,
            ..
        } = frame.head;
        if handler == SEG_HANDLER {
            return self.deliver_fragment(src, trace);
        }
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
        self.release_head(src);
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

    /// Append the fragment at the head of the receive ring to its source's
    /// message (the receive window delivers a source's frames in order),
    /// queueing the message once its last fragment is in. A fragment the
    /// reassembler refuses is counted there and consumed.
    fn deliver_fragment(&mut self, src: NodeId, trace: TraceCtx) -> bool {
        let frame = self.recv_ring.peek().expect("caller saw a frame");
        span(&self.telemetry, trace, self.now, |trace, hop| {
            EventKind::SpanHandlerStart {
                trace,
                hop,
                src: src.0,
            }
        });
        if let Ok(Some((handler, msg))) = self.reasm.on_fragment(src, frame.payload()) {
            self.large_done.push_back((src, handler, msg));
        }
        self.release_head(src);
        self.stats.delivered += 1;
        span(&self.telemetry, trace, self.now, |trace, hop| {
            EventKind::SpanHandlerEnd { trace, hop }
        });
        true
    }

    /// Free the head ring slot, a frame from `src`, and its share.
    fn release_head(&mut self, src: NodeId) {
        self.recv_ring.release();
        let share = grow(&mut self.ring_share, src.index());
        *share = share.saturating_sub(1);
    }
}

/// Does a source whose last data frame arrived at tick `last` count as an
/// active ring contender at tick `now`? Tick 0 means "never heard".
fn is_active(last: u64, now: u64) -> bool {
    last != 0 && now.saturating_sub(last) <= RING_ACTIVE_TICKS
}

#[cfg(test)]
mod tests;
