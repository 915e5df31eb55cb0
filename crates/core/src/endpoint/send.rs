//! The send side of [`EndpointCore`]: window slots as the send queue.
//!
//! A fresh send reserves a window slot and builds its frame *in* that slot
//! ([`EndpointCore::frames`]); the wire queue gets a 16-byte reference to
//! it. [`EndpointCore::emit_outgoing`] later hands the transport the slot's
//! header and payload to encode straight into the wire — the frame's bytes
//! were written once and are read once per transmission.

use fm_myrinet::NodeId;

use super::{grow, span, EndpointCore, OutEntry, SendError, SlotFlow};
use crate::frame::{FrameHeader, TraceCtx, WireFrame, FM_FRAME_PAYLOAD};
use crate::handler::HandlerId;
use crate::time::splitmix64;
use fm_telemetry::EventKind;

impl EndpointCore {
    /// `FM_send`: queue a message of up to 128 bytes for `dst`. The payload
    /// is copied once, into the window slot the frame occupies until it is
    /// acknowledged.
    pub fn try_send(
        &mut self,
        dst: NodeId,
        handler: HandlerId,
        payload: impl AsRef<[u8]>,
    ) -> Result<(), SendError> {
        self.send_slice(dst, handler, payload.as_ref())
    }

    fn send_slice(
        &mut self,
        dst: NodeId,
        handler: HandlerId,
        payload: &[u8],
    ) -> Result<(), SendError> {
        if payload.len() > FM_FRAME_PAYLOAD {
            return Err(SendError::TooLarge { len: payload.len() });
        }
        if dst == self.id {
            return self.loopback(handler, payload);
        }
        // Fairness: deferred handler sends go out before fresh traffic.
        self.flush_deferred();
        self.queue_data_frame(dst, handler, payload, true)
    }

    /// The trace context the next fresh send carries: a delivery in
    /// progress propagates its trace to handler-issued sends (causal
    /// chain, one hop deeper); otherwise 1 in `trace_one_in` sends mints a
    /// new trace id. Everything else sends the all-zero context.
    fn next_trace(&mut self) -> TraceCtx {
        if self.config.trace_one_in == 0 {
            return TraceCtx::default();
        }
        if let Some(parent) = self.active_trace {
            return parent.next_hop();
        }
        let n = self.trace_counter;
        self.trace_counter = n.wrapping_add(1);
        if self.trace_countdown > 0 {
            self.trace_countdown -= 1;
            return TraceCtx::default();
        }
        self.trace_countdown = self.config.trace_one_in - 1;
        TraceCtx::sampled(derive_trace_id(self.id.0, n), 0)
    }

    /// Reserve a window slot, assign the next per-destination sequence
    /// number, build the frame in the slot, and queue it; a `traced` frame
    /// gets [`Self::next_trace`]'s context, any other the all-zero one.
    /// Order matters: the sequence number and the trace context are taken
    /// only *after* the slot reservation succeeds — a sequence number
    /// burned on `WouldBlock` would leave a permanent gap that stalls the
    /// receiver's in-order window, and a trace sample burned there would
    /// make `trace_one_in` count attempts instead of sends.
    fn queue_data_frame(
        &mut self,
        dst: NodeId,
        handler: HandlerId,
        payload: &[u8],
        traced: bool,
    ) -> Result<(), SendError> {
        if self.is_dead(dst) {
            return Err(SendError::PeerUnreachable(dst));
        }
        let slot = self
            .sender
            .begin_send(self.now)
            .ok_or(SendError::WouldBlock)?;
        let seq = self.alloc_seq(dst);
        let trace = if traced {
            self.next_trace()
        } else {
            TraceCtx::default()
        };
        self.slot_flow[slot as usize] = SlotFlow::first_sent(seq);
        grow(&mut self.send_order, dst.index()).push_back((seq, slot));
        // The slot's copy carries no piggybacked acks of its own: each
        // (re)transmission claims fresh ones into its queue entry, and
        // emission stamps them in — replaying stale acks would be wrong.
        // The trace context does live in the slot, so a retried frame
        // stays in its trace and its ack can be attributed to it.
        let mut head = FrameHeader::data(self.id, dst, handler, slot, seq);
        head.trace = trace;
        self.frames[slot as usize].fill(head, payload);
        let piggy = self.acks.take_piggy(dst);
        self.acks.note_sent(dst);
        self.outgoing.push_back(OutEntry::Data {
            dst,
            slot,
            seq,
            piggy,
        });
        self.stats.sent += 1;
        self.telemetry.trace(
            self.now,
            EventKind::Send {
                dst: dst.0,
                slot,
                seq,
            },
        );
        span(&self.telemetry, trace, self.now, |trace, hop| {
            EventKind::SpanSend {
                trace,
                hop,
                dst: dst.0,
            }
        });
        Ok(())
    }

    fn alloc_seq(&mut self, dst: NodeId) -> u32 {
        let next = grow(&mut self.next_seq, dst.index());
        let seq = *next;
        *next = seq.wrapping_add(1);
        seq
    }

    /// `FM_send_4`: queue a four-word message.
    pub fn try_send_4(
        &mut self,
        dst: NodeId,
        handler: HandlerId,
        words: [u32; 4],
    ) -> Result<(), SendError> {
        let mut buf = [0u8; 16];
        for (i, w) in words.iter().enumerate() {
            buf[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        self.send_slice(dst, handler, &buf)
    }

    /// Vectored send: gather `parts` into one frame (the scatter-gather
    /// convenience the Myrinet API advertises, provided here without its
    /// descriptor-handshake costs). The parts must total <= 128 bytes.
    pub fn try_send_gather(
        &mut self,
        dst: NodeId,
        handler: HandlerId,
        parts: &[&[u8]],
    ) -> Result<(), SendError> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > FM_FRAME_PAYLOAD {
            return Err(SendError::TooLarge { len });
        }
        // Gathered on the stack: like every frame-sized send, this path
        // allocates nothing.
        let mut buf = [0u8; FM_FRAME_PAYLOAD];
        let mut at = 0;
        for p in parts {
            buf[at..at + p.len()].copy_from_slice(p);
            at += p.len();
        }
        self.send_slice(dst, handler, &buf[..len])
    }

    fn loopback(&mut self, handler: HandlerId, payload: &[u8]) -> Result<(), SendError> {
        // Local messages skip the network and flow control entirely, but
        // still ride the receive ring so delivery order relative to other
        // arrivals is preserved and handlers still run inside extract.
        let head = FrameHeader::data(self.id, self.id, handler, 0, 0);
        if !self.recv_ring.push_with(|slot| slot.fill(head, payload)) {
            return Err(SendError::WouldBlock);
        }
        // Loopback skips the quota (no network contention to arbitrate)
        // but still balances the share ledger extract decrements.
        *grow(&mut self.ring_share, self.id.index()) += 1;
        self.stats.loopback += 1;
        Ok(())
    }

    /// Send what a handler queued while it ran, in issue order; what finds
    /// the window (or, sent to this node, the receive ring) full is parked
    /// in `deferred`, and what is addressed to a dead peer is dropped.
    pub(super) fn flush_handler_sends(&mut self) {
        if self.outbox.is_empty() {
            return;
        }
        let mut queued = std::mem::take(&mut self.outbox_scratch);
        self.outbox.swap_queued(&mut queued);
        for (dst, handler, payload) in &queued {
            match self.send_slice(*dst, *handler, payload) {
                Ok(()) => {}
                Err(SendError::PeerUnreachable(_)) => self.stats.unreachable_drops += 1,
                Err(_) => {
                    self.stats.deferred_sends += 1;
                    self.deferred.push_back((*dst, *handler, payload.clone()));
                }
            }
        }
        queued.clear();
        self.outbox_scratch = queued;
    }

    /// Re-issue parked handler sends, oldest first, until one still finds
    /// no room. A send to this node loops back like any other.
    pub(super) fn flush_deferred(&mut self) {
        while let Some((dst, handler, payload)) = self.deferred.pop_front() {
            if self.is_dead(dst) {
                // The peer died while this send was parked; drop it.
                self.stats.unreachable_drops += 1;
                continue;
            }
            // Deferred sends lost their causal context when they were
            // parked (only (dst, handler, payload) is retained), so they
            // re-enter the wire untraced rather than mislabeled.
            let sent = if dst == self.id {
                self.loopback(handler, &payload)
            } else {
                self.queue_data_frame(dst, handler, &payload, false)
            };
            if sent.is_err() {
                self.deferred.push_front((dst, handler, payload));
                break;
            }
        }
    }

    /// The end-of-extract ack flush: queue standalone ack frames for every
    /// pending ack, except a reply's partial batch, which waits one flush
    /// for a data frame to carry it (see [`crate::flow::AckTracker`]).
    pub fn flush_acks(&mut self) {
        let Self {
            acks,
            outgoing,
            stats,
            ..
        } = self;
        acks.take_standalone(|dst, batch| {
            outgoing.push_back(OutEntry::Ack { dst, acks: batch });
            stats.ack_frames_sent += 1;
        });
    }

    // ---- transport side --------------------------------------------------

    /// Hand the next frame bound for the wire to `sink` as header + payload,
    /// read where they lie (window slot, return image) so the transport can
    /// encode them straight into the wire. Returns false, without calling
    /// `sink`, when nothing is queued. A queued resend whose slot has been
    /// released since (its ack arrived first) is not sent; acks it had
    /// claimed leave in a frame of their own.
    pub fn emit_outgoing(&mut self, sink: impl FnOnce(&FrameHeader, &[u8])) -> bool {
        let entry = loop {
            match self.outgoing.pop_front() {
                None => return false,
                Some(OutEntry::Data {
                    dst,
                    slot,
                    seq,
                    piggy: acks,
                }) if !self.holds_frame(slot, dst, seq) => {
                    if !acks.is_empty() {
                        self.stats.ack_frames_sent += 1;
                        break OutEntry::Ack { dst, acks };
                    }
                }
                Some(live) => break live,
            }
        };
        match entry {
            OutEntry::Data { slot, piggy, .. } => {
                let frame = &mut self.frames[slot as usize];
                frame.head.piggy = piggy;
                sink(&frame.head, frame.payload());
            }
            OutEntry::Ack { dst, acks } => sink(&FrameHeader::ack(self.id, dst, acks), &[]),
            OutEntry::Return => {
                let image = self.returns.front().expect("one image per Return entry");
                sink(&image.head, image.payload());
                self.returns.pop_front();
            }
        }
        true
    }

    /// [`EndpointCore::emit_outgoing`] for harnesses that carry frames by
    /// value: the next frame bound for the wire, copied out.
    pub fn pop_outgoing(&mut self) -> Option<WireFrame> {
        let mut out = None;
        self.emit_outgoing(|head, payload| out = Some(WireFrame::from_parts(*head, payload)));
        out
    }

    /// Entries queued for the wire (a resend whose slot was released since
    /// still counts until emission skips it).
    pub fn outgoing_len(&self) -> usize {
        self.outgoing.len()
    }
}

/// Mint a trace id from (node, fresh-send ordinal): a splitmix64 round
/// xor-folded to 32 bits. Deterministic per endpoint run, well-mixed
/// across the cluster so concurrently-minted ids effectively never
/// collide within one bounded trace ring's lifetime.
fn derive_trace_id(node: u16, n: u32) -> u32 {
    let x = splitmix64(((node as u64) << 32) | n as u64);
    (x as u32) ^ ((x >> 32) as u32)
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{EndpointConfig, EndpointCore, SendError};
    use crate::frame::TraceCtx;
    use crate::handler::HandlerId;
    use fm_myrinet::NodeId;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn simple_send_extract_delivers() {
        let (mut a, mut b) = pair();
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        let hid = b.register_handler(Box::new(move |_, src, data| {
            assert_eq!(src, NodeId(0));
            assert_eq!(data, b"ping");
            h2.fetch_add(1, Ordering::SeqCst);
        }));
        a.try_send(NodeId(1), hid, b"ping").unwrap();
        pump(&mut a, &mut b);
        assert_eq!(b.extract(usize::MAX), 1);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // The ack flows back and releases a's slot.
        pump(&mut a, &mut b);
        assert_eq!(a.outstanding(), 0);
        assert!(a.stats().acks_received >= 1);
    }

    #[test]
    fn send_4_payload_is_16_bytes() {
        let (mut a, mut b) = pair();
        let hid = b.register_handler(Box::new(|_, _, data| {
            assert_eq!(data.len(), 16);
            let w0 = u32::from_le_bytes(data[0..4].try_into().unwrap());
            assert_eq!(w0, 0x1234_5678);
        }));
        a.try_send_4(NodeId(1), hid, [0x1234_5678, 0, 0, 0])
            .unwrap();
        pump(&mut a, &mut b);
        assert_eq!(b.extract(usize::MAX), 1);
    }

    #[test]
    fn window_exhaustion_blocks_until_acked() {
        let mut a = EndpointCore::new(
            NodeId(0),
            EndpointConfig {
                window: 2,
                ..Default::default()
            },
        );
        let mut b = EndpointCore::new(NodeId(1), EndpointConfig::default());
        let hid = b.register_handler(Box::new(|_, _, _| {}));
        a.try_send(NodeId(1), hid, [1]).unwrap();
        a.try_send(NodeId(1), hid, [2]).unwrap();
        assert_eq!(a.try_send(NodeId(1), hid, [3]), Err(SendError::WouldBlock));
        pump(&mut a, &mut b);
        b.extract(usize::MAX);
        pump(&mut a, &mut b);
        assert_eq!(a.outstanding(), 0);
        a.try_send(NodeId(1), hid, [3]).unwrap();
    }

    #[test]
    fn the_frame_is_built_in_its_slot_and_queued_by_reference() {
        let (mut a, _b) = pair();
        let mut payload = *b"written once";
        a.try_send(NodeId(1), HandlerId(1), payload).unwrap();
        // The caller's buffer is free at once; the slot holds the bytes.
        payload.fill(0);
        assert_eq!(a.frames[0].payload(), b"written once");
        assert_eq!(a.outgoing_len(), 1);
        let sent = a.pop_outgoing().expect("queued");
        assert_eq!(&sent.payload[..], b"written once");
        assert_eq!((sent.head.slot, sent.head.seq), (0, 0));
        assert_eq!(a.outstanding(), 1, "the slot keeps the frame until acked");
    }

    #[test]
    fn loopback_skips_network() {
        let mut a = EndpointCore::new(NodeId(0), EndpointConfig::default());
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        let hid = a.register_handler(Box::new(move |_, src, _| {
            assert_eq!(src, NodeId(0));
            h2.fetch_add(1, Ordering::SeqCst);
        }));
        a.try_send(NodeId(0), hid, b"self").unwrap();
        assert_eq!(a.outgoing_len(), 0, "nothing on the wire");
        assert_eq!(a.extract(usize::MAX), 1);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(a.stats().loopback, 1);
    }

    #[test]
    fn gather_send_concatenates_parts() {
        let (mut a, mut b) = pair();
        let hid = b.register_handler(Box::new(|_, _, data| {
            assert_eq!(data, b"header|body|trailer");
        }));
        a.try_send_gather(NodeId(1), hid, &[&b"header|"[..], b"body|", b"trailer"])
            .unwrap();
        pump(&mut a, &mut b);
        assert_eq!(b.extract(usize::MAX), 1);
        // Oversized gathers are rejected with the total length.
        let big = [0u8; 100];
        assert_eq!(
            a.try_send_gather(NodeId(1), hid, &[&big, &big]),
            Err(SendError::TooLarge { len: 200 })
        );
        // Empty gather is a legal zero-byte message.
        a.try_send_gather(NodeId(1), hid, &[]).unwrap();
    }

    #[test]
    fn oversized_send_rejected() {
        let (mut a, _) = pair();
        assert_eq!(
            a.try_send(NodeId(1), HandlerId(1), vec![0u8; 200]),
            Err(SendError::TooLarge { len: 200 })
        );
    }

    #[test]
    fn acks_piggyback_on_reverse_data() {
        let (mut a, mut b) = pair();
        let ha = a.register_handler(Box::new(|_, _, _| {}));
        let hb = b.register_handler(Box::new(|_, _, _| {}));
        a.try_send(NodeId(1), hb, [1]).unwrap();
        pump(&mut a, &mut b);
        // b receives the data; now b sends its own data frame — the pending
        // ack should ride on it.
        b.try_send(NodeId(0), ha, [3]).unwrap();
        let f = b.pop_outgoing().expect("data frame queued");
        assert_eq!(f.head.kind, FrameKind::Data);
        assert!(
            !f.head.piggy.is_empty(),
            "ack for a's frame must piggyback on b's data frame"
        );
        a.on_wire(f);
        assert_eq!(a.stats().acks_received, 1);
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn a_ping_pong_sends_no_ack_frames() {
        // Each echo's ack waits one extract on a, then rides the next ping.
        let (mut a, mut b) = pair();
        let echo = a.register_handler(Box::new(|_, _, _| {}));
        let ping = b.register_handler(Box::new(move |out, src, data| {
            out.send_copy(src, echo, data);
        }));
        for round in 0..1_000u32 {
            a.try_send(NodeId(1), ping, round.to_le_bytes()).unwrap();
            pump(&mut a, &mut b);
            assert_eq!(b.extract(usize::MAX), 1);
            pump(&mut a, &mut b);
            assert_eq!(a.extract(usize::MAX), 1);
        }
        assert_eq!(a.stats().ack_frames_sent, 0);
        assert_eq!(b.stats().ack_frames_sent, 0);
        // The last echo's ack is held; one more extract sends it, and it
        // frees b's slot.
        assert_eq!(b.outstanding(), 1);
        a.extract(usize::MAX);
        pump(&mut a, &mut b);
        b.extract(usize::MAX);
        assert!(a.is_quiescent() && b.is_quiescent(), "{a:?} {b:?}");
    }

    #[test]
    fn a_one_way_stream_is_acked_in_full_batches_at_the_first_extract() {
        let (mut a, mut b, hid) = stream_pair(EndpointConfig::default());
        send_n(&mut a, hid, 10);
        carry(&mut a, &mut b, |_| false);
        assert_eq!(b.extract(usize::MAX), 10);
        let batches: Vec<usize> = std::iter::from_fn(|| b.pop_outgoing())
            .map(|f| {
                assert_eq!(f.head.kind, FrameKind::Ack);
                f.head.piggy.len()
            })
            .collect();
        assert_eq!(batches, [4, 4, 2]);
    }

    #[test]
    fn trace_context_sampling_and_inheritance() {
        // trace_one_in = 1: every fresh send is sampled. A handler-issued
        // reply must inherit the trace id one hop deeper.
        let cfg = EndpointConfig {
            trace_one_in: 1,
            ..Default::default()
        };
        let mut a = EndpointCore::new(NodeId(0), cfg);
        let mut b = EndpointCore::new(NodeId(1), cfg);
        let reply_h = a.register_handler(Box::new(|_, _, _| {}));
        let ping_h = b.register_handler(Box::new(move |out, src, _| {
            out.send(src, reply_h, &b"pong"[..]);
        }));
        a.try_send(NodeId(1), ping_h, b"ping").unwrap();
        let ping = a.pop_outgoing().expect("ping queued");
        assert!(ping.head.trace.sampled, "1-in-1 sampling must trace");
        assert_eq!(ping.head.trace.hop, 0);
        let trace_id = ping.head.trace.id;
        b.on_wire(ping);
        assert_eq!(b.extract(usize::MAX), 1);
        let pong = b.pop_outgoing().expect("handler reply queued");
        assert_eq!(pong.head.kind, FrameKind::Data);
        assert!(pong.head.trace.sampled, "reply must inherit the trace");
        assert_eq!(pong.head.trace.id, trace_id);
        assert_eq!(pong.head.trace.hop, 1, "reply is one causal hop deeper");
        // A fresh send after delivery must NOT inherit the finished trace.
        b.try_send(NodeId(0), reply_h, b"fresh").unwrap();
        let fresh = b.pop_outgoing().unwrap();
        assert!(fresh.head.trace.sampled, "1-in-1 samples fresh sends too");
        assert_ne!(fresh.head.trace.id, trace_id, "fresh send mints its own id");
        assert_eq!(fresh.head.trace.hop, 0);
    }

    #[test]
    fn one_send_in_n_is_sampled_starting_with_the_first() {
        let (mut a, _, hid) = stream_pair(EndpointConfig {
            trace_one_in: 3,
            ..Default::default()
        });
        send_n(&mut a, hid, 7);
        let sampled: Vec<bool> = std::iter::from_fn(|| a.pop_outgoing())
            .map(|f| f.head.trace.sampled)
            .collect();
        let every_third = [true, false, false, true, false, false, true];
        assert_eq!(sampled, every_third);
    }

    #[test]
    fn trace_sampling_counts_sends_not_attempts() {
        // A one-slot window and one refused attempt per round: 1 in 4 of
        // the 400 sends is sampled, whatever was refused in between.
        let (mut a, mut b, hid) = stream_pair(EndpointConfig {
            window: 1,
            trace_one_in: 4,
            ..Default::default()
        });
        let mut sampled = 0;
        for _ in 0..400 {
            send_n(&mut a, hid, 1);
            assert_eq!(a.try_send(NodeId(1), hid, [0]), Err(SendError::WouldBlock));
            carry(&mut a, &mut b, |f| {
                sampled += f.head.trace.sampled as u32;
                false
            });
            b.extract(usize::MAX);
            carry(&mut b, &mut a, |_| false);
        }
        assert_eq!(sampled, 100);
    }

    #[test]
    fn trace_sampling_disabled_sends_zero_context() {
        let cfg = EndpointConfig {
            trace_one_in: 0,
            ..Default::default()
        };
        let mut a = EndpointCore::new(NodeId(0), cfg);
        a.try_send(NodeId(1), HandlerId(1), b"x").unwrap();
        let f = a.pop_outgoing().unwrap();
        assert_eq!(f.head.trace, TraceCtx::default());
        let reencoded = WireFrame::decode(&f.encode()).unwrap();
        assert_eq!(
            reencoded.head.trace,
            TraceCtx::default(),
            "zeroes round-trip"
        );
    }

    #[test]
    fn deferred_handler_sends_flush_later() {
        // a's handler fires a burst of replies through a tiny window.
        let mut a = EndpointCore::new(
            NodeId(0),
            EndpointConfig {
                window: 1,
                ..Default::default()
            },
        );
        let mut b = EndpointCore::new(NodeId(1), EndpointConfig::default());
        let sink = b.register_handler(Box::new(|_, _, _| {}));
        let trigger = a.register_handler(Box::new(move |out, _, _| {
            for i in 0..4u8 {
                out.send(NodeId(1), sink, vec![i]);
            }
        }));
        // Kick a via loopback.
        a.try_send(NodeId(0), trigger, []).unwrap();
        a.extract(usize::MAX);
        assert!(a.stats().deferred_sends > 0, "window of 1 must defer");
        // Keep pumping: deferred sends drain as acks free the window.
        for _ in 0..20 {
            pump(&mut a, &mut b);
            b.extract(usize::MAX);
            pump(&mut a, &mut b);
            a.extract(usize::MAX);
        }
        assert_eq!(b.stats().delivered, 4);
        assert!(a.is_quiescent());
    }
}
