//! Bounded per-endpoint trace-event ring with post-mortem export.
//!
//! Protocol-level events (send / bounce / retransmit / slot reuse / peer
//! death) are recorded as small `Copy` structs into a fixed-capacity ring
//! that overwrites its oldest entry when full — recording never allocates
//! and the memory bound is set at construction. After a run (or a wedge)
//! the ring dumps as JSON lines or as a chrome-trace file
//! (`chrome://tracing` / Perfetto instant events on a per-node track), the
//! time-axis view that makes ABA-style slot-reuse bugs visible.

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

/// One recorded protocol event. Everything is `Copy` — no heap data — so
/// pushing an event never allocates. (`Hash` lets the beacon collector
/// deduplicate overlapping last-N windows from successive beacons.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// The endpoint's virtual clock (extract ticks) when the event fired.
    pub tick: u64,
    /// The recording node.
    pub node: u16,
    pub kind: EventKind,
}

/// What happened. Peer/slot/seq fields are raw wire-level ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A fresh data frame was queued for the wire.
    Send { dst: u16, slot: u16, seq: u32 },
    /// One of our frames came back bounced (receiver full).
    Bounce { peer: u16, slot: u16 },
    /// A frame was retransmitted; `timer` distinguishes timeout recovery
    /// from bounce-driven resends.
    Retransmit { peer: u16, slot: u16, timer: bool },
    /// A peer exhausted its retry budget and was declared dead.
    PeerDead { peer: u16 },
    // ---- causal-trace span events ------------------------------------
    //
    // The life of one *sampled* message, stamped with the cluster-wide
    // trace id + hop it carries in its frame header (see
    // `fm-core::frame::TraceCtx`). `fm_telemetry::merge` pairs these
    // across endpoints into one clock-aligned timeline; `clocksync` feeds
    // on the send → wire-in → ack-out → ack-in quadruple.
    /// A sampled data frame was queued for the wire (hop origin).
    SpanSend { trace: u32, hop: u16, dst: u16 },
    /// A sampled frame was accepted off the wire (recorded once per
    /// `(trace, hop)` on the receiver — duplicates are suppressed by the
    /// sequence window before this fires).
    SpanWireIn { trace: u32, hop: u16, src: u16 },
    /// A sampled frame arrived ahead of sequence and was parked in the
    /// reorder buffer (it was still accepted: `SpanWireIn` fired too).
    SpanPark { trace: u32, hop: u16, src: u16 },
    /// The handler for a sampled frame started running.
    SpanHandlerStart { trace: u32, hop: u16, src: u16 },
    /// The handler for a sampled frame returned.
    SpanHandlerEnd { trace: u32, hop: u16 },
    /// The receiver queued the ack covering a sampled frame.
    SpanAckOut { trace: u32, hop: u16, dst: u16 },
    /// The sender saw the first valid ack for a sampled frame's slot.
    SpanAckIn { trace: u32, hop: u16, peer: u16 },
    /// A sampled frame was retransmitted (bounce- or timer-driven).
    SpanRetransmit { trace: u32, hop: u16, peer: u16 },
    // ---- collective-operation spans ----------------------------------
    //
    // One span per MPI-style collective call plus one child span per
    // communication round, emitted by `fm-mpi`. `coll` is the collective
    // kind index (see [`coll_kind_name`]) and `epoch` the per-kind call
    // counter, so `(coll, epoch, node)` identifies one rank's view of one
    // collective — the merge pairs begins with ends into duration slices.
    /// A rank entered a collective call.
    CollBegin { coll: u8, epoch: u32 },
    /// A rank started one communication round of a collective (`peer` is
    /// the partner it exchanges with this round; `u16::MAX` when the
    /// round has no single partner, e.g. a tree fan-in over children).
    CollRoundBegin {
        coll: u8,
        epoch: u32,
        round: u16,
        peer: u16,
    },
    /// The round's sends/receives completed on this rank.
    CollRoundEnd { coll: u8, epoch: u32, round: u16 },
    /// The rank left the collective call.
    CollEnd { coll: u8, epoch: u32 },
}

/// Stable name of a collective kind index, matching `fm-mpi`'s epoch-tag
/// kind order (barrier = 0, bcast = 1, ...). Unknown indices render as
/// `"coll"` instead of panicking, so a newer producer cannot wedge an
/// older collector.
pub fn coll_kind_name(coll: u8) -> &'static str {
    match coll {
        0 => "barrier",
        1 => "bcast",
        2 => "reduce",
        3 => "allreduce",
        4 => "gather",
        5 => "scatter",
        6 => "alltoall",
        7 => "allgather",
        8 => "alltoallv",
        9 => "scan",
        _ => "coll",
    }
}

impl EventKind {
    /// Short stable name, used as the chrome-trace event name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Send { .. } => "send",
            EventKind::Bounce { .. } => "bounce",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::PeerDead { .. } => "peer_dead",
            EventKind::SpanSend { .. } => "span_send",
            EventKind::SpanWireIn { .. } => "span_wire_in",
            EventKind::SpanPark { .. } => "span_park",
            EventKind::SpanHandlerStart { .. } => "span_handler_start",
            EventKind::SpanHandlerEnd { .. } => "span_handler_end",
            EventKind::SpanAckOut { .. } => "span_ack_out",
            EventKind::SpanAckIn { .. } => "span_ack_in",
            EventKind::SpanRetransmit { .. } => "span_retransmit",
            EventKind::CollBegin { .. } => "coll_begin",
            EventKind::CollRoundBegin { .. } => "coll_round_begin",
            EventKind::CollRoundEnd { .. } => "coll_round_end",
            EventKind::CollEnd { .. } => "coll_end",
        }
    }

    /// `(trace id, hop)` when this is a causal-trace span event.
    pub fn span(self) -> Option<(u32, u16)> {
        match self {
            EventKind::SpanSend { trace, hop, .. }
            | EventKind::SpanWireIn { trace, hop, .. }
            | EventKind::SpanPark { trace, hop, .. }
            | EventKind::SpanHandlerStart { trace, hop, .. }
            | EventKind::SpanHandlerEnd { trace, hop }
            | EventKind::SpanAckOut { trace, hop, .. }
            | EventKind::SpanAckIn { trace, hop, .. }
            | EventKind::SpanRetransmit { trace, hop, .. } => Some((trace, hop)),
            _ => None,
        }
    }

    pub(crate) fn args_json(self) -> String {
        match self {
            EventKind::Send { dst, slot, seq } => {
                format!("{{\"dst\":{dst},\"slot\":{slot},\"seq\":{seq}}}")
            }
            EventKind::Bounce { peer, slot } => format!("{{\"peer\":{peer},\"slot\":{slot}}}"),
            EventKind::Retransmit { peer, slot, timer } => {
                format!("{{\"peer\":{peer},\"slot\":{slot},\"timer\":{timer}}}")
            }
            EventKind::PeerDead { peer } => format!("{{\"peer\":{peer}}}"),
            EventKind::SpanSend { trace, hop, dst } => {
                format!("{{\"trace\":{trace},\"hop\":{hop},\"dst\":{dst}}}")
            }
            EventKind::SpanWireIn { trace, hop, src }
            | EventKind::SpanPark { trace, hop, src }
            | EventKind::SpanHandlerStart { trace, hop, src } => {
                format!("{{\"trace\":{trace},\"hop\":{hop},\"src\":{src}}}")
            }
            EventKind::SpanHandlerEnd { trace, hop } => {
                format!("{{\"trace\":{trace},\"hop\":{hop}}}")
            }
            EventKind::SpanAckOut { trace, hop, dst } => {
                format!("{{\"trace\":{trace},\"hop\":{hop},\"dst\":{dst}}}")
            }
            EventKind::SpanAckIn { trace, hop, peer }
            | EventKind::SpanRetransmit { trace, hop, peer } => {
                format!("{{\"trace\":{trace},\"hop\":{hop},\"peer\":{peer}}}")
            }
            EventKind::CollBegin { coll, epoch } | EventKind::CollEnd { coll, epoch } => {
                format!(
                    "{{\"coll\":\"{}\",\"epoch\":{epoch}}}",
                    coll_kind_name(coll)
                )
            }
            EventKind::CollRoundBegin {
                coll,
                epoch,
                round,
                peer,
            } => {
                format!(
                    "{{\"coll\":\"{}\",\"epoch\":{epoch},\"round\":{round},\"peer\":{peer}}}",
                    coll_kind_name(coll)
                )
            }
            EventKind::CollRoundEnd { coll, epoch, round } => {
                format!(
                    "{{\"coll\":\"{}\",\"epoch\":{epoch},\"round\":{round}}}",
                    coll_kind_name(coll)
                )
            }
        }
    }
}

impl TraceEvent {
    /// One JSON object (used both standalone and inside the chrome trace).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"tick\":{},\"node\":{},\"event\":\"{}\",\"args\":{}}}",
            self.tick,
            self.node,
            self.kind.name(),
            self.kind.args_json()
        )
    }

    /// One chrome-trace *instant* event: the tick maps to the microsecond
    /// timestamp axis, the node becomes the pid so each endpoint gets its
    /// own track.
    pub fn to_chrome(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{}}}",
            self.kind.name(),
            self.tick,
            self.node,
            self.kind.args_json()
        )
    }
}

impl TraceEvent {
    /// This event as three words — the tick; the variant's one `u32` and two
    /// `u16` fields; node, variant tag and the variant's one byte-sized
    /// field — the fixed-width form an [`EventRing`] entry holds and a
    /// telemetry beacon ships.
    #[inline]
    pub(crate) fn to_words(self) -> [u64; 3] {
        use EventKind::*;
        let (tag, d, b, c, a): (u8, u8, u16, u16, u32) = match self.kind {
            Send { dst, slot, seq } => (0, 0, dst, slot, seq),
            Bounce { peer, slot } => (1, 0, peer, slot, 0),
            Retransmit { peer, slot, timer } => (2, timer as u8, peer, slot, 0),
            PeerDead { peer } => (4, 0, peer, 0, 0),
            SpanSend { trace, hop, dst } => (5, 0, hop, dst, trace),
            SpanWireIn { trace, hop, src } => (6, 0, hop, src, trace),
            SpanPark { trace, hop, src } => (7, 0, hop, src, trace),
            SpanHandlerStart { trace, hop, src } => (8, 0, hop, src, trace),
            SpanHandlerEnd { trace, hop } => (9, 0, hop, 0, trace),
            SpanAckOut { trace, hop, dst } => (10, 0, hop, dst, trace),
            SpanAckIn { trace, hop, peer } => (11, 0, hop, peer, trace),
            SpanRetransmit { trace, hop, peer } => (12, 0, hop, peer, trace),
            CollBegin { coll, epoch } => (13, coll, 0, 0, epoch),
            CollRoundBegin {
                coll,
                epoch,
                round,
                peer,
            } => (14, coll, round, peer, epoch),
            CollRoundEnd { coll, epoch, round } => (15, coll, round, 0, epoch),
            CollEnd { coll, epoch } => (16, coll, 0, 0, epoch),
        };
        [
            self.tick,
            (a as u64) << 32 | (b as u64) << 16 | c as u64,
            (self.node as u64) << 16 | (tag as u64) << 8 | d as u64,
        ]
    }

    /// Inverse of [`TraceEvent::to_words`]; `None` for a tag no variant has.
    pub(crate) fn from_words([tick, args, meta]: [u64; 3]) -> Option<Self> {
        use EventKind::*;
        let (a, b, c) = ((args >> 32) as u32, (args >> 16) as u16, args as u16);
        let (trace, epoch, hop, round, d) = (a, a, b, b, meta as u8);
        let kind = match (meta >> 8) as u8 {
            0 => Send {
                dst: b,
                slot: c,
                seq: a,
            },
            1 => Bounce { peer: b, slot: c },
            2 => Retransmit {
                peer: b,
                slot: c,
                timer: d != 0,
            },
            4 => PeerDead { peer: b },
            5 => SpanSend { trace, hop, dst: c },
            6 => SpanWireIn { trace, hop, src: c },
            7 => SpanPark { trace, hop, src: c },
            8 => SpanHandlerStart { trace, hop, src: c },
            9 => SpanHandlerEnd { trace, hop },
            10 => SpanAckOut { trace, hop, dst: c },
            11 => SpanAckIn {
                trace,
                hop,
                peer: c,
            },
            12 => SpanRetransmit {
                trace,
                hop,
                peer: c,
            },
            13 => CollBegin { coll: d, epoch },
            14 => CollRoundBegin {
                coll: d,
                epoch,
                round,
                peer: c,
            },
            15 => CollRoundEnd {
                coll: d,
                epoch,
                round,
            },
            16 => CollEnd { coll: d, epoch },
            _ => return None,
        };
        Some(TraceEvent {
            tick,
            node: (meta >> 16) as u16,
            kind,
        })
    }
}

/// Fixed-capacity overwrite-oldest ring of [`TraceEvent`]s with **one
/// writer and any number of readers, none of which ever blocks it**.
///
/// Every entry is four atomic words: a sequence stamp (the event's 1-based
/// ordinal; 0 while the entry is being rewritten) and the three words of
/// `TraceEvent::to_words`. [`EventRing::push`] is plain stores — no lock,
/// no read-modify-write. [`EventRing::to_vec`] copies an entry and accepts
/// it only if the stamp read before and after both equal the ordinal it
/// expected there, so an entry the writer overwrote meanwhile is discarded,
/// never returned torn.
///
/// Contract: `push` from one thread at a time. A second concurrent writer
/// is memory-safe but loses events and publishes mixed entries.
#[derive(Debug)]
pub struct EventRing {
    slots: Box<[[AtomicU64; 4]]>,
    /// Index the next push writes; only the writer reads it.
    cursor: AtomicUsize,
    /// Total events ever pushed (so overwritten history is countable).
    pushed: AtomicU64,
}

impl EventRing {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "an event ring needs at least one slot");
        EventRing {
            slots: (0..capacity)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            cursor: AtomicUsize::new(0),
            pushed: AtomicU64::new(0),
        }
    }

    /// Total events ever pushed, including overwritten ones.
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Acquire)
    }

    /// Record an event, overwriting the oldest once the ring is full.
    /// Never allocates, locks or waits.
    #[inline]
    pub fn push(&self, ev: TraceEvent) {
        let n = self.pushed.load(Ordering::Relaxed);
        let at = self.cursor.load(Ordering::Relaxed);
        let [stamp, words @ ..] = &self.slots[at];
        // Retire the old entry first. The Release fence orders this store
        // before the data stores below; it pairs with the Acquire fence in
        // `to_vec`, so a reader that saw any new word cannot then re-read
        // the old stamp.
        stamp.store(0, Ordering::Relaxed);
        fence(Ordering::Release);
        for (word, value) in words.iter().zip(ev.to_words()) {
            word.store(value, Ordering::Relaxed);
        }
        // Publishes the words above to a reader's Acquire load of the stamp.
        stamp.store(n + 1, Ordering::Release);
        let next = at + 1;
        self.cursor.store(
            if next == self.slots.len() { 0 } else { next },
            Ordering::Relaxed,
        );
        self.pushed.store(n + 1, Ordering::Release);
    }

    /// Retained events, oldest first: a snapshot that never stalls the
    /// writer. Entries overwritten while it was taken are left out, so it
    /// may hold fewer than `capacity` events on a busy ring.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        let cap = self.slots.len() as u64;
        let end = self.pushed();
        let mut out = Vec::with_capacity(end.min(cap) as usize);
        for n in end.saturating_sub(cap)..end {
            let [stamp, words @ ..] = &self.slots[(n % cap) as usize];
            if stamp.load(Ordering::Acquire) != n + 1 {
                continue;
            }
            let copy = [0, 1, 2].map(|i| words[i].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if stamp.load(Ordering::Relaxed) == n + 1 {
                out.extend(TraceEvent::from_words(copy));
            }
        }
        out
    }
}

/// Render a set of events as a chrome-trace JSON document (load it in
/// `chrome://tracing` or Perfetto).
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&ev.to_chrome());
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tick: u64) -> TraceEvent {
        TraceEvent {
            tick,
            node: 0,
            kind: EventKind::Send {
                dst: 1,
                slot: (tick % 64) as u16,
                seq: tick as u32,
            },
        }
    }

    #[test]
    fn ring_keeps_newest_on_wraparound() {
        let r = EventRing::new(4);
        for t in 0..10 {
            r.push(ev(t));
        }
        assert_eq!(r.pushed(), 10);
        let kept = r.to_vec();
        assert_eq!(
            kept,
            (6..10).map(ev).collect::<Vec<_>>(),
            "oldest-first, newest retained"
        );
    }

    #[test]
    fn partial_fill_iterates_in_order() {
        let r = EventRing::new(8);
        for t in 0..3 {
            r.push(ev(t));
        }
        assert_eq!(r.to_vec(), (0..3).map(ev).collect::<Vec<_>>());
    }

    #[test]
    fn every_variant_survives_the_ring() {
        use EventKind::*;
        let (trace, hop, coll, epoch, round) = (0xDEAD_BEEF, 0xABCD, 9, u32::MAX, 0xFFFE);
        let kinds = [
            Send {
                dst: 1,
                slot: 1023,
                seq: u32::MAX,
            },
            Bounce { peer: 2, slot: 3 },
            Retransmit {
                peer: 4,
                slot: 5,
                timer: true,
            },
            PeerDead { peer: u16::MAX },
            SpanSend { trace, hop, dst: 7 },
            SpanWireIn { trace, hop, src: 8 },
            SpanPark { trace, hop, src: 9 },
            SpanHandlerStart {
                trace,
                hop,
                src: 10,
            },
            SpanHandlerEnd { trace, hop },
            SpanAckOut {
                trace,
                hop,
                dst: 11,
            },
            SpanAckIn {
                trace,
                hop,
                peer: 12,
            },
            SpanRetransmit {
                trace,
                hop,
                peer: 13,
            },
            CollBegin { coll, epoch },
            CollRoundBegin {
                coll,
                epoch,
                round,
                peer: u16::MAX,
            },
            CollRoundEnd { coll, epoch, round },
            CollEnd { coll, epoch },
        ];
        let r = EventRing::new(kinds.len());
        let pushed: Vec<TraceEvent> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| TraceEvent {
                tick: u64::MAX - i as u64,
                node: 0xF00D,
                kind,
            })
            .collect();
        pushed.iter().for_each(|&e| r.push(e));
        assert_eq!(r.to_vec(), pushed);
        // Tag 3, retired with the slot-reuse event, decodes as no event.
        for tag in [3u64, 17] {
            assert_eq!(TraceEvent::from_words([0, 0, tag << 8]), None);
        }
    }

    #[test]
    fn json_and_chrome_forms_are_well_formed() {
        let e = TraceEvent {
            tick: 42,
            node: 3,
            kind: EventKind::Retransmit {
                peer: 1,
                slot: 9,
                timer: true,
            },
        };
        let j = e.to_json();
        assert!(j.contains("\"event\":\"retransmit\"") && j.contains("\"timer\":true"));
        let doc = chrome_trace(&[e, ev(1)]);
        assert!(doc.starts_with("{\"traceEvents\":[{"));
        assert!(doc.contains("\"ph\":\"i\"") && doc.contains("\"pid\":3"));
        assert!(doc.ends_with("}"));
        // Balanced braces — cheap well-formedness check without a parser.
        let opens = doc.matches('{').count();
        let closes = doc.matches('}').count();
        assert_eq!(opens, closes);
    }
}
