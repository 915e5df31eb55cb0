//! Bounded per-endpoint trace-event ring with post-mortem export.
//!
//! Protocol-level events (send / bounce / retransmit / slot reuse / peer
//! death) are recorded as small `Copy` structs into a fixed-capacity ring
//! that overwrites its oldest entry when full — recording never allocates
//! and the memory bound is set at construction. After a run (or a wedge)
//! the ring dumps as JSON lines or as a chrome-trace file
//! (`chrome://tracing` / Perfetto instant events on a per-node track), the
//! time-axis view that makes ABA-style slot-reuse bugs visible.

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
    /// A send-window slot was reserved for the 2nd+ time (its generation
    /// tag advanced) — the reuse events an ABA diagnosis needs.
    SlotReuse { slot: u16, gen: u8 },
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
            EventKind::SlotReuse { .. } => "slot_reuse",
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
            EventKind::SlotReuse { slot, gen } => format!("{{\"slot\":{slot},\"gen\":{gen}}}"),
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

/// Fixed-capacity overwrite-oldest ring of [`TraceEvent`]s.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Index the next push writes (== oldest entry once full).
    head: usize,
    /// Total events ever pushed (so overwritten history is countable).
    pushed: u64,
}

impl EventRing {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "an event ring needs at least one slot");
        EventRing {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            pushed: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently retained (<= capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever pushed, including overwritten ones.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Record an event, overwriting the oldest once the ring is full. The
    /// backing storage is allocated up front (first `capacity` pushes fill
    /// the preallocated Vec), so steady-state pushes never allocate.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
        }
        self.pushed += 1;
    }

    /// Iterate retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let (older, newer) = self.buf.split_at(self.head.min(self.buf.len()));
        newer.iter().chain(older.iter())
    }

    /// Retained events, oldest first.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.iter().copied().collect()
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
        let mut r = EventRing::new(4);
        for t in 0..10 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.pushed(), 10);
        let ticks: Vec<u64> = r.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![6, 7, 8, 9], "oldest-first, newest retained");
    }

    #[test]
    fn partial_fill_iterates_in_order() {
        let mut r = EventRing::new(8);
        for t in 0..3 {
            r.push(ev(t));
        }
        let ticks: Vec<u64> = r.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![0, 1, 2]);
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
