//! Merge per-endpoint trace rings into one clock-aligned cluster timeline.
//!
//! Input: each endpoint's retained [`TraceEvent`]s (its bounded ring,
//! stamped with its own virtual clock). Output: a [`MergeReport`] holding
//! every event on one shared time axis (offsets estimated by
//! [`crate::clocksync`]), plus the cross-endpoint *flow pairing* — each
//! traced `(trace, hop)` send matched to the wire-in event it produced on
//! the receiving node. Dropped frames, overwritten ring entries and
//! messages still in flight leave *orphan* spans; they are counted, never
//! panicked over, because a lossy fabric makes them a fact of life.
//!
//! [`MergeReport::chrome_trace`] renders the timeline as a chrome-trace
//! JSON document (`chrome://tracing` / Perfetto): one process lane per
//! endpoint, short duration slices for the send / wire-in / handler spans,
//! instants for the rest, and `s`/`f` flow arrows tying each message's
//! send slice to its receive slice across lanes.

use crate::clocksync::ClusterClock;
use crate::trace::{EventKind, TraceEvent};
use std::collections::HashMap;

/// One event on the merged cluster timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergedEvent {
    /// Clock-aligned timestamp (reference-node ticks, shifted so the
    /// earliest merged event sits at 0).
    pub ts: i64,
    /// The endpoint that recorded the event.
    pub node: u16,
    /// The endpoint's own clock reading (pre-alignment), for debugging
    /// the alignment itself.
    pub raw_tick: u64,
    pub kind: EventKind,
}

/// One cross-endpoint flow arrow: a traced send paired with the wire-in
/// it caused on the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPair {
    pub trace: u32,
    pub hop: u16,
    pub src: u16,
    pub dst: u16,
    /// Aligned send / receive timestamps. `recv_ts < send_ts` is an
    /// alignment failure, counted in [`MergeReport::causal_violations`].
    pub send_ts: i64,
    pub recv_ts: i64,
}

/// The merged timeline plus pairing statistics.
#[derive(Debug, Clone)]
pub struct MergeReport {
    /// The per-node clock alignment used.
    pub clock: ClusterClock,
    /// All events, sorted by aligned timestamp.
    pub events: Vec<MergedEvent>,
    /// Every traced send matched to exactly one receive.
    pub flows: Vec<FlowPair>,
    /// Traced sends with no surviving wire-in (frame dropped, peer dead,
    /// in flight, or receiver ring overwrote it).
    pub orphan_sends: usize,
    /// Wire-ins whose send span did not survive (sender ring overwrote
    /// it).
    pub orphan_receives: usize,
    /// Flow pairs whose aligned receive precedes their aligned send.
    /// Paired flows feed [`ClusterClock::constrain`] before alignment, so
    /// this stays zero unless a flow touches an unaligned node.
    pub causal_violations: usize,
}

impl MergeReport {
    pub fn flow_pairs(&self) -> usize {
        self.flows.len()
    }

    /// Render as a chrome-trace JSON document.
    pub fn chrome_trace(&self) -> String {
        self.chrome_trace_with(&[])
    }

    /// Render as a chrome-trace JSON document, splicing `extra` event
    /// fragments (already-serialized JSON objects, e.g. the per-shard
    /// counter lanes [`crate::collector::Collector::chrome_trace`] draws) into
    /// the `traceEvents` array.
    pub fn chrome_trace_with(&self, extra: &[String]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |s: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&s);
        };
        // One process lane per endpoint, labeled.
        let mut nodes: Vec<u16> = self.events.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        for n in &nodes {
            push(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{n},\"tid\":0,\
                     \"args\":{{\"name\":\"endpoint {n}\"}}}}"
                ),
                &mut first,
            );
        }
        // Handler start→end combine into one duration slice; starts with
        // no surviving end fall back to instants below.
        let mut handler_ends: HashMap<(u32, u16, u16), i64> = HashMap::new();
        // Collective begin→end and round begin→end fold the same way,
        // keyed by (coll, epoch[, round]) per node.
        let mut coll_ends: HashMap<(u8, u32, u16), i64> = HashMap::new();
        let mut round_ends: HashMap<(u8, u32, u16, u16), i64> = HashMap::new();
        for e in &self.events {
            match e.kind {
                EventKind::SpanHandlerEnd { trace, hop } => {
                    handler_ends.entry((trace, hop, e.node)).or_insert(e.ts);
                }
                EventKind::CollEnd { coll, epoch } => {
                    coll_ends.entry((coll, epoch, e.node)).or_insert(e.ts);
                }
                EventKind::CollRoundEnd { coll, epoch, round } => {
                    round_ends
                        .entry((coll, epoch, round, e.node))
                        .or_insert(e.ts);
                }
                _ => {}
            }
        }
        for e in &self.events {
            let ts = e.ts;
            let args = e.kind.args_json();
            match e.kind {
                // Anchor slices for the flow arrows: chrome binds s/f
                // events to the slice enclosing their timestamp.
                EventKind::SpanSend { .. } | EventKind::SpanWireIn { .. } => {
                    push(
                        format!(
                            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":1,\
                             \"pid\":{},\"tid\":0,\"args\":{args}}}",
                            e.kind.name(),
                            e.node
                        ),
                        &mut first,
                    );
                }
                EventKind::SpanHandlerStart { trace, hop, .. } => {
                    if let Some(&end) = handler_ends.get(&(trace, hop, e.node)) {
                        let dur = (end - ts).max(1);
                        push(
                            format!(
                                "{{\"name\":\"handler\",\"ph\":\"X\",\"ts\":{ts},\
                                 \"dur\":{dur},\"pid\":{},\"tid\":0,\"args\":{args}}}",
                                e.node
                            ),
                            &mut first,
                        );
                    } else {
                        push(instant(e, ts, &args), &mut first);
                    }
                }
                EventKind::SpanHandlerEnd { .. } => { /* folded into the slice */ }
                // Collectives: one slice per call on tid 1, one per round
                // on tid 2, so each endpoint lane shows the collective bar
                // with its rounds nested beneath it.
                EventKind::CollBegin { coll, epoch } => {
                    if let Some(&end) = coll_ends.get(&(coll, epoch, e.node)) {
                        let dur = (end - ts).max(1);
                        push(
                            format!(
                                "{{\"name\":\"{}\",\"cat\":\"coll\",\"ph\":\"X\",\
                                 \"ts\":{ts},\"dur\":{dur},\"pid\":{},\"tid\":1,\
                                 \"args\":{args}}}",
                                crate::trace::coll_kind_name(coll),
                                e.node
                            ),
                            &mut first,
                        );
                    } else {
                        push(instant(e, ts, &args), &mut first);
                    }
                }
                EventKind::CollEnd { .. } => { /* folded into the slice */ }
                EventKind::CollRoundBegin {
                    coll, epoch, round, ..
                } => {
                    if let Some(&end) = round_ends.get(&(coll, epoch, round, e.node)) {
                        let dur = (end - ts).max(1);
                        push(
                            format!(
                                "{{\"name\":\"{} r{round}\",\"cat\":\"coll\",\
                                 \"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{},\
                                 \"tid\":2,\"args\":{args}}}",
                                crate::trace::coll_kind_name(coll),
                                e.node
                            ),
                            &mut first,
                        );
                    } else {
                        push(instant(e, ts, &args), &mut first);
                    }
                }
                EventKind::CollRoundEnd { .. } => { /* folded into the slice */ }
                _ => push(instant(e, ts, &args), &mut first),
            }
        }
        // Flow arrows: same id on the s (start) and f (finish) ends.
        for f in &self.flows {
            let id = ((f.trace as u64) << 16) | f.hop as u64;
            push(
                format!(
                    "{{\"name\":\"msg\",\"cat\":\"flow\",\"id\":{id},\"ph\":\"s\",\
                     \"ts\":{},\"pid\":{},\"tid\":0}}",
                    f.send_ts, f.src
                ),
                &mut first,
            );
            push(
                format!(
                    "{{\"name\":\"msg\",\"cat\":\"flow\",\"id\":{id},\"ph\":\"f\",\
                     \"bp\":\"e\",\"ts\":{},\"pid\":{},\"tid\":0}}",
                    f.recv_ts, f.dst
                ),
                &mut first,
            );
        }
        for frag in extra {
            push(frag.clone(), &mut first);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

fn instant(e: &MergedEvent, ts: i64, args: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{},\"tid\":0,\
         \"args\":{args}}}",
        e.kind.name(),
        e.node
    )
}

/// Merge every endpoint's retained events into one aligned timeline.
pub fn merge(per_node: &[Vec<TraceEvent>]) -> MergeReport {
    let all: Vec<TraceEvent> = per_node.iter().flatten().copied().collect();
    let mut clock = ClusterClock::from_events(&all);
    // Pair sends with receives per (trace, hop) on *raw* ticks first. The
    // first surviving event of each kind wins; acceptance-side duplicate
    // suppression guarantees at most one wire-in per crossing, so
    // "exactly one receive" holds whenever both ends survived their rings.
    #[derive(Default)]
    struct Ends {
        send: Option<(u16, u64)>, // node, raw tick
        recv: Option<(u16, u64)>,
    }
    let mut ends: HashMap<(u32, u16), Ends> = HashMap::new();
    for e in &all {
        match e.kind {
            EventKind::SpanSend { trace, hop, .. } => {
                ends.entry((trace, hop))
                    .or_default()
                    .send
                    .get_or_insert((e.node, e.tick));
            }
            EventKind::SpanWireIn { trace, hop, .. } => {
                ends.entry((trace, hop))
                    .or_default()
                    .recv
                    .get_or_insert((e.node, e.tick));
            }
            _ => {}
        }
    }
    // Every paired flow is a happens-before witness; feed them back into
    // the clock so midpoint-estimation error (≤ RTT/2 per link) cannot
    // leave a receive earlier than its send on the merged axis.
    let edges: Vec<(u16, u16, i64)> = ends
        .values()
        .filter_map(|e| match (e.send, e.recv) {
            (Some((a, ts)), Some((b, tr))) if a != b => Some((a, b, tr as i64 - ts as i64)),
            _ => None,
        })
        .collect();
    clock.constrain(&edges);

    let mut events: Vec<MergedEvent> = all
        .iter()
        .map(|e| MergedEvent {
            ts: clock.align(e.node, e.tick),
            node: e.node,
            raw_tick: e.tick,
            kind: e.kind,
        })
        .collect();
    // Shift the whole timeline so it starts at 0 (chrome dislikes
    // negative timestamps).
    let shift = events.iter().map(|e| e.ts).min().unwrap_or(0);
    for e in &mut events {
        e.ts -= shift;
    }
    events.sort_by_key(|e| (e.ts, e.node));

    let mut flows = Vec::new();
    let mut orphan_sends = 0;
    let mut orphan_receives = 0;
    let mut causal_violations = 0;
    for ((trace, hop), e) in ends {
        match (e.send, e.recv) {
            (Some((src, send_raw)), Some((dst, recv_raw))) => {
                if src == dst {
                    continue; // loopback: no cross-endpoint arrow
                }
                let send_ts = clock.align(src, send_raw) - shift;
                let recv_ts = clock.align(dst, recv_raw) - shift;
                if recv_ts < send_ts {
                    // Only reachable when a flow touches an unaligned node
                    // (constrain() skips those edges).
                    causal_violations += 1;
                }
                flows.push(FlowPair {
                    trace,
                    hop,
                    src,
                    dst,
                    send_ts,
                    recv_ts,
                });
            }
            (Some(_), None) => orphan_sends += 1,
            (None, Some(_)) => orphan_receives += 1,
            (None, None) => {}
        }
    }
    flows.sort_by_key(|f| (f.send_ts, f.trace, f.hop));
    MergeReport {
        clock,
        events,
        flows,
        orphan_sends,
        orphan_receives,
        causal_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: u16, tick: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { tick, node, kind }
    }

    /// A full traced crossing from `snd` to `rcv` with offset `off` on the
    /// receiver's clock and one-way delay `d`.
    fn crossing(snd: u16, rcv: u16, trace: u32, t0: u64, off: i64, d: u64) -> Vec<TraceEvent> {
        let a = |t: u64| t;
        let b = |t: u64| (t as i64 + off) as u64;
        vec![
            ev(
                snd,
                a(t0),
                EventKind::SpanSend {
                    trace,
                    hop: 0,
                    dst: rcv,
                },
            ),
            ev(
                rcv,
                b(t0 + d),
                EventKind::SpanWireIn {
                    trace,
                    hop: 0,
                    src: snd,
                },
            ),
            ev(
                rcv,
                b(t0 + d),
                EventKind::SpanAckOut {
                    trace,
                    hop: 0,
                    dst: snd,
                },
            ),
            ev(
                snd,
                a(t0 + 2 * d),
                EventKind::SpanAckIn {
                    trace,
                    hop: 0,
                    peer: rcv,
                },
            ),
            ev(
                rcv,
                b(t0 + d + 1),
                EventKind::SpanHandlerStart {
                    trace,
                    hop: 0,
                    src: snd,
                },
            ),
            ev(
                rcv,
                b(t0 + d + 2),
                EventKind::SpanHandlerEnd { trace, hop: 0 },
            ),
        ]
    }

    #[test]
    fn merge_pairs_flows_and_aligns() {
        let a = crossing(0, 1, 11, 100, 5000, 3);
        let b = crossing(1, 0, 22, 200, -5000, 3); // reverse direction
        let report = merge(&[a, b]);
        assert_eq!(report.flow_pairs(), 2);
        assert_eq!(report.orphan_sends, 0);
        assert_eq!(report.orphan_receives, 0);
        assert_eq!(report.causal_violations, 0, "aligned recv >= send");
        for f in &report.flows {
            assert!(f.recv_ts >= f.send_ts);
            assert_eq!(f.recv_ts - f.send_ts, 3, "one-way delay recovered");
        }
        // Timeline starts at zero.
        assert_eq!(report.events.first().unwrap().ts, 0);
    }

    #[test]
    fn orphans_counted_not_panicked() {
        // A send whose frame was dropped (no wire-in anywhere), and a
        // wire-in whose send was overwritten.
        let evs = vec![
            ev(
                0,
                10,
                EventKind::SpanSend {
                    trace: 1,
                    hop: 0,
                    dst: 1,
                },
            ),
            ev(
                1,
                99,
                EventKind::SpanWireIn {
                    trace: 2,
                    hop: 0,
                    src: 0,
                },
            ),
        ];
        let report = merge(&[evs]);
        assert_eq!(report.flow_pairs(), 0);
        assert_eq!(report.orphan_sends, 1);
        assert_eq!(report.orphan_receives, 1);
    }

    #[test]
    fn chrome_trace_has_lanes_slices_and_flow_arrows() {
        let report = merge(&[crossing(0, 1, 7, 50, 1000, 2)]);
        let doc = report.chrome_trace();
        assert!(doc.contains("\"process_name\""), "process lanes labeled");
        assert!(doc.contains("\"pid\":0") && doc.contains("\"pid\":1"));
        assert!(doc.contains("\"ph\":\"s\"") && doc.contains("\"ph\":\"f\""));
        assert!(doc.contains("\"ph\":\"X\""), "anchor slices present");
        assert!(doc.contains("\"name\":\"handler\""), "handler span folded");
        // The s and f arrows share an id.
        let id = 7u64 << 16; // hop 0: the low 16 bits stay clear
        assert_eq!(doc.matches(&format!("\"id\":{id}")).count(), 2);
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn collective_spans_render_as_nested_slices() {
        let evs = vec![
            ev(0, 100, EventKind::CollBegin { coll: 3, epoch: 9 }),
            ev(
                0,
                110,
                EventKind::CollRoundBegin {
                    coll: 3,
                    epoch: 9,
                    round: 0,
                    peer: 1,
                },
            ),
            ev(
                0,
                150,
                EventKind::CollRoundEnd {
                    coll: 3,
                    epoch: 9,
                    round: 0,
                },
            ),
            ev(
                0,
                160,
                EventKind::CollRoundBegin {
                    coll: 3,
                    epoch: 9,
                    round: 1,
                    peer: 2,
                },
            ),
            ev(
                0,
                190,
                EventKind::CollRoundEnd {
                    coll: 3,
                    epoch: 9,
                    round: 1,
                },
            ),
            ev(0, 200, EventKind::CollEnd { coll: 3, epoch: 9 }),
        ];
        let report = merge(&[evs]);
        let doc = report.chrome_trace();
        assert!(doc.contains("\"name\":\"allreduce\"") && doc.contains("\"dur\":100"));
        assert!(doc.contains("\"name\":\"allreduce r0\"") && doc.contains("\"dur\":40"));
        assert!(doc.contains("\"name\":\"allreduce r1\"") && doc.contains("\"dur\":30"));
        assert!(!doc.contains("coll_end"), "ends folded into slices");
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn chrome_trace_with_splices_extra_fragments() {
        let report = merge(&[crossing(0, 1, 7, 50, 0, 2)]);
        let lane = "{\"name\":\"queue_depth\",\"ph\":\"C\",\"ts\":0,\"pid\":100000,\
                    \"tid\":0,\"args\":{\"p50\":3}}"
            .to_string();
        let doc = report.chrome_trace_with(&[lane]);
        assert!(doc.contains("\"pid\":100000"), "extra fragment spliced");
        assert!(doc.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn duplicate_ring_entries_pair_once() {
        // The same (trace, hop) appearing twice (e.g. two endpoints'
        // rings merged twice by a caller) must still pair exactly once.
        let mut evs = crossing(0, 1, 3, 10, 0, 1);
        evs.extend(crossing(0, 1, 3, 10, 0, 1));
        let report = merge(&[evs]);
        assert_eq!(report.flow_pairs(), 1);
    }
}
