//! Spans recorded by the harness around each call into the stack.
//!
//! One OS thread makes every call, so spans nest strictly: a root span per
//! timed segment, one child per driver call. A span's self time is its
//! duration minus the time its children cover, and the self times of a
//! segment sum to its wall time by construction — which is the check that
//! nothing the harness does goes unattributed. Aggregates are kept for
//! every span; only the first [`RAW_CAP`] raw spans are kept for the
//! Chrome-trace file. With recording off, `enter`/`exit` read no clock.

use std::io::Write;

use crate::clock::now_ns;
use crate::json::Json;

/// Raw spans kept per workload for the Chrome-trace file.
pub const RAW_CAP: usize = 50_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    Segment,
    MemSend,
    MemExtractTx,
    MemExtractRx,
    MemService,
    SwitchedPump,
    MemSendLarge,
    FmmpiSend,
    FmmpiTryRecv,
}

pub const SPAN_NAMES: [SpanName; 9] = [
    SpanName::Segment,
    SpanName::MemSend,
    SpanName::MemExtractTx,
    SpanName::MemExtractRx,
    SpanName::MemService,
    SpanName::SwitchedPump,
    SpanName::MemSendLarge,
    SpanName::FmmpiSend,
    SpanName::FmmpiTryRecv,
];

impl SpanName {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Segment => "segment",
            SpanName::MemSend => "mem.send",
            SpanName::MemExtractTx => "mem.extract.tx",
            SpanName::MemExtractRx => "mem.extract.rx",
            SpanName::MemService => "mem.service",
            SpanName::SwitchedPump => "switched.pump",
            SpanName::MemSendLarge => "mem.send_large",
            SpanName::FmmpiSend => "fmmpi.send",
            SpanName::FmmpiTryRecv => "fmmpi.try_recv",
        }
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    /// Calls that moved nothing (an extract that found no frame, a send
    /// refused by a full window).
    pub idle: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    name: SpanName,
    start_ns: u64,
    child_ns: u64,
    /// Index of this span's slot in `raw`, when it was kept.
    raw: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
struct Raw {
    name: SpanName,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    segment: u32,
    round: u32,
}

pub struct Spans {
    on: bool,
    stack: Vec<Open>,
    agg: [Agg; SPAN_NAMES.len()],
    raw: Vec<Raw>,
    segment: u32,
    /// Driver-loop round within the segment; set by the workload.
    pub round: u32,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            stack: Vec::with_capacity(4),
            agg: [Agg::default(); SPAN_NAMES.len()],
            raw: Vec::with_capacity(if on { RAW_CAP } else { 0 }),
            segment: 0,
            round: 0,
        }
    }

    #[inline]
    pub fn enter(&mut self, name: SpanName) {
        if self.on {
            let now = now_ns();
            self.enter_at(name, now);
        }
    }

    #[inline]
    pub fn exit(&mut self, moved: bool) {
        if self.on {
            let now = now_ns();
            self.exit_at(now, moved);
        }
    }

    /// Open the root span of the next segment.
    pub fn begin_segment(&mut self) {
        self.round = 0;
        self.enter(SpanName::Segment);
    }

    pub fn end_segment(&mut self) {
        self.exit(true);
        self.segment += 1;
    }

    fn enter_at(&mut self, name: SpanName, now: u64) {
        let raw = (self.raw.len() < RAW_CAP).then(|| {
            self.raw.push(Raw {
                name,
                start_ns: now,
                end_ns: now,
                parent: self.stack.last().and_then(|p| p.raw),
                segment: self.segment,
                round: self.round,
            });
            (self.raw.len() - 1) as u32
        });
        self.stack.push(Open {
            name,
            start_ns: now,
            child_ns: 0,
            raw,
        });
    }

    fn exit_at(&mut self, now: u64, moved: bool) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let total = now.saturating_sub(open.start_ns);
        let a = &mut self.agg[open.name as usize];
        a.count += 1;
        a.idle += u64::from(!moved);
        a.total_ns += total;
        // Children ran inside this span on the same thread, so they can
        // never cover more than it; saturate anyway so a clock hiccup
        // cannot wrap the sum.
        a.self_ns += total.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total;
        }
        if let Some(i) = open.raw {
            self.raw[i as usize].end_ns = now;
        }
    }

    pub fn agg(&self, name: SpanName) -> Agg {
        self.agg[name as usize]
    }

    /// Sum of self times over every span name: equals the total wall time
    /// of the root spans.
    pub fn self_sum_ns(&self) -> u64 {
        self.agg.iter().map(|a| a.self_ns).sum()
    }

    pub fn aggregates_json(&self) -> Json {
        Json::obj(
            SPAN_NAMES
                .iter()
                .filter(|n| self.agg(**n).count > 0)
                .map(|n| {
                    let a = self.agg(*n);
                    (
                        n.as_str(),
                        Json::obj([
                            ("count", Json::Num(a.count as f64)),
                            ("idle", Json::Num(a.idle as f64)),
                            ("total_ns", Json::Num(a.total_ns as f64)),
                            ("self_ns", Json::Num(a.self_ns as f64)),
                        ]),
                    )
                }),
        )
    }

    /// Write the kept raw spans as Chrome-trace "complete" events (`ts`
    /// and `dur` in microseconds); `args` carries each span's id, parent,
    /// segment and round. Streamed: the file runs to megabytes.
    pub fn write_chrome_trace(&self, out: &mut impl Write, workload: &str) -> std::io::Result<()> {
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, r) in self.raw.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"segment\":{},\"round\":{}}}}}",
                if i == 0 { "" } else { "," },
                r.name.as_str(),
                r.start_ns as f64 / 1e3,
                r.end_ns.saturating_sub(r.start_ns) as f64 / 1e3,
                r.segment,
                r.round,
            )?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_root() {
        let mut s = Spans::new(true);
        s.enter_at(SpanName::Segment, 100);
        s.enter_at(SpanName::MemSend, 110);
        s.exit_at(150, true);
        s.enter_at(SpanName::MemExtractRx, 160);
        s.exit_at(260, true);
        s.enter_at(SpanName::MemExtractRx, 270);
        s.exit_at(280, false);
        s.exit_at(300, true);
        let root = s.agg(SpanName::Segment);
        assert_eq!(root.total_ns, 200);
        assert_eq!(root.self_ns, 200 - 40 - 100 - 10);
        assert_eq!(s.agg(SpanName::MemSend).self_ns, 40);
        let rx = s.agg(SpanName::MemExtractRx);
        assert_eq!((rx.count, rx.idle, rx.total_ns), (2, 1, 110));
        assert_eq!(s.self_sum_ns(), root.total_ns);
    }

    #[test]
    fn children_never_exceed_their_parent() {
        let mut s = Spans::new(true);
        s.enter_at(SpanName::Segment, 0);
        s.enter_at(SpanName::MemService, 5);
        s.enter_at(SpanName::SwitchedPump, 6);
        s.exit_at(9, true);
        s.exit_at(10, true);
        // A clock that stepped backwards must not wrap the parent's self
        // time.
        s.exit_at(3, true);
        for n in SPAN_NAMES {
            let a = s.agg(n);
            assert!(a.self_ns <= a.total_ns, "{n:?}: {a:?}");
        }
        assert_eq!(s.agg(SpanName::MemService).self_ns, 2);
        assert_eq!(s.agg(SpanName::Segment).self_ns, 0);
    }

    #[test]
    fn raw_spans_carry_parent_segment_and_round() {
        let mut s = Spans::new(true);
        s.begin_segment();
        s.round = 7;
        s.enter(SpanName::MemSend);
        s.exit(true);
        s.end_segment();
        s.begin_segment();
        s.end_segment();
        let mut text = Vec::new();
        s.write_chrome_trace(&mut text, "w").unwrap();
        let trace = Json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        let events = trace.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 3);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(args.get("round").unwrap().as_f64(), Some(7.0));
        assert_eq!(
            events[2]
                .get("args")
                .unwrap()
                .get("segment")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn recording_off_keeps_nothing() {
        let mut s = Spans::new(false);
        s.begin_segment();
        s.enter(SpanName::MemSend);
        s.exit(false);
        s.end_segment();
        assert_eq!(s.self_sum_ns(), 0);
        let mut text = Vec::new();
        s.write_chrome_trace(&mut text, "w").unwrap();
        assert_eq!(
            Json::parse(std::str::from_utf8(&text).unwrap())
                .unwrap()
                .get("traceEvents")
                .unwrap()
                .as_arr(),
            &[]
        );
    }
}
