//! # fm-telemetry — runtime observability for the FM stack
//!
//! The paper's whole evaluation is measurement (Section 4's ablations,
//! Table 2's derived t0 / r_inf / n_1/2), and this crate is the runtime's
//! unified way of producing such numbers: one cloneable [`Telemetry`]
//! handle per endpoint carrying what has no other home —
//!
//! * **log-bucketed [`Histogram`]s** keyed by [`Metric`] — send→ack RTT,
//!   handler service time, wire poll batch occupancy — zero-alloc recording
//!   with p50/p90/p99 extraction (see [`hist`]);
//! * a **bounded [`trace::EventRing`]** of typed protocol events
//!   (send / bounce / retransmit / slot-reuse / peer-dead) and sampled
//!   causal spans, dumpable as JSON or chrome-trace for time-axis
//!   debugging (see [`trace`]).
//!
//! Protocol *counts* are not stored here. Each event is counted once, in
//! the endpoint's own single-writer statistics; [`Counter`] is only the
//! export schema — the names and [`Counter::ALL`] order in which beacons
//! carry those counts.
//!
//! Everything leaves an endpoint or a switch shard the same way: as a
//! [`beacon`] datagram, built by a [`BeaconSource`], sent over UDP by a
//! [`Beaconer`] or handed straight to a [`Collector`] by an in-process
//! harness. The collector is the one exporter: Prometheus text, CSV, the
//! merged chrome-trace timeline and the health alarms.
//!
//! The handle is an `Arc` around the shared state: the endpoint core, the
//! transport and any external observer all hold clones of the same handle.
//!
//! ## One writer, many readers
//!
//! FM gives each side of a queue its own counter so nothing on the message
//! path does a synchronised read-modify-write (paper Section 4.4); the
//! histograms and the trace ring follow the same rule. **All writes to one
//! handle — [`record`](Telemetry::record), [`trace`](Telemetry::trace),
//! through any clone — must come from one thread at a time**: the thread
//! that drives the endpoint the handle belongs to (ownership may move with
//! the endpoint, e.g. into its service thread). Under that contract a
//! histogram sample is a relaxed load and store per word and a trace event
//! is a handful of stores into a ring readers snapshot without ever
//! blocking the writer. Storage stays atomic, so reading from any thread is
//! always safe and sees each histogram count only ever grow; two threads
//! writing at once would be memory-safe but lose updates, and debug builds
//! assert (on the writing thread's id) that it does not happen.

pub mod beacon;
pub mod clocksync;
pub mod collector;
pub mod crc;
pub mod hist;
pub mod merge;
pub mod trace;

pub use beacon::{
    Beacon, BeaconBody, BeaconError, BeaconSource, Beaconer, EndpointBeacon, ShardSample,
};
pub use clocksync::{ClockEstimate, ClusterClock, OffsetEstimator, RttSample};
pub use collector::{Alarm, Collector, DetectorConfig};
pub use crc::crc32;
pub use hist::{bucket_index, bucket_lower, bucket_upper, HistSummary, Histogram, BUCKETS, SUB};
pub use merge::{FlowPair, MergeReport, MergedEvent};
pub use trace::{chrome_trace, coll_kind_name, EventKind, EventRing, TraceEvent};

#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default [`trace::EventRing`] capacity per endpoint.
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// The protocol counts an endpoint exports: the schema (names and
/// [`Counter::ALL`] order) of beacons and of the [`Collector`]'s exports.
/// The counts themselves live in the endpoint's own statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Fresh data frames queued for the wire.
    Sends,
    /// Our frames that came back bounced (return-to-sender).
    Bounces,
    /// Frames retransmitted (bounce- and timer-driven together).
    Retransmits,
    /// The timer-driven subset of `Retransmits`.
    TimerRetransmits,
    /// Duplicate data frames re-acknowledged (their ack may have been lost).
    ReAcks,
    /// Frames discarded for a CRC mismatch.
    CorruptFrames,
    /// Peers declared dead after exhausting their retry budget.
    DeadPeers,
    /// Partial large-message reassemblies aborted because their source died.
    ReassemblyAborts,
    /// Partial reassemblies evicted by the per-source cap (a live peer
    /// churning msg_ids without completing them).
    EvictedPartials,
    /// Acks that named no frame outstanding to their sender: a re-ack of
    /// a frame already freed, or an ack that outlived its frame. They free
    /// nothing.
    StaleAcks,
    /// `SeqWindow::buffer` misuse caught at runtime (out-of-window or
    /// double-insert), likewise previously only a `debug_assert!`.
    SeqBufferMisuse,
}

impl Counter {
    pub const COUNT: usize = 11;

    /// Every counter, in `repr` order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Sends,
        Counter::Bounces,
        Counter::Retransmits,
        Counter::TimerRetransmits,
        Counter::ReAcks,
        Counter::CorruptFrames,
        Counter::DeadPeers,
        Counter::ReassemblyAborts,
        Counter::EvictedPartials,
        Counter::StaleAcks,
        Counter::SeqBufferMisuse,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Sends => "sends",
            Counter::Bounces => "bounces",
            Counter::Retransmits => "retransmits",
            Counter::TimerRetransmits => "timer_retransmits",
            Counter::ReAcks => "re_acks",
            Counter::CorruptFrames => "corrupt_frames",
            Counter::DeadPeers => "dead_peers",
            Counter::ReassemblyAborts => "reassembly_aborts",
            Counter::EvictedPartials => "evicted_partials",
            Counter::StaleAcks => "stale_acks",
            Counter::SeqBufferMisuse => "seq_buffer_misuse",
        }
    }
}

/// The latency/occupancy histograms a [`Telemetry`] handle tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Send→ack round trip, in endpoint virtual ticks.
    AckRttTicks,
    /// Handler service time, in nanoseconds of wall clock.
    HandlerNs,
    /// Frames drained per non-empty wire poll batch.
    PollBatch,
}

impl Metric {
    pub const COUNT: usize = 3;

    pub const ALL: [Metric; Metric::COUNT] =
        [Metric::AckRttTicks, Metric::HandlerNs, Metric::PollBatch];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Metric::AckRttTicks => "ack_rtt_ticks",
            Metric::HandlerNs => "handler_ns",
            Metric::PollBatch => "poll_batch",
        }
    }
}

struct Inner {
    hists: [Histogram; Metric::COUNT],
    ring: EventRing,
    /// Debug builds: tag of the thread inside a write right now (0 = none).
    #[cfg(debug_assertions)]
    writing: AtomicU64,
}

impl Inner {
    /// Run one write under the single-writer contract (module docs). Debug
    /// builds claim the handle for this thread around `write` — with a load
    /// and stores, like the write itself — and panic if another thread is
    /// inside one.
    #[inline]
    fn write(&self, write: impl FnOnce(&Inner)) {
        #[cfg(debug_assertions)]
        {
            // The address of a thread-local: unique among live threads.
            thread_local!(static TAG: u8 = const { 0 });
            let me = TAG.with(|t| t as *const u8 as u64);
            let inside = self.writing.load(Ordering::Acquire);
            debug_assert!(
                inside == 0 || inside == me,
                "two threads writing one Telemetry handle at once"
            );
            self.writing.store(me, Ordering::Relaxed);
        }
        write(self);
        #[cfg(debug_assertions)]
        self.writing.store(0, Ordering::Release);
    }
}

/// A cloneable per-endpoint observability handle. Cheap to clone (an `Arc`
/// bump); all clones share the same histograms and event ring.
#[derive(Clone)]
pub struct Telemetry {
    node: u16,
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("node", &self.node)
            .finish()
    }
}

impl Telemetry {
    /// A handle for `node` with the default trace-ring capacity.
    pub fn new(node: u16) -> Self {
        Self::with_trace_capacity(node, DEFAULT_TRACE_CAPACITY)
    }

    /// A handle for `node` retaining up to `trace_capacity` events.
    pub fn with_trace_capacity(node: u16, trace_capacity: usize) -> Self {
        Telemetry {
            node,
            inner: Arc::new(Inner {
                hists: std::array::from_fn(|_| Histogram::new()),
                ring: EventRing::new(trace_capacity),
                #[cfg(debug_assertions)]
                writing: AtomicU64::new(0),
            }),
        }
    }

    pub fn node(&self) -> u16 {
        self.node
    }

    /// Record a sample into metric `m`'s histogram.
    #[inline]
    pub fn record(&self, m: Metric, v: u64) {
        self.inner
            .write(|inner| inner.hists[m as usize].record_single_writer(v));
    }

    /// Summary (count/min/max/p50/p90/p99) of metric `m`.
    pub fn metric(&self, m: Metric) -> HistSummary {
        self.inner.hists[m as usize].summary()
    }

    /// Non-empty per-octave counts of metric `m`'s histogram — the compact
    /// form the telemetry beacons ship (see [`Histogram::octave_counts`]).
    pub fn metric_octaves(&self, m: Metric) -> Vec<(u8, u64)> {
        self.inner.hists[m as usize].octave_counts()
    }

    /// Record a trace event at virtual time `tick`.
    #[inline]
    pub fn trace(&self, tick: u64, kind: EventKind) {
        self.inner.write(|inner| {
            inner.ring.push(TraceEvent {
                tick,
                node: self.node,
                kind,
            })
        });
    }

    /// Retained trace events, oldest first (see [`EventRing::to_vec`]).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.ring.to_vec()
    }

    /// Total trace events ever recorded (including ones the bounded ring
    /// has since overwritten).
    pub fn events_recorded(&self) -> u64 {
        self.inner.ring.pushed()
    }

    /// The retained trace as a chrome-trace JSON document.
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let t = Telemetry::new(0);
        let u = t.clone();
        u.record(Metric::AckRttTicks, 5);
        assert_eq!(t.metric(Metric::AckRttTicks).count, 1);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let t = Telemetry::with_trace_capacity(0, 8);
        for i in 0..100 {
            t.trace(i, EventKind::PeerDead { peer: 1 });
        }
        let evs = t.events();
        assert_eq!(evs.len(), 8);
        assert_eq!(evs.first().unwrap().tick, 92);
        assert_eq!(evs.last().unwrap().tick, 99);
        assert_eq!(t.events_recorded(), 100);
    }
}
