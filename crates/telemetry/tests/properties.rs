//! Property and concurrency tests for fm-telemetry.
//!
//! * The histogram's nearest-rank quantile is checked against an exact
//!   sorted-`Vec` model: the log2-linear buckets may only bias the answer
//!   *upward*, by at most one part in 32 (the sub-bucket resolution).
//!   This is the contract that let the bench bins and the testbed replace
//!   their sorted-vec percentile code with the histogram.
//! * The single-writer handle (histograms, trace ring) must be exact,
//!   monotone and untorn for a reader on another thread.
//! * The event ring must keep exactly the newest `capacity` events across
//!   wraparound while still counting every push.
//! * Clock-offset estimation must recover a known injected offset to
//!   within half the round-trip time — the NTP-midpoint error bound the
//!   merged-timeline renderer relies on.

use fm_telemetry::{
    chrome_trace, ClusterClock, EventKind, Histogram, Metric, RttSample, Telemetry, TraceEvent,
};
use proptest::prelude::*;

/// Exact nearest-rank quantile over the raw samples — the model the
/// histogram approximates (and the code it replaced in the bench bins).
/// Same rank convention as `Histogram::quantile`: 1-indexed `ceil(q*n)`.
fn exact_quantile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    let n = samples.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    samples[(rank - 1) as usize]
}

proptest! {
    #[test]
    fn histogram_quantile_tracks_exact_model(
        samples in proptest::collection::vec(0u64..=1_000_000_000_000, 1..120),
        qi in 0usize..5,
    ) {
        let q = [0.0, 0.5, 0.9, 0.99, 1.0][qi];
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut model = samples.clone();
        let exact = exact_quantile(&mut model, q);
        let approx = h.quantile(q);
        // Upward-biased: never report a latency better than reality...
        prop_assert!(approx >= exact, "quantile({q}) = {approx} < exact {exact}");
        // ...and never worse than one sub-bucket (1/32) above it.
        prop_assert!(
            approx - exact <= exact / 32 + 1,
            "quantile({q}) = {approx} overshoots exact {exact} by more than 1/32"
        );
        prop_assert!(approx <= h.max(), "quantile must never exceed the observed max");
    }

    #[test]
    fn histogram_count_and_bounds_match_model(
        samples in proptest::collection::vec(0u64..=1_000_000, 1..120),
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.sum(), samples.iter().sum::<u64>());
        prop_assert_eq!(h.min(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
    }

    /// Synthesize one traced send→ack quadruple with a known receiver
    /// clock offset and arbitrary non-negative one-way delays: the NTP
    /// midpoint must land within RTT/2 of the injected offset, both on the
    /// raw sample and through the event-based [`ClusterClock`] pipeline.
    /// (The half-tick of integer truncation allows ceil rather than floor.)
    #[test]
    fn clock_offset_recovered_within_half_rtt(
        offset in -1_000_000i64..=1_000_000,
        send in 2_000_000u64..3_000_000,
        fwd in 0u64..=500,
        turnaround in 0u64..=100,
        back in 0u64..=500,
    ) {
        // Sender clock: send, then ack_in after fwd + turnaround + back.
        // Receiver clock: the same instants, shifted by `offset`.
        let wire_in = ((send + fwd) as i64 + offset) as u64;
        let ack_out = wire_in + turnaround;
        let ack_in = send + fwd + turnaround + back;
        let s = RttSample { send, wire_in, ack_out, ack_in };
        prop_assert!(s.plausible());
        prop_assert_eq!(s.rtt(), fwd + back, "turnaround must cancel out");
        let half_rtt_ceil = (s.rtt() as i64 + 1) / 2;
        let err = (s.offset() - offset).abs();
        prop_assert!(
            err <= half_rtt_ceil,
            "midpoint missed by {err} > rtt/2 = {half_rtt_ceil}"
        );

        // Same bound through the full pipeline: span events -> quadruple
        // extraction -> min-RTT filter -> BFS chaining.
        let trace = 1u32;
        let evs = [
            TraceEvent { tick: send, node: 0,
                kind: EventKind::SpanSend { trace, hop: 0, dst: 1 } },
            TraceEvent { tick: wire_in, node: 1,
                kind: EventKind::SpanWireIn { trace, hop: 0, src: 0 } },
            TraceEvent { tick: ack_out, node: 1,
                kind: EventKind::SpanAckOut { trace, hop: 0, dst: 0 } },
            TraceEvent { tick: ack_in, node: 0,
                kind: EventKind::SpanAckIn { trace, hop: 0, peer: 1 } },
        ];
        let clock = ClusterClock::from_events(&evs);
        prop_assert!(clock.is_aligned(1));
        prop_assert_eq!(clock.offset(0), 0, "reference pinned at zero");
        let chain_err = (clock.offset(1) - offset).abs();
        let chain_bound = (clock.chain_rtt(1) as i64 + 1) / 2;
        prop_assert!(
            chain_err <= chain_bound,
            "chained offset {} missed injected {offset} by more than rtt/2",
            clock.offset(1)
        );
    }
}

/// The single-writer handle under a concurrent reader: one thread writes
/// a histogram and the trace ring with plain loads and stores while
/// another polls both. Nothing may be lost, no count may be seen going
/// backwards, and a trace snapshot may drop entries the writer overtook
/// but never return a mixed one.
#[test]
fn single_writer_ledger_is_exact_under_a_concurrent_reader() {
    const WRITES: u64 = 1_000_000;
    // Every field of an event is a function of its tick, so a torn entry
    // (words from two different pushes) cannot pass for a real one.
    let event_at = |tick: u64| EventKind::Send {
        dst: tick as u16,
        slot: (tick >> 16) as u16,
        seq: (tick as u32).rotate_left(7),
    };
    let t = Telemetry::with_trace_capacity(5, 64);
    let start = std::sync::Barrier::new(2);
    let done = std::sync::atomic::AtomicBool::new(false);
    let polls = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (mut polls, mut samples, mut recorded) = (0u64, 0, 0);
            start.wait();
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                let now = (t.metric(Metric::HandlerNs).count, t.events_recorded());
                assert!(now.0 >= samples && now.1 >= recorded);
                (samples, recorded) = now;
                let snapshot = t.events();
                for pair in snapshot.windows(2) {
                    assert!(pair[0].tick < pair[1].tick, "oldest first");
                }
                for e in &snapshot {
                    assert_eq!((e.node, e.kind), (5, event_at(e.tick)), "torn entry");
                }
                polls += 1;
            }
            polls
        });
        start.wait();
        for i in 0..WRITES {
            t.record(Metric::HandlerNs, i % 1000);
            t.trace(i, event_at(i));
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        reader.join().expect("reader")
    });
    assert!(polls > 0);
    let hist = t.metric(Metric::HandlerNs);
    assert_eq!((hist.count, hist.min, hist.max), (WRITES, 0, 999));
    assert_eq!(t.events_recorded(), WRITES);
    let ticks: Vec<u64> = t.events().iter().map(|e| e.tick).collect();
    assert_eq!(ticks, (WRITES - 64..WRITES).collect::<Vec<_>>());
}

#[test]
fn event_ring_wraparound_keeps_newest() {
    let t = Telemetry::with_trace_capacity(3, 8);
    for tick in 0..20u64 {
        t.trace(tick, EventKind::PeerDead { peer: tick as u16 });
    }
    assert_eq!(t.events_recorded(), 20);
    let kept = t.events();
    assert_eq!(kept.len(), 8, "ring holds exactly its capacity");
    let ticks: Vec<u64> = kept.iter().map(|e| e.tick).collect();
    assert_eq!(
        ticks,
        (12..20).collect::<Vec<_>>(),
        "oldest-first, newest kept"
    );
    // The chrome export carries every retained event.
    let chrome = chrome_trace(&kept);
    assert_eq!(chrome.matches("\"ph\":").count(), 8);
}
