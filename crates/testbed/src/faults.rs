//! Loss-sweep experiment: goodput and tail latency vs injected fault rate.
//!
//! The figure experiments assume the Myrinet's near-zero bit error rate
//! (paper §2); this experiment deliberately breaks that assumption. The
//! real protocol engine (`fm-core::EndpointCore`, with its CRC trailer,
//! sequence windows and retransmission timers) runs on the discrete-event
//! engine while the harness plays a faulty wire: every frame — data *and*
//! ack alike — can be dropped, duplicated, bit-flipped or delayed, with
//! per-run seeded randomness so each point of the sweep is exactly
//! reproducible.
//!
//! Corruption goes through the *actual codec*: the frame is encoded, one
//! random bit of the image is flipped, and the decoder gets to object.
//! A frame whose damage is caught (always, for single-bit flips — see the
//! CRC property tests) simply never reaches the peer's protocol state,
//! exactly as a receiver discarding a bad-CRC frame.
//!
//! The emitted numbers feed `BENCH_faults.json` (via the `bench_faults`
//! binary): delivered goodput and p50/p99 end-to-end message latency as a
//! function of the injected fault rate.

use fm_core::endpoint::{EndpointConfig, EndpointCore};
use fm_core::{HandlerId, NodeId, WireFrame};
use fm_des::rng::Xoshiro256;
use fm_des::{Duration, Engine, Time};
use std::sync::{Arc, Mutex};

/// Parameters of one loss-sweep point.
#[derive(Debug, Clone, Copy)]
pub struct FaultSweepConfig {
    /// Messages node 0 streams at node 1.
    pub count: usize,
    /// Payload bytes per message (>= 4: the first word carries the
    /// message index for latency tracking; <= 128).
    pub payload: usize,
    /// One-way frame flight time.
    pub flight: Duration,
    /// Sender injection period.
    pub send_period: Duration,
    /// Receiver extract period.
    pub extract_period: Duration,
    /// Endpoint sizing.
    pub window: usize,
    pub recv_ring: usize,
    /// Retransmission timing, in endpoint extract ticks (the protocol
    /// engine has no wall clock). Small values recover losses quickly at
    /// the cost of occasional spurious retransmissions — which the
    /// receiver's dedup window absorbs.
    pub rto_initial: u64,
    pub rto_max: u64,
    pub retry_budget: u32,
    /// Root seed for the fault schedule.
    pub seed: u64,
    /// Injected delays hold a frame for `1..=max_extra_flights` extra
    /// flight times (reordering it past its successors).
    pub max_extra_flights: u64,
}

impl Default for FaultSweepConfig {
    fn default() -> Self {
        FaultSweepConfig {
            count: 5_000,
            payload: 128,
            flight: Duration::from_us(5),
            send_period: Duration::from_us(2),
            extract_period: Duration::from_us(4),
            window: 64,
            recv_ring: 64,
            rto_initial: 32,
            rto_max: 1 << 10,
            retry_budget: 64,
            seed: 0x10_55,
            max_extra_flights: 4,
        }
    }
}

/// Outcome of one loss-sweep point.
#[derive(Debug, Clone, Copy)]
pub struct FaultPoint {
    /// The injected per-category fault rate.
    pub rate: f64,
    /// Messages delivered (the run asserts this equals `count`, exactly
    /// once each, in order).
    pub delivered: u64,
    /// Harness-side injection counters.
    pub injected_drops: u64,
    pub injected_dups: u64,
    pub injected_corrupt: u64,
    pub injected_delays: u64,
    /// Corrupted frames the codec rejected (must equal `injected_corrupt`:
    /// single-bit flips never decode).
    pub crc_rejected: u64,
    /// Protocol recovery counters (sender + receiver).
    pub retransmitted: u64,
    pub timer_retransmits: u64,
    pub gap_retransmits: u64,
    pub duplicates_suppressed: u64,
    /// Simulated time to the last delivery.
    pub elapsed: Duration,
    /// Delivered payload bandwidth, MB/s (2^20).
    pub goodput_mbs: f64,
    /// End-to-end message latency percentiles (inject -> handler).
    pub p50: Duration,
    pub p99: Duration,
}

#[derive(Debug)]
enum Ev {
    SendTick,
    ExtractTick,
    /// A (possibly duplicated/delayed) frame lands at node `0`/`1`.
    Deliver(u8, WireFrame),
}

/// Run one point of the sweep: two nodes, `rate` applied independently to
/// drop / duplication / corruption / delay on every frame in both
/// directions.
///
/// # Panics
/// If any message is lost, duplicated or delivered out of order — the
/// sweep doubles as an end-to-end exactly-once check.
pub fn run_loss_point(rate: f64, cfg: FaultSweepConfig) -> FaultPoint {
    assert!((0.0..=0.5).contains(&rate), "rate {rate} out of range");
    assert!((4..=128).contains(&cfg.payload));
    let ep_cfg = EndpointConfig {
        window: cfg.window,
        recv_ring: cfg.recv_ring,
        rto_initial: cfg.rto_initial,
        rto_max: cfg.rto_max,
        retry_budget: cfg.retry_budget,
        ..Default::default()
    };
    let mut sender = EndpointCore::new(NodeId(0), ep_cfg);
    let mut receiver = EndpointCore::new(NodeId(1), ep_cfg);

    // The handler records delivered message indices; the event loop stamps
    // them with the simulated delivery time right after each extract.
    let delivered_idx: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let d2 = delivered_idx.clone();
    receiver.register_handler_at(
        HandlerId(1),
        Box::new(move |_, _, data| {
            d2.lock()
                .unwrap()
                .push(u32::from_le_bytes(data[..4].try_into().unwrap()));
        }),
    );

    let mut rng = Xoshiro256::seed_from_u64(cfg.seed ^ (rate * 1e9) as u64);
    let mut inject_time: Vec<Time> = Vec::with_capacity(cfg.count);
    let mut deliver_time: Vec<Option<Time>> = vec![None; cfg.count];
    let mut stamped = 0usize; // delivered_idx entries already time-stamped

    let mut eng: Engine<Ev> = Engine::new();
    eng.schedule_at(Time::ZERO, Ev::SendTick);
    eng.schedule_at(Time::ZERO, Ev::ExtractTick);

    let mut sent = 0usize;
    let mut injected_drops = 0u64;
    let mut injected_dups = 0u64;
    let mut injected_corrupt = 0u64;
    let mut injected_delays = 0u64;
    let mut crc_rejected = 0u64;
    let mut last_delivery = Time::ZERO;

    // The faulty wire: every outgoing frame rolls each fault category
    // independently. Delivery events carry the decoded frame.
    macro_rules! flush {
        ($ep:expr, $me:expr) => {
            while let Some(frame) = $ep.pop_outgoing() {
                let dst: u8 = if $me == 0 { 1 } else { 0 };
                if rng.next_bool(rate) {
                    injected_drops += 1;
                    continue;
                }
                let copies = if rng.next_bool(rate) {
                    injected_dups += 1;
                    2
                } else {
                    1
                };
                for _ in 0..copies {
                    let mut flight = cfg.flight;
                    if rng.next_bool(rate) {
                        injected_delays += 1;
                        let extra = rng.next_range(1, cfg.max_extra_flights + 1);
                        flight = Duration::from_ps(cfg.flight.as_ps() * (1 + extra));
                    }
                    if rng.next_bool(rate) {
                        injected_corrupt += 1;
                        // Through the real codec: encode, flip one bit,
                        // let the CRC judge.
                        let enc = frame.encode();
                        let mut damaged = enc.to_vec();
                        let bit = rng.next_below(damaged.len() as u64 * 8) as u32;
                        fm_core::fault::flip_bit(&mut damaged, bit);
                        match WireFrame::decode(&bytes::Bytes::from(damaged)) {
                            Ok(f) => eng.schedule_in(flight, Ev::Deliver(dst, f)),
                            Err(_) => crc_rejected += 1, // discarded at the NIC
                        }
                    } else {
                        eng.schedule_in(flight, Ev::Deliver(dst, frame.clone()));
                    }
                }
            }
        };
    }

    // Wedge guard: a healthy run needs a few events per message plus the
    // periodic ticks; blowing far past that means the protocol stopped
    // making progress (e.g. a falsely-freed window slot leaving a receiver
    // waiting forever). Panic with the state rather than spin silently.
    let event_cap = 1_000 * cfg.count as u64 + 100_000;
    let mut events = 0u64;

    while let Some((now, ev)) = eng.pop() {
        events += 1;
        assert!(
            events <= event_cap,
            "loss sweep wedged at rate {rate}: {events} events, sent {sent}/{}, \
             delivered {stamped}, sender quiescent {}, receiver quiescent {}\n\
             sender: {:?}\nreceiver: {:?}",
            cfg.count,
            sender.is_quiescent(),
            receiver.is_quiescent(),
            sender.stats(),
            receiver.stats(),
        );
        match ev {
            Ev::SendTick => {
                if sent < cfg.count {
                    let mut payload = vec![0xA5u8; cfg.payload];
                    payload[..4].copy_from_slice(&(sent as u32).to_le_bytes());
                    if sender
                        .try_send(NodeId(1), HandlerId(1), bytes::Bytes::from(payload))
                        .is_ok()
                    {
                        inject_time.push(now);
                        sent += 1;
                    } else {
                        sender.extract(usize::MAX);
                    }
                    eng.schedule_in(cfg.send_period, Ev::SendTick);
                } else if !sender.is_quiescent() {
                    sender.extract(usize::MAX);
                    eng.schedule_in(cfg.send_period, Ev::SendTick);
                }
                flush!(&mut sender, 0);
            }
            Ev::ExtractTick => {
                receiver.extract(usize::MAX);
                flush!(&mut receiver, 1);
                {
                    let idx = delivered_idx.lock().unwrap();
                    for &i in &idx[stamped..] {
                        last_delivery = now;
                        deliver_time[i as usize] = Some(now);
                    }
                    stamped = idx.len();
                }
                // Keep ticking until the *sender* quiesces too: a timer
                // retransmit arriving after the receiver has gone quiet
                // is re-acked into the AckTracker, and only an extract
                // flushes acks onto the wire.
                if stamped < cfg.count || !receiver.is_quiescent() || !sender.is_quiescent() {
                    eng.schedule_in(cfg.extract_period, Ev::ExtractTick);
                }
            }
            Ev::Deliver(node, frame) => {
                let (ep, me) = if node == 0 {
                    (&mut sender, 0u8)
                } else {
                    (&mut receiver, 1u8)
                };
                ep.on_wire(frame);
                if me == 0 {
                    flush!(&mut sender, 0);
                } else {
                    flush!(&mut receiver, 1);
                }
            }
        }
        if stamped >= cfg.count && sender.is_quiescent() && receiver.is_quiescent() {
            break;
        }
    }

    // Exactly once, in order: indices 0..count verbatim.
    {
        let idx = delivered_idx.lock().unwrap();
        assert_eq!(idx.len(), cfg.count, "lost or duplicated messages");
        for (expect, &got) in idx.iter().enumerate() {
            assert_eq!(got as usize, expect, "delivered out of order");
        }
    }
    assert!(
        !sender.is_dead(NodeId(1)),
        "retry budget too small for rate {rate}"
    );
    assert_eq!(
        crc_rejected, injected_corrupt,
        "a corrupted frame slipped past the CRC"
    );

    // Inject→deliver latency percentiles via the shared fm-telemetry
    // histogram (log2-linear buckets, ≤1/32 relative quantization) — the
    // same extractor the bench gate reads, replacing this module's old
    // sorted-Vec percentile code.
    let lat = fm_telemetry::Histogram::new();
    for (d, i) in deliver_time.iter().zip(&inject_time) {
        lat.record(d.expect("all delivered").since(*i).as_ps());
    }
    let pct = |p: f64| Duration::from_ps(lat.quantile(p));

    let elapsed = last_delivery.since(Time::ZERO);
    FaultPoint {
        rate,
        delivered: stamped as u64,
        injected_drops,
        injected_dups,
        injected_corrupt,
        injected_delays,
        crc_rejected,
        retransmitted: sender.stats().retransmitted + receiver.stats().retransmitted,
        timer_retransmits: sender.stats().timer_retransmits + receiver.stats().timer_retransmits,
        gap_retransmits: sender.stats().gap_retransmits + receiver.stats().gap_retransmits,
        duplicates_suppressed: sender.stats().duplicates + receiver.stats().duplicates,
        elapsed,
        goodput_mbs: if elapsed == Duration::ZERO {
            0.0
        } else {
            (stamped as f64 * cfg.payload as f64) / elapsed.as_secs_f64() / (1u64 << 20) as f64
        },
        p50: pct(0.50),
        p99: pct(0.99),
    }
}

/// Run the full sweep.
pub fn run_loss_sweep(rates: &[f64], cfg: FaultSweepConfig) -> Vec<FaultPoint> {
    rates.iter().map(|&r| run_loss_point(r, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FaultSweepConfig {
        FaultSweepConfig {
            count: 600,
            ..Default::default()
        }
    }

    #[test]
    fn clean_wire_needs_no_recovery() {
        let p = run_loss_point(0.0, small());
        assert_eq!(p.delivered, 600);
        assert_eq!(p.injected_drops + p.injected_corrupt + p.injected_dups, 0);
        assert_eq!(p.retransmitted, 0, "{p:?}");
        assert_eq!(p.timer_retransmits, 0, "{p:?}");
    }

    #[test]
    fn lossy_wire_recovers_exactly_once() {
        let p = run_loss_point(0.05, small());
        assert_eq!(p.delivered, 600);
        assert!(p.injected_drops > 0 && p.injected_corrupt > 0);
        assert!(
            p.gap_retransmits > 0,
            "mid-stream drops recover by hole repair: {p:?}"
        );
        assert!(
            p.timer_retransmits < p.gap_retransmits,
            "timers are the fallback, not the rule: {p:?}"
        );
        assert!(p.duplicates_suppressed > 0, "{p:?}");
    }

    #[test]
    fn latency_and_recovery_grow_with_loss() {
        let clean = run_loss_point(0.0, small());
        let lossy = run_loss_point(0.10, small());
        assert!(lossy.p99 > clean.p99, "{clean:?} vs {lossy:?}");
        assert!(lossy.retransmitted + lossy.timer_retransmits > clean.retransmitted);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run_loss_point(0.03, small());
        let b = run_loss_point(0.03, small());
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.injected_drops, b.injected_drops);
        assert_eq!(a.p99, b.p99);
    }
}
