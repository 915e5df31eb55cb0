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

use crate::dynamics::{run_pair, PairSpec};
use fm_core::endpoint::EndpointConfig;
use fm_core::{NodeId, WireFrame};
use fm_des::rng::Xoshiro256;
use fm_des::{Duration, Time};

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

/// Run one point of the sweep: two nodes, `rate` applied independently to
/// drop / duplication / corruption / delay on every frame in both
/// directions.
///
/// # Panics
/// If any message is lost, duplicated or delivered out of order — the
/// sweep doubles as an end-to-end exactly-once check.
pub fn run_loss_point(rate: f64, cfg: FaultSweepConfig) -> FaultPoint {
    assert!((0.0..=0.5).contains(&rate), "rate {rate} out of range");
    let config = EndpointConfig {
        window: cfg.window,
        recv_ring: cfg.recv_ring,
        rto_initial: cfg.rto_initial,
        rto_max: cfg.rto_max,
        retry_budget: cfg.retry_budget,
        ..Default::default()
    };
    let spec = PairSpec {
        count: cfg.count,
        payload: cfg.payload,
        send_period: cfg.send_period,
        extract_period: cfg.extract_period,
        extract_budget: usize::MAX,
        // A healthy run needs a few events per message plus the periodic
        // ticks; far past that, a falsely freed window slot (say) has the
        // receiver waiting forever.
        max_events: 1_000 * cfg.count as u64 + 100_000,
    };
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed ^ (rate * 1e9) as u64);
    let (mut drops, mut dups, mut corrupt, mut delays, mut crc_rejected) = (0, 0, 0, 0, 0);
    // The faulty wire: every frame rolls each fault category independently.
    let run = run_pair(config, spec, |frame, emit| {
        if rng.next_bool(rate) {
            drops += 1;
            return;
        }
        let copies = if rng.next_bool(rate) {
            dups += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let mut flight = cfg.flight;
            if rng.next_bool(rate) {
                delays += 1;
                let extra = rng.next_range(1, cfg.max_extra_flights + 1);
                flight = Duration::from_ps(cfg.flight.as_ps() * (1 + extra));
            }
            if rng.next_bool(rate) {
                corrupt += 1;
                // Through the real codec: encode, flip one bit, let the
                // CRC judge.
                let mut damaged = frame.encode().to_vec();
                let bit = rng.next_below(damaged.len() as u64 * 8) as u32;
                fm_core::fault::flip_bit(&mut damaged, bit);
                match WireFrame::decode(&bytes::Bytes::from(damaged)) {
                    Ok(f) => emit(flight, f),
                    Err(_) => crc_rejected += 1, // discarded at the NIC
                }
            } else {
                emit(flight, frame.clone());
            }
        }
    });

    // Exactly once, in order: indices 0..count verbatim.
    assert_eq!(
        run.delivered.len(),
        cfg.count,
        "lost or duplicated messages"
    );
    for (expect, &(got, _)) in run.delivered.iter().enumerate() {
        assert_eq!(got as usize, expect, "delivered out of order");
    }
    assert!(
        !run.sender.is_dead(NodeId(1)),
        "retry budget too small for rate {rate}"
    );
    assert_eq!(
        crc_rejected, corrupt,
        "a corrupted frame slipped past the CRC"
    );

    // Inject→deliver latency percentiles via the shared fm-telemetry
    // histogram (log2-linear buckets, ≤1/32 relative quantization) — the
    // same extractor the bench gate reads.
    let lat = fm_telemetry::Histogram::new();
    for (&(_, at), sent) in run.delivered.iter().zip(&run.sent_at) {
        lat.record(at.since(*sent).as_ps());
    }
    let pct = |p: f64| Duration::from_ps(lat.quantile(p));
    let (s, r) = (run.sender.stats(), run.receiver.stats());
    let elapsed = run.last_delivery().since(Time::ZERO);
    FaultPoint {
        rate,
        delivered: run.delivered.len() as u64,
        injected_drops: drops,
        injected_dups: dups,
        injected_corrupt: corrupt,
        injected_delays: delays,
        crc_rejected,
        retransmitted: s.retransmitted + r.retransmitted,
        timer_retransmits: s.timer_retransmits + r.timer_retransmits,
        gap_retransmits: s.gap_retransmits + r.gap_retransmits,
        duplicates_suppressed: s.duplicates + r.duplicates,
        elapsed,
        goodput_mbs: if elapsed == Duration::ZERO {
            0.0
        } else {
            (cfg.count as f64 * cfg.payload as f64) / elapsed.as_secs_f64() / (1u64 << 20) as f64
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
