//! A traditional credit/window flow-control protocol — the comparison the
//! paper's Section 5 proposes as future study ("comparing return-to-sender
//! to traditional window protocols, and exploring other dynamic flow
//! control schemes").
//!
//! The scheme: the receiver statically partitions its buffering, granting
//! each sender `credits` slots up front. A sender transmits only while it
//! holds credit; the receiver returns credits (batched) as the application
//! extracts. Consequences, measured by [`run_credit_overload`] against
//! return-to-sender's [`crate::dynamics::run_overload`]:
//!
//! * **no rejections ever** — under overload the wire stays quiet instead
//!   of filling with bounced packets and retransmissions;
//! * **receiver memory scales with the number of senders** (`senders x
//!   credits` slots must be pinned) — exactly the "nonscalable buffering
//!   requirement" the paper's return-to-sender design avoids;
//! * throughput under a fast receiver is limited by the credit-return
//!   round trip when the window is small.

use fm_des::{Duration, Engine, Time};
use std::collections::VecDeque;

/// Parameters of one credit-protocol overload run (mirrors
/// [`crate::dynamics::DynamicsConfig`] where meaningful).
#[derive(Debug, Clone, Copy)]
pub struct CreditConfig {
    /// Messages the sender will inject.
    pub count: usize,
    /// Payload bytes per message.
    pub payload: usize,
    /// One-way frame flight time.
    pub flight: Duration,
    /// Sender injection period.
    pub send_period: Duration,
    /// Receiver extract period — the overload knob.
    pub extract_period: Duration,
    /// Deliveries per extract call.
    pub extract_budget: usize,
    /// Credits granted to the sender (the receiver pins this many slots
    /// *per sender*).
    pub credits: usize,
    /// Credits accumulated before a credit-return frame is sent.
    pub credit_batch: usize,
}

impl Default for CreditConfig {
    fn default() -> Self {
        CreditConfig {
            count: 1000,
            payload: 128,
            flight: Duration::from_us(5),
            send_period: Duration::from_us(2),
            extract_period: Duration::from_us(10),
            extract_budget: usize::MAX,
            credits: 64,
            credit_batch: 4,
        }
    }
}

/// Outcome of a credit-protocol run, aligned with
/// [`crate::dynamics::DynamicsReport`] for side-by-side tables.
#[derive(Debug, Clone, Copy)]
pub struct CreditReport {
    pub elapsed: Duration,
    pub delivered: u64,
    /// Data frames on the wire (always == count: nothing retransmits).
    pub data_frames: u64,
    /// Credit-return frames on the wire.
    pub credit_frames: u64,
    /// Peak frames buffered at the receiver (bounded by `credits`).
    pub peak_receiver_buffer: usize,
    /// Receiver slots that must be reserved per sender (the memory cost
    /// the paper's design avoids): simply `credits`.
    pub reserved_per_sender: usize,
    pub goodput_mbs: f64,
}

#[derive(Debug)]
enum Ev {
    SendTick,
    ExtractTick,
    /// Data frame arrives at the receiver.
    Data,
    /// Credit-return frame arrives at the sender carrying `n` credits.
    Credits(usize),
}

/// Two-node overload run under the credit protocol.
pub fn run_credit_overload(cfg: CreditConfig) -> CreditReport {
    assert!(cfg.credits >= 1 && cfg.credit_batch >= 1);
    let mut eng: Engine<Ev> = Engine::new();
    eng.schedule_at(Time::ZERO, Ev::SendTick);
    eng.schedule_at(Time::ZERO, Ev::ExtractTick);

    let mut sent = 0usize;
    let mut credits = cfg.credits;
    let mut receiver_q: VecDeque<()> = VecDeque::new();
    let mut delivered = 0u64;
    let mut pending_credit_return = 0usize;
    let mut credit_frames = 0u64;
    let mut peak_buffer = 0usize;
    let mut last_delivery = Time::ZERO;

    while let Some((now, ev)) = eng.pop() {
        match ev {
            Ev::SendTick => {
                if sent < cfg.count {
                    if credits > 0 {
                        credits -= 1;
                        sent += 1;
                        eng.schedule_in(cfg.flight, Ev::Data);
                    }
                    // With zero credit the sender idles (no wire traffic at
                    // all — contrast with return-to-sender's bounce storm);
                    // it re-checks on its tick.
                    eng.schedule_in(cfg.send_period, Ev::SendTick);
                }
            }
            Ev::Data => {
                receiver_q.push_back(());
                peak_buffer = peak_buffer.max(receiver_q.len());
                assert!(
                    receiver_q.len() <= cfg.credits,
                    "credit protocol must never overflow the reserved slots"
                );
            }
            Ev::ExtractTick => {
                let mut n = 0;
                while n < cfg.extract_budget && receiver_q.pop_front().is_some() {
                    n += 1;
                }
                delivered += n as u64;
                if n > 0 {
                    last_delivery = now;
                }
                pending_credit_return += n;
                // Return credits in batches (one small frame each).
                while pending_credit_return >= cfg.credit_batch {
                    pending_credit_return -= cfg.credit_batch;
                    credit_frames += 1;
                    eng.schedule_in(cfg.flight, Ev::Credits(cfg.credit_batch));
                }
                if delivered < cfg.count as u64 || pending_credit_return > 0 {
                    // Final flush of a partial batch once the stream ends.
                    if delivered >= cfg.count as u64 && pending_credit_return > 0 {
                        let n = pending_credit_return;
                        pending_credit_return = 0;
                        credit_frames += 1;
                        eng.schedule_in(cfg.flight, Ev::Credits(n));
                    }
                    eng.schedule_in(cfg.extract_period, Ev::ExtractTick);
                }
            }
            Ev::Credits(n) => {
                credits += n;
                debug_assert!(credits <= cfg.credits);
            }
        }
        if delivered >= cfg.count as u64 {
            // Drain remaining events cheaply; nothing further matters.
            if sent >= cfg.count && receiver_q.is_empty() {
                break;
            }
        }
    }

    let elapsed = last_delivery.since(Time::ZERO);
    CreditReport {
        elapsed,
        delivered,
        data_frames: sent as u64,
        credit_frames,
        peak_receiver_buffer: peak_buffer,
        reserved_per_sender: cfg.credits,
        goodput_mbs: if elapsed == Duration::ZERO {
            0.0
        } else {
            (delivered as f64 * cfg.payload as f64) / elapsed.as_secs_f64() / (1u64 << 20) as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{run_overload, DynamicsConfig};

    #[test]
    fn fast_receiver_full_delivery() {
        let r = run_credit_overload(CreditConfig {
            count: 500,
            extract_period: Duration::from_us(1),
            ..Default::default()
        });
        assert_eq!(r.delivered, 500);
        assert_eq!(r.data_frames, 500, "no retransmissions, ever");
        assert!(r.peak_receiver_buffer <= 64);
    }

    #[test]
    fn slow_receiver_never_overflows_or_retransmits() {
        let r = run_credit_overload(CreditConfig {
            count: 500,
            send_period: Duration::from_us(1),
            extract_period: Duration::from_us(200),
            extract_budget: 8,
            credits: 16,
            ..Default::default()
        });
        assert_eq!(r.delivered, 500);
        assert_eq!(r.data_frames, 500);
        assert!(r.peak_receiver_buffer <= 16);
        assert!(r.credit_frames >= 500 / 4_u64);
    }

    #[test]
    fn credit_wire_traffic_far_below_bounce_storm() {
        // The paper's proposed comparison, in one assertion: under heavy
        // overload, return-to-sender floods the wire with bounces and
        // retransmissions while the credit protocol sends exactly
        // count + credit frames.
        let overloaded_rts = run_overload(DynamicsConfig {
            count: 500,
            send_period: Duration::from_us(1),
            extract_period: Duration::from_us(500),
            extract_budget: 8,
            recv_ring: 16,
            window: 32,
            ..Default::default()
        });
        let overloaded_credit = run_credit_overload(CreditConfig {
            count: 500,
            send_period: Duration::from_us(1),
            extract_period: Duration::from_us(500),
            extract_budget: 8,
            credits: 16,
            ..Default::default()
        });
        assert_eq!(overloaded_rts.delivered, 500);
        assert_eq!(overloaded_credit.delivered, 500);
        let credit_wire = overloaded_credit.data_frames + overloaded_credit.credit_frames;
        assert!(
            overloaded_rts.wire_frames > 4 * credit_wire,
            "bounce storm {} vs credit traffic {}",
            overloaded_rts.wire_frames,
            credit_wire
        );
        // ...but the credit receiver pins slots per sender, which is the
        // memory cost return-to-sender exists to avoid.
        assert_eq!(overloaded_credit.reserved_per_sender, 16);
    }

    #[test]
    fn small_window_throttles_fast_receiver() {
        // With a tiny window, throughput is limited by the credit-return
        // round trip even though the receiver is fast.
        let big = run_credit_overload(CreditConfig {
            credits: 64,
            extract_period: Duration::from_us(1),
            ..Default::default()
        });
        let tiny = run_credit_overload(CreditConfig {
            credits: 2,
            credit_batch: 1,
            extract_period: Duration::from_us(1),
            ..Default::default()
        });
        assert!(
            big.goodput_mbs > 1.5 * tiny.goodput_mbs,
            "window-limited: {} vs {}",
            big.goodput_mbs,
            tiny.goodput_mbs
        );
    }

    #[test]
    fn deterministic() {
        let cfg = CreditConfig::default();
        let a = run_credit_overload(cfg);
        let b = run_credit_overload(cfg);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.credit_frames, b.credit_frames);
    }
}
