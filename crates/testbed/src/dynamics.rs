//! Protocol dynamics under overload — an event-driven experiment.
//!
//! The figure experiments run the receiver at full speed, so
//! return-to-sender rejection never fires (matching the paper's
//! steady-state numbers). This module asks the question the paper's
//! Section 5 leaves open ("interesting areas for future study include
//! comparing return-to-sender to traditional window protocols"): *what
//! happens when the receiver polls slowly?* Packets bounce, retransmit and
//! eventually land; memory stays bounded by the sender's reject queue.
//!
//! Unlike the trajectory experiments, arrival interleaving here depends on
//! runtime state (bounces race with fresh sends), so this harness runs the
//! real protocol engine (`fm-core::EndpointCore`) on the discrete-event
//! engine (`fm-des::Engine`), with frame flight times taken from the
//! calibrated FM layer.

use fm_core::endpoint::{EndpointConfig, EndpointCore};
use fm_core::{HandlerId, NodeId, WireFrame};
use fm_des::{Duration, Engine, Time};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Parameters of one overload run.
#[derive(Debug, Clone, Copy)]
pub struct DynamicsConfig {
    /// Messages the sender will inject.
    pub count: usize,
    /// Payload bytes per message (<= 128).
    pub payload: usize,
    /// One-way frame flight time (use the calibrated FM latency).
    pub flight: Duration,
    /// Sender injection period (0 = as fast as the window allows, paced at
    /// `flight / 4`).
    pub send_period: Duration,
    /// Receiver extract period — the overload knob.
    pub extract_period: Duration,
    /// Deliveries per extract call.
    pub extract_budget: usize,
    /// Endpoint sizing.
    pub window: usize,
    pub recv_ring: usize,
    /// Receiver reorder-window lookahead. Defaults to 0, which disables
    /// the beyond-paper Ahead-buffering so the experiment reproduces the
    /// paper's pure return-to-sender dynamics: a full receiver bounces,
    /// period. Raise it to study how the reliability layer's reorder
    /// buffering tames the bounce storm.
    pub reorder_window: u32,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        DynamicsConfig {
            count: 1000,
            payload: 128,
            flight: Duration::from_us(5),
            send_period: Duration::from_us(2),
            extract_period: Duration::from_us(10),
            extract_budget: usize::MAX,
            window: 64,
            recv_ring: 32,
            reorder_window: 0,
        }
    }
}

/// Outcome of one overload run.
#[derive(Debug, Clone, Copy)]
pub struct DynamicsReport {
    /// Wall-clock (simulated) time until the last delivery.
    pub elapsed: Duration,
    pub delivered: u64,
    /// Incoming frames the receiver bounced.
    pub rejected: u64,
    /// Retransmissions the sender issued.
    pub retransmitted: u64,
    /// Peak sender memory, in outstanding frames (bounded by the window).
    pub peak_outstanding: usize,
    /// Delivered payload bandwidth in MB/s (2^20).
    pub goodput_mbs: f64,
    /// Total frames that crossed the wire (data + returns + acks).
    pub wire_frames: u64,
}

#[derive(Debug)]
enum Ev {
    SendTick,
    ExtractTick,
    Deliver(u8, WireFrame),
}

/// Run a two-node overload experiment: node 0 streams `count` messages at
/// node 1, which extracts only every `extract_period`.
pub fn run_overload(cfg: DynamicsConfig) -> DynamicsReport {
    assert!(cfg.payload <= 128);
    let ep_cfg = EndpointConfig {
        window: cfg.window,
        recv_ring: cfg.recv_ring,
        reorder_window: cfg.reorder_window,
        ..Default::default()
    };
    let mut sender = EndpointCore::new(NodeId(0), ep_cfg);
    let mut receiver = EndpointCore::new(NodeId(1), ep_cfg);
    let delivered = Arc::new(AtomicU64::new(0));
    let d2 = delivered.clone();
    receiver.register_handler_at(
        HandlerId(1),
        Box::new(move |_, _, _| {
            d2.fetch_add(1, Ordering::Relaxed);
        }),
    );

    let payload = vec![0xA5u8; cfg.payload];
    let send_period = if cfg.send_period == Duration::ZERO {
        Duration::from_ps((cfg.flight.as_ps() / 4).max(1))
    } else {
        cfg.send_period
    };

    let mut eng: Engine<Ev> = Engine::new();
    eng.schedule_at(Time::ZERO, Ev::SendTick);
    eng.schedule_at(Time::ZERO, Ev::ExtractTick);

    let mut sent = 0usize;
    let mut wire_frames = 0u64;
    let mut peak_outstanding = 0usize;
    let mut last_delivery_time = Time::ZERO;
    let mut last_delivered_count = 0u64;

    while let Some((now, ev)) = eng.pop() {
        match ev {
            Ev::SendTick => {
                if sent < cfg.count {
                    if sender
                        .try_send(NodeId(1), HandlerId(1), payload.clone())
                        .is_ok()
                    {
                        sent += 1;
                    } else {
                        // Window full: service the protocol (retransmits,
                        // ack processing) like a real FM_send spin would.
                        sender.extract(usize::MAX);
                    }
                    eng.schedule_in(send_period, Ev::SendTick);
                } else if !sender.is_quiescent() {
                    sender.extract(usize::MAX);
                    eng.schedule_in(send_period, Ev::SendTick);
                }
                peak_outstanding = peak_outstanding.max(sender.outstanding());
                flush(&mut sender, 0, cfg.flight, &mut eng, &mut wire_frames);
            }
            Ev::ExtractTick => {
                receiver.extract(cfg.extract_budget);
                flush(&mut receiver, 1, cfg.flight, &mut eng, &mut wire_frames);
                let d = delivered.load(Ordering::Relaxed);
                if d > last_delivered_count {
                    last_delivered_count = d;
                    last_delivery_time = now;
                }
                if d < cfg.count as u64 || !receiver.is_quiescent() {
                    eng.schedule_in(cfg.extract_period, Ev::ExtractTick);
                }
            }
            Ev::Deliver(node, frame) => {
                let ep = if node == 0 {
                    &mut sender
                } else {
                    &mut receiver
                };
                ep.on_wire(frame);
                flush(
                    if node == 0 {
                        &mut sender
                    } else {
                        &mut receiver
                    },
                    node,
                    cfg.flight,
                    &mut eng,
                    &mut wire_frames,
                );
            }
        }
        if delivered.load(Ordering::Relaxed) >= cfg.count as u64
            && sender.is_quiescent()
            && receiver.is_quiescent()
        {
            break;
        }
    }

    let d = delivered.load(Ordering::Relaxed);
    let elapsed = last_delivery_time.since(Time::ZERO);
    DynamicsReport {
        elapsed,
        delivered: d,
        rejected: receiver.stats().rejected,
        retransmitted: sender.stats().retransmitted,
        peak_outstanding,
        goodput_mbs: if elapsed == Duration::ZERO {
            0.0
        } else {
            (d as f64 * cfg.payload as f64) / elapsed.as_secs_f64() / (1u64 << 20) as f64
        },
        wire_frames,
    }
}

/// Ship an endpoint's queued frames: each becomes a Deliver event at the
/// peer after one flight time.
fn flush(
    ep: &mut EndpointCore,
    me: u8,
    flight: Duration,
    eng: &mut Engine<Ev>,
    wire_frames: &mut u64,
) {
    while let Some(f) = ep.pop_outgoing() {
        let dst = if me == 0 { 1 } else { 0 };
        debug_assert_eq!(f.head.dst, NodeId(dst as u16));
        *wire_frames += 1;
        eng.schedule_in(flight, Ev::Deliver(dst, f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_receiver_no_rejections() {
        let r = run_overload(DynamicsConfig {
            count: 500,
            extract_period: Duration::from_us(1),
            recv_ring: 256,
            ..Default::default()
        });
        assert_eq!(r.delivered, 500);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.retransmitted, 0);
    }

    #[test]
    fn slow_receiver_bounces_but_everything_lands() {
        let r = run_overload(DynamicsConfig {
            count: 500,
            send_period: Duration::from_us(1),
            extract_period: Duration::from_us(200),
            extract_budget: 8,
            recv_ring: 8,
            window: 32,
            ..Default::default()
        });
        assert_eq!(r.delivered, 500, "{r:?}");
        assert!(r.rejected > 0, "overload must cause rejections: {r:?}");
        assert!(r.retransmitted > 0);
        assert!(r.peak_outstanding <= 32, "window bounds sender memory");
        assert!(r.wire_frames > 500, "returns/acks add wire traffic");
    }

    #[test]
    fn goodput_degrades_with_slower_extract() {
        let fast = run_overload(DynamicsConfig {
            count: 400,
            extract_period: Duration::from_us(5),
            ..Default::default()
        });
        let slow = run_overload(DynamicsConfig {
            count: 400,
            extract_period: Duration::from_us(500),
            extract_budget: 4,
            recv_ring: 8,
            ..Default::default()
        });
        assert!(
            fast.goodput_mbs > slow.goodput_mbs,
            "fast {} vs slow {}",
            fast.goodput_mbs,
            slow.goodput_mbs
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = DynamicsConfig {
            count: 300,
            extract_period: Duration::from_us(50),
            recv_ring: 16,
            ..Default::default()
        };
        let a = run_overload(cfg);
        let b = run_overload(cfg);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.wire_frames, b.wire_frames);
    }
}
