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
//! calibrated FM layer. `run_pair` is that two-node loop; the loss sweep
//! ([`crate::faults`]) runs it over a faulty wire.

use fm_core::endpoint::{EndpointConfig, EndpointCore};
use fm_core::{HandlerId, NodeId, WireFrame};
use fm_des::{Duration, Engine, Time};
use std::sync::{Arc, Mutex};

/// Parameters of one overload run.
#[derive(Debug, Clone, Copy)]
pub struct DynamicsConfig {
    /// Messages the sender will inject.
    pub count: usize,
    /// Payload bytes per message (4..=128).
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

/// Run a two-node overload experiment: node 0 streams `count` messages at
/// node 1, which extracts only every `extract_period`.
pub fn run_overload(cfg: DynamicsConfig) -> DynamicsReport {
    let config = EndpointConfig {
        window: cfg.window,
        recv_ring: cfg.recv_ring,
        reorder_window: cfg.reorder_window,
        ..Default::default()
    };
    let send_period = if cfg.send_period == Duration::ZERO {
        Duration::from_ps((cfg.flight.as_ps() / 4).max(1))
    } else {
        cfg.send_period
    };
    let spec = PairSpec {
        count: cfg.count,
        payload: cfg.payload,
        send_period,
        extract_period: cfg.extract_period,
        extract_budget: cfg.extract_budget,
        max_events: u64::MAX,
    };
    let run = run_pair(config, spec, |frame, emit| emit(cfg.flight, frame));
    let d = run.delivered.len() as u64;
    let elapsed = run.last_delivery().since(Time::ZERO);
    DynamicsReport {
        elapsed,
        delivered: d,
        rejected: run.receiver.stats().rejected,
        retransmitted: run.sender.stats().retransmitted,
        peak_outstanding: run.peak_outstanding,
        goodput_mbs: if elapsed == Duration::ZERO {
            0.0
        } else {
            (d as f64 * cfg.payload as f64) / elapsed.as_secs_f64() / (1u64 << 20) as f64
        },
        wire_frames: run.wire_frames,
    }
}

/// The shape of one two-node run (see [`run_pair`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairSpec {
    /// Messages node 0 sends to node 1.
    pub count: usize,
    /// Payload bytes per message (4..=128); the first word is the
    /// message's index.
    pub payload: usize,
    pub send_period: Duration,
    pub extract_period: Duration,
    /// Deliveries per receiver extract.
    pub extract_budget: usize,
    /// Events after which the run is declared wedged.
    pub max_events: u64,
}

/// What a two-node run leaves behind.
pub(crate) struct PairRun {
    pub sender: EndpointCore,
    pub receiver: EndpointCore,
    /// When the sender accepted each message, by index.
    pub sent_at: Vec<Time>,
    /// Message indices in delivery order, each with the time of the
    /// extract that ran its handler.
    pub delivered: Vec<(u32, Time)>,
    pub peak_outstanding: usize,
    /// Frames either endpoint put on the wire (data, returns and acks).
    pub wire_frames: u64,
}

impl PairRun {
    pub fn last_delivery(&self) -> Time {
        self.delivered.last().map_or(Time::ZERO, |&(_, t)| t)
    }
}

#[derive(Debug)]
enum Ev {
    SendTick,
    ExtractTick,
    /// A frame lands at node `0`/`1`.
    Deliver(u8, WireFrame),
}

/// The two-node loop both DES experiments share. Node 0 offers its next
/// message on every send tick, servicing its protocol instead while the
/// window is full (a spinning `FM_send`); node 1 extracts on every extract
/// tick. Every frame either one emits goes through `wire`, which calls
/// `emit(flight, frame)` once per copy it lets through: the one thing the
/// overload and loss experiments do differently. Runs until every message
/// is delivered and both endpoints are quiescent.
///
/// # Panics
/// Past `spec.max_events` events: the protocol stopped making progress.
pub(crate) fn run_pair(
    config: EndpointConfig,
    spec: PairSpec,
    mut wire: impl FnMut(WireFrame, &mut dyn FnMut(Duration, WireFrame)),
) -> PairRun {
    assert!((4..=128).contains(&spec.payload));
    let delivered_idx: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let d2 = delivered_idx.clone();
    let mut receiver = EndpointCore::new(NodeId(1), config);
    receiver.register_handler_at(
        HandlerId(1),
        Box::new(move |_, _, data| {
            let index = u32::from_le_bytes(data[..4].try_into().expect("4 bytes"));
            d2.lock()
                .expect("the handler never panics holding it")
                .push(index);
        }),
    );
    let mut run = PairRun {
        sender: EndpointCore::new(NodeId(0), config),
        receiver,
        sent_at: Vec::with_capacity(spec.count),
        delivered: Vec::with_capacity(spec.count),
        peak_outstanding: 0,
        wire_frames: 0,
    };
    let mut eng: Engine<Ev> = Engine::new();
    eng.schedule_at(Time::ZERO, Ev::SendTick);
    eng.schedule_at(Time::ZERO, Ev::ExtractTick);
    let mut flush = |ep: &mut EndpointCore, me: u8, eng: &mut Engine<Ev>, frames: &mut u64| {
        while let Some(frame) = ep.pop_outgoing() {
            *frames += 1;
            wire(frame, &mut |flight, f| {
                eng.schedule_in(flight, Ev::Deliver(1 - me, f))
            });
        }
    };
    let mut events = 0u64;
    while let Some((now, ev)) = eng.pop() {
        events += 1;
        let PairRun {
            sender,
            receiver,
            sent_at,
            delivered,
            peak_outstanding,
            wire_frames,
        } = &mut run;
        assert!(
            events <= spec.max_events,
            "two-node run wedged: {events} events, sent {}/{}, delivered {}\n\
             sender: {sender:?}\nreceiver: {receiver:?}",
            sent_at.len(),
            spec.count,
            delivered.len(),
        );
        match ev {
            Ev::SendTick => {
                if sent_at.len() < spec.count {
                    let mut payload = vec![0xA5u8; spec.payload];
                    payload[..4].copy_from_slice(&(sent_at.len() as u32).to_le_bytes());
                    if sender.try_send(NodeId(1), HandlerId(1), payload).is_ok() {
                        sent_at.push(now);
                    } else {
                        sender.extract(usize::MAX);
                    }
                    eng.schedule_in(spec.send_period, Ev::SendTick);
                } else if !sender.is_quiescent() {
                    sender.extract(usize::MAX);
                    eng.schedule_in(spec.send_period, Ev::SendTick);
                }
                *peak_outstanding = (*peak_outstanding).max(sender.outstanding());
                flush(sender, 0, &mut eng, wire_frames);
            }
            Ev::ExtractTick => {
                receiver.extract(spec.extract_budget);
                flush(receiver, 1, &mut eng, wire_frames);
                let idx = delivered_idx
                    .lock()
                    .expect("the handler never panics holding it");
                delivered.extend(idx[delivered.len()..].iter().map(|&i| (i, now)));
                // Keep ticking until the sender quiesces too: a resend
                // arriving after the receiver went quiet is re-acked, and
                // only an extract puts that ack on the wire.
                if delivered.len() < spec.count
                    || !receiver.is_quiescent()
                    || !sender.is_quiescent()
                {
                    eng.schedule_in(spec.extract_period, Ev::ExtractTick);
                }
            }
            Ev::Deliver(node, frame) => {
                let ep = if node == 0 {
                    &mut *sender
                } else {
                    &mut *receiver
                };
                ep.on_wire(frame);
                flush(ep, node, &mut eng, wire_frames);
            }
        }
        if delivered.len() >= spec.count && sender.is_quiescent() && receiver.is_quiescent() {
            break;
        }
    }
    run
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
