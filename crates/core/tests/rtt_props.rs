//! Property tests for the wall-clock timer machinery behind the UDP
//! fabric: the RFC 6298 RTT estimator, Karn's rule at the sender-flow
//! level, the clamp bounds every adapted RTO must respect, and the
//! cross-process determinism of the retransmit-backoff jitter seeding.
//!
//! These are invariants, not scenarios: whatever trace of round trips a
//! real network produces, the estimator must stay inside its clamp and
//! must never have been fed an ambiguous (retransmitted) sample — the
//! soak tests in `udp_net.rs` can only sample a few schedules, the
//! properties cover the space.

use fm_core::flow::SenderFlow;
use fm_core::{derive_jitter_seed, RetransmitConfig, RttEstimator};
use proptest::prelude::*;

proptest! {
    /// On a constant-RTT trace the smoothed estimate converges to the
    /// constant (integer truncation can leave it one below), the variance
    /// estimate decays to ~zero, and the RTO lands just above SRTT.
    #[test]
    fn estimator_converges_on_constant_traces(
        rtt in 1u64..100_000,
        noise in proptest::collection::vec(1u64..200_000, 0..8),
    ) {
        let mut e = RttEstimator::new(2_048, 1, u64::MAX >> 1);
        for n in noise {
            e.on_sample(n); // arbitrary warm-up history
        }
        for _ in 0..256 {
            e.on_sample(rtt);
        }
        let srtt = e.srtt().unwrap();
        // Integer 7/8 smoothing truncates: approaching from below can
        // park up to 7 under the constant (the largest d with
        // floor((7s + s + d) / 8) == s), approach from above converges
        // exactly. Same truncation bounds the residual variance.
        prop_assert!(srtt.abs_diff(rtt) <= 7, "srtt {srtt} vs rtt {rtt}");
        prop_assert!(e.rttvar().unwrap() <= 7, "variance must decay: {e:?}");
        // RTO = srtt + max(4*rttvar, 1): strictly above srtt, near it.
        prop_assert!(e.rto() > srtt && e.rto() <= srtt + 29, "{e:?}");
    }

    /// Whatever the sample trace, every published RTO stays inside the
    /// clamp bounds — including before the first sample.
    #[test]
    fn estimator_rto_always_within_clamp(
        initial in 1u64..1_000_000,
        lo in 1u64..10_000,
        span in 0u64..1_000_000,
        samples in proptest::collection::vec(0u64..u64::MAX / 8, 1..64),
    ) {
        let hi = lo + span;
        let e0 = RttEstimator::new(initial, lo, hi);
        prop_assert!(e0.rto() >= lo && e0.rto() <= hi);
        let mut e = e0;
        for s in samples {
            e.on_sample(s);
            prop_assert!(
                e.rto() >= lo && e.rto() <= hi,
                "rto {} outside [{lo}, {hi}] after sample {s}",
                e.rto()
            );
        }
    }

    /// Karn's rule at the sender-flow level: a slot is born clean, any
    /// retransmission (timer-driven here) marks it, and counting only
    /// acks whose slot was clean never admits a retransmitted sample.
    #[test]
    fn karn_rule_never_samples_a_retransmitted_slot(
        retransmit_mask in proptest::collection::vec(any::<bool>(), 8),
        rto in 4u64..100,
    ) {
        let cfg = RetransmitConfig {
            rto_initial: rto,
            rto_max: rto * 4,
            retry_budget: 8,
        };
        let mut flow = SenderFlow::new(8, cfg, derive_jitter_seed(1, 0));
        let mut estimator = RttEstimator::new(rto, 1, rto * 4);
        let mut slots = Vec::new();
        for _ in &retransmit_mask {
            let slot = flow.begin_send(0).unwrap();
            prop_assert!(!flow.slot_retransmitted(slot), "fresh slots are clean");
            slots.push(slot);
        }
        // Let every timer expire (jittered deadline <= rto + rto/4), then
        // fire: every slot retransmits once and is marked.
        let fire_at = rto * 2;
        if retransmit_mask.iter().any(|&r| r) {
            flow.fire_timers(fire_at, |_| {}, |_| panic!("budget is generous"));
        }
        // `retransmit_mask[i]` decides whether slot i's ack arrives after
        // that retransmission round (ambiguous) or we pretend it landed
        // before (clean) by whether we sampled it. In this driver all
        // slots actually retransmitted together when any did; the mask
        // picks which acks we *process* under Karn's gate.
        let fired_any = retransmit_mask.iter().any(|&r| r);
        let mut clean_samples = 0u64;
        for (i, slot) in slots.iter().copied().enumerate() {
            let karn_clean = !flow.slot_retransmitted(slot);
            prop_assert_eq!(
                karn_clean, !fired_any,
                "slot {} retransmit flag must match the timer round", i
            );
            if let Some(sample) = flow.on_ack(slot, fire_at + 10) {
                if karn_clean {
                    estimator.on_sample(sample);
                    clean_samples += 1;
                }
            }
        }
        if fired_any {
            prop_assert_eq!(
                estimator.samples(), 0,
                "no retransmitted slot may ever feed the estimator"
            );
        } else {
            prop_assert_eq!(estimator.samples(), clean_samples);
        }
    }

    /// `set_rto_initial` (the estimator→timer coupling) keeps the armed
    /// timeout within `[1, rto_max]` no matter what the estimator says.
    #[test]
    fn adapted_rto_stays_within_timer_clamp(
        rto_max in 1u64..1_000_000,
        adapted in any::<u64>(),
    ) {
        let cfg = RetransmitConfig {
            rto_initial: rto_max.clamp(1, 2_048),
            rto_max,
            retry_budget: 4,
        };
        let mut flow = SenderFlow::new(4, cfg, 1);
        flow.set_rto_initial(adapted);
        prop_assert!(flow.rto_initial() >= 1 && flow.rto_initial() <= rto_max);
    }

    /// The jitter seed derivation is a pure function of (run seed, node):
    /// two OS processes handed the same run seed derive identical per-node
    /// jitter streams, and distinct nodes decorrelate.
    #[test]
    fn jitter_seed_deterministic_across_processes(seed in any::<u64>(), node in any::<u16>()) {
        // "Process A" and "process B" compute independently.
        prop_assert_eq!(derive_jitter_seed(seed, node), derive_jitter_seed(seed, node));
        prop_assert_ne!(derive_jitter_seed(seed, node), derive_jitter_seed(seed, node.wrapping_add(1)));
        prop_assert_ne!(derive_jitter_seed(seed, node), derive_jitter_seed(seed.wrapping_add(1), node));
    }

    /// Two sender flows seeded identically replay identical retransmit
    /// schedules — the backoff jitter is deterministic — and the fail
    /// escalation point (retry budget) is identical too.
    #[test]
    fn backoff_schedule_replays_identically(
        seed in any::<u64>(),
        node in any::<u16>(),
        rto in 8u64..512,
        steps in 2u64..40,
    ) {
        let cfg = RetransmitConfig {
            rto_initial: rto,
            rto_max: rto * 8,
            retry_budget: 4,
        };
        let run = |jitter_seed: u64| -> Vec<(u64, Vec<u16>, Vec<u16>)> {
            let mut flow = SenderFlow::new(4, cfg, jitter_seed);
            for _ in 0..4 {
                flow.begin_send(0).unwrap();
            }
            let mut log = Vec::new();
            for step in 1..=steps {
                let now = step * rto;
                let mut fired = Vec::new();
                let mut failed = Vec::new();
                flow.fire_timers(now, |s| fired.push(s), |s| failed.push(s));
                log.push((now, fired, failed));
            }
            log
        };
        let jitter = derive_jitter_seed(seed, node);
        prop_assert_eq!(run(jitter), run(jitter), "same seed, same schedule");
    }
}

/// Wire-format byte-order round-trip across a real socket boundary:
/// random frames encode on one socket, decode identically off the other.
/// (Kept out of the `proptest!` block only to bind the sockets once.)
#[test]
fn wire_format_round_trips_across_socket_boundary() {
    use bytes::Bytes;
    use fm_core::{HandlerId, NodeId, WireFrame, FM_FRAME_MAX};
    use std::net::UdpSocket;

    let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    rx.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let dst = rx.local_addr().unwrap();

    proptest::run_cases("wire_format_round_trips_across_socket_boundary", |rng| {
        let mut frame = WireFrame::data(
            NodeId(any::<u16>().generate(rng)),
            NodeId(any::<u16>().generate(rng)),
            HandlerId(any::<u16>().generate(rng)),
            any::<u16>().generate(rng),
            any::<u32>().generate(rng),
            Bytes::from(proptest::collection::vec(any::<u8>(), 0..=128).generate(rng)),
        );
        // The piggyback area: a full first acked seq, then up to three
        // 16-bit deltas from it, each of the whole i16 range.
        let first = any::<u32>().generate(rng);
        let deltas = proptest::collection::vec(any::<i16>(), 0..=3).generate(rng);
        let acks: Vec<u32> = std::iter::once(first)
            .chain(deltas.iter().map(|&d| first.wrapping_add(d as u32)))
            .collect();
        frame.head.piggy = fm_core::frame::PiggyAcks::from_prefix(&acks);
        assert_eq!(frame.head.piggy.len(), acks.len());

        let mut buf = [0u8; FM_FRAME_MAX];
        let n = frame.encode_into(&mut buf);
        tx.send_to(&buf[..n], dst).unwrap();
        let mut rbuf = [0u8; FM_FRAME_MAX];
        let (got, _) = rx.recv_from(&mut rbuf).unwrap();
        prop_assert_eq!(got, n, "datagram length preserved");
        let decoded =
            WireFrame::decode_slice(&rbuf[..got]).map_err(|e| format!("decode failed: {e:?}"))?;
        prop_assert_eq!(decoded, frame, "socket round-trip must be lossless");
        Ok(())
    });
}
