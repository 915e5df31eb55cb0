use super::super::testkit::*;
use super::super::{EndpointConfig, EndpointCore};
use crate::handler::HandlerId;
use fm_myrinet::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn full_ring_bounces_and_retransmission_recovers() {
    let mut a = EndpointCore::new(NodeId(0), EndpointConfig::default());
    let mut b = EndpointCore::new(
        NodeId(1),
        EndpointConfig {
            recv_ring: 4,
            ..Default::default()
        },
    );
    let delivered = Arc::new(AtomicU64::new(0));
    let d2 = delivered.clone();
    let hid = b.register_handler(Box::new(move |_, _, data| {
        // In order, and the bounced frame's bytes survived the trip.
        assert_eq!(data, [d2.fetch_add(1, Ordering::SeqCst) as u8]);
    }));
    // Send 10 frames into a 4-deep ring without extracting. Seqs 0-3
    // fill the ring; seq 4 is next-in-order but finds the ring full and
    // bounces; seqs 5-9 are ahead of the in-order point, so the reorder
    // window buffers and acks them for delivery once 4 lands.
    for i in 0..10u8 {
        a.try_send(NodeId(1), hid, [i]).unwrap();
    }
    pump(&mut a, &mut b);
    assert_eq!(b.stats().rejected, 1);
    assert_eq!(a.stats().bounced, 1);
    assert_eq!(b.recv_buffered(), 5);
    // Drain and retransmit until everything lands.
    let mut rounds = 0;
    while delivered.load(Ordering::SeqCst) < 10 {
        b.extract(usize::MAX);
        a.extract(usize::MAX); // paces retransmissions
        pump(&mut a, &mut b);
        rounds += 1;
        assert!(rounds < 50, "no progress: {:?} / {:?}", a, b);
    }
    // The bounced in-order frame must have been retransmitted.
    assert!(a.stats().retransmitted >= 1);
    pump(&mut a, &mut b);
    b.extract(usize::MAX);
    a.extract(usize::MAX);
    pump(&mut a, &mut b);
    assert!(a.is_quiescent(), "{a:?}");
    assert!(b.is_quiescent(), "{b:?}");
}

#[test]
fn handler_reply_from_handler() {
    let (mut a, mut b) = pair();
    let got_reply = Arc::new(AtomicU64::new(0));
    let g2 = got_reply.clone();
    let reply_h = a.register_handler(Box::new(move |_, src, data| {
        assert_eq!(src, NodeId(1));
        assert_eq!(data, b"pong");
        g2.fetch_add(1, Ordering::SeqCst);
    }));
    // b's handler replies to the sender — the Active-Messages idiom.
    let ping_h = b.register_handler(Box::new(move |out, src, _| {
        out.send(src, reply_h, &b"pong"[..]);
    }));
    assert_eq!(ping_h, reply_h, "both registries assign id 1 here");
    a.try_send(NodeId(1), ping_h, b"ping").unwrap();
    pump(&mut a, &mut b);
    b.extract(usize::MAX);
    pump(&mut a, &mut b);
    a.extract(usize::MAX);
    assert_eq!(got_reply.load(Ordering::SeqCst), 1);
}

#[test]
fn unknown_handler_counted_not_fatal() {
    let (mut a, mut b) = pair();
    a.try_send(NodeId(1), HandlerId(77), b"?").unwrap();
    pump(&mut a, &mut b);
    assert_eq!(b.extract(usize::MAX), 0);
    assert_eq!(b.stats().unknown_handler, 1);
    // Still acked: sender's slot frees.
    pump(&mut a, &mut b);
    assert_eq!(a.outstanding(), 0);
}

/// Delivery happens in the ring slot; every way a delivery can end —
/// handler returns, handler panics, no handler — must give the slot
/// (and the source's share of the ring) back.
#[test]
fn every_kind_of_delivery_releases_its_ring_slot() {
    let (mut a, mut b) = pair();
    let seen = Arc::new(AtomicU64::new(0));
    let s2 = seen.clone();
    let good = b.register_handler(Box::new(move |_, _, data| {
        s2.fetch_add(data[0] as u64, Ordering::SeqCst);
    }));
    let bad = b.register_handler(Box::new(|out, src, _| {
        out.send(src, HandlerId(1), &b"must not escape"[..]);
        panic!("handler bug");
    }));
    let unknown = HandlerId(77);
    for (i, h) in [bad, good, unknown, good, bad, good]
        .into_iter()
        .enumerate()
    {
        a.try_send(NodeId(1), h, [1 << i]).unwrap();
    }
    pump(&mut a, &mut b);
    assert_eq!(b.pending_extract(), 6);
    assert_eq!(b.ring_share[0], 6);
    for left in (0..6).rev() {
        // A failed delivery uses no budget, so one call may retire two.
        b.extract(1);
        assert!(b.pending_extract() <= left, "slot {left} not released");
    }
    assert_eq!(b.pending_extract(), 0);
    assert_eq!(b.ring_share[0], 0, "share ledger balanced");
    let stats = b.stats();
    // The second `bad` frame found the handler gone.
    assert_eq!(
        (stats.delivered, stats.handler_panics, stats.unknown_handler),
        (3, 1, 2)
    );
    assert_eq!(seen.load(Ordering::SeqCst), 0b101010);
    assert!(
        std::iter::from_fn(|| b.pop_outgoing()).all(|f| f.head.kind == FrameKind::Ack),
        "a panicking handler's sends are discarded"
    );
}

#[test]
fn a_handler_sending_to_its_own_node_finds_its_ring_slot_free() {
    // recv_ring 1: the loopback send a handler issues is flushed after
    // the delivery released the only slot, so it is accepted.
    let mut a = EndpointCore::new(
        NodeId(0),
        EndpointConfig {
            recv_ring: 1,
            ..Default::default()
        },
    );
    let hops = Arc::new(AtomicU64::new(0));
    let h2 = hops.clone();
    a.register_handler_at(
        HandlerId(1),
        Box::new(move |out, me, _| {
            if h2.fetch_add(1, Ordering::SeqCst) < 3 {
                out.send(me, HandlerId(1), &b"again"[..]);
            }
        }),
    );
    a.try_send(NodeId(0), HandlerId(1), b"go").unwrap();
    assert_eq!(a.extract(usize::MAX), 4);
    assert_eq!(a.stats().deferred_sends, 0);
    assert!(a.is_quiescent());
}

#[test]
fn a_deferred_send_to_its_own_node_loops_back_once_the_ring_has_room() {
    // recv_ring 1: of the two messages a handler sends its own node,
    // the second finds the ring full and is deferred. It must wait for
    // ring space, not leave as a network frame addressed to itself
    // (which no wire delivers: its timer would declare this node dead).
    let mut a = EndpointCore::new(
        NodeId(0),
        EndpointConfig {
            recv_ring: 1,
            rto_initial: 8,
            rto_max: 8,
            retry_budget: 4,
            ..Default::default()
        },
    );
    let got = Arc::new(AtomicU64::new(0));
    let g = got.clone();
    a.register_handler_at(
        HandlerId(1),
        Box::new(move |out, me, data| {
            g.fetch_add(1, Ordering::SeqCst);
            if data == b"go" {
                out.send(me, HandlerId(1), &b"one"[..]);
                out.send(me, HandlerId(1), &b"two"[..]);
            }
        }),
    );
    a.try_send(NodeId(0), HandlerId(1), b"go").unwrap();
    for _ in 0..64 {
        a.extract(usize::MAX);
        assert_eq!(a.outgoing_len(), 0, "nothing for the wire");
    }
    assert_eq!(got.load(Ordering::SeqCst), 3);
    let stats = a.stats();
    assert_eq!((stats.deferred_sends, stats.loopback), (1, 3));
    assert_eq!((stats.sent, stats.timer_retransmits), (0, 0));
    assert!(!a.is_dead(NodeId(0)));
    assert!(a.is_quiescent(), "{a:?}");
}

#[test]
fn a_handler_send_to_a_dead_peer_is_an_unreachable_drop_not_a_deferral() {
    let mut a = EndpointCore::new(NodeId(0), EndpointConfig::default());
    a.register_handler_at(
        HandlerId(1),
        Box::new(|out, _, _| out.send(NodeId(1), HandlerId(1), &b"lost"[..])),
    );
    a.mark_dead(NodeId(1));
    a.try_send(NodeId(0), HandlerId(1), b"go").unwrap();
    assert_eq!(a.extract(usize::MAX), 1);
    let stats = a.stats();
    assert_eq!((stats.deferred_sends, stats.unreachable_drops), (0, 1));
    assert!(a.is_quiescent(), "{a:?}");
}

#[test]
fn extract_budget_limits_deliveries() {
    let (mut a, mut b) = pair();
    let hid = b.register_handler(Box::new(|_, _, _| {}));
    for _ in 0..5 {
        a.try_send(NodeId(1), hid, [0]).unwrap();
    }
    pump(&mut a, &mut b);
    assert_eq!(b.extract(2), 2);
    assert_eq!(b.pending_extract(), 3);
    assert_eq!(b.extract(usize::MAX), 3);
}

/// `b`'s in-order point for frames from node 0.
fn next_expected(b: &EndpointCore) -> u32 {
    b.recv_windows.first().map_or(0, |w| w.next_expected())
}

/// [`pump`], checking every frame on its way: a data frame lies at
/// most `reorder_window` past `b`'s in-order point when `b` gets it.
/// Returns how many of `b`'s bounces carried a frame past that point.
fn pump_checked(a: &mut EndpointCore, b: &mut EndpointCore) -> usize {
    let lookahead = b.config.reorder_window as i32;
    let mut past = 0;
    loop {
        let mut moved = false;
        while let Some(f) = a.pop_outgoing() {
            moved = true;
            let ahead = f.head.seq.wrapping_sub(next_expected(b)) as i32;
            if f.head.kind == FrameKind::Data {
                assert!(ahead <= lookahead, "seq {} is {ahead} ahead", f.head.seq);
            }
            b.on_wire(f);
        }
        while let Some(f) = b.pop_outgoing() {
            moved = true;
            let ahead = f.head.seq.wrapping_sub(next_expected(b)) as i32;
            past += (f.head.kind == FrameKind::Return && ahead > 0) as usize;
            a.on_wire(f);
        }
        if !moved {
            return past;
        }
    }
}

/// A receiver with `cfg` whose handler checks that node 0's messages
/// arrive numbered 0, 1, 2, ..., and the count it has seen.
fn counting_receiver(cfg: EndpointConfig) -> (EndpointCore, HandlerId, Arc<AtomicU64>) {
    let mut b = EndpointCore::new(NodeId(1), cfg);
    let got = Arc::new(AtomicU64::new(0));
    let g = got.clone();
    let hid = b.register_handler(Box::new(move |_, _, data| {
        let want = g.fetch_add(1, Ordering::SeqCst) as u32;
        assert_eq!(data, want.to_le_bytes(), "exactly once, in order");
    }));
    (b, hid, got)
}

/// Send what the window takes of `msgs` numbered messages.
fn send_numbered(a: &mut EndpointCore, hid: HandlerId, sent: &mut u32, msgs: u32) {
    while *sent < msgs && a.try_send(NodeId(1), hid, sent.to_le_bytes()).is_ok() {
        *sent += 1;
    }
}

/// Stream `msgs` messages over a lossless pair with `cfg` into a
/// receiver that extracts one message every fourth round, checking
/// every frame with [`pump_checked`], until both sides are quiescent.
/// Returns the pair and the deepest reorder-ring use seen.
fn slow_receiver_stream(cfg: EndpointConfig, msgs: u32) -> (EndpointCore, EndpointCore, usize) {
    let mut a = EndpointCore::new(NodeId(0), cfg);
    let (mut b, hid, got) = counting_receiver(cfg);
    let (mut sent, mut deepest) = (0, 0);
    for round in 0.. {
        assert!(round < 100_000, "{a:?} {b:?}");
        send_numbered(&mut a, hid, &mut sent, msgs);
        assert_eq!(
            pump_checked(&mut a, &mut b),
            0,
            "bounced past the in-order point"
        );
        deepest = deepest.max(b.recv_windows[0].storage().0);
        if round % 4 == 0 {
            b.extract(1);
        }
        a.extract(usize::MAX);
        if got.load(Ordering::SeqCst) == msgs as u64 && a.is_quiescent() && b.is_quiescent() {
            break;
        }
    }
    (a, b, deepest)
}

#[test]
fn a_sender_never_runs_past_the_lookahead() {
    let (a, b, deepest) = slow_receiver_stream(
        EndpointConfig {
            window: 8,
            reorder_window: 32,
            recv_ring: 1,
            ..Default::default()
        },
        300,
    );
    assert!(deepest > 25, "frames were parked beyond the reach of 24");
    assert!(b.stats().rejected > 0, "in-order bounces still happen");
    assert_eq!(b.stats().rejected, a.stats().bounced);
}

#[test]
fn every_held_frame_is_acked_exactly_once() {
    // Ack reach 24, 0 (window = lookahead) and 12.
    for (window, reorder_window, recv_ring) in [(8, 32, 1), (8, 8, 1), (4, 16, 2)] {
        let cfg = EndpointConfig {
            window,
            reorder_window,
            recv_ring,
            ..Default::default()
        };
        let (a, b, deepest) = slow_receiver_stream(cfg, 200);
        let reach = reorder_window as usize - window;
        assert!(deepest > reach + 1, "{cfg:?}: nothing was held");
        assert_eq!(a.stats().acks_received, a.stats().sent, "{cfg:?}");
        assert_eq!(b.stats().duplicates, 0, "{cfg:?}");
    }
}

#[test]
fn a_resend_of_a_frame_held_beyond_reach_is_bounced_not_acked() {
    // Ack reach 8. With retry budget 8 a silently dropped resend would
    // have its peer declared dead within the stall below.
    let cfg = EndpointConfig {
        window: 8,
        reorder_window: 16,
        recv_ring: 1,
        rto_initial: 4,
        rto_max: 64,
        retry_budget: 8,
        ..Default::default()
    };
    const MSGS: u32 = 64;
    let mut a = EndpointCore::new(NodeId(0), cfg);
    let (mut b, hid, got) = counting_receiver(cfg);
    let mut sent = 0;
    // The receiver stalls: it still takes frames off the wire and
    // sends acks, but delivers nothing.
    let mut held_bounces = 0;
    for _ in 0..10 * cfg.rto_max {
        send_numbered(&mut a, hid, &mut sent, MSGS);
        held_bounces += pump_checked(&mut a, &mut b);
        b.extract(0);
        a.extract(usize::MAX);
    }
    assert!(a.stats().timer_retransmits > 0, "held frames timed out");
    assert!(held_bounces > 0, "and their resends came back");
    assert_eq!(b.stats().duplicates, 0, "none was re-acked");
    assert!(!a.is_dead(NodeId(1)));
    let mut rounds = 0;
    while !(got.load(Ordering::SeqCst) == MSGS as u64 && a.is_quiescent() && b.is_quiescent()) {
        rounds += 1;
        assert!(rounds < 10_000, "{a:?} {b:?}");
        send_numbered(&mut a, hid, &mut sent, MSGS);
        pump_checked(&mut a, &mut b);
        b.extract(usize::MAX);
        a.extract(usize::MAX);
    }
    assert!(!a.is_dead(NodeId(1)));
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!(sb.delivered, MSGS as u64);
    assert_eq!(sb.rejected, sa.bounced);
    assert_eq!(
        sa.retransmitted,
        sa.bounced + sa.timer_retransmits + sa.gap_retransmits
    );
}

#[test]
fn traced_roundtrip_records_span_events() {
    let cfg = EndpointConfig {
        trace_one_in: 1,
        ..Default::default()
    };
    let mut a = EndpointCore::new(NodeId(0), cfg);
    let mut b = EndpointCore::new(NodeId(1), cfg);
    let hid = b.register_handler(Box::new(|_, _, _| {}));
    a.try_send(NodeId(1), hid, b"x").unwrap();
    pump(&mut a, &mut b);
    b.extract(usize::MAX);
    pump(&mut a, &mut b);
    assert_eq!(a.outstanding(), 0);
    let names = |ep: &EndpointCore| -> Vec<&str> {
        ep.telemetry()
            .events()
            .iter()
            .map(|e| e.kind.name())
            .collect()
    };
    let (a_kinds, b_kinds) = (names(&a), names(&b));
    assert!(a_kinds.contains(&"span_send"), "{a_kinds:?}");
    assert!(a_kinds.contains(&"span_ack_in"), "{a_kinds:?}");
    assert!(b_kinds.contains(&"span_wire_in"), "{b_kinds:?}");
    assert!(b_kinds.contains(&"span_ack_out"), "{b_kinds:?}");
    assert!(b_kinds.contains(&"span_handler_start"), "{b_kinds:?}");
    assert!(b_kinds.contains(&"span_handler_end"), "{b_kinds:?}");
    // All spans on both sides agree on the trace id.
    let ids: std::collections::HashSet<u32> = a
        .telemetry()
        .events()
        .iter()
        .chain(b.telemetry().events().iter())
        .filter_map(|e| e.kind.span().map(|(id, _)| id))
        .collect();
    assert_eq!(ids.len(), 1, "one message, one trace id");
}
