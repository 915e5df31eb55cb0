//! The reliability layer over a genuinely lossy wire: real UDP sockets.
//!
//! Every soak in `fault_soak.rs` runs over in-memory rings, where the
//! only losses are the ones the [`fm_core::FaultInjector`] manufactures
//! and time is a deterministic tick. These tests put the same protocol
//! machinery on kernel UDP sockets over loopback: frames really cross
//! the kernel, retransmission timers really run on wall-clock
//! microseconds, and the hello/hello-ack handshake really detects a
//! restarted peer. Loopback rarely loses datagrams on its own, so the
//! seeded injector still composes on top for the fault soak — what the
//! socket adds is real time, real syscall backpressure, and real process
//! lifecycle (a dead port, a peer reborn with a new generation).
//!
//! Unlike the in-memory soaks these runs are *not* bit-reproducible —
//! wall-clock timing is physical — so they assert outcomes (exactly-once,
//! in-order, no wedge, bounded detection) rather than digests.

use fm_core::{
    EndpointConfig, FabricKind, FaultConfig, LinkFaults, MemCluster, MemEndpoint, NodeId, Roster,
    SendError, UdpConfig,
};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock cap per drive loop; generously above anything a healthy
/// run needs, so hitting it means a wedge.
const WEDGE_AFTER: Duration = Duration::from_secs(60);

/// Timer sizing for loopback: RTTs are tens of microseconds, so a 2 ms
/// initial RTO with adaptation on recovers drops quickly, and a 16 ms
/// backoff ceiling keeps dead-peer detection under ~100 ms.
fn udp_config() -> EndpointConfig {
    EndpointConfig {
        window: 32,
        recv_ring: 64,
        rto_max: 1 << 14,
        retry_budget: 32,
        adaptive_rto: true,
        seed: 7,
        ..Default::default()
    }
}

/// Collect `u32` payloads per source, asserting the source id matches.
fn stream_log(ep: &mut MemEndpoint, expect_src: NodeId) -> Arc<Mutex<Vec<u32>>> {
    let log: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let l = log.clone();
    ep.register_handler(move |_, src, data| {
        assert_eq!(src, expect_src);
        l.lock().push(u32::from_le_bytes(data.try_into().unwrap()));
    });
    log
}

/// Two endpoints on their own loopback sockets stream `msgs` sequenced
/// messages at each other until both sides have everything and quiesce.
fn run_udp_soak(msgs: u32, faults: Option<FaultConfig>) -> Vec<MemEndpoint> {
    let mut nodes = MemCluster::with_fabric(2, udp_config(), FabricKind::Udp);
    if let Some(faults) = &faults {
        for ep in &mut nodes {
            ep.inject_faults(faults);
        }
    }
    let mut b = nodes.pop().unwrap();
    let mut a = nodes.pop().unwrap();
    let got_a = stream_log(&mut a, NodeId(1)); // b -> a
    let got_b = stream_log(&mut b, NodeId(0)); // a -> b
    let h = fm_core::HandlerId(1);

    let deadline = Instant::now() + WEDGE_AFTER;
    let mut next_a = 0u32;
    let mut next_b = 0u32;
    loop {
        assert!(
            Instant::now() < deadline,
            "udp soak wedged: a→b {}/{msgs} b→a {}/{msgs}\n a: {a:?}\n b: {b:?}",
            got_b.lock().len(),
            got_a.lock().len(),
        );
        if next_a < msgs {
            if let Ok(()) = a.try_send(NodeId(1), h, &next_a.to_le_bytes()) {
                next_a += 1;
            }
        }
        if next_b < msgs {
            if let Ok(()) = b.try_send(NodeId(0), h, &next_b.to_le_bytes()) {
                next_b += 1;
            }
        }
        a.extract();
        b.extract();
        if next_a == msgs
            && next_b == msgs
            && got_a.lock().len() as u32 >= msgs
            && got_b.lock().len() as u32 >= msgs
            && a.is_quiescent()
            && b.is_quiescent()
        {
            break;
        }
    }

    let expect: Vec<u32> = (0..msgs).collect();
    assert_eq!(*got_a.lock(), expect, "b→a stream exactly-once in-order");
    assert_eq!(*got_b.lock(), expect, "a→b stream exactly-once in-order");
    vec![a, b]
}

#[test]
fn udp_pair_delivers_exactly_once_in_order() {
    let nodes = run_udp_soak(2_000, None);
    for ep in &nodes {
        let wire = ep.udp_stats().unwrap();
        assert!(wire.datagrams_out > 0 && wire.datagrams_in > 0, "{wire:?}");
        // Both directions completed a handshake along the way.
        for peer in [NodeId(0), NodeId(1)] {
            if peer != ep.node_id() {
                assert_eq!(ep.udp_established(peer), Some(true));
            }
        }
        assert_eq!(ep.udp_stats().unwrap().generation_changes, 0);
    }
}

#[test]
fn udp_soak_survives_five_percent_faults() {
    // 5% of frames dropped, duplicated, corrupted and delayed (up to 2 ms
    // — several RTOs, forcing reordering) in each category, both
    // directions. The injector sits above the socket, so the kernel path
    // still carries every surviving frame.
    let lossy = LinkFaults {
        drop: 0.05,
        dup: 0.05,
        corrupt: 0.05,
        delay: 0.05,
        max_delay_ticks: 2_000,
    };
    let faults = FaultConfig {
        default: lossy,
        ..FaultConfig::new(0xF00D)
    };
    let nodes = run_udp_soak(2_000, Some(faults));
    let corrupt: u64 = nodes.iter().map(|ep| ep.stats().corrupt).sum();
    let retransmitted: u64 = nodes.iter().map(|ep| ep.stats().retransmitted).sum();
    assert!(corrupt > 0, "corruption faults must have hit the wire");
    assert!(retransmitted > 0, "drops must have forced retransmissions");
    for ep in &nodes {
        let f = ep.fault_stats().unwrap();
        assert!(
            f.dropped > 0 && f.duplicated > 0 && f.corrupted > 0,
            "{f:?}"
        );
    }
}

#[test]
fn udp_adaptive_rto_tracks_loopback_rtt() {
    let nodes = run_udp_soak(500, None);
    for ep in &nodes {
        let rtt = ep.rtt();
        assert!(rtt.samples() > 0, "clean run must collect RTT samples");
        let srtt = rtt.srtt().unwrap();
        // Loopback round trips are far below the 2048 µs configured
        // initial; the estimator must have tightened the RTO toward them
        // while respecting its clamp floor.
        let (min_rto, max_rto) = rtt.bounds();
        assert!(rtt.rto() >= min_rto && rtt.rto() <= max_rto);
        assert!(
            srtt < 2_048,
            "loopback SRTT should sit well under the initial RTO, got {srtt} µs"
        );
    }
}

/// The churn satellite: kill a peer mid-stream, watch the sender declare
/// it unreachable, restart the peer with a fresh generation, and assert
/// the handshake-triggered reset lets streams resume exactly-once.
#[test]
fn udp_peer_restart_resumes_streams_exactly_once() {
    let h = fm_core::HandlerId(1);
    let mut config = udp_config();
    config.retry_budget = 6; // die fast once the peer is gone

    // B1 first, with an empty roster: it learns A's address from A's
    // hello. Then A, with B1's real address.
    let mut b1 = MemEndpoint::bind_udp(
        NodeId(1),
        UdpConfig::new("127.0.0.1:0".parse().unwrap(), Roster::new(2)),
        config,
    )
    .unwrap();
    let b1_addr = b1.udp_local_addr().unwrap();
    let mut roster_a = Roster::new(2);
    roster_a.set(NodeId(1), b1_addr);
    let mut a = MemEndpoint::bind_udp(
        NodeId(0),
        UdpConfig::new("127.0.0.1:0".parse().unwrap(), roster_a.clone()),
        config,
    )
    .unwrap();
    let a_addr = a.udp_local_addr().unwrap();
    let got_b1 = stream_log(&mut b1, NodeId(0));

    // Epoch 1: A streams 500 messages into B1.
    let deadline = Instant::now() + WEDGE_AFTER;
    let mut sent = 0u32;
    while got_b1.lock().len() < 500 {
        assert!(Instant::now() < deadline, "epoch 1 wedged: {a:?}\n{b1:?}");
        if sent < 500 && a.try_send(NodeId(1), h, &sent.to_le_bytes()).is_ok() {
            sent += 1;
        }
        a.extract();
        b1.extract();
    }
    assert_eq!(*got_b1.lock(), (0..500).collect::<Vec<u32>>());
    let b1_generation = a.udp_peer_generation(NodeId(1)).unwrap();

    // Kill B1: drop it, closing its socket. A's in-flight frames now land
    // on a dead port; the retry budget burns down and the peer dies.
    drop(b1);
    let death = loop {
        assert!(
            Instant::now() < deadline,
            "dead-peer detection wedged: {a:?}"
        );
        match a.send_checked(NodeId(1), h, &sent.to_le_bytes()) {
            Ok(()) => sent += 1,
            Err(SendError::PeerUnreachable(peer)) => {
                assert_eq!(peer, NodeId(1));
                break Instant::now();
            }
            Err(e) => panic!("unexpected send failure: {e}"),
        }
    };
    assert!(a.is_peer_dead(NodeId(1)));
    // Blocking sends must now fail fast, not spin through another budget.
    let t = Instant::now();
    assert!(matches!(
        a.send_checked(NodeId(1), h, &0u32.to_le_bytes()),
        Err(SendError::PeerUnreachable(_))
    ));
    assert!(
        t.elapsed() < Duration::from_millis(100),
        "dead-peer send must fail fast, took {:?}",
        t.elapsed()
    );
    let _ = death;

    // Restart: B2 binds a *new* port with a *new* generation and hellos A
    // (it got A's address in its roster). A must notice the generation
    // change, reset the streams, and clear the dead mark; B2 starts its
    // streams fresh, so both ends are reset.
    let mut roster_b2 = Roster::new(2);
    roster_b2.set(NodeId(0), a_addr);
    let mut b2 = MemEndpoint::bind_udp(
        NodeId(1),
        UdpConfig::new("127.0.0.1:0".parse().unwrap(), roster_b2),
        config,
    )
    .unwrap();
    assert_ne!(b2.udp_generation().unwrap(), b1_generation);
    let got_b2 = stream_log(&mut b2, NodeId(0));
    while a.is_peer_dead(NodeId(1)) {
        assert!(Instant::now() < deadline, "restart handshake wedged: {a:?}");
        a.extract();
        b2.extract();
    }
    assert_ne!(a.udp_peer_generation(NodeId(1)).unwrap(), b1_generation);
    assert_eq!(a.udp_stats().unwrap().generation_changes, 1);
    assert_eq!(a.stats().peer_resets, 1);

    // Epoch 2: the stream restarts from sequence zero and delivers
    // exactly-once again.
    let mut sent2 = 0u32;
    while got_b2.lock().len() < 500 {
        assert!(Instant::now() < deadline, "epoch 2 wedged: {a:?}\n{b2:?}");
        if sent2 < 500
            && a.try_send(NodeId(1), h, &(1_000 + sent2).to_le_bytes())
                .is_ok()
        {
            sent2 += 1;
        }
        a.extract();
        b2.extract();
    }
    assert_eq!(
        *got_b2.lock(),
        (1_000..1_500).collect::<Vec<u32>>(),
        "post-restart stream exactly-once in-order"
    );
}

/// Trace contexts survive the real UDP wire: a sampled send in one
/// endpoint pairs with the wire-in span its frame produced in the other,
/// and a handler-issued reply carries the context one hop deeper — all
/// under 5% composite faults, with zero causal violations after clock
/// alignment.
#[test]
fn trace_contexts_survive_the_udp_wire_under_faults() {
    let lossy = LinkFaults {
        drop: 0.05,
        dup: 0.05,
        corrupt: 0.05,
        delay: 0.05,
        max_delay_ticks: 2_000,
    };
    let faults = FaultConfig {
        default: lossy,
        ..FaultConfig::new(0xBEA0)
    };
    let mut config = udp_config();
    config.trace_one_in = 1; // sample every fresh send
    let mut nodes = MemCluster::with_fabric(2, config, FabricKind::Udp);
    for ep in &mut nodes {
        ep.inject_faults(&faults);
    }
    let mut b = nodes.pop().unwrap();
    let mut a = nodes.pop().unwrap();

    // B echoes through the handler Outbox, so the reply frame inherits
    // the incoming trace context one hop deeper.
    let h = fm_core::HandlerId(1);
    b.register_handler(move |out, src, data| {
        out.send_copy(src, h, data);
    });
    let replies: Arc<Mutex<u32>> = Arc::new(Mutex::new(0));
    let r = replies.clone();
    a.register_handler(move |_, src, _| {
        assert_eq!(src, NodeId(1));
        *r.lock() += 1;
    });

    const MSGS: u32 = 300;
    let deadline = Instant::now() + WEDGE_AFTER;
    let mut sent = 0u32;
    loop {
        assert!(
            Instant::now() < deadline,
            "traced echo soak wedged at {}/{MSGS} replies",
            *replies.lock()
        );
        if sent < MSGS && a.try_send(NodeId(1), h, &sent.to_le_bytes()).is_ok() {
            sent += 1;
        }
        a.extract();
        b.extract();
        if sent == MSGS && *replies.lock() >= MSGS && a.is_quiescent() && b.is_quiescent() {
            break;
        }
    }

    let report = fm_telemetry::merge::merge(&[a.telemetry().events(), b.telemetry().events()]);
    assert!(
        report.flow_pairs() > 0,
        "sampled sends must pair with their receive spans across the wire \
         (orphans: {} sends, {} receives)",
        report.orphan_sends,
        report.orphan_receives
    );
    assert!(
        report.flows.iter().any(|f| f.hop >= 1),
        "echo replies must carry the trace context one hop deeper"
    );
    assert_eq!(
        report.causal_violations, 0,
        "aligned receive spans must not precede their sends"
    );
    // Both directions of the echo appear: A-origin hop-0 crossings and
    // B-origin hop-1 crossings.
    assert!(report
        .flows
        .iter()
        .any(|f| f.src == 0 && f.dst == 1 && f.hop == 0));
    assert!(report
        .flows
        .iter()
        .any(|f| f.src == 1 && f.dst == 0 && f.hop == 1));
}

/// A reply carries its ack: an inline ping-pong puts only its pings and
/// echoes on the wire, each echo's ack riding the next ping.
#[test]
fn udp_ping_pong_sends_two_datagrams_per_round() {
    const ROUNDS: u64 = 1_000;
    let mut nodes = MemCluster::with_fabric(2, udp_config(), FabricKind::Udp);
    let mut b = nodes.pop().unwrap();
    let mut a = nodes.pop().unwrap();
    let echoes = Arc::new(Mutex::new(0u64));
    let e = echoes.clone();
    let echo = a.register_handler(move |_, _, _| *e.lock() += 1);
    let ping = b.register_handler(move |out, src, data| out.send_copy(src, echo, data));
    let deadline = Instant::now() + WEDGE_AFTER;
    while a.udp_established(NodeId(1)) != Some(true) || b.udp_established(NodeId(0)) != Some(true) {
        assert!(Instant::now() < deadline, "handshake never completed");
        b.extract();
        a.extract();
    }
    let datagrams = |a: &MemEndpoint, b: &MemEndpoint| {
        a.udp_stats().unwrap().datagrams_out + b.udp_stats().unwrap().datagrams_out
    };
    let before = datagrams(&a, &b);
    for round in 1..=ROUNDS {
        a.send(NodeId(1), ping, &(round as u32).to_le_bytes());
        while *echoes.lock() < round {
            assert!(Instant::now() < deadline, "wedged at round {round}");
            b.extract();
            a.extract();
        }
    }
    let sent = datagrams(&a, &b) - before;
    assert!(sent <= 2 * ROUNDS, "{sent} datagrams for {ROUNDS} rounds");
    for ep in [&a, &b] {
        assert_eq!(ep.stats().retransmitted, 0, "{ep:?}");
    }
}

/// The wire format crosses a real socket boundary byte-identically: what
/// `encode_into` wrote on one socket, `decode_slice` reconstructs on the
/// other, field for field.
#[test]
fn wire_frame_round_trips_across_a_socket() {
    use bytes::Bytes;
    use fm_core::{WireFrame, FM_FRAME_MAX};
    use std::net::UdpSocket;

    let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    rx.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let dst = rx.local_addr().unwrap();

    // A spread of shapes: empty, one byte, full payload, every-byte-value.
    let payloads: Vec<Vec<u8>> = vec![vec![], vec![0xA5], (0..128u8).collect(), vec![0xFF; 128]];
    for (i, payload) in payloads.into_iter().enumerate() {
        let mut frame = WireFrame::data(
            NodeId(3),
            NodeId(9),
            fm_core::HandlerId(i as u16),
            (i * 7) as u16,
            0xDEAD_0000 + i as u32,
            Bytes::from(payload),
        );
        // The piggyback area: i + 1 acks, across the seq wrap and at both
        // ends of the 16-bit delta range.
        let first = u32::MAX - i as u32;
        let acks = [
            first,
            first.wrapping_add(32_767),
            first.wrapping_sub(32_768),
            first.wrapping_add(1),
        ];
        frame.head.piggy = fm_core::frame::PiggyAcks::from_prefix(&acks[..=i]);
        assert_eq!(frame.head.piggy.len(), i + 1);

        let mut buf = [0u8; FM_FRAME_MAX];
        let n = frame.encode_into(&mut buf);
        tx.send_to(&buf[..n], dst).unwrap();

        let mut rbuf = [0u8; FM_FRAME_MAX];
        let (got, _) = rx.recv_from(&mut rbuf).unwrap();
        assert_eq!(got, n, "datagram length preserved");
        let decoded = WireFrame::decode_slice(&rbuf[..got]).unwrap();
        assert_eq!(decoded, frame, "socket round-trip must be lossless");
    }
}

/// A datagram that is not an FM frame (first byte anything but `0xF2`) and
/// not a control packet reaches the frame sink, is refused by the one
/// decoder, and is visible to every export path as a gauge — without
/// being mistaken for wire corruption or delivered.
#[test]
fn stray_datagram_surfaces_as_codec_error_gauge() {
    let mut nodes = MemCluster::with_fabric(2, udp_config(), FabricKind::Udp);
    let _b = nodes.pop().unwrap(); // keeps node 1's port bound
    let mut a = nodes.pop().unwrap();
    let stray = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    stray
        .send_to(&[0x00; 40], a.udp_local_addr().unwrap())
        .unwrap();

    let deadline = Instant::now() + WEDGE_AFTER;
    while a.codec_errors == 0 {
        assert!(
            Instant::now() < deadline,
            "stray datagram never arrived: {a:?}"
        );
        a.extract();
    }
    let gauges = a.observability_gauges();
    let gauge = |name: &str| gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    assert!(gauge("codec_errors") >= Some(1), "{gauges:?}");
    assert_eq!(gauge("large_handler_panics"), Some(0));
    assert_eq!(a.stats().corrupt, 0, "not a CRC failure");
    assert_eq!(a.stats().delivered, 0);
}

/// A well-formed, CRC-valid frame that is not a peer's frame for this node
/// — addressed to another node, or from a source outside the cluster — is
/// a stray too: counted with the codec errors and dropped, never
/// delivered, acked or parked.
#[test]
fn stray_frames_for_another_node_or_from_outside_the_cluster_are_dropped() {
    use fm_core::WireFrame;

    let mut nodes = MemCluster::with_fabric(2, udp_config(), FabricKind::Udp);
    let _b = nodes.pop().unwrap(); // keeps node 1's port bound
    let mut a = nodes.pop().unwrap();
    let h = a.register_handler(|_, _, _| {});
    let stray = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    // Peer 1's seq 0 addressed to node 7, then node 60 000's seq 5.
    for (src, dst, seq) in [(1, 7, 0), (60_000, 0, 5)] {
        let frame = WireFrame::data(NodeId(src), NodeId(dst), h, 0, seq, Default::default());
        let addr = a.udp_local_addr().unwrap();
        stray.send_to(&frame.encode(), addr).unwrap();
    }
    let deadline = Instant::now() + WEDGE_AFTER;
    while a.udp_stats().unwrap().datagrams_in < 2 {
        assert!(Instant::now() < deadline, "strays never arrived: {a:?}");
        a.extract();
    }
    for _ in 0..64 {
        a.extract(); // any ack the frames earned would leave by now
    }
    assert_eq!(a.codec_errors, 2);
    assert!(a.is_quiescent(), "{a:?}");
    assert_eq!((a.stats().ack_frames_sent, a.stats().delivered), (0, 0));
}

/// A peer speaking a different control-protocol version is counted and
/// ignored — never "established", never resetting anything.
#[test]
fn udp_rejects_foreign_control_versions() {
    use std::net::UdpSocket;

    let mut a = MemEndpoint::bind_udp(
        NodeId(0),
        UdpConfig::new("127.0.0.1:0".parse().unwrap(), Roster::new(2)),
        udp_config(),
    )
    .unwrap();
    let a_addr = a.udp_local_addr().unwrap();
    let alien = UdpSocket::bind("127.0.0.1:0").unwrap();

    // A version-bumped hello, CRC valid — the version gate must reject it.
    let mut ctrl = [0u8; 16];
    ctrl[0] = 0xE7;
    ctrl[1] = fm_core::UDP_PROTO_VERSION + 1;
    ctrl[2] = 0; // hello
    ctrl[4..6].copy_from_slice(&1u16.to_le_bytes());
    ctrl[8..12].copy_from_slice(&77u32.to_le_bytes());
    let crc = fm_core::crc32(&ctrl[..12]).to_le_bytes();
    ctrl[12..16].copy_from_slice(&crc);
    alien.send_to(&ctrl, a_addr).unwrap();

    // And a truncated control datagram, which must be counted malformed.
    alien.send_to(&ctrl[..9], a_addr).unwrap();

    let deadline = Instant::now() + WEDGE_AFTER;
    loop {
        a.extract();
        let wire = a.udp_stats().unwrap();
        if wire.version_mismatch >= 1 && wire.malformed_ctrl >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "control datagrams never arrived");
        std::thread::yield_now();
    }
    assert_eq!(a.udp_established(NodeId(1)), Some(false));
    assert_eq!(a.udp_stats().unwrap().generation_changes, 0);
    assert_eq!(a.stats().peer_resets, 0);
}
