//! Property-based tests (proptest) on the protocol's core data structures
//! and invariants, spanning crates.

use bytes::Bytes;
use fm_core::frame::{FrameHeader, FrameKind, PiggyAcks, WireFrame};
use fm_core::queues::{CounterPair, PacketRing, RejectQueue};
use fm_core::seg::{fragment, Reassembly, FRAG_DATA};
use fm_core::{EndpointConfig, EndpointCore, HandlerId, NodeId};
use proptest::prelude::*;

/// The acks for `base` and, after it, `base + delta` for each of the rest
/// of `deltas` (at most [`fm_core::frame::PIGGY_MAX`] in all): a set one
/// frame carries.
fn piggy_acks(base: u32, deltas: &[i16]) -> PiggyAcks {
    let mut seqs: Vec<u32> = deltas
        .iter()
        .map(|&d| base.wrapping_add(d as u32))
        .collect();
    if let Some(first) = seqs.first_mut() {
        *first = base;
    }
    let acks = PiggyAcks::from_prefix(&seqs);
    assert_eq!(acks.len(), seqs.len(), "{seqs:?} fit one frame");
    acks
}

proptest! {
    /// Frame codec: encode/decode is the identity for every valid frame.
    #[test]
    fn codec_roundtrip(
        kind in 0u8..3,
        src in 0u16..1024,
        dst in 0u16..1024,
        handler in any::<u16>(),
        slot in any::<u16>(),
        seq in any::<u32>(),
        ack_base in any::<u32>(),
        ack_deltas in proptest::collection::vec(any::<i16>(), 0..=4),
        payload in proptest::collection::vec(any::<u8>(), 0..=128),
    ) {
        let mut f = WireFrame::data(
            NodeId(src), NodeId(dst), HandlerId(handler), slot, seq,
            Bytes::from(payload),
        );
        f.head.kind = match kind { 0 => FrameKind::Data, 1 => FrameKind::Return, _ => FrameKind::Ack };
        f.head.piggy = piggy_acks(ack_base, &ack_deltas);
        let decoded = WireFrame::decode(&f.encode()).expect("own encoding decodes");
        prop_assert_eq!(decoded, f);
    }

    /// Decoding arbitrary bytes never panics — it returns Ok or a typed
    /// error.
    #[test]
    fn codec_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = WireFrame::decode(&Bytes::from(bytes));
    }

    /// Truncating a valid encoding is always detected.
    #[test]
    fn codec_detects_truncation(
        payload in proptest::collection::vec(any::<u8>(), 1..=128),
        cut in 1usize..10,
    ) {
        let f = WireFrame::data(NodeId(0), NodeId(1), HandlerId(2), 3, 4, Bytes::from(payload));
        let enc = f.encode();
        let cut = cut.min(enc.len());
        let short = enc.slice(..enc.len() - cut);
        prop_assert!(WireFrame::decode(&short).is_err());
    }

    /// Segmentation: fragment then reassemble in order yields the
    /// original message. The receive window delivers each source's frames
    /// in order, so reassembly takes them in no other: a shuffled order
    /// completes nothing, and leaves at most one partial message open.
    #[test]
    fn seg_roundtrip_any_order(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        seed in any::<u64>(),
    ) {
        let frags = fragment(7, HandlerId(3), &data);
        prop_assert!(frags.iter().all(|f| f.len() <= 128));
        prop_assert_eq!(frags.len(), data.len().div_ceil(FRAG_DATA).max(1));
        let mut r = Reassembly::new();
        let mut out = None;
        for (i, frag) in frags.iter().enumerate() {
            let res = r.on_fragment(NodeId(5), frag).expect("the next fragment");
            if i + 1 < frags.len() {
                prop_assert!(res.is_none(), "completed early");
            } else {
                out = res;
            }
        }
        prop_assert_eq!(out, Some((HandlerId(3), data)));

        let mut order: Vec<usize> = (0..frags.len()).collect();
        let mut rng = fm_des::rng::Xoshiro256::seed_from_u64(seed);
        rng.shuffle(&mut order);
        let in_order = order.iter().enumerate().all(|(i, &idx)| i == idx);
        let mut completed = 0;
        for &idx in &order {
            completed += matches!(r.on_fragment(NodeId(5), &frags[idx]), Ok(Some(_))) as u32;
            prop_assert!(r.in_progress() <= 1);
        }
        prop_assert_eq!(completed, in_order as u32);
    }

    /// CounterPair occupancy invariant holds under arbitrary operation
    /// sequences, and the ring it coordinates behaves as a FIFO.
    #[test]
    fn ring_matches_vecdeque_model(
        depth in 1usize..16,
        ops in proptest::collection::vec(any::<bool>(), 0..500),
    ) {
        let mut ring: PacketRing<u32> = PacketRing::new(depth);
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut next = 0u32;
        for push in ops {
            if push {
                let ok = ring.push_with(|slot| *slot = next);
                if model.len() < depth {
                    prop_assert!(ok);
                    model.push_back(next);
                    next += 1;
                } else {
                    prop_assert!(!ok, "ring accepted beyond depth");
                }
            } else {
                prop_assert_eq!(ring.peek(), model.front());
                prop_assert_eq!(ring.release(), model.pop_front().is_some());
            }
            prop_assert_eq!(ring.len(), model.len());
            let c: CounterPair = ring.counters();
            prop_assert!(c.occupancy() <= depth as u64);
        }
        // Drain and compare the tails.
        while let Some(&v) = ring.peek() {
            prop_assert_eq!(Some(v), model.pop_front());
            ring.release();
        }
        prop_assert!(model.is_empty());
    }

    /// The reject queue as the endpoint drives it, acks and returns naming
    /// frames by sequence number: under arbitrary send/ack/bounce/
    /// retransmit traffic, outstanding never exceeds the window; an ack
    /// frees exactly the in-flight frame it names, once — a double ack, an
    /// ack for a seq never sent, and an ack from a node the frame was not
    /// sent to free nothing and count as stale; a return is refused unless
    /// its slot holds the frame with its seq; and bounced frames come back
    /// for retransmission in bounce order. (Timers are kept out of the
    /// picture with an astronomically large RTO.)
    #[test]
    fn reject_queue_model(
        cap in 1usize..12,
        ops in proptest::collection::vec(0u8..5, 0..400),
    ) {
        use std::collections::{BTreeSet, HashMap, VecDeque};
        const RTO: u64 = 1 << 40;
        let peer = NodeId(1);
        let mut a = EndpointCore::new(NodeId(0), EndpointConfig {
            window: cap,
            rto_initial: RTO,
            rto_max: RTO,
            retransmit_per_extract: usize::MAX,
            ..Default::default()
        });
        let ack = |a: &mut EndpointCore, from: NodeId, seq: u32| {
            let acks = PiggyAcks::from_prefix(&[seq]);
            a.on_frame(&FrameHeader::ack(from, NodeId(0), acks), &[]);
        };
        let mut slot_of: HashMap<u32, u16> = HashMap::new();
        let mut in_flight: BTreeSet<u32> = BTreeSet::new();
        let mut returned: VecDeque<u32> = VecDeque::new();
        let (mut next_seq, mut stale) = (0u32, 0u64);
        for op in ops {
            match op {
                0 => match a.try_send(peer, HandlerId(1), [op]) {
                    Ok(()) => {
                        prop_assert!(in_flight.len() + returned.len() < cap);
                        let f = a.pop_outgoing().expect("the fresh frame");
                        prop_assert_eq!(f.head.seq, next_seq);
                        slot_of.insert(next_seq, f.head.slot);
                        in_flight.insert(next_seq);
                        next_seq += 1;
                    }
                    Err(_) => prop_assert_eq!(in_flight.len() + returned.len(), cap),
                },
                1 => {
                    // Ack the oldest in-flight frame, then again.
                    if let Some(seq) = in_flight.pop_first() {
                        ack(&mut a, peer, seq);
                        ack(&mut a, peer, seq);
                        stale += 1;
                    }
                }
                2 => {
                    // Acks naming no outstanding frame of this peer's.
                    ack(&mut a, peer, next_seq);
                    stale += 1;
                    if let Some(&seq) = in_flight.first() {
                        ack(&mut a, NodeId(2), seq);
                        stale += 1;
                    }
                }
                3 => {
                    // Bounce the newest in-flight frame: first as a return
                    // whose seq does not match its slot's frame, then as
                    // itself.
                    if let Some(seq) = in_flight.pop_last() {
                        let slot = slot_of[&seq];
                        let bounced = a.stats().bounced;
                        let mut head = FrameHeader::data(NodeId(0), peer, HandlerId(1), slot, seq + 1)
                            .into_return();
                        a.on_frame(&head, &[]);
                        prop_assert_eq!(a.stats().bounced, bounced, "mismatched return parked");
                        head.seq = seq;
                        a.on_frame(&head, &[]);
                        prop_assert_eq!(a.stats().bounced, bounced + 1);
                        // Parked, it is outstanding but not acked.
                        ack(&mut a, peer, seq);
                        returned.push_back(seq);
                    }
                }
                _ => {
                    a.extract(0);
                    let resent: Vec<u32> =
                        std::iter::from_fn(|| a.pop_outgoing()).map(|f| f.head.seq).collect();
                    prop_assert_eq!(&resent, &Vec::from(std::mem::take(&mut returned)));
                    in_flight.extend(resent);
                }
            }
            prop_assert!(a.outstanding() <= cap);
            prop_assert_eq!(a.outstanding(), in_flight.len() + returned.len());
            prop_assert_eq!(a.stats().stale_acks, stale);
        }
    }

    /// The trajectory simulator is monotone: more bytes never arrive
    /// earlier (latency), and never raise per-packet time below the wire
    /// bound.
    #[test]
    fn sim_latency_monotone(a in 1usize..=300, b in 301usize..=600) {
        use fm_testbed::{run_pingpong, Layer, TestbedConfig};
        let cfg = TestbedConfig::default();
        for layer in [Layer::LanaiStreamed, Layer::Hybrid, Layer::FullFm] {
            let la = run_pingpong(layer, &cfg, a, 3);
            let lb = run_pingpong(layer, &cfg, b, 3);
            prop_assert!(la <= lb, "{layer:?}: l({a})={la} > l({b})={lb}");
        }
    }
}

// ---------------------------------------------------------------------------
// Counter-pair boundaries, reject-queue retransmission, SPSC ring fabric
// ---------------------------------------------------------------------------

proptest! {
    /// CounterPair: under arbitrary produce/consume sequences the occupancy
    /// invariant `0 <= occupancy <= depth` holds, the full/empty boundaries
    /// refuse exactly when they should, and the ring indices always agree
    /// with the model counts modulo depth.
    #[test]
    fn counter_pair_boundaries_model(
        depth in 1usize..12,
        ops in proptest::collection::vec(any::<bool>(), 0..600),
    ) {
        let mut c = CounterPair::new(depth);
        let mut produced = 0u64;
        let mut consumed = 0u64;
        for produce in ops {
            if produce {
                let ok = c.try_produce();
                prop_assert_eq!(ok, produced - consumed < depth as u64, "full boundary");
                if ok { produced += 1; }
            } else {
                let ok = c.try_consume();
                prop_assert_eq!(ok, produced > consumed, "empty boundary");
                if ok { consumed += 1; }
            }
            prop_assert_eq!(c.produced, produced);
            prop_assert_eq!(c.consumed, consumed);
            prop_assert_eq!(c.occupancy(), produced - consumed);
            prop_assert_eq!(c.is_full(), produced - consumed == depth as u64);
            prop_assert_eq!(c.is_empty(), produced == consumed);
            prop_assert_eq!(c.produce_index(), (produced % depth as u64) as usize);
            prop_assert_eq!(c.consume_index(), (consumed % depth as u64) as usize);
        }
    }

    /// CounterPair is translation invariant: a pair whose counters sit many
    /// whole laps deep (as after days of traffic) behaves identically to a
    /// fresh one under the same operation sequence — wraparound of the ring
    /// *indices* never changes any decision.
    #[test]
    fn counter_pair_wraparound_translation_invariant(
        depth in 1usize..10,
        laps in 0u64..1_000_000_000,
        ops in proptest::collection::vec(any::<bool>(), 0..300),
    ) {
        let mut fresh = CounterPair::new(depth);
        let mut deep = CounterPair::new(depth);
        let offset = laps * depth as u64;
        deep.produced += offset;
        deep.consumed += offset;
        for produce in ops {
            if produce {
                prop_assert_eq!(fresh.try_produce(), deep.try_produce());
            } else {
                prop_assert_eq!(fresh.try_consume(), deep.try_consume());
            }
            prop_assert_eq!(fresh.occupancy(), deep.occupancy());
            prop_assert_eq!(fresh.produce_index(), deep.produce_index());
            prop_assert_eq!(fresh.consume_index(), deep.consume_index());
            prop_assert_eq!(deep.produced - fresh.produced, offset);
            prop_assert_eq!(deep.consumed - fresh.consumed, offset);
        }
    }

    /// RejectQueue bounce-and-retransmit: a slot can bounce and be
    /// retransmitted any number of times; every cycle preserves bounce
    /// order, the slot stays outstanding throughout, and after the final
    /// acks the window fully reopens.
    #[test]
    fn reject_queue_bounce_retransmit_cycles(
        cap in 1usize..10,
        want in 1usize..10,
        cycles in proptest::collection::vec(1u8..4, 0..8),
    ) {
        const RTO: u64 = 1 << 40;
        let mut q = RejectQueue::new(cap);
        let live: Vec<u16> = (0..want.min(cap))
            .map(|_| q.reserve(0, RTO).expect("capacity available"))
            .collect();
        for &k in &cycles {
            let k = (k as usize).min(live.len());
            for &slot in &live[..k] {
                prop_assert!(q.bounce(slot));
            }
            prop_assert_eq!(q.returned(), k);
            prop_assert_eq!(q.in_flight(), live.len() - k);
            for &slot in &live[..k] {
                prop_assert_eq!(q.pop_retransmit(0), Some(slot));
            }
            prop_assert!(q.pop_retransmit(0).is_none());
            // Re-bounced or not, every reserved slot stays outstanding.
            prop_assert_eq!(q.outstanding(), live.len());
            prop_assert!(live.iter().all(|&slot| q.holds(slot)));
        }
        for &slot in &live {
            prop_assert!(q.ack(slot));
        }
        prop_assert_eq!(q.outstanding(), 0);
        for _ in 0..cap {
            prop_assert!(q.reserve(0, RTO).is_some(), "window fully reopened");
        }
        prop_assert!(q.reserve(0, RTO).is_none());
    }

    /// The lock-free SPSC ring fabric agrees with a VecDeque model under
    /// arbitrary push / batched-poll interleavings (driven from one thread;
    /// cross-thread agreement is covered by the interleaving and stress
    /// tests in fm-core). Ops < 9 push one frame; op >= 9 polls a batch of
    /// up to `op - 8` frames.
    #[test]
    fn spsc_ring_matches_model(
        depth in 1usize..64,
        ops in proptest::collection::vec(0u8..17, 0..400),
    ) {
        let (mut p, mut c) = fm_core::spsc_ring(depth);
        let cap = c.capacity();
        prop_assert!(cap >= depth && cap.is_power_of_two());
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut next = 0u32;
        for op in ops {
            if op < 9 {
                let bytes = next.to_le_bytes();
                let ok = p.try_push_with(|slot| {
                    slot[..4].copy_from_slice(&bytes);
                    4
                });
                if model.len() < cap {
                    prop_assert!(ok, "ring refused below capacity");
                    model.push_back(next);
                    next += 1;
                } else {
                    prop_assert!(!ok, "ring accepted past capacity");
                }
            } else {
                let max = (op - 8) as usize;
                let mut got = Vec::new();
                let n = c.poll_batch(max, |b| {
                    assert_eq!(b.len(), 4, "frame length survived the ring");
                    got.push(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
                });
                prop_assert_eq!(n, got.len());
                prop_assert_eq!(n, max.min(model.len()), "batch short-changed");
                for g in got {
                    prop_assert_eq!(Some(g), model.pop_front());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stream and MPI-matching reordering properties
// ---------------------------------------------------------------------------

proptest! {
    /// MPI matching: any arrival permutation of per-source-sequenced
    /// envelopes — with replays of sequence numbers already admitted or
    /// already parked mixed in, from ranks up to 255, and the receiver
    /// taking messages part-way through — becomes matchable in exactly the
    /// original per-source order, each message once.
    #[test]
    fn match_queue_restores_fifo(
        counts in proptest::collection::vec(1usize..20, 1..4),
        first_rank in 0u16..253,
        replays in 0usize..12,
        seed in any::<u64>(),
    ) {
        use fm_mpi::{MatchQueue, Envelope, Tag};
        // Build per-source sequenced streams, replay some of them, then
        // shuffle arrivals.
        let mut arrivals = Vec::new();
        for (i, &count) in counts.iter().enumerate() {
            for seq in 0..count as u32 {
                arrivals.push(Envelope {
                    tag: Tag(7),
                    seq,
                    src: first_rank + i as u16,
                    data: vec![i as u8, seq as u8],
                });
            }
        }
        let total = arrivals.len();
        let mut rng = fm_des::rng::Xoshiro256::seed_from_u64(seed);
        for _ in 0..replays {
            arrivals.push(arrivals[rng.next_below(total as u64) as usize].clone());
        }
        rng.shuffle(&mut arrivals);
        let pause = rng.next_below(arrivals.len() as u64) as usize;

        let mut q = MatchQueue::new();
        let mut last_seq = vec![-1i64; counts.len()];
        let mut taken = 0;
        for (n, env) in arrivals.into_iter().enumerate() {
            q.push(env);
            // Everything visible is matchable now, in per-source seq
            // order; a replay of it that arrives later must stay out.
            if n < pause {
                continue;
            }
            while let Some(env) = q.take(None, None) {
                let s = (env.src - first_rank) as usize;
                prop_assert_eq!(env.seq as i64, last_seq[s] + 1, "src {} out of order", env.src);
                prop_assert_eq!(&env.data, &vec![s as u8, env.seq as u8]);
                last_seq[s] = env.seq as i64;
                taken += 1;
            }
        }
        prop_assert_eq!(taken, total, "each message exactly once");
        prop_assert_eq!(q.stale, replays as u64, "each replay dropped and counted");
        prop_assert_eq!(q.pending(), 0);
    }

    /// Chain topology: latency grows monotonically with hop distance, and
    /// every delivery respects the pure wire lower bound.
    #[test]
    fn chain_network_hop_monotonicity(n in 0usize..600, hps in 1usize..4) {
        use fm_myrinet::ChainNetwork;
        use fm_myrinet::consts::{wire_time, SWITCH_LATENCY};
        use fm_des::Time;
        let hosts = hps * 4;
        let mut prev = None;
        for dst in 1..hosts {
            let mut net = ChainNetwork::new(hosts, hps, hps + 2);
            let d = net.inject(Time::ZERO, fm_myrinet::NodeId(0), fm_myrinet::NodeId(dst as u16), n);
            let hops = net.hops(fm_myrinet::NodeId(0), fm_myrinet::NodeId(dst as u16));
            let lower = wire_time(n) + SWITCH_LATENCY * hops as u64;
            prop_assert!(d.tail_at.since(Time::ZERO) >= lower);
            if let Some((ph, pt)) = prev {
                if hops > ph {
                    prop_assert!(d.tail_at >= pt, "more hops must not be faster");
                }
            }
            prev = Some((hops, d.tail_at));
        }
    }

    /// Bandwidth sweeps are monotone nondecreasing in packet size for every
    /// layer (larger packets amortize fixed costs).
    #[test]
    fn sim_bandwidth_monotone(seed in 0u64..4) {
        use fm_testbed::{run_stream, Layer, TestbedConfig};
        let cfg = TestbedConfig::default();
        let layer = [Layer::LanaiBaseline, Layer::Hybrid, Layer::AllDma, Layer::FullFm]
            [seed as usize % 4];
        let mut prev = 0.0;
        for n in [16usize, 64, 128, 256, 512] {
            let r = run_stream(layer, &cfg, n, 600);
            prop_assert!(
                r.mbs >= prev * 0.999,
                "{layer:?}: bw({n}) = {} < previous {prev}",
                r.mbs
            );
            prev = r.mbs;
        }
    }
}

// ---------------------------------------------------------------------------
// Reliability layer (beyond the paper): CRC and sequence-window properties.
// ---------------------------------------------------------------------------

proptest! {
    /// CRC32 trailer: flipping any single bit of a valid encoding is
    /// *always* detected — the decoder returns an error (`BadCrc` when the
    /// damage is confined to checked bytes, a structural error when it
    /// mangles the length fields), never a successfully decoded frame.
    #[test]
    fn crc_detects_every_single_bit_flip(
        src in 0u16..1024,
        dst in 0u16..1024,
        handler in any::<u16>(),
        slot in 0u16..1024,
        seq in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..=128),
        bit in any::<u32>(),
    ) {
        let f = WireFrame::data(
            NodeId(src), NodeId(dst), HandlerId(handler), slot, seq,
            Bytes::from(payload),
        );
        let enc = f.encode();
        let mut damaged = enc.to_vec();
        fm_core::fault::flip_bit(&mut damaged, bit);
        prop_assert_ne!(&damaged[..], &enc[..]);
        prop_assert!(
            WireFrame::decode(&Bytes::from(damaged)).is_err(),
            "single-bit corruption slipped past the CRC (bit {})",
            bit
        );
    }

    /// Flipping *two* distinct bits is likewise always detected (CRC32
    /// detects all 1- and 2-bit errors at these frame lengths).
    #[test]
    fn crc_detects_double_bit_flips(
        payload in proptest::collection::vec(any::<u8>(), 0..=128),
        bit_a in any::<u32>(),
        bit_b in any::<u32>(),
    ) {
        let f = WireFrame::data(NodeId(1), NodeId(2), HandlerId(3), 4, 5, Bytes::from(payload));
        let enc = f.encode();
        let total_bits = enc.len() as u32 * 8;
        if bit_a % total_bits == bit_b % total_bits {
            return Ok(()); // same bit twice = identity, not corruption
        }
        let mut damaged = enc.to_vec();
        fm_core::fault::flip_bit(&mut damaged, bit_a);
        fm_core::fault::flip_bit(&mut damaged, bit_b);
        prop_assert!(WireFrame::decode(&Bytes::from(damaged)).is_err());
    }

    /// Sequence window vs a reference model: feed an arbitrarily
    /// reordered + duplicated stream of sequence numbers through
    /// `SeqWindow` and through an oracle that remembers every seq it has
    /// admitted. The window must (a) agree with the oracle on what is a
    /// duplicate, (b) release exactly the n numbers from its start in
    /// order, each exactly once — including across the u32 wrap, which
    /// `back` places anywhere in the run — and (c) never hold more than
    /// `lookahead + 1` ring entries or change its reservation once made.
    #[test]
    fn seq_window_matches_model_under_reordering(
        n in 1usize..200,
        dup_every in 1usize..8,
        seed in any::<u64>(),
        lookahead in 200u32..1024,
        back in 0u32..300,
    ) {
        use fm_core::SeqClass;
        let start = 0u32.wrapping_sub(back);
        // Build the arrival schedule: the n numbers from `start`,
        // shuffled, with every `dup_every`-th element repeated somewhere
        // later.
        let mut arrivals: Vec<u32> = (0..n as u32).map(|i| start.wrapping_add(i)).collect();
        let mut rng = fm_des::rng::Xoshiro256::seed_from_u64(seed);
        rng.shuffle(&mut arrivals);
        let dups: Vec<u32> = arrivals.iter().copied().step_by(dup_every).collect();
        arrivals.extend(&dups);
        rng.shuffle(&mut arrivals);

        let mut win: fm_core::SeqWindow<u32> = fm_core::SeqWindow::starting_at(start, lookahead);
        let mut seen = std::collections::HashSet::new(); // the oracle
        let mut released = Vec::new();
        let mut reserved = 0;
        for seq in arrivals {
            let fresh = seen.insert(seq);
            match win.classify(seq) {
                SeqClass::Duplicate => {
                    prop_assert!(!fresh, "window called fresh seq {} a duplicate", seq);
                }
                SeqClass::InOrder => {
                    prop_assert!(fresh, "window released duplicate seq {}", seq);
                    prop_assert_eq!(seq, win.next_expected());
                    released.push(seq);
                    win.advance();
                    while let Some(s) = win.take_ready() {
                        released.push(s);
                    }
                }
                SeqClass::Ahead => {
                    prop_assert!(fresh, "window buffered duplicate seq {}", seq);
                    prop_assert!(win.buffer(seq, seq).is_ok(), "classified Ahead must park");
                }
                SeqClass::TooFar => {
                    // lookahead >= 200 > n: reordering within the run can
                    // never exceed the window in this schedule.
                    prop_assert!(false, "seq {} declared TooFar", seq);
                }
            }
            let (entries, capacity) = win.storage();
            prop_assert!(entries <= lookahead as usize + 1, "{} ring entries", entries);
            if reserved == 0 {
                reserved = capacity;
            }
            prop_assert_eq!(capacity, reserved, "the ring was reallocated");
        }
        prop_assert_eq!(released.len(), n, "not everything was released");
        for (i, &s) in released.iter().enumerate() {
            prop_assert_eq!(s, start.wrapping_add(i as u32), "out-of-order release at {}", i);
        }
        prop_assert_eq!(win.buffered(), 0);
    }

    /// Piggybacked acks are full sequence numbers: any seqs within an
    /// `i16` of the first share a frame and come back exactly; one outside
    /// that range is refused, to ride the next frame — never truncated
    /// into a different seq.
    #[test]
    fn piggy_acks_round_trip_or_wait_for_the_next_frame(
        base in any::<u32>(),
        deltas in proptest::collection::vec(any::<i16>(), 0..=4),
        far in 32_768u32..=u32::MAX - 32_768,
    ) {
        let acks = piggy_acks(base, &deltas);
        let f = WireFrame::from_parts(FrameHeader::ack(NodeId(1), NodeId(0), acks), &[]);
        let back = WireFrame::decode(&f.encode()).expect("own encoding decodes");
        prop_assert_eq!(back.head.piggy, acks);
        let one = PiggyAcks::from_prefix(&[base, base.wrapping_add(far)]);
        prop_assert_eq!(one.iter().collect::<Vec<_>>(), vec![base]);
    }
}

/// 100 000 park/release cycles (a hole at the head, a burst parked behind
/// it, the hole filled, the burst drained), starting just below the u32
/// wrap: the reorder ring is reserved once and never reallocated, so a
/// receiver's reorder memory does not depend on how long its peers have
/// been talking. (The `HashMap` this replaced crept to several times its
/// working size under exactly this churn.)
#[test]
fn seq_window_reservation_survives_park_release_churn() {
    let lookahead = 64u32;
    let mut win: fm_core::SeqWindow<u32> =
        fm_core::SeqWindow::starting_at(u32::MAX - 1_000, lookahead);
    let mut reserved = None;
    for cycle in 0..100_000u32 {
        let head = win.next_expected();
        let burst = 1 + cycle % lookahead;
        for ahead in 1..=burst {
            let seq = head.wrapping_add(ahead);
            assert_eq!(win.classify(seq), fm_core::SeqClass::Ahead);
            win.buffer(seq, seq).expect("inside the lookahead");
        }
        let (entries, capacity) = win.storage();
        assert!(entries <= lookahead as usize + 1);
        assert_eq!(*reserved.get_or_insert(capacity), capacity, "cycle {cycle}");
        assert_eq!(win.classify(head), fm_core::SeqClass::InOrder);
        win.advance();
        let mut drained = 0;
        while let Some(seq) = win.take_ready() {
            drained += 1;
            assert_eq!(seq, head.wrapping_add(drained));
        }
        assert_eq!(drained, burst);
        assert_eq!(win.storage().0, 0, "an empty window holds no entries");
    }
}

// ---------------------------------------------------------------------------
// Ack reach: a sender never runs past the receiver's reorder window.
// ---------------------------------------------------------------------------

/// Messages per [`ack_reach_stream`] run.
const ACK_REACH_MSGS: u32 = 300;

/// Stream [`ACK_REACH_MSGS`] numbered messages from node 0 to node 1, both
/// built from `cfg`, over a zero-latency wire that loses each frame with
/// probability `drop` (seeded), into a receiver that extracts `budget`
/// messages every `every` rounds. Returns what the receiver's handler saw
/// and how many data frames reached it more than `reorder_window` past its
/// in-order point (one source, one handler: delivered plus still in the
/// receive ring).
fn ack_reach_stream(
    cfg: EndpointConfig,
    every: u64,
    budget: usize,
    drop: f64,
    seed: u64,
) -> Result<(Vec<u32>, usize), String> {
    let mut a = EndpointCore::new(NodeId(0), cfg);
    let mut b = EndpointCore::new(NodeId(1), cfg);
    let got = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let g = got.clone();
    let hid = b.register_handler(Box::new(move |_, _, data| {
        g.lock()
            .unwrap()
            .push(u32::from_le_bytes(data.try_into().unwrap()));
    }));
    let mut rng = fm_des::rng::Xoshiro256::seed_from_u64(seed);
    let (mut sent, mut too_far) = (0u32, 0);
    for round in 0u64.. {
        if round > 200_000 || a.is_dead(NodeId(1)) {
            return Err(format!("wedged after {round} rounds: {a:?} {b:?}"));
        }
        while sent < ACK_REACH_MSGS && a.try_send(NodeId(1), hid, sent.to_le_bytes()).is_ok() {
            sent += 1;
        }
        let mut moved = true;
        while moved {
            moved = false;
            while let Some(f) = a.pop_outgoing() {
                moved = true;
                if rng.next_bool(drop) {
                    continue;
                }
                let point = (b.stats().delivered as usize + b.pending_extract()) as u32;
                let ahead = f.head.seq.wrapping_sub(point) as i32;
                too_far +=
                    (f.head.kind == FrameKind::Data && ahead > cfg.reorder_window as i32) as usize;
                b.on_wire(f);
            }
            while let Some(f) = b.pop_outgoing() {
                moved = true;
                if !rng.next_bool(drop) {
                    a.on_wire(f);
                }
            }
        }
        if round % every == 0 {
            b.extract(budget);
        }
        a.extract(usize::MAX);
        if got.lock().unwrap().len() == ACK_REACH_MSGS as usize
            && a.is_quiescent()
            && b.is_quiescent()
        {
            break;
        }
    }
    let got = got.lock().unwrap().clone();
    Ok((got, too_far))
}

/// Endpoint sizing for [`ack_reach_stream`]: `window ≤ reorder_window ≤
/// 256`, timers short enough for seeded drops to recover in a few hundred
/// rounds.
fn ack_reach_config(window: usize, extra: u32, ring: usize) -> EndpointConfig {
    EndpointConfig {
        window,
        reorder_window: window as u32 + extra,
        recv_ring: ring,
        rto_initial: 8,
        rto_max: 256,
        retry_budget: 64,
        ..Default::default()
    }
}

proptest! {
    /// Lossless: however slowly the receiver extracts, no data frame ever
    /// arrives beyond its reorder window — a parked frame is acked only
    /// within `reorder_window − window` of the in-order point, so too-far
    /// bounces cannot happen — and every message lands once, in order.
    #[test]
    fn ack_reach_keeps_a_lossless_sender_within_the_lookahead(
        window in 1usize..=64,
        extra in 0u32..=192,
        ring in 1usize..=16,
        every in 1u64..=4,
        budget in 1usize..=8,
    ) {
        let cfg = ack_reach_config(window, extra, ring);
        let (got, too_far) = ack_reach_stream(cfg, every, budget, 0.0, 0)?;
        prop_assert_eq!(too_far, 0, "{:?}", cfg);
        prop_assert!(got.iter().copied().eq(0..ACK_REACH_MSGS), "{:?}", cfg);
    }

    /// Seeded drops of every frame kind, both ways: held frames time out,
    /// bounce and are acked once within reach, lost ones are resent, and
    /// every message still lands exactly once, in order.
    #[test]
    fn ack_reach_delivers_exactly_once_under_seeded_drops(
        window in 1usize..=64,
        extra in 0u32..=192,
        ring in 1usize..=16,
        every in 1u64..=4,
        budget in 1usize..=8,
        drop_pct in 1u32..=10,
        seed in any::<u64>(),
    ) {
        let cfg = ack_reach_config(window, extra, ring);
        let (got, _) = ack_reach_stream(cfg, every, budget, drop_pct as f64 / 100.0, seed)?;
        prop_assert!(got.iter().copied().eq(0..ACK_REACH_MSGS), "{:?}: {:?}", cfg, got);
    }
}
