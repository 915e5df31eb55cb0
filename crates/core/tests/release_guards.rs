//! Release-profile regression tests for the protocol guards.
//!
//! Guards in this crate used to be `debug_assert!`s, which compile to
//! nothing under `--release` — exactly the profile every benchmark and
//! deployment uses. A caller breaking the contract in release would
//! silently corrupt protocol state:
//!
//! * `SeqWindow::buffer` overwrote an already-parked frame (losing the
//!   first one) or parked an out-of-window sequence that `release()`
//!   would then never free;
//! * `seg::Reassembly` grew its partial-message map without bound while
//!   a peer stayed alive.
//!
//! Both are now checked in every profile. Acks name a frame's sequence
//! number and are resolved per sending peer, so a hostile frame naming
//! another peer's frames must free none of them.
//! These tests drive each misuse path; CI runs this file under
//! `--release` specifically (see `.github/workflows/ci.yml`) so the guards
//! are exercised with debug assertions compiled out.
//!
//! The same goes for the one validator that faces the network
//! (`FrameHeader::parse`, its by-value form `WireFrame::decode_slice`, and
//! `peek_flow`): it must refuse garbage without panicking in the profile
//! where overflow checks and `debug_assert!`s are gone, so its seeded
//! mutation loop lives here too — and holds the two entry points to the
//! same verdict on every buffer it makes.

use fm_core::flow::{SeqBufferError, SeqClass, SeqWindow};
use fm_core::frame::{FrameHeader, PiggyAcks};
use fm_core::seg::{fragment, Reassembly, FRAG_DATA};
use fm_core::{
    CodecError, EndpointConfig, EndpointCore, HandlerId, NodeId, TraceCtx, WireFrame, FM_FRAME_MAX,
};

/// Marker: when this test runs, the profile really has debug assertions
/// compiled out, so the checks below cannot be satisfied by leftover
/// `debug_assert!`s. (Present only in release builds; the debug run of
/// this file still exercises the same guards, just redundantly.)
#[cfg(not(debug_assertions))]
#[test]
fn built_without_debug_assertions() {
    assert!(!cfg!(debug_assertions));
}

#[test]
fn a_third_nodes_acks_and_returns_free_nothing() {
    // The victim has four frames outstanding to node 1, seqs 0..=3.
    let mut victim = EndpointCore::new(NodeId(0), EndpointConfig::default());
    for i in 0..4u8 {
        victim.try_send(NodeId(1), HandlerId(1), [i]).unwrap();
    }
    let sent: Vec<WireFrame> = std::iter::from_fn(|| victim.pop_outgoing()).collect();
    let seqs: Vec<u32> = sent.iter().map(|f| f.head.seq).collect();
    let acks = PiggyAcks::from_prefix(&seqs);
    assert_eq!(acks.len(), 4);
    // Node 2 names all four, piggybacked on data and standalone, and
    // returns each of them as if it had bounced it.
    let mut hostile = WireFrame::data(NodeId(2), NodeId(0), HandlerId(1), 0, 0, Default::default());
    hostile.head.piggy = acks;
    victim.on_wire(hostile);
    victim.on_frame(&FrameHeader::ack(NodeId(2), NodeId(0), acks), &[]);
    for f in &sent {
        let mut bounce = f.head.into_return();
        bounce.src = NodeId(2);
        victim.on_frame(&bounce, &[]);
    }
    assert_eq!(victim.outstanding(), 4, "nothing freed");
    assert_eq!(victim.stats().stale_acks, 8);
    assert_eq!(victim.stats().bounced, 0);
    // Node 1's own acks still free them.
    victim.on_frame(&FrameHeader::ack(NodeId(1), NodeId(0), acks), &[]);
    assert_eq!(victim.outstanding(), 0);
    assert_eq!(victim.stats().stale_acks, 8);
}

#[test]
fn seq_window_buffer_rejects_occupied_slot() {
    let mut w: SeqWindow<&str> = SeqWindow::new(8);
    assert_eq!(w.classify(3), SeqClass::Ahead);
    assert!(w.buffer(3, "first").is_ok());
    // A duplicate park must not overwrite the first frame.
    let (err, returned) = w.buffer(3, "second").unwrap_err();
    assert_eq!(err, SeqBufferError::Occupied);
    assert_eq!(
        returned, "second",
        "the rejected item comes back to the caller"
    );
    // Delivering 0..=2 releases the *original* parked frame.
    for seq in 0..3 {
        assert_eq!(w.classify(seq), SeqClass::InOrder);
        w.advance();
    }
    assert_eq!(w.take_ready(), Some("first"));
}

#[test]
fn seq_window_buffer_rejects_out_of_window_seqs() {
    let mut w: SeqWindow<u32> = SeqWindow::new(8);
    // next itself (delta 0): an in-order frame must be delivered, not parked.
    let (err, _) = w.buffer(0, 0).unwrap_err();
    assert_eq!(err, SeqBufferError::OutOfWindow);
    // Beyond the lookahead.
    let (err, _) = w.buffer(9, 9).unwrap_err();
    assert_eq!(err, SeqBufferError::OutOfWindow);
    // Behind the window (wrapping delta is huge).
    let (err, _) = w.buffer(u32::MAX, 99).unwrap_err();
    assert_eq!(err, SeqBufferError::OutOfWindow);
    assert_eq!(w.buffered(), 0, "no misuse may leave state behind");
}

#[test]
fn reassembly_caps_partials_per_source() {
    let src = NodeId(5);
    let mut r = Reassembly::with_max_partials(2);
    let payload = vec![0xABu8; FRAG_DATA + 1]; // two fragments each
    let first_frag = |msg_id: u32| fragment(msg_id, HandlerId(1), &payload)[0].clone();
    for msg_id in 0..3u32 {
        assert!(r.on_fragment(src, &first_frag(msg_id)).unwrap().is_none());
    }
    // Opening the third partial evicted the oldest (msg 0); the map stays
    // at the cap instead of growing for as long as the peer lives.
    assert_eq!(r.in_progress(), 2);
    assert_eq!(r.evicted_partials(), 1);
    // Completing msg 0 now takes a fresh start: its tail fragment alone
    // reopens a partial rather than completing the evicted one.
    let tail = fragment(0, HandlerId(1), &payload)[1].clone();
    assert!(r.on_fragment(src, &tail).unwrap().is_none());
    // Survivors (msgs 1 and 2 were newer) still complete normally.
    let tail2 = fragment(2, HandlerId(1), &payload)[1].clone();
    let (h, msg) = r
        .on_fragment(src, &tail2)
        .unwrap()
        .expect("msg 2 completes");
    assert_eq!(h, HandlerId(1));
    assert_eq!(msg, payload);
}

/// splitmix64: the seeded generator for the decoder loop.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decode `buf` through both entry points of the validator — by reference
/// (what the runtime's receive path calls) and by value (what the sans-IO
/// harnesses call) — and insist they agree: same acceptance, same header,
/// same payload bytes, same error.
fn decode(buf: &[u8]) -> Result<WireFrame, CodecError> {
    let by_value = WireFrame::decode_slice(buf);
    let by_ref = FrameHeader::parse(buf);
    assert_eq!(
        by_ref.map(|(head, payload)| (head, payload.to_vec())),
        by_value
            .clone()
            .map(|frame| (frame.head, frame.payload.to_vec())),
    );
    by_value
}

/// What every buffer that is *not* an untouched frame image must get:
/// no panic from any entry point, never `Ok`, and `BadVersion` / no
/// peek whenever byte 0 is not `0xF2`.
fn assert_refused(buf: &[u8], what: &str) {
    let peek = WireFrame::peek_flow(buf);
    let err = decode(buf).expect_err(what);
    match buf.first() {
        None => assert_eq!(err, CodecError::Truncated { have: 0 }),
        Some(&0xF2) => assert!(!matches!(err, CodecError::BadVersion(_)), "{what}: {err}"),
        Some(&other) => assert_eq!((err, peek), (CodecError::BadVersion(other), None), "{what}"),
    }
}

#[test]
fn decoder_accepts_only_untouched_images() {
    let mut rng = 0xF1F1_5EED_u64;
    // 16 k frames x 9 buffers each = 144 k decodes.
    for _ in 0..16_000 {
        let mut noise = [0u8; FM_FRAME_MAX + 1];
        noise.iter_mut().for_each(|b| *b = next(&mut rng) as u8);
        let r = next(&mut rng);
        let (src, dst) = (NodeId(r as u16), NodeId((r >> 16) as u16));
        let payload = bytes::Bytes::copy_from_slice(&noise[..(r >> 8) as usize % 129]);
        let (handler, slot, seq) = (
            HandlerId((r >> 32) as u16),
            (r >> 48) as u16,
            next(&mut rng),
        );
        let mut frame = WireFrame::data(src, dst, handler, slot, seq as u32, payload);
        let first_ack = next(&mut rng) as u32;
        let acks: Vec<u32> = (0..next(&mut rng) % 5)
            .map(|i| match i {
                0 => first_ack,
                _ => first_ack.wrapping_add(next(&mut rng) as i16 as u32),
            })
            .collect();
        frame.head.piggy = PiggyAcks::from_prefix(&acks);
        if r & 1 == 1 {
            frame.head.trace = TraceCtx::sampled((seq >> 32) as u32, next(&mut rng) as u16);
        }
        let mut image = [0u8; FM_FRAME_MAX + 1];
        let n = frame.encode_into(&mut image);
        assert_eq!(decode(&image[..n]).as_ref(), Ok(&frame));
        assert_eq!(WireFrame::peek_flow(&image[..n]), Some((src, dst)));

        assert_refused(&image[..n - 1], "truncated by one byte");
        assert_refused(&image[..n + 1], "extended by one byte");
        for first in [0x00, 0x01, 0x02, 0xF1] {
            let mut forced = image;
            forced[0] = first;
            assert_refused(&forced[..n], "first byte of a retired layout");
        }
        // One flipped bit, then a second, different one: CRC-32 catches
        // every 1- and 2-bit error at this length.
        let bits = n * 8;
        let one = next(&mut rng) as usize % bits;
        let two = (one + 1 + next(&mut rng) as usize % (bits - 1)) % bits;
        for bit in [one, two] {
            image[bit / 8] ^= 1 << (bit % 8);
            assert_refused(&image[..n], "flipped bits");
        }
        if r & 2 == 2 {
            noise[0] = 0xF2; // past the version gate half the time
        }
        assert_refused(
            &noise[..next(&mut rng) as usize % noise.len()],
            "random bytes",
        );
    }
}
