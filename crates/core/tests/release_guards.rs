//! Release-profile regression tests for the protocol guards.
//!
//! Three guards in this crate used to be `debug_assert!`s, which compile
//! to nothing under `--release` — exactly the profile every benchmark and
//! deployment uses. A caller breaking the contract in release would
//! silently corrupt protocol state:
//!
//! * `flow::ack_word` happily truncated slots >= 1024 into the 10-bit
//!   field, aliasing the ack onto an unrelated send record;
//! * `SeqWindow::buffer` overwrote an already-parked frame (losing the
//!   first one) or parked an out-of-window sequence that `release()`
//!   would then never free;
//! * `seg::Reassembly` grew its partial-message map without bound while
//!   a peer stayed alive.
//!
//! All three are now checked in every profile. These tests drive each
//! misuse path; CI runs this file under `--release` specifically (see
//! `.github/workflows/ci.yml`) so the guards are exercised with debug
//! assertions compiled out.
//!
//! The same goes for the one validator that faces the network
//! (`FrameHeader::parse`, its by-value form `WireFrame::decode_slice`, and
//! `peek_flow`): it must refuse garbage without panicking in the profile
//! where overflow checks and `debug_assert!`s are gone, so its seeded
//! mutation loop lives here too — and holds the two entry points to the
//! same verdict on every buffer it makes.

use fm_core::flow::{ack_word, AckTracker, SeqBufferError, SeqClass, SeqWindow};
use fm_core::frame::FrameHeader;
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
fn ack_word_refuses_slot_wider_than_field() {
    // 1024 truncated into the 10-bit slot field would alias slot 0.
    assert_eq!(ack_word(1024, 3), None);
    assert_eq!(ack_word(u16::MAX, 0), None);
    // The last representable slot still encodes.
    assert!(ack_word(1023, 3).is_some());
}

#[test]
fn ack_tracker_counts_invalid_slots_instead_of_aliasing() {
    let mut t = AckTracker::new();
    assert!(
        !t.on_accept(NodeId(2), 1024, 0),
        "oversized slot must be refused"
    );
    assert_eq!(
        t.pending_total(),
        0,
        "no ack may be queued for an invalid slot"
    );
    assert!(t.on_accept(NodeId(2), 1023, 0));
    assert_eq!(t.pending_total(), 1);
    // The endpoint counts the refusal in its ledger.
    let mut ep = EndpointCore::new(NodeId(0), EndpointConfig::default());
    let wide = WireFrame::data(
        NodeId(2),
        NodeId(0),
        HandlerId(1),
        1024,
        0,
        Default::default(),
    );
    ep.on_wire(wide);
    assert_eq!(ep.stats().invalid_ack_slots, 1);
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
/// peek whenever byte 0 is not `0xF1`.
fn assert_refused(buf: &[u8], what: &str) {
    let peek = WireFrame::peek_flow(buf);
    let err = decode(buf).expect_err(what);
    match buf.first() {
        None => assert_eq!(err, CodecError::Truncated { have: 0 }),
        Some(&0xF1) => assert!(!matches!(err, CodecError::BadVersion(_)), "{what}: {err}"),
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
        for _ in 0..next(&mut rng) % 5 {
            frame.head.piggy.push(next(&mut rng) as u16);
        }
        if r & 1 == 1 {
            frame.head.trace = TraceCtx::sampled((seq >> 32) as u32, next(&mut rng) as u16);
        }
        let mut image = [0u8; FM_FRAME_MAX + 1];
        let n = frame.encode_into(&mut image);
        assert_eq!(decode(&image[..n]).as_ref(), Ok(&frame));
        assert_eq!(WireFrame::peek_flow(&image[..n]), Some((src, dst)));

        assert_refused(&image[..n - 1], "truncated by one byte");
        assert_refused(&image[..n + 1], "extended by one byte");
        for first in 0x00..=0x02 {
            let mut forced = image;
            forced[0] = first;
            assert_refused(&forced[..n], "first byte of the retired layout");
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
            noise[0] = 0xF1; // past the version gate half the time
        }
        assert_refused(
            &noise[..next(&mut rng) as usize % noise.len()],
            "random bytes",
        );
    }
}
