//! The layer ladder: isolated public calls timed one rung at a time.
//!
//! Each rung times one layer's public entry points alone, at the payload
//! sizes of the size sweep, so the end-to-end figures of `pingpong_inline`
//! and `stream_inline` can be set against a sum of rungs — the repo's
//! version of the paper's Table 4. Nothing here goes through private
//! code: a rung that stops compiling means a public name changed.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

use bytes::Bytes;
use fm_core::{
    crc32, seg, spsc_ring, EndpointConfig, EndpointCore, HandlerId, NodeId, WireFrame,
    FM_CRC_BYTES, FM_FRAME_MAX,
};
use fm_metrics::fit::{derive_metrics, LayerMetrics};
use fm_mpi::matching::{Envelope, MatchQueue};
use fm_mpi::Tag;

use crate::clock::now_ns;
use crate::stats::median;
use crate::workloads::{H_DATA, H_ECHO, LARGE};

/// Payload sizes of the sweep, bytes. 128 B is one full FM frame.
pub const SIZES: [usize; 6] = [0, 16, 32, 64, 96, 128];

const BATCHES: usize = 15;

/// `--quick`: a quarter of the iterations and a third of the batches.
static QUICK: AtomicBool = AtomicBool::new(false);

pub fn set_quick() {
    QUICK.store(true, Ordering::Relaxed);
}

pub fn quick() -> bool {
    QUICK.load(Ordering::Relaxed)
}

/// `n` at full length, a quarter of it under `--quick`.
pub fn scaled(n: u64) -> u64 {
    if quick() {
        (n / 4).max(1)
    } else {
        n
    }
}

/// What `r_inf` reads for a layer whose cost does not grow with size.
pub const NO_PER_BYTE_COST_MBS: f64 = (1u64 << 20) as f64;

/// Median over timed batches (`BATCHES`, fewer under `--quick`) of `iters` calls, in ns per call.
fn time_per_op(iters: u64, mut op: impl FnMut()) -> f64 {
    let iters = scaled(iters);
    let batches = if quick() { BATCHES / 3 } else { BATCHES };
    // One untimed batch first: caches, branch predictors, lazy tables.
    for _ in 0..iters {
        op();
    }
    let per_batch: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = now_ns();
            for _ in 0..iters {
                op();
            }
            (now_ns() - t0) as f64 / iters as f64
        })
        .collect();
    median(&per_batch)
}

fn data_frame(len: usize) -> WireFrame {
    let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
    WireFrame::data(
        NodeId(0),
        NodeId(1),
        H_DATA,
        3,
        77,
        Bytes::copy_from_slice(&payload),
    )
}

/// `frame` rungs at one payload size: `(crc32, encode_into, decode_slice)`
/// ns per call. The CRC covers header + payload, as the codec's does.
pub fn frame_rungs(len: usize) -> (f64, f64, f64) {
    let frame = data_frame(len);
    let mut image = [0u8; FM_FRAME_MAX];
    let n = frame.encode_into(&mut image);
    let crc = time_per_op(4000, || {
        black_box(crc32(black_box(&image[..n - FM_CRC_BYTES])));
    });
    let encode = time_per_op(4000, || {
        black_box(black_box(&frame).encode_into(&mut image));
    });
    let decode = time_per_op(4000, || {
        black_box(WireFrame::decode_slice(black_box(&image[..n])).is_ok());
    });
    (crc, encode, decode)
}

/// `fabric` rung: push then `poll_batch(32)` on one thread, ns per frame
/// (a full-frame image copied in and handed out).
pub fn fabric_rung() -> f64 {
    let frame = data_frame(128);
    let mut image = [0u8; FM_FRAME_MAX];
    let n = frame.encode_into(&mut image);
    let (mut tx, mut rx) = spsc_ring(512);
    time_per_op(200, || {
        for _ in 0..32 {
            let pushed = tx.try_push_with(|slot| {
                slot[..n].copy_from_slice(&image[..n]);
                n
            });
            debug_assert!(pushed);
        }
        let got = rx.poll_batch(32, |bytes| {
            black_box(bytes.len());
        });
        debug_assert_eq!(got, 32);
    }) / 32.0
}

fn core_pair() -> (EndpointCore, EndpointCore) {
    let config = EndpointConfig::default();
    let mut a = EndpointCore::new(NodeId(0), config);
    let mut b = EndpointCore::new(NodeId(1), config);
    b.register_handler_at(
        H_DATA,
        Box::new(|_, _, data| {
            black_box(data.len());
        }),
    );
    b.register_handler_at(
        H_ECHO,
        Box::new(|out, src, data| out.send_copy(src, H_ECHO, data)),
    );
    a.register_handler_at(
        H_ECHO,
        Box::new(|_, _, data| {
            black_box(data.len());
        }),
    );
    (a, b)
}

fn shuttle(from: &mut EndpointCore, to: &mut EndpointCore) {
    while let Some(frame) = from.pop_outgoing() {
        to.on_wire(frame);
    }
}

/// `endpoint` rung, streaming shape: fill the window, hand frames across
/// by value (no codec, no ring), extract both sides. ns per message.
pub fn core_stream(len: usize) -> f64 {
    let (mut a, mut b) = core_pair();
    let payload = vec![0x5Au8; len];
    let window = EndpointConfig::default().window as f64;
    time_per_op(60, || {
        while a
            .try_send(NodeId(1), H_DATA, Bytes::copy_from_slice(&payload))
            .is_ok()
        {}
        shuttle(&mut a, &mut b);
        b.extract(usize::MAX);
        shuttle(&mut b, &mut a);
        a.extract(usize::MAX);
    }) / window
}

/// `endpoint` rung, ping-pong shape: one message out, handler echo back.
/// ns per round (two messages).
pub fn core_pingpong(len: usize) -> f64 {
    let (mut a, mut b) = core_pair();
    let payload = vec![0x5Au8; len];
    time_per_op(2000, || {
        a.try_send(NodeId(1), H_ECHO, Bytes::copy_from_slice(&payload))
            .expect("one outstanding");
        shuttle(&mut a, &mut b);
        b.extract(usize::MAX);
        shuttle(&mut b, &mut a);
        a.extract(usize::MAX);
    })
}

/// `seg` rungs: `(fragment_each, Reassembly::on_fragment)` ns per fragment
/// of a `LARGE`-byte message.
pub fn seg_rungs() -> (f64, f64) {
    let message: Vec<u8> = (0..LARGE).map(|i| (i * 13) as u8).collect();
    let frags = seg::fragment(1, HandlerId(0), &message);
    let nfrags = frags.len() as f64;
    let fragment = time_per_op(200, || {
        seg::fragment_each(1, HandlerId(0), black_box(&message), |frag| {
            black_box(frag);
        });
    }) / nfrags;
    let mut reasm = seg::Reassembly::new();
    let reassemble = time_per_op(200, || {
        let mut done = false;
        for frag in &frags {
            done = matches!(reasm.on_fragment(NodeId(0), frag), Ok(Some(_)));
        }
        debug_assert!(done);
        black_box(done);
    }) / nfrags;
    (fragment, reassemble)
}

/// `fmmpi` rungs: `(Envelope encode + decode, MatchQueue push + take)` ns
/// for one 16-byte message.
pub fn fmmpi_rungs() -> (f64, f64) {
    let env = Envelope {
        tag: Tag(1),
        seq: 9,
        src: 0,
        data: vec![0x5A; 16],
    };
    let envelope = time_per_op(4000, || {
        let bytes = black_box(&env).encode();
        black_box(Envelope::decode(&bytes));
    });
    let mut queue = MatchQueue::new();
    let mut seq = 0u32;
    let matchqueue = time_per_op(4000, || {
        queue.push(Envelope {
            tag: Tag(1),
            seq,
            src: 0,
            data: vec![0x5A; 16],
        });
        seq += 1;
        black_box(queue.take(Some(0), Some(Tag(1))));
    });
    (envelope, matchqueue)
}

/// t0 / r_inf / n_1/2 from a size sweep: `round_ns[i]` is the round-trip
/// time and `msg_ns[i]` the streaming time per message at `SIZES[i]`.
pub fn table4(round_ns: &[f64], msg_ns: &[f64]) -> LayerMetrics {
    let latency: Vec<(usize, f64)> = SIZES
        .iter()
        .zip(round_ns)
        .map(|(&n, &ns)| (n, ns / 2.0 / 1e3))
        .collect();
    // Bandwidth at 0 B is 0 by definition and carries no timing, so the
    // fit starts at the first real size.
    let bandwidth: Vec<(usize, f64)> = SIZES
        .iter()
        .zip(msg_ns)
        .filter(|(&n, _)| n > 0)
        .map(|(&n, &ns)| (n, n as f64 / ns * 1e9 / (1u64 << 20) as f64))
        .collect();
    let mut fit = derive_metrics(&latency, &bandwidth);
    // A layer that does no per-byte work fits a flat (or falling) line, and
    // 1/slope then reads as a meaningless huge rate. Cap it at 1 TiB/s and
    // say "no half-power point" with 0.
    if !fit.r_inf_mbs.is_finite() || fit.r_inf_mbs > NO_PER_BYTE_COST_MBS {
        fit.r_inf_mbs = NO_PER_BYTE_COST_MBS;
        fit.n_half_bytes = 0.0;
    }
    fit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_recovers_a_linear_cost_model() {
        // T(n) = 1000 ns + 2 ns/B one way, streaming 500 ns + 4 ns/B.
        let round: Vec<f64> = SIZES
            .iter()
            .map(|&n| 2.0 * (1000.0 + 2.0 * n as f64))
            .collect();
        let msg: Vec<f64> = SIZES.iter().map(|&n| 500.0 + 4.0 * n as f64).collect();
        let m = table4(&round, &msg);
        assert!((m.t0_us - 1.0).abs() < 1e-9, "{m:?}");
        // r_inf = 1 B / 4 ns = 250e6 B/s.
        assert!(
            (m.r_inf_mbs - 250e6 / (1u64 << 20) as f64).abs() < 1e-6,
            "{m:?}"
        );
    }

    #[test]
    fn rungs_report_positive_times() {
        let (crc, enc, dec) = frame_rungs(16);
        assert!(crc > 0.0 && enc > 0.0 && dec > 0.0);
        assert!(core_pingpong(16) > 0.0);
        assert!(core_stream(128) > 0.0);
    }
}
