//! Criterion microbenches of the *real* FM library (the threaded in-memory
//! runtime): these are wall-clock costs of this implementation on the host
//! machine, complementing the simulated 1995 numbers.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fm_core::mem::{FabricKind, MemCluster};
use fm_core::{spsc_ring, HandlerId, NodeId, WireFrame, FM_FRAME_MAX};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One message: send on A, pump + extract on B, ack back — the full
/// protocol round for a single frame, single-threaded (no scheduler noise).
fn bench_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("mem_fabric/roundtrip");
    for &size in &[16usize, 64, 128] {
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let mut nodes = MemCluster::new(2);
            let mut bnode = nodes.pop().expect("two nodes");
            let mut anode = nodes.pop().expect("two nodes");
            let hits = Arc::new(AtomicU64::new(0));
            let h2 = hits.clone();
            let h = bnode.register_handler(move |_, _, data| {
                h2.fetch_add(data.len() as u64, Ordering::Relaxed);
            });
            let payload = vec![0xABu8; size];
            b.iter(|| {
                anode.send(NodeId(1), h, black_box(&payload));
                while bnode.extract() == 0 {}
                anode.extract(); // absorb the ack
            });
            black_box(hits.load(Ordering::Relaxed));
        });
    }
    g.finish();
}

/// Streaming: fill the window, extract in bulk.
fn bench_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("mem_fabric/stream_128B");
    g.throughput(Throughput::Elements(64));
    g.bench_function("burst64", |b| {
        let mut nodes = MemCluster::new(2);
        let mut bnode = nodes.pop().expect("two nodes");
        let mut anode = nodes.pop().expect("two nodes");
        let h = bnode.register_handler(|_, _, _| {});
        let payload = [0u8; 128];
        b.iter(|| {
            for _ in 0..64 {
                anode.send(NodeId(1), h, black_box(&payload));
            }
            let mut got = 0;
            while got < 64 {
                got += bnode.extract();
            }
            anode.extract();
        });
    });
    g.finish();
}

/// Large messages through segmentation and reassembly. Driving both ends
/// from the bench thread means the whole message must fit the sender's
/// 64-frame window (64 x 114 B), so sizes stay below ~7.3 KB; bigger
/// transfers belong to a threaded harness (see examples/file_transfer).
fn bench_send_large(c: &mut Criterion) {
    let mut g = c.benchmark_group("mem_fabric/send_large");
    for &size in &[1024usize, 4096, 7168] {
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let mut nodes = MemCluster::new(2);
            let mut bnode = nodes.pop().expect("two nodes");
            let mut anode = nodes.pop().expect("two nodes");
            let done = Arc::new(AtomicU64::new(0));
            let d2 = done.clone();
            let lh = bnode.register_large_handler(move |_, _, msg| {
                d2.fetch_add(msg.len() as u64, Ordering::Relaxed);
            });
            let payload = vec![7u8; size];
            b.iter(|| {
                let before = done.load(Ordering::Relaxed);
                anode
                    .send_large(NodeId(1), lh, black_box(&payload))
                    .expect("peer alive");
                while done.load(Ordering::Relaxed) == before {
                    bnode.extract();
                    anode.extract();
                }
            });
        });
    }
    g.finish();
}

/// Encoded 156-byte frames (CRC trailer included) over the raw SPSC ring
/// (encode-in-place, batched drain). Push/drain cycles run on the bench
/// thread so the number isolates fabric cost, not scheduler noise.
/// `scripts/bench_gate` gates this wire against its channel baseline (>= 3x).
fn bench_wire_fabric(c: &mut Criterion) {
    const BATCH: usize = 256;
    let frame = WireFrame::data(
        NodeId(0),
        NodeId(1),
        HandlerId(1),
        3,
        9,
        Bytes::copy_from_slice(&[0xA5u8; 128]),
    );
    let mut template = [0u8; FM_FRAME_MAX];
    let len = frame.encode_into(&mut template);

    let mut g = c.benchmark_group("mem_fabric/wire");
    g.throughput(Throughput::Elements(BATCH as u64));
    g.bench_function("ring", |b| {
        let (mut p, mut consumer) = spsc_ring(512);
        b.iter(|| {
            for _ in 0..BATCH {
                let ok = p.try_push_with(|slot| {
                    slot[..len].copy_from_slice(&template[..len]);
                    len
                });
                assert!(ok, "512-deep ring fits the 256-frame batch");
            }
            let mut seen = 0;
            while seen < BATCH {
                seen += consumer.poll_batch(64, |bytes| {
                    black_box(bytes[0]);
                });
            }
        });
    });
    g.finish();
}

/// Full-protocol roundtrip on each fabric: same workload as
/// `mem_fabric/roundtrip` but parameterized over the transport, so what
/// two kernel crossings per frame cost shows up next to the ring.
fn bench_fabric_compare(c: &mut Criterion) {
    let mut g = c.benchmark_group("mem_fabric/fabric_compare");
    for (name, kind) in [("ring", FabricKind::Ring), ("udp", FabricKind::Udp)] {
        g.bench_function(name, |b| {
            let mut nodes = MemCluster::with_fabric(2, Default::default(), kind);
            let mut bnode = nodes.pop().expect("two nodes");
            let mut anode = nodes.pop().expect("two nodes");
            let hits = Arc::new(AtomicU64::new(0));
            let h2 = hits.clone();
            let h = bnode.register_handler(move |_, _, data| {
                h2.fetch_add(data.len() as u64, Ordering::Relaxed);
            });
            let payload = [0xABu8; 64];
            b.iter(|| {
                anode.send(NodeId(1), h, black_box(&payload));
                while bnode.extract() == 0 {}
                anode.extract();
            });
            black_box(hits.load(Ordering::Relaxed));
        });
    }
    g.finish();
}

/// Loopback (self-send) — no wire involved.
fn bench_loopback(c: &mut Criterion) {
    c.bench_function("mem_fabric/loopback_16B", |b| {
        let mut nodes = MemCluster::new(1);
        let mut a = nodes.pop().expect("one node");
        let h = a.register_handler(|_, _, _| {});
        b.iter(|| {
            a.send(NodeId(0), h, black_box(&[1u8; 16]));
            a.extract();
        });
    });
}

criterion_group!(
    benches,
    bench_roundtrip,
    bench_stream,
    bench_send_large,
    bench_wire_fabric,
    bench_fabric_compare,
    bench_loopback
);
criterion_main!(benches);
