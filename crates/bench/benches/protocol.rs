//! Criterion microbenches of the protocol building blocks: frame codec,
//! endpoint state machine, reject-queue slot operations.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fm_core::endpoint::{EndpointConfig, EndpointCore};
use fm_core::queues::RejectQueue;
use fm_core::{gen_tag, HandlerId, NodeId, WireFrame};
use std::hint::black_box;

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol/codec");
    for &size in &[16usize, 128] {
        let frame = WireFrame::data(
            NodeId(0),
            NodeId(1),
            HandlerId(3),
            7,
            42,
            Bytes::from(vec![0x5A; size]),
        );
        g.throughput(Throughput::Bytes(frame.wire_bytes() as u64));
        g.bench_with_input(BenchmarkId::new("encode", size), &frame, |b, f| {
            b.iter(|| black_box(f.encode()));
        });
        let encoded = frame.encode();
        g.bench_with_input(BenchmarkId::new("decode", size), &encoded, |b, e| {
            b.iter(|| WireFrame::decode(black_box(e)).expect("valid frame"));
        });
    }
    g.finish();
}

fn bench_endpoint_cycle(c: &mut Criterion) {
    c.bench_function("protocol/endpoint_send_wire_extract", |b| {
        let mut a = EndpointCore::new(NodeId(0), EndpointConfig::default());
        let mut r = EndpointCore::new(NodeId(1), EndpointConfig::default());
        let h = r.register_handler(Box::new(|_, _, _| {}));
        let payload = Bytes::from_static(&[0u8; 64]);
        b.iter(|| {
            a.try_send(NodeId(1), h, payload.clone())
                .expect("window open");
            while let Some(f) = a.pop_outgoing() {
                r.on_wire(f);
            }
            r.extract(usize::MAX);
            while let Some(f) = r.pop_outgoing() {
                a.on_wire(f);
            }
        });
    });
}

fn bench_reject_queue(c: &mut Criterion) {
    c.bench_function("protocol/reject_queue_reserve_ack", |b| {
        let mut q = RejectQueue::new(256);
        b.iter(|| {
            let s = q.reserve(0, 1 << 40).expect("capacity");
            black_box(s);
            q.ack(s, gen_tag(q.gen(s)));
        });
    });
    c.bench_function("protocol/reject_queue_bounce_retx", |b| {
        let mut q = RejectQueue::new(256);
        b.iter(|| {
            let s = q.reserve(0, 1 << 40).expect("capacity");
            q.bounce(s, gen_tag(q.gen(s)));
            let s2 = q.pop_retransmit(0).expect("just bounced");
            q.ack(black_box(s2), gen_tag(q.gen(s2)));
        });
    });
}

criterion_group!(
    benches,
    bench_codec,
    bench_endpoint_cycle,
    bench_reject_queue
);
criterion_main!(benches);
