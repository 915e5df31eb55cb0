//! Ablation: binary-heap engine vs calendar queue for the pending-event
//! set, on the workload shapes this repository actually generates (bursty
//! NIC service patterns and uniform random holds). Documents why the heap
//! is the default.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fm_des::calendar::CalendarQueue;
use fm_des::rng::Xoshiro256;
use fm_des::{Engine, Time};
use std::hint::black_box;

const OPS: u64 = 10_000;

/// Hold-model workload: pop one event, schedule one `delay` ahead —
/// the classic DES churn pattern.
fn bench_hold(c: &mut Criterion) {
    let mut g = c.benchmark_group("des_queue/hold");
    g.throughput(Throughput::Elements(OPS));
    for &pending in &[64usize, 4096] {
        g.bench_with_input(
            BenchmarkId::new("heap", pending),
            &pending,
            |b, &pending| {
                b.iter(|| {
                    let mut rng = Xoshiro256::seed_from_u64(1);
                    let mut e: Engine<u64> = Engine::new();
                    for i in 0..pending as u64 {
                        e.schedule_at(Time::from_ps(rng.next_below(1_000_000)), i);
                    }
                    for _ in 0..OPS {
                        let (t, v) = e.pop().expect("queue never drains");
                        e.schedule_at(
                            t + fm_des::Duration::from_ps(rng.next_below(100_000) + 1),
                            v,
                        );
                    }
                    black_box(e.pending());
                });
            },
        );
        g.bench_with_input(
            BenchmarkId::new("calendar", pending),
            &pending,
            |b, &pending| {
                b.iter(|| {
                    let mut rng = Xoshiro256::seed_from_u64(1);
                    let mut q: CalendarQueue<u64> = CalendarQueue::new(10_000, pending);
                    for i in 0..pending as u64 {
                        q.push(Time::from_ps(rng.next_below(1_000_000)), i);
                    }
                    for _ in 0..OPS {
                        let (t, v) = q.pop().expect("queue never drains");
                        q.push(
                            t + fm_des::Duration::from_ps(rng.next_below(100_000) + 1),
                            v,
                        );
                    }
                    black_box(q.len());
                });
            },
        );
    }
    g.finish();
}

/// Bursty NIC pattern: clusters of near-simultaneous events separated by
/// long gaps — the calendar queue's worst case.
fn bench_bursty(c: &mut Criterion) {
    let mut g = c.benchmark_group("des_queue/bursty");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("heap", |b| {
        b.iter(|| {
            let mut e: Engine<u64> = Engine::new();
            let mut t = 0u64;
            let mut popped = 0u64;
            while popped < OPS {
                for i in 0..16 {
                    e.schedule_at(Time::from_ps(t + i), i);
                }
                t += 50_000_000; // 50 us gap between bursts
                while let Some(x) = e.pop() {
                    black_box(x);
                    popped += 1;
                }
            }
        });
    });
    g.bench_function("calendar", |b| {
        b.iter(|| {
            let mut q: CalendarQueue<u64> = CalendarQueue::new(1_000, 64);
            let mut t = 0u64;
            let mut popped = 0u64;
            while popped < OPS {
                for i in 0..16 {
                    q.push(Time::from_ps(t + i), i);
                }
                t += 50_000_000;
                while let Some(x) = q.pop() {
                    black_box(x);
                    popped += 1;
                }
            }
        });
    });
    g.finish();
}

criterion_group!(benches, bench_hold, bench_bursty);
criterion_main!(benches);
