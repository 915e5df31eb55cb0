//! Property tests for the DES substrate itself — the engine's pending-event
//! set, the RNG streams, and the statistics collectors the
//! million-endpoint campaigns lean on. These suites pin the contracts the
//! simulator assumes:
//!
//! * the `Engine` is observationally equivalent to a reference binary-heap
//!   pending-event set on *random* push/pop interleavings, including the
//!   FIFO tie-break for equal timestamps (dispatch order = insert order);
//! * RNG splitting is reproducible: the same parent state always derives
//!   the same child streams, children are independent of *when* they are
//!   consumed, and `jump()` produces the canonical 2^128-decorrelated
//!   stream;
//! * the streaming moment estimators agree with exact two-pass
//!   computations, and merging partial summaries equals sequential
//!   recording.

use fm_des::rng::Xoshiro256;
use fm_des::stats::{Summary, TimeWeighted};
use fm_des::{Engine, Time};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reference pending-event set: a plain `BinaryHeap` ordered by
/// `(time, seq)` — the deterministic tie-break the engine documents.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(Time, u64, u64)>>,
    seq: u64,
}

impl HeapModel {
    fn push(&mut self, t: Time, v: u64) {
        self.heap.push(Reverse((t, self.seq, v)));
        self.seq += 1;
    }
    fn pop(&mut self) -> Option<(Time, u64)> {
        self.heap.pop().map(|Reverse((t, _, v))| (t, v))
    }
}

proptest! {
    /// Random interleavings of pushes (with random forward offsets,
    /// including ties) and pops drain identically from the production
    /// `Engine` and the binary-heap model.
    #[test]
    fn engine_matches_heap_model(
        offsets in prop::collection::vec(0u64..20_000, 1..400),
        pop_bits in prop::collection::vec(any::<bool>(), 1..400),
    ) {
        let mut model = HeapModel::default();
        let mut eng: Engine<u64> = Engine::new();
        let mut horizon = 0u64; // pushes never go behind the last pop
        for (i, &off) in offsets.iter().enumerate() {
            // Bias ties: every third event lands exactly on the horizon.
            let t = Time::from_ps(horizon + if i % 3 == 0 { 0 } else { off });
            model.push(t, i as u64);
            eng.schedule_at(t, i as u64);
            if pop_bits[i % pop_bits.len()] {
                let got = eng.pop();
                prop_assert_eq!(got, model.pop());
                if let Some((pt, _)) = got {
                    horizon = horizon.max(pt.as_ps());
                }
            }
        }
        loop {
            match (eng.pop(), model.pop()) {
                (None, None) => break,
                (a, b) => prop_assert_eq!(a, b),
            }
        }
    }

    /// Equal-time events drain in insertion order — the FIFO tie-break is
    /// deterministic, not incidental.
    #[test]
    fn equal_time_events_stay_fifo(n in 1usize..200, t_ps in 0u64..1_000_000) {
        let t = Time::from_ps(t_ps);
        let mut eng: Engine<usize> = Engine::new();
        for i in 0..n {
            eng.schedule_at(t, i);
        }
        for i in 0..n {
            prop_assert_eq!(eng.pop(), Some((t, i)));
        }
    }

    /// Splitting is a pure function of the parent state: two parents
    /// seeded identically derive bit-identical child streams, no matter
    /// how consumption of parent and children interleaves afterwards.
    #[test]
    fn rng_split_reproducible(seed in any::<u64>(), splits in 1usize..8) {
        let mut parent_a = Xoshiro256::seed_from_u64(seed);
        let mut parent_b = Xoshiro256::seed_from_u64(seed);

        // Parent A: split everything up front, then consume children.
        let mut children_a: Vec<Xoshiro256> =
            (0..splits).map(|_| parent_a.split()).collect();
        let streams_a: Vec<Vec<u64>> = children_a
            .iter_mut()
            .map(|c| (0..16).map(|_| c.next_u64()).collect())
            .collect();

        // Parent B: interleave splitting with child consumption.
        let mut streams_b = Vec::new();
        for _ in 0..splits {
            let mut c = parent_b.split();
            streams_b.push((0..16).map(|_| c.next_u64()).collect::<Vec<u64>>());
        }
        prop_assert_eq!(&streams_a, &streams_b);

        // After the splits both parents continue identically.
        for _ in 0..8 {
            prop_assert_eq!(parent_a.next_u64(), parent_b.next_u64());
        }

        // Sibling streams must not collide (16 draws each).
        for i in 0..streams_a.len() {
            for j in i + 1..streams_a.len() {
                prop_assert_ne!(&streams_a[i], &streams_a[j]);
            }
        }
    }

    /// `jump()` is deterministic and decorrelates: a jumped clone shares
    /// no prefix with its origin but equals any other jumped clone.
    #[test]
    fn rng_jump_reproducible(seed in any::<u64>()) {
        let base = Xoshiro256::seed_from_u64(seed);
        let mut j1 = base.clone();
        let mut j2 = base.clone();
        j1.jump();
        j2.jump();
        let mut plain = base.clone();
        let a: Vec<u64> = (0..32).map(|_| j1.next_u64()).collect();
        let b: Vec<u64> = (0..32).map(|_| j2.next_u64()).collect();
        let c: Vec<u64> = (0..32).map(|_| plain.next_u64()).collect();
        prop_assert_eq!(&a, &b);
        prop_assert_ne!(&a, &c);
    }

    /// Welford moments agree with the exact two-pass computation, and a
    /// merge of partial summaries equals sequential recording.
    #[test]
    fn summary_matches_exact_moments(
        raw in prop::collection::vec(0u64..1_000_000, 2..300),
        cut in any::<u64>(),
    ) {
        let xs: Vec<f64> = raw.iter().map(|&v| v as f64 / 7.0 - 1_000.0).collect();
        let mut s = Summary::new();
        for &x in &xs {
            s.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let scale = 1.0 + mean.abs() + var.abs();
        prop_assert!((s.mean() - mean).abs() / scale < 1e-9,
            "mean {} vs exact {}", s.mean(), mean);
        prop_assert!((s.variance() - var).abs() / scale < 1e-6,
            "variance {} vs exact {}", s.variance(), var);
        prop_assert_eq!(s.min(), min);
        prop_assert_eq!(s.max(), max);
        prop_assert_eq!(s.count(), xs.len() as u64);

        let k = (cut as usize) % xs.len();
        let (lo, hi) = xs.split_at(k);
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in lo { a.record(x); }
        for &x in hi { b.record(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), s.count());
        prop_assert!((a.mean() - s.mean()).abs() / scale < 1e-9);
        if xs.len() >= 2 && k >= 1 {
            prop_assert!((a.variance() - s.variance()).abs() / scale < 1e-6);
        }
    }

    /// Time-weighted averaging equals the exact piecewise integral.
    #[test]
    fn time_weighted_matches_exact_integral(
        dts in prop::collection::vec(1u64..10_000, 1..100),
        vals in prop::collection::vec(0u64..1_000, 1..100),
    ) {
        let mut tw = TimeWeighted::new(Time::ZERO, 0.0);
        let mut now = 0u64;
        let mut integral = 0.0;
        let mut value = 0.0;
        for (i, &dt) in dts.iter().enumerate() {
            let v = vals[i % vals.len()];
            integral += value * dt as f64;
            now += dt;
            value = v as f64;
            tw.set(Time::from_ps(now), value);
        }
        // Let the last value run for one more step.
        let end = now + 500;
        integral += value * 500.0;
        let exact = integral / end as f64;
        let got = tw.average(Time::from_ps(end));
        prop_assert!((got - exact).abs() < 1e-9 * (1.0 + exact.abs()),
            "time-weighted {} vs exact {}", got, exact);
    }
}
