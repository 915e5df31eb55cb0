//! Time sources and round-trip estimation for real-network fabrics.
//!
//! The protocol core keeps a single `now: u64` and compares it against
//! retransmission deadlines; *what* that number means is the
//! [`TimeSource`]'s business. The in-memory fabrics use the virtual tick
//! (one unit per `extract` call), which keeps every protocol run
//! deterministic and replayable. A real-socket fabric cannot: wire latency
//! is physical, so a fixed tick timer either spins (ticks racing far ahead
//! of the wire, retransmitting frames that are merely in flight) or stalls
//! (a blocked extract loop freezing every deadline). [`TimeSource::WallMicros`]
//! maps `now` to elapsed wall-clock microseconds instead, and the
//! [`RttEstimator`] adapts the retransmission timeout to the measured ack
//! round trip per RFC 6298 — SRTT/RTTVAR smoothing with Karn's rule
//! (retransmitted slots never contribute samples, because their ack is
//! ambiguous between transmissions).

use std::time::Instant;

/// What one unit of the endpoint's `now` clock means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeSource {
    /// One unit per `extract` call — no real-time dependency, fully
    /// deterministic. The default, and what every in-memory fabric and
    /// the testbed simulator use.
    #[default]
    VirtualTick,
    /// Elapsed wall-clock microseconds since the endpoint was built, read
    /// at each `extract` and each batch of arrivals and never run ahead
    /// of the wall clock: a burst of calls inside one microsecond reads
    /// one value, so every endpoint's clock is one constant offset from
    /// every other's. The UDP fabric forces this mode.
    WallMicros,
}

/// RFC 6298 retransmission-timeout estimator, in integer clock units
/// (microseconds under [`TimeSource::WallMicros`]).
///
/// First sample: `srtt = rtt`, `rttvar = rtt / 2`. After that:
/// `rttvar = 3/4 rttvar + 1/4 |srtt - rtt|`, `srtt = 7/8 srtt + 1/8 rtt`.
/// The published RTO is `srtt + max(4 * rttvar, 1)` clamped to
/// `[min_rto, max_rto]` — the clamp floor replaces the RFC's 1-second
/// minimum, which would be absurd on a microsecond-scale loopback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RttEstimator {
    srtt: u64,
    rttvar: u64,
    rto: u64,
    min_rto: u64,
    max_rto: u64,
    samples: u64,
}

impl RttEstimator {
    /// Start with `initial_rto` (used until the first sample arrives) and
    /// clamp every adapted RTO into `[min_rto, max_rto]`.
    pub fn new(initial_rto: u64, min_rto: u64, max_rto: u64) -> Self {
        let min_rto = min_rto.max(1);
        let max_rto = max_rto.max(min_rto);
        RttEstimator {
            srtt: 0,
            rttvar: 0,
            rto: initial_rto.clamp(min_rto, max_rto),
            min_rto,
            max_rto,
            samples: 0,
        }
    }

    /// Fold in one send→ack round-trip measurement. The caller enforces
    /// Karn's rule: samples from slots that were ever retransmitted must
    /// not reach this method.
    pub fn on_sample(&mut self, rtt: u64) {
        if self.samples == 0 {
            self.srtt = rtt;
            self.rttvar = rtt / 2;
        } else {
            let deviation = self.srtt.abs_diff(rtt);
            self.rttvar = (3 * self.rttvar + deviation) / 4;
            self.srtt = (7 * self.srtt + rtt) / 8;
        }
        self.samples += 1;
        self.rto = (self.srtt + (4 * self.rttvar).max(1)).clamp(self.min_rto, self.max_rto);
    }

    /// The current retransmission timeout.
    pub fn rto(&self) -> u64 {
        self.rto
    }

    /// Smoothed round-trip time, once at least one sample has landed.
    pub fn srtt(&self) -> Option<u64> {
        (self.samples > 0).then_some(self.srtt)
    }

    /// Round-trip variance estimate, once at least one sample has landed.
    pub fn rttvar(&self) -> Option<u64> {
        (self.samples > 0).then_some(self.rttvar)
    }

    /// Samples folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The clamp bounds `(min_rto, max_rto)` every published RTO obeys.
    pub fn bounds(&self) -> (u64, u64) {
        (self.min_rto, self.max_rto)
    }
}

/// A monotonic microsecond clock for transport-level pacing (handshake
/// retries and the like) that must not depend on the endpoint's
/// configured [`TimeSource`].
#[derive(Debug, Clone, Copy)]
pub struct MicroClock {
    origin: Instant,
}

impl MicroClock {
    pub fn start() -> Self {
        MicroClock {
            origin: Instant::now(),
        }
    }

    /// Microseconds elapsed since [`MicroClock::start`].
    pub fn micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// One round of splitmix64 — the mixer behind the seed derivations here
/// and the trace-id minting in `endpoint/send.rs`.
#[inline]
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the retransmit-jitter PRNG seed for one endpoint from the run
/// seed and the node id. Pure and stable across processes: a multi-node
/// soak split over several OS processes reproduces the exact per-node
/// jitter sequences of the same soak run in one process, as long as every
/// process was handed the same run seed. (The previous scheme folded the
/// node id into a constant with xor — fine in one address space, but with
/// no run-seed input at all, so separate processes could never be steered
/// from a single seed.)
pub fn derive_jitter_seed(run_seed: u64, node: u16) -> u64 {
    splitmix64(splitmix64(run_seed) ^ ((node as u64) << 17) ^ (node as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes_per_rfc() {
        let mut e = RttEstimator::new(2048, 1, 1 << 16);
        assert_eq!(e.rto(), 2048, "initial RTO holds before any sample");
        assert_eq!(e.srtt(), None);
        e.on_sample(100);
        assert_eq!(e.srtt(), Some(100));
        assert_eq!(e.rttvar(), Some(50));
        assert_eq!(e.rto(), 100 + 200);
    }

    #[test]
    fn converges_to_constant_rtt() {
        let mut e = RttEstimator::new(2048, 1, 1 << 16);
        for _ in 0..64 {
            e.on_sample(500);
        }
        assert_eq!(e.srtt(), Some(500));
        // Variance decays toward zero on a constant trace; the max(.., 1)
        // keeps the RTO strictly above SRTT.
        assert!(e.rttvar().unwrap() <= 1, "{e:?}");
        assert!(e.rto() > 500 && e.rto() <= 510, "{e:?}");
    }

    #[test]
    fn rto_respects_clamp_bounds() {
        let mut e = RttEstimator::new(1000, 400, 5000);
        e.on_sample(1); // tiny RTT: clamped up to min_rto
        assert_eq!(e.rto(), 400);
        for _ in 0..8 {
            e.on_sample(1_000_000); // huge RTT: clamped down to max_rto
        }
        assert_eq!(e.rto(), 5000);
    }

    #[test]
    fn jitter_seed_is_pure_and_decorrelated() {
        assert_eq!(derive_jitter_seed(7, 3), derive_jitter_seed(7, 3));
        assert_ne!(derive_jitter_seed(7, 3), derive_jitter_seed(7, 4));
        assert_ne!(derive_jitter_seed(7, 3), derive_jitter_seed(8, 3));
        // Zero inputs still mix to something non-degenerate.
        assert_ne!(derive_jitter_seed(0, 0), 0);
    }
}
