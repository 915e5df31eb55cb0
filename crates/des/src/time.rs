//! Integer simulation time.
//!
//! Times are **picoseconds in a `u64`** (reach: ~213 days of simulated time)
//! so that every cost constant from the paper — 12.5 ns/byte links, 40 ns
//! LANai cycles, 320 ns DMA setup — is exactly representable. Floating point
//! time would accumulate rounding and break run-to-run determinism across
//! optimization levels.
//!
//! All arithmetic here is **checked in every build profile**. The original
//! operators compiled down to plain `+`/`-`/`*`, which panic under debug
//! assertions but silently wrap in release — and release is exactly how the
//! long simulation runs are made. A wrapped `Time` would reorder
//! the pending-event set and corrupt a simulation without any diagnostic, so
//! (mirroring the release-guard policy used for the protocol invariants in
//! `fm-core`) overflow and underflow are promoted to explicit panics with a
//! message naming the operation. Callers that want fallible arithmetic use
//! [`Time::checked_add`] / [`Duration::checked_add`] /
//! [`Duration::checked_mul`], and the saturating variants remain for spans
//! that may legitimately clamp.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// Unit-count → picoseconds conversion that panics (in every profile, const
/// contexts included) instead of wrapping when the count exceeds u64 reach.
#[inline]
const fn checked_scale(count: u64, ps_per_unit: u64) -> u64 {
    match count.checked_mul(ps_per_unit) {
        Some(ps) => ps,
        None => panic!("time value overflows u64 picoseconds (~213 days)"),
    }
}

/// An absolute instant in simulated time (picoseconds since t=0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time (picoseconds).
///
/// Distinct from [`Time`] so the type system rejects `instant + instant`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

macro_rules! ctors {
    ($ty:ident) => {
        impl $ty {
            pub const ZERO: $ty = $ty(0);

            /// From picoseconds.
            #[inline]
            pub const fn from_ps(ps: u64) -> Self {
                $ty(ps)
            }
            /// From nanoseconds.
            ///
            /// # Panics
            /// If the value exceeds the ~213-day reach of u64 picoseconds.
            #[inline]
            pub const fn from_ns(ns: u64) -> Self {
                $ty(checked_scale(ns, PS_PER_NS))
            }
            /// From microseconds.
            ///
            /// # Panics
            /// If the value exceeds the ~213-day reach of u64 picoseconds.
            #[inline]
            pub const fn from_us(us: u64) -> Self {
                $ty(checked_scale(us, PS_PER_US))
            }
            /// From milliseconds.
            ///
            /// # Panics
            /// If the value exceeds the ~213-day reach of u64 picoseconds.
            #[inline]
            pub const fn from_ms(ms: u64) -> Self {
                $ty(checked_scale(ms, PS_PER_MS))
            }
            /// From seconds.
            ///
            /// # Panics
            /// If the value exceeds the ~213-day reach of u64 picoseconds.
            #[inline]
            pub const fn from_s(s: u64) -> Self {
                $ty(checked_scale(s, PS_PER_S))
            }
            /// Raw picoseconds.
            #[inline]
            pub const fn as_ps(self) -> u64 {
                self.0
            }
            /// As (truncated) nanoseconds.
            #[inline]
            pub const fn as_ns(self) -> u64 {
                self.0 / PS_PER_NS
            }
            /// As fractional nanoseconds.
            #[inline]
            pub fn as_ns_f64(self) -> f64 {
                self.0 as f64 / PS_PER_NS as f64
            }
            /// As fractional microseconds.
            #[inline]
            pub fn as_us_f64(self) -> f64 {
                self.0 as f64 / PS_PER_US as f64
            }
            /// As fractional seconds.
            #[inline]
            pub fn as_secs_f64(self) -> f64 {
                self.0 as f64 / PS_PER_S as f64
            }
        }
    };
}
ctors!(Time);
ctors!(Duration);

impl Duration {
    /// Duration from a fractional count of nanoseconds, rounded to the
    /// nearest picosecond. Used for per-byte costs like 12.5 ns/B.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0 && ns.is_finite(), "invalid duration: {ns} ns");
        Duration((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Fallible addition: `None` on u64 picosecond overflow.
    #[inline]
    pub const fn checked_add(self, rhs: Duration) -> Option<Duration> {
        match self.0.checked_add(rhs.0) {
            Some(ps) => Some(Duration(ps)),
            None => None,
        }
    }

    /// Fallible scaling: `None` on u64 picosecond overflow.
    #[inline]
    pub const fn checked_mul(self, rhs: u64) -> Option<Duration> {
        match self.0.checked_mul(rhs) {
            Some(ps) => Some(Duration(ps)),
            None => None,
        }
    }

    /// Saturating addition (clamps at the ~213-day u64 reach).
    #[inline]
    pub const fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Saturating scaling (clamps at the ~213-day u64 reach). The
    /// exponential-backoff doublers use this so a runaway retry count
    /// clamps instead of aborting the run.
    #[inline]
    pub const fn saturating_mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// `self * num / den` with intermediate u128 precision — used for
    /// byte-count scaling without overflow.
    #[inline]
    pub fn mul_div(self, num: u64, den: u64) -> Duration {
        debug_assert!(den != 0);
        Duration((self.0 as u128 * num as u128 / den as u128) as u64)
    }
}

impl Time {
    /// Fallible advance: `None` on u64 picosecond overflow.
    #[inline]
    pub const fn checked_add(self, rhs: Duration) -> Option<Time> {
        match self.0.checked_add(rhs.0) {
            Some(ps) => Some(Time(ps)),
            None => None,
        }
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier > self` — a negative span is always a scheduling
    /// bug, and letting it wrap to ~2^64 ps in release silently corrupts
    /// any statistic it feeds.
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        assert!(earlier <= self, "since() with a later instant");
        Duration(self.0 - earlier.0)
    }

    /// Saturating version of [`Time::since`].
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(
            self.0
                .checked_add(rhs.0)
                .expect("Time + Duration overflows u64 picoseconds (~213 days)"),
        )
    }
}
impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}
impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Duration) -> Time {
        Time(
            self.0
                .checked_sub(rhs.0)
                .expect("Time - Duration underflows t=0"),
        )
    }
}
impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}
impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        self.checked_add(rhs)
            .expect("Duration + Duration overflows u64 picoseconds (~213 days)")
    }
}
impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}
impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("Duration - Duration underflows (negative span)"),
        )
    }
}
impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}
impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        self.checked_mul(rhs)
            .expect("Duration * count overflows u64 picoseconds (~213 days)")
    }
}
impl Mul<Duration> for u64 {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: Duration) -> Duration {
        rhs * self
    }
}
impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}
impl Div<Duration> for Duration {
    type Output = u64;
    /// How many whole `rhs` spans fit in `self`.
    #[inline]
    fn div(self, rhs: Duration) -> u64 {
        self.0 / rhs.0
    }
}
impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Duration(self.0))
    }
}

impl fmt::Display for Duration {
    /// Human-readable with an auto-selected unit: `1.234 us`, `17 ns`, …
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= PS_PER_S {
            write!(f, "{:.3} s", ps as f64 / PS_PER_S as f64)
        } else if ps >= PS_PER_MS {
            write!(f, "{:.3} ms", ps as f64 / PS_PER_MS as f64)
        } else if ps >= PS_PER_US {
            write!(f, "{:.3} us", ps as f64 / PS_PER_US as f64)
        } else if ps >= PS_PER_NS {
            write!(f, "{:.3} ns", ps as f64 / PS_PER_NS as f64)
        } else {
            write!(f, "{ps} ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_roundtrip() {
        assert_eq!(Time::from_ns(1).as_ps(), 1_000);
        assert_eq!(Time::from_us(1).as_ns(), 1_000);
        assert_eq!(Time::from_ms(2).as_ps(), 2 * PS_PER_MS);
        assert_eq!(Duration::from_s(1).as_ps(), PS_PER_S);
        assert_eq!(Duration::from_ns(1500).as_ns(), 1500);
    }

    #[test]
    fn fractional_ns_rounds_to_ps() {
        assert_eq!(Duration::from_ns_f64(12.5).as_ps(), 12_500);
        assert_eq!(Duration::from_ns_f64(0.0004).as_ps(), 0); // sub-ps rounds down
        assert_eq!(Duration::from_ns_f64(0.0006).as_ps(), 1);
    }

    #[test]
    fn arithmetic_identities() {
        let t = Time::from_ns(100);
        let d = Duration::from_ns(30);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 3, Duration::from_ns(90));
        assert_eq!(3 * d, Duration::from_ns(90));
        assert_eq!(d / 2, Duration::from_ns(15));
        assert_eq!(Duration::from_ns(90) / d, 3);
    }

    #[test]
    fn mul_div_avoids_overflow() {
        // 12.5 ns/byte * 1 GiB would overflow a naive u64 multiply in ps.
        let per_byte = Duration::from_ns_f64(12.5);
        let total = per_byte.mul_div(1 << 30, 1);
        assert_eq!(total.as_ns(), 12_500 * (1 << 30) / 1000);
    }

    #[test]
    fn saturating_ops() {
        let a = Duration::from_ns(5);
        let b = Duration::from_ns(9);
        assert_eq!(a.saturating_sub(b), Duration::ZERO);
        assert_eq!(b.saturating_sub(a), Duration::from_ns(4));
        assert_eq!(
            Time::from_ns(5).saturating_since(Time::from_ns(9)),
            Duration::ZERO
        );
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(format!("{}", Duration::from_ns(17)), "17.000 ns");
        assert_eq!(format!("{}", Duration::from_us(1234)), "1.234 ms");
        assert_eq!(format!("{}", Duration::from_ps(3)), "3 ps");
        assert_eq!(format!("{}", Duration::from_s(2)), "2.000 s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = (1..=4).map(Duration::from_ns).sum();
        assert_eq!(total, Duration::from_ns(10));
    }
}
