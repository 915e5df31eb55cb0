//! One monotonic nanosecond clock for spans, latency stamps and segments.

use std::sync::OnceLock;
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}
