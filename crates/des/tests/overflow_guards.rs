//! Regression tests for the time/stat overflow audit.
//!
//! At million-endpoint event counts the simulation clock and the
//! per-campaign counters run far beyond anything the two-node testbed ever
//! produced, and the original `Time`/`Duration` operators compiled to
//! unchecked integer arithmetic: panicking under debug assertions, silently
//! *wrapping* in release — the profile every campaign actually runs in. A
//! wrapped instant reorders the pending-event set with no diagnostic at
//! all. These tests pin the promoted guards: every operator is now checked
//! in every profile, fallible and saturating variants exist for callers
//! with a real clamping need, and the engine's schedule-into-the-past
//! guard holds in release.
//!
//! Run in release (`cargo test --release -p fm-des --test overflow_guards`)
//! these tests only mean something because the guards are `assert!`/
//! `checked_*`, not `debug_assert!`.

use fm_des::{Duration, Engine, Time};

/// The largest in-range duration: u64::MAX picoseconds (~213 days).
const MAX_D: Duration = Duration(u64::MAX);

#[test]
#[should_panic(expected = "overflows u64 picoseconds")]
fn time_plus_duration_overflow_panics() {
    let _ = Time(u64::MAX - 5) + Duration::from_ns(1);
}

#[test]
#[should_panic(expected = "overflows u64 picoseconds")]
fn time_add_assign_overflow_panics() {
    let mut t = Time(u64::MAX);
    t += Duration::from_ps(1);
}

#[test]
#[should_panic(expected = "underflows t=0")]
fn time_minus_duration_underflow_panics() {
    let _ = Time::from_ns(1) - Duration::from_us(1);
}

#[test]
#[should_panic(expected = "later instant")]
fn since_with_later_instant_panics_in_release_too() {
    let _ = Time::from_ns(5).since(Time::from_ns(9));
}

#[test]
#[should_panic(expected = "overflows u64 picoseconds")]
fn duration_sum_overflow_panics() {
    let _: Duration = [MAX_D, Duration::from_ps(1)].into_iter().sum();
}

#[test]
#[should_panic(expected = "overflows u64 picoseconds")]
fn duration_mul_overflow_panics() {
    // A per-frame cost times a u64 event count beyond reach must abort,
    // not wrap to a tiny bogus cost.
    let _ = Duration::from_ms(1) * u64::MAX;
}

#[test]
#[should_panic(expected = "negative span")]
fn duration_sub_underflow_panics() {
    let _ = Duration::from_ns(1) - Duration::from_ns(2);
}

#[test]
#[should_panic(expected = "overflows u64 picoseconds")]
fn from_unit_constructor_overflow_panics() {
    // u64::MAX microseconds is ~584 000 years; it must not wrap into a
    // small positive pick count.
    let _ = Duration::from_us(u64::MAX);
}

#[test]
fn checked_variants_report_instead_of_panicking() {
    assert_eq!(Time(u64::MAX).checked_add(Duration::from_ps(1)), None);
    assert_eq!(
        Time::from_ns(1).checked_add(Duration::from_ns(2)),
        Some(Time::from_ns(3))
    );
    assert_eq!(MAX_D.checked_add(Duration::from_ps(1)), None);
    assert_eq!(MAX_D.checked_mul(2), None);
    assert_eq!(
        Duration::from_ns(3).checked_mul(4),
        Some(Duration::from_ns(12))
    );
}

#[test]
fn saturating_variants_clamp_at_reach() {
    assert_eq!(MAX_D.saturating_add(Duration::from_s(1)), MAX_D);
    assert_eq!(MAX_D.saturating_mul(7), MAX_D);
    // An exponential-backoff doubler that overshoots clamps instead of
    // wrapping to a near-zero retransmit timer.
    let mut rto = Duration::from_us(500);
    for _ in 0..80 {
        rto = rto.saturating_mul(2);
    }
    assert_eq!(rto, MAX_D);
}

#[test]
fn campaign_scale_arithmetic_stays_in_range() {
    // A 1M-endpoint campaign: ~100M events, microsecond-scale spacing,
    // second-scale horizon — verify the reach argument holds with margin.
    let horizon = Time::ZERO + Duration::from_s(3600); // one simulated hour
    let per_event = Duration::from_ns(1_470);
    let events: u64 = 100_000_000;
    let total = per_event * events; // 147 s of busy time: fine
    assert!(total < Duration::from_s(150));
    assert!(horizon.checked_add(total).is_some());
}

#[test]
#[should_panic(expected = "past")]
fn engine_rejects_past_schedule_in_release() {
    let mut eng: Engine<u32> = Engine::new();
    eng.schedule_at(Time::from_us(10), 1);
    let _ = eng.pop();
    eng.schedule_at(Time::from_us(9), 2);
}

#[test]
fn stat_counters_are_u64_wide() {
    // The audit found the event/sample counters already u64 (Summary::n,
    // Engine::dispatched); this pins the width so a refactor to u32 — fine
    // at testbed scale, wrapping at campaign scale — fails loudly here.
    let mut s = fm_des::stats::Summary::new();
    s.record(1.0);
    let _: u64 = s.count();
    let eng: Engine<u32> = Engine::new();
    let _: u64 = eng.dispatched();
}
