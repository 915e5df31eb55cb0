//! # fm-des — deterministic discrete-event simulation engine
//!
//! The substrate under every timed experiment in this workspace. The paper's
//! evaluation ([Pakin et al., SC '95]) measures one-way latency and streaming
//! bandwidth of successive messaging-layer configurations on real 1995
//! hardware; we replay those configurations inside a discrete-event simulator
//! whose cost constants come from the paper itself.
//!
//! Design goals, in priority order:
//!
//! 1. **Determinism** — integer picosecond time ([`Time`]), FIFO tie-breaking
//!    by a monotonically increasing sequence number, and a seedable
//!    [`rng::SplitMix64`]/[`rng::Xoshiro256`] RNG. Two runs with the same
//!    seed produce bit-identical event orders, so every figure regenerates
//!    exactly.
//! 2. **Zero `Rc<RefCell<…>>`** — the engine is a plain priority queue of
//!    user-defined event values ([`Engine`]); the *world* that interprets
//!    events lives outside the engine and is borrowed mutably only in the
//!    caller's dispatch loop. This sidesteps the classic Rust-DES ownership
//!    tangle and keeps components independently unit-testable.
//! 3. **Throughput** — the hot path is `BinaryHeap` push/pop of a 24-byte
//!    entry plus an enum dispatch; tens of millions of events per second,
//!    enough to stream the paper's 65 535-packet bandwidth tests in
//!    milliseconds.

pub mod rng;
pub mod stats;
pub mod time;

pub use time::{Duration, Time};

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event: fire `event` at `time`. `seq` breaks ties FIFO.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the *earliest* entry.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The discrete-event engine: a clock plus a deterministic pending-event set.
///
/// `E` is the caller's event type (typically one enum per simulated world).
/// The engine never interprets events; the caller runs the dispatch loop:
///
/// ```
/// use fm_des::{Duration, Engine, Time};
///
/// #[derive(Debug)]
/// enum Ev { Ping, Pong }
///
/// let mut eng: Engine<Ev> = Engine::new();
/// eng.schedule_in(Duration::from_ns(5), Ev::Ping);
/// let mut log = Vec::new();
/// while let Some((t, ev)) = eng.pop() {
///     match ev {
///         Ev::Ping => {
///             log.push((t, "ping"));
///             eng.schedule_in(Duration::from_ns(7), Ev::Pong);
///         }
///         Ev::Pong => log.push((t, "pong")),
///     }
/// }
/// assert_eq!(log, vec![(Time::from_ns(5), "ping"), (Time::from_ns(12), "pong")]);
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: Time,
    seq: u64,
    dispatched: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// New engine with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        Engine {
            heap: BinaryHeap::new(),
            now: Time::ZERO,
            seq: 0,
            dispatched: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events dispatched (popped) so far.
    #[inline]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at the absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — an event scheduled before `now()`
    /// indicates a model bug, and silently clamping would corrupt causality.
    #[inline]
    pub fn schedule_at(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            event,
        });
    }

    /// Schedule `event` after the relative delay `delay`.
    #[inline]
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` at the current instant (after already-pending events
    /// with the same timestamp, preserving FIFO order).
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Pop the earliest pending event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.time >= self.now, "heap returned an out-of-order event");
        self.now = s.time;
        self.dispatched += 1;
        Some((s.time, s.event))
    }

    /// Peek at the timestamp of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.time)
    }

    /// Drop every pending event (the clock keeps its value).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Run the dispatch loop until the event set drains or `f` returns
    /// [`std::ops::ControlFlow::Break`].
    pub fn run_until<F>(&mut self, mut f: F) -> Time
    where
        F: FnMut(&mut Self, Time, E) -> std::ops::ControlFlow<()>,
    {
        while let Some((t, ev)) = self.pop() {
            if f(self, t, ev).is_break() {
                break;
            }
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    enum Ev {
        A(u32),
        B(u32),
    }

    #[test]
    fn pops_in_time_order() {
        let mut e: Engine<Ev> = Engine::new();
        e.schedule_at(Time::from_ns(30), Ev::A(3));
        e.schedule_at(Time::from_ns(10), Ev::A(1));
        e.schedule_at(Time::from_ns(20), Ev::A(2));
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).collect();
        assert_eq!(
            order,
            vec![
                (Time::from_ns(10), Ev::A(1)),
                (Time::from_ns(20), Ev::A(2)),
                (Time::from_ns(30), Ev::A(3)),
            ]
        );
    }

    #[test]
    fn ties_break_fifo() {
        let mut e: Engine<Ev> = Engine::new();
        let t = Time::from_ns(5);
        for i in 0..100 {
            e.schedule_at(t, Ev::B(i));
        }
        for i in 0..100 {
            assert_eq!(e.pop(), Some((t, Ev::B(i))));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut e: Engine<Ev> = Engine::new();
        e.schedule_in(Duration::from_ns(7), Ev::A(0));
        e.pop();
        assert_eq!(e.now(), Time::from_ns(7));
        e.schedule_in(Duration::from_ns(3), Ev::A(1));
        e.pop();
        assert_eq!(e.now(), Time::from_ns(10));
        assert!(e.is_idle());
        assert_eq!(e.dispatched(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut e: Engine<Ev> = Engine::new();
        e.schedule_at(Time::from_ns(10), Ev::A(0));
        e.pop();
        e.schedule_at(Time::from_ns(9), Ev::A(1));
    }

    #[test]
    fn schedule_now_preserves_fifo_after_pop() {
        let mut e: Engine<Ev> = Engine::new();
        e.schedule_at(Time::from_ns(4), Ev::A(0));
        e.pop();
        e.schedule_now(Ev::A(1));
        e.schedule_now(Ev::A(2));
        assert_eq!(e.pop(), Some((Time::from_ns(4), Ev::A(1))));
        assert_eq!(e.pop(), Some((Time::from_ns(4), Ev::A(2))));
    }

    #[test]
    fn run_until_break_stops_early() {
        let mut e: Engine<Ev> = Engine::new();
        for i in 0..10 {
            e.schedule_at(Time::from_ns(i), Ev::A(i as u32));
        }
        let mut seen = 0;
        e.run_until(|_, _, _| {
            seen += 1;
            if seen == 4 {
                std::ops::ControlFlow::Break(())
            } else {
                std::ops::ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, 4);
        assert_eq!(e.pending(), 6);
    }

    #[test]
    fn run_until_drains() {
        let mut e: Engine<Ev> = Engine::new();
        e.schedule_at(Time::from_ns(1), Ev::A(0));
        e.schedule_at(Time::from_ns(2), Ev::A(1));
        let end = e.run_until(|eng, t, ev| {
            // A cascading event from within the loop must also be seen.
            if ev == Ev::A(0) {
                eng.schedule_at(t + Duration::from_ns(5), Ev::B(9));
            }
            std::ops::ControlFlow::Continue(())
        });
        assert_eq!(end, Time::from_ns(6));
        assert!(e.is_idle());
    }
}
