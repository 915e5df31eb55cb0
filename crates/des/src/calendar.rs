//! Calendar queue — an alternative pending-event set.
//!
//! A calendar queue (Brown 1988) buckets events by time modulo a rotating
//! "year" and gives O(1) amortized enqueue/dequeue when event times are
//! roughly uniform per bucket. The `des_queue` ablation bench compares it
//! against the default binary heap on the workloads this repository actually
//! generates (bursty NIC service loops), documenting why the heap is the
//! default.

use crate::time::Time;

#[derive(Debug, Clone)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

/// A classic dynamically-resizing calendar queue with FIFO tie-breaking.
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// Each bucket is kept sorted ascending by (time, seq); we pop from the
    /// front. Buckets are short when the queue is well-tuned, so insertion
    /// is a short linear scan.
    buckets: Vec<Vec<Entry<E>>>,
    /// Width of each bucket in picoseconds.
    width_ps: u64,
    /// Index of the bucket currently being drained.
    cursor: usize,
    /// Start time (ps) of the cursor bucket in the current year.
    cursor_start_ps: u64,
    len: usize,
    seq: u64,
    last_popped: Time,
}

impl<E> CalendarQueue<E> {
    /// `width` is the expected inter-event spacing; `buckets` the initial
    /// bucket count (rounded up to a power of two).
    pub fn new(width_ps: u64, buckets: usize) -> Self {
        let n = buckets.next_power_of_two().max(2);
        CalendarQueue {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            width_ps: width_ps.max(1),
            cursor: 0,
            cursor_start_ps: 0,
            len: 0,
            seq: 0,
            last_popped: Time::ZERO,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bucket_of(&self, t: Time) -> usize {
        ((t.as_ps() / self.width_ps) as usize) & (self.buckets.len() - 1)
    }

    /// Insert an event at absolute time `t` (must be >= the last popped time).
    ///
    /// # Panics
    /// If `t` is before the last popped time. This guard is active in
    /// release builds too: a past-dated event would be popped out of order
    /// and silently corrupt causality, the worst possible failure mode for
    /// a regression simulator.
    pub fn push(&mut self, t: Time, event: E) {
        assert!(t >= self.last_popped, "calendar queue: push into the past");
        let seq = self.seq;
        self.seq += 1;
        let idx = self.bucket_of(t);
        let bucket = &mut self.buckets[idx];
        // Insert keeping (time, seq) ascending; events arrive mostly in
        // near-order so scanning from the back is the common fast path.
        let pos = bucket
            .iter()
            .rposition(|e| (e.time, e.seq) <= (t, seq))
            .map(|p| p + 1)
            .unwrap_or(0);
        bucket.insert(
            pos,
            Entry {
                time: t,
                seq,
                event,
            },
        );
        self.len += 1;
        self.maybe_resize();
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.len == 0 {
            return None;
        }
        let nbuckets = self.buckets.len();
        let year_ps = self.width_ps * nbuckets as u64;
        loop {
            // Scan buckets starting at the cursor; an event "belongs" to the
            // current year if its time falls inside this bucket's window.
            for _ in 0..nbuckets {
                let window_end = self.cursor_start_ps + self.width_ps;
                let bucket = &mut self.buckets[self.cursor];
                if let Some(front) = bucket.first() {
                    if front.time.as_ps() < window_end {
                        let e = bucket.remove(0);
                        self.len -= 1;
                        self.last_popped = e.time;
                        return Some((e.time, e.event));
                    }
                }
                self.cursor = (self.cursor + 1) % nbuckets;
                self.cursor_start_ps += self.width_ps;
            }
            // Completed a full year without finding an in-window event: jump
            // the calendar forward to the globally minimal pending event.
            let min_time = self
                .buckets
                .iter()
                .filter_map(|b| b.first().map(|e| e.time))
                .min()
                .expect("len > 0 but no events found");
            let t = min_time.as_ps();
            self.cursor_start_ps = t - (t % self.width_ps);
            self.cursor = ((t / self.width_ps) as usize) & (nbuckets - 1);
            // Loop around; the next scan is guaranteed to find it.
            let _ = year_ps;
        }
    }

    /// Resize to keep average bucket occupancy near 1 (halve/double policy).
    fn maybe_resize(&mut self) {
        let n = self.buckets.len();
        if self.len > 2 * n {
            self.resize(n * 2);
        }
    }

    fn resize(&mut self, new_n: usize) {
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            entries.append(b);
        }
        self.buckets = (0..new_n).map(|_| Vec::new()).collect();
        entries.sort_by_key(|e| (e.time, e.seq));
        let len = self.len;
        for e in entries {
            let idx = ((e.time.as_ps() / self.width_ps) as usize) & (new_n - 1);
            self.buckets[idx].push(e);
        }
        self.len = len;
        // Reposition the cursor at the *last popped* instant, not the
        // earliest pending event: every pending entry and every legal
        // future push is >= `last_popped`, so scanning forward from its
        // bucket window cannot skip anything. Repositioning at the
        // earliest pending event was a subtle out-of-order bug — a later
        // (legal) push landing in `[last_popped, earliest_pending)` sat in
        // a bucket behind the fast-forwarded cursor and was popped a full
        // year late. Caught by the calendar-vs-heap property suite.
        let lp = self.last_popped.as_ps();
        self.cursor_start_ps = lp - (lp % self.width_ps);
        self.cursor = ((lp / self.width_ps) as usize) & (new_n - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn pops_sorted_small() {
        let mut q = CalendarQueue::new(1_000, 8);
        q.push(Time::from_ns(5), "b");
        q.push(Time::from_ns(1), "a");
        q.push(Time::from_ns(9), "c");
        assert_eq!(q.pop(), Some((Time::from_ns(1), "a")));
        assert_eq!(q.pop(), Some((Time::from_ns(5), "b")));
        assert_eq!(q.pop(), Some((Time::from_ns(9), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_ties() {
        let mut q = CalendarQueue::new(1_000, 4);
        let t = Time::from_ns(3);
        for i in 0..50 {
            q.push(t, i);
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn matches_heap_on_random_workload() {
        let mut rng = Xoshiro256::seed_from_u64(2024);
        let mut cal = CalendarQueue::new(500, 16);
        let mut heap = crate::Engine::new();
        let mut now = 0u64;
        let mut popped_cal = Vec::new();
        let mut popped_heap = Vec::new();
        // Interleave pushes and pops with increasing time.
        for step in 0..5_000u64 {
            let delay = rng.next_below(10_000);
            let t = Time::from_ps(now + delay);
            cal.push(t, step);
            heap.schedule_at(t, step);
            if rng.next_bool(0.5) {
                if let Some((t1, e1)) = cal.pop() {
                    popped_cal.push((t1, e1));
                    now = now.max(t1.as_ps());
                }
                let (t2, e2) = heap.pop().unwrap();
                popped_heap.push((t2, e2));
            }
        }
        while let Some(x) = cal.pop() {
            popped_cal.push(x);
        }
        while let Some(x) = heap.pop() {
            popped_heap.push(x);
        }
        assert_eq!(popped_cal.len(), 5_000);
        assert_eq!(popped_cal, popped_heap);
    }

    #[test]
    fn survives_sparse_far_future_events() {
        let mut q = CalendarQueue::new(100, 4);
        q.push(Time::from_ms(5), 1u32);
        q.push(Time::from_ns(1), 0u32);
        q.push(Time::from_s(1), 2u32);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn resize_preserves_order() {
        let mut q = CalendarQueue::new(10, 2);
        let mut expect = Vec::new();
        for i in 0..1_000u64 {
            let t = Time::from_ps(i * 37 % 10_000);
            q.push(t, i);
            expect.push((t, i));
        }
        expect.sort();
        let mut got = Vec::new();
        while let Some(x) = q.pop() {
            got.push(x);
        }
        assert_eq!(got, expect);
    }
}
