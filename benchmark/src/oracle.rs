//! Correctness oracle shared between the driver loop and the handlers.
//!
//! Every message carries an 8-byte header (index, segment, flags) followed
//! by bytes of a seed-derived pattern rotated by the index, so a handler
//! can re-derive the exact payload from `(seed, index)` and compare. The
//! oracle checks exactly-once with a per-flow index bitmap, per-flow order,
//! and payload bytes; every violation counts as one failed operation.
//! Sampled messages also carry a send stamp for the inject-to-handler
//! latency. State is plain relaxed atomics: handlers need `Send + 'static`
//! closures, and the two-thread diagnostic touches disjoint flows.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use crate::clock::now_ns;

pub const HEADER: usize = 8;
const FLAG_SAMPLED: u8 = 1;
/// Send stamps kept per flow; more than any window of sampled messages.
const STAMPS: usize = 256;
/// Rotation range of the pattern (payload `i` starts at `i % ROTATE`).
const ROTATE: usize = 128;

pub struct Oracle {
    /// When false, handlers only count: the size sweep sends payloads too
    /// short to carry a header.
    verify: bool,
    ordered: bool,
    pattern: Vec<u8>,
    flows: usize,
    per_flow: AtomicU32,
    segment: AtomicU32,
    seen: Vec<AtomicU64>,
    /// Words of `seen` per flow.
    stride: usize,
    next: Vec<AtomicU32>,
    delivered: AtomicU64,
    failed: AtomicU64,
    attempted: AtomicU64,
    stamps: Vec<AtomicU64>,
    delivery_ns: Mutex<Vec<u32>>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Oracle {
    /// `max_per_flow` bounds the indices one segment may use per flow;
    /// `max_len` the longest payload.
    pub fn new(seed: u64, flows: usize, max_per_flow: u32, max_len: usize, ordered: bool) -> Self {
        let mut state = seed;
        let mut pattern = vec![0u8; ROTATE + max_len];
        for chunk in pattern.chunks_mut(8) {
            let word = splitmix64(&mut state).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        let stride = (max_per_flow as usize).div_ceil(64);
        Oracle {
            verify: true,
            ordered,
            pattern,
            flows,
            per_flow: AtomicU32::new(max_per_flow),
            segment: AtomicU32::new(0),
            seen: (0..flows * stride).map(|_| AtomicU64::new(0)).collect(),
            stride,
            next: (0..flows).map(|_| AtomicU32::new(0)).collect(),
            delivered: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            attempted: AtomicU64::new(0),
            stamps: (0..flows * STAMPS).map(|_| AtomicU64::new(0)).collect(),
            delivery_ns: Mutex::new(Vec::new()),
        }
    }

    /// Count-only mode for payloads too short to carry the header.
    pub fn counting(flows: usize) -> Self {
        let mut o = Oracle::new(0, flows, 0, 0, false);
        o.verify = false;
        o
    }

    /// Reset per-segment state; `per_flow` messages will be sent on each
    /// flow. Indices restart at 0 and carry the new segment id, so a stale
    /// delivery from an earlier segment is caught.
    pub fn begin_segment(&self, per_flow: u32) {
        assert!(
            !self.verify || per_flow as usize <= self.stride * 64,
            "segment larger than the oracle was sized for"
        );
        self.per_flow.store(per_flow, Relaxed);
        self.segment.fetch_add(1, Relaxed);
        for w in &self.seen {
            w.store(0, Relaxed);
        }
        for n in &self.next {
            n.store(0, Relaxed);
        }
        self.delivered.store(0, Relaxed);
        self.delivery_ns.lock().expect("oracle lock").clear();
    }

    /// Close a segment: every flow's `per_flow` messages must have been
    /// delivered, and nothing more. Adds them to `attempted`.
    pub fn end_segment(&self) {
        let expected = self.per_flow.load(Relaxed) as u64 * self.flows as u64;
        self.attempted.fetch_add(expected, Relaxed);
        let got = self.delivered.load(Relaxed);
        if got != expected {
            self.failed.fetch_add(got.abs_diff(expected), Relaxed);
        }
    }

    /// Write message `idx` into `buf` (whole slice is the payload).
    pub fn fill(&self, buf: &mut [u8], idx: u32, sampled: bool) {
        if !self.verify || buf.len() < HEADER {
            return;
        }
        buf[0..4].copy_from_slice(&idx.to_le_bytes());
        buf[4..6].copy_from_slice(&(self.segment.load(Relaxed) as u16).to_le_bytes());
        buf[6] = if sampled { FLAG_SAMPLED } else { 0 };
        buf[7] = 0;
        let body = buf.len() - HEADER;
        let at = idx as usize % ROTATE;
        buf[HEADER..].copy_from_slice(&self.pattern[at..at + body]);
    }

    /// Record "now" as the injection time of sampled message `idx`.
    pub fn stamp(&self, flow: usize, idx: u32) -> u64 {
        let now = now_ns().max(1);
        self.stamps[flow * STAMPS + idx as usize % STAMPS].store(now, Relaxed);
        now
    }

    /// A handler received `data` on `flow`.
    pub fn deliver(&self, flow: usize, data: &[u8]) {
        self.delivered.fetch_add(1, Relaxed);
        if !self.verify {
            self.next[flow].fetch_add(1, Relaxed);
            return;
        }
        if data.len() < HEADER || flow >= self.flows {
            self.violation();
            return;
        }
        let idx = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes"));
        let segment = u16::from_le_bytes(data[4..6].try_into().expect("2 bytes"));
        if segment != self.segment.load(Relaxed) as u16 || idx >= self.per_flow.load(Relaxed) {
            self.violation();
            return;
        }
        // Exactly once.
        let word = &self.seen[flow * self.stride + idx as usize / 64];
        let bit = 1u64 << (idx % 64);
        let before = word.load(Relaxed);
        if before & bit != 0 {
            self.violation();
        }
        word.store(before | bit, Relaxed);
        // Per-flow order.
        let expected = self.next[flow].load(Relaxed);
        if self.ordered && idx != expected {
            self.violation();
        }
        self.next[flow].store(expected.max(idx + 1), Relaxed);
        // Payload bytes.
        let body = data.len() - HEADER;
        let at = idx as usize % ROTATE;
        if self.pattern.get(at..at + body) != Some(&data[HEADER..]) {
            self.violation();
        }
        if data[6] & FLAG_SAMPLED != 0 {
            // An echo carries the flag back on a flow nobody stamped (the
            // stamp slot still reads 0): only the injected leg is timed.
            let sent = self.stamps[flow * STAMPS + idx as usize % STAMPS].load(Relaxed);
            if sent != 0 {
                let dt = now_ns().saturating_sub(sent).min(u32::MAX as u64) as u32;
                self.delivery_ns.lock().expect("oracle lock").push(dt);
            }
        }
    }

    /// One past the highest index delivered on `flow` this segment — the
    /// delivered count when the flow is in order.
    pub fn next(&self, flow: usize) -> u32 {
        self.next[flow].load(Relaxed)
    }

    pub fn delivered(&self) -> u64 {
        self.delivered.load(Relaxed)
    }

    /// An invariant outside message delivery failed (window overrun,
    /// endpoint not quiescent after drain, wedged loop).
    pub fn violation(&self) {
        self.failed.fetch_add(1, Relaxed);
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Relaxed)
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Relaxed)
    }

    /// Move this segment's inject-to-handler samples into `out`.
    pub fn take_delivery_samples(&self, out: &mut Vec<u32>) {
        out.clear();
        out.append(&mut self.delivery_ns.lock().expect("oracle lock"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(o: &Oracle, idx: u32, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        o.fill(&mut buf, idx, false);
        buf
    }

    #[test]
    fn clean_segment_has_no_failures() {
        let o = Oracle::new(7, 2, 100, 128, true);
        o.begin_segment(100);
        for i in 0..100 {
            o.deliver(0, &msg(&o, i, 128));
            o.deliver(1, &msg(&o, i, 16));
        }
        o.end_segment();
        assert_eq!(
            (o.failed(), o.attempted(), o.next(0), o.next(1)),
            (0, 200, 100, 100)
        );
    }

    #[test]
    fn duplicate_reorder_corruption_loss_and_stale_segments_all_count() {
        let o = Oracle::new(7, 1, 10, 64, true);
        o.begin_segment(10);
        let stale = msg(&o, 0, 64);
        o.deliver(0, &msg(&o, 0, 64));
        o.deliver(0, &msg(&o, 0, 64)); // duplicate (also out of order)
        assert_eq!(o.failed(), 2);
        o.deliver(0, &msg(&o, 3, 64)); // skipped 1 and 2
        assert_eq!(o.failed(), 3);
        let mut bad = msg(&o, 4, 64);
        bad[20] ^= 1;
        o.deliver(0, &bad);
        assert_eq!(o.failed(), 4);
        o.end_segment(); // 4 delivered of 10
        assert_eq!(o.failed(), 10);
        o.begin_segment(10);
        o.deliver(0, &stale);
        assert_eq!(o.failed(), 11);
    }

    #[test]
    fn payload_depends_on_seed_and_index() {
        let a = Oracle::new(1, 1, 10, 32, true);
        let b = Oracle::new(2, 1, 10, 32, true);
        assert_ne!(msg(&a, 1, 32)[HEADER..], msg(&b, 1, 32)[HEADER..]);
        assert_ne!(msg(&a, 1, 32)[HEADER..], msg(&a, 2, 32)[HEADER..]);
    }

    #[test]
    fn sampled_messages_yield_latency_samples() {
        let o = Oracle::new(7, 1, 10, 16, true);
        o.begin_segment(10);
        let mut buf = [0u8; 16];
        o.fill(&mut buf, 0, true);
        o.stamp(0, 0);
        o.deliver(0, &buf);
        let mut out = Vec::new();
        o.take_delivery_samples(&mut out);
        assert_eq!(out.len(), 1);
    }
}
