//! Message envelopes and MPI-style matching.
//!
//! FM delivers frames unordered (rejected frames retransmit late, Table 3),
//! so each message carries a per-(sender, receiver) sequence number. The
//! [`MatchQueue`] admits messages to the matchable set strictly in sequence
//! per source, which restores MPI's non-overtaking rule; within the
//! matchable set, `recv` takes the oldest message matching the requested
//! (source, tag) wildcard pattern.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::{Rank, Tag};

/// Wire envelope prefixed to every MPI message payload.
///
/// Layout (little-endian): `tag: u32, seq: u32, src_rank: u16`, then data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    pub tag: Tag,
    pub seq: u32,
    pub src: Rank,
    pub data: Vec<u8>,
}

/// Envelope header size in bytes.
pub const ENVELOPE_BYTES: usize = 10;

impl Envelope {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ENVELOPE_BYTES + self.data.len());
        out.extend_from_slice(&self.tag.0.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.src.to_le_bytes());
        out.extend_from_slice(&self.data);
        out
    }

    /// Decode; `None` for a malformed buffer.
    pub fn decode(buf: &[u8]) -> Option<Envelope> {
        if buf.len() < ENVELOPE_BYTES {
            return None;
        }
        Some(Envelope {
            tag: Tag(u32::from_le_bytes(buf[0..4].try_into().ok()?)),
            seq: u32::from_le_bytes(buf[4..8].try_into().ok()?),
            src: u16::from_le_bytes(buf[8..10].try_into().ok()?),
            data: buf[ENVELOPE_BYTES..].to_vec(),
        })
    }
}

/// Per-receiver matching state.
#[derive(Debug, Default)]
pub struct MatchQueue {
    /// Messages admitted in-sequence, oldest first (the matchable set).
    visible: VecDeque<Envelope>,
    /// Out-of-sequence arrivals parked until their predecessors land.
    parked: HashMap<Rank, BTreeMap<u32, Envelope>>,
    /// Next expected sequence number per source.
    next_seq: HashMap<Rank, u32>,
    /// Statistics: messages that arrived out of order.
    pub reordered: u64,
}

impl MatchQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Messages currently matchable.
    pub fn visible_len(&self) -> usize {
        self.visible.len()
    }

    /// Messages parked waiting for sequence gaps to fill.
    pub fn parked_len(&self) -> usize {
        self.parked.values().map(BTreeMap::len).sum()
    }

    /// Total occupancy: matchable plus parked. Zero exactly when every
    /// admitted message has been taken — what "exactly once, nothing left
    /// over" looks like from the matching layer.
    pub fn pending(&self) -> usize {
        self.visible_len() + self.parked_len()
    }

    /// Admit an arriving envelope; it becomes matchable once contiguous
    /// with everything previously admitted from its source.
    pub fn push(&mut self, env: Envelope) {
        let src = env.src;
        let expected = self.next_seq.entry(src).or_insert(0);
        if env.seq == *expected {
            *expected += 1;
            self.visible.push_back(env);
            // Drain any parked successors that are now contiguous.
            if let Some(parked) = self.parked.get_mut(&src) {
                let expected = self.next_seq.get_mut(&src).expect("just inserted");
                while let Some(e) = parked.remove(expected) {
                    *expected += 1;
                    self.visible.push_back(e);
                }
                if parked.is_empty() {
                    self.parked.remove(&src);
                }
            }
        } else {
            debug_assert!(env.seq > *expected, "duplicate sequence from {src}");
            self.reordered += 1;
            self.parked.entry(src).or_default().insert(env.seq, env);
        }
    }

    /// Take the oldest matchable message satisfying the wildcard pattern.
    pub fn take(&mut self, src: Option<Rank>, tag: Option<Tag>) -> Option<Envelope> {
        let idx = self
            .visible
            .iter()
            .position(|e| src.is_none_or(|s| e.src == s) && tag.is_none_or(|t| e.tag == t))?;
        self.visible.remove(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: Rank, seq: u32, tag: u32, data: &[u8]) -> Envelope {
        Envelope {
            tag: Tag(tag),
            seq,
            src,
            data: data.to_vec(),
        }
    }

    #[test]
    fn envelope_roundtrip() {
        let e = env(3, 42, 7, b"payload");
        let d = Envelope::decode(&e.encode()).unwrap();
        assert_eq!(d, e);
        assert!(Envelope::decode(&[0u8; 5]).is_none());
    }

    #[test]
    fn in_order_messages_visible_immediately() {
        let mut q = MatchQueue::new();
        q.push(env(0, 0, 1, b"a"));
        q.push(env(0, 1, 2, b"b"));
        assert_eq!(q.visible_len(), 2);
        assert_eq!(q.reordered, 0);
    }

    #[test]
    fn out_of_order_parks_until_gap_fills() {
        let mut q = MatchQueue::new();
        q.push(env(0, 2, 1, b"c"));
        q.push(env(0, 1, 1, b"b"));
        assert_eq!(q.visible_len(), 0, "gap at seq 0 blocks everything");
        assert_eq!(q.parked_len(), 2);
        q.push(env(0, 0, 1, b"a"));
        assert_eq!(q.visible_len(), 3, "gap filled, all drain in order");
        assert_eq!(q.parked_len(), 0);
        assert_eq!(q.reordered, 2);
        let order: Vec<Vec<u8>> = std::iter::from_fn(|| q.take(None, None))
            .map(|e| e.data)
            .collect();
        assert_eq!(order, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn sequences_are_per_source() {
        let mut q = MatchQueue::new();
        q.push(env(0, 0, 1, b"x"));
        q.push(env(1, 0, 1, b"y"));
        q.push(env(1, 1, 1, b"z"));
        assert_eq!(q.visible_len(), 3);
    }

    #[test]
    fn wildcard_matching() {
        let mut q = MatchQueue::new();
        q.push(env(0, 0, 5, b"a"));
        q.push(env(1, 0, 6, b"b"));
        q.push(env(0, 1, 6, b"c"));
        // By tag only.
        let m = q.take(None, Some(Tag(6))).unwrap();
        assert_eq!((m.src, m.data.as_slice()), (1, &b"b"[..]));
        // By source only.
        let m = q.take(Some(0), None).unwrap();
        assert_eq!(m.data, b"a");
        // Exact.
        assert!(q.take(Some(1), Some(Tag(6))).is_none());
        let m = q.take(Some(0), Some(Tag(6))).unwrap();
        assert_eq!(m.data, b"c");
        assert!(q.take(None, None).is_none());
    }

    #[test]
    fn matching_respects_fifo_within_pattern() {
        let mut q = MatchQueue::new();
        q.push(env(0, 0, 9, b"first"));
        q.push(env(0, 1, 9, b"second"));
        assert_eq!(q.take(Some(0), Some(Tag(9))).unwrap().data, b"first");
        assert_eq!(q.take(Some(0), Some(Tag(9))).unwrap().data, b"second");
    }
}
