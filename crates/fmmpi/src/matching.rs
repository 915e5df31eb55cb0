//! Message envelopes and MPI-style matching.
//!
//! FM delivers frames unordered (rejected frames retransmit late, Table 3),
//! so each message carries a per-(sender, receiver) sequence number. The
//! [`MatchQueue`] admits messages to the matchable set strictly in sequence
//! per source, which restores MPI's non-overtaking rule; within the
//! matchable set, `recv` takes the oldest message matching the requested
//! (source, tag) wildcard pattern.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

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
        out.extend_from_slice(&Self::header(self.tag, self.seq, self.src));
        out.extend_from_slice(&self.data);
        out
    }

    /// Decode; `None` for a malformed buffer.
    pub fn decode(buf: &[u8]) -> Option<Envelope> {
        let (tag, seq, src) = Self::parse_header(buf)?;
        Some(Envelope {
            tag,
            seq,
            src,
            data: buf[ENVELOPE_BYTES..].to_vec(),
        })
    }

    /// The fixed-size prefix alone, for a sender that lays `[envelope |
    /// data]` out in a buffer of its own.
    pub(crate) fn header(tag: Tag, seq: u32, src: Rank) -> [u8; ENVELOPE_BYTES] {
        let mut out = [0u8; ENVELOPE_BYTES];
        out[0..4].copy_from_slice(&tag.0.to_le_bytes());
        out[4..8].copy_from_slice(&seq.to_le_bytes());
        out[8..10].copy_from_slice(&src.to_le_bytes());
        out
    }

    /// `(tag, seq, src)` read from a borrowed buffer without touching the
    /// data behind it; `None` when the buffer is shorter than an envelope.
    pub(crate) fn parse_header(buf: &[u8]) -> Option<(Tag, u32, Rank)> {
        let head = buf.get(..ENVELOPE_BYTES)?;
        Some((
            Tag(u32::from_le_bytes(head[0..4].try_into().ok()?)),
            u32::from_le_bytes(head[4..8].try_into().ok()?),
            u16::from_le_bytes(head[8..10].try_into().ok()?),
        ))
    }
}

/// Per-receiver matching state.
#[derive(Debug, Default)]
pub struct MatchQueue {
    /// Messages admitted in-sequence, oldest first (the matchable set).
    visible: VecDeque<Envelope>,
    /// Out-of-sequence arrivals parked until their predecessors land,
    /// keyed `(source, seq)`. Empty on an in-order fabric.
    parked: BTreeMap<(Rank, u32), Envelope>,
    /// Next expected sequence number, indexed by source rank (grown on
    /// demand: a `MatchQueue` does not know the cluster size, so whoever
    /// feeds it from the wire bounds `src` first).
    next_seq: Vec<u32>,
    /// Statistics: messages that arrived out of order.
    pub reordered: u64,
    /// Statistics: messages dropped because their sequence number had
    /// already been admitted or parked — a duplicate, or a peer that
    /// restarted its stream while this side kept its own.
    pub stale: u64,
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
        self.parked.len()
    }

    /// Total occupancy: matchable plus parked. Zero exactly when every
    /// admitted message has been taken — what "exactly once, nothing left
    /// over" looks like from the matching layer.
    pub fn pending(&self) -> usize {
        self.visible_len() + self.parked_len()
    }

    /// Admit an arriving envelope; it becomes matchable once contiguous
    /// with everything previously admitted from its source. Sequence
    /// numbers compare modulo 2^32: up to 2^31 ahead of the expected one is
    /// early (parked), anything else is stale (dropped and counted).
    pub fn push(&mut self, env: Envelope) {
        let src = env.src;
        if self.next_seq.len() <= src as usize {
            self.next_seq.resize(src as usize + 1, 0);
        }
        let expected = &mut self.next_seq[src as usize];
        let ahead = env.seq.wrapping_sub(*expected);
        if ahead == 0 {
            *expected = expected.wrapping_add(1);
            self.visible.push_back(env);
            // Drain any parked successors that are now contiguous (an
            // empty map answers without a lookup).
            while let Some(e) = self.parked.remove(&(src, *expected)) {
                *expected = expected.wrapping_add(1);
                self.visible.push_back(e);
            }
        } else if ahead < 1 << 31 {
            match self.parked.entry((src, env.seq)) {
                Entry::Vacant(slot) => {
                    slot.insert(env);
                    self.reordered += 1;
                }
                Entry::Occupied(_) => self.stale += 1,
            }
        } else {
            self.stale += 1;
        }
    }

    /// Take the oldest matchable message satisfying the wildcard pattern.
    pub fn take(&mut self, src: Option<Rank>, tag: Option<Tag>) -> Option<Envelope> {
        let wanted =
            |e: &Envelope| src.is_none_or(|s| e.src == s) && tag.is_none_or(|t| e.tag == t);
        // The oldest message is the usual match; taking it is a pop, not a
        // search and a shift.
        if self.visible.front().is_some_and(wanted) {
            return self.visible.pop_front();
        }
        let idx = self.visible.iter().position(wanted)?;
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

    /// Everything matchable, oldest first.
    fn drain(q: &mut MatchQueue) -> Vec<Vec<u8>> {
        std::iter::from_fn(|| q.take(None, None))
            .map(|e| e.data)
            .collect()
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
        assert_eq!(
            drain(&mut q),
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]
        );
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

    /// A sequence number already admitted (a replay, a peer that restarted
    /// its stream at 0) or already parked is dropped and counted. The guard
    /// used to be a `debug_assert!`, so a release build parked the envelope
    /// under a key that could never become contiguous; this test is part of
    /// the release-profile CI step for that reason.
    #[test]
    fn stale_and_duplicate_sequences_are_dropped_and_counted() {
        let mut q = MatchQueue::new();
        q.push(env(0, 0, 1, b"a"));
        q.push(env(0, 1, 1, b"b"));
        q.push(env(0, 0, 1, b"replayed a"));
        assert_eq!((q.stale, q.pending()), (1, 2));
        q.push(env(0, 3, 1, b"d"));
        q.push(env(0, 3, 1, b"duplicate d"));
        assert_eq!((q.stale, q.reordered, q.parked_len()), (2, 1, 1));
        q.push(env(0, 2, 1, b"c"));
        q.push(env(0, 2, 1, b"replayed c"));
        assert_eq!(q.stale, 3);
        let want: Vec<Vec<u8>> = [b"a", b"b", b"c", b"d"]
            .iter()
            .map(|d| d.to_vec())
            .collect();
        assert_eq!(drain(&mut q), want);
        assert_eq!(q.pending(), 0, "nothing stale stays behind");
    }

    /// The expected sequence number wraps at 2^32 and early/stale is
    /// decided modulo 2^32 (in release too, where `+= 1` would wrap
    /// silently but `seq < expected` would misfile everything after it).
    #[test]
    fn sequence_numbers_wrap_around() {
        let mut q = MatchQueue::new();
        q.next_seq = vec![u32::MAX - 1];
        q.push(env(0, 0, 1, b"third"));
        q.push(env(0, u32::MAX, 1, b"second"));
        assert_eq!((q.visible_len(), q.parked_len(), q.stale), (0, 2, 0));
        q.push(env(0, u32::MAX - 1, 1, b"first"));
        assert_eq!(q.next_seq, [1]);
        let want = vec![b"first".to_vec(), b"second".to_vec(), b"third".to_vec()];
        assert_eq!(drain(&mut q), want);
        q.push(env(0, u32::MAX, 1, b"from before the wrap"));
        assert_eq!((q.stale, q.pending()), (1, 0));
    }

    #[test]
    fn header_matches_encode_and_rejects_short_buffers() {
        let e = env(9, 0xDEAD_BEEF, 0x0102_0304, b"xyz");
        let bytes = e.encode();
        assert_eq!(
            bytes[..ENVELOPE_BYTES],
            Envelope::header(e.tag, e.seq, e.src)
        );
        assert_eq!(Envelope::parse_header(&bytes), Some((e.tag, e.seq, e.src)));
        assert_eq!(Envelope::parse_header(&bytes[..ENVELOPE_BYTES - 1]), None);
    }
}
