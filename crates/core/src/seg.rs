//! Segmentation and reassembly for messages larger than one FM frame.
//!
//! FM 1.0 deliberately stops at the 128-byte frame: "Larger messages will
//! require segmentation and reassembly into frames of this size"
//! (Section 5). This module is that prescribed layer. It is used by the
//! `send_large` extension on [`crate::mem::MemEndpoint`] and by `fm-mpi`.
//!
//! Each fragment's FM payload starts with a 14-byte subheader:
//!
//! ```text
//! offset size field
//!      0    4 message id (per-sender, monotonically increasing)
//!      4    2 fragment index
//!      6    2 fragment count
//!      8    4 total message length
//!     12    2 target large-handler id
//! ```
//!
//! leaving [`FRAG_DATA`] = 114 data bytes per frame. Because FM does not
//! guarantee ordering (Table 3 — bounced frames retransmit late), reassembly
//! is fully out-of-order tolerant: fragments carry absolute indices, and a
//! message completes when all distinct indices have arrived.

use bytes::Bytes;
use fm_myrinet::NodeId;
use std::collections::HashMap;

use crate::frame::FM_FRAME_PAYLOAD;
use crate::handler::HandlerId;

/// Subheader bytes at the front of each fragment payload.
pub const FRAG_HEADER: usize = 14;

/// Message bytes carried per fragment.
pub const FRAG_DATA: usize = FM_FRAME_PAYLOAD - FRAG_HEADER;

/// Largest message the u16 fragment count can carry (~7.3 MB).
pub const MAX_MESSAGE: usize = FRAG_DATA * u16::MAX as usize;

/// Visit each fragment payload of `data` in index order. Fragments are
/// staged in a stack buffer and handed out as inline `Bytes` (a fragment
/// always fits one frame), so no heap allocation happens per fragment —
/// this is the path `send_large` drives. Zero-length messages produce a
/// single empty-data fragment so the receiver still gets a delivery.
pub fn fragment_each(msg_id: u32, handler: HandlerId, data: &[u8], mut emit: impl FnMut(Bytes)) {
    assert!(
        data.len() <= MAX_MESSAGE,
        "message of {} B exceeds the segmentation limit of {MAX_MESSAGE} B",
        data.len()
    );
    let count = data.len().div_ceil(FRAG_DATA).max(1);
    let mut buf = [0u8; FM_FRAME_PAYLOAD];
    for idx in 0..count {
        let chunk = &data[idx * FRAG_DATA..data.len().min((idx + 1) * FRAG_DATA)];
        buf[0..4].copy_from_slice(&msg_id.to_le_bytes());
        buf[4..6].copy_from_slice(&(idx as u16).to_le_bytes());
        buf[6..8].copy_from_slice(&(count as u16).to_le_bytes());
        buf[8..12].copy_from_slice(&(data.len() as u32).to_le_bytes());
        buf[12..14].copy_from_slice(&handler.0.to_le_bytes());
        buf[FRAG_HEADER..FRAG_HEADER + chunk.len()].copy_from_slice(chunk);
        emit(Bytes::copy_from_slice(&buf[..FRAG_HEADER + chunk.len()]));
    }
}

/// Split `data` for `handler` into collected fragment payloads (see
/// [`fragment_each`] for the allocation-free streaming form).
pub fn fragment(msg_id: u32, handler: HandlerId, data: &[u8]) -> Vec<Bytes> {
    let mut out = Vec::with_capacity(data.len().div_ceil(FRAG_DATA).max(1));
    fragment_each(msg_id, handler, data, |frag| out.push(frag));
    out
}

/// A decoded fragment subheader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragHeader {
    pub msg_id: u32,
    pub idx: u16,
    pub count: u16,
    pub total_len: u32,
    pub handler: HandlerId,
}

/// Errors surfaced by [`Reassembly::on_fragment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragError {
    /// Payload shorter than the subheader.
    Truncated,
    /// Index >= count, zero count, total length inconsistent with count,
    /// or a shape or handler that disagrees with the open partial message.
    Inconsistent,
    /// Same (src, msg_id, idx) seen twice — impossible under FM's
    /// exactly-once delivery; indicates a transport bug.
    Duplicate,
}

fn parse(frag: &[u8]) -> Result<(FragHeader, &[u8]), FragError> {
    if frag.len() < FRAG_HEADER {
        return Err(FragError::Truncated);
    }
    let h = FragHeader {
        msg_id: u32::from_le_bytes(frag[0..4].try_into().unwrap()),
        idx: u16::from_le_bytes(frag[4..6].try_into().unwrap()),
        count: u16::from_le_bytes(frag[6..8].try_into().unwrap()),
        total_len: u32::from_le_bytes(frag[8..12].try_into().unwrap()),
        handler: HandlerId(u16::from_le_bytes(frag[12..14].try_into().unwrap())),
    };
    let data = &frag[FRAG_HEADER..];
    if h.count == 0 || h.idx >= h.count {
        return Err(FragError::Inconsistent);
    }
    let expect_count = (h.total_len as usize).div_ceil(FRAG_DATA).max(1);
    if expect_count != h.count as usize {
        return Err(FragError::Inconsistent);
    }
    // Every fragment except the last carries exactly FRAG_DATA bytes.
    let expect_len = if h.idx as usize + 1 == h.count as usize {
        h.total_len as usize - (h.count as usize - 1) * FRAG_DATA
    } else {
        FRAG_DATA
    };
    if data.len() != expect_len {
        return Err(FragError::Inconsistent);
    }
    Ok((h, data))
}

/// Default cap on concurrently-open partial messages per source node.
///
/// Without a cap, a live (never declared dead) peer that starts messages
/// and abandons them — or a duplicate-storm of first fragments with fresh
/// msg_ids — grows the partial map without bound. 64 open messages per
/// source is far above anything the in-order `send_large` path produces
/// (it opens one at a time).
pub const DEFAULT_MAX_PARTIALS_PER_SOURCE: usize = 64;

#[derive(Debug)]
struct Partial {
    buf: Vec<u8>,
    seen: Vec<bool>,
    remaining: usize,
    handler: HandlerId,
    /// Arrival stamp of the first fragment (eviction picks the oldest).
    started: u64,
}

/// Per-node reassembly state.
#[derive(Debug)]
pub struct Reassembly {
    partial: HashMap<(NodeId, u32), Partial>,
    max_partials_per_source: usize,
    /// Monotonic fragment-arrival counter, stamps new partials.
    clock: u64,
    /// Statistics (read via the accessor methods below).
    completed: u64,
    fragments: u64,
    /// Malformed, inconsistent or duplicate fragments.
    refused: u64,
    evicted_partials: u64,
    aborted_partials: u64,
}

impl Default for Reassembly {
    fn default() -> Self {
        Self::with_max_partials(DEFAULT_MAX_PARTIALS_PER_SOURCE)
    }
}

impl Reassembly {
    pub fn new() -> Self {
        Self::default()
    }

    /// A reassembler allowing up to `cap` concurrently-open partial
    /// messages per source before the oldest is evicted (`cap >= 1`).
    pub fn with_max_partials(cap: usize) -> Self {
        assert!(cap >= 1, "a zero cap could never open a partial");
        Reassembly {
            partial: HashMap::new(),
            max_partials_per_source: cap,
            clock: 0,
            completed: 0,
            fragments: 0,
            refused: 0,
            evicted_partials: 0,
            aborted_partials: 0,
        }
    }

    /// Messages currently partially assembled.
    pub fn in_progress(&self) -> usize {
        self.partial.len()
    }

    /// Drop every partial message from `src` (the peer was declared dead:
    /// its missing fragments will never arrive). Returns how many partial
    /// messages were abandoned; each counts as an error.
    pub fn abort_source(&mut self, src: NodeId) -> usize {
        let before = self.partial.len();
        self.partial.retain(|(s, _), _| *s != src);
        let dropped = before - self.partial.len();
        self.aborted_partials += dropped as u64;
        dropped
    }

    /// Feed one fragment payload from `src`. Returns the completed message
    /// when this fragment was the last missing piece.
    pub fn on_fragment(
        &mut self,
        src: NodeId,
        frag: &[u8],
    ) -> Result<Option<(HandlerId, Vec<u8>)>, FragError> {
        let (h, data) = match parse(frag) {
            Ok(x) => x,
            Err(e) => {
                self.refused += 1;
                return Err(e);
            }
        };
        self.clock += 1;
        let key = (src, h.msg_id);
        if !self.partial.contains_key(&key) {
            // Opening a new partial: enforce the per-source cap by evicting
            // the source's oldest open message. A live peer abandoning
            // messages (or forging fresh msg_ids) must not grow this map
            // without bound — dead peers are purged elsewhere
            // (`abort_source`), but liveness alone bounded nothing.
            let open = self.partial.keys().filter(|(s, _)| *s == src).count();
            if open >= self.max_partials_per_source {
                if let Some(oldest) = self
                    .partial
                    .iter()
                    .filter(|((s, _), _)| *s == src)
                    .min_by_key(|(_, p)| p.started)
                    .map(|(k, _)| *k)
                {
                    self.partial.remove(&oldest);
                    self.evicted_partials += 1;
                }
            }
        }
        let clock = self.clock;
        let p = self.partial.entry(key).or_insert_with(|| Partial {
            buf: vec![0; h.total_len as usize],
            seen: vec![false; h.count as usize],
            remaining: h.count as usize,
            handler: h.handler,
            started: clock,
        });
        // A fragment keyed into an existing partial must agree with its
        // shape and handler (a msg_id collision after wraparound, or a stray
        // fragment from an aborted message, must neither index out of bounds
        // nor complete another handler's message).
        if p.seen.len() != h.count as usize
            || p.buf.len() != h.total_len as usize
            || p.handler != h.handler
        {
            self.refused += 1;
            return Err(FragError::Inconsistent);
        }
        if p.seen[h.idx as usize] {
            self.refused += 1;
            return Err(FragError::Duplicate);
        }
        p.seen[h.idx as usize] = true;
        p.remaining -= 1;
        self.fragments += 1;
        let off = h.idx as usize * FRAG_DATA;
        p.buf[off..off + data.len()].copy_from_slice(data);
        if p.remaining == 0 {
            match self.partial.remove(&key) {
                Some(p) => {
                    self.completed += 1;
                    Ok(Some((p.handler, p.buf)))
                }
                // Unreachable (the entry was just touched), but a missing
                // entry is not worth crashing the node over.
                None => Ok(None),
            }
        } else {
            Ok(None)
        }
    }

    // ---- read-only statistics -------------------------------------------

    /// Messages fully reassembled and handed out.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Well-formed fragments accepted.
    pub fn fragments(&self) -> u64 {
        self.fragments
    }

    /// Malformed / duplicate fragments plus aborted partial messages.
    pub fn errors(&self) -> u64 {
        self.refused + self.aborted_partials
    }

    /// Partial messages evicted by the per-source cap.
    pub fn evicted_partials(&self) -> u64 {
        self.evicted_partials
    }

    /// Partial messages dropped by [`Self::abort_source`].
    pub fn aborted_partials(&self) -> u64 {
        self.aborted_partials
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_fragment_roundtrip() {
        let data = b"short message".to_vec();
        let frags = fragment(1, HandlerId(9), &data);
        assert_eq!(frags.len(), 1);
        assert!(frags[0].len() <= FM_FRAME_PAYLOAD);
        let mut r = Reassembly::new();
        let out = r.on_fragment(NodeId(2), &frags[0]).unwrap();
        assert_eq!(out, Some((HandlerId(9), data)));
        assert_eq!(r.completed(), 1);
        assert_eq!(r.in_progress(), 0);
    }

    #[test]
    fn empty_message_still_delivers() {
        let frags = fragment(7, HandlerId(3), &[]);
        assert_eq!(frags.len(), 1);
        let mut r = Reassembly::new();
        let out = r.on_fragment(NodeId(0), &frags[0]).unwrap();
        assert_eq!(out, Some((HandlerId(3), vec![])));
    }

    #[test]
    fn multi_fragment_in_order() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let frags = fragment(42, HandlerId(5), &data);
        assert_eq!(frags.len(), 1000usize.div_ceil(FRAG_DATA));
        let mut r = Reassembly::new();
        let mut done = None;
        for f in &frags {
            if let Some(x) = r.on_fragment(NodeId(1), f).unwrap() {
                done = Some(x);
            }
        }
        assert_eq!(done, Some((HandlerId(5), data)));
    }

    #[test]
    fn out_of_order_and_interleaved_messages() {
        let d1: Vec<u8> = vec![0xAA; 500];
        let d2: Vec<u8> = vec![0xBB; 400];
        let f1 = fragment(1, HandlerId(1), &d1);
        let f2 = fragment(2, HandlerId(2), &d2);
        let mut r = Reassembly::new();
        // Reverse order, interleaved across two messages and two senders.
        let mut results = Vec::new();
        for f in f1.iter().rev() {
            if let Some(x) = r.on_fragment(NodeId(3), f).unwrap() {
                results.push((NodeId(3), x));
            }
        }
        for f in f2.iter().rev() {
            if let Some(x) = r.on_fragment(NodeId(4), f).unwrap() {
                results.push((NodeId(4), x));
            }
        }
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].1, (HandlerId(1), d1));
        assert_eq!(results[1].1, (HandlerId(2), d2));
        assert_eq!(r.in_progress(), 0);
    }

    #[test]
    fn same_msg_id_different_senders_do_not_collide() {
        let da = vec![1u8; 300];
        let db = vec![2u8; 300];
        let fa = fragment(9, HandlerId(1), &da);
        let fb = fragment(9, HandlerId(1), &db);
        let mut r = Reassembly::new();
        // Interleave fragment streams from two senders with the same id.
        for (x, y) in fa.iter().zip(fb.iter()) {
            r.on_fragment(NodeId(0), x).unwrap();
            r.on_fragment(NodeId(1), y).unwrap();
        }
        // Both completed with their own data (len 300 needs 3 frags; zip
        // covered all).
        assert_eq!(r.completed(), 2);
    }

    #[test]
    fn duplicate_fragment_detected() {
        let frags = fragment(1, HandlerId(1), &[0u8; 300]);
        let mut r = Reassembly::new();
        r.on_fragment(NodeId(0), &frags[0]).unwrap();
        assert_eq!(
            r.on_fragment(NodeId(0), &frags[0]),
            Err(FragError::Duplicate)
        );
        assert_eq!(r.errors(), 1);
        assert_eq!(r.fragments(), 1, "a refused fragment is not accepted");
    }

    #[test]
    fn fragment_for_another_handler_is_refused() {
        let frags = fragment(1, HandlerId(1), &[0u8; 300]);
        let mut r = Reassembly::new();
        r.on_fragment(NodeId(0), &frags[0]).unwrap();
        // Fragment 1 of the same (src, msg_id) tagged for handler 2 must
        // not complete handler 1's partial.
        let other = fragment(1, HandlerId(2), &[0u8; 300]);
        assert_eq!(
            r.on_fragment(NodeId(0), &other[1]),
            Err(FragError::Inconsistent)
        );
        assert_eq!((r.fragments(), r.errors()), (1, 1));
        r.on_fragment(NodeId(0), &frags[1]).unwrap();
        let done = r.on_fragment(NodeId(0), &frags[2]).unwrap();
        assert_eq!(done, Some((HandlerId(1), vec![0u8; 300])));
        assert_eq!(r.fragments(), 3);
    }

    #[test]
    fn per_source_partial_cap_evicts_oldest() {
        // Cap 3: a live peer opening abandoned messages stays bounded.
        let mut r = Reassembly::with_max_partials(3);
        let open = |r: &mut Reassembly, id: u32| {
            // First fragment of a 2-fragment message — never completed.
            let frags = fragment(id, HandlerId(1), &[id as u8; FRAG_DATA + 1]);
            r.on_fragment(NodeId(7), &frags[0]).unwrap();
        };
        for id in 0..3 {
            open(&mut r, id);
        }
        assert_eq!(r.in_progress(), 3);
        assert_eq!(r.evicted_partials(), 0);
        // A 4th open evicts the oldest (msg 0), then a 5th evicts msg 1.
        open(&mut r, 3);
        open(&mut r, 4);
        assert_eq!(r.in_progress(), 3);
        assert_eq!(r.evicted_partials(), 2);
        // Msg 0 was evicted: its second fragment reopens it (and evicts
        // msg 2, now the oldest) rather than completing.
        let frags0 = fragment(0, HandlerId(1), &[0u8; FRAG_DATA + 1]);
        assert_eq!(r.on_fragment(NodeId(7), &frags0[1]).unwrap(), None);
        assert_eq!(r.evicted_partials(), 3);
        // Msg 4 survived every round: completing it still works.
        let frags4 = fragment(4, HandlerId(1), &[4u8; FRAG_DATA + 1]);
        let done = r.on_fragment(NodeId(7), &frags4[1]).unwrap();
        assert_eq!(done, Some((HandlerId(1), vec![4u8; FRAG_DATA + 1])));
        // Another source is not constrained by node 7's occupancy.
        let other = fragment(9, HandlerId(1), &[9u8; FRAG_DATA + 1]);
        r.on_fragment(NodeId(8), &other[0]).unwrap();
        assert_eq!(r.evicted_partials(), 3);
    }

    #[test]
    fn malformed_fragments_rejected() {
        let mut r = Reassembly::new();
        assert_eq!(r.on_fragment(NodeId(0), b"xx"), Err(FragError::Truncated));
        // idx >= count
        let mut bad = fragment(1, HandlerId(1), &[0u8; 10])[0].to_vec();
        bad[4] = 7; // idx
        assert_eq!(r.on_fragment(NodeId(0), &bad), Err(FragError::Inconsistent));
        // wrong data length for the declared totals
        let mut bad2 = fragment(1, HandlerId(1), &[0u8; 10])[0].to_vec();
        bad2.push(0);
        assert_eq!(
            r.on_fragment(NodeId(0), &bad2),
            Err(FragError::Inconsistent)
        );
    }

    #[test]
    fn fragment_sizes_fill_frames() {
        let data = vec![7u8; FRAG_DATA * 3 + 5];
        let frags = fragment(0, HandlerId(0), &data);
        assert_eq!(frags.len(), 4);
        for f in &frags[..3] {
            assert_eq!(f.len(), FM_FRAME_PAYLOAD);
        }
        assert_eq!(frags[3].len(), FRAG_HEADER + 5);
    }
}
