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
//! leaving [`FRAG_DATA`] = 114 data bytes per frame. Fragments ride frames
//! of the reserved handler [`SEG_HANDLER`], and the sender gathers each
//! subheader and its slice of the message straight into the frame's
//! window slot, so the message is copied once on its way to the wire.
//!
//! FM itself does not order frames (Table 3: a bounced frame retransmits
//! late), but the endpoint's receive sequence window does: it hands each
//! source's frames to the receive ring in sequence order, exactly once.
//! So reassembly is in order and keeps one open message per source. Index
//! 0 opens it, each next index appends to it, the last completes it; any
//! other fragment is refused and counted.

use bytes::Bytes;
use fm_myrinet::NodeId;

use crate::frame::FM_FRAME_PAYLOAD;
use crate::handler::HandlerId;

/// The frame-handler id reserved for fragments: the endpoint core
/// reassembles frames sent to it instead of running a handler.
pub const SEG_HANDLER: HandlerId = HandlerId(0);

/// Subheader bytes at the front of each fragment payload.
pub const FRAG_HEADER: usize = 14;

/// Message bytes carried per fragment.
pub const FRAG_DATA: usize = FM_FRAME_PAYLOAD - FRAG_HEADER;

/// Largest message the u16 fragment count can carry (~7.3 MB).
pub const MAX_MESSAGE: usize = FRAG_DATA * u16::MAX as usize;

/// Visit each fragment payload of `data` in index order, as a two-part
/// gather list: the subheader (on the stack) and a borrow of the message
/// chunk. Nothing is copied or allocated here; the sender gathers both
/// parts into the frame. Zero-length messages produce a single empty-data
/// fragment so the receiver still gets a delivery.
pub fn fragment_each(
    msg_id: u32,
    handler: HandlerId,
    data: &[u8],
    mut emit: impl FnMut([&[u8]; 2]),
) {
    assert!(
        data.len() <= MAX_MESSAGE,
        "message of {} B exceeds the segmentation limit of {MAX_MESSAGE} B",
        data.len()
    );
    let count = data.len().div_ceil(FRAG_DATA).max(1);
    let mut head = [0u8; FRAG_HEADER];
    head[0..4].copy_from_slice(&msg_id.to_le_bytes());
    head[6..8].copy_from_slice(&(count as u16).to_le_bytes());
    head[8..12].copy_from_slice(&(data.len() as u32).to_le_bytes());
    head[12..14].copy_from_slice(&handler.0.to_le_bytes());
    for idx in 0..count {
        let chunk = &data[idx * FRAG_DATA..data.len().min((idx + 1) * FRAG_DATA)];
        head[4..6].copy_from_slice(&(idx as u16).to_le_bytes());
        emit([&head, chunk]);
    }
}

/// Split `data` for `handler` into collected fragment payloads (see
/// [`fragment_each`] for the copy-free streaming form).
pub fn fragment(msg_id: u32, handler: HandlerId, data: &[u8]) -> Vec<Bytes> {
    let mut out = Vec::with_capacity(data.len().div_ceil(FRAG_DATA).max(1));
    fragment_each(msg_id, handler, data, |parts| {
        out.push(Bytes::from(parts.concat()))
    });
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
    /// Index >= count, zero count, or total length inconsistent with count.
    Inconsistent,
    /// A well-formed fragment that is not the next one of its source's
    /// open message (none open, another message, a skipped or repeated
    /// index, or a shape or handler that disagrees) — impossible under
    /// the receive window's in-order, exactly-once delivery.
    OutOfOrder,
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

/// One source's open message: its first fragment's subheader, the index
/// expected next, and the bytes so far.
#[derive(Debug)]
struct Partial {
    head: FragHeader,
    next: u16,
    buf: Vec<u8>,
}

/// Per-node reassembly state: at most one open message per source.
#[derive(Debug, Default)]
pub struct Reassembly {
    /// Indexed by source `NodeId`, grown on a source's first fragment.
    open: Vec<Option<Partial>>,
    /// `Some` entries in `open`.
    in_progress: usize,
    /// Statistics (read via the accessor methods below).
    completed: u64,
    fragments: u64,
    /// Malformed or out-of-order fragments.
    refused: u64,
    evicted_partials: u64,
    aborted_partials: u64,
}

impl Reassembly {
    pub fn new() -> Self {
        Self::default()
    }

    /// Messages currently partially assembled (at most one per source).
    pub fn in_progress(&self) -> usize {
        self.in_progress
    }

    /// Drop the partial message from `src`, if any (the peer was declared
    /// dead or reset: its missing fragments will never arrive). Returns
    /// whether one was abandoned; it counts as an error.
    pub fn abort_source(&mut self, src: NodeId) -> bool {
        let aborted = self.take_open(src).is_some();
        self.aborted_partials += aborted as u64;
        aborted
    }

    fn take_open(&mut self, src: NodeId) -> Option<Partial> {
        let p = self.open.get_mut(src.index())?.take();
        self.in_progress -= p.is_some() as usize;
        p
    }

    /// Feed one fragment payload from `src`. Returns the completed message
    /// when this fragment was its last.
    pub fn on_fragment(
        &mut self,
        src: NodeId,
        frag: &[u8],
    ) -> Result<Option<(HandlerId, Vec<u8>)>, FragError> {
        let (h, data) = parse(frag).inspect_err(|_| self.refused += 1)?;
        if h.idx == 0 {
            // A new message from `src` displaces the one still open, which
            // can then never complete.
            self.evicted_partials += self.take_open(src).is_some() as u64;
            self.fragments += 1;
            if h.count == 1 {
                self.completed += 1;
                return Ok(Some((h.handler, data.to_vec())));
            }
            let mut buf = Vec::with_capacity(h.total_len as usize);
            buf.extend_from_slice(data);
            if src.index() >= self.open.len() {
                self.open.resize_with(src.index() + 1, || None);
            }
            self.open[src.index()] = Some(Partial {
                head: h,
                next: 1,
                buf,
            });
            self.in_progress += 1;
            return Ok(None);
        }
        let next = match self.open.get_mut(src.index()) {
            Some(Some(p)) if p.next == h.idx && p.head == FragHeader { idx: 0, ..h } => p,
            _ => {
                self.refused += 1;
                return Err(FragError::OutOfOrder);
            }
        };
        next.buf.extend_from_slice(data);
        next.next += 1;
        self.fragments += 1;
        if next.next < h.count {
            return Ok(None);
        }
        let done = self.take_open(src).expect("matched above");
        self.completed += 1;
        Ok(Some((h.handler, done.buf)))
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

    /// Refused fragments plus aborted partial messages.
    pub fn errors(&self) -> u64 {
        self.refused + self.aborted_partials
    }

    /// Partial messages displaced by a newer message from their source.
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

    fn frags_of(msg_id: u32, len: usize) -> (Vec<u8>, Vec<Bytes>) {
        let data: Vec<u8> = (0..len).map(|i| (i * 7 + msg_id as usize) as u8).collect();
        let frags = fragment(msg_id, HandlerId(5), &data);
        (data, frags)
    }

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
        let (data, frags) = frags_of(42, 1000);
        assert_eq!(frags.len(), 1000usize.div_ceil(FRAG_DATA));
        let mut r = Reassembly::new();
        let mut done = None;
        for f in &frags {
            if let Some(x) = r.on_fragment(NodeId(1), f).unwrap() {
                done = Some(x);
            }
        }
        assert_eq!(done, Some((HandlerId(5), data)));
        assert_eq!((r.fragments(), r.errors()), (frags.len() as u64, 0));
    }

    #[test]
    fn sources_interleave_with_one_partial_each() {
        let (da, fa) = frags_of(9, 300);
        let (db, fb) = frags_of(9, 300);
        let mut r = Reassembly::new();
        let mut results = Vec::new();
        // Same msg_id from two senders, fragment by fragment.
        for (x, y) in fa.iter().zip(&fb) {
            results.extend(r.on_fragment(NodeId(0), x).unwrap());
            results.extend(r.on_fragment(NodeId(4), y).unwrap());
            assert!(r.in_progress() <= 2);
        }
        assert_eq!(results, [(HandlerId(5), da), (HandlerId(5), db)]);
        assert_eq!(r.in_progress(), 0);
    }

    #[test]
    fn a_fragment_out_of_order_is_refused_and_the_partial_kept() {
        let (data, frags) = frags_of(1, 3 * FRAG_DATA);
        let (_, other) = frags_of(2, 3 * FRAG_DATA);
        let mut r = Reassembly::new();
        // Nothing open: a middle fragment is refused.
        assert_eq!(
            r.on_fragment(NodeId(0), &frags[1]),
            Err(FragError::OutOfOrder)
        );
        r.on_fragment(NodeId(0), &frags[0]).unwrap();
        // Skipped ahead, or another message's next fragment.
        for stray in [&frags[2], &other[1]] {
            assert_eq!(r.on_fragment(NodeId(0), stray), Err(FragError::OutOfOrder));
        }
        r.on_fragment(NodeId(0), &frags[1]).unwrap();
        // Repeated.
        assert_eq!(
            r.on_fragment(NodeId(0), &frags[1]),
            Err(FragError::OutOfOrder)
        );
        assert_eq!((r.errors(), r.fragments(), r.in_progress()), (4, 2, 1));
        let done = r.on_fragment(NodeId(0), &frags[2]).unwrap();
        assert_eq!(done, Some((HandlerId(5), data)));
        assert_eq!((r.in_progress(), r.completed()), (0, 1));
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
            Err(FragError::OutOfOrder)
        );
        assert_eq!((r.fragments(), r.errors()), (1, 1));
        r.on_fragment(NodeId(0), &frags[1]).unwrap();
        let done = r.on_fragment(NodeId(0), &frags[2]).unwrap();
        assert_eq!(done, Some((HandlerId(1), vec![0u8; 300])));
        assert_eq!(r.fragments(), 3);
    }

    #[test]
    fn a_new_message_displaces_the_open_one_and_abort_counts_once() {
        let mut r = Reassembly::new();
        let opening = |id: u32| fragment(id, HandlerId(1), &[id as u8; FRAG_DATA + 1]);
        for id in 0..5 {
            r.on_fragment(NodeId(7), &opening(id)[0]).unwrap();
            assert_eq!(r.in_progress(), 1);
        }
        assert_eq!(r.evicted_partials(), 4);
        // Msg 3 was displaced: its tail completes nothing.
        assert_eq!(
            r.on_fragment(NodeId(7), &opening(3)[1]),
            Err(FragError::OutOfOrder)
        );
        // Another source is not constrained by node 7's partial.
        r.on_fragment(NodeId(8), &opening(9)[0]).unwrap();
        assert_eq!((r.in_progress(), r.evicted_partials()), (2, 4));
        assert!(r.abort_source(NodeId(7)));
        assert!(!r.abort_source(NodeId(7)), "nothing left to abort");
        assert!(!r.abort_source(NodeId(300)), "a source never seen");
        assert_eq!((r.in_progress(), r.aborted_partials()), (1, 1));
        let done = r.on_fragment(NodeId(8), &opening(9)[1]).unwrap();
        assert_eq!(done, Some((HandlerId(1), vec![9u8; FRAG_DATA + 1])));
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
        assert_eq!((r.errors(), r.fragments(), r.in_progress()), (3, 0, 0));
    }

    #[test]
    fn fragments_gather_a_subheader_and_a_borrowed_chunk() {
        let data = vec![7u8; FRAG_DATA * 3 + 5];
        let mut lens = Vec::new();
        fragment_each(0, HandlerId(0), &data, |[head, chunk]| {
            assert_eq!(head.len(), FRAG_HEADER);
            assert!(data.as_ptr_range().contains(&chunk.as_ptr()), "a borrow");
            lens.push(chunk.len());
        });
        assert_eq!(lens, [FRAG_DATA, FRAG_DATA, FRAG_DATA, 5]);
        let frags = fragment(0, HandlerId(0), &data);
        for f in &frags[..3] {
            assert_eq!(f.len(), FM_FRAME_PAYLOAD);
        }
        assert_eq!(frags[3].len(), FRAG_HEADER + 5);
    }
}
