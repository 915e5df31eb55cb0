//! Handlers: the consumer functions FM messages carry.
//!
//! "Each message carries a pointer to a sender-specified function (called a
//! handler) that consumes the data at the destination" (paper Section 3.1).
//! In Rust we ship a *handler id* on the wire and register the actual
//! closures per node; sender and receiver must agree on the id assignment
//! (in practice every node registers the same handler table, exactly like
//! linking the same program text on every workstation in 1995).
//!
//! Handlers run during `FM_extract` and may themselves send messages — FM
//! imposes no request/reply restriction ("There are no restrictions on the
//! actions that can be performed by an handler, and it is left to the
//! programmer [to prevent] deadlock situations"). Sends issued from inside
//! a handler go through the [`Outbox`], which the runtime flushes after the
//! handler returns; this keeps the borrow structure safe while preserving
//! FM's semantics (FM sends are asynchronous anyway). Message buffers do
//! not persist beyond the handler's return — handlers get a `&[u8]`, not an
//! owned buffer.

use bytes::Bytes;
use fm_myrinet::NodeId;
use std::fmt;

/// Identifies a registered handler. Carried in every frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HandlerId(pub u16);

impl fmt::Display for HandlerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A message handler: `(outbox, source node, payload)`.
pub type Handler = Box<dyn FnMut(&mut Outbox, NodeId, &[u8]) + Send>;

/// Sends queued by a handler, flushed by the runtime after the handler
/// returns.
#[derive(Debug)]
pub struct Outbox {
    queued: Vec<(NodeId, HandlerId, Bytes)>,
    /// The local node, so handlers can know who they are.
    pub me: NodeId,
}

impl Outbox {
    pub fn new(me: NodeId) -> Self {
        Outbox {
            queued: Vec::new(),
            me,
        }
    }

    /// Queue an `FM_send`-style message (up to 128 B payload).
    pub fn send(&mut self, dest: NodeId, handler: HandlerId, payload: impl Into<Bytes>) {
        let payload = payload.into();
        assert!(
            payload.len() <= crate::FM_FRAME_PAYLOAD,
            "handler sends are single frames (<=128 B); use the segmentation \
             layer for larger messages"
        );
        self.queued.push((dest, handler, payload));
    }

    /// Queue an `FM_send`-style message by copying `payload` (which must
    /// fit one frame). The copy lands in an inline `Bytes`, so — unlike
    /// `send(dst, h, data.to_vec())` — this never touches the heap; echo
    /// handlers on the hot path should prefer it.
    pub fn send_copy(&mut self, dest: NodeId, handler: HandlerId, payload: &[u8]) {
        self.send(dest, handler, Bytes::copy_from_slice(payload));
    }

    /// Queue an `FM_send_4`-style four-word message.
    pub fn send_4(&mut self, dest: NodeId, handler: HandlerId, words: [u32; 4]) {
        let mut buf = [0u8; 16];
        for (i, w) in words.iter().enumerate() {
            buf[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        self.queued
            .push((dest, handler, Bytes::copy_from_slice(&buf)));
    }

    /// Number of queued sends.
    pub fn len(&self) -> usize {
        self.queued.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queued.is_empty()
    }

    /// Drain the queued sends (runtime use).
    pub fn drain(&mut self) -> impl Iterator<Item = (NodeId, HandlerId, Bytes)> + '_ {
        self.queued.drain(..)
    }

    /// Swap the queued sends with `other` (runtime use). Lets the extract
    /// loop move the batch out for flushing without allocating a Vec per
    /// delivered frame — the runtime keeps one scratch Vec and round-trips
    /// its capacity through here.
    pub(crate) fn swap_queued(&mut self, other: &mut Vec<(NodeId, HandlerId, Bytes)>) {
        std::mem::swap(&mut self.queued, other);
    }
}

/// Per-node handler table.
///
/// Slot 0 is reserved for segmentation fragments, which the endpoint core
/// reassembles instead of dispatching (see [`crate::seg`]); registration
/// starts at id 1.
pub struct HandlerRegistry {
    table: Vec<Option<Handler>>,
}

impl Default for HandlerRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for HandlerRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ids: Vec<u16> = (0..self.table.len() as u16)
            .filter(|&i| self.table[i as usize].is_some())
            .collect();
        f.debug_struct("HandlerRegistry")
            .field("registered", &ids)
            .finish()
    }
}

impl HandlerRegistry {
    pub fn new() -> Self {
        HandlerRegistry { table: Vec::new() }
    }

    /// Register `h` at the next free id (starting at 1).
    pub fn register(&mut self, h: Handler) -> HandlerId {
        let start = self.table.len().max(1);
        if self.table.len() < start {
            self.table.resize_with(start, || None);
        }
        // Reuse a hole if one exists past slot 0.
        for i in 1..self.table.len() {
            if self.table[i].is_none() {
                self.table[i] = Some(h);
                return HandlerId(i as u16);
            }
        }
        self.table.push(Some(h));
        HandlerId((self.table.len() - 1) as u16)
    }

    /// Register `h` at an explicit id (replacing any previous handler).
    pub fn register_at(&mut self, id: HandlerId, h: Handler) {
        let idx = id.0 as usize;
        if self.table.len() <= idx {
            self.table.resize_with(idx + 1, || None);
        }
        self.table[idx] = Some(h);
    }

    /// Remove a handler.
    pub fn unregister(&mut self, id: HandlerId) -> bool {
        self.table
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .is_some()
    }

    pub fn is_registered(&self, id: HandlerId) -> bool {
        matches!(self.table.get(id.0 as usize), Some(Some(_)))
    }

    /// Temporarily take a handler out of the table so it can be invoked
    /// while the runtime retains `&mut` access to everything else. Must be
    /// paired with [`HandlerRegistry::put_back`].
    pub(crate) fn take(&mut self, id: HandlerId) -> Option<Handler> {
        self.table.get_mut(id.0 as usize).and_then(Option::take)
    }

    pub(crate) fn put_back(&mut self, id: HandlerId, h: Handler) {
        let idx = id.0 as usize;
        debug_assert!(self.table[idx].is_none());
        self.table[idx] = Some(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn register_assigns_increasing_ids_from_1() {
        let mut r = HandlerRegistry::new();
        let a = r.register(Box::new(|_, _, _| {}));
        let b = r.register(Box::new(|_, _, _| {}));
        assert_eq!(a, HandlerId(1));
        assert_eq!(b, HandlerId(2));
        assert!(r.is_registered(a));
        assert!(!r.is_registered(HandlerId(0)), "slot 0 reserved");
    }

    #[test]
    fn unregister_frees_slot_for_reuse() {
        let mut r = HandlerRegistry::new();
        let a = r.register(Box::new(|_, _, _| {}));
        let _b = r.register(Box::new(|_, _, _| {}));
        assert!(r.unregister(a));
        assert!(!r.is_registered(a));
        let c = r.register(Box::new(|_, _, _| {}));
        assert_eq!(c, a, "hole reused");
        assert!(!r.unregister(HandlerId(999)));
    }

    #[test]
    fn take_and_put_back_invoke_handler() {
        let mut r = HandlerRegistry::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = hits.clone();
        let id = r.register(Box::new(move |_, src, data| {
            assert_eq!(src, NodeId(4));
            assert_eq!(data, b"xy");
            h2.fetch_add(1, Ordering::SeqCst);
        }));
        let mut h = r.take(id).unwrap();
        assert!(!r.is_registered(id), "taken out");
        let mut ob = Outbox::new(NodeId(0));
        h(&mut ob, NodeId(4), b"xy");
        r.put_back(id, h);
        assert!(r.is_registered(id));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn outbox_send4_encodes_words_le() {
        let mut ob = Outbox::new(NodeId(9));
        ob.send_4(NodeId(1), HandlerId(2), [1, 2, 3, 0xAABBCCDD]);
        assert_eq!(ob.len(), 1);
        let (dst, h, bytes) = ob.drain().next().unwrap();
        assert_eq!(dst, NodeId(1));
        assert_eq!(h, HandlerId(2));
        assert_eq!(bytes.len(), 16);
        assert_eq!(&bytes[12..16], &0xAABBCCDDu32.to_le_bytes());
    }

    #[test]
    #[should_panic(expected = "single frames")]
    fn outbox_rejects_oversized_send() {
        let mut ob = Outbox::new(NodeId(0));
        ob.send(NodeId(1), HandlerId(1), vec![0u8; 129]);
    }

    #[test]
    fn register_at_explicit_id() {
        let mut r = HandlerRegistry::new();
        r.register_at(HandlerId(40), Box::new(|_, _, _| {}));
        assert!(r.is_registered(HandlerId(40)));
        let next = r.register(Box::new(|_, _, _| {}));
        assert_eq!(next, HandlerId(1), "auto ids fill from the bottom");
    }
}
