//! The FM wire frame: layout, encode, decode.
//!
//! One frame is one Myrinet packet. FM 1.0 chose a 128-byte frame payload
//! (paper Section 5: 80–90% of achievable bandwidth with low latency, and a
//! good fit for IP traffic); the header adds a fixed 32 bytes that count
//! toward wire time but not payload ("message length refers to the payload",
//! Section 4.1).
//!
//! Layout (version 2), little-endian:
//!
//! ```text
//! offset  size  field
//!      0     1  version marker  (0xF0 | version; always 0xF2)
//!      1     1  kind            (0 = Data, 1 = Return, 2 = Ack)
//!      2     1  payload length  (0..=128)
//!      3     1  flags           (bit 0: trace context sampled;
//!                                bits 1..=7: piggybacked ack count, 0..=4)
//!      4     2  src node id
//!      6     2  dst node id
//!      8     2  handler id
//!     10     2  sender slot id  (reject-queue reservation index; a
//!               returned frame's O(1) way back to its window slot)
//!     12     4  sender sequence number (per-destination: drives the
//!               receiver's duplicate-suppression window and names the
//!               frame in acks)
//!     16     4  trace id (cluster-wide causal trace the frame belongs to;
//!               0 and flags bit 0 clear when the frame is unsampled)
//!     20     2  trace hop stamp (causal depth of this send in its trace)
//!     22     4  first piggybacked ack: the sequence number it acks
//!     26     6  the other acks: 3 x i16, each seq minus the first's
//!               (unused ones 0)
//!     32     N  payload
//!   32+N     4  CRC32 (IEEE) over header + payload, little-endian
//! ```
//!
//! This is the only layout the decoder accepts: a buffer whose first byte
//! is anything else — a version-1 frame included — is refused as
//! [`CodecError::BadVersion`] before another byte is read.
//!
//! Acknowledgements piggyback on data frames: up to [`PIGGY_MAX`] of them,
//! each the full 32-bit sequence number of a frame the receiver retained
//! (see [`PiggyAcks`]); standalone `Ack` frames carry theirs in the same
//! area and have no payload. Acks toward one peer name nearby sequence
//! numbers, so one base and three 16-bit deltas hold four of them; an ack
//! more than an `i16` away from the first simply waits for the next frame.
//!
//! The trace context rides the same way the acks do: a few fixed header
//! bytes, zero extra packets. A sampled frame carries a 32-bit
//! trace id and a 16-bit hop stamp; endpoints record span events against
//! the id so `fm_telemetry::merge` can stitch one message's life across
//! endpoints (see DESIGN.md, "Beyond the paper: cluster-wide tracing").
//!
//! The CRC trailer is this codebase's first departure from the paper: real
//! Myrinet delegated integrity to link-level hardware CRC, so FM 1.0 never
//! checks. Our fault-injection layer ([`crate::fault`]) flips bits in
//! transit, so every frame carries an end-to-end checksum, computed in
//! software once in [`FrameHeader::encode_into`] and once in
//! [`FrameHeader::parse`] — the two largest per-byte costs of a
//! frame, which is why [`crc32`] folds with carry-less multiplies where the
//! CPU has them and sixteen table bytes per step where it does not. Decoding is
//! *strict about total length* (`buf.len()` must equal header + declared
//! payload + trailer): a bit flip in the length field then always surfaces
//! as a structural error rather than silently moving where the CRC is read,
//! which is what makes single-bit corruption provably detectable (see the
//! bit-flip properties in the workspace root's `tests/properties.rs`).

use bytes::Bytes;
use fm_myrinet::NodeId;
use std::fmt;

use crate::handler::HandlerId;

/// Maximum FM frame payload: 32 words (paper Section 5).
pub const FM_FRAME_PAYLOAD: usize = 128;

/// Fixed wire header size.
pub const FM_HEADER_BYTES: usize = 32;

/// Wire format version, encoded as `0xF0 | FM_WIRE_VERSION` in byte 0 of
/// every frame.
pub const FM_WIRE_VERSION: u8 = 2;

/// Byte 0 of every frame.
const VERSION_BYTE: u8 = 0xF0 | FM_WIRE_VERSION;

/// Flags byte, bit 0: the frame carries a sampled trace context. The bits
/// above it hold the piggybacked ack count.
const FLAG_TRACED: u8 = 0x01;

/// Offset of the piggyback area: the first acked seq, then the deltas.
const PIGGY_AT: usize = 22;

/// Bytes of the piggyback area: one `u32` and `PIGGY_MAX - 1` `i16`s.
const PIGGY_BYTES: usize = 4 + 2 * (PIGGY_MAX - 1);

/// CRC32 trailer appended after the payload.
pub const FM_CRC_BYTES: usize = 4;

/// Largest encoded frame: header plus a full payload plus the CRC trailer.
/// One fabric ring slot holds exactly this many bytes.
pub const FM_FRAME_MAX: usize = FM_HEADER_BYTES + FM_FRAME_PAYLOAD + FM_CRC_BYTES;

/// CRC-32 (IEEE 802.3) of the frame trailer; public so tests and the fault
/// injector can recompute it. The implementation is `fm_telemetry::crc`,
/// the one copy in the workspace (it sits below this crate in the
/// dependency order, and the telemetry beacons checksum with it too).
///
/// One polynomial (reflected `0xEDB88320`), so one wire format, on two
/// paths picked at run time:
/// - On x86_64 CPUs where `is_x86_feature_detected!` reports `pclmulqdq` and
///   `sse4.1`, a carry-less-multiply fold (four 16-byte lanes per 64 bytes,
///   one lane per 16 after that, a Barrett reduction to 32 bits). Its one
///   `unsafe` is the call into that `#[target_feature]` function. It is
///   sound because the call happens only after detection has confirmed
///   both features, and the function body is safe code with no raw pointers.
/// - Everywhere else, the slicing-by-16 fallback: 16 KiB of compile-time
///   tables, safe Rust.
///
/// Median `frame.crc32_ns_128` (`benchmark/`, 2-vCPU x86_64 VM): 59 ns by
/// slicing-by-16, 9 ns by the fold. Both paths are tested against a
/// bit-at-a-time reference on every host.
pub use fm_telemetry::crc32;

/// Maximum acknowledgements piggybacked on one frame.
pub const PIGGY_MAX: usize = 4;

/// Frame type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// An ordinary data frame carrying a handler id and payload.
    Data = 0,
    /// A data frame bounced back to its sender by a full receiver
    /// (return-to-sender flow control). It still carries the original
    /// payload, but the sender never reads it: the sender retransmits from
    /// the window slot it keeps until the frame is acked.
    Return = 1,
    /// A standalone acknowledgement (acked seqs in the piggyback area).
    Ack = 2,
}

/// Compact causal trace context carried in the frame header.
///
/// A sampled send mints an id and hop 0; handler-issued sends triggered by
/// a traced delivery inherit the id with `hop + 1`, so one id names the
/// whole causal chain and `(id, hop)` names one wire crossing within it.
/// The all-zero default (`sampled == false`) is what unsampled frames
/// carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Whether this frame belongs to a sampled trace.
    pub sampled: bool,
    /// Cluster-wide trace identifier (meaningful only when `sampled`).
    pub id: u32,
    /// Causal hop depth of this send within the trace.
    pub hop: u16,
}

impl TraceCtx {
    /// A sampled context at the given hop depth.
    pub fn sampled(id: u32, hop: u16) -> Self {
        TraceCtx {
            sampled: true,
            id,
            hop,
        }
    }

    /// The context a causally-dependent send (issued from a handler that
    /// is processing this context) should carry: same id, one hop deeper.
    pub fn next_hop(self) -> Self {
        TraceCtx {
            sampled: self.sampled,
            id: self.id,
            hop: self.hop.wrapping_add(1),
        }
    }
}

/// Errors from [`WireFrame::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer shorter than the fixed header.
    Truncated { have: usize },
    /// Byte 0 (carried here) is not the `0xF0 | FM_WIRE_VERSION` marker:
    /// another version's frame, or not an FM frame at all.
    BadVersion(u8),
    /// Unknown `kind` byte.
    BadKind(u8),
    /// Length field exceeds [`FM_FRAME_PAYLOAD`].
    BadLength(u8),
    /// Piggyback count (the flags byte's bits 1..=7) exceeds [`PIGGY_MAX`].
    BadPiggyCount(u8),
    /// Buffer shorter than header + declared payload + CRC trailer.
    PayloadTruncated { want: usize, have: usize },
    /// Buffer longer than header + declared payload + CRC trailer. Strict
    /// total-length checking is what pins the CRC trailer's position, so a
    /// corrupted length field cannot silently move where the CRC is read.
    LengthMismatch { want: usize, have: usize },
    /// CRC trailer does not match the frame contents: corruption in
    /// transit. The frame is dropped and counted (`stats.corrupt`); the
    /// sender's retransmission timer recovers it.
    BadCrc { computed: u32, stored: u32 },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { have } => write!(f, "frame truncated: {have} bytes"),
            CodecError::BadVersion(b) => write!(f, "unsupported wire version byte {b:#04x}"),
            CodecError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            CodecError::BadLength(l) => write!(f, "payload length {l} > 128"),
            CodecError::BadPiggyCount(c) => write!(f, "piggyback count {c} > 4"),
            CodecError::PayloadTruncated { want, have } => {
                write!(f, "payload truncated: want {want}, have {have}")
            }
            CodecError::LengthMismatch { want, have } => {
                write!(f, "frame length mismatch: want exactly {want}, have {have}")
            }
            CodecError::BadCrc { computed, stored } => {
                write!(
                    f,
                    "CRC mismatch: computed {computed:#010x}, stored {stored:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Everything a frame carries except its payload bytes: the 32-byte wire
/// header, decoded. `Copy` and small, so it is what moves through the
/// protocol engine while the payload stays where it was written — in a
/// wire-ring slot on the way in ([`FrameHeader::parse`] borrows it), in a
/// [`FrameSlot`] at rest, in the destination wire slot on the way out
/// ([`FrameHeader::encode_into`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    pub kind: FrameKind,
    pub src: NodeId,
    pub dst: NodeId,
    pub handler: HandlerId,
    /// The sender's reject-queue slot this frame occupies until acked. A
    /// bounce finds the slot by it; the slot's frame must then have the
    /// same destination and `seq` for the bounce to count.
    pub slot: u16,
    /// Per-(src, dst) sequence number: the frame's one name. The receiver
    /// suppresses duplicates and delivers in order by it, and acks it.
    pub seq: u32,
    /// Causal trace context (all-zero when the send was not sampled).
    /// Survives bounce and retransmission, so a retried frame stays in its
    /// trace.
    pub trace: TraceCtx,
    /// Piggybacked acknowledgements: sequence numbers of frames *we*
    /// received from `dst`.
    pub piggy: PiggyAcks,
}

impl FrameHeader {
    /// The header of a data frame with no trace context and no
    /// piggybacked acks (set the fields that differ).
    pub fn data(src: NodeId, dst: NodeId, handler: HandlerId, slot: u16, seq: u32) -> Self {
        FrameHeader {
            kind: FrameKind::Data,
            handler,
            slot,
            seq,
            ..FrameHeader::ack(src, dst, PiggyAcks::new())
        }
    }

    /// The header of a standalone acknowledgement from `src` to `dst`.
    pub fn ack(src: NodeId, dst: NodeId, acks: PiggyAcks) -> Self {
        FrameHeader {
            kind: FrameKind::Ack,
            src,
            dst,
            handler: HandlerId(0),
            slot: 0,
            seq: 0,
            trace: TraceCtx::default(),
            piggy: acks,
        }
    }

    /// The bounced (return-to-sender) form of a received data frame's
    /// header: same slot, sequence number and trace context —
    /// what the sender needs to recognise its frame — direction reversed,
    /// piggybacked acks dropped (they were consumed on arrival).
    pub fn into_return(mut self) -> Self {
        debug_assert_eq!(self.kind, FrameKind::Data);
        self.kind = FrameKind::Return;
        std::mem::swap(&mut self.src, &mut self.dst);
        self.piggy = PiggyAcks::new();
        self
    }

    /// Encode this header and `payload` into `buf` (at least
    /// `FM_HEADER_BYTES + payload.len() + FM_CRC_BYTES` long, e.g. a fabric
    /// ring slot), returning the encoded length. The one encoder: performs
    /// no allocation and reads the payload exactly once.
    #[inline]
    pub fn encode_into(&self, payload: &[u8], buf: &mut [u8]) -> usize {
        assert!(
            payload.len() <= FM_FRAME_PAYLOAD,
            "FM frame payload limited to {FM_FRAME_PAYLOAD} bytes (got {})",
            payload.len()
        );
        let body = FM_HEADER_BYTES + payload.len();
        let n = body + FM_CRC_BYTES;
        assert!(
            buf.len() >= n,
            "encode buffer too small: {} < {n}",
            buf.len()
        );
        buf[0] = VERSION_BYTE;
        buf[1] = self.kind as u8;
        buf[2] = payload.len() as u8;
        let acks = &self.piggy;
        buf[3] = acks.len << 1 | if self.trace.sampled { FLAG_TRACED } else { 0 };
        buf[4..6].copy_from_slice(&self.src.0.to_le_bytes());
        buf[6..8].copy_from_slice(&self.dst.0.to_le_bytes());
        buf[8..10].copy_from_slice(&self.handler.0.to_le_bytes());
        buf[10..12].copy_from_slice(&self.slot.to_le_bytes());
        buf[12..16].copy_from_slice(&self.seq.to_le_bytes());
        buf[16..20].copy_from_slice(&self.trace.id.to_le_bytes());
        buf[20..22].copy_from_slice(&self.trace.hop.to_le_bytes());
        buf[PIGGY_AT..FM_HEADER_BYTES].copy_from_slice(&acks.area);
        buf[FM_HEADER_BYTES..body].copy_from_slice(payload);
        let crc = crc32(&buf[..body]);
        buf[body..n].copy_from_slice(&crc.to_le_bytes());
        n
    }

    /// Validate one encoded frame — version, kind, length, piggyback count,
    /// exact total length, CRC — and split it into its header and a borrow
    /// of its payload. The one validator: every byte that enters the
    /// protocol engine from a wire passed through here, and nothing is
    /// copied.
    #[inline]
    pub fn parse(buf: &[u8]) -> Result<(FrameHeader, &[u8]), CodecError> {
        match buf.first() {
            None => return Err(CodecError::Truncated { have: 0 }),
            Some(&VERSION_BYTE) => {}
            Some(&other) => return Err(CodecError::BadVersion(other)),
        }
        if buf.len() < FM_HEADER_BYTES {
            return Err(CodecError::Truncated { have: buf.len() });
        }
        let kind = match buf[1] {
            0 => FrameKind::Data,
            1 => FrameKind::Return,
            2 => FrameKind::Ack,
            k => return Err(CodecError::BadKind(k)),
        };
        let len = buf[2];
        if len as usize > FM_FRAME_PAYLOAD {
            return Err(CodecError::BadLength(len));
        }
        let rd16 = |o: usize| u16::from_le_bytes([buf[o], buf[o + 1]]);
        let rd32 = |o: usize| u32::from_le_bytes([buf[o], buf[o + 1], buf[o + 2], buf[o + 3]]);
        let piggy_count = buf[3] >> 1;
        if piggy_count as usize > PIGGY_MAX {
            return Err(CodecError::BadPiggyCount(piggy_count));
        }
        let body = FM_HEADER_BYTES + len as usize;
        let want = body + FM_CRC_BYTES;
        if buf.len() < want {
            return Err(CodecError::PayloadTruncated {
                want,
                have: buf.len(),
            });
        }
        if buf.len() > want {
            return Err(CodecError::LengthMismatch {
                want,
                have: buf.len(),
            });
        }
        let stored = rd32(body);
        let computed = crc32(&buf[..body]);
        if computed != stored {
            return Err(CodecError::BadCrc { computed, stored });
        }
        // The area is taken whole: bytes past the `len` acks are carried
        // (and encode back as they came), never read.
        let piggy = PiggyAcks {
            area: buf[PIGGY_AT..FM_HEADER_BYTES].try_into().unwrap(),
            len: piggy_count,
        };
        let trace = if buf[3] & FLAG_TRACED != 0 {
            TraceCtx::sampled(rd32(16), rd16(20))
        } else {
            TraceCtx::default()
        };
        let head = FrameHeader {
            kind,
            src: NodeId(rd16(4)),
            dst: NodeId(rd16(6)),
            handler: HandlerId(rd16(8)),
            slot: rd16(10),
            seq: rd32(12),
            trace,
            piggy,
        };
        Ok((head, &buf[FM_HEADER_BYTES..body]))
    }
}

/// A frame at rest: its header and its payload bytes held in place. This
/// is what a send-window slot, a receive-ring slot, a reorder-window entry
/// and a queued return image are made of — [`FrameSlot::fill`] is the one
/// copy a payload makes on its way into any of them, and the frame is
/// read (encoded from, handed to a handler) where it lies.
#[derive(Debug, Clone)]
pub struct FrameSlot {
    pub head: FrameHeader,
    len: u8,
    bytes: [u8; FM_FRAME_PAYLOAD],
}

impl FrameSlot {
    /// A slot holding `head` and a copy of `payload`.
    pub fn new(head: FrameHeader, payload: &[u8]) -> Self {
        let mut slot = FrameSlot::default();
        slot.fill(head, payload);
        slot
    }

    /// Overwrite this slot with `head` and a copy of `payload` (at most
    /// [`FM_FRAME_PAYLOAD`] bytes — callers have checked, or
    /// [`FrameHeader::parse`] has).
    #[inline]
    pub fn fill(&mut self, head: FrameHeader, payload: &[u8]) {
        self.head = head;
        self.bytes[..payload.len()].copy_from_slice(payload);
        self.len = payload.len() as u8;
    }

    /// [`Self::fill`] with the concatenation of `parts` as the payload
    /// (their total checked as for `fill`).
    #[inline]
    pub(crate) fn fill_gather(&mut self, head: FrameHeader, parts: &[&[u8]]) {
        self.head = head;
        let mut at = 0;
        for part in parts {
            self.bytes[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        self.len = at as u8;
    }

    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

impl Default for FrameSlot {
    fn default() -> Self {
        FrameSlot {
            head: FrameHeader::ack(NodeId(0), NodeId(0), PiggyAcks::new()),
            len: 0,
            bytes: [0; FM_FRAME_PAYLOAD],
        }
    }
}

/// One FM frame as an owned value: [`FrameHeader`]'s fields plus the
/// payload in a `Bytes`. The protocol engine itself works on headers and
/// borrowed payloads; this is the form the sans-IO harnesses shuttle between
/// [`crate::endpoint::EndpointCore::pop_outgoing`] and
/// [`crate::endpoint::EndpointCore::on_wire`], and what the fault injector
/// and the full-ring backlog park.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    pub head: FrameHeader,
    pub payload: Bytes,
}

/// The acks one frame carries: up to [`PIGGY_MAX`] sequence numbers of
/// frames its sender retained from its destination, oldest first, held as
/// the wire's piggyback area holds them — the first in full, the rest as
/// 16-bit deltas from it, so a seq more than an `i16` away from the first
/// goes in the next frame ([`PiggyAcks::from_prefix`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PiggyAcks {
    /// The area's bytes, little-endian. Past the `len` acks they are 0,
    /// unless a decoded frame carried something else there.
    area: [u8; PIGGY_BYTES],
    len: u8,
}

impl PiggyAcks {
    pub fn new() -> Self {
        Self::default()
    }

    fn first(&self) -> u32 {
        u32::from_le_bytes(self.area[..4].try_into().unwrap())
    }

    /// The acks for the longest prefix of `seqs` (oldest first) that one
    /// frame carries: at most [`PIGGY_MAX`], stopping before the first seq
    /// more than an `i16` away from `seqs[0]`.
    pub fn from_prefix(seqs: &[u32]) -> Self {
        let mut acks = PiggyAcks::default();
        let Some((&first, rest)) = seqs.split_first() else {
            return acks;
        };
        acks.area[..4].copy_from_slice(&first.to_le_bytes());
        acks.len = 1;
        for (i, &seq) in rest.iter().take(PIGGY_MAX - 1).enumerate() {
            let Ok(delta) = i16::try_from(seq.wrapping_sub(first) as i32) else {
                break;
            };
            acks.area[4 + 2 * i..6 + 2 * i].copy_from_slice(&delta.to_le_bytes());
            acks.len += 1;
        }
        acks
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The acked sequence numbers, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let first = self.first();
        (0..self.len()).map(move |i| match i {
            0 => first,
            _ => {
                let delta = i16::from_le_bytes([self.area[2 + 2 * i], self.area[3 + 2 * i]]);
                first.wrapping_add(delta as u32)
            }
        })
    }
}

impl WireFrame {
    /// A data frame.
    pub fn data(
        src: NodeId,
        dst: NodeId,
        handler: HandlerId,
        slot: u16,
        seq: u32,
        payload: Bytes,
    ) -> Self {
        assert!(
            payload.len() <= FM_FRAME_PAYLOAD,
            "FM frame payload limited to {FM_FRAME_PAYLOAD} bytes (got {})",
            payload.len()
        );
        WireFrame {
            head: FrameHeader::data(src, dst, handler, slot, seq),
            payload,
        }
    }

    /// An owned frame from a header and a copy of `payload` (inline in the
    /// `Bytes`: no allocation for any legal frame).
    #[inline]
    pub fn from_parts(head: FrameHeader, payload: &[u8]) -> Self {
        WireFrame {
            head,
            payload: Bytes::copy_from_slice(payload),
        }
    }

    /// Total bytes this frame occupies on the wire (header + payload +
    /// CRC trailer).
    pub fn wire_bytes(&self) -> usize {
        FM_HEADER_BYTES + self.payload.len() + FM_CRC_BYTES
    }

    /// Encode directly into `buf` (at least [`Self::wire_bytes`] long,
    /// e.g. a fabric ring slot), returning the encoded length — see
    /// [`FrameHeader::encode_into`].
    pub fn encode_into(&self, buf: &mut [u8]) -> usize {
        self.head.encode_into(&self.payload, buf)
    }

    /// Encode to wire bytes. With the inline small-buffer `Bytes`
    /// representation every frame (max [`FM_FRAME_MAX`] bytes) stays on the
    /// stack — no heap allocation.
    pub fn encode(&self) -> Bytes {
        let mut buf = [0u8; FM_FRAME_MAX];
        let n = self.encode_into(&mut buf);
        Bytes::copy_from_slice(&buf[..n])
    }

    /// Decode from wire bytes.
    pub fn decode(buf: &Bytes) -> Result<Self, CodecError> {
        Self::decode_slice(&buf[..])
    }

    /// Decode from a raw byte slice (e.g. a fabric ring slot):
    /// [`FrameHeader::parse`], then the payload copied out into an inline
    /// `Bytes`.
    pub fn decode_slice(buf: &[u8]) -> Result<Self, CodecError> {
        let (head, payload) = FrameHeader::parse(buf)?;
        Ok(Self::from_parts(head, payload))
    }

    /// Read the (src, dst) pair out of an encoded frame without
    /// validating the CRC or copying the payload — the switch forwarding
    /// path's route lookup, and the flow identity it hashes for
    /// multi-trunk spread. A corrupted byte can misroute the frame (onto a
    /// wrong but still per-flow-consistent trunk), but the full-frame CRC
    /// check at the receiving endpoint then rejects it (the CRC covers the
    /// same bytes peeked here), so the endpoint-side `dst == self`
    /// invariant still holds for every frame that *decodes*. Returns
    /// `None` for frames too short to carry the fields or whose first byte
    /// is not the version marker.
    pub fn peek_flow(buf: &[u8]) -> Option<(NodeId, NodeId)> {
        match buf {
            [VERSION_BYTE, _, _, _, s0, s1, d0, d1, ..] => Some((
                NodeId(u16::from_le_bytes([*s0, *s1])),
                NodeId(u16::from_le_bytes([*d0, *d1])),
            )),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acks(seqs: &[u32]) -> PiggyAcks {
        let p = PiggyAcks::from_prefix(seqs);
        assert_eq!(p.len(), seqs.len(), "{seqs:?} fit one frame");
        p
    }

    fn sample() -> WireFrame {
        let mut f = WireFrame::data(
            NodeId(3),
            NodeId(7),
            HandlerId(42),
            19,
            0xDEAD_BEEF,
            Bytes::from_static(b"hello fm"),
        );
        f.head.piggy = acks(&[5, 1000]);
        f
    }

    #[test]
    fn roundtrip_data_frame() {
        let f = sample();
        let enc = f.encode();
        assert_eq!(enc.len(), FM_HEADER_BYTES + 8 + FM_CRC_BYTES);
        let d = WireFrame::decode(&enc).unwrap();
        assert_eq!(d, f);
    }

    #[test]
    fn peek_matches_decode() {
        let enc = sample().encode();
        assert_eq!(WireFrame::peek_flow(&enc), Some((NodeId(3), NodeId(7))));
        // Too short for the fields, or any other first byte: no peek.
        for bad in [&[][..], &[0xF1, 0, 0, 0, 0], &[0xF7; 64], &[0x00; 64]] {
            assert_eq!(WireFrame::peek_flow(bad), None);
        }
    }

    #[test]
    fn roundtrip_ack_frame() {
        let f = WireFrame::from_parts(
            FrameHeader::ack(NodeId(1), NodeId(0), acks(&[7, 8, 9])),
            &[],
        );
        let d = WireFrame::decode(&f.encode()).unwrap();
        assert_eq!(d, f);
        assert_eq!(d.head.piggy.iter().collect::<Vec<_>>(), [7, 8, 9]);
        assert!(d.payload.is_empty());
    }

    #[test]
    fn roundtrip_empty_payload() {
        let f = WireFrame::data(NodeId(0), NodeId(1), HandlerId(0), 0, 0, Bytes::new());
        assert_eq!(f.wire_bytes(), FM_HEADER_BYTES + FM_CRC_BYTES);
        assert_eq!(WireFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn roundtrip_max_payload() {
        let f = WireFrame::data(
            NodeId(0),
            NodeId(1),
            HandlerId(9),
            1,
            2,
            Bytes::from(vec![0xAB; FM_FRAME_PAYLOAD]),
        );
        assert_eq!(WireFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn roundtrip_trace_context() {
        let mut f = sample();
        f.head.trace = TraceCtx::sampled(0xCAFE_F00D, 513);
        let d = WireFrame::decode(&f.encode()).unwrap();
        assert_eq!(d, f);
        assert!(d.head.trace.sampled);
        assert_eq!(d.head.trace.id, 0xCAFE_F00D);
        assert_eq!(d.head.trace.hop, 513);
    }

    #[test]
    fn unsampled_trace_encodes_as_zeroes() {
        let f = sample();
        let enc = f.encode();
        assert_eq!(
            enc[3] & FLAG_TRACED,
            0,
            "trace flag clear for unsampled frames"
        );
        assert_eq!(&enc[16..20], &[0, 0, 0, 0], "trace id field zero");
        assert_eq!(&enc[20..22], &[0, 0], "hop field zero");
        assert_eq!(
            WireFrame::decode(&enc).unwrap().head.trace,
            TraceCtx::default()
        );
    }

    #[test]
    fn decode_accepts_one_layout() {
        // The previous version, a later one, the retired headerless layout
        // (byte 0 was the kind, 0..=2), arbitrary bytes: anything but 0xF2
        // up front is refused before the rest of the buffer is looked at.
        for first in [0xF1, 0xF3, 0xF0, 0x00, 0x01, 0x02, 0x7F] {
            let mut enc = sample().encode().to_vec();
            enc[0] = first;
            assert_eq!(
                WireFrame::decode_slice(&enc),
                Err(CodecError::BadVersion(first))
            );
            assert_eq!(
                WireFrame::decode_slice(&[first]),
                Err(CodecError::BadVersion(first))
            );
        }
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn oversized_payload_panics() {
        WireFrame::data(
            NodeId(0),
            NodeId(1),
            HandlerId(0),
            0,
            0,
            Bytes::from(vec![0; FM_FRAME_PAYLOAD + 1]),
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            WireFrame::decode_slice(&[]),
            Err(CodecError::Truncated { have: 0 })
        ));
        assert!(matches!(
            WireFrame::decode(&Bytes::from_static(b"\xF2x")),
            Err(CodecError::Truncated { have: 2 })
        ));
        let mut bad = sample().encode().to_vec();
        bad[1] = 9;
        assert!(matches!(
            WireFrame::decode(&Bytes::from(bad)),
            Err(CodecError::BadKind(9))
        ));
        let mut bad = sample().encode().to_vec();
        bad[2] = 200;
        assert!(matches!(
            WireFrame::decode(&Bytes::from(bad)),
            Err(CodecError::BadLength(200))
        ));
        let mut bad = sample().encode().to_vec();
        bad[3] = 5 << 1;
        assert!(matches!(
            WireFrame::decode(&Bytes::from(bad)),
            Err(CodecError::BadPiggyCount(5))
        ));
        let good = sample().encode();
        let short = good.slice(..good.len() - 1);
        assert!(matches!(
            WireFrame::decode(&short),
            Err(CodecError::PayloadTruncated { .. })
        ));
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut enc = sample().encode().to_vec();
        enc[FM_HEADER_BYTES] ^= 0x01; // first payload byte
        assert!(matches!(
            WireFrame::decode_slice(&enc),
            Err(CodecError::BadCrc { .. })
        ));
    }

    #[test]
    fn corrupt_trailer_fails_crc() {
        let mut enc = sample().encode().to_vec();
        let last = enc.len() - 1;
        enc[last] ^= 0x80;
        assert!(matches!(
            WireFrame::decode_slice(&enc),
            Err(CodecError::BadCrc { .. })
        ));
    }

    #[test]
    fn corrupt_header_detected() {
        // A flip in the seq field (not covered by any structural check)
        // must still be caught by the CRC.
        let mut enc = sample().encode().to_vec();
        enc[13] ^= 0x10;
        assert!(WireFrame::decode_slice(&enc).is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // The IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn a_bounce_keeps_what_identifies_the_frame() {
        let mut f = sample();
        f.head.trace = TraceCtx::sampled(99, 1);
        let bounced = f.head.into_return();
        assert_eq!(bounced.kind, FrameKind::Return);
        assert_eq!((bounced.src, bounced.dst), (f.head.dst, f.head.src));
        assert_eq!((bounced.slot, bounced.seq), (19, 0xDEAD_BEEF));
        assert!(bounced.piggy.is_empty(), "bounce drops piggybacked acks");
        assert_eq!(
            bounced.trace, f.head.trace,
            "bounce keeps the trace context"
        );
    }

    #[test]
    fn a_slot_holds_and_encodes_what_it_was_filled_with() {
        let f = sample();
        let mut slot = FrameSlot::new(f.head, &[0xEE; FM_FRAME_PAYLOAD]);
        slot.fill(f.head, &f.payload);
        assert_eq!(
            slot.payload(),
            &f.payload[..],
            "a shorter refill hides the old tail"
        );
        let mut image = [0u8; FM_FRAME_MAX];
        let n = slot.head.encode_into(slot.payload(), &mut image);
        assert_eq!(&image[..n], &f.encode()[..]);
        assert_eq!(
            FrameHeader::parse(&image[..n]),
            Ok((f.head, &f.payload[..]))
        );
    }

    #[test]
    fn piggy_acks_bounded() {
        let p = PiggyAcks::from_prefix(&[0, 1, 2, 3, 99]);
        assert_eq!(p.len(), PIGGY_MAX, "fifth ack must wait");
        assert_eq!(p.iter().collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert!(PiggyAcks::from_prefix(&[]).is_empty());
    }

    #[test]
    fn acks_within_an_i16_of_the_first_share_a_frame() {
        // Across the seq wrap and at both ends of the delta range.
        let base = u32::MAX - 5;
        for past in [base.wrapping_add(32_768), base.wrapping_sub(32_769)] {
            let p = PiggyAcks::from_prefix(&[base, past, base]);
            assert_eq!(p.iter().collect::<Vec<_>>(), [base], "{past} waits");
        }
        let p = acks(&[
            base,
            base.wrapping_add(32_767),
            base.wrapping_sub(32_768),
            7,
        ]);
        let f = WireFrame::from_parts(FrameHeader::ack(NodeId(2), NodeId(1), p), &[]);
        let d = WireFrame::decode(&f.encode()).unwrap();
        assert_eq!(d.head.piggy, p);
        let seqs = [
            base,
            base.wrapping_add(32_767),
            base.wrapping_sub(32_768),
            7,
        ];
        assert_eq!(d.head.piggy.iter().collect::<Vec<_>>(), seqs);
    }

    #[test]
    fn a_version_1_frame_is_refused() {
        // An empty v1 data frame as v1 laid it out: piggyback count at byte
        // 12, the slot-generation tag at 13, one 16-bit ack word at 24.
        let mut v1 = [0u8; FM_HEADER_BYTES + FM_CRC_BYTES];
        v1[0] = 0xF1;
        v1[6] = 1;
        v1[12] = 1;
        v1[13] = 5;
        v1[24..26].copy_from_slice(&(3u16 | 5 << 10).to_le_bytes());
        let crc = crc32(&v1[..FM_HEADER_BYTES]);
        v1[FM_HEADER_BYTES..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            WireFrame::decode_slice(&v1),
            Err(CodecError::BadVersion(0xF1))
        );
    }

    #[test]
    fn wire_bytes_includes_header_and_crc() {
        let f = sample();
        assert_eq!(f.wire_bytes(), 32 + 8 + 4);
    }

    #[test]
    fn encode_into_matches_encode() {
        for f in [
            sample(),
            WireFrame::from_parts(
                FrameHeader::ack(NodeId(1), NodeId(0), acks(&[7, 8, 9])),
                &[],
            ),
            WireFrame::data(
                NodeId(0),
                NodeId(1),
                HandlerId(9),
                1,
                2,
                Bytes::from(vec![0xAB; FM_FRAME_PAYLOAD]),
            ),
        ] {
            let mut slot = [0u8; FM_FRAME_MAX];
            let n = f.encode_into(&mut slot);
            assert_eq!(&slot[..n], &f.encode()[..]);
            assert_eq!(WireFrame::decode_slice(&slot[..n]).unwrap(), f);
            // Trailing slot bytes past the declared length are rejected:
            // strict total length pins the CRC trailer's position.
            if n < slot.len() {
                assert!(matches!(
                    WireFrame::decode_slice(&slot),
                    Err(CodecError::LengthMismatch { .. })
                ));
            }
        }
    }

    #[test]
    #[should_panic(expected = "encode buffer too small")]
    fn encode_into_checks_capacity() {
        let mut tiny = [0u8; 8];
        sample().encode_into(&mut tiny);
    }
}
