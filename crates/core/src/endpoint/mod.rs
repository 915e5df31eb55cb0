//! The FM endpoint protocol engine — pure state, no I/O, no clock.
//!
//! [`EndpointCore`] combines the handler table, host receive ring and
//! return-to-sender flow control into a single state machine with three
//! entry points mirroring the FM calls:
//!
//! * [`EndpointCore::try_send`] — `FM_send` / `FM_send_4`: reserve a window
//!   slot, build the frame *in* it, claim any pending acks toward that
//!   destination, queue a reference to the slot for the wire (`send.rs`);
//! * [`EndpointCore::on_frame`] — a validated frame arrived: data is copied
//!   once, into the receive ring (or bounced when the ring is full),
//!   returns park their window slot for retransmission, acks release window
//!   slots — and an ack that overtakes a still-held frame counts toward
//!   resending it at once ([`GAP_REPAIR_ACKS`]) instead of leaving the hole
//!   to its timer (`recv.rs`, `recovery.rs`);
//! * [`EndpointCore::extract`] — `FM_extract`: retransmit parked frames,
//!   run handlers on the ring's frames where they lie, flush
//!   handler-issued sends and any acknowledgements that found no data
//!   frame to ride on (a reply's may wait one more extract for one).
//!   Frames for the reserved [`SEG_HANDLER`] are fragments: extract
//!   appends them to their source's message in the core's own
//!   [`Reassembly`] and queues each completed one for
//!   [`EndpointCore::take_large`].
//!
//! A frame's bytes therefore move once per side: into its window slot when
//! sent (and from there straight into the wire, however often it is
//! retransmitted), and off the wire into the receive-ring slot its handler
//! reads. Transports hand frames over by reference —
//! [`EndpointCore::emit_outgoing`] out, [`EndpointCore::on_frame`] in; the
//! by-value pair [`EndpointCore::pop_outgoing`] / [`EndpointCore::on_wire`]
//! wraps the same two calls for harnesses that carry frames as values
//! (discrete-event queues, the benchmark ladder).

use bytes::Bytes;
use fm_myrinet::NodeId;
use std::collections::VecDeque;

use crate::flow::{AckTracker, RetransmitConfig, SenderFlow, SeqWindow};
use crate::frame::{FrameSlot, PiggyAcks, TraceCtx, FM_FRAME_PAYLOAD};
use crate::handler::{Handler, HandlerId, HandlerRegistry, Outbox};
use crate::queues::PacketRing;
use crate::seg::{Reassembly, SEG_HANDLER};
use crate::time::{derive_jitter_seed, RttEstimator, TimeSource};
use fm_telemetry::{EventKind, Telemetry};

mod recovery;
mod recv;
mod send;

/// Non-blocking send failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The outstanding-packet window (host reject queue) is exhausted;
    /// extract/acks must make progress first.
    WouldBlock,
    /// Payload exceeds [`FM_FRAME_PAYLOAD`]. Use the segmentation layer.
    TooLarge { len: usize },
    /// The destination exhausted its retransmission retry budget and has
    /// been declared dead. Sends to it fail fast until both ends call
    /// [`EndpointCore::reset_peer`]; traffic to other peers is unaffected.
    PeerUnreachable(NodeId),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::WouldBlock => write!(f, "send window full"),
            SendError::TooLarge { len } => {
                write!(f, "payload {len} B exceeds the {FM_FRAME_PAYLOAD} B frame")
            }
            SendError::PeerUnreachable(peer) => {
                write!(f, "peer {} unreachable (retry budget exhausted)", peer.0)
            }
        }
    }
}

impl std::error::Error for SendError {}

/// The endpoint's event ledger: each protocol event is counted here once,
/// by the one thread driving the endpoint, so plain `u64`s suffice. The
/// exporters read these cells (`MemEndpoint::observability_counters`,
/// [`Self::observability_pairs`]); tests and experiments read them directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Data frames queued for the wire (first transmissions).
    pub sent: u64,
    /// Data frames retransmitted, whatever the cause: a bounce, a timer
    /// (`timer_retransmits`) or hole repair (`gap_retransmits`).
    pub retransmitted: u64,
    /// Handler invocations (messages delivered).
    pub delivered: u64,
    /// Incoming data frames we bounced: in order with no ring space, a
    /// second copy of one parked beyond the ack reach, or too far ahead
    /// (see [`EndpointConfig::reorder_window`]).
    pub rejected: u64,
    /// Our own frames that came back bounced.
    pub bounced: u64,
    /// Acks processed (piggybacked or standalone), stale ones included.
    pub acks_received: u64,
    /// Standalone ack frames we emitted.
    pub ack_frames_sent: u64,
    /// Frames received with an unregistered handler id (dropped, acked).
    pub unknown_handler: u64,
    /// Handler-issued sends that had to be deferred because the window was
    /// full at flush time.
    pub deferred_sends: u64,
    /// Messages delivered to self without touching the network.
    pub loopback: u64,
    /// Incoming frames discarded because their CRC32 check failed (counted
    /// by the transport via [`EndpointCore::note_corrupt`]).
    pub corrupt: u64,
    /// Data frames suppressed as duplicates by the receive sequence window.
    pub duplicates: u64,
    /// Retransmissions triggered by timer expiry (lost frame or lost ack),
    /// as opposed to explicit bounces. Also included in `retransmitted`.
    pub timer_retransmits: u64,
    /// Retransmissions triggered by hole repair: later frames were
    /// acknowledged past a still-unacknowledged one (see
    /// [`GAP_REPAIR_ACKS`]). Also included in `retransmitted`, so
    /// `retransmitted - timer_retransmits - gap_retransmits` is the
    /// bounce-driven remainder.
    pub gap_retransmits: u64,
    /// Handler invocations that panicked; the handler is dropped and later
    /// frames for its id count as `unknown_handler`.
    pub handler_panics: u64,
    /// Messages lost to a peer declared dead or reset, each counted once
    /// however many copies of it were queued for the wire: frames held in
    /// window slots toward it, deferred sends and queued control frames
    /// (acks, returns) toward it, and frames from it still parked in the
    /// reorder window.
    pub unreachable_drops: u64,
    /// Times [`EndpointCore::reset_peer`] wiped bidirectional stream state
    /// for a restarted peer (handshake generation change on a real-network
    /// fabric).
    pub peer_resets: u64,
    /// Peers declared dead after exhausting their retry budget.
    pub dead_peers: u64,
    /// Acks that named no frame outstanding to their sender (a re-ack of
    /// a frame already freed, or an ack that outlived its frame); they
    /// free nothing.
    pub stale_acks: u64,
    /// Reorder-window parks refused (out of window or double; bounced).
    pub seq_buffer_misuse: u64,
}

impl EndpointStats {
    /// The stats fields outside the `fm_telemetry::Counter` schema, as
    /// `(name, value)` gauge pairs for the observability exports (metrics
    /// aggregator columns, telemetry beacons).
    pub fn observability_pairs(&self) -> [(&'static str, u64); 5] {
        [
            ("gap_retransmits", self.gap_retransmits),
            ("peer_resets", self.peer_resets),
            ("unreachable_drops", self.unreachable_drops),
            ("handler_panics", self.handler_panics),
            ("deferred_sends", self.deferred_sends),
        ]
    }
}

/// Configuration knobs for one endpoint.
#[derive(Debug, Clone, Copy)]
pub struct EndpointConfig {
    /// Outstanding-packet window = host reject queue capacity.
    pub window: usize,
    /// Host receive queue (DMA-region ring) depth, in frames.
    pub recv_ring: usize,
    /// Maximum retransmissions issued per extract call (paces bounce
    /// storms; progress is guaranteed because bounced frames keep their
    /// reserved slots).
    pub retransmit_per_extract: usize,
    /// Depth (in frames) of each SPSC wire ring an ordered node pair
    /// shares in [`crate::mem::MemCluster`] — the shared-memory stand-in
    /// for the LANai send/receive queue pair.
    ///
    /// Invariant: every ring depth (`recv_ring`, `wire_ring`) and the
    /// `window` must be at least 1; a zero-capacity ring can never carry a
    /// frame, so [`crate::mem::MemCluster::with_config`] rejects such
    /// configurations up front. Rounded up to a power of two.
    pub wire_ring: usize,
    /// Initial retransmission timeout, in units of the endpoint clock (see
    /// `time_source`: one per `extract` call on the virtual tick, a
    /// microsecond of wall time otherwise). Kept large by default so the
    /// timers never fire on a healthy in-memory fabric — bounces, not
    /// timeouts, drive the common recovery path.
    pub rto_initial: u64,
    /// Ceiling for the exponentially backed-off retransmission timeout.
    pub rto_max: u64,
    /// Timer retransmissions allowed per frame before the destination is
    /// declared dead and sends to it fail with
    /// [`SendError::PeerUnreachable`]. Bounce retransmissions do not count:
    /// a bouncing receiver is demonstrably alive.
    pub retry_budget: u32,
    /// How far ahead of the next expected sequence number the receiver will
    /// buffer out-of-order frames per source; anything further is bounced
    /// back to the sender (bounding receiver memory).
    ///
    /// A parked frame is acknowledged only once it lies within the *ack
    /// reach*, `reorder_window − window`, of the next expected sequence
    /// number — at once if it arrives there, otherwise when the in-order
    /// point catches up; a second copy of a frame parked beyond reach is
    /// bounced, not re-acked. A sender's sequence numbers are its acked
    /// ones plus at most `window` unacked ones, so it never runs more than
    /// `reorder_window` ahead and nothing it sends is bounced as too far.
    /// That assumes the sender's `window` is no larger than the receiver's,
    /// which holds wherever one `EndpointConfig` builds every endpoint; a
    /// larger foreign window falls back to bouncing, never to loss.
    pub reorder_window: u32,
    /// Causal-trace sampling rate: 1 in `trace_one_in` fresh sends mints a
    /// cluster-wide trace id and records span events along the message's
    /// whole life (send, wire-in, handler, ack round-trip); handler-issued
    /// sends triggered by a traced delivery inherit the trace regardless
    /// of this rate. `0` disables tracing.
    pub trace_one_in: u32,
    /// Capacity of the endpoint's bounded trace [`fm_telemetry::EventRing`]
    /// (protocol events and trace spans share it; the oldest entry is
    /// overwritten when full).
    pub trace_capacity: usize,
    /// What one unit of `now` means: the deterministic virtual tick
    /// (default) or wall-clock microseconds. `rto_initial`/`rto_max` are
    /// read in the same unit, so the tick defaults double as sane
    /// microsecond defaults (2.048 ms initial, ~65 ms cap). The UDP
    /// fabric forces [`TimeSource::WallMicros`].
    pub time_source: TimeSource,
    /// Adapt the retransmission timeout from measured ack round trips
    /// (SRTT/RTTVAR per RFC 6298; Karn's rule excludes retransmitted
    /// slots). Off by default: the in-memory fabrics' fixed timers are
    /// part of their reproducible-run contract. The adapted RTO is
    /// clamped to `[rto_initial / 4, rto_max]` — it may tighten well
    /// below the configured initial on a fast wire, but never so far
    /// that scheduler jitter alone triggers spurious retransmissions.
    pub adaptive_rto: bool,
    /// Run seed mixed (splitmix64) with the node id into the
    /// retransmit-jitter PRNG seed — deterministic per `(seed, node)`
    /// even when the cluster's endpoints live in different OS processes.
    pub seed: u64,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            window: 64,
            recv_ring: 256,
            retransmit_per_extract: 16,
            wire_ring: 512,
            rto_initial: 2048,
            rto_max: 1 << 16,
            retry_budget: 16,
            reorder_window: 1024,
            trace_one_in: 64,
            trace_capacity: fm_telemetry::DEFAULT_TRACE_CAPACITY,
            time_source: TimeSource::VirtualTick,
            adaptive_rto: false,
            seed: 0,
        }
    }
}

/// A source counts as an active receive-ring contender while its last
/// data frame is at most this many virtual-clock ticks old. Bounced
/// senders retry their head frame every few ticks, so this comfortably
/// spans retry gaps; a finished stream ages out and its quota share is
/// redistributed.
const RING_ACTIVE_TICKS: u64 = 128;

/// Hole repair retransmits a held frame once this many frames sent after
/// its latest transmission have been acknowledged past it — the
/// duplicate-ack count of TCP fast retransmit. Below three, the ordinary
/// reordering of a delayed frame or a rotated backlog triggers it; above,
/// a hole late in a burst waits for acks that a window-limited sender may
/// never produce. A property of reordering, not of a deployment, hence not
/// a configuration field.
pub const GAP_REPAIR_ACKS: u32 = 3;

/// One frame waiting to go on the wire. The wire queue carries these
/// instead of frames: a data frame stays in its window slot and is encoded
/// from there, so queueing it — or queueing it again — copies nothing.
#[derive(Debug, Clone, Copy)]
enum OutEntry {
    /// Data frame `seq` to `dst`, held in window slot `slot`, to leave with
    /// `piggy` attached. If the slot no longer holds that frame by then (a
    /// late ack overtook a queued resend), only the acks go, as a
    /// standalone frame.
    Data {
        dst: NodeId,
        slot: u16,
        seq: u32,
        piggy: PiggyAcks,
    },
    /// A standalone acknowledgement, whole.
    Ack { dst: NodeId, acks: PiggyAcks },
    /// The oldest image in `returns`.
    Return,
}

const _: () = assert!(std::mem::size_of::<OutEntry>() <= 24);

/// What hole repair knows about the frame occupying one window slot.
#[derive(Debug, Clone, Copy)]
struct SlotFlow {
    /// `next_seq[dst]` at this frame's latest transmission: an ack for a
    /// sequence number at or past it belongs to a frame that left *after*
    /// this one did, so it overtook this one on the wire.
    barrier: u32,
    /// Such acks seen since that transmission.
    overtaken: u32,
    /// How many of them trigger a repair: [`GAP_REPAIR_ACKS`], then one
    /// `window` once a repair has been sent (a repair can be lost too, but
    /// a second one must not race the first).
    needed: u32,
}

impl SlotFlow {
    /// The state of frame `seq` on its first transmission: everything with
    /// a later sequence number leaves after it.
    fn first_sent(seq: u32) -> Self {
        SlotFlow {
            barrier: seq.wrapping_add(1),
            overtaken: 0,
            needed: GAP_REPAIR_ACKS,
        }
    }
}

/// Index into a lazily-grown per-node vector, extending with defaults.
fn grow<T: Default + Clone>(v: &mut Vec<T>, idx: usize) -> &mut T {
    if idx >= v.len() {
        v.resize(idx + 1, T::default());
    }
    &mut v[idx]
}

/// Record span event `make(trace id, hop)` at `tick` if `trace` is a sampled
/// context.
#[inline]
fn span(
    telemetry: &Telemetry,
    trace: TraceCtx,
    tick: u64,
    make: impl FnOnce(u32, u16) -> EventKind,
) {
    if trace.sampled {
        telemetry.trace(tick, make(trace.id, trace.hop));
    }
}

/// The FM endpoint state machine. See the module docs.
pub struct EndpointCore {
    id: NodeId,
    config: EndpointConfig,
    registry: HandlerRegistry,
    sender: SenderFlow,
    /// The data frame each window slot holds (indexed by slot id): built
    /// here by the send, encoded from here on every transmission, left
    /// behind — stale but harmless — when the slot is freed.
    frames: Vec<FrameSlot>,
    acks: AckTracker,
    recv_ring: PacketRing<FrameSlot>,
    /// Total emission order of everything bound for the wire.
    outgoing: VecDeque<OutEntry>,
    /// Bounced frames on their way back to their senders, one per
    /// [`OutEntry::Return`] in `outgoing`, in the same order.
    returns: VecDeque<FrameSlot>,
    /// Handler-issued sends that found the window full; retried on every
    /// subsequent extract/send opportunity.
    deferred: VecDeque<(NodeId, HandlerId, Bytes)>,
    outbox: Outbox,
    /// Fragments delivered to [`SEG_HANDLER`], one open message per
    /// source (the receive window hands them over in order).
    reasm: Reassembly,
    /// Reassembled messages as `(source, large-handler id, message)`,
    /// oldest first, until [`Self::take_large`] takes them.
    large_done: VecDeque<(NodeId, HandlerId, Vec<u8>)>,
    /// Scratch for flushing handler-issued sends; its capacity is reused
    /// across deliveries so the extract hot path never allocates.
    outbox_scratch: Vec<(NodeId, HandlerId, Bytes)>,
    /// The endpoint clock, advanced at the top of every `extract` per the
    /// configured [`TimeSource`]: one unit per call (deterministic,
    /// replayable — the default) or elapsed wall-clock microseconds
    /// (real-network fabrics).
    now: u64,
    /// Wall-clock origin under [`TimeSource::WallMicros`], taken when the
    /// endpoint is built so that every stamp it ever takes — a send queued
    /// before its first `extract` included — is a reading of one clock;
    /// `None` on the virtual tick.
    clock_origin: Option<std::time::Instant>,
    /// Ack round-trip estimator feeding the adaptive RTO (see
    /// [`EndpointConfig::adaptive_rto`]). Always maintained cheaply
    /// enough to expose; only steers the timers when the config says so.
    rtt: RttEstimator,
    /// Next sequence number per destination (indexed by `NodeId.0`).
    next_seq: Vec<u32>,
    /// Unacknowledged data frames per destination (indexed by `NodeId.0`)
    /// as `(seq, slot)` in sequence order: one entry per window slot held
    /// toward that peer, removed by the ack that frees the slot. An ack
    /// names its frame by seq and is resolved here; one that frees
    /// anything but the front has overtaken every entry before it — the
    /// signal hole repair counts.
    send_order: Vec<VecDeque<(u32, u16)>>,
    /// Hole-repair state per window slot (indexed by slot id).
    slot_flow: Vec<SlotFlow>,
    /// Per-source receive windows: duplicate suppression + in-order
    /// delivery (indexed by `NodeId.0`, created lazily on first frame).
    recv_windows: Vec<SeqWindow<FrameSlot>>,
    /// How far past a source's in-order point a parked frame is acked:
    /// `reorder_window − window` (see [`EndpointConfig::reorder_window`]).
    ack_reach: u32,
    /// Rotating start index for the reorder-buffer → receive-ring refill
    /// scan. Ring slots freed by deliveries are the scarce resource under
    /// incast; a fixed scan order would hand every freed slot to the
    /// lowest-numbered backlogged source and starve the rest (the
    /// receiver-side half of the fabric's DRR arbitration).
    drain_rr: usize,
    /// Receive-ring slots currently held per source (indexed by
    /// `NodeId.0`). Enforces `ring_quota`: without a cap, one source
    /// whose reorder buffer is primed refills every slot the moment
    /// extract frees it and captures the receiver for its whole stream —
    /// the incast K=15 fairness collapse.
    ring_share: Vec<u32>,
    /// Tick of the last data frame seen per source (indexed by
    /// `NodeId.0`); sources active within [`RING_ACTIVE_TICKS`] count
    /// toward the quota divisor.
    last_data: Vec<u64>,
    /// Per-source receive-ring admission cap, `max(1, recv_ring /
    /// active_sources)` as of the extract's tick. With one active source
    /// this is the whole ring (streams are unaffected); under K-way incast
    /// it shares ring slots ~1/K, which is what makes return-to-sender
    /// arbitration fair rather than merely bounded. Recounted only when
    /// the active set may have changed: see `quota_stale` and
    /// `quota_expires`.
    ring_quota: usize,
    /// A quiet or never-heard source sent data since the last recount, so
    /// the active set may have grown.
    quota_stale: bool,
    /// The first tick at which a source counted active at the last recount
    /// ages out of [`RING_ACTIVE_TICKS`] (`u64::MAX` with none active).
    /// Until then, and with `quota_stale` unset, no source can have joined
    /// or left the active set, so `ring_quota` still holds.
    quota_expires: u64,
    /// Frames parked in all the reorder windows together (the sum of their
    /// `buffered()`), so the refill scan and the quiet-extract check can
    /// tell "nothing parked anywhere" without visiting every source.
    parked: usize,
    /// Peers declared dead after exhausting the retry budget.
    dead: Vec<bool>,
    /// Deaths not yet reported to the transport via `take_newly_dead`.
    newly_dead: Vec<NodeId>,
    /// Scratch slot lists for timer servicing and hole repair, sized to
    /// the window up front so a first timeout in steady state allocates
    /// nothing.
    retx_scratch: Vec<u16>,
    fail_scratch: Vec<u16>,
    stats: EndpointStats,
    /// Runtime telemetry: latency histograms and the protocol trace ring,
    /// written only by the thread driving this endpoint.
    telemetry: Telemetry,
    /// Round-robin pick of which deliveries get their handler timed
    /// (1 in 64; see `deliver_head`).
    handler_probe: u32,
    /// Fresh sends since construction: the ordinal trace ids are minted
    /// from.
    trace_counter: u32,
    /// Fresh sends left before the next one is sampled (see
    /// [`EndpointConfig::trace_one_in`]).
    trace_countdown: u32,
    /// The trace context of the sampled frame currently being delivered,
    /// if any; handler-issued sends inherit it one hop deeper.
    active_trace: Option<TraceCtx>,
}

impl std::fmt::Debug for EndpointCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EndpointCore")
            .field("id", &self.id)
            .field("now", &self.now)
            .field("outstanding", &self.sender.outstanding())
            .field("ring", &self.pending_extract())
            .field("outgoing", &self.outgoing.len())
            .field("buffered", &self.recv_buffered())
            .field("stats", &self.stats)
            .finish()
    }
}

impl EndpointCore {
    pub fn new(id: NodeId, config: EndpointConfig) -> Self {
        let retransmit = RetransmitConfig {
            rto_initial: config.rto_initial,
            rto_max: config.rto_max,
            retry_budget: config.retry_budget,
        };
        // Seed the jitter PRNG from (run seed, node id): deterministic per
        // run and reproducible across OS processes, decorrelated across
        // nodes (so synchronized losses do not produce synchronized
        // retransmission storms).
        let jitter_seed = derive_jitter_seed(config.seed, id.0);
        EndpointCore {
            id,
            registry: HandlerRegistry::new(),
            sender: SenderFlow::new(config.window, retransmit, jitter_seed),
            frames: vec![FrameSlot::default(); config.window],
            acks: AckTracker::new(),
            recv_ring: PacketRing::new(config.recv_ring),
            outgoing: VecDeque::new(),
            returns: VecDeque::new(),
            deferred: VecDeque::new(),
            outbox: Outbox::new(id),
            reasm: Reassembly::new(),
            large_done: VecDeque::new(),
            outbox_scratch: Vec::new(),
            now: 0,
            clock_origin: (config.time_source == TimeSource::WallMicros)
                .then(std::time::Instant::now),
            rtt: RttEstimator::new(
                config.rto_initial,
                (config.rto_initial / 4).max(1),
                config.rto_max,
            ),
            next_seq: Vec::new(),
            send_order: Vec::new(),
            slot_flow: vec![SlotFlow::first_sent(0); config.window],
            recv_windows: Vec::new(),
            ack_reach: config
                .reorder_window
                .saturating_sub(u32::try_from(config.window).unwrap_or(u32::MAX)),
            drain_rr: 0,
            ring_share: Vec::new(),
            last_data: Vec::new(),
            ring_quota: config.recv_ring,
            quota_stale: false,
            quota_expires: u64::MAX,
            parked: 0,
            dead: Vec::new(),
            newly_dead: Vec::new(),
            retx_scratch: Vec::with_capacity(config.window),
            fail_scratch: Vec::with_capacity(config.window),
            stats: EndpointStats::default(),
            telemetry: Telemetry::with_trace_capacity(id.0, config.trace_capacity),
            handler_probe: 0,
            trace_counter: 0,
            trace_countdown: 0,
            active_trace: None,
            config,
        }
    }

    pub fn id(&self) -> NodeId {
        self.id
    }

    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// This endpoint's telemetry handle (histograms, trace ring). Cheap to
    /// clone; safe to read from other threads while the endpoint runs.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    pub fn config(&self) -> EndpointConfig {
        self.config
    }

    /// Messages outstanding in the send window.
    pub fn outstanding(&self) -> usize {
        self.sender.outstanding()
    }

    /// True when a non-deferred send would currently succeed.
    pub fn can_send(&self) -> bool {
        self.sender.can_send()
    }

    /// Frames waiting in the receive ring (not yet extracted).
    pub fn pending_extract(&self) -> usize {
        self.recv_ring.len()
    }

    /// The endpoint clock in its [`TimeSource`]'s unit: one tick per
    /// `extract` call on the virtual tick; elapsed microseconds under
    /// [`TimeSource::WallMicros`], read at each `extract` and each batch
    /// of arrivals the transport drains.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Out-of-order frames parked in receive sequence windows.
    pub fn recv_buffered(&self) -> usize {
        self.parked
    }

    /// The ack round-trip estimator (SRTT/RTTVAR/RTO). Always measured;
    /// only steers the retransmission timers when
    /// [`EndpointConfig::adaptive_rto`] is set.
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// The reassembler fed by frames for [`SEG_HANDLER`] (its counts).
    pub fn reassembly(&self) -> &Reassembly {
        &self.reasm
    }

    /// Take the oldest reassembled large message, as `(source,
    /// large-handler id, message)`.
    pub fn take_large(&mut self) -> Option<(NodeId, HandlerId, Vec<u8>)> {
        self.large_done.pop_front()
    }

    /// Record a frame the transport discarded for a CRC mismatch. The frame
    /// never reaches the protocol; the sender's retransmission timer is
    /// what recovers it.
    pub fn note_corrupt(&mut self) {
        self.stats.corrupt += 1;
    }

    // ---- handler registration -------------------------------------------

    pub fn register_handler(&mut self, h: Handler) -> HandlerId {
        self.registry.register(h)
    }

    /// Register `h` at a fixed id.
    ///
    /// # Panics
    /// On [`SEG_HANDLER`]: frames for it are fragments, which the core
    /// reassembles itself.
    pub fn register_handler_at(&mut self, id: HandlerId, h: Handler) {
        assert_ne!(id, SEG_HANDLER, "handler id 0 is reserved for segmentation");
        self.registry.register_at(id, h);
    }

    pub fn unregister_handler(&mut self, id: HandlerId) -> bool {
        self.registry.unregister(id)
    }

    // ---- extraction ------------------------------------------------------

    /// `FM_extract`: deliver up to `max` messages to their handlers.
    /// Returns the number delivered. Also advances the clock, services
    /// retransmission timers, paces bounce retransmissions and flushes
    /// handler-issued sends and acknowledgements ([`Self::flush_acks`]).
    pub fn extract(&mut self, max: usize) -> usize {
        self.advance_clock();
        self.refresh_ring_quota();
        self.service_timers();
        self.retransmit_some();
        let mut delivered = 0;
        while delivered < max {
            if self.recv_ring.is_empty() {
                // Delivering freed ring space; see whether reorder buffers
                // can refill it before giving up.
                self.drain_all_windows();
                if self.recv_ring.is_empty() {
                    break;
                }
            }
            if self.deliver_head() {
                delivered += 1;
            }
        }
        self.drain_all_windows();
        self.flush_deferred();
        self.flush_acks();
        delivered
    }

    /// `FM_extract` on an endpoint with nothing to do, in O(1). When the
    /// core holds nothing to deliver, refill, retransmit or flush and no
    /// death to report, and neither a retransmission timer nor a
    /// ring-quota recount falls due at the next tick, that tick's
    /// [`Self::extract`] would only move the clock and turn the refill
    /// rotation: do exactly that and return true. Otherwise change nothing
    /// and return false, for the caller to run the full call.
    pub(crate) fn extract_idle(&mut self, max: usize) -> bool {
        let holds_nothing = self.recv_ring.is_empty()
            && self.parked == 0
            && self.outgoing.is_empty()
            && self.deferred.is_empty()
            && self.acks.pending_total() == 0
            && self.sender.pending_retransmits() == 0
            && self.newly_dead.is_empty();
        if !holds_nothing {
            return false;
        }
        let now = self.next_now();
        if self.sender.timer_due(now) || self.quota_due(now) {
            return false;
        }
        self.now = now;
        // The full call scans for parked frames once per empty-ring check
        // and once after delivering; with nothing parked each scan only
        // turns the rotation.
        self.drain_all_windows();
        if max > 0 {
            self.drain_all_windows();
        }
        true
    }

    /// Advance `now` per the configured time source: one tick on the
    /// virtual tick, a catch-up to the wall clock under
    /// [`TimeSource::WallMicros`].
    fn advance_clock(&mut self) {
        self.now = self.next_now();
    }

    /// The clock reading the next `extract` runs at.
    fn next_now(&self) -> u64 {
        match self.config.time_source {
            TimeSource::VirtualTick => self.now + 1,
            TimeSource::WallMicros => self.now.max(self.wall_micros()),
        }
    }

    /// Catch `now` up to the wall clock under [`TimeSource::WallMicros`]
    /// (a no-op on the virtual tick), adding no tick of its own: a burst of
    /// extracts or arrivals inside one microsecond would otherwise run this
    /// clock ahead of wall time, by a different amount on every endpoint,
    /// and no constant offset could then align their traces. The transport
    /// calls this once per batch of arrivals, after the synchronisation
    /// that made the batch visible and before the batch's first
    /// [`Self::on_frame`], so no arrival is stamped before its send.
    pub(crate) fn catch_up_clock(&mut self) {
        if self.config.time_source == TimeSource::WallMicros {
            self.now = self.now.max(self.wall_micros());
        }
    }

    /// Microseconds since this endpoint was built (0 on the virtual tick).
    fn wall_micros(&self) -> u64 {
        self.clock_origin
            .map_or(0, |origin| origin.elapsed().as_micros() as u64)
    }

    /// True when this endpoint holds no protocol state that still needs the
    /// network: nothing outstanding, nothing queued, nothing to extract,
    /// nothing parked in a reorder buffer, no large message half
    /// reassembled or waiting to be taken. The verdict is local: a sender
    /// whose frames were all acked reads quiescent while its peer may still
    /// hold some of them parked behind a hole, so a cluster is quiescent
    /// only when every endpoint is.
    pub fn is_quiescent(&self) -> bool {
        self.sender.outstanding() == 0
            && self.outgoing.is_empty()
            && self.recv_ring.is_empty()
            && self.deferred.is_empty()
            && self.acks.pending_total() == 0
            && self.recv_buffered() == 0
            && self.reasm.in_progress() == 0
            && self.large_done.is_empty()
    }
}

#[cfg(test)]
mod testkit;
