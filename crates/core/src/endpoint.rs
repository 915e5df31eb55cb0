//! The FM endpoint protocol engine — pure state, no I/O, no clock.
//!
//! [`EndpointCore`] combines the frame codec, handler table, host receive
//! ring and return-to-sender flow control into a single state machine with
//! three entry points mirroring the FM calls:
//!
//! * [`EndpointCore::try_send`] — `FM_send` / `FM_send_4`: reserve a window
//!   slot, piggyback any pending acks toward that destination, queue the
//!   frame for the wire;
//! * [`EndpointCore::on_wire`] — a frame arrived: data is accepted into the
//!   receive ring (or bounced when the ring is full), returns are parked
//!   for retransmission, acks release window slots — and an ack that
//!   overtakes a still-held frame counts toward resending it at once
//!   ([`GAP_REPAIR_ACKS`]) instead of leaving the hole to its timer;
//! * [`EndpointCore::extract`] — `FM_extract`: retransmit parked frames,
//!   deliver ring contents to handlers, flush handler-issued sends and any
//!   acknowledgements that found no data frame to ride on.
//!
//! Transports (the threaded [`crate::mem`] runtime, or a test harness)
//! shuttle frames between `take_outgoing` and `on_wire`.

use bytes::Bytes;
use fm_myrinet::NodeId;
use std::collections::VecDeque;

use crate::flow::{ack_word_parts, AckTracker, RetransmitConfig, SenderFlow, SeqClass, SeqWindow};
use crate::frame::{FrameKind, TraceCtx, WireFrame, FM_FRAME_PAYLOAD};
use crate::handler::{Handler, HandlerId, HandlerRegistry, Outbox};
use crate::queues::PacketRing;
use crate::time::{derive_jitter_seed, splitmix64, RttEstimator, TimeSource};
use fm_telemetry::{Counter, EventKind, Metric, Telemetry};

/// Non-blocking send failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The outstanding-packet window (host reject queue) is exhausted;
    /// extract/acks must make progress first.
    WouldBlock,
    /// Payload exceeds [`FM_FRAME_PAYLOAD`]. Use the segmentation layer.
    TooLarge { len: usize },
    /// The destination exhausted its retransmission retry budget and has
    /// been declared dead. Sends to it fail fast until the peer is revived
    /// with [`EndpointCore::revive_peer`]; traffic to other peers is
    /// unaffected.
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

/// Counters exposed for tests, examples and the overload experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Data frames queued for the wire (first transmissions).
    pub sent: u64,
    /// Data frames retransmitted, whatever the cause: a bounce, a timer
    /// (`timer_retransmits`) or hole repair (`gap_retransmits`).
    pub retransmitted: u64,
    /// Handler invocations (messages delivered).
    pub delivered: u64,
    /// Incoming data frames we bounced for lack of ring space.
    pub rejected: u64,
    /// Our own frames that came back bounced.
    pub bounced: u64,
    /// Ack slots processed (piggybacked or standalone).
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
    /// Frames dropped because their destination was declared dead (window
    /// slots, queued wire traffic and deferred sends purged together).
    pub unreachable_drops: u64,
    /// Times [`EndpointCore::reset_peer`] wiped bidirectional stream state
    /// for a restarted peer (handshake generation change on a real-network
    /// fabric).
    pub peer_resets: u64,
}

impl EndpointStats {
    /// The stats fields the telemetry `Counter` enum does *not* already
    /// cover, as `(name, value)` gauge pairs for the observability
    /// exports (metrics aggregator columns, telemetry beacons).
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
    /// Initial retransmission timeout, in extract ticks (the endpoint has
    /// no wall clock; each `extract` call advances time by one). Kept large
    /// by default so the timers never fire on a healthy in-memory fabric —
    /// bounces, not timeouts, drive the common recovery path.
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
    pub reorder_window: u32,
    /// Causal-trace sampling rate: 1 in `trace_one_in` fresh sends mints a
    /// cluster-wide trace id and records span events along the message's
    /// whole life (send, wire-in, handler, ack round-trip); handler-issued
    /// sends triggered by a traced delivery inherit the trace regardless
    /// of this rate. `0` disables tracing; the `telemetry-off` feature
    /// disables it unconditionally.
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

/// Why a frame is going out again.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Retransmit {
    /// It bounced off a full receiver.
    Bounce,
    /// Its retransmission timer expired.
    Timer,
    /// Later frames were acknowledged past it.
    Gap,
}

/// What hole repair knows about the frame occupying one window slot.
#[derive(Debug, Clone, Copy)]
struct SlotFlow {
    dst: NodeId,
    seq: u32,
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
    /// The state of a frame on its first transmission: everything with a
    /// later sequence number leaves after it.
    fn first_sent(dst: NodeId, seq: u32) -> Self {
        SlotFlow {
            dst,
            seq,
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

/// The FM endpoint state machine. See the module docs.
pub struct EndpointCore {
    id: NodeId,
    config: EndpointConfig,
    registry: HandlerRegistry,
    sender: SenderFlow<WireFrame>,
    acks: AckTracker,
    recv_ring: PacketRing<WireFrame>,
    outgoing: VecDeque<WireFrame>,
    /// Handler-issued sends that found the window full; retried on every
    /// subsequent extract/send opportunity.
    deferred: VecDeque<(NodeId, HandlerId, Bytes)>,
    outbox: Outbox,
    /// Scratch for flushing handler-issued sends; its capacity is reused
    /// across deliveries so the extract hot path never allocates.
    outbox_scratch: Vec<(NodeId, HandlerId, Bytes)>,
    /// The endpoint clock, advanced at the top of every `extract` per the
    /// configured [`TimeSource`]: one unit per call (deterministic,
    /// replayable — the default) or elapsed wall-clock microseconds
    /// (real-network fabrics).
    now: u64,
    /// Wall-clock origin, set lazily on the first `extract` under
    /// [`TimeSource::WallMicros`]; `None` forever on the virtual tick.
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
    /// that frees anything but the front has overtaken every entry before
    /// it — the signal hole repair counts.
    send_order: Vec<VecDeque<(u32, u16)>>,
    /// Hole-repair state per window slot (indexed by slot id).
    slot_flow: Vec<SlotFlow>,
    /// Per-source receive windows: duplicate suppression + in-order
    /// delivery (indexed by `NodeId.0`, created lazily on first frame).
    recv_windows: Vec<SeqWindow<WireFrame>>,
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
    /// Per-source receive-ring admission cap, recomputed each extract as
    /// `max(1, recv_ring / active_sources)`. With one active source this
    /// is the whole ring (streams are unaffected); under K-way incast it
    /// shares ring slots ~1/K, which is what makes return-to-sender
    /// arbitration fair rather than merely bounded.
    ring_quota: usize,
    /// Peers declared dead after exhausting the retry budget.
    dead: Vec<bool>,
    /// Deaths not yet reported to the transport via `take_newly_dead`.
    newly_dead: Vec<NodeId>,
    /// Scratch buffers for timer servicing (reused, never freed).
    retx_scratch: Vec<WireFrame>,
    fail_scratch: Vec<WireFrame>,
    stats: EndpointStats,
    /// Unified runtime telemetry: lock-free counters, latency histograms
    /// and the protocol trace ring. Compiles down to nothing under the
    /// `telemetry-off` feature.
    telemetry: Telemetry,
    /// Round-robin pick of which deliveries get their handler timed
    /// (1 in 8; see `deliver`).
    handler_probe: u32,
    /// Fresh sends since construction, driving the 1-in-N trace sampling
    /// decision (see [`EndpointConfig::trace_one_in`]).
    trace_counter: u32,
    /// The trace context of the sampled frame currently being delivered,
    /// if any; handler-issued sends inherit it one hop deeper.
    active_trace: Option<TraceCtx>,
    /// Per-window-slot trace contexts of in-flight sampled frames, so the
    /// first valid ack for a slot can be attributed to its trace (an ack
    /// word carries only slot + generation, never the trace id).
    traced_slots: Vec<Option<TraceCtx>>,
}

impl std::fmt::Debug for EndpointCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EndpointCore")
            .field("id", &self.id)
            .field("now", &self.now)
            .field("outstanding", &self.sender.outstanding())
            .field("ring", &self.recv_ring.len())
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
            acks: AckTracker::new(),
            recv_ring: PacketRing::new(config.recv_ring),
            outgoing: VecDeque::new(),
            deferred: VecDeque::new(),
            outbox: Outbox::new(id),
            outbox_scratch: Vec::new(),
            now: 0,
            clock_origin: None,
            rtt: RttEstimator::new(
                config.rto_initial,
                (config.rto_initial / 4).max(1),
                config.rto_max,
            ),
            next_seq: Vec::new(),
            send_order: Vec::new(),
            slot_flow: vec![SlotFlow::first_sent(id, 0); config.window],
            recv_windows: Vec::new(),
            drain_rr: 0,
            ring_share: Vec::new(),
            last_data: Vec::new(),
            ring_quota: config.recv_ring,
            dead: Vec::new(),
            newly_dead: Vec::new(),
            retx_scratch: Vec::new(),
            fail_scratch: Vec::new(),
            stats: EndpointStats::default(),
            telemetry: Telemetry::with_trace_capacity(id.0, config.trace_capacity),
            handler_probe: 0,
            trace_counter: 0,
            active_trace: None,
            traced_slots: vec![None; config.window],
            config,
        }
    }

    pub fn id(&self) -> NodeId {
        self.id
    }

    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// This endpoint's telemetry handle (counters, histograms, trace ring).
    /// Cheap to clone; safe to read from other threads while the endpoint
    /// runs.
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

    /// Current virtual time (one tick per `extract` call).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Out-of-order frames parked in receive sequence windows.
    pub fn recv_buffered(&self) -> usize {
        self.recv_windows.iter().map(|w| w.buffered()).sum()
    }

    /// True when `peer` has been declared dead (retry budget exhausted).
    pub fn is_dead(&self, peer: NodeId) -> bool {
        self.dead.get(peer.index()).copied().unwrap_or(false)
    }

    /// Drain the list of peers declared dead since the last call. The
    /// transport uses this to purge per-peer state outside the core (e.g.
    /// partially reassembled large messages).
    pub fn take_newly_dead(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.newly_dead)
    }

    /// Clear the dead mark for `peer`, allowing sends again. Sequence and
    /// window state survives, so a genuinely recovered peer resumes where
    /// it left off; frames dropped while dead are gone (their loss was
    /// already surfaced through `unreachable_drops` / `PeerUnreachable`).
    pub fn revive_peer(&mut self, peer: NodeId) {
        if let Some(flag) = self.dead.get_mut(peer.index()) {
            *flag = false;
        }
    }

    /// `peer` restarted as a *new process* (the UDP handshake saw its
    /// generation change): wipe the bidirectional stream state so traffic
    /// resumes against its fresh sequence space instead of wedging.
    /// Outgoing sequence numbers restart at 0 (the new incarnation's
    /// receive window expects 0), the receive window is rebuilt (the new
    /// incarnation sends from 0), and everything still in flight toward
    /// the old incarnation — window slots, queued wire frames, deferred
    /// sends, pending acks — is purged and counted in
    /// `unreachable_drops`, exactly as if the peer had died. The dead
    /// mark, if set, is cleared: a handshaking peer is demonstrably
    /// alive. Plain [`EndpointCore::revive_peer`] is for a peer that kept
    /// its state (a transient stall); this is for one that lost it.
    pub fn reset_peer(&mut self, peer: NodeId) {
        let idx = peer.index();
        let mut drops = 0u64;
        self.sender
            .release_where(|f| f.dst == peer, |_f| drops += 1);
        let before = self.outgoing.len();
        self.outgoing.retain(|f| f.dst != peer);
        drops += (before - self.outgoing.len()) as u64;
        let before = self.deferred.len();
        self.deferred.retain(|(dst, _, _)| *dst != peer);
        drops += (before - self.deferred.len()) as u64;
        self.acks.purge(peer);
        if let Some(seq) = self.next_seq.get_mut(idx) {
            *seq = 0;
        }
        if let Some(order) = self.send_order.get_mut(idx) {
            order.clear();
        }
        if let Some(win) = self.recv_windows.get_mut(idx) {
            drops += win.clear_buffered() as u64;
            *win = SeqWindow::new(self.config.reorder_window);
        }
        if let Some(flag) = self.dead.get_mut(idx) {
            *flag = false;
        }
        self.stats.peer_resets += 1;
        self.stats.unreachable_drops += drops;
    }

    /// The ack round-trip estimator (SRTT/RTTVAR/RTO). Always measured;
    /// only steers the retransmission timers when
    /// [`EndpointConfig::adaptive_rto`] is set.
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Record a frame the transport discarded for a CRC mismatch. The frame
    /// never reaches the protocol; the sender's retransmission timer is
    /// what recovers it.
    pub fn note_corrupt(&mut self) {
        self.stats.corrupt += 1;
        self.telemetry.incr(Counter::CorruptFrames);
    }

    // ---- handler registration -------------------------------------------

    pub fn register_handler(&mut self, h: Handler) -> HandlerId {
        self.registry.register(h)
    }

    pub fn register_handler_at(&mut self, id: HandlerId, h: Handler) {
        self.registry.register_at(id, h);
    }

    pub fn unregister_handler(&mut self, id: HandlerId) -> bool {
        self.registry.unregister(id)
    }

    // ---- sending ---------------------------------------------------------

    /// `FM_send`: queue a message of up to 128 bytes for `dst`.
    pub fn try_send(
        &mut self,
        dst: NodeId,
        handler: HandlerId,
        payload: impl Into<Bytes>,
    ) -> Result<(), SendError> {
        let payload = payload.into();
        if payload.len() > FM_FRAME_PAYLOAD {
            return Err(SendError::TooLarge { len: payload.len() });
        }
        if dst == self.id {
            return self.loopback(handler, payload);
        }
        // Fairness: deferred handler sends go out before fresh traffic.
        self.flush_deferred();
        let trace = self.next_trace();
        self.queue_data_frame(dst, handler, payload, trace)
    }

    /// The trace context the next fresh send carries: a delivery in
    /// progress propagates its trace to handler-issued sends (causal
    /// chain, one hop deeper); otherwise 1 in `trace_one_in` sends mints a
    /// new trace id. Everything else sends the all-zero context.
    fn next_trace(&mut self) -> TraceCtx {
        if !fm_telemetry::ENABLED || self.config.trace_one_in == 0 {
            return TraceCtx::default();
        }
        if let Some(parent) = self.active_trace {
            return parent.next_hop();
        }
        let n = self.trace_counter;
        self.trace_counter = n.wrapping_add(1);
        if !n.is_multiple_of(self.config.trace_one_in) {
            return TraceCtx::default();
        }
        TraceCtx::sampled(derive_trace_id(self.id.0, n), 0)
    }

    /// Reserve a window slot, assign the next per-destination sequence
    /// number, park a retransmission copy, and queue the frame. Order
    /// matters: the sequence number is allocated only *after* the slot
    /// reservation succeeds — a sequence number burned on `WouldBlock`
    /// would leave a permanent gap that stalls the receiver's in-order
    /// window.
    fn queue_data_frame(
        &mut self,
        dst: NodeId,
        handler: HandlerId,
        payload: Bytes,
        trace: TraceCtx,
    ) -> Result<(), SendError> {
        if self.is_dead(dst) {
            return Err(SendError::PeerUnreachable(dst));
        }
        let slot = self
            .sender
            .begin_send(self.now)
            .ok_or(SendError::WouldBlock)?;
        let seq = self.alloc_seq(dst);
        self.slot_flow[slot as usize] = SlotFlow::first_sent(dst, seq);
        grow(&mut self.send_order, dst.index()).push_back((seq, slot));
        let mut frame = WireFrame::data(self.id, dst, handler, slot, seq, payload);
        frame.slot_gen = self.sender.gen(slot);
        // The trace context is stamped *before* the retransmission copy is
        // stored so a retried frame stays in its trace. The stored copy
        // carries no piggybacked acks: were it ever retransmitted,
        // replaying stale ack words would be wrong. Fresh acks are attached
        // at each (re)transmission instead.
        frame.trace = trace;
        self.sender.store(slot, frame.clone());
        let gen = frame.slot_gen;
        frame.piggy = self.acks.take_piggy(dst);
        self.outgoing.push_back(frame);
        // Remember (or clear, on slot reuse) which trace owns this slot so
        // the eventual ack can be attributed to it.
        if let Some(entry) = self.traced_slots.get_mut(slot as usize) {
            *entry = trace.sampled.then_some(trace);
        }
        self.stats.sent += 1;
        self.telemetry.incr(Counter::Sends);
        self.telemetry.trace(
            self.now,
            EventKind::Send {
                dst: dst.0,
                slot,
                seq,
            },
        );
        if trace.sampled {
            self.telemetry.trace(
                self.now,
                EventKind::SpanSend {
                    trace: trace.id,
                    hop: trace.hop,
                    dst: dst.0,
                },
            );
        }
        if gen & 0x3F == 0 && gen != 0 {
            // The slot's 6-bit generation *tag* wrapped — the one reuse
            // moment an ABA-style diagnosis wants on the trace. (Tracing
            // every reuse would emit one event per steady-state frame and
            // measurably tax the send path.)
            self.telemetry
                .trace(self.now, EventKind::SlotReuse { slot, gen });
        }
        Ok(())
    }

    fn alloc_seq(&mut self, dst: NodeId) -> u32 {
        let idx = dst.index();
        if idx >= self.next_seq.len() {
            self.next_seq.resize(idx + 1, 0);
        }
        let seq = self.next_seq[idx];
        self.next_seq[idx] = seq.wrapping_add(1);
        seq
    }

    /// `FM_send_4`: queue a four-word message.
    pub fn try_send_4(
        &mut self,
        dst: NodeId,
        handler: HandlerId,
        words: [u32; 4],
    ) -> Result<(), SendError> {
        let mut buf = [0u8; 16];
        for (i, w) in words.iter().enumerate() {
            buf[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        self.try_send(dst, handler, Bytes::copy_from_slice(&buf))
    }

    /// Vectored send: gather `parts` into one frame (the scatter-gather
    /// convenience the Myrinet API advertises, provided here without its
    /// descriptor-handshake costs). The parts must total <= 128 bytes.
    pub fn try_send_gather(
        &mut self,
        dst: NodeId,
        handler: HandlerId,
        parts: &[&[u8]],
    ) -> Result<(), SendError> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > FM_FRAME_PAYLOAD {
            return Err(SendError::TooLarge { len });
        }
        // Gathered on the stack and copied inline: like every frame-sized
        // send, this path allocates nothing.
        let mut buf = [0u8; FM_FRAME_PAYLOAD];
        let mut at = 0;
        for p in parts {
            buf[at..at + p.len()].copy_from_slice(p);
            at += p.len();
        }
        self.try_send(dst, handler, Bytes::copy_from_slice(&buf[..len]))
    }

    fn loopback(&mut self, handler: HandlerId, payload: Bytes) -> Result<(), SendError> {
        // Local messages skip the network and flow control entirely, but
        // still ride the receive ring so delivery order relative to other
        // arrivals is preserved and handlers still run inside extract.
        let frame = WireFrame::data(self.id, self.id, handler, 0, 0, payload);
        self.recv_ring
            .push(frame)
            .map_err(|_| SendError::WouldBlock)?;
        // Loopback skips the quota (no network contention to arbitrate)
        // but still balances the share ledger extract decrements.
        *grow(&mut self.ring_share, self.id.index()) += 1;
        self.stats.loopback += 1;
        Ok(())
    }

    // ---- wire input ------------------------------------------------------

    /// Process one frame that arrived from the network.
    pub fn on_wire(&mut self, frame: WireFrame) {
        debug_assert_eq!(frame.dst, self.id, "transport misrouted a frame");
        // Wire-ingress span events are stamped with the tick of the
        // `extract` that will process the arrival (`now` increments at the
        // top of extract, but transports pump the wire just before calling
        // it). Stamping at `now` instead would label every receive one
        // tick *before* the send that caused it whenever the crossing
        // completes within one service round — a systematic skew that
        // makes the merged timeline's happens-before constraints
        // cyclically infeasible on ring topologies.
        //
        // Under wall-clock time the opposite staleness bites: `now` still
        // holds the *previous* extract's reading, so an endpoint that sat
        // idle between service rounds would stamp this arrival tens of
        // microseconds before the send that caused it — the same
        // infeasibility, from the other direction. Re-read the clock at
        // ingress instead (real time has genuinely advanced; the one
        // Instant read is noise next to the recv syscall that got us here).
        if self.config.time_source == TimeSource::WallMicros {
            self.advance_clock();
        }
        let arrival = self.now + 1;
        // Piggybacked acks count regardless of what happens to the frame.
        for &word in frame.piggy.as_slice() {
            // Karn's rule needs the flag *before* on_ack frees the slot: a
            // retransmitted slot's ack is ambiguous between transmissions
            // and must never become an RTT sample.
            let karn_clean = !self.sender.slot_retransmitted(ack_word_parts(word).0);
            if let Some(rtt) = self.sender.on_ack(word, self.now) {
                self.telemetry.record(Metric::AckRttTicks, rtt);
                if karn_clean && self.config.adaptive_rto {
                    self.rtt.on_sample(rtt);
                    self.sender.set_rto_initial(self.rtt.rto());
                }
                // First valid ack for a traced slot closes that trace's
                // send→ack round trip (clocksync's t3).
                let (slot, _) = ack_word_parts(word);
                self.note_acked(slot);
                if let Some(t) = self
                    .traced_slots
                    .get_mut(slot as usize)
                    .and_then(Option::take)
                {
                    self.telemetry.trace(
                        arrival,
                        EventKind::SpanAckIn {
                            trace: t.id,
                            hop: t.hop,
                            peer: frame.src.0,
                        },
                    );
                }
            }
            self.stats.acks_received += 1;
        }
        match frame.kind {
            FrameKind::Data => self.on_data(frame),
            FrameKind::Return => {
                let slot = frame.slot;
                let gen = frame.slot_gen;
                // Normalize to Data form *before* parking so everything the
                // reject queue stores — and everything the timers may later
                // clone and resend — is a self→peer data frame.
                let data = frame.into_retransmit();
                let peer = data.dst.0;
                if self.sender.on_bounce(slot, gen, data) {
                    self.stats.bounced += 1;
                    self.telemetry.incr(Counter::Bounces);
                    self.telemetry
                        .trace(self.now, EventKind::Bounce { peer, slot });
                }
            }
            FrameKind::Ack => { /* piggy area already processed above */ }
        }
    }

    /// A valid ack just freed `slot`: drop its send-order entry. In order
    /// (the clean path) that is the front of its destination's list and
    /// nothing else happens.
    fn note_acked(&mut self, slot: u16) {
        let SlotFlow { dst, seq, .. } = self.slot_flow[slot as usize];
        let Some(order) = self.send_order.get_mut(dst.index()) else {
            return;
        };
        if order.front().is_some_and(|&(front, _)| front == seq) {
            order.pop_front();
        } else {
            self.repair_holes(dst, seq);
        }
    }

    /// Sender-side hole repair, from acks alone (no wire change). The ack
    /// for `acked` freed a frame behind still-held ones, so it overtook
    /// each of them that was last transmitted before `acked` first left.
    /// A held in-flight frame overtaken [`GAP_REPAIR_ACKS`] times is
    /// retransmitted at once instead of waiting out its timer while the
    /// receiver parks (and acks) ever more successors behind the hole. A
    /// bounced frame is skipped: its retransmission is already queued, and
    /// on a FIFO path its bounce arrives before any ack that overtook it,
    /// so return-to-sender arbitration is undisturbed.
    #[cold]
    fn repair_holes(&mut self, dst: NodeId, acked: u32) {
        let order = &mut self.send_order[dst.index()];
        let Ok(pos) = order.binary_search_by(|&(seq, _)| (seq.wrapping_sub(acked) as i32).cmp(&0))
        else {
            return;
        };
        order.remove(pos);
        let mut repairs = std::mem::take(&mut self.retx_scratch);
        for &(_, slot) in order.range(..pos) {
            let flow = &mut self.slot_flow[slot as usize];
            if (acked.wrapping_sub(flow.barrier) as i32) < 0 {
                continue;
            }
            flow.overtaken += 1;
            if flow.overtaken >= flow.needed {
                repairs.extend(self.sender.retransmit_now(slot, self.now));
            }
        }
        for frame in repairs.drain(..) {
            self.queue_retransmit(frame, Retransmit::Gap);
        }
        self.retx_scratch = repairs;
    }

    /// Put a retransmission on the wire queue with fresh acks attached,
    /// counted and traced by cause. Restarts the frame's hole-repair
    /// count: only frames that leave after this transmission can overtake
    /// it.
    fn queue_retransmit(&mut self, mut frame: WireFrame, cause: Retransmit) {
        let flow = &mut self.slot_flow[frame.slot as usize];
        flow.barrier = self.next_seq[frame.dst.index()];
        flow.overtaken = 0;
        frame.piggy = self.acks.take_piggy(frame.dst);
        self.stats.retransmitted += 1;
        self.telemetry.incr(Counter::Retransmits);
        match cause {
            Retransmit::Bounce => {}
            Retransmit::Timer => {
                self.stats.timer_retransmits += 1;
                self.telemetry.incr(Counter::TimerRetransmits);
            }
            Retransmit::Gap => {
                self.stats.gap_retransmits += 1;
                flow.needed = self.config.window as u32;
            }
        }
        self.telemetry.trace(
            self.now,
            EventKind::Retransmit {
                peer: frame.dst.0,
                slot: frame.slot,
                timer: cause == Retransmit::Timer,
            },
        );
        if frame.trace.sampled {
            self.telemetry.trace(
                self.now,
                EventKind::SpanRetransmit {
                    trace: frame.trace.id,
                    hop: frame.trace.hop,
                    peer: frame.dst.0,
                },
            );
        }
        self.outgoing.push_back(frame);
    }

    /// Admit one incoming data frame through the per-source sequence
    /// window. Four outcomes:
    ///
    /// * duplicate (retransmission of something already accepted) — drop
    ///   it but re-ack, since the ack may be what got lost;
    /// * in order — accept into the ring (bounce if full), ack, and pull
    ///   any directly-following buffered frames in behind it;
    /// * ahead within the reorder window — buffer and ack now, deliver
    ///   when the gap fills;
    /// * too far ahead — bounce without acking (bounds receiver memory;
    ///   the sender's bounce path retransmits it later).
    fn on_data(&mut self, frame: WireFrame) {
        let src = frame.src;
        let slot = frame.slot;
        let gen = frame.slot_gen;
        let seq = frame.seq;
        // Span events fire only on *acceptance* (never for duplicates the
        // sequence window suppresses), so every traced `(trace, hop)` wire
        // crossing yields exactly one SpanWireIn even under loss-driven
        // retransmission — the invariant the merged-timeline flow pairing
        // relies on.
        let trace = frame.trace;
        // See on_wire: ingress spans carry the tick of the extract that
        // services them.
        let arrival = self.now + 1;
        let now = self.now;
        *grow(&mut self.last_data, src.index()) = now;
        match self.window_mut(src).classify(seq) {
            SeqClass::Duplicate => {
                self.stats.duplicates += 1;
                self.telemetry.incr(Counter::ReAcks);
                self.accept_ack(src, slot, gen);
            }
            SeqClass::InOrder if !self.ring_admissible(src.index()) => {
                // Return to sender: the receiver has no room (or this
                // source is over its ring quota); the source reserved
                // reject-queue space for exactly this case. Not acked,
                // not advanced — the retransmission will be InOrder again.
                self.stats.rejected += 1;
                self.outgoing.push_back(frame.into_return());
            }
            SeqClass::InOrder => {
                {
                    *grow(&mut self.ring_share, src.index()) += 1;
                    if self.recv_ring.push(frame).is_err() {
                        unreachable!("ring_admissible checked capacity");
                    }
                    if trace.sampled {
                        self.telemetry.trace(
                            arrival,
                            EventKind::SpanWireIn {
                                trace: trace.id,
                                hop: trace.hop,
                                src: src.0,
                            },
                        );
                    }
                    if self.accept_ack(src, slot, gen) && trace.sampled {
                        self.telemetry.trace(
                            arrival,
                            EventKind::SpanAckOut {
                                trace: trace.id,
                                hop: trace.hop,
                                dst: src.0,
                            },
                        );
                    }
                    // Split borrow: classify() above guarantees the window
                    // exists at src.index(), grow() the share entry.
                    let Self {
                        recv_windows,
                        recv_ring,
                        ring_share,
                        ring_quota,
                        ..
                    } = self;
                    let win = &mut recv_windows[src.index()];
                    win.advance();
                    Self::drain_window_into(
                        win,
                        recv_ring,
                        &mut ring_share[src.index()],
                        *ring_quota,
                    );
                }
            }
            SeqClass::Ahead => match self.window_mut(src).buffer(seq, frame) {
                // Park first, ack second: an acked frame is a frame the
                // sender will never resend, so the ack must only go out
                // once the frame is actually retained.
                Ok(()) => {
                    if trace.sampled {
                        self.telemetry.trace(
                            arrival,
                            EventKind::SpanWireIn {
                                trace: trace.id,
                                hop: trace.hop,
                                src: src.0,
                            },
                        );
                        self.telemetry.trace(
                            arrival,
                            EventKind::SpanPark {
                                trace: trace.id,
                                hop: trace.hop,
                                src: src.0,
                            },
                        );
                    }
                    if self.accept_ack(src, slot, gen) && trace.sampled {
                        self.telemetry.trace(
                            arrival,
                            EventKind::SpanAckOut {
                                trace: trace.id,
                                hop: trace.hop,
                                dst: src.0,
                            },
                        );
                    }
                }
                Err((_, frame)) => {
                    // classify() filters duplicates and out-of-window seqs,
                    // so a refusal here is unreachable — but if it ever
                    // fires, bouncing (unacked) is the safe recovery: the
                    // sender retransmits instead of losing the frame.
                    self.telemetry.incr(Counter::SeqBufferMisuse);
                    self.stats.rejected += 1;
                    self.outgoing.push_back(frame.into_return());
                }
            },
            SeqClass::TooFar => {
                self.stats.rejected += 1;
                self.outgoing.push_back(frame.into_return());
            }
        }
    }

    /// May one more in-order frame from `src` enter the receive ring?
    /// Both ring capacity and the source's quota must have room. A
    /// refusal is bounced exactly like a full ring: not acked, not
    /// advanced, retransmitted in order.
    fn ring_admissible(&self, src: usize) -> bool {
        !self.recv_ring.is_full()
            && (self.ring_share.get(src).copied().unwrap_or(0) as usize) < self.ring_quota
    }

    /// Recompute the per-source ring quota from the set of recently-active
    /// sources. Called once per extract tick — O(sources), amortized away
    /// by the deliveries the tick performs.
    fn refresh_ring_quota(&mut self) {
        let now = self.now;
        let active = self
            .last_data
            .iter()
            .filter(|&&t| t != 0 && now.saturating_sub(t) <= RING_ACTIVE_TICKS)
            .count();
        self.ring_quota = (self.config.recv_ring / active.max(1)).max(1);
    }

    /// Queue a (re-)ack for an accepted frame, counting refusals — a slot
    /// too wide for the 10-bit ack word would alias another slot on the
    /// sender, so it is dropped unacked and recovered by the sender's
    /// retransmission timer.
    fn accept_ack(&mut self, src: NodeId, slot: u16, gen: u8) -> bool {
        let ok = self.acks.on_accept(src, slot, gen);
        if !ok {
            self.telemetry.incr(Counter::InvalidAckSlots);
        }
        ok
    }

    fn window_mut(&mut self, src: NodeId) -> &mut SeqWindow<WireFrame> {
        let idx = src.index();
        if idx >= self.recv_windows.len() {
            let lookahead = self.config.reorder_window;
            self.recv_windows
                .resize_with(idx + 1, || SeqWindow::new(lookahead));
        }
        &mut self.recv_windows[idx]
    }

    /// Move consecutively-sequenced buffered frames into the receive
    /// ring, stopping at the source's quota — a primed reorder buffer
    /// must not refill every slot extract frees (that is the incast
    /// capture path; see `ring_share`).
    fn drain_window_into(
        win: &mut SeqWindow<WireFrame>,
        ring: &mut PacketRing<WireFrame>,
        share: &mut u32,
        quota: usize,
    ) {
        while win.buffered() > 0 && !ring.is_full() && (*share as usize) < quota {
            let Some(frame) = win.take_ready() else { break };
            let pushed = ring.push(frame);
            debug_assert!(pushed.is_ok(), "checked not full above");
            *share += 1;
        }
    }

    /// Refill the receive ring from every source's reorder buffer,
    /// starting at a rotating source so no source owns the front of the
    /// scan. Under incast, K backlogged sources contend for the freed
    /// ring slots every extract; rotation shares them ~1/K instead of
    /// letting source order decide.
    fn drain_all_windows(&mut self) {
        let Self {
            recv_windows,
            recv_ring,
            ring_share,
            ring_quota,
            drain_rr,
            ..
        } = self;
        let n = recv_windows.len();
        if n == 0 {
            return;
        }
        if ring_share.len() < n {
            ring_share.resize(n, 0);
        }
        *drain_rr = (*drain_rr + 1) % n;
        for k in 0..n {
            if recv_ring.is_full() {
                break;
            }
            let i = (*drain_rr + k) % n;
            let win = &mut recv_windows[i];
            if win.buffered() > 0 {
                Self::drain_window_into(win, recv_ring, &mut ring_share[i], *ring_quota);
            }
        }
    }

    // ---- extraction ------------------------------------------------------

    /// `FM_extract`: deliver up to `max` messages to their handlers.
    /// Returns the number delivered. Also advances the virtual clock,
    /// services retransmission timers, paces bounce retransmissions and
    /// flushes acknowledgements and handler-issued sends.
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
            let Some(frame) = self.recv_ring.pop() else {
                break;
            };
            let share = grow(&mut self.ring_share, frame.src.index());
            *share = share.saturating_sub(1);
            if self.deliver(frame) {
                delivered += 1;
            }
        }
        self.drain_all_windows();
        self.flush_deferred();
        self.flush_acks(true);
        delivered
    }

    /// Advance `now` per the configured time source. Wall time is pinned
    /// strictly monotonic: an extract burst faster than the microsecond
    /// clock still moves `now` by at least one, so trace stamps stay
    /// distinct and deadline math never sees a frozen clock.
    fn advance_clock(&mut self) {
        self.now = match self.config.time_source {
            TimeSource::VirtualTick => self.now + 1,
            TimeSource::WallMicros => {
                let origin = *self
                    .clock_origin
                    .get_or_insert_with(std::time::Instant::now);
                (origin.elapsed().as_micros() as u64).max(self.now + 1)
            }
        };
    }

    /// Returns true when a handler actually ran (unknown-handler frames are
    /// consumed without counting as deliveries).
    fn deliver(&mut self, frame: WireFrame) -> bool {
        match self.registry.take(frame.handler) {
            Some(mut h) => {
                let trace = frame.trace;
                if trace.sampled {
                    self.telemetry.trace(
                        self.now,
                        EventKind::SpanHandlerStart {
                            trace: trace.id,
                            hop: trace.hop,
                            src: frame.src.0,
                        },
                    );
                    // Propagate the trace to handler-issued sends (set
                    // through the flush below, so causally-dependent
                    // frames leave one hop deeper in the same trace).
                    self.active_trace = Some(trace);
                }
                // Time the handler only when telemetry is compiled in, and
                // then only 1 delivery in 8: two clock reads per delivery
                // are the single largest instrumentation cost on the clean
                // path, and a 1-in-8 sample still feeds the service-time
                // histogram thousands of points per second under load.
                self.handler_probe = self.handler_probe.wrapping_add(1);
                let start = (fm_telemetry::ENABLED && self.handler_probe & 7 == 0)
                    .then(std::time::Instant::now);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    h(&mut self.outbox, frame.src, &frame.payload)
                }));
                if let Some(t0) = start {
                    self.telemetry
                        .record(Metric::HandlerNs, t0.elapsed().as_nanos() as u64);
                }
                if outcome.is_err() {
                    // The handler panicked. Its internal state is suspect,
                    // so it is dropped rather than put back (later frames
                    // for this id count as unknown_handler), and any sends
                    // it queued before dying are discarded — a half-built
                    // causal burst must not escape. The node itself keeps
                    // running: one bad handler cannot wedge the cluster.
                    self.stats.handler_panics += 1;
                    let mut queued = std::mem::take(&mut self.outbox_scratch);
                    self.outbox.swap_queued(&mut queued);
                    queued.clear();
                    self.outbox_scratch = queued;
                    self.active_trace = None;
                    return false;
                }
                self.registry.put_back(frame.handler, h);
                self.stats.delivered += 1;
                if trace.sampled {
                    self.telemetry.trace(
                        self.now,
                        EventKind::SpanHandlerEnd {
                            trace: trace.id,
                            hop: trace.hop,
                        },
                    );
                }
                // Flush handler sends immediately so causally-related
                // messages leave in issue order when the window allows. The
                // batch moves through a persistent scratch Vec (swap, not
                // collect) so delivery stays allocation-free. active_trace
                // is still set here: these sends inherit the trace.
                let mut queued = std::mem::take(&mut self.outbox_scratch);
                self.outbox.swap_queued(&mut queued);
                for (dst, handler, payload) in queued.drain(..) {
                    if self.try_send(dst, handler, payload.clone()).is_err() {
                        self.stats.deferred_sends += 1;
                        self.deferred.push_back((dst, handler, payload));
                    }
                }
                self.outbox_scratch = queued;
                self.active_trace = None;
                true
            }
            None => {
                // Unknown handler: the message is consumed (and was already
                // acked on acceptance) — matching FM's "buffers do not
                // persist"; we surface it in stats rather than crashing the
                // node.
                self.stats.unknown_handler += 1;
                false
            }
        }
    }

    /// Fire expired retransmission timers: resend frames whose ack never
    /// came (covering both lost data and lost acks), and declare peers dead
    /// once a frame exhausts its retry budget. O(1) on the clean path via
    /// the reject queue's cached earliest deadline.
    fn service_timers(&mut self) {
        if !self.sender.timer_due(self.now) {
            return;
        }
        let mut retx = std::mem::take(&mut self.retx_scratch);
        let mut failed = std::mem::take(&mut self.fail_scratch);
        self.sender.fire_timers(
            self.now,
            |_slot, frame| retx.push(frame.clone()),
            |_slot, frame| failed.push(frame),
        );
        for frame in retx.drain(..) {
            self.queue_retransmit(frame, Retransmit::Timer);
        }
        self.retx_scratch = retx;
        for frame in failed.drain(..) {
            self.stats.unreachable_drops += 1; // the frame that gave up
            self.mark_dead(frame.dst);
        }
        self.fail_scratch = failed;
    }

    /// Declare `peer` dead and purge every piece of state that would
    /// otherwise wedge waiting on it: in-flight window slots, queued wire
    /// frames, deferred handler sends, pending acks and reorder buffers.
    /// Surviving traffic to other peers is untouched — this is graceful
    /// degradation, not shutdown.
    fn mark_dead(&mut self, peer: NodeId) {
        let idx = peer.index();
        if idx >= self.dead.len() {
            self.dead.resize(idx + 1, false);
        }
        if self.dead[idx] {
            return;
        }
        self.dead[idx] = true;
        self.newly_dead.push(peer);
        self.telemetry.incr(Counter::DeadPeers);
        self.telemetry
            .trace(self.now, EventKind::PeerDead { peer: peer.0 });
        let mut drops = 0u64;
        self.sender
            .release_where(|f| f.dst == peer, |_f| drops += 1);
        if let Some(order) = self.send_order.get_mut(idx) {
            order.clear();
        }
        let before = self.outgoing.len();
        self.outgoing.retain(|f| f.dst != peer);
        drops += (before - self.outgoing.len()) as u64;
        let before = self.deferred.len();
        self.deferred.retain(|(dst, _, _)| *dst != peer);
        drops += (before - self.deferred.len()) as u64;
        self.acks.purge(peer);
        if let Some(win) = self.recv_windows.get_mut(idx) {
            drops += win.clear_buffered() as u64;
        }
        self.stats.unreachable_drops += drops;
    }

    fn retransmit_some(&mut self) {
        for _ in 0..self.config.retransmit_per_extract {
            // Bounced frames were normalized back to Data form in on_wire,
            // so they go straight out with fresh acks attached.
            let Some((_slot, frame)) = self.sender.pop_retransmit(self.now) else {
                break;
            };
            self.queue_retransmit(frame, Retransmit::Bounce);
        }
    }

    fn flush_deferred(&mut self) {
        while let Some((dst, handler, payload)) = self.deferred.pop_front() {
            if self.is_dead(dst) {
                // The peer died while this send was parked; drop it.
                self.stats.unreachable_drops += 1;
                continue;
            }
            if !self.sender.can_send() {
                self.deferred.push_front((dst, handler, payload));
                break;
            }
            // Deferred sends lost their causal context when they were
            // parked (only (dst, handler, payload) is retained), so they
            // re-enter the wire untraced rather than mislabeled.
            let queued = self.queue_data_frame(dst, handler, payload, TraceCtx::default());
            debug_assert!(queued.is_ok(), "can_send checked above");
        }
    }

    /// Emit standalone ack frames. `force` drains everything (end of
    /// extract); otherwise only full batches go.
    pub fn flush_acks(&mut self, force: bool) {
        let Self {
            acks,
            outgoing,
            stats,
            id,
            ..
        } = self;
        acks.take_standalone(force, |dst, slots| {
            outgoing.push_back(WireFrame::ack(*id, dst, slots));
            stats.ack_frames_sent += 1;
        });
    }

    // ---- transport side --------------------------------------------------

    /// Pop the next frame bound for the wire.
    pub fn pop_outgoing(&mut self) -> Option<WireFrame> {
        self.outgoing.pop_front()
    }

    /// Frames currently queued for the wire.
    pub fn outgoing_len(&self) -> usize {
        self.outgoing.len()
    }

    /// True when this endpoint holds no protocol state that still needs the
    /// network: nothing outstanding, nothing queued, nothing to extract,
    /// nothing parked in a reorder buffer.
    pub fn is_quiescent(&self) -> bool {
        self.sender.outstanding() == 0
            && self.outgoing.is_empty()
            && self.recv_ring.is_empty()
            && self.deferred.is_empty()
            && self.acks.pending_total() == 0
            && self.recv_buffered() == 0
    }
}

/// Mint a trace id from (node, fresh-send ordinal): a splitmix64 round
/// xor-folded to 32 bits. Deterministic per endpoint run, well-mixed
/// across the cluster so concurrently-minted ids effectively never
/// collide within one bounded trace ring's lifetime.
fn derive_trace_id(node: u16, n: u32) -> u32 {
    let x = splitmix64(((node as u64) << 32) | n as u64);
    (x as u32) ^ ((x >> 32) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn pair() -> (EndpointCore, EndpointCore) {
        (
            EndpointCore::new(NodeId(0), EndpointConfig::default()),
            EndpointCore::new(NodeId(1), EndpointConfig::default()),
        )
    }

    /// Move every queued frame from `a` to `b` and vice versa until both
    /// wires are empty (a zero-latency lossless network).
    fn pump(a: &mut EndpointCore, b: &mut EndpointCore) {
        loop {
            let mut moved = false;
            while let Some(f) = a.pop_outgoing() {
                b.on_wire(f);
                moved = true;
            }
            while let Some(f) = b.pop_outgoing() {
                a.on_wire(f);
                moved = true;
            }
            if !moved {
                break;
            }
        }
    }

    #[test]
    fn simple_send_extract_delivers() {
        let (mut a, mut b) = pair();
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        let hid = b.register_handler(Box::new(move |_, src, data| {
            assert_eq!(src, NodeId(0));
            assert_eq!(data, b"ping");
            h2.fetch_add(1, Ordering::SeqCst);
        }));
        a.try_send(NodeId(1), hid, &b"ping"[..]).unwrap();
        pump(&mut a, &mut b);
        assert_eq!(b.extract(usize::MAX), 1);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // The ack flows back and releases a's slot.
        pump(&mut a, &mut b);
        assert_eq!(a.outstanding(), 0);
        assert!(a.stats().acks_received >= 1);
    }

    #[test]
    fn send_4_payload_is_16_bytes() {
        let (mut a, mut b) = pair();
        let hid = b.register_handler(Box::new(|_, _, data| {
            assert_eq!(data.len(), 16);
            let w0 = u32::from_le_bytes(data[0..4].try_into().unwrap());
            assert_eq!(w0, 0x1234_5678);
        }));
        a.try_send_4(NodeId(1), hid, [0x1234_5678, 0, 0, 0])
            .unwrap();
        pump(&mut a, &mut b);
        assert_eq!(b.extract(usize::MAX), 1);
    }

    #[test]
    fn window_exhaustion_blocks_until_acked() {
        let mut a = EndpointCore::new(
            NodeId(0),
            EndpointConfig {
                window: 2,
                ..Default::default()
            },
        );
        let mut b = EndpointCore::new(NodeId(1), EndpointConfig::default());
        let hid = b.register_handler(Box::new(|_, _, _| {}));
        a.try_send(NodeId(1), hid, &[1][..]).unwrap();
        a.try_send(NodeId(1), hid, &[2][..]).unwrap();
        assert_eq!(
            a.try_send(NodeId(1), hid, &[3][..]),
            Err(SendError::WouldBlock)
        );
        pump(&mut a, &mut b);
        b.extract(usize::MAX);
        pump(&mut a, &mut b);
        assert_eq!(a.outstanding(), 0);
        a.try_send(NodeId(1), hid, &[3][..]).unwrap();
    }

    #[test]
    fn full_ring_bounces_and_retransmission_recovers() {
        let mut a = EndpointCore::new(NodeId(0), EndpointConfig::default());
        let mut b = EndpointCore::new(
            NodeId(1),
            EndpointConfig {
                recv_ring: 4,
                ..Default::default()
            },
        );
        let delivered = Arc::new(AtomicU64::new(0));
        let d2 = delivered.clone();
        let hid = b.register_handler(Box::new(move |_, _, _| {
            d2.fetch_add(1, Ordering::SeqCst);
        }));
        // Send 10 frames into a 4-deep ring without extracting. Seqs 0-3
        // fill the ring; seq 4 is next-in-order but finds the ring full and
        // bounces; seqs 5-9 are ahead of the in-order point, so the reorder
        // window buffers and acks them for delivery once 4 lands.
        for i in 0..10u8 {
            a.try_send(NodeId(1), hid, vec![i]).unwrap();
        }
        pump(&mut a, &mut b);
        assert_eq!(b.stats().rejected, 1);
        assert_eq!(a.stats().bounced, 1);
        assert_eq!(b.recv_buffered(), 5);
        // Drain and retransmit until everything lands.
        let mut rounds = 0;
        while delivered.load(Ordering::SeqCst) < 10 {
            b.extract(usize::MAX);
            a.extract(usize::MAX); // paces retransmissions
            pump(&mut a, &mut b);
            rounds += 1;
            assert!(rounds < 50, "no progress: {:?} / {:?}", a, b);
        }
        assert_eq!(delivered.load(Ordering::SeqCst), 10);
        // The bounced in-order frame must have been retransmitted.
        assert!(a.stats().retransmitted >= 1);
        pump(&mut a, &mut b);
        b.extract(usize::MAX);
        a.extract(usize::MAX);
        pump(&mut a, &mut b);
        assert!(a.is_quiescent(), "{a:?}");
        assert!(b.is_quiescent(), "{b:?}");
    }

    #[test]
    fn handler_reply_from_handler() {
        let (mut a, mut b) = pair();
        let got_reply = Arc::new(AtomicU64::new(0));
        let g2 = got_reply.clone();
        let reply_h = a.register_handler(Box::new(move |_, src, data| {
            assert_eq!(src, NodeId(1));
            assert_eq!(data, b"pong");
            g2.fetch_add(1, Ordering::SeqCst);
        }));
        // b's handler replies to the sender — the Active-Messages idiom.
        let ping_h = b.register_handler(Box::new(move |out, src, _| {
            out.send(src, reply_h, &b"pong"[..]);
        }));
        assert_eq!(ping_h, reply_h, "both registries assign id 1 here");
        a.try_send(NodeId(1), ping_h, &b"ping"[..]).unwrap();
        pump(&mut a, &mut b);
        b.extract(usize::MAX);
        pump(&mut a, &mut b);
        a.extract(usize::MAX);
        assert_eq!(got_reply.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn loopback_skips_network() {
        let mut a = EndpointCore::new(NodeId(0), EndpointConfig::default());
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        let hid = a.register_handler(Box::new(move |_, src, _| {
            assert_eq!(src, NodeId(0));
            h2.fetch_add(1, Ordering::SeqCst);
        }));
        a.try_send(NodeId(0), hid, &b"self"[..]).unwrap();
        assert_eq!(a.outgoing_len(), 0, "nothing on the wire");
        assert_eq!(a.extract(usize::MAX), 1);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(a.stats().loopback, 1);
    }

    #[test]
    fn unknown_handler_counted_not_fatal() {
        let (mut a, mut b) = pair();
        a.try_send(NodeId(1), HandlerId(77), &b"?"[..]).unwrap();
        pump(&mut a, &mut b);
        assert_eq!(b.extract(usize::MAX), 0);
        assert_eq!(b.stats().unknown_handler, 1);
        // Still acked: sender's slot frees.
        pump(&mut a, &mut b);
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn gather_send_concatenates_parts() {
        let (mut a, mut b) = pair();
        let hid = b.register_handler(Box::new(|_, _, data| {
            assert_eq!(data, b"header|body|trailer");
        }));
        a.try_send_gather(NodeId(1), hid, &[&b"header|"[..], b"body|", b"trailer"])
            .unwrap();
        pump(&mut a, &mut b);
        assert_eq!(b.extract(usize::MAX), 1);
        // Oversized gathers are rejected with the total length.
        let big = [0u8; 100];
        assert_eq!(
            a.try_send_gather(NodeId(1), hid, &[&big, &big]),
            Err(SendError::TooLarge { len: 200 })
        );
        // Empty gather is a legal zero-byte message.
        a.try_send_gather(NodeId(1), hid, &[]).unwrap();
    }

    #[test]
    fn oversized_send_rejected() {
        let (mut a, _) = pair();
        assert_eq!(
            a.try_send(NodeId(1), HandlerId(1), vec![0u8; 200]),
            Err(SendError::TooLarge { len: 200 })
        );
    }

    #[test]
    fn extract_budget_limits_deliveries() {
        let (mut a, mut b) = pair();
        let hid = b.register_handler(Box::new(|_, _, _| {}));
        for _ in 0..5 {
            a.try_send(NodeId(1), hid, &[0][..]).unwrap();
        }
        pump(&mut a, &mut b);
        assert_eq!(b.extract(2), 2);
        assert_eq!(b.pending_extract(), 3);
        assert_eq!(b.extract(usize::MAX), 3);
    }

    #[test]
    fn acks_piggyback_on_reverse_data() {
        let (mut a, mut b) = pair();
        let ha = a.register_handler(Box::new(|_, _, _| {}));
        let hb = b.register_handler(Box::new(|_, _, _| {}));
        a.try_send(NodeId(1), hb, &[1][..]).unwrap();
        pump(&mut a, &mut b);
        b.extract(usize::MAX); // accepts + queues ack (standalone flush happens too)
                               // Reset: send again and reply *before* extract's forced flush by
                               // sending reverse data in the same extract-cycle window.
        a.try_send(NodeId(1), hb, &[2][..]).unwrap();
        pump(&mut a, &mut b);
        // b receives the data; now b sends its own data frame — the pending
        // ack should ride on it.
        b.try_send(NodeId(0), ha, &[3][..]).unwrap();
        let f = b.pop_outgoing().expect("data frame queued");
        assert_eq!(f.kind, FrameKind::Data);
        assert!(
            !f.piggy.is_empty(),
            "ack for a's frame must piggyback on b's data frame"
        );
        a.on_wire(f);
        assert!(a.stats().acks_received >= 1);
    }

    #[test]
    fn trace_context_sampling_and_inheritance() {
        // trace_one_in = 1: every fresh send is sampled (when telemetry is
        // compiled in). A handler-issued reply must inherit the trace id
        // one hop deeper; with telemetry-off the context must round-trip
        // as all zeroes regardless of the sampling config.
        let cfg = EndpointConfig {
            trace_one_in: 1,
            ..Default::default()
        };
        let mut a = EndpointCore::new(NodeId(0), cfg);
        let mut b = EndpointCore::new(NodeId(1), cfg);
        let reply_h = a.register_handler(Box::new(|_, _, _| {}));
        let ping_h = b.register_handler(Box::new(move |out, src, _| {
            out.send(src, reply_h, &b"pong"[..]);
        }));
        a.try_send(NodeId(1), ping_h, &b"ping"[..]).unwrap();
        let ping = a.pop_outgoing().expect("ping queued");
        if fm_telemetry::ENABLED {
            assert!(ping.trace.sampled, "1-in-1 sampling must trace");
            assert_eq!(ping.trace.hop, 0);
        } else {
            assert_eq!(ping.trace, TraceCtx::default());
        }
        let trace_id = ping.trace.id;
        b.on_wire(ping);
        assert_eq!(b.extract(usize::MAX), 1);
        let pong = b.pop_outgoing().expect("handler reply queued");
        assert_eq!(pong.kind, FrameKind::Data);
        if fm_telemetry::ENABLED {
            assert!(pong.trace.sampled, "reply must inherit the trace");
            assert_eq!(pong.trace.id, trace_id);
            assert_eq!(pong.trace.hop, 1, "reply is one causal hop deeper");
        } else {
            assert_eq!(pong.trace, TraceCtx::default());
        }
        // A fresh send after delivery must NOT inherit the finished trace.
        b.try_send(NodeId(0), reply_h, &b"fresh"[..]).unwrap();
        let fresh = b.pop_outgoing().unwrap();
        if fm_telemetry::ENABLED {
            assert!(fresh.trace.sampled, "1-in-1 samples fresh sends too");
            assert_ne!(fresh.trace.id, trace_id, "fresh send mints its own id");
            assert_eq!(fresh.trace.hop, 0);
        }
    }

    #[test]
    fn traced_roundtrip_records_span_events() {
        let cfg = EndpointConfig {
            trace_one_in: 1,
            ..Default::default()
        };
        let mut a = EndpointCore::new(NodeId(0), cfg);
        let mut b = EndpointCore::new(NodeId(1), cfg);
        let hid = b.register_handler(Box::new(|_, _, _| {}));
        a.try_send(NodeId(1), hid, &b"x"[..]).unwrap();
        pump(&mut a, &mut b);
        b.extract(usize::MAX);
        pump(&mut a, &mut b);
        assert_eq!(a.outstanding(), 0);
        if !fm_telemetry::ENABLED {
            assert!(a.telemetry().events().is_empty());
            return;
        }
        let a_kinds: Vec<&str> = a
            .telemetry()
            .events()
            .iter()
            .map(|e| e.kind.name())
            .collect();
        let b_kinds: Vec<&str> = b
            .telemetry()
            .events()
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert!(a_kinds.contains(&"span_send"), "{a_kinds:?}");
        assert!(a_kinds.contains(&"span_ack_in"), "{a_kinds:?}");
        assert!(b_kinds.contains(&"span_wire_in"), "{b_kinds:?}");
        assert!(b_kinds.contains(&"span_ack_out"), "{b_kinds:?}");
        assert!(b_kinds.contains(&"span_handler_start"), "{b_kinds:?}");
        assert!(b_kinds.contains(&"span_handler_end"), "{b_kinds:?}");
        // All spans on both sides agree on the trace id.
        let ids: std::collections::HashSet<u32> = a
            .telemetry()
            .events()
            .iter()
            .chain(b.telemetry().events().iter())
            .filter_map(|e| e.kind.span().map(|(id, _)| id))
            .collect();
        assert_eq!(ids.len(), 1, "one message, one trace id");
    }

    #[test]
    fn trace_sampling_disabled_sends_zero_context() {
        let cfg = EndpointConfig {
            trace_one_in: 0,
            ..Default::default()
        };
        let mut a = EndpointCore::new(NodeId(0), cfg);
        a.try_send(NodeId(1), HandlerId(1), &b"x"[..]).unwrap();
        let f = a.pop_outgoing().unwrap();
        assert_eq!(f.trace, TraceCtx::default());
        let reencoded = WireFrame::decode(&f.encode()).unwrap();
        assert_eq!(reencoded.trace, TraceCtx::default(), "zeroes round-trip");
    }

    // ---- hole repair ----------------------------------------------------

    /// Move `from`'s queued frames to `to`, losing those `lose` picks.
    fn carry(
        from: &mut EndpointCore,
        to: &mut EndpointCore,
        mut lose: impl FnMut(&WireFrame) -> bool,
    ) {
        while let Some(f) = from.pop_outgoing() {
            if !lose(&f) {
                to.on_wire(f);
            }
        }
    }

    /// A sender/receiver pair with a sink handler on the receiver.
    fn stream_pair(cfg: EndpointConfig) -> (EndpointCore, EndpointCore, HandlerId) {
        let a = EndpointCore::new(NodeId(0), cfg);
        let mut b = EndpointCore::new(NodeId(1), cfg);
        let hid = b.register_handler(Box::new(|_, _, _| {}));
        (a, b, hid)
    }

    fn send_n(a: &mut EndpointCore, hid: HandlerId, n: usize) {
        for _ in 0..n {
            a.try_send(NodeId(1), hid, &[0u8; 8][..]).unwrap();
        }
    }

    fn is_data(f: &WireFrame, seq: u32) -> bool {
        f.kind == FrameKind::Data && f.seq == seq
    }

    #[test]
    fn one_lost_frame_is_repaired_from_acks_without_a_timer() {
        let (mut a, mut b, hid) = stream_pair(EndpointConfig {
            adaptive_rto: true,
            ..Default::default()
        });
        send_n(&mut a, hid, 8);
        carry(&mut a, &mut b, |f| is_data(f, 2));
        assert_eq!(
            b.extract(usize::MAX),
            2,
            "0 and 1; 3..=7 park behind the hole"
        );
        // Acks 0, 1 free the front of the send order; 3, 4, 5 overtake
        // seq 2, and the third of them repairs it.
        carry(&mut b, &mut a, |_| false);
        assert_eq!(a.stats().gap_retransmits, 1);
        assert_eq!(a.stats().retransmitted, 1);
        assert_eq!(a.outgoing_len(), 1);
        carry(&mut a, &mut b, |_| false);
        assert_eq!(b.extract(usize::MAX), 6);
        carry(&mut b, &mut a, |_| false);
        assert!(a.is_quiescent() && b.is_quiescent(), "{a:?} {b:?}");
        assert_eq!(a.stats().timer_retransmits, 0);
        assert_eq!(b.stats().duplicates, 0);
        // Karn: the repaired slot's ack is ambiguous between its two
        // transmissions and never becomes an RTT sample.
        assert_eq!(a.rtt().samples(), 7);
    }

    #[test]
    fn two_holes_in_one_window_are_repaired_in_the_same_ack_round() {
        let (mut a, mut b, hid) = stream_pair(EndpointConfig::default());
        send_n(&mut a, hid, 12);
        carry(&mut a, &mut b, |f| is_data(f, 2) || is_data(f, 4));
        b.extract(usize::MAX);
        carry(&mut b, &mut a, |_| false);
        assert_eq!(a.stats().gap_retransmits, 2);
        let seqs: Vec<u32> = a.outgoing.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, [2, 4]);
        carry(&mut a, &mut b, |_| false);
        assert_eq!(b.extract(usize::MAX), 10);
        carry(&mut b, &mut a, |_| false);
        assert!(a.is_quiescent() && b.is_quiescent());
        assert_eq!(a.stats().timer_retransmits, 0);
    }

    #[test]
    fn a_lost_repair_is_repaired_again_after_a_further_window_of_acks() {
        let window = 8;
        let (mut a, mut b, hid) = stream_pair(EndpointConfig {
            window,
            ..Default::default()
        });
        // Seq 0 is lost twice: the original and its first repair.
        let mut losses = 2;
        let mut lose_head = move |f: &WireFrame| {
            let lost = is_data(f, 0) && losses > 0;
            losses -= lost as u32;
            lost
        };
        let mut round = |a: &mut EndpointCore, b: &mut EndpointCore, n: usize| {
            send_n(a, hid, n);
            carry(a, b, &mut lose_head);
            b.extract(usize::MAX);
            carry(b, a, |_| false);
            assert_eq!(a.send_order[1].len(), a.outstanding());
            assert!(a.outstanding() <= window);
        };
        // 1..=7 are acked past the hole: the third ack repairs it. The
        // repair went out after all of them, so none of the rest count.
        round(&mut a, &mut b, window);
        assert_eq!(a.stats().gap_retransmits, 1);
        // The repair is lost on the way out of this round. Seven later
        // frames acked: one short of a window, no second repair yet.
        round(&mut a, &mut b, window - 1);
        assert_eq!(a.stats().gap_retransmits, 1);
        // The eighth ack of a frame sent after the repair sends another.
        round(&mut a, &mut b, window - 1);
        assert_eq!(a.stats().gap_retransmits, 2);
        round(&mut a, &mut b, 0);
        assert!(a.is_quiescent() && b.is_quiescent(), "{a:?} {b:?}");
        assert_eq!(b.stats().delivered as usize, 3 * window - 2);
        assert_eq!(a.stats().timer_retransmits, 0);
    }

    #[test]
    fn a_bounced_head_is_never_gap_retransmitted() {
        let mut a = EndpointCore::new(NodeId(0), EndpointConfig::default());
        let mut b = EndpointCore::new(
            NodeId(1),
            EndpointConfig {
                recv_ring: 4,
                ..Default::default()
            },
        );
        let hid = b.register_handler(Box::new(|_, _, _| {}));
        // 0..=3 fill the ring, 4 bounces, 5..=9 park and are acked.
        send_n(&mut a, hid, 10);
        carry(&mut a, &mut b, |_| false);
        b.flush_acks(true);
        // The bounce is queued ahead of the acks that overtook it, so by
        // the time they arrive seq 4 is parked for its own retransmission.
        carry(&mut b, &mut a, |_| false);
        assert_eq!(a.stats().bounced, 1);
        assert_eq!(a.outstanding(), 1);
        assert_eq!(a.stats().gap_retransmits, 0);
        assert_eq!(a.outgoing_len(), 0, "five later acks, no repair");
        a.extract(usize::MAX);
        assert_eq!(a.stats().retransmitted, 1, "the bounce path resends it");
        assert_eq!(a.stats().gap_retransmits, 0);
    }

    #[test]
    fn dead_and_reset_peers_leave_no_send_order_behind() {
        let (mut a, _b, hid) = stream_pair(EndpointConfig::default());
        send_n(&mut a, hid, 5);
        assert_eq!(a.send_order[1].len(), 5);
        a.mark_dead(NodeId(1));
        assert!(a.send_order[1].is_empty());
        a.revive_peer(NodeId(1));
        send_n(&mut a, hid, 3);
        assert_eq!(a.send_order[1].len(), 3);
        a.reset_peer(NodeId(1));
        assert!(a.send_order[1].is_empty());
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn deferred_handler_sends_flush_later() {
        // a's handler fires a burst of replies through a tiny window.
        let mut a = EndpointCore::new(
            NodeId(0),
            EndpointConfig {
                window: 1,
                ..Default::default()
            },
        );
        let mut b = EndpointCore::new(NodeId(1), EndpointConfig::default());
        let sink = b.register_handler(Box::new(|_, _, _| {}));
        let trigger = a.register_handler(Box::new(move |out, _, _| {
            for i in 0..4u8 {
                out.send(NodeId(1), sink, vec![i]);
            }
        }));
        // Kick a via loopback.
        a.try_send(NodeId(0), trigger, &[][..]).unwrap();
        a.extract(usize::MAX);
        assert!(a.stats().deferred_sends > 0, "window of 1 must defer");
        // Keep pumping: deferred sends drain as acks free the window.
        for _ in 0..20 {
            pump(&mut a, &mut b);
            b.extract(usize::MAX);
            pump(&mut a, &mut b);
            a.extract(usize::MAX);
        }
        assert_eq!(b.stats().delivered, 4);
        assert!(a.is_quiescent());
    }
}
