//! The in-memory FM runtime: real endpoints on real threads.
//!
//! [`MemCluster::new`] builds `n` fully-connected endpoints whose "wire" is
//! a counter-coordinated SPSC ring per ordered pair ([`crate::fabric`]),
//! carrying *encoded* frames — every byte that would cross the Myrinet is
//! encoded in place into a ring slot here, exercising the codec, the flow
//! control and the handler machinery for real, with zero per-frame heap
//! traffic. This is the runtime the examples, the integration tests and the
//! Criterion microbenches use; the calibrated timing reproduction lives in
//! `fm-testbed`.
//!
//! A [`MemEndpoint`] is the FM calls, the large-message layer and the pump
//! order over one [`EndpointCore`]; the transport it is plugged into — ring
//! mesh, switch uplink/downlink, or UDP socket — lives behind
//! `crate::wire` and is reached through two calls (push one frame image,
//! drain what arrived).
//!
//! Each endpoint is single-threaded by construction (FM 1.0 predates the
//! multitasking/protection work the paper lists as future work), so a
//! [`MemEndpoint`] is `Send` but not `Sync`: move it into its node's
//! thread and drive it there.

use bytes::Bytes;
use fm_myrinet::{NodeId, SwitchTopology};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::endpoint::{EndpointConfig, EndpointCore, EndpointStats, SendError};
use crate::fault::{
    flip_bit, Fate, FaultConfig, FaultEvent, FaultInjector, FaultStats, OutboundFrame,
};
use crate::frame::{CodecError, FrameHeader, WireFrame};
use crate::handler::{HandlerId, Outbox};
use crate::seg::{self, SEG_HANDLER};
use crate::time::{RttEstimator, TimeSource};
use crate::udp::{UdpConfig, UdpLink, UdpStats};
use crate::wire::Wire;
pub use crate::wire::{FabricKind, FabricStats};
use fm_telemetry::{Beaconer, Counter, Telemetry};

/// A handler for reassembled large messages: `(outbox, source, message)`.
pub type LargeHandler = Box<dyn FnMut(&mut Outbox, NodeId, Vec<u8>) + Send>;

/// Builder for a fully-connected in-memory cluster.
pub struct MemCluster;

impl MemCluster {
    /// `n` endpoints with default window/ring sizes on the ring fabric.
    #[allow(clippy::new_ret_no_self)] // a builder: "cluster" = the endpoint set
    pub fn new(n: usize) -> Vec<MemEndpoint> {
        Self::with_config(n, EndpointConfig::default())
    }

    /// `n` endpoints with explicit sizing on the ring fabric.
    ///
    /// # Panics
    /// If `n` is zero, or any of `config.window`, `config.recv_ring`,
    /// `config.wire_ring` is zero — a zero-depth ring or window can never
    /// carry a frame, so the cluster could not deliver anything.
    pub fn with_config(n: usize, config: EndpointConfig) -> Vec<MemEndpoint> {
        Self::with_fabric(n, config, FabricKind::Ring)
    }

    /// `n` endpoints with explicit sizing, an explicit wire fabric, and a
    /// [`FaultInjector`] decorating every node's transmit path — the
    /// fault-injection harness for the reliability layer. The underlying
    /// wire is untouched; faults are applied to frames before they reach
    /// it, per the seeded plan in `faults`.
    pub fn with_faulty_fabric(
        n: usize,
        config: EndpointConfig,
        fabric: FabricKind,
        faults: FaultConfig,
    ) -> Vec<MemEndpoint> {
        let mut nodes = Self::with_fabric(n, config, fabric);
        for ep in &mut nodes {
            ep.inject_faults(&faults);
        }
        nodes
    }

    /// `n` endpoints with explicit sizing and an explicit wire fabric.
    pub fn with_fabric(
        n: usize,
        mut config: EndpointConfig,
        fabric: FabricKind,
    ) -> Vec<MemEndpoint> {
        assert!(n >= 1, "a cluster needs at least one node");
        assert!(config.wire_ring > 0, "wire_ring must be >= 1 frame");
        let wires = match fabric {
            FabricKind::Ring => Wire::ring_mesh(n, config.wire_ring),
            FabricKind::Udp => {
                config.time_source = TimeSource::WallMicros;
                Wire::udp_loopback(n)
            }
        };
        wires
            .into_iter()
            .enumerate()
            .map(|(i, wire)| MemEndpoint::new(NodeId(i as u16), config, wire))
            .collect()
    }
}

/// One node of the in-memory cluster. Implements the FM 1.0 calls plus the
/// segmentation extension.
pub struct MemEndpoint {
    core: EndpointCore,
    wire: Wire,
    /// Owned copies of frames that found their destination ring full;
    /// re-offered on every flush. Bounded in practice by the send window
    /// plus one extract round's worth of acks, because everything the core
    /// queues for the wire is. Entries carry their already-decided fault
    /// treatment so full-ring backpressure never re-rolls the fault dice.
    backlog: VecDeque<OutboundFrame>,
    large_handlers: Vec<Option<LargeHandler>>,
    /// Large-handler sends that found the window full.
    deferred: VecDeque<(NodeId, HandlerId, Bytes)>,
    next_msg_id: u32,
    /// Fault stage decorating the transmit path (None on a clean cluster).
    faults: Option<FaultInjector>,
    /// Frames that failed to decode for *structural* reasons (bad kind,
    /// impossible length), or decoded but were not a peer's frame for this
    /// node (see `pump_wire`); CRC failures are counted separately in
    /// [`EndpointStats::corrupt`].
    pub codec_errors: u64,
    /// Large-message handlers that panicked (the handler is dropped; later
    /// completions for its id are discarded).
    pub large_handler_panics: u64,
    /// Out-of-band telemetry beaconer toward a collector, when enabled
    /// ([`MemEndpoint::enable_beacon`]). Paced inside `extract_budget`,
    /// which every blocking send also runs while it waits.
    beacon: Option<Beaconer>,
}

impl MemEndpoint {
    /// One endpoint plugged into `wire`.
    ///
    /// # Panics
    /// If `config.window` or `config.recv_ring` is zero.
    pub(crate) fn new(id: NodeId, config: EndpointConfig, wire: Wire) -> Self {
        assert!(config.window > 0, "window must be >= 1 frame");
        assert!(config.recv_ring > 0, "recv_ring must be >= 1 frame");
        MemEndpoint {
            core: EndpointCore::new(id, config),
            wire,
            backlog: VecDeque::new(),
            large_handlers: Vec::new(),
            deferred: VecDeque::new(),
            next_msg_id: 0,
            faults: None,
            codec_errors: 0,
            large_handler_panics: 0,
            beacon: None,
        }
    }

    pub fn node_id(&self) -> NodeId {
        self.core.id()
    }

    pub fn stats(&self) -> EndpointStats {
        self.core.stats()
    }

    /// This endpoint's telemetry handle (histograms, trace ring); see
    /// [`crate::endpoint::EndpointCore::telemetry`].
    pub fn telemetry(&self) -> &Telemetry {
        self.core.telemetry()
    }

    /// This endpoint's current clock reading (extract ticks or wall
    /// micros, per `EndpointConfig::time_source`) — the tick domain its
    /// trace events are stamped in.
    pub fn now(&self) -> u64 {
        self.core.now()
    }

    /// Start emitting out-of-band telemetry beacons toward `collector`
    /// (a [`fm_telemetry::Collector`] ingest socket) at most once per
    /// `interval_us` micros, paced from inside [`MemEndpoint::extract_budget`]
    /// (and therefore also while a blocking send waits for window space).
    /// The beacon socket is a separate ephemeral UDP socket, so this works
    /// identically on mesh, switched and UDP wirings and never contends
    /// with data traffic.
    pub fn enable_beacon(
        &mut self,
        collector: SocketAddr,
        interval_us: u64,
    ) -> std::io::Result<()> {
        self.beacon = Some(Beaconer::endpoint(
            self.core.telemetry().clone(),
            collector,
            interval_us,
        )?);
        Ok(())
    }

    /// Emit one beacon right now, regardless of pacing (harness flush at
    /// the end of a phase, so the collector sees the final counters).
    /// No-op unless [`MemEndpoint::enable_beacon`] was called.
    pub fn emit_beacon(&mut self) {
        let (counters, gauges) = (self.observability_counters(), self.observability_gauges());
        if let Some(b) = self.beacon.as_mut() {
            b.emit(counters, gauges);
        }
    }

    /// This endpoint's counts in the [`Counter`] schema, as every exporter
    /// ships them, read from the cells that count them: [`EndpointStats`]
    /// and the reassembler.
    pub fn observability_counters(&self) -> [u64; Counter::COUNT] {
        let s = self.stats();
        let r = self.core.reassembly();
        Counter::ALL.map(|c| match c {
            Counter::Sends => s.sent,
            Counter::Bounces => s.bounced,
            Counter::Retransmits => s.retransmitted,
            Counter::TimerRetransmits => s.timer_retransmits,
            Counter::ReAcks => s.duplicates,
            Counter::CorruptFrames => s.corrupt,
            Counter::DeadPeers => s.dead_peers,
            Counter::ReassemblyAborts => r.aborted_partials(),
            Counter::EvictedPartials => r.evicted_partials(),
            Counter::StaleAcks => s.stale_acks,
            Counter::SeqBufferMisuse => s.seq_buffer_misuse,
        })
    }

    /// The named gauge values a beacon exports for this endpoint beyond the counter schema: the
    /// [`EndpointStats::observability_pairs`], this layer's own
    /// [`Self::codec_errors`] and [`Self::large_handler_panics`], and, on
    /// a UDP wiring, every [`UdpStats`] field.
    pub fn observability_gauges(&self) -> Vec<(String, u64)> {
        let udp = self.udp_stats().map(|u| u.as_pairs());
        let own = [
            ("codec_errors", self.codec_errors),
            ("large_handler_panics", self.large_handler_panics),
        ];
        self.stats()
            .observability_pairs()
            .iter()
            .chain(&own)
            .chain(udp.iter().flatten())
            .map(|&(n, v)| (n.to_string(), v))
            .collect()
    }

    /// The switch topology this endpoint is wired into, when it is part of
    /// a [`crate::switched::SwitchedCluster`] (`None` for mesh and UDP
    /// wirings). Client layers use this to build topology-aware
    /// communication schedules — e.g. `fm-mpi` computes its collective
    /// spanning trees from it.
    pub fn topology(&self) -> Option<&Arc<SwitchTopology>> {
        self.wire.topology()
    }

    /// Number of peers (including self).
    pub fn cluster_size(&self) -> usize {
        self.wire.cluster()
    }

    /// Build one endpoint of a UDP cluster whose peers live in other OS
    /// processes (or other threads with their own sockets). `net.roster`
    /// fixes the cluster size and the peers' addresses; the hello exchange
    /// then confirms liveness and protocol version, and a peer that comes
    /// back with a new generation has its streams reset automatically (see
    /// [`Self::reset_peer`]). Forces [`TimeSource::WallMicros`].
    pub fn bind_udp(
        me: NodeId,
        net: UdpConfig,
        mut config: EndpointConfig,
    ) -> std::io::Result<MemEndpoint> {
        assert!(me.index() < net.roster.len(), "node id outside the roster");
        config.time_source = TimeSource::WallMicros;
        let link = UdpLink::bind(me, net)?;
        Ok(MemEndpoint::new(me, config, Wire::Udp(link)))
    }

    /// Decorate this endpoint's transmit path with seeded faults — what
    /// [`MemCluster::with_faulty_fabric`] does to every node, for
    /// endpoints built one at a time (e.g. [`Self::bind_udp`] across
    /// processes). Loopback UDP is too reliable to exercise the recovery
    /// machinery on its own; this puts the losses back.
    pub fn inject_faults(&mut self, faults: &FaultConfig) {
        let n = self.cluster_size();
        self.faults = Some(FaultInjector::new(self.node_id(), n, faults));
    }

    /// The local socket address, when this endpoint is wired over UDP.
    pub fn udp_local_addr(&self) -> Option<SocketAddr> {
        self.wire.udp().and_then(|link| link.local_addr().ok())
    }

    /// Wire-level UDP counters, when wired over UDP.
    pub fn udp_stats(&self) -> Option<UdpStats> {
        self.wire.udp().map(UdpLink::stats)
    }

    /// This incarnation's handshake generation, when wired over UDP.
    pub fn udp_generation(&self) -> Option<u32> {
        self.wire.udp().map(UdpLink::generation)
    }

    /// Whether the hello exchange with `peer` has completed, when wired
    /// over UDP.
    pub fn udp_established(&self, peer: NodeId) -> Option<bool> {
        self.wire.udp().map(|link| link.established(peer))
    }

    /// The last generation seen from `peer`, when wired over UDP and at
    /// least one handshake datagram has arrived from it.
    pub fn udp_peer_generation(&self, peer: NodeId) -> Option<u32> {
        self.wire.udp().and_then(|link| link.peer_generation(peer))
    }

    /// The adaptive round-trip estimator (meaningful when
    /// `EndpointConfig::adaptive_rto` is on).
    pub fn rtt(&self) -> RttEstimator {
        *self.core.rtt()
    }

    /// Wipe every stream toward `peer` and start over from sequence zero:
    /// in-window frames, backlog, deferred sends, partial reassemblies and
    /// the receive window are all discarded, and the dead mark (if any) is
    /// cleared. Called automatically when the UDP handshake observes the
    /// peer restart with a new generation; public for embedders running
    /// their own membership protocol, and the one way back from a peer
    /// declared dead: both ends reset, once the fabric holds none of the
    /// old streams' frames (see
    /// [`crate::endpoint::EndpointCore::reset_peer`]).
    pub fn reset_peer(&mut self, peer: NodeId) {
        self.core.reset_peer(peer);
        self.purge_peer(peer);
    }

    /// Aggregated wire-fabric counters across all peers (for a switched
    /// endpoint: its single uplink/downlink pair).
    pub fn fabric_stats(&self) -> FabricStats {
        self.wire.stats()
    }

    // ---- registration ----------------------------------------------------

    /// Register a frame handler (the `FM_send` / `FM_send_4` target).
    pub fn register_handler(
        &mut self,
        h: impl FnMut(&mut Outbox, NodeId, &[u8]) + Send + 'static,
    ) -> HandlerId {
        self.core.register_handler(Box::new(h))
    }

    /// Register a handler at a fixed id (ids must agree across nodes).
    ///
    /// # Panics
    /// On id 0, which is reserved for segmentation fragments.
    pub fn register_handler_at(
        &mut self,
        id: HandlerId,
        h: impl FnMut(&mut Outbox, NodeId, &[u8]) + Send + 'static,
    ) {
        self.core.register_handler_at(id, Box::new(h));
    }

    /// Unregister a frame handler. Returns whether a handler was installed
    /// at that id (never at id 0, which is reserved for fragments).
    pub fn unregister_handler(&mut self, id: HandlerId) -> bool {
        self.core.unregister_handler(id)
    }

    /// Register a large-message handler (the `send_large` target). Ids are
    /// a separate namespace from frame handlers.
    pub fn register_large_handler(
        &mut self,
        h: impl FnMut(&mut Outbox, NodeId, Vec<u8>) + Send + 'static,
    ) -> HandlerId {
        self.large_handlers.push(Some(Box::new(h)));
        HandlerId((self.large_handlers.len() - 1) as u16)
    }

    // ---- FM 1.0 calls ------------------------------------------------------

    /// `FM_send`: blocking send of up to 128 bytes. While the window is
    /// full this services the network (including delivering messages) so a
    /// pair of mutually-sending nodes cannot deadlock on window space.
    ///
    /// # Panics
    /// On [`SendError::TooLarge`] (use `send_large`) and on
    /// [`SendError::PeerUnreachable`] — a blocking send to a dead peer
    /// fails fast rather than spinning forever. Use [`Self::send_checked`]
    /// or [`Self::try_send`] where dead peers are an expected outcome.
    pub fn send(&mut self, dst: NodeId, handler: HandlerId, payload: &[u8]) {
        if let Err(e) = self.send_checked(dst, handler, payload) {
            panic!("FM_send: {e}");
        }
    }

    /// Blocking send that surfaces terminal failures instead of panicking:
    /// blocks through `WouldBlock`, returns `Err` on `TooLarge` or
    /// `PeerUnreachable` (including a peer declared dead *while* blocking).
    pub fn send_checked(
        &mut self,
        dst: NodeId,
        handler: HandlerId,
        payload: &[u8],
    ) -> Result<(), SendError> {
        self.send_blocking(|core| core.try_send(dst, handler, payload))
    }

    /// `FM_send_4`: blocking four-word send.
    pub fn send_4(&mut self, dst: NodeId, handler: HandlerId, words: [u32; 4]) {
        let mut buf = [0u8; 16];
        for (i, w) in words.iter().enumerate() {
            buf[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        self.send(dst, handler, &buf);
    }

    /// Vectored send: gather `parts` into one frame (blocking). See
    /// [`crate::endpoint::EndpointCore::try_send_gather`].
    ///
    /// # Panics
    /// As [`Self::send`]; parts totalling more than one frame need
    /// [`Self::send_large`].
    pub fn send_gather(&mut self, dst: NodeId, handler: HandlerId, parts: &[&[u8]]) {
        if let Err(e) = self.send_blocking(|core| core.try_send_gather(dst, handler, parts)) {
            panic!("FM_send (gather): {e}");
        }
    }

    /// Non-blocking send; `Err(WouldBlock)` when the window is full.
    pub fn try_send(
        &mut self,
        dst: NodeId,
        handler: HandlerId,
        payload: &[u8],
    ) -> Result<(), SendError> {
        let r = self.core.try_send(dst, handler, payload);
        if r.is_ok() {
            self.flush_wire();
        }
        r
    }

    /// `FM_extract`: process received messages; returns handlers invoked
    /// (large-message completions count as one each).
    pub fn extract(&mut self) -> usize {
        self.extract_budget(usize::MAX)
    }

    /// `FM_extract` with a delivery budget.
    ///
    /// A quiet port costs O(1): when nothing arrived and nothing is queued
    /// on either side of the wire seam — no backlog, no deferred send, no
    /// delayed fault frame, and nothing the core could act on at this tick
    /// (`EndpointCore::extract_idle`) — the call moves the clock, paces
    /// the beacon and returns 0, leaving exactly the state the full call
    /// would have left.
    pub fn extract_budget(&mut self, max: usize) -> usize {
        let arrived = self.pump_wire();
        if !arrived
            && self.backlog.is_empty()
            && self.deferred.is_empty()
            && self.faults.as_ref().is_none_or(FaultInjector::idle)
            && self.core.extract_idle(max)
        {
            self.pace_beacon();
            return 0;
        }
        let n = self.core.extract(max);
        self.reap_dead_peers();
        self.flush_deferred();
        self.flush_wire();
        self.pace_beacon();
        // Only a delivered fragment can complete a large message.
        let large = if n > 0 { self.dispatch_large() } else { 0 };
        // Extract flushed both send queues just before; only a large
        // handler's sends or a backlogged frame could get out now.
        if large > 0 || !self.backlog.is_empty() {
            self.flush_deferred();
            self.flush_wire();
        }
        n + large
    }

    /// Segmentation extension: send a message of any size (fragments ride
    /// ordinary FM frames through the reserved handler 0, each gathered
    /// from its subheader and its slice of `data` straight into its window
    /// slot).
    ///
    /// Blocking: messages larger than `window x 114` bytes need the
    /// receiver to be extracting concurrently (its own thread), because
    /// the window only reopens as the receiver acknowledges fragments —
    /// the same discipline real FM imposed on its hosts.
    /// Returns `Err(PeerUnreachable)` if `dst` is (or becomes) dead;
    /// fragments already sent are abandoned and the receiver's partial
    /// reassembly is aborted by its own dead-peer handling.
    pub fn send_large(
        &mut self,
        dst: NodeId,
        large_handler: HandlerId,
        data: &[u8],
    ) -> Result<(), SendError> {
        let msg_id = self.next_msg_id;
        self.next_msg_id = self.next_msg_id.wrapping_add(1);
        let mut result = Ok(());
        seg::fragment_each(msg_id, large_handler, data, |parts| {
            // Once the peer has died mid-message the remaining fragments
            // are skipped.
            if result.is_ok() {
                result = self.send_blocking(|core| core.try_send_gather(dst, SEG_HANDLER, &parts));
            }
        });
        result
    }

    /// Service the network: pull frames off the wire, deliver anything
    /// pending, let the protocol retransmit/ack, push frames out — one
    /// unbudgeted [`Self::extract`] round. A blocked *sender* must still
    /// deliver incoming messages, or two nodes sending to each other
    /// through full windows would deadlock; called internally whenever a
    /// blocking send waits for window space.
    pub fn service(&mut self) {
        self.extract();
    }

    /// True when this endpoint holds no in-flight protocol state.
    pub fn is_quiescent(&self) -> bool {
        self.core.is_quiescent()
            && self.backlog.is_empty()
            && self.deferred.is_empty()
            && self.faults.as_ref().is_none_or(|f| f.idle())
    }

    /// Out-of-order frames parked in the receive sequence windows.
    pub fn recv_buffered(&self) -> usize {
        self.core.recv_buffered()
    }

    /// True when `peer` has been declared dead (retry budget exhausted).
    pub fn is_peer_dead(&self, peer: NodeId) -> bool {
        self.core.is_dead(peer)
    }

    /// Fault-injection counters, when this endpoint's transmit path has an
    /// injector attached (see [`MemCluster::with_faulty_fabric`]).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// Recorded fault events (most recent first ones retained), when an
    /// injector is attached.
    pub fn fault_events(&self) -> Option<impl Iterator<Item = &FaultEvent>> {
        self.faults.as_ref().map(|f| f.events())
    }

    /// Messages outstanding in the send window.
    pub fn outstanding(&self) -> usize {
        self.core.outstanding()
    }

    /// Frames waiting in the receive ring, not yet extracted.
    pub fn ring_len(&self) -> usize {
        self.core.pending_extract()
    }

    /// Reassembly statistics: (fragments seen, messages completed).
    pub fn reassembly_stats(&self) -> (u64, u64) {
        let r = self.core.reassembly();
        (r.fragments(), r.completed())
    }

    // ---- internals ---------------------------------------------------------

    /// Offer `attempt` to the protocol core until it stops answering
    /// `WouldBlock`, servicing the network between tries so the window can
    /// reopen; then put what it queued on the wire. Every blocking send is
    /// this loop around a different `EndpointCore` call.
    fn send_blocking(
        &mut self,
        mut attempt: impl FnMut(&mut EndpointCore) -> Result<(), SendError>,
    ) -> Result<(), SendError> {
        loop {
            match attempt(&mut self.core) {
                Err(SendError::WouldBlock) => {
                    self.service();
                    std::thread::yield_now();
                }
                done => {
                    self.flush_wire();
                    return done;
                }
            }
        }
    }

    /// Out-of-band beacon pacing: `due()` is a counter mask plus one
    /// Instant read every 64 calls, so the hot path stays unburdened.
    fn pace_beacon(&mut self) {
        if self.beacon.as_mut().is_some_and(|b| b.due()) {
            self.emit_beacon();
        }
    }

    /// Drain the wire into the protocol core, then reset the peers the UDP
    /// handshake flagged as restarted (never on in-memory fabrics).
    /// Returns whether any frame arrived.
    fn pump_wire(&mut self) -> bool {
        let me = self.core.id();
        let cluster = self.wire.cluster();
        let mut arrived = false;
        let Self {
            wire,
            core,
            codec_errors,
            ..
        } = self;
        // CRC failures are expected under fault injection and are counted
        // on the endpoint (the retransmission timer recovers the frame).
        // Structural decode failures mean a codec bug or a stray datagram
        // and keep their own counter — as does a well-formed frame that is
        // not a peer's frame for this node (misaddressed, or from a source
        // outside the cluster), which the core, indexing per-source state
        // by `src`, must never see.
        let restarted = wire.drain(core, |core, bytes| {
            arrived = true;
            match FrameHeader::parse(bytes) {
                Ok((head, payload))
                    if head.dst == me && head.src != me && head.src.index() < cluster =>
                {
                    core.on_frame(&head, payload)
                }
                Err(CodecError::BadCrc { .. }) => core.note_corrupt(),
                _ => *codec_errors += 1,
            }
        });
        for peer in restarted {
            self.reset_peer(peer);
        }
        arrived
    }

    fn flush_wire(&mut self) {
        // Re-offer frames an earlier flush found a full ring for (their
        // fault fate, if any, was decided on first emission). Rotation can
        // reorder frames to one destination, which FM permits (Table 3:
        // delivery guaranteed, ordering not) and the receive sequence
        // window now repairs.
        for _ in 0..self.backlog.len() {
            if let Some(of) = self.backlog.pop_front() {
                Self::offer(&mut self.wire, &mut self.backlog, of);
            }
        }
        let now = self.core.now();
        let Self {
            core,
            wire,
            backlog,
            faults,
            ..
        } = self;
        let Some(inj) = faults else {
            return Self::emit(core, wire, backlog, |_, _, _, _| true);
        };
        // Frames whose injected delay ran out leave before new traffic.
        inj.release_due(now, |of| Self::offer(wire, backlog, of));
        Self::emit(core, wire, backlog, |head, payload, wire, backlog| {
            let fate = inj.decide(head.dst, now);
            if let Fate::Harmed(harm) = fate {
                let frame = WireFrame::from_parts(*head, payload);
                inj.apply(frame, harm, now, |of| Self::offer(wire, backlog, of));
            }
            fate == Fate::Pass
        });
    }

    /// Put everything the protocol core queued on the wire. A frame the
    /// fault `stage` passes (every frame, on a clean wire) is encoded from
    /// where the core holds it straight into the wire; an owned copy is
    /// made only for a frame the wire has no room for. Generic in `stage`,
    /// so a clean endpoint's copy of this loop has no fault branch at all.
    fn emit(
        core: &mut EndpointCore,
        wire: &mut Wire,
        backlog: &mut VecDeque<OutboundFrame>,
        mut stage: impl FnMut(&FrameHeader, &[u8], &mut Wire, &mut VecDeque<OutboundFrame>) -> bool,
    ) {
        while core.emit_outgoing(|head, payload| {
            if stage(head, payload, wire, backlog)
                && !wire.push(head.dst.index(), |slot| head.encode_into(payload, slot))
            {
                backlog.push_back(OutboundFrame::clean(WireFrame::from_parts(*head, payload)));
            }
        }) {}
    }

    /// Put one parked frame (fault stage, backlog) on the wire toward its
    /// destination: the one place a decided bit corruption is applied to
    /// the encoded image. A frame the wire has no room for joins the back
    /// of `backlog`; one whose destination is outside the cluster is
    /// dropped (undeliverable either way).
    fn offer(wire: &mut Wire, backlog: &mut VecDeque<OutboundFrame>, of: OutboundFrame) {
        let sent = wire.push(of.frame.head.dst.index(), |slot| {
            let n = of.frame.encode_into(slot);
            if let Some(bit) = of.corrupt_bit {
                flip_bit(&mut slot[..n], bit);
            }
            n
        });
        if !sent {
            backlog.push_back(of);
        }
    }

    /// Purge this layer's state tied to `peer`: backlogged frames and
    /// deferred sends to it (the core aborts its partial large message).
    fn purge_peer(&mut self, peer: NodeId) {
        self.backlog.retain(|of| of.frame.head.dst != peer);
        self.deferred.retain(|(dst, _, _)| *dst != peer);
    }

    /// Purge the peers the protocol core just declared dead, so a stalled
    /// peer cannot wedge quiescence forever.
    fn reap_dead_peers(&mut self) {
        for peer in self.core.take_newly_dead() {
            self.purge_peer(peer);
        }
    }

    /// Offer queued large-handler sends to the core, oldest first, until
    /// the window fills.
    fn flush_deferred(&mut self) {
        while let Some((dst, handler, payload)) = self.deferred.pop_front() {
            // Dead peer or oversize: the send is dropped, the node carries
            // on (reap_dead_peers purges the rest).
            if let Err(SendError::WouldBlock) = self.core.try_send(dst, handler, &payload) {
                self.deferred.push_front((dst, handler, payload));
                break;
            }
        }
    }

    /// Run the large handler of every reassembled message, queueing what
    /// they send; returns how many ran.
    fn dispatch_large(&mut self) -> usize {
        let mut n = 0;
        while let Some((src, handler_id, msg)) = self.core.take_large() {
            let idx = handler_id.0 as usize;
            let Some(slot) = self.large_handlers.get_mut(idx) else {
                continue;
            };
            let Some(mut h) = slot.take() else {
                continue;
            };
            let mut outbox = Outbox::new(self.core.id());
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h(&mut outbox, src, msg)));
            if outcome.is_err() {
                // Poisoned handler: drop it and whatever it queued; the
                // node keeps running (mirrors EndpointCore's frame-handler
                // panic tolerance).
                self.large_handler_panics += 1;
                continue;
            }
            self.large_handlers[idx] = Some(h);
            n += 1;
            self.deferred.extend(outbox.drain());
        }
        n
    }
}

impl std::fmt::Debug for MemEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemEndpoint")
            .field("core", &self.core)
            .field("backlog", &self.backlog.len())
            .field("deferred", &self.deferred.len())
            .field("faults", &self.faults)
            .finish()
    }
}

/// Why [`ClusterRunner::shutdown`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownError {
    /// The node's service thread did not finish within the timeout.
    Timeout { node: NodeId },
    /// The node's service thread panicked.
    Panicked { node: NodeId },
}

impl std::fmt::Display for ShutdownError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShutdownError::Timeout { node } => {
                write!(f, "node {} did not shut down within the timeout", node.0)
            }
            ShutdownError::Panicked { node } => {
                write!(f, "node {}'s service thread panicked", node.0)
            }
        }
    }
}

impl std::error::Error for ShutdownError {}

/// Runs one service-loop thread per endpoint, with clean shutdown.
///
/// Each thread spins `extract()` until asked to stop, then performs a few
/// drain rounds so in-flight acks land before the endpoint is returned.
/// [`ClusterRunner::shutdown`] bounds how long it will wait for the
/// threads to join; dropping the runner stops the threads and detaches
/// from any that refuse to die rather than blocking forever.
pub struct ClusterRunner {
    stop: Arc<AtomicBool>,
    handles: Vec<(NodeId, std::thread::JoinHandle<MemEndpoint>)>,
}

impl ClusterRunner {
    /// Spawn one service thread per endpoint. Register all handlers and
    /// queue any kick-off sends *before* calling this — the endpoints move
    /// into their threads.
    pub fn start(nodes: Vec<MemEndpoint>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = nodes
            .into_iter()
            .map(|mut ep| {
                let stop = stop.clone();
                let id = ep.node_id();
                let handle = std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        ep.extract();
                        std::thread::yield_now();
                    }
                    // Final drain: let trailing acks/retransmissions land so
                    // peers can quiesce even when traffic was in flight at
                    // the moment of shutdown.
                    for _ in 0..8 {
                        ep.extract();
                        std::thread::yield_now();
                    }
                    ep
                });
                (id, handle)
            })
            .collect();
        ClusterRunner { stop, handles }
    }

    /// Signal every service thread to stop and join them, waiting at most
    /// `timeout` overall. Returns the endpoints (in node order) so callers
    /// can inspect final stats. On timeout the unjoined threads are left
    /// detached — they hold only their endpoint, which is dropped when the
    /// thread eventually exits.
    pub fn shutdown(mut self, timeout: Duration) -> Result<Vec<MemEndpoint>, ShutdownError> {
        self.stop.store(true, Ordering::SeqCst);
        join_within(self.handles.drain(..), timeout)
    }
}

/// Join `handles` in order, waiting at most `timeout` overall; handles not
/// yet joined when the deadline passes (or a thread turns out to have
/// panicked) are dropped, which detaches their threads.
pub(crate) fn join_within<T>(
    handles: impl Iterator<Item = (NodeId, std::thread::JoinHandle<T>)>,
    timeout: Duration,
) -> Result<Vec<T>, ShutdownError> {
    let deadline = Instant::now() + timeout;
    let mut out = Vec::new();
    for (node, handle) in handles {
        while !handle.is_finished() {
            if Instant::now() >= deadline {
                return Err(ShutdownError::Timeout { node });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        out.push(
            handle
                .join()
                .map_err(|_| ShutdownError::Panicked { node })?,
        );
    }
    Ok(out)
}

impl Drop for ClusterRunner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for (_, handle) in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn two_node_roundtrip_same_thread() {
        let mut nodes = MemCluster::new(2);
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        let got = Arc::new(AtomicU64::new(0));
        let g = got.clone();
        let h = b.register_handler(move |_, src, data| {
            assert_eq!(src, NodeId(0));
            g.fetch_add(data[0] as u64, Ordering::SeqCst);
        });
        a.send(NodeId(1), h, &[21]);
        a.send(NodeId(1), h, &[21]);
        while b.extract() > 0 {}
        assert_eq!(got.load(Ordering::SeqCst), 42);
        // Acks return; both sides quiesce.
        a.extract();
        b.extract();
        a.extract();
        assert!(a.is_quiescent(), "{a:?}");
        assert!(b.is_quiescent(), "{b:?}");
    }

    /// Everything an extract could change but the clock, for
    /// [`a_quiet_extract_moves_only_the_clock`].
    fn observable(ep: &MemEndpoint) -> impl PartialEq + std::fmt::Debug {
        (
            ep.stats(),
            ep.observability_counters(),
            ep.telemetry().events_recorded(),
            ep.ring_len(),
            ep.backlog.len(),
            ep.outstanding(),
            ep.recv_buffered(),
            ep.fabric_stats(),
        )
    }

    #[test]
    fn a_quiet_extract_moves_only_the_clock() {
        const N: u64 = 1000;
        let topo = SwitchTopology::single(8, 8);
        let mut cluster = crate::switched::SwitchedCluster::new(&topo, EndpointConfig::default());
        let h = HandlerId(1);
        cluster.endpoints[0].register_handler_at(h, |_, _, _| {});
        for src in 1..8 {
            for k in 0..4u8 {
                cluster.endpoints[src].try_send(NodeId(0), h, &[k]).unwrap();
            }
        }
        while cluster.drive_round() > 0 {}
        let quiet = |c: &crate::switched::SwitchedCluster| {
            c.endpoints.iter().all(MemEndpoint::is_quiescent)
        };
        assert!(quiet(&cluster), "{:?}", cluster.endpoints);
        assert_eq!(cluster.endpoints[0].stats().delivered, 28);
        // The receiver has heard all seven sources and the senders have
        // been acked: a settled switched cluster.
        for ep in &mut cluster.endpoints {
            let (before, t0) = (observable(ep), ep.now());
            for _ in 0..N {
                assert_eq!(ep.extract(), 0);
            }
            assert_eq!(observable(ep), before, "node {}", ep.node_id().0);
            assert_eq!(ep.now(), t0 + N, "one tick per extract");
            assert!(ep.core.extract_idle(usize::MAX), "the quiet path ran");
        }
        // A sender whose window is full and whose receiver has stopped
        // extracting hears nothing either: its extracts move the clock
        // until the retransmission timer falls due, and not past it.
        let rto = EndpointConfig::default().rto_initial;
        let sender = &mut cluster.endpoints[1];
        while sender.try_send(NodeId(0), h, &[0]).is_ok() {}
        let (before, t0) = (observable(sender), sender.now());
        for _ in 1..rto {
            assert_eq!(sender.extract(), 0);
        }
        assert_eq!(observable(sender), before);
        assert_eq!(sender.now(), t0 + rto - 1);
        sender.extract();
        assert!(sender.stats().timer_retransmits > 0, "{sender:?}");
    }

    #[test]
    fn send_gather_assembles_frames() {
        let mut nodes = MemCluster::new(2);
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        let h = b.register_handler(move |_, _, data| g.lock().push(data.to_vec()));
        a.send_gather(NodeId(1), h, &[&b"seq="[..], &7u32.to_le_bytes(), b";"]);
        while b.extract() == 0 {}
        let msgs = got.lock();
        assert_eq!(msgs.len(), 1);
        assert_eq!(&msgs[0][..4], b"seq=");
        assert_eq!(&msgs[0][8..], b";");
    }

    #[test]
    fn two_threads_pingpong() {
        let mut nodes = MemCluster::new(2);
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        const ROUNDS: u64 = 200;

        // Node b echoes every message back to handler 1 on the source.
        let hb = b.register_handler(move |out, src, data| {
            out.send(src, HandlerId(1), data.to_vec());
        });
        let done = Arc::new(AtomicU64::new(0));
        let d2 = done.clone();
        let ha = a.register_handler(move |_, _, _| {
            d2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ha, HandlerId(1));

        let tb = std::thread::spawn(move || {
            let mut served = 0u64;
            while served < ROUNDS {
                served += b.extract() as u64;
                std::thread::yield_now();
            }
            b
        });
        for i in 0..ROUNDS {
            a.send(NodeId(1), hb, &(i as u32).to_le_bytes());
            while done.load(Ordering::SeqCst) <= i {
                a.extract();
                std::thread::yield_now();
            }
        }
        let _b = tb.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), ROUNDS);
        assert_eq!(a.stats().sent, ROUNDS);
        assert_eq!(a.stats().delivered, ROUNDS);
    }

    #[test]
    fn large_message_reassembles_across_threads() {
        let mut nodes = MemCluster::new(2);
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i * 7) as u8).collect();
        let expect = payload.clone();
        let got = Arc::new(AtomicU64::new(0));
        let g2 = got.clone();
        let lh = b.register_large_handler(move |_, src, msg| {
            assert_eq!(src, NodeId(0));
            assert_eq!(msg, expect);
            g2.store(1, Ordering::SeqCst);
        });
        let tb = std::thread::spawn(move || {
            // Fragments trickle in while the sender's blocking loop runs;
            // keep extracting until the *message* completes.
            while b.reassembly_stats().1 == 0 {
                b.extract();
                std::thread::yield_now();
            }
            b
        });
        a.send_large(NodeId(1), lh, &payload).expect("peer alive");
        let b = tb.join().unwrap();
        assert_eq!(got.load(Ordering::SeqCst), 1);
        let (frags, completed) = b.reassembly_stats();
        assert_eq!(completed, 1);
        assert_eq!(frags as usize, payload.len().div_ceil(seg::FRAG_DATA));
    }

    #[test]
    fn blocking_send_survives_tiny_window() {
        let mut nodes = MemCluster::with_config(
            2,
            EndpointConfig {
                window: 2,
                recv_ring: 4,
                ..Default::default()
            },
        );
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let c2 = count.clone();
        let h = b.register_handler(move |_, _, _| {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        let tb = std::thread::spawn(move || {
            while count.load(Ordering::SeqCst) < 100 {
                b.extract();
                std::thread::yield_now();
            }
            b
        });
        for i in 0..100u32 {
            // Blocking send: must make progress despite window=2.
            a.send(NodeId(1), h, &i.to_le_bytes());
        }
        let b = tb.join().unwrap();
        assert_eq!(b.stats().delivered, 100);
    }

    #[test]
    fn beacons_keep_flowing_while_a_sender_blocks() {
        // Window 1 against a peer that is not extracting: the second send
        // blocks, which is exactly when a collector most needs to hear from
        // this endpoint. The retry budget keeps the idle peer from being
        // declared dead (ending the block) while the collector listens.
        let mut nodes = MemCluster::with_config(
            2,
            EndpointConfig {
                window: 1,
                time_source: TimeSource::WallMicros,
                retry_budget: 10_000,
                ..Default::default()
            },
        );
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        let h = b.register_handler(|_, _, _| {});
        let collector = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        collector
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        a.enable_beacon(collector.local_addr().unwrap(), 1_000)
            .unwrap();
        a.try_send(NodeId(1), h, &[1]).unwrap();
        let sender = std::thread::spawn(move || a.send_checked(NodeId(1), h, &[2]));
        let mut buf = [0u8; fm_telemetry::beacon::MAX_BEACON_BYTES];
        for _ in 0..3 {
            let n = collector
                .recv(&mut buf)
                .expect("a blocked sender keeps beaconing");
            fm_telemetry::beacon::decode(&buf[..n]).expect("valid beacon");
        }
        while !sender.is_finished() {
            b.extract();
            std::thread::yield_now();
        }
        sender.join().unwrap().expect("peer alive once it extracts");
    }

    #[test]
    fn overload_bounces_then_everything_delivers() {
        // Receiver with a 4-frame ring that extracts slowly while the
        // sender pushes 64 frames: rejections and retransmissions must
        // occur, and every frame must still be delivered exactly once.
        let mut nodes = MemCluster::with_config(
            2,
            EndpointConfig {
                window: 64,
                recv_ring: 4,
                retransmit_per_extract: 4,
                ..Default::default()
            },
        );
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let s2 = seen.clone();
        let h = b.register_handler(move |_, _, data| {
            let v = u32::from_le_bytes(data.try_into().unwrap());
            assert!(s2.lock().insert(v), "duplicate delivery of {v}");
        });
        for i in 0..64u32 {
            a.try_send(NodeId(1), h, &i.to_le_bytes()).unwrap();
        }
        let mut guard = 0;
        while seen.lock().len() < 64 {
            b.extract_budget(2); // slow consumer
            a.service(); // retransmit bounced frames
            guard += 1;
            assert!(guard < 10_000, "stuck: {:?} {:?}", a, b);
        }
        assert!(b.stats().rejected > 0, "overload must cause rejections");
        assert!(a.stats().retransmitted > 0);
        assert_eq!(seen.lock().len(), 64);
    }

    #[test]
    fn tiny_wire_ring_backlogs_and_recovers() {
        // wire_ring=1 forces the producer into the backlog constantly: the
        // one path on which a frame leaves its window slot as an owned
        // copy. Every frame must still arrive exactly once, in order.
        let mut nodes = MemCluster::with_config(
            2,
            EndpointConfig {
                wire_ring: 1,
                ..Default::default()
            },
        );
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        let h = b.register_handler(move |_, _, data| {
            let v = u32::from_le_bytes(data.try_into().unwrap());
            assert_eq!(
                v as u64,
                s2.fetch_add(1, Ordering::SeqCst),
                "in order, once"
            );
        });
        // Queue a burst without letting the receiver drain: everything past
        // the first frame must bounce off the 1-slot ring into the backlog.
        for i in 0..32u32 {
            a.try_send(NodeId(1), h, &i.to_le_bytes()).unwrap();
        }
        let mut rounds = 0;
        while seen.load(Ordering::SeqCst) < 32 {
            b.extract();
            a.service();
            rounds += 1;
            assert!(rounds < 10_000, "stuck: {a:?} {b:?}");
        }
        // Counted, not timed: the refusals the by-value engine (every frame
        // an owned copy) made on this schedule. Parking a copy only when
        // the ring is full must re-offer exactly as often.
        assert_eq!((rounds, a.fabric_stats().full), (32, 1426));
        assert_eq!(b.fabric_stats().polled, 32);
    }

    /// Drain `ep`'s rings into its core as `extract` would, keeping a copy
    /// of every wire image in arrival order.
    fn pump_recording(ep: &mut MemEndpoint, images: &mut Vec<Vec<u8>>) {
        let Wire::Mesh { rx, .. } = &mut ep.wire else {
            unreachable!("a ring-mesh endpoint");
        };
        let start = images.len();
        for ring in rx.iter_mut().flatten() {
            while ring.poll_batch(32, |bytes| images.push(bytes.to_vec())) > 0 {}
        }
        for bytes in &images[start..] {
            let (head, payload) = FrameHeader::parse(bytes).expect("a clean frame");
            ep.core.on_frame(&head, payload);
        }
    }

    #[test]
    fn a_zero_rate_injector_puts_the_clean_images_on_the_wire_in_order() {
        // A 4-slot wire ring sends some frames of each burst through the
        // backlog; the echo puts data frames with piggybacked acks on the
        // way back.
        let images = |faults: Option<FaultConfig>| {
            let config = EndpointConfig {
                wire_ring: 4,
                ..Default::default()
            };
            let mut nodes = match faults {
                Some(f) => MemCluster::with_faulty_fabric(2, config, FabricKind::Ring, f),
                None => MemCluster::with_config(2, config),
            };
            let mut b = nodes.pop().unwrap();
            let mut a = nodes.pop().unwrap();
            b.register_handler_at(HandlerId(1), |out, src, data| {
                if data[0] % 3 == 0 {
                    out.send(src, HandlerId(2), data.to_vec());
                }
            });
            a.register_handler_at(HandlerId(2), |_, _, _| {});
            let mut log = Vec::new();
            let mut sent = 0u32;
            let mut rounds = 0;
            while sent < 512 || !(a.is_quiescent() && b.is_quiescent()) {
                while sent < 512
                    && a.try_send(NodeId(1), HandlerId(1), &sent.to_le_bytes())
                        .is_ok()
                {
                    sent += 1;
                }
                for ep in [&mut b, &mut a] {
                    pump_recording(ep, &mut log);
                    ep.extract();
                }
                rounds += 1;
                assert!(rounds < 10_000, "stuck: {a:?} {b:?}");
            }
            assert!(a.fabric_stats().full > 0, "the backlog path must be taken");
            log
        };
        let clean = images(None);
        assert!(clean.len() > 512);
        assert!(clean == images(Some(FaultConfig::new(7))));
    }

    #[test]
    fn fabric_stats_show_batched_drain() {
        let mut nodes = MemCluster::new(2);
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        let h = b.register_handler(|_, _, _| {});
        for i in 0..16u32 {
            a.try_send(NodeId(1), h, &i.to_le_bytes()).unwrap();
        }
        b.extract();
        let s = b.fabric_stats();
        assert_eq!(s.polled, 16);
        assert!(
            s.batches < s.polled,
            "16 queued frames must drain in fewer than 16 batches: {s:?}"
        );
    }

    #[test]
    #[should_panic(expected = "wire_ring must be >= 1")]
    fn zero_wire_ring_rejected() {
        MemCluster::with_config(
            2,
            EndpointConfig {
                wire_ring: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "window must be >= 1")]
    fn zero_window_rejected() {
        MemCluster::with_config(
            2,
            EndpointConfig {
                window: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "recv_ring must be >= 1")]
    fn zero_recv_ring_rejected() {
        MemCluster::with_config(
            2,
            EndpointConfig {
                recv_ring: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    fn ring_of_five_nodes_token_pass() {
        let nodes = MemCluster::new(5);
        let n = nodes.len();
        let counter = Arc::new(AtomicU64::new(0));
        const LAPS: u64 = 20;

        let handles: Vec<_> = nodes
            .into_iter()
            .map(|mut ep| {
                let counter = counter.clone();
                std::thread::spawn(move || {
                    let me = ep.node_id();
                    let next = NodeId(((me.0 as usize + 1) % n) as u16);
                    let c2 = counter.clone();
                    ep.register_handler_at(HandlerId(1), move |out, _src, data| {
                        let hops = u64::from_le_bytes(data.try_into().unwrap());
                        c2.store(hops, Ordering::SeqCst);
                        if hops < LAPS * n as u64 {
                            out.send(next, HandlerId(1), (hops + 1).to_le_bytes().to_vec());
                        }
                    });
                    if me.0 == 0 {
                        ep.send(next, HandlerId(1), &1u64.to_le_bytes());
                    }
                    while counter.load(Ordering::SeqCst) < LAPS * n as u64 {
                        ep.extract();
                        std::thread::yield_now();
                    }
                    // Drain trailing acks so peers can quiesce.
                    for _ in 0..10 {
                        ep.extract();
                        std::thread::yield_now();
                    }
                    ep.stats()
                })
            })
            .collect();
        let stats: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(counter.load(Ordering::SeqCst), LAPS * n as u64);
        let total_delivered: u64 = stats.iter().map(|s| s.delivered).sum();
        assert_eq!(total_delivered, LAPS * n as u64);
    }
}
