//! The communicator: ranks, blocking send/recv, and cluster construction
//! over both the pairwise mesh and the switch-routed fabric.

use fm_core::endpoint::EndpointConfig;
use fm_core::mem::{MemCluster, MemEndpoint};
use fm_core::{
    FaultConfig, HandlerId, NodeId, SwitchConfig, SwitchRunner, SwitchTopology, SwitchedCluster,
    TimeSource, FM_FRAME_PAYLOAD,
};
use parking_lot::Mutex;
use std::sync::Arc;

use crate::collectives::{Kind, N_COLL_KINDS};
use crate::matching::{Envelope, MatchQueue, ENVELOPE_BYTES};
use crate::{Rank, Tag};

/// The frame handler every rank registers first: a message whose envelope
/// and data fit one FM frame (the eager path) is sent straight to it.
const EAGER_HANDLER: HandlerId = HandlerId(1);
/// The large handler every rank registers first: a message that does not
/// fit one frame goes through the segmentation extension to it.
const SEGMENTED_HANDLER: HandlerId = HandlerId(0);

/// Reduction operators over `f64` vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Prod,
    Min,
    Max,
}

impl ReduceOp {
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    /// The operator's identity element.
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Prod => 1.0,
            ReduceOp::Min => f64::INFINITY,
            ReduceOp::Max => f64::NEG_INFINITY,
        }
    }
}

/// Builds a set of communicators sharing one in-memory FM cluster —
/// either the O(n²) pairwise mesh ([`MpiCluster::new`]) or the
/// switch-routed fabric ([`MpiCluster::switched`] /
/// [`MpiCluster::switched_wide`]), where every rank has one uplink into a
/// real [`SwitchedCluster`] and the collectives shape themselves to the
/// switch topology.
pub struct MpiCluster;

impl MpiCluster {
    /// `n` ranks with a generously sized FM window (collectives fan out).
    #[allow(clippy::new_ret_no_self)] // a builder: "cluster" = the rank set
    pub fn new(n: usize) -> Vec<Communicator> {
        Self::with_config(n, Self::default_config())
    }

    pub fn with_config(n: usize, config: EndpointConfig) -> Vec<Communicator> {
        assert!(n >= 1);
        MemCluster::with_config(n, config)
            .into_iter()
            .map(|ep| Communicator::new(ep, n))
            .collect()
    }

    /// `n` ranks over the standard tree wiring for the cluster size
    /// ([`SwitchTopology::for_cluster`]: one 8-port switch while the hosts
    /// fit, a chain of 6-host switches beyond). The switch shards run on
    /// their own threads; they stop when the last communicator drops.
    pub fn switched(n: usize) -> Vec<Communicator> {
        Self::switched_over(
            &SwitchTopology::for_cluster(n),
            Self::default_config(),
            SwitchConfig::default(),
        )
    }

    /// `n` ranks over the multi-path wiring
    /// ([`SwitchTopology::for_cluster_wide`]: a two-level fat tree past 8
    /// hosts), so cross-switch collective traffic ECMP-spreads over the
    /// spine layer.
    pub fn switched_wide(n: usize) -> Vec<Communicator> {
        Self::switched_over(
            &SwitchTopology::for_cluster_wide(n),
            Self::default_config(),
            SwitchConfig::default(),
        )
    }

    /// Ranks over an explicit topology with explicit endpoint and switch
    /// sizing — the general switched constructor.
    pub fn switched_over(
        topo: &SwitchTopology,
        config: EndpointConfig,
        switch: SwitchConfig,
    ) -> Vec<Communicator> {
        Self::wire_switched(SwitchedCluster::with_switch_config(
            topo,
            Self::threaded_time(config),
            switch,
        ))
    }

    /// Like [`MpiCluster::switched_over`] with a seeded fault injector on
    /// every endpoint's transmit path — the collectives-under-loss soak
    /// harness.
    pub fn switched_with_faults(
        topo: &SwitchTopology,
        config: EndpointConfig,
        faults: FaultConfig,
    ) -> Vec<Communicator> {
        Self::wire_switched(SwitchedCluster::with_faults(
            topo,
            Self::threaded_time(config),
            faults,
        ))
    }

    /// Like [`MpiCluster::switched_over`], but also returns the shared
    /// [`SwitchRunner`] handle. Once every communicator (and its clone of
    /// the handle) has been dropped, `Arc::try_unwrap` yields the runner
    /// and [`SwitchRunner::shutdown`] returns the shards with their
    /// forwarding counters — how `bench_mpi` reads per-link frame counts
    /// back out of a finished collective run.
    pub fn switched_instrumented(
        topo: &SwitchTopology,
        config: EndpointConfig,
        switch: SwitchConfig,
    ) -> (Vec<Communicator>, Arc<SwitchRunner>) {
        let cluster =
            SwitchedCluster::with_switch_config(topo, Self::threaded_time(config), switch);
        let comms = Self::wire_switched(cluster);
        let fabric = comms[0]
            .fabric
            .clone()
            .expect("switched comms carry the runner");
        (comms, fabric)
    }

    /// Switched MPI ranks run on their own threads and block in spinning
    /// extract loops. Under [`TimeSource::VirtualTick`] (one tick per
    /// `extract` call) a waiting rank burns through its retransmission
    /// timeout in microseconds of wall time and floods the fabric with
    /// spurious duplicates — a storm that under injected loss can crowd
    /// out real progress entirely. Deadlines must mean wall time here,
    /// with the RTT estimator adapting the timeout to the fabric's real
    /// round-trip (the same policy the UDP wiring hard-codes).
    fn threaded_time(config: EndpointConfig) -> EndpointConfig {
        EndpointConfig {
            time_source: TimeSource::WallMicros,
            adaptive_rto: true,
            ..config
        }
    }

    fn default_config() -> EndpointConfig {
        EndpointConfig {
            window: 256,
            recv_ring: 1024,
            ..Default::default()
        }
    }

    /// Turn a built switched cluster into communicators. Ordering is the
    /// PR-7 lesson made structural: every rank's MPI handler registers
    /// (inside [`Communicator::new`]) *before* the switch shards start
    /// forwarding, so an eager sender's first data frame can never reach
    /// an endpoint whose handler table is still empty — it would be
    /// consumed, acked, and lost (an exactly-once violation the sender
    /// cannot detect).
    fn wire_switched(cluster: SwitchedCluster) -> Vec<Communicator> {
        let n = cluster.endpoints.len();
        let (endpoints, shards) = cluster.split();
        let mut comms: Vec<Communicator> = endpoints
            .into_iter()
            .map(|ep| Communicator::new(ep, n))
            .collect();
        // Only now may frames start moving between endpoints.
        let fabric = Arc::new(SwitchRunner::start(shards));
        for c in &mut comms {
            c.fabric = Some(fabric.clone());
        }
        comms
    }
}

/// What the two receive handlers share with the communicator that owns
/// them.
#[derive(Default)]
struct Inbox {
    queue: MatchQueue,
    /// Arrivals dropped before matching (see [`Inbox::vet`]).
    malformed: u64,
}

impl Inbox {
    /// The envelope header of an arriving `[envelope | data]` image, or
    /// `None` (counted) when it cannot be filed: shorter than an envelope,
    /// claiming a source other than the node FM delivered it `from` (which
    /// would corrupt that rank's sequence stream), or a source outside the
    /// `ranks` of this cluster (which would size a table from the wire).
    fn vet(&mut self, from: NodeId, ranks: usize, msg: &[u8]) -> Option<(Tag, u32, Rank)> {
        let head = Envelope::parse_header(msg)
            .filter(|&(_, _, src)| src == from.0 && (src as usize) < ranks);
        if head.is_none() {
            self.malformed += 1;
        }
        head
    }

    /// File `data` under a vetted (or locally built) header.
    fn admit(&mut self, (tag, seq, src): (Tag, u32, Rank), data: Vec<u8>) {
        self.queue.push(Envelope {
            tag,
            seq,
            src,
            data,
        });
    }
}

/// One rank's endpoint plus its MPI state. Move it into the rank's thread.
pub struct Communicator {
    ep: MemEndpoint,
    size: usize,
    inbox: Arc<Mutex<Inbox>>,
    /// Next sequence number toward each rank; both send paths draw from it,
    /// so one-frame and segmented messages share one order per destination.
    next_seq_to: Vec<u32>,
    /// The switch wiring, when the cluster is switch-routed; collectives
    /// consult it to build spanning trees over the real fabric.
    topo: Option<Arc<SwitchTopology>>,
    /// Per-collective-kind epoch counters (see `collectives::coll_tag`).
    epochs: [u32; N_COLL_KINDS],
    /// Keeps the shard threads alive while any rank lives; dropping the
    /// last communicator stops and joins them.
    fabric: Option<Arc<SwitchRunner>>,
}

impl Communicator {
    fn new(mut ep: MemEndpoint, size: usize) -> Self {
        let topo = ep.topology().cloned();
        let inbox: Arc<Mutex<Inbox>> = Arc::default();
        // Eager path: the frame is still in the receive ring; its data is
        // copied once, into the `Vec` the receiver will be handed.
        let sink = inbox.clone();
        let eager = ep.register_handler(move |_, from, frame| {
            let mut inbox = sink.lock();
            if let Some(head) = inbox.vet(from, size, frame) {
                inbox.admit(head, frame[ENVELOPE_BYTES..].to_vec());
            }
        });
        // Segmented path: the reassembled `Vec` becomes the receiver's
        // once the envelope is stripped from its front, in place.
        let sink = inbox.clone();
        let segmented = ep.register_large_handler(move |_, from, mut data| {
            let mut inbox = sink.lock();
            if let Some(head) = inbox.vet(from, size, &data) {
                data.drain(..ENVELOPE_BYTES);
                inbox.admit(head, data);
            }
        });
        // Ids travel on the wire, so every rank must hold the same ones: an
        // endpoint that had handlers registered before it was wrapped would
        // file its peers' messages under somebody else's handler.
        assert_eq!(
            (eager, segmented),
            (EAGER_HANDLER, SEGMENTED_HANDLER),
            "the MPI handlers must be the first registered on an endpoint"
        );
        Communicator {
            ep,
            size,
            inbox,
            next_seq_to: vec![0; size],
            topo,
            epochs: [0; N_COLL_KINDS],
            fabric: None,
        }
    }

    /// Wrap an externally wired endpoint (switched or UDP) as an MPI rank.
    /// `size` is the number of ranks in the cluster; the endpoint's node
    /// id is the rank.
    ///
    /// # Panics
    /// If the endpoint has already consumed incoming data frames
    /// (`delivered` or `unknown_handler` nonzero). Handlers must register
    /// before the first extract: a data frame extracted before the MPI
    /// handler exists is consumed and acked as unknown-handler, so the
    /// sender never retransmits it — a silent message loss this guard
    /// turns into a loud construction error. Handshake traffic (UDP
    /// hellos, acks) does not trip it. Also if the endpoint already has a
    /// frame or large handler of its own: the MPI handler ids are fixed
    /// (they travel on the wire), and they are the first of each kind.
    pub fn adopt(ep: MemEndpoint, size: usize) -> Self {
        let stats = ep.stats();
        assert!(
            stats.delivered == 0 && stats.unknown_handler == 0,
            "handlers must register before the first extract: endpoint {} already \
             consumed {} data frame(s) ({} unknown-handler) before adoption",
            ep.node_id().0,
            stats.delivered + stats.unknown_handler,
            stats.unknown_handler,
        );
        assert!(
            (ep.node_id().index()) < size,
            "node id outside the rank space"
        );
        Communicator::new(ep, size)
    }

    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.ep.node_id().0
    }

    /// Number of ranks in the cluster.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The switch topology this rank is wired into (`None` on the pairwise
    /// mesh and UDP wirings).
    pub fn topology(&self) -> Option<&Arc<SwitchTopology>> {
        self.topo.as_ref()
    }

    /// Blocking tagged send of arbitrary size.
    pub fn send(&mut self, dest: Rank, tag: Tag, data: &[u8]) {
        assert!(tag.is_user(), "tags >= 0xFFFF0000 are reserved");
        self.send_internal(dest, tag, data);
    }

    fn send_internal(&mut self, dest: Rank, tag: Tag, data: &[u8]) {
        assert!((dest as usize) < self.size, "rank {dest} out of range");
        let src = self.rank();
        let next = &mut self.next_seq_to[dest as usize];
        let seq = *next;
        *next = seq.wrapping_add(1);
        if dest == src {
            // Self-sends match locally without touching the network.
            self.inbox.lock().admit((tag, seq, src), data.to_vec());
            return;
        }
        let head = Envelope::header(tag, seq, src);
        let len = ENVELOPE_BYTES + data.len();
        // Whether a message fits one frame is the whole choice of path.
        let sent = if len <= FM_FRAME_PAYLOAD {
            let mut frame = [0u8; FM_FRAME_PAYLOAD];
            frame[..ENVELOPE_BYTES].copy_from_slice(&head);
            frame[ENVELOPE_BYTES..len].copy_from_slice(data);
            self.ep
                .send_checked(NodeId(dest), EAGER_HANDLER, &frame[..len])
        } else {
            let mut bytes = Vec::with_capacity(len);
            bytes.extend_from_slice(&head);
            bytes.extend_from_slice(data);
            self.ep.send_large(NodeId(dest), SEGMENTED_HANDLER, &bytes)
        };
        if let Err(e) = sent {
            panic!("MPI send to rank {dest}: {e}");
        }
    }

    /// Blocking receive with wildcard source/tag. Returns
    /// `(source, tag, data)`.
    pub fn recv(&mut self, src: Option<Rank>, tag: Option<Tag>) -> (Rank, Tag, Vec<u8>) {
        loop {
            if let Some(env) = self.inbox.lock().queue.take(src, tag) {
                return (env.src, env.tag, env.data);
            }
            self.ep.extract();
            std::thread::yield_now();
        }
    }

    /// Non-blocking probe-and-receive.
    pub fn try_recv(
        &mut self,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Option<(Rank, Tag, Vec<u8>)> {
        self.ep.extract();
        self.inbox
            .lock()
            .queue
            .take(src, tag)
            .map(|env| (env.src, env.tag, env.data))
    }

    /// Service the network without receiving (keeps acks and fragments
    /// flowing during long local compute phases).
    pub fn progress(&mut self) {
        self.ep.extract();
    }

    /// Messages that arrived out of their sequence order (evidence of FM's
    /// unordered delivery being papered over by this layer).
    pub fn reordered_messages(&self) -> u64 {
        self.inbox.lock().queue.reordered
    }

    /// Messages dropped by the matching queue because their sequence number
    /// had already been admitted (see [`MatchQueue::stale`]).
    pub fn stale_messages(&self) -> u64 {
        self.inbox.lock().queue.stale
    }

    /// Arrivals dropped before matching: shorter than an envelope, or
    /// carrying a source rank that is not the node FM delivered them from
    /// or not a rank of this cluster.
    pub fn malformed_messages(&self) -> u64 {
        self.inbox.lock().malformed
    }

    /// Matched-queue occupancy: messages delivered but not yet received
    /// (visible) plus messages parked for sequence repair. Zero once the
    /// rank has received everything addressed to it — the exactly-once
    /// ledger the fault soaks audit.
    pub fn match_pending(&self) -> usize {
        self.inbox.lock().queue.pending()
    }

    /// Underlying FM endpoint statistics.
    pub fn fm_stats(&self) -> fm_core::EndpointStats {
        self.ep.stats()
    }

    /// This rank's telemetry handle (histograms, trace ring — including
    /// the collective spans the collectives module records).
    pub fn telemetry(&self) -> &fm_telemetry::Telemetry {
        self.ep.telemetry()
    }

    /// Emit one telemetry beacon now (see [`MemEndpoint::emit_beacon`]):
    /// a harness's final flush once the rank is done.
    pub fn emit_beacon(&mut self) {
        self.ep.emit_beacon();
    }

    // Internal send/recv on reserved tags, for the collectives module.
    pub(crate) fn send_reserved(&mut self, dest: Rank, tag: Tag, data: &[u8]) {
        debug_assert!(!tag.is_user());
        self.send_internal(dest, tag, data);
    }

    pub(crate) fn recv_reserved(&mut self, src: Rank, tag: Tag) -> Vec<u8> {
        let (_, _, data) = self.recv(Some(src), Some(tag));
        data
    }

    /// Next epoch for one collective kind (post-increment; wraps within
    /// the kind's tag sub-space at use time, see `collectives::coll_tag`).
    pub(crate) fn bump_epoch(&mut self, kind: Kind) -> u32 {
        let e = self.epochs[kind.0 as usize];
        self.epochs[kind.0 as usize] = e.wrapping_add(1);
        e
    }

    /// Record one collective-span trace event, stamped with the
    /// endpoint's own clock so it merges onto the same timeline as the
    /// message spans. The collectives module brackets every call
    /// (`CollBegin`/`CollEnd`) and every communication round
    /// (`CollRoundBegin`/`CollRoundEnd`) through this.
    pub(crate) fn trace_coll(&self, kind: fm_telemetry::EventKind) {
        self.ep.telemetry().trace(self.ep.now(), kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_rank_send_recv_threads() {
        let mut comms = MpiCluster::new(2);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let t = std::thread::spawn(move || {
            let (src, tag, data) = c1.recv(None, None);
            assert_eq!((src, tag), (0, Tag(9)));
            c1.send(0, Tag(10), &data.iter().map(|b| b + 1).collect::<Vec<_>>());
        });
        c0.send(1, Tag(9), &[1, 2, 3]);
        let (_, _, reply) = c0.recv(Some(1), Some(Tag(10)));
        assert_eq!(reply, vec![2, 3, 4]);
        t.join().unwrap();
    }

    #[test]
    fn large_message_roundtrip() {
        let mut comms = MpiCluster::new(2);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let big: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let big2 = big.clone();
        let t = std::thread::spawn(move || {
            let (_, _, data) = c1.recv(Some(0), Some(Tag(1)));
            assert_eq!(data, big2);
            c1.send(0, Tag(2), &[data.len() as u8]);
        });
        c0.send(1, Tag(1), &big);
        let (_, _, ack) = c0.recv(Some(1), Some(Tag(2)));
        assert_eq!(ack, vec![(50_000 % 256) as u8]);
        t.join().unwrap();
    }

    #[test]
    fn self_send_matches_locally() {
        let mut comms = MpiCluster::new(1);
        let mut c = comms.pop().unwrap();
        c.send(0, Tag(3), b"me");
        let (src, tag, data) = c.recv(Some(0), Some(Tag(3)));
        assert_eq!((src, tag, data.as_slice()), (0, Tag(3), &b"me"[..]));
        assert_eq!(c.fm_stats().sent, 0, "no frames hit the wire");
    }

    #[test]
    fn per_pair_fifo_order_preserved() {
        let mut comms = MpiCluster::new(2);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let t = std::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..20 {
                let (_, _, d) = c1.recv(Some(0), Some(Tag(5)));
                got.push(d[0]);
            }
            got
        });
        for i in 0..20u8 {
            c0.send(1, Tag(5), &[i]);
        }
        // Drain acks so rank 0 quiesces.
        for _ in 0..10 {
            c0.progress();
        }
        let got = t.join().unwrap();
        assert_eq!(got, (0..20).collect::<Vec<u8>>());
    }

    /// One thread drives both ranks: receive at `c1` while `c0` keeps its
    /// acks flowing.
    fn recv_inline(c0: &mut Communicator, c1: &mut Communicator) -> (Rank, Tag, Vec<u8>) {
        loop {
            if let Some(got) = c1.try_recv(None, None) {
                return got;
            }
            c0.progress();
        }
    }

    /// In an inline ping-pong each side's ack for the message it just got
    /// rides the message it sends next; only the first ping's and the last
    /// echo's may travel alone.
    #[test]
    fn an_inline_ping_pong_acks_on_its_data_frames() {
        let mut comms = MpiCluster::new(2);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        for round in 0..1_000u32 {
            c0.send(1, Tag(1), &round.to_le_bytes());
            let (_, _, ping) = recv_inline(&mut c0, &mut c1);
            c1.send(0, Tag(2), &ping);
            let (_, _, echo) = recv_inline(&mut c1, &mut c0);
            assert_eq!(echo, round.to_le_bytes());
        }
        for c in [&c0, &c1] {
            assert!(c.fm_stats().ack_frames_sent <= 2, "{:?}", c.fm_stats());
        }
    }

    /// Either side of the one-frame boundary (118 B of data behind the
    /// 10-B envelope) a message arrives intact; at or below it the message
    /// is exactly one FM frame and reassembly never sees it, above it the
    /// frame count is the fragment count.
    #[test]
    fn payload_sizes_across_the_frame_boundary() {
        let mut comms = MpiCluster::new(2);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        for (i, len) in [0usize, 1, 117, 118, 119, 128, 4096]
            .into_iter()
            .enumerate()
        {
            let data: Vec<u8> = (0..len).map(|b| (b * 7 + i) as u8).collect();
            let tag = Tag(40 + i as u32);
            let (sent, reassembly) = (c0.fm_stats().sent, c1.ep.reassembly_stats());
            c0.send(1, tag, &data);
            assert_eq!(recv_inline(&mut c0, &mut c1), (0, tag, data), "{len} B");
            let frames = c0.fm_stats().sent - sent;
            if len <= FM_FRAME_PAYLOAD - ENVELOPE_BYTES {
                assert_eq!(frames, 1, "{len} B rides one frame");
                assert_eq!(c1.ep.reassembly_stats(), reassembly, "{len} B");
            } else {
                let fragments = (len + ENVELOPE_BYTES).div_ceil(fm_core::seg::FRAG_DATA) as u64;
                assert_eq!(frames, fragments, "{len} B is segmented");
                let (frags, msgs) = c1.ep.reassembly_stats();
                assert_eq!((frags, msgs), (reassembly.0 + fragments, reassembly.1 + 1));
            }
        }
        assert_eq!((c1.match_pending(), c1.malformed_messages()), (0, 0));
    }

    /// An envelope is filed under the rank FM delivered it from or not at
    /// all: node 0 forging rank 2's identity (or a rank outside the
    /// cluster, or sending less than an envelope) on either path must not
    /// disturb rank 2's sequence stream at rank 1.
    #[test]
    fn forged_and_short_envelopes_are_dropped_and_counted() {
        let mut comms = MpiCluster::new(3);
        let mut c2 = comms.pop().unwrap();
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let forged = |src: Rank, len: usize| {
            let mut msg = Envelope::header(Tag(1), 0, src).to_vec();
            msg.resize(ENVELOPE_BYTES + len, 0xEE);
            msg
        };
        for src in [2, u16::MAX] {
            c0.ep.send(NodeId(1), EAGER_HANDLER, &forged(src, 16));
            c0.ep
                .send_large(NodeId(1), SEGMENTED_HANDLER, &forged(src, 300))
                .unwrap();
        }
        c0.ep.send(NodeId(1), EAGER_HANDLER, b"short");
        c0.ep
            .send_large(NodeId(1), SEGMENTED_HANDLER, b"short")
            .unwrap();
        // The honest messages, sent after the forgeries.
        c2.send(1, Tag(1), b"really from 2");
        c0.send(1, Tag(1), b"really from 0");
        let mut got = Vec::new();
        while got.len() < 2 {
            got.extend(c1.try_recv(None, None));
            c0.progress();
            c2.progress();
        }
        got.sort();
        assert_eq!(got[0], (0, Tag(1), b"really from 0".to_vec()));
        assert_eq!(got[1], (2, Tag(1), b"really from 2".to_vec()));
        assert_eq!(c1.malformed_messages(), 6);
        assert_eq!((c1.match_pending(), c1.stale_messages()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "first registered")]
    fn adopt_rejects_an_endpoint_with_handlers_of_its_own() {
        let mut ep = MemCluster::new(1).pop().unwrap();
        ep.register_handler(|_, _, _| {});
        let _ = Communicator::adopt(ep, 1);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tag_rejected_for_users() {
        let mut comms = MpiCluster::new(1);
        comms[0].send(0, Tag(Tag::RESERVED), b"no");
    }

    #[test]
    fn reduce_op_identities() {
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max] {
            assert_eq!(op.apply(op.identity(), 3.5), 3.5);
        }
        assert_eq!(ReduceOp::Sum.apply(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Prod.apply(2.0, 3.0), 6.0);
        assert_eq!(ReduceOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(ReduceOp::Max.apply(2.0, 3.0), 3.0);
    }

    #[test]
    fn switched_ranks_see_the_topology() {
        let comms = MpiCluster::switched(4);
        for c in &comms {
            let topo = c.topology().expect("switched rank carries its wiring");
            assert_eq!(topo.hosts(), 4);
            assert_eq!(topo.switches(), 1);
        }
        assert!(MpiCluster::new(2)[0].topology().is_none());
    }

    #[test]
    fn switched_send_recv_crosses_switches() {
        // 12 ranks on a 2-switch chain: 0 -> 11 crosses a trunk.
        let mut comms = MpiCluster::switched(12);
        let mut c11 = comms.pop().unwrap();
        let t = std::thread::spawn(move || {
            let (src, _, data) = c11.recv(Some(0), Some(Tag(1)));
            assert_eq!((src, data.as_slice()), (0, &b"over the trunk"[..]));
            c11.send(0, Tag(2), b"ack");
        });
        comms[0].send(11, Tag(1), b"over the trunk");
        let (_, _, reply) = comms[0].recv(Some(11), Some(Tag(2)));
        assert_eq!(reply, b"ack");
        t.join().unwrap();
        // Drain trailing acks so shard threads can stop cleanly.
        for _ in 0..10 {
            comms[0].progress();
            std::thread::yield_now();
        }
    }
}
