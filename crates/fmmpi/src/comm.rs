//! The communicator: ranks, blocking send/recv, and cluster construction
//! over both the pairwise mesh and the switch-routed fabric.

use fm_core::endpoint::EndpointConfig;
use fm_core::mem::{MemCluster, MemEndpoint};
use fm_core::{
    FaultConfig, NodeId, SwitchConfig, SwitchRunner, SwitchTopology, SwitchedCluster, TimeSource,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use crate::collectives::N_COLL_KINDS;
use crate::matching::{Envelope, MatchQueue};
use crate::{Rank, Tag};

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

/// One rank's endpoint plus its MPI state. Move it into the rank's thread.
pub struct Communicator {
    ep: MemEndpoint,
    size: usize,
    inbox: Arc<Mutex<MatchQueue>>,
    next_seq_to: HashMap<Rank, u32>,
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
        let inbox: Arc<Mutex<MatchQueue>> = Arc::new(Mutex::new(MatchQueue::new()));
        let sink = inbox.clone();
        let h = ep.register_large_handler(move |_, _src, msg| {
            if let Some(env) = Envelope::decode(&msg) {
                sink.lock().push(env);
            }
        });
        debug_assert_eq!(h.0, 0, "MPI message handler must be large-handler 0");
        Communicator {
            ep,
            size,
            inbox,
            next_seq_to: HashMap::new(),
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
    /// hellos, acks) does not trip it.
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
        assert!((dest as usize) < self.size, "rank {dest} out of range");
        assert!(tag.is_user(), "tags >= 0xFFFF0000 are reserved");
        self.send_internal(dest, tag, data);
    }

    fn send_internal(&mut self, dest: Rank, tag: Tag, data: &[u8]) {
        let me = self.rank();
        let seq = self.next_seq_to.entry(dest).or_insert(0);
        let env = Envelope {
            tag,
            seq: *seq,
            src: me,
            data: data.to_vec(),
        };
        *seq += 1;
        if dest == self.rank() {
            // Self-sends match locally without touching the network.
            self.inbox.lock().push(env);
            return;
        }
        let bytes = env.encode();
        // Large-handler 0 is the MPI sink on every rank.
        if let Err(e) = self
            .ep
            .send_large(NodeId(dest), fm_core::HandlerId(0), &bytes)
        {
            panic!("MPI send to rank {dest}: {e}");
        }
    }

    /// Blocking receive with wildcard source/tag. Returns
    /// `(source, tag, data)`.
    pub fn recv(&mut self, src: Option<Rank>, tag: Option<Tag>) -> (Rank, Tag, Vec<u8>) {
        loop {
            if let Some(env) = self.inbox.lock().take(src, tag) {
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
        self.inbox.lock().reordered
    }

    /// Matched-queue occupancy: messages delivered but not yet received
    /// (visible) plus messages parked for sequence repair. Zero once the
    /// rank has received everything addressed to it — the exactly-once
    /// ledger the fault soaks audit.
    pub fn match_pending(&self) -> usize {
        self.inbox.lock().pending()
    }

    /// Underlying FM endpoint statistics.
    pub fn fm_stats(&self) -> fm_core::EndpointStats {
        self.ep.stats()
    }

    /// This rank's telemetry handle (counters, histograms, trace ring —
    /// including the collective spans the collectives module records).
    pub fn telemetry(&self) -> &fm_telemetry::Telemetry {
        self.ep.telemetry()
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
    pub(crate) fn bump_epoch(&mut self, kind: usize) -> u32 {
        let e = self.epochs[kind];
        self.epochs[kind] = e.wrapping_add(1);
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
