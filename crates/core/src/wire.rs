//! The transports behind a [`crate::mem::MemEndpoint`].
//!
//! An endpoint is plugged into exactly one [`Wire`], and asks two things of
//! it on the hot path: [`Wire::push`] one frame image toward a destination
//! (encoded in place by the caller's closure — into the ring slot itself on
//! the ring wirings, so the short-message path never stages or allocates)
//! and [`Wire::drain`] whatever has arrived into a byte-slice sink,
//! catching the endpoint's clock up once per batch of arrivals. What a frame
//! *is* — codec, CRC, fault treatment, flow control — stays on the
//! endpoint's side of this seam; what carries it stays on this side.

use fm_myrinet::{NodeId, SwitchTopology};
use fm_telemetry::Metric;
use std::net::UdpSocket;
use std::sync::Arc;

use crate::endpoint::EndpointCore;
use crate::fabric::{spsc_ring, RingConsumer, RingProducer};
use crate::frame::FM_FRAME_MAX;
use crate::udp::{unique_generation, Roster, UdpLink, DEFAULT_HELLO_INTERVAL_US};

/// Frames drained from one ring per poll pass; bounds how long one peer can
/// monopolize `extract` while keeping the per-batch atomic cost amortized.
const WIRE_POLL_BATCH: usize = 32;

/// Which wire a [`crate::mem::MemCluster`] uses between nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FabricKind {
    /// Counter-coordinated SPSC rings (the default): frames are encoded in
    /// place into fixed slots and drained in batches — no allocation, no
    /// locks, one atomic store per side per batch.
    #[default]
    Ring,
    /// Real UDP sockets over loopback: every frame crosses the kernel as a
    /// datagram, one nonblocking socket per endpoint, with the
    /// hello/hello-ack handshake from [`crate::udp`] detecting restarted
    /// peers. Forces [`crate::time::TimeSource::WallMicros`] — a virtual
    /// tick cannot time a real wire. For endpoints in *separate processes*,
    /// use [`crate::mem::MemEndpoint::bind_udp`] with a shared [`Roster`]
    /// instead.
    Udp,
}

/// Aggregated ring counters for one endpoint (all zero on a UDP wiring,
/// where the kernel owns the queues — see
/// [`crate::mem::MemEndpoint::udp_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Frames pushed into peer rings.
    pub pushed: u64,
    /// Pushes refused by a full ring (frame went to the backlog).
    pub full: u64,
    /// Frames drained from peer rings.
    pub polled: u64,
    /// Non-empty drain batches (each cost one Acquire + one Release).
    pub batches: u64,
}

/// How an endpoint is wired into the cluster.
pub(crate) enum Wire {
    /// Fully connected: one private SPSC ring per ordered pair (the
    /// [`crate::mem::MemCluster`] shape). Indexed by peer; the self entry
    /// is `None`.
    Mesh {
        tx: Vec<Option<RingProducer>>,
        rx: Vec<Option<RingConsumer>>,
    },
    /// Switch-routed: a single uplink ring into this host's switch shard
    /// and a single downlink ring back from it; the shards forward frames
    /// by destination (the [`crate::switched`] shape — port counts and
    /// memory stay constant as the cluster grows, per Section 4.5's
    /// design rule 4).
    Switched {
        up: RingProducer,
        down: RingConsumer,
        /// Total hosts in the topology.
        cluster: usize,
        /// The fabric shape, shared with every other endpoint of the
        /// cluster and exposed through [`Wire::topology`] so layers above
        /// (collectives, load balancers) can shape their communication to
        /// the actual wiring instead of assuming a flat rank space.
        topo: Arc<SwitchTopology>,
    },
    /// Real-network: one UDP socket carrying encoded frames to every peer,
    /// addressed through the link's roster (peers may live in other OS
    /// processes).
    Udp(UdpLink),
}

impl Wire {
    /// One SPSC ring of `depth` slots per ordered pair of `n` nodes.
    pub(crate) fn ring_mesh(n: usize, depth: usize) -> Vec<Wire> {
        let mut txs: Vec<Vec<Option<RingProducer>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut rxs: Vec<Vec<Option<RingConsumer>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for src in 0..n {
            for dst in (0..n).filter(|&dst| dst != src) {
                let (producer, consumer) = spsc_ring(depth);
                txs[src][dst] = Some(producer);
                rxs[dst][src] = Some(consumer);
            }
        }
        txs.into_iter()
            .zip(rxs)
            .map(|(tx, rx)| Wire::Mesh { tx, rx })
            .collect()
    }

    /// `n` loopback UDP links in one process. Every socket is bound first
    /// so the shared roster can carry real ephemeral ports.
    pub(crate) fn udp_loopback(n: usize) -> Vec<Wire> {
        let socks: Vec<UdpSocket> = (0..n)
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)).expect("bind loopback UDP socket"))
            .collect();
        let mut roster = Roster::new(n);
        for (i, sock) in socks.iter().enumerate() {
            roster.set(
                NodeId(i as u16),
                sock.local_addr().expect("bound socket address"),
            );
        }
        socks
            .into_iter()
            .enumerate()
            .map(|(i, sock)| {
                Wire::Udp(
                    UdpLink::from_socket(
                        NodeId(i as u16),
                        sock,
                        roster.clone(),
                        unique_generation(),
                        DEFAULT_HELLO_INTERVAL_US,
                    )
                    .expect("nonblocking mode on a fresh socket"),
                )
            })
            .collect()
    }

    /// Put one frame on the wire toward node `dst`. `encode` receives an
    /// [`FM_FRAME_MAX`]-byte buffer — the ring slot itself on the ring
    /// wirings, a stack buffer in front of the socket on UDP — and returns
    /// the number of bytes it filled. Returns `false` (without calling
    /// `encode` on a ring) when the wire is full and the caller should
    /// re-offer the frame later; `true` when the frame was sent, or was
    /// undeliverable (destination outside the cluster, or self) and is
    /// consumed either way.
    #[inline]
    pub(crate) fn push(&mut self, dst: usize, encode: impl FnOnce(&mut [u8]) -> usize) -> bool {
        if dst >= self.cluster() {
            return true;
        }
        match self {
            Wire::Mesh { tx, .. } => match &mut tx[dst] {
                Some(ring) => ring.try_push_with(encode),
                None => true, // self
            },
            // Every destination shares the one uplink; the shard's route
            // table takes it from there.
            Wire::Switched { up, .. } => up.try_push_with(encode),
            // `false` from the link means `WouldBlock` — kernel buffer full —
            // which backlogs the frame exactly like a full ring; real send
            // failures are wire loss and the retransmission timers recover.
            Wire::Udp(link) => {
                let mut buf = [0u8; FM_FRAME_MAX];
                let n = encode(&mut buf);
                link.send_encoded(dst, &buf[..n])
            }
        }
    }

    /// Drain everything that has arrived into `sink`, one encoded frame
    /// per call, recording each non-empty batch's occupancy in `core`'s
    /// telemetry. Before the first frame of each batch — on a ring, right
    /// after the Acquire that made the batch visible; on UDP, per datagram —
    /// `core`'s clock catches up to the wall clock
    /// ([`EndpointCore::catch_up_clock`]), so no arrival is stamped before
    /// its producer pushed it. Returns the peers the UDP handshake flagged
    /// as restarted (always empty on the ring wirings); the caller resets
    /// their streams.
    #[inline]
    pub(crate) fn drain(
        &mut self,
        core: &mut EndpointCore,
        mut sink: impl FnMut(&mut EndpointCore, &[u8]),
    ) -> Vec<NodeId> {
        // How full each one-Acquire ring drain ran (empty polls are not
        // samples).
        let mut poll = |ring: &mut RingConsumer| {
            let mut fresh = true;
            let got = ring.poll_batch(WIRE_POLL_BATCH, |bytes| {
                if std::mem::take(&mut fresh) {
                    core.catch_up_clock();
                }
                sink(core, bytes)
            });
            if got > 0 {
                core.telemetry().record(Metric::PollBatch, got as u64);
            }
            got
        };
        match self {
            // Round-robin over peers in bounded batches until a full sweep
            // finds every ring empty — no peer starves.
            Wire::Mesh { rx, .. } => {
                while rx.iter_mut().flatten().map(&mut poll).sum::<usize>() > 0 {}
            }
            // One merged downlink: the shard already interleaved peers.
            Wire::Switched { down, .. } => while poll(down) > 0 {},
            Wire::Udp(link) => {
                let mut resets = Vec::new();
                let arrived = |bytes: &[u8]| {
                    core.catch_up_clock();
                    sink(core, bytes)
                };
                let got = link.pump(arrived, |peer| resets.push(peer));
                if got > 0 {
                    core.telemetry().record(Metric::PollBatch, got);
                }
                return resets;
            }
        }
        Vec::new()
    }

    /// Ring counters summed over every ring this endpoint holds.
    pub(crate) fn stats(&self) -> FabricStats {
        let mut s = FabricStats::default();
        match self {
            Wire::Mesh { tx, rx } => {
                for p in tx.iter().flatten() {
                    s.pushed += p.stats.pushed;
                    s.full += p.stats.full;
                }
                for c in rx.iter().flatten() {
                    s.polled += c.stats.polled;
                    s.batches += c.stats.batches;
                }
            }
            Wire::Switched { up, down, .. } => {
                s.pushed = up.stats.pushed;
                s.full = up.stats.full;
                s.polled = down.stats.polled;
                s.batches = down.stats.batches;
            }
            Wire::Udp(_) => {}
        }
        s
    }

    /// Number of nodes in the cluster (including this one).
    pub(crate) fn cluster(&self) -> usize {
        match self {
            Wire::Mesh { tx, .. } => tx.len(),
            Wire::Switched { cluster, .. } => *cluster,
            Wire::Udp(link) => link.cluster(),
        }
    }

    /// The switch topology, on a switched wiring.
    pub(crate) fn topology(&self) -> Option<&Arc<SwitchTopology>> {
        match self {
            Wire::Switched { topo, .. } => Some(topo),
            _ => None,
        }
    }

    /// The UDP link, on a UDP wiring.
    pub(crate) fn udp(&self) -> Option<&UdpLink> {
        match self {
            Wire::Udp(link) => Some(link),
            _ => None,
        }
    }
}
