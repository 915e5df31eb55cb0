//! Switch-scaling experiments — beyond the paper's two-node testbed.
//!
//! The paper measures one pair of workstations on an 8-port switch and
//! argues the approach scales; these experiments exercise the switch model
//! with more of its ports occupied:
//!
//! * [`parallel_pairs`] — k disjoint sender/receiver pairs stream
//!   simultaneously. The crossbar is non-blocking for disjoint ports, so
//!   aggregate bandwidth should scale ~linearly until the port count runs
//!   out.
//! * [`incast`] — k senders stream at one receiver. The receiver's input
//!   port serializes the wire, and the receiving LCP serializes the
//!   processing: per-sender goodput should drop as ~1/k while the total
//!   stays near the single-stream rate, and arbitration should be fair.
//!
//! Two implementations coexist:
//!
//! * **Live** ([`live_parallel_pairs`], [`live_incast`]) — the default: a
//!   real `fm-core` [`SwitchedCluster`] with one thread per endpoint and
//!   per switch shard (pairs) or a deterministic round-robin drive
//!   (incast), moving real encoded frames through real switch shards.
//!   These are what `repro scaling` and `bench_scaling` run.
//! * **Analytic** ([`parallel_pairs`], [`incast`]) — the original
//!   extrapolation from the two-node timing model, driven by the event
//!   engine over the crossbar's occupancy calculator. Kept, with its own
//!   tests, as a comparison baseline, and because the LANai-level timing
//!   claims (linear crossbar scaling, fair 1/k incast sharing) are only
//!   expressible there.
//!
//! The analytic runs use the LANai-level streamed layer (the
//! network-facing part of the stack) driven by the event engine, since
//! multiple independent senders make arrival interleavings
//! state-dependent.

use fm_core::{EndpointConfig, HandlerId, SwitchRunner, SwitchTopology, SwitchedCluster};
use fm_des::{Engine, Time};
use fm_lanai::{DmaEngine, LanaiChip, LcpCosts};
use fm_metrics::jain;
use fm_myrinet::{Network, NetworkConfig, NodeId};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of a multi-flow run.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// Flows (sender count).
    pub flows: usize,
    /// Packet payload bytes.
    pub n: usize,
    /// Per-flow delivered bandwidth, MB/s (2^20), indexed by sender.
    pub per_flow_mbs: Vec<f64>,
    /// Aggregate delivered bandwidth, MB/s.
    pub total_mbs: f64,
    /// Jain's fairness index over the per-flow bandwidths (1.0 = fair).
    pub fairness: f64,
}

#[derive(Debug)]
enum Ev {
    /// Sender `i` is ready to push its next packet.
    SenderReady(usize),
    /// Packet from sender `i` fully arrived at its receiver.
    Arrive { sender: usize, tail: Time },
}

/// Common driver: `senders[i]` streams `count` packets of `n` bytes to
/// `dest_of(i)`; returns per-sender completion statistics.
fn run_flows(
    flows: usize,
    n: usize,
    count: usize,
    net_cfg: NetworkConfig,
    dest_of: impl Fn(usize) -> NodeId,
    src_of: impl Fn(usize) -> NodeId,
) -> ScalingReport {
    let lcp = LcpCosts::streamed();
    let mut net = Network::new(net_cfg);
    let mut send_chips: Vec<LanaiChip> = (0..flows).map(|_| LanaiChip::new()).collect();
    // One receiver chip per distinct destination node.
    let mut recv_chips: std::collections::HashMap<u16, LanaiChip> = Default::default();
    for i in 0..flows {
        recv_chips.entry(dest_of(i).0).or_default();
    }

    let mut sent = vec![0usize; flows];
    let mut delivered = vec![0usize; flows];
    let mut last_delivery = vec![Time::ZERO; flows];

    let mut eng: Engine<Ev> = Engine::new();
    for i in 0..flows {
        eng.schedule_at(Time::ZERO, Ev::SenderReady(i));
    }

    while let Some((now, ev)) = eng.pop() {
        match ev {
            Ev::SenderReady(i) => {
                if sent[i] >= count {
                    continue;
                }
                let chip = &mut send_chips[i];
                let instr = if sent[i] == 0 {
                    lcp.send_path
                } else {
                    lcp.send_stream_instr()
                };
                let exec = chip.exec(now.max(chip.proc_free_at()), instr);
                let (dstart, dend) = chip.start_dma(exec, DmaEngine::NetOut, n);
                chip.block_until(dend);
                sent[i] += 1;
                let d = net.inject(dstart, src_of(i), dest_of(i), n);
                eng.schedule_at(
                    d.head_at,
                    Ev::Arrive {
                        sender: i,
                        tail: d.tail_at,
                    },
                );
                eng.schedule_at(dend, Ev::SenderReady(i));
            }
            Ev::Arrive { sender, tail } => {
                // The destination's LCP services arrivals in order.
                let chip = recv_chips
                    .get_mut(&dest_of(sender).0)
                    .expect("receiver chip exists");
                let instr = lcp.recv_stream_instr();
                let exec = chip.exec(now.max(chip.proc_free_at()), instr);
                let (_, rend) = chip.start_dma(exec, DmaEngine::NetIn, n);
                let complete = rend.max(tail);
                chip.block_until(complete);
                delivered[sender] += 1;
                last_delivery[sender] = complete;
            }
        }
    }

    for (i, d) in delivered.iter().enumerate() {
        assert_eq!(*d, count, "flow {i} lost packets");
    }
    let per_flow_mbs: Vec<f64> = (0..flows)
        .map(|i| {
            let elapsed = last_delivery[i].since(Time::ZERO);
            (n as f64 * count as f64) / elapsed.as_secs_f64() / (1u64 << 20) as f64
        })
        .collect();
    let end = last_delivery.iter().copied().max().unwrap_or(Time::ZERO);
    let total_mbs = (n as f64 * count as f64 * flows as f64)
        / end.since(Time::ZERO).as_secs_f64()
        / (1u64 << 20) as f64;
    ScalingReport {
        flows,
        n,
        fairness: jain(&per_flow_mbs),
        per_flow_mbs,
        total_mbs,
    }
}

/// k disjoint pairs: senders are nodes `0..k`, receivers nodes `k..2k`;
/// all ports distinct, so the crossbar should not block.
pub fn parallel_pairs(k: usize, n: usize, count: usize) -> ScalingReport {
    assert!(k >= 1);
    run_flows(
        k,
        n,
        count,
        NetworkConfig::switched(2 * k),
        move |i| NodeId((k + i) as u16),
        |i| NodeId(i as u16),
    )
}

/// k senders (nodes `1..=k`) stream at node 0.
pub fn incast(k: usize, n: usize, count: usize) -> ScalingReport {
    assert!(k >= 1);
    run_flows(
        k,
        n,
        count,
        NetworkConfig::switched(k + 1),
        |_| NodeId(0),
        |i| NodeId((i + 1) as u16),
    )
}

// ---- live cluster (fm-core switched runtime) ---------------------------

/// Payload bytes per message in the live experiments — one full FM frame.
pub const LIVE_MSG_BYTES: usize = 128;

/// How the live cluster is wired through switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterWiring {
    /// The original shape: one switch up to 8 hosts, then a single-trunk
    /// chain of switches. Cross-switch flows serialize on shared trunks.
    Tree,
    /// The scaling shape: one switch up to 8 hosts, then a two-level
    /// fat tree (leaves + spines) with per-flow trunk spreading.
    Wide,
}

impl ClusterWiring {
    /// Both modes, for parameterized tests.
    pub const ALL: [ClusterWiring; 2] = [ClusterWiring::Tree, ClusterWiring::Wide];

    /// The topology this wiring gives an `n`-host cluster.
    pub fn topology(self, n: usize) -> SwitchTopology {
        match self {
            ClusterWiring::Tree => SwitchTopology::for_cluster(n),
            ClusterWiring::Wide => SwitchTopology::for_cluster_wide(n),
        }
    }
}

/// Result of a live incast run.
#[derive(Debug, Clone)]
pub struct IncastReport {
    /// Senders.
    pub k: usize,
    /// The send window (= reject-queue capacity) each sender ran with.
    pub window: usize,
    /// Peak reject-queue occupancy observed per sender, sampled every
    /// drive round. The paper's Section 4.5 claim under test: this stays
    /// ≤ `window` — and does not grow with `k`.
    pub peak_outstanding: Vec<usize>,
    /// Messages delivered at the receiver (must equal `k × count`).
    pub delivered: u64,
    /// Frames the receiver bounced back to their senders.
    pub rejected: u64,
    /// Aggregate goodput over the wall-clock run, MB/s (2^20).
    pub total_mbs: f64,
    /// Jain's index over per-sender completion rates (deterministic: from
    /// the drive-round index at which each sender's last message landed).
    pub fairness: f64,
}

/// k disjoint neighbor pairs (`2i → 2i+1`) streaming concurrently over a
/// real [`SwitchedCluster`] of `2k` endpoints — one thread per endpoint,
/// one per switch shard. Neighbor pairing keeps most pairs intra-switch on
/// the standard chain shape, so aggregate bandwidth can scale with the
/// pair count the way disjoint crossbar ports do.
pub fn live_parallel_pairs(k: usize, count: usize) -> ScalingReport {
    live_parallel_pairs_wired(k, count, ClusterWiring::Wide)
}

/// [`live_parallel_pairs`] over an explicit [`ClusterWiring`].
pub fn live_parallel_pairs_wired(k: usize, count: usize, wiring: ClusterWiring) -> ScalingReport {
    assert!(k >= 1);
    let n = 2 * k;
    let topo = wiring.topology(n);
    let mut cluster = SwitchedCluster::new(&topo, EndpointConfig::default());
    let counters: Vec<Arc<AtomicU64>> = (0..k).map(|_| Arc::new(AtomicU64::new(0))).collect();
    for (pair, counter) in counters.iter().enumerate() {
        let c = counter.clone();
        cluster.endpoints[2 * pair + 1].register_handler_at(HandlerId(1), move |_, _, _| {
            c.fetch_add(1, Ordering::Relaxed);
        });
    }
    let (endpoints, shards) = cluster.split();
    let switches = SwitchRunner::start(shards);
    let start = Instant::now();
    let payload = [0xA5u8; LIVE_MSG_BYTES];
    let handles: Vec<_> = endpoints
        .into_iter()
        .enumerate()
        .map(|(i, mut ep)| {
            let pair = i / 2;
            let counter = counters[pair].clone();
            std::thread::spawn(move || {
                if i % 2 == 0 {
                    // Sender: blocking-send the stream, then keep servicing
                    // (retransmissions, acks) until the pair completes.
                    let dst = fm_core::NodeId((i + 1) as u16);
                    for _ in 0..count {
                        ep.send(dst, HandlerId(1), &payload);
                    }
                    while (counter.load(Ordering::Relaxed) as usize) < count {
                        ep.extract();
                        std::thread::yield_now();
                    }
                    (pair, None, ep)
                } else {
                    // Receiver: extract until the stream lands, stamp the
                    // pair's completion time, then drain trailing acks.
                    while (counter.load(Ordering::Relaxed) as usize) < count {
                        ep.extract();
                        std::thread::yield_now();
                    }
                    let done = start.elapsed();
                    for _ in 0..20 {
                        ep.extract();
                        std::thread::yield_now();
                    }
                    (pair, Some(done), ep)
                }
            })
        })
        .collect();
    let mut per_pair = vec![Duration::ZERO; k];
    let mut delivered = 0u64;
    for h in handles {
        let (pair, done, ep) = h.join().expect("flow thread panicked");
        if let Some(done) = done {
            per_pair[pair] = done;
            delivered += ep.stats().delivered;
        }
    }
    switches
        .shutdown(Duration::from_secs(10))
        .expect("switch shards join");
    assert_eq!(delivered, (k * count) as u64, "live pairs lost messages");
    let bytes = (LIVE_MSG_BYTES * count) as f64;
    let per_flow_mbs: Vec<f64> = per_pair
        .iter()
        .map(|d| bytes / d.as_secs_f64() / (1u64 << 20) as f64)
        .collect();
    let slowest = per_pair.iter().copied().max().unwrap_or(Duration::ZERO);
    ScalingReport {
        flows: k,
        n: LIVE_MSG_BYTES,
        fairness: jain(&per_flow_mbs),
        total_mbs: bytes * k as f64 / slowest.as_secs_f64() / (1u64 << 20) as f64,
        per_flow_mbs,
    }
}

/// k senders (hosts `1..=k`) blast `count` messages each at host 0 over a
/// real [`SwitchedCluster`], with a receiver deliberately under-provisioned
/// (small receive ring, throttled extract) so return-to-sender bounces
/// actually happen across the switch path. Deterministic single-threaded
/// drive; samples each sender's reject-queue occupancy every round.
pub fn live_incast(k: usize, count: usize, config: EndpointConfig) -> IncastReport {
    live_incast_wired(k, count, config, ClusterWiring::Wide)
}

/// [`live_incast`] over an explicit [`ClusterWiring`].
pub fn live_incast_wired(
    k: usize,
    count: usize,
    config: EndpointConfig,
    wiring: ClusterWiring,
) -> IncastReport {
    assert!(k >= 1);
    let n = k + 1;
    let topo = wiring.topology(n);
    let mut cluster = SwitchedCluster::new(&topo, config);
    let seen: Arc<std::sync::Mutex<HashSet<(u16, u32)>>> = Default::default();
    let counts: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let s2 = seen.clone();
    let c2 = counts.clone();
    cluster.endpoints[0].register_handler_at(HandlerId(1), move |_, src, data| {
        let v = u32::from_le_bytes(data[..4].try_into().unwrap());
        assert!(
            s2.lock().unwrap().insert((src.0, v)),
            "duplicate delivery of {v} from {src:?}"
        );
        c2[src.index()].fetch_add(1, Ordering::Relaxed);
    });
    let mut payload = [0x5Au8; LIVE_MSG_BYTES];
    let mut queued = vec![0u32; n];
    let mut last_seen = vec![0usize; n];
    let mut finish_round = vec![0usize; n];
    let mut peak = vec![0usize; n];
    let start = Instant::now();
    let mut round = 0usize;
    loop {
        round += 1;
        let mut all_sent = true;
        for src in 1..n {
            while (queued[src] as usize) < count {
                payload[..4].copy_from_slice(&queued[src].to_le_bytes());
                match cluster.endpoints[src].try_send(fm_core::NodeId(0), HandlerId(1), &payload) {
                    Ok(()) => queued[src] += 1,
                    Err(_) => break,
                }
            }
            all_sent &= queued[src] as usize == count;
            peak[src] = peak[src].max(cluster.endpoints[src].outstanding());
        }
        // Throttled receiver: a tiny extract budget keeps it overloaded so
        // the reject path stays hot for the whole run.
        cluster.endpoints[0].extract_budget(2);
        for src in 1..n {
            cluster.endpoints[src].service();
        }
        for shard in &mut cluster.shards {
            shard.pump();
        }
        let mut total = 0usize;
        for src in 1..n {
            let got = counts[src].load(Ordering::Relaxed) as usize;
            if got > last_seen[src] {
                last_seen[src] = got;
                finish_round[src] = round;
            }
            total += got;
        }
        if all_sent && total == k * count {
            break;
        }
        assert!(round < 1_000_000, "live incast wedged");
    }
    let elapsed = start.elapsed();
    let rates: Vec<f64> = (1..n)
        .map(|src| count as f64 / finish_round[src] as f64)
        .collect();
    IncastReport {
        k,
        window: config.window,
        peak_outstanding: peak[1..].to_vec(),
        delivered: (k * count) as u64,
        rejected: cluster.endpoints[0].stats().rejected,
        total_mbs: (LIVE_MSG_BYTES * k * count) as f64
            / elapsed.as_secs_f64()
            / (1u64 << 20) as f64,
        fairness: jain(&rates),
    }
}

/// The receiver/sender sizing [`live_incast`] is normally run with: a
/// 32-frame window against an 8-frame receive ring, so K ≥ 1 senders
/// always overrun the receiver and exercise the bounce path.
pub fn incast_config() -> EndpointConfig {
    EndpointConfig {
        window: 32,
        recv_ring: 8,
        retransmit_per_extract: 8,
        ..Default::default()
    }
}

/// Deterministic trunk-capacity measurement: `k` flows all crossing the
/// trunk(s) between two switches (hosts `i → k+i`), with deliberately
/// shallow wire rings so the trunks — not the endpoints — are the
/// bottleneck. Returns the number of single-threaded drive rounds until
/// every flow lands `count` messages.
///
/// Each drive round a trunk ring carries at most `wire_ring` frames, so
/// rounds scale ~`k·count / (wire_ring · effective_trunks)`: wiring
/// `width` parallel trunks divides the round count by roughly the number
/// of trunks the flow hash actually spreads over. Unlike the wall-clock
/// sweeps this is exact and scheduler-independent, which is what makes
/// the multi-trunk speedup CI-gateable.
pub fn rounds_cross_pairs(k: usize, width: usize, count: usize) -> usize {
    assert!(k >= 1 && width >= 1);
    let ports = (k + width).max(8);
    let topo = SwitchTopology::chain_multi(2 * k, k, width, ports);
    let config = EndpointConfig {
        wire_ring: 8,
        ..Default::default()
    };
    let mut cluster = SwitchedCluster::new(&topo, config);
    let counts: Vec<Arc<AtomicU64>> = (0..k).map(|_| Arc::new(AtomicU64::new(0))).collect();
    for (pair, counter) in counts.iter().enumerate() {
        let c = counter.clone();
        cluster.endpoints[k + pair].register_handler_at(HandlerId(1), move |_, _, _| {
            c.fetch_add(1, Ordering::Relaxed);
        });
    }
    let payload = [0x77u8; LIVE_MSG_BYTES];
    let mut queued = vec![0usize; k];
    let mut round = 0usize;
    loop {
        round += 1;
        let mut all_sent = true;
        for (pair, q) in queued.iter_mut().enumerate() {
            while *q < count {
                match cluster.endpoints[pair].try_send(
                    fm_core::NodeId((k + pair) as u16),
                    HandlerId(1),
                    &payload,
                ) {
                    Ok(()) => *q += 1,
                    Err(_) => break,
                }
            }
            all_sent &= *q == count;
        }
        cluster.drive_round();
        if all_sent
            && counts
                .iter()
                .all(|c| c.load(Ordering::Relaxed) as usize == count)
        {
            return round;
        }
        assert!(round < 1_000_000, "cross-pairs wedged at width {width}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pair_matches_two_node_stream() {
        let pairs = parallel_pairs(1, 128, 2000);
        let two_node = crate::sim::run_stream(
            crate::Layer::LanaiStreamed,
            &crate::TestbedConfig::default(),
            128,
            2000,
        );
        let rel = (pairs.total_mbs - two_node.mbs).abs() / two_node.mbs;
        assert!(
            rel < 0.02,
            "event-driven single pair {} vs trajectory {}",
            pairs.total_mbs,
            two_node.mbs
        );
    }

    #[test]
    fn disjoint_pairs_scale_linearly() {
        let one = parallel_pairs(1, 256, 1500);
        let four = parallel_pairs(4, 256, 1500);
        assert!(
            four.total_mbs > 3.8 * one.total_mbs,
            "crossbar must not block disjoint pairs: {} vs 4x{}",
            four.total_mbs,
            one.total_mbs
        );
        assert!(four.fairness > 0.999, "fairness {}", four.fairness);
    }

    #[test]
    fn incast_shares_the_receiver_fairly() {
        let solo = incast(1, 256, 1200);
        let four = incast(4, 256, 1200);
        // Total bounded by the single receiver...
        assert!(
            four.total_mbs <= 1.05 * solo.total_mbs,
            "incast total {} must not exceed one receiver's rate {}",
            four.total_mbs,
            solo.total_mbs
        );
        // ...and close to it (the receiver stays busy).
        assert!(
            four.total_mbs > 0.9 * solo.total_mbs,
            "incast should keep the receiver saturated: {} vs {}",
            four.total_mbs,
            solo.total_mbs
        );
        // Per-flow roughly 1/4 each.
        for f in &four.per_flow_mbs {
            assert!(
                (0.8..1.3).contains(&(f / (solo.total_mbs / 4.0))),
                "per-flow {} vs expected {}",
                f,
                solo.total_mbs / 4.0
            );
        }
        assert!(four.fairness > 0.98, "fairness {}", four.fairness);
    }

    #[test]
    fn live_pairs_deliver_and_report() {
        let r = live_parallel_pairs(2, 300);
        assert_eq!(r.flows, 2);
        assert_eq!(r.per_flow_mbs.len(), 2);
        assert!(r.total_mbs > 0.0);
        assert!(r.fairness > 0.0 && r.fairness <= 1.0);
    }

    #[test]
    fn live_incast_keeps_reject_queue_within_window() {
        let r = live_incast(3, 120, incast_config());
        assert_eq!(r.delivered, 360);
        assert!(r.rejected > 0, "under-provisioned receiver must bounce");
        for (i, &p) in r.peak_outstanding.iter().enumerate() {
            assert!(p <= r.window, "sender {i} peak {p} > window {}", r.window);
        }
    }
}
