//! Property tests for the switch-routed runtime.
//!
//! Invariants the unit tests can only spot-check:
//!
//! * over a *random* multigraph of switches — a spanning tree with random
//!   parallel-trunk widths — any set of (src, dst) streams is delivered
//!   exactly once and in order per source: the ECMP route tables, the
//!   per-flow hash spread, store-and-forward stashes and per-source
//!   sequence windows compose correctly on every topology, not just the
//!   ones we drew by hand;
//! * random *fat trees* route every ordered (src, dst) pair, and the
//!   trunk choice is a stable pure function of the flow — so per-source
//!   ordering survives multi-path routing;
//! * incast with a random sender count K and random window/ring sizing
//!   keeps every sender's reject queue within its window — the paper's
//!   Section 4.5 claim that sender memory is bounded by *outstanding*
//!   packets — under both the tree and the fat-tree cluster wirings;
//! * the shards' deficit-round-robin scheduler never drives a deficit
//!   negative, and no backlogged input port starves while others stream.
//!
//! Each case is a full deterministic cluster run, so cases are kept small
//! (≤ 12 hosts, tens of messages per stream) to stay fast at the default
//! 64 cases.

use fm_core::{EndpointConfig, HandlerId, NodeId, SwitchConfig, SwitchTopology, SwitchedCluster};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-stream delivery log: (src, dst) → payload sequence as received.
type StreamLog = Arc<Mutex<HashMap<(u16, u16), Vec<u32>>>>;

/// Generous port count so no drawn topology trips the oversubscription
/// check: at most 4 switches (≤ 3 spanning trunks, each drawn at width
/// ≤ 2) and ≤ 12 hosts fit in 16 ports.
const PORTS: usize = 16;

/// A random multigraph: switch `s > 0` attaches to a random earlier
/// switch with `widths[s-1]` parallel trunks (so the trunk set always
/// spans, and width > 1 exercises the multi-trunk hash spread), every
/// switch hosts at least one endpoint, and the extra hosts scatter
/// wherever their pick lands.
fn random_topology(
    switches: usize,
    parent_picks: &[u64],
    widths: &[usize],
    extra_hosts: &[u64],
) -> SwitchTopology {
    let mut host_switch: Vec<usize> = (0..switches).collect();
    for &p in extra_hosts {
        host_switch.push(p as usize % switches);
    }
    let trunks: Vec<(usize, usize)> = (1..switches)
        .flat_map(|s| {
            let parent = parent_picks[s - 1] as usize % s;
            std::iter::repeat_n((parent, s), widths[s - 1])
        })
        .collect();
    SwitchTopology::custom(host_switch, trunks, PORTS)
}

proptest! {
    #[test]
    fn random_multigraph_delivers_every_stream_in_order(
        switches in 1usize..=4,
        parent_picks in proptest::collection::vec(0u64..1_000_000, 3),
        widths in proptest::collection::vec(1usize..=2, 3),
        extra_hosts in proptest::collection::vec(0u64..1_000_000, 0..=8),
        pair_picks in proptest::collection::vec(0u64..1_000_000, 1..=6),
    ) {
        const MSGS: u32 = 24;
        let topo = random_topology(switches, &parent_picks, &widths, &extra_hosts);
        let n = topo.hosts();
        if n < 2 {
            return Ok(()); // a 1-host tree has no streams to check
        }
        // Derive (src, dst) streams from the picks; dst lands anywhere
        // but src. Duplicate pairs collapse to one stream.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for &p in &pair_picks {
            let src = p as usize % n;
            let dst = (src + 1 + (p as usize >> 16) % (n - 1)) % n;
            if !pairs.contains(&(src, dst)) {
                pairs.push((src, dst));
            }
        }
        let mut cluster = SwitchedCluster::new(&topo, EndpointConfig::default());
        let got: StreamLog = Arc::new(Mutex::new(HashMap::new()));
        for ep in &mut cluster.endpoints {
            let got = got.clone();
            let me = ep.node_id();
            ep.register_handler_at(HandlerId(1), move |_, src, data| {
                got.lock()
                    .entry((src.0, me.0))
                    .or_default()
                    .push(u32::from_le_bytes(data.try_into().unwrap()));
            });
        }
        let total = pairs.len() * MSGS as usize;
        let mut next = vec![0u32; pairs.len()];
        let mut iters = 0usize;
        loop {
            iters += 1;
            prop_assert!(iters < 50_000, "random multigraph wedged: {topo:?}");
            let mut all_sent = true;
            for (pi, &(src, dst)) in pairs.iter().enumerate() {
                while next[pi] < MSGS {
                    match cluster.endpoints[src].try_send(
                        NodeId(dst as u16),
                        HandlerId(1),
                        &next[pi].to_le_bytes(),
                    ) {
                        Ok(()) => next[pi] += 1,
                        Err(_) => break,
                    }
                }
                all_sent &= next[pi] == MSGS;
            }
            cluster.drive_round();
            if all_sent && got.lock().values().map(Vec::len).sum::<usize>() == total {
                break;
            }
        }
        let got = got.lock();
        prop_assert!(got.len() == pairs.len(), "stream count {} != {}", got.len(), pairs.len());
        for (&(src, dst), stream) in got.iter() {
            prop_assert!(
                stream.len() == MSGS as usize,
                "stream {src}->{dst} delivered {} of {MSGS}", stream.len()
            );
            for (k, &v) in stream.iter().enumerate() {
                prop_assert!(v == k as u32, "stream {src}->{dst} out of order at {k}: {v}");
            }
        }
    }

    #[test]
    fn incast_reject_queue_bounded_for_any_k(
        k in 1usize..=10,
        window in 4usize..=32,
        recv_ring in 2usize..=8,
        wide in any::<bool>(),
    ) {
        const PER_SENDER: u32 = 40;
        // The invariant must hold under both cluster wirings — the
        // single-trunk tree and the multi-path fat tree — not just the
        // topology the old suite silently pinned.
        let topo = if wide {
            SwitchTopology::for_cluster_wide(k + 1)
        } else {
            SwitchTopology::for_cluster(k + 1)
        };
        let config = EndpointConfig {
            window,
            recv_ring,
            retransmit_per_extract: 4,
            ..Default::default()
        };
        let mut cluster = SwitchedCluster::new(&topo, config);
        let got: Arc<Mutex<HashMap<u16, Vec<u32>>>> = Arc::new(Mutex::new(HashMap::new()));
        let g = got.clone();
        cluster.endpoints[0].register_handler_at(HandlerId(1), move |_, src, data| {
            g.lock()
                .entry(src.0)
                .or_default()
                .push(u32::from_le_bytes(data.try_into().unwrap()));
        });
        let total = k * PER_SENDER as usize;
        let mut next = vec![0u32; k + 1];
        let mut peak = 0usize;
        let mut iters = 0usize;
        loop {
            iters += 1;
            prop_assert!(iters < 100_000, "incast k={k} wedged");
            let mut all_sent = true;
            for (src, nx) in next.iter_mut().enumerate().skip(1) {
                while *nx < PER_SENDER {
                    match cluster.endpoints[src].try_send(
                        NodeId(0),
                        HandlerId(1),
                        &nx.to_le_bytes(),
                    ) {
                        Ok(()) => *nx += 1,
                        Err(_) => break,
                    }
                }
                all_sent &= *nx == PER_SENDER;
                // The invariant under test: however many senders pile on
                // and however small the receiver's ring, no sender ever
                // holds more than its window of reject-queue slots.
                peak = peak.max(cluster.endpoints[src].outstanding());
                prop_assert!(
                    cluster.endpoints[src].outstanding() <= window,
                    "sender {src} reject queue {} > window {window}",
                    cluster.endpoints[src].outstanding()
                );
            }
            // Starved receiver keeps the overload (and bounces) going.
            cluster.endpoints[0].extract_budget(2);
            for src in 1..=k {
                cluster.endpoints[src].service();
            }
            for shard in &mut cluster.shards {
                shard.pump();
            }
            if all_sent && got.lock().values().map(Vec::len).sum::<usize>() == total {
                break;
            }
        }
        prop_assert!(peak <= window, "peak {peak} > window {window}");
        let got = got.lock();
        for (src, stream) in got.iter() {
            prop_assert!(
                stream.len() == PER_SENDER as usize,
                "sender {src} delivered {} of {PER_SENDER}", stream.len()
            );
            for (i, &v) in stream.iter().enumerate() {
                prop_assert!(v == i as u32, "sender {src} out of order at {i}: {v}");
            }
        }
    }

    #[test]
    fn random_fat_tree_routes_every_pair_in_order(
        hosts in 2usize..=9,
        per_leaf in 1usize..=3,
        spines in 1usize..=3,
    ) {
        const MSGS: u32 = 6;
        let leaves = hosts.div_ceil(per_leaf);
        let ports = (per_leaf + spines).max(leaves).max(2);
        let topo = SwitchTopology::fat_tree(hosts, per_leaf, spines, ports);
        // Every ordered (src, dst) pair is a stream: the ECMP candidate
        // tables must route all of them, whichever spine each flow hashes
        // to, and per-source ordering must survive the spread.
        let pairs: Vec<(usize, usize)> = (0..hosts)
            .flat_map(|s| (0..hosts).filter(move |&d| d != s).map(move |d| (s, d)))
            .collect();
        let mut cluster = SwitchedCluster::new(&topo, EndpointConfig::default());
        let got: StreamLog = Arc::new(Mutex::new(HashMap::new()));
        for ep in &mut cluster.endpoints {
            let got = got.clone();
            let me = ep.node_id();
            ep.register_handler_at(HandlerId(1), move |_, src, data| {
                got.lock()
                    .entry((src.0, me.0))
                    .or_default()
                    .push(u32::from_le_bytes(data.try_into().unwrap()));
            });
        }
        let total = pairs.len() * MSGS as usize;
        let mut next = vec![0u32; pairs.len()];
        let mut iters = 0usize;
        loop {
            iters += 1;
            prop_assert!(iters < 50_000, "fat tree wedged: {topo:?}");
            let mut all_sent = true;
            for (pi, &(src, dst)) in pairs.iter().enumerate() {
                while next[pi] < MSGS {
                    match cluster.endpoints[src].try_send(
                        NodeId(dst as u16),
                        HandlerId(1),
                        &next[pi].to_le_bytes(),
                    ) {
                        Ok(()) => next[pi] += 1,
                        Err(_) => break,
                    }
                }
                all_sent &= next[pi] == MSGS;
            }
            cluster.drive_round();
            if all_sent && got.lock().values().map(Vec::len).sum::<usize>() == total {
                break;
            }
        }
        let got = got.lock();
        prop_assert!(got.len() == pairs.len(), "pair count {} != {}", got.len(), pairs.len());
        for (&(src, dst), stream) in got.iter() {
            prop_assert!(
                stream.len() == MSGS as usize,
                "pair {src}->{dst} delivered {} of {MSGS}", stream.len()
            );
            for (k, &v) in stream.iter().enumerate() {
                prop_assert!(v == k as u32, "pair {src}->{dst} out of order at {k}: {v}");
            }
        }
    }

    #[test]
    fn fat_tree_trunk_choice_is_stable_per_flow(
        hosts in 2usize..=12,
        per_leaf in 1usize..=3,
        spines in 1usize..=3,
    ) {
        let leaves = hosts.div_ceil(per_leaf);
        let ports = (per_leaf + spines).max(leaves).max(2);
        let topo = SwitchTopology::fat_tree(hosts, per_leaf, spines, ports);
        for src in 0..hosts {
            for dst in (0..hosts).filter(|&d| d != src) {
                let (s, d) = (NodeId(src as u16), NodeId(dst as u16));
                let to = topo.switch_of(d);
                for from in (0..topo.switches()).filter(|&f| f != to) {
                    let choices = topo.route_choices(from, to);
                    prop_assert!(!choices.is_empty(), "no route {from}->{to}");
                    // The pick is a pure function of the flow — the same
                    // every time it is asked — and always one of the
                    // equal-cost candidates. That determinism is what
                    // keeps per-source ordering intact across multi-path
                    // routing: a flow never migrates between trunks.
                    let pick = topo.flow_link(from, to, s, d);
                    prop_assert!(pick == topo.flow_link(from, to, s, d));
                    prop_assert!(choices.contains(&pick), "pick {pick} not in {choices:?}");
                    prop_assert!(pick < topo.links_of(from).len());
                }
            }
        }
    }

    #[test]
    fn drr_deficits_nonnegative_and_no_backlogged_input_starves(
        k in 2usize..=7,
        window in 4usize..=16,
        quantum in 32usize..=512,
        min_batch in 1usize..=4,
    ) {
        const PER_SENDER: u32 = 48;
        // One switch, K senders incasting host 0: every sender's uplink is
        // a distinct shard input, contending for the same downlink.
        let topo = SwitchTopology::single(k + 1, 16);
        let config = EndpointConfig {
            window,
            recv_ring: 4,
            retransmit_per_extract: 4,
            ..Default::default()
        };
        let switch = SwitchConfig {
            min_batch,
            max_batch: min_batch.max(8),
            quantum,
            ..Default::default()
        };
        let mut cluster = SwitchedCluster::with_switch_config(&topo, config, switch);
        let got: Arc<Mutex<HashMap<u16, Vec<u32>>>> = Arc::new(Mutex::new(HashMap::new()));
        let g = got.clone();
        cluster.endpoints[0].register_handler_at(HandlerId(1), move |_, src, data| {
            g.lock()
                .entry(src.0)
                .or_default()
                .push(u32::from_le_bytes(data.try_into().unwrap()));
        });
        let total = k * PER_SENDER as usize;
        let mut next = vec![0u32; k + 1];
        let mut last_min = 0u64;
        let mut stalled_pumps = 0usize;
        let mut iters = 0usize;
        loop {
            iters += 1;
            prop_assert!(iters < 100_000, "drr incast k={k} wedged");
            let mut all_sent = true;
            for (src, nx) in next.iter_mut().enumerate().skip(1) {
                while *nx < PER_SENDER {
                    match cluster.endpoints[src].try_send(
                        NodeId(0),
                        HandlerId(1),
                        &nx.to_le_bytes(),
                    ) {
                        Ok(()) => *nx += 1,
                        Err(_) => break,
                    }
                }
                all_sent &= *nx == PER_SENDER;
            }
            cluster.endpoints[0].extract_budget(2);
            for src in 1..=k {
                cluster.endpoints[src].service();
            }
            for shard in &mut cluster.shards {
                shard.pump();
            }
            let shard = &cluster.shards[0];
            // Quantum accounting: a frame is only forwarded when the
            // deficit covers it, so no pump may leave a deficit negative.
            for (i, d) in shard.deficits().iter().enumerate() {
                prop_assert!(*d >= 0, "input {i} deficit {d} went negative");
            }
            // Bounded progress: while every sender is still backlogged
            // (messages left to submit), the input that has forwarded the
            // least must advance within a bounded number of pumps — DRR
            // may not park a port while its neighbours stream.
            let forwarded = shard.input_forwarded();
            let min_fwd = forwarded[1..=k].iter().copied().min().unwrap();
            if next.iter().skip(1).any(|&nx| nx < PER_SENDER) {
                if min_fwd > last_min {
                    stalled_pumps = 0;
                } else {
                    stalled_pumps += 1;
                }
                prop_assert!(
                    stalled_pumps < 2_000,
                    "slowest input starved for {stalled_pumps} pumps: {forwarded:?}"
                );
            }
            last_min = min_fwd;
            if all_sent && got.lock().values().map(Vec::len).sum::<usize>() == total {
                break;
            }
        }
        // Every sender's stream crossed its own input port — no port was
        // bypassed or double-served by the scheduler's bookkeeping.
        let forwarded = cluster.shards[0].input_forwarded();
        for (i, f) in forwarded.iter().enumerate().skip(1) {
            prop_assert!(
                *f >= PER_SENDER as u64,
                "input {i} forwarded {f} < {PER_SENDER}"
            );
        }
        let got = got.lock();
        for (src, stream) in got.iter() {
            prop_assert!(
                stream.len() == PER_SENDER as usize,
                "sender {src} delivered {} of {PER_SENDER}", stream.len()
            );
            for (i, &v) in stream.iter().enumerate() {
                prop_assert!(v == i as u32, "sender {src} out of order at {i}: {v}");
            }
        }
    }
}
