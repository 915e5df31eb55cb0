//! The scale campaign, run on the shipped engine.
//!
//! FM's Section 4.5 claims that buffering grows with a node's outstanding
//! frames, not with the cluster. Each scenario here — [`incast`] (and
//! overload), [`uniform`] pairs, [`broadcast`], [`churn`] — is a real
//! [`SwitchedCluster`] (`EndpointCore`s, `SwitchShard` DRR, route tables,
//! the virtual-tick clock) driven by one deterministic loop, [`Drive`], with
//! time counted in rounds: every number is a pure function of the arguments.
//! Per-peer state is dense by `NodeId` and every shard keeps a route row per
//! host, so a round costs O(n²): thousands of endpoints, not millions.

use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;
use std::sync::{Arc, Mutex, MutexGuard};

use fm_core::{
    EndpointConfig, EndpointStats, HandlerId, NodeId, Outbox, SendError, SwitchTopology,
    SwitchedCluster,
};
use fm_des::rng::Xoshiro256;
use fm_metrics::jain;
use fm_telemetry::Histogram;

use crate::scaling::{incast_config, LIVE_MSG_BYTES};

/// Handlers of point-to-point messages and of broadcast frames.
const DATA: HandlerId = HandlerId(1);
const BCAST: HandlerId = HandlerId(2);
/// The receiver [`Drive::throttle_every`] slows, and its messages per round.
const SLOW: usize = 0;
const SLOW_BUDGET: usize = 2;

/// The sizing of uniform pairs, broadcast and churn: [`incast_config`] on
/// 64-frame wire rings with tracing off, since the default rings would hold
/// most of a 4 096-endpoint run's memory. Incast keeps [`incast_config`]
/// whole: on 64-frame rings its 15 → 1 Jain index falls from 0.92 to 0.61.
pub fn campaign_config() -> EndpointConfig {
    EndpointConfig {
        wire_ring: 64,
        trace_one_in: 0,
        trace_capacity: 16,
        ..incast_config()
    }
}

/// Churn's timers: short enough that a silent partner is declared dead
/// within a few thousand rounds, capped above the shards' 512-pump stash
/// age-out so a live flow stuck behind a dead host's frames survives it.
pub fn churn_config() -> EndpointConfig {
    EndpointConfig {
        rto_initial: 32,
        rto_max: 1024,
        retry_budget: 6,
        ..campaign_config()
    }
}

/// The most rounds a sender takes to declare a silent peer dead: `rto_initial`,
/// then `retry_budget` doubled timeouts capped at `rto_max`, each up to ¼ longer.
pub fn detect_bound(config: &EndpointConfig) -> u64 {
    (1..=config.retry_budget).fold(config.rto_initial, |t, i| {
        let rto = (config.rto_initial.saturating_mul(1 << i.min(40))).min(config.rto_max);
        t + rto + rto / 4
    })
}

/// What the handlers saw, shared by every endpoint of one [`Drive`].
#[derive(Debug, Default)]
pub struct Ledger {
    pub round: u64,
    /// The churn epoch: a message sent in an earlier one arrives `late`.
    pub epoch: u32,
    pub delivered: u64,
    pub late: u64,
    /// Repeated or overtaking flow deliveries; broadcast frames reaching a rank twice.
    pub violations: u64,
    /// Per source: messages delivered and the round of the last.
    pub from: Vec<(u64, u64)>,
    /// Send-to-handler latency, in rounds.
    pub latency: Histogram,
    /// The highest round a broadcast frame carried.
    pub depth: u32,
    last: HashMap<(u16, u16), u32>,
}

fn on_data(l: &mut Ledger, src: NodeId, me: NodeId, data: &[u8]) {
    let word = |i: usize| u32::from_le_bytes(data[4 * i..4 * i + 4].try_into().expect("4 bytes"));
    let (seq, sent, epoch) = (word(0), word(1), word(2));
    if l.last.insert((src.0, me.0), seq).is_some_and(|p| seq <= p) {
        l.violations += 1;
    }
    if epoch < l.epoch {
        l.late += 1;
        return;
    }
    let round = l.round;
    l.delivered += 1;
    l.from[src.index()] = (l.from[src.index()].0 + 1, round);
    l.latency.record(round - sent as u64);
}

/// A rank reached in round `r` forwards to `me + 2^j` for every `j ≥ r`
/// inside the cluster, each frame carrying its round `j + 1`.
fn on_bcast(l: &mut Ledger, out: &mut Outbox, me: usize, data: &[u8]) {
    if l.last.insert((u16::MAX, me as u16), 0).is_some() {
        l.violations += 1;
        return;
    }
    l.delivered += 1;
    l.depth = l.depth.max(data[0] as u32);
    let n = l.from.len();
    for j in data[0] as usize.. {
        match me.checked_add(1 << j).filter(|&c| c < n) {
            Some(child) => out.send_copy(NodeId(child as u16), BCAST, &[j as u8 + 1]),
            None => break,
        }
    }
}

/// Peak occupancies over a run: the bounded-memory evidence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Peaks {
    /// Largest send window (reject queue) any sender held.
    pub outstanding: usize,
    /// Deepest receive ring of the throttled receiver.
    pub ring: usize,
    /// Most frames one sampled shard poll pulled off an input.
    pub pull: u64,
    /// Most frames parked in shard stashes at once, fabric-wide.
    pub stash: usize,
}

fn lock(ledger: &Mutex<Ledger>) -> MutexGuard<'_, Ledger> {
    ledger.lock().expect("the ledger's handlers never panic")
}

/// FNV-1a over a report's `Debug` form, taken while its digest is zero.
fn digest(report: &impl Debug) -> u64 {
    let text = format!("{report:?}");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The one drive loop every round-driven run shares.
pub struct Drive {
    pub cluster: SwitchedCluster,
    ledger: Arc<Mutex<Ledger>>,
    /// Messages each endpoint has yet to send, as (destination, flow seq).
    queue: Vec<VecDeque<(NodeId, u32)>>,
    next_seq: HashMap<(u16, u16), u32>,
    /// Crashed endpoints: never driven; their frames age out of the shards.
    pub down: Vec<bool>,
    /// Throttle endpoint 0 to two messages on every `every`-th round.
    pub throttle_every: Option<u64>,
    pub round: u64,
    pub peaks: Peaks,
    /// [`detect_bound`]: no live sender waits on a peer longer than this.
    stall: u64,
}

impl Drive {
    pub fn new(topo: &SwitchTopology, config: EndpointConfig) -> Drive {
        let (n, stall) = (topo.hosts(), detect_bound(&config));
        let mut cluster = SwitchedCluster::new(topo, config);
        let ledger: Arc<Mutex<Ledger>> = Arc::default();
        lock(&ledger).from = vec![(0, 0); n];
        for ep in &mut cluster.endpoints {
            let (me, l) = (ep.node_id(), ledger.clone());
            ep.register_handler_at(DATA, move |_, src, data| {
                on_data(&mut lock(&l), src, me, data)
            });
            let l = ledger.clone();
            ep.register_handler_at(BCAST, move |out, _, data| {
                on_bcast(&mut lock(&l), out, me.index(), data)
            });
        }
        Drive {
            cluster,
            ledger,
            queue: vec![VecDeque::new(); n],
            next_seq: HashMap::new(),
            down: vec![false; n],
            throttle_every: None,
            round: 0,
            peaks: Peaks::default(),
            stall,
        }
    }

    pub fn ledger(&self) -> MutexGuard<'_, Ledger> {
        lock(&self.ledger)
    }

    /// Queue `count` messages from `src` to `dst`, sent as the window allows.
    pub fn enqueue(&mut self, src: usize, dst: usize, count: usize) {
        let next = self.next_seq.entry((src as u16, dst as u16)).or_insert(0);
        for _ in 0..count {
            self.queue[src].push_back((NodeId(dst as u16), *next));
            *next += 1;
        }
    }

    /// One round: top up every live sender's window, extract every live
    /// endpoint once, pump every shard once. Returns handlers run plus
    /// frames the shards moved.
    pub fn step(&mut self) -> usize {
        self.round += 1;
        let mut payload = [0u8; LIVE_MSG_BYTES];
        payload[4..8].copy_from_slice(&(self.round as u32).to_le_bytes());
        self.ledger().round = self.round;
        payload[8..12].copy_from_slice(&self.ledger().epoch.to_le_bytes());
        let endpoints = &mut self.cluster.endpoints;
        let senders = endpoints.iter_mut().zip(&mut self.queue).zip(&self.down);
        for ((ep, q), _) in senders.filter(|((_, q), &down)| !q.is_empty() && !down) {
            while let Some(&(dst, seq)) = q.front() {
                payload[..4].copy_from_slice(&seq.to_le_bytes());
                match ep.try_send(dst, DATA, &payload) {
                    Err(SendError::WouldBlock) => break,
                    sent => sent.expect("a campaign message to a live peer"),
                }
                q.pop_front();
            }
            self.peaks.outstanding = self.peaks.outstanding.max(ep.outstanding());
        }
        let mut work = 0;
        for (i, ep) in endpoints.iter_mut().enumerate() {
            work += match self.throttle_every.filter(|_| i == SLOW) {
                _ if self.down[i] => 0,
                None => ep.extract(),
                Some(every) if self.round.is_multiple_of(every) => ep.extract_budget(SLOW_BUDGET),
                Some(_) => 0,
            };
        }
        let pumped: usize = self.cluster.shards.iter_mut().map(|s| s.pump()).sum();
        if self.throttle_every.is_some() {
            let ring = self.cluster.endpoints[SLOW].ring_len();
            self.peaks.ring = self.peaks.ring.max(ring);
        }
        let shards = self.cluster.shards.iter().filter(|s| !s.is_idle());
        let stash = shards.map(|s| s.stashed()).sum();
        self.peaks.stash = self.peaks.stash.max(stash);
        work + pumped
    }

    fn quiet(&self) -> bool {
        let mut live = self.cluster.endpoints.iter().zip(&self.down);
        live.all(|(e, &down)| down || e.is_quiescent())
    }

    /// Step until nothing is queued and `done` holds, or nothing more can happen:
    /// nothing queued and a round with no work on quiescent live endpoints, or
    /// no delivery for [`detect_bound`] rounds. Callers read any shortfall.
    pub fn run_until(&mut self, mut done: impl FnMut(&Drive) -> bool) {
        let mut last = (self.ledger().delivered, self.round);
        loop {
            let work = self.step();
            let drained = self.queue.iter().all(VecDeque::is_empty);
            if drained && done(self) {
                return;
            }
            if self.ledger().delivered != last.0 {
                last = (self.ledger().delivered, self.round);
            }
            if (drained && work == 0 && self.quiet()) || self.round - last.1 > self.stall {
                return;
            }
        }
    }

    /// Run until nothing more can happen; true if every live endpoint is
    /// then quiescent, parked frames included.
    pub fn settle(&mut self) -> bool {
        self.run_until(|_| false);
        self.quiet()
    }

    /// One stats field summed over every endpoint.
    pub fn sum(&self, field: impl Fn(&EndpointStats) -> u64) -> u64 {
        let eps = self.cluster.endpoints.iter();
        eps.map(|e| field(&e.stats())).sum()
    }

    fn load(&self, senders: &[usize], msgs: u64) -> LoadReport {
        let l = self.ledger();
        let rate = |&s: &usize| l.from[s].0 as f64 / l.from[s].1.max(1) as f64;
        let shards = &self.cluster.shards;
        let pull = shards.iter().map(|s| s.occupancy_histogram().max());
        let mut r = LoadReport {
            msgs,
            delivered: l.delivered,
            violations: l.violations,
            dups: self.sum(|s| s.duplicates),
            rejected: self.sum(|s| s.rejected),
            timed_out: shards.iter().map(|s| s.stats.timed_out).sum(),
            rounds: self.round,
            fairness: jain(&senders.iter().map(rate).collect::<Vec<_>>()),
            p50_rounds: l.latency.quantile(0.5),
            p99_rounds: l.latency.quantile(0.99),
            depth: l.depth,
            peaks: Peaks {
                pull: pull.max().unwrap_or(0),
                ..self.peaks
            },
            digest: 0,
        };
        r.digest = digest(&r);
        r
    }
}

/// Outcome of a scenario's messages.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub msgs: u64,
    pub delivered: u64,
    /// See [`Ledger::violations`]; exactly once means 0.
    pub violations: u64,
    /// Copies the receivers suppressed as duplicates.
    pub dups: u64,
    pub rejected: u64,
    /// Stashed frames the shards dropped after their output stayed full.
    pub timed_out: u64,
    /// Rounds until the last delivery, and delivery latency in rounds.
    pub rounds: u64,
    pub p50_rounds: u64,
    pub p99_rounds: u64,
    /// The highest round a broadcast frame carried (0 for the others).
    pub depth: u32,
    /// Jain's index over the senders' completion rates (messages per round
    /// until their last delivery).
    pub fairness: f64,
    pub peaks: Peaks,
    pub digest: u64,
}

/// `count` messages over each `(src, dst)` flow, driven until all land.
pub fn run_flows(mut d: Drive, flows: &[(usize, usize)], count: usize) -> LoadReport {
    flows
        .iter()
        .for_each(|&(src, dst)| d.enqueue(src, dst, count));
    let msgs = (flows.len() * count) as u64;
    d.run_until(|d| d.ledger().delivered == msgs);
    let senders: Vec<usize> = flows.iter().map(|f| f.0).collect();
    d.load(&senders, msgs)
}

/// `k` senders (hosts `1..=k`) send `count` messages each to host 0, which
/// extracts at most two a round, on every `every`-th round.
pub fn incast_on(mut d: Drive, k: usize, count: usize, every: u64) -> LoadReport {
    d.throttle_every = Some(every);
    let flows: Vec<(usize, usize)> = (1..=k).map(|s| (s, 0)).collect();
    run_flows(d, &flows, count)
}

/// [`incast_on`] the `n`-host fat tree with [`incast_config`]: `every` 1
/// is the live incast, 8 sustained overload.
pub fn incast(n: usize, k: usize, count: usize, every: u64) -> LoadReport {
    let topo = SwitchTopology::for_cluster_wide(n);
    incast_on(Drive::new(&topo, incast_config()), k, count, every)
}

/// Seeded random disjoint pairs over the `n`-host fat tree, both sides
/// sending `count` messages to each other at once.
pub fn uniform(n: usize, count: usize, seed: u64) -> LoadReport {
    let mut perm: Vec<usize> = (0..n).collect();
    Xoshiro256::seed_from_u64(seed ^ 0x756e_6966_6f72_6d01).shuffle(&mut perm);
    let both_ways = |p: &[usize]| [(p[0], p[1]), (p[1], p[0])];
    let flows: Vec<(usize, usize)> = perm.chunks_exact(2).flat_map(both_ways).collect();
    let topo = SwitchTopology::for_cluster_wide(n);
    run_flows(Drive::new(&topo, campaign_config()), &flows, count)
}

/// Host 0 broadcasts one frame to the `n`-host fat tree along a binomial
/// tree: its round-`j+1` frame goes to rank `2^j`, and every rank forwards
/// in each later round. `depth` reports the highest round that arrived.
pub fn broadcast(n: usize) -> LoadReport {
    let mut d = Drive::new(&SwitchTopology::for_cluster_wide(n), campaign_config());
    for j in (0..usize::BITS).take_while(|&j| 1usize << j < n) {
        d.cluster.endpoints[0]
            .try_send(NodeId(1 << j), BCAST, &[j as u8 + 1])
            .expect("log2(n) frames fit the window");
    }
    d.run_until(|d| d.ledger().delivered + 1 == n as u64);
    d.load(&[], n as u64 - 1)
}

/// Outcome of a churn run.
#[derive(Debug, Clone, Default)]
pub struct ChurnReport {
    pub participants: usize,
    pub epochs: u32,
    /// Messages live participants sent: delivered, or abandoned to a down
    /// partner.
    pub enqueued: u64,
    pub delivered: u64,
    pub abandoned: u64,
    /// Every epoch delivered all it could and its abandoned messages equal
    /// the senders' own count of messages lost to dead peers.
    pub accounting_ok: bool,
    /// Abandoned messages a revived endpoint drained before its reset.
    pub late: u64,
    pub violations: u64,
    /// Copies suppressed as duplicates during the epochs' traffic.
    pub dups: u64,
    /// Dead peers declared, against live senders whose partner was down.
    pub dead_detections: u64,
    pub expected_detections: u64,
    pub max_detect_rounds: u64,
    pub detect_bound: u64,
    /// Every settle, the last after the final revival, ended with every
    /// live participant quiescent (`recv_buffered() == 0`).
    pub quiescent: bool,
    pub rounds: u64,
    pub digest: u64,
}

/// Churn over the first `participants` hosts of the `n`-host fat tree,
/// paired `h ↔ h ± participants/2`, for `epochs` epochs of `count`
/// messages each way. Each epoch a seeded tenth of the participants is
/// down; a live partner must declare it dead within [`detect_bound`]
/// rounds. A revived endpoint first drains what reached its downlink
/// while it was down (late), then both sides reset the pair's streams.
pub fn churn(n: usize, participants: usize, epochs: u32, count: usize, seed: u64) -> ChurnReport {
    assert!(participants >= 4 && participants.is_multiple_of(2) && participants <= n);
    // Every epoch's messages fit the window, so no send is ever refused.
    assert!(count <= churn_config().window);
    let config = churn_config();
    let mut d = Drive::new(&SwitchTopology::for_cluster_wide(n), config);
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x6368_7572_6e00_0001);
    let half = participants / 2;
    let partner = |h: usize| if h < half { h + half } else { h - half };
    let tally = |d: &Drive| {
        let lost = d.sum(|s| s.unreachable_drops);
        [d.ledger().delivered, lost, d.sum(|s| s.duplicates)]
    };
    let mut r = ChurnReport {
        participants,
        epochs,
        accounting_ok: true,
        quiescent: true,
        detect_bound: detect_bound(&config),
        ..ChurnReport::default()
    };
    let mut down: Vec<usize> = Vec::new();
    for epoch in 0..=epochs {
        d.ledger().epoch = epoch;
        down.iter().for_each(|&h| d.down[h] = false);
        r.quiescent &= d.settle();
        for &h in &down {
            d.cluster.endpoints[h].reset_peer(NodeId(partner(h) as u16));
            d.cluster.endpoints[partner(h)].reset_peer(NodeId(h as u16));
        }
        if epoch == epochs {
            break;
        }
        down.clear();
        for _ in 0..(participants / 10).max(1) {
            let h = rng.next_below(participants as u64) as usize;
            if !std::mem::replace(&mut d.down[h], true) {
                down.push(h);
            }
        }
        let live: Vec<usize> = (0..participants).filter(|&h| !d.down[h]).collect();
        let mut pending = live.clone();
        pending.retain(|&h| d.down[partner(h)]);
        let expect = (count * (live.len() - pending.len())) as u64;
        r.expected_detections += pending.len() as u64;
        let before = tally(&d);
        live.iter().for_each(|&h| d.enqueue(h, partner(h), count));
        let (start, mut slowest) = (d.round, 0);
        d.run_until(|d| {
            pending.retain(|&h| {
                let dead = d.cluster.endpoints[h].is_peer_dead(NodeId(partner(h) as u16));
                slowest = slowest.max(if dead { d.round - start } else { 0 });
                !dead
            });
            pending.is_empty() && d.ledger().delivered - before[0] == expect
        });
        r.quiescent &= d.settle();
        let after = tally(&d);
        let [delivered, lost, dups] = [0, 1, 2].map(|i| after[i] - before[i]);
        let sent = (count * live.len()) as u64;
        r.accounting_ok &= delivered == expect && lost == sent - delivered;
        r.enqueued += sent;
        r.dups += dups;
        r.max_detect_rounds = r.max_detect_rounds.max(slowest);
    }
    let l = d.ledger();
    (r.delivered, r.late, r.violations) = (l.delivered, l.late, l.violations);
    r.abandoned = r.enqueued - r.delivered;
    r.dead_detections = d.sum(|s| s.dead_peers);
    r.rounds = d.round;
    r.digest = digest(&r);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::SwitchConfig;

    fn assert_bounded(r: &LoadReport, config: EndpointConfig) {
        let batch = SwitchConfig::default().max_batch as u64;
        let p = r.peaks;
        assert!(p.outstanding <= config.window && p.ring <= config.recv_ring && p.pull <= batch);
    }

    #[test]
    fn incast_is_exactly_once_fair_and_bounded_and_overload_is_paced() {
        for k in [2, 4, 8] {
            let r = incast(k + 1, k, 50, 1);
            assert_eq!((r.delivered, r.violations, r.dups), (50 * k as u64, 0, 0));
            assert!(r.rejected > 0, "k={k} incast must bounce");
            assert!(r.fairness >= 0.8, "k={k} fairness {}", r.fairness);
            assert_bounded(&r, incast_config());
        }
        let r = incast(9, 8, 25, 8);
        assert_eq!((r.delivered, r.violations, r.dups), (200, 0, 0));
        // Two deliveries every eighth round: four rounds per message.
        assert!(r.rejected > 0 && r.rounds >= 4 * r.delivered, "{r:?}");
        assert_bounded(&r, incast_config());
    }

    #[test]
    fn uniform_pairs_deliver_everything_fairly_and_replay_their_seed() {
        let r = uniform(64, 10, 7);
        assert_eq!((r.delivered, r.violations), (640, 0));
        assert!(r.fairness >= 0.8, "fairness {}", r.fairness);
        assert_bounded(&r, campaign_config());
        assert_eq!(r.digest, uniform(64, 10, 7).digest);
        assert_ne!(r.digest, uniform(64, 10, 8).digest, "a new seed re-pairs");
    }

    #[test]
    fn occupancy_accessors_read_the_live_ring_and_stash_not_the_config() {
        let mut d = Drive::new(&SwitchTopology::for_cluster_wide(64), campaign_config());
        let ring = |d: &Drive| d.cluster.endpoints[SLOW].ring_len();
        assert_eq!(ring(&d), 0, "not recv_ring: 8");
        d.throttle_every = Some(1);
        (1..64).for_each(|s| d.enqueue(s, SLOW, 8));
        (0..4).for_each(|_| _ = d.step());
        assert!((1..=8).contains(&ring(&d)) && d.peaks.stash > 0);
        let mut shards = d.cluster.shards.iter();
        assert!(shards.all(|s| (s.stashed() == 0) == s.is_idle()));
    }

    #[test]
    fn a_lost_message_ends_the_run_within_the_detect_bound() {
        let mut d = Drive::new(&SwitchTopology::for_cluster_wide(8), churn_config());
        d.down[1] = true;
        d.enqueue(0, 1, 4);
        d.run_until(|d| d.ledger().delivered == 4);
        assert!(d.ledger().delivered == 0 && d.round <= d.stall + 2);
    }

    #[test]
    fn broadcast_depth_is_the_measured_ceil_log2() {
        for (n, depth) in [(8u64, 3), (25, 5), (100, 7)] {
            let r = broadcast(n as usize);
            assert_eq!((r.depth, r.delivered, r.violations), (depth, n - 1, 0));
        }
    }
}
