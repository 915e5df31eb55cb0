//! The simulated switched cluster — the live runtime's disciplines as
//! discrete events.
//!
//! Every mechanism here is a replay of something the live
//! `fm_core::switched` runtime does with threads and SPSC rings:
//!
//! * **Windowed return-to-sender flow control** — each sender holds at
//!   most `window` unacknowledged frames (the reject-queue reservation of
//!   paper Section 4.5); a full or quota-exceeded receiver bounces the
//!   frame back, the sender retransmits after a paced backoff. Bounces
//!   never count toward dead-peer detection: a bouncing receiver is alive.
//! * **DRR switch shards** — each switch is a serial server pulling up to
//!   [`crate::SimConfig::drr_batch`] frames per backlogged input port per
//!   service turn, rotating ports round-robin; the per-turn pull bound is
//!   what keeps any stash of undeliverable frames ≤ one batch.
//! * **Per-source receive-ring quotas** — an arriving frame is admitted
//!   only while the ring has room *and* its source holds less than
//!   `ring / active_sources` slots, the live runtime's incast-fairness fix.
//! * **Reliability** — per-link loss, per-frame retransmission timers with
//!   exponential backoff, a bounded retry budget after which the peer is
//!   declared dead (`PeerUnreachable`), and `revive_peer` to clear the
//!   verdict. Receivers suppress duplicates with per-source sequence
//!   tracking, so delivery is exactly-once even under timer races.
//!
//! Event timings come from the calibrated [`fm_core::CostModel`]; the
//! reverse path (acks, bounces) is charged an aggregate delay rather than
//! routed hop-by-hop — the documented approximation, cross-checked against
//! the live runtime in `tests/sim_vs_live.rs`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use fm_des::rng::Xoshiro256;
use fm_des::stats::LatencyHistogram;
use fm_des::{Duration, Engine, Time};

use crate::config::SimConfig;
use crate::fabric::SimFabric;

/// Longest switch path the fabrics produce (three-level fat tree: 5).
const MAX_PATH: usize = 8;

/// Input-port key bit marking "a host, not a switch" upstream.
const HOST_PORT: u32 = 1 << 31;

/// Simulation events. Frames are slab indices; `stamp` lazily cancels
/// superseded retransmission timers.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Sender `host` tries to move queued messages into its window.
    Kick(u32),
    /// A data frame reaches switch `sw`'s input stage.
    SwArrive { sw: u32, frame: u32 },
    /// Switch `sw` takes a DRR service turn.
    SwService(u32),
    /// A data frame's head reaches the destination NIC.
    HostArrive(u32),
    /// Receiver `host` finishes servicing the frame at its ring head.
    Deliver(u32),
    /// The acknowledgement for `frame` arrives back at the sender.
    Ack(u32),
    /// The return-to-sender bounce of `frame` arrives back at the sender.
    Bounce(u32),
    /// Retransmission timer for `frame`; void unless `stamp` is current.
    Retx { frame: u32, stamp: u32 },
}

/// An in-flight message occupying a sender reject-queue slot. Lives from
/// first launch until acknowledged (or abandoned at peer death); `copies`
/// counts pending event chains referencing it, so timer-duplicated copies
/// can drain safely after the slot is long gone.
#[derive(Debug, Clone)]
struct Frame {
    src: u32,
    dst: u32,
    seq: u32,
    /// Launches so far (first transmission + every retransmission).
    attempt: u32,
    /// Consecutive timer firings with no ack/bounce feedback.
    miss: u32,
    /// Current retransmission-timer generation.
    stamp: u32,
    /// Pending event chains referencing this slab entry.
    copies: u8,
    acked: bool,
    abandoned: bool,
    /// Waiting out a post-bounce backoff (next Retx relaunches, no miss).
    bounce_wait: bool,
    /// Consecutive bounces, saturating — paces the bounce-retry backoff.
    bounces: u8,
    hop: u8,
    path_len: u8,
    path: [u32; MAX_PATH],
    first_launch_ps: u64,
    /// Start of the most recent launch — the RTT sample baseline.
    last_launch_ps: u64,
}

#[derive(Debug, Default)]
struct RecvSeq {
    next: u32,
    ahead: BTreeSet<u32>,
}

/// Per-endpoint state, sender and receiver halves.
#[derive(Debug)]
struct Host {
    alive: bool,
    // --- sender ---
    sendq: VecDeque<u32>,
    send_seq: BTreeMap<u32, u32>,
    outstanding: u32,
    peak_outstanding: u32,
    sender_free_ps: u64,
    /// Smoothed round-trip time (EWMA of ack samples), 0 until the first
    /// sample — the live transport's adaptive RTO, reproduced in events.
    srtt_ps: u64,
    dead_peers: Vec<u32>,
    failed_sends: u64,
    enqueued: u64,
    finished_ps: u64,
    // --- receiver ---
    ring: VecDeque<u32>,
    insrc: BTreeMap<u32, u32>,
    recv: BTreeMap<u32, RecvSeq>,
    recv_busy: bool,
    ring_peak: u32,
    rejected: u64,
    delivered: u64,
    dups: u64,
}

impl Host {
    fn new() -> Host {
        Host {
            alive: true,
            sendq: VecDeque::new(),
            send_seq: BTreeMap::new(),
            outstanding: 0,
            peak_outstanding: 0,
            sender_free_ps: 0,
            srtt_ps: 0,
            dead_peers: Vec::new(),
            failed_sends: 0,
            enqueued: 0,
            finished_ps: u64::MAX,
            ring: VecDeque::new(),
            insrc: BTreeMap::new(),
            recv: BTreeMap::new(),
            recv_busy: false,
            ring_peak: 0,
            rejected: 0,
            delivered: 0,
            dups: 0,
        }
    }
}

#[derive(Debug, Default)]
struct PortQ {
    q: VecDeque<u32>,
    active: bool,
}

/// One switch: a serial server with DRR rotation over input ports.
#[derive(Debug, Default)]
struct Switch {
    ports: BTreeMap<u32, PortQ>,
    active: VecDeque<u32>,
    busy: bool,
    peak_pull: u32,
}

/// Aggregate counters of a run (cumulative; scenarios snapshot deltas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub enqueued: u64,
    pub delivered: u64,
    pub dups: u64,
    pub rejected: u64,
    pub failed_sends: u64,
    pub abandoned: u64,
    pub dead_detections: u64,
    pub max_detect_miss: u32,
}

/// Peak occupancies — the bounded-memory gates.
#[derive(Debug, Clone, Copy, Default)]
pub struct Peaks {
    /// Max reject-queue (outstanding) occupancy over all senders.
    pub outstanding: u32,
    /// Max receive-ring occupancy over all receivers.
    pub ring: u32,
    /// Max frames pulled in one DRR service turn over all switches.
    pub pull: u32,
    /// Input-port queue structures materialized across all switches.
    pub switch_port_entries: u64,
}

/// The simulated cluster: fabric + endpoints + switches + event engine.
pub struct SimCluster {
    pub config: SimConfig,
    fabric: SimFabric,
    engine: Engine<Ev>,
    hosts: Vec<Host>,
    switches: Vec<Switch>,
    frames: Vec<Frame>,
    free: Vec<u32>,
    rng: Xoshiro256,
    latency: LatencyHistogram,
    path_buf: Vec<u32>,
    abandoned: u64,
    dead_detections: u64,
    max_detect_miss: u32,
    last_delivery_ps: u64,
    /// Collective mode: fresh deliveries trigger binomial forwarding.
    collective: Option<CollectiveMode>,
}

#[derive(Debug, Clone, Copy)]
struct CollectiveMode {
    root: u32,
    depth: u32,
}

impl SimCluster {
    pub fn new(fabric: SimFabric, config: SimConfig, seed: u64) -> SimCluster {
        config.check();
        let n = fabric.hosts() as usize;
        let s = fabric.switches() as usize;
        SimCluster {
            config,
            fabric,
            engine: Engine::new(),
            hosts: (0..n).map(|_| Host::new()).collect(),
            switches: (0..s).map(|_| Switch::default()).collect(),
            frames: Vec::new(),
            free: Vec::new(),
            rng: Xoshiro256::seed_from_u64(seed),
            latency: LatencyHistogram::new(),
            path_buf: Vec::with_capacity(MAX_PATH),
            abandoned: 0,
            dead_detections: 0,
            max_detect_miss: 0,
            last_delivery_ps: 0,
            collective: None,
        }
    }

    pub fn hosts(&self) -> u64 {
        self.fabric.hosts()
    }

    pub fn fabric(&self) -> &SimFabric {
        &self.fabric
    }

    pub fn now(&self) -> Time {
        self.engine.now()
    }

    pub fn events_dispatched(&self) -> u64 {
        self.engine.dispatched()
    }

    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Queue `count` messages from `src` to `dst` (application send queue;
    /// the window admits them as slots free up).
    pub fn enqueue(&mut self, src: u32, dst: u32, count: u64) {
        assert_ne!(src, dst, "self-sends are not modeled");
        let h = &mut self.hosts[src as usize];
        h.enqueued += count;
        h.finished_ps = u64::MAX;
        for _ in 0..count {
            h.sendq.push_back(dst);
        }
        self.engine.schedule_now(Ev::Kick(src));
    }

    /// Kill an endpoint: it stops acking, arriving frames vanish, its ring
    /// is flushed. Senders eventually exhaust their retry budget and
    /// declare it dead.
    pub fn kill(&mut self, host: u32) {
        let h = &mut self.hosts[host as usize];
        h.alive = false;
        h.recv_busy = false;
        let drained: Vec<u32> = h.ring.drain(..).collect();
        h.insrc.clear();
        for fid in drained {
            self.drop_copy(fid);
        }
    }

    /// Revive a killed endpoint (its receive state persists, so
    /// re-deliveries of pre-kill frames are suppressed as duplicates).
    pub fn revive(&mut self, host: u32) {
        self.hosts[host as usize].alive = true;
        // Its own queued sends (paused while dead) resume.
        self.engine.schedule_now(Ev::Kick(host));
    }

    /// Clear `src`'s dead-peer verdict on `dst` and restart its sender —
    /// the live runtime's `revive_peer`.
    pub fn revive_peer(&mut self, src: u32, dst: u32) {
        let h = &mut self.hosts[src as usize];
        h.dead_peers.retain(|&d| d != dst);
        self.engine.schedule_now(Ev::Kick(src));
    }

    /// Drop the receiver-side per-source state `recv` keeps for `src`
    /// (the live runtime's `reset_peer` forgetting a departed sender).
    pub fn forget_peer(&mut self, recv: u32, src: u32) {
        let h = &mut self.hosts[recv as usize];
        h.recv.remove(&src);
        h.send_seq.remove(&src);
    }

    /// Receiver-side per-peer state entries currently held by `host` —
    /// the churn soak asserts this shrinks back after leaves.
    pub fn peer_state_entries(&self, host: u32) -> usize {
        let h = &self.hosts[host as usize];
        h.recv.len() + h.insrc.len()
    }

    pub fn delivered_at(&self, host: u32) -> u64 {
        self.hosts[host as usize].delivered
    }

    pub fn received_from(&self, host: u32, src: u32) -> u64 {
        self.hosts[host as usize]
            .recv
            .get(&src)
            .map(|rs| rs.next as u64 + rs.ahead.len() as u64)
            .unwrap_or(0)
    }

    pub fn dead_peers_of(&self, host: u32) -> &[u32] {
        &self.hosts[host as usize].dead_peers
    }

    /// Simulated instant the sender at `host` drained its queue and its
    /// last ack landed (`None` while still in flight / never started).
    pub fn finished_at(&self, host: u32) -> Option<Time> {
        let ps = self.hosts[host as usize].finished_ps;
        (ps != u64::MAX).then(|| Time::from_ps(ps))
    }

    pub fn last_delivery(&self) -> Time {
        Time::from_ps(self.last_delivery_ps)
    }

    pub fn totals(&self) -> Totals {
        let mut t = Totals {
            abandoned: self.abandoned,
            dead_detections: self.dead_detections,
            max_detect_miss: self.max_detect_miss,
            ..Totals::default()
        };
        for h in &self.hosts {
            t.enqueued += h.enqueued;
            t.delivered += h.delivered;
            t.dups += h.dups;
            t.rejected += h.rejected;
            t.failed_sends += h.failed_sends;
        }
        t
    }

    pub fn peaks(&self) -> Peaks {
        let mut p = Peaks::default();
        for h in &self.hosts {
            p.outstanding = p.outstanding.max(h.peak_outstanding);
            p.ring = p.ring.max(h.ring_peak);
        }
        for s in &self.switches {
            p.pull = p.pull.max(s.peak_pull);
            p.switch_port_entries += s.ports.len() as u64;
        }
        p
    }

    /// Order-independent digest of everything observable — two runs with
    /// the same seed must produce the same value bit for bit.
    pub fn digest(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let t = self.totals();
        let p = self.peaks();
        let mut d = 0u64;
        for v in [
            t.enqueued,
            t.delivered,
            t.dups,
            t.rejected,
            t.failed_sends,
            t.abandoned,
            t.dead_detections,
            self.engine.dispatched(),
            self.engine.now().as_ps(),
            self.last_delivery_ps,
            p.outstanding as u64,
            p.ring as u64,
            p.pull as u64,
            p.switch_port_entries,
        ] {
            d = mix(d, v);
        }
        d
    }

    /// Dispatch events until the engine drains. Panics past `max_events`
    /// (a wedged simulation must fail loudly, like the live drive loops).
    pub fn run_to_quiescence(&mut self, max_events: u64) {
        let start = self.engine.dispatched();
        while let Some((t, ev)) = self.engine.pop() {
            self.handle(t, ev);
            assert!(
                self.engine.dispatched() - start <= max_events,
                "simulation wedged: {} events without quiescing",
                max_events
            );
        }
    }

    /// Dispatch events with timestamps ≤ `until` (churn scenarios
    /// interleave membership ops with partial drains).
    pub fn run_until(&mut self, until: Time, max_events: u64) {
        let start = self.engine.dispatched();
        while let Some(t) = self.engine.peek_time() {
            if t > until {
                break;
            }
            let (t, ev) = self.engine.pop().expect("peeked event vanished");
            self.handle(t, ev);
            assert!(
                self.engine.dispatched() - start <= max_events,
                "simulation wedged before horizon"
            );
        }
    }

    /// Run a binomial-tree broadcast from `root` to every alive endpoint:
    /// each fresh delivery immediately forwards to the recipient's
    /// subtree. Returns (depth, span, deliveries).
    pub fn run_collective(&mut self, root: u32, max_events: u64) -> (u32, Duration, u64) {
        let n = self.hosts();
        let depth = SimFabric::collective_depth(n);
        self.collective = Some(CollectiveMode { root, depth });
        let t0 = self.engine.now();
        // The root owns the payload; seed its sends for every round.
        for fwd in Self::binomial_children(0, n, depth) {
            let dst = (root as u64 + fwd) % n;
            self.enqueue(root, dst as u32, 1);
        }
        self.run_to_quiescence(max_events);
        self.collective = None;
        let span = self.last_delivery().since(t0);
        let delivered: u64 = self.hosts.iter().map(|h| h.delivered).sum();
        (depth, span, delivered)
    }

    /// Ranks `rank` forwards to in a binomial broadcast over `n` ranks:
    /// for every round `r` past the one `rank` itself was reached in,
    /// `rank + 2^r` (if in range). Rank 0 is the root.
    fn binomial_children(rank: u64, n: u64, depth: u32) -> Vec<u64> {
        let first_round = if rank == 0 {
            0
        } else {
            64 - rank.leading_zeros()
        };
        (first_round..depth)
            .map(|r| rank + (1u64 << r))
            .filter(|&c| c < n)
            .map(|c| c - rank)
            .collect()
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn handle(&mut self, t: Time, ev: Ev) {
        match ev {
            Ev::Kick(h) => self.on_kick(t, h),
            Ev::SwArrive { sw, frame } => self.on_sw_arrive(t, sw, frame),
            Ev::SwService(sw) => self.on_sw_service(t, sw),
            Ev::HostArrive(frame) => self.on_host_arrive(t, frame),
            Ev::Deliver(h) => self.on_deliver(t, h),
            Ev::Ack(frame) => self.on_ack(t, frame),
            Ev::Bounce(frame) => self.on_bounce(t, frame),
            Ev::Retx { frame, stamp } => self.on_retx(t, frame, stamp),
        }
    }

    fn alloc_frame(&mut self, src: u32, dst: u32, seq: u32) -> u32 {
        self.path_buf.clear();
        self.fabric
            .path_into(src as u64, dst as u64, &mut self.path_buf);
        assert!(self.path_buf.len() <= MAX_PATH, "path longer than modeled");
        let mut path = [0u32; MAX_PATH];
        path[..self.path_buf.len()].copy_from_slice(&self.path_buf);
        let mut f = Frame {
            src,
            dst,
            seq,
            attempt: 0,
            miss: 0,
            stamp: 0,
            copies: 0,
            acked: false,
            abandoned: false,
            bounce_wait: false,
            bounces: 0,
            hop: 0,
            path_len: self.path_buf.len() as u8,
            path,
            first_launch_ps: 0,
            last_launch_ps: 0,
        };
        if let Some(fid) = self.free.pop() {
            // Continue the previous occupant's timer-stamp sequence: a
            // stale Retx event for the old frame then holds a stamp this
            // incarnation has already moved past, so it can never match.
            f.stamp = self.frames[fid as usize].stamp;
            self.frames[fid as usize] = f;
            fid
        } else {
            self.frames.push(f);
            (self.frames.len() - 1) as u32
        }
    }

    fn maybe_free(&mut self, fid: u32) {
        let f = &self.frames[fid as usize];
        if f.copies == 0 && (f.acked || f.abandoned) {
            self.free.push(fid);
        }
    }

    /// A copy of `fid` terminates without producing feedback.
    fn drop_copy(&mut self, fid: u32) {
        self.frames[fid as usize].copies -= 1;
        self.maybe_free(fid);
    }

    fn lose(&mut self) -> bool {
        self.config.loss_p > 0.0 && self.rng.next_bool(self.config.loss_p)
    }

    /// Transmit (or retransmit) `fid` from its source: occupy the sender's
    /// service stage, arm the retransmission timer, put a copy on the wire.
    fn launch(&mut self, t: Time, fid: u32) {
        let cost = self.config.cost;
        let (src, attempt, stamp, first_switch) = {
            let f = &mut self.frames[fid as usize];
            debug_assert!(!f.acked && !f.abandoned);
            f.bounce_wait = false;
            f.hop = 0;
            f.stamp += 1;
            f.copies += 1;
            let a = f.attempt;
            f.attempt += 1;
            (f.src, a, f.stamp, f.path[0])
        };
        let h = &mut self.hosts[src as usize];
        let start_ps = t.as_ps().max(h.sender_free_ps) + cost.host_frame_ps;
        h.sender_free_ps = start_ps;
        // Adaptive RTO, as in the live transport: once acks have produced
        // an RTT estimate, the timer floor is 4×srtt (queueing delay at
        // scale routinely exceeds the unloaded-path initial RTO, and a
        // fixed timer would retransmit spuriously forever); exponential
        // backoff on top, capped at rto_max.
        let base = cost.rto_ps(0).max((4 * h.srtt_ps).min(cost.rto_max_ps));
        let rto = base
            .saturating_mul(1u64 << attempt.min(20))
            .min(cost.rto_max_ps);
        {
            let f = &mut self.frames[fid as usize];
            if attempt == 0 {
                f.first_launch_ps = start_ps;
            }
            f.last_launch_ps = start_ps;
        }
        let start = Time::from_ps(start_ps);
        self.engine.schedule_at(
            start + Duration::from_ps(rto),
            Ev::Retx { frame: fid, stamp },
        );
        if self.lose() {
            self.drop_copy(fid);
        } else {
            self.engine.schedule_at(
                start + Duration::from_ps(cost.link_hop_ps),
                Ev::SwArrive {
                    sw: first_switch,
                    frame: fid,
                },
            );
        }
    }

    fn on_kick(&mut self, t: Time, host: u32) {
        let window = self.config.window;
        loop {
            let h = &mut self.hosts[host as usize];
            if !h.alive || h.outstanding >= window {
                break;
            }
            let Some(dst) = h.sendq.front().copied() else {
                break;
            };
            h.sendq.pop_front();
            if h.dead_peers.contains(&dst) {
                h.failed_sends += 1;
                continue;
            }
            let seq_slot = h.send_seq.entry(dst).or_insert(0);
            let seq = *seq_slot;
            *seq_slot += 1;
            h.outstanding += 1;
            h.peak_outstanding = h.peak_outstanding.max(h.outstanding);
            let fid = self.alloc_frame(host, dst, seq);
            self.launch(t, fid);
        }
        self.note_sender_progress(t, host);
    }

    fn note_sender_progress(&mut self, t: Time, host: u32) {
        let h = &mut self.hosts[host as usize];
        if h.enqueued > 0 && h.outstanding == 0 && h.sendq.is_empty() && h.finished_ps == u64::MAX {
            h.finished_ps = t.as_ps();
        }
    }

    fn on_sw_arrive(&mut self, t: Time, sw: u32, fid: u32) {
        if self.frames[fid as usize].abandoned {
            self.drop_copy(fid);
            return;
        }
        let f = &self.frames[fid as usize];
        let port_key = if f.hop == 0 {
            HOST_PORT | f.src
        } else {
            f.path[f.hop as usize - 1]
        };
        let s = &mut self.switches[sw as usize];
        let port = s.ports.entry(port_key).or_default();
        port.q.push_back(fid);
        if !port.active {
            port.active = true;
            s.active.push_back(port_key);
        }
        if !s.busy {
            s.busy = true;
            self.engine.schedule_at(t, Ev::SwService(sw));
        }
    }

    fn on_sw_service(&mut self, t: Time, sw: u32) {
        let cost = self.config.cost;
        let batch = self.config.drr_batch as usize;
        let (pulled, more) = {
            let s = &mut self.switches[sw as usize];
            let Some(port_key) = s.active.pop_front() else {
                s.busy = false;
                return;
            };
            let port = s.ports.get_mut(&port_key).expect("active port exists");
            let pull = batch.min(port.q.len());
            let pulled: Vec<u32> = port.q.drain(..pull).collect();
            s.peak_pull = s.peak_pull.max(pull as u32);
            if port.q.is_empty() {
                port.active = false;
            } else {
                s.active.push_back(port_key);
            }
            (pulled, !s.active.is_empty())
        };
        let done = t + Duration::from_ps(cost.shard_frame_ps * pulled.len() as u64);
        let out = done + Duration::from_ps(cost.link_hop_ps);
        for fid in pulled {
            let f = &mut self.frames[fid as usize];
            f.hop += 1;
            let next = if f.hop < f.path_len {
                Some(f.path[f.hop as usize])
            } else {
                None
            };
            if self.lose() {
                self.drop_copy(fid);
            } else {
                match next {
                    Some(nsw) => self.engine.schedule_at(
                        out,
                        Ev::SwArrive {
                            sw: nsw,
                            frame: fid,
                        },
                    ),
                    None => self.engine.schedule_at(out, Ev::HostArrive(fid)),
                }
            }
        }
        let s = &mut self.switches[sw as usize];
        if more {
            self.engine.schedule_at(done, Ev::SwService(sw));
        } else {
            s.busy = false;
        }
    }

    fn on_host_arrive(&mut self, t: Time, fid: u32) {
        let cost = self.config.cost;
        let (src, dst, abandoned_or_acked) = {
            let f = &self.frames[fid as usize];
            (f.src, f.dst, f.abandoned || f.acked)
        };
        if abandoned_or_acked {
            // Sender gave up (or a twin already completed): a late copy
            // must not resurrect the exchange.
            self.drop_copy(fid);
            return;
        }
        let ring_cap = self.config.recv_ring;
        let recv_slow = self.config.recv_slowdown;
        let h = &mut self.hosts[dst as usize];
        if !h.alive {
            self.drop_copy(fid);
            return;
        }
        let active = h.insrc.len().max(1) as u32;
        let quota = (ring_cap / active).max(1);
        let from_src = h.insrc.get(&src).copied().unwrap_or(0);
        if h.ring.len() as u32 >= ring_cap || from_src >= quota {
            h.rejected += 1;
            self.engine.schedule_at(
                t + Duration::from_ps(cost.bounce_reverse_ps),
                Ev::Bounce(fid),
            );
        } else {
            h.ring.push_back(fid);
            *h.insrc.entry(src).or_insert(0) += 1;
            h.ring_peak = h.ring_peak.max(h.ring.len() as u32);
            if !h.recv_busy {
                h.recv_busy = true;
                self.engine.schedule_at(
                    t + Duration::from_ps(cost.host_frame_ps * recv_slow),
                    Ev::Deliver(dst),
                );
            }
        }
    }

    fn on_deliver(&mut self, t: Time, host: u32) {
        let cost = self.config.cost;
        let recv_slow = self.config.recv_slowdown;
        let (fid, fresh) = {
            let h = &mut self.hosts[host as usize];
            if !h.alive {
                h.recv_busy = false;
                return;
            }
            let Some(fid) = h.ring.pop_front() else {
                h.recv_busy = false;
                return;
            };
            let (src, seq) = {
                let f = &self.frames[fid as usize];
                (f.src, f.seq)
            };
            if let Some(c) = h.insrc.get_mut(&src) {
                *c -= 1;
                if *c == 0 {
                    h.insrc.remove(&src);
                }
            }
            let rs = h.recv.entry(src).or_default();
            let fresh = if seq == rs.next {
                rs.next += 1;
                while rs.ahead.remove(&rs.next) {
                    rs.next += 1;
                }
                true
            } else if seq > rs.next {
                rs.ahead.insert(seq)
            } else {
                false
            };
            if fresh {
                h.delivered += 1;
            } else {
                h.dups += 1;
            }
            if !h.ring.is_empty() {
                self.engine.schedule_at(
                    t + Duration::from_ps(cost.host_frame_ps * recv_slow),
                    Ev::Deliver(host),
                );
            } else {
                h.recv_busy = false;
            }
            (fid, fresh)
        };
        if fresh {
            self.last_delivery_ps = t.as_ps();
            let launched = self.frames[fid as usize].first_launch_ps;
            self.latency
                .record(Duration::from_ps(t.as_ps().saturating_sub(launched)));
            if let Some(mode) = self.collective {
                self.forward_collective(mode, host);
            }
        }
        self.engine
            .schedule_at(t + Duration::from_ps(cost.ack_reverse_ps), Ev::Ack(fid));
    }

    fn forward_collective(&mut self, mode: CollectiveMode, host: u32) {
        let n = self.hosts();
        let rank = (host as u64 + n - mode.root as u64) % n;
        for fwd in Self::binomial_children(rank, n, mode.depth) {
            let dst = ((host as u64 + fwd) % n) as u32;
            self.enqueue(host, dst, 1);
        }
    }

    fn on_ack(&mut self, t: Time, fid: u32) {
        let src = {
            let f = &mut self.frames[fid as usize];
            f.copies -= 1;
            if f.acked || f.abandoned {
                None
            } else {
                f.acked = true;
                f.miss = 0;
                Some((f.src, t.as_ps().saturating_sub(f.last_launch_ps)))
            }
        };
        if let Some((src, sample_ps)) = src {
            let h = &mut self.hosts[src as usize];
            h.outstanding -= 1;
            // EWMA RTT estimator feeding the adaptive RTO (gain 1/8, the
            // classic srtt update the live UDP transport uses).
            if sample_ps > 0 {
                h.srtt_ps = if h.srtt_ps == 0 {
                    sample_ps
                } else {
                    (7 * h.srtt_ps + sample_ps) / 8
                };
            }
            self.engine.schedule_at(t, Ev::Kick(src));
        }
        self.maybe_free(fid);
    }

    fn on_bounce(&mut self, t: Time, fid: u32) {
        let cost = self.config.cost;
        let relaunch = {
            let f = &mut self.frames[fid as usize];
            f.copies -= 1;
            if f.acked || f.abandoned || f.bounce_wait {
                None
            } else {
                // The peer answered: it is alive, whatever the timers say.
                f.miss = 0;
                f.bounce_wait = true;
                f.bounces = f.bounces.saturating_add(1);
                f.stamp += 1;
                // Paced retransmit with *capped* backoff. A bounce is
                // receiver feedback, not loss, so it must not inherit the
                // unbounded loss-RTO curve: under a 1024-to-1 incast that
                // curve spreads senders across 6µs..3.2ms retry periods
                // and the fast ones capture every ring slot (Jain ~0.4).
                // Capping the period bounds the spread and the quota
                // lottery stays fair.
                let delay =
                    ((cost.rto_ps(0) / 8) << (f.bounces - 1).min(6)).max(cost.host_frame_ps);
                Some((f.stamp, delay))
            }
        };
        if let Some((stamp, delay)) = relaunch {
            self.engine
                .schedule_at(t + Duration::from_ps(delay), Ev::Retx { frame: fid, stamp });
        }
        self.maybe_free(fid);
    }

    fn on_retx(&mut self, t: Time, fid: u32, stamp: u32) {
        enum Act {
            Ignore,
            Relaunch,
            Dead { src: u32, dst: u32, miss: u32 },
        }
        let act = {
            let f = &mut self.frames[fid as usize];
            if f.acked || f.abandoned || f.stamp != stamp {
                Act::Ignore
            } else if f.bounce_wait {
                Act::Relaunch
            } else {
                f.miss += 1;
                if f.miss > self.config.retry_budget {
                    Act::Dead {
                        src: f.src,
                        dst: f.dst,
                        miss: f.miss,
                    }
                } else {
                    Act::Relaunch
                }
            }
        };
        match act {
            Act::Ignore => {}
            Act::Relaunch => self.launch(t, fid),
            Act::Dead { src, dst, miss } => {
                let f = &mut self.frames[fid as usize];
                f.abandoned = true;
                self.abandoned += 1;
                self.dead_detections += 1;
                self.max_detect_miss = self.max_detect_miss.max(miss);
                let h = &mut self.hosts[src as usize];
                h.outstanding -= 1;
                if !h.dead_peers.contains(&dst) {
                    h.dead_peers.push(dst);
                }
                self.maybe_free(fid);
                // The freed slot may admit further sends (which will fail
                // fast against the dead-peer list).
                self.engine.schedule_at(t, Ev::Kick(src));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(n: u64) -> SimCluster {
        SimCluster::new(SimFabric::for_endpoints(n), SimConfig::default(), 7)
    }

    #[test]
    fn one_message_crosses_the_fabric() {
        let mut c = small(8);
        c.enqueue(1, 5, 1);
        c.run_to_quiescence(10_000);
        let t = c.totals();
        assert_eq!(t.delivered, 1);
        assert_eq!(t.dups, 0);
        assert_eq!(t.rejected, 0);
        assert!(c.finished_at(1).is_some());
        // One-hop unloaded latency ballpark (same leaf switch).
        let p50 = c.latency().quantile_ns(0.5);
        assert!((3_000..=16_384).contains(&p50), "p50 {p50} ns");
    }

    #[test]
    fn exactly_once_under_heavy_incast() {
        let mut c = small(16);
        for src in 1..16u32 {
            c.enqueue(src, 0, 20);
        }
        c.run_to_quiescence(50_000_000);
        let t = c.totals();
        assert_eq!(t.delivered, 15 * 20, "every message exactly once");
        assert!(t.rejected > 0, "under-provisioned ring must bounce");
        assert_eq!(t.dead_detections, 0, "healthy peers never declared dead");
        let p = c.peaks();
        assert!(p.outstanding <= c.config.window);
        assert!(p.ring <= c.config.recv_ring);
        assert!(p.pull <= c.config.drr_batch);
    }

    #[test]
    fn same_seed_same_digest() {
        let run = || {
            let mut c = small(32);
            for src in 1..8u32 {
                c.enqueue(src, 0, 10);
                c.enqueue(src + 8, src, 5);
            }
            c.run_to_quiescence(10_000_000);
            c.digest()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn loss_is_recovered_by_retransmission() {
        let mut c = SimCluster::new(
            SimFabric::for_endpoints(8),
            SimConfig {
                loss_p: 0.05,
                ..SimConfig::default()
            },
            11,
        );
        for src in 1..8u32 {
            c.enqueue(src, 0, 10);
        }
        c.run_to_quiescence(50_000_000);
        let t = c.totals();
        assert_eq!(t.delivered, 70, "loss must not lose messages");
        assert_eq!(t.dead_detections, 0);
    }

    #[test]
    fn dead_peer_detected_within_budget_and_revivable() {
        let mut c = small(8);
        c.kill(3);
        c.enqueue(1, 3, 4);
        c.run_to_quiescence(10_000_000);
        let t = c.totals();
        assert_eq!(t.delivered, 0);
        assert!(t.dead_detections >= 1);
        assert!(t.max_detect_miss <= c.config.retry_budget + 1);
        assert_eq!(c.dead_peers_of(1), &[3]);
        // 4 messages: some abandoned in flight, the rest failed fast.
        assert_eq!(t.abandoned + t.failed_sends, 4);
        // Revive and resend: traffic flows again.
        c.revive(3);
        c.revive_peer(1, 3);
        c.enqueue(1, 3, 4);
        c.run_to_quiescence(10_000_000);
        assert_eq!(c.delivered_at(3), 4);
    }

    #[test]
    fn collective_has_log_depth() {
        for n in [8u64, 25, 64] {
            let mut c = small(n);
            let (depth, span, delivered) = c.run_collective(0, 50_000_000);
            assert_eq!(depth, SimFabric::collective_depth(n));
            assert_eq!(delivered, n - 1, "broadcast reaches everyone once");
            assert_eq!(c.totals().dups, 0);
            // Span bounded by depth × a constant per-round cost.
            let per_round = c.config.cost.unloaded_path_ps(5) + 64 * c.config.cost.host_frame_ps;
            assert!(
                span.as_ps() <= depth as u64 * per_round,
                "span {} ns over budget for n={n}",
                span.as_ps() / 1000
            );
        }
    }
}
