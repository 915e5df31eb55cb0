//! The eight workloads, each driven inline.
//!
//! Drive discipline: one OS thread makes every call into the stack in a
//! fixed order (`try_send…; receiver.extract(); sender.extract();
//! shard.pump()`), so the scheduler is not in the measurement, and every
//! loop is closed (stop-and-wait, or limited by the send window, one
//! client). A workload runs fixed-size segments; each segment starts and
//! ends with every endpoint drained, so segments are independent samples.

use std::sync::Arc;

use fm_core::{
    EndpointConfig, EndpointStats, FabricKind, FaultConfig, HandlerId, MemCluster, MemEndpoint,
    NodeId, SendError, SwitchTopology, SwitchedCluster, TimeSource,
};
use fm_mpi::{Communicator, MpiCluster, Tag};

use crate::clock::now_ns;
use crate::oracle::Oracle;
use crate::spans::{SpanName, Spans};

pub const H_DATA: HandlerId = HandlerId(1);
pub const H_ECHO: HandlerId = HandlerId(2);

/// One full FM frame of payload.
pub const FULL: usize = 128;
/// The ping-pong payload (`FM_send_4` sized).
pub const SHORT: usize = 16;
/// `large_transfer` message size and its fragment count (114 B per frame).
pub const LARGE: usize = 4096;
pub const LARGE_FRAGS: u64 = 36;

/// A loop that makes no progress for this many rounds is wedged: counted
/// as a failed operation and abandoned instead of hanging the run.
const WEDGE_ROUNDS: u64 = 50_000_000;

/// Mutable harness state a segment records into.
pub struct Ctx {
    pub spans: Spans,
    /// Closed-loop cycle samples of the segment, ns: ping-pong round trip,
    /// or window turn-around on streaming workloads.
    pub rtt_ns: Vec<u32>,
}

/// What one segment did.
#[derive(Debug, Clone, Default)]
pub struct SegOut {
    /// Messages handed to the workload's handlers.
    pub delivered: u64,
    /// Payload bytes of those messages.
    pub payload_bytes: u64,
    /// Driver-loop rounds.
    pub rounds: u64,
    /// Jain index over per-flow `count / finishing round` (1 for one flow).
    pub fairness: f64,
}

/// Declares [`Counters`] and its field-wise difference together, so a new
/// counter cannot be left out of `since`.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Counters summed over every endpoint, shard and injector of a
        /// workload.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            /// Field-wise `self - earlier`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters {
                    $($field: self.$field - earlier.$field,)*
                }
            }
        }
    };
}

counters!(
    sent,
    retransmitted,
    timer_retransmits,
    delivered,
    rejected,
    duplicates,
    ack_frames_sent,
    ring_pushed,
    ring_full,
    ring_polled,
    ring_batches,
    fault_dropped,
    fault_corrupted,
    fault_duplicated,
    fault_delayed,
    switch_forwarded,
    switch_stalled,
    udp_datagrams_out,
    udp_backpressure,
);

impl Counters {
    fn add_stats(&mut self, s: EndpointStats) {
        self.sent += s.sent;
        self.retransmitted += s.retransmitted;
        self.timer_retransmits += s.timer_retransmits;
        self.delivered += s.delivered;
        self.rejected += s.rejected;
        self.duplicates += s.duplicates;
        self.ack_frames_sent += s.ack_frames_sent;
    }

    fn of_endpoints<'a>(endpoints: impl IntoIterator<Item = &'a MemEndpoint>) -> Counters {
        let mut c = Counters::default();
        for ep in endpoints {
            c.add_endpoint(ep);
        }
        c
    }

    fn add_endpoint(&mut self, ep: &MemEndpoint) {
        self.add_stats(ep.stats());
        let f = ep.fabric_stats();
        self.ring_pushed += f.pushed;
        self.ring_full += f.full;
        self.ring_polled += f.polled;
        self.ring_batches += f.batches;
        if let Some(f) = ep.fault_stats() {
            self.fault_dropped += f.dropped;
            self.fault_corrupted += f.corrupted;
            self.fault_duplicated += f.duplicated;
            self.fault_delayed += f.delayed;
        }
        if let Some(u) = ep.udp_stats() {
            self.udp_datagrams_out += u.datagrams_out;
            self.udp_backpressure += u.backpressure;
        }
    }
}

pub trait Workload {
    /// Run one segment of `ops` operations (rounds for ping-pongs,
    /// messages otherwise), from drained to drained. The caller opens the
    /// oracle segment and times the call.
    fn run(&mut self, ops: u64, cx: &mut Ctx) -> SegOut;
    fn oracle(&self) -> &Oracle;
    /// Messages a segment of `ops` operations sends on each of the
    /// oracle's flows (every flow carries the same count).
    fn per_flow(&self, ops: u64) -> u32 {
        ops as u32
    }
    fn counters(&self) -> Counters;
    /// Highest `outstanding()` seen on any sender since construction.
    fn peak_outstanding(&self) -> usize;
    /// Nothing in flight anywhere (checked after every segment).
    fn quiescent(&self) -> bool;
}

/// Tracks one sender's closed-loop cycle: opened by the first send of a
/// round, closed by the extract that sees its window shrink.
#[derive(Default)]
struct Cycle {
    open: Option<u64>,
}

impl Cycle {
    fn sent(&mut self, round_start: u64) {
        self.open.get_or_insert(round_start);
    }

    fn acked(&mut self, rtt_ns: &mut Vec<u32>) {
        if let Some(t0) = self.open.take() {
            rtt_ns.push(now_ns().saturating_sub(t0).min(u32::MAX as u64) as u32);
        }
    }
}

pub fn pair(mut nodes: Vec<MemEndpoint>) -> (MemEndpoint, MemEndpoint) {
    let b = nodes.pop().expect("two endpoints");
    let a = nodes.pop().expect("two endpoints");
    (a, b)
}

// ---- pingpong_inline / udp_pingpong ---------------------------------------

pub struct PingPong {
    a: MemEndpoint,
    b: MemEndpoint,
    oracle: Arc<Oracle>,
    len: usize,
    peak: usize,
}

impl PingPong {
    /// `oracle` sized for two flows (ping, echo). On the UDP fabric the
    /// hello handshake completes here, as part of set-up.
    pub fn build(
        fabric: FabricKind,
        config: EndpointConfig,
        len: usize,
        oracle: Arc<Oracle>,
    ) -> Self {
        let (mut a, mut b) = pair(MemCluster::with_fabric(2, config, fabric));
        let o = oracle.clone();
        b.register_handler_at(H_DATA, move |out, src, data| {
            o.deliver(0, data);
            out.send_copy(src, H_ECHO, data);
        });
        let o = oracle.clone();
        a.register_handler_at(H_ECHO, move |_, _, data| o.deliver(1, data));
        if fabric == FabricKind::Udp {
            let mut rounds = 0u64;
            while a.udp_established(NodeId(1)) != Some(true)
                || b.udp_established(NodeId(0)) != Some(true)
            {
                b.extract();
                a.extract();
                rounds += 1;
                assert!(rounds < WEDGE_ROUNDS, "UDP hello handshake never completed");
            }
        }
        PingPong {
            a,
            b,
            oracle,
            len,
            peak: 0,
        }
    }
}

impl Workload for PingPong {
    fn run(&mut self, ops: u64, cx: &mut Ctx) -> SegOut {
        let mut buf = [0u8; FULL];
        let buf = &mut buf[..self.len];
        let mut rounds = 0u64;
        for i in 0..ops as u32 {
            cx.spans.round = i;
            // One round in eight is timed, so the two clock reads stay out
            // of most rounds.
            let sampled = i.is_multiple_of(8);
            self.oracle.fill(buf, i, sampled);
            let t0 = if sampled { self.oracle.stamp(0, i) } else { 0 };
            cx.spans.enter(SpanName::MemSend);
            self.a.send(NodeId(1), H_DATA, buf);
            cx.spans.exit(true);
            self.peak = self.peak.max(self.a.outstanding());
            let mut spins = 0u64;
            while self.oracle.next(1) != i + 1 {
                cx.spans.enter(SpanName::MemExtractRx);
                let got = self.b.extract();
                cx.spans.exit(got > 0);
                cx.spans.enter(SpanName::MemExtractTx);
                let got = self.a.extract();
                cx.spans.exit(got > 0);
                spins += 1;
                if spins > WEDGE_ROUNDS {
                    self.oracle.violation();
                    break;
                }
            }
            rounds += spins;
            if sampled {
                cx.rtt_ns
                    .push(now_ns().saturating_sub(t0).min(u32::MAX as u64) as u32);
            }
        }
        drain_pair(&mut self.a, &mut self.b, &self.oracle);
        SegOut {
            delivered: self.oracle.delivered(),
            payload_bytes: self.oracle.delivered() * self.len as u64,
            rounds,
            fairness: 1.0,
        }
    }

    fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    fn counters(&self) -> Counters {
        Counters::of_endpoints([&self.a, &self.b])
    }

    fn peak_outstanding(&self) -> usize {
        self.peak
    }

    fn quiescent(&self) -> bool {
        self.a.is_quiescent() && self.b.is_quiescent()
    }
}

/// Extract on both sides until neither holds an unacknowledged frame.
fn drain_pair(a: &mut MemEndpoint, b: &mut MemEndpoint, oracle: &Oracle) {
    let mut spins = 0u64;
    while !(a.is_quiescent() && b.is_quiescent()) {
        b.extract();
        a.extract();
        spins += 1;
        if spins > WEDGE_ROUNDS {
            oracle.violation();
            break;
        }
    }
}

// ---- stream_inline / lossy_stream ------------------------------------------

pub struct Stream {
    a: MemEndpoint,
    b: MemEndpoint,
    oracle: Arc<Oracle>,
    len: usize,
    window: usize,
    peak: usize,
}

/// The endpoint configuration every real-wire constructor forces, which
/// `lossy_stream` runs under: wall-clock timers and an adaptive RTO.
pub fn lossy_config(seed: u64) -> EndpointConfig {
    EndpointConfig {
        time_source: TimeSource::WallMicros,
        adaptive_rto: true,
        seed,
        ..Default::default()
    }
}

impl Stream {
    /// `oracle` sized for one flow. `faults` decorates both transmit paths.
    pub fn build(
        config: EndpointConfig,
        faults: Option<FaultConfig>,
        len: usize,
        oracle: Arc<Oracle>,
    ) -> Self {
        let nodes = match faults {
            None => MemCluster::with_fabric(2, config, FabricKind::Ring),
            Some(f) => MemCluster::with_faulty_fabric(2, config, FabricKind::Ring, f),
        };
        let (a, mut b) = pair(nodes);
        let o = oracle.clone();
        b.register_handler_at(H_DATA, move |_, _, data| o.deliver(0, data));
        Stream {
            a,
            b,
            oracle,
            len,
            window: config.window,
            peak: 0,
        }
    }
}

impl Workload for Stream {
    fn run(&mut self, ops: u64, cx: &mut Ctx) -> SegOut {
        let n = ops as u32;
        let mut buf = [0u8; FULL];
        let buf = &mut buf[..self.len];
        let mut sent = 0u32;
        let mut rounds = 0u64;
        let mut idle = 0u64;
        let mut cycle = Cycle::default();
        while self.oracle.next(0) < n {
            cx.spans.round = rounds as u32;
            let round_start = now_ns();
            while sent < n {
                let sampled = sent.is_multiple_of(16);
                self.oracle.fill(buf, sent, sampled);
                if sampled {
                    self.oracle.stamp(0, sent);
                }
                cx.spans.enter(SpanName::MemSend);
                let r = self.a.try_send(NodeId(1), H_DATA, buf);
                cx.spans.exit(r.is_ok());
                match r {
                    Ok(()) => {
                        sent += 1;
                        cycle.sent(round_start);
                    }
                    Err(SendError::WouldBlock) => break,
                    Err(_) => {
                        self.oracle.violation();
                        break;
                    }
                }
            }
            let before = self.a.outstanding();
            self.peak = self.peak.max(before);
            if before > self.window {
                self.oracle.violation();
            }
            let delivered_before = self.oracle.next(0);
            cx.spans.enter(SpanName::MemExtractRx);
            let got = self.b.extract();
            cx.spans.exit(got > 0);
            cx.spans.enter(SpanName::MemExtractTx);
            self.a.extract();
            let acked = self.a.outstanding() < before;
            cx.spans.exit(acked);
            if acked {
                cycle.acked(&mut cx.rtt_ns);
            }
            rounds += 1;
            // Under loss the loop legitimately spins while a timer runs
            // down; only a long stretch with no delivery at all is a wedge.
            idle = if self.oracle.next(0) == delivered_before {
                idle + 1
            } else {
                0
            };
            if idle > WEDGE_ROUNDS {
                self.oracle.violation();
                break;
            }
        }
        drain_pair(&mut self.a, &mut self.b, &self.oracle);
        SegOut {
            delivered: self.oracle.delivered(),
            payload_bytes: self.oracle.delivered() * self.len as u64,
            rounds,
            fairness: 1.0,
        }
    }

    fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    fn counters(&self) -> Counters {
        Counters::of_endpoints([&self.a, &self.b])
    }

    fn peak_outstanding(&self) -> usize {
        self.peak
    }

    fn quiescent(&self) -> bool {
        self.a.is_quiescent() && self.b.is_quiescent()
    }
}

// ---- switched_pairs / incast_switched --------------------------------------

/// Hosts on the one 8-port switch both switched workloads use.
pub const SWITCH_HOSTS: usize = 8;

/// The incast sizing `BENCH_scaling.json` already gates: a 32-frame window
/// against an 8-frame receive ring, so senders always overrun the receiver
/// and the return-to-sender path stays hot.
pub fn incast_config(seed: u64) -> EndpointConfig {
    EndpointConfig {
        window: 32,
        recv_ring: 8,
        retransmit_per_extract: 8,
        seed,
        ..Default::default()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Hosts `2k -> 2k+1`: four disjoint streams through one switch.
    Pairs,
    /// Hosts `1..=7 -> 0`, the receiver extracting two messages a round.
    Incast,
}

pub struct Switched {
    cluster: SwitchedCluster,
    oracle: Arc<Oracle>,
    pattern: Pattern,
    /// `(source host, destination host)` per flow.
    flows: Vec<(usize, usize)>,
    window: usize,
    peak: usize,
}

impl Switched {
    pub fn build(config: EndpointConfig, pattern: Pattern, oracle: Arc<Oracle>) -> Self {
        let topo = SwitchTopology::for_cluster_wide(SWITCH_HOSTS);
        let mut cluster = SwitchedCluster::new(&topo, config);
        let flows: Vec<(usize, usize)> = match pattern {
            Pattern::Pairs => (0..SWITCH_HOSTS / 2).map(|k| (2 * k, 2 * k + 1)).collect(),
            Pattern::Incast => (1..SWITCH_HOSTS).map(|s| (s, 0)).collect(),
        };
        let mut flow_of_src = [usize::MAX; SWITCH_HOSTS];
        for (flow, &(src, _)) in flows.iter().enumerate() {
            flow_of_src[src] = flow;
        }
        let mut receivers: Vec<usize> = flows.iter().map(|&(_, dst)| dst).collect();
        receivers.dedup();
        for dst in receivers {
            let o = oracle.clone();
            cluster.endpoints[dst].register_handler_at(H_DATA, move |_, src, data| {
                o.deliver(flow_of_src[src.index()], data)
            });
        }
        Switched {
            cluster,
            oracle,
            pattern,
            flows,
            window: config.window,
            peak: 0,
        }
    }

    /// One drive round. Pairs make the calls of the cluster's own
    /// `drive_round` in its order, with a span around each. Incast
    /// throttles the receiver and lets senders `service`, the shape
    /// `fm-testbed`'s live incast uses.
    fn drive(&mut self, spans: &mut Spans) {
        match self.pattern {
            Pattern::Pairs => {
                for (i, ep) in self.cluster.endpoints.iter_mut().enumerate() {
                    let sender = i % 2 == 0;
                    let before = ep.outstanding();
                    spans.enter(if sender {
                        SpanName::MemExtractTx
                    } else {
                        SpanName::MemExtractRx
                    });
                    let got = ep.extract();
                    spans.exit(got > 0 || ep.outstanding() < before);
                }
                pump(&mut self.cluster, spans);
            }
            Pattern::Incast => {
                spans.enter(SpanName::MemExtractRx);
                let got = self.cluster.endpoints[0].extract_budget(2);
                spans.exit(got > 0);
                for ep in &mut self.cluster.endpoints[1..] {
                    let before = ep.outstanding();
                    spans.enter(SpanName::MemService);
                    ep.service();
                    spans.exit(ep.outstanding() < before);
                }
                pump(&mut self.cluster, spans);
            }
        }
    }
}

fn pump(cluster: &mut SwitchedCluster, spans: &mut Spans) {
    for shard in &mut cluster.shards {
        spans.enter(SpanName::SwitchedPump);
        let moved = shard.pump();
        spans.exit(moved > 0);
    }
}

impl Workload for Switched {
    fn run(&mut self, ops: u64, cx: &mut Ctx) -> SegOut {
        let nflows = self.flows.len();
        let per_flow = self.per_flow(ops);
        let mut buf = [0u8; FULL];
        let mut sent = vec![0u32; nflows];
        let mut seen = vec![0u32; nflows];
        let mut finish_round = vec![0u64; nflows];
        let mut rounds = 0u64;
        let mut idle = 0u64;
        let mut cycle = Cycle::default();
        loop {
            rounds += 1;
            cx.spans.round = rounds as u32;
            let round_start = now_ns();
            for (flow, &(src, dst)) in self.flows.iter().enumerate() {
                let ep = &mut self.cluster.endpoints[src];
                while sent[flow] < per_flow {
                    let idx = sent[flow];
                    let sampled = idx.is_multiple_of(16);
                    self.oracle.fill(&mut buf, idx, sampled);
                    if sampled {
                        self.oracle.stamp(flow, idx);
                    }
                    cx.spans.enter(SpanName::MemSend);
                    let r = ep.try_send(NodeId(dst as u16), H_DATA, &buf);
                    cx.spans.exit(r.is_ok());
                    match r {
                        Ok(()) => {
                            sent[flow] += 1;
                            if flow == 0 {
                                cycle.sent(round_start);
                            }
                        }
                        Err(SendError::WouldBlock) => break,
                        Err(_) => {
                            self.oracle.violation();
                            break;
                        }
                    }
                }
                let out = ep.outstanding();
                self.peak = self.peak.max(out);
                if out > self.window {
                    self.oracle.violation();
                }
            }
            let first_sender = self.flows[0].0;
            let before = self.cluster.endpoints[first_sender].outstanding();
            self.drive(&mut cx.spans);
            if self.cluster.endpoints[first_sender].outstanding() < before {
                cycle.acked(&mut cx.rtt_ns);
            }
            let mut progressed = false;
            let mut done = true;
            for flow in 0..nflows {
                let got = self.oracle.next(flow);
                if got > seen[flow] {
                    seen[flow] = got;
                    finish_round[flow] = rounds;
                    progressed = true;
                }
                done &= got >= per_flow;
            }
            if done {
                break;
            }
            idle = if progressed { 0 } else { idle + 1 };
            if idle > WEDGE_ROUNDS {
                self.oracle.violation();
                break;
            }
        }
        // Drain: acks and bounced frames still cross the switch.
        let mut spins = 0u64;
        while !self.quiescent() {
            self.cluster.drive_round();
            spins += 1;
            if spins > WEDGE_ROUNDS {
                self.oracle.violation();
                break;
            }
        }
        let rates: Vec<f64> = finish_round
            .iter()
            .map(|&r| per_flow as f64 / r.max(1) as f64)
            .collect();
        SegOut {
            delivered: self.oracle.delivered(),
            payload_bytes: self.oracle.delivered() * FULL as u64,
            rounds,
            fairness: crate::stats::jain(&rates),
        }
    }

    fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    fn per_flow(&self, ops: u64) -> u32 {
        (ops / self.flows.len() as u64) as u32
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::of_endpoints(&self.cluster.endpoints);
        for shard in &self.cluster.shards {
            c.switch_forwarded += shard.stats.forwarded;
            c.switch_stalled += shard.stats.stalled;
        }
        c
    }

    fn peak_outstanding(&self) -> usize {
        self.peak
    }

    fn quiescent(&self) -> bool {
        self.cluster.endpoints.iter().all(MemEndpoint::is_quiescent)
            && self.cluster.shards.iter().all(|s| s.is_idle())
    }
}

// ---- large_transfer ---------------------------------------------------------

pub struct LargeTransfer {
    a: MemEndpoint,
    b: MemEndpoint,
    oracle: Arc<Oracle>,
    handler: HandlerId,
    window: usize,
    peak: usize,
    message: Vec<u8>,
}

impl LargeTransfer {
    /// `oracle` sized for one flow and `LARGE`-byte payloads.
    pub fn build(config: EndpointConfig, oracle: Arc<Oracle>) -> Self {
        let (a, mut b) = pair(MemCluster::with_fabric(2, config, FabricKind::Ring));
        let o = oracle.clone();
        let handler = b.register_large_handler(move |_, _, msg| o.deliver(0, &msg));
        LargeTransfer {
            a,
            b,
            oracle,
            handler,
            window: config.window,
            peak: 0,
            message: vec![0u8; LARGE],
        }
    }
}

impl Workload for LargeTransfer {
    fn run(&mut self, ops: u64, cx: &mut Ctx) -> SegOut {
        let n = ops as u32;
        let mut sent = 0u32;
        let mut rounds = 0u64;
        let mut idle = 0u64;
        let mut cycle = Cycle::default();
        while self.oracle.next(0) < n {
            cx.spans.round = rounds as u32;
            let round_start = now_ns();
            // Issue only what fits the window, so `send_large` never has
            // to block (under inline drive nobody else would unblock it).
            while sent < n && self.a.outstanding() + LARGE_FRAGS as usize <= self.window {
                let sampled = sent.is_multiple_of(4);
                self.oracle.fill(&mut self.message, sent, sampled);
                if sampled {
                    self.oracle.stamp(0, sent);
                }
                cx.spans.enter(SpanName::MemSendLarge);
                let r = self.a.send_large(NodeId(1), self.handler, &self.message);
                cx.spans.exit(r.is_ok());
                if r.is_err() {
                    self.oracle.violation();
                }
                sent += 1;
                cycle.sent(round_start);
            }
            let before = self.a.outstanding();
            self.peak = self.peak.max(before);
            if before > self.window {
                self.oracle.violation();
            }
            let delivered_before = self.oracle.next(0);
            cx.spans.enter(SpanName::MemExtractRx);
            let got = self.b.extract();
            cx.spans.exit(got > 0);
            cx.spans.enter(SpanName::MemExtractTx);
            self.a.extract();
            let acked = self.a.outstanding() < before;
            cx.spans.exit(acked);
            if acked {
                cycle.acked(&mut cx.rtt_ns);
            }
            rounds += 1;
            idle = if self.oracle.next(0) == delivered_before {
                idle + 1
            } else {
                0
            };
            if idle > WEDGE_ROUNDS {
                self.oracle.violation();
                break;
            }
        }
        drain_pair(&mut self.a, &mut self.b, &self.oracle);
        SegOut {
            delivered: self.oracle.delivered(),
            payload_bytes: self.oracle.delivered() * LARGE as u64,
            rounds,
            fairness: 1.0,
        }
    }

    fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    fn counters(&self) -> Counters {
        Counters::of_endpoints([&self.a, &self.b])
    }

    fn peak_outstanding(&self) -> usize {
        self.peak
    }

    fn quiescent(&self) -> bool {
        self.a.is_quiescent() && self.b.is_quiescent()
    }
}

// ---- mpi_pingpong -----------------------------------------------------------

pub struct MpiPingPong {
    r0: Communicator,
    r1: Communicator,
    oracle: Arc<Oracle>,
}

const TAG_PING: Tag = Tag(1);
const TAG_ECHO: Tag = Tag(2);

impl MpiPingPong {
    /// `oracle` sized for two flows (ping, echo).
    pub fn build(oracle: Arc<Oracle>) -> Self {
        let mut ranks = MpiCluster::new(2);
        let r1 = ranks.pop().expect("two ranks");
        let r0 = ranks.pop().expect("two ranks");
        MpiPingPong { r0, r1, oracle }
    }
}

impl Workload for MpiPingPong {
    fn run(&mut self, ops: u64, cx: &mut Ctx) -> SegOut {
        let mut buf = [0u8; SHORT];
        let mut rounds = 0u64;
        for i in 0..ops as u32 {
            cx.spans.round = i;
            let sampled = i.is_multiple_of(8);
            self.oracle.fill(&mut buf, i, sampled);
            let t0 = if sampled { self.oracle.stamp(0, i) } else { 0 };
            cx.spans.enter(SpanName::FmmpiSend);
            self.r0.send(1, TAG_PING, &buf);
            cx.spans.exit(true);
            let mut spins = 0u64;
            loop {
                // Both ranks are polled by the one thread, receiver first.
                cx.spans.enter(SpanName::FmmpiTryRecv);
                let ping = self.r1.try_recv(Some(0), Some(TAG_PING));
                cx.spans.exit(ping.is_some());
                if let Some((_, _, data)) = ping {
                    self.oracle.deliver(0, &data);
                    cx.spans.enter(SpanName::FmmpiSend);
                    self.r1.send(0, TAG_ECHO, &data);
                    cx.spans.exit(true);
                }
                cx.spans.enter(SpanName::FmmpiTryRecv);
                let echo = self.r0.try_recv(Some(1), Some(TAG_ECHO));
                cx.spans.exit(echo.is_some());
                spins += 1;
                if let Some((_, _, data)) = echo {
                    self.oracle.deliver(1, &data);
                    break;
                }
                if spins > WEDGE_ROUNDS {
                    self.oracle.violation();
                    break;
                }
            }
            rounds += spins;
            if sampled {
                cx.rtt_ns
                    .push(now_ns().saturating_sub(t0).min(u32::MAX as u64) as u32);
            }
        }
        // The communicator hides its endpoint, so drain by the ledger it
        // does expose: every data frame sent has been acknowledged.
        let mut spins = 0u64;
        while !self.quiescent() {
            self.r1.progress();
            self.r0.progress();
            spins += 1;
            if spins > WEDGE_ROUNDS {
                self.oracle.violation();
                break;
            }
        }
        SegOut {
            delivered: self.oracle.delivered(),
            payload_bytes: self.oracle.delivered() * SHORT as u64,
            rounds,
            fairness: 1.0,
        }
    }

    fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        c.add_stats(self.r0.fm_stats());
        c.add_stats(self.r1.fm_stats());
        c
    }

    fn peak_outstanding(&self) -> usize {
        // One message in flight per direction, by construction; the
        // communicator does not expose its window.
        1
    }

    fn quiescent(&self) -> bool {
        let (s0, s1) = (self.r0.fm_stats(), self.r1.fm_stats());
        self.r0.match_pending() == 0
            && self.r1.match_pending() == 0
            && s0.acks_received >= s0.sent
            && s1.acks_received >= s1.sent
    }
}
