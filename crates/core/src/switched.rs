//! Switch-routed cluster runtime: N endpoints composed through the
//! [`fm_myrinet::SwitchTopology`] fabric model.
//!
//! [`crate::mem::MemCluster`] wires every ordered pair with a private SPSC
//! ring — O(n²) rings, fine at 2–8 nodes, nothing like the hardware. A real
//! Myrinet host has *one* cable into *one* switch port; everything past
//! that is the switch's problem. [`SwitchedCluster`] reproduces that shape:
//! each endpoint owns a single uplink ring into its switch's shard and a
//! single downlink ring back, and each switch is a [`SwitchShard`] — a
//! store-and-forward crossbar that routes encoded frames by peeking the
//! flow identity ([`WireFrame::peek_flow`]) and consulting the topology's
//! precomputed route tables. Switch-to-switch trunks are the same SPSC
//! rings, one pair per physical trunk — parallel trunks between the same
//! switches are distinct rings, and flows hash-spread across them.
//!
//! Three properties carry over from the paper's design (Section 4.5):
//!
//! * **Constant per-host memory.** A host's wiring is one uplink + one
//!   downlink regardless of cluster size; the sender's reject queue (its
//!   retransmission buffer) was already sized by the window alone. Growing
//!   the cluster adds switch shards, not per-host state — design rule 4's
//!   "flow control must not require per-pair buffering".
//! * **Backpressure, not loss.** A shard forwards a frame only when the
//!   output ring has room; otherwise the frame parks in a small per-input
//!   stash (≤ one poll batch) and that input stops draining until the head
//!   clears — wormhole-style head-of-line blocking. Full downstream rings
//!   therefore propagate pressure hop by hop back to the sending
//!   endpoint's uplink, whose refusal lands frames in the endpoint backlog
//!   bounded by its send window. On trees and two-level fat trees the
//!   blocking graph is acyclic and cannot deadlock; pathological shapes
//!   are broken by the stash age-out instead.
//! * **Fair arbitration.** Input ports contend for output capacity
//!   through a deficit-round-robin scheduler ([`SwitchConfig::quantum`]):
//!   each DRR round gives every backlogged input a byte quantum, and a
//!   rotating service pointer keeps low-numbered ports from winning every
//!   tie. Without this, an incast's first sender monopolizes the
//!   receiver's downlink ring and the rest starve — the K=15 fairness
//!   collapse the scaling bench used to record.
//!
//! Forwarding cost is paced by **adaptive batching**: each shard polls up
//! to [`SwitchShard::batch`] frames per input per service turn, growing
//! the batch while polls keep coming back full (a busy fabric amortizes
//! ring-atomic costs over bigger batches) and shrinking it when the shard
//! idles. Batch occupancy is sampled into a telemetry histogram for
//! offline inspection.
//!
//! Return-to-sender flow control needs nothing new: a receiver's bounce
//! (`Return`) frame carries the original sender as `dst` and routes back
//! through the same shards like any other frame, so reject/retransmit
//! works unchanged across multi-hop paths. A bounce is its own flow
//! (src/dst swapped), so it may ride a different parallel trunk than the
//! data path — per-flow ordering is what matters, and that is preserved.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fm_myrinet::{NodeId, SwitchTopology};
use fm_telemetry::Histogram;

use crate::endpoint::EndpointConfig;
use crate::fabric::{spsc_ring, RingConsumer, RingProducer};
use crate::fault::FaultConfig;
use crate::frame::{WireFrame, FM_FRAME_MAX};
use crate::mem::{join_within, MemEndpoint, ShutdownError};
use crate::wire::Wire;

/// Knobs for the switch shards, wired through
/// [`SwitchedCluster::with_switch_config`].
#[derive(Debug, Clone, Copy)]
pub struct SwitchConfig {
    /// Floor of the adaptive poll batch (frames polled per input per
    /// service turn when the fabric is quiet).
    pub min_batch: usize,
    /// Ceiling of the adaptive poll batch — also the bound on each
    /// input's stash, so shard memory is
    /// `inputs × max_batch × FM_FRAME_MAX` no matter the offered load.
    pub max_batch: usize,
    /// DRR byte quantum added to each backlogged input's deficit per
    /// scheduler round. Smaller quanta interleave contending inputs more
    /// finely (fairer under incast, more scheduler overhead); the default
    /// is two max-size frames.
    pub quantum: usize,
    /// Pin each [`SwitchRunner`] shard thread to a core
    /// (`switch_id % cores`). Best-effort: silently skipped on platforms
    /// without an affinity syscall shim.
    pub pin_shards: bool,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            min_batch: 4,
            max_batch: 64,
            quantum: 2 * FM_FRAME_MAX,
            pin_shards: false,
        }
    }
}

/// Forwarding counters for one switch shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Frames copied into an output ring.
    pub forwarded: u64,
    /// Service turns stalled by a full output ring (the head frame parked
    /// in the stash and the input stopped draining for the pump).
    pub stalled: u64,
    /// Frames dropped because no destination could be peeked or routed
    /// (truncated/unknown-version image, or a destination outside the
    /// topology — only reachable through injected corruption).
    pub dropped: u64,
    /// Stashed frames discarded after [`STASH_RETRY_LIMIT`] consecutive
    /// blocked pumps — a downstream ring nobody drains (dead host).
    /// The reliability layer treats this as loss: live senders
    /// retransmit, senders to the dead host burn their retry budget and
    /// declare it unreachable.
    pub timed_out: u64,
}

/// Consecutive pumps a stashed head frame may find its output full before
/// it is dropped. Transient congestion clears in tens of pumps (the
/// receiver only has to extract); only a *never*-drained output — a host
/// that stopped extracting entirely — reaches this, and leaving its frames
/// parked would head-of-line-block every flow sharing the input (a dead
/// node wedging live ones through a shared trunk).
const STASH_RETRY_LIMIT: u32 = 512;

/// DRR rounds a single `pump` may run before returning even though frames
/// keep arriving (live producers can otherwise keep a work-conserving
/// pump busy indefinitely, starving the runner's stop-flag check).
const ROTATION_CAP: usize = 128;

/// One in this many service turns samples its poll occupancy into the
/// shard's batch histogram.
const OCCUPANCY_SAMPLE: u64 = 8;

/// A frame pulled off an input ring whose output was full (or whose
/// input's quantum ran out) at the time.
struct Stashed {
    out: usize,
    len: usize,
    /// Consecutive pumps on which the output was still full.
    tries: u32,
    buf: [u8; FM_FRAME_MAX],
}

/// One input port: the ring being drained, its bounded store-and-forward
/// stash, and its DRR accounting.
struct SwitchInput {
    ring: RingConsumer,
    /// At most one poll batch of frames; the input is not polled again
    /// until this drains, preserving per-flow arrival order.
    stash: VecDeque<Stashed>,
    /// DRR deficit, in bytes. Refilled by `quantum` each service round
    /// while the input is backlogged, reset to zero when it idles, and
    /// never driven negative (a frame is forwarded only when the deficit
    /// covers its full length).
    deficit: i64,
    /// Head frame found its output full this pump: stop serving the input
    /// until the next pump (the consumer has to drain first).
    blocked: bool,
    /// Frames this input has forwarded over its lifetime — the fairness
    /// ledger the DRR property tests audit.
    forwarded: u64,
}

impl SwitchInput {
    fn new(ring: RingConsumer) -> Self {
        SwitchInput {
            ring,
            stash: VecDeque::new(),
            deficit: 0,
            blocked: false,
            forwarded: 0,
        }
    }
}

/// One switch of the topology, as a runnable forwarding engine.
///
/// Owns the consumer side of every ring feeding this switch (host uplinks
/// and inbound trunks) and the producer side of every ring leaving it
/// (host downlinks and outbound trunks). `Send` but not `Sync`: pin each
/// shard to one thread, or drive all of them round-robin on one.
pub struct SwitchShard {
    id: usize,
    config: SwitchConfig,
    inputs: Vec<SwitchInput>,
    outputs: Vec<RingProducer>,
    /// Destination host index → candidate output indices. Precomputed
    /// from the topology: a local host maps to its downlink (one
    /// candidate), a remote one to every trunk on a shortest path toward
    /// its switch. Multi-candidate rows are resolved per flow by hashing
    /// the frame's (src, dst) — [`SwitchTopology::spread`] — so a flow's
    /// trunk choice is stable and per-source order is preserved.
    route: Vec<Vec<usize>>,
    /// Current adaptive poll batch, in `min_batch..=max_batch`.
    batch: usize,
    /// Rotating DRR service pointer: which input the next pump serves
    /// first, so ties for scarce output space rotate instead of always
    /// going to port 0.
    rr: usize,
    /// Frames forwarded per output port over the shard's lifetime —
    /// indexed like `outputs` (host downlinks first, then trunks). The
    /// busiest entry is the link whose serialization bounds a workload's
    /// latency, which is what the collective benchmarks gate on.
    output_forwarded: Vec<u64>,
    turns: u64,
    /// Poll occupancy per sampled service turn (frames pulled off the
    /// input ring), for offline batching diagnosis.
    occupancy: Histogram,
    pub stats: SwitchStats,
}

impl SwitchShard {
    /// Which switch of the topology this shard implements.
    pub fn switch_id(&self) -> usize {
        self.id
    }

    /// True when nothing is parked in any input stash. (Input *rings* may
    /// still hold frames; a `pump` returning 0 with `is_idle` means the
    /// shard is fully drained.)
    pub fn is_idle(&self) -> bool {
        self.inputs.iter().all(|i| i.stash.is_empty())
    }

    /// Frames parked in the input stashes, over all inputs.
    pub fn stashed(&self) -> usize {
        self.inputs.iter().map(|i| i.stash.len()).sum()
    }

    /// The current adaptive poll batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Each input's current DRR deficit, in bytes. Never negative.
    pub fn deficits(&self) -> Vec<i64> {
        self.inputs.iter().map(|i| i.deficit).collect()
    }

    /// Frames forwarded per input port over the shard's lifetime.
    pub fn input_forwarded(&self) -> Vec<u64> {
        self.inputs.iter().map(|i| i.forwarded).collect()
    }

    /// Frames forwarded per output port over the shard's lifetime
    /// (indexed like the construction order: local host downlinks first,
    /// then trunks). The maximum entry across a run is the serialization
    /// bottleneck of whatever traffic pattern ran — the quantity the
    /// topology-aware collectives exist to shrink.
    pub fn output_forwarded(&self) -> &[u64] {
        &self.output_forwarded
    }

    /// Poll-occupancy histogram (frames per sampled poll), the
    /// telemetry feed of the adaptive batcher.
    pub fn occupancy_histogram(&self) -> &Histogram {
        &self.occupancy
    }

    /// Snapshot every observability-relevant series of this shard into
    /// the beacon wire form: counters, adaptive batch, queue-depth
    /// summary + octaves, DRR deficits, per-port forwarding totals. What
    /// a shard telemetry beacon carries.
    pub fn sample(&self) -> fm_telemetry::ShardSample {
        fm_telemetry::ShardSample {
            switch_id: self.id as u16,
            forwarded: self.stats.forwarded,
            stalled: self.stats.stalled,
            dropped: self.stats.dropped,
            timed_out: self.stats.timed_out,
            batch: self.batch as u64,
            occupancy: self.occupancy.summary(),
            occupancy_octaves: self.occupancy.octave_counts(),
            deficits: self.deficits(),
            input_forwarded: self.input_forwarded(),
            output_forwarded: self.output_forwarded.clone(),
        }
    }

    /// One forwarding pass: deficit-round-robin over the input ports,
    /// starting at the rotating pointer, repeating rounds until no input
    /// makes progress (or [`ROTATION_CAP`] rounds, under live inflow).
    /// Each round a backlogged input earns `quantum` bytes of deficit and
    /// forwards stash-then-ring frames while the deficit covers them; an
    /// input whose head frame finds a full output blocks for the rest of
    /// the pump (wormhole-style — the consumer has to drain first).
    /// Returns the number of frames moved or polled — 0 means the shard
    /// found no work anywhere.
    pub fn pump(&mut self) -> usize {
        let ninputs = self.inputs.len();
        if ninputs == 0 {
            return 0;
        }
        for input in &mut self.inputs {
            input.blocked = false;
        }
        let mut total = 0;
        let mut polled_any = false;
        for round in 0..ROTATION_CAP {
            let mut progressed = 0;
            for k in 0..ninputs {
                let i = (self.rr + k) % ninputs;
                let (moved, polled) = self.serve_input(i);
                progressed += moved;
                polled_any |= polled > 0;
            }
            total += progressed;
            if progressed == 0 {
                // First idle pass on an idle shard: decay the batch.
                if round == 0 && total == 0 {
                    self.batch = (self.batch / 2).max(self.config.min_batch);
                }
                break;
            }
        }
        if polled_any || total > 0 {
            self.rr = (self.rr + 1) % ninputs;
        }
        total
    }

    /// Serve one input for one DRR turn. Returns (frames moved or
    /// dropped, frames polled off the ring).
    fn serve_input(&mut self, i: usize) -> (usize, usize) {
        let Self {
            config,
            inputs,
            outputs,
            output_forwarded,
            route,
            batch,
            turns,
            occupancy,
            stats,
            id,
            ..
        } = self;
        let input = &mut inputs[i];
        if input.blocked {
            return (0, 0);
        }
        let quantum = config.quantum as i64;
        let deficit_cap = quantum.max(FM_FRAME_MAX as i64) + FM_FRAME_MAX as i64;
        input.deficit = (input.deficit + quantum).min(deficit_cap);
        let mut moved = 0;
        // Stash first, in arrival order. A still-full output blocks this
        // whole input for the pump (wormhole-style): frames behind the
        // head stay queued, and the upstream ring backs up behind them.
        while let Some(st) = input.stash.front_mut() {
            if input.deficit < st.len as i64 {
                // Out of quantum: the next DRR round tops it up.
                return (moved, 0);
            }
            let ok = outputs[st.out].try_push_with(|slot| {
                slot[..st.len].copy_from_slice(&st.buf[..st.len]);
                st.len
            });
            if !ok {
                st.tries += 1;
                if st.tries >= STASH_RETRY_LIMIT {
                    // The output never drained across hundreds of pumps:
                    // its host is gone. Drop the frame instead of letting
                    // a dead node head-of-line-block every live flow
                    // sharing this input.
                    input.stash.pop_front();
                    stats.timed_out += 1;
                    moved += 1;
                    continue;
                }
                stats.stalled += 1;
                input.blocked = true;
                return (moved, 0);
            }
            input.deficit -= st.len as i64;
            output_forwarded[st.out] += 1;
            input.stash.pop_front();
            input.forwarded += 1;
            stats.forwarded += 1;
            moved += 1;
        }
        if input.deficit <= 0 {
            return (moved, 0);
        }
        // Ring next: poll up to a batch; frames beyond the deficit (or
        // behind a full output) park in the stash so order is preserved
        // and nothing is lost. The stash is therefore bounded by one poll
        // batch.
        let SwitchInput {
            ring,
            stash,
            deficit,
            blocked,
            forwarded,
        } = input;
        let polled = ring.poll_batch(*batch, |bytes| {
            let cand = WireFrame::peek_flow(bytes).and_then(|(src, dst)| {
                route.get(dst.index()).and_then(|c| match c.len() {
                    0 => None,
                    1 => Some(c[0]),
                    n => {
                        Some(c[SwitchTopology::spread(*id, SwitchTopology::flow_hash(src, dst), n)])
                    }
                })
            });
            let Some(out) = cand else {
                // Unpeekable or unroutable: drop it here; if it was a
                // corrupted data frame the sender's retransmission timer
                // recovers it.
                stats.dropped += 1;
                return;
            };
            // Order within the input must hold, so once one frame stashes
            // everything after it stashes too.
            let fits = *deficit >= bytes.len() as i64 && stash.is_empty();
            if fits
                && outputs[out].try_push_with(|slot| {
                    slot[..bytes.len()].copy_from_slice(bytes);
                    bytes.len()
                })
            {
                *deficit -= bytes.len() as i64;
                output_forwarded[out] += 1;
                *forwarded += 1;
                stats.forwarded += 1;
            } else {
                if fits {
                    // Head-of-line: a full output blocks the input.
                    stats.stalled += 1;
                    *blocked = true;
                }
                let mut buf = [0u8; FM_FRAME_MAX];
                buf[..bytes.len()].copy_from_slice(bytes);
                stash.push_back(Stashed {
                    out,
                    len: bytes.len(),
                    tries: 0,
                    buf,
                });
            }
        });
        if input.stash.is_empty() && polled == 0 && moved == 0 {
            // Idle input: reset its DRR state so it cannot bank quantum
            // while it has nothing to say.
            input.deficit = 0;
        }
        *turns += 1;
        if *turns % OCCUPANCY_SAMPLE == 0 {
            occupancy.record(polled as u64);
        }
        if polled == *batch {
            // The ring filled the whole batch: the fabric is busy, poll
            // coarser to amortize ring atomics.
            *batch = (*batch * 2).min(config.max_batch);
        }
        (moved + polled.saturating_sub(input.stash.len()), polled)
    }
}

impl std::fmt::Debug for SwitchShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchShard")
            .field("id", &self.id)
            .field("inputs", &self.inputs.len())
            .field("outputs", &self.outputs.len())
            .field("batch", &self.batch)
            .field("stashed", &self.stashed())
            .field("stats", &self.stats)
            .finish()
    }
}

/// A switch-routed cluster: endpoints plus the shards that connect them.
pub struct SwitchedCluster {
    pub endpoints: Vec<MemEndpoint>,
    pub shards: Vec<SwitchShard>,
    /// The wiring the cluster was built over, shared with every endpoint
    /// (see [`MemEndpoint::topology`]).
    topo: Arc<SwitchTopology>,
}

impl SwitchedCluster {
    /// Build endpoints and switch shards over `topo` with explicit
    /// endpoint sizing and default [`SwitchConfig`].
    ///
    /// # Panics
    /// Like [`crate::mem::MemCluster::with_config`], if any of
    /// `config.window`, `config.recv_ring`, `config.wire_ring` is zero.
    pub fn new(topo: &SwitchTopology, config: EndpointConfig) -> Self {
        Self::with_switch_config(topo, config, SwitchConfig::default())
    }

    /// Build with explicit shard knobs too.
    ///
    /// # Panics
    /// As [`SwitchedCluster::new`]; additionally if `switch.min_batch` is
    /// zero or exceeds `switch.max_batch`, or `switch.quantum` is zero.
    pub fn with_switch_config(
        topo: &SwitchTopology,
        config: EndpointConfig,
        switch: SwitchConfig,
    ) -> Self {
        assert!(config.wire_ring > 0, "wire_ring must be >= 1 frame");
        assert!(switch.min_batch > 0, "min_batch must be >= 1 frame");
        assert!(
            switch.min_batch <= switch.max_batch,
            "min_batch {} > max_batch {}",
            switch.min_batch,
            switch.max_batch
        );
        assert!(switch.quantum > 0, "quantum must be >= 1 byte");
        let n = topo.hosts();
        let nswitches = topo.switches();
        let shared_topo = Arc::new(topo.clone());
        let mut inputs: Vec<Vec<SwitchInput>> = (0..nswitches).map(|_| Vec::new()).collect();
        let mut outputs: Vec<Vec<RingProducer>> = (0..nswitches).map(|_| Vec::new()).collect();
        // Host wiring first, in host order: shard `s`'s outputs start with
        // the downlinks of its hosts (ascending), trunks follow.
        let mut down_idx = vec![0usize; n];
        let mut endpoints = Vec::with_capacity(n);
        for (h, di) in down_idx.iter_mut().enumerate() {
            let s = topo.switch_of(NodeId(h as u16));
            let (up_p, up_c) = spsc_ring(config.wire_ring);
            let (down_p, down_c) = spsc_ring(config.wire_ring);
            inputs[s].push(SwitchInput::new(up_c));
            *di = outputs[s].len();
            outputs[s].push(down_p);
            endpoints.push(MemEndpoint::new(
                NodeId(h as u16),
                config,
                Wire::Switched {
                    up: up_p,
                    down: down_c,
                    cluster: n,
                    topo: shared_topo.clone(),
                },
            ));
        }
        // Trunks: one ring per direction per physical trunk, producer on
        // the near shard (in link order, right after the host downlinks),
        // consumer on the far one. Parallel trunks get parallel rings.
        let trunk_base: Vec<usize> = (0..nswitches).map(|s| outputs[s].len()).collect();
        for (s, outs) in outputs.iter_mut().enumerate() {
            for link in topo.links_of(s) {
                let (p, c) = spsc_ring(config.wire_ring);
                outs.push(p);
                inputs[link.peer].push(SwitchInput::new(c));
            }
        }
        let shards = inputs
            .into_iter()
            .zip(outputs)
            .enumerate()
            .map(|(s, (inputs, outputs))| {
                let route = (0..n)
                    .map(|dst| {
                        let ds = topo.switch_of(NodeId(dst as u16));
                        if ds == s {
                            vec![down_idx[dst]]
                        } else {
                            topo.route_choices(s, ds)
                                .iter()
                                .map(|&pos| trunk_base[s] + pos)
                                .collect()
                        }
                    })
                    .collect();
                SwitchShard {
                    id: s,
                    config: switch,
                    output_forwarded: vec![0; outputs.len()],
                    inputs,
                    outputs,
                    route,
                    batch: switch.min_batch,
                    rr: 0,
                    turns: 0,
                    occupancy: Histogram::new(),
                    stats: SwitchStats::default(),
                }
            })
            .collect();
        SwitchedCluster {
            endpoints,
            shards,
            topo: shared_topo,
        }
    }

    /// The topology the cluster was wired over.
    pub fn topology(&self) -> &Arc<SwitchTopology> {
        &self.topo
    }

    /// Like [`SwitchedCluster::new`] with a seeded [`crate::fault::FaultInjector`]
    /// decorating every endpoint's transmit path (the switched analogue of
    /// [`crate::mem::MemCluster::with_faulty_fabric`]). Faults are applied
    /// before the uplink, so corrupted frames traverse — and may be
    /// misrouted by — the real shards.
    pub fn with_faults(topo: &SwitchTopology, config: EndpointConfig, faults: FaultConfig) -> Self {
        let mut cluster = Self::new(topo, config);
        for ep in &mut cluster.endpoints {
            ep.inject_faults(&faults);
        }
        cluster
    }

    /// One single-threaded drive round: every endpoint extracts, every
    /// shard forwards. Returns handlers invoked + frames the shards moved,
    /// so callers can loop until the whole cluster is quiet. The
    /// deterministic harness the soak and property tests use.
    pub fn drive_round(&mut self) -> usize {
        let mut work = 0;
        for ep in &mut self.endpoints {
            work += ep.extract();
        }
        for shard in &mut self.shards {
            work += shard.pump();
        }
        work
    }

    /// Split into parts for threaded runs (endpoints into a
    /// [`crate::mem::ClusterRunner`], shards into a [`SwitchRunner`]).
    pub fn split(self) -> (Vec<MemEndpoint>, Vec<SwitchShard>) {
        (self.endpoints, self.shards)
    }
}

/// Best-effort thread→core pinning via the raw `sched_setaffinity`
/// syscall (no libc dependency). Returns false where unsupported.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_to_core(core: usize) -> bool {
    let mut mask = [0u64; 16]; // up to 1024 CPUs
    mask[(core / 64) % mask.len()] = 1u64 << (core % 64);
    let ret: i64;
    // SAFETY: sched_setaffinity(pid=0 → calling thread, len, mask) reads
    // `mask` only; no memory is written and no Rust invariants are
    // affected. Syscall number 203 on x86_64.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret,
            in("rdi") 0,
            in("rsi") mask.len() * 8,
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly)
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin_to_core(_core: usize) -> bool {
    false
}

/// Runs one forwarding thread per switch shard.
///
/// Start it before driving traffic; shut the *endpoints* down first (they
/// quiesce only if frames still forward), then the switches. When the
/// shards were built with [`SwitchConfig::pin_shards`], each thread pins
/// itself to core `switch_id % cores` before forwarding.
pub struct SwitchRunner {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<SwitchShard>>,
}

impl SwitchRunner {
    pub fn start(shards: Vec<SwitchShard>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let handles = shards
            .into_iter()
            .map(|mut shard| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    if shard.config.pin_shards {
                        let _ = pin_to_core(shard.id % cores);
                    }
                    while !stop.load(Ordering::Relaxed) {
                        if shard.pump() == 0 {
                            std::thread::yield_now();
                        }
                    }
                    // Final drain so trailing acks reach their endpoints.
                    while shard.pump() > 0 {}
                    shard
                })
            })
            .collect();
        SwitchRunner { stop, handles }
    }

    /// Stop and join the forwarding threads, returning the shards (in
    /// switch order) for stats inspection.
    pub fn shutdown(mut self, timeout: Duration) -> Result<Vec<SwitchShard>, ShutdownError> {
        self.stop.store(true, Ordering::SeqCst);
        let handles = self.handles.drain(..).enumerate();
        join_within(handles.map(|(i, h)| (NodeId(i as u16), h)), timeout)
    }
}

impl Drop for SwitchRunner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::HandlerId;
    use crate::mem::ClusterRunner;
    use parking_lot::Mutex;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    fn drive_until(cluster: &mut SwitchedCluster, mut done: impl FnMut() -> bool) {
        let mut guard = 0;
        while !done() {
            cluster.drive_round();
            guard += 1;
            assert!(guard < 100_000, "switched cluster wedged");
        }
        // Let trailing acks land so everyone quiesces.
        for _ in 0..50 {
            cluster.drive_round();
        }
    }

    #[test]
    fn single_switch_delivers_all_pairs() {
        let topo = SwitchTopology::single(4, 8);
        let mut cluster = SwitchedCluster::new(&topo, EndpointConfig::default());
        let seen = Arc::new(Mutex::new(HashSet::new()));
        for ep in &mut cluster.endpoints {
            let seen = seen.clone();
            let me = ep.node_id();
            ep.register_handler_at(HandlerId(1), move |_, src, data| {
                assert!(seen.lock().insert((src, me, data[0])), "duplicate");
            });
        }
        for src in 0..4u16 {
            for dst in 0..4u16 {
                if src == dst {
                    continue;
                }
                for k in 0..3u8 {
                    cluster.endpoints[src as usize]
                        .try_send(NodeId(dst), HandlerId(1), &[k])
                        .unwrap();
                }
            }
        }
        drive_until(&mut cluster, || seen.lock().len() == 4 * 3 * 3);
        for ep in &cluster.endpoints {
            assert!(ep.is_quiescent(), "{ep:?}");
        }
        let forwarded: u64 = cluster.shards.iter().map(|s| s.stats.forwarded).sum();
        assert!(
            forwarded >= 36,
            "every frame crossed the shard: {forwarded}"
        );
    }

    #[test]
    fn chain_routes_across_three_switches() {
        // 6 hosts, 2 per switch: host 0 -> host 5 crosses two trunks.
        let topo = SwitchTopology::chain(6, 2, 8);
        let mut cluster = SwitchedCluster::new(&topo, EndpointConfig::default());
        let got = Arc::new(AtomicU64::new(0));
        let g = got.clone();
        cluster.endpoints[5].register_handler_at(HandlerId(1), move |out, src, data| {
            // Reply across the full chain so the return path is exercised.
            g.fetch_add(data[0] as u64, Ordering::SeqCst);
            out.send(src, HandlerId(2), vec![data[0] + 1]);
        });
        let echoed = Arc::new(AtomicU64::new(0));
        let e = echoed.clone();
        cluster.endpoints[0].register_handler_at(HandlerId(2), move |_, src, data| {
            assert_eq!(src, NodeId(5));
            e.fetch_add(data[0] as u64, Ordering::SeqCst);
        });
        cluster.endpoints[0]
            .try_send(NodeId(5), HandlerId(1), &[21])
            .unwrap();
        drive_until(&mut cluster, || echoed.load(Ordering::SeqCst) == 22);
        assert_eq!(got.load(Ordering::SeqCst), 21);
        // Both middle trunks forwarded in both directions: every shard saw
        // traffic (data + acks each way).
        for shard in &cluster.shards {
            assert!(shard.stats.forwarded > 0, "{shard:?}");
            assert_eq!(shard.stats.dropped, 0);
        }
        assert_eq!(topo.hops(NodeId(0), NodeId(5)), 3);
    }

    #[test]
    fn incast_overload_bounces_across_switch_and_stays_bounded() {
        // 4 senders overload host 0 through one switch; the receiver's
        // 4-frame ring forces return-to-sender bounces over the shard, and
        // every sender's reject queue stays within its window.
        let topo = SwitchTopology::single(5, 8);
        let config = EndpointConfig {
            window: 16,
            recv_ring: 4,
            retransmit_per_extract: 4,
            ..Default::default()
        };
        let mut cluster = SwitchedCluster::new(&topo, config);
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let s2 = seen.clone();
        cluster.endpoints[0].register_handler_at(HandlerId(1), move |_, src, data| {
            let v = u32::from_le_bytes(data.try_into().unwrap());
            assert!(s2.lock().insert((src, v)), "duplicate delivery");
        });
        const PER_SENDER: u32 = 48;
        let mut pending: Vec<u32> = vec![0; 5];
        let mut peak = 0usize;
        let mut guard = 0;
        loop {
            let mut all_sent = true;
            for (src, p) in pending.iter_mut().enumerate().skip(1) {
                while *p < PER_SENDER {
                    let v = *p;
                    match cluster.endpoints[src].try_send(NodeId(0), HandlerId(1), &v.to_le_bytes())
                    {
                        Ok(()) => *p += 1,
                        Err(_) => break,
                    }
                }
                all_sent &= *p == PER_SENDER;
                peak = peak.max(cluster.endpoints[src].outstanding());
            }
            // Slow receiver: tiny extract budget keeps it overloaded.
            cluster.endpoints[0].extract_budget(2);
            for src in 1..5 {
                cluster.endpoints[src].service();
            }
            for shard in &mut cluster.shards {
                shard.pump();
            }
            if all_sent && seen.lock().len() == 4 * PER_SENDER as usize {
                break;
            }
            guard += 1;
            assert!(guard < 100_000, "incast wedged: {:?}", cluster.shards[0]);
        }
        assert!(
            cluster.endpoints[0].stats().rejected > 0,
            "overload must bounce"
        );
        assert!(peak <= 16, "reject queue exceeded the window: {peak}");
        assert_eq!(seen.lock().len(), 4 * PER_SENDER as usize);
    }

    #[test]
    fn threaded_runners_pingpong_across_chain() {
        let topo = SwitchTopology::chain(12, 6, 8);
        let mut cluster = SwitchedCluster::new(&topo, EndpointConfig::default());
        const ROUNDS: u64 = 100;
        let done = Arc::new(AtomicU64::new(0));
        // Host 11 echoes; host 0 counts.
        {
            let d = done.clone();
            cluster.endpoints[11].register_handler_at(HandlerId(1), move |out, src, data| {
                out.send(src, HandlerId(2), data.to_vec());
                let _ = d.load(Ordering::Relaxed);
            });
            let d = done.clone();
            cluster.endpoints[0].register_handler_at(HandlerId(2), move |_, _, _| {
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        let (mut endpoints, shards) = cluster.split();
        let switches = SwitchRunner::start(shards);
        let mut ep0 = endpoints.remove(0);
        let others = ClusterRunner::start(endpoints);
        for i in 0..ROUNDS {
            ep0.send(NodeId(11), HandlerId(1), &(i as u32).to_le_bytes());
            while done.load(Ordering::SeqCst) <= i {
                ep0.extract();
                std::thread::yield_now();
            }
        }
        // Drain trailing acks before shutting anything down.
        for _ in 0..20 {
            ep0.extract();
            std::thread::yield_now();
        }
        let eps = others
            .shutdown(Duration::from_secs(10))
            .expect("endpoints join");
        let shards = switches
            .shutdown(Duration::from_secs(10))
            .expect("switches join");
        assert_eq!(done.load(Ordering::SeqCst), ROUNDS);
        assert_eq!(ep0.stats().sent, ROUNDS);
        assert!(eps.iter().all(|e| e.codec_errors == 0));
        assert!(shards.iter().all(|s| s.stats.dropped == 0));
    }

    #[test]
    fn tiny_rings_backpressure_through_the_shard() {
        // 1-deep rings everywhere: the shard must stash and stall rather
        // than drop, and everything still arrives exactly once.
        let topo = SwitchTopology::chain(4, 2, 8);
        let config = EndpointConfig {
            wire_ring: 1,
            ..Default::default()
        };
        let mut cluster = SwitchedCluster::new(&topo, config);
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let s2 = seen.clone();
        cluster.endpoints[3].register_handler_at(HandlerId(1), move |_, _, data| {
            let v = u32::from_le_bytes(data.try_into().unwrap());
            assert!(s2.lock().insert(v), "duplicate delivery of {v}");
        });
        // Phase 1: queue a burst while host 3 never extracts. Its 1-deep
        // downlink fills after the first frame, so the far shard must
        // stash-and-stall, the trunk backs up, and pressure reaches the
        // sender's backlog — nothing may be dropped.
        for i in 0..32u32 {
            let _ = cluster.endpoints[0].try_send(NodeId(3), HandlerId(1), &i.to_le_bytes());
        }
        for _ in 0..20 {
            cluster.endpoints[0].service();
            for shard in &mut cluster.shards {
                shard.pump();
            }
        }
        let stalled: u64 = cluster.shards.iter().map(|s| s.stats.stalled).sum();
        assert!(stalled > 0, "1-deep rings must have stalled the shard");
        // Phase 2: let everyone run; the stalled frames drain through.
        drive_until(&mut cluster, || seen.lock().len() == 32);
        assert_eq!(seen.lock().len(), 32);
        assert!(cluster.shards.iter().all(|s| s.stats.dropped == 0));
    }

    #[test]
    fn dead_host_ages_out_of_the_stash_instead_of_wedging_the_input() {
        // Hosts 2 and 3 share switch 1; host 3 is dead (never extracts)
        // and its downlink is 1-deep, so frames bound for it park in the
        // shard's stash and head-of-line-block the trunk — including a
        // frame for the perfectly live host 2 queued behind them. The
        // stash age-out must drop the dead host's frames so host 2's
        // message still arrives and the sender declares host 3 dead.
        let topo = SwitchTopology::chain(4, 2, 8);
        let config = EndpointConfig {
            window: 16,
            recv_ring: 16,
            wire_ring: 1,
            rto_initial: 8,
            rto_max: 64,
            retry_budget: 4,
            ..Default::default()
        };
        let mut cluster = SwitchedCluster::new(&topo, config);
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        cluster.endpoints[2].register_handler_at(HandlerId(1), move |_, src, _| {
            assert_eq!(src, NodeId(0));
            s2.fetch_add(1, Ordering::SeqCst);
        });
        for i in 0..4u32 {
            cluster.endpoints[0]
                .try_send(NodeId(3), HandlerId(1), &i.to_le_bytes())
                .unwrap();
        }
        cluster.endpoints[0]
            .try_send(NodeId(2), HandlerId(1), &99u32.to_le_bytes())
            .unwrap();
        let mut guard = 0;
        while seen.load(Ordering::SeqCst) < 1 || !cluster.endpoints[0].is_peer_dead(NodeId(3)) {
            cluster.endpoints[0].extract();
            cluster.endpoints[1].extract();
            cluster.endpoints[2].extract();
            // Host 3 is never driven.
            for shard in &mut cluster.shards {
                shard.pump();
            }
            guard += 1;
            assert!(
                guard < 200_000,
                "dead host wedged the fabric: {:?}",
                cluster.shards[1]
            );
        }
        let timed_out: u64 = cluster.shards.iter().map(|s| s.stats.timed_out).sum();
        assert!(
            timed_out > 0,
            "dead host's frames must age out of the stash"
        );
        assert_eq!(seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn multi_trunk_chain_spreads_flows_and_delivers_in_order() {
        // Two switches joined by 3 parallel trunks; 4 hosts a side, all 4
        // flows cross. The flow hash must spread them over more than one
        // trunk ring, and per-flow order must hold.
        let topo = SwitchTopology::chain_multi(8, 4, 3, 8);
        let mut cluster = SwitchedCluster::new(&topo, EndpointConfig::default());
        let logs: Vec<Arc<Mutex<Vec<u32>>>> = (0..4).map(|_| Default::default()).collect();
        for (pair, log) in logs.iter().enumerate() {
            let log = log.clone();
            cluster.endpoints[4 + pair].register_handler_at(HandlerId(1), move |_, _, data| {
                log.lock()
                    .push(u32::from_le_bytes(data.try_into().unwrap()));
            });
        }
        const MSGS: u32 = 40;
        let mut next = [0u32; 4];
        let mut guard = 0;
        loop {
            let mut all = true;
            for (pair, nx) in next.iter_mut().enumerate() {
                while *nx < MSGS {
                    match cluster.endpoints[pair].try_send(
                        NodeId((4 + pair) as u16),
                        HandlerId(1),
                        &nx.to_le_bytes(),
                    ) {
                        Ok(()) => *nx += 1,
                        Err(_) => break,
                    }
                }
                all &= *nx == MSGS;
            }
            cluster.drive_round();
            if all && logs.iter().all(|l| l.lock().len() == MSGS as usize) {
                break;
            }
            guard += 1;
            assert!(guard < 100_000, "multi-trunk chain wedged");
        }
        for (pair, log) in logs.iter().enumerate() {
            let log = log.lock();
            for (i, &v) in log.iter().enumerate() {
                assert_eq!(v, i as u32, "flow {pair} out of order at {i}");
            }
        }
        // The forward direction uses trunk outputs 4.. on switch 0
        // (outputs 0..4 are downlinks); at least two distinct trunks must
        // have carried flows — the whole point of the spread.
        let spread: Vec<usize> = (0..4)
            .map(|pair| {
                let src = NodeId(pair as u16);
                let dst = NodeId((4 + pair) as u16);
                topo.flow_link(0, 1, src, dst)
            })
            .collect();
        let distinct: HashSet<usize> = spread.iter().copied().collect();
        assert!(
            distinct.len() >= 2,
            "4 flows over 3 trunks must spread: {spread:?}"
        );
    }

    #[test]
    fn fat_tree_routes_and_replies_across_spines() {
        let topo = SwitchTopology::fat_tree(12, 3, 2, 8);
        let mut cluster = SwitchedCluster::new(&topo, EndpointConfig::default());
        let echoed = Arc::new(AtomicU64::new(0));
        for h in 0..12 {
            cluster.endpoints[h].register_handler_at(HandlerId(1), move |out, src, data| {
                out.send(src, HandlerId(2), data.to_vec());
            });
            let e = echoed.clone();
            cluster.endpoints[h].register_handler_at(HandlerId(2), move |_, _, _| {
                e.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Every host pings its "diagonal" peer on a different leaf.
        let mut sent = 0;
        for src in 0..12u16 {
            let dst = (src + 5) % 12;
            if topo.switch_of(NodeId(src)) != topo.switch_of(NodeId(dst)) {
                cluster.endpoints[src as usize]
                    .try_send(NodeId(dst), HandlerId(1), &[src as u8])
                    .unwrap();
                sent += 1;
            }
        }
        drive_until(&mut cluster, || echoed.load(Ordering::SeqCst) == sent);
        assert!(cluster.shards.iter().all(|s| s.stats.dropped == 0));
        // Spine shards (ids 4 and 5) both forwarded: flows spread.
        assert!(
            cluster.shards[4].stats.forwarded > 0,
            "{:?}",
            cluster.shards[4]
        );
        assert!(
            cluster.shards[5].stats.forwarded > 0,
            "{:?}",
            cluster.shards[5]
        );
    }

    #[test]
    fn drr_deficits_never_negative_and_batch_adapts() {
        let topo = SwitchTopology::single(5, 8);
        let switch = SwitchConfig {
            min_batch: 2,
            max_batch: 32,
            ..Default::default()
        };
        let mut cluster =
            SwitchedCluster::with_switch_config(&topo, EndpointConfig::default(), switch);
        cluster.endpoints[0].register_handler_at(HandlerId(1), |_, _, _| {});
        assert_eq!(cluster.shards[0].batch(), 2);
        for _ in 0..3 {
            for src in 1..5 {
                for k in 0..8u32 {
                    let _ =
                        cluster.endpoints[src].try_send(NodeId(0), HandlerId(1), &k.to_le_bytes());
                }
            }
            cluster.drive_round();
            assert!(
                cluster.shards[0].deficits().iter().all(|&d| d >= 0),
                "negative deficit: {:?}",
                cluster.shards[0].deficits()
            );
        }
        // Sustained full polls must have grown the batch.
        assert!(
            cluster.shards[0].batch() > 2,
            "batch stuck at min under load: {:?}",
            cluster.shards[0]
        );
        // And a long idle stretch decays it back to the floor.
        drive_until(&mut cluster, || true);
        for _ in 0..16 {
            cluster.shards[0].pump();
        }
        assert_eq!(
            cluster.shards[0].batch(),
            2,
            "idle shard must decay its batch"
        );
    }
}
