//! Deterministic fault injection for the in-memory wire fabric.
//!
//! A [`FaultInjector`] sits between an endpoint's protocol core and its
//! wire producers (it decorates *any* [`crate::mem::FabricKind`] — ring or
//! UDP). Every outgoing frame's fate is decided from its header alone by
//! [`FaultInjector::decide`], which rolls a seeded per-link PRNG against
//! the configured [`LinkFaults`] rates exactly once:
//!
//! * **drop** — the frame silently vanishes (a lost packet);
//! * **duplicate** — a second copy is queued (a repeated DMA / retransmit
//!   race);
//! * **corrupt** — one bit of the encoded image will be flipped just
//!   before it lands in the ring slot (a wire error the CRC must catch);
//! * **delay** — the frame is parked for a bounded number of virtual-clock
//!   ticks, which also reorders it against later traffic;
//! * **stall** — frames to or from a stalled node are blackholed entirely,
//!   modelling a dead peer.
//!
//! A frame the dice spare ([`Fate::Pass`]) costs what a clean frame costs:
//! the caller encodes it from where the core holds it straight into the
//! wire. Only a harmed frame is copied, into [`FaultInjector::apply`].
//!
//! Decisions are made when the frame first leaves the protocol core — not
//! on every re-offer to a full ring — so backpressure cannot re-roll the
//! dice. All randomness derives from [`FaultConfig::seed`] via per-link
//! SplitMix64-seeded xorshift generators: a single-threaded run over the
//! same traffic replays the identical fault schedule, and multi-threaded
//! runs stay per-link deterministic relative to each link's frame order.
//!
//! Everything injected is recorded: [`FaultStats`] counts by category and
//! a bounded [`FaultEvent`] log keeps the most recent decisions for
//! post-mortem inspection.

use fm_myrinet::NodeId;
use std::collections::VecDeque;

use crate::frame::WireFrame;
use crate::time::splitmix64;

/// Most recent fault events retained per injector. The log is allocated
/// whole when the injector is built and is small enough (128 KiB) to wrap
/// within the first hundred thousand frames of a 1 % soak, so an endpoint's
/// memory does not keep growing with how long — or how fast — it has run.
const LOG_CAP: usize = 4_096;

/// Per-link fault rates, each a probability in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is duplicated (second copy, independent delay).
    pub dup: f64,
    /// Probability one bit of the encoded frame is flipped on the wire.
    pub corrupt: f64,
    /// Probability a frame is held back `1..=max_delay_ticks` ticks.
    pub delay: f64,
    /// Upper bound on injected delay, in virtual-clock ticks.
    pub max_delay_ticks: u64,
}

impl LinkFaults {
    /// A perfectly clean link.
    pub const NONE: LinkFaults = LinkFaults {
        drop: 0.0,
        dup: 0.0,
        corrupt: 0.0,
        delay: 0.0,
        max_delay_ticks: 8,
    };

    /// `rate` applied to drop, duplication, corruption and delay alike.
    pub fn uniform(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        LinkFaults {
            drop: rate,
            dup: rate,
            corrupt: rate,
            delay: rate,
            max_delay_ticks: 8,
        }
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::NONE
    }
}

/// Cluster-wide fault plan: a seed, a default per-link fault profile,
/// per-link overrides, and the set of stalled (dead) nodes.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Root seed; every per-link generator derives from it.
    pub seed: u64,
    /// Faults applied to links without an override.
    pub default: LinkFaults,
    /// `(src, dst, faults)` overrides for specific directed links.
    pub overrides: Vec<(NodeId, NodeId, LinkFaults)>,
    /// Nodes that neither send nor receive: every frame touching them is
    /// blackholed, so their peers must detect the silence via timers.
    pub stalled: Vec<NodeId>,
}

impl FaultConfig {
    /// A clean fabric (useful as a base for builder-style tweaks).
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..Default::default()
        }
    }

    /// The same `rate` for every fault type on every link.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            default: LinkFaults::uniform(rate),
            ..Default::default()
        }
    }

    /// Override the faults on the directed link `src -> dst`.
    pub fn link(mut self, src: NodeId, dst: NodeId, faults: LinkFaults) -> Self {
        self.overrides.push((src, dst, faults));
        self
    }

    /// Mark `node` as stalled (dead to the rest of the cluster).
    pub fn stall(mut self, node: NodeId) -> Self {
        self.stalled.push(node);
        self
    }

    fn faults_for(&self, src: NodeId, dst: NodeId) -> LinkFaults {
        self.overrides
            .iter()
            .rev() // later overrides win
            .find(|(s, d, _)| *s == src && *d == dst)
            .map(|(_, _, f)| *f)
            .unwrap_or(self.default)
    }

    fn is_stalled(&self, node: NodeId) -> bool {
        self.stalled.contains(&node)
    }
}

/// What happened to one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    Dropped,
    Duplicated,
    Corrupted,
    /// Held back this many ticks.
    Delayed(u64),
    /// Blackholed because an end of the link is stalled.
    Stalled,
}

/// One recorded injection, for post-mortem inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time (sender's extract tick) of the decision.
    pub tick: u64,
    /// Destination of the affected frame (the source is the injector's
    /// own node).
    pub dst: NodeId,
    pub kind: FaultKind,
}

/// Injection counters by category. `passed` counts frames that crossed
/// untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub passed: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub corrupted: u64,
    pub delayed: u64,
    pub stalled: u64,
}

/// A frame bound for the wire together with its already-decided fault
/// treatment. The corruption bit (if any) is applied to the *encoded*
/// image at push time, after the CRC is computed — exactly like a wire
/// error.
#[derive(Debug, Clone)]
pub struct OutboundFrame {
    pub frame: WireFrame,
    /// Bit index (mod encoded length in bits) to flip on the wire.
    pub corrupt_bit: Option<u32>,
}

impl OutboundFrame {
    pub fn clean(frame: WireFrame) -> Self {
        OutboundFrame {
            frame,
            corrupt_bit: None,
        }
    }
}

/// Flip one bit of `bytes` in place (index taken modulo the length).
pub fn flip_bit(bytes: &mut [u8], bit: u32) {
    debug_assert!(!bytes.is_empty(), "cannot corrupt an empty frame");
    let b = bit as usize % (bytes.len() * 8);
    bytes[b / 8] ^= 1 << (b % 8);
}

/// Small xorshift64 PRNG (one per link; seeded via SplitMix64 so nearby
/// link ids do not correlate).
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(splitmix64(seed) | 1) // xorshift state must be non-zero
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 uniform bits -> [0, 1).
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

struct Link {
    faults: LinkFaults,
    stalled: bool,
    rng: Rng,
}

/// What the fault stage does to one frame, decided from its header alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Crosses untouched, now, exactly as it would cross a clean wire.
    Pass,
    /// Never reaches the wire: dropped, stalled, or addressed outside the
    /// cluster.
    Lost,
    /// Crosses altered: the only fate that needs an owned copy.
    Harmed(Harm),
}

/// A harmed frame crosses with one bit flipped (`corrupt_bit`), held back
/// `delay` ticks, and/or followed by a clean copy held back `dup_delay`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Harm {
    pub corrupt_bit: Option<u32>,
    pub delay: u64,
    pub dup_delay: Option<u64>,
}

/// The per-endpoint fault stage. Owned by a `MemEndpoint`; consulted for
/// every frame the protocol core emits.
pub struct FaultInjector {
    self_stalled: bool,
    links: Vec<Link>,
    /// `(due_tick, frame)` pairs waiting out an injected delay.
    delayed: Vec<(u64, OutboundFrame)>,
    log: VecDeque<FaultEvent>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Build the injector for node `me` in a cluster of `n` nodes.
    pub fn new(me: NodeId, n: usize, config: &FaultConfig) -> Self {
        let links = (0..n)
            .map(|dst| {
                let dst = NodeId(dst as u16);
                let seed = config.seed
                    ^ ((me.0 as u64) << 32)
                    ^ ((dst.0 as u64) << 8)
                    ^ 0xA076_1D64_78BD_642F;
                Link {
                    faults: config.faults_for(me, dst),
                    stalled: config.is_stalled(dst),
                    rng: Rng::new(seed),
                }
            })
            .collect();
        FaultInjector {
            self_stalled: config.is_stalled(me),
            links,
            delayed: Vec::new(),
            log: VecDeque::with_capacity(LOG_CAP),
            stats: FaultStats::default(),
        }
    }

    /// Decide the fate of one outgoing frame to `dst`: roll the link's
    /// drop, corrupt, duplicate and delay dice, count and log the outcome.
    /// The decision is final: the caller must not ask again for the same
    /// frame (full-ring backpressure is handled downstream, on the frame
    /// whose fate is already decided).
    pub fn decide(&mut self, dst: NodeId, now: u64) -> Fate {
        let Some(link) = self.links.get_mut(dst.index()) else {
            // Destination outside the cluster: undeliverable anyway.
            return Fate::Lost;
        };
        if self.self_stalled || link.stalled {
            self.stats.stalled += 1;
            Self::push_event(&mut self.log, now, dst, FaultKind::Stalled);
            return Fate::Lost;
        }
        let f = link.faults;
        if link.rng.chance(f.drop) {
            self.stats.dropped += 1;
            Self::push_event(&mut self.log, now, dst, FaultKind::Dropped);
            return Fate::Lost;
        }
        let corrupt_bit = link
            .rng
            .chance(f.corrupt)
            .then(|| link.rng.next_u64() as u32);
        let dup = link.rng.chance(f.dup);
        let mut roll_delay = || {
            if link.rng.chance(f.delay) && f.max_delay_ticks > 0 {
                1 + link.rng.below(f.max_delay_ticks)
            } else {
                0
            }
        };
        let delay = roll_delay();
        // The duplicate rolls its own delay so the two copies can arrive
        // in either order — the nastier case for dedup.
        let dup_delay = dup.then(roll_delay);

        if corrupt_bit.is_some() {
            self.stats.corrupted += 1;
            Self::push_event(&mut self.log, now, dst, FaultKind::Corrupted);
        }
        if delay > 0 {
            self.stats.delayed += 1;
            Self::push_event(&mut self.log, now, dst, FaultKind::Delayed(delay));
        }
        if dup {
            self.stats.duplicated += 1;
            Self::push_event(&mut self.log, now, dst, FaultKind::Duplicated);
        }
        if corrupt_bit.is_none() && delay == 0 && !dup {
            self.stats.passed += 1;
            return Fate::Pass;
        }
        Fate::Harmed(Harm {
            corrupt_bit,
            delay,
            dup_delay,
        })
    }

    /// Carry out the [`Harm`] decided for `frame` at `now`: each copy that
    /// is not held back goes to `send` at once (the primary first), the
    /// rest wait for [`Self::release_due`].
    pub fn apply(
        &mut self,
        frame: WireFrame,
        harm: Harm,
        now: u64,
        mut send: impl FnMut(OutboundFrame),
    ) {
        let copy = harm
            .dup_delay
            .map(|d| (d, OutboundFrame::clean(frame.clone())));
        let primary = OutboundFrame {
            frame,
            corrupt_bit: harm.corrupt_bit,
        };
        for (delay, of) in std::iter::once((harm.delay, primary)).chain(copy) {
            if delay > 0 {
                self.delayed.push((now + delay, of));
            } else {
                send(of);
            }
        }
    }

    /// Hand every delayed frame whose time has come to `send`.
    pub fn release_due(&mut self, now: u64, mut send: impl FnMut(OutboundFrame)) {
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                send(self.delayed.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
    }

    /// True when nothing is parked inside the injector.
    pub fn idle(&self) -> bool {
        self.delayed.is_empty()
    }

    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The retained tail of the fault log (most recent `LOG_CAP` events).
    pub fn events(&self) -> impl Iterator<Item = &FaultEvent> {
        self.log.iter()
    }

    fn push_event(log: &mut VecDeque<FaultEvent>, tick: u64, dst: NodeId, kind: FaultKind) {
        if log.len() == LOG_CAP {
            log.pop_front();
        }
        log.push_back(FaultEvent { tick, dst, kind });
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("stats", &self.stats)
            .field("delayed", &self.delayed.len())
            .field("events", &self.log.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::WireFrame;
    use crate::handler::HandlerId;
    use bytes::Bytes;

    /// The frames `inj` lets onto the wire now for `frame`, asked the way
    /// `MemEndpoint` asks.
    fn admit(inj: &mut FaultInjector, frame: WireFrame, now: u64) -> Vec<OutboundFrame> {
        let mut out = Vec::new();
        match inj.decide(frame.head.dst, now) {
            Fate::Pass => out.push(OutboundFrame::clean(frame)),
            Fate::Lost => {}
            Fate::Harmed(harm) => inj.apply(frame, harm, now, |of| out.push(of)),
        }
        out
    }

    fn frame(dst: u16) -> WireFrame {
        WireFrame::data(
            NodeId(0),
            NodeId(dst),
            HandlerId(1),
            0,
            0,
            Bytes::from_static(b"x"),
        )
    }

    #[test]
    fn clean_config_passes_everything() {
        let mut inj = FaultInjector::new(NodeId(0), 2, &FaultConfig::new(7));
        for _ in 0..100 {
            assert_eq!(inj.decide(NodeId(1), 0), Fate::Pass);
        }
        assert_eq!(
            inj.stats(),
            FaultStats {
                passed: 100,
                ..Default::default()
            }
        );
        assert!(inj.idle());
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig::uniform(42, 0.2);
        let mut a = FaultInjector::new(NodeId(0), 2, &cfg);
        let mut b = FaultInjector::new(NodeId(0), 2, &cfg);
        for i in 0..500 {
            assert_eq!(a.decide(NodeId(1), i), b.decide(NodeId(1), i));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.events().eq(b.events()));
        assert!(a.stats().passed < 500, "20% rates must fault something");
    }

    #[test]
    fn different_links_decorrelated() {
        let cfg = FaultConfig::uniform(42, 0.5);
        let mut inj = FaultInjector::new(NodeId(0), 3, &cfg);
        for i in 0..200 {
            inj.decide(NodeId(1), i);
            inj.decide(NodeId(2), i);
        }
        // Both links saw faults but not the identical schedule: the event
        // log must interleave different destinations.
        let dsts: Vec<_> = inj.events().map(|e| e.dst).collect();
        assert!(dsts.contains(&NodeId(1)));
        assert!(dsts.contains(&NodeId(2)));
    }

    #[test]
    fn stalled_node_blackholes_both_directions() {
        let cfg = FaultConfig::new(1).stall(NodeId(1));
        // Frames *to* the stalled node vanish...
        let mut inj = FaultInjector::new(NodeId(0), 2, &cfg);
        assert_eq!(inj.decide(NodeId(1), 0), Fate::Lost);
        assert_eq!(inj.stats().stalled, 1);
        // ...and frames *from* it vanish too.
        let mut inj = FaultInjector::new(NodeId(1), 2, &cfg);
        assert_eq!(inj.decide(NodeId(0), 0), Fate::Lost);
        assert_eq!(inj.stats().stalled, 1);
    }

    #[test]
    fn delay_holds_until_due() {
        let cfg = FaultConfig {
            seed: 3,
            default: LinkFaults {
                delay: 1.0,
                max_delay_ticks: 4,
                ..LinkFaults::NONE
            },
            ..Default::default()
        };
        let mut inj = FaultInjector::new(NodeId(0), 2, &cfg);
        assert!(
            admit(&mut inj, frame(1), 10).is_empty(),
            "frame must be parked"
        );
        assert!(!inj.idle());
        let mut released = 0;
        inj.release_due(10 + 4, |_| released += 1); // max possible delay
        assert_eq!(released, 1);
        assert!(inj.idle());
    }

    #[test]
    fn duplicate_produces_two_copies() {
        let cfg = FaultConfig {
            seed: 5,
            default: LinkFaults {
                dup: 1.0,
                ..LinkFaults::NONE
            },
            ..Default::default()
        };
        let mut inj = FaultInjector::new(NodeId(0), 2, &cfg);
        assert_eq!(admit(&mut inj, frame(1), 0).len(), 2);
        assert_eq!(inj.stats().duplicated, 1);
    }

    #[test]
    fn link_override_beats_default() {
        let cfg = FaultConfig::uniform(9, 1.0).link(NodeId(0), NodeId(1), LinkFaults::NONE);
        let mut inj = FaultInjector::new(NodeId(0), 2, &cfg);
        for _ in 0..50 {
            inj.decide(NodeId(1), 0);
        }
        assert_eq!(inj.stats().passed, 50, "override must silence the link");
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit() {
        let mut buf = [0u8; 16];
        flip_bit(&mut buf, 1000);
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
    }

    #[test]
    fn log_is_bounded() {
        let cfg = FaultConfig {
            seed: 11,
            default: LinkFaults {
                drop: 1.0,
                ..LinkFaults::NONE
            },
            ..Default::default()
        };
        let mut inj = FaultInjector::new(NodeId(0), 2, &cfg);
        for i in 0..(LOG_CAP as u64 + 10) {
            inj.decide(NodeId(1), i);
        }
        assert_eq!(inj.events().count(), LOG_CAP);
    }
}
