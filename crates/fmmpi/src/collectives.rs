//! Collective operations over [`Communicator`], all run by one engine
//! (DESIGN.md, "One collective engine").
//!
//! Each algorithm is a pure function from `(size, me, root[, topology])` to
//! this rank's *schedule*: `Step`s that each send to or receive from one
//! peer, with `Step::Round` marking the traced rounds. One executor,
//! `Communicator::run`, walks a schedule in a `Scope` (rank map, tag,
//! span); its `Payload` says whether sends forward the newest receipt,
//! carry one chunk per peer, or carry an accumulator that every receipt is
//! folded into. With more than one switch, barrier, bcast and reduce follow
//! the topology spanning tree (`topo_tree`); elsewhere every pair is one
//! hop and the rank-space algorithms are already optimal. The `*_linear`
//! variants are the all-to-root baselines `bench_mpi` measures against.
//!
//! Every reserved tag sub-space is in the table below. A kind's per-call
//! epoch wraps within its sub-space (`coll_tag`); reuse 4096 epochs later
//! still matches in program order through the per-pair FIFO the matching
//! layer restores.

use fm_core::{NodeId, SwitchTopology};
use fm_telemetry::EventKind;

use crate::comm::{Communicator, ReduceOp};
use crate::{MpiError, Rank, Tag};

/// `peer` of a [`Step::Round`] with no single partner.
pub(crate) const NO_PEER: Rank = Rank::MAX;

/// Tags per reserved sub-space.
pub(crate) const COLL_SPAN: u32 = 0x1000;

// The reserved tag table: the base of every internal sub-space.
const TAG_BARRIER: u32 = Tag::RESERVED;
const TAG_BCAST: u32 = Tag::RESERVED + 0x1000;
const TAG_REDUCE: u32 = Tag::RESERVED + 0x2000;
const TAG_GATHER: u32 = Tag::RESERVED + 0x3000;
const TAG_SCATTER: u32 = Tag::RESERVED + 0x4000;
const TAG_ALLTOALL: u32 = Tag::RESERVED + 0x5000;
const TAG_ALLGATHER: u32 = Tag::RESERVED + 0x6000;
const TAG_ALLTOALLV: u32 = Tag::RESERVED + 0x7000;
const TAG_SCAN: u32 = Tag::RESERVED + 0x8000;
pub(crate) const TAG_SENDRECV: u32 = Tag::RESERVED + 0x9000;
pub(crate) const TAG_GROUP: u32 = Tag::RESERVED + 0xA000;
const TAG_ALLREDUCE: u32 = Tag::RESERVED + 0xB000;

/// The reserved tag `offset` into the sub-space at `base`; the offset wraps
/// within the sub-space, so no count of calls or contexts leaves it.
pub(crate) fn coll_tag(base: u32, offset: u32) -> Tag {
    Tag(base + (offset & (COLL_SPAN - 1)))
}

/// A collective kind: `.0` indexes its epoch counter and is its spans'
/// `coll`; `.1` is its tag sub-space.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kind(pub u8, u32);

pub(crate) const N_COLL_KINDS: usize = 10;
pub(crate) const BARRIER: Kind = Kind(0, TAG_BARRIER);
pub(crate) const BCAST: Kind = Kind(1, TAG_BCAST);
pub(crate) const REDUCE: Kind = Kind(2, TAG_REDUCE);
pub(crate) const ALLREDUCE: Kind = Kind(3, TAG_ALLREDUCE);
pub(crate) const GATHER: Kind = Kind(4, TAG_GATHER);
pub(crate) const SCATTER: Kind = Kind(5, TAG_SCATTER);
pub(crate) const ALLTOALL: Kind = Kind(6, TAG_ALLTOALL);
pub(crate) const ALLGATHER: Kind = Kind(7, TAG_ALLGATHER);
pub(crate) const ALLTOALLV: Kind = Kind(8, TAG_ALLTOALLV);
pub(crate) const SCAN: Kind = Kind(9, TAG_SCAN);

pub(crate) fn f64s_to_bytes(xs: &[f64]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Decode a peer's reduction contribution. Checked, not asserted: the
/// bytes came off the wire from `src`, and a short payload must surface
/// as that rank's error, not abort this one.
pub(crate) fn bytes_to_f64s(src: Rank, b: &[u8]) -> Result<Vec<f64>, MpiError> {
    if !b.len().is_multiple_of(8) {
        return Err(MpiError::MisalignedReduce { src, len: b.len() });
    }
    Ok(b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect())
}

/// Combines an accumulator element with a receipt's: `fold(acc, theirs)`.
pub(crate) type Fold<'a> = &'a dyn Fn(f64, f64) -> f64;

/// Decode `src`'s contribution and fold it into `acc`.
fn fold_in(acc: &mut [f64], src: Rank, b: &[u8], fold: Fold) -> Result<(), MpiError> {
    let theirs = bytes_to_f64s(src, b)?;
    if theirs.len() != acc.len() {
        let (got, expect) = (theirs.len(), acc.len());
        return Err(MpiError::LengthMismatch { src, got, expect });
    }
    for (a, t) in acc.iter_mut().zip(theirs) {
        *a = fold(*a, t);
    }
    Ok(())
}

/// One step of a schedule, with peers in the schedule's rank space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Start traced round `.0` with partner `.1`, ending the open one.
    Round(u16, Rank),
    Send(Rank),
    Recv(Rank),
}

/// What a schedule's sends carry, and what becomes of its receipts.
pub(crate) enum Payload<'a> {
    /// The newest receipt, or these bytes before the first one.
    Forward(&'a [u8]),
    /// `chunks[r]` to rank `r`.
    Personal(&'a [Vec<u8>]),
    /// The accumulator, which every receipt is folded into. A malformed
    /// receipt turns it into the error and ends the schedule.
    Combine(&'a mut Result<Vec<f64>, MpiError>, Fold<'a>),
}

/// Where a schedule runs: `size` ranks, schedule rank `r` being `map[r]`
/// (or `r` when `map` is `None`), this one `me`; on `tag`; traced as
/// `span` (the kind's `coll` id, epoch) when set.
#[derive(Clone, Copy)]
pub(crate) struct Scope<'a> {
    pub map: Option<&'a [Rank]>,
    pub size: usize,
    pub me: Rank,
    pub tag: Tag,
    pub span: Option<(u8, u32)>,
}

impl<'a> Scope<'a> {
    /// An untraced scope.
    pub(crate) fn new(map: Option<&'a [Rank]>, size: usize, me: Rank, tag: Tag) -> Self {
        Scope {
            map,
            size,
            me,
            tag,
            span: None,
        }
    }
}

/// Receipts in arrival order, each with its sender's schedule rank.
pub(crate) type Receipts = Vec<(Rank, Vec<u8>)>;

/// One rank's place in a collective tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CollTree {
    /// `None` exactly at the root rank.
    pub parent: Option<Rank>,
    /// In an order every rank agrees on, so fan-in and fan-out pair up.
    pub children: Vec<Rank>,
    /// The reduce round of the send to the parent.
    pub up: u16,
}

/// The rank-level spanning tree for `root` over `topo`: the switch graph's
/// BFS tree from the root's switch, contracted onto one representative per
/// switch with hosts (the root on its own switch, the lowest rank
/// elsewhere). A representative parents its switch-local ranks, then the
/// representatives of its child switches; its parent is the representative
/// of the nearest ancestor switch with hosts (fat-tree spines have none).
/// A reduce sends up after one round per child.
pub(crate) fn topo_tree(topo: &SwitchTopology, size: usize, root: Rank, me: Rank) -> CollTree {
    debug_assert_eq!(topo.hosts(), size);
    let (root_sw, me_sw) = (topo.switch_of(NodeId(root)), topo.switch_of(NodeId(me)));
    let mut rep: Vec<Option<Rank>> = vec![None; topo.switches()];
    for r in (0..size as Rank).rev() {
        rep[topo.switch_of(NodeId(r))] = Some(r);
    }
    rep[root_sw] = Some(root);
    let my_rep = rep[me_sw].expect("my own switch has hosts");
    if me != my_rep {
        // Leaf of the local fan-out: one hop to the local representative.
        let (parent, children, up) = (Some(my_rep), Vec::new(), 0);
        return CollTree {
            parent,
            children,
            up,
        };
    }
    // Nearest ancestor switch (in the BFS tree) that has a representative.
    let parents = topo.spanning_parents(root_sw);
    let up = |s: usize| {
        let mut ancestors = std::iter::successors(parents[s], |&a| parents[a]);
        ancestors
            .find(|&a| rep[a].is_some())
            .expect("an ancestor with hosts")
    };
    let local = topo.hosts_on(me_sw).map(|h| h.0).filter(|&r| r != me);
    let reps = (rep.iter().enumerate())
        .filter(|&(s, r)| r.is_some() && s != me_sw && s != root_sw && up(s) == me_sw)
        .filter_map(|(_, r)| *r);
    let children: Vec<Rank> = local.chain(reps).collect();
    let parent = (me != root).then(|| rep[up(me_sw)].expect("ancestor representative"));
    let up = children.len() as u16;
    CollTree {
        parent,
        children,
        up,
    }
}

/// The binomial tree in rank space: renumbered so the root is 0, a rank's
/// children set each bit below its lowest set bit, its parent clears that
/// bit, and a reduce sends up in that bit's round.
pub(crate) fn binomial(size: usize, me: Rank, root: Rank) -> CollTree {
    let v = (me as usize + size - root as usize) % size;
    let real = |x: usize| ((x + root as usize) % size) as Rank;
    let children = (0..v.trailing_zeros()).map(|i| v | 1 << i);
    CollTree {
        parent: (v != 0).then(|| real(v & (v - 1))),
        children: children.take_while(|&c| c < size).map(real).collect(),
        up: v.trailing_zeros() as u16,
    }
}

/// Down a tree (bcast): from the parent, then to each child, a round each.
pub(crate) fn fan_down(tree: &CollTree) -> Vec<Step> {
    let recv = tree.parent.map(|p| (p, Step::Recv(p)));
    let sends = tree.children.iter().map(|&c| (c, Step::Send(c)));
    (recv.into_iter().chain(sends).zip(0..))
        .flat_map(|((peer, step), round)| [Step::Round(round, peer), step])
        .collect()
}

/// Up a tree (reduce): from each child, a round each, then to the parent.
pub(crate) fn fan_up(tree: &CollTree) -> Vec<Step> {
    let recvs = (tree.children.iter().zip(0..)).map(|(&c, round)| (round, c, Step::Recv(c)));
    let send = tree.parent.map(|p| (tree.up, p, Step::Send(p)));
    (recvs.chain(send))
        .flat_map(|(round, peer, step)| [Step::Round(round, peer), step])
        .collect()
}

/// The tree barrier: round 0 hears from the whole subtree, reports up and
/// waits for the release; round 1 releases the subtree.
pub(crate) fn tree_barrier(tree: &CollTree) -> Vec<Step> {
    let up = tree.parent.map(|p| [Step::Send(p), Step::Recv(p)]);
    let mut s = vec![Step::Round(0, tree.parent.unwrap_or(NO_PEER))];
    s.extend(tree.children.iter().map(|&c| Step::Recv(c)));
    s.extend(up.into_iter().flatten());
    s.push(Step::Round(1, NO_PEER));
    s.extend(tree.children.iter().map(|&c| Step::Send(c)));
    s
}

/// Rounds `r = 0, 1, …` while `2^r < size`, round `r` sending to
/// `pair(2^r).0` (its partner) and receiving from `pair(2^r).1`.
fn doubling(size: usize, pair: impl Fn(usize) -> (usize, usize)) -> Vec<Step> {
    let mut steps = Vec::new();
    for r in (0u16..).take_while(|&r| 1usize << r < size) {
        let (to, from) = pair(1 << r);
        let (to, from) = (to as Rank, from as Rank);
        steps.extend([Step::Round(r, to), Step::Send(to), Step::Recv(from)]);
    }
    steps
}

/// The dissemination barrier: round `r` signals `me + 2^r` and waits for
/// `me - 2^r`; the distinct partner per round keeps rounds apart.
pub(crate) fn dissemination(size: usize, me: Rank) -> Vec<Step> {
    let me = me as usize;
    doubling(size, |d| ((me + d) % size, (me + size - d) % size))
}

/// Recursive doubling (power-of-two sizes): round `r` pairs `me ^ 2^r`.
pub(crate) fn recursive_doubling(size: usize, me: Rank) -> Vec<Step> {
    let me = me as usize;
    doubling(size, |d| (me ^ d, me ^ d))
}

fn others(size: usize, me: Rank) -> impl Iterator<Item = Rank> {
    (0..size as Rank).filter(move |&r| r != me)
}

/// Linear fan-in: every rank sends to `root`, which receives in rank order.
pub(crate) fn fan_in(size: usize, me: Rank, root: Rank) -> Vec<Step> {
    if me != root {
        return vec![Step::Send(root)];
    }
    others(size, root).map(Step::Recv).collect()
}

/// Linear fan-out: `root` sends to every other rank in rank order.
pub(crate) fn fan_out(size: usize, me: Rank, root: Rank) -> Vec<Step> {
    if me != root {
        return vec![Step::Recv(root)];
    }
    others(size, root).map(Step::Send).collect()
}

/// The pairwise exchange: send to every other rank, then receive from each.
pub(crate) fn pairwise(size: usize, me: Rank) -> Vec<Step> {
    let sends = others(size, me).map(Step::Send);
    sends.chain(others(size, me).map(Step::Recv)).collect()
}

/// The ring: `size - 1` shifts, each sending right and receiving left.
pub(crate) fn ring(size: usize, me: Rank) -> Vec<Step> {
    let (right, left) = ((me as usize + 1) % size, (me as usize + size - 1) % size);
    let shift = [Step::Send(right as Rank), Step::Recv(left as Rank)];
    (1..size).flat_map(|_| shift).collect()
}

/// The chain: receive the prefix from the left neighbour, pass it right.
pub(crate) fn chain(size: usize, me: Rank) -> Vec<Step> {
    let left = me.checked_sub(1).map(Step::Recv);
    let right = (me as usize + 1 < size).then(|| Step::Send(me + 1));
    left.into_iter().chain(right).collect()
}

/// Contributions in rank order: `mine` at `me`, each receipt at its sender.
fn by_rank(size: usize, me: Rank, mine: Vec<u8>, got: Receipts) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new(); size];
    for (r, bytes) in std::iter::once((me, mine)).chain(got) {
        out[r as usize] = bytes;
    }
    out
}

impl Communicator {
    /// The executor: run this rank's `sched` in `at`, returning the receipts
    /// (which [`Payload::Combine`] folds instead). A traced call is bracketed
    /// by `CollBegin`/`CollEnd`, each of its rounds by
    /// `CollRoundBegin`/`CollRoundEnd`; untraced schedules have no rounds.
    pub(crate) fn run(&mut self, sched: &[Step], at: Scope, mut payload: Payload) -> Receipts {
        let global = |r: Rank| at.map.map_or(r, |m| m[r as usize]);
        let (coll, epoch) = at.span.unwrap_or_default();
        let (mut got, mut open) = (Receipts::new(), None);
        self.mark(at, false);
        for &step in sched {
            match step {
                Step::Round(round, peer) => {
                    if let Some(round) = open.replace(round) {
                        self.trace_coll(EventKind::CollRoundEnd { coll, epoch, round });
                    }
                    let begin = EventKind::CollRoundBegin {
                        coll,
                        epoch,
                        round,
                        peer,
                    };
                    self.trace_coll(begin);
                }
                Step::Send(to) => {
                    let encoded;
                    let bytes = match &payload {
                        Payload::Forward(start) => got.last().map_or(*start, |(_, b)| b),
                        Payload::Personal(chunks) => &chunks[to as usize],
                        Payload::Combine(sum, _) => {
                            encoded = f64s_to_bytes(sum.as_deref().unwrap_or_default());
                            &encoded
                        }
                    };
                    self.send_reserved(global(to), at.tag, bytes);
                }
                Step::Recv(from) => {
                    let bytes = self.recv_reserved(global(from), at.tag);
                    let Payload::Combine(sum, fold) = &mut payload else {
                        got.push((from, bytes));
                        continue;
                    };
                    if let Ok(acc) = &mut **sum {
                        if let Err(e) = fold_in(acc, global(from), &bytes, *fold) {
                            **sum = Err(e);
                            break;
                        }
                    }
                }
            }
        }
        if let Some(round) = open {
            self.trace_coll(EventKind::CollRoundEnd { coll, epoch, round });
        }
        self.mark(at, true);
        got
    }

    /// Trace the start, or with `end` the end, of a traced call.
    fn mark(&self, at: Scope, end: bool) {
        if let Some((coll, epoch)) = at.span {
            self.trace_coll(match end {
                false => EventKind::CollBegin { coll, epoch },
                true => EventKind::CollEnd { coll, epoch },
            });
        }
    }

    /// The next call of `kind` over the whole communicator, on its epoch's
    /// tag, and traced when `traced`.
    pub(crate) fn call(&mut self, kind: Kind, traced: bool) -> Scope<'static> {
        let epoch = self.bump_epoch(kind);
        let mut at = Scope::new(None, self.size(), self.rank(), coll_tag(kind.1, epoch));
        at.span = traced.then_some((kind.0, epoch));
        at
    }

    /// The topology spanning tree for `root`, with more than one switch.
    fn coll_tree(&self, root: Rank) -> Option<CollTree> {
        let topo = self.topology()?;
        let worthwhile = self.size() > 1 && topo.switches() > 1 && topo.hosts() == self.size();
        worthwhile.then(|| topo_tree(topo, self.size(), root, self.rank()))
    }

    /// The topology tree for `root` where worthwhile, the binomial otherwise.
    fn tree(&self, root: Rank) -> CollTree {
        (self.coll_tree(root)).unwrap_or_else(|| binomial(self.size(), self.rank(), root))
    }

    /// Barrier: returns when every rank has entered. Switch-routed
    /// clusters fan in and back out over the topology spanning tree
    /// (each trunk crossed once per direction); otherwise the
    /// dissemination algorithm runs in `ceil(log2(size))` rounds.
    pub fn barrier(&mut self) {
        let sched = match self.coll_tree(0) {
            Some(tree) => tree_barrier(&tree),
            None => dissemination(self.size(), self.rank()),
        };
        let at = self.call(BARRIER, true);
        self.run(&sched, at, Payload::Forward(&[]));
    }

    /// Broadcast `data` from `root`; every rank returns the root's bytes.
    /// Tree-shaped to the topology on switched clusters, binomial in rank
    /// space otherwise.
    pub fn bcast(&mut self, root: Rank, data: &[u8]) -> Vec<u8> {
        let (sched, at) = (fan_down(&self.tree(root)), self.call(BCAST, true));
        let mut got = self.run(&sched, at, Payload::Forward(data));
        got.pop().map_or_else(|| data.to_vec(), |(_, b)| b)
    }

    /// Element-wise reduction of `data` across all ranks; `root` returns
    /// `Ok(Some(result))`, everyone else `Ok(None)`. A peer contributing
    /// a misaligned or wrong-length payload surfaces as an [`MpiError`].
    pub fn reduce(
        &mut self,
        root: Rank,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<Option<Vec<f64>>, MpiError> {
        let (sched, at) = (fan_up(&self.tree(root)), self.call(REDUCE, true));
        let (mut sum, fold) = (Ok(data.to_vec()), |a, b| op.apply(a, b));
        self.run(&sched, at, Payload::Combine(&mut sum, &fold));
        sum.map(|acc| (at.me == root).then_some(acc))
    }

    /// Reduction delivered to every rank. Power-of-two communicators run
    /// recursive doubling — `log2(size)` pairwise exchange rounds, half
    /// the depth of reduce + broadcast, and bit-identical results on every
    /// rank; other sizes reduce to rank 0 and broadcast.
    pub fn allreduce(&mut self, data: &[f64], op: ReduceOp) -> Result<Vec<f64>, MpiError> {
        if self.size() == 1 {
            return Ok(data.to_vec());
        }
        let at = self.call(ALLREDUCE, true);
        if at.size.is_power_of_two() {
            let (mut sum, fold) = (Ok(data.to_vec()), |a, b| op.apply(a, b));
            let sched = recursive_doubling(at.size, at.me);
            self.run(&sched, at, Payload::Combine(&mut sum, &fold));
            return sum;
        }
        // Reduce + bcast, whose own spans nest inside this call's.
        self.mark(at, false);
        let result = self.reduce(0, data, op).and_then(|sum| {
            let bytes = self.bcast(0, &f64s_to_bytes(sum.as_deref().unwrap_or(&[])));
            bytes_to_f64s(0, &bytes)
        });
        self.mark(at, true);
        result
    }

    /// Gather every rank's bytes at `root` (rank order). `root` gets
    /// `Some(vec_of_contributions)`.
    pub fn gather(&mut self, root: Rank, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        let at = self.call(GATHER, false);
        self.gather_on(at, root, data)
    }

    /// Scatter one chunk per rank from `root`; returns this rank's chunk.
    /// `chunks` is only read at the root and must have `size` entries.
    pub fn scatter(&mut self, root: Rank, chunks: Option<&[Vec<u8>]>) -> Vec<u8> {
        let at = self.call(SCATTER, false);
        let chunks = match at.me == root {
            true => chunks.expect("root must supply chunks"),
            false => &[],
        };
        assert!(
            at.me != root || chunks.len() == at.size,
            "one chunk per rank"
        );
        let sched = fan_out(at.size, at.me, root);
        let mut got = self.run(&sched, at, Payload::Personal(chunks));
        got.pop()
            .map_or_else(|| chunks[root as usize].clone(), |(_, b)| b)
    }

    /// Personalized all-to-all: `chunks[r]` goes to rank `r`; returns what
    /// every rank sent to us, in rank order.
    pub fn alltoall(&mut self, chunks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        self.exchange(ALLTOALL, chunks)
    }

    /// The pairwise exchange behind `alltoall` and `alltoallv`.
    pub(crate) fn exchange(&mut self, kind: Kind, chunks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        assert_eq!(chunks.len(), self.size(), "one chunk per rank");
        let at = self.call(kind, false);
        let got = self.run(&pairwise(at.size, at.me), at, Payload::Personal(chunks));
        by_rank(at.size, at.me, chunks[at.me as usize].clone(), got)
    }

    /// The naive linear barrier: every rank reports to rank 0, which
    /// releases them one by one — an `O(size)` critical path serialized
    /// on rank 0's downlink. **Baseline only**: `bench_mpi` gates the
    /// spanning-tree barrier against this; applications should call
    /// [`Communicator::barrier`].
    pub fn barrier_linear(&mut self) {
        let at = self.call(BARRIER, false);
        self.gather_on(at, 0, &[]);
        self.bcast_on(at, 0, &[]);
    }

    /// The naive linear allreduce: every contribution goes straight to
    /// rank 0, which combines in rank order and unicasts the result back
    /// to each rank. **Baseline only** — see [`Communicator::barrier_linear`].
    pub fn allreduce_linear(&mut self, data: &[f64], op: ReduceOp) -> Result<Vec<f64>, MpiError> {
        let at = self.call(ALLREDUCE, false);
        self.allreduce_on(at, at.tag, data, op)
    }

    // The linear collectives, over the whole communicator for `gather`, the
    // baselines and `split`, and over a group for every `Group` collective.
    // A linear barrier gathers nothing to rank 0 and broadcasts it back.

    pub(crate) fn bcast_on(&mut self, at: Scope, root: Rank, data: &[u8]) -> Vec<u8> {
        let sched = fan_out(at.size, at.me, root);
        let mut got = self.run(&sched, at, Payload::Forward(data));
        got.pop().map_or_else(|| data.to_vec(), |(_, b)| b)
    }

    pub(crate) fn gather_on(&mut self, at: Scope, root: Rank, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        let got = self.run(&fan_in(at.size, at.me, root), at, Payload::Forward(data));
        (at.me == root).then(|| by_rank(at.size, root, data.to_vec(), got))
    }

    /// Linear allreduce: contributions fan in to rank 0, which folds them in
    /// rank order, and the result fans back out on tag `out`.
    pub(crate) fn allreduce_on(
        &mut self,
        at: Scope,
        out: Tag,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<Vec<f64>, MpiError> {
        let (mut sum, fold) = (Ok(data.to_vec()), |a, b| op.apply(a, b));
        let sched = fan_in(at.size, at.me, 0);
        self.run(&sched, at, Payload::Combine(&mut sum, &fold));
        let bytes = self.bcast_on(Scope { tag: out, ..at }, 0, &f64s_to_bytes(&sum?));
        bytes_to_f64s(at.map.map_or(0, |m| m[0]), &bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_ranks;
    use crate::{MpiError, ReduceOp, Tag};
    use std::collections::VecDeque;

    #[test]
    fn collectives_emit_balanced_spans() {
        let out = run_ranks(4, |c| {
            c.barrier();
            c.allreduce(&[c.rank() as f64], ReduceOp::Sum).unwrap();
            c.bcast(0, &[7u8; 16]);
            c.telemetry().events()
        });
        for (rank, events) in out.iter().enumerate() {
            let mut begins = 0;
            let mut ends = 0;
            let mut round_begins = 0;
            let mut round_ends = 0;
            for e in events {
                match e.kind {
                    fm_telemetry::EventKind::CollBegin { .. } => begins += 1,
                    fm_telemetry::EventKind::CollEnd { .. } => ends += 1,
                    fm_telemetry::EventKind::CollRoundBegin { .. } => round_begins += 1,
                    fm_telemetry::EventKind::CollRoundEnd { .. } => round_ends += 1,
                    _ => {}
                }
            }
            assert_eq!(begins, 3, "rank {rank}: barrier + allreduce + bcast");
            assert_eq!(ends, 3, "rank {rank}: every begin closed");
            assert_eq!(round_begins, round_ends, "rank {rank}: rounds balanced");
            assert!(round_begins >= 4, "rank {rank}: log2 rounds recorded");
        }
    }

    #[test]
    fn barrier_various_sizes() {
        for n in [2usize, 3, 4, 7] {
            let out = run_ranks(n, |c| {
                for _ in 0..3 {
                    c.barrier();
                }
                true
            });
            assert_eq!(out.len(), n);
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for n in [2usize, 3, 5, 8] {
            for root in 0..n as u16 {
                let out = run_ranks(n, move |c| {
                    let data = if c.rank() == root {
                        vec![root as u8; 100]
                    } else {
                        vec![]
                    };
                    c.bcast(root, &data)
                });
                for got in out {
                    assert_eq!(got, vec![root as u8; 100], "n={n} root={root}");
                }
            }
        }
    }

    #[test]
    fn reduce_sum_is_exact() {
        for n in [2usize, 4, 6] {
            let out = run_ranks(n, move |c| {
                let mine = vec![c.rank() as f64 + 1.0, 10.0];
                c.reduce(0, &mine, ReduceOp::Sum).unwrap()
            });
            let expect_first = (1..=n).sum::<usize>() as f64;
            assert_eq!(out[0], Some(vec![expect_first, 10.0 * n as f64]));
            for r in &out[1..] {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn allreduce_min_max() {
        let out = run_ranks(5, |c| {
            let mine = vec![c.rank() as f64];
            (
                c.allreduce(&mine, ReduceOp::Min).unwrap(),
                c.allreduce(&mine, ReduceOp::Max).unwrap(),
            )
        });
        for (min, max) in out {
            assert_eq!(min, vec![0.0]);
            assert_eq!(max, vec![4.0]);
        }
    }

    #[test]
    fn allreduce_power_of_two_recursive_doubling() {
        // 8 ranks: the recursive-doubling path; every rank must agree.
        let out = run_ranks(8, |c| {
            c.allreduce(&[c.rank() as f64, 1.0], ReduceOp::Sum).unwrap()
        });
        for v in out {
            assert_eq!(v, vec![28.0, 8.0]);
        }
    }

    #[test]
    fn linear_baselines_agree_with_trees() {
        let out = run_ranks(6, |c| {
            c.barrier_linear();
            let a = c
                .allreduce_linear(&[c.rank() as f64], ReduceOp::Sum)
                .unwrap();
            c.barrier();
            let b = c.allreduce(&[c.rank() as f64], ReduceOp::Sum).unwrap();
            (a, b)
        });
        for (a, b) in out {
            assert_eq!(a, vec![15.0]);
            assert_eq!(b, vec![15.0]);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = run_ranks(4, |c| c.gather(2, &[c.rank() as u8 * 3]));
        for (r, g) in out.iter().enumerate() {
            if r == 2 {
                let got = g.as_ref().expect("root result");
                assert_eq!(got, &vec![vec![0], vec![3], vec![6], vec![9]]);
            } else {
                assert!(g.is_none());
            }
        }
    }

    #[test]
    fn scatter_distributes_chunks() {
        let out = run_ranks(3, |c| {
            let chunks: Option<Vec<Vec<u8>>> = if c.rank() == 0 {
                Some((0..3).map(|r| vec![r as u8; r + 1]).collect())
            } else {
                None
            };
            c.scatter(0, chunks.as_deref())
        });
        assert_eq!(out, vec![vec![0], vec![1, 1], vec![2, 2, 2]]);
    }

    #[test]
    fn alltoall_transposes() {
        let n = 4usize;
        let out = run_ranks(n, move |c| {
            let me = c.rank() as u8;
            let chunks: Vec<Vec<u8>> = (0..n as u8).map(|r| vec![me, r]).collect();
            c.alltoall(&chunks)
        });
        for (me, row) in out.iter().enumerate() {
            for (src, chunk) in row.iter().enumerate() {
                assert_eq!(chunk, &vec![src as u8, me as u8]);
            }
        }
    }

    #[test]
    fn collectives_compose_with_point_to_point() {
        let out = run_ranks(3, |c| {
            c.barrier();
            if c.rank() == 0 {
                c.send(1, Tag(1), b"x");
            }
            let got = if c.rank() == 1 {
                Some(c.recv(Some(0), Some(Tag(1))).2)
            } else {
                None
            };
            c.barrier();
            let sum = c.allreduce(&[1.0], ReduceOp::Sum).unwrap();
            (got, sum)
        });
        assert_eq!(out[1].0.as_deref(), Some(&b"x"[..]));
        for (_, sum) in out {
            assert_eq!(sum, vec![3.0]);
        }
    }

    #[test]
    fn misaligned_reduce_contribution_is_an_error_not_a_panic() {
        // Rank 1 injects a 3-byte "contribution" straight into the reduce
        // tag space; rank 0's reduce must surface MisalignedReduce.
        let out = run_ranks(2, |c| {
            if c.rank() == 1 {
                let tag = coll_tag(TAG_REDUCE, 0);
                c.send_reserved(0, tag, &[1, 2, 3]);
                Ok(None)
            } else {
                c.reduce(0, &[1.0], ReduceOp::Sum)
            }
        });
        assert_eq!(out[0], Err(MpiError::MisalignedReduce { src: 1, len: 3 }));
    }

    #[test]
    fn mismatched_reduce_lengths_are_an_error() {
        let out = run_ranks(2, |c| {
            let mine = vec![1.0; 1 + c.rank() as usize];
            c.reduce(0, &mine, ReduceOp::Sum)
        });
        assert_eq!(
            out[0],
            Err(MpiError::LengthMismatch {
                src: 1,
                got: 2,
                expect: 1
            })
        );
    }

    #[test]
    fn coll_tags_wrap_within_their_subspace() {
        // Epoch 4096 of the barrier space must NOT alias the bcast space.
        assert_eq!(coll_tag(TAG_BARRIER, 0), Tag(TAG_BARRIER));
        assert_eq!(coll_tag(TAG_BARRIER, COLL_SPAN), Tag(TAG_BARRIER));
        assert_eq!(coll_tag(TAG_BARRIER, COLL_SPAN + 7), Tag(TAG_BARRIER + 7));
        for e in [
            0u32,
            1,
            COLL_SPAN - 1,
            COLL_SPAN,
            3 * COLL_SPAN + 5,
            u32::MAX,
        ] {
            let t = coll_tag(TAG_BARRIER, e).0;
            assert!(
                (TAG_BARRIER..TAG_BCAST).contains(&t),
                "epoch {e} escaped: {t:#x}"
            );
            let t = coll_tag(TAG_ALLREDUCE, e).0;
            assert!((TAG_ALLREDUCE..TAG_ALLREDUCE + COLL_SPAN).contains(&t));
        }
    }

    #[test]
    fn topo_tree_shapes_chain_and_fat_tree() {
        use fm_core::SwitchTopology;
        // Chain of 3 switches, 6 hosts each, root 0: the rank tree must
        // follow the chain — rep(s0)=0, rep(s1)=6, rep(s2)=12.
        let chain = SwitchTopology::for_cluster(18);
        let t0 = topo_tree(&chain, 18, 0, 0);
        assert_eq!(t0.parent, None);
        assert_eq!(t0.children, vec![1, 2, 3, 4, 5, 6]);
        let t6 = topo_tree(&chain, 18, 0, 6);
        assert_eq!(t6.parent, Some(0));
        assert_eq!(t6.children, vec![7, 8, 9, 10, 11, 12]);
        let t12 = topo_tree(&chain, 18, 0, 12);
        assert_eq!(t12.parent, Some(6));
        assert_eq!(t12.children, vec![13, 14, 15, 16, 17]);
        let t3 = topo_tree(&chain, 18, 0, 3);
        assert_eq!((t3.parent, t3.children.len()), (Some(0), 0));
        // Fat tree at 64: spines are host-less, so every leaf
        // representative hangs directly off the root.
        let ft = SwitchTopology::for_cluster_wide(64);
        let r = topo_tree(&ft, 64, 0, 0);
        assert_eq!(r.parent, None);
        // 5 switch-local ranks + 10 other leaf representatives.
        assert_eq!(r.children.len(), 15);
        for leaf_rep in [6u16, 12, 18, 24, 30, 36, 42, 48, 54, 60] {
            assert!(r.children.contains(&leaf_rep), "missing rep {leaf_rep}");
            let t = topo_tree(&ft, 64, 0, leaf_rep);
            assert_eq!(t.parent, Some(0), "rep {leaf_rep}");
            // Full leaves hold 6 hosts; the last leaf gets the 4-host
            // remainder (64 = 10*6 + 4).
            let local = if leaf_rep == 60 { 3 } else { 5 };
            assert_eq!(t.children.len(), local, "rep {leaf_rep} fans out locally");
        }
        // Every non-root rank appears exactly once as someone's child.
        let mut seen = std::collections::HashSet::new();
        for me in 0..64u16 {
            let t = topo_tree(&ft, 64, 0, me);
            for c in t.children {
                assert!(seen.insert(c), "rank {c} has two parents");
            }
        }
        assert_eq!(seen.len(), 63);
        assert!(!seen.contains(&0));
    }

    #[test]
    fn topo_tree_roots_anywhere() {
        use fm_core::SwitchTopology;
        let ft = SwitchTopology::for_cluster_wide(16);
        for root in [0u16, 7, 15] {
            let mut seen = std::collections::HashSet::new();
            for me in 0..16u16 {
                let t = topo_tree(&ft, 16, root, me);
                assert_eq!(t.parent.is_none(), me == root);
                for c in t.children {
                    assert!(seen.insert(c));
                    // Child and parent agree about the edge.
                    let tc = topo_tree(&ft, 16, root, c);
                    assert_eq!(tc.parent, Some(me));
                }
            }
            assert_eq!(seen.len(), 15, "root {root} spans all other ranks");
        }
    }

    /// Every rank's schedule, run symbolically on one thread: per-(src, dst)
    /// FIFO queues (`queues[src * n + dst]`, empty on entry and on exit)
    /// carry the set of ranks whose contribution a message holds, one bit
    /// each. With `combine` a send carries all the rank holds, otherwise the
    /// newest receipt (or the rank's own bit before one). Panics on a
    /// deadlock or a message left queued. Returns, per rank, the union of
    /// its own bit and every receipt, its newest holding, and its receipt
    /// count.
    fn simulate(
        scheds: &[Vec<Step>],
        combine: bool,
        queues: &mut [VecDeque<u64>],
    ) -> Vec<(u64, u64, usize)> {
        let n = scheds.len();
        let mut pc = vec![0; n];
        let mut held: Vec<_> = (0..n).map(|r| (1 << r, 1 << r, 0)).collect();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (r, sched) in scheds.iter().enumerate() {
                while let Some(&step) = sched.get(pc[r]) {
                    let (all, newest, count) = &mut held[r];
                    match step {
                        Step::Round(..) => {}
                        Step::Send(to) => {
                            assert_ne!(to as usize, r, "rank {r} sends to itself");
                            let bits = if combine { *all } else { *newest };
                            queues[r * n + to as usize].push_back(bits);
                        }
                        Step::Recv(from) => {
                            let Some(bits) = queues[from as usize * n + r].pop_front() else {
                                break;
                            };
                            (*all, *newest, *count) = (*all | bits, bits, *count + 1);
                        }
                    }
                    pc[r] += 1;
                    progressed = true;
                }
            }
        }
        for (r, sched) in scheds.iter().enumerate() {
            assert_eq!(pc[r], sched.len(), "rank {r} deadlocked at step {}", pc[r]);
        }
        if let Some(q) = queues.iter().position(|q| !q.is_empty()) {
            panic!(
                "a message from rank {} to rank {} was left queued",
                q / n,
                q % n
            );
        }
        held
    }

    /// Every algorithm, for every size from 1 to 64 and every root, with the
    /// topology trees over a chain of 3-host switches and over the wide
    /// wiring: no deadlock, nothing left queued, a bcast (or scatter)
    /// reaching every rank exactly once, and every rank that must hold all
    /// contributions (the reduce or gather root, every barrier and
    /// allreduce rank) holding all of them. No FM, no threads.
    #[test]
    fn every_schedule_completes_and_delivers() {
        for n in 1..=64usize {
            let all = u64::MAX >> (64 - n);
            let mut queues = vec![VecDeque::new(); n * n];
            let mut run = |sched: &dyn Fn(Rank) -> Vec<Step>, combine| {
                let scheds: Vec<_> = (0..n as Rank).map(sched).collect();
                simulate(&scheds, combine, &mut queues)
            };
            let topos = [
                SwitchTopology::chain(n, 3, 8),
                SwitchTopology::for_cluster_wide(n),
            ];
            let linear_barrier = |me| [fan_in(n, me, 0), fan_out(n, me, 0)].concat();
            let mut everyone = vec![
                ("dissemination", run(&|me| dissemination(n, me), true)),
                ("linear barrier", run(&linear_barrier, true)),
                ("pairwise", run(&|me| pairwise(n, me), false)),
                ("ring", run(&|me| ring(n, me), false)),
            ];
            if n.is_power_of_two() {
                everyone.push((
                    "recursive doubling",
                    run(&|me| recursive_doubling(n, me), true),
                ));
            }
            for topo in &topos {
                let tree_barrier = |me| tree_barrier(&topo_tree(topo, n, 0, me));
                everyone.push(("tree barrier", run(&tree_barrier, true)));
            }
            for (name, held) in everyone {
                for (r, &(bits, _, _)) in held.iter().enumerate() {
                    assert_eq!(bits, all, "{name}: n={n} rank {r} missed a contribution");
                }
            }
            for (i, &(bits, _, _)) in run(&|me| chain(n, me), true).iter().enumerate() {
                assert_eq!(bits, u64::MAX >> (63 - i), "scan: n={n} rank {i}");
            }
            let once = |root: Rank, held: Vec<(u64, u64, usize)>, name: &str| {
                for (r, &(_, newest, count)) in held.iter().enumerate() {
                    let from_root = (newest, count) == (1 << root, (r != root as usize) as usize);
                    assert!(
                        from_root,
                        "{name}: n={n} root={root} rank {r}: {count} receipts"
                    );
                }
            };
            for root in 0..n as Rank {
                let mut trees: Vec<Vec<CollTree>> = (topos.iter())
                    .map(|topo| {
                        (0..n as Rank)
                            .map(|me| topo_tree(topo, n, root, me))
                            .collect()
                    })
                    .collect();
                trees.push((0..n as Rank).map(|me| binomial(n, me, root)).collect());
                for tree in trees {
                    let reduce = run(&|me| fan_up(&tree[me as usize]), true);
                    assert_eq!(reduce[root as usize].0, all, "reduce: n={n} root={root}");
                    once(
                        root,
                        run(&|me| fan_down(&tree[me as usize]), false),
                        "bcast",
                    );
                }
                let gather = run(&|me| fan_in(n, me, root), false);
                assert_eq!(gather[root as usize].0, all, "gather: n={n} root={root}");
                once(root, run(&|me| fan_out(n, me, root), false), "scatter");
            }
        }
    }
}
