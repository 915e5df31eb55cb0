//! Collective operations over [`Communicator`]: barrier, broadcast,
//! reduce, allreduce, gather, scatter, alltoall.
//!
//! Two algorithm families, picked per call by the communicator's wiring:
//!
//! * **Topology-aware spanning trees** (switch-routed clusters): the
//!   collective tree is computed from the actual
//!   [`fm_core::SwitchTopology`] — a BFS spanning tree over the switches
//!   (`spanning_parents`), contracted onto ranks by electing one
//!   *representative* rank per switch. A representative's children are
//!   its switch-local ranks plus the representatives of child switches,
//!   so each trunk of the spanning tree carries each collective payload
//!   exactly once per direction instead of once per subscriber the way a
//!   rank-arithmetic tree laid over the fabric would.
//! * **Rank-space log-depth algorithms** (pairwise mesh, single-switch
//!   clusters, UDP): dissemination barrier, binomial bcast/reduce — the
//!   textbook MPI algorithms of the paper's era, which are already
//!   optimal when every rank pair is one hop apart.
//!
//! **allreduce** uses recursive doubling on power-of-two communicators
//! (`log2(n)` rounds, every rank finishing with the bit-identical result —
//! the exchange pairing is symmetric and the operators commute exactly in
//! IEEE arithmetic) and falls back to reduce-to-0 + broadcast otherwise.
//!
//! Each collective call derives its reserved tag from a per-communicator,
//! per-kind epoch counter so back-to-back collectives never cross-match.
//! Kind sub-spaces are `0x1000` tags apart, and epochs **wrap within the
//! sub-space** ([`coll_tag`]): an unwrapped `BASE + epoch` would walk out
//! of its space after 4096 calls and alias the next kind's tags (a late
//! barrier matching an early bcast). Correctness across the wrap rests on
//! the per-pair FIFO the matching layer restores: tag reuse 4096 epochs
//! later still matches in program order.
//!
//! The `*_linear` variants are the naive all-to-root baselines
//! (`O(size)` critical path, every payload crossing the root's one
//! downlink); they exist for `bench_mpi` to measure the trees against and
//! are not what applications should call.

use fm_core::{NodeId, SwitchTopology};
use fm_telemetry::EventKind;

use crate::comm::{Communicator, ReduceOp};
use crate::{MpiError, Rank, Tag};

/// `peer` value in a [`EventKind::CollRoundBegin`] span when the round
/// has no single partner (a fan to several children at once).
pub(crate) const NO_PEER: Rank = Rank::MAX;

/// Internal tag sub-space bases (all >= [`Tag::RESERVED`]). Each kind
/// owns `COLL_SPAN` consecutive tags; see [`coll_tag`].
const TAG_BARRIER: u32 = Tag::RESERVED;
const TAG_BCAST: u32 = Tag::RESERVED + 0x1000;
const TAG_REDUCE: u32 = Tag::RESERVED + 0x2000;
const TAG_GATHER: u32 = Tag::RESERVED + 0x3000;
const TAG_SCATTER: u32 = Tag::RESERVED + 0x4000;
const TAG_ALLTOALL: u32 = Tag::RESERVED + 0x5000;
// 0x6000..0x9000 belong to `nonblocking.rs`, 0xA000 to `group.rs`.
const TAG_ALLREDUCE: u32 = Tag::RESERVED + 0xB000;

/// Tags per collective kind.
pub(crate) const COLL_SPAN: u32 = 0x1000;

/// Epoch-counter indices into `Communicator::epochs`, one per kind.
pub(crate) const KIND_BARRIER: usize = 0;
pub(crate) const KIND_BCAST: usize = 1;
pub(crate) const KIND_REDUCE: usize = 2;
pub(crate) const KIND_ALLREDUCE: usize = 3;
pub(crate) const KIND_GATHER: usize = 4;
pub(crate) const KIND_SCATTER: usize = 5;
pub(crate) const KIND_ALLTOALL: usize = 6;
pub(crate) const KIND_ALLGATHER: usize = 7;
pub(crate) const KIND_ALLTOALLV: usize = 8;
pub(crate) const KIND_SCAN: usize = 9;
pub(crate) const N_COLL_KINDS: usize = 10;

/// The reserved tag for epoch `epoch` of the kind based at `base`. The
/// epoch wraps within the kind's `COLL_SPAN`-tag sub-space, so no epoch
/// ever aliases a neighbouring kind's tags.
pub(crate) fn coll_tag(base: u32, epoch: u32) -> Tag {
    Tag(base + (epoch & (COLL_SPAN - 1)))
}

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

/// Element-wise `acc = op(acc, theirs)` with a length check.
pub(crate) fn combine(
    acc: &mut [f64],
    src: Rank,
    theirs: &[f64],
    op: ReduceOp,
) -> Result<(), MpiError> {
    if theirs.len() != acc.len() {
        return Err(MpiError::LengthMismatch {
            src,
            got: theirs.len(),
            expect: acc.len(),
        });
    }
    for (a, b) in acc.iter_mut().zip(theirs) {
        *a = op.apply(*a, *b);
    }
    Ok(())
}

/// One rank's place in the collective spanning tree for a given root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CollTree {
    /// `None` exactly at the root rank.
    pub parent: Option<Rank>,
    /// Switch-local ranks first (ascending), then child-switch
    /// representatives (ascending switch id). Order is identical on every
    /// rank, so fan-in and fan-out pair up deterministically.
    pub children: Vec<Rank>,
}

/// Build the rank-level spanning tree for `root` over `topo`.
///
/// The switch graph's BFS spanning tree rooted at the root's switch is
/// contracted onto ranks: every switch with hosts elects a representative
/// (the root on its own switch, the lowest rank elsewhere), each
/// representative parents its switch-local ranks, and a representative's
/// parent is the representative of the nearest ancestor switch that has
/// hosts (fat-tree spines are host-less and are skipped over).
pub(crate) fn topo_tree(topo: &SwitchTopology, size: usize, root: Rank, me: Rank) -> CollTree {
    debug_assert_eq!(topo.hosts(), size);
    let root_sw = topo.switch_of(NodeId(root));
    let parents = topo.spanning_parents(root_sw);
    let nsw = topo.switches();
    let mut rep: Vec<Option<Rank>> = vec![None; nsw];
    for r in 0..size as Rank {
        let s = topo.switch_of(NodeId(r));
        if rep[s].is_none() {
            rep[s] = Some(r);
        }
    }
    rep[root_sw] = Some(root);
    // Nearest ancestor switch (in the BFS tree) that has a representative.
    let up = |mut s: usize| -> usize {
        loop {
            let p = parents[s].expect("only the root switch lacks a parent");
            if rep[p].is_some() {
                return p;
            }
            s = p;
        }
    };
    let me_sw = topo.switch_of(NodeId(me));
    let my_rep = rep[me_sw].expect("my own switch has hosts");
    if me != my_rep {
        // Leaf of the local fan-out: one hop to the local representative.
        return CollTree {
            parent: Some(my_rep),
            children: Vec::new(),
        };
    }
    let mut children: Vec<Rank> = topo
        .hosts_on(me_sw)
        .map(|h| h.0)
        .filter(|&r| r != me)
        .collect();
    for (s, r) in rep.iter().enumerate() {
        if s != me_sw && s != root_sw {
            if let Some(r) = *r {
                if up(s) == me_sw {
                    children.push(r);
                }
            }
        }
    }
    let parent = if me == root {
        None
    } else {
        Some(rep[up(me_sw)].expect("ancestor representative exists"))
    };
    CollTree { parent, children }
}

impl Communicator {
    // Collective-span tracing: every instrumented collective brackets the
    // whole call with `CollBegin`/`CollEnd` and each communication round
    // with `CollRoundBegin`/`CollRoundEnd`, all stamped on the endpoint's
    // clock so they merge onto the message-span timeline and export as
    // per-collective duration series from the beacon collector.
    fn coll_begin(&self, kind: usize, epoch: u32) {
        self.trace_coll(EventKind::CollBegin {
            coll: kind as u8,
            epoch,
        });
    }

    fn coll_end(&self, kind: usize, epoch: u32) {
        self.trace_coll(EventKind::CollEnd {
            coll: kind as u8,
            epoch,
        });
    }

    fn round_begin(&self, kind: usize, epoch: u32, round: u16, peer: Rank) {
        self.trace_coll(EventKind::CollRoundBegin {
            coll: kind as u8,
            epoch,
            round,
            peer,
        });
    }

    fn round_end(&self, kind: usize, epoch: u32, round: u16) {
        self.trace_coll(EventKind::CollRoundEnd {
            coll: kind as u8,
            epoch,
            round,
        });
    }

    /// This rank's collective spanning tree for `root`, when the wiring
    /// makes a topology tree worthwhile (more than one switch). On a
    /// single switch — or the mesh, where every pair is one hop — the
    /// rank-space algorithms are already optimal and this returns `None`.
    fn coll_tree(&self, root: Rank) -> Option<CollTree> {
        let topo = self.topology()?;
        if topo.switches() <= 1 || topo.hosts() != self.size() {
            return None;
        }
        Some(topo_tree(topo, self.size(), root, self.rank()))
    }

    /// Barrier: returns when every rank has entered. Switch-routed
    /// clusters fan in and back out over the topology spanning tree
    /// (each trunk crossed once per direction); otherwise the
    /// dissemination algorithm runs in `ceil(log2(size))` rounds.
    pub fn barrier(&mut self) {
        let epoch = self.bump_epoch(KIND_BARRIER);
        self.coll_begin(KIND_BARRIER, epoch);
        self.barrier_rounds(epoch);
        self.coll_end(KIND_BARRIER, epoch);
    }

    fn barrier_rounds(&mut self, epoch: u32) {
        let size = self.size() as u32;
        if size == 1 {
            return;
        }
        let tag = coll_tag(TAG_BARRIER, epoch);
        if let Some(tree) = self.coll_tree(0) {
            // Round 0, fan-in: wait for the whole subtree, report up,
            // wait for the release.
            self.round_begin(KIND_BARRIER, epoch, 0, tree.parent.unwrap_or(NO_PEER));
            for &c in &tree.children {
                let _ = self.recv_reserved(c, tag);
            }
            if let Some(p) = tree.parent {
                self.send_reserved(p, tag, &[]);
                let _ = self.recv_reserved(p, tag);
            }
            self.round_end(KIND_BARRIER, epoch, 0);
            // Round 1, fan-out: release the subtree.
            self.round_begin(KIND_BARRIER, epoch, 1, NO_PEER);
            for &c in &tree.children {
                self.send_reserved(c, tag, &[]);
            }
            self.round_end(KIND_BARRIER, epoch, 1);
            return;
        }
        let me = self.rank() as u32;
        // Rounds share the epoch's tag; per-pair FIFO plus the distinct
        // partner per round (distances 1, 2, 4, … < size are distinct
        // mod size) make rounds unambiguous.
        let mut dist = 1u32;
        let mut round = 0u16;
        while dist < size {
            let to = ((me + dist) % size) as Rank;
            let from = ((me + size - dist) % size) as Rank;
            self.round_begin(KIND_BARRIER, epoch, round, to);
            self.send_reserved(to, tag, &[]);
            let _ = self.recv_reserved(from, tag);
            self.round_end(KIND_BARRIER, epoch, round);
            dist *= 2;
            round += 1;
        }
    }

    /// Broadcast `data` from `root`; every rank returns the root's bytes.
    /// Tree-shaped to the topology on switched clusters, binomial in rank
    /// space otherwise.
    pub fn bcast(&mut self, root: Rank, data: &[u8]) -> Vec<u8> {
        let epoch = self.bump_epoch(KIND_BCAST);
        self.coll_begin(KIND_BCAST, epoch);
        let buf = self.bcast_rounds(root, data, epoch);
        self.coll_end(KIND_BCAST, epoch);
        buf
    }

    fn bcast_rounds(&mut self, root: Rank, data: &[u8], epoch: u32) -> Vec<u8> {
        let size = self.size() as u32;
        if size == 1 {
            return data.to_vec();
        }
        let tag = coll_tag(TAG_BCAST, epoch);
        let mut round = 0u16;
        if let Some(tree) = self.coll_tree(root) {
            let buf = match tree.parent {
                None => data.to_vec(),
                Some(p) => {
                    self.round_begin(KIND_BCAST, epoch, round, p);
                    let b = self.recv_reserved(p, tag);
                    self.round_end(KIND_BCAST, epoch, round);
                    round += 1;
                    b
                }
            };
            for &c in &tree.children {
                self.round_begin(KIND_BCAST, epoch, round, c);
                self.send_reserved(c, tag, &buf);
                self.round_end(KIND_BCAST, epoch, round);
                round += 1;
            }
            return buf;
        }
        let me = self.rank() as u32;
        // Virtual rank with the root mapped to 0.
        let vrank = (me + size - root as u32) % size;
        let buf = if vrank == 0 {
            data.to_vec()
        } else {
            // Receive from the parent: clear the lowest set bit.
            let parent_v = vrank & (vrank - 1);
            let parent = ((parent_v + root as u32) % size) as Rank;
            self.round_begin(KIND_BCAST, epoch, round, parent);
            let b = self.recv_reserved(parent, tag);
            self.round_end(KIND_BCAST, epoch, round);
            round += 1;
            b
        };
        // Forward to children: set bits above the lowest set bit.
        let lowest = if vrank == 0 {
            size.next_power_of_two()
        } else {
            vrank & vrank.wrapping_neg()
        };
        let mut bit = 1u32;
        while bit < lowest && bit < size {
            let child_v = vrank | bit;
            if child_v != vrank && child_v < size {
                let child = ((child_v + root as u32) % size) as Rank;
                self.round_begin(KIND_BCAST, epoch, round, child);
                self.send_reserved(child, tag, &buf);
                self.round_end(KIND_BCAST, epoch, round);
                round += 1;
            }
            bit <<= 1;
        }
        buf
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
        let epoch = self.bump_epoch(KIND_REDUCE);
        self.coll_begin(KIND_REDUCE, epoch);
        let r = self.reduce_rounds(root, data, op, epoch);
        self.coll_end(KIND_REDUCE, epoch);
        r
    }

    fn reduce_rounds(
        &mut self,
        root: Rank,
        data: &[f64],
        op: ReduceOp,
        epoch: u32,
    ) -> Result<Option<Vec<f64>>, MpiError> {
        let size = self.size() as u32;
        let tag = coll_tag(TAG_REDUCE, epoch);
        let mut acc = data.to_vec();
        let mut round = 0u16;
        if let Some(tree) = self.coll_tree(root) {
            // Combine the whole subtree, then pass one payload up — the
            // inverse of the bcast fan-out, so each trunk carries one
            // combined contribution instead of one per descendant rank.
            for &c in &tree.children {
                self.round_begin(KIND_REDUCE, epoch, round, c);
                let recvd = self.recv_reserved(c, tag);
                self.round_end(KIND_REDUCE, epoch, round);
                round += 1;
                let theirs = bytes_to_f64s(c, &recvd)?;
                combine(&mut acc, c, &theirs, op)?;
            }
            return match tree.parent {
                Some(p) => {
                    self.round_begin(KIND_REDUCE, epoch, round, p);
                    self.send_reserved(p, tag, &f64s_to_bytes(&acc));
                    self.round_end(KIND_REDUCE, epoch, round);
                    Ok(None)
                }
                None => Ok(Some(acc)),
            };
        }
        let me = self.rank() as u32;
        let vrank = (me + size - root as u32) % size;
        // Binomial tree, leaves first: at round `bit`, ranks with that bit
        // set send to their parent and exit; others receive and merge.
        let mut bit = 1u32;
        while bit < size {
            if vrank & bit != 0 {
                let parent_v = vrank & !bit;
                let parent = ((parent_v + root as u32) % size) as Rank;
                self.round_begin(KIND_REDUCE, epoch, round, parent);
                self.send_reserved(parent, tag, &f64s_to_bytes(&acc));
                self.round_end(KIND_REDUCE, epoch, round);
                return Ok(None);
            }
            let child_v = vrank | bit;
            if child_v < size {
                let child = ((child_v + root as u32) % size) as Rank;
                self.round_begin(KIND_REDUCE, epoch, round, child);
                let recvd = self.recv_reserved(child, tag);
                self.round_end(KIND_REDUCE, epoch, round);
                let theirs = bytes_to_f64s(child, &recvd)?;
                combine(&mut acc, child, &theirs, op)?;
            }
            bit <<= 1;
            round += 1;
        }
        Ok(Some(acc))
    }

    /// Reduction delivered to every rank. Power-of-two communicators run
    /// recursive doubling — `log2(size)` pairwise exchange rounds, half
    /// the depth of reduce + broadcast, and bit-identical results on every
    /// rank; other sizes reduce to rank 0 and broadcast.
    pub fn allreduce(&mut self, data: &[f64], op: ReduceOp) -> Result<Vec<f64>, MpiError> {
        let size = self.size();
        if size == 1 {
            return Ok(data.to_vec());
        }
        let epoch = self.bump_epoch(KIND_ALLREDUCE);
        self.coll_begin(KIND_ALLREDUCE, epoch);
        let r = self.allreduce_rounds(data, op, epoch);
        self.coll_end(KIND_ALLREDUCE, epoch);
        r
    }

    fn allreduce_rounds(
        &mut self,
        data: &[f64],
        op: ReduceOp,
        epoch: u32,
    ) -> Result<Vec<f64>, MpiError> {
        let size = self.size();
        if size.is_power_of_two() {
            let tag = coll_tag(TAG_ALLREDUCE, epoch);
            let me = self.rank() as usize;
            let mut acc = data.to_vec();
            let mut dist = 1usize;
            let mut round = 0u16;
            while dist < size {
                let partner = (me ^ dist) as Rank;
                self.round_begin(KIND_ALLREDUCE, epoch, round, partner);
                self.send_reserved(partner, tag, &f64s_to_bytes(&acc));
                let recvd = self.recv_reserved(partner, tag);
                self.round_end(KIND_ALLREDUCE, epoch, round);
                let theirs = bytes_to_f64s(partner, &recvd)?;
                combine(&mut acc, partner, &theirs, op)?;
                dist <<= 1;
                round += 1;
            }
            return Ok(acc);
        }
        // Non-power-of-two: reduce + bcast, which emit their own spans
        // nested inside this allreduce's begin/end bracket.
        let result = self.reduce(0, data, op)?;
        let bytes = self.bcast(0, &f64s_to_bytes(result.as_deref().unwrap_or(&[])));
        bytes_to_f64s(0, &bytes)
    }

    /// Gather every rank's bytes at `root` (rank order). `root` gets
    /// `Some(vec_of_contributions)`.
    pub fn gather(&mut self, root: Rank, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        let epoch = self.bump_epoch(KIND_GATHER);
        let tag = coll_tag(TAG_GATHER, epoch);
        if self.rank() != root {
            self.send_reserved(root, tag, data);
            return None;
        }
        let mut out = vec![Vec::new(); self.size()];
        out[root as usize] = data.to_vec();
        for r in 0..self.size() as Rank {
            if r != root {
                out[r as usize] = self.recv_reserved(r, tag);
            }
        }
        Some(out)
    }

    /// Scatter one chunk per rank from `root`; returns this rank's chunk.
    /// `chunks` is only read at the root and must have `size` entries.
    pub fn scatter(&mut self, root: Rank, chunks: Option<&[Vec<u8>]>) -> Vec<u8> {
        let epoch = self.bump_epoch(KIND_SCATTER);
        let tag = coll_tag(TAG_SCATTER, epoch);
        if self.rank() == root {
            let chunks = chunks.expect("root must supply chunks");
            assert_eq!(chunks.len(), self.size(), "one chunk per rank");
            for r in 0..self.size() as Rank {
                if r != root {
                    self.send_reserved(r, tag, &chunks[r as usize]);
                }
            }
            chunks[root as usize].clone()
        } else {
            self.recv_reserved(root, tag)
        }
    }

    /// Personalized all-to-all: `chunks[r]` goes to rank `r`; returns what
    /// every rank sent to us, in rank order.
    pub fn alltoall(&mut self, chunks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        assert_eq!(chunks.len(), self.size(), "one chunk per rank");
        let epoch = self.bump_epoch(KIND_ALLTOALL);
        let tag = coll_tag(TAG_ALLTOALL, epoch);
        let me = self.rank();
        let mut out = vec![Vec::new(); self.size()];
        out[me as usize] = chunks[me as usize].clone();
        // Send everything, then receive everything; FM's windows plus the
        // blocking-send service loop keep this deadlock-free.
        for r in 0..self.size() as Rank {
            if r != me {
                self.send_reserved(r, tag, &chunks[r as usize]);
            }
        }
        for r in 0..self.size() as Rank {
            if r != me {
                out[r as usize] = self.recv_reserved(r, tag);
            }
        }
        out
    }

    /// The naive linear barrier: every rank reports to rank 0, which
    /// releases them one by one — an `O(size)` critical path serialized
    /// on rank 0's downlink. **Baseline only**: `bench_mpi` gates the
    /// spanning-tree barrier against this; applications should call
    /// [`Communicator::barrier`].
    pub fn barrier_linear(&mut self) {
        let epoch = self.bump_epoch(KIND_BARRIER);
        if self.size() == 1 {
            return;
        }
        let tag = coll_tag(TAG_BARRIER, epoch);
        if self.rank() == 0 {
            for r in 1..self.size() as Rank {
                let _ = self.recv_reserved(r, tag);
            }
            for r in 1..self.size() as Rank {
                self.send_reserved(r, tag, &[]);
            }
        } else {
            self.send_reserved(0, tag, &[]);
            let _ = self.recv_reserved(0, tag);
        }
    }

    /// The naive linear allreduce: every contribution goes straight to
    /// rank 0, which combines in rank order and unicasts the result back
    /// to each rank. **Baseline only** — see [`Communicator::barrier_linear`].
    pub fn allreduce_linear(&mut self, data: &[f64], op: ReduceOp) -> Result<Vec<f64>, MpiError> {
        let epoch = self.bump_epoch(KIND_ALLREDUCE);
        if self.size() == 1 {
            return Ok(data.to_vec());
        }
        let tag = coll_tag(TAG_ALLREDUCE, epoch);
        if self.rank() == 0 {
            let mut acc = data.to_vec();
            for r in 1..self.size() as Rank {
                let theirs = bytes_to_f64s(r, &self.recv_reserved(r, tag))?;
                combine(&mut acc, r, &theirs, op)?;
            }
            let bytes = f64s_to_bytes(&acc);
            for r in 1..self.size() as Rank {
                self.send_reserved(r, tag, &bytes);
            }
            Ok(acc)
        } else {
            self.send_reserved(0, tag, &f64s_to_bytes(data));
            bytes_to_f64s(0, &self.recv_reserved(0, tag))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MpiCluster, MpiError, ReduceOp, Tag};

    /// Run `f` on every rank of an `n`-rank cluster, collecting results.
    fn run_ranks<T: Send + 'static>(
        n: usize,
        f: impl Fn(&mut crate::Communicator) -> T + Send + Sync + Clone + 'static,
    ) -> Vec<T> {
        run_comms(MpiCluster::new(n), f)
    }

    fn run_comms<T: Send + 'static>(
        comms: Vec<crate::Communicator>,
        f: impl Fn(&mut crate::Communicator) -> T + Send + Sync + Clone + 'static,
    ) -> Vec<T> {
        let mut handles = Vec::new();
        for mut c in comms {
            let f = f.clone();
            handles.push(std::thread::spawn(move || {
                let out = f(&mut c);
                // Give trailing acks a chance to drain.
                for _ in 0..5 {
                    c.progress();
                    std::thread::yield_now();
                }
                (c.rank(), out)
            }));
        }
        let mut results: Vec<(u16, T)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort_by_key(|(r, _)| *r);
        results.into_iter().map(|(_, t)| t).collect()
    }

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
}
