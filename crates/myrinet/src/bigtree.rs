//! Million-host fat trees — computed routing for campaign-scale fabrics.
//!
//! [`crate::topology::SwitchTopology`] stores explicit per-pair route
//! tables (`O(switches²)` memory, u16 host ids), which is exactly right for
//! the double-digit clusters the live runtime drives and exactly wrong for
//! a million-endpoint simulation campaign. [`ClosTopology`] is the
//! complementary shape: a three-level k-ary fat tree (Clos network) whose
//! routing is *computed* — `O(1)` state, `O(1)` per-hop decisions — so a
//! `k = 160` fabric (1 024 000 hosts, 32 000 switches) costs nothing to
//! instantiate.
//!
//! The simulator uses `SwitchTopology` tables directly at the calibration
//! sizes where the live runtime can be run side by side, and switches to
//! `ClosTopology` only beyond them; the [`tests`] module proves the two
//! agree (hop counts, ECMP candidate widths, link-by-link path validity)
//! on a fat tree small enough to build both ways.
//!
//! Structure of a `k`-ary fat tree (`k` even):
//!
//! * `k` pods, each with `k/2` edge switches and `k/2` aggregation
//!   switches; every edge switch hosts `k/2` endpoints ⇒ `k³/4` hosts;
//! * `(k/2)²` core switches; core switch `(a, c)` connects to aggregation
//!   switch `a` of every pod — so the aggregation pick at the source pod
//!   *determines* the aggregation switch at the destination pod;
//! * every switch has exactly `k` ports.
//!
//! Shortest paths traverse 1 switch (same edge), 3 (same pod) or 5
//! (cross-pod); the ECMP spread at the source edge switch is `k/2` either
//! way, widening to `(k/2)²` distinct cross-pod paths once the core pick
//! is made. Path selection reuses [`SwitchTopology::spread`] so a flow's
//! hash picks trunks with the same decorrelation rule as the live
//! forwarding path.

use crate::topology::SwitchTopology;

/// A three-level k-ary fat tree with computed (table-free) ECMP routing.
///
/// Hosts and switches are `u64`/`u32` indices — deliberately wider than
/// [`crate::packet::NodeId`]'s u16, which tops out at 65 535 hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosTopology {
    k: u32,
}

impl ClosTopology {
    /// A `k`-ary fat tree. `k` must be even and ≥ 2.
    pub fn new(k: u32) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity must be even, got {k}"
        );
        ClosTopology { k }
    }

    /// The smallest even-`k` fat tree with at least `n` hosts.
    pub fn for_hosts(n: u64) -> Self {
        let mut k = 2u32;
        while Self::new(k).hosts() < n {
            k += 2;
        }
        Self::new(k)
    }

    /// The arity (= ports per switch).
    pub fn arity(&self) -> u32 {
        self.k
    }

    /// Hosts: `k³/4`.
    pub fn hosts(&self) -> u64 {
        let k = self.k as u64;
        k * k * k / 4
    }

    /// Switches: `k²/2` edge + `k²/2` aggregation + `k²/4` core.
    pub fn switches(&self) -> u64 {
        let k = self.k as u64;
        5 * k * k / 4
    }

    /// Ports per switch (every switch in a fat tree has `k`).
    pub fn ports(&self) -> u32 {
        self.k
    }

    /// The pod a host lives in.
    pub fn pod_of(&self, host: u64) -> u32 {
        debug_assert!(host < self.hosts());
        let per_pod = (self.k as u64) * (self.k as u64) / 4;
        (host / per_pod) as u32
    }

    /// The (global id of the) edge switch a host hangs off.
    pub fn edge_of(&self, host: u64) -> u32 {
        debug_assert!(host < self.hosts());
        let half = (self.k / 2) as u64;
        let per_pod = half * half;
        let pod = host / per_pod;
        let e = (host % per_pod) / half;
        (pod * half + e) as u32
    }

    fn agg_id(&self, pod: u32, a: u32) -> u32 {
        let half = self.k / 2;
        self.k * half + pod * half + a
    }

    fn core_id(&self, a: u32, c: u32) -> u32 {
        let half = self.k / 2;
        self.k * self.k + a * half + c
    }

    /// Switch traversals on a shortest path between two hosts: 1 (same
    /// edge switch), 3 (same pod) or 5 (cross-pod). Matches
    /// [`SwitchTopology::hops`]'s convention.
    pub fn hops(&self, src: u64, dst: u64) -> usize {
        if self.edge_of(src) == self.edge_of(dst) {
            1
        } else if self.pod_of(src) == self.pod_of(dst) {
            3
        } else {
            5
        }
    }

    /// ECMP candidates at the source edge switch: `k/2` uplinks whenever
    /// the destination is on another switch, 0 when it shares the edge
    /// (nothing to route). Comparable to
    /// [`SwitchTopology::route_choices`]`(edge(src), edge(dst)).len()`.
    pub fn first_hop_choices(&self, src: u64, dst: u64) -> usize {
        if self.edge_of(src) == self.edge_of(dst) {
            0
        } else {
            (self.k / 2) as usize
        }
    }

    /// Total equal-cost path diversity between two hosts.
    pub fn path_diversity(&self, src: u64, dst: u64) -> u64 {
        let half = (self.k / 2) as u64;
        match self.hops(src, dst) {
            1 => 1,
            3 => half,
            _ => half * half,
        }
    }

    /// Deterministic per-flow hash over wide host ids (the u16-packing of
    /// [`SwitchTopology::flow_hash`] would alias at campaign scale).
    pub fn flow_hash(src: u64, dst: u64) -> u64 {
        let mut z = (src.rotate_left(32) ^ dst).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The switch-id sequence a flow's frames traverse, appended to `out`
    /// (1, 3 or 5 switches). Stable per `hash`: every frame of a flow
    /// takes the same path, like the live runtime's per-flow trunk pick.
    /// Trunk choices reuse [`SwitchTopology::spread`] hop by hop.
    pub fn path_into(&self, src: u64, dst: u64, hash: u64, out: &mut Vec<u32>) {
        let half = self.k / 2;
        let es = self.edge_of(src);
        let ed = self.edge_of(dst);
        out.push(es);
        if es == ed {
            return;
        }
        let ps = self.pod_of(src);
        let pd = self.pod_of(dst);
        let a = SwitchTopology::spread(es as usize, hash, half as usize) as u32;
        let agg_s = self.agg_id(ps, a);
        out.push(agg_s);
        if ps != pd {
            let c = SwitchTopology::spread(agg_s as usize, hash, half as usize) as u32;
            out.push(self.core_id(a, c));
            // Core (a, c) only reaches pod `pd` through its aggregation
            // switch `a`: the down path is forced.
            out.push(self.agg_id(pd, a));
        }
        out.push(ed);
    }

    /// Bytes of routing state the computed router keeps: the arity. The
    /// memory gate compares this against `switches × ports` — the bound
    /// table-driven routing would need — so the campaign can assert the
    /// fabric is not hiding a quadratic table.
    pub fn routing_state_bytes(&self) -> u64 {
        std::mem::size_of::<Self>() as u64
    }

    /// Materialize the same fat tree as an explicit [`SwitchTopology`]
    /// (host→switch map plus trunk list). Only feasible for small `k`
    /// (u16 host ids, `O(switches²)` route tables) — this exists so tests
    /// can prove the computed router agrees with the table-driven one.
    ///
    /// # Panics
    /// If the tree has more hosts than `u16` can index.
    pub fn to_tables(&self) -> SwitchTopology {
        assert!(
            self.hosts() <= u16::MAX as u64 + 1,
            "too many hosts for NodeId"
        );
        let half = self.k / 2;
        let host_switch: Vec<usize> = (0..self.hosts())
            .map(|h| self.edge_of(h) as usize)
            .collect();
        let mut trunks = Vec::new();
        for pod in 0..self.k {
            for e in 0..half {
                let edge = pod * half + e;
                for a in 0..half {
                    trunks.push((edge as usize, self.agg_id(pod, a) as usize));
                }
            }
            for a in 0..half {
                for c in 0..half {
                    trunks.push((self.agg_id(pod, a) as usize, self.core_id(a, c) as usize));
                }
            }
        }
        SwitchTopology::custom(host_switch, trunks, self.k as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::NodeId;

    #[test]
    fn sizes_match_the_closed_forms() {
        for k in [2u32, 4, 8, 16] {
            let t = ClosTopology::new(k);
            let k = k as u64;
            assert_eq!(t.hosts(), k * k * k / 4);
            assert_eq!(t.switches(), 5 * k * k / 4);
            assert_eq!(t.ports(), t.arity());
        }
        // The campaign ladder.
        assert_eq!(ClosTopology::new(16).hosts(), 1_024);
        assert_eq!(ClosTopology::new(36).hosts(), 11_664);
        assert_eq!(ClosTopology::new(74).hosts(), 101_306);
        assert_eq!(ClosTopology::new(160).hosts(), 1_024_000);
    }

    #[test]
    fn for_hosts_picks_the_smallest_even_arity() {
        assert_eq!(ClosTopology::for_hosts(1).arity(), 2);
        assert_eq!(ClosTopology::for_hosts(2).arity(), 2);
        assert_eq!(ClosTopology::for_hosts(3).arity(), 4);
        assert_eq!(ClosTopology::for_hosts(1_000).arity(), 16);
        assert_eq!(ClosTopology::for_hosts(10_000).arity(), 36);
        assert_eq!(ClosTopology::for_hosts(100_000).arity(), 74);
        assert_eq!(ClosTopology::for_hosts(1_000_000).arity(), 160);
    }

    #[test]
    fn paths_are_stable_shortest_and_hash_spread() {
        let t = ClosTopology::new(8);
        let n = t.hosts();
        let mut path = Vec::new();
        let mut core_picks = std::collections::HashSet::new();
        for src in 0..n {
            for dst in (0..n).step_by(7) {
                if src == dst {
                    continue;
                }
                let h = ClosTopology::flow_hash(src, dst);
                path.clear();
                t.path_into(src, dst, h, &mut path);
                assert_eq!(path.len(), t.hops(src, dst));
                assert_eq!(path[0], t.edge_of(src));
                assert_eq!(*path.last().unwrap(), t.edge_of(dst));
                // Re-deriving with the same hash gives the same path.
                let mut again = Vec::new();
                t.path_into(src, dst, h, &mut again);
                assert_eq!(path, again);
                if path.len() == 5 {
                    core_picks.insert(path[2]);
                }
            }
        }
        // Flow hashing actually spreads across the core.
        assert!(
            core_picks.len() > (t.arity() as usize / 2),
            "only {} distinct core switches used",
            core_picks.len()
        );
    }

    /// The load-bearing equivalence: on a fat tree small enough to build
    /// both ways, the computed router agrees with `SwitchTopology`'s
    /// BFS-derived tables — same hop counts, same first-hop ECMP widths,
    /// and every computed path walks real trunks of the table topology.
    #[test]
    fn computed_routing_matches_switch_topology_tables() {
        let clos = ClosTopology::new(4);
        let tables = clos.to_tables();
        assert_eq!(tables.hosts() as u64, clos.hosts());
        assert_eq!(tables.switches() as u64, clos.switches());
        let n = clos.hosts();
        let mut path = Vec::new();
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let (ns, nd) = (NodeId(src as u16), NodeId(dst as u16));
                assert_eq!(
                    clos.hops(src, dst),
                    tables.hops(ns, nd),
                    "hop mismatch {src}->{dst}"
                );
                let es = tables.switch_of(ns);
                let ed = tables.switch_of(nd);
                assert_eq!(es as u32, clos.edge_of(src));
                assert_eq!(
                    clos.first_hop_choices(src, dst),
                    tables.route_choices(es, ed).len(),
                    "ECMP width mismatch {src}->{dst}"
                );
                // Every consecutive switch pair on the computed path is a
                // real trunk of the explicit topology.
                path.clear();
                clos.path_into(src, dst, ClosTopology::flow_hash(src, dst), &mut path);
                for w in path.windows(2) {
                    assert!(
                        tables
                            .neighbors_of(w[0] as usize)
                            .contains(&(w[1] as usize)),
                        "computed path uses non-existent trunk {}–{}",
                        w[0],
                        w[1]
                    );
                }
            }
        }
    }

    #[test]
    fn routing_state_stays_constant_size() {
        let small = ClosTopology::new(4);
        let huge = ClosTopology::new(160);
        assert_eq!(small.routing_state_bytes(), huge.routing_state_bytes());
        // And it is minuscule next to the switches×ports bound the
        // campaign's memory gate allows.
        assert!(huge.routing_state_bytes() < huge.switches() * huge.ports() as u64);
    }
}
