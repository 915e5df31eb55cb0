//! Switch topology as a *routing structure* — the static map the live
//! cluster runtime (`fm-core::switched`) routes frames over, as opposed to
//! the timing models in [`crate::switch`] and [`crate::chain`].
//!
//! A topology is a set of crossbar switches, an assignment of hosts to
//! switches, and a set of trunk links between switches. Early versions
//! required the trunks to form a tree (the way small Myrinet sites were
//! actually cabled); that restriction made every cross-switch flow
//! serialize on the one trunk of its unique path. The structure is now a
//! connected **multigraph**: parallel trunks between the same switch pair
//! add capacity, and fat-tree-style shapes (leaf switches fanning into a
//! spine layer) give cross-switch traffic many equal-length paths.
//!
//! Routing stays deterministic and per-source-ordered:
//!
//! * [`SwitchTopology::route_choices`] lists, for every (switch,
//!   destination switch) pair, *all* incident links that lie on a
//!   shortest path — the ECMP candidate set.
//! * [`SwitchTopology::flow_link`] picks one candidate by hashing the
//!   flow's (src, dst) host pair ([`SwitchTopology::flow_hash`], a
//!   splitmix64 spread). The choice is a pure function of the flow and
//!   the switch, so every frame of a flow takes the same path and
//!   per-source FIFO ordering through the fabric is preserved, while
//!   distinct flows spread across parallel trunks.
//!
//! Deadlock note: on trees (with or without parallel trunks) and on
//! two-level fat trees, shortest-path routing is up\*/down\* — the channel
//! dependency graph is acyclic, so wormhole-style backpressure cannot
//! deadlock. Arbitrary multigraphs with longer cycles are accepted
//! (shortest-path routing never loops a frame), but backpressure cycles
//! there are broken by the switch shards' stash age-out rather than by
//! construction.

use crate::packet::NodeId;

/// One end of a trunk as seen from a switch: which trunk, and which
/// switch the other end lands on. A switch's link list
/// ([`SwitchTopology::links_of`]) has one entry per incident trunk, so
/// parallel trunks appear as separate entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrunkLink {
    /// Index into [`SwitchTopology::trunks`].
    pub trunk: usize,
    /// The switch at the far end.
    pub peer: usize,
}

/// A static switch fabric: hosts attached to switches, switches joined by
/// trunk links forming a connected multigraph.
#[derive(Debug, Clone)]
pub struct SwitchTopology {
    /// `host_switch[h]` = index of the switch host `h` hangs off.
    host_switch: Vec<usize>,
    /// Trunk links `(a, b)`; parallel duplicates are distinct trunks.
    trunks: Vec<(usize, usize)>,
    /// `links[s]` = incident trunks of `s`, in trunk order.
    links: Vec<Vec<TrunkLink>>,
    /// Deduplicated adjacent switches, for callers that only care about
    /// the switch graph.
    neighbors: Vec<Vec<usize>>,
    /// `dist[s][d]` = trunk hops between switches `s` and `d`.
    dist: Vec<Vec<usize>>,
    /// `route[s][d]` = positions into `links[s]` of every link on a
    /// shortest path toward `d` (empty only when `s == d`).
    route: Vec<Vec<Vec<usize>>>,
    /// Ports available on every switch (hosts + trunks must fit).
    ports: usize,
}

impl SwitchTopology {
    /// Build a topology from an explicit host→switch assignment and trunk
    /// list. The general constructor the property tests drive with random
    /// graphs; [`SwitchTopology::single`], [`SwitchTopology::chain`] and
    /// [`SwitchTopology::fat_tree`] are the common shapes.
    ///
    /// # Panics
    /// If there are no hosts, a host references a missing switch, a trunk
    /// is a self-loop or out of range, the trunks do not connect all
    /// switches, or any switch needs more than `ports` ports for its
    /// hosts plus trunks.
    pub fn custom(host_switch: Vec<usize>, trunks: Vec<(usize, usize)>, ports: usize) -> Self {
        assert!(
            !host_switch.is_empty(),
            "a topology needs at least one host"
        );
        // Host-less switches (fat-tree spines) exist only as trunk
        // endpoints, so the switch count must cover those too.
        let nswitches = host_switch
            .iter()
            .copied()
            .chain(trunks.iter().flat_map(|&(a, b)| [a, b]))
            .max()
            .unwrap()
            + 1;
        let mut links: Vec<Vec<TrunkLink>> = vec![Vec::new(); nswitches];
        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); nswitches];
        for (t, &(a, b)) in trunks.iter().enumerate() {
            assert!(a != b, "trunk self-loop on switch {a}");
            assert!(
                a < nswitches && b < nswitches,
                "trunk ({a},{b}) out of range"
            );
            links[a].push(TrunkLink { trunk: t, peer: b });
            links[b].push(TrunkLink { trunk: t, peer: a });
            if !neighbors[a].contains(&b) {
                neighbors[a].push(b);
                neighbors[b].push(a);
            }
        }
        // Port budget: every host port plus every trunk port must fit.
        for (s, ls) in links.iter().enumerate() {
            let hosts_here = host_switch.iter().filter(|&&hs| hs == s).count();
            let need = hosts_here + ls.len();
            assert!(
                need <= ports,
                "switch {s} needs {need} ports ({hosts_here} hosts + {} trunks) > {ports}",
                ls.len()
            );
        }
        // BFS from every switch: distance table, then the ECMP candidate
        // sets (every incident link whose far end is one hop closer).
        let mut dist = vec![vec![usize::MAX; nswitches]; nswitches];
        for (root, row) in dist.iter_mut().enumerate() {
            row[root] = 0;
            let mut queue = std::collections::VecDeque::from([root]);
            while let Some(s) = queue.pop_front() {
                for &nb in &neighbors[s] {
                    if row[nb] == usize::MAX {
                        row[nb] = row[s] + 1;
                        queue.push_back(nb);
                    }
                }
            }
            assert!(
                row.iter().all(|&d| d != usize::MAX),
                "trunks do not connect all {nswitches} switches"
            );
        }
        let route: Vec<Vec<Vec<usize>>> = (0..nswitches)
            .map(|s| {
                (0..nswitches)
                    .map(|d| {
                        if s == d {
                            return Vec::new();
                        }
                        links[s]
                            .iter()
                            .enumerate()
                            .filter(|(_, l)| dist[l.peer][d] + 1 == dist[s][d])
                            .map(|(pos, _)| pos)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        SwitchTopology {
            host_switch,
            trunks,
            links,
            neighbors,
            dist,
            route,
            ports,
        }
    }

    /// All hosts on one switch — the paper's own testbed shape.
    ///
    /// # Panics
    /// If `hosts` exceeds `ports` (or is zero).
    pub fn single(hosts: usize, ports: usize) -> Self {
        Self::custom(vec![0; hosts], Vec::new(), ports)
    }

    /// A daisy chain: `hosts_per_switch` hosts per switch, neighbouring
    /// switches trunked — the same shape as [`crate::chain::ChainNetwork`].
    ///
    /// # Panics
    /// If a middle switch would need more than `ports` ports
    /// (`hosts_per_switch + 2`).
    pub fn chain(hosts: usize, hosts_per_switch: usize, ports: usize) -> Self {
        Self::chain_multi(hosts, hosts_per_switch, 1, ports)
    }

    /// A daisy chain with `width` parallel trunks between neighbouring
    /// switches: same paths as [`SwitchTopology::chain`], but cross-switch
    /// flows hash-spread over `width` links instead of serializing on one.
    pub fn chain_multi(hosts: usize, hosts_per_switch: usize, width: usize, ports: usize) -> Self {
        assert!(hosts >= 1 && hosts_per_switch >= 1 && width >= 1);
        let host_switch = (0..hosts).map(|h| h / hosts_per_switch).collect();
        let nswitches = hosts.div_ceil(hosts_per_switch);
        let trunks = (0..nswitches.saturating_sub(1))
            .flat_map(|s| std::iter::repeat_n((s, s + 1), width))
            .collect();
        Self::custom(host_switch, trunks, ports)
    }

    /// A two-level fat tree: hosts hang off leaf switches
    /// (`hosts_per_leaf` each), and every leaf trunks to every one of
    /// `spines` spine switches. Any cross-leaf path is exactly two trunk
    /// hops with `spines` equal-cost choices, so flows spread across the
    /// whole spine layer. Shortest-path routing here is up/down and
    /// therefore deadlock-free under backpressure.
    ///
    /// # Panics
    /// If a leaf (`hosts_per_leaf + spines` ports) or a spine (one port
    /// per leaf) exceeds `ports`.
    pub fn fat_tree(hosts: usize, hosts_per_leaf: usize, spines: usize, ports: usize) -> Self {
        assert!(hosts >= 1 && hosts_per_leaf >= 1 && spines >= 1);
        let leaves = hosts.div_ceil(hosts_per_leaf);
        let host_switch: Vec<usize> = (0..hosts).map(|h| h / hosts_per_leaf).collect();
        if leaves == 1 {
            // Degenerate fat tree: one leaf, no need for a spine layer.
            return Self::custom(host_switch, Vec::new(), ports);
        }
        let trunks = (0..leaves)
            .flat_map(|l| (0..spines).map(move |sp| (l, leaves + sp)))
            .collect();
        Self::custom(host_switch, trunks, ports)
    }

    /// The smallest standard tree topology for `n` hosts: one 8-port
    /// switch while they fit, a chain of 8-port switches (6 hosts each)
    /// beyond — the shapes 1995-era parts were actually cabled into.
    pub fn for_cluster(n: usize) -> Self {
        if n <= 8 {
            Self::single(n, 8)
        } else {
            Self::chain(n, 6, 8)
        }
    }

    /// The multi-path counterpart of [`SwitchTopology::for_cluster`]: one
    /// switch while the hosts fit, a two-level fat tree (6 hosts per
    /// leaf, 4 spines) beyond. Spine switches need one port per leaf, so
    /// the part width grows with the cluster instead of pinning at 8 —
    /// the price of keeping every cross-leaf path two hops.
    pub fn for_cluster_wide(n: usize) -> Self {
        if n <= 8 {
            return Self::single(n, 8);
        }
        const PER_LEAF: usize = 6;
        const SPINES: usize = 4;
        let leaves = n.div_ceil(PER_LEAF);
        let ports = leaves.max(PER_LEAF + SPINES).max(8);
        Self::fat_tree(n, PER_LEAF, SPINES, ports)
    }

    pub fn hosts(&self) -> usize {
        self.host_switch.len()
    }

    pub fn switches(&self) -> usize {
        self.links.len()
    }

    pub fn ports(&self) -> usize {
        self.ports
    }

    /// The trunk list, as given to the constructor (parallel trunks are
    /// distinct entries).
    pub fn trunks(&self) -> &[(usize, usize)] {
        &self.trunks
    }

    /// True when the switch graph is a tree with no parallel trunks — the
    /// restriction older versions of this type enforced.
    pub fn is_tree(&self) -> bool {
        self.trunks.len() + 1 == self.switches()
    }

    /// Which switch a host hangs off.
    pub fn switch_of(&self, host: NodeId) -> usize {
        self.host_switch[host.index()]
    }

    /// Hosts attached to a switch, in node order.
    pub fn hosts_on(&self, switch: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.host_switch
            .iter()
            .enumerate()
            .filter(move |&(_, &s)| s == switch)
            .map(|(h, _)| NodeId(h as u16))
    }

    /// Incident trunks of a switch, parallel trunks as separate entries.
    /// Positions into this slice are what [`SwitchTopology::route_choices`]
    /// and [`SwitchTopology::flow_link`] return.
    pub fn links_of(&self, switch: usize) -> &[TrunkLink] {
        &self.links[switch]
    }

    /// Switches adjacent to `switch`, deduplicated.
    pub fn neighbors_of(&self, switch: usize) -> &[usize] {
        &self.neighbors[switch]
    }

    /// Every link of `from` on a shortest path toward `to_switch` — the
    /// ECMP candidate set, as positions into
    /// [`SwitchTopology::links_of`]`(from)`. Empty iff `from == to_switch`.
    pub fn route_choices(&self, from: usize, to_switch: usize) -> &[usize] {
        &self.route[from][to_switch]
    }

    /// Deterministic per-flow spread: a 64-bit splitmix of the (src, dst)
    /// host pair. Every frame of a flow hashes identically, so the trunk
    /// choice — and therefore the path — is stable for the flow's
    /// lifetime.
    pub fn flow_hash(src: NodeId, dst: NodeId) -> u64 {
        let mut z = ((src.0 as u64) << 16 | dst.0 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fold a flow hash down to one of `nchoices` equal-cost candidates
    /// at switch `from`. The switch index is rotated in so a flow's
    /// choices at successive hops decorrelate. Exposed so the live
    /// forwarding path (`fm-core`'s switch shards) makes exactly the
    /// same pick from its precomputed candidate tables as
    /// [`SwitchTopology::flow_link`] predicts.
    pub fn spread(from: usize, hash: u64, nchoices: usize) -> usize {
        debug_assert!(nchoices >= 1);
        let h = hash.rotate_left((from as u32).wrapping_mul(17) & 63);
        (h % nchoices as u64) as usize
    }

    /// The link (position into [`SwitchTopology::links_of`]`(from)`) the
    /// flow `src → dst` leaves `from` through on its way to `to_switch`.
    /// Stable per flow; different flows spread across the candidate set.
    ///
    /// # Panics
    /// If `from == to_switch` (there is nothing to route).
    pub fn flow_link(&self, from: usize, to_switch: usize, src: NodeId, dst: NodeId) -> usize {
        let choices = self.route_choices(from, to_switch);
        assert!(
            !choices.is_empty(),
            "no route from switch {from} to {to_switch}"
        );
        choices[Self::spread(from, Self::flow_hash(src, dst), choices.len())]
    }

    /// The switch the *first* candidate link from `from` toward
    /// `to_switch` lands on (`from` itself if equal). With multiple
    /// equal-cost paths this is one representative, not the only hop —
    /// use [`SwitchTopology::route_choices`] for the full set.
    pub fn next_hop(&self, from: usize, to_switch: usize) -> usize {
        if from == to_switch {
            return from;
        }
        self.links[from][self.route[from][to_switch][0]].peer
    }

    /// Switch traversals on a shortest path between two hosts (1 when
    /// they share a switch, matching [`crate::chain::ChainNetwork::hops`]).
    /// Every ECMP path has the same length, so this is flow-independent.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        self.dist[self.switch_of(src)][self.switch_of(dst)] + 1
    }

    /// BFS spanning tree of the switch graph rooted at `root_switch`:
    /// `parents[s]` is `s`'s parent switch (`None` exactly at the root).
    /// Deterministic — neighbours are visited in index order — so every
    /// host that computes the tree for the same root gets the same shape.
    /// This is the skeleton collective layers hang their fan-in/fan-out
    /// on: each tree edge is one trunk hop, so a payload forwarded only
    /// along tree edges crosses every trunk at most once in each
    /// direction.
    ///
    /// # Panics
    /// If `root_switch` is out of range.
    pub fn spanning_parents(&self, root_switch: usize) -> Vec<Option<usize>> {
        assert!(
            root_switch < self.switches(),
            "switch {root_switch} out of range"
        );
        let mut parents = vec![None; self.switches()];
        let mut seen = vec![false; self.switches()];
        seen[root_switch] = true;
        let mut queue = std::collections::VecDeque::from([root_switch]);
        while let Some(s) = queue.pop_front() {
            for &nb in &self.neighbors[s] {
                if !seen[nb] {
                    seen[nb] = true;
                    parents[nb] = Some(s);
                    queue.push_back(nb);
                }
            }
        }
        // `custom` already rejected disconnected graphs.
        debug_assert!(seen.iter().all(|&v| v));
        parents
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_switch_routes_locally() {
        let t = SwitchTopology::single(8, 8);
        assert_eq!(t.switches(), 1);
        assert_eq!(t.hops(NodeId(0), NodeId(7)), 1);
        assert_eq!(t.next_hop(0, 0), 0);
        assert_eq!(t.hosts_on(0).count(), 8);
        assert!(t.is_tree());
    }

    #[test]
    fn chain_matches_chain_network_hops() {
        let t = SwitchTopology::chain(12, 4, 8);
        let net = crate::chain::ChainNetwork::new(12, 4, 8);
        for s in 0..12u16 {
            for d in 0..12u16 {
                if s == d {
                    continue;
                }
                assert_eq!(
                    t.hops(NodeId(s), NodeId(d)),
                    net.hops(NodeId(s), NodeId(d)),
                    "hops({s},{d})"
                );
            }
        }
    }

    #[test]
    fn chain_next_hop_walks_toward_destination() {
        let t = SwitchTopology::chain(18, 6, 8);
        assert_eq!(t.switches(), 3);
        assert_eq!(t.next_hop(0, 2), 1);
        assert_eq!(t.next_hop(1, 2), 2);
        assert_eq!(t.next_hop(2, 0), 1);
    }

    #[test]
    fn custom_star_routes_through_hub() {
        // Switch 0 is a hub with one host; leaves 1..=3 hold the rest.
        let t = SwitchTopology::custom(vec![0, 1, 1, 2, 2, 3, 3], vec![(0, 1), (0, 2), (0, 3)], 8);
        assert_eq!(t.next_hop(1, 3), 0);
        assert_eq!(t.next_hop(0, 3), 3);
        assert_eq!(t.hops(NodeId(1), NodeId(5)), 3);
        assert_eq!(t.hops(NodeId(1), NodeId(2)), 1);
    }

    #[test]
    fn for_cluster_picks_standard_shapes() {
        assert_eq!(SwitchTopology::for_cluster(8).switches(), 1);
        let big = SwitchTopology::for_cluster(64);
        assert_eq!(big.switches(), 11);
        assert_eq!(big.ports(), 8);
        assert!(big.is_tree());
    }

    #[test]
    fn for_cluster_wide_spreads_cross_leaf_flows() {
        assert_eq!(SwitchTopology::for_cluster_wide(8).switches(), 1);
        let big = SwitchTopology::for_cluster_wide(64);
        assert!(!big.is_tree());
        // 11 leaves + 4 spines; any cross-leaf pair has 4 choices.
        assert_eq!(big.switches(), 15);
        assert_eq!(big.route_choices(0, 1).len(), 4);
        assert_eq!(big.hops(NodeId(0), NodeId(63)), 3);
    }

    #[test]
    #[should_panic(expected = "ports")]
    fn over_subscribed_switch_rejected() {
        SwitchTopology::single(9, 8);
    }

    #[test]
    #[should_panic(expected = "trunks")]
    fn disconnected_forest_rejected() {
        SwitchTopology::custom(vec![0, 1], Vec::new(), 8);
    }

    #[test]
    #[should_panic(expected = "connect")]
    fn disconnected_cycle_rejected() {
        // 4 switches; a 3-cycle among 0..=2 leaves switch 3 adrift.
        SwitchTopology::custom(vec![0, 1, 2, 3], vec![(0, 1), (1, 2), (2, 0)], 8);
    }

    #[test]
    fn parallel_trunks_are_distinct_route_choices() {
        let t = SwitchTopology::chain_multi(4, 2, 3, 8);
        assert_eq!(t.switches(), 2);
        assert_eq!(t.trunks().len(), 3);
        assert!(!t.is_tree());
        assert_eq!(t.links_of(0).len(), 3);
        assert_eq!(t.route_choices(0, 1).len(), 3);
        // All three parallel links land on the same peer.
        for &pos in t.route_choices(0, 1) {
            assert_eq!(t.links_of(0)[pos].peer, 1);
        }
        assert_eq!(t.hops(NodeId(0), NodeId(3)), 2);
    }

    #[test]
    fn fat_tree_routes_two_hops_over_every_spine() {
        let t = SwitchTopology::fat_tree(12, 3, 2, 8);
        // 4 leaves + 2 spines.
        assert_eq!(t.switches(), 6);
        assert_eq!(t.hops(NodeId(0), NodeId(11)), 3);
        assert_eq!(t.route_choices(0, 3).len(), 2);
        // Spine→leaf is a single down-link.
        assert_eq!(t.route_choices(4, 2).len(), 1);
    }

    #[test]
    fn flow_link_is_stable_and_spreads() {
        let t = SwitchTopology::fat_tree(24, 3, 4, 8);
        let mut used = std::collections::HashSet::new();
        for src in 0..3u16 {
            for dst in 21..24u16 {
                let a = t.flow_link(0, 7, NodeId(src), NodeId(dst));
                let b = t.flow_link(0, 7, NodeId(src), NodeId(dst));
                assert_eq!(a, b, "flow ({src},{dst}) choice must be stable");
                used.insert(a);
            }
        }
        assert!(
            used.len() > 1,
            "9 flows over 4 spines must spread: {used:?}"
        );
    }

    #[test]
    fn spanning_parents_cover_chain_and_fat_tree() {
        // Chain of 3 switches rooted in the middle: both ends point in.
        let chain = SwitchTopology::chain(18, 6, 8);
        assert_eq!(chain.spanning_parents(1), vec![Some(1), None, Some(1)]);
        // Fat tree: every leaf reaches the root leaf through one spine,
        // and every switch except the root has a parent.
        let ft = SwitchTopology::fat_tree(12, 3, 2, 8);
        let parents = ft.spanning_parents(0);
        assert_eq!(parents[0], None);
        for (s, p) in parents.iter().enumerate().skip(1) {
            let p = p.expect("connected");
            assert!(ft.neighbors_of(s).contains(&p), "parent must be adjacent");
        }
        // Walking up from any switch terminates at the root.
        for start in 0..ft.switches() {
            let mut s = start;
            let mut hops = 0;
            while let Some(p) = parents[s] {
                s = p;
                hops += 1;
                assert!(hops <= ft.switches(), "parent chain must not cycle");
            }
            assert_eq!(s, 0);
        }
    }

    #[test]
    fn flow_hash_spreads_and_separates_directions() {
        let h1 = SwitchTopology::flow_hash(NodeId(1), NodeId(2));
        let h2 = SwitchTopology::flow_hash(NodeId(2), NodeId(1));
        assert_ne!(h1, h2, "a flow and its return path are distinct flows");
    }
}
