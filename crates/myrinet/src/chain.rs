//! Multi-switch topologies: a chain of crossbars for clusters larger than
//! one switch's port count.
//!
//! Myrinet scaled by cascading switches (the paper's cluster used a single
//! 8-port switch; contemporary installations daisy-chained them). This
//! model attaches `hosts_per_switch` hosts to each switch and connects
//! neighbouring switches with one full-duplex link; source routing walks
//! the chain. Each switch traversal adds the cut-through latency and each
//! inter-switch hop occupies that link for the packet's wire time — so
//! traffic crossing the same link serializes, which is exactly the
//! behaviour cluster operators provisioned around.

use crate::consts::wire_time;
use crate::network::DeliveredPacket;
use crate::packet::NodeId;
use crate::switch::Switch;
use fm_des::Time;

/// A linear chain of switches.
#[derive(Debug)]
pub struct ChainNetwork {
    switches: Vec<Switch>,
    /// `links[i]` connects switch `i` and `i+1`; `[0]` = rightward
    /// direction free-at, `[1]` = leftward.
    links: Vec<[Time; 2]>,
    /// When each host's outgoing link is next free.
    host_link_free: Vec<Time>,
    hosts_per_switch: usize,
    hosts: usize,
}

impl ChainNetwork {
    /// `hosts` hosts packed `hosts_per_switch` to a switch; each switch
    /// needs `hosts_per_switch + 2` ports (hosts plus up to two chain
    /// neighbours).
    pub fn new(hosts: usize, hosts_per_switch: usize, ports_per_switch: usize) -> Self {
        assert!(hosts >= 1 && hosts_per_switch >= 1);
        assert!(
            ports_per_switch >= hosts_per_switch + 2,
            "need ports for {hosts_per_switch} hosts plus two chain neighbours"
        );
        let nswitches = hosts.div_ceil(hosts_per_switch);
        ChainNetwork {
            switches: (0..nswitches)
                .map(|_| Switch::new(ports_per_switch))
                .collect(),
            links: vec![[Time::ZERO; 2]; nswitches.saturating_sub(1)],
            host_link_free: vec![Time::ZERO; hosts],
            hosts_per_switch,
            hosts,
        }
    }

    pub fn hosts(&self) -> usize {
        self.hosts
    }

    pub fn switches(&self) -> usize {
        self.switches.len()
    }

    /// Which switch a host hangs off.
    pub fn switch_of(&self, host: NodeId) -> usize {
        host.index() / self.hosts_per_switch
    }

    /// Switch hops a packet between these hosts traverses.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        let (a, b) = (self.switch_of(src), self.switch_of(dst));
        a.abs_diff(b) + 1
    }

    /// Local port index of a host on its switch (chain neighbours use the
    /// two highest ports).
    fn host_port(&self, host: NodeId) -> usize {
        host.index() % self.hosts_per_switch
    }

    /// Inject a packet of `n` wire bytes starting at `start`.
    pub fn inject(&mut self, start: Time, src: NodeId, dst: NodeId, n: usize) -> DeliveredPacket {
        assert_ne!(src, dst, "loopback handled above the network");
        assert!(src.index() < self.hosts && dst.index() < self.hosts);
        let link_start = start.max(self.host_link_free[src.index()]);
        self.host_link_free[src.index()] = link_start + wire_time(n);

        let src_sw = self.switch_of(src);
        let dst_sw = self.switch_of(dst);
        let ports = self.switches[0].ports();
        let mut head = link_start;
        let mut sw = src_sw;
        let dst_port = self.host_port(dst);
        loop {
            if sw == dst_sw {
                // Final hop: out the destination host's port.
                let (h, t) = self.switches[sw].route(head, dst_port, n);
                return DeliveredPacket {
                    head_at: h,
                    tail_at: t,
                };
            }
            // Route toward the neighbour; chain ports are the top two:
            // ports-1 = rightward (to sw+1), ports-2 = leftward.
            let (next, out_port, dir) = if dst_sw > sw {
                (sw + 1, ports - 1, 0usize)
            } else {
                (sw - 1, ports - 2, 1usize)
            };
            let (h, _t) = self.switches[sw].route(head, out_port, n);
            // The inter-switch cable serializes whole packets per
            // direction (virtual cut-through at each switch).
            let link = &mut self.links[sw.min(next)][dir];
            let h = h.max(*link);
            *link = h + wire_time(n);
            head = h;
            sw = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::SWITCH_LATENCY;
    use fm_des::Duration;

    #[test]
    fn same_switch_matches_single_switch_cost() {
        let mut net = ChainNetwork::new(8, 4, 8);
        let d = net.inject(Time::ZERO, NodeId(0), NodeId(1), 128);
        assert_eq!(d.head_at, Time::ZERO + SWITCH_LATENCY);
        assert_eq!(d.tail_at, d.head_at + wire_time(128));
        assert_eq!(net.hops(NodeId(0), NodeId(1)), 1);
    }

    #[test]
    fn cross_switch_adds_per_hop_latency() {
        let mut net = ChainNetwork::new(12, 4, 8);
        // Host 0 (switch 0) to host 9 (switch 2): 3 switch traversals.
        assert_eq!(net.hops(NodeId(0), NodeId(9)), 3);
        let d = net.inject(Time::ZERO, NodeId(0), NodeId(9), 0);
        assert_eq!(d.head_at, Time::ZERO + SWITCH_LATENCY * 3);
    }

    #[test]
    fn direction_is_symmetric() {
        let mut a = ChainNetwork::new(12, 4, 8);
        let mut b = ChainNetwork::new(12, 4, 8);
        let d1 = a.inject(Time::ZERO, NodeId(0), NodeId(9), 64);
        let d2 = b.inject(Time::ZERO, NodeId(9), NodeId(0), 64);
        assert_eq!(
            d1.head_at.since(Time::ZERO),
            d2.head_at.since(Time::ZERO),
            "leftward and rightward routes cost the same"
        );
    }

    #[test]
    fn shared_chain_link_serializes() {
        let mut net = ChainNetwork::new(8, 4, 8);
        // Hosts 0 and 1 (switch 0) both send to switch-1 hosts: they share
        // the single inter-switch cable.
        let d1 = net.inject(Time::ZERO, NodeId(0), NodeId(4), 400);
        let d2 = net.inject(Time::ZERO, NodeId(1), NodeId(5), 400);
        assert!(
            d2.tail_at >= d1.tail_at + Duration::ZERO && d2.head_at >= d1.head_at + wire_time(400),
            "second packet queues behind the first on the chain link: {d1:?} {d2:?}"
        );
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let mut net = ChainNetwork::new(8, 4, 8);
        let d_right = net.inject(Time::ZERO, NodeId(0), NodeId(4), 400);
        let d_left = net.inject(Time::ZERO, NodeId(4), NodeId(0), 400);
        assert_eq!(
            d_right.tail_at.since(Time::ZERO),
            d_left.tail_at.since(Time::ZERO),
            "full-duplex cable: directions independent"
        );
    }

    #[test]
    #[should_panic(expected = "ports")]
    fn too_few_ports_rejected() {
        ChainNetwork::new(8, 7, 8);
    }
}
