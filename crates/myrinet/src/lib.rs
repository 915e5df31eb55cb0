//! # fm-myrinet — the Myrinet network substrate
//!
//! Models the network hardware of the paper's testbed: byte-wide parallel
//! copper links at 76.3 MB/s and an 8-port cut-through (wormhole) switch with
//! 550 ns routing latency. The constants come from the paper's Section 2 and
//! Appendix A; [`analytic`] implements Appendix A's closed forms, which the
//! figures plot as "theoretical peak".
//!
//! The network is a *timing and occupancy calculator*, not an event source:
//! the testbed asks "if node `s` starts streaming an `N`-byte packet onto its
//! link at time `t`, when does the tail arrive at node `d`?" and schedules
//! the delivery event itself. Output-port occupancy serializes packets that
//! contend for the same destination (a virtual-cut-through approximation of
//! wormhole blocking, adequate for the paper's two-node experiments and
//! stress-tested in `tests/`).
//!
//! [`topology`] is the other half: the static routing structure (switches,
//! trunks, ECMP route tables) that `fm-core`'s switched runtime forwards
//! real frames over, from the live benches up to the 4 096-endpoint scale
//! campaign.

pub mod analytic;
pub mod chain;
pub mod consts;
pub mod network;
pub mod packet;
pub mod switch;
pub mod topology;

pub use chain::ChainNetwork;
pub use consts::*;
pub use network::{DeliveredPacket, Network, NetworkConfig};
pub use packet::{NodeId, Packet};
pub use switch::Switch;
pub use topology::{SwitchTopology, TrunkLink};

#[cfg(test)]
mod tests {
    use super::*;
    use fm_des::Time;

    /// End-to-end: a single packet between two hosts on one switch matches
    /// the Appendix-A latency model exactly.
    #[test]
    fn single_packet_matches_appendix_a() {
        let mut net = Network::new(NetworkConfig::two_hosts());
        let n = 128;
        let t0 = Time::from_ns(1_000);
        let d = net.inject(t0, NodeId(0), NodeId(1), n);
        // Appendix A: l = t_dma + N * 12.5ns + t_switch, with t_dma = 320ns
        // charged by the *sender's* DMA engine (the caller), so the network
        // itself contributes N*12.5 + 550.
        let expected = t0 + consts::wire_time(n) + consts::SWITCH_LATENCY;
        assert_eq!(d.tail_at, expected);
        assert_eq!(d.head_at, t0 + consts::SWITCH_LATENCY);
    }

    #[test]
    fn contention_serializes_on_output_port() {
        let mut net = Network::new(NetworkConfig::switched(4));
        let t = Time::from_us(1);
        let n = 100; // 1250ns of wire time
        let d1 = net.inject(t, NodeId(0), NodeId(3), n);
        let d2 = net.inject(t, NodeId(1), NodeId(3), n);
        // Second packet waits for the first to drain the shared output port.
        assert_eq!(
            d1.tail_at,
            t + consts::wire_time(n) + consts::SWITCH_LATENCY
        );
        assert!(d2.tail_at >= d1.tail_at + consts::wire_time(n));
    }

    #[test]
    fn distinct_destinations_do_not_contend() {
        let mut net = Network::new(NetworkConfig::switched(4));
        let t = Time::from_us(1);
        let d1 = net.inject(t, NodeId(0), NodeId(2), 64);
        let d2 = net.inject(t, NodeId(1), NodeId(3), 64);
        assert_eq!(d1.tail_at, d2.tail_at);
    }
}
