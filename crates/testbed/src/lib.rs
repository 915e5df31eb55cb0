//! # fm-testbed — the simulated SPARCstation/Myrinet testbed
//!
//! Composes the hardware substrates (`fm-des`, `fm-myrinet`, `fm-sbus`,
//! `fm-lanai`) into the two-workstation testbed of the paper, with FM's
//! layers (flow control included) priced by their own costs in [`sim`],
//! and runs its experiments: ping-pong latency (50 round trips, halved) and
//! streaming bandwidth (65 535 packets), exactly as Section 4.1 specifies.
//! The overload, loss and scale harnesses run `fm-core`'s `EndpointCore`
//! itself on virtual time.
//!
//! ## Simulation method
//!
//! The figure experiments are *feed-forward pipelines with computable
//! feedback* (the only feedback paths are the send-queue-full stall, the
//! flow-control window and the acknowledgement return). For these, the
//! testbed uses a **trajectory simulation**: every hardware resource (host
//! CPU, SBus, LANai processor, DMA engines, link, switch port) is a
//! busy-until timeline, and each packet's end-to-end chain is computed in
//! order. This is exact for pipelines of this shape, bit-deterministic, and
//! auditable — each time increment maps to a named constant from the paper.
//! The general event-driven engine (`fm-des::Engine`) drives the
//! protocol-dynamics experiments ([`dynamics`], [`faults`]) where arrival
//! interleaving is not statically known (rejection storms under overload,
//! a lossy wire).
//!
//! ## Beyond two nodes
//!
//! [`scaling`] and [`campaign`] run the shipped engine itself — real
//! `fm-core` switched clusters, driven in deterministic rounds — from the
//! live incast to the 4 096-endpoint scale campaign behind `bench_sim`.
//!
//! ## Layers
//!
//! [`Layer`] enumerates the messaging-layer configurations of Table 4; each
//! maps onto an LCP cost profile (`fm-lanai::LcpCosts`) plus host-side
//! budgets ([`calib::HostCosts`]).

pub mod calib;
pub mod campaign;
pub mod credit;
pub mod dynamics;
pub mod experiments;
pub mod faults;
pub mod scaling;
pub mod sim;

pub use experiments::{bandwidth_sweep, latency_sweep, BandwidthPoint, LatencyPoint};
pub use faults::{run_loss_point, run_loss_sweep, FaultPoint, FaultSweepConfig};
pub use sim::{run_pingpong, run_stream, StreamReport};

use fm_lanai::LcpCosts;

/// The messaging-layer configurations measured in the paper (Table 4 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Figure 3 "Baseline": the naive LCP main loop, LANai-to-LANai only.
    LanaiBaseline,
    /// Figure 3 "Streamed": consolidated-check LCP, LANai-to-LANai only.
    LanaiStreamed,
    /// Figure 4 "Streamed + hybrid": host PIO out, DMA in.
    Hybrid,
    /// Figure 4 "Streamed + all DMA": DMA both directions (staging copy).
    AllDma,
    /// Figure 7 "+ buffer management": the four-queue scheme.
    HybridBufMgmt,
    /// Figure 7 "+ switch()": simulated packet interpretation in the LCP.
    HybridBufMgmtSwitch,
    /// Figure 8: buffer management + return-to-sender flow control —
    /// **the complete FM 1.0 layer**.
    FullFm,
    /// Table 4 penultimate FM row: the full layer plus `switch()`.
    FullFmSwitch,
}

impl Layer {
    /// Every layer, in Table-4 order.
    pub const ALL: [Layer; 8] = [
        Layer::LanaiBaseline,
        Layer::LanaiStreamed,
        Layer::Hybrid,
        Layer::HybridBufMgmt,
        Layer::FullFm,
        Layer::HybridBufMgmtSwitch,
        Layer::FullFmSwitch,
        Layer::AllDma,
    ];

    /// Human-readable name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            Layer::LanaiBaseline => "Baseline (LANai only)",
            Layer::LanaiStreamed => "Streamed (LANai only)",
            Layer::Hybrid => "Streamed + hybrid",
            Layer::AllDma => "Streamed + all DMA",
            Layer::HybridBufMgmt => "Streamed + hybrid + buff. mgmt.",
            Layer::HybridBufMgmtSwitch => "Streamed + hybrid + buff. mgmt. + switch()",
            Layer::FullFm => "Fast Messages 1.0 (+ flow control)",
            Layer::FullFmSwitch => "FM + flow control + switch()",
        }
    }

    /// Does this layer involve the hosts at all?
    pub fn host_coupled(self) -> bool {
        !matches!(self, Layer::LanaiBaseline | Layer::LanaiStreamed)
    }

    /// Does this layer use DMA (with a staging copy) on the outbound path?
    pub fn all_dma(self) -> bool {
        matches!(self, Layer::AllDma)
    }

    /// Four-queue buffer management active?
    pub fn buffer_mgmt(self) -> bool {
        matches!(
            self,
            Layer::HybridBufMgmt | Layer::HybridBufMgmtSwitch | Layer::FullFm | Layer::FullFmSwitch
        )
    }

    /// Return-to-sender flow control active?
    pub fn flow_control(self) -> bool {
        matches!(self, Layer::FullFm | Layer::FullFmSwitch)
    }

    /// The LCP instruction profile for this layer.
    pub fn lcp(self) -> LcpCosts {
        let base = match self {
            Layer::LanaiBaseline => LcpCosts::baseline(),
            _ => LcpCosts::streamed(),
        };
        let mut c = base;
        if self.host_coupled() {
            c = c.with_host_delivery();
        }
        if self.buffer_mgmt() {
            c = c.with_buffer_mgmt();
        }
        if matches!(self, Layer::HybridBufMgmtSwitch | Layer::FullFmSwitch) {
            c = c.with_switch_interp();
        }
        c
    }
}

/// Testbed sizing parameters (queue depths etc.).
#[derive(Debug, Clone, Copy)]
pub struct TestbedConfig {
    /// LANai send queue depth, in packets.
    pub send_queue: usize,
    /// Host-delivery aggregation limit per DMA burst (buffer management
    /// batches undelivered packets into one transfer; Section 4.4).
    pub agg_max: usize,
    /// Flow-control window (reject-queue capacity), packets.
    pub window: usize,
    /// Acks per acknowledgement frame (batched; Section 4.5).
    pub ack_batch: usize,
    /// Wire bytes of a standalone ack frame.
    pub ack_bytes: usize,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            send_queue: 8,
            agg_max: 8,
            window: 16,
            ack_batch: 4,
            ack_bytes: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_predicates_consistent() {
        assert!(!Layer::LanaiBaseline.host_coupled());
        assert!(!Layer::LanaiStreamed.buffer_mgmt());
        assert!(Layer::FullFm.buffer_mgmt());
        assert!(Layer::FullFm.flow_control());
        assert!(!Layer::HybridBufMgmt.flow_control());
        assert!(Layer::AllDma.all_dma());
        assert!(!Layer::Hybrid.all_dma());
    }

    #[test]
    fn lcp_profiles_follow_layers() {
        assert_eq!(Layer::LanaiBaseline.lcp(), LcpCosts::baseline());
        assert_eq!(Layer::LanaiStreamed.lcp(), LcpCosts::streamed());
        assert!(Layer::Hybrid.lcp().host_dma_path > 0);
        assert_eq!(Layer::Hybrid.lcp().buffer_mgmt, 0);
        assert!(Layer::HybridBufMgmt.lcp().buffer_mgmt > 0);
        assert!(Layer::HybridBufMgmtSwitch.lcp().interp_switch > 0);
        assert_eq!(Layer::FullFm.lcp().interp_switch, 0);
        assert!(Layer::FullFmSwitch.lcp().interp_switch > 0);
    }

    #[test]
    fn all_layers_listed_once() {
        let mut set = std::collections::HashSet::new();
        for l in Layer::ALL {
            assert!(set.insert(l), "{l:?} duplicated");
        }
        assert_eq!(set.len(), 8);
    }
}
