//! LANai control program (LCP) instruction budgets.
//!
//! The paper's Figure 2 gives pseudocode for two main-loop organizations:
//!
//! * **baseline** — the straightforward loop: every iteration re-checks the
//!   send condition (`hostsent != lanaisent` *and* channel free) and the
//!   receive condition, sends at most one packet and receives at most one
//!   packet, then loops;
//! * **streamed** — consolidates the checks and turns each arm into an inner
//!   `while`, so a burst of sends (or receives) pays the condition checks
//!   and loop overhead once per *burst boundary* rather than once per
//!   packet.
//!
//! We charge each step of those programs an instruction count. The counts
//! are not arbitrary: each constant is anchored to a Table-4 row (see the
//! field docs), and `fm-testbed`'s calibration tests assert that the
//! simulated t0 / n_1/2 land near the paper's values.
//!
//! A key structural point (Section 4.2): even the streamed LCP *blocks*
//! on its DMA operations — the pseudocode's "send packet" / "receive
//! packet" are sequential steps of a sequential program. The streaming win
//! comes from skipping redundant checks, not from overlap. This is why the
//! measured latency slope in Figure 3(a) is roughly twice the Appendix-A
//! model's 12.5 ns/B (the receive DMA is armed only after the packet is
//! detected) and why both curves sit well above "theoretical peak".

/// Which main-loop organization the LCP uses (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LcpVariant {
    /// Figure 2(a): re-check everything every iteration.
    Baseline,
    /// Figure 2(b): consolidated checks, streaming inner loops.
    Streamed,
}

/// Instruction budgets for one LCP configuration.
///
/// All counts are in LANai instructions (160 ns each, see
/// [`crate::consts::INSTR`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LcpCosts {
    pub variant: LcpVariant,
    /// Send path on an isolated packet: detect `hostsent != lanaisent`,
    /// compute the buffer address, program the outgoing-channel DMA, bump
    /// `lanaisent`. Anchors the send-side share of Table 4's t0 (4.2 µs
    /// baseline / 3.5 µs streamed, split with `recv_path`).
    pub send_path: u64,
    /// Receive path on an isolated packet: detect a packet on the receive
    /// channel, program the incoming-channel DMA, post-process.
    pub recv_path: u64,
    /// Extra instructions per packet when the loop immediately continues
    /// with more work (ring-pointer wrap checks, DMA-completion polling,
    /// and — for baseline — the redundant other-direction checks that the
    /// streamed loop hoists out). Charged only in back-to-back operation,
    /// which is why it moves n_1/2 (315 B baseline vs 249 B streamed,
    /// Table 4) but not the single-packet latency t0.
    pub stream_extra: u64,
    /// Programming the host DMA engine to deliver received packets into the
    /// host receive queue (host-coupled layers only; zero in the Figure-3
    /// LANai-only experiments).
    pub host_dma_path: u64,
    /// Per-*burst* cost of the host-delivery DMA when buffer management
    /// aggregates several received packets into a single transfer
    /// (Section 4.4: "packets to be aggregated and transferred with a
    /// single DMA operation").
    pub host_dma_per_burst: u64,
    /// Extra per-packet queue bookkeeping when FM's four-queue buffer
    /// management is enabled (Table 4: n_1/2 44 -> 53 B costs ~2
    /// instructions on the receive bottleneck).
    pub buffer_mgmt: u64,
    /// The simulated `switch()` packet-interpretation cost added to the
    /// streaming receive loop in Section 4.4's third experiment. 19
    /// instructions = 3.0 µs, reproducing Table 4's t0 jump from 3.8 µs to
    /// 6.8 µs and n_1/2 from 53 B to 127 B.
    pub interp_switch: u64,
}

impl LcpCosts {
    /// Figure 2(a) baseline loop. Calibration: t0 = 4.2 µs, n_1/2 = 315 B
    /// (Table 4 row 1).
    pub const fn baseline() -> Self {
        LcpCosts {
            variant: LcpVariant::Baseline,
            send_path: 9,
            recv_path: 10,
            stream_extra: 12,
            host_dma_path: 0,
            host_dma_per_burst: 0,
            buffer_mgmt: 0,
            interp_switch: 0,
        }
    }

    /// Figure 2(b) streamed loop. Calibration: t0 = 3.5 µs, n_1/2 = 249 B
    /// (Table 4 row 2). All host-coupled layers build on this one.
    pub const fn streamed() -> Self {
        LcpCosts {
            variant: LcpVariant::Streamed,
            send_path: 7,
            recv_path: 7,
            stream_extra: 10,
            host_dma_path: 0,
            host_dma_per_burst: 0,
            buffer_mgmt: 0,
            interp_switch: 0,
        }
    }

    /// Enable host delivery (Figures 4+): the LCP programs the host DMA
    /// engine after each receive (or each aggregated burst).
    pub const fn with_host_delivery(mut self) -> Self {
        self.host_dma_path = 3;
        self.host_dma_per_burst = 2;
        self
    }

    /// Enable FM's four-queue buffer management (Figure 7, second curve).
    pub const fn with_buffer_mgmt(mut self) -> Self {
        self.buffer_mgmt = 2;
        self
    }

    /// Add the simulated `switch()` interpretation (Figure 7, third curve).
    pub const fn with_switch_interp(mut self) -> Self {
        self.interp_switch = 19;
        self
    }

    /// Per-packet receive-side instructions in back-to-back streaming
    /// (the bandwidth-test bottleneck).
    pub const fn recv_stream_instr(&self) -> u64 {
        self.recv_path + self.stream_extra + self.buffer_mgmt + self.interp_switch
    }

    /// Receive-side instructions for an isolated packet (the latency
    /// path): no streaming extras, but queue bookkeeping and the simulated
    /// `switch()` interpretation are per-packet costs and apply here too.
    pub const fn recv_isolated_instr(&self) -> u64 {
        self.recv_path + self.buffer_mgmt + self.interp_switch
    }

    /// Per-packet send-side instructions in back-to-back streaming.
    pub const fn send_stream_instr(&self) -> u64 {
        self.send_path + self.stream_extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{instr, DMA_SETUP};
    use fm_des::Duration;
    use fm_myrinet::consts::{wire_time, SWITCH_LATENCY};

    /// Closed-form one-way latency of the LANai-only layer for packet size
    /// `n` (the Figure-3 configuration): sender path + outgoing DMA +
    /// switch + receiver path + incoming DMA.
    fn one_way(c: &LcpCosts, n: usize) -> Duration {
        instr(c.send_path)
            + DMA_SETUP
            + wire_time(n)
            + SWITCH_LATENCY
            + instr(c.recv_path)
            + DMA_SETUP
            + wire_time(n)
    }

    /// Closed-form streaming per-packet time (receive side, the
    /// bottleneck).
    fn per_packet_stream(c: &LcpCosts, n: usize) -> Duration {
        instr(c.recv_stream_instr()) + DMA_SETUP + wire_time(n)
    }

    #[test]
    fn baseline_t0_near_4_2us() {
        let t0 = one_way(&LcpCosts::baseline(), 0);
        let us = t0.as_us_f64();
        assert!((3.9..4.5).contains(&us), "baseline t0 = {us} us");
    }

    #[test]
    fn streamed_t0_near_3_5us() {
        let t0 = one_way(&LcpCosts::streamed(), 0);
        let us = t0.as_us_f64();
        assert!((3.2..3.8).contains(&us), "streamed t0 = {us} us");
    }

    #[test]
    fn n_half_ordering_and_magnitude() {
        // n_1/2 = fixed-cost / 12.5 ns per byte in the serial model.
        let nb = per_packet_stream(&LcpCosts::baseline(), 0).as_ns_f64() / 12.5;
        let ns = per_packet_stream(&LcpCosts::streamed(), 0).as_ns_f64() / 12.5;
        assert!(ns < nb, "streamed must have smaller n_1/2");
        assert!(
            (260.0..360.0).contains(&nb),
            "baseline n_1/2 ~ 315 B, got {nb}"
        );
        assert!(
            (200.0..290.0).contains(&ns),
            "streamed n_1/2 ~ 249 B, got {ns}"
        );
    }

    #[test]
    fn switch_interp_adds_3us() {
        let plain = LcpCosts::streamed().with_host_delivery().with_buffer_mgmt();
        let interp = plain.with_switch_interp();
        let delta = instr(interp.interp_switch);
        assert_eq!(delta, Duration::from_ns(19 * 160));
        assert!((2.9..3.2).contains(&delta.as_us_f64()));
        assert_eq!(interp.recv_stream_instr() - plain.recv_stream_instr(), 19);
    }

    #[test]
    fn builders_compose() {
        let c = LcpCosts::streamed()
            .with_host_delivery()
            .with_buffer_mgmt()
            .with_switch_interp();
        assert_eq!(c.variant, LcpVariant::Streamed);
        assert!(c.host_dma_path > 0);
        assert!(c.buffer_mgmt > 0);
        assert!(c.interp_switch > 0);
        // Baseline remains untouched by the builder pattern.
        assert_eq!(LcpCosts::baseline().host_dma_path, 0);
    }
}
