//! Host-side instruction budgets, anchored to the Table-4 rows they
//! reproduce.
//!
//! All counts are SuperSPARC instructions at 20 ns (see
//! `fm-sbus::consts::HOST_INSTR`). The LANai-side budgets live in
//! `fm-lanai::lcp`; this module holds only what the *host program* does.
//!
//! Calibration notes (`fm-bench`'s `repro table4` prints paper-vs-measured):
//!
//! * **hybrid** (Table 4 row 3: t0 3.5 µs, r_inf 21.2 MB/s, n_1/2 44 B) —
//!   the outbound cost is dominated by PIO double-word writes at
//!   23.9 MB/s; the host-side fixed costs below keep the small-packet
//!   stream bottleneck on the *receiving LANai* (recv path + host-delivery
//!   DMA), which is what puts n_1/2 in the 40–55 B range and matches the
//!   paper's observation that "delivering incoming packets to the host is
//!   often the critical bottleneck".
//! * **buffer management** (row 4: +0.3 µs t0, n_1/2 44→53 B) — ~15 host
//!   instructions split across send and extract, plus 2 LANai
//!   instructions.
//! * **flow control** (row 5: +0.3 µs t0, n_1/2 53→54 B) — slot
//!   reservation and ack bookkeeping; acks batch 4-to-a-frame and
//!   piggyback on reverse data, so the steady-state cost is a few
//!   instructions per packet.
//! * **all-DMA** (last FM row: t0 7.5 µs, r_inf 33 MB/s, n_1/2 162 B) —
//!   adds the staging memcpy into the pinned DMA region, a descriptor
//!   write, and a second host/LANai synchronization on the outbound path.

use fm_des::Duration;
use fm_sbus::HostCpu;

/// Host-side per-operation instruction budgets for one layer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCosts {
    /// `FM_send` fast path: argument marshalling, header build, queue-slot
    /// address computation.
    pub send_setup: u64,
    /// Reading the host receive queue's ready flag/counter (in host
    /// memory, *not* across the SBus — the LANai DMAs the counter to the
    /// host along with the data; this asymmetry is the point of the
    /// design).
    pub poll: u64,
    /// Per-frame extract work: classify the packet, locate the handler,
    /// advance the ring.
    pub extract: u64,
    /// Invoking an (empty) handler: call, arg setup, return.
    pub handler: u64,
    /// Extra send-side bookkeeping when buffer management is on.
    pub bm_send: u64,
    /// Extra extract-side bookkeeping when buffer management is on.
    pub bm_extract: u64,
    /// Flow control: reserve a reject-queue slot, stamp the sequence.
    pub fc_send: u64,
    /// Flow control: per-frame receive-side accounting.
    pub fc_extract: u64,
    /// Flow control: process one arriving ack frame (releases up to
    /// `ack_batch` slots).
    pub fc_ack_process: u64,
    /// Flow control: emit one standalone ack frame (header build; the PIO
    /// cost is charged separately).
    pub fc_ack_send: u64,
    /// all-DMA only: build the DMA descriptor after the staging copy.
    pub dma_descriptor: u64,
}

impl HostCosts {
    /// The minimal (Figure 4) host program.
    pub const fn minimal() -> Self {
        HostCosts {
            send_setup: 6,
            poll: 2,
            extract: 6,
            handler: 4,
            bm_send: 0,
            bm_extract: 0,
            fc_send: 0,
            fc_extract: 0,
            fc_ack_process: 0,
            fc_ack_send: 0,
            dma_descriptor: 8,
        }
    }

    /// Add the four-queue buffer management costs (Figure 7). The other
    /// half of the buffer-management cost is the LANai's 2 instructions
    /// (see `fm-lanai::LcpCosts::buffer_mgmt`).
    pub const fn with_buffer_mgmt(mut self) -> Self {
        self.bm_send = 4;
        self.bm_extract = 4;
        self
    }

    /// Add return-to-sender flow control costs (Figure 8).
    pub const fn with_flow_control(mut self) -> Self {
        self.fc_send = 6;
        self.fc_extract = 6;
        self.fc_ack_process = 4;
        self.fc_ack_send = 6;
        self
    }

    /// Total send-path instructions for this configuration.
    pub const fn send_instr(&self) -> u64 {
        self.send_setup + self.bm_send + self.fc_send
    }

    /// Total per-frame extract-path instructions (poll + classify +
    /// handler + options).
    pub const fn extract_instr(&self) -> u64 {
        self.poll + self.extract + self.handler + self.bm_extract + self.fc_extract
    }

    /// Send-path host time.
    pub fn send_time(&self) -> Duration {
        HostCpu::instr(self.send_instr())
    }

    /// Extract-path host time per frame.
    pub fn extract_time(&self) -> Duration {
        HostCpu::instr(self.extract_instr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_mgmt_adds_about_300ns() {
        let min = HostCosts::minimal();
        let bm = min.with_buffer_mgmt();
        let delta =
            (bm.send_instr() + bm.extract_instr()) - (min.send_instr() + min.extract_instr());
        let ns = HostCpu::instr(delta).as_ns_f64();
        // Paper: t0 3.5 -> 3.8 us when buffer management is added; the
        // host carries ~160 ns of it, the LANai the other ~320 ns.
        assert!((100.0..=250.0).contains(&ns), "bm delta {ns} ns");
    }

    #[test]
    fn flow_control_adds_about_300ns() {
        let bm = HostCosts::minimal().with_buffer_mgmt();
        let fc = bm.with_flow_control();
        let delta = (fc.send_instr() + fc.extract_instr()) - (bm.send_instr() + bm.extract_instr());
        let ns = HostCpu::instr(delta).as_ns_f64();
        // Paper: t0 3.8 -> 4.1 us when flow control is added.
        assert!((200.0..=320.0).contains(&ns), "fc delta {ns} ns");
    }

    #[test]
    fn composition_is_additive() {
        let full = HostCosts::minimal().with_buffer_mgmt().with_flow_control();
        assert_eq!(
            full.send_instr(),
            HostCosts::minimal().send_setup + full.bm_send + full.fc_send
        );
        assert!(full.extract_instr() > HostCosts::minimal().extract_instr());
    }
}
