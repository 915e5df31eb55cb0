//! # fm-repro — Illinois Fast Messages (FM) 1.0 for Myrinet, reproduced
//!
//! This workspace facade re-exports every crate of the reproduction of
//! *"High Performance Messaging on Workstations: Illinois Fast Messages (FM)
//! for Myrinet"* (Pakin, Lauria, Chien — SC '95).
//!
//! The paper's 1995 hardware (SPARCstations, SBus Myrinet NICs, the LANai 2.3
//! network coprocessor) is unobtainable, so the hardware substrate is a
//! deterministic discrete-event simulation calibrated with the constants the
//! paper itself reports (Appendix A and Section 2). The FM messaging layer on
//! top of it is a real, usable library: the same protocol state machines that
//! run inside the simulator also run across OS threads over an in-memory
//! fabric ([`fm_core::mem::MemCluster`]).
//!
//! Start with [`fm_core`] for the messaging API, [`fm_testbed`] to run the
//! simulated cluster, and `fm-bench`'s `repro` binary (`repro all`) to
//! regenerate every figure and table of the paper's evaluation.

pub use fm_core;
pub use fm_des;
pub use fm_lanai;
pub use fm_metrics;
pub use fm_mpi;
pub use fm_myrinet;
pub use fm_myrinet_api;
pub use fm_sbus;
pub use fm_telemetry;
pub use fm_testbed;

/// Convenience prelude for examples and downstream users.
pub mod prelude {
    pub use fm_core::{
        mem::{MemCluster, MemEndpoint},
        Handler, HandlerId, HandlerRegistry, NodeId, FM_FRAME_PAYLOAD,
    };
    pub use fm_testbed::{Layer, TestbedConfig};
}
