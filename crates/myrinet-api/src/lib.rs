//! # fm-myrinet-api — the commercial baseline (Myrinet API 2.0)
//!
//! The paper's only available comparison point is Myricom's own messaging
//! layer (Section 4.6), shipped with the March-1995 Myrinet distribution.
//! Its *features* are richer than FM's (Table 3) and each one costs LCP
//! cycles or host/LANai synchronization:
//!
//! | feature | Myrinet API 2.0 | cost modeled here |
//! |---|---|---|
//! | data movement | user space, DMA region, scatter-gather | staging copies + descriptor handshakes |
//! | delivery | *not* guaranteed | no acks (sender recycles buffers locally) |
//! | delivery order | preserved | strictly synchronous command pipeline |
//! | reconfiguration | automatic, continuous | a long feature-laden LCP control loop |
//! | buffering | small number of large buffers | one outstanding send; pointer-return handshakes |
//! | fault detection | message checksums | per-byte host checksum |
//!
//! The model is calibrated to the paper's headline comparison: t0 around
//! 105 µs (`myri_cmd_send_imm`) / 121 µs (`myri_cmd_send`) versus FM's
//! 4.1 µs, and a half-power point three-plus kilobytes versus FM's 54 B —
//! the "two orders of magnitude" the paper's abstract leads with. We do
//! not chase Myricom's exact microsecond internals (the binary is long
//! gone); we charge its *feature list* at the same hardware rates as FM
//! and let the gap emerge.

pub mod consts;
pub mod model;

pub use model::{
    api_bandwidth_sweep, api_latency_sweep, run_api_pingpong, run_api_stream, ApiVariant,
};
