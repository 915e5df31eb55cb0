//! # fm-core — Illinois Fast Messages (FM) 1.0
//!
//! The messaging layer the paper contributes, implemented as a real Rust
//! library. FM's interface is deliberately tiny (paper Table 1):
//!
//! | Call | Meaning |
//! |---|---|
//! | `FM_send_4(dest, handler, i0..i3)` | send a four-word message |
//! | `FM_send(dest, handler, buf, size)` | send a message of up to 32 words (128 B) |
//! | `FM_extract()` | dequeue and process received messages |
//!
//! Each message carries a **handler** — a sender-specified function id that
//! consumes the data at the destination, like Active Messages but with no
//! request/reply coupling. Message buffers do not persist past the handler's
//! return.
//!
//! Under the interface sit the paper's two protocol mechanisms:
//!
//! * **four-queue buffer management** ([`queues`]) — LANai send queue,
//!   LANai receive queue, host receive queue, host reject queue,
//!   coordinated with a pair of monotonic counters (`hostsent` /
//!   `lanaisent`) so host and coprocessor each own one counter and
//!   synchronization stays minimal (Section 4.4);
//! * **return-to-sender flow control** ([`flow`]) — senders transmit
//!   optimistically while reserving a local reject-queue slot per
//!   outstanding packet; a full receiver bounces packets back to their
//!   source, which retransmits them later. Buffering grows with a node's
//!   *outstanding* packets, not with cluster size (Section 4.5). Delivery is
//!   guaranteed, ordering is not (Table 3).
//!
//! The protocol logic is pure state machinery ([`endpoint::EndpointCore`])
//! with no I/O or clock, so the same code runs in every harness:
//!
//! * [`mem`] — a real runtime across OS threads over in-memory SPSC rings
//!   (bytes actually move, handlers actually run); this is what the examples
//!   and most tests use;
//! * [`switched`] driven in deterministic rounds — `fm-testbed`'s scale
//!   campaign runs this very engine at up to 4 096 endpoints;
//! * `fm-testbed` — the calibrated discrete-event simulation that
//!   regenerates the paper's figures, which reuses [`flow`] for its window
//!   accounting and runs [`endpoint::EndpointCore`] itself where arrival
//!   order depends on state.
//!
//! Messages larger than one frame are *not* part of FM 1.0 — the paper
//! (Section 5) prescribes segmentation and reassembly above the layer. The
//! [`seg`] module implements that prescription as a documented extension
//! used by `fm-mpi` and the examples.
//!
//! **Beyond the paper — reliability layer.** The paper's fabric (Myrinet)
//! had a bit error rate low enough to treat the wire as perfect; ours is a
//! shared-memory stand-in, so we go further and make loss, duplication and
//! corruption *first-class testable events*: every frame carries a CRC32
//! trailer ([`frame::crc32`]), receivers suppress duplicates and restore
//! order with per-source sequence windows ([`flow::SeqWindow`]), senders
//! resend a mid-stream hole as soon as later frames are acknowledged past
//! it ([`endpoint::GAP_REPAIR_ACKS`]), run exponential-backoff
//! retransmission timers over the reject queue for what nothing overtakes,
//! and declare unresponsive peers dead after a bounded retry budget
//! ([`SendError::PeerUnreachable`]), and [`fault`] injects seeded,
//! deterministic faults underneath it all to prove the machinery works.

pub mod endpoint;
pub mod fabric;
pub mod fault;
pub mod flow;
pub mod frame;
pub mod handler;
pub mod mem;
pub mod queues;
pub mod seg;
pub mod switched;
pub mod time;
pub mod udp;
mod wire;

pub use endpoint::{EndpointConfig, EndpointCore, EndpointStats, SendError};
pub use fabric::{spsc_ring, RingConsumer, RingProducer};
pub use fault::{FaultConfig, FaultEvent, FaultInjector, FaultKind, FaultStats, LinkFaults};
pub use flow::{RetransmitConfig, SeqBufferError, SeqClass, SeqWindow};
pub use frame::{
    crc32, CodecError, FrameHeader, FrameKind, FrameSlot, TraceCtx, WireFrame, FM_CRC_BYTES,
    FM_FRAME_MAX, FM_FRAME_PAYLOAD, FM_HEADER_BYTES, FM_WIRE_VERSION,
};
pub use handler::{Handler, HandlerId, HandlerRegistry, Outbox};
pub use mem::{ClusterRunner, FabricKind, MemCluster, MemEndpoint, ShutdownError};
pub use switched::{SwitchConfig, SwitchRunner, SwitchShard, SwitchStats, SwitchedCluster};
pub use time::{derive_jitter_seed, MicroClock, RttEstimator, TimeSource};
pub use udp::{
    unique_generation, Roster, RosterParseError, UdpConfig, UdpStats, DEFAULT_HELLO_INTERVAL_US,
    UDP_PROTO_VERSION,
};

// The switched runtime routes over the network crate's topology model.
pub use fm_myrinet::SwitchTopology;

// Every endpoint carries an `fm_telemetry::Telemetry` handle (see
// `EndpointCore::telemetry`); re-exported so callers can name the counter
// schema and metric enums without a separate dependency.
pub use fm_telemetry::{
    Counter as TelemetryCounter, EventKind as TraceEventKind, Metric as TelemetryMetric, Telemetry,
};

// FM addresses nodes with the same ids the network does.
pub use fm_myrinet::NodeId;

/// Words in an `FM_send_4` message.
pub const FM_SHORT_WORDS: usize = 4;

/// Maximum words in an `FM_send` message (32 words = 128 bytes, the frame
/// size the paper selects in Section 5).
pub const FM_MAX_WORDS: usize = 32;
