//! Shared fixtures for the engine's unit tests (`send.rs`, `recv.rs`,
//! `recovery.rs`): endpoint pairs and zero-latency wires between them.

use super::*;
pub use crate::frame::{FrameKind, WireFrame};

pub fn pair() -> (EndpointCore, EndpointCore) {
    (
        EndpointCore::new(NodeId(0), EndpointConfig::default()),
        EndpointCore::new(NodeId(1), EndpointConfig::default()),
    )
}

/// Move `from`'s queued frames to `to`, losing those `lose` picks.
pub fn carry(
    from: &mut EndpointCore,
    to: &mut EndpointCore,
    mut lose: impl FnMut(&WireFrame) -> bool,
) -> bool {
    let mut moved = false;
    while let Some(f) = from.pop_outgoing() {
        moved = true;
        if !lose(&f) {
            to.on_wire(f);
        }
    }
    moved
}

/// Move every queued frame from `a` to `b` and vice versa until both
/// wires are empty (a zero-latency lossless network).
pub fn pump(a: &mut EndpointCore, b: &mut EndpointCore) {
    while carry(a, b, |_| false) | carry(b, a, |_| false) {}
}

/// A sender/receiver pair with a sink handler on the receiver.
pub fn stream_pair(cfg: EndpointConfig) -> (EndpointCore, EndpointCore, HandlerId) {
    let a = EndpointCore::new(NodeId(0), cfg);
    let mut b = EndpointCore::new(NodeId(1), cfg);
    let hid = b.register_handler(Box::new(|_, _, _| {}));
    (a, b, hid)
}

pub fn send_n(a: &mut EndpointCore, hid: HandlerId, n: usize) {
    for _ in 0..n {
        a.try_send(NodeId(1), hid, [0u8; 8]).unwrap();
    }
}

pub fn is_data(f: &WireFrame, seq: u32) -> bool {
    f.head.kind == FrameKind::Data && f.head.seq == seq
}
