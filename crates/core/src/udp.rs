//! Real-socket UDP transport: the lossy wire the reliability layer was
//! built for.
//!
//! Every in-memory fabric delivers frames perfectly (loss exists only when
//! the [`crate::fault`] injector manufactures it), and the virtual tick
//! clock advances exactly once per `extract`. A UDP socket breaks both
//! assumptions at once: datagrams really can vanish, arrive reordered, or
//! land while the process is descheduled. This module supplies the pieces
//! the endpoint needs to survive that:
//!
//! * a [`Roster`] mapping node ids to socket addresses (static file-style
//!   text first; live addresses are also learned from handshakes);
//! * a hello/hello-ack handshake carrying a protocol **version** and a
//!   per-incarnation **generation**, so a peer that restarted (new
//!   process, fresh sequence space) is *detected* rather than wedging the
//!   stream — the link reports the change and the endpoint calls
//!   [`crate::endpoint::EndpointCore::reset_peer`];
//! * [`UdpLink`], the wiring object `MemEndpoint` drives: nonblocking
//!   sends of already-encoded frames, a drain-until-`WouldBlock` receive
//!   pump, and handshake pacing on its own wall microsecond clock.
//!
//! Control datagrams are distinguished from wire frames by their first
//! byte: every frame starts `0xF0 | version` (`0xF2`) and control
//! packets start with [`CTRL_MAGIC`] (`0xE7`). A control
//! packet carries its own CRC32; a corrupted one is dropped and the
//! periodic hello retry recovers the exchange.
//!
//! The seeded [`crate::fault::FaultInjector`] composes over this fabric
//! unchanged — it decorates the transmit path *above* the socket, so a
//! loopback soak still sees deterministic drop/dup/corrupt/delay even
//! though the kernel's loopback queue is, in practice, reliable.

use fm_myrinet::NodeId;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::frame::crc32;
use crate::time::MicroClock;

/// Version byte carried in every control datagram. Peers speaking a
/// different version are counted and ignored — a mixed-version cluster
/// fails visibly (no establishment) instead of corrupting streams.
pub const UDP_PROTO_VERSION: u8 = 1;

/// First byte of every control datagram. Chosen not to collide with the
/// frame version marker (`0xF0 | v`).
const CTRL_MAGIC: u8 = 0xE7;

/// Control datagrams are fixed-size: magic, version, kind, reserved,
/// node id (u16 LE), reserved (2), generation (u32 LE), CRC32 (u32 LE).
const CTRL_LEN: usize = 16;

const CTRL_HELLO: u8 = 0;
const CTRL_HELLO_ACK: u8 = 1;

/// Receive buffer size — comfortably above [`crate::frame::FM_FRAME_MAX`]
/// (164 B) so an oversized datagram is read whole and rejected by the
/// decoder instead of truncated into a plausible prefix.
const RECV_BUF: usize = 2048;

/// How often an unestablished peer is re-helloed, in microseconds.
pub const DEFAULT_HELLO_INTERVAL_US: u64 = 20_000;

/// Map node ids to socket addresses. The static half of discovery: every
/// process of a cluster is handed the same roster (a file, a command
/// line, a parent process's stdin), and the hello exchange then confirms
/// liveness, version and generation on top.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Roster {
    addrs: Vec<Option<SocketAddr>>,
}

/// A line the roster text parser could not digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RosterParseError {
    /// 1-based line number.
    pub line: usize,
    pub reason: String,
}

impl std::fmt::Display for RosterParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "roster line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for RosterParseError {}

impl Roster {
    /// An empty roster for a cluster of `n` nodes.
    pub fn new(n: usize) -> Self {
        Roster {
            addrs: vec![None; n],
        }
    }

    /// Record (or overwrite) `node`'s address, growing the roster if it
    /// names a node past the current size.
    pub fn set(&mut self, node: NodeId, addr: SocketAddr) {
        let idx = node.index();
        if idx >= self.addrs.len() {
            self.addrs.resize(idx + 1, None);
        }
        self.addrs[idx] = Some(addr);
    }

    pub fn get(&self, node: NodeId) -> Option<SocketAddr> {
        self.addrs.get(node.index()).copied().flatten()
    }

    /// Cluster size (node ids run `0..len`), including unfilled entries.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Parse the file format: one `<node-id> <addr:port>` pair per line,
    /// blank lines and `#` comments ignored.
    ///
    /// ```text
    /// # two-node loopback pair
    /// 0 127.0.0.1:9000
    /// 1 127.0.0.1:9001
    /// ```
    pub fn parse(text: &str) -> Result<Roster, RosterParseError> {
        let mut roster = Roster::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |reason: String| RosterParseError {
                line: i + 1,
                reason,
            };
            let mut parts = line.split_whitespace();
            let (Some(id), Some(addr), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(err(format!("expected `<id> <addr:port>`, got {raw:?}")));
            };
            let id: u16 = id
                .parse()
                .map_err(|e| err(format!("bad node id {id:?}: {e}")))?;
            let addr: SocketAddr = addr
                .parse()
                .map_err(|e| err(format!("bad address {addr:?}: {e}")))?;
            roster.set(NodeId(id), addr);
        }
        Ok(roster)
    }

    /// Serialize back to the [`Roster::parse`] format (unfilled entries
    /// are omitted).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (i, addr) in self.addrs.iter().enumerate() {
            if let Some(addr) = addr {
                out.push_str(&format!("{i} {addr}\n"));
            }
        }
        out
    }
}

/// A generation value unique enough for one cluster's lifetime: wall
/// time, process id and a process-local counter mixed together. Two
/// incarnations of the same node id getting the same generation is the
/// only failure mode (restart would go undetected), so all three inputs
/// have to collide at once.
pub fn unique_generation() -> u32 {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let micros = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u32)
        .unwrap_or(0);
    micros
        ^ std::process::id().rotate_left(16)
        ^ COUNTER
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9E37_79B9)
}

/// Everything needed to stand one endpoint up on a UDP socket.
#[derive(Debug, Clone)]
pub struct UdpConfig {
    /// Local bind address (`127.0.0.1:0` picks an ephemeral port; read it
    /// back with `MemEndpoint::udp_local_addr`).
    pub bind: SocketAddr,
    /// Peer addresses; its length is the cluster size. The entry for the
    /// local node is allowed to be absent or stale — the socket binds to
    /// `bind`, not to the roster.
    pub roster: Roster,
    /// This incarnation's generation (default: [`unique_generation`]).
    pub generation: u32,
    /// Hello retry pacing toward unestablished peers, in microseconds.
    pub hello_interval_us: u64,
}

impl UdpConfig {
    pub fn new(bind: SocketAddr, roster: Roster) -> Self {
        UdpConfig {
            bind,
            roster,
            generation: unique_generation(),
            hello_interval_us: DEFAULT_HELLO_INTERVAL_US,
        }
    }
}

/// Wire-level counters for one UDP endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdpStats {
    /// Frame datagrams handed to the kernel.
    pub datagrams_out: u64,
    /// Datagrams received (frames and control together).
    pub datagrams_in: u64,
    /// Hello datagrams sent.
    pub hellos_sent: u64,
    /// Hello-ack datagrams sent.
    pub hello_acks_sent: u64,
    /// Peer generation changes observed (each one triggered a stream
    /// reset via `EndpointCore::reset_peer`).
    pub generation_changes: u64,
    /// `send_to` failures other than `WouldBlock` (frame treated as lost;
    /// the reliability layer recovers or declares the peer dead).
    pub send_errors: u64,
    /// `send_to` refusals with `WouldBlock` (frame backlogged, retried).
    pub backpressure: u64,
    /// Frames dropped for lack of a roster entry.
    pub no_route: u64,
    /// Control datagrams rejected (bad length, magic payload or CRC).
    pub malformed_ctrl: u64,
    /// Control datagrams from a peer speaking another protocol version.
    pub version_mismatch: u64,
    /// `recv_from` failures other than `WouldBlock`.
    pub recv_errors: u64,
}

impl UdpStats {
    /// Every field as a `("udp_"-prefixed name, value)` pair — the form
    /// the observability exports (gauge columns, telemetry beacons) ship.
    pub fn as_pairs(&self) -> [(&'static str, u64); 11] {
        [
            ("udp_datagrams_out", self.datagrams_out),
            ("udp_datagrams_in", self.datagrams_in),
            ("udp_hellos_sent", self.hellos_sent),
            ("udp_hello_acks_sent", self.hello_acks_sent),
            ("udp_generation_changes", self.generation_changes),
            ("udp_send_errors", self.send_errors),
            ("udp_backpressure", self.backpressure),
            ("udp_no_route", self.no_route),
            ("udp_malformed_ctrl", self.malformed_ctrl),
            ("udp_version_mismatch", self.version_mismatch),
            ("udp_recv_errors", self.recv_errors),
        ]
    }
}

/// Per-peer handshake view.
#[derive(Debug, Clone, Copy, Default)]
struct PeerState {
    /// Last generation seen in a hello/hello-ack from this peer.
    generation: Option<u32>,
    /// A hello-ack (or hello) round trip has completed.
    established: bool,
    /// Next hello retry time (µs on the link clock).
    next_hello: u64,
}

/// One endpoint's UDP wiring: socket, learned roster, handshake state.
/// Driven through `crate::wire::Wire` exactly like a ring — `send_encoded`
/// from its push, [`UdpLink::pump`] from its drain.
pub struct UdpLink {
    sock: UdpSocket,
    me: NodeId,
    generation: u32,
    peers: Vec<Option<SocketAddr>>,
    state: Vec<PeerState>,
    hello_interval: u64,
    clock: MicroClock,
    recv_buf: Box<[u8; RECV_BUF]>,
    stats: UdpStats,
}

impl std::fmt::Debug for UdpLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpLink")
            .field("me", &self.me)
            .field("generation", &self.generation)
            .field("local", &self.sock.local_addr().ok())
            .field("stats", &self.stats)
            .finish()
    }
}

impl UdpLink {
    /// Bind a fresh socket per `cfg` and wrap it.
    pub(crate) fn bind(me: NodeId, cfg: UdpConfig) -> io::Result<Self> {
        let sock = UdpSocket::bind(cfg.bind)?;
        Self::from_socket(me, sock, cfg.roster, cfg.generation, cfg.hello_interval_us)
    }

    /// Wrap an already-bound socket (the in-process cluster builder binds
    /// all sockets first so the roster can carry real ephemeral ports).
    pub(crate) fn from_socket(
        me: NodeId,
        sock: UdpSocket,
        roster: Roster,
        generation: u32,
        hello_interval_us: u64,
    ) -> io::Result<Self> {
        sock.set_nonblocking(true)?;
        let n = roster.len();
        let peers = (0..n).map(|i| roster.get(NodeId(i as u16))).collect();
        Ok(UdpLink {
            sock,
            me,
            generation,
            peers,
            state: vec![PeerState::default(); n],
            hello_interval: hello_interval_us.max(1),
            clock: MicroClock::start(),
            recv_buf: Box::new([0u8; RECV_BUF]),
            stats: UdpStats::default(),
        })
    }

    pub(crate) fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    pub(crate) fn cluster(&self) -> usize {
        self.peers.len()
    }

    pub(crate) fn stats(&self) -> UdpStats {
        self.stats
    }

    pub(crate) fn generation(&self) -> u32 {
        self.generation
    }

    pub(crate) fn established(&self, peer: NodeId) -> bool {
        self.state.get(peer.index()).is_some_and(|s| s.established)
    }

    pub(crate) fn peer_generation(&self, peer: NodeId) -> Option<u32> {
        self.state.get(peer.index()).and_then(|s| s.generation)
    }

    /// Send one already-encoded frame toward node `dst`. Returns `false`
    /// only on `WouldBlock` (kernel buffer full: backlog and retry); any
    /// other failure consumes the frame as wire loss — this is the lossy
    /// transport the retransmission timers exist for.
    pub(crate) fn send_encoded(&mut self, dst: usize, bytes: &[u8]) -> bool {
        let Some(addr) = self.peers.get(dst).copied().flatten() else {
            self.stats.no_route += 1;
            return true;
        };
        match self.sock.send_to(bytes, addr) {
            Ok(_) => {
                self.stats.datagrams_out += 1;
                true
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                self.stats.backpressure += 1;
                false
            }
            Err(_) => {
                self.stats.send_errors += 1;
                true
            }
        }
    }

    /// Drain the socket until `WouldBlock`, feeding wire frames to
    /// `frame_sink` and handling control datagrams inline. `reset` is
    /// invoked once per peer whose generation changed — the caller wipes
    /// that peer's stream state ([`crate::endpoint::EndpointCore::reset_peer`]).
    /// Also paces hello retries. Returns the number of frame datagrams
    /// delivered to the sink.
    pub(crate) fn pump(
        &mut self,
        mut frame_sink: impl FnMut(&[u8]),
        mut reset: impl FnMut(NodeId),
    ) -> u64 {
        self.maintain();
        let mut frames = 0u64;
        let mut errors = 0u32;
        loop {
            let (n, from) = match self.sock.recv_from(&mut self.recv_buf[..]) {
                Ok(r) => r,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // E.g. ECONNREFUSED bounced back from a dead peer's
                    // port: each recv consumes one queued error, so keep
                    // draining (bounded, in case of a persistent failure)
                    // rather than letting errors starve frame reception.
                    self.stats.recv_errors += 1;
                    errors += 1;
                    if errors >= 64 {
                        break;
                    }
                    continue;
                }
            };
            self.stats.datagrams_in += 1;
            if n >= 1 && self.recv_buf[0] == CTRL_MAGIC {
                // Copy out of the receive buffer so the handler can borrow
                // self mutably (control packets are rare and tiny).
                let mut ctrl = [0u8; CTRL_LEN];
                if n == CTRL_LEN {
                    ctrl.copy_from_slice(&self.recv_buf[..CTRL_LEN]);
                    self.on_control(&ctrl, from, &mut reset);
                } else {
                    self.stats.malformed_ctrl += 1;
                }
            } else {
                frames += 1;
                frame_sink(&self.recv_buf[..n]);
            }
        }
        frames
    }

    /// Send due hellos toward peers that have not completed a handshake.
    fn maintain(&mut self) {
        let now = self.clock.micros();
        for idx in 0..self.peers.len() {
            if idx == self.me.index() || self.peers[idx].is_none() {
                continue;
            }
            let st = &self.state[idx];
            if st.established || now < st.next_hello {
                continue;
            }
            self.state[idx].next_hello = now + self.hello_interval;
            self.send_ctrl(CTRL_HELLO, self.peers[idx].unwrap());
            self.stats.hellos_sent += 1;
        }
    }

    fn send_ctrl(&mut self, kind: u8, to: SocketAddr) {
        let buf = encode_ctrl(kind, self.me.0, self.generation);
        match self.sock.send_to(&buf, to) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Dropped; the hello pacing (or the peer's retry) recovers.
                self.stats.backpressure += 1;
            }
            Err(_) => self.stats.send_errors += 1,
        }
    }

    fn on_control(
        &mut self,
        buf: &[u8; CTRL_LEN],
        from: SocketAddr,
        reset: &mut impl FnMut(NodeId),
    ) {
        let (kind, node, generation) = match decode_ctrl(buf) {
            Ok(parts) => parts,
            Err(CtrlError::Version) => {
                self.stats.version_mismatch += 1;
                return;
            }
            Err(CtrlError::Malformed) => {
                self.stats.malformed_ctrl += 1;
                return;
            }
        };
        let idx = node as usize;
        if node == self.me.0 || idx >= self.peers.len() {
            self.stats.malformed_ctrl += 1;
            return;
        }
        // Learn (or refresh) the peer's live address: a restarted peer may
        // come back from a different ephemeral port than the roster says.
        self.peers[idx] = Some(from);
        let st = &mut self.state[idx];
        if let Some(old) = st.generation {
            if old != generation {
                // The peer restarted: new incarnation, fresh sequence
                // space. Tell the endpoint to reset the streams.
                self.stats.generation_changes += 1;
                reset(NodeId(node));
            }
        }
        st.generation = Some(generation);
        st.established = true;
        if kind == CTRL_HELLO {
            self.send_ctrl(CTRL_HELLO_ACK, from);
            self.stats.hello_acks_sent += 1;
        }
    }
}

enum CtrlError {
    Malformed,
    Version,
}

fn encode_ctrl(kind: u8, node: u16, generation: u32) -> [u8; CTRL_LEN] {
    let mut buf = [0u8; CTRL_LEN];
    buf[0] = CTRL_MAGIC;
    buf[1] = UDP_PROTO_VERSION;
    buf[2] = kind;
    buf[4..6].copy_from_slice(&node.to_le_bytes());
    buf[8..12].copy_from_slice(&generation.to_le_bytes());
    let crc = crc32(&buf[..12]);
    buf[12..16].copy_from_slice(&crc.to_le_bytes());
    buf
}

fn decode_ctrl(buf: &[u8; CTRL_LEN]) -> Result<(u8, u16, u32), CtrlError> {
    let crc = u32::from_le_bytes(buf[12..16].try_into().unwrap());
    if buf[0] != CTRL_MAGIC || crc32(&buf[..12]) != crc {
        return Err(CtrlError::Malformed);
    }
    if buf[1] != UDP_PROTO_VERSION {
        return Err(CtrlError::Version);
    }
    let kind = buf[2];
    if kind != CTRL_HELLO && kind != CTRL_HELLO_ACK {
        return Err(CtrlError::Malformed);
    }
    let node = u16::from_le_bytes(buf[4..6].try_into().unwrap());
    let generation = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    Ok((kind, node, generation))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_text_round_trips() {
        let text = "# pair\n0 127.0.0.1:9000\n\n1 127.0.0.1:9001 # b\n";
        let roster = Roster::parse(text).unwrap();
        assert_eq!(roster.len(), 2);
        assert_eq!(
            roster.get(NodeId(1)).unwrap(),
            "127.0.0.1:9001".parse().unwrap()
        );
        let reparsed = Roster::parse(&roster.to_text()).unwrap();
        assert_eq!(reparsed, roster);
    }

    #[test]
    fn roster_parse_reports_line_numbers() {
        let err = Roster::parse("0 127.0.0.1:9000\nnot a line\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = Roster::parse("0 127.0.0.1:notaport\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.reason.contains("bad address"), "{err}");
    }

    #[test]
    fn control_datagram_round_trips() {
        let buf = encode_ctrl(CTRL_HELLO, 7, 0xDEAD_BEEF);
        assert_eq!(buf[0], CTRL_MAGIC);
        let (kind, node, generation) = decode_ctrl(&buf).ok().unwrap();
        assert_eq!((kind, node, generation), (CTRL_HELLO, 7, 0xDEAD_BEEF));
    }

    #[test]
    fn control_decode_rejects_damage_and_versions() {
        let mut buf = encode_ctrl(CTRL_HELLO_ACK, 3, 42);
        buf[9] ^= 0x10; // corrupt the generation: CRC must catch it
        assert!(matches!(decode_ctrl(&buf), Err(CtrlError::Malformed)));
        let mut buf = encode_ctrl(CTRL_HELLO, 3, 42);
        buf[1] = UDP_PROTO_VERSION + 1;
        let crc = crc32(&buf[..12]).to_le_bytes();
        buf[12..16].copy_from_slice(&crc);
        assert!(matches!(decode_ctrl(&buf), Err(CtrlError::Version)));
        let mut buf = encode_ctrl(CTRL_HELLO, 3, 42);
        buf[2] = 9; // unknown kind
        let crc = crc32(&buf[..12]).to_le_bytes();
        buf[12..16].copy_from_slice(&crc);
        assert!(matches!(decode_ctrl(&buf), Err(CtrlError::Malformed)));
    }

    #[test]
    fn ctrl_magic_collides_with_no_frame_first_byte() {
        // Frames start 0xF0 | version.
        assert_ne!(CTRL_MAGIC & 0xF0, 0xF0);
    }

    #[test]
    fn generations_are_distinct_in_process() {
        let a = unique_generation();
        let b = unique_generation();
        assert_ne!(a, b);
    }
}
