//! # fm-mpi — a small message-passing library on Fast Messages
//!
//! The paper's Section 7 names MPI as the first client it intends to build
//! on FM ("FM is designed to support efficient implementation of a variety
//! of communication libraries"); this crate is that layer, scoped to the
//! core of MPI-1: matched point-to-point (`send`/`recv` with source and
//! tag), plus the collectives an application kernel needs (`barrier`,
//! `bcast`, `reduce`, `allreduce`, `gather`, `scatter`).
//!
//! Everything rides FM's primitives, and a message takes one of two paths
//! by its size alone. One whose 10-byte envelope and data fit a single FM
//! frame (up to 118 B of data: `FM_FRAME_PAYLOAD - ENVELOPE_BYTES`) is an
//! ordinary `FM_send` of `[envelope | data]` to a frame handler every rank
//! registers at the same id; the handler copies the data once, out of the
//! receive ring into the `Vec` the receiver is handed. Anything longer goes
//! through the segmentation extension (itself plain `FM_send` frames, as
//! Section 5 anticipates for "larger messages"), and the reassembled buffer
//! becomes the receiver's with the envelope stripped in place. Matching
//! runs in those handlers during `FM_extract`, and collectives are
//! trees/dissemination patterns of point-to-point messages. Because FM does
//! **not** guarantee ordering (Table 3), every message on either path
//! carries a sequence number drawn from one per-destination counter, and
//! the receiver admits messages to one matching queue strictly in sequence
//! — restoring the per-source FIFO ordering MPI requires, also between a
//! short message and the long one sent ahead of it.
//!
//! ```
//! use fm_mpi::{MpiCluster, Tag};
//!
//! let comms = MpiCluster::new(2);
//! let mut handles = Vec::new();
//! for mut c in comms {
//!     handles.push(std::thread::spawn(move || {
//!         if c.rank() == 0 {
//!             c.send(1, Tag(7), b"hello");
//!             c.barrier();
//!         } else {
//!             let (src, _tag, data) = c.recv(Some(0), Some(Tag(7)));
//!             assert_eq!((src, data.as_slice()), (0, &b"hello"[..]));
//!             c.barrier();
//!         }
//!     }));
//! }
//! for h in handles {
//!     h.join().unwrap();
//! }
//! ```

pub mod collectives;
pub mod comm;
pub mod group;
pub mod matching;
pub mod nonblocking;

pub use comm::{Communicator, MpiCluster, ReduceOp};
pub use group::Group;
pub use matching::{Envelope, MatchQueue};
pub use nonblocking::RecvRequest;

/// A process rank within the cluster (0-based).
pub type Rank = u16;

/// MPI-level failures surfaced to the application instead of aborting the
/// rank. The reductions decode peer payloads; a malformed contribution is
/// the *peer's* bug (or hostile traffic), so the local rank reports it as
/// an error rather than panicking — the same promotion-from-assert policy
/// the core protocol guards follow in release builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiError {
    /// A reduction contribution was not a whole number of `f64`s.
    MisalignedReduce {
        /// Rank whose payload was malformed.
        src: Rank,
        /// Its payload length in bytes.
        len: usize,
    },
    /// A contribution's element count disagreed with the local buffer —
    /// the ranks called the collective with different lengths.
    LengthMismatch {
        src: Rank,
        got: usize,
        expect: usize,
    },
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::MisalignedReduce { src, len } => write!(
                f,
                "reduce contribution from rank {src} is {len} bytes, not a whole number of f64s"
            ),
            MpiError::LengthMismatch { src, got, expect } => write!(
                f,
                "rank {src} contributed {got} elements where this rank has {expect}"
            ),
        }
    }
}

impl std::error::Error for MpiError {}

/// An MPI-style message tag. Tags at or above [`Tag::RESERVED`] are used
/// internally by the collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u32);

impl Tag {
    /// First tag value reserved for internal protocols.
    pub const RESERVED: u32 = 0xFFFF_0000;

    /// Is this tag available to applications?
    pub fn is_user(self) -> bool {
        self.0 < Tag::RESERVED
    }
}

/// The rank harness of the unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use crate::{Communicator, MpiCluster};

    /// Run `f` on every rank of an `n`-rank mesh cluster, each on its own
    /// thread, and collect the results in rank order.
    pub(crate) fn run_ranks<T: Send + 'static>(
        n: usize,
        f: impl Fn(&mut Communicator) -> T + Send + Sync + Clone + 'static,
    ) -> Vec<T> {
        let handles: Vec<_> = MpiCluster::new(n)
            .into_iter()
            .map(|mut c| {
                let f = f.clone();
                std::thread::spawn(move || {
                    let out = f(&mut c);
                    // Give trailing acks a chance to drain.
                    for _ in 0..5 {
                        c.progress();
                        std::thread::yield_now();
                    }
                    (c.rank(), out)
                })
            })
            .collect();
        let mut results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("rank"))
            .collect();
        results.sort_by_key(|(r, _)| *r);
        results.into_iter().map(|(_, t)| t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_tags_flagged() {
        assert!(Tag(0).is_user());
        assert!(Tag(Tag::RESERVED - 1).is_user());
        assert!(!Tag(Tag::RESERVED).is_user());
        assert!(!Tag(u32::MAX).is_user());
    }
}
