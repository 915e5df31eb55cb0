//! Nonblocking receives, combined send-receive, and the second tier of
//! collectives (allgather, alltoallv, scan) — rounding `fm-mpi` out to the
//! subset real application kernels use.
//!
//! FM sends complete locally (delivery is the layer's job), so `isend` is
//! just `send`; the interesting nonblocking primitive is the receive,
//! exposed as [`RecvRequest`]: post it, compute, then `wait`/`test`.

use crate::collectives::{
    bytes_to_f64s, coll_tag, f64s_to_bytes, KIND_ALLGATHER, KIND_ALLTOALLV, KIND_SCAN,
};
use crate::comm::{Communicator, ReduceOp};
use crate::{MpiError, Rank, Tag};

/// Internal tag space for the second-tier collectives (distinct from the
/// spaces used in `collectives.rs`). Like those, each kind owns a
/// `COLL_SPAN`-tag sub-space and per-call epochs wrap within it.
const TAG_ALLGATHER: u32 = Tag::RESERVED + 0x6000;
const TAG_ALLTOALLV: u32 = Tag::RESERVED + 0x7000;
const TAG_SCAN: u32 = Tag::RESERVED + 0x8000;
const TAG_SENDRECV: u32 = Tag::RESERVED + 0x9000;

/// A posted receive: a match pattern waiting for its message.
#[derive(Debug, Clone, Copy)]
pub struct RecvRequest {
    src: Option<Rank>,
    tag: Option<Tag>,
}

impl RecvRequest {
    /// Poll once; `Some` when a matching message has arrived.
    pub fn test(&self, comm: &mut Communicator) -> Option<(Rank, Tag, Vec<u8>)> {
        comm.try_recv(self.src, self.tag)
    }

    /// Block until the message arrives.
    pub fn wait(&self, comm: &mut Communicator) -> (Rank, Tag, Vec<u8>) {
        comm.recv(self.src, self.tag)
    }
}

impl Communicator {
    /// Post a nonblocking receive. (Matching happens lazily at
    /// `test`/`wait`; posting records the pattern so code reads like MPI.)
    pub fn irecv(&mut self, src: Option<Rank>, tag: Option<Tag>) -> RecvRequest {
        RecvRequest { src, tag }
    }

    /// Nonblocking send. FM sends complete locally once the window admits
    /// them, so this is the blocking send under a name that keeps
    /// application code honest about its intent.
    pub fn isend(&mut self, dest: Rank, tag: Tag, data: &[u8]) {
        self.send(dest, tag, data);
    }

    /// Combined send+receive — the deadlock-safe exchange MPI codes use
    /// for shifts. Sends to `dest`, receives from `src`, both on `tag`'s
    /// dedicated exchange space.
    pub fn sendrecv(&mut self, dest: Rank, src: Rank, tag: Tag, data: &[u8]) -> Vec<u8> {
        assert!(tag.is_user());
        let t = Tag(TAG_SENDRECV + tag.0 % 0x0FFF);
        self.send_reserved(dest, t, data);
        self.recv_reserved(src, t)
    }

    /// Every rank contributes `data`; every rank gets all contributions in
    /// rank order (ring algorithm: size-1 shifts).
    pub fn allgather(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
        let n = self.size();
        let me = self.rank() as usize;
        let mut out = vec![Vec::new(); n];
        out[me] = data.to_vec();
        if n == 1 {
            return out;
        }
        let right = ((me + 1) % n) as Rank;
        let left = ((me + n - 1) % n) as Rank;
        let tag = coll_tag(TAG_ALLGATHER, self.bump_epoch(KIND_ALLGATHER));
        // Pass blocks around the ring; step k forwards the block that
        // originated k hops to the left.
        let mut carry = data.to_vec();
        for step in 0..n - 1 {
            self.send_reserved(right, tag, &carry);
            carry = self.recv_reserved(left, tag);
            let origin = (me + n - 1 - step) % n;
            out[origin] = carry.clone();
        }
        out
    }

    /// Personalized all-to-all with per-destination sizes (`chunks[r]`
    /// goes to rank `r`; chunks may have different lengths).
    pub fn alltoallv(&mut self, chunks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        assert_eq!(chunks.len(), self.size(), "one chunk per rank");
        let me = self.rank();
        let tag = coll_tag(TAG_ALLTOALLV, self.bump_epoch(KIND_ALLTOALLV));
        let mut out = vec![Vec::new(); self.size()];
        out[me as usize] = chunks[me as usize].clone();
        for r in 0..self.size() as Rank {
            if r != me {
                self.send_reserved(r, tag, &chunks[r as usize]);
            }
        }
        for r in 0..self.size() as Rank {
            if r != me {
                out[r as usize] = self.recv_reserved(r, tag);
            }
        }
        out
    }

    /// Inclusive prefix reduction: rank `i` returns `op` applied over the
    /// contributions of ranks `0..=i` (linear chain — prefix order is
    /// inherently sequential; the pipeline overlaps across elements). A
    /// malformed or wrong-length upstream prefix surfaces as [`MpiError`].
    pub fn scan(&mut self, data: &[f64], op: ReduceOp) -> Result<Vec<f64>, MpiError> {
        let me = self.rank();
        let tag = coll_tag(TAG_SCAN, self.bump_epoch(KIND_SCAN));
        let mut acc = data.to_vec();
        if me > 0 {
            let prev = bytes_to_f64s(me - 1, &self.recv_reserved(me - 1, tag))?;
            if prev.len() != acc.len() {
                return Err(MpiError::LengthMismatch {
                    src: me - 1,
                    got: prev.len(),
                    expect: acc.len(),
                });
            }
            for (a, v) in acc.iter_mut().zip(prev) {
                *a = op.apply(v, *a);
            }
        }
        if (me as usize) + 1 < self.size() {
            self.send_reserved(me + 1, tag, &f64s_to_bytes(&acc));
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MpiCluster;

    fn run_ranks<T: Send + 'static>(
        n: usize,
        f: impl Fn(&mut Communicator) -> T + Send + Sync + Clone + 'static,
    ) -> Vec<T> {
        let comms = MpiCluster::new(n);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut c| {
                let f = f.clone();
                std::thread::spawn(move || {
                    let out = f(&mut c);
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

    #[test]
    fn irecv_test_then_wait() {
        let out = run_ranks(2, |c| {
            if c.rank() == 0 {
                // Post the receive *before* the message exists.
                let req = c.irecv(Some(1), Some(Tag(4)));
                let early = req.test(c);
                c.send(1, Tag(3), b"go");
                let (_, _, d) = req.wait(c);
                (early.is_none(), d)
            } else {
                let (_, _, _) = c.recv(Some(0), Some(Tag(3)));
                c.send(0, Tag(4), b"done");
                (true, vec![])
            }
        });
        assert_eq!(out[0], (true, b"done".to_vec()));
    }

    #[test]
    fn sendrecv_ring_shift_no_deadlock() {
        for n in [2usize, 3, 5] {
            let out = run_ranks(n, move |c| {
                let me = c.rank() as usize;
                let right = ((me + 1) % n) as Rank;
                let left = ((me + n - 1) % n) as Rank;
                // Everyone sends right and receives from the left — the
                // classic case that deadlocks naive blocking MPI.
                let got = c.sendrecv(right, left, Tag(9), &[me as u8]);
                got[0] as usize
            });
            for (me, got) in out.iter().enumerate() {
                assert_eq!(*got, (me + n - 1) % n, "n={n} me={me}");
            }
        }
    }

    #[test]
    fn allgather_collects_everyone() {
        for n in [1usize, 2, 4, 5] {
            let out = run_ranks(n, move |c| {
                let mine = vec![c.rank() as u8; c.rank() as usize + 1];
                c.allgather(&mine)
            });
            for rows in out {
                assert_eq!(rows.len(), n);
                for (r, row) in rows.iter().enumerate() {
                    assert_eq!(row, &vec![r as u8; r + 1], "rank {r}'s block");
                }
            }
        }
    }

    #[test]
    fn alltoallv_variable_sizes() {
        let n = 3usize;
        let out = run_ranks(n, move |c| {
            let me = c.rank() as usize;
            // Rank i sends i+j+1 bytes of value i to rank j.
            let chunks: Vec<Vec<u8>> = (0..n).map(|j| vec![me as u8; me + j + 1]).collect();
            c.alltoallv(&chunks)
        });
        for (j, rows) in out.iter().enumerate() {
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(row, &vec![i as u8; i + j + 1], "from {i} to {j}");
            }
        }
    }

    #[test]
    fn scan_prefix_sums() {
        let n = 5usize;
        let out = run_ranks(n, |c| {
            c.scan(&[c.rank() as f64 + 1.0, 1.0], ReduceOp::Sum)
                .unwrap()
        });
        for (i, v) in out.iter().enumerate() {
            let expect: f64 = (1..=i + 1).map(|x| x as f64).sum();
            assert_eq!(v, &vec![expect, (i + 1) as f64], "rank {i}");
        }
    }

    #[test]
    fn scan_max_running_maximum() {
        let vals = [3.0f64, 1.0, 4.0, 1.0, 5.0];
        let out = run_ranks(5, move |c| {
            c.scan(&[vals[c.rank() as usize]], ReduceOp::Max).unwrap()
        });
        let expect = [3.0, 3.0, 4.0, 4.0, 5.0];
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v[0], expect[i]);
        }
    }
}
