//! Nonblocking receives, combined send-receive, and the second tier of
//! collectives (allgather, alltoallv, scan) — rounding `fm-mpi` out to the
//! subset real application kernels use.
//!
//! FM sends complete locally (delivery is the layer's job), so `isend` is
//! just `send`; the interesting nonblocking primitive is the receive,
//! exposed as [`RecvRequest`]: post it, compute, then `wait`/`test`.

use crate::collectives::{
    chain, coll_tag, ring, Payload, ALLGATHER, ALLTOALLV, SCAN, TAG_SENDRECV,
};
use crate::comm::{Communicator, ReduceOp};
use crate::{MpiError, Rank, Tag};

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
        let t = coll_tag(TAG_SENDRECV, tag.0 % 0x0FFF);
        self.send_reserved(dest, t, data);
        self.recv_reserved(src, t)
    }

    /// Every rank contributes `data`; every rank gets all contributions in
    /// rank order (ring algorithm: size-1 shifts).
    pub fn allgather(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
        let at = self.call(ALLGATHER, false);
        let got = self.run(&ring(at.size, at.me), at, Payload::Forward(data));
        // Shift k brings the block of the rank k + 1 to the left: reversed,
        // the receipts follow `data` in rank order from `me + 1` on.
        let rest = got.into_iter().rev().map(|(_, block)| block);
        let mut out: Vec<Vec<u8>> = std::iter::once(data.to_vec()).chain(rest).collect();
        out.rotate_right(at.me as usize);
        out
    }

    /// Personalized all-to-all with per-destination sizes (`chunks[r]`
    /// goes to rank `r`; chunks may have different lengths).
    pub fn alltoallv(&mut self, chunks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        self.exchange(ALLTOALLV, chunks)
    }

    /// Inclusive prefix reduction: rank `i` returns `op` applied over the
    /// contributions of ranks `0..=i` (linear chain — prefix order is
    /// inherently sequential; the pipeline overlaps across elements). A
    /// malformed or wrong-length upstream prefix surfaces as [`MpiError`].
    pub fn scan(&mut self, data: &[f64], op: ReduceOp) -> Result<Vec<f64>, MpiError> {
        let at = self.call(SCAN, false);
        // The prefix from the left is the left operand.
        let (mut sum, fold) = (Ok(data.to_vec()), |mine, prefix| op.apply(prefix, mine));
        let sched = chain(at.size, at.me);
        self.run(&sched, at, Payload::Combine(&mut sum, &fold));
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_ranks;

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
