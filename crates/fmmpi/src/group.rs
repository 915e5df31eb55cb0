//! Communicator splitting: MPI's `comm_split`, giving disjoint process
//! groups their own rank spaces and collective scopes.
//!
//! A [`Group`] is a view over the parent communicator: a sorted member
//! list, this process's index within it, and a *context id* that keeps the
//! group's internal traffic (reserved tags) from ever matching another
//! group's. Group collectives use simple robust algorithms (linear trees
//! and rings) — groups are typically small; the log-depth versions live on
//! the full communicator in [`crate::collectives`].

use crate::collectives::{bytes_to_f64s, combine, f64s_to_bytes};
use crate::comm::{Communicator, ReduceOp};
use crate::{MpiError, Rank, Tag};

/// Tag space for group-scoped traffic: `BASE + context * STRIDE + op`.
const GROUP_TAG_BASE: u32 = Tag::RESERVED + 0xA000;
const GROUP_TAG_STRIDE: u32 = 8;
const OP_SPLIT: u32 = 0;
const OP_BARRIER: u32 = 1;
const OP_BCAST: u32 = 2;
const OP_REDUCE: u32 = 3;
const OP_GATHER: u32 = 4;

/// A subgroup of the cluster with its own rank numbering.
#[derive(Debug, Clone)]
pub struct Group {
    /// Global ranks of the members, in group-rank order.
    members: Vec<Rank>,
    /// This process's rank within the group.
    my_index: usize,
    /// Distinguishes concurrent groups' internal traffic.
    context: u32,
}

impl Group {
    /// Group size.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This process's rank within the group.
    pub fn rank(&self) -> Rank {
        self.my_index as Rank
    }

    /// Translate a group rank to the global rank.
    pub fn global(&self, group_rank: Rank) -> Rank {
        self.members[group_rank as usize]
    }

    /// The member list (global ranks, group order).
    pub fn members(&self) -> &[Rank] {
        &self.members
    }

    fn tag(&self, op: u32) -> Tag {
        Tag(GROUP_TAG_BASE + self.context * GROUP_TAG_STRIDE + op)
    }

    /// Linear-chain barrier within the group: gather-to-leader then
    /// release.
    pub fn barrier(&self, comm: &mut Communicator) {
        if self.size() <= 1 {
            return;
        }
        let tag = self.tag(OP_BARRIER);
        let leader = self.global(0);
        if self.my_index == 0 {
            for gr in 1..self.size() as Rank {
                let _ = comm.recv_reserved(self.global(gr), tag);
            }
            for gr in 1..self.size() as Rank {
                comm.send_reserved(self.global(gr), tag, &[]);
            }
        } else {
            comm.send_reserved(leader, tag, &[]);
            let _ = comm.recv_reserved(leader, tag);
        }
    }

    /// Broadcast from group rank `root` (linear fan-out).
    pub fn bcast(&self, comm: &mut Communicator, root: Rank, data: &[u8]) -> Vec<u8> {
        if self.size() <= 1 {
            return data.to_vec();
        }
        let tag = self.tag(OP_BCAST);
        if self.rank() == root {
            for gr in 0..self.size() as Rank {
                if gr != root {
                    comm.send_reserved(self.global(gr), tag, data);
                }
            }
            data.to_vec()
        } else {
            comm.recv_reserved(self.global(root), tag)
        }
    }

    /// Reduce to group rank 0 (linear gather), then broadcast — an
    /// allreduce over the group. Malformed peer contributions surface as
    /// [`MpiError`] instead of aborting this rank.
    pub fn allreduce(
        &self,
        comm: &mut Communicator,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<Vec<f64>, MpiError> {
        let tag = self.tag(OP_REDUCE);
        let mut acc = data.to_vec();
        if self.my_index == 0 {
            for gr in 1..self.size() as Rank {
                let src = self.global(gr);
                let theirs = bytes_to_f64s(src, &comm.recv_reserved(src, tag))?;
                combine(&mut acc, src, &theirs, op)?;
            }
        } else {
            comm.send_reserved(self.global(0), tag, &f64s_to_bytes(&acc));
        }
        let out = self.bcast(comm, 0, &f64s_to_bytes(&acc));
        bytes_to_f64s(self.global(0), &out)
    }

    /// Gather members' bytes at group rank `root` (group-rank order).
    pub fn gather(&self, comm: &mut Communicator, root: Rank, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        let tag = self.tag(OP_GATHER);
        if self.rank() != root {
            comm.send_reserved(self.global(root), tag, data);
            return None;
        }
        let mut out = vec![Vec::new(); self.size()];
        out[root as usize] = data.to_vec();
        for gr in 0..self.size() as Rank {
            if gr != root {
                out[gr as usize] = comm.recv_reserved(self.global(gr), tag);
            }
        }
        Some(out)
    }
}

impl Communicator {
    /// MPI `comm_split`: every rank calls this collectively with a `color`
    /// (which group to join) and a `key` (ordering within the group; ties
    /// break by global rank). Returns this process's [`Group`].
    ///
    /// The context id is derived deterministically from the sorted color
    /// set, so back-to-back splits that produce the same grouping reuse
    /// the same context — adequate for the test/application patterns here
    /// (full context management is MPI-runtime territory).
    pub fn split(&mut self, color: u32, key: i32) -> Group {
        let n = self.size();
        let me = self.rank();
        let tag = Tag(GROUP_TAG_BASE + OP_SPLIT);
        // All-to-all exchange of (color, key): everyone sends to rank 0,
        // rank 0 broadcasts the table. Simple and collective-safe.
        let mine = {
            let mut v = Vec::with_capacity(8);
            v.extend_from_slice(&color.to_le_bytes());
            v.extend_from_slice(&key.to_le_bytes());
            v
        };
        let table: Vec<(u32, i32)> = if me == 0 {
            let mut table = vec![(0u32, 0i32); n];
            table[0] = (color, key);
            for r in 1..n as Rank {
                let b = self.recv_reserved(r, tag);
                table[r as usize] = (
                    u32::from_le_bytes(b[0..4].try_into().expect("4B")),
                    i32::from_le_bytes(b[4..8].try_into().expect("4B")),
                );
            }
            let flat: Vec<u8> = table
                .iter()
                .flat_map(|(c, k)| {
                    let mut v = c.to_le_bytes().to_vec();
                    v.extend_from_slice(&k.to_le_bytes());
                    v
                })
                .collect();
            for r in 1..n as Rank {
                self.send_reserved(r, tag, &flat);
            }
            table
        } else {
            self.send_reserved(0, tag, &mine);
            let flat = self.recv_reserved(0, tag);
            flat.chunks_exact(8)
                .map(|c| {
                    (
                        u32::from_le_bytes(c[0..4].try_into().expect("4B")),
                        i32::from_le_bytes(c[4..8].try_into().expect("4B")),
                    )
                })
                .collect()
        };

        // Members of my color, sorted by (key, global rank).
        let mut members: Vec<Rank> = (0..n as Rank)
            .filter(|&r| table[r as usize].0 == color)
            .collect();
        members.sort_by_key(|&r| (table[r as usize].1, r));
        let my_index = members
            .iter()
            .position(|&r| r == me)
            .expect("caller is in its own color group");
        // Context: the color's index among the distinct colors present.
        let mut colors: Vec<u32> = table.iter().map(|(c, _)| *c).collect();
        colors.sort_unstable();
        colors.dedup();
        let context = colors.iter().position(|&c| c == color).expect("present") as u32;
        Group {
            members,
            my_index,
            context,
        }
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
    fn split_even_odd_groups() {
        let out = run_ranks(6, |c| {
            let g = c.split(c.rank() as u32 % 2, 0);
            (g.size(), g.rank(), g.members().to_vec())
        });
        for (r, (size, grank, members)) in out.iter().enumerate() {
            assert_eq!(*size, 3);
            let expect: Vec<Rank> = (0..6).filter(|x| x % 2 == r as u16 % 2).collect();
            assert_eq!(members, &expect);
            assert_eq!(*grank as usize, r / 2);
        }
    }

    #[test]
    fn key_reorders_group_ranks() {
        let out = run_ranks(4, |c| {
            // Same color; key = -rank reverses the ordering.
            let g = c.split(0, -(c.rank() as i32));
            g.rank()
        });
        assert_eq!(out, vec![3, 2, 1, 0]);
    }

    #[test]
    fn group_collectives_stay_inside_the_group() {
        let out = run_ranks(6, |c| {
            let color = c.rank() as u32 % 2;
            let g = c.split(color, 0);
            g.barrier(c);
            // Each group reduces its own global ranks.
            let sum = g.allreduce(c, &[c.rank() as f64], ReduceOp::Sum).unwrap()[0];
            // Leader broadcasts a group-specific token.
            let token = g.bcast(c, 0, &[g.global(0) as u8 + 100]);
            g.barrier(c);
            (sum, token[0])
        });
        // Evens: 0+2+4 = 6, leader 0 -> token 100. Odds: 1+3+5 = 9,
        // leader 1 -> token 101.
        for (r, (sum, token)) in out.iter().enumerate() {
            if r % 2 == 0 {
                assert_eq!((*sum, *token), (6.0, 100), "rank {r}");
            } else {
                assert_eq!((*sum, *token), (9.0, 101), "rank {r}");
            }
        }
    }

    #[test]
    fn group_gather_in_group_order() {
        let out = run_ranks(4, |c| {
            let g = c.split(0, 0); // everyone, identity order
            g.gather(c, 1, &[c.rank() as u8 * 2])
        });
        assert!(out[0].is_none());
        let rows = out[1].as_ref().expect("group-root result");
        assert_eq!(rows, &vec![vec![0], vec![2], vec![4], vec![6]]);
    }

    #[test]
    fn singleton_groups_trivially_work() {
        let out = run_ranks(3, |c| {
            let g = c.split(c.rank() as u32, 0); // everyone alone
            g.barrier(c);
            let v = g.allreduce(c, &[7.0], ReduceOp::Max).unwrap();
            (g.size(), v[0])
        });
        for (size, v) in out {
            assert_eq!((size, v), (1, 7.0));
        }
    }
}
