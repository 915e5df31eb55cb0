//! Communicator splitting: MPI's `comm_split`, giving disjoint process
//! groups their own rank spaces and collective scopes.
//!
//! A [`Group`] is a view over the parent communicator: a sorted member
//! list, this process's index within it, and a *context id* that keeps the
//! group's internal traffic (reserved tags) from ever matching another
//! group's. Group collectives run the linear schedules of
//! [`crate::collectives`] over the member list — groups are typically
//! small; the log-depth versions live on the full communicator.

use crate::collectives::{coll_tag, Scope, TAG_GROUP};
use crate::comm::{Communicator, ReduceOp};
use crate::{MpiError, Rank, Tag};

/// Group traffic uses tag `context * STRIDE + op` of the group sub-space.
/// Contexts past `COLL_SPAN / STRIDE` wrap around inside it, which is safe:
/// the groups of one split are disjoint.
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
        coll_tag(TAG_GROUP, self.context.wrapping_mul(GROUP_TAG_STRIDE) + op)
    }

    fn scope(&self, op: u32) -> Scope<'_> {
        Scope::new(Some(&self.members), self.size(), self.rank(), self.tag(op))
    }

    /// Linear barrier within the group: gather-to-leader then release.
    pub fn barrier(&self, comm: &mut Communicator) {
        comm.gather_on(self.scope(OP_BARRIER), 0, &[]);
        comm.bcast_on(self.scope(OP_BARRIER), 0, &[]);
    }

    /// Broadcast from group rank `root` (linear fan-out).
    pub fn bcast(&self, comm: &mut Communicator, root: Rank, data: &[u8]) -> Vec<u8> {
        comm.bcast_on(self.scope(OP_BCAST), root, data)
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
        comm.allreduce_on(self.scope(OP_REDUCE), self.tag(OP_BCAST), data, op)
    }

    /// Gather members' bytes at group rank `root` (group-rank order).
    pub fn gather(&self, comm: &mut Communicator, root: Rank, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        comm.gather_on(self.scope(OP_GATHER), root, data)
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
        let (n, me) = (self.size(), self.rank());
        // Every rank's (color, key) fans in to rank 0, which fans the
        // table back out.
        let at = Scope::new(None, n, me, coll_tag(TAG_GROUP, OP_SPLIT));
        let rows = self.gather_on(at, 0, &[color.to_le_bytes(), key.to_le_bytes()].concat());
        let table = self.bcast_on(at, 0, &rows.map_or_else(Vec::new, |rows| rows.concat()));
        let word = |r: Rank, at: usize| -> [u8; 4] {
            table[r as usize * 8 + at..][..4].try_into().expect("4B")
        };
        let color_of = |r| u32::from_le_bytes(word(r, 0));
        let key_of = |r| i32::from_le_bytes(word(r, 4));
        // Members of my color, sorted by (key, global rank).
        let mut members: Vec<Rank> = (0..n as Rank).filter(|&r| color_of(r) == color).collect();
        members.sort_by_key(|&r| (key_of(r), r));
        let my_index = members
            .iter()
            .position(|&r| r == me)
            .expect("caller is in its own color group");
        // Context: the color's index among the distinct colors present.
        let mut colors: Vec<u32> = (0..n as Rank).map(color_of).collect();
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
    use crate::testing::run_ranks;

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

    /// A split with more than 512 colors must not push group traffic out of
    /// the group sub-space: at context 512 the old layout reached the
    /// allreduce tags, and from 3072 on it overflowed into user tags. No
    /// threads: the tags are pure arithmetic.
    #[test]
    fn group_tags_stay_inside_the_group_subspace() {
        use crate::collectives::{COLL_SPAN, TAG_GROUP};
        for context in [511, 512, 3072] {
            let group = Group {
                members: vec![0],
                my_index: 0,
                context,
            };
            for op in [OP_SPLIT, OP_BARRIER, OP_BCAST, OP_REDUCE, OP_GATHER] {
                let tag = group.tag(op);
                let inside = (TAG_GROUP..TAG_GROUP + COLL_SPAN).contains(&tag.0);
                assert!(
                    !tag.is_user() && inside,
                    "context {context} op {op}: {tag:?}"
                );
            }
        }
    }
}
