//! Per-stripe structural profiling.
//!
//! The preprocessing model (§4.2) needs two numbers per sparse stripe of a
//! node: `n_i`, the nonzeros the stripe holds, and `l_i`, the distinct dense
//! rows of `B` it requires. This module computes them in one pass over each
//! node's row block.

use crate::par::par_map_indexed;
use crate::OneDimLayout;
use twoface_matrix::{CooMatrix, Entry};

/// Profile of one sparse stripe of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeProfile {
    /// Global stripe index.
    pub stripe: usize,
    /// `n_i`: nonzeros of this node falling in the stripe.
    pub nnz: usize,
    /// `l_i`: the number of distinct `B` rows an asynchronous transfer
    /// would fetch. Only the *count* is computed — no per-stripe column id
    /// list is ever built (at paper scale such lists cost ~8 bytes per
    /// nonzero, and nothing downstream of classification would read them:
    /// the executor fetches from the rank structures' own `unique_cols`).
    pub rows_needed: usize,
}

impl StripeProfile {
    /// `l_i`: the number of distinct `B` rows the stripe requires.
    pub fn rows_needed(&self) -> usize {
        self.rows_needed
    }
}

/// Profile of all non-empty stripes of one node, plus which are local-input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeProfile {
    /// The node this profile describes.
    pub rank: usize,
    /// Profiles of stripes with at least one nonzero, ascending by stripe
    /// index. Empty stripes need no communication or compute and are
    /// omitted.
    pub stripes: Vec<StripeProfile>,
}

impl NodeProfile {
    /// Builds the profile of `rank`'s local partition of `a`.
    ///
    /// `a` is the *global* matrix; only `rank`'s row block is inspected,
    /// found by binary search ([`CooMatrix::row_block`]).
    pub fn build(a: &CooMatrix, layout: &OneDimLayout, rank: usize) -> NodeProfile {
        Self::build_from_rows(a.row_block(layout.row_range(rank)), layout, rank)
    }

    /// Builds the profile of `rank` directly from its row shard — the
    /// normalized entries whose rows all fall in `rank`'s row block. This is
    /// the out-of-core entry point: the streamed runner profiles each rank
    /// from its spilled shard and never holds the global matrix. Feeding the
    /// resident matrix's row slice here produces exactly what
    /// [`NodeProfile::build`] produces.
    pub fn build_from_rows<E: Entry>(
        rank_entries: &[E],
        layout: &OneDimLayout,
        rank: usize,
    ) -> NodeProfile {
        Self::profile(rank_entries, layout, rank, &mut ColumnStamps::new(layout.cols()))
    }

    /// One pass over the rank's entries: `n_i` counts every entry, `l_i`
    /// only the first entry of each column (columns never straddle stripes,
    /// so distinct columns per stripe are distinct columns, stripe by
    /// stripe).
    fn profile<E: Entry>(
        rank_entries: &[E],
        layout: &OneDimLayout,
        rank: usize,
        stamps: &mut ColumnStamps,
    ) -> NodeProfile {
        debug_assert!(
            rank_entries.iter().all(|t| layout.row_range(rank).contains(&t.row())),
            "entry outside rank's row block"
        );
        let epoch = stamps.next_epoch();
        let mut nnz = vec![0usize; layout.num_stripes()];
        let mut rows_needed = vec![0usize; layout.num_stripes()];
        for t in rank_entries {
            let col = t.col();
            let [seen, cached] = &mut stamps.columns[col];
            let stripe = match *cached {
                0 => {
                    let stripe = layout.stripe_of_col(col);
                    // A stripe index past `u32` is looked up every time.
                    *cached = u32::try_from(stripe + 1).unwrap_or(0);
                    stripe
                }
                cached => cached as usize - 1,
            };
            nnz[stripe] += 1;
            if *seen != epoch {
                *seen = epoch;
                rows_needed[stripe] += 1;
            }
        }
        let stripes = nnz
            .into_iter()
            .zip(rows_needed)
            .enumerate()
            .filter(|&(_, (nnz, _))| nnz > 0)
            .map(|(stripe, (nnz, rows_needed))| StripeProfile { stripe, nnz, rows_needed })
            .collect();
        NodeProfile { rank, stripes }
    }

    /// The profile of a specific stripe, if it is non-empty on this node.
    pub fn stripe(&self, stripe: usize) -> Option<&StripeProfile> {
        self.stripes.binary_search_by_key(&stripe, |p| p.stripe).ok().map(|i| &self.stripes[i])
    }

    /// Total nonzeros across all stripes (the node's local nnz).
    pub fn total_nnz(&self) -> usize {
        self.stripes.iter().map(|s| s.nnz).sum()
    }

    /// Iterates over stripes that are remote-input for this node (their
    /// dense stripe lives on another node).
    pub fn remote_stripes<'a>(
        &'a self,
        layout: &'a OneDimLayout,
    ) -> impl Iterator<Item = &'a StripeProfile> + 'a {
        self.stripes.iter().filter(move |s| layout.stripe_owner(s.stripe) != self.rank)
    }

    /// Iterates over stripes that are local-input for this node.
    pub fn local_stripes<'a>(
        &'a self,
        layout: &'a OneDimLayout,
    ) -> impl Iterator<Item = &'a StripeProfile> + 'a {
        self.stripes.iter().filter(move |s| layout.stripe_owner(s.stripe) == self.rank)
    }
}

/// Per-worker column scratch for profiling, reused for every rank the
/// worker profiles. `columns[c]` holds two words for column `c`:
///
/// * a stamp for distinct-column counting without sorting: `== epoch`
///   marks the column as already counted by the profile being built, and
///   starting a new profile bumps the epoch instead of clearing the array;
/// * the column's stripe plus one (0 = not looked up yet), so the divisions
///   of [`OneDimLayout::stripe_of_col`] are paid once per column, not once
///   per nonzero.
///
/// The array is allocated zeroed and written only at columns that hold
/// nonzeros, so a wide, hypersparse matrix pays resident memory only for
/// the pages its columns fall on.
struct ColumnStamps {
    columns: Vec<[u32; 2]>,
    epoch: u32,
}

impl ColumnStamps {
    fn new(cols: usize) -> ColumnStamps {
        ColumnStamps { columns: vec![[0; 2]; cols], epoch: 0 }
    }

    /// Starts a new profile with no column marked.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.columns.iter_mut().for_each(|[seen, _]| *seen = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// Builds profiles for every node, in rank order: each rank is profiled
/// from its own row block, fanned out over `workers` threads that each
/// reuse one column-stamp array. `O(nnz)` in total; the result does not
/// depend on `workers`.
pub fn profile_all_nodes(a: &CooMatrix, layout: &OneDimLayout, workers: usize) -> Vec<NodeProfile> {
    par_map_indexed(
        workers,
        layout.nodes(),
        || ColumnStamps::new(layout.cols()),
        |stamps, rank| {
            NodeProfile::profile(a.row_block(layout.row_range(rank)), layout, rank, stamps)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (CooMatrix, OneDimLayout) {
        // 8x8 matrix, 2 nodes, stripe width 2 => stripes: cols [0,2) [2,4)
        // owned by node 0; [4,6) [6,8) owned by node 1.
        let a = CooMatrix::from_triplets(
            8,
            8,
            vec![
                (0, 0, 1.0), // node 0, stripe 0 (local)
                (1, 1, 1.0), // node 0, stripe 0 (local)
                (2, 5, 1.0), // node 0, stripe 2 (remote)
                (3, 5, 1.0), // node 0, stripe 2 (remote), same col
                (4, 0, 1.0), // node 1, stripe 0 (remote)
                (7, 7, 1.0), // node 1, stripe 3 (local)
            ],
        )
        .unwrap();
        let layout = OneDimLayout::new(8, 8, 2, 2);
        (a, layout)
    }

    #[test]
    fn profiles_count_nnz_and_unique_cols() {
        let (a, layout) = fixture();
        let p0 = NodeProfile::build(&a, &layout, 0);
        assert_eq!(p0.stripes.len(), 2);
        let s0 = p0.stripe(0).unwrap();
        assert_eq!(s0.nnz, 2);
        assert_eq!(s0.rows_needed(), 2);
        let s2 = p0.stripe(2).unwrap();
        assert_eq!(s2.nnz, 2);
        assert_eq!(s2.rows_needed, 1, "duplicate columns deduplicated");
        assert_eq!(s2.rows_needed(), 1);
    }

    #[test]
    fn empty_stripes_are_omitted() {
        let (a, layout) = fixture();
        let p0 = NodeProfile::build(&a, &layout, 0);
        assert!(p0.stripe(1).is_none());
        assert!(p0.stripe(3).is_none());
    }

    #[test]
    fn local_and_remote_split() {
        let (a, layout) = fixture();
        let p1 = NodeProfile::build(&a, &layout, 1);
        let remote: Vec<usize> = p1.remote_stripes(&layout).map(|s| s.stripe).collect();
        let local: Vec<usize> = p1.local_stripes(&layout).map(|s| s.stripe).collect();
        assert_eq!(remote, vec![0]);
        assert_eq!(local, vec![3]);
    }

    #[test]
    fn totals_cover_the_matrix() {
        let (a, layout) = fixture();
        let profiles = profile_all_nodes(&a, &layout, 1);
        let total: usize = profiles.iter().map(NodeProfile::total_nnz).sum();
        assert_eq!(total, a.nnz());
    }

    #[test]
    fn build_from_rows_matches_full_matrix_build() {
        let (a, layout) = fixture();
        for rank in 0..layout.nodes() {
            let rows = layout.row_range(rank);
            let shard: Vec<_> =
                a.triplets().iter().filter(|t| rows.contains(&t.row)).copied().collect();
            let from_shard = NodeProfile::build_from_rows(&shard, &layout, rank);
            assert_eq!(from_shard, NodeProfile::build(&a, &layout, rank), "rank {rank}");
        }
    }

    #[test]
    fn node_with_no_nonzeros_has_empty_profile() {
        let a = CooMatrix::from_triplets(8, 8, vec![(0, 0, 1.0)]).unwrap();
        let layout = OneDimLayout::new(8, 8, 4, 2);
        let p3 = NodeProfile::build(&a, &layout, 3);
        assert!(p3.stripes.is_empty());
        assert_eq!(p3.total_nnz(), 0);
    }
}
