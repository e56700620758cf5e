//! 1D partitioning geometry: row blocks, megatiles, and stripe ranges.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// The 1D partitioning of an `N × M` sparse matrix over `p` nodes, divided
/// into sparse stripes of width `W` (§2.2, §4.1).
///
/// * Node `i` owns a contiguous block of rows of `A` (and the matching rows
///   of `C`), plus the block of `B` rows indexed by its megatile's columns.
/// * Each megatile (row block × column block) is subdivided into *sparse
///   stripes* of `W` consecutive columns; the matching `W` rows of `B` form
///   the *dense stripe* owned by the column block's owner.
///
/// Stripes are enumerated globally: all stripes of column-owner 0 first, then
/// owner 1, and so on; a `(rank, stripe)` pair identifies one sparse stripe.
///
/// # Example
///
/// ```
/// use twoface_partition::OneDimLayout;
///
/// let layout = OneDimLayout::new(100, 100, 4, 10);
/// assert_eq!(layout.row_range(0), 0..25);
/// assert_eq!(layout.num_stripes(), 12); // ceil(25/10) = 3 stripes per block
/// assert_eq!(layout.stripe_owner(3), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OneDimLayout {
    rows: usize,
    cols: usize,
    p: usize,
    stripe_width: usize,
    /// Per-stripe `(owner, col_start, col_end)`.
    stripes: Vec<(usize, usize, usize)>,
}

impl OneDimLayout {
    /// Creates the layout for an `rows × cols` matrix over `p` nodes with
    /// stripe width `stripe_width`.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`, `stripe_width == 0`, or `p > rows.max(1)`.
    pub fn new(rows: usize, cols: usize, p: usize, stripe_width: usize) -> OneDimLayout {
        assert!(p > 0, "node count must be positive");
        assert!(stripe_width > 0, "stripe width must be positive");
        assert!(p <= rows.max(1), "cannot distribute {rows} rows over {p} nodes");
        let mut stripes = Vec::new();
        for owner in 0..p {
            let block = balanced_range(cols, p, owner);
            let mut start = block.start;
            while start < block.end {
                let end = (start + stripe_width).min(block.end);
                stripes.push((owner, start, end));
                start = end;
            }
        }
        OneDimLayout { rows, cols, p, stripe_width, stripes }
    }

    /// Number of matrix rows (`N`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of matrix columns (`M`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of nodes (`p`).
    pub fn nodes(&self) -> usize {
        self.p
    }

    /// The configured stripe width (`W`). The last stripe of each column
    /// block may be narrower.
    pub fn stripe_width(&self) -> usize {
        self.stripe_width
    }

    /// The rows of `A` (and `C`) owned by `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= p`.
    pub fn row_range(&self, rank: usize) -> Range<usize> {
        assert!(rank < self.p, "rank {rank} out of range");
        balanced_range(self.rows, self.p, rank)
    }

    /// The columns of `A` (equivalently, rows of `B`) owned by `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= p`.
    pub fn col_range(&self, rank: usize) -> Range<usize> {
        assert!(rank < self.p, "rank {rank} out of range");
        balanced_range(self.cols, self.p, rank)
    }

    /// The rank owning column `col` of `A` (i.e. hosting row `col` of `B`).
    ///
    /// # Panics
    ///
    /// Panics if `col >= cols`.
    pub fn owner_of_col(&self, col: usize) -> usize {
        assert!(col < self.cols, "column {col} out of range");
        balanced_owner(self.cols, self.p, col)
    }

    /// The rank owning row `row` of `A` (and of `C`).
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    pub fn owner_of_row(&self, row: usize) -> usize {
        assert!(row < self.rows, "row {row} out of range");
        balanced_owner(self.rows, self.p, row)
    }

    /// Total number of stripes across the matrix.
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// The column range of stripe `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_stripes()`.
    pub fn stripe_cols(&self, s: usize) -> Range<usize> {
        let (_, start, end) = self.stripes[s];
        start..end
    }

    /// The rank owning stripe `s`'s dense stripe (its columns of `A`, its
    /// rows of `B`).
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_stripes()`.
    pub fn stripe_owner(&self, s: usize) -> usize {
        self.stripes[s].0
    }

    /// The stripe containing column `col`, in `O(1)`: the column's owner
    /// comes from [`balanced_owner`], the owner's first stripe from a closed
    /// form, and the offset within the block from one division by `W`.
    /// Preprocessing calls this once per nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `col >= cols`.
    #[inline]
    pub fn stripe_of_col(&self, col: usize) -> usize {
        assert!(col < self.cols, "column {col} out of range");
        let owner = balanced_owner(self.cols, self.p, col);
        let block_start = balanced_range(self.cols, self.p, owner).start;
        self.first_stripe_of_owner(owner) + (col - block_start) / self.stripe_width
    }

    /// The stripes owned by `rank`, as a contiguous index range (empty when
    /// the rank's column block is).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= p`.
    pub fn stripes_of_owner(&self, rank: usize) -> Range<usize> {
        assert!(rank < self.p, "rank {rank} out of range");
        self.first_stripe_of_owner(rank)..self.first_stripe_of_owner(rank + 1)
    }

    /// Global index of column owner `owner`'s first stripe (for `owner ==
    /// p`, the stripe count). A block of `len` columns holds `⌈len / W⌉`
    /// stripes, and balanced blocks come in only two lengths: the first
    /// `cols % p` hold `cols / p + 1` columns, the rest `cols / p`.
    #[inline]
    fn first_stripe_of_owner(&self, owner: usize) -> usize {
        let base = self.cols / self.p;
        let long = owner.min(self.cols % self.p);
        long * (base + 1).div_ceil(self.stripe_width)
            + (owner - long) * base.div_ceil(self.stripe_width)
    }
}

/// The half-open range of the `i`-th of `p` balanced chunks of `n` items:
/// the first `n % p` chunks get one extra item.
#[inline]
fn balanced_range(n: usize, p: usize, i: usize) -> Range<usize> {
    let base = n / p;
    let rem = n % p;
    let start = i * base + i.min(rem);
    let len = base + usize::from(i < rem);
    start..start + len
}

/// The chunk index owning item `x` under [`balanced_range`] chunking.
#[inline]
fn balanced_owner(n: usize, p: usize, x: usize) -> usize {
    let base = n / p;
    let rem = n % p;
    let big = (base + 1) * rem; // items covered by the larger chunks
    if x < big {
        x / (base + 1)
    } else {
        rem + (x - big) / base.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_ranges_tile_exactly() {
        for &(n, p) in &[(10, 3), (7, 7), (100, 4), (5, 2), (64, 8)] {
            let mut covered = 0;
            for i in 0..p {
                let r = balanced_range(n, p, i);
                assert_eq!(r.start, covered, "n={n} p={p} i={i}");
                covered = r.end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn balanced_owner_matches_ranges() {
        for &(n, p) in &[(10, 3), (7, 7), (100, 4), (13, 5)] {
            for x in 0..n {
                let owner = balanced_owner(n, p, x);
                assert!(balanced_range(n, p, owner).contains(&x), "n={n} p={p} x={x}");
            }
        }
    }

    #[test]
    fn row_and_col_owners_match_their_ranges() {
        let layout = OneDimLayout::new(13, 17, 4, 3);
        for r in 0..13 {
            assert!(layout.row_range(layout.owner_of_row(r)).contains(&r));
        }
        for c in 0..17 {
            assert!(layout.col_range(layout.owner_of_col(c)).contains(&c));
        }
    }

    #[test]
    fn stripes_tile_each_column_block() {
        let layout = OneDimLayout::new(100, 103, 4, 10);
        // Every column belongs to exactly one stripe owned by its column
        // owner.
        for c in 0..103 {
            let s = layout.stripe_of_col(c);
            assert!(layout.stripe_cols(s).contains(&c), "col {c} in stripe {s}");
            assert_eq!(layout.stripe_owner(s), layout.owner_of_col(c));
        }
    }

    #[test]
    fn ragged_last_stripe_is_narrower() {
        let layout = OneDimLayout::new(100, 100, 4, 10);
        // Each 25-column block has stripes of 10, 10, 5.
        assert_eq!(layout.stripe_cols(2), 20..25);
        assert_eq!(layout.stripe_cols(3), 25..35);
    }

    #[test]
    fn stripes_of_owner_is_contiguous_and_complete() {
        let layout = OneDimLayout::new(64, 64, 4, 8);
        let mut total = 0;
        for rank in 0..4 {
            let r = layout.stripes_of_owner(rank);
            for s in r.clone() {
                assert_eq!(layout.stripe_owner(s), rank);
            }
            total += r.len();
        }
        assert_eq!(total, layout.num_stripes());
    }

    #[test]
    fn single_node_layout() {
        let layout = OneDimLayout::new(16, 16, 1, 4);
        assert_eq!(layout.row_range(0), 0..16);
        assert_eq!(layout.num_stripes(), 4);
        assert_eq!(layout.stripe_owner(3), 0);
    }

    #[test]
    fn stripe_wider_than_block_collapses_to_one_per_block() {
        let layout = OneDimLayout::new(40, 40, 4, 1000);
        assert_eq!(layout.num_stripes(), 4);
        assert_eq!(layout.stripe_cols(1), 10..20);
    }

    /// Reference lookup: a binary search on the stripes' column starts.
    fn stripe_of_col_by_search(layout: &OneDimLayout, col: usize) -> usize {
        match layout.stripes.binary_search_by(|&(_, start, _)| start.cmp(&col)) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    #[test]
    fn closed_form_stripe_lookup_matches_the_search_exhaustively() {
        let (mut empty_blocks, mut narrow_tails, mut wide_stripes) = (0, 0, 0);
        for cols in 1..=70 {
            for p in 1..=9 {
                for w in 1..=12 {
                    let layout = OneDimLayout::new(9, cols, p, w);
                    for col in 0..cols {
                        assert_eq!(
                            layout.stripe_of_col(col),
                            stripe_of_col_by_search(&layout, col),
                            "cols={cols} p={p} W={w} col={col}"
                        );
                    }
                    let mut next = 0;
                    for rank in 0..p {
                        let owned = layout.stripes_of_owner(rank);
                        assert_eq!(owned.start, next, "cols={cols} p={p} W={w} rank={rank}");
                        assert!(owned.clone().all(|s| layout.stripe_owner(s) == rank));
                        next = owned.end;
                        let block = layout.col_range(rank).len();
                        empty_blocks += usize::from(block == 0);
                        narrow_tails += usize::from(!block.is_multiple_of(w) && block > w);
                        wide_stripes += usize::from(block > 0 && w > block);
                    }
                    assert_eq!(next, layout.num_stripes(), "cols={cols} p={p} W={w}");
                }
            }
        }
        // The grid reaches every shape the closed form has to get right.
        assert!(empty_blocks > 0 && narrow_tails > 0 && wide_stripes > 0);
    }

    #[test]
    #[should_panic(expected = "cannot distribute")]
    fn too_many_nodes_rejected() {
        let _ = OneDimLayout::new(2, 2, 4, 1);
    }
}
