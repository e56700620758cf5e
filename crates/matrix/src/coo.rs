use crate::{CscMatrix, CsrMatrix, MatrixError, Scalar};

/// A single `(row, column, value)` nonzero entry.
///
/// Triplets are the exchange currency between formats and generators. The
/// ordering implemented for `Triplet` is row-major (row, then column), which
/// is the canonical order maintained by [`CooMatrix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    /// Row index of the nonzero (`r_id` in the paper's notation).
    pub row: usize,
    /// Column index of the nonzero (`c_id` in the paper's notation).
    pub col: usize,
    /// Numeric value of the nonzero.
    pub val: Scalar,
}

impl Triplet {
    /// Creates a triplet.
    pub fn new(row: usize, col: usize, val: Scalar) -> Self {
        Triplet { row, col, val }
    }
}

impl From<(usize, usize, Scalar)> for Triplet {
    fn from((row, col, val): (usize, usize, Scalar)) -> Self {
        Triplet { row, col, val }
    }
}

/// A sparse matrix in coordinate (COO) format.
///
/// Entries are kept sorted in row-major order (by row, then column) with no
/// duplicate coordinates; duplicates supplied at construction are summed, as
/// is conventional for assembly from triplets. This is the format generators
/// produce and the format the Two-Face preprocessing step consumes (the paper
/// stores `A` in "a modified COO format", §5.1).
///
/// # Example
///
/// ```
/// use twoface_matrix::CooMatrix;
///
/// # fn main() -> Result<(), twoface_matrix::MatrixError> {
/// let m = CooMatrix::from_triplets(3, 3, vec![(0, 1, 1.0), (2, 0, 2.0), (0, 1, 0.5)])?;
/// assert_eq!(m.nnz(), 2); // duplicates summed
/// assert_eq!(m.triplets()[0].val, 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<Triplet>,
}

impl CooMatrix {
    /// Creates an empty matrix with the given dimensions.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix { rows, cols, entries: Vec::new() }
    }

    /// Builds a matrix from triplets, summing duplicates and sorting
    /// row-major.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::CoordinateOutOfBounds`] if any triplet lies
    /// outside `rows x cols`.
    pub fn from_triplets<I, T>(rows: usize, cols: usize, triplets: I) -> Result<Self, MatrixError>
    where
        I: IntoIterator<Item = T>,
        T: Into<Triplet>,
    {
        let entries: Vec<Triplet> = triplets.into_iter().map(Into::into).collect();
        CooMatrix::from_triplet_vec(rows, cols, entries)
    }

    /// [`CooMatrix::from_triplets`] without the intermediate copy: validates,
    /// sorts, and sums duplicates *in place* in the supplied vector.
    ///
    /// This is the assembly path the chunked generators and the streaming
    /// executor share: one allocation (the caller's), no transient second
    /// vector, and the exact summation order of [`normalize_triplets`].
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::CoordinateOutOfBounds`] for the first (in input
    /// order) triplet outside `rows x cols`.
    pub fn from_triplet_vec(
        rows: usize,
        cols: usize,
        mut entries: Vec<Triplet>,
    ) -> Result<Self, MatrixError> {
        for t in &entries {
            if t.row >= rows || t.col >= cols {
                return Err(MatrixError::CoordinateOutOfBounds {
                    row: t.row,
                    col: t.col,
                    rows,
                    cols,
                });
            }
        }
        normalize_triplets(&mut entries);
        Ok(CooMatrix { rows, cols, entries })
    }

    /// Builds a matrix from triplets that are already sorted row-major and
    /// duplicate-free, skipping the sort.
    ///
    /// # Errors
    ///
    /// Returns an error if the invariant does not hold or a coordinate is out
    /// of bounds; this constructor validates rather than trusting the caller.
    pub fn from_sorted_triplets(
        rows: usize,
        cols: usize,
        entries: Vec<Triplet>,
    ) -> Result<Self, MatrixError> {
        for (i, t) in entries.iter().enumerate() {
            if t.row >= rows || t.col >= cols {
                return Err(MatrixError::CoordinateOutOfBounds {
                    row: t.row,
                    col: t.col,
                    rows,
                    cols,
                });
            }
            if i > 0 {
                let p = &entries[i - 1];
                if (p.row, p.col) >= (t.row, t.col) {
                    return Err(MatrixError::Parse {
                        line: 0,
                        message: format!(
                            "triplets not strictly sorted at index {i}: ({}, {}) then ({}, {})",
                            p.row, p.col, t.row, t.col
                        ),
                    });
                }
            }
        }
        Ok(CooMatrix { rows, cols, entries })
    }

    /// Number of rows (`N` in the paper).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`M` in the paper).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether the matrix stores no nonzeros.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The sorted triplet slice.
    pub fn triplets(&self) -> &[Triplet] {
        &self.entries
    }

    /// Stable 64-bit content fingerprint: dimensions, nonzero count, and
    /// every `(row, col, bit-exact value)` triplet in canonical (sorted)
    /// order. Two `CooMatrix` values fingerprint equal iff they are the same
    /// matrix with the same stored-entry set, making the digest a safe cache
    /// key for preprocessing artifacts derived from this matrix.
    pub fn fingerprint(&self) -> u64 {
        let mut f = crate::Fingerprint::new();
        f.mix_bytes(b"coo").mix_usize(self.rows).mix_usize(self.cols).mix_usize(self.nnz());
        for t in &self.entries {
            f.mix_usize(t.row).mix_usize(t.col).mix_f64(t.val);
        }
        f.finish()
    }

    /// Consumes the matrix, returning its triplets.
    pub fn into_triplets(self) -> Vec<Triplet> {
        self.entries
    }

    /// Iterates over `(row, col, val)` tuples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Scalar)> + '_ {
        self.entries.iter().map(|t| (t.row, t.col, t.val))
    }

    /// Density of the matrix: `nnz / (rows * cols)`.
    ///
    /// Returns 0 for degenerate zero-dimension matrices.
    pub fn density(&self) -> f64 {
        let cells = self.rows as f64 * self.cols as f64;
        if cells == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / cells
        }
    }

    /// The entries whose rows fall in `rows` (half-open), in global
    /// coordinates: a subslice of the row-sorted triplet array, located by
    /// two binary searches and never copied.
    ///
    /// This is a node's row block under 1D partitioning (§2.2); taking every
    /// rank's block this way costs `O(p log nnz)`, not `p` scans of the
    /// matrix.
    pub fn row_block(&self, rows: std::ops::Range<usize>) -> &[Triplet] {
        let lo = self.entries.partition_point(|t| t.row < rows.start);
        let hi = lo + self.entries[lo..].partition_point(|t| t.row < rows.end);
        &self.entries[lo..hi]
    }

    /// Extracts the submatrix of entries whose rows fall in
    /// `row_range` (half-open), re-indexed to start at row 0.
    ///
    /// This is how per-node local partitions are cut from a global matrix
    /// under 1D partitioning (§2.2).
    pub fn row_slice(&self, row_range: std::ops::Range<usize>) -> CooMatrix {
        let entries: Vec<Triplet> = self
            .row_block(row_range.clone())
            .iter()
            .map(|t| Triplet::new(t.row - row_range.start, t.col, t.val))
            .collect();
        CooMatrix { rows: row_range.len(), cols: self.cols, entries }
    }

    /// Converts to CSR (compressed sparse row).
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix::from_coo(self)
    }

    /// Converts to CSC (compressed sparse column).
    pub fn to_csc(&self) -> CscMatrix {
        CscMatrix::from_coo(self)
    }

    /// Returns the transpose as a new COO matrix.
    pub fn transpose(&self) -> CooMatrix {
        let mut entries: Vec<Triplet> =
            self.entries.iter().map(|t| Triplet::new(t.col, t.row, t.val)).collect();
        entries.sort_by_key(|t| (t.row, t.col));
        CooMatrix { rows: self.cols, cols: self.rows, entries }
    }

    /// Returns a structurally-symmetrized copy: for every `(i, j)` nonzero a
    /// `(j, i)` nonzero with the same value is added (duplicates summed).
    ///
    /// Graph matrices (twitter, friendster analogs) are often symmetrized
    /// before GNN use; this mirrors that preprocessing.
    pub fn symmetrize(&self) -> Result<CooMatrix, MatrixError> {
        let n = self.rows.max(self.cols);
        let mut triplets = Vec::with_capacity(self.entries.len() * 2);
        for t in &self.entries {
            triplets.push(*t);
            if t.row != t.col {
                triplets.push(Triplet::new(t.col, t.row, t.val));
            }
        }
        CooMatrix::from_triplets(n, n, triplets)
    }

    /// Counts nonzeros per row.
    pub fn row_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.rows];
        for t in &self.entries {
            counts[t.row] += 1;
        }
        counts
    }

    /// Counts nonzeros per column.
    pub fn col_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cols];
        for t in &self.entries {
            counts[t.col] += 1;
        }
        counts
    }
}

/// Canonicalizes a raw triplet list in place: stable row-major sort (by row,
/// then column) followed by duplicate summing in encounter order.
///
/// This is *the* assembly semantics of [`CooMatrix::from_triplets`], exposed
/// so out-of-core shard assembly can reproduce it exactly: because the sort
/// is stable and rows partition disjointly, normalizing each row-range shard
/// of a raw stream independently yields bit-identical entries (values summed
/// in the same left-to-right draw order) to normalizing the whole stream and
/// slicing afterwards.
pub fn normalize_triplets(entries: &mut Vec<Triplet>) {
    entries.sort_by_key(|t| (t.row, t.col));
    // Sum duplicates in place (two-pointer compaction, no second buffer).
    let mut len = 0usize;
    for i in 0..entries.len() {
        if len > 0
            && entries[len - 1].row == entries[i].row
            && entries[len - 1].col == entries[i].col
        {
            entries[len - 1].val += entries[i].val;
        } else {
            entries[len] = entries[i];
            len += 1;
        }
    }
    entries.truncate(len);
}

impl FromIterator<Triplet> for CooMatrix {
    /// Collects triplets into a matrix sized to fit the largest coordinates.
    fn from_iter<I: IntoIterator<Item = Triplet>>(iter: I) -> Self {
        let entries: Vec<Triplet> = iter.into_iter().collect();
        let rows = entries.iter().map(|t| t.row + 1).max().unwrap_or(0);
        let cols = entries.iter().map(|t| t.col + 1).max().unwrap_or(0);
        CooMatrix::from_triplets(rows, cols, entries)
            .expect("coordinates are in bounds by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_sorts_and_sums() {
        let m = CooMatrix::from_triplets(
            4,
            4,
            vec![(3, 1, 1.0), (0, 2, 2.0), (3, 1, 4.0), (0, 0, 1.0)],
        )
        .unwrap();
        assert_eq!(m.nnz(), 3);
        let t: Vec<_> = m.iter().collect();
        assert_eq!(t, vec![(0, 0, 1.0), (0, 2, 2.0), (3, 1, 5.0)]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let err = CooMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, MatrixError::CoordinateOutOfBounds { row: 2, .. }));
    }

    #[test]
    fn from_sorted_rejects_unsorted() {
        let ts = vec![Triplet::new(1, 0, 1.0), Triplet::new(0, 0, 1.0)];
        assert!(CooMatrix::from_sorted_triplets(2, 2, ts).is_err());
    }

    #[test]
    fn from_sorted_rejects_duplicates() {
        let ts = vec![Triplet::new(0, 0, 1.0), Triplet::new(0, 0, 2.0)];
        assert!(CooMatrix::from_sorted_triplets(2, 2, ts).is_err());
    }

    #[test]
    fn row_slice_reindexes() {
        let m = CooMatrix::from_triplets(
            6,
            4,
            vec![(0, 0, 1.0), (2, 1, 2.0), (3, 3, 3.0), (5, 2, 4.0)],
        )
        .unwrap();
        let s = m.row_slice(2..4);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 4);
        let t: Vec<_> = s.iter().collect();
        assert_eq!(t, vec![(0, 1, 2.0), (1, 3, 3.0)]);
    }

    #[test]
    fn row_blocks_match_a_filter_and_tile_the_matrix() {
        let m = CooMatrix::from_triplets(
            9,
            4,
            vec![(0, 0, 1.0), (2, 1, 2.0), (2, 3, 2.5), (3, 3, 3.0), (8, 2, 4.0)],
        )
        .unwrap();
        let bounds = [0, 2, 2, 3, 7, 9];
        let mut covered = 0;
        for w in bounds.windows(2) {
            let block = m.row_block(w[0]..w[1]);
            let filtered: Vec<Triplet> =
                m.triplets().iter().filter(|t| (w[0]..w[1]).contains(&t.row)).copied().collect();
            assert_eq!(block, filtered.as_slice(), "rows {}..{}", w[0], w[1]);
            covered += block.len();
        }
        assert_eq!(covered, m.nnz());
        assert!(m.row_block(9..9).is_empty());
    }

    #[test]
    fn transpose_round_trip() {
        let m = CooMatrix::from_triplets(3, 5, vec![(0, 4, 1.0), (2, 1, 2.0)]).unwrap();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn symmetrize_adds_mirror_entries() {
        let m = CooMatrix::from_triplets(3, 3, vec![(0, 1, 1.0), (2, 2, 5.0)]).unwrap();
        let s = m.symmetrize().unwrap();
        let t: Vec<_> = s.iter().collect();
        assert_eq!(t, vec![(0, 1, 1.0), (1, 0, 1.0), (2, 2, 5.0)]);
    }

    #[test]
    fn density_and_counts() {
        let m = CooMatrix::from_triplets(2, 4, vec![(0, 0, 1.0), (1, 3, 1.0)]).unwrap();
        assert!((m.density() - 0.25).abs() < 1e-12);
        assert_eq!(m.row_counts(), vec![1, 1]);
        assert_eq!(m.col_counts(), vec![1, 0, 0, 1]);
    }

    #[test]
    fn empty_matrix_behaves() {
        let m = CooMatrix::new(0, 0);
        assert!(m.is_empty());
        assert_eq!(m.density(), 0.0);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn collect_from_iterator_sizes_to_fit() {
        let m: CooMatrix =
            vec![Triplet::new(1, 2, 1.0), Triplet::new(0, 0, 2.0)].into_iter().collect();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }
}
