//! Coordinate (COO) sparse format — the assembly representation every
//! generator and parser produces before conversion to CSR.

use spmm_common::{Result, SpmmError};

/// A sparse matrix in coordinate form: unordered `(row, col, value)`
/// triplets plus explicit dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    values: Vec<f32>,
}

impl CooMatrix {
    /// Empty matrix with the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from parallel triplet arrays, validating bounds.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: Vec<u32>,
        cols: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self> {
        if rows.len() != cols.len() || rows.len() != values.len() {
            return Err(SpmmError::Shape {
                context: format!(
                    "triplet arrays disagree: {} rows, {} cols, {} values",
                    rows.len(),
                    cols.len(),
                    values.len()
                ),
            });
        }
        if let Some(&r) = rows.iter().find(|&&r| r as usize >= nrows) {
            return Err(SpmmError::IndexOutOfBounds {
                what: "row",
                index: r as usize,
                bound: nrows,
            });
        }
        if let Some(&c) = cols.iter().find(|&&c| c as usize >= ncols) {
            return Err(SpmmError::IndexOutOfBounds {
                what: "column",
                index: c as usize,
                bound: ncols,
            });
        }
        Ok(CooMatrix {
            nrows,
            ncols,
            rows,
            cols,
            values,
        })
    }

    /// Append one entry. Duplicate coordinates are allowed and summed by
    /// [`CooMatrix::dedup_sum`].
    ///
    /// # Panics
    /// If `row` or `col` lies outside the matrix, in every build: the
    /// CSR built from this matrix promises `col < ncols` to the row
    /// core, which reads the dense operand unchecked.
    #[inline]
    pub fn push(&mut self, row: u32, col: u32, value: f32) {
        assert!(
            (row as usize) < self.nrows && (col as usize) < self.ncols,
            "entry ({row}, {col}) outside a {}x{} matrix",
            self.nrows,
            self.ncols
        );
        self.rows.push(row);
        self.cols.push(col);
        self.values.push(value);
    }

    /// Number of stored triplets (may include duplicates before dedup).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Borrow the triplet arrays `(rows, cols, values)`.
    pub fn triplets(&self) -> (&[u32], &[u32], &[f32]) {
        (&self.rows, &self.cols, &self.values)
    }

    /// Sort triplets by `(row, col)` and sum duplicates, dropping entries
    /// whose summed value is exactly zero only if `drop_zeros` is set
    /// (pattern semantics usually want them kept).
    pub fn dedup_sum(&mut self, drop_zeros: bool) {
        let n = self.nnz();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| {
            ((self.rows[i as usize] as u64) << 32) | self.cols[i as usize] as u64
        });
        let mut rows = Vec::with_capacity(n);
        let mut cols = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for &i in &order {
            let (r, c, v) = (
                self.rows[i as usize],
                self.cols[i as usize],
                self.values[i as usize],
            );
            if let (Some(&lr), Some(&lc)) = (rows.last(), cols.last()) {
                if lr == r && lc == c {
                    *values.last_mut().unwrap() += v;
                    continue;
                }
            }
            rows.push(r);
            cols.push(c);
            values.push(v);
        }
        if drop_zeros {
            let keep: Vec<bool> = values.iter().map(|&v| v != 0.0).collect();
            let mut k = 0usize;
            rows.retain(|_| {
                k += 1;
                keep[k - 1]
            });
            k = 0;
            cols.retain(|_| {
                k += 1;
                keep[k - 1]
            });
            k = 0;
            values.retain(|_| {
                k += 1;
                keep[k - 1]
            });
        }
        self.rows = rows;
        self.cols = cols;
        self.values = values;
    }

    /// Make the pattern symmetric by adding the transpose of every
    /// off-diagonal entry (values mirrored), then deduplicating. Used to
    /// turn directed graph workloads into the undirected adjacency
    /// structure the reordering algorithms expect.
    pub fn symmetrize(&mut self) {
        assert_eq!(
            self.nrows, self.ncols,
            "symmetrize requires a square matrix"
        );
        let n = self.nnz();
        for i in 0..n {
            if self.rows[i] != self.cols[i] {
                self.rows.push(self.cols[i]);
                self.cols.push(self.rows[i]);
                self.values.push(self.values[i]);
            }
        }
        // Duplicate coordinates (already-symmetric pairs) would double the
        // value; keep the max-magnitude single value instead by averaging
        // mirrored sums. Simpler and sufficient: dedup by keeping first.
        self.dedup_keep_first();
    }

    /// Sort by `(row, col)` keeping only the first of each duplicate
    /// coordinate.
    pub fn dedup_keep_first(&mut self) {
        let n = self.nnz();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| {
            ((self.rows[i as usize] as u64) << 32) | self.cols[i as usize] as u64
        });
        let mut rows = Vec::with_capacity(n);
        let mut cols = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for &i in &order {
            let (r, c, v) = (
                self.rows[i as usize],
                self.cols[i as usize],
                self.values[i as usize],
            );
            if let (Some(&lr), Some(&lc)) = (rows.last(), cols.last()) {
                if lr == r && lc == c {
                    continue;
                }
            }
            rows.push(r);
            cols.push(c);
            values.push(v);
        }
        self.rows = rows;
        self.cols = cols;
        self.values = values;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_nnz() {
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 0, 1.0);
        m.push(2, 1, -2.0);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.nrows(), 3);
    }

    #[test]
    #[should_panic(expected = "entry (1, 7) outside a 2x2 matrix")]
    fn push_rejects_an_entry_outside_the_matrix() {
        CooMatrix::new(2, 2).push(1, 7, 1.0);
    }

    #[test]
    fn from_triplets_validates() {
        assert!(CooMatrix::from_triplets(2, 2, vec![0], vec![0, 1], vec![1.0]).is_err());
        assert!(CooMatrix::from_triplets(2, 2, vec![2], vec![0], vec![1.0]).is_err());
        assert!(CooMatrix::from_triplets(2, 2, vec![1], vec![2], vec![1.0]).is_err());
        assert!(CooMatrix::from_triplets(2, 2, vec![1], vec![1], vec![1.0]).is_ok());
    }

    #[test]
    fn dedup_sums_duplicates() {
        let mut m = CooMatrix::new(2, 2);
        m.push(1, 1, 2.0);
        m.push(0, 0, 1.0);
        m.push(1, 1, 3.0);
        m.dedup_sum(false);
        let (r, c, v) = m.triplets();
        assert_eq!(r, &[0, 1]);
        assert_eq!(c, &[0, 1]);
        assert_eq!(v, &[1.0, 5.0]);
    }

    #[test]
    fn dedup_drops_zero_sums_when_asked() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 0, 1.0);
        m.push(0, 0, -1.0);
        m.push(1, 0, 2.0);
        m.dedup_sum(true);
        assert_eq!(m.nnz(), 1);
        let (r, _, _) = m.triplets();
        assert_eq!(r, &[1]);
    }

    #[test]
    fn symmetrize_mirrors_entries() {
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 1, 1.0);
        m.push(2, 2, 4.0);
        m.symmetrize();
        let (r, c, _) = m.triplets();
        let pairs: Vec<(u32, u32)> = r.iter().copied().zip(c.iter().copied()).collect();
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(1, 0)));
        assert!(pairs.contains(&(2, 2)));
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn symmetrize_does_not_duplicate_existing_pairs() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, 1.0);
        m.push(1, 0, 1.0);
        m.symmetrize();
        assert_eq!(m.nnz(), 2);
    }
}
