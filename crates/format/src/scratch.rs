//! The TF32 operands of the TC SpMM paths.
//!
//! [`BStage`] is the dense half: one TF32-rounded copy of B, refreshed
//! once per multiply and reused across multiplies. [`execution_rows`]
//! is the sparse half, derived once per plan: the operand's CSR rows
//! with TF32 values. A multiply is one [`spmm_common::simd::mma_row_tier`]
//! call per row that reads the stage's rows *in place*, so no path
//! gathers B.

use spmm_common::scalar::{to_tf32, to_tf32_slice_into};
use spmm_common::simd::{to_tf32_slice_into_tier, IsaTier};
use spmm_common::util::is_permutation;
use spmm_common::{Result, SpmmError};
use spmm_matrix::{CsrMatrix, DenseMatrix};

/// Rows per parallel piece of [`execution_rows`].
const PIECE_ROWS: usize = 2048;

/// The execution rows of `csr`: row `i` is row `order[i]` (row `i`
/// when `order` is `None`) with every value TF32-rounded, each against
/// the B row it scales. With `skip_zeros` the values that round to ±0
/// are dropped — the A slots the BitTCF and ME-TCF tile MMAs skip;
/// without it they stay, as TCF's per-edge loop multiplies every edge.
/// One [`CsrMatrix::spmm_dense_into`] over these rows and a [`BStage`]
/// of B computes what the format's TC path computes, bit for bit.
///
/// # Errors
/// [`SpmmError::InvalidConfig`] if `order` is not a permutation of the
/// rows.
pub fn execution_rows(
    csr: &CsrMatrix,
    order: Option<&[u32]>,
    skip_zeros: bool,
) -> Result<CsrMatrix> {
    use rayon::prelude::*;
    let n = csr.nrows();
    if order.is_some_and(|o| o.len() != n || !is_permutation(o)) {
        return Err(SpmmError::InvalidConfig(
            "execution row order is not a permutation of the rows".into(),
        ));
    }
    let source = |i: usize| order.map_or(i, |o| o[i] as usize);
    // Kept entries per source row, counted in source order, then the
    // offsets of the rows in `order`.
    let mut kept = vec![0usize; n];
    kept.par_chunks_mut(PIECE_ROWS)
        .enumerate()
        .for_each(|(p, lens)| {
            for (k, len) in lens.iter_mut().enumerate() {
                *len = exec_row_len(csr.row(p * PIECE_ROWS + k).1, skip_zeros);
            }
        });
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    for i in 0..n {
        row_ptr.push(row_ptr[i] + kept[source(i)]);
    }
    // Fill in parallel, each piece of rows writing its own slices.
    let (mut cols, mut vals) = (vec![0u32; row_ptr[n]], vec![0.0f32; row_ptr[n]]);
    let mut pieces = Vec::with_capacity(n.div_ceil(PIECE_ROWS));
    let (mut c_rest, mut v_rest) = (&mut cols[..], &mut vals[..]);
    for lo in (0..n).step_by(PIECE_ROWS) {
        let hi = (lo + PIECE_ROWS).min(n);
        let (c, c_tail) = std::mem::take(&mut c_rest).split_at_mut(row_ptr[hi] - row_ptr[lo]);
        let (v, v_tail) = std::mem::take(&mut v_rest).split_at_mut(c.len());
        (c_rest, v_rest) = (c_tail, v_tail);
        pieces.push((lo..hi, c, v));
    }
    pieces.par_chunks_mut(1).for_each(|piece| {
        let (rows, c, v) = &mut piece[0];
        let base = row_ptr[rows.start];
        for i in rows.clone() {
            let span = row_ptr[i] - base..row_ptr[i + 1] - base;
            let (rc, rv) = csr.row(source(i));
            write_exec_row(rc, rv, skip_zeros, &mut c[span.clone()], &mut v[span]);
        }
    });
    CsrMatrix::new(n, csr.ncols(), row_ptr, cols, vals)
}

/// [`execution_rows`] of `csr` in row order, spliced from `prior`: the
/// execution rows, under the same `skip_zeros`, of an operand that
/// agrees with `csr` outside the rows in `touched` (strictly
/// ascending). Each run of untouched rows is copied from `prior` whole
/// ([`CsrMatrix::append_rows_to`]); only the touched rows are derived,
/// by the rule [`execution_rows`] applies. Under that precondition the
/// result equals `execution_rows(csr, None, skip_zeros)` bit for bit.
///
/// # Errors
/// [`SpmmError::Shape`] if `prior` and `csr` differ in shape;
/// [`SpmmError::InvalidConfig`] if `touched` is not strictly ascending
/// or names a row past the last.
pub fn splice_execution_rows(
    prior: &CsrMatrix,
    csr: &CsrMatrix,
    touched: &[usize],
    skip_zeros: bool,
) -> Result<CsrMatrix> {
    let n = csr.nrows();
    if (prior.nrows(), prior.ncols()) != (n, csr.ncols()) {
        return Err(SpmmError::shape(format!(
            "prior execution rows are {}x{}, the operand is {n}x{}",
            prior.nrows(),
            prior.ncols(),
            csr.ncols()
        )));
    }
    if touched.windows(2).any(|w| w[0] >= w[1]) || touched.last().is_some_and(|&r| r >= n) {
        return Err(SpmmError::InvalidConfig(
            "touched rows must be strictly ascending rows of the operand".into(),
        ));
    }
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    // An execution row never outgrows its stored row.
    let (mut cols, mut vals) = (Vec::with_capacity(csr.nnz()), Vec::with_capacity(csr.nnz()));
    let mut next = 0;
    // Each touched row ends a run of untouched ones; the last run ends
    // at `n`.
    for r in touched.iter().copied().chain([n]) {
        prior.append_rows_to(next, r, &mut row_ptr, &mut cols, &mut vals);
        if r < n {
            let (rc, rv) = csr.row(r);
            let start = cols.len();
            let end = start + exec_row_len(rv, skip_zeros);
            cols.resize(end, 0);
            vals.resize(end, 0.0);
            write_exec_row(rc, rv, skip_zeros, &mut cols[start..], &mut vals[start..]);
            row_ptr.push(end);
            next = r + 1;
        }
    }
    CsrMatrix::new(n, csr.ncols(), row_ptr, cols, vals)
}

/// Whether an execution row keeps stored value `v`: always, unless
/// `skip_zeros` and `v` rounds to ±0 in TF32.
#[inline]
fn keeps(v: f32, skip_zeros: bool) -> bool {
    !skip_zeros || to_tf32(v) != 0.0
}

/// Entries the execution row of a stored row with values `vals` keeps.
fn exec_row_len(vals: &[f32], skip_zeros: bool) -> usize {
    vals.iter().filter(|&&v| keeps(v, skip_zeros)).count()
}

/// Write the execution row of the stored row `(cols, vals)` into
/// `(c, v)`, both [`exec_row_len`] long: the kept entries in order,
/// values TF32-rounded.
fn write_exec_row(cols: &[u32], vals: &[f32], skip_zeros: bool, c: &mut [u32], v: &mut [f32]) {
    if c.len() == cols.len() {
        // Nothing dropped: copy the columns, round the values.
        c.copy_from_slice(cols);
        to_tf32_slice_into(vals, v);
        return;
    }
    let pairs = cols
        .iter()
        .zip(vals)
        .filter(|&(_, &val)| keeps(val, skip_zeros));
    for (k, (&col, &val)) in pairs.enumerate() {
        (c[k], v[k]) = (col, to_tf32(val));
    }
}

/// A TF32-rounded staging copy of a dense operand.
///
/// `stage` rounds the whole matrix once (idempotent, so bit-identical to
/// rounding at every use); the buffer grows monotonically and is reused
/// across multiplies. Rows read it concurrently through shared
/// references, matching the read-only B slab in GPU global memory.
#[derive(Debug, Clone, Default)]
pub struct BStage {
    b: DenseMatrix,
}

impl BStage {
    /// An empty stage; the buffer is grown on first use.
    pub fn new() -> Self {
        BStage::default()
    }

    /// Pre-size the backing buffer for an `nrows × ncols` operand.
    pub fn reserve(&mut self, nrows: usize, ncols: usize) {
        if self.b.as_slice().len() < nrows * ncols {
            self.b.reshape_reuse(nrows, ncols);
        }
    }

    /// Round `b` into the stage (growing the buffer if needed) at an
    /// explicit ISA tier (plan-resolved; every tier rounds
    /// bit-identically, so the choice is pure speed).
    pub fn stage_tier(&mut self, b: &DenseMatrix, tier: IsaTier) {
        self.b.reshape_reuse(b.nrows(), b.ncols());
        to_tf32_slice_into_tier(b.as_slice(), self.b.as_mut_slice(), tier);
    }

    /// Round several operands with the same row count into one stage,
    /// side by side: staged row `r` is `[bs[0] row r | bs[1] row r | …]`.
    /// This is the batched executor's B layout — each execution row
    /// then serves every RHS as a single wide row product, and a column
    /// of the result depends only on the same column of B, so each
    /// RHS's output is exactly its own single-operand product.
    ///
    /// # Panics
    /// If the operands' row counts differ.
    pub fn stage_side_by_side_tier(&mut self, bs: &[DenseMatrix], tier: IsaTier) {
        let nrows = bs.first().map_or(0, |b| b.nrows());
        assert!(
            bs.iter().all(|b| b.nrows() == nrows),
            "side-by-side operands must share a row count"
        );
        let ncols: usize = bs.iter().map(|b| b.ncols()).sum();
        self.b.reshape_reuse(nrows, ncols);
        for (r, row) in self
            .b
            .as_mut_slice()
            .chunks_exact_mut(ncols.max(1))
            .enumerate()
        {
            let mut off = 0;
            for b in bs {
                let n = b.ncols();
                to_tf32_slice_into_tier(b.row(r), &mut row[off..off + n], tier);
                off += n;
            }
        }
    }

    /// Rows of the staged operand.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.b.nrows()
    }

    /// Columns of the staged operand.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.b.ncols()
    }

    /// Row `r` of the staged (pre-rounded) operand.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        self.b.row(r)
    }

    /// The staged operand as a matrix (what the CSR row loop reads).
    #[inline]
    pub fn as_dense(&self) -> &DenseMatrix {
        &self.b
    }

    /// Bytes of backing storage currently retained by the stage (the
    /// quantity a paged workspace allocator meters).
    pub fn footprint_bytes(&self) -> usize {
        self.b.capacity_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_common::scalar::to_tf32;

    #[test]
    fn ensure_grows_monotonically() {
        // The buffer grows to the largest operand reserved or staged and
        // is kept: a paged allocator meters what the stage retains.
        let mut stage = BStage::new();
        assert_eq!(stage.footprint_bytes(), 0);
        stage.reserve(16, 8);
        let grown = stage.footprint_bytes();
        assert!(grown >= 16 * 8 * 4);
        stage.stage_tier(&DenseMatrix::random(4, 4, 1), IsaTier::probe());
        assert_eq!(stage.footprint_bytes(), grown, "never shrinks");
        stage.stage_tier(&DenseMatrix::random(32, 8, 2), IsaTier::probe());
        assert!(stage.footprint_bytes() >= 32 * 8 * 4);
    }

    #[test]
    fn stage_rounds_every_element() {
        let b = DenseMatrix::from_fn(5, 3, |r, c| 1.2345678 + r as f32 * 0.1 + c as f32);
        let mut stage = BStage::new();
        stage.stage_tier(&b, IsaTier::probe());
        assert_eq!(stage.nrows(), 5);
        assert_eq!(stage.ncols(), 3);
        for r in 0..5 {
            for c in 0..3 {
                assert_eq!(stage.row(r)[c].to_bits(), to_tf32(b.get(r, c)).to_bits());
            }
        }
    }

    #[test]
    fn stage_reuse_across_shapes_is_exact() {
        let mut stage = BStage::new();
        let big = DenseMatrix::random(16, 8, 1);
        stage.stage_tier(&big, IsaTier::probe());
        // Restaging a smaller matrix must not read stale tail data.
        let small = DenseMatrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32 + 0.5);
        stage.stage_tier(&small, IsaTier::probe());
        assert_eq!(stage.nrows(), 2);
        assert_eq!(stage.ncols(), 2);
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(
                    stage.row(r)[c].to_bits(),
                    to_tf32(small.get(r, c)).to_bits()
                );
            }
        }
    }

    #[test]
    fn side_by_side_stage_interleaves_rounded_rows() {
        let a = DenseMatrix::from_fn(3, 2, |r, c| 1.2345678 + (r * 2 + c) as f32);
        let b = DenseMatrix::from_fn(3, 3, |r, c| -7.654321 - (r * 3 + c) as f32);
        let mut stage = BStage::new();
        // A larger earlier shape must not leak into the new layout.
        stage.stage_tier(&DenseMatrix::random(9, 9, 4), IsaTier::probe());
        stage.stage_side_by_side_tier(&[a.clone(), b.clone()], IsaTier::probe());
        assert_eq!((stage.nrows(), stage.ncols()), (3, 5));
        for r in 0..3 {
            let want: Vec<u32> = a
                .row(r)
                .iter()
                .chain(b.row(r))
                .map(|&x| to_tf32(x).to_bits())
                .collect();
            let got: Vec<u32> = stage.row(r).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "row {r}");
        }
    }
}
