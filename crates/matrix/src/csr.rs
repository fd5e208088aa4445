//! Compressed Sparse Row format — the canonical input format of the
//! library, matching what cuSPARSE and all compared kernels consume.

use crate::coo::CooMatrix;
use crate::dense::DenseMatrix;
use rayon::prelude::*;
use spmm_common::{mma_row_tier_unchecked, IsaTier, Result, SpmmError};
use std::sync::OnceLock;

/// A CSR sparse matrix with `f32` values and `u32` column indices.
///
/// Invariants (checked by [`CsrMatrix::validate`], maintained by all
/// constructors):
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`, monotone
///   non-decreasing, `row_ptr[nrows] == col_idx.len() == values.len()`;
/// * within each row, column indices are strictly increasing and
///   `< ncols`. The row loops of [`CsrMatrix::spmm_dense_into`] read B
///   unchecked on the strength of this bound.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
    /// Lazily computed [`CsrMatrix::content_fingerprint`]. Cloning
    /// carries the cached value (the clone's content is identical);
    /// in-place mutation paths must call
    /// [`CsrMatrix::invalidate_fingerprint`].
    fingerprint: OnceLock<u64>,
}

/// Equality is over matrix content only — the fingerprint cache is
/// derived state and deliberately excluded.
impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.values == other.values
    }
}

/// Lane seeds of [`CsrMatrix::content_fingerprint`]: distinct, so the
/// same word reads differently in each lane.
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
/// Odd multiplier every lane folds its words with.
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Start of the in-order fold of the four lanes into one fingerprint.
const FINISH_SEED: u64 = 0x4528_21e6_38d0_1377;

/// The 128-bit product of `a` and `b`, low half XOR high half: every
/// input bit reaches the low output bits, unlike a wrapping multiply,
/// under which a flip of bit 63 only ever flips bit 63.
#[inline(always)]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = a as u128 * b as u128;
    p as u64 ^ (p >> 64) as u64
}

/// Absorb up to four words, one into each leading lane: a full group
/// of a section, or its tail.
#[inline(always)]
fn absorb(lanes: &mut [u64; 4], words: impl IntoIterator<Item = u64>) {
    let mut words = words.into_iter();
    for (lane, w) in lanes.iter_mut().zip(words.by_ref()) {
        *lane = fold_mul(*lane ^ w, LANE_MUL);
    }
    debug_assert!(words.next().is_none(), "at most one word per lane");
}

impl CsrMatrix {
    /// Construct from raw arrays, validating every invariant.
    pub fn new(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self> {
        let m = CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
            fingerprint: OnceLock::new(),
        };
        m.validate()?;
        Ok(m)
    }

    /// Check the structural invariants; used by constructors and tests.
    /// A branch-light pass decides whether they hold, so a well-formed
    /// matrix is checked at memory speed; only a malformed one pays for
    /// the detailed pass that names its first violation.
    pub fn validate(&self) -> Result<()> {
        if self.is_well_formed() {
            return Ok(());
        }
        self.first_violation()
    }

    /// Whether every invariant [`CsrMatrix::first_violation`] checks
    /// holds, decided by flat passes with no early exit: the row
    /// pointers run from 0 to nnz without decreasing, every column is
    /// below `ncols`, and each row's columns strictly increase.
    fn is_well_formed(&self) -> bool {
        let (ptr, cols) = (&self.row_ptr, &self.col_idx);
        let nnz = cols.len();
        if Some(ptr.len()) != self.nrows.checked_add(1)
            || ptr[0] != 0
            || self.values.len() != nnz
            || ptr[self.nrows] != nnz
        {
            return false;
        }
        let rows = || ptr.iter().zip(&ptr[1..]);
        // Non-decreasing from 0 to nnz bounds every entry by nnz, which
        // the row-start pass below relies on.
        if !rows().fold(true, |ok, (start, end)| ok & (start <= end)) {
            return false;
        }
        let Some((&first, rest)) = cols.split_first() else {
            return true;
        };
        if rest.is_empty() {
            return (first as usize) < self.ncols;
        }
        // One pass over the columns: the largest, and how many adjacent
        // pairs do not increase (counted in u32 per chunk).
        let (mut max_col, mut non_increasing) = (first, 0);
        for (prev, next) in cols.chunks(1 << 16).zip(rest.chunks(1 << 16)) {
            let (max, count) = (prev.iter().zip(next)).fold((0, 0u32), |(max, count), (&p, &c)| {
                (max.max(c), count + u32::from(c <= p))
            });
            max_col = max_col.max(max);
            non_increasing += count as usize;
        }
        // Columns strictly increase within every row iff every
        // non-increasing pair straddles a row boundary: the first entry
        // of a non-empty row and the entry before it.
        let at_row_starts: usize = rows()
            .map(|(&start, &end)| {
                let i = start.clamp(1, nnz - 1);
                usize::from((start > 0) & (end > start) & (cols[i] <= cols[i - 1]))
            })
            .sum();
        (max_col as usize) < self.ncols && non_increasing == at_row_starts
    }

    /// The first violated invariant, in the order `validate` reports
    /// them, or `Ok` if none is.
    fn first_violation(&self) -> Result<()> {
        if Some(self.row_ptr.len()) != self.nrows.checked_add(1) {
            return Err(SpmmError::MalformedFormat {
                detail: format!(
                    "row_ptr has {} entries for {} rows",
                    self.row_ptr.len(),
                    self.nrows
                ),
            });
        }
        if self.row_ptr[0] != 0 {
            return Err(SpmmError::MalformedFormat {
                detail: "row_ptr[0] != 0".into(),
            });
        }
        if self.col_idx.len() != self.values.len() {
            return Err(SpmmError::MalformedFormat {
                detail: "col_idx and values lengths differ".into(),
            });
        }
        if *self.row_ptr.last().unwrap() != self.col_idx.len() {
            return Err(SpmmError::MalformedFormat {
                detail: "row_ptr does not terminate at nnz".into(),
            });
        }
        // Non-decreasing from 0 to nnz bounds every entry by nnz; check
        // all of them before any row slices `col_idx`.
        if let Some(r) = self.row_ptr.windows(2).position(|w| w[1] < w[0]) {
            return Err(SpmmError::MalformedFormat {
                detail: format!("row_ptr decreases at row {r}"),
            });
        }
        for r in 0..self.nrows {
            let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let mut prev: Option<u32> = None;
            for &c in &self.col_idx[s..e] {
                if c as usize >= self.ncols {
                    return Err(SpmmError::IndexOutOfBounds {
                        what: "column",
                        index: c as usize,
                        bound: self.ncols,
                    });
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(SpmmError::MalformedFormat {
                            detail: format!("row {r} columns not strictly increasing"),
                        });
                    }
                }
                prev = Some(c);
            }
        }
        Ok(())
    }

    /// A stable 64-bit fingerprint of the matrix *content* (shape,
    /// sparsity pattern, and value bit patterns), suitable as a cache
    /// key for preprocessing artifacts shared across callers: two
    /// bit-identical CSR structures fingerprint equal, and different
    /// ones collide only by chance (a 64-bit hash, not a cryptographic
    /// one). The content is a stream of 64-bit words — `nrows`,
    /// `ncols`, the `row_ptr` entries, then one `(value_bits << 32) |
    /// col` word per stored entry — and each section is dealt round
    /// robin to four independent lanes, so the hash runs at memory
    /// speed rather than one dependent multiply per byte. A lane absorbs
    /// a word with a folded 64×64→128-bit multiply (low half XOR high
    /// half), which carries high input bits, such as a value's sign, into
    /// the low output bits; the lanes are folded together in order at
    /// the end. Deterministic across runs and platforms (unlike
    /// `DefaultHasher`, whose seed varies). A plan file records the
    /// input operand's fingerprint, and loading it checks the operand
    /// the caller passes against it, so a change of definition bumps
    /// `PLAN_IR_VERSION`.
    ///
    /// Computed once and cached: plan-cache lookups may fingerprint the
    /// same operand many times per session. In-place mutators must call
    /// [`CsrMatrix::invalidate_fingerprint`] (the provided ones do).
    pub fn content_fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| self.compute_content_fingerprint())
    }

    fn compute_content_fingerprint(&self) -> u64 {
        let mut lanes = LANE_SEEDS;
        absorb(&mut lanes, [self.nrows as u64, self.ncols as u64]);
        let ptrs = self.row_ptr.chunks_exact(4);
        let tail = ptrs.remainder();
        for p in ptrs {
            absorb(&mut lanes, [0, 1, 2, 3].map(|k| p[k] as u64));
        }
        absorb(&mut lanes, tail.iter().map(|&p| p as u64));
        let entry = |c: u32, v: f32| ((v.to_bits() as u64) << 32) | c as u64;
        let (cols, vals) = (self.col_idx.chunks_exact(4), self.values.chunks_exact(4));
        let tail = cols.remainder().iter().zip(vals.remainder());
        for (c, v) in cols.zip(vals) {
            absorb(&mut lanes, [0, 1, 2, 3].map(|k| entry(c[k], v[k])));
        }
        absorb(&mut lanes, tail.map(|(&c, &v)| entry(c, v)));
        lanes
            .iter()
            .fold(FINISH_SEED, |h, &lane| fold_mul(h ^ lane, LANE_MUL))
    }

    /// Drop the cached [`CsrMatrix::content_fingerprint`]. Every
    /// mutation of the matrix content must route through this (the
    /// in-place mutators below already do); constructors start with an
    /// empty cache.
    pub fn invalidate_fingerprint(&mut self) {
        self.fingerprint = OnceLock::new();
    }

    /// Mutable access to the stored values (row-major, parallel to
    /// [`CsrMatrix::col_idx`]) — the supported in-place mutation path
    /// for value-only edits (e.g. reweighting a graph without changing
    /// its structure). Invalidates the cached fingerprint.
    pub fn values_mut(&mut self) -> &mut [f32] {
        self.invalidate_fingerprint();
        &mut self.values
    }

    /// Convert from COO (duplicates are summed, entries sorted).
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let mut coo = coo.clone();
        coo.dedup_sum(false);
        let (rows, cols, vals) = coo.triplets();
        let mut row_counts = vec![0usize; coo.nrows()];
        for &r in rows {
            row_counts[r as usize] += 1;
        }
        let row_ptr = spmm_common::prefix::counts_to_offsets(&row_counts);
        // dedup_sum sorted by (row, col) so we can copy straight through.
        CsrMatrix {
            nrows: coo.nrows(),
            ncols: coo.ncols(),
            row_ptr,
            col_idx: cols.to_vec(),
            values: vals.to_vec(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Convert to COO triplets (sorted by row then column).
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::new(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                coo.push(r as u32, self.col_idx[k], self.values[k]);
            }
        }
        coo
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

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row-pointer array (`nrows + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// All column indices, row-major.
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// All values, row-major.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Number of non-zeros in row `r`.
    #[inline]
    pub fn row_len(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Average non-zeros per row — the paper's `AvgL` dataset statistic.
    pub fn avg_row_len(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }

    /// Transpose (also converts CSR→CSC interpretation).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.col_idx {
            counts[c as usize] += 1;
        }
        let row_ptr = spmm_common::prefix::counts_to_offsets(&counts);
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0f32; self.nnz()];
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let dst = next[c];
                next[c] += 1;
                col_idx[dst] = r as u32;
                values[dst] = self.values[k];
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
            fingerprint: OnceLock::new(),
        }
    }

    /// Apply a row permutation: row `old` of `self` becomes row
    /// `perm[old]` of the result. This is how reorderings are applied to
    /// the sparse operand (the paper leaves the dense operand unpermuted,
    /// which row-only permutation preserves exactly: only the order of
    /// output rows changes, and kernels scatter results back through the
    /// permutation).
    pub fn permute_rows(&self, perm: &[u32]) -> Result<CsrMatrix> {
        if perm.len() != self.nrows {
            return Err(SpmmError::Shape {
                context: format!(
                    "permutation of length {} applied to {} rows",
                    perm.len(),
                    self.nrows
                ),
            });
        }
        if !spmm_common::util::is_permutation(perm) {
            return Err(SpmmError::InvalidConfig(
                "row permutation is not a bijection".into(),
            ));
        }
        let inv = spmm_common::util::invert_permutation(perm);
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for &old_r in &inv {
            let (cols, vals) = self.row(old_r as usize);
            col_idx.extend_from_slice(cols);
            values.extend_from_slice(vals);
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
            fingerprint: OnceLock::new(),
        })
    }

    /// Rows `[lo, hi)` as a standalone matrix over the same columns.
    /// Every stored entry is copied as it is — explicit zeros, NaN and
    /// signed zeros included — unlike [`CsrMatrix::submatrix`], which
    /// round-trips through COO.
    ///
    /// # Panics
    /// If `lo > hi` or `hi > nrows`.
    pub fn row_block(&self, lo: usize, hi: usize) -> CsrMatrix {
        let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
        self.append_rows_to(lo, hi, &mut row_ptr, &mut col_idx, &mut values);
        CsrMatrix {
            nrows: hi - lo,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
            fingerprint: OnceLock::new(),
        }
    }

    /// Append rows `[lo, hi)` to CSR arrays under construction: one
    /// copy of their columns, one of their values, and their row
    /// pointers shifted to the arrays' end. `row_ptr` must end at
    /// `col_idx.len()`. Entries are copied as they are, bit for bit.
    ///
    /// # Panics
    /// If `lo > hi` or `hi > nrows`.
    pub fn append_rows_to(
        &self,
        lo: usize,
        hi: usize,
        row_ptr: &mut Vec<usize>,
        col_idx: &mut Vec<u32>,
        values: &mut Vec<f32>,
    ) {
        assert!(lo <= hi && hi <= self.nrows, "row span out of bounds");
        debug_assert_eq!(row_ptr.last(), Some(&col_idx.len()));
        let (s, e) = (self.row_ptr[lo], self.row_ptr[hi]);
        let shift = col_idx.len();
        col_idx.extend_from_slice(&self.col_idx[s..e]);
        values.extend_from_slice(&self.values[s..e]);
        row_ptr.extend(self.row_ptr[lo + 1..=hi].iter().map(|&p| p - s + shift));
    }

    /// Reference SpMM: `C = self × B` in full FP32, parallelized over rows
    /// with rayon. Every kernel's functional output is validated against
    /// this implementation. It runs the row core's scalar arm: per output
    /// lane, `c[j] += v * b[j]` over the row's stored entries in
    /// ascending order, every stored zero multiplied.
    pub fn spmm_dense(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        let mut c = DenseMatrix::zeros(self.nrows, b.ncols());
        self.spmm_dense_into(b, &mut c, IsaTier::Scalar)?;
        Ok(c)
    }

    /// [`CsrMatrix::spmm_dense`] writing into a caller-provided output
    /// (overwritten, not accumulated) at an explicit ISA tier — the
    /// allocation-free hot path of the CSR kernels. Each output row is
    /// zeroed, then one [`mma_row_tier_unchecked`] call over the row's
    /// values and column indices, so the result is bit-identical on every tier.
    pub fn spmm_dense_into(
        &self,
        b: &DenseMatrix,
        c: &mut DenseMatrix,
        tier: IsaTier,
    ) -> Result<()> {
        self.check_product_shape(b, c)?;
        // Split the output into row chunks; each row only reads A and B.
        c.as_mut_slice()
            .par_chunks_mut(b.ncols().max(1))
            .enumerate()
            .for_each(|(r, crow)| {
                let (cols, vals) = self.row(r);
                crow.fill(0.0);
                // SAFETY: every column is `< self.ncols` (a CSR
                // invariant every constructor keeps), `self.ncols ==
                // b.nrows()` and `crow.len() == b.ncols()` by the shape
                // check, so each row `cols[t]` lies inside `b`.
                unsafe { mma_row_tier_unchecked(vals, cols, b.as_slice(), crow, tier) };
            });
        Ok(())
    }

    /// Sequential [`CsrMatrix::spmm_dense_into`] — bit-identical to the
    /// parallel path (rows are independent and per-row accumulation
    /// order is the same), for callers that parallelize at a coarser
    /// granularity (e.g. over a batch of dense operands).
    pub fn spmm_dense_into_seq(
        &self,
        b: &DenseMatrix,
        c: &mut DenseMatrix,
        tier: IsaTier,
    ) -> Result<()> {
        self.check_product_shape(b, c)?;
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            let crow = c.row_mut(r);
            crow.fill(0.0);
            // SAFETY: as in `spmm_dense_into`: columns `< self.ncols ==
            // b.nrows()` (CSR invariant and shape check), `crow.len() ==
            // b.ncols()`.
            unsafe { mma_row_tier_unchecked(vals, cols, b.as_slice(), crow, tier) };
        }
        Ok(())
    }

    /// `C = self × B` needs B with `ncols` rows and C of `nrows × B.ncols`.
    fn check_product_shape(&self, b: &DenseMatrix, c: &DenseMatrix) -> Result<()> {
        if self.ncols != b.nrows() || c.nrows() != self.nrows || c.ncols() != b.ncols() {
            return Err(SpmmError::Shape {
                context: format!(
                    "A is {}x{}, B is {}x{}, C is {}x{}",
                    self.nrows,
                    self.ncols,
                    b.nrows(),
                    b.ncols(),
                    c.nrows(),
                    c.ncols()
                ),
            });
        }
        Ok(())
    }

    /// Densify (small matrices only; used in tests).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                d.set(r, c as usize, v);
            }
        }
        d
    }

    /// Histogram of row lengths as `f64` (input to IBD-style statistics).
    pub fn row_lens_f64(&self) -> Vec<f64> {
        (0..self.nrows).map(|r| self.row_len(r) as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> CsrMatrix {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        CsrMatrix::new(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn validate_catches_malformed() {
        assert!(CsrMatrix::new(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CsrMatrix::new(2, 2, vec![1, 1, 1], vec![0], vec![1.0]).is_err());
        assert!(CsrMatrix::new(2, 2, vec![0, 2, 2], vec![1, 0], vec![1.0, 1.0]).is_err());
        assert!(CsrMatrix::new(2, 2, vec![0, 1, 1], vec![5], vec![1.0]).is_err());
        assert!(CsrMatrix::new(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
        // row_ptr overshoots nnz mid-array: an error, not a slice panic.
        assert!(CsrMatrix::new(2, 4, vec![0, 10, 5], vec![0, 1, 2, 3, 0], vec![1.0; 5]).is_err());
    }

    /// A small CSR built from `seed`: valid, or broken in one of the
    /// ways `validate` names (or at random), fields set directly.
    fn maybe_malformed(seed: u64, nrows: usize, ncols: usize, how: u8) -> CsrMatrix {
        let mut state = seed;
        let mut next = |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound.max(1) as u64) as usize
        };
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for _ in 0..nrows {
            let mut c = 0;
            for _ in 0..next(4) {
                c += next(3);
                if c < ncols {
                    col_idx.push(c as u32);
                    c += 1;
                }
            }
            row_ptr.push(col_idx.len());
        }
        let nnz = col_idx.len();
        let mut values = vec![1.0; nnz];
        match how {
            0 => {}
            1 if nnz > 1 => col_idx.swap(next(nnz - 1), nnz - 1),
            2 if nnz > 1 => {
                let i = next(nnz - 1);
                col_idx[i + 1] = col_idx[i];
            }
            3 if nnz > 0 => col_idx[next(nnz)] = (ncols + next(3)) as u32,
            4 => row_ptr[next(nrows + 1)] = next(nnz + 3),
            5 => values.truncate(nnz.saturating_sub(1)),
            6 => drop(row_ptr.pop()),
            7 => row_ptr.push(nnz),
            8 => {
                for p in &mut row_ptr {
                    *p = next(nnz + 2);
                }
            }
            _ => {
                for c in &mut col_idx {
                    *c = next(ncols + 1) as u32;
                }
            }
        }
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
            fingerprint: OnceLock::new(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn flat_and_detailed_validation_agree(
            seed in any::<u64>(),
            nrows in 0usize..7,
            ncols in 0usize..7,
            how in 0u8..10,
        ) {
            let m = maybe_malformed(seed, nrows, ncols, how);
            prop_assert_eq!(m.is_well_formed(), m.first_violation().is_ok());
            prop_assert_eq!(m.validate(), m.first_violation());
        }
    }

    #[test]
    fn coo_roundtrip() {
        let m = small();
        let rt = CsrMatrix::from_coo(&m.to_coo());
        assert_eq!(m, rt);
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(0, 1, 2.5);
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.values(), &[3.5]);
    }

    #[test]
    fn transpose_involution() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.get_dense(0, 2), 3.0);
        assert_eq!(m, t.transpose());
    }

    impl CsrMatrix {
        fn get_dense(&self, r: usize, c: usize) -> f32 {
            self.to_dense().get(r, c)
        }
    }

    #[test]
    fn permute_rows_moves_rows() {
        let m = small();
        // old row 0 -> new 2, 1 -> 0, 2 -> 1.
        let p = m.permute_rows(&[2, 0, 1]).unwrap();
        assert_eq!(p.row(2).0, m.row(0).0);
        assert_eq!(p.row(2).1, m.row(0).1);
        assert_eq!(p.row_len(0), 0);
        assert_eq!(p.row(1).1, m.row(2).1);
    }

    #[test]
    fn permute_rows_rejects_invalid() {
        let m = small();
        assert!(m.permute_rows(&[0, 0, 1]).is_err());
        assert!(m.permute_rows(&[0, 1]).is_err());
    }

    #[test]
    fn spmm_matches_dense_reference() {
        let m = small();
        let b = DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f32);
        let c = m.spmm_dense(&b).unwrap();
        // Manual: row0 = 1*B[0] + 2*B[2] = [0+4, 1+6] = [4, 7]
        assert_eq!(c.row(0), &[4.0, 7.0]);
        assert_eq!(c.row(1), &[0.0, 0.0]);
        // row2 = 3*B[0] + 4*B[1] = [0+4, 3+8] = [4, 11]
        assert_eq!(c.row(2), &[4.0, 11.0]);
    }

    #[test]
    fn spmm_rejects_mismatched_shapes() {
        let m = small();
        let b = DenseMatrix::zeros(4, 2);
        assert!(m.spmm_dense(&b).is_err());
    }

    #[test]
    fn avg_row_len_matches() {
        let m = small();
        assert!((m.avg_row_len() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn content_fingerprint_is_stable_and_content_sensitive() {
        let m = small();
        // Deterministic across calls and across equal reconstructions.
        assert_eq!(m.content_fingerprint(), m.content_fingerprint());
        let rebuilt = CsrMatrix::new(
            m.nrows(),
            m.ncols(),
            m.row_ptr().to_vec(),
            m.col_idx().to_vec(),
            m.values().to_vec(),
        )
        .unwrap();
        assert_eq!(m.content_fingerprint(), rebuilt.content_fingerprint());
        // Any content perturbation changes the fingerprint: a value ...
        let mut vals = m.values().to_vec();
        vals[0] += 1.0;
        let v2 = CsrMatrix::new(
            m.nrows(),
            m.ncols(),
            m.row_ptr().to_vec(),
            m.col_idx().to_vec(),
            vals,
        )
        .unwrap();
        assert_ne!(m.content_fingerprint(), v2.content_fingerprint());
        // ... the pattern ...
        let moved = CsrMatrix::new(
            m.nrows(),
            m.ncols(),
            m.row_ptr().to_vec(),
            vec![1, 2, 0, 2],
            m.values().to_vec(),
        )
        .unwrap();
        assert_ne!(m.content_fingerprint(), moved.content_fingerprint());
        // ... or the shape alone (extra padding column).
        let wider = CsrMatrix::new(
            m.nrows(),
            m.ncols() + 1,
            m.row_ptr().to_vec(),
            m.col_idx().to_vec(),
            m.values().to_vec(),
        )
        .unwrap();
        assert_ne!(m.content_fingerprint(), wider.content_fingerprint());
        // ... or swapping two entries' values (lane interleaving must
        // not hide an order change).
        let mut vals = m.values().to_vec();
        vals.swap(0, 2);
        let swapped = with_values(&m, vals);
        assert_ne!(m.content_fingerprint(), swapped.content_fingerprint());
    }

    /// `m`'s pattern with other values.
    fn with_values(m: &CsrMatrix, vals: Vec<f32>) -> CsrMatrix {
        CsrMatrix::new(
            m.nrows(),
            m.ncols(),
            m.row_ptr().to_vec(),
            m.col_idx().to_vec(),
            vals,
        )
        .unwrap()
    }

    #[test]
    fn content_fingerprint_sees_paired_sign_flips_and_swaps_in_every_lane() {
        // 13 stored entries with distinct values: three full lane groups
        // and a tail of one.
        let m = CsrMatrix::new(
            4,
            8,
            vec![0, 4, 7, 11, 13],
            vec![0, 2, 5, 7, 1, 3, 6, 0, 4, 5, 7, 2, 6],
            (0..13).map(|k| 0.75 * k as f32 + 1.0).collect(),
        )
        .unwrap();
        let fp = m.content_fingerprint();
        let vals = m.values();
        for i in 0..m.nnz() {
            // One sign flip alone, the tail entry included.
            let mut one = vals.to_vec();
            one[i] = -one[i];
            assert_ne!(fp, with_values(&m, one.clone()).content_fingerprint());
            for j in [i + 1, i + 4].into_iter().filter(|&j| j < m.nnz()) {
                // Bit 63 of two packed words: a word-wise FNV would
                // cancel the pair, whether the words sit in adjacent
                // lanes (i, i + 1) or share one (i, i + 4).
                let mut two = one.clone();
                two[j] = -two[j];
                let flipped = with_values(&m, two);
                assert_ne!(fp, flipped.content_fingerprint(), "flip {i} and {j}");
                // Two entries trading values, across lanes or in one.
                let mut swapped = vals.to_vec();
                swapped.swap(i, j);
                let swapped = with_values(&m, swapped);
                assert_ne!(fp, swapped.content_fingerprint(), "swap {i} and {j}");
            }
        }
    }

    #[test]
    fn content_fingerprint_separates_tails_and_empty_shapes() {
        // Every nnz from 0 to 9 over one row: the tails of every length,
        // and each one differs from its one-shorter prefix.
        let prints: Vec<u64> = (0..10usize)
            .map(|n| {
                let cols = (0..n as u32).collect();
                let vals = (0..n).map(|k| k as f32 + 0.5).collect();
                CsrMatrix::new(1, 16, vec![0, n], cols, vals)
                    .unwrap()
                    .content_fingerprint()
            })
            .collect();
        for (a, x) in prints.iter().enumerate() {
            for (b, y) in prints.iter().enumerate().skip(a + 1) {
                assert_ne!(x, y, "nnz {a} vs nnz {b}");
            }
        }
        // Empty matrices: no rows (two widths) or rows without entries
        // (two heights) all differ, and each is stable.
        let zero_rows = CsrMatrix::new(0, 3, vec![0], vec![], vec![]).unwrap();
        let zero_rows_wider = CsrMatrix::new(0, 4, vec![0], vec![], vec![]).unwrap();
        let empty = CsrMatrix::new(3, 3, vec![0; 4], vec![], vec![]).unwrap();
        let empty_taller = CsrMatrix::new(4, 3, vec![0; 5], vec![], vec![]).unwrap();
        let all = [&zero_rows, &zero_rows_wider, &empty, &empty_taller];
        for (a, x) in all.iter().enumerate() {
            assert_eq!(x.content_fingerprint(), x.compute_content_fingerprint());
            for (b, y) in all.iter().enumerate().skip(a + 1) {
                assert_ne!(
                    x.content_fingerprint(),
                    y.content_fingerprint(),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn content_fingerprint_matches_committed_goldens() {
        // Golden values computed once from the four-lane word
        // definition (plan IR v6) and committed: the fingerprint is part
        // of the persistent plan-IR schema (header validation), so it
        // must never drift across runs, platforms, or releases. If this
        // test fails, the plan-IR schema version must be bumped.
        let golden = CsrMatrix::new(
            4,
            4,
            vec![0, 2, 3, 3, 5],
            vec![0, 2, 1, 0, 3],
            vec![1.0, -2.5, 0.75, 3.0, 0.125],
        )
        .unwrap();
        assert_eq!(golden.content_fingerprint(), 0xb9d6b3fd5f062e4e);

        // Perturbing one value bit-pattern changes it ...
        let value_perturbed = CsrMatrix::new(
            4,
            4,
            vec![0, 2, 3, 3, 5],
            vec![0, 2, 1, 0, 3],
            vec![1.0, -2.5, 0.75, 3.0, 0.250],
        )
        .unwrap();
        assert_eq!(value_perturbed.content_fingerprint(), 0x3bf8c729dc849695);

        // ... and so does moving one nnz to another row (same columns,
        // same value multiset, different structure).
        let structure_perturbed = CsrMatrix::new(
            4,
            4,
            vec![0, 2, 3, 4, 5],
            vec![0, 2, 1, 0, 3],
            vec![1.0, -2.5, 0.75, 3.0, 0.125],
        )
        .unwrap();
        assert_eq!(
            structure_perturbed.content_fingerprint(),
            0x365a519272061d8a
        );
    }

    #[test]
    fn content_fingerprint_is_cached_once_and_invalidated_on_mutation() {
        let mut m = small();
        assert!(m.fingerprint.get().is_none(), "constructors start cold");
        let fp = m.content_fingerprint();
        assert_eq!(m.fingerprint.get(), Some(&fp), "first call populates");
        // A clone carries the cached value (same content, same print).
        let c = m.clone();
        assert_eq!(c.fingerprint.get(), Some(&fp));
        assert_eq!(c.content_fingerprint(), fp);
        // Mutating a value through the supported path recomputes.
        m.values_mut()[0] += 1.0;
        assert!(m.fingerprint.get().is_none(), "values_mut invalidates");
        let fp2 = m.content_fingerprint();
        assert_ne!(fp, fp2);
        // Undo and the original fingerprint is recovered — the cache is
        // derived state, never part of equality.
        m.values_mut()[0] -= 1.0;
        assert_eq!(m.content_fingerprint(), fp);
        assert_eq!(m, c);
    }

    #[test]
    fn permuted_spmm_equals_scattered_reference() {
        // C_perm[perm[r]] == C[r] : row permutation only reorders output.
        let m = small();
        let perm = [2u32, 0, 1];
        let pm = m.permute_rows(&perm).unwrap();
        let b = DenseMatrix::random(3, 4, 1);
        let c = m.spmm_dense(&b).unwrap();
        let cp = pm.spmm_dense(&b).unwrap();
        for (r, &p) in perm.iter().enumerate() {
            assert_eq!(cp.row(p as usize), c.row(r));
        }
    }

    #[test]
    fn row_block_preserves_rows() {
        let mut m = crate::gen::uniform_random(64, 5.0, 4);
        // Stored values a COO round trip would not keep bit for bit: a
        // zero, a NaN and a negative zero, all in the block.
        let (lo, hi) = (m.row_ptr()[8], m.row_ptr()[24]);
        assert!(hi - lo >= 3, "the block stores enough entries");
        let vals = m.values_mut();
        vals[lo] = 0.0;
        vals[lo + 1] = f32::NAN;
        vals[hi - 1] = -0.0;
        let blk = m.row_block(8, 24);
        assert_eq!(blk.nrows(), 16);
        assert_eq!(blk.ncols(), m.ncols());
        assert!(blk.validate().is_ok());
        for r in 0..16 {
            let (cols, vals) = blk.row(r);
            let (want_cols, want_vals) = m.row(8 + r);
            assert_eq!(cols, want_cols);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(vals), bits(want_vals), "row {r}");
        }
        let empty = m.row_block(16, 16);
        assert_eq!(empty.nrows(), 0);
        assert_eq!(empty.nnz(), 0);
    }
}
