//! Reusable per-call scratch for the TC SpMM paths.
//!
//! The block formats multiply one output row at a time: a window's
//! non-zeros are decoded from its blocks into [`WindowPairs`], one list
//! of `(TF32 value, B row)` pairs per window row, and one
//! [`spmm_common::simd::mma_row_tier`] call per row accumulates it with
//! the C chunks held in registers. Allocating those lists per call (let
//! alone per window) dominates small multiplies, so the zero-allocation entry
//! points ([`crate::TcMatrix::spmm_into_seq_tier`] and friends) borrow it from a
//! caller-owned `TileScratch` that grows monotonically and is reused
//! across calls — the CPU analogue of the GPU kernel's persistent
//! shared-memory tiles.
//!
//! [`BStage`] is the second half of the pre-rounded operand scheme: one
//! TF32-rounded copy of the dense operand, refreshed once per multiply.
//! The row core reads its rows *in place*, so no path gathers B. The
//! single-RHS paths write each row straight into the output; only the
//! batched path keeps an 8-row accumulator tile (`ctile`), because its
//! rows hold every RHS side by side and are split per RHS afterwards.

use crate::window::TILE;
use spmm_common::simd::{mma_row_tier, to_tf32_slice_into_tier, IsaTier};
use spmm_matrix::DenseMatrix;

/// A TF32-rounded staging copy of a dense operand.
///
/// `stage` rounds the whole matrix once (idempotent, so bit-identical to
/// rounding at every use); the buffer grows monotonically and is reused
/// across multiplies. Windows read it concurrently through shared
/// references, matching the read-only B slab in GPU global memory.
#[derive(Debug, Clone, Default)]
pub struct BStage {
    data: Vec<f32>,
    nrows: usize,
    ncols: usize,
}

impl BStage {
    /// An empty stage; the buffer is grown on first use.
    pub fn new() -> Self {
        BStage::default()
    }

    /// Pre-size the backing buffer for an `nrows × ncols` operand.
    pub fn reserve(&mut self, nrows: usize, ncols: usize) {
        let want = nrows * ncols;
        if self.data.len() < want {
            self.data.resize(want, 0.0);
        }
    }

    /// Round `b` into the stage (growing the buffer if needed) at an
    /// explicit ISA tier (plan-resolved; every tier rounds
    /// bit-identically, so the choice is pure speed).
    pub fn stage_tier(&mut self, b: &DenseMatrix, tier: IsaTier) {
        let want = b.nrows() * b.ncols();
        self.data.resize(want.max(self.data.len()), 0.0);
        to_tf32_slice_into_tier(b.as_slice(), &mut self.data[..want], tier);
        self.nrows = b.nrows();
        self.ncols = b.ncols();
    }

    /// Round several operands with the same row count into one stage,
    /// side by side: staged row `r` is `[bs[0] row r | bs[1] row r | …]`.
    /// This is the batched executor's B layout — one window decode then
    /// serves every RHS as a single wide row product, and a column of
    /// the result depends only on the same column of B, so each RHS's
    /// output is exactly its own single-operand product.
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
        let want = nrows * ncols;
        self.data.resize(want.max(self.data.len()), 0.0);
        for (r, row) in self.data[..want].chunks_exact_mut(ncols.max(1)).enumerate() {
            let mut off = 0;
            for b in bs {
                let n = b.ncols();
                to_tf32_slice_into_tier(b.row(r), &mut row[off..off + n], tier);
                off += n;
            }
        }
        self.nrows = nrows;
        self.ncols = ncols;
    }

    /// Rows of the staged operand.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of the staged operand.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Row `r` of the staged (pre-rounded) operand.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// The whole staged operand, row-major with [`BStage::ncols`]
    /// columns (the layout [`spmm_common::simd::mma_row_tier`] indexes).
    #[inline]
    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.data[..self.nrows * self.ncols]
    }

    /// Bytes of backing storage currently retained by the stage (the
    /// quantity a paged workspace allocator meters).
    pub fn footprint_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }
}

/// One RowWindow's decoded non-zeros, as one list per window row of
/// TF32 values and, in parallel, the B row each value scales. A row's
/// pairs are in ascending (block, column) order — the order a chain of
/// 8×8 tile MMAs adds them in — and zero values (after rounding) are
/// never pushed: that is where the TC paths' `0 × Inf` guard lives.
///
/// Columns are stored as `u32` indices, not pointers, so the scratch
/// that owns the lists stays `Send` and can be pooled across threads.
#[derive(Debug, Clone, Default)]
pub struct WindowPairs {
    vals: Vec<f32>,
    cols: Vec<u32>,
    /// Row `r`'s pairs occupy `start[r]..end[r]`, within its reserved
    /// span `start[r]..limit[r]`.
    start: [usize; TILE],
    end: [usize; TILE],
    limit: [usize; TILE],
}

impl WindowPairs {
    /// Empty lists; the buffers grow on first use.
    pub fn new() -> Self {
        WindowPairs::default()
    }

    /// Empty every row, giving row `r` room for `caps[r]` pairs (an
    /// upper bound on what the decoder will push into it).
    pub fn reset(&mut self, caps: [usize; TILE]) {
        let mut at = 0;
        for (r, &cap) in caps.iter().enumerate() {
            self.start[r] = at;
            self.end[r] = at;
            at += cap;
            self.limit[r] = at;
        }
        if self.vals.len() < at {
            self.vals.resize(at, 0.0);
            self.cols.resize(at, 0);
        }
    }

    /// Append the pair `(v, col)` to row `r`.
    ///
    /// # Panics
    /// If row `r` already holds the `caps[r]` pairs reserved for it.
    #[inline]
    pub fn push(&mut self, r: usize, v: f32, col: u32) {
        let at = self.end[r];
        assert!(
            at < self.limit[r],
            "row {r} overflows its reserved capacity"
        );
        self.vals[at] = v;
        self.cols[at] = col;
        self.end[r] = at + 1;
    }

    /// Row `r`'s values and B rows, in push order.
    #[inline]
    pub fn row(&self, r: usize) -> (&[f32], &[u32]) {
        let span = self.start[r]..self.end[r];
        (&self.vals[span.clone()], &self.cols[span])
    }

    /// Write the products of the first `rows` rows into `out`: row `i`
    /// goes to `out[i·n..(i+1)·n]` (`n = stage.ncols()`), accumulated from
    /// +0 over its pairs in push order by [`mma_row_tier`].
    #[inline]
    pub(crate) fn multiply_rows(
        &self,
        rows: usize,
        stage: &BStage,
        out: &mut [f32],
        tier: IsaTier,
    ) {
        let n = stage.ncols();
        for (i, crow) in out[..rows * n].chunks_exact_mut(n.max(1)).enumerate() {
            let (vals, cols) = self.row(i);
            crow.fill(0.0);
            mma_row_tier(vals, cols, stage.as_slice(), crow, tier);
        }
    }

    /// Bytes of backing storage currently retained.
    pub fn footprint_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<f32>()
            + self.cols.capacity() * std::mem::size_of::<u32>()
    }
}

/// Caller-owned buffers for the sequential SpMM paths: the window pair
/// lists, the batched path's accumulator tile, and a [`BStage`].
#[derive(Debug, Clone, Default)]
pub struct TileScratch {
    pairs: WindowPairs,
    ctile: Vec<f32>,
    bstage: BStage,
}

impl TileScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        TileScratch::default()
    }

    /// A scratch pre-sized for dense operands with `n` columns.
    pub fn with_feature_dim(n: usize) -> Self {
        let mut s = TileScratch::new();
        s.ensure(n);
        s
    }

    /// Grow (never shrink) the accumulator tile to hold `TILE × n`
    /// floats and hand it out (contents unspecified — the batched window
    /// product overwrites the rows it computes) together with the pair
    /// lists.
    pub fn ensure(&mut self, n: usize) -> (&mut WindowPairs, &mut [f32]) {
        let want = TILE * n;
        if self.ctile.len() < want {
            self.ctile.resize(want, 0.0);
        }
        (&mut self.pairs, &mut self.ctile[..want])
    }

    /// Round `b` into this scratch's owned [`BStage`] at an explicit ISA
    /// tier and hand it back.
    pub fn stage_b_tier(&mut self, b: &DenseMatrix, tier: IsaTier) -> &BStage {
        self.bstage.stage_tier(b, tier);
        &self.bstage
    }

    /// Pre-size the owned [`BStage`] (avoids the first-call growth for
    /// callers that know the operand shape up front).
    pub fn reserve_stage(&mut self, nrows: usize, ncols: usize) {
        self.bstage.reserve(nrows, ncols);
    }

    /// Split-borrow the staged operand together with the pair lists: the
    /// sequential SpMM paths read B rows straight from the stage while
    /// decoding windows into the lists, so both must be live at once.
    /// The stage must have been filled by [`TileScratch::stage_b_tier`] for
    /// the current operand.
    pub fn staged_parts(&mut self) -> (&BStage, &mut WindowPairs) {
        (&self.bstage, &mut self.pairs)
    }

    /// Current tile capacity in floats.
    pub fn capacity(&self) -> usize {
        self.ctile.len()
    }

    /// Bytes of backing storage currently retained by the pair lists, the
    /// tile, and the owned [`BStage`].
    pub fn footprint_bytes(&self) -> usize {
        self.pairs.footprint_bytes()
            + self.ctile.capacity() * std::mem::size_of::<f32>()
            + self.bstage.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_common::scalar::to_tf32;

    #[test]
    fn ensure_grows_monotonically() {
        let mut s = TileScratch::new();
        assert_eq!(s.capacity(), 0);
        {
            let (_, c) = s.ensure(16);
            assert_eq!(c.len(), TILE * 16);
        }
        s.ensure(4);
        assert_eq!(s.capacity(), TILE * 16, "never shrinks");
        s.ensure(32);
        assert_eq!(s.capacity(), TILE * 32);
    }

    #[test]
    fn window_pairs_keep_rows_apart_and_reset() {
        let mut p = WindowPairs::new();
        p.reset([2, 0, 1, 0, 0, 0, 0, 3]);
        p.push(7, 1.0, 9);
        p.push(0, 2.0, 4);
        p.push(7, 3.0, 1);
        p.push(2, 4.0, 6);
        p.push(0, 5.0, 5);
        assert_eq!(p.row(0), (&[2.0f32, 5.0][..], &[4u32, 5][..]));
        assert_eq!(p.row(1), (&[][..], &[][..]));
        assert_eq!(p.row(2), (&[4.0f32][..], &[6u32][..]));
        assert_eq!(p.row(7), (&[1.0f32, 3.0][..], &[9u32, 1][..]));
        p.reset([1; TILE]);
        assert!((0..TILE).all(|r| p.row(r).0.is_empty()));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn window_pairs_reject_a_push_past_the_reservation() {
        let mut p = WindowPairs::new();
        p.reset([1, 1, 0, 0, 0, 0, 0, 0]);
        p.push(0, 1.0, 0);
        p.push(0, 2.0, 0);
    }

    #[test]
    fn with_feature_dim_presizes() {
        let s = TileScratch::with_feature_dim(8);
        assert_eq!(s.capacity(), TILE * 8);
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

    #[test]
    fn scratch_staged_parts_returns_filled_stage() {
        let mut s = TileScratch::new();
        let b = DenseMatrix::random(8, 4, 2);
        s.stage_b_tier(&b, IsaTier::probe());
        let (stage, pairs) = s.staged_parts();
        assert_eq!(stage.nrows(), 8);
        assert_eq!(stage.as_slice().len(), 8 * 4);
        assert_eq!(pairs.row(0).0.len(), 0);
    }
}
