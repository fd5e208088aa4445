//! BitTCF — the paper's memory-efficient compressed format (§3.3).
//!
//! Four arrays represent the sparse matrix:
//! 1. `RowWindowOffset` — starting TC block of each RowWindow;
//! 2. `TCOffset` — starting nnz of each TC block;
//! 3. `SparseAToB` — original column index of each TC-block column slot
//!    (what the kernel uses to gather rows of the dense B);
//! 4. `TCLocalBit` — one `u64` per TC block whose bit `r·8+c` marks a
//!    non-zero at local position `(r, c)`.
//!
//! Index footprint: `(⌈M/8⌉ + NumTCBlock × 11 + 2) × 4` bytes, exactly
//! the paper's formula. Decompression mirrors the CUDA `__popcll` path:
//! the value index of the non-zero at bit `t` is the popcount of the bits
//! below `t`.

use crate::scratch::{BStage, TileScratch, WindowPairs};
use crate::window::{WindowPartition, PAD_COL, TILE};
use spmm_common::scalar::to_tf32;
use spmm_common::simd::{to_tf32_slice_tier, IsaTier};
use spmm_common::{Result, SpmmError};
use spmm_matrix::{CooMatrix, CsrMatrix, DenseMatrix};

/// The BitTCF compressed sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BitTcf {
    nrows: usize,
    ncols: usize,
    /// Starting TC block per RowWindow (`⌈M/8⌉ + 1` entries).
    pub row_window_offset: Vec<u32>,
    /// Starting nnz per TC block (`NumTcBlock + 1` entries).
    pub tc_offset: Vec<u32>,
    /// Original column of each block column slot (`NumTcBlock × 8`,
    /// padded with `u32::MAX`).
    pub sparse_a_to_b: Vec<u32>,
    /// Non-zero occupancy bitmap per TC block.
    pub tc_local_bit: Vec<u64>,
    /// Values in block order, row-major within each block (bit order).
    pub values: Vec<f32>,
    /// Whether `values` have already been rounded to TF32
    /// ([`BitTcf::preround_values`]); when set, the SpMM paths skip the
    /// per-block operand rounding.
    values_tf32: bool,
}

impl BitTcf {
    /// Convert from CSR (via the shared window squeezing).
    pub fn from_csr(m: &CsrMatrix) -> Self {
        let wp = WindowPartition::build(m);
        Self::from_partition(m, &wp)
    }

    /// Convert from CSR with a precomputed partition (lets converters
    /// share the squeezing cost, as the conversion-overhead comparison
    /// requires).
    ///
    /// This converter is the cheap path §4.3.2 measures: the bitmap is
    /// built with one OR per nnz, and because rows are visited in order
    /// (ascending local row, then ascending squeezed column) values
    /// arrive already in bit order — no per-block sort and no per-nnz id
    /// array, unlike the ME-TCF converter.
    /// Windows are independent in both passes, so each is built in
    /// parallel and the per-window pieces are stitched in window order —
    /// byte-identical to the former sequential construction.
    pub fn from_partition(m: &CsrMatrix, wp: &WindowPartition) -> Self {
        use rayon::prelude::*;
        let num_windows = wp.num_windows();
        let num_blocks = wp.num_tc_blocks();

        // Pass 1 (parallel per window): bitmaps + SparseAToB (one OR per
        // nnz).
        let per_window: Vec<(Vec<u64>, Vec<u32>)> = (0..num_windows)
            .into_par_iter()
            .map(|w| {
                let blocks = wp.window_blocks(w);
                let nb = blocks.len();
                let mut cols_out = vec![PAD_COL; nb * TILE];
                for bi in 0..nb {
                    let cols = wp.block_columns(w, bi);
                    cols_out[bi * TILE..(bi + 1) * TILE].copy_from_slice(&cols);
                }
                let mut bits = vec![0u64; nb];
                let wcols = wp.window_columns(w);
                let lo = w * TILE;
                let hi = ((w + 1) * TILE).min(m.nrows());
                for r in lo..hi {
                    let lr = (r - lo) as u8;
                    let (cols, _) = m.row(r);
                    for &c in cols {
                        // Position of c within the squeezed window columns.
                        let pos = wcols.binary_search(&c).expect("column must be in window");
                        let lc = (pos % TILE) as u8;
                        bits[pos / TILE] |= 1u64 << (lr * TILE as u8 + lc);
                    }
                }
                (bits, cols_out)
            })
            .collect();

        let mut row_window_offset = Vec::with_capacity(num_windows + 1);
        row_window_offset.push(0u32);
        let mut sparse_a_to_b = Vec::with_capacity(num_blocks * TILE);
        let mut tc_local_bit = Vec::with_capacity(num_blocks);
        for (w, (bits, cols)) in per_window.iter().enumerate() {
            row_window_offset.push(wp.window_blocks(w).end as u32);
            tc_local_bit.extend_from_slice(bits);
            sparse_a_to_b.extend_from_slice(cols);
        }

        // TCOffset from bitmap popcounts.
        let mut tc_offset = Vec::with_capacity(num_blocks + 1);
        let mut acc = 0u32;
        tc_offset.push(0u32);
        for &bits in &tc_local_bit {
            acc += bits.count_ones();
            tc_offset.push(acc);
        }

        // Pass 2 (parallel per window): scatter values straight to their
        // final slots. Within a block, the visit order (ascending row,
        // ascending column) IS ascending bit order, so a per-block
        // cursor suffices; a window's values occupy the contiguous
        // `tc_offset` span of its blocks.
        let value_chunks: Vec<Vec<f32>> = (0..num_windows)
            .into_par_iter()
            .map(|w| {
                let blocks = wp.window_blocks(w);
                let base = tc_offset[blocks.start] as usize;
                let len = tc_offset[blocks.end] as usize - base;
                let mut vals = vec![0f32; len];
                let mut cursor: Vec<usize> = blocks
                    .clone()
                    .map(|b| tc_offset[b] as usize - base)
                    .collect();
                let wcols = wp.window_columns(w);
                let lo = w * TILE;
                let hi = ((w + 1) * TILE).min(m.nrows());
                for r in lo..hi {
                    let (cols, rvals) = m.row(r);
                    for (&c, &v) in cols.iter().zip(rvals.iter()) {
                        let pos = wcols.binary_search(&c).expect("column must be in window");
                        let bi = pos / TILE;
                        vals[cursor[bi]] = v;
                        cursor[bi] += 1;
                    }
                }
                vals
            })
            .collect();
        let mut values = Vec::with_capacity(m.nnz());
        for chunk in &value_chunks {
            values.extend_from_slice(chunk);
        }

        BitTcf {
            nrows: m.nrows(),
            ncols: m.ncols(),
            row_window_offset,
            tc_offset,
            sparse_a_to_b,
            tc_local_bit,
            values,
            values_tf32: false,
        }
    }

    /// Incremental rebuild after an edge-delta update: `m_new` is the
    /// updated (permuted) matrix, `wp_new` its (incrementally rebuilt)
    /// partition, and `touched[w]` marks the windows whose rows
    /// changed. Untouched windows copy their bitmap / SparseAToB /
    /// value spans from `self` byte-for-byte (every per-window artifact
    /// depends only on that window's rows); touched windows re-run the
    /// per-window converter; `TCOffset` is restitched from the bitmap
    /// popcounts.
    ///
    /// The result reports [`BitTcf::is_prerounded`] `false`: when
    /// `self` was pre-rounded its untouched spans carry TF32 bits while
    /// touched windows carry raw values, and one idempotent
    /// [`BitTcf::preround_values_tier`] pass re-unifies them —
    /// byte-identical to building from scratch and pre-rounding.
    pub fn rebuild_windows(
        &self,
        m_new: &CsrMatrix,
        wp_new: &WindowPartition,
        touched: &[bool],
    ) -> BitTcf {
        assert_eq!(m_new.nrows(), self.nrows, "deltas cannot change nrows");
        assert_eq!(m_new.ncols(), self.ncols, "deltas cannot change ncols");
        assert_eq!(wp_new.num_windows(), self.num_windows());
        assert_eq!(touched.len(), self.num_windows(), "one flag per window");
        let num_windows = self.num_windows();
        let num_blocks = wp_new.num_tc_blocks();

        let mut row_window_offset = Vec::with_capacity(num_windows + 1);
        row_window_offset.push(0u32);
        let mut sparse_a_to_b = Vec::with_capacity(num_blocks * TILE);
        let mut tc_local_bit = Vec::with_capacity(num_blocks);
        let mut values = Vec::with_capacity(m_new.nnz());
        for (w, &is_touched) in touched.iter().enumerate() {
            row_window_offset.push(wp_new.window_blocks(w).end as u32);
            if !is_touched {
                let blocks = self.window_blocks(w);
                tc_local_bit.extend_from_slice(&self.tc_local_bit[blocks.clone()]);
                sparse_a_to_b
                    .extend_from_slice(&self.sparse_a_to_b[blocks.start * TILE..blocks.end * TILE]);
                let span =
                    self.tc_offset[blocks.start] as usize..self.tc_offset[blocks.end] as usize;
                values.extend_from_slice(&self.values[span]);
                continue;
            }
            // Touched window: the per-window converter from
            // `from_partition`, run against the new matrix.
            let blocks = wp_new.window_blocks(w);
            let nb = blocks.len();
            let mut cols_out = vec![PAD_COL; nb * TILE];
            for bi in 0..nb {
                cols_out[bi * TILE..(bi + 1) * TILE].copy_from_slice(&wp_new.block_columns(w, bi));
            }
            let mut bits = vec![0u64; nb];
            let wcols = wp_new.window_columns(w);
            let lo = w * TILE;
            let hi = ((w + 1) * TILE).min(m_new.nrows());
            for r in lo..hi {
                let lr = (r - lo) as u8;
                for &c in m_new.row(r).0 {
                    let pos = wcols.binary_search(&c).expect("column must be in window");
                    let lc = (pos % TILE) as u8;
                    bits[pos / TILE] |= 1u64 << (lr * TILE as u8 + lc);
                }
            }
            // Window-local value scatter: block b's values start at the
            // popcount prefix of the blocks before it.
            let mut cursor = Vec::with_capacity(nb);
            let mut acc = 0usize;
            for &b in &bits {
                cursor.push(acc);
                acc += b.count_ones() as usize;
            }
            let mut vals = vec![0f32; acc];
            for r in lo..hi {
                let (cols, rvals) = m_new.row(r);
                for (&c, &v) in cols.iter().zip(rvals.iter()) {
                    let pos = wcols.binary_search(&c).expect("column must be in window");
                    let bi = pos / TILE;
                    vals[cursor[bi]] = v;
                    cursor[bi] += 1;
                }
            }
            tc_local_bit.extend_from_slice(&bits);
            sparse_a_to_b.extend_from_slice(&cols_out);
            values.extend_from_slice(&vals);
        }

        let mut tc_offset = Vec::with_capacity(num_blocks + 1);
        let mut acc = 0u32;
        tc_offset.push(0u32);
        for &bits in &tc_local_bit {
            acc += bits.count_ones();
            tc_offset.push(acc);
        }

        BitTcf {
            nrows: self.nrows,
            ncols: self.ncols,
            row_window_offset,
            tc_offset,
            sparse_a_to_b,
            tc_local_bit,
            values,
            values_tf32: false,
        }
    }

    /// Round the stored values to TF32 in place, marking the format as
    /// pre-rounded so the SpMM paths skip per-block operand rounding.
    ///
    /// Because [`spmm_common::scalar::to_tf32`] is idempotent, every
    /// multiply result stays bit-identical to the non-prerounded path.
    /// This is lossy for the *stored* matrix ([`BitTcf::to_csr`] returns
    /// the rounded values), so it is meant for execution-plan-owned
    /// formats, not archival ones.
    pub fn preround_values(&mut self) {
        self.preround_values_tier(IsaTier::probe());
    }

    /// [`BitTcf::preround_values`] at an explicit ISA tier (every tier
    /// rounds bit-identically; the plan passes its resolved tier here).
    pub fn preround_values_tier(&mut self, tier: IsaTier) {
        if !self.values_tf32 {
            to_tf32_slice_tier(&mut self.values, tier);
            self.values_tf32 = true;
        }
    }

    /// Whether the stored values are already TF32-rounded.
    #[inline]
    pub fn is_prerounded(&self) -> bool {
        self.values_tf32
    }

    /// Reassemble from raw arrays (used by the binary loader, which
    /// validates the invariants before calling).
    pub(crate) fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_window_offset: Vec<u32>,
        tc_offset: Vec<u32>,
        sparse_a_to_b: Vec<u32>,
        tc_local_bit: Vec<u64>,
        values: Vec<f32>,
    ) -> Self {
        BitTcf {
            nrows,
            ncols,
            row_window_offset,
            tc_offset,
            sparse_a_to_b,
            tc_local_bit,
            values,
            values_tf32: false,
        }
    }

    /// Rows of the represented matrix.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of the represented matrix.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of RowWindows.
    #[inline]
    pub fn num_windows(&self) -> usize {
        self.row_window_offset.len() - 1
    }

    /// Number of TC blocks.
    #[inline]
    pub fn num_tc_blocks(&self) -> usize {
        self.tc_local_bit.len()
    }

    /// TC blocks of window `w` as a block-id range.
    #[inline]
    pub fn window_blocks(&self, w: usize) -> std::ops::Range<usize> {
        self.row_window_offset[w] as usize..self.row_window_offset[w + 1] as usize
    }

    /// Non-zeros in TC block `b` (popcount of its bitmap — by
    /// construction equal to `tc_offset[b+1] - tc_offset[b]`).
    #[inline]
    pub fn block_nnz(&self, b: usize) -> usize {
        self.tc_local_bit[b].count_ones() as usize
    }

    /// The 8 (padded) B-gather columns of block `b`.
    #[inline]
    pub fn block_cols(&self, b: usize) -> &[u32] {
        &self.sparse_a_to_b[b * TILE..(b + 1) * TILE]
    }

    /// Index-structure footprint in bytes — the paper's
    /// `(⌈M/8⌉ + NumTCBlock × 11 + 2) × 4` formula (values excluded, as
    /// in the Figure-12 comparison).
    pub fn index_bytes(&self) -> usize {
        (self.nrows.div_ceil(TILE) + self.num_tc_blocks() * 11 + 2) * 4
    }

    /// Decompress block `b` into a dense 8×8 tile, mirroring the CUDA
    /// two-warp `__popcll` decoder: each of the 64 positions is either
    /// zero or `values[tc_offset[b] + popcount(bits below position)]`.
    pub fn decompress_block(&self, b: usize) -> [f32; TILE * TILE] {
        let bits = self.tc_local_bit[b];
        let base = self.tc_offset[b] as usize;
        let mut tile = [0.0f32; TILE * TILE];
        for t in 0..(TILE * TILE) as u32 {
            if bits & (1u64 << t) != 0 {
                let below = bits & ((1u64 << t) - 1);
                tile[t as usize] = self.values[base + below.count_ones() as usize];
            }
        }
        tile
    }

    /// Rows of window `w` (8, except for a ragged last window).
    #[inline]
    pub fn window_rows(&self, w: usize) -> usize {
        (self.nrows - w * TILE).min(TILE)
    }

    /// Decode window `w` into one pair list per window row. Each
    /// block's set bits are walked in ascending order, so the value
    /// index simply counts up from the block's `TCOffset` — at bit `t`
    /// it equals the popcount of the bits below `t`, the `__popcll` rule
    /// of [`BitTcf::decompress_block`] — and row `t / 8` receives the
    /// pair in ascending (block, column) order. Values are TF32-rounded
    /// unless the format is pre-rounded, and a value that rounds to ±0
    /// is dropped: exactly the A slots the tile MMA's zero-skip passed
    /// over.
    fn decode_window(&self, w: usize, pairs: &mut WindowPairs) {
        let mut caps = [0usize; TILE];
        for &bits in &self.tc_local_bit[self.window_blocks(w)] {
            for (r, cap) in caps.iter_mut().enumerate() {
                *cap += ((bits >> (r * TILE)) & 0xFF).count_ones() as usize;
            }
        }
        pairs.reset(caps);
        for blk in self.window_blocks(w) {
            let mut bits = self.tc_local_bit[blk];
            let mut idx = self.tc_offset[blk] as usize;
            let cols = self.block_cols(blk);
            while bits != 0 {
                let t = bits.trailing_zeros() as usize;
                let v = self.values[idx];
                let v = if self.values_tf32 { v } else { to_tf32(v) };
                if v != 0.0 {
                    pairs.push(t / TILE, v, cols[t % TILE]);
                }
                idx += 1;
                bits &= bits - 1;
            }
        }
    }

    /// Functional SpMM through the TC path, row-streamed: each window's
    /// non-zeros are decoded into per-row pair lists, and each output row
    /// is accumulated against the TF32 B rows in one register-blocked
    /// pass. This is numerically what the GPU kernel computes (TF32
    /// operands, FP32 accumulate), and per output element the adds run in
    /// the same ascending (block, column) order as a chain of 8×8 tile
    /// MMAs.
    ///
    /// RowWindows write disjoint C rows, so the window loop parallelizes
    /// over the output exactly like the GPU's thread-block grid.
    pub fn spmm(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        let mut c = DenseMatrix::zeros(self.nrows, b.ncols());
        self.spmm_into(b, &mut c)?;
        Ok(c)
    }

    /// [`BitTcf::spmm`] writing into a caller-provided output matrix.
    /// Rounds B into a fresh [`BStage`] and runs the window-parallel
    /// staged loop; callers that multiply repeatedly should hold their
    /// own stage and use [`BitTcf::spmm_into_staged`] instead.
    pub fn spmm_into(&self, b: &DenseMatrix, c: &mut DenseMatrix) -> Result<()> {
        self.check_shapes(b.nrows(), b.ncols(), c)?;
        let mut stage = BStage::new();
        stage.stage(b);
        self.spmm_into_staged(&stage, c)
    }

    /// The window-parallel SpMM over a pre-rounded B stage (one
    /// [`WindowPairs`] per worker, the stage shared read-only), so the
    /// hot path allocates nothing proportional to the matrix and the
    /// row core is a pure mul-add.
    pub fn spmm_into_staged(&self, stage: &BStage, c: &mut DenseMatrix) -> Result<()> {
        self.spmm_into_staged_tier(stage, c, IsaTier::probe())
    }

    /// [`BitTcf::spmm_into_staged`] with an explicit ISA tier for the
    /// row core (bit-identical across tiers; plans pass their resolved
    /// tier so the choice is made once at compile time).
    pub fn spmm_into_staged_tier(
        &self,
        stage: &BStage,
        c: &mut DenseMatrix,
        tier: IsaTier,
    ) -> Result<()> {
        use rayon::prelude::*;
        self.check_shapes(stage.nrows(), stage.ncols(), c)?;
        let n = stage.ncols();
        c.as_mut_slice()
            .par_chunks_mut(TILE * n)
            .enumerate()
            .for_each_init(WindowPairs::new, |pairs, (w, cslab)| {
                self.window_product(w, stage, pairs, cslab, tier)
            });
        Ok(())
    }

    /// Compute window `w`'s output rows into `out`: row `i` of the
    /// window (of up to 8; fewer for a ragged last window) is written to
    /// `out[i·n..(i+1)·n]` with `n = stage.ncols()`, overwriting it.
    /// Both operands are pre-rounded here — B by the stage, A either at
    /// [`BitTcf::preround_values`] time or per value while decoding — so
    /// the row core never rounds, and it reads B rows in place from the
    /// stage.
    ///
    /// This is also the batched path: a stage holding several RHS side
    /// by side ([`BStage::stage_side_by_side_tier`]) decodes the window
    /// once for all of them, and per output element the add order is
    /// the single-RHS one, so results stay bit-identical to one-at-a-time
    /// execution.
    pub fn window_product(
        &self,
        w: usize,
        stage: &BStage,
        pairs: &mut WindowPairs,
        out: &mut [f32],
        tier: IsaTier,
    ) {
        self.decode_window(w, pairs);
        pairs.multiply_rows(self.window_rows(w), stage, out, tier);
    }

    /// Sequential zero-allocation SpMM into a caller-provided output,
    /// borrowing the stage and pair lists from `scratch`. Window-sequential
    /// execution computes exactly the same floats as the parallel
    /// [`BitTcf::spmm`] (windows write disjoint output rows and the
    /// per-window math is identical), which is what lets batched
    /// execution parallelize over RHS matrices instead and stay
    /// bit-identical.
    pub fn spmm_into_seq(
        &self,
        b: &DenseMatrix,
        c: &mut DenseMatrix,
        scratch: &mut TileScratch,
    ) -> Result<()> {
        self.spmm_into_seq_tier(b, c, scratch, IsaTier::probe())
    }

    /// [`BitTcf::spmm_into_seq`] with an explicit ISA tier.
    pub fn spmm_into_seq_tier(
        &self,
        b: &DenseMatrix,
        c: &mut DenseMatrix,
        scratch: &mut TileScratch,
        tier: IsaTier,
    ) -> Result<()> {
        self.check_shapes(b.nrows(), b.ncols(), c)?;
        let n = b.ncols();
        scratch.stage_b_tier(b, tier);
        let (stage, pairs) = scratch.staged_parts();
        let out = c.as_mut_slice();
        for w in 0..self.num_windows() {
            let lo = w * TILE;
            let hi = lo + self.window_rows(w);
            self.window_product(w, stage, pairs, &mut out[lo * n..hi * n], tier);
        }
        Ok(())
    }

    fn check_shapes(&self, b_rows: usize, b_cols: usize, c: &DenseMatrix) -> Result<()> {
        if self.ncols != b_rows || c.nrows() != self.nrows || c.ncols() != b_cols {
            return Err(SpmmError::Shape {
                context: format!(
                    "A is {}x{}, B is {}x{}, C is {}x{}",
                    self.nrows,
                    self.ncols,
                    b_rows,
                    b_cols,
                    c.nrows(),
                    c.ncols()
                ),
            });
        }
        Ok(())
    }

    /// [`BitTcf::spmm`] with a selectable operand precision (TF32 is the
    /// paper's mode; FP16/BF16 model Magicube-style reduced-precision
    /// tensor-core paths, FP32 the exact reference).
    pub fn spmm_with_precision(
        &self,
        b: &DenseMatrix,
        precision: spmm_common::Precision,
    ) -> Result<DenseMatrix> {
        if self.ncols != b.nrows() {
            return Err(SpmmError::Shape {
                context: format!("A has {} cols, B has {} rows", self.ncols, b.nrows()),
            });
        }
        let n = b.ncols();
        let mut c = DenseMatrix::zeros(self.nrows, n);
        let mut btile = vec![0.0f32; TILE * n];
        let mut ctile = vec![0.0f32; TILE * n];
        for w in 0..self.num_windows() {
            ctile.iter_mut().for_each(|x| *x = 0.0);
            for blk in self.window_blocks(w) {
                let a = self.decompress_block(blk);
                for (i, &col) in self.block_cols(blk).iter().enumerate() {
                    if col == PAD_COL {
                        btile[i * n..(i + 1) * n].iter_mut().for_each(|x| *x = 0.0);
                    } else {
                        btile[i * n..(i + 1) * n].copy_from_slice(b.row(col as usize));
                    }
                }
                spmm_common::precision::mma_8x8_with_precision(
                    &a, &btile, &mut ctile, n, precision,
                );
            }
            let lo = w * TILE;
            let hi = ((w + 1) * TILE).min(self.nrows);
            for r in lo..hi {
                c.row_mut(r)
                    .copy_from_slice(&ctile[(r - lo) * n..(r - lo + 1) * n]);
            }
        }
        Ok(c)
    }

    /// Reconstruct the CSR matrix (round-trip used by tests).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.nrows, self.ncols);
        for w in 0..self.num_windows() {
            let lo = w * TILE;
            for blk in self.window_blocks(w) {
                let tile = self.decompress_block(blk);
                let cols = self.block_cols(blk);
                let bits = self.tc_local_bit[blk];
                for (t, &v) in tile.iter().enumerate() {
                    if bits & (1u64 << t) != 0 {
                        let (lr, lc) = (t / TILE, t % TILE);
                        coo.push((lo + lr) as u32, cols[lc], v);
                    }
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_common::scalar::tf32_tolerance;
    use spmm_matrix::gen::uniform_random;

    fn small() -> CsrMatrix {
        let mut coo = CooMatrix::new(12, 12);
        let entries = [
            (0u32, 0u32, 1.0f32),
            (0, 9, 2.0),
            (1, 3, 3.0),
            (7, 0, 4.0),
            (8, 11, 5.0),
            (9, 2, 6.0),
        ];
        for &(r, c, v) in &entries {
            coo.push(r, c, v);
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn structure_counts() {
        let t = BitTcf::from_csr(&small());
        assert_eq!(t.num_windows(), 2);
        assert_eq!(t.nnz(), 6);
        // Window 0 distinct cols {0,3,9} -> 1 block; window 1 {2,11} -> 1.
        assert_eq!(t.num_tc_blocks(), 2);
        assert_eq!(t.block_nnz(0), 4);
        assert_eq!(t.block_nnz(1), 2);
    }

    #[test]
    fn popcount_matches_offsets() {
        let m = uniform_random(128, 6.0, 3);
        let t = BitTcf::from_csr(&m);
        for b in 0..t.num_tc_blocks() {
            assert_eq!(
                t.block_nnz(b),
                (t.tc_offset[b + 1] - t.tc_offset[b]) as usize,
                "bitmap popcount must equal TCOffset span at block {b}"
            );
        }
        assert_eq!(t.tc_offset[t.num_tc_blocks()] as usize, m.nnz());
    }

    #[test]
    fn roundtrip_csr() {
        let m = uniform_random(200, 5.0, 9);
        let t = BitTcf::from_csr(&m);
        assert_eq!(t.to_csr(), m);
    }

    #[test]
    fn decompress_places_values_correctly() {
        let t = BitTcf::from_csr(&small());
        let tile = t.decompress_block(0);
        // Window 0 squeezed cols [0,3,9]: (0,0)=1 at (0,0); (0,9)=2 at
        // (0,2); (1,3)=3 at (1,1); (7,0)=4 at (7,0).
        assert_eq!(tile[0], 1.0);
        assert_eq!(tile[2], 2.0);
        assert_eq!(tile[TILE + 1], 3.0);
        assert_eq!(tile[7 * TILE], 4.0);
        assert_eq!(tile.iter().filter(|&&x| x != 0.0).count(), 4);
    }

    #[test]
    fn index_bytes_formula() {
        let t = BitTcf::from_csr(&small());
        // ceil(12/8)=2 windows, 2 blocks: (2 + 22 + 2) * 4 = 104.
        assert_eq!(t.index_bytes(), 104);
    }

    #[test]
    fn spmm_matches_reference_within_tf32() {
        let m = uniform_random(96, 7.0, 5);
        let b = DenseMatrix::random(96, 24, 1);
        let t = BitTcf::from_csr(&m);
        let c = t.spmm(&b).unwrap();
        let reference = m.spmm_dense(&b).unwrap();
        let tol = tf32_tolerance(96);
        assert!(
            c.approx_eq(&reference, tol, tol),
            "max diff {}",
            c.max_abs_diff(&reference)
        );
    }

    #[test]
    fn spmm_shape_mismatch_rejected() {
        let t = BitTcf::from_csr(&small());
        assert!(t.spmm(&DenseMatrix::zeros(5, 4)).is_err());
    }

    #[test]
    fn spmm_into_variants_are_bit_identical() {
        let m = uniform_random(200, 6.0, 11);
        let b = DenseMatrix::random(200, 20, 3);
        let t = BitTcf::from_csr(&m);
        let via_alloc = t.spmm(&b).unwrap();
        let mut via_into = DenseMatrix::zeros(200, 20);
        t.spmm_into(&b, &mut via_into).unwrap();
        assert_eq!(via_alloc, via_into);
        let mut scratch = TileScratch::new();
        let mut via_seq = DenseMatrix::zeros(200, 20);
        t.spmm_into_seq(&b, &mut via_seq, &mut scratch).unwrap();
        assert_eq!(via_alloc, via_seq, "sequential path must match parallel");
        // Reusing the (now dirty) scratch and output must still be exact.
        t.spmm_into_seq(&b, &mut via_seq, &mut scratch).unwrap();
        assert_eq!(via_alloc, via_seq);
    }

    #[test]
    fn side_by_side_window_product_is_bit_identical_to_sequential() {
        let m = uniform_random(93, 6.0, 13);
        let t = BitTcf::from_csr(&m);
        // Mixed feature dims exercise the side-by-side column offsets,
        // and 93 rows leave a ragged last window.
        let bs: Vec<DenseMatrix> = (0..3)
            .map(|i| DenseMatrix::random(93, 8 + 4 * i, 50 + i as u64))
            .collect();
        let total_n: usize = bs.iter().map(|b| b.ncols()).sum();
        let tier = IsaTier::probe();
        let mut stage = BStage::new();
        stage.stage_side_by_side_tier(&bs, tier);
        let mut scratch = TileScratch::new();
        let (pairs, ctiles) = scratch.ensure(total_n);
        let mut got: Vec<DenseMatrix> = bs
            .iter()
            .map(|b| DenseMatrix::zeros(93, b.ncols()))
            .collect();
        for w in 0..t.num_windows() {
            t.window_product(w, &stage, pairs, ctiles, tier);
            let lo = w * TILE;
            for r in lo..lo + t.window_rows(w) {
                let crow = &ctiles[(r - lo) * total_n..(r - lo + 1) * total_n];
                let mut off = 0;
                for (j, b) in bs.iter().enumerate() {
                    let n = b.ncols();
                    got[j].row_mut(r).copy_from_slice(&crow[off..off + n]);
                    off += n;
                }
            }
        }
        for (j, b) in bs.iter().enumerate() {
            assert_eq!(got[j], t.spmm(b).unwrap(), "rhs {j} diverged");
        }
    }

    /// The pre-change execution path, kept verbatim as the bit-equality
    /// oracle: gather raw B rows and let the re-rounding
    /// [`spmm_common::scalar::tf32_mma_8x8`] round both operands at use.
    fn reference_spmm(t: &BitTcf, b: &DenseMatrix) -> DenseMatrix {
        use spmm_common::scalar::tf32_mma_8x8;
        let n = b.ncols();
        let mut c = DenseMatrix::zeros(t.nrows(), n);
        let mut btile = vec![0.0f32; TILE * n];
        let mut ctile = vec![0.0f32; TILE * n];
        for w in 0..t.num_windows() {
            ctile.iter_mut().for_each(|x| *x = 0.0);
            for blk in t.window_blocks(w) {
                let a = t.decompress_block(blk);
                for (i, &col) in t.block_cols(blk).iter().enumerate() {
                    if col == PAD_COL {
                        btile[i * n..(i + 1) * n].iter_mut().for_each(|x| *x = 0.0);
                    } else {
                        btile[i * n..(i + 1) * n].copy_from_slice(b.row(col as usize));
                    }
                }
                tf32_mma_8x8(&a, &btile, &mut ctile, n);
            }
            let lo = w * TILE;
            let hi = ((w + 1) * TILE).min(t.nrows());
            for r in lo..hi {
                c.row_mut(r)
                    .copy_from_slice(&ctile[(r - lo) * n..(r - lo + 1) * n]);
            }
        }
        c
    }

    #[test]
    fn prerounded_execution_is_bit_identical_to_reference() {
        let m = uniform_random(200, 6.0, 21);
        let b = DenseMatrix::random(200, 20, 5);
        let t = BitTcf::from_csr(&m);
        let want = reference_spmm(&t, &b);
        // Non-prerounded format: rounds the A tile per block.
        assert_eq!(t.spmm(&b).unwrap(), want);
        // Prerounded format: rounds the values once at compile time.
        let mut pre = t.clone();
        pre.preround_values();
        assert!(pre.is_prerounded());
        assert_eq!(pre.spmm(&b).unwrap(), want, "prerounded parallel path");
        let mut seq = DenseMatrix::zeros(200, 20);
        pre.spmm_into_seq(&b, &mut seq, &mut TileScratch::new())
            .unwrap();
        assert_eq!(seq, want, "prerounded sequential path");
        // Prerounding twice is a no-op.
        let mut twice = pre.clone();
        twice.preround_values();
        assert_eq!(twice.values, pre.values);
    }

    #[test]
    fn prerounded_execution_handles_non_finite_inputs() {
        let mut coo = CooMatrix::new(16, 16);
        coo.push(0, 0, f32::NAN);
        coo.push(0, 3, f32::INFINITY);
        coo.push(1, 3, 1.0e-41);
        coo.push(2, 5, -0.0);
        coo.push(9, 1, 2.5);
        coo.push(15, 15, f32::NEG_INFINITY);
        let m = CsrMatrix::from_coo(&coo);
        let mut b = DenseMatrix::random(16, 9, 4);
        b.set(3, 0, f32::NAN);
        b.set(5, 2, f32::INFINITY);
        b.set(1, 8, 1.0e-42);
        let t = BitTcf::from_csr(&m);
        let want = reference_spmm(&t, &b);
        let mut pre = t.clone();
        pre.preround_values();
        let got = pre.spmm(&b).unwrap();
        for r in 0..16 {
            for c in 0..9 {
                let (g, w) = (got.get(r, c), want.get(r, c));
                // NaN payloads are unspecified under commutation, so
                // compare NaN-position-exact, everything else bitwise.
                assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "({r},{c}): {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn spmm_into_rejects_misshapen_output() {
        let t = BitTcf::from_csr(&small());
        let b = DenseMatrix::zeros(12, 4);
        let mut bad = DenseMatrix::zeros(11, 4);
        assert!(t.spmm_into(&b, &mut bad).is_err());
        let mut bad2 = DenseMatrix::zeros(12, 5);
        assert!(t
            .spmm_into_seq(&b, &mut bad2, &mut TileScratch::new())
            .is_err());
    }

    #[test]
    fn partition_footprint_formula_matches_built_format() {
        let m = uniform_random(300, 7.0, 2);
        let wp = WindowPartition::build(&m);
        let t = BitTcf::from_partition(&m, &wp);
        assert_eq!(wp.bittcf_index_bytes(), t.index_bytes());
    }

    #[test]
    fn precision_modes_order_by_error() {
        use spmm_common::Precision;
        let m = uniform_random(128, 8.0, 7);
        let b = DenseMatrix::random(128, 16, 2);
        let t = BitTcf::from_csr(&m);
        let exact = m.spmm_dense(&b).unwrap();
        let mut errs = Vec::new();
        for p in [Precision::Fp32, Precision::Tf32, Precision::Bf16] {
            let c = t.spmm_with_precision(&b, p).unwrap();
            errs.push(c.max_abs_diff(&exact) as f64);
        }
        assert!(errs[0] < 1e-4, "FP32 path ~exact: {}", errs[0]);
        assert!(errs[1] <= errs[2], "TF32 <= BF16 error: {errs:?}");
        assert!(errs[2] > 0.0, "BF16 must actually round");
        // TF32 mode must agree with the default spmm.
        let via_default = t.spmm(&b).unwrap();
        let via_precision = t.spmm_with_precision(&b, Precision::Tf32).unwrap();
        assert_eq!(via_default, via_precision);
    }

    #[test]
    fn rebuild_windows_is_byte_identical_to_full_build() {
        let m = uniform_random(100, 5.0, 3);
        let wp = WindowPartition::build(&m);
        let t = BitTcf::from_partition(&m, &wp);
        // Perturb rows 17 and 98 (windows 2 and 12), including a NaN
        // payload so value splicing is checked at the bit level.
        let mut coo = m.to_coo();
        coo.push(17, 40, f32::NAN);
        coo.push(98, 1, -0.0);
        let m2 = CsrMatrix::from_coo(&coo);
        let mut touched = vec![false; wp.num_windows()];
        touched[2] = true;
        touched[12] = true;
        let wp2 = wp.rebuild(&m2, &touched);
        let rebuilt = t.rebuild_windows(&m2, &wp2, &touched);
        let scratch = BitTcf::from_partition(&m2, &wp2);
        assert_eq!(rebuilt.tc_local_bit, scratch.tc_local_bit);
        assert_eq!(rebuilt.sparse_a_to_b, scratch.sparse_a_to_b);
        assert_eq!(rebuilt.tc_offset, scratch.tc_offset);
        assert_eq!(
            rebuilt
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            scratch
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        // Pre-rounded source: one idempotent re-round re-unifies.
        let mut tp = t.clone();
        tp.preround_values();
        let mut rebuilt_p = tp.rebuild_windows(&m2, &wp2, &touched);
        assert!(!rebuilt_p.is_prerounded());
        rebuilt_p.preround_values();
        let mut scratch_p = scratch.clone();
        scratch_p.preround_values();
        assert_eq!(
            rebuilt_p
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            scratch_p
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }
}
