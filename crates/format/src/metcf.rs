//! ME-TCF — DTC-SpMM's memory-efficient TC format (the baseline BitTCF
//! improves upon).
//!
//! Same RowWindow/TCOffset/SparseAToB skeleton as BitTCF, but non-zero
//! positions are stored as one `int8` *per nnz* (`TCLocalId`): a block
//! with `k` non-zeros costs `k` bytes of position data versus BitTCF's
//! flat 8 bytes, so ME-TCF loses ground as blocks densify (> 8 nnz per
//! block) — the effect Figure 12 measures.

use crate::scratch::{BStage, TileScratch, WindowPairs};
use crate::window::{WindowPartition, PAD_COL, TILE};
use spmm_common::scalar::to_tf32;
use spmm_common::simd::{to_tf32_slice_tier, IsaTier};
use spmm_common::{Result, SpmmError};
use spmm_matrix::{CooMatrix, CsrMatrix, DenseMatrix};

/// The ME-TCF compressed sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MeTcf {
    nrows: usize,
    ncols: usize,
    /// Starting TC block per RowWindow.
    pub row_window_offset: Vec<u32>,
    /// Starting nnz per TC block.
    pub tc_offset: Vec<u32>,
    /// Original column per block column slot (padded).
    pub sparse_a_to_b: Vec<u32>,
    /// Local position (`row·8 + col`) of each nnz, one `u8` per nnz.
    pub tc_local_id: Vec<u8>,
    /// Values in block order, position-sorted.
    pub values: Vec<f32>,
    /// Whether `values` are already TF32-rounded
    /// ([`MeTcf::preround_values`]).
    values_tf32: bool,
}

impl MeTcf {
    /// Convert from CSR.
    pub fn from_csr(m: &CsrMatrix) -> Self {
        let wp = WindowPartition::build(m);
        Self::from_partition(m, &wp)
    }

    /// Convert from CSR with a shared partition. Windows are
    /// independent, so each one's blocks are collected and sorted in
    /// parallel and stitched in window order — byte-identical to the
    /// former sequential construction.
    pub fn from_partition(m: &CsrMatrix, wp: &WindowPartition) -> Self {
        use rayon::prelude::*;
        let num_windows = wp.num_windows();
        let num_blocks = wp.num_tc_blocks();

        // Per window: the block column slots plus the position-sorted
        // (id, value) entries of each block.
        type WindowBlocks = (Vec<u32>, Vec<Vec<(u8, f32)>>);
        let per_window: Vec<WindowBlocks> = (0..num_windows)
            .into_par_iter()
            .map(|w| {
                let blocks = wp.window_blocks(w);
                let nb = blocks.len();
                let mut cols_out = vec![PAD_COL; nb * TILE];
                for bi in 0..nb {
                    let cols = wp.block_columns(w, bi);
                    cols_out[bi * TILE..(bi + 1) * TILE].copy_from_slice(&cols);
                }
                let mut entries: Vec<Vec<(u8, f32)>> = vec![Vec::new(); nb];
                let wcols = wp.window_columns(w);
                let lo = w * TILE;
                let hi = ((w + 1) * TILE).min(m.nrows());
                for r in lo..hi {
                    let lr = (r - lo) as u8;
                    let (cols, vals) = m.row(r);
                    for (&c, &v) in cols.iter().zip(vals.iter()) {
                        let pos = wcols.binary_search(&c).expect("column must be in window");
                        let lc = (pos % TILE) as u8;
                        entries[pos / TILE].push((lr * TILE as u8 + lc, v));
                    }
                }
                for e in entries.iter_mut() {
                    // Local ids are unique within a block, so the
                    // unstable sort is deterministic.
                    e.sort_unstable_by_key(|&(id, _)| id);
                }
                (cols_out, entries)
            })
            .collect();

        let mut row_window_offset = Vec::with_capacity(num_windows + 1);
        row_window_offset.push(0u32);
        let mut sparse_a_to_b = Vec::with_capacity(num_blocks * TILE);
        let mut tc_offset = Vec::with_capacity(num_blocks + 1);
        let mut tc_local_id = Vec::with_capacity(m.nnz());
        let mut values = Vec::with_capacity(m.nnz());
        for (w, (cols, entries)) in per_window.iter().enumerate() {
            row_window_offset.push(wp.window_blocks(w).end as u32);
            sparse_a_to_b.extend_from_slice(cols);
            for block in entries {
                tc_offset.push((values.len()) as u32);
                for &(id, v) in block {
                    tc_local_id.push(id);
                    values.push(v);
                }
            }
        }
        tc_offset.push(values.len() as u32);

        MeTcf {
            nrows: m.nrows(),
            ncols: m.ncols(),
            row_window_offset,
            tc_offset,
            sparse_a_to_b,
            tc_local_id,
            values,
            values_tf32: false,
        }
    }

    /// Incremental rebuild after an edge-delta update (see
    /// [`crate::BitTcf::rebuild_windows`] for the contract): untouched
    /// windows copy their SparseAToB / local-id / value spans from
    /// `self`, touched windows re-run the per-window converter against
    /// `m_new` + `wp_new`, and `TCOffset` is restitched. The result
    /// reports [`MeTcf::is_prerounded`] `false`; one idempotent
    /// [`MeTcf::preround_values_tier`] pass makes it byte-identical to
    /// a pre-rounded from-scratch build.
    pub fn rebuild_windows(
        &self,
        m_new: &CsrMatrix,
        wp_new: &WindowPartition,
        touched: &[bool],
    ) -> MeTcf {
        assert_eq!(m_new.nrows(), self.nrows, "deltas cannot change nrows");
        assert_eq!(m_new.ncols(), self.ncols, "deltas cannot change ncols");
        assert_eq!(wp_new.num_windows(), self.num_windows());
        assert_eq!(touched.len(), self.num_windows(), "one flag per window");
        let num_windows = self.num_windows();
        let num_blocks = wp_new.num_tc_blocks();

        let mut row_window_offset = Vec::with_capacity(num_windows + 1);
        row_window_offset.push(0u32);
        let mut sparse_a_to_b = Vec::with_capacity(num_blocks * TILE);
        let mut tc_offset = Vec::with_capacity(num_blocks + 1);
        let mut tc_local_id = Vec::with_capacity(m_new.nnz());
        let mut values = Vec::with_capacity(m_new.nnz());
        for (w, &is_touched) in touched.iter().enumerate() {
            row_window_offset.push(wp_new.window_blocks(w).end as u32);
            if !is_touched {
                let blocks = self.window_blocks(w);
                sparse_a_to_b
                    .extend_from_slice(&self.sparse_a_to_b[blocks.start * TILE..blocks.end * TILE]);
                for b in blocks.clone() {
                    let span = self.tc_offset[b] as usize..self.tc_offset[b + 1] as usize;
                    tc_offset.push(values.len() as u32);
                    tc_local_id.extend_from_slice(&self.tc_local_id[span.clone()]);
                    values.extend_from_slice(&self.values[span]);
                }
                continue;
            }
            let blocks = wp_new.window_blocks(w);
            let nb = blocks.len();
            for bi in 0..nb {
                sparse_a_to_b.extend_from_slice(&wp_new.block_columns(w, bi));
            }
            let mut entries: Vec<Vec<(u8, f32)>> = vec![Vec::new(); nb];
            let wcols = wp_new.window_columns(w);
            let lo = w * TILE;
            let hi = ((w + 1) * TILE).min(m_new.nrows());
            for r in lo..hi {
                let lr = (r - lo) as u8;
                let (cols, vals) = m_new.row(r);
                for (&c, &v) in cols.iter().zip(vals.iter()) {
                    let pos = wcols.binary_search(&c).expect("column must be in window");
                    let lc = (pos % TILE) as u8;
                    entries[pos / TILE].push((lr * TILE as u8 + lc, v));
                }
            }
            for block in entries.iter_mut() {
                block.sort_unstable_by_key(|&(id, _)| id);
                tc_offset.push(values.len() as u32);
                for &(id, v) in block.iter() {
                    tc_local_id.push(id);
                    values.push(v);
                }
            }
        }
        tc_offset.push(values.len() as u32);

        MeTcf {
            nrows: self.nrows,
            ncols: self.ncols,
            row_window_offset,
            tc_offset,
            sparse_a_to_b,
            tc_local_id,
            values,
            values_tf32: false,
        }
    }

    /// Reassemble from raw arrays (used by the binary loader, which
    /// validates the invariants before calling).
    pub(crate) fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_window_offset: Vec<u32>,
        tc_offset: Vec<u32>,
        sparse_a_to_b: Vec<u32>,
        tc_local_id: Vec<u8>,
        values: Vec<f32>,
    ) -> Self {
        MeTcf {
            nrows,
            ncols,
            row_window_offset,
            tc_offset,
            sparse_a_to_b,
            tc_local_id,
            values,
            values_tf32: false,
        }
    }

    /// Round the stored values to TF32 in place (idempotent, so every
    /// multiply stays bit-identical; lossy for [`MeTcf::to_csr`] — see
    /// [`crate::BitTcf::preround_values`]).
    pub fn preround_values(&mut self) {
        self.preround_values_tier(IsaTier::probe());
    }

    /// [`MeTcf::preround_values`] at an explicit ISA tier.
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
        self.tc_offset.len() - 1
    }

    /// TC blocks of window `w`.
    #[inline]
    pub fn window_blocks(&self, w: usize) -> std::ops::Range<usize> {
        self.row_window_offset[w] as usize..self.row_window_offset[w + 1] as usize
    }

    /// Index-structure footprint in bytes: the BitTCF skeleton with the
    /// bitmap replaced by one byte per nnz.
    pub fn index_bytes(&self) -> usize {
        (self.nrows.div_ceil(TILE) + 1 + self.num_tc_blocks() + 1 + self.num_tc_blocks() * TILE) * 4
            + self.nnz()
    }

    /// Decompress block `b` by scattering each nnz to its `TCLocalId`
    /// position (the DTC-SpMM decode path — one scatter per nnz, versus
    /// BitTCF's branch-free popcount).
    pub fn decompress_block(&self, b: usize) -> [f32; TILE * TILE] {
        let mut tile = [0.0f32; TILE * TILE];
        for k in self.tc_offset[b] as usize..self.tc_offset[b + 1] as usize {
            tile[self.tc_local_id[k] as usize] = self.values[k];
        }
        tile
    }

    /// Functional SpMM through the TC path (same numerics as
    /// [`crate::BitTcf::spmm`]).
    pub fn spmm(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        let mut c = DenseMatrix::zeros(self.nrows, b.ncols());
        self.spmm_into(b, &mut c)?;
        Ok(c)
    }

    /// [`MeTcf::spmm`] writing into a caller-provided output, parallel
    /// over RowWindows with one [`WindowPairs`] per worker (windows own
    /// disjoint output rows, so this computes the same floats as the
    /// sequential path).
    pub fn spmm_into(&self, b: &DenseMatrix, c: &mut DenseMatrix) -> Result<()> {
        self.check_shapes(b.nrows(), b.ncols(), c)?;
        let mut stage = BStage::new();
        stage.stage(b);
        self.spmm_into_staged(&stage, c)
    }

    /// The window-parallel SpMM over a pre-rounded B stage (see
    /// [`crate::BitTcf::spmm_into_staged`]).
    pub fn spmm_into_staged(&self, stage: &BStage, c: &mut DenseMatrix) -> Result<()> {
        self.spmm_into_staged_tier(stage, c, IsaTier::probe())
    }

    /// [`MeTcf::spmm_into_staged`] with an explicit ISA tier (see
    /// [`crate::BitTcf::spmm_into_staged_tier`]).
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

    /// Sequential zero-allocation SpMM with caller-owned scratch.
    pub fn spmm_into_seq(
        &self,
        b: &DenseMatrix,
        c: &mut DenseMatrix,
        scratch: &mut TileScratch,
    ) -> Result<()> {
        self.spmm_into_seq_tier(b, c, scratch, IsaTier::probe())
    }

    /// [`MeTcf::spmm_into_seq`] with an explicit ISA tier.
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

    /// Rows of window `w` (8, except for a ragged last window).
    #[inline]
    pub fn window_rows(&self, w: usize) -> usize {
        (self.nrows - w * TILE).min(TILE)
    }

    /// Decode window `w` into one pair list per window row (see
    /// [`crate::BitTcf`]'s window decoder for the order, rounding and
    /// zero-drop rules). A block's local ids are strictly ascending, so
    /// walking them in storage order hands each row its pairs in
    /// ascending (block, column) order.
    fn decode_window(&self, w: usize, pairs: &mut WindowPairs) {
        let blocks = self.window_blocks(w);
        let span = self.tc_offset[blocks.start] as usize..self.tc_offset[blocks.end] as usize;
        let mut caps = [0usize; TILE];
        for &id in &self.tc_local_id[span] {
            caps[id as usize / TILE] += 1;
        }
        pairs.reset(caps);
        for blk in blocks {
            let cols = &self.sparse_a_to_b[blk * TILE..(blk + 1) * TILE];
            for k in self.tc_offset[blk] as usize..self.tc_offset[blk + 1] as usize {
                let id = self.tc_local_id[k] as usize;
                let v = self.values[k];
                let v = if self.values_tf32 { v } else { to_tf32(v) };
                if v != 0.0 {
                    pairs.push(id / TILE, v, cols[id % TILE]);
                }
            }
        }
    }

    /// Compute window `w`'s output rows into `out`, row-streamed (see
    /// [`crate::BitTcf::window_product`] for the layout, rounding and
    /// batching contracts).
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

    /// Reconstruct CSR (round-trip for tests).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.nrows, self.ncols);
        for w in 0..self.num_windows() {
            let lo = w * TILE;
            for blk in self.window_blocks(w) {
                for k in self.tc_offset[blk] as usize..self.tc_offset[blk + 1] as usize {
                    let id = self.tc_local_id[k] as usize;
                    let (lr, lc) = (id / TILE, id % TILE);
                    let col = self.sparse_a_to_b[blk * TILE + lc];
                    coo.push((lo + lr) as u32, col, self.values[k]);
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bittcf::BitTcf;
    use spmm_matrix::gen::uniform_random;

    #[test]
    fn roundtrip_csr() {
        let m = uniform_random(150, 5.0, 2);
        assert_eq!(MeTcf::from_csr(&m).to_csr(), m);
    }

    #[test]
    fn same_block_structure_as_bittcf() {
        let m = uniform_random(256, 8.0, 7);
        let me = MeTcf::from_csr(&m);
        let bit = BitTcf::from_csr(&m);
        assert_eq!(me.num_tc_blocks(), bit.num_tc_blocks());
        assert_eq!(me.row_window_offset, bit.row_window_offset);
        assert_eq!(me.tc_offset, bit.tc_offset);
        assert_eq!(me.sparse_a_to_b, bit.sparse_a_to_b);
        for b in 0..me.num_tc_blocks() {
            assert_eq!(me.decompress_block(b), bit.decompress_block(b));
        }
    }

    #[test]
    fn spmm_agrees_with_bittcf() {
        let m = uniform_random(120, 6.0, 4);
        let b = DenseMatrix::random(120, 16, 3);
        let me = MeTcf::from_csr(&m).spmm(&b).unwrap();
        let bit = BitTcf::from_csr(&m).spmm(&b).unwrap();
        assert_eq!(me, bit, "identical TC-path numerics expected");
    }

    #[test]
    fn byte_accounting_grows_with_nnz_unlike_bittcf() {
        // Dense 8x8 blocks: ME-TCF pays 64 position bytes per block,
        // BitTCF pays 8.
        let mut coo = spmm_matrix::CooMatrix::new(64, 64);
        for r in 0..64u32 {
            for c in 0..8u32 {
                coo.push(r, c, 1.0);
            }
        }
        let m = CsrMatrix::from_coo(&coo);
        let me = MeTcf::from_csr(&m);
        let bit = BitTcf::from_csr(&m);
        assert!(me.index_bytes() > bit.index_bytes());
    }

    #[test]
    fn rebuild_windows_is_byte_identical_to_full_build() {
        let m = uniform_random(100, 5.0, 3);
        let wp = WindowPartition::build(&m);
        let t = MeTcf::from_partition(&m, &wp);
        let mut coo = m.to_coo();
        coo.push(17, 40, f32::NAN);
        coo.push(98, 1, -0.0);
        let m2 = CsrMatrix::from_coo(&coo);
        let mut touched = vec![false; wp.num_windows()];
        touched[2] = true;
        touched[12] = true;
        let wp2 = wp.rebuild(&m2, &touched);
        let rebuilt = t.rebuild_windows(&m2, &wp2, &touched);
        let scratch = MeTcf::from_partition(&m2, &wp2);
        assert_eq!(rebuilt.row_window_offset, scratch.row_window_offset);
        assert_eq!(rebuilt.tc_offset, scratch.tc_offset);
        assert_eq!(rebuilt.sparse_a_to_b, scratch.sparse_a_to_b);
        assert_eq!(rebuilt.tc_local_id, scratch.tc_local_id);
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
    }
}
