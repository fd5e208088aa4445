//! The TC-block matrix: one skeleton, pluggable position encodings.
//!
//! BitTCF (the paper's format, §3.3) and ME-TCF (DTC-SpMM's) store the
//! same RowWindow skeleton:
//! 1. `RowWindowOffset` — starting TC block of each RowWindow;
//! 2. `TCOffset` — starting nnz of each TC block;
//! 3. `SparseAToB` — original column of each block column slot, padded
//!    with [`PAD_COL`] (what the kernel uses to gather rows of B);
//! 4. the values, in block order and ascending position within a block.
//!
//! They differ only in how a block's non-zero *positions* (`r·8 + c`
//! within the 8×8 tile) are encoded — the one axis Figure 12 compares.
//! [`TcMatrix`] owns the skeleton and everything built on it: the
//! parallel per-window conversion and its stitching, pre-rounding,
//! block decode, the tile-MMA multiply and the CSR round trip. A [`BlockCodec`] owns only the position
//! encoding:
//!
//! * [`Bitmap`](crate::Bitmap) — one `u64` per block ([`crate::BitTcf`]);
//! * [`LocalIds`] — one `u8` per non-zero ([`MeTcf`]).
//!
//! Dispatch is static, so every decode loop monomorphizes per codec.
//! TCF is not a codec: its skeleton is per edge, with per-window offsets
//! and no block offsets (see [`crate::Tcf`]).

use crate::window::{WindowPartition, PAD_COL, TILE};
use spmm_common::simd::{to_tf32_slice_tier, IsaTier};
use spmm_common::Result;
use spmm_matrix::{CooMatrix, CsrMatrix, DenseMatrix};
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::Range;

/// One RowWindow's blocks as a codec encodes them.
#[derive(Debug, Clone, Default)]
pub struct EncodedWindow<W> {
    /// Non-zeros of each block, in block order.
    pub block_nnz: Vec<u32>,
    /// Position words of the blocks, in block order.
    pub words: Vec<W>,
    /// Values in block order, ascending position within a block.
    pub values: Vec<f32>,
}

/// How a TC block's non-zero positions are stored.
pub trait BlockCodec: Debug + Clone + PartialEq + Send + Sync + 'static {
    /// Storage unit of the positions array.
    type Word: Copy + Debug + PartialEq + Send + Sync;
    /// Format name used in error messages.
    const NAME: &'static str;

    /// Encode one RowWindow from CSR: `rows` are the window's rows of
    /// `m` (local row `r - rows.start`) and `wcols` its squeezed
    /// columns, block `i` covering `wcols[8i..8i + 8]`.
    fn encode_window(m: &CsrMatrix, rows: Range<usize>, wcols: &[u32])
        -> EncodedWindow<Self::Word>;

    /// The words that encode blocks `blocks`, given `TCOffset`.
    fn word_span(tc_offset: &[u32], blocks: Range<usize>) -> Range<usize>;

    /// Call `f` with each occupied position (`r·8 + c`) of the single
    /// block encoded by `words`, in ascending order: the `k`-th call is
    /// the block's `k`-th value.
    fn walk(words: &[Self::Word], f: impl FnMut(usize));

    /// Index-structure footprint in bytes (values excluded, as in the
    /// Figure-12 comparison).
    fn index_bytes(nrows: usize, num_blocks: usize, nnz: usize) -> usize;
}

/// ME-TCF's position codec: one `int8` local id (`r·8 + c`) per
/// non-zero (`TCLocalId`), ids ascending within a block. A block with
/// `k` non-zeros costs `k` bytes of position data versus BitTCF's flat
/// 8, so ME-TCF loses ground as blocks densify (> 8 nnz per block) —
/// the effect Figure 12 measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LocalIds;

/// DTC-SpMM's memory-efficient TC format (the baseline BitTCF improves
/// upon).
pub type MeTcf = TcMatrix<LocalIds>;

impl BlockCodec for LocalIds {
    type Word = u8;
    const NAME: &'static str = "ME-TCF";

    /// Collect each block's `(id, value)` entries, then sort them by id
    /// — the per-nnz id materialization and sort §4.3.2 prices against
    /// BitTCF's one OR per nnz.
    fn encode_window(m: &CsrMatrix, rows: Range<usize>, wcols: &[u32]) -> EncodedWindow<u8> {
        let mut entries: Vec<Vec<(u8, f32)>> = vec![Vec::new(); wcols.len().div_ceil(TILE)];
        for r in rows.clone() {
            let lr = r - rows.start;
            let (cols, vals) = m.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let pos = wcols.binary_search(&c).expect("column must be in window");
                entries[pos / TILE].push(((lr * TILE + pos % TILE) as u8, v));
            }
        }
        let mut out = EncodedWindow::default();
        for block in entries.iter_mut() {
            // Local ids are unique within a block, so the unstable sort
            // is deterministic.
            block.sort_unstable_by_key(|&(id, _)| id);
            out.block_nnz.push(block.len() as u32);
            for &(id, v) in block.iter() {
                out.words.push(id);
                out.values.push(v);
            }
        }
        out
    }

    #[inline]
    fn word_span(tc_offset: &[u32], blocks: Range<usize>) -> Range<usize> {
        tc_offset[blocks.start] as usize..tc_offset[blocks.end] as usize
    }

    #[inline]
    fn walk(words: &[u8], mut f: impl FnMut(usize)) {
        for &id in words {
            f(id as usize);
        }
    }

    /// The BitTCF skeleton with the bitmap replaced by one byte per nnz.
    fn index_bytes(nrows: usize, num_blocks: usize, nnz: usize) -> usize {
        (nrows.div_ceil(TILE) + 1 + num_blocks + 1 + num_blocks * TILE) * 4 + nnz
    }
}

/// A TC-block compressed sparse matrix whose block positions are
/// encoded by `C`.
#[derive(Debug, Clone, PartialEq)]
pub struct TcMatrix<C: BlockCodec> {
    nrows: usize,
    ncols: usize,
    /// Starting TC block per RowWindow (`⌈M/8⌉ + 1` entries).
    pub row_window_offset: Vec<u32>,
    /// Starting nnz per TC block (`NumTcBlock + 1` entries).
    pub tc_offset: Vec<u32>,
    /// Original column of each block column slot (`NumTcBlock × 8`,
    /// padded with [`PAD_COL`]).
    pub sparse_a_to_b: Vec<u32>,
    /// The codec's position words: BitTCF's `TCLocalBit` (one bitmap
    /// per block), ME-TCF's `TCLocalId` (one id per nnz).
    pub positions: Vec<C::Word>,
    /// Values in block order, ascending position within a block.
    pub values: Vec<f32>,
    /// Whether `values` have already been rounded to TF32
    /// ([`TcMatrix::preround_values_tier`]), which makes a second pass a
    /// no-op.
    values_tf32: bool,
    codec: PhantomData<C>,
}

impl<C: BlockCodec> TcMatrix<C> {
    /// Convert from CSR (via the shared window squeezing).
    pub fn from_csr(m: &CsrMatrix) -> Self {
        let wp = WindowPartition::build(m);
        Self::from_partition(m, &wp)
    }

    /// Convert from CSR with a precomputed partition (lets converters
    /// share the squeezing cost, as the conversion-overhead comparison
    /// requires). Windows are independent, so each is encoded in
    /// parallel and the pieces are stitched in window order.
    pub fn from_partition(m: &CsrMatrix, wp: &WindowPartition) -> Self {
        use rayon::prelude::*;
        let windows: Vec<(Vec<u32>, EncodedWindow<C::Word>)> = (0..wp.num_windows())
            .into_par_iter()
            .map(|w| Self::encode_window(m, wp, w))
            .collect();
        let words = windows.iter().map(|(_, e)| e.words.len()).sum();
        let mut t = Self::empty(m.nrows(), m.ncols(), wp, words, m.nnz());
        for (cols, e) in &windows {
            t.push_window(cols, e.block_nnz.iter().copied(), &e.words, &e.values);
        }
        t
    }

    /// Window `w`'s SparseAToB slots and codec encoding.
    fn encode_window(
        m: &CsrMatrix,
        wp: &WindowPartition,
        w: usize,
    ) -> (Vec<u32>, EncodedWindow<C::Word>) {
        let nb = wp.window_blocks(w).len();
        let mut cols = Vec::with_capacity(nb * TILE);
        for bi in 0..nb {
            cols.extend_from_slice(&wp.block_columns(w, bi));
        }
        let lo = w * TILE;
        let rows = lo..(lo + TILE).min(m.nrows());
        (cols, C::encode_window(m, rows, wp.window_columns(w)))
    }

    /// An empty matrix with room for `wp`'s blocks, `words` position
    /// words and `nnz` values, ready for [`TcMatrix::push_window`].
    fn empty(nrows: usize, ncols: usize, wp: &WindowPartition, words: usize, nnz: usize) -> Self {
        TcMatrix {
            nrows,
            ncols,
            row_window_offset: vec![0],
            tc_offset: vec![0],
            sparse_a_to_b: Vec::with_capacity(wp.num_tc_blocks() * TILE),
            positions: Vec::with_capacity(words),
            values: Vec::with_capacity(nnz),
            values_tf32: false,
            codec: PhantomData,
        }
    }

    /// Append the next window: its SparseAToB slots (8 per block), the
    /// nnz of each block, and its position words and values.
    fn push_window(
        &mut self,
        cols: &[u32],
        block_nnz: impl Iterator<Item = u32>,
        words: &[C::Word],
        values: &[f32],
    ) {
        let blocks = self.row_window_offset[self.row_window_offset.len() - 1];
        self.row_window_offset
            .push(blocks + (cols.len() / TILE) as u32);
        let mut at = self.tc_offset[self.tc_offset.len() - 1];
        for k in block_nnz {
            at += k;
            self.tc_offset.push(at);
        }
        self.sparse_a_to_b.extend_from_slice(cols);
        self.positions.extend_from_slice(words);
        self.values.extend_from_slice(values);
    }

    /// Round the stored values to TF32 in place at an explicit ISA tier
    /// (every tier rounds bit-identically; the plan passes its resolved
    /// tier) and mark the matrix as pre-rounded.
    ///
    /// Because [`spmm_common::scalar::to_tf32`] is idempotent, every
    /// multiply result stays bit-identical to the non-prerounded path.
    /// This is lossy for the *stored* matrix ([`TcMatrix::to_csr`]
    /// returns the rounded values), so it is meant for
    /// execution-plan-owned formats, not archival ones.
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

    /// TC blocks of window `w` as a block-id range.
    #[inline]
    pub fn window_blocks(&self, w: usize) -> Range<usize> {
        self.row_window_offset[w] as usize..self.row_window_offset[w + 1] as usize
    }

    /// Rows of window `w` (8, except for a ragged last window).
    #[inline]
    pub fn window_rows(&self, w: usize) -> usize {
        (self.nrows - w * TILE).min(TILE)
    }

    /// Non-zeros in TC block `b`.
    #[inline]
    pub fn block_nnz(&self, b: usize) -> usize {
        (self.tc_offset[b + 1] - self.tc_offset[b]) as usize
    }

    /// The 8 (padded) B-gather columns of block `b`.
    #[inline]
    pub fn block_cols(&self, b: usize) -> &[u32] {
        &self.sparse_a_to_b[b * TILE..(b + 1) * TILE]
    }

    /// The position words of block `b`.
    #[inline]
    fn block_words(&self, b: usize) -> &[C::Word] {
        &self.positions[C::word_span(&self.tc_offset, b..b + 1)]
    }

    /// Index-structure footprint in bytes ([`BlockCodec::index_bytes`]).
    pub fn index_bytes(&self) -> usize {
        C::index_bytes(self.nrows, self.num_tc_blocks(), self.nnz())
    }

    /// Decompress block `b` into a dense 8×8 tile: the `k`-th position
    /// of the codec's ascending walk receives `values[tc_offset[b] + k]`
    /// (for BitTCF, `k` is the popcount of the bits below the position —
    /// the CUDA `__popcll` decoder), every other position is zero.
    pub fn decompress_block(&self, b: usize) -> [f32; TILE * TILE] {
        let mut tile = [0.0f32; TILE * TILE];
        let mut idx = self.tc_offset[b] as usize;
        C::walk(self.block_words(b), |t| {
            tile[t] = self.values[idx];
            idx += 1;
        });
        tile
    }

    /// Functional SpMM through the TC path: TF32 operands, FP32
    /// accumulate, numerically what the GPU kernel computes — a chain of
    /// 8×8 tile MMAs per RowWindow.
    pub fn spmm(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        self.spmm_with_precision(b, spmm_common::Precision::Tf32)
    }

    /// [`TcMatrix::spmm`] with a selectable operand precision (TF32 is
    /// the paper's mode; FP16/BF16 model Magicube-style reduced-precision
    /// tensor-core paths, FP32 the exact reference).
    pub fn spmm_with_precision(
        &self,
        b: &DenseMatrix,
        precision: spmm_common::Precision,
    ) -> Result<DenseMatrix> {
        let n = b.ncols();
        let mut c = DenseMatrix::zeros(self.nrows, n);
        crate::check_spmm_shapes(self.nrows, self.ncols, b.nrows(), n, &c)?;
        let mut btile = vec![0.0f32; TILE * n];
        let mut ctile = vec![0.0f32; TILE * n];
        for w in 0..self.num_windows() {
            ctile.fill(0.0);
            for blk in self.window_blocks(w) {
                let a = self.decompress_block(blk);
                for (i, &col) in self.block_cols(blk).iter().enumerate() {
                    let dst = &mut btile[i * n..(i + 1) * n];
                    if col == PAD_COL {
                        dst.fill(0.0);
                    } else {
                        dst.copy_from_slice(b.row(col as usize));
                    }
                }
                spmm_common::precision::mma_8x8_with_precision(
                    &a, &btile, &mut ctile, n, precision,
                );
            }
            let lo = w * TILE;
            let rows = self.window_rows(w);
            c.as_mut_slice()[lo * n..(lo + rows) * n].copy_from_slice(&ctile[..rows * n]);
        }
        Ok(c)
    }

    /// Reconstruct the CSR matrix (round-trip used by tests).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.nrows, self.ncols);
        for w in 0..self.num_windows() {
            let lo = w * TILE;
            for blk in self.window_blocks(w) {
                let cols = self.block_cols(blk);
                let mut idx = self.tc_offset[blk] as usize;
                C::walk(self.block_words(blk), |t| {
                    coo.push((lo + t / TILE) as u32, cols[t % TILE], self.values[idx]);
                    idx += 1;
                });
            }
        }
        CsrMatrix::from_coo(&coo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitTcf;
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
        let mut coo = CooMatrix::new(64, 64);
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
}
