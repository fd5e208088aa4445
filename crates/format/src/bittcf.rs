//! BitTCF — the paper's memory-efficient compressed format (§3.3).
//!
//! The [`TcMatrix`] skeleton (`RowWindowOffset`, `TCOffset`,
//! `SparseAToB`, values) plus `TCLocalBit`: one `u64` per TC block whose
//! bit `r·8+c` marks a non-zero at local position `(r, c)`.
//!
//! Index footprint: `(⌈M/8⌉ + NumTCBlock × 11 + 2) × 4` bytes, exactly
//! the paper's formula. Decompression mirrors the CUDA `__popcll` path:
//! the value index of the non-zero at bit `t` is the popcount of the bits
//! below `t`, which is what walking the set bits in ascending order
//! counts.

use crate::tc_matrix::{BlockCodec, EncodedWindow, TcMatrix};
use crate::window::TILE;
use spmm_matrix::CsrMatrix;
use std::ops::Range;

/// BitTCF's position codec: one occupancy bitmap per TC block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Bitmap;

/// The BitTCF compressed sparse matrix.
pub type BitTcf = TcMatrix<Bitmap>;

impl BlockCodec for Bitmap {
    type Word = u64;
    const NAME: &'static str = "BitTCF";

    /// The cheap path §4.3.2 measures: the bitmap is built with one OR
    /// per nnz, and because rows are visited in order (ascending local
    /// row, then ascending squeezed column) values arrive already in bit
    /// order, so a per-block cursor places them — no per-block sort and
    /// no per-nnz id array, unlike the ME-TCF encoder.
    fn encode_window(m: &CsrMatrix, rows: Range<usize>, wcols: &[u32]) -> EncodedWindow<u64> {
        let mut bits = vec![0u64; wcols.len().div_ceil(TILE)];
        // Each non-zero's block, in row order: one column search per nnz.
        let window = m.row_ptr()[rows.start]..m.row_ptr()[rows.end];
        let mut block_of = Vec::with_capacity(window.len());
        for r in rows.clone() {
            let lr = r - rows.start;
            for &c in m.row(r).0 {
                let pos = wcols.binary_search(&c).expect("column must be in window");
                bits[pos / TILE] |= 1u64 << (lr * TILE + pos % TILE);
                block_of.push(pos / TILE);
            }
        }
        // Block b's values start at the popcount prefix of the blocks
        // before it.
        let mut cursor = Vec::with_capacity(bits.len());
        let mut block_nnz = Vec::with_capacity(bits.len());
        let mut acc = 0usize;
        for &b in &bits {
            cursor.push(acc);
            block_nnz.push(b.count_ones());
            acc += b.count_ones() as usize;
        }
        let mut values = vec![0f32; acc];
        for (&bi, &v) in block_of.iter().zip(&m.values()[window]) {
            values[cursor[bi]] = v;
            cursor[bi] += 1;
        }
        EncodedWindow {
            block_nnz,
            words: bits,
            values,
        }
    }

    #[inline]
    fn word_span(_tc_offset: &[u32], blocks: Range<usize>) -> Range<usize> {
        blocks
    }

    #[inline]
    fn walk(words: &[u64], mut f: impl FnMut(usize)) {
        for &word in words {
            let mut bits = word;
            while bits != 0 {
                f(bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    fn index_bytes(nrows: usize, num_blocks: usize, _nnz: usize) -> usize {
        (nrows.div_ceil(TILE) + num_blocks * 11 + 2) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{WindowPartition, PAD_COL};
    use spmm_common::scalar::tf32_tolerance;
    use spmm_common::simd::IsaTier;
    use spmm_matrix::gen::uniform_random;
    use spmm_matrix::{CooMatrix, DenseMatrix};

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
                t.positions[b].count_ones() as usize,
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
        // B must have one row per column of A (12), no fewer, no more.
        let t = BitTcf::from_csr(&small());
        for rows in [5, 11, 13] {
            assert!(t.spmm(&DenseMatrix::zeros(rows, 4)).is_err(), "{rows} rows");
        }
        assert!(t.spmm(&DenseMatrix::zeros(12, 4)).is_ok());
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
        let tier = IsaTier::probe();
        let mut pre = t.clone();
        pre.preround_values_tier(tier);
        assert!(pre.is_prerounded());
        assert_eq!(pre.spmm(&b).unwrap(), want, "prerounded path");
        // Prerounding twice is a no-op.
        let mut twice = pre.clone();
        twice.preround_values_tier(tier);
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
        pre.preround_values_tier(IsaTier::probe());
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
        // The output check spmm applies before it writes: C must be
        // nrows x B's column count, no row or column more or fewer.
        let t = BitTcf::from_csr(&small());
        let (rows, cols) = (t.nrows(), t.ncols());
        let check = |c: &DenseMatrix| crate::check_spmm_shapes(rows, cols, 12, 4, c);
        assert!(check(&DenseMatrix::zeros(12, 4)).is_ok());
        assert!(check(&DenseMatrix::zeros(11, 4)).is_err());
        assert!(check(&DenseMatrix::zeros(12, 5)).is_err());
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
        // TF32 mode is the default spmm.
        let via_default = t.spmm(&b).unwrap();
        let via_precision = t.spmm_with_precision(&b, Precision::Tf32).unwrap();
        assert_eq!(via_default, via_precision);
    }
}
