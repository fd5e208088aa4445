//! Additional linear-algebra operations on the matrix types: symmetric
//! permutation (the paper's future-work column+dense-row reorder needs
//! it), sparse arithmetic, submatrix extraction, and a dense GEMM on the
//! row core used by the GNN layers.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use rayon::prelude::*;
use spmm_common::{mma_row_tier_unchecked, IsaTier, Result, SpmmError};

impl CsrMatrix {
    /// Apply the same permutation to rows **and** columns:
    /// `B[perm[i], perm[j]] = A[i, j]`. This is the graph-relabeling
    /// permutation of the paper's future-work variant, where the dense
    /// operand's rows are permuted alongside (see
    /// [`DenseMatrix::permute_rows`]).
    pub fn permute_symmetric(&self, perm: &[u32]) -> Result<CsrMatrix> {
        if self.nrows() != self.ncols() {
            return Err(SpmmError::Shape {
                context: format!(
                    "symmetric permutation requires a square matrix, got {}x{}",
                    self.nrows(),
                    self.ncols()
                ),
            });
        }
        if perm.len() != self.nrows() || !spmm_common::util::is_permutation(perm) {
            return Err(SpmmError::InvalidConfig(
                "symmetric permutation is not a bijection over the rows".into(),
            ));
        }
        // Old row `inv[new]` lands in row `new` with relabeled columns;
        // a bijection creates no duplicates, so a sort within the row
        // restores column order. Each entry sorts as one word, its
        // column above its value bits.
        let inv = spmm_common::util::invert_permutation(perm);
        let mut row_ptr = Vec::with_capacity(self.nrows() + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        let mut row = Vec::new();
        for &old in &inv {
            let (cols, vals) = self.row(old as usize);
            row.clear();
            row.extend(
                cols.iter()
                    .zip(vals)
                    .map(|(&c, v)| (perm[c as usize] as u64) << 32 | v.to_bits() as u64),
            );
            row.sort_unstable();
            col_idx.extend(row.iter().map(|&e| (e >> 32) as u32));
            values.extend(row.iter().map(|&e| f32::from_bits(e as u32)));
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::new(self.nrows(), self.ncols(), row_ptr, col_idx, values)
    }

    /// Multiply every stored value by `s`.
    pub fn scale(&self, s: f32) -> CsrMatrix {
        let mut coo = self.to_coo();
        let scaled = {
            let (rows, cols, vals) = coo.triplets();
            CooMatrix::from_triplets(
                self.nrows(),
                self.ncols(),
                rows.to_vec(),
                cols.to_vec(),
                vals.iter().map(|&v| v * s).collect(),
            )
            .expect("scaling preserves structure")
        };
        coo = scaled;
        CsrMatrix::from_coo(&coo)
    }

    /// Sparse addition `self + other` (patterns merged, values summed).
    pub fn add(&self, other: &CsrMatrix) -> Result<CsrMatrix> {
        if self.nrows() != other.nrows() || self.ncols() != other.ncols() {
            return Err(SpmmError::Shape {
                context: format!(
                    "add: {}x{} vs {}x{}",
                    self.nrows(),
                    self.ncols(),
                    other.nrows(),
                    other.ncols()
                ),
            });
        }
        let mut coo = self.to_coo();
        for r in 0..other.nrows() {
            let (cols, vals) = other.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                coo.push(r as u32, c, v);
            }
        }
        coo.dedup_sum(true);
        Ok(CsrMatrix::from_coo(&coo))
    }

    /// Extract the submatrix of rows `rows` and columns `cols`
    /// (half-open ranges).
    pub fn submatrix(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> Result<CsrMatrix> {
        if rows.end > self.nrows() || cols.end > self.ncols() {
            return Err(SpmmError::IndexOutOfBounds {
                what: "submatrix bound",
                index: rows.end.max(cols.end),
                bound: self.nrows().max(self.ncols()),
            });
        }
        let mut coo = CooMatrix::new(rows.len(), cols.len());
        for r in rows.clone() {
            let (cidx, vals) = self.row(r);
            for (&c, &v) in cidx.iter().zip(vals.iter()) {
                if cols.contains(&(c as usize)) {
                    coo.push((r - rows.start) as u32, c - cols.start as u32, v);
                }
            }
        }
        Ok(CsrMatrix::from_coo(&coo))
    }

    /// Symmetrize: `(A + Aᵀ)` with duplicate coordinates keeping the
    /// first value (adjacency semantics, matching the graph view).
    pub fn symmetrized(&self) -> CsrMatrix {
        let mut coo = self.to_coo();
        coo.symmetrize();
        CsrMatrix::from_coo(&coo)
    }
}

impl DenseMatrix {
    /// Dense GEMM: `self × other` in FP32 — the dense weight multiply
    /// of the GNN layers. Output rows run in parallel, each one
    /// [`mma_row_tier_unchecked`] call on the host's tier
    /// ([`IsaTier::probe`]) over that row's non-zero A entries in
    /// ascending `k`: ±0 entries are skipped and NaN entries kept. Per
    /// output element the products are added in ascending `k`, multiply
    /// and add rounded apart, so the result is the same on every tier.
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        self.matmul_tier(other, IsaTier::probe())
    }

    /// [`DenseMatrix::matmul`] at an explicit tier.
    fn matmul_tier(&self, other: &DenseMatrix, tier: IsaTier) -> Result<DenseMatrix> {
        if self.ncols() != other.nrows() {
            return Err(SpmmError::Shape {
                context: format!(
                    "matmul: {}x{} times {}x{}",
                    self.nrows(),
                    self.ncols(),
                    other.nrows(),
                    other.ncols()
                ),
            });
        }
        let mut c = DenseMatrix::zeros(self.nrows(), other.ncols());
        c.as_mut_slice()
            .par_chunks_mut(other.ncols().max(1))
            .enumerate()
            .for_each_init(
                || (Vec::new(), Vec::new()),
                |(avs, cols): &mut (Vec<f32>, Vec<u32>), (i, crow)| {
                    avs.clear();
                    cols.clear();
                    for (k, &a) in self.row(i).iter().enumerate() {
                        if a != 0.0 {
                            avs.push(a);
                            cols.push(k as u32);
                        }
                    }
                    // SAFETY: every column is a `k < self.ncols() ==
                    // other.nrows()` (checked above) and `crow.len() ==
                    // other.ncols()`, so each row `cols[t]` lies inside
                    // `other`.
                    unsafe { mma_row_tier_unchecked(avs, cols, other.as_slice(), crow, tier) };
                },
            );
        Ok(c)
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.ncols(), self.nrows(), |i, j| self.get(j, i))
    }

    /// Apply a row permutation: row `old` becomes row `perm[old]` — the
    /// dense-side half of the paper's future-work symmetric reordering.
    pub fn permute_rows(&self, perm: &[u32]) -> Result<DenseMatrix> {
        if perm.len() != self.nrows() || !spmm_common::util::is_permutation(perm) {
            return Err(SpmmError::InvalidConfig(
                "dense row permutation is not a bijection".into(),
            ));
        }
        let mut out = DenseMatrix::zeros(self.nrows(), self.ncols());
        self.permute_rows_into(perm, &mut out)?;
        Ok(out)
    }

    /// [`DenseMatrix::permute_rows`] writing into a caller-provided,
    /// same-shape output (every row is overwritten).
    pub fn permute_rows_into(&self, perm: &[u32], out: &mut DenseMatrix) -> Result<()> {
        if perm.len() != self.nrows() || !spmm_common::util::is_permutation(perm) {
            return Err(SpmmError::InvalidConfig(
                "dense row permutation is not a bijection".into(),
            ));
        }
        if out.nrows() != self.nrows() || out.ncols() != self.ncols() {
            return Err(SpmmError::Shape {
                context: format!(
                    "permute target is {}x{}, source is {}x{}",
                    out.nrows(),
                    out.ncols(),
                    self.nrows(),
                    self.ncols()
                ),
            });
        }
        for (old, &p) in perm.iter().enumerate() {
            out.row_mut(p as usize).copy_from_slice(self.row(old));
        }
        Ok(())
    }

    /// `self += alpha · other`, elementwise.
    pub fn add_assign_scaled(&mut self, other: &DenseMatrix, alpha: f32) -> Result<()> {
        if self.nrows() != other.nrows() || self.ncols() != other.ncols() {
            return Err(SpmmError::Shape {
                context: "add_assign_scaled shape mismatch".into(),
            });
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::uniform_random;
    use proptest::prelude::*;

    /// The GEMM `matmul` replaced, kept as its oracle: 64-wide `k`
    /// blocks, `k` ascending per output element, ±0 A entries skipped,
    /// multiply and add rounded apart.
    fn blocked_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
        let mut c = DenseMatrix::zeros(m, n);
        const BK: usize = 64;
        for k0 in (0..k).step_by(BK) {
            let k1 = (k0 + BK).min(k);
            for i in 0..m {
                let arow = a.row(i);
                let crow = c.row_mut(i);
                for (kk, &av) in arow.iter().enumerate().take(k1).skip(k0) {
                    if av == 0.0 {
                        continue;
                    }
                    let brow = b.row(kk);
                    for j in 0..n {
                        crow[j] += av * brow[j];
                    }
                }
            }
        }
        c
    }

    /// Ordinary values with ±0 (often, so the zero skip matters), ±Inf,
    /// NaN and subnormals spliced in.
    fn messy(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        const SPECIALS: [u32; 6] = [
            0x0000_0000, // +0.0
            0x8000_0000, // -0.0
            0x7F80_0000, // +Inf
            0xFF80_0000, // -Inf
            0x7FC0_0000, // quiet NaN
            0x0001_2345, // subnormal
        ];
        let mut state = seed | 1;
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (state >> 58) as usize;
            if pick < 3 {
                f32::from_bits(SPECIALS[(state >> 20) as usize % SPECIALS.len()])
            } else if pick < 12 {
                f32::from_bits((state >> 30) as u32 & 0x8000_0000)
            } else {
                f32::from_bits(0x3000_0000 | (state >> 40) as u32 | (state as u32 & 0x8000_0000))
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // NaN positions exact, every other bit equal, on every tier the
        // host has.
        #[test]
        fn matmul_matches_the_blocked_loop_on_every_tier(
            seed in any::<u64>(),
            m in 1usize..12,
            k in 65usize..200,
            n_idx in 0usize..4,
        ) {
            let n = [1, 8, 17, 33][n_idx];
            let a = messy(m, k, seed);
            let b = messy(k, n, seed.wrapping_add(1));
            let want = blocked_matmul(&a, &b);
            for tier in IsaTier::ALL.into_iter().filter(|t| t.is_available()) {
                let got = a.matmul_tier(&b, tier).unwrap();
                for (i, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
                    prop_assert!(
                        w.to_bits() == g.to_bits() || (w.is_nan() && g.is_nan()),
                        "tier {tier}, element {i}: {w:?} vs {g:?}"
                    );
                }
            }
        }

        // Bit for bit what the COO construction builds, on operands
        // with NaN, -0.0, subnormal values and empty rows.
        #[test]
        fn symmetric_permute_matches_the_coo_construction(
            n in 1usize..48,
            entries in proptest::collection::vec((0u32..48, 0u32..48, 0usize..8), 0..160),
            seed in any::<u64>(),
            identity in any::<bool>(),
        ) {
            const VALUES: [u32; 8] = [
                0x7FC0_0000, // quiet NaN
                0x8000_0000, // -0.0
                0x0000_0000, // +0.0
                0x0001_2345, // subnormal
                0x3F80_0000, // 1.0
                0xC0A0_0000, // -5.0
                0x7F80_0000, // +Inf
                0x3E4C_CCCD, // 0.2
            ];
            let mut coo = CooMatrix::new(n, n);
            for &(r, c, v) in &entries {
                coo.push(r % n as u32, c % n as u32, f32::from_bits(VALUES[v]));
            }
            let m = CsrMatrix::from_coo(&coo);
            let mut perm: Vec<u32> = (0..n as u32).collect();
            if !identity {
                for i in (1..n).rev() {
                    let j = spmm_common::util::splitmix64(seed ^ i as u64) as usize % (i + 1);
                    perm.swap(i, j);
                }
            }
            let mut reference = CooMatrix::new(n, n);
            for r in 0..n {
                let (cols, vals) = m.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    reference.push(perm[r], perm[c as usize], v);
                }
            }
            let want = CsrMatrix::from_coo(&reference);
            let got = m.permute_symmetric(&perm).unwrap();
            prop_assert_eq!(got.row_ptr(), want.row_ptr());
            prop_assert_eq!(got.col_idx(), want.col_idx());
            let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn symmetric_permute_relabels_both_sides() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 5.0);
        coo.push(2, 0, 7.0);
        let m = CsrMatrix::from_coo(&coo);
        // 0->2, 1->0, 2->1.
        let p = m.permute_symmetric(&[2, 0, 1]).unwrap();
        let d = p.to_dense();
        assert_eq!(d.get(2, 0), 5.0, "A[0,1] -> B[2,0]");
        assert_eq!(d.get(1, 2), 7.0, "A[2,0] -> B[1,2]");
        assert_eq!(p.nnz(), 2);
    }

    #[test]
    fn symmetric_permute_preserves_spmm_with_permuted_dense() {
        // The future-work identity: (P A Pᵀ)(P B) = P (A B).
        let a = uniform_random(64, 6.0, 3);
        let b = DenseMatrix::random(64, 8, 4);
        let perm: Vec<u32> = (0..64u32).map(|i| (i * 13 + 5) % 64).collect();
        assert!(spmm_common::util::is_permutation(&perm));
        let pa = a.permute_symmetric(&perm).unwrap();
        let pb = b.permute_rows(&perm).unwrap();
        let lhs = pa.spmm_dense(&pb).unwrap();
        let rhs = a.spmm_dense(&b).unwrap().permute_rows(&perm).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-6, 1e-6));
    }

    #[test]
    fn scale_and_add() {
        let a = uniform_random(32, 4.0, 1);
        let doubled = a.scale(2.0);
        let summed = a.add(&a).unwrap();
        assert_eq!(doubled, summed);
        // A + (-1)*A == empty after zero-dropping.
        let zero = a.add(&a.scale(-1.0)).unwrap();
        assert_eq!(zero.nnz(), 0);
    }

    #[test]
    fn submatrix_extracts_block() {
        let mut coo = CooMatrix::new(6, 6);
        coo.push(2, 3, 1.0);
        coo.push(4, 4, 2.0);
        coo.push(0, 0, 3.0);
        let m = CsrMatrix::from_coo(&coo);
        let s = m.submatrix(2..5, 3..6).unwrap();
        assert_eq!(s.nrows(), 3);
        assert_eq!(s.ncols(), 3);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense().get(0, 0), 1.0);
        assert_eq!(s.to_dense().get(2, 1), 2.0);
        assert!(m.submatrix(0..7, 0..2).is_err());
    }

    #[test]
    fn dense_matmul_matches_manual() {
        let a = DenseMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
        let b = DenseMatrix::from_fn(3, 2, |i, j| (i * 2 + j) as f32);
        let c = a.matmul(&b).unwrap();
        // [[0,1,2],[3,4,5]] x [[0,1],[2,3],[4,5]] = [[10,13],[28,40]]
        assert_eq!(c.row(0), &[10.0, 13.0]);
        assert_eq!(c.row(1), &[28.0, 40.0]);
        assert!(a.matmul(&a).is_err(), "2x3 times 2x3 must fail");
    }

    #[test]
    fn dense_matmul_associates_with_spmm() {
        // (A × B) × W == A × (B × W): both are exact in FP32 only up to
        // rounding, so compare loosely.
        let a = uniform_random(48, 5.0, 9);
        let b = DenseMatrix::random(48, 16, 2);
        let w = DenseMatrix::random(16, 8, 3);
        let lhs = a.spmm_dense(&b).unwrap().matmul(&w).unwrap();
        let rhs = a.spmm_dense(&b.matmul(&w).unwrap()).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-4, 1e-4));
    }

    #[test]
    fn dense_transpose_involutive() {
        let a = DenseMatrix::random(5, 7, 1);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_assign_scaled_axpy() {
        let mut a = DenseMatrix::from_fn(2, 2, |_, _| 1.0);
        let b = DenseMatrix::from_fn(2, 2, |_, _| 2.0);
        a.add_assign_scaled(&b, 0.5).unwrap();
        assert!(a.as_slice().iter().all(|&x| x == 2.0));
        assert!(a.add_assign_scaled(&DenseMatrix::zeros(3, 2), 1.0).is_err());
    }
}
