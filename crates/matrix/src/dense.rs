//! Row-major dense matrices (the B and C operands of SpMM).

use spmm_common::{Result, SpmmError};

/// A row-major dense `f32` matrix.
///
/// This is the representation of the dense operand `B` and the result `C`
/// in `C = A × B`. Row-major layout matches how the kernels stream
/// feature rows of `B` selected by sparse column indices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// All-zeros matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        DenseMatrix { nrows, ncols, data }
    }

    /// Wrap an existing row-major buffer.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(SpmmError::Shape {
                context: format!(
                    "buffer of {} elements cannot back a {nrows}x{ncols} matrix",
                    data.len()
                ),
            });
        }
        Ok(DenseMatrix { nrows, ncols, data })
    }

    /// Deterministic pseudo-random matrix with entries in `[-1, 1)`,
    /// seeded so tests and benches are reproducible.
    pub fn random(nrows: usize, ncols: usize, seed: u64) -> Self {
        Self::from_fn(nrows, ncols, |i, j| {
            let h = spmm_common::util::splitmix64(
                seed ^ ((i as u64) << 32) ^ (j as u64).wrapping_mul(0x9E37_79B9),
            );
            // Map the top 24 bits to [-1, 1).
            ((h >> 40) as f32) / (1u64 << 23) as f32 - 1.0
        })
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

    /// Reshape to `nrows × ncols` in place, reusing the backing buffer:
    /// it grows when needed and is never released. Elements keep
    /// whatever the buffer held (zeros where it grew), so this is for
    /// staging buffers that overwrite every element next.
    pub fn reshape_reuse(&mut self, nrows: usize, ncols: usize) {
        self.data.resize(nrows * ncols, 0.0);
        self.nrows = nrows;
        self.ncols = ncols;
    }

    /// Bytes of backing storage retained, used or not.
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// Borrow the full row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the full row-major backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.ncols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.ncols + j] = v;
    }

    /// Largest absolute element difference against `other`.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f32 {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// Relative comparison suitable for TF32-vs-FP32 checks: true when every
    /// element satisfies `|a-b| <= atol + rtol * max(|a|, |b|)`.
    pub fn approx_eq(&self, other: &DenseMatrix, rtol: f32, atol: f32) -> bool {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return false;
        }
        self.data.iter().zip(other.data.iter()).all(|(a, b)| {
            let tol = atol + rtol * a.abs().max(b.abs());
            (a - b).abs() <= tol
        })
    }

    /// Frobenius norm, used for relative-error reporting in the examples.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = DenseMatrix::zeros(3, 5);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 5);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_and_indexing() {
        let m = DenseMatrix::from_fn(2, 3, |i, j| (i * 10 + j) as f32);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        assert!(DenseMatrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = DenseMatrix::random(16, 16, 7);
        let b = DenseMatrix::random(16, 16, 7);
        let c = DenseMatrix::random(16, 16, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
        // Should not be degenerate (all equal).
        assert!(a.as_slice().iter().any(|&x| x != a.get(0, 0)));
    }

    #[test]
    fn approx_eq_respects_tolerances() {
        let a = DenseMatrix::from_fn(2, 2, |_, _| 1000.0);
        let mut b = a.clone();
        b.set(0, 0, 1000.5);
        assert!(a.approx_eq(&b, 1e-3, 0.0));
        assert!(!a.approx_eq(&b, 1e-6, 0.0));
        assert!(a.approx_eq(&b, 0.0, 0.6));
    }

    #[test]
    fn max_abs_diff_basic() {
        let a = DenseMatrix::zeros(2, 2);
        let mut b = DenseMatrix::zeros(2, 2);
        b.set(1, 1, -3.0);
        assert_eq!(a.max_abs_diff(&b), 3.0);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.row_mut(0)[1] = 5.0;
        assert_eq!(m.get(0, 1), 5.0);
    }
}
