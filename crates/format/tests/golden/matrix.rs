//! The matrix behind the golden fixtures in this directory.
//!
//! 45 × 70, six RowWindows:
//! * window 0 holds one full 64-nnz block (rows 0–7 × columns 0–7)
//!   and a second, padded block;
//! * window 1 (rows 8–15) is empty;
//! * windows 2–4 scatter entries across several blocks, including an
//!   explicit zero, a NaN, ±Inf, `-0.0` and subnormals;
//! * window 5 is ragged (rows 40–44).
//!
//! Values carry mantissa bits below TF32 precision, so pre-rounding
//! changes them. Everything is computed, nothing is random.

use spmm_matrix::{CooMatrix, CsrMatrix};

/// Build the golden matrix.
pub fn golden_matrix() -> CsrMatrix {
    let mut coo = CooMatrix::new(45, 70);
    let value = |k: u32| (k as f32) * 0.372_914_5 - std::f32::consts::PI;
    for r in 0..8u32 {
        for c in 0..8u32 {
            coo.push(r, c, value(r * 8 + c));
        }
        coo.push(r, 9 + 3 * r, value(100 + r));
    }
    let mut k = 200u32;
    for r in 16..40u32 {
        for j in 0..(r % 5 + 1) {
            let c = (r * 7 + j * 13) % 70;
            coo.push(r, c, value(k));
            k += 1;
        }
    }
    coo.push(17, 69, 0.0);
    coo.push(18, 64, f32::NAN);
    coo.push(25, 66, f32::INFINITY);
    coo.push(26, 67, f32::NEG_INFINITY);
    coo.push(27, 68, -0.0);
    coo.push(33, 65, 1.0e-41);
    coo.push(34, 65, f32::from_bits(0x0000_0800));
    for r in 40..45u32 {
        coo.push(r, r - 40, value(k));
        coo.push(r, 50 + r % 3, value(k + 1));
        k += 2;
    }
    CsrMatrix::from_coo(&coo)
}
