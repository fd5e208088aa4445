//! TF32 scalar emulation.
//!
//! NVIDIA tensor cores execute `mma.m16n8k8.tf32` by rounding each FP32
//! operand to TF32 (8-bit exponent, 10-bit mantissa) and accumulating in
//! full FP32. We reproduce exactly that: [`to_tf32`] performs
//! round-to-nearest-even truncation of the low 13 mantissa bits, and the
//! MMA helpers round operands before multiplying while keeping the
//! accumulator in FP32.

/// FP32 exponent field mask; an all-ones exponent means NaN or infinity.
const EXP_MASK: u32 = 0x7F80_0000;

/// Round an `f32` to TF32 precision (10-bit mantissa) with
/// round-to-nearest-even, which is what Ampere-class tensor cores apply to
/// `mma` operands.
///
/// NaN and infinities are passed through unchanged; TF32 shares FP32's
/// 8-bit exponent so no range change occurs. The non-finite passthrough
/// is a branchless bitmask select (not an early return) so slice-level
/// rounding autovectorizes.
#[inline]
pub fn to_tf32(x: f32) -> f32 {
    let bits = x.to_bits();
    // 13 low mantissa bits are dropped. Round-to-nearest-even: add half of
    // the dropped ULP plus the parity bit of the kept part. A round-up
    // carry out of the mantissa lands in the exponent, which is exactly
    // IEEE overflow-to-infinity; only a pre-existing all-ones exponent
    // (NaN/Inf) must keep its original bits, selected by `pass`.
    let round_bit = 1u32 << 12;
    let keep_lsb = (bits >> 13) & 1;
    let rounded = bits.wrapping_add((round_bit - 1) + keep_lsb) & !0x1FFF;
    let pass = 0u32.wrapping_sub(((bits & EXP_MASK) == EXP_MASK) as u32);
    f32::from_bits((rounded & !pass) | (bits & pass))
}

/// Round every element of `xs` to TF32 in place.
///
/// Since [`to_tf32`] is idempotent, pre-rounding a buffer once and then
/// multiplying is bit-identical to rounding at every use — which is what
/// lets the formats store pre-rounded values and the kernels stage a
/// pre-rounded copy of B (the row core `simd::mma_row_tier` consumes
/// both).
#[inline]
pub fn to_tf32_slice(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = to_tf32(*x);
    }
}

/// Round `src` to TF32 into `dst` (same contract as [`to_tf32_slice`]).
#[inline]
pub fn to_tf32_slice_into(src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = to_tf32(s);
    }
}

/// Dot product with TF32 operand rounding and FP32 accumulation, mirroring
/// a chain of tensor-core MMAs along the K dimension.
///
/// **Test-only.** This re-rounds both operands per element — the slow
/// path the pre-rounded kernels exist to avoid — so it is kept solely as
/// a readable oracle for tests and is not re-exported from the crate
/// root; kernels cannot reach it by accident.
#[cfg(test)]
#[inline]
pub fn tf32_dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += to_tf32(x) * to_tf32(y);
    }
    acc
}

/// One software tensor-core MMA over an 8×8 A block and an 8×`n` B slab:
/// `C += round_tf32(A) × round_tf32(B)` with FP32 accumulation.
///
/// `a` is row-major 8×8, `b` is row-major 8×`n`, `c` is row-major 8×`n`.
/// This is the arithmetic oracle the TC kernels are tested against (a
/// zero A slot is skipped, operands are rounded at every use); the
/// kernels themselves run the row core `simd::mma_row_tier` on
/// pre-rounded values. The operand swap the paper performs (computing
/// Bᵀ·Aᵀ to allow 8×8 A tiles with `m16n8k8`) is a layout concern and
/// does not change this arithmetic.
#[inline]
pub fn tf32_mma_8x8(a: &[f32; 64], b: &[f32], c: &mut [f32], n: usize) {
    debug_assert_eq!(b.len(), 8 * n);
    debug_assert_eq!(c.len(), 8 * n);
    for i in 0..8 {
        for k in 0..8 {
            let av = to_tf32(a[i * 8 + k]);
            if av == 0.0 {
                continue;
            }
            let brow = &b[k * n..k * n + n];
            let crow = &mut c[i * n..i * n + n];
            for j in 0..n {
                crow[j] += av * to_tf32(brow[j]);
            }
        }
    }
}

/// Relative tolerance for comparing TF32 results against an FP32 dense
/// reference. TF32 carries ~3 decimal digits; a chain of `k` accumulations
/// loses roughly `k.sqrt()` ULPs, so we scale with the reduction length.
#[inline]
pub fn tf32_tolerance(reduction_len: usize) -> f32 {
    // 2^-10 operand rounding, accumulated error grows ~ sqrt(k).
    1e-3 * (reduction_len.max(1) as f32).sqrt().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tf32_is_idempotent() {
        for &x in &[0.0f32, 1.0, -1.5, 2.625_17, 1e-20, 1e20, 123_456.79] {
            let once = to_tf32(x);
            assert_eq!(once.to_bits(), to_tf32(once).to_bits(), "x={x}");
        }
    }

    #[test]
    fn tf32_clears_low_mantissa_bits() {
        for &x in &[1.2345678f32, -9.876543e-5, 7777.777] {
            let bits = to_tf32(x).to_bits();
            assert_eq!(bits & 0x1FFF, 0, "low 13 bits must be zero, x={x}");
        }
    }

    #[test]
    fn tf32_relative_error_is_bounded() {
        // 10-bit mantissa => relative error <= 2^-11 after RNE.
        let bound = 2.0_f32.powi(-11) * 1.0001;
        let mut x = 1.0e-6f32;
        while x < 1.0e6 {
            let r = to_tf32(x);
            assert!(((r - x) / x).abs() <= bound, "x={x} r={r}");
            x *= 1.7;
        }
    }

    #[test]
    fn tf32_preserves_exact_small_integers() {
        for i in -1024i32..=1024 {
            let x = i as f32;
            assert_eq!(to_tf32(x), x, "small integers are exactly representable");
        }
    }

    #[test]
    fn tf32_handles_non_finite() {
        assert!(to_tf32(f32::NAN).is_nan());
        assert_eq!(to_tf32(f32::INFINITY), f32::INFINITY);
        assert_eq!(to_tf32(f32::NEG_INFINITY), f32::NEG_INFINITY);
    }

    /// The pre-branchless scalar (early `is_finite` return), kept as the
    /// bit-equality oracle for the mask-select rewrite.
    fn to_tf32_branchy(x: f32) -> f32 {
        if !x.is_finite() {
            return x;
        }
        let bits = x.to_bits();
        let round_bit = 1u32 << 12;
        let keep_lsb = (bits >> 13) & 1;
        let rounded = bits.wrapping_add((round_bit - 1) + keep_lsb) & !0x1FFF;
        f32::from_bits(rounded)
    }

    #[test]
    fn branchless_matches_branchy_on_every_float_class() {
        // Every (sign, exponent) combination crossed with mantissas that
        // straddle the 13-bit rounding boundary: denormals (exp 0),
        // normals, the overflow-to-Inf edge (exp 254 rounding up), and
        // NaN/Inf payloads (exp 255) which must pass through verbatim.
        let mantissas = [
            0u32, 1, 0x0FFF, 0x1000, 0x1001, 0x1FFF, 0x2000, 0x3000, 0x7FF000, 0x7FFFFF,
        ];
        for sign in [0u32, 1] {
            for exp in 0u32..=255 {
                for &m in &mantissas {
                    let bits = (sign << 31) | (exp << 23) | m;
                    let x = f32::from_bits(bits);
                    let got = to_tf32(x).to_bits();
                    let want = to_tf32_branchy(x).to_bits();
                    assert_eq!(got, want, "bits {bits:#010X}");
                }
            }
        }
        // And a broad pseudo-random sweep of the full bit space.
        for i in 0..1_000_000u64 {
            let bits = crate::util::splitmix64(i) as u32;
            let x = f32::from_bits(bits);
            assert_eq!(
                to_tf32(x).to_bits(),
                to_tf32_branchy(x).to_bits(),
                "bits {bits:#010X}"
            );
        }
    }

    #[test]
    fn slice_rounding_matches_scalar() {
        let src: Vec<f32> = (0..257u64)
            .map(|i| f32::from_bits(crate::util::splitmix64(i ^ 0xABCD) as u32))
            .collect();
        let mut in_place = src.clone();
        to_tf32_slice(&mut in_place);
        let mut into = vec![0.0f32; src.len()];
        to_tf32_slice_into(&src, &mut into);
        for (i, &s) in src.iter().enumerate() {
            assert_eq!(in_place[i].to_bits(), to_tf32(s).to_bits());
            assert_eq!(into[i].to_bits(), to_tf32(s).to_bits());
        }
    }

    #[test]
    fn tf32_rounds_to_nearest_even() {
        // Construct a value exactly halfway between two TF32 neighbours:
        // mantissa ...0 1000000000000 -> ties to even (round down).
        let down = f32::from_bits(0x3F80_0000); // 1.0
        let halfway_even = f32::from_bits(0x3F80_1000);
        assert_eq!(to_tf32(halfway_even), down);
        // ...1 1000000000000 -> ties to even (round up).
        let halfway_odd = f32::from_bits(0x3F80_3000);
        assert_eq!(to_tf32(halfway_odd).to_bits(), 0x3F80_4000);
    }

    #[test]
    fn dot_matches_manual() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 5.0, 6.0];
        assert_eq!(tf32_dot(&a, &b), 32.0);
    }

    #[test]
    fn mma_8x8_identity() {
        let mut a = [0.0f32; 64];
        for i in 0..8 {
            a[i * 8 + i] = 1.0;
        }
        let n = 4;
        let b: Vec<f32> = (0..8 * n).map(|i| i as f32).collect();
        let mut c = vec![0.0f32; 8 * n];
        tf32_mma_8x8(&a, &b, &mut c, n);
        assert_eq!(c, b, "identity MMA must reproduce B");
    }

    #[test]
    fn mma_8x8_accumulates() {
        let a = [1.0f32; 64];
        let b = vec![1.0f32; 8 * 2];
        let mut c = vec![10.0f32; 8 * 2];
        tf32_mma_8x8(&a, &b, &mut c, 2);
        for &v in &c {
            assert_eq!(v, 18.0, "C += A*B over k=8 ones plus initial 10");
        }
    }

    #[test]
    fn tolerance_grows_with_reduction_length() {
        assert!(tf32_tolerance(10_000) > tf32_tolerance(10));
    }
}
