//! Property matrix: forced ISA tier × SIMD entry point, bit-identity
//! against the scalar reference.
//!
//! Every available tier must produce *bitwise* identical results to the
//! scalar core on every operation — including NaN positions,
//! infinities, subnormals, and negative zero, which the generators
//! splice in deliberately. (NaN *payloads* are compared position-only;
//! see `assert_same_bits`.) Tiers the host lacks are skipped
//! with a log line, never silently: the suite exercises whatever the
//! machine offers (CI forces `SPMM_FORCE_ISA=scalar` in one job, and
//! x86 runners cover AVX2/AVX-512).

use proptest::prelude::*;
use spmm_common::scalar;
use spmm_common::simd::{
    mma_row_tier, mma_row_tier_unchecked, to_tf32_slice_into_tier, to_tf32_slice_tier,
};
use spmm_common::IsaTier;

/// Tiers runnable on this host, logging every skip.
fn available_tiers() -> Vec<IsaTier> {
    IsaTier::ALL
        .into_iter()
        .filter(|t| {
            let ok = t.is_available();
            if !ok {
                eprintln!("simd_identity: skipping tier '{t}' (not available on this host)");
            }
            ok
        })
        .collect()
}

/// Values that stress the rounding passthrough and the zero products:
/// quiet NaN, both infinities, negative zero, subnormals (including the
/// smallest), a value exactly on the round-to-even boundary, and the
/// largest finite f32.
const SPECIALS: [u32; 8] = [
    0x7FC0_0000, // quiet NaN
    0x7F80_0000, // +Inf
    0xFF80_0000, // -Inf
    0x8000_0000, // -0.0
    0x0000_0001, // smallest subnormal
    0x0001_2345, // subnormal
    0x3F80_3000, // halfway case for TF32 round-to-nearest-even
    0x7F7F_FFFF, // f32::MAX
];

/// Deterministic messy data: mostly ordinary values, specials spliced
/// roughly every sixth slot, exact zeros (which the row core must
/// multiply, not skip) every eleventh.
fn messy(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if i % 11 == 3 {
                0.0
            } else if i % 6 == 1 {
                f32::from_bits(SPECIALS[(state >> 33) as usize % SPECIALS.len()])
            } else {
                f32::from_bits(0x3000_0000 | (state >> 40) as u32)
            }
        })
        .collect()
}

/// NaN-position-exact comparison: bitwise equal everywhere, except that
/// NaN lanes match any NaN. Payloads of *arithmetic* NaNs are
/// unspecified by LLVM (operand order of a float add is free to flip,
/// and x86 propagates the first source's payload), so demanding payload
/// equality between separately-compiled code would be unsound — the
/// scalar reference itself doesn't promise it across builds.
fn assert_same_bits(expected: &[f32], got: &[f32], what: &str, tier: IsaTier) {
    assert_eq!(expected.len(), got.len());
    for (i, (e, g)) in expected.iter().zip(got.iter()).enumerate() {
        assert!(
            e.to_bits() == g.to_bits() || (e.is_nan() && g.is_nan()),
            "{what} on tier '{tier}' diverges at {i}: {e:?} ({:#010x}) vs {g:?} ({:#010x})",
            e.to_bits(),
            g.to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn to_tf32_slice_matches_scalar_on_every_tier(
        seed in any::<u64>(),
        len in 1usize..600,
    ) {
        let src = messy(seed, len);
        let mut reference = src.clone();
        scalar::to_tf32_slice(&mut reference);
        for tier in available_tiers() {
            let mut inplace = src.clone();
            to_tf32_slice_tier(&mut inplace, tier);
            assert_same_bits(&reference, &inplace, "to_tf32_slice", tier);

            let mut into = vec![0.0f32; len];
            to_tf32_slice_into_tier(&src, &mut into, tier);
            assert_same_bits(&reference, &into, "to_tf32_slice_into", tier);
        }
    }

    // The row core every executor runs (a CSR row, or a TC window row
    // decoded into pairs): a list of `(value, B row)` pairs accumulated
    // into one C row. Widths cover
    // every vector block and tail shape of every tier (1, 7 lanes of
    // pure tail; 8/16 exact AVX2/AVX-512 vectors; 15/17/31/33 ragged
    // tails; 64 the widest main block). Values carry the spliced
    // specials, including zeros — the core must multiply them, not skip
    // them — and rows repeat and come in any order.
    #[test]
    fn mma_row_matches_scalar_on_every_tier(
        seed in any::<u64>(),
        n_idx in 0usize..9,
        npairs in 0usize..48,
        brows in 1usize..24,
    ) {
        const ROW_NS: [usize; 9] = [1, 7, 8, 15, 16, 17, 31, 33, 64];
        let n = ROW_NS[n_idx];
        let mut b = messy(seed, brows * n);
        scalar::to_tf32_slice(&mut b);
        let mut avs = messy(seed.wrapping_add(1), npairs);
        scalar::to_tf32_slice(&mut avs);
        let cols: Vec<u32> = messy(seed.wrapping_add(2), npairs)
            .iter()
            .map(|v| v.to_bits() % brows as u32)
            .collect();
        let c0 = messy(seed.wrapping_add(3), n);

        let mut reference = c0.clone();
        for (&av, &col) in avs.iter().zip(&cols) {
            let brow = &b[col as usize * n..(col as usize + 1) * n];
            for (cj, &bj) in reference.iter_mut().zip(brow) {
                *cj += av * bj;
            }
        }
        for tier in available_tiers() {
            let mut c = c0.clone();
            mma_row_tier(&avs, &cols, &b, &mut c, tier);
            assert_same_bits(&reference, &c, "mma_row", tier);
        }
    }

    // The unchecked row core, on the same messy pairs, with B cut off
    // right after the last row a pair names: the vector tiers' final
    // (and masked tail) reads then end exactly at the operand's end.
    #[test]
    fn mma_row_unchecked_matches_scalar_on_every_tier(
        seed in any::<u64>(),
        n_idx in 0usize..9,
        npairs in 1usize..48,
        brows in 1usize..24,
    ) {
        const ROW_NS: [usize; 9] = [1, 7, 8, 15, 16, 17, 31, 33, 64];
        let n = ROW_NS[n_idx];
        let mut avs = messy(seed.wrapping_add(1), npairs);
        scalar::to_tf32_slice(&mut avs);
        let cols: Vec<u32> = messy(seed.wrapping_add(2), npairs)
            .iter()
            .map(|v| v.to_bits() % brows as u32)
            .collect();
        let top = *cols.iter().max().unwrap() as usize;
        let mut b = messy(seed, (top + 1) * n);
        scalar::to_tf32_slice(&mut b);
        let c0 = messy(seed.wrapping_add(3), n);

        let mut reference = c0.clone();
        for (&av, &col) in avs.iter().zip(&cols) {
            let brow = &b[col as usize * n..(col as usize + 1) * n];
            for (cj, &bj) in reference.iter_mut().zip(brow) {
                *cj += av * bj;
            }
        }
        for tier in available_tiers() {
            let mut c = c0.clone();
            // SAFETY: every `cols[t] <= top` and `b` holds `top + 1`
            // rows of `n` floats.
            unsafe { mma_row_tier_unchecked(&avs, &cols, &b, &mut c, tier) };
            assert_same_bits(&reference, &c, "mma_row_unchecked", tier);
        }
    }
}
