//! Explicit-SIMD TF32 compute core with runtime ISA dispatch.
//!
//! The MMA inner loop and the TF32 rounding passes are the hot paths of
//! every kernel in the workspace. [`crate::scalar`] shapes them so LLVM
//! *can* vectorize, but nothing guarantees it does, and there is no
//! wider-than-128-bit path at all. This module goes the rest of the way:
//! hand-written `core::arch` intrinsics kernels per ISA tier — AVX-512F,
//! AVX2(+FMA probe), NEON — behind a one-time capability probe
//! ([`IsaTier::probe`]), with the scalar code as the universal fallback.
//!
//! **The contract is bit-identity.** Every tier produces NaN-position-
//! exact, bitwise-equal output versus the scalar path. Three properties
//! make that possible:
//!
//! 1. **No hardware FMA in the MMA core.** Scalar `c[j] += av * b[j]`
//!    rounds twice (after the multiply, after the add). A fused
//!    multiply-add rounds once and would diverge in the last ULP, so the
//!    vector kernels use separate multiply and add intrinsics
//!    (`_mm256_mul_ps` + `_mm256_add_ps`, never `vfmadd`). The AVX2 tier
//!    still *probes* for FMA — it names the ISA level, not an
//!    instruction we emit.
//! 2. **Per-lane accumulation order is preserved.** The scalar row loop
//!    is pair-outer, lane-inner: each output lane `j` receives its
//!    additions in ascending pair order `t`. The vector kernels
//!    register-block over `j` (load the C chunk once, run the full pair
//!    loop in registers, store once), which reorders only *across*
//!    lanes, never within one — so every lane sees the identical
//!    rounding sequence.
//! 3. **Zeros are multiplied, never skipped.** The row core
//!    ([`mma_row_tier`]) forms `av * b[j]` for every pair it is handed,
//!    on every tier, so `0 × Inf = NaN` appears exactly where the scalar
//!    loop puts it. The CSR kernels pass their stored values as they
//!    are; the TC formats, whose tensor-core model skips zero A slots,
//!    drop ±0 when a plan decodes its execution rows instead.
//!
//! The selected tier is resolved **once at plan-compile time**
//! (`AccConfig::isa` pin → `SPMM_FORCE_ISA` env override → probe) and
//! recorded in the plan; see `spmm_kernels::plan`. Serialized plan
//! artifacts carry the tier as advisory metadata only — loaders re-probe
//! on the executing host.

#![deny(unsafe_op_in_unsafe_fn)]

use crate::scalar::{to_tf32_slice, to_tf32_slice_into};
use std::sync::OnceLock;

/// An ISA capability tier the compute core can dispatch to.
///
/// Ordered from narrowest to widest; [`IsaTier::probe`] selects the
/// widest available tier on the running host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IsaTier {
    /// Portable scalar Rust — always available, the bit-identity oracle.
    Scalar,
    /// AArch64 NEON: 128-bit vectors, 4 f32 lanes.
    Neon,
    /// x86-64 AVX2 + FMA: 256-bit vectors, 8 f32 lanes. (FMA is probed
    /// as part of the tier definition but never emitted — see the
    /// module docs on bit-identity.)
    Avx2Fma,
    /// x86-64 AVX-512F: 512-bit vectors, 16 f32 lanes.
    Avx512f,
}

impl IsaTier {
    /// Every tier, narrowest first. Test matrices iterate this and
    /// skip-with-log the tiers the host lacks.
    pub const ALL: [IsaTier; 4] = [
        IsaTier::Scalar,
        IsaTier::Neon,
        IsaTier::Avx2Fma,
        IsaTier::Avx512f,
    ];

    /// Stable numeric code, used by the plan IR and trace counters.
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            IsaTier::Scalar => 0,
            IsaTier::Neon => 1,
            IsaTier::Avx2Fma => 2,
            IsaTier::Avx512f => 3,
        }
    }

    /// Inverse of [`IsaTier::code`].
    pub fn from_code(code: u8) -> Option<IsaTier> {
        IsaTier::ALL.into_iter().find(|t| t.code() == code)
    }

    /// Short lower-case name, used in the plan IR header, bench entry
    /// names (`row-core-avx2`), and the `SPMM_FORCE_ISA` override.
    #[inline]
    pub fn name(self) -> &'static str {
        match self {
            IsaTier::Scalar => "scalar",
            IsaTier::Neon => "neon",
            IsaTier::Avx2Fma => "avx2",
            IsaTier::Avx512f => "avx512",
        }
    }

    /// Inverse of [`IsaTier::name`] (case-insensitive; accepts a few
    /// obvious aliases).
    pub fn from_name(name: &str) -> Option<IsaTier> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(IsaTier::Scalar),
            "neon" => Some(IsaTier::Neon),
            "avx2" | "avx2fma" | "avx2+fma" => Some(IsaTier::Avx2Fma),
            "avx512" | "avx512f" => Some(IsaTier::Avx512f),
            _ => None,
        }
    }

    /// f32 lanes per vector register at this tier (1 for scalar).
    #[inline]
    pub fn simd_lanes(self) -> u32 {
        match self {
            IsaTier::Scalar => 1,
            IsaTier::Neon => 4,
            IsaTier::Avx2Fma => 8,
            IsaTier::Avx512f => 16,
        }
    }

    /// Whether the running host can execute this tier's kernels.
    ///
    /// The std feature macros cache their CPUID probe, so this is a
    /// relaxed atomic load after the first call — cheap enough for the
    /// dispatch wrappers to re-check on every entry (which is what keeps
    /// them sound even if handed an unresolved tier).
    pub fn is_available(self) -> bool {
        match self {
            IsaTier::Scalar => true,
            IsaTier::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    std::arch::is_aarch64_feature_detected!("neon")
                }
                #[cfg(not(target_arch = "aarch64"))]
                {
                    false
                }
            }
            IsaTier::Avx2Fma => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            IsaTier::Avx512f => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx512f")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// The widest tier the running host supports, ignoring overrides.
    pub fn detect_best() -> IsaTier {
        IsaTier::ALL
            .into_iter()
            .rev()
            .find(|t| t.is_available())
            .unwrap_or(IsaTier::Scalar)
    }

    /// The process-wide default tier: the `SPMM_FORCE_ISA` environment
    /// override if set and available, else [`IsaTier::detect_best`].
    ///
    /// Resolved once and cached. An unrecognized or unavailable forced
    /// tier logs one warning to stderr and falls back to the probe —
    /// never a silent no-op, never a crash. Plan compilation resolves
    /// through [`IsaTier::resolve`] so an `AccConfig::isa` pin takes
    /// precedence over the environment.
    pub fn probe() -> IsaTier {
        static PROBED: OnceLock<IsaTier> = OnceLock::new();
        *PROBED.get_or_init(|| match std::env::var("SPMM_FORCE_ISA") {
            Ok(raw) => match IsaTier::from_name(raw.trim()) {
                Some(t) if t.is_available() => t,
                Some(t) => {
                    let best = IsaTier::detect_best();
                    eprintln!(
                        "spmm: SPMM_FORCE_ISA={} not available on this host; using {}",
                        t.name(),
                        best.name()
                    );
                    best
                }
                None => {
                    let best = IsaTier::detect_best();
                    eprintln!(
                        "spmm: unrecognized SPMM_FORCE_ISA={raw:?} (expected one of \
                         scalar|neon|avx2|avx512); using {}",
                        best.name()
                    );
                    best
                }
            },
            Err(_) => IsaTier::detect_best(),
        })
    }

    /// Resolve the tier a plan should bind: an explicit pin if given
    /// (erroring when the host cannot run it — a pinned config is a
    /// correctness statement, not a hint), else the process default
    /// from [`IsaTier::probe`].
    pub fn resolve(pinned: Option<IsaTier>) -> crate::Result<IsaTier> {
        match pinned {
            Some(t) if t.is_available() => Ok(t),
            Some(t) => Err(crate::SpmmError::InvalidConfig(format!(
                "isa tier '{}' pinned via AccConfig::isa is not available on this host \
                 (best available: '{}')",
                t.name(),
                IsaTier::detect_best().name()
            ))),
            None => Ok(IsaTier::probe()),
        }
    }
}

impl std::fmt::Display for IsaTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `Scalar` — the one tier every host has. This is the *neutral*
/// default for zero-initialized stats structs, not the probe result;
/// resolution always goes through [`IsaTier::resolve`]/[`IsaTier::probe`].
impl Default for IsaTier {
    fn default() -> Self {
        IsaTier::Scalar
    }
}

// ---------------------------------------------------------------------------
// Dispatch wrappers
// ---------------------------------------------------------------------------

/// [`to_tf32_slice`] at an explicit tier (in place).
///
/// Falls back to scalar if `tier` is not available on this host — the
/// output is bit-identical either way, so the fallback is semantically
/// invisible; it exists to keep this wrapper safe to call with any tier
/// value (e.g. one deserialized from a plan artifact).
#[inline]
pub fn to_tf32_slice_tier(xs: &mut [f32], tier: IsaTier) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx512f if tier.is_available() => {
            // SAFETY: avx512f availability just checked.
            unsafe { x86::to_tf32_inplace_avx512(xs) }
        }
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2Fma if tier.is_available() => {
            // SAFETY: avx2 availability just checked.
            unsafe { x86::to_tf32_inplace_avx2(xs) }
        }
        #[cfg(target_arch = "aarch64")]
        IsaTier::Neon if tier.is_available() => {
            // SAFETY: neon availability just checked.
            unsafe { neon::to_tf32_inplace_neon(xs) }
        }
        _ => to_tf32_slice(xs),
    }
}

/// [`to_tf32_slice_into`] at an explicit tier.
#[inline]
pub fn to_tf32_slice_into_tier(src: &[f32], dst: &mut [f32], tier: IsaTier) {
    debug_assert_eq!(src.len(), dst.len());
    match tier {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx512f if tier.is_available() => {
            // SAFETY: avx512f availability just checked.
            unsafe { x86::to_tf32_into_avx512(src, dst) }
        }
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2Fma if tier.is_available() => {
            // SAFETY: avx2 availability just checked.
            unsafe { x86::to_tf32_into_avx2(src, dst) }
        }
        #[cfg(target_arch = "aarch64")]
        IsaTier::Neon if tier.is_available() => {
            // SAFETY: neon availability just checked.
            unsafe { neon::to_tf32_into_neon(src, dst) }
        }
        _ => to_tf32_slice_into(src, dst),
    }
}

/// One output-row accumulation at an explicit tier:
/// `crow[j] += Σ_t avs[t] * b[cols[t] * n + j]` with `n = crow.len()`,
/// i.e. `b` is a row-major operand with `n` columns and `cols[t]` picks
/// the row scaled by `avs[t]`.
///
/// This is the one MMA core every host executor runs. A CSR kernel
/// hands it one CSR row's values and column indices; a tensor-core plan
/// hands it one of its execution rows, the same CSR row with TF32
/// values, derived once per plan. The vector kernels keep each C chunk
/// in registers across *all* pairs, loading and storing it once. Per
/// lane the adds run in ascending `t` with separate multiply and add,
/// so the result is bit-identical to the scalar fallback on every tier.
///
/// There is **no** `avs[t] == 0.0` skip here: callers that need one
/// (BitTCF and ME-TCF, whose tile MMAs skip zero A slots so `0 × Inf`
/// injects no NaN) filter the zeros out while building the rows;
/// callers that multiply unconditionally (the CSR kernels, TC-GNN's
/// TCF) pass their values as they are.
///
/// This safe entry scans `cols` for its largest row on every call.
/// Row loops whose operand already bounds every column (a validated
/// `spmm_matrix::CsrMatrix` against a shape-checked B) call
/// [`mma_row_tier_unchecked`] instead.
///
/// # Panics
/// If `avs` and `cols` differ in length, or a `cols[t]` row does not
/// lie inside `b`.
#[inline]
pub fn mma_row_tier(avs: &[f32], cols: &[u32], b: &[f32], crow: &mut [f32], tier: IsaTier) {
    assert_eq!(avs.len(), cols.len(), "one B row per value");
    let n = crow.len();
    if let Some(&top) = cols.iter().max() {
        assert!(
            row_in_operand(top, n, b.len()),
            "B row {top} out of range for a {}-float operand with {n} columns",
            b.len()
        );
    }
    // SAFETY: the largest row was just checked, so every `cols[t]` row
    // lies inside `b`.
    unsafe { mma_row_tier_unchecked(avs, cols, b, crow, tier) }
}

/// Whether row `col` of a row-major operand with `n` columns lies inside
/// its `len` floats.
#[inline]
fn row_in_operand(col: u32, n: usize, len: usize) -> bool {
    (col as usize + 1)
        .checked_mul(n)
        .is_some_and(|end| end <= len)
}

/// [`mma_row_tier`] without the per-call scan of `cols`: the row core
/// for loops whose operand bounds every column once, before the loop.
/// Pairs past the shorter of `avs` and `cols` are ignored.
///
/// # Safety
/// Every pair's row lies inside `b`: `(cols[t] + 1) · crow.len() <=
/// b.len()` for every `t`. The vector tiers read `b` unchecked, so a
/// row past the operand is an out-of-bounds read.
#[inline]
pub unsafe fn mma_row_tier_unchecked(
    avs: &[f32],
    cols: &[u32],
    b: &[f32],
    crow: &mut [f32],
    tier: IsaTier,
) {
    let n = crow.len();
    debug_assert_eq!(avs.len(), cols.len(), "one B row per value");
    debug_assert!(
        cols.iter().all(|&c| row_in_operand(c, n, b.len())),
        "a B row lies outside a {}-float operand with {n} columns",
        b.len()
    );
    match tier {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx512f if tier.is_available() => {
            // SAFETY: avx512f availability just checked; every row
            // `cols[t]` lies inside `b` by the caller contract, and
            // `crow` is a distinct (mutable) borrow.
            unsafe { x86::mma_row_avx512(avs, cols, b.as_ptr(), crow) }
        }
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2Fma if tier.is_available() => {
            // SAFETY: avx2 availability just checked; rows as above.
            unsafe { x86::mma_row_avx2(avs, cols, b.as_ptr(), crow) }
        }
        #[cfg(target_arch = "aarch64")]
        IsaTier::Neon if tier.is_available() => {
            // SAFETY: neon availability just checked; rows as above.
            unsafe { neon::mma_row_neon(avs, cols, b.as_ptr(), crow) }
        }
        _ => {
            for (&av, &col) in avs.iter().zip(cols) {
                let brow = &b[col as usize * n..(col as usize + 1) * n];
                for (cj, &bj) in crow.iter_mut().zip(brow) {
                    *cj += av * bj;
                }
            }
        }
    }
}

/// FP32 exponent field mask (all-ones exponent = NaN/Inf), duplicated
/// from [`crate::scalar`] for the vector rounding kernels.
#[allow(dead_code)] // unused on ISAs with no vector tier
const EXP_MASK: u32 = 0x7F80_0000;

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 / AVX-512F kernels. Every function is `unsafe fn` with a
    //! `#[target_feature]` gate: the caller must have verified the
    //! feature (the dispatch wrappers re-check `is_available()` on
    //! every call). Pointer arithmetic stays within the caller-supplied
    //! slices/rows by construction — see the per-block SAFETY comments.

    use super::EXP_MASK;
    use crate::scalar::to_tf32;
    use core::arch::x86_64::*;

    /// Round `n` floats from `src` into `dst` (AVX2). `src == dst` is
    /// the in-place mode; partial overlap is forbidden.
    ///
    /// SAFETY (caller): avx2 enabled; `src` and `dst` are valid for
    /// `n` reads/writes and either identical or disjoint.
    #[target_feature(enable = "avx2")]
    unsafe fn tf32_round_ptr_avx2(src: *const f32, dst: *mut f32, n: usize) {
        let mut i = 0;
        // SAFETY: all lane offsets stay `< n` (loop bound `i + 8 <= n`);
        // unaligned load/store intrinsics have no alignment demand, and
        // the exact-aliasing in-place mode is fine because each lane is
        // read before it is written within one iteration.
        unsafe {
            let exp = _mm256_set1_epi32(EXP_MASK as i32);
            let low = _mm256_set1_epi32(0x1FFF);
            let half_minus_1 = _mm256_set1_epi32(0x0FFF);
            let one = _mm256_set1_epi32(1);
            while i + 8 <= n {
                let v = _mm256_loadu_si256(src.add(i) as *const __m256i);
                // rounded = (bits + 0x0FFF + keep_lsb) & !0x1FFF
                let keep_lsb = _mm256_and_si256(_mm256_srli_epi32::<13>(v), one);
                let bump = _mm256_add_epi32(half_minus_1, keep_lsb);
                let rounded = _mm256_andnot_si256(low, _mm256_add_epi32(v, bump));
                // NaN/Inf lanes (exponent all ones) pass through.
                let is_special = _mm256_cmpeq_epi32(_mm256_and_si256(v, exp), exp);
                let out = _mm256_blendv_epi8(rounded, v, is_special);
                _mm256_storeu_si256(dst.add(i) as *mut __m256i, out);
                i += 8;
            }
            while i < n {
                *dst.add(i) = to_tf32(*src.add(i));
                i += 1;
            }
        }
    }

    /// Round `n` floats from `src` into `dst` (AVX-512F); same contract
    /// as [`tf32_round_ptr_avx2`].
    #[target_feature(enable = "avx512f")]
    unsafe fn tf32_round_ptr_avx512(src: *const f32, dst: *mut f32, n: usize) {
        let mut i = 0;
        // SAFETY: as in the AVX2 variant, with 16-lane steps.
        unsafe {
            let exp = _mm512_set1_epi32(EXP_MASK as i32);
            let low = _mm512_set1_epi32(0x1FFF);
            let half_minus_1 = _mm512_set1_epi32(0x0FFF);
            let one = _mm512_set1_epi32(1);
            while i + 16 <= n {
                let v = _mm512_loadu_si512(src.add(i) as *const __m512i);
                let keep_lsb = _mm512_and_si512(_mm512_srli_epi32::<13>(v), one);
                let bump = _mm512_add_epi32(half_minus_1, keep_lsb);
                let rounded = _mm512_andnot_si512(low, _mm512_add_epi32(v, bump));
                let is_special = _mm512_cmpeq_epi32_mask(_mm512_and_si512(v, exp), exp);
                let out = _mm512_mask_blend_epi32(is_special, rounded, v);
                _mm512_storeu_si512(dst.add(i) as *mut __m512i, out);
                i += 16;
            }
            while i < n {
                *dst.add(i) = to_tf32(*src.add(i));
                i += 1;
            }
        }
    }

    /// SAFETY (caller): avx2 enabled.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn to_tf32_inplace_avx2(xs: &mut [f32]) {
        // SAFETY: exact aliasing (src == dst) is the supported in-place
        // mode of the ptr core.
        unsafe { tf32_round_ptr_avx2(xs.as_ptr(), xs.as_mut_ptr(), xs.len()) }
    }

    /// SAFETY (caller): avx2 enabled; `src.len() == dst.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn to_tf32_into_avx2(src: &[f32], dst: &mut [f32]) {
        let n = src.len().min(dst.len());
        // SAFETY: `n` floats valid on both sides; distinct borrows so no
        // partial overlap.
        unsafe { tf32_round_ptr_avx2(src.as_ptr(), dst.as_mut_ptr(), n) }
    }

    /// SAFETY (caller): avx512f enabled.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn to_tf32_inplace_avx512(xs: &mut [f32]) {
        // SAFETY: exact aliasing is the supported in-place mode.
        unsafe { tf32_round_ptr_avx512(xs.as_ptr(), xs.as_mut_ptr(), xs.len()) }
    }

    /// SAFETY (caller): avx512f enabled; `src.len() == dst.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn to_tf32_into_avx512(src: &[f32], dst: &mut [f32]) {
        let n = src.len().min(dst.len());
        // SAFETY: `n` floats valid on both sides.
        unsafe { tf32_round_ptr_avx512(src.as_ptr(), dst.as_mut_ptr(), n) }
    }

    /// Accumulate lanes `j .. j + 8·V` of one C row across every pair
    /// (AVX2): the `V` C vectors are loaded once, stay in registers for
    /// the whole pair loop, and are stored once. Separate `mul` + `add`
    /// — **not** `vfmadd` — to match the scalar path's two roundings;
    /// per lane the adds run in ascending `t`, identical to scalar.
    ///
    /// SAFETY (caller): avx2 enabled; `j + 8·V <= n`; `cp` is valid for
    /// `n` writes; every `b + cols[t]·n` is valid for `n` reads and does
    /// not alias `cp`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn row_block_avx2<const V: usize>(
        avs: &[f32],
        cols: &[u32],
        b: *const f32,
        n: usize,
        cp: *mut f32,
        j: usize,
    ) {
        // SAFETY: every offset is `< j + 8·V <= n` within its row.
        unsafe {
            let mut acc = [_mm256_setzero_ps(); V];
            for (v, c) in acc.iter_mut().enumerate() {
                *c = _mm256_loadu_ps(cp.add(j + 8 * v));
            }
            for (&av, &col) in avs.iter().zip(cols) {
                let r = b.add(col as usize * n + j);
                let a = _mm256_set1_ps(av);
                for (v, c) in acc.iter_mut().enumerate() {
                    *c = _mm256_add_ps(*c, _mm256_mul_ps(a, _mm256_loadu_ps(r.add(8 * v))));
                }
            }
            for (v, c) in acc.iter().enumerate() {
                _mm256_storeu_ps(cp.add(j + 8 * v), *c);
            }
        }
    }

    /// One C-row update `crow[j] += Σ_t avs[t] * b[cols[t]·n + j]` with
    /// `n = crow.len()` (AVX2). The 32-lane main block keeps four
    /// independent add chains in flight — per lane the adds must stay in
    /// ascending `t`, so columns are the only ILP within one row — then
    /// 16- and 8-lane blocks and a scalar tail, still ascending `t`.
    ///
    /// SAFETY (caller): avx2 enabled; every `b + cols[t]·n` is valid for
    /// `n` reads and does not alias `crow`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mma_row_avx2(avs: &[f32], cols: &[u32], b: *const f32, crow: &mut [f32]) {
        let n = crow.len();
        let cp = crow.as_mut_ptr();
        let mut j = 0;
        // SAFETY: each block call satisfies `j + 8·V <= n`; the tail
        // offsets stay `< n`; row validity is the caller contract.
        unsafe {
            while j + 32 <= n {
                row_block_avx2::<4>(avs, cols, b, n, cp, j);
                j += 32;
            }
            if j + 16 <= n {
                row_block_avx2::<2>(avs, cols, b, n, cp, j);
                j += 16;
            }
            if j + 8 <= n {
                row_block_avx2::<1>(avs, cols, b, n, cp, j);
                j += 8;
            }
            while j < n {
                let mut cj = *cp.add(j);
                for (&av, &col) in avs.iter().zip(cols) {
                    cj += av * *b.add(col as usize * n + j);
                }
                *cp.add(j) = cj;
                j += 1;
            }
        }
    }

    /// [`row_block_avx2`] at 512-bit width: lanes `j .. j + 16·V`.
    ///
    /// SAFETY (caller): avx512f enabled; contract as in
    /// [`row_block_avx2`] with `j + 16·V <= n`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn row_block_avx512<const V: usize>(
        avs: &[f32],
        cols: &[u32],
        b: *const f32,
        n: usize,
        cp: *mut f32,
        j: usize,
    ) {
        // SAFETY: every offset is `< j + 16·V <= n` within its row.
        unsafe {
            let mut acc = [_mm512_setzero_ps(); V];
            for (v, c) in acc.iter_mut().enumerate() {
                *c = _mm512_loadu_ps(cp.add(j + 16 * v));
            }
            for (&av, &col) in avs.iter().zip(cols) {
                let r = b.add(col as usize * n + j);
                let a = _mm512_set1_ps(av);
                for (v, c) in acc.iter_mut().enumerate() {
                    *c = _mm512_add_ps(*c, _mm512_mul_ps(a, _mm512_loadu_ps(r.add(16 * v))));
                }
            }
            for (v, c) in acc.iter().enumerate() {
                _mm512_storeu_ps(cp.add(j + 16 * v), *c);
            }
        }
    }

    /// [`mma_row_avx2`] at 512-bit width: 64-, 32- and 16-lane blocks,
    /// then one masked vector for the last `n mod 16` lanes (masked-off
    /// lanes are neither loaded nor stored, and the active ones see the
    /// same mul + add sequence). Same bit-identity constraints.
    ///
    /// SAFETY (caller): avx512f enabled; contract as in
    /// [`mma_row_avx2`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn mma_row_avx512(
        avs: &[f32],
        cols: &[u32],
        b: *const f32,
        crow: &mut [f32],
    ) {
        let n = crow.len();
        let cp = crow.as_mut_ptr();
        let mut j = 0;
        // SAFETY: as in mma_row_avx2; the masked tail touches only the
        // `n - j < 16` lanes its mask enables.
        unsafe {
            while j + 64 <= n {
                row_block_avx512::<4>(avs, cols, b, n, cp, j);
                j += 64;
            }
            if j + 32 <= n {
                row_block_avx512::<2>(avs, cols, b, n, cp, j);
                j += 32;
            }
            if j + 16 <= n {
                row_block_avx512::<1>(avs, cols, b, n, cp, j);
                j += 16;
            }
            if j < n {
                let m: __mmask16 = (1u16 << (n - j)) - 1;
                let mut c0 = _mm512_maskz_loadu_ps(m, cp.add(j));
                for (&av, &col) in avs.iter().zip(cols) {
                    let b0 = _mm512_maskz_loadu_ps(m, b.add(col as usize * n + j));
                    c0 = _mm512_add_ps(c0, _mm512_mul_ps(_mm512_set1_ps(av), b0));
                }
                _mm512_mask_storeu_ps(cp.add(j), m, c0);
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON kernels, mirroring the AVX2 shapes at 4 lanes. Same
    //! bit-identity rules: separate `vmulq`/`vaddq` (never `vfmaq`),
    //! ascending per-lane pair order, scalar tails.

    use super::EXP_MASK;
    use crate::scalar::to_tf32;
    use core::arch::aarch64::*;

    /// SAFETY (caller): neon enabled; `src`/`dst` valid for `n`,
    /// identical or disjoint.
    #[target_feature(enable = "neon")]
    unsafe fn tf32_round_ptr_neon(src: *const f32, dst: *mut f32, n: usize) {
        let mut i = 0;
        // SAFETY: lane offsets `< n`; exact aliasing reads each lane
        // before writing it.
        unsafe {
            let exp = vdupq_n_u32(EXP_MASK);
            let keep = vdupq_n_u32(!0x1FFFu32);
            let half_minus_1 = vdupq_n_u32(0x0FFF);
            let one = vdupq_n_u32(1);
            while i + 4 <= n {
                let v = vreinterpretq_u32_f32(vld1q_f32(src.add(i)));
                let keep_lsb = vandq_u32(vshrq_n_u32::<13>(v), one);
                let bump = vaddq_u32(half_minus_1, keep_lsb);
                let rounded = vandq_u32(vaddq_u32(v, bump), keep);
                let is_special = vceqq_u32(vandq_u32(v, exp), exp);
                let out = vbslq_u32(is_special, v, rounded);
                vst1q_f32(dst.add(i), vreinterpretq_f32_u32(out));
                i += 4;
            }
            while i < n {
                *dst.add(i) = to_tf32(*src.add(i));
                i += 1;
            }
        }
    }

    /// SAFETY (caller): neon enabled.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn to_tf32_inplace_neon(xs: &mut [f32]) {
        // SAFETY: exact aliasing is the supported in-place mode.
        unsafe { tf32_round_ptr_neon(xs.as_ptr(), xs.as_mut_ptr(), xs.len()) }
    }

    /// SAFETY (caller): neon enabled; `src.len() == dst.len()`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn to_tf32_into_neon(src: &[f32], dst: &mut [f32]) {
        let n = src.len().min(dst.len());
        // SAFETY: `n` floats valid on both sides.
        unsafe { tf32_round_ptr_neon(src.as_ptr(), dst.as_mut_ptr(), n) }
    }

    /// Accumulate lanes `j .. j + 4·V` of one C row across every pair
    /// (NEON); see `x86::row_block_avx2` for the register-blocking and
    /// bit-identity rules (separate `vmulq` + `vaddq`, ascending `t`).
    ///
    /// SAFETY (caller): neon enabled; `j + 4·V <= n`; `cp` valid for
    /// `n` writes; every `b + cols[t]·n` valid for `n` reads, none
    /// aliasing `cp`.
    #[target_feature(enable = "neon")]
    #[inline]
    unsafe fn row_block_neon<const V: usize>(
        avs: &[f32],
        cols: &[u32],
        b: *const f32,
        n: usize,
        cp: *mut f32,
        j: usize,
    ) {
        // SAFETY: every offset is `< j + 4·V <= n` within its row.
        unsafe {
            let mut acc = [vdupq_n_f32(0.0); V];
            for (v, c) in acc.iter_mut().enumerate() {
                *c = vld1q_f32(cp.add(j + 4 * v));
            }
            for (&av, &col) in avs.iter().zip(cols) {
                let r = b.add(col as usize * n + j);
                let a = vdupq_n_f32(av);
                for (v, c) in acc.iter_mut().enumerate() {
                    *c = vaddq_f32(*c, vmulq_f32(a, vld1q_f32(r.add(4 * v))));
                }
            }
            for (v, c) in acc.iter().enumerate() {
                vst1q_f32(cp.add(j + 4 * v), *c);
            }
        }
    }

    /// One C-row update (NEON): 16-lane (4×q) main blocks, then 8 and 4,
    /// then a scalar tail. Separate mul + add, ascending `t` per lane.
    ///
    /// SAFETY (caller): neon enabled; every `b + cols[t]·n` valid for
    /// `n = crow.len()` reads, none aliasing `crow`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn mma_row_neon(avs: &[f32], cols: &[u32], b: *const f32, crow: &mut [f32]) {
        let n = crow.len();
        let cp = crow.as_mut_ptr();
        let mut j = 0;
        // SAFETY: each block call satisfies `j + 4·V <= n`; tail offsets
        // stay `< n`.
        unsafe {
            while j + 16 <= n {
                row_block_neon::<4>(avs, cols, b, n, cp, j);
                j += 16;
            }
            if j + 8 <= n {
                row_block_neon::<2>(avs, cols, b, n, cp, j);
                j += 8;
            }
            if j + 4 <= n {
                row_block_neon::<1>(avs, cols, b, n, cp, j);
                j += 4;
            }
            while j < n {
                let mut cj = *cp.add(j);
                for (&av, &col) in avs.iter().zip(cols) {
                    cj += av * *b.add(col as usize * n + j);
                }
                *cp.add(j) = cj;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::splitmix64;

    /// NaN-position-exact bitwise comparison (payloads of competing
    /// NaNs are unspecified; coordinates must match).
    fn same(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    fn specials() -> [f32; 7] {
        [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            1.0e-41,                     // subnormal
            f32::from_bits(0x3F80_3000), // rounds up across the boundary
            f32::from_bits(0x0000_0001), // smallest subnormal
        ]
    }

    fn messy(seed: u64, len: usize) -> Vec<f32> {
        let sp = specials();
        (0..len)
            .map(|t| {
                let r = splitmix64(seed ^ t as u64) as u32;
                match r % 5 {
                    0 => 0.0,
                    1 => sp[(r as usize / 5) % sp.len()],
                    _ => f32::from_bits(r),
                }
            })
            .collect()
    }

    fn available_tiers() -> Vec<IsaTier> {
        IsaTier::ALL
            .into_iter()
            .filter(|t| {
                let ok = t.is_available();
                if !ok {
                    eprintln!("simd tests: tier '{t}' unavailable on this host, skipping");
                }
                ok
            })
            .collect()
    }

    #[test]
    fn codes_and_names_round_trip() {
        for t in IsaTier::ALL {
            assert_eq!(IsaTier::from_code(t.code()), Some(t));
            assert_eq!(IsaTier::from_name(t.name()), Some(t));
            assert_eq!(format!("{t}"), t.name());
        }
        assert_eq!(IsaTier::from_name("AVX512F"), Some(IsaTier::Avx512f));
        assert_eq!(IsaTier::from_name("bogus"), None);
        assert_eq!(IsaTier::from_code(9), None);
    }

    #[test]
    fn lanes_are_monotone_in_width() {
        assert_eq!(IsaTier::Scalar.simd_lanes(), 1);
        assert_eq!(IsaTier::Neon.simd_lanes(), 4);
        assert_eq!(IsaTier::Avx2Fma.simd_lanes(), 8);
        assert_eq!(IsaTier::Avx512f.simd_lanes(), 16);
    }

    #[test]
    fn scalar_always_available_and_best_is_available() {
        assert!(IsaTier::Scalar.is_available());
        assert!(IsaTier::detect_best().is_available());
        assert!(IsaTier::probe().is_available());
    }

    #[test]
    fn resolve_pins_and_rejects() {
        assert_eq!(
            IsaTier::resolve(Some(IsaTier::Scalar)).unwrap(),
            IsaTier::Scalar
        );
        assert!(IsaTier::resolve(None).unwrap().is_available());
        // Some tier is always unavailable on any given host (Neon on
        // x86, the AVX tiers elsewhere).
        if let Some(missing) = IsaTier::ALL.into_iter().find(|t| !t.is_available()) {
            let err = IsaTier::resolve(Some(missing)).unwrap_err();
            assert!(err.to_string().contains(missing.name()), "{err}");
        }
    }

    #[test]
    fn rounding_matches_scalar_on_every_tier() {
        let src = messy(0xF00D, 1031); // odd length exercises every tail
        for tier in available_tiers() {
            let mut want = src.clone();
            to_tf32_slice(&mut want);

            let mut inplace = src.clone();
            to_tf32_slice_tier(&mut inplace, tier);
            let mut into = vec![0.0f32; src.len()];
            to_tf32_slice_into_tier(&src, &mut into, tier);

            for i in 0..src.len() {
                assert_eq!(
                    inplace[i].to_bits(),
                    want[i].to_bits(),
                    "tier {tier} in-place elem {i}"
                );
                assert_eq!(
                    into[i].to_bits(),
                    want[i].to_bits(),
                    "tier {tier} into elem {i}"
                );
            }
        }
    }

    /// Scalar oracle for the row core: pair-outer, lane-inner.
    fn row_reference(avs: &[f32], cols: &[u32], b: &[f32], crow: &mut [f32]) {
        let n = crow.len();
        for (&av, &col) in avs.iter().zip(cols) {
            for j in 0..n {
                crow[j] += av * b[col as usize * n + j];
            }
        }
    }

    #[test]
    fn mma_row_bit_identical_on_every_tier() {
        for n in [1usize, 5, 8, 15, 16, 17, 31, 33, 48, 64, 100] {
            let rows = 11usize;
            let mut b = messy(0xCAFE ^ n as u64, rows * n);
            to_tf32_slice(&mut b);
            let mut avs = messy(0xA11 ^ n as u64, 23);
            to_tf32_slice(&mut avs);
            // Repeated and out-of-order rows are legal pair lists.
            let cols: Vec<u32> = (0..23u64)
                .map(|t| (splitmix64(t ^ n as u64) % rows as u64) as u32)
                .collect();
            let mut want = vec![1.5f32; n];
            row_reference(&avs, &cols, &b, &mut want);
            for tier in available_tiers() {
                let mut got = vec![1.5f32; n];
                mma_row_tier(&avs, &cols, &b, &mut got, tier);
                for j in 0..n {
                    assert!(
                        same(got[j], want[j]),
                        "tier {tier} n={n} elem {j}: {:#010X} vs {:#010X}",
                        got[j].to_bits(),
                        want[j].to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn mma_row_has_no_zero_skip() {
        for n in [1usize, 4, 9, 16, 27, 64] {
            let b = messy(0x5EED ^ n as u64, n);
            for v in [0.0f32, -0.0, 2.5, f32::NAN, f32::INFINITY] {
                let mut want = vec![0.75f32; n];
                for (cj, &bj) in want.iter_mut().zip(b.iter()) {
                    *cj += v * bj;
                }
                for tier in available_tiers() {
                    let mut got = vec![0.75f32; n];
                    mma_row_tier(&[v], &[0], &b, &mut got, tier);
                    for j in 0..n {
                        assert!(
                            same(got[j], want[j]),
                            "tier {tier} v={v} n={n} elem {j}: {:#010X} vs {:#010X}",
                            got[j].to_bits(),
                            want[j].to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mma_row_rejects_a_row_outside_the_operand() {
        let b = vec![1.0f32; 2 * 4];
        let mut c = vec![0.0f32; 4];
        mma_row_tier(&[1.0], &[2], &b, &mut c, IsaTier::probe());
    }

    #[test]
    fn mma_row_with_no_pairs_leaves_the_row_untouched() {
        for tier in available_tiers() {
            let mut c = vec![-0.0f32, 3.0, f32::NAN];
            mma_row_tier(&[], &[], &[], &mut c, tier);
            assert_eq!(c[0].to_bits(), (-0.0f32).to_bits());
            assert_eq!(c[1], 3.0);
            assert!(c[2].is_nan());
        }
    }

    #[test]
    fn unavailable_tier_falls_back_to_scalar_bit_identically() {
        // Calling a wrapper with an unavailable tier (e.g. a tier read
        // from a foreign plan artifact) must fall back, not crash.
        let missing = IsaTier::ALL.into_iter().find(|t| !t.is_available());
        let Some(tier) = missing else { return };
        let src = messy(9, 100);
        let mut got = vec![0.0f32; 100];
        to_tf32_slice_into_tier(&src, &mut got, tier);
        let mut want = src.clone();
        to_tf32_slice(&mut want);
        for i in 0..100 {
            assert!(same(got[i], want[i]), "elem {i}");
        }
    }
}
