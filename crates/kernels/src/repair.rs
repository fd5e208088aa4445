//! Plan repair for dynamic graphs.
//!
//! A [`DeltaCsr`] overlay edits a plan's input operand. Repair folds the
//! edits in ([`DeltaCsr::compact`], which copies untouched row spans
//! whole and merges only the touched rows), fingerprints the compacted
//! operand once, and derives the host part — the execution rows — of
//! it; the model part is dropped and rebuilt on first use. A
//! tensor-core plan without a symmetric permutation splices its rows
//! ([`spmm_format::splice_execution_rows`]): the old plan's execution
//! rows for untouched rows are copied, and only the touched rows are
//! derived. So a repair costs in proportion to the rows the delta
//! touched, plus one memory-speed pass for the cache key. A symmetric
//! plan keeps its permutation and derives all its rows, so they, and
//! the model rebuilt from them, stay under the same relabeling; every
//! other plan's rows are the input's rows in input order, whichever
//! permutation packed the blocks.
//!
//! The contract, enforced by tests: the repaired plan's execution
//! output is **bit-identical** (NaN-position-exact) to a from-scratch
//! [`ExecutionPlan::build`] on the compacted matrix, for all six
//! kernels.

use crate::plan::ExecutionPlan;
use spmm_common::{Result, SpmmError};
use spmm_delta::DeltaCsr;
use spmm_format::TILE;
use spmm_matrix::CsrMatrix;
use std::time::Instant;

/// What a repair did, for observability and for the perfsuite's
/// rebuild-vs-repair accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairReport {
    /// Rows of the original (pre-permutation) operand the delta touched.
    pub rows_touched: usize,
    /// Pending overlay operations the repair folded in.
    pub edges_applied: usize,
    /// RowWindows ([`TILE`] rows each) of the plan's operand.
    pub windows_total: usize,
    /// RowWindows holding a row the delta touched: the share of the
    /// operand the delta changed.
    pub windows_rebuilt: usize,
    /// Wall time of the repair.
    pub repair_seconds: f64,
}

impl ExecutionPlan {
    /// Repair this plan against an edge-delta overlay whose base is the
    /// plan's input operand, returning the repaired plan and a report.
    ///
    /// The overlay's base must be the operand the plan was built from,
    /// bit for bit: a plan without a symmetric permutation holds that
    /// operand and compares it directly, a symmetric plan compares
    /// fingerprints. A clean overlay returns a clone (a true no-op).
    /// The repaired plan's `input_fingerprint` is the compacted
    /// matrix's, so serving caches key it exactly like a fresh build.
    pub fn repair(&self, delta: &DeltaCsr) -> Result<(ExecutionPlan, RepairReport)> {
        let t0 = Instant::now();
        // Comparing is several times cheaper than hashing the base.
        let base_matches = match self.perm() {
            None => same_bits(delta.base(), self.csr()),
            Some(_) => delta.base().content_fingerprint() == self.input_fingerprint(),
        };
        if !base_matches {
            return Err(SpmmError::InvalidConfig(
                "the delta's base is not the plan's input operand; repair needs the overlay \
                 built on the plan's operand"
                    .into(),
            ));
        }
        let touched: Vec<usize> = delta.touched_rows().collect();
        let windows_total = self.csr().nrows().div_ceil(TILE);
        let mut windows = vec![false; windows_total];
        for &r in &touched {
            windows[r / TILE] = true;
        }
        let mut report = RepairReport {
            rows_touched: touched.len(),
            edges_applied: delta.num_pending(),
            windows_total,
            windows_rebuilt: windows.iter().filter(|&&t| t).count(),
            ..RepairReport::default()
        };
        if delta.is_clean() {
            report.repair_seconds = t0.elapsed().as_secs_f64();
            return Ok((self.clone(), report));
        }
        let repaired = self.with_input(delta.compact(), &touched)?;
        report.repair_seconds = t0.elapsed().as_secs_f64();
        spmm_trace::counter_add("plan.repairs", 1);
        spmm_trace::counter_add("plan.repair.windows_rebuilt", report.windows_rebuilt as u64);
        Ok((repaired, report))
    }
}

/// Whether two operands hold the same CSR content with values compared
/// by bits, as equal [`CsrMatrix::content_fingerprint`]s would say.
/// `CsrMatrix`'s `==` compares values as floats, which rejects a NaN and
/// equates -0.0 with +0.0.
fn same_bits(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.row_ptr() == b.row_ptr()
        && a.col_idx() == b.col_idx()
        && a.values()
            .iter()
            .map(|v| v.to_bits())
            .eq(b.values().iter().map(|v| v.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::AccConfig;
    use crate::tests::assert_outputs_bit_identical;
    use crate::KernelKind;
    use crate::TcFormat;
    use spmm_matrix::gen::uniform_random;
    use spmm_matrix::DenseMatrix;
    use spmm_sim::Arch;

    /// Apply a deterministic churn script to `n`-row matrices: a few
    /// upserts (including non-finite payloads), an overwrite, and a
    /// delete of a real edge if one exists.
    fn churn(delta: &mut DeltaCsr, seed: u64) {
        let n = delta.nrows() as u32;
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = |m: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as u32
        };
        let payloads = [1.5f32, -0.0, f32::NAN, f32::INFINITY, 1e-42];
        for (i, &v) in payloads.iter().enumerate() {
            let r = next(n);
            let c = next(n);
            delta.upsert(r, c, v).unwrap();
            if i == 2 {
                // An insert-then-delete that must net out entirely.
                let r2 = next(n);
                let c2 = next(n);
                if delta.get(r2 as usize, c2).is_none() {
                    delta.upsert(r2, c2, 7.0).unwrap();
                    delta.delete(r2, c2);
                }
            }
        }
        // Delete one existing base edge from a touched-free row.
        for r in 0..delta.nrows() {
            let (cols, _) = delta.base().row(r);
            if let Some(&c) = cols.first() {
                delta.delete(r as u32, c);
                break;
            }
        }
    }

    #[test]
    fn repair_is_bit_identical_to_scratch_for_all_kernels() {
        let m = uniform_random(128, 6.0, 11);
        for (i, kind) in KernelKind::ALL.into_iter().enumerate() {
            let plan = ExecutionPlan::build(kind, &m, Arch::A800, 16, AccConfig::full()).unwrap();
            let mut delta = DeltaCsr::new(m.clone());
            churn(&mut delta, 0xACC + i as u64);
            let (repaired, rep) = plan.repair(&delta).unwrap();
            let compacted = delta.compact();
            assert_eq!(
                repaired.input_fingerprint(),
                compacted.content_fingerprint()
            );
            let scratch =
                ExecutionPlan::build(kind, &compacted, Arch::A800, 16, AccConfig::full()).unwrap();
            let b = DenseMatrix::random(128, 16, 5);
            let out_r = crate::PreparedKernel::from_plan(repaired)
                .execute(&b)
                .unwrap();
            let out_s = crate::PreparedKernel::from_plan(scratch)
                .execute(&b)
                .unwrap();
            assert_outputs_bit_identical(&out_r, &out_s);
            if plan.model().partition().is_some() {
                assert!(rep.windows_rebuilt > 0);
                assert!(
                    rep.windows_rebuilt < rep.windows_total,
                    "{kind:?}: small churn must leave most windows untouched \
                     ({}/{} rebuilt)",
                    rep.windows_rebuilt,
                    rep.windows_total
                );
            }
        }
    }

    /// `Vec<f32>` equality treats NaN ≠ NaN, so format comparisons go
    /// through the value bits.
    fn assert_bittcf_bits_eq(a: &spmm_format::BitTcf, b: &spmm_format::BitTcf) {
        assert_eq!(a.row_window_offset, b.row_window_offset);
        assert_eq!(a.tc_offset, b.tc_offset);
        assert_eq!(a.sparse_a_to_b, b.sparse_a_to_b);
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.is_prerounded(), b.is_prerounded());
        assert_eq!(
            a.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn repaired_tc_artifacts_match_scratch_build_on_the_permuted_operand() {
        // Stronger than output bit-identity: with the old permutation
        // reapplied, the repaired partition/format must equal a
        // from-scratch pipeline run that skips reordering — checked via
        // a kernel whose reorder is Identity so scratch and repair see
        // the same row order.
        let m = uniform_random(160, 5.0, 23);
        let mut cfg = AccConfig::full();
        cfg.reorder = spmm_reorder::Algorithm::Identity;
        let plan = ExecutionPlan::build(KernelKind::AccSpmm, &m, Arch::A800, 8, cfg).unwrap();
        let mut delta = DeltaCsr::new(m.clone());
        churn(&mut delta, 42);
        let (repaired, _) = plan.repair(&delta).unwrap();
        let scratch =
            ExecutionPlan::build(KernelKind::AccSpmm, &delta.compact(), Arch::A800, 8, cfg)
                .unwrap();
        assert_eq!(
            repaired.csr().content_fingerprint(),
            scratch.csr().content_fingerprint()
        );
        let (repaired, scratch) = (repaired.model(), scratch.model());
        assert_eq!(repaired.partition(), scratch.partition());
        match (repaired.format().unwrap(), scratch.format().unwrap()) {
            (TcFormat::BitTcf(a), TcFormat::BitTcf(b)) => assert_bittcf_bits_eq(a, b),
            other => panic!("expected BitTcf on both sides, got {other:?}"),
        }
    }

    #[test]
    fn clean_delta_repair_is_a_no_op() {
        let m = uniform_random(64, 4.0, 2);
        let plan = ExecutionPlan::build(KernelKind::AccSpmm, &m, Arch::A800, 8, AccConfig::full())
            .unwrap();
        let delta = DeltaCsr::new(m.clone());
        let (repaired, rep) = plan.repair(&delta).unwrap();
        assert_eq!(rep.windows_rebuilt, 0);
        assert_eq!(rep.edges_applied, 0);
        assert_eq!(repaired.input_fingerprint(), plan.input_fingerprint());
        let b = DenseMatrix::random(64, 8, 1);
        assert_outputs_bit_identical(
            &crate::PreparedKernel::from_plan(repaired)
                .execute(&b)
                .unwrap(),
            &crate::PreparedKernel::from_plan(plan).execute(&b).unwrap(),
        );
    }

    #[test]
    fn mismatched_base_is_rejected() {
        let m = uniform_random(64, 4.0, 2);
        let other = uniform_random(64, 4.0, 3);
        let plan = ExecutionPlan::build(KernelKind::AccSpmm, &m, Arch::A800, 8, AccConfig::full())
            .unwrap();
        let delta = DeltaCsr::new(other);
        assert!(plan.repair(&delta).is_err());
    }

    #[test]
    fn second_repair_over_a_nan_base_succeeds() {
        // The first repair writes a NaN into the operand, which the
        // second delta then takes as its base: float equality would call
        // that base different from the plan's operand.
        let m = uniform_random(64, 4.0, 2);
        let plan = ExecutionPlan::build(KernelKind::AccSpmm, &m, Arch::A800, 8, AccConfig::full())
            .unwrap();
        let mut first = DeltaCsr::new(m.clone());
        first.upsert(3, 5, f32::NAN).unwrap();
        let (repaired, _) = plan.repair(&first).unwrap();
        let mut second = DeltaCsr::new(first.compact());
        churn(&mut second, 7);
        let (twice, _) = repaired.repair(&second).unwrap();
        assert_eq!(
            twice.input_fingerprint(),
            second.compact().content_fingerprint()
        );
    }

    #[test]
    fn base_differing_only_in_the_sign_of_a_zero_is_rejected() {
        let mut m = uniform_random(64, 4.0, 2);
        m.values_mut()[0] = 0.0;
        let plan = ExecutionPlan::build(KernelKind::AccSpmm, &m, Arch::A800, 8, AccConfig::full())
            .unwrap();
        let mut other = m.clone();
        other.values_mut()[0] = -0.0;
        assert!(plan.repair(&DeltaCsr::new(other)).is_err());
        assert!(plan.repair(&DeltaCsr::new(m)).is_ok());
    }

    #[test]
    fn symmetric_reorder_repair_splices_like_a_rebuild_under_the_same_perm() {
        // Symmetric relabeling makes intra-row accumulation order a
        // function of the permutation, so cross-perm output bit-identity
        // cannot hold (a scratch build computes a fresh perm on the
        // compacted matrix). The invariant that CAN and must hold:
        // repair ≡ re-running FormatBuild on the compacted matrix under
        // the plan's OWN permutation, byte for byte.
        let m = uniform_random(96, 5.0, 31);
        let mut cfg = AccConfig::full();
        cfg.symmetric_reorder = true;
        let plan = ExecutionPlan::build(KernelKind::AccSpmm, &m, Arch::A800, 8, cfg).unwrap();
        let perm: Vec<u32> = plan.perm().expect("symmetric Acc permutes").to_vec();
        let mut delta = DeltaCsr::new(m.clone());
        churn(&mut delta, 99);
        let (repaired, _) = plan.repair(&delta).unwrap();
        let expected_operand = delta.compact().permute_symmetric(&perm).unwrap();
        assert_eq!(
            repaired.csr().content_fingerprint(),
            expected_operand.content_fingerprint()
        );
        let expected_wp = spmm_format::WindowPartition::build(&expected_operand);
        let model = repaired.model();
        assert_eq!(model.perm(), Some(&perm[..]), "the permutation is carried");
        assert_eq!(model.partition(), Some(&expected_wp));
        let mut expected_fmt = spmm_format::BitTcf::from_partition(&expected_operand, &expected_wp);
        expected_fmt.preround_values_tier(repaired.isa_tier());
        match model.format().unwrap() {
            TcFormat::BitTcf(f) => assert_bittcf_bits_eq(f, &expected_fmt),
            other => panic!("expected BitTcf, got {other:?}"),
        }
    }

    /// The delta shapes `spliced_repair_matches_derived_rows` draws.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// The script, plus the first and last row, a run of
        /// consecutive rows, and one row emptied by deletes.
        Mixed,
        /// The script plus one upsert in every row.
        AllRows,
        /// Edits that all net out: the overlay stays clean.
        Clean,
    }

    /// Payloads of special bit patterns, `1e-42` among them: a
    /// subnormal that rounds to zero in TF32, so a zero-dropping plan
    /// drops it.
    fn payload(bits: u32) -> f32 {
        match bits % 8 {
            0 => f32::NAN,
            1 => -0.0,
            2 => f32::MIN_POSITIVE / 4.0,
            3 => f32::INFINITY,
            4 => f32::NEG_INFINITY,
            5 => 1e-42,
            _ => f32::from_bits(bits),
        }
    }

    /// A base with special values stored in it, and a delta of `shape`
    /// over it.
    fn shaped_delta(seed: u64, shape: Shape, script: &[(bool, u16, u16, u32)]) -> DeltaCsr {
        let n = 40 + (seed % 50) as usize;
        let mut m = uniform_random(n, 4.0, seed);
        for (k, v) in m.values_mut().iter_mut().enumerate().step_by(7) {
            *v = payload(k as u32 ^ seed as u32);
        }
        let mut d = DeltaCsr::new(m);
        let n32 = n as u32;
        if let Shape::Clean = shape {
            for &(_, r, c, _) in script {
                let (r, c) = (r as u32 % n32, c as u32 % n32);
                if d.get(r as usize, c).is_none() {
                    d.upsert(r, c, 2.0).unwrap();
                    d.delete(r, c);
                }
            }
            assert!(d.is_clean());
            return d;
        }
        for &(delete, r, c, bits) in script {
            let (r, c) = (r as u32 % n32, c as u32 % n32);
            if delete {
                d.delete(r, c);
            } else {
                d.upsert(r, c, payload(bits)).unwrap();
            }
        }
        let rows: Vec<u32> = match shape {
            Shape::AllRows => (0..n32).collect(),
            _ => {
                let run = (seed as u32 % (n32 - 6))..(seed as u32 % (n32 - 6) + 5);
                [0, n32 - 1].into_iter().chain(run).collect()
            }
        };
        for r in rows {
            d.upsert(r, (r * 7 + seed as u32) % n32, payload(r ^ 0x5a))
                .unwrap();
        }
        if let Shape::Mixed = shape {
            let r = (seed as usize / 7) % n;
            let cols: Vec<u32> = d.row(r).map(|(c, _)| c).collect();
            for c in cols {
                d.delete(r as u32, c);
            }
            assert_eq!(d.row_len(r), 0, "row {r} emptied");
        }
        d
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        // Span-copy `compact` equals the per-row merged view, and a
        // repaired plan's spliced execution rows equal the rows derived
        // from the compacted operand, by bits: TCF keeps the values that
        // round to ±0, BitTCF and ME-TCF drop them.
        #[test]
        fn spliced_repair_matches_derived_rows(
            seed in 0u64..1 << 32,
            shape in 0usize..3,
            script in proptest::collection::vec(
                (
                    proptest::prelude::any::<bool>(),
                    proptest::prelude::any::<u16>(),
                    proptest::prelude::any::<u16>(),
                    proptest::prelude::any::<u32>(),
                ),
                0..60,
            ),
        ) {
            let shape = [Shape::Mixed, Shape::AllRows, Shape::Clean][shape];
            let delta = shaped_delta(seed, shape, &script);
            let compacted = delta.compact();
            let (mut row_ptr, mut cols, mut vals) = (vec![0], Vec::new(), Vec::new());
            for r in 0..delta.nrows() {
                for (c, v) in delta.row(r) {
                    cols.push(c);
                    vals.push(v);
                }
                row_ptr.push(cols.len());
            }
            let merged =
                CsrMatrix::new(delta.nrows(), delta.ncols(), row_ptr, cols, vals).unwrap();
            assert!(same_bits(&compacted, &merged), "compact differs from the merged view");
            for kind in [KernelKind::TcGnn, KernelKind::DtcSpmm, KernelKind::AccSpmm] {
                let plan =
                    ExecutionPlan::build(kind, delta.base(), Arch::A800, 8, AccConfig::full())
                        .unwrap();
                let (repaired, report) = plan.repair(&delta).unwrap();
                assert_eq!(report.rows_touched, delta.num_touched_rows());
                let skip_zeros = plan.precision() == crate::Precision::Tf32DropZeros;
                let derived = spmm_format::execution_rows(&compacted, None, skip_zeros).unwrap();
                assert!(
                    same_bits(repaired.exec_rows().unwrap(), &derived),
                    "{kind:?}: spliced rows differ from derived rows"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        #[test]
        fn churn_repair_matches_scratch_build(seed in 0u64..1u64 << 48) {
            let m = uniform_random(96, 5.0, seed % 1000);
            let kind = KernelKind::ALL[(seed % 6) as usize];
            let plan = ExecutionPlan::build(kind, &m, Arch::A800, 8, AccConfig::full()).unwrap();
            let mut delta = DeltaCsr::new(m.clone());
            churn(&mut delta, seed);
            let (repaired, _) = plan.repair(&delta).unwrap();
            let scratch = ExecutionPlan::build(
                kind, &delta.compact(), Arch::A800, 8, AccConfig::full()).unwrap();
            let b = DenseMatrix::random(96, 8, seed % 17);
            let out_r = crate::PreparedKernel::from_plan(repaired).execute(&b).unwrap();
            let out_s = crate::PreparedKernel::from_plan(scratch).execute(&b).unwrap();
            assert_outputs_bit_identical(&out_r, &out_s);
        }
    }
}
