//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use spmm_balance::{plan, BalanceStrategy, ModelParams, PerfModel, MAX_BLOCKS_PER_TB};
use spmm_common::util::is_permutation;
use spmm_format::{BitTcf, MeTcf, Tcf, WindowPartition, PAD_COL, TILE};
use spmm_matrix::{CooMatrix, CsrMatrix, DenseMatrix};
use spmm_reorder::Algorithm;

/// Non-finite / edge-case floats to splice into operands, selected by
/// a proptest-drawn index.
fn special(code: usize) -> f32 {
    [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0f32,
        1.0e-41f32, // denormal
        f32::MAX,
    ][code % 6]
}

/// The pre-change sequential BitTCF SpMM: decompress each block, gather
/// raw dense rows, and run the round-at-every-use
/// [`spmm_common::scalar::tf32_mma_8x8`]. The pre-rounded production
/// paths must stay bit-identical to this.
fn reference_bittcf_spmm(t: &BitTcf, b: &DenseMatrix) -> DenseMatrix {
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

/// Bit-level equality, NaN-position-exact: every non-NaN element must
/// match bitwise (including signed zeros and infinities) and NaNs must
/// appear at exactly the same positions. NaN *payloads* are allowed to
/// differ — IEEE 754 leaves invalid-operation payload propagation
/// unspecified, and the compiler may commute `c + a*b`, so payloads are
/// not stable across differently-vectorized builds of the same
/// arithmetic.
fn bits_equal(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// Strategy: an arbitrary small sparse square matrix (duplicates summed).
fn arb_matrix(max_n: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (2usize..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, -8i16..8i16), 0..max_nnz).prop_map(
            move |entries| {
                let mut coo = CooMatrix::new(n, n);
                for (r, c, v) in entries {
                    coo.push(r, c, v as f32 / 2.0);
                }
                CsrMatrix::from_coo(&coo)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_coo_roundtrip(m in arb_matrix(64, 200)) {
        let rt = CsrMatrix::from_coo(&m.to_coo());
        prop_assert_eq!(m, rt);
    }

    #[test]
    fn transpose_is_involutive(m in arb_matrix(48, 150)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn all_tc_formats_roundtrip(m in arb_matrix(64, 256)) {
        prop_assert_eq!(BitTcf::from_csr(&m).to_csr(), m.clone());
        prop_assert_eq!(MeTcf::from_csr(&m).to_csr(), m.clone());
        prop_assert_eq!(Tcf::from_csr(&m).to_csr(), m);
    }

    #[test]
    fn bitmap_popcount_equals_offsets(m in arb_matrix(64, 256)) {
        let t = BitTcf::from_csr(&m);
        let mut total = 0usize;
        for b in 0..t.num_tc_blocks() {
            let pop = t.positions[b].count_ones();
            prop_assert_eq!(pop, t.tc_offset[b + 1] - t.tc_offset[b]);
            total += pop as usize;
        }
        prop_assert_eq!(total, m.nnz());
        // Offsets are monotone and terminate at nnz.
        prop_assert!(t.tc_offset.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(t.row_window_offset.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn window_partition_counts_are_consistent(m in arb_matrix(64, 256)) {
        let wp = WindowPartition::build(&m);
        prop_assert_eq!(wp.num_windows(), m.nrows().div_ceil(TILE));
        prop_assert_eq!(
            wp.blocks_per_window().iter().sum::<usize>(),
            wp.num_tc_blocks()
        );
        // Each window's block count is exactly ceil(distinct cols / TILE).
        for w in 0..wp.num_windows() {
            prop_assert_eq!(
                wp.window_blocks(w).len(),
                wp.window_columns(w).len().div_ceil(TILE)
            );
        }
    }

    #[test]
    fn every_reorder_is_a_permutation(m in arb_matrix(48, 150)) {
        for alg in Algorithm::ALL {
            let perm = spmm_reorder::reorder(&m, alg);
            prop_assert!(is_permutation(&perm), "{}", alg.name());
        }
    }

    #[test]
    fn reorder_preserves_nnz_and_row_multiset(m in arb_matrix(48, 150)) {
        let (pm, perm) = spmm_reorder::reorder_apply(&m, Algorithm::Affinity);
        prop_assert_eq!(pm.nnz(), m.nnz());
        for (old, &p) in perm.iter().enumerate() {
            prop_assert_eq!(pm.row(p as usize), m.row(old));
        }
    }

    #[test]
    fn balance_plans_cover_blocks_exactly_once(
        bpw in proptest::collection::vec(0usize..40, 1..64)
    ) {
        let model = PerfModel::new(ModelParams {
            feature_dim: 128,
            bandwidth: 1e12,
            flops: 1e14,
            num_sms: 108,
        });
        let total: usize = bpw.iter().sum();
        for strategy in [
            BalanceStrategy::None,
            BalanceStrategy::DtcStyle,
            BalanceStrategy::AccAdaptive,
        ] {
            let p = plan(&bpw, strategy, &model);
            let mut next = 0u32;
            for tb in &p.tbs {
                prop_assert!(tb.num_blocks() > 0);
                // The 32-block cap binds only when redistribution was
                // actually applied (the adaptive strategy declines
                // balanced inputs and leaves windows whole).
                if p.applied {
                    prop_assert!(tb.num_blocks() <= MAX_BLOCKS_PER_TB);
                }
                for s in &tb.segments {
                    prop_assert_eq!(s.block_start, next);
                    prop_assert!(s.block_end > s.block_start);
                    next = s.block_end;
                }
            }
            prop_assert_eq!(next as usize, total, "strategy {:?}", strategy);
        }
    }

    #[test]
    fn tc_spmm_matches_reference(m in arb_matrix(40, 120), seed in 0u64..1000) {
        let n = 8;
        let b = DenseMatrix::random(m.ncols(), n, seed);
        let reference = m.spmm_dense(&b).unwrap();
        let c = BitTcf::from_csr(&m).spmm(&b).unwrap();
        let tol = spmm_common::scalar::tf32_tolerance(m.ncols()) * 8.0;
        prop_assert!(
            c.approx_eq(&reference, tol, tol),
            "max diff {}",
            c.max_abs_diff(&reference)
        );
    }

    #[test]
    fn tf32_rounding_is_monotone(a in any::<f32>(), b in any::<f32>()) {
        prop_assume!(a.is_finite() && b.is_finite());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (rl, rh) = (spmm_common::to_tf32(lo), spmm_common::to_tf32(hi));
        prop_assert!(rl <= rh, "rounding must preserve order: {lo} -> {rl}, {hi} -> {rh}");
    }

    #[test]
    fn mm_io_roundtrip(m in arb_matrix(32, 80)) {
        let mut buf = Vec::new();
        spmm_matrix::mm::write_csr(&mut buf, &m).unwrap();
        let rt = CsrMatrix::from_coo(
            &spmm_matrix::mm::read_coo(std::io::Cursor::new(buf)).unwrap()
        );
        prop_assert_eq!(m, rt);
    }

    #[test]
    fn mm_parser_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Arbitrary bytes: the parser must return Err or Ok, never panic.
        let _ = spmm_matrix::mm::read_coo(std::io::Cursor::new(bytes));
    }

    #[test]
    fn mm_parser_never_panics_on_header_plus_garbage(
        lines in proptest::collection::vec("[ -~]{0,40}", 0..20)
    ) {
        // A valid header followed by arbitrary printable lines.
        let mut text = String::from("%%MatrixMarket matrix coordinate real general\n");
        for l in &lines {
            text.push_str(l);
            text.push('\n');
        }
        let _ = spmm_matrix::mm::read_coo(std::io::Cursor::new(text.into_bytes()));
    }

    #[test]
    fn prerounded_spmm_into_matches_sequential_reference(
        m in arb_matrix(48, 160),
        seed in 0u64..1000,
        a_specials in proptest::collection::vec((0usize..4096, 0usize..6), 0..6),
        b_specials in proptest::collection::vec((0usize..4096, 0usize..6), 0..6),
    ) {
        let n = 8;
        let mut t = BitTcf::from_csr(&m);
        let mut b = DenseMatrix::random(m.ncols(), n, seed);
        // Splice NaN/Inf/denormal edge cases into both operands: the
        // pre-rounded path must propagate them bit-for-bit like the
        // round-at-every-use reference.
        for &(i, v) in &a_specials {
            if !t.values.is_empty() {
                let idx = i % t.values.len();
                t.values[idx] = special(v);
            }
        }
        for &(i, v) in &b_specials {
            let s = b.as_mut_slice();
            let idx = i % s.len();
            s[idx] = special(v);
        }
        let reference = reference_bittcf_spmm(&t, &b);

        // Raw format (rounds the decompressed tile per block).
        let c = t.spmm(&b).unwrap();
        prop_assert!(bits_equal(&c, &reference), "raw-format path diverged");

        // Pre-rounded format (the plan-compiled configuration).
        let tier = spmm_common::IsaTier::probe();
        t.preround_values_tier(tier);
        let c2 = t.spmm(&b).unwrap();
        prop_assert!(bits_equal(&c2, &reference), "prerounded-format path diverged");

    }

    #[test]
    fn execute_batch_is_bit_identical_to_sequential_executes(
        m in arb_matrix(40, 120),
        seeds in proptest::collection::vec(0u64..1000, 1..4),
        specials in proptest::collection::vec((0usize..4096, 0usize..6), 0..4),
    ) {
        let n = 8;
        let k = spmm_kernels::PreparedKernel::builder(spmm_kernels::KernelKind::AccSpmm, &m)
            .feature_dim(n)
            .build()
            .unwrap();
        let mut bs: Vec<DenseMatrix> = seeds
            .iter()
            .map(|&s| DenseMatrix::random(m.ncols(), n, s))
            .collect();
        for (j, &(i, v)) in specials.iter().enumerate() {
            let b = &mut bs[j % seeds.len()];
            let s = b.as_mut_slice();
            let idx = i % s.len();
            s[idx] = special(v);
        }
        let expected: Vec<DenseMatrix> =
            bs.iter().map(|b| k.execute(b).unwrap()).collect();
        let got = k.execute_batch(&bs).unwrap();
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            prop_assert!(bits_equal(g, e), "batched output diverged from sequential");
        }
    }
}

proptest! {
    // Engine cases spin up worker threads; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_submit_is_bit_identical_to_direct_multiply(
        m in arb_matrix(40, 120),
        seeds in proptest::collection::vec(0u64..1000, 1..4),
        specials in proptest::collection::vec((0usize..4096, 0usize..6), 0..4),
    ) {
        use acc_spmm::{AccSpmm, Engine, SubmitOptions};
        let n = 8;
        let handle = AccSpmm::builder(&m).feature_dim(n).build().unwrap();
        let mut bs: Vec<DenseMatrix> = seeds
            .iter()
            .map(|&s| DenseMatrix::random(m.ncols(), n, s))
            .collect();
        for (j, &(i, v)) in specials.iter().enumerate() {
            let b = &mut bs[j % seeds.len()];
            let s = b.as_mut_slice();
            let idx = i % s.len();
            s[idx] = special(v);
        }
        let expected: Vec<DenseMatrix> =
            bs.iter().map(|b| handle.multiply(b).unwrap()).collect();

        let engine = Engine::builder().workers(1).build().unwrap();
        let session = engine.install(handle.prepared().clone());
        let tickets: Vec<_> = bs
            .iter()
            .map(|b| session.submit(b.clone(), SubmitOptions::new()).into_result().unwrap())
            .collect();
        for (t, e) in tickets.into_iter().zip(&expected) {
            let got = t.wait().unwrap();
            prop_assert!(bits_equal(&got, e), "engine output diverged from direct multiply");
        }
    }
}
