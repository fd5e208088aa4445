//! Property tests for the sharded execution path: `spmm-dist` must be
//! **bit-identical** (NaN-position-exact; see `bits_equal`) to the
//! single-node kernel for every kernel kind, shard count, and operand —
//! including operands with non-finite values and matrices small enough
//! that some shards come out empty.

use proptest::prelude::*;
use spmm_dist::DistSpmm;
use spmm_kernels::{KernelKind, PreparedKernel, Workspace};
use spmm_matrix::{CooMatrix, CsrMatrix, DenseMatrix};

/// Non-finite / edge-case floats to splice into operands (same table as
/// tests/properties.rs).
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

/// Bit-level equality, NaN-position-exact: non-NaN elements must match
/// bitwise; NaNs must sit at the same positions (payloads may differ —
/// IEEE 754 leaves invalid-operation payload propagation unspecified).
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

/// Single-node reference through the same plan pipeline.
fn single_node(kind: KernelKind, m: &CsrMatrix, b: &DenseMatrix) -> DenseMatrix {
    let kernel = PreparedKernel::builder(kind, m)
        .feature_dim(b.ncols())
        .build()
        .unwrap();
    let mut out = DenseMatrix::zeros(m.nrows(), b.ncols());
    let mut ws = Workspace::for_plan(kernel.execution_plan());
    kernel.execute_into(b, &mut out, &mut ws).unwrap();
    out
}

/// Splice special values into the sparse operand's stored entries.
fn splice_matrix(m: &CsrMatrix, specials: &[(usize, usize)]) -> CsrMatrix {
    if m.nnz() == 0 {
        return m.clone();
    }
    let coo = m.to_coo();
    let (rows, cols, vals) = coo.triplets();
    let mut replace = CooMatrix::new(m.nrows(), m.ncols());
    for (i, ((&r, &c), &v)) in rows.iter().zip(cols).zip(vals).enumerate() {
        let mut v = v;
        for (pos, code) in specials {
            if pos % vals.len() == i {
                v = special(*code);
            }
        }
        replace.push(r, c, v);
    }
    CsrMatrix::from_coo(&replace)
}

/// Body of `sharded_execution_is_bit_identical` (kept out of the
/// `proptest!` macro, whose token-munching recursion can't swallow a
/// block this long). Returns `Err(description)` on divergence.
fn check_sharded(
    m: &CsrMatrix,
    dim: usize,
    seed: u64,
    specials: &[(usize, usize)],
) -> Result<(), String> {
    let m = splice_matrix(m, specials);
    let mut b = DenseMatrix::random(m.ncols(), dim, seed);
    for (pos, code) in specials {
        let len = b.as_slice().len();
        b.as_mut_slice()[pos % len] = special(*code);
    }

    for kind in KernelKind::ALL {
        let expect = single_node(kind, &m, &b);
        for shards in [1usize, 2, 3, 7] {
            let dist = DistSpmm::builder(kind, &m)
                .shards(shards)
                .feature_dim(dim)
                .build()
                .map_err(|e| format!("{kind:?} x{shards} build: {e}"))?;
            let got = dist.multiply(&b).map_err(|e| e.to_string())?;
            if !bits_equal(&got, &expect) {
                return Err(format!(
                    "{kind:?} diverged at {shards} shards (n={}, nnz={}, dim={dim})",
                    m.nrows(),
                    m.nnz()
                ));
            }
            // The profiled (sequential-dispatch) path runs the same
            // bits through the same kernels.
            let (profiled, report) = dist.multiply_profiled(&b).map_err(|e| e.to_string())?;
            if !bits_equal(&profiled, &expect) {
                return Err(format!("{kind:?} profiled dispatch diverged at {shards}"));
            }
            if report.per_shard_busy.len() != shards {
                return Err("report is missing per-shard busy times".into());
            }
        }
    }
    Ok(())
}

/// Body of `halo_propagation_is_bit_identical`.
fn check_halo(m: &CsrMatrix, dim: usize, seed: u64, shards: usize) -> Result<(), String> {
    let h = DenseMatrix::random(m.nrows(), dim, seed);
    let dist = DistSpmm::builder(KernelKind::AccSpmm, m)
        .shards(shards)
        .feature_dim(dim)
        .build()
        .map_err(|e| e.to_string())?;
    let expect = dist.multiply(&h).map_err(|e| e.to_string())?;
    let parts = dist.split_rows(&h).map_err(|e| e.to_string())?;
    let out_parts = dist.propagate_halo(&parts).map_err(|e| e.to_string())?;
    let got = dist.concat_rows(&out_parts).map_err(|e| e.to_string())?;
    if !bits_equal(&got, &expect) {
        return Err(format!(
            "halo path diverged (n={}, dim={dim}, shards={shards})",
            m.nrows()
        ));
    }
    Ok(())
}

proptest! {
    // Heavier cases (each draw builds plans for 6 kernels × 4 shard
    // counts), so fewer of them — mirroring properties.rs conventions.
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The tentpole invariant: for every kernel kind and shard count —
    // including counts that leave some shards empty — sharded
    // execution is bit-identical to the single-node kernel, even with
    // NaN/Inf/denormal values spliced into both operands.
    #[test]
    fn sharded_execution_is_bit_identical(
        m in arb_matrix(48, 160),
        dim in 1usize..24,
        seed in 0u64..1000,
        specials in proptest::collection::vec((0usize..usize::MAX, 0usize..6), 0..4),
    ) {
        if let Err(e) = check_sharded(&m, dim, seed, &specials) {
            panic!("{e}");
        }
    }

    // Halo propagation (split → exchange boundary rows → per-shard
    // multiply → concat) is bit-identical to the plain sharded
    // multiply, which is itself bit-identical to single-node.
    #[test]
    fn halo_propagation_is_bit_identical(
        m in arb_matrix(48, 160),
        dim in 1usize..16,
        seed in 0u64..1000,
        shards in 1usize..6,
    ) {
        if let Err(e) = check_halo(&m, dim, seed, shards) {
            panic!("{e}");
        }
    }
}
