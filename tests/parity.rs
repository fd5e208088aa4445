//! Numerical parity: every kernel strategy against an independent f64
//! scalar reference, and the batched API against the one-at-a-time API.
//!
//! The f64 reference shares no code with the kernels — it walks the CSR
//! rows directly and accumulates in double precision — so it catches
//! format-conversion bugs, reorder/scatter bugs, and balancing bugs
//! alike. TF32 operand rounding plus FP32 accumulation stay within
//! `tf32_tolerance` of it.

use acc_spmm::{AccSpmm, Arch, KernelKind};
use spmm_common::scalar::tf32_tolerance;
use spmm_kernels::PreparedKernel;
use spmm_matrix::{gen, CsrMatrix, DenseMatrix};

/// Scalar f64 SpMM straight off the CSR arrays: C[r] = Σ A[r,c]·B[c].
fn f64_reference(a: &CsrMatrix, b: &DenseMatrix) -> Vec<Vec<f64>> {
    let n = b.ncols();
    let mut c = vec![vec![0.0f64; n]; a.nrows()];
    for (r, crow) in c.iter_mut().enumerate() {
        let (cols, vals) = a.row(r);
        for (&col, &v) in cols.iter().zip(vals.iter()) {
            let brow = b.row(col as usize);
            for (j, cj) in crow.iter_mut().enumerate() {
                *cj += v as f64 * brow[j] as f64;
            }
        }
    }
    c
}

fn max_abs_diff(got: &DenseMatrix, want: &[Vec<f64>]) -> f64 {
    let mut worst = 0.0f64;
    for (r, wrow) in want.iter().enumerate() {
        for (j, &w) in wrow.iter().enumerate() {
            worst = worst.max((got.get(r, j) as f64 - w).abs());
        }
    }
    worst
}

fn workloads() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("molecules", gen::molecule_union(640, 6, 16, true, 21)),
        (
            "rmat",
            gen::rmat(
                gen::RmatConfig {
                    scale: 9,
                    avg_deg: 10.0,
                    ..Default::default()
                },
                22,
            ),
        ),
        (
            "clustered",
            gen::clustered(
                gen::ClusteredConfig {
                    n: 768,
                    cluster_size: 96,
                    intra_deg: 14.0,
                    inter_deg: 3.0,
                    hub_fraction: 0.02,
                    hub_factor: 8.0,
                    shuffle: true,
                    ..Default::default()
                },
                23,
            ),
        ),
    ]
}

#[test]
fn all_six_kernels_match_the_f64_scalar_reference() {
    for (name, a) in workloads() {
        let b = DenseMatrix::random(a.nrows(), 32, 77);
        let want = f64_reference(&a, &b);
        // The reference accumulates in f64; the kernels round operands
        // to TF32 and accumulate in f32, so allow both error sources.
        let tol = tf32_tolerance(a.nrows()) as f64;
        for kind in KernelKind::ALL {
            let k = PreparedKernel::builder(kind, &a)
                .arch(Arch::A800)
                .feature_dim(b.ncols())
                .build()
                .unwrap();
            let c = k.execute(&b).unwrap();
            let diff = max_abs_diff(&c, &want);
            assert!(
                diff <= tol,
                "{} on {name}: max |diff| {diff} > tol {tol}",
                kind.name()
            );
        }
    }
}

#[test]
fn multiply_batch_is_bit_identical_to_looped_multiply() {
    for (name, a) in workloads() {
        let handle = AccSpmm::builder(&a)
            .arch(Arch::A800)
            .feature_dim(16)
            .build()
            .unwrap();
        let bs: Vec<DenseMatrix> = (0..10)
            .map(|i| DenseMatrix::random(a.nrows(), 16, 500 + i))
            .collect();
        let batched = handle.multiply_batch(&bs).unwrap();
        assert_eq!(batched.len(), bs.len());
        for (i, b) in bs.iter().enumerate() {
            let single = handle.multiply(b).unwrap();
            assert_eq!(
                batched[i], single,
                "{name}: batched RHS {i} differs from multiply()"
            );
        }
    }
}

#[test]
fn execute_batch_bit_identical_across_all_kernels() {
    let a = gen::molecule_union(512, 6, 14, true, 31);
    let bs: Vec<DenseMatrix> = (0..8)
        .map(|i| DenseMatrix::random(a.nrows(), 24, 900 + i))
        .collect();
    for kind in KernelKind::ALL {
        let k = PreparedKernel::builder(kind, &a)
            .arch(Arch::H100)
            .feature_dim(24)
            .build()
            .unwrap();
        let batched = k.execute_batch(&bs).unwrap();
        for (i, b) in bs.iter().enumerate() {
            assert_eq!(
                batched[i],
                k.execute(b).unwrap(),
                "{} RHS {i} not bit-identical",
                kind.name()
            );
        }
    }
}

/// NaN-position-exact bitwise equality: a NaN must sit at the same
/// coordinates (its payload is unspecified), every other element —
/// signed zeros and infinities included — must match bit for bit.
fn assert_same_bits(got: &DenseMatrix, want: &DenseMatrix, what: &str) {
    assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()));
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} is {g:?} ({:#010x}), reference {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

#[test]
fn csr_kernels_are_bit_identical_to_the_reference_on_every_tier() {
    use spmm_common::util::splitmix64;
    use spmm_common::IsaTier;
    use spmm_kernels::{AccConfig, Workspace};

    // A carries every awkward class as a *stored* entry: explicit
    // zeros, ±Inf, NaN, subnormals and −0.0, plus empty rows.
    const ROWS: usize = 96;
    const COLS: usize = 80;
    const ZERO_COL: u32 = 5;
    let specials = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        1.0e-41,
        f32::from_bits(1),
    ];
    let (mut row_ptr, mut col_idx, mut values) = (vec![0usize], Vec::new(), Vec::new());
    for r in 0..ROWS {
        let mut cols: Vec<u32> = if r == 0 {
            // Row 0 stores an explicit zero opposite B's Inf row, among
            // finite neighbours.
            vec![1, ZERO_COL, 40]
        } else {
            let len = splitmix64(r as u64) % 14;
            (0..len)
                .map(|t| (splitmix64(((r as u64) << 8) | t) % COLS as u64) as u32)
                .collect()
        };
        cols.sort_unstable();
        cols.dedup();
        for &c in &cols {
            let h = splitmix64(0x5EED ^ ((r as u64) << 16) ^ c as u64);
            let v = match (r, c) {
                (0, ZERO_COL) => 0.0,
                (0, _) => 0.5,
                _ if h.is_multiple_of(7) => specials[(h >> 8) as usize % specials.len()],
                _ => (h >> 40) as f32 / (1u64 << 23) as f32 - 1.0,
            };
            col_idx.push(c);
            values.push(v);
        }
        row_ptr.push(col_idx.len());
    }
    let a = CsrMatrix::new(ROWS, COLS, row_ptr, col_idx, values).unwrap();

    let tiers: Vec<IsaTier> = IsaTier::ALL
        .into_iter()
        .filter(|t| {
            let ok = t.is_available();
            if !ok {
                eprintln!("csr tier parity: skipping tier '{t}' (not available on this host)");
            }
            ok
        })
        .collect();
    // Every tail shape of every tier: pure tails, exact 8/16-lane
    // vectors, ragged tails and the widest main blocks.
    for n in [1usize, 7, 8, 15, 16, 17, 33, 64] {
        let mut b = DenseMatrix::random(COLS, n, 0xB00 + n as u64);
        b.row_mut(ZERO_COL as usize).fill(f32::INFINITY);
        let b2 = DenseMatrix::random(COLS, n, 0xB01 + n as u64);
        let want = a.spmm_dense(&b).unwrap();
        let want2 = a.spmm_dense(&b2).unwrap();
        // 0 × Inf = NaN: a zero skip anywhere in the path loses it.
        assert!(
            (0..n).all(|j| want.get(0, j).is_nan()),
            "n={n}: reference skipped a zero"
        );

        for kind in [
            KernelKind::CusparseLike,
            KernelKind::SputnikLike,
            KernelKind::SparseTirLike,
        ] {
            for &tier in &tiers {
                let what = format!("{} on tier '{tier}', n={n}", kind.name());
                let k = PreparedKernel::builder(kind, &a)
                    .feature_dim(n)
                    .config(AccConfig {
                        isa: Some(tier),
                        ..AccConfig::full()
                    })
                    .build()
                    .unwrap();
                assert_eq!(k.execution_plan().isa_tier(), tier, "{what}");

                assert_same_bits(&k.execute(&b).unwrap(), &want, &format!("{what}, execute"));

                let mut out = DenseMatrix::from_fn(ROWS, n, |_, _| f32::NAN);
                let mut ws = Workspace::new();
                k.execute_into(&b, &mut out, &mut ws).unwrap();
                assert_same_bits(&out, &want, &format!("{what}, execute_into"));

                let batch = k.execute_batch(&[b.clone(), b2.clone()]).unwrap();
                assert_same_bits(&batch[0], &want, &format!("{what}, execute_batch[0]"));
                assert_same_bits(&batch[1], &want2, &format!("{what}, execute_batch[1]"));
            }
        }
    }
}
