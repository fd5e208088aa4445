//! Golden outputs of the tensor-core executors.
//!
//! Each entry pins the FNV-1a hash of one Acc-SpMM, DTC-SpMM or TC-GNN
//! output,
//! NaNs canonicalized (NaN payloads are unspecified, NaN positions are
//! not), so a change to how the executors compute cannot move a single
//! output bit unnoticed. Covered:
//! * the bindings of the two v4 plans saved in `golden/` (AccSpmm and
//!   DtcSpmm over the golden matrix), rebuilt: v5 loaders refuse the
//!   v4 files, so their pinned hashes now hold a fresh build to them;
//! * Acc-SpMM with rows-only and with symmetric reordering, DTC-SpMM and
//!   TC-GNN, on an operand of special values: stored values that round
//!   to ±0 opposite all-Inf rows of B, NaN, ±Inf, subnormals and −0.0
//!   (TC-GNN has no zero skip, so its ±0 slots meet the Inf rows and
//!   show as NaN);
//! * widths 1, 8, 17 and 64;
//! * `execute`, `execute_into`, `execute_batch` and
//!   `execute_batch_into` (over the whole batch and over one RHS at a
//!   time), which must all produce the pinned hash.

#[path = "../../format/tests/golden/matrix.rs"]
mod golden;

use std::slice;

use spmm_kernels::{AccConfig, ExecutionPlan, KernelKind, PreparedKernel, Workspace};
use spmm_matrix::{CooMatrix, CsrMatrix, DenseMatrix};
use spmm_sim::Arch;

const WIDTHS: [usize; 4] = [1, 8, 17, 64];

/// `(case, hashes at WIDTHS)`.
const GOLDEN: [(&str, [u64; 4]); 6] = [
    (
        "accspmm.plan",
        [
            0x68f1c697e6133623,
            0xbfbfa3f50c9a4b81,
            0x85ac77b605767e4c,
            0x17e01bfc7d4b2731,
        ],
    ),
    (
        "dtcspmm.plan",
        [
            0x68f1c697e6133623,
            0xbfbfa3f50c9a4b81,
            0x85ac77b605767e4c,
            0x17e01bfc7d4b2731,
        ],
    ),
    (
        "acc-special",
        [
            0xadba4630a08224dc,
            0xe156089f8286323b,
            0x53ef11c4c004266d,
            0xeaf7dc07a0bff3e4,
        ],
    ),
    (
        "acc-symmetric-special",
        [
            0xadba4630a08224dc,
            0xbd06cd2dcd8478af,
            0x65bd6cff95ed04c8,
            0x761feaf22e443817,
        ],
    ),
    (
        "dtc-special",
        [
            0xadba4630a08224dc,
            0xe156089f8286323b,
            0x53ef11c4c004266d,
            0xeaf7dc07a0bff3e4,
        ],
    ),
    (
        "tcgnn-special",
        [
            0xd182fbd1f9fa6b00,
            0x2b9e21af78d20623,
            0x2360dc7b9d2a7ba4,
            0xeb7a73419b2e6bd4,
        ],
    ),
];

/// FNV-1a over the output's bits in row-major order, every NaN hashed
/// as the canonical quiet NaN.
fn fnv(c: &DenseMatrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in c.as_slice() {
        let bits = if x.is_nan() { 0x7FC0_0000 } else { x.to_bits() };
        for byte in bits.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Columns whose every stored value rounds to ±0 under TF32; the
/// matching rows of B are all ±Inf, so one multiplied slot would put
/// NaN or Inf in the output.
const ZERO_COLS: [u32; 2] = [7, 19];

/// A 53 × 53 operand (a ragged last RowWindow) with specials stored.
fn special_matrix() -> CsrMatrix {
    let n = 53u32;
    let mut coo = CooMatrix::new(n as usize, n as usize);
    let value = |k: u32| (k as f32 * 0.618_034).sin() * 1.75 + (k % 7) as f32 * 3.1e-4;
    let mut k = 0;
    for r in 0..n {
        for j in 0..(1 + r % 6) {
            let c = (r * 11 + j * 17 + (r / 8) * 3) % n;
            if !ZERO_COLS.contains(&c) && c < 30 {
                coo.push(r, c, value(k));
                k += 1;
            }
        }
        // A second band keeps every row non-empty and windows multi-block.
        coo.push(r, 30 + (r * 5) % 23, value(k));
        k += 1;
    }
    coo.push(4, 1, f32::NAN);
    coo.push(12, 2, f32::INFINITY);
    coo.push(13, 3, f32::NEG_INFINITY);
    coo.push(20, 4, 1.0e-41); // subnormal that survives TF32 rounding
    coo.push(21, 7, -0.0);
    coo.push(22, 19, 0.0);
    coo.push(30, 7, f32::from_bits(0x0000_0800)); // rounds to +0
    coo.push(31, 19, f32::from_bits(0x8000_0FFF)); // rounds to -0
    coo.push(44, 7, f32::from_bits(1)); // smallest subnormal, rounds to +0
    CsrMatrix::from_coo(&coo)
}

/// B for the special operand: ±Inf rows opposite `ZERO_COLS`, one NaN,
/// a row of subnormals, ordinary values elsewhere.
fn special_b(rows: usize, width: usize) -> DenseMatrix {
    DenseMatrix::from_fn(rows, width, |r, c| match r {
        7 => f32::INFINITY,
        19 => [f32::INFINITY, f32::NEG_INFINITY][c % 2],
        40 if c == 0 => f32::NAN,
        41 => 1.0e-42,
        _ => ((r * 64 + c) as f32 * 0.173_205).cos() * 2.5 - 0.3,
    })
}

fn golden_b(rows: usize, width: usize) -> DenseMatrix {
    DenseMatrix::from_fn(rows, width, |r, c| {
        ((r * width + c) as f32 * 0.173_205).sin() * 2.5
    })
}

fn build(kind: KernelKind, m: &CsrMatrix, symmetric: bool) -> ExecutionPlan {
    let config = AccConfig {
        symmetric_reorder: symmetric,
        ..AccConfig::full()
    };
    ExecutionPlan::build(kind, m, Arch::A800, 16, config).unwrap()
}

/// The plan and B generator of each case.
fn case(name: &str) -> (ExecutionPlan, fn(usize, usize) -> DenseMatrix) {
    match name {
        "accspmm.plan" => (
            build(KernelKind::AccSpmm, &golden::golden_matrix(), false),
            golden_b,
        ),
        "dtcspmm.plan" => (
            build(KernelKind::DtcSpmm, &golden::golden_matrix(), false),
            golden_b,
        ),
        "acc-special" => (
            build(KernelKind::AccSpmm, &special_matrix(), false),
            special_b,
        ),
        "acc-symmetric-special" => (
            build(KernelKind::AccSpmm, &special_matrix(), true),
            special_b,
        ),
        "dtc-special" => (
            build(KernelKind::DtcSpmm, &special_matrix(), false),
            special_b,
        ),
        "tcgnn-special" => (
            build(KernelKind::TcGnn, &special_matrix(), false),
            special_b,
        ),
        other => panic!("unknown case {other}"),
    }
}

/// Hashes of one case at every width, after checking that the four
/// execution entry points agree on every one.
fn case_hashes(name: &str) -> [u64; 4] {
    let (plan, make_b) = case(name);
    let k = PreparedKernel::from_plan(plan);
    let (rows, cols) = (k.csr().nrows(), k.csr().ncols());
    let bs: Vec<DenseMatrix> = WIDTHS.iter().map(|&w| make_b(cols, w)).collect();
    let dirty = |w: usize| DenseMatrix::from_fn(rows, w, |_, _| f32::from_bits(0x7FC0_1234));

    let want: Vec<u64> = bs.iter().map(|b| fnv(&k.execute(b).unwrap())).collect();
    // One workspace across every width, so each call starts dirty.
    let mut ws = Workspace::new();
    for (b, &h) in bs.iter().zip(&want) {
        let mut out = dirty(b.ncols());
        k.execute_into(b, &mut out, &mut ws).unwrap();
        assert_eq!(fnv(&out), h, "{name}: execute_into, width {}", b.ncols());
    }
    let batched = k.execute_batch(&bs).unwrap();
    for (c, &h) in batched.iter().zip(&want) {
        assert_eq!(fnv(c), h, "{name}: execute_batch, width {}", c.ncols());
    }
    let mut outs: Vec<DenseMatrix> = WIDTHS.iter().map(|&w| dirty(w)).collect();
    k.execute_batch_into(&bs, &mut outs, slice::from_mut(&mut ws))
        .unwrap();
    for (c, &h) in outs.iter().zip(&want) {
        assert_eq!(fnv(c), h, "{name}: execute_batch_into, width {}", c.ncols());
    }
    // A batch of one RHS per width: the shape a sharded job or a lone
    // engine request hands the batch entry.
    for (b, &h) in bs.iter().zip(&want) {
        let mut out = dirty(b.ncols());
        k.execute_batch_into(
            slice::from_ref(b),
            slice::from_mut(&mut out),
            slice::from_mut(&mut ws),
        )
        .unwrap();
        assert_eq!(
            fnv(&out),
            h,
            "{name}: one-RHS execute_batch_into, width {}",
            b.ncols()
        );
    }
    want.try_into().unwrap()
}

#[test]
fn tensor_core_outputs_match_their_golden_hashes() {
    let mut failures = Vec::new();
    for (name, expect) in GOLDEN {
        let got = case_hashes(name);
        if got != expect {
            let hex: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
            failures.push(format!("(\"{name}\", [{}]),", hex.join(", ")));
        }
    }
    assert!(
        failures.is_empty(),
        "golden output hashes moved; now:\n{}",
        failures.join("\n")
    );
}

#[test]
fn the_special_operand_exercises_what_it_claims() {
    let m = special_matrix();
    for &c in &ZERO_COLS {
        let stored: Vec<f32> = (0..m.nrows())
            .filter_map(|r| {
                let (cols, vals) = m.row(r);
                cols.iter().position(|&x| x == c).map(|i| vals[i])
            })
            .collect();
        assert!(!stored.is_empty(), "column {c} holds values");
        assert!(
            stored
                .iter()
                .all(|&v| spmm_common::scalar::to_tf32(v) == 0.0),
            "column {c}: {stored:?}"
        );
    }
    // The zero slots are dropped, not multiplied: no Inf reaches C from
    // the Inf rows, while the stored NaN does reach row 4.
    let k = PreparedKernel::from_plan(build(KernelKind::AccSpmm, &m, false));
    let c = k.execute(&special_b(m.ncols(), 8)).unwrap();
    assert!(
        c.row(4).iter().all(|v| v.is_nan()),
        "row 4 multiplies a NaN"
    );
    for r in [21, 22, 30, 31, 44] {
        assert!(
            c.row(r).iter().skip(1).all(|v| v.is_finite()),
            "row {r} touched an Inf row of B: {:?}",
            c.row(r)
        );
    }
    // TC-GNN has no zero skip: the same slots multiply the Inf rows.
    let k = PreparedKernel::from_plan(build(KernelKind::TcGnn, &m, false));
    let c = k.execute(&special_b(m.ncols(), 8)).unwrap();
    for r in [21, 22, 30, 31, 44] {
        assert!(
            c.row(r).iter().all(|v| v.is_nan()),
            "row {r} skipped a zero slot: {:?}",
            c.row(r)
        );
    }
}
