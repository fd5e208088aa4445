//! Quickstart: preprocess a sparse matrix once, multiply, verify, and
//! profile on a simulated GPU.
//!
//! Run with: `cargo run --release --example quickstart`

use acc_spmm::matrix::gen;
use acc_spmm::prelude::*;

fn main() {
    // A 16k-vertex power-law graph, the bread-and-butter GNN input.
    let a = gen::rmat(
        gen::RmatConfig {
            scale: 14,
            avg_deg: 16.0,
            ..Default::default()
        },
        42,
    );
    let n = 128; // feature dimension
    let b = DenseMatrix::random(a.ncols(), n, 7);

    println!(
        "A: {} x {} with {} non-zeros (AvgL {:.2})",
        a.nrows(),
        a.ncols(),
        a.nnz(),
        a.avg_row_len()
    );

    // Build the execution plan: Reorder -> FormatBuild (BitTCF) ->
    // BalancePlan -> Compile, artifacts cached for every call below.
    let handle = AccSpmm::builder(&a)
        .arch(Arch::A800)
        .feature_dim(n)
        .build()
        .expect("preprocess");
    let s = handle.stats();
    println!(
        "preprocessed in {:.1} ms: {} TC blocks, MeanNNZTC {:.2}, IBD {:.2}, balanced: {}",
        s.preprocess_seconds * 1e3,
        s.num_tc_blocks,
        s.mean_nnz_tc,
        s.ibd,
        s.balanced
    );

    // Multiply (TF32 tensor-core numerics) and verify against the FP32
    // dense reference.
    let c = handle.multiply(&b).expect("multiply");
    let reference = a.spmm_dense(&b).expect("reference");

    // Steady-state multiplies can reuse a workspace (zero allocations)...
    let mut ws = handle.workspace();
    let mut out = DenseMatrix::zeros(a.nrows(), n);
    handle
        .multiply_into(&b, &mut out, &mut ws)
        .expect("multiply_into");
    assert_eq!(out, c, "workspace path is bit-identical");

    // ...and many right-hand sides go through one batched call that
    // streams each row of A once per batch instead of once per RHS.
    let batch: Vec<DenseMatrix> = (0..4)
        .map(|s| DenseMatrix::random(a.ncols(), n, 100 + s))
        .collect();
    let outs = handle.multiply_batch(&batch).expect("multiply_batch");
    for (bi, ci) in batch.iter().zip(&outs) {
        assert_eq!(*ci, handle.multiply(bi).expect("multiply"));
    }
    println!(
        "batched multiply over {} RHS: bit-identical to looping",
        outs.len()
    );
    let rel_err = c.max_abs_diff(&reference) / reference.frobenius_norm().max(1e-30)
        * (reference.nrows() as f32 * reference.ncols() as f32).sqrt();
    println!(
        "max elementwise deviation vs FP32 reference: {:.3e} (TF32 rounding)",
        rel_err
    );

    // Profile on the simulated A800.
    let r = handle.profile_default();
    println!(
        "simulated A800: {:.3} ms, {:.1} effective GFLOPS, {:.1} GB/s DRAM, L1 hit {:.1}%, L2 hit {:.1}%",
        r.time_s * 1e3,
        r.gflops,
        r.mem_throughput_gbps,
        r.l1_hit_rate * 100.0,
        r.l2_hit_rate * 100.0
    );
}
