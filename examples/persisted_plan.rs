//! Persisted plans: build an `ExecutionPlan` once, save its versioned
//! IR to disk, reload it in a "new process" through a fully-bound
//! `PlanLoader`, and serve it through the engine. A plan file holds the
//! binding (and a symmetric plan's permutation), not the operand: the
//! reloading process passes the operand it holds, the loader checks it
//! against the file's fingerprint, and the reload derives the same
//! execution rows as a fresh build.
//!
//! Run with: `cargo run --release --example persisted_plan`

use acc_spmm::kernels::ir;
use acc_spmm::matrix::gen;
use acc_spmm::prelude::*;
use acc_spmm::{PlanLoader, PreparedKernel as Prepared};
use std::time::Instant;

fn main() -> Result<()> {
    let dir = std::env::temp_dir().join(format!("acc-spmm-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create example dir");
    let path = dir.join("web-google.plan");

    let a = gen::rmat(
        gen::RmatConfig {
            scale: 13,
            avg_deg: 16.0,
            ..Default::default()
        },
        42,
    );
    let (arch, dim) = (Arch::A800, 64);

    // --- Process 1: compile and persist -----------------------------
    let t0 = Instant::now();
    let kernel = Prepared::builder(KernelKind::AccSpmm, &a)
        .arch(arch)
        .feature_dim(dim)
        .config(AccConfig::full())
        .build()?;
    let build_s = t0.elapsed().as_secs_f64();
    kernel.execution_plan().save(&path)?;
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "compiled {:?}/{} in {build_s:.3}s -> {} ({bytes} bytes)",
        KernelKind::AccSpmm,
        ir::arch_slug(arch),
        path.display()
    );

    // --- Process 2: reload, validate, serve -------------------------
    // A restarted server knows what it expects; every binding is pinned
    // and the operand is checked against the file, so a stale or foreign
    // artifact is a typed error, not a wrong answer.
    let t1 = Instant::now();
    let plan = PlanLoader::new()
        .expect_kind(KernelKind::AccSpmm)
        .expect_arch(arch)
        .expect_feature_dim(dim)
        .expect_config(AccConfig::full())
        .load(&path, &a)?;
    let load_s = t1.elapsed().as_secs_f64();
    println!(
        "reloaded in {load_s:.3}s: {:?} on {:?}, N = {}, fingerprint {:016x}",
        plan.kind(),
        plan.arch(),
        plan.feature_dim(),
        plan.input_fingerprint()
    );

    let engine = Engine::builder().workers(1).build()?;
    let session = engine.install(Prepared::from_plan(plan));
    let b = DenseMatrix::random(a.ncols(), dim, 7);
    let served = session.multiply(&b)?;
    let direct = kernel.execute(&b)?;
    assert!(
        served
            .as_slice()
            .iter()
            .zip(direct.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "rehydrated plan must be bit-identical to the fresh build"
    );
    println!(
        "served {} rows through the engine, bit-identical",
        served.nrows()
    );

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
