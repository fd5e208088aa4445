//! Extension — batched-RHS throughput of the shared execution plan.
//!
//! The preprocess-once-multiply-many pattern often arrives as a *batch*:
//! many feature matrices against one adjacency (mini-batched GNN
//! training, multi-source PageRank sweeps). `multiply_batch` runs the
//! batch through one parallel region with per-worker workspaces instead
//! of spawning a worker round (and reallocating staging buffers) per
//! RHS. This binary measures both paths on the same handle, checks the
//! results are bit-identical, and prints the speedup. It writes no file:
//! a measured speedup is a property of the host that ran it.

use acc_spmm::{AccSpmm, Arch, DenseMatrix};
use spmm_bench::{f2, print_table};
use spmm_matrix::gen;
use std::time::Instant;

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best * 1e3, out.unwrap())
}

fn main() {
    let matrices = [
        ("molecules-16k", gen::molecule_union(16_384, 6, 16, true, 3)),
        (
            "clustered-8k",
            gen::clustered(
                gen::ClusteredConfig {
                    n: 8192,
                    cluster_size: 128,
                    intra_deg: 20.0,
                    inter_deg: 4.0,
                    hub_fraction: 0.01,
                    hub_factor: 8.0,
                    shuffle: true,
                    ..Default::default()
                },
                7,
            ),
        ),
    ];
    let batch = 12usize; // ≥ 8 per the acceptance bar
    let dim = 64usize;
    let reps = 5usize;

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for (name, a) in &matrices {
        let handle = AccSpmm::builder(a)
            .arch(Arch::A800)
            .feature_dim(dim)
            .build()
            .expect("preprocess");
        let bs: Vec<DenseMatrix> = (0..batch)
            .map(|i| DenseMatrix::random(a.nrows(), dim, 40 + i as u64))
            .collect();

        let (looped_ms, looped) = best_of(reps, || {
            bs.iter()
                .map(|b| handle.multiply(b).expect("multiply"))
                .collect::<Vec<_>>()
        });
        let (batched_ms, batched) =
            best_of(reps, || handle.multiply_batch(&bs).expect("multiply_batch"));

        assert!(looped == batched, "{name}: batched result diverged");
        let speedup = looped_ms / batched_ms;
        rows.push(vec![
            name.to_string(),
            batch.to_string(),
            dim.to_string(),
            f2(looped_ms),
            f2(batched_ms),
            f2(speedup),
        ]);
        speedups.push(speedup);
    }

    print_table(
        "Batched-RHS throughput (best of 5)",
        &["matrix", "batch", "n", "looped ms", "batched ms", "speedup"],
        &rows,
    );
    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    println!("\nmin speedup over looped multiply: {:.2}x", min);
}
