//! Figures 7, 8, 9 — overall evaluation: normalized speedup over
//! cuSPARSE and detailed GFLOPS for all six kernels on the ten Table-2
//! datasets.
//!
//! Usage: `cargo run --release -p spmm-bench --bin overall -- <arch> [dims...]`
//! where `<arch>` is `rtx4090` (Fig 7), `a800` (Fig 8) or `h100` (Fig 9).
//! Dims default to the paper's 128 256 512 average.

use acc_spmm::matrix::TABLE2;
use acc_spmm::sim::Arch;
use acc_spmm::KernelKind;
use spmm_bench::{build_dataset, f2, figures, print_table, save_json, FEATURE_DIMS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arch = args
        .first()
        .and_then(|s| Arch::parse(s))
        .unwrap_or(Arch::A800);
    let dims: Vec<usize> = if args.len() > 1 {
        args[1..].iter().filter_map(|s| s.parse().ok()).collect()
    } else {
        FEATURE_DIMS.to_vec()
    };
    let fig = match arch {
        Arch::Rtx4090 => "Figure 7 (RTX 4090)",
        Arch::A800 => "Figure 8 (A800)",
        Arch::H100 => "Figure 9 (H100)",
    };
    eprintln!("regenerating {fig}, dims {dims:?}");

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut per_kernel_speedups: Vec<Vec<f64>> = vec![Vec::new(); KernelKind::ALL.len()];
    let mut acc_type2_max: f64 = 0.0;

    for d in &TABLE2 {
        let m = build_dataset(d);
        let kernels = figures::overall(arch, &dims, d, &m);
        let mut row = vec![d.abbr.to_string()];
        for (i, r) in kernels.iter().enumerate() {
            row.push(f2(r.speedup));
            per_kernel_speedups[i].push(r.speedup);
            if KernelKind::ALL[i] == KernelKind::AccSpmm && d.matrix_type == 2 {
                acc_type2_max = acc_type2_max.max(r.speedup);
            }
        }
        row.push(f2(kernels[KernelKind::ALL.len() - 1].gflops)); // Acc GFLOPS
        rows.push(row);
        records.extend(kernels);
    }

    let headers: Vec<&str> = std::iter::once("dataset")
        .chain(KernelKind::ALL.iter().map(|k| k.name()))
        .chain(std::iter::once("Acc GFLOPS"))
        .collect();
    print_table(
        &format!("{fig}: speedup over cuSPARSE (avg over N = {dims:?})"),
        &headers,
        &rows,
    );

    // Summary line matching the abstract's claims.
    let geo = |v: &[f64]| spmm_common::stats::geomean(v);
    let avg = |v: &[f64]| spmm_common::stats::mean(v);
    let acc = &per_kernel_speedups[KernelKind::ALL.len() - 1];
    println!(
        "\nAcc-SpMM vs cuSPARSE on {}: mean {:.2}x, geomean {:.2}x, max {:.2}x (type-2 max {:.2}x)",
        arch.spec().name,
        avg(acc),
        geo(acc),
        acc.iter().copied().fold(0.0f64, f64::max),
        acc_type2_max,
    );
    for (i, kind) in KernelKind::ALL.iter().enumerate() {
        println!(
            "  {:<10} mean speedup {:.2}x",
            kind.name(),
            avg(&per_kernel_speedups[i])
        );
    }
    save_json(&format!("overall_{arch:?}"), &records);
}
