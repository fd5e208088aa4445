//! Figure 15 — cumulative ablation on H100 with N = 128:
//! Base (DTC-SpMM w/o LB) → +BTCF → +RO → +CP → +PP → +LB.

use acc_spmm::matrix::TABLE2;
use acc_spmm::AccConfig;
use spmm_bench::{build_dataset, f2, figures, print_table, save_json};

fn main() {
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut stage_means = vec![Vec::new(); AccConfig::STAGE_NAMES.len()];
    for d in &TABLE2 {
        let m = build_dataset(d);
        let stages = figures::fig15(d, &m);
        let mut row = vec![d.abbr.to_string()];
        for (r, means) in stages.iter().zip(stage_means.iter_mut()) {
            row.push(f2(r.speedup_over_base));
            means.push(r.speedup_over_base);
        }
        rows.push(row);
        records.extend(stages);
    }
    let headers: Vec<&str> = std::iter::once("dataset")
        .chain(AccConfig::STAGE_NAMES.iter().copied())
        .collect();
    print_table(
        "Figure 15: ablation on H100 (N=128), speedup over Base (DTC-SpMM w/o LB)",
        &headers,
        &rows,
    );
    print!("\nmean over datasets:");
    for (i, name) in AccConfig::STAGE_NAMES.iter().enumerate() {
        print!("  {name} {:.2}x", spmm_common::stats::mean(&stage_means[i]));
    }
    println!();
    save_json("fig15_ablation", &records);
}
