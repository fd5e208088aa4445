//! Figure 13 — DTC-pipeline vs Acc-pipeline GFLOPS and speedup on A800,
//! isolating the least-bubble double-buffer pipeline (everything else in
//! the Acc configuration held fixed).

use acc_spmm::matrix::TABLE2;
use spmm_bench::{build_dataset, f1, f2, figures, print_table, save_json};

fn main() {
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut type1 = Vec::new();
    let mut type2 = Vec::new();
    for d in &TABLE2 {
        let m = build_dataset(d);
        let r = figures::fig13(d, &m);
        if d.matrix_type == 1 {
            type1.push(r.speedup);
        } else {
            type2.push(r.speedup);
        }
        rows.push(vec![
            d.abbr.to_string(),
            f1(r.dtc_pipeline_gflops),
            f1(r.acc_pipeline_gflops),
            f2(r.speedup),
            format!("{:.0}%", r.bubble_reduction * 100.0),
        ]);
        records.push(r);
    }
    print_table(
        "Figure 13: DTC-pipeline vs Acc-pipeline on A800 (N=128)",
        &["dataset", "DTC GFLOPS", "Acc GFLOPS", "speedup", "bubble Δ"],
        &rows,
    );
    println!(
        "\navg pipeline speedup: type-1 {:.2}x, type-2 {:.2}x (paper: 1.06x / 1.16x)",
        spmm_common::stats::mean(&type1),
        spmm_common::stats::mean(&type2)
    );
    save_json("fig13_pipeline", &records);
}
