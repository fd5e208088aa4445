//! Figure 10 — MeanNNZTC of the seven reordering algorithms on the ten
//! evaluation datasets.

use acc_spmm::matrix::TABLE2;
use spmm_bench::figures::{self, FIG10_ALGORITHMS};
use spmm_bench::{build_dataset, f2, print_table, save_json};

fn main() {
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut gains_vs_dtc = Vec::new();
    let mut gains_vs_rabbit = Vec::new();
    for d in &TABLE2 {
        let m = build_dataset(d);
        let by_alg = figures::fig10(d, &m);
        let acc = by_alg[7].mean_nnz_tc;
        gains_vs_dtc.push(acc / by_alg[3].mean_nnz_tc);
        gains_vs_rabbit.push(acc / by_alg[6].mean_nnz_tc);
        rows.push(
            std::iter::once(d.abbr.to_string())
                .chain(by_alg.iter().map(|r| f2(r.mean_nnz_tc)))
                .collect(),
        );
        records.extend(by_alg);
    }
    let headers: Vec<&str> = std::iter::once("dataset")
        .chain(FIG10_ALGORITHMS.iter().map(|a| a.name()))
        .collect();
    print_table(
        "Figure 10: MeanNNZTC by reordering algorithm",
        &headers,
        &rows,
    );
    println!(
        "\nAcc-Reorder vs DTC-LSH: avg gain {:.2}x | vs Rabbit Order: avg gain {:.2}x (paper: 1.28x / 1.10x)",
        spmm_common::stats::mean(&gains_vs_dtc),
        spmm_common::stats::mean(&gains_vs_rabbit)
    );
    save_json("fig10_reorder", &records);
}
