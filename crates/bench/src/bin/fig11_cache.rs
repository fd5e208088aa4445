//! Figure 11 — L1 and L2 cache hit rates on A800, original order vs
//! data-affinity reordering, N = 128.

use acc_spmm::matrix::TABLE2;
use spmm_bench::{build_dataset, figures, print_table, save_json};

fn main() {
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for d in &TABLE2 {
        let m = build_dataset(d);
        let r = figures::fig11(d, &m);
        rows.push(vec![
            d.abbr.to_string(),
            format!("{:.2}%", r.l1_original * 100.0),
            format!("{:.2}%", r.l1_reordered * 100.0),
            format!("{:+.2}%", (r.l1_reordered - r.l1_original) * 100.0),
            format!("{:.2}%", r.l2_original * 100.0),
            format!("{:.2}%", r.l2_reordered * 100.0),
            format!("{:+.2}%", (r.l2_reordered - r.l2_original) * 100.0),
        ]);
        records.push(r);
    }
    print_table(
        "Figure 11: A800 cache hit rates, original vs data-affinity reordering (N=128)",
        &[
            "dataset", "L1 orig", "L1 reord", "L1 Δ", "L2 orig", "L2 reord", "L2 Δ",
        ],
        &rows,
    );
    save_json("fig11_cache", &records);
}
