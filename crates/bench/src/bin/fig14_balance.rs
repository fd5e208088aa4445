//! Figure 14 — compute and memory throughput with and without the
//! adaptive load balancing, on A800 (a) and H100 (b), for the imbalanced
//! (type-2) matrices.

use acc_spmm::matrix::TABLE2;
use acc_spmm::sim::Arch;
use spmm_bench::{build_dataset, f1, figures, print_table, save_json};

fn main() {
    let mut records = Vec::new();
    for arch in [Arch::A800, Arch::H100] {
        let mut rows = Vec::new();
        for d in TABLE2.iter().filter(|d| figures::fig14_covers(d)) {
            let m = build_dataset(d);
            let r = figures::fig14(arch, d, &m);
            rows.push(vec![
                d.abbr.to_string(),
                format!("{:.1}{}", r.ibd, if r.rebalanced { "*" } else { "" }),
                f1(r.record.compute_no_lb),
                f1(r.record.compute_lb),
                f1(r.record.memory_no_lb),
                f1(r.record.memory_lb),
                format!("{:.2}x", r.speedup),
            ]);
            records.push(r.record);
        }
        print_table(
            &format!(
                "Figure 14: throughput without/with load balancing on {} (N=128)",
                arch.spec().name
            ),
            &[
                "dataset",
                "IBD",
                "compute GF (no LB)",
                "compute GF (LB)",
                "mem GB/s (no LB)",
                "mem GB/s (LB)",
                "speedup",
            ],
            &rows,
        );
        println!("(* = IBD > 8: the adaptive balancer rebalanced; unmarked matrices were already balanced and left alone, as §3.5 prescribes)");
    }
    save_json("fig14_balance", &records);
}
