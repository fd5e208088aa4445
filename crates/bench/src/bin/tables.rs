//! Tables 1, 2 and 3 — cache operators, evaluation datasets, GPU
//! architectures.
//!
//! Usage: `cargo run -p spmm-bench --bin tables -- [table1|table2|table3]`
//! (default: all three).

use acc_spmm::matrix::TABLE2;
use acc_spmm::sim::{Arch, CacheOp};
use spmm_bench::{build_dataset, f2, figures, print_table};

fn table1() {
    let ops = [
        CacheOp::Ca,
        CacheOp::Cg,
        CacheOp::Cs,
        CacheOp::Lu,
        CacheOp::Cv,
        CacheOp::Wb,
        CacheOp::Wt,
    ];
    let rows: Vec<Vec<String>> = ops
        .iter()
        .map(|op| vec![op.mnemonic().to_string(), op.meaning().to_string()])
        .collect();
    print_table(
        "Table 1: cache operators for memory instructions",
        &["operator", "meaning"],
        &rows,
    );
}

fn table2() {
    let rows: Vec<Vec<String>> = TABLE2
        .iter()
        .map(|d| {
            let r = figures::table2(d, &build_dataset(d));
            vec![
                d.matrix_type.to_string(),
                d.name.to_string(),
                d.abbr.to_string(),
                format!("{}", d.paper_rows),
                format!("{}", d.paper_nnz),
                f2(d.paper_avgl),
                format!("{}", r.nrows),
                format!("{}", r.nnz),
                f2(r.avg_l),
                format!("{:.0}x", d.scale_factor()),
            ]
        })
        .collect();
    print_table(
        "Table 2: datasets (paper stats | scaled synthetic analog)",
        &[
            "type", "dataset", "abbr", "rows", "nnz", "AvgL", "rows*", "nnz*", "AvgL*", "scale",
        ],
        &rows,
    );
    println!("* = scaled synthetic analog used by this reproduction");
}

fn table3() {
    let rows: Vec<Vec<String>> = Arch::ALL
        .iter()
        .map(|a| {
            let s = a.spec();
            vec![
                s.name.to_string(),
                format!("{}", s.num_sms),
                format!("{}", s.tc_tf32_tflops),
                format!("{} GB/s", s.dram_bw_gbps),
                format!("{} MiB", s.l2_bytes / 1024 / 1024),
                format!("{} KiB", s.l1_bytes_per_sm / 1024),
            ]
        })
        .collect();
    print_table(
        "Table 3: GPU architectures",
        &["GPU", "SMs", "TF32 TFLOPS", "MEM BW", "L2", "L1/SM"],
        &rows,
    );
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    match arg.as_str() {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(),
        _ => {
            table1();
            table2();
            table3();
        }
    }
}
