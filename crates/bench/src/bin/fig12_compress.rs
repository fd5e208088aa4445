//! Figure 12 — compression ratios of CSR, ME-TCF and BitTCF normalized
//! to TCF, plus the §4.3.2 conversion-cost comparison
//! (`-- --conversion` appends the timing table).

use acc_spmm::format::compression::conversion_cost;
use acc_spmm::matrix::TABLE2;
use acc_spmm::reorder::{reorder_apply, Algorithm};
use spmm_bench::{build_dataset, f2, figures, print_table, save_json};

fn main() {
    let with_conversion = std::env::args().any(|a| a == "--conversion");
    let mut rows = Vec::new();
    let mut conv_rows = Vec::new();
    let mut records = Vec::new();
    let mut csr_gain = Vec::new();
    let mut metcf_gain = Vec::new();
    let mut conv_savings = Vec::new();
    for d in &TABLE2 {
        let m = build_dataset(d);
        let r = figures::fig12(d, &m);
        rows.push(vec![
            d.abbr.to_string(),
            f2(r.csr_ratio),
            f2(r.metcf_ratio),
            f2(r.bittcf_ratio),
        ]);
        csr_gain.push(r.bittcf_ratio / r.csr_ratio - 1.0);
        metcf_gain.push(r.bittcf_ratio / r.metcf_ratio - 1.0);
        records.push(r);
        if with_conversion {
            let (pm, _) = reorder_apply(&m, Algorithm::Affinity);
            let c = conversion_cost(&pm, 3);
            let me = c.partition + c.metcf;
            let bit = c.partition + c.bittcf;
            conv_savings.push(1.0 - bit.as_secs_f64() / me.as_secs_f64().max(1e-12));
            conv_rows.push(vec![
                d.abbr.to_string(),
                format!("{:.1}ms", me.as_secs_f64() * 1e3),
                format!("{:.1}ms", bit.as_secs_f64() * 1e3),
                format!(
                    "{:.0}%",
                    (1.0 - bit.as_secs_f64() / me.as_secs_f64().max(1e-12)) * 100.0
                ),
            ]);
        }
    }
    print_table(
        "Figure 12: compression ratio vs TCF (higher = smaller index structure)",
        &["dataset", "CSR", "ME-TCF", "BitTCF"],
        &rows,
    );
    println!(
        "\nBitTCF vs CSR: avg {:.2}% higher compression | vs ME-TCF: avg {:.2}% (paper: 16.12% / 4.21%)",
        spmm_common::stats::mean(&csr_gain) * 100.0,
        spmm_common::stats::mean(&metcf_gain) * 100.0
    );
    if with_conversion {
        print_table(
            "§4.3.2: CSR->format conversion cost",
            &["dataset", "ME-TCF", "BitTCF", "saving"],
            &conv_rows,
        );
        println!(
            "BitTCF conversion saving vs ME-TCF: avg {:.0}% (paper: ~15%)",
            spmm_common::stats::mean(&conv_savings) * 100.0
        );
    }
    save_json("fig12_compress", &records);
}
