//! Pins the paper-figure computations: the per-dataset functions of
//! [`spmm_bench::figures`], run on reduced copies of three Table-2
//! analogs (two type-1, one type-2), must reproduce
//! `tests/golden/figures_<abbr>.json` exactly.
//!
//! The modeled numbers are deterministic, so any diff here is a change
//! to a reproduced figure: the change that makes it regenerates the
//! full `results/` files and says why the numbers moved. On a mismatch
//! the test writes what it computed next to the test binaries and
//! names the file, so the golden can be compared and, for a deliberate
//! change, replaced.

use acc_spmm::matrix::Dataset;
use acc_spmm::sim::Arch;
use spmm_bench::figures;
use spmm_bench::DETAIL_DIM;
use spmm_common::json::{Json, ToJson};
use std::collections::BTreeMap;

fn reduced(abbr: &str, rows: usize) -> Dataset {
    let d = Dataset::by_abbr(abbr).expect("Table-2 analog");
    Dataset {
        scaled_rows: rows,
        ..*d
    }
}

fn figures_of(d: &Dataset) -> Json {
    let m = d.build();
    let mut out = BTreeMap::new();
    let mut put = |name: &str, v: Json| {
        out.insert(name.to_string(), v);
    };
    put("table2", figures::table2(d, &m).to_json());
    put("fig10", figures::fig10(d, &m).to_json());
    put("fig11", figures::fig11(d, &m).to_json());
    put("fig12", figures::fig12(d, &m).to_json());
    put("fig13", figures::fig13(d, &m).to_json());
    if figures::fig14_covers(d) {
        let fig14: Vec<_> = [Arch::A800, Arch::H100]
            .into_iter()
            .map(|arch| figures::fig14(arch, d, &m))
            .collect();
        put("fig14", fig14.to_json());
    }
    put("fig15", figures::fig15(d, &m).to_json());
    let overall: Vec<_> = Arch::ALL
        .into_iter()
        .flat_map(|arch| figures::overall(arch, &[DETAIL_DIM], d, &m))
        .collect();
    put("overall", overall.to_json());
    Json::Obj(out)
}

/// Compute `abbr`'s figures on its analog reduced to `rows` rows and
/// compare them with the golden file.
fn check(abbr: &str, rows: usize, want: &str) {
    let got = figures_of(&reduced(abbr, rows)).to_string_pretty() + "\n";
    if got != want {
        let name = format!("figures_{abbr}.actual.json");
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&path, &got).expect("write the computed figures");
        panic!(
            "{abbr}: figure computations differ from tests/golden/figures_{abbr}.json; \
             computed values are in {}",
            path.display()
        );
    }
}

// Row counts are reduced so the set runs in seconds in a debug build.

#[test]
fn yh_figures_match_the_golden_file() {
    check("YH", 1536, include_str!("golden/figures_YH.json"));
}

#[test]
fn wb_figures_match_the_golden_file() {
    check("WB", 1024, include_str!("golden/figures_WB.json"));
}

#[test]
fn fy_rsr_figures_match_the_golden_file() {
    check("FY-RSR", 448, include_str!("golden/figures_FY-RSR.json"));
}
