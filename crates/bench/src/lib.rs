//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §3 for the index) by printing the same rows or
//! series the paper plots, and writes a machine-readable copy under
//! `results/` for EXPERIMENTS.md.

use acc_spmm::matrix::{CsrMatrix, Dataset, TABLE2};
use acc_spmm::sim::SimOptions;
use spmm_common::json::ToJson;
use std::io::Write;
use std::path::PathBuf;

pub mod figures;

/// Feature dimensions of the overall evaluation (§4.1).
pub const FEATURE_DIMS: [usize; 3] = [128, 256, 512];

/// The detailed-evaluation feature dimension (§4.3).
pub const DETAIL_DIM: usize = 128;

/// Build one Table-2 dataset analog (prints progress to stderr since the
/// big type-2 analogs take a few seconds on one core).
pub fn build_dataset(d: &Dataset) -> CsrMatrix {
    eprintln!("  building {} ({} rows)...", d.abbr, d.scaled_rows);
    d.build()
}

/// Build all ten Table-2 analogs.
pub fn build_all_datasets() -> Vec<(&'static Dataset, CsrMatrix)> {
    TABLE2.iter().map(|d| (d, build_dataset(d))).collect()
}

/// Simulator options matched to a dataset's scale factor (cache
/// capacities shrink with the matrix so working-set ratios match the
/// paper's; see DESIGN.md §1).
pub fn sim_options_for(d: &Dataset) -> SimOptions {
    SimOptions::scaled(d.scale_factor())
}

/// Render an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i.min(widths.len() - 1)]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Write a JSON record under `results/` (best effort — the printed table
/// is the primary artifact).
pub fn save_json<T: ToJson>(name: &str, value: &T) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let json = value.to_json().to_string_pretty();
    if let Ok(mut f) = std::fs::File::create(dir.join(format!("{name}.json"))) {
        let _ = f.write_all(json.as_bytes());
    }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_dims_match_paper() {
        assert_eq!(FEATURE_DIMS, [128, 256, 512]);
        assert_eq!(DETAIL_DIM, 128);
    }

    #[test]
    fn sim_options_scale_with_dataset() {
        let d = &TABLE2[0];
        let o = sim_options_for(d);
        assert!(o.cache_scale > 1.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f1(1.26), "1.3");
    }
}
