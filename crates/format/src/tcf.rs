//! TCF — TC-GNN's original tensor-core format (the Figure-12 baseline).
//!
//! TC-GNN keeps three *per-edge* arrays alongside the window pointers:
//! `edgeList` (original column), `edgeToColumn` (squeezed column within
//! the window) and `edgeToRow` (row of the edge), i.e. 12 bytes per nnz
//! plus the window pointer — the redundancy both ME-TCF and BitTCF
//! eliminate.

use crate::window::{WindowPartition, TILE};
use spmm_common::simd::{to_tf32_slice_tier, IsaTier};
use spmm_matrix::{CooMatrix, CsrMatrix};

/// The TCF compressed sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Tcf {
    nrows: usize,
    ncols: usize,
    /// Starting nnz of each RowWindow (`⌈M/8⌉ + 1` entries, TC-GNN's
    /// `nodePointer` analog).
    pub window_nnz_offset: Vec<u32>,
    /// Original column index of each nnz (TC-GNN `edgeList`).
    pub edge_list: Vec<u32>,
    /// Squeezed column of each nnz within its window (`edgeToColumn`).
    pub edge_to_column: Vec<u32>,
    /// Row of each nnz (`edgeToRow`).
    pub edge_to_row: Vec<u32>,
    /// Values, window order.
    pub values: Vec<f32>,
    /// TC blocks per window (derived; `blockPartition` in TC-GNN).
    pub blocks_per_window: Vec<u32>,
    /// Whether `values` are already TF32-rounded
    /// ([`Tcf::preround_values_tier`]).
    values_tf32: bool,
}

impl Tcf {
    /// Convert from CSR.
    pub fn from_csr(m: &CsrMatrix) -> Self {
        let wp = WindowPartition::build(m);
        Self::from_partition(m, &wp)
    }

    /// Convert from CSR with a shared partition. Each window's edge
    /// arrays are computed in parallel and stitched in window order —
    /// byte-identical to the former sequential construction.
    pub fn from_partition(m: &CsrMatrix, wp: &WindowPartition) -> Self {
        use rayon::prelude::*;
        let num_windows = wp.num_windows();

        struct WindowEdges {
            edge_list: Vec<u32>,
            edge_to_column: Vec<u32>,
            edge_to_row: Vec<u32>,
            values: Vec<f32>,
            blocks: u32,
        }
        let per_window: Vec<WindowEdges> = (0..num_windows)
            .into_par_iter()
            .map(|w| {
                let wcols = wp.window_columns(w);
                let lo = w * TILE;
                let hi = ((w + 1) * TILE).min(m.nrows());
                let mut out = WindowEdges {
                    edge_list: Vec::new(),
                    edge_to_column: Vec::new(),
                    edge_to_row: Vec::new(),
                    values: Vec::new(),
                    blocks: wcols.len().div_ceil(TILE) as u32,
                };
                for r in lo..hi {
                    let (cols, vals) = m.row(r);
                    for (&c, &v) in cols.iter().zip(vals.iter()) {
                        let pos = wcols.binary_search(&c).expect("column in window") as u32;
                        out.edge_list.push(c);
                        out.edge_to_column.push(pos);
                        out.edge_to_row.push(r as u32);
                        out.values.push(v);
                    }
                }
                out
            })
            .collect();

        let mut window_nnz_offset = Vec::with_capacity(num_windows + 1);
        window_nnz_offset.push(0u32);
        let mut edge_list = Vec::with_capacity(m.nnz());
        let mut edge_to_column = Vec::with_capacity(m.nnz());
        let mut edge_to_row = Vec::with_capacity(m.nnz());
        let mut values = Vec::with_capacity(m.nnz());
        let mut blocks_per_window = Vec::with_capacity(num_windows);
        for we in &per_window {
            blocks_per_window.push(we.blocks);
            edge_list.extend_from_slice(&we.edge_list);
            edge_to_column.extend_from_slice(&we.edge_to_column);
            edge_to_row.extend_from_slice(&we.edge_to_row);
            values.extend_from_slice(&we.values);
            window_nnz_offset.push(values.len() as u32);
        }
        Tcf {
            nrows: m.nrows(),
            ncols: m.ncols(),
            window_nnz_offset,
            edge_list,
            edge_to_column,
            edge_to_row,
            values,
            blocks_per_window,
            values_tf32: false,
        }
    }

    /// Round the stored values to TF32 in place at an explicit ISA tier
    /// (idempotent, so every multiply stays bit-identical; lossy for
    /// [`Tcf::to_csr`] — see [`crate::TcMatrix::preround_values_tier`]).
    pub fn preround_values_tier(&mut self, tier: IsaTier) {
        if !self.values_tf32 {
            to_tf32_slice_tier(&mut self.values, tier);
            self.values_tf32 = true;
        }
    }

    /// Whether the stored values are already TF32-rounded.
    #[inline]
    pub fn is_prerounded(&self) -> bool {
        self.values_tf32
    }

    /// Rows of the represented matrix.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of the represented matrix.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of RowWindows.
    #[inline]
    pub fn num_windows(&self) -> usize {
        self.window_nnz_offset.len() - 1
    }

    /// Total TC blocks.
    pub fn num_tc_blocks(&self) -> usize {
        self.blocks_per_window.iter().map(|&b| b as usize).sum()
    }

    /// Index-structure footprint in bytes: window pointers + blocks per
    /// window + three u32 arrays per nnz.
    pub fn index_bytes(&self) -> usize {
        (self.num_windows() + 1) * 4 + self.num_windows() * 4 + self.nnz() * 12
    }

    /// Reconstruct CSR.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.nrows, self.ncols);
        for k in 0..self.nnz() {
            coo.push(self.edge_to_row[k], self.edge_list[k], self.values[k]);
        }
        CsrMatrix::from_coo(&coo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bittcf::BitTcf;
    use spmm_matrix::gen::uniform_random;

    #[test]
    fn roundtrip_csr() {
        let m = uniform_random(100, 4.0, 1);
        assert_eq!(Tcf::from_csr(&m).to_csr(), m);
    }

    #[test]
    fn block_count_matches_bittcf() {
        let m = uniform_random(256, 8.0, 2);
        assert_eq!(
            Tcf::from_csr(&m).num_tc_blocks(),
            BitTcf::from_csr(&m).num_tc_blocks()
        );
    }

    #[test]
    fn tcf_is_the_largest_index_structure() {
        let m = uniform_random(256, 8.0, 3);
        let tcf = Tcf::from_csr(&m);
        let bit = BitTcf::from_csr(&m);
        assert!(
            tcf.index_bytes() > bit.index_bytes(),
            "TCF {} vs BitTCF {}",
            tcf.index_bytes(),
            bit.index_bytes()
        );
    }

    #[test]
    fn edge_to_column_stays_in_window_bounds() {
        let m = uniform_random(64, 6.0, 5);
        let t = Tcf::from_csr(&m);
        for w in 0..t.num_windows() {
            let max_col = (t.blocks_per_window[w] as usize) * TILE;
            for k in t.window_nnz_offset[w] as usize..t.window_nnz_offset[w + 1] as usize {
                assert!((t.edge_to_column[k] as usize) < max_col);
            }
        }
    }
}
