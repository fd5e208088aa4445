//! TC-block compressed sparse formats.
//!
//! Tensor-core SpMM kernels consume the sparse operand as **RowWindows**
//! (groups of [`TILE`] consecutive rows) whose distinct columns are
//! squeezed together and chunked into **TC blocks** of `TILE × TILE`
//! (8×8, matching the swapped `m16n8k8` mma the paper uses). Three
//! formats encode the blocks:
//!
//! * [`Tcf`] — TC-GNN's format (per-nnz edge/row/column arrays);
//! * [`MeTcf`] — DTC-SpMM's memory-efficient format (per-nnz `int8`
//!   local position, the [`LocalIds`] codec);
//! * [`BitTcf`] — the paper's format: one `u64` bitmap per TC block
//!   (the [`Bitmap`] codec), decompressed with popcount.
//!
//! ME-TCF and BitTCF are one generic [`TcMatrix`] that differs only in
//! its [`BlockCodec`], the encoding of a block's non-zero positions; the
//! skeleton and conversion are shared. Execution reads
//! none of them: [`execution_rows`] derives a TC plan's rows from its CSR
//! operand.
//! [`window::WindowPartition`] is the squeezing step every format
//! shares; [`compression`] reproduces the Figure-12 byte accounting.

pub mod bittcf;
pub mod compression;
pub mod scratch;
pub mod tc_matrix;
pub mod tcf;
pub mod window;

pub use bittcf::{BitTcf, Bitmap};
pub use scratch::{execution_rows, splice_execution_rows, BStage};
pub use tc_matrix::{BlockCodec, LocalIds, MeTcf, TcMatrix};
pub use tcf::Tcf;
pub use window::{WindowPartition, PAD_COL, TILE};

use spmm_common::{Result, SpmmError};
use spmm_matrix::DenseMatrix;

/// Check that an `a_rows × a_cols` sparse operand times a
/// `b_rows × b_cols` dense one fits the output `c`.
pub(crate) fn check_spmm_shapes(
    a_rows: usize,
    a_cols: usize,
    b_rows: usize,
    b_cols: usize,
    c: &DenseMatrix,
) -> Result<()> {
    if a_cols != b_rows || c.nrows() != a_rows || c.ncols() != b_cols {
        return Err(SpmmError::Shape {
            context: format!(
                "A is {a_rows}x{a_cols}, B is {b_rows}x{b_cols}, C is {}x{}",
                c.nrows(),
                c.ncols()
            ),
        });
    }
    Ok(())
}
