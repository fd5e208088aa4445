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
//!   local position);
//! * [`BitTcf`] — the paper's format: one `u64` bitmap per TC block
//!   ([`BitTcf::tc_local_bit`]), decompressed with popcount.
//!
//! [`window::WindowPartition`] is the shared squeezing step;
//! [`compression`] reproduces the Figure-12 byte accounting.

pub mod bittcf;
pub mod compression;
pub mod io;
pub mod metcf;
pub mod scratch;
pub mod tcf;
pub mod window;

pub use bittcf::BitTcf;
pub use metcf::MeTcf;
pub use scratch::{BStage, TileScratch, WindowPairs};
pub use tcf::Tcf;
pub use window::{WindowPartition, PAD_COL, TILE};
