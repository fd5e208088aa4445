//! # Acc-SpMM
//!
//! A reproduction of *"Acc-SpMM: Accelerating General-purpose Sparse
//! Matrix-Matrix Multiplication with GPU Tensor Cores"* (PPoPP 2025) as a
//! pure-Rust library. The GPU is replaced by a calibrated timing/cache
//! simulator (see `spmm-sim`), and the numerics follow the tensor-core
//! TF32 path exactly (TF32 operands, FP32 accumulation).
//!
//! ## Quickstart
//!
//! ```
//! use acc_spmm::prelude::*;
//! use acc_spmm::matrix::gen;
//!
//! // A power-law adjacency matrix and a feature matrix.
//! let a = gen::uniform_random(512, 8.0, 42);
//! let b = DenseMatrix::random(512, 128, 7);
//!
//! // Preprocess once (reorder → BitTCF → balance plan) ...
//! let handle = AccSpmm::builder(&a).arch(Arch::A800).feature_dim(128).build().unwrap();
//! // ... multiply many times,
//! let c = handle.multiply(&b).unwrap();
//! // ... and profile on the simulated A800.
//! let report = handle.profile_default();
//! assert!(report.gflops > 0.0);
//! assert_eq!(c.nrows(), 512);
//! ```
//!
//! ## Concurrent serving
//!
//! For many clients sharing preprocessed operands, the [`Engine`]
//! (from `spmm-engine`, re-exported here) adds a shared plan cache and
//! a micro-batching worker pool:
//!
//! ```
//! use acc_spmm::prelude::*;
//! use acc_spmm::matrix::gen;
//!
//! let engine = Engine::builder().workers(1).build().unwrap();
//! let a = gen::uniform_random(256, 6.0, 3);
//! let session = engine.session(&a).feature_dim(32).open().unwrap();
//! let b = DenseMatrix::random(256, 32, 4);
//! let c = session.multiply(&b).unwrap();
//! assert_eq!(c.nrows(), 256);
//! ```
//!
//! The substrate crates are re-exported under their natural names:
//! [`matrix`], [`graph`], [`reorder`], [`format`](mod@crate::format), [`sim`], [`balance`],
//! [`kernels`], [`engine`], [`dist`].

pub mod comparison;
pub mod gnn;
pub mod handle;
pub mod solvers;

/// The user-facing surface in one import: `use acc_spmm::prelude::*;`.
///
/// Covers the amortized single-handle path ([`AccSpmm`] via
/// [`SpmmBuilder`]), the QoS serving path ([`Engine`], [`Session`],
/// [`Ticket`], [`SubmitOptions`], [`SubmitOutcome`], [`Priority`],
/// [`Tenant`]), and the types every program touches ([`CsrMatrix`],
/// [`DenseMatrix`], [`Arch`], [`KernelKind`], [`AccConfig`],
/// [`Workspace`], [`Result`], [`SpmmError`]).
pub mod prelude {
    pub use crate::handle::{AccSpmm, PreprocessStats, SpmmBuilder};
    pub use spmm_common::{Result, SpmmError};
    pub use spmm_dist::{DistBuilder, DistReport, DistSpmm};
    pub use spmm_engine::{
        Engine, EngineBuilder, EngineStats, Priority, Session, SubmitOptions, SubmitOutcome,
        Tenant, Ticket,
    };
    pub use spmm_kernels::{AccConfig, KernelKind, PreparedKernel, Workspace};
    pub use spmm_matrix::{CsrMatrix, DenseMatrix};
    pub use spmm_sim::Arch;
}

pub use comparison::{compare_all, ComparisonRow};
pub use gnn::{gcn_normalize, Gcn, GcnLayer};
pub use handle::{AccSpmm, PreprocessStats, SpmmBuilder};

pub use spmm_balance as balance;
pub use spmm_delta as delta;
pub use spmm_dist as dist;
pub use spmm_engine as engine;
pub use spmm_format as format;
pub use spmm_graph as graph;
pub use spmm_kernels as kernels;
pub use spmm_matrix as matrix;
pub use spmm_reorder as reorder;
pub use spmm_sim as sim;

pub use spmm_common::{PlanLoadError, Result, SpmmError};
pub use spmm_delta::DeltaCsr;
pub use spmm_dist::{DistDeltaReport, DistReport, DistSpmm};
pub use spmm_engine::{
    Engine, EngineBuilder, EngineStats, Priority, Session, SubmitOptions, SubmitOutcome, Tenant,
    Ticket,
};
pub use spmm_kernels::{
    AccConfig, ExecutionPlan, KernelKind, PlanLoader, PreparedKernel, RepairReport, StageSpec,
    StageTiming, Workspace,
};
pub use spmm_matrix::{CsrMatrix, DenseMatrix};
pub use spmm_sim::{Arch, KernelReport, SimOptions};
