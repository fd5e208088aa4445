//! Shared foundation types for the Acc-SpMM reproduction workspace.
//!
//! This crate holds the pieces every other crate needs: TF32 scalar
//! emulation matching tensor-core numerics ([`scalar`]), the explicit
//! SIMD compute core with runtime ISA dispatch ([`simd`]), the workspace
//! error type ([`error`]), small numeric utilities ([`stats`], [`prefix`]),
//! and index helpers ([`util`]).

pub mod error;
pub mod json;
pub mod precision;
pub mod prefix;
pub mod scalar;
pub mod simd;
pub mod stats;
pub mod util;

pub use error::{catch_panic, PlanLoadError, Result, SpmmError};
pub use precision::{round_to, Precision};
pub use scalar::{tf32_mma_8x8, to_tf32, to_tf32_slice};
pub use simd::{
    mma_row_tier, mma_row_tier_unchecked, to_tf32_slice_into_tier, to_tf32_slice_tier, IsaTier,
};
