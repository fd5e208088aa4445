//! Reusable execution buffers for the zero-allocation multiply path.

use crate::plan::ExecutionPlan;
use spmm_format::BStage;
use spmm_matrix::DenseMatrix;

/// Caller-owned buffer pool for [`crate::PreparedKernel::execute_into`]:
/// holds the TF32 pre-rounded B stage, the batched path's side-by-side
/// RHS stage and its one wide output row, plus the row-permuted B that
/// symmetric-reorder plans multiply. The side-by-side stage never
/// exceeds 1 MiB: a batch runs in groups whose stage fits that cache
/// budget, and a group of one RHS uses the single B stage instead.
/// Buffers grow on first use and are reused on every subsequent call,
/// so steady-state multiplies allocate nothing — the pattern iterative
/// solvers and GNN training loops live in.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    pub(crate) stage: BStage,
    pub(crate) batch_stage: BStage,
    pub(crate) batch_row: Vec<f32>,
    pub(crate) staging_b: Option<DenseMatrix>,
    /// Set by [`Workspace::inject_panic`]: the next batch chunk run on
    /// this workspace panics.
    #[cfg(test)]
    pub(crate) inject_panic: bool,
}

impl Workspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A workspace whose B stage is pre-sized for a plan's operand shape
    /// and feature dimension (avoids even the first-call growth).
    pub fn for_plan(plan: &ExecutionPlan) -> Self {
        let mut ws = Workspace::new();
        ws.reserve_staging(plan.csr().ncols(), plan.feature_dim());
        ws
    }

    /// Pre-size the TF32 B stage for an `nrows × ncols` operand
    /// (avoids the first-call growth for callers that know the operand
    /// shape up front, and gives paged-allocator tests a deterministic
    /// way to grow a workspace's footprint).
    pub fn reserve_staging(&mut self, nrows: usize, ncols: usize) {
        self.stage.reserve(nrows, ncols);
    }

    /// Bytes of staging storage this workspace currently retains: the
    /// B stage, the batched RHS stage and output row, and the permuted
    /// B. This is the quantity the serving engine's paged allocator
    /// charges against its page budget.
    pub fn footprint_bytes(&self) -> usize {
        self.stage.footprint_bytes()
            + self.batch_stage.footprint_bytes()
            + self.batch_row.capacity() * std::mem::size_of::<f32>()
            + self
                .staging_b
                .as_ref()
                .map_or(0, |m| m.nrows() * m.ncols() * std::mem::size_of::<f32>())
    }

    /// Make the next batch chunk that runs on this workspace panic, on
    /// whichever thread runs it.
    #[cfg(test)]
    pub(crate) fn inject_panic(&mut self) {
        self.inject_panic = true;
    }
}

/// Reuse `slot` if it already has the right shape, else (re)allocate.
pub(crate) fn ensure_staging(
    slot: &mut Option<DenseMatrix>,
    nrows: usize,
    ncols: usize,
) -> &mut DenseMatrix {
    let fits = slot
        .as_ref()
        .is_some_and(|m| m.nrows() == nrows && m.ncols() == ncols);
    if !fits {
        *slot = Some(DenseMatrix::zeros(nrows, ncols));
        spmm_trace::counter_add("workspace.staging_allocs", 1);
    } else {
        spmm_trace::counter_add("workspace.staging_reuses", 1);
    }
    slot.as_mut().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_is_reused_when_shape_matches() {
        let mut slot = None;
        {
            let m = ensure_staging(&mut slot, 4, 3);
            m.set(0, 0, 7.0);
        }
        let m2 = ensure_staging(&mut slot, 4, 3);
        assert_eq!(m2.get(0, 0), 7.0, "same buffer came back");
        let m3 = ensure_staging(&mut slot, 5, 3);
        assert_eq!(m3.nrows(), 5);
        assert_eq!(m3.get(0, 0), 0.0, "shape change reallocates");
    }
}
