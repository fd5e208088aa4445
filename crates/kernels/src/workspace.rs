//! Reusable execution buffers for the zero-allocation multiply path.

use crate::plan::ExecutionPlan;
use spmm_format::BStage;
use spmm_matrix::DenseMatrix;

/// Caller-owned buffer pool for [`crate::PreparedKernel::execute_into`]:
/// holds the TF32 pre-rounded B stage, the batched path's side-by-side
/// RHS stage and its one wide output row, plus the row-permuted B that
/// symmetric-reorder plans multiply. Buffers grow on first use and are
/// reused on every subsequent call, so steady-state multiplies allocate
/// nothing — the pattern iterative solvers and GNN training loops live
/// in.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    pub(crate) stage: BStage,
    pub(crate) batch_stage: BStage,
    pub(crate) batch_row: Vec<f32>,
    pub(crate) staging_b: Option<DenseMatrix>,
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
}

/// A thread-safe pool of [`Workspace`]s for callers that multiplex many
/// concurrent multiplies over shared plans (the serving engine's
/// steady state): checking out hands back a previously-grown workspace
/// when one is available, so after warmup no request allocates staging
/// buffers.
///
/// The pool is bounded: returning a workspace beyond `max_idle` drops
/// it instead of growing the idle list without limit.
#[derive(Debug)]
pub struct WorkspacePool {
    idle: std::sync::Mutex<Vec<Workspace>>,
    max_idle: usize,
}

impl WorkspacePool {
    /// An empty pool retaining at most `max_idle` idle workspaces.
    pub fn new(max_idle: usize) -> Self {
        WorkspacePool {
            idle: std::sync::Mutex::new(Vec::new()),
            max_idle,
        }
    }

    /// Take a workspace (a pooled one if available, else a fresh one).
    pub fn checkout(&self) -> Workspace {
        match self.idle.lock().unwrap().pop() {
            Some(ws) => {
                spmm_trace::counter_add("workspace.pool_hits", 1);
                ws
            }
            None => {
                spmm_trace::counter_add("workspace.pool_misses", 1);
                Workspace::new()
            }
        }
    }

    /// Return a workspace to the pool (dropped if the pool is full).
    pub fn restore(&self, ws: Workspace) {
        let mut idle = self.idle.lock().unwrap();
        if idle.len() < self.max_idle {
            idle.push(ws);
        }
    }

    /// Number of idle workspaces currently pooled.
    pub fn idle_len(&self) -> usize {
        self.idle.lock().unwrap().len()
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
    fn pool_checkout_restore_cycle_reuses_and_bounds() {
        let pool = WorkspacePool::new(2);
        let a = pool.checkout();
        let b = pool.checkout();
        let c = pool.checkout();
        assert_eq!(pool.idle_len(), 0);
        pool.restore(a);
        pool.restore(b);
        pool.restore(c); // beyond max_idle: dropped
        assert_eq!(pool.idle_len(), 2);
        let _ = pool.checkout();
        assert_eq!(pool.idle_len(), 1);
    }

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
