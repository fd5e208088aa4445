//! The six SpMM kernel strategies the paper evaluates.
//!
//! Every kernel has two faces:
//! * **functional** — [`PreparedKernel::execute`] computes the numeric
//!   result on the CPU, always returning C in *original* row order. Every
//!   kernel runs the one row core `spmm_common::simd::mma_row_tier`:
//!   FP32 multiply then a separate FP32 add, never fused. The CUDA-core
//!   kernels feed it CSR rows with no operand rounding; the tensor-core
//!   kernels feed it TF32-rounded operands (the TF32-operand MMA);
//! * **timing** — [`PreparedKernel::trace`] returns the kernel's work
//!   compiled into a [`spmm_sim::KernelDesc`] and
//!   [`PreparedKernel::profile`] simulates it on a chosen architecture.
//!
//! An [`ExecutionPlan`] ([`plan`]) is built in two parts: the host part
//! the functional face reads (operand, execution rows, ISA tier,
//! precision), and a [`PlanModel`] the timing face reads (Reorder →
//! FormatBuild → BalancePlan → Compile), built on first use. A kernel is
//! one [`plan::StageSpec`] configuration, and [`PreparedKernel`] is a
//! thin wrapper around the plan. The
//! [`Workspace`] buffer pool plus [`PreparedKernel::execute_into`] /
//! [`PreparedKernel::execute_batch`] serve the paper's
//! preprocess-once-multiply-many pattern without per-call allocation.
//!
//! | kernel | cores | format | reorder | pipeline | balancing |
//! |---|---|---|---|---|---|
//! | cuSPARSE-like | CUDA | CSR | — | occupancy | row-major |
//! | Sputnik-like | CUDA | CSR (1-D tiles) | — | occupancy | nnz-split |
//! | SparseTIR-like | CUDA | CSR (row buckets) | — | occupancy | bucket |
//! | TC-GNN | TC | TCF | SGT (identity) | synchronous | per-window |
//! | DTC-SpMM | TC | ME-TCF | DTC-LSH | Fig 5a double buffer | DTC split |
//! | Acc-SpMM | TC | BitTCF | data-affinity | Fig 5b least-bubble | adaptive |
//!
//! The caller always names the [`KernelKind`]; there is no automatic
//! choice among the six (the paper ships Acc-SpMM for every matrix).

pub mod acc;
pub mod ir;
pub mod plan;
pub mod repair;
pub mod scalar;
pub mod tc;
pub mod workspace;

pub use acc::AccConfig;
pub use ir::{PlanLoader, PLAN_IR_VERSION};
pub use plan::{ExecutionPlan, FormatChoice, PlanModel, Precision, StageSpec, StageTiming};
pub use repair::RepairReport;
pub use workspace::Workspace;

use crate::workspace::ensure_staging;
use spmm_balance::BalancePlan;
use spmm_common::{mma_row_tier_unchecked, IsaTier, Result, SpmmError};
use spmm_format::{BitTcf, MeTcf, Tcf, WindowPartition};
use spmm_matrix::{CsrMatrix, DenseMatrix};
use spmm_sim::{Arch, KernelDesc, KernelReport, SimOptions};

/// The compared kernels, in paper legend order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// cuSPARSE CSR SpMM on CUDA cores (the baseline of every figure).
    CusparseLike,
    /// Sputnik's 1-D tiled SpMM on CUDA cores.
    SputnikLike,
    /// SparseTIR's composable row-bucket SpMM on CUDA cores.
    SparseTirLike,
    /// TC-GNN SpMM on tensor cores.
    TcGnn,
    /// DTC-SpMM on tensor cores.
    DtcSpmm,
    /// Acc-SpMM (this paper).
    AccSpmm,
}

impl KernelKind {
    /// All kernels, baseline first.
    pub const ALL: [KernelKind; 6] = [
        KernelKind::CusparseLike,
        KernelKind::SputnikLike,
        KernelKind::SparseTirLike,
        KernelKind::TcGnn,
        KernelKind::DtcSpmm,
        KernelKind::AccSpmm,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::CusparseLike => "cuSPARSE",
            KernelKind::SputnikLike => "Sputnik",
            KernelKind::SparseTirLike => "SparseTIR",
            KernelKind::TcGnn => "TCGNN",
            KernelKind::DtcSpmm => "DTC-SpMM",
            KernelKind::AccSpmm => "Acc-SpMM",
        }
    }
}

/// Format data held by a prepared TC kernel.
#[derive(Debug, Clone)]
pub enum TcFormat {
    /// TC-GNN's per-edge format.
    Tcf(Tcf),
    /// DTC-SpMM's per-nnz-id format.
    MeTcf(MeTcf),
    /// The paper's bitmap format.
    BitTcf(BitTcf),
}

/// Run `$body` with `$f` bound to whichever format `$format` holds.
macro_rules! with_format {
    ($format:expr, $f:ident => $body:expr) => {
        match $format {
            TcFormat::Tcf($f) => $body,
            TcFormat::MeTcf($f) => $body,
            TcFormat::BitTcf($f) => $body,
        }
    };
}

impl TcFormat {
    /// Rows and columns of the represented operand.
    pub fn dims(&self) -> (usize, usize) {
        with_format!(self, f => (f.nrows(), f.ncols()))
    }

    /// Stored non-zeros.
    pub fn nnz(&self) -> usize {
        with_format!(self, f => f.nnz())
    }

    /// Number of TC blocks.
    pub fn num_tc_blocks(&self) -> usize {
        with_format!(self, f => f.num_tc_blocks())
    }

    /// Index-structure footprint in bytes of the held format.
    pub fn index_bytes(&self) -> usize {
        with_format!(self, f => f.index_bytes())
    }

    /// Round the held values to TF32 once (idempotent, so execution
    /// stays bit-identical).
    pub fn preround_values_tier(&mut self, tier: IsaTier) {
        with_format!(self, f => f.preround_values_tier(tier))
    }
}

/// A kernel after preprocessing — a thin execution wrapper around the
/// staged [`ExecutionPlan`], ready to execute or profile any number of
/// times (the amortized-preprocessing pattern the paper evaluates).
#[derive(Debug, Clone)]
pub struct PreparedKernel {
    plan: ExecutionPlan,
}

/// Builder for [`PreparedKernel`] — the single construction path.
///
/// Defaults: [`Arch::A800`], feature dimension 128, [`AccConfig::full`].
///
/// ```
/// use spmm_kernels::{KernelKind, PreparedKernel};
/// use spmm_matrix::gen;
///
/// let a = gen::uniform_random(128, 4.0, 1);
/// let k = PreparedKernel::builder(KernelKind::AccSpmm, &a)
///     .feature_dim(32)
///     .build()
///     .unwrap();
/// assert_eq!(k.feature_dim(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder<'a> {
    kind: KernelKind,
    a: &'a CsrMatrix,
    arch: Arch,
    feature_dim: usize,
    config: AccConfig,
}

impl<'a> KernelBuilder<'a> {
    /// Target architecture (the balance model needs its bandwidth/FLOPS).
    pub fn arch(mut self, arch: Arch) -> Self {
        self.arch = arch;
        self
    }

    /// Feature dimension (columns of B) the plan is specialized for.
    pub fn feature_dim(mut self, n: usize) -> Self {
        self.feature_dim = n;
        self
    }

    /// Explicit (e.g. ablation) configuration. Its stage toggles shape
    /// only [`KernelKind::AccSpmm`]; its `isa` pin steers every kernel's
    /// executor, the CSR kernels included.
    pub fn config(mut self, config: AccConfig) -> Self {
        self.config = config;
        self
    }

    /// Run the staged preprocessing pipeline. Failures surface as
    /// [`SpmmError::Build`] tagged with the kernel's display name.
    pub fn build(self) -> Result<PreparedKernel> {
        let kind = self.kind;
        let plan = ExecutionPlan::build(kind, self.a, self.arch, self.feature_dim, self.config)
            .map_err(|e| match e {
                e @ SpmmError::Build { .. } => e,
                other => SpmmError::build(kind.name(), other),
            })?;
        Ok(PreparedKernel { plan })
    }
}

impl PreparedKernel {
    /// Start building a prepared kernel for `kind` over operand `m`.
    pub fn builder(kind: KernelKind, m: &CsrMatrix) -> KernelBuilder<'_> {
        KernelBuilder {
            kind,
            a: m,
            arch: Arch::A800,
            feature_dim: 128,
            config: AccConfig::full(),
        }
    }

    /// Wrap an already-built plan.
    pub fn from_plan(plan: ExecutionPlan) -> Self {
        PreparedKernel { plan }
    }

    /// The underlying execution plan.
    pub fn execution_plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Kernel identity.
    pub fn kind(&self) -> KernelKind {
        self.plan.kind()
    }

    /// The sparse operand as the host multiplies it (relabeled in
    /// symmetric mode).
    pub fn csr(&self) -> &CsrMatrix {
        self.plan.csr()
    }

    /// The balance plan (TC kernels only); builds the plan's model.
    pub fn plan(&self) -> Option<&BalancePlan> {
        self.plan.model().balance()
    }

    /// The shared window partition (TC kernels only); builds the plan's
    /// model.
    pub fn partition(&self) -> Option<&WindowPartition> {
        self.plan.model().partition()
    }

    /// The compressed format (TC kernels only); builds the plan's model.
    pub fn format(&self) -> Option<&TcFormat> {
        self.plan.model().format()
    }

    /// The feature dimension this kernel was prepared for.
    pub fn feature_dim(&self) -> usize {
        self.plan.feature_dim()
    }

    /// Functional SpMM: `C = A × B` in original row order.
    pub fn execute(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.csr().nrows(), b.ncols());
        let mut ws = Workspace::new();
        self.execute_into_impl(b, &mut out, &mut ws, true)?;
        Ok(out)
    }

    /// [`PreparedKernel::execute`] writing into a caller-provided output
    /// with reusable buffers: after the first call the TF32 B stage (and,
    /// in symmetric mode, the permuted B) comes from `ws`, so
    /// steady-state multiplies allocate no operand-sized buffer.
    pub fn execute_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        self.execute_into_impl(b, out, ws, true)
    }

    /// Execute many RHS matrices over the shared plan into fresh
    /// outputs: [`PreparedKernel::execute_batch_into`] over one fresh
    /// [`Workspace`] per rayon thread, so the batch spreads over that
    /// many threads. Results are bit-identical to calling
    /// [`PreparedKernel::execute`] per matrix.
    pub fn execute_batch(&self, bs: &[DenseMatrix]) -> Result<Vec<DenseMatrix>> {
        let _span = spmm_trace::span("kernel.execute_batch");
        let a_rows = self.csr().nrows();
        let mut outs: Vec<DenseMatrix> = bs
            .iter()
            .map(|b| DenseMatrix::zeros(a_rows, b.ncols()))
            .collect();
        let mut wss: Vec<Workspace> = (0..rayon::current_num_threads())
            .map(|_| Workspace::new())
            .collect();
        self.execute_batch_into(bs, &mut outs, &mut wss)?;
        Ok(outs)
    }

    /// The batch path: executes every RHS in `bs` into the matching slot
    /// of `outs`, spread over the workspaces in `wss`. The batch is cut,
    /// in order, into `min(wss.len(), bs.len())` contiguous chunks of
    /// near-equal length, one workspace each; the first chunk runs on
    /// the calling thread and every other chunk on a scoped thread of
    /// its own, so one workspace means no thread is spawned. Within a
    /// chunk, tensor-core plans cut the RHS, in order, into groups whose
    /// side-by-side B stage (B's rows × the summed widths × 4 bytes)
    /// fits a fixed 1 MiB budget, so the stage stays cache-resident:
    /// each execution row is streamed once per group, and a group of one
    /// RHS takes the per-RHS row loop. Results are bit-identical to
    /// calling [`PreparedKernel::execute`] per RHS, whatever the number
    /// of workspaces.
    ///
    /// The first error by chunk order is returned. A panic in a chunk on
    /// a spawned thread is resumed on the calling thread once every
    /// chunk has finished. A non-empty batch needs at least one
    /// workspace ([`SpmmError::InvalidConfig`] otherwise).
    pub fn execute_batch_into(
        &self,
        bs: &[DenseMatrix],
        outs: &mut [DenseMatrix],
        wss: &mut [Workspace],
    ) -> Result<()> {
        if bs.len() != outs.len() {
            return Err(SpmmError::shape(format!(
                "batch has {} inputs but {} outputs",
                bs.len(),
                outs.len()
            )));
        }
        let (a_rows, a_cols) = (self.csr().nrows(), self.csr().ncols());
        for (b, out) in bs.iter().zip(outs.iter()) {
            if b.nrows() != a_cols || out.nrows() != a_rows || out.ncols() != b.ncols() {
                return Err(SpmmError::shape(format!(
                    "A is {a_rows}x{a_cols}, B is {}x{}, C is {}x{}",
                    b.nrows(),
                    b.ncols(),
                    out.nrows(),
                    out.ncols()
                )));
            }
        }
        if bs.is_empty() {
            return Ok(());
        }
        let chunks = wss.len().min(bs.len());
        let Some((ws0, helper_wss)) = wss[..chunks].split_first_mut() else {
            return Err(SpmmError::InvalidConfig(
                "a non-empty batch needs at least one workspace".into(),
            ));
        };
        spmm_trace::counter_add("kernel.batch_rhs", bs.len() as u64);
        let (base, extra) = (bs.len() / chunks, bs.len() % chunks);
        let chunk_len = |i: usize| base + usize::from(i < extra);
        let (b0, mut b_rest) = bs.split_at(chunk_len(0));
        let (out0, mut out_rest) = outs.split_at_mut(chunk_len(0));
        std::thread::scope(|s| {
            let helpers: Vec<_> = helper_wss
                .iter_mut()
                .enumerate()
                .map(|(i, ws)| {
                    let (b, b_tail) = b_rest.split_at(chunk_len(i + 1));
                    let (out, out_tail) = std::mem::take(&mut out_rest).split_at_mut(b.len());
                    b_rest = b_tail;
                    out_rest = out_tail;
                    s.spawn(move || self.execute_chunk(b, out, ws))
                })
                .collect();
            let mut result = self.execute_chunk(b0, out0, ws0);
            let mut panicked = None;
            for helper in helpers {
                match helper.join() {
                    Ok(r) if result.is_ok() => result = r,
                    Ok(_) => {}
                    Err(payload) => {
                        panicked.get_or_insert(payload);
                    }
                }
            }
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
            result
        })
    }

    /// Run one contiguous chunk of a batch on the calling thread.
    fn execute_chunk(
        &self,
        bs: &[DenseMatrix],
        outs: &mut [DenseMatrix],
        ws: &mut Workspace,
    ) -> Result<()> {
        // One span per chunk, recorded on the thread that ran it (the
        // trace layer tags spans per thread).
        let _span = spmm_trace::span("kernel.execute_chunk");
        #[cfg(test)]
        if std::mem::take(&mut ws.inject_panic) {
            panic!("injected panic in a batch chunk of {}", bs.len());
        }
        // Symmetric mode needs a permuted copy of every B alive at once,
        // which defeats the batched row loop, so it and the CUDA-core
        // plans take the per-RHS path (still sharing this chunk's
        // staging buffers), which writes straight into each output.
        let rows = match self.plan.exec_rows() {
            Some(rows) if !self.plan.symmetric() => rows,
            _ => {
                for (b, out) in bs.iter().zip(outs.iter_mut()) {
                    self.execute_into_impl(b, out, ws, false)?;
                }
                return Ok(());
            }
        };
        // A side-by-side stage larger than the cache evicts the B rows
        // each execution row gathers before the next row reuses them, so
        // the batch runs in cache-sized groups. A lone RHS gains nothing
        // from the side-by-side stage and pays its per-row copy.
        let mut start = 0;
        while start < bs.len() {
            let len = side_by_side_group_len(rows.ncols(), bs[start..].iter().map(|b| b.ncols()));
            let (b_group, out_group) = (&bs[start..start + len], &mut outs[start..start + len]);
            if len == 1 {
                self.execute_into_impl(&b_group[0], &mut out_group[0], ws, false)?;
            } else {
                self.execute_group_batched(rows, b_group, out_group, ws);
            }
            start += len;
        }
        Ok(())
    }

    /// The batched row loop over a plan's execution rows, which are in
    /// original row order: row `r` of every output is row `r`'s slice of
    /// one wide row product over the side-by-side stage.
    fn execute_group_batched(
        &self,
        rows: &CsrMatrix,
        bs: &[DenseMatrix],
        outs: &mut [DenseMatrix],
        ws: &mut Workspace,
    ) {
        let Workspace {
            batch_stage,
            batch_row,
            ..
        } = ws;
        let tier = self.plan.isa_tier();
        batch_stage.stage_side_by_side_tier(bs, tier);
        // Every caller has checked `b.nrows() == a_cols`; this one check
        // is what the unchecked row core below relies on.
        assert_eq!(
            rows.ncols(),
            batch_stage.nrows(),
            "execution rows and staged operands disagree on B's rows"
        );
        batch_row.resize(batch_stage.ncols(), 0.0);
        let stage = batch_stage.as_dense().as_slice();
        for r in 0..rows.nrows() {
            let (cols, vals) = rows.row(r);
            batch_row.fill(0.0);
            // SAFETY: every column is `< rows.ncols()` (CSR invariant;
            // execution rows are built through `CsrMatrix::new`), which
            // equals the stage's row count (asserted above), and
            // `batch_row.len()` is the stage's column count, so each row
            // `cols[t]` lies inside `stage`.
            unsafe { mma_row_tier_unchecked(vals, cols, stage, batch_row, tier) };
            let mut off = 0;
            for (b, out) in bs.iter().zip(outs.iter_mut()) {
                let n = b.ncols();
                out.row_mut(r).copy_from_slice(&batch_row[off..off + n]);
                off += n;
            }
        }
    }

    fn execute_into_impl(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
        parallel: bool,
    ) -> Result<()> {
        plan_execute_into(&self.plan, b, out, ws, parallel)
    }

    /// The kernel's work compiled into a simulator trace (a clone of the
    /// one the plan's model holds).
    pub fn trace(&self) -> KernelDesc {
        self.plan.model().trace().clone()
    }

    /// Simulate on the given architecture (the cuSPARSE-like kernel
    /// gets the architecture's CSR-library boost).
    pub fn profile(&self, arch: Arch, opts: &SimOptions) -> KernelReport {
        let cached = self.plan.model().trace();
        if self.kind() == KernelKind::CusparseLike {
            let mut desc = cached.clone();
            desc.arch_boost = arch.spec().cusparse_boost;
            return spmm_sim::profile(arch, &desc, opts);
        }
        spmm_sim::profile(arch, cached, opts)
    }
}

/// Bytes one side-by-side B stage of a batch group may take: half of a
/// 2 MiB per-core L2, which leaves room for the execution rows and output
/// rows streaming past the stage (EXPERIMENTS "Cache-sized batch
/// groups" times both sides of it).
const SIDE_BY_SIDE_BUDGET_BYTES: usize = 1 << 20;

/// How many of the leading RHS, given their widths in batch order, one
/// side-by-side stage of `b_rows` rows holds within
/// [`SIDE_BY_SIDE_BUDGET_BYTES`]: at least 1 of a non-empty batch, so an
/// RHS wider than the budget runs alone.
fn side_by_side_group_len(b_rows: usize, widths: impl IntoIterator<Item = usize>) -> usize {
    let budget_floats = SIDE_BY_SIDE_BUDGET_BYTES / std::mem::size_of::<f32>();
    let mut staged = 0usize;
    let mut len = 0;
    for n in widths {
        staged = staged.saturating_add(b_rows.saturating_mul(n));
        if len > 0 && staged > budget_floats {
            break;
        }
        len += 1;
    }
    len
}

/// Execute one plan into `out` in original row order, on the plan's
/// ISA tier (bit-identical across tiers).
fn plan_execute_into(
    plan: &ExecutionPlan,
    b: &DenseMatrix,
    out: &mut DenseMatrix,
    ws: &mut Workspace,
    parallel: bool,
) -> Result<()> {
    let _span = spmm_trace::span("kernel.execute");
    spmm_trace::counter_add("kernel.multiplies", 1);
    let Workspace {
        stage, staging_b, ..
    } = ws;
    let tier = plan.isa_tier();
    match plan.exec_rows() {
        // Tensor-core plans: the CSR row loop over the plan's execution
        // rows and a TF32 stage of B, straight into original row order.
        // Symmetric-reorder mode multiplies (P A Pᵀ)(P B) = P (A B): the
        // rows' columns are permuted ids, so B is row-permuted first.
        Some(rows) => {
            let b_eff: &DenseMatrix = match (plan.perm(), plan.symmetric()) {
                (Some(perm), true) => {
                    let staged = ensure_staging(staging_b, b.nrows(), b.ncols());
                    b.permute_rows_into(perm, staged)?;
                    staged
                }
                _ => b,
            };
            stage.stage_tier(b_eff, tier);
            if parallel {
                rows.spmm_dense_into(stage.as_dense(), out, tier)
            } else {
                rows.spmm_dense_into_seq(stage.as_dense(), out, tier)
            }
        }
        // CUDA-core kernels: FP32 multiply then add on the same row
        // core, no operand rounding, no fusion.
        None if parallel => plan.csr().spmm_dense_into(b, out, tier),
        None => plan.csr().spmm_dense_into_seq(b, out, tier),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_common::scalar::tf32_tolerance;
    use spmm_matrix::gen::{clustered, molecule_union, ClusteredConfig};

    fn workload() -> (CsrMatrix, DenseMatrix) {
        let m = molecule_union(512, 6, 16, true, 3);
        let n = m.nrows();
        (m, DenseMatrix::random(n, 32, 7))
    }

    #[test]
    fn every_kernel_matches_the_dense_reference() {
        let (m, b) = workload();
        let reference = m.spmm_dense(&b).unwrap();
        let tol = tf32_tolerance(m.nrows());
        for kind in KernelKind::ALL {
            let k = PreparedKernel::builder(kind, &m)
                .arch(Arch::A800)
                .feature_dim(b.ncols())
                .build()
                .unwrap();
            let c = k.execute(&b).unwrap();
            assert!(
                c.approx_eq(&reference, tol, tol),
                "{} diverges: max diff {}",
                kind.name(),
                c.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn execute_into_reuses_workspace_and_matches_execute() {
        let (m, b) = workload();
        for kind in KernelKind::ALL {
            let k = PreparedKernel::builder(kind, &m)
                .arch(Arch::A800)
                .feature_dim(b.ncols())
                .build()
                .unwrap();
            let expect = k.execute(&b).unwrap();
            let mut ws = Workspace::for_plan(k.execution_plan());
            let mut out = DenseMatrix::zeros(m.nrows(), b.ncols());
            k.execute_into(&b, &mut out, &mut ws).unwrap();
            assert_eq!(out, expect, "{} execute_into differs", kind.name());
            // Second call with the (dirty) workspace and output is exact.
            k.execute_into(&b, &mut out, &mut ws).unwrap();
            assert_eq!(out, expect, "{} workspace reuse differs", kind.name());
        }
    }

    #[test]
    fn execute_batch_is_bit_identical_to_looped_execute() {
        let (m, _) = workload();
        let bs: Vec<DenseMatrix> = (0..9)
            .map(|i| DenseMatrix::random(m.nrows(), 24, 100 + i))
            .collect();
        for kind in [
            KernelKind::AccSpmm,
            KernelKind::DtcSpmm,
            KernelKind::CusparseLike,
        ] {
            let k = PreparedKernel::builder(kind, &m)
                .arch(Arch::A800)
                .feature_dim(24)
                .build()
                .unwrap();
            let batched = k.execute_batch(&bs).unwrap();
            assert_eq!(batched.len(), bs.len());
            for (i, b) in bs.iter().enumerate() {
                let single = k.execute(b).unwrap();
                assert_eq!(batched[i], single, "{} RHS {i} differs", kind.name());
            }
        }
        // Empty batch is fine.
        let k = PreparedKernel::builder(KernelKind::AccSpmm, &m)
            .arch(Arch::A800)
            .feature_dim(24)
            .build()
            .unwrap();
        assert!(k.execute_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn side_by_side_groups_fit_the_cache_budget() {
        // The WB analog's GCN-normalized operand at N = 16: one RHS
        // alone overflows the budget.
        assert_eq!(side_by_side_group_len(21_504, [16; 8]), 1);
        // rmat12 at N = 16: four RHS fill 1 MiB exactly.
        assert_eq!(side_by_side_group_len(4096, [16; 8]), 4);
        assert_eq!(side_by_side_group_len(256, [16; 8]), 8);
        assert_eq!(side_by_side_group_len(4096, [300, 16]), 1);
    }

    /// Bit equality with NaN positions exact (payloads may differ).
    pub(crate) fn assert_outputs_bit_identical(a: &DenseMatrix, b: &DenseMatrix) {
        assert_eq!(a.nrows(), b.nrows());
        assert_eq!(a.ncols(), b.ncols());
        for (x, y) in a.as_slice().iter().zip(b.as_slice().iter()) {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "outputs diverge: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn cache_sized_batch_groups_are_bit_identical_to_execute() {
        // 4096 B rows leave room for 64 side-by-side columns: the widths
        // split into groups of 2, 2 and a trailing single RHS.
        let m = spmm_matrix::gen::uniform_random(4096, 3.0, 5);
        let widths = [24, 40, 8, 48, 40];
        assert_eq!(side_by_side_group_len(m.ncols(), widths), 2);
        assert_eq!(
            side_by_side_group_len(m.ncols(), widths[2..].iter().copied()),
            2
        );
        assert_eq!(
            side_by_side_group_len(m.ncols(), widths[4..].iter().copied()),
            1
        );
        let bs: Vec<DenseMatrix> = widths
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mut b = DenseMatrix::random(m.ncols(), n, 300 + i as u64);
                for (k, v) in [f32::NAN, -0.0, 0.0].into_iter().enumerate() {
                    let r = (97 * (i + 1) + 1031 * k) % m.ncols();
                    b.set(r, (i + k) % n, v);
                }
                b
            })
            .collect();
        for kind in [
            KernelKind::AccSpmm,
            KernelKind::TcGnn,
            KernelKind::CusparseLike,
        ] {
            let k = PreparedKernel::builder(kind, &m)
                .feature_dim(32)
                .build()
                .unwrap();
            let singles: Vec<DenseMatrix> = bs.iter().map(|b| k.execute(b).unwrap()).collect();
            let mut outs: Vec<DenseMatrix> = bs
                .iter()
                .map(|b| DenseMatrix::zeros(m.nrows(), b.ncols()))
                .collect();
            let mut ws = Workspace::new();
            k.execute_batch_into(&bs, &mut outs, std::slice::from_mut(&mut ws))
                .unwrap();
            let batched = k.execute_batch(&bs).unwrap();
            for (i, want) in singles.iter().enumerate() {
                assert_outputs_bit_identical(&outs[i], want);
                assert_outputs_bit_identical(&batched[i], want);
            }
        }
    }

    /// An operand of `n` B rows with NaN, ±Inf, a subnormal and −0.0
    /// stored among its values.
    fn special_operand(n: usize, seed: u64) -> CsrMatrix {
        let mut m = spmm_matrix::gen::uniform_random(n, 3.0, seed);
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0e-41, -0.0];
        let nnz = m.nnz();
        for (k, v) in specials.into_iter().enumerate() {
            m.values_mut()[(k * 7919 + 13) % nnz] = v;
        }
        m
    }

    /// RHS `i` of width `n`, with NaN, ±Inf, subnormal and −0.0 entries.
    fn special_rhs(rows: usize, n: usize, i: usize) -> DenseMatrix {
        let mut b = DenseMatrix::random(rows, n, 500 + i as u64);
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0e-42, -0.0];
        for (k, v) in specials.into_iter().enumerate() {
            b.set((131 * (i + 1) + 977 * k) % rows, (i + k) % n, v);
        }
        b
    }

    #[test]
    fn a_batch_spread_over_workspaces_is_bit_identical_to_execute() {
        // 2048 B rows leave room for 128 side-by-side columns: the
        // longer batches cross the budget near their end, where 72
        // starts a new group and 130 runs alone.
        let m = special_operand(2048, 11);
        let widths = [1, 16, 3, 40, 9, 24, 8, 72, 130];
        assert_eq!(side_by_side_group_len(m.ncols(), widths), 7);
        assert_eq!(
            side_by_side_group_len(m.ncols(), widths[7..].iter().copied()),
            1
        );
        let bs: Vec<DenseMatrix> = widths
            .iter()
            .enumerate()
            .map(|(i, &n)| special_rhs(m.ncols(), n, i))
            .collect();
        let symmetric = AccConfig {
            symmetric_reorder: true,
            ..AccConfig::full()
        };
        let plans = KernelKind::ALL
            .iter()
            .map(|&kind| (kind, AccConfig::full()))
            .chain([(KernelKind::AccSpmm, symmetric)]);
        for (kind, config) in plans {
            let k = PreparedKernel::builder(kind, &m)
                .feature_dim(32)
                .config(config)
                .build()
                .unwrap();
            let singles: Vec<DenseMatrix> = bs.iter().map(|b| k.execute(b).unwrap()).collect();
            for threads in 1..=3 {
                let mut wss = vec![Workspace::new(); threads];
                for len in 0..=bs.len() {
                    let mut outs: Vec<DenseMatrix> = bs[..len]
                        .iter()
                        .map(|b| DenseMatrix::zeros(m.nrows(), b.ncols()))
                        .collect();
                    k.execute_batch_into(&bs[..len], &mut outs, &mut wss)
                        .unwrap();
                    for (got, want) in outs.iter().zip(&singles) {
                        assert_outputs_bit_identical(got, want);
                    }
                }
            }
        }
    }

    #[test]
    fn a_batch_needs_a_workspace_and_rethrows_a_helper_panic() {
        let (m, _) = workload();
        let k = PreparedKernel::builder(KernelKind::AccSpmm, &m)
            .feature_dim(8)
            .build()
            .unwrap();
        let bs: Vec<DenseMatrix> = (0..4)
            .map(|i| DenseMatrix::random(m.ncols(), 8, 40 + i))
            .collect();
        let mut outs: Vec<DenseMatrix> = (0..4).map(|_| DenseMatrix::zeros(m.nrows(), 8)).collect();
        assert!(matches!(
            k.execute_batch_into(&bs, &mut outs, &mut []),
            Err(SpmmError::InvalidConfig(_))
        ));
        // The last of three chunks panics on its spawned thread; the
        // panic reaches the caller once every chunk has finished.
        let mut wss = vec![Workspace::new(); 3];
        wss[2].inject_panic();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            k.execute_batch_into(&bs, &mut outs, &mut wss)
        }));
        let payload = caught.expect_err("the helper's panic is rethrown");
        let message = payload.downcast_ref::<String>().unwrap();
        assert_eq!(message, "injected panic in a batch chunk of 1");
        // The chunks that ran are complete and exact.
        for (got, b) in outs.iter().zip(&bs).take(3) {
            assert_outputs_bit_identical(got, &k.execute(b).unwrap());
        }
    }

    #[test]
    fn plan_artifacts_are_exposed() {
        let (m, _) = workload();
        let k = PreparedKernel::builder(KernelKind::AccSpmm, &m)
            .arch(Arch::A800)
            .feature_dim(32)
            .build()
            .unwrap();
        let wp = k.partition().expect("partition artifact retained");
        assert_eq!(wp.num_windows(), m.nrows().div_ceil(8));
        let model = k.execution_plan().model();
        assert!(model.perm().is_some(), "affinity reorder ran");
        assert!(matches!(k.format(), Some(TcFormat::BitTcf(_))));
        assert_eq!(model.stage_timings().len(), 4);
        // CSR kernels carry no TC artifacts.
        let base = PreparedKernel::builder(KernelKind::CusparseLike, &m)
            .arch(Arch::A800)
            .feature_dim(32)
            .build()
            .unwrap();
        let model = base.execution_plan().model();
        assert!(base.partition().is_none() && base.format().is_none() && model.perm().is_none());
    }

    #[test]
    fn traces_preserve_effective_flops() {
        let (m, _) = workload();
        let n = 32;
        let expect = 2 * m.nnz() as u64 * n as u64;
        for kind in KernelKind::ALL {
            let k = PreparedKernel::builder(kind, &m)
                .arch(Arch::A800)
                .feature_dim(n)
                .build()
                .unwrap();
            let desc = k.trace();
            assert_eq!(desc.effective_flops, expect, "{}", kind.name());
            assert!(
                desc.executed_flops() >= desc.effective_flops,
                "{} executes at least the effective work",
                kind.name()
            );
        }
    }

    #[test]
    fn tc_kernels_profile_faster_than_baseline_on_clusters() {
        // Dense-community matrix: TC kernels must beat cuSPARSE.
        let m = clustered(
            ClusteredConfig {
                n: 1024,
                cluster_size: 64,
                intra_deg: 24.0,
                inter_deg: 3.0,
                hub_fraction: 0.0,
                hub_factor: 1.0,
                shuffle: true,
                ..Default::default()
            },
            5,
        );
        let opts = SimOptions::default();
        let base = PreparedKernel::builder(KernelKind::CusparseLike, &m)
            .arch(Arch::A800)
            .feature_dim(128)
            .build()
            .unwrap()
            .profile(Arch::A800, &opts);
        let acc = PreparedKernel::builder(KernelKind::AccSpmm, &m)
            .arch(Arch::A800)
            .feature_dim(128)
            .build()
            .unwrap()
            .profile(Arch::A800, &opts);
        assert!(
            acc.time_s < base.time_s,
            "Acc {} vs cuSPARSE {}",
            acc.time_s,
            base.time_s
        );
    }

    #[test]
    fn symmetric_reorder_mode_is_numerically_identical() {
        let (m, b) = workload();
        let reference = m.spmm_dense(&b).unwrap();
        let tol = tf32_tolerance(m.nrows());
        let mut cfg = AccConfig::full();
        cfg.symmetric_reorder = true;
        let k = PreparedKernel::builder(KernelKind::AccSpmm, &m)
            .arch(Arch::A800)
            .feature_dim(b.ncols())
            .config(cfg)
            .build()
            .unwrap();
        let c = k.execute(&b).unwrap();
        assert!(
            c.approx_eq(&reference, tol, tol),
            "symmetric mode diverges: max diff {}",
            c.max_abs_diff(&reference)
        );
        // The zero-alloc and batched paths agree in symmetric mode too.
        let mut ws = Workspace::new();
        let mut out = DenseMatrix::zeros(m.nrows(), b.ncols());
        k.execute_into(&b, &mut out, &mut ws).unwrap();
        assert_eq!(out, c);
        let batched = k.execute_batch(std::slice::from_ref(&b)).unwrap();
        assert_eq!(batched[0], c);
    }

    #[test]
    fn symmetric_reorder_improves_dense_locality() {
        // The §6 future-work claim: with columns relabeled alongside rows
        // (and B permuted to match), the B-gather stream becomes local.
        let m = clustered(
            ClusteredConfig {
                n: 1024,
                cluster_size: 128,
                intra_deg: 24.0,
                inter_deg: 3.0,
                hub_fraction: 0.0,
                hub_factor: 1.0,
                shuffle: true,
                ..Default::default()
            },
            8,
        );
        let opts = SimOptions::scaled(8.0);
        let run = |symmetric: bool| {
            let mut cfg = AccConfig::full();
            cfg.symmetric_reorder = symmetric;
            PreparedKernel::builder(KernelKind::AccSpmm, &m)
                .arch(Arch::A800)
                .feature_dim(128)
                .config(cfg)
                .build()
                .unwrap()
                .profile(Arch::A800, &opts)
        };
        let rows_only = run(false);
        let symmetric = run(true);
        assert!(
            symmetric.l1_hit_rate >= rows_only.l1_hit_rate,
            "symmetric {:.3} vs rows-only {:.3}",
            symmetric.l1_hit_rate,
            rows_only.l1_hit_rate
        );
        assert!(symmetric.time_s <= rows_only.time_s * 1.01);
    }

    #[test]
    fn invalid_feature_dim_rejected() {
        let (m, _) = workload();
        assert!(PreparedKernel::builder(KernelKind::AccSpmm, &m)
            .arch(Arch::H100)
            .feature_dim(0)
            .build()
            .is_err());
    }
}
