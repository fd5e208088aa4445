//! The staged execution-plan pipeline.
//!
//! Preprocessing is decomposed into four explicit, trait-backed stages —
//! **Reorder → FormatBuild → BalancePlan → Compile** — each writing its
//! artifacts into a shared [`PlanContext`]. The six [`KernelKind`]s stop
//! being six hand-rolled prepare branches and become *stage
//! configurations* ([`StageSpec`]): which reordering to run, which
//! compressed format to materialize, which balance strategy to apply.
//!
//! The finished [`ExecutionPlan`] owns every intermediate the paper's
//! evaluation wants to inspect (row permutation, shared
//! [`WindowPartition`], compressed format, [`BalancePlan`], compiled
//! simulator trace, per-stage wall times), so downstream consumers —
//! stats reporting, profiling, batched execution — read artifacts
//! instead of recomputing them. This is the *preprocess once, use many
//! times* structure the paper amortizes across GNN training epochs.

use crate::acc::AccConfig;
use crate::{scalar, tc, KernelKind, TcFormat};
use spmm_balance::{BalancePlan, BalanceStrategy, ModelParams, PerfModel};
use spmm_common::{IsaTier, Result, SpmmError};
use spmm_format::{BitTcf, MeTcf, Tcf, WindowPartition};
use spmm_matrix::CsrMatrix;
use spmm_reorder::Algorithm;
use spmm_sim::{Arch, KernelDesc};
use std::time::Instant;

/// Which compressed format the FormatBuild stage materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatChoice {
    /// Keep CSR — the CUDA-core kernels consume the operand directly.
    Csr,
    /// TC-GNN's per-edge TCF.
    Tcf,
    /// DTC-SpMM's memory-efficient ME-TCF.
    MeTcf,
    /// The paper's bitmap BitTCF.
    BitTcf,
}

/// One kernel expressed as pipeline configuration: what each stage
/// should do. This is the whole difference between the six kernels on
/// the preprocessing side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpec {
    /// Row-reordering algorithm, if any. `Identity` and `Sgt` are
    /// no-permutation markers (SGT's squeezing lives in FormatBuild).
    pub reorder: Option<Algorithm>,
    /// Permute columns symmetrically alongside rows (§6 future work).
    pub symmetric: bool,
    /// Compressed format to build.
    pub format: FormatChoice,
    /// Balance strategy for the TC-block plan.
    pub balance: BalanceStrategy,
}

impl StageSpec {
    /// The stage configuration for `kind` under an Acc ablation
    /// `config` (the config only affects [`KernelKind::AccSpmm`]).
    pub fn for_kernel(kind: KernelKind, config: &AccConfig) -> StageSpec {
        match kind {
            KernelKind::CusparseLike | KernelKind::SputnikLike | KernelKind::SparseTirLike => {
                StageSpec {
                    reorder: None,
                    symmetric: false,
                    format: FormatChoice::Csr,
                    balance: BalanceStrategy::None,
                }
            }
            KernelKind::TcGnn => StageSpec {
                reorder: Some(Algorithm::Sgt),
                symmetric: false,
                format: FormatChoice::Tcf,
                balance: BalanceStrategy::None,
            },
            KernelKind::DtcSpmm => StageSpec {
                reorder: Some(Algorithm::DtcLsh),
                symmetric: false,
                format: FormatChoice::MeTcf,
                balance: BalanceStrategy::DtcStyle,
            },
            KernelKind::AccSpmm => StageSpec {
                reorder: Some(config.reorder),
                symmetric: config.symmetric_reorder,
                format: if config.use_bittcf {
                    FormatChoice::BitTcf
                } else {
                    FormatChoice::MeTcf
                },
                balance: config.balance,
            },
        }
    }
}

/// Wall time of one pipeline stage.
#[derive(Debug, Clone, Copy)]
pub struct StageTiming {
    /// Stage name (matches [`PlanStage::name`]).
    pub stage: &'static str,
    /// Elapsed seconds.
    pub seconds: f64,
}

/// The shared artifact store the stages read from and write into.
#[derive(Debug, Clone)]
pub struct PlanContext {
    /// Which kernel this plan is for.
    pub kind: KernelKind,
    /// Target architecture (the balance model needs its spec).
    pub arch: Arch,
    /// Dense-operand feature dimension.
    pub feature_dim: usize,
    /// Acc ablation configuration (trace compilation reads it).
    pub config: AccConfig,
    /// The stage configuration derived from `kind` + `config`.
    pub spec: StageSpec,
    /// The sparse operand; Reorder replaces it with the permuted matrix.
    pub csr: CsrMatrix,
    /// Content fingerprint of the *unprocessed* input operand, taken
    /// before any permutation — the stable identity serving caches key
    /// plans by.
    pub input_fingerprint: u64,
    /// Row permutation applied (`perm[old] = new`), if any.
    pub perm: Option<Vec<u32>>,
    /// Shared window squeezing, built once by FormatBuild for all TC
    /// formats (and retained for stats).
    pub partition: Option<WindowPartition>,
    /// The materialized compressed format (TC kernels).
    pub format: Option<TcFormat>,
    /// The balance plan (TC kernels).
    pub balance: Option<BalancePlan>,
    /// The compiled simulator trace.
    pub trace: Option<KernelDesc>,
    /// Per-stage wall times, in execution order.
    pub timings: Vec<StageTiming>,
    /// The host SIMD tier the CPU compute core is bound to, resolved
    /// once here at plan build (config pin → `SPMM_FORCE_ISA` →
    /// capability probe) and threaded through format pre-rounding and
    /// every execution path. Every tier is bit-identical, so this is
    /// pure speed plus provenance.
    pub isa_tier: IsaTier,
}

impl PlanContext {
    /// A fresh context holding the unprocessed operand.
    pub fn new(
        kind: KernelKind,
        csr: CsrMatrix,
        arch: Arch,
        feature_dim: usize,
        config: AccConfig,
    ) -> Self {
        let input_fingerprint = csr.content_fingerprint();
        PlanContext {
            kind,
            arch,
            feature_dim,
            config,
            spec: StageSpec::for_kernel(kind, &config),
            csr,
            input_fingerprint,
            perm: None,
            partition: None,
            format: None,
            balance: None,
            trace: None,
            timings: Vec::new(),
            // An unavailable pin falls back to the probe here; the
            // build entry points validate the pin first and surface it
            // as an InvalidConfig error instead.
            isa_tier: IsaTier::resolve(config.isa).unwrap_or_else(|_| IsaTier::probe()),
        }
    }
}

/// One step of the preprocessing pipeline: reads earlier artifacts from
/// the context, writes its own.
pub trait PlanStage {
    /// Stage name for timings and diagnostics.
    fn name(&self) -> &'static str;
    /// Run the stage against the shared context.
    fn run(&self, ctx: &mut PlanContext) -> Result<()>;
}

/// Stage 1 — row (or symmetric) reordering per the spec's algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReorderStage;

impl PlanStage for ReorderStage {
    fn name(&self) -> &'static str {
        "reorder"
    }

    fn run(&self, ctx: &mut PlanContext) -> Result<()> {
        let alg = match ctx.spec.reorder {
            // Identity and SGT reorder nothing: SGT's contribution is the
            // column squeezing every TC format already performs.
            Some(alg) if alg != Algorithm::Identity && alg != Algorithm::Sgt => alg,
            _ => return Ok(()),
        };
        // Graph-based orderings need square adjacency semantics. Sharded
        // row-blocks are rectangular, so those fall back to DTC-LSH row
        // clustering — reorder choice never affects output bits (only
        // block packing), so the fallback is purely a quality trade.
        let alg = if ctx.csr.nrows() != ctx.csr.ncols() && alg.requires_square() {
            if ctx.spec.symmetric {
                return Err(SpmmError::InvalidConfig(
                    "symmetric reordering requires a square operand".into(),
                ));
            }
            Algorithm::DtcLsh
        } else {
            alg
        };
        let perm = spmm_reorder::reorder(&ctx.csr, alg);
        ctx.csr = if ctx.spec.symmetric {
            // Future-work mode (§6): relabel rows AND columns; B's rows
            // are permuted to match at execution time.
            ctx.csr.permute_symmetric(&perm)?
        } else {
            ctx.csr.permute_rows(&perm)?
        };
        ctx.perm = Some(perm);
        Ok(())
    }
}

/// Stage 2 — build the shared window partition and materialize the
/// spec's compressed format from it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FormatBuildStage;

impl PlanStage for FormatBuildStage {
    fn name(&self) -> &'static str {
        "format_build"
    }

    fn run(&self, ctx: &mut PlanContext) -> Result<()> {
        if ctx.spec.format == FormatChoice::Csr {
            return Ok(());
        }
        let wp = WindowPartition::build(&ctx.csr);
        spmm_trace::counter_add("plan.format_build.windows", wp.num_windows() as u64);
        spmm_trace::counter_add("plan.parallel_workers", rayon::current_num_threads() as u64);
        let mut format = match ctx.spec.format {
            FormatChoice::Tcf => TcFormat::Tcf(Tcf::from_partition(&ctx.csr, &wp)),
            FormatChoice::MeTcf => TcFormat::MeTcf(MeTcf::from_partition(&ctx.csr, &wp)),
            FormatChoice::BitTcf => TcFormat::BitTcf(BitTcf::from_partition(&ctx.csr, &wp)),
            FormatChoice::Csr => unreachable!(),
        };
        // TC execution rounds A to TF32 anyway; rounding once at compile
        // time is bit-identical (idempotent) and turns every block
        // multiply into a pure mul-add. Plan-owned formats are execution
        // artifacts, so the lossy in-place rounding is safe here.
        format.preround_values_tier(ctx.isa_tier);
        ctx.format = Some(format);
        ctx.partition = Some(wp);
        Ok(())
    }
}

/// Stage 3 — TC-block balance planning over the partition's
/// blocks-per-window distribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct BalanceStage;

impl PlanStage for BalanceStage {
    fn name(&self) -> &'static str {
        "balance"
    }

    fn run(&self, ctx: &mut PlanContext) -> Result<()> {
        let Some(wp) = ctx.partition.as_ref() else {
            return Ok(()); // CSR kernels schedule by row, not by block.
        };
        let spec = ctx.arch.spec();
        let model = PerfModel::new(ModelParams {
            feature_dim: ctx.feature_dim,
            bandwidth: spec.dram_bw_gbps * 1e9,
            flops: spec.tc_tf32_tflops * 1e12,
            num_sms: spec.num_sms,
        });
        ctx.balance = Some(spmm_balance::plan(
            &wp.blocks_per_window(),
            ctx.spec.balance,
            &model,
        ));
        Ok(())
    }
}

/// Stage 4 — compile the kernel's work into a simulator trace, cached
/// on the plan so repeated profiling never re-walks the format.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileStage;

impl PlanStage for CompileStage {
    fn name(&self) -> &'static str {
        "compile"
    }

    fn run(&self, ctx: &mut PlanContext) -> Result<()> {
        let mut desc = match ctx.kind {
            KernelKind::CusparseLike => scalar::cusparse_trace(&ctx.csr, ctx.feature_dim),
            KernelKind::SputnikLike => scalar::sputnik_trace(&ctx.csr, ctx.feature_dim),
            KernelKind::SparseTirLike => scalar::sparsetir_trace(&ctx.csr, ctx.feature_dim),
            kind @ (KernelKind::TcGnn | KernelKind::DtcSpmm | KernelKind::AccSpmm) => {
                let kernel = format!("{kind:?}");
                let format = ctx
                    .format
                    .as_ref()
                    .ok_or_else(|| missing_artifact(&kernel, "TC format"))?;
                let balance = ctx
                    .balance
                    .as_ref()
                    .ok_or_else(|| missing_artifact(&kernel, "balance plan"))?;
                match kind {
                    KernelKind::TcGnn => tc::tcgnn_trace(format, balance, ctx.feature_dim),
                    KernelKind::DtcSpmm => tc::dtc_trace(format, balance, ctx.feature_dim),
                    _ => tc::acc_trace(format, balance, ctx.feature_dim, &ctx.config),
                }
            }
        };
        // The trace builders don't know the tier; the compile stage is
        // where the plan-level binding gets stamped into the artifact.
        desc.isa_tier = ctx.isa_tier;
        ctx.trace = Some(desc);
        Ok(())
    }
}

/// Span name for a pipeline stage (span names must be `'static`, so the
/// four stage names map onto a fixed taxonomy under `plan.`).
fn stage_span_name(stage: &str) -> &'static str {
    match stage {
        "reorder" => "plan.reorder",
        "format_build" => "plan.format_build",
        "balance" => "plan.balance",
        "compile" => "plan.compile",
        _ => "plan.stage",
    }
}

fn missing_artifact(kernel: &str, what: &str) -> SpmmError {
    SpmmError::InvalidConfig(format!(
        "{kernel} trace compilation needs the {what} artifact; run the earlier stages first"
    ))
}

/// The default stage order.
pub fn default_stages() -> Vec<Box<dyn PlanStage>> {
    vec![
        Box::new(ReorderStage),
        Box::new(FormatBuildStage),
        Box::new(BalanceStage),
        Box::new(CompileStage),
    ]
}

/// A finished plan: every preprocessing artifact for one (kernel,
/// matrix, architecture, feature-dim) binding.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    ctx: PlanContext,
    /// Tensor-core plans: the operand's execution rows in *original*
    /// row order (see [`ExecutionPlan::exec_rows`]), derived when the
    /// plan is built, repaired or loaded. Derived data: never
    /// serialized.
    exec_rows: Option<CsrMatrix>,
}

impl ExecutionPlan {
    /// Run the full pipeline.
    pub fn build(
        kind: KernelKind,
        m: &CsrMatrix,
        arch: Arch,
        feature_dim: usize,
        config: AccConfig,
    ) -> Result<Self> {
        if feature_dim == 0 {
            return Err(SpmmError::InvalidConfig("feature_dim must be > 0".into()));
        }
        // Resolve the SIMD tier up front so a pinned-but-unavailable
        // tier is a build error, not a silent scalar fallback.
        IsaTier::resolve(config.isa)?;
        let _plan_span = spmm_trace::span("plan.build");
        let mut ctx = PlanContext::new(kind, m.clone(), arch, feature_dim, config);
        for stage in default_stages() {
            let _stage_span = spmm_trace::span(stage_span_name(stage.name()));
            let t0 = Instant::now();
            stage.run(&mut ctx)?;
            ctx.timings.push(StageTiming {
                stage: stage.name(),
                seconds: t0.elapsed().as_secs_f64(),
            });
        }
        spmm_trace::counter_add("plan.builds", 1);
        record_isa_counters(ctx.isa_tier);
        ExecutionPlan::from_context(ctx)
    }

    /// Wrap a populated context — the one constructor, shared by build,
    /// repair ([`crate::repair`]) and the plan-IR loader ([`crate::ir`]),
    /// so the derived execution rows are always in step with the operand
    /// and the permutation. Deriving them is compile work: it runs
    /// under a `plan.compile` span and its wall time is added to the
    /// context's `compile` stage timing, when it has one. The caller is
    /// responsible for the context's cross-artifact consistency.
    ///
    /// # Errors
    /// If the row permutation is not a permutation of the operand's
    /// rows, or the context holds one on a CUDA-core plan, whose
    /// executor cannot undo it.
    pub(crate) fn from_context(mut ctx: PlanContext) -> Result<Self> {
        let t0 = Instant::now();
        let exec_rows = {
            let _span = spmm_trace::span("plan.compile");
            derive_exec_rows(&ctx)?
        };
        if let Some(t) = ctx.timings.iter_mut().find(|t| t.stage == "compile") {
            t.seconds += t0.elapsed().as_secs_f64();
        }
        Ok(ExecutionPlan { ctx, exec_rows })
    }

    /// Replace the stage timings (a loaded plan reports the timings it
    /// was saved with).
    pub(crate) fn with_stage_timings(mut self, timings: Vec<StageTiming>) -> Self {
        self.ctx.timings = timings;
        self
    }

    /// The full artifact store (incremental repair reads and rewrites
    /// it; see [`crate::repair`]).
    pub(crate) fn context(&self) -> &PlanContext {
        &self.ctx
    }

    /// Kernel identity.
    pub fn kind(&self) -> KernelKind {
        self.ctx.kind
    }

    /// Target architecture.
    pub fn arch(&self) -> Arch {
        self.ctx.arch
    }

    /// Feature dimension the plan was built for.
    pub fn feature_dim(&self) -> usize {
        self.ctx.feature_dim
    }

    /// The Acc ablation configuration.
    pub fn config(&self) -> &AccConfig {
        &self.ctx.config
    }

    /// The stage configuration this plan executed.
    pub fn stage_spec(&self) -> &StageSpec {
        &self.ctx.spec
    }

    /// The (possibly permuted) sparse operand.
    pub fn csr(&self) -> &CsrMatrix {
        &self.ctx.csr
    }

    /// Content fingerprint of the unprocessed input operand (taken
    /// before reordering) — the identity plan caches key on.
    pub fn input_fingerprint(&self) -> u64 {
        self.ctx.input_fingerprint
    }

    /// Row permutation applied, if any.
    pub fn perm(&self) -> Option<&[u32]> {
        self.ctx.perm.as_deref()
    }

    /// Whether the permutation was applied to columns too.
    pub fn symmetric(&self) -> bool {
        self.ctx.spec.symmetric
    }

    /// The shared window partition (TC kernels).
    pub fn partition(&self) -> Option<&WindowPartition> {
        self.ctx.partition.as_ref()
    }

    /// The compressed format (TC kernels).
    pub fn format(&self) -> Option<&TcFormat> {
        self.ctx.format.as_ref()
    }

    /// The balance plan (TC kernels).
    pub fn balance(&self) -> Option<&BalancePlan> {
        self.ctx.balance.as_ref()
    }

    /// The execution rows of a tensor-core plan, in original row order:
    /// row `old` is permuted row `perm[old]` of [`ExecutionPlan::csr`]
    /// with TF32 values, each against the B row it scales
    /// ([`spmm_format::execution_rows`]). BitTCF and ME-TCF plans drop the
    /// values that round to ±0, as their tile MMAs skip them; TCF plans
    /// keep them, as TC-GNN's per-edge loop multiplies every edge. A
    /// multiply is the CSR row loop over them and a TF32 stage of B.
    pub fn exec_rows(&self) -> Option<&CsrMatrix> {
        self.exec_rows.as_ref()
    }

    /// Bytes the execution rows hold (row pointers, B rows and values);
    /// 0 for plans without them.
    pub fn exec_bytes(&self) -> usize {
        self.exec_rows.as_ref().map_or(0, |rows| {
            std::mem::size_of_val(rows.row_ptr())
                + std::mem::size_of_val(rows.col_idx())
                + std::mem::size_of_val(rows.values())
        })
    }

    /// The compiled trace.
    pub fn compiled_trace(&self) -> &KernelDesc {
        self.ctx
            .trace
            .as_ref()
            .expect("ExecutionPlan::build always compiles a trace")
    }

    /// The host SIMD tier the plan's CPU compute core is bound to.
    pub fn isa_tier(&self) -> IsaTier {
        self.ctx.isa_tier
    }

    /// Per-stage wall times in execution order.
    pub fn stage_timings(&self) -> &[StageTiming] {
        &self.ctx.timings
    }

    /// Total preprocessing wall time (sum over stages).
    pub fn preprocess_seconds(&self) -> f64 {
        self.ctx.timings.iter().map(|t| t.seconds).sum()
    }
}

/// The execution rows of a tensor-core plan, in original row order:
/// row `old` is permuted row `perm[old]` of the operand.
fn derive_exec_rows(ctx: &PlanContext) -> Result<Option<CsrMatrix>> {
    let order = ctx.perm.as_deref();
    let skip_zeros = match ctx.spec.format {
        FormatChoice::Csr if order.is_some() => {
            return Err(SpmmError::InvalidConfig(format!(
                "{:?} plans cannot carry a row permutation",
                ctx.kind
            )))
        }
        FormatChoice::Csr => return Ok(None),
        FormatChoice::Tcf => false,
        FormatChoice::MeTcf | FormatChoice::BitTcf => true,
    };
    spmm_format::execution_rows(&ctx.csr, order, skip_zeros).map(Some)
}

/// Record the plan's tier binding as trace gauges: the tier's stable
/// code and its vector width (f32 lanes).
fn record_isa_counters(tier: IsaTier) {
    spmm_trace::counter_set("plan.isa_tier", tier.code() as u64);
    spmm_trace::counter_set("kernel.simd_lanes", tier.simd_lanes() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_matrix::gen::uniform_random;

    fn ctx_for(kind: KernelKind) -> PlanContext {
        let m = uniform_random(96, 6.0, 3);
        PlanContext::new(kind, m, Arch::A800, 32, AccConfig::full())
    }

    #[test]
    fn stage_specs_encode_the_six_kernels() {
        let full = AccConfig::full();
        for kind in [
            KernelKind::CusparseLike,
            KernelKind::SputnikLike,
            KernelKind::SparseTirLike,
        ] {
            let s = StageSpec::for_kernel(kind, &full);
            assert_eq!(s.format, FormatChoice::Csr);
            assert_eq!(s.reorder, None);
            assert_eq!(s.balance, BalanceStrategy::None);
        }
        let tcgnn = StageSpec::for_kernel(KernelKind::TcGnn, &full);
        assert_eq!(tcgnn.format, FormatChoice::Tcf);
        let dtc = StageSpec::for_kernel(KernelKind::DtcSpmm, &full);
        assert_eq!(dtc.format, FormatChoice::MeTcf);
        assert_eq!(dtc.reorder, Some(Algorithm::DtcLsh));
        let acc = StageSpec::for_kernel(KernelKind::AccSpmm, &full);
        assert_eq!(acc.format, FormatChoice::BitTcf);
        assert_eq!(acc.balance, BalanceStrategy::AccAdaptive);
        // The ablation base flips Acc back to the DTC-style format.
        let base = StageSpec::for_kernel(KernelKind::AccSpmm, &AccConfig::base());
        assert_eq!(base.format, FormatChoice::MeTcf);
        assert_eq!(base.reorder, Some(Algorithm::DtcLsh));
    }

    #[test]
    fn reorder_stage_permutes_only_when_asked() {
        let mut ctx = ctx_for(KernelKind::CusparseLike);
        ReorderStage.run(&mut ctx).unwrap();
        assert!(ctx.perm.is_none(), "CSR kernels never reorder");

        let mut ctx = ctx_for(KernelKind::TcGnn);
        ReorderStage.run(&mut ctx).unwrap();
        assert!(ctx.perm.is_none(), "SGT is a no-permutation marker");

        let mut ctx = ctx_for(KernelKind::AccSpmm);
        let nnz = ctx.csr.nnz();
        ReorderStage.run(&mut ctx).unwrap();
        let perm = ctx.perm.as_ref().expect("affinity reorder permutes");
        assert_eq!(perm.len(), ctx.csr.nrows());
        assert!(spmm_common::util::is_permutation(perm));
        assert_eq!(ctx.csr.nnz(), nnz, "permutation preserves nnz");
    }

    #[test]
    fn format_stage_builds_partition_and_format_together() {
        let mut ctx = ctx_for(KernelKind::AccSpmm);
        FormatBuildStage.run(&mut ctx).unwrap();
        let wp = ctx.partition.as_ref().expect("partition retained");
        match ctx.format.as_ref().expect("format built") {
            TcFormat::BitTcf(f) => {
                assert_eq!(f.num_tc_blocks(), wp.num_tc_blocks());
                assert_eq!(f.num_windows(), wp.num_windows());
            }
            other => panic!("full Acc config must build BitTcf, got {other:?}"),
        }

        let mut ctx = ctx_for(KernelKind::SputnikLike);
        FormatBuildStage.run(&mut ctx).unwrap();
        assert!(ctx.partition.is_none() && ctx.format.is_none());
    }

    #[test]
    fn balance_stage_plans_over_the_partition() {
        let mut ctx = ctx_for(KernelKind::AccSpmm);
        BalanceStage.run(&mut ctx).unwrap();
        assert!(ctx.balance.is_none(), "no partition yet, nothing to plan");
        FormatBuildStage.run(&mut ctx).unwrap();
        BalanceStage.run(&mut ctx).unwrap();
        let plan = ctx.balance.as_ref().expect("balance planned");
        let total: usize = ctx
            .partition
            .as_ref()
            .unwrap()
            .blocks_per_window()
            .iter()
            .sum();
        assert_eq!(
            plan.tbs.iter().map(|tb| tb.num_blocks()).sum::<usize>(),
            total,
            "plan covers every TC block exactly once"
        );
    }

    #[test]
    fn compile_stage_requires_upstream_artifacts() {
        let mut ctx = ctx_for(KernelKind::AccSpmm);
        assert!(CompileStage.run(&mut ctx).is_err(), "no format yet");
        FormatBuildStage.run(&mut ctx).unwrap();
        BalanceStage.run(&mut ctx).unwrap();
        CompileStage.run(&mut ctx).unwrap();
        let desc = ctx.trace.as_ref().expect("trace compiled");
        assert_eq!(
            desc.effective_flops,
            2 * ctx.csr.nnz() as u64 * ctx.feature_dim as u64
        );
    }

    #[test]
    fn full_plan_records_every_stage_timing() {
        let m = uniform_random(128, 5.0, 7);
        let plan = ExecutionPlan::build(KernelKind::AccSpmm, &m, Arch::A800, 64, AccConfig::full())
            .unwrap();
        let names: Vec<&str> = plan.stage_timings().iter().map(|t| t.stage).collect();
        assert_eq!(names, ["reorder", "format_build", "balance", "compile"]);
        assert!(plan.stage_timings().iter().all(|t| t.seconds >= 0.0));
        assert!(plan.preprocess_seconds() >= 0.0);
        assert!(plan.partition().is_some());
        assert!(plan.balance().is_some());
        assert!(plan.compiled_trace().effective_flops > 0);
    }

    #[test]
    fn zero_feature_dim_rejected() {
        let m = uniform_random(32, 4.0, 1);
        assert!(
            ExecutionPlan::build(KernelKind::AccSpmm, &m, Arch::A800, 0, AccConfig::full())
                .is_err()
        );
    }
}
