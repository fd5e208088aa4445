//! Execution plans: a host part every multiply reads, and a model part
//! built on demand.
//!
//! The **host part** of an [`ExecutionPlan`] is what a multiply on this
//! host reads: the operand, its execution rows, the ISA tier the row
//! core runs on and the kernel's [`Precision`]. [`ExecutionPlan::build`],
//! repair ([`crate::repair`]) and the plan-IR loader ([`crate::ir`])
//! construct only this part.
//!
//! The **model part** ([`PlanModel`]) holds the artifacts the paper's
//! GPU kernels run on and that the simulator, the stats and the figure
//! binaries read: the reorder permutation, the shared
//! [`WindowPartition`], the compressed format, the [`BalancePlan`] and
//! the compiled [`KernelDesc`], with their stage wall times. It is built
//! once, from the host part, the first time [`ExecutionPlan::model`] is
//! called: reorder → format build → balance → compile, four plain
//! functions configured by the kernel's [`StageSpec`]. The model never
//! changes an output bit: execution reads only the host part.

use crate::acc::AccConfig;
use crate::{scalar, tc, KernelKind, TcFormat};
use spmm_balance::{BalancePlan, BalanceStrategy, ModelParams, PerfModel};
use spmm_common::{IsaTier, Result, SpmmError};
use spmm_format::{BitTcf, MeTcf, Tcf, WindowPartition};
use spmm_matrix::CsrMatrix;
use spmm_reorder::Algorithm;
use spmm_sim::{Arch, KernelDesc};
use std::borrow::Cow;
use std::sync::OnceLock;
use std::time::Instant;

/// Which compressed format the model's format build materializes.
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

/// The operand precision a kernel's host multiply runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// FP32 operands: the three CUDA-core kernels multiply the CSR
    /// operand as stored.
    Fp32,
    /// TF32 operands with the values that round to ±0 kept: TC-GNN's
    /// per-edge loop multiplies every edge.
    Tf32KeepZeros,
    /// TF32 operands with the values that round to ±0 dropped: the
    /// BitTCF and ME-TCF tile MMAs of DTC-SpMM and Acc-SpMM skip them.
    Tf32DropZeros,
}

impl Precision {
    /// The precision of a kernel whose model builds `format`.
    pub fn of(format: FormatChoice) -> Precision {
        match format {
            FormatChoice::Csr => Precision::Fp32,
            FormatChoice::Tcf => Precision::Tf32KeepZeros,
            FormatChoice::MeTcf | FormatChoice::BitTcf => Precision::Tf32DropZeros,
        }
    }
}

/// Wall time of one build stage.
#[derive(Debug, Clone, Copy)]
pub struct StageTiming {
    /// Stage name: `reorder`, `format_build`, `balance` or `compile`.
    pub stage: &'static str,
    /// Elapsed seconds.
    pub seconds: f64,
}

/// Run `f` under the `plan.<stage>` span and record its wall time.
fn timed<T>(
    timings: &mut Vec<StageTiming>,
    stage: &'static str,
    span: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let _span = spmm_trace::span(span);
    let t0 = Instant::now();
    let out = f();
    timings.push(StageTiming {
        stage,
        seconds: t0.elapsed().as_secs_f64(),
    });
    out
}

/// The row permutation (`perm[old] = new`) `spec` asks for on `m`, if
/// it asks for one. Identity and SGT reorder nothing: SGT's
/// contribution is the column squeezing every TC format already
/// performs.
///
/// # Errors
/// Symmetric reordering of a non-square operand.
pub fn reorder(spec: &StageSpec, m: &CsrMatrix) -> Result<Option<Vec<u32>>> {
    let alg = match spec.reorder {
        Some(alg) if alg != Algorithm::Identity && alg != Algorithm::Sgt => alg,
        _ => return Ok(None),
    };
    // Graph-based orderings need square adjacency semantics. Sharded
    // row-blocks are rectangular, so those fall back to DTC-LSH row
    // clustering — reorder choice never affects output bits (only
    // block packing), so the fallback is purely a quality trade.
    let alg = if m.nrows() != m.ncols() && alg.requires_square() {
        if spec.symmetric {
            return Err(SpmmError::InvalidConfig(
                "symmetric reordering requires a square operand".into(),
            ));
        }
        Algorithm::DtcLsh
    } else {
        alg
    };
    Ok(Some(spmm_reorder::reorder(m, alg)))
}

/// The shared window partition of the (permuted) operand and the
/// spec's compressed format built from it, values rounded to TF32 once
/// (idempotent, so every multiply of the format stays bit-identical);
/// `None` for the CSR kernels.
pub fn format_build(
    format: FormatChoice,
    m: &CsrMatrix,
    tier: IsaTier,
) -> Option<(WindowPartition, TcFormat)> {
    if format == FormatChoice::Csr {
        return None;
    }
    let wp = WindowPartition::build(m);
    spmm_trace::counter_add("plan.format_build.windows", wp.num_windows() as u64);
    spmm_trace::counter_add("plan.parallel_workers", rayon::current_num_threads() as u64);
    let mut format = match format {
        FormatChoice::Csr => unreachable!("returned above"),
        FormatChoice::Tcf => TcFormat::Tcf(Tcf::from_partition(m, &wp)),
        FormatChoice::MeTcf => TcFormat::MeTcf(MeTcf::from_partition(m, &wp)),
        FormatChoice::BitTcf => TcFormat::BitTcf(BitTcf::from_partition(m, &wp)),
    };
    format.preround_values_tier(tier);
    Some((wp, format))
}

/// The TC-block balance plan over `wp`'s blocks-per-window
/// distribution, under `arch`'s bandwidth and tensor-core throughput.
pub fn balance(
    wp: &WindowPartition,
    strategy: BalanceStrategy,
    arch: Arch,
    feature_dim: usize,
) -> BalancePlan {
    let spec = arch.spec();
    let model = PerfModel::new(ModelParams {
        feature_dim,
        bandwidth: spec.dram_bw_gbps * 1e9,
        flops: spec.tc_tf32_tflops * 1e12,
        num_sms: spec.num_sms,
    });
    spmm_balance::plan(&wp.blocks_per_window(), strategy, &model)
}

/// The kernel's work compiled into a simulator trace: the CUDA-core
/// kernels' from the (permuted) operand `m`, the TC kernels' from their
/// format and balance plan. The trace is stamped with `tier`.
///
/// # Errors
/// A tensor-core kernel without its format and balance plan.
pub fn compile(
    kind: KernelKind,
    config: &AccConfig,
    m: &CsrMatrix,
    tc_plan: Option<(&TcFormat, &BalancePlan)>,
    feature_dim: usize,
    tier: IsaTier,
) -> Result<KernelDesc> {
    let mut desc = match (kind, tc_plan) {
        (KernelKind::CusparseLike, _) => scalar::cusparse_trace(m, feature_dim),
        (KernelKind::SputnikLike, _) => scalar::sputnik_trace(m, feature_dim),
        (KernelKind::SparseTirLike, _) => scalar::sparsetir_trace(m, feature_dim),
        (KernelKind::TcGnn, Some((f, b))) => tc::tcgnn_trace(f, b, feature_dim),
        (KernelKind::DtcSpmm, Some((f, b))) => tc::dtc_trace(f, b, feature_dim),
        (KernelKind::AccSpmm, Some((f, b))) => tc::acc_trace(f, b, feature_dim, config),
        (kind, None) => {
            return Err(SpmmError::InvalidConfig(format!(
                "{kind:?} trace compilation needs the TC format and balance plan; \
                 run the earlier stages first"
            )))
        }
    };
    desc.isa_tier = tier;
    Ok(desc)
}

/// The model part of a plan: every artifact the simulator, the stats
/// and the figure binaries read, and none that a host multiply reads.
#[derive(Debug, Clone)]
pub struct PlanModel {
    perm: Option<Vec<u32>>,
    tc: Option<TcModel>,
    trace: KernelDesc,
    timings: Vec<StageTiming>,
}

/// The tensor-core kernels' share of a [`PlanModel`].
#[derive(Debug, Clone)]
struct TcModel {
    partition: WindowPartition,
    format: TcFormat,
    balance: BalancePlan,
}

impl PlanModel {
    /// Build the model of `plan` from its host part. A symmetric plan's
    /// model reuses the permutation the host part holds; any other
    /// plan's reorders its operand afresh, so a model depends only on
    /// the operand and the binding.
    fn build(plan: &ExecutionPlan) -> PlanModel {
        let _span = spmm_trace::span("plan.model");
        spmm_trace::counter_add("plan.model_builds", 1);
        let spec = &plan.spec;
        let mut timings = Vec::with_capacity(4);
        let perm = match &plan.perm {
            Some(perm) => {
                timings.push(StageTiming {
                    stage: "reorder",
                    seconds: 0.0,
                });
                Some(perm.clone())
            }
            None => timed(&mut timings, "reorder", "plan.reorder", || {
                reorder(spec, &plan.csr)
            })
            .expect("the host build validated the reorder"),
        };
        // The operand the blocks pack: the host's, row-permuted unless
        // the host already relabeled it.
        let permuted = match (&perm, &plan.perm) {
            (Some(p), None) => Some(plan.csr.permute_rows(p).expect("reorder permutes the rows")),
            _ => None,
        };
        let m = permuted.as_ref().unwrap_or(&plan.csr);
        let built = timed(&mut timings, "format_build", "plan.format_build", || {
            format_build(spec.format, m, plan.isa_tier)
        });
        let tc = built.map(|(partition, format)| {
            let balance = timed(&mut timings, "balance", "plan.balance", || {
                balance(&partition, spec.balance, plan.arch, plan.feature_dim)
            });
            TcModel {
                partition,
                format,
                balance,
            }
        });
        if tc.is_none() {
            timings.push(StageTiming {
                stage: "balance",
                seconds: 0.0,
            });
        }
        let trace = timed(&mut timings, "compile", "plan.compile", || {
            let tc_plan = tc.as_ref().map(|t| (&t.format, &t.balance));
            compile(
                plan.kind,
                &plan.config,
                m,
                tc_plan,
                plan.feature_dim,
                plan.isa_tier,
            )
            .expect("format_build ran for every TC kernel")
        });
        PlanModel {
            perm,
            tc,
            trace,
            timings,
        }
    }

    /// The row permutation the blocks were packed under (`perm[old] =
    /// new`), if the kernel reorders.
    pub fn perm(&self) -> Option<&[u32]> {
        self.perm.as_deref()
    }

    /// The shared window partition (TC kernels).
    pub fn partition(&self) -> Option<&WindowPartition> {
        self.tc.as_ref().map(|t| &t.partition)
    }

    /// The compressed format, values rounded to TF32 (TC kernels).
    pub fn format(&self) -> Option<&TcFormat> {
        self.tc.as_ref().map(|t| &t.format)
    }

    /// The balance plan (TC kernels).
    pub fn balance(&self) -> Option<&BalancePlan> {
        self.tc.as_ref().map(|t| &t.balance)
    }

    /// The compiled simulator trace.
    pub fn trace(&self) -> &KernelDesc {
        &self.trace
    }

    /// Wall times of the model's four stages, in build order. A stage
    /// the kernel skips reads 0.
    pub fn stage_timings(&self) -> &[StageTiming] {
        &self.timings
    }

    /// Total wall time of the model build (sum over its stages).
    pub fn build_seconds(&self) -> f64 {
        self.timings.iter().map(|t| t.seconds).sum()
    }
}

/// A plan for one (kernel, matrix, architecture, feature-dim) binding:
/// the host part a multiply reads, and the [`PlanModel`] built on first
/// use.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    kind: KernelKind,
    arch: Arch,
    feature_dim: usize,
    config: AccConfig,
    spec: StageSpec,
    /// The operand as the host multiplies it: the input operand, or in
    /// symmetric mode the relabeled one.
    csr: CsrMatrix,
    input_fingerprint: u64,
    /// Symmetric mode's relabeling of rows and columns; `None` in every
    /// other mode.
    perm: Option<Vec<u32>>,
    /// Tensor-core plans' execution rows (see [`ExecutionPlan::exec_rows`]).
    exec_rows: Option<CsrMatrix>,
    isa_tier: IsaTier,
    timings: Vec<StageTiming>,
    model: OnceLock<PlanModel>,
}

impl ExecutionPlan {
    /// Build the host part of a plan for `kind` over `m`. Only symmetric
    /// mode reorders here, as its rows multiply relabeled columns; every
    /// other artifact waits for [`ExecutionPlan::model`].
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
        let tier = IsaTier::resolve(config.isa)?;
        let _plan_span = spmm_trace::span("plan.build");
        let spec = StageSpec::for_kernel(kind, &config);
        let mut timings = Vec::new();
        // Future-work mode (§6): relabel rows AND columns; B's rows are
        // permuted to match at execution time.
        let perm = if spec.symmetric {
            timed(&mut timings, "reorder", "plan.reorder", || {
                reorder(&spec, m)
            })?
        } else {
            None
        };
        spmm_trace::counter_add("plan.builds", 1);
        record_isa_counters(tier);
        ExecutionPlan::from_host(
            HostPart {
                kind,
                arch,
                feature_dim,
                config,
                input: Cow::Borrowed(m),
                perm,
                timings,
            },
            None,
        )
    }

    /// Complete a host part: fingerprint its input operand, relabel it
    /// by the permutation if there is one, and derive its execution
    /// rows — the one constructor, shared by build, repair
    /// ([`crate::repair`]) and the plan-IR loader ([`crate::ir`]).
    /// Deriving the rows is compile work: it runs under a `plan.compile`
    /// span and is timed as the `compile` stage. Given `prior` — a
    /// repaired plan's old execution rows and the operand rows that
    /// changed since, strictly ascending — a plan without a permutation
    /// splices them ([`spmm_format::splice_execution_rows`]) and derives
    /// only the changed rows; a symmetric plan derives all of its rows.
    ///
    /// # Errors
    /// If the permutation is not a permutation of a square operand's
    /// rows, or is held outside symmetric mode.
    pub(crate) fn from_host(
        host: HostPart<'_>,
        prior: Option<(&CsrMatrix, &[usize])>,
    ) -> Result<Self> {
        let HostPart {
            kind,
            arch,
            feature_dim,
            config,
            input,
            perm,
            mut timings,
        } = host;
        let spec = StageSpec::for_kernel(kind, &config);
        if perm.is_some() && !spec.symmetric {
            return Err(SpmmError::InvalidConfig(format!(
                "{kind:?} plans hold a permutation only in symmetric mode"
            )));
        }
        let input_fingerprint = input.content_fingerprint();
        let csr = match &perm {
            Some(perm) => input.permute_symmetric(perm)?,
            None => input.into_owned(),
        };
        let exec_rows = timed(&mut timings, "compile", "plan.compile", || {
            let skip_zeros = match Precision::of(spec.format) {
                Precision::Fp32 => return Ok(None),
                Precision::Tf32KeepZeros => false,
                Precision::Tf32DropZeros => true,
            };
            match (prior, perm.as_deref()) {
                (Some((rows, touched)), None) => {
                    spmm_format::splice_execution_rows(rows, &csr, touched, skip_zeros)
                }
                (_, order) => spmm_format::execution_rows(&csr, order, skip_zeros),
            }
            .map(Some)
        })?;
        Ok(ExecutionPlan {
            kind,
            arch,
            feature_dim,
            config,
            spec,
            csr,
            input_fingerprint,
            perm,
            exec_rows,
            // An unavailable pin falls back to the probe here; the
            // build and load entry points validate the pin first and
            // surface it as an InvalidConfig error instead.
            isa_tier: IsaTier::resolve(config.isa).unwrap_or_else(|_| IsaTier::probe()),
            timings,
            model: OnceLock::new(),
        })
    }

    /// A plan with this one's binding and relabeling over a new input
    /// operand that differs from this plan's at most in the rows
    /// `touched` (strictly ascending): the host part derived afresh, the
    /// execution rows of untouched rows carried over where the plan has
    /// no permutation, and the model left to be built on first use (see
    /// [`crate::repair`]).
    pub(crate) fn with_input(&self, input: CsrMatrix, touched: &[usize]) -> Result<ExecutionPlan> {
        let host = HostPart {
            kind: self.kind,
            arch: self.arch,
            feature_dim: self.feature_dim,
            config: self.config,
            input: Cow::Owned(input),
            perm: self.perm.clone(),
            timings: Vec::new(),
        };
        let prior = self.exec_rows.as_ref().map(|rows| (rows, touched));
        ExecutionPlan::from_host(host, prior)
    }

    /// The model part, built on the first call and shared after it.
    pub fn model(&self) -> &PlanModel {
        self.model.get_or_init(|| PlanModel::build(self))
    }

    /// Kernel identity.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Target architecture.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// Feature dimension the plan was built for.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// The Acc ablation configuration.
    pub fn config(&self) -> &AccConfig {
        &self.config
    }

    /// The stage configuration of this plan's kernel.
    pub fn stage_spec(&self) -> &StageSpec {
        &self.spec
    }

    /// The operand as the host multiplies it: the input operand, or in
    /// symmetric mode the relabeled one.
    pub fn csr(&self) -> &CsrMatrix {
        &self.csr
    }

    /// Content fingerprint of the input operand (taken before any
    /// relabeling) — the identity plan caches key on.
    pub fn input_fingerprint(&self) -> u64 {
        self.input_fingerprint
    }

    /// Symmetric mode's relabeling (`perm[old] = new`) of the operand's
    /// rows and columns; `None` in every other mode. The permutation the
    /// model packs blocks under is [`PlanModel::perm`].
    pub fn perm(&self) -> Option<&[u32]> {
        self.perm.as_deref()
    }

    /// Whether the permutation was applied to columns too.
    pub fn symmetric(&self) -> bool {
        self.spec.symmetric
    }

    /// The operand precision of the host multiply.
    pub fn precision(&self) -> Precision {
        Precision::of(self.spec.format)
    }

    /// The shared window partition, when the model has been built (TC
    /// kernels). It never builds the model; [`PlanModel::partition`]
    /// does.
    pub fn partition(&self) -> Option<&WindowPartition> {
        self.model.get().and_then(PlanModel::partition)
    }

    /// The execution rows of a tensor-core plan, in original row order:
    /// row `old` is row `perm[old]` of [`ExecutionPlan::csr`] in
    /// symmetric mode and row `old` otherwise, with TF32 values, each
    /// against the B row it scales ([`spmm_format::execution_rows`]).
    /// [`Precision::Tf32DropZeros`] plans drop the values that round to
    /// ±0, as their tile MMAs skip them; TC-GNN plans keep them, as its
    /// per-edge loop multiplies every edge. A multiply is the CSR row
    /// loop over them and a TF32 stage of B.
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

    /// The host SIMD tier the plan's CPU compute core is bound to.
    pub fn isa_tier(&self) -> IsaTier {
        self.isa_tier
    }

    /// Wall times of the host build's stages: the execution rows as
    /// `compile`, preceded in symmetric mode by the `reorder`. The
    /// model's stages are [`PlanModel::stage_timings`].
    pub fn stage_timings(&self) -> &[StageTiming] {
        &self.timings
    }

    /// Total wall time of the host build (sum over its stages).
    pub fn preprocess_seconds(&self) -> f64 {
        self.timings.iter().map(|t| t.seconds).sum()
    }
}

/// Everything [`ExecutionPlan::from_host`] derives a plan's host part
/// from: the binding, the input operand as its caller holds it (copied
/// only if the plan keeps it unrelabeled), and symmetric mode's
/// permutation.
pub(crate) struct HostPart<'a> {
    pub kind: KernelKind,
    pub arch: Arch,
    pub feature_dim: usize,
    pub config: AccConfig,
    pub input: Cow<'a, CsrMatrix>,
    pub perm: Option<Vec<u32>>,
    pub timings: Vec<StageTiming>,
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

    fn spec(kind: KernelKind) -> StageSpec {
        StageSpec::for_kernel(kind, &AccConfig::full())
    }

    #[test]
    fn reorder_stage_permutes_only_when_asked() {
        let m = uniform_random(96, 6.0, 3);
        let csr = spec(KernelKind::CusparseLike);
        assert!(
            reorder(&csr, &m).unwrap().is_none(),
            "CSR kernels never reorder"
        );
        let tcgnn = spec(KernelKind::TcGnn);
        assert!(
            reorder(&tcgnn, &m).unwrap().is_none(),
            "SGT is a no-permutation marker"
        );
        let perm = reorder(&spec(KernelKind::AccSpmm), &m)
            .unwrap()
            .expect("affinity reorder permutes");
        assert_eq!(perm.len(), m.nrows());
        assert!(spmm_common::util::is_permutation(&perm));
    }

    #[test]
    fn format_stage_builds_partition_and_format_together() {
        let m = uniform_random(96, 6.0, 3);
        let (wp, format) = format_build(FormatChoice::BitTcf, &m, IsaTier::probe()).unwrap();
        match format {
            TcFormat::BitTcf(f) => {
                assert_eq!(f.num_tc_blocks(), wp.num_tc_blocks());
                assert_eq!(f.num_windows(), wp.num_windows());
            }
            other => panic!("full Acc config must build BitTcf, got {other:?}"),
        }
        assert!(format_build(FormatChoice::Csr, &m, IsaTier::probe()).is_none());
    }

    #[test]
    fn balance_stage_plans_over_the_partition() {
        let m = uniform_random(96, 6.0, 3);
        let wp = WindowPartition::build(&m);
        let plan = balance(&wp, BalanceStrategy::AccAdaptive, Arch::A800, 32);
        let total: usize = wp.blocks_per_window().iter().sum();
        assert_eq!(
            plan.tbs.iter().map(|tb| tb.num_blocks()).sum::<usize>(),
            total,
            "plan covers every TC block exactly once"
        );
    }

    #[test]
    fn compile_stage_requires_upstream_artifacts() {
        let m = uniform_random(96, 6.0, 3);
        let config = AccConfig::full();
        let tier = IsaTier::probe();
        let missing = compile(KernelKind::AccSpmm, &config, &m, None, 32, tier);
        assert!(missing.is_err(), "no format yet");
        let (wp, format) = format_build(FormatChoice::BitTcf, &m, tier).unwrap();
        let plan = balance(&wp, BalanceStrategy::AccAdaptive, Arch::A800, 32);
        let desc = compile(
            KernelKind::AccSpmm,
            &config,
            &m,
            Some((&format, &plan)),
            32,
            tier,
        )
        .unwrap();
        assert_eq!(desc.effective_flops, 2 * m.nnz() as u64 * 32);
        assert_eq!(desc.isa_tier, tier);
    }

    #[test]
    fn full_plan_records_every_stage_timing() {
        let m = uniform_random(128, 5.0, 7);
        let plan = ExecutionPlan::build(KernelKind::AccSpmm, &m, Arch::A800, 64, AccConfig::full())
            .unwrap();
        let names: Vec<&str> = plan.stage_timings().iter().map(|t| t.stage).collect();
        assert_eq!(names, ["compile"], "the host build derives the rows");
        assert!(
            plan.partition().is_none(),
            "no model before it is asked for"
        );
        let model = plan.model();
        let names: Vec<&str> = model.stage_timings().iter().map(|t| t.stage).collect();
        assert_eq!(names, ["reorder", "format_build", "balance", "compile"]);
        assert!(model.stage_timings().iter().all(|t| t.seconds >= 0.0));
        assert!(plan.preprocess_seconds() >= 0.0);
        assert!(plan.partition().is_some());
        assert!(model.balance().is_some());
        assert!(model.trace().effective_flops > 0);
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
