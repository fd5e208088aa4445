//! # spmm-dist — sharded multi-node SpMM execution
//!
//! Executes one logical `C = A × B` across many workers: the
//! coordinator cuts `A` into nnz-balanced, window-aligned row blocks
//! (see [`partition`]), builds an independent [`PreparedKernel`] per
//! shard through the regular plan pipeline, hands `B` to the shards,
//! runs them on a worker pool, and gathers the row-block results —
//! **bit-identical** to a single-node `multiply_into`.
//!
//! Bit-identity across arbitrary row partitionings is a structural
//! property of the compute core: every output element accumulates
//! exactly its row's non-zero lanes in ascending column order
//! (zero-padded lanes are skipped), so cutting rows into blocks — or
//! reordering them differently per shard — cannot change a single bit.
//!
//! Every payload moves in-process; a round's [`DistReport`] counts the
//! bytes a multi-node deployment would move and times each shard's
//! kernel on this host.
//!
//! Robustness follows the serving engine's semantics: a failing shard
//! is retried once, then surfaced as [`SpmmError::Shard`]; dropping the
//! coordinator drains in-flight work before joining the workers.

pub mod partition;
mod worker;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use spmm_balance::{ModelParams, PerfModel};
use spmm_common::{Result, SpmmError};
use spmm_delta::DeltaCsr;
use spmm_kernels::{AccConfig, KernelKind, PreparedKernel, RepairReport};
use spmm_matrix::{CsrMatrix, DenseMatrix};
use spmm_sim::Arch;

pub use partition::{plan_shards, ShardPlan, ShardSpec};

use worker::{round_leaves_cores_idle, Job, WorkerPool};

/// How many times a failing shard execution is retried before the
/// multiply fails with [`SpmmError::Shard`].
const MAX_RETRIES: usize = 1;

/// Builder for [`DistSpmm`] — mirrors `PreparedKernel::builder` plus
/// the shard count.
pub struct DistBuilder<'a> {
    kind: KernelKind,
    a: &'a CsrMatrix,
    arch: Arch,
    feature_dim: usize,
    config: AccConfig,
    shards: usize,
}

impl<'a> DistBuilder<'a> {
    /// Number of shards (workers). Default 2.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Target architecture (drives the shard cost model and per-shard
    /// balance planning).
    pub fn arch(mut self, arch: Arch) -> Self {
        self.arch = arch;
        self
    }

    /// Feature dimension the shard plans are specialized for.
    pub fn feature_dim(mut self, n: usize) -> Self {
        self.feature_dim = n;
        self
    }

    /// Acc ablation configuration.
    pub fn config(mut self, config: AccConfig) -> Self {
        self.config = config;
        self
    }

    /// Plan the shards, build every shard kernel, spawn the workers.
    pub fn build(self) -> Result<DistSpmm> {
        if self.shards == 0 {
            return Err(SpmmError::InvalidConfig("need at least one shard".into()));
        }
        let _span = spmm_trace::span("dist.build");
        let spec = self.arch.spec();
        let model = PerfModel::new(ModelParams {
            feature_dim: self.feature_dim,
            bandwidth: spec.dram_bw_gbps * 1e9,
            flops: spec.tc_tf32_tflops * 1e12,
            num_sms: spec.num_sms,
        });
        let plan = plan_shards(self.a, self.shards, &model);

        let mut kernels: Vec<Option<Arc<PreparedKernel>>> = Vec::with_capacity(self.shards);
        let mut scatter_rows: Vec<u64> = Vec::with_capacity(self.shards);
        let mut halo_rows: Vec<Vec<u32>> = Vec::with_capacity(self.shards);
        for s in &plan.shards {
            if s.is_empty() {
                kernels.push(None);
                scatter_rows.push(0);
                halo_rows.push(Vec::new());
                continue;
            }
            let sub = self.a.row_block(s.row_lo, s.row_hi);
            let kernel = PreparedKernel::builder(self.kind, &sub)
                .arch(self.arch)
                .feature_dim(self.feature_dim)
                .config(self.config)
                .build()?;
            let (referenced, halo) = column_coverage(&sub, s);
            scatter_rows.push(referenced);
            halo_rows.push(halo);
            kernels.push(Some(Arc::new(kernel)));
        }
        spmm_trace::counter_add("dist.shards", self.shards as u64);
        let pool = WorkerPool::spawn(&kernels);
        Ok(DistSpmm {
            nrows: self.a.nrows(),
            ncols: self.a.ncols(),
            feature_dim: self.feature_dim,
            kind: self.kind,
            arch: self.arch,
            plan,
            scatter_rows,
            halo_rows,
            shard_kernels: kernels,
            pool,
            epoch: AtomicU64::new(0),
            last_report: Mutex::new(None),
        })
    }
}

/// A shard's column coverage: how many B rows its operand references
/// (the scatter payload), and which of them lie outside the shard's own
/// row range (the halo rows).
fn column_coverage(sub: &CsrMatrix, s: &ShardSpec) -> (u64, Vec<u32>) {
    let mut seen = vec![false; sub.ncols()];
    for &c in sub.col_idx() {
        seen[c as usize] = true;
    }
    let referenced = seen.iter().filter(|&&x| x).count() as u64;
    let halo = seen
        .iter()
        .enumerate()
        .filter(|&(c, &x)| x && !(s.row_lo..s.row_hi).contains(&c))
        .map(|(c, _)| c as u32)
        .collect();
    (referenced, halo)
}

/// One multiply's execution accounting.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct DistReport {
    /// Kernel seconds per shard (empty shards report 0): uncontended
    /// from [`DistSpmm::multiply_profiled`]; from a concurrent round they
    /// include any time-slicing among the round's jobs.
    pub per_shard_busy: Vec<f64>,
    /// Wall-clock seconds of the whole round on the host.
    pub wall_seconds: f64,
    /// B bytes scattered (only rows each shard actually references).
    pub bytes_scattered: u64,
    /// Result bytes gathered.
    pub bytes_gathered: u64,
    /// Halo bytes exchanged (halo rounds only).
    pub bytes_halo: u64,
    /// Shard executions retried after a failure.
    pub retries: u64,
}

impl DistReport {
    /// Slowest shard's busy seconds: from [`DistSpmm::multiply_profiled`],
    /// the round's critical path on a deployment with one device per
    /// shard.
    pub fn max_busy_seconds(&self) -> f64 {
        self.per_shard_busy.iter().cloned().fold(0.0, f64::max)
    }
}

/// Accounting of one [`DistSpmm::apply_delta`] round: which shards were
/// touched and the summed per-shard repair work.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct DistDeltaReport {
    /// Shards whose kernel was repaired (clean shards are skipped).
    pub shards_repaired: usize,
    /// Rows the delta touched, summed over repaired shards.
    pub rows_touched: usize,
    /// Overlay edge operations folded in, summed over repaired shards.
    pub edges_applied: usize,
    /// RowWindows across all repaired shard plans.
    pub windows_total: usize,
    /// RowWindows actually re-squeezed and re-converted.
    pub windows_rebuilt: usize,
    /// Wall seconds of the shard repairs (excludes pool respawn).
    pub repair_seconds: f64,
    /// Per shard: the repair report (`None` = empty or untouched shard).
    pub per_shard: Vec<Option<RepairReport>>,
}

/// A sharded SpMM coordinator bound to one operand.
///
/// ```
/// use spmm_dist::DistSpmm;
/// use spmm_kernels::KernelKind;
/// use spmm_matrix::{gen, DenseMatrix};
///
/// let a = gen::uniform_random(256, 6.0, 1);
/// let dist = DistSpmm::builder(KernelKind::AccSpmm, &a)
///     .shards(4)
///     .feature_dim(16)
///     .build()
///     .unwrap();
/// let b = DenseMatrix::random(256, 16, 2);
/// let c = dist.multiply(&b).unwrap();
/// assert_eq!(c.nrows(), 256);
/// ```
pub struct DistSpmm {
    nrows: usize,
    ncols: usize,
    feature_dim: usize,
    kind: KernelKind,
    arch: Arch,
    plan: ShardPlan,
    /// Per shard: how many B rows it references (scatter payload rows).
    scatter_rows: Vec<u64>,
    /// Per shard: referenced rows *outside* its own range (halo rows).
    halo_rows: Vec<Vec<u32>>,
    /// The shard kernels the pool's workers run (`None` = empty shard).
    /// Retained so dynamic-graph deltas can repair a subset and respawn.
    shard_kernels: Vec<Option<Arc<PreparedKernel>>>,
    pool: WorkerPool,
    epoch: AtomicU64,
    last_report: Mutex<Option<DistReport>>,
}

impl DistSpmm {
    /// Start building a coordinator for `kind` over operand `a`.
    pub fn builder(kind: KernelKind, a: &CsrMatrix) -> DistBuilder<'_> {
        DistBuilder {
            kind,
            a,
            arch: Arch::A800,
            feature_dim: 128,
            config: AccConfig::full(),
            shards: 2,
        }
    }

    /// Rows of the operand (and of every multiply's output).
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of the operand.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.plan.shards.len()
    }

    /// The shard ranges.
    pub fn shards(&self) -> &[ShardSpec] {
        &self.plan.shards
    }

    /// Kernel strategy every shard runs.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Architecture the shard plans target.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// Feature dimension the shard plans are specialized for.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Accounting of the most recent multiply (or halo round).
    pub fn last_report(&self) -> Option<DistReport> {
        self.last_report.lock().unwrap().clone()
    }

    /// Sharded `C = A × B`. Bit-identical to the single-node kernel.
    pub fn multiply(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.nrows, b.ncols());
        self.multiply_into(b, &mut out)?;
        Ok(out)
    }

    /// [`DistSpmm::multiply`] into a caller-provided output.
    pub fn multiply_into(&self, b: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        self.run_multiply(b, out, false).map(|_| ())
    }

    /// [`DistSpmm::multiply`] with shards dispatched one at a time so
    /// each shard's busy seconds are measured uncontended (on a host
    /// with fewer cores than shards, concurrent dispatch time-slices
    /// the workers and inflates every per-shard measurement). Each job
    /// has the host to itself, so its row loop spreads across every
    /// core. The returned report's [`DistReport::max_busy_seconds`] is
    /// the completion a one-device-per-shard deployment would see.
    pub fn multiply_profiled(&self, b: &DenseMatrix) -> Result<(DenseMatrix, DistReport)> {
        let mut out = DenseMatrix::zeros(self.nrows, b.ncols());
        let report = self.run_multiply(b, &mut out, true)?;
        Ok((out, report))
    }

    fn run_multiply(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        sequential: bool,
    ) -> Result<DistReport> {
        let _span = spmm_trace::span("dist.multiply");
        spmm_trace::counter_add("dist.multiplies", 1);
        if b.nrows() != self.ncols {
            return Err(SpmmError::shape(format!(
                "A is {}x{}, B is {}x{}",
                self.nrows,
                self.ncols,
                b.nrows(),
                b.ncols()
            )));
        }
        if out.nrows() != self.nrows || out.ncols() != b.ncols() {
            return Err(SpmmError::shape(format!(
                "output is {}x{}, expected {}x{}",
                out.nrows(),
                out.ncols(),
                self.nrows,
                b.ncols()
            )));
        }
        let t_wall = Instant::now();
        let shared = Arc::new(b.clone());
        let elem = b.ncols() as u64 * 4;
        let mut report = self.new_report();

        // Scatter: each shard receives only the B rows it references.
        {
            let _s = spmm_trace::span("dist.scatter");
            for s in self.non_empty_shards() {
                report.bytes_scattered += self.scatter_rows[s.id] * elem;
            }
            spmm_trace::counter_add("dist.bytes_scattered", report.bytes_scattered);
        }

        let mut outs = self.round(sequential, &mut report, |_| Arc::clone(&shared))?;

        // Gather: copy each shard's rows into place.
        {
            let _s = spmm_trace::span("dist.gather");
            for s in &self.plan.shards {
                match outs[s.id].take() {
                    Some(shard_out) => {
                        for r in 0..s.rows() {
                            out.row_mut(s.row_lo + r).copy_from_slice(shard_out.row(r));
                        }
                        report.bytes_gathered += s.rows() as u64 * elem;
                    }
                    None => debug_assert!(s.is_empty(), "non-empty shard produced no output"),
                }
            }
            spmm_trace::counter_add("dist.bytes_gathered", report.bytes_gathered);
        }
        Ok(self.record(report, t_wall))
    }

    fn non_empty_shards(&self) -> impl Iterator<Item = &ShardSpec> {
        self.plan.shards.iter().filter(|s| !s.is_empty())
    }

    fn new_report(&self) -> DistReport {
        DistReport {
            per_shard_busy: vec![0.0; self.num_shards()],
            ..DistReport::default()
        }
    }

    /// Close a round begun at `t_wall`: stamp its wall clock and keep it
    /// as [`DistSpmm::last_report`].
    fn record(&self, mut report: DistReport, t_wall: Instant) -> DistReport {
        report.wall_seconds = t_wall.elapsed().as_secs_f64();
        *self.last_report.lock().unwrap() = Some(report.clone());
        report
    }

    /// Run one round: a job per non-empty shard, on the operand
    /// `operand` gives it, retrying failures; returns the outputs by
    /// shard id (`None` for empty shards). A `sequential` round
    /// dispatches one job at a time; otherwise each job goes out as soon
    /// as its operand is ready.
    fn round(
        &self,
        sequential: bool,
        report: &mut DistReport,
        mut operand: impl FnMut(&ShardSpec) -> Arc<DenseMatrix>,
    ) -> Result<Vec<Option<DenseMatrix>>> {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed);
        let mut outs: Vec<Option<DenseMatrix>> = (0..self.num_shards()).map(|_| None).collect();
        if sequential {
            let across_cores = Self::spread(1);
            for s in self.non_empty_shards() {
                self.submit(s.id, epoch, operand(s), across_cores)?;
                self.collect(epoch, 1, across_cores, &mut outs, report)?;
            }
        } else {
            let pending = self.non_empty_shards().count();
            let across_cores = Self::spread(pending);
            for s in self.non_empty_shards() {
                self.submit(s.id, epoch, operand(s), across_cores)?;
            }
            self.collect(epoch, pending, across_cores, &mut outs, report)?;
        }
        Ok(outs)
    }

    /// Whether the jobs of a round of `jobs` dispatched together spread
    /// their row loops across the host's cores.
    fn spread(jobs: usize) -> bool {
        round_leaves_cores_idle(jobs, rayon::current_num_threads())
    }

    fn submit(
        &self,
        shard: usize,
        epoch: u64,
        b: Arc<DenseMatrix>,
        across_cores: bool,
    ) -> Result<()> {
        self.pool.submit(
            shard,
            Job {
                epoch,
                b,
                across_cores,
            },
        )
    }

    /// Receive `pending` outcomes for `epoch`, resubmitting a failed
    /// shard's operand up to [`MAX_RETRIES`] times with its round's
    /// `across_cores` tag.
    fn collect(
        &self,
        epoch: u64,
        mut pending: usize,
        across_cores: bool,
        outs: &mut [Option<DenseMatrix>],
        report: &mut DistReport,
    ) -> Result<()> {
        let mut attempts = vec![0usize; self.num_shards()];
        let mut terminal: Option<SpmmError> = None;
        while pending > 0 {
            let o = self.pool.recv()?;
            if o.epoch != epoch {
                continue; // stale outcome from an abandoned round
            }
            match o.result {
                Ok(shard_out) => {
                    report.per_shard_busy[o.shard] = o.busy_seconds;
                    outs[o.shard] = Some(shard_out);
                    pending -= 1;
                }
                Err(e) => {
                    attempts[o.shard] += 1;
                    if attempts[o.shard] <= MAX_RETRIES {
                        spmm_trace::counter_add("dist.retries", 1);
                        report.retries += 1;
                        self.submit(o.shard, epoch, o.b, across_cores)?;
                    } else {
                        spmm_trace::counter_add("dist.shard_failures", 1);
                        if terminal.is_none() {
                            terminal = Some(SpmmError::Shard {
                                shard: o.shard,
                                retries: MAX_RETRIES,
                                cause: Box::new(e),
                            });
                        }
                        pending -= 1;
                    }
                }
            }
        }
        match terminal {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Split a full-height dense matrix into per-shard row blocks
    /// (empty shards get zero-row matrices).
    pub fn split_rows(&self, x: &DenseMatrix) -> Result<Vec<DenseMatrix>> {
        if x.nrows() != self.nrows {
            return Err(SpmmError::shape(format!(
                "expected {} rows, got {}",
                self.nrows,
                x.nrows()
            )));
        }
        Ok(self
            .plan
            .shards
            .iter()
            .map(|s| {
                let mut part = DenseMatrix::zeros(s.rows(), x.ncols());
                for r in 0..s.rows() {
                    part.row_mut(r).copy_from_slice(x.row(s.row_lo + r));
                }
                part
            })
            .collect())
    }

    /// Reassemble per-shard row blocks into a full-height matrix.
    pub fn concat_rows(&self, parts: &[DenseMatrix]) -> Result<DenseMatrix> {
        self.check_parts(parts)?;
        let ncols = parts
            .iter()
            .map(DenseMatrix::ncols)
            .max()
            .unwrap_or(self.feature_dim);
        let mut out = DenseMatrix::zeros(self.nrows, ncols);
        for (s, part) in self.plan.shards.iter().zip(parts) {
            for r in 0..s.rows() {
                out.row_mut(s.row_lo + r).copy_from_slice(part.row(r));
            }
        }
        Ok(out)
    }

    fn check_parts(&self, parts: &[DenseMatrix]) -> Result<()> {
        if parts.len() != self.num_shards() {
            return Err(SpmmError::shape(format!(
                "expected {} shard parts, got {}",
                self.num_shards(),
                parts.len()
            )));
        }
        for (s, part) in self.plan.shards.iter().zip(parts) {
            if part.nrows() != s.rows() {
                return Err(SpmmError::shape(format!(
                    "shard {} part has {} rows, expected {}",
                    s.id,
                    part.nrows(),
                    s.rows()
                )));
            }
        }
        Ok(())
    }

    /// One sharded propagation round with **halo exchange**: `parts`
    /// are the per-shard row blocks of a full feature matrix `H`; the
    /// result is the per-shard row blocks of `A × H`. Instead of
    /// re-gathering `H` on the coordinator, each shard's operand is
    /// assembled from its own rows plus only the *boundary* rows other
    /// shards own that its columns reference — the layer-to-layer
    /// traffic a multi-layer sharded GCN actually needs.
    ///
    /// Requires a square operand (the output of one round feeds the
    /// next). Bit-identical to gathering `H` and calling
    /// [`DistSpmm::multiply`].
    pub fn propagate_halo(&self, parts: &[DenseMatrix]) -> Result<Vec<DenseMatrix>> {
        let _span = spmm_trace::span("dist.propagate_halo");
        if self.nrows != self.ncols {
            return Err(SpmmError::shape(format!(
                "halo propagation needs a square operand, got {}x{}",
                self.nrows, self.ncols
            )));
        }
        self.check_parts(parts)?;
        let d = parts
            .iter()
            .map(DenseMatrix::ncols)
            .max()
            .unwrap_or(self.feature_dim);
        for part in parts {
            if part.nrows() > 0 && part.ncols() != d {
                return Err(SpmmError::shape(
                    "halo parts must share one feature dimension",
                ));
            }
        }
        let t_wall = Instant::now();
        let elem = d as u64 * 4;
        let mut report = self.new_report();
        let halo_row_total: u64 = self
            .non_empty_shards()
            .map(|s| self.halo_rows[s.id].len() as u64)
            .sum();
        report.bytes_halo = halo_row_total * elem;
        spmm_trace::counter_add("dist.halo_rows", halo_row_total);
        spmm_trace::counter_add("dist.bytes_halo", report.bytes_halo);

        // Assemble each shard's operand: own rows in place, halo rows
        // copied from their owners.
        let owner_of = |row: usize| {
            self.plan
                .shards
                .iter()
                .find(|s| (s.row_lo..s.row_hi).contains(&row))
                .expect("shard ranges tile the row space")
        };
        let outs = self.round(false, &mut report, |s| {
            let mut buf = DenseMatrix::zeros(self.ncols, d);
            for r in 0..s.rows() {
                buf.row_mut(s.row_lo + r)
                    .copy_from_slice(parts[s.id].row(r));
            }
            for &h in &self.halo_rows[s.id] {
                let owner = owner_of(h as usize);
                buf.row_mut(h as usize)
                    .copy_from_slice(parts[owner.id].row(h as usize - owner.row_lo));
            }
            Arc::new(buf)
        })?;
        // Empty shards ran no job and own no rows.
        let result = outs
            .into_iter()
            .map(|o| o.unwrap_or_else(|| DenseMatrix::zeros(0, d)))
            .collect();
        self.record(report, t_wall);
        Ok(result)
    }

    /// Total halo rows a propagation round moves, vs the rows a full
    /// re-gather would move — the traffic saving halo exchange exists
    /// for.
    pub fn halo_traffic_rows(&self) -> (u64, u64) {
        let halo: u64 = self.halo_rows.iter().map(|h| h.len() as u64).sum();
        let regather = self.non_empty_shards().count() as u64 * self.nrows as u64;
        (halo, regather)
    }

    /// Apply a dynamic-graph edge delta **shard-locally**: the global
    /// overlay (based on the operand this coordinator was built from,
    /// or the compacted result of the previous delta) is sliced per
    /// shard with [`DeltaCsr::sub_range`]; each touched shard's plan is
    /// repaired in place via
    /// [`ExecutionPlan::repair`](spmm_kernels::ExecutionPlan::repair),
    /// which re-derives the shard's execution rows from its compacted
    /// operand, while clean shards keep their kernels untouched. Halo and scatter
    /// coverage are recomputed from the repaired operands (churn can add
    /// or drop boundary columns), and the worker pool is respawned on
    /// the new kernel set. Subsequent multiplies are bit-identical to a
    /// coordinator built from scratch on `delta.compact()`.
    pub fn apply_delta(&mut self, delta: &DeltaCsr) -> Result<DistDeltaReport> {
        let _span = spmm_trace::span("dist.apply_delta");
        if delta.nrows() != self.nrows || delta.ncols() != self.ncols {
            return Err(SpmmError::shape(format!(
                "delta base is {}x{}, coordinator operand is {}x{}",
                delta.nrows(),
                delta.ncols(),
                self.nrows,
                self.ncols
            )));
        }
        let mut report = DistDeltaReport {
            per_shard: vec![None; self.num_shards()],
            ..DistDeltaReport::default()
        };
        if delta.is_clean() {
            return Ok(report);
        }
        for s in &self.plan.shards {
            if s.is_empty() {
                continue;
            }
            let sub = delta.sub_range(s.row_lo, s.row_hi);
            if sub.is_clean() {
                continue;
            }
            let old = self.shard_kernels[s.id]
                .as_ref()
                .expect("non-empty shard has a kernel");
            let (repaired, rep) = old.execution_plan().repair(&sub)?;
            // Column coverage can change under churn: recompute it from
            // the repaired operand (row permutation never changes the
            // column set).
            (self.scatter_rows[s.id], self.halo_rows[s.id]) = column_coverage(repaired.csr(), s);
            self.shard_kernels[s.id] = Some(Arc::new(PreparedKernel::from_plan(repaired)));
            report.shards_repaired += 1;
            report.rows_touched += rep.rows_touched;
            report.edges_applied += rep.edges_applied;
            report.windows_total += rep.windows_total;
            report.windows_rebuilt += rep.windows_rebuilt;
            report.repair_seconds += rep.repair_seconds;
            report.per_shard[s.id] = Some(rep);
        }
        if report.shards_repaired > 0 {
            // Workers pin their kernel at spawn: swap the pool for one
            // over the repaired kernel set (dropping the old pool drains
            // and joins its workers).
            self.pool = WorkerPool::spawn(&self.shard_kernels);
            spmm_trace::counter_add("dist.deltas_applied", 1);
            spmm_trace::counter_add("dist.delta_shards_repaired", report.shards_repaired as u64);
        }
        Ok(report)
    }

    /// Test hook: make `shard` panic inside its next `times` executions.
    /// Each panic is caught at the worker's job boundary and retried like
    /// any failed job, exercising panic containment, retry and failure
    /// surfacing.
    #[doc(hidden)]
    pub fn inject_shard_failures(&self, shard: usize, times: u32) {
        self.pool.inject_failures(shard, times);
    }

    /// Jobs fully processed by the workers since construction (drain
    /// observability; includes retried attempts).
    pub fn jobs_processed(&self) -> u64 {
        self.pool.processed()
    }
}

impl std::fmt::Debug for DistSpmm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistSpmm")
            .field("kind", &self.kind)
            .field("shards", &self.num_shards())
            .field("nrows", &self.nrows)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_kernels::Workspace;
    use spmm_matrix::gen;

    fn reference(m: &CsrMatrix, kind: KernelKind, b: &DenseMatrix) -> DenseMatrix {
        let k = PreparedKernel::builder(kind, m)
            .feature_dim(b.ncols())
            .build()
            .unwrap();
        let mut out = DenseMatrix::zeros(m.nrows(), b.ncols());
        let mut ws = Workspace::for_plan(k.execution_plan());
        k.execute_into(b, &mut out, &mut ws).unwrap();
        out
    }

    #[test]
    fn sharded_multiply_is_bit_identical() {
        // At 1 shard a concurrent round leaves cores idle and its job
        // runs across cores; at one shard more than the host has threads
        // every job runs on its own worker thread. `multiply`,
        // `multiply_profiled` and `propagate_halo` must match the
        // single-node kernel bit for bit either way.
        let threads = rayon::current_num_threads();
        let m = gen::clustered(
            gen::ClusteredConfig {
                n: 512.max(64 * (threads + 1)),
                cluster_size: 64,
                intra_deg: 10.0,
                inter_deg: 2.0,
                ..Default::default()
            },
            3,
        );
        let b = DenseMatrix::random(m.ncols(), 16, 7);
        let bits = |c: &DenseMatrix| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for kind in [KernelKind::AccSpmm, KernelKind::CusparseLike] {
            let expect = reference(&m, kind, &b);
            for shards in [1, 2, 3, 4, threads + 1] {
                let dist = DistSpmm::builder(kind, &m)
                    .shards(shards)
                    .feature_dim(16)
                    .build()
                    .unwrap();
                if shards == threads + 1 {
                    let jobs = dist.shards().iter().filter(|s| !s.is_empty()).count();
                    assert!(!round_leaves_cores_idle(jobs, threads), "{jobs} jobs");
                }
                let got = dist.multiply(&b).unwrap();
                assert_eq!(
                    got.as_slice()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>(),
                    expect
                        .as_slice()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>(),
                    "{kind:?} x{shards}"
                );
                let (profiled, _) = dist.multiply_profiled(&b).unwrap();
                assert_eq!(
                    bits(&profiled),
                    bits(&expect),
                    "{kind:?} x{shards} profiled"
                );
                let parts = dist.propagate_halo(&dist.split_rows(&b).unwrap()).unwrap();
                let halo = dist.concat_rows(&parts).unwrap();
                assert_eq!(bits(&halo), bits(&expect), "{kind:?} x{shards} halo");
            }
        }
    }

    #[test]
    fn retry_recovers_from_transient_failures() {
        let m = gen::uniform_random(128, 5.0, 1);
        let b = DenseMatrix::random(128, 8, 2);
        let dist = DistSpmm::builder(KernelKind::CusparseLike, &m)
            .shards(2)
            .feature_dim(8)
            .build()
            .unwrap();
        dist.inject_shard_failures(1, 1);
        let expect = reference(&m, KernelKind::CusparseLike, &b);
        let got = dist.multiply(&b).unwrap();
        assert_eq!(got.as_slice(), expect.as_slice());
        assert_eq!(dist.last_report().unwrap().retries, 1);
    }

    #[test]
    fn exhausted_retries_surface_the_failing_shard() {
        let m = gen::uniform_random(128, 5.0, 1);
        let b = DenseMatrix::random(128, 8, 2);
        let dist = DistSpmm::builder(KernelKind::CusparseLike, &m)
            .shards(2)
            .feature_dim(8)
            .build()
            .unwrap();
        // 3 injected failures: attempt + retry exhaust the first
        // multiply (terminal), the third fails once more on the next
        // multiply and the retry then succeeds.
        dist.inject_shard_failures(1, 3);
        match dist.multiply(&b) {
            Err(SpmmError::Shard { shard, retries, .. }) => {
                assert_eq!(shard, 1);
                assert_eq!(retries, 1);
            }
            other => panic!("expected shard failure, got {other:?}"),
        }
        // The coordinator stays usable once the injection is spent.
        assert!(dist.multiply(&b).is_ok());
    }

    #[test]
    fn halo_propagation_matches_full_multiply_and_moves_less() {
        // Contiguous clusters (no shuffle): row-block shards align with
        // communities, so boundary rows are few.
        let m = gen::clustered(
            gen::ClusteredConfig {
                n: 512,
                cluster_size: 64,
                intra_deg: 12.0,
                inter_deg: 1.0,
                shuffle: false,
                ..Default::default()
            },
            9,
        );
        let h = DenseMatrix::random(512, 8, 3);
        let dist = DistSpmm::builder(KernelKind::AccSpmm, &m)
            .shards(4)
            .feature_dim(8)
            .build()
            .unwrap();
        let expect = dist.multiply(&h).unwrap();
        // A multiply scatters the B rows the shards reference and
        // gathers exactly the output matrix.
        let report = dist.last_report().unwrap();
        assert!(report.bytes_scattered > 0);
        assert_eq!(report.bytes_gathered, (512 * 8 * 4) as u64);
        let parts = dist.split_rows(&h).unwrap();
        let out_parts = dist.propagate_halo(&parts).unwrap();
        let got = dist.concat_rows(&out_parts).unwrap();
        assert_eq!(got.as_slice(), expect.as_slice());
        // Clustered matrix: boundary rows are a small fraction of a
        // full re-gather, but inter-cluster edges cross shards, so the
        // round moves some.
        let (halo, regather) = dist.halo_traffic_rows();
        assert!(
            0 < halo && halo < regather / 2,
            "halo {halo} rows vs re-gather {regather} rows"
        );
        let report = dist.last_report().unwrap();
        assert!(report.bytes_halo > 0);
        assert_eq!(report.bytes_halo, halo * 8 * 4);
        assert_eq!(report.retries, 0);
    }

    #[test]
    fn empty_shards_are_tolerated() {
        let m = gen::uniform_random(16, 3.0, 2); // 2 windows, 7 shards
        let b = DenseMatrix::random(16, 4, 1);
        let dist = DistSpmm::builder(KernelKind::SputnikLike, &m)
            .shards(7)
            .feature_dim(4)
            .build()
            .unwrap();
        assert!(dist.shards().iter().any(|s| s.is_empty()));
        let expect = reference(&m, KernelKind::SputnikLike, &b);
        let got = dist.multiply(&b).unwrap();
        assert_eq!(got.as_slice(), expect.as_slice());
    }

    fn bits(m: &DenseMatrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Shard-local churn: upserts across several shards (including
    /// special payloads), an insert-then-delete that nets out, and a
    /// base-edge delete.
    fn churn(m: &CsrMatrix, seed: usize) -> DeltaCsr {
        let mut delta = DeltaCsr::new(m.clone());
        let n = m.nrows();
        let payloads = [1.5f32, -0.0, 1e-42, f32::INFINITY, -3.25];
        for (i, &v) in payloads.iter().enumerate() {
            let r = ((seed + 37 * i * i + 11 * i) * 97) % n;
            let c = ((seed + 53 * i + 7) * 89) % m.ncols();
            delta.upsert(r as u32, c as u32, v).unwrap();
        }
        let r = (seed * 131 + 5) % n;
        delta.upsert(r as u32, 3, 42.0).unwrap();
        assert!(delta.delete(r as u32, 3), "inserted edge deletes");
        let victim = (0..n).find(|&r| m.row_ptr()[r + 1] > m.row_ptr()[r]);
        if let Some(r) = victim {
            let c = m.col_idx()[m.row_ptr()[r]];
            assert!(delta.delete(r as u32, c), "base edge deletes");
        }
        delta
    }

    #[test]
    fn apply_delta_repairs_shards_and_stays_bit_identical() {
        let m = gen::uniform_random(512, 6.0, 41);
        let b = DenseMatrix::random(512, 16, 9);
        for kind in [KernelKind::AccSpmm, KernelKind::CusparseLike] {
            let mut dist = DistSpmm::builder(kind, &m)
                .shards(4)
                .feature_dim(16)
                .build()
                .unwrap();
            let delta = churn(&m, 3);
            let report = dist.apply_delta(&delta).unwrap();
            assert!(report.shards_repaired >= 1, "{kind:?}: churn hit shards");
            assert!(report.edges_applied >= 2);
            let compacted = delta.compact();
            let expect = reference(&compacted, kind, &b);
            let got = dist.multiply(&b).unwrap();
            assert_eq!(bits(&got), bits(&expect), "{kind:?} after delta");

            // A second round chained on the compacted operand: the
            // repaired shard plans are the new base line.
            let delta2 = churn(&compacted, 17);
            dist.apply_delta(&delta2).unwrap();
            let compacted2 = delta2.compact();
            let expect2 = reference(&compacted2, kind, &b);
            let got2 = dist.multiply(&b).unwrap();
            assert_eq!(bits(&got2), bits(&expect2), "{kind:?} second delta");
        }
    }

    #[test]
    fn apply_delta_repairs_only_touched_windows_per_shard() {
        let m = gen::uniform_random(768, 6.0, 43);
        let mut dist = DistSpmm::builder(KernelKind::AccSpmm, &m)
            .shards(4)
            .feature_dim(16)
            .build()
            .unwrap();
        // Touch exactly one row: at most one shard repairs, and within
        // it only a sliver of the windows rebuild.
        let mut delta = DeltaCsr::new(m.clone());
        delta.upsert(100, 9, 2.5).unwrap();
        let report = dist.apply_delta(&delta).unwrap();
        assert_eq!(report.shards_repaired, 1);
        assert!(
            report.windows_rebuilt < report.windows_total,
            "partial repair: {} of {} windows",
            report.windows_rebuilt,
            report.windows_total
        );
        let b = DenseMatrix::random(768, 16, 2);
        let expect = reference(&delta.compact(), KernelKind::AccSpmm, &b);
        assert_eq!(bits(&dist.multiply(&b).unwrap()), bits(&expect));
    }

    #[test]
    fn halo_exchange_stays_correct_under_churn() {
        let m = gen::clustered(
            gen::ClusteredConfig {
                n: 512,
                cluster_size: 64,
                intra_deg: 10.0,
                inter_deg: 2.0,
                ..Default::default()
            },
            13,
        );
        let mut dist = DistSpmm::builder(KernelKind::AccSpmm, &m)
            .shards(4)
            .feature_dim(8)
            .build()
            .unwrap();
        // Cross-shard churn: new boundary edges appear (fresh halo
        // columns), an old edge disappears.
        let mut delta = DeltaCsr::new(m.clone());
        delta.upsert(5, 500, 1.25).unwrap(); // shard 0 row -> far column
        delta.upsert(501, 2, -0.5).unwrap(); // last shard row -> early column
        let r0 = (0..m.nrows())
            .find(|&r| m.row_ptr()[r + 1] > m.row_ptr()[r])
            .unwrap();
        assert!(delta.delete(r0 as u32, m.col_idx()[m.row_ptr()[r0]]));
        dist.apply_delta(&delta).unwrap();

        let compacted = delta.compact();
        let h = DenseMatrix::random(512, 8, 4);
        // Halo propagation after the delta == plain multiply on the
        // compacted operand, bit for bit.
        let parts = dist.split_rows(&h).unwrap();
        let out_parts = dist.propagate_halo(&parts).unwrap();
        let got = dist.concat_rows(&out_parts).unwrap();
        let expect = reference(&compacted, KernelKind::AccSpmm, &h);
        assert_eq!(bits(&got), bits(&expect));
    }

    #[test]
    fn apply_delta_rejects_mismatch_and_skips_clean() {
        let m = gen::uniform_random(128, 4.0, 5);
        let mut dist = DistSpmm::builder(KernelKind::AccSpmm, &m)
            .shards(2)
            .feature_dim(8)
            .build()
            .unwrap();
        // Clean overlay: true no-op, pool untouched.
        let before = dist.jobs_processed();
        let report = dist.apply_delta(&DeltaCsr::new(m.clone())).unwrap();
        assert_eq!(report.shards_repaired, 0);
        assert_eq!(dist.jobs_processed(), before);
        // Wrong shape is rejected up front.
        let other = gen::uniform_random(64, 4.0, 6);
        assert!(dist.apply_delta(&DeltaCsr::new(other)).is_err());
        // Wrong base (right shape) is rejected by the per-shard
        // fingerprint check inside repair.
        let impostor = gen::uniform_random(128, 4.0, 99);
        let mut delta = DeltaCsr::new(impostor);
        delta.upsert(3, 3, 1.0).unwrap();
        assert!(dist.apply_delta(&delta).is_err());
    }
}
