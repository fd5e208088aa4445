//! Measured host wall-clock benchmark for the Acc-SpMM stack.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gcn-type2|cold-open-type1|serve-churn|sharded-type2> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload times one of the paths a user of the library waits on,
//! in a closed loop (the next operation starts only when the previous one
//! has completed), for `--seconds` of wall clock:
//!
//! * `gcn-type2` — `Gcn::forward`, a two-layer GCN, on three type-2
//!   (large AvgL) graphs in turn: the steady-state execute path.
//! * `cold-open-type1` — `Engine::session(..).open()` plus the first
//!   multiply on a type-1 (small AvgL) matrix the engine has never seen:
//!   the whole plan pipeline (reorder, format build, balance, compile) on
//!   the critical path of a request.
//! * `serve-churn` — steps of an evolving graph served by an engine: each
//!   step applies an edge delta to the session (`Session::apply_delta`,
//!   incremental plan repair) and then eight clients submit one request
//!   each, which the engine micro-batches. A request's latency runs from
//!   the start of its step, so the repair is on its critical path.
//! * `sharded-type2` — `DistSpmm::multiply` over four row shards of the
//!   type-2 graphs in turn: scatter, per-shard kernels, gather.
//!
//! Inputs are generated from `--seed` (the same seed gives the same
//! inputs); structural parameters are fixed so that seeds change only the
//! random realization. Every result is checked against the FP32 CSR
//! reference within TF32 tolerance, or bit-for-bit against an earlier
//! result that was.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones, measured with tracing off: the median and 90th
//! percentile of the operation latencies, and the median set-up time.
//! With `--trace 1` spmm-trace is switched on for the timed loop and the
//! metrics are the per-layer ones.
//!
//! The end-to-end times are stated at a fixed host speed. A shared host's
//! speed drifts, by up to 1.7x over seconds to minutes, which is far more
//! than the changes the benchmark must resolve. So after every timed
//! operation, and after every set-up, the benchmark times a fixed
//! reference loop ([`HostClock`]) and scales the time by [`CAL_REF_S`]
//! over the reference pass time measured next to it. The unscaled figures
//! go to standard error.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use acc_spmm::gnn::Activation;
use acc_spmm::matrix::datasets::Dataset;
use acc_spmm::prelude::*;
use acc_spmm::{gcn_normalize, DeltaCsr, ExecutionPlan, Gcn, GcnLayer, RepairReport};
use spmm_common::scalar::tf32_tolerance;
use spmm_common::util::splitmix64;
use spmm_trace::TraceSnapshot;

const USAGE: &str =
    "usage: perfbench --workload <gcn-type2|cold-open-type1|serve-churn|sharded-type2> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-up is repeated at least this many times per run, and until
/// [`SETUP_MIN_S`] of it has been timed, and its median reported: one
/// short set-up is a noisy sample.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_S: f64 = 2.0;
/// Repairs timed per traced run on workloads whose operations repair no
/// plan themselves.
const REPAIR_PROBES: usize = 5;
/// Share of stored entries one edge delta edits: the churn rate of the
/// perfsuite `streaming-gcn` scenario.
const CHURN_FRAC: f64 = 0.01;
/// Architecture the plans are built for: the library's default, as in
/// `AccSpmm::builder`.
const ARCH: Arch = Arch::A800;

/// [`HostClock`] pass time at the reference host speed: end-to-end times
/// are reported as if every pass had taken this long.
const CAL_REF_S: f64 = 0.5e-3;
/// A latency is scaled by the median of this many passes either side of it.
const CAL_HALF_WINDOW: usize = 12;
/// Passes timed after each set-up; the set-up is scaled by their median.
/// A pass takes about one or about two times [`CAL_REF_S`] as the host
/// runs its threads in parallel or not, so a median of few passes flips
/// between the two.
const CAL_SETUP_PASSES: usize = 25;

/// Stage names as recorded in `ExecutionPlan::stage_timings`.
const STAGES: [&str; 4] = ["reorder", "format_build", "balance", "compile"];

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "gcn-type2" => gcn_type2(&args),
        "cold-open-type1" => cold_open_type1(&args),
        "serve-churn" => serve_churn(&args),
        "sharded-type2" => sharded_type2(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match result {
        Ok(run) => println!("{}", run.report(args.trace)),
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }

    /// The end of the timed loop, `--seconds` from now.
    fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Everything one run measured.
#[derive(Default)]
struct Run {
    clock: HostClock,
    /// Each set-up's duration, seconds.
    setup_s: Vec<f64>,
    /// Each set-up's duration at the reference host speed.
    setup_ref_s: Vec<f64>,
    /// Latency of each timed operation, seconds.
    latencies_s: Vec<f64>,
    /// [`HostClock`] pass timed after each operation's latency.
    cal_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// A reference check (not a single operation) failed.
    mismatch: bool,
    layers: Layers,
}

/// Per-layer observations; times in seconds.
#[derive(Default)]
struct Layers {
    /// Per stage of [`STAGES`], one entry per from-scratch plan build.
    stage_s: [Vec<f64>; 4],
    repair_s: Vec<f64>,
    /// Share of RowWindows each repair rebuilt.
    rebuilt_frac: Vec<f64>,
    /// Time inside kernel execution during the timed loop (for sharded
    /// multiplies, the slowest shard's).
    exec_s: f64,
    /// SpMM products executed during the timed loop.
    products: u64,
    /// Kernel executions (engine micro-batches) that carried them.
    batches: u64,
    /// Time of the timed operations spent building or repairing plans,
    /// or scattering and gathering shard operands.
    other_layers_s: f64,
    /// Summed wall time of the timed operations.
    op_wall_s: f64,
    /// Mean nnz per 8x8 tensor-core block of each plan built.
    block_fill: Vec<f64>,
    /// Engine requests: submit to completion, seconds.
    served_s: Vec<f64>,
    /// Mean time the engine's worker spent executing one micro-batch.
    service_s: f64,
    /// Sharded multiplies: scatter and gather time, and per-shard kernel
    /// time per shard job.
    scatter_s: f64,
    gather_s: f64,
    shard_busy_s: f64,
    shard_jobs: u64,
}

impl Layers {
    fn record_plan(&mut self, plan: &ExecutionPlan) {
        for t in plan.stage_timings() {
            if let Some(i) = STAGES.iter().position(|&s| s == t.stage) {
                self.stage_s[i].push(t.seconds);
            }
        }
        if let Some(wp) = plan.partition() {
            self.block_fill.push(wp.mean_nnz_tc());
        }
    }

    /// Time `REPAIR_PROBES` independent repairs of `plan` against deltas
    /// over its own operand `base`.
    fn probe_repairs(&mut self, plan: &ExecutionPlan, base: &CsrMatrix, seed: u64) -> Result<()> {
        for k in 0..REPAIR_PROBES {
            let delta = churn(base, splitmix64(seed ^ k as u64))?;
            let (_, report) = plan.repair(&delta)?;
            self.record_repair(report);
        }
        Ok(())
    }

    /// Products and micro-batches `engine` executed since `before`, and
    /// the time its worker spent executing them.
    fn record_engine(&mut self, engine: &Engine, before: &EngineStats, snap: &TraceSnapshot) {
        let now = engine.stats();
        self.products = now.batched_requests - before.batched_requests;
        self.batches = now.batches - before.batches;
        self.exec_s = snap.span_total_ns("engine.batch_execute") as f64 * 1e-9;
        self.service_s = self.exec_s / self.batches.max(1) as f64;
    }

    fn record_repair(&mut self, report: RepairReport) {
        self.repair_s.push(report.repair_seconds);
        self.rebuilt_frac
            .push(report.windows_rebuilt as f64 / report.windows_total.max(1) as f64);
    }

    /// Mean time an engine request waited to be served: submit to
    /// completion less the micro-batch's execution.
    fn queue_wait_s(&self) -> f64 {
        if self.served_s.is_empty() {
            return 0.0;
        }
        let served = self.served_s.iter().sum::<f64>() / self.served_s.len() as f64;
        (served - self.service_s).max(0.0)
    }
}

impl Run {
    /// Record one operation's latency.
    fn record(&mut self, latency_s: f64) {
        self.latencies_s.push(latency_s);
        self.layers.op_wall_s += latency_s;
    }

    /// Time one [`HostClock`] pass for each latency recorded since the last
    /// call, so that every latency is scaled by as many passes.
    fn calibrate(&mut self) {
        while self.cal_s.len() < self.latencies_s.len() {
            let c = self.clock.pass();
            self.cal_s.push(c);
        }
    }

    fn fail(&mut self, what: &str, err: impl std::fmt::Display) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: {what} failed: {err}");
        }
    }

    fn report(&self, trace: bool) -> String {
        let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
        if trace {
            let l = &self.layers;
            for (i, name) in [
                "plan_reorder_ms",
                "plan_format_build_ms",
                "plan_balance_ms",
                "plan_compile_ms",
            ]
            .into_iter()
            .enumerate()
            {
                metrics.push((name, median(&l.stage_s[i]) * 1e3, "ms"));
            }
            let ops = self.attempted.max(1) as f64;
            let multiplies = l.products.max(1) as f64;
            metrics.extend([
                ("plan_repair_ms", median(&l.repair_s) * 1e3, "ms"),
                ("repair_windows_pct", median(&l.rebuilt_frac) * 100.0, "%"),
                ("exec_ms_per_spmm", l.exec_s / multiplies * 1e3, "ms"),
                (
                    "spmm_per_batch",
                    l.products as f64 / l.batches.max(1) as f64,
                    "count",
                ),
                ("engine_queue_wait_ms", l.queue_wait_s() * 1e3, "ms"),
                ("engine_service_ms", l.service_s * 1e3, "ms"),
                ("dist_scatter_ms", l.scatter_s / multiplies * 1e3, "ms"),
                (
                    "dist_shard_busy_ms",
                    l.shard_busy_s / l.shard_jobs.max(1) as f64 * 1e3,
                    "ms",
                ),
                ("dist_gather_ms", l.gather_s / multiplies * 1e3, "ms"),
                (
                    "host_other_ms_per_op",
                    (l.op_wall_s - l.exec_s - l.other_layers_s).max(0.0) / ops * 1e3,
                    "ms",
                ),
                ("block_fill_nnz", median(&l.block_fill), "nnz"),
            ]);
        } else {
            let lat = at_ref_speed(&self.latencies_s, &self.cal_s);
            eprintln!(
                "perfbench: unscaled latency median {:.3} ms, p90 {:.3} ms, set-up {:.4} s \
                 ({} set-ups); median reference pass {:.4} ms; {} operations",
                median(&self.latencies_s) * 1e3,
                percentile(&self.latencies_s, 0.9) * 1e3,
                median(&self.setup_s),
                self.setup_s.len(),
                median(&self.cal_s) * 1e3,
                self.latencies_s.len()
            );
            metrics.extend([
                ("latency_ms", median(&lat) * 1e3, "ms"),
                ("latency_p90_ms", percentile(&lat, 0.9) * 1e3, "ms"),
                ("setup_s", median(&self.setup_ref_s), "s"),
            ]);
        }
        let mut body = String::new();
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failed == 0 && !self.mismatch && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// Run `f` at least [`SETUP_REPEATS`] times and for at least
/// [`SETUP_MIN_S`], recording each duration and its duration at the
/// reference host speed; keep the last result.
fn repeated_setup<T>(run: &mut Run, mut f: impl FnMut(&mut Run) -> Result<T>) -> Result<T> {
    let mut last = None;
    while run.setup_s.len() < SETUP_REPEATS || run.setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        // Free the previous repetition before timing the next one.
        drop(last.take());
        let t = Instant::now();
        let value = f(run)?;
        let setup = t.elapsed().as_secs_f64();
        let passes: Vec<f64> = (0..CAL_SETUP_PASSES).map(|_| run.clock.pass()).collect();
        run.setup_s.push(setup);
        run.setup_ref_s.push(setup * CAL_REF_S / median(&passes));
        last = Some(value);
    }
    Ok(last.expect("set-up ran at least once"))
}

fn start_trace(trace: bool) {
    if trace {
        spmm_trace::reset();
        spmm_trace::enable();
    }
}

fn stop_trace(trace: bool) -> TraceSnapshot {
    let snap = spmm_trace::snapshot();
    if trace {
        spmm_trace::disable();
        spmm_trace::reset();
    }
    snap
}

/// A seed for input `i` of the run seeded with `seed`.
fn derive(seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ splitmix64(i.wrapping_add(0xBE7C_4A11)))
}

/// The Table-2 recipe `abbr`, at its registry size, with generator seed
/// `seed`.
fn table2_analog(abbr: &str, seed: u64) -> CsrMatrix {
    let recipe = Dataset::by_abbr(abbr).expect("Table-2 registry holds the recipe");
    Dataset { seed, ..*recipe }.build()
}

/// An edge delta over `base` editing [`CHURN_FRAC`] of its stored
/// entries: 3/8 new edges, 3/8 deletions and 1/4 value updates, so nnz
/// stays level however many deltas a run applies.
fn churn(base: &CsrMatrix, seed: u64) -> Result<DeltaCsr> {
    let edits = ((base.nnz() as f64 * CHURN_FRAC).ceil() as usize).max(8);
    let mut delta = DeltaCsr::new(base.clone());
    let mut h = seed;
    for i in 0..edits {
        h = splitmix64(h);
        let r = (h >> 32) as usize % base.nrows();
        let v = 0.01 + (h >> 40) as f32 / (1u64 << 24) as f32 * 0.1;
        let cols = base.row(r).0;
        match (i % 8, cols.get(h as usize % cols.len().max(1))) {
            (0..=2, _) | (_, None) => {
                delta.upsert(r as u32, h as u32 % base.ncols() as u32, v)?;
            }
            (3..=5, Some(&c)) => {
                delta.delete(r as u32, c);
            }
            (_, Some(&c)) => {
                delta.upsert(r as u32, c, v)?;
            }
        }
    }
    Ok(delta)
}

/// FNV-1a over the output's bit patterns.
fn bits_hash(m: &DenseMatrix) -> u64 {
    m.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

fn max_row_len(a: &CsrMatrix) -> usize {
    (0..a.nrows()).map(|r| a.row_len(r)).max().unwrap_or(1)
}

/// `got` against the FP32 reference `a × b`: TF32 rounding error grows
/// with the square root of the reduction length.
fn matches_reference(got: &DenseMatrix, a: &CsrMatrix, b: &DenseMatrix) -> bool {
    let tol = tf32_tolerance(max_row_len(a)) * 4.0;
    a.spmm_dense(b)
        .is_ok_and(|want| got.approx_eq(&want, tol, tol))
}

/// Checks each result: the first per input against its reference, every
/// later one bit-for-bit against the first.
struct Checker {
    expected: Vec<Option<u64>>,
}

impl Checker {
    fn new(inputs: usize) -> Self {
        Checker {
            expected: vec![None; inputs],
        }
    }

    /// `reference` is called only for the first result of input `i`.
    fn check(
        &mut self,
        i: usize,
        got: &DenseMatrix,
        reference: impl FnOnce(&DenseMatrix) -> bool,
    ) -> bool {
        let h = bits_hash(got);
        match self.expected[i] {
            Some(e) => e == h,
            None => {
                let ok = reference(got);
                if ok {
                    self.expected[i] = Some(h);
                }
                ok
            }
        }
    }
}

// ------------------------------------------------------- type-2 graphs

/// Graphs served in rotation by `gcn-type2` and `sharded-type2`. How well
/// one graph reorders into dense blocks varies with its seed; several per
/// run keep that from moving the run's latency.
const TYPE2_GRAPHS: usize = 3;
/// Feature matrices per graph, served in rotation.
const TYPE2_INPUTS: usize = 2;

/// FraudYelp-RSR's recipe (dense relational communities with hubs, AvgL
/// ~150), graph `g` of the run.
fn type2_graph(seed: u64, g: usize) -> CsrMatrix {
    table2_analog("FY-RSR", derive(seed, g as u64))
}

// ---------------------------------------------------------------- gcn-type2

/// Layer widths: input features, hidden, output classes, as in the
/// `distributed` example's GCN.
const GCN_WIDTHS: [usize; 3] = [64, 32, 8];

/// `gcn` applied to `x` layer by layer: each layer's aggregation is
/// checked against the FP32 reference, and the layers (rebuilt with the
/// weight seeds `Gcn::new` draws from `seed`) must reproduce
/// `Gcn::forward` bit for bit. Returns the forward's hash, or `None` if a
/// check fails.
fn verified_forward(
    gcn: &Gcn,
    normalized: &CsrMatrix,
    seed: u64,
    x: &DenseMatrix,
) -> Result<Option<u64>> {
    let out = gcn.forward(x)?;
    let mut h = x.clone();
    for (i, w) in GCN_WIDTHS.windows(2).enumerate() {
        let act = if i + 2 == GCN_WIDTHS.len() {
            Activation::None
        } else {
            Activation::Relu
        };
        if !matches_reference(&gcn.spmm().multiply(&h)?, normalized, &h) {
            return Ok(None);
        }
        h = GcnLayer::new(w[0], w[1], act, seed ^ ((i as u64) << 8)).forward(gcn.spmm(), &h)?;
    }
    let hash = bits_hash(&out);
    Ok((bits_hash(&h) == hash).then_some(hash))
}

fn gcn_type2(args: &Args) -> Result<Run> {
    let graphs: Vec<CsrMatrix> = (0..TYPE2_GRAPHS)
        .map(|g| type2_graph(args.seed, g))
        .collect();
    let weight_seed = |g: usize| derive(args.seed, 10 + g as u64);
    let xs: Vec<DenseMatrix> = (0..TYPE2_INPUTS as u64)
        .map(|i| DenseMatrix::random(graphs[0].nrows(), GCN_WIDTHS[0], derive(args.seed, 20 + i)))
        .collect();

    let mut run = Run::default();
    let models = repeated_setup(&mut run, |run| {
        graphs
            .iter()
            .enumerate()
            .map(|(g, a)| {
                let gcn = Gcn::new(a, &GCN_WIDTHS, ARCH, weight_seed(g))?;
                run.layers
                    .record_plan(gcn.spmm().prepared().execution_plan());
                Ok(gcn)
            })
            .collect::<Result<Vec<_>>>()
    })?;
    // Checked (and warmed) before the timed loop, so no check runs inside it.
    let mut expected = Vec::with_capacity(TYPE2_GRAPHS * TYPE2_INPUTS);
    for (g, (gcn, a)) in models.iter().zip(&graphs).enumerate() {
        let normalized = gcn_normalize(a)?;
        for x in &xs {
            expected.push(verified_forward(gcn, &normalized, weight_seed(g), x)?);
        }
    }
    run.mismatch = expected.contains(&None);

    start_trace(args.trace);
    let deadline = args.deadline();
    let mut i = 0;
    while Instant::now() < deadline {
        let (g, x) = (i % TYPE2_GRAPHS, i / TYPE2_GRAPHS % TYPE2_INPUTS);
        run.attempted += 1;
        let t = Instant::now();
        let out = models[g].forward(&xs[x]);
        let lat = t.elapsed().as_secs_f64();
        match out {
            Ok(out) => {
                run.record(lat);
                if expected[g * TYPE2_INPUTS + x] != Some(bits_hash(&out)) {
                    run.fail("gcn forward check", "output differs from the checked one");
                }
            }
            Err(e) => run.fail("gcn forward", e),
        }
        run.calibrate();
        i += 1;
    }
    let snap = stop_trace(args.trace);
    let l = &mut run.layers;
    l.exec_s = snap.span_total_ns("kernel.execute") as f64 * 1e-9;
    l.products = snap.span_count("kernel.execute") as u64;
    l.batches = l.products;
    if args.trace {
        let plan = models[0].spmm().prepared().execution_plan();
        l.probe_repairs(plan, &gcn_normalize(&graphs[0])?, derive(args.seed, 30))?;
    }
    Ok(run)
}

// ---------------------------------------------------------- cold-open-type1

/// Distinct matrices opened in rotation; with a one-plan cache every open
/// misses.
const COLD_POOL: usize = 4;
/// Feature dimension: that of `perfsuite --quick`.
const COLD_DIM: usize = 32;

fn cold_open_type1(args: &Args) -> Result<Run> {
    // YeastH's recipe: disjoint small molecules, AvgL ~2. The last matrix
    // only warms the engine; the timed loop never opens it.
    let pool: Vec<CsrMatrix> = (0..=COLD_POOL as u64)
        .map(|i| table2_analog("YH", derive(args.seed, i)))
        .collect();
    let operands: Vec<DenseMatrix> = pool
        .iter()
        .zip(0u64..)
        .map(|(a, i)| DenseMatrix::random(a.ncols(), COLD_DIM, derive(args.seed, 40 + i)))
        .collect();

    let mut run = Run::default();
    let engine = repeated_setup(&mut run, |_| {
        let engine = Engine::builder()
            .workers(1)
            .plan_cache_capacity(1)
            .build()?;
        // Warm the engine's worker and allocator.
        engine
            .session(&pool[COLD_POOL])
            .feature_dim(COLD_DIM)
            .open()?
            .multiply(&operands[COLD_POOL])?;
        Ok(engine)
    })?;
    let mut checker = Checker::new(COLD_POOL);

    start_trace(args.trace);
    let before = engine.stats();
    let deadline = args.deadline();
    let mut k = 0;
    let mut last_plan = None;
    while Instant::now() < deadline {
        let i = k % COLD_POOL;
        // A fresh copy, as if just loaded: no cached fingerprint.
        let mut a = pool[i].clone();
        a.invalidate_fingerprint();
        let builds_before = engine.stats().plan_builds;
        run.attempted += 1;
        let t = Instant::now();
        let out = engine
            .session(&a)
            .feature_dim(COLD_DIM)
            .open()
            .and_then(|s| {
                let sent = Instant::now();
                let c = s.multiply(&operands[i])?;
                Ok((s, c, sent.elapsed().as_secs_f64()))
            });
        let lat = t.elapsed().as_secs_f64();
        match out {
            Ok((session, c, served)) => {
                run.record(lat);
                run.layers.served_s.push(served);
                run.layers.record_plan(session.plan().execution_plan());
                let cold = engine.stats().plan_builds == builds_before + 1;
                let ok = checker.check(i, &c, |c| matches_reference(c, &a, &operands[i]));
                if !cold {
                    run.fail("cold open", "the plan came from the cache");
                } else if !ok {
                    run.fail("first result check", "output differs from the reference");
                }
                last_plan = Some((session.plan().clone(), i));
            }
            Err(e) => run.fail("open and first multiply", e),
        }
        run.calibrate();
        k += 1;
    }
    let snap = stop_trace(args.trace);
    let l = &mut run.layers;
    l.record_engine(&engine, &before, &snap);
    l.other_layers_s = snap.span_total_ns("engine.plan_build") as f64 * 1e-9;
    if let (true, Some((plan, i))) = (args.trace, last_plan) {
        l.probe_repairs(plan.execution_plan(), &pool[i], derive(args.seed, 50))?;
    }
    drop(engine);
    Ok(run)
}

// -------------------------------------------------------------- serve-churn

/// Clients, each with one request in flight per step, and the engine's
/// micro-batching limits: those of the perfsuite engine scenario.
const SERVE_CLIENTS: usize = 8;
const SERVE_BATCH_WINDOW: Duration = Duration::from_micros(200);
/// Feature dimension: that of the perfsuite engine scenario.
const SERVE_DIM: usize = 16;

fn serve_churn(args: &Args) -> Result<Run> {
    // web-BerkStan's recipe: host blocks with hub pages, AvgL ~11.
    let a = table2_analog("WB", derive(args.seed, 0));
    let operands: Vec<DenseMatrix> = (0..SERVE_CLIENTS as u64)
        .map(|i| DenseMatrix::random(a.ncols(), SERVE_DIM, derive(args.seed, 60 + i)))
        .collect();

    let mut run = Run::default();
    let (engine, mut session, mut current) = repeated_setup(&mut run, |run| {
        let normalized = gcn_normalize(&a)?;
        let engine = Engine::builder()
            .workers(1)
            .max_batch(SERVE_CLIENTS)
            .batch_window(SERVE_BATCH_WINDOW)
            .build()?;
        let session = engine.session(&normalized).feature_dim(SERVE_DIM).open()?;
        run.layers.record_plan(session.plan().execution_plan());
        Ok((engine, session, normalized))
    })?;

    start_trace(args.trace);
    let before = engine.stats();
    let deadline = args.deadline();
    let mut step = 0u64;
    while Instant::now() < deadline {
        let delta = churn(&current, derive(args.seed, 1000 + step))?;
        // Copied before the clock starts, so the requests reach the queue
        // back to back and can share one micro-batch.
        let requests = operands.clone();
        let start = Instant::now();
        match session.apply_delta(&delta) {
            Ok(report) => {
                run.layers.other_layers_s += report.repair_seconds;
                run.layers.record_repair(report);
            }
            Err(e) => {
                // Requests would run against a stale operand: stop here.
                run.attempted += 1;
                run.fail("apply_delta", e);
                break;
            }
        }
        let mut inflight = Vec::with_capacity(SERVE_CLIENTS);
        for (j, b) in requests.into_iter().enumerate() {
            run.attempted += 1;
            let sent = Instant::now();
            match session.submit(b, SubmitOptions::new()) {
                SubmitOutcome::Accepted(ticket) => inflight.push((sent, j, ticket)),
                SubmitOutcome::Rejected { reason, .. } => run.fail("submit", reason),
                _ => run.fail("submit", "unknown outcome"),
            }
        }
        // One client per step, in turn, has its result checked against
        // the reference after the step, so the check delays no request.
        let audited = (step % SERVE_CLIENTS as u64) as usize;
        let mut audit = None;
        for (sent, j, ticket) in inflight {
            let out = ticket.wait();
            let (from_step, from_submit) = (start.elapsed(), sent.elapsed());
            match out {
                Ok(c) => {
                    run.latencies_s.push(from_step.as_secs_f64());
                    run.layers.served_s.push(from_submit.as_secs_f64());
                    if j == audited {
                        audit = Some(c);
                    }
                }
                Err(e) => run.fail("served multiply", e),
            }
        }
        run.layers.op_wall_s += start.elapsed().as_secs_f64();
        run.calibrate();
        current = delta.compact();
        if let Some(c) = audit {
            if !matches_reference(&c, &current, &operands[audited]) {
                run.mismatch = true;
                eprintln!("perfbench: served result differs from the reference (step {step})");
            }
        }
        step += 1;
    }
    let snap = stop_trace(args.trace);
    run.layers.record_engine(&engine, &before, &snap);
    drop(session);
    drop(engine);
    Ok(run)
}

// ------------------------------------------------------------ sharded-type2

/// Row shards: as in the perfsuite `streaming-gcn` scenario and the
/// `distributed` example.
const SHARDS: usize = 4;
/// Feature dimension: that of `perfsuite --quick`.
const SHARD_DIM: usize = 32;

fn sharded_type2(args: &Args) -> Result<Run> {
    let graphs: Vec<CsrMatrix> = (0..TYPE2_GRAPHS)
        .map(|g| type2_graph(args.seed, g))
        .collect();
    let bs: Vec<DenseMatrix> = (0..TYPE2_INPUTS as u64)
        .map(|i| DenseMatrix::random(graphs[0].ncols(), SHARD_DIM, derive(args.seed, 70 + i)))
        .collect();

    let mut run = Run::default();
    let dists = repeated_setup(&mut run, |_| {
        graphs
            .iter()
            .map(|a| {
                DistSpmm::builder(KernelKind::AccSpmm, a)
                    .shards(SHARDS)
                    .arch(ARCH)
                    .feature_dim(SHARD_DIM)
                    .build()
            })
            .collect::<Result<Vec<_>>>()
    })?;
    let mut checker = Checker::new(TYPE2_GRAPHS * TYPE2_INPUTS);
    // The first result per input is checked before the timed loop.
    for (g, (dist, a)) in dists.iter().zip(&graphs).enumerate() {
        for (x, b) in bs.iter().enumerate() {
            let c = dist.multiply(b)?;
            run.mismatch |=
                !checker.check(g * TYPE2_INPUTS + x, &c, |c| matches_reference(c, a, b));
        }
    }

    start_trace(args.trace);
    let deadline = args.deadline();
    let mut i = 0;
    while Instant::now() < deadline {
        let (g, x) = (i % TYPE2_GRAPHS, i / TYPE2_GRAPHS % TYPE2_INPUTS);
        run.attempted += 1;
        let t = Instant::now();
        let out = dists[g].multiply(&bs[x]);
        let lat = t.elapsed().as_secs_f64();
        match out {
            Ok(c) => {
                run.record(lat);
                if let Some(report) = dists[g].last_report() {
                    run.layers.exec_s += report.max_busy_seconds();
                }
                if !checker.check(g * TYPE2_INPUTS + x, &c, |_| false) {
                    run.fail(
                        "sharded multiply check",
                        "output differs from the checked one",
                    );
                }
            }
            Err(e) => run.fail("sharded multiply", e),
        }
        run.calibrate();
        i += 1;
    }
    let snap = stop_trace(args.trace);
    let l = &mut run.layers;
    l.products = snap.span_count("dist.multiply") as u64;
    l.batches = l.products;
    l.scatter_s = snap.span_total_ns("dist.scatter") as f64 * 1e-9;
    l.gather_s = snap.span_total_ns("dist.gather") as f64 * 1e-9;
    l.other_layers_s = l.scatter_s + l.gather_s;
    l.shard_busy_s = snap.span_total_ns("dist.shard_execute") as f64 * 1e-9;
    l.shard_jobs = snap.span_count("dist.shard_execute") as u64;
    Ok(run)
}

// ---------------------------------------------------------- host speed

/// Reference loop elements: 256 KiB of `f32` gathered through as many
/// `u32` indices, small enough to stay in a core's L2.
const CAL_LEN: usize = 1 << 16;
/// Sweeps over the elements per pass.
const CAL_SWEEPS: usize = 4;

/// A fixed reference computation whose time tracks the host's speed: a
/// gather-multiply-add sweep on every hardware thread, with threads spawned
/// per pass as the library's parallel loops spawn theirs.
struct HostClock {
    data: Vec<f32>,
    idx: Vec<u32>,
    threads: usize,
}

impl Default for HostClock {
    fn default() -> Self {
        let mut h = 0x5EED;
        let idx = (0..CAL_LEN)
            .map(|_| {
                h = splitmix64(h);
                (h % CAL_LEN as u64) as u32
            })
            .collect();
        HostClock {
            data: (0..CAL_LEN).map(|i| (i % 97) as f32 * 0.01).collect(),
            idx,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl HostClock {
    /// Wall time of one pass, seconds.
    fn pass(&self) -> f64 {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|| {
                    let mut acc = [0f32; 4];
                    for _ in 0..CAL_SWEEPS {
                        for (k, &i) in self.idx.iter().enumerate() {
                            acc[k % 4] = acc[k % 4] * 0.999 + self.data[i as usize];
                        }
                    }
                    std::hint::black_box(acc);
                });
            }
        });
        t.elapsed().as_secs_f64()
    }
}

/// Each `times[i]` scaled to the reference host speed by the median of
/// the passes `cal[i - CAL_HALF_WINDOW..=i + CAL_HALF_WINDOW]`.
fn at_ref_speed(times: &[f64], cal: &[f64]) -> Vec<f64> {
    (0..times.len())
        .map(|i| {
            let window =
                &cal[i.saturating_sub(CAL_HALF_WINDOW)..(i + CAL_HALF_WINDOW + 1).min(cal.len())];
            times[i] * CAL_REF_S / median(window)
        })
        .collect()
}

// ---------------------------------------------------------------- statistics

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `q` in (0, 1].
fn percentile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
