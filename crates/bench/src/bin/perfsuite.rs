//! The machine-readable performance suite — the artifact CI and future
//! PRs track for regressions.
//!
//! Runs the kernel matrix (all six [`KernelKind`]s) over the generated
//! Table-2 dataset collection with warmup + timed repeats, under an open
//! `spmm-trace` measurement window, and writes `BENCH_perfsuite.json`:
//! per-(dataset, kernel) median/min wall time and GFLOP/s plus the full
//! counter snapshot, schema-versioned via `common::json`.
//!
//! ```text
//! perfsuite [--quick] [--arch a800] [--dim N] [--warmup N] [--repeats N] [--out PATH]
//! perfsuite --gate <baseline.json> <candidate.json> [--threshold 0.25]
//! ```
//!
//! `--quick` restricts to the three smallest datasets with a small
//! feature dimension — the CI smoke configuration. `--gate` compares two
//! suite artifacts and exits non-zero when any kernel's median wall time
//! regressed by more than the threshold (see `scripts/bench_gate.sh`).

use acc_spmm::matrix::{gen, CsrMatrix, Dataset, DenseMatrix, TABLE2};
use acc_spmm::sim::Arch;
use acc_spmm::{
    AccSpmm, DistSpmm, Engine, KernelKind, PreparedKernel, Priority, SubmitOptions, SubmitOutcome,
    Workspace,
};
use spmm_bench::{f2, print_table};
use spmm_common::json::{Json, ToJson};
use spmm_common::stats::median;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bump on any incompatible change to the artifact layout.
/// v2: added the hybrid-dispatch `auto_scenario` (since removed with
/// the hybrid-region layer; scenarios are optional to the gate, so the
/// removal kept the version).
/// v3: added the QoS `storm_scenario` (mixed tenants/priorities under
/// heavy-tailed arrivals; gated on interactive p99 latency, zero
/// deadline-miss executions, the page budget holding, and
/// bit-identity).
/// v4: added the dynamic-graph `streaming_scenario` (a GCN operator
/// under per-step edge churn; plan repair vs fresh build, gated on
/// bit-identity — single-node and sharded). The warm-start scenario
/// was removed later with the engine's plan store; scenarios are
/// optional to the gate, so the removal kept the version.
const SCHEMA_VERSION: u64 = 4;

/// One (dataset, kernel) measurement.
struct Entry {
    dataset: String,
    kernel: String,
    rows: f64,
    nnz: f64,
    feature_dim: f64,
    prep_s: f64,
    median_s: f64,
    min_s: f64,
    gflops: f64,
}

spmm_common::impl_to_json!(Entry {
    dataset,
    kernel,
    rows,
    nnz,
    feature_dim,
    prep_s,
    median_s,
    min_s,
    gflops
});

struct Config {
    quick: bool,
    arch: Arch,
    dim: usize,
    warmup: usize,
    repeats: usize,
    out: String,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--gate") {
        let threshold = flag_value(&args, "--threshold")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.25);
        let (Some(baseline), Some(candidate)) = (args.get(i + 1), args.get(i + 2)) else {
            eprintln!("usage: perfsuite --gate <baseline.json> <candidate.json> [--threshold X]");
            return ExitCode::FAILURE;
        };
        return gate(baseline, candidate, threshold);
    }

    let quick = args.iter().any(|a| a == "--quick");
    let cfg = Config {
        quick,
        arch: flag_value(&args, "--arch")
            .and_then(|s| Arch::parse(&s))
            .unwrap_or(Arch::A800),
        dim: flag_value(&args, "--dim")
            .and_then(|s| s.parse().ok())
            .unwrap_or(if quick { 32 } else { 128 }),
        warmup: flag_value(&args, "--warmup")
            .and_then(|s| s.parse().ok())
            .unwrap_or(1),
        repeats: flag_value(&args, "--repeats")
            .and_then(|s| s.parse().ok())
            .unwrap_or(if quick { 3 } else { 5 }),
        out: flag_value(&args, "--out").unwrap_or_else(|| "BENCH_perfsuite.json".into()),
    };
    run_suite(&cfg)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The datasets the suite sweeps: all ten Table-2 analogs, or the three
/// smallest for the CI smoke run.
fn suite_datasets(quick: bool) -> Vec<&'static Dataset> {
    let mut ds: Vec<&'static Dataset> = TABLE2.iter().collect();
    if quick {
        ds.sort_by_key(|d| d.scaled_rows);
        ds.truncate(3);
    }
    ds
}

fn run_suite(cfg: &Config) -> ExitCode {
    let mode = if cfg.quick { "quick" } else { "full" };
    eprintln!(
        "perfsuite: mode {mode}, arch {:?}, dim {}, warmup {}, repeats {}",
        cfg.arch, cfg.dim, cfg.warmup, cfg.repeats
    );
    spmm_trace::reset();
    spmm_trace::enable();

    let mut entries = Vec::new();
    let mut rows = Vec::new();
    for d in suite_datasets(cfg.quick) {
        let m = {
            let _s = spmm_trace::span("perfsuite.build_dataset");
            spmm_bench::build_dataset(d)
        };
        for kind in KernelKind::ALL {
            let e = measure(d.abbr, kind, &m, cfg);
            rows.push(vec![
                e.dataset.clone(),
                e.kernel.clone(),
                format!("{:.3}", e.median_s * 1e3),
                format!("{:.3}", e.min_s * 1e3),
                f2(e.gflops),
            ]);
            entries.push(e);
        }
    }

    // Compute-core microbenchmark: the row core every kernel runs, once
    // per ISA tier the host offers.
    for e in row_core_entries(cfg) {
        rows.push(vec![
            e.dataset.clone(),
            e.kernel.clone(),
            format!("{:.3}", e.median_s * 1e3),
            format!("{:.3}", e.min_s * 1e3),
            f2(e.gflops),
        ]);
        entries.push(e);
    }

    // Multi-client serving scenario: the same workload through the
    // engine's micro-batcher vs independent multiply loops.
    let (scenario_entries, scenario) = engine_scenario(cfg);
    for e in &scenario_entries {
        rows.push(vec![
            e.dataset.clone(),
            e.kernel.clone(),
            format!("{:.3}", e.median_s * 1e3),
            format!("{:.3}", e.min_s * 1e3),
            f2(e.gflops),
        ]);
    }
    entries.extend(scenario_entries);

    // Sharded multi-node scenario: the Table-2 collection cut into
    // 1/2/4/8 row-block shards (spmm-dist), bit-identity verified.
    let (dist_entries, dist) = dist_scenario(cfg);
    for e in &dist_entries {
        rows.push(vec![
            e.dataset.clone(),
            e.kernel.clone(),
            format!("{:.3}", e.median_s * 1e3),
            format!("{:.3}", e.min_s * 1e3),
            f2(e.gflops),
        ]);
    }
    entries.extend(dist_entries);

    // QoS storm scenario: interactive tenants trickling requests while
    // batch tenants flood, under tenant quotas, deadlines, and a hard
    // page budget — the serving tier's latency and admission story.
    let (storm_entries, storm) = storm_scenario(cfg);
    for e in &storm_entries {
        rows.push(vec![
            e.dataset.clone(),
            e.kernel.clone(),
            format!("{:.3}", e.median_s * 1e3),
            format!("{:.3}", e.min_s * 1e3),
            f2(e.gflops),
        ]);
    }
    entries.extend(storm_entries);

    // Dynamic-graph scenario: a GCN aggregation operator under edge
    // churn — plan repair vs fresh build per step, with single-node and
    // sharded bit-identity verified.
    let (streaming_entries, streaming) = streaming_scenario(cfg);
    for e in &streaming_entries {
        rows.push(vec![
            e.dataset.clone(),
            e.kernel.clone(),
            format!("{:.3}", e.median_s * 1e3),
            format!("{:.3}", e.min_s * 1e3),
            f2(e.gflops),
        ]);
    }
    entries.extend(streaming_entries);

    spmm_trace::disable();
    let counters = spmm_trace::snapshot().counters;

    print_table(
        &format!("perfsuite ({mode}, {:?}, N = {})", cfg.arch, cfg.dim),
        &["dataset", "kernel", "median ms", "min ms", "GFLOP/s"],
        &rows,
    );
    if let Some(speedup) = scenario["speedup"].as_f64() {
        let bit = matches!(scenario["bit_identical"], Json::Bool(true));
        eprintln!(
            "engine scenario: {speedup:.2}x aggregate throughput vs direct loops \
             (bit-identical: {bit})"
        );
    }
    if let Some(speedup) = dist["speedup_4x"].as_f64() {
        let bit = matches!(dist["bit_identical"], Json::Bool(true));
        eprintln!(
            "dist scenario: {speedup:.2}x critical-path speedup at 4 shards \
             (bit-identical: {bit})"
        );
    }
    if let Some(p99) = storm["interactive_p99_ms"].as_f64() {
        let late = storm["late_executions"].as_f64().unwrap_or(f64::NAN);
        let peak = storm["pages_peak"].as_f64().unwrap_or(f64::NAN);
        let budget = storm["page_budget"].as_f64().unwrap_or(f64::NAN);
        eprintln!(
            "storm scenario: interactive p99 {p99:.2} ms, late executions {late}, \
             pages peak {peak}/{budget}"
        );
    }
    if let Some(speedup) = streaming["repair_speedup"].as_f64() {
        let bit = matches!(streaming["bit_identical"], Json::Bool(true));
        let dist_bit = matches!(streaming["dist_bit_identical"], Json::Bool(true));
        eprintln!(
            "streaming scenario: {speedup:.2}x plan repair vs fresh build \
             per churn step (bit-identical: {bit}, sharded: {dist_bit})"
        );
    }

    let doc = suite_json(
        cfg, mode, &entries, &scenario, &dist, &storm, &streaming, &counters,
    );
    let text = doc.to_string_pretty();
    match std::fs::File::create(&cfg.out).and_then(|mut f| f.write_all(text.as_bytes())) {
        Ok(()) => {
            eprintln!("wrote {} ({} entries)", cfg.out, entries.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to write {}: {e}", cfg.out);
            ExitCode::FAILURE
        }
    }
}

/// Prepare once, then warmup + timed repeats of the zero-alloc multiply.
fn measure(dataset: &str, kind: KernelKind, m: &CsrMatrix, cfg: &Config) -> Entry {
    let t0 = Instant::now();
    let k = PreparedKernel::builder(kind, m)
        .arch(cfg.arch)
        .feature_dim(cfg.dim)
        .build()
        .expect("prepare");
    let prep_s = t0.elapsed().as_secs_f64();

    let b = DenseMatrix::random(m.ncols(), cfg.dim, 0xBEEF);
    let mut out = DenseMatrix::zeros(m.nrows(), cfg.dim);
    let mut ws = Workspace::for_plan(k.execution_plan());
    for _ in 0..cfg.warmup {
        k.execute_into(&b, &mut out, &mut ws).expect("warmup");
    }
    let times: Vec<f64> = (0..cfg.repeats.max(1))
        .map(|_| {
            let _s = spmm_trace::span("perfsuite.repeat");
            let t = Instant::now();
            k.execute_into(&b, &mut out, &mut ws).expect("execute");
            t.elapsed().as_secs_f64()
        })
        .collect();
    let med = median(&times);
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    Entry {
        dataset: dataset.into(),
        kernel: kind.name().into(),
        rows: m.nrows() as f64,
        nnz: m.nnz() as f64,
        feature_dim: cfg.dim as f64,
        prep_s,
        median_s: med,
        min_s: min,
        gflops: 2.0 * m.nnz() as f64 * cfg.dim as f64 / med / 1e9,
    }
}

/// The compute-core entries: one `row-core-<tier>` entry per ISA tier
/// the host offers, each timing
/// [`spmm_common::simd::mma_row_tier_unchecked`] — the row core every
/// kernel's executor calls, without the safe entry's per-call column
/// scan — over a fixed list of `(value, B row)` pairs at the suite's
/// feature dimension. Feeds the gate the loop the kernels spend their
/// FLOPs in, independent of format decode and scheduling, on every
/// tier rather than only the probed one.
fn row_core_entries(cfg: &Config) -> Vec<Entry> {
    use spmm_common::simd::mma_row_tier_unchecked;
    use spmm_common::util::splitmix64;
    use spmm_common::IsaTier;
    // 32 pairs per row, over a B small enough to stay cache-resident.
    const PAIRS: usize = 32;
    const B_ROWS: usize = 512;
    let _s = spmm_trace::span("perfsuite.row_core");
    let n = cfg.dim;
    let calls = if cfg.quick { 2_000 } else { 8_000 };

    let unit = |seed: u64| (splitmix64(seed) >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
    let avs: Vec<f32> = (0..PAIRS as u64).map(|t| unit(0xA11CE ^ t)).collect();
    let cols: Vec<u32> = (0..PAIRS as u64)
        .map(|t| (splitmix64(0xC015 ^ t) % B_ROWS as u64) as u32)
        .collect();
    let b: Vec<f32> = (0..(B_ROWS * n) as u64).map(|i| unit(0xB0B ^ i)).collect();
    let mut crow = vec![0f32; n];

    let flops = 2.0 * (PAIRS * n) as f64 * calls as f64;
    let mut entries = Vec::new();
    for tier in IsaTier::ALL.into_iter().filter(|t| t.is_available()) {
        let mut run = || {
            for _ in 0..calls {
                crow.fill(0.0);
                // SAFETY: every column is `% B_ROWS` and `b` holds
                // `B_ROWS` rows of `n = crow.len()` floats.
                unsafe {
                    mma_row_tier_unchecked(
                        std::hint::black_box(&avs),
                        std::hint::black_box(&cols),
                        std::hint::black_box(&b),
                        &mut crow,
                        tier,
                    );
                }
            }
            std::hint::black_box(crow[0]);
        };
        for _ in 0..cfg.warmup.max(1) {
            run();
        }
        let times: Vec<f64> = (0..cfg.repeats.max(1))
            .map(|_| {
                let t = Instant::now();
                run();
                t.elapsed().as_secs_f64()
            })
            .collect();
        let med = median(&times);
        entries.push(Entry {
            dataset: "row-core".into(),
            kernel: format!("row-core-{tier}"),
            rows: 1.0,
            nnz: PAIRS as f64,
            feature_dim: n as f64,
            prep_s: 0.0,
            median_s: med,
            min_s: times.iter().copied().fold(f64::INFINITY, f64::min),
            gflops: flops / med / 1e9,
        });
    }
    entries
}

/// The multi-client serving scenario: `SCENARIO_CLIENTS` threads share
/// one preprocessed matrix; the same request stream runs (a) as
/// independent [`AccSpmm::multiply`] loops and (b) through the
/// [`Engine`]'s plan cache + micro-batching worker pool. Reports
/// aggregate throughput for both and verifies the engine's outputs are
/// bit-identical to the direct path.
fn engine_scenario(cfg: &Config) -> (Vec<Entry>, Json) {
    const CLIENTS: usize = 8;
    let _s = spmm_trace::span("perfsuite.engine_scenario");
    let dim = 16; // small N, where sharing each row's pairs across a batch pays most
    let rounds = if cfg.quick { 12 } else { 24 };
    let runs = cfg.repeats.clamp(1, 3);
    let m = gen::rmat(
        gen::RmatConfig {
            scale: 12,
            avg_deg: 12.0,
            ..Default::default()
        },
        0xACC,
    );

    let t0 = Instant::now();
    let handle = Arc::new(
        AccSpmm::builder(&m)
            .arch(cfg.arch)
            .feature_dim(dim)
            .build()
            .expect("prepare scenario handle"),
    );
    let prep_s = t0.elapsed().as_secs_f64();

    // Per-client request streams and (untimed) reference outputs.
    let bs: Vec<Vec<DenseMatrix>> = (0..CLIENTS)
        .map(|c| {
            (0..rounds)
                .map(|r| DenseMatrix::random(m.ncols(), dim, (c * 1000 + r) as u64 + 1))
                .collect()
        })
        .collect();
    let expected: Vec<Vec<DenseMatrix>> = bs
        .iter()
        .map(|cb| cb.iter().map(|b| handle.multiply(b).unwrap()).collect())
        .collect();

    // (a) Direct: every client runs its own multiply loop on the shared
    // handle — the pre-engine serving story.
    let mut direct_times = Vec::new();
    for _ in 0..runs {
        let t = Instant::now();
        std::thread::scope(|s| {
            for cb in &bs {
                let handle = Arc::clone(&handle);
                s.spawn(move || {
                    for b in cb {
                        std::hint::black_box(handle.multiply(b).expect("direct multiply"));
                    }
                });
            }
        });
        direct_times.push(t.elapsed().as_secs_f64());
    }

    // (b) Engine: clients pipeline their stream through one shared
    // session; the worker coalesces same-key requests into batches.
    let engine = Engine::builder()
        .workers(1)
        .max_batch(CLIENTS)
        .batch_window(Duration::from_micros(200))
        .queue_capacity(CLIENTS * rounds + CLIENTS)
        .build()
        .expect("engine");
    let session = engine.install(handle.prepared().clone());

    let mut engine_times = Vec::new();
    let mut bit_identical = true;
    for run in 0..runs {
        let t = Instant::now();
        let outputs: Vec<Vec<DenseMatrix>> = std::thread::scope(|s| {
            let handles: Vec<_> = bs
                .iter()
                .map(|cb| {
                    let session = session.clone();
                    s.spawn(move || {
                        let tickets: Vec<_> = cb
                            .iter()
                            .map(|b| {
                                session
                                    .submit(b.clone(), SubmitOptions::new())
                                    .into_result()
                                    .expect("submit")
                            })
                            .collect();
                        tickets
                            .into_iter()
                            .map(|t| t.wait().expect("engine multiply"))
                            .collect::<Vec<DenseMatrix>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        engine_times.push(t.elapsed().as_secs_f64());
        if run + 1 == runs {
            bit_identical = outputs.iter().zip(&expected).all(|(got, want)| {
                got.iter()
                    .zip(want)
                    .all(|(g, w)| g.as_slice() == w.as_slice())
            });
        }
    }
    let stats = engine.stats();

    let total = (CLIENTS * rounds) as f64;
    let flops = 2.0 * m.nnz() as f64 * dim as f64 * total;
    let direct_s = median(&direct_times);
    let engine_s = median(&engine_times);
    let entry = |kernel: &str, secs: f64, mins: f64| Entry {
        dataset: "rmat12-serve".into(),
        kernel: kernel.into(),
        rows: m.nrows() as f64,
        nnz: m.nnz() as f64,
        feature_dim: dim as f64,
        prep_s,
        median_s: secs / total,
        min_s: mins / total,
        gflops: flops / secs / 1e9,
    };
    let entries = vec![
        entry(
            "direct-8-clients",
            direct_s,
            direct_times.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        entry(
            "engine-8-clients",
            engine_s,
            engine_times.iter().copied().fold(f64::INFINITY, f64::min),
        ),
    ];

    let mut sj = BTreeMap::new();
    sj.insert("clients".into(), Json::Num(CLIENTS as f64));
    sj.insert("rounds_per_client".into(), Json::Num(rounds as f64));
    sj.insert("feature_dim".into(), Json::Num(dim as f64));
    sj.insert("direct_s".into(), Json::Num(direct_s));
    sj.insert("engine_s".into(), Json::Num(engine_s));
    sj.insert("speedup".into(), Json::Num(direct_s / engine_s));
    sj.insert("bit_identical".into(), Json::Bool(bit_identical));
    sj.insert("batches".into(), Json::Num(stats.batches as f64));
    sj.insert(
        "batch_occupancy".into(),
        Json::Num(stats.batched_requests as f64 / stats.batches.max(1) as f64),
    );
    sj.insert("plan_builds".into(), Json::Num(stats.plan_builds as f64));
    (entries, Json::Obj(sj))
}

/// The QoS storm scenario ("rmat12-storm"): two interactive tenants
/// trickle latency-sensitive requests while six batch tenants flood the
/// queue with pipelined bulk work, all through one engine configured
/// with per-tenant quotas and a hard page budget. Rejected submissions
/// (quota or page-budget admission) back off by the engine's
/// `retry_after` hint and resubmit, so every request eventually
/// completes and can be verified bit-identical against the direct path.
/// A handful of deliberately past-due requests prove deadline drops
/// happen *before* execution (`late_executions` must stay 0).
///
/// Reports interactive-class p99 completion latency (the number the
/// gate floors), overall p50/p99, admission-control counts, and the
/// page pool's peak-vs-budget watermark read back through the
/// `engine.pages.peak` trace counter.
fn storm_scenario(cfg: &Config) -> (Vec<Entry>, Json) {
    const CLIENTS: usize = 8;
    const INTERACTIVE_CLIENTS: usize = 2;
    /// Outstanding-request window each batch tenant keeps in flight.
    const BATCH_WINDOW: usize = 4;
    const PAGE_BUDGET: usize = 64;
    const TENANT_QUOTA: usize = 2;
    let _s = spmm_trace::span("perfsuite.storm_scenario");
    let dim = 16;
    let interactive_rounds = if cfg.quick { 8 } else { 16 };
    let batch_rounds = if cfg.quick { 16 } else { 32 };
    let m = gen::rmat(
        gen::RmatConfig {
            scale: 12,
            avg_deg: 12.0,
            ..Default::default()
        },
        0x570,
    );

    let handle = Arc::new(
        AccSpmm::builder(&m)
            .arch(cfg.arch)
            .feature_dim(dim)
            .build()
            .expect("prepare storm handle"),
    );

    // Per-client request streams and (untimed) reference outputs.
    let rounds_for = |client: usize| {
        if client < INTERACTIVE_CLIENTS {
            interactive_rounds
        } else {
            batch_rounds
        }
    };
    let bs: Vec<Vec<DenseMatrix>> = (0..CLIENTS)
        .map(|c| {
            (0..rounds_for(c))
                .map(|r| DenseMatrix::random(m.ncols(), dim, (c * 1000 + r) as u64 + 0x570))
                .collect()
        })
        .collect();
    let expected: Vec<Vec<DenseMatrix>> = bs
        .iter()
        .map(|cb| cb.iter().map(|b| handle.multiply(b).unwrap()).collect())
        .collect();

    let engine = Engine::builder()
        .workers(1)
        .max_batch(CLIENTS)
        .batch_window(Duration::from_micros(200))
        .queue_capacity(256)
        .tenant_quota(TENANT_QUOTA)
        .page_budget(PAGE_BUDGET)
        .build()
        .expect("storm engine");
    let session = engine.install(handle.prepared().clone());
    let peak_counter_before = spmm_trace::snapshot().counter("engine.pages.peak");

    // Submit-with-backoff: resubmit on quota/page rejection after the
    // hinted interval (clamped so a storm cannot stall the suite).
    let submit_retrying = |b: &DenseMatrix, opts: &SubmitOptions| loop {
        match session.submit(b.clone(), opts.clone()) {
            SubmitOutcome::Accepted(t) => return t,
            SubmitOutcome::Rejected { retry_after, .. } => {
                let wait = retry_after
                    .unwrap_or(Duration::from_micros(200))
                    .min(Duration::from_millis(2));
                std::thread::sleep(wait);
            }
            _ => unreachable!("non-exhaustive outcome"),
        }
    };

    // Doomed requests: already past due at submission; they must be
    // dropped before ever reaching the kernel.
    const DOOMED: usize = 4;
    let doomed_tickets: Vec<_> = (0..DOOMED)
        .map(|i| {
            let b = DenseMatrix::random(m.ncols(), dim, 0xD00 + i as u64);
            submit_retrying(&b, &SubmitOptions::new().deadline(Duration::ZERO))
        })
        .collect();

    let t0 = Instant::now();
    // (per-request completion latencies, outputs) per client.
    let per_client: Vec<(Vec<f64>, Vec<DenseMatrix>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let cb = &bs[c];
                let session = session.clone();
                s.spawn(move || {
                    let interactive = c < INTERACTIVE_CLIENTS;
                    let opts = SubmitOptions::new()
                        .tenant(format!("storm-{c}"))
                        .priority(if interactive {
                            Priority::Interactive
                        } else {
                            Priority::Batch
                        })
                        .deadline(Duration::from_secs(30));
                    let mut latencies = Vec::with_capacity(cb.len());
                    let mut outputs = Vec::with_capacity(cb.len());
                    if interactive {
                        // Closed loop: one outstanding request, the
                        // latency-sensitive access pattern.
                        for b in cb {
                            let t = Instant::now();
                            let ticket = loop {
                                match session.submit(b.clone(), opts.clone()) {
                                    SubmitOutcome::Accepted(t) => break t,
                                    SubmitOutcome::Rejected { retry_after, .. } => {
                                        let wait = retry_after
                                            .unwrap_or(Duration::from_micros(200))
                                            .min(Duration::from_millis(2));
                                        std::thread::sleep(wait);
                                    }
                                    _ => unreachable!("non-exhaustive outcome"),
                                }
                            };
                            let out = ticket.wait().expect("interactive multiply");
                            latencies.push(t.elapsed().as_secs_f64());
                            outputs.push(out);
                        }
                    } else {
                        // Pipelined: keep a window in flight to flood
                        // the queue and the page budget. Completed
                        // tickets hold their output pages until waited,
                        // so a rejected client must drain its own
                        // oldest ticket before backing off — otherwise
                        // the whole budget can end up parked in
                        // finished-but-unretrieved results.
                        let mut inflight: Vec<(Instant, spmm_engine::Ticket)> = Vec::new();
                        let drain_oldest =
                            |inflight: &mut Vec<(Instant, spmm_engine::Ticket)>,
                             outputs: &mut Vec<DenseMatrix>,
                             latencies: &mut Vec<f64>| {
                                let (t, ticket) = inflight.remove(0);
                                outputs.push(ticket.wait().expect("batch multiply"));
                                latencies.push(t.elapsed().as_secs_f64());
                            };
                        for b in cb {
                            if inflight.len() == BATCH_WINDOW {
                                drain_oldest(&mut inflight, &mut outputs, &mut latencies);
                            }
                            let t = Instant::now();
                            let ticket = loop {
                                match session.submit(b.clone(), opts.clone()) {
                                    SubmitOutcome::Accepted(t) => break t,
                                    SubmitOutcome::Rejected { retry_after, .. } => {
                                        if inflight.is_empty() {
                                            let wait = retry_after
                                                .unwrap_or(Duration::from_micros(200))
                                                .min(Duration::from_millis(2));
                                            std::thread::sleep(wait);
                                        } else {
                                            drain_oldest(
                                                &mut inflight,
                                                &mut outputs,
                                                &mut latencies,
                                            );
                                        }
                                    }
                                    _ => unreachable!("non-exhaustive outcome"),
                                }
                            };
                            inflight.push((t, ticket));
                        }
                        for (t, ticket) in inflight {
                            outputs.push(ticket.wait().expect("batch multiply"));
                            latencies.push(t.elapsed().as_secs_f64());
                        }
                    }
                    (latencies, outputs)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let storm_s = t0.elapsed().as_secs_f64();

    let mut doomed_dropped = 0usize;
    for t in doomed_tickets {
        if matches!(
            t.wait(),
            Err(spmm_common::SpmmError::DeadlineExpired { .. })
        ) {
            doomed_dropped += 1;
        }
    }

    let bit_identical = per_client.iter().zip(&expected).all(|((_, got), want)| {
        got.iter()
            .zip(want)
            .all(|(g, w)| g.as_slice() == w.as_slice())
    });

    let quantile = |sorted: &[f64], q: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    };
    let mut interactive_lat: Vec<f64> = per_client[..INTERACTIVE_CLIENTS]
        .iter()
        .flat_map(|(l, _)| l.iter().copied())
        .collect();
    let mut all_lat: Vec<f64> = per_client
        .iter()
        .flat_map(|(l, _)| l.iter().copied())
        .collect();
    interactive_lat.sort_by(f64::total_cmp);
    all_lat.sort_by(f64::total_cmp);
    let interactive_p99 = quantile(&interactive_lat, 0.99);
    let p50 = quantile(&all_lat, 0.5);
    let p99 = quantile(&all_lat, 0.99);

    let stats = engine.stats();
    let pages_peak = spmm_trace::snapshot().counter("engine.pages.peak") - peak_counter_before;
    let total = all_lat.len() as f64;
    let entries = vec![Entry {
        dataset: "rmat12-storm".into(),
        kernel: "engine-storm".into(),
        rows: m.nrows() as f64,
        nnz: m.nnz() as f64,
        feature_dim: dim as f64,
        prep_s: 0.0,
        median_s: p50,
        min_s: interactive_p99,
        gflops: 2.0 * m.nnz() as f64 * dim as f64 * total / storm_s / 1e9,
    }];

    let mut sj = BTreeMap::new();
    sj.insert("clients".into(), Json::Num(CLIENTS as f64));
    sj.insert(
        "interactive_clients".into(),
        Json::Num(INTERACTIVE_CLIENTS as f64),
    );
    sj.insert("requests".into(), Json::Num(total));
    sj.insert("tenant_quota".into(), Json::Num(TENANT_QUOTA as f64));
    sj.insert("page_budget".into(), Json::Num(PAGE_BUDGET as f64));
    sj.insert("wall_s".into(), Json::Num(storm_s));
    sj.insert(
        "interactive_p99_ms".into(),
        Json::Num(interactive_p99 * 1e3),
    );
    sj.insert("p50_ms".into(), Json::Num(p50 * 1e3));
    sj.insert("p99_ms".into(), Json::Num(p99 * 1e3));
    sj.insert("bit_identical".into(), Json::Bool(bit_identical));
    sj.insert("rejected".into(), Json::Num(stats.rejected as f64));
    sj.insert(
        "quota_rejected".into(),
        Json::Num(stats.quota_rejected as f64),
    );
    sj.insert("page_denials".into(), Json::Num(stats.page_denials as f64));
    sj.insert("deadline_expired".into(), Json::Num(stats.timed_out as f64));
    sj.insert("doomed_submitted".into(), Json::Num(DOOMED as f64));
    sj.insert("doomed_dropped".into(), Json::Num(doomed_dropped as f64));
    sj.insert(
        "late_executions".into(),
        Json::Num(stats.late_executions as f64),
    );
    sj.insert("pages_peak".into(), Json::Num(pages_peak as f64));
    sj.insert(
        "served_by_class".into(),
        Json::Arr(stats.served.iter().map(|&n| Json::Num(n as f64)).collect()),
    );
    (entries, Json::Obj(sj))
}

/// The sharded multi-node scenario: every suite dataset cut into
/// 1/2/4/8 nnz-balanced row-block shards and executed by `spmm-dist`.
///
/// Timing methodology: per-shard busy seconds are measured with
/// **sequential dispatch** (`multiply_profiled`), so each shard runs
/// uncontended with its row loop spread across the host's cores, and
/// completion is taken as the **critical path**, the slowest shard's
/// busy seconds ([`acc_spmm::DistReport::max_busy_seconds`]) — what a
/// deployment with one worker per device would see. A concurrent
/// `multiply` would instead share the host's cores among the shards
/// (each job of a round with at least as many jobs as threads runs on
/// its own worker thread), so its wall clock measures the host rather
/// than the model; the artifact's `wall_s` is the profiled round's wall
/// clock. Bit-identity against the
/// single-node kernel is verified on every dataset and shard count.
fn dist_scenario(cfg: &Config) -> (Vec<Entry>, Json) {
    const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
    let _s = spmm_trace::span("perfsuite.dist_scenario");
    let datasets = suite_datasets(cfg.quick);
    let runs = cfg.repeats.clamp(1, 3);

    let mut bit_identical = true;
    // Per shard count: (sum of critical-path seconds, sum of wall
    // seconds) across the collection.
    let mut cp_total = [0.0f64; SHARD_COUNTS.len()];
    let mut wall_total = [0.0f64; SHARD_COUNTS.len()];
    let mut rows_total = 0f64;
    let mut nnz_total = 0f64;

    for d in &datasets {
        let m = spmm_bench::build_dataset(d);
        let b = DenseMatrix::random(m.ncols(), cfg.dim, 0xD157);
        let reference = {
            let k = PreparedKernel::builder(KernelKind::AccSpmm, &m)
                .arch(cfg.arch)
                .feature_dim(cfg.dim)
                .build()
                .expect("single-node reference");
            k.execute(&b).expect("reference multiply")
        };
        rows_total += m.nrows() as f64;
        nnz_total += m.nnz() as f64;

        for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
            let dist = DistSpmm::builder(KernelKind::AccSpmm, &m)
                .shards(shards)
                .arch(cfg.arch)
                .feature_dim(cfg.dim)
                .build()
                .expect("shard build");
            for _ in 0..cfg.warmup.max(1) {
                dist.multiply_profiled(&b).expect("warmup");
            }
            let mut cps = Vec::with_capacity(runs);
            let mut walls = Vec::with_capacity(runs);
            let mut last = None;
            for _ in 0..runs {
                let (out, report) = dist.multiply_profiled(&b).expect("profiled multiply");
                cps.push(report.max_busy_seconds());
                walls.push(report.wall_seconds);
                last = Some(out);
            }
            bit_identical &= last.is_some_and(|out| {
                out.as_slice()
                    .iter()
                    .zip(reference.as_slice())
                    .all(|(g, w)| g.to_bits() == w.to_bits())
            });
            cp_total[i] += median(&cps);
            wall_total[i] += median(&walls);
        }
    }

    let flops = 2.0 * nnz_total * cfg.dim as f64;
    let entries: Vec<Entry> = SHARD_COUNTS
        .iter()
        .enumerate()
        .map(|(i, &shards)| Entry {
            dataset: "dist-table2".into(),
            kernel: format!("dist-{shards}-shard"),
            rows: rows_total,
            nnz: nnz_total,
            feature_dim: cfg.dim as f64,
            prep_s: 0.0,
            median_s: cp_total[i],
            min_s: wall_total[i],
            gflops: flops / cp_total[i] / 1e9,
        })
        .collect();

    let mut sj = BTreeMap::new();
    sj.insert("datasets".into(), Json::Num(datasets.len() as f64));
    sj.insert("feature_dim".into(), Json::Num(cfg.dim as f64));
    sj.insert(
        "shard_counts".into(),
        Json::Arr(SHARD_COUNTS.iter().map(|&s| Json::Num(s as f64)).collect()),
    );
    sj.insert(
        "critical_path_s".into(),
        Json::Arr(cp_total.iter().map(|&s| Json::Num(s)).collect()),
    );
    sj.insert(
        "wall_s".into(),
        Json::Arr(wall_total.iter().map(|&s| Json::Num(s)).collect()),
    );
    sj.insert(
        "aggregate_gflops".into(),
        Json::Arr(
            cp_total
                .iter()
                .map(|&s| Json::Num(flops / s / 1e9))
                .collect(),
        ),
    );
    // SHARD_COUNTS[0] == 1 and [2] == 4: the gate's headline ratio.
    sj.insert("speedup_4x".into(), Json::Num(cp_total[0] / cp_total[2]));
    sj.insert("bit_identical".into(), Json::Bool(bit_identical));
    (entries, Json::Obj(sj))
}

/// The dynamic-graph scenario ("streaming-gcn"): a normalized GCN
/// aggregation operator (`gcn_normalize` over an RMAT graph) evolves by
/// ~1% edge churn per step — upserted boundary edges, value updates,
/// and deletions, batched in a [`DeltaCsr`] overlay. Each step the live
/// plan is advanced two ways: a **fresh build** (`ExecutionPlan::build`
/// on the compacted operand) and a **repair** (`ExecutionPlan::repair`,
/// which also checks the overlay's base against the plan). Both derive
/// the host part only, so the reported `repair_speedup` sits near 1.
/// Both products must multiply bit-identically; a 4-shard coordinator
/// follows the same delta stream via [`DistSpmm::apply_delta`] and its
/// halo-exchanged output is checked against the repaired single-node
/// kernel every step. The gate requires both bit-identity flags.
///
/// [`DeltaCsr`]: acc_spmm::DeltaCsr
fn streaming_scenario(cfg: &Config) -> (Vec<Entry>, Json) {
    use acc_spmm::{gcn_normalize, AccConfig, DeltaCsr, ExecutionPlan};
    use spmm_common::util::splitmix64;
    let _s = spmm_trace::span("perfsuite.streaming_scenario");
    let dim = 16;
    let steps = if cfg.quick { 4 } else { 8 };
    let churn_frac = 0.01;
    let a = gen::rmat(
        gen::RmatConfig {
            scale: 12,
            avg_deg: 8.0,
            ..Default::default()
        },
        0xD17A,
    );
    let m0 = gcn_normalize(&a).expect("normalize streaming operator");
    let nnz0 = m0.nnz();
    let n = m0.nrows();
    let b = DenseMatrix::random(n, dim, 0x6C9);

    let mut kernel = PreparedKernel::builder(KernelKind::AccSpmm, &m0)
        .arch(cfg.arch)
        .feature_dim(dim)
        .build()
        .expect("streaming base plan");
    let mut dist = DistSpmm::builder(KernelKind::AccSpmm, &m0)
        .shards(4)
        .arch(cfg.arch)
        .feature_dim(dim)
        .build()
        .expect("streaming coordinator");

    let mut current = m0;
    let mut rebuild_times = Vec::with_capacity(steps);
    let mut repair_times = Vec::with_capacity(steps);
    let mut bit_identical = true;
    let mut dist_bit_identical = true;
    let mut edges_total = 0usize;
    let mut windows_total = 0usize;
    let mut windows_rebuilt = 0usize;
    let per_step = ((nnz0 as f64 * churn_frac).ceil() as usize).max(8);
    for step in 0..steps {
        // ~1% churn: 3/4 upserts (new edges + value updates), 1/4
        // deletions of existing edges, all deterministic.
        let mut delta = DeltaCsr::new(current.clone());
        for i in 0..per_step {
            let h = splitmix64((step * per_step + i) as u64 ^ 0x5EED_CAFE);
            let r = (h >> 32) as usize % n;
            if i % 4 == 3 {
                let (cols, _) = current.row(r);
                if let Some(&c) = cols.get(h as usize % cols.len().max(1)) {
                    delta.delete(r as u32, c);
                }
            } else {
                let c = (h as u32) % n as u32;
                let v = 0.05 + (h >> 40) as f32 / (1u64 << 25) as f32;
                delta.upsert(r as u32, c, v).expect("upsert");
            }
        }
        edges_total += delta.num_pending();

        let t = Instant::now();
        let compacted = delta.compact();
        let scratch = ExecutionPlan::build(
            KernelKind::AccSpmm,
            &compacted,
            cfg.arch,
            dim,
            AccConfig::full(),
        )
        .expect("full rebuild");
        rebuild_times.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let (repaired, report) = kernel.execution_plan().repair(&delta).expect("plan repair");
        repair_times.push(t.elapsed().as_secs_f64());
        windows_total += report.windows_total;
        windows_rebuilt += report.windows_rebuilt;

        let repaired_kernel = PreparedKernel::from_plan(repaired);
        let got = repaired_kernel.execute(&b).expect("repaired multiply");
        let want = PreparedKernel::from_plan(scratch)
            .execute(&b)
            .expect("scratch multiply");
        bit_identical &= got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(g, w)| g.to_bits() == w.to_bits());

        dist.apply_delta(&delta).expect("sharded delta");
        let sharded = dist.multiply(&b).expect("sharded multiply");
        dist_bit_identical &= sharded
            .as_slice()
            .iter()
            .zip(got.as_slice())
            .all(|(g, w)| g.to_bits() == w.to_bits());

        kernel = repaired_kernel;
        current = compacted;
    }

    let rebuild_s = median(&rebuild_times);
    let repair_s = median(&repair_times);
    let entry = |kernel: &str, times: &[f64]| Entry {
        dataset: "streaming-gcn".into(),
        kernel: kernel.into(),
        rows: n as f64,
        nnz: nnz0 as f64,
        feature_dim: dim as f64,
        prep_s: 0.0,
        median_s: median(times),
        min_s: times.iter().copied().fold(f64::INFINITY, f64::min),
        gflops: 0.0,
    };
    let entries = vec![
        entry("full-rebuild", &rebuild_times),
        entry("plan-repair", &repair_times),
    ];

    let mut sj = BTreeMap::new();
    sj.insert("rows".into(), Json::Num(n as f64));
    sj.insert("nnz".into(), Json::Num(nnz0 as f64));
    sj.insert("feature_dim".into(), Json::Num(dim as f64));
    sj.insert("steps".into(), Json::Num(steps as f64));
    sj.insert("churn_frac".into(), Json::Num(churn_frac));
    sj.insert(
        "edges_per_step".into(),
        Json::Num(edges_total as f64 / steps as f64),
    );
    sj.insert("rebuild_s".into(), Json::Num(rebuild_s));
    sj.insert("repair_s".into(), Json::Num(repair_s));
    sj.insert("repair_speedup".into(), Json::Num(rebuild_s / repair_s));
    sj.insert(
        "windows_rebuilt_frac".into(),
        Json::Num(windows_rebuilt as f64 / windows_total.max(1) as f64),
    );
    sj.insert("bit_identical".into(), Json::Bool(bit_identical));
    sj.insert("dist_bit_identical".into(), Json::Bool(dist_bit_identical));
    (entries, Json::Obj(sj))
}

#[allow(clippy::too_many_arguments)]
fn suite_json(
    cfg: &Config,
    mode: &str,
    entries: &[Entry],
    scenario: &Json,
    dist: &Json,
    storm: &Json,
    streaming: &Json,
    counters: &BTreeMap<String, u64>,
) -> Json {
    let mut doc = BTreeMap::new();
    doc.insert("schema_version".into(), Json::Num(SCHEMA_VERSION as f64));
    doc.insert("suite".into(), Json::Str("perfsuite".into()));
    doc.insert("mode".into(), Json::Str(mode.into()));
    doc.insert("arch".into(), Json::Str(format!("{:?}", cfg.arch)));
    doc.insert("feature_dim".into(), Json::Num(cfg.dim as f64));
    doc.insert("warmup".into(), Json::Num(cfg.warmup as f64));
    doc.insert("repeats".into(), Json::Num(cfg.repeats as f64));
    doc.insert("entries".into(), entries.to_json());
    doc.insert("engine_scenario".into(), scenario.clone());
    doc.insert("dist_scenario".into(), dist.clone());
    doc.insert("storm_scenario".into(), storm.clone());
    doc.insert("streaming_scenario".into(), streaming.clone());
    doc.insert(
        "counters".into(),
        Json::Obj(
            counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
                .collect(),
        ),
    );
    Json::Obj(doc)
}

/// Load a suite artifact, validating its schema version.
fn load_suite(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc["schema_version"].as_f64().map(|v| v as u64) {
        Some(SCHEMA_VERSION) => Ok(doc),
        Some(v) => Err(format!(
            "{path}: schema_version {v}, expected {SCHEMA_VERSION}"
        )),
        None => Err(format!("{path}: missing schema_version")),
    }
}

/// Per-kernel median wall times of one artifact, keyed by kernel name.
fn per_kernel_medians(doc: &Json) -> BTreeMap<String, Vec<f64>> {
    let mut map: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    if let Some(entries) = doc["entries"].as_array() {
        for e in entries {
            if let (Some(kernel), Some(med)) = (e["kernel"].as_str(), e["median_s"].as_f64()) {
                map.entry(kernel.to_string()).or_default().push(med);
            }
        }
    }
    map
}

/// Compare candidate vs baseline per kernel; fail on regressions beyond
/// `threshold` (e.g. 0.25 = 25% slower median).
fn gate(baseline: &str, candidate: &str, threshold: f64) -> ExitCode {
    let (base, cand) = match (load_suite(baseline), load_suite(candidate)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for r in [b, c] {
                if let Err(e) = r {
                    eprintln!("bench gate: {e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };
    let base_by_kernel = per_kernel_medians(&base);
    let cand_by_kernel = per_kernel_medians(&cand);

    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for (kernel, base_meds) in &base_by_kernel {
        let Some(cand_meds) = cand_by_kernel.get(kernel) else {
            failures.push(format!("{kernel}: missing from candidate"));
            continue;
        };
        let b = median(base_meds);
        let c = median(cand_meds);
        let ratio = if b > 0.0 { c / b } else { 1.0 };
        let verdict = if ratio > 1.0 + threshold {
            failures.push(format!(
                "{kernel}: median {:.3} ms -> {:.3} ms ({:+.1}%)",
                b * 1e3,
                c * 1e3,
                (ratio - 1.0) * 100.0
            ));
            "FAIL"
        } else {
            "ok"
        };
        rows.push(vec![
            kernel.clone(),
            format!("{:.3}", b * 1e3),
            format!("{:.3}", c * 1e3),
            format!("{:+.1}%", (ratio - 1.0) * 100.0),
            verdict.into(),
        ]);
    }
    // The serving scenario must stay present, correct, and faster than
    // the direct loops. The floor is conservative (the committed
    // artifact shows the full margin) to tolerate machine variance.
    if base["engine_scenario"].as_object().is_some() {
        match cand["engine_scenario"]["speedup"].as_f64() {
            None => failures.push("engine_scenario: missing from candidate".into()),
            Some(s) if s < 1.2 => {
                failures.push(format!("engine_scenario: speedup {s:.2}x below 1.2x floor"))
            }
            Some(_) => {}
        }
        if cand["engine_scenario"].as_object().is_some()
            && !matches!(cand["engine_scenario"]["bit_identical"], Json::Bool(true))
        {
            failures.push("engine_scenario: results not bit-identical".into());
        }
    }
    // The sharded scenario must stay present, bit-identical, and show a
    // real critical-path win at 4 shards. The 1.5x floor is the
    // acceptance bar; the committed artifact shows the full margin.
    if base["dist_scenario"].as_object().is_some() {
        match cand["dist_scenario"]["speedup_4x"].as_f64() {
            None => failures.push("dist_scenario: missing from candidate".into()),
            Some(s) if s < 1.5 => failures.push(format!(
                "dist_scenario: 4-shard speedup {s:.2}x below 1.5x floor"
            )),
            Some(_) => {}
        }
        if cand["dist_scenario"].as_object().is_some()
            && !matches!(cand["dist_scenario"]["bit_identical"], Json::Bool(true))
        {
            failures.push("dist_scenario: results not bit-identical".into());
        }
    }
    // The QoS storm scenario must stay present and hold the serving
    // tier's contracts: interactive p99 completion latency under a
    // conservative absolute ceiling, zero deadline-miss executions
    // (expired work is dropped *before* the kernel, never after), the
    // page pool's peak never above its configured budget, and outputs
    // bit-identical to the direct path.
    if base["storm_scenario"].as_object().is_some() {
        const P99_CEILING_MS: f64 = 250.0;
        match cand["storm_scenario"]["interactive_p99_ms"].as_f64() {
            None => failures.push("storm_scenario: missing from candidate".into()),
            Some(p99) if p99 > P99_CEILING_MS => failures.push(format!(
                "storm_scenario: interactive p99 {p99:.1} ms above the {P99_CEILING_MS} ms ceiling"
            )),
            Some(_) => {}
        }
        if cand["storm_scenario"].as_object().is_some() {
            if cand["storm_scenario"]["late_executions"].as_f64() != Some(0.0) {
                failures.push("storm_scenario: expired work reached the kernel".into());
            }
            match (
                cand["storm_scenario"]["pages_peak"].as_f64(),
                cand["storm_scenario"]["page_budget"].as_f64(),
            ) {
                (Some(peak), Some(budget)) if peak <= budget => {}
                other => failures.push(format!(
                    "storm_scenario: page budget violated or unreported ({other:?})"
                )),
            }
            if !matches!(cand["storm_scenario"]["bit_identical"], Json::Bool(true)) {
                failures.push("storm_scenario: results not bit-identical".into());
            }
        }
    }
    // The dynamic-graph scenario must stay present, its repaired plans
    // bit-identical to fresh builds on the compacted operand, and the
    // sharded coordinator bit-identical under the same churn.
    if base["streaming_scenario"].as_object().is_some() {
        if cand["streaming_scenario"].as_object().is_none() {
            failures.push("streaming_scenario: missing from candidate".into());
        } else {
            if !matches!(
                cand["streaming_scenario"]["bit_identical"],
                Json::Bool(true)
            ) {
                failures.push("streaming_scenario: repair diverged from full rebuild".into());
            }
            if !matches!(
                cand["streaming_scenario"]["dist_bit_identical"],
                Json::Bool(true)
            ) {
                failures.push("streaming_scenario: sharded churn results not bit-identical".into());
            }
        }
    }

    print_table(
        &format!("bench gate (threshold {:.0}%)", threshold * 100.0),
        &["kernel", "baseline ms", "candidate ms", "delta", "verdict"],
        &rows,
    );
    if failures.is_empty() {
        println!("\nbench gate: no kernel regressed beyond {threshold:.2}");
        ExitCode::SUCCESS
    } else {
        println!("\nbench gate FAILED:");
        for f in &failures {
            println!("  {f}");
        }
        ExitCode::FAILURE
    }
}
