//! Offline dispatch-policy autotuner — the tool that learns
//! `results/dispatch_policy.json`, the table behind [`KernelKind::Auto`].
//!
//! For every (Table-2 dataset, feature dimension) sample the tuner
//! builds and profiles all six concrete kernels on the simulator and
//! records the fastest. The samples are binned over (AvgL, row-length
//! CV, feature dim); each populated bin becomes a first-match rule
//! naming the kernel with the lowest within-bin geomean time, and the
//! fallback is the kernel with the best geomean over every sample.
//! Everything is deterministic — seeded generators, a deterministic
//! simulator, and sorted-key JSON — so CI can regenerate the artifact
//! and fail on any byte of drift:
//!
//! ```text
//! autotune [--out PATH]       # regenerate and write the policy
//! autotune --check [--out PATH]  # rewrite only if drifted (CI gate)
//! ```
//!
//! The tuner never consults the embedded policy itself (every sample
//! profiles concrete kernels), so there is no feedback loop between the
//! committed table and the next regeneration.

use acc_spmm::kernels::ir::kind_slug;
use acc_spmm::kernels::{PolicyRule, RuleBounds};
use acc_spmm::matrix::{CsrMatrix, TABLE2};
use acc_spmm::{
    AccConfig, Arch, DispatchPolicy, ExecutionPlan, KernelKind, MatrixFeatures, PreparedKernel,
    SimOptions,
};
use spmm_bench::{build_dataset, f2, print_table, sim_options_for};
use spmm_common::json::Json;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

/// Feature dimensions the sweep samples — must cover both perfsuite
/// configurations (quick runs N = 32, full runs N = 128) so the learned
/// bins match what the gate measures.
const SWEEP_DIMS: [usize; 2] = [32, 128];

/// Bin edges over [`MatrixFeatures::avg_l`] (half-open, last is open).
const AVGL_EDGES: [f64; 7] = [0.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Bin edges over [`MatrixFeatures::row_cv`].
const CV_EDGES: [f64; 3] = [0.0, 0.5, 1.0];

/// Bin edges over the feature dimension.
const DIM_EDGES: [f64; 2] = [1.0, 64.0];

/// One (dataset, feature-dim) measurement: every kernel's simulated
/// time.
struct Sample {
    dataset: String,
    features: MatrixFeatures,
    /// Simulated seconds per concrete kernel, in `KernelKind::ALL` order.
    single_s: [f64; KernelKind::ALL.len()],
}

impl Sample {
    /// Simulated seconds of `kind` on this sample.
    fn time_of(&self, kind: KernelKind) -> f64 {
        let i = KernelKind::ALL
            .iter()
            .position(|&c| c == kind)
            .expect("policies name concrete kernels");
        self.single_s[i]
    }

    /// The fastest kernel on this sample.
    fn best(&self) -> KernelKind {
        let i = (0..self.single_s.len())
            .min_by(|&a, &b| self.single_s[a].total_cmp(&self.single_s[b]))
            .expect("non-empty kernel set");
        KernelKind::ALL[i]
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results/dispatch_policy.json".into());
    let arch = Arch::A800;

    eprintln!(
        "autotune: sweeping {} datasets x dims {:?} on {:?}",
        TABLE2.len(),
        SWEEP_DIMS,
        arch
    );
    let samples = collect_samples(arch);
    let policy = learn_policy(&samples);
    let text = render(&policy, &samples, arch);
    report(&samples, &policy);

    let previous = std::fs::read_to_string(&out).ok();
    if check && previous.as_deref() == Some(text.as_str()) {
        eprintln!("autotune: {out} is up to date ({} bytes)", text.len());
        return ExitCode::SUCCESS;
    }
    match std::fs::File::create(&out).and_then(|mut f| f.write_all(text.as_bytes())) {
        Ok(()) => {
            if check {
                eprintln!("autotune: {out} DRIFTED and was rewritten (git diff shows the change)");
            } else {
                eprintln!("autotune: wrote {out} ({} bytes)", text.len());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("autotune: failed to write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Profile every kernel for every (dataset, dim) pair over the ten
/// Table-2 analogs.
fn collect_samples(arch: Arch) -> Vec<Sample> {
    let mut samples = Vec::new();
    for d in &TABLE2 {
        let m = build_dataset(d);
        let opts = sim_options_for(d);
        for dim in SWEEP_DIMS {
            samples.push(measure_sample(d.abbr, &m, arch, dim, &opts));
        }
    }
    samples
}

fn measure_sample(name: &str, m: &CsrMatrix, arch: Arch, dim: usize, opts: &SimOptions) -> Sample {
    let mut single_s = [f64::INFINITY; KernelKind::ALL.len()];
    for (i, kind) in KernelKind::ALL.into_iter().enumerate() {
        let plan = ExecutionPlan::build(kind, m, arch, dim, AccConfig::full())
            .unwrap_or_else(|e| panic!("{name}: build {kind:?} failed: {e}"));
        single_s[i] = PreparedKernel::from_plan(plan).profile(arch, opts).time_s;
    }
    let sample = Sample {
        dataset: name.to_string(),
        features: MatrixFeatures::of(m, dim),
        single_s,
    };
    eprintln!(
        "  {name:>12} N={dim:<3} avgl {:>6.1} cv {:>4.2} -> {}",
        sample.features.avg_l,
        sample.features.row_cv,
        kind_slug(sample.best())
    );
    sample
}

/// Bin the samples over (dim, AvgL, CV) and emit one first-match rule
/// per populated bin, naming the kernel with the lowest within-bin
/// geomean time; the fallback is the kernel with the best geomean over
/// every sample.
fn learn_policy(samples: &[Sample]) -> DispatchPolicy {
    let lower = |edges: &[f64], v: f64| edges.iter().rev().find(|&&e| v >= e).copied();
    let upper = |edges: &[f64], v: f64| edges.iter().find(|&&e| v < e).copied();

    let mut bins: BTreeMap<(u64, u64, u64), Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        let key = (
            lower(&DIM_EDGES, s.features.feature_dim as f64)
                .unwrap_or(0.0)
                .to_bits(),
            lower(&AVGL_EDGES, s.features.avg_l)
                .unwrap_or(0.0)
                .to_bits(),
            lower(&CV_EDGES, s.features.row_cv).unwrap_or(0.0).to_bits(),
        );
        bins.entry(key).or_default().push(s);
    }

    let mut rules = Vec::new();
    for ((dim_lo, avgl_lo, cv_lo), members) in &bins {
        let (dim_lo, avgl_lo, cv_lo) = (
            f64::from_bits(*dim_lo),
            f64::from_bits(*avgl_lo),
            f64::from_bits(*cv_lo),
        );
        rules.push(PolicyRule {
            when: RuleBounds {
                avgl_min: (avgl_lo > 0.0).then_some(avgl_lo),
                avgl_max: upper(&AVGL_EDGES, avgl_lo),
                cv_min: (cv_lo > 0.0).then_some(cv_lo),
                cv_max: upper(&CV_EDGES, cv_lo),
                dim_min: (dim_lo > DIM_EDGES[0]).then_some(dim_lo),
                dim_max: upper(&DIM_EDGES, dim_lo),
            },
            kernel: geomean_best(members.iter().copied()),
        });
    }

    DispatchPolicy {
        rules,
        fallback: geomean_best(samples),
    }
}

/// The kernel minimizing geomean simulated time over `samples`.
fn geomean_best<'a>(samples: impl IntoIterator<Item = &'a Sample> + Clone) -> KernelKind {
    let geomean_log = |i: usize| {
        samples
            .clone()
            .into_iter()
            .map(|s| s.single_s[i].ln())
            .sum::<f64>()
    };
    let best = (0..KernelKind::ALL.len())
        .min_by(|&a, &b| geomean_log(a).total_cmp(&geomean_log(b)))
        .expect("non-empty kernel set");
    KernelKind::ALL[best]
}

/// Serialize the policy with its provenance block. Sorted keys and a
/// trailing newline keep regeneration byte-identical.
fn render(policy: &DispatchPolicy, samples: &[Sample], arch: Arch) -> String {
    let mut extra = BTreeMap::new();
    extra.insert("tool".into(), Json::Str("autotune".into()));
    extra.insert("arch".into(), Json::Str(format!("{arch:?}")));
    extra.insert(
        "feature_dims".into(),
        Json::Arr(SWEEP_DIMS.iter().map(|&d| Json::Num(d as f64)).collect()),
    );
    extra.insert(
        "samples".into(),
        Json::Arr(
            samples
                .iter()
                .map(|s| {
                    let mut o = BTreeMap::new();
                    o.insert("dataset".into(), Json::Str(s.dataset.clone()));
                    o.insert(
                        "feature_dim".into(),
                        Json::Num(s.features.feature_dim as f64),
                    );
                    o.insert("avg_l".into(), Json::Num(s.features.avg_l));
                    o.insert("row_cv".into(), Json::Num(s.features.row_cv));
                    o.insert("best".into(), Json::Str(kind_slug(s.best()).into()));
                    Json::Obj(o)
                })
                .collect(),
        ),
    );
    let mut text = policy.to_json(extra).to_string_pretty();
    text.push('\n');
    text
}

/// Print the sweep table and the learned policy's in-sample quality —
/// the geomean of (best kernel time / policy-chosen kernel time).
fn report(samples: &[Sample], policy: &DispatchPolicy) {
    let mut rows = Vec::new();
    let mut log_sum = 0.0;
    for s in samples {
        let decided = policy.decide(&s.features);
        let ratio = s.time_of(s.best()) / s.time_of(decided);
        log_sum += ratio.ln();
        rows.push(vec![
            s.dataset.clone(),
            format!("{}", s.features.feature_dim),
            f2(s.features.avg_l),
            f2(s.features.row_cv),
            kind_slug(decided).to_string(),
            f2(ratio),
        ]);
    }
    print_table(
        "autotune: learned policy, in-sample",
        &["dataset", "N", "AvgL", "CV", "kernel", "vs best"],
        &rows,
    );
    let geomean = (log_sum / samples.len() as f64).exp();
    eprintln!(
        "autotune: in-sample geomean vs best kernel: {geomean:.4} ({} rules)",
        policy.rules.len()
    );
}
