//! planc — the offline plan compiler.
//!
//! Compiles execution plans (see `spmm_kernels::ir`) into plain plan
//! files:
//!
//! ```text
//! cargo run -p spmm-bench --bin planc --release               # Table-2 sweep
//! cargo run -p spmm-bench --bin planc -- --out DIR            # custom output dir
//! cargo run -p spmm-bench --bin planc -- --arch h100 --dim 256
//! cargo run -p spmm-bench --bin planc -- --dataset YH,OH      # subset
//! cargo run -p spmm-bench --bin planc -- --smoke DIR          # CI smoke step
//! ```
//!
//! Every compiled plan is written to `<dataset>-<kernel>-<arch>-d<dim>.plan`
//! in the output directory. A plan file holds the binding and, for a
//! symmetric plan, the permutation, not the operand. Each file is
//! verified by reloading it over its operand through a fully-bound
//! `PlanLoader` and executing one multiply against the freshly built
//! plan — bit-identity is asserted, not assumed. A JSON manifest of the
//! compiled artifacts is printed to stdout and saved next to them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use acc_spmm::kernels::ir;
use acc_spmm::matrix::{gen, CsrMatrix, Dataset, DenseMatrix, TABLE2};
use acc_spmm::{AccConfig, Arch, KernelKind, PlanLoader, PreparedKernel};
use spmm_common::json::Json;

struct Options {
    out: PathBuf,
    arch: Arch,
    dim: usize,
    kind: KernelKind,
    datasets: Option<Vec<String>>,
    smoke: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        out: PathBuf::from("results/plans"),
        arch: Arch::A800,
        dim: 128,
        kind: KernelKind::AccSpmm,
        datasets: None,
        smoke: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--out" => opts.out = value("--out")?.into(),
            "--arch" => {
                let v = value("--arch")?;
                opts.arch = Arch::parse(&v).ok_or_else(|| format!("unknown arch '{v}'"))?;
            }
            "--dim" => {
                opts.dim = value("--dim")?
                    .parse()
                    .map_err(|_| "--dim requires an integer".to_string())?;
            }
            "--kernel" => {
                let v = value("--kernel")?;
                opts.kind = ir::kind_from_slug(&v.to_ascii_lowercase())
                    .ok_or_else(|| format!("unknown kernel '{v}'"))?;
            }
            "--dataset" => {
                opts.datasets = Some(value("--dataset")?.split(',').map(str::to_string).collect());
            }
            "--smoke" => opts.smoke = Some(value("--smoke")?.into()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(opts)
}

/// The file a plan for `name` is written to.
fn plan_path(dir: &Path, name: &str, kind: KernelKind, arch: Arch, dim: usize) -> PathBuf {
    dir.join(format!(
        "{name}-{}-{}-d{dim}.plan",
        ir::kind_slug(kind),
        ir::arch_slug(arch)
    ))
}

/// Compile one plan to `path`, then prove the file by reloading it over
/// `m` with every binding pinned and executing one multiply
/// bit-identically against the fresh build. Returns the file size and
/// the build and reload seconds.
fn compile_and_verify(
    path: &Path,
    m: &CsrMatrix,
    kind: KernelKind,
    arch: Arch,
    dim: usize,
    config: AccConfig,
) -> Result<(u64, f64, f64), String> {
    let t0 = Instant::now();
    let kernel = PreparedKernel::builder(kind, m)
        .arch(arch)
        .feature_dim(dim)
        .config(config)
        .build()
        .map_err(|e| format!("build failed: {e}"))?;
    let build_seconds = t0.elapsed().as_secs_f64();

    kernel
        .execution_plan()
        .save(path)
        .map_err(|e| format!("save failed: {e}"))?;
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("stat failed: {e}"))?
        .len();

    let t1 = Instant::now();
    let reloaded = PlanLoader::new()
        .expect_kind(kind)
        .expect_arch(arch)
        .expect_feature_dim(dim)
        .expect_config(config)
        .load(path, m)
        .map_err(|e| format!("reload failed: {e}"))?;
    let load_seconds = t1.elapsed().as_secs_f64();

    let b = DenseMatrix::random(m.ncols(), dim, 7);
    let fresh = kernel.execute(&b).map_err(|e| format!("execute: {e}"))?;
    let replay = PreparedKernel::from_plan(reloaded)
        .execute(&b)
        .map_err(|e| format!("replay execute: {e}"))?;
    if fresh
        .as_slice()
        .iter()
        .zip(replay.as_slice())
        .any(|(x, y)| x.to_bits() != y.to_bits())
    {
        return Err("reloaded plan is not bit-identical to the fresh build".into());
    }
    Ok((bytes, build_seconds, load_seconds))
}

/// One plan per tensor-core format (TCF, ME-TCF, BitTCF), so every
/// format's execution rows are derived again at load, and one symmetric
/// Acc-SpMM plan, so a stored permutation relabels the operand.
fn smoke(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let m = gen::uniform_random(256, 5.0, 42);
    let symmetric = AccConfig {
        symmetric_reorder: true,
        ..AccConfig::full()
    };
    for (name, kind, config) in [
        ("smoke", KernelKind::TcGnn, AccConfig::full()),
        ("smoke", KernelKind::DtcSpmm, AccConfig::full()),
        ("smoke", KernelKind::AccSpmm, AccConfig::full()),
        ("smoke-symmetric", KernelKind::AccSpmm, symmetric),
    ] {
        let path = plan_path(dir, name, kind, Arch::A800, 32);
        let (bytes, build_s, load_s) = compile_and_verify(&path, &m, kind, Arch::A800, 32, config)
            .map_err(|e| format!("{name} {}: {e}", kind.name()))?;
        println!(
            "planc {name}: {} plan compiled+reloaded+executed ({bytes} bytes, \
             build {build_s:.3}s, reload {load_s:.3}s) in {}",
            kind.name(),
            dir.display()
        );
    }
    Ok(())
}

fn sweep(opts: &Options) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("create {}: {e}", opts.out.display()))?;
    let selected: Vec<&'static Dataset> = match &opts.datasets {
        None => TABLE2.iter().collect(),
        Some(names) => names
            .iter()
            .map(|n| Dataset::by_abbr(n).ok_or_else(|| format!("unknown dataset '{n}'")))
            .collect::<Result<_, _>>()?,
    };

    let mut plans = Vec::new();
    for d in selected {
        let m = spmm_bench::build_dataset(d);
        let path = plan_path(&opts.out, d.abbr, opts.kind, opts.arch, opts.dim);
        let (bytes, build_s, load_s) =
            compile_and_verify(&path, &m, opts.kind, opts.arch, opts.dim, AccConfig::full())?;
        let file = path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_default();
        eprintln!(
            "  {} -> {file} ({bytes} bytes, build {build_s:.2}s, reload {load_s:.3}s)",
            d.abbr
        );
        let mut o = BTreeMap::new();
        o.insert("dataset".into(), Json::Str(d.abbr.into()));
        o.insert("file".into(), Json::Str(file));
        o.insert(
            "fingerprint".into(),
            Json::Str(format!("{:016x}", m.content_fingerprint())),
        );
        o.insert("bytes".into(), Json::Num(bytes as f64));
        o.insert("build_seconds".into(), Json::Num(build_s));
        o.insert("reload_seconds".into(), Json::Num(load_s));
        o.insert("verified".into(), Json::Bool(true));
        plans.push(Json::Obj(o));
    }

    let mut manifest = BTreeMap::new();
    manifest.insert(
        "schema_version".into(),
        Json::Num(ir::PLAN_IR_VERSION as f64),
    );
    manifest.insert("arch".into(), Json::Str(ir::arch_slug(opts.arch).into()));
    manifest.insert("kernel".into(), Json::Str(ir::kind_slug(opts.kind).into()));
    manifest.insert("feature_dim".into(), Json::Num(opts.dim as f64));
    manifest.insert("dir".into(), Json::Str(opts.out.display().to_string()));
    manifest.insert("plans".into(), Json::Arr(plans));
    let manifest = Json::Obj(manifest).to_string_pretty();
    let _ = std::fs::write(opts.out.join("manifest.json"), &manifest);
    println!("{manifest}");
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("planc: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &opts.smoke {
        Some(dir) => smoke(dir),
        None => sweep(&opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("planc: {e}");
            ExitCode::FAILURE
        }
    }
}
