//! The versioned plan IR: persistent [`ExecutionPlan`] artifacts.
//!
//! Acc-SpMM's economics rest on ahead-of-time preprocessing amortized
//! across many multiplies; this module extends the amortization across
//! *processes*. A finished plan serializes into a [`PlanIr`] container:
//!
//! * a schema-versioned **JSON header** (via [`spmm_common::json`]) —
//!   kernel kind, architecture, feature dimension, the operand's
//!   [`content_fingerprint`](spmm_matrix::CsrMatrix::content_fingerprint),
//!   the [`AccConfig`] binding and its hash, plus the original stage
//!   wall times;
//! * five **length-prefixed binary sections** (little-endian, each
//!   skippable without parsing — an mmap-friendly layout): the reorder
//!   permutation, the permuted CSR operand, the compressed-format blob
//!   (with pre-rounded TF32 values, reusing the `spmm-format` codecs),
//!   the balance schedule, and the compiled-kernel descriptor.
//!
//! Loading is split in two: [`PlanIr::read_from`] parses and
//! *structurally* validates the container (every section is checked
//! against the header and its own invariants before anything is
//! constructed), and [`PlanLoader`] *semantically* validates the result
//! against what the caller expects — architecture, fingerprint, kernel
//! binding — rejecting mismatches with typed
//! [`SpmmError::PlanLoad`] variants, then rehydrates a runnable
//! [`ExecutionPlan`]. The window partition is deliberately *not*
//! serialized: it rebuilds deterministically from the stored operand,
//! keeping the container smaller and removing a whole class of
//! cross-section inconsistency.

use crate::acc::AccConfig;
use crate::plan::{ExecutionPlan, FormatChoice, PlanContext, StageSpec, StageTiming};
use crate::{KernelKind, TcFormat};
use spmm_balance::{BalancePlan, BalanceStrategy, Segment, TbAssignment};
use spmm_common::json::Json;
use spmm_common::{IsaTier, PlanLoadError, Result, SpmmError};
use spmm_format::{io as format_io, WindowPartition};
use spmm_matrix::CsrMatrix;
use spmm_reorder::Algorithm;
use spmm_sim::{Arch, BlockTrace, CacheOp, CachePolicy, KernelDesc, PipelineKind, TbTrace};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Container magic: "SPIR" (SpMM Plan IR).
const MAGIC: [u8; 4] = *b"SPIR";

/// Schema version this build reads and writes. Bump on any layout or
/// semantic change; loaders reject every other version (plans are cheap
/// to rebuild, so no migration machinery).
///
/// v3 added the SIMD-tier binding: an `isa` pin in the config block, an
/// `isa_tier` header field, one tier byte in the trace section, and the
/// pin in the config hash. The recorded tier is advisory — loaders
/// re-resolve it against the loading host (see [`PlanLoader::rehydrate`]).
///
/// v4 dropped the hybrid-region section and the `num_regions` /
/// `decision` header keys: every plan is a single-kernel plan. v3
/// containers (which may nest region plans) are rejected with
/// [`PlanLoadError::VersionMismatch`].
pub const PLAN_IR_VERSION: u32 = 4;

/// Sanity cap on section and array lengths.
const CAP: u64 = 1 << 34;

// ---------------------------------------------------------------------------
// Little-endian primitives (local to keep the container self-contained).

fn put_u32(w: &mut impl Write, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn put_u64(w: &mut impl Write, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn put_f64(w: &mut impl Write, v: f64) -> Result<()> {
    put_u64(w, v.to_bits())
}

fn get_u32(r: &mut impl Read) -> Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64(r: &mut impl Read) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_f64(r: &mut impl Read) -> Result<f64> {
    Ok(f64::from_bits(get_u64(r)?))
}

fn get_len(r: &mut impl Read, what: &str) -> Result<usize> {
    let len = get_u64(r)?;
    if len > CAP {
        return Err(SpmmError::MalformedFormat {
            detail: format!("{what} length {len} exceeds sanity cap"),
        });
    }
    Ok(len as usize)
}

fn put_u32_slice(w: &mut impl Write, v: &[u32]) -> Result<()> {
    put_u64(w, v.len() as u64)?;
    for &x in v {
        put_u32(w, x)?;
    }
    Ok(())
}

fn get_u32_vec(r: &mut impl Read, what: &str) -> Result<Vec<u32>> {
    let len = get_len(r, what)?;
    let mut v = Vec::with_capacity(len);
    for _ in 0..len {
        v.push(get_u32(r)?);
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Stable slugs for every enum the header or sections record. These are
// the *schema*, not display names — renaming a variant must not change
// its slug without a version bump.

/// Schema-stable slug for a kernel kind (file names, headers).
pub fn kind_slug(k: KernelKind) -> &'static str {
    match k {
        KernelKind::CusparseLike => "cusparse",
        KernelKind::SputnikLike => "sputnik",
        KernelKind::SparseTirLike => "sparsetir",
        KernelKind::TcGnn => "tcgnn",
        KernelKind::DtcSpmm => "dtcspmm",
        KernelKind::AccSpmm => "accspmm",
    }
}

/// Inverse of [`kind_slug`].
pub fn kind_from_slug(s: &str) -> Option<KernelKind> {
    KernelKind::ALL.into_iter().find(|&k| kind_slug(k) == s)
}

/// Schema-stable slug for an architecture (round-trips through
/// [`Arch::parse`]).
pub fn arch_slug(a: Arch) -> &'static str {
    match a {
        Arch::Rtx4090 => "rtx4090",
        Arch::A800 => "a800",
        Arch::H100 => "h100",
    }
}

fn algorithm_slug(a: Algorithm) -> &'static str {
    match a {
        Algorithm::Identity => "identity",
        Algorithm::Sgt => "sgt",
        Algorithm::Lsh64 => "lsh64",
        Algorithm::DtcLsh => "dtclsh",
        Algorithm::MetisLike => "metis",
        Algorithm::Louvain => "louvain",
        Algorithm::Rabbit => "rabbit",
        Algorithm::Affinity => "affinity",
    }
}

fn algorithm_from_slug(s: &str) -> Option<Algorithm> {
    Algorithm::ALL.into_iter().find(|&a| algorithm_slug(a) == s)
}

fn balance_slug(b: BalanceStrategy) -> &'static str {
    match b {
        BalanceStrategy::None => "none",
        BalanceStrategy::DtcStyle => "dtc",
        BalanceStrategy::AccAdaptive => "adaptive",
    }
}

fn balance_from_slug(s: &str) -> Option<BalanceStrategy> {
    [
        BalanceStrategy::None,
        BalanceStrategy::DtcStyle,
        BalanceStrategy::AccAdaptive,
    ]
    .into_iter()
    .find(|&b| balance_slug(b) == s)
}

fn format_slug(f: FormatChoice) -> &'static str {
    match f {
        FormatChoice::Csr => "csr",
        FormatChoice::Tcf => "tcf",
        FormatChoice::MeTcf => "metcf",
        FormatChoice::BitTcf => "bittcf",
    }
}

fn pipeline_tag(p: PipelineKind) -> u8 {
    match p {
        PipelineKind::SerialScalar => 0,
        PipelineKind::TcgnnSync => 1,
        PipelineKind::DtcDoubleBuffer => 2,
        PipelineKind::AccLeastBubble => 3,
    }
}

fn pipeline_from_tag(t: u8) -> Option<PipelineKind> {
    Some(match t {
        0 => PipelineKind::SerialScalar,
        1 => PipelineKind::TcgnnSync,
        2 => PipelineKind::DtcDoubleBuffer,
        3 => PipelineKind::AccLeastBubble,
        _ => return None,
    })
}

fn cache_op_tag(c: CacheOp) -> u8 {
    match c {
        CacheOp::Ca => 0,
        CacheOp::Cg => 1,
        CacheOp::Cs => 2,
        CacheOp::Lu => 3,
        CacheOp::Cv => 4,
        CacheOp::Wb => 5,
        CacheOp::Wt => 6,
    }
}

fn cache_op_from_tag(t: u8) -> Option<CacheOp> {
    Some(match t {
        0 => CacheOp::Ca,
        1 => CacheOp::Cg,
        2 => CacheOp::Cs,
        3 => CacheOp::Lu,
        4 => CacheOp::Cv,
        5 => CacheOp::Wb,
        6 => CacheOp::Wt,
        _ => return None,
    })
}

/// FNV-1a hash of an [`AccConfig`]'s schema-stable encoding — the
/// configuration part of a plan's on-disk identity (file names, header
/// validation). Stable across runs and builds, unlike `std::hash`.
pub fn acc_config_hash(c: &AccConfig) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(PRIME);
    };
    eat(c.use_bittcf as u8);
    for b in algorithm_slug(c.reorder).bytes() {
        eat(b);
    }
    eat(c.cache_policy as u8);
    eat(c.acc_pipeline as u8);
    for b in balance_slug(c.balance).bytes() {
        eat(b);
    }
    eat(c.symmetric_reorder as u8);
    // 0xFF = no pin; pinned tiers hash their stable code.
    eat(c.isa.map_or(0xFF, |t| t.code()));
    h
}

// ---------------------------------------------------------------------------
// The IR itself.

/// A serializable execution plan: the versioned header bindings plus
/// every stage artifact needed to rehydrate a runnable
/// [`ExecutionPlan`] without re-running the pipeline.
#[derive(Debug, Clone)]
pub struct PlanIr {
    /// Kernel strategy the plan compiles.
    pub kind: KernelKind,
    /// Architecture the balance schedule and trace were compiled for.
    pub arch: Arch,
    /// Feature dimension the plan is specialized for.
    pub feature_dim: usize,
    /// Acc ablation configuration.
    pub config: AccConfig,
    /// Fingerprint of the *unprocessed* input operand — the identity
    /// caches key plans by.
    pub input_fingerprint: u64,
    /// Fingerprint of the *stored* (possibly permuted) operand —
    /// an integrity check over the CSR section's bytes.
    pub stored_fingerprint: u64,
    /// Reorder permutation (`perm[old] = new`), if one was applied.
    pub perm: Option<Vec<u32>>,
    /// The permuted sparse operand.
    pub csr: CsrMatrix,
    /// The compressed format, values pre-rounded to TF32 (TC kernels).
    pub format: Option<TcFormat>,
    /// The balance schedule (TC kernels).
    pub balance: Option<BalancePlan>,
    /// The compiled-kernel descriptor.
    pub trace: KernelDesc,
    /// Stage wall times recorded at original build time.
    pub timings: Vec<StageTiming>,
}

impl PlanIr {
    /// Snapshot a finished plan into its serializable IR.
    pub fn from_plan(plan: &ExecutionPlan) -> PlanIr {
        PlanIr {
            kind: plan.kind(),
            arch: plan.arch(),
            feature_dim: plan.feature_dim(),
            config: *plan.config(),
            input_fingerprint: plan.input_fingerprint(),
            stored_fingerprint: plan.csr().content_fingerprint(),
            perm: plan.perm().map(|p| p.to_vec()),
            csr: plan.csr().clone(),
            format: plan.format().cloned(),
            balance: plan.balance().cloned(),
            trace: plan.compiled_trace().clone(),
            timings: plan.stage_timings().to_vec(),
        }
    }

    /// The format choice the stage spec implies for this binding.
    pub fn format_choice(&self) -> FormatChoice {
        StageSpec::for_kernel(self.kind, &self.config).format
    }

    /// The JSON header describing (but not containing) the artifacts.
    pub fn header_json(&self) -> Json {
        let mut config = BTreeMap::new();
        config.insert("use_bittcf".into(), Json::Bool(self.config.use_bittcf));
        config.insert(
            "reorder".into(),
            Json::Str(algorithm_slug(self.config.reorder).into()),
        );
        config.insert("cache_policy".into(), Json::Bool(self.config.cache_policy));
        config.insert("acc_pipeline".into(), Json::Bool(self.config.acc_pipeline));
        config.insert(
            "balance".into(),
            Json::Str(balance_slug(self.config.balance).into()),
        );
        config.insert(
            "symmetric_reorder".into(),
            Json::Bool(self.config.symmetric_reorder),
        );
        config.insert(
            "isa".into(),
            self.config
                .isa
                .map_or(Json::Null, |t| Json::Str(t.name().into())),
        );

        let timings: Vec<Json> = self
            .timings
            .iter()
            .map(|t| {
                let mut o = BTreeMap::new();
                o.insert("stage".into(), Json::Str(t.stage.into()));
                o.insert("seconds".into(), Json::Num(t.seconds));
                Json::Obj(o)
            })
            .collect();

        let mut h = BTreeMap::new();
        h.insert("schema_version".into(), Json::Num(PLAN_IR_VERSION as f64));
        h.insert("kind".into(), Json::Str(kind_slug(self.kind).into()));
        h.insert("arch".into(), Json::Str(arch_slug(self.arch).into()));
        h.insert("feature_dim".into(), Json::Num(self.feature_dim as f64));
        h.insert("config".into(), Json::Obj(config));
        h.insert(
            "config_hash".into(),
            Json::Str(format!("{:016x}", acc_config_hash(&self.config))),
        );
        // u64 fingerprints travel as hex strings: `Json::Num` is an f64
        // and cannot carry 64 bits exactly.
        h.insert(
            "fingerprint".into(),
            Json::Str(format!("{:016x}", self.input_fingerprint)),
        );
        h.insert(
            "stored_fingerprint".into(),
            Json::Str(format!("{:016x}", self.stored_fingerprint)),
        );
        h.insert(
            "format".into(),
            Json::Str(format_slug(self.format_choice()).into()),
        );
        h.insert(
            "isa_tier".into(),
            Json::Str(self.trace.isa_tier.name().into()),
        );
        h.insert("has_perm".into(), Json::Bool(self.perm.is_some()));
        h.insert("has_balance".into(), Json::Bool(self.balance.is_some()));
        h.insert("nrows".into(), Json::Num(self.csr.nrows() as f64));
        h.insert("ncols".into(), Json::Num(self.csr.ncols() as f64));
        h.insert("nnz".into(), Json::Num(self.csr.nnz() as f64));
        h.insert("timings".into(), Json::Arr(timings));
        Json::Obj(h)
    }

    /// Serialize the container: magic, version, length-prefixed JSON
    /// header, then the five length-prefixed binary sections.
    pub fn write_to<W: Write>(&self, w: W) -> Result<()> {
        let mut w = BufWriter::new(w);
        w.write_all(&MAGIC)?;
        put_u32(&mut w, PLAN_IR_VERSION)?;

        let header = self.header_json().to_string_pretty();
        put_u64(&mut w, header.len() as u64)?;
        w.write_all(header.as_bytes())?;

        let mut section = Vec::new();
        if let Some(perm) = &self.perm {
            put_u32_slice(&mut section, perm)?;
        }
        write_section(&mut w, &section)?;

        section.clear();
        write_csr(&mut section, &self.csr)?;
        write_section(&mut w, &section)?;

        section.clear();
        match &self.format {
            Some(TcFormat::Tcf(f)) => format_io::write_tcf(&mut section, f)?,
            Some(TcFormat::MeTcf(f)) => format_io::write_tc_matrix(&mut section, f)?,
            Some(TcFormat::BitTcf(f)) => format_io::write_tc_matrix(&mut section, f)?,
            None => {}
        }
        write_section(&mut w, &section)?;

        section.clear();
        if let Some(balance) = &self.balance {
            write_balance(&mut section, balance)?;
        }
        write_section(&mut w, &section)?;

        section.clear();
        write_desc(&mut section, &self.trace)?;
        write_section(&mut w, &section)?;

        w.flush()?;
        Ok(())
    }

    /// Serialize into an owned byte buffer (the payload plan-shipping
    /// transports price and move).
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.write_to(&mut buf)?;
        Ok(buf)
    }

    /// Parse and structurally validate a container. Rejections are
    /// typed [`SpmmError::PlanLoad`] errors; no partially-validated
    /// artifact ever escapes.
    pub fn read_from<R: Read>(r: R) -> Result<PlanIr> {
        let mut r = BufReader::new(r);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(|e| not_plan_ir(&e))?;
        if magic != MAGIC {
            return Err(PlanLoadError::NotPlanIr {
                detail: "bad magic".into(),
            }
            .into());
        }
        let version = get_u32(&mut r).map_err(|e| not_plan_ir(&e))?;
        if version != PLAN_IR_VERSION {
            return Err(PlanLoadError::VersionMismatch {
                found: version,
                supported: PLAN_IR_VERSION,
            }
            .into());
        }

        let header_len = get_len(&mut r, "header").map_err(|e| not_plan_ir(&e))?;
        let mut header_bytes = vec![0u8; header_len];
        r.read_exact(&mut header_bytes)
            .map_err(|e| not_plan_ir(&e))?;
        let header_text = String::from_utf8(header_bytes).map_err(|e| not_plan_ir(&e))?;
        let header = Json::parse(&header_text).map_err(|e| {
            SpmmError::from(PlanLoadError::NotPlanIr {
                detail: format!("header is not JSON: {e}"),
            })
        })?;
        let hdr = Header::parse(&header)?;

        let perm_bytes = read_section(&mut r, "perm")?;
        let csr_bytes = read_section(&mut r, "csr")?;
        let format_bytes = read_section(&mut r, "format")?;
        let balance_bytes = read_section(&mut r, "balance")?;
        let trace_bytes = read_section(&mut r, "trace")?;

        let perm = if hdr.has_perm {
            let mut pr = csr_reader(&perm_bytes);
            let p = get_u32_vec(&mut pr, "perm").map_err(|e| artifact("perm", &e))?;
            if !spmm_common::util::is_permutation(&p) {
                return Err(PlanLoadError::ArtifactInvalid {
                    section: "perm",
                    detail: "not a permutation".into(),
                }
                .into());
            }
            Some(p)
        } else {
            if !perm_bytes.is_empty() {
                return Err(PlanLoadError::ArtifactInvalid {
                    section: "perm",
                    detail: "header says no permutation but section is non-empty".into(),
                }
                .into());
            }
            None
        };

        let csr = read_csr(&mut csr_reader(&csr_bytes)).map_err(|e| artifact("csr", &e))?;
        if csr.nrows() != hdr.nrows || csr.ncols() != hdr.ncols || csr.nnz() != hdr.nnz {
            return Err(PlanLoadError::ArtifactInvalid {
                section: "csr",
                detail: "operand shape disagrees with header".into(),
            }
            .into());
        }
        if csr.content_fingerprint() != hdr.stored_fingerprint {
            return Err(PlanLoadError::ArtifactInvalid {
                section: "csr",
                detail: "stored operand fingerprint mismatch (bytes corrupted?)".into(),
            }
            .into());
        }
        if let Some(p) = &perm {
            if p.len() != csr.nrows() {
                return Err(PlanLoadError::ArtifactInvalid {
                    section: "perm",
                    detail: format!("{} entries for {} rows", p.len(), csr.nrows()),
                }
                .into());
            }
        }

        let spec = StageSpec::for_kernel(hdr.kind, &hdr.config);
        if format_slug(spec.format) != hdr.format {
            return Err(PlanLoadError::ArtifactInvalid {
                section: "format",
                detail: format!(
                    "header format '{}' disagrees with the {} stage spec",
                    hdr.format,
                    kind_slug(hdr.kind)
                ),
            }
            .into());
        }
        let format = match spec.format {
            FormatChoice::Csr => {
                if !format_bytes.is_empty() {
                    return Err(PlanLoadError::ArtifactInvalid {
                        section: "format",
                        detail: "CSR kernels carry no format blob".into(),
                    }
                    .into());
                }
                None
            }
            FormatChoice::Tcf => Some(TcFormat::Tcf(
                format_io::read_tcf(csr_reader(&format_bytes))
                    .map_err(|e| artifact("format", &e))?,
            )),
            FormatChoice::MeTcf => Some(TcFormat::MeTcf(
                format_io::read_tc_matrix(csr_reader(&format_bytes))
                    .map_err(|e| artifact("format", &e))?,
            )),
            FormatChoice::BitTcf => Some(TcFormat::BitTcf(
                format_io::read_tc_matrix(csr_reader(&format_bytes))
                    .map_err(|e| artifact("format", &e))?,
            )),
        };
        let balance = if hdr.has_balance {
            Some(
                read_balance(&mut csr_reader(&balance_bytes))
                    .map_err(|e| artifact("balance", &e))?,
            )
        } else {
            if !balance_bytes.is_empty() {
                return Err(PlanLoadError::ArtifactInvalid {
                    section: "balance",
                    detail: "header says no balance plan but section is non-empty".into(),
                }
                .into());
            }
            None
        };

        let trace = read_desc(&mut csr_reader(&trace_bytes)).map_err(|e| artifact("trace", &e))?;
        if trace.feature_dim != hdr.feature_dim {
            return Err(PlanLoadError::ArtifactInvalid {
                section: "trace",
                detail: format!(
                    "trace compiled for feature dim {}, header says {}",
                    trace.feature_dim, hdr.feature_dim
                ),
            }
            .into());
        }
        if trace.isa_tier != hdr.isa_tier {
            return Err(PlanLoadError::ArtifactInvalid {
                section: "trace",
                detail: format!(
                    "trace recorded ISA tier {}, header says {}",
                    trace.isa_tier, hdr.isa_tier
                ),
            }
            .into());
        }

        Ok(PlanIr {
            kind: hdr.kind,
            arch: hdr.arch,
            feature_dim: hdr.feature_dim,
            config: hdr.config,
            input_fingerprint: hdr.input_fingerprint,
            stored_fingerprint: hdr.stored_fingerprint,
            perm,
            csr,
            format,
            balance,
            trace,
            timings: hdr.timings,
        })
    }

    /// Save to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        self.write_to(std::fs::File::create(path)?)
    }

    /// Load (structural validation only) from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<PlanIr> {
        PlanIr::read_from(std::fs::File::open(path)?)
    }
}

fn csr_reader(bytes: &[u8]) -> std::io::Cursor<&[u8]> {
    std::io::Cursor::new(bytes)
}

fn not_plan_ir(e: &impl std::fmt::Display) -> SpmmError {
    PlanLoadError::NotPlanIr {
        detail: e.to_string(),
    }
    .into()
}

fn artifact(section: &'static str, e: &SpmmError) -> SpmmError {
    match e {
        // Already typed: keep the inner classification.
        SpmmError::PlanLoad(_) => e.clone(),
        _ => PlanLoadError::ArtifactInvalid {
            section,
            detail: e.to_string(),
        }
        .into(),
    }
}

fn write_section(w: &mut impl Write, bytes: &[u8]) -> Result<()> {
    put_u64(w, bytes.len() as u64)?;
    w.write_all(bytes)?;
    Ok(())
}

fn read_section(r: &mut impl Read, section: &'static str) -> Result<Vec<u8>> {
    let len = get_len(r, section).map_err(|e| artifact(section, &e))?;
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes).map_err(|e| {
        SpmmError::from(PlanLoadError::ArtifactInvalid {
            section,
            detail: format!("truncated: {e}"),
        })
    })?;
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// Header parsing.

struct Header {
    kind: KernelKind,
    arch: Arch,
    feature_dim: usize,
    config: AccConfig,
    input_fingerprint: u64,
    stored_fingerprint: u64,
    format: String,
    isa_tier: IsaTier,
    has_perm: bool,
    has_balance: bool,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    timings: Vec<StageTiming>,
}

fn missing(key: &str) -> SpmmError {
    PlanLoadError::NotPlanIr {
        detail: format!("header field '{key}' missing or mistyped"),
    }
    .into()
}

fn hdr_str<'a>(h: &'a Json, key: &str) -> Result<&'a str> {
    h.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| missing(key))
}

fn hdr_bool(h: &Json, key: &str) -> Result<bool> {
    match h.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(missing(key)),
    }
}

fn hdr_usize(h: &Json, key: &str) -> Result<usize> {
    h.get(key)
        .and_then(Json::as_f64)
        .filter(|v| *v >= 0.0 && v.fract() == 0.0)
        .map(|v| v as usize)
        .ok_or_else(|| missing(key))
}

fn hdr_hex(h: &Json, key: &str) -> Result<u64> {
    let s = hdr_str(h, key)?;
    u64::from_str_radix(s, 16).map_err(|_| missing(key))
}

impl Header {
    fn parse(h: &Json) -> Result<Header> {
        let schema = hdr_usize(h, "schema_version")?;
        if schema as u32 != PLAN_IR_VERSION {
            return Err(PlanLoadError::VersionMismatch {
                found: schema as u32,
                supported: PLAN_IR_VERSION,
            }
            .into());
        }
        let slug = hdr_str(h, "kind")?;
        let kind = kind_from_slug(slug).ok_or_else(|| {
            SpmmError::from(PlanLoadError::NotPlanIr {
                detail: format!("header kind '{slug}' is not a known kernel"),
            })
        })?;
        let arch = Arch::parse(hdr_str(h, "arch")?).ok_or_else(|| missing("arch"))?;
        let c = h.get("config").ok_or_else(|| missing("config"))?;
        let config = AccConfig {
            use_bittcf: hdr_bool(c, "use_bittcf")?,
            reorder: algorithm_from_slug(hdr_str(c, "reorder")?)
                .ok_or_else(|| missing("config.reorder"))?,
            cache_policy: hdr_bool(c, "cache_policy")?,
            acc_pipeline: hdr_bool(c, "acc_pipeline")?,
            balance: balance_from_slug(hdr_str(c, "balance")?)
                .ok_or_else(|| missing("config.balance"))?,
            symmetric_reorder: hdr_bool(c, "symmetric_reorder")?,
            isa: match c.get("isa") {
                None | Some(Json::Null) => None,
                Some(Json::Str(s)) => {
                    Some(IsaTier::from_name(s).ok_or_else(|| missing("config.isa"))?)
                }
                Some(_) => return Err(missing("config.isa")),
            },
        };
        if hdr_hex(h, "config_hash")? != acc_config_hash(&config) {
            return Err(PlanLoadError::NotPlanIr {
                detail: "config hash disagrees with the recorded config".into(),
            }
            .into());
        }
        let timings = h
            .get("timings")
            .and_then(Json::as_array)
            .ok_or_else(|| missing("timings"))?
            .iter()
            .filter_map(|t| {
                // Span names are 'static: only the four pipeline stages
                // rehydrate; foreign entries are dropped, not errors.
                let stage = match t.get("stage").and_then(Json::as_str)? {
                    "reorder" => "reorder",
                    "format_build" => "format_build",
                    "balance" => "balance",
                    "compile" => "compile",
                    _ => return None,
                };
                Some(StageTiming {
                    stage,
                    seconds: t.get("seconds").and_then(Json::as_f64)?,
                })
            })
            .collect();
        Ok(Header {
            kind,
            arch,
            feature_dim: hdr_usize(h, "feature_dim")?,
            config,
            input_fingerprint: hdr_hex(h, "fingerprint")?,
            stored_fingerprint: hdr_hex(h, "stored_fingerprint")?,
            format: hdr_str(h, "format")?.to_string(),
            isa_tier: IsaTier::from_name(hdr_str(h, "isa_tier")?)
                .ok_or_else(|| missing("isa_tier"))?,
            has_perm: hdr_bool(h, "has_perm")?,
            has_balance: hdr_bool(h, "has_balance")?,
            nrows: hdr_usize(h, "nrows")?,
            ncols: hdr_usize(h, "ncols")?,
            nnz: hdr_usize(h, "nnz")?,
            timings,
        })
    }
}

// ---------------------------------------------------------------------------
// Section codecs (CSR, balance schedule, kernel descriptor).

fn write_csr(w: &mut impl Write, m: &CsrMatrix) -> Result<()> {
    put_u64(w, m.nrows() as u64)?;
    put_u64(w, m.ncols() as u64)?;
    put_u64(w, m.row_ptr().len() as u64)?;
    for &p in m.row_ptr() {
        put_u64(w, p as u64)?;
    }
    put_u64(w, m.nnz() as u64)?;
    for &c in m.col_idx() {
        put_u32(w, c)?;
    }
    for &v in m.values() {
        put_u32(w, v.to_bits())?;
    }
    Ok(())
}

fn read_csr(r: &mut impl Read) -> Result<CsrMatrix> {
    let nrows = get_u64(r)? as usize;
    let ncols = get_u64(r)? as usize;
    let np = get_len(r, "row_ptr")?;
    let mut row_ptr = Vec::with_capacity(np);
    for _ in 0..np {
        row_ptr.push(get_u64(r)? as usize);
    }
    let nnz = get_len(r, "col_idx")?;
    let mut col_idx = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        col_idx.push(get_u32(r)?);
    }
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        values.push(f32::from_bits(get_u32(r)?));
    }
    // CsrMatrix::new re-validates every structural invariant.
    CsrMatrix::new(nrows, ncols, row_ptr, col_idx, values)
}

fn write_balance(w: &mut impl Write, b: &BalancePlan) -> Result<()> {
    put_u64(w, b.tbs.len() as u64)?;
    for tb in &b.tbs {
        put_u64(w, tb.segments.len() as u64)?;
        for s in &tb.segments {
            put_u32(w, s.window)?;
            put_u32(w, s.block_start)?;
            put_u32(w, s.block_end)?;
        }
    }
    put_f64(w, b.ibd)?;
    w.write_all(&[b.applied as u8])?;
    put_u64(w, b.chunk as u64)?;
    Ok(())
}

fn read_balance(r: &mut impl Read) -> Result<BalancePlan> {
    let ntbs = get_len(r, "balance tbs")?;
    let mut tbs = Vec::with_capacity(ntbs);
    for _ in 0..ntbs {
        let nsegs = get_len(r, "balance segments")?;
        let mut segments = Vec::with_capacity(nsegs);
        for _ in 0..nsegs {
            let window = get_u32(r)?;
            let block_start = get_u32(r)?;
            let block_end = get_u32(r)?;
            if block_end < block_start {
                return Err(SpmmError::MalformedFormat {
                    detail: "balance segment runs backwards".into(),
                });
            }
            segments.push(Segment {
                window,
                block_start,
                block_end,
            });
        }
        tbs.push(TbAssignment { segments });
    }
    let ibd = get_f64(r)?;
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    let chunk = get_u64(r)? as usize;
    Ok(BalancePlan {
        tbs,
        ibd,
        applied: flag[0] != 0,
        chunk,
    })
}

fn write_desc(w: &mut impl Write, d: &KernelDesc) -> Result<()> {
    put_u64(w, d.tbs.len() as u64)?;
    for tb in &d.tbs {
        put_u64(w, tb.blocks.len() as u64)?;
        for b in &tb.blocks {
            put_u32_slice(w, &b.b_rows)?;
            put_u32(w, b.a_bytes)?;
            put_u64(w, b.flops)?;
            put_u32(w, b.decode_ops)?;
        }
        put_u32(w, tb.c_rows)?;
        put_u32(w, tb.segments)?;
    }
    w.write_all(&[
        pipeline_tag(d.pipeline),
        cache_op_tag(d.policy.a_op),
        cache_op_tag(d.policy.b_op),
        cache_op_tag(d.policy.c_op),
        d.use_tensor_cores as u8,
    ])?;
    put_f64(w, d.mem_efficiency)?;
    put_u64(w, d.feature_dim as u64)?;
    put_u64(w, d.effective_flops)?;
    put_f64(w, d.arch_boost)?;
    w.write_all(&[d.isa_tier.code()])?;
    Ok(())
}

fn read_desc(r: &mut impl Read) -> Result<KernelDesc> {
    let ntbs = get_len(r, "trace tbs")?;
    let mut tbs = Vec::with_capacity(ntbs);
    for _ in 0..ntbs {
        let nblocks = get_len(r, "trace blocks")?;
        let mut blocks = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            let b_rows = get_u32_vec(r, "trace b_rows")?;
            let a_bytes = get_u32(r)?;
            let flops = get_u64(r)?;
            let decode_ops = get_u32(r)?;
            blocks.push(BlockTrace {
                b_rows,
                a_bytes,
                flops,
                decode_ops,
            });
        }
        let c_rows = get_u32(r)?;
        let segments = get_u32(r)?;
        tbs.push(TbTrace {
            blocks,
            c_rows,
            segments,
        });
    }
    let mut tags = [0u8; 5];
    r.read_exact(&mut tags)?;
    let pipeline = pipeline_from_tag(tags[0]).ok_or_else(|| SpmmError::MalformedFormat {
        detail: format!("unknown pipeline tag {}", tags[0]),
    })?;
    let bad_op = |t: u8| SpmmError::MalformedFormat {
        detail: format!("unknown cache-op tag {t}"),
    };
    let policy = CachePolicy {
        a_op: cache_op_from_tag(tags[1]).ok_or_else(|| bad_op(tags[1]))?,
        b_op: cache_op_from_tag(tags[2]).ok_or_else(|| bad_op(tags[2]))?,
        c_op: cache_op_from_tag(tags[3]).ok_or_else(|| bad_op(tags[3]))?,
    };
    let mem_efficiency = get_f64(r)?;
    if !(0.0..=1.0).contains(&mem_efficiency) {
        return Err(SpmmError::MalformedFormat {
            detail: format!("memory efficiency {mem_efficiency} outside [0, 1]"),
        });
    }
    let feature_dim = get_u64(r)? as usize;
    let effective_flops = get_u64(r)?;
    let arch_boost = get_f64(r)?;
    if !arch_boost.is_finite() || arch_boost <= 0.0 {
        return Err(SpmmError::MalformedFormat {
            detail: format!("arch boost {arch_boost} not a positive finite factor"),
        });
    }
    let mut tier_byte = [0u8; 1];
    r.read_exact(&mut tier_byte)?;
    let isa_tier = IsaTier::from_code(tier_byte[0]).ok_or_else(|| SpmmError::MalformedFormat {
        detail: format!("unknown ISA tier code {}", tier_byte[0]),
    })?;
    Ok(KernelDesc {
        tbs,
        pipeline,
        policy,
        mem_efficiency,
        use_tensor_cores: tags[4] != 0,
        feature_dim,
        effective_flops,
        arch_boost,
        isa_tier,
    })
}

// ---------------------------------------------------------------------------
// The loader/validator.

/// Semantic validation + rehydration of a parsed [`PlanIr`].
///
/// The loader carries the caller's *expectations* — the architecture it
/// will execute on, the fingerprint of the operand it wants served, the
/// kernel binding — and rejects plans that don't match with typed
/// [`SpmmError::PlanLoad`] errors. Expectations are opt-in: an empty
/// loader accepts any structurally valid container (useful for
/// inspection tools like `planc`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanLoader {
    arch: Option<Arch>,
    fingerprint: Option<u64>,
    kind: Option<KernelKind>,
    feature_dim: Option<usize>,
    config: Option<AccConfig>,
}

impl PlanLoader {
    /// A loader with no expectations.
    pub fn new() -> Self {
        PlanLoader::default()
    }

    /// Require the plan to target `arch`.
    pub fn expect_arch(mut self, arch: Arch) -> Self {
        self.arch = Some(arch);
        self
    }

    /// Require the plan's input fingerprint to equal `fingerprint`.
    pub fn expect_fingerprint(mut self, fingerprint: u64) -> Self {
        self.fingerprint = Some(fingerprint);
        self
    }

    /// Require the plan to compile kernel `kind`.
    pub fn expect_kind(mut self, kind: KernelKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Require the plan's feature dimension to equal `n`.
    pub fn expect_feature_dim(mut self, n: usize) -> Self {
        self.feature_dim = Some(n);
        self
    }

    /// Require the plan's Acc configuration to equal `config`.
    pub fn expect_config(mut self, config: AccConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Check the caller's expectations against a parsed IR.
    pub fn validate(&self, ir: &PlanIr) -> Result<()> {
        if let Some(arch) = self.arch {
            if arch != ir.arch {
                return Err(PlanLoadError::ArchMismatch {
                    plan: arch_slug(ir.arch).into(),
                    requested: arch_slug(arch).into(),
                }
                .into());
            }
        }
        if let Some(fp) = self.fingerprint {
            if fp != ir.input_fingerprint {
                return Err(PlanLoadError::FingerprintMismatch {
                    plan: format!("{:016x}", ir.input_fingerprint),
                    requested: format!("{fp:016x}"),
                }
                .into());
            }
        }
        if let Some(kind) = self.kind {
            if kind != ir.kind {
                return Err(PlanLoadError::BindingMismatch {
                    field: "kernel kind",
                    plan: kind_slug(ir.kind).into(),
                    requested: kind_slug(kind).into(),
                }
                .into());
            }
        }
        if let Some(dim) = self.feature_dim {
            if dim != ir.feature_dim {
                return Err(PlanLoadError::BindingMismatch {
                    field: "feature dim",
                    plan: ir.feature_dim.to_string(),
                    requested: dim.to_string(),
                }
                .into());
            }
        }
        if let Some(config) = self.config {
            if config != ir.config {
                return Err(PlanLoadError::BindingMismatch {
                    field: "config",
                    plan: format!("{:016x}", acc_config_hash(&ir.config)),
                    requested: format!("{:016x}", acc_config_hash(&config)),
                }
                .into());
            }
        }
        Ok(())
    }

    /// Validate and rehydrate a parsed IR into a runnable plan. The
    /// window partition rebuilds deterministically from the stored
    /// operand, and the format must agree with it and with the operand
    /// (shape, non-zeros, blocks): execution reads the operand while
    /// the trace, repair and stats read the format, so a format of
    /// another matrix is rejected rather than profiled. Format values
    /// re-round to TF32 (idempotent — saved plans already carry
    /// pre-rounded values), and the execution rows are derived from
    /// the operand again, so execution stays bit-identical to the plan
    /// that was saved.
    pub fn rehydrate(&self, ir: PlanIr) -> Result<ExecutionPlan> {
        let _span = spmm_trace::span("plan.load");
        self.validate(&ir)?;
        let spec = StageSpec::for_kernel(ir.kind, &ir.config);
        let partition = ir.format.as_ref().map(|_| WindowPartition::build(&ir.csr));
        if let (Some(wp), Some(f)) = (&partition, &ir.format) {
            let csr = &ir.csr;
            if f.dims() != (csr.nrows(), csr.ncols())
                || f.nnz() != csr.nnz()
                || f.num_tc_blocks() != wp.num_tc_blocks()
            {
                return Err(PlanLoadError::ArtifactInvalid {
                    section: "format",
                    detail: "format disagrees with the stored operand".into(),
                }
                .into());
            }
        }
        // The recorded tier is advisory provenance: the artifact may
        // have been compiled on a different host. Re-resolve against
        // *this* host's capabilities (a config pin the host can't
        // satisfy errors exactly as it would at build time) and re-bind
        // the plan — every tier is bit-identical, so a re-bind changes
        // speed and provenance, never results.
        let isa_tier = IsaTier::resolve(ir.config.isa)?;
        let mut trace = ir.trace;
        if trace.isa_tier != isa_tier {
            spmm_trace::counter_add("plan.isa_rebinds", 1);
            trace.isa_tier = isa_tier;
        }
        let mut format = ir.format;
        if let Some(f) = &mut format {
            f.preround_values_tier(isa_tier);
        }
        let ctx = PlanContext {
            kind: ir.kind,
            arch: ir.arch,
            feature_dim: ir.feature_dim,
            config: ir.config,
            spec,
            csr: ir.csr,
            input_fingerprint: ir.input_fingerprint,
            perm: ir.perm,
            partition,
            format,
            balance: ir.balance,
            trace: Some(trace),
            // Deriving the execution rows is load work: the plan keeps
            // the stage timings it was saved with.
            timings: Vec::new(),
            isa_tier,
        };
        let plan =
            ExecutionPlan::from_context(ctx).map_err(|e| PlanLoadError::ArtifactInvalid {
                section: "format",
                detail: e.to_string(),
            })?;
        spmm_trace::counter_add("plan.loads", 1);
        Ok(plan.with_stage_timings(ir.timings))
    }

    /// Parse, validate, and rehydrate from a reader.
    pub fn read<R: Read>(&self, r: R) -> Result<ExecutionPlan> {
        self.rehydrate(PlanIr::read_from(r)?)
    }

    /// Parse, validate, and rehydrate from a file.
    pub fn load(&self, path: impl AsRef<Path>) -> Result<ExecutionPlan> {
        self.read(std::fs::File::open(path)?)
    }
}

impl ExecutionPlan {
    /// Snapshot into the serializable IR.
    pub fn to_ir(&self) -> PlanIr {
        PlanIr::from_plan(self)
    }

    /// Serialize to a plan IR file (see [`PlanIr`] for the layout).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        self.to_ir().save(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_common::scalar::to_tf32;
    use spmm_matrix::gen::uniform_random;

    fn build(kind: KernelKind) -> ExecutionPlan {
        let m = uniform_random(96, 5.0, 9);
        ExecutionPlan::build(kind, &m, Arch::A800, 32, AccConfig::full()).unwrap()
    }

    #[test]
    fn config_hash_is_stable_and_sensitive() {
        let full = acc_config_hash(&AccConfig::full());
        assert_eq!(full, acc_config_hash(&AccConfig::full()));
        assert_ne!(full, acc_config_hash(&AccConfig::base()));
        for i in 0..5 {
            assert_ne!(
                acc_config_hash(&AccConfig::ablation_stage(i)),
                full,
                "stage {i} must hash differently from full"
            );
        }
    }

    #[test]
    fn ir_roundtrips_through_memory_for_every_kernel() {
        for kind in KernelKind::ALL {
            let plan = build(kind);
            let ir = plan.to_ir();
            let bytes = ir.to_bytes().unwrap();
            let rt = PlanIr::read_from(csr_reader(&bytes)).unwrap();
            assert_eq!(rt.kind, kind);
            assert_eq!(rt.arch, Arch::A800);
            assert_eq!(rt.input_fingerprint, plan.input_fingerprint());
            assert_eq!(rt.csr, *plan.csr());
            assert_eq!(rt.perm.as_deref(), plan.perm());
            assert_eq!(rt.trace.num_blocks(), plan.compiled_trace().num_blocks());
            assert_eq!(
                rt.trace.effective_flops,
                plan.compiled_trace().effective_flops
            );
        }
    }

    /// `plan`'s execution rows checked row by row against its permuted
    /// operand: row `old` is permuted row `perm[old]`, TF32-rounded,
    /// with the values that round to ±0 dropped — except on TC-GNN
    /// plans, which keep them.
    fn assert_rows_follow_the_operand(plan: &ExecutionPlan) {
        let rows = plan.exec_rows().expect("tensor-core plans hold rows");
        let keep_zeros = plan.kind() == KernelKind::TcGnn;
        assert_eq!(rows.nrows(), plan.csr().nrows());
        for old in 0..rows.nrows() {
            let p = plan.perm().map_or(old, |perm| perm[old] as usize);
            let (cols, vals) = plan.csr().row(p);
            let want: Vec<(u32, u32)> = cols
                .iter()
                .zip(vals)
                .filter(|&(_, &v)| keep_zeros || to_tf32(v) != 0.0)
                .map(|(&c, &v)| (c, to_tf32(v).to_bits()))
                .collect();
            let (cols, vals) = rows.row(old);
            let got: Vec<(u32, u32)> = cols
                .iter()
                .zip(vals)
                .map(|(&c, v)| (c, v.to_bits()))
                .collect();
            assert_eq!(got, want, "row {old}");
        }
        assert_eq!(
            plan.exec_bytes(),
            (rows.nrows() + 1) * std::mem::size_of::<usize>() + rows.nnz() * 8
        );
    }

    #[test]
    fn exec_rows_are_derived_at_build_load_and_repair() {
        // Stored zeros, one of them a subnormal that rounds to zero, so
        // dropping and keeping them differ.
        let mut coo = uniform_random(96, 5.0, 9).to_coo();
        coo.push(7, 50, 0.0);
        coo.push(40, 11, f32::from_bits(0x0000_0800));
        let m = CsrMatrix::from_coo(&coo);
        let zeros = m.values().iter().filter(|&&v| to_tf32(v) == 0.0);
        assert_eq!(zeros.count(), 2);
        let symmetric = AccConfig {
            symmetric_reorder: true,
            ..AccConfig::full()
        };
        for (kind, config) in [
            (KernelKind::AccSpmm, AccConfig::full()),
            (KernelKind::AccSpmm, symmetric),
            (KernelKind::DtcSpmm, AccConfig::full()),
            (KernelKind::TcGnn, AccConfig::full()),
        ] {
            let plan = ExecutionPlan::build(kind, &m, Arch::A800, 32, config).unwrap();
            assert_eq!(plan.perm().is_some(), kind != KernelKind::TcGnn, "{kind:?}");
            assert_rows_follow_the_operand(&plan);

            let bytes = plan.to_ir().to_bytes().unwrap();
            let loaded = PlanLoader::new().read(&bytes[..]).unwrap();
            assert_eq!(loaded.exec_rows(), plan.exec_rows(), "load derives them");
            assert_eq!(
                loaded.to_ir().to_bytes().unwrap(),
                bytes,
                "derived data, never serialized; timings kept"
            );

            let mut delta = spmm_delta::DeltaCsr::new(m.clone());
            delta.upsert(5, 17, 0.25).unwrap();
            delta.upsert(60, 3, -1.5).unwrap();
            let (repaired, _) = plan.repair(&delta).unwrap();
            assert_rows_follow_the_operand(&repaired);
            if !config.symmetric_reorder {
                // Rows-only plans hold the input's rows in input order,
                // whichever permutation packed the blocks.
                let fresh =
                    ExecutionPlan::build(kind, &delta.compact(), Arch::A800, 32, config).unwrap();
                assert_eq!(repaired.exec_rows(), fresh.exec_rows(), "{kind:?} repair");
            }
        }
        let plan = build(KernelKind::CusparseLike);
        assert!(plan.exec_rows().is_none() && plan.exec_bytes() == 0);
    }

    #[test]
    fn loader_rejects_mismatched_expectations() {
        let plan = build(KernelKind::AccSpmm);
        let bytes = plan.to_ir().to_bytes().unwrap();

        let e = PlanLoader::new()
            .expect_arch(Arch::H100)
            .read(csr_reader(&bytes))
            .unwrap_err();
        assert!(matches!(
            e,
            SpmmError::PlanLoad(PlanLoadError::ArchMismatch { .. })
        ));

        let e = PlanLoader::new()
            .expect_fingerprint(0xdeadbeef)
            .read(csr_reader(&bytes))
            .unwrap_err();
        assert!(matches!(
            e,
            SpmmError::PlanLoad(PlanLoadError::FingerprintMismatch { .. })
        ));

        let e = PlanLoader::new()
            .expect_kind(KernelKind::TcGnn)
            .read(csr_reader(&bytes))
            .unwrap_err();
        assert!(matches!(
            e,
            SpmmError::PlanLoad(PlanLoadError::BindingMismatch { .. })
        ));

        let e = PlanLoader::new()
            .expect_config(AccConfig::base())
            .read(csr_reader(&bytes))
            .unwrap_err();
        assert!(matches!(
            e,
            SpmmError::PlanLoad(PlanLoadError::BindingMismatch {
                field: "config",
                ..
            })
        ));

        // Matching expectations load fine.
        let loaded = PlanLoader::new()
            .expect_arch(Arch::A800)
            .expect_kind(KernelKind::AccSpmm)
            .expect_fingerprint(plan.input_fingerprint())
            .expect_feature_dim(32)
            .expect_config(AccConfig::full())
            .read(csr_reader(&bytes))
            .unwrap();
        assert_eq!(loaded.kind(), KernelKind::AccSpmm);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let e = PlanIr::read_from(csr_reader(b"nope nope nope")).unwrap_err();
        assert!(matches!(
            e,
            SpmmError::PlanLoad(PlanLoadError::NotPlanIr { .. })
        ));

        let plan = build(KernelKind::DtcSpmm);
        let mut bytes = plan.to_ir().to_bytes().unwrap();
        bytes[4] = 99; // version field
        let e = PlanIr::read_from(csr_reader(&bytes)).unwrap_err();
        assert!(matches!(
            e,
            SpmmError::PlanLoad(PlanLoadError::VersionMismatch { found: 99, .. })
        ));
    }

    #[test]
    fn rejects_truncated_containers() {
        let plan = build(KernelKind::AccSpmm);
        let bytes = plan.to_ir().to_bytes().unwrap();
        for cut in (4..bytes.len() - 1).step_by(97) {
            assert!(
                PlanIr::read_from(csr_reader(&bytes[..cut])).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_corrupted_csr_section() {
        let plan = build(KernelKind::CusparseLike);
        let ir = plan.to_ir();
        let mut bad = ir.clone();
        // Corrupt the stored fingerprint so the CSR integrity check fires.
        bad.stored_fingerprint ^= 1;
        let bytes = bad.to_bytes().unwrap();
        let e = PlanIr::read_from(csr_reader(&bytes)).unwrap_err();
        assert!(matches!(
            e,
            SpmmError::PlanLoad(PlanLoadError::ArtifactInvalid { section: "csr", .. })
        ));
    }
}
