//! The versioned plan IR: persistent [`ExecutionPlan`] bindings.
//!
//! Acc-SpMM's economics rest on ahead-of-time preprocessing amortized
//! across many multiplies; this module lets a plan outlive its process.
//! A plan file stores what is costly to rebuild and nothing else:
//!
//! * a schema-versioned **JSON header** (via [`spmm_common::json`]) —
//!   kernel kind, architecture, feature dimension, the input operand's
//!   [`content_fingerprint`](spmm_matrix::CsrMatrix::content_fingerprint),
//!   the [`AccConfig`] binding and its hash, and the ISA tier the plan
//!   was bound to;
//! * one **length-prefixed binary section** (little-endian): the
//!   symmetric reorder's permutation, empty in every other mode.
//!
//! The operand is not stored: the caller of [`PlanLoader::read`] holds
//! it and passes it in. The loader checks it against the header's
//! fingerprint, relabels it by the stored permutation, and derives the
//! execution rows from it again; the model part ([`crate::PlanModel`])
//! rebuilds deterministically from the operand and the permutation on
//! first use.
//!
//! Loading validates in two layers: the container is parsed and
//! *structurally* checked (magic, version, header fields, config hash,
//! the permutation section against its own length) before anything is
//! constructed, and [`PlanLoader`] then checks it *semantically*
//! against what the caller expects — architecture, kernel binding and
//! the operand itself — rejecting mismatches with typed
//! [`SpmmError::PlanLoad`] variants, then derives a runnable
//! [`ExecutionPlan`].

use crate::acc::AccConfig;
use crate::plan::{ExecutionPlan, HostPart};
use crate::KernelKind;
use spmm_balance::BalanceStrategy;
use spmm_common::json::Json;
use spmm_common::{IsaTier, PlanLoadError, Result, SpmmError};
use spmm_matrix::CsrMatrix;
use spmm_reorder::Algorithm;
use spmm_sim::Arch;
use std::borrow::Cow;
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
/// re-resolve it against the loading host (see [`PlanLoader::read`]).
///
/// v4 dropped the hybrid-region section and the `num_regions` /
/// `decision` header keys: every plan is a single-kernel plan.
///
/// v5 stores the host part only: the header, the permutation when the
/// plan holds one, and the operand. The format, balance and trace
/// sections, and the `format`, `has_balance` and `timings` header keys,
/// are gone.
///
/// v6 changes the operand fingerprint the header records from a
/// byte-wise FNV-1a hash to a four-lane word hash
/// ([`CsrMatrix::content_fingerprint`]); the layout is that of v5.
///
/// v7 stores the binding and the permutation only: the operand CSR
/// section, and the `stored_fingerprint`, `nrows`, `ncols` and `nnz`
/// header keys, are gone; the loader takes the operand from its caller.
/// Older containers are rejected with [`PlanLoadError::VersionMismatch`].
pub const PLAN_IR_VERSION: u32 = 7;

/// Sanity cap on the header and section lengths.
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

/// Read exactly `len` bytes, growing the buffer as they arrive, so a
/// corrupt length cannot allocate ahead of the stream.
fn get_bytes(r: &mut impl Read, len: usize) -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    r.take(len as u64).read_to_end(&mut bytes)?;
    if bytes.len() < len {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// Stable slugs for every enum the header records. These are
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

/// FNV-1a hash of an [`AccConfig`]'s schema-stable encoding — the
/// configuration part of a plan's on-disk identity (header
/// validation). Stable across runs and builds, unlike `std::hash`.
pub(crate) fn acc_config_hash(c: &AccConfig) -> u64 {
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
/// symmetric mode's permutation.
#[derive(Debug)]
pub(crate) struct PlanIr {
    pub kind: KernelKind,
    pub arch: Arch,
    pub feature_dim: usize,
    pub config: AccConfig,
    /// ISA tier the plan was bound to when saved (advisory: loaders
    /// re-resolve it against the loading host).
    pub isa_tier: IsaTier,
    /// Fingerprint of the *unprocessed* input operand — the identity
    /// caches key plans by, and the operand a load must be given.
    pub input_fingerprint: u64,
    /// Symmetric mode's permutation (`perm[old] = new`).
    pub perm: Option<Vec<u32>>,
}

impl PlanIr {
    /// Snapshot a plan's binding and permutation (never builds the
    /// model).
    pub fn from_plan(plan: &ExecutionPlan) -> PlanIr {
        PlanIr {
            kind: plan.kind(),
            arch: plan.arch(),
            feature_dim: plan.feature_dim(),
            config: *plan.config(),
            isa_tier: plan.isa_tier(),
            input_fingerprint: plan.input_fingerprint(),
            perm: plan.perm().map(|p| p.to_vec()),
        }
    }

    /// The JSON header describing the binding and the section.
    fn header_json(&self) -> Json {
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
        h.insert("isa_tier".into(), Json::Str(self.isa_tier.name().into()));
        h.insert("has_perm".into(), Json::Bool(self.perm.is_some()));
        Json::Obj(h)
    }

    /// Serialize the container: magic, version, length-prefixed JSON
    /// header, then the length-prefixed permutation section.
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
        put_u64(&mut w, section.len() as u64)?;
        w.write_all(&section)?;

        w.flush()?;
        Ok(())
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
        let header_bytes = get_bytes(&mut r, header_len).map_err(|e| not_plan_ir(&e))?;
        let header_text = String::from_utf8(header_bytes).map_err(|e| not_plan_ir(&e))?;
        let header = Json::parse(&header_text).map_err(|e| {
            SpmmError::from(PlanLoadError::NotPlanIr {
                detail: format!("header is not JSON: {e}"),
            })
        })?;
        let hdr = Header::parse(&header)?;

        let len = get_len(&mut r, "perm").map_err(|e| perm_invalid(e.to_string()))?;
        let section =
            get_bytes(&mut r, len).map_err(|e| perm_invalid(format!("truncated: {e}")))?;
        let perm = match (hdr.has_perm, section.is_empty()) {
            (true, _) => Some(read_perm(&section)?),
            (false, true) => None,
            (false, false) => {
                return Err(perm_invalid(
                    "header says no permutation but section is non-empty".into(),
                ))
            }
        };

        Ok(PlanIr {
            kind: hdr.kind,
            arch: hdr.arch,
            feature_dim: hdr.feature_dim,
            config: hdr.config,
            isa_tier: hdr.isa_tier,
            input_fingerprint: hdr.input_fingerprint,
            perm,
        })
    }
}

fn not_plan_ir(e: &impl std::fmt::Display) -> SpmmError {
    PlanLoadError::NotPlanIr {
        detail: e.to_string(),
    }
    .into()
}

fn perm_invalid(detail: String) -> SpmmError {
    PlanLoadError::ArtifactInvalid {
        section: "perm",
        detail,
    }
    .into()
}

/// The permutation section: a `u64` entry count, then that many `u32`
/// entries filling the section exactly, forming a permutation.
fn read_perm(mut section: &[u8]) -> Result<Vec<u32>> {
    let len = get_u64(&mut section).map_err(|e| perm_invalid(e.to_string()))?;
    if len.checked_mul(4) != Some(section.len() as u64) {
        return Err(perm_invalid(format!(
            "{len} entries disagree with the {} bytes of the section",
            section.len()
        )));
    }
    let perm: Vec<u32> = section
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    if !spmm_common::util::is_permutation(&perm) {
        return Err(perm_invalid("not a permutation".into()));
    }
    Ok(perm)
}

// ---------------------------------------------------------------------------
// Header parsing.

struct Header {
    kind: KernelKind,
    arch: Arch,
    feature_dim: usize,
    config: AccConfig,
    input_fingerprint: u64,
    isa_tier: IsaTier,
    has_perm: bool,
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
        Ok(Header {
            kind,
            arch,
            // A build rejects a zero feature dimension; so does a load.
            feature_dim: Some(hdr_usize(h, "feature_dim")?)
                .filter(|&n| n > 0)
                .ok_or_else(|| missing("feature_dim"))?,
            config,
            input_fingerprint: hdr_hex(h, "fingerprint")?,
            isa_tier: IsaTier::from_name(hdr_str(h, "isa_tier")?)
                .ok_or_else(|| missing("isa_tier"))?,
            has_perm: hdr_bool(h, "has_perm")?,
        })
    }
}

// ---------------------------------------------------------------------------
// The loader/validator.

/// Semantic validation + rehydration of a plan file over the operand
/// its caller holds.
///
/// The loader carries the caller's *expectations* — the architecture it
/// will execute on, the kernel binding — and rejects plans that don't
/// match with typed [`SpmmError::PlanLoad`] errors. Expectations are
/// opt-in: an empty loader accepts any structurally valid container.
/// The operand is always checked: a file binds to one operand, and a
/// load over any other is [`PlanLoadError::FingerprintMismatch`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanLoader {
    arch: Option<Arch>,
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

    /// Check the caller's expectations and operand against a parsed IR.
    fn validate(&self, ir: &PlanIr, operand: &CsrMatrix) -> Result<()> {
        if let Some(arch) = self.arch {
            if arch != ir.arch {
                return Err(PlanLoadError::ArchMismatch {
                    plan: arch_slug(ir.arch).into(),
                    requested: arch_slug(arch).into(),
                }
                .into());
            }
        }
        let fp = operand.content_fingerprint();
        if fp != ir.input_fingerprint {
            return Err(PlanLoadError::FingerprintMismatch {
                plan: format!("{:016x}", ir.input_fingerprint),
                requested: format!("{fp:016x}"),
            }
            .into());
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

    /// Parse a container from a reader, validate it against the
    /// expectations and `operand`, and derive a runnable plan over
    /// `operand`: relabeled by the stored permutation in symmetric mode,
    /// with its execution rows derived again, so execution stays
    /// bit-identical to the plan that was saved.
    ///
    /// The recorded ISA tier is advisory provenance: the plan may have
    /// been saved on a different host, so it is re-resolved against
    /// *this* host's capabilities (a config pin the host can't satisfy
    /// errors exactly as it would at build time). Every tier is
    /// bit-identical, so a re-bind changes speed and provenance, never
    /// results.
    pub fn read<R: Read>(&self, r: R, operand: &CsrMatrix) -> Result<ExecutionPlan> {
        let ir = PlanIr::read_from(r)?;
        let _span = spmm_trace::span("plan.load");
        self.validate(&ir, operand)?;
        if IsaTier::resolve(ir.config.isa)? != ir.isa_tier {
            spmm_trace::counter_add("plan.isa_rebinds", 1);
        }
        let plan = ExecutionPlan::from_host(
            HostPart {
                kind: ir.kind,
                arch: ir.arch,
                feature_dim: ir.feature_dim,
                config: ir.config,
                input: Cow::Borrowed(operand),
                perm: ir.perm,
                timings: Vec::new(),
            },
            None,
        )
        .map_err(|e| perm_invalid(e.to_string()))?;
        spmm_trace::counter_add("plan.loads", 1);
        Ok(plan)
    }

    /// [`PlanLoader::read`] from a file.
    pub fn load(&self, path: impl AsRef<Path>, operand: &CsrMatrix) -> Result<ExecutionPlan> {
        self.read(std::fs::File::open(path)?, operand)
    }
}

impl ExecutionPlan {
    /// Serialize into plan-IR container bytes (see [`crate::ir`] for
    /// the layout).
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        PlanIr::from_plan(self).write_to(&mut buf)?;
        Ok(buf)
    }

    /// Serialize to a plan IR file (see [`crate::ir`] for the layout).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        PlanIr::from_plan(self).write_to(std::fs::File::create(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_common::scalar::to_tf32;
    use spmm_matrix::gen::uniform_random;

    fn operand() -> CsrMatrix {
        uniform_random(96, 5.0, 9)
    }

    fn build(kind: KernelKind) -> ExecutionPlan {
        ExecutionPlan::build(kind, &operand(), Arch::A800, 32, AccConfig::full()).unwrap()
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
            let bytes = plan.to_bytes().unwrap();
            let rt = PlanIr::read_from(&bytes[..]).unwrap();
            assert_eq!(rt.kind, kind);
            assert_eq!(rt.arch, Arch::A800);
            assert_eq!(rt.input_fingerprint, plan.input_fingerprint());
            assert_eq!(rt.perm.as_deref(), plan.perm());
            assert_eq!(rt.isa_tier, plan.isa_tier());
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
        let mut coo = operand().to_coo();
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
            let packed = plan.model().perm().is_some();
            assert_eq!(packed, kind != KernelKind::TcGnn, "{kind:?}");
            assert_rows_follow_the_operand(&plan);

            let bytes = plan.to_bytes().unwrap();
            let loaded = PlanLoader::new().read(&bytes[..], &m).unwrap();
            assert_eq!(loaded.csr(), plan.csr(), "load relabels the operand");
            assert_eq!(loaded.exec_rows(), plan.exec_rows(), "load derives them");
            assert_eq!(
                loaded.to_bytes().unwrap(),
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
        let bytes = plan.to_bytes().unwrap();
        let m = operand();

        let e = PlanLoader::new()
            .expect_arch(Arch::H100)
            .read(&bytes[..], &m)
            .unwrap_err();
        assert!(matches!(
            e,
            SpmmError::PlanLoad(PlanLoadError::ArchMismatch { .. })
        ));

        let e = PlanLoader::new()
            .read(&bytes[..], &uniform_random(96, 5.0, 10))
            .unwrap_err();
        assert!(matches!(
            e,
            SpmmError::PlanLoad(PlanLoadError::FingerprintMismatch { .. })
        ));

        let e = PlanLoader::new()
            .expect_kind(KernelKind::TcGnn)
            .read(&bytes[..], &m)
            .unwrap_err();
        assert!(matches!(
            e,
            SpmmError::PlanLoad(PlanLoadError::BindingMismatch { .. })
        ));

        let e = PlanLoader::new()
            .expect_config(AccConfig::base())
            .read(&bytes[..], &m)
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
            .expect_feature_dim(32)
            .expect_config(AccConfig::full())
            .read(&bytes[..], &m)
            .unwrap();
        assert_eq!(loaded.kind(), KernelKind::AccSpmm);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let e = PlanIr::read_from(&b"nope nope nope"[..]).unwrap_err();
        assert!(matches!(
            e,
            SpmmError::PlanLoad(PlanLoadError::NotPlanIr { .. })
        ));

        let plan = build(KernelKind::DtcSpmm);
        let mut bytes = plan.to_bytes().unwrap();
        bytes[4] = 99; // version field
        let e = PlanIr::read_from(&bytes[..]).unwrap_err();
        assert!(matches!(
            e,
            SpmmError::PlanLoad(PlanLoadError::VersionMismatch { found: 99, .. })
        ));
    }

    #[test]
    fn rejects_truncated_containers() {
        let plan = build(KernelKind::AccSpmm);
        let bytes = plan.to_bytes().unwrap();
        for cut in (4..bytes.len() - 1).step_by(97) {
            assert!(
                PlanIr::read_from(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }
}
