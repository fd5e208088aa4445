//! Build-time kernel resolution: the policy behind
//! [`KernelKind::Auto`].
//!
//! A matrix is summarized into [`MatrixFeatures`] (average row length,
//! row-length coefficient of variation, feature dimension); the
//! [`DispatchPolicy`] — a first-match rule table learned offline by the
//! `autotune` binary and committed as `results/dispatch_policy.json` —
//! maps those features to one concrete [`KernelKind`].
//!
//! [`DispatchPolicy::resolve`] runs that lookup once, before any plan is
//! built: every entry point that accepts `Auto` (plan build, the kernel
//! builder, engine sessions, sharded coordinators) resolves it first, so
//! an `Auto` request yields an ordinary single-kernel plan whose
//! `kind()` is the resolved kernel. Sharded coordinators resolve on the
//! full operand before cutting shards, so every shard runs the same
//! kernel as the unsharded plan would.

use crate::ir::{kind_from_slug, kind_slug};
use crate::KernelKind;
use spmm_common::json::Json;
use spmm_common::{Result, SpmmError};
use spmm_matrix::CsrMatrix;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Schema version of the committed policy table. Bump on any change to
/// the rule or decision encoding; `DispatchPolicy::parse` rejects every
/// other version.
///
/// v2: a rule's `kernel` and the `fallback` are plain kernel slugs (v1
/// carried `{"mode": ...}` decision objects that could name a hybrid
/// region split).
pub const POLICY_SCHEMA_VERSION: u32 = 2;

/// The committed policy table, embedded at compile time so `Auto`
/// plans build without any runtime file dependency. CI regenerates the
/// file with `autotune --check` and fails on drift, so the embedded
/// bytes and the committed artifact cannot silently diverge.
const BUILTIN_POLICY: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/dispatch_policy.json"
));

/// The dispatch-relevant summary of one (matrix, feature-dim) binding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixFeatures {
    /// Rows of the sparse operand.
    pub nrows: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Average row length (`nnz / nrows`; 0 for an empty operand).
    pub avg_l: f64,
    /// Coefficient of variation of the row lengths (stddev / mean; 0
    /// when the mean is 0) — the paper collection's type-1/type-2 axis.
    pub row_cv: f64,
    /// Dense-operand feature dimension the plan will serve.
    pub feature_dim: usize,
}

impl MatrixFeatures {
    /// Compute the features of `m` for a plan specialized to
    /// `feature_dim`.
    pub fn of(m: &CsrMatrix, feature_dim: usize) -> MatrixFeatures {
        let nrows = m.nrows();
        let nnz = m.nnz();
        let avg_l = if nrows == 0 {
            0.0
        } else {
            nnz as f64 / nrows as f64
        };
        let row_cv = if nrows == 0 || avg_l == 0.0 {
            0.0
        } else {
            let var = (0..nrows)
                .map(|r| {
                    let d = m.row_len(r) as f64 - avg_l;
                    d * d
                })
                .sum::<f64>()
                / nrows as f64;
            var.sqrt() / avg_l
        };
        MatrixFeatures {
            nrows,
            nnz,
            avg_l,
            row_cv,
            feature_dim,
        }
    }
}

/// Parse a kernel slug (`"accspmm"`, ...) into a concrete kind. Only
/// the six concrete kernels have slugs the policy accepts.
fn kind_of(j: &Json, what: &str) -> Result<KernelKind> {
    let slug = j
        .as_str()
        .ok_or_else(|| bad_policy(&format!("{what} must be a kernel slug")))?;
    kind_from_slug(slug)
        .ok_or_else(|| bad_policy(&format!("unknown kernel slug '{slug}' in {what}")))
}

fn bad_policy(detail: &str) -> SpmmError {
    SpmmError::InvalidConfig(format!("dispatch policy: {detail}"))
}

/// Optional feature bounds one policy rule matches against (min
/// inclusive, max exclusive; an absent bound always matches).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RuleBounds {
    /// Lower bound on [`MatrixFeatures::avg_l`].
    pub avgl_min: Option<f64>,
    /// Upper bound on [`MatrixFeatures::avg_l`].
    pub avgl_max: Option<f64>,
    /// Lower bound on [`MatrixFeatures::row_cv`].
    pub cv_min: Option<f64>,
    /// Upper bound on [`MatrixFeatures::row_cv`].
    pub cv_max: Option<f64>,
    /// Lower bound on [`MatrixFeatures::feature_dim`].
    pub dim_min: Option<f64>,
    /// Upper bound on [`MatrixFeatures::feature_dim`].
    pub dim_max: Option<f64>,
}

impl RuleBounds {
    fn matches(&self, f: &MatrixFeatures) -> bool {
        let within = |v: f64, min: Option<f64>, max: Option<f64>| {
            min.is_none_or(|m| v >= m) && max.is_none_or(|m| v < m)
        };
        within(f.avg_l, self.avgl_min, self.avgl_max)
            && within(f.row_cv, self.cv_min, self.cv_max)
            && within(f.feature_dim as f64, self.dim_min, self.dim_max)
    }

    /// The bounds' JSON encoding (only present bounds are emitted, so
    /// the table stays readable).
    pub fn to_json(&self) -> Json {
        let mut o = BTreeMap::new();
        let mut put = |key: &str, v: Option<f64>| {
            if let Some(v) = v {
                o.insert(key.to_string(), Json::Num(v));
            }
        };
        put("avgl_min", self.avgl_min);
        put("avgl_max", self.avgl_max);
        put("cv_min", self.cv_min);
        put("cv_max", self.cv_max);
        put("dim_min", self.dim_min);
        put("dim_max", self.dim_max);
        Json::Obj(o)
    }

    fn from_json(j: &Json) -> Result<RuleBounds> {
        let obj = j
            .as_object()
            .ok_or_else(|| bad_policy("rule 'when' must be an object"))?;
        let mut b = RuleBounds::default();
        for (key, value) in obj {
            let v = value
                .as_f64()
                .ok_or_else(|| bad_policy(&format!("bound '{key}' must be a number")))?;
            match key.as_str() {
                "avgl_min" => b.avgl_min = Some(v),
                "avgl_max" => b.avgl_max = Some(v),
                "cv_min" => b.cv_min = Some(v),
                "cv_max" => b.cv_max = Some(v),
                "dim_min" => b.dim_min = Some(v),
                "dim_max" => b.dim_max = Some(v),
                other => return Err(bad_policy(&format!("unknown bound '{other}'"))),
            }
        }
        Ok(b)
    }
}

/// One first-match-wins policy rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyRule {
    /// Feature bounds the rule applies within.
    pub when: RuleBounds,
    /// The concrete kernel chosen when the bounds match.
    pub kernel: KernelKind,
}

/// The learned feature → kernel table `KernelKind::Auto` consults.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchPolicy {
    /// Rules in priority order; the first whose bounds match wins.
    pub rules: Vec<PolicyRule>,
    /// Kernel when no rule matches.
    pub fallback: KernelKind,
}

impl DispatchPolicy {
    /// The compiled-in policy (the committed
    /// `results/dispatch_policy.json`). Panics only if the committed
    /// artifact is malformed, which the CI determinism job prevents.
    pub fn builtin() -> &'static DispatchPolicy {
        static POLICY: OnceLock<DispatchPolicy> = OnceLock::new();
        POLICY.get_or_init(|| {
            DispatchPolicy::parse(BUILTIN_POLICY)
                .expect("embedded results/dispatch_policy.json is valid (CI-gated)")
        })
    }

    /// Resolve a requested kind to the concrete kernel a plan is built
    /// for. A concrete kind comes back unchanged without computing any
    /// features; [`KernelKind::Auto`] goes through the builtin rule
    /// table for `m` at `feature_dim`.
    pub fn resolve(kind: KernelKind, m: &CsrMatrix, feature_dim: usize) -> KernelKind {
        if kind != KernelKind::Auto {
            return kind;
        }
        DispatchPolicy::builtin().decide(&MatrixFeatures::of(m, feature_dim))
    }

    /// Parse a policy table from its JSON text.
    pub fn parse(text: &str) -> Result<DispatchPolicy> {
        let j = Json::parse(text).map_err(|e| bad_policy(&format!("not JSON: {e}")))?;
        let schema = j
            .get("schema_version")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad_policy("missing 'schema_version'"))?;
        if schema as u32 != POLICY_SCHEMA_VERSION {
            return Err(bad_policy(&format!(
                "schema_version {schema} unsupported (expected {POLICY_SCHEMA_VERSION})"
            )));
        }
        let rules = j
            .get("rules")
            .and_then(Json::as_array)
            .ok_or_else(|| bad_policy("missing 'rules' array"))?
            .iter()
            .map(|r| {
                Ok(PolicyRule {
                    when: RuleBounds::from_json(
                        r.get("when")
                            .ok_or_else(|| bad_policy("rule missing 'when'"))?,
                    )?,
                    kernel: kind_of(
                        r.get("kernel")
                            .ok_or_else(|| bad_policy("rule missing 'kernel'"))?,
                        "rule",
                    )?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let fallback = kind_of(
            j.get("fallback")
                .ok_or_else(|| bad_policy("missing 'fallback'"))?,
            "fallback",
        )?;
        Ok(DispatchPolicy { rules, fallback })
    }

    /// Serialize the table back to its committed JSON form (sorted
    /// keys; `extra` lets the autotuner record provenance fields).
    pub fn to_json(&self, extra: BTreeMap<String, Json>) -> Json {
        let mut o = extra;
        o.insert(
            "schema_version".into(),
            Json::Num(POLICY_SCHEMA_VERSION as f64),
        );
        o.insert(
            "rules".into(),
            Json::Arr(
                self.rules
                    .iter()
                    .map(|r| {
                        let mut rule = BTreeMap::new();
                        rule.insert("when".into(), r.when.to_json());
                        rule.insert("kernel".into(), Json::Str(kind_slug(r.kernel).into()));
                        Json::Obj(rule)
                    })
                    .collect(),
            ),
        );
        o.insert(
            "fallback".into(),
            Json::Str(kind_slug(self.fallback).into()),
        );
        Json::Obj(o)
    }

    /// Decide for one feature vector: first matching rule, else the
    /// fallback.
    pub fn decide(&self, f: &MatrixFeatures) -> KernelKind {
        self.rules
            .iter()
            .find(|r| r.when.matches(f))
            .map_or(self.fallback, |r| r.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_matrix::gen::uniform_random;

    #[test]
    fn builtin_policy_parses_and_resolves_to_a_concrete_kernel() {
        let m = uniform_random(128, 4.0, 3);
        let kind = DispatchPolicy::resolve(KernelKind::Auto, &m, 32);
        assert!(KernelKind::ALL.contains(&kind), "resolved to {kind:?}");
        // Concrete kinds pass through untouched.
        for k in KernelKind::ALL {
            assert_eq!(DispatchPolicy::resolve(k, &m, 32), k);
        }
    }

    #[test]
    fn features_capture_density_and_spread() {
        let m = uniform_random(256, 6.0, 1);
        let f = MatrixFeatures::of(&m, 64);
        assert_eq!(f.nrows, 256);
        assert_eq!(f.nnz, m.nnz());
        assert!((f.avg_l - m.nnz() as f64 / 256.0).abs() < 1e-12);
        assert!(f.row_cv >= 0.0);
        assert_eq!(f.feature_dim, 64);
    }

    #[test]
    fn rule_bounds_are_half_open_and_first_match_wins() {
        let policy = DispatchPolicy {
            rules: vec![
                PolicyRule {
                    when: RuleBounds {
                        avgl_max: Some(4.0),
                        ..Default::default()
                    },
                    kernel: KernelKind::CusparseLike,
                },
                PolicyRule {
                    when: RuleBounds::default(),
                    kernel: KernelKind::AccSpmm,
                },
            ],
            fallback: KernelKind::SputnikLike,
        };
        let f = |avg_l: f64| MatrixFeatures {
            nrows: 8,
            nnz: 8,
            avg_l,
            row_cv: 0.0,
            feature_dim: 32,
        };
        assert_eq!(policy.decide(&f(3.9)), KernelKind::CusparseLike);
        // Upper bounds are exclusive: 4.0 falls through to the
        // catch-all second rule.
        assert_eq!(policy.decide(&f(4.0)), KernelKind::AccSpmm);
    }

    #[test]
    fn policy_json_roundtrips() {
        let policy = DispatchPolicy {
            rules: vec![PolicyRule {
                when: RuleBounds {
                    avgl_min: Some(2.0),
                    avgl_max: Some(32.0),
                    dim_min: Some(64.0),
                    ..Default::default()
                },
                kernel: KernelKind::DtcSpmm,
            }],
            fallback: KernelKind::AccSpmm,
        };
        let text = policy.to_json(BTreeMap::new()).to_string_pretty();
        assert_eq!(DispatchPolicy::parse(&text).unwrap(), policy);
    }

    #[test]
    fn policies_naming_auto_or_v1_decisions_are_rejected() {
        let with = |rule_kernel: &str, fallback: &str| {
            format!(
                r#"{{"schema_version": 2, "fallback": {fallback},
                    "rules": [{{"when": {{}}, "kernel": {rule_kernel}}}]}}"#
            )
        };
        assert!(DispatchPolicy::parse(&with(r#""accspmm""#, r#""cusparse""#)).is_ok());
        // A rule or fallback must name a concrete kernel.
        assert!(DispatchPolicy::parse(&with(r#""auto""#, r#""accspmm""#)).is_err());
        assert!(DispatchPolicy::parse(&with(r#""accspmm""#, r#""auto""#)).is_err());
        // v1 decision objects no longer parse, under either version.
        let v1 = r#"{"mode": "single", "kernel": "accspmm"}"#;
        assert!(DispatchPolicy::parse(&with(v1, r#""accspmm""#)).is_err());
        let old = with(r#""accspmm""#, r#""accspmm""#)
            .replace("\"schema_version\": 2", "\"schema_version\": 1");
        assert!(DispatchPolicy::parse(&old).is_err());
    }
}
