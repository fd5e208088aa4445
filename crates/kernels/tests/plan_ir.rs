//! Round-trip properties of the persistent plan IR: for every kernel
//! and for a symmetric Acc-SpMM plan, a plan reloaded over its operand
//! must execute **bit-identically** to the plan it was snapshotted from
//! — including NaN positions, infinities, and subnormals spliced into
//! the operand values — and corrupted containers, and operands the file
//! does not bind to, must be rejected with typed errors, never
//! mis-loaded.

#[path = "../../format/tests/golden/matrix.rs"]
mod golden;

use proptest::prelude::*;
use spmm_common::{PlanLoadError, SpmmError};
use spmm_kernels::{AccConfig, ExecutionPlan, KernelKind, PlanLoader, PreparedKernel};
use spmm_matrix::{gen, CsrMatrix, DenseMatrix};
use spmm_sim::Arch;

/// Splice non-finite / subnormal values into a matrix at deterministic
/// positions (structure unchanged: `CsrMatrix::new` validates structure
/// but deliberately not value finiteness).
fn splice_special_values(m: &CsrMatrix, seed: u64) -> CsrMatrix {
    const SPECIALS: [f32; 6] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.0e-40, // subnormal
        -1.0e-41,
        -0.0,
    ];
    let mut values = m.values().to_vec();
    if !values.is_empty() {
        for (i, &s) in SPECIALS.iter().enumerate() {
            let at = (spmm_common::util::splitmix64(seed.wrapping_add(i as u64)) as usize)
                % values.len();
            values[at] = s;
        }
    }
    CsrMatrix::new(
        m.nrows(),
        m.ncols(),
        m.row_ptr().to_vec(),
        m.col_idx().to_vec(),
        values,
    )
    .unwrap()
}

fn build_plan(kind: KernelKind, m: &CsrMatrix, dim: usize) -> ExecutionPlan {
    ExecutionPlan::build(kind, m, Arch::A800, dim, AccConfig::full()).unwrap()
}

/// The full Acc configuration with the symmetric (rows and columns)
/// reorder, the one mode whose plan files hold a permutation.
fn symmetric() -> AccConfig {
    AccConfig {
        symmetric_reorder: true,
        ..AccConfig::full()
    }
}

fn build_symmetric(m: &CsrMatrix, dim: usize) -> ExecutionPlan {
    let plan = ExecutionPlan::build(KernelKind::AccSpmm, m, Arch::A800, dim, symmetric()).unwrap();
    assert!(
        plan.perm().is_some(),
        "a symmetric plan holds its permutation"
    );
    plan
}

/// A loader with every binding of a `dim`-wide A800 plan pinned.
fn bound_loader(kind: KernelKind, dim: usize, config: AccConfig) -> PlanLoader {
    PlanLoader::new()
        .expect_kind(kind)
        .expect_arch(Arch::A800)
        .expect_feature_dim(dim)
        .expect_config(config)
}

/// Bit-exact output comparison: NaNs must match *by position and bit
/// pattern*, which `==` on floats cannot express.
fn assert_bits_identical(a: &DenseMatrix, b: &DenseMatrix, kind: KernelKind) {
    assert_eq!(a.nrows(), b.nrows());
    assert_eq!(a.ncols(), b.ncols());
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice().iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{kind:?}: output {i} differs after reload: {x} vs {y}"
        );
    }
}

proptest! {
    // Plan builds are the expensive half of the workflow; a handful of
    // randomized operands per kernel exercises the codec paths
    // (empty/full windows, permutations, balance chunks) without
    // minutes of runtime.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn reloaded_plans_execute_bit_identically_for_every_kernel(
        n in 48usize..160,
        density in 2.0f64..8.0,
        seed in 0u64..1_000,
        dim_sel in 0usize..3,
    ) {
        let dim = [8usize, 16, 32][dim_sel];
        let m = splice_special_values(&gen::uniform_random(n, density, seed), seed);
        let b = DenseMatrix::random(n, dim, seed.wrapping_add(7));
        let cases = KernelKind::ALL
            .map(|kind| (kind, AccConfig::full()))
            .into_iter()
            .chain([(KernelKind::AccSpmm, symmetric())]);
        for (kind, config) in cases {
            let plan = ExecutionPlan::build(kind, &m, Arch::A800, dim, config).unwrap();
            let bytes = plan.to_bytes().unwrap();

            let reference = PreparedKernel::from_plan(plan).execute(&b).unwrap();
            let loaded = bound_loader(kind, dim, config).read(&bytes[..], &m).unwrap();
            prop_assert_eq!(loaded.to_bytes().unwrap(), bytes, "{:?} re-saves", kind);
            let replayed = PreparedKernel::from_plan(loaded).execute(&b).unwrap();
            assert_bits_identical(&reference, &replayed, kind);
        }
    }
}

proptest! {
    // Loads of a small symmetric plan are cheap, so the corruption
    // properties run many cases.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncated_containers_never_load(
        n in 48usize..96,
        seed in 0u64..1_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let m = gen::uniform_random(n, 4.0, seed);
        let bytes = build_symmetric(&m, 16).to_bytes().unwrap();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(PlanLoader::new().read(&bytes[..cut], &m).is_err());
    }

    #[test]
    fn single_byte_corruption_never_loads_a_wrong_plan(
        n in 48usize..96,
        seed in 0u64..1_000,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        field in 0usize..4,
        new_len in 0usize..4,
    ) {
        let m = gen::uniform_random(n, 4.0, seed);
        let bytes = build_symmetric(&m, 16).to_bytes().unwrap();
        let mut corrupt = bytes.clone();
        // Overwrite one length field (index 3 leaves them all intact),
        // then flip one byte.
        if let Some(&at) = length_fields(&corrupt).get(field) {
            let old = u64::from_le_bytes(corrupt[at..at + 8].try_into().unwrap());
            let new = [1 << 34, u64::MAX, old + 1, old.wrapping_sub(1)][new_len];
            corrupt[at..at + 8].copy_from_slice(&new.to_le_bytes());
        }
        let pos = ((corrupt.len() - 1) as f64 * pos_frac) as usize;
        corrupt[pos] ^= flip;
        // Reject-or-identical: a flip the checks cannot see (JSON
        // whitespace, the case of a name) must load the plan that was
        // saved, which re-saves to the original bytes.
        if let Ok(plan) = bound_loader(KernelKind::AccSpmm, 16, symmetric()).read(&corrupt[..], &m) {
            prop_assert_eq!(plan.to_bytes().unwrap(), bytes);
        }
    }

    #[test]
    fn arbitrary_and_mutated_bytes_are_an_error_never_a_panic(
        prefix in 0usize..4,
        tail in proptest::collection::vec(any::<u8>(), 0..256),
        edits in proptest::collection::vec((0.0f64..1.0, 1u8..=255), 1..8),
        cut_frac in 0.0f64..1.5,
    ) {
        let m = gen::uniform_random(64, 4.0, 8);
        let bytes = build_symmetric(&m, 16).to_bytes().unwrap();
        // Arbitrary bytes behind nothing, the magic, the magic and
        // version, or a valid symmetric header: never a plan.
        let start = [0, 4, 8, sections_start(&bytes)][prefix];
        let mut forged = bytes[..start].to_vec();
        forged.extend_from_slice(&tail);
        prop_assert!(PlanLoader::new().read(&forged[..], &m).is_err());

        // A valid container with several bytes flipped and its tail cut:
        // reject-or-identical, and no panic either way.
        let mut mutated = bytes.clone();
        for &(at, flip) in &edits {
            let at = ((mutated.len() - 1) as f64 * at) as usize;
            mutated[at] ^= flip;
        }
        mutated.truncate((mutated.len() as f64 * cut_frac.min(1.0)) as usize);
        let loader = bound_loader(KernelKind::AccSpmm, 16, symmetric());
        if let Ok(plan) = loader.read(&mutated[..], &m) {
            prop_assert_eq!(plan.to_bytes().unwrap(), bytes);
        }
    }
}

#[test]
fn save_and_load_through_files_round_trips() {
    let dir = std::env::temp_dir().join(format!("spmm-plan-ir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let m = splice_special_values(&gen::uniform_random(128, 5.0, 3), 3);
    let b = DenseMatrix::random(128, 16, 9);
    for kind in KernelKind::ALL {
        let path = dir.join(format!("{kind:?}.plan"));
        let plan = build_plan(kind, &m, 16);
        plan.save(&path).unwrap();
        let reference = PreparedKernel::from_plan(plan).execute(&b).unwrap();

        let loaded = PlanLoader::new().load(&path, &m).unwrap();
        let replayed = PreparedKernel::from_plan(loaded).execute(&b).unwrap();
        assert_bits_identical(&reference, &replayed, kind);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_header_is_a_typed_rejection() {
    let m = gen::uniform_random(64, 4.0, 1);
    let plan = build_plan(KernelKind::DtcSpmm, &m, 8);
    let mut bytes = plan.to_bytes().unwrap();
    let read = |bytes: &[u8]| PlanLoader::new().read(bytes, &m).unwrap_err();

    // Magic.
    bytes[0] = b'X';
    assert!(matches!(
        read(&bytes),
        SpmmError::PlanLoad(PlanLoadError::NotPlanIr { .. })
    ));
    bytes[0] = b'S';

    // Version.
    bytes[4] = 42;
    assert!(matches!(
        read(&bytes),
        SpmmError::PlanLoad(PlanLoadError::VersionMismatch { found: 42, .. })
    ));
    bytes[4] = spmm_kernels::PLAN_IR_VERSION as u8;

    // A zero feature dimension, which a build rejects.
    let zero_dim = forge_header(&bytes, "\"feature_dim\": 8", "\"feature_dim\": 0");
    assert!(matches!(
        read(&zero_dim),
        SpmmError::PlanLoad(PlanLoadError::NotPlanIr { .. })
    ));

    // JSON header body.
    let json_start = 4 + 4 + 8;
    bytes[json_start] = b'}';
    assert!(matches!(
        read(&bytes),
        SpmmError::PlanLoad(PlanLoadError::NotPlanIr { .. })
    ));
}

#[test]
fn v3_containers_are_a_version_mismatch() {
    // v3 was the last layout that could nest hybrid region plans, and
    // v6 the last that stored the operand CSR; loaders refuse both
    // outright instead of guessing at their sections.
    let m = gen::uniform_random(64, 4.0, 2);
    let bytes = build_plan(KernelKind::AccSpmm, &m, 8).to_bytes().unwrap();
    for old in [3u32, 6] {
        let mut bytes = bytes.clone();
        bytes[4..8].copy_from_slice(&old.to_le_bytes());
        let err = PlanLoader::new().read(&bytes[..], &m).unwrap_err();
        assert!(
            matches!(
                err,
                SpmmError::PlanLoad(PlanLoadError::VersionMismatch { found, .. }) if found == old
            ),
            "expected VersionMismatch {{ found: {old} }}, got {err:?}"
        );
    }
}

/// Byte offset of the permutation section, just past the
/// length-prefixed JSON header (magic, version, `u64` header length,
/// header).
fn sections_start(bytes: &[u8]) -> usize {
    16 + u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize
}

/// `bytes` with `from` replaced by `to` in its header text and the
/// header length fixed to match.
fn forge_header(bytes: &[u8], from: &str, to: &str) -> Vec<u8> {
    let end = sections_start(bytes);
    let header = std::str::from_utf8(&bytes[16..end]).unwrap();
    let forged = header.replace(from, to);
    assert_ne!(forged, header, "header records {from}");
    let mut out = bytes[..8].to_vec();
    out.extend_from_slice(&(forged.len() as u64).to_le_bytes());
    out.extend_from_slice(forged.as_bytes());
    out.extend_from_slice(&bytes[end..]);
    out
}

#[test]
fn a_header_naming_auto_is_a_typed_rejection() {
    // "auto" is not the slug of any kernel, so a container whose header
    // kind reads "auto" is not a plan this build could have written.
    let m = gen::uniform_random(64, 4.0, 4);
    let bytes = build_plan(KernelKind::AccSpmm, &m, 8).to_bytes().unwrap();
    let forged = forge_header(&bytes, "\"kind\": \"accspmm\"", "\"kind\": \"auto\"");
    let err = PlanLoader::new().read(&forged[..], &m).unwrap_err();
    assert!(
        matches!(err, SpmmError::PlanLoad(_)),
        "expected a PlanLoad error, got {err:?}"
    );
}

#[test]
fn a_wrong_or_misfit_operand_is_a_typed_rejection() {
    let m = gen::uniform_random(64, 4.0, 5);
    let bytes = build_symmetric(&m, 16).to_bytes().unwrap();
    let err = PlanLoader::new()
        .read(&bytes[..], &gen::uniform_random(64, 4.0, 6))
        .unwrap_err();
    assert!(
        matches!(
            err,
            SpmmError::PlanLoad(PlanLoadError::FingerprintMismatch { .. })
        ),
        "expected FingerprintMismatch, got {err:?}"
    );
    // A header forged to the fingerprint of a non-square operand, or of
    // a square one the stored permutation does not fit.
    let wide = CsrMatrix::new(64, 65, vec![0; 65], vec![], vec![]).unwrap();
    for other in [wide, gen::uniform_random(80, 4.0, 5)] {
        let forged = forge_header(
            &bytes,
            &format!("{:016x}", m.content_fingerprint()),
            &format!("{:016x}", other.content_fingerprint()),
        );
        let err = PlanLoader::new().read(&forged[..], &other).unwrap_err();
        assert!(
            matches!(
                err,
                SpmmError::PlanLoad(PlanLoadError::ArtifactInvalid {
                    section: "perm",
                    ..
                })
            ),
            "{}x{}: expected a perm ArtifactInvalid, got {err:?}",
            other.nrows(),
            other.ncols()
        );
    }
}

/// Byte offsets of the `u64` length fields of a symmetric plan's
/// container: the header, the perm section and the perm entry count.
fn length_fields(bytes: &[u8]) -> [usize; 3] {
    let perm = sections_start(bytes);
    [8, perm, perm + 8]
}

#[test]
fn an_oversized_length_field_is_a_typed_rejection_not_an_allocation() {
    // A length is trusted only as far as the bytes behind it: allocating
    // a 2^34-entry permutation up front (64 GiB) aborts the process.
    let m = gen::uniform_random(64, 4.0, 6);
    let bytes = build_symmetric(&m, 16).to_bytes().unwrap();
    for at in length_fields(&bytes) {
        for len in [1u64 << 34, u64::MAX] {
            let mut patched = bytes.clone();
            patched[at..at + 8].copy_from_slice(&len.to_le_bytes());
            let err = PlanLoader::new().read(&patched[..], &m).unwrap_err();
            assert!(
                matches!(err, SpmmError::PlanLoad(_)),
                "length {len} at byte {at}: expected a PlanLoad error, got {err:?}"
            );
        }
    }
}

#[test]
fn foreign_isa_tier_rebinds_to_the_host_probe_at_load() {
    use spmm_common::IsaTier;
    let m = gen::uniform_random(96, 5.0, 7);
    let plan = build_plan(KernelKind::AccSpmm, &m, 16);
    let host = IsaTier::probe();
    assert_eq!(plan.isa_tier(), host);
    assert_eq!(plan.model().trace().isa_tier, host);

    // Forge an artifact recorded on a "different host": stamp a tier
    // that is not this host's probe result into the header.
    let foreign = IsaTier::ALL
        .into_iter()
        .find(|t| *t != host)
        .expect("more than one tier exists");
    let bytes = forge_header(
        &plan.to_bytes().unwrap(),
        &format!("\"isa_tier\": \"{}\"", host.name()),
        &format!("\"isa_tier\": \"{}\"", foreign.name()),
    );

    // Loading re-resolves against the loading host: the recorded tier
    // is advisory provenance, not a binding.
    let loaded = PlanLoader::new().read(&bytes[..], &m).unwrap();
    assert_eq!(loaded.isa_tier(), host);
    assert_eq!(loaded.model().trace().isa_tier, host);

    // And the re-bound plan executes bit-identically to the original
    // (every tier computes the same bits, so a re-bind is invisible).
    let b = DenseMatrix::random(96, 16, 11);
    let reference = PreparedKernel::from_plan(plan).execute(&b).unwrap();
    let replayed = PreparedKernel::from_plan(loaded).execute(&b).unwrap();
    assert_bits_identical(&reference, &replayed, KernelKind::AccSpmm);
}

#[test]
fn pinned_unavailable_isa_tier_is_a_build_error() {
    use spmm_common::IsaTier;
    // NEON and the x86 tiers are mutually exclusive, so every host has
    // at least one unavailable tier to pin.
    let unavailable = IsaTier::ALL
        .into_iter()
        .find(|t| !t.is_available())
        .expect("no host implements every ISA");
    let m = gen::uniform_random(64, 4.0, 5);
    let config = AccConfig {
        isa: Some(unavailable),
        ..AccConfig::full()
    };
    let err = ExecutionPlan::build(KernelKind::AccSpmm, &m, Arch::A800, 16, config).unwrap_err();
    assert!(
        matches!(err, SpmmError::InvalidConfig(_)),
        "expected InvalidConfig, got {err:?}"
    );
}

#[test]
fn golden_v4_plans_are_a_version_mismatch() {
    // `golden/` holds an AccSpmm and a DtcSpmm plan saved in the v4
    // layout (feature dim 16, A800, full config), which also stored the
    // operand, format, balance and trace sections. v7 stores the binding
    // and permutation only, so both are refused outright; a plan built
    // afresh on the same matrix saves, loads and multiplies
    // bit-identically.
    let m = golden::golden_matrix();
    let b = DenseMatrix::from_fn(m.ncols(), 16, |r, c| {
        ((r * 16 + c) as f32 * 0.173_205).sin() * 2.5
    });
    for (kind, name) in [
        (KernelKind::AccSpmm, "accspmm.plan"),
        (KernelKind::DtcSpmm, "dtcspmm.plan"),
    ] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        let err = PlanLoader::new().load(&path, &m).unwrap_err();
        assert!(
            matches!(
                err,
                SpmmError::PlanLoad(PlanLoadError::VersionMismatch { found: 4, .. })
            ),
            "{name}: expected VersionMismatch {{ found: 4 }}, got {err:?}"
        );
        let fresh = build_plan(kind, &m, 16);
        let bytes = fresh.to_bytes().unwrap();
        let loaded = PlanLoader::new()
            .expect_kind(kind)
            .read(&bytes[..], &m)
            .unwrap();
        let want = PreparedKernel::from_plan(fresh).execute(&b).unwrap();
        let got = PreparedKernel::from_plan(loaded).execute(&b).unwrap();
        assert!(
            got.as_slice().iter().any(|v| v.is_nan()),
            "{name}: NaN reaches C"
        );
        assert_bits_identical(&want, &got, kind);
    }
}
