//! Round-trip properties of the persistent plan IR: for every kernel,
//! a saved-and-reloaded plan must execute **bit-identically** to the
//! plan it was snapshotted from — including NaN positions, infinities,
//! and subnormals spliced into the operand values — and corrupted
//! containers must be rejected with typed errors, never mis-loaded.

#[path = "../../format/tests/golden/matrix.rs"]
mod golden;

use proptest::prelude::*;
use spmm_common::{PlanLoadError, SpmmError};
use spmm_kernels::{AccConfig, ExecutionPlan, KernelKind, PlanIr, PlanLoader, PreparedKernel};
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
        for kind in KernelKind::ALL {
            let plan = build_plan(kind, &m, dim);
            let bytes = plan.to_ir().to_bytes().unwrap();

            let reference = PreparedKernel::from_plan(plan).execute(&b).unwrap();
            let loaded = PlanLoader::new()
                .expect_kind(kind)
                .expect_arch(Arch::A800)
                .expect_fingerprint(m.content_fingerprint())
                .expect_feature_dim(dim)
                .expect_config(AccConfig::full())
                .read(std::io::Cursor::new(&bytes))
                .unwrap();
            let replayed = PreparedKernel::from_plan(loaded).execute(&b).unwrap();
            assert_bits_identical(&reference, &replayed, kind);
        }
    }

    #[test]
    fn truncated_containers_never_load(
        n in 48usize..96,
        seed in 0u64..1_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let m = gen::uniform_random(n, 4.0, seed);
        let plan = build_plan(KernelKind::AccSpmm, &m, 16);
        let bytes = plan.to_ir().to_bytes().unwrap();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(PlanIr::read_from(std::io::Cursor::new(&bytes[..cut])).is_err());
    }

    #[test]
    fn single_byte_corruption_never_loads_a_wrong_plan(
        n in 48usize..96,
        seed in 0u64..1_000,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        field in 0usize..6,
        new_len in 0usize..4,
    ) {
        let m = gen::uniform_random(n, 4.0, seed);
        let plan = build_plan(KernelKind::AccSpmm, &m, 16);
        let mut bytes = plan.to_ir().to_bytes().unwrap();
        // Overwrite one length field (index 5 leaves them all intact),
        // then flip one byte.
        if let Some(&at) = length_fields(&bytes).get(field) {
            let old = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let new = [1 << 34, u64::MAX, old + 1, old.wrapping_sub(1)][new_len];
            bytes[at..at + 8].copy_from_slice(&new.to_le_bytes());
        }
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        // Either the container is rejected, or — when the flip hits a
        // value byte inside the CSR section — the stored-fingerprint
        // cross-check catches it. A successful load must only happen if
        // the flipped byte was outside every checked region AND the
        // plan still binds to the same identity; reject-or-identical is
        // the invariant.
        match PlanIr::read_from(std::io::Cursor::new(&bytes)) {
            Err(_) => {}
            Ok(ir) => {
                // Loadable implies the artifacts re-validated; the
                // binding must be untouched.
                prop_assert_eq!(ir.kind, KernelKind::AccSpmm);
                prop_assert_eq!(ir.feature_dim, 16);
            }
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

        let loaded = PlanLoader::new().load(&path).unwrap();
        let replayed = PreparedKernel::from_plan(loaded).execute(&b).unwrap();
        assert_bits_identical(&reference, &replayed, kind);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_header_is_a_typed_rejection() {
    let m = gen::uniform_random(64, 4.0, 1);
    let plan = build_plan(KernelKind::DtcSpmm, &m, 8);
    let mut bytes = plan.to_ir().to_bytes().unwrap();

    // Magic.
    bytes[0] = b'X';
    assert!(matches!(
        PlanIr::read_from(std::io::Cursor::new(&bytes)).unwrap_err(),
        SpmmError::PlanLoad(PlanLoadError::NotPlanIr { .. })
    ));
    bytes[0] = b'S';

    // Version.
    bytes[4] = 42;
    assert!(matches!(
        PlanIr::read_from(std::io::Cursor::new(&bytes)).unwrap_err(),
        SpmmError::PlanLoad(PlanLoadError::VersionMismatch { found: 42, .. })
    ));
    bytes[4] = spmm_kernels::PLAN_IR_VERSION as u8;

    // JSON header body.
    let json_start = 4 + 4 + 8;
    bytes[json_start] = b'}';
    assert!(matches!(
        PlanIr::read_from(std::io::Cursor::new(&bytes)).unwrap_err(),
        SpmmError::PlanLoad(PlanLoadError::NotPlanIr { .. })
    ));
}

#[test]
fn v3_containers_are_a_version_mismatch() {
    // v3 was the last layout that could nest hybrid region plans; v4
    // loaders refuse it outright instead of guessing at its sections.
    let m = gen::uniform_random(64, 4.0, 2);
    let mut bytes = build_plan(KernelKind::AccSpmm, &m, 8)
        .to_ir()
        .to_bytes()
        .unwrap();
    bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
    let err = PlanIr::read_from(std::io::Cursor::new(&bytes)).unwrap_err();
    assert!(
        matches!(
            err,
            SpmmError::PlanLoad(PlanLoadError::VersionMismatch { found: 3, .. })
        ),
        "expected VersionMismatch {{ found: 3 }}, got {err:?}"
    );
}

/// Byte offset of the first section, just past the length-prefixed
/// JSON header (magic, version, `u64` header length, header).
fn sections_start(bytes: &[u8]) -> usize {
    16 + u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize
}

#[test]
fn a_header_naming_auto_is_a_typed_rejection() {
    // "auto" is not the slug of any kernel, so a v4 container whose
    // header kind reads "auto" is not a plan this build could have
    // written. Forge it by rewriting the header text and its length.
    let m = gen::uniform_random(64, 4.0, 4);
    let bytes = build_plan(KernelKind::AccSpmm, &m, 8)
        .to_ir()
        .to_bytes()
        .unwrap();
    let end = sections_start(&bytes);
    let header = std::str::from_utf8(&bytes[16..end]).unwrap();
    let forged = header.replace("\"kind\": \"accspmm\"", "\"kind\": \"auto\"");
    assert_ne!(forged, header, "header records the kind slug");
    let mut bytes_auto = bytes[..8].to_vec();
    bytes_auto.extend_from_slice(&(forged.len() as u64).to_le_bytes());
    bytes_auto.extend_from_slice(forged.as_bytes());
    bytes_auto.extend_from_slice(&bytes[end..]);
    let err = PlanLoader::new()
        .read(std::io::Cursor::new(&bytes_auto))
        .unwrap_err();
    assert!(
        matches!(err, SpmmError::PlanLoad(_)),
        "expected a PlanLoad error, got {err:?}"
    );
}

#[test]
fn a_csr_row_pointer_past_nnz_is_a_typed_rejection() {
    // The CSR section is decoded before its fingerprint is checked, so
    // the decoder itself must reject a `row_ptr` entry that overshoots
    // nnz instead of slicing `col_idx` with it.
    let m = gen::uniform_random(64, 4.0, 5);
    let mut bytes = build_plan(KernelKind::CusparseLike, &m, 8)
        .to_ir()
        .to_bytes()
        .unwrap();
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let perm = sections_start(&bytes);
    let csr = perm + 8 + u64_at(&bytes, perm) as usize;
    // CSR section: length, nrows, ncols, row_ptr length, row_ptr...
    let row_ptr_1 = csr + 8 + 3 * 8 + 8;
    assert_eq!(u64_at(&bytes, row_ptr_1) as usize, m.row_ptr()[1]);
    bytes[row_ptr_1..row_ptr_1 + 8].copy_from_slice(&(m.nnz() as u64 + 100).to_le_bytes());
    let err = PlanLoader::new()
        .read(std::io::Cursor::new(&bytes))
        .unwrap_err();
    assert!(
        matches!(
            err,
            SpmmError::PlanLoad(PlanLoadError::ArtifactInvalid { section: "csr", .. })
        ),
        "expected a csr ArtifactInvalid, got {err:?}"
    );
}

/// Byte offsets of the `u64` length fields of a container without a
/// permutation: the header, the perm section, the CSR section, the CSR
/// `row_ptr` and the CSR `col_idx`/`values` pair.
fn length_fields(bytes: &[u8]) -> [usize; 5] {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let perm = sections_start(bytes);
    let csr = perm + 8 + u64_at(perm);
    let row_ptr = csr + 8 + 2 * 8;
    let col_idx = row_ptr + 8 + 8 * u64_at(row_ptr);
    [8, perm, csr, row_ptr, col_idx]
}

#[test]
fn an_oversized_length_field_is_a_typed_rejection_not_an_allocation() {
    // A length is trusted only as far as the bytes behind it: allocating
    // a 2^34 `row_ptr` length up front (128 GiB) aborts the process.
    let m = gen::uniform_random(64, 4.0, 6);
    let bytes = build_plan(KernelKind::AccSpmm, &m, 16)
        .to_ir()
        .to_bytes()
        .unwrap();
    let [_, _, csr_section, row_ptr, _] = length_fields(&bytes);
    for at in [row_ptr, csr_section] {
        let mut patched = bytes.clone();
        patched[at..at + 8].copy_from_slice(&(1u64 << 34).to_le_bytes());
        let err = PlanIr::read_from(std::io::Cursor::new(&patched)).unwrap_err();
        assert!(
            matches!(err, SpmmError::PlanLoad(_)),
            "length at byte {at}: expected a PlanLoad error, got {err:?}"
        );
    }
}

#[test]
fn a_row_count_of_u64_max_is_a_typed_rejection() {
    // `nrows + 1` must not wrap: at u64::MAX it would be 0 and let an
    // empty `row_ptr` through to an index past its end.
    let m = gen::uniform_random(64, 4.0, 6);
    let mut bytes = build_plan(KernelKind::AccSpmm, &m, 16)
        .to_ir()
        .to_bytes()
        .unwrap();
    let row_ptr = length_fields(&bytes)[3];
    // CSR section: length, nrows, ncols, row_ptr length, row_ptr[0] = 0,
    // which the reader then takes for the (empty) col_idx length.
    bytes[row_ptr - 16..row_ptr - 8].copy_from_slice(&u64::MAX.to_le_bytes());
    bytes[row_ptr..row_ptr + 8].copy_from_slice(&0u64.to_le_bytes());
    let err = PlanIr::read_from(std::io::Cursor::new(&bytes)).unwrap_err();
    assert!(
        matches!(
            err,
            SpmmError::PlanLoad(PlanLoadError::ArtifactInvalid { section: "csr", .. })
        ),
        "expected a csr ArtifactInvalid, got {err:?}"
    );
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
    // that is not this host's probe result into the IR's header.
    let mut ir = plan.to_ir();
    let foreign = IsaTier::ALL
        .into_iter()
        .find(|t| *t != host)
        .expect("more than one tier exists");
    ir.isa_tier = foreign;
    let bytes = ir.to_bytes().unwrap();

    let parsed = PlanIr::read_from(std::io::Cursor::new(&bytes)).unwrap();
    assert_eq!(
        parsed.isa_tier, foreign,
        "the recorded tier survives structural parsing untouched"
    );

    // Rehydration re-resolves against the loading host: the recorded
    // tier is advisory provenance, not a binding.
    let loaded = PlanLoader::new()
        .read(std::io::Cursor::new(&bytes))
        .unwrap();
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
    // format, balance and trace sections. v5 stores the host part only,
    // so both are refused outright; a plan built afresh on the same
    // matrix saves, loads and multiplies bit-identically.
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
        let err = PlanLoader::new().load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                SpmmError::PlanLoad(PlanLoadError::VersionMismatch { found: 4, .. })
            ),
            "{name}: expected VersionMismatch {{ found: 4 }}, got {err:?}"
        );
        let fresh = build_plan(kind, &m, 16);
        let bytes = fresh.to_ir().to_bytes().unwrap();
        let loaded = PlanLoader::new()
            .expect_kind(kind)
            .expect_fingerprint(m.content_fingerprint())
            .read(std::io::Cursor::new(&bytes))
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
