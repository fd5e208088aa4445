//! Golden Acc-Reorder permutations.
//!
//! Each case pins an FNV-1a hash of `affinity_order`'s permutation on
//! one square input, one per generator family plus three Table-2
//! recipes at fixed seeds. Step II's implementation may change for
//! speed; the permutation it produces may not. A mismatch here means
//! the reordering, and with it every Acc-SpMM plan built on a square
//! operand, changed.

use spmm_matrix::gen::{self, ClusteredConfig, RmatConfig};
use spmm_matrix::{CsrMatrix, Dataset};
use spmm_reorder::affinity::affinity_order;

fn fnv1a(perm: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in perm {
        for byte in p.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The Table-2 recipe `abbr` at its registry size, with generator seed
/// `seed`.
fn table2(abbr: &str, seed: u64) -> CsrMatrix {
    let recipe = Dataset::by_abbr(abbr).expect("Table-2 registry holds the recipe");
    Dataset { seed, ..*recipe }.build()
}

fn check(name: &str, m: &CsrMatrix, want: u64) {
    let got = fnv1a(&affinity_order(m));
    assert_eq!(
        got, want,
        "{name}: affinity_order permutation hash 0x{got:016x}, golden 0x{want:016x}"
    );
}

#[test]
fn molecule_union_permutation_is_pinned() {
    let m = gen::molecule_union(4096, 6, 14, true, 7);
    check("molecule_union", &m, 0x15a2_21a0_a2ba_96c5);
}

#[test]
fn uniform_random_permutation_is_pinned() {
    let m = gen::uniform_random(2048, 12.0, 3);
    check("uniform_random", &m, 0xe947_b253_a265_75cd);
}

#[test]
fn rmat_permutation_is_pinned() {
    let cfg = RmatConfig {
        scale: 11,
        ..RmatConfig::default()
    };
    check("rmat", &gen::rmat(cfg, 5), 0x69a2_4ffa_6510_cde1);
}

#[test]
fn clustered_permutation_is_pinned() {
    let cfg = ClusteredConfig {
        n: 4096,
        hub_fraction: 0.02,
        hub_factor: 8.0,
        degree_spread: 1.0,
        ..ClusteredConfig::default()
    };
    check("clustered", &gen::clustered(cfg, 9), 0xc98d_b120_05da_6831);
}

#[test]
fn fy_rsr_permutation_is_pinned() {
    check("FY-RSR", &table2("FY-RSR", 11), 0x24ce_eb92_9ca3_3429);
}

#[test]
fn yh_permutation_is_pinned() {
    check("YH", &table2("YH", 12), 0xec9b_c2e2_b758_74ed);
}

#[test]
fn wb_permutation_is_pinned() {
    check("WB", &table2("WB", 13), 0xc65b_76f2_fd27_105d);
}
