//! Window-level bit-identity of the row-streamed TC core.
//!
//! `TcMatrix::window_product` decodes a window into per-row
//! `(value, B row)` lists and accumulates each output row in one pass. The oracle is the dense-tile formulation they replace: for
//! every block of the window, `decompress_block` into an 8×8 tile, gather
//! the block's raw B rows (zeros for padded columns) and apply the
//! re-rounding scalar `tf32_mma_8x8`. Every available ISA tier must match
//! it bitwise (NaN positions exactly; payloads are unspecified), for
//! pre-rounded and raw formats alike, for both block codecs.

use spmm_common::scalar::tf32_mma_8x8;
use spmm_common::util::splitmix64;
use spmm_common::IsaTier;
use spmm_format::{
    BStage, BitTcf, Bitmap, BlockCodec, LocalIds, TcMatrix, WindowPairs, PAD_COL, TILE,
};
use spmm_matrix::{CooMatrix, CsrMatrix, DenseMatrix};

/// Tiers runnable on this host, logging every skip.
fn available_tiers() -> Vec<IsaTier> {
    IsaTier::ALL
        .into_iter()
        .filter(|t| {
            let ok = t.is_available();
            if !ok {
                eprintln!("window_identity: skipping tier '{t}' (not available on this host)");
            }
            ok
        })
        .collect()
}

/// Window `w` by the dense-tile oracle: `TILE` rows of `b.ncols()`.
fn oracle_window<C: BlockCodec>(f: &TcMatrix<C>, w: usize, b: &DenseMatrix) -> Vec<f32> {
    let n = b.ncols();
    let mut ctile = vec![0.0f32; TILE * n];
    let mut btile = vec![0.0f32; TILE * n];
    for blk in f.window_blocks(w) {
        for (i, &col) in f.block_cols(blk).iter().enumerate() {
            let dst = &mut btile[i * n..(i + 1) * n];
            if col == PAD_COL {
                dst.fill(0.0);
            } else {
                dst.copy_from_slice(b.row(col as usize));
            }
        }
        tf32_mma_8x8(&f.decompress_block(blk), &btile, &mut ctile, n);
    }
    ctile
}

/// Every window of `f` on every tier against the oracle. The output
/// buffer starts dirty, so a row the product failed to overwrite shows.
fn assert_windows_match<C: BlockCodec>(f: &TcMatrix<C>, b: &DenseMatrix, what: &str) {
    let n = b.ncols();
    for tier in available_tiers() {
        let mut stage = BStage::new();
        stage.stage_tier(b, tier);
        let mut pairs = WindowPairs::new();
        for w in 0..f.num_windows() {
            let want = oracle_window(f, w, b);
            let rows = f.window_rows(w);
            let mut got = vec![f32::from_bits(0x7FC0_1234); TILE * n];
            f.window_product(w, &stage, &mut pairs, &mut got, tier);
            for (k, (&g, &e)) in got[..rows * n].iter().zip(&want).enumerate() {
                assert!(
                    g.to_bits() == e.to_bits() || (g.is_nan() && e.is_nan()),
                    "{what} {}, tier '{tier}', n={n}, window {w}, row {}, col {}: \
                     {g:?} ({:#010x}) vs {e:?} ({:#010x})",
                    C::NAME,
                    k / n,
                    k % n,
                    g.to_bits(),
                    e.to_bits()
                );
            }
        }
    }
}

/// A messy value: mostly ordinary, with the specials spliced in.
fn messy(h: u64) -> f32 {
    const SPECIALS: [f32; 8] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        1.0e-41,                     // subnormal that survives TF32 rounding
        f32::from_bits(0x0000_0800), // subnormal that rounds to +0
        f32::from_bits(0x8000_0FFF), // subnormal that rounds to -0
    ];
    match h % 9 {
        0 => SPECIALS[(h / 9) as usize % SPECIALS.len()],
        _ => (h >> 40) as f32 / (1u64 << 23) as f32 - 1.0,
    }
}

/// A ragged (`nrows % 8 != 0`) matrix whose windows span several
/// blocks, with specials in the stored values.
fn messy_matrix(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> CsrMatrix {
    let mut coo = CooMatrix::new(nrows, ncols);
    for r in 0..nrows {
        for k in 0..per_row {
            let h = splitmix64(seed ^ ((r * per_row + k) as u64) << 8);
            coo.push(r as u32, (h % ncols as u64) as u32, messy(h >> 3));
        }
    }
    CsrMatrix::from_coo(&coo)
}

fn messy_dense(nrows: usize, ncols: usize, seed: u64) -> DenseMatrix {
    DenseMatrix::from_fn(nrows, ncols, |r, c| {
        messy(splitmix64(seed ^ ((r * ncols + c) as u64) << 16))
    })
}

/// The identity check for one codec: raw and pre-rounded matrices.
fn check_codec<C: BlockCodec>(m: &CsrMatrix, b: &DenseMatrix, what: &str) {
    let raw = TcMatrix::<C>::from_csr(m);
    assert_windows_match(&raw, b, &format!("{what} raw"));
    let mut pre = raw;
    pre.preround_values_tier(IsaTier::probe());
    assert_windows_match(&pre, b, &format!("{what} pre-rounded"));
}

fn both_formats(m: &CsrMatrix, b: &DenseMatrix, what: &str) {
    check_codec::<Bitmap>(m, b, what);
    check_codec::<LocalIds>(m, b, what);
}

#[test]
fn messy_windows_match_the_tile_oracle_on_every_tier() {
    // 77 rows: nine full windows and a ragged 5-row last one.
    let m = messy_matrix(77, 90, 9, 0x5EED);
    for n in [1usize, 7, 16, 33] {
        let b = messy_dense(90, n, 0xB0B ^ n as u64);
        both_formats(&m, &b, &format!("messy n={n}"));
    }
}

#[test]
fn zero_a_slots_never_touch_non_finite_b() {
    // Row 0 holds an explicit zero against column 3 and a subnormal
    // against column 5; the subnormal rounds to +0 under TF32, so in the
    // raw format both are zero A slots and must be skipped (row 9's
    // subnormal rounds to -0, which is zero too). B rows 3 and
    // 5 are all NaN/Inf: if either were multiplied, row 0 would be NaN.
    // Row 1 multiplies column 3 for real, so a NaN *must* appear there.
    // Ten rows leave a ragged 2-row second window.
    let mut coo = CooMatrix::new(10, 12);
    coo.push(0, 3, 0.0);
    coo.push(0, 5, f32::from_bits(0x0000_0800));
    coo.push(0, 7, 2.0);
    coo.push(1, 3, 1.5);
    coo.push(9, 5, f32::from_bits(0x8000_0FFF));
    coo.push(9, 11, 0.5);
    let m = CsrMatrix::from_coo(&coo);
    let b = DenseMatrix::from_fn(12, 9, |r, c| match r {
        3 => f32::NAN,
        5 => [f32::INFINITY, f32::NEG_INFINITY][c % 2],
        _ => 1.0 + (r * 9 + c) as f32 / 64.0,
    });
    both_formats(&m, &b, "zero slots");

    let t = BitTcf::from_csr(&m);
    let c = t.spmm(&b).unwrap();
    for col in 0..9 {
        assert_eq!(c.get(0, col), 2.0 * b.get(7, col), "row 0 col {col}");
        assert!(
            c.get(1, col).is_nan(),
            "row 1 col {col} multiplies the NaN row"
        );
        assert_eq!(c.get(9, col), 0.5 * b.get(11, col), "row 9 col {col}");
    }
}
