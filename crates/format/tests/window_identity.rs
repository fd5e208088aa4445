//! Window-level bit-identity of the TC execution rows.
//!
//! `spmm_format::execution_rows` derives a TC plan's rows from its CSR
//! operand: `(TF32 value, B row)` pairs, and a multiply is the CSR row
//! loop over them. The oracle is the format's dense-tile formulation:
//! for every block of a window, `decompress_block` into an 8×8 tile,
//! gather the block's raw B rows (zeros for padded columns) and apply
//! the re-rounding scalar `tf32_mma_8x8`. The row loop over the rows of
//! the CSR the format encodes, on every available ISA tier, must match
//! it bitwise (NaN positions exactly; payloads are unspecified), for
//! pre-rounded and raw formats alike, for both block codecs. A proptest
//! pins what the rows are against a COO oracle: the CSR rows in the
//! given order, TF32-rounded, with the values that round to ±0 dropped
//! or kept as asked.

use proptest::prelude::*;
use spmm_common::scalar::{tf32_mma_8x8, to_tf32};
use spmm_common::util::splitmix64;
use spmm_common::IsaTier;
use spmm_format::{
    execution_rows, BStage, BitTcf, Bitmap, BlockCodec, LocalIds, TcMatrix, PAD_COL, TILE,
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

/// The row loop over the execution rows of `m` on every tier, checked
/// window by window against the oracle over `f`, a format of `m`. The
/// output starts dirty, so a row the loop failed to overwrite shows.
fn assert_windows_match<C: BlockCodec>(
    m: &CsrMatrix,
    f: &TcMatrix<C>,
    b: &DenseMatrix,
    what: &str,
) {
    let n = b.ncols();
    let rows = execution_rows(m, None, true).unwrap();
    for tier in available_tiers() {
        let mut stage = BStage::new();
        stage.stage_tier(b, tier);
        let mut got = DenseMatrix::from_fn(f.nrows(), n, |_, _| f32::from_bits(0x7FC0_1234));
        rows.spmm_dense_into(stage.as_dense(), &mut got, tier)
            .unwrap();
        for w in 0..f.num_windows() {
            let want = oracle_window(f, w, b);
            let lo = w * TILE;
            let got = &got.as_slice()[lo * n..(lo + f.window_rows(w)) * n];
            for (k, (&g, &e)) in got.iter().zip(&want).enumerate() {
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
    assert_windows_match(m, &raw, b, &format!("{what} raw"));
    let mut pre = raw;
    pre.preround_values_tier(IsaTier::probe());
    assert_windows_match(m, &pre, b, &format!("{what} pre-rounded"));
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

/// Row `i` of the result is row `order[i]` of `m` with every value
/// TF32-rounded and, with `skip_zeros`, the rounded zeros dropped: what
/// the execution rows must hold.
fn rounded_rows(m: &CsrMatrix, order: &[u32], skip_zeros: bool) -> CsrMatrix {
    let mut coo = CooMatrix::new(m.nrows(), m.ncols());
    for (i, &r) in order.iter().enumerate() {
        let (cols, vals) = m.row(r as usize);
        for (&c, &v) in cols.iter().zip(vals) {
            if !skip_zeros || to_tf32(v) != 0.0 {
                coo.push(i as u32, c, to_tf32(v));
            }
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Equality of two CSR matrices, values by bits except that any NaN
/// matches any NaN.
fn same_rows(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.row_ptr() == b.row_ptr()
        && a.col_idx() == b.col_idx()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

#[test]
fn execution_rows_reject_an_order_that_is_not_a_permutation() {
    let m = messy_matrix(10, 12, 3, 7);
    for bad in [&[0u32, 1, 2][..], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 8]] {
        assert!(execution_rows(&m, Some(bad), true).is_err(), "{bad:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exec_rows_are_the_rounded_csr_rows_without_zeros(
        nrows in 1usize..60,
        ncols in 1usize..70,
        entries in proptest::collection::vec((0u64..u64::MAX, 0usize..60, 0usize..70), 0..300),
        seed in 0u64..u64::MAX,
    ) {
        let mut coo = CooMatrix::new(nrows, ncols);
        for &(h, r, c) in &entries {
            coo.push((r % nrows) as u32, (c % ncols) as u32, messy(h));
        }
        let m = CsrMatrix::from_coo(&coo);
        let identity: Vec<u32> = (0..nrows as u32).collect();
        let mut shuffled = identity.clone();
        shuffled.sort_by_key(|&i| splitmix64(seed ^ u64::from(i)));
        for skip_zeros in [true, false] {
            prop_assert!(
                same_rows(&execution_rows(&m, None, skip_zeros).unwrap(), &rounded_rows(&m, &identity, skip_zeros)),
                "input order, skip_zeros {}", skip_zeros
            );
            prop_assert!(
                same_rows(
                    &execution_rows(&m, Some(&shuffled), skip_zeros).unwrap(),
                    &rounded_rows(&m, &shuffled, skip_zeros)
                ),
                "shuffled order, skip_zeros {}", skip_zeros
            );
        }
    }
}
