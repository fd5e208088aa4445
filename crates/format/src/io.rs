//! Binary serialization of preprocessed TC formats.
//!
//! Preprocessing (reorder + conversion + planning) is the expensive part
//! of the pipeline; iterative applications amortize it across thousands
//! of multiplies *within* a run, and this module amortizes it across
//! runs: a preprocessed [`TcMatrix`] (BitTCF or ME-TCF) or [`Tcf`]
//! round-trips through a compact versioned binary stream (little-endian,
//! no unsafe, no external codec). These streams are also the "format
//! blob" section of the plan IR container (`spmm-kernels::ir`).
//!
//! A [`TcMatrix`] stream is the codec's magic and version, `nrows` and
//! `ncols` as `u64`, the three skeleton arrays, the codec's positions
//! section and the values — the `BTCF` v1 and `METC` v1 layouts.

use crate::tc_matrix::{BlockCodec, TcMatrix};
use crate::tcf::Tcf;
use crate::window::{PAD_COL, TILE};
use spmm_common::{Result, SpmmError};
use std::io::{BufReader, BufWriter, Read, Write};

/// Magic + version for the TCF codec.
const TCF_MAGIC: [u8; 4] = *b"TCF1";
const TCF_VERSION: u32 = 1;

/// Sanity bound on array lengths shared by every reader.
const CAP: u64 = 1 << 34;

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

/// Write a `u64` length, then each item as `N` little-endian bytes.
pub(crate) fn put_slice<T: Copy, const N: usize>(
    w: &mut impl Write,
    v: &[T],
    to_le: impl Fn(T) -> [u8; N],
) -> Result<()> {
    put_u64(w, v.len() as u64)?;
    for &x in v {
        w.write_all(&to_le(x))?;
    }
    Ok(())
}

/// Read an array written by [`put_slice`], of at most `cap` items. The
/// buffer grows with the items actually read, so a corrupt length
/// cannot allocate ahead of the stream.
pub(crate) fn get_vec<T, const N: usize>(
    r: &mut impl Read,
    cap: u64,
    from_le: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>> {
    let len = get_u64(r)?;
    if len > cap {
        return Err(SpmmError::MalformedFormat {
            detail: format!("array length {len} exceeds sanity cap {cap}"),
        });
    }
    let mut v = Vec::with_capacity(len.min(1 << 16) as usize);
    let mut b = [0u8; N];
    for _ in 0..len {
        r.read_exact(&mut b)?;
        v.push(from_le(b));
    }
    Ok(v)
}

fn check_magic(r: &mut impl Read, expected: [u8; 4], what: &str) -> Result<()> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != expected {
        return Err(SpmmError::MalformedFormat {
            detail: format!("not a {what} stream (bad magic)"),
        });
    }
    Ok(())
}

fn check_version(r: &mut impl Read, expected: u32, what: &str) -> Result<()> {
    let version = get_u32(r)?;
    if version != expected {
        return Err(SpmmError::MalformedFormat {
            detail: format!("unsupported {what} version {version}"),
        });
    }
    Ok(())
}

/// Serialize a TC-block matrix in its codec's stream layout.
pub fn write_tc_matrix<C: BlockCodec, W: Write>(w: W, t: &TcMatrix<C>) -> Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(&C::MAGIC)?;
    put_u32(&mut w, C::VERSION)?;
    put_u64(&mut w, t.nrows() as u64)?;
    put_u64(&mut w, t.ncols() as u64)?;
    put_slice(&mut w, &t.row_window_offset, u32::to_le_bytes)?;
    put_slice(&mut w, &t.tc_offset, u32::to_le_bytes)?;
    put_slice(&mut w, &t.sparse_a_to_b, u32::to_le_bytes)?;
    C::write_words(&mut w, &t.positions)?;
    put_slice(&mut w, &t.values, f32::to_le_bytes)?;
    w.flush()?;
    Ok(())
}

/// Deserialize a TC-block matrix, validating every invariant the
/// multiply paths index by, so a corrupt stream is a typed
/// [`SpmmError::MalformedFormat`] and never a panic on first use.
pub fn read_tc_matrix<C: BlockCodec, R: Read>(r: R) -> Result<TcMatrix<C>> {
    let mut r = BufReader::new(r);
    check_magic(&mut r, C::MAGIC, C::NAME)?;
    check_version(&mut r, C::VERSION, C::NAME)?;
    let nrows = get_u64(&mut r)? as usize;
    let ncols = get_u64(&mut r)? as usize;
    let row_window_offset = get_vec(&mut r, CAP, u32::from_le_bytes)?;
    let tc_offset = get_vec(&mut r, CAP, u32::from_le_bytes)?;
    let sparse_a_to_b = get_vec(&mut r, CAP, u32::from_le_bytes)?;
    let positions = C::read_words(&mut r, CAP)?;
    let values = get_vec(&mut r, CAP, f32::from_le_bytes)?;
    let malformed = |detail: String| SpmmError::MalformedFormat {
        detail: format!("{}: {detail}", C::NAME),
    };

    let num_windows = nrows.div_ceil(TILE);
    let blocks = tc_offset.len().wrapping_sub(1);
    if tc_offset.is_empty()
        || row_window_offset.len() != num_windows + 1
        || sparse_a_to_b.len() != blocks * TILE
        || row_window_offset[num_windows] as usize != blocks
        || tc_offset[blocks] as usize != values.len()
    {
        return Err(malformed("arrays are inconsistent".into()));
    }
    if row_window_offset[0] != 0 || tc_offset[0] != 0 {
        return Err(malformed(
            "RowWindowOffset and TCOffset must start at 0".into(),
        ));
    }
    if !row_window_offset.windows(2).all(|w| w[0] <= w[1])
        || !tc_offset.windows(2).all(|w| w[0] <= w[1])
    {
        return Err(malformed("offsets not monotone".into()));
    }
    if let Some(&c) = sparse_a_to_b
        .iter()
        .find(|&&c| c != PAD_COL && c as usize >= ncols)
    {
        return Err(malformed(format!(
            "SparseAToB column {c} beyond {ncols} columns"
        )));
    }
    C::validate(&positions, &tc_offset).map_err(malformed)?;
    // Every occupied position must gather a real column and land in a
    // real row (the last window may be ragged).
    for w in 0..num_windows {
        let rows = (nrows - w * TILE).min(TILE);
        for b in row_window_offset[w] as usize..row_window_offset[w + 1] as usize {
            let cols = &sparse_a_to_b[b * TILE..(b + 1) * TILE];
            let mut bad = None;
            C::walk(&positions[C::word_span(&tc_offset, b..b + 1)], |t| {
                if t / TILE >= rows || cols[t % TILE] == PAD_COL {
                    bad.get_or_insert(t);
                }
            });
            if let Some(t) = bad {
                return Err(malformed(format!(
                    "block {b}: position {t} lies in a padded column slot or past the last row"
                )));
            }
        }
    }

    Ok(TcMatrix::from_raw_parts(
        nrows,
        ncols,
        row_window_offset,
        tc_offset,
        sparse_a_to_b,
        positions,
        values,
    ))
}

/// Serialize a TCF matrix.
pub fn write_tcf<W: Write>(w: W, t: &Tcf) -> Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(&TCF_MAGIC)?;
    put_u32(&mut w, TCF_VERSION)?;
    put_u64(&mut w, t.nrows() as u64)?;
    put_u64(&mut w, t.ncols() as u64)?;
    put_slice(&mut w, &t.window_nnz_offset, u32::to_le_bytes)?;
    put_slice(&mut w, &t.edge_list, u32::to_le_bytes)?;
    put_slice(&mut w, &t.edge_to_column, u32::to_le_bytes)?;
    put_slice(&mut w, &t.edge_to_row, u32::to_le_bytes)?;
    put_slice(&mut w, &t.values, f32::to_le_bytes)?;
    put_slice(&mut w, &t.blocks_per_window, u32::to_le_bytes)?;
    w.flush()?;
    Ok(())
}

/// Deserialize a TCF matrix, validating structural invariants.
pub fn read_tcf<R: Read>(r: R) -> Result<Tcf> {
    let mut r = BufReader::new(r);
    check_magic(&mut r, TCF_MAGIC, "TCF")?;
    check_version(&mut r, TCF_VERSION, "TCF")?;
    let nrows = get_u64(&mut r)? as usize;
    let ncols = get_u64(&mut r)? as usize;
    let window_nnz_offset = get_vec(&mut r, CAP, u32::from_le_bytes)?;
    let edge_list = get_vec(&mut r, CAP, u32::from_le_bytes)?;
    let edge_to_column = get_vec(&mut r, CAP, u32::from_le_bytes)?;
    let edge_to_row = get_vec(&mut r, CAP, u32::from_le_bytes)?;
    let values = get_vec(&mut r, CAP, f32::from_le_bytes)?;
    let blocks_per_window = get_vec(&mut r, CAP, u32::from_le_bytes)?;

    // Structural validation before constructing.
    let nnz = values.len();
    let num_windows = nrows.div_ceil(TILE);
    if window_nnz_offset.len() != num_windows + 1
        || blocks_per_window.len() != num_windows
        || edge_list.len() != nnz
        || edge_to_column.len() != nnz
        || edge_to_row.len() != nnz
        || window_nnz_offset.first().copied().unwrap_or(u32::MAX) != 0
        || window_nnz_offset.last().copied().unwrap_or(0) as usize != nnz
    {
        return Err(SpmmError::MalformedFormat {
            detail: "TCF arrays are inconsistent".into(),
        });
    }
    if !window_nnz_offset.windows(2).all(|w| w[0] <= w[1]) {
        return Err(SpmmError::MalformedFormat {
            detail: "TCF window offsets not monotone".into(),
        });
    }
    if edge_to_row.iter().any(|&e| e as usize >= nrows)
        || edge_list.iter().any(|&c| c as usize >= ncols)
    {
        return Err(SpmmError::MalformedFormat {
            detail: "TCF edge index out of bounds".into(),
        });
    }
    for w in 0..num_windows {
        let span = window_nnz_offset[w] as usize..window_nnz_offset[w + 1] as usize;
        let cap = blocks_per_window[w] as usize * TILE;
        if edge_to_column[span].iter().any(|&c| c as usize >= cap) {
            return Err(SpmmError::MalformedFormat {
                detail: format!("TCF window {w}: squeezed column beyond its blocks"),
            });
        }
    }

    Ok(Tcf::from_raw_parts(
        nrows,
        ncols,
        window_nnz_offset,
        edge_list,
        edge_to_column,
        edge_to_row,
        values,
        blocks_per_window,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitTcf, Bitmap, LocalIds, MeTcf};
    use spmm_matrix::gen::uniform_random;

    fn read_bittcf(bytes: Vec<u8>) -> Result<BitTcf> {
        read_tc_matrix(std::io::Cursor::new(bytes))
    }

    fn read_metcf(bytes: Vec<u8>) -> Result<MeTcf> {
        read_tc_matrix(std::io::Cursor::new(bytes))
    }

    fn to_bytes<C: BlockCodec>(t: &TcMatrix<C>) -> Vec<u8> {
        let mut buf = Vec::new();
        write_tc_matrix(&mut buf, t).unwrap();
        buf
    }

    #[test]
    fn roundtrip_through_memory() {
        let m = uniform_random(300, 7.0, 1);
        let t = BitTcf::from_csr(&m);
        let rt = read_bittcf(to_bytes(&t)).unwrap();
        assert_eq!(t, rt);
        assert_eq!(rt.to_csr(), m, "full fidelity");
    }

    #[test]
    fn roundtrip_through_file() {
        let m = uniform_random(100, 4.0, 2);
        let t = BitTcf::from_csr(&m);
        let path = std::env::temp_dir().join("spmm_bittcf_io_test.btcf");
        std::fs::write(&path, to_bytes(&t)).unwrap();
        let rt: BitTcf = read_tc_matrix(std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(rt, t);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(read_bittcf(b"nope".to_vec()).is_err());
        // Truncate a valid stream at every eighth byte: must error, never
        // panic or return success.
        let m = uniform_random(64, 4.0, 3);
        let t = BitTcf::from_csr(&m);
        let buf = to_bytes(&t);
        for cut in (5..buf.len() - 1).step_by(8) {
            let r = read_bittcf(buf[..cut].to_vec());
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn rejects_corrupted_bitmap() {
        let m = uniform_random(64, 4.0, 4);
        let t = BitTcf::from_csr(&m);
        let mut buf = to_bytes(&t);
        // Flip a bit somewhere in the middle (bitmap/offset region).
        let mid = buf.len() / 2;
        buf[mid] ^= 0x10;
        // Either a structural invariant fires, or (if only a value was
        // touched) the matrix still parses; both are acceptable, but a
        // panic is not.
        let _ = read_bittcf(buf);
    }

    #[test]
    fn rejects_wrong_version() {
        let m = uniform_random(32, 3.0, 5);
        let t = BitTcf::from_csr(&m);
        let mut buf = to_bytes(&t);
        buf[4] = 99; // version field
        assert!(matches!(
            read_bittcf(buf),
            Err(SpmmError::MalformedFormat { .. })
        ));
    }

    #[test]
    fn tcf_roundtrip_through_memory() {
        let m = uniform_random(200, 6.0, 11);
        let t = Tcf::from_csr(&m);
        let mut buf = Vec::new();
        write_tcf(&mut buf, &t).unwrap();
        let rt = read_tcf(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(t, rt);
        assert_eq!(rt.to_csr(), m, "full fidelity");
    }

    #[test]
    fn metcf_roundtrip_through_memory() {
        let m = uniform_random(200, 6.0, 12);
        let t = MeTcf::from_csr(&m);
        let rt = read_metcf(to_bytes(&t)).unwrap();
        assert_eq!(t, rt);
        assert_eq!(rt.to_csr(), m, "full fidelity");
    }

    #[test]
    fn tcf_and_metcf_reject_truncation_and_cross_magic() {
        let m = uniform_random(64, 4.0, 13);
        let t = Tcf::from_csr(&m);
        let me = MeTcf::from_csr(&m);
        let mut tb = Vec::new();
        write_tcf(&mut tb, &t).unwrap();
        let mb = to_bytes(&me);
        for cut in (5..tb.len() - 1).step_by(16) {
            assert!(
                read_tcf(std::io::Cursor::new(tb[..cut].to_vec())).is_err(),
                "TCF truncation at {cut} must fail"
            );
        }
        for cut in (5..mb.len() - 1).step_by(16) {
            assert!(
                read_metcf(mb[..cut].to_vec()).is_err(),
                "ME-TCF truncation at {cut} must fail"
            );
        }
        // One codec's stream is not another's.
        assert!(read_metcf(tb.clone()).is_err());
        assert!(read_tcf(std::io::Cursor::new(mb.clone())).is_err());
        assert!(read_bittcf(tb).is_err());
    }

    #[test]
    fn tcf_and_metcf_reject_wrong_version() {
        let m = uniform_random(32, 3.0, 14);
        let mut tb = Vec::new();
        write_tcf(&mut tb, &Tcf::from_csr(&m)).unwrap();
        tb[4] = 42;
        assert!(matches!(
            read_tcf(std::io::Cursor::new(tb)),
            Err(SpmmError::MalformedFormat { .. })
        ));
        let mut mb = to_bytes(&MeTcf::from_csr(&m));
        mb[4] = 42;
        assert!(matches!(
            read_metcf(mb),
            Err(SpmmError::MalformedFormat { .. })
        ));
    }

    /// Round-trip `t` with one corruption applied to the decoded arrays:
    /// the reader must reject it with a typed error.
    fn rejects<C: BlockCodec>(t: &TcMatrix<C>, corrupt: impl FnOnce(&mut TcMatrix<C>), what: &str) {
        let mut bad = t.clone();
        corrupt(&mut bad);
        assert!(
            matches!(
                read_tc_matrix::<C, _>(std::io::Cursor::new(to_bytes(&bad))),
                Err(SpmmError::MalformedFormat { .. })
            ),
            "{}: {what} must be rejected",
            C::NAME
        );
    }

    /// The corruptions every multiply path would index by: an
    /// out-of-range gather column, an occupied position whose slot is
    /// padding, and skeleton offsets that do not start at 0.
    fn rejects_corrupt_skeletons<C: BlockCodec>() {
        // 13 rows: a ragged 5-row last window.
        let t = TcMatrix::<C>::from_csr(&uniform_random(13, 3.0, 6));
        let ncols = t.ncols() as u32;
        rejects(&t, |t| t.sparse_a_to_b[0] = 1_000_000, "column 1000000");
        rejects(
            &t,
            |t| t.sparse_a_to_b[0] = u32::MAX - 1,
            "column u32::MAX - 1",
        );
        rejects(&t, |t| t.sparse_a_to_b[0] = ncols, "column == ncols");
        rejects(
            &t,
            |t| t.sparse_a_to_b[0] = PAD_COL,
            "an occupied padded slot",
        );
        rejects(
            &t,
            |t| {
                t.row_window_offset[0] = 1;
                t.row_window_offset[1] = t.row_window_offset[1].max(1);
            },
            "RowWindowOffset[0] != 0",
        );
        rejects(&t, |t| t.tc_offset[0] = 1, "TCOffset[0] != 0");
        // The untouched stream still loads, equal to the original.
        let rt: TcMatrix<C> = read_tc_matrix(std::io::Cursor::new(to_bytes(&t))).unwrap();
        assert_eq!(rt, t);
    }

    #[test]
    fn both_codecs_reject_corrupt_gather_columns_and_offsets() {
        rejects_corrupt_skeletons::<Bitmap>();
        rejects_corrupt_skeletons::<LocalIds>();
    }

    #[test]
    fn metcf_rejects_a_position_past_the_last_row() {
        // 13 rows: window 1 has 5 rows, so local row 7 does not exist.
        // Moving the last id of the last block to row 7, same column,
        // keeps the ids ascending and the column slot occupied.
        let t = MeTcf::from_csr(&uniform_random(13, 3.0, 6));
        let end = t.nnz() - 1;
        rejects(
            &t,
            |t| t.positions[end] = 56 + t.positions[end] % 8,
            "a local id in row 7 of a 5-row window",
        );
    }

    #[test]
    fn bittcf_rejects_a_position_past_the_last_row() {
        let t = BitTcf::from_csr(&uniform_random(13, 3.0, 6));
        let last = t.num_tc_blocks() - 1;
        rejects(
            &t,
            |t| {
                // Move the block's highest set bit to row 7, same
                // column, keeping the popcount.
                let bits = t.positions[last];
                let top = 63 - bits.leading_zeros();
                t.positions[last] = bits & !(1 << top) | 1 << (56 + top % 8);
            },
            "a bit in row 7 of a 5-row window",
        );
    }
}
