//! Byte-level compatibility of the binary format streams.
//!
//! `golden/` holds the `BTCF` v1, `METC` v1 and `TCF1` v1 streams of the
//! matrix in `golden/matrix.rs`, written before BitTCF and ME-TCF were
//! folded into one generic `TcMatrix`. The writers must still emit them
//! byte for byte, and the readers must return matrices bit-equal to a
//! fresh build (NaN payloads included).

#[path = "golden/matrix.rs"]
mod golden;

use spmm_format::io::{read_tc_matrix, read_tcf, write_tc_matrix, write_tcf};
use spmm_format::{BitTcf, BlockCodec, MeTcf, TcMatrix, Tcf};

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn check_tc_matrix<C: BlockCodec>(fresh: &TcMatrix<C>, name: &str) {
    let want = fixture(name);
    let mut got = Vec::new();
    write_tc_matrix(&mut got, fresh).unwrap();
    assert!(
        got == want,
        "{name}: writer output differs from the fixture"
    );

    let read: TcMatrix<C> = read_tc_matrix(std::io::Cursor::new(&want)).unwrap();
    assert_eq!((read.nrows(), read.ncols()), (fresh.nrows(), fresh.ncols()));
    assert_eq!(read.row_window_offset, fresh.row_window_offset, "{name}");
    assert_eq!(read.tc_offset, fresh.tc_offset, "{name}");
    assert_eq!(read.sparse_a_to_b, fresh.sparse_a_to_b, "{name}");
    assert_eq!(read.positions, fresh.positions, "{name}");
    assert_eq!(bits(&read.values), bits(&fresh.values), "{name}");
    assert!(!read.is_prerounded());
}

#[test]
fn the_fixture_matrix_covers_the_edge_cases() {
    let m = golden::golden_matrix();
    let t = BitTcf::from_csr(&m);
    assert_eq!(m.nrows() % 8, 5, "ragged last window");
    assert!((0..t.num_windows()).any(|w| t.window_blocks(w).is_empty()));
    assert!(t.positions.contains(&u64::MAX), "a full 64-nnz block");
    assert!(m.values().iter().any(|v| v.is_nan()));
    assert!(m.values().iter().any(|v| v.to_bits() == 0), "explicit zero");
}

#[test]
fn bittcf_stream_is_byte_identical() {
    check_tc_matrix(&BitTcf::from_csr(&golden::golden_matrix()), "matrix.btcf");
}

#[test]
fn metcf_stream_is_byte_identical() {
    check_tc_matrix(&MeTcf::from_csr(&golden::golden_matrix()), "matrix.metc");
}

#[test]
fn tcf_stream_is_byte_identical() {
    let fresh = Tcf::from_csr(&golden::golden_matrix());
    let want = fixture("matrix.tcf1");
    let mut got = Vec::new();
    write_tcf(&mut got, &fresh).unwrap();
    assert!(
        got == want,
        "matrix.tcf1: writer output differs from the fixture"
    );

    let read = read_tcf(std::io::Cursor::new(&want)).unwrap();
    assert_eq!(read.window_nnz_offset, fresh.window_nnz_offset);
    assert_eq!(read.edge_list, fresh.edge_list);
    assert_eq!(read.edge_to_column, fresh.edge_to_column);
    assert_eq!(read.edge_to_row, fresh.edge_to_row);
    assert_eq!(read.blocks_per_window, fresh.blocks_per_window);
    assert_eq!(bits(&read.values), bits(&fresh.values));
}
