//! Pinned builder output of the three TC formats.
//!
//! Each case hashes (FNV-1a) one format of the matrix in
//! `golden/matrix.rs` as a single little-endian stream: the dimensions,
//! then each array as its length and its items, the values as raw bits
//! (NaN payloads included). The hashes were taken while the formats'
//! former binary streams (`BTCF`, `METC`, `TCF1`) still matched their
//! byte fixtures, so they guard the same builder output. A mismatch
//! means `from_csr` changed what it stores.

#[path = "golden/matrix.rs"]
mod golden;

use spmm_format::{BitTcf, BlockCodec, MeTcf, TcMatrix, Tcf};

struct Fnv(u64);

impl Fnv {
    fn new(nrows: usize, ncols: usize) -> Self {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.bytes(&(nrows as u64).to_le_bytes());
        h.bytes(&(ncols as u64).to_le_bytes());
        h
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// An array: its length, then each item's little-endian bytes.
    fn array<T: Copy, const N: usize>(&mut self, items: &[T], to_le: impl Fn(T) -> [u8; N]) {
        self.bytes(&(items.len() as u64).to_le_bytes());
        for &x in items {
            self.bytes(&to_le(x));
        }
    }

    fn values(&mut self, values: &[f32]) {
        self.array(values, |v| v.to_bits().to_le_bytes());
    }
}

fn tc_matrix_hash<C: BlockCodec, const N: usize>(
    t: &TcMatrix<C>,
    to_le: impl Fn(C::Word) -> [u8; N],
) -> u64 {
    let mut h = Fnv::new(t.nrows(), t.ncols());
    h.array(&t.row_window_offset, u32::to_le_bytes);
    h.array(&t.tc_offset, u32::to_le_bytes);
    h.array(&t.sparse_a_to_b, u32::to_le_bytes);
    h.array(&t.positions, to_le);
    h.values(&t.values);
    h.0
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: format hash 0x{got:016x}, golden 0x{want:016x}"
    );
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
    let t = BitTcf::from_csr(&golden::golden_matrix());
    let got = tc_matrix_hash(&t, u64::to_le_bytes);
    check("BitTCF", got, 0xd89a_57ce_86bb_3afa);
}

#[test]
fn metcf_stream_is_byte_identical() {
    let t = MeTcf::from_csr(&golden::golden_matrix());
    let got = tc_matrix_hash(&t, u8::to_le_bytes);
    check("ME-TCF", got, 0x8edb_71d2_9be6_4ccd);
}

#[test]
fn tcf_stream_is_byte_identical() {
    let t = Tcf::from_csr(&golden::golden_matrix());
    let mut h = Fnv::new(t.nrows(), t.ncols());
    h.array(&t.window_nnz_offset, u32::to_le_bytes);
    h.array(&t.edge_list, u32::to_le_bytes);
    h.array(&t.edge_to_column, u32::to_le_bytes);
    h.array(&t.edge_to_row, u32::to_le_bytes);
    h.array(&t.blocks_per_window, u32::to_le_bytes);
    h.values(&t.values);
    check("TCF", h.0, 0x286b_762a_abaf_5986);
}
