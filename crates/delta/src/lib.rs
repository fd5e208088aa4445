//! # spmm-delta — dynamic-graph overlay for evolving sparse operands
//!
//! Streaming GNN serving sees edge inserts and deletes between
//! forwards; rebuilding a full Reorder → FormatBuild → Balance →
//! Compile plan per update throws away almost all of the preprocessing
//! the paper amortizes. [`DeltaCsr`] keeps the operand as an immutable
//! base [`CsrMatrix`] plus a sorted per-row edge-delta overlay:
//!
//! * **O(log d) lookup** ([`DeltaCsr::get`]) through the overlay, then
//!   the base row;
//! * **merged iteration** ([`DeltaCsr::row`]) yielding each row's live
//!   edges in ascending column order, exactly as the compacted CSR
//!   would store them;
//! * **compaction** ([`DeltaCsr::compact`]) back to a plain CSR, at a
//!   cost that follows the touched rows: untouched row spans are copied
//!   whole. `ExecutionPlan::repair` derives a plan's host rows from it;
//! * **touched rows** ([`DeltaCsr::touched_rows`]) — the rows with
//!   pending ops.
//!
//! The overlay never changes the matrix shape: deltas are edge-level,
//! so `nrows`/`ncols` are fixed at construction and every consumer can
//! rely on window boundaries staying put.

use spmm_common::{Result, SpmmError};
use spmm_matrix::CsrMatrix;
use std::collections::BTreeMap;

/// One pending edit to an edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaOp {
    /// Insert the edge, or overwrite its value if it already exists.
    Upsert(f32),
    /// Remove the edge (recorded only for edges present in the base).
    Delete,
}

/// A base CSR matrix plus a sorted per-row edge-delta overlay.
///
/// ```
/// use spmm_delta::DeltaCsr;
/// use spmm_matrix::gen;
///
/// let base = gen::uniform_random(64, 4.0, 1);
/// let mut d = DeltaCsr::new(base.clone());
/// d.upsert(3, 7, 1.5).unwrap();
/// assert_eq!(d.get(3, 7), Some(1.5));
/// let compacted = d.compact();
/// assert_eq!(compacted.nnz(), d.nnz());
/// ```
#[derive(Debug, Clone)]
pub struct DeltaCsr {
    base: CsrMatrix,
    /// Pending per-row edits, sorted by column within each row. A row
    /// is present iff it has at least one pending op; an op on an edge
    /// that nets out to the base state is dropped eagerly (so
    /// [`DeltaCsr::is_clean`] means "compacts to exactly the base").
    rows: BTreeMap<u32, Vec<(u32, DeltaOp)>>,
    /// Live edge count of the merged view, maintained incrementally.
    nnz: usize,
}

impl DeltaCsr {
    /// Wrap `base` with an empty overlay.
    pub fn new(base: CsrMatrix) -> Self {
        let nnz = base.nnz();
        DeltaCsr {
            base,
            rows: BTreeMap::new(),
            nnz,
        }
    }

    /// The immutable base matrix the overlay is relative to.
    pub fn base(&self) -> &CsrMatrix {
        &self.base
    }

    /// Rows of the merged view (fixed at construction).
    pub fn nrows(&self) -> usize {
        self.base.nrows()
    }

    /// Columns of the merged view (fixed at construction).
    pub fn ncols(&self) -> usize {
        self.base.ncols()
    }

    /// Live edges in the merged view.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// `true` when the overlay holds no pending ops — the merged view
    /// is exactly the base, and a repair is a no-op.
    pub fn is_clean(&self) -> bool {
        self.rows.is_empty()
    }

    /// Pending ops currently in the overlay.
    pub fn num_pending(&self) -> usize {
        self.rows.values().map(Vec::len).sum()
    }

    /// Rows with at least one pending op, ascending.
    pub fn touched_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows.keys().map(|&r| r as usize)
    }

    /// Number of rows with pending ops.
    pub fn num_touched_rows(&self) -> usize {
        self.rows.len()
    }

    fn check_edge(&self, r: u32, c: u32) -> Result<()> {
        if r as usize >= self.nrows() {
            return Err(SpmmError::IndexOutOfBounds {
                what: "row",
                index: r as usize,
                bound: self.nrows(),
            });
        }
        if c as usize >= self.ncols() {
            return Err(SpmmError::IndexOutOfBounds {
                what: "column",
                index: c as usize,
                bound: self.ncols(),
            });
        }
        Ok(())
    }

    fn base_value(&self, r: u32, c: u32) -> Option<f32> {
        let (cols, vals) = self.base.row(r as usize);
        cols.binary_search(&c).ok().map(|k| vals[k])
    }

    /// Insert edge `(r, c)` with value `v`, or overwrite its value if
    /// it is already live. Returns `true` when a new edge was created,
    /// `false` when an existing value was overwritten. Values are
    /// spliced bit-exactly — NaN/Inf/subnormal payloads survive the
    /// round-trip through [`DeltaCsr::compact`].
    pub fn upsert(&mut self, r: u32, c: u32, v: f32) -> Result<bool> {
        self.check_edge(r, c)?;
        let base_v = self.base_value(r, c);
        let row = self.rows.entry(r).or_default();
        let inserted = match row.binary_search_by_key(&c, |&(col, _)| col) {
            Ok(k) => {
                let was_delete = matches!(row[k].1, DeltaOp::Delete);
                // Upserting the base's exact bit pattern nets out: drop
                // the pending op instead of keeping a vacuous one.
                if base_v.is_some_and(|b| b.to_bits() == v.to_bits()) {
                    row.remove(k);
                } else {
                    row[k].1 = DeltaOp::Upsert(v);
                }
                was_delete
            }
            Err(k) => {
                if base_v.is_some_and(|b| b.to_bits() == v.to_bits()) {
                    false // identical to base: nothing pending
                } else {
                    row.insert(k, (c, DeltaOp::Upsert(v)));
                    base_v.is_none()
                }
            }
        };
        if row.is_empty() {
            self.rows.remove(&r);
        }
        if inserted {
            self.nnz += 1;
        }
        Ok(inserted)
    }

    /// Delete edge `(r, c)` from the merged view. Returns `true` when
    /// the edge was live and is now gone, `false` (and no state change)
    /// when it did not exist. Out-of-bounds coordinates return `false`.
    pub fn delete(&mut self, r: u32, c: u32) -> bool {
        if self.check_edge(r, c).is_err() {
            return false;
        }
        let in_base = self.base_value(r, c).is_some();
        let row = self.rows.entry(r).or_default();
        let removed = match row.binary_search_by_key(&c, |&(col, _)| col) {
            Ok(k) => match row[k].1 {
                DeltaOp::Delete => false, // already deleted
                DeltaOp::Upsert(_) => {
                    if in_base {
                        row[k].1 = DeltaOp::Delete;
                    } else {
                        // Insert-then-delete nets out to nothing.
                        row.remove(k);
                    }
                    true
                }
            },
            Err(k) => {
                if in_base {
                    row.insert(k, (c, DeltaOp::Delete));
                    true
                } else {
                    false
                }
            }
        };
        if row.is_empty() {
            self.rows.remove(&r);
        }
        if removed {
            self.nnz -= 1;
        }
        removed
    }

    /// Value of edge `(r, c)` in the merged view — O(log d) over the
    /// row's pending ops, then O(log L) over the base row.
    pub fn get(&self, r: usize, c: u32) -> Option<f32> {
        if r >= self.nrows() {
            return None;
        }
        if let Some(row) = self.rows.get(&(r as u32)) {
            if let Ok(k) = row.binary_search_by_key(&c, |&(col, _)| col) {
                return match row[k].1 {
                    DeltaOp::Upsert(v) => Some(v),
                    DeltaOp::Delete => None,
                };
            }
        }
        self.base_value(r as u32, c)
    }

    /// Live edges of row `r` in ascending column order — the merged
    /// view a compacted CSR would store for the row.
    pub fn row(&self, r: usize) -> MergedRow<'_> {
        let (cols, vals) = self.base.row(r);
        MergedRow {
            base_cols: cols,
            base_vals: vals,
            deltas: self.rows.get(&(r as u32)).map(Vec::as_slice).unwrap_or(&[]),
            bi: 0,
            di: 0,
        }
    }

    /// Live edge count of row `r` in the merged view.
    pub fn row_len(&self, r: usize) -> usize {
        let base_len = self.base.row_len(r);
        match self.rows.get(&(r as u32)) {
            None => base_len,
            Some(ops) => {
                let (cols, _) = self.base.row(r);
                let mut len = base_len;
                for &(c, op) in ops {
                    match op {
                        DeltaOp::Upsert(_) => {
                            if cols.binary_search(&c).is_err() {
                                len += 1;
                            }
                        }
                        DeltaOp::Delete => len -= 1,
                    }
                }
                len
            }
        }
    }

    /// Materialize the merged view as a plain CSR (the overlay is left
    /// untouched). Values keep their exact bit patterns.
    ///
    /// The cost follows the rows the delta touched: each run of
    /// untouched base rows is copied whole — one `extend_from_slice` of
    /// its columns, one of its values and a shifted copy of its row
    /// pointers — and only the touched rows go through the merge
    /// ([`DeltaCsr::row`]). The result is still validated by
    /// [`CsrMatrix::new`].
    pub fn compact(&self) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(self.nrows() + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.nnz);
        let mut values = Vec::with_capacity(self.nnz);
        let mut next = 0;
        // Each touched row ends a run of untouched ones; the last run
        // ends at `nrows`.
        for r in self.touched_rows().chain([self.nrows()]) {
            self.base
                .append_rows_to(next, r, &mut row_ptr, &mut col_idx, &mut values);
            if r < self.nrows() {
                for (c, v) in self.row(r) {
                    col_idx.push(c);
                    values.push(v);
                }
                row_ptr.push(col_idx.len());
                next = r + 1;
            }
        }
        CsrMatrix::new(self.nrows(), self.ncols(), row_ptr, col_idx, values)
            .expect("merged view of a valid base is valid")
    }

    /// Restrict the overlay to rows `[lo, hi)`: the result's base is
    /// the corresponding row block of this base (same column space),
    /// with the pending ops of those rows shifted down by `lo`. This is
    /// how shard-local repairs receive their slice of a global delta
    /// stream.
    pub fn sub_range(&self, lo: usize, hi: usize) -> DeltaCsr {
        assert!(lo <= hi && hi <= self.nrows(), "sub_range out of bounds");
        let base = self.base.row_block(lo, hi);
        let mut sub = DeltaCsr::new(base);
        for (&r, ops) in self.rows.range(lo as u32..hi as u32) {
            sub.rows.insert(r - lo as u32, ops.clone());
        }
        // Recompute the live count for the slice.
        sub.nnz = (0..sub.nrows()).map(|r| sub.row_len(r)).sum();
        sub
    }
}

/// Merged-row iterator: two-pointer merge of the base row and the
/// pending ops, both ascending in column.
pub struct MergedRow<'a> {
    base_cols: &'a [u32],
    base_vals: &'a [f32],
    deltas: &'a [(u32, DeltaOp)],
    bi: usize,
    di: usize,
}

impl Iterator for MergedRow<'_> {
    type Item = (u32, f32);

    fn next(&mut self) -> Option<(u32, f32)> {
        loop {
            let base_c = self.base_cols.get(self.bi).copied();
            let delta = self.deltas.get(self.di).copied();
            match (base_c, delta) {
                (None, None) => return None,
                (Some(c), None) => {
                    self.bi += 1;
                    return Some((c, self.base_vals[self.bi - 1]));
                }
                (None, Some((c, op))) => {
                    self.di += 1;
                    match op {
                        DeltaOp::Upsert(v) => return Some((c, v)),
                        DeltaOp::Delete => continue,
                    }
                }
                (Some(bc), Some((dc, op))) => {
                    if bc < dc {
                        self.bi += 1;
                        return Some((bc, self.base_vals[self.bi - 1]));
                    }
                    // An op on a base column consumes the base entry.
                    if bc == dc {
                        self.bi += 1;
                    }
                    self.di += 1;
                    match op {
                        DeltaOp::Upsert(v) => return Some((dc, v)),
                        DeltaOp::Delete => continue,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_matrix::gen;

    fn base() -> CsrMatrix {
        gen::uniform_random(64, 4.0, 7)
    }

    #[test]
    fn upsert_and_get_merge_over_the_base() {
        let m = base();
        let mut d = DeltaCsr::new(m.clone());
        assert!(d.is_clean());
        let created = d.upsert(5, 60, 2.5).unwrap();
        // Column 60 of a degree-4 row is almost surely absent; handle
        // both outcomes so the test is seed-robust.
        assert_eq!(created, m.row(5).0.binary_search(&60).is_err());
        assert_eq!(d.get(5, 60), Some(2.5));
        assert_eq!(d.nnz(), m.nnz() + usize::from(created));
        // Untouched edges read through to the base.
        let (cols, vals) = m.row(9);
        if !cols.is_empty() {
            assert_eq!(d.get(9, cols[0]), Some(vals[0]));
        }
    }

    #[test]
    fn delete_of_nonexistent_edge_is_a_refused_no_op() {
        let m = base();
        let mut d = DeltaCsr::new(m.clone());
        // A column outside every row's support.
        let c = (m.ncols() - 1) as u32;
        let absent = m.row(3).0.binary_search(&c).is_err();
        if absent {
            assert!(!d.delete(3, c));
            assert!(d.is_clean(), "refused delete leaves no pending op");
            assert_eq!(d.nnz(), m.nnz());
            assert_eq!(d.compact(), m);
        }
        // Out-of-bounds coordinates are refused, not panicking.
        assert!(!d.delete(u32::MAX, 0));
        assert!(!d.delete(0, u32::MAX));
        // Double delete of a real edge: second refusal.
        let (cols, _) = m.row(0);
        if !cols.is_empty() {
            assert!(d.delete(0, cols[0]));
            assert!(!d.delete(0, cols[0]));
            assert_eq!(d.nnz(), m.nnz() - 1);
        }
    }

    #[test]
    fn insert_then_delete_round_trips_to_identical_csr() {
        let m = base();
        let mut d = DeltaCsr::new(m.clone());
        let c = (m.ncols() - 2) as u32;
        let fresh: Vec<u32> = (0..8u32)
            .filter(|&r| m.row(r as usize).0.binary_search(&c).is_err())
            .collect();
        for &r in &fresh {
            assert!(d.upsert(r, c, -1.25).unwrap());
        }
        for &r in &fresh {
            assert!(d.delete(r, c));
        }
        assert!(d.is_clean(), "insert-then-delete nets out of the overlay");
        assert_eq!(d.nnz(), m.nnz());
        assert_eq!(d.compact(), m);
        // And the same for overwrite-then-restore of a base value.
        let (cols, vals) = m.row(2);
        if !cols.is_empty() {
            let (c0, v0) = (cols[0], vals[0]);
            d.upsert(2, c0, v0 + 1.0).unwrap();
            assert!(!d.is_clean());
            d.upsert(2, c0, v0).unwrap();
            assert!(d.is_clean(), "restoring the base bit pattern nets out");
        }
    }

    #[test]
    fn compact_matches_per_edge_reads_and_row_lens() {
        let m = base();
        let mut d = DeltaCsr::new(m.clone());
        for i in 0..40u32 {
            let r = (i * 7) % 64;
            let c = (i * 13) % 64;
            if i % 3 == 0 {
                d.delete(r, c);
            } else {
                d.upsert(r, c, i as f32 * 0.5 - 3.0).unwrap();
            }
        }
        let compacted = d.compact();
        assert_eq!(compacted.nnz(), d.nnz(), "incremental nnz is exact");
        for r in 0..64usize {
            assert_eq!(compacted.row_len(r), d.row_len(r), "row {r} len");
            let (cols, vals) = compacted.row(r);
            let merged: Vec<(u32, f32)> = d.row(r).collect();
            assert_eq!(merged.len(), cols.len());
            for (k, &(c, v)) in merged.iter().enumerate() {
                assert_eq!(c, cols[k]);
                assert_eq!(v.to_bits(), vals[k].to_bits());
                assert_eq!(d.get(r, c), Some(v));
            }
        }
    }

    #[test]
    fn non_finite_and_subnormal_values_splice_bit_exactly() {
        let m = base();
        let mut d = DeltaCsr::new(m);
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 2.0, // subnormal
            -0.0,
        ];
        for (i, &v) in specials.iter().enumerate() {
            d.upsert(i as u32, 62, v).unwrap();
        }
        let c = d.compact();
        for (i, &v) in specials.iter().enumerate() {
            let got = d.get(i, 62).unwrap();
            assert_eq!(got.to_bits(), v.to_bits(), "get splices bit-exactly");
            let (cols, vals) = c.row(i);
            let k = cols.binary_search(&62).unwrap();
            assert_eq!(vals[k].to_bits(), v.to_bits(), "compact preserves bits");
        }
    }

    #[test]
    fn sub_range_slices_base_and_ops() {
        let m = base();
        let mut d = DeltaCsr::new(m.clone());
        d.upsert(10, 2, 4.0).unwrap();
        d.upsert(30, 2, 5.0).unwrap();
        let (cols, _) = m.row(12);
        if !cols.is_empty() {
            d.delete(12, cols[0]);
        }
        let sub = d.sub_range(8, 24);
        assert_eq!(sub.nrows(), 16);
        assert_eq!(sub.ncols(), m.ncols());
        assert_eq!(sub.get(2, 2), Some(4.0), "row 10 shifted to 2");
        // The slice's compact equals the global compact's row block.
        let global = d.compact();
        assert_eq!(sub.compact(), global.row_block(8, 24));
        assert_eq!(sub.nnz(), sub.compact().nnz());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use spmm_matrix::gen;

    /// Edit scripts over a 48-row base: upserts (with occasional
    /// NaN/Inf/subnormal payloads) and deletes, applied both through
    /// the overlay and to a mirror BTreeMap oracle.
    fn check_against_oracle(seed: u64, script: Vec<(u8, u8, u8, u32)>) {
        let m = gen::uniform_random(48, 3.0, seed);
        let mut d = DeltaCsr::new(m.clone());
        let mut oracle: std::collections::BTreeMap<(u32, u32), f32> = (0..48)
            .flat_map(|r| {
                let (cols, vals) = m.row(r);
                cols.iter()
                    .zip(vals.iter())
                    .map(move |(&c, &v)| ((r as u32, c), v))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (op, r, c, vbits) in script {
            let (r, c) = ((r % 48) as u32, (c % 48) as u32);
            let v = match vbits % 5 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::MIN_POSITIVE / 4.0,
                _ => f32::from_bits(vbits),
            };
            if op % 3 == 0 {
                let existed = oracle.remove(&(r, c)).is_some();
                assert_eq!(d.delete(r, c), existed);
            } else {
                let created = oracle.insert((r, c), v).is_none();
                assert_eq!(d.upsert(r, c, v).unwrap(), created);
            }
        }
        assert_eq!(d.nnz(), oracle.len(), "incremental nnz tracks the oracle");
        let compacted = d.compact();
        assert_eq!(compacted.nnz(), oracle.len());
        for r in 0..48usize {
            let (cols, vals) = compacted.row(r);
            let expect: Vec<(u32, f32)> = oracle
                .range((r as u32, 0)..=(r as u32, u32::MAX))
                .map(|(&(_, c), &v)| (c, v))
                .collect();
            assert_eq!(cols.len(), expect.len(), "row {r} length");
            for (k, &(c, v)) in expect.iter().enumerate() {
                assert_eq!(cols[k], c, "row {r} col {k}");
                assert_eq!(
                    vals[k].to_bits(),
                    v.to_bits(),
                    "row {r} col {c} value bits (NaN-position-exact)"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn churn_matches_oracle(
            seed in 0u64..32,
            script in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), any::<u8>(), any::<u32>()),
                0..120,
            ),
        ) {
            check_against_oracle(seed, script);
        }
    }
}
