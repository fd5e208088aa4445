//! GNN integration — the paper's §6 goal of wiring the SpMM operator
//! into a graph-learning stack "for practical use in GNNs".
//!
//! Provides the pieces a GCN forward pass needs on top of [`AccSpmm`]:
//! symmetric normalization of the adjacency matrix
//! (`Â = D^{-1/2}(A + I)D^{-1/2}`), a [`GcnLayer`] computing
//! `H' = σ(Â · H · W)` with the aggregation running through the
//! tensor-core SpMM path, and a small multi-layer [`Gcn`] model.
//!
//! The SpMM's cost grows with the width of its dense operand, so each
//! layer multiplies by `Â` at the narrower of its two widths: a layer
//! that narrows (`out_dim < in_dim`) transforms first,
//! `σ(Â · (H · W))`, and any other layer aggregates first,
//! `σ((Â · H) · W)`. The two orders agree in exact arithmetic; in TF32
//! they round different operands (`H · W` or `H`).

use crate::handle::AccSpmm;
use spmm_common::{Result, SpmmError};
use spmm_dist::DistSpmm;
use spmm_kernels::KernelKind;
use spmm_matrix::{CsrMatrix, DenseMatrix};
use spmm_sim::Arch;

/// Symmetrically normalize an adjacency matrix:
/// `Â = D^{-1/2} (A + I) D^{-1/2}` with `D` the degree matrix of
/// `A + I` — the standard GCN propagation operator (Kipf & Welling).
pub fn gcn_normalize(a: &CsrMatrix) -> Result<CsrMatrix> {
    if a.nrows() != a.ncols() {
        return Err(SpmmError::Shape {
            context: format!("adjacency must be square, got {}x{}", a.nrows(), a.ncols()),
        });
    }
    let n = a.nrows();
    // A + I, one sorted row at a time: the unit diagonal is merged in
    // place, and an existing diagonal entry becomes `a_ii + 1`.
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::with_capacity(a.nnz() + n);
    let mut values = Vec::with_capacity(a.nnz() + n);
    let mut inv_sqrt_deg = vec![0.0f32; n];
    row_ptr.push(0);
    for (r, d) in inv_sqrt_deg.iter_mut().enumerate() {
        let (cols, vals) = a.row(r);
        let start = col_idx.len();
        let split = cols.partition_point(|&c| (c as usize) < r);
        col_idx.extend_from_slice(&cols[..split]);
        values.extend_from_slice(&vals[..split]);
        let rest = if cols.get(split) == Some(&(r as u32)) {
            values.push(vals[split] + 1.0);
            split + 1
        } else {
            values.push(1.0);
            split
        };
        col_idx.push(r as u32);
        col_idx.extend_from_slice(&cols[rest..]);
        values.extend_from_slice(&vals[rest..]);
        row_ptr.push(col_idx.len());
        // Degree of A + I: the row's |v| sum, in ascending column order.
        let deg: f32 = values[start..].iter().map(|v| v.abs()).sum();
        *d = if deg > 0.0 { deg.sqrt().recip() } else { 0.0 };
    }
    // Scale both sides.
    for r in 0..n {
        for k in row_ptr[r]..row_ptr[r + 1] {
            values[k] = values[k] * inv_sqrt_deg[r] * inv_sqrt_deg[col_idx[k] as usize];
        }
    }
    CsrMatrix::new(n, n, row_ptr, col_idx, values)
}

/// Activation functions for [`GcnLayer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// max(0, x).
    Relu,
    /// Identity (output layer).
    None,
}

impl Activation {
    fn apply(&self, h: &mut DenseMatrix) {
        if *self == Activation::Relu {
            for x in h.as_mut_slice() {
                *x = x.max(0.0);
            }
        }
    }
}

/// One GCN layer: `H' = σ(Â · H · W)`, with the product by `Â`
/// computed by the Acc-SpMM tensor-core path (preprocessed once) and
/// `· W` by a dense GEMM. A narrowing layer (`out_dim < in_dim`) runs
/// `σ(Â · (H · W))`, so its SpMM works at `out_dim`; any other layer
/// runs `σ((Â · H) · W)`, so its SpMM works at `in_dim`.
#[derive(Debug, Clone)]
pub struct GcnLayer {
    weight: DenseMatrix,
    activation: Activation,
}

impl GcnLayer {
    /// Create a layer with a deterministic Glorot-style random weight of
    /// shape `in_dim × out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, seed: u64) -> Self {
        let scale = (6.0f32 / (in_dim + out_dim) as f32).sqrt();
        let mut weight = DenseMatrix::random(in_dim, out_dim, seed);
        for x in weight.as_mut_slice() {
            *x *= scale;
        }
        GcnLayer { weight, activation }
    }

    /// Wrap an explicit weight matrix.
    pub fn with_weight(weight: DenseMatrix, activation: Activation) -> Self {
        GcnLayer { weight, activation }
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.ncols()
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.nrows()
    }

    /// Forward: `σ(Â · (H · W))` if the layer narrows, else
    /// `σ((Â · H) · W)`, with `Â` applied by `spmm`.
    pub fn forward(&self, spmm: &AccSpmm, h: &DenseMatrix) -> Result<DenseMatrix> {
        self.check_input(h)?;
        let mut out = if self.transforms_first() {
            spmm.multiply(&h.matmul(&self.weight)?)?
        } else {
            spmm.multiply(h)?.matmul(&self.weight)?
        };
        self.activation.apply(&mut out);
        Ok(out)
    }

    /// Whether `· W` runs before `Â ·`: only when it narrows the
    /// features the SpMM then multiplies.
    fn transforms_first(&self) -> bool {
        self.out_dim() < self.in_dim()
    }

    fn check_input(&self, h: &DenseMatrix) -> Result<()> {
        if h.ncols() != self.in_dim() {
            return Err(SpmmError::Shape {
                context: format!(
                    "layer expects {} input features, got {}",
                    self.in_dim(),
                    h.ncols()
                ),
            });
        }
        Ok(())
    }
}

/// A multi-layer GCN bound to one (normalized) graph.
#[derive(Debug, Clone)]
pub struct Gcn {
    spmm: AccSpmm,
    normalized: CsrMatrix,
    layers: Vec<GcnLayer>,
}

impl Gcn {
    /// Build a GCN over adjacency `a` with the given layer widths, e.g.
    /// `&[128, 64, 16]` = two layers 128→64→16. The adjacency is
    /// GCN-normalized and preprocessed once (reorder + BitTCF + balance).
    pub fn new(a: &CsrMatrix, widths: &[usize], arch: Arch, seed: u64) -> Result<Gcn> {
        if widths.len() < 2 {
            return Err(SpmmError::InvalidConfig(
                "need at least input and output widths".into(),
            ));
        }
        let normalized = gcn_normalize(a)?;
        // Preprocess for the widest feature dimension in play.
        let max_dim = *widths.iter().max().unwrap();
        let spmm = AccSpmm::builder(&normalized)
            .arch(arch)
            .feature_dim(max_dim)
            .build()?;
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == widths.len() {
                    Activation::None
                } else {
                    Activation::Relu
                };
                GcnLayer::new(w[0], w[1], act, seed ^ (i as u64) << 8)
            })
            .collect();
        Ok(Gcn {
            spmm,
            normalized,
            layers,
        })
    }

    /// Full forward pass.
    pub fn forward(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        let _span = spmm_trace::span("gcn.forward");
        spmm_trace::counter_add("gcn.layers_applied", self.layers.len() as u64);
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward(&self.spmm, &h)?;
        }
        Ok(h)
    }

    /// Shard this model's normalized adjacency across `shards` workers
    /// (see [`DistSpmm`]): same kernel kind, architecture, feature
    /// specialization, and ablation config as the single-node handle.
    /// The returned coordinator feeds [`Gcn::forward_sharded`].
    pub fn shard(&self, shards: usize) -> Result<DistSpmm> {
        let plan = self.spmm.prepared().execution_plan();
        DistSpmm::builder(KernelKind::AccSpmm, &self.normalized)
            .shards(shards)
            .arch(plan.arch())
            .feature_dim(plan.feature_dim())
            .config(*plan.config())
            .build()
    }

    /// [`Gcn::forward`] with the aggregation sharded across `dist`'s
    /// workers and **halo exchange** between layers: after each layer,
    /// the per-shard feature blocks stay on their shards and only the
    /// boundary rows other shards reference move — instead of
    /// re-gathering the full dense feature matrix every layer. The
    /// dense `· W` half of each layer is row-local, so it runs
    /// per-shard too, before the exchange for a narrowing layer (whose
    /// halo rows then carry `out_dim` features) and after it otherwise.
    /// Bit-identical to [`Gcn::forward`].
    pub fn forward_sharded(&self, dist: &DistSpmm, x: &DenseMatrix) -> Result<DenseMatrix> {
        let _span = spmm_trace::span("gcn.forward_sharded");
        spmm_trace::counter_add("gcn.layers_applied", self.layers.len() as u64);
        if dist.nrows() != self.normalized.nrows() || dist.ncols() != self.normalized.ncols() {
            return Err(SpmmError::Shape {
                context: format!(
                    "coordinator is over a {}x{} operand, model graph is {}x{}",
                    dist.nrows(),
                    dist.ncols(),
                    self.normalized.nrows(),
                    self.normalized.ncols()
                ),
            });
        }
        let mut parts = dist.split_rows(x)?;
        for layer in &self.layers {
            for part in &parts {
                if part.nrows() > 0 {
                    layer.check_input(part)?;
                }
            }
            let transform = |part: &DenseMatrix| part.matmul(&layer.weight);
            parts = if layer.transforms_first() {
                let transformed = parts.iter().map(transform).collect::<Result<Vec<_>>>()?;
                dist.propagate_halo(&transformed)?
            } else {
                let aggregated = dist.propagate_halo(&parts)?;
                aggregated.iter().map(transform).collect::<Result<_>>()?
            };
            for part in &mut parts {
                layer.activation.apply(part);
            }
        }
        dist.concat_rows(&parts)
    }

    /// The underlying SpMM handle (for profiling).
    pub fn spmm(&self) -> &AccSpmm {
        &self.spmm
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spmm_matrix::{gen, CooMatrix};

    /// Reference `gcn_normalize`: COO + I, `dedup_sum`, a CSR for the
    /// degrees, and a second COO for the scaled entries.
    fn gcn_normalize_oracle(a: &CsrMatrix) -> CsrMatrix {
        let n = a.nrows();
        let mut coo = a.to_coo();
        for i in 0..n as u32 {
            coo.push(i, i, 1.0);
        }
        coo.dedup_sum(false);
        let ai = CsrMatrix::from_coo(&coo);
        let mut inv_sqrt_deg = vec![0.0f32; n];
        for (r, d) in inv_sqrt_deg.iter_mut().enumerate() {
            let deg: f32 = ai.row(r).1.iter().map(|v| v.abs()).sum();
            *d = if deg > 0.0 { deg.sqrt().recip() } else { 0.0 };
        }
        let mut out = CooMatrix::new(n, n);
        for r in 0..n {
            let (cols, vals) = ai.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                out.push(r as u32, c, v * inv_sqrt_deg[r] * inv_sqrt_deg[c as usize]);
            }
        }
        CsrMatrix::from_coo(&out)
    }

    fn assert_bit_identical(got: &CsrMatrix, want: &CsrMatrix) {
        assert_eq!(got.row_ptr(), want.row_ptr());
        assert_eq!(got.col_idx(), want.col_idx());
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want));
    }

    /// Entry values that stress the degree sum and the scaling: signed
    /// zeros, infinities, NaN, `-1` (cancels the unit diagonal) and
    /// ordinary weights.
    const SPECIAL: [f32; 8] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -1.0,
        0.75,
        -2.5,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn one_pass_matches_coo_oracle(
            n in 1usize..24,
            entries in proptest::collection::vec((0u32..24, 0u32..24, 0u32..16, any::<f32>()), 0..120),
        ) {
            // Up to 120 draws over at most 24×24 cells: some rows stay
            // empty, and diagonal cells are drawn as often as any other.
            let mut coo = CooMatrix::new(n, n);
            for &(r, c, pick, raw) in &entries {
                let (r, c) = (r % n as u32, c % n as u32);
                let v = match pick {
                    0..=7 => SPECIAL[pick as usize],
                    8 => raw,
                    _ => 0.25 * pick as f32,
                };
                coo.push(r, c, v);
            }
            let a = CsrMatrix::from_coo(&coo);
            assert_bit_identical(&gcn_normalize(&a).unwrap(), &gcn_normalize_oracle(&a));
        }
    }

    #[test]
    fn one_pass_matches_coo_oracle_on_edge_rows() {
        // Row 0: explicit diagonal among neighbours. Row 1: empty, so an
        // isolated vertex of degree 1 after +I. Row 2: only `a_22 = -1`,
        // a zero |v| sum. Row 3: NaN. Row 4: ±Inf and -0.0.
        let mut coo = CooMatrix::new(6, 6);
        for (r, c, v) in [
            (0, 0, 2.0),
            (0, 3, 0.5),
            (0, 5, 1.5),
            (2, 2, -1.0),
            (3, 0, f32::NAN),
            (3, 4, 1.0),
            (4, 1, f32::INFINITY),
            (4, 4, -0.0),
            (4, 5, f32::NEG_INFINITY),
            (5, 0, 1.0),
        ] {
            coo.push(r, c, v);
        }
        let a = CsrMatrix::from_coo(&coo);
        let got = gcn_normalize(&a).unwrap();
        assert_bit_identical(&got, &gcn_normalize_oracle(&a));
        assert_eq!(got.row(1), (&[1u32][..], &[1.0f32][..]));
        assert_eq!(got.row(2).1, &[0.0f32][..]);
        assert_bit_identical(
            &gcn_normalize(&graph()).unwrap(),
            &gcn_normalize_oracle(&graph()),
        );
    }

    fn graph() -> CsrMatrix {
        gen::uniform_random(256, 6.0, 5)
    }

    #[test]
    fn normalization_rows_are_bounded() {
        let a = graph();
        let n = gcn_normalize(&a).unwrap();
        // Â is symmetric with spectral radius <= 1: every entry in (0, 1]
        // and the diagonal is populated.
        for r in 0..n.nrows() {
            let (cols, vals) = n.row(r);
            assert!(cols.contains(&(r as u32)), "self loop at {r}");
            for &v in vals {
                assert!(v > 0.0 && v <= 1.0 + 1e-6, "entry {v}");
            }
        }
        // Isolated vertices (if any) keep a unit self loop.
        let row_sums: Vec<f32> = (0..n.nrows())
            .map(|r| n.row(r).1.iter().sum::<f32>())
            .collect();
        assert!(row_sums.iter().all(|&s| s <= (n.nrows() as f32).sqrt()));
    }

    #[test]
    fn normalized_spmm_preserves_constant_vector_scale() {
        // For a regular graph, Â · 1 = 1. Our graph isn't regular, but
        // row sums of Â stay in (0, sqrt(max_deg)] — sanity of scaling.
        let a = graph();
        let n = gcn_normalize(&a).unwrap();
        let ones = DenseMatrix::from_fn(n.nrows(), 1, |_, _| 1.0);
        let prod = n.spmm_dense(&ones).unwrap();
        for r in 0..n.nrows() {
            assert!(prod.get(r, 0) > 0.0);
        }
    }

    #[test]
    fn layer_forward_shapes_and_activation() {
        let a = graph();
        let normalized = gcn_normalize(&a).unwrap();
        let spmm = AccSpmm::builder(&normalized)
            .arch(Arch::A800)
            .feature_dim(32)
            .build()
            .unwrap();
        let layer = GcnLayer::new(32, 8, Activation::Relu, 1);
        let x = DenseMatrix::random(a.nrows(), 32, 2);
        let h = layer.forward(&spmm, &x).unwrap();
        assert_eq!(h.nrows(), a.nrows());
        assert_eq!(h.ncols(), 8);
        assert!(h.as_slice().iter().all(|&v| v >= 0.0), "ReLU output");
        // Wrong input width is rejected.
        let bad = DenseMatrix::random(a.nrows(), 16, 3);
        assert!(layer.forward(&spmm, &bad).is_err());
    }

    #[test]
    fn two_layer_model_runs_end_to_end() {
        let a = graph();
        let gcn = Gcn::new(&a, &[32, 16, 4], Arch::H100, 9).unwrap();
        assert_eq!(gcn.num_layers(), 2);
        let x = DenseMatrix::random(a.nrows(), 32, 4);
        let out = gcn.forward(&x).unwrap();
        assert_eq!(out.ncols(), 4);
        assert!(out.frobenius_norm().is_finite());
        // Output layer has no ReLU: negatives must be possible.
        assert!(out.as_slice().iter().any(|&v| v < 0.0));
        // Profiling the underlying handle works.
        assert!(gcn.spmm().profile_default().gflops > 0.0);
    }

    /// Layer widths covering both layer orders: two narrowing layers
    /// (transform first), and a widening layer (aggregate first) before
    /// a narrowing one.
    const WIDTH_LISTS: [[usize; 3]; 2] = [[16, 8, 4], [8, 16, 4]];

    #[test]
    fn sharded_forward_is_bit_identical_to_forward() {
        let a = graph();
        for widths in WIDTH_LISTS {
            let gcn = Gcn::new(&a, &widths, Arch::A800, 11).unwrap();
            let x = DenseMatrix::random(a.nrows(), widths[0], 6);
            let expect = gcn.forward(&x).unwrap();
            for shards in [1, 3, 4] {
                let dist = gcn.shard(shards).unwrap();
                let got = gcn.forward_sharded(&dist, &x).unwrap();
                assert_eq!(
                    got.as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    expect
                        .as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    "{widths:?} x{shards}"
                );
                // Layer-to-layer halo exchange moved fewer rows than a
                // full re-gather would have.
                let (halo, regather) = dist.halo_traffic_rows();
                if shards > 1 {
                    assert!(halo < regather, "halo {halo} vs regather {regather}");
                }
            }
        }
    }

    #[test]
    fn sharded_forward_stays_bit_identical_under_graph_churn() {
        for widths in WIDTH_LISTS {
            sharded_forward_under_churn(&widths);
        }
    }

    fn sharded_forward_under_churn(widths: &[usize]) {
        let a = graph();
        let gcn = Gcn::new(&a, widths, Arch::A800, 11).unwrap();
        let mut dist = gcn.shard(4).unwrap();
        // Churn the normalized operator shard-locally: new cross-shard
        // boundary edges, plus a deleted base edge.
        let normalized = gcn_normalize(&a).unwrap();
        let mut delta = spmm_delta::DeltaCsr::new(normalized.clone());
        delta.upsert(3, 200, 0.25).unwrap();
        delta.upsert(210, 1, 0.125).unwrap();
        let r = 17usize;
        let c = normalized.col_idx()[normalized.row_ptr()[r]];
        assert!(delta.delete(r as u32, c), "normalized rows are non-empty");
        let report = dist.apply_delta(&delta).unwrap();
        assert!(report.shards_repaired >= 1, "churn crossed shard ranges");

        // Expected: the same model over a scratch coordinator built on
        // the compacted operator.
        let compacted = delta.compact();
        let plan = gcn.spmm().prepared().execution_plan();
        let scratch = DistSpmm::builder(KernelKind::AccSpmm, &compacted)
            .shards(4)
            .arch(plan.arch())
            .feature_dim(plan.feature_dim())
            .config(*plan.config())
            .build()
            .unwrap();
        let x = DenseMatrix::random(a.nrows(), widths[0], 6);
        let got = gcn.forward_sharded(&dist, &x).unwrap();
        let expect = gcn.forward_sharded(&scratch, &x).unwrap();
        assert_eq!(
            got.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            expect
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "{widths:?}"
        );
    }

    /// `σ(Â · H · W)` layer by layer in f64, from the model's own
    /// normalized graph and weights: the order-free reference both layer
    /// orders must approximate.
    fn forward_f64(gcn: &Gcn, x: &DenseMatrix) -> Vec<f64> {
        let a = &gcn.normalized;
        let mut h: Vec<f64> = x.as_slice().iter().map(|&v| v as f64).collect();
        for layer in &gcn.layers {
            let (din, dout) = (layer.in_dim(), layer.out_dim());
            let mut agg = vec![0.0f64; a.nrows() * din];
            for r in 0..a.nrows() {
                let (cols, vals) = a.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    for j in 0..din {
                        agg[r * din + j] += v as f64 * h[c as usize * din + j];
                    }
                }
            }
            h = vec![0.0f64; a.nrows() * dout];
            for r in 0..a.nrows() {
                for k in 0..din {
                    let w = layer.weight.row(k);
                    for j in 0..dout {
                        h[r * dout + j] += agg[r * din + k] * w[j] as f64;
                    }
                }
            }
            if layer.activation == Activation::Relu {
                h.iter_mut().for_each(|v| *v = v.max(0.0));
            }
        }
        h
    }

    #[test]
    fn forward_matches_an_f64_reference_in_either_layer_order() {
        let a = graph();
        for widths in WIDTH_LISTS {
            let gcn = Gcn::new(&a, &widths, Arch::A800, 13).unwrap();
            let x = DenseMatrix::random(a.nrows(), widths[0], 14);
            let got = gcn.forward(&x).unwrap();
            let want = forward_f64(&gcn, &x);
            // TF32 operand rounding, grown with the longest sum into
            // one output element: a row of Â or a row of W.
            let max_row = (0..a.nrows()).map(|r| gcn.normalized.row_len(r)).max();
            let reduction = max_row.unwrap_or(0).max(widths[0]).max(widths[1]);
            let tol = spmm_common::scalar::tf32_tolerance(reduction) as f64;
            for (i, (&g, &w)) in got.as_slice().iter().zip(&want).enumerate() {
                let err = (g as f64 - w).abs();
                assert!(
                    err <= tol * (1.0 + w.abs()),
                    "{widths:?} elem {i}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn forward_matches_reference_pipeline() {
        // spmm-path forward == dense-reference forward within TF32 tol.
        let a = graph();
        let normalized = gcn_normalize(&a).unwrap();
        let spmm = AccSpmm::builder(&normalized)
            .arch(Arch::A800)
            .feature_dim(16)
            .build()
            .unwrap();
        let w = DenseMatrix::random(16, 8, 7);
        let layer = GcnLayer::with_weight(w.clone(), Activation::None);
        let x = DenseMatrix::random(a.nrows(), 16, 8);
        let got = layer.forward(&spmm, &x).unwrap();
        let expect = normalized.spmm_dense(&x).unwrap().matmul(&w).unwrap();
        let tol = spmm_common::scalar::tf32_tolerance(a.nrows()) * 4.0;
        assert!(
            got.approx_eq(&expect, tol, tol),
            "max diff {}",
            got.max_abs_diff(&expect)
        );
    }
}
