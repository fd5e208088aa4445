//! The library handle: preprocess once, execute/profile many times.

use spmm_common::Result;
use spmm_kernels::{AccConfig, KernelKind, PreparedKernel, Workspace};
use spmm_matrix::{CsrMatrix, DenseMatrix};
use spmm_sim::{Arch, KernelReport, SimOptions};
use std::sync::OnceLock;

/// Statistics gathered during preprocessing — the quantities the paper's
/// detailed evaluation reports (MeanNNZTC, IBD, block counts, format
/// footprint, preprocessing wall time).
///
/// `#[non_exhaustive]`: the struct keeps growing (cache/engine serving
/// stats are natural next fields), so downstream code constructs it via
/// the library and reads fields rather than destructuring exhaustively.
/// Deliberately `Clone` and **not** `Copy` so adding heap-backed fields
/// later is not a breaking change.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PreprocessStats {
    /// Rows of the operand.
    pub nrows: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Average nnz per row (`AvgL`).
    pub avg_l: f64,
    /// TC blocks after reordering and squeezing.
    pub num_tc_blocks: usize,
    /// RowWindows.
    pub num_windows: usize,
    /// Mean nnz per TC block after reordering.
    pub mean_nnz_tc: f64,
    /// IBD imbalance of the blocks-per-window distribution (Eq. 3).
    pub ibd: f64,
    /// Whether the adaptive balancer decided to rebalance.
    pub balanced: bool,
    /// BitTCF index-structure footprint in bytes.
    pub bittcf_bytes: usize,
    /// Preprocessing wall time: the host build plus the model build
    /// (reorder + conversion + planning + compile).
    pub preprocess_seconds: f64,
}

/// An Acc-SpMM instance bound to one sparse matrix, one architecture and
/// one feature dimension.
///
/// Mirrors the amortized-preprocessing usage of the paper: GNN training
/// multiplies the same adjacency matrix against thousands of feature
/// matrices, so reordering + conversion happen once.
#[derive(Debug, Clone)]
pub struct AccSpmm {
    prepared: PreparedKernel,
    arch: Arch,
    stats: OnceLock<PreprocessStats>,
}

/// Builder for [`AccSpmm`] — the single construction path for the
/// library handle.
///
/// Defaults: [`Arch::A800`], feature dimension 128, [`AccConfig::full`].
///
/// ```
/// use acc_spmm::prelude::*;
/// use acc_spmm::matrix::gen;
///
/// let a = gen::uniform_random(256, 6.0, 1);
/// let h = AccSpmm::builder(&a)
///     .arch(Arch::H100)
///     .feature_dim(64)
///     .build()
///     .unwrap();
/// assert_eq!(h.arch(), Arch::H100);
/// ```
#[derive(Debug, Clone)]
pub struct SpmmBuilder<'a> {
    a: &'a CsrMatrix,
    arch: Arch,
    feature_dim: usize,
    config: AccConfig,
}

impl<'a> SpmmBuilder<'a> {
    /// Target architecture for planning and profiling.
    pub fn arch(mut self, arch: Arch) -> Self {
        self.arch = arch;
        self
    }

    /// Feature dimension (columns of B) the plan is specialized for.
    pub fn feature_dim(mut self, n: usize) -> Self {
        self.feature_dim = n;
        self
    }

    /// Explicit (e.g. ablation) Acc-SpMM configuration.
    pub fn config(mut self, config: AccConfig) -> Self {
        self.config = config;
        self
    }

    /// Build the plan's host part and return the reusable handle; the
    /// model part (reorder → BitTCF → balance → compile) waits for the
    /// first [`AccSpmm::profile`] or [`AccSpmm::stats`].
    pub fn build(self) -> Result<AccSpmm> {
        let prepared = PreparedKernel::builder(KernelKind::AccSpmm, self.a)
            .arch(self.arch)
            .feature_dim(self.feature_dim)
            .config(self.config)
            .build()?;
        Ok(AccSpmm {
            prepared,
            arch: self.arch,
            stats: OnceLock::new(),
        })
    }
}

impl AccSpmm {
    /// Start building a handle over operand `a`.
    pub fn builder(a: &CsrMatrix) -> SpmmBuilder<'_> {
        SpmmBuilder {
            a,
            arch: Arch::A800,
            feature_dim: 128,
            config: AccConfig::full(),
        }
    }

    /// Functional SpMM: `C = A × B` in original row order, TF32
    /// tensor-core numerics.
    pub fn multiply(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        self.prepared.execute(b)
    }

    /// [`AccSpmm::multiply`] into a caller-provided output using a
    /// reusable [`Workspace`], so steady-state multiplies (solver
    /// iterations, GNN training epochs) allocate nothing.
    pub fn multiply_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        self.prepared.execute_into(b, out, ws)
    }

    /// Multiply many RHS matrices against the shared preprocessed
    /// operand, parallelizing across the batch. Results are
    /// bit-identical to calling [`AccSpmm::multiply`] on each RHS.
    pub fn multiply_batch(&self, bs: &[DenseMatrix]) -> Result<Vec<DenseMatrix>> {
        self.prepared.execute_batch(bs)
    }

    /// A workspace pre-sized for this handle's feature dimension.
    pub fn workspace(&self) -> Workspace {
        Workspace::for_plan(self.prepared.execution_plan())
    }

    /// Simulate the kernel on this handle's architecture.
    pub fn profile(&self, opts: &SimOptions) -> KernelReport {
        self.prepared.profile(self.arch, opts)
    }

    /// [`AccSpmm::profile`] with default simulator options.
    pub fn profile_default(&self) -> KernelReport {
        self.profile(&SimOptions::default())
    }

    /// Preprocessing statistics, read from the plan's model (built on
    /// the first call).
    pub fn stats(&self) -> &PreprocessStats {
        self.stats.get_or_init(|| {
            let plan = self.prepared.execution_plan();
            let model = plan.model();
            let csr = plan.csr();
            let wp = model
                .partition()
                .expect("Acc kernel always builds a window partition");
            let balance = model.balance().expect("Acc kernel always has a plan");
            PreprocessStats {
                nrows: csr.nrows(),
                nnz: csr.nnz(),
                avg_l: csr.avg_row_len(),
                num_tc_blocks: wp.num_tc_blocks(),
                num_windows: wp.num_windows(),
                mean_nnz_tc: wp.mean_nnz_tc(),
                ibd: balance.ibd,
                balanced: balance.applied,
                bittcf_bytes: wp.bittcf_index_bytes(),
                preprocess_seconds: plan.preprocess_seconds() + model.build_seconds(),
            }
        })
    }

    /// The architecture this handle targets.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// The underlying prepared kernel (for advanced inspection).
    pub fn prepared(&self) -> &PreparedKernel {
        &self.prepared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_common::scalar::tf32_tolerance;
    use spmm_matrix::gen::{clustered, molecule_union, ClusteredConfig};

    #[test]
    fn multiply_matches_reference() {
        let a = molecule_union(400, 6, 14, true, 1);
        let b = DenseMatrix::random(a.nrows(), 16, 2);
        let h = AccSpmm::builder(&a)
            .arch(Arch::H100)
            .feature_dim(16)
            .build()
            .unwrap();
        let c = h.multiply(&b).unwrap();
        let reference = a.spmm_dense(&b).unwrap();
        let tol = tf32_tolerance(a.nrows());
        assert!(c.approx_eq(&reference, tol, tol));
    }

    #[test]
    fn stats_are_coherent() {
        let a = molecule_union(1024, 6, 16, true, 3);
        let h = AccSpmm::builder(&a)
            .arch(Arch::A800)
            .feature_dim(128)
            .build()
            .unwrap();
        let s = h.stats();
        assert_eq!(s.nnz, a.nnz());
        assert_eq!(s.num_windows, a.nrows().div_ceil(8));
        assert!(s.mean_nnz_tc > 0.0 && s.mean_nnz_tc <= 64.0);
        assert!((s.mean_nnz_tc - s.nnz as f64 / s.num_tc_blocks as f64).abs() < 1e-9);
        assert!(s.preprocess_seconds >= 0.0);
        assert!(s.bittcf_bytes > 0);
    }

    #[test]
    fn balanced_flag_tracks_skew() {
        // Uniform molecules: no balancing. Hubby cluster graph: balanced.
        let a = molecule_union(1024, 6, 14, false, 4);
        let h = AccSpmm::builder(&a)
            .arch(Arch::A800)
            .feature_dim(128)
            .build()
            .unwrap();
        assert!(!h.stats().balanced, "IBD {} should be low", h.stats().ibd);

        let skew = clustered(
            ClusteredConfig {
                n: 1024,
                cluster_size: 128,
                intra_deg: 60.0,
                inter_deg: 20.0,
                hub_fraction: 0.05,
                hub_factor: 10.0,
                shuffle: true,
                ..Default::default()
            },
            5,
        );
        let h = AccSpmm::builder(&skew)
            .arch(Arch::A800)
            .feature_dim(128)
            .build()
            .unwrap();
        assert!(h.stats().ibd > 0.0);
    }

    #[test]
    fn profile_reports_positive_throughput() {
        let a = molecule_union(512, 6, 14, true, 6);
        let h = AccSpmm::builder(&a)
            .arch(Arch::Rtx4090)
            .feature_dim(128)
            .build()
            .unwrap();
        let r = h.profile_default();
        assert!(r.time_s > 0.0);
        assert!(r.gflops > 0.0);
        assert!(r.num_tbs > 0);
    }
}
