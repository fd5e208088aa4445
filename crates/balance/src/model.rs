//! The Equation (4) performance model.
//!
//! `T = LoadDenseTime + MMATime + WBTime` for one thread block processing
//! `TcBlockPerTB` TC blocks, with the write-back term — the novelty over
//! DTC-SpMM's model — charged at the same bandwidth cost as the dense
//! loads. After the operand swap the MMA shape constants are `M = 8`,
//! `K = 8`, `N = 16`.

/// Architecture numbers the model needs.
#[derive(Debug, Clone, Copy)]
pub struct ModelParams {
    /// Dense-B feature dimension.
    pub feature_dim: usize,
    /// Theoretical memory bandwidth (bytes/s).
    pub bandwidth: f64,
    /// Theoretical TF32 tensor-core FLOPS.
    pub flops: f64,
    /// SMs available (for makespan estimation).
    pub num_sms: usize,
}

/// MMA shape after the left/right swap (§3.4): 8×8 sparse tile times
/// 8×16 dense tile.
pub const M: usize = 8;
/// Reduction dimension of the swapped MMA.
pub const K: usize = 8;
/// Free dimension of the swapped MMA.
pub const N: usize = 16;

/// Evaluator for Equation (4).
#[derive(Debug, Clone, Copy)]
pub struct PerfModel {
    params: ModelParams,
}

impl PerfModel {
    /// Build a model for the given architecture parameters.
    pub fn new(params: ModelParams) -> Self {
        assert!(params.bandwidth > 0.0 && params.flops > 0.0);
        PerfModel { params }
    }

    /// Dense-load term: `K × FeatureDim × TcBlockPerTB / Bandwidth`
    /// (bytes: ×4 for f32).
    pub fn load_dense_time(&self, tc_blocks_per_tb: usize) -> f64 {
        (K * self.params.feature_dim * tc_blocks_per_tb * 4) as f64 / self.params.bandwidth
    }

    /// MMA term per TB: `M × (2K−1) × FeatureDim / FLOPS` per TC block.
    pub fn mma_time(&self, tc_blocks_per_tb: usize) -> f64 {
        (M * (2 * K - 1) * self.params.feature_dim * tc_blocks_per_tb) as f64 / self.params.flops
    }

    /// Write-back term (the model's addition over DTC-SpMM): one window
    /// span of C written per segment, charged like a dense load.
    pub fn wb_time(&self, segments: usize) -> f64 {
        (K * self.params.feature_dim * segments * 4) as f64 / self.params.bandwidth
    }

    /// Total Equation-(4) time for a TB with `tc_blocks_per_tb` blocks
    /// spanning `segments` RowWindows.
    pub fn tb_time(&self, tc_blocks_per_tb: usize, segments: usize) -> f64 {
        self.load_dense_time(tc_blocks_per_tb)
            + self.mma_time(tc_blocks_per_tb)
            + self.wb_time(segments)
    }

    /// Estimated kernel makespan if `total_blocks` are split into chunks
    /// of `chunk` blocks (each chunk ≈ `1 + (chunk-1)/avg_window` extra
    /// segments; the caller provides the mean blocks per window to price
    /// cross-window write-backs).
    pub fn makespan_for_chunk(
        &self,
        total_blocks: usize,
        chunk: usize,
        mean_blocks_per_window: f64,
    ) -> f64 {
        if total_blocks == 0 {
            return 0.0;
        }
        let chunk = chunk.max(1);
        let num_tbs = total_blocks.div_ceil(chunk);
        // A chunk of `chunk` blocks crosses ~chunk/mean windows.
        let segs = (1.0 + chunk as f64 / mean_blocks_per_window.max(1.0)).ceil() as usize;
        let tb_time = self.tb_time(chunk, segs);
        let waves = num_tbs.div_ceil(self.params.num_sms);
        waves as f64 * tb_time
    }

    /// Architecture parameters.
    pub fn params(&self) -> ModelParams {
        self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a800_model(n: usize) -> PerfModel {
        PerfModel::new(ModelParams {
            feature_dim: n,
            bandwidth: 1935.0e9,
            flops: 156.0e12,
            num_sms: 108,
        })
    }

    #[test]
    fn terms_scale_linearly_with_blocks() {
        let m = a800_model(128);
        assert!((m.load_dense_time(10) - 10.0 * m.load_dense_time(1)).abs() < 1e-18);
        assert!((m.mma_time(10) - 10.0 * m.mma_time(1)).abs() < 1e-18);
    }

    #[test]
    fn memory_terms_dominate_mma() {
        // SpMM is memory-bound: per block, load time >> mma time.
        let m = a800_model(128);
        assert!(m.load_dense_time(1) > m.mma_time(1));
    }

    #[test]
    fn wb_term_penalizes_extra_segments() {
        let m = a800_model(128);
        assert!(m.tb_time(8, 3) > m.tb_time(8, 1));
    }

    #[test]
    fn makespan_prefers_moderate_chunks() {
        // 10k blocks on 108 SMs: chunk 1 wastes waves on wb overhead,
        // chunk 10k serializes; an intermediate chunk must win.
        let m = a800_model(128);
        let t1 = m.makespan_for_chunk(10_000, 1, 20.0);
        let t32 = m.makespan_for_chunk(10_000, 32, 20.0);
        let tall = m.makespan_for_chunk(10_000, 10_000, 20.0);
        assert!(t32 < t1, "chunk 32 {t32} vs chunk 1 {t1}");
        assert!(t32 < tall, "chunk 32 {t32} vs serial {tall}");
    }

    #[test]
    fn empty_work_is_free() {
        assert_eq!(a800_model(128).makespan_for_chunk(0, 4, 2.0), 0.0);
    }
}
