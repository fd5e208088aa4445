//! Trace builders for the tensor-core kernels (TC-GNN, DTC-SpMM,
//! Acc-SpMM).
//!
//! All three share the TC-block structure (identical RowWindow squeezing)
//! but differ in bytes-per-block (format), decode cost, pipeline, cache
//! policy, and TB assignment (balance plan):
//!
//! | | A bytes / block | decode ops | pipeline | policy |
//! |---|---|---|---|---|
//! | TC-GNN | 16·nnz + 8 | 64 + 2·nnz | synchronous | default |
//! | DTC-SpMM | 6·nnz + 36 | 64 + nnz | Fig 5a | default |
//! | Acc-SpMM | 4·nnz + 44 | 64 | Fig 5b | `.ca`/`.ca`/`.wt` |

use crate::acc::AccConfig;
use crate::TcFormat;
use spmm_balance::BalancePlan;
use spmm_format::{BlockCodec, TcMatrix, Tcf, TILE};
use spmm_sim::{BlockTrace, CachePolicy, KernelDesc, PipelineKind, TbTrace};

/// Achieved bandwidth fractions of the TC implementations.
pub const TCGNN_MEM_EFF: f64 = 0.72;
/// DTC-SpMM with cp.async staging.
pub const DTC_MEM_EFF: f64 = 0.85;
/// Acc-SpMM with cp.async + aligned 128-bit accesses.
pub const ACC_MEM_EFF: f64 = 0.88;

/// Per-block info each TC format exposes to the trace builder.
pub(crate) struct BlockInfo {
    pub cols: Vec<u32>,
    pub nnz: u32,
}

/// Format-specific per-block costs.
#[derive(Debug, Clone, Copy)]
enum FormatCost {
    Tcf,
    MeTcf,
    BitTcf,
}

impl FormatCost {
    fn a_bytes(&self, nnz: u32) -> u32 {
        match self {
            // edgeList + edgeToColumn + edgeToRow + value per nnz, plus
            // the window-pointer share.
            FormatCost::Tcf => 16 * nnz + 8,
            // value + int8 local id per nnz, SparseAToB + TCOffset. The
            // id bytes cost 2× their size in effective traffic: byte
            // loads are sector-padded and uncoalesced on real hardware
            // (the inefficiency BitTCF's single u64 bitmap removes).
            FormatCost::MeTcf => 6 * nnz + 36,
            // value per nnz, u64 bitmap + SparseAToB + TCOffset.
            FormatCost::BitTcf => 4 * nnz + 44,
        }
    }

    fn decode_ops(&self, nnz: u32) -> u32 {
        match self {
            // Build the dense tile from edge arrays: zero-fill + two
            // lookups per nnz.
            FormatCost::Tcf => 64 + 2 * nnz,
            // Zero-fill + one scatter per nnz.
            FormatCost::MeTcf => 64 + nnz,
            // One branch-free popcount per position.
            FormatCost::BitTcf => 64,
        }
    }
}

fn strip_pad(cols: &[u32]) -> Vec<u32> {
    cols.iter().copied().filter(|&c| c != u32::MAX).collect()
}

fn tc_matrix_blocks<C: BlockCodec>(f: &TcMatrix<C>) -> Vec<BlockInfo> {
    (0..f.num_tc_blocks())
        .map(|b| BlockInfo {
            cols: strip_pad(f.block_cols(b)),
            nnz: f.block_nnz(b) as u32,
        })
        .collect()
}

fn tcf_blocks(f: &Tcf) -> Vec<BlockInfo> {
    let mut out = Vec::with_capacity(f.num_tc_blocks());
    for w in 0..f.num_windows() {
        let nblocks = f.blocks_per_window[w] as usize;
        let mut cols: Vec<Vec<u32>> = vec![Vec::new(); nblocks];
        let mut nnz = vec![0u32; nblocks];
        for k in f.window_nnz_offset[w] as usize..f.window_nnz_offset[w + 1] as usize {
            let pos = f.edge_to_column[k] as usize;
            let b = pos / TILE;
            nnz[b] += 1;
            let c = f.edge_list[k];
            if !cols[b].contains(&c) {
                cols[b].push(c);
            }
        }
        for b in 0..nblocks {
            cols[b].sort_unstable();
            out.push(BlockInfo {
                cols: std::mem::take(&mut cols[b]),
                nnz: nnz[b],
            });
        }
    }
    out
}

/// Rows a window writes back (the final window may be ragged).
fn window_rows(nrows: usize, w: usize) -> u32 {
    (nrows - (w * TILE).min(nrows)).min(TILE) as u32
}

/// The thread-block traces of `plan`; each block's B rows move out of
/// `infos` into the one block trace that schedules it.
fn build_tbs(
    infos: &mut [BlockInfo],
    plan: &BalancePlan,
    nrows: usize,
    feature_dim: usize,
    cost: FormatCost,
) -> Vec<TbTrace> {
    let dense_flops_per_block = 2 * (TILE * TILE * feature_dim) as u64;
    plan.tbs
        .iter()
        .map(|tb| {
            let mut blocks = Vec::with_capacity(tb.num_blocks());
            let mut c_rows = 0u32;
            for seg in &tb.segments {
                c_rows += window_rows(nrows, seg.window as usize);
                for blk in seg.block_start..seg.block_end {
                    let info = &mut infos[blk as usize];
                    blocks.push(BlockTrace {
                        b_rows: std::mem::take(&mut info.cols),
                        a_bytes: cost.a_bytes(info.nnz),
                        flops: dense_flops_per_block,
                        decode_ops: cost.decode_ops(info.nnz),
                    });
                }
            }
            TbTrace {
                blocks,
                c_rows,
                segments: tb.segments.len() as u32,
            }
        })
        .collect()
}

/// The trace every TC kernel shares: the format's blocks scheduled by
/// `plan`, run with the kernel's pipeline, cache policy and achieved
/// bandwidth fraction.
fn tc_desc(
    format: &TcFormat,
    plan: &BalancePlan,
    feature_dim: usize,
    pipeline: PipelineKind,
    policy: CachePolicy,
    mem_efficiency: f64,
) -> KernelDesc {
    let (mut infos, cost) = match format {
        TcFormat::BitTcf(f) => (tc_matrix_blocks(f), FormatCost::BitTcf),
        TcFormat::MeTcf(f) => (tc_matrix_blocks(f), FormatCost::MeTcf),
        TcFormat::Tcf(f) => (tcf_blocks(f), FormatCost::Tcf),
    };
    let nnz: u64 = infos.iter().map(|b| b.nnz as u64).sum();
    KernelDesc {
        tbs: build_tbs(&mut infos, plan, format.dims().0, feature_dim, cost),
        pipeline,
        policy,
        mem_efficiency,
        use_tensor_cores: true,
        feature_dim,
        effective_flops: 2 * nnz * feature_dim as u64,
        arch_boost: 1.0,
        // Placeholder; the plan compile stage stamps the resolved tier.
        isa_tier: spmm_common::IsaTier::Scalar,
    }
}

/// TC-GNN trace (over TCF): one TB per window, synchronous pipeline,
/// default cache behaviour.
pub fn tcgnn_trace(format: &TcFormat, plan: &BalancePlan, feature_dim: usize) -> KernelDesc {
    let (pipeline, policy) = (PipelineKind::TcgnnSync, CachePolicy::hardware_default());
    tc_desc(format, plan, feature_dim, pipeline, policy, TCGNN_MEM_EFF)
}

/// DTC-SpMM trace (over ME-TCF): DTC double-buffer pipeline, DTC
/// balancing.
pub fn dtc_trace(format: &TcFormat, plan: &BalancePlan, feature_dim: usize) -> KernelDesc {
    let (pipeline, policy) = (
        PipelineKind::DtcDoubleBuffer,
        CachePolicy::hardware_default(),
    );
    tc_desc(format, plan, feature_dim, pipeline, policy, DTC_MEM_EFF)
}

/// Acc-SpMM trace, honouring the ablation configuration.
pub fn acc_trace(
    format: &TcFormat,
    plan: &BalancePlan,
    feature_dim: usize,
    config: &AccConfig,
) -> KernelDesc {
    let pipeline = if config.acc_pipeline {
        PipelineKind::AccLeastBubble
    } else {
        PipelineKind::DtcDoubleBuffer
    };
    let (policy, mem_efficiency) = if config.cache_policy {
        (CachePolicy::acc_policy(), ACC_MEM_EFF)
    } else {
        (CachePolicy::hardware_default(), DTC_MEM_EFF)
    };
    tc_desc(format, plan, feature_dim, pipeline, policy, mem_efficiency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_balance::{plan as make_plan, BalanceStrategy, ModelParams, PerfModel};
    use spmm_format::{BitTcf, MeTcf};
    use spmm_matrix::gen::uniform_random;

    fn model(n: usize) -> PerfModel {
        PerfModel::new(ModelParams {
            feature_dim: n,
            bandwidth: 1935e9,
            flops: 156e12,
            num_sms: 108,
        })
    }

    #[test]
    fn all_formats_agree_on_block_infos() {
        let m = uniform_random(256, 8.0, 1);
        let bit = tc_matrix_blocks(&BitTcf::from_csr(&m));
        let me = tc_matrix_blocks(&MeTcf::from_csr(&m));
        let tcf = tcf_blocks(&Tcf::from_csr(&m));
        assert_eq!(bit.len(), me.len());
        assert_eq!(bit.len(), tcf.len());
        for i in 0..bit.len() {
            assert_eq!(bit[i].nnz, me[i].nnz, "block {i}");
            assert_eq!(bit[i].nnz, tcf[i].nnz, "block {i}");
            assert_eq!(bit[i].cols, me[i].cols, "block {i}");
            assert_eq!(bit[i].cols, tcf[i].cols, "block {i}");
        }
    }

    #[test]
    fn format_cost_ordering_on_dense_blocks() {
        // At 16 nnz per block, BitTCF must be the cheapest stream.
        let nnz = 16u32;
        assert!(FormatCost::BitTcf.a_bytes(nnz) < FormatCost::MeTcf.a_bytes(nnz));
        assert!(FormatCost::MeTcf.a_bytes(nnz) < FormatCost::Tcf.a_bytes(nnz));
        assert!(FormatCost::BitTcf.decode_ops(nnz) < FormatCost::MeTcf.decode_ops(nnz));
    }

    #[test]
    fn traces_cover_all_blocks() {
        let m = uniform_random(512, 12.0, 2);
        let f = BitTcf::from_csr(&m);
        let bpw: Vec<usize> = f
            .row_window_offset
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect();
        let n = 128;
        for strat in [BalanceStrategy::None, BalanceStrategy::AccAdaptive] {
            let plan = make_plan(&bpw, strat, &model(n));
            let desc = acc_trace(&TcFormat::BitTcf(f.clone()), &plan, n, &AccConfig::full());
            let blocks: usize = desc.tbs.iter().map(|t| t.blocks.len()).sum();
            assert_eq!(blocks, f.num_tc_blocks(), "{strat:?}");
            assert_eq!(
                desc.executed_flops(),
                2 * 64 * n as u64 * f.num_tc_blocks() as u64
            );
        }
    }

    #[test]
    fn ablation_toggles_change_the_trace() {
        let m = uniform_random(256, 8.0, 3);
        let f = BitTcf::from_csr(&m);
        let bpw: Vec<usize> = f
            .row_window_offset
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect();
        let plan = make_plan(&bpw, BalanceStrategy::None, &model(128));
        let fmt = TcFormat::BitTcf(f);
        let full = acc_trace(&fmt, &plan, 128, &AccConfig::full());
        let mut cfg = AccConfig::full();
        cfg.acc_pipeline = false;
        let no_pp = acc_trace(&fmt, &plan, 128, &cfg);
        assert_eq!(full.pipeline, PipelineKind::AccLeastBubble);
        assert_eq!(no_pp.pipeline, PipelineKind::DtcDoubleBuffer);
        let mut cfg = AccConfig::full();
        cfg.cache_policy = false;
        let no_cp = acc_trace(&fmt, &plan, 128, &cfg);
        assert_eq!(no_cp.policy, CachePolicy::hardware_default());
    }
}
