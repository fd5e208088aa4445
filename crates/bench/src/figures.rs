//! The per-dataset computations behind the paper-figure binaries.
//!
//! Each function computes one dataset's share of a table or figure and
//! returns the records its binary prints and writes under `results/`.
//! The binaries only loop over Table 2 and format; the golden test
//! (`tests/figure_golden.rs`) runs the same functions on a fixed subset
//! of analogs, so a change to a modeled number shows up as a diff.

use acc_spmm::balance::BalanceStrategy;
use acc_spmm::comparison::compare_all;
use acc_spmm::format::compression::CompressionReport;
use acc_spmm::matrix::{CsrMatrix, Dataset};
use acc_spmm::reorder::{metrics::mean_nnz_tc, reorder_apply, Algorithm};
use acc_spmm::sim::{Arch, KernelReport};
use acc_spmm::{AccConfig, KernelKind, PreparedKernel};

use crate::{sim_options_for, DETAIL_DIM};

/// Table 2: the scaled analog's shape.
#[derive(Debug, Clone)]
pub struct Table2Record {
    /// Dataset abbreviation.
    pub dataset: String,
    /// Rows of the analog.
    pub nrows: usize,
    /// Stored non-zeros of the analog.
    pub nnz: usize,
    /// Average non-zeros per row.
    pub avg_l: f64,
}

spmm_common::impl_to_json!(Table2Record {
    dataset,
    nrows,
    nnz,
    avg_l
});

/// Table 2's row for one analog.
pub fn table2(d: &Dataset, m: &CsrMatrix) -> Table2Record {
    Table2Record {
        dataset: d.abbr.into(),
        nrows: m.nrows(),
        nnz: m.nnz(),
        avg_l: m.avg_row_len(),
    }
}

/// The reordering algorithms of Figure 10, in column order.
pub const FIG10_ALGORITHMS: [Algorithm; 8] = [
    Algorithm::Identity,
    Algorithm::Sgt,
    Algorithm::Lsh64,
    Algorithm::DtcLsh,
    Algorithm::MetisLike,
    Algorithm::Louvain,
    Algorithm::Rabbit,
    Algorithm::Affinity,
];

/// Figure 10: MeanNNZTC of one reordering.
#[derive(Debug, Clone)]
pub struct Fig10Record {
    /// Dataset abbreviation.
    pub dataset: String,
    /// Reordering algorithm name.
    pub algorithm: String,
    /// Mean non-zeros per 8x8 TC block after reordering.
    pub mean_nnz_tc: f64,
}

spmm_common::impl_to_json!(Fig10Record {
    dataset,
    algorithm,
    mean_nnz_tc
});

/// Figure 10's records for one analog, one per [`FIG10_ALGORITHMS`] entry.
pub fn fig10(d: &Dataset, m: &CsrMatrix) -> Vec<Fig10Record> {
    FIG10_ALGORITHMS
        .iter()
        .map(|&alg| {
            let (pm, _) = reorder_apply(m, alg);
            Fig10Record {
                dataset: d.abbr.into(),
                algorithm: alg.name().into(),
                mean_nnz_tc: mean_nnz_tc(&pm, 8),
            }
        })
        .collect()
}

/// Simulate Acc-SpMM under `config` at [`DETAIL_DIM`] on `arch`.
fn profile_acc(d: &Dataset, m: &CsrMatrix, arch: Arch, config: AccConfig) -> KernelReport {
    PreparedKernel::builder(KernelKind::AccSpmm, m)
        .arch(arch)
        .feature_dim(DETAIL_DIM)
        .config(config)
        .build()
        .expect("prepare")
        .profile(arch, &sim_options_for(d))
}

/// Figure 11: A800 cache hit rates, original order vs data affinity.
#[derive(Debug, Clone)]
pub struct Fig11Record {
    /// Dataset abbreviation.
    pub dataset: String,
    /// L1 hit rate without reordering.
    pub l1_original: f64,
    /// L1 hit rate with data-affinity reordering.
    pub l1_reordered: f64,
    /// L2 hit rate without reordering.
    pub l2_original: f64,
    /// L2 hit rate with data-affinity reordering.
    pub l2_reordered: f64,
}

spmm_common::impl_to_json!(Fig11Record {
    dataset,
    l1_original,
    l1_reordered,
    l2_original,
    l2_reordered
});

/// Figure 11's record for one analog.
pub fn fig11(d: &Dataset, m: &CsrMatrix) -> Fig11Record {
    let run = |reorder: Algorithm| {
        let config = AccConfig {
            reorder,
            ..AccConfig::full()
        };
        profile_acc(d, m, Arch::A800, config)
    };
    let orig = run(Algorithm::Identity);
    let reord = run(Algorithm::Affinity);
    Fig11Record {
        dataset: d.abbr.into(),
        l1_original: orig.l1_hit_rate,
        l1_reordered: reord.l1_hit_rate,
        l2_original: orig.l2_hit_rate,
        l2_reordered: reord.l2_hit_rate,
    }
}

/// Figure 12: index-structure compression ratios against TCF.
#[derive(Debug, Clone)]
pub struct Fig12Record {
    /// Dataset abbreviation.
    pub dataset: String,
    /// CSR compression ratio.
    pub csr_ratio: f64,
    /// ME-TCF compression ratio.
    pub metcf_ratio: f64,
    /// BitTCF compression ratio.
    pub bittcf_ratio: f64,
}

spmm_common::impl_to_json!(Fig12Record {
    dataset,
    csr_ratio,
    metcf_ratio,
    bittcf_ratio
});

/// Figure 12's record for one analog. Formats are built on the
/// reordered matrix, as in the paper ("building on the reordered
/// matrix, BitTCF ...").
pub fn fig12(d: &Dataset, m: &CsrMatrix) -> Fig12Record {
    let (pm, _) = reorder_apply(m, Algorithm::Affinity);
    let r = CompressionReport::measure(&pm);
    Fig12Record {
        dataset: d.abbr.into(),
        csr_ratio: r.csr_ratio(),
        metcf_ratio: r.metcf_ratio(),
        bittcf_ratio: r.bittcf_ratio(),
    }
}

/// Figure 13: DTC pipeline vs least-bubble pipeline on A800.
#[derive(Debug, Clone)]
pub struct Fig13Record {
    /// Dataset abbreviation.
    pub dataset: String,
    /// GFLOPS with the DTC double-buffer pipeline.
    pub dtc_pipeline_gflops: f64,
    /// GFLOPS with the Acc least-bubble pipeline.
    pub acc_pipeline_gflops: f64,
    /// DTC time over Acc time.
    pub speedup: f64,
    /// Relative reduction of the bubble share.
    pub bubble_reduction: f64,
}

spmm_common::impl_to_json!(Fig13Record {
    dataset,
    dtc_pipeline_gflops,
    acc_pipeline_gflops,
    speedup,
    bubble_reduction
});

/// Figure 13's record for one analog (everything else in the Acc
/// configuration held fixed).
pub fn fig13(d: &Dataset, m: &CsrMatrix) -> Fig13Record {
    let run = |acc_pipeline: bool| {
        let config = AccConfig {
            acc_pipeline,
            ..AccConfig::full()
        };
        profile_acc(d, m, Arch::A800, config)
    };
    let dtc = run(false);
    let acc = run(true);
    Fig13Record {
        dataset: d.abbr.into(),
        dtc_pipeline_gflops: dtc.gflops,
        acc_pipeline_gflops: acc.gflops,
        speedup: dtc.time_s / acc.time_s,
        bubble_reduction: 1.0
            - (acc.bubble_s / acc.busy_s) / (dtc.bubble_s / dtc.busy_s).max(1e-12),
    }
}

/// Figure 14: throughput without and with the adaptive load balancing.
#[derive(Debug, Clone)]
pub struct Fig14Record {
    /// Architecture name.
    pub arch: String,
    /// Dataset abbreviation.
    pub dataset: String,
    /// Compute throughput (GFLOPS) without balancing.
    pub compute_no_lb: f64,
    /// Compute throughput (GFLOPS) with balancing.
    pub compute_lb: f64,
    /// Memory throughput (GB/s) without balancing.
    pub memory_no_lb: f64,
    /// Memory throughput (GB/s) with balancing.
    pub memory_lb: f64,
}

spmm_common::impl_to_json!(Fig14Record {
    arch,
    dataset,
    compute_no_lb,
    compute_lb,
    memory_no_lb,
    memory_lb
});

/// One analog's Figure-14 result: the record plus what the printed
/// table adds to it.
#[derive(Debug, Clone)]
pub struct Fig14Result {
    /// The record written to `results/`.
    pub record: Fig14Record,
    /// IBD of the balanced plan.
    pub ibd: f64,
    /// Whether the adaptive balancer rebalanced.
    pub rebalanced: bool,
    /// Unbalanced time over balanced time.
    pub speedup: f64,
}

spmm_common::impl_to_json!(Fig14Result {
    record,
    ibd,
    rebalanced,
    speedup
});

/// Whether Figure 14 covers an analog: the type-2 matrices, plus WB,
/// the most imbalanced type-1 set ("we focus our load balancing
/// experiments mainly on type-2 matrices").
pub fn fig14_covers(d: &Dataset) -> bool {
    d.matrix_type == 2 || d.abbr == "WB"
}

/// Figure 14's result for one analog on `arch`.
pub fn fig14(arch: Arch, d: &Dataset, m: &CsrMatrix) -> Fig14Result {
    let build = |balance: BalanceStrategy| {
        let config = AccConfig {
            balance,
            ..AccConfig::full()
        };
        PreparedKernel::builder(KernelKind::AccSpmm, m)
            .arch(arch)
            .feature_dim(DETAIL_DIM)
            .config(config)
            .build()
            .expect("prepare")
    };
    let opts = sim_options_for(d);
    let none = build(BalanceStrategy::None).profile(arch, &opts);
    let balanced = build(BalanceStrategy::AccAdaptive);
    let lb = balanced.profile(arch, &opts);
    let plan = balanced.plan().expect("Acc plans balance");
    Fig14Result {
        record: Fig14Record {
            arch: format!("{arch:?}"),
            dataset: d.abbr.into(),
            compute_no_lb: none.compute_throughput_gflops,
            compute_lb: lb.compute_throughput_gflops,
            memory_no_lb: none.mem_throughput_gbps,
            memory_lb: lb.mem_throughput_gbps,
        },
        ibd: plan.ibd,
        rebalanced: plan.applied,
        speedup: none.time_s / lb.time_s,
    }
}

/// Figure 15: one stage of the cumulative ablation on H100.
#[derive(Debug, Clone)]
pub struct Fig15Record {
    /// Dataset abbreviation.
    pub dataset: String,
    /// Stage label ([`AccConfig::STAGE_NAMES`]).
    pub stage: String,
    /// Base time over this stage's time.
    pub speedup_over_base: f64,
    /// This stage's GFLOPS.
    pub gflops: f64,
}

spmm_common::impl_to_json!(Fig15Record {
    dataset,
    stage,
    speedup_over_base,
    gflops
});

/// Figure 15's records for one analog, one per ablation stage.
pub fn fig15(d: &Dataset, m: &CsrMatrix) -> Vec<Fig15Record> {
    let mut base_time = 0.0f64;
    (0..AccConfig::STAGE_NAMES.len())
        .map(|stage| {
            let r = profile_acc(d, m, Arch::H100, AccConfig::ablation_stage(stage));
            if stage == 0 {
                base_time = r.time_s;
            }
            Fig15Record {
                dataset: d.abbr.into(),
                stage: AccConfig::STAGE_NAMES[stage].into(),
                speedup_over_base: base_time / r.time_s,
                gflops: r.gflops,
            }
        })
        .collect()
}

/// Figures 7–9: one kernel's speedup over cuSPARSE and GFLOPS.
#[derive(Debug, Clone)]
pub struct OverallRecord {
    /// Architecture name.
    pub arch: String,
    /// Dataset abbreviation.
    pub dataset: String,
    /// Kernel display name.
    pub kernel: String,
    /// Speedup over cuSPARSE, averaged over the feature dimensions.
    pub speedup: f64,
    /// GFLOPS, averaged over the feature dimensions.
    pub gflops: f64,
}

spmm_common::impl_to_json!(OverallRecord {
    arch,
    dataset,
    kernel,
    speedup,
    gflops
});

/// The overall evaluation's records for one analog on `arch`, one per
/// kernel in [`KernelKind::ALL`] order, averaged over `dims` as §4.1
/// specifies ("average performance with ... 128, 256 and 512").
pub fn overall(arch: Arch, dims: &[usize], d: &Dataset, m: &CsrMatrix) -> Vec<OverallRecord> {
    let opts = sim_options_for(d);
    let mut speed = [0.0f64; KernelKind::ALL.len()];
    let mut gflops = [0.0f64; KernelKind::ALL.len()];
    for &n in dims {
        let cmp = compare_all(m, arch, n, &opts).expect("comparison");
        for (i, row) in cmp.iter().enumerate() {
            speed[i] += row.speedup / dims.len() as f64;
            gflops[i] += row.report.gflops / dims.len() as f64;
        }
    }
    KernelKind::ALL
        .iter()
        .enumerate()
        .map(|(i, kind)| OverallRecord {
            arch: format!("{arch:?}"),
            dataset: d.abbr.into(),
            kernel: kind.name().into(),
            speedup: speed[i],
            gflops: gflops[i],
        })
        .collect()
}
