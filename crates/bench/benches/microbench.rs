//! Criterion micro-benchmarks for the hot paths of the library:
//! format conversion (the §4.3.2 overhead claim), block decompression
//! (BitTCF popcount vs ME-TCF scatter), reordering algorithms, the
//! functional SpMM (the CSR reference and an Acc-SpMM plan's executor),
//! balance planning, and the simulation engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spmm_balance::{plan, BalanceStrategy, ModelParams, PerfModel};
use spmm_format::{BitTcf, MeTcf, Tcf, WindowPartition};
use spmm_matrix::{gen, CsrMatrix, DenseMatrix};
use spmm_reorder::Algorithm;
use std::hint::black_box;
use std::time::Duration;

fn bench_matrix() -> CsrMatrix {
    gen::clustered(
        gen::ClusteredConfig {
            n: 4096,
            cluster_size: 128,
            intra_deg: 24.0,
            inter_deg: 4.0,
            hub_fraction: 0.01,
            hub_factor: 6.0,
            shuffle: true,
            degree_spread: 1.0,
            size_variance: 0.4,
        },
        7,
    )
}

fn conversion(c: &mut Criterion) {
    let m = bench_matrix();
    let wp = WindowPartition::build(&m);
    let mut g = c.benchmark_group("format_conversion");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("window_partition", |b| {
        b.iter(|| black_box(WindowPartition::build(&m)))
    });
    g.bench_function("csr_to_bittcf", |b| {
        b.iter(|| black_box(BitTcf::from_partition(&m, &wp)))
    });
    g.bench_function("csr_to_metcf", |b| {
        b.iter(|| black_box(MeTcf::from_partition(&m, &wp)))
    });
    g.bench_function("csr_to_tcf", |b| {
        b.iter(|| black_box(Tcf::from_partition(&m, &wp)))
    });
    g.finish();
}

fn decompression(c: &mut Criterion) {
    let m = bench_matrix();
    let bit = BitTcf::from_csr(&m);
    let me = MeTcf::from_csr(&m);
    let nblocks = bit.num_tc_blocks();
    let mut g = c.benchmark_group("block_decompression");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("bittcf_popcount", |b| {
        b.iter(|| {
            let mut acc = 0f32;
            for blk in 0..nblocks {
                acc += black_box(bit.decompress_block(blk))[0];
            }
            acc
        })
    });
    g.bench_function("metcf_scatter", |b| {
        b.iter(|| {
            let mut acc = 0f32;
            for blk in 0..nblocks {
                acc += black_box(me.decompress_block(blk))[0];
            }
            acc
        })
    });
    g.finish();
}

fn reordering(c: &mut Criterion) {
    let m = bench_matrix();
    let mut g = c.benchmark_group("reorder");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(4));
    for alg in [
        Algorithm::Lsh64,
        Algorithm::DtcLsh,
        Algorithm::MetisLike,
        Algorithm::Louvain,
        Algorithm::Rabbit,
        Algorithm::Affinity,
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(alg.name()), &alg, |b, &alg| {
            b.iter(|| black_box(spmm_reorder::reorder(&m, alg)))
        });
    }
    g.finish();
}

fn functional_spmm(c: &mut Criterion) {
    use acc_spmm::KernelKind;
    use spmm_kernels::PreparedKernel;
    let m = bench_matrix();
    let acc = PreparedKernel::builder(KernelKind::AccSpmm, &m)
        .feature_dim(128)
        .build()
        .unwrap();
    let bmat = DenseMatrix::random(m.ncols(), 128, 3);
    let mut g = c.benchmark_group("functional_spmm_n128");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(4));
    g.bench_function("csr_fp32_reference", |b| {
        b.iter(|| black_box(m.spmm_dense(&bmat).unwrap()))
    });
    g.bench_function("accspmm_plan_execute", |b| {
        b.iter(|| black_box(acc.execute(&bmat).unwrap()))
    });
    g.finish();
}

fn balancing(c: &mut Criterion) {
    let m = bench_matrix();
    let bit = BitTcf::from_csr(&m);
    let bpw: Vec<usize> = bit
        .row_window_offset
        .windows(2)
        .map(|w| (w[1] - w[0]) as usize)
        .collect();
    let model = PerfModel::new(ModelParams {
        feature_dim: 128,
        bandwidth: 1935e9,
        flops: 156e12,
        num_sms: 108,
    });
    let mut g = c.benchmark_group("balance_planning");
    g.sample_size(30);
    g.measurement_time(Duration::from_secs(2));
    for strat in [
        BalanceStrategy::None,
        BalanceStrategy::DtcStyle,
        BalanceStrategy::AccAdaptive,
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{strat:?}")),
            &strat,
            |b, &strat| b.iter(|| black_box(plan(&bpw, strat, &model))),
        );
    }
    g.finish();
}

fn simulation_engine(c: &mut Criterion) {
    use acc_spmm::sim::{Arch, SimOptions};
    use acc_spmm::KernelKind;
    use spmm_kernels::PreparedKernel;
    let m = bench_matrix();
    let prepared = PreparedKernel::builder(KernelKind::AccSpmm, &m)
        .arch(Arch::A800)
        .feature_dim(128)
        .build()
        .unwrap();
    let opts = SimOptions::scaled(8.0);
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(4));
    g.bench_function("trace_build", |b| b.iter(|| black_box(prepared.trace())));
    g.bench_function("full_simulation", |b| {
        b.iter(|| black_box(prepared.profile(Arch::A800, &opts)))
    });
    g.finish();
}

criterion_group!(
    benches,
    conversion,
    decompression,
    reordering,
    functional_spmm,
    balancing,
    simulation_engine
);
criterion_main!(benches);
