//! Sharded execution: one SpMM split across a pool of workers with
//! bit-identical results, plus a GCN forward pass that keeps features
//! sharded across layers and exchanges only halo rows.
//!
//! `DistSpmm` cuts the sparse operand into nnz-balanced row blocks
//! (priced with the balance crate's Equation-4 cost model), builds an
//! independent kernel per shard, and scatters `B` to the shards and
//! gathers their row blocks back. Because every output row accumulates only
//! its own nonzero lanes in a fixed order, sharding cannot change a
//! single bit of the result — which this example asserts.
//!
//! Run with: `cargo run --release --example distributed`

use acc_spmm::matrix::gen;
use acc_spmm::prelude::*;
use acc_spmm::Gcn;

fn main() {
    // A community graph — the workload where halo exchange shines,
    // since most edges stay inside a shard's row range.
    let a = gen::clustered(
        gen::ClusteredConfig {
            n: 4096,
            cluster_size: 512,
            shuffle: false, // keep communities contiguous → small halos
            ..Default::default()
        },
        3,
    );
    let dim = 64;
    let b = DenseMatrix::random(a.ncols(), dim, 7);
    println!(
        "graph: {} vertices, {} edges; feature dim {dim}",
        a.nrows(),
        a.nnz() / 2
    );

    // Single-node reference.
    let single = AccSpmm::builder(&a)
        .arch(Arch::A800)
        .feature_dim(dim)
        .build()
        .expect("single-node build");
    let expect = single.multiply(&b).expect("single-node multiply");

    // Scale out: same multiply at 1/2/4/8 shards. Each shard is timed
    // alone, so the slowest shard is the completion time a deployment
    // with one device per shard would see. One warm-up multiply per
    // shard count takes first-touch costs out of the timed calls, whose
    // median and range are printed.
    const TIMED: usize = 5;
    println!(
        "\n{:>7} {:>15} {:>15} {:>8}",
        "shards", "slowest shard", "range", "speedup"
    );
    let mut baseline = None;
    for shards in [1usize, 2, 4, 8] {
        let dist = DistSpmm::builder(KernelKind::AccSpmm, &a)
            .shards(shards)
            .arch(Arch::A800)
            .feature_dim(dim)
            .build()
            .expect("dist build");
        let mut slowest = Vec::with_capacity(TIMED);
        for call in 0..=TIMED {
            let (c, report) = dist.multiply_profiled(&b).expect("dist multiply");
            assert_eq!(c, expect, "sharded result must be bit-identical");
            if call > 0 {
                slowest.push(report.max_busy_seconds() * 1e3);
            }
        }
        slowest.sort_by(f64::total_cmp);
        let median = slowest[TIMED / 2];
        let base = *baseline.get_or_insert(median);
        let range = format!("{:.2}–{:.2} ms", slowest[0], slowest[TIMED - 1]);
        println!(
            "{shards:>7} {median:>12.2} ms {range:>15} {:>7.2}x",
            base / median
        );
    }

    // A 2-layer GCN (dim → 32 → 8) with the aggregation sharded four
    // ways. Between layers only the halo — boundary feature rows that
    // neighbouring shards reference — moves, not the full feature
    // matrix. Both layers narrow, so each multiplies by W before its
    // exchange and its halo rows carry the layer's output width.
    let widths = [dim, 32, 8];
    let gcn = Gcn::new(&a, &widths, Arch::A800, 11).expect("gcn build");
    let x = DenseMatrix::random(a.nrows(), dim, 13);
    let dense = gcn.forward(&x).expect("dense forward");

    let dist = gcn.shard(4).expect("gcn shard");
    let sharded = gcn.forward_sharded(&dist, &x).expect("sharded forward");
    assert_eq!(sharded, dense, "sharded GCN must be bit-identical");

    let (halo, regather) = dist.halo_traffic_rows();
    println!(
        "\nGCN {:?}: sharded forward bit-identical; halo moves {halo} rows/layer \
         vs {regather} for a full regather ({:.1}% of traffic)",
        widths,
        100.0 * halo as f64 / regather as f64,
    );
}
