//! Extension experiment: justifying the balancing constants.
//!
//! §3.5 fixes two magic numbers: the IBD gate (8) and the per-TB block
//! cap (32). This sweep varies both on the type-2 datasets and reports
//! the simulated kernel time, showing each constant sits on the flat
//! bottom of its curve.

use acc_spmm::balance::{plan_with_params, BalanceStrategy, ModelParams, PerfModel};
use acc_spmm::matrix::{Dataset, TABLE2};
use acc_spmm::sim::Arch;
use acc_spmm::{AccConfig, KernelKind};
use spmm_bench::{f2, print_table, save_json, sim_options_for, DETAIL_DIM};
use spmm_kernels::{PreparedKernel, TcFormat};

struct Record {
    dataset: String,
    parameter: String,
    value: f64,
    time_ms: f64,
}

spmm_common::impl_to_json!(Record {
    dataset,
    parameter,
    value,
    time_ms
});

/// Simulate Acc-SpMM on `d` with an explicit balance plan built from the
/// given gate/cap.
fn run_with(d: &Dataset, ibd_gate: f64, cap: usize) -> f64 {
    let arch = Arch::A800;
    let m = d.build();
    let opts = sim_options_for(d);
    // Prepare normally to get the BitTCF of the reordered matrix, then
    // re-plan with the swept parameters and splice the plan into a
    // fresh trace.
    let cfg = AccConfig::full();
    let k = PreparedKernel::builder(KernelKind::AccSpmm, &m)
        .arch(arch)
        .feature_dim(DETAIL_DIM)
        .config(cfg)
        .build()
        .expect("prepare");
    let format = k.format().expect("Acc plans build a TC format");
    let TcFormat::BitTcf(f) = format else {
        unreachable!("the full Acc config builds BitTCF")
    };
    let bpw: Vec<usize> = f
        .row_window_offset
        .windows(2)
        .map(|w| (w[1] - w[0]) as usize)
        .collect();
    let spec = arch.spec();
    let model = PerfModel::new(ModelParams {
        feature_dim: DETAIL_DIM,
        bandwidth: spec.dram_bw_gbps * 1e9,
        flops: spec.tc_tf32_tflops * 1e12,
        num_sms: spec.num_sms,
    });
    let plan = plan_with_params(&bpw, BalanceStrategy::AccAdaptive, &model, ibd_gate, cap);
    let desc = spmm_kernels::tc::acc_trace(format, &plan, DETAIL_DIM, &AccConfig::full());
    spmm_sim::simulate(&spec, &desc, &opts).time_s
}

fn main() {
    let datasets: Vec<&Dataset> = TABLE2.iter().filter(|d| d.matrix_type == 2).collect();
    let gates = [0.0f64, 2.0, 8.0, 32.0, 128.0];
    let caps = [4usize, 8, 16, 32, 64];
    let mut records = Vec::new();

    // Sweep 1: IBD gate at cap 32.
    let mut rows = Vec::new();
    for d in &datasets {
        let mut row = vec![d.abbr.to_string()];
        for &g in &gates {
            let t = run_with(d, g, 32);
            row.push(f2(t * 1e3));
            records.push(Record {
                dataset: d.abbr.into(),
                parameter: "ibd_gate".into(),
                value: g,
                time_ms: t * 1e3,
            });
        }
        rows.push(row);
    }
    print_table(
        "Extension: IBD-gate sweep (kernel ms on A800, cap=32; paper gate = 8)",
        &[
            "dataset", "gate 0", "gate 2", "gate 8", "gate 32", "gate 128",
        ],
        &rows,
    );

    // Sweep 2: per-TB cap at gate 8.
    let mut rows = Vec::new();
    for d in &datasets {
        let mut row = vec![d.abbr.to_string()];
        for &c in &caps {
            let t = run_with(d, 8.0, c);
            row.push(f2(t * 1e3));
            records.push(Record {
                dataset: d.abbr.into(),
                parameter: "cap".into(),
                value: c as f64,
                time_ms: t * 1e3,
            });
        }
        rows.push(row);
    }
    print_table(
        "Extension: per-TB block-cap sweep (kernel ms on A800, gate=8; paper cap = 32)",
        &["dataset", "cap 4", "cap 8", "cap 16", "cap 32", "cap 64"],
        &rows,
    );
    save_json("ext_balance_sweep", &records);
}
