//! Observability contract of the execution path: enabling tracing must
//! not change results, the disabled-path cost of the instrumentation
//! must be negligible (≤2% of a multiply), and the reorder stage of a
//! plan's model breaks down into its step spans. The tests mutate the process-global trace
//! registry, so they serialize on one lock.

use spmm_kernels::{KernelKind, PreparedKernel, Workspace};
use spmm_matrix::{gen, DenseMatrix};
use spmm_sim::Arch;
use std::sync::Mutex;
use std::time::Instant;

static SERIAL: Mutex<()> = Mutex::new(());

fn workload() -> (PreparedKernel, DenseMatrix) {
    let m = gen::uniform_random(1024, 8.0, 11);
    let k = PreparedKernel::builder(KernelKind::AccSpmm, &m)
        .arch(Arch::A800)
        .feature_dim(64)
        .build()
        .unwrap();
    let b = DenseMatrix::random(1024, 64, 5);
    (k, b)
}

#[test]
fn execute_into_is_bit_identical_with_tracing_enabled() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (k, b) = workload();
    let mut ws = Workspace::for_plan(k.execution_plan());
    let mut disabled_out = DenseMatrix::zeros(1024, 64);
    let mut enabled_out = DenseMatrix::zeros(1024, 64);

    spmm_trace::disable();
    k.execute_into(&b, &mut disabled_out, &mut ws).unwrap();

    spmm_trace::reset();
    spmm_trace::enable();
    k.execute_into(&b, &mut enabled_out, &mut ws).unwrap();
    let snap = spmm_trace::snapshot();
    spmm_trace::disable();
    spmm_trace::reset();

    assert_eq!(
        disabled_out, enabled_out,
        "tracing must be purely observational"
    );
    // The window actually observed the multiply.
    assert!(snap.span_count("kernel.execute") >= 1);
    assert!(snap.counter("kernel.multiplies") >= 1);
}

#[test]
fn disabled_path_overhead_is_under_two_percent() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (k, b) = workload();
    let mut ws = Workspace::for_plan(k.execution_plan());
    let mut out = DenseMatrix::zeros(1024, 64);
    spmm_trace::disable();

    // Per-call cost of a disabled span + disabled counter add (the two
    // primitives every instrumented site pays when tracing is off).
    let probes = 1_000_000u32;
    let t0 = Instant::now();
    for _ in 0..probes {
        let g = spmm_trace::span("overhead.probe");
        spmm_trace::counter_add("overhead.probe", 1);
        std::hint::black_box(&g);
    }
    let per_call_s = t0.elapsed().as_secs_f64() / probes as f64;

    // How many instrumented call sites one multiply actually crosses.
    spmm_trace::reset();
    spmm_trace::enable();
    k.execute_into(&b, &mut out, &mut ws).unwrap();
    let snap = spmm_trace::snapshot();
    spmm_trace::disable();
    spmm_trace::reset();
    let events = snap.spans.len() + snap.counters.len();

    // Median multiply time with tracing disabled.
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            k.execute_into(&b, &mut out, &mut ws).unwrap();
            t.elapsed().as_secs_f64()
        })
        .collect();
    let multiply_s = spmm_common::stats::median(&times);

    // 4x margin on the event count; the budget is 2% of the multiply.
    let overhead_s = per_call_s * (events * 4) as f64;
    assert!(
        overhead_s <= 0.02 * multiply_s,
        "disabled-path overhead {:.1}ns ({events} events) vs 2% of multiply {:.1}µs",
        overhead_s * 1e9,
        multiply_s * 1e6 * 0.02
    );
}

#[test]
fn acc_reorder_steps_nest_under_plan_reorder() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = gen::uniform_random(1024, 8.0, 11);
    spmm_trace::reset();
    spmm_trace::enable();
    PreparedKernel::builder(KernelKind::AccSpmm, &m)
        .arch(Arch::A800)
        .feature_dim(64)
        .build()
        .unwrap()
        .execution_plan()
        .model();
    let snap = spmm_trace::snapshot();
    spmm_trace::disable();
    spmm_trace::reset();

    assert_eq!(snap.span_count("plan.reorder"), 1);
    let steps = ["reorder.graph_view", "reorder.dendrogram", "reorder.chain"];
    for step in steps {
        assert_eq!(snap.span_count(step), 1, "{step} recorded once");
    }
    let step_ns: u64 = steps.iter().map(|s| snap.span_total_ns(s)).sum();
    assert!(
        step_ns <= snap.span_total_ns("plan.reorder"),
        "steps {step_ns} ns exceed plan.reorder {} ns",
        snap.span_total_ns("plan.reorder")
    );
}
