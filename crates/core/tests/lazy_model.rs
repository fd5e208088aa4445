//! The two parts of an execution plan: the host paths (build, every
//! execute entry, repair, save and load) never build the model part;
//! the model paths (`profile`, `AccSpmm::stats` and the model
//! accessors) build it exactly once, and what they build equals the
//! stage functions composed eagerly. A repaired plan's model equals one
//! built from scratch under the permutation the repair carried.
//!
//! The trace registry is process-global, so this file holds one test.

use acc_spmm::kernels::plan::{balance, compile, format_build, reorder};
use acc_spmm::kernels::{PlanModel, StageSpec, TcFormat};
use acc_spmm::matrix::gen::uniform_random;
use acc_spmm::prelude::*;
use acc_spmm::{DeltaCsr, ExecutionPlan, PlanLoader, SimOptions};
use spmm_common::IsaTier;

const DIM: usize = 16;

fn model_builds() -> u64 {
    spmm_trace::snapshot().counter("plan.model_builds")
}

/// The model of `kind` over `m`, composed stage by stage: under `perm`
/// when given, else under the kernel's own reorder of `m`.
fn eager(kind: KernelKind, config: AccConfig, m: &CsrMatrix, perm: Option<&[u32]>) -> String {
    let spec = StageSpec::for_kernel(kind, &config);
    let tier = IsaTier::resolve(config.isa).unwrap();
    let perm = match perm {
        Some(p) => Some(p.to_vec()),
        None => reorder(&spec, m).unwrap(),
    };
    let permuted = match &perm {
        Some(p) if spec.symmetric => m.permute_symmetric(p).unwrap(),
        Some(p) => m.permute_rows(p).unwrap(),
        None => m.clone(),
    };
    let built = format_build(spec.format, &permuted, tier);
    let plan = built
        .as_ref()
        .map(|(wp, _)| balance(wp, spec.balance, Arch::A800, DIM));
    let tc = built.as_ref().zip(plan.as_ref()).map(|((_, f), b)| (f, b));
    let trace = compile(kind, &config, &permuted, tc, DIM, tier).unwrap();
    render(
        perm.as_deref(),
        built.as_ref().map(|(wp, _)| wp),
        built.as_ref().map(|(_, f)| f),
        plan.as_ref(),
        &trace,
    )
}

/// Every artifact of a model in one string, through `Debug`, which
/// prints each float exactly.
fn render(
    perm: Option<&[u32]>,
    wp: Option<&spmm_format::WindowPartition>,
    format: Option<&TcFormat>,
    balance: Option<&spmm_balance::BalancePlan>,
    trace: &spmm_sim::KernelDesc,
) -> String {
    format!("{perm:?}\n{wp:?}\n{format:?}\n{balance:?}\n{trace:?}")
}

fn render_model(model: &PlanModel) -> String {
    render(
        model.perm(),
        model.partition(),
        model.format(),
        model.balance(),
        model.trace(),
    )
}

#[test]
fn host_paths_never_build_the_model_and_model_paths_build_it_once() {
    spmm_trace::reset();
    spmm_trace::enable();
    let m = uniform_random(96, 5.0, 21);
    let b = DenseMatrix::random(96, DIM, 3);
    let bs = vec![b.clone(), DenseMatrix::random(96, DIM, 4)];
    let dir = std::env::temp_dir().join(format!("spmm-lazy-model-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let symmetric = AccConfig {
        symmetric_reorder: true,
        ..AccConfig::full()
    };
    let cases = KernelKind::ALL
        .map(|kind| (kind, AccConfig::full()))
        .into_iter()
        .chain([(KernelKind::AccSpmm, symmetric)]);
    for (kind, config) in cases {
        let before = model_builds();
        let plan = ExecutionPlan::build(kind, &m, Arch::A800, DIM, config).unwrap();
        let k = PreparedKernel::from_plan(plan.clone());
        k.execute(&b).unwrap();
        let mut ws = Workspace::new();
        let mut out = DenseMatrix::zeros(96, DIM);
        k.execute_into(&b, &mut out, &mut ws).unwrap();
        k.execute_batch(&bs).unwrap();
        let mut outs = vec![DenseMatrix::zeros(96, DIM); bs.len()];
        k.execute_batch_into(&bs, &mut outs, std::slice::from_mut(&mut ws))
            .unwrap();
        let mut delta = DeltaCsr::new(m.clone());
        delta.upsert(3, 50, 0.5).unwrap();
        delta.upsert(70, 2, -1.25).unwrap();
        let (repaired, _) = plan.repair(&delta).unwrap();
        PreparedKernel::from_plan(repaired.clone())
            .execute(&b)
            .unwrap();
        let path = dir.join(format!("{kind:?}-{}.plan", config.symmetric_reorder));
        plan.save(&path).unwrap();
        let loaded = PlanLoader::new().load(&path, &m).unwrap();
        PreparedKernel::from_plan(loaded.clone())
            .execute(&b)
            .unwrap();
        assert_eq!(
            model_builds(),
            before,
            "{kind:?}: a host path built the model"
        );
        assert!(
            plan.partition().is_none(),
            "{kind:?}: partition() built nothing"
        );

        k.profile(Arch::A800, &SimOptions::default());
        k.trace();
        k.partition();
        k.format();
        k.plan();
        let model = k.execution_plan().model();
        assert_eq!(model_builds(), before + 1, "{kind:?}: one model build");
        let held_perm = plan.perm();
        assert_eq!(
            render_model(model),
            eager(kind, config, &m, held_perm),
            "{kind:?}"
        );
        assert_eq!(
            render_model(loaded.model()),
            render_model(model),
            "{kind:?}: a loaded plan rebuilds the same model"
        );
        let compacted = delta.compact();
        assert_eq!(
            render_model(repaired.model()),
            eager(kind, config, &compacted, repaired.perm()),
            "{kind:?}: repaired model"
        );
        assert_eq!(
            repaired.perm(),
            held_perm,
            "{kind:?}: repair carries the perm"
        );
    }

    let h = AccSpmm::builder(&m).feature_dim(DIM).build().unwrap();
    let before = model_builds();
    let stats = h.stats().clone();
    h.stats();
    h.profile_default();
    assert_eq!(
        model_builds(),
        before + 1,
        "stats and profile share one model"
    );
    assert_eq!(stats.num_windows, 96 / 8);
    spmm_trace::disable();
    spmm_trace::reset();
    let _ = std::fs::remove_dir_all(&dir);
}
