//! Engine behaviour under concurrency and load: single-flight plan
//! builds, LRU eviction, batched-vs-sequential bit-identity,
//! backpressure rejection, deadline expiry, and trace observability.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use spmm_engine::{Engine, SubmitOptions, SubmitOutcome};
use spmm_kernels::{KernelKind, PreparedKernel};
use spmm_matrix::{gen, CsrMatrix, DenseMatrix};
use spmm_sim::Arch;

/// Submit with default QoS options, treating rejection as a test error.
fn submit_ok(session: &spmm_engine::Session, b: DenseMatrix) -> spmm_engine::Ticket {
    session
        .submit(b, SubmitOptions::new())
        .into_result()
        .unwrap()
}

/// Every test here emits spmm-trace counters, and the counting tests
/// switch the process-global trace registry on, reset it and read it
/// back. The test harness runs tests on parallel threads, so each test
/// holds this lock for its whole body: a counting test then sees only
/// its own events.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Take [`TRACE_LOCK`] (a failed test poisons it; the next one still
/// runs).
fn serial() -> MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn graph(n: usize, seed: u64) -> CsrMatrix {
    gen::uniform_random(n, 6.0, seed)
}

#[test]
fn n_threads_same_key_build_exactly_one_plan() {
    let _serial = serial();
    let engine = Arc::new(Engine::builder().workers(1).build().unwrap());
    let a = Arc::new(graph(512, 1));
    const THREADS: usize = 8;

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let engine = Arc::clone(&engine);
            let a = Arc::clone(&a);
            s.spawn(move || {
                engine.session(&a).feature_dim(32).open().unwrap();
            });
        }
    });

    let stats = engine.stats();
    assert_eq!(
        stats.plan_builds, 1,
        "single-flight: one build, not {THREADS}"
    );
    assert_eq!(stats.cache_hits + stats.cache_misses, THREADS as u64);
    assert!(stats.cache_misses >= 1);
}

#[test]
fn distinct_keys_build_distinct_plans_and_hit_afterwards() {
    let _serial = serial();
    let engine = Engine::builder().workers(0).build().unwrap();
    let a = graph(256, 2);
    // Same matrix, different feature dims → different keys.
    engine.session(&a).feature_dim(16).open().unwrap();
    engine.session(&a).feature_dim(32).open().unwrap();
    engine.session(&a).feature_dim(16).open().unwrap(); // hit

    let stats = engine.stats();
    assert_eq!(stats.plan_builds, 2);
    assert_eq!(stats.cache_hits, 1);
}

#[test]
fn lru_eviction_respects_capacity_and_recency() {
    let _serial = serial();
    let engine = Engine::builder()
        .workers(0)
        .plan_cache_capacity(2)
        .build()
        .unwrap();
    let mats: Vec<CsrMatrix> = (0..3).map(|i| graph(128, 10 + i)).collect();

    engine.session(&mats[0]).feature_dim(16).open().unwrap();
    engine.session(&mats[1]).feature_dim(16).open().unwrap();
    // Touch 0 so 1 is the LRU victim.
    engine.session(&mats[0]).feature_dim(16).open().unwrap();
    engine.session(&mats[2]).feature_dim(16).open().unwrap(); // evicts 1

    let stats = engine.stats();
    assert_eq!(stats.cache_evictions, 1);
    // 0 is still resident (hit); 1 must rebuild.
    engine.session(&mats[0]).feature_dim(16).open().unwrap();
    engine.session(&mats[1]).feature_dim(16).open().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.plan_builds, 4, "matrix 1 was rebuilt after eviction");
}

#[test]
fn batched_results_bit_identical_to_sequential_multiply() {
    let _serial = serial();
    let a = graph(384, 3);
    let direct = PreparedKernel::builder(KernelKind::AccSpmm, &a)
        .arch(Arch::A800)
        .feature_dim(24)
        .build()
        .unwrap();

    let engine = Engine::builder()
        .workers(0)
        .max_batch(8)
        .batch_window(Duration::from_millis(0))
        .build()
        .unwrap();
    let session = engine.session(&a).feature_dim(24).open().unwrap();

    let bs: Vec<DenseMatrix> = (0..6)
        .map(|i| DenseMatrix::random(a.ncols(), 24, 100 + i))
        .collect();
    // Queue all six, then pump once: they coalesce into one micro-batch.
    let tickets: Vec<_> = bs.iter().map(|b| submit_ok(&session, b.clone())).collect();
    engine.run_until_idle();
    let stats = engine.stats();
    assert_eq!(stats.batches, 1, "six same-key requests should coalesce");
    assert_eq!(stats.batched_requests, 6);

    for (ticket, b) in tickets.into_iter().zip(&bs) {
        let via_engine = ticket.wait().unwrap();
        let sequential = direct.execute(b).unwrap();
        assert_eq!(
            via_engine.as_slice(),
            sequential.as_slice(),
            "batched path must be bit-identical to sequential execute"
        );
    }
}

#[test]
fn worker_pool_multiply_matches_reference() {
    let _serial = serial();
    let engine = Engine::builder().workers(2).build().unwrap();
    let a = graph(256, 4);
    let session = engine.session(&a).feature_dim(16).open().unwrap();
    let b = DenseMatrix::random(a.ncols(), 16, 5);

    let c = session.multiply(&b).unwrap();
    let tol = spmm_common::scalar::tf32_tolerance(a.nrows());
    let reference = a.spmm_dense(&b).unwrap();
    assert!(c.approx_eq(&reference, tol, tol));
}

#[test]
fn concurrent_clients_get_correct_results() {
    let _serial = serial();
    let engine = Arc::new(Engine::builder().workers(2).max_batch(4).build().unwrap());
    let a = Arc::new(graph(256, 6));
    let session = engine.session(&a).feature_dim(16).open().unwrap();
    let expected: Vec<DenseMatrix> = (0..8)
        .map(|i| {
            let b = DenseMatrix::random(a.ncols(), 16, 200 + i);
            session.plan().execute(&b).unwrap()
        })
        .collect();

    std::thread::scope(|s| {
        for i in 0..8u64 {
            let session = session.clone();
            let a = Arc::clone(&a);
            let expect = expected[i as usize].clone();
            s.spawn(move || {
                let b = DenseMatrix::random(a.ncols(), 16, 200 + i);
                let c = session.multiply(&b).unwrap();
                assert_eq!(c.as_slice(), expect.as_slice());
            });
        }
    });
}

#[test]
fn full_queue_rejects_with_capacity_error() {
    let _serial = serial();
    // No workers and a 2-slot queue: the third submission must bounce.
    let engine = Engine::builder()
        .workers(0)
        .queue_capacity(2)
        .build()
        .unwrap();
    let a = graph(128, 7);
    let session = engine.session(&a).feature_dim(16).open().unwrap();
    let b = DenseMatrix::random(a.ncols(), 16, 1);

    let _t1 = submit_ok(&session, b.clone());
    let _t2 = submit_ok(&session, b.clone());
    match session.submit(b.clone(), SubmitOptions::new()) {
        SubmitOutcome::Rejected {
            operand: returned,
            retry_after,
            reason,
        } => {
            assert_eq!(returned.as_slice(), b.as_slice(), "operand handed back");
            assert!(
                matches!(reason, spmm_common::SpmmError::Capacity { capacity: 2, .. }),
                "got {reason:?}"
            );
            assert!(retry_after.is_some(), "backpressure must hint a retry");
        }
        SubmitOutcome::Accepted(_) => panic!("queue should be full"),
        _ => unreachable!("non-exhaustive outcome"),
    }
    assert_eq!(engine.stats().rejected, 1);

    // Draining the queue makes room again.
    engine.run_until_idle();
    assert!(matches!(
        session.submit(b, SubmitOptions::new()),
        SubmitOutcome::Accepted(_)
    ));
}

#[test]
fn expired_deadline_drops_queued_request_with_typed_error() {
    let _serial = serial();
    let engine = Engine::builder().workers(0).build().unwrap();
    let a = graph(128, 8);
    let session = engine.session(&a).feature_dim(16).open().unwrap();
    let b = DenseMatrix::random(a.ncols(), 16, 2);

    let opts = SubmitOptions::new().deadline(Duration::from_millis(1));
    let ticket = match session.submit(b, opts) {
        SubmitOutcome::Accepted(t) => t,
        SubmitOutcome::Rejected { reason, .. } => panic!("rejected: {reason}"),
        _ => unreachable!("non-exhaustive outcome"),
    };
    std::thread::sleep(Duration::from_millis(10));
    engine.run_until_idle();

    match ticket.wait() {
        Err(spmm_common::SpmmError::DeadlineExpired { waited }) => {
            assert!(
                waited >= Duration::from_millis(1),
                "waited {waited:?} must cover at least the deadline"
            );
        }
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    let stats = engine.stats();
    assert_eq!(stats.timed_out, 1);
    assert_eq!(
        stats.late_executions, 0,
        "expired work must never reach a kernel"
    );
}

#[test]
fn shape_mismatch_rejected_before_queueing() {
    let _serial = serial();
    let engine = Engine::builder().workers(0).build().unwrap();
    let a = graph(128, 11);
    let session = engine.session(&a).feature_dim(16).open().unwrap();
    let wrong = DenseMatrix::random(a.ncols() + 1, 16, 4);
    match session.submit(wrong, SubmitOptions::new()) {
        SubmitOutcome::Rejected {
            reason,
            retry_after,
            ..
        } => {
            assert!(matches!(reason, spmm_common::SpmmError::Shape { .. }));
            assert!(retry_after.is_none(), "retrying a bad shape cannot help");
        }
        SubmitOutcome::Accepted(_) => panic!("shape mismatch must not enqueue"),
        _ => unreachable!("non-exhaustive outcome"),
    }
    assert_eq!(engine.stats().enqueued, 0);
}

#[test]
fn install_shares_an_external_plan() {
    let _serial = serial();
    let a = graph(256, 12);
    let prepared = PreparedKernel::builder(KernelKind::AccSpmm, &a)
        .arch(Arch::A800)
        .feature_dim(16)
        .build()
        .unwrap();

    let engine = Engine::builder().workers(0).build().unwrap();
    let session = engine.install(prepared);
    // A later session() for the same identity hits the installed entry.
    let again = engine.session(&a).feature_dim(16).open().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.plan_builds, 0, "install must not trigger a build");
    assert_eq!(stats.cache_hits, 1);
    assert!(Arc::ptr_eq(session.plan(), again.plan()));
}

#[test]
fn counters_visible_through_spmm_trace() {
    let _serial = serial();
    spmm_trace::enable();
    spmm_trace::reset();
    {
        let engine = Engine::builder()
            .workers(0)
            .queue_capacity(1)
            .build()
            .unwrap();
        let a = graph(128, 13);
        let session = engine.session(&a).feature_dim(16).open().unwrap();
        let b = DenseMatrix::random(a.ncols(), 16, 5);
        let _t = submit_ok(&session, b.clone());
        let _ = session.submit(b, SubmitOptions::new()); // rejected
        engine.run_until_idle();
    }
    let snap = spmm_trace::snapshot();
    spmm_trace::disable();
    assert_eq!(snap.counter("engine.cache_misses"), 1);
    assert_eq!(snap.counter("engine.plan_builds"), 1);
    assert_eq!(snap.counter("engine.enqueued"), 1);
    assert_eq!(snap.counter("engine.rejected"), 1);
    assert_eq!(snap.counter("engine.batches"), 1);
}

#[test]
fn builder_rejects_zero_capacities() {
    let _serial = serial();
    assert!(Engine::builder().queue_capacity(0).build().is_err());
    assert!(Engine::builder().max_batch(0).build().is_err());
    assert!(Engine::builder().plan_cache_capacity(0).build().is_err());
    assert!(Engine::builder().page_budget(0).build().is_err());
    assert!(Engine::builder().tenant_quota(0).build().is_err());
}

#[test]
fn drop_fails_leftover_tickets_instead_of_hanging() {
    let _serial = serial();
    let a = graph(128, 14);
    let ticket = {
        let engine = Engine::builder().workers(0).build().unwrap();
        let session = engine.session(&a).feature_dim(16).open().unwrap();
        submit_ok(&session, DenseMatrix::random(a.ncols(), 16, 6))
        // engine dropped here with the request still queued
    };
    match ticket.wait() {
        Err(spmm_common::SpmmError::Capacity { .. }) => {}
        other => panic!("expected Capacity (shutdown), got {other:?}"),
    }
}

#[test]
fn stats_expose_queue_depth_and_in_flight() {
    let _serial = serial();
    let engine = Arc::new(Engine::builder().workers(0).max_batch(1).build().unwrap());
    let a = graph(768, 14);
    let session = engine.session(&a).feature_dim(64).open().unwrap();
    let b = DenseMatrix::random(a.ncols(), 64, 40);

    // Zero workers: submitted requests sit in the queue until drained.
    let mut tickets: Vec<_> = (0..3).map(|_| submit_ok(&session, b.clone())).collect();
    assert_eq!(engine.stats().queue_depth, 3);
    assert_eq!(engine.stats().in_flight, 0);

    // Sample the gauge from another thread while this thread executes:
    // in_flight must be visible mid-batch and settle back to 0.
    let observer = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            while std::time::Instant::now() < deadline {
                if engine.stats().in_flight >= 1 {
                    return true;
                }
                std::thread::yield_now();
            }
            false
        })
    };
    while !observer.is_finished() {
        tickets.push(submit_ok(&session, b.clone()));
        engine.run_until_idle();
    }
    assert!(
        observer.join().unwrap(),
        "observer never saw in_flight >= 1"
    );
    engine.run_until_idle();
    for t in tickets {
        t.wait().unwrap();
    }
    let stats = engine.stats();
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 0);
}

// --- Dynamic-graph deltas --------------------------------------------------

#[test]
fn apply_delta_repairs_the_session_and_serves_bit_identically() {
    let _serial = serial();
    let engine = Engine::builder().workers(1).build().unwrap();
    let a = graph(256, 13);
    let mut session = engine.session(&a).feature_dim(16).open().unwrap();

    let mut delta = spmm_delta::DeltaCsr::new(a.clone());
    delta.upsert(3, 200, 1.25).unwrap();
    delta.upsert(77, 5, -2.5).unwrap();
    let (cols, _) = a.row(130);
    if let Some(&c) = cols.first() {
        delta.delete(130, c);
    }
    let report = session.apply_delta(&delta).unwrap();
    assert!(report.edges_applied >= 2);
    assert!(report.windows_rebuilt > 0 && report.windows_rebuilt < report.windows_total);

    // The session now serves the compacted matrix, bit-identical to a
    // from-scratch kernel on it.
    let compacted = delta.compact();
    assert_eq!(
        session.plan().execution_plan().input_fingerprint(),
        compacted.content_fingerprint()
    );
    let b = DenseMatrix::random(256, 16, 9);
    let served = session.multiply(&b).unwrap();
    let scratch = PreparedKernel::builder(KernelKind::AccSpmm, &compacted)
        .arch(Arch::A800)
        .feature_dim(16)
        .build()
        .unwrap()
        .execute(&b)
        .unwrap();
    assert_eq!(served.as_slice(), scratch.as_slice());

    // The repaired plan is installed under the new key, so a new
    // session on the compacted matrix is a pure cache hit (no rebuild).
    let builds_before = engine.stats().plan_builds;
    engine.session(&compacted).feature_dim(16).open().unwrap();
    assert_eq!(engine.stats().plan_builds, builds_before);
}

#[test]
fn clean_delta_is_a_no_op_and_mismatched_base_is_rejected() {
    let _serial = serial();
    let engine = Engine::builder().workers(1).build().unwrap();
    let a = graph(128, 21);
    let mut session = engine.session(&a).feature_dim(8).open().unwrap();
    let plan = Arc::clone(session.plan());
    let report = session
        .apply_delta(&spmm_delta::DeltaCsr::new(a.clone()))
        .unwrap();
    assert_eq!(report.edges_applied, 0);
    assert!(
        Arc::ptr_eq(session.plan(), &plan),
        "clean delta keeps the binding"
    );

    let other = graph(128, 22);
    assert!(session
        .apply_delta(&spmm_delta::DeltaCsr::new(other))
        .is_err());
}
