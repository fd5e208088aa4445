//! Property tests for the serving tier's QoS guarantees: every class of
//! a priority mix served, quota rejections with accurate `retry_after`
//! hints, deadline drops that never reach the kernel, and a page budget
//! that is never exceeded. The fair-dequeue schedule's own properties
//! are unit tests in `src/qos.rs`.
//!
//! All engines here run with `workers(0)` and are driven inline via
//! `run_until_idle`, so every interleaving is deterministic (the
//! documented determinism contract of the zero-worker mode).

use std::time::Duration;

use proptest::prelude::*;
use spmm_engine::{Engine, Priority, SubmitOptions, SubmitOutcome, Ticket};
use spmm_matrix::{gen, CsrMatrix, DenseMatrix};

fn graph(n: usize, seed: u64) -> CsrMatrix {
    gen::uniform_random(n, 6.0, seed)
}

fn accept(outcome: SubmitOutcome) -> Ticket {
    match outcome {
        SubmitOutcome::Accepted(t) => t,
        SubmitOutcome::Rejected { reason, .. } => panic!("unexpected rejection: {reason}"),
        _ => unreachable!("non-exhaustive outcome"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Every accepted request in a random priority mix is served, and
    // the per-class served counters account for exactly the mix.
    #[test]
    fn mixed_priority_drain_serves_every_accepted_request(
        mix in proptest::collection::vec(0usize..3, 1..24),
        seed in 0u64..1000,
    ) {
        let a = graph(96, seed);
        let engine = Engine::builder()
            .workers(0)
            .queue_capacity(64)
            .build()
            .unwrap();
        let session = engine.session(&a).feature_dim(8).open().unwrap();
        let mut expected = [0u64; 3];
        let mut tickets = Vec::new();
        for (i, &class) in mix.iter().enumerate() {
            let p = Priority::ALL[class];
            let b = DenseMatrix::random(a.ncols(), 8, seed * 100 + i as u64);
            tickets.push(accept(session.submit(b, SubmitOptions::new().priority(p))));
            expected[class] += 1;
        }
        engine.run_until_idle();
        for t in tickets {
            prop_assert!(t.wait().is_ok());
        }
        let stats = engine.stats();
        prop_assert_eq!(stats.served, expected);
        prop_assert_eq!(stats.late_executions, 0);
    }

    // Quota rejections carry the documented retry_after estimate: with
    // no service-time sample yet, backlog × 1 ms (DEFAULT_SERVICE_NS)
    // over one worker, clamped to [100 µs, 10 s].
    #[test]
    fn quota_rejections_hint_the_documented_retry_after(quota in 1usize..8) {
        let a = graph(96, 3);
        let engine = Engine::builder()
            .workers(0)
            .queue_capacity(64)
            .tenant_quota(quota)
            .build()
            .unwrap();
        let session = engine.session(&a).feature_dim(8).open().unwrap();
        let opts = SubmitOptions::new().tenant("acme");
        let mut tickets = Vec::new();
        for i in 0..quota {
            let b = DenseMatrix::random(a.ncols(), 8, i as u64);
            tickets.push(accept(session.submit(b.clone(), opts.clone())));
        }
        // One over quota: rejected with the tenant's name and an exact
        // backlog-derived hint (quota requests queued, 1 ms each).
        let b = DenseMatrix::random(a.ncols(), 8, 99);
        match session.submit(b, opts.clone()) {
            SubmitOutcome::Rejected { reason, retry_after, .. } => {
                match reason {
                    spmm_common::SpmmError::QuotaExceeded { tenant, retry_after: ra } => {
                        prop_assert_eq!(tenant, "acme".to_string());
                        prop_assert_eq!(ra, Duration::from_millis(quota as u64));
                        prop_assert_eq!(retry_after, Some(ra));
                    }
                    other => panic!("expected QuotaExceeded, got {other:?}"),
                }
            }
            SubmitOutcome::Accepted(_) => panic!("quota must reject"),
            _ => unreachable!("non-exhaustive outcome"),
        }
        // Another tenant is unaffected by acme's backlog.
        let b = DenseMatrix::random(a.ncols(), 8, 100);
        tickets.push(accept(
            session.submit(b, SubmitOptions::new().tenant("other")),
        ));
        engine.run_until_idle();
        for t in tickets {
            prop_assert!(t.wait().is_ok());
        }
        prop_assert_eq!(engine.stats().quota_rejected, 1);
    }

    // Expired requests are dropped before execution: the exact subset
    // with a past-due deadline completes with DeadlineExpired, the rest
    // compute, and no expired request ever reaches the kernel
    // (late_executions stays 0).
    #[test]
    fn expired_work_never_reaches_the_kernel(
        doomed in proptest::collection::vec(0usize..2, 2..10),
        seed in 0u64..1000,
    ) {
        let a = graph(96, seed);
        let engine = Engine::builder()
            .workers(0)
            .queue_capacity(64)
            .build()
            .unwrap();
        let session = engine.session(&a).feature_dim(8).open().unwrap();
        let tickets: Vec<(bool, Ticket)> = doomed
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let b = DenseMatrix::random(a.ncols(), 8, seed * 100 + i as u64);
                let opts = if d == 1 {
                    SubmitOptions::new().deadline(Duration::from_millis(1))
                } else {
                    SubmitOptions::new()
                };
                (d == 1, accept(session.submit(b, opts)))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(5));
        engine.run_until_idle();
        let mut expired = 0u64;
        for (doomed, t) in tickets {
            match t.wait() {
                Ok(_) => prop_assert!(!doomed, "past-due request must not execute"),
                Err(spmm_common::SpmmError::DeadlineExpired { waited }) => {
                    prop_assert!(doomed, "live request must not expire");
                    prop_assert!(waited >= Duration::from_millis(1));
                    expired += 1;
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        let stats = engine.stats();
        prop_assert_eq!(stats.timed_out, expired);
        prop_assert_eq!(stats.late_executions, 0);
    }

    // The metered page budget is a hard ceiling: admission refuses work
    // that does not fit (with a retry hint), the peak watermark never
    // exceeds the budget, and everything admitted still computes.
    #[test]
    fn page_budget_is_never_exceeded(
        budget in 1usize..5,
        submissions in 4usize..16,
    ) {
        let a = graph(96, 11);
        let engine = Engine::builder()
            .workers(0)
            .queue_capacity(64)
            .page_budget(budget)
            .build()
            .unwrap();
        let session = engine.session(&a).feature_dim(8).open().unwrap();
        let mut tickets = Vec::new();
        let mut denied = 0u64;
        for i in 0..submissions {
            let b = DenseMatrix::random(a.ncols(), 8, i as u64);
            match session.submit(b, SubmitOptions::new()) {
                SubmitOutcome::Accepted(t) => tickets.push(t),
                SubmitOutcome::Rejected { reason, retry_after, .. } => {
                    prop_assert!(matches!(
                        reason,
                        spmm_common::SpmmError::Capacity { what: "engine page budget", .. }
                    ));
                    prop_assert!(retry_after.is_some(), "page denial must hint a retry");
                    denied += 1;
                }
                _ => unreachable!("non-exhaustive outcome"),
            }
            prop_assert!(engine.stats().pages_peak <= budget as u64);
        }
        // Operand (96×8×4 B) + output (96×8×4 B) = 6 KiB → 1 page of
        // 64 KiB per request; at least one request must fit any budget
        // checked here only when the budget covers it.
        if budget >= 2 {
            prop_assert!(!tickets.is_empty(), "budget {budget} must admit work");
        }
        prop_assert_eq!(tickets.len() + denied as usize, submissions);
        engine.run_until_idle();
        for t in tickets {
            prop_assert!(t.wait().is_ok());
        }
        let stats = engine.stats();
        prop_assert!(stats.pages_peak <= budget as u64, "peak {} > budget {budget}", stats.pages_peak);
        prop_assert_eq!(stats.page_denials, denied);
    }
}
