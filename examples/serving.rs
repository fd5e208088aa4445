//! QoS serving: many tenants with different priorities share one
//! preprocessed operand through the engine's plan cache, weighted fair
//! queue, and paged workspace allocator.
//!
//! Run with: `cargo run --release --example serving`

use acc_spmm::matrix::gen;
use acc_spmm::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Staging cap in 64 KiB pages: 4096 pages = 256 MiB.
const PAGE_BUDGET: usize = 4096;

fn main() {
    let engine = Arc::new(
        Engine::builder()
            .workers(2)
            .max_batch(8)
            .batch_window(Duration::from_micros(200))
            .queue_capacity(64)
            .tenant_quota(16)
            .page_budget(PAGE_BUDGET)
            .build()
            .unwrap(),
    );

    // One shared power-law graph; every client multiplies against it.
    let a = Arc::new(gen::rmat(
        gen::RmatConfig {
            scale: 12,
            avg_deg: 12.0,
            ..Default::default()
        },
        42,
    ));
    let dim = 32;
    let rounds = 32;

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for client in 0..8u64 {
            let engine = Arc::clone(&engine);
            let a = Arc::clone(&a);
            s.spawn(move || {
                // All eight clients race to open a session; the plan
                // cache builds the kernel exactly once. Two of them are
                // latency-sensitive, the rest run as bulk traffic.
                let session = engine.session(&a).feature_dim(dim).open().unwrap();
                let opts = SubmitOptions::new()
                    .tenant(format!("client-{client}"))
                    .priority(if client < 2 {
                        Priority::Interactive
                    } else {
                        Priority::Batch
                    })
                    .deadline(Duration::from_secs(5));
                for r in 0..rounds {
                    let b = DenseMatrix::random(a.ncols(), dim, client * 1000 + r);
                    match session.submit(b.clone(), opts.clone()) {
                        SubmitOutcome::Accepted(ticket) => {
                            // A micro-batch runs its RHS in cache-sized
                            // groups (pairs here, at 4096 rows × 32
                            // columns); every served result must still
                            // equal a lone multiply bit for bit.
                            let c = ticket.wait().unwrap();
                            let want = session.plan().execute(&b).unwrap();
                            assert_eq!(c.nrows(), a.nrows());
                            assert!(
                                c.as_slice()
                                    .iter()
                                    .map(|v| v.to_bits())
                                    .eq(want.as_slice().iter().map(|v| v.to_bits())),
                                "client {client} round {r}: served result differs from execute"
                            );
                        }
                        SubmitOutcome::Rejected { retry_after, .. } => {
                            // Admission control said no — back off for
                            // the hinted interval instead of hammering.
                            if let Some(wait) = retry_after {
                                std::thread::sleep(wait.min(Duration::from_millis(5)));
                            }
                        }
                        _ => unreachable!("non-exhaustive outcome"),
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed();

    let stats = engine.stats();
    println!("8 clients x {rounds} multiplies in {elapsed:.2?}");
    println!(
        "plan builds: {} (cache hits {}, misses {})",
        stats.plan_builds, stats.cache_hits, stats.cache_misses
    );
    println!(
        "batches: {} carrying {} requests (avg occupancy {:.2})",
        stats.batches,
        stats.batched_requests,
        stats.batched_requests as f64 / stats.batches.max(1) as f64
    );
    println!(
        "served interactive/standard/batch: {}/{}/{}",
        stats.served[0], stats.served[1], stats.served[2]
    );
    println!(
        "rejected: {} (quota {}), expired: {}, late executions: {}",
        stats.rejected, stats.quota_rejected, stats.timed_out, stats.late_executions
    );
    println!(
        "pages: peak {} of {} budget ({} evictions, {} denials)",
        stats.pages_peak, PAGE_BUDGET, stats.page_evictions, stats.page_denials
    );
}
