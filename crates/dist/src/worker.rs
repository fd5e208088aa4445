//! The shard worker pool: one persistent thread per non-empty shard.
//!
//! Workers own their shard's [`PreparedKernel`] and a reusable
//! [`Workspace`], pull jobs off a per-shard channel, and push outcomes
//! onto one shared results channel. Dropping the pool closes every job
//! channel; workers **drain** jobs already queued before exiting, so
//! coordinator shutdown never abandons accepted work (the engine's
//! drain-on-drop semantics, one level up).

use std::slice;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

use spmm_common::{catch_panic, Result, SpmmError};
use spmm_kernels::{PreparedKernel, Workspace};
use spmm_matrix::DenseMatrix;

/// One unit of shard work.
pub(crate) struct Job {
    /// Multiply sequence number (guards against stale outcomes after a
    /// retry).
    pub epoch: u64,
    /// The dense operand: the multiply's shared B, or the shard's own
    /// halo-assembled operand.
    pub b: Arc<DenseMatrix>,
    /// Whether the job's round leaves cores idle (see
    /// [`round_leaves_cores_idle`]): only then does the job spread its
    /// row loop across every core; in a full round it runs on its own
    /// worker thread.
    pub across_cores: bool,
}

/// Whether a round of `jobs` shard jobs dispatched together leaves some
/// of the host's `threads` idle. A job in such a round spreads its row
/// loop across cores; a job in a full round already has a core of its
/// own, and spreading it too would only stack one spawn round per job
/// on top of oversubscribed cores.
pub(crate) fn round_leaves_cores_idle(jobs: usize, threads: usize) -> bool {
    jobs < threads
}

/// What a worker sends back.
pub(crate) struct Outcome {
    /// Which shard produced it.
    pub shard: usize,
    /// Echo of the job's epoch.
    pub epoch: u64,
    /// The shard's output rows (`rows × feature_dim`), or the failure.
    pub result: Result<DenseMatrix>,
    /// Execution seconds measured on the worker around the kernel call
    /// only (excludes queue wait). Uncontended only when the job ran
    /// alone (`multiply_profiled`); in a concurrent round the jobs share
    /// the host's cores, so a round with more jobs than cores adds
    /// time-slicing to every job's seconds.
    pub busy_seconds: f64,
    /// The job's operand, so a retry can resend it.
    pub b: Arc<DenseMatrix>,
}

struct ShardWorker {
    sender: mpsc::Sender<Job>,
    handle: Option<JoinHandle<()>>,
    /// Panic inside the next N jobs (test hook for panic containment
    /// and the retry path; see [`WorkerPool::inject_failures`]).
    fail_next: Arc<AtomicU32>,
}

/// The coordinator's handle to every shard worker.
pub(crate) struct WorkerPool {
    /// Indexed by shard id; `None` for empty shards (no thread).
    workers: Vec<Option<ShardWorker>>,
    results_rx: mpsc::Receiver<Outcome>,
    /// Jobs fully processed across all workers (drain observability).
    processed: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawn one worker per `Some` kernel; `None` slots (empty shards)
    /// get no thread.
    pub fn spawn(kernels: &[Option<Arc<PreparedKernel>>]) -> WorkerPool {
        let (results_tx, results_rx) = mpsc::channel::<Outcome>();
        let processed = Arc::new(AtomicU64::new(0));
        let workers = kernels
            .iter()
            .enumerate()
            .map(|(shard, kernel)| {
                let kernel = Arc::clone(kernel.as_ref()?);
                let results_tx = results_tx.clone();
                let fail_next = Arc::new(AtomicU32::new(0));
                let fail = Arc::clone(&fail_next);
                let processed = Arc::clone(&processed);
                let (sender, rx) = mpsc::channel::<Job>();
                let handle = std::thread::Builder::new()
                    .name(format!("spmm-dist-{shard}"))
                    .spawn(move || worker_loop(shard, &kernel, &rx, &results_tx, &fail, &processed))
                    .expect("spawn dist worker");
                Some(ShardWorker {
                    sender,
                    handle: Some(handle),
                    fail_next,
                })
            })
            .collect();
        WorkerPool {
            workers,
            results_rx,
            processed,
        }
    }

    /// Whether `shard` has a live worker (false for empty shards).
    #[cfg(test)]
    pub fn has_worker(&self, shard: usize) -> bool {
        self.workers.get(shard).is_some_and(|w| w.is_some())
    }

    /// Queue a job on `shard`'s worker.
    pub fn submit(&self, shard: usize, job: Job) -> Result<()> {
        let worker = self.workers[shard].as_ref().ok_or(SpmmError::Capacity {
            what: "empty shard has no worker",
            capacity: 0,
        })?;
        worker.sender.send(job).map_err(|_| SpmmError::Capacity {
            what: "dist worker (shut down)",
            capacity: 0,
        })
    }

    /// Block for the next outcome from any shard.
    pub fn recv(&self) -> Result<Outcome> {
        self.results_rx.recv().map_err(|_| SpmmError::Capacity {
            what: "dist workers (all exited)",
            capacity: 0,
        })
    }

    /// Jobs fully processed since spawn.
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Make `shard`'s worker panic inside its next `times` jobs; each
    /// panic is caught at the job boundary and comes back as a
    /// [`SpmmError::Panicked`] outcome (exercises panic containment and
    /// the coordinator's retry path).
    pub fn inject_failures(&self, shard: usize, times: u32) {
        if let Some(w) = self.workers[shard].as_ref() {
            w.fail_next.store(times, Ordering::SeqCst);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels lets each worker drain what's queued
        // and exit; joining makes the drain synchronous.
        for w in self.workers.iter_mut().flatten() {
            drop(std::mem::replace(&mut w.sender, dead_sender()));
        }
        for w in self.workers.iter_mut().flatten() {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// A sender whose receiver is already gone (placeholder after close).
fn dead_sender() -> mpsc::Sender<Job> {
    mpsc::channel().0
}

fn worker_loop(
    shard: usize,
    kernel: &PreparedKernel,
    rx: &mpsc::Receiver<Job>,
    results: &mpsc::Sender<Outcome>,
    fail_next: &AtomicU32,
    processed: &AtomicU64,
) {
    let mut ws = Workspace::for_plan(kernel.execution_plan());
    // `for` over the receiver drains queued jobs after the senders drop.
    for job in rx.iter() {
        let outcome = run_job(shard, kernel, &mut ws, fail_next, job);
        processed.fetch_add(1, Ordering::Relaxed);
        spmm_trace::counter_add("dist.jobs", 1);
        if results.send(outcome).is_err() {
            // Coordinator gone; keep draining so submitted work is
            // accounted, but nobody hears the results.
            continue;
        }
    }
}

/// Run one job's kernel call. A panic inside it is caught here and
/// becomes the job's `Err` outcome, so the worker lives on to serve the
/// retry; the workspace the panic may have left half-written is
/// replaced.
fn run_job(
    shard: usize,
    kernel: &PreparedKernel,
    ws: &mut Workspace,
    fail_next: &AtomicU32,
    job: Job,
) -> Outcome {
    let _span = spmm_trace::span("dist.shard_execute");
    let b = &*job.b;
    let mut out = DenseMatrix::zeros(kernel.csr().nrows(), b.ncols());
    let t0 = Instant::now();
    let result = catch_panic("dist shard job", || {
        if fail_next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            spmm_trace::counter_add("dist.injected_failures", 1);
            panic!("injected failure on shard {shard}");
        }
        let run = if job.across_cores {
            kernel.execute_into(b, &mut out, ws)
        } else {
            kernel.execute_batch_into(
                slice::from_ref(b),
                slice::from_mut(&mut out),
                slice::from_mut(ws),
            )
        };
        run.map(|()| out)
    });
    let busy_seconds = t0.elapsed().as_secs_f64();
    if matches!(result, Err(SpmmError::Panicked { .. })) {
        *ws = Workspace::for_plan(kernel.execution_plan());
    }
    Outcome {
        shard,
        epoch: job.epoch,
        result,
        busy_seconds,
        b: job.b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_kernels::KernelKind;
    use spmm_matrix::gen::uniform_random;

    fn kernel(n: usize) -> Arc<PreparedKernel> {
        let m = uniform_random(n, 4.0, 9);
        Arc::new(
            PreparedKernel::builder(KernelKind::CusparseLike, &m)
                .feature_dim(8)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let k = kernel(64);
        let pool = WorkerPool::spawn(&[Some(Arc::clone(&k))]);
        let b = Arc::new(DenseMatrix::random(64, 8, 1));
        for epoch in 0..5 {
            pool.submit(
                0,
                Job {
                    epoch,
                    b: Arc::clone(&b),
                    across_cores: epoch % 2 == 0,
                },
            )
            .unwrap();
        }
        // Drop without receiving: the worker must still process all 5.
        let processed = Arc::clone(&pool.processed);
        drop(pool);
        assert_eq!(processed.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn injected_failures_return_errors_then_recover() {
        let k = kernel(32);
        let pool = WorkerPool::spawn(&[Some(k)]);
        pool.inject_failures(0, 2);
        let b = Arc::new(DenseMatrix::random(32, 8, 2));
        for epoch in 0..3 {
            pool.submit(
                0,
                Job {
                    epoch,
                    b: Arc::clone(&b),
                    across_cores: false,
                },
            )
            .unwrap();
        }
        let outcomes: Vec<Outcome> = (0..3).map(|_| pool.recv().unwrap()).collect();
        let failures = outcomes.iter().filter(|o| o.result.is_err()).count();
        assert_eq!(failures, 2);
        assert!(outcomes.iter().any(|o| o.result.is_ok()));
    }

    #[test]
    fn only_a_round_with_fewer_jobs_than_threads_spreads_across_cores() {
        for threads in [1, 2, 3, 8] {
            for jobs in 1..threads {
                assert!(round_leaves_cores_idle(jobs, threads), "{jobs} < {threads}");
            }
            assert!(!round_leaves_cores_idle(threads, threads), "{threads} jobs");
            assert!(!round_leaves_cores_idle(threads + 1, threads));
            assert!(!round_leaves_cores_idle(4 * threads, threads));
        }
    }

    #[test]
    fn empty_shard_slots_have_no_worker() {
        let k = kernel(16);
        let pool = WorkerPool::spawn(&[None, Some(k)]);
        assert!(!pool.has_worker(0));
        assert!(pool.has_worker(1));
        assert!(pool
            .submit(
                0,
                Job {
                    epoch: 0,
                    b: Arc::new(DenseMatrix::zeros(16, 8)),
                    across_cores: true,
                }
            )
            .is_err());
    }
}
