//! # spmm-engine — a QoS serving tier for Acc-SpMM
//!
//! The paper's deployment regime (§5) preprocesses a sparse matrix once
//! and multiplies it against thousands of dense operands. This crate
//! turns that pattern into a *service*: many concurrent clients and
//! tenants, a shared stock of preprocessing artifacts, and explicit
//! admission-control, fairness, and memory-bound semantics under load.
//!
//! Five cooperating pieces:
//!
//! * **Plan cache** — bounded LRU keyed by matrix content fingerprint +
//!   kernel + [`Arch`] + feature dim + [`AccConfig`]. Concurrent
//!   sessions for the same operand share one [`PreparedKernel`] behind
//!   an `Arc`; a per-key in-flight guard makes N simultaneous
//!   first-lookups run exactly one build.
//! * **QoS queue** — submitted multiplies land in one bounded deque per
//!   [`Priority`] class; workers dequeue by a weighted fair (stride)
//!   schedule, so interactive traffic is not inverted behind bulk work
//!   and bulk work is never starved.
//! * **Admission control** — a full queue, a [`Tenant`] at its quota,
//!   or a request that would blow the page budget is refused *at
//!   submit* ([`SubmitOutcome::Rejected`]) with a `retry_after` hint
//!   derived from the measured service rate — never a blanket error
//!   with no guidance, never a block.
//! * **Deadline-aware scheduling** — a request whose deadline passes
//!   while it queues is dropped *before execution* (typed
//!   [`SpmmError::DeadlineExpired`], with the actual queued duration),
//!   so expired work never burns a kernel invocation.
//! * **Paged workspaces** — operand copies, output buffers, and worker
//!   workspaces are charged in fixed-size 64 KiB pages against a hard
//!   budget with LRU eviction of idle workspaces, so peak staging memory
//!   is bounded and observable under hundreds of concurrent sessions.
//!
//! Failures stay typed and contained. Micro-batching coalesces same-key
//! requests into one [`PreparedKernel::execute_batch_into`] call, spread
//! over the host threads the workers leave idle (each worker may use
//! `max(1, rayon::current_num_threads() / workers)` of them, one pooled
//! workspace each); a panic inside that call, on any of its threads,
//! fails only the batch's tickets (with [`SpmmError::Panicked`]) and the
//! worker keeps serving. A plan that
//! fails to build fails [`SessionBuilder::open`] with the build's
//! [`SpmmError::Build`]: the engine never serves a kernel other than
//! the one asked for.
//!
//! Everything is observable through `spmm-trace` counters
//! (`engine.enqueued` / `engine.dequeued`, `engine.batches` /
//! `engine.batched_requests`, `engine.cache_hits` /
//! `engine.cache_misses`, `engine.rejected`, the QoS taxonomy
//! `engine.qos.served.<class>` / `engine.qos.quota_rejected` /
//! `engine.qos.expired` /
//! `engine.qos.late_executions`, and the paging taxonomy
//! `engine.pages.leased` / `engine.pages.released` /
//! `engine.pages.denied` / `engine.pages.evictions` /
//! `engine.pages.peak`) and the in-process [`EngineStats`] snapshot,
//! which works even with tracing disabled.
//!
//! ```
//! use spmm_engine::{Engine, Priority, SubmitOptions, SubmitOutcome};
//! use spmm_matrix::{gen, DenseMatrix};
//!
//! let engine = Engine::builder().workers(2).build().unwrap();
//! let a = gen::uniform_random(256, 6.0, 42);
//! let session = engine.session(&a).feature_dim(32).open().unwrap();
//!
//! // Synchronous round trip...
//! let b = DenseMatrix::random(256, 32, 7);
//! let c = session.multiply(&b).unwrap();
//! assert_eq!(c.nrows(), 256);
//!
//! // ...or pipelined with QoS options: submit now, redeem later.
//! let opts = SubmitOptions::new().priority(Priority::Interactive).tenant("demo");
//! match session.submit(b.clone(), opts) {
//!     SubmitOutcome::Accepted(ticket) => assert_eq!(ticket.wait().unwrap(), c),
//!     SubmitOutcome::Rejected { retry_after, .. } => panic!("retry in {retry_after:?}"),
//!     _ => unreachable!("non-exhaustive outcome"),
//! }
//! assert_eq!(engine.stats().cache_misses, 1);
//! ```

mod cache;
mod pages;
mod qos;
mod queue;

pub use qos::{Priority, SubmitOptions, Tenant};
pub use queue::Ticket;

use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spmm_common::{catch_panic, Result, SpmmError};
use spmm_kernels::{AccConfig, KernelKind, PreparedKernel, RepairReport, Workspace};
use spmm_matrix::{CsrMatrix, DenseMatrix};
use spmm_sim::Arch;

use cache::{PlanCache, PlanKey};
use pages::{PageLease, PagePool, WorkspaceLease, DEFAULT_PAGE_BYTES};
use queue::{Push, Request, RequestQueue, TicketShared};

/// Assumed per-request service time before any sample has been
/// measured; keeps `retry_after` hints well-defined from the first
/// rejection (and their formula exactly testable).
const DEFAULT_SERVICE_NS: u64 = 1_000_000;

/// `retry_after` hints are clamped to `[100 µs, 10 s]`.
const RETRY_AFTER_MIN: Duration = Duration::from_micros(100);
/// See [`RETRY_AFTER_MIN`].
const RETRY_AFTER_MAX: Duration = Duration::from_secs(10);

/// Tunables for [`Engine`], set through [`EngineBuilder`].
#[derive(Debug, Clone)]
struct EngineConfig {
    /// Worker threads executing queued multiplies. `0` is allowed: no
    /// background threads; drive the engine inline with
    /// [`Engine::run_until_idle`] (single-threaded embeddings and
    /// tests). Defaults to one per host thread,
    /// `rayon::current_num_threads()`, the count the batch spread
    /// divides, so a default engine runs each batch on its worker.
    workers: usize,
    /// Bounded queue length; submissions beyond it are rejected.
    queue_capacity: usize,
    /// How long a worker waits for same-key stragglers before running a
    /// short batch.
    batch_window: Duration,
    /// Maximum requests coalesced into one batch.
    max_batch: usize,
    /// Plans the LRU cache retains.
    plan_cache_capacity: usize,
    /// Maximum queued requests per tenant; beyond it submissions are
    /// refused with [`SpmmError::QuotaExceeded`]. `None` = no quota.
    tenant_quota: Option<usize>,
    /// Hard page budget for all staged memory (operand copies, output
    /// buffers, idle worker workspaces). `None` = unbounded (metering
    /// still runs, admission never refuses on pages).
    page_budget: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: rayon::current_num_threads(),
            queue_capacity: 256,
            batch_window: Duration::from_micros(200),
            max_batch: 16,
            plan_cache_capacity: 32,
            tenant_quota: None,
            page_budget: None,
        }
    }
}

/// Builder for [`Engine`] — the single construction path.
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    config: EngineConfig,
}

impl EngineBuilder {
    /// Number of worker threads (0 = inline [`Engine::run_until_idle`]
    /// mode).
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = n;
        self
    }

    /// Bounded queue capacity (must be ≥ 1).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.config.queue_capacity = n;
        self
    }

    /// Micro-batch coalescing window.
    pub fn batch_window(mut self, window: Duration) -> Self {
        self.config.batch_window = window;
        self
    }

    /// Maximum batch size (must be ≥ 1).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.config.max_batch = n;
        self
    }

    /// Plan cache capacity (must be ≥ 1).
    pub fn plan_cache_capacity(mut self, n: usize) -> Self {
        self.config.plan_cache_capacity = n;
        self
    }

    /// Per-tenant queued-request quota (must be ≥ 1).
    pub fn tenant_quota(mut self, n: usize) -> Self {
        self.config.tenant_quota = Some(n);
        self
    }

    /// Hard page budget for staged memory (must be ≥ 1). Submissions
    /// whose operand + output staging cannot fit are refused with a
    /// `retry_after` hint.
    pub fn page_budget(mut self, pages: usize) -> Self {
        self.config.page_budget = Some(pages);
        self
    }

    /// Validate the configuration and start the worker pool.
    pub fn build(self) -> Result<Engine> {
        let threads_per_worker = (rayon::current_num_threads() / self.config.workers.max(1)).max(1);
        self.start(threads_per_worker)
    }

    /// [`EngineBuilder::build`] with the number of threads one batch may
    /// spread over given.
    fn start(self, threads_per_worker: usize) -> Result<Engine> {
        let c = &self.config;
        if c.queue_capacity == 0 || c.max_batch == 0 || c.plan_cache_capacity == 0 {
            return Err(SpmmError::InvalidConfig(
                "engine queue_capacity, max_batch and plan_cache_capacity must be >= 1".into(),
            ));
        }
        if c.page_budget == Some(0) || c.tenant_quota == Some(0) {
            return Err(SpmmError::InvalidConfig(
                "engine page_budget and tenant_quota must be >= 1".into(),
            ));
        }
        let cache = PlanCache::new(c.plan_cache_capacity);
        let shared = Arc::new(EngineShared {
            cache,
            queue: RequestQueue::new(c.queue_capacity, c.tenant_quota),
            pages: PagePool::new(DEFAULT_PAGE_BYTES, c.page_budget.unwrap_or(usize::MAX)),
            metrics: Metrics::default(),
            avg_service_ns: AtomicU64::new(0),
            config: self.config.clone(),
            threads_per_worker,
            #[cfg(test)]
            panics: PanicInjection::default(),
        });
        let workers = (0..c.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("spmm-engine-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn engine worker")
            })
            .collect();
        Ok(Engine { shared, workers })
    }
}

/// Monotonic engine counters, kept in-process (and mirrored to
/// `spmm-trace` when a measurement window is open).
#[derive(Debug, Default)]
struct Metrics {
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    rejected: AtomicU64,
    quota_rejected: AtomicU64,
    expired: AtomicU64,
    late_executions: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    served: [AtomicU64; Priority::COUNT],
    /// Gauge (not monotonic): requests currently executing inside a
    /// batch on some worker (or `run_until_idle` caller).
    in_flight: AtomicU64,
}

impl Metrics {
    fn bump(&self, which: &AtomicU64, trace_name: &'static str, delta: u64) {
        which.fetch_add(delta, Ordering::Relaxed);
        spmm_trace::counter_add(trace_name, delta);
    }

    fn bump_served(&self, class: Priority, delta: u64) {
        self.served[class.index()].fetch_add(delta, Ordering::Relaxed);
        let name = match class {
            Priority::Interactive => "engine.qos.served.interactive",
            Priority::Standard => "engine.qos.served.standard",
            Priority::Batch => "engine.qos.served.batch",
        };
        spmm_trace::counter_add(name, delta);
    }
}

/// A point-in-time snapshot of every engine counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineStats {
    /// Requests admitted to the queue.
    pub enqueued: u64,
    /// Requests taken off the queue (executed or expired).
    pub dequeued: u64,
    /// Submissions rejected by backpressure (full queue or page
    /// budget).
    pub rejected: u64,
    /// Submissions refused because their tenant was at quota.
    pub quota_rejected: u64,
    /// Requests dropped before execution because their deadline passed
    /// while queued ([`SpmmError::DeadlineExpired`]).
    pub timed_out: u64,
    /// Executions that *started* past their request's deadline — the
    /// deadline-scheduling invariant is that this stays 0.
    pub late_executions: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Requests carried inside those batches (occupancy =
    /// `batched_requests / batches`).
    pub batched_requests: u64,
    /// Requests executed to completion, per priority class (indexed by
    /// [`Priority::index`]).
    pub served: [u64; Priority::COUNT],
    /// Plan-cache lookups served from a ready entry.
    pub cache_hits: u64,
    /// Plan-cache lookups that required (or waited on) a build.
    pub cache_misses: u64,
    /// Plans actually built.
    pub plan_builds: u64,
    /// Plans evicted by the LRU bound.
    pub cache_evictions: u64,
    /// Requests currently queued.
    pub queue_depth: u64,
    /// Requests currently executing (dequeued, inside a batch, not yet
    /// completed).
    pub in_flight: u64,
    /// Pages currently charged against the page budget.
    pub pages_in_use: u64,
    /// High-water mark of `pages_in_use`.
    pub pages_peak: u64,
    /// Idle workspaces evicted to make room under the page budget.
    pub page_evictions: u64,
    /// Submissions refused for want of pages.
    pub page_denials: u64,
}

struct EngineShared {
    config: EngineConfig,
    /// Threads one batch may spread over: the host's threads
    /// (`rayon::current_num_threads()`) divided among the workers, at
    /// least 1. An engine with fewer workers than threads runs a batch
    /// of several requests on the threads its workers leave idle; one
    /// with a worker per thread runs every batch on its worker.
    threads_per_worker: usize,
    cache: PlanCache,
    queue: RequestQueue,
    pages: Arc<PagePool>,
    metrics: Metrics,
    /// EWMA of per-request service time (ns); feeds `retry_after`
    /// estimation. 0 = no sample yet ([`DEFAULT_SERVICE_NS`] assumed).
    avg_service_ns: AtomicU64,
    #[cfg(test)]
    panics: PanicInjection,
}

/// Test hook: make the next `remaining` batches panic inside the
/// kernel-call boundary, counting the requests they carried.
#[cfg(test)]
#[derive(Default)]
struct PanicInjection {
    remaining: std::sync::atomic::AtomicU32,
    requests: AtomicU64,
}

#[cfg(test)]
impl PanicInjection {
    fn maybe_panic(&self, requests: usize) {
        let take = |n: u32| n.checked_sub(1);
        if self
            .remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, take)
            .is_ok()
        {
            self.requests.fetch_add(requests as u64, Ordering::SeqCst);
            panic!("injected panic in a batch of {requests}");
        }
    }
}

impl EngineShared {
    /// Estimate how long a rejected caller should wait before retrying:
    /// the backlog ahead of them divided across the workers, at the
    /// measured (EWMA) per-request service time, clamped to
    /// `[100 µs, 10 s]`.
    fn estimate_retry_after(&self, backlog: u64) -> Duration {
        let avg = match self.avg_service_ns.load(Ordering::Relaxed) {
            0 => DEFAULT_SERVICE_NS,
            ns => ns,
        };
        let workers = self.config.workers.max(1) as u64;
        let est = Duration::from_nanos(backlog.max(1).saturating_mul(avg) / workers);
        est.clamp(RETRY_AFTER_MIN, RETRY_AFTER_MAX)
    }

    /// Fold one per-request service-time sample into the EWMA
    /// (α = 1/4, integer arithmetic).
    fn record_service_time(&self, per_request: Duration) {
        let sample = per_request.as_nanos().min(u128::from(u64::MAX)) as i64;
        let old = self.avg_service_ns.load(Ordering::Relaxed) as i64;
        let new = if old == 0 {
            sample
        } else {
            old + (sample - old) / 4
        };
        self.avg_service_ns
            .store(new.max(1) as u64, Ordering::Relaxed);
    }
}

/// The serving engine: a plan cache plus a QoS queue, paged workspace
/// allocator, and micro-batching worker pool.
///
/// Thread-safe by construction — share it behind an `Arc` (or just
/// open [`Session`]s, which are `Clone + Send + Sync` and keep the
/// engine's shared state alive). Dropping the engine shuts the queue
/// down, drains already-queued requests, and joins the workers.
pub struct Engine {
    shared: Arc<EngineShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Start building an engine (see [`EngineBuilder`] for the knobs).
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Start configuring a session over operand `a`.
    pub fn session<'e, 'a>(&'e self, a: &'a CsrMatrix) -> SessionBuilder<'e, 'a> {
        SessionBuilder {
            engine: &self.shared,
            a,
            kind: KernelKind::AccSpmm,
            arch: Arch::A800,
            feature_dim: 128,
            config: AccConfig::full(),
        }
    }

    /// Adopt an externally-prepared kernel as a ready cache entry and
    /// open a session on it — no rebuild, immediate cache hits for
    /// every later `session()` with the same identity.
    pub fn install(&self, prepared: PreparedKernel) -> Session {
        let plan = Arc::new(prepared);
        let key = PlanKey {
            fingerprint: plan.execution_plan().input_fingerprint(),
            kind: plan.kind(),
            arch: plan.execution_plan().arch(),
            feature_dim: plan.feature_dim(),
            config: *plan.execution_plan().config(),
        };
        self.shared.cache.install(key, Arc::clone(&plan));
        Session {
            engine: Arc::clone(&self.shared),
            key,
            plan,
        }
    }

    /// Snapshot every counter (works with tracing disabled).
    pub fn stats(&self) -> EngineStats {
        let m = &self.shared.metrics;
        let c = self.shared.cache.stats();
        let p = self.shared.pages.stats();
        EngineStats {
            enqueued: m.enqueued.load(Ordering::Relaxed),
            dequeued: m.dequeued.load(Ordering::Relaxed),
            rejected: m.rejected.load(Ordering::Relaxed),
            quota_rejected: m.quota_rejected.load(Ordering::Relaxed),
            timed_out: m.expired.load(Ordering::Relaxed),
            late_executions: m.late_executions.load(Ordering::Relaxed),
            batches: m.batches.load(Ordering::Relaxed),
            batched_requests: m.batched_requests.load(Ordering::Relaxed),
            served: [
                m.served[0].load(Ordering::Relaxed),
                m.served[1].load(Ordering::Relaxed),
                m.served[2].load(Ordering::Relaxed),
            ],
            cache_hits: c.hits,
            cache_misses: c.misses,
            plan_builds: c.builds,
            cache_evictions: c.evictions,
            queue_depth: self.shared.queue.len() as u64,
            in_flight: m.in_flight.load(Ordering::Relaxed),
            pages_in_use: p.in_use as u64,
            pages_peak: p.peak as u64,
            page_evictions: p.evictions,
            page_denials: p.denials,
        }
    }

    /// Drive a zero-worker engine inline until its queue is empty:
    /// repeatedly pop (by the same weighted fair schedule the workers
    /// use), coalesce a micro-batch, execute or expire it on the
    /// calling thread. Returns the number of requests resolved.
    ///
    /// **Determinism:** with `workers = 0`, every effect happens on the
    /// calling thread in schedule order — no background threads, no
    /// racing clocks — so tests and single-threaded embeddings get
    /// reproducible interleavings. Calls from a worker-ful engine are
    /// allowed and simply steal work inline.
    pub fn run_until_idle(&self) -> usize {
        let mut total = 0;
        while let Some(first) = self.shared.queue.try_pop() {
            total += run_batch(&self.shared, first);
        }
        total
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shared.queue.shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Zero-worker engines may still hold queued requests: fail them
        // so no ticket waits forever. Dropping each request's lease
        // releases its pages.
        while let Some(req) = self.shared.queue.try_pop() {
            self.shared
                .metrics
                .bump(&self.shared.metrics.dequeued, "engine.dequeued", 1);
            req.ticket.complete(
                Err(SpmmError::Capacity {
                    what: "engine (shut down)",
                    capacity: 0,
                }),
                None,
            );
        }
    }
}

/// Configures one serving session; created by [`Engine::session`].
#[derive(Clone)]
pub struct SessionBuilder<'e, 'a> {
    engine: &'e Arc<EngineShared>,
    a: &'a CsrMatrix,
    kind: KernelKind,
    arch: Arch,
    feature_dim: usize,
    config: AccConfig,
}

impl SessionBuilder<'_, '_> {
    /// Kernel strategy to serve (default [`KernelKind::AccSpmm`]).
    pub fn kind(mut self, kind: KernelKind) -> Self {
        self.kind = kind;
        self
    }

    /// Target architecture.
    pub fn arch(mut self, arch: Arch) -> Self {
        self.arch = arch;
        self
    }

    /// Feature dimension the plan is specialized for.
    pub fn feature_dim(mut self, n: usize) -> Self {
        self.feature_dim = n;
        self
    }

    /// Acc ablation configuration.
    pub fn config(mut self, config: AccConfig) -> Self {
        self.config = config;
        self
    }

    /// Resolve the plan through the shared cache (building it at most
    /// once across all concurrent callers) and open the session. A plan
    /// that fails to build fails the open with the build's error
    /// ([`SpmmError::Build`]).
    pub fn open(self) -> Result<Session> {
        let key = PlanKey {
            fingerprint: self.a.content_fingerprint(),
            kind: self.kind,
            arch: self.arch,
            feature_dim: self.feature_dim,
            config: self.config,
        };
        let plan = self.engine.cache.get_or_build(key, || {
            PreparedKernel::builder(self.kind, self.a)
                .arch(self.arch)
                .feature_dim(self.feature_dim)
                .config(self.config)
                .build()
        })?;
        Ok(Session {
            engine: Arc::clone(self.engine),
            key,
            plan,
        })
    }
}

/// The outcome of a submission ([`Session::submit`]).
#[must_use]
#[non_exhaustive]
pub enum SubmitOutcome {
    /// Queued; redeem the ticket for the result.
    Accepted(Ticket),
    /// Admission control refused the request: backpressure (full queue
    /// or page budget), a tenant at quota, or a shut-down engine. The
    /// operand comes back so the caller can retry.
    Rejected {
        /// The dense operand, returned unchanged.
        operand: DenseMatrix,
        /// When a retry is expected to succeed, estimated from the
        /// backlog and the measured service rate. `None` when retrying
        /// cannot help (shape mismatch, shut-down engine).
        retry_after: Option<Duration>,
        /// The typed refusal ([`SpmmError::Capacity`],
        /// [`SpmmError::QuotaExceeded`], or a shape error).
        reason: SpmmError,
    },
}

impl SubmitOutcome {
    /// Collapse into a `Result`, discarding the returned operand and
    /// `retry_after` hint — convenient when rejection is just an error.
    pub fn into_result(self) -> Result<Ticket> {
        match self {
            SubmitOutcome::Accepted(t) => Ok(t),
            SubmitOutcome::Rejected { reason, .. } => Err(reason),
        }
    }
}

/// A client's binding to one cached plan — cheap to clone, safe to
/// share across threads, keeps the engine's shared state (queue,
/// cache, workers' data) alive.
#[derive(Clone)]
pub struct Session {
    engine: Arc<EngineShared>,
    /// The cache key this session's requests coalesce under.
    key: PlanKey,
    plan: Arc<PreparedKernel>,
}

impl Session {
    /// The shared prepared kernel (for inspection/profiling).
    pub fn plan(&self) -> &Arc<PreparedKernel> {
        &self.plan
    }

    /// Apply a dynamic-graph edge delta to this session's operand:
    /// repair the plan (derive the host part of the compacted operand —
    /// see [`ExecutionPlan::repair`](spmm_kernels::ExecutionPlan)),
    /// invalidate the superseded matrix's plans in the shared cache
    /// (plans for other matrices stay resident), and rebind the session
    /// to the repaired plan under its new fingerprint. The repaired plan
    /// is installed in the cache, so concurrent sessions on the updated
    /// matrix share it.
    ///
    /// The delta's base must be the operand this session's plan was
    /// built from. A clean delta is a no-op: nothing is invalidated,
    /// the session keeps its plan. In-flight requests already hold an
    /// `Arc` to the old plan and complete against it; requests
    /// submitted after this call see the updated operand.
    pub fn apply_delta(&mut self, delta: &spmm_delta::DeltaCsr) -> Result<RepairReport> {
        let (repaired, report) = self.plan.execution_plan().repair(delta)?;
        if delta.is_clean() {
            return Ok(report);
        }
        let old_fingerprint = self.key.fingerprint;
        let new_key = PlanKey {
            fingerprint: repaired.input_fingerprint(),
            ..self.key
        };
        let plan = Arc::new(PreparedKernel::from_plan(repaired));
        self.engine.cache.invalidate_matrix(old_fingerprint);
        self.engine.cache.install(new_key, Arc::clone(&plan));
        self.key = new_key;
        self.plan = plan;
        spmm_trace::counter_add("engine.deltas_applied", 1);
        spmm_trace::counter_add("engine.delta_edges", report.edges_applied as u64);
        Ok(report)
    }

    /// Submit a multiply with explicit QoS options — the single
    /// submission surface (priority class, tenant, deadline all ride in
    /// [`SubmitOptions`]; `SubmitOptions::new()` gives the defaults).
    ///
    /// Admission control runs entirely on the calling thread: shape
    /// validation, page-budget leasing for the operand + output
    /// staging, the tenant quota, and queue backpressure. A refusal
    /// comes back as [`SubmitOutcome::Rejected`] with the operand and a
    /// `retry_after` hint — no blocking, no panics.
    pub fn submit(&self, b: DenseMatrix, opts: SubmitOptions) -> SubmitOutcome {
        let (priority, tenant, deadline) = opts.into_parts();
        // Validate the shape *before* queueing so malformed requests
        // fail fast on the client thread.
        let a_cols = self.plan.csr().ncols();
        if b.nrows() != a_cols {
            return SubmitOutcome::Rejected {
                reason: SpmmError::shape(format!(
                    "A is {}x{}, B is {}x{}",
                    self.plan.csr().nrows(),
                    a_cols,
                    b.nrows(),
                    b.ncols()
                )),
                retry_after: None,
                operand: b,
            };
        }
        // Lease pages for the staging this request will pin: the
        // operand copy (alive until executed) plus the output buffer
        // (alive until the result is taken). Both sizes are exact at
        // submit time, so over-budget work is refused here, never
        // blocked mid-execution.
        let f32s = std::mem::size_of::<f32>();
        let operand_bytes = b.nrows() * b.ncols() * f32s;
        let output_bytes = self.plan.csr().nrows() * b.ncols() * f32s;
        let lease = match self.engine.pages.try_lease(operand_bytes + output_bytes) {
            Some(lease) => lease,
            None => {
                let m = &self.engine.metrics;
                m.bump(&m.rejected, "engine.rejected", 1);
                return SubmitOutcome::Rejected {
                    operand: b,
                    retry_after: Some(
                        self.engine
                            .estimate_retry_after(self.engine.queue.len() as u64),
                    ),
                    reason: SpmmError::Capacity {
                        what: "engine page budget",
                        capacity: self.engine.pages.budget(),
                    },
                };
            }
        };
        let ticket = TicketShared::new();
        let req = Request {
            key: self.key,
            plan: Arc::clone(&self.plan),
            b,
            ticket: Arc::clone(&ticket),
            priority,
            tenant,
            enqueued_at: Instant::now(),
            deadline: deadline.map(|d| Instant::now() + d),
            lease: Some(lease),
        };
        let m = &self.engine.metrics;
        match self.engine.queue.try_push(req) {
            Push::Ok => {
                m.bump(&m.enqueued, "engine.enqueued", 1);
                SubmitOutcome::Accepted(Ticket { shared: ticket })
            }
            Push::Quota { req, queued } => {
                m.bump(&m.quota_rejected, "engine.qos.quota_rejected", 1);
                let retry_after = self.engine.estimate_retry_after(queued as u64);
                SubmitOutcome::Rejected {
                    reason: SpmmError::QuotaExceeded {
                        tenant: req.tenant.name().to_string(),
                        retry_after,
                    },
                    retry_after: Some(retry_after),
                    operand: req.b,
                }
            }
            Push::Full(req) => {
                m.bump(&m.rejected, "engine.rejected", 1);
                SubmitOutcome::Rejected {
                    retry_after: Some(
                        self.engine
                            .estimate_retry_after(self.engine.queue.capacity() as u64),
                    ),
                    operand: req.b,
                    reason: SpmmError::Capacity {
                        what: "engine queue",
                        capacity: self.engine.queue.capacity(),
                    },
                }
            }
            Push::ShutDown(req) => SubmitOutcome::Rejected {
                operand: req.b,
                retry_after: None,
                reason: SpmmError::Capacity {
                    what: "engine (shut down)",
                    capacity: 0,
                },
            },
        }
    }

    /// Synchronous convenience: submit with default options and wait.
    /// Mirrors [`PreparedKernel::execute`] semantics (same bit-exact
    /// results), routed through the shared queue and micro-batcher.
    pub fn multiply(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        self.submit(b.clone(), SubmitOptions::new())
            .into_result()?
            .wait()
    }
}

/// Worker thread body: pop → coalesce → execute, until shutdown.
fn worker_loop(shared: &Arc<EngineShared>) {
    while let Some(first) = shared.queue.pop_blocking() {
        run_batch(shared, first);
    }
}

/// Coalesce a micro-batch seeded by `first`, expire late requests, and
/// execute the rest in one batched kernel call spread over
/// `min(threads_per_worker, live requests)` workspaces. The workspaces
/// are checked out per batch, so idle ones live in the page pool's LRU
/// cache (evictable under budget pressure) rather than pinned to a
/// parked thread. A panic inside the kernel call fails the batch's
/// tickets with [`SpmmError::Panicked`] and replaces every workspace it
/// used, which it may have left half-written. The workspaces go back to
/// the pool before any ticket completes. Returns requests resolved.
fn run_batch(shared: &Arc<EngineShared>, first: Request) -> usize {
    let m = &shared.metrics;
    let mut batch = vec![first];
    if shared.config.max_batch > 1 {
        let key = batch[0].key;
        let window_deadline = Instant::now() + shared.config.batch_window;
        shared.queue.drain_same_key(
            &key,
            shared.config.max_batch - 1,
            window_deadline,
            &mut batch,
        );
    }
    m.bump(&m.dequeued, "engine.dequeued", batch.len() as u64);

    // Deadline-aware scheduling: requests whose deadline passed while
    // they queued are dropped here, *before* any kernel work, with the
    // actual queued duration in the error.
    let now = Instant::now();
    let (expired, live): (Vec<Request>, Vec<Request>) = batch
        .into_iter()
        .partition(|r| r.deadline.is_some_and(|d| now > d));
    let resolved = expired.len() + live.len();
    for req in expired {
        m.bump(&m.expired, "engine.qos.expired", 1);
        // Dropping the request's lease releases both the operand and
        // output pages — nothing of an expired request stays charged.
        req.ticket.complete(
            Err(SpmmError::DeadlineExpired {
                waited: now.duration_since(req.enqueued_at),
            }),
            None,
        );
    }
    if live.is_empty() {
        return resolved;
    }

    // Invariant check: nothing past its deadline may reach a kernel.
    // The partition above just ran, so this counter staying 0 is the
    // observable form of "expired work never executes".
    let exec_start = Instant::now();
    let late = live
        .iter()
        .filter(|r| r.deadline.is_some_and(|d| exec_start > d))
        .count() as u64;
    if late > 0 {
        m.bump(&m.late_executions, "engine.qos.late_executions", late);
    }

    m.bump(&m.batches, "engine.batches", 1);
    m.bump(
        &m.batched_requests,
        "engine.batched_requests",
        live.len() as u64,
    );
    let _span = spmm_trace::span("engine.batch_execute");

    let plan = Arc::clone(&live[0].plan);
    let nrows = plan.csr().nrows();
    let live_count = live.len() as u64;
    m.in_flight.fetch_add(live_count, Ordering::Relaxed);
    let mut bs = Vec::with_capacity(live.len());
    let mut tickets = Vec::with_capacity(live.len());
    let mut leases: Vec<(Option<PageLease>, usize, Priority)> = Vec::with_capacity(live.len());
    for mut r in live {
        let operand_pages = shared
            .pages
            .pages_for(r.b.nrows() * r.b.ncols() * std::mem::size_of::<f32>());
        leases.push((r.lease.take(), operand_pages, r.priority));
        tickets.push(r.ticket);
        bs.push(r.b);
    }
    let mut outs: Vec<DenseMatrix> = bs
        .iter()
        .map(|b| DenseMatrix::zeros(nrows, b.ncols()))
        .collect();
    // The pool's leases keep the workspaces' page charges; the kernel
    // takes a plain slice, so each lease lends its workspace out and
    // gets it back, or keeps the empty one left behind after a panic.
    let mut ws_leases: Vec<WorkspaceLease> = (0..shared.threads_per_worker.min(bs.len()))
        .map(|_| shared.pages.checkout())
        .collect();
    let mut wss: Vec<Workspace> = ws_leases.iter_mut().map(|l| mem::take(&mut **l)).collect();
    let result = catch_panic("engine batch", || {
        #[cfg(test)]
        shared.panics.maybe_panic(bs.len());
        plan.execute_batch_into(&bs, &mut outs, &mut wss)
    });
    if matches!(result, Err(SpmmError::Panicked { .. })) {
        drop(wss); // possibly half-written; the leases keep empty ones
    } else {
        for (lease, ws) in ws_leases.iter_mut().zip(wss) {
            **lease = ws;
        }
    }
    drop(ws_leases);
    drop(bs); // operand copies freed; their page charge is split off below
    m.in_flight.fetch_sub(live_count, Ordering::Relaxed);
    shared.record_service_time(exec_start.elapsed() / live_count.max(1) as u32);
    match result {
        Ok(()) => {
            for ((ticket, out), (lease, operand_pages, priority)) in
                tickets.into_iter().zip(outs).zip(leases)
            {
                // Split the admission lease: the operand half is
                // released now, the output half rides with the ticket
                // until the caller takes the result.
                let output_lease = lease.map(|l| l.split(operand_pages).1);
                m.bump_served(priority, 1);
                ticket.complete(Ok(out), output_lease);
            }
        }
        Err(e) => {
            for (ticket, (lease, _, _)) in tickets.into_iter().zip(leases) {
                drop(lease); // no output retained on failure
                ticket.complete(Err(e.clone()), None);
            }
        }
    }
    resolved
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_matrix::gen;

    /// Bit-identical, except that a NaN may carry any payload.
    fn same_bits(got: &DenseMatrix, want: &DenseMatrix) -> bool {
        let (got, want) = (got.as_slice(), want.as_slice());
        got.len() == want.len()
            && (got.iter().zip(want))
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
    }

    /// Nothing is queued or executing, and the only pages still charged
    /// are the idle workspaces'.
    fn assert_settled(engine: &Engine) {
        let stats = engine.stats();
        assert_eq!((stats.in_flight, stats.queue_depth), (0, 0));
        let pages = engine.shared.pages.stats();
        assert_eq!(pages.in_use, pages.idle, "a lease outlived its request");
    }

    #[test]
    fn open_fails_with_the_build_error_instead_of_serving_another_kernel() {
        let engine = Engine::builder().workers(0).build().unwrap();
        let a = gen::uniform_random(256, 6.0, 3).row_block(0, 200);
        let config = AccConfig {
            symmetric_reorder: true,
            ..AccConfig::full()
        };
        let opened = engine.session(&a).feature_dim(16).config(config).open();
        assert!(
            matches!(opened, Err(SpmmError::Build { .. })),
            "{:?}",
            opened.err()
        );
        assert_eq!(engine.stats().plan_builds, 1, "nothing else was built");
    }

    #[test]
    fn a_panicked_batch_fails_its_tickets_and_the_worker_keeps_serving() {
        let engine = Engine::builder().workers(1).build().unwrap();
        let a = gen::uniform_random(192, 6.0, 4);
        let session = engine.session(&a).feature_dim(16).open().unwrap();
        let b = DenseMatrix::random(a.ncols(), 16, 5);
        engine.shared.panics.remaining.store(1, Ordering::SeqCst);
        match session.multiply(&b) {
            Err(SpmmError::Panicked { what, detail }) => {
                assert_eq!(what, "engine batch");
                assert!(detail.contains("injected panic"), "{detail}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        let served = session.multiply(&b).unwrap();
        assert!(same_bits(&served, &session.plan().execute(&b).unwrap()));
        assert_settled(&engine);
    }

    /// RHS `i` of `rows` × `n`, with NaN, ±Inf, subnormal and −0.0
    /// entries.
    fn special_rhs(rows: usize, n: usize, i: usize) -> DenseMatrix {
        let mut b = DenseMatrix::random(rows, n, 70 + i as u64);
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0e-42, -0.0];
        for (k, v) in specials.into_iter().enumerate() {
            b.set((37 * (i + 1) + 53 * k) % rows, (i + k) % n, v);
        }
        b
    }

    #[test]
    fn a_panic_in_a_spread_batch_fails_it_and_replaces_every_workspace() {
        let engine = Engine::builder()
            .workers(1)
            .max_batch(4)
            .batch_window(Duration::from_secs(5))
            .start(2)
            .unwrap();
        let a = gen::uniform_random(192, 6.0, 7);
        let session = engine.session(&a).feature_dim(16).open().unwrap();
        let bs: Vec<DenseMatrix> = (0..4).map(|i| special_rhs(a.ncols(), 16, i)).collect();
        let want: Vec<DenseMatrix> = bs
            .iter()
            .map(|b| session.plan().execute(b).unwrap())
            .collect();
        // Four requests fill one batch, which runs as two chunks.
        let serve = || -> Vec<Result<DenseMatrix>> {
            let tickets: Vec<Ticket> = bs
                .iter()
                .map(|b| {
                    session
                        .submit(b.clone(), SubmitOptions::new())
                        .into_result()
                        .unwrap()
                })
                .collect();
            tickets.into_iter().map(Ticket::wait).collect()
        };
        let assert_served = |got: Vec<Result<DenseMatrix>>| {
            for (got, want) in got.iter().zip(&want) {
                assert!(same_bits(got.as_ref().unwrap(), want));
            }
        };
        assert_served(serve());
        assert_eq!(engine.stats().batches, 1);
        let grown = engine.shared.pages.stats().idle;
        assert!(grown >= 2, "both workspaces went back to the pool grown");

        let injected = &engine.shared.panics;
        injected.remaining.store(1, Ordering::SeqCst);
        for got in serve() {
            match got {
                Err(SpmmError::Panicked { what, detail }) => {
                    assert_eq!(what, "engine batch");
                    assert_eq!(detail, "injected panic in a batch of 4");
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
        }
        assert_eq!(injected.requests.load(Ordering::SeqCst), 4);
        assert_eq!(engine.stats().batches, 2);
        assert_eq!(
            engine.shared.pages.stats().idle,
            0,
            "a workspace the panicked batch used went back to the pool"
        );
        assert_settled(&engine);

        assert_served(serve());
        assert_eq!(engine.stats().batches, 3);
        assert_settled(&engine);
    }

    #[test]
    fn a_batch_spread_over_idle_threads_is_bit_identical() {
        let a = gen::uniform_random(300, 6.0, 8);
        let widths = [16, 1, 33, 8, 16, 5, 64];
        let bs: Vec<DenseMatrix> = widths
            .iter()
            .enumerate()
            .map(|(i, &n)| special_rhs(a.ncols(), n, i))
            .collect();
        for threads in 1..=3 {
            let engine = Engine::builder().workers(0).start(threads).unwrap();
            let session = engine.session(&a).feature_dim(16).open().unwrap();
            let tickets: Vec<Ticket> = bs
                .iter()
                .map(|b| {
                    session
                        .submit(b.clone(), SubmitOptions::new())
                        .into_result()
                        .unwrap()
                })
                .collect();
            assert_eq!(engine.run_until_idle(), bs.len());
            assert_eq!(engine.stats().batches, 1, "one batch of {}", bs.len());
            for (ticket, b) in tickets.into_iter().zip(&bs) {
                let want = session.plan().execute(b).unwrap();
                assert!(
                    same_bits(&ticket.wait().unwrap(), &want),
                    "{threads} threads"
                );
            }
            assert_settled(&engine);
        }
    }

    #[test]
    fn panics_in_a_storm_fail_exactly_the_injected_batches() {
        const CLIENTS: usize = 8;
        const ROUNDS: usize = 6;
        let engine = Engine::builder().workers(2).max_batch(4).build().unwrap();
        let a = gen::uniform_random(256, 6.0, 6);
        let session = engine.session(&a).feature_dim(8).open().unwrap();
        engine.shared.panics.remaining.store(3, Ordering::SeqCst);
        let failed: u64 = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let session = session.clone();
                    s.spawn(move || {
                        let mut failed = 0;
                        for round in 0..ROUNDS {
                            let seed = (client * ROUNDS + round) as u64;
                            let mut b = DenseMatrix::random(256, 8, seed);
                            b.set(round, client, f32::NAN);
                            let want = session.plan().execute(&b).unwrap();
                            assert!(want.as_slice().iter().any(|v| v.is_nan()));
                            match session.multiply(&b) {
                                Ok(c) => assert!(same_bits(&c, &want), "request {seed}"),
                                Err(SpmmError::Panicked { .. }) => failed += 1,
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                        }
                        failed
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).sum()
        });
        let injected = &engine.shared.panics;
        assert_eq!(
            injected.remaining.load(Ordering::SeqCst),
            0,
            "every injection fired"
        );
        assert_eq!(failed, injected.requests.load(Ordering::SeqCst));
        let served: u64 = engine.stats().served.iter().sum();
        assert_eq!(served + failed, (CLIENTS * ROUNDS) as u64);
        assert_settled(&engine);
    }
}
