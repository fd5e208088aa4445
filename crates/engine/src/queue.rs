//! QoS request queue (weighted fair dequeue, tenant quotas) and
//! per-request tickets.
//!
//! The queue is a Mutex + Condvar MPMC structure: cheap at the request
//! granularity the engine operates at (a whole SpMM per item). Three
//! admission/ordering mechanisms layer on top of the old bounded deque:
//!
//! * **One deque per [`Priority`] class**, dequeued by the
//!   [`WeightedSchedule`] stride scheduler — classes share workers
//!   proportionally to their weights, so interactive traffic is not
//!   inverted behind bulk work and bulk work is never starved.
//! * **Per-tenant quotas**: each tenant's *queued* request count is
//!   tracked under the queue lock; a tenant at quota is refused at push
//!   (the crate-private `Push::Quota`) so one noisy client cannot
//!   consume the whole queue.
//! * **Bounded capacity** as before: pushes never block — a full queue
//!   *rejects*, which is the admission-control contract
//!   ([`crate::SubmitOutcome::Rejected`]).
//!
//! Workers block on pops and coalesce same-key neighbours into
//! micro-batches. Coalescing sweeps *all* classes: identical work is
//! strictly cheaper executed together, so a batch window overrides
//! fairness for requests that share a plan and operand shape.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use spmm_common::Result;
use spmm_kernels::PreparedKernel;
use spmm_matrix::DenseMatrix;

use crate::cache::PlanKey;
use crate::pages::PageLease;
use crate::qos::{Priority, Tenant, WeightedSchedule};

/// One queued multiply: `C = A × B` for the plan identified by `key`.
pub(crate) struct Request {
    pub key: PlanKey,
    pub plan: Arc<PreparedKernel>,
    pub b: DenseMatrix,
    pub ticket: Arc<TicketShared>,
    /// Scheduling class (selects the deque and the trace label).
    pub priority: Priority,
    /// Tenant charged for this request's queue slot.
    pub tenant: Tenant,
    /// When the request was admitted (for accurate
    /// `SpmmError::DeadlineExpired` `waited` reporting).
    pub enqueued_at: Instant,
    /// Absolute deadline; the request is dropped *before execution*
    /// (with `SpmmError::DeadlineExpired`) if a worker reaches it after
    /// this point.
    pub deadline: Option<Instant>,
    /// Pages leased at admission for the operand copy + output buffer;
    /// split at completion (operand half released, output half rides
    /// with the ticket until the result is taken).
    pub lease: Option<PageLease>,
}

/// Completion slot shared between a [`Ticket`] and the worker that
/// eventually executes (or expires) the request.
pub(crate) struct TicketShared {
    slot: Mutex<Slot>,
    cv: Condvar,
}

#[derive(Default)]
struct Slot {
    result: Option<Result<DenseMatrix>>,
    /// Output-buffer pages, still charged until the result is taken
    /// (or the ticket abandoned) — the engine's RSS accounting covers
    /// results it is holding on a client's behalf.
    lease: Option<PageLease>,
}

impl TicketShared {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TicketShared {
            slot: Mutex::new(Slot::default()),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn complete(&self, result: Result<DenseMatrix>, lease: Option<PageLease>) {
        let mut slot = self.slot.lock().unwrap();
        slot.result = Some(result);
        slot.lease = lease;
        drop(slot);
        self.cv.notify_all();
    }
}

/// A claim on the result of a submitted multiply; redeem it with
/// [`Ticket::wait`]. Every accepted request completes: with its result,
/// or with a typed error when it expired, its batch panicked, or the
/// engine shut down first.
#[must_use = "a dropped ticket abandons its result"]
pub struct Ticket {
    pub(crate) shared: Arc<TicketShared>,
}

impl Ticket {
    /// Block until the request completes and take the result.
    pub fn wait(self) -> Result<DenseMatrix> {
        let mut slot = self.shared.slot.lock().unwrap();
        while slot.result.is_none() {
            slot = self.shared.cv.wait(slot).unwrap();
        }
        slot.lease = None; // taking the result releases its pages
        slot.result.take().unwrap()
    }
}

struct QueueInner {
    classes: [VecDeque<Request>; Priority::COUNT],
    len: usize,
    tenants: HashMap<Tenant, usize>,
    sched: WeightedSchedule,
    shutdown: bool,
}

impl QueueInner {
    fn backlogged(&self) -> [bool; Priority::COUNT] {
        [
            !self.classes[0].is_empty(),
            !self.classes[1].is_empty(),
            !self.classes[2].is_empty(),
        ]
    }

    /// Bookkeeping for any request leaving the queue, whichever path
    /// removed it.
    fn note_removed(&mut self, req: &Request) {
        self.len -= 1;
        if let Some(n) = self.tenants.get_mut(&req.tenant) {
            *n -= 1;
            if *n == 0 {
                self.tenants.remove(&req.tenant);
            }
        }
    }
}

/// The engine's bounded, class-aware MPMC request queue.
pub(crate) struct RequestQueue {
    capacity: usize,
    tenant_quota: Option<usize>,
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
}

pub(crate) enum Push {
    Ok,
    Full(Request),
    /// The request's tenant already has `queued` requests in the queue,
    /// at or over the configured quota.
    Quota {
        req: Request,
        queued: usize,
    },
    ShutDown(Request),
}

impl RequestQueue {
    pub(crate) fn new(capacity: usize, tenant_quota: Option<usize>) -> Self {
        RequestQueue {
            capacity: capacity.max(1),
            tenant_quota,
            inner: Mutex::new(QueueInner {
                classes: Default::default(),
                len: 0,
                tenants: HashMap::new(),
                sched: WeightedSchedule::new(Priority::DEFAULT_WEIGHTS),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().len
    }

    /// Non-blocking bounded push; full queues, tenants at quota, and
    /// shut-down queues hand the request back so the caller can surface
    /// the rejection (with a `retry_after` hint where meaningful).
    pub(crate) fn try_push(&self, req: Request) -> Push {
        let mut inner = self.inner.lock().unwrap();
        if inner.shutdown {
            return Push::ShutDown(req);
        }
        let queued = inner.tenants.get(&req.tenant).copied().unwrap_or(0);
        if let Some(quota) = self.tenant_quota {
            if queued >= quota {
                return Push::Quota { req, queued };
            }
        }
        if inner.len >= self.capacity {
            return Push::Full(req);
        }
        *inner.tenants.entry(req.tenant.clone()).or_insert(0) += 1;
        inner.len += 1;
        inner.classes[req.priority.index()].push_back(req);
        drop(inner);
        // notify_all, not notify_one: a worker parked in
        // `drain_same_key` (waiting out its batch window for one key)
        // must not swallow the only wakeup meant for an idle worker.
        self.not_empty.notify_all();
        Push::Ok
    }

    /// Block until a request is available (returns `None` once the
    /// queue is shut down *and* drained — workers exit gracefully).
    /// The class served next is chosen by the weighted fair schedule.
    pub(crate) fn pop_blocking(&self) -> Option<Request> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(req) = Self::pop_scheduled(&mut inner) {
                return Some(req);
            }
            if inner.shutdown {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Non-blocking pop (the inline [`crate::Engine::run_until_idle`]
    /// path), same weighted fair schedule as the workers.
    pub(crate) fn try_pop(&self) -> Option<Request> {
        Self::pop_scheduled(&mut self.inner.lock().unwrap())
    }

    fn pop_scheduled(inner: &mut QueueInner) -> Option<Request> {
        let class = inner.sched.pick(inner.backlogged())?;
        let req = inner.classes[class.index()].pop_front()?;
        inner.note_removed(&req);
        Some(req)
    }

    /// Extract up to `max` queued requests with the same key as `key`,
    /// waiting until `window_deadline` for stragglers if the batch is
    /// still short. All classes are swept (same-key work batches
    /// together regardless of priority — strictly cheaper than running
    /// it twice); other keys are left queued in order.
    pub(crate) fn drain_same_key(
        &self,
        key: &PlanKey,
        max: usize,
        window_deadline: Instant,
        out: &mut Vec<Request>,
    ) {
        let mut taken = 0;
        let mut inner = self.inner.lock().unwrap();
        loop {
            // Sweep matching requests out of each class deque,
            // preserving the relative order of everything else.
            for class in Priority::ALL {
                let mut i = 0;
                while i < inner.classes[class.index()].len() && taken < max {
                    if inner.classes[class.index()][i].key == *key {
                        // remove(i) keeps order (deque shifts).
                        let req = inner.classes[class.index()].remove(i).unwrap();
                        inner.note_removed(&req);
                        out.push(req);
                        taken += 1;
                    } else {
                        i += 1;
                    }
                }
            }
            if taken >= max || inner.shutdown {
                return;
            }
            let now = Instant::now();
            if now >= window_deadline {
                return;
            }
            let (g, _) = self
                .not_empty
                .wait_timeout(inner, window_deadline - now)
                .unwrap();
            inner = g;
        }
    }

    /// Mark the queue shut down and wake every sleeper.
    pub(crate) fn shutdown(&self) {
        self.inner.lock().unwrap().shutdown = true;
        self.not_empty.notify_all();
    }
}
