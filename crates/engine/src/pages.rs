//! Paged workspace allocator: fixed-size pages, a hard budget, and LRU
//! eviction of idle workspaces, so the engine's peak staging memory is
//! bounded and observable under hundreds of concurrent sessions.
//!
//! Everything the serving path stages — the dense B operand captured at
//! submit, the output buffer the kernel writes, and the worker
//! workspaces (tile scratch, TF32 B stages, permutation staging) — is
//! charged against one [`PagePool`] in units of fixed-size pages
//! (default 64 KiB). Charges happen at two points:
//!
//! * **Admission** ([`PagePool::try_lease`]): `Session::submit` leases
//!   pages for the operand copy plus the output buffer *before*
//!   enqueueing. Sizes are exactly known at submit time, so a request
//!   that would blow the budget is refused up front with a
//!   `retry_after` hint — never blocked mid-execution.
//! * **Workspace residency** ([`PagePool::checkout`]): workers borrow
//!   grown workspaces from an LRU idle list; when one is returned its
//!   footprint is re-measured and idle entries are evicted
//!   (least-recently-used first) until the returning workspace fits. If
//!   it cannot fit even with the idle list empty, it is dropped rather
//!   than retained, so the metered total never exceeds the budget.
//!
//! Transient growth *during* a kernel execution is intentionally not a
//! blocking point — a worker never stalls on pages while holding a
//! request, which would deadlock admission against progress. The
//! carve-out: a workspace's growth beyond its checkout charge is only
//! metered when it is returned. DESIGN.md §15 covers the trade-off.
//!
//! Trace counters (all monotonic):
//! `engine.pages.leased` / `engine.pages.released` — request pages in /
//! out; `engine.pages.denied` — admission refusals;
//! `engine.pages.evictions` — idle workspaces dropped to make room;
//! `engine.pages.peak` — high-water mark of total charged pages,
//! emitted as deltas so the counter's value *is* the peak.

use spmm_kernels::Workspace;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

/// The engine's page size: 64 KiB.
pub(crate) const DEFAULT_PAGE_BYTES: usize = 64 * 1024;

/// A pool of fixed-size pages with a hard budget, shared by request
/// leases and the idle-workspace cache. See the module docs for the
/// accounting model.
#[derive(Debug)]
pub(crate) struct PagePool {
    page_bytes: usize,
    budget: usize,
    inner: Mutex<PoolInner>,
}

#[derive(Debug, Default)]
struct PoolInner {
    /// Pages charged to live request leases and checked-out workspaces.
    leased: usize,
    /// Pages charged to idle (cached) workspaces.
    idle_pages: usize,
    /// LRU order: front = least recently used (evicted first).
    idle: VecDeque<IdleWorkspace>,
    peak: usize,
    evictions: u64,
    denials: u64,
}

#[derive(Debug)]
struct IdleWorkspace {
    ws: Workspace,
    pages: usize,
}

/// A point-in-time view of the pool's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PageStats {
    /// Pages currently charged (request leases + checked-out + idle).
    pub in_use: usize,
    /// Of `in_use`, the pages charged to idle workspaces.
    pub idle: usize,
    /// High-water mark of `in_use`.
    pub peak: usize,
    /// Idle workspaces dropped to make room.
    pub evictions: u64,
    /// Admission refusals for want of pages.
    pub denials: u64,
}

impl PagePool {
    /// A pool of `page_bytes`-sized pages with a hard `budget` (in
    /// pages). `budget = usize::MAX` is effectively unlimited.
    pub fn new(page_bytes: usize, budget: usize) -> Arc<Self> {
        Arc::new(PagePool {
            page_bytes: page_bytes.max(1),
            budget,
            inner: Mutex::new(PoolInner::default()),
        })
    }

    /// Pages needed to hold `bytes` (ceiling division).
    pub fn pages_for(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.page_bytes)
    }

    /// Hard budget in pages.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Lease pages for `bytes` of staging, evicting idle workspaces
    /// (LRU first) if that makes the lease fit. `None` when the budget
    /// cannot accommodate the request even with the idle list empty —
    /// the admission-control refusal the submit path turns into a
    /// `Rejected { retry_after }` outcome.
    pub fn try_lease(self: &Arc<Self>, bytes: usize) -> Option<PageLease> {
        let pages = self.pages_for(bytes);
        let mut inner = self.inner.lock().unwrap();
        if !self.make_room(&mut inner, pages) {
            inner.denials += 1;
            spmm_trace::counter_add("engine.pages.denied", 1);
            return None;
        }
        inner.leased += pages;
        self.note_peak(&mut inner);
        drop(inner);
        spmm_trace::counter_add("engine.pages.leased", pages as u64);
        Some(PageLease {
            pool: Arc::clone(self),
            pages,
        })
    }

    /// Borrow a workspace: the most recently used idle one when
    /// available (warmest buffers), else a fresh empty one. The idle
    /// entry's charge transfers to the checked-out side; the lease's
    /// Drop re-measures and returns it.
    pub fn checkout(self: &Arc<Self>) -> WorkspaceLease {
        let (ws, pages) = {
            let mut inner = self.inner.lock().unwrap();
            match inner.idle.pop_back() {
                Some(entry) => {
                    inner.idle_pages -= entry.pages;
                    inner.leased += entry.pages;
                    spmm_trace::counter_add("workspace.pool_hits", 1);
                    (entry.ws, entry.pages)
                }
                None => {
                    spmm_trace::counter_add("workspace.pool_misses", 1);
                    (Workspace::new(), 0)
                }
            }
        };
        WorkspaceLease {
            ws: Some(ws),
            pages,
            pool: Arc::clone(self),
        }
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> PageStats {
        let inner = self.inner.lock().unwrap();
        PageStats {
            in_use: inner.leased + inner.idle_pages,
            idle: inner.idle_pages,
            peak: inner.peak,
            evictions: inner.evictions,
            denials: inner.denials,
        }
    }

    /// Evict idle workspaces (LRU first) until `pages` more fit under
    /// the budget. Returns false if they cannot fit even then.
    fn make_room(&self, inner: &mut PoolInner, pages: usize) -> bool {
        if pages > self.budget {
            return false;
        }
        while inner.leased + inner.idle_pages + pages > self.budget {
            match inner.idle.pop_front() {
                Some(victim) => {
                    inner.idle_pages -= victim.pages;
                    inner.evictions += 1;
                    spmm_trace::counter_add("engine.pages.evictions", 1);
                }
                None => return inner.leased + pages <= self.budget,
            }
        }
        true
    }

    /// Record a new high-water mark, mirroring it to the monotonic
    /// `engine.pages.peak` counter as a delta so the counter's value
    /// equals the peak.
    fn note_peak(&self, inner: &mut PoolInner) {
        let total = inner.leased + inner.idle_pages;
        if total > inner.peak {
            spmm_trace::counter_add("engine.pages.peak", (total - inner.peak) as u64);
            inner.peak = total;
        }
    }

    fn release(&self, pages: usize) {
        if pages == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.leased -= pages;
        drop(inner);
        spmm_trace::counter_add("engine.pages.released", pages as u64);
    }

    fn restore(&self, ws: Workspace, checkout_pages: usize) {
        let new_pages = self.pages_for(ws.footprint_bytes());
        let mut inner = self.inner.lock().unwrap();
        inner.leased -= checkout_pages;
        // Admit the returning workspace to the idle cache, evicting
        // colder entries to make room; drop it if it cannot fit.
        if self.make_room(&mut inner, new_pages) {
            inner.idle_pages += new_pages;
            inner.idle.push_back(IdleWorkspace {
                ws,
                pages: new_pages,
            });
            self.note_peak(&mut inner);
        } else {
            inner.evictions += 1;
            spmm_trace::counter_add("engine.pages.evictions", 1);
        }
    }
}

/// An RAII page charge taken at admission; dropping it returns the
/// pages. [`PageLease::split`] divides one lease (operand + output,
/// charged together at submit) into independently droppable halves —
/// the operand half is released when execution completes, the output
/// half rides with the ticket until the result is taken.
#[derive(Debug)]
pub(crate) struct PageLease {
    pool: Arc<PagePool>,
    pages: usize,
}

impl PageLease {
    /// Split into `(first, rest)` where `first` holds min(`first_pages`,
    /// all) pages. No pages are charged or released by splitting.
    pub fn split(mut self, first_pages: usize) -> (PageLease, PageLease) {
        let first = first_pages.min(self.pages);
        let rest = self.pages - first;
        self.pages = 0; // neutralize this lease's Drop
        let pool = Arc::clone(&self.pool);
        (
            PageLease {
                pool: Arc::clone(&pool),
                pages: first,
            },
            PageLease { pool, pages: rest },
        )
    }
}

impl Drop for PageLease {
    fn drop(&mut self) {
        self.pool.release(self.pages);
    }
}

/// A checked-out workspace charged against the pool; dereferences to
/// [`Workspace`]. Dropping it re-measures the footprint and returns the
/// workspace to the idle cache (or drops it if the budget is tight).
#[derive(Debug)]
pub(crate) struct WorkspaceLease {
    ws: Option<Workspace>,
    pages: usize,
    pool: Arc<PagePool>,
}

impl Deref for WorkspaceLease {
    type Target = Workspace;
    fn deref(&self) -> &Workspace {
        self.ws.as_ref().unwrap()
    }
}

impl DerefMut for WorkspaceLease {
    fn deref_mut(&mut self) -> &mut Workspace {
        self.ws.as_mut().unwrap()
    }
}

impl Drop for WorkspaceLease {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool.restore(ws, self.pages);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_and_release_round_trip() {
        let pool = PagePool::new(1024, 16);
        assert_eq!(pool.pages_for(0), 0);
        assert_eq!(pool.pages_for(1), 1);
        assert_eq!(pool.pages_for(1024), 1);
        assert_eq!(pool.pages_for(1025), 2);
        let lease = pool.try_lease(3000).expect("fits");
        assert_eq!(lease.pages, 3);
        assert_eq!(pool.stats().in_use, 3);
        drop(lease);
        assert_eq!(pool.stats().in_use, 0);
        assert_eq!(pool.stats().peak, 3);
    }

    #[test]
    fn budget_is_hard_and_denials_are_counted() {
        let pool = PagePool::new(1024, 4);
        let a = pool.try_lease(3 * 1024).expect("3 of 4");
        assert!(pool.try_lease(2 * 1024).is_none(), "would exceed budget");
        assert_eq!(pool.stats().denials, 1);
        drop(a);
        assert!(pool.try_lease(4 * 1024).is_some(), "fits after release");
        assert!(pool.try_lease(5 * 1024).is_none(), "never fits");
        assert!(pool.stats().peak <= pool.budget());
    }

    #[test]
    fn split_halves_release_independently() {
        let pool = PagePool::new(1024, 16);
        let lease = pool.try_lease(5 * 1024).unwrap();
        let (operand, output) = lease.split(2);
        assert_eq!(operand.pages, 2);
        assert_eq!(output.pages, 3);
        assert_eq!(pool.stats().in_use, 5);
        drop(operand);
        assert_eq!(pool.stats().in_use, 3);
        drop(output);
        assert_eq!(pool.stats().in_use, 0);
    }

    #[test]
    fn workspace_cache_reuses_and_respects_budget() {
        let pool = PagePool::new(1024, 8);
        // Grow a workspace to a measurable footprint and return it.
        {
            let mut lease = pool.checkout();
            lease.reserve_staging(1024, 1);
            drop(lease);
        }
        assert_eq!(pool.inner.lock().unwrap().idle.len(), 1);
        let idle_pages = pool.stats().in_use;
        assert!(idle_pages >= 4, "grown workspace is charged");
        // A request lease that needs the space evicts the idle entry.
        let lease = pool.try_lease(6 * 1024).expect("eviction makes room");
        assert_eq!(pool.inner.lock().unwrap().idle.len(), 0);
        assert!(pool.stats().evictions >= 1);
        assert!(pool.stats().in_use <= pool.budget());
        drop(lease);
    }

    #[test]
    fn oversized_returning_workspace_is_dropped_not_retained() {
        let pool = PagePool::new(1024, 2);
        {
            let mut lease = pool.checkout();
            lease.reserve_staging(4096, 1);
        }
        assert_eq!(
            pool.inner.lock().unwrap().idle.len(),
            0,
            "over-budget workspace not cached"
        );
        assert_eq!(pool.stats().in_use, 0);
        assert!(pool.stats().evictions >= 1);
        assert!(pool.stats().peak <= pool.budget());
    }
}
