//! The shared plan cache: bounded, LRU, keyed by matrix content.
//!
//! Preprocessing is the expensive half of the Acc-SpMM workflow (§5 of
//! the paper amortizes it over thousands of multiplies); when many
//! concurrent clients serve the *same* matrix, the cache makes them
//! share one [`PreparedKernel`]. Two properties matter under load:
//!
//! * **single-flight builds** — the first client to miss installs an
//!   in-flight guard and builds *outside* the cache lock; every
//!   concurrent client for the same key blocks on the guard instead of
//!   rebuilding (no thundering herd). N threads × one key ⇒ exactly one
//!   plan build.
//! * **bounded LRU** — at capacity, the least-recently-used *ready*
//!   entry is evicted (in-flight builds are never evicted, so a waiter
//!   can't be orphaned).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use spmm_common::Result;
use spmm_kernels::{AccConfig, KernelKind, PreparedKernel};
use spmm_sim::Arch;

/// Identity of a cached plan: matrix content fingerprint plus every
/// input that changes the preprocessing output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// [`spmm_matrix::CsrMatrix::content_fingerprint`] of the operand.
    pub fingerprint: u64,
    /// Which kernel strategy the plan compiles.
    pub kind: KernelKind,
    /// Target architecture (drives the balance model).
    pub arch: Arch,
    /// Feature dimension the plan is specialized for.
    pub feature_dim: usize,
    /// Acc ablation configuration.
    pub config: AccConfig,
}

/// Result slot a concurrent waiter blocks on while another thread
/// builds the plan for the same key.
struct BuildGuard {
    done: Mutex<Option<Result<Arc<PreparedKernel>>>>,
    cv: Condvar,
}

impl BuildGuard {
    fn new() -> Arc<Self> {
        Arc::new(BuildGuard {
            done: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn complete(&self, result: Result<Arc<PreparedKernel>>) {
        *self.done.lock().unwrap() = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<PreparedKernel>> {
        let mut done = self.done.lock().unwrap();
        while done.is_none() {
            done = self.cv.wait(done).unwrap();
        }
        done.as_ref().unwrap().clone()
    }
}

enum Slot {
    Building(Arc<BuildGuard>),
    Ready(Arc<PreparedKernel>),
}

struct Entry {
    slot: Slot,
    last_used: u64,
}

struct Inner {
    map: HashMap<PlanKey, Entry>,
    tick: u64,
}

/// Counters the cache reports (mirrored into `spmm-trace`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct CacheStats {
    /// Lookups satisfied by a ready entry.
    pub hits: u64,
    /// Lookups that had to build (or wait on an in-flight build).
    pub misses: u64,
    /// Plans actually built (≤ misses thanks to single-flight).
    pub builds: u64,
    /// Ready entries evicted to stay within capacity.
    pub evictions: u64,
}

/// Bounded LRU map from [`PlanKey`] to a shared [`PreparedKernel`].
pub(crate) struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    stats: Mutex<CacheStats>,
}

impl PlanCache {
    /// A cache holding at most `capacity` ready plans.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        self.stats.lock().unwrap().clone()
    }

    /// Fetch the plan for `key`, building it with `build` on a miss.
    /// Concurrent callers for the same key share one build; the builder
    /// runs outside the cache lock.
    pub fn get_or_build(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<PreparedKernel>,
    ) -> Result<Arc<PreparedKernel>> {
        enum Role {
            Hit(Arc<PreparedKernel>),
            Wait(Arc<BuildGuard>),
            Build(Arc<BuildGuard>),
        }

        // Phase 1: classify under the lock.
        let role = {
            let mut inner = self.inner.lock().unwrap();
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(&key) {
                Some(entry) => {
                    entry.last_used = tick;
                    match &entry.slot {
                        Slot::Ready(plan) => {
                            self.bump(|s| s.hits += 1, "engine.cache_hits");
                            Role::Hit(Arc::clone(plan))
                        }
                        Slot::Building(g) => {
                            // Someone else is building: wait outside the lock.
                            self.bump(|s| s.misses += 1, "engine.cache_misses");
                            Role::Wait(Arc::clone(g))
                        }
                    }
                }
                None => {
                    self.bump(|s| s.misses += 1, "engine.cache_misses");
                    let g = BuildGuard::new();
                    self.evict_to_fit(&mut inner);
                    inner.map.insert(
                        key,
                        Entry {
                            slot: Slot::Building(Arc::clone(&g)),
                            last_used: tick,
                        },
                    );
                    Role::Build(g)
                }
            }
        };

        let guard = match role {
            Role::Hit(plan) => return Ok(plan),
            Role::Wait(g) => return g.wait(),
            Role::Build(g) => g,
        };

        // Phase 2: we own the build; run it without holding the lock.
        let built = {
            let _span = spmm_trace::span("engine.plan_build");
            self.bump(|s| s.builds += 1, "engine.plan_builds");
            build().map(Arc::new)
        };

        // Phase 3: publish to the map, then release the waiters.
        {
            let mut inner = self.inner.lock().unwrap();
            match &built {
                Ok(plan) => {
                    if let Some(entry) = inner.map.get_mut(&key) {
                        entry.slot = Slot::Ready(Arc::clone(plan));
                    }
                }
                Err(_) => {
                    inner.map.remove(&key);
                }
            }
        }
        guard.complete(built.clone());
        built
    }

    /// Install an externally-built plan as a ready entry (used to hand
    /// an existing [`PreparedKernel`] — e.g. a GNN model's — to the
    /// engine without rebuilding it). Replaces any previous entry.
    pub fn install(&self, key: PlanKey, plan: Arc<PreparedKernel>) {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) {
            self.evict_to_fit(&mut inner);
        }
        inner.map.insert(
            key,
            Entry {
                slot: Slot::Ready(plan),
                last_used: tick,
            },
        );
    }

    /// Drop every entry (ready or in flight) keyed by the given matrix
    /// fingerprint — the partial invalidation dynamic-graph updates perform
    /// when an operand is superseded by its compacted successor. Plans
    /// for other matrices are untouched. Returns how many in-memory
    /// entries were dropped. An in-flight build for a dropped key
    /// simply doesn't publish; its waiters still get the built plan.
    pub fn invalidate_matrix(&self, fingerprint: u64) -> usize {
        let removed = {
            let mut inner = self.inner.lock().unwrap();
            let victims: Vec<PlanKey> = inner
                .map
                .keys()
                .filter(|k| k.fingerprint == fingerprint)
                .copied()
                .collect();
            for k in &victims {
                inner.map.remove(k);
            }
            victims.len()
        };
        if removed > 0 {
            spmm_trace::counter_add("engine.cache_invalidations", removed as u64);
        }
        removed
    }

    fn evict_to_fit(&self, inner: &mut Inner) {
        while inner.map.len() >= self.capacity {
            let victim = inner
                .map
                .iter()
                .filter(|(_, e)| matches!(e.slot, Slot::Ready(_)))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    inner.map.remove(&k);
                    self.bump(|s| s.evictions += 1, "engine.cache_evictions");
                }
                None => break, // everything in flight; tolerate overflow
            }
        }
    }

    fn bump(&self, f: impl FnOnce(&mut CacheStats), trace_name: &'static str) {
        f(&mut self.stats.lock().unwrap());
        spmm_trace::counter_add(trace_name, 1);
    }
}
