//! Quality-of-service vocabulary for the serving tier: priority
//! classes, tenants, per-request submit options, and the weighted
//! fair-dequeue schedule the queue runs on.
//!
//! The serving engine admits work from many tenants with different
//! latency needs. Three mechanisms keep that fair and bounded:
//!
//! * **Priority classes** ([`Priority`]) — every request belongs to one
//!   of three classes. The queue dequeues *proportionally to class
//!   weight* (stride scheduling, see [`WeightedSchedule`]), so a
//!   backlogged low class is never starved and a backlogged high class
//!   is never inverted behind bulk work.
//! * **Tenants** ([`Tenant`]) — a cheap, cloneable identity that quota
//!   accounting keys on. Admission control caps each tenant's *queued*
//!   requests; beyond the cap a submission is refused with a
//!   `retry_after` hint instead of silently waiting.
//! * **Submit options** ([`SubmitOptions`]) — the builder-style bundle
//!   `Session::submit` takes, so QoS is expressible without
//!   multiplying method variants.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The scheduling class of a request. Classes share the worker pool by
/// *weight* (default 4 : 2 : 1), not by strict precedence: a saturated
/// [`Priority::Interactive`] stream cannot starve
/// [`Priority::Batch`] work, and bulk traffic cannot invert ahead of
/// interactive traffic beyond its proportional share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Priority {
    /// Latency-sensitive traffic (user-facing queries).
    Interactive,
    /// The default class for ordinary requests.
    #[default]
    Standard,
    /// Throughput-oriented bulk work (training sweeps, backfills).
    Batch,
}

impl Priority {
    /// Every class, highest first.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Batch];

    /// Number of classes (array-index bound).
    pub const COUNT: usize = 3;

    /// Dense index for per-class tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Batch => 2,
        }
    }

    /// The dequeue weights the engine schedules by (4 : 2 : 1).
    pub const DEFAULT_WEIGHTS: [u64; Priority::COUNT] = [4, 2, 1];

    /// Display name (also the trace-counter suffix).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A tenant identity for quota accounting: cheap to clone (shared
/// string), hashable, with a process-wide anonymous default.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tenant(Arc<str>);

impl Tenant {
    /// A named tenant.
    pub fn new(name: impl AsRef<str>) -> Self {
        Tenant(Arc::from(name.as_ref()))
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl Default for Tenant {
    /// The anonymous tenant requests belong to when none is given.
    fn default() -> Self {
        Tenant(Arc::from("anonymous"))
    }
}

impl fmt::Display for Tenant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Tenant {
    fn from(name: &str) -> Self {
        Tenant::new(name)
    }
}

impl From<String> for Tenant {
    fn from(name: String) -> Self {
        Tenant::new(name)
    }
}

/// Per-request QoS options for `Session::submit` — the one submission
/// surface. Builder-style:
///
/// ```
/// use spmm_engine::{Priority, SubmitOptions};
/// use std::time::Duration;
///
/// let opts = SubmitOptions::new()
///     .priority(Priority::Interactive)
///     .tenant("acme")
///     .deadline(Duration::from_millis(50));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    priority: Priority,
    tenant: Tenant,
    deadline: Option<Duration>,
}

impl SubmitOptions {
    /// Defaults: [`Priority::Standard`], the anonymous tenant, no
    /// deadline.
    pub fn new() -> Self {
        SubmitOptions::default()
    }

    /// Scheduling class (default [`Priority::Standard`]).
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Tenant for quota accounting (default anonymous).
    pub fn tenant(mut self, t: impl Into<Tenant>) -> Self {
        self.tenant = t.into();
        self
    }

    /// Relative deadline: if the request is still queued this long
    /// after submission, it is dropped *before* execution and its
    /// ticket completes with `SpmmError::DeadlineExpired`.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    pub(crate) fn into_parts(self) -> (Priority, Tenant, Option<Duration>) {
        (self.priority, self.tenant, self.deadline)
    }
}

/// Deterministic weighted fair dequeue via **stride scheduling**: class
/// `i` with weight `w_i` holds a pass counter advanced by
/// `STRIDE_UNIT / w_i` per dequeue; each pick takes the *backlogged*
/// class with the smallest pass. Over any interval in which a set of
/// classes stays backlogged, class `i` receives `w_i / Σw` of the
/// dequeues (±1 rounding) — proportional share, hence no starvation
/// and no inversion beyond the configured ratio.
///
/// Empty classes neither advance nor accumulate credit: on becoming
/// backlogged again a class's pass is clamped up to the current
/// minimum, so idle time cannot be banked into a later burst.
#[derive(Debug, Clone)]
pub(crate) struct WeightedSchedule {
    strides: [u64; Priority::COUNT],
    passes: [u64; Priority::COUNT],
    /// Virtual clock: the winning pass of the most recent dequeue.
    /// Classes re-entering after idling join at this clock instead of
    /// replaying the passes they never advanced through.
    global_pass: u64,
}

/// Pass-counter resolution; weights up to this magnitude divide evenly.
const STRIDE_UNIT: u64 = 1 << 20;

impl WeightedSchedule {
    /// A schedule over the given per-class weights (each clamped ≥ 1).
    pub fn new(weights: [u64; Priority::COUNT]) -> Self {
        let mut strides = [0u64; Priority::COUNT];
        for (s, &w) in strides.iter_mut().zip(&weights) {
            *s = STRIDE_UNIT / w.clamp(1, STRIDE_UNIT);
        }
        WeightedSchedule {
            strides,
            passes: [0; Priority::COUNT],
            global_pass: 0,
        }
    }

    /// Pick the next class to serve among `backlogged` ones (true =
    /// that class has queued work). Returns `None` when nothing is
    /// backlogged. Advances the winner's pass.
    pub fn pick(&mut self, backlogged: [bool; Priority::COUNT]) -> Option<Priority> {
        // Re-entering classes join at the current front of the virtual
        // clock instead of replaying banked idle time.
        let clock = self.global_pass;
        for (pass, &b) in self.passes.iter_mut().zip(&backlogged) {
            if b && *pass < clock {
                *pass = clock;
            }
        }
        let winner = Priority::ALL
            .into_iter()
            .filter(|p| backlogged[p.index()])
            .min_by_key(|p| self.passes[p.index()])?;
        self.global_pass = self.passes[winner.index()];
        self.passes[winner.index()] =
            self.passes[winner.index()].saturating_add(self.strides[winner.index()]);
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn priority_index_and_order() {
        assert_eq!(Priority::ALL.len(), Priority::COUNT);
        for (i, p) in Priority::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Priority::default(), Priority::Standard);
    }

    #[test]
    fn schedule_is_proportional_when_all_backlogged() {
        let weights = [4, 2, 1];
        let mut sched = WeightedSchedule::new(weights);
        let mut served = [0u64; Priority::COUNT];
        const ROUNDS: u64 = 7_000;
        for _ in 0..ROUNDS {
            let p = sched.pick([true, true, true]).unwrap();
            served[p.index()] += 1;
        }
        let total_w: u64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expect = ROUNDS * w / total_w;
            let got = served[i];
            assert!(
                got.abs_diff(expect) <= 2,
                "class {i}: {got} dequeues, expected ~{expect}"
            );
        }
    }

    #[test]
    fn empty_classes_do_not_bank_credit() {
        let mut sched = WeightedSchedule::new([4, 2, 1]);
        // Serve only Interactive for a while…
        for _ in 0..1000 {
            assert_eq!(
                sched.pick([true, false, false]),
                Some(Priority::Interactive)
            );
        }
        // …then Batch arrives. It must not monopolize the queue to
        // "catch up" on the idle interval: within the next 10 picks,
        // Interactive is served at least its proportional share.
        let mut interactive = 0;
        for _ in 0..10 {
            if sched.pick([true, false, true]) == Some(Priority::Interactive) {
                interactive += 1;
            }
        }
        assert!(
            interactive >= 7,
            "interactive got {interactive}/10 after batch re-entry"
        );
    }

    #[test]
    fn schedule_returns_none_when_idle() {
        let mut sched = WeightedSchedule::new(Priority::DEFAULT_WEIGHTS);
        assert_eq!(sched.pick([false, false, false]), None);
    }

    #[test]
    fn submit_options_builder_round_trips() {
        let o = SubmitOptions::new()
            .priority(Priority::Batch)
            .tenant("acme")
            .deadline(Duration::from_millis(5));
        let (p, t, d) = o.into_parts();
        assert_eq!(p, Priority::Batch);
        assert_eq!(t.name(), "acme");
        assert_eq!(d, Some(Duration::from_millis(5)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Stride scheduling's bounded-latency property: while a class stays
        // backlogged, the gap between its consecutive dequeues is bounded
        // by its inverse share. Heavy-tailed mixes (one class with a huge
        // backlog, others trickling) must not starve anyone.
        #[test]
        fn no_class_starves_under_heavy_tailed_backlogs(
            w0 in 1u64..16,
            w1 in 1u64..16,
            w2 in 1u64..16,
            // Heavy-tailed: one class gets the bulk, the others a trickle.
            bulk in 200usize..600,
            trickle_a in 1usize..40,
            trickle_b in 1usize..40,
            bulk_class in 0usize..3,
        ) {
            let weights = [w0, w1, w2];
            let mut backlog = [trickle_a, trickle_b, trickle_a.max(trickle_b)];
            backlog[bulk_class] = bulk;
            let mut sched = WeightedSchedule::new(weights);
            let total_w: u64 = weights.iter().sum();
            let mut since_served = [0usize; 3];
            while backlog.iter().any(|&n| n > 0) {
                let flags = [backlog[0] > 0, backlog[1] > 0, backlog[2] > 0];
                let p = sched.pick(flags).expect("backlog present");
                prop_assert!(backlog[p.index()] > 0, "picked an empty class");
                backlog[p.index()] -= 1;
                for i in 0..3 {
                    if i == p.index() {
                        since_served[i] = 0;
                    } else if flags[i] {
                        since_served[i] += 1;
                        // Inverse-share bound (+ slack for rounding): a
                        // backlogged class with weight w waits at most
                        // ~total_w/w picks between services.
                        let bound = 2 * (total_w / weights[i].max(1)) as usize + 2;
                        prop_assert!(
                            since_served[i] <= bound,
                            "class {i} (weight {}) starved for {} picks (bound {bound})",
                            weights[i],
                            since_served[i],
                        );
                    }
                }
            }
        }
    }
}
