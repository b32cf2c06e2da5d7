//! Phase-scoped observability: tracers, timers, and the metrics registry.
//!
//! Evaluation time is spent in ten phases (preparation, semijoin
//! pruning, the two Yannakakis semijoin passes, product BFS, odometer
//! expansion, streaming enumeration, CQ join, tree-decomposition bag
//! population, semantic regime minimization); the complexity theorems of
//! the paper predict *which* phase
//! dominates in each regime, so the experiments need a per-phase split.
//! This module provides it without any cost to untraced runs:
//!
//! * [`Tracer`] is the hook trait every evaluator is generic over. Its
//!   `const ENABLED` flag is statically known, so with [`NoopTracer`]
//!   (the default everywhere) every hook call monomorphizes to an empty
//!   inline function and the optimizer erases the whole layer.
//! * [`CollectingTracer`] records into per-worker [`AtomicU64`] cells; a
//!   registry behind an `Arc` lets parallel workers fork their own cell
//!   block ([`Tracer::fork_worker`]) so hot-path writes never contend,
//!   and [`CollectingTracer::metrics`] folds all workers into a
//!   [`Metrics`] snapshot (sums for work counters, max for frontier
//!   peaks — mirroring `ProductStats::merge`).
//! * [`PhaseSpan`] is the phase timer. All `Instant::now()` calls of the
//!   evaluation layer live in this module — `xtask lint` forbids raw
//!   clock reads in the hot-path modules — and a span started under a
//!   disabled tracer never reads the clock at all.
//! * The every-N sampling hook ([`Tracer::sample`]) fires from the
//!   governor's `Pacer` at its existing check-in cadence, so tracing and
//!   budgeting share one amortized check site instead of each hot loop
//!   paying twice.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An evaluation phase, the unit of the per-phase time/counter split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Query preparation against the database: automaton trimming,
    /// track projections, closure rows, dense transition tables.
    Prepare,
    /// The semijoin endpoint-domain pruning sweeps.
    Semijoin,
    /// The bottom-up (leaves-to-root) Yannakakis semijoin pass.
    YannakakisUp,
    /// The top-down (root-to-leaves) Yannakakis semijoin pass.
    YannakakisDown,
    /// The feasibility checks of the Lemma 4.2 / Prop. 2.2 search: the
    /// product-graph BFS of atoms of arity ≥ 2 and the single-track
    /// sweeps of arity-1 atoms.
    ProductBfs,
    /// Free-tuple odometer expansion of found assignments into answers.
    Odometer,
    /// The product search's backtracking steps (the `SearchCursor` step
    /// program, under `AnswerIter` for answer sets).
    Enumerate,
    /// Backtracking join over the materialized CQ.
    CqJoin,
    /// Tree-decomposition bag population and semijoin reduction.
    TreedecBags,
    /// Semantic regime minimization: the verified rewrite search that
    /// runs before planning (counter = verified rewrite steps applied).
    Minimize,
}

impl Phase {
    /// All phases, in rendering order.
    pub const ALL: [Phase; 10] = [
        Phase::Prepare,
        Phase::Semijoin,
        Phase::YannakakisUp,
        Phase::YannakakisDown,
        Phase::ProductBfs,
        Phase::Odometer,
        Phase::Enumerate,
        Phase::CqJoin,
        Phase::TreedecBags,
        Phase::Minimize,
    ];

    /// Number of phases.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index of the phase (position in [`Phase::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase name used in rendered tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Prepare => "prepare",
            Phase::Semijoin => "semijoin",
            Phase::YannakakisUp => "yanna-up",
            Phase::YannakakisDown => "yanna-down",
            Phase::ProductBfs => "product-bfs",
            Phase::Odometer => "odometer",
            Phase::Enumerate => "enumerate",
            Phase::CqJoin => "cq-join",
            Phase::TreedecBags => "treedec-bags",
            Phase::Minimize => "minimize",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The observability hook trait.
///
/// Evaluators are generic over a `Tracer`; the default [`NoopTracer`] has
/// `ENABLED = false` and empty inline hooks, so the generic instantiation
/// every existing call site gets is bit-for-bit the untraced evaluator.
/// Hooks take `&self` and must be cheap and non-blocking: they run inside
/// the product BFS and join inner loops.
pub trait Tracer: Clone + Send + Sync {
    /// Statically known enablement. Hot loops may branch on this to skip
    /// work that only feeds the tracer (the branch folds away).
    const ENABLED: bool;

    /// A tracer handle for a new parallel worker. Collecting tracers
    /// register a fresh counter block so worker writes never contend;
    /// [`NoopTracer`] returns itself.
    fn fork_worker(&self) -> Self;

    /// Records `n` units of the phase's work item (configurations for the
    /// BFS, sweep pops for the arity-1 checks and the semijoin, tuples
    /// for the joins/odometer, graph vertices for prepare).
    fn count(&self, phase: Phase, n: u64);

    /// Records `n` pruned elements (semijoin domain prunes).
    fn prune(&self, phase: Phase, n: u64);

    /// Folds a frontier/queue depth observation (kept as a max).
    fn frontier(&self, phase: Phase, depth: u64);

    /// Records `n` governor budget check-ins attributed to the phase.
    fn governor_check(&self, phase: Phase, n: u64);

    /// Records a governor-initiated abort of the phase.
    fn governor_abort(&self, phase: Phase);

    /// Adds `nanos` of wall time to the phase (called by [`PhaseSpan`]).
    fn time(&self, phase: Phase, nanos: u64);

    /// The every-N sampling hook: invoked from the governor `Pacer` each
    /// time a full check interval of `work` units has elapsed, whether or
    /// not a budget is installed — tracing and budgeting share the one
    /// amortized check-in site.
    fn sample(&self, phase: Phase, work: u64);
}

/// The disabled tracer: a zero-sized type whose hooks are empty inline
/// functions. `Evaluator<'_, NoopTracer>` monomorphizes to exactly the
/// untraced evaluator — E18 measures the overhead as unmeasurable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn fork_worker(&self) -> Self {
        NoopTracer
    }

    #[inline(always)]
    fn count(&self, _phase: Phase, _n: u64) {}

    #[inline(always)]
    fn prune(&self, _phase: Phase, _n: u64) {}

    #[inline(always)]
    fn frontier(&self, _phase: Phase, _depth: u64) {}

    #[inline(always)]
    fn governor_check(&self, _phase: Phase, _n: u64) {}

    #[inline(always)]
    fn governor_abort(&self, _phase: Phase) {}

    #[inline(always)]
    fn time(&self, _phase: Phase, _nanos: u64) {}

    #[inline(always)]
    fn sample(&self, _phase: Phase, _work: u64) {}
}

/// Counter slots per phase (keep in sync with [`PhaseMetrics`]).
const SLOT_NANOS: usize = 0;
const SLOT_ITEMS: usize = 1;
const SLOT_PRUNED: usize = 2;
const SLOT_FRONTIER: usize = 3;
const SLOT_CHECKS: usize = 4;
const SLOT_ABORTS: usize = 5;
const SLOT_SAMPLES: usize = 6;
const SLOTS: usize = 7;

/// A block of `Phase::COUNT × SLOTS` atomic counters: one tracing
/// worker's (the owning worker writes with relaxed ordering, and the fold
/// in [`CollectingTracer::metrics`] reads after the workers joined), or a
/// service's running totals, which any number of requests fold into at
/// once without a lock.
#[derive(Debug)]
pub(crate) struct PhaseCells {
    cells: Vec<AtomicU64>,
}

impl PhaseCells {
    pub(crate) fn new() -> PhaseCells {
        PhaseCells {
            cells: (0..Phase::COUNT * SLOTS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    #[inline]
    fn add(&self, phase: Phase, slot: usize, n: u64) {
        self.cells[phase.index() * SLOTS + slot].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn max(&self, phase: Phase, slot: usize, n: u64) {
        self.cells[phase.index() * SLOTS + slot].fetch_max(n, Ordering::Relaxed);
    }

    fn get(&self, phase: Phase, slot: usize) -> u64 {
        self.cells[phase.index() * SLOTS + slot].load(Ordering::Relaxed)
    }

    /// Adds a snapshot in, with the [`Metrics::merge`] fold: counters and
    /// times sum, frontier peaks max.
    pub(crate) fn fold(&self, m: &Metrics) {
        for phase in Phase::ALL {
            let p = m.phase(phase);
            self.add(phase, SLOT_NANOS, p.nanos);
            self.add(phase, SLOT_ITEMS, p.items);
            self.add(phase, SLOT_PRUNED, p.pruned);
            self.max(phase, SLOT_FRONTIER, p.frontier_peak);
            self.add(phase, SLOT_CHECKS, p.governor_checks);
            self.add(phase, SLOT_ABORTS, p.governor_aborts);
            self.add(phase, SLOT_SAMPLES, p.samples);
        }
    }

    /// The counters as a [`Metrics`] snapshot.
    pub(crate) fn snapshot(&self) -> Metrics {
        let mut m = Metrics::default();
        for phase in Phase::ALL {
            *m.phase_mut(phase) = PhaseMetrics {
                nanos: self.get(phase, SLOT_NANOS),
                items: self.get(phase, SLOT_ITEMS),
                pruned: self.get(phase, SLOT_PRUNED),
                frontier_peak: self.get(phase, SLOT_FRONTIER),
                governor_checks: self.get(phase, SLOT_CHECKS),
                governor_aborts: self.get(phase, SLOT_ABORTS),
                samples: self.get(phase, SLOT_SAMPLES),
            };
        }
        m
    }
}

/// The recording tracer: per-worker atomic counter blocks behind a shared
/// registry, folded into a [`Metrics`] snapshot on demand.
///
/// Cloning shares the registry *and* the cell block; use
/// [`Tracer::fork_worker`] to obtain an uncontended block for a new
/// worker thread (the parallel engine does this for every worker it
/// spawns, in spawn order, so single-worker runs are deterministic).
#[derive(Debug, Clone)]
pub struct CollectingTracer {
    registry: Arc<Mutex<Vec<Arc<PhaseCells>>>>,
    cells: Arc<PhaseCells>,
}

impl CollectingTracer {
    /// A fresh tracer with one registered worker block (the caller's).
    pub fn new() -> CollectingTracer {
        let cells = Arc::new(PhaseCells::new());
        CollectingTracer {
            registry: Arc::new(Mutex::new(vec![cells.clone()])),
            cells,
        }
    }

    /// Folds every registered worker block into a [`Metrics`] snapshot:
    /// work counters and times are summed, frontier peaks are maxed —
    /// the same fold `ProductStats::merge` applies to worker stats.
    pub fn metrics(&self) -> Metrics {
        let workers = match self.registry.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut m = Metrics::default();
        for cells in workers.iter() {
            m.merge(&cells.snapshot());
        }
        m
    }

    /// Number of worker blocks registered so far (1 = the creator's).
    pub fn workers(&self) -> usize {
        match self.registry.lock() {
            Ok(g) => g.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }
}

impl Default for CollectingTracer {
    fn default() -> Self {
        CollectingTracer::new()
    }
}

impl Tracer for CollectingTracer {
    const ENABLED: bool = true;

    fn fork_worker(&self) -> Self {
        let cells = Arc::new(PhaseCells::new());
        match self.registry.lock() {
            Ok(mut g) => g.push(cells.clone()),
            Err(poisoned) => poisoned.into_inner().push(cells.clone()),
        }
        CollectingTracer {
            registry: self.registry.clone(),
            cells,
        }
    }

    #[inline]
    fn count(&self, phase: Phase, n: u64) {
        self.cells.add(phase, SLOT_ITEMS, n);
    }

    #[inline]
    fn prune(&self, phase: Phase, n: u64) {
        self.cells.add(phase, SLOT_PRUNED, n);
    }

    #[inline]
    fn frontier(&self, phase: Phase, depth: u64) {
        self.cells.max(phase, SLOT_FRONTIER, depth);
    }

    #[inline]
    fn governor_check(&self, phase: Phase, n: u64) {
        self.cells.add(phase, SLOT_CHECKS, n);
    }

    #[inline]
    fn governor_abort(&self, phase: Phase) {
        self.cells.add(phase, SLOT_ABORTS, 1);
    }

    #[inline]
    fn time(&self, phase: Phase, nanos: u64) {
        self.cells.add(phase, SLOT_NANOS, nanos);
    }

    #[inline]
    fn sample(&self, phase: Phase, _work: u64) {
        self.cells.add(phase, SLOT_SAMPLES, 1);
    }
}

/// A phase-scoped timer. Started under a disabled tracer it never reads
/// the clock; finishing reports the elapsed nanoseconds to the tracer.
/// Explicit start/finish (rather than a `Drop` guard) keeps the borrow of
/// the tracer out of the hot methods it brackets.
#[derive(Debug)]
#[must_use = "finish the span to record its elapsed time"]
pub struct PhaseSpan {
    phase: Phase,
    start: Option<Instant>,
}

impl PhaseSpan {
    /// Starts timing `phase`; reads the clock only if `T::ENABLED`.
    pub fn start<T: Tracer>(_tracer: &T, phase: Phase) -> PhaseSpan {
        PhaseSpan {
            phase,
            start: T::ENABLED.then(Instant::now),
        }
    }

    /// Stops the timer and adds the elapsed time to the tracer.
    pub fn finish<T: Tracer>(self, tracer: &T) {
        if let Some(start) = self.start {
            tracer.time(self.phase, start.elapsed().as_nanos() as u64);
        }
    }
}

/// The folded counters of one phase (one row of a [`Metrics`] snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseMetrics {
    /// Wall time attributed to the phase, in nanoseconds (summed over
    /// workers, so it can exceed the run's elapsed time under threads).
    pub nanos: u64,
    /// Work items: BFS configurations and sweep pops, join/odometer
    /// tuples, prepared graph vertices — the phase's natural unit.
    pub items: u64,
    /// Elements pruned (semijoin domain prunes).
    pub pruned: u64,
    /// Peak frontier/queue depth observed (maxed over workers).
    pub frontier_peak: u64,
    /// Governor budget check-ins attributed to the phase.
    pub governor_checks: u64,
    /// Governor-initiated aborts of the phase.
    pub governor_aborts: u64,
    /// Sampling-hook firings (one per full pacer check interval).
    pub samples: u64,
}

/// A folded snapshot of every phase's counters, produced by
/// [`CollectingTracer::metrics`] and carried on `Outcome::metrics` by the
/// traced planner entry points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Per-phase rows, indexed by [`Phase::index`].
    pub phases: [PhaseMetrics; Phase::COUNT],
}

impl Metrics {
    /// The row of one phase.
    pub fn phase(&self, phase: Phase) -> &PhaseMetrics {
        &self.phases[phase.index()]
    }

    /// Mutable row of one phase (test fixtures, synthetic snapshots).
    pub fn phase_mut(&mut self, phase: Phase) -> &mut PhaseMetrics {
        &mut self.phases[phase.index()]
    }

    /// Folds another snapshot in: sums work counters and times, maxes
    /// frontier peaks — the `ProductStats::merge` convention.
    pub fn merge(&mut self, other: &Metrics) {
        for phase in Phase::ALL {
            let o = other.phase(phase);
            let p = self.phase_mut(phase);
            p.nanos = p.nanos.saturating_add(o.nanos);
            p.items = p.items.saturating_add(o.items);
            p.pruned = p.pruned.saturating_add(o.pruned);
            p.frontier_peak = p.frontier_peak.max(o.frontier_peak);
            p.governor_checks = p.governor_checks.saturating_add(o.governor_checks);
            p.governor_aborts = p.governor_aborts.saturating_add(o.governor_aborts);
            p.samples = p.samples.saturating_add(o.samples);
        }
    }

    /// Total wall time across phases, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }

    /// Total work items across phases.
    pub fn total_items(&self) -> u64 {
        self.phases.iter().map(|p| p.items).sum()
    }
}

/// Formats nanoseconds with an adaptive unit (`870ns`, `12.3µs`,
/// `4.56ms`, `1.23s`) — deterministic for the golden tests.
pub fn fmt_nanos(nanos: u64) -> String {
    let n = nanos as f64;
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", n / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", n / 1_000_000.0)
    } else {
        format!("{:.2}s", n / 1_000_000_000.0)
    }
}

/// Renders the per-phase table shared by `Plan::explain_traced` and the
/// `analyze --trace` CLI. All six phases render (zero rows included) so
/// the shape is stable; the `time%` column is relative to
/// [`Metrics::total_nanos`].
pub fn render_phase_table(metrics: &Metrics) -> String {
    let total = metrics.total_nanos().max(1);
    let mut out = String::new();
    out.push_str(
        "| phase        | time     | time% | items      | pruned | frontier | checks | aborts | samples |\n",
    );
    out.push_str(
        "|--------------|----------|-------|------------|--------|----------|--------|--------|---------|\n",
    );
    for phase in Phase::ALL {
        let p = metrics.phase(phase);
        let pct = 100.0 * p.nanos as f64 / total as f64;
        out.push_str(&format!(
            "| {:<12} | {:>8} | {:>4.0}% | {:>10} | {:>6} | {:>8} | {:>6} | {:>6} | {:>7} |\n",
            phase.name(),
            fmt_nanos(p.nanos),
            pct,
            p.items,
            p.pruned,
            p.frontier_peak,
            p.governor_checks,
            p.governor_aborts,
            p.samples,
        ));
    }
    out.push_str(&format!(
        "| {:<12} | {:>8} | {:>4.0}% | {:>10} | {:>6} | {:>8} | {:>6} | {:>6} | {:>7} |\n",
        "total",
        fmt_nanos(metrics.total_nanos()),
        100.0,
        metrics.total_items(),
        metrics.phases.iter().map(|p| p.pruned).sum::<u64>(),
        metrics
            .phases
            .iter()
            .map(|p| p.frontier_peak)
            .max()
            .unwrap_or(0),
        metrics
            .phases
            .iter()
            .map(|p| p.governor_checks)
            .sum::<u64>(),
        metrics
            .phases
            .iter()
            .map(|p| p.governor_aborts)
            .sum::<u64>(),
        metrics.phases.iter().map(|p| p.samples).sum::<u64>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracer_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoopTracer>(), 0);
        const { assert!(!NoopTracer::ENABLED) };
        // hooks are callable and inert
        let t = NoopTracer;
        t.count(Phase::ProductBfs, 7);
        t.frontier(Phase::ProductBfs, 7);
        let span = PhaseSpan::start(&t, Phase::Prepare);
        assert!(format!("{span:?}").contains("None"), "no clock read");
        span.finish(&t);
    }

    #[test]
    fn collecting_tracer_records_per_phase() {
        let t = CollectingTracer::new();
        t.count(Phase::ProductBfs, 5);
        t.count(Phase::ProductBfs, 3);
        t.prune(Phase::Semijoin, 4);
        t.frontier(Phase::ProductBfs, 9);
        t.frontier(Phase::ProductBfs, 2);
        t.governor_check(Phase::CqJoin, 2);
        t.governor_abort(Phase::CqJoin);
        t.sample(Phase::Odometer, 4096);
        let m = t.metrics();
        assert_eq!(m.phase(Phase::ProductBfs).items, 8);
        assert_eq!(m.phase(Phase::ProductBfs).frontier_peak, 9);
        assert_eq!(m.phase(Phase::Semijoin).pruned, 4);
        assert_eq!(m.phase(Phase::CqJoin).governor_checks, 2);
        assert_eq!(m.phase(Phase::CqJoin).governor_aborts, 1);
        assert_eq!(m.phase(Phase::Odometer).samples, 1);
        assert_eq!(m.phase(Phase::Prepare).items, 0);
    }

    #[test]
    fn fork_worker_folds_without_loss() {
        let t = CollectingTracer::new();
        t.count(Phase::ProductBfs, 10);
        t.frontier(Phase::ProductBfs, 3);
        let workers: Vec<CollectingTracer> = (0..4).map(|_| t.fork_worker()).collect();
        assert_eq!(t.workers(), 5);
        for (i, w) in workers.iter().enumerate() {
            w.count(Phase::ProductBfs, (i as u64 + 1) * 100);
            w.frontier(Phase::ProductBfs, i as u64 * 10);
        }
        let m = t.metrics();
        // sums fold without loss; frontier folds as a max
        assert_eq!(m.phase(Phase::ProductBfs).items, 10 + 100 + 200 + 300 + 400);
        assert_eq!(m.phase(Phase::ProductBfs).frontier_peak, 30);
    }

    #[test]
    fn phase_span_times_only_when_enabled() {
        let t = CollectingTracer::new();
        let span = PhaseSpan::start(&t, Phase::Prepare);
        span.finish(&t);
        // an enabled span may record 0ns on a coarse clock, but it must
        // have read the clock; a second span accumulates
        let span = PhaseSpan::start(&t, Phase::Prepare);
        std::thread::sleep(std::time::Duration::from_millis(1));
        span.finish(&t);
        assert!(t.metrics().phase(Phase::Prepare).nanos >= 1_000_000);
    }

    #[test]
    fn metrics_merge_sums_and_maxes() {
        let mut a = Metrics::default();
        a.phase_mut(Phase::ProductBfs).items = 5;
        a.phase_mut(Phase::ProductBfs).frontier_peak = 7;
        a.phase_mut(Phase::Semijoin).pruned = 1;
        let mut b = Metrics::default();
        b.phase_mut(Phase::ProductBfs).items = 6;
        b.phase_mut(Phase::ProductBfs).frontier_peak = 3;
        b.phase_mut(Phase::Semijoin).nanos = 9;
        a.merge(&b);
        assert_eq!(a.phase(Phase::ProductBfs).items, 11);
        assert_eq!(a.phase(Phase::ProductBfs).frontier_peak, 7);
        assert_eq!(a.phase(Phase::Semijoin).pruned, 1);
        assert_eq!(a.phase(Phase::Semijoin).nanos, 9);
        assert_eq!(a.total_items(), 11);
    }

    #[test]
    fn nanos_formatting_units() {
        assert_eq!(fmt_nanos(0), "0ns");
        assert_eq!(fmt_nanos(870), "870ns");
        assert_eq!(fmt_nanos(12_300), "12.3µs");
        assert_eq!(fmt_nanos(4_560_000), "4.56ms");
        assert_eq!(fmt_nanos(1_230_000_000), "1.23s");
    }

    #[test]
    fn phase_table_renders_all_phases() {
        let mut m = Metrics::default();
        m.phase_mut(Phase::ProductBfs).items = 1234;
        m.phase_mut(Phase::ProductBfs).nanos = 2_000_000;
        let table = render_phase_table(&m);
        for phase in Phase::ALL {
            assert!(table.contains(phase.name()), "missing {phase}");
        }
        assert!(table.contains("total"));
        assert!(table.contains("1234"));
        assert!(table.contains("2.00ms"));
    }
}
