//! Parallel evaluation engine.
//!
//! Multi-threaded front-ends for the two evaluator families:
//!
//! * the **product** family ([`eval_product_governed`],
//!   [`answers_product_governed_traced`] and their prepared variant) —
//!   one worker body, `steal_chunks`, serves Boolean search and answer
//!   enumeration. The domain of the first
//!   node variable the search assigns is cut into `threads × 4` chunks,
//!   and `std::thread::scope` workers pull chunks from an atomic queue.
//!   Each worker owns one search cursor (`crate::enumerate`) — wrapped in
//!   an [`AnswerIter`] for answer sets — and restarts it per chunk, so its
//!   feasibility memo and BFS visited sets stay thread-local and warm
//!   across chunks. All workers borrow the read-only `SharedTables` —
//!   trimmed automata, dense row-grouped transition tables, enumeration
//!   domains, reachability closure — built once up front (the build also
//!   freezes the database's CSR index, so no worker pays for it). One
//!   thread runs the same body inline over the full range. The domain
//!   program is the query's, not the caller's: a query with a join tree
//!   ([`PreparedQuery::join_tree`]) gets the Yannakakis full reducer on
//!   every entry point, any other the independent semijoin sweeps;
//! * the **CQ** evaluators ([`answers_cq_governed_traced`],
//!   [`answers_cq_treedec_governed_traced`]) — the
//!   backtracking join is partitioned by stride over the first atom's
//!   candidate tuples. The tree-decomposition evaluator builds the
//!   query's [`ReducedCq`] — bag population fans out bag-per-worker
//!   before the (sequential) semijoin passes — and walks its reduced bags
//!   sequentially, in time linear in the output. A prepared plan keeps
//!   the instance its first complete build made, so later executions only
//!   walk it.
//!
//! Workers merge their [`ProductStats`] with saturating adds at join, and
//! answer sets are `BTreeSet`s merged by union — so parallel runs return
//! **bit-identical** answers to the sequential evaluators, and the work
//! invariant `checks + cache_hits = sequential checks + cache_hits` holds
//! for enumeration (each (atom, endpoints) feasibility question is asked
//! the same number of times in total; only the memo-hit split shifts with
//! the partitioning). Boolean search additionally propagates a stop flag
//! so sibling workers abandon their chunks after the first success.
//!
//! Every entry point is governed: it constructs a fresh `Governor` from
//! [`EvalOptions::budget`] and takes a [`Tracer`] where it enumerates.
//! An unbudgeted run passes [`ResourceBudget::unlimited`], which installs
//! no governor at all — the run pays nothing for budget checks and always
//! ends [`Termination::Complete`] — and an untraced run passes
//! [`crate::trace::NoopTracer`]. The `_prepared_` variants run over
//! [`PreparedTables`] built once and reused.

use crate::cq_eval::{CqJoin, FlatDb, ReducedCq};
use crate::enumerate::{AnswerIter, SearchCursor};
use crate::governor::{Governor, Outcome, ResourceBudget, Termination};
use crate::prepare::PreparedQuery;
use crate::product::{Layout, ProductStats, SharedTables};
use crate::trace::{NoopTracer, Tracer};
use ecrpq_analyze::JoinTree;
use ecrpq_graph::{GraphDb, NodeId};
use ecrpq_query::{Cq, RelationalDb};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Work-queue granularity: chunks per worker. More than 1 so a worker that
/// drew an easy slice of the domain can steal further chunks; small enough
/// that per-chunk memo warm-up stays amortized.
const CHUNKS_PER_THREAD: usize = 4;

/// Options controlling parallel evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalOptions {
    /// Worker threads. `0` (the default) means "use
    /// [`std::thread::available_parallelism`]"; `1` runs the sequential
    /// evaluators unchanged.
    pub threads: usize,
    /// Resource budget every engine entry point runs under (unlimited by
    /// default). The planner's `evaluate`/`answers` pass it unlimited;
    /// its `*_governed` entry points and the query service substitute
    /// the regime default when it is unlimited.
    pub budget: ResourceBudget,
    /// Read by no code: each atom's BFS routine is chosen when its tables
    /// are built. Kept only because the served-request benchmark names
    /// it; the next change to that benchmark removes it (see [`Layout`]).
    pub layout: Layout,
}

impl EvalOptions {
    /// Explicitly sequential evaluation.
    pub fn sequential() -> Self {
        EvalOptions {
            threads: 1,
            ..EvalOptions::default()
        }
    }

    /// Evaluation with exactly `n` worker threads (`0` = auto).
    pub fn with_threads(n: usize) -> Self {
        EvalOptions {
            threads: n,
            ..EvalOptions::default()
        }
    }

    /// Returns these options with `budget` installed (builder style).
    pub fn with_budget(mut self, budget: ResourceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The concrete worker count: resolves `threads == 0` to the machine's
    /// available parallelism (1 if that is unknown).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Splits `0..domain` into at most `parts` non-empty contiguous ranges.
fn chunk_ranges(domain: usize, parts: usize) -> Vec<Range<NodeId>> {
    if domain == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, domain);
    let base = domain / parts;
    let extra = domain % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        ranges.push(start as NodeId..(start + len) as NodeId);
        start += len;
    }
    ranges
}

/// How many workers a product-evaluator run should actually use: never
/// more than the top-level domain, and 1 when there is nothing to split
/// (no atoms, no node variables, or an empty database).
fn product_workers(db: &GraphDb, query: &PreparedQuery, opts: &EvalOptions) -> usize {
    let t = opts.effective_threads();
    if t <= 1 || query.atoms.is_empty() || query.num_node_vars == 0 || db.num_nodes() == 0 {
        return 1;
    }
    t.min(db.num_nodes())
}

/// How many workers a CQ backtracking run should use: bounded by the first
/// atom's relation size (the stride partition is over its tuples).
fn cq_workers(db: &RelationalDb, q: &Cq, opts: &EvalOptions) -> usize {
    let t = opts.effective_threads();
    if t <= 1 || q.atoms.is_empty() {
        return 1;
    }
    let max_rel = q
        .atoms
        .iter()
        .map(|a| db.relation(&a.relation).map_or(0, |r| r.tuples.len()))
        .max()
        .unwrap_or(0);
    t.min(max_rel.max(1))
}

/// Runs `work(i, tracer_i)` for every worker index `i` on scoped threads
/// and returns the results in index order. Each worker's tracer is forked
/// *before* its thread spawns, so a collecting tracer registers worker
/// blocks in a deterministic order.
fn on_workers<T: Tracer, R: Send>(
    workers: usize,
    tracer: &T,
    work: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let worker_tracer = tracer.fork_worker();
                s.spawn(move || work(i, worker_tracer))
            })
            .collect();
        handles
            .into_iter()
            // lint:allow(unwrap): propagate worker panics instead of losing them
            .map(|h| h.join().expect("engine worker panicked"))
            .collect()
    })
}

/// Unions per-worker answer sets and merges their counters. Workers cover
/// disjoint slices of the search, so the union of complete runs is
/// bit-identical to the sequential set.
fn merge_workers<K: Ord>(parts: Vec<(BTreeSet<K>, ProductStats)>) -> (BTreeSet<K>, ProductStats) {
    let mut out = BTreeSet::new();
    let mut stats = ProductStats::default();
    for (mine, s) in parts {
        if out.is_empty() {
            out = mine;
        } else {
            out.extend(mine);
        }
        stats.merge(&s);
    }
    (out, stats)
}

/// The governor of one run: none when the budget is unlimited, because an
/// unlimited governor can never trip and its check-ins would only cost
/// time in the hot loops.
pub(crate) fn run_governor(budget: &ResourceBudget) -> Option<Governor> {
    (!budget.is_unlimited()).then(|| Governor::new(budget))
}

/// Whether the run's governor (if any) has stopped it.
fn stopped(governor: Option<&Governor>) -> bool {
    governor.is_some_and(Governor::stopped)
}

/// The outcome of a governed run: `stats` with the governor's checkpoint
/// count folded in, and the governor's termination (`Complete` without
/// one).
fn governed_outcome<A>(
    answers: A,
    mut stats: ProductStats,
    governor: Option<&Governor>,
) -> Outcome<A> {
    stats.budget_checks = governor.map_or(0, Governor::checkpoints_run);
    Outcome {
        answers,
        stats,
        termination: governor.map_or(Termination::Complete, Governor::termination),
        metrics: None,
    }
}

/// [`governed_outcome`] for Boolean evaluation: a `true` answer was
/// verified on a concrete assignment, so it is complete whatever tripped.
fn boolean_outcome(found: bool, stats: ProductStats, governor: Option<&Governor>) -> Outcome<bool> {
    let mut outcome = governed_outcome(found, stats, governor);
    if found {
        outcome.termination = Termination::Complete;
    }
    outcome
}

// ---------------------------------------------------------------------------
// Product family
// ---------------------------------------------------------------------------

/// Boolean product evaluation. With `threads > 1` the domain of the first
/// assigned node variable is searched by concurrent workers, and the
/// first success cancels the rest; because the stop flag truncates
/// sibling searches, the merged counters of a satisfiable run are a lower
/// bound on the sequential run's.
///
/// Identical to the sequential [`crate::product::eval_product`] while the
/// budget in `opts.budget` holds; when a limit is hit the search stops
/// cooperatively and the [`Outcome::termination`] field reports which
/// resource ran out. A `true` answer is always definitive (a concrete
/// satisfying assignment was verified); a `false` answer under a
/// non-[`Termination::Complete`] termination only means "not proven
/// satisfiable within budget".
pub fn eval_product_governed(
    db: &GraphDb,
    query: &PreparedQuery,
    opts: &EvalOptions,
) -> Outcome<bool> {
    let governor = run_governor(&opts.budget);
    let governor = governor.as_ref();
    let tables = SharedTables::build(db, query, governor, &NoopTracer);
    // one search cursor per worker, all sharing a stop flag that the
    // first success raises
    let stop = AtomicBool::new(false);
    let parts = steal_chunks(
        db.num_nodes(),
        product_workers(db, query, opts),
        &stop,
        &NoopTracer,
        |_| {
            let mut search = SearchCursor::new(db, query, &tables, governor, NoopTracer);
            search.ev.set_stop(&stop);
            (search, false)
        },
        |(search, hit), range| {
            if let Some(r) = range {
                search.restart(r);
            }
            *hit = search.next_assignment().is_some();
            search.ev.flush_budget();
            *hit || stopped(governor)
        },
    );
    let mut stats = ProductStats::default();
    for (search, _) in &parts {
        stats.merge(&search.ev.stats);
    }
    boolean_outcome(parts.iter().any(|&(_, hit)| hit), stats, governor)
}

/// Answer enumeration for the product evaluator: workers enumerate
/// disjoint slices of the first variable's domain and the per-worker
/// sets are merged by union. Enumeration never stops early, so the merged
/// `checks + cache_hits` and `assignments` equal the sequential totals.
///
/// The returned set is always a **subset** of the unbudgeted answer set
/// (budget truncation can only lose answers, never invent them), and when
/// [`Outcome::termination`] is [`Termination::Complete`] it is
/// bit-identical to [`crate::product::answers_product`]. Per-phase
/// counters go to `tracer`, with worker counter blocks forked
/// (registered) in spawn order, *before* the workers start, so a
/// collecting tracer's fold is deterministic at one thread and lossless
/// at any thread count. The returned [`Outcome::metrics`] stays `None` —
/// fold the collecting tracer you passed in (its `metrics()`) to read the
/// phase split.
pub fn answers_product_governed_traced<T: Tracer>(
    db: &GraphDb,
    query: &PreparedQuery,
    opts: &EvalOptions,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<NodeId>>> {
    let governor = run_governor(&opts.budget);
    let governor = governor.as_ref();
    let tables = SharedTables::build(db, query, governor, tracer);
    let workers = product_workers(db, query, opts);
    answers_over(db, query, &tables, workers, governor, tracer)
}

/// The governed product enumeration over tables that already exist: one
/// streaming [`AnswerIter`] per worker. The governor is *borrowed*, never
/// stored: callers construct a fresh one per execution (its deadline
/// `Instant` and stop flag are single-run state), which is what lets
/// prepared-plan caches reuse the tables underneath without inheriting a
/// tripped budget. Per-worker dedup is local (free tuples cycled by
/// different workers' odometers can coincide), so the per-worker sets
/// are merged by union.
fn answers_over<T: Tracer>(
    db: &GraphDb,
    query: &PreparedQuery,
    tables: &SharedTables,
    workers: usize,
    governor: Option<&Governor>,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<NodeId>>> {
    let parts = steal_chunks(
        db.num_nodes(),
        workers,
        &AtomicBool::new(false),
        tracer,
        |worker_tracer| AnswerIter::with_parts(db, query, tables, governor, worker_tracer),
        |it, range| {
            if let Some(r) = range {
                it.restart(r);
            }
            it.run();
            stopped(governor)
        },
    );
    let (answers, stats) = merge_workers(parts.into_iter().map(AnswerIter::into_parts).collect());
    governed_outcome(answers, stats, governor)
}

/// The one product worker body. Sequentially (`workers <= 1`) it runs
/// one search state over the full range on the calling thread. In
/// parallel, each worker builds its state once (`start`) and steals
/// first-variable chunks from a shared queue over [`chunk_ranges`],
/// restarting the state on each one (`run`; the search keeps its memo
/// and BFS buffers across restarts), until the queue drains or a chunk
/// returns `true` — a Boolean hit or a tripped budget — which raises
/// `stop` for every worker.
fn steal_chunks<T: Tracer, W: Send>(
    nv: usize,
    workers: usize,
    stop: &AtomicBool,
    tracer: &T,
    start: impl Fn(T) -> W + Sync,
    run: impl Fn(&mut W, Option<Range<NodeId>>) -> bool + Sync,
) -> Vec<W> {
    if workers <= 1 {
        let mut w = start(tracer.fork_worker());
        run(&mut w, None);
        return vec![w];
    }
    let ranges = chunk_ranges(nv, workers * CHUNKS_PER_THREAD);
    let next = AtomicUsize::new(0);
    on_workers(workers, tracer, |_, worker_tracer| {
        let mut w = start(worker_tracer);
        while !stop.load(Ordering::Relaxed) {
            let Some(r) = ranges.get(next.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            if run(&mut w, Some(r.clone())) {
                stop.store(true, Ordering::Relaxed);
            }
        }
        w
    })
}

// ---------------------------------------------------------------------------
// Prepared evaluation state (tables built once, executed many times)
// ---------------------------------------------------------------------------

/// Pre-built read-only evaluation state for the product-family entry
/// points: the `SharedTables` — trimmed automata, reachability closure,
/// dense row-grouped transition tables, enumeration domains (the full
/// reducer's over the query's join tree, the independent sweeps'
/// otherwise) — that every engine call otherwise rebuilds serially before
/// its workers spawn. Building them once and executing many times is what
/// a prepared-plan cache amortizes, and it is also what makes thread
/// scaling visible end-to-end: the serial build no longer dilutes the
/// parallel search region (Amdahl).
///
/// The tables are plain owned data (`Send + Sync`), safe to share across
/// threads and across executions. They are **always built ungoverned**: a
/// governor tripping mid-build truncates closure rows and semijoin
/// domains — sound for the single run that observes the non-complete
/// [`Termination`], but silently lossy if ever reused. Per-execution
/// budgets are enforced by the governed prepared entry points, which
/// construct a fresh `Governor` on every call.
pub struct PreparedTables {
    tables: SharedTables,
}

impl PreparedTables {
    /// Builds the shared evaluation tables for `query` over `db`. Over the
    /// query's join tree the domains are made globally consistent by the
    /// two-pass Yannakakis semijoin program, which sends only the full
    /// reducer's messages: bottom-up, each atom sweeps towards the
    /// variables it shares with its parent; top-down, every track sweeps
    /// both ways, the second sweep seeded with the first one's result.
    /// Sweeps from an unconstrained domain start at the carriers of the
    /// labels they read first, and where the domains do not depend on the
    /// root, each tree component is rooted where those sweeps seed least,
    /// so on a query whose leaves read rare labels the build follows the
    /// data those labels carry, not `|V|`. Without a tree the semijoin
    /// sweeps prune each atom's endpoint domains independently. Also
    /// freezes the database's CSR index, so no later execution pays for
    /// it. `_layout` is read by no code; it stays only because the
    /// served-request benchmark passes it, and the next change to that
    /// benchmark removes it.
    pub fn build(db: &GraphDb, query: &PreparedQuery, _layout: Layout) -> Self {
        PreparedTables {
            tables: SharedTables::build(db, query, None, &NoopTracer),
        }
    }

    /// [`PreparedTables::build`]: the domain program follows the query's
    /// own join tree, so `_tree` is read by no code. Kept only because the
    /// served-request benchmark names it; the next change to that
    /// benchmark removes it.
    pub fn build_for_tree(db: &GraphDb, query: &PreparedQuery, _tree: &JoinTree) -> Self {
        Self::build(db, query, Layout::Flat)
    }
}

/// Resource-governed answer enumeration over pre-built tables. A
/// **fresh** `Governor` is constructed on every call — deadlines are
/// measured from this call's entry, and no stop flag or termination
/// survives into the next execution, so a cached plan whose previous run
/// tripped its budget starts the next run clean.
/// Unlike [`answers_product_governed_traced`], the table build is not
/// governed (it already happened, ungoverned, in
/// [`PreparedTables::build`]); the budget covers the search region only.
pub fn answers_product_governed_prepared_traced<T: Tracer>(
    db: &GraphDb,
    query: &PreparedQuery,
    tables: &PreparedTables,
    opts: &EvalOptions,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<NodeId>>> {
    let governor = run_governor(&opts.budget);
    let governor = governor.as_ref();
    let workers = product_workers(db, query, opts);
    answers_over(db, query, &tables.tables, workers, governor, tracer)
}

/// [`answers_product_governed_prepared_traced`]. Kept only because the
/// served-request benchmark names it; the next change to that benchmark
/// removes it.
pub fn answers_yannakakis_governed_prepared_traced<T: Tracer>(
    db: &GraphDb,
    query: &PreparedQuery,
    tables: &PreparedTables,
    opts: &EvalOptions,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<NodeId>>> {
    answers_product_governed_prepared_traced(db, query, tables, opts, tracer)
}

// ---------------------------------------------------------------------------
// CQ family: backtracking join and tree-decomposition evaluation
// ---------------------------------------------------------------------------

/// Stats for the CQ family under governance: the governor's work counter is
/// the only cross-worker aggregate the CQ evaluators maintain, so it is
/// surfaced through `configurations`.
fn governed_cq_stats(governor: Option<&Governor>) -> ProductStats {
    governor.map_or_else(ProductStats::default, |g| ProductStats {
        configurations: g.work_charged(),
        budget_checks: g.checkpoints_run(),
        budget_aborts: u64::from(g.stopped()),
        ..ProductStats::default()
    })
}

/// Boolean CQ evaluation by stride-partitioned backtracking. `true` is
/// definitive; `false` with a non-complete termination means "not proven
/// within budget".
pub fn eval_cq_governed(db: &RelationalDb, q: &Cq, opts: &EvalOptions) -> Outcome<bool> {
    let governor = run_governor(&opts.budget);
    let governor = governor.as_ref();
    let workers = cq_workers(db, q, opts);
    let join = CqJoin::new(db, q);
    let found = if workers <= 1 {
        join.holds(None, governor, &NoopTracer)
    } else {
        let stop = AtomicBool::new(false);
        let hits = on_workers(workers, &NoopTracer, |p, _| {
            if stop.load(Ordering::Relaxed) || stopped(governor) {
                return false;
            }
            let part = Some((workers, p));
            let hit = join.holds(part, governor, &NoopTracer);
            if hit {
                stop.store(true, Ordering::Relaxed);
            }
            hit
        });
        hits.contains(&true)
    };
    boolean_outcome(found, governed_cq_stats(governor), governor)
}

/// Boolean tree-decomposition evaluation: the query holds iff its
/// [`ReducedCq`] is satisfiable. Bag population fans out across workers;
/// the semijoin passes stay sequential (they are linear in the bag
/// sizes). The reduction only certifies satisfiability when it ran to
/// completion, so a run cut short by the budget never returns `true` —
/// `false` under a non-complete termination means "not proven".
pub fn eval_cq_treedec_governed(db: &RelationalDb, q: &Cq, opts: &EvalOptions) -> Outcome<bool> {
    let threads = opts.effective_threads();
    eval_reduced_cq(
        |governor| ReducedCq::build_governed(FlatDb::of(db, q), q, threads, governor, &NoopTracer),
        opts,
    )
}

/// The one Boolean tree-decomposition pipeline: the query holds iff the
/// instance `build` makes under this run's fresh governor is satisfiable.
pub(crate) fn eval_reduced_cq(
    build: impl FnOnce(Option<&Governor>) -> Option<ReducedCq>,
    opts: &EvalOptions,
) -> Outcome<bool> {
    let governor = run_governor(&opts.budget);
    let governor = governor.as_ref();
    let sat = build(governor).is_some_and(|r| r.is_satisfiable());
    boolean_outcome(sat, governed_cq_stats(governor), governor)
}

/// CQ answer enumeration: workers cover disjoint stride classes of the
/// first join atom's tuples; when the run completes the merged set is
/// identical to [`crate::cq_eval::answers_cq`], and a truncated run
/// returns a subset. Per-phase counters go to `tracer`.
pub fn answers_cq_governed_traced<T: Tracer>(
    db: &RelationalDb,
    q: &Cq,
    opts: &EvalOptions,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<u32>>> {
    let governor = run_governor(&opts.budget);
    let governor = governor.as_ref();
    let workers = cq_workers(db, q, opts);
    let join = CqJoin::new(db, q);
    let run = |part: Option<(usize, usize)>, worker_tracer: T| {
        let mut mine = BTreeSet::new();
        join.answers_into(part, governor, &worker_tracer, &mut mine);
        (mine, ProductStats::default())
    };
    let answers = if workers <= 1 {
        run(None, tracer.fork_worker()).0
    } else {
        merge_workers(on_workers(workers, tracer, |p, worker_tracer| {
            run(Some((workers, p)), worker_tracer)
        }))
        .0
    };
    governed_outcome(answers, governed_cq_stats(governor), governor)
}

/// Tree-decomposition answer enumeration: builds the query's
/// [`ReducedCq`] — parallel bag population, sequential semijoins — and
/// walks it; identical output to [`crate::cq_eval::answers_cq_treedec`]
/// when the run completes. One governor spans the build and the walk, so
/// a deadline covers the whole pipeline; a run cut short during the build
/// returns no answers. Bag population is reported under
/// [`crate::trace::Phase::TreedecBags`], the walk under
/// [`crate::trace::Phase::CqJoin`] / [`crate::trace::Phase::Odometer`].
pub fn answers_cq_treedec_governed_traced<T: Tracer>(
    db: &RelationalDb,
    q: &Cq,
    opts: &EvalOptions,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<u32>>> {
    let threads = opts.effective_threads();
    answers_reduced_cq_traced(
        &OnceLock::new(),
        |governor| ReducedCq::build_governed(FlatDb::of(db, q), q, threads, governor, tracer),
        opts,
        tracer,
    )
}

/// The one tree-decomposition answer pipeline. Takes the reduced
/// instance from `slot` when an earlier run stored it; otherwise builds
/// it with `build` under this run's fresh governor and stores it when the
/// build was not stopped (a tripped build serves this run only: with no
/// answers). Then walks it under the same governor. A prepared plan
/// passes its own slot, so only its first complete build pays for bag
/// population and the semijoins; a one-shot run passes an empty one.
pub(crate) fn answers_reduced_cq_traced<T: Tracer>(
    slot: &OnceLock<ReducedCq>,
    build: impl FnOnce(Option<&Governor>) -> Option<ReducedCq>,
    opts: &EvalOptions,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<u32>>> {
    let governor = run_governor(&opts.budget);
    let governor = governor.as_ref();
    let reduced = slot.get().or_else(|| {
        // a concurrent run may have stored its build first: both are
        // complete, and the loser's is dropped
        let _ = slot.set(build(governor)?);
        slot.get()
    });
    let answers = reduced.map_or_else(BTreeSet::new, |r| r.enumerate(governor, tracer));
    governed_outcome(answers, governed_cq_stats(governor), governor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq_eval;
    use crate::trace::NoopTracer;
    use ecrpq_automata::relations;
    use ecrpq_query::Ecrpq;
    use std::sync::Arc;

    fn chain_with_branches() -> GraphDb {
        // 0 -a-> 1 -a-> 2 -a-> 3 -b-> 4, plus 0 -b-> 2, 2 -a-> 0
        let mut g = GraphDb::new();
        for i in 0..5 {
            g.add_node(&format!("n{i}"));
        }
        g.add_edge(0, 'a', 1);
        g.add_edge(1, 'a', 2);
        g.add_edge(2, 'a', 3);
        g.add_edge(3, 'b', 4);
        g.add_edge(0, 'b', 2);
        g.add_edge(2, 'a', 0);
        g
    }

    fn eq_len_query(db: &GraphDb) -> Ecrpq {
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let p1 = q.path_atom(x, "p1", z);
        let p2 = q.path_atom(y, "p2", z);
        q.rel_atom(
            "eq_len",
            Arc::new(relations::eq_length(2, db.alphabet().len())),
            &[p1, p2],
        );
        q.set_free(&[x, y]);
        q
    }

    /// The answers of a run that must have completed.
    fn complete<A>(o: Outcome<A>) -> A {
        assert_eq!(o.termination, Termination::Complete);
        o.answers
    }

    #[test]
    fn chunk_ranges_partition_domain() {
        for domain in [0usize, 1, 2, 7, 16, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(domain, parts);
                let mut covered = 0usize;
                let mut expect = 0u32;
                for r in &ranges {
                    assert_eq!(r.start, expect, "contiguous");
                    assert!(r.end > r.start, "non-empty");
                    covered += (r.end - r.start) as usize;
                    expect = r.end;
                }
                assert_eq!(covered, domain);
            }
        }
    }

    #[test]
    fn zero_atom_cq_not_duplicated() {
        let db = RelationalDb::new(3);
        let mut q = Cq::new(1);
        q.free = vec![0];
        let seq = cq_eval::answers_cq(&db, &q);
        assert_eq!(seq.len(), 3);
        let opts = EvalOptions::with_threads(4);
        let par = complete(answers_cq_governed_traced(&db, &q, &opts, &NoopTracer));
        assert_eq!(par, seq);
    }

    #[test]
    fn prepared_tables_match_one_shot() {
        let db = chain_with_branches();
        let q = eq_len_query(&db);
        let p = PreparedQuery::build(&q).unwrap();
        let opts = EvalOptions::sequential();
        let one_shot = complete(answers_product_governed_traced(&db, &p, &opts, &NoopTracer));
        let tables = PreparedTables::build(&db, &p, Layout::Flat);
        for threads in [1usize, 2, 4] {
            let opts = EvalOptions::with_threads(threads);
            // repeated executions over the same tables stay identical
            for _ in 0..2 {
                let o =
                    answers_product_governed_prepared_traced(&db, &p, &tables, &opts, &NoopTracer);
                assert_eq!(complete(o), one_shot, "threads={threads}");
            }
        }
    }

    #[test]
    fn prepared_governed_runs_start_clean() {
        let db = chain_with_branches();
        let q = eq_len_query(&db);
        let p = PreparedQuery::build(&q).unwrap();
        let tables = PreparedTables::build(&db, &p, Layout::Flat);
        let opts = EvalOptions::sequential();
        let full = complete(answers_product_governed_traced(&db, &p, &opts, &NoopTracer));
        // run 1: an already-expired deadline (constructed per call, so it
        // trips immediately)
        let tight = EvalOptions::sequential()
            .with_budget(ResourceBudget::unlimited().with_deadline(std::time::Duration::ZERO));
        let first = answers_product_governed_prepared_traced(&db, &p, &tables, &tight, &NoopTracer);
        assert_ne!(first.termination, Termination::Complete);
        // run 2 on the very same tables: a fresh governor, so the run
        // completes and matches the unbudgeted set bit-for-bit
        let second = answers_product_governed_prepared_traced(&db, &p, &tables, &opts, &NoopTracer);
        assert_eq!(complete(second), full);
    }

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(EvalOptions::sequential().effective_threads(), 1);
        assert_eq!(EvalOptions::with_threads(3).effective_threads(), 3);
        assert!(EvalOptions::default().effective_threads() >= 1);
    }
}
