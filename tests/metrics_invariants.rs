//! Invariants tying `ProductStats` and the tracer's `Metrics` together.
//!
//! The stats struct and the observability layer count the same events
//! through independent mechanisms (plain field increments vs. per-worker
//! atomic cells folded on collection), so each invariant here is a
//! cross-check of one against the other — or of a stats field against
//! the combinatorics that define it.

use ecrpq::eval::engine;
use ecrpq::eval::{
    CollectingTracer, EvalOptions, NoopTracer, Phase, PreparedQuery, ResourceBudget,
};
use ecrpq::query::NodeVar;
use ecrpq::workloads::{env_seed, random_db, random_ecrpq, RandomQueryParams};

mod common;

fn small_params() -> RandomQueryParams {
    RandomQueryParams {
        node_vars: 3,
        path_atoms: 3,
        rel_atoms: 2,
        max_arity: 2,
        num_symbols: 2,
    }
}

/// `domain_kept + domain_pruned` partitions the endpoint domains: the
/// semijoin pass walks some subset of node variables (the constrained
/// ones) over the full vertex set, so the sum is a multiple of `|V|`
/// bounded by `#vars · |V|`.
#[test]
fn domain_counters_partition_the_endpoint_domains() {
    let base = env_seed(0);
    for case in 0..20u64 {
        let seed = base + case;
        let mut q = random_ecrpq(&small_params(), seed + 7000);
        let all: Vec<NodeVar> = (0..q.num_node_vars() as u32).map(NodeVar).collect();
        q.set_free(&all);
        let db = random_db(12, 1.8, 2, seed * 19 + 3);
        let n = db.num_nodes() as u64;
        let prepared = PreparedQuery::build(&q).unwrap();
        let (_, stats) =
            common::product_answers_with_stats(&db, &prepared, &EvalOptions::sequential());
        let total = stats.domain_kept + stats.domain_pruned;
        assert_eq!(
            total % n,
            0,
            "seed {seed}: kept {} + pruned {} is not a whole number of domains",
            stats.domain_kept,
            stats.domain_pruned
        );
        assert!(
            total <= q.num_node_vars() as u64 * n,
            "seed {seed}: {total} exceeds #vars × |V|"
        );
    }
}

/// Every queued BFS configuration is eventually expanded on a complete
/// run, so the peak queue length can never exceed the expansion count.
#[test]
fn frontier_peak_bounded_by_configurations() {
    let base = env_seed(0);
    for case in 0..20u64 {
        let seed = base + case;
        let mut q = random_ecrpq(&small_params(), seed + 8000);
        q.set_free(&[NodeVar(0)]);
        let db = random_db(10, 1.8, 2, seed * 29 + 1);
        let prepared = PreparedQuery::build(&q).unwrap();
        let opts = EvalOptions::sequential();
        let (_, stats) = common::product_answers_with_stats(&db, &prepared, &opts);
        assert!(
            stats.frontier_peak <= stats.configurations,
            "seed {seed}: frontier {} > configurations {}",
            stats.frontier_peak,
            stats.configurations
        );
    }
}

/// The bitmap kernel defines `frontier_peak` as the most configurations
/// it expanded from one BFS level, merged across workers by max. The
/// kernel only runs synchronized atoms (arity 2–3), so the query ties two
/// paths over the same chain by `eq`: one arity-2 atom whose tracks walk
/// the chain in lockstep. On single-file chains every level holds
/// exactly one configuration, so the peak must be
/// exactly 1 at every thread count — a sum-merge across workers, or
/// counting a whole word instead of its popcount, would exceed 1.
#[test]
fn kernel_frontier_peak_is_max_of_level_popcounts() {
    use ecrpq::automata::Alphabet;
    use ecrpq::graph::GraphDb;
    use ecrpq::query::{parse_query, RelationRegistry};
    let mut db = GraphDb::with_alphabet(Alphabet::ascii_lower(2));
    // four disjoint chains a¹⁰b, so parallel workers sweep independent
    // single-file frontiers that must merge by max, not sum
    for _ in 0..4 {
        let first = db.add_nodes_anon(12);
        for i in 0..10u32 {
            db.add_edge(first + i, 'a', first + i + 1);
        }
        db.add_edge(first + 10, 'b', first + 11);
    }
    let mut alphabet = db.alphabet().clone();
    let q = parse_query(
        "q(x) :- x -[p]-> y, x -[r]-> y, eq(p, r), p in a*b",
        &mut alphabet,
        &RelationRegistry::new(),
    )
    .unwrap();
    let prepared = PreparedQuery::build(&q).unwrap();
    assert_eq!(prepared.atoms.len(), 1);
    assert_eq!(prepared.atoms[0].rel.arity(), 2, "one synchronized atom");
    for threads in [1usize, 2, 4, 8] {
        let opts = EvalOptions::with_threads(threads);
        let (answers, stats) = common::product_answers_with_stats(&db, &prepared, &opts);
        // nodes 0..=10 of each chain reach the b-edge
        assert_eq!(answers.len(), 44, "{threads} threads");
        assert_eq!(
            stats.frontier_peak, 1,
            "{threads} threads: chain BFS peak must be one inserted config per level"
        );
        assert!(stats.configurations > 10, "{threads} threads");
    }
}

/// An abort is only ever recorded by a checkpoint that tripped, so
/// aborts are bounded by checks — and a complete run aborted nothing.
#[test]
fn budget_aborts_bounded_by_budget_checks() {
    use ecrpq::workloads::big_component_query;
    let base = env_seed(0);
    let mut q = big_component_query(3, 2);
    q.set_free(&[NodeVar(0), NodeVar(1)]);
    let db = random_db(30, 2.0, 2, base * 7 + 97);
    let prepared = PreparedQuery::build(&q).unwrap();
    for cap in [1u64, 100, 10_000, u64::MAX / 2] {
        let opts = EvalOptions::sequential()
            .with_budget(ResourceBudget::unlimited().with_max_configurations(cap));
        let o = engine::answers_product_governed_traced(&db, &prepared, &opts, &NoopTracer);
        assert!(
            o.stats.budget_aborts <= o.stats.budget_checks,
            "cap {cap}: aborts {} > checks {} (base seed {base})",
            o.stats.budget_aborts,
            o.stats.budget_checks
        );
        if o.termination.is_complete() {
            assert_eq!(o.stats.budget_aborts, 0, "cap {cap}: complete run aborted");
        }
        // (a truncated run need not record an abort here: the trip may be
        // noticed by a site outside the instrumented hot loops, e.g. a
        // semijoin sweep cut short)
    }
}

/// The tracer's per-phase counters must agree with the `ProductStats`
/// fields that count the same events: BFS items are configurations, the
/// domain program's prunes (the semijoin sweeps', or the Yannakakis
/// program's when the query has a join tree) are the pruned domain
/// values, the folded frontier peak is the stats frontier peak.
#[test]
fn traced_counters_match_product_stats() {
    let base = env_seed(0);
    for case in 0..10u64 {
        let seed = base + case;
        let mut q = random_ecrpq(&small_params(), seed + 9000);
        q.set_free(&[NodeVar(0), NodeVar(1)]);
        let db = random_db(10, 1.8, 2, seed * 31 + 7);
        let prepared = PreparedQuery::build(&q).unwrap();
        let tracer = CollectingTracer::new();
        let opts = EvalOptions::sequential();
        let o = engine::answers_product_governed_traced(&db, &prepared, &opts, &tracer);
        let (answers, stats) = common::complete(o);
        let m = tracer.metrics();
        assert_eq!(
            m.phase(Phase::ProductBfs).items,
            stats.configurations,
            "seed {seed}: BFS items vs configurations"
        );
        assert_eq!(
            m.phase(Phase::Semijoin).pruned + m.phase(Phase::YannakakisDown).pruned,
            stats.domain_pruned,
            "seed {seed}: domain-program prunes vs domain_pruned"
        );
        assert_eq!(
            m.phase(Phase::ProductBfs).frontier_peak,
            stats.frontier_peak,
            "seed {seed}: folded frontier vs stats frontier"
        );
        assert!(
            m.phase(Phase::Odometer).items >= answers.len() as u64,
            "seed {seed}: odometer items below distinct answers"
        );
        assert!(
            m.phase(Phase::Prepare).items > 0,
            "seed {seed}: prepare phase saw no closure rows"
        );
    }
}

/// The same stats/tracer agreement must hold when the counters are
/// produced by several workers and folded: per-worker atomic cells are
/// registered before the threads spawn and summed on collection, so no
/// increment can be dropped at any thread count.
#[test]
fn parallel_fold_loses_no_counts() {
    let base = env_seed(0);
    let mut q = random_ecrpq(&small_params(), base + 9500);
    q.set_free(&[NodeVar(0), NodeVar(1)]);
    let db = random_db(16, 2.0, 2, base * 11 + 13);
    let prepared = PreparedQuery::build(&q).unwrap();
    let mut expected = None;
    for threads in [1usize, 2, 4, 8] {
        let tracer = CollectingTracer::new();
        let opts = EvalOptions::with_threads(threads);
        let o = engine::answers_product_governed_traced(&db, &prepared, &opts, &tracer);
        let (answers, stats) = common::complete(o);
        let m = tracer.metrics();
        assert_eq!(
            m.phase(Phase::ProductBfs).items,
            stats.configurations,
            "{threads} threads: fold dropped BFS work (base seed {base})"
        );
        assert_eq!(
            m.phase(Phase::ProductBfs).frontier_peak,
            stats.frontier_peak,
            "{threads} threads: frontier fold"
        );
        // answers are bit-identical at every thread count
        match &expected {
            None => expected = Some(answers),
            Some(e) => assert_eq!(&answers, e, "{threads} threads"),
        }
    }
}

/// Per-phase governor counters obey the same pairing discipline as the
/// stats: every abort site checks in first, so aborts ≤ checks in every
/// phase — on governed *and* ungoverned runs, truncated or complete.
#[test]
fn per_phase_aborts_bounded_by_checks() {
    use ecrpq::workloads::big_component_query;
    let base = env_seed(0);
    let mut q = big_component_query(3, 2);
    q.set_free(&[NodeVar(0), NodeVar(1)]);
    let db = random_db(25, 2.0, 2, base * 5 + 41);
    let prepared = PreparedQuery::build(&q).unwrap();
    for cap in [50u64, 5_000, u64::MAX / 2] {
        let opts = EvalOptions::sequential()
            .with_budget(ResourceBudget::unlimited().with_max_configurations(cap));
        let tracer = CollectingTracer::new();
        let o = engine::answers_product_governed_traced(&db, &prepared, &opts, &tracer);
        let m = tracer.metrics();
        for phase in Phase::ALL {
            let p = m.phase(phase);
            assert!(
                p.governor_aborts <= p.governor_checks,
                "cap {cap}, phase {}: aborts {} > checks {} (base seed {base})",
                phase.name(),
                p.governor_aborts,
                p.governor_checks
            );
        }
        if o.termination.is_complete() {
            let total_aborts: u64 = Phase::ALL.iter().map(|&p| m.phase(p).governor_aborts).sum();
            assert_eq!(
                total_aborts, 0,
                "cap {cap}: complete run left an abort trace"
            );
        }
    }
}
