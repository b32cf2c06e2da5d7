//! Differential testing for the semantic regime minimizer.
//!
//! Every rewrite the minimizer applies is verified internally by a
//! two-way containment check, but this suite re-checks the end result
//! from the outside: the minimized query must be *answer-identical* to
//! the original on concrete databases, under every layout of the product
//! search and at 1/2/4 threads, and both must agree with the PR-5
//! brute-force oracle. A final regression pins the `analyze --fix`
//! contract: `fix_source` is idempotent on the committed query corpus.
//!
//! Seeds are offset by `ECRPQ_TEST_SEED` (see `workloads::env_seed`) and
//! printed in every assertion message.

use ecrpq::analyze::{fix_source, minimize};
use ecrpq::eval::{planner, EvalOptions, Layout, PreparedQuery};
use ecrpq::graph::NodeId;
use ecrpq::query::{parse_query, Ecrpq, NodeVar, RelationRegistry};
use ecrpq::workloads::{
    env_seed, oracle_answers, planted_regime_shift_instance, random_db, random_ecrpq,
    RandomQueryParams,
};
use std::collections::BTreeSet;

mod common;

/// Walk-length bound for the oracle (same calibration as the other
/// oracle suites: minimal witnesses on 4-node graphs fit comfortably).
const MAX_LEN: usize = 8;

/// Queries the minimizer provably rewrites (the committed corpus pair
/// plus smaller variants of each rewrite family), so the differential
/// check below is guaranteed to exercise real rewrite steps instead of
/// silently comparing a query against itself.
const SHRINKABLE: &[&str] = &[
    // equality-contraction family (parallel eq-chained paths)
    "q(x, y) :- x -[p]-> y, x -[r]-> y, eq(p, r)",
    "q(x, y) :- x -[p]-> y, x -[r]-> y, x -[s]-> y, p in (a|b)*a, eq(p, r), eq(r, s)",
    // reachability-elision family (universal chords implied by a chain)
    "q(x, z) :- x -[p]-> y, y -[r]-> z, x -[c]-> z, c in (a|b)*",
    "q(w, z) :- w -[p1]-> x, x -[p2]-> y, y -[p3]-> z, w -[c1]-> y, x -[c2]-> z, \
     w -[c3]-> z, p1 in a*b, c1 in (a|b)*, c2 in (a|b)*, c3 in (a|b)*",
    // parallel-atom merge family (two regexes on the same endpoints)
    "q(x, y) :- x -[p]-> y, x -[r]-> y, p in a*b, r in (a|b)*b, eq(p, r)",
];

/// Evaluate `q` with the product search, bypassing the planner's own
/// minimization pass, so original-vs-minimized comparisons are between
/// two genuinely different pipelines over two genuinely different ASTs.
fn product_answers(
    db: &ecrpq::graph::GraphDb,
    q: &Ecrpq,
    layout: Layout,
    threads: usize,
) -> BTreeSet<Vec<NodeId>> {
    let prepared = PreparedQuery::build(q).unwrap_or_else(|e| panic!("prepare: {e}"));
    let opts = EvalOptions::with_threads(threads).with_layout(layout);
    common::product_answers(db, &prepared, &opts)
}

#[test]
fn minimized_queries_are_answer_identical_on_shrinkable_corpus() {
    let base = env_seed(0);
    let mut rewrites = 0usize;
    for (i, text) in SHRINKABLE.iter().enumerate() {
        for case in 0..4u64 {
            let seed = base + case;
            let db = random_db(4, 1.6, 2, seed * 31 + i as u64);
            let mut alphabet = db.alphabet().clone();
            let q = parse_query(text, &mut alphabet, &RelationRegistry::new())
                .unwrap_or_else(|e| panic!("query {i}: {e}"));
            let m = minimize(&q);
            assert!(
                !m.steps.is_empty(),
                "query {i} is in the shrinkable corpus but no rewrite fired"
            );
            rewrites += m.steps.len();
            let truth = oracle_answers(&db, &q, MAX_LEN);
            let exact = oracle_answers(&db, &q, MAX_LEN - 2) == truth;
            for layout in [Layout::Flat, Layout::BitParallel] {
                for threads in [1usize, 2, 4] {
                    let orig = product_answers(&db, &q, layout, threads);
                    let mini = product_answers(&db, &m.query, layout, threads);
                    assert_eq!(
                        orig, mini,
                        "query {i}, seed {seed}, {layout:?}, {threads} thread(s): \
                         minimized query changed the answer set"
                    );
                    assert!(
                        truth.is_subset(&mini),
                        "query {i}, seed {seed}: minimized query missed oracle answers"
                    );
                    if exact {
                        assert_eq!(
                            mini, truth,
                            "query {i}, seed {seed}: minimized query reported extra answers"
                        );
                    }
                }
            }
        }
    }
    assert!(rewrites >= SHRINKABLE.len() * 4, "rewrite count rotted");
}

#[test]
fn minimized_random_queries_are_answer_identical() {
    let base = env_seed(0);
    let params = RandomQueryParams {
        node_vars: 3,
        path_atoms: 2,
        rel_atoms: 2,
        max_arity: 2,
        num_symbols: 2,
    };
    const CASES: u64 = 25;
    let mut fired = 0usize;
    for case in 0..CASES {
        let seed = base + case;
        let mut q = random_ecrpq(&params, seed + 12000);
        q.set_free(&[NodeVar(0), NodeVar(1)]);
        let m = minimize(&q);
        if m.steps.is_empty() {
            continue;
        }
        fired += 1;
        let db = random_db(4, 1.5, 2, seed * 29 + 7);
        let truth = oracle_answers(&db, &q, MAX_LEN);
        let exact = oracle_answers(&db, &q, MAX_LEN - 2) == truth;
        let orig = product_answers(&db, &q, Layout::Flat, 1);
        for layout in [Layout::Flat, Layout::BitParallel] {
            for threads in [1usize, 2, 4] {
                let mini = product_answers(&db, &m.query, layout, threads);
                assert_eq!(
                    orig, mini,
                    "seed {seed}, {layout:?}, {threads} thread(s): \
                     minimized random query changed the answer set"
                );
                assert!(
                    truth.is_subset(&mini),
                    "seed {seed}: minimized query missed oracle answers"
                );
                if exact {
                    assert_eq!(mini, truth, "seed {seed}: extra answers");
                }
            }
        }
    }
    // The random workload includes eq atoms and broad regexes, so some
    // fraction must keep triggering rewrites or the test is vacuous.
    assert!(
        fired >= 2,
        "minimizer fired on only {fired}/{CASES} random queries (base seed {base}) — \
         workload drifted away from the rewrite families"
    );
}

/// The planner runs the minimizer internally; its answers must equal the
/// un-minimized pipeline on the planted NP→PTIME instance end to end.
#[test]
fn planner_minimization_is_transparent_on_planted_instance() {
    let (db, q, expected) = planted_regime_shift_instance(12, env_seed(0) + 2022);
    let m = minimize(&q);
    assert_eq!(m.steps.len(), 3, "planted instance must elide all 3 chords");
    assert_ne!(m.before, m.after, "measures must drop");
    assert_eq!(planner::answers(&db, &q), expected, "planner (minimizing)");
    assert_eq!(
        planner::answers_without_minimize(&db, &q),
        expected,
        "planner (baseline, no minimization)"
    );
}

/// `analyze --fix` must be idempotent: one pass over the committed query
/// corpus applies every W006 suggestion, a second pass applies none and
/// leaves the text byte-identical.
#[test]
fn fix_source_is_idempotent_on_committed_corpus() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("queries");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ecrpq"))
        .collect();
    files.sort();
    assert!(files.len() >= 2, "query corpus went missing");
    let mut applied_total = 0usize;
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{e}"));
        let (once, n1) = fix_source(&text);
        let (twice, n2) = fix_source(&once);
        assert_eq!(
            n2,
            0,
            "{}: second --fix pass still applied {n2} fix(es)",
            path.display()
        );
        assert_eq!(
            twice,
            once,
            "{}: second --fix pass changed the text",
            path.display()
        );
        applied_total += n1;
    }
    assert!(
        applied_total >= 2,
        "corpus no longer contains fixable queries (applied {applied_total})"
    );
}
