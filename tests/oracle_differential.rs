//! Differential testing against the brute-force oracle.
//!
//! `ecrpq::workloads::oracle_answers` evaluates by exhaustive enumeration
//! of node assignments and bounded-length walks, sharing no machinery
//! with the real evaluators except the raw `SyncRel::contains` membership
//! test. Because walks are bounded, the oracle is sound but possibly
//! incomplete, so each comparison asserts `oracle ⊆ engine`
//! unconditionally and asserts exact equality only when the oracle's
//! answer set has stabilized under a growing length bound (which on these
//! tiny instances it almost always has — the suites additionally assert
//! that most cases converge, so the equality check cannot silently rot).
//!
//! Seeds are offset by `ECRPQ_TEST_SEED` (see `workloads::env_seed`) and
//! printed in every assertion message.

use ecrpq::eval::cq_eval::{answers_cq, answers_cq_treedec};
use ecrpq::eval::engine;
use ecrpq::eval::product::answers_product;
use ecrpq::eval::NoopTracer;
use ecrpq::eval::{ecrpq_to_cq, eval_product, EvalOptions, Layout, PreparedQuery, PreparedTables};
use ecrpq::graph::NodeId;
use ecrpq::query::{Ecrpq, NodeVar, RelationRegistry};
use ecrpq::workloads::{
    env_seed, oracle_answers, oracle_eval, random_db, random_ecrpq, RandomQueryParams,
};
use std::collections::BTreeSet;

mod common;

/// Walk-length bound for the oracle. Minimal witnesses on 4-node graphs
/// with 2-symbol relations fit comfortably; convergence is asserted.
const MAX_LEN: usize = 8;

/// Has the oracle's answer set stabilized? (Same set at a shorter bound
/// — strong evidence that no answer needs a longer witness.)
fn converged(db: &ecrpq::graph::GraphDb, q: &Ecrpq, at_bound: &BTreeSet<Vec<NodeId>>) -> bool {
    oracle_answers(db, q, MAX_LEN - 2) == *at_bound
}

/// Every answer evaluator against the oracle: the product search at 1/2/4/8
/// threads and both CQ evaluators of the Lemma 4.3 reduction. Queries from
/// `seed + 4000` over databases from `seed·23 + 5` mix both domain programs
/// of the product search (the full reducer on queries with a join tree,
/// the independent sweeps on the rest); the first `CASES / 2` queries from
/// `seed + 8000` that have a join tree, over databases from `seed·19 + 3`,
/// add full-reducer cases.
#[test]
fn oracle_agrees_with_every_answer_evaluator() {
    let base = env_seed(0);
    let params = RandomQueryParams {
        node_vars: 3,
        path_atoms: 2,
        rel_atoms: 2,
        max_arity: 2,
        num_symbols: 2,
    };
    const CASES: u64 = 15;
    let compile = |seed: u64, db_seed: u64| {
        let mut q = random_ecrpq(&params, seed);
        q.set_free(&[NodeVar(0), NodeVar(1)]);
        let prepared = PreparedQuery::build(&q).unwrap();
        (seed, q, prepared, db_seed)
    };
    let mixed: Vec<_> = (base..base + CASES)
        .map(|s| compile(s + 4000, s * 23 + 5))
        .collect();
    let trees = mixed.iter().filter(|c| c.2.join_tree().is_some()).count() as u64;
    assert!(
        (1..CASES).contains(&trees),
        "{trees}/{CASES} cases with a join tree (base seed {base}) — workload drifted"
    );
    // about a quarter of these queries have a join tree
    let reduced: Vec<_> = (base..base + 4 * CASES)
        .map(|s| compile(s + 8000, s * 19 + 3))
        .filter(|c| c.2.join_tree().is_some())
        .take(CASES as usize / 2)
        .collect();
    assert_eq!(
        reduced.len() as u64,
        CASES / 2,
        "too few queries with a join tree (base seed {base}) — workload drifted"
    );
    let mut settled = 0u64;
    for (seed, q, prepared, db_seed) in mixed.iter().chain(&reduced) {
        let db = random_db(4, 1.5, 2, *db_seed);
        let truth = oracle_answers(&db, q, MAX_LEN);
        let exact = converged(&db, q, &truth);
        settled += u64::from(exact);
        for threads in [1usize, 2, 4, 8] {
            let opts = EvalOptions::with_threads(threads);
            let got = common::product_answers(&db, prepared, &opts);
            check(
                &truth,
                &got,
                exact,
                &format!("seed {seed}: {threads} thread(s)"),
            );
        }
        // the Lemma 4.3 reduction, backtracking and treedec
        let (cq, rdb, _) = ecrpq_to_cq(&db, prepared);
        let what = format!("seed {seed}: CQ backtracking");
        check(&truth, &answers_cq(&rdb, &cq), exact, &what);
        let what = format!("seed {seed}: CQ treedec");
        check(&truth, &answers_cq_treedec(&rdb, &cq), exact, &what);
    }
    let total = CASES + CASES / 2;
    assert!(
        settled >= total - 3,
        "oracle converged on only {settled}/{total} cases (base seed {base}) — \
         raise MAX_LEN or shrink the instances"
    );
}

/// A synchronized atom on the Yannakakis route: the merged `eq_len` atom
/// over `(x, y)` fits the bitmap kernel's gate on these graphs, so its
/// checks run the kernel over the join tree's consistent domains. Both
/// the one-shot entry point and prepared tables must give the oracle's
/// answers at every thread count.
#[test]
fn oracle_agrees_with_yannakakis_over_the_kernel() {
    let base = env_seed(0);
    let text = "q(x, z) :- x -[p]-> y, x -[r]-> y, eq_len(p, r), y -(b)-> z";
    let mut settled = 0usize;
    const CASES: u64 = 8;
    for case in 0..CASES {
        let seed = base + case;
        let db = random_db(5, 1.6, 2, seed * 29 + 7);
        let mut alphabet = db.alphabet().clone();
        let q = ecrpq::query::parse_query(text, &mut alphabet, &RelationRegistry::new()).unwrap();
        let prepared = PreparedQuery::build(&q).unwrap();
        assert!(prepared.join_tree().is_some(), "acyclic");
        assert!(prepared.atoms.iter().any(|a| a.rel.arity() == 2));
        let truth = oracle_answers(&db, &q, MAX_LEN);
        let exact = converged(&db, &q, &truth);
        settled += exact as usize;
        let tables = PreparedTables::build(&db, &prepared, Layout::Flat);
        for threads in [1usize, 2, 4, 8] {
            let opts = EvalOptions::with_threads(threads);
            let one_shot = common::product_answers(&db, &prepared, &opts);
            let what = format!("seed {seed}: {threads} thread(s)");
            check(&truth, &one_shot, exact, &format!("{what}, one-shot"));
            let (warm, _) = common::complete(engine::answers_product_governed_prepared_traced(
                &db,
                &prepared,
                &tables,
                &opts,
                &NoopTracer,
            ));
            assert_eq!(warm, one_shot, "{what}: prepared vs one-shot");
        }
    }
    assert!(
        settled as u64 >= CASES - 2,
        "oracle converged on only {settled}/{CASES} cases (base seed {base})"
    );
}

/// Plain CRPQ queries, whose arity-1 atoms the product search decides by
/// memoized single-track sweeps, on graphs with uneven endpoint domains
/// (both anchor directions, a self-loop atom, shared variables), in
/// answer and Boolean mode, at every thread count.
#[test]
fn oracle_agrees_on_unary_sweeps() {
    let base = env_seed(0);
    let mut settled = 0usize;
    let mut cases = 0usize;
    for i in 0..common::UNARY_TEXTS.len() {
        for case in 0..4u64 {
            let seed = base + case;
            let db = common::unary_fan_db(seed * 41 + i as u64);
            for boolean in [false, true] {
                let q = common::unary_query(&db, i, boolean);
                let prepared = PreparedQuery::build(&q).unwrap();
                assert!(prepared.atoms.iter().all(|a| a.rel.arity() == 1));
                let truth = oracle_answers(&db, &q, MAX_LEN);
                let exact = converged(&db, &q, &truth);
                settled += exact as usize;
                cases += 1;
                for threads in [1usize, 2, 4, 8] {
                    let opts = EvalOptions::with_threads(threads);
                    let what =
                        format!("query {i}, seed {seed}, boolean {boolean}: {threads} thread(s)");
                    let got = common::product_answers(&db, &prepared, &opts);
                    check(&truth, &got, exact, &what);
                    let sat = common::product_sat(&db, &prepared, &opts);
                    assert_eq!(sat, !got.is_empty(), "{what}: Boolean vs answers");
                }
            }
        }
    }
    assert!(
        settled + 4 >= cases,
        "oracle converged on only {settled}/{cases} cases (base seed {base})"
    );
}

/// `oracle ⊆ engine` always; equality when the oracle has converged.
fn check(truth: &BTreeSet<Vec<NodeId>>, engine: &BTreeSet<Vec<NodeId>>, exact: bool, what: &str) {
    assert!(
        truth.is_subset(engine),
        "{what}: engine missed oracle answers {:?}",
        truth.difference(engine).collect::<Vec<_>>()
    );
    if exact {
        assert_eq!(engine, truth, "{what}: engine reported extra answers");
    }
}

#[test]
fn oracle_agrees_with_boolean_evaluation() {
    let base = env_seed(0);
    let params = RandomQueryParams {
        node_vars: 3,
        path_atoms: 3,
        rel_atoms: 2,
        max_arity: 2,
        num_symbols: 2,
    };
    let (mut sat, mut settled) = (0usize, 0usize);
    const CASES: u64 = 30;
    for case in 0..CASES {
        let seed = base + case;
        let q = random_ecrpq(&params, seed + 6000);
        let db = random_db(4, 1.6, 2, seed * 17 + 9);
        let prepared = PreparedQuery::build(&q).unwrap();
        let truth = oracle_eval(&db, &q, MAX_LEN);
        let exact = truth == oracle_eval(&db, &q, MAX_LEN - 2);
        settled += exact as usize;
        let got = eval_product(&db, &prepared);
        if truth {
            assert!(
                got,
                "seed {seed}: engine says NO but the oracle has a witness"
            );
        }
        if exact {
            assert_eq!(got, truth, "seed {seed}: boolean verdicts differ");
        }
        sat += got as usize;
    }
    assert!(
        sat > 3,
        "too few satisfiable instances ({sat}, base seed {base})"
    );
    assert!(
        settled as u64 >= CASES - 5,
        "oracle converged on only {settled}/{CASES} cases (base seed {base})"
    );
}

#[test]
fn oracle_agrees_on_shared_path_variables() {
    // Queries where one path variable feeds several relation atoms — the
    // Lemma 4.1 merge territory. The oracle handles sharing by simple
    // backtracking, the engine by merging automata; they must agree.
    let base = env_seed(0);
    let texts = [
        "q(x, y) :- x -[p]-> y, x -[r]-> y, eq(p, r), p in (ab)*",
        "q(x, y) :- x -[p]-> y, y -[r]-> x, eq_len(p, r)",
        "q(x, y) :- x -[p]-> y, x -[r]-> y, prefix(p, r), r in a*b*",
    ];
    for (i, text) in texts.iter().enumerate() {
        for case in 0..6u64 {
            let seed = base + case;
            let db = random_db(4, 1.6, 2, seed * 13 + i as u64);
            let mut alphabet = db.alphabet().clone();
            let q = ecrpq::query::parse_query(text, &mut alphabet, &RelationRegistry::new())
                .unwrap_or_else(|e| panic!("query {i}: {e}"));
            let prepared = PreparedQuery::build(&q).unwrap();
            let truth = oracle_answers(&db, &q, MAX_LEN);
            let exact = converged(&db, &q, &truth);
            let got = answers_product(&db, &prepared);
            check(&truth, &got, exact, &format!("query {i}, seed {seed}"));
            let got_par = common::product_answers(&db, &prepared, &EvalOptions::with_threads(3));
            check(
                &truth,
                &got_par,
                exact,
                &format!("query {i}, seed {seed}, 3 threads"),
            );
        }
    }
}
