//! Differential testing of the parallel engine: at every thread count the
//! engine must return answer sets bit-identical to the sequential
//! evaluators, on randomized graphs and queries, and the merged worker
//! counters must account for exactly the sequential amount of feasibility
//! work.

use ecrpq::analyze::{acyclic_join_tree, JoinTree};
use ecrpq::eval::cq_eval::{
    answers_cq as answers_cq_seq, answers_cq_treedec as answers_cq_treedec_seq,
};
use ecrpq::eval::product::ProductStats;
use ecrpq::eval::product::{answers_product as answers_product_seq, Layout};
use ecrpq::eval::{
    ecrpq_to_cq, engine, EvalOptions, NoopTracer, PreparedQuery, ResourceBudget, Termination,
};
use ecrpq::graph::{GraphDb, NodeId};
use ecrpq::query::NodeVar;
use ecrpq::workloads::{
    planted_acyclic_instance, planted_power_law_instance, random_db, random_ecrpq,
    RandomQueryParams,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

mod common;

use common::{
    closure_join_queries, complete, cq_answers, cq_treedec_answers, product_answers,
    product_answers_with_stats, product_sat, random_cq_instance, scc_union_db,
};

/// One complete enumeration run: answers and merged counters.
type Run = (BTreeSet<Vec<NodeId>>, ProductStats);

fn params() -> RandomQueryParams {
    RandomQueryParams {
        node_vars: 3,
        path_atoms: 3,
        rel_atoms: 2,
        max_arity: 2,
        num_symbols: 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_product_answers_match_sequential(seed in 0..100_000u64) {
        let mut q = random_ecrpq(&params(), seed);
        q.set_free(&[NodeVar(0), NodeVar(1)]);
        let db = random_db(5, 1.6, 2, seed.wrapping_mul(31).wrapping_add(1));
        let prepared = PreparedQuery::build(&q).map_err(TestCaseError::fail)?;
        let seq = answers_product_seq(&db, &prepared);
        for threads in [1usize, 2, 4, 8] {
            for layout in [Layout::Flat, Layout::BitParallel] {
                let opts = EvalOptions::with_threads(threads).with_layout(layout);
                let par = product_answers(&db, &prepared, &opts);
                prop_assert_eq!(&par, &seq, "threads={} {:?} seed={}", threads, layout, seed);
                let par_bool = product_sat(&db, &prepared, &opts);
                prop_assert_eq!(par_bool, !seq.is_empty(), "boolean threads={} {:?} seed={}", threads, layout, seed);
            }
        }
    }

    #[test]
    fn parallel_cq_answers_match_sequential(seed in 0..100_000u64) {
        let mut q = random_ecrpq(&params(), seed.wrapping_add(7_000));
        q.set_free(&[NodeVar(0), NodeVar(1)]);
        let db = random_db(4, 1.5, 2, seed.wrapping_mul(17).wrapping_add(3));
        let prepared = PreparedQuery::build(&q).map_err(TestCaseError::fail)?;
        let (cq, rdb, _) = ecrpq_to_cq(&db, &prepared);
        let seq = answers_cq_seq(&rdb, &cq);
        let seq_td = answers_cq_treedec_seq(&rdb, &cq);
        for threads in [2usize, 4] {
            let opts = EvalOptions::with_threads(threads);
            prop_assert_eq!(
                &cq_answers(&rdb, &cq, &opts),
                &seq,
                "answers_cq threads={} seed={}", threads, seed
            );
            prop_assert_eq!(
                &cq_treedec_answers(&rdb, &cq, &opts),
                &seq_td,
                "answers_cq_treedec threads={} seed={}", threads, seed
            );
            prop_assert_eq!(
                complete(engine::eval_cq_governed(&rdb, &cq, &opts)).0,
                !seq.is_empty(),
                "eval_cq threads={} seed={}", threads, seed
            );
            prop_assert_eq!(
                complete(engine::eval_cq_treedec_governed(&rdb, &cq, &opts)).0,
                !seq_td.is_empty(),
                "eval_cq_treedec threads={} seed={}", threads, seed
            );
        }
    }

    /// The governed-evaluation soundness contract, differentially against
    /// the sequential evaluator at several thread counts: budgeted answers
    /// are always a **subset** of the unbudgeted set, a run that reports
    /// [`Termination::Complete`] is **bit-identical**, and an unlimited
    /// budget always completes bit-identically (the governed path must not
    /// perturb the search, only truncate it).
    #[test]
    fn budgeted_answers_are_a_sound_subset(seed in 0..100_000u64) {
        let mut q = random_ecrpq(&params(), seed.wrapping_add(63_000));
        q.set_free(&[NodeVar(0), NodeVar(1)]);
        let db = random_db(5, 1.7, 2, seed.wrapping_mul(37).wrapping_add(9));
        let prepared = PreparedQuery::build(&q).map_err(TestCaseError::fail)?;
        let full = answers_product_seq(&db, &prepared);
        // a spread of configuration caps: from certainly-truncating to
        // certainly-complete, exercised at every thread count
        for threads in [1usize, 2, 4] {
            for cap in [1u64, 256, 16_384, u64::MAX / 4] {
                let opts = EvalOptions::with_threads(threads)
                    .with_budget(ResourceBudget::unlimited().with_max_configurations(cap));
                let o = engine::answers_product_governed_traced(&db, &prepared, &opts, &NoopTracer);
                prop_assert!(
                    o.answers.is_subset(&full),
                    "threads={} cap={} seed={}: subset violated", threads, cap, seed
                );
                if o.termination == Termination::Complete {
                    prop_assert_eq!(
                        &o.answers, &full,
                        "threads={} cap={} seed={}: Complete must be bit-identical",
                        threads, cap, seed
                    );
                }
            }
            // an unlimited budget through the governed path is Complete
            // and bit-identical by construction
            let opts = EvalOptions::with_threads(threads)
                .with_budget(ResourceBudget::unlimited());
            let o = engine::answers_product_governed_traced(&db, &prepared, &opts, &NoopTracer);
            prop_assert_eq!(o.termination, Termination::Complete, "threads={}", threads);
            prop_assert_eq!(&o.answers, &full, "threads={} seed={}", threads, seed);
        }
        // the answer cap is sequential-exact: claimed before insertion, so
        // min(cap, total) answers come back and Complete ⇔ cap ≥ total
        let total = full.len() as u64;
        for cap in [1u64, total.max(1), total + 3] {
            let opts = EvalOptions::sequential()
                .with_budget(ResourceBudget::unlimited().with_max_answers(cap));
            let o = engine::answers_product_governed_traced(&db, &prepared, &opts, &NoopTracer);
            prop_assert_eq!(
                o.answers.len() as u64,
                cap.min(total),
                "answer cap={} seed={}", cap, seed
            );
            prop_assert!(o.answers.is_subset(&full), "answer cap={} seed={}", cap, seed);
            prop_assert_eq!(
                o.termination == Termination::Complete,
                cap >= total,
                "answer cap={} seed={}", cap, seed
            );
        }
    }
}

/// The feasibility-work invariant: enumeration asks the same total number
/// of (atom, endpoints) questions regardless of how the search space is
/// partitioned, so merged `checks + cache_hits` (and `assignments`) match
/// the sequential counters exactly. Only the hit/miss split may shift,
/// because each worker warms its own memo. Direct-product and Yannakakis
/// enumeration share the chunk-stealing workers, so both are pinned: the
/// latter on random instances whose reduction is acyclic and on small
/// planted acyclic instances.
#[test]
fn merged_stats_equal_sequential_totals() {
    let assert_totals = |label: &str, threads: usize, seq: &Run, par: &Run| {
        assert_eq!(par.0, seq.0, "{label} threads {threads}: answers");
        assert_eq!(
            par.1.checks + par.1.cache_hits,
            seq.1.checks + seq.1.cache_hits,
            "{label} threads {threads}: feasibility questions"
        );
        assert_eq!(
            par.1.assignments, seq.1.assignments,
            "{label} threads {threads}: assignments"
        );
    };
    let yannakakis = |db: &GraphDb, prepared: &PreparedQuery, tree: &JoinTree, threads: usize| {
        complete(engine::answers_yannakakis_governed_traced(
            db,
            prepared,
            tree,
            &EvalOptions::with_threads(threads),
            &NoopTracer,
        ))
    };
    let mut covered = 0;
    let mut acyclic = 0;
    for seed in 0..12u64 {
        let mut q = random_ecrpq(&params(), seed + 40_000);
        let all: Vec<NodeVar> = (0..q.num_node_vars() as u32).map(NodeVar).collect();
        q.set_free(&all);
        let db = random_db(5, 1.8, 2, seed * 13 + 5);
        let prepared = PreparedQuery::build(&q).unwrap();
        let seq = product_answers_with_stats(&db, &prepared, &EvalOptions::sequential());
        if seq.1.checks + seq.1.cache_hits == 0 {
            continue; // nothing feasible to measure on this instance
        }
        covered += 1;
        for threads in [2usize, 4] {
            let par =
                product_answers_with_stats(&db, &prepared, &EvalOptions::with_threads(threads));
            assert_totals(&format!("product seed {seed}"), threads, &seq, &par);
        }
        if let Some(tree) = acyclic_join_tree(&q) {
            acyclic += 1;
            let seq = yannakakis(&db, &prepared, &tree, 1);
            for threads in [2usize, 4, 8] {
                let par = yannakakis(&db, &prepared, &tree, threads);
                assert_totals(&format!("yannakakis seed {seed}"), threads, &seq, &par);
            }
        }
    }
    assert!(
        covered >= 5,
        "too few instances with feasibility work ({covered})"
    );
    assert!(acyclic >= 2, "too few acyclic instances ({acyclic})");
    for seed in 0..3u64 {
        let (db, q, planted) = planted_acyclic_instance(80, 3, seed);
        let prepared = PreparedQuery::build(&q).unwrap();
        let tree = acyclic_join_tree(&q).expect("planted reduction is acyclic");
        let seq = yannakakis(&db, &prepared, &tree, 1);
        assert_eq!(seq.0, planted, "planted seed {seed}");
        assert!(seq.1.checks + seq.1.cache_hits > 0, "planted seed {seed}");
        for threads in [2usize, 4, 8] {
            let par = yannakakis(&db, &prepared, &tree, threads);
            assert_totals(&format!("planted seed {seed}"), threads, &seq, &par);
        }
    }
}

/// The closure-joined search shapes — a forward join of the end's
/// candidates with the start's closure row, and a backward join of the
/// start's with the end's transposed row — on disjoint strongly connected
/// components: every thread count and layout returns the sequential
/// answers and asks the same feasibility questions.
#[test]
fn closure_joined_shapes_match_sequential() {
    let db = scc_union_db(24, 6);
    for (name, q) in closure_join_queries(&db) {
        let prepared = PreparedQuery::build(&q).unwrap();
        let seq = product_answers_with_stats(&db, &prepared, &EvalOptions::sequential());
        assert!(!seq.0.is_empty(), "{name}");
        for threads in [1usize, 2, 4] {
            for layout in [Layout::Flat, Layout::BitParallel] {
                let opts = EvalOptions::with_threads(threads).with_layout(layout);
                let par = product_answers_with_stats(&db, &prepared, &opts);
                let label = format!("{name} threads={threads} {layout:?}");
                assert_eq!(par.0, seq.0, "{label}");
                assert_eq!(
                    par.1.checks + par.1.cache_hits,
                    seq.1.checks + seq.1.cache_hits,
                    "{label}"
                );
                assert_eq!(par.1.assignments, seq.1.assignments, "{label}");
                assert!(product_sat(&db, &prepared, &opts), "{label}");
            }
        }
    }
}

/// Thread counts beyond any reasonable core count, odd counts, and
/// auto-detection all preserve the answer set.
#[test]
fn extreme_thread_counts() {
    let mut q = random_ecrpq(&params(), 123);
    q.set_free(&[NodeVar(0), NodeVar(1)]);
    let db = random_db(6, 1.7, 2, 456);
    let prepared = PreparedQuery::build(&q).unwrap();
    let seq = answers_product_seq(&db, &prepared);
    for threads in [3usize, 5, 16, 64, 0] {
        let par = product_answers(&db, &prepared, &EvalOptions::with_threads(threads));
        assert_eq!(par, seq, "threads={threads}");
    }
}

/// Bit-parallel runs split the first variable's domain on 64-id word
/// boundaries and share one stop flag across workers: on planted graphs
/// spanning several words, answers and the Boolean search must match the
/// sequential evaluator at every thread count.
#[test]
fn bitparallel_word_chunks_match_sequential() {
    for seed in 0..3u64 {
        let (db, q, planted) = planted_power_law_instance(300, 3, seed);
        let prepared = PreparedQuery::build(&q).unwrap();
        let seq = answers_product_seq(&db, &prepared);
        assert!(!seq.is_empty() && !planted.is_empty(), "seed {seed}");
        for threads in [2usize, 4, 8] {
            let opts = EvalOptions::with_threads(threads).with_layout(Layout::BitParallel);
            assert_eq!(
                product_answers(&db, &prepared, &opts),
                seq,
                "seed {seed} threads {threads}"
            );
            assert!(
                product_sat(&db, &prepared, &opts),
                "seed {seed} threads {threads}"
            );
        }
    }
}

/// The reduced-bag walk at 1, 2 and 4 threads against the sequential
/// backtracking join, on the CQ shapes it has to get right: a Boolean
/// query, a free variable in no atom, variables repeated in one atom, an
/// atom over an unknown (empty) relation, and an unsatisfiable instance —
/// then on random CQs with projections.
#[test]
fn reduced_walk_edge_cases_match_backtracking_at_every_thread_count() {
    use ecrpq::query::{Cq, RelationalDb};
    let mut db = RelationalDb::new(5);
    for (a, b) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 3), (4, 1)] {
        db.insert("E", &[a, b]);
    }
    for (a, b, c) in [(0, 1, 0), (1, 2, 1), (4, 3, 4), (2, 0, 1)] {
        db.insert("T", &[a, b, c]);
    }
    let cq = |num_vars: usize, atoms: &[(&str, &[usize])], free: &[usize]| {
        let mut q = Cq::new(num_vars);
        for &(rel, vars) in atoms {
            q.atom(rel, vars);
        }
        q.free = free.to_vec();
        q
    };
    let cases = [
        (
            "boolean triangle",
            cq(3, &[("E", &[0, 1]), ("E", &[1, 2]), ("E", &[2, 0])], &[]),
        ),
        ("free var in no atom", cq(3, &[("E", &[0, 1])], &[2, 0])),
        (
            "repeated vars",
            cq(2, &[("E", &[0, 0]), ("T", &[1, 0, 1])], &[1, 0]),
        ),
        (
            "unknown relation",
            cq(2, &[("E", &[0, 1]), ("Nope", &[1, 0])], &[0]),
        ),
        (
            "unsatisfiable",
            cq(
                2,
                &[("E", &[0, 1]), ("E", &[1, 0]), ("T", &[0, 1, 0])],
                &[0, 1],
            ),
        ),
    ];
    let random = (0..40u64).map(|seed| {
        let (db, q, _) = random_cq_instance(seed.wrapping_mul(7919));
        (db, q)
    });
    let fixed = cases.into_iter().map(|(what, q)| {
        let expected = answers_cq_seq(&db, &q);
        match what {
            "boolean triangle" => assert_eq!(expected, BTreeSet::from([vec![]])),
            "unknown relation" | "unsatisfiable" => assert!(expected.is_empty(), "{what}"),
            _ => assert!(!expected.is_empty(), "{what}"),
        }
        (db.clone(), q)
    });
    for (i, (db, q)) in fixed.chain(random).enumerate() {
        let expected = answers_cq_seq(&db, &q);
        for threads in [1usize, 2, 4] {
            let opts = EvalOptions::with_threads(threads);
            assert_eq!(
                cq_treedec_answers(&db, &q, &opts),
                expected,
                "case {i} threads {threads}: {q:?}"
            );
            assert_eq!(
                complete(engine::eval_cq_treedec_governed(&db, &q, &opts)).0,
                !expected.is_empty(),
                "case {i} threads {threads}: {q:?}"
            );
        }
    }
}
