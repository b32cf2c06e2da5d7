//! Differential testing: every evaluator must agree on every instance.
//!
//! Random ECRPQs (mixed relations, random reachability structure) are
//! evaluated on random graph databases through three independent code
//! paths — the direct product search (Prop. 2.2 algorithm), the Lemma 4.3
//! reduction with backtracking CQ evaluation, and the same reduction with
//! the tree-decomposition + Yannakakis evaluator — plus the planner
//! front-end. Boolean answers and full answer sets must coincide.

use ecrpq::eval::cq_eval::{answers_cq, answers_cq_treedec, eval_cq, eval_cq_treedec};
use ecrpq::eval::planner;
use ecrpq::eval::product::{answers_product, witness_product};
use ecrpq::eval::{ecrpq_to_cq, eval_product, PreparedQuery};
use ecrpq::query::NodeVar;
use ecrpq::workloads::{random_db, random_ecrpq, RandomQueryParams};

mod common;

use common::{brute_force_cq_answers, random_cq_instance, CqShape};

#[test]
fn boolean_evaluators_agree_on_random_instances() {
    let params = RandomQueryParams {
        node_vars: 3,
        path_atoms: 3,
        rel_atoms: 2,
        max_arity: 2,
        num_symbols: 2,
    };
    let mut sat = 0;
    for seed in 0..60u64 {
        let q = random_ecrpq(&params, seed);
        let db = random_db(5, 1.6, 2, seed * 31 + 1);
        let prepared = PreparedQuery::build(&q).unwrap();
        let direct = eval_product(&db, &prepared);
        let (cq, rdb, _) = ecrpq_to_cq(&db, &prepared);
        let bt = eval_cq(&rdb, &cq);
        let td = eval_cq_treedec(&rdb, &cq);
        assert_eq!(direct, bt, "seed {seed}: product vs backtracking on {q}");
        assert_eq!(direct, td, "seed {seed}: product vs treedec on {q}");
        assert_eq!(
            direct,
            planner::evaluate(&db, &q),
            "seed {seed}: planner disagrees on {q}"
        );
        if direct {
            sat += 1;
        }
    }
    // the workload must exercise both outcomes
    assert!(sat > 5, "too few satisfiable instances ({sat})");
    assert!(sat < 55, "too few unsatisfiable instances ({})", 60 - sat);
}

#[test]
fn answer_sets_agree_on_random_instances() {
    let params = RandomQueryParams {
        node_vars: 3,
        path_atoms: 3,
        rel_atoms: 2,
        max_arity: 2,
        num_symbols: 2,
    };
    for seed in 0..25u64 {
        let mut q = random_ecrpq(&params, seed + 1000);
        q.set_free(&[NodeVar(0), NodeVar(1)]);
        let db = random_db(4, 1.5, 2, seed * 17 + 3);
        let prepared = PreparedQuery::build(&q).unwrap();
        let a_direct = answers_product(&db, &prepared);
        let (cq, rdb, _) = ecrpq_to_cq(&db, &prepared);
        let a_bt = answers_cq(&rdb, &cq);
        let a_td = answers_cq_treedec(&rdb, &cq);
        assert_eq!(
            a_direct, a_bt,
            "seed {seed}: answers product vs backtracking"
        );
        assert_eq!(a_direct, a_td, "seed {seed}: answers product vs treedec");
        assert_eq!(
            a_direct,
            planner::answers(&db, &q),
            "seed {seed}: planner answers"
        );
    }
}

#[test]
fn witnesses_are_valid_satisfying_assignments() {
    let params = RandomQueryParams {
        node_vars: 3,
        path_atoms: 3,
        rel_atoms: 2,
        max_arity: 2,
        num_symbols: 2,
    };
    let mut checked = 0;
    for seed in 0..40u64 {
        let q = random_ecrpq(&params, seed + 2000);
        let db = random_db(5, 1.8, 2, seed * 13 + 7);
        let prepared = PreparedQuery::build(&q).unwrap();
        let Some(w) = witness_product(&db, &prepared) else {
            continue;
        };
        checked += 1;
        assert_eq!(w.paths.len(), q.num_path_vars());
        // every path valid in db, endpoints match the node assignment
        for (p, path) in &w.paths {
            assert!(path.is_valid_in(&db), "seed {seed}: invalid witness path");
            let (NodeVar(s), NodeVar(d)) = q.endpoints(*p);
            assert_eq!(path.source(), w.nodes[s as usize], "seed {seed}: source");
            assert_eq!(path.target(), w.nodes[d as usize], "seed {seed}: target");
        }
        // every relation atom satisfied by the witness labels
        for atom in q.rel_atoms() {
            let labels: Vec<Vec<u8>> = atom
                .args
                .iter()
                .map(|pv| {
                    w.paths
                        .iter()
                        .find(|(p, _)| p == pv)
                        .map(|(_, path)| path.label())
                        .expect("path for every variable")
                })
                .collect();
            let refs: Vec<&[u8]> = labels.iter().map(|l| l.as_slice()).collect();
            assert!(
                atom.rel.contains(&refs),
                "seed {seed}: atom {} violated by witness",
                atom.name
            );
        }
    }
    assert!(checked >= 10, "too few satisfiable instances ({checked})");
}

#[test]
fn bigger_arity_random_queries_agree() {
    let params = RandomQueryParams {
        node_vars: 4,
        path_atoms: 4,
        rel_atoms: 3,
        max_arity: 3,
        num_symbols: 2,
    };
    for seed in 0..20u64 {
        let q = random_ecrpq(&params, seed + 3000);
        let db = random_db(4, 1.5, 2, seed * 7 + 11);
        let prepared = PreparedQuery::build(&q).unwrap();
        let direct = eval_product(&db, &prepared);
        let (cq, rdb, _) = ecrpq_to_cq(&db, &prepared);
        assert_eq!(direct, eval_cq_treedec(&rdb, &cq), "seed {seed} on {q}");
    }
}

#[test]
fn counting_agrees_with_answer_enumeration() {
    use ecrpq::eval::count_ecrpq_assignments;
    let params = RandomQueryParams {
        node_vars: 3,
        path_atoms: 3,
        rel_atoms: 2,
        max_arity: 2,
        num_symbols: 2,
    };
    for seed in 0..25u64 {
        let mut q = random_ecrpq(&params, seed + 5000);
        // make *all* node variables free: answers = satisfying assignments
        let all: Vec<NodeVar> = (0..q.num_node_vars() as u32).map(NodeVar).collect();
        q.set_free(&all);
        let db = random_db(4, 1.6, 2, seed * 3 + 1);
        let prepared = PreparedQuery::build(&q).unwrap();
        let enumerated = answers_product(&db, &prepared).len() as u64;
        let counted = count_ecrpq_assignments(&db, &prepared);
        assert_eq!(enumerated, counted, "seed {seed} on {q}");
    }
}

#[test]
fn empty_and_single_node_databases() {
    let params = RandomQueryParams::default();
    for seed in 0..10u64 {
        let q = random_ecrpq(&params, seed);
        for n in [0usize, 1] {
            let db = random_db(n, 1.0, 2, seed);
            let prepared = PreparedQuery::build(&q).unwrap();
            let direct = eval_product(&db, &prepared);
            let (cq, rdb, _) = ecrpq_to_cq(&db, &prepared);
            assert_eq!(direct, eval_cq_treedec(&rdb, &cq), "seed {seed}, n={n}");
        }
    }
}

/// The tree-decomposition evaluator — its reduced-bag walk for answer
/// sets — and the backtracking join against brute force on random CQs
/// with projections:
/// Boolean queries, free variables in no atom, variables repeated in one
/// atom, an unknown (empty) relation and unsatisfiable instances all
/// occur, and the run checks that each did.
#[test]
fn reduced_walk_matches_backtracking_on_random_cqs() {
    let mut seen = CqShape::default();
    let (mut unsat, mut projected) = (0, 0);
    for seed in 0..400u64 {
        let (db, q, shape) = random_cq_instance(seed);
        let expected = brute_force_cq_answers(&db, &q);
        assert_eq!(answers_cq(&db, &q), expected, "seed {seed}: {q:?}");
        assert_eq!(answers_cq_treedec(&db, &q), expected, "seed {seed}: {q:?}");
        assert_eq!(
            eval_cq_treedec(&db, &q),
            eval_cq(&db, &q),
            "seed {seed}: {q:?}"
        );
        assert_eq!(eval_cq(&db, &q), !expected.is_empty(), "seed {seed}");
        seen.boolean |= shape.boolean;
        seen.unconstrained_free |= shape.unconstrained_free;
        seen.repeated_var |= shape.repeated_var;
        seen.unknown_relation |= shape.unknown_relation;
        unsat += usize::from(expected.is_empty());
        projected += usize::from(q.free.len() < q.num_vars && !q.free.is_empty());
    }
    assert!(
        seen.boolean && seen.unconstrained_free && seen.repeated_var && seen.unknown_relation,
        "{seen:?}"
    );
    assert!(
        unsat > 20 && projected > 50,
        "unsat {unsat}, projected {projected}"
    );
}
