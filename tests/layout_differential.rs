//! Differential testing of the product data layouts: the CSR adjacency
//! index must agree with a naive filter over the edge list on random
//! graphs, and both product layouts (flat and bit-parallel), at every
//! thread count, must return answer sets bit-identical to the
//! CQ-reduction evaluator — whose Lemma 4.3 BFS shares no code with the
//! product kernels — on random graphs and queries.

use ecrpq::eval::product::Layout;
use ecrpq::eval::{ecrpq_to_cq, Enumerator, EvalOptions, PreparedQuery, ResourceBudget};
use ecrpq::graph::GraphDb;
use ecrpq::query::NodeVar;
use ecrpq::workloads::{planted_acyclic_instance, random_db, random_ecrpq, RandomQueryParams};
use proptest::prelude::*;
use std::collections::BTreeSet;

mod common;

use common::{cq_answers, product_answers, product_answers_with_stats, product_sat};

const LAYOUTS: [Layout; 2] = [Layout::Flat, Layout::BitParallel];
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The independent reference: the Lemma 4.3 reduction, evaluated by the
/// sequential backtracking CQ join.
fn via_cq(db: &GraphDb, prepared: &PreparedQuery) -> BTreeSet<Vec<u32>> {
    let (cq, rdb, _) = ecrpq_to_cq(db, prepared);
    cq_answers(&rdb, &cq, &EvalOptions::sequential())
}

fn params() -> RandomQueryParams {
    RandomQueryParams {
        node_vars: 3,
        path_atoms: 3,
        rel_atoms: 2,
        max_arity: 2,
        num_symbols: 2,
    }
}

/// Regression: a database with zero nodes must not panic anywhere in the
/// pipeline — CSR freeze, flat-table construction, semijoin sweeps, chunk
/// partitioning — and must return the empty answer set (respectively
/// `false`) at every layout and thread count, as the CQ reduction does.
#[test]
fn empty_database_evaluates_cleanly() {
    let mut q = random_ecrpq(&params(), 1234);
    q.set_free(&[NodeVar(0), NodeVar(1)]);
    let db = GraphDb::with_alphabet(q.alphabet().clone());
    assert_eq!(db.num_nodes(), 0);
    let prepared = PreparedQuery::build(&q).unwrap();
    let reference = via_cq(&db, &prepared);
    assert!(reference.is_empty());
    assert!(!ecrpq::eval::product::eval_product(&db, &prepared));
    for threads in THREADS {
        for layout in LAYOUTS {
            let opts = EvalOptions::with_threads(threads).with_layout(layout);
            let got = product_answers(&db, &prepared, &opts);
            assert_eq!(got, reference, "{threads} threads, {layout:?}");
            assert!(
                !product_sat(&db, &prepared, &opts),
                "{threads} threads, {layout:?}"
            );
        }
    }
}

/// Regression for the bit-parallel size gate: when the dense configuration
/// space overflows the bitmap budget, `Layout::BitParallel` must downgrade
/// every atom to the scalar BFS and still agree with `Flat` at every
/// thread count. 9 000 vertices × the 2-state eq-length automaton is
/// 1.6·10⁸ configurations — past the three-bitmap gate, so the fallback
/// runs the memoized scalar path, whose visited set holds only the
/// configurations each search reaches. The
/// graph is nearly edgeless to keep the run cheap; a single `a`-edge makes
/// the Boolean query satisfiable.
#[test]
fn bitparallel_falls_back_on_oversized_config_space() {
    use ecrpq::workloads::big_component_query;
    let q = big_component_query(2, 2); // free vars default to none: Boolean
    let mut db = GraphDb::with_alphabet(q.alphabet().clone());
    let first = db.add_nodes_anon(9_000);
    db.add_edge(first, 'a', first + 1);
    let prepared = PreparedQuery::build(&q).unwrap();
    let flat = product_answers(&db, &prepared, &EvalOptions::sequential());
    assert_eq!(flat.len(), 1, "satisfiable Boolean query: one empty tuple");
    for threads in THREADS {
        let opts = EvalOptions::with_threads(threads).with_layout(Layout::BitParallel);
        let par = product_answers(&db, &prepared, &opts);
        assert_eq!(par, flat, "{threads} threads");
        assert!(product_sat(&db, &prepared, &opts), "{threads} threads");
    }
}

/// Counter-based bounded-delay check on the planted acyclic instance:
/// after the Yannakakis up/down passes every domain is globally
/// consistent, so the streaming enumerator never dead-ends — the
/// backtracker work between consecutive answers is a small constant,
/// independent of the decoy count. The independently-pruned preparation
/// keeps every decoy in D(x), so its first answer only arrives after the
/// enumerator has waded through all of them.
#[test]
fn yannakakis_streaming_has_bounded_delay() {
    let (db, q, expected) = planted_acyclic_instance(600, 4, 7);
    let prepared = PreparedQuery::build(&q).unwrap();
    let tree = ecrpq::analyze::acyclic_join_tree(&q).expect("reduction is acyclic");

    let delays = |e: &Enumerator| -> (Vec<u64>, BTreeSet<Vec<u32>>) {
        let mut it = e.iter();
        let mut got = BTreeSet::new();
        let mut last = it.work();
        let mut delays = Vec::new();
        while let Some(t) = it.next() {
            delays.push(it.work() - last);
            last = it.work();
            got.insert(t);
        }
        delays.push(it.work() - last); // exhaustion tail
        (delays, got)
    };

    let yan = Enumerator::yannakakis(&db, &prepared, &tree, &ResourceBudget::unlimited());
    let (yan_delays, yan_got) = delays(&yan);
    assert_eq!(yan_got, expected);
    let yan_max = yan_delays.iter().copied().max().unwrap();
    assert!(
        yan_max <= 64,
        "yannakakis delay {yan_max} steps — not output-sensitive"
    );

    let flat = Enumerator::new(&db, &prepared);
    let (flat_delays, flat_got) = delays(&flat);
    assert_eq!(flat_got, expected, "preparations disagree");
    let flat_max = flat_delays.iter().copied().max().unwrap();
    assert!(
        flat_max >= 600,
        "independent sweeps pruned the decoys ({flat_max} steps)? — \
         the instance no longer exercises the delay gap"
    );
}

/// Plain CRPQ queries (every atom of arity 1, decided by the sweep) on
/// graphs with uneven endpoint domains — both anchor directions, a
/// self-loop atom, shared variables — in answer and Boolean mode: both
/// layouts at every thread count return the CQ reduction's answers, and
/// sequentially ask the same checks with the same memo hits.
#[test]
fn unary_sweeps_match_cq_reduction() {
    for i in 0..common::UNARY_TEXTS.len() {
        for seed in 0..6u64 {
            let db = common::unary_fan_db(seed * 17 + i as u64);
            for boolean in [false, true] {
                let q = common::unary_query(&db, i, boolean);
                let prepared = PreparedQuery::build(&q).unwrap();
                let reference = via_cq(&db, &prepared);
                for threads in THREADS {
                    for layout in LAYOUTS {
                        let opts = EvalOptions::with_threads(threads).with_layout(layout);
                        let what = format!("query {i}, seed {seed}, boolean {boolean}, {threads} threads, {layout:?}");
                        assert_eq!(product_answers(&db, &prepared, &opts), reference, "{what}");
                        assert_eq!(
                            product_sat(&db, &prepared, &opts),
                            !reference.is_empty(),
                            "{what}"
                        );
                    }
                }
                let seq = |layout| {
                    let opts = EvalOptions::sequential().with_layout(layout);
                    product_answers_with_stats(&db, &prepared, &opts).1
                };
                let (flat, bitpar) = (seq(Layout::Flat), seq(Layout::BitParallel));
                assert_eq!(
                    (flat.checks, flat.cache_hits, flat.configurations),
                    (bitpar.checks, bitpar.cache_hits, bitpar.configurations),
                    "query {i}, seed {seed}: both layouts run the same sweeps"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The streaming enumerator must produce exactly the materialized
    /// answer set — same tuples, no duplicates — under both the
    /// independent-sweep preparation and (when the CQ reduction is
    /// acyclic) the Yannakakis preparation.
    #[test]
    fn streamed_answers_match_materialized(seed in 0..100_000u64) {
        let mut q = random_ecrpq(&params(), seed.wrapping_add(33_000));
        q.set_free(&[NodeVar(0), NodeVar(1)]);
        let db = random_db(5, 1.6, 2, seed.wrapping_mul(37).wrapping_add(13));
        let prepared = PreparedQuery::build(&q).map_err(TestCaseError::fail)?;
        let materialized = product_answers(&db, &prepared, &EvalOptions::sequential());
        let e = Enumerator::new(&db, &prepared);
        let streamed: Vec<Vec<u32>> = e.iter().collect();
        let as_set: BTreeSet<Vec<u32>> = streamed.iter().cloned().collect();
        prop_assert_eq!(streamed.len(), as_set.len(), "duplicate tuples, seed={}", seed);
        prop_assert_eq!(&as_set, &materialized, "streamed vs materialized seed={}", seed);
        if let Some(tree) = ecrpq::analyze::acyclic_join_tree(&q) {
            let ey = Enumerator::yannakakis(&db, &prepared, &tree, &ResourceBudget::unlimited());
            let sy: Vec<Vec<u32>> = ey.iter().collect();
            let sy_set: BTreeSet<Vec<u32>> = sy.iter().cloned().collect();
            prop_assert_eq!(sy.len(), sy_set.len(), "yannakakis duplicates, seed={}", seed);
            prop_assert_eq!(&sy_set, &materialized, "yannakakis stream seed={}", seed);
        }
    }

    /// Regression: zero free variables makes the query *Boolean* — the
    /// enumeration must yield exactly one empty tuple iff the query is
    /// satisfiable (per the CQ reduction), identically across both layouts
    /// and any thread count (a buggy odometer could emit the empty tuple
    /// once per satisfying assignment or chunk, or never).
    #[test]
    fn boolean_query_yields_one_empty_tuple(seed in 0..100_000u64) {
        let mut q = random_ecrpq(&params(), seed.wrapping_add(91_000));
        q.set_free(&[]);
        let db = random_db(4, 1.6, 2, seed.wrapping_mul(31).wrapping_add(3));
        let prepared = PreparedQuery::build(&q).map_err(TestCaseError::fail)?;
        let reference = via_cq(&db, &prepared);
        let sat = !reference.is_empty();
        prop_assert_eq!(ecrpq::eval::product::eval_product(&db, &prepared), sat, "seed={}", seed);
        for threads in THREADS {
            for layout in LAYOUTS {
                let opts = EvalOptions::with_threads(threads).with_layout(layout);
                let par = product_answers(&db, &prepared, &opts);
                if sat {
                    prop_assert_eq!(par.len(), 1, "threads={} layout={:?} seed={}", threads, layout, seed);
                    prop_assert!(par.contains(&Vec::new()));
                } else {
                    prop_assert!(par.is_empty(), "threads={} layout={:?} seed={}", threads, layout, seed);
                }
            }
        }
    }

    /// CSR `successors`/`predecessors` vs naive filters over the edge
    /// list (the transpose for predecessors).
    #[test]
    fn csr_adjacency_matches_scan(seed in 0..100_000u64, n in 0..12usize) {
        let db = random_db(n, 1.8, 3, seed);
        let num_labels = db.alphabet().len() as u8;
        let naive = |v: u32, a: u8, forward: bool| -> Vec<u32> {
            let mut out: Vec<u32> = db
                .edges()
                .filter(|e| e.label == a && if forward { e.src == v } else { e.dst == v })
                .map(|e| if forward { e.dst } else { e.src })
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        for v in 0..db.num_nodes() as u32 {
            for a in 0..num_labels {
                let csr = db.successors(v, a).to_vec();
                prop_assert_eq!(&csr, &naive(v, a, true), "successors v={} a={} seed={}", v, a, seed);
                // bulk accessors expose the same ranges as the slice API
                let bulk = &db.csr_targets()[db.successor_range(v, a)];
                prop_assert_eq!(bulk, &csr[..], "bulk range v={} a={} seed={}", v, a, seed);
                let pred = db.predecessors(v, a).to_vec();
                prop_assert_eq!(&pred, &naive(v, a, false), "predecessors v={} a={} seed={}", v, a, seed);
            }
            // out-of-alphabet labels are empty, not a panic
            prop_assert!(db.successors(v, num_labels + 5).is_empty());
            prop_assert!(db.predecessors(v, num_labels + 5).is_empty());
            prop_assert!(db.successor_range(v, num_labels + 5).is_empty());
        }
    }

    /// Both product layouts, at every thread count, must return the CQ
    /// reduction's answer set bit-for-bit. The bit-parallel layout shares
    /// the flat layout's pruned domains and memo and only swaps the BFS
    /// inner loop, so sequentially the two ask the same feasibility
    /// questions and get the same verdicts.
    #[test]
    fn layouts_agree_on_answers(seed in 0..100_000u64) {
        let mut q = random_ecrpq(&params(), seed.wrapping_add(55_000));
        q.set_free(&[NodeVar(0), NodeVar(1)]);
        let db = random_db(5, 1.6, 2, seed.wrapping_mul(29).wrapping_add(11));
        let prepared = PreparedQuery::build(&q).map_err(TestCaseError::fail)?;
        let reference = via_cq(&db, &prepared);
        for threads in THREADS {
            for layout in LAYOUTS {
                let opts = EvalOptions::with_threads(threads).with_layout(layout);
                let got = product_answers(&db, &prepared, &opts);
                prop_assert_eq!(&got, &reference, "threads={} layout={:?} seed={}", threads, layout, seed);
            }
        }
        let seq = |layout| {
            product_answers_with_stats(&db, &prepared, &EvalOptions::sequential().with_layout(layout)).1
        };
        let (flat, bitpar) = (seq(Layout::Flat), seq(Layout::BitParallel));
        prop_assert_eq!(flat.checks, bitpar.checks, "seed={}", seed);
        prop_assert_eq!(flat.cache_hits, bitpar.cache_hits, "seed={}", seed);
        prop_assert_eq!(flat.assignments, bitpar.assignments, "seed={}", seed);
        prop_assert_eq!(flat.domain_kept, bitpar.domain_kept, "seed={}", seed);
    }

    /// Pruned product answers vs the independent Lemma 4.3 CQ reduction
    /// (which runs its own BFS, untouched by the layout work).
    #[test]
    fn pruned_product_matches_cq_reduction(seed in 0..100_000u64) {
        let mut q = random_ecrpq(&params(), seed.wrapping_add(77_000));
        q.set_free(&[NodeVar(0), NodeVar(1)]);
        let db = random_db(4, 1.5, 2, seed.wrapping_mul(23).wrapping_add(7));
        let prepared = PreparedQuery::build(&q).map_err(TestCaseError::fail)?;
        let product = product_answers(&db, &prepared, &EvalOptions::sequential());
        prop_assert_eq!(product, via_cq(&db, &prepared), "product vs cq seed={}", seed);
    }
}
