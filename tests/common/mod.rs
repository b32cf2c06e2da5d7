//! Complete, unbudgeted runs through the governed engine entry points —
//! the reference evaluations the integration suites compare against.
//! Each helper asserts the run ended `Termination::Complete`, which an
//! unlimited budget guarantees.

// each suite includes this module and uses only some of the helpers
#![allow(dead_code)]

use ecrpq::eval::{engine, EvalOptions, NoopTracer, PreparedQuery};
use ecrpq::graph::{GraphDb, NodeId};
use ecrpq::query::{Cq, RelationalDb};
use std::collections::BTreeSet;

pub use ecrpq_bench::{complete, product_answers_with_stats};

/// Product-search answers.
pub fn product_answers(
    db: &GraphDb,
    prepared: &PreparedQuery,
    opts: &EvalOptions,
) -> BTreeSet<Vec<NodeId>> {
    product_answers_with_stats(db, prepared, opts).0
}

/// Boolean product search.
pub fn product_sat(db: &GraphDb, prepared: &PreparedQuery, opts: &EvalOptions) -> bool {
    complete(engine::eval_product_governed(db, prepared, opts)).0
}

/// Backtracking CQ answers.
pub fn cq_answers(db: &RelationalDb, cq: &Cq, opts: &EvalOptions) -> BTreeSet<Vec<u32>> {
    complete(engine::answers_cq_governed_traced(
        db,
        cq,
        opts,
        &NoopTracer,
    ))
    .0
}

/// Tree-decomposition CQ answers.
pub fn cq_treedec_answers(db: &RelationalDb, cq: &Cq, opts: &EvalOptions) -> BTreeSet<Vec<u32>> {
    complete(engine::answers_cq_treedec_governed_traced(
        db,
        cq,
        opts,
        &NoopTracer,
    ))
    .0
}

/// Plain CRPQ queries over labels `a`, `b`: every merged atom has arity
/// 1, so the product search decides them by single-track sweeps. On
/// [`unary_fan_db`] the first has one `a`-source against many targets
/// (a forward anchor), the second many `b`-sources against one sink (a
/// backward anchor); the self-loop atom has one endpoint variable; the
/// last two chain or repeat atoms over shared variables.
pub const UNARY_TEXTS: &[&str] = &[
    "q(x, y) :- x -[p]-> y, p in a",
    "q(x, y) :- x -[p]-> y, p in b",
    "q(x) :- x -[p]-> x, p in (a|b)*b",
    "q(x, z) :- x -[p]-> y, p in a, y -[r]-> z, r in b(a|b)*",
    "q(x, y) :- x -[p]-> y, p in ab, y -[r]-> x, r in a(a|b)*",
];

/// A small random graph over `a`, `b` plus a fan that makes endpoint
/// domains uneven: a hub `-a->` four leaves `-b->` one sink `-a->` the
/// hub.
pub fn unary_fan_db(seed: u64) -> GraphDb {
    let mut db = ecrpq::workloads::random_db(4, 1.5, 2, seed);
    let hub = db.add_nodes_anon(6);
    let sink = hub + 5;
    for leaf in hub + 1..sink {
        db.add_edge(hub, 'a', leaf);
        db.add_edge(leaf, 'b', sink);
    }
    db.add_edge(sink, 'a', hub);
    db
}

/// [`UNARY_TEXTS`]`[i]` over `db`'s alphabet, with its free variables
/// (`boolean = false`) or none.
pub fn unary_query(db: &GraphDb, i: usize, boolean: bool) -> ecrpq::query::Ecrpq {
    let mut alphabet = db.alphabet().clone();
    let registry = ecrpq::query::RelationRegistry::new();
    let mut q = ecrpq::query::parse_query(UNARY_TEXTS[i], &mut alphabet, &registry)
        .unwrap_or_else(|e| panic!("unary query {i}: {e}"));
    if boolean {
        q.set_free(&[]);
    }
    q
}
