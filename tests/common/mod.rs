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
