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

/// `count` disjoint strongly connected components of `size` vertices
/// each, over labels `a`, `b`: a directed cycle whose labels follow a
/// per-component pattern, plus one chord. Reachability stays inside a
/// component, so a reachability-closure row holds `size` of the graph's
/// `count · size` vertices.
pub fn scc_union_db(count: usize, size: usize) -> GraphDb {
    let mut db = GraphDb::new();
    let first = db.add_nodes_anon(count * size);
    for c in 0..count {
        let node = |i: usize| first + (c * size + i % size) as NodeId;
        for i in 0..size {
            let label = if (c + i) % 3 == 0 { 'b' } else { 'a' };
            db.add_edge(node(i), label, node(i + 1));
        }
        db.add_edge(node(c), 'b', node(c + size / 2));
    }
    db
}

/// The closure-joined search shapes over [`scc_union_db`]: the served
/// `hamming<=1` shape with `p in a(a|b)*` and `r in (a|b)*b`, once with
/// the end variable `y` assigned after its start `x`, so that `y` joins
/// `x`'s closure row (forward), and once with `y` declared, and so
/// assigned, first, so that `x` joins the transposed row of `y`
/// (backward).
pub fn closure_join_queries(db: &GraphDb) -> [(&'static str, ecrpq::query::Ecrpq); 2] {
    use ecrpq::automata::{relations, Regex};
    use std::sync::Arc;
    let m = db.alphabet().len();
    let lang = |re: &str| {
        let mut alphabet = db.alphabet().clone();
        let nfa = Regex::compile_str(re, &mut alphabet).expect("regex");
        Arc::new(relations::language(&nfa, m))
    };
    let shape = |end_first: bool| {
        let mut q = ecrpq::query::Ecrpq::new(db.alphabet().clone());
        let (x, y) = if end_first {
            let y = q.node_var("y");
            (q.node_var("x"), y)
        } else {
            let x = q.node_var("x");
            (x, q.node_var("y"))
        };
        let p = q.path_atom(x, "p", y);
        let r = q.path_atom(x, "r", y);
        q.rel_atom("a(a|b)*", lang("a(a|b)*"), &[p]);
        q.rel_atom("(a|b)*b", lang("(a|b)*b"), &[r]);
        q.rel_atom("hamming<=1", Arc::new(relations::hamming_le(1, m)), &[p, r]);
        q.set_free(&[x, y]);
        q
    };
    [("forward", shape(false)), ("backward", shape(true))]
}

/// What a [`random_cq_instance`] exercises, for coverage checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CqShape {
    /// The query has no free variable.
    pub boolean: bool,
    /// Some free variable occurs in no atom.
    pub unconstrained_free: bool,
    /// Some atom repeats a variable.
    pub repeated_var: bool,
    /// Some atom reads `Nope`, a relation the database lacks.
    pub unknown_relation: bool,
}

/// A random CQ with a projection over a random database on 2–5 elements:
/// relations `U` (unary), `E`, `F` (binary) and `T` (ternary), and up to
/// five atoms over up to five variables, drawn with repetition, so atoms
/// may repeat a variable and variables may occur in no atom. One atom in
/// twelve reads the unknown relation `Nope`. The free variables are a
/// random selection in random order (none for one query in five).
pub fn random_cq_instance(seed: u64) -> (RelationalDb, Cq, CqShape) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(2..6usize);
    let mut db = RelationalDb::new(n);
    let relations = [
        ("U", 1usize, 0.5),
        ("E", 2, 0.35),
        ("F", 2, 0.35),
        ("T", 3, 0.15),
    ];
    for &(name, arity, p) in &relations {
        db.declare(name, arity);
        let mut t = vec![0u32; arity];
        for code in 0..n.pow(arity as u32) {
            let mut c = code;
            for slot in t.iter_mut() {
                *slot = (c % n) as u32;
                c /= n;
            }
            if rng.gen_bool(p) {
                db.insert(name, &t);
            }
        }
    }
    let num_vars = rng.gen_range(1..6usize);
    let mut q = Cq::new(num_vars);
    let mut shape = CqShape::default();
    for _ in 0..rng.gen_range(1..6usize) {
        let (name, arity) = if rng.gen_range(0..12u32) == 0 {
            shape.unknown_relation = true;
            ("Nope", 2)
        } else {
            let (name, arity, _) = relations[rng.gen_range(0..relations.len())];
            (name, arity)
        };
        let vars: Vec<usize> = (0..arity).map(|_| rng.gen_range(0..num_vars)).collect();
        shape.repeated_var |= (1..vars.len()).any(|i| vars[..i].contains(&vars[i]));
        q.atom(name, &vars);
    }
    if rng.gen_range(0..5u32) > 0 {
        let mut free: Vec<usize> = (0..num_vars).filter(|_| rng.gen_bool(0.6)).collect();
        for i in (1..free.len()).rev() {
            free.swap(i, rng.gen_range(0..i + 1));
        }
        q.free = free;
    }
    shape.boolean = q.free.is_empty();
    shape.unconstrained_free = q
        .free
        .iter()
        .any(|v| q.atoms.iter().all(|a| !a.vars.contains(v)));
    (db, q, shape)
}

/// The answers of `q` over `db` by brute force: every assignment of the
/// domain to the variables, kept when every atom holds, projected on the
/// free variables. Independent of both CQ evaluators; exponential, so
/// for small instances only.
pub fn brute_force_cq_answers(db: &RelationalDb, q: &Cq) -> BTreeSet<Vec<u32>> {
    let n = db.domain_size() as u32;
    let mut out = BTreeSet::new();
    let mut values = vec![0u32; q.num_vars];
    loop {
        if q.atoms.iter().all(|a| {
            let t: Vec<u32> = a.vars.iter().map(|&v| values[v]).collect();
            db.holds(&a.relation, &t)
        }) {
            out.insert(q.free.iter().map(|&v| values[v]).collect());
        }
        let Some(i) = values.iter().position(|&x| x + 1 < n) else {
            return out;
        };
        values[i] += 1;
        values[..i].fill(0);
    }
}
