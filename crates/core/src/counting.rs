//! Counting satisfying assignments (#CQ / #ECRPQ).
//!
//! The tractability transfer of Theorem 3.2(3) extends to *counting*: for
//! bounded `cc_vertex`/`cc_hedge`/treewidth, the Lemma 4.3 reduction turns
//! \#ECRPQ node-assignment counting into #CQ over a bounded-treewidth
//! Gaifman graph, which the classical dynamic program over a tree
//! decomposition solves in `n^{O(tw)}` time. That program is
//! [`ReducedCq::count`]: a sum-product over the same semijoin-reduced bags
//! the answer walk uses, built with every variable free. This module wraps
//! it for the two inputs, plus a brute-force baseline used for
//! differential testing.
//!
//! Counted objects are full assignments of the query's variables (the
//! `f_N` of the paper), not answer projections: the count is well-defined
//! without inclusion–exclusion and is the standard #CQ semantics. Counts
//! saturate at `u64::MAX`.

use crate::cq_eval::ReducedCq;
use crate::prepare::PreparedQuery;
use ecrpq_graph::GraphDb;
use ecrpq_query::{Cq, NodeVar, RelationalDb};

/// Counts satisfying assignments by brute-force enumeration
/// (`O(|domain|^{vars})`) — the differential-testing baseline.
pub fn count_cq_bruteforce(db: &RelationalDb, q: &Cq) -> u64 {
    let n = db.domain_size() as u32;
    let mut assignment = vec![0u32; q.num_vars];
    fn rec(db: &RelationalDb, q: &Cq, i: usize, assignment: &mut Vec<u32>, n: u32) -> u64 {
        if i == q.num_vars {
            let ok = q.atoms.iter().all(|a| {
                let tuple: Vec<u32> = a.vars.iter().map(|&v| assignment[v]).collect();
                db.holds(&a.relation, &tuple)
            });
            return u64::from(ok);
        }
        let mut total = 0;
        for x in 0..n {
            assignment[i] = x;
            total += rec(db, q, i + 1, assignment, n);
        }
        total
    }
    rec(db, q, 0, &mut assignment, n)
}

/// Counts satisfying assignments through the tree-decomposition
/// instance of `q` with every variable free — `n^{O(tw)}`, the counting
/// engine of the tractable regime.
pub fn count_cq_treedec(db: &RelationalDb, q: &Cq) -> u64 {
    let mut all_free = q.clone();
    all_free.free = (0..q.num_vars).collect();
    ReducedCq::build(db, &all_free).count()
}

/// Counts the satisfying node assignments of an ECRPQ on a graph database
/// (the `f_N` part of the paper's satisfying assignments), through the
/// Lemma 4.3 reduction and [`ReducedCq::count`].
pub fn count_ecrpq_assignments(db: &GraphDb, query: &PreparedQuery) -> u64 {
    let mut all_free = query.clone();
    all_free.free = (0..query.num_node_vars as u32).map(NodeVar).collect();
    ReducedCq::of_prepared(db, &all_free).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adds the nullary atom `name()`, which `Cq::atom` refuses to build.
    fn nullary(q: &mut Cq, name: &str) {
        q.atoms.push(ecrpq_query::CqAtom {
            relation: name.into(),
            vars: Vec::new(),
        });
    }

    fn path_db(n: u32) -> RelationalDb {
        let mut db = RelationalDb::new(n as usize);
        for i in 1..n {
            db.insert("E", &[i - 1, i]);
        }
        db
    }

    #[test]
    fn count_matches_bruteforce_on_paths() {
        let db = path_db(5);
        // E(x0,x1) ∧ E(x1,x2): paths of length 2 → 3 assignments
        let mut q = Cq::new(3);
        q.atom("E", &[0, 1]);
        q.atom("E", &[1, 2]);
        assert_eq!(count_cq_bruteforce(&db, &q), 3);
        assert_eq!(count_cq_treedec(&db, &q), 3);
    }

    #[test]
    fn count_on_triangle_query() {
        let mut db = RelationalDb::new(4);
        for (a, b) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
            db.insert("E", &[a, b]);
        }
        let mut q = Cq::new(3);
        q.atom("E", &[0, 1]);
        q.atom("E", &[1, 2]);
        q.atom("E", &[0, 2]);
        let brute = count_cq_bruteforce(&db, &q);
        assert_eq!(brute, 1); // only 0→1→2
        assert_eq!(count_cq_treedec(&db, &q), brute);
    }

    #[test]
    fn unconstrained_variables_multiply() {
        let mut db = RelationalDb::new(3);
        db.insert("U", &[1]);
        let mut q = Cq::new(2); // var 1 unconstrained
        q.atom("U", &[0]);
        assert_eq!(count_cq_bruteforce(&db, &q), 3);
        assert_eq!(count_cq_treedec(&db, &q), 3);
    }

    #[test]
    fn zero_count_when_unsat() {
        let db = path_db(3);
        let mut q = Cq::new(2);
        q.atom("E", &[0, 1]);
        q.atom("E", &[1, 0]);
        assert_eq!(count_cq_bruteforce(&db, &q), 0);
        assert_eq!(count_cq_treedec(&db, &q), 0);
    }

    /// The edge cases both counting tests add to their inputs: a nullary
    /// atom (true and false), a repeated variable `R(x, x)`, a variable in
    /// no atom, an empty domain with variables, and an unsatisfiable query.
    fn edge_instances() -> Vec<(RelationalDb, Cq)> {
        let mut out = Vec::new();
        let mut db = path_db(4);
        db.insert("E", &[2, 2]);
        db.insert("T", &[]);
        db.declare("F", 0);
        for name in ["T", "F"] {
            let mut q = Cq::new(2);
            q.atom("E", &[0, 1]);
            nullary(&mut q, name);
            out.push((db.clone(), q));
            let mut q = Cq::new(0);
            nullary(&mut q, name);
            out.push((db.clone(), q));
        }
        let mut q = Cq::new(2);
        q.atom("E", &[0, 0]);
        q.atom("E", &[0, 1]);
        out.push((db.clone(), q));
        let mut q = Cq::new(3);
        q.atom("E", &[0, 1]);
        out.push((db.clone(), q));
        out.push((RelationalDb::new(0), Cq::new(2)));
        let mut q = Cq::new(3);
        q.atom("E", &[0, 1]);
        q.atom("E", &[1, 2]);
        q.atom("E", &[2, 0]);
        out.push((path_db(4), q));
        out
    }

    #[test]
    fn random_differential_counting() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..30u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(2..5usize);
            let mut db = RelationalDb::new(n);
            db.declare("R", 2);
            db.declare("S", 2);
            for name in ["R", "S"] {
                for _ in 0..rng.gen_range(0..8) {
                    let a = rng.gen_range(0..n) as u32;
                    let b = rng.gen_range(0..n) as u32;
                    db.insert(name, &[a, b]);
                }
            }
            let vars = rng.gen_range(2..5usize);
            let mut q = Cq::new(vars);
            for _ in 0..rng.gen_range(1..4) {
                let name = if rng.gen_bool(0.5) { "R" } else { "S" };
                let u = rng.gen_range(0..vars);
                let v = rng.gen_range(0..vars);
                q.atom(name, &[u, v]);
            }
            let brute = count_cq_bruteforce(&db, &q);
            assert_eq!(brute, count_cq_treedec(&db, &q), "seed {seed}: {q}");
            // the same query with a true nullary atom and a variable in no
            // atom: every assignment extends in n ways
            db.insert("T", &[]);
            let mut wide = q.clone();
            wide.num_vars += 1;
            nullary(&mut wide, "T");
            assert_eq!(count_cq_bruteforce(&db, &wide), brute * n as u64);
            assert_eq!(
                brute * n as u64,
                count_cq_treedec(&db, &wide),
                "seed {seed}: {wide}"
            );
        }
        for (db, q) in edge_instances() {
            assert_eq!(
                count_cq_bruteforce(&db, &q),
                count_cq_treedec(&db, &q),
                "{q}"
            );
        }
    }

    #[test]
    fn nice_counting_on_fixed_instances() {
        let db = path_db(5);
        let mut q = Cq::new(3);
        q.atom("E", &[0, 1]);
        q.atom("E", &[1, 2]);
        assert_eq!(count_cq_treedec(&db, &q), 3);
        let mut q2 = Cq::new(2);
        q2.atom("E", &[0, 1]);
        q2.atom("E", &[1, 0]);
        assert_eq!(count_cq_treedec(&db, &q2), 0);
        // unconstrained variable multiplies
        let mut db2 = RelationalDb::new(3);
        db2.insert("U", &[1]);
        let mut q3 = Cq::new(2);
        q3.atom("U", &[0]);
        assert_eq!(count_cq_treedec(&db2, &q3), 3);
        for (db, q) in edge_instances() {
            assert_eq!(
                count_cq_treedec(&db, &q),
                count_cq_bruteforce(&db, &q),
                "{q}"
            );
        }
        let expected = [4, 1, 0, 0, 2, 16, 0, 0];
        let counts: Vec<u64> = edge_instances()
            .iter()
            .map(|(db, q)| count_cq_treedec(db, q))
            .collect();
        assert_eq!(counts, expected);
    }

    /// 40 variables in no atom over a 4-value domain have 4⁴⁰ > 2⁶⁴
    /// assignments: every sum and product saturates instead of wrapping.
    #[test]
    fn counts_saturate_at_u64_max() {
        let db = RelationalDb::new(4);
        assert_eq!(count_cq_treedec(&db, &Cq::new(40)), u64::MAX);
        // an empty relation still zeroes a count that would saturate
        let mut q = Cq::new(41);
        q.atom("Nope", &[40]);
        assert_eq!(count_cq_treedec(&db, &q), 0);
    }

    #[test]
    fn ecrpq_assignment_counting() {
        use crate::prepare::PreparedQuery;
        use ecrpq_automata::{relations, Alphabet};
        use std::sync::Arc;
        // cycle of length 4 over 'a'; query: x →p y with |p| = 2
        let mut gdb = ecrpq_graph::GraphDb::with_alphabet(Alphabet::ascii_lower(1));
        let nodes: Vec<_> = (0..4).map(|i| gdb.add_node(&format!("v{i}"))).collect();
        for i in 0..4 {
            gdb.add_edge_sym(nodes[i], 0, nodes[(i + 1) % 4]);
        }
        let mut q = ecrpq_query::Ecrpq::new(gdb.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p = q.path_atom(x, "p", y);
        q.rel_atom("aa", Arc::new(relations::word_relation(&[0, 0], 1)), &[p]);
        let prepared = PreparedQuery::build(&q).unwrap();
        // each x has exactly one vertex two steps away: 4 assignments
        assert_eq!(count_ecrpq_assignments(&gdb, &prepared), 4);
    }
}
