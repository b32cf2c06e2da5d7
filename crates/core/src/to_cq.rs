//! The Lemma 4.3 reduction: ECRPQ → CQ over materialized endpoint relations.
//!
//! For every merged relation atom `R(π₁,…,π_k)` with reachability atoms
//! `xᵢ →πᵢ yᵢ`, the CQ gets an atom `R′(x₁,y₁,…,x_k,y_k)` and the
//! relational database the instance
//!
//! ```text
//! R′ = { (u₁,v₁,…,u_k,v_k) : ∃ paths uᵢ ⇝ vᵢ with labels (w₁,…,w_k) ∈ R }
//! ```
//!
//! computed by product-BFS from every source tuple — `O(|D|^{2·cc_vertex})`
//! tuples, polynomial when `cc_vertex` is constant, exactly the bound in
//! the paper. The Gaifman graph of the produced CQ is `G^node`, so bounded
//! treewidth of the query class transfers to the CQ and the classical
//! `n^{tw+1}` algorithm applies (Theorem 3.2(3)). A CRPQ is the case of
//! unary relations (Corollary 2.4), so it takes the same route.
//!
//! Each `R′` is written once, as the flat `u32` columns the
//! tree-decomposition engine joins
//! ([`crate::cq_eval::ReducedCq::of_prepared`]); the public
//! [`ecrpq_to_cq`] converts them into a [`RelationalDb`].

use crate::cq_eval::{Flat, FlatDb};
use crate::prepare::PreparedQuery;
use ecrpq_automata::{StateId, Track};
use ecrpq_graph::{GraphDb, NodeId};
use ecrpq_query::{Cq, NodeVar, RelationalDb};
use std::collections::VecDeque;

/// Recursively enumerates successor configuration indices: track `i`
/// either stays (padded) or moves along one of its label-matching edges.
#[allow(clippy::too_many_arguments)]
fn emit_combos(
    i: usize,
    base: usize,
    k: usize,
    nv: usize,
    pad_mask: usize,
    pos: &[NodeId],
    options: &[&[(u8, NodeId)]],
    sink: &mut impl FnMut(usize),
) {
    if i == k {
        sink(base);
        return;
    }
    if pad_mask & (1 << i) != 0 {
        emit_combos(
            i + 1,
            base * nv + pos[i] as usize,
            k,
            nv,
            pad_mask,
            pos,
            options,
            sink,
        );
    } else {
        for &(_, t) in options[i] {
            emit_combos(
                i + 1,
                base * nv + t as usize,
                k,
                nv,
                pad_mask,
                pos,
                options,
                sink,
            );
        }
    }
}

/// Statistics of a materialization run (for experiment E7).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaterializeStats {
    /// Total tuples across all `R′` instances.
    pub tuples: usize,
    /// Product configurations explored.
    pub configurations: u64,
}

/// Performs the Lemma 4.3 reduction. Returns the CQ `q̂′`, the relational
/// database `D′` (relation `R{i}` for merged atom `i`), and work counters.
///
/// # Panics
/// Panics if the query and database alphabets disagree.
pub fn ecrpq_to_cq(db: &GraphDb, query: &PreparedQuery) -> (Cq, RelationalDb, MaterializeStats) {
    let (cq, flat, stats) = materialize(db, query);
    let mut rdb = RelationalDb::new(flat.domain);
    for (atom, rel) in cq.atoms.iter().zip(&flat.rels) {
        rdb.declare(&atom.relation, atom.vars.len());
        // lint:allow(unwrap): the relation was declared on the line above
        let inst = rdb.relation_mut(&atom.relation).expect("declared above");
        inst.tuples.reserve(rel.len);
        inst.tuples
            .extend((0..rel.len).map(|i| rel.tuple(i).to_vec()));
    }
    (cq, rdb, stats)
}

/// The Lemma 4.3 reduction into flat columns: the CQ `q̂′` (atom `i`
/// reads relation `R{i}`), one `R′` per merged atom, and work counters.
/// From each source tuple a product BFS over `(state, positions)`
/// configurations reaches the end positions; each end tuple is written
/// once per source, however many accepting states reach it, so every
/// `R′` is a set.
///
/// # Panics
/// Panics if the query and database alphabets disagree.
pub(crate) fn materialize(db: &GraphDb, query: &PreparedQuery) -> (Cq, FlatDb, MaterializeStats) {
    assert_eq!(
        db.alphabet().len(),
        query.num_symbols,
        "alphabet mismatch between query and database"
    );
    let nv = db.num_nodes();
    let mut cq = Cq::new(query.num_node_vars);
    cq.free = query.free.iter().map(|&NodeVar(v)| v as usize).collect();
    let mut rels = Vec::with_capacity(query.atoms.len());
    let mut stats = MaterializeStats::default();

    for (ai, atom) in query.atoms.iter().enumerate() {
        let k = atom.rel.arity();
        let mut vars = Vec::with_capacity(2 * k);
        for &(NodeVar(s), NodeVar(d)) in &atom.endpoints {
            vars.push(s as usize);
            vars.push(d as usize);
        }
        cq.atom(&format!("R{ai}"), &vars);
        let mut rel = Flat::new(2 * k);

        let nfa = atom.rel.nfa().remove_epsilon();
        if nv == 0 {
            rels.push(rel); // no source tuples at all
            continue;
        }
        let nq = nfa.num_states();
        // Flat configuration index: ((q · n + pos₀) · n + pos₁) ⋯ — with a
        // generation-stamped visited array reused across the |V|^k source
        // tuples (the dominant cost of the reduction). The positions alone,
        // `idx % n^k`, index a second stamped array: the end tuples already
        // written for the current source.
        let space = (nv as u128).pow(k as u32) * nq as u128;
        assert!(
            space <= (1u128 << 31),
            "materialization space {space} too large; use the direct product evaluator"
        );
        let space = space as usize;
        let ends = space / nq.max(1); // an automaton without states has no configuration
        let encode = |q: StateId, pos: &[NodeId]| -> usize {
            let mut idx = q as usize;
            for &p in pos {
                idx = idx * nv + p as usize;
            }
            idx
        };
        let mut seen: Vec<u32> = vec![0; space];
        let mut written: Vec<u32> = vec![0; ends];
        let mut generation: u32 = 0;
        let mut queue: VecDeque<u32> = VecDeque::new();
        let mut pos = vec![0 as NodeId; k];
        let mut options: Vec<&[(u8, NodeId)]> = Vec::with_capacity(k);
        let mut tuple = vec![0 as NodeId; 2 * k];

        // Enumerate all source tuples in V^k.
        let mut starts = vec![0 as NodeId; k];
        loop {
            // BFS from (q0, starts); collect accepting positions.
            generation += 1;
            queue.clear();
            for &q in nfa.initial_states() {
                let idx = encode(q, &starts);
                if seen[idx] != generation {
                    seen[idx] = generation;
                    queue.push_back(idx as u32);
                }
            }
            while let Some(cidx) = queue.pop_front() {
                stats.configurations += 1;
                // decode
                let mut rem = cidx as usize;
                for i in (0..k).rev() {
                    pos[i] = (rem % nv) as NodeId;
                    rem /= nv;
                }
                let q = rem as StateId;
                let end = cidx as usize % ends;
                if nfa.is_final(q) && written[end] != generation {
                    written[end] = generation;
                    for i in 0..k {
                        tuple[2 * i] = starts[i];
                        tuple[2 * i + 1] = pos[i];
                    }
                    rel.push(&tuple);
                }
                'rows: for (row, q2) in nfa.transitions_from(q) {
                    // per-track successor slices (pads reuse a sentinel)
                    options.clear();
                    let mut pad_mask = 0usize;
                    for i in 0..k {
                        match row[i] {
                            // a padded track's path has ended; it stays put
                            Track::Pad => {
                                pad_mask |= 1 << i;
                                options.push(&[]);
                            }
                            Track::Sym(a) => {
                                let out = db.out_edges(pos[i]);
                                let lo = out.partition_point(|&(l, _)| l < a);
                                let hi = out[lo..].partition_point(|&(l, _)| l == a) + lo;
                                if lo == hi {
                                    continue 'rows;
                                }
                                options.push(&out[lo..hi]);
                            }
                        }
                    }
                    // enumerate successor combos by index arithmetic
                    emit_combos(
                        0,
                        *q2 as usize,
                        k,
                        nv,
                        pad_mask,
                        &pos,
                        &options,
                        &mut |idx| {
                            if seen[idx] != generation {
                                seen[idx] = generation;
                                queue.push_back(idx as u32);
                            }
                        },
                    );
                }
            }
            // next source tuple
            let mut i = 0;
            loop {
                if i == k {
                    break;
                }
                starts[i] += 1;
                if (starts[i] as usize) < nv {
                    break;
                }
                starts[i] = 0;
                i += 1;
            }
            if i == k {
                break;
            }
        }
        stats.tuples += rel.len;
        rels.push(rel);
    }
    let atom_rel = (0..rels.len()).collect();
    let flat = FlatDb {
        domain: nv,
        rels,
        atom_rel,
    };
    (cq, flat, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq_eval::ReducedCq;
    use crate::prepare::PreparedQuery;
    use crate::product::eval_product;
    use ecrpq_automata::{relations, Alphabet, Regex};
    use ecrpq_query::Ecrpq;
    use std::sync::Arc;

    fn chain_db(n: usize) -> GraphDb {
        let mut g = GraphDb::new();
        let nodes: Vec<_> = (0..n).map(|i| g.add_node(&format!("v{i}"))).collect();
        for i in 1..n {
            g.add_edge(nodes[i - 1], 'a', nodes[i]);
        }
        g
    }

    #[test]
    fn unary_language_materializes_r_l() {
        // L = aa on a 4-chain: R' = {(i, i+2)} plus... only pairs 2 apart
        let db = chain_db(4);
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p = q.path_atom(x, "p", y);
        q.rel_atom("aa", Arc::new(relations::word_relation(&[0, 0], 1)), &[p]);
        let prepared = PreparedQuery::build(&q).unwrap();
        let (cq, rdb, stats) = ecrpq_to_cq(&db, &prepared);
        assert_eq!(cq.atoms.len(), 1);
        let r = rdb.relation("R0").unwrap();
        assert_eq!(r.arity, 2);
        let mut tuples: Vec<_> = r.tuples.iter().cloned().collect();
        tuples.sort();
        assert_eq!(tuples, vec![vec![0, 2], vec![1, 3]]);
        assert!(stats.tuples == 2);
    }

    #[test]
    fn eq_length_pairs_materialize() {
        // two-track eq-length on a 3-chain: all (u1,v1,u2,v2) with
        // dist(u1,v1) = dist(u2,v2) (paths unique here)
        let db = chain_db(3);
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let x2 = q.node_var("x2");
        let y2 = q.node_var("y2");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(x2, "p2", y2);
        q.rel_atom("el", Arc::new(relations::eq_length(2, 1)), &[p1, p2]);
        let prepared = PreparedQuery::build(&q).unwrap();
        let (_, rdb, _) = ecrpq_to_cq(&db, &prepared);
        let r = rdb.relation("R0").unwrap();
        assert_eq!(r.arity, 4);
        assert!(r.tuples.contains(&vec![0, 1, 1, 2]));
        assert!(r.tuples.contains(&vec![0, 2, 0, 2]));
        assert!(r.tuples.contains(&vec![2, 2, 1, 1])); // empty paths
        assert!(!r.tuples.contains(&vec![0, 1, 0, 2]));
        // count: pairs with equal distance: dist 0: 3×3, dist 1: 2×2, dist 2: 1×1
        assert_eq!(r.tuples.len(), 9 + 4 + 1);
    }

    #[test]
    fn cq_gaifman_is_node_graph() {
        let db = chain_db(3);
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(y, "p2", z);
        q.rel_atom("el", Arc::new(relations::eq_length(2, 1)), &[p1, p2]);
        let prepared = PreparedQuery::build(&q).unwrap();
        let (cq, _, _) = ecrpq_to_cq(&db, &prepared);
        let gaif = cq.gaifman();
        let node_graph = q.normalized().abstraction().node_graph();
        assert_eq!(gaif.edges(), node_graph.edges());
    }

    #[test]
    fn free_vars_carried_over() {
        let db = chain_db(2);
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        q.path_atom(x, "p", y);
        q.set_free(&[y, x]);
        let prepared = PreparedQuery::build(&q).unwrap();
        let (cq, _, _) = ecrpq_to_cq(&db, &prepared);
        assert_eq!(cq.free, vec![1, 0]);
    }

    #[test]
    fn reduction_agrees_with_product_on_boolean() {
        // satisfiable and unsatisfiable variants
        let db = chain_db(4);
        for (word, expect) in [(vec![0u8, 0, 0], true), (vec![0u8, 0, 0, 0], false)] {
            let mut q = Ecrpq::new(db.alphabet().clone());
            let x = q.node_var("x");
            let y = q.node_var("y");
            let p = q.path_atom(x, "p", y);
            q.rel_atom("w", Arc::new(relations::word_relation(&word, 1)), &[p]);
            let prepared = PreparedQuery::build(&q).unwrap();
            assert_eq!(eval_product(&db, &prepared), expect);
            let (cq, rdb, _) = ecrpq_to_cq(&db, &prepared);
            let holds = !rdb.relation("R0").unwrap().tuples.is_empty();
            assert_eq!(holds, expect);
            let _ = cq;
        }
    }

    /// Corollary 2.4 as Lemma 4.3 with unary relations: the CRPQ's
    /// answers through the reduced instance of its prepared query.
    fn crpq_answers(db: &GraphDb, q: &Ecrpq) -> std::collections::BTreeSet<Vec<u32>> {
        ReducedCq::of_prepared(db, &PreparedQuery::build(q).unwrap()).answers()
    }

    fn sample_db() -> GraphDb {
        // u -a-> v -b-> w ; u -b-> w ; w -a-> u
        let mut g = GraphDb::new();
        let [u, v, w] = ["u", "v", "w"].map(|n| g.add_node(n));
        g.add_edge(u, 'a', v);
        g.add_edge(v, 'b', w);
        g.add_edge(u, 'b', w);
        g.add_edge(w, 'a', u);
        g
    }

    #[test]
    fn example_1_1_on_database() {
        // q1(x) = ∃y x -(a*b)-> y ∧ x -((a|b)*)-> y
        let mut db = sample_db();
        let l1 = Regex::compile_str("a*b", db.alphabet_mut()).unwrap();
        let l2 = Regex::compile_str("(a|b)*", db.alphabet_mut()).unwrap();
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        q.crpq_atom(x, &l1, "a*b", y);
        q.crpq_atom(x, &l2, "any", y);
        q.set_free(&[x]);
        // u: paths b and ab both reach w; v: path b reaches w;
        // w: path ab (w→u→v) is in a*b, and the same path works for (a|b)*.
        assert_eq!(crpq_answers(&db, &q).len(), 3);
    }

    #[test]
    fn boolean_crpq() {
        let mut db = sample_db();
        for (re, expect) in [("aba", true), ("bb", false)] {
            let l = Regex::compile_str(re, db.alphabet_mut()).unwrap();
            let mut q = Ecrpq::new(db.alphabet().clone());
            let x = q.node_var("x");
            let y = q.node_var("y");
            q.crpq_atom(x, &l, re, y);
            // aba: u -a-> v -b-> w -a-> u
            assert_eq!(!crpq_answers(&db, &q).is_empty(), expect, "{re}");
        }
    }

    #[test]
    fn unconstrained_path_var_is_reachability() {
        let db = sample_db();
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        q.path_atom(x, "p", y);
        q.set_free(&[x, y]);
        // the db is strongly connected through u→v→w→u, so all 9 pairs
        assert_eq!(crpq_answers(&db, &q).len(), 9);
    }

    /// Two accepting states reach the same end vertex from one source.
    /// Counting relies on `R′` being a set, so the tuple is written once.
    #[test]
    fn r_prime_is_a_set() {
        use crate::counting::{count_cq_bruteforce, count_ecrpq_assignments};
        use ecrpq_automata::{Nfa, SyncRel};
        let db = chain_db(3);
        // 0 -a-> 1 and 0 -a-> 2, both accepting: `a` is accepted twice
        let mut nfa = Nfa::with_states(3);
        nfa.set_initial(0);
        for q in [1, 2] {
            nfa.add_transition(0, vec![Track::Sym(0)], q);
            nfa.set_final(q);
        }
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p = q.path_atom(x, "p", y);
        q.rel_atom("a2", Arc::new(SyncRel::from_nfa_unchecked(1, 1, nfa)), &[p]);
        let prepared = PreparedQuery::build(&q).unwrap();
        assert_eq!(prepared.atoms[0].rel.nfa().remove_epsilon().num_states(), 3);
        let (cq, rdb, stats) = ecrpq_to_cq(&db, &prepared);
        assert_eq!(stats.tuples, rdb.num_tuples());
        assert_eq!(stats.tuples, 2); // (v0, v1) and (v1, v2)
        assert_eq!(
            count_ecrpq_assignments(&db, &prepared),
            count_cq_bruteforce(&rdb, &cq)
        );
    }

    #[test]
    fn empty_database() {
        let db = GraphDb::new();
        let mut q = Ecrpq::new(Alphabet::new());
        let x = q.node_var("x");
        let y = q.node_var("y");
        q.path_atom(x, "p", y);
        let prepared = PreparedQuery::build(&q).unwrap();
        let (_, rdb, stats) = ecrpq_to_cq(&db, &prepared);
        assert_eq!(stats.tuples, 0);
        assert!(rdb.relation("R0").unwrap().tuples.is_empty());
    }
}
