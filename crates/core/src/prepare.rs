//! Query preparation: normalization + the Lemma 4.1 component merge.
//!
//! For a 2L graph `G`, `Ĝ` merges all hyperedges of a `G^rel` component
//! into one. Lemma 4.1 lifts this to queries: the relations
//! `R₁(π̄₁), …, R_ℓ(π̄_ℓ)` of a component over path variables `π₁ … π_r`
//! are replaced by a single `r`-ary relation — the synchronized product of
//! the `Rᵢ` (computed by [`ecrpq_automata::SyncRel::join`]). The resulting
//! relation has arity at most `cc_vertex(G)` and its automaton has at most
//! `∏ᵢ |Qᵢ|` states, which is the source of the PSPACE upper bound (and of
//! polynomiality when the measures are constant).
//!
//! Acyclicity is a property of the merged query too: [`PreparedQuery::build`]
//! runs GYO ear removal over the merged atoms (atom `i`'s hyperedge is the
//! set of its endpoint node variables) and keeps the join tree when the
//! hypergraph is α-acyclic with at least two atoms. Every product-family
//! evaluation of the query then runs the full semijoin reducer over it.

use ecrpq_analyze::JoinTree;
use ecrpq_query::{Ecrpq, NodeVar, PathVar, QueryError};

use ecrpq_automata::SyncRel;

/// One merged relation atom: a maximal connected component of the relation
/// subquery, now a single synchronous relation over its path variables.
#[derive(Debug, Clone)]
pub struct MergedAtom {
    /// The component's path variables, in merged-track order.
    pub path_vars: Vec<PathVar>,
    /// `endpoints[i]` = the reachability endpoints of `path_vars[i]`.
    pub endpoints: Vec<(NodeVar, NodeVar)>,
    /// The merged relation (arity = `path_vars.len()`).
    pub rel: SyncRel,
    /// Names of the original atoms merged into this one (for reporting).
    pub source_atoms: Vec<String>,
}

/// A query after normalization and component merging, ready for any of the
/// evaluators.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// Number of node variables.
    pub num_node_vars: usize,
    /// Free node variables (empty = Boolean).
    pub free: Vec<NodeVar>,
    /// The merged atoms (one per `G^rel` component).
    pub atoms: Vec<MergedAtom>,
    /// Alphabet size the relations are over.
    pub num_symbols: usize,
    /// GYO join tree of the merged atoms' hypergraph, when it is
    /// α-acyclic with at least two atoms (a single atom gains nothing over
    /// the independent semijoin sweeps). Private: it is a property of the
    /// atoms, so nothing but [`PreparedQuery::build`] sets it.
    join_tree: Option<JoinTree>,
}

/// The join tree the product route's full reducer runs over: the GYO
/// tree of `query`'s CQ reduction ([`ecrpq_analyze::acyclic_join_tree`],
/// whose atom indices are the merged atoms' of [`PreparedQuery::build`]),
/// kept only with at least two atoms. [`PreparedQuery::build`] stores it
/// and [`crate::planner::large_db_strategy`] labels by it.
pub(crate) fn reducer_join_tree(query: &Ecrpq) -> Option<JoinTree> {
    ecrpq_analyze::acyclic_join_tree(query).filter(|t| t.parent.len() >= 2)
}

impl PreparedQuery {
    /// Normalizes and merges `query` (Lemma 4.1).
    ///
    /// Complexity: building each merged relation is `O(∏ᵢ |Qᵢ| · …)` —
    /// polynomial when `cc_vertex` and `cc_hedge` are constants, PSPACE in
    /// general, exactly as the lemma states.
    pub fn build(query: &Ecrpq) -> Result<PreparedQuery, QueryError> {
        query.validate()?;
        let query = query.normalized();
        let abstraction = query.abstraction();
        let comps = abstraction.rel_components();
        let mut atoms = Vec::with_capacity(comps.edges.len());
        for (ci, edge_list) in comps.edges.iter().enumerate() {
            // every component has ≥ 1 hyperedge after normalization
            debug_assert!(!comps.hedges[ci].is_empty());
            let path_vars: Vec<PathVar> = edge_list.iter().map(|&e| PathVar(e as u32)).collect();
            let track_of =
                // lint:allow(unwrap): track_of is only called on this component's members
                |p: PathVar| -> usize { path_vars.iter().position(|&q| q == p).expect("member") };
            let member_atoms: Vec<&ecrpq_query::ast::RelAtom> = comps.hedges[ci]
                .iter()
                .map(|&h| &query.rel_atoms()[h])
                .collect();
            let rels_with_maps: Vec<(&SyncRel, Vec<usize>)> = member_atoms
                .iter()
                .map(|a| {
                    let map: Vec<usize> = a.args.iter().map(|&p| track_of(p)).collect();
                    (a.rel.as_ref(), map)
                })
                .collect();
            let borrowed: Vec<(&SyncRel, &[usize])> = rels_with_maps
                .iter()
                .map(|(r, m)| (*r, m.as_slice()))
                .collect();
            let rel =
                if borrowed.len() == 1 && borrowed[0].1.iter().enumerate().all(|(i, &p)| i == p) {
                    // single atom already in track order: skip the join
                    borrowed[0].0.clone()
                } else {
                    SyncRel::join(&borrowed, path_vars.len())
                };
            let endpoints: Vec<(NodeVar, NodeVar)> =
                path_vars.iter().map(|&p| query.endpoints(p)).collect();
            atoms.push(MergedAtom {
                path_vars,
                endpoints,
                rel,
                source_atoms: member_atoms.iter().map(|a| a.name.clone()).collect(),
            });
        }
        Ok(PreparedQuery {
            num_node_vars: query.num_node_vars(),
            free: query.free_vars().to_vec(),
            atoms,
            num_symbols: query.alphabet().len(),
            join_tree: reducer_join_tree(&query),
        })
    }

    /// The join tree of the merged atoms: `Some` exactly when the query's
    /// CQ reduction is α-acyclic with at least two merged atoms. Atom
    /// indices match [`PreparedQuery::atoms`].
    pub fn join_tree(&self) -> Option<&JoinTree> {
        self.join_tree.as_ref()
    }

    /// As [`PreparedQuery::build`], additionally canonically minimizing
    /// each merged relation automaton (worth it when the same prepared
    /// query is evaluated on many databases; the determinization is
    /// guarded by a size budget and skipped for large automata).
    pub fn build_optimized(query: &Ecrpq) -> Result<PreparedQuery, QueryError> {
        let mut p = Self::build(query)?;
        for atom in &mut p.atoms {
            // determinization alphabet is (|A|+1)^arity; keep it sane
            let alphabet_size = (p.num_symbols + 1).pow(atom.rel.arity() as u32);
            if atom.rel.num_states() <= 64 && alphabet_size <= 4096 {
                let min = atom.rel.minimized();
                if min.num_states() < atom.rel.num_states() {
                    atom.rel = min;
                }
            }
        }
        Ok(p)
    }

    /// Max arity of a merged atom — this is `cc_vertex` of the normalized
    /// abstraction.
    pub fn max_arity(&self) -> usize {
        self.atoms.iter().map(|a| a.rel.arity()).max().unwrap_or(0)
    }

    /// Total states across merged relation automata.
    pub fn total_states(&self) -> usize {
        self.atoms.iter().map(|a| a.rel.num_states()).sum()
    }

    /// The node variables that appear as an endpoint of some merged atom —
    /// exactly the variables the semijoin pruning pass can constrain
    /// (sorted, deduplicated). Variables outside this set are only
    /// restricted by the query's free-tuple expansion.
    pub fn constrained_node_vars(&self) -> Vec<NodeVar> {
        let mut vars: Vec<NodeVar> = self
            .atoms
            .iter()
            .flat_map(|a| a.endpoints.iter().flat_map(|&(s, d)| [s, d]))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_automata::{relations, Alphabet};
    use std::sync::Arc;

    fn chain_query() -> Ecrpq {
        // x →p1 y →p2 z →p3 w, eq_len(p1,p2), eq_len(p2,p3): one component
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let w = q.node_var("w");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(y, "p2", z);
        let p3 = q.path_atom(z, "p3", w);
        let eq = Arc::new(relations::eq_length(2, 2));
        q.rel_atom("e1", eq.clone(), &[p1, p2]);
        q.rel_atom("e2", eq, &[p2, p3]);
        q
    }

    #[test]
    fn merge_collapses_chain_into_one_atom() {
        let p = PreparedQuery::build(&chain_query()).unwrap();
        assert_eq!(p.atoms.len(), 1);
        let a = &p.atoms[0];
        assert_eq!(a.rel.arity(), 3);
        assert_eq!(a.path_vars.len(), 3);
        assert_eq!(a.source_atoms, vec!["e1", "e2"]);
        // merged relation = equal-length triples
        assert!(a.rel.contains(&[&[0], &[1], &[0]]));
        assert!(!a.rel.contains(&[&[0], &[1], &[]]));
    }

    #[test]
    fn constrained_node_vars_are_endpoint_vars() {
        // all four chain variables are endpoints of the merged atom
        let p = PreparedQuery::build(&chain_query()).unwrap();
        assert_eq!(
            p.constrained_node_vars(),
            vec![NodeVar(0), NodeVar(1), NodeVar(2), NodeVar(3)]
        );
        // a query with an extra node variable never used as an endpoint
        let mut q = chain_query();
        let lone = q.node_var("lone");
        q.set_free(&[lone]);
        let p = PreparedQuery::build(&q).unwrap();
        assert!(!p.constrained_node_vars().contains(&lone));
    }

    #[test]
    fn independent_atoms_stay_separate() {
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(y, "p2", x);
        let eq = Arc::new(relations::eq_length(2, 2));
        q.rel_atom("e1", eq, &[p1, p2]);
        let p3 = q.path_atom(x, "p3", y);
        q.rel_atom("lang", Arc::new(relations::word_relation(&[0], 2)), &[p3]);
        let p = PreparedQuery::build(&q).unwrap();
        assert_eq!(p.atoms.len(), 2);
        assert_eq!(p.max_arity(), 2);
    }

    #[test]
    fn unconstrained_path_gets_universal_component() {
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        q.path_atom(x, "p", y);
        let p = PreparedQuery::build(&q).unwrap();
        assert_eq!(p.atoms.len(), 1);
        assert_eq!(p.atoms[0].rel.arity(), 1);
        assert!(p.atoms[0].rel.contains(&[&[0, 1, 0]]));
        assert!(p.atoms[0].rel.contains(&[&[]]));
    }

    #[test]
    fn track_order_out_of_order_args() {
        // relation args in reverse order of path-var indices: prefix(p2, p1)
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(y, "p2", z);
        q.rel_atom("pre", Arc::new(relations::prefix(2)), &[p2, p1]);
        let p = PreparedQuery::build(&q).unwrap();
        let a = &p.atoms[0];
        assert_eq!(a.path_vars, vec![p1, p2]);
        // prefix(p2, p1): track 1 (p2) is a prefix of track 0 (p1)
        assert!(a.rel.contains(&[&[0, 1], &[0]]));
        assert!(!a.rel.contains(&[&[0], &[0, 1]]));
    }

    #[test]
    fn endpoints_follow_path_vars() {
        let p = PreparedQuery::build(&chain_query()).unwrap();
        let a = &p.atoms[0];
        assert_eq!(a.endpoints[0], (NodeVar(0), NodeVar(1)));
        assert_eq!(a.endpoints[1], (NodeVar(1), NodeVar(2)));
        assert_eq!(a.endpoints[2], (NodeVar(2), NodeVar(3)));
    }

    #[test]
    fn optimized_build_agrees_with_plain() {
        let q = chain_query();
        let plain = PreparedQuery::build(&q).unwrap();
        let opt = PreparedQuery::build_optimized(&q).unwrap();
        assert_eq!(plain.atoms.len(), opt.atoms.len());
        assert!(opt.total_states() <= plain.total_states());
        for (a, b) in plain.atoms.iter().zip(&opt.atoms) {
            assert!(a.rel.equivalent(&b.rel));
        }
    }

    #[test]
    fn invalid_query_rejected() {
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p1 = q.path_atom(x, "p1", y);
        q.rel_atom("eq", Arc::new(relations::equality(2)), &[p1]);
        assert!(PreparedQuery::build(&q).is_err());
    }
}
