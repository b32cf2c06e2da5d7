//! α-acyclicity of the CQ reduction via GYO ear removal.
//!
//! The Lemma 4.3 reduction turns a prepared ECRPQ into a CQ whose atoms
//! are the merged relation components; atom `i`'s variable set is the set
//! of endpoint node variables of the component's path variables. The
//! hypergraph over those variable sets is α-acyclic exactly when the
//! GYO (Graham / Yu–Özsoyoğlu) ear-removal procedure empties it, and the
//! removal order yields a *join tree*: a tree over the atoms in which,
//! for every variable, the atoms containing it form a connected subtree
//! (the running-intersection property).
//!
//! A join tree licenses the classic Yannakakis evaluation: a bottom-up
//! semijoin pass followed by a top-down pass makes every atom's domain
//! globally consistent, after which enumeration is backtrack-free on the
//! tree (`core::semijoin::yannakakis_domains` implements the passes over
//! the product-automaton sweeps instead of materialized relations).

use ecrpq_query::Ecrpq;

/// A join tree over the hyperedges (merged atoms) of an α-acyclic
/// hypergraph, as produced by [`gyo_join_tree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTree {
    /// `parent[i]` = the hyperedge `i` was absorbed into when removed as
    /// an ear, or `None` when `i` was removed isolated (a root of its
    /// connected component of the join forest).
    pub parent: Vec<Option<usize>>,
    /// Hyperedge indices in removal order: ears are removed leaves-first,
    /// so every edge appears *before* its parent. Process `order`
    /// forwards for the bottom-up pass, backwards for top-down.
    pub order: Vec<usize>,
}

impl JoinTree {
    /// Children of hyperedge `i` (edges removed into `i`).
    pub fn children(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.parent
            .iter()
            .enumerate()
            .filter(move |&(_, p)| *p == Some(i))
            .map(|(c, _)| c)
    }

    /// The same tree with `root`'s component rooted at `root`: the arcs on
    /// the path from `root` up to the old root turn around, and the
    /// component's atoms are listed leaves-first again (deepest first, in
    /// the slots of `order` they held), so every atom still comes before
    /// its parent. Other components are left as they are, and so is the
    /// whole tree when `root` already is one. The running intersection
    /// property does not depend on the root, so the result is a join tree
    /// of the same hypergraph.
    pub fn rerooted(&self, root: usize) -> JoinTree {
        if self.parent[root].is_none() {
            return self.clone();
        }
        let mut parent = self.parent.clone();
        let (mut prev, mut at) = (None, Some(root));
        while let Some(i) = at {
            at = std::mem::replace(&mut parent[i], prev);
            prev = Some(i);
        }
        // (root of i's component, depth of i)
        let climb = |mut i: usize| {
            let mut depth = 0usize;
            while let Some(p) = parent[i] {
                (i, depth) = (p, depth + 1);
            }
            (i, depth)
        };
        let slots: Vec<usize> = (0..self.order.len())
            .filter(|&s| climb(self.order[s]).0 == root)
            .collect();
        let mut members: Vec<usize> = slots.iter().map(|&s| self.order[s]).collect();
        members.sort_by_key(|&i| std::cmp::Reverse(climb(i).1));
        let mut order = self.order.clone();
        for (s, i) in slots.into_iter().zip(members) {
            order[s] = i;
        }
        JoinTree { parent, order }
    }

    /// Renders the tree as `i->j` arcs (roots as `i->·`) in index order,
    /// for `Plan::explain`.
    pub fn arcs(&self) -> String {
        let mut out = String::new();
        for (i, p) in self.parent.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match p {
                Some(j) => out.push_str(&format!("{i}->{j}")),
                None => out.push_str(&format!("{i}->·")),
            }
        }
        out
    }
}

/// GYO ear removal on the hypergraph whose hyperedge `i` is the vertex
/// set `edges[i]` (need not be sorted; duplicates are fine). Returns the
/// join tree when the hypergraph is α-acyclic, `None` when it is cyclic.
///
/// An *ear* is a hyperedge `e` such that every vertex of `e` shared with
/// some other live hyperedge is covered by a single live *witness*
/// hyperedge `w ≠ e`; removing `e` records `parent[e] = w`. A hyperedge
/// sharing no vertices is removed with no parent. The hypergraph is
/// α-acyclic iff this terminates with everything removed (Graham 1979;
/// Yu & Özsoyoğlu 1979).
///
/// Complexity: `O(m² · Σ|edges[i]|)` for `m` hyperedges — the CQ
/// reduction has one hyperedge per merged component, so `m` is tiny.
pub fn gyo_join_tree(edges: &[Vec<usize>]) -> Option<JoinTree> {
    let m = edges.len();
    let sets: Vec<Vec<usize>> = edges
        .iter()
        .map(|e| {
            let mut s = e.clone();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect();
    let mut live = vec![true; m];
    let mut parent = vec![None; m];
    let mut order = Vec::with_capacity(m);
    let mut remaining = m;
    while remaining > 0 {
        let mut progressed = false;
        'ears: for i in 0..m {
            if !live[i] {
                continue;
            }
            // vertices of i shared with any *other* live hyperedge
            let shared: Vec<usize> = sets[i]
                .iter()
                .copied()
                .filter(|v| (0..m).any(|j| j != i && live[j] && sets[j].binary_search(v).is_ok()))
                .collect();
            if shared.is_empty() {
                // isolated ear: no witness needed
                live[i] = false;
                parent[i] = None;
                order.push(i);
                remaining -= 1;
                progressed = true;
                continue 'ears;
            }
            for j in 0..m {
                if j == i || !live[j] {
                    continue;
                }
                if shared.iter().all(|v| sets[j].binary_search(v).is_ok()) {
                    live[i] = false;
                    parent[i] = Some(j);
                    order.push(i);
                    remaining -= 1;
                    progressed = true;
                    continue 'ears;
                }
            }
        }
        if !progressed {
            return None; // no ear exists: cyclic
        }
    }
    Some(JoinTree { parent, order })
}

/// The hyperedges of the CQ reduction of `query`: one vertex set per
/// merged relation component, mirroring `PreparedQuery::build` exactly
/// (normalize, take the abstraction's `G^rel` components, collect the
/// endpoint node variables of each component's path variables).
pub fn cq_hyperedges(query: &Ecrpq) -> Vec<Vec<usize>> {
    let query = query.normalized();
    let abstraction = query.abstraction();
    let comps = abstraction.rel_components();
    comps
        .edges
        .iter()
        .map(|edge_list| {
            let mut verts: Vec<usize> = edge_list
                .iter()
                .flat_map(|&e| {
                    let (u, v) = abstraction.edge(e);
                    [u, v]
                })
                .collect();
            verts.sort_unstable();
            verts.dedup();
            verts
        })
        .collect()
}

/// Join tree of `query`'s CQ reduction, or `None` when the reduction is
/// cyclic. Atom indices in the tree match the merged-atom indices of
/// `PreparedQuery::build` (both follow `rel_components` order).
pub fn acyclic_join_tree(query: &Ecrpq) -> Option<JoinTree> {
    gyo_join_tree(&cq_hyperedges(query))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_automata::{relations, Alphabet};
    use std::sync::Arc;

    #[test]
    fn chain_is_acyclic() {
        // {x,y}, {y,z}: edge 0 is an ear into 1 (or vice versa)
        let t = gyo_join_tree(&[vec![0, 1], vec![1, 2]]).expect("acyclic");
        assert_eq!(t.order.len(), 2);
        // the removed ear's parent is the other edge; the last removal is
        // isolated
        let first = t.order[0];
        let last = t.order[1];
        assert_eq!(t.parent[first], Some(last));
        assert_eq!(t.parent[last], None);
    }

    #[test]
    fn triangle_is_cyclic() {
        assert!(gyo_join_tree(&[vec![0, 1], vec![1, 2], vec![2, 0]]).is_none());
    }

    #[test]
    fn contained_edge_is_an_ear() {
        // {x,y,z} ⊇ {y,z}: both removable, acyclic; whichever goes
        // first parents into the other
        let t = gyo_join_tree(&[vec![0, 1, 2], vec![1, 2]]).expect("acyclic");
        let first = t.order[0];
        assert_eq!(t.parent[first], Some(1 - first));
        assert_eq!(t.parent[1 - first], None);
    }

    #[test]
    fn star_is_acyclic() {
        let t = gyo_join_tree(&[vec![0, 1], vec![0, 2], vec![0, 3]]).expect("acyclic");
        // every variable's atoms form a connected subtree: all parents
        // chain through atoms containing vertex 0, which is all of them
        assert_eq!(t.order.len(), 3);
        for (i, p) in t.parent.iter().enumerate() {
            if let Some(j) = p {
                assert_ne!(i, *j);
            }
        }
    }

    #[test]
    fn disjoint_edges_are_isolated_roots() {
        let t = gyo_join_tree(&[vec![0, 1], vec![2, 3]]).expect("acyclic");
        assert_eq!(t.parent, vec![None, None]);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(
            gyo_join_tree(&[]),
            Some(JoinTree {
                parent: vec![],
                order: vec![]
            })
        );
        let t = gyo_join_tree(&[vec![0, 1]]).expect("acyclic");
        assert_eq!(t.parent, vec![None]);
    }

    #[test]
    fn cycle_with_pendant_still_cyclic() {
        // triangle plus an ear hanging off it: the ear goes, the core stays
        assert!(gyo_join_tree(&[vec![0, 1], vec![1, 2], vec![2, 0], vec![0, 9]]).is_none());
    }

    #[test]
    fn arcs_render() {
        let t = gyo_join_tree(&[vec![0, 1], vec![1, 2]]).unwrap();
        let s = t.arcs();
        assert!(s == "0->1, 1->·" || s == "0->·, 1->0", "{s}");
    }

    /// Whether every atom of `t` comes before its parent in `order`, and
    /// every atom occurs there once.
    fn leaves_first(t: &JoinTree) -> bool {
        let mut pos = vec![usize::MAX; t.parent.len()];
        for (s, &i) in t.order.iter().enumerate() {
            pos[i] = s;
        }
        pos.iter().all(|&s| s < t.order.len())
            && (0..t.parent.len()).all(|i| t.parent[i].is_none_or(|p| pos[i] < pos[p]))
    }

    /// The undirected arcs of a tree.
    fn arcs_of(t: &JoinTree) -> Vec<(usize, usize)> {
        let mut arcs: Vec<(usize, usize)> = (0..t.parent.len())
            .filter_map(|i| t.parent[i].map(|p| (i.min(p), i.max(p))))
            .collect();
        arcs.sort_unstable();
        arcs
    }

    #[test]
    fn rerooting_keeps_the_arcs_and_a_leaves_first_order() {
        // a path of atoms 0 – 1 – 2 – 3, and atoms 4, 5, 6 sharing one
        // variable
        let edges = [
            vec![0, 1],
            vec![1, 2],
            vec![2, 3],
            vec![3, 4],
            vec![10, 11],
            vec![10, 12],
            vec![10, 13],
        ];
        let t = gyo_join_tree(&edges).expect("acyclic");
        let roots = |t: &JoinTree| -> Vec<usize> {
            (0..t.parent.len())
                .filter(|&i| t.parent[i].is_none())
                .collect()
        };
        for root in 0..edges.len() {
            let r = t.rerooted(root);
            assert!(leaves_first(&r), "root {root}: {r:?}");
            assert_eq!(arcs_of(&r), arcs_of(&t), "root {root}");
            assert_eq!(r.parent[root], None);
            // one root per component: the new one and the other's old one
            assert_eq!(roots(&r).len(), 2, "root {root}: {r:?}");
            assert_eq!(
                gyo_join_tree(&edges).map(|t| t.rerooted(root)),
                Some(r.clone())
            );
            // the other component keeps its parents and its slots
            for i in 0..edges.len() {
                let same_component = (i < 4) == (root < 4);
                if !same_component {
                    assert_eq!(r.parent[i], t.parent[i]);
                }
            }
            for (s, &i) in t.order.iter().enumerate() {
                if (i < 4) != (root < 4) {
                    assert_eq!(r.order[s], i);
                }
            }
        }
        // re-rooting at the current root changes nothing
        for &root in &roots(&t) {
            assert_eq!(t.rerooted(root), t);
        }
    }

    fn two_atom_chain_query() -> Ecrpq {
        // x -p-> y, y -r-> z with separate unary languages on p and r:
        // two merged components, hyperedges {x,y} and {y,z}
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let p = q.path_atom(x, "p", y);
        let r = q.path_atom(y, "r", z);
        q.rel_atom("lp", Arc::new(relations::word_relation(&[0], 2)), &[p]);
        q.rel_atom("lr", Arc::new(relations::word_relation(&[1], 2)), &[r]);
        q
    }

    #[test]
    fn query_chain_has_join_tree() {
        let q = two_atom_chain_query();
        let h = cq_hyperedges(&q);
        assert_eq!(h, vec![vec![0, 1], vec![1, 2]]);
        assert!(acyclic_join_tree(&q).is_some());
    }

    #[test]
    fn query_triangle_is_cyclic() {
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let p = q.path_atom(x, "p", y);
        let r = q.path_atom(y, "r", z);
        let s = q.path_atom(z, "s", x);
        let w = Arc::new(relations::word_relation(&[0], 2));
        q.rel_atom("lp", w.clone(), &[p]);
        q.rel_atom("lr", w.clone(), &[r]);
        q.rel_atom("ls", w, &[s]);
        assert!(acyclic_join_tree(&q).is_none());
    }

    #[test]
    fn merged_component_collapses_to_one_hyperedge() {
        // eq_len(p1,p2) merges both paths into one component: a single
        // hyperedge {x,y,z} — trivially acyclic even though the node
        // graph has a triangle-free chain
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(y, "p2", z);
        q.rel_atom("eq", Arc::new(relations::eq_length(2, 2)), &[p1, p2]);
        let h = cq_hyperedges(&q);
        assert_eq!(h, vec![vec![0, 1, 2]]);
        assert!(acyclic_join_tree(&q).is_some());
    }
}
