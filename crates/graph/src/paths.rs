//! Paths and reachability.
//!
//! A path of a graph database from `v₀` to `v_n` of length `n ≥ 0` is a
//! (possibly empty) sequence of edges `(v₀,a₁,v₁)…(v_{n−1},a_n,v_n)`; its
//! label is `a₁⋯a_n ∈ A*` (ε for the empty path). “There is always an empty
//! path from `v` to `v` for any `v ∈ V`” (§2).

use crate::db::{Edge, GraphDb, NodeId};
use ecrpq_automata::{BitSet, Nfa, Symbol};
use std::collections::VecDeque;

/// A concrete path in a graph database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    start: NodeId,
    edges: Vec<Edge>,
}

impl Path {
    /// The empty path at `v`.
    pub fn empty(v: NodeId) -> Self {
        Path {
            start: v,
            edges: Vec::new(),
        }
    }

    /// Builds a path from consecutive edges.
    ///
    /// # Panics
    /// Panics if the edges are not consecutive.
    pub fn from_edges(start: NodeId, edges: Vec<Edge>) -> Self {
        let mut at = start;
        for e in &edges {
            assert_eq!(e.src, at, "non-consecutive path edges");
            at = e.dst;
        }
        Path { start, edges }
    }

    /// The first vertex.
    pub fn source(&self) -> NodeId {
        self.start
    }

    /// The last vertex.
    pub fn target(&self) -> NodeId {
        self.edges.last().map_or(self.start, |e| e.dst)
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the path is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The label `a₁⋯a_n` of the path.
    pub fn label(&self) -> Vec<Symbol> {
        self.edges.iter().map(|e| e.label).collect()
    }

    /// The edges of the path.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Appends an edge.
    ///
    /// # Panics
    /// Panics if `e.src` is not the current target.
    pub fn push(&mut self, e: Edge) {
        assert_eq!(e.src, self.target());
        self.edges.push(e);
    }

    /// Checks that the path exists in `db`.
    pub fn is_valid_in(&self, db: &GraphDb) -> bool {
        self.edges
            .iter()
            .all(|e| db.has_edge(e.src, e.label, e.dst))
    }
}

/// All vertices reachable from `v` (by any path, including the empty one).
pub fn reachable_from(db: &GraphDb, v: NodeId) -> BitSet {
    let mut seen = BitSet::new(db.num_nodes());
    let mut stack = vec![v];
    seen.insert(v as usize);
    while let Some(u) = stack.pop() {
        for &(_, t) in db.out_edges(u) {
            if seen.insert(t as usize) {
                stack.push(t);
            }
        }
    }
    seen
}

/// Finds a shortest path from `src` to `dst` whose label is accepted by
/// `lang`, via BFS over the product `D × A_lang`; returns `None` if no such
/// path exists.
///
/// This is the witness-producing version of the polynomial-time `R_L`
/// relation of Corollary 2.4 in the paper.
pub fn shortest_path_in_language(
    db: &GraphDb,
    src: NodeId,
    dst: NodeId,
    lang: &Nfa<Symbol>,
) -> Option<Path> {
    let nfa = lang.remove_epsilon();
    let nq = nfa.num_states();
    let nv = db.num_nodes();
    // product state = v * nq + q
    let idx = |v: NodeId, q: u32| v as usize * nq + q as usize;
    let mut parent: Vec<Option<(usize, Edge)>> = vec![None; nv * nq];
    let mut seen = BitSet::new(nv * nq);
    let mut queue: VecDeque<(NodeId, u32)> = VecDeque::new();
    for &q in nfa.initial_states() {
        if seen.insert(idx(src, q)) {
            queue.push_back((src, q));
        }
    }
    let mut goal: Option<(NodeId, u32)> = None;
    while let Some((v, q)) = queue.pop_front() {
        if v == dst && nfa.is_final(q) {
            goal = Some((v, q));
            break;
        }
        for &(label, t) in db.out_edges(v) {
            for (s, q2) in nfa.transitions_from(q) {
                if *s == label && seen.insert(idx(t, *q2)) {
                    parent[idx(t, *q2)] = Some((
                        idx(v, q),
                        Edge {
                            src: v,
                            label,
                            dst: t,
                        },
                    ));
                    queue.push_back((t, *q2));
                }
            }
        }
    }
    let (v, q) = goal?;
    let mut cur = idx(v, q);
    let mut edges = Vec::new();
    while let Some((prev, e)) = parent[cur] {
        edges.push(e);
        cur = prev;
    }
    edges.reverse();
    Some(Path::from_edges(src, edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_automata::Regex;

    fn line() -> GraphDb {
        // u -a-> v -b-> w -a-> x, plus u -b-> w
        let mut g = GraphDb::new();
        let u = g.add_node("u");
        let v = g.add_node("v");
        let w = g.add_node("w");
        let x = g.add_node("x");
        g.add_edge(u, 'a', v);
        g.add_edge(v, 'b', w);
        g.add_edge(w, 'a', x);
        g.add_edge(u, 'b', w);
        g
    }

    #[test]
    fn empty_path_semantics() {
        let p = Path::empty(3);
        assert_eq!(p.source(), 3);
        assert_eq!(p.target(), 3);
        assert_eq!(p.label(), Vec::<Symbol>::new());
        assert!(p.is_empty());
    }

    #[test]
    fn path_construction_and_label() {
        let g = line();
        let a = g.alphabet().symbol('a').unwrap();
        let b = g.alphabet().symbol('b').unwrap();
        let p = Path::from_edges(
            0,
            vec![
                Edge {
                    src: 0,
                    label: a,
                    dst: 1,
                },
                Edge {
                    src: 1,
                    label: b,
                    dst: 2,
                },
            ],
        );
        assert_eq!(p.label(), vec![a, b]);
        assert_eq!(p.target(), 2);
        assert!(p.is_valid_in(&g));
    }

    #[test]
    #[should_panic(expected = "non-consecutive")]
    fn non_consecutive_path_panics() {
        let _ = Path::from_edges(
            0,
            vec![
                Edge {
                    src: 0,
                    label: 0,
                    dst: 1,
                },
                Edge {
                    src: 2,
                    label: 0,
                    dst: 3,
                },
            ],
        );
    }

    #[test]
    fn reachability() {
        let g = line();
        let r = reachable_from(&g, g.node("u").unwrap());
        assert_eq!(r.len(), 4);
        let r2 = reachable_from(&g, g.node("w").unwrap());
        assert_eq!(r2.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn shortest_path_with_language() {
        let mut g = line();
        let lang = Regex::compile_str("ab", g.alphabet_mut()).unwrap();
        let p = shortest_path_in_language(&g, 0, 2, &lang).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(g.alphabet().decode(&p.label()), "ab");
        // no path with label 'aa' from u
        let lang2 = Regex::compile_str("aa", g.alphabet_mut()).unwrap();
        assert!(shortest_path_in_language(&g, 0, 2, &lang2).is_none());
        // empty-word path: u to u with (ab)?
        let lang3 = Regex::compile_str("(ab)?", g.alphabet_mut()).unwrap();
        let p3 = shortest_path_in_language(&g, 0, 0, &lang3).unwrap();
        assert!(p3.is_empty());
    }
}
