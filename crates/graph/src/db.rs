//! The graph database representation.
//!
//! Two layouts coexist. The **builder** layout is per-vertex sorted
//! adjacency vectors (`Vec<Vec<(Symbol, NodeId)>>`), cheap to mutate and
//! the representation every `add_*` method maintains, and what
//! [`GraphDb::out_edges`] and [`GraphDb::in_edges`] return. The **frozen**
//! layout is a CSR (compressed sparse row) index built lazily on first
//! query: every edge's neighbour in one vector, plus a `(vertex, label) →
//! range` index so [`GraphDb::successors`] and
//! [`GraphDb::predecessors`] are O(1) slice lookups — the access pattern
//! the product evaluator's BFS performs per configuration expansion. The
//! same freeze lists each label's *carriers*, the vertices with at least
//! one outgoing ([`GraphDb::label_sources`]) or incoming
//! ([`GraphDb::label_targets`]) edge on it: the only vertices a walk can
//! leave by that label, which is where a reachability sweep over every
//! vertex has to start. Any mutation thaws the index; the next query
//! rebuilds it.

use ecrpq_automata::fnv::FnvHashMap;
use ecrpq_automata::{Alphabet, Symbol};
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a database vertex (dense, `0..num_nodes`).
pub type NodeId = u32;

/// A labelled edge `(src, label, dst)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Source vertex.
    pub src: NodeId,
    /// Edge label.
    pub label: Symbol,
    /// Destination vertex.
    pub dst: NodeId,
}

/// The frozen CSR index of one adjacency direction: the neighbour column
/// of all vertices' pairs, the `(vertex, label) → range` offsets into it
/// (so a successor lookup yields a `&[NodeId]` directly), and per label
/// the vertices with at least one pair on it. A vertex's `(label,
/// neighbour)` pairs themselves are the builder's sorted list.
#[derive(Debug, Clone, Default)]
struct CsrSide {
    /// `targets[label[v·L + a]..label[v·L + a + 1]]` = `a`-neighbours of `v`.
    label: Vec<u32>,
    targets: Vec<NodeId>,
    /// `carriers[a]` = the vertices with an `a`-pair, ascending.
    carriers: Vec<Vec<NodeId>>,
}

impl CsrSide {
    fn build(lists: &[Vec<(Symbol, NodeId)>], num_labels: usize) -> CsrSide {
        let total: usize = lists.iter().map(Vec::len).sum();
        assert!(
            total <= u32::MAX as usize,
            "edge count overflows CSR offsets"
        );
        let mut label = Vec::with_capacity(lists.len() * num_labels + 1);
        let mut targets = Vec::with_capacity(total);
        let mut carriers = vec![Vec::new(); num_labels];
        for (v, list) in lists.iter().enumerate() {
            // the builder's sorted inserts are what make the label ranges
            // contiguous; a violation here means a mutator skipped the
            // binary-search insert
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "adjacency list not sorted/deduped"
            );
            let base = targets.len();
            let mut cursor = 0usize;
            for (a, carried) in carriers.iter_mut().enumerate() {
                while cursor < list.len() && (list[cursor].0 as usize) < a {
                    cursor += 1;
                }
                label.push((base + cursor) as u32);
                if list.get(cursor).is_some_and(|&(b, _)| b as usize == a) {
                    carried.push(v as NodeId);
                }
            }
            targets.extend(list.iter().map(|&(_, t)| t));
        }
        label.push(total as u32);
        CsrSide {
            label,
            targets,
            carriers,
        }
    }

    fn carriers(&self, a: Symbol) -> &[NodeId] {
        self.carriers.get(a as usize).map_or(&[], Vec::as_slice)
    }

    fn neighbours(&self, v: NodeId, a: Symbol, num_labels: usize) -> &[NodeId] {
        if (a as usize) >= num_labels {
            return &[];
        }
        let i = v as usize * num_labels + a as usize;
        &self.targets[self.label[i] as usize..self.label[i + 1] as usize]
    }
}

/// Both directions of the frozen index.
#[derive(Debug, Clone)]
struct Csr {
    num_labels: usize,
    out: CsrSide,
    inc: CsrSide,
}

/// A finite edge-labelled directed graph with named vertices — the
/// “graph database” of §2.
///
/// Parallel edges with distinct labels are allowed (`E ⊆ V × A × V` is a
/// set); duplicate `(src, label, dst)` triples are stored once.
#[derive(Debug, Clone, Default)]
pub struct GraphDb {
    alphabet: Alphabet,
    node_names: Vec<String>,
    name_index: FnvHashMap<String, NodeId>,
    /// `out[v]` lists `(label, dst)` pairs, sorted and deduped.
    out: Vec<Vec<(Symbol, NodeId)>>,
    /// `inc[v]` lists `(label, src)` pairs, sorted and deduped.
    inc: Vec<Vec<(Symbol, NodeId)>>,
    num_edges: usize,
    /// Lazily frozen CSR index; taken (thawed) by every mutator.
    csr: OnceLock<Csr>,
}

impl GraphDb {
    /// Creates an empty database over an empty alphabet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty database over a given alphabet.
    pub fn with_alphabet(alphabet: Alphabet) -> Self {
        GraphDb {
            alphabet,
            ..Self::default()
        }
    }

    /// The alphabet of edge labels.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Mutable access to the alphabet (to intern marker symbols, as the
    /// constructions in §5 of the paper do). Thaws the CSR index: the
    /// label-range table is sized by the alphabet.
    pub fn alphabet_mut(&mut self) -> &mut Alphabet {
        self.csr.take();
        &mut self.alphabet
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of distinct labelled edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The frozen CSR index, building it on first use.
    fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| Csr {
            num_labels: self.alphabet.len(),
            out: CsrSide::build(&self.out, self.alphabet.len()),
            inc: CsrSide::build(&self.inc, self.alphabet.len()),
        })
    }

    /// Forces the CSR freeze now instead of on the first query — useful
    /// before handing shared references to parallel workers, so the build
    /// happens once outside the measured/contended section. Idempotent;
    /// any later mutation thaws the index again.
    pub fn freeze(&self) {
        let _ = self.csr();
    }

    /// Whether the CSR index is currently built.
    pub fn is_frozen(&self) -> bool {
        self.csr.get().is_some()
    }

    /// Adds `count` *anonymous* vertices in one call, returning the id of
    /// the first (ids are contiguous). Anonymous vertices carry an empty
    /// name and no name-index entry — [`Self::node`] will not find them
    /// and [`Self::node_name`] returns `""` — so a 10⁶–10⁷-node synthetic
    /// graph does not pay two heap strings per vertex.
    pub fn add_nodes_anon(&mut self, count: usize) -> NodeId {
        self.csr.take();
        // lint:allow(unwrap): documented panic: node count capped at u32
        let first = NodeId::try_from(self.node_names.len()).expect("too many nodes");
        let end = self.node_names.len() + count;
        // lint:allow(unwrap): documented panic: node count capped at u32
        let _ = NodeId::try_from(end).expect("too many nodes");
        self.node_names.resize(end, String::new());
        self.out.resize(end, Vec::new());
        self.inc.resize(end, Vec::new());
        first
    }

    /// Adds (or finds) a vertex by name.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.name_index.get(name) {
            return id;
        }
        self.csr.take();
        // lint:allow(unwrap): documented panic: node count capped at u32
        let id = NodeId::try_from(self.node_names.len()).expect("too many nodes");
        self.node_names.push(name.to_string());
        self.name_index.insert(name.to_string(), id);
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        id
    }

    /// Looks up a vertex by name.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied()
    }

    /// The name of vertex `v`.
    pub fn node_name(&self, v: NodeId) -> &str {
        &self.node_names[v as usize]
    }

    /// Iterates over all vertex ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_names.len() as NodeId)
            .collect::<Vec<_>>()
            .into_iter()
    }

    /// Adds a labelled edge; the label character is interned. Returns
    /// `true` if the edge was new.
    pub fn add_edge(&mut self, src: NodeId, label: char, dst: NodeId) -> bool {
        let s = self.alphabet.intern(label);
        self.add_edge_sym(src, s, dst)
    }

    /// Adds an edge with an already-interned label symbol.
    pub fn add_edge_sym(&mut self, src: NodeId, label: Symbol, dst: NodeId) -> bool {
        assert!((src as usize) < self.num_nodes() && (dst as usize) < self.num_nodes());
        let entry = (label, dst);
        match self.out[src as usize].binary_search(&entry) {
            Ok(_) => false,
            Err(pos) => {
                self.csr.take();
                self.out[src as usize].insert(pos, entry);
                let rentry = (label, src);
                let rpos = self.inc[dst as usize].binary_search(&rentry).unwrap_err();
                self.inc[dst as usize].insert(rpos, rentry);
                self.num_edges += 1;
                true
            }
        }
    }

    /// Outgoing `(label, dst)` pairs of `v`, sorted by label then target.
    pub fn out_edges(&self, v: NodeId) -> &[(Symbol, NodeId)] {
        &self.out[v as usize]
    }

    /// Incoming `(label, src)` pairs of `v`, sorted by label then source.
    pub fn in_edges(&self, v: NodeId) -> &[(Symbol, NodeId)] {
        &self.inc[v as usize]
    }

    /// Successors of `v` on a given label — an O(1) range lookup into the
    /// frozen CSR index.
    pub fn successors(&self, v: NodeId, label: Symbol) -> &[NodeId] {
        let c = self.csr();
        c.out.neighbours(v, label, c.num_labels)
    }

    /// Predecessors of `v` on a given label — an O(1) range lookup into
    /// the frozen CSR index.
    pub fn predecessors(&self, v: NodeId, label: Symbol) -> &[NodeId] {
        let c = self.csr();
        c.inc.neighbours(v, label, c.num_labels)
    }

    /// The vertices with at least one outgoing `label`-edge, ascending —
    /// the only vertices a walk can leave by a `label`-step. Built by the
    /// CSR freeze; an out-of-alphabet label has none.
    pub fn label_sources(&self, label: Symbol) -> &[NodeId] {
        self.csr().out.carriers(label)
    }

    /// The vertices with at least one incoming `label`-edge, ascending —
    /// the only vertices a backward walk can leave by a `label`-step.
    pub fn label_targets(&self, label: Symbol) -> &[NodeId] {
        self.csr().inc.carriers(label)
    }

    /// The `(start, end)` offsets of `v`'s `label`-successors inside
    /// [`GraphDb::csr_targets`]. Bulk access path for kernels that walk
    /// many adjacency ranges over one pinned targets slice — pairs with
    /// `csr_targets()` so the borrow of the shared slice is taken once,
    /// outside the per-node loop. Out-of-alphabet labels yield an empty
    /// range.
    #[inline]
    pub fn successor_range(&self, v: NodeId, label: Symbol) -> std::ops::Range<usize> {
        let c = self.csr();
        if (label as usize) >= c.num_labels {
            return 0..0;
        }
        let i = v as usize * c.num_labels + label as usize;
        c.out.label[i] as usize..c.out.label[i + 1] as usize
    }

    /// The frozen CSR target array: `csr_targets()[r]` for
    /// `r = successor_range(v, a)` are the `a`-successors of `v`, sorted
    /// ascending. Freezes the index on first use.
    #[inline]
    pub fn csr_targets(&self) -> &[NodeId] {
        &self.csr().out.targets
    }

    /// Whether the edge `(src, label, dst)` exists.
    pub fn has_edge(&self, src: NodeId, label: Symbol, dst: NodeId) -> bool {
        self.out[src as usize].binary_search(&(label, dst)).is_ok()
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.out.iter().enumerate().flat_map(|(src, es)| {
            es.iter().map(move |&(label, dst)| Edge {
                src: src as NodeId,
                label,
                dst,
            })
        })
    }

    /// Re-interns the database over a (super-)alphabet — needed when a
    /// query's regexes introduce symbols the database has never seen, so
    /// that relations built over the extended alphabet apply.
    ///
    /// # Panics
    /// Panics if `alphabet` is missing a character used by an edge.
    pub fn with_extended_alphabet(&self, alphabet: &Alphabet) -> GraphDb {
        if self.alphabet() == alphabet {
            return self.clone();
        }
        let mut out = GraphDb::with_alphabet(alphabet.clone());
        for v in 0..self.num_nodes() as NodeId {
            out.add_node(self.node_name(v));
        }
        for e in self.edges() {
            let c = self.alphabet.char_of(e.label);
            let sym = alphabet
                .symbol(c)
                .unwrap_or_else(|| panic!("alphabet misses edge label {c}"));
            out.add_edge_sym(e.src, sym, e.dst);
        }
        out
    }

    /// Disjoint union with `other`, except that vertices with identical
    /// names are merged (the construction of Lemma 5.1 glues the databases
    /// `D₁, …, D_n` on a single distinguished vertex `s` this way).
    ///
    /// Both databases must share an alphabet prefix: labels are re-interned
    /// by character.
    pub fn union_by_name(&mut self, other: &GraphDb) {
        for v in 0..other.num_nodes() as NodeId {
            self.add_node(other.node_name(v));
        }
        for e in other.edges() {
            // lint:allow(unwrap): every node of `other` was copied in the loop above
            let src = self.node(other.node_name(e.src)).unwrap();
            // lint:allow(unwrap): every node of `other` was copied in the loop above
            let dst = self.node(other.node_name(e.dst)).unwrap();
            let c = other.alphabet.char_of(e.label);
            self.add_edge(src, c, dst);
        }
    }
}

impl fmt::Display for GraphDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "graph database: {} nodes, {} edges, alphabet {}",
            self.num_nodes(),
            self.num_edges(),
            self.alphabet
        )?;
        for e in self.edges() {
            writeln!(
                f,
                "  {} -{}-> {}",
                self.node_name(e.src),
                self.alphabet.char_of(e.label),
                self.node_name(e.dst)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GraphDb {
        let mut g = GraphDb::new();
        let u = g.add_node("u");
        let v = g.add_node("v");
        let w = g.add_node("w");
        g.add_edge(u, 'a', v);
        g.add_edge(v, 'b', w);
        g.add_edge(u, 'a', w);
        g.add_edge(u, 'b', v);
        g
    }

    #[test]
    fn build_and_query() {
        let g = sample();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        let a = g.alphabet().symbol('a').unwrap();
        let u = g.node("u").unwrap();
        let succ = g.successors(u, a).to_vec();
        assert_eq!(succ, vec![g.node("v").unwrap(), g.node("w").unwrap()]);
    }

    #[test]
    fn csr_matches_scan() {
        let g = sample();
        for v in 0..g.num_nodes() as NodeId {
            for label in 0..g.alphabet().len() as Symbol {
                let mut succ: Vec<NodeId> = g
                    .edges()
                    .filter(|e| e.src == v && e.label == label)
                    .map(|e| e.dst)
                    .collect();
                succ.sort_unstable();
                assert_eq!(g.successors(v, label), succ.as_slice(), "v={v} a={label}");
                let mut naive: Vec<NodeId> = g
                    .edges()
                    .filter(|e| e.dst == v && e.label == label)
                    .map(|e| e.src)
                    .collect();
                naive.sort_unstable();
                assert_eq!(
                    g.predecessors(v, label),
                    naive.as_slice(),
                    "v={v} a={label}"
                );
            }
        }
        // a symbol the alphabet has never interned: empty slices, no panic
        assert!(g.successors(0, 200).is_empty());
        assert!(g.predecessors(0, 200).is_empty());
    }

    #[test]
    fn mutation_thaws_frozen_index() {
        let mut g = sample();
        g.freeze();
        assert!(g.is_frozen());
        let u = g.node("u").unwrap();
        let w = g.node("w").unwrap();
        assert!(g.add_edge(w, 'b', u));
        assert!(!g.is_frozen(), "add_edge must invalidate the CSR index");
        let b = g.alphabet().symbol('b').unwrap();
        assert_eq!(g.successors(w, b), &[u]);
        assert!(g.is_frozen(), "query refreezes");
        // a duplicate insert changes nothing and keeps the index
        assert!(!g.add_edge(w, 'b', u));
        assert!(g.is_frozen());
        // interning a new alphabet symbol resizes the label table
        g.alphabet_mut().intern('z');
        assert!(!g.is_frozen());
        let z = g.alphabet().symbol('z').unwrap();
        assert!(g.successors(u, z).is_empty());
    }

    /// The label carriers, by a scan over every edge.
    fn scanned_carriers(g: &GraphDb) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
        (0..g.alphabet().len() as Symbol)
            .map(|a| {
                let ends = |end: fn(&Edge) -> NodeId| {
                    let set: std::collections::BTreeSet<NodeId> = g
                        .edges()
                        .filter(|e| e.label == a)
                        .map(|e| end(&e))
                        .collect();
                    set.into_iter().collect::<Vec<_>>()
                };
                (ends(|e| e.src), ends(|e| e.dst))
            })
            .collect()
    }

    fn indexed_carriers(g: &GraphDb) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
        (0..g.alphabet().len() as Symbol)
            .map(|a| (g.label_sources(a).to_vec(), g.label_targets(a).to_vec()))
            .collect()
    }

    /// On random multigraphs the carrier lists of every label are the
    /// sources and targets of its edges, ascending; a mutation that thaws
    /// the index rebuilds them on the next query.
    #[test]
    fn label_carriers_match_an_edge_scan() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for case in 0..50 {
            let mut g = GraphDb::new();
            let n = 1 + next(12);
            for i in 0..n {
                g.add_node(&format!("n{i}"));
            }
            let labels = ['a', 'b', 'c'];
            for _ in 0..next(3 * n + 1) {
                let (u, v) = (next(n) as NodeId, next(n) as NodeId);
                g.add_edge(u, labels[next(labels.len())], v);
            }
            assert_eq!(indexed_carriers(&g), scanned_carriers(&g), "case {case}");
            let (u, v) = (next(n) as NodeId, next(n) as NodeId);
            g.add_edge(u, 'd', v);
            assert!(!g.is_frozen(), "case {case}: the mutation thaws the index");
            let d = g.alphabet().symbol('d').unwrap();
            assert_eq!(g.label_sources(d), &[u]);
            assert_eq!(g.label_targets(d), &[v]);
            assert_eq!(indexed_carriers(&g), scanned_carriers(&g), "case {case}");
        }
        // a symbol the alphabet has never interned: no carriers, no panic
        let g = sample();
        assert!(g.label_sources(200).is_empty());
        assert!(g.label_targets(200).is_empty());
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = sample();
        let u = g.node("u").unwrap();
        let v = g.node("v").unwrap();
        assert!(!g.add_edge(u, 'a', v));
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn add_node_idempotent_by_name() {
        let mut g = sample();
        let u1 = g.add_node("u");
        assert_eq!(u1, g.node("u").unwrap());
        assert_eq!(g.num_nodes(), 3);
    }

    #[test]
    fn has_edge_and_in_edges() {
        let g = sample();
        let a = g.alphabet().symbol('a').unwrap();
        let b = g.alphabet().symbol('b').unwrap();
        let (u, v, w) = (
            g.node("u").unwrap(),
            g.node("v").unwrap(),
            g.node("w").unwrap(),
        );
        assert!(g.has_edge(u, a, v));
        assert!(!g.has_edge(v, a, u));
        let inc: Vec<_> = g.in_edges(w).to_vec();
        assert_eq!(inc, vec![(a, u), (b, v)]);
    }

    #[test]
    fn union_by_name_glues_shared_vertices() {
        let mut g1 = GraphDb::new();
        let s = g1.add_node("s");
        let x = g1.add_node("x");
        g1.add_edge(s, 'a', x);
        let mut g2 = GraphDb::new();
        let s2 = g2.add_node("s");
        let y = g2.add_node("y");
        g2.add_edge(y, 'b', s2);
        g1.union_by_name(&g2);
        assert_eq!(g1.num_nodes(), 3); // s shared
        assert_eq!(g1.num_edges(), 2);
        let b = g1.alphabet().symbol('b').unwrap();
        assert!(g1.has_edge(g1.node("y").unwrap(), b, g1.node("s").unwrap()));
    }

    #[test]
    fn edges_iteration() {
        let g = sample();
        assert_eq!(g.edges().count(), 4);
    }

    #[test]
    fn extended_alphabet_preserves_edges() {
        let g = sample();
        let mut bigger = g.alphabet().clone();
        let c = bigger.intern('c');
        let g2 = g.with_extended_alphabet(&bigger);
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.alphabet().len(), 3);
        let a = g2.alphabet().symbol('a').unwrap();
        assert!(g2.has_edge(0, a, 1));
        // symbol ids may differ; 'c' exists but labels no edge
        assert!(g2.edges().all(|e| e.label != c));
    }

    #[test]
    #[should_panic(expected = "misses edge label")]
    fn shrunk_alphabet_panics() {
        let g = sample(); // uses a and b
        let smaller = Alphabet::ascii_lower(1);
        let _ = g.with_extended_alphabet(&smaller);
    }
}
