//! Graph database and automaton generators.

use ecrpq_automata::{Alphabet, Nfa, Regex, Symbol};
use ecrpq_graph::{GraphDb, NodeId};
use ecrpq_query::Ecrpq;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A directed chain `v0 →a v1 →a ⋯ →a v_{n−1}`.
pub fn chain_db(n: usize) -> GraphDb {
    let mut g = GraphDb::new();
    let nodes: Vec<_> = (0..n).map(|i| g.add_node(&format!("v{i}"))).collect();
    for i in 1..n {
        g.add_edge(nodes[i - 1], 'a', nodes[i]);
    }
    g
}

/// A directed cycle of length `n`, labels alternating over the first
/// `num_labels` lowercase letters.
pub fn cycle_db(n: usize, num_labels: usize) -> GraphDb {
    assert!((1..=26).contains(&num_labels));
    let mut g = GraphDb::with_alphabet(Alphabet::ascii_lower(num_labels));
    let nodes: Vec<_> = (0..n).map(|i| g.add_node(&format!("v{i}"))).collect();
    for i in 0..n {
        let label = (b'a' + (i % num_labels) as u8) as char;
        g.add_edge(nodes[i], label, nodes[(i + 1) % n]);
    }
    g
}

/// A `w × h` grid with rightward `a`-edges and downward `b`-edges.
pub fn grid_db(w: usize, h: usize) -> GraphDb {
    let mut g = GraphDb::with_alphabet(Alphabet::ascii_lower(2));
    let nodes: Vec<_> = (0..w * h).map(|i| g.add_node(&format!("v{i}"))).collect();
    for y in 0..h {
        for x in 0..w {
            let v = y * w + x;
            if x + 1 < w {
                g.add_edge(nodes[v], 'a', nodes[v + 1]);
            }
            if y + 1 < h {
                g.add_edge(nodes[v], 'b', nodes[v + w]);
            }
        }
    }
    g
}

/// As [`grid_db`] with anonymous (unnamed) vertices, so a 1000×1000 or
/// larger grid does not pay two heap strings per vertex. Vertex ids keep
/// the same row-major numbering.
pub fn grid_db_anon(w: usize, h: usize) -> GraphDb {
    let mut g = GraphDb::with_alphabet(Alphabet::ascii_lower(2));
    let first = g.add_nodes_anon(w * h);
    let (a, b) = (g.alphabet_mut().intern('a'), g.alphabet_mut().intern('b'));
    for y in 0..h {
        for x in 0..w {
            let v = first + (y * w + x) as NodeId;
            if x + 1 < w {
                g.add_edge_sym(v, a, v + 1);
            }
            if y + 1 < h {
                g.add_edge_sym(v, b, v + w as NodeId);
            }
        }
    }
    g
}

/// A scale-free graph grown by preferential attachment (Barabási–Albert
/// style): node `i` joins with one *tree* edge `parent → i` — so every
/// vertex is reachable from the hub (node 0) and the depth of the core is
/// `O(log n)` w.h.p. — plus `edges_per_node − 1` extra out-edges
/// `i → target`, targets drawn degree-proportionally. Labels are uniform
/// over the first `num_labels` letters. Deterministic in `seed`; vertices
/// are anonymous so the generator scales to 10⁶–10⁷ nodes.
pub fn power_law_db(n: usize, edges_per_node: usize, num_labels: usize, seed: u64) -> GraphDb {
    assert!((1..=26).contains(&num_labels));
    let mut g = GraphDb::with_alphabet(Alphabet::ascii_lower(num_labels));
    let mut rng = SmallRng::seed_from_u64(seed);
    add_power_law_core(&mut g, n, edges_per_node, num_labels, &mut rng);
    g
}

/// Appends an `n`-vertex preferential-attachment core to `g` (labels over
/// the first `num_labels` letters of `g`'s alphabet), returning the hub's
/// id. Shared by [`power_law_db`] and [`planted_power_law_instance`].
fn add_power_law_core(
    g: &mut GraphDb,
    n: usize,
    edges_per_node: usize,
    num_labels: usize,
    rng: &mut SmallRng,
) -> NodeId {
    let syms: Vec<Symbol> = (0..num_labels)
        .map(|i| g.alphabet_mut().intern((b'a' + i as u8) as char))
        .collect();
    let m = edges_per_node.max(1);
    let hub = g.add_nodes_anon(n.max(1));
    // endpoint pool: every edge endpoint is appended once, so a uniform
    // draw from the pool is a degree-proportional attachment choice
    let mut pool: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    pool.push(hub);
    for i in 1..n {
        let v = hub + i as NodeId;
        for e in 0..m {
            let target = pool[rng.gen_range(0..pool.len())];
            let label = syms[rng.gen_range(0..num_labels)];
            if e == 0 {
                // tree edge: parent → v keeps the core hub-rooted
                g.add_edge_sym(target, label, v);
            } else {
                g.add_edge_sym(v, label, target);
            }
            pool.push(target);
            pool.push(v);
        }
    }
    hub
}

/// Number of chain-tail vertices in [`planted_power_law_instance`]: deep
/// enough that the level-synchronous BFS sweeps the whole `O(log n)`-
/// diameter core before the goal configuration appears.
const PLANTED_TAIL: usize = 64;

/// The planted large-graph reachability instance of experiment E19: a
/// power-law core over labels `{a, b}`, `sources` entry vertices with
/// `c`-edges into the hub, and a `PLANTED_TAIL`-vertex `a`-chain off the
/// hub ending in the single `d`-edge to the sink. The query
/// `q(x) :- x -[p]-> y, p ∈ c(a|b)*d` then has exactly the entry
/// vertices as answers (returned as the third component), and each
/// feasibility check is one product BFS that must sweep essentially the
/// whole core — the configs/s metric measures the BFS inner loop, not the
/// enumeration around it. The entry vertices are *core* vertices spread
/// evenly through the id space, so the parallel engine's first-variable
/// chunk partition spreads the checks across workers.
pub fn planted_power_law_instance(
    n: usize,
    sources: usize,
    seed: u64,
) -> (GraphDb, Ecrpq, Vec<NodeId>) {
    assert!(sources >= 1 && n >= 2 * sources);
    let mut alphabet = Alphabet::ascii_lower(4);
    // lint:allow(unwrap): literal regex over the fixed 4-letter alphabet
    let lang = Regex::compile_str("c(a|b)*d", &mut alphabet).expect("valid regex");
    let mut g = GraphDb::with_alphabet(alphabet.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    let hub = add_power_law_core(&mut g, n, 2, 2, &mut rng);
    let tail = g.add_nodes_anon(PLANTED_TAIL);
    let sink = g.add_nodes_anon(1);
    g.add_edge(hub, 'a', tail);
    for i in 1..PLANTED_TAIL {
        g.add_edge(tail + i as NodeId - 1, 'a', tail + i as NodeId);
    }
    g.add_edge(tail + PLANTED_TAIL as NodeId - 1, 'd', sink);
    // entry vertices: the `c`-move is the only legal first step of the
    // regex, so giving evenly-spaced core vertices a `c`-edge into the hub
    // plants exactly `sources` answers without touching the (a|b)* sweep
    let srcs: Vec<NodeId> = (0..sources)
        .map(|j| (n / (2 * sources) + j * (n / sources)) as NodeId)
        .collect();
    for &s in &srcs {
        g.add_edge(s, 'c', hub);
    }
    let mut q = Ecrpq::new(alphabet);
    let x = q.node_var("x");
    let y = q.node_var("y");
    q.crpq_atom(x, &lang, "c(a|b)*d", y);
    q.set_free(&[x]);
    (g, q, srcs)
}

/// Decoy-cycle length in [`planted_acyclic_instance`]: each product-BFS
/// feasibility check from a decoy vertex sweeps its whole cycle (plus
/// chords) before failing, so this constant sets the per-check cost the
/// independent-sweep baseline pays on every decoy.
const ACYCLIC_DECOY_CYCLE: usize = 256;

/// Length of the `b`-chain between the join vertex and the sink in
/// [`planted_acyclic_instance`].
const ACYCLIC_MID: usize = 32;

/// The planted acyclic low-output instance of experiment E20: the query
///
/// ```text
/// q(x, z) :- x -[p]-> y, y -[r]-> z, p ∈ aa*, r ∈ bb*d
/// ```
///
/// has the α-acyclic CQ reduction `{x,y} – {y,z}`, so its compiled form
/// has a join tree and every product evaluation runs the Yannakakis
/// semijoin program with streaming enumeration. The database is `n` decoy
/// vertices arranged in `a`-cycles (with random intra-cycle chords), plus
/// a planted `a`-chain of `k` heads `c_0 → ⋯ → c_{k−1}` entering a
/// `b`-chain that ends in the single `d`-edge to the sink. Independent
/// per-atom semijoin sweeps would keep every decoy in `D(x)` — each has
/// `aa*` paths, just none that reach the join vertex — and pay one
/// cycle-sweeping BFS per decoy; the Yannakakis top-down pass propagates
/// `D(y)` backwards and shrinks `D(x)` to the `k` chain heads before
/// enumeration starts. The answer set
/// is exactly `{(c_i, sink)}` and is returned as the third component.
pub fn planted_acyclic_instance(
    n: usize,
    k: usize,
    seed: u64,
) -> (GraphDb, Ecrpq, std::collections::BTreeSet<Vec<NodeId>>) {
    assert!(k >= 1 && n >= 2);
    let mut alphabet = Alphabet::ascii_lower(4);
    // lint:allow(unwrap): literal regexes over the fixed 4-letter alphabet
    let lang_a = Regex::compile_str("aa*", &mut alphabet).expect("valid regex");
    // lint:allow(unwrap): literal regex over the fixed 4-letter alphabet
    let lang_bd = Regex::compile_str("bb*d", &mut alphabet).expect("valid regex");
    let mut g = GraphDb::with_alphabet(alphabet.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    let a = g.alphabet_mut().intern('a');
    // decoys: a-cycles with intra-cycle chords — no edge ever leaves a
    // cycle, so no decoy reaches the planted join vertex
    let first = g.add_nodes_anon(n);
    let mut start = 0usize;
    while start < n {
        let len = ACYCLIC_DECOY_CYCLE.min(n - start);
        for i in 0..len {
            let v = first + (start + i) as NodeId;
            let w = first + (start + (i + 1) % len) as NodeId;
            g.add_edge_sym(v, a, w);
        }
        for _ in 0..len / 4 {
            let u = first + (start + rng.gen_range(0..len)) as NodeId;
            let v = first + (start + rng.gen_range(0..len)) as NodeId;
            g.add_edge_sym(u, a, v);
        }
        start += len;
    }
    // planted structure: c_0 →a ⋯ →a c_{k−1} →a p_0 →b ⋯ →b p_{m−1} →d sink
    let heads = g.add_nodes_anon(k);
    let mid = g.add_nodes_anon(ACYCLIC_MID);
    let sink = g.add_nodes_anon(1);
    for i in 1..k {
        g.add_edge(heads + i as NodeId - 1, 'a', heads + i as NodeId);
    }
    g.add_edge(heads + k as NodeId - 1, 'a', mid);
    for i in 1..ACYCLIC_MID {
        g.add_edge(mid + i as NodeId - 1, 'b', mid + i as NodeId);
    }
    g.add_edge(mid + ACYCLIC_MID as NodeId - 1, 'd', sink);
    let mut q = Ecrpq::new(alphabet);
    let x = q.node_var("x");
    let y = q.node_var("y");
    let z = q.node_var("z");
    q.crpq_atom(x, &lang_a, "aa*", y);
    q.crpq_atom(y, &lang_bd, "bb*d", z);
    q.set_free(&[x, z]);
    let answers = (0..k).map(|i| vec![heads + i as NodeId, sink]).collect();
    (g, q, answers)
}

/// Decoy-cycle length in [`planted_regime_shift_instance`]: every
/// product-search feasibility check sweeps a whole cycle, so this sets
/// the per-check cost the unminimized direct-product baseline pays.
const SHIFT_DECOY_CYCLE: usize = 24;

/// The planted NP→PTIME regime-shift instance of experiment E21: the query
///
/// ```text
/// q(w, z) :- w -[p1]-> x, x -[p2]-> y, y -[p3]-> z,
///            w -[c1]-> y, x -[c2]-> z, w -[c3]-> z,
///            p1, p2, p3 ∈ a*b,   c1, c2, c3 ∈ (a|b)*
/// ```
///
/// has `G^node = K4` (treewidth 3 → NP regime) before minimization. The
/// three chords are universal reachability atoms implied by the chain, so
/// the regime minimizer elides them, leaving a 3-atom chain (treewidth 1
/// → PTIME regime) whose α-acyclic reduction gets the Yannakakis
/// program. The unminimized query's reduction is cyclic (`K4` has no GYO
/// ear), forcing the direct product search over all six path atoms.
///
/// The database is `n` vertices arranged in `a`-cycles of length
/// `SHIFT_DECOY_CYCLE` (24), each with a single parallel `b`-edge at a
/// seed-determined position: every vertex of a cycle has `a*b` paths (all
/// ending at the `b`-target), so no per-atom sweep prunes anything, and
/// the joint search pays cycle-sweeping feasibility checks per candidate.
/// The answer set is exactly `{(w, t_C) : w ∈ C}` for each cycle `C` with
/// `b`-target `t_C`, and is returned as the third component.
pub fn planted_regime_shift_instance(
    n: usize,
    seed: u64,
) -> (GraphDb, Ecrpq, std::collections::BTreeSet<Vec<NodeId>>) {
    assert!(n >= 2);
    let mut alphabet = Alphabet::ascii_lower(2);
    // lint:allow(unwrap): literal regexes over the fixed 2-letter alphabet
    let lang_ab = Regex::compile_str("a*b", &mut alphabet).expect("valid regex");
    // lint:allow(unwrap): literal regex over the fixed 2-letter alphabet
    let lang_any = Regex::compile_str("(a|b)*", &mut alphabet).expect("valid regex");
    let mut g = GraphDb::with_alphabet(alphabet.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    let a = g.alphabet_mut().intern('a');
    let b = g.alphabet_mut().intern('b');
    let first = g.add_nodes_anon(n);
    let mut answers = std::collections::BTreeSet::new();
    let mut start = 0usize;
    while start < n {
        let len = SHIFT_DECOY_CYCLE.min(n - start);
        for i in 0..len {
            let v = first + (start + i) as NodeId;
            let w = first + (start + (i + 1) % len) as NodeId;
            g.add_edge_sym(v, a, w);
        }
        // one b-edge parallel to a random a-edge of the cycle: its target
        // is the unique endpoint of every a*b path in this cycle
        let i = rng.gen_range(0..len);
        let bv = first + (start + i) as NodeId;
        let bt = first + (start + (i + 1) % len) as NodeId;
        g.add_edge_sym(bv, b, bt);
        for w in 0..len {
            answers.insert(vec![first + (start + w) as NodeId, bt]);
        }
        start += len;
    }
    let mut q = Ecrpq::new(alphabet);
    let w = q.node_var("w");
    let x = q.node_var("x");
    let y = q.node_var("y");
    let z = q.node_var("z");
    q.crpq_atom(w, &lang_ab, "a*b", x);
    q.crpq_atom(x, &lang_ab, "a*b", y);
    q.crpq_atom(y, &lang_ab, "a*b", z);
    q.crpq_atom(w, &lang_any, "(a|b)*", y);
    q.crpq_atom(x, &lang_any, "(a|b)*", z);
    q.crpq_atom(w, &lang_any, "(a|b)*", z);
    q.set_free(&[w, z]);
    (g, q, answers)
}

/// A random graph database: `n` vertices, ≈`avg_degree` outgoing edges per
/// vertex, labels uniform over `num_labels` letters. Deterministic in
/// `seed`.
pub fn random_db(n: usize, avg_degree: f64, num_labels: usize, seed: u64) -> GraphDb {
    assert!((1..=26).contains(&num_labels));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = GraphDb::with_alphabet(Alphabet::ascii_lower(num_labels));
    let nodes: Vec<_> = (0..n).map(|i| g.add_node(&format!("v{i}"))).collect();
    if n == 0 {
        return g;
    }
    let num_edges = (n as f64 * avg_degree).round() as usize;
    for _ in 0..num_edges {
        let src = nodes[rng.gen_range(0..n)];
        let dst = nodes[rng.gen_range(0..n)];
        let label = (b'a' + rng.gen_range(0..num_labels) as u8) as char;
        g.add_edge(src, label, dst);
    }
    g
}

/// A random *complete DFA* with `states` states over `num_symbols`
/// symbols — the literal input format of the p-IE problem (§2.1 of the
/// paper takes DFAs). State 0 is initial; each state is final with
/// probability `final_prob` (at least one final is guaranteed).
pub fn random_dfa(
    states: usize,
    num_symbols: usize,
    final_prob: f64,
    seed: u64,
) -> ecrpq_automata::Dfa<Symbol> {
    assert!(states >= 1 && num_symbols >= 1);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1F4);
    let alphabet: Vec<Symbol> = (0..num_symbols as Symbol).collect();
    let transitions: Vec<Vec<u32>> = (0..states)
        .map(|_| {
            (0..num_symbols)
                .map(|_| rng.gen_range(0..states) as u32)
                .collect()
        })
        .collect();
    let mut finals: Vec<u32> = (0..states as u32)
        .filter(|_| rng.gen_bool(final_prob))
        .collect();
    if finals.is_empty() {
        finals.push(rng.gen_range(0..states) as u32);
    }
    ecrpq_automata::Dfa::from_parts(alphabet, transitions, 0, finals)
}

/// A random NFA with `states` states over `num_symbols` symbols:
/// transition present with probability `density`, each non-initial state
/// final with probability `final_prob`; state 0 is initial.
pub fn random_nfa(
    states: usize,
    num_symbols: usize,
    density: f64,
    final_prob: f64,
    seed: u64,
) -> Nfa<Symbol> {
    assert!(states >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut nfa = Nfa::with_states(states);
    nfa.set_initial(0);
    for q in 0..states as u32 {
        for s in 0..num_symbols as Symbol {
            for t in 0..states as u32 {
                if rng.gen_bool(density) {
                    nfa.add_transition(q, s, t);
                }
            }
        }
        if rng.gen_bool(final_prob) {
            nfa.set_final(q);
        }
    }
    // guarantee at least one final state
    if nfa.final_states().next().is_none() {
        nfa.set_final((states - 1) as u32);
    }
    nfa.normalize();
    nfa
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shape() {
        let g = chain_db(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn cycle_shape_and_labels() {
        let g = cycle_db(6, 2);
        assert_eq!(g.num_edges(), 6);
        let a = g.alphabet().symbol('a').unwrap();
        let b = g.alphabet().symbol('b').unwrap();
        assert!(g.has_edge(0, a, 1));
        assert!(g.has_edge(1, b, 2));
        assert!(g.has_edge(5, b, 0));
    }

    #[test]
    fn grid_shape() {
        let g = grid_db(3, 2);
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 7);
    }

    #[test]
    fn grid_db_anon_matches_named_grid() {
        let named = grid_db(4, 3);
        let anon = grid_db_anon(4, 3);
        assert_eq!(anon.num_nodes(), named.num_nodes());
        assert_eq!(anon.num_edges(), named.num_edges());
        let e1: Vec<_> = named.edges().collect();
        let e2: Vec<_> = anon.edges().collect();
        assert_eq!(e1, e2);
        assert_eq!(anon.node_name(0), "");
    }

    #[test]
    fn power_law_core_is_hub_reachable() {
        let n = 500;
        let g = power_law_db(n, 2, 2, 7);
        assert_eq!(g.num_nodes(), n);
        // every vertex reachable from the hub via the tree edges
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for a in 0..2u8 {
                for &t in g.successors(v, a) {
                    if !seen[t as usize] {
                        seen[t as usize] = true;
                        stack.push(t);
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "core fully hub-reachable");
        // deterministic in the seed
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = power_law_db(n, 2, 2, 7).edges().collect();
        assert_eq!(e1, e2);
        let e3: Vec<_> = power_law_db(n, 2, 2, 8).edges().collect();
        assert_ne!(e1, e3);
        // scale-free-ish: the max out-degree dwarfs the average
        let max_deg = (0..n as u32)
            .map(|v| g.out_edges(v).len())
            .max()
            .unwrap_or(0);
        assert!(max_deg >= 8, "expected a hub, max out-degree {max_deg}");
    }

    #[test]
    fn planted_instance_answers_are_the_sources() {
        let (g, q, srcs) = planted_power_law_instance(300, 5, 11);
        q.validate().unwrap();
        // nodes: 300 core + tail + sink (sources are core vertices)
        assert_eq!(g.num_nodes(), 300 + super::PLANTED_TAIL + 1);
        assert_eq!(srcs.len(), 5);
        let prepared = ecrpq_core::prepare::PreparedQuery::build(&q).unwrap();
        let answers = ecrpq_core::product::answers_product(&g, &prepared);
        let expect: std::collections::BTreeSet<Vec<u32>> = srcs.iter().map(|&s| vec![s]).collect();
        assert_eq!(answers, expect);
    }

    #[test]
    fn planted_acyclic_answers_are_the_chain_heads() {
        let (g, q, expected) = planted_acyclic_instance(600, 4, 11);
        q.validate().unwrap();
        assert_eq!(g.num_nodes(), 600 + 4 + super::ACYCLIC_MID + 1);
        assert_eq!(expected.len(), 4);
        let prepared = ecrpq_core::prepare::PreparedQuery::build(&q).unwrap();
        let answers = ecrpq_core::product::answers_product(&g, &prepared);
        assert_eq!(answers, expected);
        // the CQ reduction is α-acyclic with two merged atoms, so the
        // compiled query has a join tree and the large-database label is
        // Yannakakis
        assert!(prepared.join_tree().is_some());
        assert_eq!(
            ecrpq_core::large_db_strategy(&q),
            ecrpq_core::Strategy::Yannakakis
        );
        // deterministic in the seed
        let (g2, _, _) = planted_acyclic_instance(600, 4, 11);
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn random_db_deterministic() {
        let g1 = random_db(20, 2.0, 2, 42);
        let g2 = random_db(20, 2.0, 2, 42);
        assert_eq!(g1.num_edges(), g2.num_edges());
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
        let g3 = random_db(20, 2.0, 2, 43);
        let e3: Vec<_> = g3.edges().collect();
        assert_ne!(e1, e3);
    }

    #[test]
    fn random_db_edge_count_scales() {
        let g = random_db(100, 3.0, 3, 1);
        // duplicates collapse, so ≤ 300, but should be close
        assert!(g.num_edges() > 200 && g.num_edges() <= 300);
    }

    #[test]
    fn random_nfa_valid() {
        let n = random_nfa(5, 2, 0.3, 0.4, 7);
        assert_eq!(n.num_states(), 5);
        assert_eq!(n.initial_states(), &[0]);
        assert!(n.final_states().next().is_some());
        // deterministic
        let n2 = random_nfa(5, 2, 0.3, 0.4, 7);
        assert_eq!(n, n2);
    }

    #[test]
    fn empty_random_db() {
        let g = random_db(0, 2.0, 1, 0);
        assert_eq!(g.num_nodes(), 0);
    }

    #[test]
    fn random_dfa_is_complete_and_deterministic() {
        let d = random_dfa(6, 2, 0.3, 9);
        assert_eq!(d.num_states(), 6);
        // complete: stepping never fails
        let mut q = d.initial();
        for s in [0u8, 1, 0, 0, 1] {
            q = d.step(q, &s).unwrap();
        }
        assert_eq!(d, random_dfa(6, 2, 0.3, 9));
        assert_ne!(random_dfa(6, 2, 0.3, 9), random_dfa(6, 2, 0.3, 10));
    }
}
