//! Property-based tests for 2L graphs, measures, and treewidth.

use ecrpq::structure::treewidth::{
    decomposition_from_order, min_degree_order, min_fill_order, treewidth_lower_bound,
};
use ecrpq::structure::{treewidth_exact, treewidth_upper_bound, Graph, TwoLevelGraph};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..10,
        proptest::collection::vec((0usize..10, 0usize..10), 0..25),
    )
        .prop_map(|(n, edges)| {
            let mut g = Graph::new(n);
            for (u, v) in edges {
                if u < n && v < n && u != v {
                    g.add_edge(u, v);
                }
            }
            g
        })
}

fn arb_2l() -> impl Strategy<Value = TwoLevelGraph> {
    (
        2usize..6,
        proptest::collection::vec((0usize..6, 0usize..6), 1..8),
        proptest::collection::vec(proptest::collection::vec(0usize..8, 1..4), 0..5),
    )
        .prop_map(|(nv, edges, hedges)| {
            let mut g = TwoLevelGraph::new(nv);
            for (u, v) in &edges {
                g.add_edge(u % nv, v % nv);
            }
            let ne = g.num_edges();
            for h in hedges {
                let members: Vec<usize> = h.iter().map(|&e| e % ne).collect();
                g.add_hyperedge(&members);
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// lower bound ≤ exact ≤ heuristic upper bound; all decompositions
    /// valid.
    #[test]
    fn treewidth_sandwich(g in arb_graph()) {
        let lb = treewidth_lower_bound(&g);
        let (exact, dec) = treewidth_exact(&g);
        let (ub, ubdec) = treewidth_upper_bound(&g);
        prop_assert!(lb <= exact, "lb {lb} > exact {exact}");
        prop_assert!(exact <= ub, "exact {exact} > ub {ub}");
        dec.validate(&g).map_err(TestCaseError::fail)?;
        ubdec.validate(&g).map_err(TestCaseError::fail)?;
        prop_assert_eq!(dec.width(), exact);
    }

    /// Every elimination order yields a valid decomposition.
    #[test]
    fn any_order_valid(g in arb_graph()) {
        for order in [min_degree_order(&g), min_fill_order(&g)] {
            let dec = decomposition_from_order(&g, &order);
            dec.validate(&g).map_err(TestCaseError::fail)?;
        }
    }

    /// Treewidth is monotone under edge addition (checked pairwise).
    #[test]
    fn monotone_under_edges(g in arb_graph(), u in 0usize..10, v in 0usize..10) {
        let n = g.num_vertices();
        let (before, _) = treewidth_exact(&g);
        let mut g2 = g.clone();
        if u % n != v % n {
            g2.add_edge(u % n, v % n);
        }
        let (after, _) = treewidth_exact(&g2);
        prop_assert!(after >= before);
    }

    /// 2L measures are consistent with the component partition.
    #[test]
    fn measures_consistent(g in arb_2l()) {
        let comps = g.rel_components();
        // partitions: every edge in exactly one component
        let total: usize = comps.edges.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.num_edges());
        let htotal: usize = comps.hedges.iter().map(Vec::len).sum();
        prop_assert_eq!(htotal, g.num_hyperedges());
        prop_assert_eq!(
            g.cc_vertex(),
            comps.edges.iter().map(Vec::len).max().unwrap_or(0)
        );
        prop_assert_eq!(
            g.cc_hedge(),
            comps.hedges.iter().map(Vec::len).max().unwrap_or(0)
        );
        // hyperedges lie within one component
        for (h, &c) in comps.comp_of_hedge.iter().enumerate() {
            for &e in g.hyperedge(h) {
                prop_assert_eq!(comps.comp_of_edge[e], c);
            }
        }
    }

    /// Merging components (Ĝ of §4) preserves G^node and caps cc_hedge at 1.
    #[test]
    fn merged_invariants(g in arb_2l()) {
        let m = g.merged();
        prop_assert!(m.cc_hedge() <= 1);
        prop_assert_eq!(m.cc_vertex(), g.cc_vertex());
        prop_assert_eq!(m.node_graph().edges(), g.node_graph().edges());
    }

    /// The Lemma 5.2 direction: a collapse decomposition implies a bounded
    /// node-graph decomposition — checked numerically:
    /// tw(G^node) ≤ (tw(collapse)+1)·2·cc_vertex − 1.
    #[test]
    fn lemma_5_2_bound(g in arb_2l()) {
        use ecrpq::structure::{lemma52_bound, node_decomposition_from_collapse};
        let n = g.cc_vertex().max(1);
        let node = g.node_graph();
        let collapse = g.collapse().simple();
        let (tw_node, _) = treewidth_exact(&node);
        let (tw_col, cdec) = treewidth_exact(&collapse);
        prop_assert!(
            tw_node < (tw_col + 1) * 2 * n,
            "tw_node={tw_node} tw_col={tw_col} n={n}"
        );
        // constructive version: the bag-replacement transformation yields
        // a *valid* decomposition of G^node within the paper's bound
        let ndec = node_decomposition_from_collapse(&g, &cdec);
        ndec.validate(&node).map_err(TestCaseError::fail)?;
        prop_assert!(ndec.width() <= lemma52_bound(tw_col, n));
    }

    /// The collapse multigraph has exactly 2 edge-endpoints per 2L edge.
    #[test]
    fn collapse_edge_count(g in arb_2l()) {
        let m = g.collapse();
        prop_assert_eq!(m.num_edges(), 2 * g.num_edges());
        prop_assert_eq!(
            m.num_vertices(),
            g.num_vertices() + g.rel_components().edges.len()
        );
    }
}
