#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Two-level graphs, structural measures, and treewidth.
//!
//! §2–3 of the paper abstract an ECRPQ into a *two-level multi-hypergraph*
//! (“2L graph”) `G = (V, E, H, η, ν)`: `(V, E, η)` is a multigraph on the
//! node variables whose edges are the path variables, and `(E, H, ν)` is a
//! multi-hypergraph on the path variables whose hyperedges are the relation
//! atoms. The complexity of evaluation is characterized by three measures:
//!
//! * [`TwoLevelGraph::cc_vertex`] — the maximum number of path variables in
//!   a connected component of `G^rel`;
//! * [`TwoLevelGraph::cc_hedge`] — the maximum number of hyperedges in such
//!   a component;
//! * the treewidth of [`TwoLevelGraph::node_graph`] (`G^node`), where
//!   connected components of `G^rel` are replaced by cliques on their
//!   incident node variables.
//!
//! [`TwoLevelGraph::collapse`] is the `G^collapse` multigraph of §5.2, used
//! by the W\[1\]-hardness reduction (Lemma 5.3); [`treewidth`] provides tree
//! decompositions with exact and heuristic width computation.

pub mod graphs;
pub mod lemma52;
pub mod treewidth;
pub mod twolevel;

pub use graphs::{Graph, MultiGraph};
pub use lemma52::{lemma52_bound, node_decomposition_from_collapse};
pub use treewidth::{treewidth_exact, treewidth_upper_bound, TreeDecomposition};
pub use twolevel::{RelComponents, TwoLevelGraph};
