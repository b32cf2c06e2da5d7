#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! ECRPQ evaluation — the algorithms of Figueira & Ramanathan (PODS 2022).
//!
//! The pipeline mirrors the paper's upper-bound proofs:
//!
//! 1. **Normalize** the query (universal atoms for unconstrained path
//!    variables) and **merge** every connected component of the relation
//!    subquery into a single synchronous relation — Lemma 4.1
//!    ([`prepare`]).
//! 2. Either evaluate **directly**, guessing a node assignment and checking
//!    each merged component by reachability in the product of `k` copies of
//!    the database with the relation automaton — the Lemma 4.2 / Prop. 2.2
//!    algorithm, implemented as memoized backtracking ([`product`]); or
//! 3. **Reduce to a CQ** by materializing, for every merged atom, the
//!    `2k`-ary endpoint relation `R′ ⊆ V^{2k}` — Lemma 4.3 ([`to_cq`]) —
//!    and evaluate the CQ, with a tree-decomposition + Yannakakis algorithm
//!    when `G^node` has small treewidth ([`cq_eval`]), which is the
//!    polynomial-time / FPT case of Theorems 3.1(3) and 3.2(3).
//!
//! [`planner`] classifies a query (or a class description) into the
//! complexity regimes of Theorems 3.1 and 3.2 and picks the strategy. A
//! plain CRPQ takes the same route: Corollary 2.4's reduction is Lemma 4.3
//! with unary relations. [`counting`] counts satisfying assignments over
//! the same reduced instance. All evaluators agree — the integration
//! suite differential-tests them — and the Boolean evaluators can produce
//! full witnesses (node assignment plus one concrete path per path
//! variable).

mod bitbfs;
pub mod counting;
pub mod cq_eval;
pub mod engine;
pub mod enumerate;
pub mod fnv;
pub mod governor;
pub mod optimize;
pub mod planner;
pub mod prepare;
pub mod product;
pub mod satisfiability;
mod semijoin;
pub mod server;
pub mod to_cq;
pub mod trace;
pub mod ucrpq;

pub use counting::{count_cq_treedec, count_ecrpq_assignments};
pub use engine::{EvalOptions, PreparedTables};
pub use enumerate::{AnswerIter, Enumerator};
pub use fnv::{FnvBuildHasher, FnvHashMap, FnvHashSet, FnvHasher};
pub use governor::{ExhaustedResource, Outcome, ResourceBudget, Termination};
pub use optimize::{optimize, Simplified};
pub use planner::{
    answers_governed, answers_traced, answers_with_stats, evaluate, evaluate_governed,
    evaluate_with_stats, large_db_strategy, regime_budget, CombinedRegime, ParamRegime, Plan,
    Strategy,
};
pub use prepare::{MergedAtom, PreparedQuery};
pub use product::{eval_product, Layout, Witness};
pub use satisfiability::satisfiable;
pub use server::{
    LatencyHistogram, PreparedPlan, QueryService, Response, ServerError, ServiceStats, Session,
    SessionBudget, DEFAULT_PLAN_CAPACITY,
};
pub use to_cq::ecrpq_to_cq;
pub use trace::{
    render_phase_table, CollectingTracer, Metrics, NoopTracer, Phase, PhaseMetrics, PhaseSpan,
    Tracer,
};
pub use ucrpq::{recognizable_to_ucrpq, RecAtom};
