//! Regime classification (Theorems 3.1 & 3.2) and strategy selection.
//!
//! The paper's characterizations speak about *classes* of 2L graphs; a
//! class is described here by [`ClassBounds`] (a bound or `None` =
//! unbounded for each measure). [`combined_regime`] and [`param_regime`]
//! are direct transcriptions of Theorems 3.2 and 3.1.
//!
//! For a *single* query all measures are finite, so the planner uses them
//! quantitatively: it estimates the cost of the Lemma 4.3 materialization
//! (`≈ |V|^{2·cc_vertex}` tuples) and falls back to the direct product
//! search when materialization would be larger than the configuration
//! space the search visits.

use crate::cq_eval::ReducedCq;
use crate::engine::{self, EvalOptions, PreparedTables};
use crate::governor::{Governor, Outcome, ResourceBudget, Termination};
use crate::prepare::PreparedQuery;
use crate::product::ProductStats;
use crate::to_cq::ecrpq_to_cq;
use crate::trace::{
    render_phase_table, CollectingTracer, Metrics, NoopTracer, Phase, PhaseSpan, Tracer,
};
use ecrpq_analyze::{
    analyze_minimizing, minimize_with, render_diagnostic, Analysis, AnalyzerConfig, Code, JoinTree,
    Minimized,
};
use ecrpq_graph::{GraphDb, NodeId};
use ecrpq_query::{Ecrpq, QueryMeasures};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Boundedness description of a class of 2L graphs (`None` = unbounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassBounds {
    /// Bound on `cc_vertex`, if any.
    pub cc_vertex: Option<usize>,
    /// Bound on `cc_hedge`, if any.
    pub cc_hedge: Option<usize>,
    /// Bound on the treewidth of `G^node`, if any.
    pub treewidth: Option<usize>,
}

/// The combined-complexity regimes of **Theorem 3.2**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinedRegime {
    /// All three measures bounded: evaluation in polynomial time.
    PolynomialTime,
    /// Components bounded, treewidth unbounded: NP (and not PTIME unless
    /// W\[1\] = FPT).
    NpComplete,
    /// `cc_vertex` or `cc_hedge` unbounded: PSPACE-complete (for cc-tame
    /// classes).
    PspaceComplete,
}

/// The parameterized-complexity regimes of **Theorem 3.1**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamRegime {
    /// `cc_vertex` and treewidth bounded: FPT.
    Fpt,
    /// `cc_vertex` bounded, treewidth unbounded: W\[1\]-complete.
    W1Complete,
    /// `cc_vertex` unbounded: XNL-complete.
    XnlComplete,
}

impl fmt::Display for CombinedRegime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CombinedRegime::PolynomialTime => write!(f, "PTIME"),
            CombinedRegime::NpComplete => write!(f, "NP"),
            CombinedRegime::PspaceComplete => write!(f, "PSPACE-complete"),
        }
    }
}

impl fmt::Display for ParamRegime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamRegime::Fpt => write!(f, "FPT"),
            ParamRegime::W1Complete => write!(f, "W[1]-complete"),
            ParamRegime::XnlComplete => write!(f, "XNL-complete"),
        }
    }
}

/// Theorem 3.2: the combined complexity of `eval-ECRPQ(C)` for a cc-tame
/// class with the given bounds.
pub fn combined_regime(bounds: &ClassBounds) -> CombinedRegime {
    match (bounds.cc_vertex, bounds.cc_hedge, bounds.treewidth) {
        (None, _, _) | (_, None, _) => CombinedRegime::PspaceComplete,
        (Some(_), Some(_), None) => CombinedRegime::NpComplete,
        (Some(_), Some(_), Some(_)) => CombinedRegime::PolynomialTime,
    }
}

/// Theorem 3.1: the parameterized complexity of `p-eval-ECRPQ(C)`.
pub fn param_regime(bounds: &ClassBounds) -> ParamRegime {
    match (bounds.cc_vertex, bounds.treewidth) {
        (None, _) => ParamRegime::XnlComplete,
        (Some(_), None) => ParamRegime::W1Complete,
        (Some(_), Some(_)) => ParamRegime::Fpt,
    }
}

/// Measures at or above these thresholds are treated as "effectively
/// unbounded" when picking a default resource budget: for a single query
/// every measure is finite (so the Theorem 3.2 class regime is trivially
/// PTIME), but a large `cc_vertex` still drives the product search through
/// the PSPACE-hard configuration space, and the budget should anticipate
/// that.
const BUDGET_CC_THRESHOLD: usize = 3;
/// Treewidth threshold for the NP-ish default budget (see
/// [`BUDGET_CC_THRESHOLD`]).
const BUDGET_TW_THRESHOLD: usize = 4;

/// The regime used for *budget* selection: measures at or above the
/// thresholds count as unbounded, so a concrete query with a wide merged
/// component is budgeted like a PSPACE-regime class member even though its
/// own class is formally PTIME.
pub fn budget_regime(measures: &QueryMeasures) -> CombinedRegime {
    let bounds = ClassBounds {
        cc_vertex: (measures.cc_vertex < BUDGET_CC_THRESHOLD).then_some(measures.cc_vertex),
        cc_hedge: (measures.cc_hedge < BUDGET_CC_THRESHOLD).then_some(measures.cc_hedge),
        treewidth: (measures.treewidth < BUDGET_TW_THRESHOLD).then_some(measures.treewidth),
    };
    combined_regime(&bounds)
}

/// The default [`ResourceBudget`] for a regime: generous where evaluation
/// is tractable, tight where the search space is exponential and a runaway
/// query would otherwise monopolize the engine.
pub fn regime_budget(regime: CombinedRegime) -> ResourceBudget {
    match regime {
        CombinedRegime::PolynomialTime => {
            ResourceBudget::unlimited().with_max_configurations(1_000_000_000)
        }
        CombinedRegime::NpComplete => ResourceBudget::unlimited()
            .with_max_configurations(100_000_000)
            .with_deadline(Duration::from_secs(10)),
        CombinedRegime::PspaceComplete => ResourceBudget::unlimited()
            .with_max_configurations(10_000_000)
            .with_deadline(Duration::from_secs(2)),
    }
}

/// Evaluation strategies the planner can pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Lemma 4.3 materialization + tree-decomposition CQ evaluation (the
    /// tractable pipeline of Theorem 3.2(3)).
    CqTreedec,
    /// Yannakakis semijoin program over the join tree of the α-acyclic CQ
    /// reduction, followed by output-sensitive streaming enumeration —
    /// used when materialization is too large but the reduction is
    /// acyclic, so globally consistent domains are computable by two
    /// semijoin passes without materializing any relation.
    Yannakakis,
    /// Direct product search (the Prop. 2.2 algorithm) — used when
    /// materialization would be too large and the CQ reduction is cyclic
    /// (or a single merged atom, which the independent sweeps already
    /// handle optimally).
    DirectProduct,
}

/// A query evaluation plan: the product of the one compile step that
/// [`plan`], every `evaluate*`/`answers*` entry point and the query
/// service's plan cache build on, so the plan a caller inspects is the
/// plan that executes.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Measures of the query evaluation runs: the optimized form of the
    /// (minimized) query, or — when evaluation short-circuits — of the
    /// last form the compile step reached.
    pub measures: QueryMeasures,
    /// Combined regime of the class `{G : measures(G) ≤ measures}`.
    pub combined: CombinedRegime,
    /// Parameterized regime of that class.
    pub param: ParamRegime,
    /// The strategy chosen for this database size.
    pub strategy: Strategy,
    /// Estimated materialized tuples for the CQ pipeline.
    pub estimated_tuples: f64,
    /// The regime-derived default budget [`evaluate_governed`] and
    /// [`answers_governed`] fall back to when the caller's
    /// [`EvalOptions::budget`] is unlimited.
    pub default_budget: ResourceBudget,
    /// Static analysis of the query: an error-severity diagnostic proves
    /// the query unsatisfiable and [`evaluate`]/[`answers`] return their
    /// empty result without touching the database.
    pub analysis: Analysis,
    /// The GYO join tree of the CQ reduction, present exactly when
    /// [`Plan::strategy`] is [`Strategy::Yannakakis`]. Atom indices match
    /// the merged-atom indices of [`Plan::prepared`].
    pub join_tree: Option<JoinTree>,
    /// The verified regime-minimization result, present exactly when at
    /// least one rewrite step applied. When present, every other plan
    /// field ([`Plan::measures`], regimes, strategy, budget, join tree)
    /// describes the *minimized* query — the one evaluation runs.
    pub minimize: Option<Minimized>,
    /// The compiled query, `None` when the analyzer or the optimizer
    /// proved it unsatisfiable (evaluation returns the empty result
    /// without touching the database).
    pub prepared: Option<PreparedQuery>,
    /// The text the query was parsed from, for caret rendering in
    /// [`Plan::explain`] (`None` for programmatic queries).
    source: Option<String>,
}

impl Plan {
    /// A human-readable account of the plan: measures, regimes, chosen
    /// strategy and the reasoning behind it.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "measures: cc_vertex={}, cc_hedge={}, tw(G^node)={}\n",
            self.measures.cc_vertex, self.measures.cc_hedge, self.measures.treewidth
        ));
        out.push_str(&format!(
            "class regimes (Thm 3.2 / Thm 3.1): {} / {}\n",
            self.combined, self.param
        ));
        out.push_str(&format!(
            "default budget ({} regime): {}\n",
            budget_regime(&self.measures),
            self.default_budget
        ));
        match self.strategy {
            Strategy::CqTreedec => out.push_str(&format!(
                "strategy: Lemma 4.1 merge → Lemma 4.3 materialization (≈{:.1e} tuples) → tree-decomposition CQ evaluation\n",
                self.estimated_tuples
            )),
            Strategy::Yannakakis => out.push_str(&format!(
                "strategy: Yannakakis semijoin program on the acyclic CQ reduction (materialization of ≈{:.1e} tuples over budget) → streaming enumeration\n",
                self.estimated_tuples
            )),
            Strategy::DirectProduct => out.push_str(&format!(
                "strategy: direct product search (materialization of ≈{:.1e} tuples over budget)\n",
                self.estimated_tuples
            )),
        }
        if let Some(tree) = &self.join_tree {
            out.push_str(&format!("join tree (merged-atom arcs): {}\n", tree.arcs()));
        }
        if let Some(m) = &self.minimize {
            for s in &m.steps {
                out.push_str(&format!("rewrite: {} — {}\n", s.kind, s.detail));
            }
            out.push_str(&format!(
                "rewrote {} → {} (minimizer: {} verified step(s))\n",
                m.before_class,
                m.after_class,
                m.steps.len()
            ));
        }
        for d in &self.analysis.diagnostics {
            if d.code == Code::SubsumedAtom {
                out.push_str(&format!(
                    "rewrite: {} — atom dropped before evaluation\n",
                    d.message
                ));
            }
        }
        if self.analysis.has_errors() {
            out.push_str(
                "analysis: unsatisfiable — evaluation short-circuits to the empty answer set\n",
            );
        }
        for d in &self.analysis.diagnostics {
            out.push_str(&render_diagnostic(d, self.source.as_deref()));
        }
        out
    }

    /// [`Plan::explain`] followed by the per-phase summary of a traced run
    /// (see [`answers_traced`], whose [`Outcome::metrics`] supplies the
    /// argument).
    pub fn explain_traced(&self, metrics: &Metrics) -> String {
        let mut out = self.explain();
        out.push_str("phase summary:\n");
        out.push_str(&render_phase_table(metrics));
        out
    }
}

/// Builds a plan for evaluating `query` on `db`: the compile step
/// without a tracer. The plan carries a full static [`Analysis`]; error-severity
/// diagnostics make [`evaluate`] and [`answers`] return their empty
/// result without entering the product search, and warnings surface in
/// [`Plan::explain`].
pub fn plan(db: &GraphDb, query: &Ecrpq) -> Plan {
    compile(db, query, &NoopTracer)
}

/// The compile step: analyzer gate → verified minimization (timed under
/// [`Phase::Minimize`] on `tracer`) → [`crate::optimize::optimize`] →
/// measures and regimes → strategy selection → [`PreparedQuery::build`].
///
/// The minimizer runs once: the analyzer's W006/N001 check and the
/// rewrite evaluation runs on share one search
/// ([`ecrpq_analyze::analyze_minimizing`]).
pub(crate) fn compile<T: Tracer>(db: &GraphDb, query: &Ecrpq, tracer: &T) -> Plan {
    compile_with(db, query, true, tracer)
}

/// [`compile`] with the minimized form optionally left unused (the
/// analyzer still searches, for its diagnostics).
fn compile_with<T: Tracer>(db: &GraphDb, query: &Ecrpq, run_minimizer: bool, tracer: &T) -> Plan {
    let cfg = AnalyzerConfig::default();
    let search = |q: &Ecrpq, cfg: &AnalyzerConfig| {
        let span = PhaseSpan::start(tracer, Phase::Minimize);
        let m = minimize_with(q, cfg);
        tracer.count(Phase::Minimize, m.steps.len() as u64);
        span.finish(tracer);
        m
    };
    let (analysis, searched) = analyze_minimizing(query, &cfg, search);
    let valid = !analysis.has_errors();
    // the analyzer also skips its search after a budget note of the
    // contradiction check, which is no error
    let minimized = match searched {
        Some(m) => run_minimizer.then_some(m),
        None => (valid && run_minimizer).then(|| search(query, &cfg)),
    }
    .filter(|m| !m.steps.is_empty());
    let effective = minimized.as_ref().map_or(query, |m| &m.query);
    let optimized = valid
        .then(|| {
            // lint:allow(unwrap): validation errors were caught by the analyzer gate
            match crate::optimize::optimize(effective).expect("invalid query") {
                crate::optimize::Simplified::ConstFalse => None,
                crate::optimize::Simplified::Query(q) => Some(q),
            }
        })
        .flatten();
    let (run, measures) = match &optimized {
        Some(q) => (q, q.measures()),
        None => (
            effective,
            minimized.as_ref().map_or(analysis.measures, |m| m.after),
        ),
    };
    let bounds = ClassBounds {
        cc_vertex: Some(measures.cc_vertex),
        cc_hedge: Some(measures.cc_hedge),
        treewidth: Some(measures.treewidth),
    };
    let (strategy, estimated_tuples, join_tree) = choose_strategy(db, run, &measures);
    // lint:allow(unwrap): the optimizer only emits valid queries
    let prepared = optimized.map(|q| PreparedQuery::build(&q).expect("invalid query"));
    Plan {
        measures,
        combined: combined_regime(&bounds),
        param: param_regime(&bounds),
        strategy,
        estimated_tuples,
        default_budget: regime_budget(budget_regime(&measures)),
        analysis,
        join_tree,
        minimize: minimized,
        prepared,
        source: query.source().map(str::to_owned),
    }
}

/// Strategy selection: the CQ pipeline materializes ≈ `|V|^{2k}` tuples
/// per component — affordable under the tuple budget (the Theorem 3.2(3)
/// pipeline). Over budget, structure decides: an α-acyclic CQ reduction
/// with at least two merged atoms gets the Yannakakis semijoin program
/// with streaming enumeration, everything else the direct product search.
fn choose_strategy(
    db: &GraphDb,
    query: &Ecrpq,
    measures: &QueryMeasures,
) -> (Strategy, f64, Option<JoinTree>) {
    const TUPLE_BUDGET: f64 = 5e7;
    let nv = db.num_nodes().max(1) as f64;
    let estimated_tuples = nv.powi(2 * measures.cc_vertex.max(1) as i32);
    if estimated_tuples <= TUPLE_BUDGET {
        return (Strategy::CqTreedec, estimated_tuples, None);
    }
    let (strategy, tree) = large_db_plan(query);
    (strategy, estimated_tuples, tree)
}

/// The strategy the planner picks when the database is too large for the
/// Lemma 4.3 materialization, decided from the query structure alone
/// (no database needed): [`Strategy::Yannakakis`] when the CQ reduction
/// is α-acyclic with at least two merged atoms (a single atom gains
/// nothing over the independent semijoin sweeps), otherwise
/// [`Strategy::DirectProduct`].
pub fn large_db_strategy(query: &Ecrpq) -> Strategy {
    large_db_plan(query).0
}

/// [`large_db_strategy`] plus the join tree that licenses Yannakakis.
fn large_db_plan(query: &Ecrpq) -> (Strategy, Option<JoinTree>) {
    match ecrpq_analyze::acyclic_join_tree(query) {
        Some(tree) if tree.parent.len() >= 2 => (Strategy::Yannakakis, Some(tree)),
        _ => (Strategy::DirectProduct, None),
    }
}

/// `opts` with `default` installed when the caller's budget is unlimited:
/// the budget a regime-governed run ([`evaluate_governed`],
/// [`answers_governed`], the query service) actually uses.
pub(crate) fn with_default_budget(opts: &EvalOptions, default: ResourceBudget) -> EvalOptions {
    if opts.budget.is_unlimited() {
        opts.with_budget(default)
    } else {
        *opts
    }
}

/// The empty, complete outcome of a run the compile step short-circuited.
fn short_circuit<A>(answers: A) -> Outcome<A> {
    Outcome {
        answers,
        stats: ProductStats::default(),
        termination: Termination::Complete,
        metrics: None,
    }
}

/// Lazily-built evaluation state a cached plan reuses across executions:
/// the direct-product tables (one slot per [`crate::product::Layout`],
/// indexed by discriminant), the tree-driven Yannakakis tables and the
/// semijoin-reduced tree-decomposition instance of the Lemma 4.3
/// reduction. The tables are built ungoverned (see [`PreparedTables`]).
/// The reduced instance is built by the first request under that
/// request's governor and kept only if the governor did not stop, so a
/// warm request only walks it. The materialized relations it came from
/// are never kept, so each request whose build trips materializes again.
/// One-shot runs keep none of it and build governed instead.
#[derive(Default)]
pub(crate) struct PlanTables {
    product: [OnceLock<Arc<PreparedTables>>; 2],
    yannakakis: OnceLock<Arc<PreparedTables>>,
    cq: OnceLock<ReducedCq>,
}

/// Runs the compiled strategy for its answer set: the one place that maps
/// a [`Strategy`] onto the governed engine. With `reuse`, tables and the
/// reduced CQ instance come from (and are cached in) the plan's
/// [`PlanTables`], and `opts.budget` covers the search and the walk only
/// (plus the reduced instance's build, on the request that makes it);
/// without it they are built for this run under the same governor as the
/// search.
pub(crate) fn run_answers<T: Tracer>(
    db: &GraphDb,
    strategy: Strategy,
    prepared: Option<&PreparedQuery>,
    join_tree: Option<&JoinTree>,
    reuse: Option<&PlanTables>,
    opts: &EvalOptions,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<NodeId>>> {
    let Some(prepared) = prepared else {
        return short_circuit(BTreeSet::new());
    };
    match strategy {
        Strategy::CqTreedec => {
            let threads = opts.effective_threads();
            let build = |governor: Option<&Governor>| {
                let (cq, rdb, _) = ecrpq_to_cq(db, prepared);
                ReducedCq::build_governed(&rdb, &cq, threads, governor, tracer)
            };
            let fresh = OnceLock::new();
            let slot = reuse.map_or(&fresh, |r| &r.cq);
            engine::answers_reduced_cq_traced(slot, build, opts, tracer)
        }
        Strategy::Yannakakis => {
            // lint:allow(unwrap): Yannakakis is only chosen with a tree
            let tree = join_tree.expect("join tree");
            match reuse {
                Some(r) => {
                    let tables = r.yannakakis.get_or_init(|| {
                        Arc::new(PreparedTables::build_for_tree(db, prepared, tree))
                    });
                    engine::answers_yannakakis_governed_prepared_traced(
                        db, prepared, tables, opts, tracer,
                    )
                }
                None => {
                    engine::answers_yannakakis_governed_traced(db, prepared, tree, opts, tracer)
                }
            }
        }
        Strategy::DirectProduct => match reuse {
            Some(r) => {
                let tables = r.product[opts.layout as usize]
                    .get_or_init(|| Arc::new(PreparedTables::build(db, prepared, opts.layout)));
                engine::answers_product_governed_prepared_traced(db, prepared, tables, opts, tracer)
            }
            None => engine::answers_product_governed_traced(db, prepared, opts, tracer),
        },
    }
}

/// Runs the compiled strategy as a Boolean query: the Boolean
/// counterpart of [`run_answers`] for one-shot runs.
fn run_boolean(db: &GraphDb, plan: &Plan, opts: &EvalOptions) -> Outcome<bool> {
    let Some(prepared) = &plan.prepared else {
        return short_circuit(false);
    };
    match plan.strategy {
        Strategy::CqTreedec => {
            let (cq, rdb, _) = ecrpq_to_cq(db, prepared);
            engine::eval_cq_treedec_governed(&rdb, &cq, opts)
        }
        Strategy::Yannakakis => {
            // lint:allow(unwrap): Yannakakis is only chosen with a tree
            let tree = plan.join_tree.as_ref().expect("join tree");
            engine::eval_yannakakis_governed(db, prepared, tree, opts)
        }
        Strategy::DirectProduct => engine::eval_product_governed(db, prepared, opts),
    }
}

/// [`run_answers`] for a one-shot plan: tables are built for this run.
fn run_plan<T: Tracer>(
    db: &GraphDb,
    plan: &Plan,
    opts: &EvalOptions,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<NodeId>>> {
    let (prepared, tree) = (plan.prepared.as_ref(), plan.join_tree.as_ref());
    run_answers(db, plan.strategy, prepared, tree, None, opts, tracer)
}

/// Evaluates a Boolean ECRPQ: compiles it (analyzer errors and a
/// constant-false rewrite short-circuit to `false`) and runs the chosen
/// strategy sequentially and unbudgeted. Invalid queries are caught by
/// the analyzer (arity or track mismatches are error diagnostics) and
/// evaluate to `false`.
///
/// # Panics
/// Panics if the query's alphabet disagrees with `db`.
pub fn evaluate(db: &GraphDb, query: &Ecrpq) -> bool {
    evaluate_with_stats(db, query).0
}

/// As [`evaluate`], also returning the work counters. When the analyzer
/// proves the query unsatisfiable (or the rewrite reduces it to constant
/// false) the counters are all zero: no product configuration is ever
/// expanded.
pub fn evaluate_with_stats(db: &GraphDb, query: &Ecrpq) -> (bool, ProductStats) {
    let o = run_boolean(db, &plan(db, query), &EvalOptions::sequential());
    (o.answers, o.stats)
}

/// Evaluates a Boolean UECRPQ: true iff some disjunct holds (the paper's
/// closing remark — unions evaluate disjunct-wise, preserving the
/// characterization).
pub fn evaluate_union(db: &GraphDb, query: &ecrpq_query::Uecrpq) -> bool {
    query.disjuncts().iter().any(|q| evaluate(db, q))
}

/// All answers of a UECRPQ: the union of the disjuncts' answer sets.
///
/// # Panics
/// Panics if the disjuncts disagree on answer arity (use
/// [`ecrpq_query::Uecrpq::validate`]).
pub fn answers_union(db: &GraphDb, query: &ecrpq_query::Uecrpq) -> BTreeSet<Vec<NodeId>> {
    // lint:allow(unwrap): documented panic: disjuncts must agree on arity
    query.validate().expect("valid union");
    let mut out = BTreeSet::new();
    for q in query.disjuncts() {
        out.extend(answers(db, q));
    }
    out
}

/// Computes all answers of an ECRPQ with free variables: compiles it
/// (analyzer errors short-circuit to the empty set) and enumerates with
/// the chosen strategy, sequentially and unbudgeted.
pub fn answers(db: &GraphDb, query: &Ecrpq) -> BTreeSet<Vec<NodeId>> {
    answers_with_stats(db, query).0
}

/// As [`answers`], also returning the work counters (all zero when the
/// analyzer or rewrite short-circuits).
pub fn answers_with_stats(db: &GraphDb, query: &Ecrpq) -> (BTreeSet<Vec<NodeId>>, ProductStats) {
    let p = plan(db, query);
    let o = run_plan(db, &p, &EvalOptions::sequential(), &NoopTracer);
    (o.answers, o.stats)
}

/// [`answers`] with the regime-minimization step disabled: the baseline
/// the E21 experiment (and the differential suite) compares against. The
/// answer set is identical — minimization only applies rewrites verified
/// equivalent both ways — but the regime, and therefore the cost, may
/// differ dramatically.
pub fn answers_without_minimize(db: &GraphDb, query: &Ecrpq) -> BTreeSet<Vec<NodeId>> {
    let p = compile_with(db, query, false, &NoopTracer);
    run_plan(db, &p, &EvalOptions::sequential(), &NoopTracer).answers
}

/// Resource-governed [`evaluate`]: same compile step, but the evaluation
/// runs under [`EvalOptions::budget`] — or, when that is unlimited, under
/// the regime-derived default of [`Plan::default_budget`]. A `true`
/// answer is always definitive; `false` with a non-complete
/// [`Outcome::termination`] means "not proven satisfiable within budget".
pub fn evaluate_governed(db: &GraphDb, query: &Ecrpq, opts: &EvalOptions) -> Outcome<bool> {
    let p = plan(db, query);
    run_boolean(db, &p, &with_default_budget(opts, p.default_budget))
}

/// Resource-governed [`answers`]: the returned set is a subset of the
/// unbudgeted answers, bit-identical when [`Outcome::termination`] is
/// [`Termination::Complete`]. Falls back to the regime default budget as
/// [`evaluate_governed`] does.
pub fn answers_governed(
    db: &GraphDb,
    query: &Ecrpq,
    opts: &EvalOptions,
) -> Outcome<BTreeSet<Vec<NodeId>>> {
    answers_governed_with_tracer(db, query, opts, &NoopTracer)
}

/// The governed planner pipeline with an explicit [`Tracer`]. With
/// [`NoopTracer`] this is exactly [`answers_governed`]; pass a
/// [`CollectingTracer`] (or use [`answers_traced`]) to get the per-phase
/// split of the run the planner actually chose.
pub fn answers_governed_with_tracer<T: Tracer>(
    db: &GraphDb,
    query: &Ecrpq,
    opts: &EvalOptions,
    tracer: &T,
) -> Outcome<BTreeSet<Vec<NodeId>>> {
    let p = compile(db, query, tracer);
    run_plan(db, &p, &with_default_budget(opts, p.default_budget), tracer)
}

/// [`answers_governed`] with observability: runs the chosen strategy under
/// a [`CollectingTracer`] and folds the per-worker counters into
/// [`Outcome::metrics`] (always `Some` on this entry point). Render the
/// result with [`Plan::explain_traced`] or
/// [`crate::trace::render_phase_table`].
pub fn answers_traced(
    db: &GraphDb,
    query: &Ecrpq,
    opts: &EvalOptions,
) -> Outcome<BTreeSet<Vec<NodeId>>> {
    let tracer = CollectingTracer::new();
    let mut outcome = answers_governed_with_tracer(db, query, opts, &tracer);
    outcome.metrics = Some(tracer.metrics());
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq_eval::eval_cq_treedec;
    use ecrpq_automata::relations;
    use std::sync::Arc;

    #[test]
    fn theorem_3_2_cases() {
        let b = |v: Option<usize>, h: Option<usize>, t: Option<usize>| ClassBounds {
            cc_vertex: v,
            cc_hedge: h,
            treewidth: t,
        };
        assert_eq!(
            combined_regime(&b(None, Some(1), Some(1))),
            CombinedRegime::PspaceComplete
        );
        assert_eq!(
            combined_regime(&b(Some(2), None, Some(1))),
            CombinedRegime::PspaceComplete
        );
        assert_eq!(
            combined_regime(&b(Some(2), Some(2), None)),
            CombinedRegime::NpComplete
        );
        assert_eq!(
            combined_regime(&b(Some(2), Some(2), Some(3))),
            CombinedRegime::PolynomialTime
        );
    }

    #[test]
    fn theorem_3_1_cases() {
        let b = |v: Option<usize>, h: Option<usize>, t: Option<usize>| ClassBounds {
            cc_vertex: v,
            cc_hedge: h,
            treewidth: t,
        };
        assert_eq!(param_regime(&b(None, None, None)), ParamRegime::XnlComplete);
        // note: cc_hedge is irrelevant for the parameterized case
        assert_eq!(
            param_regime(&b(Some(1), None, None)),
            ParamRegime::W1Complete
        );
        assert_eq!(param_regime(&b(Some(1), None, Some(2))), ParamRegime::Fpt);
    }

    fn small_db_and_query() -> (GraphDb, Ecrpq) {
        let mut db = GraphDb::new();
        let u = db.add_node("u");
        let v = db.add_node("v");
        let w = db.add_node("w");
        db.add_edge(u, 'a', v);
        db.add_edge(v, 'a', w);
        db.add_edge(u, 'b', w);
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(x, "p2", y);
        q.rel_atom(
            "eq_len",
            Arc::new(relations::eq_length(2, db.alphabet().len())),
            &[p1, p2],
        );
        (db, q)
    }

    #[test]
    fn planner_picks_cq_for_small_instances() {
        let (db, q) = small_db_and_query();
        let p = plan(&db, &q);
        assert_eq!(p.strategy, Strategy::CqTreedec);
        assert_eq!(p.combined, CombinedRegime::PolynomialTime);
        assert_eq!(p.param, ParamRegime::Fpt);
        assert!(evaluate(&db, &q));
    }

    #[test]
    fn strategies_agree() {
        let (db, q) = small_db_and_query();
        let prepared = PreparedQuery::build(&q).unwrap();
        let direct = crate::product::eval_product(&db, &prepared);
        let (cq, rdb, _) = ecrpq_to_cq(&db, &prepared);
        let via_cq = eval_cq_treedec(&rdb, &cq);
        assert_eq!(direct, via_cq);
        assert!(direct);
    }

    #[test]
    fn answers_via_planner() {
        let (db, mut q) = small_db_and_query();
        let x = q.node_var("x");
        let y = q.node_var("y");
        q.set_free(&[x, y]);
        let a = answers(&db, &q);
        // eq-len pairs: (u,w) via aa/b? lengths 2 vs 1 — no, but p1=p2 both
        // 'aa' works; every (v,v) via empty paths; (u,v) both length-1? only
        // one edge u→v, p1=p2='a' works.
        assert!(a.contains(&vec![0, 0]));
        assert!(a.contains(&vec![0, 2])); // both paths 'aa', or 'b'&'b'
        assert!(a.contains(&vec![0, 1]));
        assert!(!a.contains(&vec![2, 0])); // w has no outgoing edges
    }

    #[test]
    fn explain_mentions_all_parts() {
        let (db, q) = small_db_and_query();
        let p = plan(&db, &q);
        let text = p.explain();
        assert!(text.contains("cc_vertex=2"));
        assert!(text.contains("PTIME"));
        assert!(text.contains("FPT"));
        assert!(text.contains("tree-decomposition"));
    }

    #[test]
    fn analyzer_error_short_circuits_evaluation() {
        let (db, _) = small_db_and_query();
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(x, "p2", y);
        let empty = relations::universal(2, 2).complement();
        q.rel_atom("never", Arc::new(empty), &[p1, p2]);
        q.set_free(&[x, y]);
        let p = plan(&db, &q);
        assert!(p.analysis.has_errors());
        assert!(p.explain().contains("unsatisfiable"), "{}", p.explain());
        assert!(p.explain().contains("error[E001]"), "{}", p.explain());
        let (sat, stats) = evaluate_with_stats(&db, &q);
        assert!(!sat);
        assert_eq!(stats.configurations, 0);
        assert_eq!(stats.checks, 0);
        assert_eq!(stats.assignments, 0);
        let (ans, astats) = answers_with_stats(&db, &q);
        assert!(ans.is_empty());
        assert_eq!(astats, ProductStats::default());
    }

    #[test]
    fn explain_renders_analyzer_warnings() {
        // two disconnected path atoms → W001; both unconstrained → W004
        let mut db = GraphDb::new();
        let u = db.add_node("u");
        let v = db.add_node("v");
        db.add_edge(u, 'a', v);
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let w = q.node_var("w");
        q.path_atom(x, "p", y);
        q.path_atom(z, "r", w);
        let text = plan(&db, &q).explain();
        assert!(text.contains("warning[W001]"), "{text}");
        assert!(text.contains("warning[W004]"), "{text}");
        assert!(evaluate(&db, &q)); // warnings never change the answer
    }

    #[test]
    fn union_evaluation() {
        let (db, q) = small_db_and_query();
        // disjunct 1: unsatisfiable (needs label 'c'-free... make word bb)
        let mut q1 = Ecrpq::new(db.alphabet().clone());
        let x = q1.node_var("x");
        let y = q1.node_var("y");
        let p = q1.path_atom(x, "p", y);
        q1.rel_atom(
            "bb",
            Arc::new(relations::word_relation(&[1, 1], db.alphabet().len())),
            &[p],
        );
        assert!(!evaluate(&db, &q1));
        let union = ecrpq_query::Uecrpq::from_disjuncts(vec![q1.clone(), q.clone()]);
        assert!(evaluate_union(&db, &union));
        let empty_union = ecrpq_query::Uecrpq::new();
        assert!(!evaluate_union(&db, &empty_union));
        // answers union
        let mut qa = q.clone();
        let x = qa.node_var("x");
        qa.set_free(&[x]);
        let mut qb = q1.clone();
        let x1 = qb.node_var("x");
        qb.set_free(&[x1]);
        let u = ecrpq_query::Uecrpq::from_disjuncts(vec![qa.clone(), qb]);
        assert_eq!(answers_union(&db, &u), answers(&db, &qa));
    }

    /// A 100-node chain with a query whose CQ reduction has hyperedges
    /// `{x,y}` (eq-length–merged pair) and `{y,z}` (unary atom):
    /// `cc_vertex = 2`, so 100⁴ = 1e8 tuples is over budget, and the
    /// reduction is α-acyclic with two merged atoms. The alphabet has two
    /// letters so `eq_len` is *not* equality and the regime minimizer
    /// leaves the component intact.
    fn chain_db_acyclic_query() -> (GraphDb, Ecrpq) {
        let mut db = GraphDb::new();
        let nodes: Vec<_> = (0..100).map(|i| db.add_node(&format!("n{i}"))).collect();
        for i in 1..100 {
            db.add_edge(nodes[i - 1], 'a', nodes[i]);
        }
        db.add_edge(nodes[0], 'b', nodes[0]);
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(x, "p2", y);
        let r = q.path_atom(y, "r", z);
        q.rel_atom(
            "eq_len",
            Arc::new(relations::eq_length(2, db.alphabet().len())),
            &[p1, p2],
        );
        q.rel_atom(
            "a",
            Arc::new(relations::word_relation(&[0], db.alphabet().len())),
            &[r],
        );
        q.set_free(&[x, z]);
        (db, q)
    }

    #[test]
    fn acyclic_over_budget_picks_yannakakis() {
        let (db, q) = chain_db_acyclic_query();
        let p = plan(&db, &q);
        assert_eq!(p.strategy, Strategy::Yannakakis);
        let tree = p.join_tree.as_ref().expect("join tree on the plan");
        assert_eq!(tree.parent.len(), 2);
        assert!(p.explain().contains("Yannakakis"), "{}", p.explain());
        assert!(p.explain().contains("join tree"), "{}", p.explain());
    }

    #[test]
    fn yannakakis_answers_match_direct_product() {
        let (db, q) = chain_db_acyclic_query();
        let prepared = PreparedQuery::build(&q).unwrap();
        let direct = crate::product::answers_product(&db, &prepared);
        assert!(!direct.is_empty());
        assert_eq!(answers(&db, &q), direct);
        assert!(evaluate(&db, &q));
    }

    #[test]
    fn large_db_strategy_follows_acyclicity() {
        let (_, acyclic) = chain_db_acyclic_query();
        assert_eq!(large_db_strategy(&acyclic), Strategy::Yannakakis);
        // cyclic reduction: three unary-constrained atoms closing a triangle
        let mut q = Ecrpq::new(acyclic.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let p = q.path_atom(x, "p", y);
        let r = q.path_atom(y, "r", z);
        let s = q.path_atom(z, "s", x);
        let w = Arc::new(relations::word_relation(&[0], 1));
        q.rel_atom("lp", w.clone(), &[p]);
        q.rel_atom("lr", w.clone(), &[r]);
        q.rel_atom("ls", w, &[s]);
        assert_eq!(large_db_strategy(&q), Strategy::DirectProduct);
        // single merged atom: trivially acyclic, but the tree has one
        // node — the independent sweeps already do the whole job
        let (_, single) = small_db_and_query();
        assert_eq!(large_db_strategy(&single), Strategy::DirectProduct);
    }

    #[test]
    fn explain_notes_subsumption_rewrite() {
        let mut db = GraphDb::new();
        let u = db.add_node("u");
        let v = db.add_node("v");
        db.add_edge(u, 'a', v);
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(x, "p2", y);
        q.set_free(&[x, y]);
        let n = db.alphabet().len();
        q.rel_atom("eq", Arc::new(relations::equality(n)), &[p1, p2]);
        q.rel_atom("el", Arc::new(relations::eq_length(2, n)), &[p1, p2]);
        let text = plan(&db, &q).explain();
        assert!(text.contains("rewrite:"), "{text}");
        assert!(text.contains("subsumed"), "{text}");
    }

    /// Counts the spans a compile opens per phase.
    #[derive(Clone, Default)]
    struct SpanCounter(Arc<std::sync::Mutex<Vec<Phase>>>);

    impl Tracer for SpanCounter {
        const ENABLED: bool = true;
        fn fork_worker(&self) -> Self {
            self.clone()
        }
        fn count(&self, _: Phase, _: u64) {}
        fn prune(&self, _: Phase, _: u64) {}
        fn frontier(&self, _: Phase, _: u64) {}
        fn governor_check(&self, _: Phase, _: u64) {}
        fn governor_abort(&self, _: Phase) {}
        fn time(&self, phase: Phase, _: u64) {
            self.0.lock().unwrap().push(phase);
        }
        fn sample(&self, _: Phase, _: u64) {}
    }

    #[test]
    fn compile_runs_the_minimizer_once() {
        let mut db = GraphDb::new();
        let u = db.add_node("u");
        let v = db.add_node("v");
        db.add_edge(u, 'a', v);
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(x, "p2", y);
        q.set_free(&[x, y]);
        let n = db.alphabet().len();
        q.rel_atom("eq", Arc::new(relations::equality(n)), &[p1, p2]);
        q.rel_atom("el", Arc::new(relations::eq_length(2, n)), &[p1, p2]);
        let spans = SpanCounter::default();
        let p = compile(&db, &q, &spans);
        let minimize_spans = spans
            .0
            .lock()
            .unwrap()
            .iter()
            .filter(|&&ph| ph == Phase::Minimize)
            .count();
        assert_eq!(minimize_spans, 1);
        let reference = ecrpq_analyze::minimize(&q);
        assert!(!reference.steps.is_empty());
        assert_eq!(
            format!("{:?}", p.minimize),
            format!("{:?}", Some(reference))
        );
        assert_eq!(
            format!("{:?}", p.analysis),
            format!("{:?}", ecrpq_analyze::analyze(&q))
        );
    }

    #[test]
    fn big_component_forces_direct_product() {
        // a query whose single component has 4 path variables on a larger db
        let mut db = GraphDb::new();
        let nodes: Vec<_> = (0..40).map(|i| db.add_node(&format!("n{i}"))).collect();
        for i in 1..40 {
            db.add_edge(nodes[i - 1], 'a', nodes[i]);
        }
        let mut q = Ecrpq::new(db.alphabet().clone());
        let vars: Vec<_> = (0..5).map(|i| q.node_var(&format!("x{i}"))).collect();
        let ps: Vec<_> = (0..4)
            .map(|i| q.path_atom(vars[i], &format!("p{i}"), vars[i + 1]))
            .collect();
        q.rel_atom(
            "eq_len",
            Arc::new(relations::eq_length(4, db.alphabet().len())),
            &ps,
        );
        let p = plan(&db, &q);
        // 40^8 = 6.5e12 tuples — way over budget
        assert_eq!(p.strategy, Strategy::DirectProduct);
        assert!(evaluate(&db, &q));
    }
}
