#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Static analysis of ECRPQs.
//!
//! The paper's headline theorems (3.1 and 3.2) say that three *static*
//! measures of a query — `cc_vertex`, `cc_hedge` and the treewidth of
//! `G^node` — fully determine its evaluation complexity. This crate turns
//! that observation into a compiler-style front-end: [`analyze`] computes
//! the measures of a query's normalized abstraction (reusing
//! `ecrpq-structure`), classifies the query into the complexity regimes of
//! both theorems, and emits [`Diagnostic`]s with severities and source
//! [`Span`]s.
//!
//! *Errors* are conditions under which evaluation is pointless or
//! ill-defined: a relation atom whose synchronous language is empty (the
//! query is unsatisfiable on every database), arity/track mismatches, and
//! out-of-range free variables. The planner (`ecrpq-core`) consults the
//! analysis and short-circuits `evaluate`/`answers` to the empty result on
//! any error, without entering the product search.
//!
//! *Warnings* flag structure that is legal but expensive or suspicious:
//! disconnected queries (answer sets multiply into a cartesian product),
//! `cc_vertex`/`cc_hedge` beyond the configured thresholds (the
//! PSPACE-complete regime of Theorem 3.2(1), with a suggested split),
//! path variables constrained by no relation atom, and relation atoms
//! subsumed by another atom over the same arguments (checked by language
//! inclusion on the synchronous-relation automata).
//!
//! Diagnostics render rustc-style with carets when the query was parsed
//! from text ([`Analysis::render`]).

pub mod acyclic;
pub mod minimize;
mod render;

pub use acyclic::{acyclic_join_tree, cq_hyperedges, gyo_join_tree, JoinTree};
pub use minimize::{fix_source, minimize, minimize_with, AppliedStep, Minimized, StepKind};

use ecrpq_query::{Ecrpq, QueryMeasures, Span};
use ecrpq_structure::{treewidth_exact, treewidth_upper_bound};
use std::fmt;

/// Language-inclusion and intersection checks (W005 subsumption, the
/// minimizer's containment verification, `core::optimize` rewrites) are
/// skipped when either automaton has more states than this — the check
/// complements one side, which determinizes. One shared source of truth so
/// the analyzer and the rewriter can never drift.
pub const INCLUSION_STATE_BUDGET: usize = 48;

/// Inclusion checks are skipped above this relation arity (the row
/// alphabet is `(|A|+1)^arity`). Shared with `core::optimize`.
pub const INCLUSION_ARITY_BUDGET: usize = 3;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The query cannot (or should not) be evaluated.
    Error,
    /// The query is legal but structurally expensive or suspicious.
    Warning,
    /// Informational: a check was skipped or an opportunity exists.
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
            Severity::Note => write!(f, "note"),
        }
    }
}

/// Stable diagnostic codes, one per check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// A relation atom's synchronous language is empty.
    EmptyLanguage,
    /// A relation atom's argument count differs from its relation's arity.
    ArityMismatch,
    /// A relation atom repeats a path variable.
    RepeatedPathVar,
    /// A relation atom's tracks are over a different alphabet than the
    /// query's.
    TrackAlphabetMismatch,
    /// A free variable is out of range.
    UnknownFreeVar,
    /// The unary (language) atoms on one path variable intersect to the
    /// empty language.
    ContradictoryUnaries,
    /// The query body is disconnected.
    Disconnected,
    /// `cc_vertex` exceeds the configured threshold.
    CcVertexOverThreshold,
    /// `cc_hedge` exceeds the configured threshold.
    CcHedgeOverThreshold,
    /// A path variable is constrained by no relation atom.
    UnconstrainedPathVar,
    /// A relation atom is implied by another atom on the same arguments.
    SubsumedAtom,
    /// The query is equivalent to a rewrite in the PTIME regime (the
    /// minimizer found a verified rewrite sequence).
    MinimizableQuery,
    /// A budget-guarded check was skipped: the report may be incomplete.
    CheckSkippedBudget,
}

impl Code {
    /// The `E…`/`W…`/`N…` code rendered in diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::EmptyLanguage => "E001",
            Code::ArityMismatch => "E002",
            Code::RepeatedPathVar => "E003",
            Code::TrackAlphabetMismatch => "E004",
            Code::UnknownFreeVar => "E005",
            Code::ContradictoryUnaries => "E006",
            Code::Disconnected => "W001",
            Code::CcVertexOverThreshold => "W002",
            Code::CcHedgeOverThreshold => "W003",
            Code::UnconstrainedPathVar => "W004",
            Code::SubsumedAtom => "W005",
            Code::MinimizableQuery => "W006",
            Code::CheckSkippedBudget => "N001",
        }
    }

    /// The severity this code always carries.
    pub fn severity(self) -> Severity {
        if self.as_str().starts_with('E') {
            Severity::Error
        } else if self.as_str().starts_with('N') {
            Severity::Note
        } else {
            Severity::Warning
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// The stable code of the originating check.
    pub code: Code,
    /// Primary message.
    pub message: String,
    /// Source span the message points at, when the query was parsed.
    pub span: Option<Span>,
    /// Secondary `note:` lines.
    pub notes: Vec<String>,
    /// Machine-applicable replacement for the spanned source line (the
    /// rewritten query text of W006); rendered as a `help:` line and
    /// applied by `analyze --fix`.
    pub suggestion: Option<String>,
}

/// The combined-complexity classification of a single query under the
/// analyzer's thresholds (the analogue of `planner::CombinedRegime`,
/// recomputed independently so the two can be differential-tested).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinedClass {
    /// All three measures within thresholds: Theorem 3.2(3), PTIME.
    PolynomialTime,
    /// Components within thresholds, treewidth over: Theorem 3.2(2), NP.
    NpComplete,
    /// `cc_vertex` or `cc_hedge` over threshold: Theorem 3.2(1), PSPACE.
    PspaceComplete,
}

/// The parameterized classification (the analogue of
/// `planner::ParamRegime`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamClass {
    /// `cc_vertex` and treewidth within thresholds: Theorem 3.1(3), FPT.
    Fpt,
    /// Treewidth over threshold: Theorem 3.1(2), W\[1\]-complete.
    W1Complete,
    /// `cc_vertex` over threshold: Theorem 3.1(1), XNL-complete.
    XnlComplete,
}

impl fmt::Display for CombinedClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CombinedClass::PolynomialTime => write!(f, "PTIME"),
            CombinedClass::NpComplete => write!(f, "NP"),
            CombinedClass::PspaceComplete => write!(f, "PSPACE-complete"),
        }
    }
}

impl fmt::Display for ParamClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamClass::Fpt => write!(f, "FPT"),
            ParamClass::W1Complete => write!(f, "W[1]-complete"),
            ParamClass::XnlComplete => write!(f, "XNL-complete"),
        }
    }
}

/// Thresholds and budgets for [`analyze_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzerConfig {
    /// `cc_vertex` above this is treated as unbounded (PSPACE/XNL regime).
    pub cc_vertex_threshold: usize,
    /// `cc_hedge` above this is treated as unbounded (PSPACE regime).
    pub cc_hedge_threshold: usize,
    /// Treewidth of `G^node` above this is treated as unbounded (NP/W\[1\]).
    pub treewidth_threshold: usize,
    /// Language-inclusion (subsumption, W005) checks are skipped when
    /// either automaton has more states than this — the check complements
    /// one side, which determinizes.
    pub inclusion_state_budget: usize,
    /// Subsumption checks are skipped above this relation arity (the row
    /// alphabet is `(|A|+1)^arity`).
    pub inclusion_arity_budget: usize,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            cc_vertex_threshold: 3,
            cc_hedge_threshold: 3,
            treewidth_threshold: 2,
            inclusion_state_budget: INCLUSION_STATE_BUDGET,
            inclusion_arity_budget: INCLUSION_ARITY_BUDGET,
        }
    }
}

/// The result of analyzing one query.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Structural measures of the normalized abstraction.
    pub measures: QueryMeasures,
    /// Combined-complexity regime under the thresholds (Theorem 3.2).
    pub combined: CombinedClass,
    /// Parameterized regime under the thresholds (Theorem 3.1).
    pub param: ParamClass,
    /// Findings, errors first, then by source position.
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// Whether any error-severity diagnostic was emitted (the planner
    /// short-circuits evaluation in that case).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// The note-severity diagnostics (skipped checks, opportunities).
    pub fn notes(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Note)
    }

    /// Renders every diagnostic rustc-style. With `source` (the text the
    /// query was parsed from), spanned diagnostics show the offending line
    /// with a caret underline; without it only messages and notes print.
    pub fn render(&self, source: Option<&str>) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&render_diagnostic(d, source));
            out.push('\n');
        }
        out
    }

    /// One-line measures + regimes + counts summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "cc_vertex={} cc_hedge={} tw={} | combined: {} | param: {} | {} error(s), {} warning(s)",
            self.measures.cc_vertex,
            self.measures.cc_hedge,
            self.measures.treewidth,
            self.combined,
            self.param,
            self.errors().count(),
            self.warnings().count(),
        );
        let notes = self.notes().count();
        if notes > 0 {
            s.push_str(&format!(", {notes} note(s)"));
        }
        s
    }
}

/// Analyzes `query` under the default [`AnalyzerConfig`].
pub fn analyze(query: &Ecrpq) -> Analysis {
    analyze_with(query, &AnalyzerConfig::default())
}

/// Analyzes `query`: computes measures, classifies regimes, runs every
/// diagnostic check.
pub fn analyze_with(query: &Ecrpq, cfg: &AnalyzerConfig) -> Analysis {
    analyze_minimizing(query, cfg, minimize_with).0
}

/// [`analyze_with`], handing the regime minimization behind W006 and
/// N001 to the caller: `run` is called with `query` and `cfg` at most
/// once, only when no check found an error, and its result comes back
/// with the analysis. A caller that goes on to evaluate the minimized
/// form (the planner's compile step) so searches once, and can time the
/// search itself. With `run = minimize_with` the analysis is exactly
/// [`analyze_with`]'s.
pub fn analyze_minimizing(
    query: &Ecrpq,
    cfg: &AnalyzerConfig,
    run: impl FnOnce(&Ecrpq, &AnalyzerConfig) -> Minimized,
) -> (Analysis, Option<Minimized>) {
    let mut diags: Vec<Diagnostic> = Vec::new();

    check_validation(query, &mut diags);
    check_empty_languages(query, &mut diags);
    check_contradictory_unaries(query, cfg, &mut diags);
    let had_errors = !diags.is_empty();

    // Measures of the normalized abstraction — the same computation as
    // `Ecrpq::measures`, spelled out because the component structure is
    // also needed for the threshold warnings below.
    let normalized = query.normalized();
    let abstraction = normalized.abstraction();
    let node = abstraction.node_graph();
    let treewidth = if node.num_vertices() <= 64 {
        treewidth_exact(&node).0
    } else {
        treewidth_upper_bound(&node).0
    };
    let measures = QueryMeasures {
        cc_vertex: abstraction.cc_vertex(),
        cc_hedge: abstraction.cc_hedge(),
        treewidth,
    };

    check_disconnected(query, &node, &mut diags);
    check_thresholds(&normalized, &abstraction, &measures, cfg, &mut diags);
    check_unconstrained_paths(query, &mut diags);
    let minimized = (!had_errors).then(|| {
        check_subsumption(query, cfg, &mut diags);
        let m = run(query, cfg);
        check_minimizable(&m, cfg, &mut diags);
        m
    });

    diags.sort_by_key(|d| (d.severity, d.span.map_or(usize::MAX, |s| s.start), d.code));

    let analysis = Analysis {
        measures,
        combined: classify_combined(&measures, cfg),
        param: classify_param(&measures, cfg),
        diagnostics: diags,
    };
    (analysis, minimized)
}

/// Theorem 3.2, with "bounded" read as "within the configured threshold".
pub fn classify_combined(m: &QueryMeasures, cfg: &AnalyzerConfig) -> CombinedClass {
    if m.cc_vertex > cfg.cc_vertex_threshold || m.cc_hedge > cfg.cc_hedge_threshold {
        CombinedClass::PspaceComplete
    } else if m.treewidth > cfg.treewidth_threshold {
        CombinedClass::NpComplete
    } else {
        CombinedClass::PolynomialTime
    }
}

/// Theorem 3.1, with "bounded" read as "within the configured threshold".
pub fn classify_param(m: &QueryMeasures, cfg: &AnalyzerConfig) -> ParamClass {
    if m.cc_vertex > cfg.cc_vertex_threshold {
        ParamClass::XnlComplete
    } else if m.treewidth > cfg.treewidth_threshold {
        ParamClass::W1Complete
    } else {
        ParamClass::Fpt
    }
}

fn push(
    diags: &mut Vec<Diagnostic>,
    code: Code,
    span: Option<Span>,
    message: String,
    notes: Vec<String>,
) {
    diags.push(Diagnostic {
        severity: code.severity(),
        code,
        message,
        span,
        notes,
        suggestion: None,
    });
}

/// E002–E005: the well-formedness conditions of §2, with spans.
fn check_validation(query: &Ecrpq, diags: &mut Vec<Diagnostic>) {
    let num_symbols = query.alphabet().len();
    for atom in query.rel_atoms() {
        if atom.args.len() != atom.rel.arity() {
            push(
                diags,
                Code::ArityMismatch,
                atom.span,
                format!(
                    "relation atom `{}` has {} argument(s) but relation arity {}",
                    atom.name,
                    atom.args.len(),
                    atom.rel.arity()
                ),
                vec![],
            );
        }
        let mut sorted = atom.args.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != atom.args.len() {
            push(
                diags,
                Code::RepeatedPathVar,
                atom.span,
                format!(
                    "relation atom `{}` repeats a path variable; arguments must be pairwise distinct (§2)",
                    atom.name
                ),
                vec![],
            );
        }
        if atom.rel.num_symbols() != num_symbols {
            push(
                diags,
                Code::TrackAlphabetMismatch,
                atom.span,
                format!(
                    "relation atom `{}` tracks words over {} symbol(s) but the query alphabet has {}",
                    atom.name,
                    atom.rel.num_symbols(),
                    num_symbols
                ),
                vec!["the relation was built over a different alphabet".to_string()],
            );
        }
    }
    for (i, &v) in query.free_vars().iter().enumerate() {
        if v.0 as usize >= query.num_node_vars() {
            push(
                diags,
                Code::UnknownFreeVar,
                query.free_span(i),
                format!("free variable #{} does not occur in the body", v.0),
                vec![],
            );
        }
    }
}

/// E001: an atom with an empty synchronous language makes the whole query
/// unsatisfiable — this is an automaton emptiness check per atom.
fn check_empty_languages(query: &Ecrpq, diags: &mut Vec<Diagnostic>) {
    for atom in query.rel_atoms() {
        if atom.rel.is_empty() {
            push(
                diags,
                Code::EmptyLanguage,
                atom.span,
                format!(
                    "relation atom `{}` is unsatisfiable: its synchronous language is empty",
                    atom.name
                ),
                vec![
                    "no path tuple can satisfy this atom, so the query has no answers on any \
                     database; evaluation short-circuits to the empty result"
                        .to_string(),
                ],
            );
        }
    }
}

/// E006: several unary (language) atoms on one path variable whose
/// intersection is empty — each atom alone is satisfiable, together they
/// contradict. Mirrors the unary-fusion rewrite of `ecrpq-core::optimize`,
/// but reports *which* constraints clash instead of silently folding the
/// query to `false`. Budget-guarded: intersection states multiply, so the
/// check stops once the product automaton outgrows the inclusion budget.
fn check_contradictory_unaries(query: &Ecrpq, cfg: &AnalyzerConfig, diags: &mut Vec<Diagnostic>) {
    let atoms = query.rel_atoms();
    let mut unary_of: Vec<Vec<usize>> = vec![Vec::new(); query.num_path_vars()];
    for (i, atom) in atoms.iter().enumerate() {
        if atom.rel.arity() == 1 && atom.args.len() == 1 && !atom.rel.is_empty() {
            unary_of[atom.args[0].0 as usize].push(i);
        }
    }
    let state_cap = cfg.inclusion_state_budget * cfg.inclusion_state_budget;
    let mut skipped_vars: Vec<String> = Vec::new();
    for (p, ids) in unary_of.iter().enumerate() {
        if ids.len() < 2 {
            continue;
        }
        let mut fused = atoms[ids[0]].rel.as_ref().clone();
        let mut used = vec![ids[0]];
        for &i in &ids[1..] {
            if fused.num_states() * atoms[i].rel.num_states() > state_cap {
                // too large to fuse further; stay sound, check what we
                // have — but say so, a clean report must be
                // distinguishable from an unchecked one
                skipped_vars.push(query.path_name(ecrpq_query::PathVar(p as u32)).to_string());
                break;
            }
            fused = fused.intersect(&atoms[i].rel);
            used.push(i);
            if fused.is_empty() {
                let names: Vec<String> = used.iter().map(|&k| atoms[k].name.clone()).collect();
                push(
                    diags,
                    Code::ContradictoryUnaries,
                    atoms[i].span.or(atoms[ids[0]].span),
                    format!(
                        "language constraints on path variable `{}` are contradictory: \
                         {} intersect to the empty language",
                        query.path_name(ecrpq_query::PathVar(p as u32)),
                        names
                            .iter()
                            .map(|n| format!("`{n}`"))
                            .collect::<Vec<_>>()
                            .join(" ∩ ")
                    ),
                    vec![
                        "no word satisfies every constraint at once, so the query has no \
                         answers on any database"
                            .to_string(),
                    ],
                );
                break;
            }
        }
    }
    for name in skipped_vars {
        push(
            diags,
            Code::CheckSkippedBudget,
            None,
            format!("unary-contradiction check on path variable `{name}` skipped: budget exceeded"),
            vec![format!(
                "the intersection automaton outgrew the {state_cap}-state cap, so later \
                 constraints on `{name}` were not fused; the absence of E006 here is not a \
                 proof of satisfiability"
            )],
        );
    }
}

/// W001: a disconnected body multiplies per-component answer sets into a
/// cartesian product.
fn check_disconnected(query: &Ecrpq, node: &ecrpq_structure::Graph, diags: &mut Vec<Diagnostic>) {
    let comps = node.components();
    if comps.len() > 1 {
        push(
            diags,
            Code::Disconnected,
            None,
            format!(
                "query body is disconnected: {} independent components",
                comps.len()
            ),
            vec![format!(
                "the answer set is the cartesian product of the components' answers — up to \
                 |V|^{} tuples; consider splitting into {} separate queries",
                query.free_vars().len().max(1),
                comps.len()
            )],
        );
    }
}

/// W002/W003: measures beyond the thresholds put the query class in the
/// PSPACE-complete regime of Theorem 3.2(1).
fn check_thresholds(
    normalized: &Ecrpq,
    abstraction: &ecrpq_structure::TwoLevelGraph,
    measures: &QueryMeasures,
    cfg: &AnalyzerConfig,
    diags: &mut Vec<Diagnostic>,
) {
    if measures.cc_vertex <= cfg.cc_vertex_threshold && measures.cc_hedge <= cfg.cc_hedge_threshold
    {
        return;
    }
    let comps = abstraction.rel_components();
    for (ci, edge_list) in comps.edges.iter().enumerate() {
        let hedges = &comps.hedges[ci];
        let atom_name = |h: usize| normalized.rel_atoms()[h].name.clone();
        let span = hedges.iter().find_map(|&h| normalized.rel_atoms()[h].span);
        if edge_list.len() > cfg.cc_vertex_threshold {
            let mut notes = vec![format!(
                "classes with cc_vertex > {} are PSPACE-complete to evaluate (Theorem 3.2(1)); \
                 the merged relation automaton for this component spans {} tracks",
                cfg.cc_vertex_threshold,
                edge_list.len()
            )];
            notes.extend(suggest_split(
                normalized,
                abstraction,
                hedges,
                cfg.cc_vertex_threshold,
            ));
            push(
                diags,
                Code::CcVertexOverThreshold,
                span,
                format!(
                    "relation component {{{}}} spans {} path variables (cc_vertex threshold {})",
                    hedges
                        .iter()
                        .map(|&h| atom_name(h))
                        .collect::<Vec<_>>()
                        .join(", "),
                    edge_list.len(),
                    cfg.cc_vertex_threshold
                ),
                notes,
            );
        }
        if hedges.len() > cfg.cc_hedge_threshold {
            push(
                diags,
                Code::CcHedgeOverThreshold,
                span,
                format!(
                    "relation component has {} atoms (cc_hedge threshold {})",
                    hedges.len(),
                    cfg.cc_hedge_threshold
                ),
                vec![format!(
                    "the Lemma 4.1 merge multiplies all {} automata into one; check whether some \
                     atoms are redundant (W005) before evaluating",
                    hedges.len()
                )],
            );
        }
    }
}

/// A greedy regrouping of a component's atoms into groups each spanning at
/// most `limit` path variables — the "suggested split" of W002. Returns no
/// note when a single atom already exceeds the limit (no split can help).
fn suggest_split(
    normalized: &Ecrpq,
    abstraction: &ecrpq_structure::TwoLevelGraph,
    hedges: &[usize],
    limit: usize,
) -> Option<String> {
    if hedges
        .iter()
        .any(|&h| abstraction.hyperedge(h).len() > limit)
    {
        let worst = hedges
            .iter()
            .max_by_key(|&&h| abstraction.hyperedge(h).len())?;
        return Some(format!(
            "no split helps: atom `{}` alone spans {} path variables",
            normalized.rel_atoms()[*worst].name,
            abstraction.hyperedge(*worst).len()
        ));
    }
    let mut groups: Vec<(Vec<usize>, std::collections::BTreeSet<usize>)> = Vec::new();
    for &h in hedges {
        let members: std::collections::BTreeSet<usize> =
            abstraction.hyperedge(h).iter().copied().collect();
        match groups
            .iter_mut()
            .find(|(_, vars)| vars.union(&members).count() <= limit)
        {
            Some((hs, vars)) => {
                hs.push(h);
                vars.extend(members);
            }
            None => groups.push((vec![h], members)),
        }
    }
    if groups.len() < 2 {
        return None;
    }
    let rendered: Vec<String> = groups
        .iter()
        .map(|(hs, _)| {
            format!(
                "{{{}}}",
                hs.iter()
                    .map(|&h| normalized.rel_atoms()[h].name.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
        .collect();
    Some(format!(
        "suggested split (each group stays within cc_vertex ≤ {limit}): {}",
        rendered.join(" | ")
    ))
}

/// W004: a path variable no relation atom mentions — it matches arbitrary
/// paths, which is usually an authoring mistake.
fn check_unconstrained_paths(query: &Ecrpq, diags: &mut Vec<Diagnostic>) {
    let mut covered = vec![false; query.num_path_vars()];
    for atom in query.rel_atoms() {
        for &p in &atom.args {
            covered[p.0 as usize] = true;
        }
    }
    for (p, src, dst) in query.path_atoms() {
        if !covered[p.0 as usize] {
            push(
                diags,
                Code::UnconstrainedPathVar,
                query.path_span(p),
                format!(
                    "path variable `{}` is not constrained by any relation atom",
                    query.path_name(p)
                ),
                vec![format!(
                    "`{}` matches every path from `{}` to `{}`; normalization adds a universal \
                     atom (π ∈ A*) — add `{} in REGEX` if a language constraint was intended",
                    query.path_name(p),
                    query.node_name(src),
                    query.node_name(dst),
                    query.path_name(p)
                )],
            );
        }
    }
}

/// W005: atom `b` is redundant when another atom `a` over the same
/// arguments has `L(a) ⊆ L(b)` — checked by language inclusion on the
/// synchronous-relation automata, under the configured budgets.
fn check_subsumption(query: &Ecrpq, cfg: &AnalyzerConfig, diags: &mut Vec<Diagnostic>) {
    let atoms = query.rel_atoms();
    let within = |i: usize| {
        atoms[i].rel.num_states() <= cfg.inclusion_state_budget
            && atoms[i].rel.arity() <= cfg.inclusion_arity_budget
    };
    let mut flagged = vec![false; atoms.len()];
    let mut skipped_pairs = 0usize;
    for i in 0..atoms.len() {
        for j in (i + 1)..atoms.len() {
            if atoms[i].args != atoms[j].args {
                continue;
            }
            if !within(i) || !within(j) {
                skipped_pairs += 1;
                continue;
            }
            // the atom with the *larger* language is the redundant one
            let redundant = if !flagged[j] && atoms[i].rel.is_subset_of(&atoms[j].rel) {
                Some((j, i))
            } else if !flagged[i] && atoms[j].rel.is_subset_of(&atoms[i].rel) {
                Some((i, j))
            } else {
                None
            };
            if let Some((weak, strong)) = redundant {
                flagged[weak] = true;
                push(
                    diags,
                    Code::SubsumedAtom,
                    atoms[weak].span,
                    format!(
                        "relation atom `{}` is subsumed by `{}` on the same arguments",
                        atoms[weak].name, atoms[strong].name
                    ),
                    vec![format!(
                        "every path tuple satisfying `{}` satisfies `{}`, so the atom adds no \
                         constraint and only grows the merged automaton; remove it",
                        atoms[strong].name, atoms[weak].name
                    )],
                );
            }
        }
    }
    if skipped_pairs > 0 {
        push(
            diags,
            Code::CheckSkippedBudget,
            None,
            format!("subsumption check skipped for {skipped_pairs} atom pair(s): budget exceeded"),
            vec![format!(
                "language inclusion was not decided for pairs whose automata exceed {} states \
                 or arity {}; the absence of W005 on them is not a proof of independence",
                cfg.inclusion_state_budget, cfg.inclusion_arity_budget
            )],
        );
    }
}

/// W006: the bounded best-first rewrite search `m` found a verified
/// equivalent query in the PTIME regime — report it, with the rewritten
/// text as a machine-applicable suggestion when the query unparses. Also
/// surfaces N001 when the search itself skipped rewrite checks on budget.
fn check_minimizable(m: &Minimized, cfg: &AnalyzerConfig, diags: &mut Vec<Diagnostic>) {
    if m.after_class == CombinedClass::PolynomialTime
        && m.before_class != CombinedClass::PolynomialTime
    {
        let mut notes: Vec<String> = m
            .steps
            .iter()
            .map(|s| format!("{}: {}", s.kind, s.detail))
            .collect();
        notes.push(format!(
            "all {} rewrite step(s) verified by two-way language inclusion; measures drop \
             cc_vertex {}→{}, cc_hedge {}→{}, tw {}→{}",
            m.steps.len(),
            m.before.cc_vertex,
            m.after.cc_vertex,
            m.before.cc_hedge,
            m.after.cc_hedge,
            m.before.treewidth,
            m.after.treewidth,
        ));
        let suggestion = ecrpq_query::unparse(&m.query, cfg.inclusion_state_budget);
        if suggestion.is_none() {
            notes.push(format!("equivalent PTIME-regime form: {}", m.query));
        }
        let span = m.steps.iter().find_map(|s| s.span);
        diags.push(Diagnostic {
            severity: Code::MinimizableQuery.severity(),
            code: Code::MinimizableQuery,
            message: format!(
                "query is equivalent to a PTIME-regime rewrite ({} → {})",
                m.before_class, m.after_class
            ),
            span,
            notes,
            suggestion,
        });
    }
    if m.skipped {
        push(
            diags,
            Code::CheckSkippedBudget,
            None,
            "regime-minimization search skipped: query too large for the rewrite budget"
                .to_string(),
            vec![
                "the best-first rewrite search only runs on queries within its size bound; a \
                 cheaper equivalent form may exist"
                    .to_string(),
            ],
        );
    } else if m.budget_skips > 0 {
        push(
            diags,
            Code::CheckSkippedBudget,
            None,
            format!(
                "{} rewrite check(s) skipped during regime minimization: budget exceeded",
                m.budget_skips
            ),
            vec![
                "containment verification was not decided for some candidate rewrites, so \
                 they were rejected conservatively; a cheaper equivalent form may exist"
                    .to_string(),
            ],
        );
    }
}

pub use render::render_diagnostic;

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_automata::{relations, Alphabet};
    use ecrpq_query::{parse_query, RelationRegistry};
    use std::sync::Arc;

    fn parsed(src: &str) -> Ecrpq {
        let mut alphabet = Alphabet::ascii_lower(2);
        parse_query(src, &mut alphabet, &RelationRegistry::new()).unwrap()
    }

    fn codes(a: &Analysis) -> Vec<Code> {
        a.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_query_has_no_diagnostics() {
        let a = analyze(&parsed("q(x) :- x -(a*b)-> y"));
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(a.combined, CombinedClass::PolynomialTime);
        assert_eq!(a.param, ParamClass::Fpt);
    }

    #[test]
    fn empty_language_is_an_error_with_span() {
        // a+ ∩ b+ on the same path variable: the fused language is empty,
        // but each atom alone is non-empty — build the empty one directly
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p = q.path_atom(x, "p", y);
        let empty = relations::universal(1, 2).complement();
        q.rel_atom_spanned("never", Arc::new(empty), &[p], Some(Span::new(3, 10)));
        let a = analyze(&q);
        assert!(a.has_errors());
        assert_eq!(a.diagnostics[0].code, Code::EmptyLanguage);
        assert_eq!(a.diagnostics[0].span, Some(Span::new(3, 10)));
    }

    #[test]
    fn validation_errors_map_to_codes() {
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p = q.path_atom(x, "p", y);
        q.rel_atom("eq", Arc::new(relations::equality(2)), &[p]);
        assert!(codes(&analyze(&q)).contains(&Code::ArityMismatch));

        let mut q2 = Ecrpq::new(Alphabet::ascii_lower(3));
        let x = q2.node_var("x");
        let y = q2.node_var("y");
        let p = q2.path_atom(x, "p", y);
        let r = q2.path_atom(y, "r", x);
        q2.rel_atom("eq", Arc::new(relations::equality(2)), &[p, r]);
        assert!(codes(&analyze(&q2)).contains(&Code::TrackAlphabetMismatch));

        let mut q3 = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q3.node_var("x");
        let y = q3.node_var("y");
        q3.path_atom(x, "p", y);
        q3.set_free(&[ecrpq_query::NodeVar(7)]);
        assert!(codes(&analyze(&q3)).contains(&Code::UnknownFreeVar));
    }

    #[test]
    fn contradictory_unaries_are_an_error() {
        let src = "x -[p]-> y, p in a+, p in b+";
        let a = analyze(&parsed(src));
        assert!(a.has_errors());
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == Code::ContradictoryUnaries)
            .expect("E006 expected");
        let sp = d.span.unwrap();
        assert_eq!(&src[sp.start..sp.end], "p in b+");
        assert!(d.message.contains("contradictory"), "{}", d.message);
        // consistent constraints on one variable stay silent
        let ok = analyze(&parsed("x -[p]-> y, p in a+, p in a*"));
        assert!(!ok.has_errors());
    }

    #[test]
    fn disconnected_body_warns() {
        let a = analyze(&parsed("x -(a)-> y, z -(b)-> w"));
        assert!(codes(&a).contains(&Code::Disconnected));
        assert!(!a.has_errors());
    }

    #[test]
    fn unconstrained_path_var_warns_at_its_atom() {
        let src = "x -[p]-> y, y -[r]-> z, r in a*";
        let q = parsed(src);
        let a = analyze(&q);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == Code::UnconstrainedPathVar)
            .expect("W004 expected");
        let sp = d.span.unwrap();
        assert_eq!(&src[sp.start..sp.end], "x -[p]-> y");
    }

    #[test]
    fn cc_vertex_over_threshold_warns_with_split() {
        // 5 path vars chained pairwise into one component (threshold 3)
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let vars: Vec<_> = (0..6).map(|i| q.node_var(&format!("x{i}"))).collect();
        let ps: Vec<_> = (0..5)
            .map(|i| q.path_atom(vars[i], &format!("p{i}"), vars[i + 1]))
            .collect();
        let eq = Arc::new(relations::eq_length(2, 2));
        for i in 0..4 {
            q.rel_atom(&format!("e{i}"), eq.clone(), &[ps[i], ps[i + 1]]);
        }
        let a = analyze(&q);
        assert_eq!(a.measures.cc_vertex, 5);
        assert_eq!(a.combined, CombinedClass::PspaceComplete);
        assert_eq!(a.param, ParamClass::XnlComplete);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == Code::CcVertexOverThreshold)
            .expect("W002 expected");
        assert!(
            d.notes.iter().any(|n| n.contains("suggested split")),
            "{:?}",
            d.notes
        );
        // cc_hedge = 4 also exceeds its threshold of 3
        assert!(codes(&a).contains(&Code::CcHedgeOverThreshold));
    }

    #[test]
    fn oversized_single_atom_has_no_split() {
        let mut q = Ecrpq::new(Alphabet::ascii_lower(1));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let ps: Vec<_> = (0..4)
            .map(|i| q.path_atom(x, &format!("p{i}"), y))
            .collect();
        q.rel_atom("big", Arc::new(relations::eq_length(4, 1)), &ps);
        let a = analyze(&q);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == Code::CcVertexOverThreshold)
            .expect("W002 expected");
        assert!(
            d.notes.iter().any(|n| n.contains("no split helps")),
            "{:?}",
            d.notes
        );
    }

    #[test]
    fn subsumed_atom_warns_on_the_weaker_atom() {
        // a+ ⊆ (a|b)*: the (a|b)* atom adds no constraint
        let src = "x -[p]-> y, p in a+, p in (a|b)*";
        let a = analyze(&parsed(src));
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == Code::SubsumedAtom)
            .expect("W005 expected");
        let sp = d.span.unwrap();
        assert_eq!(&src[sp.start..sp.end], "p in (a|b)*");
    }

    #[test]
    fn equivalent_atoms_warn_once() {
        let a = analyze(&parsed("x -[p]-> y, p in a+, p in aa*"));
        let n = codes(&a)
            .iter()
            .filter(|&&c| c == Code::SubsumedAtom)
            .count();
        assert_eq!(n, 1);
    }

    #[test]
    fn classification_matches_thresholds() {
        let cfg = AnalyzerConfig::default();
        let m = |v, h, t| QueryMeasures {
            cc_vertex: v,
            cc_hedge: h,
            treewidth: t,
        };
        assert_eq!(
            classify_combined(&m(1, 1, 1), &cfg),
            CombinedClass::PolynomialTime
        );
        assert_eq!(
            classify_combined(&m(1, 1, 5), &cfg),
            CombinedClass::NpComplete
        );
        assert_eq!(
            classify_combined(&m(9, 1, 1), &cfg),
            CombinedClass::PspaceComplete
        );
        assert_eq!(
            classify_combined(&m(1, 9, 1), &cfg),
            CombinedClass::PspaceComplete
        );
        assert_eq!(classify_param(&m(1, 9, 1), &cfg), ParamClass::Fpt);
        assert_eq!(classify_param(&m(1, 1, 5), &cfg), ParamClass::W1Complete);
        assert_eq!(classify_param(&m(9, 1, 5), &cfg), ParamClass::XnlComplete);
    }

    #[test]
    fn errors_sort_before_warnings() {
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p = q.path_atom(x, "p", y); // unconstrained → W004
        let z = q.node_var("z");
        let w = q.node_var("w");
        let r = q.path_atom(z, "r", w); // second component → W001
        let empty = relations::universal(1, 2).complement();
        q.rel_atom("never", Arc::new(empty), &[r]);
        let _ = p;
        let a = analyze(&q);
        assert_eq!(a.diagnostics[0].severity, Severity::Error);
        assert!(a.diagnostics.len() >= 3);
        for pair in a.diagnostics.windows(2) {
            assert!(pair[0].severity <= pair[1].severity);
        }
    }

    #[test]
    fn summary_mentions_measures_and_regimes() {
        let s = analyze(&parsed("q(x) :- x -(a*)-> y")).summary();
        assert!(s.contains("cc_vertex=1"), "{s}");
        assert!(s.contains("PTIME"), "{s}");
        assert!(s.contains("FPT"), "{s}");
    }
}
