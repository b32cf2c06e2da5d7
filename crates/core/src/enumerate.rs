//! The product evaluator's backtracking search, and the streaming answer
//! enumerator built on it.
//!
//! `SearchCursor` is the one search over node assignments for the
//! product family (Prop. 2.2 / Lemma 4.2): Boolean evaluation, answer
//! sets, witnesses and every parallel worker run it. The search's shape
//! depends only on query structure, never on data values: atom `i`
//! assigns its not-yet-assigned endpoint variables (sorted,
//! deduplicated) and then runs one feasibility check. That makes the
//! whole search expressible as a fixed *step program* —
//! `Assign(var), …, Check(atom), Assign(var), …` — walked by a cursor
//! with per-step value positions. Feasibility checks, memoization,
//! budget pacing, and statistics are delegated to the product
//! `Evaluator` the cursor owns: a `Check` of an arity-1 atom is a bit
//! test in the memoized single-track sweep of its anchor value, any
//! other a memoized product BFS. A cursor can restart on a new range of
//! its first assigned variable and keeps its memos and BFS buffers when
//! it does: that is how the engine's workers steal chunks.
//!
//! The search walks candidates like a join, not a nested loop. An
//! `Assign` step that binds an endpoint of a synchronized atom, whose
//! `Check` comes next, draws its values from the pruned domain ∩ the
//! reachability-closure row of each track's other, already bound
//! endpoint: the closure row when it binds the track's end, the
//! transposed row when it binds the start. The rows are AND-ed a word at
//! a time, and each word read counts as one cursor step. A value off a
//! row would fail the check's closure test before the memo or any
//! counter, so answers and `ProductStats` are those of the unjoined
//! search; only the walk shrinks, from `|D(x)|·|D(y)|` pairs to the row
//! hits plus the words scanned.
//!
//! [`AnswerIter`] is the cursor plus the free-tuple `Odometer` and the
//! governor's per-tuple answer claim (`AnswerClaim`). After the
//! preparation phase (tables, closure, and the query's domain program:
//! the Yannakakis full reducer over its join tree, the independent
//! semijoin sweeps otherwise) it yields answers one at a time with *bounded delay* — the work
//! between consecutive yields is bounded by the cursor's step count over
//! the pruned domains, not by the answer count. A `max_answers` cap
//! therefore terminates the enumeration exactly at the cap: the iterator
//! simply stops being polled (or the governor refuses the claim), and no
//! further configuration is explored.
//!
//! On a single-track query with a join tree the reduced domains are
//! globally consistent, the backtracker never fails a check on
//! tree-consistent prefixes, and the delay bound tightens to
//! `O(Σ_v |D(v)|)` steps per answer (see DESIGN.md §13).

use crate::engine::run_governor;
use crate::governor::{AnswerClaim, Claim, Governor, ResourceBudget, Termination};
use crate::prepare::PreparedQuery;
use crate::product::{Evaluator, ProductStats, SharedTables, UNASSIGNED};
use crate::trace::{NoopTracer, Phase, PhaseSpan, Tracer};
use ecrpq_automata::BitSet;
use ecrpq_graph::{GraphDb, NodeId};
use ecrpq_query::NodeVar;
use std::collections::BTreeSet;
use std::ops::Range;

/// One instruction of the search's step program.
#[derive(Debug, Clone)]
enum Step<'a> {
    /// Bind the node variable to the next value of its candidates, or,
    /// with a `join`, to the next of them on every joined closure row.
    Assign {
        var: u32,
        cands: Cands<'a>,
        join: Option<Join>,
    },
    /// Run the (memoized) feasibility check of merged atom `atom` — a
    /// sweep-memo bit test at arity 1, a product BFS otherwise; on
    /// failure backtrack to the nearest `Assign` above.
    Check { atom: usize },
}

/// Candidate values of one `Assign` step: the semijoin-pruned domain
/// slice when the variable has one, the full vertex range otherwise.
#[derive(Debug, Clone)]
enum Cands<'a> {
    Dom(&'a [NodeId]),
    Range(Range<NodeId>),
}

impl<'a> Cands<'a> {
    /// The candidates of `var` inside `range`: values outside a pruned
    /// domain cannot satisfy some atom, so skipping them loses nothing.
    fn of(tables: &'a SharedTables, var: u32, range: Range<NodeId>) -> Self {
        match tables.domain(var) {
            Some(dom) => {
                let lo = dom.partition_point(|&x| x < range.start);
                let hi = dom.partition_point(|&x| x < range.end);
                Cands::Dom(&dom[lo..hi])
            }
            None => Cands::Range(range),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Cands::Dom(d) => d.len(),
            Cands::Range(r) => r.len(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> NodeId {
        match self {
            Cands::Dom(d) => d[i],
            Cands::Range(r) => r.start + i as NodeId,
        }
    }

    /// The smallest range holding every candidate.
    fn bounds(&self) -> Range<NodeId> {
        match self {
            Cands::Dom([]) => 0..0,
            Cands::Dom(d) => d[0]..d[d.len() - 1] + 1,
            Cands::Range(r) => r.clone(),
        }
    }
}

/// The closure join of an `Assign` step (see [`atom_assignments`]): its
/// candidates are the step's `Cands` that lie on every joined row, found
/// by AND-ing the rows a word at a time.
#[derive(Debug, Clone)]
struct Join {
    /// The variable's pruned domain as a bit set; `None` when it has none.
    dom: Option<BitSet>,
    rows: Vec<RowJoin>,
}

impl Join {
    /// The first value in `range` that is in the domain and on every
    /// joined row under `assignment`, and the number of words read to
    /// find it.
    fn next(
        &self,
        range: Range<NodeId>,
        tables: &SharedTables,
        assignment: &[i64],
    ) -> (Option<NodeId>, u64) {
        if range.is_empty() {
            return (None, 0);
        }
        let row = |j: &RowJoin| {
            let rows = if j.forward {
                &tables.closure
            } else {
                &tables.co_closure
            };
            // lint:allow(unwrap): a step joins only when the rows were built
            let rows = rows.as_deref().expect("joined closure rows");
            rows[assignment[j.other as usize] as usize].words()
        };
        let (lo, hi) = (range.start as usize, range.end as usize);
        let (first, last) = (lo / 64, (hi - 1) / 64);
        for w in first..=last {
            let mut bits = u64::MAX;
            if w == first {
                bits &= u64::MAX << (lo % 64);
            }
            if w == last && hi % 64 != 0 {
                bits &= (1u64 << (hi % 64)) - 1;
            }
            if let Some(dom) = &self.dom {
                bits &= dom.words()[w];
            }
            for j in &self.rows {
                bits &= row(j)[w];
            }
            if bits != 0 {
                let value = (w * 64) as NodeId + bits.trailing_zeros();
                return (Some(value), (w - first + 1) as u64);
            }
        }
        (None, (last - first + 1) as u64)
    }
}

/// The free-tuple odometer of one satisfying assignment: cycles the
/// unassigned free positions over `0..n`, least significant first,
/// keeping the assigned positions fixed. Reused across assignments, so
/// an expansion allocates nothing once the buffers have grown.
#[derive(Debug, Default)]
pub(crate) struct Odometer {
    tuple: Vec<u32>,
    /// Positions of `tuple` that cycle, least significant first.
    open: Vec<usize>,
    started: bool,
}

impl Odometer {
    /// Loads one assignment's free values: `Some` positions stay fixed,
    /// `None` positions cycle.
    pub(crate) fn reset(&mut self, values: impl IntoIterator<Item = Option<u32>>) {
        self.tuple.clear();
        self.open.clear();
        self.started = false;
        for (i, v) in values.into_iter().enumerate() {
            if v.is_none() {
                // lint:allow(materialize) — O(#free) odometer setup, not answers
                self.open.push(i);
            }
            // lint:allow(materialize) — O(#free) odometer setup, not answers
            self.tuple.push(v.unwrap_or(0));
        }
    }

    /// The next tuple over a domain of `n` values, `None` once every
    /// combination was returned (at once when a position is open and
    /// `n == 0`).
    pub(crate) fn next(&mut self, n: usize) -> Option<&[u32]> {
        if !self.started {
            self.started = true;
            return (n > 0 || self.open.is_empty()).then_some(&self.tuple[..]);
        }
        for &i in &self.open {
            self.tuple[i] += 1;
            if (self.tuple[i] as usize) < n {
                return Some(&self.tuple);
            }
            self.tuple[i] = 0;
        }
        None
    }
}

/// The free values of a search assignment, in `free` order (`None` for a
/// variable no atom constrains).
pub(crate) fn free_values<'s>(
    assignment: &'s [i64],
    free: &'s [NodeVar],
) -> impl Iterator<Item = Option<NodeId>> + 's {
    free.iter().map(|&NodeVar(f)| {
        let a = assignment[f as usize];
        (a != UNASSIGNED).then_some(a as NodeId)
    })
}

/// A closure row that an `Assign` step joins its candidates with: the
/// row of the value bound to `other`, in the reachability closure
/// (`forward`: the step binds a track's end and `other` is its start) or
/// in its transpose (the step binds a track's start and `other` its end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowJoin {
    pub(crate) other: u32,
    pub(crate) forward: bool,
}

/// One `Assign` step of the program's shape.
#[derive(Debug, Clone)]
pub(crate) struct AssignShape {
    pub(crate) var: u32,
    /// The closure rows the step's candidates join with.
    pub(crate) joins: Vec<RowJoin>,
}

/// The shape of the step program: per merged atom, in atom order, the
/// endpoint variables it assigns before its `Check` — those no earlier
/// atom assigned, sorted and deduplicated — each with its closure joins.
///
/// A variable of an atom of arity ≥ 2 joins, for each track, the row of
/// the track's other endpoint when that endpoint is bound before it. The
/// joins are exact: the atom's `Check` comes next, and it rejects a value
/// outside any of those rows by its closure test, before the memo or any
/// counter. Arity-1 atoms join nothing: their sweep never consults the
/// closure.
pub(crate) fn atom_assignments(query: &PreparedQuery) -> Vec<Vec<AssignShape>> {
    let mut assigned = vec![false; query.num_node_vars];
    query
        .atoms
        .iter()
        .map(|atom| {
            let mut vars: Vec<u32> = atom
                .endpoints
                .iter()
                .flat_map(|&(NodeVar(s), NodeVar(d))| [s, d])
                .filter(|&v| !assigned[v as usize])
                .collect(); // lint:allow(materialize) — program construction, not answers
            vars.sort_unstable();
            vars.dedup();
            vars.into_iter()
                .map(|var| {
                    let mut joins: Vec<RowJoin> = Vec::new();
                    for &(NodeVar(s), NodeVar(d)) in &atom.endpoints {
                        let join = if atom.rel.arity() < 2 || s == d {
                            None
                        } else if d == var && assigned[s as usize] {
                            Some(RowJoin {
                                other: s,
                                forward: true,
                            })
                        } else if s == var && assigned[d as usize] {
                            Some(RowJoin {
                                other: d,
                                forward: false,
                            })
                        } else {
                            None
                        };
                        if let Some(j) = join.filter(|j| !joins.contains(j)) {
                            // lint:allow(materialize) — program construction, not answers
                            joins.push(j);
                        }
                    }
                    assigned[var as usize] = true;
                    AssignShape { var, joins }
                })
                .collect()
        })
        .collect()
}

/// The product evaluator's backtracking search over node assignments,
/// flattened into a step program. [`SearchCursor::next_assignment`]
/// yields each satisfying assignment once, in the same order on every
/// run; the cursor stops early when the evaluator's stop flag or budget
/// governor says so.
pub(crate) struct SearchCursor<'a, T: Tracer = NoopTracer> {
    /// Feasibility, memo, pacing and counters.
    pub(crate) ev: Evaluator<'a, T>,
    tables: &'a SharedTables,
    tracer: T,
    steps: Vec<Step<'a>>,
    /// Per-step position in the candidates of an `Assign` step.
    cursors: Vec<usize>,
    assignment: Vec<i64>,
    /// Program counter into `steps`; `steps.len()` = at a leaf.
    pos: usize,
    /// The last call returned the leaf; the next one backtracks from it.
    at_leaf: bool,
    /// An empty database or an emptied domain: no assignment exists.
    dead: bool,
    done: bool,
    /// Steps executed so far, closure words read included (the delay
    /// measure of [`AnswerIter::work`]).
    steps_run: u64,
    starts_buf: Vec<NodeId>,
    ends_buf: Vec<NodeId>,
}

impl<'a, T: Tracer> SearchCursor<'a, T> {
    /// Builds the step program over the full vertex range.
    pub(crate) fn new(
        db: &'a GraphDb,
        query: &'a PreparedQuery,
        tables: &'a SharedTables,
        governor: Option<&'a Governor>,
        tracer: T,
    ) -> Self {
        let mut ev = Evaluator::with_tables_traced(db, query, tables, tracer.clone());
        if let Some(g) = governor {
            ev.set_governor(g);
        }
        let nv = db.num_nodes();
        let mut steps = Vec::new();
        for (ai, shape) in atom_assignments(query).into_iter().enumerate() {
            for AssignShape { var, joins } in shape {
                let cands = Cands::of(tables, var, 0..nv as NodeId);
                // without the closure the check has no closure test to
                // hoist
                let join = (tables.closure.is_some() && !joins.is_empty()).then(|| Join {
                    dom: tables.domain(var).map(|d| {
                        BitSet::from_iter_with_capacity(nv, d.iter().map(|&v| v as usize))
                    }),
                    rows: joins,
                });
                // lint:allow(materialize) — program construction, not answers
                steps.push(Step::Assign { var, cands, join });
            }
            // lint:allow(materialize) — program construction, not answers
            steps.push(Step::Check { atom: ai });
        }
        let dead = (query.num_node_vars > 0 && nv == 0) || tables.unsatisfiable();
        SearchCursor {
            ev,
            tables,
            tracer,
            cursors: vec![0; steps.len()],
            steps,
            assignment: vec![UNASSIGNED; query.num_node_vars],
            pos: 0,
            at_leaf: false,
            dead,
            done: dead,
            steps_run: 0,
            starts_buf: Vec::new(),
            ends_buf: Vec::new(),
        }
    }

    /// Restarts the search with the first assigned variable restricted
    /// to `range` (one chunk of a parallel run). The evaluator — memo,
    /// BFS buffers, counters, pacer — carries over.
    pub(crate) fn restart(&mut self, range: Range<NodeId>) {
        let tables = self.tables;
        if let Some(Step::Assign { var, cands, .. }) = self
            .steps
            .iter_mut()
            .find(|s| matches!(s, Step::Assign { .. }))
        {
            *cands = Cands::of(tables, *var, range);
        }
        self.cursors.fill(0);
        self.assignment.fill(UNASSIGNED);
        self.pos = 0;
        self.at_leaf = false;
        self.done = self.dead;
    }

    /// Advances to the next satisfying assignment: one value per node
    /// variable, [`UNASSIGNED`] for variables no atom constrains. `None`
    /// once the search is exhausted or stopped.
    pub(crate) fn next_assignment(&mut self) -> Option<&[i64]> {
        if self.at_leaf {
            self.at_leaf = false;
            self.backtrack();
        }
        while !self.done {
            if self.ev.should_stop() {
                self.done = true;
                break;
            }
            if self.pos == self.steps.len() {
                self.ev.stats.assignments += 1;
                self.at_leaf = true;
                return Some(&self.assignment);
            }
            self.steps_run += 1;
            if T::ENABLED {
                self.tracer.count(Phase::Enumerate, 1);
            }
            match &self.steps[self.pos] {
                Step::Assign { var, cands, join } => {
                    let var = *var as usize;
                    let cur = self.cursors[self.pos];
                    let value = match join {
                        None => (cur < cands.len()).then(|| cands.get(cur)),
                        Some(join) => {
                            // the cursor is the offset of the next value
                            // to scan from; every word read is a step
                            let bounds = cands.bounds();
                            let from = bounds.start + cur as NodeId;
                            let (value, words) =
                                join.next(from..bounds.end, self.tables, &self.assignment);
                            self.steps_run += words;
                            if T::ENABLED {
                                self.tracer.count(Phase::Enumerate, words);
                            }
                            value
                        }
                    };
                    if let Some(value) = value {
                        self.assignment[var] = i64::from(value);
                        self.cursors[self.pos] = match join {
                            None => cur + 1,
                            Some(_) => (value - cands.bounds().start) as usize + 1,
                        };
                        self.pos += 1;
                    } else {
                        self.assignment[var] = UNASSIGNED;
                        self.cursors[self.pos] = 0;
                        self.backtrack();
                    }
                }
                &Step::Check { atom } => {
                    let endpoints = &self.ev.query.atoms[atom].endpoints;
                    let value = |v: u32| self.assignment[v as usize] as NodeId;
                    self.starts_buf.clear();
                    self.ends_buf.clear();
                    self.starts_buf
                        .extend(endpoints.iter().map(|&(NodeVar(s), _)| value(s)));
                    self.ends_buf
                        .extend(endpoints.iter().map(|&(_, NodeVar(d))| value(d)));
                    if self.ev.feasible(atom, &self.starts_buf, &self.ends_buf) {
                        self.pos += 1;
                    } else {
                        self.backtrack();
                    }
                }
            }
        }
        None
    }

    /// Moves `pos` to the nearest enclosing `Assign` step; `done` when
    /// there is none.
    fn backtrack(&mut self) {
        loop {
            if self.pos == 0 {
                self.done = true;
                return;
            }
            self.pos -= 1;
            if matches!(self.steps[self.pos], Step::Assign { .. }) {
                return;
            }
        }
    }
}

/// A streaming answer iterator over one (database, query) pair.
///
/// Yields each distinct free-variable tuple exactly once, under the
/// governor's per-tuple claim discipline (`AnswerClaim`): one claim per
/// new tuple, memory charges for the retained dedup set, and amortized
/// work check-ins. When the governor trips, the iterator ends; the
/// caller reads the [`Termination`] off the governor (or
/// [`Enumerator::termination`]).
pub struct AnswerIter<'a, T: Tracer = NoopTracer> {
    search: SearchCursor<'a, T>,
    claim: AnswerClaim<'a>,
    tracer: T,
    free: &'a [NodeVar],
    nv: usize,
    leaf: Odometer,
    /// `leaf` holds a satisfying assignment still being expanded.
    in_leaf: bool,
    /// Every answer yielded so far (the dedup set, and the answer set of
    /// a drained run).
    seen: BTreeSet<Vec<NodeId>>,
    odometer_ticks: u64,
    done: bool,
}

impl<'a, T: Tracer> AnswerIter<'a, T> {
    /// Builds the search over the full vertex range and primes the
    /// iterator.
    pub(crate) fn with_parts(
        db: &'a GraphDb,
        query: &'a PreparedQuery,
        tables: &'a SharedTables,
        governor: Option<&'a Governor>,
        tracer: T,
    ) -> Self {
        let search = SearchCursor::new(db, query, tables, governor, tracer.clone());
        AnswerIter {
            done: search.done,
            search,
            claim: AnswerClaim::new(governor),
            tracer,
            free: &query.free,
            nv: db.num_nodes(),
            leaf: Odometer::default(),
            in_leaf: false,
            seen: BTreeSet::new(),
            odometer_ticks: 0,
        }
    }

    /// Restarts on another chunk of the first assigned variable (see
    /// [`SearchCursor::restart`]); answers already yielded stay in the
    /// dedup set.
    pub(crate) fn restart(&mut self, range: Range<NodeId>) {
        self.search.restart(range);
        self.in_leaf = false;
        self.done = self.search.done;
    }

    /// Total backtracker steps (one per step run, plus one per closure
    /// word a joined `Assign` step reads) plus odometer ticks executed so
    /// far — the counter-based delay measure the bounded-delay proptest
    /// asserts on.
    pub fn work(&self) -> u64 {
        self.search.steps_run + self.odometer_ticks
    }

    /// Runs the iterator to its end; the answers stay in the dedup set.
    pub(crate) fn run(&mut self) {
        while self.advance() {}
    }

    /// The answers yielded so far and the evaluator's counters.
    pub(crate) fn into_parts(self) -> (BTreeSet<Vec<NodeId>>, ProductStats) {
        (self.seen, self.search.ev.stats)
    }

    /// Advances to the next new answer, left in the odometer; `false`
    /// once the search is exhausted or the governor stopped it.
    fn advance(&mut self) -> bool {
        let tracer = self.tracer.clone();
        let span = PhaseSpan::start(&tracer, Phase::Enumerate);
        let found = self.advance_inner(&tracer);
        span.finish(&tracer);
        found
    }

    fn advance_inner(&mut self, tracer: &T) -> bool {
        while !self.done {
            if self.in_leaf {
                self.odometer_ticks += 1;
                match self.leaf.next(self.nv) {
                    None => self.in_leaf = false,
                    Some(tuple) => match self.claim.offer(tracer, &mut self.seen, tuple) {
                        Claim::New => return true,
                        Claim::Seen => {}
                        Claim::Stop => self.finish(),
                    },
                }
            } else if let Some(assignment) = self.search.next_assignment() {
                self.leaf.reset(free_values(assignment, self.free));
                self.in_leaf = true;
            } else {
                self.finish();
            }
        }
        false
    }

    /// Ends the run and flushes the outstanding budget work.
    fn finish(&mut self) {
        self.done = true;
        self.in_leaf = false;
        self.claim.flush();
        self.search.ev.flush_budget();
    }
}

impl<T: Tracer> Iterator for AnswerIter<'_, T> {
    type Item = Vec<NodeId>;

    fn next(&mut self) -> Option<Vec<NodeId>> {
        // the new answer is the odometer's current tuple
        self.advance().then(|| self.leaf.tuple.clone())
    }
}

/// Owns the preparation state (tables, optional governor) behind one or
/// more [`AnswerIter`]s — the public streaming entry point.
///
/// ```
/// # use ecrpq_core::enumerate::Enumerator;
/// # use ecrpq_core::prepare::PreparedQuery;
/// # use ecrpq_query::Ecrpq;
/// # use ecrpq_automata::relations;
/// # use std::sync::Arc;
/// let mut db = ecrpq_graph::GraphDb::new();
/// let u = db.add_node("u");
/// let v = db.add_node("v");
/// db.add_edge(u, 'a', v);
/// let mut q = Ecrpq::new(db.alphabet().clone());
/// let x = q.node_var("x");
/// let y = q.node_var("y");
/// let p = q.path_atom(x, "p", y);
/// q.rel_atom("a", Arc::new(relations::word_relation(&[0], 1)), &[p]);
/// q.set_free(&[x, y]);
/// let prepared = PreparedQuery::build(&q).unwrap();
/// let enumerator = Enumerator::new(&db, &prepared);
/// let answers: Vec<Vec<u32>> = enumerator.iter().collect();
/// assert_eq!(answers, vec![vec![u, v]]);
/// ```
pub struct Enumerator<'a> {
    db: &'a GraphDb,
    query: &'a PreparedQuery,
    tables: SharedTables,
    governor: Option<Governor>,
}

impl<'a> Enumerator<'a> {
    /// Prepares the streaming evaluation, no budget: the query's domain
    /// program (the Yannakakis full reducer over
    /// [`PreparedQuery::join_tree`], the independent semijoin sweeps
    /// without one), then the tables the iterators share.
    pub fn new(db: &'a GraphDb, query: &'a PreparedQuery) -> Self {
        Self::with_budget(db, query, &ResourceBudget::unlimited())
    }

    /// As [`Enumerator::new`] under a resource budget: preparation checks
    /// in with the governor, and the iterator stops exactly at
    /// `max_answers` (or any other tripped budget axis). An unlimited
    /// budget installs no governor.
    pub fn with_budget(db: &'a GraphDb, query: &'a PreparedQuery, budget: &ResourceBudget) -> Self {
        let governor = run_governor(budget);
        let tables = SharedTables::build(db, query, governor.as_ref(), &NoopTracer);
        Enumerator {
            db,
            query,
            tables,
            governor,
        }
    }

    /// A fresh streaming iterator over the full answer set.
    pub fn iter(&self) -> AnswerIter<'_, NoopTracer> {
        AnswerIter::with_parts(
            self.db,
            self.query,
            &self.tables,
            self.governor.as_ref(),
            NoopTracer,
        )
    }

    /// How the last iteration ended: `Complete` unless the budget
    /// tripped (meaningless before any iterator was drained).
    pub fn termination(&self) -> Termination {
        self.governor
            .as_ref()
            .map(Governor::termination)
            .unwrap_or(Termination::Complete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_automata::relations;
    use ecrpq_query::Ecrpq;
    use std::sync::Arc;

    fn chain_db_query() -> (GraphDb, Ecrpq) {
        let mut db = GraphDb::new();
        let u = db.add_node("u");
        let v = db.add_node("v");
        let w = db.add_node("w");
        db.add_edge(u, 'a', v);
        db.add_edge(v, 'a', w);
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p = q.path_atom(x, "p", y);
        q.rel_atom("a", Arc::new(relations::word_relation(&[0], 1)), &[p]);
        q.set_free(&[x, y]);
        (db, q)
    }

    #[test]
    fn streams_the_answer_set() {
        let (db, q) = chain_db_query();
        let prepared = PreparedQuery::build(&q).unwrap();
        let streamed: Vec<Vec<NodeId>> = Enumerator::new(&db, &prepared).iter().collect();
        // u -a-> v and v -a-> w, each exactly once
        assert_eq!(streamed, vec![vec![0, 1], vec![1, 2]]);
    }

    /// Restarting one cursor on consecutive chunks of the first variable
    /// walks exactly the full-range search: same assignments in the same
    /// order, and — because the memo survives the restart — the same
    /// counters.
    #[test]
    fn restarted_chunks_walk_the_full_search() {
        let (db, q) = chain_db_query();
        let prepared = PreparedQuery::build(&q).unwrap();
        let tables = SharedTables::build(&db, &prepared, None, &NoopTracer);
        let walk = |chunks: &[Range<NodeId>]| {
            let mut search = SearchCursor::new(&db, &prepared, &tables, None, NoopTracer);
            let mut got = Vec::new();
            // no chunks: one walk over the full range the cursor was built on
            for i in 0..chunks.len().max(1) {
                if let Some(r) = chunks.get(i) {
                    search.restart(r.clone());
                }
                while let Some(a) = search.next_assignment() {
                    // lint:allow(unguarded-loop): test drain of a 3-vertex search
                    got.push(a.to_vec());
                }
            }
            (got, search.ev.stats)
        };
        let full = walk(&[]);
        assert_eq!(full.0, vec![vec![0, 1], vec![1, 2]]);
        assert_eq!(walk(&[0..1, 1..2, 2..3]), full);
        assert_eq!(walk(&[0..2, 2..3]), full);
    }

    /// Which closure row each `Assign` step joins: the end of a track
    /// assigned after its start joins the start's row, a start assigned
    /// after its end joins the end's transposed row, and only the tables
    /// of a program with a backward join build the transpose. Arity-1
    /// atoms join nothing.
    #[test]
    fn closure_joins_follow_the_assignment_order() {
        let mut db = GraphDb::new();
        let u = db.add_node("u");
        let v = db.add_node("v");
        db.add_edge(u, 'a', v);
        let m = db.alphabet().len();
        let shape = |names: &[&str], tracks: &[(usize, usize)]| {
            let mut q = Ecrpq::new(db.alphabet().clone());
            let vars: Vec<NodeVar> = names.iter().map(|n| q.node_var(n)).collect();
            let paths: Vec<_> = tracks
                .iter()
                .enumerate()
                .map(|(i, &(s, d))| q.path_atom(vars[s], &format!("p{i}"), vars[d]))
                .collect();
            let rel = relations::eq_length(paths.len(), m);
            q.rel_atom("eq_len", Arc::new(rel), &paths);
            let prepared = PreparedQuery::build(&q).unwrap();
            let tables = SharedTables::build(&db, &prepared, None, &NoopTracer);
            let joins: Vec<(u32, Vec<RowJoin>)> = atom_assignments(&prepared)
                .into_iter()
                .flatten()
                .map(|a| (a.var, a.joins))
                .collect();
            (joins, tables.co_closure.is_some())
        };
        let join = |other, forward| RowJoin { other, forward };
        // x -p0-> y, x -p1-> y: y joins x's row
        assert_eq!(
            shape(&["x", "y"], &[(0, 1), (0, 1)]),
            (vec![(0, vec![]), (1, vec![join(0, true)])], false)
        );
        // y declared first: x joins y's transposed row
        assert_eq!(
            shape(&["y", "x"], &[(1, 0), (1, 0)]),
            (vec![(0, vec![]), (1, vec![join(0, false)])], true)
        );
        // Example 2.1, x -p0-> y, x' -p1-> y: y joins x forward, x' joins
        // y backward
        assert_eq!(
            shape(&["x", "y", "x'"], &[(0, 1), (2, 1)]),
            (
                vec![
                    (0, vec![]),
                    (1, vec![join(0, true)]),
                    (2, vec![join(1, false)])
                ],
                true
            )
        );
        let (_, q) = chain_db_query();
        let unary = atom_assignments(&PreparedQuery::build(&q).unwrap());
        assert!(unary.iter().flatten().all(|a| a.joins.is_empty()));
    }

    #[test]
    fn odometer_expansion_matches_cartesian() {
        let mut od = Odometer::default();
        let mut expand = |values: &[Option<u32>], n: usize| {
            od.reset(values.iter().copied());
            let mut got = Vec::new();
            while let Some(t) = od.next(n) {
                // lint:allow(unguarded-loop): test drain of a bounded odometer
                got.push(t.to_vec());
            }
            got
        };
        // 2 of 3 free positions open over a 3-vertex domain: 9 tuples
        let got = expand(&[None, Some(1), None], 3);
        assert_eq!(got.len(), 9);
        let set: BTreeSet<Vec<NodeId>> = got.iter().cloned().collect();
        assert_eq!(set.len(), 9);
        for a in 0..3u32 {
            for b in 0..3u32 {
                assert!(set.contains(&vec![a, 1, b]));
            }
        }
        // no open position: exactly one tuple
        assert_eq!(expand(&[Some(2), Some(0)], 3), vec![vec![2, 0]]);
        // open positions over an empty domain: no tuple at all
        assert!(expand(&[None, Some(0)], 0).is_empty());
    }

    #[test]
    fn max_answers_stops_enumeration_at_the_cap() {
        let (db, q) = chain_db_query();
        let prepared = PreparedQuery::build(&q).unwrap();
        let budget = ResourceBudget::default().with_max_answers(1);
        let e = Enumerator::with_budget(&db, &prepared, &budget);
        let got: Vec<Vec<NodeId>> = e.iter().collect();
        assert_eq!(got.len(), 1);
        assert!(!matches!(e.termination(), Termination::Complete));
    }

    #[test]
    fn boolean_query_streams_one_empty_tuple() {
        let (db, mut q) = chain_db_query();
        q.set_free(&[]);
        let prepared = PreparedQuery::build(&q).unwrap();
        let got: Vec<Vec<NodeId>> = Enumerator::new(&db, &prepared).iter().collect();
        assert_eq!(got, vec![Vec::<NodeId>::new()]);
    }

    #[test]
    fn empty_database_streams_nothing() {
        let (_, q) = chain_db_query();
        let db = GraphDb::with_alphabet(q.alphabet().clone());
        let prepared = PreparedQuery::build(&q).unwrap();
        assert_eq!(Enumerator::new(&db, &prepared).iter().count(), 0);
    }

    #[test]
    fn work_counter_is_monotone_and_bounded_per_yield() {
        let (db, q) = chain_db_query();
        let prepared = PreparedQuery::build(&q).unwrap();
        let e = Enumerator::new(&db, &prepared);
        let mut it = e.iter();
        let mut last = it.work();
        let mut delays = Vec::new();
        while it.next().is_some() {
            let w = it.work();
            assert!(w > last);
            delays.push(w - last);
            last = w;
        }
        // 2 answers on a 3-vertex chain: each yield costs at most the
        // whole remaining step program once (pruned domains of size ≤ 2)
        for d in delays {
            assert!(d <= 16, "delay {d} too large");
        }
    }

    #[test]
    fn yannakakis_preparation_streams_identical_answers() {
        let mut db = GraphDb::new();
        let u = db.add_node("u");
        let v = db.add_node("v");
        let w = db.add_node("w");
        db.add_edge(u, 'a', v);
        db.add_edge(v, 'a', w);
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let p = q.path_atom(x, "p", y);
        let r = q.path_atom(y, "r", z);
        let a_word = Arc::new(relations::word_relation(&[0], 1));
        q.rel_atom("la", a_word.clone(), &[p]);
        q.rel_atom("lb", a_word, &[r]);
        q.set_free(&[x, z]);
        let prepared = PreparedQuery::build(&q).unwrap();
        assert!(prepared.join_tree().is_some(), "two-atom chain is acyclic");
        let yan: BTreeSet<Vec<NodeId>> = Enumerator::new(&db, &prepared).iter().collect();
        let (cq, rdb, _) = crate::to_cq::ecrpq_to_cq(&db, &prepared);
        assert_eq!(yan, crate::cq_eval::answers_cq(&rdb, &cq));
        assert_eq!(yan, BTreeSet::from([vec![u, w]]));
    }
}
