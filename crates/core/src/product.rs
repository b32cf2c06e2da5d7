//! The direct product evaluator (Prop. 2.2 / Lemma 4.2 algorithm).
//!
//! After the Lemma 4.1 merge, every connected component of the relation
//! subquery is a single atom `R(π₁,…,π_k)` with reachability atoms
//! `xᵢ →πᵢ yᵢ`. For a fixed assignment of the node variables, the atom is
//! satisfiable iff an accepting configuration is reachable in the product
//! of `k` copies of the database with `R`'s automaton: a configuration is
//! `(q, v₁,…,v_k)` — the relation state plus one database position per
//! track — starting at `(q₀, σ(x₁),…,σ(x_k))`; a convolution row moves each
//! non-`⊥` track along a matching edge, a `⊥` track must already rest at
//! its target. This is the NL-per-component procedure of Lemma 4.2,
//! implemented as BFS.
//!
//! The top level enumerates node assignments by backtracking, one merged
//! atom at a time, memoizing feasibility per (atom, endpoint tuple). Worst
//! case `O(|V|^{#nodevars})` assignments times `O(|Q|·|V|^k)` per check —
//! the PSPACE behaviour the paper proves unavoidable in general. The
//! backtracking itself is the step program of
//! [`crate::enumerate`]'s search cursor, which joins an endpoint's
//! candidates with the reachability closure before they reach a check;
//! this module holds what it calls per step.
//!
//! An atom of arity 1 (a plain CRPQ atom `x -L-> y`) skips the product
//! BFS: its product is `G × A_L`, so one single-track sweep
//! (`semijoin::sweep`) from one endpoint value decides every pair
//! sharing that value. The endpoint with the smaller pruned domain is the
//! anchor, chosen once per atom (`choose_anchor`); the reached set is
//! memoized per (atom, anchor value) as a bit set over `|V|`, so a check
//! costs one sweep per distinct anchor value and an O(1) bit test after —
//! `min(|D(x)|, |D(y)|)` sweeps instead of `|D(x)|·|D(y)|` searches.
//!
//! The evaluator splits its state into `SharedTables` (read-only after
//! construction: trimmed automata, dense transition tables, per-track
//! projections, enumeration domains, arity-1 anchors, the reachability
//! closure and its transpose) and the per-search mutable
//! state (`Evaluator`: memos, the visited set and queue, counters). The
//! split is what makes the parallel engine ([`crate::engine`]) cheap:
//! workers borrow one `SharedTables` and each carry a thread-local search
//! cursor with its own `Evaluator`. The domains come from the query's own
//! domain program: the Yannakakis full reducer over its join tree
//! (`PreparedQuery::join_tree`), the independent semijoin sweeps without
//! one — so every entry point evaluates an acyclic query the same way.
//!
//! The hot BFS of atoms of arity ≥ 2 has two routines, chosen per atom
//! when the tables are built. An atom of arity 2 or 3 whose dense
//! configuration space fits `BITMAP_MAX_BITS` runs the word-packed bitmap
//! kernel of `crate::bitbfs`. Every other atom, and every witness search,
//! runs the flat BFS: CSR slice lookups for successors, row-grouped dense
//! transition tables so each distinct convolution row's successor options
//! are computed once and shared across its target states, an odometer
//! over option slices, and a queue of flat `(state, p₁…p_k)` words. Its
//! visited set holds one packed `u64` per configuration (a radix-`|V|`
//! number, or the configuration's words where that would overflow), so a
//! check allocates and zeroes nothing sized by the configuration space:
//! the set and the queue live in the `Evaluator`, are cleared per BFS and
//! keep their capacity, and their growth is charged to the budget
//! governor. Both routines share the domains, the step program and the
//! memo, so the choice never changes an answer, and both count a
//! configuration when they expand it: the flat BFS per pop, the kernel
//! per frontier word (its popcount) — the unit the governor is charged.
//! A worker allocates an atom's kernel bitmaps, and charges them to the
//! governor, on the atom's first kernel check.

use crate::bitbfs::{self, BitBfsInput, BitScratch};
use crate::enumerate::{atom_assignments, free_values, AnswerIter, Odometer, SearchCursor};
use crate::fnv::{FnvHashMap, FnvHashSet};
use crate::governor::{Governor, Pacer};
use crate::prepare::PreparedQuery;
use crate::semijoin::{self, Direction, Projection, Seeds, SweepScratch};
use crate::trace::{NoopTracer, Phase, PhaseSpan, Tracer};
use ecrpq_automata::{BitSet, Nfa, Row, StateId, Track};
use ecrpq_graph::{Edge, GraphDb, NodeId, Path};
use ecrpq_query::{NodeVar, PathVar};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};

/// A full satisfying assignment: node values plus one concrete path per
/// path variable (“(f_N, f_P)” in the paper).
#[derive(Debug, Clone)]
pub struct Witness {
    /// `nodes[v]` = database vertex assigned to node variable `v`.
    pub nodes: Vec<NodeId>,
    /// One path per path variable, sorted by variable.
    pub paths: Vec<(PathVar, Path)>,
}

/// Counters exposed for the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProductStats {
    /// Product configurations expanded across all feasibility checks:
    /// product BFS expansions for atoms of arity ≥ 2 (flat BFS pops, or
    /// the bitmap kernel's expanded frontier bits), sweep pops for arity-1
    /// atoms — the same count as the tracer's `ProductBfs` items and the
    /// BFS work charged to the governor.
    pub configurations: u64,
    /// Feasibility checks actually run (memo misses): product BFS runs
    /// plus arity-1 sweeps.
    pub checks: u64,
    /// Memoized feasibility lookups that hit: a known endpoint tuple, or
    /// an arity-1 anchor value already swept. `checks + cache_hits` is
    /// the number of checks asked (closure rejects aside), whatever the
    /// thread count.
    pub cache_hits: u64,
    /// Node-variable assignments attempted (innermost count).
    pub assignments: u64,
    /// Peak BFS queue length (arity ≥ 2) or sweep stack length (arity 1)
    /// across all checks.
    pub frontier_peak: u64,
    /// Candidate values kept across semijoin-constrained variable domains.
    pub domain_kept: u64,
    /// Candidate values removed from variable domains by semijoin pruning.
    pub domain_pruned: u64,
    /// Amortized budget check-ins executed (zero on ungoverned runs).
    pub budget_checks: u64,
    /// Hot loops abandoned because the budget tripped (zero on complete
    /// runs).
    pub budget_aborts: u64,
}

impl ProductStats {
    /// Accumulates another worker's counters (saturating, so merged totals
    /// can never wrap even on pathological workloads). Work counters add;
    /// `frontier_peak` merges by maximum, and the domain counters — which
    /// describe the shared tables, identical for every worker — merge by
    /// maximum so they stay a property of the run, not of the worker count.
    pub fn merge(&mut self, other: &ProductStats) {
        self.configurations = self.configurations.saturating_add(other.configurations);
        self.checks = self.checks.saturating_add(other.checks);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.assignments = self.assignments.saturating_add(other.assignments);
        self.frontier_peak = self.frontier_peak.max(other.frontier_peak);
        self.domain_kept = self.domain_kept.max(other.domain_kept);
        self.domain_pruned = self.domain_pruned.max(other.domain_pruned);
        self.budget_checks = self.budget_checks.saturating_add(other.budget_checks);
        self.budget_aborts = self.budget_aborts.saturating_add(other.budget_aborts);
    }
}

/// The data layout of the product evaluator: CSR adjacency, dense
/// row-grouped transition tables and semijoin-pruned domains. It has one
/// variant, and the BFS routine is chosen per atom, not by this value.
/// The type, `EvalOptions::layout` and `PreparedTables::build`'s layout
/// argument stay only because the served-request benchmark names them;
/// the next change to that benchmark removes all three.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Layout {
    /// The one layout.
    #[default]
    Flat,
}

/// Evaluates a prepared Boolean query on `db` via the product algorithm.
///
/// # Panics
/// Panics if the query's alphabet size differs from the database's.
pub fn eval_product(db: &GraphDb, query: &PreparedQuery) -> bool {
    eval_product_with_stats(db, query).0
}

/// As [`eval_product`], returning the work counters.
pub fn eval_product_with_stats(db: &GraphDb, query: &PreparedQuery) -> (bool, ProductStats) {
    let tables = SharedTables::build(db, query, None, &NoopTracer);
    let mut search = SearchCursor::new(db, query, &tables, None, NoopTracer);
    let found = search.next_assignment().is_some();
    (found, search.ev.stats)
}

/// All answers (tuples over the free node variables), via the product
/// algorithm.
pub fn answers_product(db: &GraphDb, query: &PreparedQuery) -> BTreeSet<Vec<NodeId>> {
    let tables = SharedTables::build(db, query, None, &NoopTracer);
    let mut it = AnswerIter::with_parts(db, query, &tables, None, NoopTracer);
    it.run();
    it.into_parts().0
}

/// A witness for a Boolean query, if satisfiable. Variables no atom
/// constrains default to vertex 0.
pub fn witness_product(db: &GraphDb, query: &PreparedQuery) -> Option<Witness> {
    let tables = SharedTables::build(db, query, None, &NoopTracer);
    let mut search = SearchCursor::new(db, query, &tables, None, NoopTracer);
    let nodes = search
        .next_assignment()?
        .iter()
        .map(|&x| x.max(0) as NodeId)
        .collect();
    Some(search.ev.witness(nodes))
}

/// All answers, each with one concrete witness (node assignment + paths).
/// The per-answer witness uses the first satisfying assignment found.
pub fn answers_with_witnesses(db: &GraphDb, query: &PreparedQuery) -> Vec<(Vec<NodeId>, Witness)> {
    let tables = SharedTables::build(db, query, None, &NoopTracer);
    let mut search = SearchCursor::new(db, query, &tables, None, NoopTracer);
    let nv = db.num_nodes();
    // one full assignment per distinct free tuple
    let mut reps: BTreeMap<Vec<NodeId>, Vec<NodeId>> = BTreeMap::new();
    let mut odometer = Odometer::default();
    while let Some(assignment) = search.next_assignment() {
        // lint:allow(unguarded-loop): ungoverned; the cursor paces its own steps
        odometer.reset(free_values(assignment, &query.free));
        while let Some(tuple) = odometer.next(nv) {
            // lint:allow(unguarded-loop): |V|^f tuples of one found assignment
            if !reps.contains_key(tuple) {
                // the representative assignment must agree with the
                // expanded free choices, not default to vertex 0
                let mut rep: Vec<NodeId> = assignment.iter().map(|&x| x.max(0) as NodeId).collect();
                for (&NodeVar(v), &c) in query.free.iter().zip(tuple) {
                    rep[v as usize] = c;
                }
                reps.insert(tuple.to_vec(), rep);
            }
        }
    }
    reps.into_iter()
        .map(|(tuple, nodes)| (tuple, search.ev.witness(nodes)))
        .collect()
}

pub(crate) const UNASSIGNED: i64 = -1;

/// Bit budget of the all-pairs reachability closure: build it only while
/// `|V|² ≤ 2²⁷` bits (16 MiB, |V| ≲ 11.5k), and only when some atom has
/// arity ≥ 2 (arity-1 checks never consult it). Beyond that the closure's
/// O(|V|²) memory and build time would dominate any evaluation — large
/// graphs rely on the semijoin pass for endpoint pruning instead.
const CLOSURE_MAX_BITS: u128 = 1 << 27;

/// Bit budget of one worker's arity-1 sweep memo: an atom keeps one
/// reached set (`|V|` bits) per anchor value while `|D(anchor)|·|V| ≤
/// 2²⁷` bits (16 MiB). Past it the atom anchors on the endpoint the step
/// program assigns first and keeps only that value's current sweep.
const SWEEP_MEMO_MAX_BITS: u128 = 1 << 27;

/// Bit budget of the bitmap kernel's scratch: it keeps three bitmaps
/// (visited + two frontiers) over an atom's `|Q|·|V|^k` configurations,
/// so an atom runs the kernel while `3·|Q|·|V|^k ≤ 2²⁷` bits (16 MiB of
/// scratch per worker). A one-state arity-2 atom fits up to about 6.7k
/// vertices, an arity-3 one up to about 355.
const BITMAP_MAX_BITS: u128 = 1 << 27;

/// Arity bound of the bitmap kernel: beyond triple convolutions the
/// per-configuration decode (k divisions) and the odometer bookkeeping
/// wash out the word-packing win, so wider atoms run the flat scalar path
/// (its visited set costs per configuration visited). Arity-1 atoms never
/// reach the kernel: their checks run the single-track sweep.
const BITMAP_MAX_ARITY: usize = 3;

/// How the checks of one arity-1 atom are answered, chosen once per atom
/// by [`choose_anchor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Anchor {
    /// Sweep forwards from `(q₀, x)` (`true`) or backwards from `(F, y)`.
    pub(crate) forward: bool,
    /// Keep every anchor value's sweep (`true`), or only the current one.
    pub(crate) memo_all: bool,
}

/// The anchor policy of an arity-1 atom `x -L-> y`, from the pruned
/// domain sizes of `x` and `y` (`None` = unconstrained, counted as `nv`),
/// the vertex count, whether the step program assigns `x` no later than
/// `y`, and whether the projection has `⊥` rows (which only a backward
/// sweep decides exactly).
///
/// Anchor on the endpoint with the smaller domain (ties go to the one
/// assigned first) and keep one sweep per anchor value. If those sweeps
/// would pass [`SWEEP_MEMO_MAX_BITS`], anchor on the endpoint assigned
/// first instead — the outer loop of the step program, so consecutive
/// checks share its value — and keep only the current sweep.
pub(crate) fn choose_anchor(
    dom_x: Option<usize>,
    dom_y: Option<usize>,
    nv: usize,
    x_first: bool,
    has_pad: bool,
) -> Anchor {
    let (dx, dy) = (dom_x.unwrap_or(nv), dom_y.unwrap_or(nv));
    let forward = !has_pad && (dx < dy || (dx == dy && x_first));
    let anchored = if forward { dx } else { dy };
    if (anchored as u128) * (nv as u128) <= SWEEP_MEMO_MAX_BITS {
        Anchor {
            forward,
            memo_all: true,
        }
    } else {
        Anchor {
            forward: x_first && !has_pad,
            memo_all: false,
        }
    }
}

/// One row-class group of a state's outgoing transitions: the interned
/// row id plus the range of target states sharing that row. Grouping is
/// what lets the BFS compute the successor-option slices once per distinct
/// row instead of once per transition.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowGroup {
    pub(crate) row: u32,
    pub(crate) targets_start: u32,
    pub(crate) targets_end: u32,
}

/// Dense transition tables of one trimmed atom automaton:
/// `groups[state_offsets[q]..state_offsets[q+1]]` are state `q`'s
/// row-class groups, each indexing a flat `targets` column.
#[derive(Debug, Clone)]
pub(crate) struct DenseAtom {
    pub(crate) state_offsets: Vec<u32>,
    pub(crate) groups: Vec<RowGroup>,
    pub(crate) targets: Vec<StateId>,
}

/// Dense tables for all atoms, with row interning **shared across
/// tracks/atoms**: every distinct convolution row is stored once in a
/// flat `row_data` column (rows have different arities, hence the bounds
/// vector rather than fixed stride).
#[derive(Debug, Clone)]
pub(crate) struct DenseTables {
    row_data: Vec<Track>,
    row_bounds: Vec<u32>,
    pub(crate) atoms: Vec<DenseAtom>,
}

impl DenseTables {
    fn build(automata: &[Nfa<Row>]) -> DenseTables {
        let mut interner: FnvHashMap<Row, u32> = FnvHashMap::default();
        let mut row_data: Vec<Track> = Vec::new();
        let mut row_bounds: Vec<u32> = vec![0];
        let mut atoms = Vec::with_capacity(automata.len());
        for nfa in automata {
            let nq = nfa.num_states();
            let mut state_offsets = Vec::with_capacity(nq + 1);
            let mut groups: Vec<RowGroup> = Vec::new();
            let mut targets: Vec<StateId> = Vec::new();
            state_offsets.push(0u32);
            for q in 0..nq as StateId {
                // `Nfa::normalize` sorts transitions by (row, target), so
                // equal rows are adjacent and one pass groups them
                let trans = nfa.transitions_from(q);
                let mut i = 0;
                while i < trans.len() {
                    let row = &trans[i].0;
                    let rid = *interner.entry(row.clone()).or_insert_with(|| {
                        row_data.extend(row.iter().copied());
                        row_bounds.push(row_data.len() as u32);
                        (row_bounds.len() - 2) as u32
                    });
                    let targets_start = targets.len() as u32;
                    while i < trans.len() && &trans[i].0 == row {
                        targets.push(trans[i].1);
                        i += 1;
                    }
                    groups.push(RowGroup {
                        row: rid,
                        targets_start,
                        targets_end: targets.len() as u32,
                    });
                }
                state_offsets.push(groups.len() as u32);
            }
            atoms.push(DenseAtom {
                state_offsets,
                groups,
                targets,
            });
        }
        DenseTables {
            row_data,
            row_bounds,
            atoms,
        }
    }

    #[inline]
    pub(crate) fn row_of(&self, rid: u32) -> &[Track] {
        &self.row_data
            [self.row_bounds[rid as usize] as usize..self.row_bounds[rid as usize + 1] as usize]
    }
}

/// Read-only evaluation state, built once per (database, query) pair and
/// shared by every worker of a parallel run.
pub(crate) struct SharedTables {
    /// ε-free trimmed relation automata, one per merged atom.
    automata: Vec<Nfa<Row>>,
    /// Per atom: whether its configurations `(q, p₁…p_k)` pack into one
    /// radix-`|V|` `u64` (`|Q|·|V|^k ≤ 2⁶⁴`); the BFS of an atom past
    /// that keys its visited set by the configuration's words.
    packs: Vec<bool>,
    /// Per atom: the configuration count of its bitmap kernel, or `None`
    /// when it runs the flat BFS (arity outside 2–3, or a space past
    /// [`BITMAP_MAX_BITS`]). Arity-1 atoms run neither: their sweep.
    bitmap_sizes: Vec<Option<usize>>,
    /// Label-oblivious reachability closure: `closure[v]` = vertices
    /// reachable from `v`. A necessary condition checked before any
    /// product BFS — `ends[i]` unreachable from `starts[i]` kills the
    /// check in O(k). `None` when no atom has arity ≥ 2 (arity-1 checks
    /// are decided by their sweep, which implies it) or when `|V|²` bits
    /// exceed [`CLOSURE_MAX_BITS`] (the closure is quadratic in the vertex
    /// count, so million-node graphs must skip it); skipping only loses a
    /// pruning filter, never soundness.
    pub(crate) closure: Option<Vec<BitSet>>,
    /// The transpose of `closure`: `co_closure[v]` = vertices that reach
    /// `v`. Built only when the step program joins a track's start with
    /// its already assigned end (`enumerate::atom_assignments`).
    pub(crate) co_closure: Option<Vec<BitSet>>,
    /// Per atom, per track: the automaton projected onto the track, the
    /// input of every semijoin sweep and of the arity-1 checks.
    projections: Vec<Vec<Projection>>,
    /// Per atom: how its checks sweep (`Some` exactly for arity 1).
    anchors: Vec<Option<Anchor>>,
    /// Dense row-grouped transition tables.
    dense: DenseTables,
    /// Semijoin-pruned (or, over the query's join tree,
    /// Yannakakis-consistent) per-variable enumeration domains; `None` =
    /// the full vertex range.
    domains: Vec<Option<Vec<NodeId>>>,
    /// Totals behind `domains`, surfaced into [`ProductStats`].
    domain_kept: u64,
    domain_pruned: u64,
}

impl SharedTables {
    /// Builds the tables of `query` over `db`, reporting the
    /// preparation work (closure rows, dense tables) under
    /// [`Phase::Prepare`] and the endpoint-domain sweeps to `tracer`. The
    /// domain program follows the query: over its join tree
    /// ([`PreparedQuery::join_tree`]) the full Yannakakis semijoin program
    /// runs ([`Phase::YannakakisUp`]/[`Phase::YannakakisDown`]; globally
    /// consistent domains), otherwise the independent sweeps of
    /// [`Phase::Semijoin`] (per-atom domains).
    ///
    /// With a `governor`, the closure build and the semijoin sweeps check
    /// in cooperatively. When the budget trips mid-build, the remaining
    /// closure rows stay empty and the remaining sweeps are skipped — both
    /// are necessary-condition filters, so the truncation can only *drop*
    /// answers, which is sound under the non-`Complete` termination the
    /// governor then reports.
    ///
    /// # Panics
    /// Panics if the query's alphabet size differs from the database's.
    pub(crate) fn build<T: Tracer>(
        db: &GraphDb,
        query: &PreparedQuery,
        governor: Option<&Governor>,
        tracer: &T,
    ) -> Self {
        let prepare_span = PhaseSpan::start(tracer, Phase::Prepare);
        assert_eq!(
            db.alphabet().len(),
            query.num_symbols,
            "query alphabet size {} does not match database alphabet size {}",
            query.num_symbols,
            db.alphabet().len()
        );
        // trim: states that cannot reach acceptance would only bloat the
        // product configuration space
        let automata: Vec<Nfa<Row>> = query
            .atoms
            .iter()
            .map(|a| a.rel.nfa().remove_epsilon().trim())
            .collect();
        let nv = db.num_nodes().max(1) as u128;
        let packs: Vec<bool> = query
            .atoms
            .iter()
            .zip(&automata)
            .map(|(a, nfa)| {
                // keys run up to |Q|·|V|^k − 1; a space past u128 is past
                // u64 too
                nv.checked_pow(a.rel.arity() as u32)
                    .and_then(|s| s.checked_mul(nfa.num_states() as u128))
                    .is_some_and(|space| space <= 1 << 64)
            })
            .collect();
        let bitmap_sizes: Vec<Option<usize>> = query
            .atoms
            .iter()
            .zip(&automata)
            .map(|(a, nfa)| {
                let arity = a.rel.arity();
                let space = nv.pow(arity as u32) * nfa.num_states() as u128;
                ((2..=BITMAP_MAX_ARITY).contains(&arity) && 3 * space <= BITMAP_MAX_BITS)
                    .then_some(space as usize)
            })
            .collect();
        let projections: Vec<Vec<Projection>> = query
            .atoms
            .iter()
            .zip(&automata)
            .map(|(a, nfa)| {
                (0..a.rel.arity())
                    .map(|t| Projection::new(nfa, t))
                    .collect()
            })
            .collect();
        let n = db.num_nodes();
        let shape = atom_assignments(query);
        let synchronized = query.atoms.iter().any(|a| a.rel.arity() >= 2);
        let closure = (synchronized && (n as u128) * (n as u128) <= CLOSURE_MAX_BITS).then(|| {
            // quadratic in |V| — skipped on large graphs (only a filter).
            // One checkpoint per source vertex: `reachable_from` is O(E),
            // so the deadline is honoured per row
            (0..n as NodeId)
                .map(|v| {
                    if governor.is_some_and(|g| g.checkpoint(1)) {
                        BitSet::new(n)
                    } else {
                        ecrpq_graph::paths::reachable_from(db, v)
                    }
                })
                .collect::<Vec<BitSet>>()
        });
        let backward = shape
            .iter()
            .flatten()
            .any(|a| a.joins.iter().any(|j| !j.forward));
        let co_closure = closure.as_deref().filter(|_| backward).map(transpose);
        // freeze eagerly so the CSR build happens here, once, and not
        // inside the first worker's first BFS
        db.freeze();
        let dense = DenseTables::build(&automata);
        tracer.count(Phase::Prepare, n as u64);
        prepare_span.finish(tracer);
        let pruned = if let Some(tree) = query.join_tree() {
            let pruned =
                semijoin::yannakakis_domains(db, query, &projections, tree, governor, tracer);
            tracer.prune(Phase::YannakakisDown, pruned.pruned);
            pruned
        } else {
            let semijoin_span = PhaseSpan::start(tracer, Phase::Semijoin);
            let pruned = semijoin::prune_domains(db, query, &projections, governor, tracer);
            tracer.prune(Phase::Semijoin, pruned.pruned);
            semijoin_span.finish(tracer);
            pruned
        };
        // arity-1 anchors, from the pruned domain sizes and the order in
        // which the step program assigns the endpoints
        let mut rank = vec![usize::MAX; query.num_node_vars];
        for (i, a) in shape.iter().flatten().enumerate() {
            rank[a.var as usize] = i;
        }
        let size = |v: NodeVar| pruned.domains[v.0 as usize].as_ref().map(Vec::len);
        let anchors = query
            .atoms
            .iter()
            .zip(&projections)
            .map(
                |(a, tracks)| match (a.endpoints.as_slice(), tracks.as_slice()) {
                    ([(x, y)], [proj]) => Some(choose_anchor(
                        size(*x),
                        size(*y),
                        n,
                        rank[x.0 as usize] <= rank[y.0 as usize],
                        proj.has_pad(),
                    )),
                    _ => None,
                },
            )
            .collect();
        SharedTables {
            automata,
            packs,
            bitmap_sizes,
            closure,
            co_closure,
            projections,
            anchors,
            dense,
            domains: pruned.domains,
            domain_kept: pruned.kept,
            domain_pruned: pruned.pruned,
        }
    }

    /// The pruned enumeration domain of a node variable, if constrained.
    #[inline]
    pub(crate) fn domain(&self, var: u32) -> Option<&[NodeId]> {
        self.domains.get(var as usize).and_then(|d| d.as_deref())
    }

    /// These tables with every atom on the flat BFS: the reference the
    /// bitmap kernel is tested against.
    #[cfg(test)]
    pub(crate) fn flat_only(mut self) -> Self {
        self.bitmap_sizes.fill(None);
        self
    }

    /// Whether the semijoin pass emptied some variable's domain. Pruning is
    /// sound, so an empty domain proves the query has no satisfying
    /// assignment on this database — every entry point returns its empty
    /// result without running a single product check.
    pub(crate) fn unsatisfiable(&self) -> bool {
        self.domains
            .iter()
            .any(|d| d.as_ref().is_some_and(|dom| dom.is_empty()))
    }
}

/// The transpose of a square bit matrix: `out[u]` holds `v` iff
/// `rows[v]` holds `u`.
fn transpose(rows: &[BitSet]) -> Vec<BitSet> {
    let mut out = vec![BitSet::new(rows.len()); rows.len()];
    for (v, row) in rows.iter().enumerate() {
        for u in row.iter_ones() {
            out[u].insert(v);
        }
    }
    out
}

/// How the visited set and the witness parent map name a configuration
/// `[q, p₁, …, p_k]`: one radix-`|V|` `u64` while the atom's space fits
/// it (`SharedTables::packs`), the configuration's words otherwise.
trait ConfigKey: Eq + std::hash::Hash + Clone {
    /// Bytes one set entry of a `width`-word configuration holds: its
    /// slot, the table's control byte and the key's heap words.
    fn entry_bytes(width: usize) -> u64;
    fn pack(cfg: &[u32], nv: u64) -> Self;
    fn unpack(&self, nv: u64, cfg: &mut [u32]);
}

impl ConfigKey for u64 {
    fn entry_bytes(_width: usize) -> u64 {
        9
    }

    #[inline]
    fn pack(cfg: &[u32], nv: u64) -> u64 {
        cfg[1..]
            .iter()
            .fold(u64::from(cfg[0]), |key, &p| key * nv + u64::from(p))
    }

    fn unpack(&self, nv: u64, cfg: &mut [u32]) {
        let mut key = *self;
        for slot in cfg[1..].iter_mut().rev() {
            *slot = (key % nv) as u32;
            key /= nv;
        }
        cfg[0] = key as u32;
    }
}

impl ConfigKey for Box<[u32]> {
    fn entry_bytes(width: usize) -> u64 {
        17 + 4 * width as u64
    }

    #[inline]
    fn pack(cfg: &[u32], _nv: u64) -> Box<[u32]> {
        cfg.into()
    }

    fn unpack(&self, _nv: u64, cfg: &mut [u32]) {
        cfg.copy_from_slice(self);
    }
}

/// A visited set of the flat BFS, cleared per BFS and keeping its
/// capacity, with the bytes of that capacity charged to the governor.
#[derive(Default)]
struct Visited<K> {
    set: FnvHashSet<K>,
    charged: u64,
}

/// The flat BFS's visited sets, one per key shape.
#[derive(Default)]
struct VisitedSets {
    packed: Visited<u64>,
    wide: Visited<Box<[u32]>>,
}

/// The flat BFS's reusable buffers: the FIFO queue of `(state, p₁…p_k)`
/// words (and the bytes of its capacity charged to the governor), the
/// popped and the candidate configuration, and the odometer over
/// successor options.
#[derive(Default)]
struct BfsBuffers {
    queue: Vec<u32>,
    queue_charged: u64,
    cur: Vec<u32>,
    next: Vec<u32>,
    odometer: Vec<usize>,
}

/// Charges the part of `bytes` of kept capacity that `charged` does not
/// cover yet. Capacity outlives a search, so only growth is charged.
fn charge_growth(governor: &Governor, charged: &mut u64, bytes: u64) {
    if bytes > *charged {
        governor.charge_memory(bytes - *charged);
        *charged = bytes;
    }
}

pub(crate) struct Evaluator<'a, T: Tracer = NoopTracer> {
    db: &'a GraphDb,
    pub(crate) query: &'a PreparedQuery,
    tables: &'a SharedTables,
    /// Verdicts of atoms of arity ≥ 2, per atom, keyed by `starts ++ ends`.
    memo: Vec<FnvHashMap<Box<[NodeId]>, bool>>,
    /// The `starts ++ ends` key of the current memo lookup.
    memo_key: Vec<NodeId>,
    /// Per atom: the reached sets of its arity-1 sweeps, per anchor value
    /// (at most one entry when the atom's [`Anchor`] keeps only the
    /// current sweep; empty for atoms of arity ≥ 2).
    sweeps: Vec<FnvHashMap<NodeId, BitSet>>,
    /// Visited bitmap shared by this worker's arity-1 sweeps.
    sweep_scratch: SweepScratch,
    pub(crate) stats: ProductStats,
    /// Configuration trace of the last witness-mode BFS.
    last_witness_configs: Option<Vec<(StateId, Vec<NodeId>)>>,
    /// Visited sets and buffers of the flat BFS, sized by the largest
    /// BFS run so far rather than by any atom's configuration space.
    visited: VisitedSets,
    bfs: BfsBuffers,
    /// Per-atom bitmap kernel scratch (visited/frontier/next bitmaps +
    /// word lists), allocated (and charged to the governor) by the atom's
    /// first kernel check; `None` before it and for atoms that run the
    /// flat BFS.
    bit_scratch: Vec<Option<BitScratch>>,
    /// Cooperative cancellation for parallel Boolean search: checked at
    /// every step of the search cursor; a worker that finds a satisfying
    /// assignment sets it and the others abandon their chunks.
    stop: Option<&'a AtomicBool>,
    /// Per-worker budget bookkeeping: counts work units (one per
    /// feasibility check plus one per BFS configuration) and checks in
    /// with the shared governor every ~4k units. A no-op when the run is
    /// ungoverned.
    pacer: Pacer<'a>,
    /// Observability hooks; [`NoopTracer`] (the default) erases them.
    tracer: T,
}

impl<'a, T: Tracer> Evaluator<'a, T> {
    /// The per-search state over `tables`, recording per-phase counters
    /// and times into `tracer`. With [`NoopTracer`] this monomorphizes to
    /// the untraced evaluator exactly.
    pub(crate) fn with_tables_traced(
        db: &'a GraphDb,
        query: &'a PreparedQuery,
        tables: &'a SharedTables,
        tracer: T,
    ) -> Self {
        let sweep_space = tables
            .anchors
            .iter()
            .zip(&tables.projections)
            .filter(|(anchor, _)| anchor.is_some())
            .map(|(_, tracks)| tracks[0].num_states() * db.num_nodes())
            .max();
        Evaluator {
            db,
            query,
            tables,
            memo: vec![FnvHashMap::default(); query.atoms.len()],
            memo_key: Vec::new(),
            sweeps: vec![FnvHashMap::default(); query.atoms.len()],
            sweep_scratch: sweep_space.map(SweepScratch::new).unwrap_or_default(),
            stats: ProductStats {
                domain_kept: tables.domain_kept,
                domain_pruned: tables.domain_pruned,
                ..ProductStats::default()
            },
            last_witness_configs: None,
            visited: VisitedSets::default(),
            bfs: BfsBuffers::default(),
            bit_scratch: (0..query.atoms.len()).map(|_| None).collect(),
            stop: None,
            pacer: Pacer::new(None),
            tracer,
        }
    }

    /// Installs the cross-worker cancellation flag.
    pub(crate) fn set_stop(&mut self, stop: &'a AtomicBool) {
        self.stop = Some(stop);
    }

    /// Installs the shared budget governor and charges this worker's
    /// fixed allocation to the tracked-memory estimate: the sweep bitmap.
    /// An atom's kernel bitmaps are charged when its first kernel check
    /// allocates them, and the flat BFS's visited sets and queue as they
    /// grow (`charge_growth`), so a search pays for the atoms it checks,
    /// not for every atom inside the gate.
    pub(crate) fn set_governor(&mut self, governor: &'a Governor) {
        governor.charge_memory(self.sweep_scratch.bytes());
        self.pacer = Pacer::new(Some(governor));
    }

    /// Flushes locally counted work units to the governor; call when a
    /// worker finishes so the shared work counter stays accurate.
    pub(crate) fn flush_budget(&mut self) {
        self.pacer.flush();
    }

    /// Combined cooperative-cancellation check: the parallel early-success
    /// flag or the budget governor's stop flag.
    #[inline]
    pub(crate) fn should_stop(&self) -> bool {
        self.stop.is_some_and(|s| s.load(Ordering::Relaxed)) || self.pacer.stopped()
    }

    /// The witness of a satisfying node assignment: one concrete path per
    /// path variable, rebuilt by a witness-mode BFS per merged atom.
    pub(crate) fn witness(&mut self, nodes: Vec<NodeId>) -> Witness {
        let query = self.query;
        let mut paths: Vec<(PathVar, Path)> = Vec::new();
        for (ai, atom) in query.atoms.iter().enumerate() {
            let starts: Vec<NodeId> = atom
                .endpoints
                .iter()
                .map(|&(NodeVar(s), _)| nodes[s as usize])
                .collect();
            let ends: Vec<NodeId> = atom
                .endpoints
                .iter()
                .map(|&(_, NodeVar(d))| nodes[d as usize])
                .collect();
            let atom_paths = self
                .component_witness(ai, &starts, &ends)
                // lint:allow(unwrap): the search only yields feasible assignments
                .expect("feasible atom must yield a witness");
            paths.extend(atom.path_vars.iter().copied().zip(atom_paths));
        }
        paths.sort_by_key(|(p, _)| *p);
        Witness { nodes, paths }
    }

    /// Memoized product-reachability check for one merged atom with fixed
    /// endpoints.
    pub(crate) fn feasible(&mut self, atom_idx: usize, starts: &[NodeId], ends: &[NodeId]) -> bool {
        // one work unit per check keeps the deadline honoured even when
        // every check is a closure reject or a memo hit (no BFS configs)
        let _ = self.pacer.tick_traced(&self.tracer, Phase::ProductBfs);
        if let Some(anchor) = self.tables.anchors[atom_idx] {
            return self.swept_feasible(atom_idx, anchor, starts[0], ends[0]);
        }
        // necessary condition: every target plain-reachable from its
        // source (filter only — skipped when the graph is too large for
        // the quadratic closure)
        if let Some(closure) = &self.tables.closure {
            if starts
                .iter()
                .zip(ends)
                .any(|(&s, &e)| !closure[s as usize].contains(e as usize))
            {
                return false;
            }
        }
        self.memo_key.clear();
        self.memo_key.extend_from_slice(starts);
        self.memo_key.extend_from_slice(ends);
        if let Some(&r) = self.memo[atom_idx].get(self.memo_key.as_slice()) {
            self.stats.cache_hits += 1;
            return r;
        }
        self.stats.checks += 1;
        let span = PhaseSpan::start(&self.tracer, Phase::ProductBfs);
        let result = self.product_bfs(atom_idx, starts, ends, false).is_some();
        span.finish(&self.tracer);
        if !result && self.pacer.stopped() {
            // the BFS may have been truncated by the budget, so an
            // "infeasible" verdict is unproven — report it (losing answers
            // is sound under a non-`Complete` termination) but never
            // memoize it
            return false;
        }
        if let Some(g) = self.pacer.governor() {
            // coarse per-entry estimate: the endpoint key + value +
            // hash-table overhead
            g.charge_memory(64 + 8 * starts.len() as u64);
        }
        self.memo[atom_idx].insert(self.memo_key.as_slice().into(), result);
        result
    }

    /// The check of an arity-1 atom `x -L-> y` at `(x, y)`: a bit test in
    /// the reached set of the anchor value's sweep, swept on a memo miss.
    /// A sweep cut short by the budget proves nothing and is never kept
    /// (the check reports "infeasible", which only loses answers, under
    /// the non-`Complete` termination the governor then reports).
    fn swept_feasible(&mut self, atom_idx: usize, anchor: Anchor, x: NodeId, y: NodeId) -> bool {
        let (key, probe, direction) = if anchor.forward {
            (x, y, Direction::Forward)
        } else {
            (y, x, Direction::Backward)
        };
        if let Some(reached) = self.sweeps[atom_idx].get(&key) {
            self.stats.cache_hits += 1;
            return reached.contains(probe as usize);
        }
        self.stats.checks += 1;
        let span = PhaseSpan::start(&self.tracer, Phase::ProductBfs);
        let swept = semijoin::sweep(
            self.db,
            &self.tables.projections[atom_idx][0],
            direction,
            Seeds::One(key),
            // a backward sweep knows the path's end: ⊥ steps only there
            (direction == Direction::Backward).then_some(key),
            &mut self.sweep_scratch,
            &mut self.pacer,
            &self.tracer,
            Phase::ProductBfs,
        );
        span.finish(&self.tracer);
        self.stats.configurations += swept.pops;
        self.stats.frontier_peak = self.stats.frontier_peak.max(swept.peak);
        let Some(reached) = swept.reached else {
            self.stats.budget_aborts += 1;
            return false;
        };
        let hit = reached.contains(probe as usize);
        let memo = &mut self.sweeps[atom_idx];
        // a current-sweep-only atom replaces its one set in place, so
        // only its first set grows the resident memory
        if let Some(g) = self
            .pacer
            .governor()
            .filter(|_| anchor.memo_all || memo.is_empty())
        {
            g.charge_memory(64 + 8 * reached.words().len() as u64);
        }
        if !anchor.memo_all {
            memo.clear();
        }
        memo.insert(key, reached);
        hit
    }

    /// Witness paths for a feasible atom. A row alone does not determine
    /// the chosen edge when a vertex has several same-label successors, so
    /// the BFS records full parent configurations and we rebuild each
    /// track's path from consecutive configuration pairs.
    fn component_witness(
        &mut self,
        atom_idx: usize,
        starts: &[NodeId],
        ends: &[NodeId],
    ) -> Option<Vec<Path>> {
        let rows = self.product_bfs(atom_idx, starts, ends, true)?;
        // lint:allow(unwrap): witness-mode BFS always records its configurations
        let configs = self.last_witness_configs.take().expect("witness configs");
        debug_assert_eq!(configs.len(), rows.len() + 1);
        let k = starts.len();
        let mut paths: Vec<Path> = starts.iter().map(|&s| Path::empty(s)).collect();
        for (step, row) in rows.iter().enumerate() {
            let before = &configs[step];
            let after = &configs[step + 1];
            for i in 0..k {
                if let Track::Sym(a) = row[i] {
                    paths[i].push(Edge {
                        src: before.1[i],
                        label: a,
                        dst: after.1[i],
                    });
                }
            }
        }
        Some(paths)
    }

    /// BFS over configurations `(state, positions)`. Returns `Some(rows)` if
    /// an accepting configuration is reachable (empty rows vector when the
    /// initial configuration accepts); in witness mode also stores the
    /// configuration trace in `self.last_witness_configs`. Runs the
    /// bitmap kernel for atoms inside its gate, the flat BFS otherwise.
    fn product_bfs(
        &mut self,
        atom_idx: usize,
        starts: &[NodeId],
        ends: &[NodeId],
        want_witness: bool,
    ) -> Option<Vec<Row>> {
        debug_assert!(
            want_witness || self.tables.anchors[atom_idx].is_none(),
            "arity-1 checks run the sweep, not the product BFS"
        );
        // the bitmap kernel holds no parent links, so witness mode always
        // runs the scalar path; atoms past the gate do too
        if !want_witness {
            if let Some(space) = self.tables.bitmap_sizes[atom_idx] {
                let mut scratch = self.bit_scratch[atom_idx].take().unwrap_or_else(|| {
                    let scratch = BitScratch::new(space);
                    if let Some(g) = self.pacer.governor() {
                        g.charge_memory(scratch.bytes());
                    }
                    scratch
                });
                let input = BitBfsInput {
                    db: self.db,
                    nfa: &self.tables.automata[atom_idx],
                    atom: &self.tables.dense.atoms[atom_idx],
                    dense: &self.tables.dense,
                    starts,
                    ends,
                    nv: self.db.num_nodes().max(1),
                };
                let hit = bitbfs::run(
                    &input,
                    &mut scratch,
                    &mut self.pacer,
                    &self.tracer,
                    &mut self.stats,
                );
                self.bit_scratch[atom_idx] = Some(scratch);
                return hit.then(Vec::new);
            }
        }
        self.product_bfs_flat(atom_idx, starts, ends, want_witness)
    }

    /// The flat BFS, on the visited set whose keys fit the atom's
    /// configuration space.
    fn product_bfs_flat(
        &mut self,
        atom_idx: usize,
        starts: &[NodeId],
        ends: &[NodeId],
        want_witness: bool,
    ) -> Option<Vec<Row>> {
        let mut visited = std::mem::take(&mut self.visited);
        let mut bufs = std::mem::take(&mut self.bfs);
        let rows = if self.tables.packs[atom_idx] {
            self.bfs_on(
                &mut visited.packed,
                &mut bufs,
                atom_idx,
                starts,
                ends,
                want_witness,
            )
        } else {
            self.bfs_on(
                &mut visited.wide,
                &mut bufs,
                atom_idx,
                starts,
                ends,
                want_witness,
            )
        };
        self.visited = visited;
        self.bfs = bufs;
        rows
    }

    /// The flat BFS inner loop. Per popped configuration it walks
    /// the state's row-class groups; per group it assembles the successor
    /// option **slices** (CSR lookups, no allocation; a `⊥` track's only
    /// option is its — already reached — target), then drives an odometer
    /// over the slices, writing each combination into one scratch
    /// configuration. A configuration is copied onto the word queue only
    /// when it is first visited, and the row options are shared by every
    /// target state of the group. Nothing here allocates once the
    /// evaluator's buffers have grown, except the witness parent map.
    fn bfs_on<K: ConfigKey>(
        &mut self,
        visited: &mut Visited<K>,
        bufs: &mut BfsBuffers,
        atom_idx: usize,
        starts: &[NodeId],
        ends: &[NodeId],
        want_witness: bool,
    ) -> Option<Vec<Row>> {
        let db = self.db;
        let tables = self.tables;
        let nfa = &tables.automata[atom_idx];
        let atom = &tables.dense.atoms[atom_idx];
        let dense = &tables.dense;
        let k = starts.len();
        let width = k + 1;
        let nv = db.num_nodes().max(1) as u64;
        let BfsBuffers {
            queue,
            queue_charged,
            cur,
            next,
            odometer,
        } = bufs;
        let seen = &mut visited.set;
        seen.clear();
        queue.clear();
        cur.clear();
        cur.resize(width, 0);
        next.clear();
        next.resize(width, 0);
        odometer.clear();
        odometer.resize(k, 0);
        // witness mode only: each configuration's parent and the row that
        // reached it
        let mut parent: FnvHashMap<K, (K, u32)> = FnvHashMap::default();
        next[1..].copy_from_slice(starts);
        for &q in nfa.initial_states() {
            next[0] = q;
            if seen.insert(K::pack(next, nv)) {
                queue.extend_from_slice(next);
            }
        }
        let mut head = 0;
        let mut peak = (queue.len() / width) as u64;
        let mut opts: Vec<&[NodeId]> = Vec::with_capacity(k);
        let mut goal: Option<K> = None;
        'bfs: while head < queue.len() {
            cur.copy_from_slice(&queue[head..head + width]);
            head += width;
            self.stats.configurations += 1;
            if T::ENABLED {
                self.tracer.count(Phase::ProductBfs, 1);
            }
            if let Some(g) = self.pacer.governor() {
                let set_bytes = seen.capacity() as u64 * K::entry_bytes(width);
                charge_growth(g, &mut visited.charged, set_bytes);
                charge_growth(g, queue_charged, 4 * queue.capacity() as u64);
            }
            // cooperative budget check, amortized to every ~4k configs
            if self.pacer.tick_traced(&self.tracer, Phase::ProductBfs) {
                self.stats.budget_aborts += 1;
                break 'bfs;
            }
            let q = cur[0];
            let pos = &cur[1..];
            if nfa.is_final(q) && pos == ends {
                goal = Some(K::pack(cur, nv));
                break 'bfs;
            }
            let gs = atom.state_offsets[q as usize] as usize
                ..atom.state_offsets[q as usize + 1] as usize;
            'groups: for g in &atom.groups[gs] {
                let row = dense.row_of(g.row);
                opts.clear();
                for (i, t) in row.iter().enumerate() {
                    match *t {
                        Track::Pad => {
                            if pos[i] != ends[i] {
                                continue 'groups;
                            }
                            opts.push(std::slice::from_ref(&ends[i]));
                        }
                        Track::Sym(a) => {
                            let s = db.successors(pos[i], a);
                            if s.is_empty() {
                                continue 'groups;
                            }
                            opts.push(s);
                        }
                    }
                }
                let targets = &atom.targets[g.targets_start as usize..g.targets_end as usize];
                for (i, o) in opts.iter().enumerate() {
                    odometer[i] = 0;
                    next[i + 1] = o[0];
                }
                'combos: loop {
                    for &q2 in targets {
                        next[0] = q2;
                        let key = K::pack(next, nv);
                        if want_witness && !seen.contains(&key) {
                            parent.insert(key.clone(), (K::pack(cur, nv), g.row));
                        }
                        if seen.insert(key) {
                            queue.extend_from_slice(next);
                        }
                    }
                    let mut i = 0;
                    loop {
                        if i == k {
                            break 'combos;
                        }
                        odometer[i] += 1;
                        if odometer[i] < opts[i].len() {
                            next[i + 1] = opts[i][odometer[i]];
                            break;
                        }
                        odometer[i] = 0;
                        next[i + 1] = opts[i][0];
                        i += 1;
                    }
                }
            }
            peak = peak.max(((queue.len() - head) / width) as u64);
        }
        self.stats.frontier_peak = self.stats.frontier_peak.max(peak);
        if T::ENABLED {
            self.tracer.frontier(Phase::ProductBfs, peak);
        }
        let goal = goal?;
        if !want_witness {
            return Some(Vec::new());
        }
        // reconstruct configuration trace + rows
        let mut rows: Vec<Row> = Vec::new();
        let mut keys: Vec<K> = vec![goal.clone()];
        let mut at = goal;
        while let Some((prev, rid)) = parent.get(&at) {
            // lint:allow(unguarded-loop): O(path-length) trace rebuild
            rows.push(dense.row_of(*rid).to_vec());
            keys.push(prev.clone());
            at = prev.clone();
        }
        rows.reverse();
        let configs = keys
            .iter()
            .rev()
            .map(|key| {
                key.unpack(nv, cur);
                (cur[0], cur[1..].to_vec())
            })
            .collect();
        self.last_witness_configs = Some(configs);
        Some(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_automata::{relations, Alphabet};
    use ecrpq_query::Ecrpq;
    use std::sync::Arc;

    fn prepare(q: &Ecrpq) -> PreparedQuery {
        PreparedQuery::build(q).unwrap()
    }

    /// Ungoverned, untraced tables.
    fn tables(db: &GraphDb, p: &PreparedQuery) -> SharedTables {
        SharedTables::build(db, p, None, &NoopTracer)
    }

    /// Sequential answers and counters over `tables`.
    fn answers_on(
        db: &GraphDb,
        p: &PreparedQuery,
        tables: &SharedTables,
    ) -> (BTreeSet<Vec<NodeId>>, ProductStats) {
        let mut it = AnswerIter::with_parts(db, p, tables, None, NoopTracer);
        it.run();
        it.into_parts()
    }

    /// Two parallel chains of equal length from s: the Example 2.1 query
    /// should relate their startpoints.
    fn two_chain_db() -> GraphDb {
        // s1 -a-> m1 -a-> t ; s2 -b-> m2 -b-> t ; s3 -a-> t
        let mut g = GraphDb::new();
        let s1 = g.add_node("s1");
        let m1 = g.add_node("m1");
        let t = g.add_node("t");
        let s2 = g.add_node("s2");
        let m2 = g.add_node("m2");
        let s3 = g.add_node("s3");
        g.add_edge(s1, 'a', m1);
        g.add_edge(m1, 'a', t);
        g.add_edge(s2, 'b', m2);
        g.add_edge(m2, 'b', t);
        g.add_edge(s3, 'a', t);
        g
    }

    fn example_2_1_query(db: &GraphDb) -> Ecrpq {
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let x2 = q.node_var("x'");
        let y = q.node_var("y");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(x2, "p2", y);
        q.rel_atom(
            "eq_len",
            Arc::new(relations::eq_length(2, db.alphabet().len())),
            &[p1, p2],
        );
        q.set_free(&[x, x2]);
        q
    }

    #[test]
    fn example_2_1_answers() {
        let db = two_chain_db();
        let q = example_2_1_query(&db);
        let answers = answers_product(&db, &prepare(&q));
        let (s1, s2, s3) = (0u32, 3u32, 5u32);
        // equal-length pairs into t: (s1,s2) both length 2, (s3,s3), etc.
        assert!(answers.contains(&vec![s1, s2]));
        assert!(answers.contains(&vec![s2, s1]));
        assert!(answers.contains(&vec![s1, s1]));
        assert!(answers.contains(&vec![s3, s3]));
        assert!(!answers.contains(&vec![s1, s3])); // lengths 2 vs 1
                                                   // trivial equal-length: empty paths from the same vertex
        assert!(answers.contains(&vec![2, 2]));
    }

    #[test]
    fn all_layouts_agree_on_answers() {
        let db = two_chain_db();
        let q = example_2_1_query(&db);
        let p = prepare(&q);
        let kernel = tables(&db, &p);
        assert!(kernel.bitmap_sizes.iter().all(Option::is_some));
        let (bitpar, bitpar_stats) = answers_on(&db, &p, &kernel);
        let (flat, flat_stats) = answers_on(&db, &p, &tables(&db, &p).flat_only());
        // the Lemma 4.3 reduction runs its own BFS: an independent reference
        let (cq, rdb, _) = crate::to_cq::ecrpq_to_cq(&db, &p);
        assert_eq!(flat, crate::cq_eval::answers_cq(&rdb, &cq));
        assert_eq!(flat, bitpar);
        assert!(flat_stats.domain_kept > 0);
        assert_eq!(bitpar_stats.domain_kept, flat_stats.domain_kept);
        assert!(flat_stats.frontier_peak > 0);
        assert!(bitpar_stats.frontier_peak > 0);
    }

    /// The flat BFS is the kernel's reference: on random graphs, with each
    /// synchronized relation the parser names (`prefix` has `⊥` rows) and
    /// arities 2 and 3, the kernel's tables give the flat-only tables'
    /// answers and ask the same feasibility questions. On random single
    /// checks both give the same verdict, and an infeasible check counts
    /// the same configurations: every configuration it visits is expanded
    /// by the kernel and popped by the flat BFS. A feasible one never
    /// counts more on the kernel.
    #[test]
    fn kernel_matches_flat_bfs_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let texts = [
            "q(x, y) :- x -[p]-> y, x -[r]-> y, eq(p, r)",
            "q(x, x2) :- x -[p]-> y, x2 -[r]-> y, eq_len(p, r)",
            "q(y, z) :- x -[p]-> y, x -[r]-> z, prefix(p, r), p in a*",
            "q(x) :- x -[p]-> y, y -[r]-> z, x -[s]-> z, eq_len(p, r, s)",
        ];
        let mut searched = 0;
        for seed in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut db = GraphDb::with_alphabet(Alphabet::ascii_lower(2));
            let n = rng.gen_range(2..7u32);
            db.add_nodes_anon(n as usize);
            for _ in 0..rng.gen_range(n..3 * n) {
                let label = if rng.gen_bool(0.5) { 'a' } else { 'b' };
                db.add_edge(rng.gen_range(0..n), label, rng.gen_range(0..n));
            }
            for text in texts {
                let p = parsed(&db, text);
                let kernel = tables(&db, &p);
                assert!(kernel.bitmap_sizes.iter().any(Option::is_some), "{text}");
                let (got, stats) = answers_on(&db, &p, &kernel);
                let (want, flat) = answers_on(&db, &p, &tables(&db, &p).flat_only());
                let what = format!("seed {seed}: {text}");
                assert_eq!(got, want, "{what}");
                assert_eq!(
                    (stats.checks, stats.cache_hits, stats.assignments),
                    (flat.checks, flat.cache_hits, flat.assignments),
                    "{what}"
                );
                let flat_tables = tables(&db, &p).flat_only();
                let mut kev = Evaluator::with_tables_traced(&db, &p, &kernel, NoopTracer);
                let mut fev = Evaluator::with_tables_traced(&db, &p, &flat_tables, NoopTracer);
                let arity = p.atoms[0].rel.arity();
                for _ in 0..16 {
                    let mut pick =
                        || -> Vec<NodeId> { (0..arity).map(|_| rng.gen_range(0..n)).collect() };
                    let (starts, ends) = (pick(), pick());
                    let before = (kev.stats.configurations, fev.stats.configurations);
                    let hit = kev.feasible(0, &starts, &ends);
                    assert_eq!(hit, fev.feasible(0, &starts, &ends), "{what}");
                    let expanded = kev.stats.configurations - before.0;
                    let popped = fev.stats.configurations - before.1;
                    if hit {
                        // the kernel stops at the batch that reaches the goal
                        assert!(expanded <= popped, "{what}: {starts:?} -> {ends:?}");
                    } else {
                        assert_eq!(expanded, popped, "{what}: {starts:?} -> {ends:?}");
                        searched += usize::from(expanded > 0);
                    }
                }
            }
        }
        assert!(
            searched > 100,
            "only {searched} infeasible checks ran a BFS"
        );
    }

    /// The bitmap gate, inspected directly on the shared tables: a small
    /// dense space gets a bitmap, an oversized space or a wide atom runs
    /// the flat BFS — per atom.
    #[test]
    fn bitmap_gate_downgrades_oversized_and_wide_atoms() {
        let db = two_chain_db();
        let q = example_2_1_query(&db);
        let p = prepare(&q);
        // 6 nodes × a few states: comfortably inside the gate
        assert!(tables(&db, &p).bitmap_sizes.iter().all(Option::is_some));

        // 300k vertices push the arity-2 space to states × 9·10¹⁰
        // configurations — far past `BITMAP_MAX_BITS`, so every atom must
        // fall back (and the closure gate skips the all-pairs table too)
        let mut big = GraphDb::with_alphabet(db.alphabet().clone());
        big.add_nodes_anon(300_000);
        let oversized = tables(&big, &p);
        assert!(oversized.bitmap_sizes.iter().all(Option::is_none));
        assert!(oversized.closure.is_none());

        // an arity-4 atom exceeds `BITMAP_MAX_ARITY` on any graph; the
        // downgrade runs the flat BFS on packed keys (whose visited-set
        // bytes the governor must still see — tests/budget_differential.rs
        // pins that end)
        let mut q4 = Ecrpq::new(db.alphabet().clone());
        let x = q4.node_var("x");
        let y = q4.node_var("y");
        let ps: Vec<_> = (0..4)
            .map(|i| q4.path_atom(x, &format!("p{i}"), y))
            .collect();
        q4.rel_atom(
            "eq4",
            Arc::new(relations::eq_length(4, db.alphabet().len())),
            &ps,
        );
        let p4 = prepare(&q4);
        let t4 = tables(&db, &p4);
        assert!(t4.bitmap_sizes.iter().all(Option::is_none));
        assert_eq!(t4.packs, vec![true]);
    }

    /// The kernel stops at the word batch that reaches an accepting
    /// configuration, so a Boolean check charges the governor no more
    /// work than the flat BFS on the same tables. `x` steps by `a` to `m`,
    /// whose `a`-step reaches `y`, and to 20 decoys that step on: from
    /// `(x, x)` to `(y, y)` under `eq` the goal lies on level 2, behind a
    /// level 1 of 21² configurations that the flat BFS pops in full.
    #[test]
    fn kernel_charges_no_more_work_than_flat_bfs() {
        use crate::governor::{Governor, ResourceBudget};
        let mut db = GraphDb::new();
        let x = db.add_node("x");
        let m = db.add_node("m");
        let y = db.add_node("y");
        db.add_edge(x, 'a', m);
        db.add_edge(m, 'a', y);
        for i in 0..20 {
            let w = db.add_node(&format!("w{i}"));
            let z = db.add_node(&format!("z{i}"));
            db.add_edge(x, 'a', w);
            db.add_edge(w, 'a', z);
        }
        let p = parsed(&db, "q(s, t) :- s -[p]-> t, s -[r]-> t, eq(p, r)");
        let charged = |t: &SharedTables| {
            let budget = ResourceBudget::default().with_max_configurations(u64::MAX);
            let governor = Governor::new(&budget);
            let mut search = SearchCursor::new(&db, &p, t, Some(&governor), NoopTracer);
            assert!(search.ev.feasible(0, &[x, x], &[y, y]));
            search.ev.flush_budget();
            governor.work_charged()
        };
        let kernel_tables = tables(&db, &p);
        assert!(kernel_tables.bitmap_sizes[0].is_some());
        let kernel = charged(&kernel_tables);
        let flat = charged(&tables(&db, &p).flat_only());
        assert!(kernel <= flat, "kernel charged {kernel}, flat BFS {flat}");
        // expanding all of level 1 before testing acceptance would charge
        // the check, the seed and 441 configurations
        assert!(kernel < 441, "kernel charged {kernel}: it finished level 1");
    }

    /// An atom's kernel bitmaps are allocated, and charged to the
    /// governor, by its first kernel check. `p in bbb` has no path on the
    /// two chains, so the semijoin empties the domains and a governed
    /// search never checks the gated atom: it charges no byte and
    /// completes under a zero-byte cap. A check of the atom charges its
    /// bitmaps before the BFS runs, which trips the same cap and leaves
    /// the check unproven.
    #[test]
    fn kernel_bitmaps_are_charged_by_the_first_check() {
        use crate::governor::{Governor, ResourceBudget, Termination};
        let db = two_chain_db();
        let zero = ResourceBudget::unlimited().with_max_memory_bytes(0);
        let (s1, t) = (0, 2);
        for (text, checked) in [
            (
                "q(x, y) :- x -[p]-> y, x -[r]-> y, eq(p, r), p in bbb",
                false,
            ),
            ("q(x, y) :- x -[p]-> y, x -[r]-> y, eq(p, r)", true),
        ] {
            let p = parsed(&db, text);
            let tables = tables(&db, &p);
            assert!(tables.bitmap_sizes[0].is_some(), "{text}");
            let governor = Governor::new(&zero);
            let mut search = SearchCursor::new(&db, &p, &tables, Some(&governor), NoopTracer);
            assert_eq!(governor.termination(), Termination::Complete, "{text}");
            if checked {
                assert!(!search.ev.feasible(0, &[s1, s1], &[t, t]));
                let mut ungoverned = SearchCursor::new(&db, &p, &tables, None, NoopTracer);
                assert!(ungoverned.ev.feasible(0, &[s1, s1], &[t, t]));
            } else {
                assert!(tables.unsatisfiable() && search.next_assignment().is_none());
            }
            assert_eq!(search.ev.bit_scratch[0].is_some(), checked, "{text}");
            let complete = governor.termination() == Termination::Complete;
            assert_eq!(complete, !checked, "{text}");
        }
    }

    /// Past `|Q|·|V|^k = 2⁶⁴` configurations the BFS keys its visited set
    /// and witness parents by the configuration's words. On a chain with
    /// 70 000 isolated vertices beside it, an arity-4 atom is past that
    /// bound, and its checks and witnesses must match those on the bare
    /// chain, whose keys pack.
    #[test]
    fn wide_keys_decide_like_packed_keys() {
        let run = |isolated: usize| {
            let mut db = GraphDb::new();
            let u = db.add_node("u");
            let v = db.add_node("v");
            let w = db.add_node("w");
            db.add_edge(u, 'a', v);
            db.add_edge(v, 'a', w);
            db.add_nodes_anon(isolated);
            let mut q = Ecrpq::new(db.alphabet().clone());
            let x = q.node_var("x");
            let y = q.node_var("y");
            let ps: Vec<_> = (0..4)
                .map(|i| q.path_atom(x, &format!("p{i}"), y))
                .collect();
            let rel = relations::eq_length(4, db.alphabet().len());
            q.rel_atom("eq4", Arc::new(rel), &ps);
            let p = prepare(&q);
            let t = tables(&db, &p);
            let mut search = SearchCursor::new(&db, &p, &t, None, NoopTracer);
            let verdicts = [
                search.ev.feasible(0, &[u; 4], &[w; 4]),
                search.ev.feasible(0, &[u; 4], &[v, v, v, w]),
            ];
            let witness = search.ev.witness(vec![u, w]);
            for (_, path) in &witness.paths {
                assert!(path.is_valid_in(&db));
                assert_eq!((path.source(), path.target(), path.len()), (u, w, 2));
            }
            (t.packs.clone(), verdicts, search.ev.stats)
        };
        let (packed, packed_verdicts, packed_stats) = run(0);
        let (wide, wide_verdicts, wide_stats) = run(70_000);
        assert_eq!((packed, wide), (vec![true], vec![false]));
        assert_eq!(packed_verdicts, [true, false]);
        assert_eq!(wide_verdicts, packed_verdicts);
        assert_eq!(wide_stats.configurations, packed_stats.configurations);
        assert_eq!(wide_stats.frontier_peak, packed_stats.frontier_peak);
    }

    /// An unsatisfiable word-relation atom (`aaa` on a 2-edge chain)
    /// empties its endpoint domains; the evaluator must then do *no* work
    /// at all — not even for the other, satisfiable atom group.
    #[test]
    fn empty_pruned_domain_short_circuits_search() {
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
        let t = q.node_var("t");
        let p = q.path_atom(x, "p", y);
        let r = q.path_atom(z, "r", t);
        // satisfiable group: `aa` relates u to w
        q.rel_atom("aa", Arc::new(relations::word_relation(&[0, 0], 1)), &[p]);
        // unsatisfiable group: no 3-step `a`-path exists anywhere
        q.rel_atom(
            "aaa",
            Arc::new(relations::word_relation(&[0, 0, 0], 1)),
            &[r],
        );
        let prepared = prepare(&q);
        let (sat, stats) = eval_product_with_stats(&db, &prepared);
        assert!(!sat);
        assert_eq!(stats.configurations, 0);
        assert_eq!(stats.checks, 0);
        assert_eq!(stats.assignments, 0);
        assert_eq!(stats.domain_kept, 2); // u for x, w for y
        assert!(stats.domain_pruned >= 6); // z and t fully emptied
                                           // answers and witness short-circuit the same way
        let (ans, astats) = answers_on(&db, &prepared, &tables(&db, &prepared));
        assert!(ans.is_empty());
        assert_eq!(astats.assignments, 0);
        assert!(witness_product(&db, &prepared).is_none());
        assert!(answers_with_witnesses(&db, &prepared).is_empty());
    }

    #[test]
    fn boolean_and_witness() {
        let db = two_chain_db();
        let mut q = example_2_1_query(&db);
        q.set_free(&[]); // make Boolean
        let p = prepare(&q);
        assert!(eval_product(&db, &p));
        let w = witness_product(&db, &p).unwrap();
        assert_eq!(w.paths.len(), 2);
        // witness paths must be valid, match endpoints, and have equal length
        let (p1, p2) = (&w.paths[0].1, &w.paths[1].1);
        assert!(p1.is_valid_in(&db));
        assert!(p2.is_valid_in(&db));
        assert_eq!(p1.len(), p2.len());
        assert_eq!(p1.target(), p2.target());
        assert_eq!(p1.source(), w.nodes[0]);
        assert_eq!(p2.source(), w.nodes[1]);
    }

    #[test]
    fn unsatisfiable_query() {
        // require an 'a'-labelled path of length exactly 3 in a 2-edge chain
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
        q.rel_atom(
            "aaa",
            Arc::new(relations::word_relation(&[0, 0, 0], 1)),
            &[p],
        );
        assert!(!eval_product(&db, &prepare(&q)));
        assert!(witness_product(&db, &prepare(&q)).is_none());
    }

    #[test]
    fn equality_relation_on_diamond() {
        // u -a-> v1 -b-> t, u -a-> v2 -c-> t: eq(p1,p2) from same start
        let mut db = GraphDb::new();
        let u = db.add_node("u");
        let v1 = db.add_node("v1");
        let v2 = db.add_node("v2");
        let t = db.add_node("t");
        db.add_edge(u, 'a', v1);
        db.add_edge(v1, 'b', t);
        db.add_edge(u, 'a', v2);
        db.add_edge(v2, 'c', t);
        let m = db.alphabet().len();
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(x, "p2", z);
        q.rel_atom("eq", Arc::new(relations::equality(m)), &[p1, p2]);
        q.set_free(&[y, z]);
        let answers = answers_product(&db, &prepare(&q));
        // equal labels: both take 'a' to v1/v2, or identical paths, or empty
        assert!(answers.contains(&vec![v1, v2]));
        assert!(answers.contains(&vec![v1, v1]));
        assert!(answers.contains(&vec![u, u]));
        // (t, t) via two copies of the identical path a·b through v1
        assert!(answers.contains(&vec![t, t]));
        // but mixed endpoints (v1, t) need labels a vs a·? — impossible
        assert!(!answers.contains(&vec![v1, t]));
    }

    #[test]
    fn empty_db() {
        let db = GraphDb::new();
        let mut q = Ecrpq::new(Alphabet::new());
        let x = q.node_var("x");
        let y = q.node_var("y");
        q.path_atom(x, "p", y);
        let p = prepare(&q);
        assert!(!eval_product(&db, &p));
        assert!(answers_product(&db, &p).is_empty());
    }

    /// The Boolean run's first check, `x = x'` with empty paths, accepts
    /// at its seed configuration and expands none; the enumeration's
    /// checks expand configurations.
    #[test]
    fn stats_are_populated() {
        let db = two_chain_db();
        let q = example_2_1_query(&db);
        let p = prepare(&q);
        let (answers, stats) = answers_on(&db, &p, &tables(&db, &p));
        assert!(!answers.is_empty());
        assert!(stats.checks > 0);
        assert!(stats.configurations > 0);
        assert!(stats.frontier_peak > 0);
        assert!(stats.domain_kept + stats.domain_pruned > 0);
        let mut boolean = q;
        boolean.set_free(&[]);
        let (res, stats) = eval_product_with_stats(&db, &prepare(&boolean));
        assert!(res);
        assert_eq!((stats.checks, stats.configurations), (1, 0));
    }

    #[test]
    fn answers_with_witnesses_cover_all_answers() {
        let db = two_chain_db();
        let q = example_2_1_query(&db);
        let p = prepare(&q);
        let plain = answers_product(&db, &p);
        let with_wit = answers_with_witnesses(&db, &p);
        let tuples: BTreeSet<Vec<NodeId>> = with_wit.iter().map(|(t, _)| t.clone()).collect();
        assert_eq!(tuples, plain);
        for (tuple, w) in &with_wit {
            // witness consistent with the tuple
            for (i, &NodeVar(v)) in q.free_vars().iter().enumerate() {
                assert_eq!(w.nodes[v as usize], tuple[i]);
            }
            for (pv, path) in &w.paths {
                assert!(path.is_valid_in(&db));
                let (NodeVar(s), NodeVar(d)) = q.endpoints(*pv);
                assert_eq!(path.source(), w.nodes[s as usize]);
                assert_eq!(path.target(), w.nodes[d as usize]);
            }
            // equal lengths per the relation
            assert_eq!(w.paths[0].1.len(), w.paths[1].1.len());
        }
    }

    #[test]
    fn self_loop_star_language() {
        // single vertex with a-loop; query: x -(a*)-> y with |path| = |path'|
        let mut db = GraphDb::new();
        let v = db.add_node("v");
        db.add_edge(v, 'a', v);
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p = q.path_atom(x, "p", y);
        q.rel_atom(
            "aaa",
            Arc::new(relations::word_relation(&[0, 0, 0], 1)),
            &[p],
        );
        assert!(eval_product(&db, &prepare(&q)));
        let w = witness_product(&db, &prepare(&q)).unwrap();
        assert_eq!(w.paths[0].1.len(), 3);
    }

    /// A query text over `db`'s alphabet, compiled.
    fn parsed(db: &GraphDb, text: &str) -> PreparedQuery {
        let mut alphabet = db.alphabet().clone();
        let registry = ecrpq_query::RelationRegistry::new();
        prepare(&ecrpq_query::parse_query(text, &mut alphabet, &registry).unwrap())
    }

    /// `fan` sources `-a->` one middle vertex `-b->` one sink, or (with
    /// `reverse`) one source `-a->` the middle `-b->` `fan` sinks. Returns
    /// the graph and the fanned vertices.
    fn fan_db(fan: usize, reverse: bool) -> (GraphDb, Vec<NodeId>) {
        let mut db = GraphDb::new();
        let single = db.add_node("single");
        let mid = db.add_node("mid");
        let fanned: Vec<NodeId> = (0..fan).map(|i| db.add_node(&format!("f{i}"))).collect();
        for &f in &fanned {
            if reverse {
                db.add_edge(mid, 'b', f);
            } else {
                db.add_edge(f, 'a', mid);
            }
        }
        if reverse {
            db.add_edge(single, 'a', mid);
        } else {
            db.add_edge(mid, 'b', single);
        }
        (db, fanned)
    }

    #[test]
    fn anchor_policy_is_a_function_of_domain_sizes() {
        let memo = |forward| Anchor {
            forward,
            memo_all: true,
        };
        let current = |forward| Anchor {
            forward,
            memo_all: false,
        };
        // the smaller pruned domain is the anchor; `None` counts as |V|
        assert_eq!(
            choose_anchor(Some(8), Some(1), 100, true, false),
            memo(false)
        );
        assert_eq!(
            choose_anchor(Some(1), Some(8), 100, false, false),
            memo(true)
        );
        assert_eq!(choose_anchor(None, Some(99), 100, true, false), memo(false));
        assert_eq!(choose_anchor(Some(99), None, 100, false, false), memo(true));
        // ties go to the endpoint the step program assigns first
        assert_eq!(
            choose_anchor(Some(5), Some(5), 100, true, false),
            memo(true)
        );
        assert_eq!(choose_anchor(None, None, 100, false, false), memo(false));
        // ⊥ rows: only a backward sweep knows where the path ends
        assert_eq!(
            choose_anchor(Some(1), Some(8), 100, true, true),
            memo(false)
        );
        // |D(anchor)|·|V| = 2¹³·2¹⁴ bits is exactly the memo budget...
        assert_eq!(SWEEP_MEMO_MAX_BITS, 1 << 27);
        let nv = 1 << 14;
        assert_eq!(
            choose_anchor(Some(1 << 13), None, nv, false, false),
            memo(true)
        );
        // ...one more anchor value passes it: anchor on the endpoint the
        // step program assigns first and keep only the current sweep
        let over = Some((1 << 13) + 1);
        assert_eq!(choose_anchor(over, None, nv, false, false), current(false));
        assert_eq!(choose_anchor(over, None, nv, true, false), current(true));
        assert_eq!(choose_anchor(None, over, nv, true, false), current(true));
        assert_eq!(choose_anchor(None, None, nv, true, true), current(false));
    }

    /// Arity-1 atoms get an anchor and no bitmap, and a query of only
    /// arity-1 atoms builds no closure; one synchronized atom brings the
    /// closure back.
    #[test]
    fn unary_atoms_get_anchors_and_no_bfs_scratch() {
        let (db, _) = fan_db(5, false);
        let p = parsed(&db, "q(x) :- x -[p]-> y, p in ab");
        let t = tables(&db, &p);
        assert_eq!(
            t.anchors,
            vec![Some(Anchor {
                forward: false,
                memo_all: true
            })],
            "five sources against one sink anchors on the sink"
        );
        assert_eq!(t.bitmap_sizes, vec![None]);
        assert!(t.closure.is_none());
        let q2 = example_2_1_query(&two_chain_db());
        let t2 = tables(&two_chain_db(), &prepare(&q2));
        assert!(t2.closure.is_some());
        assert!(t2.anchors.iter().all(Option::is_none));
    }

    /// One sweep per anchor value: `fan` assignments of the fanned
    /// endpoint share the single endpoint's sweep, backwards from one sink
    /// or forwards from one source — the product BFS never runs (its
    /// entry asserts so in debug builds).
    #[test]
    fn unary_checks_sweep_once_per_anchor_value() {
        for (reverse, text) in [
            (false, "q(x) :- x -[p]-> y, p in ab"),
            (true, "q(y) :- x -[p]-> y, p in ab"),
        ] {
            let (db, fanned) = fan_db(5, reverse);
            let p = parsed(&db, text);
            let t = tables(&db, &p);
            assert_eq!(t.anchors[0].map(|a| a.forward), Some(reverse));
            let (answers, stats) = answers_on(&db, &p, &t);
            let expect: BTreeSet<Vec<NodeId>> = fanned.iter().map(|&f| vec![f]).collect();
            assert_eq!(answers, expect, "reverse={reverse}");
            assert_eq!(stats.checks, 1, "reverse={reverse}");
            assert_eq!(stats.cache_hits, 4, "reverse={reverse}");
            assert!(stats.frontier_peak >= 1 && stats.frontier_peak <= stats.configurations);
            let (sat, stats) = eval_product_with_stats(&db, &p);
            assert!(sat);
            assert_eq!((stats.checks, stats.cache_hits), (1, 0));
        }
    }

    /// A sweep the budget cuts short reports "infeasible", counts an
    /// abort and is not memoized; an unbudgeted evaluator over the same
    /// tables then proves the pair feasible.
    #[test]
    fn truncated_sweep_is_never_memoized() {
        use crate::governor::{Governor, ResourceBudget};
        let mut db = GraphDb::new();
        let first = db.add_nodes_anon(10_000);
        for i in 0..9_999 {
            db.add_edge(first + i, 'a', first + i + 1);
        }
        let p = parsed(&db, "q(x, y) :- x -[p]-> y, p in a*");
        let t = tables(&db, &p);
        let last = first + 9_999;
        let governor = Governor::new(&ResourceBudget::default().with_max_configurations(1));
        let mut cut = SearchCursor::new(&db, &p, &t, Some(&governor), NoopTracer);
        assert!(!cut.ev.feasible(0, &[first], &[last]));
        assert!(cut.ev.sweeps[0].is_empty(), "a partial sweep was memoized");
        assert_eq!(cut.ev.stats.budget_aborts, 1);
        assert!(cut.ev.stats.configurations < 10_000);
        let mut full = SearchCursor::new(&db, &p, &t, None, NoopTracer);
        assert!(full.ev.feasible(0, &[first], &[last]));
        assert_eq!(full.ev.sweeps[0].len(), 1);
    }

    /// The dense tables must reproduce the NFA transition relation exactly:
    /// per state, the multiset of (row, target) pairs.
    #[test]
    fn dense_tables_reproduce_transitions() {
        let rel = relations::eq_length(2, 2);
        let nfa = rel.nfa().remove_epsilon().trim();
        let dense = DenseTables::build(std::slice::from_ref(&nfa));
        let atom = &dense.atoms[0];
        for q in 0..nfa.num_states() as StateId {
            let mut expect: Vec<(Row, StateId)> = nfa
                .transitions_from(q)
                .iter()
                .map(|(r, t)| (r.clone(), *t))
                .collect();
            let gs = atom.state_offsets[q as usize] as usize
                ..atom.state_offsets[q as usize + 1] as usize;
            let mut got: Vec<(Row, StateId)> = Vec::new();
            for g in &atom.groups[gs] {
                let row = dense.row_of(g.row).to_vec();
                for &t in &atom.targets[g.targets_start as usize..g.targets_end as usize] {
                    got.push((row.clone(), t));
                }
            }
            expect.sort();
            got.sort();
            assert_eq!(got, expect, "state {q}");
        }
    }
}
