//! Single-track reachability sweeps: the semijoin endpoint pruning of the
//! product evaluator, and the check of every arity-1 atom.
//!
//! [`sweep`] is the one routine. It walks the `|Q| · |V|` product of one
//! track's projection of an atom automaton ([`Projection`]) with the
//! database, from a seed set of vertices, forwards along CSR successors
//! from the initial states or backwards along CSR predecessors from the
//! final states, and returns the vertices where the run can end: at a
//! final state going forwards, at an initial state going backwards.
//!
//! **Pruning.** Before the backtracking enumeration, every merged atom
//! contributes one necessary condition per track `i`: if `xᵢ = v`, then
//! some accepting configuration must be single-track reachable from `v`,
//! and if `yᵢ = u`, the projection must be able to accept at `u` from
//! some source. One forward and one backward multi-source sweep per
//! (atom, track) compute both sets. Intersecting them over all atoms
//! shrinks each node variable's enumeration domain from the full `|V|` to
//! the values that can possibly participate in an answer — a semijoin of
//! the `O(|V|^{#nodevars})` outer enumeration against single-track
//! reachability. Pruning is sound, never complete-by-itself: every real
//! product run projects to a run of each track's projection, so a value
//! outside the pruned domain can never satisfy the atom, and the answer
//! set is the unpruned search's (the differential suites assert it
//! against the oracle and the Lemma 4.3 CQ reduction).
//!
//! **Arity-1 checks.** For an atom of arity 1 (a plain CRPQ atom
//! `x -L-> y` after the Lemma 4.1 merge) the Lemma 4.2 product *is* the
//! projection's product, so a single-source sweep from one endpoint value
//! decides every pair sharing that value exactly. The product evaluator
//! (`crate::product`) runs one such sweep per anchor value and memoizes
//! the reached set; the product BFS routines only run for atoms of
//! arity ≥ 2 and for witness traces.
//!
//! **Carrier seeds.** A sweep "from every vertex" ([`Seeds::All`]) pushes
//! `(q, v)` only for the *carriers* of the labels start state `q` reads:
//! the vertices with an outgoing (forwards) or incoming (backwards) edge
//! on such a label, which the database lists per label in its CSR freeze
//! ([`GraphDb::label_sources`], [`GraphDb::label_targets`]). From any
//! other vertex `q` has no move, so leaving it out changes nothing but
//! the pops — except that a goal state `q` (a start state that accepts
//! the empty word) reaches every vertex, and a `q` with a `⊥` move can
//! take it anywhere, so that `q` is still seeded at every vertex. An
//! unconstrained sweep then costs what the data on its first labels
//! holds, not `|V|`.
//!
//! Every track's two sweeps are *chained* ([`track_feasible_within`]):
//! the direction with the smaller seed set runs first — an unconstrained
//! domain counting as its carrier seeds — and the second sweep starts
//! only from the first one's result intersected with the other
//! endpoint's domain. That is exact, `D_x ∩ S(T(D_x) ∩ D_y) =
//! D_x ∩ S(D_y)`, where `T` and `S` are the forward and backward sweeps,
//! so the independent pass seeds its second sweep of a track from the
//! vertices its first one reached instead of from every vertex.
//!
//! When the CQ reduction is α-acyclic with at least two merged atoms —
//! the compiled query then carries its join tree
//! ([`PreparedQuery::join_tree`]) — the product tables run a full
//! *Yannakakis semijoin program* ([`yannakakis_domains`]) instead of the
//! independent sweeps: the same sweeps, but *seeded* with the
//! current domain of the swept endpoint, run bottom-up then top-down over
//! the join tree. A seeded forward sweep computes exactly the semijoin
//! message "targets reachable from the currently-allowed sources"; the
//! seeded backward sweep computes "sources that reach a currently-allowed
//! target". The program sends only the full reducer's messages: bottom-up,
//! a track sweeps only towards the endpoints its atom shares with its
//! join-tree parent (roots send nothing); top-down, every track sweeps
//! both ways, chained. After both passes every domain is *globally*
//! consistent — on single-track (tree-shaped) queries this is arc
//! consistency on a tree, so the subsequent enumeration is backtrack-free
//! and its delay is bounded by the domain sizes rather than the database
//! size. Where the result provably does not depend on the root (arity-1
//! atoms, no self-loop, one shared variable per tree arc), each join-tree
//! component is rooted at the atom whose bottom-up pass seeds the fewest
//! configurations from unconstrained domains, so the leaves that sweep
//! from every vertex are the ones whose labels few vertices carry.

use crate::governor::{Governor, Pacer};
use crate::prepare::PreparedQuery;
use crate::trace::{Phase, Tracer};
use ecrpq_analyze::JoinTree;
use ecrpq_automata::{BitSet, Nfa, Row, StateId, Symbol, Track};
use ecrpq_graph::{GraphDb, NodeId};
use ecrpq_query::NodeVar;

/// Per-track sweeps are skipped when `|Q| · |V|` exceeds this bound, so
/// the pruning pass can never dominate the evaluation it accelerates.
const MAX_TRACK_SPACE: u128 = 1 << 24;

/// Per-state transition lists in CSR form: `entries[offsets[q]..offsets[q+1]]`.
#[derive(Debug, Clone)]
struct StateLists {
    offsets: Vec<u32>,
    entries: Vec<(Track, StateId)>,
}

impl StateLists {
    /// Packs per-state lists, sorted and deduplicated.
    fn pack(lists: Vec<Vec<(Track, StateId)>>) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut entries = Vec::new();
        offsets.push(0);
        for mut list in lists {
            list.sort_unstable();
            list.dedup();
            entries.extend(list);
            offsets.push(entries.len() as u32);
        }
        StateLists { offsets, entries }
    }

    #[inline]
    fn of(&self, q: StateId) -> &[(Track, StateId)] {
        &self.entries[self.offsets[q as usize] as usize..self.offsets[q as usize + 1] as usize]
    }
}

/// The projection of one atom automaton onto one of its tracks: per
/// state, the deduplicated `(track symbol, target)` pairs forwards and
/// `(track symbol, source)` pairs backwards. Built once per (atom, track)
/// by `SharedTables::build` and shared by the pruning pass and the
/// arity-1 checks.
#[derive(Debug, Clone)]
pub(crate) struct Projection {
    num_states: usize,
    initial: Vec<StateId>,
    finals: Vec<StateId>,
    is_initial: Vec<bool>,
    is_final: Vec<bool>,
    fwd: StateLists,
    rev: StateLists,
    /// Some transition reads `⊥` on this track.
    has_pad: bool,
}

impl Projection {
    /// Projects the trimmed ε-free `nfa` onto `track`.
    pub(crate) fn new(nfa: &Nfa<Row>, track: usize) -> Self {
        let nq = nfa.num_states();
        let mut fwd: Vec<Vec<(Track, StateId)>> = vec![Vec::new(); nq];
        let mut rev: Vec<Vec<(Track, StateId)>> = vec![Vec::new(); nq];
        let mut has_pad = false;
        for q in 0..nq as StateId {
            for (row, q2) in nfa.transitions_from(q) {
                let t = row[track];
                has_pad |= t == Track::Pad;
                fwd[q as usize].push((t, *q2));
                rev[*q2 as usize].push((t, q));
            }
        }
        let initial = nfa.initial_states().to_vec();
        let finals: Vec<StateId> = nfa.final_states().collect();
        let mut is_initial = vec![false; nq];
        let mut is_final = vec![false; nq];
        for &q in &initial {
            is_initial[q as usize] = true;
        }
        for &q in &finals {
            is_final[q as usize] = true;
        }
        Projection {
            num_states: nq,
            initial,
            finals,
            is_initial,
            is_final,
            fwd: StateLists::pack(fwd),
            rev: StateLists::pack(rev),
            has_pad,
        }
    }

    /// Number of automaton states (the `|Q|` of the swept space).
    pub(crate) fn num_states(&self) -> usize {
        self.num_states
    }

    /// The start states, transition lists and goal flags of a sweep
    /// forwards (`forward`) or backwards.
    fn side(&self, forward: bool) -> (&[StateId], &StateLists, &[bool]) {
        if forward {
            (&self.initial, &self.fwd, &self.is_final)
        } else {
            (&self.finals, &self.rev, &self.is_initial)
        }
    }

    /// Whether some transition reads `⊥` on this track. A forward sweep
    /// cannot tell where a `⊥` step is allowed (only at the path's end,
    /// which is what it computes), so arity-1 checks on such a projection
    /// always sweep backwards from the end.
    pub(crate) fn has_pad(&self) -> bool {
        self.has_pad
    }
}

/// Which way a [`sweep`] walks the product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// From `(q₀, v)` along successors; reaches path ends at final states.
    Forward,
    /// From `(F, v)` along predecessors; reaches path starts at initial
    /// states.
    Backward,
}

/// The vertices a [`sweep`] starts from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Seeds<'s> {
    /// Every vertex.
    All,
    /// The vertices of a set over `0..|V|`.
    Within(&'s BitSet),
    /// One vertex (the anchor of an arity-1 check).
    One(NodeId),
}

impl<'s> Seeds<'s> {
    /// `None` = every vertex, else the seeds of `set`.
    fn within(set: Option<&'s BitSet>) -> Self {
        set.map_or(Seeds::All, Seeds::Within)
    }
}

/// Reusable visited state of [`sweep`]: a `(state, vertex)` bitmap whose
/// dirtied words are recorded and wiped after each sweep, so a sweep
/// costs what it reaches, not the size of the space.
#[derive(Debug, Default)]
pub(crate) struct SweepScratch {
    /// The visited bitmap's words, configuration `q·|V| + v` at bit
    /// `idx % 64` of word `idx / 64`.
    seen: Vec<u64>,
    /// Words of `seen` that went nonzero in the current sweep.
    touched: Vec<u32>,
    stack: Vec<(StateId, NodeId)>,
}

impl SweepScratch {
    /// Scratch for sweeps over spaces of up to `space` configurations.
    pub(crate) fn new(space: usize) -> Self {
        let mut scratch = SweepScratch::default();
        scratch.reserve(space);
        scratch
    }

    /// Grows the bitmap to hold `space` configurations.
    fn reserve(&mut self, space: usize) {
        let words = space.div_ceil(64);
        if self.seen.len() < words {
            self.seen.resize(words, 0);
        }
    }

    /// Resident bytes of the visited bitmap.
    pub(crate) fn bytes(&self) -> u64 {
        8 * self.seen.len() as u64
    }
}

/// What one [`sweep`] did.
#[derive(Debug)]
pub(crate) struct Swept {
    /// The vertices the walk can end at (`None` when the budget cut the
    /// sweep short: a partial set under-approximates and must not be used
    /// or kept).
    pub(crate) reached: Option<BitSet>,
    /// Configurations popped and expanded.
    pub(crate) pops: u64,
    /// Peak length of the depth-first stack.
    pub(crate) peak: u64,
}

/// Reachability over the product of one track projection with the
/// database, depth-first from `(q, v)` for every seed vertex `v` and
/// every initial state `q` (forwards) or final state `q` (backwards).
/// Returns the vertices `u` such that `(q', u)` is reached for some final
/// (forwards) or initial (backwards) state `q'`.
///
/// A `⊥` step keeps the track on its vertex. With `pad_at = Some(e)` it
/// is only taken at `e`, the path's end — exact when `e` is the one
/// target of a backward sweep; with `None` it is taken anywhere, the
/// over-approximation the multi-source pruning sweeps use.
///
/// Every pop ticks `pacer` and counts one `phase` item on `tracer`, and
/// the sweep's peak stack depth goes to `phase`'s frontier. A tripped
/// pacer ends the sweep with `reached: None`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep<T: Tracer>(
    db: &GraphDb,
    proj: &Projection,
    direction: Direction,
    seeds: Seeds<'_>,
    pad_at: Option<NodeId>,
    scratch: &mut SweepScratch,
    pacer: &mut Pacer<'_>,
    tracer: &T,
    phase: Phase,
) -> Swept {
    // one loop per direction: a direction branch inside the pop loop
    // measurably slows the multi-source pruning sweeps
    match direction {
        Direction::Forward => {
            sweep_in::<T, true>(db, proj, seeds, pad_at, scratch, pacer, tracer, phase)
        }
        Direction::Backward => {
            sweep_in::<T, false>(db, proj, seeds, pad_at, scratch, pacer, tracer, phase)
        }
    }
}

/// [`sweep`] forwards (`FORWARD`) or backwards.
#[allow(clippy::too_many_arguments)]
fn sweep_in<T: Tracer, const FORWARD: bool>(
    db: &GraphDb,
    proj: &Projection,
    seeds: Seeds<'_>,
    pad_at: Option<NodeId>,
    scratch: &mut SweepScratch,
    pacer: &mut Pacer<'_>,
    tracer: &T,
    phase: Phase,
) -> Swept {
    let nv = db.num_nodes();
    scratch.reserve(proj.num_states * nv);
    let (starts, lists, goal) = proj.side(FORWARD);
    // a goal start state seeded from every vertex reaches every vertex
    let mut reach_all = false;
    // the scratch vectors become locals for the loop and go back after it
    let seen = &mut scratch.seen[..];
    let mut touched = std::mem::take(&mut scratch.touched);
    let mut stack = std::mem::take(&mut scratch.stack);
    let mut reached = BitSet::new(nv);
    let mut push = |stack: &mut Vec<(StateId, NodeId)>, q: StateId, v: NodeId| {
        let idx = q as usize * nv + v as usize;
        let (w, mask) = (idx >> 6, 1u64 << (idx & 63));
        let word = &mut seen[w];
        if *word & mask == 0 {
            if *word == 0 {
                touched.push(w as u32);
            }
            *word |= mask;
            if goal[q as usize] {
                reached.or_word(v as usize >> 6, 1 << (v & 63));
            }
            stack.push((q, v));
        }
    };
    for &q in starts {
        match seeds {
            // from `q` only the carriers of the labels it reads can step
            // anywhere; every other vertex is a dead end that counts only
            // when `q` is a goal state
            Seeds::All => match read_labels(lists.of(q)) {
                Some(labels) => {
                    reach_all |= goal[q as usize];
                    for a in labels {
                        for &v in carriers(db, a, FORWARD) {
                            push(&mut stack, q, v);
                        }
                    }
                }
                None => (0..nv as NodeId).for_each(|v| push(&mut stack, q, v)),
            },
            Seeds::Within(set) => set
                .iter_ones()
                .for_each(|v| push(&mut stack, q, v as NodeId)),
            Seeds::One(v) => push(&mut stack, q, v),
        }
    }
    let mut pops = 0u64;
    let mut peak = stack.len() as u64;
    let mut tripped = false;
    while let Some((q, v)) = stack.pop() {
        // cooperative budget check, amortized to every ~4k pops
        if pacer.tick_traced(tracer, phase) {
            tripped = true;
            break;
        }
        pops += 1;
        if T::ENABLED {
            tracer.count(phase, 1);
        }
        for &(t, q2) in lists.of(q) {
            match t {
                Track::Pad => {
                    if pad_at.is_none_or(|e| e == v) {
                        push(&mut stack, q2, v);
                    }
                }
                Track::Sym(a) => {
                    let next = if FORWARD {
                        db.successors(v, a)
                    } else {
                        db.predecessors(v, a)
                    };
                    for &u in next {
                        push(&mut stack, q2, u);
                    }
                }
            }
        }
        peak = peak.max(stack.len() as u64);
    }
    // wipe the words this sweep dirtied
    for &w in &touched {
        scratch.seen[w as usize] = 0;
    }
    touched.clear();
    stack.clear();
    scratch.touched = touched;
    scratch.stack = stack;
    if reach_all {
        reached.fill();
    }
    if T::ENABLED {
        tracer.frontier(phase, peak);
    }
    Swept {
        reached: (!tripped).then_some(reached),
        pops,
        peak,
    }
}

/// The distinct labels `moves` read (sorted by track symbol, so each
/// label's moves are adjacent and `⊥` comes last), or `None` when one of
/// them reads `⊥`: a `⊥` step stays on its vertex, so every vertex can
/// take it.
fn read_labels(moves: &[(Track, StateId)]) -> Option<impl Iterator<Item = Symbol> + '_> {
    if moves.last().is_some_and(|&(t, _)| t == Track::Pad) {
        return None;
    }
    let mut last = None;
    Some(moves.iter().filter_map(move |&(t, _)| match t {
        Track::Sym(a) if last.replace(a) != Some(a) => Some(a),
        _ => None,
    }))
}

/// The vertices a sweep forwards (`forward`) or backwards can leave by an
/// `a`-step: the label's carriers.
fn carriers(db: &GraphDb, a: Symbol, forward: bool) -> &[NodeId] {
    if forward {
        db.label_sources(a)
    } else {
        db.label_targets(a)
    }
}

/// How many configurations a sweep from every vertex ([`Seeds::All`])
/// seeds: per start state, the carriers of the labels it reads, or every
/// vertex when it has a `⊥` move.
fn all_seeds(db: &GraphDb, proj: &Projection, direction: Direction) -> usize {
    let forward = direction == Direction::Forward;
    let (starts, lists, _) = proj.side(forward);
    starts
        .iter()
        .map(|&q| {
            read_labels(lists.of(q)).map_or(db.num_nodes(), |labels| {
                labels.map(|a| carriers(db, a, forward).len()).sum()
            })
        })
        .sum()
}

/// Result of the pruning pass.
pub(crate) struct PrunedDomains {
    /// `domains[v]` = sorted allowed values for node variable `v`;
    /// `None` = unconstrained (full domain).
    pub domains: Vec<Option<Vec<NodeId>>>,
    /// Total values kept across constrained variables.
    pub kept: u64,
    /// Total values removed across constrained variables.
    pub pruned: u64,
}

/// Runs the semijoin pass over every (atom, track) pair. `projections`
/// are the per-track projections of `query.atoms`, in order.
///
/// The sweeps check in with `governor` cooperatively. An aborted sweep is
/// an *under*-approximation of the feasible sets — intersecting it into a
/// domain would prune values that can participate in answers — so a sweep
/// cut short by the budget contributes no constraint at all and every
/// remaining sweep is skipped. The resulting (weaker) pruning is still
/// sound, and the governor's tripped state tells the caller the run is no
/// longer complete.
pub(crate) fn prune_domains<T: Tracer>(
    db: &GraphDb,
    query: &PreparedQuery,
    projections: &[Vec<Projection>],
    governor: Option<&Governor>,
    tracer: &T,
) -> PrunedDomains {
    let nv = db.num_nodes();
    let mut sets: Vec<Option<BitSet>> = vec![None; query.num_node_vars];
    let mut scratch = SweepScratch::default();
    'atoms: for (atom, tracks) in query.atoms.iter().zip(projections) {
        if too_large(tracks, nv) {
            continue; // too large to sweep; this atom constrains nothing
        }
        for (&(src, dst), proj) in atom.endpoints.iter().zip(tracks) {
            let Some(messages) = track_feasible_within(
                db,
                proj,
                [None, None],
                [true, true],
                &mut scratch,
                governor,
                tracer,
                Phase::Semijoin,
            ) else {
                break 'atoms; // budget tripped mid-sweep: stop pruning
            };
            narrow(&mut sets, [src, dst], messages);
        }
    }
    finish_domains(sets, nv)
}

/// The Yannakakis semijoin program over an α-acyclic join tree: the same
/// per-(atom, track) sweeps as [`prune_domains`], but *seeded* with the
/// current domains of the swept endpoints and scheduled as the full
/// reducer's two passes, each seeded sweep a directed semijoin message
/// along a join-tree arc:
///
/// - **Bottom-up** (`tree.order` forwards, [`Phase::YannakakisUp`]): an
///   atom sends only towards its parent, so a track sweeps only towards
///   the endpoints its atom shares with `tree.parent` — forwards from the
///   source domain to narrow a shared target, backwards from the target
///   domain to narrow a shared source — and a root sends nothing. An
///   endpoint that occurs twice among the atom's own tracks (a variable
///   two tracks pass between them, or both ends of one track) is also
///   swept towards, since a track of the atom (another one, or the same
///   one's other direction) reads it before the top-down pass comes
///   back.
/// - **Top-down** (`tree.order` backwards, [`Phase::YannakakisDown`]):
///   every track sweeps both ways, chained as in [`track_feasible_within`].
///
/// Where the full reducer is exact, each component of `tree` is first
/// re-rooted at the atom whose bottom-up sweeps from unconstrained
/// domains seed the fewest configurations ([`cheapest_roots`]); elsewhere
/// GYO's roots stay. A leaf's bottom-up sweep from an unconstrained
/// domain is seeded from the label carriers, so with the root chosen
/// this way a cold program costs what the data around its leaves holds,
/// not `|Q| · |V|`.
///
/// After both passes every constrained variable's domain contains only
/// globally consistent values. The skipped bottom-up sweeps change
/// nothing: an endpoint `x` not swept towards occurs in no atom the
/// bottom-up pass visits later (running intersection), and when the
/// top-down pass reaches its track, `D_y ∩ T(D_x ∩ S(E)) = D_y ∩ T(D_x)`
/// for every `E ⊇ D_y` — the full reducer's output does not depend on
/// which sound intermediate domains it passed through, so the domains
/// equal those of sweeping every track both ways in both passes.
///
/// Soundness under budgets matches `prune_domains`: the domain sets
/// always over-approximate the answer-participating values (a seeded
/// sweep only propagates that invariant), and a sweep cut short by the
/// governor refines nothing further — the current, weaker domains are
/// returned as-is.
pub(crate) fn yannakakis_domains<T: Tracer>(
    db: &GraphDb,
    query: &PreparedQuery,
    projections: &[Vec<Projection>],
    tree: &JoinTree,
    governor: Option<&Governor>,
    tracer: &T,
) -> PrunedDomains {
    let nv = db.num_nodes();
    let rooted = cheapest_roots(db, query, projections, tree);
    let tree = rooted.as_ref().unwrap_or(tree);
    let mut sets: Vec<Option<BitSet>> = vec![None; query.num_node_vars];
    let mut scratch = SweepScratch::default();
    let ends = |ai: usize| {
        query.atoms[ai]
            .endpoints
            .iter()
            .flat_map(|&(src, dst)| [src, dst])
    };
    for (phase, bottom_up) in [(Phase::YannakakisUp, true), (Phase::YannakakisDown, false)] {
        let span = crate::trace::PhaseSpan::start(tracer, phase);
        let order: Vec<usize> = if bottom_up {
            tree.order.clone()
        } else {
            tree.order.iter().rev().copied().collect()
        };
        let mut tripped = false;
        'atoms: for ai in order {
            let (atom, tracks) = (&query.atoms[ai], &projections[ai]);
            if too_large(tracks, nv) {
                continue; // too large to sweep; this atom constrains nothing
            }
            let towards = |var: NodeVar| {
                !bottom_up
                    || tree.parent[ai].is_some_and(|p| ends(p).any(|w| w == var))
                    || ends(ai).filter(|&w| w == var).count() > 1
            };
            for (&(src, dst), proj) in atom.endpoints.iter().zip(tracks) {
                let send = [towards(src), towards(dst)];
                if send == [false, false] {
                    continue;
                }
                let Some(messages) = track_feasible_within(
                    db,
                    proj,
                    [sets[src.0 as usize].as_ref(), sets[dst.0 as usize].as_ref()],
                    send,
                    &mut scratch,
                    governor,
                    tracer,
                    phase,
                ) else {
                    // budget tripped: keep current (sound) domains
                    tripped = true;
                    break 'atoms;
                };
                narrow(&mut sets, [src, dst], messages);
            }
        }
        span.finish(tracer);
        if tripped {
            break;
        }
    }
    finish_domains(sets, nv)
}

/// `tree` with each component re-rooted ([`JoinTree::rerooted`]) at the
/// atom whose bottom-up pass seeds the fewest configurations from
/// unconstrained domains, or `None` where GYO's roots stay.
///
/// Bottom-up, a non-root atom `x -L-> y` sweeps towards the variable it
/// shares with its parent, from the other one; that domain is still
/// unconstrained unless a child narrowed it, and then the sweep seeds
/// from the label carriers ([`all_seeds`]). A root is chosen only where
/// the full reducer is exact, hence root-independent: every atom has
/// arity 1 and no self-loop, and every tree arc shares exactly one node
/// variable. Each message is then an exact semijoin, and the domains are
/// the projections of the answer set whatever the root. A synchronized
/// atom's per-track messages, a self-loop's sweeps and the per-variable
/// messages between atoms sharing two variables only over-approximate,
/// and their result depends on the order they run in. Ties keep GYO's
/// root.
fn cheapest_roots(
    db: &GraphDb,
    query: &PreparedQuery,
    projections: &[Vec<Projection>],
    tree: &JoinTree,
) -> Option<JoinTree> {
    let ends: Vec<[NodeVar; 2]> = query
        .atoms
        .iter()
        .map(|a| match a.endpoints.as_slice() {
            &[(x, y)] if x != y => Some([x, y]),
            _ => None,
        })
        .collect::<Option<_>>()?;
    let shared = |a: usize, b: usize| ends[a].iter().filter(|v| ends[b].contains(v)).count();
    if (0..ends.len()).any(|a| tree.parent[a].is_some_and(|p| shared(a, p) != 1)) {
        return None;
    }
    // per atom, the seeds of its forward and its backward sweep from every
    // vertex
    let seeds: Vec<[usize; 2]> = projections
        .iter()
        .map(|tracks| {
            [Direction::Forward, Direction::Backward].map(|d| all_seeds(db, &tracks[0], d))
        })
        .collect();
    let cost = |t: &JoinTree| -> usize {
        (0..ends.len())
            .filter_map(|a| {
                let p = t.parent[a]?;
                let [x, y] = ends[a];
                // forwards from `x` to a shared `y`, else backwards from `y`
                let (from, sweep) = if ends[p].contains(&y) { (x, 0) } else { (y, 1) };
                let narrowed = t.children(a).any(|c| ends[c].contains(&from));
                (!narrowed).then_some(seeds[a][sweep])
            })
            .sum()
    };
    let root_of = |t: &JoinTree, a: usize| std::iter::successors(Some(a), |&i| t.parent[i]).last();
    let mut best = (cost(tree), None::<JoinTree>);
    for gyo_root in (0..ends.len()).filter(|&a| tree.parent[a].is_none()) {
        let current = best.1.clone().unwrap_or_else(|| tree.clone());
        for root in (0..ends.len()).filter(|&a| root_of(tree, a) == Some(gyo_root)) {
            let candidate = current.rerooted(root);
            let c = cost(&candidate);
            if c < best.0 {
                best = (c, Some(candidate));
            }
        }
    }
    best.1
}

/// Intersects the messages of one track into its endpoints' domains.
fn narrow(sets: &mut [Option<BitSet>], vars: [NodeVar; 2], messages: [Option<BitSet>; 2]) {
    for (var, ok) in vars.into_iter().zip(messages) {
        let Some(ok) = ok else { continue };
        let slot = &mut sets[var.0 as usize];
        match slot {
            Some(s) => s.intersect_with(&ok),
            None => *slot = Some(ok),
        }
    }
}

/// Whether an atom's `|Q| · |V|` track space exceeds [`MAX_TRACK_SPACE`]
/// (every track of an atom projects the same automaton).
fn too_large(tracks: &[Projection], nv: usize) -> bool {
    tracks
        .first()
        .is_some_and(|p| (p.num_states() as u128) * (nv as u128) > MAX_TRACK_SPACE)
}

/// Converts per-variable bit sets into the sorted-domain representation
/// shared by both pruning passes, tallying kept/pruned counts.
fn finish_domains(sets: Vec<Option<BitSet>>, nv: usize) -> PrunedDomains {
    let mut kept = 0u64;
    let mut pruned = 0u64;
    let domains = sets
        .into_iter()
        .map(|s| {
            s.map(|bs| {
                let dom: Vec<NodeId> = bs.iter().map(|v| v as NodeId).collect();
                kept += dom.len() as u64;
                pruned += (nv - dom.len()) as u64;
                dom
            })
        })
        .collect();
    PrunedDomains {
        domains,
        kept,
        pruned,
    }
}

/// The directed semijoin messages of one (atom, track) pair, sent
/// towards the endpoints `send = [to source, to target]` selects, over
/// the current endpoint domains `doms = [D_x, D_y]` (`None` = every
/// vertex). Returns `[sources_ok, targets_ok]`, `None` where nothing was
/// sent. `targets_ok` narrows `D_y` to `D_y ∩ T(D_x)`, where `T(D_x)`,
/// the forward sweep from `D_x`, holds the vertices where the projection
/// can accept having started in `D_x`; `sources_ok` narrows `D_x` to
/// `D_x ∩ S(D_y)`, where `S(D_y)`, the backward sweep from `D_y`, holds
/// the vertices from which it can reach acceptance in `D_y`.
///
/// Sent both ways, the two sweeps are *chained*: the direction with the
/// smaller seed set runs first (a constrained domain beats every vertex),
/// and the second sweep starts only from the first one's result
/// intersected with the other endpoint's domain. That is exact,
/// `D_x ∩ S(T(D_x) ∩ D_y) = D_x ∩ S(D_y)` — a source in `D_x` that reaches
/// some `y ∈ D_y` puts `y` in `T(D_x)` — and symmetrically, also under
/// the `⊥`-anywhere relaxation, because both directions walk one
/// relation. Returns `None` when the budget governor tripped mid-sweep
/// (the partial sets must not be used: they under-approximate and would
/// over-prune).
#[allow(clippy::too_many_arguments)]
fn track_feasible_within<T: Tracer>(
    db: &GraphDb,
    proj: &Projection,
    doms: [Option<&BitSet>; 2],
    send: [bool; 2],
    scratch: &mut SweepScratch,
    governor: Option<&Governor>,
    tracer: &T,
    phase: Phase,
) -> Option<[Option<BitSet>; 2]> {
    let mut pacer = Pacer::new(governor);
    let mut run = |direction, seeds| {
        sweep(
            db, proj, direction, seeds, None, scratch, &mut pacer, tracer, phase,
        )
        .reached
    };
    let [src_dom, dst_dom] = doms;
    // an unconstrained domain seeds its sweep from the label carriers
    let size = |dom: Option<&BitSet>, direction| {
        dom.map_or_else(|| all_seeds(db, proj, direction), BitSet::len)
    };
    let messages = match send {
        [true, true] if size(src_dom, Direction::Forward) <= size(dst_dom, Direction::Backward) => {
            let targets_ok = meet(run(Direction::Forward, Seeds::within(src_dom))?, dst_dom);
            let sources_ok = run(Direction::Backward, Seeds::Within(&targets_ok))?;
            [Some(sources_ok), Some(targets_ok)]
        }
        [true, true] => {
            let sources_ok = meet(run(Direction::Backward, Seeds::within(dst_dom))?, src_dom);
            let targets_ok = run(Direction::Forward, Seeds::Within(&sources_ok))?;
            [Some(sources_ok), Some(targets_ok)]
        }
        [true, false] => [
            Some(run(Direction::Backward, Seeds::within(dst_dom))?),
            None,
        ],
        [false, true] => [None, Some(run(Direction::Forward, Seeds::within(src_dom))?)],
        [false, false] => [None, None],
    };
    pacer.flush();
    Some(messages)
}

/// `set ∩ dom` (`dom = None` = every vertex).
fn meet(mut set: BitSet, dom: Option<&BitSet>) -> BitSet {
    if let Some(dom) = dom {
        set.intersect_with(dom);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_automata::relations;
    use ecrpq_query::Ecrpq;
    use std::sync::Arc;

    fn projections(p: &PreparedQuery) -> Vec<Vec<Projection>> {
        p.atoms
            .iter()
            .map(|a| {
                let nfa = a.rel.nfa().remove_epsilon().trim();
                (0..a.rel.arity())
                    .map(|t| Projection::new(&nfa, t))
                    .collect()
            })
            .collect()
    }

    /// A word relation `aaa` on a 2-edge chain: no vertex can source a
    /// 3-step `a`-path, so both endpoint domains must prune to empty.
    #[test]
    fn infeasible_word_relation_empties_domains() {
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
        let prepared = PreparedQuery::build(&q).unwrap();
        let pd = prune_domains(
            &db,
            &prepared,
            &projections(&prepared),
            None,
            &crate::trace::NoopTracer,
        );
        assert_eq!(pd.domains[0].as_deref(), Some(&[][..]));
        assert_eq!(pd.domains[1].as_deref(), Some(&[][..]));
        assert_eq!(pd.kept, 0);
        assert_eq!(pd.pruned, 6);
    }

    /// `aa` on the same chain: only `u` can source it, only `w` end it.
    #[test]
    fn word_relation_prunes_to_exact_endpoints() {
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
        q.rel_atom("aa", Arc::new(relations::word_relation(&[0, 0], 1)), &[p]);
        let prepared = PreparedQuery::build(&q).unwrap();
        let pd = prune_domains(
            &db,
            &prepared,
            &projections(&prepared),
            None,
            &crate::trace::NoopTracer,
        );
        assert_eq!(pd.domains[0].as_deref(), Some(&[u][..]));
        assert_eq!(pd.domains[1].as_deref(), Some(&[w][..]));
        assert_eq!(pd.kept, 2);
        assert_eq!(pd.pruned, 4);
    }

    /// Unconstrained relations (eq-length over the full alphabet) keep
    /// every vertex: pruning must not over-restrict.
    #[test]
    fn permissive_relation_keeps_full_domain() {
        let mut db = GraphDb::new();
        let u = db.add_node("u");
        let v = db.add_node("v");
        db.add_edge(u, 'a', v);
        db.add_edge(v, 'a', u);
        let m = db.alphabet().len();
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let p1 = q.path_atom(x, "p1", y);
        let p2 = q.path_atom(y, "p2", z);
        q.rel_atom("eq_len", Arc::new(relations::eq_length(2, m)), &[p1, p2]);
        let prepared = PreparedQuery::build(&q).unwrap();
        let pd = prune_domains(
            &db,
            &prepared,
            &projections(&prepared),
            None,
            &crate::trace::NoopTracer,
        );
        for d in &pd.domains {
            assert_eq!(d.as_deref(), Some(&[u, v][..]));
        }
        assert_eq!(pd.pruned, 0);
    }

    /// Two language atoms `a` on x→y and y→z over the chain u→v→w: the
    /// independent sweeps leave D(x) = {u,v} (both source an `a`-edge),
    /// but the Yannakakis top-down pass propagates D(y) = {v} back
    /// through the first atom, so D(x) shrinks to exactly {u} and D(z)
    /// to {w} — globally consistent domains the independent pass cannot
    /// reach.
    #[test]
    fn yannakakis_is_strictly_tighter_than_independent_sweeps() {
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
        let prepared = PreparedQuery::build(&q).unwrap();
        let projections = projections(&prepared);
        let tracer = crate::trace::NoopTracer;

        let indep = prune_domains(&db, &prepared, &projections, None, &tracer);
        assert_eq!(indep.domains[0].as_deref(), Some(&[u, v][..]));
        assert_eq!(indep.domains[1].as_deref(), Some(&[v][..]));
        assert_eq!(indep.domains[2].as_deref(), Some(&[v, w][..]));

        let tree = ecrpq_analyze::acyclic_join_tree(&q).expect("chain is acyclic");
        let yan = yannakakis_domains(&db, &prepared, &projections, &tree, None, &tracer);
        assert_eq!(yan.domains[0].as_deref(), Some(&[u][..]));
        assert_eq!(yan.domains[1].as_deref(), Some(&[v][..]));
        assert_eq!(yan.domains[2].as_deref(), Some(&[w][..]));
        assert!(yan.kept < indep.kept);
    }

    /// Seeding with the full domain must reproduce the independent
    /// sweeps exactly — the Yannakakis program on a single-atom tree
    /// degenerates to `prune_domains`.
    #[test]
    fn yannakakis_on_single_atom_matches_independent() {
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
        q.rel_atom("aa", Arc::new(relations::word_relation(&[0, 0], 1)), &[p]);
        let prepared = PreparedQuery::build(&q).unwrap();
        let projections = projections(&prepared);
        let tracer = crate::trace::NoopTracer;
        let indep = prune_domains(&db, &prepared, &projections, None, &tracer);
        let tree = ecrpq_analyze::acyclic_join_tree(&q).unwrap();
        let yan = yannakakis_domains(&db, &prepared, &projections, &tree, None, &tracer);
        assert_eq!(yan.domains, indep.domains);
    }

    /// An exhausted configuration budget stops refinement but keeps the
    /// domains sound (possibly fully unconstrained) — never empty.
    #[test]
    fn yannakakis_budget_trip_keeps_sound_domains() {
        use crate::governor::{Governor, ResourceBudget};
        let mut db = GraphDb::new();
        let u = db.add_node("u");
        let v = db.add_node("v");
        db.add_edge(u, 'a', v);
        db.add_edge(v, 'a', u);
        let mut q = Ecrpq::new(db.alphabet().clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let z = q.node_var("z");
        let p = q.path_atom(x, "p", y);
        let r = q.path_atom(y, "r", z);
        let a_word = Arc::new(relations::word_relation(&[0], 1));
        q.rel_atom("la", a_word.clone(), &[p]);
        q.rel_atom("lb", a_word, &[r]);
        let prepared = PreparedQuery::build(&q).unwrap();
        let projections = projections(&prepared);
        let tree = ecrpq_analyze::acyclic_join_tree(&q).unwrap();
        let governor = Governor::new(&ResourceBudget::default().with_max_configurations(0));
        let yan = yannakakis_domains(
            &db,
            &prepared,
            &projections,
            &tree,
            Some(&governor),
            &crate::trace::NoopTracer,
        );
        // both vertices stay allowed wherever a domain was installed
        for d in yan.domains.iter().flatten() {
            assert_eq!(d, &vec![u, v]);
        }
    }

    /// The schedules the chained, parent-directed ones replace: every
    /// track of the atoms in `order` swept both ways, each sweep seeded on
    /// its own — from every vertex (`seeded = false`, the independent
    /// pass) or from the swept endpoint's current domain.
    fn unchained(
        db: &GraphDb,
        prepared: &PreparedQuery,
        projections: &[Vec<Projection>],
        order: impl Iterator<Item = usize>,
        seeded: bool,
    ) -> Vec<Option<Vec<NodeId>>> {
        let nv = db.num_nodes();
        let mut sets: Vec<Option<BitSet>> = vec![None; prepared.num_node_vars];
        let mut scratch = SweepScratch::default();
        let mut pacer = Pacer::new(None);
        for ai in order {
            let (atom, tracks) = (&prepared.atoms[ai], &projections[ai]);
            for (&(src, dst), proj) in atom.endpoints.iter().zip(tracks) {
                let mut run = |direction, var: NodeVar| {
                    let dom = sets[var.0 as usize].as_ref().filter(|_| seeded);
                    let tracer = &crate::trace::NoopTracer;
                    sweep(
                        db,
                        proj,
                        direction,
                        Seeds::within(dom),
                        None,
                        &mut scratch,
                        &mut pacer,
                        tracer,
                        Phase::Semijoin,
                    )
                    .reached
                };
                let messages = [run(Direction::Backward, dst), run(Direction::Forward, src)];
                narrow(&mut sets, [src, dst], messages);
            }
        }
        finish_domains(sets, nv).domains
    }

    /// A random graph on `3..7` vertices with `a`- and `b`-edges.
    fn random_graph(rng: &mut rand::rngs::SmallRng) -> GraphDb {
        use rand::Rng;
        let n: usize = rng.gen_range(3..7);
        let mut db = GraphDb::new();
        db.alphabet_mut().intern('a');
        db.alphabet_mut().intern('b');
        let nodes: Vec<NodeId> = (0..n).map(|i| db.add_node(&format!("n{i}"))).collect();
        for _ in 0..2 * n {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            db.add_edge(
                nodes[u],
                if rng.gen_bool(0.5) { 'a' } else { 'b' },
                nodes[v],
            );
        }
        db
    }

    /// Languages the random queries draw from, three of them with `ε`.
    const LANGS: [&str; 10] = [
        "a", "b", "ab", "a*", "aa*", "(a|b)b*", "ba*", "(ab)*", "a|bb", "b*",
    ];

    /// A random Berge-acyclic arity-1 query with every variable free:
    /// `atoms` atoms on a chain `v₀ – v₁ – ⋯` or, with `star`, between a
    /// centre `v₀` and one leaf each, every atom oriented at random.
    /// Returns the query and its atoms as `(source, language, target)`.
    fn random_acyclic_crpq(
        db: &GraphDb,
        atoms: usize,
        star: bool,
        rng: &mut rand::rngs::SmallRng,
    ) -> (Ecrpq, Vec<(usize, Nfa<ecrpq_automata::Symbol>, usize)>) {
        use rand::Rng;
        let mut alphabet = db.alphabet().clone();
        let mut q = Ecrpq::new(alphabet.clone());
        let vars: Vec<NodeVar> = (0..=atoms).map(|i| q.node_var(&format!("v{i}"))).collect();
        let mut out = Vec::new();
        for i in 1..=atoms {
            let (mut x, mut y) = (if star { 0 } else { i - 1 }, i);
            if rng.gen_bool(0.5) {
                (x, y) = (y, x);
            }
            let text = LANGS[rng.gen_range(0..LANGS.len())];
            let lang = ecrpq_automata::Regex::compile_str(text, &mut alphabet).unwrap();
            q.crpq_atom(vars[x], &lang, text, vars[y]);
            out.push((x, lang, y));
        }
        q.set_free(&vars);
        (q, out)
    }

    /// Brute-force answers of an arity-1 query whose every variable is
    /// free: every assignment under which each atom `(x, L, y)` has an
    /// `L`-labelled walk from `x` to `y`, the walks decided by a search
    /// over (regex state, vertex) pairs.
    fn oracle(
        db: &GraphDb,
        num_vars: usize,
        atoms: &[(usize, Nfa<ecrpq_automata::Symbol>, usize)],
    ) -> std::collections::BTreeSet<Vec<NodeId>> {
        use std::collections::BTreeSet;
        let n = db.num_nodes();
        let walks: Vec<BTreeSet<(NodeId, NodeId)>> = atoms
            .iter()
            .map(|(_, lang, _)| {
                let lang = lang.remove_epsilon();
                let mut pairs = BTreeSet::new();
                for u in 0..n as NodeId {
                    let mut seen = BTreeSet::new();
                    let mut stack: Vec<(StateId, NodeId)> =
                        lang.initial_states().iter().map(|&q| (q, u)).collect();
                    while let Some((q, v)) = stack.pop() {
                        // lint:allow(unguarded-loop): test oracle, ≤ |Q|·|V| new pairs
                        if !seen.insert((q, v)) {
                            continue;
                        }
                        if lang.is_final(q) {
                            pairs.insert((u, v));
                        }
                        for &(a, q2) in lang.transitions_from(q) {
                            stack.extend(db.successors(v, a).iter().map(|&w| (q2, w)));
                        }
                    }
                }
                pairs
            })
            .collect();
        (0..n.pow(num_vars as u32))
            .map(|code| {
                (0..num_vars)
                    .map(|i| (code / n.pow(i as u32) % n) as NodeId)
                    .collect::<Vec<_>>()
            })
            .filter(|a| {
                atoms
                    .iter()
                    .zip(&walks)
                    .all(|((x, _, y), w)| w.contains(&(a[*x], a[*y])))
            })
            .collect()
    }

    /// On random Berge-acyclic arity-1 chains and stars the full reducer
    /// is exact: every Yannakakis domain is the projection of the answer
    /// set. The chained independent pass equals the unchained one, and
    /// the planner's product dispatch — one-shot and on cached plan
    /// tables — returns the oracle's answers at every thread count.
    #[test]
    fn chained_messages_keep_the_full_reducer_exact() {
        use crate::engine::EvalOptions;
        use crate::governor::Termination;
        use crate::planner::{run_answers, PlanTables, Strategy};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(16);
        let mut answered = 0;
        const CASES: usize = 40;
        for case in 0..CASES {
            let db = random_graph(&mut rng);
            let atoms = rng.gen_range(2..=4);
            let (q, langs) = random_acyclic_crpq(&db, atoms, case % 2 == 1, &mut rng);
            let truth = oracle(&db, atoms + 1, &langs);
            answered += !truth.is_empty() as usize;
            let prepared = PreparedQuery::build(&q).unwrap();
            let projections = projections(&prepared);
            let tree = ecrpq_analyze::acyclic_join_tree(&q).expect("acyclic");
            let tracer = crate::trace::NoopTracer;
            let yan = yannakakis_domains(&db, &prepared, &projections, &tree, None, &tracer);
            for v in 0..=atoms {
                let values: std::collections::BTreeSet<NodeId> =
                    truth.iter().map(|t| t[v]).collect();
                let values: Vec<NodeId> = values.into_iter().collect();
                assert_eq!(
                    yan.domains[v].as_deref(),
                    Some(&values[..]),
                    "case {case}: D(v{v})"
                );
            }
            let pd = prune_domains(&db, &prepared, &projections, None, &tracer);
            let atoms = 0..prepared.atoms.len();
            let reference = unchained(&db, &prepared, &projections, atoms, false);
            assert_eq!(pd.domains, reference, "case {case}");
            let cached = PlanTables::default();
            for threads in [1usize, 2, 4, 8] {
                let opts = EvalOptions::with_threads(threads);
                for reuse in [None, Some(&cached)] {
                    let got = run_answers(
                        &db,
                        Strategy::Yannakakis,
                        Some(&prepared),
                        reuse,
                        &opts,
                        &tracer,
                    );
                    let what =
                        format!("case {case}, {threads} threads, cached {}", reuse.is_some());
                    assert_eq!(got.termination, Termination::Complete, "{what}");
                    assert_eq!(got.answers, truth, "{what}");
                }
            }
        }
        assert!(answered >= CASES / 4, "only {answered}/{CASES} non-empty");
    }

    /// On random α-acyclic ECRPQs — synchronized two-track atoms (some
    /// padding), self-loop tracks, atoms sharing both endpoints — the
    /// parent-directed, chained program leaves exactly the domains of
    /// sweeping every track both ways, unchained, in both passes.
    #[test]
    fn parent_directed_schedule_keeps_the_domains() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(61);
        let (mut acyclic, mut synchronized) = (0, 0);
        for case in 0..300 {
            let db = random_graph(&mut rng);
            let m = db.alphabet().len();
            let mut alphabet = db.alphabet().clone();
            let mut q = Ecrpq::new(alphabet.clone());
            let vars: Vec<NodeVar> = (0..rng.gen_range(3..=4))
                .map(|i| q.node_var(&format!("v{i}")))
                .collect();
            let mut paths: Vec<ecrpq_query::PathVar> = (0..rng.gen_range(2..=4))
                .map(|i| {
                    let x = vars[rng.gen_range(0..vars.len())];
                    let y = vars[rng.gen_range(0..vars.len())];
                    q.path_atom(x, &format!("p{i}"), y)
                })
                .collect();
            while let Some(p) = paths.pop() {
                // lint:allow(unguarded-loop): at most four path atoms
                match paths.pop() {
                    Some(r) if rng.gen_bool(0.6) => {
                        let rel = match rng.gen_range(0..3) {
                            0 => relations::eq_length_min(2, m, 1),
                            1 => relations::prefix(m),
                            _ => {
                                let [l, r] = [(); 2].map(|()| {
                                    let text = LANGS[rng.gen_range(0..LANGS.len())];
                                    ecrpq_automata::Regex::compile_str(text, &mut alphabet).unwrap()
                                });
                                relations::product_of_languages(&[&l, &r], m)
                            }
                        };
                        q.rel_atom("sync", Arc::new(rel), &[p, r]);
                    }
                    r => {
                        paths.extend(r);
                        let text = LANGS[rng.gen_range(0..LANGS.len())];
                        let lang = ecrpq_automata::Regex::compile_str(text, &mut alphabet).unwrap();
                        q.rel_atom(text, Arc::new(relations::language(&lang, m)), &[p]);
                    }
                }
            }
            let Some(tree) = ecrpq_analyze::acyclic_join_tree(&q) else {
                continue;
            };
            let prepared = PreparedQuery::build(&q).unwrap();
            acyclic += 1;
            synchronized += prepared.atoms.iter().any(|a| a.endpoints.len() > 1) as usize;
            let projections = projections(&prepared);
            let tracer = crate::trace::NoopTracer;
            let yan = yannakakis_domains(&db, &prepared, &projections, &tree, None, &tracer);
            let both_passes = tree.order.iter().chain(tree.order.iter().rev()).copied();
            let reference = unchained(&db, &prepared, &projections, both_passes, true);
            assert_eq!(yan.domains, reference, "case {case}: {q:?}");
        }
        assert!(
            acyclic >= 100 && synchronized >= 40,
            "{acyclic} acyclic, {synchronized} synchronized"
        );
    }

    /// A budget of exactly the first sweep's pops trips the governor
    /// inside the second, seeded sweep of a chained pair. `x -[a]-> y`
    /// shares both endpoints with its parent `x -[a*]-> y`, so its
    /// bottom-up message is the program's first pair; the domains it
    /// leaves stay sound for the one answer `(c₄, c₅, w)`.
    #[test]
    fn budget_trip_inside_a_chained_pair_keeps_domains_sound() {
        use crate::governor::{Governor, ResourceBudget, Termination};
        use crate::trace::CollectingTracer;
        // an `a`-cycle c₀ → ⋯ → c₃₉₉₉ → c₀ and one `b`-edge c₅ → w
        let mut db = GraphDb::new();
        let cycle: Vec<NodeId> = (0..4000).map(|i| db.add_node(&format!("c{i}"))).collect();
        for (i, &c) in cycle.iter().enumerate() {
            db.add_edge(c, 'a', cycle[(i + 1) % cycle.len()]);
        }
        let w = db.add_node("w");
        db.add_edge(cycle[5], 'b', w);
        let mut alphabet = db.alphabet().clone();
        let mut q = Ecrpq::new(alphabet.clone());
        let (x, y, z) = (q.node_var("x"), q.node_var("y"), q.node_var("z"));
        for (src, text, dst) in [(x, "a", y), (x, "a*", y), (y, "b", z)] {
            let lang = ecrpq_automata::Regex::compile_str(text, &mut alphabet).unwrap();
            q.crpq_atom(src, &lang, text, dst);
        }
        q.set_free(&[x, y, z]);
        let prepared = PreparedQuery::build(&q).unwrap();
        let projections = projections(&prepared);
        let tree = ecrpq_analyze::acyclic_join_tree(&q).unwrap();
        assert_eq!((tree.order[0], tree.parent[0]), (0, Some(1)));
        let proj = &projections[0][0];
        let tracer = crate::trace::NoopTracer;
        let mut scratch = SweepScratch::default();
        let mut pacer = Pacer::new(None);
        let mut run = |direction, seeds| {
            sweep(
                &db,
                proj,
                direction,
                seeds,
                None,
                &mut scratch,
                &mut pacer,
                &tracer,
                Phase::YannakakisUp,
            )
        };
        let first = run(Direction::Forward, Seeds::All);
        let second = run(
            Direction::Backward,
            Seeds::Within(first.reached.as_ref().unwrap()),
        );
        assert!(
            second.pops > crate::governor::CHECK_INTERVAL,
            "no check-in inside the pair"
        );

        let governor =
            Governor::new(&ResourceBudget::unlimited().with_max_configurations(first.pops));
        let traced = CollectingTracer::new();
        let yan = yannakakis_domains(
            &db,
            &prepared,
            &projections,
            &tree,
            Some(&governor),
            &traced,
        );
        assert!(!matches!(governor.termination(), Termination::Complete));
        let up = *traced.metrics().phase(Phase::YannakakisUp);
        assert!(
            up.items > first.pops && up.items < first.pops + second.pops,
            "{up:?}"
        );
        assert_eq!(traced.metrics().phase(Phase::YannakakisDown).items, 0);
        for (var, value) in [(x, cycle[4]), (y, cycle[5]), (z, w)] {
            if let Some(d) = &yan.domains[var.0 as usize] {
                assert!(d.contains(&value), "D({var:?}) lost {value}");
            }
        }
    }

    /// Every track of `rel`, projected from its trimmed ε-free automaton.
    fn tracks_of(rel: &ecrpq_automata::SyncRel) -> Vec<Projection> {
        let nfa = rel.nfa().remove_epsilon().trim();
        (0..rel.arity()).map(|t| Projection::new(&nfa, t)).collect()
    }

    /// One ungoverned sweep from `seeds`.
    fn swept(db: &GraphDb, proj: &Projection, direction: Direction, seeds: Seeds<'_>) -> Swept {
        let mut scratch = SweepScratch::default();
        let mut pacer = Pacer::new(None);
        let tracer = crate::trace::NoopTracer;
        sweep(
            db,
            proj,
            direction,
            seeds,
            None,
            &mut scratch,
            &mut pacer,
            &tracer,
            Phase::Semijoin,
        )
    }

    /// A sweep from every vertex seeds only the label carriers of its
    /// start states, yet reaches exactly what a sweep seeded with every
    /// vertex reaches, on random graphs and on the tracks of random
    /// languages (`b*` and `(ab)*` accept at their start) and synchronized
    /// relations (whose tracks read `⊥`), in both directions.
    #[test]
    fn carrier_seeds_reach_what_every_vertex_reaches() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        let (mut padded, mut accepting, mut saved) = (0, 0, 0);
        for case in 0..300 {
            let db = random_graph(&mut rng);
            let m = db.alphabet().len();
            let mut alphabet = db.alphabet().clone();
            let mut lang = || {
                let text = LANGS[rng.gen_range(0..LANGS.len())];
                ecrpq_automata::Regex::compile_str(text, &mut alphabet).unwrap()
            };
            let rel = match case % 4 {
                0 => relations::prefix(m),
                1 => relations::eq_length_min(2, m, case % 3),
                2 => relations::product_of_languages(&[&lang(), &lang()], m),
                _ => relations::language(&lang(), m),
            };
            let every = BitSet::from_iter_with_capacity(db.num_nodes(), 0..db.num_nodes());
            for proj in tracks_of(&rel) {
                padded += proj.has_pad() as usize;
                accepting += proj.initial.iter().any(|&q| proj.is_final[q as usize]) as usize;
                for direction in [Direction::Forward, Direction::Backward] {
                    let got = swept(&db, &proj, direction, Seeds::All);
                    let want = swept(&db, &proj, direction, Seeds::Within(&every));
                    assert_eq!(got.reached, want.reached, "case {case}, {direction:?}");
                    assert!(got.pops <= want.pops, "case {case}, {direction:?}");
                    saved += (got.pops < want.pops) as usize;
                }
            }
        }
        assert!(
            padded >= 50 && accepting >= 50 && saved >= 100,
            "{padded} padded tracks, {accepting} accepting at a start, {saved} sweeps saved pops"
        );
    }

    /// A budget that trips inside a carrier-seeded sweep leaves no set:
    /// half the vertices carry an `a`-cycle, the other half no edge, and
    /// `aa*` from every vertex pops more than one check interval.
    #[test]
    fn budget_trip_inside_a_carrier_seeded_sweep_returns_no_set() {
        use crate::governor::{Governor, ResourceBudget};
        let mut db = GraphDb::new();
        let cycle: Vec<NodeId> = (0..6000).map(|i| db.add_node(&format!("c{i}"))).collect();
        for (i, &c) in cycle.iter().enumerate() {
            db.add_edge(c, 'a', cycle[(i + 1) % cycle.len()]);
        }
        db.add_nodes_anon(6000);
        let mut alphabet = db.alphabet().clone();
        let lang = ecrpq_automata::Regex::compile_str("aa*", &mut alphabet).unwrap();
        let proj = &tracks_of(&relations::language(&lang, db.alphabet().len()))[0];
        let free = swept(&db, proj, Direction::Forward, Seeds::All);
        let every = BitSet::from_iter_with_capacity(12_000, 0..12_000);
        let every = swept(&db, proj, Direction::Forward, Seeds::Within(&every));
        // the isolated half is never pushed
        assert_eq!(free.pops + 6000, every.pops);
        assert!(free.pops > crate::governor::CHECK_INTERVAL);
        assert_eq!(free.reached.as_ref().map(BitSet::len), Some(6000));

        let governor = Governor::new(&ResourceBudget::unlimited().with_max_configurations(1));
        let mut scratch = SweepScratch::default();
        let mut pacer = Pacer::new(Some(&governor));
        let cut = sweep(
            &db,
            proj,
            Direction::Forward,
            Seeds::All,
            None,
            &mut scratch,
            &mut pacer,
            &crate::trace::NoopTracer,
            Phase::Semijoin,
        );
        assert!(governor.stopped());
        assert!(cut.reached.is_none(), "a cut sweep must not return a set");
        assert!(cut.pops < free.pops);
    }

    /// On random Berge-acyclic arity-1 chains and stars, the program's
    /// domains under the cost-chosen root equal those of GYO's root and
    /// of every other root (each tree's passes swept both ways,
    /// unchained), and they are the oracle's projections of the answers.
    #[test]
    fn rerooted_domains_equal_every_roots_and_the_oracles() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(23);
        let mut rerooted = 0;
        for case in 0..60 {
            let db = random_graph(&mut rng);
            let atoms = rng.gen_range(2..=4);
            let (q, langs) = random_acyclic_crpq(&db, atoms, case % 2 == 1, &mut rng);
            let truth = oracle(&db, atoms + 1, &langs);
            let prepared = PreparedQuery::build(&q).unwrap();
            let projections = projections(&prepared);
            let tree = ecrpq_analyze::acyclic_join_tree(&q).expect("acyclic");
            rerooted += cheapest_roots(&db, &prepared, &projections, &tree).is_some() as usize;
            let tracer = crate::trace::NoopTracer;
            let yan = yannakakis_domains(&db, &prepared, &projections, &tree, None, &tracer);
            for v in 0..=atoms {
                let values: std::collections::BTreeSet<NodeId> =
                    truth.iter().map(|t| t[v]).collect();
                let values: Vec<NodeId> = values.into_iter().collect();
                assert_eq!(
                    yan.domains[v].as_deref(),
                    Some(&values[..]),
                    "case {case}: D(v{v})"
                );
            }
            for root in 0..prepared.atoms.len() {
                let t = tree.rerooted(root);
                let both_passes = t.order.iter().chain(t.order.iter().rev()).copied();
                let reference = unchained(&db, &prepared, &projections, both_passes, true);
                assert_eq!(yan.domains, reference, "case {case}, root {root}");
            }
        }
        assert!(rerooted >= 10, "only {rerooted}/60 trees re-rooted");
    }

    /// Where the full reducer is not exact — two atoms sharing a pair of
    /// variables, a self-loop, a synchronized atom — GYO's root stays and
    /// the domains are GYO's. Every case ends in an atom `y -[b]-> z`
    /// whose one `b`-edge seeds a single configuration, so the exact chain
    /// `x -[a]-> y, y -[b]-> z` moves the root from GYO's choice, that
    /// atom, to `x -[a]-> y`, making the cheap atom the leaf.
    #[test]
    fn inexact_trees_keep_gyos_root() {
        let mut db = GraphDb::new();
        let cycle: Vec<NodeId> = (0..50).map(|i| db.add_node(&format!("c{i}"))).collect();
        for (i, &c) in cycle.iter().enumerate() {
            db.add_edge(c, 'a', cycle[(i + 1) % cycle.len()]);
        }
        let w = db.add_node("w");
        db.add_edge(cycle[5], 'b', w);
        let m = db.alphabet().len();
        let tracer = crate::trace::NoopTracer;
        let chain = |q: &mut Ecrpq,
                     alphabet: &mut ecrpq_automata::Alphabet,
                     atoms: &[(NodeVar, &str, NodeVar)]| {
            for &(src, text, dst) in atoms {
                let lang = ecrpq_automata::Regex::compile_str(text, alphabet).unwrap();
                q.crpq_atom(src, &lang, text, dst);
            }
        };
        let mut cases = Vec::new();
        for shape in ["pair", "loop", "sync", "exact"] {
            let mut alphabet = db.alphabet().clone();
            let mut q = Ecrpq::new(alphabet.clone());
            let (x, y, z) = (q.node_var("x"), q.node_var("y"), q.node_var("z"));
            match shape {
                "pair" => chain(
                    &mut q,
                    &mut alphabet,
                    &[(x, "a", y), (x, "a*", y), (y, "b", z)],
                ),
                "loop" => chain(
                    &mut q,
                    &mut alphabet,
                    &[(x, "aa*", x), (x, "a", y), (y, "b", z)],
                ),
                "sync" => {
                    let u = q.node_var("u");
                    let p = q.path_atom(u, "p", x);
                    let r = q.path_atom(x, "r", y);
                    q.rel_atom("eq_len", Arc::new(relations::eq_length(2, m)), &[p, r]);
                    chain(&mut q, &mut alphabet, &[(y, "b", z)]);
                }
                _ => chain(&mut q, &mut alphabet, &[(x, "a", y), (y, "b", z)]),
            }
            q.set_free(&[x, y, z]);
            cases.push((shape, q));
        }
        for (shape, q) in cases {
            let prepared = PreparedQuery::build(&q).unwrap();
            let projections = projections(&prepared);
            let tree = ecrpq_analyze::acyclic_join_tree(&q).expect("acyclic");
            let leaf = prepared.atoms.len() - 1;
            let chosen = cheapest_roots(&db, &prepared, &projections, &tree);
            let yan = yannakakis_domains(&db, &prepared, &projections, &tree, None, &tracer);
            let both_passes = tree.order.iter().chain(tree.order.iter().rev()).copied();
            let gyo = unchained(&db, &prepared, &projections, both_passes, true);
            assert_eq!(yan.domains, gyo, "{shape}");
            if shape == "exact" {
                // the `b`-leaf's one carrier beats every `a`-source
                let chosen = chosen.expect("an exact tree re-roots");
                assert!(chosen.parent[leaf].is_some() && tree.parent[leaf].is_none());
            } else {
                assert_eq!(chosen, None, "{shape}: {tree:?}");
            }
        }
    }
}
