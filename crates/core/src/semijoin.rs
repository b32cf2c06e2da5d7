//! Semijoin endpoint pruning for the product evaluator.
//!
//! Before the backtracking enumeration, every merged atom contributes one
//! necessary condition per track `i`: if `xᵢ = v`, then some accepting
//! configuration must be **single-track reachable** from `v` — there is a
//! run of the atom's automaton, projected to track `i`, that walks the
//! database from `v` to acceptance. Symmetrically, `yᵢ = u` requires that
//! the projection can *reach* `u` at acceptance from some source. Both
//! sets are computed by one forward and one backward multi-source sweep
//! over the `|Q| · |V|` product of the projected automaton with the
//! database (CSR successors forward, CSR predecessors backward).
//!
//! Intersecting these per-(atom, track) feasible sets over all atoms
//! shrinks each node variable's enumeration domain from the full `|V|`
//! to the values that can possibly participate in an answer — a semijoin
//! of the `O(|V|^{#nodevars})` outer enumeration against single-track
//! reachability. Pruning is sound, never complete-by-itself: every real
//! product run projects to a run of each track's projection, so a value
//! outside the pruned domain can never satisfy the atom, and the answer
//! set is the unpruned search's (the differential suites assert it
//! against the oracle and the Lemma 4.3 CQ reduction).
//!
//! When the CQ reduction is α-acyclic ([`ecrpq_analyze::acyclic`]), the
//! independent sweeps upgrade to a full *Yannakakis semijoin program*
//! ([`yannakakis_domains`]): the same sweeps, but *seeded* with the
//! current domain of the swept endpoint, run bottom-up then top-down over
//! the join tree. A seeded forward sweep computes exactly the semijoin
//! message "targets reachable from the currently-allowed sources"; the
//! seeded backward sweep computes "sources that reach a currently-allowed
//! target". After both passes every domain is *globally* consistent — on
//! single-track (tree-shaped) queries this is arc consistency on a tree,
//! so the subsequent enumeration is backtrack-free and its delay is
//! bounded by the domain sizes rather than the database size.

use crate::governor::{Governor, Pacer};
use crate::prepare::PreparedQuery;
use crate::trace::{Phase, Tracer};
use ecrpq_analyze::JoinTree;
use ecrpq_automata::{BitSet, Nfa, Row, StateId, Track};
use ecrpq_graph::{GraphDb, NodeId};

/// Per-track sweeps are skipped when `|Q| · |V|` exceeds this bound, so
/// the pruning pass can never dominate the evaluation it accelerates.
const MAX_TRACK_SPACE: u128 = 1 << 24;

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

/// Runs the semijoin pass over every (atom, track) pair. `automata` are
/// the trimmed ε-free automata of `query.atoms`, in order.
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
    automata: &[Nfa<Row>],
    governor: Option<&Governor>,
    tracer: &T,
) -> PrunedDomains {
    let nv = db.num_nodes();
    let mut sets: Vec<Option<BitSet>> = vec![None; query.num_node_vars];
    'atoms: for (atom, nfa) in query.atoms.iter().zip(automata) {
        let nq = nfa.num_states();
        if (nq as u128) * (nv as u128) > MAX_TRACK_SPACE {
            continue; // too large to sweep; this atom constrains nothing
        }
        for (i, &(src, dst)) in atom.endpoints.iter().enumerate() {
            let Some((sources_ok, targets_ok)) = track_feasible_within(
                db,
                nfa,
                i,
                nv,
                None,
                None,
                governor,
                tracer,
                Phase::Semijoin,
            ) else {
                break 'atoms; // budget tripped mid-sweep: stop pruning
            };
            for (var, ok) in [(src, sources_ok), (dst, targets_ok)] {
                let slot = &mut sets[var.0 as usize];
                match slot {
                    Some(s) => s.intersect_with(&ok),
                    None => *slot = Some(ok),
                }
            }
        }
    }
    finish_domains(sets, nv)
}

/// The Yannakakis semijoin program over an α-acyclic join tree: the same
/// per-(atom, track) sweeps as [`prune_domains`], but *seeded* with the
/// current domains of the swept endpoints and scheduled bottom-up
/// (`tree.order` forwards, [`Phase::YannakakisUp`]) then top-down
/// (backwards, [`Phase::YannakakisDown`]). Each seeded sweep is a
/// directed semijoin message along a join-tree arc; after both passes
/// every constrained variable's domain contains only globally consistent
/// values.
///
/// Soundness under budgets matches `prune_domains`: the domain sets
/// always over-approximate the answer-participating values (a seeded
/// sweep only propagates that invariant), and a sweep cut short by the
/// governor refines nothing further — the current, weaker domains are
/// returned as-is.
pub(crate) fn yannakakis_domains<T: Tracer>(
    db: &GraphDb,
    query: &PreparedQuery,
    automata: &[Nfa<Row>],
    tree: &JoinTree,
    governor: Option<&Governor>,
    tracer: &T,
) -> PrunedDomains {
    let nv = db.num_nodes();
    let mut sets: Vec<Option<BitSet>> = vec![None; query.num_node_vars];
    for (phase, bottom_up) in [(Phase::YannakakisUp, true), (Phase::YannakakisDown, false)] {
        let span = crate::trace::PhaseSpan::start(tracer, phase);
        let order: Vec<usize> = if bottom_up {
            tree.order.clone()
        } else {
            tree.order.iter().rev().copied().collect()
        };
        let mut tripped = false;
        'atoms: for ai in order {
            let (atom, nfa) = (&query.atoms[ai], &automata[ai]);
            let nq = nfa.num_states();
            if (nq as u128) * (nv as u128) > MAX_TRACK_SPACE {
                continue; // too large to sweep; this atom constrains nothing
            }
            for (i, &(src, dst)) in atom.endpoints.iter().enumerate() {
                let Some((sources_ok, targets_ok)) = track_feasible_within(
                    db,
                    nfa,
                    i,
                    nv,
                    sets[src.0 as usize].as_ref(),
                    sets[dst.0 as usize].as_ref(),
                    governor,
                    tracer,
                    phase,
                ) else {
                    // budget tripped: keep current (sound) domains
                    tripped = true;
                    break 'atoms;
                };
                for (var, ok) in [(src, sources_ok), (dst, targets_ok)] {
                    let slot = &mut sets[var.0 as usize];
                    match slot {
                        Some(s) => s.intersect_with(&ok),
                        None => *slot = Some(ok),
                    }
                }
            }
        }
        span.finish(tracer);
        if tripped {
            break;
        }
    }
    finish_domains(sets, nv)
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

/// Forward/backward reachability over the product of the track-`i`
/// projection of `nfa` with the database, optionally *seeded*: the
/// forward sweep starts only from source vertices in `src_seed`, the
/// backward sweep only from target vertices in `dst_seed` (`None` = the
/// full vertex set, recovering the independent sweep). Returns
/// `(sources_ok, targets_ok)`: `sources_ok` = vertices from which the
/// projection can reach acceptance *at a `dst_seed` vertex*, and
/// `targets_ok` = vertices where the projection can accept having
/// *started from a `src_seed` vertex* — the two directed semijoin
/// messages of a Yannakakis arc. Returns `None` when the budget
/// governor tripped mid-sweep (the partial sets must not be used: they
/// under-approximate and would over-prune).
#[allow(clippy::too_many_arguments)]
fn track_feasible_within<T: Tracer>(
    db: &GraphDb,
    nfa: &Nfa<Row>,
    track: usize,
    nv: usize,
    src_seed: Option<&BitSet>,
    dst_seed: Option<&BitSet>,
    governor: Option<&Governor>,
    tracer: &T,
    phase: Phase,
) -> Option<(BitSet, BitSet)> {
    let mut pacer = Pacer::new(governor);
    let nq = nfa.num_states();
    // deduplicated per-state projections of the transition relation
    let mut fwd: Vec<Vec<(Track, StateId)>> = vec![Vec::new(); nq];
    let mut rev: Vec<Vec<(Track, StateId)>> = vec![Vec::new(); nq];
    for q in 0..nq as StateId {
        for (row, q2) in nfa.transitions_from(q) {
            let t = row[track];
            fwd[q as usize].push((t, *q2));
            rev[*q2 as usize].push((t, q));
        }
    }
    for list in fwd.iter_mut().chain(rev.iter_mut()) {
        list.sort_unstable();
        list.dedup();
    }
    let idx = |q: StateId, v: usize| q as usize * nv + v;

    // forward from all (initial state, vertex) pairs
    let mut seen = BitSet::new(nq * nv);
    let mut stack: Vec<(StateId, NodeId)> = Vec::new();
    for &q0 in nfa.initial_states() {
        for v in 0..nv {
            if src_seed.is_none_or(|s| s.contains(v)) && seen.insert(idx(q0, v)) {
                stack.push((q0, v as NodeId));
            }
        }
    }
    while let Some((q, v)) = stack.pop() {
        // cooperative budget check, amortized to every ~4k pops
        if pacer.tick_traced(tracer, phase) {
            return None;
        }
        if T::ENABLED {
            tracer.count(phase, 1);
        }
        for &(t, q2) in &fwd[q as usize] {
            match t {
                Track::Pad => {
                    if seen.insert(idx(q2, v as usize)) {
                        stack.push((q2, v));
                    }
                }
                Track::Sym(a) => {
                    for &u in db.successors(v, a) {
                        if seen.insert(idx(q2, u as usize)) {
                            stack.push((q2, u));
                        }
                    }
                }
            }
        }
    }
    let mut targets_ok = BitSet::new(nv);
    for q in 0..nq as StateId {
        if nfa.is_final(q) {
            for v in 0..nv {
                if seen.contains(idx(q, v)) {
                    targets_ok.insert(v);
                }
            }
        }
    }

    // backward from all (final state, vertex) pairs
    let mut seen_b = BitSet::new(nq * nv);
    let mut stack: Vec<(StateId, NodeId)> = Vec::new();
    for q in 0..nq as StateId {
        if nfa.is_final(q) {
            for v in 0..nv {
                if dst_seed.is_none_or(|s| s.contains(v)) && seen_b.insert(idx(q, v)) {
                    stack.push((q, v as NodeId));
                }
            }
        }
    }
    while let Some((q2, u)) = stack.pop() {
        // cooperative budget check, amortized to every ~4k pops
        if pacer.tick_traced(tracer, phase) {
            return None;
        }
        if T::ENABLED {
            tracer.count(phase, 1);
        }
        for &(t, q) in &rev[q2 as usize] {
            match t {
                Track::Pad => {
                    if seen_b.insert(idx(q, u as usize)) {
                        stack.push((q, u));
                    }
                }
                Track::Sym(a) => {
                    for &v in db.predecessors(u, a) {
                        if seen_b.insert(idx(q, v as usize)) {
                            stack.push((q, v));
                        }
                    }
                }
            }
        }
    }
    let mut sources_ok = BitSet::new(nv);
    for &q0 in nfa.initial_states() {
        for v in 0..nv {
            if seen_b.contains(idx(q0, v)) {
                sources_ok.insert(v);
            }
        }
    }
    pacer.flush();
    Some((sources_ok, targets_ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_automata::relations;
    use ecrpq_query::Ecrpq;
    use std::sync::Arc;

    fn trimmed(p: &PreparedQuery) -> Vec<Nfa<Row>> {
        p.atoms
            .iter()
            .map(|a| a.rel.nfa().remove_epsilon().trim())
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
            &trimmed(&prepared),
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
            &trimmed(&prepared),
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
            &trimmed(&prepared),
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
        let automata = trimmed(&prepared);
        let tracer = crate::trace::NoopTracer;

        let indep = prune_domains(&db, &prepared, &automata, None, &tracer);
        assert_eq!(indep.domains[0].as_deref(), Some(&[u, v][..]));
        assert_eq!(indep.domains[1].as_deref(), Some(&[v][..]));
        assert_eq!(indep.domains[2].as_deref(), Some(&[v, w][..]));

        let tree = ecrpq_analyze::acyclic_join_tree(&q).expect("chain is acyclic");
        let yan = yannakakis_domains(&db, &prepared, &automata, &tree, None, &tracer);
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
        let automata = trimmed(&prepared);
        let tracer = crate::trace::NoopTracer;
        let indep = prune_domains(&db, &prepared, &automata, None, &tracer);
        let tree = ecrpq_analyze::acyclic_join_tree(&q).unwrap();
        let yan = yannakakis_domains(&db, &prepared, &automata, &tree, None, &tracer);
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
        let automata = trimmed(&prepared);
        let tree = ecrpq_analyze::acyclic_join_tree(&q).unwrap();
        let governor = Governor::new(&ResourceBudget::default().with_max_configurations(0));
        let yan = yannakakis_domains(
            &db,
            &prepared,
            &automata,
            &tree,
            Some(&governor),
            &crate::trace::NoopTracer,
        );
        // both vertices stay allowed wherever a domain was installed
        for d in yan.domains.iter().flatten() {
            assert_eq!(d, &vec![u, v]);
        }
    }
}
