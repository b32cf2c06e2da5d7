//! Conjunctive-query evaluation.
//!
//! Two evaluators:
//!
//! * [`eval_cq`] / [`answers_cq`] — backtracking join (the textbook NP
//!   algorithm), used as the baseline and as the final enumeration step;
//! * [`eval_cq_treedec`] / [`answers_cq_treedec`] — the `n^{tw+1}`
//!   tree-decomposition + Yannakakis-semijoin algorithm behind
//!   Proposition 2.3(1), i.e. the polynomial-time engine of the tractable
//!   regime (Theorems 3.1(3), 3.2(3)). Bags are populated by joining the
//!   atoms assigned to them (every atom's variables form a clique in the
//!   Gaifman graph, hence fit in some bag), then reduced by an upward and a
//!   downward semijoin pass.

use crate::enumerate::Odometer;
use crate::fnv::{FnvHashMap, FnvHashSet};
use crate::governor::{AnswerClaim, Claim, Governor, Pacer};
use crate::trace::{NoopTracer, Phase, PhaseSpan, Tracer};
use ecrpq_query::{Cq, CqAtom, RelationalDb};
use ecrpq_structure::{treewidth_exact, treewidth_upper_bound, TreeDecomposition};
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Evaluates a Boolean CQ by backtracking join.
pub fn eval_cq(db: &RelationalDb, q: &Cq) -> bool {
    eval_cq_part(db, q, None, None, &NoopTracer)
}

/// As [`eval_cq`], optionally restricted to one stride class
/// `(parts, part)` of the first atom's candidate tuples — the parallel
/// engine's partitioning hook. `None` searches everything. The budget
/// `governor`, when present, is checked in the candidate loops.
pub(crate) fn eval_cq_part<T: Tracer>(
    db: &RelationalDb,
    q: &Cq,
    part: Option<(usize, usize)>,
    governor: Option<&Governor>,
    tracer: &T,
) -> bool {
    let mut found = false;
    let span = PhaseSpan::start(tracer, Phase::CqJoin);
    backtrack(db, q, part, governor, tracer, &mut |_| {
        found = true;
        true
    });
    span.finish(tracer);
    found
}

/// All answers of a CQ (tuples over its free variables) by backtracking.
pub fn answers_cq(db: &RelationalDb, q: &Cq) -> BTreeSet<Vec<u32>> {
    let mut out = BTreeSet::new();
    answers_cq_part(db, q, None, None, &NoopTracer, &mut out);
    out
}

/// As [`answers_cq`], restricted to one stride class of the first atom's
/// candidates and accumulating into `out` (so workers can merge cheaply).
///
/// The [`Phase::CqJoin`] span covers the whole backtracking run, including
/// the nested free-tuple odometer (whose *items* are still booked under
/// [`Phase::Odometer`]).
pub(crate) fn answers_cq_part<T: Tracer>(
    db: &RelationalDb,
    q: &Cq,
    part: Option<(usize, usize)>,
    governor: Option<&Governor>,
    tracer: &T,
    out: &mut BTreeSet<Vec<u32>>,
) {
    let domain = db.domain_size();
    let mut claim = AnswerClaim::new(governor);
    let mut odometer = Odometer::default();
    let span = PhaseSpan::start(tracer, Phase::CqJoin);
    backtrack(db, q, part, governor, tracer, &mut |assignment| {
        odometer.reset(q.free.iter().map(|&v| assignment[v]));
        while let Some(tuple) = odometer.next(domain) {
            // lint:allow(unguarded-loop): `AnswerClaim::offer` paces every tuple
            if claim.offer(tracer, out, tuple) == Claim::Stop {
                return true; // abandon the search once the budget trips
            }
        }
        false
    });
    span.finish(tracer);
    claim.flush();
}

/// Join indexes built lazily per (relation, bound-position pattern):
/// tuples are snapshotted once per relation and grouped by their projection
/// onto the bound positions, turning each backtracking step from a full
/// scan into a hash lookup.
#[derive(Default)]
struct JoinIndex {
    snapshots: FnvHashMap<String, Vec<Vec<u32>>>,
    by_pattern: FnvHashMap<(String, u64), FnvHashMap<Vec<u32>, Vec<u32>>>,
}

impl JoinIndex {
    fn snapshot(&mut self, db: &RelationalDb, relation: &str) -> &Vec<Vec<u32>> {
        self.snapshots
            .entry(relation.to_string())
            .or_insert_with(|| {
                db.relation(relation)
                    .map(|r| r.tuples.iter().cloned().collect())
                    .unwrap_or_default()
            })
    }

    /// Tuple indices matching the bound positions (`mask` bit `i` set ⇔
    /// position `i` bound to `key[...]`, keys in position order).
    fn candidates(
        &mut self,
        db: &RelationalDb,
        relation: &str,
        mask: u64,
        key: &[u32],
    ) -> Vec<u32> {
        if mask == 0 {
            let n = self.snapshot(db, relation).len() as u32;
            return (0..n).collect();
        }
        if !self.by_pattern.contains_key(&(relation.to_string(), mask)) {
            let snapshot = self.snapshot(db, relation).clone();
            let mut index: FnvHashMap<Vec<u32>, Vec<u32>> = FnvHashMap::default();
            for (i, t) in snapshot.iter().enumerate() {
                let k: Vec<u32> = (0..t.len())
                    .filter(|&p| mask & (1 << p) != 0)
                    .map(|p| t[p])
                    .collect();
                index.entry(k).or_default().push(i as u32);
            }
            self.by_pattern.insert((relation.to_string(), mask), index);
        }
        self.by_pattern[&(relation.to_string(), mask)]
            .get(key)
            .cloned()
            .unwrap_or_default()
    }

    /// Fetches tuple `i` of a snapshot (clone into a scratch buffer).
    fn tuple(&self, relation: &str, i: u32) -> &[u32] {
        &self.snapshots[relation][i as usize]
    }
}

/// Backtracking core: orders atoms to maximize bound variables, iterates
/// matching tuples. `on_success` receives the assignment (variables not in
/// any atom stay `None`) and returns `true` to stop.
///
/// With `part = Some((parts, p))`, only candidates of the **first** ordered
/// atom whose index is ≡ `p (mod parts)` are explored. The first atom has
/// no bound variables, so its candidate list is every tuple of its
/// relation; the stride classes therefore partition the full search space
/// (their union over `p = 0..parts` is exactly the unrestricted search).
fn backtrack<T: Tracer>(
    db: &RelationalDb,
    q: &Cq,
    part: Option<(usize, usize)>,
    governor: Option<&Governor>,
    tracer: &T,
    on_success: &mut impl FnMut(&[Option<u32>]) -> bool,
) {
    // static greedy order: repeatedly pick the atom sharing most variables
    // with already-ordered atoms (ties: smaller relation first)
    let mut remaining: Vec<usize> = (0..q.atoms.len()).collect();
    let mut bound: HashSet<usize> = HashSet::new();
    let mut order: Vec<usize> = Vec::with_capacity(q.atoms.len());
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, &i)| {
                let a = &q.atoms[i];
                let shared = a.vars.iter().filter(|v| bound.contains(v)).count();
                let size = db.relation(&a.relation).map_or(0, |r| r.tuples.len());
                (shared, usize::MAX - size)
            })
            // lint:allow(unwrap): max_by_key over ≥1 candidate root
            .unwrap();
        order.push(best);
        for &v in &q.atoms[best].vars {
            bound.insert(v);
        }
        remaining.swap_remove(pos);
    }
    let mut assignment: Vec<Option<u32>> = vec![None; q.num_vars];
    let mut index = JoinIndex::default();
    // A zero-atom query succeeds once regardless of stride: run it only in
    // part 0 so parallel workers don't multiply the success.
    if order.is_empty() {
        if part.is_none_or(|(_, p)| p == 0) {
            on_success(&assignment);
        }
        return;
    }
    let mut pacer = Pacer::new(governor);
    rec(
        db,
        q,
        &order,
        0,
        part,
        &mut assignment,
        &mut index,
        &mut pacer,
        tracer,
        on_success,
    );
    pacer.flush();
}

#[allow(clippy::too_many_arguments)]
fn rec<T: Tracer>(
    db: &RelationalDb,
    q: &Cq,
    order: &[usize],
    idx: usize,
    part: Option<(usize, usize)>,
    assignment: &mut Vec<Option<u32>>,
    index: &mut JoinIndex,
    pacer: &mut Pacer<'_>,
    tracer: &T,
    on_success: &mut impl FnMut(&[Option<u32>]) -> bool,
) -> bool {
    if idx == order.len() {
        return on_success(assignment);
    }
    let atom = &q.atoms[order[idx]];
    // bound-position pattern + lookup key
    let mut mask: u64 = 0;
    let mut key: Vec<u32> = Vec::new();
    for (i, &v) in atom.vars.iter().enumerate() {
        if let Some(x) = assignment[v] {
            mask |= 1 << i;
            key.push(x);
        }
    }
    let mut candidates = index.candidates(db, &atom.relation, mask, &key);
    if idx == 0 {
        if let Some((parts, p)) = part {
            let mut ci = 0usize;
            candidates.retain(|_| {
                let keep = ci % parts == p;
                ci += 1;
                keep
            });
        }
    }
    let mut tuple: Vec<u32> = Vec::new();
    'tuples: for &ti in &candidates {
        // cooperative budget check: one work unit per candidate tuple,
        // plus a cheap stop-flag load so sibling loops unwind promptly
        // once some worker trips the budget
        if pacer.tick_traced(tracer, Phase::CqJoin) || pacer.stopped() {
            break 'tuples;
        }
        if T::ENABLED {
            tracer.count(Phase::CqJoin, 1);
        }
        tuple.clear();
        tuple.extend_from_slice(index.tuple(&atom.relation, ti));
        debug_assert_eq!(tuple.len(), atom.vars.len());
        let mut written: Vec<usize> = Vec::new();
        for (i, &v) in atom.vars.iter().enumerate() {
            match assignment[v] {
                None => {
                    assignment[v] = Some(tuple[i]);
                    written.push(v);
                }
                Some(x) if x == tuple[i] => {}
                Some(_) => {
                    for &w in &written {
                        assignment[w] = None;
                    }
                    continue 'tuples;
                }
            }
        }
        if rec(
            db,
            q,
            order,
            idx + 1,
            None,
            assignment,
            index,
            pacer,
            tracer,
            on_success,
        ) {
            for &w in &written {
                assignment[w] = None;
            }
            return true;
        }
        for &w in &written {
            assignment[w] = None;
        }
    }
    false
}

/// Work counters for the tree-decomposition evaluator.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreedecStats {
    /// Width of the decomposition used.
    pub width: usize,
    /// Total bag tuples before reduction.
    pub bag_tuples: usize,
    /// Total bag tuples after both semijoin passes.
    pub reduced_tuples: usize,
}

/// Evaluates a Boolean CQ with the tree-decomposition + Yannakakis
/// algorithm.
pub fn eval_cq_treedec(db: &RelationalDb, q: &Cq) -> bool {
    eval_cq_treedec_threads(db, q, 1, None, &NoopTracer)
}

/// As [`eval_cq_treedec`], populating bags with `threads` workers under an
/// optional budget governor. "All bags non-empty ⇒ satisfiable" only
/// holds for a *complete* reduction, so a budget-tripped run never reports
/// `true` — a governed `false` under a non-`Complete` termination means
/// "not proven", which is the sound direction.
pub(crate) fn eval_cq_treedec_threads<T: Tracer>(
    db: &RelationalDb,
    q: &Cq,
    threads: usize,
    governor: Option<&Governor>,
    tracer: &T,
) -> bool {
    let (bags, _, _) = reduce(db, q, threads, governor, tracer);
    !governor.is_some_and(Governor::stopped)
        && bags.is_some_and(|b| b.iter().all(|r| !r.tuples.is_empty()))
}

/// As [`eval_cq_treedec`] with counters.
pub fn eval_cq_treedec_with_stats(db: &RelationalDb, q: &Cq) -> (bool, TreedecStats) {
    let (bags, _, stats) = reduce(db, q, 1, None, &NoopTracer);
    (
        bags.is_some_and(|b| b.iter().all(|r| !r.tuples.is_empty())),
        stats,
    )
}

/// All answers via tree decomposition: semijoin-reduce, then enumerate the
/// (now dangling-free) acyclic join by backtracking over bag relations.
pub fn answers_cq_treedec(db: &RelationalDb, q: &Cq) -> BTreeSet<Vec<u32>> {
    match treedec_join_instance(db, q, 1, None, &NoopTracer) {
        Some((jdb, jq)) => answers_cq(&jdb, &jq),
        None => BTreeSet::new(),
    }
}

/// The reduced acyclic instance behind [`answers_cq_treedec`]: a database
/// of semijoin-reduced bag relations `B0, B1, …` and a CQ joining them.
/// `None` means the query is unsatisfiable (some bag emptied). Bags are
/// populated with `threads` workers; the instance itself is deterministic
/// regardless of thread count.
pub(crate) fn treedec_join_instance<T: Tracer>(
    db: &RelationalDb,
    q: &Cq,
    threads: usize,
    governor: Option<&Governor>,
    tracer: &T,
) -> Option<(RelationalDb, Cq)> {
    let (bags, _dec, _) = reduce(db, q, threads, governor, tracer);
    let bags = bags?;
    if bags.iter().any(|r| r.tuples.is_empty()) {
        return None;
    }
    // Build a CQ whose atoms are the reduced bag relations.
    let mut jdb = RelationalDb::new(db.domain_size());
    let mut jq = Cq::new(q.num_vars);
    jq.free = q.free.clone();
    for (i, bag_rel) in bags.iter().enumerate() {
        let name = format!("B{i}");
        jdb.declare(&name, bag_rel.vars.len());
        for t in &bag_rel.tuples {
            jdb.insert(&name, t);
        }
        jq.atoms.push(CqAtom {
            relation: name,
            vars: bag_rel.vars.clone(),
        });
    }
    Some((jdb, jq))
}

/// A bag's relation: tuples over the bag's variables.
struct BagRelation {
    vars: Vec<usize>,
    tuples: Vec<Vec<u32>>,
}

/// Shared pipeline: decompose, populate bags, semijoin both ways.
/// Returns `None` bags when some atom cannot be placed (only possible for
/// an invalid decomposition — defensive).
#[allow(clippy::type_complexity)]
fn reduce<T: Tracer>(
    db: &RelationalDb,
    q: &Cq,
    threads: usize,
    governor: Option<&Governor>,
    tracer: &T,
) -> (Option<Vec<BagRelation>>, TreeDecomposition, TreedecStats) {
    let g = q.gaifman();
    let (width, dec) = if g.num_vertices() <= 64 {
        treewidth_exact(&g)
    } else {
        treewidth_upper_bound(&g)
    };
    let mut stats = TreedecStats {
        width,
        ..Default::default()
    };
    if dec.bags.is_empty() {
        // zero-variable query: vacuously true
        return (Some(Vec::new()), dec, stats);
    }
    // Assign each atom to a bag containing all its variables.
    let mut atoms_of_bag: Vec<Vec<usize>> = vec![Vec::new(); dec.bags.len()];
    for (ai, atom) in q.atoms.iter().enumerate() {
        let home = dec
            .bags
            .iter()
            .position(|bag| atom.vars.iter().all(|v| bag.contains(v)));
        match home {
            Some(b) => atoms_of_bag[b].push(ai),
            None => return (None, dec, stats),
        }
    }
    // Populate bags: join the bag's atoms, then cartesian-fill uncovered
    // bag variables over the domain. Bags are independent until the
    // semijoin passes, so this fans out across workers.
    let nb = dec.bags.len();
    let workers = threads.clamp(1, nb.max(1));
    let tuples_per_bag: Vec<Vec<Vec<u32>>> = if workers <= 1 {
        dec.bags
            .iter()
            .enumerate()
            .map(|(bi, bag_vars)| {
                populate_bag(db, q, bag_vars, &atoms_of_bag[bi], governor, tracer)
            })
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Vec<Vec<u32>>> = vec![Vec::new(); nb];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (next, dec, atoms_of_bag) = (&next, &dec, &atoms_of_bag);
                    // fork before spawn so worker counter blocks register
                    // in deterministic (spawn) order
                    let worker_tracer = tracer.fork_worker();
                    s.spawn(move || {
                        let mut mine: Vec<(usize, Vec<Vec<u32>>)> = Vec::new();
                        loop {
                            let bi = next.fetch_add(1, Ordering::Relaxed);
                            if bi >= nb || governor.is_some_and(Governor::stopped) {
                                return mine;
                            }
                            mine.push((
                                bi,
                                populate_bag(
                                    db,
                                    q,
                                    &dec.bags[bi],
                                    &atoms_of_bag[bi],
                                    governor,
                                    &worker_tracer,
                                ),
                            ));
                        }
                    })
                })
                .collect();
            for h in handles {
                // lint:allow(unwrap): propagate worker panics instead of losing them
                for (bi, tuples) in h.join().expect("bag-population worker panicked") {
                    slots[bi] = tuples;
                }
            }
        });
        slots
    };
    let mut bags: Vec<BagRelation> = Vec::with_capacity(nb);
    for (bag_vars, tuples) in dec.bags.iter().zip(tuples_per_bag) {
        stats.bag_tuples += tuples.len();
        bags.push(BagRelation {
            vars: bag_vars.clone(),
            tuples,
        });
    }
    // Root the tree at 0; compute parent/children and a bottom-up order.
    let nb = dec.bags.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for &(a, b) in &dec.edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut parent: Vec<Option<usize>> = vec![None; nb];
    let mut order: Vec<usize> = Vec::with_capacity(nb);
    let mut visited = vec![false; nb];
    let mut stack = vec![0usize];
    visited[0] = true;
    while let Some(b) = stack.pop() {
        // lint:allow(unguarded-loop): O(#bags) tree-order computation
        order.push(b);
        for &c in &adj[b] {
            if !visited[c] {
                visited[c] = true;
                parent[c] = Some(b);
                stack.push(c);
            }
        }
    }
    // Bottom-up semijoin: parent ⋉ child. Per-bag budget check: a tripped
    // run keeps whatever reduction it reached (semijoins only remove
    // tuples, so stopping early is sound).
    for &b in order.iter().rev() {
        if governor.is_some_and(Governor::stopped) {
            break;
        }
        if let Some(p) = parent[b] {
            semijoin(&mut bags, p, b);
        }
    }
    // Top-down semijoin: child ⋉ parent.
    for &b in order.iter() {
        if governor.is_some_and(Governor::stopped) {
            break;
        }
        if let Some(p) = parent[b] {
            semijoin(&mut bags, b, p);
        }
    }
    stats.reduced_tuples = bags.iter().map(|r| r.tuples.len()).sum();
    (Some(bags), dec, stats)
}

/// Keeps in `bags[target]` only tuples that agree with some tuple of
/// `bags[other]` on the shared variables.
fn semijoin(bags: &mut [BagRelation], target: usize, other: usize) {
    let shared: Vec<(usize, usize)> = bags[target]
        .vars
        .iter()
        .enumerate()
        .filter_map(|(i, v)| bags[other].vars.iter().position(|w| w == v).map(|j| (i, j)))
        .collect();
    if shared.is_empty() {
        // no shared variables: keep target iff other is non-empty
        if bags[other].tuples.is_empty() {
            bags[target].tuples.clear();
        }
        return;
    }
    let keys: FnvHashSet<Vec<u32>> = bags[other]
        .tuples
        .iter()
        .map(|t| shared.iter().map(|&(_, j)| t[j]).collect())
        .collect();
    let shared_i: Vec<usize> = shared.iter().map(|&(i, _)| i).collect();
    bags[target].tuples.retain(|t| {
        let key: Vec<u32> = shared_i.iter().map(|&i| t[i]).collect();
        keys.contains(&key)
    });
}

/// Enumerates the satisfying assignments of a bag by joining its atoms and
/// filling uncovered variables from the domain.
fn populate_bag<T: Tracer>(
    db: &RelationalDb,
    q: &Cq,
    bag_vars: &[usize],
    atom_ids: &[usize],
    governor: Option<&Governor>,
    tracer: &T,
) -> Vec<Vec<u32>> {
    let span = PhaseSpan::start(tracer, Phase::TreedecBags);
    let pos_of: FnvHashMap<usize, usize> =
        bag_vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut partial: Vec<Option<u32>> = vec![None; bag_vars.len()];
    let mut out: Vec<Vec<u32>> = Vec::new();
    let mut index = JoinIndex::default();
    let mut pacer = Pacer::new(governor);
    #[allow(clippy::too_many_arguments)]
    fn go<T: Tracer>(
        db: &RelationalDb,
        q: &Cq,
        atom_ids: &[usize],
        idx: usize,
        pos_of: &FnvHashMap<usize, usize>,
        partial: &mut Vec<Option<u32>>,
        domain: u32,
        index: &mut JoinIndex,
        pacer: &mut Pacer<'_>,
        tracer: &T,
        out: &mut Vec<Vec<u32>>,
    ) {
        if idx == atom_ids.len() {
            // fill uncovered positions with every domain element (odometer
            // over the open slots, one allocation per emitted tuple)
            let mut tuple: Vec<u32> = Vec::with_capacity(partial.len());
            let mut open: Vec<usize> = Vec::new();
            for (i, slot) in partial.iter().enumerate() {
                match slot {
                    Some(x) => tuple.push(*x),
                    None => {
                        open.push(i);
                        tuple.push(0);
                    }
                }
            }
            if !open.is_empty() && domain == 0 {
                return;
            }
            loop {
                // cooperative budget check per emitted tuple: a bag with
                // many uncovered variables can emit |D|^open tuples here
                if pacer.tick_traced(tracer, Phase::TreedecBags) || pacer.stopped() {
                    return;
                }
                if T::ENABLED {
                    tracer.count(Phase::TreedecBags, 1);
                }
                out.push(tuple.clone());
                let mut i = 0;
                loop {
                    let Some(&p) = open.get(i) else {
                        return;
                    };
                    tuple[p] += 1;
                    if tuple[p] < domain {
                        break;
                    }
                    tuple[p] = 0;
                    i += 1;
                }
            }
        }
        let atom = &q.atoms[atom_ids[idx]];
        let mut mask: u64 = 0;
        let mut key: Vec<u32> = Vec::new();
        for (i, &v) in atom.vars.iter().enumerate() {
            if let Some(x) = partial[pos_of[&v]] {
                mask |= 1 << i;
                key.push(x);
            }
        }
        let candidates = index.candidates(db, &atom.relation, mask, &key);
        let mut tuple: Vec<u32> = Vec::new();
        'tuples: for &ti in &candidates {
            // cooperative budget check per candidate tuple
            if pacer.tick_traced(tracer, Phase::TreedecBags) || pacer.stopped() {
                break 'tuples;
            }
            tuple.clear();
            tuple.extend_from_slice(index.tuple(&atom.relation, ti));
            let mut written: Vec<usize> = Vec::new();
            for (i, &v) in atom.vars.iter().enumerate() {
                let p = pos_of[&v];
                match partial[p] {
                    None => {
                        partial[p] = Some(tuple[i]);
                        written.push(p);
                    }
                    Some(x) if x == tuple[i] => {}
                    Some(_) => {
                        for &w in &written {
                            partial[w] = None;
                        }
                        continue 'tuples;
                    }
                }
            }
            go(
                db,
                q,
                atom_ids,
                idx + 1,
                pos_of,
                partial,
                domain,
                index,
                pacer,
                tracer,
                out,
            );
            for &w in &written {
                partial[w] = None;
            }
        }
    }
    go(
        db,
        q,
        atom_ids,
        0,
        &pos_of,
        &mut partial,
        db.domain_size() as u32,
        &mut index,
        &mut pacer,
        tracer,
        &mut out,
    );
    pacer.flush();
    if let Some(g) = governor {
        // the populated bag is retained memory: charge a coarse estimate
        let width = bag_vars.len() as u64;
        g.charge_memory(out.len() as u64 * (24 + 4 * width));
    }
    out.sort();
    out.dedup();
    span.finish(tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_db() -> RelationalDb {
        // E = directed edges of a 4-cycle with one chord
        let mut db = RelationalDb::new(4);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            db.insert("E", &[a, b]);
        }
        db
    }

    fn triangle_query() -> Cq {
        // ∃xyz E(x,y) ∧ E(y,z) ∧ E(x,z)
        let mut q = Cq::new(3);
        q.atom("E", &[0, 1]);
        q.atom("E", &[1, 2]);
        q.atom("E", &[0, 2]);
        q
    }

    #[test]
    fn boolean_backtracking() {
        let db = triangle_db();
        assert!(eval_cq(&db, &triangle_query())); // 0→1→2, 0→2
                                                  // no directed triangle through 3 only
        let mut db2 = RelationalDb::new(3);
        db2.insert("E", &[0, 1]);
        db2.insert("E", &[1, 2]);
        assert!(!eval_cq(&db2, &triangle_query()));
    }

    #[test]
    fn answers_backtracking() {
        let db = triangle_db();
        let mut q = triangle_query();
        q.free = vec![0, 2];
        let answers = answers_cq(&db, &q);
        assert!(answers.contains(&vec![0, 2]));
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn treedec_agrees_with_backtracking() {
        let db = triangle_db();
        let q = triangle_query();
        assert_eq!(eval_cq(&db, &q), eval_cq_treedec(&db, &q));
        let mut qf = q.clone();
        qf.free = vec![0, 2];
        assert_eq!(answers_cq(&db, &qf), answers_cq_treedec(&db, &qf));
    }

    #[test]
    fn path_query_on_cycle() {
        // path of length 3 in a 5-cycle: treewidth-1 query
        let mut db = RelationalDb::new(5);
        for i in 0..5u32 {
            db.insert("E", &[i, (i + 1) % 5]);
        }
        let mut q = Cq::new(4);
        q.atom("E", &[0, 1]);
        q.atom("E", &[1, 2]);
        q.atom("E", &[2, 3]);
        q.free = vec![0, 3];
        let a1 = answers_cq(&db, &q);
        let a2 = answers_cq_treedec(&db, &q);
        assert_eq!(a1, a2);
        assert_eq!(a1.len(), 5); // (i, i+3 mod 5)
        assert!(a1.contains(&vec![0, 3]));
    }

    #[test]
    fn unsatisfiable_via_treedec() {
        let mut db = RelationalDb::new(2);
        db.insert("E", &[0, 1]);
        let mut q = Cq::new(2);
        q.atom("E", &[0, 1]);
        q.atom("E", &[1, 0]); // needs a back edge
        assert!(!eval_cq_treedec(&db, &q));
        assert!(!eval_cq(&db, &q));
    }

    #[test]
    fn repeated_variables_in_atom() {
        let mut db = RelationalDb::new(3);
        db.insert("E", &[0, 0]);
        db.insert("E", &[1, 2]);
        let mut q = Cq::new(1);
        q.atom("E", &[0, 0]); // self-loop pattern
        q.free = vec![0];
        let a = answers_cq(&db, &q);
        assert_eq!(a, BTreeSet::from([vec![0u32]]));
        assert_eq!(answers_cq_treedec(&db, &q), a);
    }

    #[test]
    fn free_var_not_in_atoms() {
        let mut db = RelationalDb::new(3);
        db.insert("U", &[1]);
        let mut q = Cq::new(2);
        q.atom("U", &[0]);
        q.free = vec![0, 1]; // var 1 unconstrained
        let a = answers_cq(&db, &q);
        assert_eq!(a.len(), 3);
        assert!(a.contains(&vec![1, 0]));
        assert!(a.contains(&vec![1, 2]));
    }

    #[test]
    fn zero_atom_query_is_true() {
        let db = RelationalDb::new(2);
        let q = Cq::new(0);
        assert!(eval_cq(&db, &q));
        assert!(eval_cq_treedec(&db, &q));
    }

    #[test]
    fn unknown_relation_is_empty() {
        let db = RelationalDb::new(2);
        let mut q = Cq::new(1);
        q.atom("Nope", &[0]);
        assert!(!eval_cq(&db, &q));
        assert!(!eval_cq_treedec(&db, &q));
    }

    #[test]
    fn stats_reported() {
        let db = triangle_db();
        let (res, stats) = eval_cq_treedec_with_stats(&db, &triangle_query());
        assert!(res);
        assert!(stats.bag_tuples > 0);
        assert!(stats.reduced_tuples > 0);
        // Gaifman graph of the triangle pattern is K3 → width 2
        assert_eq!(stats.width, 2);
    }
}
