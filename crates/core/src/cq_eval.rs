//! Conjunctive-query evaluation.
//!
//! Two evaluators:
//!
//! * [`eval_cq`] / [`answers_cq`] — backtracking join (the textbook NP
//!   algorithm), used as the baseline;
//! * [`eval_cq_treedec`] / [`answers_cq_treedec`] — the `n^{tw+1}`
//!   tree-decomposition + Yannakakis-semijoin algorithm behind
//!   Proposition 2.3(1), i.e. the polynomial-time engine of the tractable
//!   regime (Theorems 3.1(3), 3.2(3)). Its request-independent part is one
//!   artefact, the [`ReducedCq`]: bags of a decomposition (subset bags
//!   contracted into their neighbours) populated by joining the atoms
//!   whose variables they hold — every atom's variables form a clique in
//!   the Gaifman graph, hence fit in some bag — then reduced by an upward
//!   and a downward semijoin pass, all on flat `u32` columns. Answers come
//!   from walking the reduced bags parents first, so a prepared plan that
//!   keeps the instance pays only for the output on later requests.

use crate::enumerate::Odometer;
use crate::fnv::{FnvHashMap, FnvHashSet};
use crate::governor::{AnswerClaim, Claim, Governor, Pacer};
use crate::trace::{NoopTracer, Phase, PhaseSpan, Tracer};
use ecrpq_query::{Cq, RelationalDb};
use ecrpq_structure::{treewidth_exact, treewidth_upper_bound, TreeDecomposition};
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Evaluates a Boolean CQ by backtracking join.
pub fn eval_cq(db: &RelationalDb, q: &Cq) -> bool {
    CqJoin::new(db, q).holds(None, None, &NoopTracer)
}

/// All answers of a CQ (tuples over its free variables) by backtracking.
pub fn answers_cq(db: &RelationalDb, q: &Cq) -> BTreeSet<Vec<u32>> {
    let mut out = BTreeSet::new();
    CqJoin::new(db, q).answers_into(None, None, &NoopTracer, &mut out);
    out
}

/// The backtracking join of a whole CQ: its atoms planned as one join
/// over all its variables, built once and shared by the parallel
/// engine's workers.
pub(crate) struct CqJoin<'q> {
    q: &'q Cq,
    domain: usize,
    plan: JoinPlan,
}

impl<'q> CqJoin<'q> {
    pub(crate) fn new(db: &RelationalDb, q: &'q Cq) -> Self {
        let vars: Vec<usize> = (0..q.num_vars).collect();
        CqJoin {
            q,
            domain: db.domain_size(),
            plan: JoinPlan::new(db, q, [vars.as_slice()]),
        }
    }

    /// Whether the query holds, optionally searching only one stride
    /// class `(parts, part)` of the first atom's candidate tuples — the
    /// parallel engine's partitioning hook (`None` searches everything;
    /// the classes `part = 0..parts` cover the search exactly). The budget
    /// `governor`, when present, is checked per candidate tuple.
    pub(crate) fn holds<T: Tracer>(
        &self,
        part: Option<(usize, usize)>,
        governor: Option<&Governor>,
        tracer: &T,
    ) -> bool {
        let mut found = false;
        let span = PhaseSpan::start(tracer, Phase::CqJoin);
        self.plan
            .run(0, part, governor, tracer, Phase::CqJoin, &mut |_, _| {
                found = true;
                false
            });
        span.finish(tracer);
        found
    }

    /// All answers, restricted like [`CqJoin::holds`] and accumulated into
    /// `out` (so workers can merge cheaply). A free variable no atom holds
    /// takes every domain value through the free-tuple odometer. The
    /// [`Phase::CqJoin`] span covers the whole run, odometer included
    /// (whose items are booked under [`Phase::Odometer`]); it counts one
    /// item per satisfying assignment.
    pub(crate) fn answers_into<T: Tracer>(
        &self,
        part: Option<(usize, usize)>,
        governor: Option<&Governor>,
        tracer: &T,
        out: &mut BTreeSet<Vec<u32>>,
    ) {
        let covered = &self.plan.joins[0].covered;
        let mut claim = AnswerClaim::new(governor);
        let mut odometer = Odometer::default();
        let span = PhaseSpan::start(tracer, Phase::CqJoin);
        self.plan
            .run(0, part, governor, tracer, Phase::CqJoin, &mut |row, _| {
                if T::ENABLED {
                    tracer.count(Phase::CqJoin, 1);
                }
                odometer.reset(self.q.free.iter().map(|&v| covered[v].then_some(row[v])));
                while let Some(tuple) = odometer.next(self.domain) {
                    // lint:allow(unguarded-loop): `AnswerClaim::offer` paces every tuple
                    if claim.offer(tracer, out, tuple) == Claim::Stop {
                        return false; // abandon the search once the budget trips
                    }
                }
                true
            });
        span.finish(tracer);
        claim.flush();
    }
}

/// Work counters for the tree-decomposition evaluator.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreedecStats {
    /// Width of the decomposition used.
    pub width: usize,
    /// Total bag tuples before reduction (after subset bags are contracted).
    pub bag_tuples: usize,
    /// Total bag tuples after both semijoin passes.
    pub reduced_tuples: usize,
}

/// Evaluates a Boolean CQ with the tree-decomposition + Yannakakis
/// algorithm.
pub fn eval_cq_treedec(db: &RelationalDb, q: &Cq) -> bool {
    ReducedCq::build(db, q).is_satisfiable()
}

/// As [`eval_cq_treedec`] with counters.
pub fn eval_cq_treedec_with_stats(db: &RelationalDb, q: &Cq) -> (bool, TreedecStats) {
    let reduced = ReducedCq::build(db, q);
    (reduced.is_satisfiable(), reduced.stats())
}

/// All answers via tree decomposition: build the [`ReducedCq`], then walk
/// its reduced bags.
pub fn answers_cq_treedec(db: &RelationalDb, q: &Cq) -> BTreeSet<Vec<u32>> {
    ReducedCq::build(db, q).answers()
}

/// The semijoin-reduced tree-decomposition instance of a CQ over one
/// database: what is left of Prop. 2.3(1)'s algorithm once the
/// request-independent work is done, so that enumerating it costs the
/// output.
///
/// The build decomposes the Gaifman graph, contracts every bag contained
/// in a tree neighbour, populates the bags (each joins every atom whose
/// variables it holds, and fills variables no atom covers with the whole
/// domain), and runs the full reducer: a bottom-up and a top-down
/// semijoin pass. The reduced bags are globally consistent: any
/// assignment that agrees with one tuple of each bag of a subtree holding
/// the root extends to a full answer.
///
/// The instance keeps only the bags the answer walk visits: those whose
/// subtree introduces a free variable (a Boolean query keeps none). They
/// are stored parents first, in preorder from a root holding the most
/// free variables, as flat `u32` columns grouped by the separator they
/// share with their parent, with an index from separator key to the
/// tuples holding it. [`ReducedCq::answers`] walks them in that order,
/// each bag looking up its separator key and binding the variables it
/// introduces, and offers the free tuple once the last bag is bound —
/// no dead ends, so the walk costs the (pre-projection) output.
pub struct ReducedCq {
    num_vars: usize,
    free: Vec<usize>,
    satisfiable: bool,
    walk: Vec<WalkBag>,
    stats: TreedecStats,
}

/// One bag of the answer walk.
struct WalkBag {
    /// The fully reduced tuples, grouped by separator key.
    tuples: Flat,
    /// The variables the bag shares with its parent (none at the root),
    /// in key order.
    sep: Vec<usize>,
    /// `(column, variable)` for every variable the bag introduces.
    introduces: Vec<(usize, usize)>,
    /// Separator key → the range of `tuples` holding it.
    index: KeyMap<(u32, u32)>,
}

impl WalkBag {
    /// The walk bag of a reduced bag with parent `parent`: its tuples
    /// grouped by separator key, and the index over them.
    fn new(bag: &Bag, parent: Option<&Bag>) -> Self {
        let (sep_cols, _) =
            parent.map_or_else(Default::default, |p| shared_cols(&bag.vars, &p.vars));
        let groups = Groups::build(&bag.tuples, &sep_cols);
        WalkBag {
            tuples: bag.tuples.permuted(&groups.ids),
            sep: sep_cols.iter().map(|&c| bag.vars[c]).collect(),
            introduces: (0..bag.vars.len())
                .filter(|c| !sep_cols.contains(c))
                .map(|c| (c, bag.vars[c]))
                .collect(),
            index: groups.ranges,
        }
    }

    /// Estimated bytes of the separator index.
    fn index_bytes(&self) -> u64 {
        self.index.len() as u64 * (16 + 4 * self.sep.len() as u64)
    }
}

impl ReducedCq {
    /// Builds the instance of `q` over `db`, sequentially and unbudgeted.
    pub fn build(db: &RelationalDb, q: &Cq) -> Self {
        // lint:allow(unwrap): no governor, so the build cannot stop
        Self::build_governed(db, q, 1, None, &NoopTracer).expect("ungoverned build")
    }

    /// Builds the instance under `governor`, populating bags with
    /// `threads` workers (the instance does not depend on the thread
    /// count). Population is paced and reported under
    /// [`Phase::TreedecBags`], and every byte the instance keeps is
    /// charged to the governor: the columns as bags are populated, the
    /// separator indexes once built. `None` when the governor stopped:
    /// semijoins only remove tuples, but a cut-short reduction is neither
    /// complete nor consistent, so it must serve no answer and never be
    /// kept.
    pub(crate) fn build_governed<T: Tracer>(
        db: &RelationalDb,
        q: &Cq,
        threads: usize,
        governor: Option<&Governor>,
        tracer: &T,
    ) -> Option<Self> {
        let stopped = || governor.is_some_and(Governor::stopped);
        let (mut bags, width, walk_len) = rooted_bags(q);
        let mut stats = TreedecStats {
            width,
            ..TreedecStats::default()
        };
        let plan = JoinPlan::new(db, q, bags.iter().map(|b| b.vars.as_slice()));
        let populated = populate_all(&plan, db.domain_size(), threads, governor, tracer);
        if stopped() {
            return None;
        }
        for (bag, tuples) in bags.iter_mut().zip(populated) {
            stats.bag_tuples += tuples.len;
            bag.tuples = tuples;
        }
        let span = PhaseSpan::start(tracer, Phase::TreedecBags);
        // bottom-up, parent ⋉ child (children follow their parents), then
        // top-down, child ⋉ parent
        for i in (1..bags.len()).rev() {
            if stopped() {
                return None;
            }
            if let Some(p) = bags[i].parent {
                let (head, tail) = bags.split_at_mut(i);
                semijoin(&mut head[p], &tail[0]);
            }
        }
        for i in 1..bags.len() {
            if stopped() {
                return None;
            }
            if let Some(p) = bags[i].parent {
                let (head, tail) = bags.split_at_mut(i);
                semijoin(&mut tail[0], &head[p]);
            }
        }
        stats.reduced_tuples = bags.iter().map(|b| b.tuples.len).sum();
        // every atom lies in some bag (its variables are a Gaifman clique),
        // so the query holds iff no reduced bag is empty
        let satisfiable = plan.homed && bags.iter().all(|b| b.tuples.len > 0);
        bags.truncate(if satisfiable { walk_len } else { 0 });
        let walk: Vec<WalkBag> = bags
            .iter()
            .map(|b| WalkBag::new(b, b.parent.map(|p| &bags[p])))
            .collect();
        span.finish(tracer);
        if let Some(g) = governor {
            g.charge_memory(walk.iter().map(WalkBag::index_bytes).sum());
        }
        (!stopped()).then(|| ReducedCq {
            num_vars: q.num_vars,
            free: q.free.clone(),
            satisfiable,
            walk,
            stats,
        })
    }

    /// Whether the query holds: no reduced bag is empty.
    pub fn is_satisfiable(&self) -> bool {
        self.satisfiable
    }

    /// The build's work counters.
    pub fn stats(&self) -> TreedecStats {
        self.stats
    }

    /// Estimated bytes the instance keeps: the walked bags' columns and
    /// separator indexes.
    pub fn bytes(&self) -> u64 {
        self.walk
            .iter()
            .map(|b| 4 * b.tuples.data.len() as u64 + b.index_bytes())
            .sum()
    }

    /// All answers, sequentially and unbudgeted.
    pub fn answers(&self) -> BTreeSet<Vec<u32>> {
        self.enumerate(None, &NoopTracer)
    }

    /// Walks the reduced bags in order and offers each free tuple through
    /// the governor's [`AnswerClaim`], stopping when it refuses one. The
    /// walk is reported under [`Phase::CqJoin`] (one item per bound bag
    /// tuple), the offered tuples under [`Phase::Odometer`].
    pub(crate) fn enumerate<T: Tracer>(
        &self,
        governor: Option<&Governor>,
        tracer: &T,
    ) -> BTreeSet<Vec<u32>> {
        let mut out = BTreeSet::new();
        if !self.satisfiable {
            return out;
        }
        let span = PhaseSpan::start(tracer, Phase::CqJoin);
        let mut claim = AnswerClaim::new(governor);
        let mut values = vec![0u32; self.num_vars];
        let mut tuple = vec![0u32; self.free.len()];
        let mut key: Vec<u32> = Vec::new();
        // per walked bag, the next and the end position of the tuples that
        // match its separator
        let mut cursor = vec![(0u32, 0u32); self.walk.len()];
        let mut depth = 0usize;
        let mut descend = true;
        loop {
            if descend {
                let Some(bag) = self.walk.get(depth) else {
                    // every walked bag is bound: offer the free tuple
                    for (slot, &f) in tuple.iter_mut().zip(&self.free) {
                        *slot = values[f];
                    }
                    if claim.offer(tracer, &mut out, &tuple) == Claim::Stop || depth == 0 {
                        break;
                    }
                    depth -= 1;
                    descend = false;
                    continue;
                };
                key.clear();
                key.extend(bag.sep.iter().map(|&v| values[v]));
                cursor[depth] = bag.index.get(key.as_slice()).copied().unwrap_or((0, 0));
            }
            let (next, end) = cursor[depth];
            if next == end {
                // reduced bags have no dead ends; only an exhausted range
                // backs up
                if depth == 0 {
                    break;
                }
                depth -= 1;
                descend = false;
                continue;
            }
            cursor[depth].0 += 1;
            let bag = &self.walk[depth];
            let t = bag.tuples.tuple(next as usize);
            for &(c, v) in &bag.introduces {
                values[v] = t[c];
            }
            if T::ENABLED {
                tracer.count(Phase::CqJoin, 1);
            }
            depth += 1;
            descend = true;
        }
        claim.flush();
        span.finish(tracer);
        out
    }
}

/// A relation as flat `u32` columns: `arity` values per tuple, one tuple
/// after the other.
#[derive(Debug, Clone, Default)]
struct Flat {
    arity: usize,
    /// The tuple count, kept apart from `data` because a nullary relation
    /// holds its one (empty) tuple in no values.
    len: usize,
    data: Vec<u32>,
}

impl Flat {
    fn new(arity: usize) -> Self {
        Flat {
            arity,
            ..Flat::default()
        }
    }

    /// The tuples of relation `name` of `db`, in no particular order; none
    /// when `db` has no such relation of this arity.
    fn of(db: &RelationalDb, name: &str, arity: usize) -> Self {
        let mut flat = Flat::new(arity);
        if let Some(r) = db.relation(name).filter(|r| r.arity == arity) {
            flat.data.reserve(r.tuples.len() * arity);
            for t in &r.tuples {
                flat.push(t);
            }
        }
        flat
    }

    #[inline]
    fn tuple(&self, i: usize) -> &[u32] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    fn push(&mut self, t: &[u32]) {
        self.data.extend_from_slice(t);
        self.len += 1;
    }

    fn clear(&mut self) {
        self.data.clear();
        self.len = 0;
    }

    /// Keeps the tuples `keep` accepts, in order, compacting in place.
    fn retain(&mut self, mut keep: impl FnMut(&[u32]) -> bool) {
        let a = self.arity;
        let mut kept = 0;
        for i in 0..self.len {
            if keep(self.tuple(i)) {
                self.data.copy_within(i * a..(i + 1) * a, kept * a);
                kept += 1;
            }
        }
        self.len = kept;
        self.data.truncate(kept * a);
    }

    /// The tuples in the order `ids` lists them.
    fn permuted(&self, ids: &[u32]) -> Flat {
        let mut out = Flat::new(self.arity);
        out.data.reserve(self.data.len());
        for &i in ids {
            out.push(self.tuple(i as usize));
        }
        out
    }
}

/// A map keyed by a fixed number of `u32` values. Probes take a borrowed
/// slice, so only a newly inserted key allocates.
type KeyMap<V> = FnvHashMap<Box<[u32]>, V>;

/// The tuples of a flat relation grouped by their values in some columns:
/// tuple ids laid out group by group (groups in first-seen order, each in
/// tuple order) and, per key, the range of `ids` holding it. Built by a
/// counting sort: one key probe per tuple.
struct Groups {
    ids: Vec<u32>,
    ranges: KeyMap<(u32, u32)>,
}

impl Groups {
    fn build(rel: &Flat, cols: &[usize]) -> Self {
        let mut ranges = KeyMap::default();
        if cols.is_empty() {
            // one group: every tuple, in order
            if rel.len > 0 {
                ranges.insert(Box::default(), (0, rel.len as u32));
            }
            let ids = (0..rel.len as u32).collect();
            return Groups { ids, ranges };
        }
        // number the keys in first-seen order and count their tuples
        let mut counts: Vec<u32> = Vec::new();
        let mut group: Vec<u32> = Vec::with_capacity(rel.len);
        let mut key: Vec<u32> = Vec::with_capacity(cols.len());
        for i in 0..rel.len {
            let t = rel.tuple(i);
            key.clear();
            key.extend(cols.iter().map(|&c| t[c]));
            let g = match ranges.get(key.as_slice()) {
                Some(&(g, _)) => g,
                None => {
                    counts.push(0);
                    let g = counts.len() as u32 - 1;
                    ranges.insert(key.as_slice().into(), (g, 0));
                    g
                }
            };
            counts[g as usize] += 1;
            group.push(g);
        }
        let mut next: Vec<u32> = counts
            .iter()
            .scan(0, |start, &n| {
                *start += n;
                Some(*start - n)
            })
            .collect();
        for r in ranges.values_mut() {
            let g = r.0 as usize;
            *r = (next[g], next[g] + counts[g]);
        }
        let mut ids = vec![0; rel.len];
        for (i, &g) in group.iter().enumerate() {
            ids[next[g as usize] as usize] = i as u32;
            next[g as usize] += 1;
        }
        Groups { ids, ranges }
    }

    /// The ids of the tuples whose values in the grouped columns are `key`.
    #[inline]
    fn ids(&self, key: &[u32]) -> &[u32] {
        self.ranges
            .get(key)
            .map_or(&[], |&(s, e)| &self.ids[s as usize..e as usize])
    }
}

/// A bag of the decomposition while the instance is built.
struct Bag {
    /// The bag's variables, ascending; column `i` holds `vars[i]`.
    vars: Vec<usize>,
    /// The parent bag, which precedes this one; `None` at the root.
    parent: Option<usize>,
    tuples: Flat,
}

/// The columns of `a` and of `b` holding their shared variables, in
/// ascending variable order (both lists are ascending).
fn shared_cols(a: &[usize], b: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let (mut ca, mut cb) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                ca.push(i);
                cb.push(j);
                i += 1;
                j += 1;
            }
        }
    }
    (ca, cb)
}

/// `target ⋉ other`: keeps the tuples of `target` that agree with some
/// tuple of `other` on their shared variables (all of them when they
/// share none and `other` is non-empty).
fn semijoin(target: &mut Bag, other: &Bag) {
    let (t_cols, o_cols) = shared_cols(&target.vars, &other.vars);
    if t_cols.is_empty() {
        if other.tuples.len == 0 {
            target.tuples.clear();
        }
        return;
    }
    let mut keys: FnvHashSet<Box<[u32]>> = FnvHashSet::default();
    let mut key: Vec<u32> = Vec::with_capacity(o_cols.len());
    for i in 0..other.tuples.len {
        let t = other.tuples.tuple(i);
        key.clear();
        key.extend(o_cols.iter().map(|&c| t[c]));
        if !keys.contains(key.as_slice()) {
            keys.insert(key.as_slice().into());
        }
    }
    target.tuples.retain(|t| {
        key.clear();
        key.extend(t_cols.iter().map(|&c| t[c]));
        keys.contains(key.as_slice())
    });
}

/// The decomposition the instance is built on: a tree decomposition of
/// `q`'s Gaifman graph (exact for at most 64 variables) with every bag
/// contained in a tree neighbour contracted into it, rooted at a bag
/// holding the most free variables. Bags are listed parents first: in
/// preorder, the bags whose subtree introduces a free variable, then the
/// rest. Returns the bags (unpopulated), the width, and how many leading
/// bags the answer walk visits.
fn rooted_bags(q: &Cq) -> (Vec<Bag>, usize, usize) {
    let g = q.gaifman();
    let (width, dec) = if g.num_vertices() <= 64 {
        treewidth_exact(&g)
    } else {
        treewidth_upper_bound(&g)
    };
    let (mut bags, mut adj) = contract(dec);
    if bags.is_empty() {
        // a query without variables: one empty bag joins its nullary atoms
        bags.push(Vec::new());
        adj.push(Vec::new());
    }
    let nb = bags.len();
    let is_free = |v: &usize| q.free.contains(v);
    let root = (0..nb)
        .max_by_key(|&b| (bags[b].iter().filter(|v| is_free(v)).count(), Reverse(b)))
        .unwrap_or(0);
    let mut parent = vec![None; nb];
    let mut preorder = Vec::with_capacity(nb);
    let mut seen = vec![false; nb];
    let mut stack = vec![root];
    seen[root] = true;
    while let Some(b) = stack.pop() {
        // lint:allow(unguarded-loop): O(#bags) tree walk
        preorder.push(b);
        for &c in adj[b].iter().rev() {
            if !seen[c] {
                seen[c] = true;
                parent[c] = Some(b);
                stack.push(c);
            }
        }
    }
    // a bag is walked when its subtree introduces a free variable
    let mut walked = vec![false; nb];
    for &b in preorder.iter().rev() {
        let parent_vars: &[usize] = match parent[b] {
            Some(p) => &bags[p],
            None => &[],
        };
        walked[b] |= bags[b]
            .iter()
            .any(|v| is_free(v) && !parent_vars.contains(v));
        if let (true, Some(p)) = (walked[b], parent[b]) {
            walked[p] = true;
        }
    }
    let order: Vec<usize> = preorder
        .iter()
        .filter(|&&b| walked[b])
        .chain(preorder.iter().filter(|&&b| !walked[b]))
        .copied()
        .collect();
    let mut position = vec![0; nb];
    for (i, &b) in order.iter().enumerate() {
        position[b] = i;
    }
    let walk_len = walked.iter().filter(|&&w| w).count();
    let bags = order
        .iter()
        .map(|&b| Bag {
            vars: bags[b].clone(),
            parent: parent[b].map(|p| position[p]),
            tuples: Flat::new(bags[b].len()),
        })
        .collect();
    (bags, width, walk_len)
}

/// Merges every bag that a tree neighbour contains into that neighbour,
/// which inherits the bag's other tree edges. Contracting such an edge
/// leaves a tree decomposition of the same width. It removes, for
/// instance, the atomless bag `{y}` the elimination-order construction
/// emits next to `{x, y}` for `x -[p]-> y`, which population would fill
/// with every domain value. Returns the bags and their tree adjacency.
fn contract(dec: TreeDecomposition) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let nb = dec.bags.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for &(a, b) in &dec.edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut alive = vec![true; nb];
    let mut merged = true;
    while merged {
        merged = false;
        for a in 0..nb {
            let into = adj[a]
                .iter()
                .copied()
                .find(|&b| dec.bags[a].iter().all(|v| dec.bags[b].contains(v)));
            let Some(b) = into else { continue };
            alive[a] = false;
            merged = true;
            for c in std::mem::take(&mut adj[a]) {
                adj[c].retain(|&x| x != a);
                if c != b {
                    adj[c].push(b);
                    adj[b].push(c);
                }
            }
        }
    }
    let mut index = vec![usize::MAX; nb];
    let mut bags = Vec::new();
    for (a, bag) in dec.bags.into_iter().enumerate() {
        if alive[a] {
            index[a] = bags.len();
            bags.push(bag);
        }
    }
    let adj = (0..nb)
        .filter(|&a| alive[a])
        .map(|a| adj[a].iter().map(|&c| index[c]).collect())
        .collect();
    (bags, adj)
}

/// A CQ's atoms planned as joins over rows of variable slots: one join
/// per bag of a decomposition, or one over every variable for the
/// backtracking join. A join binds its row atom by atom over every atom
/// whose variables its slots hold, most-bound atom first (ties: the
/// smaller relation). The relations are snapshotted as flat columns, and
/// each step's candidates grouped by the slots bound before it, once for
/// all joins.
struct JoinPlan {
    rels: Vec<Flat>,
    groups: Vec<Groups>,
    joins: Vec<Join>,
    /// Whether every atom is in some join.
    homed: bool,
}

/// One planned join.
struct Join {
    /// Which slots some atom binds.
    covered: Vec<bool>,
    steps: Vec<JoinStep>,
}

/// One atom of a join, in join order.
struct JoinStep {
    /// The atom's relation snapshot.
    rel: usize,
    /// The `(relation, bound atom columns)` grouping its candidates come
    /// from.
    pattern: usize,
    /// The slots whose values, in order, key that grouping.
    key: Vec<usize>,
    /// `(atom column, slot)` of every variable the atom binds first.
    binds: Vec<(usize, usize)>,
    /// Atom-column pairs a variable the atom binds twice must agree on.
    equal: Vec<(usize, usize)>,
}

impl JoinPlan {
    /// Plans one join per slot list (each a list of ascending variables).
    fn new<'s>(
        db: &RelationalDb,
        q: &Cq,
        slot_lists: impl IntoIterator<Item = &'s [usize]>,
    ) -> Self {
        let mut rel_of: FnvHashMap<(&str, usize), usize> = FnvHashMap::default();
        let mut rels: Vec<Flat> = Vec::new();
        let atom_rel: Vec<usize> = q
            .atoms
            .iter()
            .map(|atom| {
                let (name, arity) = (atom.relation.as_str(), atom.vars.len());
                *rel_of.entry((name, arity)).or_insert_with(|| {
                    rels.push(Flat::of(db, name, arity));
                    rels.len() - 1
                })
            })
            .collect();
        let mut patterns: FnvHashMap<(usize, Vec<usize>), usize> = FnvHashMap::default();
        let mut groups: Vec<Groups> = Vec::new();
        let mut homed = vec![false; q.atoms.len()];
        let mut joins = Vec::new();
        for slots in slot_lists {
            let slot = |v: usize| slots.binary_search(&v).ok();
            let mut remaining: Vec<usize> = (0..q.atoms.len())
                .filter(|&ai| q.atoms[ai].vars.iter().all(|&v| slot(v).is_some()))
                .collect();
            let mut covered = vec![false; slots.len()];
            let mut steps = Vec::with_capacity(remaining.len());
            while !remaining.is_empty() {
                let (pos, &ai) = remaining
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &ai)| {
                        let shared = q.atoms[ai]
                            .vars
                            .iter()
                            .filter(|&&v| slot(v).is_some_and(|s| covered[s]))
                            .count();
                        (shared, Reverse(rels[atom_rel[ai]].len))
                    })
                    // lint:allow(unwrap): `remaining` is non-empty
                    .unwrap();
                remaining.swap_remove(pos);
                homed[ai] = true;
                let mut cols = Vec::new();
                let mut step = JoinStep {
                    rel: atom_rel[ai],
                    pattern: 0,
                    key: Vec::new(),
                    binds: Vec::new(),
                    equal: Vec::new(),
                };
                for (i, &v) in q.atoms[ai].vars.iter().enumerate() {
                    // lint:allow(unwrap): the slots hold every variable of the atom
                    let s = slot(v).unwrap();
                    if covered[s] {
                        cols.push(i);
                        step.key.push(s);
                    } else if let Some(&(first, _)) = step.binds.iter().find(|&&(_, b)| b == s) {
                        step.equal.push((first, i));
                    } else {
                        step.binds.push((i, s));
                    }
                }
                for &(_, s) in &step.binds {
                    covered[s] = true;
                }
                let next = groups.len();
                step.pattern =
                    *patterns
                        .entry((step.rel, cols))
                        .or_insert_with_key(|(rel, cols)| {
                            groups.push(Groups::build(&rels[*rel], cols));
                            next
                        });
                steps.push(step);
            }
            joins.push(Join { covered, steps });
        }
        JoinPlan {
            rels,
            groups,
            joins,
            homed: homed.into_iter().all(|h| h),
        }
    }

    /// Runs join `j`: binds its row's slots step by step, pacing every
    /// candidate tuple under `phase`, and hands each complete row, with
    /// the pacer for sinks that do work of their own, to `sink`, which
    /// returns `false` to stop. With `part = Some((parts, p))` the first
    /// step keeps only its candidates at positions ≡ `p` (mod `parts`),
    /// and a join without steps completes in class 0 only, so the classes
    /// `p = 0..parts` cover the join exactly once. Returns `false` once
    /// the sink or the budget stopped the run.
    fn run<'g, T: Tracer>(
        &self,
        j: usize,
        part: Option<(usize, usize)>,
        governor: Option<&'g Governor>,
        tracer: &T,
        phase: Phase,
        sink: &mut impl FnMut(&[u32], &mut Pacer<'g>) -> bool,
    ) -> bool {
        let join = &self.joins[j];
        if join.steps.is_empty() && part.is_some_and(|(_, p)| p != 0) {
            return true;
        }
        let mut run = JoinRun {
            plan: self,
            steps: &join.steps,
            row: vec![0; join.covered.len()],
            key: Vec::new(),
            pacer: Pacer::new(governor),
            tracer,
            phase,
        };
        let done = run.step(0, part, sink);
        run.pacer.flush();
        done
    }
}

/// The state of one [`JoinPlan::run`].
struct JoinRun<'a, 'g, T: Tracer> {
    plan: &'a JoinPlan,
    steps: &'a [JoinStep],
    row: Vec<u32>,
    key: Vec<u32>,
    pacer: Pacer<'g>,
    tracer: &'a T,
    phase: Phase,
}

impl<'g, T: Tracer> JoinRun<'_, 'g, T> {
    /// Extends the slots bound by the steps before `idx`.
    fn step(
        &mut self,
        idx: usize,
        part: Option<(usize, usize)>,
        sink: &mut impl FnMut(&[u32], &mut Pacer<'g>) -> bool,
    ) -> bool {
        let (plan, steps) = (self.plan, self.steps);
        let Some(step) = steps.get(idx) else {
            return sink(&self.row, &mut self.pacer);
        };
        self.key.clear();
        self.key.extend(step.key.iter().map(|&s| self.row[s]));
        let rel = &plan.rels[step.rel];
        for (pos, &id) in plan.groups[step.pattern].ids(&self.key).iter().enumerate() {
            if part.is_some_and(|(parts, p)| pos % parts != p) {
                continue;
            }
            // cooperative budget check per candidate tuple, plus a cheap
            // stop-flag load so sibling workers unwind promptly
            if self.pacer.tick_traced(self.tracer, self.phase) || self.pacer.stopped() {
                return false;
            }
            let t = rel.tuple(id as usize);
            if step.equal.iter().any(|&(a, b)| t[a] != t[b]) {
                continue;
            }
            for &(a, s) in &step.binds {
                self.row[s] = t[a];
            }
            if !self.step(idx + 1, None, sink) {
                return false;
            }
        }
        true
    }
}

/// Populates every bag — its join's rows, with the columns no atom covers
/// cycled over the domain — with up to `threads` workers pulling bags
/// from a shared counter (bags are independent until the semijoin
/// passes). Each bag is paced and timed under [`Phase::TreedecBags`],
/// counts one item per emitted tuple, and charges its columns to the
/// governor.
fn populate_all<T: Tracer>(
    plan: &JoinPlan,
    domain: usize,
    threads: usize,
    governor: Option<&Governor>,
    tracer: &T,
) -> Vec<Flat> {
    let nb = plan.joins.len();
    let one = |bi: usize, tracer: &T| {
        let covered = &plan.joins[bi].covered;
        let span = PhaseSpan::start(tracer, Phase::TreedecBags);
        let mut out = Flat::new(covered.len());
        let mut odometer = Odometer::default();
        plan.run(
            bi,
            None,
            governor,
            tracer,
            Phase::TreedecBags,
            &mut |row, pacer| {
                odometer.reset(row.iter().zip(covered).map(|(&x, &c)| c.then_some(x)));
                while let Some(t) = odometer.next(domain) {
                    // cooperative budget check per emitted tuple: a bag with
                    // many uncovered variables emits |D|^open tuples here
                    if pacer.tick_traced(tracer, Phase::TreedecBags) || pacer.stopped() {
                        return false;
                    }
                    if T::ENABLED {
                        tracer.count(Phase::TreedecBags, 1);
                    }
                    out.push(t);
                }
                true
            },
        );
        if let Some(g) = governor {
            g.charge_memory(4 * out.data.len() as u64);
        }
        span.finish(tracer);
        out
    };
    let workers = threads.clamp(1, nb.max(1));
    if workers <= 1 {
        return (0..nb).map(|bi| one(bi, tracer)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Flat> = Vec::new();
    slots.resize_with(nb, Flat::default);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, one) = (&next, &one);
                // fork before spawn so worker counter blocks register in
                // deterministic (spawn) order
                let worker_tracer = tracer.fork_worker();
                s.spawn(move || {
                    let mut mine: Vec<(usize, Flat)> = Vec::new();
                    loop {
                        let bi = next.fetch_add(1, Ordering::Relaxed);
                        if bi >= nb || governor.is_some_and(Governor::stopped) {
                            return mine;
                        }
                        mine.push((bi, one(bi, &worker_tracer)));
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
    fn subset_bags_are_contracted_before_population() {
        // the elimination order decomposes R(x, y) into {x, y} and an
        // atomless {y}; filling {y} would add the whole domain
        let mut db = RelationalDb::new(10);
        db.insert("R", &[0, 1]);
        db.insert("R", &[2, 3]);
        let mut q = Cq::new(2);
        q.atom("R", &[0, 1]);
        q.free = vec![1];
        let (_, dec) = treewidth_exact(&q.gaifman());
        assert_eq!(dec.bags.len(), 2);
        let reduced = ReducedCq::build(&db, &q);
        assert_eq!(reduced.stats().bag_tuples, 2);
        assert_eq!(reduced.stats().width, dec.width());
        assert_eq!(reduced.answers(), BTreeSet::from([vec![1], vec![3]]));
    }

    #[test]
    fn boolean_instance_keeps_no_bag() {
        let db = triangle_db();
        let reduced = ReducedCq::build(&db, &triangle_query());
        assert!(reduced.is_satisfiable());
        assert_eq!(reduced.bytes(), 0);
        assert_eq!(reduced.answers(), BTreeSet::from([vec![]]));
        let mut q = triangle_query();
        q.free = vec![2];
        assert!(ReducedCq::build(&db, &q).bytes() > 0);
    }

    #[test]
    fn wide_separators_walk_like_backtracking() {
        // two 4-cliques sharing the triangle {1, 2, 3}: the bags
        // {0, 1, 2, 3} and {1, 2, 3, 4} meet in a 3-variable separator
        let mut db = RelationalDb::new(4);
        for a in 0..4u32 {
            for b in 0..4u32 {
                if (a * 7 + b * 3) % 5 != 0 {
                    db.insert("E", &[a, b]);
                }
            }
        }
        let mut q = Cq::new(5);
        for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            q.atom("E", &[a, b]);
            q.atom("E", &[b + 1, a + 1]);
        }
        q.free = vec![0, 4];
        let expected = answers_cq(&db, &q);
        assert!(!expected.is_empty());
        assert_eq!(answers_cq_treedec(&db, &q), expected);
        let mut rel = Flat::new(4);
        for t in [[1, 2, 3, 0], [0, 2, 3, 0], [1, 2, 3, 1]] {
            rel.push(&t);
        }
        let groups = Groups::build(&rel, &[0, 1, 2]);
        assert_eq!(groups.ids(&[1, 2, 3]), &[0, 2]);
        assert_eq!(groups.ids(&[0, 2, 3]), &[1]);
        assert!(groups.ids(&[3, 2, 1]).is_empty());
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
