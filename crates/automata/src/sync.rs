//! Synchronous (a.k.a. regular, automatic) word relations.
//!
//! Following §2 of the paper: given words `w₁, …, w_k` over `A`, their
//! *convolution* `w₁ ⊗ ⋯ ⊗ w_k` is the smallest word over `(A ∪ {⊥})^k`
//! whose projection onto the `i`-th component is `wᵢ·⊥*`. For example,
//! `aab ⊗ c ⊗ bb = (a,c,b)(a,⊥,b)(b,⊥,⊥)`. A `k`-ary relation `R ⊆ (A*)^k`
//! is **synchronous** iff `{w₁ ⊗ ⋯ ⊗ w_k : (w₁,…,w_k) ∈ R}` is a regular
//! language over `(A ∪ {⊥})^k`; it is represented here, as in the paper, by
//! an NFA over that alphabet — a [`SyncRel`].
//!
//! The convolution alphabet element is a [`Row`]: a fixed-arity vector of
//! [`Track`]s. Valid convolutions satisfy the *suffix-padding invariant*
//! (once a track reads `⊥` it reads `⊥` forever, and no column is all-`⊥`);
//! [`padding_automaton`] recognizes exactly the valid convolutions, and
//! [`SyncRel::from_nfa`] normalizes arbitrary NFAs by intersecting with it.
//!
//! [`SyncRel::join`] is the product construction of **Lemma 4.1**: it merges
//! the relations of a connected component of the relation subquery into a
//! single relation over the component's path variables.

use crate::alphabet::Symbol;
use crate::bitset::BitSet;
use crate::fnv::{FnvHashMap, FnvHashSet};
use crate::nfa::{Nfa, StateId};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// One track of a convolution column: a symbol or the padding symbol `⊥`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// An alphabet symbol.
    Sym(Symbol),
    /// The padding symbol `⊥` (the track's word has ended).
    Pad,
}

impl Track {
    /// Whether this track is padding.
    pub fn is_pad(self) -> bool {
        matches!(self, Track::Pad)
    }
}

impl fmt::Display for Track {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Track::Sym(s) => write!(f, "{s}"),
            Track::Pad => write!(f, "⊥"),
        }
    }
}

/// One column of a convolution: an element of `(A ∪ {⊥})^k`.
pub type Row = Vec<Track>;

/// Convolution `w₁ ⊗ ⋯ ⊗ w_k` of `k` words (§2 of the paper).
///
/// Returns the empty sequence when all words are empty.
pub fn convolve(words: &[&[Symbol]]) -> Vec<Row> {
    let len = words.iter().map(|w| w.len()).max().unwrap_or(0);
    (0..len)
        .map(|i| {
            words
                .iter()
                .map(|w| w.get(i).map_or(Track::Pad, |&s| Track::Sym(s)))
                .collect()
        })
        .collect()
}

/// Inverse of [`convolve`]: recovers the word tuple from a row sequence,
/// returning `None` if the sequence violates the convolution invariants
/// (padding must be a suffix per track; no column may be all-`⊥`; arities
/// must agree).
pub fn deconvolve(arity: usize, rows: &[Row]) -> Option<Vec<Vec<Symbol>>> {
    let mut words: Vec<Vec<Symbol>> = vec![Vec::new(); arity];
    let mut padded = vec![false; arity];
    for row in rows {
        if row.len() != arity {
            return None;
        }
        if row.iter().all(|t| t.is_pad()) {
            return None;
        }
        for (i, t) in row.iter().enumerate() {
            match t {
                Track::Sym(s) => {
                    if padded[i] {
                        return None; // symbol after padding started
                    }
                    words[i].push(*s);
                }
                Track::Pad => padded[i] = true,
            }
        }
    }
    Some(words)
}

/// Enumerates all valid rows of the given arity over `num_symbols` symbols
/// (everything in `(A ∪ {⊥})^k` except the all-`⊥` column).
pub fn all_rows(arity: usize, num_symbols: usize) -> Vec<Row> {
    let options = num_symbols + 1;
    let total = options
        .checked_pow(arity as u32)
        // lint:allow(unwrap): documented panic: row space overflow is a caller bug
        .expect("row space overflow");
    assert!(
        total <= 4_000_000,
        "row alphabet too large: ({num_symbols}+1)^{arity}"
    );
    let mut rows = Vec::with_capacity(total - 1);
    for mut code in 0..total {
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            let d = code % options;
            code /= options;
            row.push(if d == num_symbols {
                Track::Pad
            } else {
                Track::Sym(d as Symbol)
            });
        }
        if !row.iter().all(|t| t.is_pad()) {
            rows.push(row);
        }
    }
    rows
}

/// The automaton of *valid convolutions*: state = set of already-padded
/// tracks; transitions only grow the set and never read an all-`⊥` column.
/// Every state is accepting (every prefix of a valid convolution is one).
pub fn padding_automaton(arity: usize, num_symbols: usize) -> Nfa<Row> {
    assert!((1..=16).contains(&arity), "arity out of range");
    let rows = all_rows(arity, num_symbols);
    let num_masks = 1usize << arity;
    let mut nfa = Nfa::with_states(num_masks);
    for mask in 0..num_masks {
        nfa.set_final(mask as StateId);
        for row in &rows {
            // every track already padded must stay padded
            let row_mask: usize = row
                .iter()
                .enumerate()
                .filter(|(_, t)| t.is_pad())
                .map(|(i, _)| 1 << i)
                .sum();
            if row_mask & mask == mask {
                nfa.add_transition(mask as StateId, row.clone(), row_mask as StateId);
            }
        }
    }
    nfa.set_initial(0);
    nfa.normalize();
    nfa
}

/// A `k`-ary synchronous relation over an alphabet of `num_symbols`
/// symbols, represented by an NFA over the convolution alphabet.
#[derive(Debug, Clone)]
pub struct SyncRel {
    arity: usize,
    num_symbols: usize,
    nfa: Nfa<Row>,
}

impl SyncRel {
    /// Wraps an NFA *known* to only accept valid convolutions (all
    /// constructors in [`crate::relations`] maintain this). Debug builds
    /// sample-check the invariant via the shortest witness.
    pub fn from_nfa_unchecked(arity: usize, num_symbols: usize, nfa: Nfa<Row>) -> Self {
        debug_assert!(arity >= 1);
        let rel = SyncRel {
            arity,
            num_symbols,
            nfa,
        };
        debug_assert!(
            rel.witness().is_some() || rel.nfa.is_empty(),
            "unchecked SyncRel accepts an invalid convolution"
        );
        rel
    }

    /// Wraps an arbitrary NFA over rows, restricting it to valid
    /// convolutions (intersection with [`padding_automaton`]).
    pub fn from_nfa(arity: usize, num_symbols: usize, nfa: Nfa<Row>) -> Self {
        let valid = padding_automaton(arity, num_symbols);
        SyncRel {
            arity,
            num_symbols,
            nfa: nfa.intersect(&valid).trim(),
        }
    }

    /// Arity `k` of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Size of the underlying alphabet `A`.
    pub fn num_symbols(&self) -> usize {
        self.num_symbols
    }

    /// The underlying NFA over `(A ∪ {⊥})^k`.
    pub fn nfa(&self) -> &Nfa<Row> {
        &self.nfa
    }

    /// Number of NFA states (the paper's measure of relation size).
    pub fn num_states(&self) -> usize {
        self.nfa.num_states()
    }

    /// Membership test: `(w₁, …, w_k) ∈ R`?
    ///
    /// # Panics
    /// Panics if `words.len() != arity`.
    pub fn contains(&self, words: &[&[Symbol]]) -> bool {
        assert_eq!(words.len(), self.arity, "arity mismatch");
        self.nfa.accepts(&convolve(words))
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.nfa.is_empty()
    }

    /// A shortest tuple in the relation (by convolution length), if any.
    pub fn witness(&self) -> Option<Vec<Vec<Symbol>>> {
        let rows = self.nfa.shortest_word()?;
        deconvolve(self.arity, &rows)
    }

    /// Intersection with another relation of the same arity/alphabet.
    pub fn intersect(&self, other: &SyncRel) -> SyncRel {
        assert_eq!(self.arity, other.arity);
        assert_eq!(self.num_symbols, other.num_symbols);
        SyncRel {
            arity: self.arity,
            num_symbols: self.num_symbols,
            nfa: self.nfa.intersect(&other.nfa).trim(),
        }
    }

    /// Union with another relation of the same arity/alphabet.
    pub fn union(&self, other: &SyncRel) -> SyncRel {
        assert_eq!(self.arity, other.arity);
        assert_eq!(self.num_symbols, other.num_symbols);
        SyncRel {
            arity: self.arity,
            num_symbols: self.num_symbols,
            nfa: self.nfa.union(&other.nfa),
        }
    }

    /// Complement *within the space of valid convolutions*: the relation
    /// `(A*)^k \ R`. Goes through determinization over the full row
    /// alphabet — exponential in the worst case, as expected.
    pub fn complement(&self) -> SyncRel {
        let alphabet = all_rows(self.arity, self.num_symbols);
        let dfa = self.nfa.determinize(&alphabet);
        let comp = dfa.complement().to_nfa();
        SyncRel::from_nfa(self.arity, self.num_symbols, comp)
    }

    /// Projection onto the tracks in `keep` (in the given order).
    ///
    /// Columns that become all-`⊥` after projection are turned into
    /// ε-transitions; they can only occur in the suffix of a valid
    /// convolution, so the result accepts exactly the projected tuples.
    ///
    /// # Panics
    /// Panics if `keep` is empty or contains an out-of-range track.
    pub fn project(&self, keep: &[usize]) -> SyncRel {
        assert!(!keep.is_empty());
        assert!(keep.iter().all(|&i| i < self.arity));
        let src = self.nfa.remove_epsilon();
        let n = src.num_states();
        let mut out: Nfa<Row> = Nfa::with_states(n);
        for q in 0..n as StateId {
            for (row, to) in src.transitions_from(q) {
                let proj: Row = keep.iter().map(|&i| row[i]).collect();
                if proj.iter().all(|t| t.is_pad()) {
                    out.add_epsilon(q, *to);
                } else {
                    out.add_transition(q, proj, *to);
                }
            }
            if src.is_final(q) {
                out.set_final(q);
            }
        }
        for &i in src.initial_states() {
            out.set_initial(i);
        }
        out.normalize();
        SyncRel::from_nfa(keep.len(), self.num_symbols, out)
    }

    /// Canonical minimization: determinize over the full row alphabet,
    /// minimize (Moore), convert back, and trim. Produces the unique
    /// minimal DFA of the convolution language — useful before expensive
    /// products (Lemma 4.1 joins, evaluation), at a potentially exponential
    /// one-off determinization cost.
    pub fn minimized(&self) -> SyncRel {
        let alphabet = all_rows(self.arity, self.num_symbols);
        let dfa = self.nfa.determinize(&alphabet).minimize();
        SyncRel {
            arity: self.arity,
            num_symbols: self.num_symbols,
            nfa: dfa.to_nfa().trim(),
        }
    }

    /// Composition of binary relations: `R ∘ S = {(u, w) : ∃v (u,v) ∈ R ∧
    /// (v,w) ∈ S}`. Synchronous relations are closed under composition;
    /// implemented as a Lemma 4.1-style join over `(u, v, w)` followed by
    /// projection onto the outer tracks.
    ///
    /// # Panics
    /// Panics unless both relations are binary over the same alphabet.
    pub fn compose(&self, other: &SyncRel) -> SyncRel {
        assert_eq!(self.arity, 2, "compose needs binary relations");
        assert_eq!(other.arity, 2, "compose needs binary relations");
        assert_eq!(self.num_symbols, other.num_symbols);
        let joined = SyncRel::join(&[(self, &[0, 1]), (other, &[1, 2])], 3);
        joined.project(&[0, 2])
    }

    /// The converse of a binary relation: `R⁻¹ = {(v, u) : (u, v) ∈ R}`.
    ///
    /// # Panics
    /// Panics unless the relation is binary.
    pub fn converse(&self) -> SyncRel {
        assert_eq!(self.arity, 2, "converse needs a binary relation");
        self.project(&[1, 0])
    }

    /// Whether `self ⊆ other` (both over the same arity/alphabet): no
    /// valid convolution accepted by `self` is rejected by `other`.
    ///
    /// Decided on the fly instead of through [`SyncRel::complement`]: one
    /// search over triples (state of `self`, mask of the tracks already
    /// padded, ε-closed subset of `other`'s states), which fails at the
    /// first final `self` state whose subset holds no final state. The
    /// mask is the state of [`padding_automaton`], so the answer equals
    /// `self.intersect(&other.complement()).is_empty()` also for
    /// [`SyncRel::from_nfa_unchecked`] automata that accept invalid
    /// convolutions, while only the subsets `self`'s rows reach are built.
    pub fn is_subset_of(&self, other: &SyncRel) -> bool {
        assert_eq!(self.arity, other.arity);
        assert_eq!(self.num_symbols, other.num_symbols);
        assert!(self.arity <= 32, "arity out of range");
        let a = &self.nfa;
        let mut subsets = Subsets::new(&other.nfa);
        let start = subsets.intern(
            other
                .nfa
                .epsilon_closure(other.nfa.initial_states().iter().copied()),
        );
        let mut seen: FnvHashSet<(StateId, u32, u32)> = FnvHashSet::default();
        let mut stack: Vec<(StateId, u32, u32)> = Vec::new();
        let mut push = |stack: &mut Vec<_>, triple| {
            if seen.insert(triple) {
                stack.push(triple);
            }
        };
        for &q in a.initial_states() {
            push(&mut stack, (q, 0, start));
        }
        while let Some((q, mask, s)) = stack.pop() {
            if a.is_final(q) && !subsets.accepting[s as usize] {
                return false;
            }
            for &q2 in a.epsilon_from(q) {
                push(&mut stack, (q2, mask, s));
            }
            for (row, q2) in a.transitions_from(q) {
                // a valid column never unpads a track
                match self.pad_mask(row) {
                    Some(next) if next & mask == mask => {
                        let s2 = subsets.step(s, row);
                        push(&mut stack, (*q2, next, s2));
                    }
                    _ => {}
                }
            }
        }
        true
    }

    /// The padded tracks of `row` as a bit mask, or `None` unless `row` is
    /// a letter of the convolution alphabet (one of [`all_rows`]).
    fn pad_mask(&self, row: &Row) -> Option<u32> {
        if row.len() != self.arity {
            return None;
        }
        let mut mask = 0u32;
        for (i, t) in row.iter().enumerate() {
            match t {
                Track::Pad => mask |= 1 << i,
                Track::Sym(s) if (*s as usize) < self.num_symbols => {}
                Track::Sym(_) => return None,
            }
        }
        (mask.count_ones() as usize != self.arity).then_some(mask)
    }

    /// Whether the two relations are equal as sets of tuples.
    pub fn equivalent(&self, other: &SyncRel) -> bool {
        self.is_subset_of(other) && other.is_subset_of(self)
    }

    /// Pad-closure: the row language `L · (⊥,…,⊥)*`. This is **not** itself
    /// a valid relation (it accepts all-`⊥` columns); it is the
    /// preprocessing step of the Lemma 4.1 product, letting a component
    /// automaton idle while longer tracks of *other* components continue.
    fn pad_closed_nfa(&self) -> Nfa<Row> {
        let mut nfa = self.nfa.clone();
        let sink = nfa.add_state();
        let allpad: Row = vec![Track::Pad; self.arity];
        nfa.add_transition(sink, allpad, sink);
        nfa.set_final(sink);
        let finals: Vec<StateId> = nfa.final_states().collect();
        for f in finals {
            if f != sink {
                nfa.add_epsilon(f, sink);
            }
        }
        nfa.remove_epsilon()
    }

    /// **Lemma 4.1 join**: given component relations `Rᵢ` together with the
    /// positions `γᵢ` of their tracks inside a merged variable tuple of
    /// width `total`, builds the relation
    ///
    /// `R = { f̄ ∈ (A*)^total : ∀i, (f̄[γᵢ(1)], …, f̄[γᵢ(rᵢ)]) ∈ Rᵢ }`.
    ///
    /// The state space is the product `Q₁ × ⋯ × Q_ℓ` exactly as in the
    /// paper; transitions are computed by a backtracking join over the
    /// component transition sets, and tracks constrained by *no* component
    /// are unconstrained (any word).
    ///
    /// # Panics
    /// Panics if `rels` is empty, a mapping has the wrong length, or a
    /// position is out of range.
    pub fn join(rels: &[(&SyncRel, &[usize])], total: usize) -> SyncRel {
        assert!(!rels.is_empty(), "join of zero relations");
        assert!(total >= 1);
        let num_symbols = rels[0].0.num_symbols;
        for (r, map) in rels {
            assert_eq!(r.num_symbols, num_symbols, "alphabet mismatch in join");
            assert_eq!(map.len(), r.arity, "mapping arity mismatch");
            assert!(map.iter().all(|&p| p < total), "join position out of range");
        }
        let components: Vec<Nfa<Row>> = rels.iter().map(|(r, _)| r.pad_closed_nfa()).collect();
        let maps: Vec<&[usize]> = rels.iter().map(|&(_, m)| m).collect();
        let constrained: Vec<bool> = {
            let mut c = vec![false; total];
            for m in &maps {
                for &p in *m {
                    c[p] = true;
                }
            }
            c
        };

        // Multi-initial components: enumerate all initial tuples.
        let mut out: Nfa<Row> = Nfa::new();
        let mut ids: HashMap<Vec<StateId>, StateId> = HashMap::new();
        let mut queue: VecDeque<Vec<StateId>> = VecDeque::new();
        let mut initial_tuples: Vec<Vec<StateId>> = vec![Vec::new()];
        for c in &components {
            let mut next = Vec::new();
            for tuple in &initial_tuples {
                for &i in c.initial_states() {
                    let mut t = tuple.clone();
                    t.push(i);
                    next.push(t);
                }
            }
            initial_tuples = next;
        }
        for t in initial_tuples {
            let id = *ids.entry(t.clone()).or_insert_with(|| {
                queue.push_back(t.clone());
                out.add_state()
            });
            out.set_initial(id);
        }

        // Options for an unconstrained track in a joint row.
        let free_tracks: Vec<Track> = (0..num_symbols as Symbol)
            .map(Track::Sym)
            .chain([Track::Pad])
            .collect();

        while let Some(tuple) = queue.pop_front() {
            let id = ids[&tuple];
            if tuple.iter().zip(&components).all(|(&q, c)| c.is_final(q)) {
                out.set_final(id);
            }
            // Backtracking join over component transitions.
            let mut partial: Vec<Option<Track>> = vec![None; total];
            let mut targets: Vec<StateId> = Vec::with_capacity(components.len());
            join_rec(
                0,
                &components,
                &maps,
                &tuple,
                &mut partial,
                &mut targets,
                &mut |partial, targets| {
                    // Fill unconstrained tracks with every option.
                    let mut rows: Vec<Row> = vec![Vec::with_capacity(total)];
                    for (i, slot) in partial.iter().enumerate() {
                        match slot {
                            Some(t) => {
                                for r in &mut rows {
                                    r.push(*t);
                                }
                            }
                            None if constrained[i] => unreachable!("constrained track unset"),
                            None => {
                                let mut next = Vec::with_capacity(rows.len() * free_tracks.len());
                                for r in rows {
                                    for &t in &free_tracks {
                                        let mut r2 = r.clone();
                                        r2.push(t);
                                        next.push(r2);
                                    }
                                }
                                rows = next;
                            }
                        }
                    }
                    let next_id_base = targets.to_vec();
                    for row in rows {
                        let tid = *ids.entry(next_id_base.clone()).or_insert_with(|| {
                            queue.push_back(next_id_base.clone());
                            out.add_state()
                        });
                        out.add_transition(id, row, tid);
                    }
                },
            );
        }
        out.normalize();
        // Restrict to valid convolutions: drops the artifacts of
        // pad-closure (all-`⊥` columns) and enforces suffix padding on
        // unconstrained tracks.
        SyncRel::from_nfa(total, num_symbols, out)
    }
}

/// The subset construction of one NFA, built only as far as it is asked:
/// ε-closed state sets interned by first reach, with memoized steps.
struct Subsets<'a> {
    nfa: &'a Nfa<Row>,
    ids: FnvHashMap<BitSet, u32>,
    sets: Vec<BitSet>,
    /// Whether each interned set holds a final state.
    accepting: Vec<bool>,
    steps: FnvHashMap<(u32, &'a Row), u32>,
}

impl<'a> Subsets<'a> {
    fn new(nfa: &'a Nfa<Row>) -> Self {
        Subsets {
            nfa,
            ids: FnvHashMap::default(),
            sets: Vec::new(),
            accepting: Vec::new(),
            steps: FnvHashMap::default(),
        }
    }

    fn intern(&mut self, set: BitSet) -> u32 {
        if let Some(&id) = self.ids.get(&set) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.accepting
            .push(set.iter().any(|p| self.nfa.is_final(p as StateId)));
        self.ids.insert(set.clone(), id);
        self.sets.push(set);
        id
    }

    /// The ε-closed successor of set `s` on `row`.
    fn step(&mut self, s: u32, row: &'a Row) -> u32 {
        if let Some(&id) = self.steps.get(&(s, row)) {
            return id;
        }
        let nfa = self.nfa;
        let targets: Vec<StateId> = self.sets[s as usize]
            .iter()
            .flat_map(|p| nfa.transitions_from(p as StateId))
            .filter(|(r, _)| r == row)
            .map(|&(_, t)| t)
            .collect();
        let id = self.intern(nfa.epsilon_closure(targets));
        self.steps.insert((s, row), id);
        id
    }
}

/// Recursive helper of [`SyncRel::join`]: extends the partial joint row with
/// component `i`'s transitions.
fn join_rec(
    i: usize,
    components: &[Nfa<Row>],
    maps: &[&[usize]],
    tuple: &[StateId],
    partial: &mut Vec<Option<Track>>,
    targets: &mut Vec<StateId>,
    emit: &mut impl FnMut(&[Option<Track>], &[StateId]),
) {
    if i == components.len() {
        emit(partial, targets);
        return;
    }
    'trans: for (row, to) in components[i].transitions_from(tuple[i]) {
        let mut written: Vec<usize> = Vec::with_capacity(row.len());
        for (j, t) in row.iter().enumerate() {
            let pos = maps[i][j];
            match partial[pos] {
                None => {
                    partial[pos] = Some(*t);
                    written.push(pos);
                }
                Some(existing) if existing == *t => {}
                Some(_) => {
                    for &w in &written {
                        partial[w] = None;
                    }
                    continue 'trans;
                }
            }
        }
        targets.push(*to);
        join_rec(i + 1, components, maps, tuple, partial, targets, emit);
        targets.pop();
        for &w in &written {
            partial[w] = None;
        }
    }
}

/// Formats a row like `(a,⊥,b)` using raw symbol ids.
pub fn format_row(row: &Row) -> String {
    let inner: Vec<String> = row.iter().map(|t| t.to_string()).collect();
    format!("({})", inner.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relations;

    fn w(s: &[u8]) -> Vec<Symbol> {
        s.to_vec()
    }

    #[test]
    fn convolution_example_from_paper() {
        // aab ⊗ c ⊗ bb = (a,c,b)(a,⊥,b)(b,⊥,⊥), with a=0, b=1, c=2.
        let rows = convolve(&[&[0, 0, 1], &[2], &[1, 1]]);
        assert_eq!(
            rows,
            vec![
                vec![Track::Sym(0), Track::Sym(2), Track::Sym(1)],
                vec![Track::Sym(0), Track::Pad, Track::Sym(1)],
                vec![Track::Sym(1), Track::Pad, Track::Pad],
            ]
        );
    }

    #[test]
    fn deconvolve_roundtrip() {
        let words = [w(&[0, 0, 1]), w(&[2]), w(&[1, 1])];
        let refs: Vec<&[Symbol]> = words.iter().map(|v| v.as_slice()).collect();
        let rows = convolve(&refs);
        let back = deconvolve(3, &rows).unwrap();
        assert_eq!(back, words.to_vec());
    }

    #[test]
    fn deconvolve_rejects_invalid() {
        // symbol after pad
        let rows = vec![
            vec![Track::Pad, Track::Sym(0)],
            vec![Track::Sym(0), Track::Sym(0)],
        ];
        assert!(deconvolve(2, &rows).is_none());
        // all-pad column
        let rows = vec![vec![Track::Pad, Track::Pad]];
        assert!(deconvolve(2, &rows).is_none());
        // arity mismatch
        let rows = vec![vec![Track::Sym(0)]];
        assert!(deconvolve(2, &rows).is_none());
    }

    #[test]
    fn all_rows_count() {
        // (m+1)^k - 1
        assert_eq!(all_rows(2, 2).len(), 8);
        assert_eq!(all_rows(3, 1).len(), 7);
    }

    #[test]
    fn padding_automaton_accepts_exactly_valid() {
        let pad = padding_automaton(2, 2);
        let valid = convolve(&[&[0, 1], &[1]]);
        assert!(pad.accepts(&valid));
        let invalid = vec![
            vec![Track::Pad, Track::Sym(0)],
            vec![Track::Sym(0), Track::Sym(0)],
        ];
        assert!(!pad.accepts(&invalid));
        let allpad = vec![vec![Track::Pad, Track::Pad]];
        assert!(!pad.accepts(&allpad));
        assert!(pad.accepts(&[])); // empty tuple
    }

    #[test]
    fn eq_length_membership() {
        let r = relations::eq_length(2, 2);
        assert!(r.contains(&[&[0, 1], &[1, 1]]));
        assert!(r.contains(&[&[], &[]]));
        assert!(!r.contains(&[&[0], &[1, 1]]));
    }

    #[test]
    fn complement_of_equality() {
        let eq = relations::equality(2);
        let neq = eq.complement();
        assert!(!neq.contains(&[&[0, 1], &[0, 1]]));
        assert!(neq.contains(&[&[0, 1], &[0]]));
        assert!(neq.contains(&[&[0], &[1]]));
        assert!(!neq.contains(&[&[], &[]]));
        // double complement
        let eq2 = neq.complement();
        assert!(eq2.contains(&[&[1, 1], &[1, 1]]));
        assert!(!eq2.contains(&[&[1], &[1, 1]]));
    }

    #[test]
    fn intersection_and_union() {
        let eq_len = relations::eq_length(2, 2);
        let prefix = relations::prefix(2);
        // equal-length prefixes = equality
        let i = eq_len.intersect(&prefix);
        assert!(i.contains(&[&[0, 1], &[0, 1]]));
        assert!(!i.contains(&[&[0], &[0, 1]]));
        assert!(!i.contains(&[&[0, 1], &[1, 1]]));
        let u = eq_len.union(&prefix);
        assert!(u.contains(&[&[0], &[0, 1]])); // prefix
        assert!(u.contains(&[&[0], &[1]])); // eq-length
        assert!(!u.contains(&[&[1], &[0, 1]]));
    }

    #[test]
    fn witness_and_emptiness() {
        let eq = relations::equality(2);
        let wit = eq.witness().unwrap();
        assert_eq!(wit[0], wit[1]);
        let empty = eq.intersect(&eq.complement());
        assert!(empty.is_empty());
        assert!(empty.witness().is_none());
    }

    #[test]
    fn projection() {
        // project equality(2) onto track 0 → all words
        let eq = relations::equality(2);
        let p = eq.project(&[0]);
        assert_eq!(p.arity(), 1);
        assert!(p.contains(&[&[0, 1, 0]]));
        assert!(p.contains(&[&[]]));
        // project prefix onto the longer track: still all words
        let pre = relations::prefix(2);
        let p1 = pre.project(&[1]);
        assert!(p1.contains(&[&[1, 1, 1]]));
        // reorder tracks: project(2, [1,0]) of prefix = "extension" relation
        let ext = pre.project(&[1, 0]);
        assert!(ext.contains(&[&[0, 1], &[0]]));
        assert!(!ext.contains(&[&[0], &[0, 1]]));
    }

    #[test]
    fn join_two_binary_relations_into_chain() {
        // R(x,y) = eq_length, S(y,z) = eq_length over vars (x,y,z):
        // join → all equal-length triples.
        let r = relations::eq_length(2, 2);
        let joined = SyncRel::join(&[(&r, &[0, 1]), (&r, &[1, 2])], 3);
        assert_eq!(joined.arity(), 3);
        assert!(joined.contains(&[&[0], &[1], &[0]]));
        assert!(joined.contains(&[&[0, 0], &[1, 1], &[0, 1]]));
        assert!(!joined.contains(&[&[0], &[1], &[0, 0]]));
        assert!(!joined.contains(&[&[0, 0], &[1], &[0]]));
    }

    #[test]
    fn join_equality_chain_is_transitive() {
        let eq = relations::equality(2);
        let joined = SyncRel::join(&[(&eq, &[0, 1]), (&eq, &[1, 2])], 3);
        assert!(joined.contains(&[&[0, 1], &[0, 1], &[0, 1]]));
        assert!(!joined.contains(&[&[0, 1], &[0, 1], &[1, 0]]));
        assert!(!joined.contains(&[&[0], &[0, 1], &[0, 1]]));
    }

    #[test]
    fn join_with_unconstrained_track() {
        // single unary relation over position 0 of a width-2 tuple: track 1 free
        let lang = relations::word_relation(&[0, 1], 2); // exactly "ab"
        let joined = SyncRel::join(&[(&lang, &[0])], 2);
        assert!(joined.contains(&[&[0, 1], &[]]));
        assert!(joined.contains(&[&[0, 1], &[1, 1, 1, 0]]));
        assert!(!joined.contains(&[&[0], &[1]]));
    }

    #[test]
    fn join_mixed_lengths_pads_correctly() {
        // prefix(x,y) ∧ eq_length(y,z): x ≤p y, |y| = |z|
        let pre = relations::prefix(2);
        let el = relations::eq_length(2, 2);
        let joined = SyncRel::join(&[(&pre, &[0, 1]), (&el, &[1, 2])], 3);
        assert!(joined.contains(&[&[0], &[0, 1], &[1, 0]]));
        assert!(!joined.contains(&[&[1], &[0, 1], &[1, 0]]));
        assert!(!joined.contains(&[&[0], &[0, 1], &[1]]));
    }

    #[test]
    fn row_formatting() {
        let row = vec![Track::Sym(0), Track::Pad];
        assert_eq!(format_row(&row), "(0,⊥)");
    }

    #[test]
    fn composition_of_prefix_is_prefix() {
        // prefix ∘ prefix = prefix (transitivity)
        let pre = relations::prefix(2);
        let comp = pre.compose(&pre);
        assert!(comp.equivalent(&pre));
    }

    #[test]
    fn composition_with_equality_is_identity() {
        let eq = relations::equality(2);
        let pre = relations::prefix(2);
        assert!(eq.compose(&pre).equivalent(&pre));
        assert!(pre.compose(&eq).equivalent(&pre));
    }

    #[test]
    fn converse_semantics() {
        let pre = relations::prefix(2);
        let ext = pre.converse();
        assert!(ext.contains(&[&[0, 1], &[0]]));
        assert!(!ext.contains(&[&[0], &[0, 1]]));
        assert!(ext.converse().equivalent(&pre));
    }

    #[test]
    fn subset_and_equivalence() {
        let eq = relations::equality(2);
        let pre = relations::prefix(2);
        let el = relations::eq_length(2, 2);
        assert!(eq.is_subset_of(&pre));
        assert!(eq.is_subset_of(&el));
        assert!(!pre.is_subset_of(&eq));
        assert!(eq.equivalent(&pre.intersect(&el)));
    }

    #[test]
    fn compose_eq_length_adds_nothing() {
        // eq_len ∘ eq_len = eq_len
        let el = relations::eq_length(2, 2);
        assert!(el.compose(&el).equivalent(&el));
    }

    #[test]
    fn minimized_preserves_and_shrinks() {
        // build a bloated version of equality via double complement
        let eq = relations::equality(2);
        let bloated = eq.complement().complement();
        let min = bloated.minimized();
        assert!(min.num_states() <= bloated.num_states());
        assert!(min.equivalent(&eq));
        for (u, v) in [
            (vec![], vec![]),
            (vec![0u8, 1], vec![0, 1]),
            (vec![0], vec![1]),
            (vec![0], vec![0, 0]),
        ] {
            assert_eq!(min.contains(&[&u, &v]), eq.contains(&[&u, &v]));
        }
    }

    #[test]
    fn minimized_join_is_small() {
        let eq = relations::equality(2);
        let joined = SyncRel::join(&[(&eq, &[0, 1]), (&eq, &[1, 2])], 3);
        let min = joined.minimized();
        assert!(min.num_states() <= joined.num_states());
        assert!(min.contains(&[&[0, 1], &[0, 1], &[0, 1]]));
        assert!(!min.contains(&[&[0], &[0], &[1]]));
    }
}
