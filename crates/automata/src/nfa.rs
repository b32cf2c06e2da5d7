//! Nondeterministic finite automata, generic over the symbol type.
//!
//! The paper represents regular languages as NFAs over an alphabet `A`, and
//! `k`-ary synchronous relations as NFAs over `(A ∪ {⊥})^k` (§2). Both are
//! instances of [`Nfa<S>`]: the former with `S = Symbol`, the latter with
//! `S = Row` (see [`crate::sync`]).
//!
//! ε-transitions are supported (they fall out of the Thompson construction
//! and of pad-closure) and eliminated by [`Nfa::determinize`] /
//! [`Nfa::remove_epsilon`].

use crate::bitset::BitSet;
use crate::dfa::Dfa;
use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;

/// Identifier of an automaton state (dense, `0..num_states`).
pub type StateId = u32;

/// Trait bundle for NFA symbols.
pub trait Letter: Clone + Eq + Hash + Ord + Debug {}
impl<T: Clone + Eq + Hash + Ord + Debug> Letter for T {}

/// A nondeterministic finite automaton with ε-transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nfa<S> {
    /// `transitions[q]` lists `(symbol, target)` pairs, kept sorted+deduped
    /// by [`Nfa::normalize`].
    transitions: Vec<Vec<(S, StateId)>>,
    /// `epsilon[q]` lists ε-successors of `q`.
    epsilon: Vec<Vec<StateId>>,
    initial: Vec<StateId>,
    finals: BitSet,
}

impl<S: Letter> Default for Nfa<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Letter> Nfa<S> {
    /// Creates an empty automaton (no states; empty language).
    pub fn new() -> Self {
        Self {
            transitions: Vec::new(),
            epsilon: Vec::new(),
            initial: Vec::new(),
            finals: BitSet::new(0),
        }
    }

    /// Creates an automaton with `n` fresh, unconnected states.
    pub fn with_states(n: usize) -> Self {
        Self {
            transitions: vec![Vec::new(); n],
            epsilon: vec![Vec::new(); n],
            initial: Vec::new(),
            finals: BitSet::new(n),
        }
    }

    /// Adds a fresh state, returning its id.
    pub fn add_state(&mut self) -> StateId {
        let id = self.transitions.len() as StateId;
        self.transitions.push(Vec::new());
        self.epsilon.push(Vec::new());
        let mut finals = BitSet::new(self.transitions.len());
        for f in self.finals.iter() {
            finals.insert(f);
        }
        self.finals = finals;
        id
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Marks `q` initial.
    pub fn set_initial(&mut self, q: StateId) {
        if !self.initial.contains(&q) {
            self.initial.push(q);
        }
    }

    /// Marks `q` final.
    pub fn set_final(&mut self, q: StateId) {
        self.finals.insert(q as usize);
    }

    /// Unmarks `q` as final.
    pub fn clear_final(&mut self, q: StateId) {
        self.finals.remove(q as usize);
    }

    /// Whether `q` is final.
    pub fn is_final(&self, q: StateId) -> bool {
        self.finals.contains(q as usize)
    }

    /// The initial states.
    pub fn initial_states(&self) -> &[StateId] {
        &self.initial
    }

    /// Iterates over final states.
    pub fn final_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.finals.iter().map(|i| i as StateId)
    }

    /// Adds a transition `from --sym--> to`.
    pub fn add_transition(&mut self, from: StateId, sym: S, to: StateId) {
        self.transitions[from as usize].push((sym, to));
    }

    /// Adds an ε-transition.
    pub fn add_epsilon(&mut self, from: StateId, to: StateId) {
        self.epsilon[from as usize].push(to);
    }

    /// The outgoing labelled transitions of `q`.
    pub fn transitions_from(&self, q: StateId) -> &[(S, StateId)] {
        &self.transitions[q as usize]
    }

    /// The outgoing ε-transitions of `q`.
    pub fn epsilon_from(&self, q: StateId) -> &[StateId] {
        &self.epsilon[q as usize]
    }

    /// Whether the automaton has any ε-transition.
    pub fn has_epsilon(&self) -> bool {
        self.epsilon.iter().any(|e| !e.is_empty())
    }

    /// Sorts and dedupes transition lists (idempotent; cheap hygiene after
    /// bulk construction).
    pub fn normalize(&mut self) {
        for t in &mut self.transitions {
            t.sort();
            t.dedup();
        }
        for e in &mut self.epsilon {
            e.sort_unstable();
            e.dedup();
        }
        self.initial.sort_unstable();
        self.initial.dedup();
    }

    /// ε-closure of a set of states, as a [`BitSet`] of capacity
    /// `num_states`.
    pub fn epsilon_closure(&self, seed: impl IntoIterator<Item = StateId>) -> BitSet {
        let mut seen = BitSet::new(self.num_states());
        let mut stack: Vec<StateId> = Vec::new();
        for q in seed {
            if seen.insert(q as usize) {
                stack.push(q);
            }
        }
        while let Some(q) = stack.pop() {
            for &r in &self.epsilon[q as usize] {
                if seen.insert(r as usize) {
                    stack.push(r);
                }
            }
        }
        seen
    }

    /// Whether the automaton accepts `word` (subset simulation).
    pub fn accepts(&self, word: &[S]) -> bool {
        let mut current = self.epsilon_closure(self.initial.iter().copied());
        for sym in word {
            let mut next_seed: Vec<StateId> = Vec::new();
            for q in current.iter() {
                for (s, to) in &self.transitions[q] {
                    if s == sym {
                        next_seed.push(*to);
                    }
                }
            }
            current = self.epsilon_closure(next_seed);
            if current.is_empty() {
                return false;
            }
        }
        current.iter().any(|q| self.finals.contains(q))
    }

    /// States reachable from the initial states (following both labelled and
    /// ε-transitions).
    pub fn reachable(&self) -> BitSet {
        let mut seen = BitSet::new(self.num_states());
        let mut stack: Vec<StateId> = Vec::new();
        for &q in &self.initial {
            if seen.insert(q as usize) {
                stack.push(q);
            }
        }
        while let Some(q) = stack.pop() {
            for (_, to) in &self.transitions[q as usize] {
                if seen.insert(*to as usize) {
                    stack.push(*to);
                }
            }
            for &to in &self.epsilon[q as usize] {
                if seen.insert(to as usize) {
                    stack.push(to);
                }
            }
        }
        seen
    }

    /// States from which a final state is reachable (“co-reachable”).
    pub fn coreachable(&self) -> BitSet {
        // Build reverse adjacency once.
        let n = self.num_states();
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for q in 0..n {
            for (_, to) in &self.transitions[q] {
                rev[*to as usize].push(q as StateId);
            }
            for &to in &self.epsilon[q] {
                rev[to as usize].push(q as StateId);
            }
        }
        let mut seen = BitSet::new(n);
        let mut stack: Vec<StateId> = Vec::new();
        for f in self.finals.iter() {
            if seen.insert(f) {
                stack.push(f as StateId);
            }
        }
        while let Some(q) = stack.pop() {
            for &p in &rev[q as usize] {
                if seen.insert(p as usize) {
                    stack.push(p);
                }
            }
        }
        seen
    }

    /// Removes states that are unreachable or dead, renumbering the rest.
    pub fn trim(&self) -> Self {
        let mut live = self.reachable();
        live.intersect_with(&self.coreachable());
        let mut map: Vec<Option<StateId>> = vec![None; self.num_states()];
        let mut out = Nfa::with_states(live.len());
        for (next, q) in live.iter().enumerate() {
            map[q] = Some(next as StateId);
        }
        for q in live.iter() {
            // lint:allow(unwrap): every live state was mapped in the loop above
            let nq = map[q].unwrap();
            for (s, to) in &self.transitions[q] {
                if let Some(nt) = map[*to as usize] {
                    out.add_transition(nq, s.clone(), nt);
                }
            }
            for &to in &self.epsilon[q] {
                if let Some(nt) = map[to as usize] {
                    out.add_epsilon(nq, nt);
                }
            }
            if self.finals.contains(q) {
                out.set_final(nq);
            }
        }
        for &q in &self.initial {
            if let Some(nq) = map[q as usize] {
                out.set_initial(nq);
            }
        }
        out.normalize();
        out
    }

    /// Whether the language is empty.
    pub fn is_empty(&self) -> bool {
        let reach = self.reachable();
        !reach.iter().any(|q| self.finals.contains(q))
    }

    /// A shortest accepted word, if any (BFS).
    pub fn shortest_word(&self) -> Option<Vec<S>> {
        // BFS over states; parent pointers reconstruct the word.
        let n = self.num_states();
        let mut parent: Vec<Option<(StateId, Option<S>)>> = vec![None; n];
        let mut seen = BitSet::new(n);
        let mut queue: VecDeque<StateId> = VecDeque::new();
        for &q in &self.initial {
            if seen.insert(q as usize) {
                queue.push_back(q);
            }
        }
        let mut found: Option<StateId> = None;
        'bfs: while let Some(q) = queue.pop_front() {
            if self.finals.contains(q as usize) {
                found = Some(q);
                break 'bfs;
            }
            for &to in &self.epsilon[q as usize] {
                if seen.insert(to as usize) {
                    parent[to as usize] = Some((q, None));
                    queue.push_back(to);
                }
            }
            for (s, to) in &self.transitions[q as usize] {
                if seen.insert(*to as usize) {
                    parent[*to as usize] = Some((q, Some(s.clone())));
                    queue.push_back(*to);
                }
            }
        }
        let mut q = found?;
        let mut word = Vec::new();
        while let Some((p, s)) = parent[q as usize].take() {
            if let Some(s) = s {
                word.push(s);
            }
            q = p;
        }
        word.reverse();
        Some(word)
    }

    /// Eliminates ε-transitions, preserving the language.
    pub fn remove_epsilon(&self) -> Self {
        if !self.has_epsilon() {
            return self.clone();
        }
        let n = self.num_states();
        let mut out = Nfa::with_states(n);
        for q in 0..n as StateId {
            let closure = self.epsilon_closure([q]);
            for r in closure.iter() {
                for (s, to) in &self.transitions[r] {
                    out.add_transition(q, s.clone(), *to);
                }
                if self.finals.contains(r) {
                    out.set_final(q);
                }
            }
        }
        for &q in &self.initial {
            out.set_initial(q);
        }
        out.normalize();
        out
    }

    /// The set of distinct symbols appearing on transitions.
    pub fn symbols_used(&self) -> Vec<S> {
        let mut syms: Vec<S> = self
            .transitions
            .iter()
            .flat_map(|t| t.iter().map(|(s, _)| s.clone()))
            .collect();
        syms.sort();
        syms.dedup();
        syms
    }

    /// Disjoint union of languages: `L(self) ∪ L(other)`.
    pub fn union(&self, other: &Self) -> Self {
        let offset = self.num_states() as StateId;
        let mut out = Nfa::with_states(self.num_states() + other.num_states());
        for q in 0..self.num_states() as StateId {
            for (s, to) in &self.transitions[q as usize] {
                out.add_transition(q, s.clone(), *to);
            }
            for &to in &self.epsilon[q as usize] {
                out.add_epsilon(q, to);
            }
            if self.is_final(q) {
                out.set_final(q);
            }
        }
        for q in 0..other.num_states() as StateId {
            for (s, to) in &other.transitions[q as usize] {
                out.add_transition(q + offset, s.clone(), *to + offset);
            }
            for &to in &other.epsilon[q as usize] {
                out.add_epsilon(q + offset, to + offset);
            }
            if other.is_final(q) {
                out.set_final(q + offset);
            }
        }
        for &q in &self.initial {
            out.set_initial(q);
        }
        for &q in &other.initial {
            out.set_initial(q + offset);
        }
        out
    }

    /// Concatenation: `L(self) · L(other)`.
    pub fn concat(&self, other: &Self) -> Self {
        let offset = self.num_states() as StateId;
        let mut out = self.union(other);
        // self's finals ε-connect to other's initials; only other's finals remain.
        let self_finals: Vec<StateId> = self.final_states().collect();
        for &f in &self_finals {
            out.clear_final(f);
            for &i in &other.initial {
                out.add_epsilon(f, i + offset);
            }
        }
        out.initial = self.initial.clone();
        // Re-set finals to other's only.
        let mut finals = BitSet::new(out.num_states());
        for f in other.final_states() {
            finals.insert((f + offset) as usize);
        }
        out.finals = finals;
        out
    }

    /// Kleene star: `L(self)*`.
    pub fn star(&self) -> Self {
        let mut out = self.clone();
        let s = out.add_state();
        for &i in &self.initial {
            out.add_epsilon(s, i);
        }
        let finals: Vec<StateId> = self.final_states().collect();
        for f in finals {
            out.add_epsilon(f, s);
        }
        out.initial = vec![s];
        out.set_final(s);
        out
    }

    /// Kleene plus: `L(self)+ = L(self) · L(self)*`.
    pub fn plus(&self) -> Self {
        let mut out = self.clone();
        let finals: Vec<StateId> = self.final_states().collect();
        for f in finals {
            for &i in &self.initial {
                out.add_epsilon(f, i);
            }
        }
        out
    }

    /// Optional: `L(self) ∪ {ε}`.
    pub fn optional(&self) -> Self {
        let mut out = self.clone();
        let s = out.add_state();
        for &i in &self.initial.clone() {
            out.add_epsilon(s, i);
        }
        out.initial = vec![s];
        out.set_final(s);
        out
    }

    /// Product (intersection): `L(self) ∩ L(other)`.
    ///
    /// ε-transitions are eliminated first; the result is the reachable part
    /// of the pair construction.
    pub fn intersect(&self, other: &Self) -> Self {
        let a = self.remove_epsilon();
        let b = other.remove_epsilon();
        let mut ids: HashMap<(StateId, StateId), StateId> = HashMap::new();
        let mut out = Nfa::new();
        let mut queue: VecDeque<(StateId, StateId)> = VecDeque::new();
        for &qa in &a.initial {
            for &qb in &b.initial {
                let id = *ids.entry((qa, qb)).or_insert_with(|| out.add_state());
                out.set_initial(id);
                queue.push_back((qa, qb));
            }
        }
        let mut visited = std::collections::HashSet::new();
        for &k in ids.keys() {
            visited.insert(k);
        }
        while let Some((qa, qb)) = queue.pop_front() {
            let id = ids[&(qa, qb)];
            if a.is_final(qa) && b.is_final(qb) {
                out.set_final(id);
            }
            for (s, ta) in a.transitions_from(qa) {
                for (s2, tb) in b.transitions_from(qb) {
                    if s == s2 {
                        let key = (*ta, *tb);
                        let tid = *ids.entry(key).or_insert_with(|| out.add_state());
                        out.add_transition(id, s.clone(), tid);
                        if visited.insert(key) {
                            queue.push_back(key);
                        }
                    }
                }
            }
        }
        out.normalize();
        out
    }

    /// Difference `L(self) ∖ L(other)` over an explicit alphabet (goes
    /// through determinization of `other`).
    pub fn difference(&self, other: &Self, alphabet: &[S]) -> Self {
        let not_other = other.determinize(alphabet).complement().to_nfa();
        self.intersect(&not_other)
    }

    /// Symmetric difference over an explicit alphabet.
    pub fn symmetric_difference(&self, other: &Self, alphabet: &[S]) -> Self {
        self.difference(other, alphabet)
            .union(&other.difference(self, alphabet))
    }

    /// Language equivalence over an explicit alphabet.
    pub fn equivalent_over(&self, other: &Self, alphabet: &[S]) -> bool {
        self.determinize(alphabet)
            .equivalent(&other.determinize(alphabet))
    }

    /// Reverses the automaton: `L(rev) = { wᴿ : w ∈ L }`.
    pub fn reverse(&self) -> Self {
        let n = self.num_states();
        let mut out = Nfa::with_states(n);
        for q in 0..n as StateId {
            for (s, to) in &self.transitions[q as usize] {
                out.add_transition(*to, s.clone(), q);
            }
            for &to in &self.epsilon[q as usize] {
                out.add_epsilon(to, q);
            }
        }
        for f in self.final_states() {
            out.set_initial(f);
        }
        for &i in &self.initial {
            out.set_final(i);
        }
        out
    }

    /// Maps symbols through `f`, preserving structure (used for alphabet
    /// morphisms and track projections).
    pub fn map_symbols<T: Letter>(&self, mut f: impl FnMut(&S) -> T) -> Nfa<T> {
        let n = self.num_states();
        let mut out = Nfa::with_states(n);
        for q in 0..n as StateId {
            for (s, to) in &self.transitions[q as usize] {
                out.add_transition(q, f(s), *to);
            }
            for &to in &self.epsilon[q as usize] {
                out.add_epsilon(q, to);
            }
        }
        for &i in &self.initial {
            out.set_initial(i);
        }
        for fin in self.final_states() {
            out.set_final(fin);
        }
        out
    }

    /// Determinizes over the given complete alphabet (subset construction),
    /// producing a *complete* DFA (a sink state is added as needed).
    pub fn determinize(&self, alphabet: &[S]) -> Dfa<S> {
        let eps_free = self.remove_epsilon();
        Dfa::from_nfa(&eps_free, alphabet)
    }

    /// Single-state automaton accepting only the empty word.
    pub fn epsilon_lang() -> Self {
        let mut n = Nfa::with_states(1);
        n.set_initial(0);
        n.set_final(0);
        n
    }

    /// Automaton accepting exactly the single-symbol word `[s]`.
    pub fn symbol_lang(s: S) -> Self {
        let mut n = Nfa::with_states(2);
        n.set_initial(0);
        n.set_final(1);
        n.add_transition(0, s, 1);
        n
    }

    /// Automaton accepting exactly `word`.
    pub fn word_lang(word: &[S]) -> Self {
        let mut n = Nfa::with_states(word.len() + 1);
        n.set_initial(0);
        n.set_final(word.len() as StateId);
        for (i, s) in word.iter().enumerate() {
            n.add_transition(i as StateId, s.clone(), (i + 1) as StateId);
        }
        n
    }

    /// Automaton accepting all words over `alphabet` (including ε).
    pub fn universal_lang(alphabet: &[S]) -> Self {
        let mut n = Nfa::with_states(1);
        n.set_initial(0);
        n.set_final(0);
        for s in alphabet {
            n.add_transition(0, s.clone(), 0);
        }
        n
    }

    /// The empty language.
    pub fn empty_lang() -> Self {
        let mut n = Nfa::with_states(1);
        n.set_initial(0);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type N = Nfa<u8>;

    fn ab_star_b() -> N {
        // a*b
        let mut n = N::with_states(2);
        n.set_initial(0);
        n.set_final(1);
        n.add_transition(0, 0, 0); // a-loop
        n.add_transition(0, 1, 1); // b
        n
    }

    #[test]
    fn accepts_basic() {
        let n = ab_star_b();
        assert!(n.accepts(&[1]));
        assert!(n.accepts(&[0, 0, 1]));
        assert!(!n.accepts(&[]));
        assert!(!n.accepts(&[0]));
        assert!(!n.accepts(&[1, 0]));
    }

    #[test]
    fn word_and_symbol_langs() {
        let n = N::word_lang(&[0, 1, 0]);
        assert!(n.accepts(&[0, 1, 0]));
        assert!(!n.accepts(&[0, 1]));
        let s = N::symbol_lang(7);
        assert!(s.accepts(&[7]));
        assert!(!s.accepts(&[]));
    }

    #[test]
    fn union_concat_star() {
        let a = N::symbol_lang(0);
        let b = N::symbol_lang(1);
        let u = a.union(&b);
        assert!(u.accepts(&[0]));
        assert!(u.accepts(&[1]));
        assert!(!u.accepts(&[0, 1]));
        let c = a.concat(&b);
        assert!(c.accepts(&[0, 1]));
        assert!(!c.accepts(&[0]));
        assert!(!c.accepts(&[1]));
        let s = c.star();
        assert!(s.accepts(&[]));
        assert!(s.accepts(&[0, 1, 0, 1]));
        assert!(!s.accepts(&[0, 1, 0]));
    }

    #[test]
    fn plus_and_optional() {
        let a = N::symbol_lang(3);
        let p = a.plus();
        assert!(!p.accepts(&[]));
        assert!(p.accepts(&[3]));
        assert!(p.accepts(&[3, 3, 3]));
        let o = a.optional();
        assert!(o.accepts(&[]));
        assert!(o.accepts(&[3]));
        assert!(!o.accepts(&[3, 3]));
    }

    #[test]
    fn intersect_langs() {
        // a*b ∩ (a|b)* b (everything ending in b) = a*b
        let left = ab_star_b();
        let mut right = N::with_states(2);
        right.set_initial(0);
        right.set_final(1);
        right.add_transition(0, 0, 0);
        right.add_transition(0, 1, 0);
        right.add_transition(0, 1, 1);
        let i = left.intersect(&right);
        assert!(i.accepts(&[1]));
        assert!(i.accepts(&[0, 0, 1]));
        assert!(!i.accepts(&[0, 1, 0]));
    }

    #[test]
    fn emptiness_and_shortest() {
        let n = ab_star_b();
        assert!(!n.is_empty());
        assert_eq!(n.shortest_word(), Some(vec![1]));
        assert!(N::empty_lang().is_empty());
        assert_eq!(N::empty_lang().shortest_word(), None);
        assert_eq!(N::epsilon_lang().shortest_word(), Some(vec![]));
    }

    #[test]
    fn trim_removes_dead_states() {
        let mut n = ab_star_b();
        let dead = n.add_state();
        n.add_transition(0, 5, dead); // dead end
        let t = n.trim();
        assert_eq!(t.num_states(), 2);
        assert!(t.accepts(&[0, 1]));
    }

    #[test]
    fn reverse_language() {
        // reverse of a*b is b a*
        let r = ab_star_b().reverse();
        assert!(r.accepts(&[1]));
        assert!(r.accepts(&[1, 0, 0]));
        assert!(!r.accepts(&[0, 1]));
    }

    #[test]
    fn epsilon_removal_preserves() {
        let a = N::symbol_lang(0);
        let b = N::symbol_lang(1);
        let c = a.concat(&b).star(); // has epsilons
        assert!(c.has_epsilon());
        let e = c.remove_epsilon();
        assert!(!e.has_epsilon());
        for w in [
            &[][..],
            &[0, 1][..],
            &[0, 1, 0, 1][..],
            &[0][..],
            &[1, 0][..],
        ] {
            assert_eq!(c.accepts(w), e.accepts(w), "word {w:?}");
        }
    }

    #[test]
    fn difference_and_symmetric_difference() {
        // a*b \ ab* = words in a*b with ≥2 a's or 0 a's... compute directly
        let astar_b = ab_star_b();
        let mut ab_star = N::with_states(2);
        ab_star.set_initial(0);
        ab_star.set_final(1);
        ab_star.add_transition(0, 0, 1);
        ab_star.add_transition(1, 1, 1);
        let diff = astar_b.difference(&ab_star, &[0, 1]);
        assert!(diff.accepts(&[1])); // "b" ∈ a*b, ∉ ab*
        assert!(diff.accepts(&[0, 0, 1]));
        assert!(!diff.accepts(&[0, 1])); // "ab" in both
        let sym = astar_b.symmetric_difference(&ab_star, &[0, 1]);
        assert!(sym.accepts(&[1]));
        assert!(sym.accepts(&[0])); // "a" ∈ ab* only
        assert!(!sym.accepts(&[0, 1]));
        assert!(!astar_b.equivalent_over(&ab_star, &[0, 1]));
        assert!(astar_b.equivalent_over(&ab_star_b(), &[0, 1]));
    }

    #[test]
    fn universal_lang_accepts_everything() {
        let u = N::universal_lang(&[0, 1, 2]);
        assert!(u.accepts(&[]));
        assert!(u.accepts(&[2, 1, 0, 0]));
    }

    #[test]
    fn symbols_used_sorted() {
        let n = ab_star_b();
        assert_eq!(n.symbols_used(), vec![0, 1]);
    }
}
