//! Property-based tests for the automata substrate.

use ecrpq::automata::{Alphabet, BitSet, Nfa, Regex, Symbol};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A strategy for small random NFAs over a 2-symbol alphabet.
fn arb_nfa() -> impl Strategy<Value = Nfa<Symbol>> {
    (
        2usize..6,
        proptest::collection::vec((0u32..6, 0u8..2, 0u32..6), 0..18),
        proptest::collection::vec(0u32..6, 1..4),
    )
        .prop_map(|(n, transitions, finals)| {
            let n = n.max(1);
            let mut nfa = Nfa::with_states(n);
            nfa.set_initial(0);
            for (q, s, t) in transitions {
                if (q as usize) < n && (t as usize) < n {
                    nfa.add_transition(q, s, t);
                }
            }
            for f in finals {
                if (f as usize) < n {
                    nfa.set_final(f);
                }
            }
            nfa.normalize();
            nfa
        })
}

fn arb_word() -> impl Strategy<Value = Vec<Symbol>> {
    proptest::collection::vec(0u8..2, 0..7)
}

/// The characters a regex mentions.
fn regex_chars(re: &Regex, out: &mut BTreeSet<char>) {
    match re {
        Regex::Char(c) => {
            out.insert(*c);
        }
        Regex::Concat(rs) | Regex::Alt(rs) => rs.iter().for_each(|r| regex_chars(r, out)),
        Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => regex_chars(r, out),
        Regex::Empty | Regex::Epsilon | Regex::Dot => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Determinization preserves the language.
    #[test]
    fn determinize_preserves(nfa in arb_nfa(), word in arb_word()) {
        let dfa = nfa.determinize(&[0, 1]);
        prop_assert_eq!(nfa.accepts(&word), dfa.accepts(&word));
    }

    /// Minimization preserves the language and never grows.
    #[test]
    fn minimize_preserves(nfa in arb_nfa(), word in arb_word()) {
        let dfa = nfa.determinize(&[0, 1]);
        let min = dfa.minimize();
        prop_assert!(min.num_states() <= dfa.num_states());
        prop_assert_eq!(dfa.accepts(&word), min.accepts(&word));
    }

    /// Complement is exact on every word.
    #[test]
    fn complement_is_exact(nfa in arb_nfa(), word in arb_word()) {
        let dfa = nfa.determinize(&[0, 1]);
        prop_assert_eq!(dfa.accepts(&word), !dfa.complement().accepts(&word));
    }

    /// Intersection = conjunction of memberships.
    #[test]
    fn intersection_is_conjunction(a in arb_nfa(), b in arb_nfa(), word in arb_word()) {
        let i = a.intersect(&b);
        prop_assert_eq!(i.accepts(&word), a.accepts(&word) && b.accepts(&word));
    }

    /// Union = disjunction of memberships.
    #[test]
    fn union_is_disjunction(a in arb_nfa(), b in arb_nfa(), word in arb_word()) {
        let u = a.union(&b);
        prop_assert_eq!(u.accepts(&word), a.accepts(&word) || b.accepts(&word));
    }

    /// Reversal accepts exactly the reversed words.
    #[test]
    fn reverse_is_exact(nfa in arb_nfa(), word in arb_word()) {
        let rev = nfa.reverse();
        let mut w = word.clone();
        w.reverse();
        prop_assert_eq!(nfa.accepts(&word), rev.accepts(&w));
    }

    /// ε-removal preserves the language and leaves no ε-transitions.
    #[test]
    fn epsilon_removal(a in arb_nfa(), b in arb_nfa(), word in arb_word()) {
        // build something with ε-transitions via combinators
        let c = a.concat(&b).optional();
        let e = c.remove_epsilon();
        prop_assert!(!e.has_epsilon());
        prop_assert_eq!(c.accepts(&word), e.accepts(&word));
    }

    /// Emptiness agrees with the shortest-word search.
    #[test]
    fn emptiness_vs_shortest(nfa in arb_nfa()) {
        prop_assert_eq!(nfa.is_empty(), nfa.shortest_word().is_none());
        if let Some(w) = nfa.shortest_word() {
            prop_assert!(nfa.accepts(&w));
        }
    }

    /// Trim preserves the language.
    #[test]
    fn trim_preserves(nfa in arb_nfa(), word in arb_word()) {
        prop_assert_eq!(nfa.accepts(&word), nfa.trim().accepts(&word));
    }

    /// `a.concat(b)` accepts every split concatenation.
    #[test]
    fn concat_contains_products(a in arb_nfa(), b in arb_nfa(), u in arb_word(), v in arb_word()) {
        if a.accepts(&u) && b.accepts(&v) {
            let mut w = u.clone();
            w.extend_from_slice(&v);
            prop_assert!(a.concat(&b).accepts(&w));
        }
    }

    /// Kleene star: accepts ε and is closed under append-one-more.
    #[test]
    fn star_closure(a in arb_nfa(), u in arb_word(), v in arb_word()) {
        let s = a.star();
        prop_assert!(s.accepts(&[]));
        if s.accepts(&u) && a.accepts(&v) {
            let mut w = u.clone();
            w.extend_from_slice(&v);
            prop_assert!(s.accepts(&w));
        }
    }
}

/// A scripted `BitSet` op, mirrored against a naive `Vec<bool>` model.
#[derive(Debug, Clone)]
enum BitOp {
    Insert(usize),
    Remove(usize),
    UnionAssign(Vec<usize>),
    OrWord(usize, u64),
    ClearWord(usize),
}

fn arb_bitop(cap: usize) -> impl Strategy<Value = BitOp> {
    prop_oneof![
        (0..cap).prop_map(BitOp::Insert),
        (0..cap).prop_map(BitOp::Remove),
        proptest::collection::vec(0..cap, 0..8).prop_map(BitOp::UnionAssign),
        (0..cap / 64, 0u64..=u64::MAX).prop_map(|(w, m)| BitOp::OrWord(w, m)),
        (0..cap.div_ceil(64)).prop_map(BitOp::ClearWord),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `BitSet` against a `Vec<bool>` model through a random op script:
    /// membership, length, word view, and both iterators must agree after
    /// every step, and change-reporting ops must report the model's delta.
    #[test]
    fn bitset_matches_vec_bool_model(ops in proptest::collection::vec(arb_bitop(192), 0..40)) {
        const CAP: usize = 192;
        let mut s = BitSet::new(CAP);
        let mut model = [false; CAP];
        for op in ops {
            match op {
                BitOp::Insert(i) => {
                    let fresh = !model[i];
                    model[i] = true;
                    prop_assert_eq!(s.insert(i), fresh);
                }
                BitOp::Remove(i) => {
                    let present = model[i];
                    model[i] = false;
                    prop_assert_eq!(s.remove(i), present);
                }
                BitOp::UnionAssign(elems) => {
                    let other = BitSet::from_iter_with_capacity(CAP, elems.iter().copied());
                    let grew = elems.iter().any(|&i| !model[i]);
                    for &i in &elems {
                        model[i] = true;
                    }
                    prop_assert_eq!(s.union_assign(&other), grew);
                }
                BitOp::OrWord(w, mask) => {
                    let mut newly = 0u64;
                    for b in 0..64 {
                        if mask & (1 << b) != 0 && !model[w * 64 + b] {
                            newly |= 1 << b;
                            model[w * 64 + b] = true;
                        }
                    }
                    prop_assert_eq!(s.or_word(w, mask), newly);
                }
                BitOp::ClearWord(w) => {
                    for b in 0..64 {
                        if let Some(m) = model.get_mut(w * 64 + b) {
                            *m = false;
                        }
                    }
                    s.clear_word(w);
                }
            }
            let expected: Vec<usize> =
                (0..CAP).filter(|&i| model[i]).collect();
            prop_assert_eq!(s.iter().collect::<Vec<_>>(), expected.clone());
            prop_assert_eq!(s.iter_ones().collect::<Vec<_>>(), expected.clone());
            prop_assert_eq!(s.len(), expected.len());
            for (w, &word) in s.words().iter().enumerate() {
                for b in 0..64 {
                    let bit = word & (1 << b) != 0;
                    prop_assert_eq!(bit, model.get(w * 64 + b).copied().unwrap_or(false));
                }
            }
        }
    }
}

/// A strategy for random regexes (as strings) over {a, b}.
fn arb_regex() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("()".to_string())
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("{x}{y}")),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("({x}|{y})")),
            inner.clone().prop_map(|x| format!("({x})*")),
            inner.clone().prop_map(|x| format!("({x})+")),
            inner.prop_map(|x| format!("({x})?")),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Parse → display → parse is language-preserving.
    #[test]
    fn regex_display_roundtrip(re in arb_regex(), word in arb_word()) {
        let r1 = Regex::parse(&re).unwrap();
        let r2 = Regex::parse(&r1.to_string()).unwrap();
        let mut a1 = Alphabet::ascii_lower(2);
        let mut a2 = Alphabet::ascii_lower(2);
        let n1 = r1.compile(&mut a1);
        let n2 = r2.compile(&mut a2);
        prop_assert_eq!(n1.accepts(&word), n2.accepts(&word));
    }

    /// DFA equivalence is reflexive through an independent construction.
    #[test]
    fn equivalence_reflexive(re in arb_regex()) {
        let mut a = Alphabet::ascii_lower(2);
        let n = Regex::compile_str(&re, &mut a).unwrap();
        let d1 = n.remove_epsilon().determinize(&[0, 1]);
        let d2 = n.reverse().reverse().remove_epsilon().determinize(&[0, 1]);
        prop_assert!(d1.equivalent(&d2));
    }

    /// Kleene round-trip: regex → NFA → regex (state elimination) → NFA
    /// preserves the language.
    #[test]
    fn nfa_to_regex_roundtrip(re in arb_regex()) {
        let alphabet = Alphabet::ascii_lower(2);
        let mut a1 = alphabet.clone();
        let n = Regex::compile_str(&re, &mut a1).unwrap();
        let back = ecrpq::automata::nfa_to_regex(&n, &alphabet);
        let mut a2 = alphabet.clone();
        let n2 = back.compile(&mut a2);
        let d1 = n.remove_epsilon().determinize(&[0, 1]);
        let d2 = n2.remove_epsilon().determinize(&[0, 1]);
        prop_assert!(d1.equivalent(&d2), "{re} vs {back}");
    }

    /// State elimination writes exactly the transition symbols of a
    /// trimmed NFA — what lets `unparse` give up on an alphabet those
    /// symbols do not cover before rendering anything.
    #[test]
    fn nfa_to_regex_chars_are_the_trimmed_symbols(nfa in arb_nfa()) {
        let alphabet = Alphabet::ascii_lower(2);
        let trimmed = nfa.trim();
        let mut chars = BTreeSet::new();
        regex_chars(&ecrpq::automata::nfa_to_regex(&trimmed, &alphabet), &mut chars);
        let symbols: BTreeSet<char> =
            trimmed.symbols_used().into_iter().map(|s| alphabet.char_of(s)).collect();
        prop_assert_eq!(chars, symbols);
    }

    /// State elimination also round-trips arbitrary NFAs.
    #[test]
    fn nfa_to_regex_roundtrip_random_nfa(nfa in arb_nfa()) {
        let alphabet = Alphabet::ascii_lower(2);
        let back = ecrpq::automata::nfa_to_regex(&nfa, &alphabet);
        let mut a2 = alphabet.clone();
        let n2 = back.compile(&mut a2);
        let d1 = nfa.remove_epsilon().determinize(&[0, 1]);
        let d2 = n2.remove_epsilon().determinize(&[0, 1]);
        prop_assert!(d1.equivalent(&d2));
    }
}
