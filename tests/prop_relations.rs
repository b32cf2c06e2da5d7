//! Property-based tests for synchronous relations: the §2 claims about the
//! class (boolean closure, convolution semantics) checked on samples.

use ecrpq::automata::sync::all_rows;
use ecrpq::automata::{convolve, deconvolve, relations, Nfa, Row, Symbol, SyncRel, Track};
use proptest::prelude::*;

fn arb_word() -> impl Strategy<Value = Vec<Symbol>> {
    proptest::collection::vec(0u8..2, 0..6)
}

fn arb_pair() -> impl Strategy<Value = (Vec<Symbol>, Vec<Symbol>)> {
    (arb_word(), arb_word())
}

/// The raw material of one random relation: its kind (0 = empty,
/// 1 = normalized by [`SyncRel::from_nfa`], 2 = wrapped unchecked),
/// labelled transitions `(from, row index, to)`, ε-moves and finals over
/// at most five states.
type RawRel = (u8, Vec<(u32, usize, u32)>, Vec<(u32, u32)>, Vec<u32>);

fn arb_raw_rel() -> impl Strategy<Value = RawRel> {
    (
        0u8..3,
        proptest::collection::vec((0u32..5, 0usize..64, 0u32..5), 0..14),
        proptest::collection::vec((0u32..5, 0u32..5), 0..3),
        proptest::collection::vec(0u32..5, 0..3),
    )
}

/// Builds a relation of `arity` over two symbols from `raw`. Transitions
/// read arbitrary letters of the convolution alphabet, so unchecked
/// relations accept invalid convolutions (a symbol after `⊥`); their
/// initial state is final, which keeps the shortest witness (the empty
/// tuple) valid. `wild` adds two rows outside that alphabet, the all-`⊥`
/// column and a column of a third symbol.
fn build_rel(arity: usize, raw: &RawRel, wild: bool) -> SyncRel {
    let (kind, transitions, epsilons, finals) = raw;
    let mut rows: Vec<Row> = all_rows(arity, 2);
    if wild {
        rows.push(vec![Track::Pad; arity]);
        rows.push(vec![Track::Sym(2); arity]);
    }
    let mut nfa: Nfa<Row> = Nfa::with_states(5);
    if *kind == 0 {
        return SyncRel::from_nfa_unchecked(arity, 2, nfa);
    }
    nfa.set_initial(0);
    for &(q, r, t) in transitions {
        nfa.add_transition(q, rows[r % rows.len()].clone(), t);
    }
    for &(q, t) in epsilons {
        nfa.add_epsilon(q, t);
    }
    for &f in finals {
        nfa.set_final(f);
    }
    nfa.normalize();
    if *kind == 1 {
        SyncRel::from_nfa(arity, 2, nfa)
    } else {
        nfa.set_final(0);
        SyncRel::from_nfa_unchecked(arity, 2, nfa)
    }
}

/// Inclusion by the textbook route: `a ∩ ¬b = ∅`.
fn subset_by_complement(a: &SyncRel, b: &SyncRel) -> bool {
    a.intersect(&b.complement()).is_empty()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Convolution/deconvolution round-trips.
    #[test]
    fn convolution_roundtrip(u in arb_word(), v in arb_word(), w in arb_word()) {
        let rows = convolve(&[&u, &v, &w]);
        let back = deconvolve(3, &rows).unwrap();
        prop_assert_eq!(back, vec![u, v, w]);
    }

    /// Equality relation = word equality.
    #[test]
    fn equality_semantics((u, v) in arb_pair()) {
        let eq = relations::equality(2);
        prop_assert_eq!(eq.contains(&[&u, &v]), u == v);
    }

    /// Prefix relation = prefix predicate.
    #[test]
    fn prefix_semantics((u, v) in arb_pair()) {
        let p = relations::prefix(2);
        prop_assert_eq!(p.contains(&[&u, &v]), v.starts_with(&u));
    }

    /// Equal-length relation = length equality.
    #[test]
    fn eq_length_semantics((u, v) in arb_pair()) {
        let el = relations::eq_length(2, 2);
        prop_assert_eq!(el.contains(&[&u, &v]), u.len() == v.len());
    }

    /// Hamming bound semantics.
    #[test]
    fn hamming_semantics((u, v) in arb_pair(), d in 0usize..3) {
        let h = relations::hamming_le(d, 2);
        let expected = u.len() == v.len()
            && u.iter().zip(&v).filter(|(a, b)| a != b).count() <= d;
        prop_assert_eq!(h.contains(&[&u, &v]), expected);
    }

    /// Edit-distance relation matches the DP reference.
    #[test]
    fn edit_distance_semantics((u, v) in arb_pair(), d in 0usize..3) {
        let r = relations::edit_distance_le(d, 2);
        prop_assert_eq!(
            r.contains(&[&u, &v]),
            relations::levenshtein(&u, &v) <= d,
            "u={:?} v={:?} d={}", u, v, d
        );
    }

    /// Boolean algebra: intersection/union/complement are pointwise.
    #[test]
    fn boolean_algebra((u, v) in arb_pair()) {
        let eq = relations::equality(2);
        let pre = relations::prefix(2);
        let i = eq.intersect(&pre);
        let un = eq.union(&pre);
        let c = pre.complement();
        let e = eq.contains(&[&u, &v]);
        let p = pre.contains(&[&u, &v]);
        prop_assert_eq!(i.contains(&[&u, &v]), e && p);
        prop_assert_eq!(un.contains(&[&u, &v]), e || p);
        prop_assert_eq!(c.contains(&[&u, &v]), !p);
    }

    /// De Morgan on samples: ¬(R ∩ S) = ¬R ∪ ¬S.
    #[test]
    fn de_morgan((u, v) in arb_pair()) {
        let r = relations::eq_length(2, 2);
        let s = relations::prefix(2);
        let lhs = r.intersect(&s).complement();
        let rhs = r.complement().union(&s.complement());
        prop_assert_eq!(lhs.contains(&[&u, &v]), rhs.contains(&[&u, &v]));
    }

    /// Join of equality along a chain is transitive equality.
    #[test]
    fn join_equality_chain(u in arb_word(), v in arb_word(), w in arb_word()) {
        let eq = relations::equality(2);
        let joined = SyncRel::join(&[(&eq, &[0, 1]), (&eq, &[1, 2])], 3);
        prop_assert_eq!(joined.contains(&[&u, &v, &w]), u == v && v == w);
    }

    /// Join respects each component independently (prefix ∧ eq-length).
    #[test]
    fn join_mixed(u in arb_word(), v in arb_word(), w in arb_word()) {
        let pre = relations::prefix(2);
        let el = relations::eq_length(2, 2);
        let joined = SyncRel::join(&[(&pre, &[0, 1]), (&el, &[1, 2])], 3);
        prop_assert_eq!(
            joined.contains(&[&u, &v, &w]),
            v.starts_with(&u) && v.len() == w.len()
        );
    }

    /// Projection semantics: (u,v) ∈ R ⇒ u ∈ π₀(R), plus the converse via
    /// a witness check on the prefix relation (π₀(prefix) = A*).
    #[test]
    fn projection_soundness((u, v) in arb_pair()) {
        let pre = relations::prefix(2);
        let p0 = pre.project(&[0]);
        if pre.contains(&[&u, &v]) {
            prop_assert!(p0.contains(&[&u]));
        }
        prop_assert!(p0.contains(&[&u])); // every word is a prefix of something
    }

    /// Universal relation contains everything; its complement is empty.
    #[test]
    fn universal_and_empty((u, v) in arb_pair()) {
        let univ = relations::universal(2, 2);
        prop_assert!(univ.contains(&[&u, &v]));
        let empty = univ.complement();
        prop_assert!(!empty.contains(&[&u, &v]));
        prop_assert!(empty.is_empty());
    }

    /// Witnesses are members.
    #[test]
    fn witness_is_member(d in 0usize..2) {
        let r = relations::edit_distance_le(d, 2);
        let w = r.witness().unwrap();
        let refs: Vec<&[Symbol]> = w.iter().map(|x| x.as_slice()).collect();
        prop_assert!(r.contains(&refs));
    }

    /// The on-the-fly inclusion check agrees with `a ∩ ¬b = ∅` at arity
    /// 1–3, on empty, normalized and unchecked relations, for random
    /// pairs and for pairs built to be included.
    #[test]
    fn subset_matches_complement_route(
        arity in 1usize..4,
        raw_a in arb_raw_rel(),
        raw_b in arb_raw_rel(),
    ) {
        let a = build_rel(arity, &raw_a, false);
        let b = build_rel(arity, &raw_b, false);
        let pairs = [
            (a.clone(), b.clone()),
            (b.clone(), a.clone()),
            (a.clone(), a.union(&b)),
            (a.intersect(&b), b.clone()),
            (a.clone(), a.clone()),
        ];
        for (x, y) in &pairs {
            prop_assert_eq!(
                x.is_subset_of(y),
                subset_by_complement(x, y),
                "arity {}: {:?} ⊆ {:?}", arity, raw_a, raw_b
            );
        }
        prop_assert_eq!(
            a.equivalent(&b),
            subset_by_complement(&a, &b) && subset_by_complement(&b, &a)
        );
        // rows outside the alphabet only on the left: the complement route
        // determinizes the right-hand side over the alphabet
        let wild = build_rel(arity, &raw_a, true);
        for y in [&a, &b] {
            prop_assert_eq!(wild.is_subset_of(y), subset_by_complement(&wild, y));
        }
    }

    /// eq_length_min filters by minimum length.
    #[test]
    fn eq_length_min_semantics((u, v) in arb_pair(), min in 0usize..3) {
        let r = relations::eq_length_min(2, 2, min);
        prop_assert_eq!(
            r.contains(&[&u, &v]),
            u.len() == v.len() && u.len() >= min
        );
    }
}
