//! The paper's concrete examples, end to end.

use ecrpq::automata::{convolve, relations, Alphabet, Regex, Track};
use ecrpq::eval::planner;
use ecrpq::graph::parse_graph;
use ecrpq::query::{parse_query, RelationRegistry};

/// Example 1.1: `q₁ = ∃y x →π₁ y ∧ x →π₂ y ∧ label(π₁) ∈ a*b ∧
/// label(π₂) ∈ (a+b)*` — a CRPQ.
#[test]
fn example_1_1() {
    let db = parse_graph(
        "u -a-> v\n\
         v -a-> w\n\
         w -b-> t\n\
         u -b-> t\n",
    )
    .unwrap();
    let mut alphabet = db.alphabet().clone();
    let q = parse_query(
        "q(x) :- x -(a*b)-> y, x -((a|b)*)-> y",
        &mut alphabet,
        &RelationRegistry::new(),
    )
    .unwrap();
    assert!(q.is_crpq());
    let answers = planner::answers(&db, &q);
    // u reaches t via aab (∈ a*b) and via b (∈ (a|b)*), both ending at t.
    assert!(answers.contains(&vec![db.node("u").unwrap()]));
    // w reaches t via b; same path works for both atoms.
    assert!(answers.contains(&vec![db.node("w").unwrap()]));
    // t has no outgoing path with label in a*b (no outgoing edges at all);
    // but the CRPQ needs *some* y — t can still use... no: no outgoing
    // edges means only the empty path, and ε ∉ a*b.
    assert!(!answers.contains(&vec![db.node("t").unwrap()]));
}

/// Example 2.1: `q(x, x′) = ∃y x →π₁ y ∧ x′ →π₂ y ∧ eq-len(π₁, π₂)`.
#[test]
fn example_2_1() {
    let db = parse_graph(
        "a1 -a-> a2\n\
         a2 -a-> hub\n\
         b1 -b-> b2\n\
         b2 -b-> hub\n\
         c1 -a-> hub\n",
    )
    .unwrap();
    let mut alphabet = db.alphabet().clone();
    let q = parse_query(
        "q(x, x') :- x -[p1]-> y, x' -[p2]-> y, eq_len(p1, p2)",
        &mut alphabet,
        &RelationRegistry::new(),
    )
    .unwrap();
    assert!(!q.is_crpq());
    let answers = planner::answers(&db, &q);
    let (a1, b1, c1) = (
        db.node("a1").unwrap(),
        db.node("b1").unwrap(),
        db.node("c1").unwrap(),
    );
    // the two 2-step chains match each other
    assert!(answers.contains(&vec![a1, b1]));
    assert!(answers.contains(&vec![b1, a1]));
    // but not the 1-step chain
    assert!(!answers.contains(&vec![a1, c1]));
    // every vertex pairs with itself via two empty paths
    for v in 0..db.num_nodes() as u32 {
        assert!(answers.contains(&vec![v, v]));
    }
}

/// §2: the convolution example `aab ⊗ c ⊗ bb = (a,c,b)(a,⊥,b)(b,⊥,⊥)`.
#[test]
fn convolution_example() {
    let mut alphabet = Alphabet::new();
    let a = alphabet.intern('a');
    let b = alphabet.intern('b');
    let c = alphabet.intern('c');
    let rows = convolve(&[&[a, a, b], &[c], &[b, b]]);
    assert_eq!(
        rows,
        vec![
            vec![Track::Sym(a), Track::Sym(c), Track::Sym(b)],
            vec![Track::Sym(a), Track::Pad, Track::Sym(b)],
            vec![Track::Sym(b), Track::Pad, Track::Pad],
        ]
    );
}

/// §2 lists equality, prefix and equal-length as synchronous; checks their
/// closure under boolean operations (“closed under all Boolean operators”).
#[test]
fn synchronous_closure_properties() {
    let eq = relations::equality(2);
    let pre = relations::prefix(2);
    let el = relations::eq_length(2, 2);
    // equality = prefix ∩ eq-length
    let inter = pre.intersect(&el);
    for (u, v) in [
        (vec![], vec![]),
        (vec![0, 1], vec![0, 1]),
        (vec![0], vec![0, 1]),
    ] {
        assert_eq!(
            eq.contains(&[&u, &v]),
            inter.contains(&[&u, &v]),
            "u={u:?} v={v:?}"
        );
    }
    // complement of equality contains exactly the distinct pairs
    let neq = eq.complement();
    assert!(neq.contains(&[&[0], &[1]]));
    assert!(!neq.contains(&[&[0, 1], &[0, 1]]));
    // union covers both sides
    let u = eq.union(&neq);
    assert!(u.contains(&[&[0], &[1]]));
    assert!(u.contains(&[&[1], &[1]]));
}

/// The paper's remark that ECRPQ = CRPQ + synchronous relations collapses
/// to CRPQ expressiveness when every relation is unary: the planner, the
/// product search and the Corollary 2.4 reduction (Lemma 4.3 with unary
/// relations) agree on CRPQs.
#[test]
fn crpq_pipelines_agree() {
    let db = parse_graph(
        "u -a-> v\n\
         v -b-> w\n\
         w -a-> u\n\
         v -a-> u\n",
    )
    .unwrap();
    for re in ["a*b", "(ab)+", "a(b|a)*", "b?a"] {
        let mut alphabet = db.alphabet().clone();
        let lang = Regex::compile_str(re, &mut alphabet).unwrap();
        let mut q = ecrpq::query::Ecrpq::new(alphabet);
        let x = q.node_var("x");
        let y = q.node_var("y");
        q.crpq_atom(x, &lang, re, y);
        q.set_free(&[x, y]);
        let general = planner::answers(&db, &q);
        let prepared = ecrpq::eval::PreparedQuery::build(&q).unwrap();
        let crpq = ecrpq::eval::cq_eval::ReducedCq::of_prepared(&db, &prepared).answers();
        assert_eq!(general, crpq, "regex {re}");
        let product = ecrpq::eval::product::answers_product(&db, &prepared);
        assert_eq!(general, product, "regex {re}");
    }
}

/// Proposition 2.2 context: evaluation must handle empty paths — “there is
/// always an empty path from v to v for any v ∈ V”.
#[test]
fn empty_paths_are_first_class() {
    let db = parse_graph("u -a-> v\n").unwrap();
    let mut alphabet = db.alphabet().clone();
    // x -[p]-> y with p in (a?) : satisfied by the empty path at u (x=y=u)
    let q = parse_query(
        "q(x, y) :- x -[p]-> y, p in a?",
        &mut alphabet,
        &RelationRegistry::new(),
    )
    .unwrap();
    let answers = planner::answers(&db, &q);
    let u = db.node("u").unwrap();
    let v = db.node("v").unwrap();
    assert!(answers.contains(&vec![u, u]));
    assert!(answers.contains(&vec![v, v]));
    assert!(answers.contains(&vec![u, v]));
    assert!(!answers.contains(&vec![v, u]));
}
