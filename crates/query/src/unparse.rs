//! Unparsing: render an [`Ecrpq`] back to the textual grammar of
//! [`crate::parser`], verified to round-trip.
//!
//! The minimizer (`ecrpq-analyze::minimize`) rewrites queries into cheaper
//! equivalent forms and wants to hand the user a *machine-applicable*
//! suggestion — a replacement source line. That only makes sense if the
//! emitted text parses back to the same query, so [`unparse`] is
//! deliberately partial: every unary relation atom is converted to a
//! regex via the NFA→regex construction and the conversion is verified by
//! recompiling the regex and checking language equivalence; every
//! non-unary atom must resolve through the default [`RelationRegistry`]
//! under its own name to an equivalent relation; and the finished string
//! is reparsed **with a fresh alphabet** (consumers parse one query per
//! line that way) and accepted only if the fresh alphabet covers exactly
//! the original character set. Interning *order* may differ — the
//! NFA→regex rendering can mention characters in a new order — but that
//! only permutes symbol ids: regex compilation is deterministic per
//! character and every default-registry builtin is invariant under
//! alphabet relabeling, so char-level semantics are preserved. Any
//! failure returns `None` — a missing suggestion is always sound, a
//! wrong one never is.

use crate::ast::{Ecrpq, PathVar};
use crate::parser::{parse_query, RelationRegistry};
use ecrpq_automata::{nfa_to_regex, relations, Alphabet, Nfa, Regex, SyncRel, Track};

/// Renders `q` as a single parseable source line, or `None` when the
/// query cannot be faithfully expressed in the textual grammar.
/// `state_budget` caps the automata sizes of the per-atom equivalence
/// verification (checks on larger automata are refused, not trusted).
pub fn unparse(q: &Ecrpq, state_budget: usize) -> Option<String> {
    let alphabet = q.alphabet();
    if !alphabet
        .symbols()
        .all(|s| alphabet.char_of(s).is_ascii_alphanumeric())
    {
        return None;
    }
    for i in 0..q.num_node_vars() {
        if !ident_ok(q.node_name(crate::ast::NodeVar(i as u32))) {
            return None;
        }
    }
    for i in 0..q.num_path_vars() {
        if !ident_ok(q.path_name(PathVar(i as u32))) {
            return None;
        }
    }
    if !regexes_cover(q, alphabet) {
        return None;
    }

    let mut parts: Vec<String> = Vec::new();
    for (p, src, dst) in q.path_atoms() {
        parts.push(format!(
            "{} -[{}]-> {}",
            q.node_name(src),
            q.path_name(p),
            q.node_name(dst)
        ));
    }
    let registry = RelationRegistry::new();
    for atom in q.rel_atoms() {
        if atom.rel.arity() == 1 && atom.args.len() == 1 {
            let regex = unary_regex(&atom.rel, alphabet, state_budget)?;
            parts.push(format!("{} in {regex}", q.path_name(atom.args[0])));
        } else {
            if !rel_name_ok(&atom.name) {
                return None;
            }
            let resolved = registry
                .resolve(&atom.name, atom.args.len(), alphabet.len())
                .ok()?;
            if !verified_equivalent(&resolved, &atom.rel, state_budget) {
                return None;
            }
            let args: Vec<&str> = atom.args.iter().map(|&p| q.path_name(p)).collect();
            parts.push(format!("{}({})", atom.name, args.join(", ")));
        }
    }
    if parts.is_empty() {
        return None;
    }
    let body = parts.join(", ");
    let text = if q.free_vars().is_empty() {
        body
    } else {
        let frees: Vec<&str> = q.free_vars().iter().map(|&v| q.node_name(v)).collect();
        format!("q({}) :- {body}", frees.join(", "))
    };

    // The round-trip gate: consumers parse one query per line with a
    // fresh alphabet, so the text must rebuild the same *character set* —
    // a dropped character silently shrinks every relation's universe.
    // Interning order is allowed to permute (see the module docs).
    let mut fresh = Alphabet::new();
    let reparsed = parse_query(&text, &mut fresh, &registry).ok()?;
    if fresh.len() != alphabet.len() {
        return None;
    }
    let mut orig_chars: Vec<char> = alphabet.symbols().map(|s| alphabet.char_of(s)).collect();
    let mut fresh_chars: Vec<char> = fresh.symbols().map(|s| fresh.char_of(s)).collect();
    orig_chars.sort_unstable();
    fresh_chars.sort_unstable();
    if orig_chars != fresh_chars {
        return None;
    }
    let _ = reparsed;
    Some(text)
}

/// Whether the symbols on the trimmed automata of `q`'s unary atoms
/// cover `alphabet`. The rendering can only mention those symbols: a
/// regex's characters are the transition symbols of the trimmed NFA it
/// is rendered from (see [`nfa_to_regex`]), and no other part of the text
/// interns a character. So when they fall short, the fresh-alphabet
/// reparse below would too, and the answer is `None` before any
/// rendering or equivalence check is paid for.
fn regexes_cover(q: &Ecrpq, alphabet: &Alphabet) -> bool {
    let mut seen = vec![false; alphabet.len()];
    let unary = q
        .rel_atoms()
        .iter()
        .filter(|a| a.rel.arity() == 1 && a.args.len() == 1);
    for atom in unary {
        for row in atom.rel.nfa().trim().symbols_used() {
            for t in row {
                match t {
                    Track::Sym(s) if (s as usize) < seen.len() => seen[s as usize] = true,
                    _ => {}
                }
            }
        }
    }
    seen.iter().all(|&b| b)
}

/// Converts a unary relation to a regex string and verifies the
/// conversion by recompiling and checking two-way language inclusion.
fn unary_regex(rel: &SyncRel, alphabet: &Alphabet, state_budget: usize) -> Option<String> {
    if rel.num_states() > state_budget {
        return None; // determinization below could blow up; refuse
    }
    // Canonicalize first: `minimized` yields the unique minimal DFA of
    // the language, so equal languages render to the same regex text and
    // `unparse` is textually idempotent.
    let canon = rel.minimized();
    let rows = canon.nfa();
    if rows.is_empty() {
        return None; // the empty language has no honest regex in the grammar
    }
    let mut nfa: Nfa<ecrpq_automata::Symbol> = Nfa::with_states(rows.num_states());
    for &i in rows.initial_states() {
        nfa.set_initial(i);
    }
    for f in rows.final_states() {
        nfa.set_final(f);
    }
    for from in 0..rows.num_states() as u32 {
        for (row, to) in rows.transitions_from(from) {
            match row.as_slice() {
                [Track::Sym(s)] => nfa.add_transition(from, *s, *to),
                _ => return None, // a valid arity-1 relation has no ⊥ rows
            }
        }
        for &to in rows.epsilon_from(from) {
            nfa.add_epsilon(from, to);
        }
    }
    let regex = nfa_to_regex(&nfa.remove_epsilon().trim(), alphabet);
    let text = regex.to_string();
    let mut scratch = alphabet.clone();
    let compiled = Regex::compile_str(&text, &mut scratch).ok()?;
    if scratch.len() != alphabet.len() {
        return None; // the rendering invented symbols; never trust it
    }
    let lang = relations::language(&compiled, alphabet.len());
    if !verified_equivalent(&lang, rel, state_budget) {
        return None;
    }
    Some(text)
}

/// Two-way inclusion under a state budget; oversized checks are refused.
fn verified_equivalent(a: &SyncRel, b: &SyncRel, state_budget: usize) -> bool {
    a.arity() == b.arity()
        && a.num_symbols() == b.num_symbols()
        && a.num_states() <= state_budget
        && b.num_states() <= state_budget
        && a.equivalent(b)
}

/// Variable identifiers accepted by the parser: nonempty, alphanumeric
/// plus `_` and `'`, not starting with a digit or prime.
fn ident_ok(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' => {}
        _ => return false,
    }
    name.chars()
        .all(|c| c.is_alphanumeric() || c == '_' || c == '\'')
}

/// Relation-name tokens additionally allow `<`, `>`, `=` (bounded
/// families like `eq_len>=1`).
fn rel_name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.chars().all(|c| {
            c.is_alphanumeric() || c == '_' || c == '<' || c == '>' || c == '=' || c == '\''
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn parsed(src: &str) -> (Ecrpq, Alphabet) {
        let mut alphabet = Alphabet::new();
        let q = parse_query(src, &mut alphabet, &RelationRegistry::new()).unwrap();
        (q, alphabet)
    }

    fn roundtrip(src: &str) {
        let (q, _) = parsed(src);
        let text = unparse(&q, 64).unwrap_or_else(|| panic!("unparse failed for {src:?}"));
        let (q2, _) = parsed(&text);
        assert_eq!(
            q.free_vars().len(),
            q2.free_vars().len(),
            "{src:?} → {text:?}"
        );
        assert_eq!(q.num_path_vars(), q2.num_path_vars(), "{src:?} → {text:?}");
        assert_eq!(
            q.rel_atoms().len(),
            q2.rel_atoms().len(),
            "{src:?} → {text:?}"
        );
        // idempotence: unparse(parse(unparse(q))) is stable
        let text2 = unparse(&q2, 64).unwrap_or_else(|| panic!("re-unparse failed for {text:?}"));
        assert_eq!(text, text2);
    }

    #[test]
    fn roundtrips_membership_and_builtins() {
        roundtrip("q(x) :- x -[p]-> y, p in a*b");
        roundtrip("x -[p]-> y, y -[r]-> z, eq_len(p, r)");
        roundtrip("q(x, y) :- x -[p]-> y, x -[r]-> y, eq(p, r)");
        roundtrip("x -[p]-> y, p in (a|b)*, eq_len>=1(p, r), y -[r]-> z");
    }

    #[test]
    fn permuted_interning_order_roundtrips() {
        // `b` is interned before `a` here, and the NFA→regex rendering
        // is free to mention them in the opposite order on reparse.
        // That permutes symbol ids, not char-level semantics, so the
        // roundtrip must still succeed.
        roundtrip("x -[p]-> y, p in b*a");
        roundtrip("x -[p]-> y, p in (ba)*, y -[r]-> z, r in a*b*");
    }

    #[test]
    fn unknown_relation_name_is_refused() {
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p = q.path_atom(x, "p", y);
        let r = q.path_atom(y, "r", x);
        q.rel_atom("mystery", Arc::new(relations::eq_length(2, 2)), &[p, r]);
        assert_eq!(unparse(&q, 64), None);
    }

    #[test]
    fn misnamed_builtin_is_refused() {
        // an atom *named* `eq` whose relation is not equality must not
        // unparse — the text would silently change the query
        let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
        let x = q.node_var("x");
        let y = q.node_var("y");
        let p = q.path_atom(x, "p", y);
        let r = q.path_atom(y, "r", x);
        q.rel_atom("eq", Arc::new(relations::eq_length(2, 2)), &[p, r]);
        assert_eq!(unparse(&q, 64), None);
    }

    #[test]
    fn alphabet_coverage_is_enforced() {
        // the query's alphabet is {a, b} but the only regex uses `a`: a
        // fresh-alphabet reparse would lose `b`, so unparse refuses
        let mut alphabet = Alphabet::ascii_lower(2);
        let mut q = Ecrpq::new(alphabet.clone());
        let x = q.node_var("x");
        let y = q.node_var("y");
        let lang = Regex::compile_str("a*", &mut alphabet).unwrap();
        q.crpq_atom(x, &lang, "a*", y);
        assert_eq!(unparse(&q, 64), None);
    }
}
