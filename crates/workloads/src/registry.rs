//! Generator dispatch by name: the declarative face of this crate.
//!
//! The experiment harness (`ecrpq-bench::harness`) reads workload
//! descriptions out of `experiments/*.toml` specs — a generator name plus
//! a flat string map of parameters — and resolves them here. Every
//! generator is deterministic in its `seed` parameter, so a spec pins a
//! workload bit-for-bit and a cached trial result stays valid forever.
//!
//! Parameters arrive as strings (the spec layer's canonical value
//! rendering) and are parsed on demand; unknown generator names and
//! missing or malformed parameters are reported as `Err(String)` so the
//! harness can surface them with the spec path attached.

use crate::graphs::{
    planted_acyclic_instance, planted_power_law_instance, planted_regime_shift_instance, random_db,
};
use crate::queries::{big_component_query, clique_query, tractable_chain_query};
use ecrpq_automata::Alphabet;
use ecrpq_graph::{GraphDb, NodeId};
use ecrpq_query::{Ecrpq, NodeVar};
use std::collections::{BTreeMap, BTreeSet};

/// Generator names [`generate`] dispatches on, for error messages and
/// exhaustiveness tests.
pub const GENERATOR_NAMES: &[&str] = &[
    "random",
    "planted_power_law",
    "planted_acyclic",
    "planted_regime_shift",
    "big_component_random",
    "tractable_chain_random",
    "clique_random",
];

/// A generated workload: always a database, usually a query, and a
/// planted ground-truth answer set when the generator knows one.
pub struct Generated {
    /// The graph database (not yet frozen — callers freeze before timing).
    pub db: GraphDb,
    /// The query, for generators that produce one.
    pub query: Option<Ecrpq>,
    /// Planted expected answers, for generators that control them.
    pub expected: Option<BTreeSet<Vec<NodeId>>>,
}

/// String-keyed generator parameters (the spec layer's canonical value
/// renderings: integers as digits, floats with a decimal point).
pub type GenParams = BTreeMap<String, String>;

fn param<'p>(params: &'p GenParams, key: &str) -> Result<&'p str, String> {
    params
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("generator parameter `{key}` is missing"))
}

fn usize_param(params: &GenParams, key: &str) -> Result<usize, String> {
    param(params, key)?
        .parse()
        .map_err(|e| format!("generator parameter `{key}` is not an integer: {e}"))
}

fn u64_param(params: &GenParams, key: &str) -> Result<u64, String> {
    param(params, key)?
        .parse()
        .map_err(|e| format!("generator parameter `{key}` is not a u64: {e}"))
}

fn f64_param(params: &GenParams, key: &str) -> Result<f64, String> {
    param(params, key)?
        .parse()
        .map_err(|e| format!("generator parameter `{key}` is not a number: {e}"))
}

/// Frees the first `free` node variables of `q` (`0` leaves the query's
/// own free tuple untouched).
fn set_free_prefix(q: &mut Ecrpq, free: usize) {
    if free > 0 {
        let vars: Vec<NodeVar> = (0..free as u32).map(NodeVar).collect();
        q.set_free(&vars);
    }
}

/// Builds the workload named `name` from `params`. See
/// [`GENERATOR_NAMES`] for the dispatch table; each arm documents its
/// required parameters.
pub fn generate(name: &str, params: &GenParams) -> Result<Generated, String> {
    match name {
        // nodes, avg_degree, labels, seed — database only
        "random" => Ok(Generated {
            db: random_db(
                usize_param(params, "nodes")?,
                f64_param(params, "avg_degree")?,
                usize_param(params, "labels")?,
                u64_param(params, "seed")?,
            ),
            query: None,
            expected: None,
        }),
        // nodes, sources, seed — E19's reachability instance; the planted
        // answers are the source vertices as 1-tuples
        "planted_power_law" => {
            let sources = usize_param(params, "sources")?;
            let (db, q, srcs) = planted_power_law_instance(
                usize_param(params, "nodes")?,
                sources,
                u64_param(params, "seed")?,
            );
            let expected: BTreeSet<Vec<NodeId>> = srcs.into_iter().map(|s| vec![s]).collect();
            Ok(Generated {
                db,
                query: Some(q),
                expected: Some(expected),
            })
        }
        // nodes, k, seed — E20's acyclic low-output instance
        "planted_acyclic" => {
            let (db, q, expected) = planted_acyclic_instance(
                usize_param(params, "nodes")?,
                usize_param(params, "k")?,
                u64_param(params, "seed")?,
            );
            Ok(Generated {
                db,
                query: Some(q),
                expected: Some(expected),
            })
        }
        // nodes, seed — E21's NP→PTIME K4-chord instance
        "planted_regime_shift" => {
            let (db, q, expected) = planted_regime_shift_instance(
                usize_param(params, "nodes")?,
                u64_param(params, "seed")?,
            );
            Ok(Generated {
                db,
                query: Some(q),
                expected: Some(expected),
            })
        }
        // r, labels, nodes, avg_degree, seed [, free] — the PSPACE-regime
        // big-component query over a random database (E17/E18)
        "big_component_random" => {
            let labels = usize_param(params, "labels")?;
            let mut q = big_component_query(usize_param(params, "r")?, labels);
            let free = params.get("free").map_or(Ok(2usize), |s| {
                s.parse()
                    .map_err(|e| format!("generator parameter `free`: {e}"))
            })?;
            set_free_prefix(&mut q, free);
            Ok(Generated {
                db: random_db(
                    usize_param(params, "nodes")?,
                    f64_param(params, "avg_degree")?,
                    labels,
                    u64_param(params, "seed")?,
                ),
                query: Some(q),
                expected: None,
            })
        }
        // len, labels, nodes, avg_degree, seed — the PTIME-regime chain
        // query over a random database (E18)
        "tractable_chain_random" => {
            let labels = usize_param(params, "labels")?;
            Ok(Generated {
                db: random_db(
                    usize_param(params, "nodes")?,
                    f64_param(params, "avg_degree")?,
                    labels,
                    u64_param(params, "seed")?,
                ),
                query: Some(tractable_chain_query(usize_param(params, "len")?, labels)),
                expected: None,
            })
        }
        // k, regex, labels, nodes, avg_degree, seed [, free] — the
        // NP-regime clique query over a random database (E18)
        "clique_random" => {
            let labels = usize_param(params, "labels")?;
            let mut alphabet = Alphabet::ascii_lower(labels);
            let mut q = clique_query(
                usize_param(params, "k")?,
                param(params, "regex")?,
                &mut alphabet,
            );
            let free = params.get("free").map_or(Ok(0usize), |s| {
                s.parse()
                    .map_err(|e| format!("generator parameter `free`: {e}"))
            })?;
            set_free_prefix(&mut q, free);
            Ok(Generated {
                db: random_db(
                    usize_param(params, "nodes")?,
                    f64_param(params, "avg_degree")?,
                    labels,
                    u64_param(params, "seed")?,
                ),
                query: Some(q),
                expected: None,
            })
        }
        other => Err(format!(
            "unknown workload generator `{other}` (known: {})",
            GENERATOR_NAMES.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(pairs: &[(&str, &str)]) -> GenParams {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn every_listed_generator_dispatches() {
        let cases: Vec<(&str, GenParams)> = vec![
            (
                "random",
                params(&[
                    ("nodes", "8"),
                    ("avg_degree", "1.5"),
                    ("labels", "2"),
                    ("seed", "7"),
                ]),
            ),
            (
                "planted_power_law",
                params(&[("nodes", "64"), ("sources", "2"), ("seed", "7")]),
            ),
            (
                "planted_acyclic",
                params(&[("nodes", "32"), ("k", "2"), ("seed", "7")]),
            ),
            (
                "planted_regime_shift",
                params(&[("nodes", "24"), ("seed", "7")]),
            ),
            (
                "big_component_random",
                params(&[
                    ("r", "2"),
                    ("labels", "2"),
                    ("nodes", "10"),
                    ("avg_degree", "1.5"),
                    ("seed", "7"),
                ]),
            ),
            (
                "tractable_chain_random",
                params(&[
                    ("len", "2"),
                    ("labels", "2"),
                    ("nodes", "10"),
                    ("avg_degree", "1.5"),
                    ("seed", "7"),
                ]),
            ),
            (
                "clique_random",
                params(&[
                    ("k", "3"),
                    ("regex", "a*"),
                    ("labels", "2"),
                    ("nodes", "10"),
                    ("avg_degree", "1.5"),
                    ("seed", "7"),
                    ("free", "1"),
                ]),
            ),
        ];
        assert_eq!(cases.len(), GENERATOR_NAMES.len());
        for (name, p) in cases {
            assert!(GENERATOR_NAMES.contains(&name), "{name} not listed");
            let g = generate(name, &p).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(g.db.num_nodes() > 0, "{name} built an empty db");
        }
    }

    #[test]
    fn unknown_generator_and_missing_param_error() {
        let e = generate("no_such_generator", &GenParams::new())
            .err()
            .expect("unknown name must fail");
        assert!(e.contains("unknown workload generator"), "{e}");
        let e = generate("planted_acyclic", &params(&[("nodes", "32")]))
            .err()
            .expect("missing param must fail");
        assert!(e.contains("`k`"), "{e}");
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let p = params(&[("nodes", "64"), ("sources", "2"), ("seed", "7")]);
        let a = generate("planted_power_law", &p).expect("generates");
        let b = generate("planted_power_law", &p).expect("generates");
        assert_eq!(a.db.num_nodes(), b.db.num_nodes());
        assert_eq!(a.db.num_edges(), b.db.num_edges());
        assert_eq!(a.expected, b.expected);
    }
}
