#![forbid(unsafe_code)]

//! `ecrpq` — facade crate for the reproduction of *“When is the Evaluation
//! of Extended CRPQ Tractable?”* (Figueira & Ramanathan, PODS 2022).
//!
//! Re-exports the workspace crates under stable module names. See
//! `README.md` for a tour and `examples/` for runnable entry points.
//!
//! # Example
//!
//! Example 2.1 of the paper, end to end:
//!
//! ```
//! use ecrpq::graph::parse_graph;
//! use ecrpq::query::{parse_query, RelationRegistry};
//! use ecrpq::eval::planner;
//!
//! let db = parse_graph("a1 -a-> m1\nm1 -a-> hub\nb1 -b-> m2\nm2 -b-> hub\n")?;
//! let mut alphabet = db.alphabet().clone();
//!
//! // vertices with equal-length paths to a common target
//! let q = parse_query(
//!     "q(x, x') :- x -[p1]-> y, x' -[p2]-> y, eq_len(p1, p2)",
//!     &mut alphabet,
//!     &RelationRegistry::new(),
//! )?;
//!
//! let plan = planner::plan(&db, &q);
//! assert_eq!(plan.combined.to_string(), "PTIME");
//!
//! let answers = planner::answers(&db, &q);
//! let (a1, b1) = (db.node("a1").unwrap(), db.node("b1").unwrap());
//! assert!(answers.contains(&vec![a1, b1])); // both reach hub in two steps
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Satisfiability (decidable for ECRPQ, §1 contrasts this with
//! CRPQ+Rational) with a canonical witness database:
//!
//! ```
//! use ecrpq::automata::{relations, Alphabet};
//! use ecrpq::query::Ecrpq;
//! use std::sync::Arc;
//!
//! let mut q = Ecrpq::new(Alphabet::ascii_lower(2));
//! let (x, y) = (q.node_var("x"), q.node_var("y"));
//! let p1 = q.path_atom(x, "p1", y);
//! let p2 = q.path_atom(x, "p2", y);
//! q.rel_atom("eq", Arc::new(relations::equality(2)), &[p1, p2]);
//! assert!(ecrpq::eval::satisfiable(&q)?.is_some());
//! # Ok::<(), ecrpq::query::QueryError>(())
//! ```
//!
//! Multi-threaded evaluation via the parallel [`eval::engine`]:
//!
//! ```
//! use ecrpq::eval::{engine, EvalOptions, NoopTracer, PreparedQuery, Termination};
//! use ecrpq::graph::parse_graph;
//! use ecrpq::query::{parse_query, RelationRegistry};
//!
//! let db = parse_graph("a1 -a-> m1\nm1 -a-> hub\nb1 -b-> m2\nm2 -b-> hub\n")?;
//! let mut alphabet = db.alphabet().clone();
//! let q = parse_query(
//!     "q(x, x') :- x -[p1]-> y, x' -[p2]-> y, eq_len(p1, p2)",
//!     &mut alphabet,
//!     &RelationRegistry::new(),
//! )?;
//! let prepared = PreparedQuery::build(&q)?;
//!
//! // threads = 0 means "use all available cores"; the default budget is
//! // unlimited, so the run completes and its answer set is bit-identical
//! // to the sequential evaluator's.
//! let par =
//!     engine::answers_product_governed_traced(&db, &prepared, &EvalOptions::default(), &NoopTracer);
//! assert_eq!(par.termination, Termination::Complete);
//! let seq = ecrpq::eval::product::answers_product(&db, &prepared);
//! assert_eq!(par.answers, seq);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Resource-governed evaluation
//!
//! ECRPQ evaluation is PSPACE-complete in combined complexity (Theorem
//! 3.2), so any engine that accepts untrusted queries needs a way to stop.
//! A [`eval::ResourceBudget`] carried in [`eval::EvalOptions`] bounds a
//! run by wall-clock deadline, total work (product configurations),
//! answer count, or tracked memory; every engine entry point checks
//! it cooperatively (amortized, every few thousand work units) across the
//! product search, semijoin pruning, CQ evaluation and all parallel
//! workers. Running out of budget is not an error: the
//! [`eval::Outcome`] carries the answers found so far (always a *subset*
//! of the full answer set — truncation never invents answers) and a
//! [`eval::Termination`] saying whether the run was complete. When it is
//! [`eval::Termination::Complete`], the answers are bit-identical to the
//! unbudgeted run's.
//!
//! ```
//! use ecrpq::eval::{planner, EvalOptions, ResourceBudget, Termination};
//! use ecrpq::graph::parse_graph;
//! use ecrpq::query::{parse_query, RelationRegistry};
//! use std::time::Duration;
//!
//! let db = parse_graph("a1 -a-> m1\nm1 -a-> hub\nb1 -b-> m2\nm2 -b-> hub\n")?;
//! let mut alphabet = db.alphabet().clone();
//! let q = parse_query(
//!     "q(x, x') :- x -[p1]-> y, x' -[p2]-> y, eq_len(p1, p2)",
//!     &mut alphabet,
//!     &RelationRegistry::new(),
//! )?;
//!
//! // a generous budget: this tiny query completes well inside it, so the
//! // governed answers equal the unbudgeted ones exactly
//! let opts = EvalOptions::sequential()
//!     .with_budget(ResourceBudget::unlimited().with_deadline(Duration::from_secs(5)));
//! let outcome = planner::answers_governed(&db, &q, &opts);
//! assert_eq!(outcome.termination, Termination::Complete);
//! assert_eq!(outcome.answers, planner::answers(&db, &q));
//!
//! // leaving the budget unlimited lets the planner pick a regime default
//! // (generous for PTIME-shaped queries, tight for PSPACE-shaped ones)
//! let plan = planner::plan(&db, &q);
//! assert!(plan.explain().contains("default budget"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Observability
//!
//! The evaluators are generic over a [`eval::Tracer`]: the default
//! [`eval::NoopTracer`] compiles the instrumentation away entirely
//! (`const ENABLED: bool = false`, so untraced runs pay nothing), while a
//! [`eval::CollectingTracer`] accumulates per-phase timers and counters —
//! configurations expanded, endpoints pruned, frontier peaks, governor
//! check-ins — across all workers, losslessly at any thread count.
//! [`eval::answers_traced`] is the convenience entry point: it runs the
//! planner's chosen strategy under a fresh `CollectingTracer` and folds
//! the counters into [`eval::Outcome::metrics`]. Tracing never changes
//! answers: traced and untraced runs are bit-identical.
//!
//! ```
//! use ecrpq::eval::{self, engine, render_phase_table, CollectingTracer};
//! use ecrpq::eval::{EvalOptions, Phase, PreparedQuery};
//! use ecrpq::graph::parse_graph;
//! use ecrpq::query::{parse_query, RelationRegistry};
//!
//! let db = parse_graph("a1 -a-> m1\nm1 -a-> hub\nb1 -b-> m2\nm2 -b-> hub\n")?;
//! let mut alphabet = db.alphabet().clone();
//! let q = parse_query(
//!     "q(x, x') :- x -[p1]-> y, x' -[p2]-> y, eq_len(p1, p2)",
//!     &mut alphabet,
//!     &RelationRegistry::new(),
//! )?;
//!
//! // explicit tracer: attach to any instrumented engine entry point
//! let prepared = PreparedQuery::build(&q)?;
//! let tracer = CollectingTracer::new();
//! let outcome =
//!     engine::answers_product_governed_traced(&db, &prepared, &EvalOptions::sequential(), &tracer);
//! let metrics = tracer.metrics();
//! assert_eq!(metrics.phase(Phase::ProductBfs).items, outcome.stats.configurations);
//! assert_eq!(outcome.answers, eval::product::answers_product(&db, &prepared));
//!
//! // or let the planner wire it up and render the per-phase table
//! let outcome = eval::answers_traced(&db, &q, &EvalOptions::sequential());
//! let table = render_phase_table(outcome.metrics.as_ref().expect("always Some"));
//! assert!(table.contains("product-bfs"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Query service
//!
//! A workload that replays a fixed set of queries should not re-parse,
//! re-analyze, re-minimize and re-compile them per request — that work
//! depends on the query text alone. [`eval::QueryService`] owns the
//! database and an interned cache of prepared plans keyed by the
//! canonical rendering of the query, so textual variants share one plan;
//! each execution still constructs its governor and deadline fresh, so a
//! budget-tripped run never poisons the next one. [`eval::Session`]s
//! layer per-client budget envelopes (with admission control) over the
//! shared cache, and [`eval::QueryService::stats`] exposes hit/miss
//! counts, latency quantiles and folded phase metrics.
//!
//! ```
//! use ecrpq::eval::{EvalOptions, QueryService, SessionBudget};
//! use ecrpq::graph::parse_graph;
//!
//! let db = parse_graph("a1 -a-> m1\nm1 -a-> hub\nb1 -b-> m2\nm2 -b-> hub\n")?;
//! let service = QueryService::new(db);
//! let text = "q(x, y) :- x -[p]-> y, p in a|b";
//!
//! // first request compiles and interns the plan; the replay hits it,
//! // answers bit-identical
//! let cold = service.execute(text, &EvalOptions::sequential())?;
//! let warm = service.execute(text, &EvalOptions::sequential())?;
//! assert!(!cold.cached && warm.cached);
//! assert!(warm.termination.is_complete());
//! assert_eq!(warm.answers, cold.answers);
//!
//! // whitespace variants converge on one interned plan: a new spelling's
//! // first request still parses (to discover the canonical key) but shares
//! // the compiled plan, and its replay is a pure cache hit
//! let alias_text = "q(x,y) :- x -[p]-> y, p in a|b";
//! let alias = service.execute(alias_text, &EvalOptions::sequential())?;
//! assert!(std::sync::Arc::ptr_eq(&alias.plan, &warm.plan));
//! assert!(service.execute(alias_text, &EvalOptions::sequential())?.cached);
//! assert_eq!(service.stats().cached_plans, 1);
//!
//! // sessions meter work without touching the shared cache
//! let session = service.session(SessionBudget::unlimited().with_max_total_configurations(50_000));
//! let r = session.execute(text, &EvalOptions::sequential())?;
//! assert!(r.termination.is_complete());
//! assert!(session.remaining_configurations() <= Some(50_000));
//! assert_eq!(session.executed(), 1);
//! assert_eq!(service.stats().cache_misses, 2); // the two distinct spellings
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use ecrpq_analyze as analyze;
pub use ecrpq_automata as automata;
pub use ecrpq_core as eval;
pub use ecrpq_graph as graph;
pub use ecrpq_query as query;
pub use ecrpq_reductions as reductions;
pub use ecrpq_structure as structure;
pub use ecrpq_workloads as workloads;
