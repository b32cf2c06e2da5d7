//! Differential testing of the query service: answers served from a
//! cached [`PreparedPlan`] must be bit-identical to a fresh
//! `planner::answers` evaluation of the same text — across
//! thread counts and repeated executions — and per-execution governor
//! state (stop flags, deadlines) must never leak between runs or between
//! sessions sharing the plan cache.

use ecrpq::eval::planner;
use ecrpq::eval::{
    EvalOptions, PreparedQuery, QueryService, ResourceBudget, ServerError, SessionBudget, Strategy,
};
use ecrpq::graph::GraphDb;
use ecrpq::query::{parse_query, RelationRegistry};
use ecrpq::workloads::random_db;
use std::collections::BTreeSet;
use std::time::Duration;

/// The differential corpus: finite path languages keep every governed
/// search small at the sizes below, while the query shapes cover the
/// strategy space — tree-decomposition, direct product (the eq-length
/// triple), and the acyclic planner path once the node count pushes the
/// 2-variable queries past the tuple budget.
const CORPUS: &[&str] = &[
    "q(x, y) :- x -[p]-> y, p in a*b",
    "q(x, y) :- x -[p]-> y, p in (a|b)(a|b)a",
    "q(x, z) :- x -[p1]-> y, x -[p2]-> y, y -[r]-> z, eq_len(p1, p2), p1 in b|(a|b)(a|b)b, r in b",
    "q(x) :- x -[p0]-> y, x -[p1]-> y, x -[p2]-> y, eq_len(p0, p1, p2), \
     p0 in a|aaa, p1 in a|aab, p2 in a|ab(a|b)",
];

/// A generous but finite budget: enough for every corpus query to run to
/// completion at the sizes used here, while keeping the request on the
/// governed code path (an unlimited request budget would be replaced by
/// the plan's regime default inside the service).
fn generous() -> ResourceBudget {
    ResourceBudget::unlimited().with_max_configurations(2_000_000_000)
}

/// Reference evaluation: parse against the database's alphabet and run
/// the ungoverned planner entry point.
fn reference(db: &GraphDb, text: &str) -> BTreeSet<Vec<ecrpq::graph::NodeId>> {
    let mut alphabet = db.alphabet().clone();
    let registry = RelationRegistry::new();
    let q = parse_query(text, &mut alphabet, &registry).expect("corpus query parses");
    planner::answers(db, &q)
}

/// Cached-plan answers are bit-identical to the fresh planner evaluation
/// across 1/2/4 threads and repeated executions of the same interned
/// plan.
#[test]
fn cached_plan_matches_planner_across_threads() {
    let db = random_db(60, 1.5, 2, 0xD1FF);
    db.freeze();
    let service = QueryService::new(db.clone());
    for text in CORPUS {
        let expected = reference(&db, text);
        let mut first = true;
        for threads in [1usize, 2, 4] {
            let opts = EvalOptions::with_threads(threads).with_budget(generous());
            for round in 0..3 {
                let r = service.execute(text, &opts).expect("request admitted");
                assert!(
                    r.termination.is_complete(),
                    "{text} t={threads} round {round}: {:?}",
                    r.termination
                );
                assert_eq!(r.answers, expected, "{text} t={threads} round {round}");
                assert_eq!(r.cached, !first, "{text}: only the first request misses");
                first = false;
            }
        }
    }
    let stats = service.stats();
    assert_eq!(stats.requests, (CORPUS.len() * 3 * 3) as u64);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.requests);
    assert_eq!(stats.cache_misses, CORPUS.len() as u64);
    assert_eq!(stats.cached_plans, CORPUS.len());
}

/// Past the planner's tuple budget the 2-variable queries leave the
/// tree-decomposition path, so the cached plans pin the large-database
/// strategies — and their answers still match the planner bit for bit.
#[test]
fn cached_plan_matches_planner_past_the_tuple_budget() {
    let db = random_db(120, 1.5, 2, 0xBEEF);
    db.freeze();
    let service = QueryService::new(db.clone());
    let mut strategies = BTreeSet::new();
    for text in CORPUS {
        let expected = reference(&db, text);
        let opts = EvalOptions::sequential().with_budget(generous());
        for _ in 0..2 {
            let r = service.execute(text, &opts).expect("request admitted");
            assert!(r.termination.is_complete(), "{text}: {:?}", r.termination);
            assert_eq!(r.answers, expected, "{text}");
            strategies.insert(format!("{:?}", r.plan.strategy));
        }
    }
    // the corpus must actually exercise the large-database strategies at
    // this size — a regression to CqTreedec-for-everything would hollow
    // out this suite
    assert!(
        strategies.contains("DirectProduct"),
        "no corpus query routed to DirectProduct at n=120: {strategies:?}"
    );
}

/// The central PR-9 regression: a governed run that trips its stop flag
/// or expires its deadline must not poison the cached plan — the next
/// execution of the *same* interned plan constructs fresh governor state
/// and runs to completion.
#[test]
fn tripped_governor_state_does_not_leak_into_cached_plan() {
    let db = random_db(60, 1.5, 2, 0xD1FF);
    db.freeze();
    let service = QueryService::new(db.clone());
    let text = CORPUS[3]; // the eq-length triple does real search work
    let expected = reference(&db, text);

    // prime the cache with a complete run
    let clean = EvalOptions::sequential().with_budget(generous());
    let r = service.execute(text, &clean).expect("prime");
    assert!(r.termination.is_complete());
    assert_eq!(r.answers, expected);

    // trip the configuration budget on the cached plan
    let tight = EvalOptions::sequential()
        .with_budget(ResourceBudget::unlimited().with_max_configurations(1));
    let r = service.execute(text, &tight).expect("admitted");
    assert!(r.cached, "second request must hit the cache");
    assert!(
        !r.termination.is_complete(),
        "a 1-configuration budget cannot complete the triple"
    );

    // expire a deadline on the cached plan
    let expired = EvalOptions::sequential()
        .with_budget(ResourceBudget::unlimited().with_deadline(Duration::ZERO));
    let r = service.execute(text, &expired).expect("admitted");
    assert!(
        !r.termination.is_complete(),
        "a zero deadline cannot complete"
    );

    // the same cached plan, governed afresh, completes with full answers —
    // repeatedly, so no run inherits the previous run's tripped state
    for round in 0..3 {
        let r = service.execute(text, &clean).expect("admitted");
        assert!(r.cached);
        assert!(
            r.termination.is_complete(),
            "round {round} after tripped runs: {:?}",
            r.termination
        );
        assert_eq!(r.answers, expected, "round {round}");
    }
}

/// Concurrent sessions over one shared service: a work-capped session is
/// eventually refused at admission with its pool at exactly zero, while
/// unmetered sessions running concurrently stay complete and bit-identical
/// to the planner — session budgets never bleed across sessions, and the
/// capped session's tripped governors never poison the shared plans.
#[test]
fn concurrent_sessions_respect_budgets_without_cross_session_bleed() {
    let db = random_db(60, 1.5, 2, 0xD1FF);
    db.freeze();
    let service = QueryService::new(db.clone());
    let expected: Vec<_> = CORPUS.iter().map(|t| reference(&db, t)).collect();
    let opts = EvalOptions::sequential().with_budget(generous());

    const SESSIONS: usize = 3;
    const RUNS: usize = 4;
    let capped = service.session(SessionBudget::unlimited().with_max_total_configurations(50));
    std::thread::scope(|s| {
        for worker in 0..SESSIONS {
            let (service, opts, expected) = (&service, &opts, &expected);
            s.spawn(move || {
                let session = service.session(SessionBudget::unlimited());
                for round in 0..RUNS {
                    for (i, text) in CORPUS.iter().enumerate() {
                        let r = session.execute(text, opts).expect("unmetered admission");
                        assert!(
                            r.termination.is_complete(),
                            "session {worker} round {round} {text}: {:?}",
                            r.termination
                        );
                        assert_eq!(r.answers, expected[i], "session {worker} {text}");
                    }
                }
                assert_eq!(session.executed(), (RUNS * CORPUS.len()) as u64);
                assert_eq!(session.remaining_configurations(), None);
            });
        }
        s.spawn(|| {
            // drain the capped session's pool on the most expensive query;
            // every run is admission-checked, charged with metered work,
            // and the pool must land on exactly zero before refusal
            let text = CORPUS[3];
            let mut refused = false;
            for _ in 0..64 {
                match capped.execute(text, &opts) {
                    Ok(r) => assert!(r.stats.configurations > 0, "work must be metered"),
                    Err(ServerError::SessionExhausted) => {
                        refused = true;
                        break;
                    }
                    Err(e) => panic!("unexpected refusal: {e}"),
                }
            }
            assert!(refused, "a 50-configuration pool must exhaust");
            assert_eq!(capped.remaining_configurations(), Some(0));
        });
    });

    // the shared cache served every session from one set of interned
    // plans, and the exhausted session left them fully usable
    assert_eq!(service.stats().cached_plans, CORPUS.len());
    let after = service
        .execute(CORPUS[3], &opts)
        .expect("service-level request after session exhaustion");
    assert!(after.cached);
    assert!(after.termination.is_complete());
    assert_eq!(after.answers, expected[3]);
}

/// `Strategy` routing sanity for the small database: the eq-length triple
/// is the direct-product representative there, and its plan reports the
/// PSPACE budget regime (three tracks in one synchronous component).
#[test]
fn small_db_plans_report_strategy_and_regime() {
    let db = random_db(60, 1.5, 2, 0xD1FF);
    db.freeze();
    let service = QueryService::new(db.clone());
    let (plan, _) = service.prepare(CORPUS[3]).expect("triple prepares");
    assert!(matches!(plan.strategy, Strategy::DirectProduct));
    assert_eq!(format!("{:?}", plan.combined), "PspaceComplete");
}

/// Every E22 corpus text and every `queries/*.ecrpq` line.
fn served_texts() -> Vec<String> {
    let mut texts: Vec<String> = ecrpq_bench::harness::trial::server_corpus()
        .into_iter()
        .map(|(_, _, text)| text.to_string())
        .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("queries");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("queries/ is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "ecrpq"))
        .collect();
    files.sort();
    for file in files {
        let source = std::fs::read_to_string(&file).expect("query file is readable");
        texts.extend(
            source
                .lines()
                .map(str::trim)
                .filter(|line| !line.is_empty() && !line.starts_with('#'))
                .map(str::to_string),
        );
    }
    texts
}

/// `planner::plan` and the service's cached plan come out of one compile
/// step, so they agree on everything `Plan::explain` reports — strategy,
/// measures, default budget and join-tree arcs — for every served text,
/// on a graph small enough for the CQ pipeline and on one past the tuple
/// budget.
#[test]
fn planner_plan_agrees_with_prepared_plan() {
    let texts = served_texts();
    assert!(texts.len() >= 12, "corpus shrank to {} texts", texts.len());
    for nodes in [60usize, 20_000] {
        let service = QueryService::new(random_db(nodes, 1.5, 2, 0xA9EE));
        let db = service.db();
        let mut cq_plans = 0;
        for text in &texts {
            let mut alphabet = db.alphabet().clone();
            let q = parse_query(text, &mut alphabet, &RelationRegistry::new()).expect("parses");
            let plan = planner::plan(db, &q);
            let (prepared, _) = service.prepare(text).expect("prepares");
            let at = format!("{nodes} nodes: {text}");
            assert_eq!(plan.strategy, prepared.strategy, "{at}");
            assert_eq!(plan.measures, prepared.measures, "{at}");
            assert_eq!(plan.default_budget, prepared.default_budget, "{at}");
            let tree = plan.prepared.as_ref().and_then(PreparedQuery::join_tree);
            assert_eq!(tree, prepared.join_tree(), "{at}");
            if plan.strategy == Strategy::CqTreedec {
                cq_plans += 1;
            }
        }
        // the small graph exercises the CQ pipeline, the large one only
        // the Yannakakis and direct-product strategies
        if nodes == 60 {
            assert!(cq_plans > 0, "no CQ plan on the small graph");
        } else {
            assert_eq!(cq_plans, 0, "{nodes} nodes");
        }
    }
}

/// The served-request benchmark's traced run labels each plan itself:
/// `Yannakakis` when `acyclic_join_tree` of the minimized, optimized query
/// spans at least two merged atoms. The service labels by the compiled
/// query's join tree, so on every served text, on random queries and on
/// their optimized forms the two must be the same tree.
#[test]
fn compiled_join_tree_matches_the_acyclicity_test() {
    use ecrpq::analyze::{acyclic_join_tree, analyze, minimize};
    use ecrpq::eval::{optimize, Simplified};
    use ecrpq::query::{Ecrpq, NodeVar};
    // `q` and its optimized form compile to the benchmark's tree; returns
    // whether `q` has one
    let check = |label: &str, q: &Ecrpq| {
        let same_tree = |form: &Ecrpq| {
            let expected = acyclic_join_tree(form).filter(|t| t.parent.len() >= 2);
            let compiled = PreparedQuery::build(form).expect("valid");
            assert_eq!(compiled.join_tree(), expected.as_ref(), "{label}");
            expected.is_some()
        };
        if !analyze(q).has_errors() {
            // the minimizer returns its input when no step applies
            if let Ok(Simplified::Query(optimized)) = optimize(&minimize(q).query) {
                same_tree(&optimized);
            }
        }
        same_tree(q)
    };
    let db = random_db(8, 1.5, 2, 0x7EE);
    let served = served_texts().into_iter().filter(|text| {
        let mut alphabet = db.alphabet().clone();
        let q = parse_query(text, &mut alphabet, &RelationRegistry::new()).expect("parses");
        check(text, &q)
    });
    assert!(served.count() > 0, "no served text has a join tree");
    let params = ecrpq::workloads::RandomQueryParams {
        node_vars: 4,
        path_atoms: 3,
        rel_atoms: 3,
        max_arity: 2,
        num_symbols: 2,
    };
    for seed in 0..200u64 {
        let mut q = ecrpq::workloads::random_ecrpq(&params, seed);
        q.set_free(&[NodeVar(0)]);
        check(&format!("random seed {seed}"), &q);
    }
}

/// The canonical cache key needs regexes that use every database symbol.
/// `planted_acyclic_instance`'s database has the alphabet `{a, b, c, d}`
/// and its query reads `aa*` and `bb*d`, so `unparse` has no rendering
/// and the service keys the plan by its trimmed text. Mentioning `c`
/// brings a canonical rendering back.
#[test]
fn plans_over_an_uncovered_alphabet_key_by_text() {
    let (db, planted, _) = ecrpq::workloads::planted_acyclic_instance(64, 4, 1);
    assert_eq!(db.alphabet().len(), 4);
    assert_eq!(ecrpq::query::unparse(&planted, 64), None);
    let service = QueryService::new(db.clone());
    let uncovered = "q(x, z) :- x -[p]-> y, y -[r]-> z, p in aa*, r in bb*d";
    let (plan, _) = service.prepare(uncovered).expect("prepares");
    assert_eq!(plan.key, uncovered);
    let covered = "q(x, z) :- x -[p]-> y,  y -[r]-> z, p in a(a|c)*, r in bb*d";
    let mut alphabet = db.alphabet().clone();
    let q = parse_query(covered, &mut alphabet, &RelationRegistry::new()).expect("parses");
    let rendering = ecrpq::query::unparse(&q, 64).expect("covers the alphabet");
    let (plan, _) = service.prepare(covered).expect("prepares");
    assert_eq!(plan.key, rendering);
}

/// A warm execution of a cached CqTreedec plan only walks the reduced
/// instance the first execution built: it populates no bag (zero
/// `treedec-bags` items), completes, and returns the first execution's
/// answers — at one thread and at several.
#[test]
fn warm_treedec_execution_populates_no_bag() {
    use ecrpq::eval::Phase;
    let db = random_db(60, 1.5, 2, 0xD1FF);
    db.freeze();
    let service = QueryService::new(db.clone());
    for text in &CORPUS[..2] {
        let opts = EvalOptions::sequential().with_budget(generous());
        let first = service.execute(text, &opts).expect("cold");
        assert_eq!(first.plan.strategy, Strategy::CqTreedec, "{text}");
        assert!(first.termination.is_complete());
        assert_eq!(first.answers, reference(&db, text), "{text}");
        assert!(first.metrics.phase(Phase::TreedecBags).items > 0, "{text}");
        for threads in [1usize, 2] {
            let opts = EvalOptions::with_threads(threads).with_budget(generous());
            let warm = service.execute(text, &opts).expect("warm");
            assert!(warm.cached);
            assert_eq!(warm.metrics.phase(Phase::TreedecBags).items, 0, "{text}");
            assert!(warm.termination.is_complete(), "{text}");
            assert_eq!(warm.answers, first.answers, "{text}");
        }
    }
}
