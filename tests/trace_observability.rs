//! Golden tests for the observability renders, plus trace determinism.
//!
//! The phase table and `Plan::explain_traced` are rendered from a
//! synthetic `Metrics` (fixed nanos, so times are stable) and from a
//! real single-threaded run with the times zeroed out (counters on a
//! fixed query + graph are deterministic). Bless with `UPDATE_GOLDEN=1`.

use ecrpq::eval::planner::plan;
use ecrpq::eval::{
    answers_traced, engine, render_phase_table, CollectingTracer, EvalOptions, Metrics, Phase,
    PreparedQuery,
};
use ecrpq::query::{parse_query, RelationRegistry};
use ecrpq::workloads::{random_db, tractable_chain_query};
use std::path::PathBuf;

mod common;

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "render diverges from {name}; bless with UPDATE_GOLDEN=1 if intended"
    );
}

/// A fully synthetic metrics value exercising every column: sub-µs and
/// multi-ms times, zero rows, and non-zero governor/sampling counters.
fn synthetic_metrics() -> Metrics {
    let mut m = Metrics::default();
    {
        let p = m.phase_mut(Phase::Prepare);
        p.nanos = 750;
        p.items = 12;
    }
    {
        let p = m.phase_mut(Phase::Semijoin);
        p.nanos = 48_000;
        p.items = 4_096;
        p.pruned = 37;
        p.governor_checks = 1;
    }
    {
        let p = m.phase_mut(Phase::ProductBfs);
        p.nanos = 7_400_000;
        p.items = 123_456;
        p.frontier_peak = 512;
        p.governor_checks = 30;
        p.governor_aborts = 1;
        p.samples = 30;
    }
    {
        let p = m.phase_mut(Phase::Odometer);
        p.nanos = 2_100_000;
        p.items = 999;
        p.governor_checks = 4;
    }
    m
}

#[test]
fn golden_phase_table_render() {
    check_golden(
        "trace_phase_table.txt",
        &render_phase_table(&synthetic_metrics()),
    );
}

#[test]
fn golden_plan_explain_traced() {
    // a deterministic PTIME-regime plan; explain() carries no times
    let q = tractable_chain_query(3, 2);
    let db = random_db(8, 1.5, 2, 5);
    let p = plan(&db, &q);
    check_golden(
        "trace_plan_explain.txt",
        &p.explain_traced(&synthetic_metrics()),
    );
}

/// The table `analyze --trace` prints, reproduced from the library API
/// on a fixed query + graph with the wall-times zeroed (counter values
/// at one thread are deterministic, times are not).
#[test]
fn golden_analyze_trace_counters() {
    let db = random_db(10, 1.5, 2, 11);
    let mut alphabet = db.alphabet().clone();
    let q = parse_query(
        "q(x, y) :- x -[p]-> y, y -[r]-> x, eq_len(p, r)",
        &mut alphabet,
        &RelationRegistry::new(),
    )
    .unwrap();
    let outcome = answers_traced(&db, &q, &EvalOptions::sequential());
    assert!(outcome.termination.is_complete());
    let mut m = outcome.metrics.expect("answers_traced folds metrics");
    for phase in Phase::ALL {
        m.phase_mut(phase).nanos = 0;
    }
    let render = format!(
        "{} answer(s)\n{}",
        outcome.answers.len(),
        render_phase_table(&m)
    );
    check_golden("trace_analyze_counters.txt", &render);
}

/// Same query + graph ⇒ identical counters at one thread: the collecting
/// tracer introduces no nondeterminism of its own.
#[test]
fn single_thread_trace_is_deterministic() {
    let db = random_db(12, 1.8, 2, 23);
    let mut alphabet = db.alphabet().clone();
    let q = parse_query(
        "q(x, y) :- x -[p]-> y, x -[r]-> y, eq(p, r), p in (a|b)*",
        &mut alphabet,
        &RelationRegistry::new(),
    )
    .unwrap();
    let run = || {
        let o = answers_traced(&db, &q, &EvalOptions::sequential());
        let mut m = o.metrics.expect("metrics");
        for phase in Phase::ALL {
            m.phase_mut(phase).nanos = 0; // times vary; counters must not
        }
        (o.answers, m)
    };
    let (a1, m1) = run();
    let (a2, m2) = run();
    assert_eq!(a1, a2, "answers must be deterministic");
    assert_eq!(m1, m2, "counters must be deterministic at one thread");
}

/// A collecting tracer attached to a parallel run never changes the
/// answers — at any thread count.
#[test]
fn tracer_never_changes_answers() {
    use ecrpq::eval::engine;
    use ecrpq::eval::PreparedQuery;
    use ecrpq::query::NodeVar;
    use ecrpq::workloads::{env_seed, random_ecrpq, RandomQueryParams};
    let base = env_seed(0);
    let params = RandomQueryParams {
        node_vars: 3,
        path_atoms: 3,
        rel_atoms: 2,
        max_arity: 2,
        num_symbols: 2,
    };
    for case in 0..5u64 {
        let seed = base + case;
        let mut q = random_ecrpq(&params, seed + 9900);
        q.set_free(&[NodeVar(0), NodeVar(1)]);
        let db = random_db(10, 1.8, 2, seed * 37 + 3);
        let prepared = PreparedQuery::build(&q).unwrap();
        let baseline = common::product_answers(&db, &prepared, &EvalOptions::sequential());
        for threads in [1usize, 2, 4] {
            let tracer = CollectingTracer::new();
            let (traced, _) = common::complete(engine::answers_product_governed_traced(
                &db,
                &prepared,
                &EvalOptions::with_threads(threads),
                &tracer,
            ));
            assert_eq!(
                traced, baseline,
                "seed {seed}, {threads} thread(s): tracer changed the answers"
            );
        }
    }
}

/// Sweep pops (`yanna-up` + `yanna-down` items) of the Yannakakis program
/// on `planted_acyclic_instance(20_000, 32, 1)` when every track swept
/// both ways in both passes, each sweep seeded on its own: 160 514
/// bottom-up + 60 322 top-down.
const UNCHAINED_YANNAKAKIS_POPS: u64 = 220_836;

/// Schedule guard: sending only the full reducer's messages, each pair
/// chained, pops at most half of what the unchained schedule popped on
/// the planted acyclic instance, and leaves the same domains (34 values
/// kept, 60 161 pruned) and answers.
#[test]
fn yannakakis_sends_only_the_full_reducers_messages() {
    let (db, q, planted) = ecrpq::workloads::planted_acyclic_instance(20_000, 32, 1);
    let tree = ecrpq::analyze::acyclic_join_tree(&q).expect("acyclic");
    let prepared = PreparedQuery::build(&q).expect("valid");
    let tracer = CollectingTracer::new();
    let o = engine::answers_yannakakis_governed_traced(
        &db,
        &prepared,
        &tree,
        &EvalOptions::sequential(),
        &tracer,
    );
    assert_eq!(o.answers, planted);
    assert_eq!((o.stats.domain_kept, o.stats.domain_pruned), (34, 60_161));
    let m = tracer.metrics();
    let pops = m.phase(Phase::YannakakisUp).items + m.phase(Phase::YannakakisDown).items;
    assert!(
        pops <= UNCHAINED_YANNAKAKIS_POPS / 2,
        "{pops} sweep pops, unchained {UNCHAINED_YANNAKAKIS_POPS}"
    );
}

/// Carrier seeds and the cost-chosen root make the Yannakakis program's
/// work follow the planted structure, not the graph: on
/// `planted_acyclic_instance(n, 32, 1)` its sweeps pop exactly as often
/// at 4·10⁴ nodes as at 2·10⁴, while the decoys double.
#[test]
fn yannakakis_sweep_pops_do_not_grow_with_the_decoys() {
    let pops = |n: usize| {
        let (db, q, planted) = ecrpq::workloads::planted_acyclic_instance(n, 32, 1);
        let tree = ecrpq::analyze::acyclic_join_tree(&q).expect("acyclic");
        let prepared = PreparedQuery::build(&q).expect("valid");
        let tracer = CollectingTracer::new();
        let o = engine::answers_yannakakis_governed_traced(
            &db,
            &prepared,
            &tree,
            &EvalOptions::sequential(),
            &tracer,
        );
        assert_eq!(o.answers, planted, "n = {n}");
        let m = tracer.metrics();
        m.phase(Phase::YannakakisUp).items + m.phase(Phase::YannakakisDown).items
    };
    let small = pops(20_000);
    assert_eq!(small, pops(40_000));
    assert!(small < 2_000, "{small} sweep pops");
}
