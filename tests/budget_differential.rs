//! Differential testing of resource-governed evaluation.
//!
//! Soundness contract under test: a budgeted run returns a **subset** of
//! the unbudgeted answers (truncation loses answers, never invents them);
//! a run that reports [`Termination::Complete`] is **bit-identical** to
//! the unbudgeted run; and a wall-clock deadline is honoured to
//! within the cooperative check interval — less than 2× the deadline —
//! at every thread count.
//!
//! The deadline test runs on a PSPACE-regime workload
//! ([`big_component_query`]: one merged relation component with `r` path
//! variables, so `cc_vertex = r` drives the product through a
//! `|Q| · |V|^r` configuration space) sized so that full enumeration
//! takes orders of magnitude longer than the deadline — truncation
//! genuinely happens, and partial answers genuinely exist.

mod common;

use common::{cq_answers, product_answers, product_answers_with_stats};
use ecrpq::eval::{
    engine, CollectingTracer, EvalOptions, NoopTracer, Phase, PreparedQuery, ResourceBudget,
    Termination, Tracer,
};
use ecrpq::query::NodeVar;
use ecrpq::workloads::{big_component_query, random_db};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The PSPACE-regime workload: `r` equal-length paths between free `x`
/// and `y` on a random graph with `n` nodes.
fn workload(r: usize, n: usize) -> (ecrpq::graph::GraphDb, ecrpq::query::Ecrpq) {
    let mut q = big_component_query(r, 2);
    q.set_free(&[NodeVar(0), NodeVar(1)]);
    let db = random_db(n, 2.0, 2, 97);
    (db, q)
}

/// The acceptance test: a 50 ms deadline on a PSPACE workload whose full
/// enumeration takes seconds returns `DeadlineExceeded` with non-empty
/// partial answers that are a subset of the full set, and never
/// overshoots 2× the deadline — at any thread count.
#[test]
fn deadline_yields_partial_answers_without_overshoot() {
    let (db, q) = workload(3, 30);
    let prepared = PreparedQuery::build(&q).expect("valid");
    let full = product_answers(&db, &prepared, &EvalOptions::with_threads(0));
    assert!(full.len() > 100, "workload must have many answers");
    let deadline = Duration::from_millis(50);
    for threads in [1usize, 2, 4, 8] {
        let opts = EvalOptions::with_threads(threads)
            .with_budget(ResourceBudget::unlimited().with_deadline(deadline));
        let start = Instant::now();
        let outcome = engine::answers_product_governed_traced(&db, &prepared, &opts, &NoopTracer);
        let elapsed = start.elapsed();
        assert_eq!(
            outcome.termination,
            Termination::DeadlineExceeded,
            "threads={threads}"
        );
        assert!(
            !outcome.answers.is_empty(),
            "threads={threads}: no partial answers within {deadline:?}"
        );
        assert!(
            outcome.answers.is_subset(&full),
            "threads={threads}: partial answers must be a subset"
        );
        assert!(
            elapsed < 2 * deadline,
            "threads={threads}: overshot the deadline: {elapsed:?}"
        );
        assert!(outcome.stats.budget_checks > 0, "threads={threads}");
    }
}

/// A configuration budget truncates the same way: subset answers, an
/// explicit `BudgetExhausted` termination while the cap binds, and —
/// because the sequential search is deterministic — monotonically more
/// answers as the cap grows, converging to the complete set.
#[test]
fn configuration_budget_sweep_recovers_answers() {
    let (db, q) = workload(3, 14);
    let prepared = PreparedQuery::build(&q).expect("valid");
    let (full, stats) = product_answers_with_stats(&db, &prepared, &EvalOptions::sequential());
    assert!(full.len() >= 10, "need a meaningful answer set");
    let total_work = stats.configurations.max(1);
    let mut last_len = 0usize;
    let mut saw_exhausted = false;
    for fraction in [0.01f64, 0.1, 0.5, 1.0] {
        let cap = ((total_work as f64 * fraction) as u64).max(1);
        let opts = EvalOptions::sequential()
            .with_budget(ResourceBudget::unlimited().with_max_configurations(cap));
        let outcome = engine::answers_product_governed_traced(&db, &prepared, &opts, &NoopTracer);
        assert!(
            outcome.answers.is_subset(&full),
            "fraction={fraction}: subset violated"
        );
        match outcome.termination {
            Termination::Complete => assert_eq!(outcome.answers, full, "fraction={fraction}"),
            _ => saw_exhausted = true,
        }
        // more budget never recovers fewer answers on the same
        // deterministic sequential search
        assert!(
            outcome.answers.len() >= last_len,
            "fraction={fraction}: answers shrank"
        );
        last_len = outcome.answers.len();
    }
    assert!(saw_exhausted, "the small fractions must actually truncate");
    // an effectively unbounded cap completes and matches bit-for-bit
    let opts = EvalOptions::sequential()
        .with_budget(ResourceBudget::unlimited().with_max_configurations(u64::MAX / 4));
    let outcome = engine::answers_product_governed_traced(&db, &prepared, &opts, &NoopTracer);
    assert_eq!(outcome.termination, Termination::Complete);
    assert_eq!(outcome.answers, full);
}

/// Sequential answer caps are exact: a cap of `k` returns `min(k, total)`
/// answers, and the run is `Complete` iff the cap was not the binding
/// constraint — so `Complete` ⇔ bit-identical answers.
#[test]
fn answer_cap_is_exact_sequentially() {
    let (db, q) = workload(3, 14);
    let prepared = PreparedQuery::build(&q).expect("valid");
    let full = product_answers(&db, &prepared, &EvalOptions::sequential());
    let total = full.len() as u64;
    assert!(total >= 2, "need a few answers to cap");
    for cap in [1, total / 2, total, total + 7] {
        let opts = EvalOptions::sequential()
            .with_budget(ResourceBudget::unlimited().with_max_answers(cap));
        let outcome = engine::answers_product_governed_traced(&db, &prepared, &opts, &NoopTracer);
        assert_eq!(
            outcome.answers.len() as u64,
            cap.min(total),
            "cap={cap}: wrong answer count"
        );
        assert!(outcome.answers.is_subset(&full), "cap={cap}");
        let complete = outcome.termination == Termination::Complete;
        assert_eq!(
            complete,
            cap >= total,
            "cap={cap}: Complete iff cap covers all answers"
        );
        if complete {
            assert_eq!(outcome.answers, full, "cap={cap}");
        }
    }
}

/// Regression (answer-cap overshoot): a `max_answers` budget stops the
/// streaming enumeration at the cap instead of materializing the full
/// answer set and truncating. The pin: with every node variable free a
/// satisfying assignment is an answer, so the assignment counter must
/// stop exactly at the cap — on a database of any size.
#[test]
fn answer_cap_stops_the_search() {
    let cap = 3u64;
    let opts =
        EvalOptions::sequential().with_budget(ResourceBudget::unlimited().with_max_answers(cap));
    let mut at_cap = Vec::new();
    for n in [20usize, 40] {
        let (db, q) = workload(3, n);
        let prepared = PreparedQuery::build(&q).expect("valid");
        let (full, full_stats) =
            product_answers_with_stats(&db, &prepared, &EvalOptions::sequential());
        assert!(full.len() as u64 > 3 * cap, "n={n}: need answers to spare");
        let o = engine::answers_product_governed_traced(&db, &prepared, &opts, &NoopTracer);
        assert!(!o.termination.is_complete(), "n={n}: the cap binds");
        let (capped, capped_stats) = (o.answers, o.stats);
        assert_eq!(capped.len() as u64, cap, "n={n}: cap not exact");
        assert!(capped.is_subset(&full), "n={n}");
        assert!(
            capped_stats.assignments < full_stats.assignments,
            "n={n}: capped search did all {} assignments — the cap did not stop it",
            full_stats.assignments
        );
        at_cap.push(capped_stats.assignments);
    }
    // doubling the database must not grow the satisfying-assignment work:
    // the streaming search stops right at the cap-th distinct tuple (the
    // one-past-cap assignment is the claim that trips the governor)
    assert_eq!(
        at_cap[0], at_cap[1],
        "assignments after the cap grew with the database"
    );
    assert!(at_cap[0] <= cap + 1, "assignments ran past the cap");
}

/// Boolean search under governance: `true` is definitive even when the
/// budget is tiny, and a truncated `false` is reported as such.
#[test]
fn boolean_governed_is_sound() {
    let (db, q) = workload(3, 14);
    let prepared = PreparedQuery::build(&q).expect("valid");
    assert!(ecrpq::eval::product::eval_product(&db, &prepared));
    // generous budget: finds the answer, Complete
    let opts = EvalOptions::sequential()
        .with_budget(ResourceBudget::unlimited().with_deadline(Duration::from_secs(30)));
    let outcome = engine::eval_product_governed(&db, &prepared, &opts);
    assert!(outcome.answers);
    assert_eq!(outcome.termination, Termination::Complete);
    // zero deadline: either it found a witness before the first
    // checkpoint (true, definitive) or it reports DeadlineExceeded and
    // claims nothing
    let opts = EvalOptions::with_threads(4)
        .with_budget(ResourceBudget::unlimited().with_deadline(Duration::ZERO));
    let outcome = engine::eval_product_governed(&db, &prepared, &opts);
    if !outcome.answers {
        assert_eq!(outcome.termination, Termination::DeadlineExceeded);
    }
}

/// The governed planner honours an explicit budget and falls back to the
/// regime default otherwise; Complete runs match the unbudgeted planner.
#[test]
fn planner_governed_matches_ungoverned_when_complete() {
    use ecrpq::eval::planner;
    let (db, q) = workload(3, 20);
    let full = planner::answers(&db, &q);
    // explicit generous budget → Complete, identical
    let opts = EvalOptions::sequential()
        .with_budget(ResourceBudget::unlimited().with_max_configurations(u64::MAX / 4));
    let outcome = planner::answers_governed(&db, &q, &opts);
    assert_eq!(outcome.termination, Termination::Complete);
    assert_eq!(outcome.answers, full);
    // unlimited options → the PSPACE-shaped regime default kicks in (the
    // plan explains it); answers stay a sound subset either way
    let plan = planner::plan(&db, &q);
    assert!(
        plan.explain().contains("default budget (PSPACE"),
        "{}",
        plan.explain()
    );
    let outcome = planner::answers_governed(&db, &q, &EvalOptions::sequential());
    assert!(outcome.answers.is_subset(&full));
    if outcome.termination == Termination::Complete {
        assert_eq!(outcome.answers, full);
    }
}

/// Governed bit-parallel runs obey the same soundness contract as flat:
/// subset answers under truncation, bit-identical answers on `Complete` —
/// at every thread count, with the bitmap kernel actually engaged (the
/// arity-3 workload sits inside both bit-parallel gates).
#[test]
fn governed_bitparallel_matches_flat() {
    use ecrpq::eval::Layout;
    let (db, q) = workload(3, 14);
    let prepared = PreparedQuery::build(&q).expect("valid");
    let full = product_answers(&db, &prepared, &EvalOptions::sequential());
    assert!(full.len() >= 10, "need a meaningful answer set");
    let mut saw_truncated = false;
    for threads in [1usize, 2, 4, 8] {
        for cap in [200u64, u64::MAX / 4] {
            let opts = EvalOptions::with_threads(threads)
                .with_layout(Layout::BitParallel)
                .with_budget(ResourceBudget::unlimited().with_max_configurations(cap));
            let o = engine::answers_product_governed_traced(&db, &prepared, &opts, &NoopTracer);
            assert!(
                o.answers.is_subset(&full),
                "threads={threads} cap={cap}: subset violated"
            );
            if o.termination.is_complete() {
                assert_eq!(o.answers, full, "threads={threads} cap={cap}");
            } else {
                saw_truncated = true;
            }
        }
    }
    assert!(saw_truncated, "the small cap must actually truncate");
}

/// Regression (memory accounting): under `Layout::BitParallel` an arity-4
/// atom exceeds the kernel's arity gate and is downgraded to the flat
/// path, whose visited set and word queue grow with the configurations
/// its searches hold — nothing is allocated for it up front. Those bytes
/// must reach the governor as they grow. The test measures the run's
/// whole charge as the smallest cap it completes under, checks that the
/// part the memo and the answers do not explain covers the set and the
/// queue at the search's peak, and that a cap one byte below the charge
/// trips `Memory`.
#[test]
fn memory_cap_sees_visited_set_and_queue_of_downgraded_atoms() {
    use ecrpq::eval::{ExhaustedResource, Layout};
    let mut q = big_component_query(4, 2);
    q.set_free(&[NodeVar(0), NodeVar(1)]);
    let db = random_db(10, 2.0, 2, 97);
    let prepared = PreparedQuery::build(&q).expect("valid");
    let run = |bytes: u64| {
        let opts = EvalOptions::sequential()
            .with_layout(Layout::BitParallel)
            .with_budget(ResourceBudget::unlimited().with_max_memory_bytes(bytes));
        engine::answers_product_governed_traced(&db, &prepared, &opts, &NoopTracer)
    };
    // a roomy cap completes and matches flat
    let roomy = run(1 << 30);
    assert!(roomy.termination.is_complete());
    let full = product_answers(&db, &prepared, &EvalOptions::sequential());
    assert_eq!(roomy.answers, full);
    // a sequential run charges the same bytes in the same order, so it
    // completes exactly under caps at or above its total charge
    let (mut tripped, mut complete) = (0u64, 1u64 << 30);
    while complete - tripped > 1 {
        let mid = tripped + (complete - tripped) / 2;
        if run(mid).termination.is_complete() {
            complete = mid;
        } else {
            tripped = mid;
        }
    }
    let charge = complete;
    assert_eq!(
        run(charge - 1).termination,
        Termination::BudgetExhausted {
            resource: ExhaustedResource::Memory
        },
        "a cap below the measured charge must trip"
    );
    assert_eq!(run(charge).answers, full);
    // the memo charges 64 + 8k bytes per verdict (k = 4 tracks) and the
    // answer set 24 + 4 bytes per column per tuple; the rest is the flat
    // BFS's buffers, which at the peak hold `frontier_peak` queued
    // configurations: a packed `u64` key plus a control byte in the
    // visited set, and k + 1 `u32` words in the queue, each
    let stats = roomy.stats;
    let explained = stats.checks * (64 + 8 * 4) + full.len() as u64 * (24 + 4 * 2);
    let floor = stats.frontier_peak * (8 + 1 + 4 * 5);
    assert!(stats.frontier_peak > 0);
    assert!(
        charge >= explained + floor,
        "visited-set and queue bytes slipped past the governor: charge {charge}, \
         memo and answers {explained}, buffers at the peak {floor}"
    );
}

/// Tree-decomposition and plain CQ governed paths obey the same subset /
/// complete-iff-identical contract.
#[test]
fn governed_cq_paths_are_sound() {
    use ecrpq::eval::ecrpq_to_cq;
    let (db, q) = workload(2, 10);
    let prepared = PreparedQuery::build(&q).expect("valid");
    let (cq, rdb, _) = ecrpq_to_cq(&db, &prepared);
    let full: BTreeSet<Vec<u32>> = cq_answers(&rdb, &cq, &EvalOptions::sequential());
    for cap in [64u64, 4096, u64::MAX / 4] {
        let opts = EvalOptions::sequential()
            .with_budget(ResourceBudget::unlimited().with_max_configurations(cap));
        let o = engine::answers_cq_governed_traced(&rdb, &cq, &opts, &NoopTracer);
        assert!(o.answers.is_subset(&full), "cap={cap}");
        if o.termination == Termination::Complete {
            assert_eq!(o.answers, full, "cap={cap}");
        }
        let td = engine::answers_cq_treedec_governed_traced(&rdb, &cq, &opts, &NoopTracer);
        assert!(td.answers.is_subset(&full), "treedec cap={cap}");
        if td.termination == Termination::Complete {
            assert_eq!(td.answers, full, "treedec cap={cap}");
        }
        let b = engine::eval_cq_governed(&rdb, &cq, &opts);
        if b.answers {
            // `true` is always definitive
            assert!(!full.is_empty(), "cap={cap}");
        }
        let tb = engine::eval_cq_treedec_governed(&rdb, &cq, &opts);
        if tb.answers {
            assert!(!full.is_empty(), "treedec boolean cap={cap}");
        }
    }
}

/// A configuration cap that trips inside an arity-1 sweep (the planted
/// `c(a|b)*d` reachability query: one backward sweep from the sink covers
/// ~10⁴ configurations, past the cap and past the first check-in) ends
/// the run non-`Complete` with a subset of the answers, at every thread
/// count and layout. The next, unlimited run on the same `PreparedTables`
/// returns the instance's planted answer set — its provable ground truth
/// — so no truncated sweep leaked into anything the runs share.
#[test]
fn truncated_sweep_leaves_prepared_tables_clean() {
    use ecrpq::eval::engine::PreparedTables;
    use ecrpq::eval::Layout;
    let (db, q, sources) = ecrpq::workloads::planted_power_law_instance(4_000, 8, 3);
    let prepared = PreparedQuery::build(&q).expect("valid");
    let planted: BTreeSet<Vec<u32>> = sources.iter().map(|&s| vec![s]).collect();
    for layout in [Layout::Flat, Layout::BitParallel] {
        let tables = PreparedTables::build(&db, &prepared, layout);
        for threads in [1usize, 2, 4, 8] {
            let opts = EvalOptions::with_threads(threads).with_layout(layout);
            let capped =
                opts.with_budget(ResourceBudget::unlimited().with_max_configurations(6_000));
            let cut = engine::answers_product_governed_prepared_traced(
                &db,
                &prepared,
                &tables,
                &capped,
                &NoopTracer,
            );
            let what = format!("{threads} threads, {layout:?}");
            assert!(
                matches!(cut.termination, Termination::BudgetExhausted { .. }),
                "{what}: {}",
                cut.termination
            );
            assert!(cut.answers.is_subset(&planted), "{what}");
            assert!(cut.stats.budget_aborts >= 1, "{what}: no sweep was cut");
            let full = engine::answers_product_governed_prepared_traced(
                &db,
                &prepared,
                &tables,
                &opts,
                &NoopTracer,
            );
            assert_eq!(full.termination, Termination::Complete, "{what}");
            assert_eq!(full.answers, planted, "{what}");
        }
    }
}

/// Logs the bottom-up pops at the end of each Yannakakis bottom-up
/// sweep (a sweep reports its frontier as it ends), plus the total.
#[derive(Clone, Default)]
struct SweepLog(Arc<Mutex<(u64, Vec<u64>)>>);

impl Tracer for SweepLog {
    const ENABLED: bool = true;
    fn fork_worker(&self) -> Self {
        self.clone()
    }
    fn count(&self, phase: Phase, n: u64) {
        if phase == Phase::YannakakisUp {
            self.0.lock().unwrap().0 += n;
        }
    }
    fn prune(&self, _: Phase, _: u64) {}
    fn frontier(&self, phase: Phase, _: u64) {
        if phase == Phase::YannakakisUp {
            let mut log = self.0.lock().unwrap();
            let pops = log.0;
            log.1.push(pops);
        }
    }
    fn governor_check(&self, _: Phase, _: u64) {}
    fn governor_abort(&self, _: Phase) {}
    fn time(&self, _: Phase, _: u64) {}
    fn sample(&self, _: Phase, _: u64) {}
}

/// The Yannakakis program's chained pair under a budget. In `pair`,
/// `x -[a]-> y` shares both endpoints with its join-tree parent
/// `x -[a*]-> y`, so its bottom-up message comes first: a forward sweep
/// from the `a`-carriers, then a backward sweep seeded with the first
/// one's targets. A configuration cap of exactly the first sweep's pops
/// in the uncapped run lets that sweep finish, and the governor's next
/// check-in trips the one-shot run inside the second, seeded sweep: a
/// non-`Complete` termination, a subset of the one answer `(c₄, c₅, w)`,
/// and no top-down pass. The query service builds its cached plan tables
/// ungoverned, so the same cap on a cold request stores nothing
/// truncated: the next request on the cached plan returns the answer.
#[test]
fn truncated_chained_sweep_leaves_plan_tables_clean() {
    use ecrpq::eval::QueryService;
    use ecrpq::query::{parse_query, RelationRegistry};
    // an `a`-cycle past the planner's tuple budget (so the service plans
    // Yannakakis) and one `b`-edge c₅ → w
    let mut db = ecrpq::graph::GraphDb::new();
    let cycle: Vec<u32> = (0..8_000).map(|i| db.add_node(&format!("c{i}"))).collect();
    for (i, &c) in cycle.iter().enumerate() {
        db.add_edge(c, 'a', cycle[(i + 1) % cycle.len()]);
    }
    let w = db.add_node("w");
    db.add_edge(cycle[5], 'b', w);
    let planted: BTreeSet<Vec<u32>> = [vec![cycle[4], cycle[5], w]].into();
    let pair = "q(x, y, z) :- x -[p]-> y, x -[s]-> y, y -[r]-> z, p in a, s in a*, r in b";
    let mut alphabet = db.alphabet().clone();
    let q = parse_query(pair, &mut alphabet, &RelationRegistry::new()).expect("parses");
    let tree = ecrpq::analyze::acyclic_join_tree(&q).expect("acyclic");
    assert_eq!((tree.order[0], tree.parent[0]), (0, Some(1)));
    let prepared = PreparedQuery::build(&q).expect("valid");
    let log = SweepLog::default();
    let full = engine::answers_yannakakis_governed_traced(
        &db,
        &prepared,
        &tree,
        &EvalOptions::sequential(),
        &log,
    );
    assert_eq!(
        (full.termination, full.answers),
        (Termination::Complete, planted.clone())
    );
    let ends = log.0.lock().unwrap().1.clone();
    let (first, second) = (ends[0], ends[1]);
    assert!(0 < first && first < second, "{ends:?}");

    let capped = EvalOptions::sequential()
        .with_budget(ResourceBudget::unlimited().with_max_configurations(first));
    let tracer = CollectingTracer::new();
    let cut = engine::answers_yannakakis_governed_traced(&db, &prepared, &tree, &capped, &tracer);
    assert!(
        matches!(cut.termination, Termination::BudgetExhausted { .. }),
        "{}",
        cut.termination
    );
    assert!(cut.answers.is_subset(&planted));
    let m = tracer.metrics();
    let up = m.phase(Phase::YannakakisUp);
    // the trip came after the first sweep and before the second ended
    assert!(
        up.governor_aborts >= 1 && first < up.items && up.items < second,
        "{up:?}, sweeps end at {ends:?}"
    );
    assert_eq!(m.phase(Phase::YannakakisDown).items, 0);

    let service = QueryService::new(db.clone());
    let r = service.execute(pair, &capped).expect("served");
    assert!(r.answers.is_subset(&planted));
    let r = service
        .execute(pair, &EvalOptions::sequential())
        .expect("served");
    assert!(r.cached);
    assert_eq!((r.termination, r.answers), (Termination::Complete, planted));
}

/// A query the planner serves with [`ecrpq::eval::Strategy::CqTreedec`]
/// on a small graph, and that graph.
fn treedec_instance() -> (ecrpq::graph::GraphDb, &'static str) {
    let db = random_db(40, 1.8, 2, 0x7DEC);
    db.freeze();
    (
        db,
        "q(x, z) :- x -[p]-> y, y -[r]-> z, p in a(a|b)*, r in b",
    )
}

/// Bag tuples a served execution populated: zero exactly when it walked
/// its plan's cached reduced instance.
fn bags_populated(r: &ecrpq::eval::Response) -> u64 {
    r.metrics.phase(Phase::TreedecBags).items
}

/// The planner's (unbudgeted, one-shot) answers to `text` over `db`.
fn planner_answers(db: &ecrpq::graph::GraphDb, text: &str) -> BTreeSet<Vec<u32>> {
    let mut alphabet = db.alphabet().clone();
    let registry = ecrpq::query::RelationRegistry::new();
    let q = ecrpq::query::parse_query(text, &mut alphabet, &registry).expect("parses");
    ecrpq::eval::planner::answers(db, &q)
}

/// A cached CqTreedec plan whose first request trips its budget while
/// the reduced instance is built keeps no instance: that request ends
/// non-`Complete` with no answers, the next, unbudgeted request builds
/// the instance afresh (it populates bags), completes and equals
/// `planner::answers`, and only the request after that walks a cached
/// instance.
#[test]
fn tripped_treedec_build_leaves_the_plan_slot_empty() {
    let (db, text) = treedec_instance();
    let expected = planner_answers(&db, text);
    assert!(!expected.is_empty());
    let service = ecrpq::eval::QueryService::new(db);
    let capped = EvalOptions::sequential()
        .with_budget(ResourceBudget::unlimited().with_max_configurations(1));
    let cut = service.execute(text, &capped).expect("admitted");
    assert_eq!(cut.plan.strategy, ecrpq::eval::Strategy::CqTreedec);
    assert!(
        matches!(cut.termination, Termination::BudgetExhausted { .. }),
        "{}",
        cut.termination
    );
    assert!(cut.answers.is_empty(), "a cut-short build serves no answer");
    assert!(bags_populated(&cut) > 0);
    let full = service
        .execute(text, &EvalOptions::sequential())
        .expect("admitted");
    assert!(full.cached, "the plan itself was cached");
    assert_eq!(full.termination, Termination::Complete);
    assert_eq!(full.answers, expected);
    assert!(bags_populated(&full) > 0, "the tripped build was kept");
    let warm = service
        .execute(text, &EvalOptions::sequential())
        .expect("admitted");
    assert_eq!(warm.termination, Termination::Complete);
    assert_eq!(warm.answers, expected);
    assert_eq!(bags_populated(&warm), 0, "the complete build was not kept");
}

/// The reduced instance's bytes reach the governor of the request that
/// builds it: a memory cap one byte below them trips the build, on the
/// one-shot path and on a cold cached plan alike, and the plan keeps no
/// instance.
#[test]
fn treedec_instance_bytes_are_charged_to_the_building_request() {
    use ecrpq::eval::cq_eval::ReducedCq;
    use ecrpq::eval::{ecrpq_to_cq, ExhaustedResource};
    let (db, text) = treedec_instance();
    let mut alphabet = db.alphabet().clone();
    let registry = ecrpq::query::RelationRegistry::new();
    let q = ecrpq::query::parse_query(text, &mut alphabet, &registry).expect("parses");
    let (cq, rdb, _) = ecrpq_to_cq(&db, &PreparedQuery::build(&q).expect("valid"));
    let bytes = ReducedCq::build(&rdb, &cq).bytes();
    assert!(bytes > 0);
    let below = EvalOptions::sequential()
        .with_budget(ResourceBudget::unlimited().with_max_memory_bytes(bytes - 1));
    let memory = Termination::BudgetExhausted {
        resource: ExhaustedResource::Memory,
    };
    let one_shot = engine::answers_cq_treedec_governed_traced(&rdb, &cq, &below, &NoopTracer);
    assert_eq!(one_shot.termination, memory);
    assert!(one_shot.answers.is_empty());
    let service = ecrpq::eval::QueryService::new(db);
    let cold = service.execute(text, &below).expect("admitted");
    assert_eq!(cold.termination, memory);
    assert!(cold.answers.is_empty(), "the build, not the walk, tripped");
    let next = service
        .execute(text, &EvalOptions::sequential())
        .expect("admitted");
    assert_eq!(next.termination, Termination::Complete);
    assert!(bags_populated(&next) > 0, "the tripped build was kept");
}
