//! The `run_trial` boundary: one spec + one point of the trial matrix in,
//! one JSON result out.
//!
//! Every measured experiment goes through this function — the harness
//! caches its output on disk keyed by spec hash and trial params, so a
//! trial must be a pure function of `(spec, params)` up to timing noise.
//! Results store numbers at full precision (`f64` shortest round-trip
//! rendering); the aggregation layer applies the committed artifacts'
//! rounding, so an aggregate built from cached trials is byte-identical
//! to one built from fresh trials. Correctness assertions (planted
//! ground truth, cross-strategy equality, termination) stay inside the
//! trial exactly as in the pre-harness experiment bins.

use super::json::Json;
use super::spec::{Spec, SpecValue, TrialParams};
use crate::{complete, product_answers_with_stats, time_median};
use ecrpq_core::{
    answers_traced, engine, planner, EvalOptions, Layout, NoopTracer, Phase, PreparedQuery,
    PreparedTables, QueryService, ResourceBudget, Strategy,
};
use ecrpq_query::Ecrpq;
use ecrpq_workloads::registry;
use std::collections::BTreeSet;
use std::time::Duration;

/// Runs one trial of `spec` at matrix point `params`, dispatching on
/// `spec.kind`. See the module docs for the contract.
pub fn run_trial(spec: &Spec, params: &TrialParams) -> Result<Json, String> {
    match spec.kind.as_str() {
        "bitparallel" => trial_bitparallel(spec, params),
        "yannakakis" => trial_yannakakis(spec, params),
        "minimize" => trial_minimize(spec, params),
        "server" => trial_server(spec, params),
        "layout" => trial_layout(spec, params),
        "budget" => trial_budget(spec, params),
        "observability" => trial_observability(spec, params),
        other => Err(format!("spec `{}`: unknown kind `{other}`", spec.name)),
    }
}

fn axis<'p>(params: &'p TrialParams, name: &str) -> Result<&'p SpecValue, String> {
    params
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("trial is missing matrix axis `{name}`"))
}

fn axis_str(params: &TrialParams, name: &str) -> Result<String, String> {
    Ok(axis(params, name)?.render())
}

fn axis_usize(params: &TrialParams, name: &str) -> Result<usize, String> {
    match axis(params, name)? {
        SpecValue::Int(v) if *v >= 0 => Ok(*v as usize),
        other => Err(format!(
            "matrix axis `{name}` must be a non-negative integer, got {}",
            other.render()
        )),
    }
}

fn generate_workload(spec: &Spec, params: &TrialParams) -> Result<registry::Generated, String> {
    let (name, gen_params) = spec.generator_for(params)?;
    registry::generate(&name, &gen_params)
}

fn layout_by_name(name: &str) -> Result<Layout, String> {
    match name {
        "flat" => Ok(Layout::Flat),
        "bitparallel" => Ok(Layout::BitParallel),
        other => Err(format!("unknown layout `{other}`")),
    }
}

/// Full-precision float (f64 shortest round-trip rendering; the
/// aggregation layer applies the artifact rounding).
fn num(v: f64) -> Json {
    Json::Num(format!("{v}"))
}

/// Order-independent FNV-1a checksum of an answer set, as a hex string —
/// lets the aggregator assert cross-trial answer equality without
/// persisting whole answer sets.
fn answers_checksum(answers: &BTreeSet<Vec<u32>>) -> Json {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut step = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for tuple in answers {
        for v in tuple {
            for byte in v.to_le_bytes() {
                step(byte);
            }
        }
        step(0xff);
    }
    Json::str(format!("{h:016x}"))
}

/// E19 — flat vs bit-parallel configs/s at a (threads, layout) point of
/// the matrix, on the planted power-law reachability instance. The
/// serial table build is timed separately (`prepare_ms`).
fn trial_bitparallel(spec: &Spec, params: &TrialParams) -> Result<Json, String> {
    let threads = axis_usize(params, "threads")?;
    let layout_name = axis_str(params, "layout")?;
    let layout = layout_by_name(&layout_name)?;
    let generated = generate_workload(spec, params)?;
    let q = generated.query.ok_or("workload produced no query")?;
    let expected = generated.expected.ok_or("workload produced no answers")?;
    let db = generated.db;
    db.freeze();
    // lint:allow(unwrap): generated workload queries are well-formed by construction
    let prepared = PreparedQuery::build(&q).expect("valid");
    let start = std::time::Instant::now();
    let tables = PreparedTables::build(&db, &prepared, layout);
    let prepare_ms = start.elapsed().as_secs_f64() * 1e3;
    let opts = EvalOptions::with_threads(threads).with_layout(layout);
    let run = || {
        complete(engine::answers_product_governed_prepared_traced(
            &db,
            &prepared,
            &tables,
            &opts,
            &NoopTracer,
        ))
    };
    let (answers, stats) = run();
    assert_eq!(
        answers, expected,
        "{layout_name} at {threads} threads diverged from the planted answers"
    );
    let d = time_median(spec.reps, run);
    let rate = stats.configurations as f64 / d.as_secs_f64().max(1e-9);
    Ok(Json::Obj(vec![
        ("layout".into(), Json::str(layout_name)),
        ("threads".into(), Json::int(threads)),
        ("answers".into(), Json::int(answers.len())),
        ("configs".into(), Json::int(stats.configurations)),
        ("configs_per_sec".into(), num(rate)),
        ("prepare_ms".into(), num(prepare_ms)),
        ("nodes".into(), Json::int(db.num_nodes())),
        ("edges".into(), Json::int(db.num_edges())),
        ("answers_fnv".into(), answers_checksum(&answers)),
    ]))
}

/// E20 — Yannakakis vs flat product search at one output size `k` on the
/// planted acyclic low-output instance, sequentially.
fn trial_yannakakis(spec: &Spec, params: &TrialParams) -> Result<Json, String> {
    let k = axis_usize(params, "k")?;
    // The instance is parameterized by the axis: rebuild the workload
    // with `k` substituted in.
    let (name, mut gen_params) = spec.generator_for(params)?;
    gen_params.insert("k".to_string(), k.to_string());
    let generated = registry::generate(&name, &gen_params)?;
    let q = generated.query.ok_or("workload produced no query")?;
    let expected = generated.expected.ok_or("workload produced no answers")?;
    let db = generated.db;
    db.freeze();
    let opts = EvalOptions::sequential().with_layout(Layout::Flat);
    // the join tree and the compiled query come from one plan, so the
    // tree's atom indices name the atoms being run
    let plan = planner::plan(&db, &q);
    if spec
        .workload
        .iter()
        .any(|(key, v)| key == "expect_yannakakis" && *v == SpecValue::Bool(true))
    {
        assert_eq!(
            plan.strategy,
            Strategy::Yannakakis,
            "planner must pick Yannakakis on the large acyclic instance"
        );
    }
    let tree = plan.join_tree.as_ref().ok_or("plan carries no join tree")?;
    let prepared = plan
        .prepared
        .as_ref()
        .ok_or("plan carries no compiled query")?;
    let flat = || product_answers_with_stats(&db, prepared, &opts);
    let yannakakis = || {
        complete(engine::answers_yannakakis_governed_traced(
            &db,
            prepared,
            tree,
            &opts,
            &NoopTracer,
        ))
    };
    let (flat_answers, flat_stats) = flat();
    let (yan_answers, yan_stats) = yannakakis();
    assert_eq!(flat_answers, expected, "flat product answers at k={k}");
    assert_eq!(yan_answers, expected, "yannakakis answers at k={k}");
    let flat_d = time_median(spec.reps, flat);
    let yan_d = time_median(spec.reps, yannakakis);
    Ok(Json::Obj(vec![
        ("answers".into(), Json::int(k)),
        ("flat_ms".into(), num(flat_d.as_secs_f64() * 1e3)),
        ("yannakakis_ms".into(), num(yan_d.as_secs_f64() * 1e3)),
        ("flat_configs".into(), Json::int(flat_stats.configurations)),
        (
            "yannakakis_configs".into(),
            Json::int(yan_stats.configurations),
        ),
        ("nodes".into(), Json::int(db.num_nodes())),
        ("edges".into(), Json::int(db.num_edges())),
    ]))
}

/// The E21 corpus: the named workload families at experiment parameters,
/// the planted regime-shift query, and every query in
/// `<corpus_dir>/*.ecrpq` when the directory is readable (it is when run
/// from the repository root).
pub fn minimize_corpus(corpus_dir: &str, planted_nodes: usize, seed: u64) -> Vec<(String, Ecrpq)> {
    use ecrpq_automata::Alphabet;
    use ecrpq_workloads::{
        big_component_query, clique_query, planted_regime_shift_instance, tractable_chain_query,
    };
    let mut out: Vec<(String, Ecrpq)> = Vec::new();
    for len in [2usize, 4, 8] {
        out.push((
            format!("tractable_chain(len={len})"),
            tractable_chain_query(len, 2),
        ));
    }
    for k in [3usize, 4] {
        let mut alphabet = Alphabet::ascii_lower(2);
        out.push((
            format!("clique(k={k})"),
            clique_query(k, "a*", &mut alphabet),
        ));
    }
    for r in [2usize, 3, 4] {
        out.push((format!("big_component(r={r})"), big_component_query(r, 2)));
    }
    out.push((
        "planted_regime_shift".to_string(),
        planted_regime_shift_instance(planted_nodes, seed).1,
    ));
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(corpus_dir)
        .map(|dir| {
            dir.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "ecrpq"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    let relations = ecrpq_query::RelationRegistry::new();
    for path in files {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let stem = path
            .file_stem()
            .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
        for (i, line) in text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .enumerate()
        {
            let mut alphabet = Alphabet::new();
            if let Ok(q) = ecrpq_query::parse_query(line, &mut alphabet, &relations) {
                out.push((format!("{stem}[{i}]"), q));
            }
        }
    }
    out
}

/// E21 — semantic regime minimization. `part = "corpus"` sweeps the
/// rewrite search over the query corpus; `part = "planted"` measures the
/// end-to-end pipeline speedup on the planted NP→PTIME instance.
fn trial_minimize(spec: &Spec, params: &TrialParams) -> Result<Json, String> {
    use ecrpq_analyze::minimize;
    let part = axis_str(params, "part")?;
    let (_, gen_params) = spec.generator_for(params)?;
    let seed: u64 = gen_params
        .get("seed")
        .and_then(|s| s.parse().ok())
        .ok_or("minimize workload needs an integer `seed`")?;
    match part.as_str() {
        "corpus" => {
            let corpus_dir = spec.workload_str("corpus_dir").unwrap_or("queries");
            let planted_nodes = spec.workload_usize("corpus_planted_nodes", 48);
            let mut rows = Vec::new();
            let mut shifted_count = 0usize;
            for (name, q) in minimize_corpus(corpus_dir, planted_nodes, seed) {
                let m = minimize(&q);
                let shifted = m.after_class != m.before_class;
                shifted_count += usize::from(shifted);
                rows.push(Json::Obj(vec![
                    ("query".into(), Json::str(name)),
                    ("before".into(), Json::str(m.before_class.to_string())),
                    ("after".into(), Json::str(m.after_class.to_string())),
                    ("steps".into(), Json::int(m.steps.len())),
                    ("shifted".into(), Json::Bool(shifted)),
                ]));
            }
            Ok(Json::Obj(vec![
                ("part".into(), Json::str("corpus")),
                ("corpus_size".into(), Json::int(rows.len())),
                ("regime_shifts".into(), Json::int(shifted_count)),
                ("rows".into(), Json::Arr(rows)),
            ]))
        }
        "planted" => {
            let generated = generate_workload(spec, params)?;
            let q = generated.query.ok_or("workload produced no query")?;
            let expected = generated.expected.ok_or("workload produced no answers")?;
            let db = generated.db;
            db.freeze();
            let m = minimize(&q);
            assert_eq!(
                m.steps.len(),
                3,
                "the three chords of the planted query must elide"
            );
            assert_ne!(
                m.before_class, m.after_class,
                "the planted query must shift regime"
            );
            let minimized_answers = planner::answers(&db, &q);
            let baseline_answers = planner::answers_without_minimize(&db, &q);
            assert_eq!(minimized_answers, expected, "minimized answers");
            assert_eq!(baseline_answers, expected, "baseline answers");
            let min_d = time_median(spec.reps, || planner::answers(&db, &q));
            let base_d = time_median(spec.reps, || planner::answers_without_minimize(&db, &q));
            Ok(Json::Obj(vec![
                ("part".into(), Json::str("planted")),
                ("nodes".into(), Json::int(db.num_nodes())),
                ("edges".into(), Json::int(db.num_edges())),
                ("answers".into(), Json::int(expected.len())),
                ("baseline_ms".into(), num(base_d.as_secs_f64() * 1e3)),
                ("minimized_ms".into(), num(min_d.as_secs_f64() * 1e3)),
            ]))
        }
        other => Err(format!(
            "minimize part must be corpus|planted, got `{other}`"
        )),
    }
}

/// The E22 mixed-regime query corpus: `(name, family, text)`. Finite
/// path languages keep the governed search depth-bounded so the prepare
/// work the cache amortizes dominates the cold path.
pub fn server_corpus() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("regex_reach", "ptime", "q(x, y) :- x -[p]-> y, p in a*b"),
        (
            "regex_path3",
            "ptime",
            "q(x, y) :- x -[p]-> y, p in (a|b)(a|b)a",
        ),
        (
            "k4_chords",
            "np",
            "q(w, z) :- w -[p1]-> x, x -[p2]-> y, y -[p3]-> z, \
             w -[c1]-> y, x -[c2]-> z, w -[c3]-> z, \
             p1 in a*b, p2 in a*b, p3 in a*b, \
             c1 in (a|b)*, c2 in (a|b)*, c3 in (a|b)*",
        ),
        (
            "eq_len_pair",
            "ptime",
            "q(x, z) :- x -[p1]-> y, x -[p2]-> y, y -[r]-> z, eq_len(p1, p2), \
             p1 in b|(a|b)(a|b)b, r in b",
        ),
        (
            "eq_len_triple",
            "pspace",
            "q(x) :- x -[p0]-> y, x -[p1]-> y, x -[p2]-> y, eq_len(p0, p1, p2), \
             p0 in a|aaa, p1 in a|aab, p2 in a|ab(a|b)",
        ),
    ]
}

/// E22 — the query service under concurrent closed-loop load, in one
/// mode (`cold` re-prepares every request, `cached` reuses the interned
/// plan). Every response is asserted bit-identical to a fresh
/// `planner::answers` run.
fn trial_server(spec: &Spec, params: &TrialParams) -> Result<Json, String> {
    let mode = axis_str(params, "mode")?;
    let cached = match mode.as_str() {
        "cached" => true,
        "cold" => false,
        other => return Err(format!("server mode must be cold|cached, got `{other}`")),
    };
    let clients = spec.workload_usize("clients", 4);
    let rounds = spec.workload_usize("rounds", 5);
    let generated = generate_workload(spec, params)?;
    let db = generated.db;
    db.freeze();
    let corpus = server_corpus();
    // Deterministic termination: a generous pure-configuration budget (no
    // wall-clock deadline) so every request completes and cold and cached
    // answers are comparable bit-for-bit.
    let opts = EvalOptions::sequential()
        .with_budget(ResourceBudget::unlimited().with_max_configurations(2_000_000_000));
    let expected: Vec<BTreeSet<Vec<u32>>> = corpus
        .iter()
        .map(|&(name, _, text)| {
            let mut alphabet = db.alphabet().clone();
            let relations = ecrpq_query::RelationRegistry::new();
            // lint:allow(unwrap): the fixed server corpus is known-parseable
            let q = ecrpq_query::parse_query(text, &mut alphabet, &relations).expect(name);
            planner::answers(&db, &q)
        })
        .collect();
    let service = QueryService::new(db.clone());
    if cached {
        // Warm pass: populate the plan cache and the lazy shared tables.
        for &(name, _, text) in &corpus {
            // lint:allow(unwrap): the fixed server corpus is known-parseable
            let r = service.execute(text, &opts).expect(name);
            assert!(r.termination.is_complete(), "{mode}/{name} warm-up");
        }
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let total = clients * rounds * corpus.len();
    let start = std::time::Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut lat = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let (name, _, text) = corpus[i % corpus.len()];
                        let r = if cached {
                            // lint:allow(unwrap): the fixed server corpus is known-parseable
                            service.execute(text, &opts).expect(name)
                        } else {
                            // lint:allow(unwrap): the fixed server corpus is known-parseable
                            service.execute_uncached(text, &opts).expect(name)
                        };
                        assert!(r.termination.is_complete(), "{mode}/{name}");
                        assert_eq!(
                            r.answers,
                            expected[i % corpus.len()],
                            "{mode}/{name} diverged from planner::answers"
                        );
                        lat.push(r.latency);
                    }
                    lat
                })
            })
            .collect();
        let mut all = Vec::with_capacity(total);
        for h in handles {
            // lint:allow(unwrap): a panicked client thread should abort the trial loudly
            all.extend(h.join().expect("client panicked"));
        }
        all
    });
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    let qps = total as f64 / wall;
    latencies.sort_unstable();
    let quantile_ms = |q: f64| -> f64 {
        let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
        latencies[idx.min(latencies.len() - 1)].as_secs_f64() * 1e3
    };
    let stats = service.stats();
    Ok(Json::Obj(vec![
        ("mode".into(), Json::str(mode)),
        ("requests".into(), Json::int(latencies.len())),
        ("queries_per_sec".into(), num(qps)),
        ("p50_ms".into(), num(quantile_ms(0.50))),
        ("p99_ms".into(), num(quantile_ms(0.99))),
        ("cache_hits".into(), Json::int(stats.cache_hits)),
        ("cache_misses".into(), Json::int(stats.cache_misses)),
        ("cached_plans".into(), Json::int(stats.cached_plans)),
        ("corpus".into(), Json::int(corpus.len())),
        ("clients".into(), Json::int(clients)),
        ("rounds".into(), Json::int(rounds)),
        ("nodes".into(), Json::int(db.num_nodes())),
        ("edges".into(), Json::int(db.num_edges())),
    ]))
}

/// E15 — one product-search data layout on the flower embedding
/// instance; the aggregator asserts the answer checksum matches across
/// the layout axis.
fn trial_layout(spec: &Spec, params: &TrialParams) -> Result<Json, String> {
    let layout_name = axis_str(params, "layout")?;
    let layout = layout_by_name(&layout_name)?;
    let generated = generate_workload(spec, params)?;
    let q = generated.query.ok_or("workload produced no query")?;
    let db = generated.db;
    // lint:allow(unwrap): generated workload queries are well-formed by construction
    let prepared = PreparedQuery::build(&q).expect("valid");
    let opts = EvalOptions::sequential().with_layout(layout);
    let (answers, stats) = product_answers_with_stats(&db, &prepared, &opts);
    let d = time_median(spec.reps, || {
        product_answers_with_stats(&db, &prepared, &opts)
    });
    let ns_per_config = d.as_nanos() as f64 / stats.configurations.max(1) as f64;
    let rate = stats.configurations as f64 / d.as_secs_f64().max(1e-9);
    Ok(Json::Obj(vec![
        ("layout".into(), Json::str(layout_name)),
        ("answers".into(), Json::int(answers.len())),
        ("configs".into(), Json::int(stats.configurations)),
        ("time_ms".into(), num(d.as_secs_f64() * 1e3)),
        ("ns_per_config".into(), num(ns_per_config)),
        ("configs_per_sec".into(), num(rate)),
        ("nodes".into(), Json::int(db.num_nodes())),
        ("edges".into(), Json::int(db.num_edges())),
        ("answers_fnv".into(), answers_checksum(&answers)),
    ]))
}

/// E17 — the governed engine at one budget point: a configuration cap
/// set to a fraction of the unbudgeted total work, or a wall-clock
/// deadline (`deadline<N>ms`). Partial answers are asserted sound.
fn trial_budget(spec: &Spec, params: &TrialParams) -> Result<Json, String> {
    let budget = axis_str(params, "budget")?;
    let generated = generate_workload(spec, params)?;
    let q = generated.query.ok_or("workload produced no query")?;
    let db = generated.db;
    db.freeze();
    // lint:allow(unwrap): generated workload queries are well-formed by construction
    let prepared = PreparedQuery::build(&q).expect("valid");
    let (full, stats) = product_answers_with_stats(&db, &prepared, &EvalOptions::sequential());
    let total_work = stats.configurations.max(1);
    let (opts, cap) = if let Some(ms) = budget
        .strip_prefix("deadline")
        .and_then(|s| s.strip_suffix("ms"))
    {
        let ms: u64 = ms
            .parse()
            .map_err(|e| format!("bad deadline budget `{budget}`: {e}"))?;
        (
            EvalOptions::sequential()
                .with_budget(ResourceBudget::unlimited().with_deadline(Duration::from_millis(ms))),
            0u64,
        )
    } else {
        let fraction: f64 = budget
            .parse()
            .map_err(|e| format!("bad budget fraction `{budget}`: {e}"))?;
        let cap = ((total_work as f64 * fraction) as u64).max(1);
        (
            EvalOptions::sequential()
                .with_budget(ResourceBudget::unlimited().with_max_configurations(cap)),
            cap,
        )
    };
    let start = std::time::Instant::now();
    let o = engine::answers_product_governed_traced(&db, &prepared, &opts, &NoopTracer);
    let d = start.elapsed();
    assert!(o.answers.is_subset(&full), "partial answers must be sound");
    if o.termination.is_complete() && cap > 0 {
        assert_eq!(o.answers, full, "Complete must be bit-identical");
    }
    let recovered = 100.0 * o.answers.len() as f64 / full.len().max(1) as f64;
    Ok(Json::Obj(vec![
        ("budget".into(), Json::str(budget)),
        ("cap".into(), Json::int(cap)),
        ("answers".into(), Json::int(o.answers.len())),
        ("recovered_pct".into(), num(recovered)),
        ("termination".into(), Json::str(o.termination.to_string())),
        ("time_ms".into(), num(d.as_secs_f64() * 1e3)),
        ("total_work".into(), Json::int(total_work)),
        ("full_answers".into(), Json::int(full.len())),
        ("nodes".into(), Json::int(db.num_nodes())),
        ("edges".into(), Json::int(db.num_edges())),
    ]))
}

/// E18 Part A — one regime workload under the collecting tracer: where
/// the wall time went, as per-phase percentages.
fn trial_observability(spec: &Spec, params: &TrialParams) -> Result<Json, String> {
    let workload = axis_str(params, "workload")?;
    let generated = generate_workload(spec, params)?;
    let q = generated.query.ok_or("workload produced no query")?;
    let db = generated.db;
    let o = answers_traced(&db, &q, &EvalOptions::sequential());
    assert!(o.termination.is_complete());
    let m = o.metrics.as_ref().ok_or("answers_traced folds metrics")?;
    let total = m.total_nanos().max(1);
    let pct = |p: Phase| num(100.0 * m.phase(p).nanos as f64 / total as f64);
    Ok(Json::Obj(vec![
        ("workload".into(), Json::str(workload)),
        ("answers".into(), Json::int(o.answers.len())),
        ("total_ms".into(), num(total as f64 / 1e6)),
        ("prepare_pct".into(), pct(Phase::Prepare)),
        ("semijoin_pct".into(), pct(Phase::Semijoin)),
        ("bfs_pct".into(), pct(Phase::ProductBfs)),
        ("odometer_pct".into(), pct(Phase::Odometer)),
        ("cqjoin_pct".into(), pct(Phase::CqJoin)),
        ("bags_pct".into(), pct(Phase::TreedecBags)),
    ]))
}
