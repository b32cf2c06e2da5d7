//! The experiment harness: regenerates every table of `EXPERIMENTS.md`.
//!
//! Usage: `cargo run --release -p ecrpq-bench --bin experiments [--threads N] [E1 E2 …]`
//! (no experiment arguments = run everything). Each experiment prints a
//! markdown table plus the fitted log–log slopes used to check the paper's
//! complexity predictions. `--threads N` sets the worker count used by the
//! parallel-engine experiment E14 (default: all available cores).

use ecrpq_bench::{
    complete, fmt_duration, loglog_slope, product_answers_with_stats, time_median, Table,
};
use ecrpq_core::cq_eval::{eval_cq, ReducedCq};
use ecrpq_core::product::eval_product_with_stats;
use ecrpq_core::{ecrpq_to_cq, engine, eval_product, EvalOptions, PreparedQuery};
use ecrpq_query::Ecrpq;
use ecrpq_reductions::{
    cq_to_ecrpq, ine_to_ecrpq_big_component, intersection_nonempty, pie_to_ecrpq_chain, CollapseCq,
};
use ecrpq_structure::TwoLevelGraph;
use ecrpq_workloads::{
    big_component_query, clique_query, cycle_db, planted_ine, random_db, tractable_chain_query,
};
use std::time::Duration;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads = 0usize; // 0 = all available cores
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let value = args.get(i + 1).and_then(|v| v.parse().ok());
        let Some(n) = value else {
            eprintln!("--threads requires a numeric argument");
            std::process::exit(2);
        };
        threads = n;
        args.drain(i..=i + 1);
    }
    let all = args.is_empty();
    let want = |name: &str| all || args.iter().any(|a| a.eq_ignore_ascii_case(name));

    println!("# ECRPQ experiment harness");
    println!("# (Figueira & Ramanathan, PODS 2022 — reproduction)");
    println!();
    if want("E1") {
        e1_tractable();
    }
    if want("E2") {
        e2_np_regime();
    }
    if want("E3") {
        e3_pspace_regime();
    }
    if want("E4") {
        e4_fpt();
    }
    if want("E5") {
        e5_xnl();
    }
    if want("E6") {
        e6_merge_blowup();
    }
    if want("E7") {
        e7_materialization();
    }
    if want("E8") {
        e8_crossover();
    }
    if want("E10") {
        e10_data_complexity();
    }
    if want("E11") {
        e11_lemma53();
    }
    if want("E12") {
        e12_ablations();
    }
    if want("E13") {
        e13_counting();
    }
    if want("E14") {
        e14_thread_scaling(threads);
    }
    if want("E17") {
        e17_budget();
    }
    if want("E18") {
        e18_observability();
    }
    if want("E19") {
        e19_bitparallel();
    }
    if want("E20") {
        e20_yannakakis();
    }
    if want("E21") {
        e21_minimize();
    }
    if want("E22") {
        e22_server();
    }
}

/// E22 — Query service: prepared-plan cache under concurrent closed-loop
/// load, driven by the declarative spec at `experiments/e22.toml`
/// (trial boundary: `ecrpq_bench::harness::trial`).
fn e22_server() {
    println!("## E22 — Query service: prepared-plan cache under concurrent load");
    println!();
    println!("Four closed-loop clients replay a mixed corpus (two PTIME regex");
    println!("reachability queries, the NP-family K4 chord query whose chords");
    println!("the minimizer elides, a PTIME eq_len pair and a PSPACE-family");
    println!("eq_len triple) against one `QueryService`. Cold mode pays the full");
    println!("pipeline per request — parse, analyze, minimize, compile, table");
    println!("build / CQ materialization — while cached mode reuses the interned");
    println!("plan and its shared tables and only runs the governed search with");
    println!("a fresh per-request governor. Every response is asserted");
    println!("bit-identical to a fresh `planner::answers` run, in both modes,");
    println!("every round.");
    println!();
    run_harness("experiments/e22.toml");
}

/// E21 — Semantic regime minimization: the verified rewrite search of
/// `ecrpq-analyze::minimize`, driven by the declarative spec at
/// `experiments/e21.toml`. The corpus builder lives in
/// `ecrpq_bench::harness::trial::minimize_corpus`.
fn e21_minimize() {
    println!("## E21 — Semantic regime minimization: verified rewrite search");
    println!();
    println!("Every corpus query runs through the bounded best-first rewrite search");
    println!("(equality contraction, parallel-atom merge, universal-atom drops,");
    println!("implied-reachability elision — each step admitted only after a");
    println!("two-way containment check). The regime shifts per Theorem 3.2 are");
    println!("recorded before and after. The planted instance is the K4 chord query");
    println!("on decoy a-cycles: its chords are implied by the chain, so");
    println!("minimization turns the cyclic NP-regime query (direct product search)");
    println!("into a chain (Yannakakis), and the pipeline speedup is end-to-end,");
    println!("minimization time included.");
    println!();
    run_harness("experiments/e21.toml");
}

/// E20 — the product route's Yannakakis full reducer + streaming
/// enumeration, sequentially, on the planted acyclic low-output instance,
/// driven by the declarative spec at `experiments/e20.toml` (the CI smoke
/// run passes `--smoke` to the harness instead).
fn e20_yannakakis() {
    println!("## E20 — Acyclicity-aware planning: Yannakakis + streaming on the product route");
    println!();
    println!("The planted acyclic instance: `n` decoy vertices in `a`-cycles plus a");
    println!("planted chain of `k` heads reaching the sink through a `b`-chain,");
    println!("queried with `q(x, z) :- x -[p]-> y, y -[r]-> z, p in aa*, r in bb*d`.");
    println!("The query has a join tree, so the product tables run the Yannakakis");
    println!("full reducer, which shrinks D(x) to the k chain heads: the sequential");
    println!("run's cost scales with k, not n. Answers are checked at every k.");
    println!();
    run_harness("experiments/e20.toml");
}

/// E19 — configs/s on the planted power-law instance at 1/2/4/8 worker
/// threads, driven by the declarative spec at
/// `experiments/e19.toml` (the CI smoke run passes `--smoke` to the
/// harness instead).
fn e19_bitparallel() {
    println!("## E19 — Arity-1 sweep on a million-node graph: configs/s by thread count");
    println!();
    println!("The planted power-law reachability instance: a scale-free core over");
    println!("labels {{a, b}}, 8 source vertices entering the hub by a `c`-edge and");
    println!("one sink behind a 64-vertex chain tail, queried with");
    println!("`q(x) :- x -[p]-> y, p in c(a|b)*d`. The semijoin prunes the");
    println!("endpoint domains to the 8 sources and the single sink; the atom");
    println!("has arity 1, so each worker decides it by one single-track sweep");
    println!("backwards from the sink over essentially the whole core. The");
    println!("serial table build (dense tables, semijoin sweep) is hoisted into");
    println!("a `PreparedTables` outside the timed region, so the threads column");
    println!("shows the scaling of the parallel search alone (the build cost is");
    println!("reported separately below). Answer sets are asserted identical at");
    println!("every thread count.");
    println!();
    run_harness("experiments/e19.toml");
}

fn e18_observability() {
    use ecrpq_core::CollectingTracer;
    println!("## E18 — Observability: per-phase time split and tracer overhead");
    println!();
    println!("Part A runs one workload per complexity regime under the collecting");
    println!("tracer and reports where the wall time went: the PTIME chain spends");
    println!("its time in the tree-decomposition join (CQ strategy), the small NP");
    println!("clique is also routed through the CQ join, and the PSPACE flower");
    println!("lives in the product BFS (direct strategy). Part B measures the");
    println!("cost of the tracer");
    println!("itself on the E14 flower instance: `NoopTracer` is a");
    println!("monomorphized no-op and serves as the baseline;");
    println!("`CollectingTracer` pays relaxed atomic increments.");
    println!();
    // Part A — phase split per regime, driven by the declarative spec.
    run_harness("experiments/e18.toml");
    // Part B — tracer overhead on the E14 flower instance.
    let r = 3usize;
    let alphabet = ecrpq_automata::Alphabet::ascii_lower(2);
    let (langs, _) = planted_ine(r, 4, 2, 3, 31 + r as u64);
    let g = flower_graph(r);
    let (mut q, db) = ine_to_ecrpq_big_component(&langs, &alphabet, &g).expect("reduction");
    let all_vars: Vec<ecrpq_query::NodeVar> = (0..q.num_node_vars() as u32)
        .map(ecrpq_query::NodeVar)
        .collect();
    q.set_free(&all_vars);
    let prepared = PreparedQuery::build(&q).expect("valid");
    let opts = EvalOptions::sequential();
    let run = |mode: &str| match mode {
        "noop" => product_answers_with_stats(&db, &prepared, &opts),
        _ => {
            let tracer = CollectingTracer::new();
            complete(engine::answers_product_governed_traced(
                &db, &prepared, &opts, &tracer,
            ))
        }
    };
    let (base_answers, stats) = run("noop");
    let configs = stats.configurations.max(1);
    let mut t = Table::new(&["tracer", "answers", "time", "ns/config", "overhead"]);
    let mut base_ns = 0.0f64;
    for mode in ["noop", "collecting"] {
        assert_eq!(
            run(mode).0,
            base_answers,
            "tracer {mode} changed the answer set"
        );
        let d = time_median(5, || run(mode));
        let ns = d.as_nanos() as f64 / configs as f64;
        if mode == "noop" {
            base_ns = ns;
        }
        t.row(&[
            mode.to_string(),
            base_answers.len().to_string(),
            fmt_duration(d),
            format!("{ns:.0}"),
            format!("{:+.1}%", 100.0 * (ns - base_ns) / base_ns.max(1e-9)),
        ]);
    }
    println!("{}", t.to_markdown());
    println!("`untraced` and `noop` compile to the same machine code (the tracer");
    println!("is a zero-sized type behind `const ENABLED: bool = false`), so any");
    println!("difference between those rows is measurement noise. The collecting");
    println!("row bounds the cost of always-on production metrics.");
    println!();
}

fn e17_budget() {
    println!("## E17 — Resource governance: answers recovered vs. budget fraction");
    println!();
    println!("A PSPACE-regime workload (big_component r=3: three equal-length");
    println!("paths between free endpoints, so `cc_vertex = 3` drives a");
    println!("`|Q|·|V|^3` configuration space) enumerated under configuration");
    println!("budgets set to fractions of the unbudgeted total work. The governed");
    println!("engine returns the sound partial answer set found before the cap");
    println!("tripped; `recovered` is its size relative to the complete set. A");
    println!("wall-clock deadline row shows the same truncation driven by time");
    println!("instead of work.");
    println!();
    run_harness("experiments/e17.toml");
    println!("Answers recovered grow monotonically with the budget (the");
    println!("sequential search is deterministic, so a larger cap replays the");
    println!("same prefix and then keeps going). The cap fractions are relative");
    println!("to the reported BFS configuration count, but the governor also");
    println!("meters the semijoin sweeps and the answer odometer, so the 100%");
    println!("row recovers every answer yet still trips just past the last one;");
    println!("the 200% row completes and is asserted bit-identical to the");
    println!("ungoverned run.");
    println!();
}

/// Run a declarative experiment spec through the harness driver, honoring
/// cached trial results under its content-addressed key. All per-trial
/// measurement and the aggregated JSON trajectory live behind
/// `ecrpq_bench::harness`; this bin only narrates and delegates.
fn run_harness(spec_path: &str) {
    use ecrpq_bench::harness::{run_spec_path, RunOptions};
    match run_spec_path(std::path::Path::new(spec_path), &RunOptions::default()) {
        Ok(summary) => println!("(wrote {})", summary.aggregate_path.display()),
        Err(e) => {
            eprintln!("harness: {e}");
            std::process::exit(1);
        }
    }
    println!();
}

/// Throughput in product configurations per second, humanized.
fn fmt_rate(configs: u64, d: Duration) -> String {
    let rate = configs as f64 / d.as_secs_f64().max(1e-9);
    if rate >= 1e6 {
        format!("{:.1}M/s", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k/s", rate / 1e3)
    } else {
        format!("{rate:.0}/s")
    }
}

fn e14_thread_scaling(threads: usize) {
    println!("## E14 — Parallel engine: thread scaling on the PSPACE-regime workload");
    println!();
    println!("The E3 flower instance (r planted-intersection NFAs) with free");
    println!("endpoints, enumerated by the parallel product engine at increasing");
    println!("worker counts. Answer sets are asserted identical to the sequential");
    println!("evaluator at every thread count; speedup is relative to 1 thread.");
    println!();
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let top = if threads == 0 { avail } else { threads };
    println!("(available parallelism: {avail}; --threads {threads})");
    println!();
    let r = 3usize;
    let alphabet = ecrpq_automata::Alphabet::ascii_lower(2);
    let (langs, _) = planted_ine(r, 4, 2, 3, 31 + r as u64);
    let g = flower_graph(r);
    let (mut q, db) = ine_to_ecrpq_big_component(&langs, &alphabet, &g).expect("reduction");
    let all_vars: Vec<ecrpq_query::NodeVar> = (0..q.num_node_vars() as u32)
        .map(ecrpq_query::NodeVar)
        .collect();
    q.set_free(&all_vars);
    let prepared = PreparedQuery::build(&q).expect("valid");
    let run = |opts: &EvalOptions| product_answers_with_stats(&db, &prepared, opts);
    let baseline = run(&EvalOptions::sequential()).0;
    let base_time = time_median(3, || run(&EvalOptions::sequential()));
    let mut t = Table::new(&["threads", "answers", "time", "speedup", "configs/s"]);
    let mut counts: Vec<usize> = vec![1];
    let mut n = 2;
    while n <= top {
        counts.push(n);
        n *= 2;
    }
    if *counts.last().unwrap() != top && top > 1 {
        counts.push(top);
    }
    for &n in &counts {
        let opts = EvalOptions::with_threads(n);
        let (answers, stats) = run(&opts);
        assert_eq!(answers, baseline, "parallel answers diverge at {n} threads");
        let d = time_median(3, || run(&opts));
        t.row(&[
            n.to_string(),
            answers.len().to_string(),
            fmt_duration(d),
            format!(
                "{:.2}x",
                base_time.as_secs_f64() / d.as_secs_f64().max(1e-9)
            ),
            fmt_rate(stats.configurations, d),
        ]);
    }
    println!("{}", t.to_markdown());
    println!("Speedup saturates at the machine's core count; on a single-core");
    println!("host the table only demonstrates that the partitioned search does");
    println!("not lose answers or pay more than a small coordination overhead.");
    println!();
}

fn e13_counting() {
    use ecrpq_core::counting::count_ecrpq_assignments;
    use ecrpq_core::product::answers_product;
    use ecrpq_query::NodeVar;
    println!("## E13 — #ECRPQ: counting beats enumeration in the tractable regime");
    println!();
    println!("Counting satisfying node assignments via the tree-decomposition DP");
    println!("(after Lemma 4.3) vs. enumerating all assignments with the product");
    println!("evaluator. Both polynomial (bounded measures), but the DP avoids");
    println!("holding the answer set.");
    println!();
    let mut t = Table::new(&["n", "#assignments", "count (DP)", "enumerate (product)"]);
    for &n in &[16usize, 32, 48, 64] {
        let db = cycle_db(n, 1);
        let mut q = tractable_chain_query(2, 1);
        let all: Vec<NodeVar> = (0..q.num_node_vars() as u32).map(NodeVar).collect();
        q.set_free(&all);
        let prepared = PreparedQuery::build(&q).unwrap();
        let count = count_ecrpq_assignments(&db, &prepared);
        let enumerated = answers_product(&db, &prepared).len() as u64;
        assert_eq!(count, enumerated, "count/enumerate disagree");
        let d1 = time_median(1, || count_ecrpq_assignments(&db, &prepared));
        let d2 = time_median(1, || answers_product(&db, &prepared));
        t.row(&[
            n.to_string(),
            count.to_string(),
            fmt_duration(d1),
            fmt_duration(d2),
        ]);
    }
    println!("{}", t.to_markdown());
    println!();
}

fn e12_ablations() {
    use ecrpq_automata::relations;
    println!("## E12 — Ablations: relation representation costs");
    println!();
    println!("(a) The bounded edit-distance construction (banded DP frontier):");
    println!("automaton size grows exponentially in d — inherent for synchronous");
    println!("representations of edit distance — and mildly in |A|.");
    println!();
    let mut t = Table::new(&["d", "|A|", "states", "minimized", "build time"]);
    for d in [0usize, 1, 2] {
        for m in [2usize, 4] {
            let dur = time_median(1, || relations::edit_distance_le(d, m));
            let rel = relations::edit_distance_le(d, m);
            let min = rel.minimized();
            t.row(&[
                d.to_string(),
                m.to_string(),
                rel.num_states().to_string(),
                min.num_states().to_string(),
                fmt_duration(dur),
            ]);
        }
    }
    println!("{}", t.to_markdown());
    println!("(b) Canonical minimization of merged relations (Lemma 4.1 outputs):");
    println!("the hamming-chain merge of E6 is already minimal — the 2^ℓ blow-up");
    println!("is information-theoretic, not representational slack.");
    println!();
    let mut t2 = Table::new(&["ℓ", "merged states", "minimized states"]);
    for l in [1usize, 2, 3, 4] {
        let q = hamming_chain_query(l);
        let plain = PreparedQuery::build(&q).unwrap();
        let opt = PreparedQuery::build_optimized(&q).unwrap();
        t2.row(&[
            l.to_string(),
            plain.total_states().to_string(),
            opt.total_states().to_string(),
        ]);
    }
    println!("{}", t2.to_markdown());
    println!();
}

/// Evaluates through the tractable pipeline (Lemma 4.1 merge + Lemma 4.3
/// materialization + tree-decomposition CQ evaluation).
fn eval_pipeline(db: &ecrpq_graph::GraphDb, q: &Ecrpq) -> bool {
    let prepared = PreparedQuery::build(q).expect("valid query");
    ReducedCq::of_prepared(db, &prepared).is_satisfiable()
}

fn e1_tractable() {
    println!("## E1 — Theorem 3.2(3): bounded measures ⇒ polynomial time");
    println!();
    println!("Query: chain of eq-length diamonds (cc_vertex=2, cc_hedge=1, tw=1);");
    println!("database: single-label cycle. Expect polynomial data scaling");
    println!("(degree ≈ 3 on cycles: |R'| = n³ per component) and linear growth");
    println!("in the number of chain components.");
    println!();
    let ns = [24usize, 48, 96, 144];
    let mut t = Table::new(&["n (db nodes)", "m=1", "m=2", "m=4"]);
    let mut times_m2: Vec<f64> = Vec::new();
    for &n in &ns {
        let db = cycle_db(n, 1);
        let mut cells = vec![n.to_string()];
        for m in [1usize, 2, 4] {
            let q = tractable_chain_query(m, 1);
            let d = time_median(1, || eval_pipeline(&db, &q));
            if m == 2 {
                times_m2.push(d.as_secs_f64());
            }
            cells.push(fmt_duration(d));
        }
        t.row(&cells);
    }
    println!("{}", t.to_markdown());
    let xs: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    println!(
        "fitted data-complexity degree at m=2: {:.2} (predicted ≈ 3 on cycles, bound 2·cc_vertex = 4)",
        loglog_slope(&xs, &times_m2)
    );
    println!();
}

fn e2_np_regime() {
    println!("## E2 — Theorem 3.2(2): bounded cc, unbounded treewidth ⇒ NP regime");
    println!();
    println!("Query: k-clique CRPQ pattern over (a|b)* (cc_vertex=1, tw=k−1);");
    println!("database: random, 24 nodes. Expect super-polynomial growth in k at");
    println!("fixed n, polynomial growth in n at fixed k.");
    println!();
    let mut t = Table::new(&["k (clique size)", "tw(q)", "time"]);
    for k in [2usize, 3, 4, 5] {
        let db = random_db(24, 1.5, 2, 7);
        let mut alphabet = db.alphabet().clone();
        let q = clique_query(k, "(a|b)*", &mut alphabet);
        let db = reconcile_alphabet(db, &alphabet);
        let d = time_median(3, || eval_pipeline(&db, &q));
        t.row(&[k.to_string(), (k - 1).to_string(), fmt_duration(d)]);
    }
    println!("{}", t.to_markdown());
    let ns = [12usize, 16, 24, 32, 48];
    let mut t2 = Table::new(&["n (db nodes)", "time (k=3)"]);
    let mut times: Vec<f64> = Vec::new();
    for &n in &ns {
        let db = random_db(n, 1.5, 2, 7);
        let mut alphabet = db.alphabet().clone();
        let q = clique_query(3, "(a|b)*", &mut alphabet);
        let db = reconcile_alphabet(db, &alphabet);
        let d = time_median(3, || eval_pipeline(&db, &q));
        times.push(d.as_secs_f64());
        t2.row(&[n.to_string(), fmt_duration(d)]);
    }
    println!("{}", t2.to_markdown());
    let xs: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    println!(
        "fitted data-complexity degree at k=3: {:.2} (polynomial, as Theorem 3.2(2) predicts for data)",
        loglog_slope(&xs, &times)
    );
    println!();
}

fn e3_pspace_regime() {
    println!("## E3 — Theorem 3.2(1) + Lemma 5.1: unbounded components ⇒ PSPACE regime");
    println!();
    println!("INE instances (r planted-intersection NFAs, 4 states each) embedded");
    println!("via the Lemma 5.1 case-1 reduction into a flower 2L graph with an");
    println!("r-vertex component. Expect runtime/configuration growth exponential");
    println!("in r (the query-side parameter), matching PSPACE-hardness.");
    println!();
    let mut t = Table::new(&[
        "r (languages)",
        "answer",
        "product configs",
        "time",
        "configs/s",
    ]);
    for r in [1usize, 2, 3, 4, 5] {
        let alphabet = ecrpq_automata::Alphabet::ascii_lower(2);
        let (langs, _) = planted_ine(r, 4, 2, 3, 31 + r as u64);
        let g = flower_graph(r);
        let (q, db) = ine_to_ecrpq_big_component(&langs, &alphabet, &g).expect("reduction");
        let prepared = PreparedQuery::build(&q).expect("valid");
        let (res, stats) = eval_product_with_stats(&db, &prepared);
        assert!(res, "planted intersection must be non-empty");
        let d = time_median(3, || eval_product(&db, &prepared));
        t.row(&[
            r.to_string(),
            res.to_string(),
            stats.configurations.to_string(),
            fmt_duration(d),
            fmt_rate(stats.configurations, d),
        ]);
    }
    println!("{}", t.to_markdown());
    println!();
}

fn e4_fpt() {
    println!("## E4 — Theorem 3.1(3): FPT — data exponent independent of query size");
    println!();
    println!("Tractable chain queries of size m on single-label cycles; the fitted");
    println!("polynomial degree in n must stay ≈ constant as m grows (time =");
    println!("f(m)·n^c), the FPT signature.");
    println!();
    let ns = [24usize, 48, 72, 96];
    let mut t = Table::new(&["m (query size)", "fitted degree c", "time at n=96"]);
    for m in [1usize, 2, 4, 6] {
        let q = tractable_chain_query(m, 1);
        let mut times: Vec<f64> = Vec::new();
        let mut t96 = Duration::ZERO;
        for &n in &ns {
            let db = cycle_db(n, 1);
            let d = time_median(1, || eval_pipeline(&db, &q));
            times.push(d.as_secs_f64());
            if n == 96 {
                t96 = d;
            }
        }
        let xs: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
        t.row(&[
            m.to_string(),
            format!("{:.2}", loglog_slope(&xs, &times)),
            fmt_duration(t96),
        ]);
    }
    println!("{}", t.to_markdown());
    println!();
}

fn e5_xnl() {
    println!("## E5 — Theorem 3.1(1) + Lemma 5.4: p-IE embeds, parameter = #automata");
    println!();
    println!("p-IE instances (k planted-intersection NFAs) embedded via the");
    println!("Lemma 5.4 chain reduction; runtime grows with the parameter k but");
    println!("stays polynomial in automaton size at fixed k (XNL behaviour).");
    println!();
    let mut t = Table::new(&[
        "k (automata)",
        "answer",
        "oracle agrees",
        "configs",
        "time",
        "configs/s",
    ]);
    for k in [1usize, 2, 3, 4] {
        let alphabet = ecrpq_automata::Alphabet::ascii_lower(2);
        let (langs, _) = planted_ine(k, 4, 2, 3, 17 + k as u64);
        let g = chain_2l_graph(k);
        let (q, db) = pie_to_ecrpq_chain(&langs, &alphabet, &g).expect("reduction");
        let prepared = PreparedQuery::build(&q).expect("valid");
        let (res, stats) = eval_product_with_stats(&db, &prepared);
        let oracle = intersection_nonempty(&langs);
        let d = time_median(3, || eval_product(&db, &prepared));
        t.row(&[
            k.to_string(),
            res.to_string(),
            (res == oracle).to_string(),
            stats.configurations.to_string(),
            fmt_duration(d),
            fmt_rate(stats.configurations, d),
        ]);
    }
    println!("{}", t.to_markdown());
    // automaton-size sweep at fixed k
    let mut t2 = Table::new(&["NFA states (k=2)", "time"]);
    let mut times = Vec::new();
    let sizes = [4usize, 8, 12, 16];
    for &s in &sizes {
        let alphabet = ecrpq_automata::Alphabet::ascii_lower(2);
        let (langs, _) = planted_ine(2, s, 2, 3, 23);
        let g = chain_2l_graph(2);
        let (q, db) = pie_to_ecrpq_chain(&langs, &alphabet, &g).expect("reduction");
        let prepared = PreparedQuery::build(&q).expect("valid");
        let d = time_median(1, || eval_product(&db, &prepared));
        times.push(d.as_secs_f64());
        t2.row(&[s.to_string(), fmt_duration(d)]);
    }
    println!("{}", t2.to_markdown());
    let xs: Vec<f64> = sizes.iter().map(|&s| s as f64).collect();
    println!(
        "fitted degree in automaton size at k=2: {:.2} (polynomial at fixed parameter)",
        loglog_slope(&xs, &times)
    );
    println!();
}

fn e6_merge_blowup() {
    println!("## E6 — Lemma 4.1: merged-relation size is the product of component sizes");
    println!();
    println!("A component of ℓ chained hamming≤1 atoms (each a 2-state automaton)");
    println!("over ℓ+1 path variables; the merged automaton tracks one mismatch");
    println!("budget per atom ⇒ ≈ 2^ℓ states (exponential in cc_hedge).");
    println!();
    let mut t = Table::new(&["ℓ (atoms in component)", "merged states", "merge time"]);
    for l in [1usize, 2, 3, 4, 5, 6] {
        let q = hamming_chain_query(l);
        let d = time_median(1, || PreparedQuery::build(&q).expect("valid"));
        let prepared = PreparedQuery::build(&q).expect("valid");
        t.row(&[
            l.to_string(),
            prepared.total_states().to_string(),
            fmt_duration(d),
        ]);
    }
    println!("{}", t.to_markdown());
    println!();
}

fn e7_materialization() {
    println!("## E7 — Lemma 4.3: materialization cost O(|D|^(2·cc_vertex))");
    println!();
    println!("r-track equal-length components on single-label cycles: |R'| = n^(r+1)");
    println!("exactly (shared distance), within the paper's |D|^(2r) bound. Fitted");
    println!("degrees must be ≈ r+1.");
    println!();
    let mut t = Table::new(&["r", "n", "R' tuples", "time"]);
    for r in [1usize, 2, 3] {
        let ns: Vec<usize> = match r {
            1 => vec![32, 64, 128, 256],
            2 => vec![16, 24, 32, 48],
            _ => vec![8, 12, 16, 20],
        };
        let mut tuples: Vec<f64> = Vec::new();
        let xs: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
        for &n in &ns {
            let db = cycle_db(n, 1);
            let q = if r == 1 {
                // single universal path atom
                let mut q = Ecrpq::new(db.alphabet().clone());
                let x = q.node_var("x");
                let y = q.node_var("y");
                q.path_atom(x, "p", y);
                q
            } else {
                big_component_query(r, 1)
            };
            let prepared = PreparedQuery::build(&q).expect("valid");
            let (_, _, stats) = ecrpq_to_cq(&db, &prepared);
            let d = time_median(1, || ecrpq_to_cq(&db, &prepared));
            tuples.push(stats.tuples as f64);
            t.row(&[
                r.to_string(),
                n.to_string(),
                stats.tuples.to_string(),
                fmt_duration(d),
            ]);
        }
        println!(
            "r={r}: fitted tuple-count degree {:.2} (predicted {}, bound {})",
            loglog_slope(&xs, &tuples),
            r + 1,
            2 * r
        );
    }
    println!("{}", t.to_markdown());
    println!();
}

fn e8_crossover() {
    println!("## E8 — Planner crossover: direct product vs CQ pipeline");
    println!();
    println!("Full answer computation (free endpoints), both strategies, two");
    println!("query shapes. For the bounded chain the CQ pipeline amortizes the");
    println!("materialization across answers; for the 3-track component the");
    println!("product search avoids the n⁴ materialization. The answer sets are");
    println!("asserted equal (differential check).");
    println!();
    let mut t = Table::new(&[
        "n",
        "chain m=2: product",
        "chain m=2: CQ pipeline",
        "bigcomp r=3: product",
        "bigcomp r=3: CQ pipeline",
    ]);
    for &n in &[8usize, 16, 24, 32] {
        let db = cycle_db(n, 1);
        let mut chain = tractable_chain_query(2, 1);
        let free_chain: Vec<_> = [0u32, 2].iter().map(|&v| ecrpq_query::NodeVar(v)).collect();
        chain.set_free(&free_chain);
        let mut big = big_component_query(3, 1);
        big.set_free(&[ecrpq_query::NodeVar(0), ecrpq_query::NodeVar(1)]);
        let pc = PreparedQuery::build(&chain).unwrap();
        let pb = PreparedQuery::build(&big).unwrap();
        use ecrpq_core::product::answers_product;
        let pipeline = |p: &PreparedQuery| ReducedCq::of_prepared(&db, p).answers();
        assert_eq!(
            answers_product(&db, &pc),
            pipeline(&pc),
            "strategies disagree on chain answers"
        );
        assert_eq!(
            answers_product(&db, &pb),
            pipeline(&pb),
            "strategies disagree on component answers"
        );
        let d1 = time_median(1, || answers_product(&db, &pc));
        let d2 = time_median(1, || pipeline(&pc));
        let d3 = time_median(1, || answers_product(&db, &pb));
        let d4 = time_median(1, || pipeline(&pb));
        t.row(&[
            n.to_string(),
            fmt_duration(d1),
            fmt_duration(d2),
            fmt_duration(d3),
            fmt_duration(d4),
        ]);
    }
    println!("{}", t.to_markdown());
    println!();
}

fn e10_data_complexity() {
    println!("## E10 — NL data complexity: fixed query, polynomial data scaling in every regime");
    println!();
    let ns = [32usize, 64, 96, 128];
    let xs: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    let mut t = Table::new(&["query family", "fitted degree", "time at n=128"]);
    // PTIME-regime query
    {
        let q = tractable_chain_query(2, 1);
        let (slope, t128) = sweep(&ns, &xs, |n| {
            let db = cycle_db(n, 1);
            time_median(1, || eval_pipeline(&db, &q))
        });
        t.row(&[
            "chain m=2 (PTIME regime)".into(),
            format!("{slope:.2}"),
            t128,
        ]);
    }
    // NP-regime query (fixed k)
    {
        let (slope, t128) = sweep(&ns, &xs, |n| {
            let db = random_db(n, 1.5, 2, 3);
            let mut alphabet = db.alphabet().clone();
            let q = clique_query(3, "(a|b)*", &mut alphabet);
            let db = reconcile_alphabet(db, &alphabet);
            time_median(1, || eval_pipeline(&db, &q))
        });
        t.row(&["clique k=3 (NP regime)".into(), format!("{slope:.2}"), t128]);
    }
    // PSPACE-regime query (fixed r)
    {
        let q = big_component_query(3, 1);
        let p = PreparedQuery::build(&q).unwrap();
        let (slope, t128) = sweep(&ns, &xs, |n| {
            let db = cycle_db(n, 1);
            time_median(3, || eval_product(&db, &p))
        });
        t.row(&[
            "big component r=3 (PSPACE regime)".into(),
            format!("{slope:.2}"),
            t128,
        ]);
    }
    println!("{}", t.to_markdown());
    println!("All degrees are small constants: data complexity is polynomial (NL)");
    println!("in every regime — only the *query*-side parameters are hard.");
    println!();
}

fn e11_lemma53() {
    println!("## E11 — Lemma 5.3: CQ_bin(collapse) → ECRPQ, answers preserved");
    println!();
    println!("Random binary-CQ instances over the collapse of a 2-edge component");
    println!("graph; the reduction's output is evaluated and compared with direct");
    println!("CQ evaluation. Expansion adds ⌈log n⌉·n vertices (binary-id cycles).");
    println!();
    let mut t = Table::new(&["n (domain)", "D̂ nodes", "agree", "reduce+eval time"]);
    for &n in &[8usize, 16, 32, 64] {
        let (ccq, rdb) = random_collapse_instance(n, n as u64);
        let expected = eval_cq(&rdb, &ccq.to_cq());
        let (q, gdb) = cq_to_ecrpq(&ccq, &rdb);
        let prepared = PreparedQuery::build(&q).unwrap();
        let actual = eval_product(&gdb, &prepared);
        let d = time_median(1, || {
            let (q, gdb) = cq_to_ecrpq(&ccq, &rdb);
            let prepared = PreparedQuery::build(&q).unwrap();
            eval_product(&gdb, &prepared)
        });
        t.row(&[
            n.to_string(),
            gdb.num_nodes().to_string(),
            (actual == expected).to_string(),
            fmt_duration(d),
        ]);
    }
    println!("{}", t.to_markdown());
    println!();
}

// ---------- helpers ----------

fn sweep(ns: &[usize], xs: &[f64], mut f: impl FnMut(usize) -> Duration) -> (f64, String) {
    let mut times: Vec<f64> = Vec::new();
    let mut t128 = String::new();
    for &n in ns {
        let d = f(n);
        times.push(d.as_secs_f64());
        if n == 128 {
            t128 = fmt_duration(d);
        }
    }
    (loglog_slope(xs, &times), t128)
}

/// The random databases are built over {a,b}; clique_query may not extend
/// the alphabet, but keep the helper for when regexes add symbols.
fn reconcile_alphabet(
    db: ecrpq_graph::GraphDb,
    alphabet: &ecrpq_automata::Alphabet,
) -> ecrpq_graph::GraphDb {
    db.with_extended_alphabet(alphabet)
}

/// Flower 2L graph: r parallel edges chained into one component.
fn flower_graph(r: usize) -> TwoLevelGraph {
    let mut g = TwoLevelGraph::new(2);
    let edges: Vec<usize> = (0..r).map(|_| g.add_edge(0, 1)).collect();
    for w in edges.windows(2) {
        g.add_hyperedge(w);
    }
    if r == 1 {
        g.add_hyperedge(&[edges[0]]);
    }
    g
}

/// Chain 2L graph for Lemma 5.4: k binary hyperedges with private links.
fn chain_2l_graph(k: usize) -> TwoLevelGraph {
    let mut g = TwoLevelGraph::new(2);
    let edges: Vec<usize> = (0..=k).map(|_| g.add_edge(0, 1)).collect();
    for i in 0..k {
        g.add_hyperedge(&[edges[i], edges[i + 1]]);
    }
    g
}

/// One component of ℓ chained hamming≤1 atoms over ℓ+1 parallel paths.
fn hamming_chain_query(l: usize) -> Ecrpq {
    use ecrpq_automata::relations;
    use std::sync::Arc;
    let alphabet = ecrpq_automata::Alphabet::ascii_lower(2);
    let mut q = Ecrpq::new(alphabet);
    let x = q.node_var("x");
    let y = q.node_var("y");
    let ps: Vec<_> = (0..=l)
        .map(|i| q.path_atom(x, &format!("p{i}"), y))
        .collect();
    let h = Arc::new(relations::hamming_le(1, 2));
    for i in 0..l {
        q.rel_atom("hamming", h.clone(), &[ps[i], ps[i + 1]]);
    }
    q
}

/// A random Lemma 5.3 instance: the 2-edge/1-hyperedge 2L graph with
/// random binary relations over a domain of size n.
fn random_collapse_instance(n: usize, seed: u64) -> (CollapseCq, ecrpq_query::RelationalDb) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut g = TwoLevelGraph::new(3);
    let e0 = g.add_edge(0, 1);
    let e1 = g.add_edge(1, 2);
    g.add_hyperedge(&[e0, e1]);
    let ccq = CollapseCq {
        graph: g,
        rels: vec![("R".into(), "S".into()), ("T".into(), "U".into())],
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rdb = ecrpq_query::RelationalDb::new(n);
    for name in ["R", "S", "T", "U"] {
        rdb.declare(name, 2);
        for _ in 0..(2 * n) {
            let a = rng.gen_range(0..n) as u32;
            let b = rng.gen_range(0..n) as u32;
            rdb.insert(name, &[a, b]);
        }
    }
    (ccq, rdb)
}
