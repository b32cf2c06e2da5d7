//! Thread scaling of the parallel engine on the PSPACE-regime workload.
//!
//! Reuses the E3 generator (planted-intersection NFAs embedded in a flower
//! big component) with free endpoints, so the parallel product engine has
//! a genuinely hard enumeration to split. The `threads/1` row is the
//! sequential baseline; on a multicore host `threads/4` should come in at
//! least 2× faster (the chunked first-variable partition is embarrassingly
//! parallel and the per-worker memo keeps locality).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecrpq_automata::Alphabet;
use ecrpq_bench::product_answers_with_stats;
use ecrpq_core::{EvalOptions, PreparedQuery};
use ecrpq_query::NodeVar;
use ecrpq_reductions::ine_to_ecrpq_big_component;
use ecrpq_structure::TwoLevelGraph;
use ecrpq_workloads::planted_ine;
use std::time::Duration;

fn flower(r: usize) -> TwoLevelGraph {
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

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_engine");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let r = 3usize;
    let alphabet = Alphabet::ascii_lower(2);
    let (langs, _) = planted_ine(r, 4, 2, 3, 31 + r as u64);
    let g = flower(r);
    let (mut q, db) = ine_to_ecrpq_big_component(&langs, &alphabet, &g).unwrap();
    let all_vars: Vec<NodeVar> = (0..q.num_node_vars() as u32).map(NodeVar).collect();
    q.set_free(&all_vars);
    let prepared = PreparedQuery::build(&q).unwrap();
    // sanity: every thread count must produce the same answer set
    let run = |opts: &EvalOptions| product_answers_with_stats(&db, &prepared, opts).0;
    let baseline = run(&EvalOptions::sequential());
    for threads in [1usize, 2, 4, 8] {
        let opts = EvalOptions::with_threads(threads);
        assert_eq!(run(&opts), baseline, "answers diverge at {threads} threads");
        group.bench_with_input(BenchmarkId::new("threads", threads), &opts, |b, opts| {
            b.iter(|| run(opts))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
