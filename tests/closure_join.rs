//! Exactness of the closure-joined candidates of the product search.
//!
//! An `Assign` step that binds an endpoint of a synchronized atom draws
//! its values from the pruned domain ∩ the reachability-closure row of
//! the track's other, already bound endpoint (forward), or ∩ the
//! transposed row when it binds the start of a track whose end is bound
//! (backward). A value off the row was rejected by the check's closure
//! test before any memo lookup or counter, so the join must leave the
//! answers and every work counter of the search as they were, and only
//! shrink the walk: on disjoint strongly connected components the
//! search's work is the row hits plus the words scanned, not |D|².

mod common;

use common::{closure_join_queries, cq_answers, product_answers_with_stats, scc_union_db};
use ecrpq::eval::{ecrpq_to_cq, Enumerator, EvalOptions, PreparedQuery};
use ecrpq::graph::paths::reachable_from;

/// Components × vertices per component: 144 vertices, three closure
/// words per row, six row hits per vertex.
const COMPONENTS: usize = 24;
const SIZE: usize = 6;

#[test]
fn closure_joins_keep_answers_and_counters() {
    let db = scc_union_db(COMPONENTS, SIZE);
    let n = db.num_nodes();
    let hits: usize = (0..n as u32).map(|v| reachable_from(&db, v).len()).sum();
    assert_eq!(hits, n * SIZE, "the components are strongly connected");
    let words = n * n.div_ceil(64);
    // (configurations, checks, cache_hits, assignments) of the search
    // before the join, when every pair reached the check. The atoms fit
    // the bitmap kernel, whose configurations are the ones it expands
    let pinned = [
        ("forward", (1368, 256, 0, 256)),
        ("backward", (1368, 256, 0, 256)),
    ];
    for ((name, q), (pinned_name, counters)) in closure_join_queries(&db).into_iter().zip(pinned) {
        assert_eq!(name, pinned_name);
        let prepared = PreparedQuery::build(&q).expect("valid");
        let (answers, stats) =
            product_answers_with_stats(&db, &prepared, &EvalOptions::sequential());
        let (cq, rdb, _) = ecrpq_to_cq(&db, &prepared);
        assert_eq!(
            answers,
            cq_answers(&rdb, &cq, &EvalOptions::sequential()),
            "{name}"
        );
        assert!(!answers.is_empty(), "{name}");
        assert_eq!(
            (
                stats.configurations,
                stats.checks,
                stats.cache_hits,
                stats.assignments
            ),
            counters,
            "{name}"
        );
        let enumerator = Enumerator::new(&db, &prepared);
        let mut it = enumerator.iter();
        assert_eq!(it.by_ref().count(), answers.len(), "{name}");
        let work = it.work() as usize;
        // per `x`: one step, the words of its row and, per hit, an
        // assign, a check and the answer's odometer ticks
        assert!(
            work <= 4 * hits + words + 2 * n,
            "{name}: work {work} is not O(hits {hits} + words {words})"
        );
        assert!(
            work < n * n / 4,
            "{name}: work {work} is quadratic in |V| = {n}"
        );
    }
}
