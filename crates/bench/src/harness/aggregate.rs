//! Aggregation: trial results in, the committed `BENCH_*.json` shape out.
//!
//! Each kind's aggregator is a pure function of the trial-result JSON
//! files (full-precision numbers), applying the committed artifacts'
//! key order and rounding here — so an aggregate rebuilt from cached
//! trials is byte-identical to one built from a fresh run, and the
//! regenerated artifacts keep the exact key schemas `scripts/check.sh`
//! gates on. `[gate]` minimums from the spec are enforced after
//! assembly.

use super::json::Json;
use super::spec::{Spec, SpecValue, TrialParams};

/// Builds the aggregate document for `spec` from its trial results (in
/// trial order) and enforces the spec's `[gate]` minimums.
pub fn aggregate(spec: &Spec, results: &[(TrialParams, Json)]) -> Result<Json, String> {
    if results.len() != spec.trials().len() {
        return Err(format!(
            "aggregate needs all {} trials, got {}",
            spec.trials().len(),
            results.len()
        ));
    }
    let doc = match spec.kind.as_str() {
        "bitparallel" => agg_bitparallel(spec, results),
        "yannakakis" => agg_yannakakis(spec, results),
        "minimize" => agg_minimize(spec, results),
        "server" => agg_server(spec, results),
        "layout" => agg_layout(spec, results),
        "budget" => agg_budget(spec, results),
        "observability" => agg_observability(results),
        other => Err(format!("spec `{}`: unknown kind `{other}`", spec.name)),
    }?;
    enforce_gates(spec, &doc)?;
    Ok(doc)
}

/// Every `[gate]` key must appear as a numeric leaf of the aggregate
/// (top level or inside a row) with value ≥ the configured minimum.
fn enforce_gates(spec: &Spec, doc: &Json) -> Result<(), String> {
    for (key, min) in &spec.gate {
        let mut found = None;
        walk_leaves(doc, &mut |name, value| {
            if name == key && found.is_none() {
                found = Some(value);
            }
        });
        match found {
            None => {
                return Err(format!(
                    "[gate] metric `{key}` is absent from the aggregate"
                ))
            }
            Some(v) if v < *min => {
                return Err(format!(
                    "[gate] {key} = {v:.2} is below the required {min:.2}"
                ))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

fn walk_leaves(doc: &Json, f: &mut impl FnMut(&str, f64)) {
    match doc {
        Json::Obj(members) => {
            for (k, v) in members {
                if let Some(n) = v.as_f64() {
                    f(k, n);
                }
                walk_leaves(v, f);
            }
        }
        Json::Arr(items) => {
            for item in items {
                walk_leaves(item, f);
            }
        }
        _ => {}
    }
}

/// The trial result at the given axis coordinates (all must match).
fn by_axes<'r>(
    results: &'r [(TrialParams, Json)],
    coords: &[(&str, &str)],
) -> Result<&'r Json, String> {
    results
        .iter()
        .find(|(params, _)| {
            coords.iter().all(|(axis, value)| {
                params
                    .iter()
                    .any(|(k, v)| k == axis && v.render() == *value)
            })
        })
        .map(|(_, r)| r)
        .ok_or_else(|| format!("no trial at {coords:?}"))
}

fn getf(result: &Json, key: &str) -> Result<f64, String> {
    result
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("trial result is missing numeric `{key}`"))
}

fn get_raw(result: &Json, key: &str) -> Result<Json, String> {
    result
        .get(key)
        .cloned()
        .ok_or_else(|| format!("trial result is missing `{key}`"))
}

/// The spec's pinned seed, for the aggregate header.
fn spec_seed(spec: &Spec) -> Result<Json, String> {
    match spec.workload.iter().find(|(k, _)| k == "seed") {
        Some((_, SpecValue::Int(v))) => Ok(Json::int(*v)),
        _ => Err(format!(
            "spec `{}` pins no integer workload seed",
            spec.name
        )),
    }
}

fn agg_bitparallel(spec: &Spec, results: &[(TrialParams, Json)]) -> Result<Json, String> {
    let first = &results[0].1;
    let mut rows = Vec::new();
    for (_, r) in results {
        rows.push(Json::Obj(vec![
            ("layout".into(), get_raw(r, "layout")?),
            ("threads".into(), get_raw(r, "threads")?),
            ("configs".into(), get_raw(r, "configs")?),
            (
                "configs_per_sec".into(),
                Json::fixed(getf(r, "configs_per_sec")?, 0),
            ),
        ]));
    }
    // Planted-answer checksums must agree across every layout and thread
    // count (the cross-trial form of E19's baseline assertion).
    let fnv0 = get_raw(first, "answers_fnv")?;
    for (params, r) in results {
        if get_raw(r, "answers_fnv")? != fnv0 {
            return Err(format!(
                "answer checksum diverged at {}",
                Spec::trial_key(params)
            ));
        }
    }
    let threads_axis: Vec<String> = spec
        .matrix
        .iter()
        .find(|(axis, _)| axis == "threads")
        .map(|(_, values)| values.iter().map(SpecValue::render).collect())
        .unwrap_or_default();
    let rate_at = |layout: &str, threads: &str| -> Result<f64, String> {
        getf(
            by_axes(results, &[("layout", layout), ("threads", threads)])?,
            "configs_per_sec",
        )
    };
    let speedup_at = |threads: &str| -> Result<f64, String> {
        Ok(rate_at("bitparallel", threads)? / rate_at("flat", threads)?.max(1e-9))
    };
    let mut best = 0f64;
    for threads in &threads_axis {
        best = best.max(speedup_at(threads)?);
    }
    let single = threads_axis.first().ok_or("threads axis is empty")?;
    let t8 = threads_axis
        .iter()
        .find(|t| *t == "8")
        .unwrap_or(threads_axis.last().ok_or("threads axis is empty")?);
    let flat1 = by_axes(results, &[("layout", "flat"), ("threads", single)])?;
    let bp1 = by_axes(results, &[("layout", "bitparallel"), ("threads", single)])?;
    Ok(Json::Obj(vec![
        ("experiment".into(), Json::str("E19")),
        ("nodes".into(), get_raw(first, "nodes")?),
        ("edges".into(), get_raw(first, "edges")?),
        ("seed".into(), spec_seed(spec)?),
        ("sources".into(), get_raw(first, "answers")?),
        ("rows".into(), Json::Arr(rows)),
        (
            "prepare_flat_ms".into(),
            Json::fixed(getf(flat1, "prepare_ms")?, 2),
        ),
        (
            "prepare_bitparallel_ms".into(),
            Json::fixed(getf(bp1, "prepare_ms")?, 2),
        ),
        (
            "speedup_single_thread".into(),
            Json::fixed(speedup_at(single)?, 2),
        ),
        ("speedup_t8".into(), Json::fixed(speedup_at(t8)?, 2)),
        ("speedup_best".into(), Json::fixed(best, 2)),
    ]))
}

fn agg_yannakakis(spec: &Spec, results: &[(TrialParams, Json)]) -> Result<Json, String> {
    let mut rows = Vec::new();
    let mut headline = 0f64;
    for (params, r) in results {
        let flat_ms = getf(r, "flat_ms")?;
        let yan_ms = getf(r, "yannakakis_ms")?;
        let speedup = flat_ms / yan_ms.max(1e-6);
        let k = params
            .iter()
            .find(|(axis, _)| axis == "k")
            .map(|(_, v)| v.render());
        if k.as_deref() == Some("8") {
            headline = speedup;
        }
        rows.push(Json::Obj(vec![
            ("answers".into(), get_raw(r, "answers")?),
            ("flat_ms".into(), Json::fixed(flat_ms, 2)),
            ("yannakakis_ms".into(), Json::fixed(yan_ms, 2)),
            ("flat_configs".into(), get_raw(r, "flat_configs")?),
            (
                "yannakakis_configs".into(),
                get_raw(r, "yannakakis_configs")?,
            ),
            ("speedup".into(), Json::fixed(speedup, 2)),
        ]));
    }
    let last = &results[results.len() - 1].1;
    Ok(Json::Obj(vec![
        ("experiment".into(), Json::str("E20")),
        ("nodes".into(), get_raw(last, "nodes")?),
        ("edges".into(), get_raw(last, "edges")?),
        ("seed".into(), spec_seed(spec)?),
        ("threads".into(), Json::int(1)),
        ("rows".into(), Json::Arr(rows)),
        ("speedup_single_thread".into(), Json::fixed(headline, 2)),
    ]))
}

fn agg_minimize(spec: &Spec, results: &[(TrialParams, Json)]) -> Result<Json, String> {
    let corpus = by_axes(results, &[("part", "corpus")])?;
    let planted = by_axes(results, &[("part", "planted")])?;
    let base_ms = getf(planted, "baseline_ms")?;
    let min_ms = getf(planted, "minimized_ms")?;
    Ok(Json::Obj(vec![
        ("experiment".into(), Json::str("E21")),
        ("nodes".into(), get_raw(planted, "nodes")?),
        ("edges".into(), get_raw(planted, "edges")?),
        ("seed".into(), spec_seed(spec)?),
        ("threads".into(), Json::int(1)),
        ("rows".into(), get_raw(corpus, "rows")?),
        ("regime_shifts".into(), get_raw(corpus, "regime_shifts")?),
        ("corpus_size".into(), get_raw(corpus, "corpus_size")?),
        ("baseline_ms".into(), Json::fixed(base_ms, 2)),
        ("minimized_ms".into(), Json::fixed(min_ms, 2)),
        (
            "speedup_planted".into(),
            Json::fixed(base_ms / min_ms.max(1e-6), 2),
        ),
    ]))
}

fn agg_server(spec: &Spec, results: &[(TrialParams, Json)]) -> Result<Json, String> {
    let cold = by_axes(results, &[("mode", "cold")])?;
    let cached = by_axes(results, &[("mode", "cached")])?;
    let mut rows = Vec::new();
    for (_, r) in results {
        rows.push(Json::Obj(vec![
            ("mode".into(), get_raw(r, "mode")?),
            ("requests".into(), get_raw(r, "requests")?),
            (
                "queries_per_sec".into(),
                Json::fixed(getf(r, "queries_per_sec")?, 1),
            ),
            ("p50_ms".into(), Json::fixed(getf(r, "p50_ms")?, 3)),
            ("p99_ms".into(), Json::fixed(getf(r, "p99_ms")?, 3)),
        ]));
    }
    let speedup = getf(cached, "queries_per_sec")? / getf(cold, "queries_per_sec")?.max(1e-9);
    Ok(Json::Obj(vec![
        ("experiment".into(), Json::str("E22")),
        ("nodes".into(), get_raw(cold, "nodes")?),
        ("edges".into(), get_raw(cold, "edges")?),
        ("seed".into(), spec_seed(spec)?),
        ("clients".into(), get_raw(cold, "clients")?),
        ("rounds".into(), get_raw(cold, "rounds")?),
        ("corpus".into(), get_raw(cold, "corpus")?),
        ("rows".into(), Json::Arr(rows)),
        ("cache_hits".into(), get_raw(cached, "cache_hits")?),
        ("cache_misses".into(), get_raw(cached, "cache_misses")?),
        ("cached_plans".into(), get_raw(cached, "cached_plans")?),
        ("speedup_cached_over_cold".into(), Json::fixed(speedup, 2)),
    ]))
}

fn agg_layout(spec: &Spec, results: &[(TrialParams, Json)]) -> Result<Json, String> {
    let first = &results[0].1;
    // Cross-layout answer equality, checksum form.
    let fnv0 = get_raw(first, "answers_fnv")?;
    let mut rows = Vec::new();
    for (params, r) in results {
        if get_raw(r, "answers_fnv")? != fnv0 {
            return Err(format!(
                "layout {} changed the answer set",
                Spec::trial_key(params)
            ));
        }
        rows.push(Json::Obj(vec![
            ("layout".into(), get_raw(r, "layout")?),
            ("answers".into(), get_raw(r, "answers")?),
            ("configs".into(), get_raw(r, "configs")?),
            ("time_ms".into(), Json::fixed(getf(r, "time_ms")?, 3)),
            (
                "ns_per_config".into(),
                Json::fixed(getf(r, "ns_per_config")?, 0),
            ),
            (
                "configs_per_sec".into(),
                Json::fixed(getf(r, "configs_per_sec")?, 0),
            ),
        ]));
    }
    let flat = by_axes(results, &[("layout", "flat")])?;
    let bitpar = by_axes(results, &[("layout", "bitparallel")])?;
    Ok(Json::Obj(vec![
        ("experiment".into(), Json::str("E15")),
        ("nodes".into(), get_raw(first, "nodes")?),
        ("edges".into(), get_raw(first, "edges")?),
        ("seed".into(), spec_seed(spec)?),
        ("threads".into(), Json::int(1)),
        ("rows".into(), Json::Arr(rows)),
        (
            "speedup_bitparallel_over_flat".into(),
            Json::fixed(
                getf(flat, "time_ms")? / getf(bitpar, "time_ms")?.max(1e-6),
                2,
            ),
        ),
    ]))
}

fn agg_budget(spec: &Spec, results: &[(TrialParams, Json)]) -> Result<Json, String> {
    let first = &results[0].1;
    let mut rows = Vec::new();
    for (_, r) in results {
        rows.push(Json::Obj(vec![
            ("budget".into(), get_raw(r, "budget")?),
            ("cap".into(), get_raw(r, "cap")?),
            ("answers".into(), get_raw(r, "answers")?),
            (
                "recovered_pct".into(),
                Json::fixed(getf(r, "recovered_pct")?, 1),
            ),
            ("termination".into(), get_raw(r, "termination")?),
            ("time_ms".into(), Json::fixed(getf(r, "time_ms")?, 2)),
        ]));
    }
    Ok(Json::Obj(vec![
        ("experiment".into(), Json::str("E17")),
        ("nodes".into(), get_raw(first, "nodes")?),
        ("edges".into(), get_raw(first, "edges")?),
        ("seed".into(), spec_seed(spec)?),
        ("total_work".into(), get_raw(first, "total_work")?),
        ("full_answers".into(), get_raw(first, "full_answers")?),
        ("rows".into(), Json::Arr(rows)),
    ]))
}

fn agg_observability(results: &[(TrialParams, Json)]) -> Result<Json, String> {
    let mut rows = Vec::new();
    for (_, r) in results {
        let mut row = vec![
            ("workload".into(), get_raw(r, "workload")?),
            ("answers".into(), get_raw(r, "answers")?),
            ("total_ms".into(), Json::fixed(getf(r, "total_ms")?, 2)),
        ];
        for key in [
            "prepare_pct",
            "semijoin_pct",
            "bfs_pct",
            "odometer_pct",
            "cqjoin_pct",
            "bags_pct",
        ] {
            row.push((key.into(), Json::fixed(getf(r, key)?, 0)));
        }
        rows.push(Json::Obj(row));
    }
    Ok(Json::Obj(vec![
        ("experiment".into(), Json::str("E18")),
        ("rows".into(), Json::Arr(rows)),
    ]))
}
