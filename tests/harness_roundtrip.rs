//! Harness spec round-trip and resumable-trial guarantees.
//!
//! Golden checks pin the parse of a committed spec (`experiments/e19.toml`)
//! and the canonical-serialization fixpoint every content-addressed cache
//! key depends on. The property tests drive whole `run_spec` cycles
//! through small budget-kind specs: a warm second run must execute zero
//! trials and reproduce the aggregate byte-for-byte, and a corrupted
//! per-trial file must be recovered (re-run), never trusted.

use ecrpq_bench::harness::{run_spec_path, RunOptions, Spec, SpecValue};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Repo-root path of a committed file (tests run from the package root).
fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// A scratch directory unique to this process + call site.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = repo_path("target/test-harness").join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn golden_parse_of_committed_e19_spec() {
    let spec = Spec::load(&repo_path("experiments/e19.toml")).expect("committed spec parses");
    assert_eq!(spec.name, "e19");
    assert_eq!(spec.kind, "bitparallel");
    assert_eq!(spec.output, "BENCH_bitparallel.json");
    assert_eq!(spec.reps, 3);
    assert_eq!(
        spec.workload_str("generator"),
        Some("planted_power_law"),
        "workload generator"
    );
    assert_eq!(spec.workload_usize("nodes", 0), 1_000_000);
    assert_eq!(spec.workload_usize("sources", 0), 8);
    // matrix: one threads axis — 4 trials in the committed row order
    let axes: Vec<&str> = spec.matrix.iter().map(|(a, _)| a.as_str()).collect();
    assert_eq!(axes, ["threads"]);
    let trials = spec.trials();
    assert_eq!(trials.len(), 4);
    assert_eq!(Spec::trial_key(&trials[0]), "threads-1");
    assert_eq!(Spec::trial_key(&trials[3]), "threads-8");
    // smoke overrides shrink the workload and change the cache key
    let smoke = spec.apply_smoke();
    assert_eq!(smoke.workload_usize("nodes", 0), 20_000);
    assert!(smoke.smoke.is_empty(), "smoke table is consumed");
    assert_ne!(spec.hash(), smoke.hash(), "smoke runs cache separately");
}

#[test]
fn every_committed_spec_parses_and_canonicalizes() {
    for name in ["e17", "e18", "e19", "e20", "e21", "e22"] {
        let path = repo_path(&format!("experiments/{name}.toml"));
        let spec = Spec::load(&path).expect("spec parses");
        assert_eq!(spec.name, name);
        // serialize -> parse is the identity on the spec value, so the
        // content hash (and with it every cache key) survives a rewrite
        let reparsed = Spec::parse(&spec.to_toml()).expect("serialized spec reparses");
        assert_eq!(reparsed, spec, "{name} to_toml round-trip");
        assert_eq!(reparsed.hash(), spec.hash(), "{name} hash stable");
        assert_eq!(reparsed.canonical(), spec.canonical());
        assert!(!spec.trials().is_empty(), "{name} has trials");
    }
}

/// A tiny budget-kind spec: the trial runs the ungoverned search plus one
/// governed replay on a ~`nodes`-vertex graph, fast enough for proptest.
fn tiny_spec(dir: &Path, nodes: u64, seed: u64) -> PathBuf {
    let src = format!(
        "name = \"tiny\"\n\
         title = \"resume property\"\n\
         kind = \"budget\"\n\
         output = \"BENCH_tiny.json\"\n\
         \n\
         [workload]\n\
         generator = \"big_component_random\"\n\
         r = 2\n\
         labels = 2\n\
         nodes = {nodes}\n\
         avg_degree = 1.5\n\
         seed = {seed}\n\
         \n\
         [matrix]\n\
         budget = [\"0.5\", \"2.0\"]\n"
    );
    let path = dir.join("tiny.toml");
    std::fs::write(&path, src).expect("write tiny spec");
    path
}

/// Options pinning both the results dir and the aggregate inside `dir`.
fn opts_in(dir: &Path) -> RunOptions {
    RunOptions {
        smoke: false,
        results_dir: Some(dir.join("results")),
        out: Some(dir.join("aggregate.json")),
        quiet: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cold run executes everything; warm run executes nothing and the
    /// aggregate is byte-identical.
    #[test]
    fn warm_rerun_executes_zero_trials(nodes in 10u64..22, seed in 1u64..1000) {
        let dir = scratch_dir("warm");
        let spec_path = tiny_spec(&dir, nodes, seed);
        let opts = opts_in(&dir);
        let cold = run_spec_path(&spec_path, &opts).expect("cold run");
        prop_assert_eq!(cold.executed, cold.trials);
        prop_assert_eq!(cold.cached, 0);
        let cold_bytes = std::fs::read(dir.join("aggregate.json")).expect("aggregate");
        let warm = run_spec_path(&spec_path, &opts).expect("warm run");
        prop_assert_eq!(warm.executed, 0, "warm run must be fully cached");
        prop_assert_eq!(warm.recovered, 0);
        prop_assert_eq!(warm.cached, cold.trials);
        let warm_bytes = std::fs::read(dir.join("aggregate.json")).expect("aggregate");
        prop_assert_eq!(cold_bytes, warm_bytes, "aggregate must be byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corrupted per-trial file is detected and re-run; the aggregate
    /// still comes out byte-identical (full precision lives in the trial
    /// files, rounding only in aggregation — and the trial is
    /// deterministic).
    #[test]
    fn corrupted_trial_file_is_recovered(seed in 1u64..1000) {
        let dir = scratch_dir("corrupt");
        let spec_path = tiny_spec(&dir, 14, seed);
        let opts = opts_in(&dir);
        let cold = run_spec_path(&spec_path, &opts).expect("cold run");
        let cold_rows = {
            let text = std::fs::read_to_string(dir.join("aggregate.json")).expect("aggregate");
            ecrpq_bench::harness::json::parse(&text).expect("aggregate parses")
        };
        let victim = dir.join("results").join("budget-0.5.json");
        prop_assert!(victim.exists(), "trial file under its content key");
        std::fs::write(&victim, "{ not json").expect("corrupt the file");
        let rerun = run_spec_path(&spec_path, &opts).expect("rerun");
        prop_assert_eq!(rerun.recovered, 1, "the corrupted trial re-runs");
        prop_assert_eq!(rerun.cached, cold.trials - 1);
        prop_assert_eq!(rerun.executed, 0);
        // the recovered file is valid again and keyed to the same spec hash
        let healed = std::fs::read_to_string(&victim).expect("healed file");
        let envelope = ecrpq_bench::harness::json::parse(&healed).expect("valid JSON again");
        let expected_hash = Spec::load(&spec_path).expect("spec").hash();
        prop_assert_eq!(
            envelope.get("spec_hash").and_then(|h| h.as_str()),
            Some(expected_hash.as_str())
        );
        // non-timing aggregate content is reproduced exactly
        let rerun_rows = {
            let text = std::fs::read_to_string(dir.join("aggregate.json")).expect("aggregate");
            ecrpq_bench::harness::json::parse(&text).expect("aggregate parses")
        };
        for key in ["total_work", "full_answers", "nodes", "edges"] {
            prop_assert_eq!(cold_rows.get(key), rerun_rows.get(key), "{}", key);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stale spec hash (edited spec, same trial keys) also invalidates
    /// the cache: changing the workload seed changes the content address,
    /// so no trial is reused across spec edits.
    #[test]
    fn edited_spec_invalidates_cached_trials(seed in 1u64..500) {
        let dir = scratch_dir("stale");
        let opts = opts_in(&dir);
        let first = run_spec_path(&tiny_spec(&dir, 12, seed), &opts).expect("first run");
        prop_assert_eq!(first.executed, first.trials);
        // same trial keys, different spec content -> recovered, not cached
        let second = run_spec_path(&tiny_spec(&dir, 12, seed + 1000), &opts).expect("second run");
        prop_assert_eq!(second.cached, 0, "stale results must not be trusted");
        prop_assert_eq!(second.recovered, second.trials);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn trial_params_render_stable_keys() {
    let params = vec![
        ("threads".to_string(), SpecValue::Int(8)),
        ("layout".to_string(), SpecValue::Str("flat".to_string())),
    ];
    assert_eq!(Spec::trial_key(&params), "threads-8_layout-flat");
    assert_eq!(Spec::trial_key(&Vec::new()), "single");
}
