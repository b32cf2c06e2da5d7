//! The declarative experiment harness.
//!
//! One driver, one contract: a TOML spec under `experiments/` describes
//! a workload (generator + params), a trial matrix, repetitions and the
//! aggregate output; [`run_spec`] expands the matrix, skips every trial
//! whose `result.json` is already on disk under the content-addressed
//! key (spec hash + build fingerprint + trial params), runs the rest
//! through the single [`trial::run_trial`] boundary, and assembles the
//! aggregated `BENCH_<experiment>.json` from the per-trial files. A
//! corrupted or stale trial file, or one another build wrote, is re-run,
//! not trusted. [`diff`] compares a fresh
//! aggregate against the committed trajectory with per-metric noise
//! tolerances — the `harness diff` regression gate in `scripts/check.sh`.

pub mod aggregate;
pub mod diff;
pub mod json;
pub mod spec;
pub mod toml;
pub mod trial;

pub use diff::{DiffReport, Tolerances};
pub use json::Json;
pub use spec::{Spec, SpecValue, TrialParams};

use ecrpq_automata::fnv::FnvHasher;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Options for one harness run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Apply the spec's `[smoke]` overrides (small sizes for CI); the
    /// aggregate is written under `target/` instead of the spec's
    /// committed output path.
    pub smoke: bool,
    /// Override the results directory (default:
    /// `target/harness/<name>[-smoke]-<spec hash>-<build fingerprint>`).
    pub results_dir: Option<PathBuf>,
    /// Override the aggregate output path.
    pub out: Option<PathBuf>,
    /// Suppress per-trial progress lines.
    pub quiet: bool,
}

/// What one harness run did.
#[derive(Debug)]
pub struct RunSummary {
    /// Spec name.
    pub name: String,
    /// Trials executed fresh (no cached result).
    pub executed: usize,
    /// Trials served from the cache.
    pub cached: usize,
    /// Trials whose cached file was corrupt or stale and was re-run.
    pub recovered: usize,
    /// Total trials in the matrix.
    pub trials: usize,
    /// The aggregate document.
    pub aggregate: Json,
    /// Where the aggregate was written.
    pub aggregate_path: PathBuf,
    /// The content-addressed per-trial results directory.
    pub results_dir: PathBuf,
}

/// Loads the spec at `path` and runs it.
pub fn run_spec_path(path: &Path, opts: &RunOptions) -> Result<RunSummary, String> {
    run_spec(&Spec::load(path)?, opts)
}

/// Runs `spec`: expand the matrix, execute or reuse each trial, write
/// per-trial JSON and the aggregate. See the module docs for the caching
/// contract.
pub fn run_spec(spec: &Spec, opts: &RunOptions) -> Result<RunSummary, String> {
    run_spec_built(spec, opts, build_fingerprint())
}

/// The running build's fingerprint: the FNV-1a 64 hash of the executable's
/// bytes as 16 hex digits (`unknown` when it cannot be read). Trials run
/// in-process, so a rebuilt engine is a new executable and never meets
/// the previous build's cached results.
fn build_fingerprint() -> &'static str {
    static FINGERPRINT: OnceLock<String> = OnceLock::new();
    FINGERPRINT.get_or_init(|| {
        std::env::current_exe().and_then(std::fs::read).map_or_else(
            |_| "unknown".to_string(),
            |bytes| {
                let mut h = FnvHasher::default();
                h.write(&bytes);
                format!("{:016x}", h.finish())
            },
        )
    })
}

/// [`run_spec`] as the build `build` (see [`build_fingerprint`]).
fn run_spec_built(spec: &Spec, opts: &RunOptions, build: &str) -> Result<RunSummary, String> {
    let effective = if opts.smoke {
        spec.apply_smoke()
    } else {
        spec.clone()
    };
    let hash = effective.hash();
    let results_dir = opts
        .results_dir
        .clone()
        .unwrap_or_else(|| default_results_dir(&effective.name, opts.smoke, &hash, build));
    std::fs::create_dir_all(&results_dir).map_err(|e| format!("{}: {e}", results_dir.display()))?;
    let trials = effective.trials();
    let mut executed = 0usize;
    let mut cached = 0usize;
    let mut recovered = 0usize;
    let mut results: Vec<(TrialParams, Json)> = Vec::with_capacity(trials.len());
    for params in &trials {
        let key = Spec::trial_key(params);
        let path = results_dir.join(format!("{key}.json"));
        let (status, result) = match load_cached_trial(&path, &hash, build, params) {
            Some(result) => {
                cached += 1;
                ("cached", result)
            }
            None => {
                let was_there = path.exists();
                let result = trial::run_trial(&effective, params)
                    .map_err(|e| format!("{}/{key}: {e}", effective.name))?;
                let envelope = Json::Obj(vec![
                    ("spec".into(), Json::str(effective.name.clone())),
                    ("spec_hash".into(), Json::str(hash.clone())),
                    ("build".into(), Json::str(build)),
                    ("params".into(), params_json(params)),
                    ("result".into(), result.clone()),
                ]);
                std::fs::write(&path, envelope.render())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                if was_there {
                    recovered += 1;
                    ("recovered", result)
                } else {
                    executed += 1;
                    ("executed", result)
                }
            }
        };
        if !opts.quiet {
            println!("[{}] {key}: {status}", effective.name);
        }
        results.push((params.clone(), result));
    }
    let aggregate = aggregate::aggregate(&effective, &results)?;
    let aggregate_path = opts.out.clone().unwrap_or_else(|| {
        if opts.smoke {
            results_dir.join("aggregate.json")
        } else {
            PathBuf::from(&effective.output)
        }
    });
    if let Some(parent) = aggregate_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
    }
    std::fs::write(&aggregate_path, aggregate.render())
        .map_err(|e| format!("{}: {e}", aggregate_path.display()))?;
    if !opts.quiet {
        println!(
            "[{}] {} trials ({executed} executed, {cached} cached, {recovered} recovered) -> {}",
            effective.name,
            trials.len(),
            aggregate_path.display()
        );
    }
    Ok(RunSummary {
        name: effective.name.clone(),
        executed,
        cached,
        recovered,
        trials: trials.len(),
        aggregate,
        aggregate_path,
        results_dir,
    })
}

/// `target/harness/<name>[-smoke]-<spec hash>-<build>`.
fn default_results_dir(name: &str, smoke: bool, hash: &str, build: &str) -> PathBuf {
    let flavor = if smoke { "-smoke" } else { "" };
    PathBuf::from("target/harness").join(format!("{name}{flavor}-{hash}-{build}"))
}

/// A cached trial result is trusted only when the file parses and its
/// envelope matches the current spec hash, build and trial params;
/// anything else (corruption, a stale spec, another build, hand edits)
/// re-runs the trial.
fn load_cached_trial(path: &Path, hash: &str, build: &str, params: &TrialParams) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    let envelope = json::parse(&text).ok()?;
    if envelope.get("spec_hash")?.as_str()? != hash || envelope.get("build")?.as_str()? != build {
        return None;
    }
    if envelope.get("params")? != &params_json(params) {
        return None;
    }
    envelope.get("result").cloned()
}

fn params_json(params: &TrialParams) -> Json {
    Json::Obj(
        params
            .iter()
            .map(|(k, v)| (k.clone(), Json::str(v.render())))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A budget-kind spec whose two trials run in milliseconds.
    const TINY: &str = "name = \"tiny\"\n\
        title = \"build key\"\n\
        kind = \"budget\"\n\
        output = \"BENCH_tiny.json\"\n\
        [workload]\n\
        generator = \"big_component_random\"\n\
        r = 2\n\
        labels = 2\n\
        nodes = 12\n\
        avg_degree = 1.5\n\
        seed = 5\n\
        [matrix]\n\
        budget = [\"0.5\", \"2.0\"]\n";

    /// Another build's trials are never served from the cache: the default
    /// directory is keyed by the build, and a pinned one re-runs every
    /// trial whose envelope names another build.
    #[test]
    fn another_build_misses_the_cache() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-harness")
            .join(format!("build-key-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = Spec::parse(TINY).expect("tiny spec parses");
        let opts = RunOptions {
            smoke: false,
            results_dir: Some(dir.join("results")),
            out: Some(dir.join("aggregate.json")),
            quiet: true,
        };
        let run = |build: &str| run_spec_built(&spec, &opts, build).expect("runs");
        let cold = run("0000000000000001");
        assert_eq!(cold.executed, cold.trials);
        let warm = run("0000000000000001");
        assert_eq!((warm.cached, warm.executed), (warm.trials, 0));
        let rebuilt = run("0000000000000002");
        assert_eq!((rebuilt.cached, rebuilt.recovered), (0, rebuilt.trials));
        let hash = spec.hash();
        assert_ne!(
            default_results_dir("tiny", false, &hash, "0000000000000001"),
            default_results_dir("tiny", false, &hash, "0000000000000002")
        );
        assert_eq!(build_fingerprint(), build_fingerprint());
        assert_eq!(build_fingerprint().len(), 16, "{}", build_fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
