//! Closed-loop benchmark of the ECRPQ query service, end to end and per
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <reach_bfs|acyclic_adhoc|regime_mix> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each client sends its next request only after the previous one
//! returned, through the public `QueryService::execute`, with the library
//! default `EvalOptions` layout and an unlimited request budget (so each
//! plan's regime default applies). `--trace 0` prints the end-to-end
//! metrics; `--trace 1` sends each request of the same stream to an
//! untraced service and then, layer by layer, to a traced one, and
//! prints the per-layer metrics. Every answer is checked
//! against a reference. The last line of standard output is the result;
//! the line before it records the load shape. See `README.md`.

mod layers;
mod workload;

use ecrpq_bench::harness::Json;
use ecrpq_core::{EvalOptions, QueryService, Termination, DEFAULT_PLAN_CAPACITY};
use ecrpq_graph::GraphDb;
use layers::{Layers, Traced};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use workload::{Answers, Request, Scale, Workload};

/// What a served request returned.
pub struct Reply {
    pub answers: Answers,
    pub termination: Termination,
    /// Whether the plan came from the cache.
    pub cached: bool,
}

/// Fewest requests in a timed loop: the loop runs past `--seconds` until
/// it has this many, so p90 has at least ten samples beyond it.
const MIN_REQUESTS: usize = 100;

/// Set-ups per phase: at least `SETUP_REPS`, and more while they add up
/// to less than `SETUP_SECONDS`, so a cheap set-up is sampled as often as
/// an expensive one is timed long; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_SECONDS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 50;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Self-test hook: the first request of client 0 is checked against
    /// a deliberately wrong reference.
    pub corrupt_reference: bool,
}

/// A named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one invocation.
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub shape: Vec<(&'static str, Json)>,
}

impl Report {
    fn result_line(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".into(), number(m.value)),
                    ("unit".into(), Json::str(m.unit)),
                ]);
                (m.name.to_string(), value)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::int(self.attempted)),
            ("failed".into(), Json::int(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    fn shape_line(&self) -> Json {
        let shape = self
            .shape
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        Json::Obj(vec![("shape".into(), Json::Obj(shape))])
    }
}

/// A float with all its digits (non-finite values, which no metric
/// should produce, read as 0).
fn number(v: f64) -> Json {
    Json::Num(format!("{}", if v.is_finite() { v } else { 0.0 }))
}

fn main() {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&config) {
        Ok(report) => {
            println!("{}", report.shape_line().render_inline());
            println!("{}", report.result_line().render_inline());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut config = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        corrupt_reference: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => config.workload = value.clone(),
            "--seed" => config.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => config.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if config.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(config.seconds > 0.0 && config.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(config)
}

/// Runs one invocation: generate the workload, then set up and drive the
/// timed loop, untraced or (with `trace`) traced.
pub fn run(config: &Config) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wl = Workload::generate(&config.workload, config.seed, config.scale, nproc)?;
    let opts = EvalOptions {
        threads: wl.threads,
        ..EvalOptions::default()
    };

    let execute = |service: &QueryService, text: &str| {
        service
            .execute(text, &opts)
            .map(|r| Reply {
                answers: r.answers,
                termination: r.termination,
                cached: r.cached,
            })
            .map_err(|e| e.to_string())
    };
    if config.trace {
        // each request goes to an untraced service and then, layer by
        // layer, to a traced one, so the two latencies compared for
        // `unattributed_ms` are taken moments apart
        let mut freeze = Vec::new();
        let phase = measure(
            &wl,
            config,
            |db, layers: &mut Layers| {
                let plain = QueryService::new(db.clone());
                let traced = Traced::new(db, opts, layers);
                freeze.push(layers.sum("graph.freeze"));
                (plain, traced)
            },
            |(plain, traced), text, layers| {
                let start = Instant::now();
                let untraced = execute(plain, text)?;
                let wall = start.elapsed().as_secs_f64();
                let reply = traced.serve(text, layers)?;
                if reply.answers != untraced.answers {
                    return Err("traced answers differ from untraced answers".into());
                }
                // a hit on one service and a miss on the other (the two
                // clients interleave differently) compares unlike work
                if reply.cached == untraced.cached {
                    layers.add("unattributed", wall - layers.last_request());
                }
                Ok(reply)
            },
            |(_, traced)| traced.service().stats(),
        );
        let metrics = per_layer_metrics(&phase, &freeze);
        Ok(report(&phase, metrics, &wl, config, &opts, nproc))
    } else {
        let phase = measure(
            &wl,
            config,
            |db, _: &mut ()| QueryService::new(db),
            |service, text, _| execute(service, text),
            QueryService::stats,
        );
        let metrics = end_to_end_metrics(&phase);
        Ok(report(&phase, metrics, &wl, config, &opts, nproc))
    }
}

/// The result of `phase`, with its load shape.
fn report<S>(
    phase: &Phase<S>,
    metrics: Vec<Metric>,
    wl: &Workload,
    config: &Config,
    opts: &EvalOptions,
    nproc: usize,
) -> Report {
    let (attempted, failed) = (phase.attempted(), phase.failed());
    let hits = phase.stats_after.cache_hits - phase.stats_before.cache_hits;
    let misses = phase.stats_after.cache_misses - phase.stats_before.cache_misses;
    let shape = vec![
        ("workload", Json::str(wl.name)),
        ("seed", Json::int(config.seed)),
        ("commit", Json::str(git_commit())),
        ("nproc", Json::int(nproc)),
        ("clients", Json::int(wl.clients)),
        ("threads_per_request", Json::int(wl.threads)),
        ("layout", Json::str(format!("{:?}", opts.layout))),
        ("plan_capacity", Json::int(DEFAULT_PLAN_CAPACITY)),
        ("nodes", Json::int(wl.db.num_nodes())),
        ("edges", Json::int(wl.db.num_edges())),
        ("distinct_texts", Json::int(phase.distinct_texts())),
        (
            "hit_ratio",
            number(ratio(hits as f64, (hits + misses) as f64)),
        ),
        ("latency_samples", Json::int(phase.timed().count())),
        ("setup_reps", Json::int(phase.setup_secs.len())),
        ("warmup_requests", Json::int(wl.warmup.len())),
        (
            "failed_share",
            number(ratio(failed as f64, attempted as f64)),
        ),
    ];
    Report {
        attempted,
        failed,
        metrics,
        shape,
    }
}

/// One request as the loop saw it.
struct Sample {
    latency: Duration,
    ok: bool,
    text: std::sync::Arc<str>,
}

/// One measured phase: repeated set-up, then the timed closed loop.
struct Phase<S> {
    setup_secs: Vec<f64>,
    warmup: Vec<Sample>,
    warm_state: S,
    /// Per client: its samples and its state, in stream order.
    clients: Vec<(Vec<Sample>, S)>,
    wall: Duration,
    stats_before: ecrpq_core::ServiceStats,
    stats_after: ecrpq_core::ServiceStats,
}

impl<S> Phase<S> {
    fn timed(&self) -> impl Iterator<Item = &Sample> {
        self.clients.iter().flat_map(|(samples, _)| samples)
    }

    fn all(&self) -> impl Iterator<Item = &Sample> {
        self.warmup.iter().chain(self.timed())
    }

    fn attempted(&self) -> usize {
        self.all().count()
    }

    fn failed(&self) -> usize {
        self.all().filter(|s| !s.ok).count()
    }

    fn distinct_texts(&self) -> usize {
        let texts: std::collections::BTreeSet<&str> = self.timed().map(|s| &*s.text).collect();
        texts.len()
    }
}

/// Sets up repeatedly (see `SETUP_REPS`), each time from an unfrozen
/// copy of the graph with the previous server dropped first, and keeps
/// the last server for the timed closed loop. A set-up is `open` plus the
/// warm-up pass over the hot set.
fn measure<T: Sync, S: Default + Send>(
    wl: &Workload,
    config: &Config,
    mut open: impl FnMut(GraphDb, &mut S) -> T,
    serve: impl Fn(&T, &str, &mut S) -> Result<Reply, String> + Sync,
    stats: impl Fn(&T) -> ecrpq_core::ServiceStats,
) -> Phase<S> {
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut last = None;
    while setup_secs.len() < SETUP_MAX_REPS
        && (setup_secs.len() < SETUP_REPS || setup_secs.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(last.take());
        let db = wl.db.clone();
        let mut state = S::default();
        let start = Instant::now();
        let server = open(db, &mut state);
        let replies: Vec<_> = wl
            .warmup
            .iter()
            .map(|r| serve(&server, &r.text, &mut state))
            .collect();
        setup_secs.push(start.elapsed().as_secs_f64());
        let warmup = wl
            .warmup
            .iter()
            .zip(replies)
            .map(|(r, reply)| judge(r, reply, Duration::ZERO, false))
            .collect();
        last = Some((server, state, warmup));
    }
    let (server, warm_state, warmup) = last.expect("at least one set-up");
    let stats_before = stats(&server);
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let clients = std::thread::scope(|s| {
        let handles: Vec<_> = (0..wl.clients)
            .map(|client| {
                let (server, serve, done) = (&server, &serve, &done);
                s.spawn(move || {
                    let mut state = S::default();
                    let mut samples = Vec::new();
                    for (i, request) in wl.stream(client).enumerate() {
                        if start.elapsed().as_secs_f64() >= config.seconds
                            && done.load(Ordering::Relaxed) >= MIN_REQUESTS
                        {
                            break;
                        }
                        let t = Instant::now();
                        let reply = serve(server, &request.text, &mut state);
                        let latency = t.elapsed();
                        let corrupt = config.corrupt_reference && client == 0 && i == 0;
                        samples.push(judge(&request, reply, latency, corrupt));
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    (samples, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    Phase {
        setup_secs,
        warmup,
        warm_state,
        clients,
        wall,
        stats_before,
        stats_after: stats(&server),
    }
}

/// Checks one reply: no error, a complete termination and exactly the
/// reference answers (or, when `corrupt`, a reference with one extra
/// tuple no graph has, which no reply can match).
fn judge(
    request: &Request,
    reply: Result<Reply, String>,
    latency: Duration,
    corrupt: bool,
) -> Sample {
    let ok = match reply {
        Ok(Reply {
            answers,
            termination,
            ..
        }) => {
            let matches = if corrupt {
                let mut wrong = (*request.expected).clone();
                wrong.insert(vec![u32::MAX]);
                answers == wrong
            } else {
                answers == *request.expected
            };
            if !matches {
                eprintln!("perfbench: wrong answers for `{}`", request.text);
            } else if termination != Termination::Complete {
                eprintln!("perfbench: `{}` ended {termination:?}", request.text);
            }
            matches && termination == Termination::Complete
        }
        Err(e) => {
            eprintln!("perfbench: `{}` failed: {e}", request.text);
            false
        }
    };
    Sample {
        latency,
        ok,
        text: request.text.clone(),
    }
}

fn end_to_end_metrics(plain: &Phase<()>) -> Vec<Metric> {
    let mut ms: Vec<f64> = plain
        .timed()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    ms.sort_by(f64::total_cmp);
    let completed = plain.timed().filter(|s| s.ok).count();
    vec![
        Metric {
            name: "setup_s",
            value: median(&plain.setup_secs),
            unit: "s",
        },
        Metric {
            name: "qps",
            value: completed as f64 / plain.wall.as_secs_f64(),
            unit: "1/s",
        },
        Metric {
            name: "p50_ms",
            value: quantile(&ms, 0.5),
            unit: "ms",
        },
        Metric {
            name: "p90_ms",
            value: quantile(&ms, 0.9),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        },
    ]
}

fn per_layer_metrics(traced: &Phase<Layers>, freeze: &[f64]) -> Vec<Metric> {
    let mut l = Layers::default();
    l.merge(&traced.warm_state);
    for (_, layers) in &traced.clients {
        l.merge(layers);
    }
    let us = |key| l.mean(key) * 1e6;
    let ms = |key| l.mean(key) * 1e3;
    let kept_ratio = |layer: &str| {
        let kept = l.sum(&format!("{layer}.domain_kept"));
        ratio(kept, kept + l.sum(&format!("{layer}.domain_pruned")))
    };
    let hits = traced.stats_after.cache_hits - traced.stats_before.cache_hits;
    let misses = traced.stats_after.cache_misses - traced.stats_before.cache_misses;
    let evictions = traced.stats_after.cache_evictions - traced.stats_before.cache_evictions;
    let requests = traced.timed().count() as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("query.parse_us", us("query.parse"), "us"),
        m("query.unparse_us", us("query.unparse"), "us"),
        m("analyze.analyze_us", us("analyze.analyze"), "us"),
        m("analyze.minimize_us", us("analyze.minimize"), "us"),
        m(
            "analyze.minimize_steps",
            l.mean("analyze.minimize_steps"),
            "count",
        ),
        m("optimize.us", us("optimize"), "us"),
        m("planner.measures_us", us("planner.measures"), "us"),
        m("planner.join_tree_us", us("planner.join_tree"), "us"),
        m("prepare.compile_us", us("prepare.compile"), "us"),
        m("prepare.states", l.mean("prepare.states"), "count"),
        m("graph.freeze_ms", median(freeze) * 1e3, "ms"),
        m("tables.build_ms", ms("tables.build"), "ms"),
        m("to_cq.materialize_ms", ms("to_cq.materialize"), "ms"),
        m("to_cq.tuples", l.mean("to_cq.tuples"), "count"),
        m("to_cq.configs", l.mean("to_cq.configs"), "count"),
        m("cq.eval_ms", ms("cq.eval"), "ms"),
        m("yannakakis.eval_ms", ms("yannakakis.eval"), "ms"),
        m("yannakakis.configs", l.mean("yannakakis.configs"), "count"),
        m(
            "yannakakis.domain_kept_ratio",
            kept_ratio("yannakakis"),
            "ratio",
        ),
        m("product.eval_ms", ms("product.eval"), "ms"),
        m("product.configs", l.mean("product.configs"), "count"),
        m(
            "product.configs_per_s",
            ratio(l.sum("product.configs"), l.sum("product.eval")),
            "1/s",
        ),
        m(
            "product.memo_hit_ratio",
            ratio(l.sum("product.cache_hits"), l.sum("product.checks")),
            "ratio",
        ),
        m("product.domain_kept_ratio", kept_ratio("product"), "ratio"),
        m("server.lookup_us", us("server.lookup"), "us"),
        m(
            "server.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        m(
            "server.evictions",
            ratio(evictions as f64, requests),
            "1/req",
        ),
        m("governor.checks", l.mean("governor.checks"), "count"),
        m("unattributed_ms", ms("unattributed"), "ms"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Nearest-rank quantile of sorted `v` (0 when empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checked-out commit, read from `.git` when the working directory is
/// a git checkout, else `unknown`.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests;
