//! The traced run: the request pipeline driven layer by layer.
//!
//! `QueryService::execute` is one opaque call, so the traced run makes
//! the calls it makes itself, each timed at the benchmark's boundary:
//! the service's `prepare` (the plan-cache lookup, which also keeps the
//! service's own hit, miss and eviction counters true), the cold
//! compile steps `QueryService::prepare_cold` takes, the lazy table
//! build or Lemma 4.3 materialization, and the governed engine entry
//! point the service dispatches to. Plans the service has evicted are
//! rebuilt here too, so the table builds fall on the same requests.

use crate::workload::Answers;
use crate::Reply;
use ecrpq_analyze::{acyclic_join_tree, analyze, minimize, JoinTree};
use ecrpq_core::engine::{
    answers_cq_treedec_governed_traced, answers_product_governed_prepared_traced,
    answers_yannakakis_governed_prepared_traced,
};
use ecrpq_core::{
    ecrpq_to_cq, CollectingTracer, EvalOptions, FnvHashMap, PreparedPlan, PreparedQuery,
    PreparedTables, QueryService, Simplified, Strategy, Termination,
};
use ecrpq_graph::GraphDb;
use ecrpq_query::{parse_query, unparse, Cq, RelationRegistry, RelationalDb};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// The state budget `QueryService` gives `unparse` when it normalizes a
/// cache key.
const UNPARSE_STATE_BUDGET: usize = 64;

/// `planner::choose_strategy`'s materialization budget: the Lemma 4.3
/// reduction runs when `|V|^(2·cc_vertex)` stays under it.
const TUPLE_BUDGET: f64 = 5e7;

/// A running sum and count.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    sum: f64,
    n: u64,
}

impl Acc {
    /// The mean, or 0 when the layer never ran.
    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// One client's layer samples. Times are kept in seconds.
#[derive(Debug, Default)]
pub struct Layers {
    acc: BTreeMap<&'static str, Acc>,
    /// Layer time charged to the request in progress.
    open: f64,
    /// Layer time of the last finished request.
    last: f64,
}

impl Layers {
    /// Adds one sample of `key`.
    pub fn add(&mut self, key: &'static str, value: f64) {
        let a = self.acc.entry(key).or_default();
        a.sum += value;
        a.n += 1;
    }

    /// Runs `f`, recording its wall time under `key` and charging it to
    /// the open request.
    fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.add(key, secs);
        self.open += secs;
        out
    }

    fn finish_request(&mut self) {
        self.last = std::mem::take(&mut self.open);
    }

    /// The summed layer times of the last finished request.
    pub fn last_request(&self) -> f64 {
        self.last
    }

    /// Folds another client's samples in.
    pub fn merge(&mut self, other: &Layers) {
        for (key, a) in &other.acc {
            let mine = self.acc.entry(key).or_default();
            mine.sum += a.sum;
            mine.n += a.n;
        }
    }

    /// The summed value of `key`.
    pub fn sum(&self, key: &str) -> f64 {
        self.acc.get(key).map_or(0.0, |a| a.sum)
    }

    /// The mean value of `key`.
    pub fn mean(&self, key: &str) -> f64 {
        self.acc.get(key).map_or(0.0, Acc::mean)
    }
}

/// The bench-side half of a plan: what `PreparedPlan` keeps private.
struct Compiled {
    /// `None` when the analyzer or optimizer proved the query
    /// unsatisfiable.
    prepared: Option<PreparedQuery>,
    strategy: Strategy,
    tree: Option<JoinTree>,
    tables: OnceLock<Arc<PreparedTables>>,
    cq: OnceLock<Arc<(Cq, RelationalDb)>>,
}

impl Compiled {
    fn short_circuit() -> Self {
        Compiled {
            prepared: None,
            strategy: Strategy::DirectProduct,
            tree: None,
            tables: OnceLock::new(),
            cq: OnceLock::new(),
        }
    }
}

/// Canonical key → (the service's plan, our compiled half). The weak
/// handle tells when the service evicted or replaced the plan.
type PlanMap = FnvHashMap<String, (Weak<PreparedPlan>, Arc<Compiled>)>;

/// A service plus the bench-side plans of the plans it holds.
pub struct Traced {
    service: QueryService,
    registry: RelationRegistry,
    opts: EvalOptions,
    plans: Mutex<PlanMap>,
}

impl Traced {
    /// Freezes `db` (timed as `graph.freeze`) and opens a service on it.
    pub fn new(db: GraphDb, opts: EvalOptions, layers: &mut Layers) -> Self {
        layers.time("graph.freeze", || db.freeze());
        Traced {
            service: QueryService::new(db),
            registry: RelationRegistry::new(),
            opts,
            plans: Mutex::new(FnvHashMap::default()),
        }
    }

    pub fn service(&self) -> &QueryService {
        &self.service
    }

    /// Serves one request layer by layer.
    pub fn serve(&self, text: &str, layers: &mut Layers) -> Result<Reply, String> {
        let reply = self.serve_layers(text, layers);
        layers.finish_request();
        reply
    }

    fn serve_layers(&self, text: &str, layers: &mut Layers) -> Result<Reply, String> {
        let start = Instant::now();
        let (plan, cached) = self.service.prepare(text).map_err(|e| e.to_string())?;
        if cached {
            let lookup = start.elapsed().as_secs_f64();
            layers.add("server.lookup", lookup);
            layers.open += lookup;
        }
        let compiled = self.compiled_for(text, &plan, cached, layers)?;
        let (answers, termination) = self.execute(&plan, &compiled, layers)?;
        Ok(Reply {
            answers,
            termination,
            cached,
        })
    }

    /// Our compiled half of `plan`: reused while the service still holds
    /// the same plan, compiled afresh on every service miss (the service
    /// compiled too) and whenever the service's plan is one we have not
    /// seen.
    fn compiled_for(
        &self,
        text: &str,
        plan: &Arc<PreparedPlan>,
        cached: bool,
        layers: &mut Layers,
    ) -> Result<Arc<Compiled>, String> {
        let known = lock(&self.plans)
            .get(&plan.key)
            .filter(|(weak, _)| weak.as_ptr() == Arc::as_ptr(plan))
            .map(|(_, compiled)| Arc::clone(compiled));
        if let (true, Some(compiled)) = (cached, &known) {
            return Ok(Arc::clone(compiled));
        }
        let fresh = Arc::new(self.compile(text.trim(), layers)?);
        let agrees = match &fresh.prepared {
            None => plan.is_short_circuit(),
            Some(_) => !plan.is_short_circuit() && fresh.strategy == plan.strategy,
        };
        if !agrees {
            return Err(format!(
                "plan mismatch on `{text}`: service {:?}, benchmark {:?}",
                plan.strategy, fresh.strategy
            ));
        }
        // a miss that converged on an interned plan reuses its tables
        if let Some(compiled) = known {
            return Ok(compiled);
        }
        let mut plans = lock(&self.plans);
        plans.retain(|_, (weak, _)| weak.strong_count() > 0);
        plans.insert(plan.key.clone(), (Arc::downgrade(plan), Arc::clone(&fresh)));
        Ok(fresh)
    }

    /// The steps of `QueryService::prepare_cold`, each timed.
    fn compile(&self, text: &str, layers: &mut Layers) -> Result<Compiled, String> {
        let db = self.service.db();
        let mut alphabet = db.alphabet().clone();
        let query = layers
            .time("query.parse", || {
                parse_query(text, &mut alphabet, &self.registry)
            })
            .map_err(|e| e.to_string())?;
        if alphabet.len() != db.alphabet().len() {
            return Err(format!("`{text}` mentions symbols outside the graph"));
        }
        layers.time("query.unparse", || unparse(&query, UNPARSE_STATE_BUDGET));
        let analysis = layers.time("analyze.analyze", || analyze(&query));
        if analysis.has_errors() {
            return Ok(Compiled::short_circuit());
        }
        let minimized = layers.time("analyze.minimize", || minimize(&query));
        layers.add("analyze.minimize_steps", minimized.steps.len() as f64);
        let effective = if minimized.steps.is_empty() {
            query
        } else {
            minimized.query
        };
        let optimized = match layers.time("optimize", || ecrpq_core::optimize(&effective)) {
            Ok(Simplified::Query(q)) => q,
            Ok(Simplified::ConstFalse) => return Ok(Compiled::short_circuit()),
            Err(e) => return Err(e.to_string()),
        };
        let measures = layers.time("planner.measures", || optimized.measures());
        let (strategy, tree) = layers.time("planner.join_tree", || {
            let nodes = db.num_nodes().max(1) as f64;
            if nodes.powi(2 * measures.cc_vertex.max(1) as i32) <= TUPLE_BUDGET {
                return (Strategy::CqTreedec, None);
            }
            match acyclic_join_tree(&optimized) {
                Some(tree) if tree.parent.len() >= 2 => (Strategy::Yannakakis, Some(tree)),
                _ => (Strategy::DirectProduct, None),
            }
        });
        let prepared = layers
            .time("prepare.compile", || PreparedQuery::build(&optimized))
            .map_err(|e| e.to_string())?;
        let states: usize = prepared.atoms.iter().map(|a| a.rel.num_states()).sum();
        layers.add("prepare.states", states as f64);
        Ok(Compiled {
            prepared: Some(prepared),
            strategy,
            tree,
            tables: OnceLock::new(),
            cq: OnceLock::new(),
        })
    }

    /// The service's `run_plan`, each layer timed: lazy tables or
    /// materialization, then the governed engine call under a collecting
    /// tracer and the plan's regime budget.
    fn execute(
        &self,
        plan: &PreparedPlan,
        compiled: &Compiled,
        layers: &mut Layers,
    ) -> Result<(Answers, Termination), String> {
        let Some(prepared) = &compiled.prepared else {
            return Ok((Answers::new(), Termination::Complete));
        };
        let db = self.service.db();
        let opts = if self.opts.budget.is_unlimited() {
            self.opts.with_budget(plan.default_budget)
        } else {
            self.opts
        };
        let tracer = CollectingTracer::new();
        let outcome = match compiled.strategy {
            Strategy::CqTreedec => {
                let cq = compiled.cq.get_or_init(|| {
                    let (cq, rdb, stats) =
                        layers.time("to_cq.materialize", || ecrpq_to_cq(db, prepared));
                    layers.add("to_cq.tuples", stats.tuples as f64);
                    layers.add("to_cq.configs", stats.configurations as f64);
                    Arc::new((cq, rdb))
                });
                layers.time("cq.eval", || {
                    answers_cq_treedec_governed_traced(&cq.1, &cq.0, &opts, &tracer)
                })
            }
            Strategy::Yannakakis => {
                let tree = compiled
                    .tree
                    .as_ref()
                    .ok_or("Yannakakis plan without a tree")?;
                let tables = compiled.tables.get_or_init(|| {
                    layers.time("tables.build", || {
                        Arc::new(PreparedTables::build_for_tree(db, prepared, tree))
                    })
                });
                let out = layers.time("yannakakis.eval", || {
                    answers_yannakakis_governed_prepared_traced(
                        db, prepared, tables, &opts, &tracer,
                    )
                });
                layers.add("yannakakis.configs", out.stats.configurations as f64);
                layers.add("yannakakis.domain_kept", out.stats.domain_kept as f64);
                layers.add("yannakakis.domain_pruned", out.stats.domain_pruned as f64);
                out
            }
            Strategy::DirectProduct => {
                let tables = compiled.tables.get_or_init(|| {
                    layers.time("tables.build", || {
                        Arc::new(PreparedTables::build(db, prepared, opts.layout))
                    })
                });
                let out = layers.time("product.eval", || {
                    answers_product_governed_prepared_traced(db, prepared, tables, &opts, &tracer)
                });
                let s = &out.stats;
                layers.add("product.configs", s.configurations as f64);
                layers.add("product.checks", s.checks as f64);
                layers.add("product.cache_hits", s.cache_hits as f64);
                layers.add("product.domain_kept", s.domain_kept as f64);
                layers.add("product.domain_pruned", s.domain_pruned as f64);
                out
            }
        };
        layers.add("governor.checks", outcome.stats.budget_checks as f64);
        Ok((outcome.answers, outcome.termination))
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a client panicked while holding the plan map")
}
