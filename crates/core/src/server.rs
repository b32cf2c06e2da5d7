//! Long-lived query service with an interned prepared-plan cache.
//!
//! The paper's headline result (Theorem 3.2) is a *per-query*
//! classification: analysis, minimization, strategy selection and automata
//! compilation depend on the query alone (plus the database size), while a
//! production workload evaluates the same few queries over and over. This
//! module amortizes the whole front half of the planner pipeline across
//! executions: a [`QueryService`] owns the database and a cache of
//! [`PreparedPlan`]s keyed by **normalized query text** (the verified
//! [`ecrpq_query::unparse()`] rendering, so textual variants of one query —
//! whitespace, variable spelling that round-trips identically — share a
//! single compiled plan).
//!
//! The canonical rendering exists only when the query's regexes use every
//! symbol of the database's alphabet: a reparse of the rendering must
//! rebuild that alphabet. Otherwise the key is the trimmed source text,
//! and `unparse` finds that out by a scan of the symbols on the regexes'
//! automata, before it renders or verifies anything. A query over
//! `{a, b, c, d}` that never mentions `c` is therefore keyed by its text,
//! and its spelling variants each compile once.
//!
//! # What is and is not cacheable
//!
//! A cached entry carries only *run-independent* state: the compiled
//! [`PreparedQuery`], the [`Analysis`] and complexity regimes, the
//! minimized form's step count, the per-regime default [`ResourceBudget`]
//! (an inert description of limits), and lazily-built
//! [`crate::PreparedTables`] per layout. It **never** carries a
//! `Governor` or a deadline `Instant`:
//! a governor captures `Instant::now() + deadline` at construction and
//! latches a one-way stop flag when any limit trips, so caching one would
//! hand every later execution an already-expired deadline or an
//! already-tripped stop flag. The governed engine entry points construct a
//! fresh governor inside every call — see
//! [`crate::engine::answers_product_governed_prepared_traced`] — and the
//! regression suite proves a second run on a cached plan starts clean.
//!
//! For the same reason the cached tables are built **ungoverned**: a
//! budget tripping mid-build truncates closure rows and semijoin domains,
//! which is sound for the single run that reports a non-complete
//! [`Termination`] but silently lossy forever if the truncated tables were
//! reused. Only the per-execution search region is governed. The one
//! exception is the semijoin-reduced tree-decomposition instance of a
//! [`Strategy::CqTreedec`] plan ([`crate::cq_eval::ReducedCq`]): the
//! first request builds it under its own governor and is charged for its
//! bytes, and the plan keeps it only when that governor did not stop — a
//! tripped build serves that request alone and is dropped.
//!
//! # Admission control
//!
//! A [`Session`] layers per-client budget enforcement on top of the
//! shared cache: each session holds a configuration-work pool, every
//! execution's budget is intersected with the session's per-query budget
//! and capped by what remains in the pool, and a session whose pool is
//! exhausted is refused *before* any evaluation work is spent
//! ([`ServerError::SessionExhausted`]). The pool is charged with the work
//! the governor actually metered, so enforcement is exact up to the
//! governor's cooperative check interval.

use crate::engine::EvalOptions;
use crate::governor::{Outcome, ResourceBudget, Termination};
use crate::planner::{self, CombinedRegime, ParamRegime, PlanTables, Strategy};
use crate::prepare::PreparedQuery;
use crate::product::ProductStats;
use crate::trace::{CollectingTracer, Metrics, NoopTracer, PhaseCells};
use crate::FnvHashMap;
use ecrpq_analyze::{Analysis, JoinTree};
use ecrpq_graph::{GraphDb, NodeId};
use ecrpq_query::{QueryMeasures, QueryParseError, RelationRegistry};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// State budget for the canonical-rendering verification inside key
/// normalization: the [`ecrpq_query::unparse()`] equivalence checks refuse
/// automata larger than this rather than trust them, in which case the
/// cache key falls back to the trimmed source text. The budget matters
/// only for queries whose regexes use every database symbol; any other
/// query is keyed by its trimmed text after a symbol scan, without a
/// rendering to verify.
const UNPARSE_STATE_BUDGET: usize = 64;

/// Locks a mutex, treating a poisoned lock as still usable: the plan
/// cache is valid after any partial mutation, so a panicking worker must
/// not wedge the service.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Why the service refused a request.
#[derive(Debug)]
pub enum ServerError {
    /// The query text was rejected by the grammar or validation.
    Rejected(QueryParseError),
    /// The query mentions edge symbols the database's alphabet does not
    /// contain — evaluating it would require re-interning the database.
    AlphabetMismatch {
        /// Alphabet size after reading the query text.
        query_symbols: usize,
        /// The database's (fixed) alphabet size.
        db_symbols: usize,
    },
    /// The session's configuration-work pool is exhausted; admission
    /// control refused the request before any evaluation work was spent.
    SessionExhausted,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Rejected(e) => write!(f, "query rejected: {e}"),
            ServerError::AlphabetMismatch {
                query_symbols,
                db_symbols,
            } => write!(
                f,
                "query alphabet ({query_symbols} symbols) exceeds the database's ({db_symbols})"
            ),
            ServerError::SessionExhausted => {
                write!(
                    f,
                    "session work pool exhausted; request refused at admission"
                )
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl From<QueryParseError> for ServerError {
    fn from(e: QueryParseError) -> Self {
        ServerError::Rejected(e)
    }
}

/// Default capacity of the plan cache, in distinct compiled plans. High
/// enough that a production corpus never evicts; low enough that a
/// service fed adversarial one-shot query text stays bounded.
pub const DEFAULT_PLAN_CAPACITY: usize = 256;

/// The interned-plan map with LRU eviction over **distinct plans**.
///
/// Keys are query texts (canonical renderings plus raw-text aliases);
/// several keys may share one [`PreparedPlan`]. Capacity counts distinct
/// plans, not keys, and eviction removes a whole plan — the one whose
/// most recent touch (through any of its keys) is oldest — together with
/// every alias pointing at it. A hit is one map lookup and a stamp store;
/// an insert keeps the plan count, so neither walks the map. Evicted
/// plans are handed back to the caller, which drops them after releasing
/// the lock.
struct PlanCache {
    /// Key → index of its plan's slot.
    keys: FnvHashMap<String, usize>,
    /// Interned plans; `None` marks a free slot.
    slots: Vec<Option<CacheSlot>>,
    /// Indices of the free slots.
    free: Vec<usize>,
    /// Distinct plans interned (occupied slots).
    plans: usize,
    /// Monotone logical clock; bumped on every touch or insert.
    tick: u64,
    /// Maximum distinct plans retained (≥ 1).
    capacity: usize,
    /// Plans evicted over the service lifetime.
    evictions: u64,
}

/// One interned plan with every key that names it.
struct CacheSlot {
    plan: Arc<PreparedPlan>,
    /// The clock at the plan's last touch through any of its keys.
    stamp: u64,
    keys: Vec<String>,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        PlanCache {
            keys: FnvHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            plans: 0,
            tick: 0,
            capacity: capacity.max(1),
            evictions: 0,
        }
    }

    /// Looks `key` up, refreshing its plan's LRU stamp on a hit.
    fn get(&mut self, key: &str) -> Option<Arc<PreparedPlan>> {
        self.tick += 1;
        let slot = self.slots[*self.keys.get(key)?].as_mut()?;
        slot.stamp = self.tick;
        Some(Arc::clone(&slot.plan))
    }

    /// Interns `plan` under its canonical key plus the raw-text alias
    /// `trimmed`, returning the canonical plan (an earlier racer's plan
    /// wins if one got there first) and the plans evicted down to
    /// capacity.
    fn intern(
        &mut self,
        trimmed: &str,
        plan: Arc<PreparedPlan>,
    ) -> (Arc<PreparedPlan>, Vec<Arc<PreparedPlan>>) {
        self.tick += 1;
        let mut dropped = Vec::new();
        let index = match self.keys.get(plan.key.as_str()) {
            Some(&index) => index,
            None => {
                let key = plan.key.clone();
                let index = self.occupy(plan);
                dropped.extend(self.bind(key, index));
                index
            }
        };
        // lint:allow(unwrap): `keys` only names occupied slots
        let slot = self.slots[index].as_mut().expect("occupied slot");
        slot.stamp = self.tick;
        let canonical = Arc::clone(&slot.plan);
        if trimmed != canonical.key {
            dropped.extend(self.bind(trimmed.to_string(), index));
        }
        dropped.extend(self.evict_to_capacity());
        (canonical, dropped)
    }

    /// Stores `plan` in a free slot, returning its index.
    fn occupy(&mut self, plan: Arc<PreparedPlan>) -> usize {
        let slot = Some(CacheSlot {
            plan,
            stamp: self.tick,
            keys: Vec::new(),
        });
        self.plans += 1;
        match self.free.pop() {
            Some(index) => {
                self.slots[index] = slot;
                index
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        }
    }

    /// Points `key` at slot `index`. A key that named another plan
    /// leaves it; a plan left without keys is released and returned.
    fn bind(&mut self, key: String, index: usize) -> Option<Arc<PreparedPlan>> {
        let previous = self.keys.insert(key.clone(), index);
        if previous == Some(index) {
            return None;
        }
        // lint:allow(unwrap): `keys` only names occupied slots
        let slot = self.slots[index].as_mut().expect("occupied slot");
        slot.keys.push(key.clone());
        let old = previous?;
        // lint:allow(unwrap): `keys` only names occupied slots
        let other = self.slots[old].as_mut().expect("occupied slot");
        other.keys.retain(|k| *k != key);
        other.keys.is_empty().then(|| self.release(old))
    }

    /// Frees slot `index`, returning its plan. The caller has already
    /// unmapped the slot's keys.
    fn release(&mut self, index: usize) -> Arc<PreparedPlan> {
        // lint:allow(unwrap): only occupied slots are released
        let slot = self.slots[index].take().expect("occupied slot");
        self.free.push(index);
        self.plans -= 1;
        slot.plan
    }

    /// Evicts least-recently-touched plans (and all their aliases) until
    /// at most `capacity` distinct plans remain, returning them. The plan
    /// interned or touched last carries the freshest stamp, so it is
    /// never the victim.
    fn evict_to_capacity(&mut self) -> Vec<Arc<PreparedPlan>> {
        let mut evicted = Vec::new();
        while self.plans > self.capacity {
            let Some(victim) = (0..self.slots.len())
                .filter_map(|i| Some((self.slots[i].as_ref()?.stamp, i)))
                .min()
                .map(|(_, i)| i)
            else {
                break;
            };
            // lint:allow(unwrap): the victim was picked among occupied slots
            for key in std::mem::take(&mut self.slots[victim].as_mut().expect("occupied slot").keys)
            {
                self.keys.remove(&key);
            }
            evicted.push(self.release(victim));
            self.evictions += 1;
        }
        evicted
    }
}

/// A cached, fully analyzed and compiled query plan.
///
/// Everything here is run-independent (see the module docs for the
/// cacheability argument); per-execution state — governors, deadlines,
/// tracers — is constructed fresh inside [`QueryService::execute`].
pub struct PreparedPlan {
    /// The normalized cache key: the verified canonical rendering when
    /// [`ecrpq_query::unparse()`] produced one, otherwise the trimmed
    /// source text.
    pub key: String,
    /// Structural measures of the (minimized, optimized) query evaluation
    /// actually runs.
    pub measures: QueryMeasures,
    /// The budget regime of the (minimized) query: Theorem 3.2's combined
    /// regime with measures at or above the budget thresholds treated as
    /// unbounded (see [`planner::budget_regime`]). Selects
    /// [`PreparedPlan::default_budget`].
    pub combined: CombinedRegime,
    /// Theorem 3.1 parameterized regime of that class.
    pub param: ParamRegime,
    /// The evaluation strategy chosen for this database size.
    pub strategy: Strategy,
    /// The per-regime default [`ResourceBudget`] — an inert limit
    /// description ([`Copy`], no clock), installed when a request's own
    /// budget is unlimited.
    pub default_budget: ResourceBudget,
    /// Static analysis of the query as written (pre-minimization).
    pub analysis: Analysis,
    /// Number of verified minimizer rewrite steps that applied.
    pub minimize_steps: usize,
    /// The compiled automata-product form, absent when the analyzer or
    /// optimizer proved the query unsatisfiable (executions then return
    /// the empty set without touching the database).
    prepared: Option<PreparedQuery>,
    /// The GYO join tree, present exactly when `strategy` is
    /// [`Strategy::Yannakakis`].
    join_tree: Option<JoinTree>,
    /// Lazily-built tables and the reduced Lemma 4.3 CQ instance, reused
    /// by every execution of this plan.
    tables: PlanTables,
}

impl PreparedPlan {
    /// Whether executions of this plan short-circuit to the empty answer
    /// set (the analyzer or optimizer proved unsatisfiability).
    pub fn is_short_circuit(&self) -> bool {
        self.prepared.is_none()
    }

    /// The GYO join tree the plan executes, present exactly when
    /// [`PreparedPlan::strategy`] is [`Strategy::Yannakakis`].
    pub fn join_tree(&self) -> Option<&JoinTree> {
        self.join_tree.as_ref()
    }
}

/// The result of one served execution.
#[derive(Clone)]
pub struct Response {
    /// The (possibly budget-truncated) answer set.
    pub answers: BTreeSet<Vec<NodeId>>,
    /// Merged evaluator counters for this execution.
    pub stats: ProductStats,
    /// How this execution ended. [`Termination::Complete`] means the
    /// answers are bit-identical to the unbudgeted evaluation.
    pub termination: Termination,
    /// Folded per-phase observability counters for this execution.
    pub metrics: Metrics,
    /// Whether the plan came from the cache (`false` on the miss that
    /// populated it, and always `false` from
    /// [`QueryService::execute_uncached`]).
    pub cached: bool,
    /// Wall-clock service latency of this request (lookup-or-prepare plus
    /// execution).
    pub latency: Duration,
    /// The plan that served the request, with its regimes and measures.
    pub plan: Arc<PreparedPlan>,
}

/// Aggregate service counters, for dashboards and the E22 benchmark.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Requests served through the cache-aware entry points.
    pub requests: u64,
    /// Requests answered from an already-interned plan.
    pub cache_hits: u64,
    /// Requests that paid the cold prepare path.
    pub cache_misses: u64,
    /// Distinct compiled plans currently interned (aliases — raw-text
    /// keys sharing a canonical plan — are not double-counted).
    pub cached_plans: usize,
    /// Plans evicted by the LRU capacity bound over the service lifetime.
    pub cache_evictions: u64,
    /// Median service latency from the log-bucketed histogram (a lower
    /// bound within one sub-bucket, ≤ 1/16 relative error).
    pub p50: Duration,
    /// 99th-percentile service latency, same precision as `p50`.
    pub p99: Duration,
    /// Per-phase metrics folded across every served execution.
    pub metrics: Metrics,
}

/// A concurrent log-bucketed latency histogram: 16 sub-buckets per
/// power-of-two octave (relative bucket width 1/16), atomically updated,
/// so quantiles over millions of requests cost a 1 KiB scan and recording
/// is one relaxed `fetch_add`.
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
}

/// log2 of the sub-buckets per octave.
const HIST_SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const HIST_SUBS: u64 = 1 << HIST_SUB_BITS;
/// Bucket count covering every `u64` nanosecond value:
/// `(63 - HIST_SUB_BITS + 1) * HIST_SUBS + HIST_SUBS` rounded up.
const HIST_BUCKETS: usize = 1024;

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
        }
    }

    /// The bucket index for a nanosecond value (exact below
    /// [`HIST_SUBS`], then the top [`HIST_SUB_BITS`] mantissa bits of
    /// each octave).
    fn bucket_of(nanos: u64) -> usize {
        let n = nanos.max(1);
        let exp = 63 - u64::from(n.leading_zeros());
        if exp < u64::from(HIST_SUB_BITS) {
            return n as usize;
        }
        let shift = exp - u64::from(HIST_SUB_BITS);
        let mantissa = (n >> shift) - HIST_SUBS;
        ((exp - u64::from(HIST_SUB_BITS) + 1) * HIST_SUBS + mantissa) as usize
    }

    /// The smallest nanosecond value mapping to bucket `index` (the
    /// inverse of [`LatencyHistogram::bucket_of`] on bucket lower bounds).
    fn lower_bound(index: usize) -> u64 {
        let i = index as u64;
        if i < HIST_SUBS {
            return i;
        }
        let octave = i / HIST_SUBS;
        let mantissa = i % HIST_SUBS;
        (HIST_SUBS + mantissa) << (octave - 1)
    }

    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        let slot = Self::bucket_of(nanos).min(HIST_BUCKETS - 1);
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the lower bound of the bucket
    /// holding the target rank — an underestimate by at most one
    /// sub-bucket (1/16 relative). [`Duration::ZERO`] when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Duration::from_nanos(Self::lower_bound(i));
            }
        }
        Duration::from_nanos(Self::lower_bound(HIST_BUCKETS - 1))
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// A long-lived query service: owns the database, interns prepared plans
/// under normalized query text, and executes requests under fresh
/// per-execution governors. Shared across threads by reference — every
/// method takes `&self`.
pub struct QueryService {
    db: GraphDb,
    registry: RelationRegistry,
    cache: Mutex<PlanCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    requests: AtomicU64,
    histogram: LatencyHistogram,
    /// Per-phase totals over every served execution, folded in by atomic
    /// adds: the plan cache is the only lock a request takes.
    metrics: PhaseCells,
}

impl QueryService {
    /// A service over `db` resolving relation names through the default
    /// [`RelationRegistry`]. Freezes the database's CSR index up front so
    /// no request pays for it.
    pub fn new(db: GraphDb) -> Self {
        Self::with_registry(db, RelationRegistry::new())
    }

    /// As [`QueryService::new`] with a custom relation registry.
    pub fn with_registry(db: GraphDb, registry: RelationRegistry) -> Self {
        db.freeze();
        QueryService {
            db,
            registry,
            cache: Mutex::new(PlanCache::new(DEFAULT_PLAN_CAPACITY)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            histogram: LatencyHistogram::new(),
            metrics: PhaseCells::new(),
        }
    }

    /// Returns this service with the plan cache bounded to `capacity`
    /// distinct compiled plans (clamped to at least 1). When the cap is
    /// exceeded the least-recently-used plan is evicted together with
    /// every raw-text alias pointing at it; a later request for an
    /// evicted query recompiles through the cold path and re-interns.
    pub fn with_plan_capacity(self, capacity: usize) -> Self {
        let evicted = {
            let mut cache = lock(&self.cache);
            cache.capacity = capacity.max(1);
            cache.evict_to_capacity()
        };
        drop(evicted);
        self
    }

    /// The database this service evaluates over.
    pub fn db(&self) -> &GraphDb {
        &self.db
    }

    /// Looks `text` up in the plan cache, preparing and interning on a
    /// miss. Returns the shared plan and whether it was a hit. The hot
    /// path is a single map lookup on the trimmed source text; the cold
    /// path additionally interns the plan under its canonical rendering,
    /// so different spellings of one query converge on one compiled plan.
    pub fn prepare(&self, text: &str) -> Result<(Arc<PreparedPlan>, bool), ServerError> {
        let trimmed = text.trim();
        if let Some(plan) = lock(&self.cache).get(trimmed) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((plan, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(self.prepare_cold(trimmed)?);
        // two racing misses both compile; the first to intern under the
        // canonical key wins and both requests share the winner
        let (plan, evicted) = lock(&self.cache).intern(trimmed, plan);
        // the evicted plans (and their tables) are freed here, outside the lock
        drop(evicted);
        Ok((plan, false))
    }

    /// The cold path: parse, check the alphabet, normalize the cache key,
    /// then the planner's [`planner::compile`] step. Runs once per
    /// distinct query text; everything it produces is run-independent and
    /// cached.
    fn prepare_cold(&self, trimmed: &str) -> Result<PreparedPlan, ServerError> {
        let mut alphabet = self.db.alphabet().clone();
        // lint:allow(cold-path): one parse per distinct query text, amortized by the cache
        let query = ecrpq_query::parse_query(trimmed, &mut alphabet, &self.registry)?;
        if alphabet.len() != self.db.alphabet().len() {
            return Err(ServerError::AlphabetMismatch {
                query_symbols: alphabet.len(),
                db_symbols: self.db.alphabet().len(),
            });
        }
        // lint:allow(cold-path): key normalization runs once per distinct text
        let key = ecrpq_query::unparse(&query, UNPARSE_STATE_BUDGET)
            .unwrap_or_else(|| trimmed.to_string());
        // lint:allow(cold-path): compiled once per distinct query text, amortized by the cache
        let plan = planner::compile(&self.db, &query, &NoopTracer);
        Ok(PreparedPlan {
            key,
            measures: plan.measures,
            combined: planner::budget_regime(&plan.measures),
            param: plan.param,
            strategy: plan.strategy,
            default_budget: plan.default_budget,
            analysis: plan.analysis,
            minimize_steps: plan.minimize.map_or(0, |m| m.steps.len()),
            prepared: plan.prepared,
            join_tree: plan.join_tree,
            tables: PlanTables::default(),
        })
    }

    /// Serves one request through the cache: lookup-or-prepare, then a
    /// governed execution under a **fresh** governor (the request's
    /// budget, or the plan's regime default when the request's is
    /// unlimited). Records latency and folds the execution's phase
    /// metrics into the service totals.
    pub fn execute(&self, text: &str, opts: &EvalOptions) -> Result<Response, ServerError> {
        let start = Instant::now();
        let (plan, cached) = self.prepare(text)?;
        let outcome = Self::run_plan(&self.db, &plan, opts);
        self.finish(start, outcome, cached, plan)
    }

    /// The cold baseline the E22 benchmark compares against: re-prepares
    /// the plan on every call, bypassing the cache entirely — what every
    /// request paid before the service existed. Latency and metrics are
    /// still recorded, so cached-vs-cold comparisons share one histogram
    /// discipline.
    pub fn execute_uncached(
        &self,
        text: &str,
        opts: &EvalOptions,
    ) -> Result<Response, ServerError> {
        let start = Instant::now();
        let plan = Arc::new(self.prepare_cold(text.trim())?);
        let outcome = Self::run_plan(&self.db, &plan, opts);
        self.finish(start, outcome, false, plan)
    }

    /// Shared response assembly: latency, histogram, metrics fold.
    fn finish(
        &self,
        start: Instant,
        outcome: Outcome<BTreeSet<Vec<NodeId>>>,
        cached: bool,
        plan: Arc<PreparedPlan>,
    ) -> Result<Response, ServerError> {
        let metrics = outcome.metrics.unwrap_or_default();
        let latency = start.elapsed();
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.histogram.record(latency);
        self.metrics.fold(&metrics);
        Ok(Response {
            answers: outcome.answers,
            stats: outcome.stats,
            termination: outcome.termination,
            metrics,
            cached,
            latency,
            plan,
        })
    }

    /// Executes a prepared plan under `opts`. Every call constructs a
    /// fresh governor inside the governed engine entry point it
    /// dispatches to — the plan contributes only inert state (compiled
    /// automata, tables, the default budget), so a previous run's tripped
    /// stop flag or expired deadline cannot leak into this one.
    fn run_plan(
        db: &GraphDb,
        plan: &PreparedPlan,
        opts: &EvalOptions,
    ) -> Outcome<BTreeSet<Vec<NodeId>>> {
        let tracer = CollectingTracer::new();
        let mut outcome = planner::run_answers(
            db,
            plan.strategy,
            plan.prepared.as_ref(),
            plan.join_tree.as_ref(),
            Some(&plan.tables),
            &planner::with_default_budget(opts, plan.default_budget),
            &tracer,
        );
        outcome.metrics = Some(tracer.metrics());
        outcome
    }

    /// Multiplexes a batch of requests over a scoped worker pool:
    /// `workers` threads pull request indices from an atomic queue, so a
    /// slow query never blocks the whole batch behind it. Results come
    /// back in request order.
    pub fn serve<S: AsRef<str> + Sync>(
        &self,
        requests: &[(S, EvalOptions)],
        workers: usize,
    ) -> Vec<Result<Response, ServerError>> {
        let n = requests.len();
        let workers = workers.clamp(1, n.max(1));
        if workers <= 1 {
            return requests
                .iter()
                .map(|(text, opts)| self.execute(text.as_ref(), opts))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<Response, ServerError>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some((text, opts)) = requests.get(i) else {
                                break;
                            };
                            mine.push((i, self.execute(text.as_ref(), opts)));
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                // lint:allow(unwrap): propagate worker panics instead of losing them
                for (i, r) in h.join().expect("service worker panicked") {
                    slots[i] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            // lint:allow(unwrap): the atomic queue hands every index to exactly one worker
            .map(|slot| slot.expect("request slot filled"))
            .collect()
    }

    /// Opens a session with its own budget envelope over this service.
    pub fn session(&self, budget: SessionBudget) -> Session<'_> {
        Session {
            service: self,
            per_query: budget.per_query,
            remaining: AtomicU64::new(budget.max_total_configurations.unwrap_or(u64::MAX)),
            capped: budget.max_total_configurations.is_some(),
            executed: AtomicU64::new(0),
        }
    }

    /// Distinct compiled plans interned right now (raw-text aliases that
    /// share a canonical plan count once).
    pub fn cached_plans(&self) -> usize {
        lock(&self.cache).plans
    }

    /// A snapshot of the service-wide counters, latency quantiles and
    /// folded phase metrics.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            cached_plans: self.cached_plans(),
            cache_evictions: lock(&self.cache).evictions,
            p50: self.histogram.quantile(0.5),
            p99: self.histogram.quantile(0.99),
            metrics: self.metrics.snapshot(),
        }
    }
}

/// The budget envelope of a [`Session`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionBudget {
    /// Per-execution budget, intersected with each request's own budget
    /// (tightest limit wins on every axis). Unlimited by default, in
    /// which case each plan's regime default applies.
    pub per_query: ResourceBudget,
    /// Total configuration-work pool across the session's lifetime;
    /// `None` = unmetered. Each execution is additionally capped by what
    /// remains, and an empty pool refuses further requests at admission.
    pub max_total_configurations: Option<u64>,
}

impl SessionBudget {
    /// An unmetered session (per-query regime defaults still apply).
    pub fn unlimited() -> Self {
        SessionBudget::default()
    }

    /// Returns this envelope with the per-execution budget set.
    pub fn with_per_query(mut self, budget: ResourceBudget) -> Self {
        self.per_query = budget;
        self
    }

    /// Returns this envelope with the lifetime work pool set.
    pub fn with_max_total_configurations(mut self, cap: u64) -> Self {
        self.max_total_configurations = Some(cap);
        self
    }
}

/// The element-wise intersection of two budgets: the tightest limit wins
/// on every axis.
fn intersect_budgets(a: &ResourceBudget, b: &ResourceBudget) -> ResourceBudget {
    fn tighter<T: Ord + Copy>(x: Option<T>, y: Option<T>) -> Option<T> {
        match (x, y) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (v, None) | (None, v) => v,
        }
    }
    ResourceBudget {
        deadline: tighter(a.deadline, b.deadline),
        max_configurations: tighter(a.max_configurations, b.max_configurations),
        max_answers: tighter(a.max_answers, b.max_answers),
        max_memory_bytes: tighter(a.max_memory_bytes, b.max_memory_bytes),
    }
}

/// One client's view of a [`QueryService`]: shares the plan cache with
/// every other session, but carries its own budget envelope and
/// configuration-work pool. Cheap to create per connection; all methods
/// take `&self`, so one session may also be driven from several threads.
pub struct Session<'s> {
    service: &'s QueryService,
    per_query: ResourceBudget,
    remaining: AtomicU64,
    capped: bool,
    executed: AtomicU64,
}

impl Session<'_> {
    /// Serves one request under this session's envelope: admission
    /// control first (an exhausted pool refuses immediately), then the
    /// request budget ∩ the session per-query budget, additionally capped
    /// by the remaining pool. The pool is charged with the work the
    /// governor actually metered.
    pub fn execute(&self, text: &str, opts: &EvalOptions) -> Result<Response, ServerError> {
        let remaining = self.remaining.load(Ordering::Relaxed);
        if remaining == 0 {
            return Err(ServerError::SessionExhausted);
        }
        let mut budget = intersect_budgets(&opts.budget, &self.per_query);
        if self.capped {
            let cap = budget.max_configurations.unwrap_or(u64::MAX).min(remaining);
            budget.max_configurations = Some(cap);
        }
        let response = self.service.execute(text, &opts.with_budget(budget))?;
        if self.capped {
            let spent = response.stats.configurations;
            // lint:allow(unwrap): the closure never returns None
            let _ = self
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| {
                    Some(r.saturating_sub(spent))
                });
        }
        self.executed.fetch_add(1, Ordering::Relaxed);
        Ok(response)
    }

    /// Configuration work still available to this session (`None` when
    /// the session is unmetered).
    pub fn remaining_configurations(&self) -> Option<u64> {
        self.capped.then(|| self.remaining.load(Ordering::Relaxed))
    }

    /// Requests this session has executed (admission refusals excluded).
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::answers;
    use ecrpq_query::parse_query;

    /// A small two-symbol graph with enough shape for non-trivial answer
    /// sets under `a`/`b` regexes.
    fn small_db() -> GraphDb {
        let mut g = GraphDb::new();
        for i in 0..6 {
            g.add_node(&format!("n{i}"));
        }
        for (u, c, v) in [
            (0, 'a', 1),
            (1, 'a', 2),
            (2, 'a', 3),
            (3, 'b', 4),
            (0, 'b', 2),
            (2, 'a', 0),
            (4, 'a', 5),
            (5, 'b', 0),
        ] {
            g.add_edge(u, c, v);
        }
        g
    }

    fn planner_answers(db: &GraphDb, text: &str) -> BTreeSet<Vec<NodeId>> {
        let mut alphabet = db.alphabet().clone();
        let q = parse_query(text, &mut alphabet, &RelationRegistry::new()).expect("parses");
        answers(db, &q)
    }

    #[test]
    fn textual_variants_share_one_plan() {
        let service = QueryService::new(small_db());
        let (p1, hit1) = service
            .prepare("q(x, y) :- x -[p]-> y, p in a*b")
            .expect("prepares");
        assert!(!hit1);
        // extra whitespace: a different raw key, the same canonical form
        let (p2, _) = service
            .prepare("q(x, y)  :-  x -[p]-> y,  p in a*b")
            .expect("prepares");
        assert!(Arc::ptr_eq(&p1, &p2), "canonical key must intern");
        assert_eq!(service.cached_plans(), 1);
        // exact repeat is a raw-text hit
        let (_, hit3) = service
            .prepare("q(x, y) :- x -[p]-> y, p in a*b")
            .expect("prepares");
        assert!(hit3);
    }

    #[test]
    fn cached_execution_matches_planner() {
        let db = small_db();
        let texts = [
            "q(x, y) :- x -[p]-> y, p in a*b",
            "q(x, y) :- x -[p1]-> y, x -[p2]-> y, eq_len(p1, p2)",
        ];
        let service = QueryService::new(small_db());
        for text in texts {
            let expect = planner_answers(&db, text);
            for _ in 0..3 {
                let r = service
                    .execute(text, &EvalOptions::sequential())
                    .expect("executes");
                assert_eq!(r.termination, Termination::Complete);
                assert_eq!(r.answers, expect, "{text}");
            }
        }
        let stats = service.stats();
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.cache_hits, 4);
        assert!(stats.p99 >= stats.p50);
    }

    #[test]
    fn constrained_query_agrees_with_planner() {
        let service = QueryService::new(small_db());
        let text = "q(x) :- x -[p]-> y, x -[r]-> y, p in a, eq_len>=1(p, r)";
        let r = service
            .execute(text, &EvalOptions::sequential())
            .expect("executes");
        // whether or not the analyzer short-circuits it, execution must
        // agree with the one-shot planner pipeline
        assert_eq!(r.answers, planner_answers(&service.db, text));
    }

    #[test]
    fn unknown_symbol_is_refused() {
        let service = QueryService::new(small_db());
        let err = match service.prepare("q(x, y) :- x -[p]-> y, p in z*") {
            Err(e) => e,
            Ok(_) => panic!("z is not in the db alphabet"),
        };
        match err {
            ServerError::AlphabetMismatch { db_symbols, .. } => assert_eq!(db_symbols, 2),
            other => panic!("expected AlphabetMismatch, got {other}"),
        }
    }

    #[test]
    fn garbage_text_is_rejected() {
        let service = QueryService::new(small_db());
        assert!(matches!(
            service.prepare("this is not a query"),
            Err(ServerError::Rejected(_))
        ));
    }

    #[test]
    fn session_pool_admission_control() {
        let service = QueryService::new(small_db());
        let session = service.session(SessionBudget::unlimited().with_max_total_configurations(1));
        let text = "q(x, y) :- x -[p]-> y, p in a*b";
        // first request admitted (pool has 1 unit) but tightly governed
        let first = session.execute(text, &EvalOptions::sequential());
        assert!(first.is_ok());
        // the pool is now drained below any useful level; once it hits
        // zero, admission refuses outright
        let mut refused = false;
        for _ in 0..4 {
            if matches!(
                session.execute(text, &EvalOptions::sequential()),
                Err(ServerError::SessionExhausted)
            ) {
                refused = true;
                break;
            }
        }
        assert!(refused, "an exhausted pool must refuse at admission");
        assert_eq!(session.remaining_configurations(), Some(0));
    }

    #[test]
    fn budget_intersection_takes_tightest() {
        let a = ResourceBudget::unlimited()
            .with_max_configurations(100)
            .with_deadline(Duration::from_secs(5));
        let b = ResourceBudget::unlimited()
            .with_max_configurations(10)
            .with_max_answers(3);
        let i = intersect_budgets(&a, &b);
        assert_eq!(i.max_configurations, Some(10));
        assert_eq!(i.deadline, Some(Duration::from_secs(5)));
        assert_eq!(i.max_answers, Some(3));
        assert_eq!(i.max_memory_bytes, None);
    }

    #[test]
    fn serve_returns_in_request_order() {
        let service = QueryService::new(small_db());
        let requests: Vec<(String, EvalOptions)> = [
            "q(x, y) :- x -[p]-> y, p in a*b",
            "q(x, y) :- x -[p]-> y, p in b*a",
            "q(x, y) :- x -[p]-> y, p in a*b",
            "q(x, y) :- x -[p1]-> y, x -[p2]-> y, eq_len(p1, p2)",
        ]
        .into_iter()
        .map(|t| (t.to_string(), EvalOptions::sequential()))
        .collect();
        let responses = service.serve(&requests, 3);
        assert_eq!(responses.len(), requests.len());
        let db = small_db();
        for ((text, _), r) in requests.iter().zip(&responses) {
            let r = r.as_ref().expect("executes");
            assert_eq!(r.answers, planner_answers(&db, text), "{text}");
        }
        assert_eq!(service.stats().requests, 4);
    }

    /// The service totals are the fold of every response's metrics, even
    /// when four workers fold into them at once.
    #[test]
    fn service_metrics_fold_every_response() {
        let service = QueryService::new(small_db());
        let texts = [
            "q(x, y) :- x -[p]-> y, p in a*b",
            "q(x, y) :- x -[p]-> y, p in b*a",
            "q(x, y) :- x -[p1]-> y, x -[p2]-> y, eq_len(p1, p2)",
            "q(x, z) :- x -[p]-> y, y -[r]-> z, p in a, r in (a|b)*",
        ];
        let requests: Vec<(&str, EvalOptions)> = (0..32)
            .map(|i| (texts[i % texts.len()], EvalOptions::sequential()))
            .collect();
        let mut sum = Metrics::default();
        for r in service.serve(&requests, 4) {
            sum.merge(&r.expect("executes").metrics);
        }
        assert!(sum.total_items() > 0);
        assert_eq!(service.stats().metrics, sum);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        // bucket_of / lower_bound are inverse on bucket lower bounds
        for n in [1u64, 5, 15, 16, 17, 31, 32, 63, 64, 1000, 1 << 40] {
            let b = LatencyHistogram::bucket_of(n);
            let lb = LatencyHistogram::lower_bound(b);
            assert!(lb <= n, "lower_bound({b}) = {lb} > {n}");
            if b + 1 < HIST_BUCKETS {
                assert!(LatencyHistogram::lower_bound(b + 1) > n, "n={n}");
            }
        }
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 >= Duration::from_millis(46) && p50 <= Duration::from_millis(50));
        assert!(p99 >= Duration::from_millis(92) && p99 <= Duration::from_millis(99));
        assert!(p99 >= p50);
    }

    #[test]
    fn plan_cache_evicts_lru_beyond_capacity() {
        let db = small_db();
        let service = QueryService::new(small_db()).with_plan_capacity(2);
        // capacity + 1 distinct queries, inserted in order
        let texts = [
            "q(x, y) :- x -[p]-> y, p in a*b",
            "q(x, y) :- x -[p]-> y, p in b*a",
            "q(x, y) :- x -[p]-> y, p in (a|b)*",
        ];
        for text in texts {
            let (_, hit) = service.prepare(text).expect("prepares");
            assert!(!hit, "{text} is a fresh insert");
        }
        let stats = service.stats();
        assert_eq!(stats.cached_plans, 2, "cap must hold");
        assert_eq!(stats.cache_evictions, 1, "exactly the LRU plan evicted");
        // the oldest entry is gone: preparing it again is a miss...
        let (_, hit) = service.prepare(texts[0]).expect("prepares");
        assert!(!hit, "evicted plan must recompile");
        // ...and the recompiled plan still evaluates correctly
        let r = service
            .execute(texts[0], &EvalOptions::sequential())
            .expect("executes");
        assert_eq!(r.termination, Termination::Complete);
        assert_eq!(r.answers, planner_answers(&db, texts[0]));
        // the newest survivors are still hits (no over-eviction)
        assert!(service.prepare(texts[2]).expect("prepares").1);
    }

    #[test]
    fn plan_cache_eviction_respects_touch_order() {
        let service = QueryService::new(small_db()).with_plan_capacity(2);
        let a = "q(x, y) :- x -[p]-> y, p in a*b";
        let b = "q(x, y) :- x -[p]-> y, p in b*a";
        let c = "q(x, y) :- x -[p]-> y, p in (a|b)*";
        service.prepare(a).expect("prepares");
        service.prepare(b).expect("prepares");
        // touch `a` so `b` becomes least recently used...
        assert!(service.prepare(a).expect("prepares").1);
        // ...then overflow: `b`, not `a`, must fall out
        service.prepare(c).expect("prepares");
        assert!(service.prepare(a).expect("prepares").1, "a stays warm");
        assert!(!service.prepare(b).expect("prepares").1, "b was evicted");
    }

    #[test]
    fn plan_cache_eviction_drops_aliases_with_the_plan() {
        let service = QueryService::new(small_db()).with_plan_capacity(1);
        // one plan under two keys: canonical + a whitespace alias
        service
            .prepare("q(x, y) :- x -[p]-> y, p in a*b")
            .expect("prepares");
        service
            .prepare("q(x, y)  :-  x -[p]-> y,  p in a*b")
            .expect("prepares");
        assert_eq!(service.stats().cached_plans, 1);
        // a second distinct plan evicts the first with all its keys
        service
            .prepare("q(x, y) :- x -[p]-> y, p in b*a")
            .expect("prepares");
        assert_eq!(service.stats().cached_plans, 1);
        assert!(
            !service
                .prepare("q(x, y)  :-  x -[p]-> y,  p in a*b")
                .expect("prepares")
                .1,
            "alias keys of the evicted plan must not linger"
        );
    }

    #[test]
    fn repeated_text_always_hits() {
        let service = QueryService::new(small_db());
        let text = "q(x, y) :- x -[p]-> y, p in (a|b)*";
        let (p1, _) = service.prepare(text).expect("prepares");
        let (p2, hit) = service.prepare(text).expect("prepares");
        assert!(hit);
        assert!(Arc::ptr_eq(&p1, &p2));
    }
}
