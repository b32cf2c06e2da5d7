//! Resource governance for the evaluation stack.
//!
//! Theorem 3.2 makes the threat model explicit: combined-complexity
//! evaluation is PSPACE-complete as soon as `cc_vertex` or `cc_hedge` is
//! unbounded, so a deployment cannot hand the product search an unbounded
//! CPU or memory allowance. This module provides the *graceful* failure
//! mode: a [`ResourceBudget`] (deadline, configuration, answer and memory
//! caps) carried in [`crate::engine::EvalOptions`], checked cooperatively
//! by every evaluator on the hot path — the product BFS, the semijoin
//! sweeps, the CQ backtracking and bag population — every
//! `CHECK_INTERVAL` (~4k) work units, so the check cost is amortized to
//! nothing against the work it meters.
//!
//! Exhaustion is **not an error**: governed entry points return an
//! [`Outcome`] whose answers are the sound partial set found so far (every
//! reported tuple is a real answer; exhaustion can only *lose* answers,
//! never invent them) and whose [`Termination`] says whether the run was
//! complete. A run that terminates [`Termination::Complete`] is
//! bit-identical to the ungoverned evaluators — the budget checks never
//! perturb iteration order, only truncate it.
//!
//! One `Governor` is shared by reference across all workers of a
//! parallel run: the first checkpoint that trips a limit records the cause
//! and raises a stop flag, and sibling workers abandon their chunks at
//! their next checkpoint or top-level domain step — the same cooperative
//! cancellation path the parallel Boolean engine uses for early success.

use crate::product::ProductStats;
use crate::trace::{Metrics, Phase, Tracer};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Cooperative checkpoint cadence, in work units (product configurations,
/// semijoin sweep pops, CQ candidate tuples). Small enough that a 50 ms
/// deadline is honoured within a few milliseconds on any realistic
/// workload; large enough that the `Instant::now()` call and the shared
/// atomics disappear against the metered work.
pub(crate) const CHECK_INTERVAL: u64 = 4096;

/// Checkpoint cadence when a wall-clock deadline is set. Deadlines are
/// only *discovered* at a checkpoint (`Instant::now()` lives there), so
/// the discovery latency is `interval × per-unit cost × oversubscription`
/// — on a single core, eight workers each finishing a full interval
/// serialize, and a 4096-unit interval can overshoot a 50 ms deadline.
/// A 16× tighter cadence bounds the latency to a few milliseconds while
/// still amortizing the clock read over hundreds of work units.
pub(crate) const DEADLINE_CHECK_INTERVAL: u64 = 256;

/// Resource limits for one evaluation run. The default is unlimited on
/// every axis, and an unlimited budget never stops a run.
///
/// All limits are cooperative and amortized (checked every
/// `CHECK_INTERVAL` work units), so each is honoured to within one
/// check interval, not exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Wall-clock allowance, measured from entry into the governed call
    /// (shared-table construction included).
    pub deadline: Option<Duration>,
    /// Cap on total work units across all workers: product configurations
    /// expanded, plus semijoin sweep pops and CQ tuples examined.
    pub max_configurations: Option<u64>,
    /// Cap on distinct answers produced. Enumeration stops *before*
    /// exceeding the cap, so a query with exactly this many answers still
    /// completes. Parallel workers count answers globally but deduplicate
    /// locally, so the cap can trip early on duplicated tuples.
    pub max_answers: Option<u64>,
    /// Cap on the evaluators' tracked retained allocations (memo tables,
    /// BFS visited sets and queues as they grow, bitmaps, answer tuples)
    /// — an estimate, not an RSS measurement.
    pub max_memory_bytes: Option<u64>,
}

impl ResourceBudget {
    /// No limits at all (the default).
    pub fn unlimited() -> Self {
        ResourceBudget::default()
    }

    /// Whether no limit is set on any axis.
    pub fn is_unlimited(&self) -> bool {
        *self == ResourceBudget::default()
    }

    /// This budget with a wall-clock deadline added (builder style).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// This budget with a work-unit cap added (builder style).
    pub fn with_max_configurations(mut self, max: u64) -> Self {
        self.max_configurations = Some(max);
        self
    }

    /// This budget with an answer cap added (builder style).
    pub fn with_max_answers(mut self, max: u64) -> Self {
        self.max_answers = Some(max);
        self
    }

    /// This budget with a tracked-memory cap added (builder style).
    pub fn with_max_memory_bytes(mut self, max: u64) -> Self {
        self.max_memory_bytes = Some(max);
        self
    }
}

impl fmt::Display for ResourceBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unlimited() {
            return write!(f, "unlimited");
        }
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                Ok(())
            } else {
                write!(f, ", ")
            }
        };
        if let Some(d) = self.deadline {
            sep(f)?;
            write!(f, "deadline={}ms", d.as_millis())?;
        }
        if let Some(n) = self.max_configurations {
            sep(f)?;
            write!(f, "max_configurations={n:.1e}", n = n as f64)?;
        }
        if let Some(n) = self.max_answers {
            sep(f)?;
            write!(f, "max_answers={n}")?;
        }
        if let Some(n) = self.max_memory_bytes {
            sep(f)?;
            write!(f, "max_memory_bytes={n}")?;
        }
        Ok(())
    }
}

/// Which budget axis a [`Termination::BudgetExhausted`] run ran out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustedResource {
    /// The work-unit cap ([`ResourceBudget::max_configurations`]).
    Configurations,
    /// The answer cap ([`ResourceBudget::max_answers`]).
    Answers,
    /// The tracked-memory cap ([`ResourceBudget::max_memory_bytes`]).
    Memory,
}

/// How a governed evaluation run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The run finished: the answers are exact (bit-identical to the
    /// ungoverned evaluators).
    Complete,
    /// The wall-clock deadline passed; the answers are a sound subset.
    DeadlineExceeded,
    /// A budget cap tripped; the answers are a sound subset.
    BudgetExhausted {
        /// The axis that ran out.
        resource: ExhaustedResource,
    },
}

impl Termination {
    /// Whether the run finished with exact answers.
    pub fn is_complete(&self) -> bool {
        matches!(self, Termination::Complete)
    }
}

impl fmt::Display for Termination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Termination::Complete => write!(f, "complete"),
            Termination::DeadlineExceeded => write!(f, "deadline exceeded"),
            Termination::BudgetExhausted { resource } => {
                let r = match resource {
                    ExhaustedResource::Configurations => "configurations",
                    ExhaustedResource::Answers => "answers",
                    ExhaustedResource::Memory => "memory",
                };
                write!(f, "budget exhausted ({r})")
            }
        }
    }
}

/// Result of a governed evaluation: the (possibly partial) answers, the
/// merged work counters, and how the run ended.
///
/// `answers` is a [`std::collections::BTreeSet`] of tuples for
/// enumeration entry points and a `bool` for Boolean ones. Soundness
/// invariant: the answers are always a subset of what the ungoverned
/// evaluator would return, with equality exactly when `termination` is
/// [`Termination::Complete`]. A Boolean `true` is definitive regardless of
/// termination; a Boolean `false` under a non-`Complete` termination means
/// "not found before the budget ran out".
#[derive(Debug, Clone)]
pub struct Outcome<A> {
    /// The partial or exact result.
    pub answers: A,
    /// Merged evaluator counters (including the budget counters).
    pub stats: ProductStats,
    /// How the run ended.
    pub termination: Termination,
    /// Folded per-phase observability counters — `Some` only when the run
    /// was driven by a traced entry point with a collecting tracer.
    pub metrics: Option<Metrics>,
}

const CAUSE_NONE: u8 = 0;
const CAUSE_DEADLINE: u8 = 1;
const CAUSE_CONFIGURATIONS: u8 = 2;
const CAUSE_ANSWERS: u8 = 3;
const CAUSE_MEMORY: u8 = 4;

/// The shared run-wide budget state: one per governed evaluation, borrowed
/// by every worker. All methods take `&self`; the stop flag and counters
/// are atomics with relaxed ordering (the flag is advisory — a worker that
/// misses one update catches it at its next checkpoint).
pub(crate) struct Governor {
    deadline: Option<Instant>,
    interval: u64,
    max_configurations: u64,
    max_answers: u64,
    max_memory_bytes: u64,
    configurations: AtomicU64,
    answers: AtomicU64,
    memory_bytes: AtomicU64,
    checkpoints: AtomicU64,
    stop: AtomicBool,
    cause: AtomicU8,
}

impl Governor {
    /// Starts the clock: the deadline is measured from this call.
    pub(crate) fn new(budget: &ResourceBudget) -> Self {
        Governor {
            deadline: budget.deadline.map(|d| Instant::now() + d),
            interval: if budget.deadline.is_some() {
                DEADLINE_CHECK_INTERVAL
            } else {
                CHECK_INTERVAL
            },
            max_configurations: budget.max_configurations.unwrap_or(u64::MAX),
            max_answers: budget.max_answers.unwrap_or(u64::MAX),
            max_memory_bytes: budget.max_memory_bytes.unwrap_or(u64::MAX),
            configurations: AtomicU64::new(0),
            answers: AtomicU64::new(0),
            memory_bytes: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            cause: AtomicU8::new(CAUSE_NONE),
        }
    }

    /// The checkpoint cadence this run wants: [`DEADLINE_CHECK_INTERVAL`]
    /// when a deadline is set (discovery latency matters), otherwise
    /// [`CHECK_INTERVAL`].
    #[inline]
    pub(crate) fn check_interval(&self) -> u64 {
        self.interval
    }

    fn trip(&self, cause: u8) {
        // first cause wins; the stop flag is raised after so readers that
        // see the flag also see a cause
        let _ =
            self.cause
                .compare_exchange(CAUSE_NONE, cause, Ordering::Relaxed, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Whether some limit has tripped (relaxed load — safe to call per
    /// inner-loop step).
    #[inline]
    pub(crate) fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// The amortized check-in: charge `work` units, re-check the deadline,
    /// and report whether the run should stop. Call every
    /// [`CHECK_INTERVAL`] units (the [`Pacer`] does the bookkeeping).
    pub(crate) fn checkpoint(&self, work: u64) -> bool {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        let total = self.configurations.fetch_add(work, Ordering::Relaxed) + work;
        if total > self.max_configurations {
            self.trip(CAUSE_CONFIGURATIONS);
        } else if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.trip(CAUSE_DEADLINE);
            }
        }
        self.stopped()
    }

    /// Claims the right to emit one more (locally new) answer. Returns
    /// `false` — and trips the answer budget — when the cap is already
    /// reached, so a run with exactly `max_answers` answers completes
    /// without tripping.
    pub(crate) fn try_claim_answer(&self) -> bool {
        if self.answers.fetch_add(1, Ordering::Relaxed) >= self.max_answers {
            self.trip(CAUSE_ANSWERS);
            return false;
        }
        true
    }

    /// Charges `bytes` of retained allocation to the tracked-memory
    /// estimate. Returns whether the run should stop.
    pub(crate) fn charge_memory(&self, bytes: u64) -> bool {
        let total = self.memory_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if total > self.max_memory_bytes {
            self.trip(CAUSE_MEMORY);
        }
        self.stopped()
    }

    /// Total work units charged so far (all workers).
    pub(crate) fn work_charged(&self) -> u64 {
        self.configurations.load(Ordering::Relaxed)
    }

    /// Total checkpoints executed so far (all workers).
    pub(crate) fn checkpoints_run(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// The run's termination state as of now.
    pub(crate) fn termination(&self) -> Termination {
        match self.cause.load(Ordering::Relaxed) {
            CAUSE_DEADLINE => Termination::DeadlineExceeded,
            CAUSE_CONFIGURATIONS => Termination::BudgetExhausted {
                resource: ExhaustedResource::Configurations,
            },
            CAUSE_ANSWERS => Termination::BudgetExhausted {
                resource: ExhaustedResource::Answers,
            },
            CAUSE_MEMORY => Termination::BudgetExhausted {
                resource: ExhaustedResource::Memory,
            },
            _ => Termination::Complete,
        }
    }
}

/// Per-worker checkpoint bookkeeping: counts work units locally and checks
/// in with the shared [`Governor`] every [`CHECK_INTERVAL`] units. With no
/// governor installed every method is a branch on a local field — the
/// ungoverned hot path pays one add and one compare per work unit.
pub(crate) struct Pacer<'a> {
    governor: Option<&'a Governor>,
    pending: u64,
    interval: u64,
}

impl<'a> Pacer<'a> {
    pub(crate) fn new(governor: Option<&'a Governor>) -> Self {
        Pacer {
            governor,
            pending: 0,
            interval: governor.map_or(CHECK_INTERVAL, Governor::check_interval),
        }
    }

    pub(crate) fn governor(&self) -> Option<&'a Governor> {
        self.governor
    }

    /// Counts one work unit; at every governor-chosen interval
    /// ([`CHECK_INTERVAL`], or [`DEADLINE_CHECK_INTERVAL`] under a
    /// deadline), checks in with the governor (which is what discovers
    /// deadline/budget exhaustion). Between check-ins it still observes
    /// the shared stop flag — one relaxed atomic load — so sibling workers
    /// abandon their loops within a single work unit of the first trip,
    /// not a whole interval later. Returns `true` when the loop should
    /// abort.
    #[inline]
    pub(crate) fn tick(&mut self) -> bool {
        let Some(g) = self.governor else {
            return false;
        };
        self.pending += 1;
        if self.pending >= self.interval {
            return self.flush();
        }
        g.stopped()
    }

    /// [`Pacer::tick`] with the observability sampling hook attached:
    /// tracing reuses the budget check-in cadence, so a traced loop pays
    /// exactly one amortized check site. Under a disabled tracer this
    /// compiles to `tick()` verbatim. With an enabled tracer the pacer
    /// counts work even when ungoverned, so [`Tracer::sample`] fires every
    /// [`CHECK_INTERVAL`] work units regardless of a budget being
    /// installed; each flush is reported as a governor check, and a flush
    /// that discovers a trip as a governor abort, attributed to `phase`.
    #[inline]
    pub(crate) fn tick_traced<T: Tracer>(&mut self, tracer: &T, phase: Phase) -> bool {
        if !T::ENABLED {
            return self.tick();
        }
        self.pending += 1;
        if self.pending >= self.interval {
            tracer.sample(phase, self.pending);
            if self.governor.is_some() {
                tracer.governor_check(phase, 1);
                let stop = self.flush();
                if stop {
                    tracer.governor_abort(phase);
                }
                return stop;
            }
            self.pending = 0;
            return false;
        }
        self.stopped()
    }

    /// Batched [`Pacer::tick_traced`]: counts `n` work units at once. The
    /// bit-parallel BFS retires configurations a word at a time, so its
    /// natural check-in granularity is the popcount of a processed word
    /// batch rather than a single configuration; charging the whole batch
    /// keeps the governor's work ledger exact while paying one check site
    /// per batch. Returns `true` when the loop should abort.
    #[inline]
    pub(crate) fn tick_batch_traced<T: Tracer>(
        &mut self,
        n: u64,
        tracer: &T,
        phase: Phase,
    ) -> bool {
        if self.governor.is_none() && !T::ENABLED {
            return false;
        }
        self.pending += n;
        if self.pending >= self.interval {
            if T::ENABLED {
                tracer.sample(phase, self.pending);
            }
            if self.governor.is_some() {
                if T::ENABLED {
                    tracer.governor_check(phase, 1);
                }
                let stop = self.flush();
                if T::ENABLED && stop {
                    tracer.governor_abort(phase);
                }
                return stop;
            }
            self.pending = 0;
            return false;
        }
        self.stopped()
    }

    /// Flushes the locally counted work to the governor and returns
    /// whether the run should stop. Call once more when a loop finishes so
    /// the shared work counter stays accurate.
    pub(crate) fn flush(&mut self) -> bool {
        let work = std::mem::take(&mut self.pending);
        match self.governor {
            Some(g) => g.checkpoint(work),
            None => false,
        }
    }

    /// Whether the shared stop flag is up (relaxed load; `false` when
    /// ungoverned).
    #[inline]
    pub(crate) fn stopped(&self) -> bool {
        self.governor.is_some_and(Governor::stopped)
    }
}

/// What [`AnswerClaim::offer`] did with one odometer tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Claim {
    /// A new answer: claimed, charged and inserted.
    New,
    /// Already in the answer set.
    Seen,
    /// The run is over: the governor has stopped or refused the claim.
    Stop,
}

/// The per-tuple answer claim every enumerator runs on the tuples its
/// free-tuple odometer produces — the product [`crate::enumerate::AnswerIter`]
/// and the CQ backtracking join alike. Per tuple: count one
/// [`Phase::Odometer`] item, pace the odometer's own work units (a query
/// with few constrained variables can emit `|V|^f` tuples per satisfying
/// assignment without a single product check), stop if the run has
/// tripped, skip a tuple the worker already holds, claim the answer from
/// the governor, charge its retained bytes, and insert it.
pub(crate) struct AnswerClaim<'a> {
    governor: Option<&'a Governor>,
    /// Odometer work units not yet checked in.
    pending: u64,
}

impl<'a> AnswerClaim<'a> {
    pub(crate) fn new(governor: Option<&'a Governor>) -> Self {
        AnswerClaim {
            governor,
            pending: 0,
        }
    }

    /// Runs the claim sequence on `tuple` against the worker's `answers`.
    pub(crate) fn offer<T: Tracer>(
        &mut self,
        tracer: &T,
        answers: &mut BTreeSet<Vec<u32>>,
        tuple: &[u32],
    ) -> Claim {
        tracer.count(Phase::Odometer, 1);
        if let Some(g) = self.governor {
            self.pending += 1;
            if self.pending >= g.check_interval() {
                tracer.governor_check(Phase::Odometer, 1);
                let _ = g.checkpoint(std::mem::take(&mut self.pending));
            }
            if g.stopped() {
                tracer.governor_check(Phase::Odometer, 1);
                tracer.governor_abort(Phase::Odometer);
                return Claim::Stop;
            }
        }
        if answers.contains(tuple) {
            return Claim::Seen;
        }
        if let Some(g) = self.governor {
            if !g.try_claim_answer() {
                tracer.governor_check(Phase::Odometer, 1);
                tracer.governor_abort(Phase::Odometer);
                return Claim::Stop;
            }
            // the answer set retains every tuple: charge it
            g.charge_memory(24 + 4 * tuple.len() as u64);
        }
        answers.insert(tuple.to_vec());
        Claim::New
    }

    /// Checks in the outstanding odometer work; call when a run (or a
    /// chunk of one) ends.
    pub(crate) fn flush(&mut self) {
        if let (Some(g), true) = (self.governor, self.pending > 0) {
            g.checkpoint(std::mem::take(&mut self.pending));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let g = Governor::new(&ResourceBudget::unlimited());
        assert!(!g.checkpoint(u64::MAX / 2));
        assert!(g.try_claim_answer());
        assert!(!g.charge_memory(1 << 40));
        assert_eq!(g.termination(), Termination::Complete);
    }

    #[test]
    fn configuration_cap_trips_and_reports() {
        let g = Governor::new(&ResourceBudget::unlimited().with_max_configurations(100));
        assert!(!g.checkpoint(100)); // exactly at the cap: not tripped
        assert!(g.checkpoint(1));
        assert!(g.stopped());
        assert_eq!(
            g.termination(),
            Termination::BudgetExhausted {
                resource: ExhaustedResource::Configurations
            }
        );
    }

    #[test]
    fn answer_cap_allows_exactly_max() {
        let g = Governor::new(&ResourceBudget::unlimited().with_max_answers(2));
        assert!(g.try_claim_answer());
        assert!(g.try_claim_answer());
        assert_eq!(g.termination(), Termination::Complete);
        assert!(!g.try_claim_answer());
        assert_eq!(
            g.termination(),
            Termination::BudgetExhausted {
                resource: ExhaustedResource::Answers
            }
        );
    }

    #[test]
    fn expired_deadline_trips_at_checkpoint() {
        let g = Governor::new(&ResourceBudget::unlimited().with_deadline(Duration::ZERO));
        assert!(g.checkpoint(1));
        assert_eq!(g.termination(), Termination::DeadlineExceeded);
    }

    #[test]
    fn memory_cap_trips() {
        let g = Governor::new(&ResourceBudget::unlimited().with_max_memory_bytes(1024));
        assert!(!g.charge_memory(1024));
        assert!(g.charge_memory(1));
        assert_eq!(
            g.termination(),
            Termination::BudgetExhausted {
                resource: ExhaustedResource::Memory
            }
        );
    }

    #[test]
    fn first_cause_wins() {
        let g = Governor::new(&ResourceBudget {
            max_configurations: Some(1),
            max_answers: Some(0),
            ..ResourceBudget::default()
        });
        assert!(!g.try_claim_answer());
        g.checkpoint(100);
        assert_eq!(
            g.termination(),
            Termination::BudgetExhausted {
                resource: ExhaustedResource::Answers
            }
        );
    }

    #[test]
    fn pacer_flushes_at_interval() {
        let g = Governor::new(&ResourceBudget::unlimited().with_max_configurations(CHECK_INTERVAL));
        let mut p = Pacer::new(Some(&g));
        let mut aborted = false;
        for _ in 0..2 * CHECK_INTERVAL {
            if p.tick() {
                aborted = true;
                break;
            }
        }
        assert!(aborted);
        assert!(g.work_charged() >= CHECK_INTERVAL);
        assert!(g.checkpoints_run() >= 1);
    }

    #[test]
    fn budget_display_formats() {
        assert_eq!(ResourceBudget::unlimited().to_string(), "unlimited");
        let b = ResourceBudget {
            deadline: Some(Duration::from_millis(50)),
            max_configurations: Some(1_000_000),
            ..ResourceBudget::default()
        };
        let s = b.to_string();
        assert!(s.contains("deadline=50ms"), "{s}");
        assert!(s.contains("max_configurations=1.0e6"), "{s}");
    }
}
