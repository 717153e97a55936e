//! The job-oriented service API: typed requests, one validator, deadlines
//! & cancellation, priorities, and typed outcomes.
//!
//! Every way of asking the service for work — a single-width
//! `Cost_Optimizer` run, a cross-width table sweep, a best-width query —
//! is one [`Job`]: a [`JobSpec`] plus the SOC (owned or a registered
//! [`SocHandle`](super::SocHandle)), cost weights, planner options, and
//! optional [`Deadline`], [`CancelToken`] and [`Priority`]. Jobs are built
//! by [`JobBuilder`], which owns **all** request validation, and run by
//! [`PlanService::submit`], which returns one typed [`JobOutcome`] per job
//! in input order.
//!
//! **Determinism under interruption.** Deadlines and cancellation are
//! checked only at deterministic progress boundaries — between candidate
//! batches in `Planner::schedule_batch` and at wave boundaries in
//! `Planner::plan_table` — never inside a pack. An interrupted job
//! abandons whole units of work: everything it cached is a complete,
//! bit-identical pack, so interruption can never corrupt the service's
//! caches, and any job that *completes* is bit-identical to an unlimited
//! run (property-tested in `tests/properties.rs`).
//!
//! [`PlanService::submit`]: super::PlanService::submit

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cost::CostWeights;
use crate::partition::SharingConfig;
use crate::planner::table::TableReport;
use crate::planner::{
    Interrupted, PlanError, PlanInputs, PlanReport, PlanStats, Planner, PlannerOptions,
};
use crate::soc::MixedSignalSoc;

use super::{PlanService, SocHandle};

/// What one [`Job`] computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// One `Cost_Optimizer` run at a single TAM width.
    Single {
        /// SOC-level TAM width.
        width: u32,
    },
    /// A full config × width table through the shared-incumbent engine.
    Table {
        /// The table's TAM-width columns.
        widths: Vec<u32>,
    },
    /// The makespan-minimizing width for one sharing configuration
    /// (wraps `Planner::best_width_for`, with its exact width-bound
    /// pruning).
    BestWidth {
        /// The candidate widths to sweep (wide-to-narrow maximizes
        /// pruning).
        widths: Vec<u32>,
    },
}

/// When a job must give up: a wall-clock instant or a deterministic
/// check budget.
///
/// Both kinds fire at the same deterministic progress boundaries (see the
/// module docs); the difference is reproducibility. A wall-clock
/// deadline depends on host speed; a *check budget* expires after a fixed
/// number of progress checks, so the exact interruption point — and with
/// it every cached artifact — is identical on every host and every run,
/// which is what the cache-integrity property tests exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    kind: DeadlineKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeadlineKind {
    At(Instant),
    Checks(u64),
}

impl Deadline {
    /// Expires at the wall-clock instant `at`.
    pub fn at(at: Instant) -> Self {
        Deadline { kind: DeadlineKind::At(at) }
    }

    /// Expires `after` from now.
    pub fn after(after: Duration) -> Self {
        Deadline::at(Instant::now() + after)
    }

    /// Expires after `checks` progress checks — a deterministic compute
    /// budget (`checks = 0` expires at the first boundary, before any
    /// packing).
    pub fn checks(checks: u64) -> Self {
        Deadline { kind: DeadlineKind::Checks(checks) }
    }
}

/// A shareable cancellation flag: hand it to a job via
/// [`JobBuilder::cancel_token`], keep a clone, and [`cancel`] from any
/// thread. The job observes it at its next progress boundary.
///
/// [`cancel`]: CancelToken::cancel
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-triggered token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation (idempotent, thread-safe).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Dispatch priority of a job within a [`submit`] batch: higher-priority
/// jobs start first (outcomes still come back in input order).
///
/// [`submit`]: super::PlanService::submit
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Start after everything else.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Start first.
    High,
}

/// The SOC a job plans: owned by the job, or a registered handle whose
/// cached fingerprints, plan inputs and revision lineage the service can
/// exploit.
#[derive(Debug, Clone)]
pub(crate) enum SocSource {
    Owned(Arc<MixedSignalSoc>),
    Handle(SocHandle),
}

impl SocSource {
    pub(crate) fn soc(&self) -> &MixedSignalSoc {
        match self {
            SocSource::Owned(soc) => soc,
            SocSource::Handle(handle) => handle.soc(),
        }
    }

    /// The plan-inputs memo one run of the job reads: the handle's, or a
    /// fresh one for an owned SOC, freed with the run so that a job kept
    /// for later keeps no derived inputs alive.
    fn inputs(&self) -> Arc<PlanInputs> {
        match self {
            SocSource::Owned(_) => Arc::default(),
            SocSource::Handle(handle) => Arc::clone(handle.inputs()),
        }
    }

    /// Whether this SOC is a *revision* of a registered SOC — cache hits
    /// for such jobs are the incremental-revision reuse and are counted
    /// in [`ServiceStats::revision_cache_hits`](super::ServiceStats).
    fn is_revised(&self) -> bool {
        matches!(self, SocSource::Handle(h) if h.revision() > 0)
    }
}

/// One validated unit of service work (build with [`JobBuilder`], run
/// with [`PlanService::submit`](super::PlanService::submit)).
#[derive(Debug, Clone)]
pub struct Job {
    pub(crate) soc: SocSource,
    pub(crate) spec: JobSpec,
    pub(crate) configs: Option<Vec<SharingConfig>>,
    pub(crate) weights: CostWeights,
    pub(crate) delta: f64,
    pub(crate) opts: PlannerOptions,
    pub(crate) deadline: Option<Deadline>,
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) priority: Priority,
    pub(crate) inject_panic: Option<String>,
}

impl Job {
    /// The job's spec.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The SOC the job plans.
    pub fn soc(&self) -> &MixedSignalSoc {
        self.soc.soc()
    }

    /// The job's dispatch priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }
}

/// Builds and validates a [`Job`].
///
/// This is the *single* owner of request validation: width positivity,
/// width-set non-emptiness and distinctness, and candidate-set
/// non-emptiness are all checked here, so every job [`PlanService::submit`]
/// runs has passed one validator, and malformed input is rejected as
/// [`PlanError::InvalidRequest`] instead of panicking.
#[derive(Debug, Clone)]
pub struct JobBuilder {
    soc: SocSource,
    spec: Option<JobSpec>,
    configs: Option<Vec<SharingConfig>>,
    weights: CostWeights,
    delta: f64,
    opts: PlannerOptions,
    deadline: Option<Deadline>,
    cancel: Option<CancelToken>,
    priority: Priority,
    inject_panic: Option<String>,
}

impl JobBuilder {
    /// A builder planning an owned SOC.
    pub fn new(soc: MixedSignalSoc) -> Self {
        JobBuilder::with_source(SocSource::Owned(Arc::new(soc)))
    }

    /// A builder planning a registered (possibly revised) SOC — the
    /// handle is cheap to clone and carries the cached core fingerprints.
    pub fn for_handle(handle: &SocHandle) -> Self {
        JobBuilder::with_source(SocSource::Handle(handle.clone()))
    }

    fn with_source(soc: SocSource) -> Self {
        JobBuilder {
            soc,
            spec: None,
            configs: None,
            weights: CostWeights::balanced(),
            delta: 0.0,
            opts: PlannerOptions::default(),
            deadline: None,
            cancel: None,
            priority: Priority::Normal,
            inject_panic: None,
        }
    }

    /// What the job computes.
    pub fn spec(mut self, spec: JobSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// One `Cost_Optimizer` run at `width`.
    pub fn single(self, width: u32) -> Self {
        self.spec(JobSpec::Single { width })
    }

    /// A cross-width table over `widths`.
    pub fn table(self, widths: Vec<u32>) -> Self {
        self.spec(JobSpec::Table { widths })
    }

    /// A best-width query over `widths` (see [`JobBuilder::config`] for
    /// the target configuration; defaults to the all-share baseline).
    pub fn best_width(self, widths: Vec<u32>) -> Self {
        self.spec(JobSpec::BestWidth { widths })
    }

    /// The cost blend weights (default balanced).
    pub fn weights(mut self, weights: CostWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Restricts the candidate set: for [`JobSpec::Table`] jobs the
    /// table's rows, for [`JobSpec::BestWidth`] jobs the first entry is
    /// the target configuration. [`JobSpec::Single`] jobs always use the
    /// planner's own enumeration.
    pub fn configs(mut self, configs: Vec<SharingConfig>) -> Self {
        self.configs = Some(configs);
        self
    }

    /// Shorthand for [`Self::configs`] with one configuration.
    pub fn config(self, config: SharingConfig) -> Self {
        self.configs(vec![config])
    }

    /// The `Cost_Optimizer` pruning slack for [`JobSpec::Single`] jobs
    /// (0 reproduces the paper).
    pub fn cost_optimizer_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Planner options (effort, area model, enumeration, …).
    pub fn opts(mut self, opts: PlannerOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Attaches a deadline (wall-clock or check budget).
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation token (keep a clone to trigger it).
    pub fn cancel_token(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Sets the dispatch priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Makes the job panic with `message` the moment it is dispatched —
    /// a deterministic fault injector for exercising the service's
    /// per-job panic isolation (the job comes back as
    /// [`JobOutcome::Failed`], sibling jobs are unaffected). Used by the
    /// resilience tests and the bench harness; never by production
    /// callers.
    pub fn inject_panic(mut self, message: &str) -> Self {
        self.inject_panic = Some(message.to_string());
        self
    }

    /// Validates and builds the job.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::InvalidRequest`] for a missing spec,
    /// non-positive widths, an empty or duplicate-bearing width set, or
    /// an explicitly empty candidate set.
    pub fn build(self) -> Result<Job, PlanError> {
        let invalid = |what: &str| Err(PlanError::InvalidRequest(what.into()));
        let Some(spec) = self.spec else {
            return invalid("job needs a spec (single, table or best_width)");
        };
        match &spec {
            JobSpec::Single { width } => {
                if *width == 0 {
                    return invalid("plan needs a positive TAM width");
                }
            }
            JobSpec::Table { widths } => {
                if widths.is_empty() {
                    return invalid("table needs at least one width");
                }
                if widths.contains(&0) {
                    return invalid("table widths must be positive");
                }
                if has_duplicates(widths) {
                    return invalid("table widths must be distinct");
                }
            }
            JobSpec::BestWidth { widths } => {
                if widths.is_empty() {
                    return invalid("best-width needs at least one width");
                }
                if widths.contains(&0) {
                    return invalid("best-width widths must be positive");
                }
                if has_duplicates(widths) {
                    return invalid("best-width widths must be distinct");
                }
            }
        }
        if matches!(&self.configs, Some(configs) if configs.is_empty()) {
            return invalid("table needs at least one candidate configuration");
        }
        if let Some(configs) = &self.configs {
            let n = self.soc.soc().analog.len();
            if let Some(bad) = configs.iter().find(|c| c.n_cores() != n) {
                return Err(PlanError::InvalidRequest(format!(
                    "configuration {bad} covers {} cores but the SOC has {n} analog cores",
                    bad.n_cores()
                )));
            }
        }
        Ok(Job {
            soc: self.soc,
            spec,
            configs: self.configs,
            weights: self.weights,
            delta: self.delta,
            opts: self.opts,
            deadline: self.deadline,
            cancel: self.cancel,
            priority: self.priority,
            inject_panic: self.inject_panic,
        })
    }
}

fn has_duplicates(widths: &[u32]) -> bool {
    let mut sorted = widths.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).any(|p| p[0] == p[1])
}

/// The typed result payload of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobResult {
    /// A [`JobSpec::Single`] job's plan.
    Plan(PlanReport),
    /// A [`JobSpec::Table`] job's table.
    Table(TableReport),
    /// A [`JobSpec::BestWidth`] job's winner.
    BestWidth {
        /// The configuration that was swept.
        config: SharingConfig,
        /// The makespan-minimizing width (ties to the earliest width in
        /// the job's width list).
        width: u32,
        /// The winning scheduled makespan.
        makespan: u64,
    },
}

impl JobResult {
    /// The plan report, for [`JobResult::Plan`] results.
    pub fn plan(&self) -> Option<&PlanReport> {
        match self {
            JobResult::Plan(report) => Some(report),
            _ => None,
        }
    }

    /// The table report, for [`JobResult::Table`] results.
    pub fn table(&self) -> Option<&TableReport> {
        match self {
            JobResult::Table(report) => Some(report),
            _ => None,
        }
    }
}

/// A completed job: the typed result plus per-job accounting.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The typed result ([`TableStats`](crate::TableStats) ride inside
    /// table reports).
    pub result: JobResult,
    /// Wall time the job spent planning, measured from the moment the
    /// job was dispatched to a worker (time spent queued behind other
    /// jobs in the `submit` batch is *not* included).
    pub wall: Duration,
    /// The planner's reuse/prune counters for this job.
    pub stats: PlanStats,
}

/// What happened to one submitted job.
// One outcome exists per submitted job; the size skew between a full
// report and the marker variants is irrelevant next to planning cost,
// and an unboxed report keeps match ergonomics clean.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The job ran to completion.
    Completed(JobReport),
    /// The deadline fired at a progress boundary before the job finished.
    /// Everything the job cached up to that point is complete and
    /// bit-identical; `partial` is the planner's accounting at
    /// interruption.
    DeadlineExceeded {
        /// Reuse/prune counters accumulated before the deadline fired.
        partial: PlanStats,
    },
    /// The job's [`CancelToken`] fired at a progress boundary.
    Cancelled,
    /// The job never ran: invalid request, planning error, or shed at
    /// admission ([`PlanError::Overloaded`]) by a service built with
    /// [`with_admission_cap`](super::PlanService::with_admission_cap).
    Rejected(PlanError),
    /// The job panicked (or its outcome was lost by the dispatch layer);
    /// `message` carries the panic payload's text. Failures are isolated
    /// per job: every sibling in the batch completes exactly as it would
    /// have without the failing job, and the shared caches only ever
    /// contain complete, verified entries.
    Failed {
        /// The panic payload's message (or a description of the lost
        /// outcome).
        message: String,
    },
}

impl JobOutcome {
    /// The completed report, if any.
    pub fn report(&self) -> Option<&JobReport> {
        match self {
            JobOutcome::Completed(report) => Some(report),
            _ => None,
        }
    }

    /// Collapses the outcome into a `Result`, mapping interruption onto
    /// [`PlanError::Interrupted`].
    ///
    /// # Errors
    ///
    /// The rejection or interruption, for non-completed outcomes.
    pub fn into_result(self) -> Result<JobReport, PlanError> {
        match self {
            JobOutcome::Completed(report) => Ok(report),
            JobOutcome::DeadlineExceeded { .. } => {
                Err(PlanError::Interrupted(Interrupted::DeadlineExceeded))
            }
            JobOutcome::Cancelled => Err(PlanError::Interrupted(Interrupted::Cancelled)),
            JobOutcome::Rejected(e) => Err(e),
            JobOutcome::Failed { message } => Err(PlanError::Panicked(message)),
        }
    }
}

/// The per-job interruption state a planner checks at its progress
/// boundaries (crate-internal; built by `submit` from the job's deadline
/// and cancel token).
#[derive(Debug)]
pub(crate) struct JobControl {
    deadline: Option<Instant>,
    check_budget: Option<u64>,
    checks: AtomicU64,
    cancel: Option<CancelToken>,
}

impl JobControl {
    fn new(job: &Job) -> Self {
        let (deadline, check_budget) = match job.deadline {
            Some(Deadline { kind: DeadlineKind::At(at) }) => (Some(at), None),
            Some(Deadline { kind: DeadlineKind::Checks(n) }) => (None, Some(n)),
            None => (None, None),
        };
        JobControl { deadline, check_budget, checks: AtomicU64::new(0), cancel: job.cancel.clone() }
    }

    /// One progress check: cancellation first, then the check budget,
    /// then the wall clock.
    pub(crate) fn check(&self) -> Result<(), Interrupted> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Err(Interrupted::Cancelled);
            }
        }
        let seen = self.checks.fetch_add(1, Ordering::Relaxed);
        if let Some(budget) = self.check_budget {
            if seen >= budget {
                return Err(Interrupted::DeadlineExceeded);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Interrupted::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

impl PlanService {
    /// Runs a batch of jobs over this service's shared caches, fanning
    /// them out across the available cores. Outcomes come back in input
    /// order; dispatch order follows [`Priority`] (ties to input order).
    ///
    /// Every job runs independently: a rejected, interrupted or failed
    /// job never poisons the batch, and everything an interrupted job
    /// already cached is complete and bit-identical (see the
    /// module docs). A panicking job is caught at the dispatch
    /// boundary and comes back as [`JobOutcome::Failed`] — the unwind
    /// never reaches the worker pool, so sibling jobs complete
    /// bit-identically to a batch without the panicking job. On a
    /// service built with
    /// [`with_admission_cap`](super::PlanService::with_admission_cap),
    /// jobs ranked below the cap in dispatch order are shed as
    /// [`JobOutcome::Rejected`]\([`PlanError::Overloaded`]) without
    /// running; a service built with
    /// [`with_queue_depth_cap`](super::PlanService::with_queue_depth_cap)
    /// additionally sheds whatever does not fit into the service-wide
    /// in-flight budget shared with concurrent batches.
    pub fn submit(&self, jobs: &[Job]) -> Vec<JobOutcome> {
        self.jobs_submitted.fetch_add(jobs.len() as u64, std::sync::atomic::Ordering::Relaxed);
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(jobs[i].priority), i));
        let mut outcomes: Vec<Option<JobOutcome>> = (0..jobs.len()).map(|_| None).collect();
        // Admission control: dispatch at most `admission_cap` jobs (the
        // highest-priority ones, ties to input order) and shed the rest
        // as structured rejections instead of queueing unboundedly.
        let cap = self.admission_cap.unwrap_or(usize::MAX);
        if order.len() > cap {
            self.jobs_shed
                .fetch_add((order.len() - cap) as u64, std::sync::atomic::Ordering::Relaxed);
            for &i in &order[cap..] {
                outcomes[i] =
                    Some(JobOutcome::Rejected(PlanError::Overloaded { cap, batch: jobs.len() }));
            }
            order.truncate(cap);
        }
        // Queue-depth backpressure: reserve in-flight slots from the
        // service-wide budget in one lock-free `fetch_update` (so
        // concurrent batches never over-commit), dispatch the
        // highest-priority jobs that fit, and shed the tail exactly like
        // the admission cap does. Slots are released after the dispatch
        // returns — the per-job catch_unwind below guarantees the map
        // itself cannot unwind past the release.
        let mut reserved = 0u64;
        if let Some(depth) = self.queue_depth_cap {
            let want = order.len() as u64;
            let prev = self
                .inflight
                .fetch_update(
                    std::sync::atomic::Ordering::Relaxed,
                    std::sync::atomic::Ordering::Relaxed,
                    |cur| {
                        let free = (depth as u64).saturating_sub(cur);
                        Some(cur + want.min(free))
                    },
                )
                .expect("queue-depth reservation closure never declines");
            reserved = want.min((depth as u64).saturating_sub(prev));
            let granted = reserved as usize;
            if order.len() > granted {
                self.jobs_shed.fetch_add(
                    (order.len() - granted) as u64,
                    std::sync::atomic::Ordering::Relaxed,
                );
                for &i in &order[granted..] {
                    outcomes[i] = Some(JobOutcome::Rejected(PlanError::Overloaded {
                        cap: depth,
                        batch: jobs.len(),
                    }));
                }
                order.truncate(granted);
            }
        }
        // Each job is isolated behind its own catch_unwind *inside* the
        // mapped closure: a panic becomes this job's `Failed` outcome
        // before the pool can see it, so the region is never poisoned
        // and sibling jobs keep running.
        let ran: Vec<(usize, JobOutcome)> = msoc_par::map(&order, |_, &i| {
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_job(&jobs[i])))
                    .unwrap_or_else(|payload| {
                        self.jobs_failed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        JobOutcome::Failed { message: msoc_par::panic_message(payload.as_ref()) }
                    });
            (i, outcome)
        });
        if reserved > 0 {
            self.inflight.fetch_sub(reserved, std::sync::atomic::Ordering::Relaxed);
        }
        for (i, outcome) in ran {
            outcomes[i] = Some(outcome);
        }
        outcomes
            .into_iter()
            .map(|o| {
                // A lost outcome (a dispatch-layer bug, not a job error)
                // degrades to a structured failure instead of taking the
                // whole batch down.
                o.unwrap_or_else(|| {
                    self.jobs_failed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    JobOutcome::Failed {
                        message: "job outcome lost by the dispatch layer".to_string(),
                    }
                })
            })
            .collect()
    }

    /// Runs one job to a typed outcome.
    fn run_job(&self, job: &Job) -> JobOutcome {
        let t0 = Instant::now();
        if let Some(message) = &job.inject_panic {
            panic!("{message}");
        }
        let soc = job.soc.soc();
        let inputs = job.soc.inputs();
        let mut planner = Planner::with_inputs(soc, Arc::clone(&inputs), job.opts.clone(), self);
        planner.set_control(Some(JobControl::new(job)));
        planner.set_revision_tracking(job.soc.is_revised());
        let result = match &job.spec {
            JobSpec::Single { width } => {
                planner.cost_optimizer(*width, job.weights, job.delta).map(JobResult::Plan)
            }
            JobSpec::Table { widths } => {
                let configs = match &job.configs {
                    Some(configs) => configs,
                    None => &inputs.candidates(soc, job.opts.enumeration).configs,
                };
                planner.plan_table(configs, widths, job.weights).map(JobResult::Table)
            }
            JobSpec::BestWidth { widths } => {
                let config = match &job.configs {
                    Some(configs) => {
                        configs.first().expect("validated non-empty candidate set").clone()
                    }
                    None => SharingConfig::all_shared(soc.analog.len()),
                };
                planner
                    .best_width_for(&config, widths)
                    .map(|(width, makespan)| JobResult::BestWidth { config, width, makespan })
            }
        };
        let stats = planner.stats();
        match result {
            Ok(result) => JobOutcome::Completed(JobReport { result, wall: t0.elapsed(), stats }),
            Err(PlanError::Interrupted(why)) => {
                self.jobs_interrupted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                match why {
                    Interrupted::DeadlineExceeded => {
                        JobOutcome::DeadlineExceeded { partial: stats }
                    }
                    Interrupted::Cancelled => JobOutcome::Cancelled,
                }
            }
            Err(e) => JobOutcome::Rejected(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msoc_tam::Effort;

    fn quick_opts() -> PlannerOptions {
        PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() }
    }

    fn quick_single(width: u32) -> Job {
        JobBuilder::new(MixedSignalSoc::d695m()).single(width).opts(quick_opts()).build().unwrap()
    }

    #[test]
    fn builder_validation_rejects_malformed_specs_with_stable_payloads() {
        let soc = MixedSignalSoc::d695m;
        let msg = |job: Result<Job, PlanError>| match job {
            Err(PlanError::InvalidRequest(m)) => m,
            other => panic!("expected InvalidRequest, got {other:?}"),
        };
        assert_eq!(
            msg(JobBuilder::new(soc()).build()),
            "job needs a spec (single, table or best_width)"
        );
        assert_eq!(
            msg(JobBuilder::new(soc()).single(0).build()),
            "plan needs a positive TAM width"
        );
        assert_eq!(
            msg(JobBuilder::new(soc()).table(vec![]).build()),
            "table needs at least one width"
        );
        assert_eq!(
            msg(JobBuilder::new(soc()).table(vec![16, 16]).build()),
            "table widths must be distinct"
        );
        assert_eq!(
            msg(JobBuilder::new(soc()).table(vec![16, 0]).build()),
            "table widths must be positive"
        );
        assert_eq!(
            msg(JobBuilder::new(soc()).table(vec![16]).configs(vec![]).build()),
            "table needs at least one candidate configuration"
        );
        assert_eq!(
            msg(JobBuilder::new(soc()).best_width(vec![]).build()),
            "best-width needs at least one width"
        );
        assert_eq!(
            msg(JobBuilder::new(soc()).best_width(vec![24, 24]).build()),
            "best-width widths must be distinct"
        );
        let wrong_cores = SharingConfig::all_shared(3);
        assert!(msg(JobBuilder::new(soc()).table(vec![16]).config(wrong_cores).build())
            .contains("3 cores"));
    }

    #[test]
    fn submit_returns_outcomes_in_input_order_regardless_of_priority() {
        let service = PlanService::new();
        let lo = JobBuilder::new(MixedSignalSoc::d695m())
            .single(16)
            .opts(quick_opts())
            .priority(Priority::Low)
            .build()
            .unwrap();
        let hi = JobBuilder::new(MixedSignalSoc::d695m())
            .single(24)
            .opts(quick_opts())
            .priority(Priority::High)
            .build()
            .unwrap();
        let outcomes = service.submit(&[lo, hi]);
        let w = |o: &JobOutcome| match o {
            JobOutcome::Completed(r) => r.result.plan().expect("single job").tam_width,
            other => panic!("expected completion, got {other:?}"),
        };
        assert_eq!(w(&outcomes[0]), 16, "input order is preserved");
        assert_eq!(w(&outcomes[1]), 24);
        assert_eq!(service.stats().jobs_submitted, 2);
    }

    #[test]
    fn single_jobs_match_a_direct_cost_optimizer() {
        let service = PlanService::new();
        let job = quick_single(16);
        let via_submit = match service.submit(std::slice::from_ref(&job)).pop().unwrap() {
            JobOutcome::Completed(r) => r,
            other => panic!("expected completion, got {other:?}"),
        };
        let soc = MixedSignalSoc::d695m();
        let direct = Planner::with_options(&soc, quick_opts())
            .cost_optimizer(16, CostWeights::balanced(), 0.0)
            .unwrap();
        assert_eq!(via_submit.result.plan().unwrap(), &direct);
        assert!(via_submit.wall > Duration::ZERO);
    }

    #[test]
    fn best_width_jobs_match_the_planner_query() {
        let service = PlanService::new();
        let config = SharingConfig::new(5, vec![vec![0, 1, 4], vec![2, 3]]);
        let job = JobBuilder::new(MixedSignalSoc::d695m())
            .best_width(vec![32, 16, 24])
            .config(config.clone())
            .opts(quick_opts())
            .build()
            .unwrap();
        let outcome = service.submit(std::slice::from_ref(&job)).pop().unwrap();
        let (w, m) = match outcome {
            JobOutcome::Completed(JobReport {
                result: JobResult::BestWidth { width, makespan, config: c },
                ..
            }) => {
                assert_eq!(c, config);
                (width, makespan)
            }
            other => panic!("expected a best-width result, got {other:?}"),
        };
        let soc = MixedSignalSoc::d695m();
        let mut reference = Planner::with_options(&soc, quick_opts());
        assert_eq!((w, m), reference.best_width_for(&config, &[32, 16, 24]).unwrap());
    }

    #[test]
    fn pre_cancelled_jobs_come_back_cancelled_without_touching_the_caches() {
        let service = PlanService::new();
        let token = CancelToken::new();
        token.cancel();
        let job = JobBuilder::new(MixedSignalSoc::d695m())
            .single(16)
            .opts(quick_opts())
            .cancel_token(&token)
            .build()
            .unwrap();
        match service.submit(std::slice::from_ref(&job)).pop().unwrap() {
            JobOutcome::Cancelled => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
        let stats = service.stats();
        assert_eq!(stats.schedule_misses, 0, "nothing may be packed: {stats:?}");
        assert_eq!(stats.jobs_interrupted, 1, "{stats:?}");
    }

    #[test]
    fn zero_check_budget_expires_before_any_packing() {
        let service = PlanService::new();
        let job = JobBuilder::new(MixedSignalSoc::d695m())
            .single(16)
            .opts(quick_opts())
            .deadline(Deadline::checks(0))
            .build()
            .unwrap();
        match service.submit(std::slice::from_ref(&job)).pop().unwrap() {
            JobOutcome::DeadlineExceeded { partial } => {
                assert_eq!(partial.delta_packs, 0, "{partial:?}");
            }
            other => panic!("expected deadline, got {other:?}"),
        }
        assert_eq!(service.stats().schedule_misses, 0);
    }

    #[test]
    fn mid_run_check_budget_interrupts_between_waves_and_never_corrupts_caches() {
        // A table job with a tiny deterministic check budget dies between
        // waves; the same job re-submitted without a deadline must be
        // bit-identical to a cold service's run.
        let soc = MixedSignalSoc::d695m;
        let service = PlanService::new();
        let interrupted = JobBuilder::new(soc())
            .table(vec![16, 24])
            .opts(quick_opts())
            .deadline(Deadline::checks(2))
            .build()
            .unwrap();
        match service.submit(std::slice::from_ref(&interrupted)).pop().unwrap() {
            JobOutcome::DeadlineExceeded { .. } => {}
            other => panic!("expected deadline, got {other:?}"),
        }
        let full = JobBuilder::new(soc()).table(vec![16, 24]).opts(quick_opts()).build().unwrap();
        let warm = service.submit(std::slice::from_ref(&full)).pop().unwrap();
        let cold = PlanService::new().submit(std::slice::from_ref(&full)).pop().unwrap();
        let table = |o: JobOutcome| match o {
            JobOutcome::Completed(r) => match r.result {
                JobResult::Table(t) => t,
                other => panic!("expected a table, got {other:?}"),
            },
            other => panic!("expected completion, got {other:?}"),
        };
        assert_eq!(table(warm), table(cold), "interrupted partial state corrupted the caches");
        assert_eq!(service.stats().jobs_interrupted, 1);
    }

    #[test]
    fn hostile_widths_plan_like_a_saturating_width() {
        use std::sync::mpsc::RecvTimeoutError;

        // Every d695m staircase saturates below 256 wires, so a width of
        // 2^20 must plan exactly like 256, and quickly: before the
        // staircase floor exit one such job designed a wrapper per width.
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let submit = |spec: fn(u32) -> JobBuilder, width: u32| {
                let job = spec(width).opts(quick_opts()).build().unwrap();
                match PlanService::new().submit(std::slice::from_ref(&job)).pop().unwrap() {
                    JobOutcome::Completed(report) => report.result,
                    other => panic!("width {width}: expected completion, got {other:?}"),
                }
            };
            let specs: [fn(u32) -> JobBuilder; 3] = [
                |w| JobBuilder::new(MixedSignalSoc::d695m()).single(w),
                |w| JobBuilder::new(MixedSignalSoc::d695m()).best_width(vec![w]),
                |w| JobBuilder::new(MixedSignalSoc::d695m()).table(vec![w]),
            ];
            let pairs: Vec<_> =
                specs.into_iter().map(|spec| (submit(spec, 1 << 20), submit(spec, 256))).collect();
            tx.send(pairs).unwrap();
        });
        let pairs = match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(pairs) => pairs,
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("the worker sent nothing"))
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("jobs at width 2^20 must finish within the watchdog's 120 s")
            }
        };
        worker.join().expect("the worker finished after sending");
        for (hostile, saturating) in pairs {
            match (hostile, saturating) {
                (JobResult::Plan(a), JobResult::Plan(b)) => assert_eq!(a.best, b.best),
                (JobResult::Table(a), JobResult::Table(b)) => {
                    assert_eq!(a.best, b.best);
                    assert_eq!(a.winner_makespan, b.winner_makespan);
                }
                (
                    JobResult::BestWidth { config: a, makespan: ma, .. },
                    JobResult::BestWidth { config: b, makespan: mb, .. },
                ) => assert_eq!((a, ma), (b, mb)),
                other => panic!("mismatched result kinds: {other:?}"),
            }
        }
    }

    #[test]
    fn generous_deadlines_leave_results_bit_identical_to_unlimited_runs() {
        let service = PlanService::new();
        let unlimited = quick_single(16);
        let with_deadline = JobBuilder::new(MixedSignalSoc::d695m())
            .single(16)
            .opts(quick_opts())
            .deadline(Deadline::checks(u64::MAX))
            .build()
            .unwrap();
        let a = PlanService::new().submit(std::slice::from_ref(&unlimited)).pop().unwrap();
        let b = service.submit(std::slice::from_ref(&with_deadline)).pop().unwrap();
        match (a, b) {
            (JobOutcome::Completed(a), JobOutcome::Completed(b)) => {
                assert_eq!(a.result.plan().unwrap(), b.result.plan().unwrap());
            }
            other => panic!("both must complete: {other:?}"),
        }
    }
}
