//! The test planner: exhaustive evaluation, the paper's `Cost_Optimizer`
//! heuristic (Fig. 3), and the cross-width [`table`] sweep engine.

mod inputs;
pub mod table;

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use msoc_awrapper::{AreaModel, IncompatibleSharing, SharingPolicy};
use msoc_tam::{
    bounds, Effort, PackSession, Schedule, ScheduleError, ScheduleProblem, SessionStats, TestJob,
};

use crate::cost::{self, CostWeights};
use crate::partition::{self, SharingConfig};
use crate::service::PlanService;
use crate::soc::MixedSignalSoc;

pub(crate) use inputs::{DeltaJobs, PlanInputs};

/// Which sharing configurations the planner considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Enumeration {
    /// The paper's 26-configuration candidate set (shapes
    /// `{2}`, `{3}`, `{4}`, `{3,2}`, `{n}`).
    #[default]
    Paper,
    /// Every set partition of the analog cores, including no-sharing and
    /// the `{2,2,…}` shapes the paper omits.
    All,
}

/// Planner configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerOptions {
    /// Wrapper area model (default: the calibrated paper areas).
    pub area_model: AreaModel,
    /// Sharing policy: routing factor β and compatibility cap.
    pub sharing_policy: SharingPolicy,
    /// Scheduling effort per configuration.
    pub effort: Effort,
    /// Candidate enumeration mode.
    pub enumeration: Enumeration,
    /// When set, every wrapper additionally runs a converter BIST session
    /// of this many cycles in self-test mode, serialized with the
    /// wrapper's core tests on one TAM wire. The paper excludes self-test
    /// time from its tables (its Section 6) and lists converter BIST as
    /// future work; this option quantifies it: sharing then saves test
    /// time too, because fewer wrappers mean fewer BIST sessions.
    pub self_test_cycles: Option<u64>,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            area_model: AreaModel::paper_calibrated(),
            sharing_policy: SharingPolicy::default(),
            effort: Effort::Standard,
            enumeration: Enumeration::Paper,
            self_test_cycles: None,
        }
    }
}

/// A fully evaluated sharing configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedConfig {
    /// The configuration.
    pub config: SharingConfig,
    /// Scheduled SOC test time in cycles.
    pub makespan: u64,
    /// `C_T`: makespan normalized to the all-share configuration (× 100).
    pub time_cost: f64,
    /// `C_A`: area overhead cost (paper eq. 1).
    pub area_cost: f64,
    /// `C = W_T·C_T + W_A·C_A`.
    pub total_cost: f64,
}

/// The result of a planning run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// The minimum-cost configuration found.
    pub best: EvaluatedConfig,
    /// Number of TAM-optimizer evaluations spent on candidates (the
    /// all-share normalization baseline is not counted, matching the
    /// paper's Table 4 accounting).
    pub evaluations: usize,
    /// Number of candidate configurations considered.
    pub candidates: usize,
    /// The winning schedule.
    pub schedule: Schedule,
    /// TAM width the plan was made for.
    pub tam_width: u32,
    /// The cost weights used.
    pub weights: CostWeights,
}

/// Why a job was interrupted before completing (see
/// [`crate::service::Deadline`] and [`crate::service::CancelToken`]).
///
/// Interruption is checked only at deterministic progress boundaries —
/// between candidate batches in [`Planner::schedule_batch`] and at wave
/// boundaries in [`Planner::plan_table`] — so an interrupted run abandons
/// whole batches, never partial ones: everything it *did* compute (and
/// cache) is a complete, bit-identical unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupted {
    /// The job's deadline (wall-clock or check budget) expired.
    DeadlineExceeded,
    /// The job's cancellation token was triggered.
    Cancelled,
}

impl fmt::Display for Interrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupted::DeadlineExceeded => write!(f, "deadline exceeded"),
            Interrupted::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Errors from planning.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The SOC has no analog cores to plan for.
    NoAnalogCores,
    /// A test needs more TAM wires than the SOC-level TAM provides.
    Schedule(ScheduleError),
    /// A candidate wrapper group violates the sharing compatibility cap.
    Incompatible(IncompatibleSharing),
    /// A service request is malformed (empty candidate set, empty or
    /// duplicate widths). Raised by the [`crate::PlanService`] front-ends,
    /// which must not panic on untrusted request data.
    InvalidRequest(String),
    /// The run was interrupted by its job's deadline or cancellation
    /// token at a deterministic progress boundary. Surfaced to
    /// [`crate::PlanService::submit`] callers as
    /// [`crate::service::JobOutcome::DeadlineExceeded`] /
    /// [`crate::service::JobOutcome::Cancelled`].
    Interrupted(Interrupted),
    /// The service shed this job at admission: its `submit` batch was
    /// larger than the service's admission cap
    /// ([`crate::PlanService::with_admission_cap`]) and this job ranked
    /// below the cap in dispatch order. Shedding is load control, not a
    /// verdict on the request — the same job resubmitted in a batch
    /// within the cap runs normally.
    Overloaded {
        /// The admission cap in force.
        cap: usize,
        /// The size of the batch the job arrived in.
        batch: usize,
    },
    /// The job panicked while planning (message attached). Surfaced to
    /// [`crate::PlanService::submit`] callers as
    /// [`crate::service::JobOutcome::Failed`]; sibling jobs in the batch
    /// are isolated and complete normally.
    Panicked(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoAnalogCores => write!(f, "the SOC has no analog cores"),
            PlanError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            PlanError::Incompatible(e) => write!(f, "incompatible sharing: {e}"),
            PlanError::InvalidRequest(what) => write!(f, "invalid plan request: {what}"),
            PlanError::Interrupted(why) => write!(f, "planning interrupted: {why}"),
            PlanError::Overloaded { cap, batch } => {
                write!(f, "job shed at admission: batch of {batch} exceeds the cap of {cap}")
            }
            PlanError::Panicked(message) => write!(f, "job panicked: {message}"),
        }
    }
}

impl Error for PlanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlanError::NoAnalogCores
            | PlanError::InvalidRequest(_)
            | PlanError::Interrupted(_)
            | PlanError::Overloaded { .. }
            | PlanError::Panicked(_) => None,
            PlanError::Schedule(e) => Some(e),
            PlanError::Incompatible(e) => Some(e),
        }
    }
}

impl From<ScheduleError> for PlanError {
    fn from(e: ScheduleError) -> Self {
        PlanError::Schedule(e)
    }
}

impl From<IncompatibleSharing> for PlanError {
    fn from(e: IncompatibleSharing) -> Self {
        PlanError::Incompatible(e)
    }
}

/// Aggregate scheduling-reuse statistics of a planner (see
/// [`Planner::stats`]).
///
/// The session counters aggregate over the planner's per-width
/// [`PackSession`]s, relative to the state each session was in when this
/// planner first acquired it (so a planner on a warm shared service
/// reports *its own* activity; concurrent planners on the same sessions
/// can still bleed into each other's deltas). `width_bound_prunes` counts
/// widths a [`Planner::best_width_for`] sweep skipped entirely because
/// their area/width lower bound already exceeded the incumbent makespan;
/// `cost_bound_prunes` counts `(config, width)` pairs whose blended-cost
/// lower bound (exact area cost + schedule-independent time bound)
/// already exceeded the incumbent best cost, skipped before any packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Skeleton checkpoint lookups served from a session cache.
    pub skeleton_hits: u64,
    /// Skeleton orderings packed from scratch across all sessions.
    pub skeleton_misses: u64,
    /// Completed candidate delta packs across all sessions.
    pub delta_packs: u64,
    /// Delta passes abandoned by the in-pack lower-bound prune.
    pub pruned_passes: u64,
    /// Restores that went deeper than the skeleton (delta-prefix reuse).
    pub prefix_hits: u64,
    /// Total delta placements skipped by prefix restores.
    pub prefix_jobs_restored: u64,
    /// Deepest single prefix restore, in delta placements.
    pub max_prefix_depth: u64,
    /// Checkpoints evicted by the sessions' LRU caps.
    pub checkpoint_evictions: u64,
    /// Widths skipped before any packing by the width-sweep bound prune.
    pub width_bound_prunes: u64,
    /// `(config, width)` pairs skipped by the blended-cost bound prune.
    pub cost_bound_prunes: u64,
}

/// One `(config, session width)` schedule request of a batch: what it
/// packs, and the rank that orders its error among the batch's (lowest
/// first).
struct Pending {
    config: SharingConfig,
    rank: usize,
    session: Arc<PackSession>,
    delta: DeltaJobs,
}

/// The packing order that packs a batch's misses as they come.
fn in_batch_order(batch: &[Pending]) -> Vec<usize> {
    (0..batch.len()).collect()
}

/// A session the planner acquired from its service, with the counter
/// baseline at acquisition time (so [`Planner::stats`] reports the
/// planner's own activity even on a warm shared session).
#[derive(Debug)]
struct AcquiredSession {
    session: Arc<PackSession>,
    baseline: SessionStats,
}

/// The planner's binding to a [`PlanService`]: borrowed and shared across
/// planner instances, or owned and private (the transient fallback that
/// keeps the pre-service API working unchanged).
#[derive(Debug)]
enum ServiceBinding<'a> {
    Shared(&'a PlanService),
    Owned(Box<PlanService>),
}

impl std::ops::Deref for ServiceBinding<'_> {
    type Target = PlanService;

    fn deref(&self) -> &PlanService {
        match self {
            ServiceBinding::Shared(s) => s,
            ServiceBinding::Owned(s) => s,
        }
    }
}

/// The mixed-signal test planner.
///
/// Drives every candidate × width sweep through per-width
/// [`PackSession`]s borrowed from a [`PlanService`]: the digital skeleton
/// of a width is packed once per ordering, each of the ~26 sharing
/// candidates only delta-packs its analog wrapper jobs on a restored
/// snapshot, and candidates are swept in a group-signature gray-code-style
/// order so consecutive candidates restore the longest shared delta
/// prefix from the session's trie. On top of the sessions the planner
/// holds per-(configuration, width) schedule and makespan caches, and the
/// service adds fingerprint-keyed session and schedule caches that
/// persist across planner instances ([`Planner::with_service`]); the
/// default constructors bind a private transient service, preserving the
/// original per-planner behavior. Batches of independent delta packs (the
/// candidate × width loops that dominate planning wall time) run in
/// parallel via [`msoc_par`], with a deterministic in-order reduction so
/// parallel runs are bit-identical to serial ones — and session packs are
/// bit-identical to from-scratch `schedule_with_engine` calls by
/// construction.
#[derive(Debug)]
pub struct Planner<'a> {
    soc: &'a MixedSignalSoc,
    opts: PlannerOptions,
    service: ServiceBinding<'a>,
    /// The SOC's plan-inputs memo: a registered handle's, shared across
    /// jobs, or one of this planner's own.
    inputs: Arc<PlanInputs>,
    sessions: HashMap<u32, AcquiredSession>,
    makespans: HashMap<(SharingConfig, u32), u64>,
    schedules: HashMap<(SharingConfig, u32), Arc<Schedule>>,
    /// Schedule-cache keys that survive per-sweep pruning (report winners
    /// and the all-share baseline).
    pinned: HashSet<(SharingConfig, u32)>,
    width_bound_prunes: u64,
    cost_bound_prunes: u64,
    /// Deadline/cancellation control of the job driving this planner
    /// (`None` outside [`crate::PlanService::submit`]). Checked only at
    /// deterministic progress boundaries; see [`Interrupted`].
    control: Option<crate::service::job::JobControl>,
    /// Whether cache hits served to this planner should be attributed to
    /// the revision counter (set for jobs planned through a revised
    /// [`crate::service::SocHandle`]).
    track_revision: bool,
}

impl<'a> Planner<'a> {
    /// Creates a planner with default options.
    pub fn new(soc: &'a MixedSignalSoc) -> Self {
        Planner::with_options(soc, PlannerOptions::default())
    }

    /// Creates a planner with explicit options and a private transient
    /// service (caches live and die with this planner).
    pub fn with_options(soc: &'a MixedSignalSoc, opts: PlannerOptions) -> Self {
        Planner::build(soc, Arc::default(), opts, ServiceBinding::Owned(Box::default()))
    }

    /// Creates a planner whose sessions and schedules come from (and feed)
    /// a shared [`PlanService`]: a planner for a SOC the service has seen
    /// before starts with warm checkpoints and cached schedules.
    pub fn with_service(
        soc: &'a MixedSignalSoc,
        opts: PlannerOptions,
        service: &'a PlanService,
    ) -> Self {
        Planner::build(soc, Arc::default(), opts, ServiceBinding::Shared(service))
    }

    /// [`Self::with_service`] reading and filling `inputs`, the memo that
    /// belongs to `soc` (see [`PlanInputs`]).
    pub(crate) fn with_inputs(
        soc: &'a MixedSignalSoc,
        inputs: Arc<PlanInputs>,
        opts: PlannerOptions,
        service: &'a PlanService,
    ) -> Self {
        Planner::build(soc, inputs, opts, ServiceBinding::Shared(service))
    }

    fn build(
        soc: &'a MixedSignalSoc,
        inputs: Arc<PlanInputs>,
        opts: PlannerOptions,
        service: ServiceBinding<'a>,
    ) -> Self {
        Planner {
            soc,
            opts,
            service,
            inputs,
            sessions: HashMap::new(),
            makespans: HashMap::new(),
            schedules: HashMap::new(),
            pinned: HashSet::new(),
            width_bound_prunes: 0,
            cost_bound_prunes: 0,
            control: None,
            track_revision: false,
        }
    }

    /// Binds the job control (deadline + cancellation) this planner checks
    /// at its progress boundaries.
    pub(crate) fn set_control(&mut self, control: Option<crate::service::job::JobControl>) {
        self.control = control;
    }

    /// Marks this planner's cache traffic as revision traffic (jobs
    /// planned through a revised [`crate::service::SocHandle`]).
    pub(crate) fn set_revision_tracking(&mut self, on: bool) {
        self.track_revision = on;
    }

    /// Checks the bound job control, surfacing an expired deadline or a
    /// triggered cancellation as [`PlanError::Interrupted`]. Called only
    /// at deterministic progress boundaries (batch/wave starts), so an
    /// interrupted run abandons whole units of work and every cached
    /// result stays a complete, bit-identical pack.
    pub(crate) fn check_interrupt(&self) -> Result<(), PlanError> {
        match &self.control {
            Some(control) => control.check().map_err(PlanError::Interrupted),
            None => Ok(()),
        }
    }

    /// The pack session for width `w`, acquired from the service on first
    /// use: its skeleton is the sweep-invariant digital job set (one job
    /// per digital core, full Pareto staircase up to `w`). On a warm
    /// service this returns a session another planner already populated.
    fn session(&mut self, w: u32) -> &Arc<PackSession> {
        if !self.sessions.contains_key(&w) {
            let skeleton = self.inputs.skeleton(self.soc, w);
            let session = self.service.session(w, self.opts.effort, skeleton, self.track_revision);
            let baseline = session.stats();
            self.sessions.insert(w, AcquiredSession { session, baseline });
        }
        &self.sessions[&w].session
    }

    /// The per-candidate delta jobs: one grouped job per analog test plus
    /// optional per-wrapper self-test sessions, from the SOC's memo.
    fn delta_jobs(&self, config: &SharingConfig) -> DeltaJobs {
        let opts = &self.opts;
        self.inputs.delta(self.soc, opts.enumeration, opts.self_test_cycles, config)
    }

    /// Schedules `batch` through the service's schedule cache and lands
    /// each schedule in the planner's makespan/schedule caches, in batch
    /// order: the planner's one route to that cache.
    ///
    /// Every request costs one counted lookup, a hit or a miss. Only when
    /// something missed does the batch do more: each session with a miss
    /// warms its base skeleton checkpoints, so the concurrent packs hit a
    /// hot cache instead of all racing to pack the same orderings, and the
    /// misses fan out over the available cores in the packing order
    /// `order` gives the whole batch, hits filtered out.
    ///
    /// # Errors
    ///
    /// Returns the error of the failed request with the lowest rank, after
    /// landing every schedule that did pack.
    fn lookup_then_pack(
        &mut self,
        batch: Vec<Pending>,
        order: impl FnOnce(&[Pending]) -> Vec<usize>,
    ) -> Result<Vec<Arc<Schedule>>, PlanError> {
        let service = &*self.service;
        let tracked = self.track_revision;
        let mut results: Vec<Option<Result<Arc<Schedule>, ScheduleError>>> = batch
            .iter()
            .map(|p| {
                service.lookup(&p.session, &p.delta.jobs, p.delta.fingerprint, tracked).map(Ok)
            })
            .collect();
        if results.iter().any(Option::is_none) {
            let mut warmed: Vec<&Arc<PackSession>> = Vec::new();
            for (p, _) in batch.iter().zip(&results).filter(|(_, r)| r.is_none()) {
                if !warmed.iter().any(|s| Arc::ptr_eq(s, &p.session)) {
                    p.session.warm();
                    warmed.push(&p.session);
                }
            }
            let misses: Vec<usize> =
                order(&batch).into_iter().filter(|&i| results[i].is_none()).collect();
            let packed = msoc_par::map(&misses, |_, &i| {
                let p = &batch[i];
                service.pack_miss(&p.session, &p.delta.jobs, p.delta.fingerprint)
            });
            for (i, result) in misses.into_iter().zip(packed) {
                results[i] = Some(result);
            }
        }
        let mut landed = Vec::with_capacity(batch.len());
        let mut first_error: Option<(usize, ScheduleError)> = None;
        for (p, result) in batch.into_iter().zip(results) {
            match result.expect("the order covers every miss") {
                Ok(schedule) => {
                    // Full schedules are kept only until the sweep's report
                    // prunes the losers (see `report`); makespans stay.
                    let key = (p.config, p.session.key().tam_width());
                    self.makespans.insert(key.clone(), schedule.makespan());
                    self.schedules.insert(key, Arc::clone(&schedule));
                    landed.push(schedule);
                }
                Err(e) => {
                    if first_error.as_ref().is_none_or(|(rank, _)| p.rank < *rank) {
                        first_error = Some((p.rank, e));
                    }
                }
            }
        }
        match first_error {
            Some((_, e)) => Err(e.into()),
            None => Ok(landed),
        }
    }

    /// Aggregate reuse statistics over the planner's sessions plus the
    /// planner-level bound prunes.
    ///
    /// Session counters are reported relative to each session's state at
    /// acquisition, so a planner on a warm shared service counts its own
    /// reuse, not the history of every earlier planner.
    pub fn stats(&self) -> PlanStats {
        let mut out = PlanStats {
            width_bound_prunes: self.width_bound_prunes,
            cost_bound_prunes: self.cost_bound_prunes,
            ..Default::default()
        };
        for acquired in self.sessions.values() {
            let now = acquired.session.stats();
            let base = acquired.baseline;
            out.skeleton_hits += now.skeleton_hits.saturating_sub(base.skeleton_hits);
            out.skeleton_misses += now.skeleton_misses.saturating_sub(base.skeleton_misses);
            out.delta_packs += now.delta_packs.saturating_sub(base.delta_packs);
            out.pruned_passes += now.pruned_passes.saturating_sub(base.pruned_passes);
            out.prefix_hits += now.prefix_hits.saturating_sub(base.prefix_hits);
            out.prefix_jobs_restored +=
                now.prefix_jobs_restored.saturating_sub(base.prefix_jobs_restored);
            // The session-wide max is attributed only when this planner
            // performed prefix restores on the session at all — a running
            // max cannot be baseline-subtracted, but a planner with zero
            // restores must not inherit another planner's depth record.
            if now.prefix_hits > base.prefix_hits {
                out.max_prefix_depth = out.max_prefix_depth.max(now.max_prefix_depth);
            }
            out.checkpoint_evictions += now.evictions.saturating_sub(base.evictions);
        }
        out
    }

    /// The candidate sharing configurations under the planner's
    /// enumeration mode.
    pub fn candidates(&self) -> Vec<SharingConfig> {
        self.inputs.candidates(self.soc, self.opts.enumeration).configs.clone()
    }

    /// Builds the schedule problem for a configuration at TAM width `w`:
    /// one skeleton job per digital core (full staircase) plus one delta
    /// job per analog test (fixed width and time), grouped by wrapper —
    /// exactly the problem the width's [`PackSession`] delta-packs.
    pub fn build_problem(&mut self, config: &SharingConfig, w: u32) -> ScheduleProblem {
        let delta = self.delta_jobs(config);
        self.session(w).key().problem_for(&delta.jobs)
    }

    /// Schedules a configuration (cached) and returns its makespan.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Schedule`] when a test cannot fit the TAM.
    pub fn makespan(&mut self, config: &SharingConfig, w: u32) -> Result<u64, PlanError> {
        if let Some(&m) = self.makespans.get(&(config.clone(), w)) {
            return Ok(m);
        }
        self.schedule_batch(std::slice::from_ref(config), w)?;
        Ok(self.makespans[&(config.clone(), w)])
    }

    /// Schedules every configuration in `configs` at width `w` into the
    /// caches, fanning uncached ones out over the available cores.
    ///
    /// The candidate × width evaluation loops are where planning spends
    /// its wall time (each evaluation is a full multi-start pack), and the
    /// configurations are independent, so this is the planner's main
    /// parallel section. Configurations the planner has not seen are first
    /// looked up in the service's schedule cache, one counted lookup each;
    /// a batch the cache answers whole neither orders nor warms anything.
    /// The misses are packed in a group-signature gray-code-style order of
    /// the whole batch — greedy nearest-neighbor on the delta jobs' group
    /// assignments in the session's canonical by-time ordering — so
    /// consecutive candidates differ in as few wrapper groups as possible
    /// and the session's delta-prefix trie restores the longest common
    /// packed prefix (the hits in that order are skipped). The packing
    /// order is pure scheduling-work layout: every candidate's schedule is
    /// deterministic in isolation, results land in the same caches the
    /// serial path reads, and errors surface in input order, keeping
    /// every downstream decision bit-identical to a serial run.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Schedule`] for the first (in input order)
    /// configuration whose problem cannot be scheduled, and
    /// [`PlanError::Interrupted`] when the bound job control reports an
    /// expired deadline or cancellation — the check runs once here, before
    /// the batch packs, so interruption never abandons a partial batch.
    pub fn schedule_batch(&mut self, configs: &[SharingConfig], w: u32) -> Result<(), PlanError> {
        self.check_interrupt()?;
        let session = Arc::clone(self.session(w));
        let mut batch: Vec<Pending> = Vec::new();
        for (rank, config) in configs.iter().enumerate() {
            if self.makespans.contains_key(&(config.clone(), w))
                || batch.iter().any(|p| p.config == *config)
            {
                continue;
            }
            let delta = self.delta_jobs(config);
            batch.push(Pending {
                config: config.clone(),
                rank,
                session: Arc::clone(&session),
                delta,
            });
        }
        self.lookup_then_pack(batch, |batch| {
            let deltas: Vec<&[TestJob]> = batch.iter().map(|p| &*p.delta.jobs).collect();
            prefix_sharing_order(&deltas, w)
        })?;
        Ok(())
    }

    /// The full schedule for one configuration (cached and pinned).
    ///
    /// Pinned schedules — the report winner and the all-share baseline —
    /// survive the per-sweep pruning in `report`, so the retained cache
    /// stays small even across Bell-enumeration sweeps while the sweep
    /// itself never packs a configuration twice.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Schedule`] when a test cannot fit the TAM.
    pub fn schedule_for(&mut self, config: &SharingConfig, w: u32) -> Result<&Schedule, PlanError> {
        let key = (config.clone(), w);
        if !self.schedules.contains_key(&key) {
            let delta = self.delta_jobs(config);
            let session = Arc::clone(self.session(w));
            let request = Pending { config: config.clone(), rank: 0, session, delta };
            self.lookup_then_pack(vec![request], in_batch_order)?;
        }
        self.pinned.insert(key.clone());
        Ok(self.schedules[&key].as_ref())
    }

    /// Finds the width in `widths` minimizing the scheduled makespan of
    /// `config`, reusing bounds across the sweep: a width whose
    /// schedule-independent lower bound (area/width, critical job, wrapper
    /// chain) already *strictly* exceeds the incumbent best makespan is
    /// pruned before any packing. The prune is exact — a pruned width
    /// provably cannot beat or tie the incumbent — so the returned winner
    /// (ties resolved to the earliest width in `widths`) is identical to
    /// the unpruned sweep's. Pruned widths are counted in
    /// [`PlanStats::width_bound_prunes`].
    ///
    /// Sweeping from wide to narrow maximizes pruning: the wide widths set
    /// a strong incumbent and the narrow widths' area bounds blow past it.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Schedule`] when a test cannot fit the TAM at
    /// some unpruned width. `widths` must be non-empty.
    pub fn best_width_for(
        &mut self,
        config: &SharingConfig,
        widths: &[u32],
    ) -> Result<(u32, u64), PlanError> {
        assert!(!widths.is_empty(), "best_width_for needs at least one width");
        let mut best: Option<(u32, u64)> = None;
        let delta = self.delta_jobs(config);
        for &w in widths {
            if let Some((_, incumbent)) = best {
                // Bound straight from the session skeleton + delta slices;
                // no job cloning for a width that may be pruned.
                let jobs = self.session(w).key().skeleton().iter().chain(delta.jobs.iter());
                if bounds::lower_bound_for(jobs, w) > incumbent {
                    self.width_bound_prunes += 1;
                    continue;
                }
            }
            let makespan = self.makespan(config, w)?;
            if best.is_none_or(|(_, m)| makespan < m) {
                best = Some((w, makespan));
            }
        }
        Ok(best.expect("at least one width is evaluated"))
    }

    /// The normalization time `T_max(w)`: the makespan of the all-share
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Schedule`] when a test cannot fit the TAM.
    pub fn t_max(&mut self, w: u32) -> Result<u64, PlanError> {
        self.makespan(&SharingConfig::all_shared(self.soc.analog.len()), w)
    }

    /// A provable lower bound on the blended cost of `(config, w)`,
    /// computable without packing: the *exact* area cost blended with the
    /// time cost of the schedule-independent makespan lower bound
    /// (area/width, critical job, wrapper chain — capped at `T_max` like
    /// the real evaluation). Every real [`Self::evaluate`] result is `>=`
    /// this bound, so a candidate whose bound already exceeds an incumbent
    /// best cost can be skipped without changing any sweep's winner.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when the all-share normalization cannot be
    /// scheduled or the configuration violates the sharing policy.
    pub fn cost_lower_bound(
        &mut self,
        config: &SharingConfig,
        w: u32,
        weights: CostWeights,
    ) -> Result<f64, PlanError> {
        let c_a = cost::area_cost(
            config,
            &self.soc.analog,
            &self.opts.area_model,
            &self.opts.sharing_policy,
        )?;
        let t_max = self.t_max(w)?;
        let delta = self.delta_jobs(config);
        let lb = {
            let jobs = self.session(w).key().skeleton().iter().chain(delta.jobs.iter());
            bounds::lower_bound_for(jobs, w)
        };
        let c_t = cost::time_cost(lb.min(t_max), t_max);
        Ok(weights.blend(c_t, c_a))
    }

    /// Fully evaluates one configuration at width `w`.
    ///
    /// The makespan is capped at `T_max`: every sharing partition refines
    /// the all-share partition (its serialization constraints are a
    /// subset), so the all-share schedule is feasible for every
    /// configuration and `C_T ≤ 100` always holds. Without the cap,
    /// greedy-scheduler noise could rank a configuration a fraction of a
    /// percent above the baseline.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] on scheduling failure or incompatible sharing.
    pub fn evaluate(
        &mut self,
        config: &SharingConfig,
        w: u32,
        weights: CostWeights,
    ) -> Result<EvaluatedConfig, PlanError> {
        let c_a = cost::area_cost(
            config,
            &self.soc.analog,
            &self.opts.area_model,
            &self.opts.sharing_policy,
        )?;
        let t_max = self.t_max(w)?;
        let makespan = self.makespan(config, w)?.min(t_max);
        let c_t = cost::time_cost(makespan, t_max);
        Ok(EvaluatedConfig {
            config: config.clone(),
            makespan,
            time_cost: c_t,
            area_cost: c_a,
            total_cost: weights.blend(c_t, c_a),
        })
    }

    /// Exhaustive baseline: evaluates every candidate configuration and
    /// returns the best, with `evaluations == candidates`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when the SOC has no analog cores, a test
    /// cannot fit the TAM, or a candidate violates the sharing policy.
    pub fn exhaustive(&mut self, w: u32, weights: CostWeights) -> Result<PlanReport, PlanError> {
        if self.soc.analog.is_empty() {
            return Err(PlanError::NoAnalogCores);
        }
        let inputs = Arc::clone(&self.inputs);
        let candidates = &inputs.candidates(self.soc, self.opts.enumeration).configs;
        let n = candidates.len();
        // Normalization baseline first (it caps every C_T), then the whole
        // candidate set in one parallel batch; the best-cost fold below
        // then runs entirely on cache hits, in candidate order.
        self.t_max(w)?;
        self.schedule_batch(candidates, w)?;
        let mut best: Option<EvaluatedConfig> = None;
        for config in candidates {
            let eval = self.evaluate(config, w, weights)?;
            if best.as_ref().is_none_or(|b| eval.total_cost < b.total_cost) {
                best = Some(eval);
            }
        }
        self.report(best.expect("candidate set is never empty"), n, n, w, weights)
    }

    /// The paper's `Cost_Optimizer` heuristic (its Fig. 3).
    ///
    /// Configurations are grouped by shape (degree of sharing); each
    /// group's preliminary-cost minimizer is evaluated fully; groups whose
    /// representative costs more than `delta` above the best surviving
    /// representative are eliminated; remaining groups are evaluated
    /// fully. The all-share configuration is the normalization baseline:
    /// its schedule is computed for `T_max` and its cost participates in
    /// the final comparison, but it costs no extra evaluation — matching
    /// the paper's evaluation accounting in Table 4.
    ///
    /// `delta = 0` reproduces the paper's experiments; larger values trade
    /// evaluations for a better optimality guarantee.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when the SOC has no analog cores, a test
    /// cannot fit the TAM, or a candidate violates the sharing policy.
    pub fn cost_optimizer(
        &mut self,
        w: u32,
        weights: CostWeights,
        delta: f64,
    ) -> Result<PlanReport, PlanError> {
        if self.soc.analog.is_empty() {
            return Err(PlanError::NoAnalogCores);
        }
        let inputs = Arc::clone(&self.inputs);
        let candidates = &inputs.candidates(self.soc, self.opts.enumeration).configs;
        let n_candidates = candidates.len();
        let all_shared = SharingConfig::all_shared(self.soc.analog.len());

        // Line 1: group by degree of sharing; the all-share baseline (and,
        // in `All` mode, the no-sharing reference) stay out of the groups.
        let groups: Vec<Vec<SharingConfig>> = partition::group_by_shape(
            candidates.iter().filter(|c| **c != all_shared && c.has_sharing()).cloned().collect(),
        );

        // Baseline: schedule the all-share configuration for T_max; its
        // own cost comes along for free.
        let mut best = self.evaluate(&all_shared, w, weights)?;
        let mut evaluations = 0usize;

        // Lines 2–9: pick each group's preliminary-cost minimizer (pure
        // arithmetic, serial), then schedule all representatives in one
        // parallel batch before evaluating them in group order.
        let mut rep_configs: Vec<SharingConfig> = Vec::with_capacity(groups.len());
        for group in &groups {
            let mut rep: Option<(&SharingConfig, f64)> = None;
            for config in group {
                let prelim = cost::preliminary_cost(
                    config,
                    &self.soc.analog,
                    &self.opts.area_model,
                    &self.opts.sharing_policy,
                    weights,
                )?;
                if rep.is_none_or(|(_, c)| prelim < c) {
                    rep = Some((config, prelim));
                }
            }
            let (config, _) = rep.expect("groups are non-empty");
            rep_configs.push(config.clone());
        }
        self.schedule_batch(&rep_configs, w)?;
        let mut reps: Vec<(usize, EvaluatedConfig)> = Vec::new();
        for (g_idx, config) in rep_configs.iter().enumerate() {
            let eval = self.evaluate(config, w, weights)?;
            evaluations += 1;
            reps.push((g_idx, eval));
        }

        // Lines 10–17: keep the groups whose representative is within
        // `delta` of the best representative.
        let c_star = reps.iter().map(|(_, e)| e.total_cost).fold(f64::INFINITY, f64::min);
        // The incumbent for the blended-cost bound prune: the best fully
        // evaluated cost so far (all-share baseline and every
        // representative). A member whose cost lower bound already
        // exceeds it provably cannot become the winner, so it is skipped
        // before any packing — exact, counted in
        // [`PlanStats::cost_bound_prunes`], and reflected in the report's
        // evaluation count (the member's TAM optimization never ran).
        let incumbent = reps.iter().map(|(_, e)| e.total_cost).fold(best.total_cost, f64::min);
        // Schedule every surviving group's remaining unpruned members in
        // one parallel batch, then fold costs serially in group order.
        let mut survivors: Vec<SharingConfig> = Vec::new();
        let mut bound_pruned: HashSet<SharingConfig> = HashSet::new();
        for (g_idx, rep_eval) in &reps {
            if rep_eval.total_cost - c_star > delta {
                continue;
            }
            for config in &groups[*g_idx] {
                if config == &rep_eval.config {
                    continue;
                }
                if self.cost_lower_bound(config, w, weights)? > incumbent {
                    self.cost_bound_prunes += 1;
                    bound_pruned.insert(config.clone());
                } else {
                    survivors.push(config.clone());
                }
            }
        }
        self.schedule_batch(&survivors, w)?;
        for (g_idx, rep_eval) in reps {
            let survives = rep_eval.total_cost - c_star <= delta;
            if rep_eval.total_cost < best.total_cost {
                best = rep_eval.clone();
            }
            if !survives {
                continue;
            }
            // Line 18: full evaluation of the surviving group's remaining
            // members (minus the bound-pruned ones, which provably lose).
            for config in &groups[g_idx] {
                if *config == rep_eval.config || bound_pruned.contains(config) {
                    continue;
                }
                let eval = self.evaluate(config, w, weights)?;
                evaluations += 1;
                if eval.total_cost < best.total_cost {
                    best = eval;
                }
            }
        }

        self.report(best, evaluations, n_candidates, w, weights)
    }

    fn report(
        &mut self,
        best: EvaluatedConfig,
        evaluations: usize,
        candidates: usize,
        w: u32,
        weights: CostWeights,
    ) -> Result<PlanReport, PlanError> {
        let mut schedule = self.schedule_for(&best.config, w)?.clone();
        let mut swapped = false;
        if schedule.makespan() > best.makespan {
            // The evaluation was capped at T_max (see `evaluate`); the
            // all-share schedule realizes that bound and is feasible for
            // every configuration, so hand that one out instead. (It is
            // not validated against the winner's problem: with self-test
            // sessions enabled the two problems have different job sets.)
            let all = SharingConfig::all_shared(self.soc.analog.len());
            let all_schedule = self.schedule_for(&all, w)?;
            if all_schedule.makespan() < schedule.makespan() {
                schedule = all_schedule.clone();
                swapped = true;
            }
        }
        debug_assert!(
            swapped || {
                let problem = self.build_problem(&best.config, w);
                schedule.validate(&problem).is_ok()
            },
            "winning schedule must validate against its own problem"
        );
        // Drop the sweep's losing schedules; only pinned entries (report
        // winners and the all-share baseline) are read back later.
        let pinned = &self.pinned;
        self.schedules.retain(|key, _| pinned.contains(key));
        Ok(PlanReport { best, evaluations, candidates, schedule, tam_width: w, weights })
    }
}

/// The order of a batch of candidates' deltas in which consecutive
/// candidates share the longest possible delta prefix (gray-code-style
/// sweep order), as indices into `deltas`.
///
/// The session's phase orderings enumerate delta jobs in candidate-
/// independent orders, the canonical one being descending time; a
/// candidate's *signature* is its jobs' wrapper groups in that order, and
/// the trie shares packed prefixes exactly up to the first signature
/// divergence. A true minimal-change gray code over set partitions is
/// overkill here — a greedy nearest-neighbor chain on longest common
/// signature prefix (deterministic, ties to the earliest candidate)
/// captures the reuse. Packing order is free to permute: each candidate's
/// schedule is deterministic in isolation and results are keyed, so this
/// affects only how much packed work the trie can reuse.
fn prefix_sharing_order(deltas: &[&[TestJob]], w: u32) -> Vec<usize> {
    let n = deltas.len();
    if n <= 2 {
        return (0..n).collect();
    }
    let signature = |delta: &[TestJob]| -> Vec<Option<u32>> {
        let mut idx: Vec<usize> = (0..delta.len()).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(delta[i].staircase.time_at(w)));
        idx.into_iter().map(|i| delta[i].group).collect()
    };
    let sigs: Vec<Vec<Option<u32>>> = deltas.iter().map(|d| signature(d)).collect();
    let mut used = vec![false; n];
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut current = 0usize;
    used[0] = true;
    chain.push(0);
    for _ in 1..n {
        let mut next: Option<(usize, usize)> = None; // (lcp, candidate)
        for (j, used_j) in used.iter().enumerate() {
            if *used_j {
                continue;
            }
            let lcp = sigs[current].iter().zip(&sigs[j]).take_while(|(a, b)| a == b).count();
            if next.is_none_or(|(best_lcp, _)| lcp > best_lcp) {
                next = Some((lcp, j));
            }
        }
        let (_, j) = next.expect("an unused candidate remains");
        used[j] = true;
        chain.push(j);
        current = j;
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A light mixed SOC: d695s digital plus the five paper analog cores.
    fn soc() -> MixedSignalSoc {
        MixedSignalSoc::d695m()
    }

    fn quick_planner(soc: &MixedSignalSoc) -> Planner<'_> {
        Planner::with_options(
            soc,
            PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() },
        )
    }

    #[test]
    fn all_share_time_cost_is_100() {
        let soc = soc();
        let mut p = quick_planner(&soc);
        let all = SharingConfig::all_shared(5);
        let eval = p.evaluate(&all, 16, CostWeights::balanced()).unwrap();
        assert!((eval.time_cost - 100.0).abs() < 1e-9);
    }

    #[test]
    fn exhaustive_covers_all_26_candidates() {
        let soc = soc();
        let mut p = quick_planner(&soc);
        let report = p.exhaustive(16, CostWeights::balanced()).unwrap();
        assert_eq!(report.candidates, 26);
        assert_eq!(report.evaluations, 26);
        report
            .schedule
            .validate(&p.build_problem(&report.best.config, 16))
            .expect("winning schedule must validate");
    }

    #[test]
    fn heuristic_uses_fewer_evaluations_and_matches_exhaustive_cost_closely() {
        let soc = soc();
        let mut p = quick_planner(&soc);
        let exhaustive = p.exhaustive(16, CostWeights::balanced()).unwrap();
        let heuristic = p.cost_optimizer(16, CostWeights::balanced(), 0.0).unwrap();
        assert!(heuristic.evaluations < exhaustive.evaluations);
        assert!(heuristic.best.total_cost >= exhaustive.best.total_cost - 1e-9);
        // The paper finds the heuristic optimal in all but one case; on
        // this instance demand near-optimality.
        assert!(
            heuristic.best.total_cost <= exhaustive.best.total_cost * 1.05,
            "heuristic {} vs exhaustive {}",
            heuristic.best.total_cost,
            exhaustive.best.total_cost
        );
    }

    #[test]
    fn relaxed_delta_recovers_the_exhaustive_optimum() {
        let soc = soc();
        let mut p = quick_planner(&soc);
        let exhaustive = p.exhaustive(16, CostWeights::area_heavy()).unwrap();
        let relaxed = p.cost_optimizer(16, CostWeights::area_heavy(), f64::INFINITY).unwrap();
        assert!((relaxed.best.total_cost - exhaustive.best.total_cost).abs() < 1e-9);
    }

    #[test]
    fn heuristic_evaluation_count_matches_paper_accounting() {
        // 4 group representatives + (|winning group| − 1) extra members.
        // The blended-cost bound prune may skip members that provably
        // cannot win; those skipped TAM evaluations are counted in
        // `cost_bound_prunes`, so evaluations + prunes recovers the
        // paper's accounting exactly.
        let soc = soc();
        let mut p = quick_planner(&soc);
        let report = p.cost_optimizer(16, CostWeights::balanced(), 0.0).unwrap();
        let considered = report.evaluations + p.stats().cost_bound_prunes as usize;
        let possible = [4 + 6, 4 + 3]; // {3,2}/pairs/triples (7) or quads (4)
        assert!(
            possible.contains(&considered),
            "unexpected evaluation accounting: {} evaluated + {} bound-pruned",
            report.evaluations,
            p.stats().cost_bound_prunes,
        );
        assert!(report.evaluations <= considered, "pruning can only reduce real evaluations");
    }

    #[test]
    fn cost_bound_pruning_never_changes_the_heuristic_winner() {
        // The prune is exact: a pruned member's cost lower bound already
        // exceeds a fully evaluated incumbent. Verify against a planner
        // whose bound is never consulted (delta = inf keeps every group,
        // and the exhaustive sweep evaluates every candidate for real).
        let soc = soc();
        for weights in [CostWeights::balanced(), CostWeights::time_heavy()] {
            let mut pruned = quick_planner(&soc);
            let heuristic = pruned.cost_optimizer(16, weights, 0.0).unwrap();
            let mut full = quick_planner(&soc);
            let exhaustive = full.exhaustive(16, weights).unwrap();
            // The heuristic may legitimately differ from exhaustive (the
            // paper's own pruning), but the bound prune must not push it
            // below the quality the unpruned heuristic guarantees: the
            // winner's cost is a real evaluated cost and no pruned member
            // could have beaten it.
            assert!(heuristic.best.total_cost >= exhaustive.best.total_cost - 1e-9);
            let bound = pruned.cost_lower_bound(&heuristic.best.config, 16, weights).unwrap();
            assert!(bound <= heuristic.best.total_cost + 1e-9, "bound must lower-bound reality");
        }
    }

    #[test]
    fn sweep_reuses_the_digital_skeleton_across_candidates() {
        let soc = soc();
        let mut p = quick_planner(&soc);
        let _ = p.exhaustive(16, CostWeights::balanced()).unwrap();
        let stats = p.stats();
        assert_eq!(stats.delta_packs, 26, "one delta pack per candidate: {stats:?}");
        assert!(stats.skeleton_hits >= 20, "sweep must reuse skeleton checkpoints: {stats:?}");
        assert!(
            stats.skeleton_hits > stats.skeleton_misses,
            "reuse should dominate packing: {stats:?}"
        );
    }

    #[test]
    fn session_packs_match_from_scratch_schedules() {
        use msoc_tam::{schedule_with_engine, Engine};
        let soc = soc();
        let mut p = quick_planner(&soc);
        for config in [
            SharingConfig::all_shared(5),
            SharingConfig::new(5, vec![vec![0, 1], vec![2, 3], vec![4]]),
        ] {
            let via_session = p.schedule_for(&config, 16).unwrap().clone();
            let problem = p.build_problem(&config, 16);
            let oracle = schedule_with_engine(&problem, Effort::Quick, Engine::Naive).unwrap();
            assert_eq!(via_session, oracle, "session diverged from the oracle for {config}");
        }
    }

    #[test]
    fn best_width_prunes_hopeless_widths_without_changing_the_winner() {
        // p93791m is area-bound dominated (no single digital core dwarfs
        // the rest), so the narrow widths' area/width bound blows past the
        // wide incumbent; d695m's dominant core would never let the bound
        // exceed any incumbent.
        let soc = MixedSignalSoc::p93791m();
        let config = SharingConfig::new(5, vec![vec![0, 1, 4], vec![2, 3]]);
        // Wide-to-narrow: W=64 sets the incumbent, the narrow tail width's
        // area bound exceeds it and is skipped before packing.
        let widths = [64, 16];
        let mut pruned = quick_planner(&soc);
        let (w_pruned, m_pruned) = pruned.best_width_for(&config, &widths).unwrap();
        let mut full = quick_planner(&soc);
        let best_full = widths
            .iter()
            .map(|&w| (w, full.makespan(&config, w).unwrap()))
            .min_by_key(|&(_, m)| m)
            .unwrap();
        assert_eq!((w_pruned, m_pruned), best_full);
        assert_eq!(
            pruned.stats().width_bound_prunes,
            1,
            "the narrow width should be pruned: {:?}",
            pruned.stats()
        );
        assert_eq!(full.stats().width_bound_prunes, 0);
    }

    /// A second planner on a shared service that finds the odd half of
    /// the candidates cached and packs the even half.
    fn mixed_batch(effort: Effort) -> (PlanStats, ServiceStatsDelta) {
        msoc_par::with_threads(1, || {
            let service = PlanService::new();
            let soc = soc();
            let opts = || PlannerOptions { effort, ..PlannerOptions::default() };
            let mut first = Planner::with_service(&soc, opts(), &service);
            let candidates = first.candidates();
            let odd: Vec<SharingConfig> = candidates.iter().skip(1).step_by(2).cloned().collect();
            first.schedule_batch(&odd, 16).unwrap();
            let before = service.stats();
            let mut second = Planner::with_service(&soc, opts(), &service);
            second.schedule_batch(&candidates, 16).unwrap();
            let after = service.stats();
            let delta = ServiceStatsDelta {
                hits: after.schedule_hits - before.schedule_hits,
                misses: after.schedule_misses - before.schedule_misses,
            };
            (second.stats(), delta)
        })
    }

    #[derive(Debug, PartialEq)]
    struct ServiceStatsDelta {
        hits: u64,
        misses: u64,
    }

    #[test]
    fn mixed_batches_pack_exactly_as_when_every_batch_warmed() {
        // Pinned against the planner that warmed and ordered every batch:
        // a batch with a miss still runs that way, so it keeps the same
        // packs and the same trie reuse.
        let (stats, service) = mixed_batch(Effort::Quick);
        assert_eq!(service, ServiceStatsDelta { hits: 13, misses: 13 });
        assert_eq!(
            stats,
            PlanStats {
                skeleton_hits: 39,
                skeleton_misses: 0,
                delta_packs: 13,
                pruned_passes: 26,
                prefix_hits: 39,
                prefix_jobs_restored: 391,
                max_prefix_depth: 18,
                ..PlanStats::default()
            }
        );
    }

    #[test]
    fn all_hit_batches_touch_no_checkpoint() {
        // Thorough sweeps overflow the session's checkpoint cap, so a
        // warm-up before an all-hit batch would re-pack evicted skeletons.
        let soc = soc();
        let opts = || PlannerOptions { effort: Effort::Thorough, ..PlannerOptions::default() };
        let service = PlanService::new();
        let mut first = Planner::with_service(&soc, opts(), &service);
        let candidates = first.candidates();
        first.schedule_batch(&candidates, 16).unwrap();
        assert!(first.stats().checkpoint_evictions > 0, "{:?}", first.stats());
        let before = service.stats();
        let mut second = Planner::with_service(&soc, opts(), &service);
        second.schedule_batch(&candidates, 16).unwrap();
        let after = service.stats();
        assert_eq!(after.schedule_hits - before.schedule_hits, candidates.len() as u64);
        assert_eq!(second.stats(), PlanStats::default(), "an all-hit batch packs nothing");
    }

    #[test]
    fn a_batch_packs_only_what_it_missed_at_its_start() {
        // One schedule per shard: each pack's insert evicts its shard's
        // entry, which may belong to a batch-mate that was cached when the
        // batch began. That mate was looked up before any pack, so it is
        // still a hit and is not packed again.
        msoc_par::with_threads(1, || {
            let service = PlanService::with_caps(16, 256);
            let soc = soc();
            let opts = || PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() };
            let mut first = Planner::with_service(&soc, opts(), &service);
            let candidates = first.candidates();
            first.schedule_batch(&candidates, 16).unwrap();
            let mut second = Planner::with_service(&soc, opts(), &service);
            let session = Arc::clone(second.session(16));
            let misses_at_start = candidates
                .iter()
                .filter(|config| {
                    let delta = second.delta_jobs(config);
                    service.lookup(&session, &delta.jobs, delta.fingerprint, false).is_none()
                })
                .count() as u64;
            assert!(0 < misses_at_start && misses_at_start < candidates.len() as u64);
            let before = service.stats();
            second.schedule_batch(&candidates, 16).unwrap();
            let after = service.stats();
            assert!(after.schedule_evictions > before.schedule_evictions, "{after:?}");
            assert_eq!(after.schedule_misses - before.schedule_misses, misses_at_start);
            assert_eq!(second.stats().delta_packs, misses_at_start, "{:?}", second.stats());
        });
    }

    #[test]
    fn makespans_are_cached_across_runs() {
        let soc = soc();
        let mut p = quick_planner(&soc);
        let _ = p.exhaustive(16, CostWeights::balanced()).unwrap();
        let cached = p.makespans.len();
        let _ = p.exhaustive(16, CostWeights::time_heavy()).unwrap();
        assert_eq!(p.makespans.len(), cached, "second sweep must reuse the cache");
    }

    #[test]
    fn no_analog_cores_is_an_error() {
        let soc = MixedSignalSoc::new("dig", msoc_itc02::synth::d695s(), vec![]);
        let mut p = quick_planner(&soc);
        match p.exhaustive(16, CostWeights::balanced()) {
            Err(PlanError::NoAnalogCores) => {}
            other => panic!("expected NoAnalogCores, got {other:?}"),
        }
    }

    #[test]
    fn too_narrow_tam_reports_schedule_error() {
        let soc = soc();
        let mut p = quick_planner(&soc);
        // Core D needs 10 wires for its IIP3 test.
        match p.exhaustive(8, CostWeights::balanced()) {
            Err(PlanError::Schedule(_)) => {}
            other => panic!("expected Schedule error, got {other:?}"),
        }
    }

    #[test]
    fn bell_enumeration_includes_no_sharing() {
        let soc = soc();
        let p = Planner::with_options(
            &soc,
            PlannerOptions { enumeration: Enumeration::All, ..PlannerOptions::default() },
        );
        let candidates = p.candidates();
        assert!(candidates.contains(&SharingConfig::no_sharing(5)));
        assert!(candidates.len() > 26);
    }

    #[test]
    fn self_test_sessions_serialize_per_wrapper() {
        let soc = soc();
        let bist = 50_000u64;
        let mut with = Planner::with_options(
            &soc,
            PlannerOptions {
                effort: Effort::Quick,
                self_test_cycles: Some(bist),
                ..PlannerOptions::default()
            },
        );
        let mut without = quick_planner(&soc);
        let weights = CostWeights::balanced();

        // One wrapper: one BIST session; five wrappers: five sessions.
        let all = SharingConfig::all_shared(5);
        let none = SharingConfig::no_sharing(5);
        let t_all_with = with.evaluate(&all, 16, weights).unwrap().makespan;
        let t_all_without = without.evaluate(&all, 16, weights).unwrap().makespan;
        assert!(t_all_with >= t_all_without + bist);

        // The problem gains exactly wrapper_count() extra jobs.
        let p = with.build_problem(&none, 16);
        let selftests = p.jobs.iter().filter(|j| j.label.starts_with("selftest")).count();
        assert_eq!(selftests, 5);
        let p = with.build_problem(&all, 16);
        let selftests = p.jobs.iter().filter(|j| j.label.starts_with("selftest")).count();
        assert_eq!(selftests, 1);
    }

    #[test]
    fn incompatible_policy_surfaces_as_plan_error() {
        let soc = soc();
        let mut p = Planner::with_options(
            &soc,
            PlannerOptions {
                effort: Effort::Quick,
                sharing_policy: SharingPolicy { beta: 0.2, max_demand: Some(1e10) },
                ..PlannerOptions::default()
            },
        );
        match p.exhaustive(16, CostWeights::balanced()) {
            Err(PlanError::Incompatible(_)) => {}
            other => panic!("expected Incompatible, got {other:?}"),
        }
    }
}
