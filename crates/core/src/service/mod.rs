//! The persistent plan service: fingerprinted caches shared across
//! planner instances and whole fleets of SOCs, plus the job-oriented
//! multi-SOC planning front-end.
//!
//! A [`Planner`](crate::Planner) is scoped to one SOC and one options
//! set; every planner used to rebuild its pack sessions and schedules
//! from nothing. A [`PlanService`] is the long-lived owner of that state:
//!
//! * **Session cache** — [`PackSession`]s keyed by their stable content
//!   [fingerprint](SessionKey::fingerprint) (skeleton jobs + TAM width +
//!   effort). Two planners for the same digital SOC — or two
//!   *runs* of the same plan request hours apart — share one session, and
//!   with it every skeleton checkpoint and delta-prefix snapshot the
//!   session has accumulated.
//! * **Schedule cache** — solved schedules keyed by (session fingerprint,
//!   delta-job fingerprint), so a warm service answers repeated plan
//!   requests without packing at all.
//! * **Job front-end** — [`PlanService::submit`] runs a batch of typed
//!   [`Job`]s (single-width plan, cross-width table, or best-width query,
//!   built by one [`JobBuilder`] that owns all request validation) over
//!   the available cores via `msoc_par`, honoring per-job
//!   [`Deadline`]s, [`CancelToken`]s and [`Priority`], and returns one
//!   typed [`JobOutcome`] per job.
//! * **Incremental revisions** — [`PlanService::register`] issues a
//!   [`SocHandle`]; [`SocHandle::revise`] applies [`CoreEdit`]s and
//!   re-fingerprints only the dirty core subtrees, so re-planning a
//!   lightly edited fleet re-hits the caches everywhere the content is
//!   unchanged (see [`ServiceStats::revision_cache_hits`]).
//! * **Snapshots** — [`PlanService::export_snapshot`] /
//!   [`PlanService::from_snapshot`] round-trip the fingerprinted schedule
//!   cache through a versioned byte format ([`ServiceSnapshot`]), closing
//!   the cross-process persistence gap.
//! * **Crash safety** — [`SnapshotDaemon`] persists generations of that
//!   format differentially (only when [`PlanService::session_ticks`]
//!   advanced, skipping content-identical re-exports for free via
//!   content-addressed [`blob_name`]s) into any [`SnapshotStore`], with
//!   capped exponential backoff on store faults, keep-last-K pruning,
//!   and boot-time [`recover`]y that quarantines torn or tampered
//!   generations and boots warm from the newest intact one.
//!
//! Fingerprints are fast discriminators, not proofs: both caches verify
//! full content equality on every fingerprint hit and treat mismatches as
//! misses, so served results are **bit-identical** to what a cold planner
//! would compute — the property tests in `tests/properties.rs` assert
//! this across random fleets.
//!
//! ```
//! use msoc_core::{CostWeights, JobBuilder, JobResult, MixedSignalSoc, PlanService};
//!
//! let service = PlanService::new();
//! let soc = service.register(MixedSignalSoc::d695m());
//! let job = JobBuilder::for_handle(&soc).single(16).weights(CostWeights::balanced()).build()?;
//! let cold = service.submit(std::slice::from_ref(&job));
//! let warm = service.submit(std::slice::from_ref(&job)); // schedule-cache hits
//! let (cold, warm) = (cold[0].report().unwrap(), warm[0].report().unwrap());
//! match (&cold.result, &warm.result) {
//!     (JobResult::Plan(c), JobResult::Plan(w)) => assert_eq!(c.best, w.best),
//!     other => unreachable!("single jobs return plans: {other:?}"),
//! }
//! assert!(service.stats().schedule_hits > 0);
//! # Ok::<(), msoc_core::PlanError>(())
//! ```

pub mod codec;
mod daemon;
pub(crate) mod job;
mod revision;
mod snapshot;
mod store;

pub use daemon::{
    recover, recover_with_caps, DaemonConfig, DaemonStats, ExportOutcome, RecoveryReport,
    SnapshotDaemon,
};
pub use job::{
    CancelToken, Deadline, Job, JobBuilder, JobOutcome, JobReport, JobResult, JobSpec, Priority,
};
pub use revision::{CoreEdit, SocHandle};
pub use snapshot::{ExportCache, SectionSizes, ServiceSnapshot, SnapshotError, SnapshotStats};
pub use store::{
    blob_name, parse_blob_name, DirStore, FaultCounters, FaultyStore, MemStore, SnapshotStore,
    StoreError,
};

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use msoc_tam::{
    Effort, PackSession, Schedule, ScheduleError, SessionKey, SessionStats, StableHasher, TestJob,
};

/// Default bound on retained schedules in the service's schedule cache.
const SCHEDULE_CACHE_CAP: usize = 4096;

/// Default bound on live pack sessions in the service's session cache.
///
/// Each session retains its skeleton jobs plus its checkpoint trie: a
/// placement log of about 80 bytes per node and full pack states
/// only at its skeleton-run anchors. An unbounded cache would still grow
/// without limit under multi-tenant traffic (every distinct digital SOC ×
/// width × effort is a new session). Above the cap the least recently
/// *requested* session is dropped and, unless a planner still holds it,
/// freed inline; results never change — an evicted session is rebuilt
/// cold on its next request.
const SESSION_CACHE_CAP: usize = 256;

/// Number of cache shards (power of two; the shard index is the low bits
/// of the FNV fingerprint).
///
/// Sixteen shards keep the per-shard mutex hold times short enough that
/// submitter threads only contend when they genuinely hit the same
/// fingerprint neighborhood, while staying small enough that aggregating
/// [`ServiceStats`] across shards stays cheap. FNV-1a mixes every input
/// byte into the low bits, so fingerprints spread uniformly; going wider
/// than the host's core count buys nothing (a thread can only hold one
/// shard lock at a time), so 16 covers the deployment targets without
/// per-host tuning.
const SHARDS: usize = 16;

/// The shard index a fingerprint lives in.
fn shard_index(fp: u64) -> usize {
    fp as usize & (SHARDS - 1)
}

/// One fully cached schedule: the exact inputs it answers for (verified on
/// every hit) plus the solved schedule. Holding the session's full
/// [`SessionKey`] (not just its fingerprint) is what makes hit
/// verification *content*-exact on the session side too: a fingerprint
/// collision between two sessions with different skeletons must degrade to
/// a miss, never to a schedule packed against the wrong skeleton. The key
/// is all an entry holds of its session, so an evicted session's
/// checkpoint trie is freed with it while the schedule stays servable.
#[derive(Debug)]
struct ScheduleEntry {
    key: Arc<SessionKey>,
    delta: Vec<TestJob>,
    schedule: Arc<Schedule>,
}

/// One cached session plus its LRU clock value.
#[derive(Debug)]
struct SessionEntry {
    session: Arc<PackSession>,
    /// Value of `session_tick` at the last hit or insertion.
    last_used: u64,
}

/// One cache shard: the slice of both fingerprint-keyed caches whose
/// keys land in this shard, behind its own lock. Concurrent submitters
/// only serialize when they touch the same shard.
#[derive(Debug, Default)]
struct Shard {
    state: Mutex<ShardState>,
    /// Times a locker found this shard's mutex already held (a would-block
    /// `try_lock` before the blocking acquire) — the contention signal the
    /// load harness reports per shard.
    contention: AtomicU64,
    /// Monotone per-shard mutation clock: bumped whenever this shard's
    /// *exportable* content may have changed — a session request landing
    /// here (LRU order moved), a pack landing a schedule here, a pack
    /// mutating the checkpoint trie of a session homed here, or a
    /// snapshot import inserting here. The differential exporter
    /// ([`ExportCache`]) reuses a shard's cached fragment while this
    /// clock stands still.
    tick: AtomicU64,
}

impl Shard {
    /// Locks the shard, counting contention when the lock is already held.
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        match self.state.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                self.state.lock().expect("plan service shard lock")
            }
            Err(std::sync::TryLockError::Poisoned(_)) => {
                unreachable!("plan service shard lock poisoned")
            }
        }
    }
}

#[derive(Debug, Default)]
struct ShardState {
    /// Sessions bucketed by fingerprint; the bucket is a `Vec` so a
    /// fingerprint collision degrades to a linear content scan instead of
    /// a wrong answer. LRU-bounded by the service's per-shard session cap.
    sessions: HashMap<u64, Vec<SessionEntry>>,
    /// Live sessions (cheaper than re-counting the buckets per insert).
    session_count: usize,
    /// Solved schedules bucketed by combined fingerprint, FIFO-bounded
    /// per shard.
    schedules: HashMap<u64, Vec<ScheduleEntry>>,
    memo_order: VecDeque<u64>,
    session_lookups: u64,
    session_hits: u64,
    session_misses: u64,
    session_evictions: u64,
    schedule_lookups: u64,
    schedule_hits: u64,
    schedule_misses: u64,
    schedule_evictions: u64,
}

impl ShardState {
    /// Removes the least recently used session (LRU over request ticks)
    /// and returns it, for the caller to drop once it has released the
    /// shard lock. Planners mid-sweep keep their `Arc` handle until they
    /// finish; schedule-cache entries hold only the session's
    /// [`SessionKey`], so they do not keep it alive.
    fn evict_lru_session(&mut self) -> Option<Arc<PackSession>> {
        let victim = self
            .sessions
            .iter()
            .flat_map(|(&fp, bucket)| {
                bucket.iter().enumerate().map(move |(i, e)| (e.last_used, fp, i))
            })
            .min()
            .map(|(_, fp, i)| (fp, i));
        let (fp, i) = victim?;
        let bucket = self.sessions.get_mut(&fp).expect("victim bucket exists");
        let evicted = bucket.remove(i);
        if bucket.is_empty() {
            self.sessions.remove(&fp);
        }
        self.session_count -= 1;
        self.session_evictions += 1;
        Some(evicted.session)
    }

    /// Enforces the per-shard schedule FIFO cap (oldest-first).
    fn trim_schedules(&mut self, cap: usize) {
        while self.memo_order.len() > cap {
            let Some(old) = self.memo_order.pop_front() else { break };
            let mut evicted = false;
            if let Some(bucket) = self.schedules.get_mut(&old) {
                if !bucket.is_empty() {
                    bucket.remove(0);
                    evicted = true;
                }
                if bucket.is_empty() {
                    self.schedules.remove(&old);
                }
            }
            if evicted {
                self.schedule_evictions += 1;
            }
        }
    }
}

/// Aggregate statistics of a [`PlanService`].
///
/// The `session_*`/`schedule_*` counters are the service's own cache
/// layers; `sessions` aggregates the reuse counters of every pack session
/// the service owns (see [`SessionStats`]); `live_sessions` and
/// `cached_schedules` are current occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Session-cache lookups (`session_hits + session_misses`).
    pub session_lookups: u64,
    /// Planner session requests served from the cache.
    pub session_hits: u64,
    /// Sessions created (fingerprint misses).
    pub session_misses: u64,
    /// Sessions dropped by the LRU session cap.
    pub session_evictions: u64,
    /// Schedule-cache lookups (`schedule_hits + schedule_misses`).
    pub schedule_lookups: u64,
    /// Pack requests answered from the schedule cache.
    pub schedule_hits: u64,
    /// Pack requests that had to pack.
    pub schedule_misses: u64,
    /// Schedules dropped by the FIFO cap.
    pub schedule_evictions: u64,
    /// Session- and schedule-cache hits served to jobs planned through a
    /// *revised* [`SocHandle`] — the reuse the incremental-revision API
    /// exists for (unchanged content re-hits, only dirty content repacks).
    pub revision_cache_hits: u64,
    /// Jobs accepted by [`PlanService::submit`] (shed jobs included —
    /// they arrived, the service chose not to run them).
    pub jobs_submitted: u64,
    /// Jobs that ended interrupted (deadline exceeded or cancelled).
    pub jobs_interrupted: u64,
    /// Jobs that ended [`JobOutcome::Failed`] — a caught per-job panic,
    /// or an outcome lost by the dispatch layer.
    pub jobs_failed: u64,
    /// Jobs shed without running — beyond the per-batch
    /// [`PlanService::with_admission_cap`] or the service-wide
    /// [`PlanService::with_queue_depth_cap`] (both return
    /// [`JobOutcome::Rejected`]).
    pub jobs_shed: u64,
    /// Snapshot-store put/get attempts retried by a
    /// [`SnapshotDaemon`] bound to this service (each retry follows a
    /// backed-off store failure).
    pub store_retries: u64,
    /// Snapshot generations quarantined during boot-time recovery
    /// ([`recover`]) because their bytes were torn, tampered or
    /// undecodable.
    pub quarantined_generations: u64,
    /// Aggregate pack-session counters over every owned session.
    pub sessions: SessionStats,
    /// Sessions currently owned.
    pub live_sessions: u64,
    /// Schedules currently cached.
    pub cached_schedules: u64,
    /// Times any shard lock was found already held (see
    /// [`ShardStats::contentions`]).
    pub lock_contentions: u64,
}

/// Per-shard cache statistics (see [`PlanService::shard_stats`]).
///
/// The sum of any counter over all shards equals the corresponding
/// [`ServiceStats`] aggregate — the coherence the concurrency property
/// tests pin down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Shard index (low bits of the fingerprint).
    pub index: usize,
    /// Sessions currently owned by this shard.
    pub live_sessions: u64,
    /// Schedules currently cached in this shard.
    pub cached_schedules: u64,
    /// Session-cache lookups that landed in this shard.
    pub session_lookups: u64,
    /// Schedule-cache lookups that landed in this shard.
    pub schedule_lookups: u64,
    /// Times this shard's lock was found already held by another thread.
    pub contentions: u64,
}

/// The persistent plan service (see the module docs).
///
/// All methods take `&self`; the service is internally synchronized and
/// is shared across threads by reference. Both caches are split into
/// `SHARDS` fingerprint-sharded slices with per-shard locks (held only
/// for lookups and insertions — packing and planning run outside them),
/// so concurrent `submit` batches only contend when they hit the same
/// shard; the remaining top-level counters are atomics.
#[derive(Debug)]
pub struct PlanService {
    shards: Box<[Shard]>,
    /// Monotone LRU clock over session requests (global so the eviction
    /// order — and snapshot export order — is the service-wide request
    /// order, not a per-shard approximation).
    session_tick: AtomicU64,
    revision_cache_hits: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_interrupted: AtomicU64,
    pub(crate) jobs_failed: AtomicU64,
    pub(crate) jobs_shed: AtomicU64,
    pub(crate) store_retries: AtomicU64,
    pub(crate) quarantined_generations: AtomicU64,
    /// Per-shard schedule FIFO bound (`with_caps` divided over shards).
    schedule_cap: usize,
    /// Per-shard session LRU bound (`with_caps` divided over shards).
    session_cap: usize,
    /// Most jobs one `submit` batch may dispatch (`None` = unbounded);
    /// the excess is shed as [`PlanError::Overloaded`](crate::PlanError::Overloaded) rejections.
    pub(crate) admission_cap: Option<usize>,
    /// Most jobs in flight across *all* concurrent `submit` batches
    /// (`None` = unbounded); arrivals beyond the free depth are shed as
    /// [`PlanError::Overloaded`](crate::PlanError::Overloaded) rejections, lowest priority first.
    pub(crate) queue_depth_cap: Option<usize>,
    /// Jobs currently dispatched and not yet finished (the queue-depth
    /// reservation counter).
    pub(crate) inflight: AtomicU64,
}

impl Default for PlanService {
    fn default() -> Self {
        PlanService::new()
    }
}

impl PlanService {
    /// Creates an empty service with the default schedule- and
    /// session-cache bounds.
    pub fn new() -> Self {
        PlanService::with_caps(SCHEDULE_CACHE_CAP, SESSION_CACHE_CAP)
    }

    /// Creates an empty service retaining at most `schedule_cap` solved
    /// schedules (oldest-first eviction) and `session_cap` live pack
    /// sessions (least-recently-requested eviction, counted in
    /// [`ServiceStats::session_evictions`]).
    ///
    /// Both caps are enforced **per shard** (each of the `SHARDS` shards
    /// gets `cap.div_ceil(SHARDS)`, at least 1), so the effective total
    /// bound is the cap rounded up to a multiple of the shard count, and
    /// fingerprint-skewed traffic may evict a hot shard before the
    /// service-wide total reaches the cap. Results never depend on either
    /// cap — an evicted entry is rebuilt cold on its next request.
    pub fn with_caps(schedule_cap: usize, session_cap: usize) -> Self {
        PlanService {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            session_tick: AtomicU64::new(0),
            revision_cache_hits: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_interrupted: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_shed: AtomicU64::new(0),
            store_retries: AtomicU64::new(0),
            quarantined_generations: AtomicU64::new(0),
            schedule_cap: schedule_cap.max(1).div_ceil(SHARDS).max(1),
            session_cap: session_cap.max(1).div_ceil(SHARDS).max(1),
            admission_cap: None,
            queue_depth_cap: None,
            inflight: AtomicU64::new(0),
        }
    }

    /// Caps how many jobs one [`submit`](Self::submit) batch may
    /// dispatch: the highest-priority `cap` jobs (ties to input order)
    /// run, the rest are shed immediately as
    /// [`JobOutcome::Rejected`]\([`PlanError::Overloaded`](crate::PlanError::Overloaded)) and counted
    /// in [`ServiceStats::jobs_shed`]. Admission control bounds the
    /// latency cost of an oversized batch instead of queueing it
    /// unboundedly; shed jobs can simply be resubmitted in a batch
    /// within the cap.
    pub fn with_admission_cap(mut self, cap: usize) -> Self {
        self.admission_cap = Some(cap.max(1));
        self
    }

    /// Caps how many jobs may be **in flight across all concurrent
    /// [`submit`](Self::submit) batches** to `cap`: each batch reserves
    /// slots from the shared depth budget before dispatching, and
    /// whatever does not fit — the lowest-priority tail of that batch,
    /// ties to input order — is shed immediately as
    /// [`JobOutcome::Rejected`]\([`PlanError::Overloaded`](crate::PlanError::Overloaded)) and counted
    /// in [`ServiceStats::jobs_shed`]. Slots are released as soon as the
    /// batch's dispatched jobs finish, so a shed job can simply be
    /// resubmitted.
    ///
    /// The per-batch [`with_admission_cap`](Self::with_admission_cap)
    /// bounds one caller's burst; the queue-depth cap is the
    /// *service-wide* backpressure a multi-tenant server needs when many
    /// connections submit at once.
    pub fn with_queue_depth_cap(mut self, cap: usize) -> Self {
        self.queue_depth_cap = Some(cap.max(1));
        self
    }

    /// Number of cache shards (the build-time `SHARDS` constant).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The service's monotone request clock: advances on every session
    /// request anywhere in the service, so a changed value means the
    /// caches may have warmed since the last observation. This is the
    /// dirtiness signal [`SnapshotDaemon`] polls for differential
    /// export.
    pub fn session_ticks(&self) -> u64 {
        self.session_tick.load(Ordering::Relaxed)
    }

    /// The session for `(tam_width, effort, skeleton)`, shared
    /// across every planner bound to this service.
    ///
    /// `skeleton` is built by the caller (it is also the content key);
    /// the returned session may have been created by an earlier planner —
    /// possibly for a *different* [`MixedSignalSoc`](crate::MixedSignalSoc) value with the same
    /// digital part — and already carry warm checkpoints. When `tracked`,
    /// a cache hit is also counted in
    /// [`ServiceStats::revision_cache_hits`] (the caller is planning a
    /// revised [`SocHandle`] and the hit proves unchanged content was
    /// reused rather than rebuilt).
    pub(crate) fn session(
        &self,
        tam_width: u32,
        effort: Effort,
        mut skeleton: Vec<TestJob>,
        tracked: bool,
    ) -> Arc<PackSession> {
        // Normalize up front (what session construction would do), so the
        // warm path fingerprints and compares without building a
        // throwaway session.
        for job in &mut skeleton {
            job.kind = msoc_tam::JobKind::Skeleton;
        }
        let fp = msoc_tam::session_fingerprint(tam_width, effort, &skeleton);
        let tick = self.session_tick.fetch_add(1, Ordering::Relaxed) + 1;
        let home = &self.shards[shard_index(fp)];
        let mut state = home.lock();
        // Even a hit moves `last_used` (export order), so every request
        // dirties the home shard for the differential exporter. Bumped
        // under the lock: an exporter then never tags a fragment with a
        // tick whose mutation it could not yet see.
        home.tick.fetch_add(1, Ordering::Relaxed);
        state.session_lookups += 1;
        let bucket = state.sessions.entry(fp).or_default();
        let found = bucket
            .iter_mut()
            .find(|entry| {
                let key = entry.session.key();
                key.tam_width() == tam_width && key.effort() == effort && key.skeleton() == skeleton
            })
            .map(|entry| {
                entry.last_used = tick;
                Arc::clone(&entry.session)
            });
        if let Some(session) = found {
            state.session_hits += 1;
            if tracked {
                self.revision_cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            return session;
        }
        let created = Arc::new(PackSession::new(tam_width, skeleton, effort));
        state
            .sessions
            .entry(fp)
            .or_default()
            .push(SessionEntry { session: Arc::clone(&created), last_used: tick });
        state.session_count += 1;
        state.session_misses += 1;
        let mut evicted = Vec::new();
        while state.session_count > self.session_cap {
            evicted.extend(state.evict_lru_session());
        }
        // Evicted sessions are freed here, after the shard lock: a trie is
        // a node arena, a child map and a few anchors, so the free is a
        // handful of `Vec` drops.
        drop(state);
        drop(evicted);
        created
    }

    /// The schedule-cache key of a delta with fingerprint `delta_fp` on
    /// the session keyed `session_key`.
    fn schedule_key(session_key: &SessionKey, delta_fp: u64) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(session_key.fingerprint());
        h.write_u64(delta_fp);
        h.finish()
    }

    /// The cached schedule of `delta` on `session_key` under `key`, if
    /// any. Content-exact: key equality is a pointer compare in the common
    /// case (sessions come from this service's cache, so equal content
    /// means the same key `Arc`) and a full compare for rebuilt and
    /// externally constructed sessions — and fingerprint collisions.
    fn cached(
        state: &ShardState,
        key: u64,
        session_key: &SessionKey,
        delta: &[TestJob],
    ) -> Option<Arc<Schedule>> {
        let bucket = state.schedules.get(&key)?;
        let entry = bucket.iter().find(|e| *e.key == *session_key && e.delta == delta)?;
        Some(Arc::clone(&entry.schedule))
    }

    /// One counted schedule-cache lookup of `delta`, whose
    /// [`fingerprint_jobs`](msoc_tam::fingerprint_jobs) is `delta_fp`, on
    /// `session`: a hit returns the cached schedule, a miss `None`. Each
    /// call counts one lookup and one hit or one miss, and with `tracked`
    /// a hit is also a [revision hit](ServiceStats::revision_cache_hits).
    pub(crate) fn lookup(
        &self,
        session: &PackSession,
        delta: &[TestJob],
        delta_fp: u64,
        tracked: bool,
    ) -> Option<Arc<Schedule>> {
        let key = Self::schedule_key(session.key(), delta_fp);
        let mut state = self.shards[shard_index(key)].lock();
        state.schedule_lookups += 1;
        let hit = Self::cached(&state, key, session.key(), delta);
        if hit.is_some() {
            state.schedule_hits += 1;
            if tracked {
                self.revision_cache_hits.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            state.schedule_misses += 1;
        }
        hit
    }

    /// Packs a delta that [`Self::lookup`] missed, outside every lock, and
    /// caches the result. Counts nothing: the lookup already counted the
    /// miss. A racing batch that packed the same key first keeps its
    /// entry; both schedules are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] exactly as [`PackSession::pack`] would.
    pub(crate) fn pack_miss(
        &self,
        session: &PackSession,
        delta: &[TestJob],
        delta_fp: u64,
    ) -> Result<Arc<Schedule>, ScheduleError> {
        let session_key = session.key();
        let key = Self::schedule_key(session_key, delta_fp);
        let shard = &self.shards[shard_index(key)];
        let schedule = Arc::new(session.pack(delta)?);
        // The pack mutated `session`'s checkpoint trie, which exports with
        // the session homed at its *fingerprint* shard — dirty that shard
        // for the differential exporter, unconditionally: even when a
        // racing thread already inserted the entry below, this pack's trie
        // mutation is real. (The trie itself is internally synchronized,
        // so this bump rides outside the shard lock like the mutation;
        // at worst one export tags a mid-pack fragment and the bump
        // forces the next export to rebuild it.)
        self.shards[shard_index(session_key.fingerprint())].tick.fetch_add(1, Ordering::Relaxed);
        let mut state = shard.lock();
        // The schedule insert dirties the key shard; bumped under the
        // lock so exporters see bump and insert together.
        shard.tick.fetch_add(1, Ordering::Relaxed);
        if Self::cached(&state, key, session_key, delta).is_none() {
            state.schedules.entry(key).or_default().push(ScheduleEntry {
                key: Arc::clone(session_key),
                delta: delta.to_vec(),
                schedule: Arc::clone(&schedule),
            });
            state.memo_order.push_back(key);
            state.trim_schedules(self.schedule_cap);
        }
        Ok(schedule)
    }

    /// A snapshot of the service's cache counters and aggregate session
    /// statistics, summed over every shard.
    ///
    /// Shards are locked one at a time, so under concurrent traffic the
    /// aggregate is a consistent *per-shard* snapshot, not one instant of
    /// the whole service — the coherence identities
    /// (`hits + misses == lookups`, `live_sessions` equals the shard sum)
    /// still hold exactly once traffic quiesces.
    pub fn stats(&self) -> ServiceStats {
        let mut out = ServiceStats {
            revision_cache_hits: self.revision_cache_hits.load(Ordering::Relaxed),
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_interrupted: self.jobs_interrupted.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_shed: self.jobs_shed.load(Ordering::Relaxed),
            store_retries: self.store_retries.load(Ordering::Relaxed),
            quarantined_generations: self.quarantined_generations.load(Ordering::Relaxed),
            ..ServiceStats::default()
        };
        let sessions = &mut out.sessions;
        for shard in self.shards.iter() {
            out.lock_contentions += shard.contention.load(Ordering::Relaxed);
            let state = shard.lock();
            out.session_lookups += state.session_lookups;
            out.session_hits += state.session_hits;
            out.session_misses += state.session_misses;
            out.session_evictions += state.session_evictions;
            out.schedule_lookups += state.schedule_lookups;
            out.schedule_hits += state.schedule_hits;
            out.schedule_misses += state.schedule_misses;
            out.schedule_evictions += state.schedule_evictions;
            out.cached_schedules += state.schedules.values().map(|b| b.len() as u64).sum::<u64>();
            for bucket in state.sessions.values() {
                for entry in bucket {
                    let s = entry.session.stats();
                    sessions.skeleton_hits += s.skeleton_hits;
                    sessions.skeleton_misses += s.skeleton_misses;
                    sessions.delta_packs += s.delta_packs;
                    sessions.pruned_passes += s.pruned_passes;
                    sessions.prefix_hits += s.prefix_hits;
                    sessions.prefix_jobs_restored += s.prefix_jobs_restored;
                    sessions.max_prefix_depth = sessions.max_prefix_depth.max(s.max_prefix_depth);
                    sessions.evictions += s.evictions;
                    sessions.import_restored += s.import_restored;
                    sessions.import_dropped += s.import_dropped;
                    out.live_sessions += 1;
                }
            }
        }
        out
    }

    /// Per-shard occupancy, traffic and contention counters, in shard
    /// index order — the load harness's contention report, and the ground
    /// truth the stats-coherence property test sums against.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let contentions = shard.contention.load(Ordering::Relaxed);
                let state = shard.lock();
                ShardStats {
                    index,
                    live_sessions: state.session_count as u64,
                    cached_schedules: state.schedules.values().map(|b| b.len() as u64).sum::<u64>(),
                    session_lookups: state.session_lookups,
                    schedule_lookups: state.schedule_lookups,
                    contentions,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostWeights, MixedSignalSoc, PlanError, PlanReport, Planner, PlannerOptions};
    use crate::{SharingConfig, TableReport};

    fn quick_opts() -> PlannerOptions {
        PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() }
    }

    #[test]
    fn sessions_are_shared_across_planners_by_content() {
        let service = PlanService::new();
        let soc_a = MixedSignalSoc::d695m();
        let soc_b = MixedSignalSoc::d695m();
        let mut a = Planner::with_service(&soc_a, quick_opts(), &service);
        let mut b = Planner::with_service(&soc_b, quick_opts(), &service);
        a.makespan(&SharingConfig::all_shared(5), 16).unwrap();
        b.makespan(&SharingConfig::all_shared(5), 16).unwrap();
        let stats = service.stats();
        assert_eq!(stats.session_misses, 1, "same digital skeleton, one session: {stats:?}");
        assert_eq!(stats.session_hits, 1, "second planner must reuse it: {stats:?}");
        assert_eq!(stats.schedule_hits, 1, "second identical pack is a schedule hit: {stats:?}");
    }

    #[test]
    fn distinct_widths_or_efforts_get_distinct_sessions() {
        let service = PlanService::new();
        let soc = MixedSignalSoc::d695m();
        let all = SharingConfig::all_shared(5);
        let mut p = Planner::with_service(&soc, quick_opts(), &service);
        p.makespan(&all, 16).unwrap();
        p.makespan(&all, 24).unwrap();
        let mut std = Planner::with_service(&soc, PlannerOptions::default(), &service);
        std.makespan(&all, 16).unwrap();
        assert_eq!(service.stats().session_misses, 3);
        assert_eq!(service.stats().session_hits, 0);
    }

    /// A quick-effort single-width job on d695m.
    fn single(width: u32, weights: CostWeights) -> Job {
        JobBuilder::new(MixedSignalSoc::d695m())
            .single(width)
            .weights(weights)
            .opts(quick_opts())
            .build()
            .unwrap()
    }

    /// Submits `jobs` as one batch and unwraps each outcome's plan.
    fn plans(service: &PlanService, jobs: &[Job]) -> Vec<Result<PlanReport, PlanError>> {
        let plan = |outcome: JobOutcome| match outcome.into_result()?.result {
            JobResult::Plan(report) => Ok(report),
            other => panic!("single jobs return plans: {other:?}"),
        };
        service.submit(jobs).into_iter().map(plan).collect()
    }

    /// Submits one table job and unwraps its table.
    fn table(service: &PlanService, job: &Job) -> TableReport {
        match service.submit(std::slice::from_ref(job)).pop().unwrap().into_result() {
            Ok(JobReport { result: JobResult::Table(report), .. }) => report,
            other => panic!("expected a table, got {other:?}"),
        }
    }

    #[test]
    fn warm_service_replays_a_plan_from_the_schedule_cache() {
        let service = PlanService::new();
        let job = [single(16, CostWeights::balanced())];
        let cold = plans(&service, &job).remove(0).unwrap();
        let misses_after_cold = service.stats().schedule_misses;
        let warm = plans(&service, &job).remove(0).unwrap();
        assert_eq!(cold.best, warm.best);
        assert_eq!(cold.schedule, warm.schedule);
        let stats = service.stats();
        assert_eq!(
            stats.schedule_misses, misses_after_cold,
            "warm plan must not pack anything new: {stats:?}"
        );
        assert!(stats.schedule_hits > 0, "{stats:?}");
    }

    #[test]
    fn batches_match_individual_plans_and_report_in_order() {
        let service = PlanService::new();
        let jobs = [single(16, CostWeights::balanced()), single(24, CostWeights::time_heavy())];
        let batch = plans(&service, &jobs);
        assert_eq!(batch.len(), 2);
        let fresh = PlanService::new();
        for ((job, width), got) in jobs.iter().zip([16, 24]).zip(&batch) {
            let expect = plans(&fresh, std::slice::from_ref(job)).remove(0).unwrap();
            let got = got.as_ref().expect("batch plan succeeds");
            assert_eq!(got.best, expect.best);
            assert_eq!(got.tam_width, width);
        }
    }

    #[test]
    fn infeasible_requests_fail_without_poisoning_the_batch() {
        let service = PlanService::new();
        // Width 8 is too narrow for core D's 10-wire IIP3 test.
        let jobs = [single(8, CostWeights::balanced()), single(16, CostWeights::balanced())];
        let batch = plans(&service, &jobs);
        assert!(matches!(batch[0], Err(PlanError::Schedule(_))));
        assert!(batch[1].is_ok());
    }

    #[test]
    fn session_cache_lru_evicts_beyond_the_cap_and_stays_bit_identical() {
        // A cap-1 service holds at most one session per shard; more
        // distinct widths than shards guarantees (pigeonhole) that some
        // shard evicts. Evicted sessions are rebuilt cold on re-request,
        // and every schedule they serve is still bit-identical to an
        // uncached planner's.
        let service = PlanService::with_caps(SCHEDULE_CACHE_CAP, 1);
        let soc = MixedSignalSoc::d695m();
        let all = SharingConfig::all_shared(5);
        let widths: Vec<u32> = (11..11 + SHARDS as u32 + 2).collect();
        let mut first_pass: Vec<_> = Vec::new();
        {
            let mut p = Planner::with_service(&soc, quick_opts(), &service);
            for &w in &widths {
                first_pass.push(p.schedule_for(&all, w).unwrap().clone());
            }
        }
        let stats = service.stats();
        assert!(stats.session_evictions >= 2, "{stats:?}");
        assert!(stats.live_sessions as usize <= SHARDS, "{stats:?}");
        assert_eq!(stats.live_sessions + stats.session_evictions, widths.len() as u64, "{stats:?}");
        // Re-requesting an evicted width rebuilds the session; schedules
        // stay bit-identical to a fresh uncached planner everywhere.
        let fresh_soc = MixedSignalSoc::d695m();
        let mut fresh = Planner::with_options(&fresh_soc, quick_opts());
        for (&w, first) in widths.iter().zip(&first_pass) {
            let mut p = Planner::with_service(&soc, quick_opts(), &service);
            let via_service = p.schedule_for(&all, w).unwrap().clone();
            assert_eq!(&via_service, first, "warm/cold service diverged at w={w}");
            assert_eq!(via_service, *fresh.schedule_for(&all, w).unwrap(), "vs scratch at w={w}");
        }
    }

    /// Schedules `delta` on `session` the way a planner batch of one pair
    /// does: one counted lookup, then a pack on a miss.
    fn pack(service: &PlanService, session: &PackSession, delta: &[TestJob]) -> Arc<Schedule> {
        let fp = msoc_tam::fingerprint_jobs(delta);
        service
            .lookup(session, delta, fp, false)
            .unwrap_or_else(|| service.pack_miss(session, delta, fp).expect("feasible"))
    }

    /// A two-job skeleton, a one-job delta and two TAM widths whose
    /// sessions share a shard: with one session per shard, requesting the
    /// second evicts the first.
    fn shard_mates(effort: Effort) -> (Vec<TestJob>, Vec<TestJob>, u32, u32) {
        let point = |width, time| {
            msoc_wrapper::Staircase::from_points(vec![msoc_wrapper::StaircasePoint { width, time }])
        };
        let skeleton = vec![TestJob::new("d0", point(2, 100)), TestJob::new("d1", point(1, 80))];
        let delta = vec![TestJob::delta_in_group("a0", point(1, 40), 0)];
        let home = |w| shard_index(msoc_tam::session_fingerprint(w, effort, &skeleton));
        let first = 4;
        let second = (first + 1..).find(|&w| home(w) == home(first)).expect("a shard-mate");
        (skeleton, delta, first, second)
    }

    #[test]
    fn evicted_sessions_free_their_tries_while_their_schedules_still_hit() {
        let service = PlanService::with_caps(SCHEDULE_CACHE_CAP, 1);
        let effort = Effort::Quick;
        let (skeleton, delta, first, second) = shard_mates(effort);

        let session = service.session(first, effort, skeleton.clone(), false);
        let schedule = pack(&service, &session, &delta);
        drop(session);
        let other = service.session(second, effort, skeleton.clone(), false);
        pack(&service, &other, &delta);
        assert_eq!(service.stats().session_evictions, 1, "{:?}", service.stats());
        // The export names the evicted session by key only.
        let snapshot = service.export_snapshot();
        assert_eq!(snapshot.tries.iter().filter(|t| t.is_none()).count(), 1);

        // The cached schedule still answers a rebuilt session of equal
        // content, without packing.
        let rebuilt = service.session(first, effort, skeleton, false);
        let before = service.stats();
        assert_eq!(pack(&service, &rebuilt, &delta), schedule);
        let after = service.stats();
        assert_eq!(after.schedule_hits, before.schedule_hits + 1, "{after:?}");
        assert_eq!(rebuilt.stats().delta_packs, 0, "a hit packs nothing: {after:?}");
    }

    #[test]
    fn the_evicting_request_frees_an_unheld_session_inline() {
        let service = PlanService::with_caps(SCHEDULE_CACHE_CAP, 1);
        let effort = Effort::Quick;
        let (skeleton, delta, first, second) = shard_mates(effort);
        let session = service.session(first, effort, skeleton.clone(), false);
        pack(&service, &session, &delta);
        assert!(session.stats().skeleton_misses > 0, "the pack fills the trie");
        let probe = Arc::downgrade(&session);
        drop(session);
        assert!(probe.upgrade().is_some(), "the session cache holds the session");

        let _other = service.session(second, effort, skeleton, false);
        assert_eq!(service.stats().session_evictions, 1, "{:?}", service.stats());
        assert!(
            probe.upgrade().is_none(),
            "no planner holds the evicted session, so its request must free it, trie included"
        );
    }

    #[test]
    fn roomy_session_cap_never_evicts() {
        let service = PlanService::new();
        let soc = MixedSignalSoc::d695m();
        let mut p = Planner::with_service(&soc, quick_opts(), &service);
        for w in [16, 20, 24, 32] {
            p.makespan(&SharingConfig::all_shared(5), w).unwrap();
        }
        assert_eq!(service.stats().session_evictions, 0, "{:?}", service.stats());
    }

    #[test]
    fn table_front_end_matches_a_direct_planner_table() {
        let service = PlanService::new();
        let soc = MixedSignalSoc::d695m();
        let job = JobBuilder::new(soc.clone())
            .table(vec![16, 24])
            .weights(CostWeights::balanced())
            .opts(quick_opts())
            .build()
            .unwrap();
        let via_service = table(&service, &job);
        let mut direct = Planner::with_options(&soc, quick_opts());
        let configs = direct.candidates();
        let expect = direct.plan_table(&configs, &[16, 24], CostWeights::balanced()).unwrap();
        assert_eq!(via_service, expect);
        // A second request replays from the shared caches, same result.
        let replay = table(&service, &job);
        assert_eq!(replay, expect);
        assert!(service.stats().schedule_hits > 0, "{:?}", service.stats());
    }

    #[test]
    fn malformed_table_requests_error_without_poisoning_the_batch() {
        let service = PlanService::new();
        let builder = |widths: Vec<u32>| {
            JobBuilder::new(MixedSignalSoc::d695m())
                .table(widths)
                .weights(CostWeights::balanced())
                .opts(quick_opts())
        };
        let no_widths = builder(vec![]).build();
        let dup_widths = builder(vec![16, 16]).build();
        let no_configs = builder(vec![16, 24]).configs(vec![]).build();
        for rejected in [no_widths, dup_widths, no_configs] {
            assert!(matches!(rejected, Err(PlanError::InvalidRequest(_))), "{rejected:?}");
        }
        let good = builder(vec![16, 24]).build().expect("the well-formed request still builds");
        let ok = table(&service, &good);
        assert_eq!(ok, table(&PlanService::new(), &good));
    }

    #[test]
    fn schedule_cache_evicts_beyond_the_cap_without_changing_results() {
        // Cap 1 = one schedule per shard; the planner's full candidate
        // enumeration (26 configs) outnumbers the shards, so eviction is
        // guaranteed by pigeonhole.
        let service = PlanService::with_caps(1, SESSION_CACHE_CAP);
        let soc = MixedSignalSoc::d695m();
        let mut p = Planner::with_service(&soc, quick_opts(), &service);
        let configs: Vec<SharingConfig> = p.candidates();
        assert!(configs.len() > SHARDS);
        for c in &configs {
            p.makespan(c, 16).unwrap();
        }
        let stats = service.stats();
        assert!(stats.schedule_evictions > 0, "{stats:?}");
        assert!(stats.cached_schedules as usize <= SHARDS, "{stats:?}");
        // Evicted entries re-pack to the same result.
        let fresh_soc = MixedSignalSoc::d695m();
        let mut fresh = Planner::with_options(&fresh_soc, quick_opts());
        for c in &configs {
            let mut p2 = Planner::with_service(&soc, quick_opts(), &service);
            assert_eq!(p2.makespan(c, 16).unwrap(), fresh.makespan(c, 16).unwrap());
        }
    }
}
