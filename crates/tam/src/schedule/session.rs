//! Incremental pack sessions: share one packed digital skeleton across a
//! sweep of candidate configurations.
//!
//! A wrapper-sharing sweep evaluates ~26 candidate configurations per TAM
//! width, and every candidate's scheduling problem contains the *same*
//! digital jobs — only the analog wrapper grouping changes. A
//! [`PackSession`] captures that structure: it owns the sweep-invariant
//! *skeleton* jobs, packs each skeleton ordering exactly once into an
//! anchor checkpoint (placed entries + the skyline capacity index), and lets
//! every candidate *delta-pack* its per-configuration jobs on a restored
//! snapshot. Session packs are **bit-identical** to from-scratch
//! [`schedule_with_engine`](super::schedule_with_engine) calls on the
//! combined problem — from-scratch scheduling routes through a transient
//! session internally — and the session exposes hit/miss/prune counters so
//! harnesses can assert the reuse actually happens.
//!
//! ```
//! use msoc_tam::{Effort, PackSession, TestJob};
//! use msoc_wrapper::{Staircase, StaircasePoint};
//!
//! let point = |w, t| Staircase::from_points(vec![StaircasePoint { width: w, time: t }]);
//! let skeleton = vec![TestJob::new("d0", point(2, 100)), TestJob::new("d1", point(2, 80))];
//! let session = PackSession::new(4, skeleton, Effort::Quick);
//! let a = session.pack(&[TestJob::delta_in_group("t0", point(1, 30), 0)])?;
//! let b = session.pack(&[TestJob::delta_in_group("t1", point(1, 40), 0)])?;
//! assert!(a.makespan() >= 100 && b.makespan() >= 100);
//! assert!(session.stats().skeleton_hits > 0, "second pack reuses the skeleton");
//! # Ok::<(), msoc_tam::ScheduleError>(())
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::problem::{JobKind, TestJob};

use super::search::{CheckpointImportStats, SessionCore, TrieExport};
use super::skyline::SkylineIndex;
use super::{Effort, Schedule, ScheduleError};

/// Shared atomic counters behind [`SessionStats`].
#[derive(Debug, Default)]
pub(crate) struct SessionCounters {
    pub(crate) skeleton_hits: AtomicU64,
    pub(crate) skeleton_misses: AtomicU64,
    pub(crate) delta_packs: AtomicU64,
    pub(crate) pruned_passes: AtomicU64,
    pub(crate) prefix_hits: AtomicU64,
    pub(crate) prefix_jobs_restored: AtomicU64,
    pub(crate) max_prefix_depth: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) import_restored: AtomicU64,
    pub(crate) import_dropped: AtomicU64,
}

/// A snapshot of a session's reuse counters.
///
/// `skeleton_misses` counts skeleton orderings actually packed;
/// `skeleton_hits` counts checkpoint lookups served from the cache (the
/// *reuses* the session exists for). The `prefix_*` counters cover the
/// delta-prefix trie: a prefix hit restores a checkpoint *deeper* than the
/// bare skeleton — packed delta jobs shared with an earlier candidate —
/// and `prefix_jobs_restored`/`max_prefix_depth` record how many delta
/// placements those hits skipped (total and per-restore maximum).
/// `pruned_passes` counts delta passes abandoned by the incumbent
/// lower-bound prune; `evictions` counts checkpoints dropped by the LRU
/// cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Skeleton checkpoint lookups served from the cache.
    pub skeleton_hits: u64,
    /// Skeleton orderings packed from scratch (cache misses).
    pub skeleton_misses: u64,
    /// Completed delta packs (one per candidate configuration).
    pub delta_packs: u64,
    /// Delta passes abandoned by the lower-bound prune.
    pub pruned_passes: u64,
    /// Restores that went deeper than the skeleton: delta placements
    /// shared with an earlier candidate were skipped.
    pub prefix_hits: u64,
    /// Total delta placements skipped by prefix restores.
    pub prefix_jobs_restored: u64,
    /// Deepest single prefix restore, in delta placements.
    pub max_prefix_depth: u64,
    /// Checkpoints evicted by the LRU cap.
    pub evictions: u64,
    /// Checkpoints restored by [`PackSession::import_checkpoints`]
    /// (each one re-packed and verified against its persisted placement).
    pub import_restored: u64,
    /// Exported checkpoints an import dropped because they did not equal
    /// the deterministic re-pack of their own prefix (or their structure
    /// was malformed).
    pub import_dropped: u64,
}

impl SessionCounters {
    pub(crate) fn snapshot(&self) -> SessionStats {
        SessionStats {
            skeleton_hits: self.skeleton_hits.load(Ordering::Relaxed),
            skeleton_misses: self.skeleton_misses.load(Ordering::Relaxed),
            delta_packs: self.delta_packs.load(Ordering::Relaxed),
            pruned_passes: self.pruned_passes.load(Ordering::Relaxed),
            prefix_hits: self.prefix_hits.load(Ordering::Relaxed),
            prefix_jobs_restored: self.prefix_jobs_restored.load(Ordering::Relaxed),
            max_prefix_depth: self.max_prefix_depth.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            import_restored: self.import_restored.load(Ordering::Relaxed),
            import_dropped: self.import_dropped.load(Ordering::Relaxed),
        }
    }
}

/// The immutable content of a pack session: TAM width, effort and the
/// (kind-normalized) skeleton jobs, plus their fingerprint — everything
/// that determines the packed result of any delta, and nothing the session
/// accumulates.
///
/// A [`PackSession`] owns one behind an `Arc` and hands it out through
/// [`PackSession::key`], so a cache entry that only needs to *name* a
/// session (to verify a hit or rebuild [`Self::problem_for`]) can hold the
/// key without keeping the session's checkpoint trie alive.
///
/// Equality is full content equality, answered by pointer identity when
/// both sides are the same key and by the fingerprint when they differ;
/// hashing feeds only the fingerprint.
#[derive(Debug, Clone)]
pub struct SessionKey {
    fingerprint: u64,
    tam_width: u32,
    effort: Effort,
    skeleton: Vec<TestJob>,
}

impl SessionKey {
    /// The key of a session for `skeleton` at the given TAM width and
    /// effort.
    ///
    /// The skeleton jobs' [`JobKind`] is normalized to
    /// [`JobKind::Skeleton`]: the session *defines* them as the invariant
    /// part, and the normalization keeps [`Self::problem_for`] consistent
    /// with the session split.
    pub fn new(tam_width: u32, mut skeleton: Vec<TestJob>, effort: Effort) -> Self {
        for job in &mut skeleton {
            job.kind = JobKind::Skeleton;
        }
        let fingerprint = crate::session_fingerprint(tam_width, effort, &skeleton);
        SessionKey { fingerprint, tam_width, effort, skeleton }
    }

    /// Stable content fingerprint: skeleton jobs, TAM width and effort.
    /// Two keys with equal fingerprints (and equal content, which
    /// callers keyed on the fingerprint must verify) name interchangeable
    /// sessions, which is what lets a plan service share sessions across
    /// planner instances.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The sweep-invariant skeleton jobs.
    pub fn skeleton(&self) -> &[TestJob] {
        &self.skeleton
    }

    /// TAM width the session packs for.
    pub fn tam_width(&self) -> u32 {
        self.tam_width
    }

    /// Effort level of every pack in the session.
    pub fn effort(&self) -> Effort {
        self.effort
    }

    /// The combined [`ScheduleProblem`] a delta pack solves: the skeleton
    /// jobs followed by `delta` (kinds normalized), at the session width.
    ///
    /// [`ScheduleProblem`]: crate::ScheduleProblem
    pub fn problem_for(&self, delta: &[TestJob]) -> crate::ScheduleProblem {
        let mut jobs = self.skeleton.clone();
        jobs.extend(delta.iter().cloned().map(|mut job| {
            job.kind = JobKind::Delta;
            job
        }));
        crate::ScheduleProblem { tam_width: self.tam_width, jobs }
    }
}

impl PartialEq for SessionKey {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
            || (self.fingerprint == other.fingerprint
                && self.tam_width == other.tam_width
                && self.effort == other.effort
                && self.skeleton == other.skeleton)
    }
}

impl Eq for SessionKey {}

impl std::hash::Hash for SessionKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

/// An incremental pack session (see the module docs).
///
/// Packing takes `&self` — the skeleton-checkpoint cache is internally
/// synchronized — so a sweep can fan candidate delta-packs out across
/// threads while they share one session.
pub struct PackSession {
    core: SessionCore<SkylineIndex>,
    counters: SessionCounters,
}

impl std::fmt::Debug for PackSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let key = self.key();
        f.debug_struct("PackSession")
            .field("tam_width", &key.tam_width)
            .field("skeleton_jobs", &key.skeleton.len())
            .field("effort", &key.effort)
            .field("stats", &self.stats())
            .finish()
    }
}

impl PackSession {
    /// Creates a session for `skeleton` (the sweep-invariant jobs) at the
    /// given TAM width and effort (see [`SessionKey::new`]).
    pub fn new(tam_width: u32, skeleton: Vec<TestJob>, effort: Effort) -> Self {
        Self::from_key(Arc::new(SessionKey::new(tam_width, skeleton, effort)))
    }

    /// A fresh session (empty checkpoint trie) for an existing key.
    pub fn from_key(key: Arc<SessionKey>) -> Self {
        Self::with_key_and_cap(key, super::search::CHECKPOINT_CACHE_CAP)
    }

    /// [`Self::new`] with an explicit checkpoint-cache capacity.
    ///
    /// The cap bounds how many packed checkpoints (skeleton-run anchors
    /// plus logged delta-prefix steps) the session retains; above it the least
    /// recently used checkpoint is evicted (counted in
    /// [`SessionStats::evictions`]). Results never depend on the cap — an
    /// evicted checkpoint is simply re-packed on its next use — so even a
    /// cap of 1 stays bit-identical, just slower.
    pub fn with_checkpoint_cap(
        tam_width: u32,
        skeleton: Vec<TestJob>,
        effort: Effort,
        cap: usize,
    ) -> Self {
        Self::with_key_and_cap(Arc::new(SessionKey::new(tam_width, skeleton, effort)), cap)
    }

    fn with_key_and_cap(key: Arc<SessionKey>, cap: usize) -> Self {
        let core = SessionCore::with_checkpoint_cap(key, cap);
        PackSession { core, counters: SessionCounters::default() }
    }

    /// The session's immutable content, shared (see [`SessionKey`]).
    pub fn key(&self) -> &Arc<SessionKey> {
        self.core.key()
    }

    /// Pre-packs the base multi-start skeleton checkpoints (idempotent).
    ///
    /// Call this once before fanning candidate [`Self::pack`] calls out
    /// across threads: a cold cache would otherwise let the first wave of
    /// concurrent packs each re-pack the same base orderings. The missing
    /// checkpoints themselves are packed in parallel.
    pub fn warm(&self) {
        self.core.warm(&self.counters);
    }

    /// Delta-packs one candidate: the session skeleton plus `delta`.
    ///
    /// Job indices in the returned schedule address the combined
    /// `skeleton ++ delta` list, i.e. the jobs of [`SessionKey::problem_for`].
    /// The result is bit-identical to
    /// [`schedule_with_effort`](super::schedule_with_effort) on that
    /// problem with the session's effort.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::JobTooWide`] when a skeleton or delta job
    /// cannot fit the TAM at any of its staircase points.
    pub fn pack(&self, delta: &[TestJob]) -> Result<Schedule, ScheduleError> {
        self.core.pack(delta, &self.counters)
    }

    /// Exports the session's checkpoint trie for persistence: the kept
    /// trie paths, each step's interned `(job position, job content)`
    /// pair and the placement it committed, in deterministic order.
    ///
    /// The export is plain data — a snapshot codec compresses it — and
    /// feeds [`Self::import_checkpoints`] on a session with the same
    /// [`SessionKey`]. A session without stored checkpoints exports
    /// `None`, the same empty export a cold snapshot record carries.
    pub fn export_checkpoints(&self) -> Option<TrieExport> {
        Some(self.core.export_trie()).filter(|trie| !trie.nodes.is_empty())
    }

    /// Imports an exported checkpoint trie, *verifying every step*: each
    /// node is re-packed deterministically on its parent's restored state,
    /// and a node whose recomputed placement disagrees with the persisted
    /// one is dropped with its whole subtree (counted in
    /// [`CheckpointImportStats::dropped`] and
    /// [`SessionStats::import_dropped`]). A restored checkpoint is
    /// therefore always the deterministic pack of its own prefix — imports
    /// can make a session *faster*, never *different*.
    ///
    /// Checkpoints are committed in the export's LRU order, so a restored
    /// session evicts in the order the exporting one would have. An empty
    /// export restores nothing.
    pub fn import_checkpoints(&self, trie: &TrieExport) -> CheckpointImportStats {
        let (restored, dropped) = self.core.import_trie(trie);
        self.counters.import_restored.fetch_add(restored, Ordering::Relaxed);
        self.counters.import_dropped.fetch_add(dropped, Ordering::Relaxed);
        CheckpointImportStats { restored, dropped }
    }

    /// A snapshot of the session's reuse counters.
    pub fn stats(&self) -> SessionStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{schedule_with_engine, Effort, Engine};
    use super::*;
    use msoc_wrapper::{Staircase, StaircasePoint};

    fn single(width: u32, time: u64) -> Staircase {
        Staircase::from_points(vec![StaircasePoint { width, time }])
    }

    fn skeleton() -> Vec<TestJob> {
        vec![
            TestJob::new("d0", single(3, 120)),
            TestJob::new("d1", single(2, 90)),
            TestJob::new(
                "d2",
                Staircase::from_points(vec![
                    StaircasePoint { width: 1, time: 200 },
                    StaircasePoint { width: 2, time: 100 },
                    StaircasePoint { width: 4, time: 55 },
                ]),
            ),
        ]
    }

    fn deltas() -> Vec<Vec<TestJob>> {
        vec![
            vec![
                TestJob::delta_in_group("a0", single(1, 40), 0),
                TestJob::delta_in_group("a1", single(1, 25), 0),
                TestJob::delta_in_group("a2", single(2, 30), 1),
            ],
            vec![
                TestJob::delta_in_group("a0", single(1, 40), 0),
                TestJob::delta_in_group("a1", single(1, 25), 1),
                TestJob::delta_in_group("a2", single(2, 30), 1),
            ],
            vec![
                TestJob::delta_in_group("a0", single(1, 40), 0),
                TestJob::delta_in_group("a1", single(1, 25), 0),
                TestJob::delta_in_group("a2", single(2, 30), 0),
            ],
        ]
    }

    /// The naive reference engine's from-scratch schedule of `problem`.
    fn oracle(problem: &crate::ScheduleProblem, effort: Effort) -> Schedule {
        schedule_with_engine(problem, effort, Engine::Naive).expect("feasible")
    }

    #[test]
    fn session_packs_match_from_scratch_for_every_engine() {
        for effort in [Effort::Quick, Effort::Standard] {
            let session = PackSession::new(6, skeleton(), effort);
            for delta in deltas() {
                let via_session = session.pack(&delta).expect("feasible");
                let problem = session.key().problem_for(&delta);
                assert_eq!(via_session, oracle(&problem, effort), "session diverged ({effort:?})");
                via_session.validate(&problem).expect("session schedule must validate");
            }
        }
    }

    #[test]
    fn skeleton_checkpoints_are_reused_across_candidates() {
        let session = PackSession::new(6, skeleton(), Effort::Standard);
        for delta in deltas() {
            session.pack(&delta).expect("feasible");
        }
        let stats = session.stats();
        assert_eq!(stats.delta_packs, 3);
        assert!(stats.skeleton_hits > 0, "later candidates must hit the cache: {stats:?}");
        assert!(
            stats.skeleton_hits > stats.skeleton_misses,
            "reuse should dominate packing: {stats:?}"
        );
    }

    #[test]
    fn prefix_trie_restores_shared_delta_prefixes() {
        // Candidates 1 and 3 of `deltas()` share the grouping of their
        // first jobs; once candidate 1's phase passes have snapshotted
        // their delta steps, candidate 3 must restore past the skeleton.
        let session = PackSession::new(6, skeleton(), Effort::Standard);
        for delta in deltas() {
            session.pack(&delta).expect("feasible");
        }
        let stats = session.stats();
        assert!(stats.prefix_hits > 0, "delta prefixes must be restored: {stats:?}");
        assert!(stats.prefix_jobs_restored > 0, "{stats:?}");
        assert!(stats.max_prefix_depth > 0, "{stats:?}");
        assert!(stats.max_prefix_depth <= 3, "a restore cannot exceed the delta length: {stats:?}");
    }

    #[test]
    fn lru_eviction_exceeding_the_cap_stays_bit_identical_and_is_counted() {
        // A cap of 2 cannot even hold one candidate's snapshots, so the
        // sweep churns through evictions — and every pack must still be
        // bit-identical to the from-scratch schedule (evicted checkpoints
        // are simply re-packed).
        let session = PackSession::with_checkpoint_cap(6, skeleton(), Effort::Standard, 2);
        for round in 0..2 {
            for delta in deltas() {
                let via_session = session.pack(&delta).expect("feasible");
                let problem = session.key().problem_for(&delta);
                let scratch = oracle(&problem, Effort::Standard);
                assert_eq!(via_session, scratch, "capped session diverged (round {round})");
            }
        }
        let stats = session.stats();
        assert!(stats.evictions > 0, "cap 2 must evict: {stats:?}");
        // An uncapped run of the same sweep evicts nothing.
        let roomy = PackSession::new(6, skeleton(), Effort::Standard);
        for delta in deltas() {
            roomy.pack(&delta).expect("feasible");
        }
        assert_eq!(roomy.stats().evictions, 0, "{:?}", roomy.stats());
    }

    #[test]
    fn fingerprints_key_on_every_session_parameter() {
        let base = PackSession::new(6, skeleton(), Effort::Quick);
        let same = PackSession::new(6, skeleton(), Effort::Quick);
        assert_eq!(base.key().fingerprint(), same.key().fingerprint());
        let widths = PackSession::new(7, skeleton(), Effort::Quick);
        let efforts = PackSession::new(6, skeleton(), Effort::Standard);
        let mut other_jobs = skeleton();
        other_jobs.pop();
        let jobs = PackSession::new(6, other_jobs, Effort::Quick);
        for (name, s) in [("width", widths), ("effort", efforts), ("jobs", jobs)] {
            assert_ne!(
                base.key().fingerprint(),
                s.key().fingerprint(),
                "{name} must feed the fingerprint"
            );
        }
    }

    #[test]
    fn empty_skeleton_and_empty_delta_degenerate_cleanly() {
        let session = PackSession::new(8, Vec::new(), Effort::Quick);
        assert_eq!(session.pack(&[]).expect("empty is feasible").makespan(), 0);
        let only_delta = vec![TestJob::delta("t", single(2, 50))];
        assert_eq!(session.pack(&only_delta).expect("feasible").makespan(), 50);
    }

    #[test]
    fn checkpoint_roundtrip_restores_prefix_reuse_without_rebuild_packs() {
        let warm = PackSession::new(6, skeleton(), Effort::Standard);
        let baselines: Vec<Schedule> =
            deltas().iter().map(|d| warm.pack(d).expect("feasible")).collect();
        let export = warm.export_checkpoints().expect("a packed session must export checkpoints");
        assert!(export.checkpoint_count() > 0, "a packed session must export checkpoints");

        let restored = PackSession::new(6, skeleton(), Effort::Standard);
        let stats = restored.import_checkpoints(&export);
        assert!(stats.restored > 0, "import must restore checkpoints");
        assert_eq!(stats.dropped, 0, "a faithful export drops nothing");
        let before = restored.stats();
        for (delta, baseline) in deltas().iter().zip(&baselines) {
            let replay = restored.pack(delta).expect("feasible");
            assert_eq!(&replay, baseline, "imported replay diverged");
            let problem = restored.key().problem_for(delta);
            assert_eq!(
                replay,
                oracle(&problem, Effort::Standard),
                "imported replay left the oracle"
            );
        }
        let after = restored.stats();
        assert_eq!(
            after.skeleton_misses, before.skeleton_misses,
            "imported replay must re-pack zero skeleton orderings: {after:?}"
        );
        assert!(
            after.prefix_hits > before.prefix_hits,
            "imported replay must restore delta prefixes: {after:?}"
        );
    }

    #[test]
    fn checkpoint_export_is_stable_across_a_roundtrip() {
        let warm = PackSession::new(6, skeleton(), Effort::Standard);
        for delta in deltas() {
            warm.pack(&delta).expect("feasible");
        }
        let first = warm.export_checkpoints();
        let restored = PackSession::new(6, skeleton(), Effort::Standard);
        restored.import_checkpoints(first.as_ref().expect("a packed session exports a trie"));
        let second = restored.export_checkpoints();
        assert_eq!(first, second, "export → import → export must be a fixed point");
    }

    #[test]
    fn tampered_checkpoint_placements_are_dropped_not_trusted() {
        let warm = PackSession::new(6, skeleton(), Effort::Standard);
        let baselines: Vec<Schedule> =
            deltas().iter().map(|d| warm.pack(d).expect("feasible")).collect();
        let mut export = warm.export_checkpoints().expect("a packed session exports a trie");
        // Shift the first persisted placement: the re-pack of that prefix
        // now disagrees, so the node and its whole subtree must go.
        export.nodes[0].start += 1;
        let restored = PackSession::new(6, skeleton(), Effort::Standard);
        let stats = restored.import_checkpoints(&export);
        assert!(stats.dropped > 0, "a tampered placement must be dropped: {stats:?}");
        assert_eq!(restored.stats().import_dropped, stats.dropped);
        // Dropped checkpoints cost reuse, never correctness.
        for (delta, baseline) in deltas().iter().zip(&baselines) {
            assert_eq!(&restored.pack(delta).expect("feasible"), baseline);
        }
    }

    #[test]
    fn starved_checkpoint_cap_exports_and_imports_without_error() {
        let starved = PackSession::with_checkpoint_cap(6, skeleton(), Effort::Standard, 2);
        for delta in deltas() {
            starved.pack(&delta).expect("feasible");
        }
        let export = starved.export_checkpoints().unwrap_or_default();
        assert!(export.checkpoint_count() <= 2, "the cap bounds the export");
        let restored = PackSession::with_checkpoint_cap(6, skeleton(), Effort::Standard, 2);
        let stats = restored.import_checkpoints(&export);
        assert_eq!(stats.dropped, 0, "{stats:?}");
        assert_eq!(stats.restored as usize, export.checkpoint_count());
        for delta in deltas() {
            restored.pack(&delta).expect("feasible");
        }
    }

    #[test]
    fn too_wide_delta_job_reports_combined_index() {
        let session = PackSession::new(4, skeleton(), Effort::Quick);
        let delta = vec![TestJob::delta("wide", single(9, 10))];
        match session.pack(&delta) {
            Err(ScheduleError::JobTooWide { job, min_width: 9, tam_width: 4 }) => {
                assert_eq!(job, 3, "delta indices follow the skeleton");
            }
            other => panic!("expected JobTooWide, got {other:?}"),
        }
    }
}
