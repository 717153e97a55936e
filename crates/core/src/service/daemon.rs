//! The crash-safe snapshot daemon: differential, content-addressed,
//! bounded-staleness export of a [`PlanService`]'s warm state into any
//! [`SnapshotStore`], plus boot-time recovery that quarantines torn or
//! tampered generations and boots from the newest intact one.
//!
//! # Export loop
//!
//! [`SnapshotDaemon::poll`] is the whole daemon: call it from a timer, a
//! request-count hook, or a loop — the daemon itself never spawns a
//! thread, so its behavior is deterministic and testable.
//!
//! * **Differential**: nothing happens unless
//!   [`PlanService::session_ticks`] advanced since the last generation —
//!   the cheap, lock-free "did anything warm up?" signal.
//! * **Bounded staleness**: small advances may be deferred
//!   ([`DaemonConfig::min_dirty_ticks`]) to batch churny traffic, but
//!   never longer than [`DaemonConfig::max_staleness`] — a dirty service
//!   is persisted within the bound or the attempt is on record as a
//!   failure.
//! * **Content-addressed**: the blob name embeds the FNV-1a hash of the
//!   v2 bytes ([`blob_name`]), so a tick advance that did not change the
//!   exportable content (pure cache hits) is skipped for free — equal
//!   bytes, equal name, nothing to write.
//! * **Retry/backoff**: store failures are retried up to
//!   [`DaemonConfig::max_attempts`] times under capped exponential
//!   backoff with deterministic jitter; every persisted generation is
//!   read back and re-hashed ([`DaemonConfig::verify_reads`]), so even a
//!   backend that *silently* corrupts accepted writes eventually holds
//!   an intact copy or the export is reported failed — never trusted.
//! * **Pruning**: after each persisted generation the oldest ones beyond
//!   [`DaemonConfig::keep_generations`] are removed (best-effort; a
//!   failed prune is counted, not fatal).
//!
//! # Recovery
//!
//! [`recover`] walks generations newest-first. A blob whose bytes do not
//! re-hash to the name's content hash, or that fails the v2 decoder's
//! structured verification ([`SnapshotError`](super::SnapshotError)), is
//! **quarantined** (renamed aside so the next boot skips it) and the
//! walk continues; the newest intact generation boots a warm service
//! whose replay is bit-identical to the exporter at that generation.
//! With no intact generation, recovery degrades to a cold service — the
//! one outcome that is always available.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use super::snapshot::{fnv, ExportCache, SectionSizes};
use super::store::{blob_name, draw, parse_blob_name, SnapshotStore, StoreError};
use super::{PlanService, ServiceSnapshot};

/// Tuning of a [`SnapshotDaemon`] (start from `Default` and override).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Generations kept in the store; older ones are pruned after each
    /// successful export (at least 1).
    pub keep_generations: usize,
    /// Attempts per export (first try + retries) before the export is
    /// reported as [`ExportOutcome::GaveUp`] (at least 1).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base_backoff * 2^(n-1)`, capped at
    /// [`max_backoff`](Self::max_backoff), plus jitter of up to half the
    /// capped value. `Duration::ZERO` disables sleeping (tests).
    pub base_backoff: Duration,
    /// Upper bound of the exponential backoff (before jitter).
    pub max_backoff: Duration,
    /// Defer exporting until at least this many session ticks are dirty
    /// (batches churny traffic; 1 = export on any advance)...
    pub min_dirty_ticks: u64,
    /// ...but never defer a dirty service longer than this.
    pub max_staleness: Duration,
    /// Seed of the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Read every persisted generation back and verify its content hash
    /// before trusting it (catches silent backend corruption at write
    /// time instead of at the next boot).
    pub verify_reads: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            keep_generations: 4,
            max_attempts: 12,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            min_dirty_ticks: 1,
            max_staleness: Duration::from_secs(30),
            jitter_seed: 0x5EED_DAE3_0115_0001,
            verify_reads: true,
        }
    }
}

/// Counters of one daemon's lifetime (all monotone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DaemonStats {
    /// Calls to [`SnapshotDaemon::poll`] / [`export_now`](SnapshotDaemon::export_now).
    pub polls: u64,
    /// Polls that found the service clean (no tick advance).
    pub clean_polls: u64,
    /// Polls deferred inside the staleness bound.
    pub deferred_polls: u64,
    /// Exports skipped because the content hash matched the newest
    /// persisted generation (the content-addressing dividend).
    pub unchanged_skips: u64,
    /// Generations durably persisted (verified when
    /// [`DaemonConfig::verify_reads`]).
    pub exports_persisted: u64,
    /// Exports abandoned after [`DaemonConfig::max_attempts`] attempts.
    pub exports_failed: u64,
    /// Store attempts retried after a backed-off failure.
    pub put_retries: u64,
    /// Total backoff slept across all retries.
    pub backoff_total: Duration,
    /// Old generations pruned.
    pub pruned_generations: u64,
    /// Service shards served from the differential export cache instead
    /// of being re-walked, summed over all exports (see
    /// [`ExportCache`](super::ExportCache)).
    pub shard_exports_reused: u64,
    /// Prune/list attempts that failed (best-effort, non-fatal).
    pub prune_failures: u64,
    /// The newest generation number this daemon persisted.
    pub last_generation: Option<u64>,
}

/// What one [`SnapshotDaemon::poll`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportOutcome {
    /// The service has not advanced since the last generation.
    Clean,
    /// The service is dirty, but within the staleness bound — deferred
    /// to batch more traffic.
    Deferred {
        /// Session ticks accumulated since the last generation.
        dirty_ticks: u64,
    },
    /// The service advanced but its exportable content is unchanged
    /// (byte-identical to the newest generation) — nothing written.
    Unchanged,
    /// A new generation was durably persisted.
    Persisted {
        /// The generation number (embedded in the blob name).
        generation: u64,
        /// Attempts spent (1 = first try succeeded).
        attempts: u32,
        /// Size of the persisted v2 snapshot.
        bytes: usize,
        /// Per-section byte accounting of the persisted encoding.
        sections: SectionSizes,
    },
    /// Every attempt failed; the service stays dirty and the next poll
    /// retries from scratch.
    GaveUp {
        /// The generation number that could not be persisted.
        generation: u64,
        /// Attempts spent.
        attempts: u32,
        /// The final attempt's error.
        error: StoreError,
    },
}

/// The crash-safe export daemon (see the module docs).
///
/// Borrow a service and a store, then drive [`poll`](Self::poll):
///
/// ```
/// use msoc_core::service::{MemStore, SnapshotDaemon};
/// use msoc_core::PlanService;
///
/// let service = PlanService::new();
/// let store = MemStore::new();
/// let mut daemon = SnapshotDaemon::new(&service, &store);
/// // ... traffic ...
/// daemon.poll(); // persists iff the service warmed up since last poll
/// ```
#[derive(Debug)]
pub struct SnapshotDaemon<'a, S: SnapshotStore> {
    service: &'a PlanService,
    store: S,
    config: DaemonConfig,
    /// Service tick at the newest generation (`None` = never exported).
    last_tick: Option<u64>,
    /// Content hash of the newest generation.
    last_hash: Option<u64>,
    /// Next generation number to assign (resumes past the store's
    /// newest on attach).
    next_generation: u64,
    /// When the service first went dirty after the last generation.
    dirty_since: Option<Instant>,
    /// Jitter stream.
    rng: u64,
    /// Differential export state: clean shards re-export from here.
    cache: ExportCache,
    stats: DaemonStats,
}

impl<'a, S: SnapshotStore> SnapshotDaemon<'a, S> {
    /// A daemon with the default [`DaemonConfig`].
    pub fn new(service: &'a PlanService, store: S) -> Self {
        SnapshotDaemon::with_config(service, store, DaemonConfig::default())
    }

    /// A daemon with an explicit configuration. Attaching scans the
    /// store (best-effort) so generation numbers continue past the
    /// newest persisted one and an unchanged warm state is recognized
    /// from the newest name's content hash without reading any blob.
    pub fn with_config(service: &'a PlanService, store: S, config: DaemonConfig) -> Self {
        let (next_generation, last_hash) = match store.list() {
            Ok(names) => match names.iter().filter_map(|n| parse_blob_name(n)).max() {
                Some((generation, hash)) => (generation + 1, Some(hash)),
                None => (1, None),
            },
            Err(_) => (1, None),
        };
        SnapshotDaemon {
            service,
            store,
            rng: config.jitter_seed ^ 0x9E37_79B9_7F4A_7C15,
            config,
            last_tick: None,
            last_hash,
            next_generation,
            dirty_since: None,
            cache: ExportCache::new(),
            stats: DaemonStats::default(),
        }
    }

    /// The store the daemon writes through.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DaemonStats {
        self.stats
    }

    /// One daemon step: export-if-dirty under the bounded-staleness
    /// policy (see the module docs).
    pub fn poll(&mut self) -> ExportOutcome {
        self.stats.polls += 1;
        let tick = self.service.session_ticks();
        // Tick 0 = the service never saw a session request; there is
        // nothing worth persisting yet.
        if tick == 0 || self.last_tick == Some(tick) {
            self.dirty_since = None;
            self.stats.clean_polls += 1;
            return ExportOutcome::Clean;
        }
        let since = *self.dirty_since.get_or_insert_with(Instant::now);
        let dirty_ticks = tick.saturating_sub(self.last_tick.unwrap_or(0));
        if dirty_ticks < self.config.min_dirty_ticks && since.elapsed() < self.config.max_staleness
        {
            self.stats.deferred_polls += 1;
            return ExportOutcome::Deferred { dirty_ticks };
        }
        self.export(tick)
    }

    /// Exports immediately, bypassing the staleness policy (still skips
    /// byte-identical content). The crash-consistent flush for graceful
    /// shutdown.
    pub fn export_now(&mut self) -> ExportOutcome {
        self.stats.polls += 1;
        self.export(self.service.session_ticks())
    }

    fn export(&mut self, tick: u64) -> ExportOutcome {
        let (snapshot, reused) = self.service.export_snapshot_with_cache(&mut self.cache);
        self.stats.shard_exports_reused += reused as u64;
        let (bytes, sections) = snapshot.to_bytes_with_stats();
        let hash = fnv(&bytes);
        if self.last_hash == Some(hash) {
            // The ticks were pure cache hits: same exportable content,
            // and the content-addressed name proves it without touching
            // the store.
            self.last_tick = Some(tick);
            self.dirty_since = None;
            self.stats.unchanged_skips += 1;
            return ExportOutcome::Unchanged;
        }
        let generation = self.next_generation;
        let name = blob_name(generation, &bytes);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match self.try_persist(&name, &bytes, hash) {
                Ok(()) => {
                    self.next_generation = generation + 1;
                    self.last_hash = Some(hash);
                    self.last_tick = Some(tick);
                    self.dirty_since = None;
                    self.stats.exports_persisted += 1;
                    self.stats.last_generation = Some(generation);
                    self.prune();
                    return ExportOutcome::Persisted {
                        generation,
                        attempts,
                        bytes: bytes.len(),
                        sections,
                    };
                }
                Err(error) => {
                    if attempts >= self.config.max_attempts.max(1) {
                        self.stats.exports_failed += 1;
                        return ExportOutcome::GaveUp { generation, attempts, error };
                    }
                    self.stats.put_retries += 1;
                    self.service.store_retries.fetch_add(1, Ordering::Relaxed);
                    let pause = self.backoff(attempts);
                    self.stats.backoff_total += pause;
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
            }
        }
    }

    /// One persist attempt: put, then (configurably) read back and
    /// re-hash — a backend that accepted the write but stored garbage
    /// fails here instead of at the next boot.
    fn try_persist(&mut self, name: &str, bytes: &[u8], hash: u64) -> Result<(), StoreError> {
        self.store.put(name, bytes)?;
        if self.config.verify_reads {
            let readback = self.store.get(name)?;
            if fnv(&readback) != hash {
                return Err(StoreError::Io(format!(
                    "read-back of {name} does not match what was written"
                )));
            }
        }
        Ok(())
    }

    /// Capped exponential backoff with deterministic jitter before the
    /// retry following failed attempt `attempt` (1-based).
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = self.config.base_backoff.saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = exp.min(self.config.max_backoff);
        let half = (capped.as_nanos() / 2).min(u128::from(u64::MAX)) as u64;
        let jitter = if half == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(draw(&mut self.rng) % (half + 1))
        };
        capped + jitter
    }

    /// Keep-last-K pruning (best-effort: a store that refuses to list
    /// or remove costs a counter, never the export).
    fn prune(&mut self) {
        let names = match self.store.list() {
            Ok(names) => names,
            Err(_) => {
                self.stats.prune_failures += 1;
                return;
            }
        };
        let mut generations: Vec<(u64, &String)> =
            names.iter().filter_map(|n| parse_blob_name(n).map(|(g, _)| (g, n))).collect();
        generations.sort_unstable_by_key(|g| std::cmp::Reverse(g.0));
        for (_, name) in generations.into_iter().skip(self.config.keep_generations.max(1)) {
            match self.store.remove(name) {
                Ok(()) => self.stats.pruned_generations += 1,
                Err(_) => self.stats.prune_failures += 1,
            }
        }
    }
}

/// What boot-time recovery found and did (see [`recover`]).
#[derive(Debug)]
pub struct RecoveryReport {
    /// The booted service: warm from the newest intact generation, or
    /// cold when none survived.
    pub service: PlanService,
    /// The generation the service booted from (`None` = cold).
    pub generation: Option<u64>,
    /// Generation blobs considered (quarantined blobs from earlier
    /// boots are not re-scanned — their names no longer parse as
    /// generations).
    pub scanned: usize,
    /// Generations quarantined this boot (torn, tampered or
    /// undecodable). Also recorded on the booted service's
    /// [`ServiceStats::quarantined_generations`](super::ServiceStats).
    pub quarantined: u64,
    /// Quarantine renames that failed (the corrupt blob stays put and
    /// is re-quarantined next boot).
    pub quarantine_failures: u64,
    /// Generations skipped because the store would not yield their
    /// bytes within the retry budget (transient faults — *not*
    /// quarantined; the bytes may be fine).
    pub unreadable: u64,
    /// Checkpoints restored into the booted service (the v2 importer's
    /// accounting).
    pub import_restored: u64,
    /// Checkpoints the v2 importer verified and dropped.
    pub import_dropped: u64,
}

/// Store-operation retry budget inside [`recover`] (transient faults;
/// recovery must make progress against the same faulty backends the
/// export loop survives).
const RECOVERY_ATTEMPTS: u32 = 8;

fn retried<T>(mut op: impl FnMut() -> Result<T, StoreError>) -> Result<T, StoreError> {
    let mut last = None;
    for _ in 0..RECOVERY_ATTEMPTS {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| StoreError::Io("retry budget was zero".into())))
}

/// Boots a service from `store` with the default cache caps: walks
/// generations newest-first, quarantines every corrupt or tampered blob
/// on the way, and restores the newest intact one (cold service if none
/// survive). See [`RecoveryReport`].
pub fn recover(store: &(impl SnapshotStore + ?Sized)) -> RecoveryReport {
    recover_with_caps(store, super::SCHEDULE_CACHE_CAP, super::SESSION_CACHE_CAP)
}

/// [`recover`] with explicit schedule-/session-cache caps (match the
/// exporter's [`PlanService::with_caps`] to keep every entry live).
pub fn recover_with_caps(
    store: &(impl SnapshotStore + ?Sized),
    schedule_cap: usize,
    session_cap: usize,
) -> RecoveryReport {
    let names = retried(|| store.list()).unwrap_or_default();
    let mut generations: Vec<(u64, u64, &String)> =
        names.iter().filter_map(|n| parse_blob_name(n).map(|(g, h)| (g, h, n))).collect();
    generations.sort_unstable_by_key(|g| std::cmp::Reverse(g.0));

    let mut report = RecoveryReport {
        service: PlanService::with_caps(schedule_cap, session_cap),
        generation: None,
        scanned: 0,
        quarantined: 0,
        quarantine_failures: 0,
        unreadable: 0,
        import_restored: 0,
        import_dropped: 0,
    };
    for (generation, named_hash, name) in generations {
        report.scanned += 1;
        let Ok(bytes) = retried(|| store.get(name)) else {
            report.unreadable += 1;
            continue;
        };
        // Tamper check first: the name commits to the content hash, so
        // a blob that decodes fine but is not the blob the daemon wrote
        // (swapped, rolled back) still fails here.
        let verdict = if fnv(&bytes) != named_hash {
            Err(super::SnapshotError::ChecksumMismatch)
        } else {
            ServiceSnapshot::from_bytes(&bytes).and_then(|snapshot| {
                PlanService::from_snapshot_with_caps(&snapshot, schedule_cap, session_cap)
            })
        };
        match verdict {
            Ok(service) => {
                report.service = service;
                report.generation = Some(generation);
                break;
            }
            Err(_) => {
                report.quarantined += 1;
                // Rename aside (copy + remove through the store trait):
                // the bytes stay inspectable, and the next boot's scan
                // no longer parses the name as a generation.
                let quarantined_ok = retried(|| store.put(&format!("{name}.quarantined"), &bytes))
                    .and_then(|()| retried(|| store.remove(name)))
                    .is_ok();
                if !quarantined_ok {
                    report.quarantine_failures += 1;
                }
            }
        }
    }
    report.service.quarantined_generations.fetch_add(report.quarantined, Ordering::Relaxed);
    let sessions = report.service.stats().sessions;
    report.import_restored = sessions.import_restored;
    report.import_dropped = sessions.import_dropped;
    report
}

#[cfg(test)]
mod tests {
    use super::super::store::{FaultyStore, MemStore};
    use super::super::JobBuilder;
    use super::*;
    use crate::cost::CostWeights;
    use crate::planner::PlannerOptions;
    use crate::soc::MixedSignalSoc;
    use msoc_tam::Effort;

    fn quick_opts() -> PlannerOptions {
        PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() }
    }

    fn warm(service: &PlanService, width: u32) {
        let job = JobBuilder::new(MixedSignalSoc::d695m())
            .single(width)
            .weights(CostWeights::balanced())
            .opts(quick_opts())
            .build()
            .unwrap();
        assert!(service.submit(&[job])[0].report().is_some());
    }

    fn fast_config() -> DaemonConfig {
        DaemonConfig {
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ..DaemonConfig::default()
        }
    }

    #[test]
    fn clean_and_unchanged_polls_never_touch_the_store() {
        let service = PlanService::new();
        let store = MemStore::new();
        let mut daemon = SnapshotDaemon::with_config(&service, &store, fast_config());
        assert_eq!(daemon.poll(), ExportOutcome::Clean, "tick 0 has nothing to persist");
        warm(&service, 16);
        match daemon.poll() {
            ExportOutcome::Persisted { generation: 1, attempts: 1, .. } => {}
            other => panic!("first dirty poll must persist generation 1: {other:?}"),
        }
        assert_eq!(daemon.poll(), ExportOutcome::Clean, "no new ticks");
        // A fresh daemon attached to the same store recognizes the warm
        // content from the newest name's embedded hash: nothing written,
        // no blob read.
        let mut reattached = SnapshotDaemon::with_config(&service, &store, fast_config());
        assert_eq!(reattached.export_now(), ExportOutcome::Unchanged);
        assert_eq!(store.list().unwrap().len(), 1, "unchanged content writes nothing");
        assert_eq!(reattached.stats().unchanged_skips, 1);
        assert_eq!(daemon.stats().exports_persisted, 1);
    }

    #[test]
    fn staleness_policy_defers_small_advances_but_never_past_the_bound() {
        let service = PlanService::new();
        let store = MemStore::new();
        let config = DaemonConfig {
            min_dirty_ticks: 1_000_000,
            max_staleness: Duration::from_secs(3600),
            ..fast_config()
        };
        let mut daemon = SnapshotDaemon::with_config(&service, &store, config);
        warm(&service, 16);
        match daemon.poll() {
            ExportOutcome::Deferred { dirty_ticks } => assert!(dirty_ticks > 0),
            other => panic!("a small advance inside the bound must defer: {other:?}"),
        }
        // A zero staleness bound forces the export on the next poll.
        daemon.config.max_staleness = Duration::ZERO;
        assert!(matches!(daemon.poll(), ExportOutcome::Persisted { .. }));
        // export_now bypasses the policy entirely.
        warm(&service, 24);
        daemon.config.max_staleness = Duration::from_secs(3600);
        assert!(matches!(daemon.poll(), ExportOutcome::Deferred { .. }));
        assert!(matches!(daemon.export_now(), ExportOutcome::Persisted { .. }));
    }

    #[test]
    fn generations_prune_to_keep_last_k_and_numbers_resume_across_attach() {
        let service = PlanService::new();
        let store = MemStore::new();
        let config = DaemonConfig { keep_generations: 2, ..fast_config() };
        {
            let mut daemon = SnapshotDaemon::with_config(&service, &store, config.clone());
            for width in [16, 20, 24, 28, 32] {
                warm(&service, width);
                assert!(matches!(daemon.poll(), ExportOutcome::Persisted { .. }));
            }
            assert_eq!(daemon.stats().pruned_generations, 3);
            assert_eq!(daemon.stats().last_generation, Some(5));
        }
        let names = store.list().unwrap();
        assert_eq!(names.len(), 2, "keep-last-2: {names:?}");
        let gens: Vec<u64> = names.iter().filter_map(|n| parse_blob_name(n).map(|g| g.0)).collect();
        assert_eq!(gens, vec![4, 5], "newest two generations survive: {names:?}");
        // A fresh daemon over the same store continues the numbering and
        // recognizes the warm content as unchanged without writing.
        let mut again = SnapshotDaemon::with_config(&service, &store, config);
        assert_eq!(again.export_now(), ExportOutcome::Unchanged);
        warm(&service, 36);
        match again.export_now() {
            ExportOutcome::Persisted { generation: 6, .. } => {}
            other => panic!("generation numbers must resume past the store: {other:?}"),
        }
    }

    #[test]
    fn export_loop_survives_heavy_faults_with_retries_and_verified_writes() {
        let service = PlanService::new();
        let faulty = FaultyStore::new(MemStore::new(), 0xFA17, 40);
        // At 40% faults with verified reads, one attempt succeeds with
        // probability ~0.36 — give the loop a budget to match.
        let config = DaemonConfig { max_attempts: 30, ..fast_config() };
        let mut daemon = SnapshotDaemon::with_config(&service, &faulty, config);
        for width in [16, 20, 24, 28] {
            warm(&service, width);
            match daemon.poll() {
                ExportOutcome::Persisted { .. } => {}
                other => panic!("the backoff budget must outlast 40% faults: {other:?}"),
            }
        }
        let stats = daemon.stats();
        assert_eq!(stats.exports_persisted, 4, "{stats:?}");
        assert!(stats.put_retries > 0, "40% faults must force retries: {stats:?}");
        assert_eq!(service.stats().store_retries, stats.put_retries);
        assert!(faulty.fault_counters().total() > 0);
        // Every surviving generation is intact on the *inner* store —
        // verified writes never leave silent corruption behind.
        for name in faulty.inner().list().unwrap() {
            let (_, named_hash) = parse_blob_name(&name).expect("only generations stored");
            let bytes = faulty.inner().get(&name).unwrap();
            assert_eq!(fnv(&bytes), named_hash, "persisted generation {name} is corrupt");
        }
    }

    #[test]
    fn backoff_is_capped_exponential_with_deterministic_jitter() {
        let service = PlanService::new();
        let config = DaemonConfig {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            ..DaemonConfig::default()
        };
        let schedule = |seed: u64| -> Vec<Duration> {
            let store = MemStore::new();
            let mut daemon = SnapshotDaemon::with_config(
                &service,
                &store,
                DaemonConfig { jitter_seed: seed, ..config.clone() },
            );
            (1..=6).map(|attempt| daemon.backoff(attempt)).collect()
        };
        let a = schedule(7);
        let b = schedule(7);
        assert_eq!(a, b, "same seed, same jitter");
        for (i, pause) in a.iter().enumerate() {
            let uncapped = Duration::from_millis(1 << i);
            let cap = uncapped.min(Duration::from_millis(8));
            assert!(
                *pause >= cap && *pause <= cap + cap / 2 + Duration::from_nanos(1),
                "attempt {}: {pause:?} outside [{cap:?}, 1.5x]",
                i + 1
            );
        }
        assert_ne!(schedule(8), a, "different seeds should jitter differently");
    }

    #[test]
    fn recovery_boots_cold_from_an_empty_or_unlistable_store() {
        let empty = MemStore::new();
        let report = recover(&empty);
        assert_eq!(report.generation, None);
        assert_eq!(report.scanned, 0);
        assert_eq!(report.service.stats().cached_schedules, 0);
        // A store that always fails never panics recovery.
        let dead = FaultyStore::new(MemStore::new(), 1, 100);
        let report = recover(&dead);
        assert_eq!(report.generation, None);
    }

    #[test]
    fn recovery_quarantines_tampered_generations_and_boots_the_newest_intact() {
        let service = PlanService::new();
        let store = MemStore::new();
        let mut daemon = SnapshotDaemon::with_config(&service, &store, fast_config());
        warm(&service, 16);
        assert!(matches!(daemon.poll(), ExportOutcome::Persisted { .. }));
        let intact_hits = {
            // What a clean boot replays: capture before tampering.
            let report = recover(&store);
            assert_eq!(report.generation, Some(1));
            report.service.stats().cached_schedules
        };
        warm(&service, 24);
        assert!(matches!(daemon.poll(), ExportOutcome::Persisted { generation: 2, .. }));
        // Tamper with the newest generation: flip one byte mid-blob.
        let names = store.list().unwrap();
        let newest = names.iter().find(|n| parse_blob_name(n).is_some_and(|g| g.0 == 2)).unwrap();
        let mut bytes = store.get(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        store.put(newest, &bytes).unwrap();

        let report = recover(&store);
        assert_eq!(report.generation, Some(1), "boot falls back to the newest intact");
        assert_eq!(report.quarantined, 1, "the tampered generation is quarantined");
        assert_eq!(report.quarantine_failures, 0);
        assert_eq!(report.service.stats().quarantined_generations, 1);
        assert_eq!(report.service.stats().cached_schedules, intact_hits);
        assert_eq!(report.import_dropped, 0);
        // The quarantined blob is renamed aside, not destroyed...
        let names = store.list().unwrap();
        assert!(names.iter().any(|n| n.ends_with(".quarantined")), "{names:?}");
        // ...and the next boot doesn't re-scan it.
        let again = recover(&store);
        assert_eq!(again.scanned, 1);
        assert_eq!(again.quarantined, 0);
        assert_eq!(again.generation, Some(1));
    }
}
