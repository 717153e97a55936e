//! The `msocd` daemon: N [`PlanService`] shards behind one TCP
//! listener.
//!
//! Tenants are sharded by name fingerprint — every request a tenant
//! sends lands on the same shard, so its SOC registrations, cache
//! warmth and statistics are shard-local and two tenants on different
//! shards never contend on a lock. Each shard owns:
//!
//! - a [`PlanService`] (recovered from `shard-<i>/` under the store
//!   root at boot, cold otherwise) with the configured per-batch
//!   admission cap and service-wide queue-depth cap applied, so
//!   overload sheds the lowest-priority work as structured
//!   `Overloaded` responses instead of queueing unboundedly;
//! - a [`SnapshotDaemon`] driven from the ticker thread's poll loop
//!   (differential exports, only dirty service shards re-export) and
//!   flushed once more on graceful shutdown;
//! - a SOC registry ([`Request::Register`] / [`Request::Revise`]),
//!   scoped by tenant so a registered id names an SOC only for the
//!   tenant that registered it, and per-outcome-class latency
//!   histograms served back through [`Request::Stats`].
//!
//! Connections are thread-per-client inside one [`std::thread::scope`],
//! so every shard borrow is checked and the listener cannot outlive the
//! services it serves.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use msoc_core::{
    recover, Deadline, DirStore, ExportOutcome, JobBuilder, LatencyHistogram, PlanService,
    RecoveryReport, ServiceStats, SnapshotDaemon, SocHandle,
};
use msoc_tam::StableHasher;

use crate::wire::{
    read_request, write_response, Request, Response, WireError, WireJob, WireLatency, WireOutcome,
    WireSocRef, WireStats,
};

/// Outcome classes with a dedicated latency histogram, in histogram
/// index order.
const OUTCOME_CLASSES: [&str; 4] = ["completed", "interrupted", "rejected", "failed"];

/// How the daemon serves: shard count, persistence, admission control
/// and the snapshot cadence.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Tenant shards — independent [`PlanService`]s (at least 1).
    pub shards: usize,
    /// Snapshot root; each shard persists under `shard-<i>/` and
    /// recovers from it at boot. `None` = in-memory only.
    pub store_root: Option<PathBuf>,
    /// Per-batch admission cap applied to every shard
    /// ([`PlanService::with_admission_cap`]).
    pub admission_cap: Option<usize>,
    /// Service-wide queue-depth cap applied to every shard
    /// ([`PlanService::with_queue_depth_cap`]).
    pub queue_depth_cap: Option<usize>,
    /// Ticker cadence for the per-shard snapshot daemons.
    pub snapshot_tick: Duration,
    /// Export a final generation per shard on graceful shutdown. Turn
    /// off to simulate a crash (the kill-mid-load recovery drill).
    pub flush_on_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            store_root: None,
            admission_cap: None,
            queue_depth_cap: None,
            snapshot_tick: Duration::from_millis(25),
            flush_on_shutdown: true,
        }
    }
}

/// What one shard did over the server's lifetime (in [`ServerReport`]).
#[derive(Debug, Clone, Copy)]
pub struct ShardReport {
    /// The shard's final service statistics.
    pub stats: ServiceStats,
    /// Snapshot generations the shard's daemon persisted.
    pub generations_persisted: u64,
    /// Service shards the daemon's differential exporter reused.
    pub shard_exports_reused: u64,
}

/// What [`serve`] did, returned after the listener drains.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Per-shard accounting, shard index order.
    pub shards: Vec<ShardReport>,
}

/// The tenant → shard map: stable fingerprint of the tenant name,
/// reduced mod the shard count. Exposed so tests and clients can
/// predict placement.
pub fn tenant_shard(tenant: &str, shards: usize) -> usize {
    let mut h = StableHasher::new();
    h.write_bytes(tenant.as_bytes());
    (h.finish() % shards.max(1) as u64) as usize
}

/// One tenant's registered SOCs by id.
type Registry = HashMap<u64, SocHandle>;

/// One shard's serving state. Registry ids come from one shard-wide
/// counter; each tenant sees only the ids it registered.
struct ShardRuntime<'a, 'b> {
    service: &'a PlanService,
    daemon: Option<Mutex<SnapshotDaemon<'b, DirStore>>>,
    registry: Mutex<HashMap<String, Registry>>,
    next_soc_id: AtomicU64,
    latency: Mutex<[LatencyHistogram; OUTCOME_CLASSES.len()]>,
}

impl<'a, 'b> ShardRuntime<'a, 'b> {
    fn new(service: &'a PlanService, daemon: Option<SnapshotDaemon<'b, DirStore>>) -> Self {
        ShardRuntime {
            service,
            daemon: daemon.map(Mutex::new),
            registry: Mutex::new(HashMap::new()),
            next_soc_id: AtomicU64::new(1),
            latency: Mutex::new([LatencyHistogram::new(); OUTCOME_CLASSES.len()]),
        }
    }
}

fn class_index(class: &str) -> usize {
    OUTCOME_CLASSES.iter().position(|&c| c == class).unwrap_or(OUTCOME_CLASSES.len() - 1)
}

/// Builds and runs a batch of wire jobs on a service, producing the
/// canonical wire outcomes in input order.
///
/// This is **the** submission path: the TCP dispatch layer and the
/// loadgen's serial in-process replay both call it, so "bit-identical
/// outcomes" compares two runs of the same code over the same inputs —
/// never two reimplementations. `registry` is the submitting tenant's
/// registrations. A job naming an id it does not hold, or one the
/// [`JobBuilder`] refuses (a zero or repeated width, an empty config
/// list), becomes a `Rejected` outcome at its position without
/// disturbing siblings, exactly like server-side admission does. Bad
/// partitions, bad weights and non-catalog inline SOCs never get here:
/// the frame decoder refuses them, and the server answers that frame
/// with one [`Response::Error`].
pub fn execute_jobs(
    service: &PlanService,
    registry: &HashMap<u64, SocHandle>,
    jobs: &[WireJob],
) -> Vec<WireOutcome> {
    let handles = resolve(registry, jobs);
    execute_timed(service, &handles, jobs).into_iter().map(|(outcome, _)| outcome).collect()
}

/// The registered handle each job names, in job order: `None` for an
/// inline SOC or an unknown id. One handle clone per job, so the
/// registry lock (where there is one) is held only for the lookups.
fn resolve(registry: &Registry, jobs: &[WireJob]) -> Vec<Option<SocHandle>> {
    jobs.iter()
        .map(|job| match &job.soc {
            WireSocRef::Registered(id) => registry.get(id).cloned(),
            WireSocRef::Inline(_) => None,
        })
        .collect()
}

/// [`execute_jobs`] over [`resolve`]d handles, pairing each outcome with
/// the job's own planning wall time in microseconds:
/// [`JobReport::wall`](msoc_core::JobReport) for a completed job, 0 for a
/// job without a report (rejected at validation or admission,
/// interrupted, failed).
fn execute_timed(
    service: &PlanService,
    handles: &[Option<SocHandle>],
    jobs: &[WireJob],
) -> Vec<(WireOutcome, u64)> {
    let mut outcomes: Vec<Option<(WireOutcome, u64)>> = vec![None; jobs.len()];
    let mut built = Vec::with_capacity(jobs.len());
    let mut positions = Vec::with_capacity(jobs.len());
    for (i, (job, handle)) in jobs.iter().zip(handles).enumerate() {
        match build_job(handle.as_ref(), job) {
            Ok(core_job) => {
                built.push(core_job);
                positions.push(i);
            }
            Err(e) => outcomes[i] = Some((WireOutcome::Rejected { error: e.to_string() }, 0)),
        }
    }
    let ran = service.submit(&built);
    for (position, outcome) in positions.into_iter().zip(&ran) {
        let wall_us =
            outcome.report().map_or(0, |r| u64::try_from(r.wall.as_micros()).unwrap_or(u64::MAX));
        outcomes[position] = Some((WireOutcome::from_outcome(outcome), wall_us));
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every job slot is filled by validation or submission"))
        .collect()
}

/// Builds one core job from its wire form; `handle` is the registered
/// SOC the job names, if the tenant's registry holds it.
fn build_job(handle: Option<&SocHandle>, job: &WireJob) -> Result<msoc_core::Job, WireError> {
    let builder = match &job.soc {
        WireSocRef::Registered(id) => JobBuilder::for_handle(
            handle.ok_or_else(|| WireError::Corrupt(format!("unknown registered soc id {id}")))?,
        ),
        WireSocRef::Inline(soc) => JobBuilder::new(soc.clone()),
    };
    let mut builder = builder
        .spec(job.spec.clone())
        .weights(job.weights)
        .cost_optimizer_delta(job.delta)
        .priority(job.priority)
        .opts(msoc_core::planner::PlannerOptions { effort: job.effort, ..Default::default() });
    if let Some(configs) = &job.configs {
        builder = builder.configs(configs.clone());
    }
    if let Some(checks) = job.deadline_checks {
        builder = builder.deadline(Deadline::checks(checks));
    }
    if job.cancelled {
        let token = msoc_core::CancelToken::new();
        token.cancel();
        builder = builder.cancel_token(&token);
    }
    builder.build().map_err(|e| WireError::Corrupt(e.to_string()))
}

/// The boot log line of shard `shard`'s recovery: the generation it
/// booted from (or `cold`), the generations scanned and quarantined, and
/// the checkpoints the import restored and dropped.
fn recovery_line(shard: usize, report: &RecoveryReport) -> String {
    let generation = report.generation.map_or_else(|| "cold".to_owned(), |g| g.to_string());
    format!(
        "shard {shard}: generation {generation} scanned {} quarantined {} restored {} dropped {}",
        report.scanned, report.quarantined, report.import_restored, report.import_dropped
    )
}

/// Serves the protocol on `listener` until a [`Request::Shutdown`]
/// frame arrives, then reports what every shard did.
///
/// Boot recovers each shard from `store_root/shard-<i>/` (newest intact
/// generation; tampered ones are quarantined) and prints one line per
/// shard to stderr (`shard <i>: generation <g|cold> scanned <n>
/// quarantined <q> restored <r> dropped <d>`), serving resumes with warm
/// caches, and graceful shutdown flushes one final generation per shard
/// unless `flush_on_shutdown` is off. A server without a store prints
/// nothing.
///
/// # Errors
///
/// [`WireError::Io`] when the store root or listener address cannot be
/// used. Per-connection protocol errors are answered on that
/// connection and never take the server down.
pub fn serve(listener: TcpListener, config: &ServerConfig) -> Result<ServerReport, WireError> {
    let n_shards = config.shards.max(1);

    // Shard services first — recovery and cap application both consume
    // and return the service by value, so this happens before anything
    // borrows.
    let mut services = Vec::with_capacity(n_shards);
    let mut stores = Vec::with_capacity(n_shards);
    for i in 0..n_shards {
        let (service, store) = match &config.store_root {
            Some(root) => {
                let store = DirStore::open(root.join(format!("shard-{i}")))
                    .map_err(|e| WireError::Io(e.to_string()))?;
                let report = recover(&store);
                eprintln!("{}", recovery_line(i, &report));
                (report.service, Some(store))
            }
            None => (PlanService::new(), None),
        };
        let service = match config.admission_cap {
            Some(cap) => service.with_admission_cap(cap),
            None => service,
        };
        let service = match config.queue_depth_cap {
            Some(depth) => service.with_queue_depth_cap(depth),
            None => service,
        };
        services.push(service);
        stores.push(store);
    }

    let stop = AtomicBool::new(false);
    // Runtimes are built before the scope: scoped threads may only
    // borrow from outside it.
    let shards: Vec<ShardRuntime<'_, '_>> = services
        .iter()
        .zip(stores)
        .map(|(service, store)| {
            let daemon = store.map(|store| SnapshotDaemon::new(service, store));
            ShardRuntime::new(service, daemon)
        })
        .collect();
    let report = std::thread::scope(|scope| {
        let shards = &shards;
        let stop = &stop;

        // The ticker drives every shard's snapshot daemon on one
        // cadence; polls are cheap when clean (tick comparison only).
        let tick = config.snapshot_tick;
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(tick.min(Duration::from_millis(10)));
                for shard in shards {
                    if let Some(daemon) = &shard.daemon {
                        daemon.lock().expect("daemon lock").poll();
                    }
                }
            }
        });

        for stream in listener.incoming() {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let Ok(stream) = stream else { continue };
            scope.spawn(move || {
                let _ = handle_connection(stream, shards, stop);
            });
        }
        // Unblocked by the shutdown handler's self-connection; the
        // scope now waits for in-flight connections to drain.
        drop(listener);

        ServerReport {
            shards: shards
                .iter()
                .map(|shard| {
                    let mut generations_persisted = 0;
                    let mut shard_exports_reused = 0;
                    if let Some(daemon) = &shard.daemon {
                        let mut daemon = daemon.lock().expect("daemon lock");
                        if config.flush_on_shutdown {
                            daemon.export_now();
                        }
                        let stats = daemon.stats();
                        generations_persisted = stats.exports_persisted;
                        shard_exports_reused = stats.shard_exports_reused;
                    }
                    ShardReport {
                        stats: shard.service.stats(),
                        generations_persisted,
                        shard_exports_reused,
                    }
                })
                .collect(),
        }
    });
    Ok(report)
}

/// One connection's request loop: decode → dispatch → respond, until
/// the peer disconnects, a protocol error desynchronizes the stream,
/// or a shutdown frame arrives.
fn handle_connection(
    stream: TcpStream,
    shards: &[ShardRuntime<'_, '_>],
    stop: &AtomicBool,
) -> Result<(), WireError> {
    // Server-side, the stream's local address IS the listening socket
    // — the shutdown handler self-connects to it to unblock accept.
    let listener_addr = stream.local_addr().map_err(WireError::from)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(WireError::from)?);
    let mut writer = BufWriter::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(request) => request,
            // A clean disconnect surfaces as Truncated at the frame
            // boundary; anything else is answered before closing
            // because the stream position is no longer trustworthy.
            Err(WireError::Truncated) => return Ok(()),
            Err(e) => {
                let _ = write_response(&mut writer, &Response::Error { message: e.to_string() });
                return Err(e);
            }
        };
        let shutdown = matches!(request, Request::Shutdown);
        let response = dispatch(request, shards);
        write_response(&mut writer, &response).map_err(WireError::from)?;
        writer.flush().map_err(WireError::from)?;
        if shutdown {
            stop.store(true, Ordering::Relaxed);
            // Unblock the accept loop so the scope can drain. The
            // accept loop discards the wake-up once `stop` reads true.
            let _ = TcpStream::connect(listener_addr);
            return Ok(());
        }
    }
}

fn dispatch(request: Request, shards: &[ShardRuntime<'_, '_>]) -> Response {
    match request {
        Request::Register { tenant, soc } => {
            let shard = &shards[tenant_shard(&tenant, shards.len())];
            let handle = shard.service.register(soc);
            let soc_id = shard.next_soc_id.fetch_add(1, Ordering::Relaxed);
            shard
                .registry
                .lock()
                .expect("registry lock")
                .entry(tenant)
                .or_default()
                .insert(soc_id, handle);
            Response::Registered { soc_id }
        }
        Request::Submit { tenant, jobs } => {
            let shard = &shards[tenant_shard(&tenant, shards.len())];
            let handles = match shard.registry.lock().expect("registry lock").get(&tenant) {
                Some(registry) => resolve(registry, &jobs),
                None => vec![None; jobs.len()],
            };
            let timed = execute_timed(shard.service, &handles, &jobs);
            let mut latency = shard.latency.lock().expect("latency lock");
            for (outcome, wall_us) in &timed {
                latency[class_index(outcome.class())].record(*wall_us);
            }
            drop(latency);
            Response::Outcomes(timed.into_iter().map(|(outcome, _)| outcome).collect())
        }
        Request::Revise { tenant, soc_id, edits } => {
            let shard = &shards[tenant_shard(&tenant, shards.len())];
            let mut registry = shard.registry.lock().expect("registry lock");
            let Some(handle) = registry.get_mut(&tenant).and_then(|r| r.get_mut(&soc_id)) else {
                return Response::Error { message: format!("unknown registered soc id {soc_id}") };
            };
            match handle.revise(&edits) {
                Ok(revised) => {
                    *handle = revised;
                    Response::Revised { soc_id, revision: handle.revision() }
                }
                Err(e) => Response::Error { message: e.to_string() },
            }
        }
        Request::Stats { tenant } => {
            let index = tenant_shard(&tenant, shards.len());
            let shard = &shards[index];
            let stats = shard.service.stats();
            let (snapshots_persisted, shard_exports_reused) = match &shard.daemon {
                Some(daemon) => {
                    let stats = daemon.lock().expect("daemon lock").stats();
                    (stats.exports_persisted, stats.shard_exports_reused)
                }
                None => (0, 0),
            };
            let latency = shard.latency.lock().expect("latency lock");
            let latency = OUTCOME_CLASSES
                .iter()
                .zip(latency.iter())
                .filter(|(_, h)| h.count() > 0)
                .map(|(&outcome, h)| WireLatency {
                    outcome: outcome.to_string(),
                    count: h.count(),
                    p50_us: h.quantile(0.5),
                    p99_us: h.quantile(0.99),
                })
                .collect();
            Response::Stats(WireStats {
                shard: index as u64,
                jobs_submitted: stats.jobs_submitted,
                jobs_shed: stats.jobs_shed,
                jobs_failed: stats.jobs_failed,
                schedule_hits: stats.schedule_hits,
                schedule_misses: stats.schedule_misses,
                session_hits: stats.session_hits,
                session_misses: stats.session_misses,
                live_sessions: stats.live_sessions,
                snapshots_persisted,
                shard_exports_reused,
                latency,
            })
        }
        Request::SnapshotNow => {
            let mut persisted = 0;
            for shard in shards {
                if let Some(daemon) = &shard.daemon {
                    if let ExportOutcome::Persisted { .. } =
                        daemon.lock().expect("daemon lock").export_now()
                    {
                        persisted += 1;
                    }
                }
            }
            Response::SnapshotDone { persisted }
        }
        Request::Shutdown => Response::ShuttingDown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msoc_core::service::MemStore;
    use msoc_core::{CostWeights, MixedSignalSoc};

    #[test]
    fn recovery_lines_name_the_generation_and_the_import_counts() {
        let store = MemStore::new();
        assert_eq!(
            recovery_line(0, &recover(&store)),
            "shard 0: generation cold scanned 0 quarantined 0 restored 0 dropped 0"
        );
        let service = PlanService::new();
        let soc = service.register(MixedSignalSoc::d695m());
        let job = JobBuilder::for_handle(&soc)
            .single(16)
            .weights(CostWeights::balanced())
            .build()
            .expect("a valid job");
        service.submit(&[job]);
        SnapshotDaemon::new(&service, &store).export_now();
        let report = recover(&store);
        assert!(report.import_restored > 0, "a warm generation restores checkpoints");
        assert_eq!(
            recovery_line(1, &report),
            format!(
                "shard 1: generation 1 scanned 1 quarantined 0 restored {} dropped 0",
                report.import_restored
            )
        );
    }
}
