//! Perf-tracking harness: schedules `p93791m` across TAM widths with both
//! packing engines, runs the full 26-candidate sharing sweep through the
//! session/service stack, drives a multi-SOC fleet through a shared
//! [`PlanService`], and emits `BENCH_schedule.json`.
//!
//! The emitted file seeds the repo's performance trajectory:
//!
//! * `results` — the single-pack baseline: per width, the makespan
//!   (identical between engines by construction — they share the search
//!   layer) and the wall time of the skyline hot path versus the naive
//!   reference, at `Effort::Thorough` (the planning effort whose packing
//!   cost dominates real optimizer runs).
//! * `sweep` — the 26-candidate sharing sweep per width, three ways: a
//!   per-instance PR 2-style session sweep, packing every candidate from
//!   scratch, and a *warm* `PlanService` replaying the sweep from its
//!   fingerprint caches. Every candidate's session schedule is asserted
//!   bit-identical to its from-scratch schedule, skeleton reuse and
//!   delta-prefix-restore counters are asserted non-trivial, and the warm
//!   service must beat the per-instance sweep by ≥ 1.3× at the acceptance
//!   width — so no speedup can come from a silently diverging result.
//! * `service` — the multi-SOC front-end: a fleet of ITC'02-derived and
//!   synthetic mixed-signal SOCs registered as `SocHandle`s and planned
//!   twice through one service's job API (`submit`); cold vs warm wall
//!   time, cache hit counters, and the ≥ 1.2× warm speedup the CI smoke
//!   asserts.
//! * `service_api` — the incremental-revision and persistence paths: two
//!   analog cores of the largest SOC are revised (`SocHandle::revise`)
//!   and the whole fleet re-planned — unchanged SOCs must be
//!   bit-identical pure cache hits, the revised SOC bit-identical to a
//!   cold plan of the revised content, ≥ 1.2× faster than the cold fleet
//!   with `revision_cache_hits > 0` — and the schedule cache round-trips
//!   export → bytes → import with a bit-identical, zero-miss replay.
//! * `snapshot` — the persistence tier: the v2 snapshot codec's size and
//!   speed (bytes/schedule, encode/decode MB/s, compression vs the v1
//!   layout) plus the warm-from-disk boot path — import wall time, a
//!   warm-RAM vs warm-disk replay ratio the full run holds to ≤ 1.3×,
//!   and a starved-schedule-cache sweep that must restore checkpoint
//!   prefixes from the persisted tries with *zero* skeleton re-packs.
//! * `load` — the streaming throughput tier: a 10k-SOC synthetic fleet
//!   (300 under `--quick`) registered on one sharded service, then a
//!   deterministic popularity-skewed job-arrival trace — mixed widths,
//!   priorities, generous and zero-budget deadlines, pre-cancelled
//!   tokens, and per-submitter revision jobs — streamed from several
//!   submitter OS threads, each recording per-submit latency into a
//!   mergeable log2 histogram. Every concurrent outcome is asserted
//!   bit-identical to a serial single-thread replay of the same trace on
//!   a fresh service; the section records jobs/sec (concurrent and
//!   1-thread), p50/p99/max latency, per-shard lookup spread and lock
//!   contention, and the persistent pool's dispatch/steal/park counters.
//!
//! Flags: `--quick` drops to one repetition per cell, a single sweep
//! width and a smaller fleet (CI smoke), `--out <path>` overrides the
//! output path.

use std::time::{Duration, Instant};

use msoc_analog::paper_cores;
use msoc_bench::LatencyHistogram;
use msoc_core::{
    blob_name, parse_blob_name, recover, CancelToken, CoreEdit, CostWeights, DaemonConfig,
    Deadline, DirStore, ExportOutcome, FaultyStore, Job, JobBuilder, JobOutcome, MixedSignalSoc,
    PlanError, PlanReport, PlanService, PlanStats, Planner, PlannerOptions, Priority,
    ServiceSnapshot, SharingConfig, SnapshotDaemon, SnapshotStore, SocHandle, TableReport,
};
use msoc_tam::{schedule_with_engine, Effort, Engine, Schedule, ScheduleProblem};

const WIDTHS: [u32; 5] = [16, 24, 32, 48, 64];
const ACCEPTANCE_WIDTH: u32 = 32;
const MIN_SKELETON_REUSES_PER_WIDTH: u64 = 20;
/// Required warm-service advantage over the per-instance session sweep.
const MIN_WARM_SWEEP_SPEEDUP: f64 = 1.3;
/// Required warm-over-cold advantage for the multi-SOC fleet batch.
const MIN_FLEET_WARM_SPEEDUP: f64 = 1.2;
/// Required table-engine advantage over the equivalent per-width loop.
const MIN_TABLE_SPEEDUP: f64 = 1.2;
/// Required fleet advantage of a two-cores-revised re-plan over the cold
/// fleet plan (the incremental-revision API's reason to exist).
const MIN_REVISION_SPEEDUP: f64 = 1.2;

struct Cell {
    tam_width: u32,
    makespan: u64,
    skyline_ms: f64,
    naive_ms: f64,
}

struct SweepCell {
    tam_width: u32,
    candidates: usize,
    winner_makespan: u64,
    session_ms: f64,
    scratch_ms: f64,
    service_warm_ms: f64,
    skeleton_hits: u64,
    skeleton_misses: u64,
    pruned_passes: u64,
    prefix_hits: u64,
    prefix_jobs_restored: u64,
    max_prefix_depth: u64,
}

struct ServiceCell {
    socs: usize,
    requests: usize,
    cold_ms: f64,
    warm_ms: f64,
    session_hits: u64,
    schedule_hits: u64,
    schedule_misses: u64,
    prefix_jobs_restored: u64,
    max_prefix_depth: u64,
    /// Warm re-plan of the whole fleet after revising two analog cores of
    /// one SOC: unchanged SOCs are pure cache hits, the revised SOC
    /// re-hits its sessions and repacks only its deltas.
    warm_revision_ms: f64,
    revision_cache_hits: u64,
    /// Snapshot roundtrip: export -> bytes -> import -> warm replay.
    snapshot_bytes: usize,
    snapshot_schedules: usize,
}

fn best_wall_ms(problem: &ScheduleProblem, engine: Engine, reps: usize) -> (Schedule, f64) {
    let mut best_ms = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let s = schedule_with_engine(problem, Effort::Thorough, engine)
            .expect("p93791m is feasible at every benched width");
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(s);
    }
    (out.expect("at least one repetition"), best_ms)
}

/// One 26-candidate sweep at width `w`: per-instance session path vs
/// from-scratch path vs warm-service replay, with bit-identity and
/// reuse-counter assertions.
fn run_sweep(soc: &MixedSignalSoc, w: u32) -> SweepCell {
    let opts = || PlannerOptions { effort: Effort::Thorough, ..PlannerOptions::default() };
    let mut planner = Planner::with_options(soc, opts());
    let candidates = planner.candidates();

    let t0 = Instant::now();
    planner.schedule_batch(&candidates, w).expect("sweep is feasible");
    let session_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats: PlanStats = planner.stats();

    // From-scratch reference: pack every candidate's problem directly.
    // Problems are pre-built and the bit-identity comparison runs after
    // the timer stops, so scratch_ms times nothing but the packs.
    let problems: Vec<ScheduleProblem> =
        candidates.iter().map(|c| planner.build_problem(c, w)).collect();
    let t0 = Instant::now();
    let scratch: Vec<Schedule> = problems
        .iter()
        .map(|p| {
            schedule_with_engine(p, Effort::Thorough, Engine::Skyline).expect("sweep is feasible")
        })
        .collect();
    let scratch_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut winner: Option<(u64, &SharingConfig)> = None;
    for (config, scratch) in candidates.iter().zip(&scratch) {
        let via_session = planner.schedule_for(config, w).expect("cached by the batch");
        assert_eq!(
            via_session, scratch,
            "session schedule diverged from from-scratch for {config} at w={w}"
        );
        if winner.is_none_or(|(m, _)| scratch.makespan() < m) {
            winner = Some((scratch.makespan(), config));
        }
    }
    let (winner_makespan, _) = winner.expect("candidate set is never empty");

    // Warm-service replay: fill a persistent service once, then time a
    // *new* planner instance running the same sweep against it. This is
    // the cross-instance persistence PR 2 lacked — the warm run must be
    // pure cache traffic.
    let service = PlanService::new();
    let mut cold = Planner::with_service(soc, opts(), &service);
    cold.schedule_batch(&candidates, w).expect("sweep is feasible");
    let t0 = Instant::now();
    let mut warm = Planner::with_service(soc, opts(), &service);
    warm.schedule_batch(&candidates, w).expect("sweep is feasible");
    let service_warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (config, scratch) in candidates.iter().zip(&scratch) {
        let via_warm = warm.schedule_for(config, w).expect("cached by the warm batch");
        assert_eq!(
            via_warm, scratch,
            "warm-service schedule diverged from from-scratch for {config} at w={w}"
        );
    }

    assert!(
        stats.skeleton_hits >= MIN_SKELETON_REUSES_PER_WIDTH,
        "sweep at w={w} reused only {} skeleton checkpoints (want >= {MIN_SKELETON_REUSES_PER_WIDTH}): {stats:?}",
        stats.skeleton_hits,
    );
    assert!(
        stats.skeleton_hits > stats.skeleton_misses,
        "skeleton reuse should dominate packing at w={w}: {stats:?}"
    );
    assert!(
        stats.prefix_jobs_restored > 0 && stats.max_prefix_depth > 0,
        "the delta-prefix trie must restore shared prefixes at w={w}: {stats:?}"
    );

    SweepCell {
        tam_width: w,
        candidates: candidates.len(),
        winner_makespan,
        session_ms,
        scratch_ms,
        service_warm_ms,
        skeleton_hits: stats.skeleton_hits,
        skeleton_misses: stats.skeleton_misses,
        pruned_passes: stats.pruned_passes,
        prefix_hits: stats.prefix_hits,
        prefix_jobs_restored: stats.prefix_jobs_restored,
        max_prefix_depth: stats.max_prefix_depth,
    }
}

struct TableBench {
    report: TableReport,
    per_width_ms: f64,
    table_ms: f64,
    table_ms_1t: f64,
}

/// The full 26-config × 5-width matrix, three ways: the PR 3-style
/// per-width loop (five independent `schedule_batch` sweeps on one
/// planner), the cross-width table engine (`plan_table`, one shared
/// incumbent), and a 1-thread replay of the table for `msoc_par` scaling.
/// Every packed table cell is asserted bit-identical to the per-width
/// loop's makespan for the same `(config, width)`, and the 1-thread
/// replay must reproduce the table exactly (prune decisions are
/// wave-frozen, so thread count cannot change them).
fn run_table(soc: &MixedSignalSoc) -> TableBench {
    let opts = || PlannerOptions { effort: Effort::Thorough, ..PlannerOptions::default() };
    let candidates = Planner::with_options(soc, opts()).candidates();
    let weights = CostWeights::balanced();

    let t0 = Instant::now();
    let mut loop_planner = Planner::with_options(soc, opts());
    for &w in &WIDTHS {
        loop_planner.schedule_batch(&candidates, w).expect("per-width sweep is feasible");
    }
    let per_width_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let mut table_planner = Planner::with_options(soc, opts());
    let report =
        table_planner.plan_table(&candidates, &WIDTHS, weights).expect("table is feasible");
    let table_ms = t0.elapsed().as_secs_f64() * 1e3;

    for (ci, config) in candidates.iter().enumerate() {
        for (wi, &w) in WIDTHS.iter().enumerate() {
            if let Some(m) = report.makespan(ci, wi) {
                let loop_m = loop_planner.makespan(config, w).expect("cached by the loop");
                assert_eq!(
                    m, loop_m,
                    "table cell ({config}, w={w}) diverged from the per-width loop"
                );
            }
        }
    }
    assert!(
        report.stats.cross_width_prunes > 0,
        "the shared incumbent must prune across widths: {:?}",
        report.stats
    );

    let t0 = Instant::now();
    let report_1t = msoc_par::with_threads(1, || {
        let mut p = Planner::with_options(soc, opts());
        p.plan_table(&candidates, &WIDTHS, weights).expect("table is feasible")
    });
    let table_ms_1t = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report_1t, report, "thread count must not change the table result");

    TableBench { report, per_width_ms, table_ms, table_ms_1t }
}

/// The multi-SOC fleet through the job API: ITC'02-derived SOCs plus
/// synthetic ones, registered as handles and planned through `submit` —
/// cold, warm replay, a two-cores-revised re-plan, and a snapshot
/// export/import replay.
fn run_service_fleet(quick: bool) -> ServiceCell {
    let mut fleet: Vec<MixedSignalSoc> = vec![
        MixedSignalSoc::d695m(),
        MixedSignalSoc::new("p22810m", msoc_itc02::synth::p22810s(), paper_cores()),
    ];
    if !quick {
        fleet.push(MixedSignalSoc::p93791m());
    }
    let synth_count = if quick { 2 } else { 4 };
    for digital in msoc_itc02::synth::random_fleet(
        41,
        synth_count,
        msoc_itc02::synth::RandomSocParams::default(),
    ) {
        let name = digital.name.clone();
        fleet.push(MixedSignalSoc::new(format!("{name}m"), digital, paper_cores()));
    }

    let widths: &[u32] = if quick { &[ACCEPTANCE_WIDTH] } else { &[24, ACCEPTANCE_WIDTH] };
    let opts = PlannerOptions { effort: Effort::Standard, ..PlannerOptions::default() };
    let service = PlanService::new();
    let handles: Vec<SocHandle> = fleet.iter().map(|soc| service.register(soc.clone())).collect();
    let jobs_for = |handles: &[SocHandle]| -> Vec<Job> {
        handles
            .iter()
            .flat_map(|handle| {
                widths.iter().map(|&w| {
                    JobBuilder::for_handle(handle)
                        .single(w)
                        .weights(CostWeights::balanced())
                        .opts(opts.clone())
                        .build()
                        .expect("fleet jobs are well-formed")
                })
            })
            .collect()
    };
    let jobs = jobs_for(&handles);
    let plan_of = |outcome: &JobOutcome, what: &str| -> PlanReport {
        match outcome {
            JobOutcome::Completed(report) => {
                report.result.plan().expect("single jobs return plans").clone()
            }
            other => panic!("{what} job did not complete: {other:?}"),
        }
    };

    let t0 = Instant::now();
    let cold = service.submit(&jobs);
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let warm = service.submit(&jobs);
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;

    for ((job, c), w) in jobs.iter().zip(&cold).zip(&warm) {
        let name = &job.soc().name;
        let (c, w) = (plan_of(c, "cold"), plan_of(w, "warm"));
        assert_eq!(c.best, w.best, "warm plan diverged for {name} w={}", c.tam_width);
        assert_eq!(c.schedule, w.schedule, "warm schedule diverged for {name}");
    }

    let stats = service.stats();
    assert!(stats.session_hits > 0, "warm batch must reuse sessions: {stats:?}");
    assert!(stats.schedule_hits > 0, "warm batch must hit the schedule cache: {stats:?}");

    // Revise two analog cores of the largest SOC (longer IIP3/THD tests)
    // and re-plan the *whole* fleet: unchanged SOCs replay from the
    // schedule cache, the revised SOC re-hits its sessions (warm skeleton
    // checkpoints + prefix trie) and repacks only its analog deltas.
    let revised_idx = fleet.iter().position(|soc| soc.name == "p93791m").unwrap_or(0);
    let handle = &handles[revised_idx];
    let mut core_d = handle.soc().analog[3].clone();
    core_d.tests[0].cycles += 5_000;
    let mut core_e = handle.soc().analog[4].clone();
    core_e.tests[0].cycles += 5_000;
    let revised = handle
        .revise(&[
            CoreEdit::ReplaceAnalog { index: 3, core: core_d },
            CoreEdit::ReplaceAnalog { index: 4, core: core_e },
        ])
        .expect("revision edits are well-formed");
    let mut revised_handles = handles.clone();
    revised_handles[revised_idx] = revised;
    let revised_jobs = jobs_for(&revised_handles);
    let hits_before_revision = service.stats().revision_cache_hits;
    let t0 = Instant::now();
    let revision = service.submit(&revised_jobs);
    let warm_revision_ms = t0.elapsed().as_secs_f64() * 1e3;
    let revision_cache_hits = service.stats().revision_cache_hits - hits_before_revision;
    assert!(
        revision_cache_hits > 0,
        "the revised SOC must re-hit warm content: {:?}",
        service.stats()
    );
    // Unchanged SOCs stay bit-identical to the cold batch; the revised
    // SOC must match a cold service planning the revised fleet member.
    let fresh = PlanService::new();
    for (i, ((job, c), r)) in revised_jobs.iter().zip(&cold).zip(&revision).enumerate() {
        let name = &job.soc().name;
        let r = plan_of(r, "revision");
        if i / widths.len() == revised_idx {
            let cold_revised = plan_of(&fresh.submit(std::slice::from_ref(job))[0], "cold-revised");
            assert_eq!(r.best, cold_revised.best, "revised plan diverged for {name}");
            assert_eq!(r.schedule, cold_revised.schedule, "revised schedule diverged for {name}");
        } else {
            let c = plan_of(c, "cold");
            assert_eq!(c.best, r.best, "unchanged cell diverged for {name} w={}", c.tam_width);
            assert_eq!(c.schedule, r.schedule, "unchanged schedule diverged for {name}");
        }
    }

    // Snapshot roundtrip: the exported schedule cache must replay the
    // original fleet bit-identically in a fresh process, without packing.
    let snapshot = service.export_snapshot();
    let bytes = snapshot.to_bytes();
    let imported = PlanService::from_snapshot(
        &ServiceSnapshot::from_bytes(&bytes).expect("own snapshot bytes decode"),
    )
    .expect("own snapshot imports");
    let replay = imported.submit(&jobs);
    for ((job, c), r) in jobs.iter().zip(&cold).zip(&replay) {
        let name = &job.soc().name;
        let (c, r) = (plan_of(c, "cold"), plan_of(r, "snapshot-replay"));
        assert_eq!(c.best, r.best, "snapshot replay diverged for {name} w={}", c.tam_width);
        assert_eq!(c.schedule, r.schedule, "snapshot replay schedule diverged for {name}");
    }
    let imported_stats = imported.stats();
    assert_eq!(
        imported_stats.schedule_misses, 0,
        "snapshot replay must be pure cache traffic: {imported_stats:?}"
    );

    ServiceCell {
        socs: fleet.len(),
        requests: jobs.len(),
        cold_ms,
        warm_ms,
        session_hits: stats.session_hits,
        schedule_hits: stats.schedule_hits,
        schedule_misses: stats.schedule_misses,
        prefix_jobs_restored: stats.sessions.prefix_jobs_restored,
        max_prefix_depth: stats.sessions.max_prefix_depth,
        warm_revision_ms,
        revision_cache_hits,
        snapshot_bytes: bytes.len(),
        snapshot_schedules: snapshot.schedule_count(),
    }
}

/// The persistence run's metrics: v2 codec throughput and size, plus
/// the warm-from-disk vs warm-from-RAM replay comparison and the
/// starved-cache trie acceptance counters.
struct SnapshotCell {
    sessions: usize,
    schedules: usize,
    trie_nodes: usize,
    checkpoints: usize,
    total_bytes: usize,
    bytes_per_schedule: f64,
    v1_bytes: usize,
    compression_ratio: f64,
    encode_mbps: f64,
    decode_mbps: f64,
    import_ms: f64,
    warm_ram_replay_ms: f64,
    warm_disk_replay_ms: f64,
    disk_over_ram: f64,
    cold_rebuild_ms: f64,
    /// Skeleton orderings the disk-restored sessions re-packed during a
    /// full sweep-level replay — the acceptance demands zero.
    rebuild_packs: u64,
    /// Delta-prefix restores those sessions served during the same
    /// replay.
    prefix_hits: u64,
    import_restored: u64,
    import_dropped: u64,
}

/// The persistence bench: warm a fleet service, push its caches through
/// the v2 byte format, and prove a disk boot replays like the original
/// process — schedule hits at full caps, prefix-trie restores (zero
/// skeleton re-packs) when the schedule cache is starved away.
fn run_snapshot(quick: bool) -> SnapshotCell {
    let mut fleet: Vec<MixedSignalSoc> = vec![MixedSignalSoc::d695m()];
    if !quick {
        fleet.push(MixedSignalSoc::new("p22810m", msoc_itc02::synth::p22810s(), paper_cores()));
    }
    let synth_count = if quick { 2 } else { 3 };
    for digital in msoc_itc02::synth::random_fleet(
        43,
        synth_count,
        msoc_itc02::synth::RandomSocParams::default(),
    ) {
        let name = digital.name.clone();
        fleet.push(MixedSignalSoc::new(format!("{name}m"), digital, paper_cores()));
    }
    let widths: &[u32] = if quick { &[ACCEPTANCE_WIDTH] } else { &[24, ACCEPTANCE_WIDTH] };
    let opts = PlannerOptions { effort: Effort::Standard, ..PlannerOptions::default() };
    let jobs: Vec<Job> = fleet
        .iter()
        .flat_map(|soc| {
            widths.iter().map(|&w| {
                JobBuilder::new(soc.clone())
                    .single(w)
                    .weights(CostWeights::balanced())
                    .opts(opts.clone())
                    .build()
                    .expect("snapshot bench jobs are well-formed")
            })
        })
        .collect();
    let plan_of = |outcome: &JobOutcome, what: &str| -> PlanReport {
        match outcome {
            JobOutcome::Completed(report) => {
                report.result.plan().expect("single jobs return plans").clone()
            }
            other => panic!("{what} job did not complete: {other:?}"),
        }
    };

    let service = PlanService::new();
    let t0 = Instant::now();
    let baseline = service.submit(&jobs);
    let cold_rebuild_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Codec throughput and size accounting.
    let snapshot = service.export_snapshot();
    let t0 = Instant::now();
    let bytes = snapshot.to_bytes();
    let encode_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let decoded = ServiceSnapshot::from_bytes(&bytes).expect("own snapshot bytes decode");
    let decode_s = t0.elapsed().as_secs_f64();
    assert_eq!(decoded, snapshot, "snapshot must roundtrip through bytes");
    let stats = snapshot.stats();
    let mb = bytes.len() as f64 / (1024.0 * 1024.0);

    // Boot warm from "disk" (the decoded bytes) at full caps.
    let t0 = Instant::now();
    let imported = PlanService::from_snapshot(&decoded).expect("own snapshot imports");
    let import_ms = t0.elapsed().as_secs_f64() * 1e3;
    let booted = imported.stats();
    assert!(booted.sessions.import_restored > 0, "boot must restore checkpoints: {booted:?}");
    assert_eq!(booted.sessions.import_dropped, 0, "own snapshots drop nothing: {booted:?}");

    // Warm-from-disk vs warm-from-RAM: replay the whole workload on the
    // original (RAM-warm) service and on the disk boot; both are pure
    // cache service, so best-of-N walls should agree within noise.
    let replay_reps = 5;
    let replay_ms = |svc: &PlanService| -> f64 {
        (0..replay_reps)
            .map(|_| {
                let t = Instant::now();
                let replay = svc.submit(&jobs);
                let wall = t.elapsed().as_secs_f64() * 1e3;
                assert!(replay.iter().all(|o| o.report().is_some()), "replay jobs must plan");
                wall
            })
            .fold(f64::INFINITY, f64::min)
    };
    let warm_ram_replay_ms = replay_ms(&service);
    let warm_disk_replay_ms = replay_ms(&imported);
    let replay = imported.submit(&jobs);
    for ((job, b), r) in jobs.iter().zip(&baseline).zip(&replay) {
        let name = &job.soc().name;
        let (b, r) = (plan_of(b, "baseline"), plan_of(r, "disk-replay"));
        assert_eq!(b.best, r.best, "disk replay diverged for {name} w={}", b.tam_width);
        assert_eq!(b.schedule, r.schedule, "disk replay schedule diverged for {name}");
    }
    assert_eq!(
        imported.stats().schedule_misses,
        0,
        "full-cap disk replay must be pure schedule hits: {:?}",
        imported.stats()
    );

    // The trie acceptance: starve the schedule cache (one entry per
    // shard) so the replay is forced down to session-level packs — the
    // disk-restored tries must serve every skeleton ordering (zero
    // rebuild packs) and restore delta prefixes.
    let starved = PlanService::from_snapshot_with_caps(&decoded, 1, 256).expect("starved import");
    let before = starved.stats();
    let sweep = starved.submit(&jobs);
    for ((job, b), s) in jobs.iter().zip(&baseline).zip(&sweep) {
        let name = &job.soc().name;
        let (b, s) = (plan_of(b, "baseline"), plan_of(s, "starved-replay"));
        assert_eq!(b.best, s.best, "starved replay diverged for {name} w={}", b.tam_width);
        assert_eq!(b.schedule, s.schedule, "starved replay schedule diverged for {name}");
    }
    let after = starved.stats();
    let rebuild_packs = after.sessions.skeleton_misses - before.sessions.skeleton_misses;
    let prefix_hits = after.sessions.prefix_hits - before.sessions.prefix_hits;
    assert_eq!(
        rebuild_packs, 0,
        "disk-restored tries must serve every skeleton ordering: {after:?}"
    );
    assert!(prefix_hits > 0, "sweep replay must restore delta prefixes: {after:?}");

    SnapshotCell {
        sessions: stats.sessions,
        schedules: stats.schedules,
        trie_nodes: stats.trie_nodes,
        checkpoints: stats.checkpoints,
        total_bytes: stats.total_bytes,
        bytes_per_schedule: stats.total_bytes as f64 / stats.schedules.max(1) as f64,
        v1_bytes: stats.v1_bytes,
        compression_ratio: stats.compression_ratio,
        encode_mbps: mb / encode_s.max(1e-9),
        decode_mbps: mb / decode_s.max(1e-9),
        import_ms,
        warm_ram_replay_ms,
        warm_disk_replay_ms,
        disk_over_ram: warm_disk_replay_ms / warm_ram_replay_ms.max(1e-9),
        cold_rebuild_ms,
        rebuild_packs,
        prefix_hits,
        import_restored: booted.sessions.import_restored,
        import_dropped: booted.sessions.import_dropped,
    }
}

/// The streaming load run: a synthetic 10k-SOC fleet, one deterministic
/// popularity-skewed job-arrival trace, several submitter OS threads
/// against one sharded service — and the same trace replayed serially on
/// a fresh service for the bit-identity check and the 1-thread scaling
/// baseline.
struct LoadCell {
    socs: usize,
    jobs: usize,
    submitters: usize,
    wall_ms: f64,
    jobs_per_sec: f64,
    /// One submitter, `with_threads(1)` — the serial replay's throughput.
    jobs_per_sec_1t: f64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
    interrupted: u64,
    revision_cache_hits: u64,
    session_lookups: u64,
    schedule_lookups: u64,
    schedule_hits: u64,
    schedule_misses: u64,
    lock_contentions: u64,
    shard_max_contentions: u64,
    shard_max_lookups: u64,
    shard_min_lookups: u64,
    /// Pool counter deltas over the concurrent phase.
    pool_dispatches: u64,
    pool_steals: u64,
    pool_parks: u64,
    pool_unparks: u64,
    pool_workers: u64,
}

/// What one trace slot expects back, derived from how the job was built
/// (deterministic, so serial and concurrent runs are comparable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadExpect {
    Plan,
    DeadlineExceeded,
    Cancelled,
}

fn run_load(quick: bool) -> LoadCell {
    // Small synthetic cores keep a cold Quick plan cheap enough that a
    // 10k-SOC fleet's cold tail stays a load test, not a soak test.
    let params = msoc_itc02::synth::RandomSocParams {
        cores: 6,
        chains: (1, 6),
        chain_len: (20, 120),
        patterns: (10, 60),
        terminals: (4, 40),
    };
    let fleet_size = if quick { 300 } else { 10_000 };
    let trace_len = if quick { 240 } else { 4_000 };
    let submitters = if quick { 3 } else { 4 };
    let opts = PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() };
    let widths = [16u32, 24, 32];

    let service = PlanService::new();
    let handles: Vec<SocHandle> = msoc_itc02::synth::random_fleet(977, fleet_size, params)
        .into_iter()
        .map(|digital| {
            let name = format!("{}m", digital.name);
            service.register(MixedSignalSoc::new(name, digital, paper_cores()))
        })
        .collect();
    // The hot set: popularity-skewed traffic concentrates here, so warm
    // cache hits dominate the trace the way a real fleet's would.
    let hot: Vec<usize> = (0..32.min(fleet_size)).map(|i| (i * 97) % fleet_size).collect();
    // One revised handle per submitter (analog-only edits: same digital
    // skeleton, so the revision re-hits the original's session).
    let revised: Vec<SocHandle> = (0..submitters)
        .map(|s| {
            let handle = &handles[hot[s]];
            let mut core = handle.soc().analog[0].clone();
            core.tests[0].cycles += 1_000 * (s as u64 + 1);
            handle.revise(&[CoreEdit::ReplaceAnalog { index: 0, core }]).expect("edit well-formed")
        })
        .collect();

    // Deterministic trace: an LCG drives SOC choice, width, priority and
    // deadline mix. Slot `s` plans the original of hot SOC `s`, and the
    // *last* slot of submitter `s`'s round-robin partition plans its
    // revision — same partition, so the original is always planned first
    // and the revision provably re-hits warm content in both runs.
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        rng >> 33
    };
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let mut trace: Vec<(Job, LoadExpect)> = Vec::with_capacity(trace_len);
    for i in 0..trace_len {
        let leader = i < submitters;
        let closer = i + submitters >= trace_len;
        let (soc_idx, r) = if leader {
            (hot[i], next())
        } else {
            let r = next();
            let pick = next() as usize;
            (if r % 5 < 4 { hot[pick % hot.len()] } else { pick % fleet_size }, next())
        };
        let revision_slot = closer.then(|| i % submitters);
        // Leaders and revision closers share one pinned width, so each
        // closer's session lookup provably re-hits what its partition's
        // leader created.
        let width = if leader || closer { 24 } else { widths[r as usize % widths.len()] };
        let mut builder = match revision_slot {
            Some(s) => JobBuilder::for_handle(&revised[s]),
            None => JobBuilder::for_handle(&handles[soc_idx]),
        }
        .single(width)
        .weights(CostWeights::balanced())
        .opts(opts.clone());
        builder = match r % 7 {
            0 => builder.priority(Priority::High),
            1 => builder.priority(Priority::Low),
            _ => builder,
        };
        // Leaders, closers and most slots run to completion (some under a
        // generous deadline); a deterministic sprinkle of zero-budget
        // deadlines and pre-cancelled tokens exercises the interrupt
        // paths without touching the caches.
        let mut expect = LoadExpect::Plan;
        if !leader && !closer {
            match r % 23 {
                2 => {
                    builder = builder.deadline(Deadline::checks(0));
                    expect = LoadExpect::DeadlineExceeded;
                }
                3 => {
                    builder = builder.cancel_token(&cancelled);
                    expect = LoadExpect::Cancelled;
                }
                4..=8 => builder = builder.deadline(Deadline::checks(u64::MAX)),
                _ => {}
            }
        }
        trace.push((builder.build().expect("load jobs are well-formed"), expect));
    }

    let check = |outcome: &JobOutcome, expect: LoadExpect, i: usize| -> Option<PlanReport> {
        match (outcome, expect) {
            (JobOutcome::Completed(report), LoadExpect::Plan) => {
                Some(report.result.plan().expect("single jobs return plans").clone())
            }
            (JobOutcome::DeadlineExceeded { .. }, LoadExpect::DeadlineExceeded) => None,
            (JobOutcome::Cancelled, LoadExpect::Cancelled) => None,
            (other, expect) => panic!("load job {i} expected {expect:?}, got {other:?}"),
        }
    };

    // Serial reference: the whole trace, one job at a time, one thread,
    // fresh service. This is both the bit-identity oracle and the
    // 1-thread scaling baseline.
    let serial_service = PlanService::new();
    let t0 = Instant::now();
    let serial: Vec<Option<PlanReport>> = msoc_par::with_threads(1, || {
        trace
            .iter()
            .enumerate()
            .map(|(i, (job, expect))| {
                let outcome = &serial_service.submit(std::slice::from_ref(job))[0];
                check(outcome, *expect, i)
            })
            .collect()
    });
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Concurrent run: `submitters` OS threads stream their round-robin
    // partition through the shared sharded service, each recording its
    // own latency histogram (merged after the barrier). Planner-internal
    // maps run at a forced width ≥ 2 so the persistent pool engages even
    // on a 1-core host.
    let inner_width = msoc_par::max_threads().max(2);
    let pool_before = msoc_par::pool_stats();
    let t0 = Instant::now();
    let (histogram, outcomes) = std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..submitters)
            .map(|s| {
                let (trace, service) = (&trace, &service);
                scope.spawn(move || {
                    let mut histogram = LatencyHistogram::new();
                    let mut ran: Vec<(usize, JobOutcome)> = Vec::new();
                    for (i, (job, _)) in trace.iter().enumerate().skip(s).step_by(submitters) {
                        let t = Instant::now();
                        let outcome = msoc_par::with_threads(inner_width, || {
                            service.submit(std::slice::from_ref(job)).pop().expect("one outcome")
                        });
                        histogram.record(t.elapsed().as_micros() as u64);
                        ran.push((i, outcome));
                    }
                    (histogram, ran)
                })
            })
            .collect();
        let mut merged = LatencyHistogram::new();
        let mut outcomes: Vec<Option<JobOutcome>> = (0..trace.len()).map(|_| None).collect();
        for handle in spawned {
            let (histogram, ran) = handle.join().expect("submitter thread");
            merged.merge(&histogram);
            for (i, outcome) in ran {
                outcomes[i] = Some(outcome);
            }
        }
        (merged, outcomes)
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let pool_after = msoc_par::pool_stats();

    // The acceptance gate: every concurrent outcome bit-identical to the
    // serial replay (interrupted slots must interrupt the same way).
    for (i, (outcome, reference)) in outcomes.iter().zip(&serial).enumerate() {
        let outcome = outcome.as_ref().expect("every trace slot ran");
        let concurrent = check(outcome, trace[i].1, i);
        match (&concurrent, reference) {
            (Some(c), Some(r)) => {
                assert_eq!(c.best, r.best, "load job {i} diverged from serial replay");
                assert_eq!(c.schedule, r.schedule, "load job {i} schedule diverged");
            }
            (None, None) => {}
            other => panic!("load job {i} outcome kind diverged: {other:?}"),
        }
    }

    let stats = service.stats();
    assert!(stats.jobs_interrupted > 0, "the trace carries interrupts: {stats:?}");
    assert!(
        stats.revision_cache_hits >= submitters as u64,
        "every revision closer must re-hit warm content: {stats:?}"
    );
    assert_eq!(
        stats.session_hits + stats.session_misses,
        stats.session_lookups,
        "sharded session counters incoherent: {stats:?}"
    );
    assert_eq!(
        stats.schedule_hits + stats.schedule_misses,
        stats.schedule_lookups,
        "sharded schedule counters incoherent: {stats:?}"
    );
    let shards = service.shard_stats();
    assert_eq!(
        shards.iter().map(|s| s.live_sessions).sum::<u64>(),
        stats.live_sessions,
        "shard occupancy must sum to the aggregate"
    );

    LoadCell {
        socs: fleet_size,
        jobs: trace.len(),
        submitters,
        wall_ms,
        jobs_per_sec: trace.len() as f64 / (wall_ms / 1e3),
        jobs_per_sec_1t: trace.len() as f64 / (serial_ms / 1e3),
        p50_us: histogram.quantile(0.5),
        p99_us: histogram.quantile(0.99),
        max_us: histogram.quantile(1.0),
        interrupted: stats.jobs_interrupted,
        revision_cache_hits: stats.revision_cache_hits,
        session_lookups: stats.session_lookups,
        schedule_lookups: stats.schedule_lookups,
        schedule_hits: stats.schedule_hits,
        schedule_misses: stats.schedule_misses,
        lock_contentions: stats.lock_contentions,
        shard_max_contentions: shards.iter().map(|s| s.contentions).max().unwrap_or(0),
        shard_max_lookups: shards
            .iter()
            .map(|s| s.session_lookups + s.schedule_lookups)
            .max()
            .unwrap_or(0),
        shard_min_lookups: shards
            .iter()
            .map(|s| s.session_lookups + s.schedule_lookups)
            .min()
            .unwrap_or(0),
        pool_dispatches: pool_after.dispatches - pool_before.dispatches,
        pool_steals: pool_after.steals - pool_before.steals,
        pool_parks: pool_after.parks - pool_before.parks,
        pool_unparks: pool_after.unparks - pool_before.unparks,
        pool_workers: pool_after.workers,
    }
}

struct ResilienceCell {
    fault_percent: u32,
    rounds: usize,
    exports_persisted: u64,
    exports_failed: u64,
    put_retries: u64,
    backoff_ms: f64,
    injected_faults: u64,
    unchanged_skips: u64,
    pruned_generations: u64,
    export_ms: f64,
    recover_ms: f64,
    scanned: usize,
    quarantined: u64,
    quarantine_coherent: bool,
    recovered_generation: u64,
    replay_hits: u64,
    replay_misses: u64,
    replay_identical: bool,
    panic_failed_jobs: u64,
    shed_jobs: u64,
}

/// The fault-tolerance bench: an export→crash→boot loop through a
/// `FaultyStore` injecting IO errors, torn writes, silent bit flips and
/// stale reads into ≥30% of operations. The daemon must persist every
/// dirty generation within its backoff budget; after a crash plus
/// deliberate on-disk corruption, recovery must quarantine exactly the
/// damaged generations and replay the newest intact one with zero
/// schedule misses. Per-job degradation rides along: a deliberately
/// panicking job must fail alone (siblings bit-identical) and a capped
/// service must shed overflow as structured rejections.
fn run_resilience(quick: bool) -> ResilienceCell {
    let fault_percent = 35u32;
    let widths: &[u32] = if quick { &[16, 24, 32] } else { &[16, 20, 24, 28, 32] };
    let opts = PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() };
    let root = std::env::temp_dir().join(format!("msoc_bench_resilience_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = FaultyStore::new(
        DirStore::open(&root).expect("temp dir store"),
        0xBE7C_0DE5,
        fault_percent,
    );
    let service = PlanService::new();
    let config = DaemonConfig {
        max_attempts: 40,
        base_backoff: Duration::from_micros(20),
        max_backoff: Duration::from_millis(1),
        ..DaemonConfig::default()
    };
    let mut daemon = SnapshotDaemon::with_config(&service, &store, config);

    // Traffic rounds: warm new content, poll, and demand a persisted
    // generation each time — the daemon's core eventual-persistence
    // guarantee under fault injection.
    let job_of = |w: u32| {
        JobBuilder::new(MixedSignalSoc::d695m())
            .single(w)
            .weights(CostWeights::balanced())
            .opts(opts.clone())
            .build()
            .expect("resilience bench jobs are well-formed")
    };
    let mut baselines: Vec<PlanReport> = Vec::new();
    let t0 = Instant::now();
    for &width in widths {
        let outcome = service.submit(&[job_of(width)]).pop().expect("one outcome");
        baselines
            .push(outcome.report().expect("warm jobs plan").result.plan().expect("plan").clone());
        match daemon.poll() {
            ExportOutcome::Persisted { .. } => {}
            other => panic!(
                "the daemon must persist every dirty generation at {fault_percent}% faults: \
                 {other:?}"
            ),
        }
    }
    let export_ms = t0.elapsed().as_secs_f64() * 1e3;
    let dstats = daemon.stats();

    // Per-job panic isolation on the same service: the poisoned job
    // degrades to Failed, its sibling re-plans bit-identically.
    let poisoned = [
        job_of(widths[0]),
        JobBuilder::new(MixedSignalSoc::d695m())
            .single(widths[0])
            .opts(opts.clone())
            .inject_panic("bench fault injection")
            .build()
            .expect("poison job builds"),
    ];
    // The injected panic is caught per-job; silence the global hook so
    // the deliberate backtrace does not pollute the bench report.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcomes = service.submit(&poisoned);
    std::panic::set_hook(prev_hook);
    assert!(
        matches!(outcomes[1], JobOutcome::Failed { .. }),
        "the poisoned job must degrade to Failed: {:?}",
        outcomes[1]
    );
    let sibling = outcomes[0].report().expect("sibling completes").result.plan().unwrap();
    assert_eq!(
        sibling.best, baselines[0].best,
        "a panicked neighbor must not perturb sibling results"
    );
    let panic_failed_jobs = service.stats().jobs_failed;

    // Admission shedding on a capped twin: structured Overloaded
    // rejections for the overflow, never a panic or a hang.
    let capped = PlanService::new().with_admission_cap(1);
    let shed_outcomes = capped.submit(&[job_of(widths[0]), job_of(widths[0])]);
    assert!(
        shed_outcomes
            .iter()
            .any(|o| matches!(o, JobOutcome::Rejected(PlanError::Overloaded { .. }))),
        "a capped service must shed overflow as Overloaded"
    );
    let shed_jobs = capped.stats().jobs_shed;

    // Crash, then corrupt the newest generation the way a torn copy
    // would: recovery must quarantine it and boot the newest intact.
    let _ = daemon;
    drop(service);
    let inner = store.inner();
    let newest = inner
        .list()
        .expect("inner list")
        .into_iter()
        .filter(|n| parse_blob_name(n).is_some())
        .max_by_key(|n| parse_blob_name(n).unwrap().0)
        .expect("generations persisted");
    let mut bytes = inner.get(&newest).expect("inner get");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    inner.put(&newest, &bytes).expect("inject corruption");

    // Ground truth before recovery: which generations are intact?
    let mut on_disk: Vec<(u64, bool)> = Vec::new();
    for name in inner.list().expect("inner list") {
        let Some((generation, _)) = parse_blob_name(&name) else { continue };
        let intact = blob_name(generation, &inner.get(&name).expect("inner get")) == name;
        on_disk.push((generation, intact));
    }
    let newest_intact = on_disk
        .iter()
        .filter(|(_, intact)| *intact)
        .map(|(g, _)| *g)
        .max()
        .expect("an intact generation survives");
    let corrupt_newer =
        on_disk.iter().filter(|(g, intact)| !*intact && *g > newest_intact).count() as u64;

    let t0 = Instant::now();
    let report = recover(&store);
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        report.generation,
        Some(newest_intact),
        "recovery must boot the newest intact generation"
    );
    assert!(report.quarantined >= 1, "the corrupted generation must be quarantined");
    let quarantine_coherent = report.quarantined == corrupt_newer
        && report.service.stats().quarantined_generations == report.quarantined;

    // Bit-identical warm replay of everything the booted generation saw.
    let mut replay_identical = true;
    for (i, &width) in widths.iter().take(newest_intact as usize).enumerate() {
        let outcome = report.service.submit(&[job_of(width)]).pop().expect("one outcome");
        let plan = outcome.report().expect("replay plans").result.plan().expect("plan").clone();
        replay_identical &= plan.best == baselines[i].best;
    }
    let rstats = report.service.stats();
    let _ = std::fs::remove_dir_all(&root);

    ResilienceCell {
        fault_percent,
        rounds: widths.len(),
        exports_persisted: dstats.exports_persisted,
        exports_failed: dstats.exports_failed,
        put_retries: dstats.put_retries,
        backoff_ms: dstats.backoff_total.as_secs_f64() * 1e3,
        injected_faults: store.fault_counters().total(),
        unchanged_skips: dstats.unchanged_skips,
        pruned_generations: dstats.pruned_generations,
        export_ms,
        recover_ms,
        scanned: report.scanned,
        quarantined: report.quarantined,
        quarantine_coherent,
        recovered_generation: newest_intact,
        replay_hits: rstats.schedule_hits,
        replay_misses: rstats.schedule_misses,
        replay_identical,
        panic_failed_jobs,
        shed_jobs,
    }
}

/// The `server` section: the `msocd` daemon under concurrent TCP load,
/// with a kill-mid-load recovery drill.
struct ServerBench {
    clients: usize,
    jobs: u64,
    jobs_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    replay_identical: bool,
    queue_shed: u64,
    generations_persisted: u64,
    shard_exports_reused: u64,
    recovered_generation: u64,
    recover_ms: f64,
    warm_replay_hits: u64,
    warm_replay_misses: u64,
}

/// Boots the TCP daemon with persistent snapshots, streams a
/// deterministic mixed-priority trace from several concurrent clients
/// (outcomes compared byte-for-byte against a serial in-process
/// replay), forces a generation, pushes more traffic, then *kills* the
/// server (no shutdown flush) and recovers the tenant's shard from its
/// newest intact generation — the pre-kill trace must replay warm with
/// zero schedule misses. A second, depth-capped server demonstrates
/// queue-depth shedding as structured `Overloaded` outcomes.
fn run_server(quick: bool) -> ServerBench {
    use msoc_net::{build_trace, run_loopback, Client, ServerConfig, WireJob, WireOutcome};

    let root = std::env::temp_dir().join(format!("msoc_bench_server_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = ServerConfig {
        shards: 2,
        store_root: Some(root.clone()),
        snapshot_tick: Duration::from_millis(5),
        // The shutdown below simulates a kill: no final flush, so
        // recovery must work from what the ticker and the forced
        // snapshot persisted mid-load.
        flush_on_shutdown: false,
        ..ServerConfig::default()
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("ephemeral addr");
    let serve_config = config.clone();
    let server =
        std::thread::spawn(move || msoc_net::serve(listener, &serve_config).expect("serve"));

    // Phase 1: the measured load — concurrent clients, mixed
    // priorities, bit-identity against the serial oracle.
    let tenant = "bench-tenant";
    let clients = 3;
    let trace = build_trace(if quick { 10 } else { 30 }, 3, 0xB13D);
    let load = run_loopback(addr, tenant, &trace, clients).expect("loopback load");

    // Force a generation that provably covers phase 1, then push tail
    // traffic the kill is allowed to lose.
    let mut control = Client::connect(addr, tenant).expect("control client");
    control.snapshot_now().expect("forced snapshot");
    for batch in &build_trace(4, 2, 0xAF7E) {
        control.submit(batch.clone()).expect("tail traffic");
    }
    control.shutdown().expect("kill");
    let report = server.join().expect("server thread");
    let generations_persisted: u64 = report.shards.iter().map(|s| s.generations_persisted).sum();
    let shard_exports_reused: u64 = report.shards.iter().map(|s| s.shard_exports_reused).sum();

    // Recovery: open the killed tenant shard's store directly, boot the
    // newest intact generation, and replay the pre-kill trace — pure
    // cache traffic if the snapshot really carried the load.
    let shard = msoc_net::tenant_shard(tenant, config.shards);
    let store = DirStore::open(root.join(format!("shard-{shard}"))).expect("open shard store");
    let t0 = Instant::now();
    let recovered = recover(&store);
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let recovered_generation =
        recovered.generation.expect("a generation survived the mid-load kill");
    let registry = std::collections::HashMap::new();
    for batch in &trace {
        msoc_net::execute_jobs(&recovered.service, &registry, batch);
    }
    let warm = recovered.service.stats();

    // Queue-depth backpressure, demonstrated deterministically: depth 1
    // against a batch of 4 sheds exactly the 3 lowest-priority jobs.
    let shed_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let shed_addr = shed_listener.local_addr().expect("ephemeral addr");
    let shed_config =
        ServerConfig { shards: 1, queue_depth_cap: Some(1), ..ServerConfig::default() };
    let shed_server =
        std::thread::spawn(move || msoc_net::serve(shed_listener, &shed_config).expect("serve"));
    let mut shed_client = Client::connect(shed_addr, tenant).expect("shed client");
    let soc = msoc_net::WireSoc::from_soc(&MixedSignalSoc::d695m());
    let batch: Vec<WireJob> = [16u32, 20, 24, 28]
        .iter()
        .map(|&w| {
            WireJob::new(
                msoc_net::WireSocRef::Inline(soc.clone()),
                msoc_net::WireSpec::Single { width: w },
            )
        })
        .collect();
    let outcomes = shed_client.submit(batch).expect("overloaded submit");
    let queue_shed =
        outcomes.iter().filter(|o| matches!(o, WireOutcome::Overloaded { .. })).count() as u64;
    shed_client.shutdown().expect("shed server shutdown");
    shed_server.join().expect("shed server thread");

    let _ = std::fs::remove_dir_all(&root);
    ServerBench {
        clients,
        jobs: load.jobs,
        jobs_per_sec: load.jobs_per_sec,
        p50_us: load.p50_us,
        p99_us: load.p99_us,
        replay_identical: load.replay_identical,
        queue_shed,
        generations_persisted,
        shard_exports_reused,
        recovered_generation,
        recover_ms,
        warm_replay_hits: warm.schedule_hits,
        warm_replay_misses: warm.schedule_misses,
    }
}

fn main() {
    let quick = msoc_bench::has_flag("--quick");
    let reps = if quick { 1 } else { 3 };
    let out_path = std::env::args()
        .skip_while(|a| a != "--out")
        .nth(1)
        .unwrap_or_else(|| "BENCH_schedule.json".into());

    let soc = MixedSignalSoc::p93791m();
    let mut planner = Planner::new(&soc);
    // The paper's headline sharing configuration: {A, B, E}, {C, D}.
    let config = SharingConfig::new(5, vec![vec![0, 1, 4], vec![2, 3]]);

    let mut cells: Vec<Cell> = Vec::new();
    for w in WIDTHS {
        let problem = planner.build_problem(&config, w);
        let (fast, skyline_ms) = best_wall_ms(&problem, Engine::Skyline, reps);
        let (reference, naive_ms) = best_wall_ms(&problem, Engine::Naive, reps);
        assert_eq!(fast, reference, "engines must produce identical schedules (w={w})");
        fast.validate(&problem).expect("benched schedule must validate");
        println!(
            "w={w:<3} makespan={:<9} skyline={skyline_ms:>8.2} ms  naive={naive_ms:>8.2} ms  speedup={:.2}x",
            fast.makespan(),
            naive_ms / skyline_ms,
        );
        cells.push(Cell { tam_width: w, makespan: fast.makespan(), skyline_ms, naive_ms });
    }

    let acceptance = cells
        .iter()
        .find(|c| c.tam_width == ACCEPTANCE_WIDTH)
        .expect("acceptance width is benched");
    let speedup = acceptance.naive_ms / acceptance.skyline_ms;
    println!(
        "acceptance: w={ACCEPTANCE_WIDTH} speedup {speedup:.2}x (target >= 3x), makespans identical"
    );

    // The 26-candidate sharing sweep: per-instance session vs from-scratch
    // vs warm service.
    let sweep_widths: &[u32] = if quick { &[ACCEPTANCE_WIDTH] } else { &WIDTHS };
    let mut sweeps: Vec<SweepCell> = Vec::new();
    for &w in sweep_widths {
        let cell = run_sweep(&soc, w);
        println!(
            "sweep w={w:<3} {} candidates  session={:>9.2} ms  scratch={:>9.2} ms  speedup={:.2}x  \
             warm-service={:>7.2} ms ({:.1}x vs session)  skeleton hits/misses={}/{}  \
             prefix restores={} (depth<={})  pruned={}",
            cell.candidates,
            cell.session_ms,
            cell.scratch_ms,
            cell.scratch_ms / cell.session_ms,
            cell.service_warm_ms,
            cell.session_ms / cell.service_warm_ms,
            cell.skeleton_hits,
            cell.skeleton_misses,
            cell.prefix_jobs_restored,
            cell.max_prefix_depth,
            cell.pruned_passes,
        );
        sweeps.push(cell);
    }
    let sweep_acceptance =
        sweeps.iter().find(|c| c.tam_width == ACCEPTANCE_WIDTH).expect("acceptance width is swept");
    let sweep_speedup = sweep_acceptance.scratch_ms / sweep_acceptance.session_ms;
    let warm_sweep_speedup = sweep_acceptance.session_ms / sweep_acceptance.service_warm_ms;
    println!(
        "sweep acceptance: w={ACCEPTANCE_WIDTH} session speedup {sweep_speedup:.2}x, \
         warm service {warm_sweep_speedup:.2}x vs per-instance, schedules bit-identical"
    );

    // The cross-width table engine vs the per-width loop.
    let table = run_table(&soc);
    let ts = table.report.stats;
    let table_speedup = table.per_width_ms / table.table_ms;
    let cells_per_sec = ts.cells as f64 / (table.table_ms / 1e3);
    let cells_per_sec_1t = ts.cells as f64 / (table.table_ms_1t / 1e3);
    println!(
        "table {}x{} = {} cells  packed={}  pruned: width={} cost={} cross-width={}  \
         per-width-loop={:.2} ms  table={:.2} ms ({table_speedup:.2}x)",
        ts.cells / WIDTHS.len(),
        WIDTHS.len(),
        ts.cells,
        ts.packed,
        ts.width_bound_prunes,
        ts.cost_bound_prunes,
        ts.cross_width_prunes,
        table.per_width_ms,
        table.table_ms,
    );
    println!(
        "table msoc_par scaling: {cells_per_sec_1t:.1} cells/s at 1 thread vs \
         {cells_per_sec:.1} cells/s at {} threads ({:.2}x)  winner {} at W={} ({} cycles)",
        msoc_par::max_threads(),
        cells_per_sec / cells_per_sec_1t,
        table.report.best.config,
        table.report.winner_width,
        table.report.winner_makespan,
    );

    // The multi-SOC service fleet through the job API.
    let fleet = run_service_fleet(quick);
    let fleet_speedup = fleet.cold_ms / fleet.warm_ms;
    let revision_speedup = fleet.cold_ms / fleet.warm_revision_ms;
    println!(
        "service fleet: {} SOCs, {} jobs  cold={:.2} ms  warm={:.2} ms  speedup={:.2}x  \
         session hits={}  schedule hits/misses={}/{}",
        fleet.socs,
        fleet.requests,
        fleet.cold_ms,
        fleet.warm_ms,
        fleet_speedup,
        fleet.session_hits,
        fleet.schedule_hits,
        fleet.schedule_misses,
    );
    println!(
        "service api: 2-core revision re-plan={:.2} ms ({revision_speedup:.2}x vs cold, \
         {} revision cache hits)  snapshot={} schedules / {} bytes, replay bit-identical",
        fleet.warm_revision_ms,
        fleet.revision_cache_hits,
        fleet.snapshot_schedules,
        fleet.snapshot_bytes,
    );

    // The persistence tier: v2 snapshot codec + warm-from-disk boot.
    let snap = run_snapshot(quick);
    println!(
        "snapshot: {} sessions  {} schedules  {} trie nodes ({} checkpoints)  {} bytes \
         ({:.1} B/schedule, {:.1}x vs v1 layout)  encode={:.1} MB/s  decode={:.1} MB/s",
        snap.sessions,
        snap.schedules,
        snap.trie_nodes,
        snap.checkpoints,
        snap.total_bytes,
        snap.bytes_per_schedule,
        snap.compression_ratio,
        snap.encode_mbps,
        snap.decode_mbps,
    );
    println!(
        "snapshot boot: import={:.2} ms ({} checkpoints restored, {} dropped)  replay \
         ram={:.2} ms  disk={:.2} ms ({:.2}x)  cold rebuild={:.2} ms  \
         starved-cache sweep: rebuild packs={}  prefix restores={}",
        snap.import_ms,
        snap.import_restored,
        snap.import_dropped,
        snap.warm_ram_replay_ms,
        snap.warm_disk_replay_ms,
        snap.disk_over_ram,
        snap.cold_rebuild_ms,
        snap.rebuild_packs,
        snap.prefix_hits,
    );

    // The streaming load harness: a synthetic fleet under a deterministic
    // multi-submitter job trace, with a serial bit-identity replay.
    let load = run_load(quick);
    println!(
        "load: {} SOCs  {} jobs  {} submitters  {:.2} ms  {:.1} jobs/s ({:.1} at 1 thread)  \
         p50={} us  p99={} us  interrupted={}  revision hits={}",
        load.socs,
        load.jobs,
        load.submitters,
        load.wall_ms,
        load.jobs_per_sec,
        load.jobs_per_sec_1t,
        load.p50_us,
        load.p99_us,
        load.interrupted,
        load.revision_cache_hits,
    );
    println!(
        "load shards/pool: contentions={} (max/shard {})  lookups/shard min..max={}..{}  \
         pool dispatches={} steals={} parks={} unparks={} workers={}",
        load.lock_contentions,
        load.shard_max_contentions,
        load.shard_min_lookups,
        load.shard_max_lookups,
        load.pool_dispatches,
        load.pool_steals,
        load.pool_parks,
        load.pool_unparks,
        load.pool_workers,
    );

    // The fault-tolerance loop: export→crash→boot through a seeded
    // faulty store, with panic isolation and admission shedding riding
    // along.
    let res = run_resilience(quick);
    println!(
        "resilience: {}% faults  {} rounds  {} generations persisted ({} failed)  {} retries  \
         {:.2} ms backoff  {} faults injected  {} pruned",
        res.fault_percent,
        res.rounds,
        res.exports_persisted,
        res.exports_failed,
        res.put_retries,
        res.backoff_ms,
        res.injected_faults,
        res.pruned_generations,
    );
    println!(
        "resilience boot: scanned {}  quarantined {} (coherent={})  booted generation {}  \
         replay hits={} misses={} identical={}  recover={:.2} ms  panic-failed jobs={}  \
         shed jobs={}",
        res.scanned,
        res.quarantined,
        res.quarantine_coherent,
        res.recovered_generation,
        res.replay_hits,
        res.replay_misses,
        res.replay_identical,
        res.recover_ms,
        res.panic_failed_jobs,
        res.shed_jobs,
    );

    // The network tier: the msocd daemon under concurrent TCP load,
    // killed mid-load and recovered from its snapshots.
    let srv = run_server(quick);
    println!(
        "server: {} clients  {} jobs  {:.1} jobs/s  p50={} us  p99={} us  \
         replay identical={}  queue shed={}",
        srv.clients,
        srv.jobs,
        srv.jobs_per_sec,
        srv.p50_us,
        srv.p99_us,
        srv.replay_identical,
        srv.queue_shed,
    );
    println!(
        "server recovery: {} generations persisted mid-load ({} shard exports reused)  \
         kill-recovered generation {} in {:.2} ms  warm replay hits/misses={}/{}",
        srv.generations_persisted,
        srv.shard_exports_reused,
        srv.recovered_generation,
        srv.recover_ms,
        srv.warm_replay_hits,
        srv.warm_replay_misses,
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"p93791m\",\n");
    json.push_str("  \"sharing_config\": \"{A,B,E},{C,D}\",\n");
    json.push_str("  \"effort\": \"Thorough\",\n");
    json.push_str(&format!("  \"repetitions\": {reps},\n"));
    json.push_str(&format!("  \"host_threads\": {},\n", msoc_par::max_threads()));
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tam_width\": {}, \"makespan\": {}, \"skyline_ms\": {:.3}, \"naive_ms\": {:.3}, \"speedup\": {:.3}}}{}\n",
            c.tam_width,
            c.makespan,
            c.skyline_ms,
            c.naive_ms,
            c.naive_ms / c.skyline_ms,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"sweep\": [\n");
    for (i, c) in sweeps.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tam_width\": {}, \"candidates\": {}, \"winner_makespan\": {}, \"session_ms\": {:.3}, \"scratch_ms\": {:.3}, \"speedup\": {:.3}, \"service_warm_ms\": {:.3}, \"warm_speedup\": {:.3}, \"skeleton_hits\": {}, \"skeleton_misses\": {}, \"pruned_passes\": {}, \"prefix_hits\": {}, \"prefix_jobs_restored\": {}, \"max_prefix_depth\": {}}}{}\n",
            c.tam_width,
            c.candidates,
            c.winner_makespan,
            c.session_ms,
            c.scratch_ms,
            c.scratch_ms / c.session_ms,
            c.service_warm_ms,
            c.session_ms / c.service_warm_ms,
            c.skeleton_hits,
            c.skeleton_misses,
            c.pruned_passes,
            c.prefix_hits,
            c.prefix_jobs_restored,
            c.max_prefix_depth,
            if i + 1 == sweeps.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"table\": {{\"configs\": {}, \"widths\": {}, \"cells\": {}, \"packed\": {}, \"width_bound_prunes\": {}, \"cost_bound_prunes\": {}, \"cross_width_prunes\": {}, \"waves\": {}, \"per_width_ms\": {:.3}, \"table_ms\": {:.3}, \"speedup\": {:.3}, \"table_ms_1t\": {:.3}, \"cells_per_sec_1t\": {:.1}, \"cells_per_sec\": {:.1}, \"host_threads\": {}, \"winner_config\": \"{}\", \"winner_width\": {}, \"winner_makespan\": {}}},\n",
        ts.cells / WIDTHS.len(),
        WIDTHS.len(),
        ts.cells,
        ts.packed,
        ts.width_bound_prunes,
        ts.cost_bound_prunes,
        ts.cross_width_prunes,
        ts.waves,
        table.per_width_ms,
        table.table_ms,
        table_speedup,
        table.table_ms_1t,
        cells_per_sec_1t,
        cells_per_sec,
        msoc_par::max_threads(),
        table.report.best.config,
        table.report.winner_width,
        table.report.winner_makespan,
    ));
    json.push_str(&format!(
        "  \"service\": {{\"effort\": \"Standard\", \"socs\": {}, \"requests\": {}, \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"warm_speedup\": {:.3}, \"session_hits\": {}, \"schedule_hits\": {}, \"schedule_misses\": {}, \"prefix_jobs_restored\": {}, \"max_prefix_depth\": {}}},\n",
        fleet.socs,
        fleet.requests,
        fleet.cold_ms,
        fleet.warm_ms,
        fleet_speedup,
        fleet.session_hits,
        fleet.schedule_hits,
        fleet.schedule_misses,
        fleet.prefix_jobs_restored,
        fleet.max_prefix_depth,
    ));
    json.push_str(&format!(
        "  \"service_api\": {{\"jobs\": {}, \"revised_cores\": 2, \"cold_ms\": {:.3}, \"warm_revision_ms\": {:.3}, \"warm_revision_speedup\": {revision_speedup:.3}, \"revision_cache_hits\": {}, \"snapshot_bytes\": {}, \"snapshot_schedules\": {}, \"snapshot_replay_misses\": 0}},\n",
        fleet.requests,
        fleet.cold_ms,
        fleet.warm_revision_ms,
        fleet.revision_cache_hits,
        fleet.snapshot_bytes,
        fleet.snapshot_schedules,
    ));
    json.push_str(&format!(
        "  \"snapshot\": {{\"sessions\": {}, \"schedules\": {}, \"trie_nodes\": {}, \"checkpoints\": {}, \"total_bytes\": {}, \"bytes_per_schedule\": {:.1}, \"v1_bytes\": {}, \"compression_ratio\": {:.3}, \"encode_mbps\": {:.1}, \"decode_mbps\": {:.1}, \"import_ms\": {:.3}, \"warm_ram_replay_ms\": {:.3}, \"warm_disk_replay_ms\": {:.3}, \"disk_over_ram\": {:.3}, \"cold_rebuild_ms\": {:.3}, \"rebuild_packs\": {}, \"prefix_hits\": {}, \"import_restored\": {}, \"import_dropped\": {}}},\n",
        snap.sessions,
        snap.schedules,
        snap.trie_nodes,
        snap.checkpoints,
        snap.total_bytes,
        snap.bytes_per_schedule,
        snap.v1_bytes,
        snap.compression_ratio,
        snap.encode_mbps,
        snap.decode_mbps,
        snap.import_ms,
        snap.warm_ram_replay_ms,
        snap.warm_disk_replay_ms,
        snap.disk_over_ram,
        snap.cold_rebuild_ms,
        snap.rebuild_packs,
        snap.prefix_hits,
        snap.import_restored,
        snap.import_dropped,
    ));
    json.push_str(&format!(
        "  \"load\": {{\"effort\": \"Quick\", \"socs\": {}, \"jobs\": {}, \"submitters\": {}, \"wall_ms\": {:.3}, \"jobs_per_sec\": {:.1}, \"jobs_per_sec_1t\": {:.1}, \"scaling\": {:.3}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}, \"interrupted\": {}, \"revision_cache_hits\": {}, \"session_lookups\": {}, \"schedule_lookups\": {}, \"schedule_hits\": {}, \"schedule_misses\": {}, \"shard_contentions\": {}, \"shard_max_contentions\": {}, \"shard_lookups_min\": {}, \"shard_lookups_max\": {}, \"pool_dispatches\": {}, \"pool_steals\": {}, \"pool_parks\": {}, \"pool_unparks\": {}, \"pool_workers\": {}, \"serial_replay_identical\": true}},\n",
        load.socs,
        load.jobs,
        load.submitters,
        load.wall_ms,
        load.jobs_per_sec,
        load.jobs_per_sec_1t,
        load.jobs_per_sec / load.jobs_per_sec_1t,
        load.p50_us,
        load.p99_us,
        load.max_us,
        load.interrupted,
        load.revision_cache_hits,
        load.session_lookups,
        load.schedule_lookups,
        load.schedule_hits,
        load.schedule_misses,
        load.lock_contentions,
        load.shard_max_contentions,
        load.shard_min_lookups,
        load.shard_max_lookups,
        load.pool_dispatches,
        load.pool_steals,
        load.pool_parks,
        load.pool_unparks,
        load.pool_workers,
    ));
    json.push_str(&format!(
        "  \"resilience\": {{\"fault_percent\": {}, \"rounds\": {}, \"exports_persisted\": {}, \"exports_failed\": {}, \"put_retries\": {}, \"backoff_ms\": {:.3}, \"injected_faults\": {}, \"unchanged_skips\": {}, \"pruned_generations\": {}, \"export_ms\": {:.3}, \"recover_ms\": {:.3}, \"scanned\": {}, \"quarantined\": {}, \"quarantine_coherent\": {}, \"recovered_generation\": {}, \"replay_hits\": {}, \"replay_misses\": {}, \"replay_identical\": {}, \"panic_failed_jobs\": {}, \"shed_jobs\": {}}},\n",
        res.fault_percent,
        res.rounds,
        res.exports_persisted,
        res.exports_failed,
        res.put_retries,
        res.backoff_ms,
        res.injected_faults,
        res.unchanged_skips,
        res.pruned_generations,
        res.export_ms,
        res.recover_ms,
        res.scanned,
        res.quarantined,
        res.quarantine_coherent,
        res.recovered_generation,
        res.replay_hits,
        res.replay_misses,
        res.replay_identical,
        res.panic_failed_jobs,
        res.shed_jobs,
    ));
    json.push_str(&format!(
        "  \"server\": {{\"clients\": {}, \"jobs\": {}, \"jobs_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"replay_identical\": {}, \"queue_shed\": {}, \"generations_persisted\": {}, \"shard_exports_reused\": {}, \"recovered_generation\": {}, \"recover_ms\": {:.3}, \"warm_replay_hits\": {}, \"warm_replay_misses\": {}}},\n",
        srv.clients,
        srv.jobs,
        srv.jobs_per_sec,
        srv.p50_us,
        srv.p99_us,
        srv.replay_identical,
        srv.queue_shed,
        srv.generations_persisted,
        srv.shard_exports_reused,
        srv.recovered_generation,
        srv.recover_ms,
        srv.warm_replay_hits,
        srv.warm_replay_misses,
    ));
    json.push_str(&format!(
        "  \"acceptance\": {{\"tam_width\": {ACCEPTANCE_WIDTH}, \"speedup\": {speedup:.3}, \"sweep_speedup\": {sweep_speedup:.3}, \"warm_sweep_speedup\": {warm_sweep_speedup:.3}, \"fleet_warm_speedup\": {fleet_speedup:.3}, \"table_speedup\": {table_speedup:.3}, \"table_cross_width_prunes\": {}, \"warm_revision_speedup\": {revision_speedup:.3}, \"load_jobs_per_sec\": {:.1}, \"load_p99_us\": {}, \"load_pool_steals\": {}, \"load_serial_replay_identical\": true, \"snapshot_compression_ratio\": {:.3}, \"snapshot_disk_over_ram\": {:.3}, \"snapshot_rebuild_packs\": {}, \"snapshot_prefix_hits\": {}, \"identical_makespans\": true}}\n",
        ts.cross_width_prunes,
        load.jobs_per_sec,
        load.p99_us,
        load.pool_steals,
        snap.compression_ratio,
        snap.disk_over_ram,
        snap.rebuild_packs,
        snap.prefix_hits,
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_schedule.json");
    println!("wrote {out_path}");

    assert!(
        quick || speedup >= 3.0,
        "skyline path regressed below the 3x acceptance bar: {speedup:.2}x"
    );
    assert!(
        sweep_speedup >= 1.0,
        "the pack session made the sweep slower than from-scratch: {sweep_speedup:.2}x"
    );
    assert!(
        warm_sweep_speedup >= MIN_WARM_SWEEP_SPEEDUP,
        "warm service must beat the per-instance sweep by >= {MIN_WARM_SWEEP_SPEEDUP}x: \
         {warm_sweep_speedup:.2}x"
    );
    assert!(
        fleet_speedup >= MIN_FLEET_WARM_SPEEDUP,
        "warm fleet batch must beat cold by >= {MIN_FLEET_WARM_SPEEDUP}x: {fleet_speedup:.2}x"
    );
    assert!(
        table_speedup >= MIN_TABLE_SPEEDUP,
        "the table engine must beat the per-width loop by >= {MIN_TABLE_SPEEDUP}x: \
         {table_speedup:.2}x"
    );
    assert!(
        revision_speedup >= MIN_REVISION_SPEEDUP,
        "a 2-core revision re-plan must beat the cold fleet by >= {MIN_REVISION_SPEEDUP}x: \
         {revision_speedup:.2}x"
    );
    assert!(
        fleet.revision_cache_hits > 0,
        "the revised fleet re-plan recorded no revision cache hits"
    );
    assert!(load.jobs_per_sec > 0.0, "the load harness recorded no throughput");
    assert!(load.p99_us > 0, "the load harness recorded no latency");
    assert!(
        load.pool_dispatches > 0 && load.pool_steals > 0,
        "the persistent pool never engaged under load: dispatches={} steals={}",
        load.pool_dispatches,
        load.pool_steals,
    );
    assert!(
        snap.compression_ratio > 1.5,
        "the v2 snapshot codec must beat the v1 layout by > 1.5x on shared content: \
         {:.3}x",
        snap.compression_ratio,
    );
    assert_eq!(
        snap.rebuild_packs, 0,
        "a warm-from-disk service re-packed a skeleton the snapshot carried"
    );
    assert!(
        snap.prefix_hits > 0,
        "the starved-cache sweep restored no checkpoint prefixes from disk"
    );
    assert!(
        quick || snap.disk_over_ram <= 1.3,
        "warm-from-disk replay must stay within 1.3x of warm-from-RAM: {:.3}x",
        snap.disk_over_ram,
    );
    assert_eq!(
        res.exports_failed, 0,
        "the daemon gave up on a generation inside its backoff budget"
    );
    assert!(
        res.put_retries > 0,
        "a {}% fault rate forced no retries — the injector is dead",
        res.fault_percent,
    );
    assert!(res.injected_faults > 0, "the faulty store injected nothing");
    assert!(
        res.quarantined >= 1 && res.quarantine_coherent,
        "boot-time quarantine accounting is incoherent: quarantined={} coherent={}",
        res.quarantined,
        res.quarantine_coherent,
    );
    assert_eq!(
        res.replay_misses, 0,
        "the recovered service re-packed schedules its snapshot carried"
    );
    assert!(res.replay_identical, "the recovered replay diverged from the exporter");
    assert!(res.panic_failed_jobs == 1 && res.shed_jobs == 1, "per-job degradation miscounted");
    assert!(
        srv.replay_identical,
        "concurrent TCP outcomes diverged from the serial in-process replay"
    );
    assert!(srv.jobs_per_sec > 0.0, "the TCP load harness recorded no throughput");
    assert!(srv.p99_us > 0, "the TCP load harness recorded no latency");
    assert!(srv.generations_persisted >= 1, "no generation persisted before the mid-load kill");
    assert!(srv.recovered_generation >= 1, "recovery booted no generation after the kill");
    assert_eq!(
        srv.warm_replay_misses, 0,
        "the kill-recovered shard re-packed schedules its snapshot carried"
    );
    assert!(srv.warm_replay_hits > 0, "the kill-recovered replay hit nothing");
    assert_eq!(srv.queue_shed, 3, "queue depth 1 against a 4-job batch must shed exactly 3 jobs");
}
