//! The exact performance report: writes `BENCH_schedule.json`.
//!
//! ```text
//! cargo run --release -p msoc-bench --bin bench [-- --out <path>]
//! git diff --exit-code BENCH_schedule.json
//! ```
//!
//! The file holds only exact fields — makespans, winners, prune, reuse,
//! hit and byte counters, replay-identity flags — so a rerun reproduces
//! it byte for byte and `git diff` is the regression check: a change that
//! moves a makespan or a counter shows up in the diff. Wall times go to
//! stdout only (`perfbench/` measures time properly). Counters that race
//! by design under concurrency — the load trace's schedule hits and
//! misses, shard lock contentions, the pool counters, the server's
//! ticker-driven generation counts — stay out of the file; their
//! invariants are asserted here instead. The `sweep`, `service` and
//! `snapshot` sections run under `msoc_par::with_threads(1, …)` because
//! concurrent passes race on the checkpoint trie (its reuse counters and
//! the LRU ticks a snapshot encodes), so the file depends on neither
//! `MSOC_THREADS` nor the core count.
//!
//! Sections, each asserting its own invariants before it reports:
//!
//! * `results` — the paper's headline `{A,B,E},{C,D}` configuration on
//!   `p93791m` at every width, at `Effort::Thorough`: the skyline engine's
//!   makespan, asserted identical to the naive reference engine's.
//! * `sweep` — the 26-candidate sharing sweep per width through a pack
//!   session, asserted bit-identical to packing every candidate from
//!   scratch, with its skeleton-reuse and delta-prefix counters; a warm
//!   `PlanService` replays the sweep with zero schedule and skeleton
//!   misses.
//! * `table` — the 26 × 5 cross-width table (`plan_table`), every packed
//!   cell asserted equal to the per-width loop's makespan and
//!   thread-count independent; `loop_packs` vs `table_packs` is the work
//!   the shared incumbent saves.
//! * `service` — a multi-SOC fleet through the job API: cold, a warm
//!   replay (zero schedule and skeleton misses), a two-cores-revised
//!   re-plan (revision cache hits), and a snapshot export → import →
//!   replay with zero misses.
//! * `snapshot` — the v2 snapshot's exact size and record counts, a boot
//!   from its bytes, and a starved-schedule-cache sweep that restores
//!   checkpoint prefixes from the persisted tries with zero skeleton
//!   re-packs.
//! * `load` — a 10k-SOC synthetic fleet under a deterministic
//!   popularity-skewed job trace from several submitter threads, every
//!   outcome asserted bit-identical to a serial replay.
//! * `resilience` — an export → crash → boot loop through a seeded
//!   35%-fault store: quarantine, bit-identical warm replay, per-job panic
//!   isolation and admission shedding.
//! * `server` — the `msocd` daemon under concurrent TCP clients (outcomes
//!   byte-identical to a serial replay), killed mid-load and recovered
//!   with zero warm-replay misses, plus deterministic queue-depth
//!   shedding.

use std::time::{Duration, Instant};

use msoc_analog::paper_cores;
use msoc_bench::{render_report, Fields};
use msoc_core::{
    blob_name, parse_blob_name, recover, CancelToken, CoreEdit, CostWeights, DaemonConfig,
    Deadline, DirStore, ExportOutcome, FaultyStore, Job, JobBuilder, JobOutcome, LatencyHistogram,
    MixedSignalSoc, PlanError, PlanReport, PlanService, Planner, PlannerOptions, Priority,
    ServiceSnapshot, SharingConfig, SnapshotDaemon, SnapshotStore, SocHandle,
};
use msoc_tam::{
    schedule_with_effort, schedule_with_engine, Effort, Engine, Schedule, ScheduleProblem,
};

const WIDTHS: [u32; 5] = [16, 24, 32, 48, 64];
const MIN_SKELETON_REUSES_PER_WIDTH: u64 = 20;

/// Runs `f` once: its result and its wall time in milliseconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let result = f();
    (result, t0.elapsed().as_secs_f64() * 1e3)
}

/// The plan a completed single-width job returned.
fn plan_of(outcome: &JobOutcome, what: &str) -> PlanReport {
    match outcome {
        JobOutcome::Completed(report) => {
            report.result.plan().expect("single jobs return plans").clone()
        }
        other => panic!("{what} job did not complete: {other:?}"),
    }
}

/// Panics unless `a` and `b` planned every job identically.
fn assert_same_plans(jobs: &[Job], a: &[JobOutcome], b: &[JobOutcome], what: &str) {
    for ((job, a), b) in jobs.iter().zip(a).zip(b) {
        let (a, b) = (plan_of(a, "reference"), plan_of(b, what));
        let name = &job.soc().name;
        assert_eq!(a.best, b.best, "{what} plan diverged for {name} w={}", a.tam_width);
        assert_eq!(a.schedule, b.schedule, "{what} schedule diverged for {name}");
    }
}

/// Single-width jobs for every SOC of `fleet` at every width.
fn fleet_jobs(fleet: &[JobBuilder], widths: &[u32], effort: Effort) -> Vec<Job> {
    let opts = PlannerOptions { effort, ..PlannerOptions::default() };
    fleet
        .iter()
        .flat_map(|builder| {
            widths.iter().map(|&w| {
                builder
                    .clone()
                    .single(w)
                    .weights(CostWeights::balanced())
                    .opts(opts.clone())
                    .build()
                    .expect("fleet jobs are well-formed")
            })
        })
        .collect()
}

/// `d695m`, `p22810m`, optionally `p93791m`, and `synth` random SOCs.
fn fleet(with_p93791m: bool, seed: u64, synth: usize) -> Vec<MixedSignalSoc> {
    let mut fleet = vec![
        MixedSignalSoc::d695m(),
        MixedSignalSoc::new("p22810m", msoc_itc02::synth::p22810s(), paper_cores()),
    ];
    if with_p93791m {
        fleet.push(MixedSignalSoc::p93791m());
    }
    for digital in
        msoc_itc02::synth::random_fleet(seed, synth, msoc_itc02::synth::RandomSocParams::default())
    {
        let name = format!("{}m", digital.name);
        fleet.push(MixedSignalSoc::new(name, digital, paper_cores()));
    }
    fleet
}

/// `results`: the paper's headline sharing configuration packed at every
/// width by the skyline engine and by the naive reference engine.
fn run_engines(soc: &MixedSignalSoc) -> [Fields; WIDTHS.len()] {
    let mut planner = Planner::new(soc);
    // The paper's headline sharing configuration: {A, B, E}, {C, D}.
    let config = SharingConfig::new(5, vec![vec![0, 1, 4], vec![2, 3]]);
    let pack = |problem: &ScheduleProblem, engine| {
        timed(|| {
            schedule_with_engine(problem, Effort::Thorough, engine)
                .expect("p93791m is feasible at every benched width")
        })
    };
    WIDTHS.map(|w| {
        let problem = planner.build_problem(&config, w);
        let (fast, skyline_ms) = pack(&problem, Engine::Skyline);
        let (reference, naive_ms) = pack(&problem, Engine::Naive);
        assert_eq!(fast, reference, "engines must produce identical schedules (w={w})");
        fast.validate(&problem).expect("benched schedule must validate");
        println!(
            "w={w:<3} makespan={:<9} skyline={skyline_ms:>8.2} ms  naive={naive_ms:>8.2} ms",
            fast.makespan(),
        );
        vec![("tam_width", w.into()), ("makespan", fast.makespan().into())]
    })
}

/// One `sweep` row: the 26-candidate sweep at width `w` through a pack
/// session, checked against from-scratch packs, then replayed warm
/// through a `PlanService` by a second planner.
fn run_sweep(soc: &MixedSignalSoc, w: u32) -> Fields {
    let opts = || PlannerOptions { effort: Effort::Thorough, ..PlannerOptions::default() };
    let mut planner = Planner::with_options(soc, opts());
    let candidates = planner.candidates();
    let ((), session_ms) =
        timed(|| planner.schedule_batch(&candidates, w).expect("sweep is feasible"));
    let stats = planner.stats();

    // From-scratch reference: pack every candidate's problem directly.
    let problems: Vec<ScheduleProblem> =
        candidates.iter().map(|c| planner.build_problem(c, w)).collect();
    let (scratch, scratch_ms) = timed(|| {
        problems
            .iter()
            .map(|p| schedule_with_effort(p, Effort::Thorough).expect("sweep is feasible"))
            .collect::<Vec<Schedule>>()
    });
    for (config, scratch) in candidates.iter().zip(&scratch) {
        let via_session = planner.schedule_for(config, w).expect("cached by the batch");
        assert_eq!(
            via_session, scratch,
            "session schedule diverged from from-scratch for {config} at w={w}"
        );
    }
    let winner_makespan =
        scratch.iter().map(Schedule::makespan).min().expect("candidate set is never empty");

    // Warm-service replay: fill a service once, then run the same sweep
    // from a *new* planner against it — pure cache traffic.
    let service = PlanService::new();
    Planner::with_service(soc, opts(), &service)
        .schedule_batch(&candidates, w)
        .expect("sweep is feasible");
    let cold = service.stats();
    let mut warm = Planner::with_service(soc, opts(), &service);
    let ((), warm_ms) = timed(|| warm.schedule_batch(&candidates, w).expect("sweep is feasible"));
    let after = service.stats();
    for (config, scratch) in candidates.iter().zip(&scratch) {
        let via_warm = warm.schedule_for(config, w).expect("cached by the warm batch");
        assert_eq!(
            via_warm, scratch,
            "warm-service schedule diverged from from-scratch for {config} at w={w}"
        );
    }
    assert_eq!(after.schedule_misses, cold.schedule_misses, "warm sweep packed: {after:?}");
    let warm_skeleton_misses = after.sessions.skeleton_misses - cold.sessions.skeleton_misses;
    assert_eq!(warm_skeleton_misses, 0, "an all-hit warm sweep re-packed skeletons: {after:?}");

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
    println!(
        "sweep w={w:<3} session={session_ms:>9.2} ms  scratch={scratch_ms:>9.2} ms  \
         warm-service={warm_ms:>7.2} ms"
    );

    vec![
        ("tam_width", w.into()),
        ("candidates", candidates.len().into()),
        ("winner_makespan", winner_makespan.into()),
        ("skeleton_hits", stats.skeleton_hits.into()),
        ("skeleton_misses", stats.skeleton_misses.into()),
        ("pruned_passes", stats.pruned_passes.into()),
        ("prefix_hits", stats.prefix_hits.into()),
        ("prefix_jobs_restored", stats.prefix_jobs_restored.into()),
        ("max_prefix_depth", stats.max_prefix_depth.into()),
        ("warm_schedule_hits", (after.schedule_hits - cold.schedule_hits).into()),
        ("warm_skeleton_misses", warm_skeleton_misses.into()),
    ]
}

/// `table`: the full 26-config × 5-width matrix as a per-width loop (five
/// `schedule_batch` sweeps) and as the cross-width table engine, then the
/// table again at one thread. Every packed table cell must equal the
/// loop's makespan, and the thread count must not change the table.
fn run_table(soc: &MixedSignalSoc) -> Fields {
    let opts = || PlannerOptions { effort: Effort::Thorough, ..PlannerOptions::default() };
    let candidates = Planner::with_options(soc, opts()).candidates();
    let weights = CostWeights::balanced();
    let plan_table = |service: &PlanService| {
        Planner::with_service(soc, opts(), service)
            .plan_table(&candidates, &WIDTHS, weights)
            .expect("table is feasible")
    };

    let loop_service = PlanService::new();
    let (mut loop_planner, loop_ms) = timed(|| {
        let mut planner = Planner::with_service(soc, opts(), &loop_service);
        for &w in &WIDTHS {
            planner.schedule_batch(&candidates, w).expect("per-width sweep is feasible");
        }
        planner
    });
    let table_service = PlanService::new();
    let (report, table_ms) = timed(|| plan_table(&table_service));
    let (report_1t, table_ms_1t) =
        timed(|| msoc_par::with_threads(1, || plan_table(&PlanService::new())));
    assert_eq!(report_1t, report, "thread count must not change the table result");

    for (ci, config) in candidates.iter().enumerate() {
        for (wi, &w) in WIDTHS.iter().enumerate() {
            if let Some(m) = report.makespan(ci, wi) {
                let loop_m = loop_planner.makespan(config, w).expect("cached by the loop");
                assert_eq!(m, loop_m, "table cell ({config}, w={w}) diverged from the loop");
            }
        }
    }
    let s = report.stats;
    assert!(s.cross_width_prunes > 0, "the shared incumbent must prune across widths: {s:?}");
    // Schedules packed: every distinct (config, width) key is one miss.
    let loop_packs = loop_service.stats().schedule_misses;
    let table_packs = table_service.stats().schedule_misses;
    assert!(table_packs < loop_packs, "the table packed {table_packs} of {loop_packs} cells");
    println!(
        "table {} cells  packed={}  per-width loop={loop_ms:.2} ms  table={table_ms:.2} ms  \
         table at 1 thread={table_ms_1t:.2} ms",
        s.cells, s.packed,
    );

    vec![
        ("configs", (s.cells / WIDTHS.len()).into()),
        ("widths", WIDTHS.len().into()),
        ("cells", s.cells.into()),
        ("packed", s.packed.into()),
        ("width_bound_prunes", s.width_bound_prunes.into()),
        ("cost_bound_prunes", s.cost_bound_prunes.into()),
        ("cross_width_prunes", s.cross_width_prunes.into()),
        ("waves", s.waves.into()),
        ("loop_packs", loop_packs.into()),
        ("table_packs", table_packs.into()),
        ("winner_config", report.best.config.to_string().into()),
        ("winner_width", report.winner_width.into()),
        ("winner_makespan", report.winner_makespan.into()),
    ]
}

/// `service`: a multi-SOC fleet registered as handles and planned through
/// `submit` — cold, warm, after revising two analog cores of `p93791m`,
/// and from an exported snapshot.
fn run_service_fleet() -> Fields {
    let fleet = fleet(true, 41, 4);
    let widths = [24, 32];
    let service = PlanService::new();
    let handles: Vec<SocHandle> = fleet.iter().map(|soc| service.register(soc.clone())).collect();
    let jobs_for = |handles: &[SocHandle]| {
        let builders: Vec<JobBuilder> = handles.iter().map(JobBuilder::for_handle).collect();
        fleet_jobs(&builders, &widths, Effort::Standard)
    };
    let jobs = jobs_for(&handles);

    let (cold, cold_ms) = timed(|| service.submit(&jobs));
    let before_warm = service.stats();
    let (warm, warm_ms) = timed(|| service.submit(&jobs));
    assert_same_plans(&jobs, &cold, &warm, "warm");
    let stats = service.stats();
    assert!(stats.session_hits > 0, "warm batch must reuse sessions: {stats:?}");
    assert!(stats.schedule_hits > 0, "warm batch must hit the schedule cache: {stats:?}");
    assert_eq!(stats.schedule_misses, before_warm.schedule_misses, "warm fleet packed: {stats:?}");
    assert_eq!(
        stats.sessions.skeleton_misses, before_warm.sessions.skeleton_misses,
        "warm fleet re-packed a skeleton: {stats:?}"
    );

    // Revise two analog cores of the largest SOC (longer IIP3/THD tests)
    // and re-plan the *whole* fleet: unchanged SOCs replay from the
    // schedule cache, the revised SOC re-hits its sessions and repacks
    // only its analog deltas.
    let revised_idx = fleet.iter().position(|soc| soc.name == "p93791m").expect("in the fleet");
    let handle = &handles[revised_idx];
    let mut core_d = handle.soc().analog[3].clone();
    core_d.tests[0].cycles += 5_000;
    let mut core_e = handle.soc().analog[4].clone();
    core_e.tests[0].cycles += 5_000;
    let mut revised_handles = handles.clone();
    revised_handles[revised_idx] = handle
        .revise(&[
            CoreEdit::ReplaceAnalog { index: 3, core: core_d },
            CoreEdit::ReplaceAnalog { index: 4, core: core_e },
        ])
        .expect("revision edits are well-formed");
    let revised_jobs = jobs_for(&revised_handles);
    let (revision, revision_ms) = timed(|| service.submit(&revised_jobs));
    let revision_cache_hits = service.stats().revision_cache_hits - stats.revision_cache_hits;
    assert!(revision_cache_hits > 0, "the revised SOC must re-hit warm content");
    // Unchanged SOCs stay bit-identical to the cold batch; the revised
    // SOC must match a cold service planning the revised content.
    let revised_range = revised_idx * widths.len()..(revised_idx + 1) * widths.len();
    let mut expected = cold.clone();
    expected.splice(revised_range.clone(), PlanService::new().submit(&revised_jobs[revised_range]));
    assert_same_plans(&revised_jobs, &expected, &revision, "revision");

    // Snapshot roundtrip: the exported caches must replay the original
    // fleet bit-identically in a fresh service, without packing.
    let snapshot = service.export_snapshot();
    let bytes = snapshot.to_bytes();
    let imported = PlanService::from_snapshot(
        &ServiceSnapshot::from_bytes(&bytes).expect("own snapshot bytes decode"),
    )
    .expect("own snapshot imports");
    assert_same_plans(&jobs, &cold, &imported.submit(&jobs), "snapshot replay");
    let replay_misses = imported.stats().schedule_misses;
    assert_eq!(replay_misses, 0, "snapshot replay must be pure cache traffic");
    println!(
        "service fleet: {} SOCs  cold={cold_ms:.2} ms  warm={warm_ms:.2} ms  \
         2-core revision={revision_ms:.2} ms",
        fleet.len()
    );

    vec![
        ("effort", "Standard".into()),
        ("socs", fleet.len().into()),
        ("jobs", jobs.len().into()),
        ("session_hits", stats.session_hits.into()),
        ("schedule_hits", stats.schedule_hits.into()),
        ("schedule_misses", stats.schedule_misses.into()),
        ("prefix_jobs_restored", stats.sessions.prefix_jobs_restored.into()),
        ("max_prefix_depth", stats.sessions.max_prefix_depth.into()),
        ("revision_cache_hits", revision_cache_hits.into()),
        ("snapshot_bytes", bytes.len().into()),
        ("snapshot_schedules", snapshot.schedule_count().into()),
        ("snapshot_replay_misses", replay_misses.into()),
    ]
}

/// `snapshot`: warm a fleet service, push its caches through the v2
/// bytes, and boot from them: schedule hits at full caps, prefix-trie
/// restores with zero skeleton re-packs when the schedule cache is
/// starved away.
fn run_snapshot() -> Fields {
    let builders: Vec<JobBuilder> = fleet(false, 43, 3).into_iter().map(JobBuilder::new).collect();
    let jobs = fleet_jobs(&builders, &[24, 32], Effort::Standard);
    let service = PlanService::new();
    let (baseline, cold_ms) = timed(|| service.submit(&jobs));

    let snapshot = service.export_snapshot();
    let (bytes, encode_ms) = timed(|| snapshot.to_bytes());
    let (decoded, decode_ms) =
        timed(|| ServiceSnapshot::from_bytes(&bytes).expect("own snapshot bytes decode"));
    assert_eq!(decoded, snapshot, "snapshot must roundtrip through bytes");
    let stats = snapshot.stats();
    assert_eq!(stats.sections.total_bytes, bytes.len());

    // Boot warm from the bytes at full caps: pure schedule hits.
    let (imported, import_ms) =
        timed(|| PlanService::from_snapshot(&decoded).expect("own snapshot imports"));
    let booted = imported.stats();
    assert!(booted.sessions.import_restored > 0, "boot must restore checkpoints: {booted:?}");
    assert_eq!(booted.sessions.import_dropped, 0, "own snapshots drop nothing: {booted:?}");
    let (_, ram_ms) = timed(|| service.submit(&jobs));
    let (replay, disk_ms) = timed(|| imported.submit(&jobs));
    assert_same_plans(&jobs, &baseline, &replay, "disk replay");
    let replay_misses = imported.stats().schedule_misses;
    assert_eq!(replay_misses, 0, "full-cap disk replay must be pure schedule hits");

    // Starve the schedule cache (one entry per shard) so the replay runs
    // session-level packs: the disk-restored tries must serve every
    // skeleton ordering and restore delta prefixes.
    let starved = PlanService::from_snapshot_with_caps(&decoded, 1, 256).expect("starved import");
    let before = starved.stats();
    assert_same_plans(&jobs, &baseline, &starved.submit(&jobs), "starved replay");
    let after = starved.stats();
    let rebuild_packs = after.sessions.skeleton_misses - before.sessions.skeleton_misses;
    let prefix_hits = after.sessions.prefix_hits - before.sessions.prefix_hits;
    assert_eq!(rebuild_packs, 0, "disk-restored tries must serve every skeleton: {after:?}");
    assert!(prefix_hits > 0, "sweep replay must restore delta prefixes: {after:?}");
    println!(
        "snapshot: cold={cold_ms:.2} ms  encode={encode_ms:.2} ms  decode={decode_ms:.2} ms  \
         import={import_ms:.2} ms  replay ram={ram_ms:.2} ms  disk={disk_ms:.2} ms"
    );

    vec![
        ("sessions", stats.sessions.into()),
        ("schedules", stats.schedules.into()),
        ("trie_nodes", stats.trie_nodes.into()),
        ("checkpoints", stats.checkpoints.into()),
        ("total_bytes", stats.sections.total_bytes.into()),
        ("import_restored", booted.sessions.import_restored.into()),
        ("import_dropped", booted.sessions.import_dropped.into()),
        ("replay_misses", replay_misses.into()),
        ("rebuild_packs", rebuild_packs.into()),
        ("prefix_hits", prefix_hits.into()),
    ]
}

/// What one trace slot expects back, derived from how the job was built
/// (deterministic, so serial and concurrent runs are comparable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadExpect {
    Plan,
    DeadlineExceeded,
    Cancelled,
}

/// `load`: a synthetic 10k-SOC fleet, one deterministic popularity-skewed
/// job trace, several submitter OS threads against one sharded service —
/// and the same trace replayed serially on a fresh service as the
/// bit-identity oracle.
fn run_load() -> Fields {
    // Small synthetic cores keep a cold Quick plan cheap enough that a
    // 10k-SOC fleet's cold tail stays a load test, not a soak test.
    let params = msoc_itc02::synth::RandomSocParams {
        cores: 6,
        chains: (1, 6),
        chain_len: (20, 120),
        patterns: (10, 60),
        terminals: (4, 40),
    };
    let fleet_size = 10_000;
    let trace_len = 4_000;
    let submitters = 4;
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
    let hot: Vec<usize> = (0..32).map(|i| (i * 97) % fleet_size).collect();
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
    // fresh service.
    let serial_service = PlanService::new();
    let (serial, serial_ms) = timed(|| {
        msoc_par::with_threads(1, || {
            trace
                .iter()
                .enumerate()
                .map(|(i, (job, expect))| {
                    let outcome = &serial_service.submit(std::slice::from_ref(job))[0];
                    check(outcome, *expect, i)
                })
                .collect::<Vec<Option<PlanReport>>>()
        })
    });

    // Concurrent run: `submitters` OS threads stream their round-robin
    // partition through the shared sharded service, each recording its
    // own latency histogram (merged after the barrier). Planner-internal
    // maps run at a forced width ≥ 2 so the persistent pool engages even
    // on a 1-core host.
    let inner_width = msoc_par::max_threads().max(2);
    let pool_before = msoc_par::pool_stats();
    let ((histogram, outcomes), wall_ms) = timed(|| {
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..submitters)
                .map(|s| {
                    let (trace, service) = (&trace, &service);
                    scope.spawn(move || {
                        let mut histogram = LatencyHistogram::new();
                        let mut ran: Vec<(usize, JobOutcome)> = Vec::new();
                        for (i, (job, _)) in trace.iter().enumerate().skip(s).step_by(submitters) {
                            let t = Instant::now();
                            let outcome = msoc_par::with_threads(inner_width, || {
                                service.submit(std::slice::from_ref(job)).pop()
                            });
                            histogram.record(t.elapsed().as_micros() as u64);
                            ran.push((i, outcome.expect("one outcome")));
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
        })
    });
    let pool_after = msoc_par::pool_stats();

    // Every concurrent outcome bit-identical to the serial replay
    // (interrupted slots must interrupt the same way).
    for (i, (outcome, reference)) in outcomes.iter().zip(&serial).enumerate() {
        let outcome = outcome.as_ref().expect("every trace slot ran");
        match (&check(outcome, trace[i].1, i), reference) {
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
    assert_eq!(histogram.count(), trace_len as u64, "every submit must record its latency");
    let (dispatches, steals) =
        (pool_after.dispatches - pool_before.dispatches, pool_after.steals - pool_before.steals);
    assert!(
        dispatches > 0 && steals > 0,
        "the persistent pool never engaged under load: dispatches={dispatches} steals={steals}"
    );
    let shard_lookups: Vec<u64> =
        shards.iter().map(|s| s.session_lookups + s.schedule_lookups).collect();
    println!(
        "load: {wall_ms:.2} ms  {:.1} jobs/s ({:.1} serial at 1 thread)  p50={} us  p99={} us  \
         schedule hits/misses={}/{}  contentions={}  pool dispatches={dispatches} \
         steals={steals}",
        trace_len as f64 / (wall_ms / 1e3),
        trace_len as f64 / (serial_ms / 1e3),
        histogram.quantile(0.5),
        histogram.quantile(0.99),
        stats.schedule_hits,
        stats.schedule_misses,
        stats.lock_contentions,
    );

    vec![
        ("effort", "Quick".into()),
        ("socs", fleet_size.into()),
        ("jobs", trace_len.into()),
        ("submitters", submitters.into()),
        ("interrupted", stats.jobs_interrupted.into()),
        ("revision_cache_hits", stats.revision_cache_hits.into()),
        ("session_lookups", stats.session_lookups.into()),
        ("schedule_lookups", stats.schedule_lookups.into()),
        ("shard_lookups_min", shard_lookups.iter().min().copied().unwrap_or(0).into()),
        ("shard_lookups_max", shard_lookups.iter().max().copied().unwrap_or(0).into()),
    ]
}

/// `resilience`: an export → crash → boot loop through a `FaultyStore`
/// injecting IO errors, torn writes, silent bit flips and stale reads
/// into 35% of operations. The daemon must persist every dirty
/// generation within its backoff budget; after a crash plus deliberate
/// on-disk corruption, recovery must quarantine exactly the damaged
/// generations and replay the newest intact one with zero schedule
/// misses. A deliberately panicking job must fail alone and a capped
/// service must shed overflow as structured rejections.
fn run_resilience() -> Fields {
    let fault_percent = 35u32;
    let widths = [16, 20, 24, 28, 32];
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
    let (baselines, export_ms) = timed(|| {
        widths
            .iter()
            .map(|&width| {
                let outcome = service.submit(&[job_of(width)]).pop().expect("one outcome");
                match daemon.poll() {
                    ExportOutcome::Persisted { .. } => {}
                    other => panic!(
                        "the daemon must persist every dirty generation at {fault_percent}% \
                         faults: {other:?}"
                    ),
                }
                plan_of(&outcome, "warm")
            })
            .collect::<Vec<PlanReport>>()
    });
    let dstats = daemon.stats();
    assert_eq!(dstats.exports_failed, 0, "the daemon gave up on a generation: {dstats:?}");
    assert!(dstats.put_retries > 0, "a {fault_percent}% fault rate forced no retries");

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
    // the deliberate backtrace does not pollute the bench output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcomes = service.submit(&poisoned);
    std::panic::set_hook(prev_hook);
    assert!(
        matches!(outcomes[1], JobOutcome::Failed { .. }),
        "the poisoned job must degrade to Failed: {:?}",
        outcomes[1]
    );
    assert_eq!(
        plan_of(&outcomes[0], "sibling").best,
        baselines[0].best,
        "a panicked neighbor must not perturb sibling results"
    );
    let panic_failed_jobs = service.stats().jobs_failed;
    assert_eq!(panic_failed_jobs, 1, "per-job panic isolation miscounted");

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
    assert_eq!(shed_jobs, 1, "admission shedding miscounted");

    // Crash, then corrupt the newest generation the way a torn copy
    // would: recovery must quarantine it and boot the newest intact.
    drop(daemon);
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

    let (report, recover_ms) = timed(|| recover(&store));
    assert_eq!(
        report.generation,
        Some(newest_intact),
        "recovery must boot the newest intact generation"
    );
    let quarantine_coherent = report.quarantined == corrupt_newer
        && report.service.stats().quarantined_generations == report.quarantined;
    assert!(
        report.quarantined >= 1 && quarantine_coherent,
        "boot-time quarantine accounting is incoherent: quarantined={} coherent={quarantine_coherent}",
        report.quarantined,
    );

    // Bit-identical warm replay of everything the booted generation saw.
    let replay_identical =
        widths.iter().zip(&baselines).take(newest_intact as usize).all(|(&width, baseline)| {
            let outcome = report.service.submit(&[job_of(width)]).pop().expect("one outcome");
            plan_of(&outcome, "replay").best == baseline.best
        });
    let rstats = report.service.stats();
    let injected_faults = store.fault_counters().total();
    assert!(injected_faults > 0, "the faulty store injected nothing");
    let _ = std::fs::remove_dir_all(&root);
    assert!(replay_identical, "the recovered replay diverged from the exporter");
    assert_eq!(rstats.schedule_misses, 0, "the recovered service re-packed cached schedules");
    println!(
        "resilience: export rounds={export_ms:.2} ms ({:.2} ms backoff)  recover={recover_ms:.2} ms",
        dstats.backoff_total.as_secs_f64() * 1e3,
    );

    vec![
        ("fault_percent", fault_percent.into()),
        ("rounds", widths.len().into()),
        ("exports_persisted", dstats.exports_persisted.into()),
        ("exports_failed", dstats.exports_failed.into()),
        ("put_retries", dstats.put_retries.into()),
        ("injected_faults", injected_faults.into()),
        ("unchanged_skips", dstats.unchanged_skips.into()),
        ("pruned_generations", dstats.pruned_generations.into()),
        ("scanned", report.scanned.into()),
        ("quarantined", report.quarantined.into()),
        ("quarantine_coherent", quarantine_coherent.into()),
        ("recovered_generation", newest_intact.into()),
        ("replay_hits", rstats.schedule_hits.into()),
        ("replay_misses", rstats.schedule_misses.into()),
        ("replay_identical", replay_identical.into()),
        ("panic_failed_jobs", panic_failed_jobs.into()),
        ("shed_jobs", shed_jobs.into()),
    ]
}

/// `server`: boots the TCP daemon with persistent snapshots, streams a
/// deterministic mixed-priority trace from several concurrent clients
/// (outcomes compared byte for byte against a serial in-process replay),
/// forces a generation, pushes more traffic, then *kills* the server (no
/// shutdown flush) and recovers the tenant's shard from its newest intact
/// generation — the pre-kill trace must replay warm with zero schedule
/// misses. A second, depth-capped server sheds a batch's overflow as
/// structured `Overloaded` outcomes.
fn run_server() -> Fields {
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

    // The load: concurrent clients, mixed priorities, bit-identity
    // against the serial oracle.
    let tenant = "bench-tenant";
    let clients = 3;
    let trace = build_trace(30, 3, 0xB13D);
    let load = run_loopback(addr, tenant, &trace, clients).expect("loopback load");
    assert!(load.replay_identical, "concurrent TCP outcomes diverged from the serial replay");

    // Force a generation that provably covers the load, then push tail
    // traffic the kill is allowed to lose.
    let mut control = Client::connect(addr, tenant).expect("control client");
    control.snapshot_now().expect("forced snapshot");
    for batch in &build_trace(4, 2, 0xAF7E) {
        control.submit(batch.clone()).expect("tail traffic");
    }
    control.shutdown().expect("kill");
    let report = server.join().expect("server thread");
    let generations_persisted: u64 = report.shards.iter().map(|s| s.generations_persisted).sum();
    assert!(generations_persisted >= 1, "no generation persisted before the mid-load kill");

    // Recovery: open the killed tenant shard's store directly, boot the
    // newest intact generation, and replay the pre-kill trace — pure
    // cache traffic if the snapshot really carried the load.
    let shard = msoc_net::tenant_shard(tenant, config.shards);
    let store = DirStore::open(root.join(format!("shard-{shard}"))).expect("open shard store");
    let (recovered, recover_ms) = timed(|| recover(&store));
    let recovered_generation =
        recovered.generation.expect("a generation survived the mid-load kill");
    let registry = std::collections::HashMap::new();
    for batch in &trace {
        msoc_net::execute_jobs(&recovered.service, &registry, batch);
    }
    let warm = recovered.service.stats();
    assert_eq!(warm.schedule_misses, 0, "the kill-recovered shard re-packed cached schedules");
    assert!(warm.schedule_hits > 0, "the kill-recovered replay hit nothing");

    // Queue-depth backpressure, demonstrated deterministically: depth 1
    // against a batch of 4 sheds exactly the 3 lowest-priority jobs.
    let shed_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let shed_addr = shed_listener.local_addr().expect("ephemeral addr");
    let shed_config =
        ServerConfig { shards: 1, queue_depth_cap: Some(1), ..ServerConfig::default() };
    let shed_server =
        std::thread::spawn(move || msoc_net::serve(shed_listener, &shed_config).expect("serve"));
    let mut shed_client = Client::connect(shed_addr, tenant).expect("shed client");
    let soc = MixedSignalSoc::d695m();
    let batch: Vec<WireJob> = [16u32, 20, 24, 28]
        .iter()
        .map(|&w| {
            WireJob::new(
                msoc_net::WireSocRef::Inline(soc.clone()),
                msoc_core::JobSpec::Single { width: w },
            )
        })
        .collect();
    let outcomes = shed_client.submit(batch).expect("overloaded submit");
    let queue_shed =
        outcomes.iter().filter(|o| matches!(o, WireOutcome::Overloaded { .. })).count() as u64;
    shed_client.shutdown().expect("shed server shutdown");
    shed_server.join().expect("shed server thread");
    assert_eq!(queue_shed, 3, "queue depth 1 against a 4-job batch must shed exactly 3 jobs");

    let _ = std::fs::remove_dir_all(&root);
    println!(
        "server: {:.1} jobs/s  p50={} us  p99={} us  {generations_persisted} generations \
         persisted mid-load ({} shard exports reused)  recovered generation \
         {recovered_generation} in {recover_ms:.2} ms",
        load.jobs_per_sec,
        load.p50_us,
        load.p99_us,
        report.shards.iter().map(|s| s.shard_exports_reused).sum::<u64>(),
    );

    vec![
        ("clients", clients.into()),
        ("jobs", load.jobs.into()),
        ("replay_identical", load.replay_identical.into()),
        ("outcomes_digest", load.outcomes_digest.into()),
        ("queue_shed", queue_shed.into()),
        ("warm_replay_hits", warm.schedule_hits.into()),
        ("warm_replay_misses", warm.schedule_misses.into()),
    ]
}

fn main() {
    let out_path = std::env::args()
        .skip_while(|a| a != "--out")
        .nth(1)
        .unwrap_or_else(|| "BENCH_schedule.json".into());

    let soc = MixedSignalSoc::p93791m();
    let report: Fields = vec![
        ("benchmark", "p93791m".into()),
        ("sharing_config", "{A,B,E},{C,D}".into()),
        ("effort", "Thorough".into()),
        ("results", run_engines(&soc).into()),
        ("sweep", msoc_par::with_threads(1, || WIDTHS.map(|w| run_sweep(&soc, w))).into()),
        ("table", run_table(&soc).into()),
        ("service", msoc_par::with_threads(1, run_service_fleet).into()),
        ("snapshot", msoc_par::with_threads(1, run_snapshot).into()),
        ("load", run_load().into()),
        ("resilience", run_resilience().into()),
        ("server", run_server().into()),
    ];
    std::fs::write(&out_path, render_report(&report)).expect("write BENCH_schedule.json");
    println!("wrote {out_path}");
}
