//! `churn-persist`: one in-process caller at pool width 1 over a
//! popularity-skewed fleet whose distinct SOC × width sessions outnumber
//! the 256-session cache, with SOC revisions, a `SnapshotDaemon` over a
//! `DirStore` exporting at fixed steps, and repeated boot recovery.
//!
//! It exercises writes beside reads: inserts, evictions, revision
//! re-fingerprinting, snapshot encoding, store writes and import
//! verification.

use std::time::Instant;

use msoc_core::{
    CoreEdit, DirStore, ExportOutcome, JobBuilder, JobOutcome, PlanReport, PlanService,
    SnapshotDaemon, SocHandle,
};

use crate::trace::{Layers, Tracer};
use crate::{EndToEnd, Kind, Lap, Opts, Rng, RunResult, Timed, Work};

/// Steps per nominal second.
const RATE: f64 = 220.0;
/// Warm-up steps run at set-up, as a share of the timed steps: the
/// timed phase starts from a cache in steady state, not from cold.
const WARMUP_SHARE: f64 = 0.2;
/// Fleet size; with four widths each, 128 distinct sessions.
const FLEET: usize = 32;
/// The widths every SOC is planned at.
const WIDTHS: [u32; 4] = [16, 24, 32, 48];
/// Cache capacities: the fleet's sessions outnumber the session cache
/// two to one.
const SCHEDULE_CAP: usize = 1024;
const SESSION_CAP: usize = 64;
/// Zipf exponent of SOC popularity.
const SKEW: f64 = 1.0;
/// One step in this many revises its SOC first.
const REVISE_EVERY: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Recoveries per run; `recover_ms` is their median.
const RECOVERIES: usize = 11;
/// Most recent distinct jobs considered for the replay after recovery.
const REPLAY: usize = 16;

/// One step: an optional revision, then one single-width plan.
struct Step {
    soc: usize,
    edit: Option<CoreEdit>,
    width: u32,
}

struct State {
    service: PlanService,
    fleet: Vec<SocHandle>,
    steps: Vec<Step>,
}

/// A deterministic edit of `handle`'s SOC: lengthen one analog test or
/// add a pattern to one digital module's first test.
fn edit(handle: &SocHandle, rng: &mut Rng, analog: bool) -> CoreEdit {
    let soc = handle.soc();
    if analog {
        let index = rng.below(soc.analog.len());
        let mut core = soc.analog[index].clone();
        let t = rng.below(core.tests.len());
        core.tests[t].cycles += 1 + rng.below(2_000) as u64;
        CoreEdit::ReplaceAnalog { index, core }
    } else {
        let modules: Vec<_> = soc.digital.modules.iter().filter(|m| !m.tests.is_empty()).collect();
        let mut module = modules[rng.below(modules.len())].clone();
        module.tests[0].patterns += 1 + rng.below(8) as u64;
        CoreEdit::ReplaceDigital { id: module.id, module }
    }
}

/// Seeded steps over `fleet`: Zipf-popular SOCs at uniform widths, and
/// every `REVISE_EVERY`-th step revises its SOC first. Edits are drawn
/// against the SOC as it will be when the step runs, and `fleet` is
/// left in that state.
fn draw_steps(rng: &mut Rng, fleet: &mut [SocHandle], count: usize) -> Vec<Step> {
    let weights: Vec<f64> = (1..=fleet.len()).map(|r| 1.0 / (r as f64).powf(SKEW)).collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    (0..count)
        .map(|i| {
            let u = rng.unit();
            // Popularity follows fleet order, whose core counts cycle
            // through the same profile for every seed.
            let soc = cdf.iter().position(|&c| u < c).unwrap_or(fleet.len() - 1);
            let width = WIDTHS[rng.below(WIDTHS.len())];
            let edit = (i % REVISE_EVERY == REVISE_EVERY - 1).then(|| {
                let e = edit(&fleet[soc], rng, (i / REVISE_EVERY) & 1 == 0);
                fleet[soc] = fleet[soc].revise(std::slice::from_ref(&e)).expect("edits are valid");
                e
            });
            Step { soc, edit, width }
        })
        .collect()
}

/// Inputs, the service, and a warm-up that brings its caches to steady
/// state.
fn setup(opts: &Opts) -> State {
    let service = PlanService::with_caps(SCHEDULE_CAP, SESSION_CAP);
    let mut fleet: Vec<SocHandle> = crate::synthetic_socs(opts.seed, "churn", FLEET)
        .into_iter()
        .map(|soc| service.register(soc))
        .collect();
    let n = opts.jobs(RATE, 64);
    let mut rng = Rng::new(opts.seed, "churn-persist/warm-up");
    let mut warm = fleet.clone();
    for step in draw_steps(&mut rng, &mut warm, (n as f64 * WARMUP_SHARE) as usize) {
        if let Some(e) = &step.edit {
            fleet[step.soc] =
                fleet[step.soc].revise(std::slice::from_ref(e)).expect("edits are valid");
        }
        let job = Kind::Single(step.width).build(JobBuilder::for_handle(&fleet[step.soc]));
        service.submit(std::slice::from_ref(&job));
    }
    let mut rng = Rng::new(opts.seed, "churn-persist");
    let steps = draw_steps(&mut rng, &mut warm, n);
    State { service, fleet, steps }
}

/// One pass over the steps.
struct Pass {
    timed: Timed,
    /// Per step: the handle planned and its outcome.
    planned: Vec<(SocHandle, JobOutcome)>,
    work: Work,
    /// Per step: latency, revise time and (traced) warm re-evaluation.
    revise_us: Vec<f64>,
    eval_ms: Vec<f64>,
    export_ms: Vec<f64>,
    export_bytes: u64,
    last_bytes: u64,
    reused: u64,
    last_generation: Option<u64>,
}

fn timed_pass(
    state: &mut State,
    store: DirStore,
    mut tracer: Option<&mut Tracer>,
) -> Result<Pass, String> {
    let service = &state.service;
    let mut daemon = SnapshotDaemon::new(service, store);
    let mut work = Work {
        service_before: service.stats(),
        pool_before: msoc_par::pool_stats(),
        ..Work::default()
    };
    let mut fleet = state.fleet.clone();
    let n = state.steps.len();
    let mut planned = Vec::with_capacity(n);
    let mut latencies_ms = Vec::with_capacity(n);
    let (mut revise_us, mut eval_ms, mut export_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut export_bytes, mut last_bytes, mut last_generation) = (0u64, 0u64, None);
    let mut timed = Timed::default();
    let (mut round_start, mut lap) = (0, Lap::start());
    for (i, step) in state.steps.iter().enumerate() {
        let req = i as u64;
        let mut latency_ms = 0.0;
        if let Some(e) = &step.edit {
            let t = Instant::now();
            fleet[step.soc] =
                fleet[step.soc].revise(std::slice::from_ref(e)).map_err(|e| e.to_string())?;
            latency_ms = t.elapsed().as_secs_f64() * 1e3;
            revise_us.push(latency_ms * 1e3);
        }
        let handle = &fleet[step.soc];
        let kind = Kind::Single(step.width);
        let job = kind.build(JobBuilder::for_handle(handle));
        let mut outcome = match tracer.as_deref_mut() {
            None => {
                let t = Instant::now();
                let outcome = service.submit(std::slice::from_ref(&job));
                latency_ms += t.elapsed().as_secs_f64() * 1e3;
                outcome
            }
            Some(tracer) => {
                let (outcome, request) = tracer
                    .span("request", req, None, || service.submit(std::slice::from_ref(&job)));
                latency_ms += tracer.spans()[request].ms();
                let (_, eval) = tracer.span("planner.eval", req, Some(request), || {
                    kind.plan_directly(service, handle.soc())
                });
                eval_ms.push(tracer.spans()[eval].ms());
                outcome
            }
        };
        latencies_ms.push(latency_ms);
        planned.push((handle.clone(), outcome.pop().expect("one outcome per job")));
        // Every round ends with an export, inside the round's time but
        // outside any request's latency.
        if crate::closes_round(i, n) {
            let t = Instant::now();
            match daemon.export_now() {
                ExportOutcome::Persisted { generation, bytes, .. } => {
                    export_bytes += bytes as u64;
                    last_bytes = bytes as u64;
                    last_generation = Some(generation);
                }
                ExportOutcome::Unchanged => {}
                other => return Err(format!("export at step {i} did not persist: {other:?}")),
            }
            export_ms.push(t.elapsed().as_secs_f64() * 1e3);
            timed.rounds.push(
                lap.round((i + 1 - round_start) as u64, latencies_ms[round_start..].to_vec()),
            );
            round_start = i + 1;
        }
    }
    work.service_after = service.stats();
    work.pool_after = msoc_par::pool_stats();
    let reused = daemon.stats().shard_exports_reused;
    Ok(Pass {
        timed,
        planned,
        work,
        revise_us,
        eval_ms,
        export_ms,
        export_bytes,
        last_bytes,
        reused,
        last_generation,
    })
}

/// Every timed outcome must complete and verify. Returns `(ok jobs,
/// test time, plan cost)`.
fn check(state: &State, pass: &mut Pass, result: &mut RunResult) -> (u64, u64, f64) {
    let (mut ok, mut test_time, mut cost) = (0u64, 0u64, 0.0);
    let mut digest = crate::Digest::default();
    for (step, (handle, outcome)) in state.steps.iter().zip(&pass.planned) {
        match crate::verify(&state.service, handle.soc(), &Kind::Single(step.width), outcome) {
            Ok(summary) => {
                ok += 1;
                test_time += summary.makespan;
                cost += summary.cost;
                digest.word(summary.digest);
                pass.work.add(&summary);
            }
            Err(e) => result.fail(e),
        }
    }
    result.work("outputs_digest", digest.finish());
    result.work("snapshot.bytes_total", pass.export_bytes);
    (ok, test_time, cost)
}

/// The most recent distinct (SOC content, width) jobs with their
/// pre-crash plans, newest first.
fn replay_candidates(pass: &Pass) -> Vec<(SocHandle, u32, PlanReport)> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for (handle, outcome) in pass.planned.iter().rev() {
        let Some(plan) = outcome.report().and_then(|r| r.result.plan()) else { continue };
        if seen.insert((handle.fingerprint(), plan.tam_width)) {
            out.push((handle.clone(), plan.tam_width, plan.clone()));
            if out.len() == REPLAY {
                break;
            }
        }
    }
    out
}

/// One job replayed after recovery.
struct Replayed {
    /// Planned without a schedule-cache miss: its schedule content came
    /// from the snapshot.
    content_hit: bool,
    /// Found its pack session in the session cache.
    session_hit: bool,
    /// Reproduced its pre-crash plan.
    same: bool,
}

/// Replays `jobs` on `service`, one job at a time.
fn replay(service: &PlanService, jobs: &[(SocHandle, u32, PlanReport)]) -> Vec<Replayed> {
    jobs.iter()
        .map(|(handle, width, want)| {
            let before = service.stats();
            let job = Kind::Single(*width).build(JobBuilder::for_handle(handle));
            let got = service.submit(std::slice::from_ref(&job));
            let after = service.stats();
            let same = got[0]
                .report()
                .and_then(|r| r.result.plan())
                .is_some_and(|plan| plan.best == want.best && plan.schedule == want.schedule);
            Replayed {
                content_hit: after.schedule_misses == before.schedule_misses,
                session_hit: after.session_misses == before.session_misses,
                same,
            }
        })
        .collect()
}

/// After the crash. The schedule cache evicts first-in first-out, so
/// which recent jobs' schedules the newest generation still holds is
/// learned by replaying them on one recovered service (`probe`). The
/// same replay on a second, independent boot from the same generation
/// must then plan every job the probe found resident with zero schedule
/// misses, at least one job must be resident, and every job must
/// reproduce its pre-crash plan. Returns `(jobs replayed, jobs that
/// passed)`.
///
/// Session-cache misses on the second boot are counted, not failed: the
/// import ranks sessions that only a cached schedule still referenced
/// above the sessions the exporter had used most recently, so with more
/// sessions in the snapshot than the session cap, most recently used
/// sessions do not survive the import (see `replay_session_misses`).
fn check_replay(
    probe: &PlanService,
    store_dir: &std::path::Path,
    candidates: &[(SocHandle, u32, PlanReport)],
    result: &mut RunResult,
) -> (u64, u64) {
    let resident: Vec<bool> = replay(probe, candidates).iter().map(|r| r.content_hit).collect();
    let count = resident.iter().filter(|&&r| r).count() as u64;
    result.work("replay_resident", count);
    if count == 0 {
        result.fail("the newest generation holds none of the most recent jobs".to_string());
    }
    let store = DirStore::open(store_dir).expect("snapshot store opens");
    let booted = msoc_core::recover_with_caps(&store, SCHEDULE_CAP, SESSION_CAP).service;
    let (mut ok, mut session_misses) = (0, 0);
    for (((handle, width, _), got), resident) in
        candidates.iter().zip(replay(&booted, candidates)).zip(resident)
    {
        session_misses += u64::from(!got.session_hit);
        if got.same && (got.content_hit || !resident) {
            ok += 1;
        } else {
            result.fail(format!(
                "{} w={width}: replay after recovery (resident={resident}, content hit={}, same plan={})",
                handle.soc().name,
                got.content_hit,
                got.same
            ));
        }
    }
    result.work("replay_session_misses", session_misses);
    (candidates.len() as u64, ok)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> RunResult {
    let mut result = RunResult::default();
    if let Err(e) = run_inner(opts, &mut result) {
        result.fail(format!("churn-persist: {e}"));
    }
    result
}

fn run_inner(opts: &Opts, result: &mut RunResult) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut state = None;
    let mut store_dir = opts.scratch.clone();
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup(opts));
        store_dir = opts.scratch_dir("churn-persist-store");
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up ran");
    result.diag("steps", state.steps.len());
    let store = DirStore::open(&store_dir).map_err(|e| e.to_string())?;
    crate::host::reset_peak_rss();
    let mut pass = timed_pass(&mut state, store, None)?;
    let peak_rss_mb = crate::host::peak_rss_mb();
    let (ok, test_time_cycles, plan_cost) = check(&state, &mut pass, result);
    let candidates = replay_candidates(&pass);
    let attempted = pass.timed.jobs();
    pass.work.record(result);
    // The crash: drop the service (and everything planned on it) before
    // booting from the store.
    drop(std::mem::take(&mut pass.planned));
    let steps = state.steps.len();
    drop(state);

    let (recover_ms, report) =
        crate::timed_recoveries(&store_dir, RECOVERIES, (SCHEDULE_CAP, SESSION_CAP));
    if report.generation != pass.last_generation || report.quarantined > 0 {
        result.fail(format!(
            "recovery booted {:?} (quarantined {}), expected {:?}",
            report.generation, report.quarantined, pass.last_generation
        ));
    }
    let (replayed, replay_ok) = check_replay(&report.service, &store_dir, &candidates, result);
    result.attempted += attempted + replayed;
    result.failed += attempted + replayed - ok - replay_ok;
    let (restored, dropped) = (report.import_restored, report.import_dropped);
    drop(report);

    if !opts.trace {
        let e2e = EndToEnd {
            setup_s: crate::median(&setups),
            timed: pass.timed,
            ok: ok + replay_ok,
            attempted: attempted + replayed,
            test_time_cycles,
            plan_cost,
            recover_ms,
            peak_rss_mb,
        };
        e2e.report(result);
        result.diag("exports", pass.export_ms.len());
        return Ok(());
    }

    let mut layers = Layers::default();
    pass.work.layers(&mut layers);
    layers.set("revision.revise_us", crate::median(&pass.revise_us));
    layers.set("snapshot.export_ms", crate::median(&pass.export_ms));
    layers.set("snapshot.bytes", pass.last_bytes as f64);
    layers.set("snapshot.shard_exports_reused", pass.reused as f64);
    layers.set("recover.import_ms", crate::import_ms(&store_dir)?);
    layers.set("recover.import_restored", restored as f64);
    layers.set("recover.import_dropped", dropped as f64);

    // The traced run: the same steps again on a fresh service and store.
    let mut traced_state = setup(opts);
    let traced_dir = opts.scratch_dir("churn-persist-traced");
    let mut tracer = Tracer::new(Instant::now());
    let traced = timed_pass(
        &mut traced_state,
        DirStore::open(&traced_dir).map_err(|e| e.to_string())?,
        Some(&mut tracer),
    )?;
    let n = steps.max(1) as f64;
    let (mut dispatch, mut pack) = (0.0, 0.0);
    let requests = tracer.spans().iter().filter(|s| s.name == "request");
    for ((request, (_, outcome)), eval) in requests.zip(&traced.planned).zip(&traced.eval_ms) {
        let wall = outcome.report().map_or(0.0, |r| r.wall.as_secs_f64() * 1e3);
        dispatch += (request.ms() - wall).max(0.0);
        pack += (wall - eval).max(0.0);
    }
    let eval: f64 = traced.eval_ms.iter().sum();
    let revise_ms: f64 = traced.revise_us.iter().sum::<f64>() / 1e3;
    layers.set("job.dispatch_ms", dispatch / n);
    layers.set("tam.pack_ms", pack / n);
    layers.set("planner.eval_ms", eval / n);
    let request_ms = pass.timed.mean_latency_ms();
    // The traced rate leaves out the re-evaluations: they are the
    // trace's own probes, not tracing overhead.
    let traced_rate = n / (traced.timed.wall_s() - eval / 1e3);
    crate::account(
        &mut layers,
        request_ms,
        (dispatch + pack + eval + revise_ms) / n,
        pass.timed.jobs() as f64 / pass.timed.wall_s(),
        traced_rate,
    );
    crate::write_trace(opts, &tracer, result);
    layers.report(result);
    Ok(())
}
