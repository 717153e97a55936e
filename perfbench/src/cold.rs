//! `cold-plan`: one closed-loop caller submits jobs in process, each on
//! a fresh (SOC, width, effort) key, at pool width 1.
//!
//! Packing (`msoc_tam::schedule`) and the planner's bounds do nearly all
//! the work; protocol, cache hits and snapshots do none.

use std::time::Instant;

use msoc_core::{Job, JobBuilder, JobOutcome, MixedSignalSoc, PlanService, SharingConfig};
use msoc_tam::{Effort, Engine};

use crate::trace::{Layers, Tracer};
use crate::{EndToEnd, Kind, Lap, Opts, Rng, RunResult, Timed, Work};

/// Jobs per nominal second (the work is fixed, not timed).
const RATE: f64 = 95.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 101;
/// Recoveries per run; `recover_ms` is their median.
const RECOVERIES: usize = 9;
/// Cache capacities. Every key is fresh, so the caches never hit; the
/// caps bound the live and recovered footprint (a cached schedule keeps
/// its pack session alive).
const SCHEDULE_CAP: usize = 512;
const SESSION_CAP: usize = 64;
/// Single-width packs re-solved by the naive reference engine.
const NAIVE_SAMPLE: usize = 6;

/// The workload's inputs and the cold service they run on.
struct State {
    socs: Vec<MixedSignalSoc>,
    jobs: Vec<(usize, Kind, Job)>,
    service: PlanService,
}

/// Distinct widths from 16..=64 in seeded order.
fn width_pool(rng: &mut Rng) -> Vec<u32> {
    let mut widths: Vec<u32> = (16..=64).collect();
    rng.shuffle(&mut widths);
    widths
}

fn setup(opts: &Opts) -> State {
    let n = opts.jobs(RATE, 24);
    let mut rng = Rng::new(opts.seed, "cold-plan");
    // The paper's SOCs get a few jobs each on distinct widths; every
    // other job plans a synthetic SOC of its own.
    let mut socs = vec![MixedSignalSoc::p93791m(), MixedSignalSoc::d695m()];
    let mut p93 = width_pool(&mut rng);
    let mut d695 = width_pool(&mut rng);
    let take = |pool: &mut Vec<u32>, k: usize| -> Vec<u32> { pool.drain(..k).collect() };
    let mut paper = vec![
        (0, Kind::Table(take(&mut p93, 3))),
        (0, Kind::Single(take(&mut p93, 1)[0])),
        (0, Kind::Single(take(&mut p93, 1)[0])),
        (1, Kind::Single(take(&mut d695, 1)[0])),
        (1, Kind::Single(take(&mut d695, 1)[0])),
        (1, Kind::BestWidth(take(&mut d695, 3))),
        (1, Kind::Table(take(&mut d695, 3))),
    ];
    let synth = n.saturating_sub(paper.len());
    socs.extend(crate::synthetic_socs(opts.seed, "cold", synth));

    // Synthetic jobs come in cycles of eight: six single-width plans
    // (widths stratified over 16..=64), one best-width sweep and one
    // three-width table, shuffled within the cycle.
    let mut plan: Vec<(usize, Kind)> = Vec::with_capacity(n);
    let mut bin = 0u32;
    for cycle in 0..synth.div_ceil(8) {
        let mut kinds: Vec<u8> = vec![0, 0, 0, 0, 0, 0, 1, 2];
        rng.shuffle(&mut kinds);
        for (slot, k) in kinds.into_iter().enumerate() {
            let soc = 2 + cycle * 8 + slot;
            if soc >= socs.len() {
                break;
            }
            let kind = match k {
                0 => {
                    bin = (bin + 1) % 7;
                    Kind::Single(16 + bin * 7 + rng.below(7) as u32)
                }
                1 => {
                    let top = 48 + rng.below(17) as u32;
                    Kind::BestWidth(vec![top, top - 12, top - 24])
                }
                _ => {
                    let low = 16 + rng.below(25) as u32;
                    Kind::Table(vec![low, low + 8, low + 16])
                }
            };
            plan.push((soc, kind));
        }
    }
    // The paper jobs land at seeded positions.
    for job in paper.drain(..) {
        let at = rng.below(plan.len() + 1);
        plan.insert(at, job);
    }
    let jobs = plan
        .into_iter()
        .map(|(soc, kind)| {
            let job = kind.build(JobBuilder::new(socs[soc].clone()));
            (soc, kind, job)
        })
        .collect();
    State { socs, jobs, service: PlanService::with_caps(SCHEDULE_CAP, SESSION_CAP) }
}

/// One pass over the jobs.
struct Pass {
    timed: Timed,
    outcomes: Vec<JobOutcome>,
    work: Work,
    /// Per job: submit latency, and the warm re-evaluation time (traced
    /// pass only).
    latency_ms: Vec<f64>,
    eval_ms: Vec<f64>,
}

fn timed_pass(state: &State, mut tracer: Option<&mut Tracer>) -> Pass {
    let service = &state.service;
    let mut work = Work {
        service_before: service.stats(),
        pool_before: msoc_par::pool_stats(),
        ..Work::default()
    };
    let n = state.jobs.len();
    let mut outcomes = Vec::with_capacity(n);
    let mut latency_ms = Vec::with_capacity(n);
    let mut eval_ms = Vec::new();
    let mut timed = Timed::default();
    let (mut round_start, mut lap) = (0, Lap::start());
    for (i, (soc, kind, job)) in state.jobs.iter().enumerate() {
        let outcome = match tracer.as_deref_mut() {
            None => {
                let t0 = Instant::now();
                let outcome = service.submit(std::slice::from_ref(job));
                latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                outcome
            }
            Some(tracer) => {
                let (outcome, request) = tracer
                    .span("request", i as u64, None, || service.submit(std::slice::from_ref(job)));
                latency_ms.push(tracer.spans()[request].ms());
                // The same computation again on the now-warm service:
                // evaluation and cache lookups without packing.
                let (_, eval) = tracer.span("planner.eval", i as u64, Some(request), || {
                    kind.plan_directly(service, &state.socs[*soc])
                });
                eval_ms.push(tracer.spans()[eval].ms());
                outcome
            }
        };
        outcomes.extend(outcome);
        if crate::closes_round(i, n) {
            timed
                .rounds
                .push(lap.round((i + 1 - round_start) as u64, latency_ms[round_start..].to_vec()));
            round_start = i + 1;
        }
    }
    work.service_after = service.stats();
    work.pool_after = msoc_par::pool_stats();
    Pass { timed, outcomes, work, latency_ms, eval_ms }
}

/// Outside the timed phase: every outcome must complete and verify, and
/// a seeded sample of single-width packs must match the naive reference
/// engine exactly. Returns `(ok jobs, test time, plan cost)`.
fn check(opts: &Opts, state: &State, pass: &mut Pass, result: &mut RunResult) -> (u64, u64, f64) {
    let mut ok = 0;
    let mut test_time = 0u64;
    let mut cost = 0.0;
    let mut digest = crate::Digest::default();
    for ((soc, kind, _), outcome) in state.jobs.iter().zip(&pass.outcomes) {
        match crate::verify(&state.service, &state.socs[*soc], kind, outcome) {
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

    let mut rng = Rng::new(opts.seed, "cold-plan/naive");
    let singles: Vec<usize> = (0..state.jobs.len())
        .filter(|&i| {
            matches!(state.jobs[i].1, Kind::Single(_)) && pass.outcomes[i].report().is_some()
        })
        .collect();
    for _ in 0..NAIVE_SAMPLE.min(singles.len()) {
        let i = singles[rng.below(singles.len())];
        let (soc, Kind::Single(w), _) = &state.jobs[i] else { unreachable!("filtered to singles") };
        let soc = &state.socs[*soc];
        let plan =
            pass.outcomes[i].report().and_then(|r| r.result.plan()).expect("completed single");
        let mut planner = msoc_core::Planner::with_service(
            soc,
            msoc_core::PlannerOptions::default(),
            &state.service,
        );
        let all = SharingConfig::all_shared(soc.analog.len());
        let same = [&plan.best.config, &all].into_iter().any(|config| {
            let problem = planner.build_problem(config, *w);
            msoc_tam::schedule_with_engine(&problem, Effort::Standard, Engine::Naive)
                .is_ok_and(|naive| naive == plan.schedule)
        });
        if !same {
            result.failed += 1;
            result.fail(format!("{} w={w}: schedule differs from the naive reference", soc.name));
        }
    }
    (ok, test_time, cost)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> RunResult {
    let mut result = RunResult::default();
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup(opts));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let state = state.expect("at least one set-up ran");
    result.diag("jobs", state.jobs.len());

    crate::host::reset_peak_rss();
    let mut pass = timed_pass(&state, None);
    let peak_rss_mb = crate::host::peak_rss_mb();
    let (ok, test_time_cycles, plan_cost) = check(opts, &state, &mut pass, &mut result);
    let attempted = state.jobs.len() as u64;
    result.attempted += attempted;
    result.failed += attempted - ok;
    pass.work.record(&mut result);

    let mut layers = Layers::default();
    let store = opts.scratch_dir("cold-plan-store");
    let recover_ms = crate::persist_and_recover(
        &state.service,
        &store,
        RECOVERIES,
        (SCHEDULE_CAP, SESSION_CAP),
        &mut layers,
    )
    .unwrap_or_else(|e| {
        result.fail(e);
        0.0
    });
    drop(state);

    if !opts.trace {
        let e2e = EndToEnd {
            setup_s: crate::median(&setups),
            timed: pass.timed,
            ok,
            attempted,
            test_time_cycles,
            plan_cost,
            recover_ms,
            peak_rss_mb,
        };
        e2e.report(&mut result);
        return result;
    }

    // The traced run: the same jobs again on a fresh service, with
    // spans around each submit and a warm re-evaluation after it.
    let traced_state = setup(opts);
    let mut tracer = Tracer::new(Instant::now());
    let traced = timed_pass(&traced_state, Some(&mut tracer));
    let n = traced.latency_ms.len().max(1) as f64;
    let (mut dispatch, mut pack, mut eval) = (0.0, 0.0, 0.0);
    for ((outcome, latency), eval_ms) in
        traced.outcomes.iter().zip(&traced.latency_ms).zip(&traced.eval_ms)
    {
        let wall = outcome.report().map_or(0.0, |r| r.wall.as_secs_f64() * 1e3);
        dispatch += (latency - wall).max(0.0);
        pack += (wall - eval_ms).max(0.0);
        eval += eval_ms;
    }
    pass.work.layers(&mut layers);
    layers.set("job.dispatch_ms", dispatch / n);
    layers.set("tam.pack_ms", pack / n);
    layers.set("planner.eval_ms", eval / n);
    let request_ms = pass.latency_ms.iter().sum::<f64>() / pass.latency_ms.len().max(1) as f64;
    let accounted = (dispatch + pack + eval) / n;
    // The traced rate counts request spans only: the re-evaluations
    // between them are the trace's own probes, not tracing overhead.
    crate::account(
        &mut layers,
        request_ms,
        accounted,
        pass.timed.jobs() as f64 / pass.timed.wall_s(),
        traced.latency_ms.len() as f64 / (traced.latency_ms.iter().sum::<f64>() / 1e3),
    );
    crate::write_trace(opts, &tracer, &mut result);
    layers.report(&mut result);
    result
}
