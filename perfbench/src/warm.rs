//! `warm-tcp`: `msoc_net::serve` on loopback inside the benchmark
//! process, no snapshot store, pool width 1, and two closed-loop
//! `Client`s on one tenant sending 4-job batches of registered SOCs.
//!
//! Set-up registers a hot set and submits every distinct job once, so
//! the timed phase packs nothing: the wire codec, server dispatch, cache
//! lookups with content verification, cost evaluation and pool dispatch
//! do all the work.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::Instant;

use msoc_core::{JobBuilder, MixedSignalSoc, PlanService, ServiceStats, SocHandle};
use msoc_net::{
    execute_jobs, frame_request, frame_response, read_request, read_response, serve, Client,
    Request, Response, ServerConfig, ServerReport, WireError, WireJob, WireOutcome, WireSoc,
    WireSocRef, WireSpec,
};

use crate::trace::{Layers, Tracer};
use crate::{EndToEnd, Kind, Lap, Opts, Rng, Round, RunResult, Timed, Work};

/// Batches per nominal second, over both clients.
const RATE: f64 = 330.0;
/// Jobs per batch.
const BATCH: usize = 4;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Hot-set SOCs (the last one is the paper's d695m).
const HOT_SOCS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Recoveries per run; `recover_ms` is their median.
const RECOVERIES: usize = 7;
/// Every how many batches the traced run re-drives in process.
const REDRIVE_EVERY: usize = 4;
/// The one tenant every client submits as.
const TENANT: &str = "perfbench";

/// One distinct job of the hot set.
struct Distinct {
    soc: usize,
    kind: Kind,
    wire: WireJob,
}

/// A booted server with its hot set registered and filled.
struct State {
    socs: Vec<MixedSignalSoc>,
    /// Server-side registration id per SOC.
    ids: Vec<u64>,
    distinct: Vec<Distinct>,
    /// Per client: batches of indices into `distinct`.
    batches: Vec<Vec<Vec<usize>>>,
    /// The set-up fill's outcome per distinct job.
    fill: Vec<WireOutcome>,
    /// Connected timed-phase clients.
    clients: Vec<Client>,
    addr: SocketAddr,
    server: JoinHandle<Result<ServerReport, WireError>>,
}

fn wire_spec(kind: &Kind) -> WireSpec {
    match kind {
        Kind::Single(w) => WireSpec::Single { width: *w },
        Kind::BestWidth(widths) => WireSpec::BestWidth { widths: widths.clone() },
        Kind::Table(widths) => WireSpec::Table { widths: widths.clone() },
    }
}

/// A wire job with the same shape `Kind::build` gives in process
/// (Standard effort, skyline engine, balanced weights).
fn wire_job(soc: WireSocRef, kind: &Kind) -> WireJob {
    let mut job = WireJob::new(soc, wire_spec(kind));
    job.effort = msoc_tam::Effort::Standard;
    job
}

/// The hot set's SOCs and their distinct jobs: four single widths, one
/// best-width sweep and one table per SOC.
fn hot_set(opts: &Opts) -> (Vec<MixedSignalSoc>, Vec<(usize, Kind)>) {
    let mut rng = Rng::new(opts.seed, "warm-tcp");
    let mut socs = crate::synthetic_socs(opts.seed, "warm", HOT_SOCS - 1);
    socs.push(MixedSignalSoc::d695m());
    let mut jobs = Vec::new();
    for soc in 0..socs.len() {
        for bin in 0..4u32 {
            jobs.push((soc, Kind::Single(16 + bin * 12 + rng.below(12) as u32)));
        }
        let top = 48 + rng.below(17) as u32;
        jobs.push((soc, Kind::BestWidth(vec![top, top - 12, top - 24])));
        let low = 16 + rng.below(25) as u32;
        jobs.push((soc, Kind::Table(vec![low, low + 8, low + 16])));
    }
    (socs, jobs)
}

fn setup(opts: &Opts) -> Result<State, WireError> {
    let (socs, jobs) = hot_set(opts);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(WireError::from)?;
    let addr = listener.local_addr().map_err(WireError::from)?;
    let config = ServerConfig { shards: 1, store_root: None, ..ServerConfig::default() };
    let server = std::thread::spawn(move || serve(listener, &config));

    let mut client = Client::connect(addr, TENANT)?;
    let ids = socs
        .iter()
        .map(|soc| client.register(WireSoc::from_soc(soc)))
        .collect::<Result<Vec<u64>, WireError>>()?;
    let distinct: Vec<Distinct> = jobs
        .into_iter()
        .map(|(soc, kind)| {
            let wire = wire_job(WireSocRef::Registered(ids[soc]), &kind);
            Distinct { soc, kind, wire }
        })
        .collect();
    // The cold fill: every distinct job once, one job per request, so
    // no two concurrent misses share a key.
    let mut fill = Vec::with_capacity(distinct.len());
    for job in &distinct {
        fill.extend(client.submit(vec![job.wire.clone()])?);
    }
    drop(client);

    let mut rng = Rng::new(opts.seed, "warm-tcp/batches");
    let per_client = opts.jobs(RATE, 8 * CLIENTS) / CLIENTS;
    let batches = (0..CLIENTS)
        .map(|_| {
            (0..per_client)
                .map(|_| (0..BATCH).map(|_| rng.below(distinct.len())).collect())
                .collect()
        })
        .collect();
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(addr, TENANT))
        .collect::<Result<Vec<Client>, WireError>>()?;
    Ok(State { socs, ids, distinct, batches, fill, clients, addr, server })
}

/// Stops the server: every client is dropped first (the server waits on
/// open connections), then one short-lived client sends `Shutdown`.
fn shutdown(state: State) -> Result<ServerReport, String> {
    let State { clients, addr, server, .. } = state;
    drop(clients);
    let mut client = Client::connect(addr, TENANT).map_err(|e| e.to_string())?;
    client.shutdown().map_err(|e| e.to_string())?;
    drop(client);
    server.join().map_err(|_| "server thread panicked".to_string())?.map_err(|e| e.to_string())
}

fn stats(addr: SocketAddr) -> Result<msoc_net::WireStats, WireError> {
    Client::connect(addr, TENANT)?.stats()
}

/// One timed pass: every client runs its batches closed-loop.
struct Pass {
    timed: Timed,
    /// Per client, per batch: outcomes.
    outcomes: Vec<Vec<Vec<WireOutcome>>>,
    before: msoc_net::WireStats,
    after: msoc_net::WireStats,
    pool_before: msoc_par::PoolStats,
    pool_after: msoc_par::PoolStats,
}

/// What one client thread brings back: per batch its outcomes, per
/// round its latencies, and its spans.
type ClientRun = (Vec<Vec<WireOutcome>>, Vec<Vec<f64>>, Tracer);

/// The clients run their batches closed-loop; a barrier at every round
/// boundary lets the main thread read the round's wall and CPU clocks.
fn timed_pass(
    state: &mut State,
    origin: Instant,
    tracers: Option<&mut Vec<Tracer>>,
) -> Result<Pass, WireError> {
    let before = stats(state.addr)?;
    let pool_before = msoc_par::pool_stats();
    let distinct = &state.distinct;
    let traced = tracers.is_some();
    let barrier = std::sync::Barrier::new(CLIENTS + 1);
    let barrier = &barrier;
    let per_batch = state.batches.first().map_or(0, Vec::len);
    let (per_client, mut rounds) = std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .clients
            .iter_mut()
            .zip(&state.batches)
            .enumerate()
            .map(|(c, (client, batches))| {
                scope.spawn(move || -> Result<ClientRun, WireError> {
                    let mut tracer = Tracer::new(origin);
                    let mut out = Vec::with_capacity(batches.len());
                    let (mut rounds, mut latencies) = (Vec::new(), Vec::new());
                    barrier.wait();
                    for (b, batch) in batches.iter().enumerate() {
                        let jobs: Vec<WireJob> =
                            batch.iter().map(|&j| distinct[j].wire.clone()).collect();
                        let t0 = Instant::now();
                        let outcomes = if traced {
                            let req = (b * CLIENTS + c) as u64;
                            tracer.span("request", req, None, || client.submit(jobs)).0
                        } else {
                            client.submit(jobs)
                        };
                        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                        // A failed client still meets every barrier, so
                        // the others are never left waiting.
                        out.push(outcomes);
                        if crate::closes_round(b, batches.len()) {
                            rounds.push(std::mem::take(&mut latencies));
                            barrier.wait();
                        }
                    }
                    let out = out.into_iter().collect::<Result<Vec<_>, WireError>>()?;
                    Ok((out, rounds, tracer))
                })
            })
            .collect();
        barrier.wait();
        let mut lap = Lap::start();
        let mut start = 0;
        let rounds: Vec<Round> = (0..per_batch)
            .filter(|&b| crate::closes_round(b, per_batch))
            .map(|b| {
                barrier.wait();
                let jobs = ((b + 1 - start) * CLIENTS * BATCH) as u64;
                start = b + 1;
                lap.round(jobs, Vec::new())
            })
            .collect();
        let per_client: Vec<Result<ClientRun, WireError>> =
            handles.into_iter().map(|h| h.join().expect("client thread does not panic")).collect();
        (per_client, rounds)
    });
    let pool_after = msoc_par::pool_stats();
    let after = stats(state.addr)?;
    let mut outcomes = Vec::with_capacity(CLIENTS);
    let mut tracers_out = Vec::new();
    for run in per_client {
        let (out, latencies, tracer) = run?;
        for (round, l) in rounds.iter_mut().zip(latencies) {
            round.latencies_ms.extend(l);
        }
        outcomes.push(out);
        tracers_out.push(tracer);
    }
    if let Some(t) = tracers {
        *t = tracers_out;
    }
    Ok(Pass { timed: Timed { rounds }, outcomes, before, after, pool_before, pool_after })
}

/// The makespan and blended cost a wire outcome reports.
fn quality(outcome: &WireOutcome) -> Option<(u64, f64)> {
    use msoc_net::wire::WireResult;
    match outcome {
        WireOutcome::Completed(WireResult::Plan { makespan, cost_bits, .. }) => {
            Some((*makespan, f64::from_bits(*cost_bits)))
        }
        WireOutcome::Completed(WireResult::Table { winner_makespan, cost_bits, .. }) => {
            Some((*winner_makespan, f64::from_bits(*cost_bits)))
        }
        WireOutcome::Completed(WireResult::BestWidth { makespan, .. }) => Some((*makespan, 0.0)),
        _ => None,
    }
}

/// The in-process twin of the server's warm state: the same SOCs
/// registered under the same ids, filled with the same jobs.
struct Replica {
    service: PlanService,
    registry: HashMap<u64, SocHandle>,
}

fn replica(state: &State) -> Replica {
    let service = PlanService::new();
    let registry: HashMap<u64, SocHandle> = state
        .ids
        .iter()
        .zip(&state.socs)
        .map(|(&id, soc)| (id, service.register(soc.clone())))
        .collect();
    for job in &state.distinct {
        execute_jobs(&service, &registry, std::slice::from_ref(&job.wire));
    }
    Replica { service, registry }
}

/// Outside the timed phase: the fill and every timed outcome must be
/// byte-identical to `msoc_net::serial_replay` of the same job with the
/// SOC inline, and the timed phase must not pack. Returns `(ok jobs,
/// test time, plan cost)`.
fn check(state: &State, pass: &Pass, result: &mut RunResult) -> (u64, u64, f64) {
    let inline: Vec<Vec<WireJob>> = state
        .distinct
        .iter()
        .map(|d| vec![wire_job(WireSocRef::Inline(WireSoc::from_soc(&state.socs[d.soc])), &d.kind)])
        .collect();
    let oracle = msoc_net::serial_replay(&inline);
    let encode = |o: &WireOutcome| WireOutcome::encode_batch(std::slice::from_ref(o));
    for (j, (fill, want)) in state.fill.iter().zip(&oracle).enumerate() {
        if encode(fill) != *want {
            result.fail(format!("fill job {j}: outcome differs from serial replay: {fill:?}"));
        }
    }
    let (mut ok, mut test_time, mut cost) = (0u64, 0u64, 0.0);
    let mut digest = crate::Digest::default();
    for (batches, out) in state.batches.iter().zip(&pass.outcomes) {
        for (batch, outcomes) in batches.iter().zip(out) {
            for (&j, outcome) in batch.iter().zip(outcomes) {
                let bytes = encode(outcome);
                digest.bytes(&bytes);
                match quality(outcome) {
                    Some((m, c)) if bytes == oracle[j] => {
                        ok += 1;
                        test_time += m;
                        cost += c;
                    }
                    _ => result.fail(format!(
                        "distinct job {j}: timed outcome differs from serial replay"
                    )),
                }
            }
        }
    }
    result.work("outputs_digest", digest.finish());
    let packed = pass.after.schedule_misses - pass.before.schedule_misses;
    result.work("timed_schedule_misses", packed);
    if packed != 0 {
        result.fail(format!("the warm timed phase packed {packed} times"));
    }
    (ok, test_time, cost)
}

fn work(pass: &Pass, report: &ServerReport) -> Work {
    let b = &pass.before;
    let service_before = ServiceStats {
        schedule_hits: b.schedule_hits,
        schedule_misses: b.schedule_misses,
        session_hits: b.session_hits,
        session_misses: b.session_misses,
        ..ServiceStats::default()
    };
    // The final report equals the post-phase stats (nothing ran in
    // between) and adds the counters the wire stats do not carry.
    let mut service_after = report.shards.first().map(|s| s.stats).unwrap_or_default();
    service_after.schedule_hits = pass.after.schedule_hits;
    service_after.schedule_misses = pass.after.schedule_misses;
    service_after.session_hits = pass.after.session_hits;
    service_after.session_misses = pass.after.session_misses;
    Work {
        service_before,
        service_after,
        pool_before: pass.pool_before,
        pool_after: pass.pool_after,
        ..Work::default()
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> RunResult {
    let mut result = RunResult::default();
    match run_inner(opts, &mut result) {
        Ok(()) => {}
        Err(e) => result.fail(format!("warm-tcp: {e}")),
    }
    result
}

fn run_inner(opts: &Opts, result: &mut RunResult) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        if let Some(previous) = state.take() {
            shutdown(previous)?;
        }
        let t0 = Instant::now();
        state = Some(setup(opts).map_err(|e| e.to_string())?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up ran");
    result.diag("distinct_jobs", state.distinct.len());
    result.diag("clients", CLIENTS);
    result.diag("batch_jobs", BATCH);

    crate::host::reset_peak_rss();
    let pass = timed_pass(&mut state, Instant::now(), None).map_err(|e| e.to_string())?;
    let peak_rss_mb = crate::host::peak_rss_mb();
    let (ok, test_time_cycles, plan_cost) = check(&state, &pass, result);
    result.attempted += pass.timed.jobs();
    result.failed += pass.timed.jobs() - ok;
    let mut layers = Layers::default();
    let replica = replica(&state);
    let store = opts.scratch_dir("warm-tcp-store");
    // The replica runs with `PlanService::new`'s caps: 4096 schedules,
    // 256 sessions.
    let recover_ms =
        crate::persist_and_recover(&replica.service, &store, RECOVERIES, (4096, 256), &mut layers)
            .unwrap_or_else(|e| {
                result.fail(e);
                0.0
            });
    let (batches, distinct, socs, ids) = (
        state.batches.clone(),
        std::mem::take(&mut state.distinct),
        state.socs.clone(),
        state.ids.clone(),
    );
    let report = shutdown(state)?;
    let work = work(&pass, &report);
    work.record(result);

    if !opts.trace {
        let e2e = EndToEnd {
            setup_s: crate::median(&setups),
            timed: pass.timed,
            ok,
            attempted: result.attempted,
            test_time_cycles,
            plan_cost,
            recover_ms,
            peak_rss_mb,
        };
        e2e.report(result);
        return Ok(());
    }

    // The traced run: the same batches on a fresh server with a span
    // around every TCP request, then a sample of batches re-driven in
    // process through the wire codec and the layers below.
    let origin = Instant::now();
    let mut traced_state = setup(opts).map_err(|e| e.to_string())?;
    let mut tracers = Vec::new();
    let traced =
        timed_pass(&mut traced_state, origin, Some(&mut tracers)).map_err(|e| e.to_string())?;
    shutdown(traced_state)?;
    let mut tracer = Tracer::new(origin);
    for t in tracers {
        tracer.absorb(t);
    }
    let request_span: HashMap<u64, usize> =
        tracer.spans().iter().enumerate().map(|(id, s)| (s.req, id)).collect();

    let mut sums = [0.0f64; 8];
    let [req_bytes, resp_bytes, encode_us, decode_us, overhead, dispatch, eval, pack] = &mut sums;
    let (mut sampled, mut sampled_jobs) = (0usize, 0usize);
    for (c, client_batches) in batches.iter().enumerate() {
        for (b, batch) in client_batches.iter().enumerate().step_by(REDRIVE_EVERY) {
            let req = (b * CLIENTS + c) as u64;
            let parent = request_span.get(&req).copied();
            let jobs: Vec<WireJob> = batch.iter().map(|&j| distinct[j].wire.clone()).collect();
            let request = Request::Submit { tenant: TENANT.to_string(), jobs: jobs.clone() };
            let (frame, enc) = tracer.span("wire.encode", req, parent, || frame_request(&request));
            let (decoded, dec) =
                tracer.span("wire.decode", req, parent, || read_request(&mut frame.as_slice()));
            if decoded.as_ref() != Ok(&request) {
                result.fail("request frame does not round-trip".to_string());
            }
            let (outcomes, exec) = tracer.span("execute_jobs", req, parent, || {
                execute_jobs(&replica.service, &replica.registry, &jobs)
            });
            let response = Response::Outcomes(outcomes);
            let (rframe, renc) =
                tracer.span("wire.encode", req, parent, || frame_response(&response));
            let (rdecoded, rdec) =
                tracer.span("wire.decode", req, parent, || read_response(&mut rframe.as_slice()));
            if rdecoded.as_ref() != Ok(&response) {
                result.fail("response frame does not round-trip".to_string());
            }
            let spans = tracer.spans();
            *req_bytes += frame.len() as f64;
            *resp_bytes += rframe.len() as f64;
            *encode_us += (spans[enc].ms() + spans[renc].ms()) * 1e3;
            *decode_us += (spans[dec].ms() + spans[rdec].ms()) * 1e3;
            let tcp_ms = parent.map_or(0.0, |p| spans[p].ms());
            *overhead += tcp_ms - spans[exec].ms();
            for &j in batch {
                let d = &distinct[j];
                let handle = &replica.registry[&ids[d.soc]];
                let job = d.kind.build(JobBuilder::for_handle(handle));
                let (out, sub) = tracer.span("service.submit", req, parent, || {
                    replica.service.submit(std::slice::from_ref(&job))
                });
                let wall = out[0].report().map_or(0.0, |r| r.wall.as_secs_f64() * 1e3);
                let (_, ev) = tracer.span("planner.eval", req, parent, || {
                    d.kind.plan_directly(&replica.service, &socs[d.soc])
                });
                let spans = tracer.spans();
                *dispatch += (spans[sub].ms() - wall).max(0.0);
                *eval += spans[ev].ms();
                *pack += (wall - spans[ev].ms()).max(0.0);
                sampled_jobs += 1;
            }
            sampled += 1;
        }
    }
    let (nb, nj) = (sampled.max(1) as f64, sampled_jobs.max(1) as f64);
    work.layers(&mut layers);
    layers.set("wire.request_bytes", *req_bytes / nb);
    layers.set("wire.response_bytes", *resp_bytes / nb);
    layers.set("wire.encode_us", *encode_us / nb);
    layers.set("wire.decode_us", *decode_us / nb);
    layers.set("net.overhead_ms", *overhead / nb);
    layers.set("job.dispatch_ms", *dispatch / nj);
    layers.set("planner.eval_ms", *eval / nj);
    layers.set("tam.pack_ms", *pack / nj);
    // Per request: the wire codec both ways plus the in-process batch
    // execution; the rest of a TCP round trip is loopback transport and
    // server dispatch (net.overhead_ms minus the codec).
    let t = tracer.self_times();
    let exec_ms = t.get("execute_jobs").map_or(0.0, |&(ms, n)| ms / n.max(1) as f64);
    let accounted = exec_ms + (*encode_us + *decode_us) / nb / 1e3;
    let request_ms = pass.timed.mean_latency_ms();
    crate::account(
        &mut layers,
        request_ms,
        accounted,
        pass.timed.jobs() as f64 / pass.timed.wall_s(),
        traced.timed.jobs() as f64 / traced.timed.wall_s(),
    );
    crate::write_trace(opts, &tracer, result);
    layers.report(result);
    Ok(())
}
