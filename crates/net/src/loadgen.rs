//! A loopback load generator for the `msocd` protocol — and the
//! determinism oracle the acceptance gate runs.
//!
//! [`run_loopback`] streams a deterministic mixed-priority trace at a
//! live server from several concurrent TCP clients, recording
//! per-batch latency into per-thread histograms (merged at the end, no
//! shared cache line on the hot path). [`serial_replay`] runs the same
//! trace through [`execute_jobs`] on a fresh in-process service, one
//! batch at a time, and both sides reduce every batch to its canonical
//! wire encoding ([`WireOutcome::encode_batch`]) — so
//! [`LoadReport::replay_identical`] is a byte-for-byte claim: N
//! clients racing over TCP produce exactly the outcomes a serial
//! replay does. The repo's warm-equals-cold cache property is what
//! makes that hold under arbitrary interleavings.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

use msoc_core::{JobSpec, LatencyHistogram, MixedSignalSoc, PlanService, Priority};
use msoc_tam::StableHasher;

use crate::client::Client;
use crate::server::execute_jobs;
use crate::wire::{WireError, WireJob, WireOutcome, WireSocRef};

/// What a loopback run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Concurrent TCP clients used.
    pub clients: usize,
    /// Jobs submitted across all batches.
    pub jobs: u64,
    /// Wall time of the loaded phase in microseconds.
    pub elapsed_us: u64,
    /// Jobs per second over the loaded phase.
    pub jobs_per_sec: f64,
    /// Median per-batch round-trip in microseconds.
    pub p50_us: u64,
    /// 99th-percentile per-batch round-trip in microseconds.
    pub p99_us: u64,
    /// Whether every batch's outcomes matched the serial in-process
    /// replay byte for byte.
    pub replay_identical: bool,
    /// Stable digest over every batch's canonical outcome bytes (trace
    /// order) — two runs with equal digests saw equal outcomes.
    pub outcomes_digest: u64,
}

/// Deterministic PRNG (splitmix64) so traces are reproducible without
/// any entropy source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }
}

/// Builds a deterministic mixed-priority trace: `batches` batches of
/// `jobs_per_batch` jobs over the inline paper SOC — single-width
/// plans, tables and best-width sweeps across all three priorities,
/// with an occasional pre-cancelled job (cancellation observes its
/// token at a progress boundary, so it is deterministic too).
///
/// The trace deliberately contains **no deadlines**: a check budget
/// firing depends on how much work the planner still has to do, which
/// differs between a warm and a cold cache — and the determinism
/// oracle replays this trace against a cold service.
pub fn build_trace(batches: usize, jobs_per_batch: usize, seed: u64) -> Vec<Vec<WireJob>> {
    let soc = MixedSignalSoc::d695m();
    let mut rng = Rng(seed);
    let widths = [16u32, 20, 24, 28, 32];
    (0..batches)
        .map(|_| {
            (0..jobs_per_batch)
                .map(|_| {
                    let spec = match rng.next() % 10 {
                        // Mostly single-width plans (the hot path), a
                        // few multi-cell shapes for coverage.
                        0 => JobSpec::Table { widths: vec![16, 24] },
                        1 => JobSpec::BestWidth { widths: vec![16, 24, 32] },
                        _ => JobSpec::Single { width: rng.pick(&widths) },
                    };
                    let mut job = WireJob::new(WireSocRef::Inline(soc.clone()), spec);
                    job.priority = [Priority::Low, Priority::Normal, Priority::High]
                        [(rng.next() % 3) as usize];
                    job.cancelled = rng.next() % 16 == 0;
                    job
                })
                .collect()
        })
        .collect()
}

/// One worker's contribution: its latency histogram plus the canonical
/// outcome bytes of every batch it carried, tagged by trace index.
type WorkerOutput = (LatencyHistogram, Vec<(usize, Vec<u8>)>);

/// Streams `trace` at the server from `clients` concurrent TCP
/// connections (batches dealt round-robin), then replays it serially
/// in-process and compares canonical outcome bytes batch by batch.
///
/// All clients submit as `tenant`, so the whole trace lands on one
/// shard — the determinism claim is about concurrent interleaving on
/// shared caches, which needs the sharing.
///
/// # Errors
///
/// Transport errors from any client thread.
pub fn run_loopback(
    addr: SocketAddr,
    tenant: &str,
    trace: &[Vec<WireJob>],
    clients: usize,
) -> Result<LoadReport, WireError> {
    let clients = clients.max(1);
    let started = Instant::now();
    let mut results: Vec<Option<Vec<u8>>> = vec![None; trace.len()];
    let mut latency = LatencyHistogram::new();

    let worker_outputs = std::thread::scope(|scope| -> Result<Vec<WorkerOutput>, WireError> {
        let mut handles = Vec::with_capacity(clients);
        for worker in 0..clients {
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr, tenant)?;
                let mut histogram = LatencyHistogram::new();
                let mut encoded = Vec::new();
                for (index, batch) in
                    trace.iter().enumerate().filter(|(i, _)| i % clients == worker)
                {
                    let sent = Instant::now();
                    let outcomes = client.submit(batch.clone())?;
                    let us = sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    histogram.record(us);
                    encoded.push((index, WireOutcome::encode_batch(&outcomes)));
                }
                Ok::<_, WireError>((histogram, encoded))
            }));
        }
        handles.into_iter().map(|h| h.join().expect("loadgen worker does not panic")).collect()
    })?;
    let elapsed_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;

    for (histogram, encoded) in worker_outputs {
        latency.merge(&histogram);
        for (index, bytes) in encoded {
            results[index] = Some(bytes);
        }
    }
    let results: Vec<Vec<u8>> =
        results.into_iter().map(|r| r.expect("every batch was submitted")).collect();

    // The oracle: same trace, fresh service, one batch at a time.
    let serial = serial_replay(trace);
    let replay_identical = serial == results;

    let mut digest = StableHasher::new();
    for bytes in &results {
        digest.write_u64(bytes.len() as u64);
        digest.write_bytes(bytes);
    }
    let jobs: u64 = trace.iter().map(|b| b.len() as u64).sum();
    Ok(LoadReport {
        clients,
        jobs,
        elapsed_us,
        jobs_per_sec: jobs as f64 / (elapsed_us.max(1) as f64 / 1e6),
        p50_us: latency.quantile(0.5),
        p99_us: latency.quantile(0.99),
        replay_identical,
        outcomes_digest: digest.finish(),
    })
}

/// Replays `trace` on a fresh in-process [`PlanService`], batch by
/// batch in order, returning each batch's canonical outcome bytes —
/// the oracle [`run_loopback`] compares against.
pub fn serial_replay(trace: &[Vec<WireJob>]) -> Vec<Vec<u8>> {
    let service = PlanService::new();
    let registry = HashMap::new();
    trace
        .iter()
        .map(|batch| WireOutcome::encode_batch(&execute_jobs(&service, &registry, batch)))
        .collect()
}
