//! A steady end-to-end and per-layer benchmark of the msoc planner and
//! the `msocd` server.
//!
//! Three seeded closed-loop workloads drive the system only through its
//! public entry points:
//!
//! - [`cold`] — `cold-plan`: in-process `PlanService::submit`, one
//!   caller, every job on a fresh (SOC, width, effort) key, so packing
//!   and the planner's bounds do the work;
//! - [`warm`] — `warm-tcp`: an in-process `msoc_net::serve` on loopback
//!   driven by two blocking `Client`s with registered SOCs whose every
//!   job is a cache hit, so the wire codec, server dispatch, cache
//!   lookups and cost evaluation do the work;
//! - [`churn`] — `churn-persist`: in-process, a popularity-skewed fleet
//!   larger than the session cache, SOC revisions, and snapshot exports
//!   at fixed steps, followed by repeated boot recovery.
//!
//! Every run does the same work for the same seed: job counts derive
//! from `--seconds` through fixed per-workload rates, never from the
//! clock, and nothing inside a timed phase is triggered by the clock.
//! A run with `--trace 1` repeats the untraced run, then runs it again
//! with spans around the benchmark's calls into each layer and reports
//! the per-layer metrics (see `LAYERS.md`).

#![forbid(unsafe_code)]

pub mod churn;
pub mod cold;
pub mod trace;
pub mod warm;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold in-process planning.
    ColdPlan,
    /// Warm planning over loopback TCP.
    WarmTcp,
    /// Churning fleet with revisions, exports and recovery.
    ChurnPersist,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ColdPlan, Workload::WarmTcp, Workload::ChurnPersist];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPlan => "cold-plan",
            Workload::WarmTcp => "warm-tcp",
            Workload::ChurnPersist => "churn-persist",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pinned pool width: 1 for every workload. Concurrency in
    /// `warm-tcp` comes from its two clients, whose connections the
    /// server serves on two threads. At width 2 its peak RSS spread 39%
    /// and its throughput 14% across seeds on a 2-vCPU host (allocator
    /// arenas and host steal), too wide for its bounds.
    pub fn threads(self) -> usize {
        1
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload to run.
    pub workload: Workload,
    /// The workload seed; it fixes every input.
    pub seed: u64,
    /// Nominal length of the timed phase; the amount of work is
    /// `seconds` times a fixed per-workload rate.
    pub seconds: u64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Multiplies every job count (1.0 for real runs; the self-test runs
    /// reduced sizes).
    pub scale: f64,
    /// Scratch directory for snapshot stores and trace files.
    pub scratch: PathBuf,
}

impl Opts {
    /// Scaled job count for a workload running at `rate` jobs per
    /// nominal second, never below `min`.
    pub fn jobs(&self, rate: f64, min: usize) -> usize {
        ((self.seconds as f64 * rate * self.scale).round() as usize).max(min)
    }

    /// A fresh, empty scratch subdirectory.
    pub fn scratch_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one invocation produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Jobs attempted (timed phase plus checked replays).
    pub attempted: u64,
    /// Jobs without the expected outcome or without a verified output.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Deterministic work counters and output digests (the steadiness
    /// self-test compares these between two runs).
    pub work: BTreeMap<String, u64>,
    /// Host and run diagnostics.
    pub diag: Vec<(String, String)>,
}

impl RunResult {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// Records a deterministic work counter.
    pub fn work(&mut self, name: &str, value: u64) {
        self.work.insert(name.to_string(), value);
    }

    /// Records a diagnostic line.
    pub fn diag(&mut self, name: &str, value: impl ToString) {
        self.diag.push((name.to_string(), value.to_string()));
    }

    /// Records a failed check (counted once per affected job by the
    /// caller through `failed`).
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The final line: one JSON object with the run's verdict and metrics.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs one invocation.
pub fn run(opts: &Opts) -> RunResult {
    // Pin the pool width before the pool's first use; the pool reads
    // `MSOC_THREADS` on every region, so this also pins it for the
    // server's connection threads.
    std::env::set_var("MSOC_THREADS", opts.workload.threads().to_string());
    let steal_before = host::steal_seconds();
    let mut result = match opts.workload {
        Workload::ColdPlan => cold::run(opts),
        Workload::WarmTcp => warm::run(opts),
        Workload::ChurnPersist => churn::run(opts),
    };
    let steal = host::steal_seconds().zip(steal_before).map(|(after, before)| after - before);
    result.diag("workload", opts.workload.name());
    result.diag("seed", opts.seed);
    result.diag("seconds", opts.seconds);
    result.diag("trace", opts.trace);
    result.diag("pool_width", msoc_par::max_threads());
    result.diag("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()));
    result.diag("cpu_model", host::cpu_model());
    result.diag("rustc", host::rustc_version());
    result.diag("steal_s", steal.map_or("unavailable".to_string(), |s| format!("{s:.2}")));
    result
}

/// Timed phases are cut into this many rounds of equal work. Rates, CPU
/// cost and tails are medians over every round, so a burst of contention
/// from other tenants of the host moves a few rounds, not the figure.
/// (Keeping only the rounds with the least host steal, or the fastest
/// ones, selects on noise: over the same runs on a 2-vCPU host it
/// widened the spread between seeds by half.)
pub const ROUNDS: usize = 20;

/// One round of a closed-loop timed phase.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Wall time in seconds.
    pub wall_s: f64,
    /// Process user+system CPU in seconds.
    pub cpu_s: f64,
    /// Host steal in seconds.
    pub steal_s: f64,
    /// Jobs completed.
    pub jobs: u64,
    /// Per-request latencies in milliseconds.
    pub latencies_ms: Vec<f64>,
}

/// A closed-loop timed phase, round by round.
#[derive(Debug, Default)]
pub struct Timed {
    /// The rounds, in order.
    pub rounds: Vec<Round>,
}

impl Timed {
    /// Jobs completed over all rounds.
    pub fn jobs(&self) -> u64 {
        self.rounds.iter().map(|r| r.jobs).sum()
    }

    /// Wall time over all rounds, in seconds.
    pub fn wall_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall_s).sum()
    }

    /// Every request latency, in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.rounds.iter().flat_map(|r| r.latencies_ms.iter().copied()).collect()
    }

    /// Mean request latency in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        let all = self.latencies_ms();
        all.iter().sum::<f64>() / all.len().max(1) as f64
    }

    /// Median over the rounds of jobs per second.
    pub fn jobs_per_s(&self) -> f64 {
        let rates: Vec<f64> =
            self.rounds.iter().map(|r| r.jobs as f64 / r.wall_s.max(1e-9)).collect();
        median(&rates)
    }
}

/// Wall and process CPU clocks, read lap by lap.
pub struct Lap {
    wall: Instant,
    cpu: f64,
    steal: f64,
}

impl Lap {
    /// Starts the clocks.
    pub fn start() -> Self {
        Lap {
            cpu: host::process_cpu_seconds(),
            steal: host::steal_seconds().unwrap_or(0.0),
            wall: Instant::now(),
        }
    }

    /// Closes a round: its wall and CPU seconds since the previous lap.
    pub fn round(&mut self, jobs: u64, latencies_ms: Vec<f64>) -> Round {
        let (wall, cpu) = (Instant::now(), host::process_cpu_seconds());
        let steal = host::steal_seconds().unwrap_or(0.0);
        let round = Round {
            wall_s: (wall - self.wall).as_secs_f64(),
            cpu_s: cpu - self.cpu,
            steal_s: steal - self.steal,
            jobs,
            latencies_ms,
        };
        (self.wall, self.cpu, self.steal) = (wall, cpu, steal);
        round
    }
}

/// Whether request `i` of `n` closes a round.
pub fn closes_round(i: usize, n: usize) -> bool {
    i * ROUNDS / n.max(1) != (i + 1) * ROUNDS / n.max(1)
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest of a fixed ladder of percentiles that leaves at least ten
/// samples beyond it: `(percentile, samples beyond, value)`.
pub fn tail(values: &[f64]) -> (f64, usize, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in [99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0] {
        // Nearest-rank percentile.
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n - rank >= 10 {
            return (p, n - rank, v[rank - 1]);
        }
    }
    (100.0, 0, v.last().copied().unwrap_or(0.0))
}

/// The end-to-end metrics every workload reports.
pub struct EndToEnd {
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// The timed phase.
    pub timed: Timed,
    /// Jobs with the expected outcome and a verified output.
    pub ok: u64,
    /// Jobs attempted.
    pub attempted: u64,
    /// Sum of best makespans over completed plans.
    pub test_time_cycles: u64,
    /// Sum of the chosen plans' blended costs.
    pub plan_cost: f64,
    /// Median boot-to-warm recovery time in milliseconds.
    pub recover_ms: f64,
    /// Peak resident set size over the timed phase, in MB.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Appends the ten end-to-end metrics and the tail diagnostics.
    pub fn report(&self, result: &mut RunResult) {
        let t = &self.timed;
        // The tail: per round, the highest percentile with at least ten
        // samples beyond it; reported as the median over rounds.
        let tails: Vec<(f64, usize, f64)> =
            t.rounds.iter().map(|r| tail(&r.latencies_ms)).collect();
        let tail_ms = median(&tails.iter().map(|t| t.2).collect::<Vec<_>>());
        let cpu: Vec<f64> = t.rounds.iter().map(|r| r.cpu_s * 1e3 / r.jobs.max(1) as f64).collect();
        let p50 = t.latencies_ms();
        result.metric("setup_s", self.setup_s, "s");
        result.metric("jobs_per_s", t.jobs_per_s(), "jobs/s");
        result.metric("latency_p50_ms", median(&p50), "ms");
        result.metric("latency_tail_ms", tail_ms, "ms");
        result.metric("cpu_ms_per_job", median(&cpu), "ms");
        result.metric("ok_ratio", self.ok as f64 / self.attempted.max(1) as f64, "ratio");
        result.metric("test_time_cycles", self.test_time_cycles as f64, "cycles");
        result.metric("plan_cost", self.plan_cost, "cost");
        result.metric("peak_rss_mb", self.peak_rss_mb, "MB");
        result.metric("recover_ms", self.recover_ms, "ms");
        if let Some(&(pct, beyond, _)) = tails.first() {
            result.diag(
                "latency_tail",
                format!(
                    "p{pct} per round ({beyond} samples beyond), median of {} rounds",
                    tails.len()
                ),
            );
        }
        let steal: Vec<f64> = t.rounds.iter().map(|r| r.steal_s).collect();
        result.diag(
            "round_steal_s",
            format!(
                "{:.2} in {} rounds, at most {:.2} in one",
                steal.iter().sum::<f64>(),
                steal.len(),
                steal.iter().copied().fold(0.0, f64::max)
            ),
        );
        result.diag("latency_samples", t.latencies_ms().len());
        result.diag("timed_wall_s", format!("{:.3}", t.wall_s()));
        result.diag("timed_jobs", t.jobs());
    }
}

/// Times `recover_with_caps` of the snapshot store at `dir` `times` times and
/// returns the median in milliseconds plus the last report.
pub fn timed_recoveries(
    dir: &Path,
    times: usize,
    (schedule_cap, session_cap): (usize, usize),
) -> (f64, msoc_core::RecoveryReport) {
    let store = msoc_core::DirStore::open(dir).expect("snapshot store opens");
    let mut samples = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        // Drop the previous recovered service first: only one lives at
        // a time.
        drop(last.take());
        let t0 = Instant::now();
        let report = msoc_core::recover_with_caps(&store, schedule_cap, session_cap);
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(report);
    }
    (median(&samples), last.expect("at least one recovery ran"))
}

/// A small deterministic PRNG (splitmix64) for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds a stream; distinct `stream` tags give independent streams
    /// from one workload seed.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = msoc_tam::StableHasher::new();
        h.write_u64(seed);
        h.write_bytes(stream.as_bytes());
        Rng(h.finish())
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Mixed-signal SOCs over seeded synthetic digital parts (`count`
/// members cycling through 8–16 digital cores) plus the paper's five
/// analog cores.
///
/// Core contents are drawn from narrower ranges than the generator's
/// defaults, so a seed changes which SOCs a workload plans but hardly
/// how much work they are: figures then compare across seeds.
pub fn synthetic_socs(seed: u64, tag: &str, count: usize) -> Vec<msoc_core::MixedSignalSoc> {
    use msoc_itc02::synth::{random_fleet, RandomSocParams};
    let fleet_seed = Rng::new(seed, tag).next_u64() >> 16;
    let params = |cores| RandomSocParams {
        cores,
        chains: (4, 8),
        chain_len: (100, 300),
        patterns: (50, 200),
        terminals: (16, 64),
    };
    // Two fleets whose core counts cycle through 8–12 and 12–16.
    let low = random_fleet(fleet_seed, count.div_ceil(2), params(8));
    let high = random_fleet(fleet_seed ^ 0x5a5a, count / 2, params(12));
    let mut out = Vec::with_capacity(count);
    let mut high = high.into_iter();
    for (i, digital) in low.into_iter().enumerate() {
        let name = format!("{tag}{i}-{}", digital.cores().count());
        out.push(msoc_core::MixedSignalSoc::new(name, digital, msoc_analog::paper_cores()));
        if let Some(digital) = high.next() {
            let name = format!("{tag}{i}h-{}", digital.cores().count());
            out.push(msoc_core::MixedSignalSoc::new(name, digital, msoc_analog::paper_cores()));
        }
    }
    out
}

/// Order-sensitive digest over `u64` words.
#[derive(Debug)]
pub struct Digest(msoc_tam::StableHasher);

impl Default for Digest {
    fn default() -> Self {
        Digest(msoc_tam::StableHasher::new())
    }
}

impl Digest {
    /// Feeds one word.
    pub fn word(&mut self, v: u64) {
        self.0.write_u64(v);
    }

    /// Feeds bytes (length-prefixed).
    pub fn bytes(&mut self, b: &[u8]) {
        self.0.write_u64(b.len() as u64);
        self.0.write_bytes(b);
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Host readings from `/proc` (Linux); every reader degrades to a
/// neutral value elsewhere.
pub mod host {
    /// Kernel clock ticks per second for `/proc` CPU fields (`USER_HZ`,
    /// 100 on every mainstream Linux configuration).
    const USER_HZ: f64 = 100.0;

    /// Process user+system CPU seconds, all threads included.
    pub fn process_cpu_seconds() -> f64 {
        let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
        // Fields after the parenthesized command name; utime and stime
        // are fields 14 and 15 of the full line.
        let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return 0.0 };
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
        (ticks(11) + ticks(12)) / USER_HZ
    }

    /// Host-wide steal seconds so far (`/proc/stat`), if available.
    pub fn steal_seconds() -> Option<f64> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        let steal: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
        Some(steal / USER_HZ)
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb() -> f64 {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Resets the peak resident set size (`VmHWM`) to the current one,
    /// so the next reading covers only what follows.
    pub fn reset_peak_rss() {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }

    /// The CPU model from `/proc/cpuinfo`.
    pub fn cpu_model() -> String {
        std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string())
    }

    /// `rustc --version` (waits for the child to exit).
    pub fn rustc_version() -> String {
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
        std::process::Command::new(rustc)
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    }
}

/// What one benchmark job asks the planner for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    /// One `Cost_Optimizer` run at a width.
    Single(u32),
    /// The best width for the all-share configuration.
    BestWidth(Vec<u32>),
    /// A full configuration × width table.
    Table(Vec<u32>),
}

impl Kind {
    /// Applies the job shape to a builder (Standard effort, balanced
    /// weights, no deadline).
    pub fn build(&self, builder: msoc_core::JobBuilder) -> msoc_core::Job {
        let builder = match self {
            Kind::Single(w) => builder.single(*w),
            Kind::BestWidth(widths) => builder.best_width(widths.clone()),
            Kind::Table(widths) => builder.table(widths.clone()),
        };
        builder
            .weights(msoc_core::CostWeights::balanced())
            .opts(msoc_core::PlannerOptions::default())
            .build()
            .expect("benchmark jobs are well-formed")
    }

    /// The same computation as the job, through the planner's own entry
    /// point on `service` (the traced run calls it on a warm service to
    /// time evaluation alone).
    pub fn plan_directly(
        &self,
        service: &msoc_core::PlanService,
        soc: &msoc_core::MixedSignalSoc,
    ) -> Result<(), msoc_core::PlanError> {
        let mut planner =
            msoc_core::Planner::with_service(soc, msoc_core::PlannerOptions::default(), service);
        let weights = msoc_core::CostWeights::balanced();
        match self {
            Kind::Single(w) => planner.cost_optimizer(*w, weights, 0.0).map(drop),
            Kind::BestWidth(widths) => {
                let config = msoc_core::SharingConfig::all_shared(soc.analog.len());
                planner.best_width_for(&config, widths).map(drop)
            }
            Kind::Table(widths) => {
                let configs = planner.candidates();
                planner.plan_table(&configs, widths, weights).map(drop)
            }
        }
    }
}

/// The quality and accounting figures of one completed job.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// The best makespan (the paper's objective).
    pub makespan: u64,
    /// The chosen plan's blended cost (single and table jobs).
    pub cost: f64,
    /// Planning wall time reported by the service.
    pub wall_ms: f64,
    /// The job's planner counters.
    pub stats: msoc_core::PlanStats,
    /// `Cost_Optimizer` evaluations (single jobs).
    pub evaluations: u64,
    /// Cells only the cross-width incumbent pruned (table jobs).
    pub cross_width_prunes: u64,
    /// Digest of the job's result.
    pub digest: u64,
}

/// Checks that `outcome` completed with the result shape `kind` asks
/// for and that its output verifies on `service`; returns its summary.
///
/// # Errors
///
/// A one-line description of what did not hold.
pub fn verify(
    service: &msoc_core::PlanService,
    soc: &msoc_core::MixedSignalSoc,
    kind: &Kind,
    outcome: &msoc_core::JobOutcome,
) -> Result<Summary, String> {
    use msoc_core::{JobResult, Planner, PlannerOptions, SharingConfig};
    let report = outcome.report().ok_or_else(|| format!("{} {kind:?}: {outcome:?}", soc.name))?;
    let mut digest = Digest::default();
    let mut summary = Summary {
        wall_ms: report.wall.as_secs_f64() * 1e3,
        stats: report.stats,
        ..Summary::default()
    };
    let mut planner = Planner::with_service(soc, PlannerOptions::default(), service);
    match (kind, &report.result) {
        (Kind::Single(w), JobResult::Plan(plan)) => {
            if plan.tam_width != *w {
                return Err(format!("{}: planned width {} != {w}", soc.name, plan.tam_width));
            }
            // A winner capped at T_max carries the all-share schedule.
            let all = SharingConfig::all_shared(soc.analog.len());
            let valid = [&plan.best.config, &all]
                .into_iter()
                .any(|c| plan.schedule.validate(&planner.build_problem(c, *w)).is_ok());
            if !valid || plan.schedule.makespan() < plan.best.makespan {
                return Err(format!("{} w={w}: winning schedule does not verify", soc.name));
            }
            summary.makespan = plan.best.makespan;
            summary.cost = plan.best.total_cost;
            summary.evaluations = plan.evaluations as u64;
            digest.bytes(plan.best.config.to_string().as_bytes());
            digest.word(plan.schedule.makespan());
        }
        (Kind::BestWidth(widths), JobResult::BestWidth { config, width, makespan }) => {
            let again = planner.makespan(config, *width).map_err(|e| e.to_string())?;
            if !widths.contains(width) || again != *makespan {
                return Err(format!(
                    "{}: best width {width} ({makespan}) does not verify",
                    soc.name
                ));
            }
            summary.makespan = *makespan;
            digest.word(u64::from(*width));
        }
        (Kind::Table(widths), JobResult::Table(table)) => {
            let again = planner
                .makespan(&table.best.config, table.winner_width)
                .map_err(|e| e.to_string())?;
            if !widths.contains(&table.winner_width)
                || table.cells.len() != table.configs.len() * widths.len()
                || again != table.winner_makespan
            {
                return Err(format!("{}: table winner does not verify", soc.name));
            }
            summary.makespan = table.best.makespan;
            summary.cost = table.best.total_cost;
            summary.cross_width_prunes = table.stats.cross_width_prunes as u64;
            digest.bytes(table.best.config.to_string().as_bytes());
            digest.word(u64::from(table.winner_width));
        }
        (kind, other) => return Err(format!("{}: {kind:?} returned {other:?}", soc.name)),
    }
    digest.word(summary.makespan);
    digest.word(summary.cost.to_bits());
    summary.digest = digest.finish();
    Ok(summary)
}

/// The work one timed phase did, as deterministic counters.
#[derive(Debug, Default, Clone)]
pub struct Work {
    /// Summed planner counters of the phase's jobs.
    pub plan: msoc_core::PlanStats,
    /// `Cost_Optimizer` evaluations.
    pub evaluations: u64,
    /// Table cells pruned by the cross-width incumbent.
    pub cross_width_prunes: u64,
    /// Service counters at the start of the phase.
    pub service_before: msoc_core::ServiceStats,
    /// Service counters at the end of the phase.
    pub service_after: msoc_core::ServiceStats,
    /// Pool counters at the start of the phase.
    pub pool_before: msoc_par::PoolStats,
    /// Pool counters at the end of the phase.
    pub pool_after: msoc_par::PoolStats,
}

impl Work {
    /// Folds one job's summary in.
    pub fn add(&mut self, summary: &Summary) {
        let (acc, s) = (&mut self.plan, &summary.stats);
        acc.skeleton_hits += s.skeleton_hits;
        acc.skeleton_misses += s.skeleton_misses;
        acc.delta_packs += s.delta_packs;
        acc.pruned_passes += s.pruned_passes;
        acc.prefix_hits += s.prefix_hits;
        acc.prefix_jobs_restored += s.prefix_jobs_restored;
        acc.width_bound_prunes += s.width_bound_prunes;
        acc.cost_bound_prunes += s.cost_bound_prunes;
        self.evaluations += summary.evaluations;
        self.cross_width_prunes += summary.cross_width_prunes;
    }

    /// Service counter deltas over the phase.
    fn service(&self) -> [(&'static str, u64); 8] {
        let (a, b) = (&self.service_after, &self.service_before);
        [
            ("service.schedule_hits", a.schedule_hits - b.schedule_hits),
            ("service.schedule_misses", a.schedule_misses - b.schedule_misses),
            ("service.session_hits", a.session_hits - b.session_hits),
            ("service.session_misses", a.session_misses - b.session_misses),
            ("service.session_evictions", a.session_evictions - b.session_evictions),
            ("service.schedule_evictions", a.schedule_evictions - b.schedule_evictions),
            ("service.revision_cache_hits", a.revision_cache_hits - b.revision_cache_hits),
            ("service.lock_contentions", a.lock_contentions - b.lock_contentions),
        ]
    }

    /// The deterministic counters, named like the per-layer metrics.
    /// Lock contentions and pool counters depend on thread timing and
    /// are left out.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let p = &self.plan;
        let mut out = vec![
            ("tam.delta_packs", p.delta_packs),
            ("tam.skeleton_misses", p.skeleton_misses),
            ("tam.pruned_passes", p.pruned_passes),
            ("tam.prefix_jobs_restored", p.prefix_jobs_restored),
            ("planner.evaluations", self.evaluations),
            ("planner.width_bound_prunes", p.width_bound_prunes),
            ("planner.cost_bound_prunes", p.cost_bound_prunes),
            ("planner.cross_width_prunes", self.cross_width_prunes),
        ];
        out.extend(self.service().into_iter().filter(|(n, _)| *n != "service.lock_contentions"));
        out
    }

    /// Records the counters as work for the steadiness self-test.
    pub fn record(&self, result: &mut RunResult) {
        for (name, value) in self.counters() {
            result.work(name, value);
        }
    }

    /// Sets the counter-valued per-layer metrics.
    pub fn layers(&self, layers: &mut trace::Layers) {
        for (name, value) in self.counters().into_iter().chain(self.service()) {
            layers.set(name, value as f64);
        }
        let p = &self.plan;
        layers.set(
            "tam.prune_ratio",
            p.pruned_passes as f64 / (p.pruned_passes + p.delta_packs).max(1) as f64,
        );
        let hits = self.service_after.schedule_hits - self.service_before.schedule_hits;
        let misses = self.service_after.schedule_misses - self.service_before.schedule_misses;
        layers.set("service.schedule_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
        let (a, b) = (&self.pool_after, &self.pool_before);
        layers.set("par.dispatches", (a.dispatches - b.dispatches) as f64);
        layers.set("par.steals", (a.steals - b.steals) as f64);
        layers.set("par.parks", (a.parks - b.parks) as f64);
    }
}

/// Exports `service` once through a snapshot daemon into a fresh store
/// at `dir`, then times `recoveries` boots from it. Sets the snapshot
/// and recovery per-layer metrics and returns the median recovery time
/// in milliseconds.
///
/// # Errors
///
/// When the export does not persist or a recovery does not boot the
/// exported generation.
pub fn persist_and_recover(
    service: &msoc_core::PlanService,
    dir: &Path,
    recoveries: usize,
    caps: (usize, usize),
    layers: &mut trace::Layers,
) -> Result<f64, String> {
    use msoc_core::{DirStore, ExportOutcome, SnapshotDaemon};
    let store = DirStore::open(dir).map_err(|e| e.to_string())?;
    let mut daemon = SnapshotDaemon::new(service, store);
    let t0 = Instant::now();
    let exported = daemon.export_now();
    let export_ms = t0.elapsed().as_secs_f64() * 1e3;
    let ExportOutcome::Persisted { generation, bytes, .. } = exported else {
        return Err(format!("snapshot export did not persist: {exported:?}"));
    };
    layers.set("snapshot.export_ms", export_ms);
    layers.set("snapshot.bytes", bytes as f64);
    layers.set("snapshot.shard_exports_reused", daemon.stats().shard_exports_reused as f64);
    drop(daemon);
    let (recover_ms, report) = timed_recoveries(dir, recoveries, caps);
    if report.generation != Some(generation) || report.quarantined > 0 {
        return Err(format!(
            "recovery booted {:?} (quarantined {}), expected generation {generation}",
            report.generation, report.quarantined
        ));
    }
    layers.set("recover.import_ms", import_ms(dir)?);
    layers.set("recover.import_restored", report.import_restored as f64);
    layers.set("recover.import_dropped", report.import_dropped as f64);
    Ok(recover_ms)
}

/// Decode + import time of the newest generation in the store at `dir`,
/// without the store scan (the part of recovery the snapshot layer owns).
///
/// # Errors
///
/// When the store holds no decodable generation.
pub fn import_ms(dir: &Path) -> Result<f64, String> {
    use msoc_core::{parse_blob_name, DirStore, PlanService, ServiceSnapshot, SnapshotStore};
    let store = DirStore::open(dir).map_err(|e| e.to_string())?;
    let names = store.list().map_err(|e| e.to_string())?;
    let newest = names
        .iter()
        .filter_map(|n| parse_blob_name(n).map(|(g, _)| (g, n)))
        .max_by_key(|(g, _)| *g)
        .ok_or("no snapshot generation in the store")?;
    let bytes = store.get(newest.1).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let snapshot = ServiceSnapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
    let service = PlanService::from_snapshot(&snapshot).map_err(|e| e.to_string())?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(service);
    Ok(ms)
}

/// Sets the accounting metrics of a traced run: the untraced mean
/// per-request time, the sum of the layer self-times per request, the
/// share of the former the latter leaves unexplained, and the tracing
/// overhead as the traced run's throughput loss.
pub fn account(
    layers: &mut trace::Layers,
    request_ms: f64,
    accounted_ms: f64,
    untraced_jobs_per_s: f64,
    traced_jobs_per_s: f64,
) {
    layers.set("trace.request_ms", request_ms);
    layers.set("trace.accounted_ms", accounted_ms);
    layers.set("trace.unaccounted_share", 1.0 - accounted_ms / request_ms.max(1e-9));
    layers.set("trace.overhead_share", 1.0 - traced_jobs_per_s / untraced_jobs_per_s.max(1e-9));
}

/// Writes the traced run's spans next to the benchmark's other outputs
/// and names the file in the diagnostics.
pub fn write_trace(opts: &Opts, tracer: &trace::Tracer, result: &mut RunResult) {
    let path = PathBuf::from(".bench_traces").join(format!(
        "{}-seed{}-spans.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    match tracer.write(&path) {
        Ok(()) => result.diag("trace_file", path.display()),
        Err(e) => result.fail(format!("writing {}: {e}", path.display())),
    }
    result.diag("spans", tracer.spans().len());
}
