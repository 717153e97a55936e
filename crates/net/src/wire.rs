//! The `msocd` wire protocol: length-prefixed binary frames over any
//! byte stream.
//!
//! # Frame layout
//!
//! ```text
//! +------+---------+------+--------------------+---------------------+
//! | MNET | version | kind | payload len (LEB)  | payload             |
//! | 4 B  | 1 B     | 1 B  | strict varint      | ≤ 4 MiB             |
//! +------+---------+------+--------------------+---------------------+
//! ```
//!
//! `kind` separates requests (1) from responses (2) so a desynchronized
//! peer fails with a structured error instead of misparsing. The payload
//! length and every integer inside the payload are **strict varints**,
//! and every payload decodes through `msoc_core::service::codec::Reader`
//! — the same reader the snapshot format decodes with — so overlong,
//! non-canonical and past-the-64th-bit encodings, and counts the
//! remaining bytes cannot hold, are rejected identically on the wire and
//! on disk.
//!
//! # Safety properties
//!
//! Decoding untrusted bytes **never panics and never allocates from an
//! untrusted length**: frame payloads are read in bounded chunks, every
//! collection count is checked against the bytes actually remaining
//! (each element consumes at least one byte) before anything is
//! reserved, and all domain invariants that the core constructors
//! enforce by panicking — sharing-group partitions, cost-weight sums,
//! analog catalog names — are pre-validated here and surface as
//! [`WireError::Corrupt`]. The truncation/bit-flip fuzz suite in
//! `tests/fuzz.rs` holds the protocol to this.

use std::fmt;
use std::io::{self, Read, Write};

use msoc_analog::{paper_cores, AnalogCoreSpec, AnalogTestKind, AnalogTestSpec, CoreId};
use msoc_core::service::codec::{write_uv, DecodeError, Reader};
use msoc_core::{CostWeights, JobOutcome, JobResult, MixedSignalSoc, PlanError, SharingConfig};
use msoc_itc02::{Module, ModuleTest, Soc};
use msoc_tam::{Effort, ScheduledTest};

/// Frame magic.
pub const WIRE_MAGIC: &[u8; 4] = b"MNET";
/// Protocol version this build speaks. Version 1 jobs carried an engine
/// byte after the effort byte; a v1 frame is refused by its header.
pub const WIRE_VERSION: u8 = 2;
/// Upper bound on one frame's payload (4 MiB).
pub const MAX_FRAME: u64 = 4 << 20;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;

/// Bytes read from the stream per chunk while filling a payload — the
/// allocation granularity, so a lying length prefix can cost at most one
/// chunk of memory beyond what the stream actually delivers.
const READ_CHUNK: usize = 64 * 1024;

/// Why a frame or payload could not be decoded. Every variant is a
/// structured error — untrusted bytes never panic the decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended inside a frame or a record.
    Truncated,
    /// The frame does not start with [`WIRE_MAGIC`].
    BadMagic,
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u8),
    /// The frame kind is neither request nor response, or not the kind
    /// the caller expected.
    UnexpectedKind(u8),
    /// The declared payload length exceeds [`MAX_FRAME`].
    FrameTooLarge(u64),
    /// The payload's message tag names no known message.
    UnknownMessage(u64),
    /// A record is internally inconsistent (description attached).
    Corrupt(String),
    /// The transport failed (description attached).
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame is truncated"),
            WireError::BadMagic => write!(f, "not an msocd frame (bad magic)"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (this build speaks {WIRE_VERSION})")
            }
            WireError::UnexpectedKind(k) => write!(f, "unexpected frame kind {k}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::UnknownMessage(tag) => write!(f, "unknown message tag {tag}"),
            WireError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
            WireError::Io(what) => write!(f, "transport error: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => WireError::Truncated,
            DecodeError::Corrupt(what) => WireError::Corrupt(what),
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.to_string())
        }
    }
}

// ---------------------------------------------------------------------
// Message types
// ---------------------------------------------------------------------

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register an SOC under the tenant; the returned id names it in
    /// later [`Request::Submit`] and [`Request::Revise`] calls.
    Register {
        /// Tenant name (keys the serving shard).
        tenant: String,
        /// The SOC to register.
        soc: WireSoc,
    },
    /// Run a batch of jobs on the tenant's shard.
    Submit {
        /// Tenant name.
        tenant: String,
        /// The batch, carrying the full job surface (spec, candidate
        /// configs, weights, effort, priority, deadline,
        /// cancellation).
        jobs: Vec<WireJob>,
    },
    /// Apply core edits to a registered SOC (incremental revision).
    Revise {
        /// Tenant name.
        tenant: String,
        /// The registered SOC to revise.
        soc_id: u64,
        /// The edits, applied in order.
        edits: Vec<WireEdit>,
    },
    /// Fetch the tenant's shard statistics.
    Stats {
        /// Tenant name.
        tenant: String,
    },
    /// Force a snapshot of every shard now, even one whose session ticks
    /// did not advance.
    SnapshotNow,
    /// Gracefully stop the server (flushes snapshots when configured).
    Shutdown,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Register`].
    Registered {
        /// The id the SOC is now registered under.
        soc_id: u64,
    },
    /// Reply to [`Request::Submit`]: one outcome per job, input order.
    Outcomes(Vec<WireOutcome>),
    /// Reply to [`Request::Revise`].
    Revised {
        /// The id (unchanged; the handle is revised in place).
        soc_id: u64,
        /// The SOC's revision counter after the edits.
        revision: u64,
    },
    /// Reply to [`Request::Stats`].
    Stats(WireStats),
    /// Reply to [`Request::SnapshotNow`].
    SnapshotDone {
        /// Generations persisted across the shards by this request
        /// (0 = all content was already persisted).
        persisted: u64,
    },
    /// Reply to [`Request::Shutdown`]; the server stops accepting after
    /// sending it.
    ShuttingDown,
    /// The request could not be served (unknown SOC id, decode failure
    /// reported back, …).
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// A [`MixedSignalSoc`] on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSoc {
    /// SOC name.
    pub name: String,
    /// Digital SOC name (the ITC'02 benchmark name).
    pub digital_name: String,
    /// Digital modules.
    pub modules: Vec<WireModule>,
    /// Wrapped analog cores.
    pub analog: Vec<WireAnalogCore>,
}

/// One digital module on the wire (mirrors `msoc_itc02::Module`).
#[derive(Debug, Clone, PartialEq)]
pub struct WireModule {
    /// Module id.
    pub id: u32,
    /// Hierarchy level (0 = the SOC itself).
    pub level: u32,
    /// Functional inputs.
    pub inputs: u32,
    /// Functional outputs.
    pub outputs: u32,
    /// Bidirectional terminals.
    pub bidirs: u32,
    /// Scan-chain lengths.
    pub scan_chains: Vec<u32>,
    /// Tests: `(patterns, scan_used, tam_used)`.
    pub tests: Vec<(u64, bool, bool)>,
}

/// One analog core on the wire (mirrors `msoc_analog::AnalogCoreSpec`;
/// the name must match the paper catalog — see [`WireSoc::to_soc`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WireAnalogCore {
    /// Paper core id, 0..5 (A..E).
    pub id: u8,
    /// Catalog name (validated against the paper cores on decode).
    pub name: String,
    /// Converter resolution in bits.
    pub resolution_bits: u8,
    /// Tests: `(kind tag, f_low_hz, f_high_hz, sample_rate_hz, cycles,
    /// tam_width)`.
    pub tests: Vec<(u8, f64, f64, f64, u64, u32)>,
}

/// One core edit on the wire (mirrors `msoc_core::CoreEdit`).
#[derive(Debug, Clone, PartialEq)]
pub enum WireEdit {
    /// Replace the analog core at `index`.
    ReplaceAnalog {
        /// Index into the SOC's analog core list.
        index: u64,
        /// The replacement core.
        core: WireAnalogCore,
    },
    /// Replace the digital module with id `id`.
    ReplaceDigital {
        /// The module id to replace.
        id: u32,
        /// The replacement module.
        module: WireModule,
    },
}

/// The SOC a wire job plans: a previously registered id, or an inline
/// SOC carried in the job itself.
#[derive(Debug, Clone, PartialEq)]
pub enum WireSocRef {
    /// A [`Request::Register`]ed SOC.
    Registered(u64),
    /// An SOC carried inline.
    Inline(WireSoc),
}

/// What a wire job computes (mirrors `msoc_core::JobSpec`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireSpec {
    /// One `Cost_Optimizer` run at a single TAM width.
    Single {
        /// SOC-level TAM width.
        width: u32,
    },
    /// A full config × width table.
    Table {
        /// The table's width columns.
        widths: Vec<u32>,
    },
    /// The makespan-minimizing width for one configuration.
    BestWidth {
        /// Candidate widths.
        widths: Vec<u32>,
    },
}

/// One sharing configuration on the wire: groups over `0..n_cores`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireConfig {
    /// Number of analog cores partitioned.
    pub n_cores: u64,
    /// The wrapper groups.
    pub groups: Vec<Vec<u64>>,
}

/// One job on the wire: the full [`JobBuilder`](msoc_core::JobBuilder)
/// surface — spec, candidate configs, weights, pruning delta, effort,
/// priority, a deterministic check-budget deadline, and pre-cancellation.
/// Every job packs with the skyline engine.
#[derive(Debug, Clone, PartialEq)]
pub struct WireJob {
    /// The SOC to plan.
    pub soc: WireSocRef,
    /// What to compute.
    pub spec: WireSpec,
    /// Explicit candidate configurations (`None` = enumerate).
    pub configs: Option<Vec<WireConfig>>,
    /// Cost weight `W_T` (must pair with `w_area` to sum to 1).
    pub w_time: f64,
    /// Cost weight `W_A`.
    pub w_area: f64,
    /// `Cost_Optimizer` pruning delta.
    pub delta: f64,
    /// Scheduling effort.
    pub effort: Effort,
    /// Dispatch priority: 0 = low, 1 = normal, 2 = high.
    pub priority: u8,
    /// Deterministic check-budget deadline (`None` = none). Wall-clock
    /// deadlines are deliberately not wire-representable: a check budget
    /// expires at the same progress boundary on every host, which the
    /// loopback determinism suite depends on.
    pub deadline_checks: Option<u64>,
    /// Submit the job already cancelled (it observes the token at its
    /// first progress boundary — deterministic).
    pub cancelled: bool,
}

impl WireJob {
    /// A job with default weights/effort/priority and no
    /// deadline.
    pub fn new(soc: WireSocRef, spec: WireSpec) -> Self {
        WireJob {
            soc,
            spec,
            configs: None,
            w_time: 0.5,
            w_area: 0.5,
            delta: 0.0,
            effort: Effort::Quick,
            priority: 1,
            deadline_checks: None,
            cancelled: false,
        }
    }
}

/// One outcome on the wire — the canonical projection the loopback
/// determinism suite compares byte-for-byte against a serial in-process
/// replay (see [`WireOutcome::from_outcome`]).
#[derive(Debug, Clone, PartialEq)]
pub enum WireOutcome {
    /// The job completed.
    Completed(WireResult),
    /// The job's check budget expired.
    DeadlineExceeded,
    /// The job's cancellation token fired.
    Cancelled,
    /// The job was shed by admission or queue-depth backpressure
    /// (structural, so clients can branch on overload without string
    /// matching).
    Overloaded {
        /// The cap that shed the job.
        cap: u64,
        /// The batch size at shedding time.
        batch: u64,
    },
    /// The job was rejected for any other reason.
    Rejected {
        /// The structured error, rendered.
        error: String,
    },
    /// The job panicked server-side (isolated; siblings completed).
    Failed {
        /// The panic payload's message.
        message: String,
    },
}

/// A completed job's result on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResult {
    /// A single-width plan.
    Plan {
        /// The winning configuration, rendered canonically.
        config: String,
        /// TAM width planned for.
        tam_width: u32,
        /// Scheduled makespan in cycles.
        makespan: u64,
        /// `f64::to_bits` of the blended cost (bit-exact comparison).
        cost_bits: u64,
        /// The winning schedule's entries.
        schedule: Vec<WireEntry>,
    },
    /// A config × width table's winner.
    Table {
        /// The winning configuration, rendered canonically.
        config: String,
        /// Width of the winning cell.
        winner_width: u32,
        /// The winning cell's raw makespan.
        winner_makespan: u64,
        /// `f64::to_bits` of the winner's blended cost.
        cost_bits: u64,
        /// Total cells in the matrix.
        cells: u64,
        /// Cells actually packed.
        packed: u64,
    },
    /// A best-width sweep's winner.
    BestWidth {
        /// The swept configuration, rendered canonically.
        config: String,
        /// The makespan-minimizing width.
        width: u32,
        /// Its makespan.
        makespan: u64,
    },
}

/// One scheduled test on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEntry {
    /// Job index in the schedule's problem.
    pub job: u64,
    /// Granted TAM width.
    pub width: u32,
    /// Start cycle.
    pub start: u64,
    /// End cycle (exclusive).
    pub end: u64,
}

/// Per-outcome-class latency accounting inside [`WireStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireLatency {
    /// Outcome class (`completed`, `interrupted`, `rejected`, `failed`).
    pub outcome: String,
    /// Requests in this class.
    pub count: u64,
    /// Median latency in microseconds (log2-bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
}

/// One shard's service + daemon statistics on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireStats {
    /// The shard index serving this tenant.
    pub shard: u64,
    /// Jobs submitted to the shard.
    pub jobs_submitted: u64,
    /// Jobs shed by admission or queue-depth control.
    pub jobs_shed: u64,
    /// Jobs failed (panics, lost outcomes).
    pub jobs_failed: u64,
    /// Schedule-cache hits.
    pub schedule_hits: u64,
    /// Schedule-cache misses.
    pub schedule_misses: u64,
    /// Session-cache hits.
    pub session_hits: u64,
    /// Session-cache misses.
    pub session_misses: u64,
    /// Live sessions in the shard's cache.
    pub live_sessions: u64,
    /// Snapshot generations the shard's daemon persisted.
    pub snapshots_persisted: u64,
    /// Service shards the daemon's differential exporter served from
    /// cache.
    pub shard_exports_reused: u64,
    /// Per-outcome latency quantiles.
    pub latency: Vec<WireLatency>,
}

// ---------------------------------------------------------------------
// Canonical projection from core outcomes
// ---------------------------------------------------------------------

impl WireOutcome {
    /// Projects a core [`JobOutcome`] onto its canonical wire form —
    /// the **single** projection both the TCP server and the serial
    /// in-process replay use, so "bit-identical outcomes" is a
    /// comparison of these encodings.
    pub fn from_outcome(outcome: &JobOutcome) -> WireOutcome {
        match outcome {
            JobOutcome::Completed(report) => WireOutcome::Completed(match &report.result {
                JobResult::Plan(plan) => WireResult::Plan {
                    config: plan.best.config.to_string(),
                    tam_width: plan.tam_width,
                    makespan: plan.best.makespan,
                    cost_bits: plan.best.total_cost.to_bits(),
                    schedule: plan.schedule.entries().iter().map(WireEntry::from).collect(),
                },
                JobResult::Table(table) => WireResult::Table {
                    config: table.best.config.to_string(),
                    winner_width: table.winner_width,
                    winner_makespan: table.winner_makespan,
                    cost_bits: table.best.total_cost.to_bits(),
                    cells: table.stats.cells as u64,
                    packed: table.stats.packed as u64,
                },
                JobResult::BestWidth { config, width, makespan } => WireResult::BestWidth {
                    config: config.to_string(),
                    width: *width,
                    makespan: *makespan,
                },
            }),
            JobOutcome::DeadlineExceeded { .. } => WireOutcome::DeadlineExceeded,
            JobOutcome::Cancelled => WireOutcome::Cancelled,
            JobOutcome::Rejected(PlanError::Overloaded { cap, batch }) => {
                WireOutcome::Overloaded { cap: *cap as u64, batch: *batch as u64 }
            }
            JobOutcome::Rejected(error) => WireOutcome::Rejected { error: error.to_string() },
            JobOutcome::Failed { message } => WireOutcome::Failed { message: message.clone() },
        }
    }

    /// This outcome's class label for latency accounting.
    pub fn class(&self) -> &'static str {
        match self {
            WireOutcome::Completed(_) => "completed",
            WireOutcome::DeadlineExceeded | WireOutcome::Cancelled => "interrupted",
            WireOutcome::Overloaded { .. } | WireOutcome::Rejected { .. } => "rejected",
            WireOutcome::Failed { .. } => "failed",
        }
    }

    /// The canonical encoding of a batch of outcomes — what the
    /// determinism suite compares.
    pub fn encode_batch(outcomes: &[WireOutcome]) -> Vec<u8> {
        let mut out = Vec::new();
        write_uv(&mut out, outcomes.len() as u64);
        for o in outcomes {
            o.encode(&mut out);
        }
        out
    }
}

impl From<&ScheduledTest> for WireEntry {
    fn from(e: &ScheduledTest) -> Self {
        WireEntry { job: e.job as u64, width: e.width, start: e.start, end: e.end }
    }
}

// ---------------------------------------------------------------------
// Validated conversions into core types
// ---------------------------------------------------------------------

/// Builds [`CostWeights`] from wire floats without panicking: the core
/// constructor asserts, so the wire layer re-checks and reports.
///
/// # Errors
///
/// [`WireError::Corrupt`] on negative weights or a sum away from 1.
pub fn checked_weights(w_time: f64, w_area: f64) -> Result<CostWeights, WireError> {
    if !(w_time >= 0.0 && w_area >= 0.0 && ((w_time + w_area) - 1.0).abs() < 1e-9) {
        return Err(WireError::Corrupt(format!("invalid cost weights ({w_time}, {w_area})")));
    }
    Ok(CostWeights::new(w_time, w_area))
}

impl WireConfig {
    /// A wire config from a core [`SharingConfig`].
    pub fn from_config(config: &SharingConfig) -> Self {
        WireConfig {
            n_cores: config.n_cores() as u64,
            groups: config.groups().iter().map(|g| g.iter().map(|&c| c as u64).collect()).collect(),
        }
    }

    /// Builds the core [`SharingConfig`] without panicking: the core
    /// constructor asserts an exact partition, so the wire layer
    /// re-checks and reports.
    ///
    /// # Errors
    ///
    /// [`WireError::Corrupt`] unless the groups exactly partition
    /// `0..n_cores`.
    pub fn to_config(&self) -> Result<SharingConfig, WireError> {
        let n = usize::try_from(self.n_cores).ok().filter(|&n| n <= 64).ok_or_else(|| {
            WireError::Corrupt(format!("implausible core count {}", self.n_cores))
        })?;
        let mut seen = vec![false; n];
        let mut groups: Vec<Vec<usize>> = Vec::with_capacity(self.groups.len().min(n));
        for group in &self.groups {
            if group.is_empty() {
                return Err(WireError::Corrupt("empty wrapper group".into()));
            }
            let mut g = Vec::with_capacity(group.len().min(n));
            for &c in group {
                let c = usize::try_from(c).ok().filter(|&c| c < n).ok_or_else(|| {
                    WireError::Corrupt(format!("core index {c} out of range {n}"))
                })?;
                if std::mem::replace(&mut seen[c], true) {
                    return Err(WireError::Corrupt(format!("core {c} in two groups")));
                }
                g.push(c);
            }
            groups.push(g);
        }
        if !seen.iter().all(|&s| s) {
            return Err(WireError::Corrupt("groups do not cover every core".into()));
        }
        Ok(SharingConfig::new(n, groups))
    }
}

impl WireModule {
    /// A wire module from a core [`Module`].
    pub fn from_module(m: &Module) -> Self {
        WireModule {
            id: m.id,
            level: m.level,
            inputs: m.inputs,
            outputs: m.outputs,
            bidirs: m.bidirs,
            scan_chains: m.scan_chains.clone(),
            tests: m.tests.iter().map(|t| (t.patterns, t.scan_used, t.tam_used)).collect(),
        }
    }

    /// The core [`Module`].
    pub fn to_module(&self) -> Module {
        Module {
            id: self.id,
            level: self.level,
            inputs: self.inputs,
            outputs: self.outputs,
            bidirs: self.bidirs,
            scan_chains: self.scan_chains.clone(),
            tests: self
                .tests
                .iter()
                .map(|&(patterns, scan_used, tam_used)| ModuleTest {
                    patterns,
                    scan_used,
                    tam_used,
                })
                .collect(),
        }
    }
}

impl WireAnalogCore {
    /// A wire core from a core [`AnalogCoreSpec`].
    pub fn from_core(core: &AnalogCoreSpec) -> Self {
        WireAnalogCore {
            id: core.id.index() as u8,
            name: core.name.to_string(),
            resolution_bits: core.resolution_bits,
            tests: core
                .tests
                .iter()
                .map(|t| {
                    (
                        analog_kind_code(t.kind),
                        t.f_low_hz,
                        t.f_high_hz,
                        t.sample_rate_hz,
                        t.cycles,
                        t.tam_width,
                    )
                })
                .collect(),
        }
    }

    /// The core [`AnalogCoreSpec`]. The `name` must match one of the
    /// paper catalog's core names — `AnalogCoreSpec::name` is a
    /// `&'static str`, so decoding resolves through the catalog instead
    /// of leaking every untrusted string it ever sees.
    ///
    /// # Errors
    ///
    /// [`WireError::Corrupt`] on an unknown core id, test kind or
    /// non-catalog name.
    pub fn to_core(&self) -> Result<AnalogCoreSpec, WireError> {
        let id = *CoreId::ALL
            .get(self.id as usize)
            .ok_or_else(|| WireError::Corrupt(format!("unknown analog core id {}", self.id)))?;
        let name = paper_cores().iter().find(|c| c.name == self.name).map(|c| c.name).ok_or_else(
            || WireError::Corrupt(format!("unknown analog core name {:?}", self.name)),
        )?;
        let tests = self
            .tests
            .iter()
            .map(|&(kind, f_low_hz, f_high_hz, sample_rate_hz, cycles, tam_width)| {
                Ok(AnalogTestSpec {
                    kind: decode_analog_kind(kind)?,
                    f_low_hz,
                    f_high_hz,
                    sample_rate_hz,
                    cycles,
                    tam_width,
                })
            })
            .collect::<Result<Vec<_>, WireError>>()?;
        Ok(AnalogCoreSpec { id, name, resolution_bits: self.resolution_bits, tests })
    }
}

impl WireSoc {
    /// A wire SOC from a core [`MixedSignalSoc`].
    pub fn from_soc(soc: &MixedSignalSoc) -> Self {
        WireSoc {
            name: soc.name.clone(),
            digital_name: soc.digital.name.clone(),
            modules: soc.digital.modules.iter().map(WireModule::from_module).collect(),
            analog: soc.analog.iter().map(WireAnalogCore::from_core).collect(),
        }
    }

    /// The core [`MixedSignalSoc`].
    ///
    /// # Errors
    ///
    /// [`WireError::Corrupt`] when an analog core fails catalog
    /// resolution (see [`WireAnalogCore::to_core`]).
    pub fn to_soc(&self) -> Result<MixedSignalSoc, WireError> {
        let modules = self.modules.iter().map(WireModule::to_module).collect();
        let analog =
            self.analog.iter().map(WireAnalogCore::to_core).collect::<Result<Vec<_>, _>>()?;
        Ok(MixedSignalSoc::new(
            self.name.clone(),
            Soc::new(self.digital_name.clone(), modules),
            analog,
        ))
    }
}

fn analog_kind_code(kind: AnalogTestKind) -> u8 {
    match kind {
        AnalogTestKind::PassbandGain => 0,
        AnalogTestKind::CutoffFrequency => 1,
        AnalogTestKind::Attenuation => 2,
        AnalogTestKind::Iip3 => 3,
        AnalogTestKind::DcOffset => 4,
        AnalogTestKind::PhaseMismatch => 5,
        AnalogTestKind::Thd => 6,
        AnalogTestKind::Gain => 7,
        AnalogTestKind::DynamicRange => 8,
        AnalogTestKind::SlewRate => 9,
    }
}

fn decode_analog_kind(code: u8) -> Result<AnalogTestKind, WireError> {
    Ok(match code {
        0 => AnalogTestKind::PassbandGain,
        1 => AnalogTestKind::CutoffFrequency,
        2 => AnalogTestKind::Attenuation,
        3 => AnalogTestKind::Iip3,
        4 => AnalogTestKind::DcOffset,
        5 => AnalogTestKind::PhaseMismatch,
        6 => AnalogTestKind::Thd,
        7 => AnalogTestKind::Gain,
        8 => AnalogTestKind::DynamicRange,
        9 => AnalogTestKind::SlewRate,
        other => return Err(WireError::Corrupt(format!("unknown analog test kind {other}"))),
    })
}

// ---------------------------------------------------------------------
// Payload encode/decode
// ---------------------------------------------------------------------

fn write_string(out: &mut Vec<u8>, s: &str) {
    write_uv(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn write_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

impl WireModule {
    fn encode(&self, out: &mut Vec<u8>) {
        write_uv(out, u64::from(self.id));
        write_uv(out, u64::from(self.level));
        write_uv(out, u64::from(self.inputs));
        write_uv(out, u64::from(self.outputs));
        write_uv(out, u64::from(self.bidirs));
        write_uv(out, self.scan_chains.len() as u64);
        for &c in &self.scan_chains {
            write_uv(out, u64::from(c));
        }
        write_uv(out, self.tests.len() as u64);
        for &(patterns, scan_used, tam_used) in &self.tests {
            write_uv(out, patterns);
            out.push(u8::from(scan_used));
            out.push(u8::from(tam_used));
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(WireModule {
            id: r.u32()?,
            level: r.u32()?,
            inputs: r.u32()?,
            outputs: r.u32()?,
            bidirs: r.u32()?,
            scan_chains: r.seq(1, Reader::u32)?,
            tests: r.seq(3, |r| Ok((r.uv()?, r.bool()?, r.bool()?)))?,
        })
    }
}

impl WireAnalogCore {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.id);
        write_string(out, &self.name);
        out.push(self.resolution_bits);
        write_uv(out, self.tests.len() as u64);
        for &(kind, f_low, f_high, rate, cycles, width) in &self.tests {
            out.push(kind);
            write_f64(out, f_low);
            write_f64(out, f_high);
            write_f64(out, rate);
            write_uv(out, cycles);
            write_uv(out, u64::from(width));
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(WireAnalogCore {
            id: r.u8()?,
            name: r.string()?,
            resolution_bits: r.u8()?,
            tests: r.seq(27, |r| Ok((r.u8()?, r.f64()?, r.f64()?, r.f64()?, r.uv()?, r.u32()?)))?,
        })
    }
}

impl WireSoc {
    fn encode(&self, out: &mut Vec<u8>) {
        write_string(out, &self.name);
        write_string(out, &self.digital_name);
        write_uv(out, self.modules.len() as u64);
        for m in &self.modules {
            m.encode(out);
        }
        write_uv(out, self.analog.len() as u64);
        for c in &self.analog {
            c.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(WireSoc {
            name: r.string()?,
            digital_name: r.string()?,
            modules: r.seq(7, WireModule::decode)?,
            analog: r.seq(4, WireAnalogCore::decode)?,
        })
    }
}

impl WireEdit {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireEdit::ReplaceAnalog { index, core } => {
                out.push(0);
                write_uv(out, *index);
                core.encode(out);
            }
            WireEdit::ReplaceDigital { id, module } => {
                out.push(1);
                write_uv(out, u64::from(*id));
                module.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => WireEdit::ReplaceAnalog { index: r.uv()?, core: WireAnalogCore::decode(r)? },
            1 => WireEdit::ReplaceDigital { id: r.u32()?, module: WireModule::decode(r)? },
            other => return Err(DecodeError::Corrupt(format!("unknown edit tag {other}"))),
        })
    }
}

impl WireSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        let widths = match self {
            WireSpec::Single { width } => {
                out.push(0);
                write_uv(out, u64::from(*width));
                return;
            }
            WireSpec::Table { widths } => {
                out.push(1);
                widths
            }
            WireSpec::BestWidth { widths } => {
                out.push(2);
                widths
            }
        };
        write_uv(out, widths.len() as u64);
        for &w in widths {
            write_uv(out, u64::from(w));
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => WireSpec::Single { width: r.u32()? },
            1 => WireSpec::Table { widths: r.seq(1, Reader::u32)? },
            2 => WireSpec::BestWidth { widths: r.seq(1, Reader::u32)? },
            other => return Err(DecodeError::Corrupt(format!("unknown spec tag {other}"))),
        })
    }
}

impl WireConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        write_uv(out, self.n_cores);
        write_uv(out, self.groups.len() as u64);
        for g in &self.groups {
            write_uv(out, g.len() as u64);
            for &c in g {
                write_uv(out, c);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(WireConfig { n_cores: r.uv()?, groups: r.seq(1, |r| r.seq(1, Reader::uv))? })
    }
}

impl WireSocRef {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireSocRef::Registered(id) => {
                out.push(0);
                write_uv(out, *id);
            }
            WireSocRef::Inline(soc) => {
                out.push(1);
                soc.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => WireSocRef::Registered(r.uv()?),
            1 => WireSocRef::Inline(WireSoc::decode(r)?),
            other => return Err(DecodeError::Corrupt(format!("unknown soc-ref tag {other}"))),
        })
    }
}

impl WireJob {
    fn encode(&self, out: &mut Vec<u8>) {
        self.soc.encode(out);
        self.spec.encode(out);
        match &self.configs {
            None => out.push(0),
            Some(configs) => {
                out.push(1);
                write_uv(out, configs.len() as u64);
                for c in configs {
                    c.encode(out);
                }
            }
        }
        write_f64(out, self.w_time);
        write_f64(out, self.w_area);
        write_f64(out, self.delta);
        out.push(self.effort.code());
        out.push(self.priority);
        match self.deadline_checks {
            None => out.push(0),
            Some(checks) => {
                out.push(1);
                write_uv(out, checks);
            }
        }
        out.push(u8::from(self.cancelled));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let corrupt = DecodeError::Corrupt;
        let soc = WireSocRef::decode(r)?;
        let spec = WireSpec::decode(r)?;
        let configs = match r.u8()? {
            0 => None,
            1 => Some(r.seq(2, WireConfig::decode)?),
            other => return Err(corrupt(format!("invalid option byte {other}"))),
        };
        let w_time = r.f64()?;
        let w_area = r.f64()?;
        let delta = r.f64()?;
        let code = r.u8()?;
        let effort = Effort::from_code(code)
            .ok_or_else(|| corrupt(format!("unknown effort code {code}")))?;
        let priority = match r.u8()? {
            p @ 0..=2 => p,
            other => return Err(corrupt(format!("unknown priority {other}"))),
        };
        let deadline_checks = match r.u8()? {
            0 => None,
            1 => Some(r.uv()?),
            other => return Err(corrupt(format!("invalid option byte {other}"))),
        };
        let cancelled = r.bool()?;
        Ok(WireJob {
            soc,
            spec,
            configs,
            w_time,
            w_area,
            delta,
            effort,
            priority,
            deadline_checks,
            cancelled,
        })
    }
}

impl WireOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireOutcome::Completed(result) => {
                out.push(0);
                result.encode(out);
            }
            WireOutcome::DeadlineExceeded => out.push(1),
            WireOutcome::Cancelled => out.push(2),
            WireOutcome::Overloaded { cap, batch } => {
                out.push(3);
                write_uv(out, *cap);
                write_uv(out, *batch);
            }
            WireOutcome::Rejected { error } => {
                out.push(4);
                write_string(out, error);
            }
            WireOutcome::Failed { message } => {
                out.push(5);
                write_string(out, message);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => WireOutcome::Completed(WireResult::decode(r)?),
            1 => WireOutcome::DeadlineExceeded,
            2 => WireOutcome::Cancelled,
            3 => WireOutcome::Overloaded { cap: r.uv()?, batch: r.uv()? },
            4 => WireOutcome::Rejected { error: r.string()? },
            5 => WireOutcome::Failed { message: r.string()? },
            other => return Err(DecodeError::Corrupt(format!("unknown outcome tag {other}"))),
        })
    }
}

impl WireResult {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireResult::Plan { config, tam_width, makespan, cost_bits, schedule } => {
                out.push(0);
                write_string(out, config);
                write_uv(out, u64::from(*tam_width));
                write_uv(out, *makespan);
                write_uv(out, *cost_bits);
                write_uv(out, schedule.len() as u64);
                for e in schedule {
                    write_uv(out, e.job);
                    write_uv(out, u64::from(e.width));
                    write_uv(out, e.start);
                    write_uv(out, e.end);
                }
            }
            WireResult::Table {
                config,
                winner_width,
                winner_makespan,
                cost_bits,
                cells,
                packed,
            } => {
                out.push(1);
                write_string(out, config);
                write_uv(out, u64::from(*winner_width));
                write_uv(out, *winner_makespan);
                write_uv(out, *cost_bits);
                write_uv(out, *cells);
                write_uv(out, *packed);
            }
            WireResult::BestWidth { config, width, makespan } => {
                out.push(2);
                write_string(out, config);
                write_uv(out, u64::from(*width));
                write_uv(out, *makespan);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => WireResult::Plan {
                config: r.string()?,
                tam_width: r.u32()?,
                makespan: r.uv()?,
                cost_bits: r.uv()?,
                schedule: r.seq(4, |r| {
                    Ok(WireEntry { job: r.uv()?, width: r.u32()?, start: r.uv()?, end: r.uv()? })
                })?,
            },
            1 => WireResult::Table {
                config: r.string()?,
                winner_width: r.u32()?,
                winner_makespan: r.uv()?,
                cost_bits: r.uv()?,
                cells: r.uv()?,
                packed: r.uv()?,
            },
            2 => WireResult::BestWidth { config: r.string()?, width: r.u32()?, makespan: r.uv()? },
            other => return Err(DecodeError::Corrupt(format!("unknown result tag {other}"))),
        })
    }
}

impl WireStats {
    fn encode(&self, out: &mut Vec<u8>) {
        write_uv(out, self.shard);
        write_uv(out, self.jobs_submitted);
        write_uv(out, self.jobs_shed);
        write_uv(out, self.jobs_failed);
        write_uv(out, self.schedule_hits);
        write_uv(out, self.schedule_misses);
        write_uv(out, self.session_hits);
        write_uv(out, self.session_misses);
        write_uv(out, self.live_sessions);
        write_uv(out, self.snapshots_persisted);
        write_uv(out, self.shard_exports_reused);
        write_uv(out, self.latency.len() as u64);
        for l in &self.latency {
            write_string(out, &l.outcome);
            write_uv(out, l.count);
            write_uv(out, l.p50_us);
            write_uv(out, l.p99_us);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(WireStats {
            shard: r.uv()?,
            jobs_submitted: r.uv()?,
            jobs_shed: r.uv()?,
            jobs_failed: r.uv()?,
            schedule_hits: r.uv()?,
            schedule_misses: r.uv()?,
            session_hits: r.uv()?,
            session_misses: r.uv()?,
            live_sessions: r.uv()?,
            snapshots_persisted: r.uv()?,
            shard_exports_reused: r.uv()?,
            latency: r.seq(4, |r| {
                Ok(WireLatency {
                    outcome: r.string()?,
                    count: r.uv()?,
                    p50_us: r.uv()?,
                    p99_us: r.uv()?,
                })
            })?,
        })
    }
}

impl Request {
    /// Encodes the payload (no frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Register { tenant, soc } => {
                write_uv(&mut out, 1);
                write_string(&mut out, tenant);
                soc.encode(&mut out);
            }
            Request::Submit { tenant, jobs } => {
                write_uv(&mut out, 2);
                write_string(&mut out, tenant);
                write_uv(&mut out, jobs.len() as u64);
                for job in jobs {
                    job.encode(&mut out);
                }
            }
            Request::Revise { tenant, soc_id, edits } => {
                write_uv(&mut out, 3);
                write_string(&mut out, tenant);
                write_uv(&mut out, *soc_id);
                write_uv(&mut out, edits.len() as u64);
                for edit in edits {
                    edit.encode(&mut out);
                }
            }
            Request::Stats { tenant } => {
                write_uv(&mut out, 4);
                write_string(&mut out, tenant);
            }
            Request::SnapshotNow => write_uv(&mut out, 5),
            Request::Shutdown => write_uv(&mut out, 6),
        }
        out
    }

    /// Decodes a request payload (no frame header).
    ///
    /// # Errors
    ///
    /// A structured [`WireError`]; never panics on hostile bytes.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let request = match r.uv()? {
            1 => Request::Register { tenant: r.string()?, soc: WireSoc::decode(&mut r)? },
            2 => Request::Submit { tenant: r.string()?, jobs: r.seq(2, WireJob::decode)? },
            3 => Request::Revise {
                tenant: r.string()?,
                soc_id: r.uv()?,
                edits: r.seq(2, WireEdit::decode)?,
            },
            4 => Request::Stats { tenant: r.string()? },
            5 => Request::SnapshotNow,
            6 => Request::Shutdown,
            tag => return Err(WireError::UnknownMessage(tag)),
        };
        r.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Encodes the payload (no frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Registered { soc_id } => {
                write_uv(&mut out, 1);
                write_uv(&mut out, *soc_id);
            }
            Response::Outcomes(outcomes) => {
                write_uv(&mut out, 2);
                write_uv(&mut out, outcomes.len() as u64);
                for o in outcomes {
                    o.encode(&mut out);
                }
            }
            Response::Revised { soc_id, revision } => {
                write_uv(&mut out, 3);
                write_uv(&mut out, *soc_id);
                write_uv(&mut out, *revision);
            }
            Response::Stats(stats) => {
                write_uv(&mut out, 4);
                stats.encode(&mut out);
            }
            Response::SnapshotDone { persisted } => {
                write_uv(&mut out, 5);
                write_uv(&mut out, *persisted);
            }
            Response::ShuttingDown => write_uv(&mut out, 6),
            Response::Error { message } => {
                write_uv(&mut out, 7);
                write_string(&mut out, message);
            }
        }
        out
    }

    /// Decodes a response payload (no frame header).
    ///
    /// # Errors
    ///
    /// A structured [`WireError`]; never panics on hostile bytes.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let response = match r.uv()? {
            1 => Response::Registered { soc_id: r.uv()? },
            2 => Response::Outcomes(r.seq(1, WireOutcome::decode)?),
            3 => Response::Revised { soc_id: r.uv()?, revision: r.uv()? },
            4 => Response::Stats(WireStats::decode(&mut r)?),
            5 => Response::SnapshotDone { persisted: r.uv()? },
            6 => Response::ShuttingDown,
            7 => Response::Error { message: r.string()? },
            tag => return Err(WireError::UnknownMessage(tag)),
        };
        r.finish()?;
        Ok(response)
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let mut header = Vec::with_capacity(16);
    header.extend_from_slice(WIRE_MAGIC);
    header.push(WIRE_VERSION);
    header.push(kind);
    write_uv(&mut header, payload.len() as u64);
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame of the expected `kind`, returning its payload.
fn read_frame(r: &mut impl Read, want_kind: u8) -> Result<Vec<u8>, WireError> {
    let mut head = [0u8; 6];
    r.read_exact(&mut head)?;
    if &head[..4] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    if head[4] != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(head[4]));
    }
    let kind = head[5];
    if kind != KIND_REQUEST && kind != KIND_RESPONSE {
        return Err(WireError::UnexpectedKind(kind));
    }
    // The length varint comes off the stream byte by byte through the
    // same strict decoder the payload uses.
    let mut len_bytes = Vec::with_capacity(10);
    let len = loop {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        len_bytes.push(b[0]);
        if b[0] & 0x80 == 0 {
            break Reader::new(&len_bytes).uv()?;
        }
        if len_bytes.len() > 10 {
            return Err(WireError::Corrupt("frame length varint longer than 10 bytes".into()));
        }
    };
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    // Chunked fill: allocation tracks bytes actually received, so a
    // lying length costs at most one chunk beyond the stream's content.
    let mut payload = Vec::new();
    let mut remaining = len as usize;
    let mut chunk = [0u8; READ_CHUNK];
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK);
        r.read_exact(&mut chunk[..take])?;
        payload.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    if kind != want_kind {
        return Err(WireError::UnexpectedKind(kind));
    }
    Ok(payload)
}

/// Writes one framed request.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_request(w: &mut impl Write, request: &Request) -> io::Result<()> {
    write_frame(w, KIND_REQUEST, &request.encode_payload())
}

/// Reads one framed request.
///
/// # Errors
///
/// A structured [`WireError`]; never panics on hostile bytes.
pub fn read_request(r: &mut impl Read) -> Result<Request, WireError> {
    Request::decode_payload(&read_frame(r, KIND_REQUEST)?)
}

/// Writes one framed response.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_response(w: &mut impl Write, response: &Response) -> io::Result<()> {
    write_frame(w, KIND_RESPONSE, &response.encode_payload())
}

/// Reads one framed response.
///
/// # Errors
///
/// A structured [`WireError`]; never panics on hostile bytes.
pub fn read_response(r: &mut impl Read) -> Result<Response, WireError> {
    Response::decode_payload(&read_frame(r, KIND_RESPONSE)?)
}

/// A request's full framed bytes (header + payload) — the fuzz suite's
/// seed corpus.
pub fn frame_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    write_request(&mut out, request).expect("Vec<u8> writes are infallible");
    out
}

/// A response's full framed bytes (header + payload).
pub fn frame_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    write_response(&mut out, response).expect("Vec<u8> writes are infallible");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_soc() -> WireSoc {
        WireSoc::from_soc(&MixedSignalSoc::d695m())
    }

    fn demo_job() -> WireJob {
        let mut job = WireJob::new(WireSocRef::Inline(demo_soc()), WireSpec::Single { width: 16 });
        job.priority = 2;
        job.deadline_checks = Some(10_000);
        job
    }

    #[test]
    fn requests_roundtrip_through_frames() {
        let requests = vec![
            Request::Register { tenant: "acme".into(), soc: demo_soc() },
            Request::Submit { tenant: "acme".into(), jobs: vec![demo_job()] },
            Request::Revise {
                tenant: "acme".into(),
                soc_id: 7,
                edits: vec![WireEdit::ReplaceAnalog {
                    index: 0,
                    core: WireAnalogCore::from_core(&paper_cores()[2]),
                }],
            },
            Request::Stats { tenant: "acme".into() },
            Request::SnapshotNow,
            Request::Shutdown,
        ];
        for request in requests {
            let bytes = frame_request(&request);
            let decoded = read_request(&mut &bytes[..]).expect("roundtrip");
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn responses_roundtrip_through_frames() {
        let responses = vec![
            Response::Registered { soc_id: 1 },
            Response::Outcomes(vec![
                WireOutcome::DeadlineExceeded,
                WireOutcome::Cancelled,
                WireOutcome::Overloaded { cap: 4, batch: 9 },
                WireOutcome::Rejected { error: "nope".into() },
                WireOutcome::Failed { message: "boom".into() },
                WireOutcome::Completed(WireResult::Plan {
                    config: "{A,B}".into(),
                    tam_width: 16,
                    makespan: 123,
                    cost_bits: 0.5f64.to_bits(),
                    schedule: vec![WireEntry { job: 0, width: 8, start: 0, end: 123 }],
                }),
            ]),
            Response::Revised { soc_id: 7, revision: 2 },
            Response::Stats(WireStats {
                shard: 3,
                jobs_submitted: 10,
                latency: vec![WireLatency {
                    outcome: "completed".into(),
                    count: 10,
                    p50_us: 127,
                    p99_us: 1023,
                }],
                ..WireStats::default()
            }),
            Response::SnapshotDone { persisted: 2 },
            Response::ShuttingDown,
            Response::Error { message: "unknown soc".into() },
        ];
        for response in responses {
            let bytes = frame_response(&response);
            let decoded = read_response(&mut &bytes[..]).expect("roundtrip");
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn inline_socs_resolve_back_to_core_types() {
        let soc = MixedSignalSoc::d695m();
        let wire = WireSoc::from_soc(&soc);
        let back = wire.to_soc().expect("catalog names resolve");
        assert_eq!(back.name, soc.name);
        assert_eq!(back.digital, soc.digital);
        assert_eq!(back.analog, soc.analog);
    }

    #[test]
    fn hostile_values_decode_to_structured_errors() {
        // Unknown catalog name.
        let mut core = WireAnalogCore::from_core(&paper_cores()[0]);
        core.name = "not a paper core".into();
        assert!(matches!(core.to_core(), Err(WireError::Corrupt(_))));
        // Bad weights and bad partitions fail instead of panicking.
        assert!(checked_weights(0.9, 0.2).is_err());
        assert!(checked_weights(-0.5, 1.5).is_err());
        let config = WireConfig { n_cores: 3, groups: vec![vec![0, 1], vec![1, 2]] };
        assert!(matches!(config.to_config(), Err(WireError::Corrupt(_))));
        let config = WireConfig { n_cores: 3, groups: vec![vec![0, 1]] };
        assert!(config.to_config().is_err());
        let config = WireConfig { n_cores: u64::MAX, groups: vec![] };
        assert!(config.to_config().is_err());
        // A frame claiming more payload than the cap is rejected before
        // any allocation.
        let mut bytes = frame_request(&Request::SnapshotNow);
        bytes.truncate(6);
        write_uv(&mut bytes, MAX_FRAME + 1);
        assert!(matches!(read_request(&mut &bytes[..]), Err(WireError::FrameTooLarge(_))));
        // Desynchronized peers: a response frame where a request is
        // expected.
        let bytes = frame_response(&Response::ShuttingDown);
        assert!(matches!(read_request(&mut &bytes[..]), Err(WireError::UnexpectedKind(2))));
        // An effort code naming no effort is corrupt.
        let submit = |effort| {
            let mut job = demo_job();
            job.effort = effort;
            frame_request(&Request::Submit { tenant: "acme".into(), jobs: vec![job] })
        };
        let (quick, standard) = (submit(Effort::Quick), submit(Effort::Standard));
        let at = (0..quick.len()).find(|&i| quick[i] != standard[i]).expect("effort byte");
        for code in [3u8, 4, 0xff] {
            let mut bytes = quick.clone();
            bytes[at] = code;
            match read_request(&mut &bytes[..]) {
                Err(WireError::Corrupt(what)) => assert!(what.contains("effort"), "{what}"),
                other => panic!("effort code {code} must be corrupt, got {other:?}"),
            }
        }
        // A v1 frame (its jobs carried an engine byte) is refused by its
        // header, never misparsed.
        let mut v1 = quick;
        v1[WIRE_MAGIC.len()] = 1;
        assert_eq!(read_request(&mut &v1[..]), Err(WireError::UnsupportedVersion(1)));
    }

    #[test]
    fn valid_configs_and_weights_convert() {
        let config = WireConfig::from_config(&SharingConfig::new(3, vec![vec![0, 2], vec![1]]));
        let back = config.to_config().expect("valid partition");
        assert_eq!(WireConfig::from_config(&back), config);
        assert_eq!(checked_weights(0.5, 0.5).unwrap(), CostWeights::balanced());
    }
}
