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
//! # Payloads are domain types
//!
//! Requests carry the planner's own types — [`MixedSignalSoc`],
//! [`CoreEdit`], [`JobSpec`], [`SharingConfig`], [`CostWeights`],
//! [`Priority`] — encoded by their `msoc_core::service::codec::Codec`
//! impls, which own those byte layouts. This module owns only the
//! network's records: the frame, the message envelopes, [`WireJob`]'s
//! field order and the outcome projection ([`WireOutcome`]).
//!
//! # Safety properties
//!
//! Decoding untrusted bytes **never panics and never allocates from an
//! untrusted length**: frame payloads are read in bounded chunks, every
//! collection count is checked against the bytes actually remaining
//! (each element consumes at least one byte) before anything is
//! reserved, and every domain value is built through its validating
//! constructor, so a bad sharing-group partition, cost-weight pair or
//! analog catalog name is refused when the frame is decoded, as
//! [`WireError::Corrupt`]. A payload that ends inside a record is
//! corrupt too: the frame arrived whole, so only EOF on the stream reads
//! as [`WireError::Truncated`]. The truncation/bit-flip fuzz suite in
//! `tests/fuzz.rs` holds the protocol to this.

use std::fmt;
use std::io::{self, Read, Write};

use msoc_core::service::codec::{
    write_f64, write_seq, write_string, write_uv, Codec, DecodeError, Reader,
};
use msoc_core::{
    CoreEdit, CostWeights, JobOutcome, JobResult, JobSpec, MixedSignalSoc, PlanError, Priority,
    SharingConfig,
};
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
    /// The stream ended inside a frame. (A complete frame whose payload
    /// ends inside a record is [`WireError::Corrupt`].)
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

/// Payloads decode from complete frames, so a payload that runs out is
/// corrupt — never the stream EOF that [`WireError::Truncated`] means.
impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => WireError::Corrupt("payload ends inside a record".into()),
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
        soc: MixedSignalSoc,
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
        edits: Vec<CoreEdit>,
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

/// Compatibility name: a job's spec crosses the wire as a [`JobSpec`].
pub use msoc_core::JobSpec as WireSpec;

/// Compatibility name for callers written against the old mirror
/// type: an SOC now crosses the wire as a [`MixedSignalSoc`] itself.
#[derive(Debug)]
pub enum WireSoc {}

impl WireSoc {
    /// The SOC to put on the wire — a clone of `soc`.
    pub fn from_soc(soc: &MixedSignalSoc) -> MixedSignalSoc {
        soc.clone()
    }
}

/// The SOC a wire job plans: a previously registered id, or an inline
/// SOC carried in the job itself.
#[derive(Debug, Clone, PartialEq)]
pub enum WireSocRef {
    /// A [`Request::Register`]ed SOC of the same tenant.
    Registered(u64),
    /// An SOC carried inline.
    Inline(MixedSignalSoc),
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
    pub spec: JobSpec,
    /// Explicit candidate configurations (`None` = enumerate).
    pub configs: Option<Vec<SharingConfig>>,
    /// Cost weights `(W_T, W_A)`.
    pub weights: CostWeights,
    /// `Cost_Optimizer` pruning delta.
    pub delta: f64,
    /// Scheduling effort.
    pub effort: Effort,
    /// Dispatch priority.
    pub priority: Priority,
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
    pub fn new(soc: WireSocRef, spec: JobSpec) -> Self {
        WireJob {
            soc,
            spec,
            configs: None,
            weights: CostWeights::balanced(),
            delta: 0.0,
            effort: Effort::Quick,
            priority: Priority::Normal,
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
        write_seq(&mut out, outcomes, WireOutcome::encode);
        out
    }
}

impl From<&ScheduledTest> for WireEntry {
    fn from(e: &ScheduledTest) -> Self {
        WireEntry { job: e.job as u64, width: e.width, start: e.start, end: e.end }
    }
}

// ---------------------------------------------------------------------
// Payload encode/decode
// ---------------------------------------------------------------------

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
            1 => WireSocRef::Inline(MixedSignalSoc::decode(r)?),
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
                write_seq(out, configs, SharingConfig::encode);
            }
        }
        self.weights.encode(out);
        write_f64(out, self.delta);
        out.push(self.effort.code());
        self.priority.encode(out);
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
        Ok(WireJob {
            soc: WireSocRef::decode(r)?,
            spec: JobSpec::decode(r)?,
            configs: match r.u8()? {
                0 => None,
                1 => Some(r.seq(2, SharingConfig::decode)?),
                other => return Err(corrupt(format!("invalid option byte {other}"))),
            },
            weights: CostWeights::decode(r)?,
            delta: r.f64()?,
            effort: r.code(&Effort::ALL, "effort code")?,
            priority: Priority::decode(r)?,
            deadline_checks: match r.u8()? {
                0 => None,
                1 => Some(r.uv()?),
                other => return Err(corrupt(format!("invalid option byte {other}"))),
            },
            cancelled: r.bool()?,
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
                write_seq(out, schedule, |e, out| {
                    for v in [e.job, u64::from(e.width), e.start, e.end] {
                        write_uv(out, v);
                    }
                });
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
                for v in [u64::from(*winner_width), *winner_makespan, *cost_bits, *cells, *packed] {
                    write_uv(out, v);
                }
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
        for v in [
            self.shard,
            self.jobs_submitted,
            self.jobs_shed,
            self.jobs_failed,
            self.schedule_hits,
            self.schedule_misses,
            self.session_hits,
            self.session_misses,
            self.live_sessions,
            self.snapshots_persisted,
            self.shard_exports_reused,
        ] {
            write_uv(out, v);
        }
        write_seq(out, &self.latency, |l, out| {
            write_string(out, &l.outcome);
            for v in [l.count, l.p50_us, l.p99_us] {
                write_uv(out, v);
            }
        });
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
                write_seq(&mut out, jobs, WireJob::encode);
            }
            Request::Revise { tenant, soc_id, edits } => {
                write_uv(&mut out, 3);
                write_string(&mut out, tenant);
                write_uv(&mut out, *soc_id);
                write_seq(&mut out, edits, CoreEdit::encode);
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
            1 => Request::Register { tenant: r.string()?, soc: MixedSignalSoc::decode(&mut r)? },
            2 => Request::Submit { tenant: r.string()?, jobs: r.seq(2, WireJob::decode)? },
            3 => Request::Revise {
                tenant: r.string()?,
                soc_id: r.uv()?,
                edits: r.seq(2, CoreEdit::decode)?,
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
                write_seq(&mut out, outcomes, WireOutcome::encode);
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
    use msoc_analog::paper_cores;

    use super::*;

    fn demo_job() -> WireJob {
        let mut job = WireJob::new(
            WireSocRef::Inline(MixedSignalSoc::d695m()),
            JobSpec::Single { width: 16 },
        );
        job.priority = Priority::High;
        job.deadline_checks = Some(10_000);
        job
    }

    #[test]
    fn requests_roundtrip_through_frames() {
        let module = MixedSignalSoc::d695m().digital.modules[2].clone();
        let requests = vec![
            Request::Register { tenant: "acme".into(), soc: MixedSignalSoc::d695m() },
            Request::Submit { tenant: "acme".into(), jobs: vec![demo_job()] },
            Request::Revise {
                tenant: "acme".into(),
                soc_id: 7,
                edits: vec![
                    CoreEdit::ReplaceAnalog { index: 0, core: paper_cores()[2].clone() },
                    CoreEdit::ReplaceDigital { id: module.id, module },
                ],
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
        let job = WireJob::new(WireSocRef::Inline(soc), JobSpec::BestWidth { widths: vec![24] });
        let request = Request::Submit { tenant: "acme".into(), jobs: vec![job] };
        assert_eq!(Request::decode_payload(&request.encode_payload()), Ok(request));
    }

    #[test]
    fn valid_configs_and_weights_convert() {
        let mut job = WireJob::new(WireSocRef::Registered(1), JobSpec::Table { widths: vec![8] });
        job.configs = Some(vec![SharingConfig::new(3, vec![vec![0, 2], vec![1]])]);
        job.weights = CostWeights::area_heavy();
        job.priority = Priority::Low;
        let request = Request::Submit { tenant: "acme".into(), jobs: vec![job] };
        assert_eq!(Request::decode_payload(&request.encode_payload()), Ok(request));
    }

    /// `bytes` with the one occurrence of `from` replaced by `to`.
    fn patch(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
        let at: Vec<usize> =
            (0..=bytes.len() - from.len()).filter(|&i| bytes[i..].starts_with(from)).collect();
        assert_eq!(at.len(), 1, "{from:?} must occur exactly once");
        [&bytes[..at[0]], to, &bytes[at[0] + from.len()..]].concat()
    }

    fn corrupt_with(payload: &[u8], what: &str) {
        match Request::decode_payload(payload) {
            Err(WireError::Corrupt(message)) => assert!(message.contains(what), "{message}"),
            other => panic!("expected a corrupt payload ({what}), got {other:?}"),
        }
    }

    #[test]
    fn hostile_values_decode_to_structured_errors() {
        // A non-catalog analog core name.
        let mut soc = MixedSignalSoc::d695m();
        soc.analog[0].name = "not a paper core";
        let register = Request::Register { tenant: "acme".into(), soc };
        corrupt_with(&register.encode_payload(), "unknown analog core name");

        // Bad weights and bad partitions, spliced into a valid job's
        // bytes, fail the decode instead of panicking a constructor.
        let mut job = WireJob::new(WireSocRef::Registered(3), JobSpec::Table { widths: vec![16] });
        job.configs = Some(vec![SharingConfig::new(3, vec![vec![0, 1], vec![2]])]);
        let payload = Request::Submit { tenant: "acme".into(), jobs: vec![job] }.encode_payload();
        let weights = |t: f64, a: f64| [t.to_le_bytes(), a.to_le_bytes()].concat();
        for (t, a) in [(0.9, 0.2), (-0.5, 1.5)] {
            corrupt_with(&patch(&payload, &weights(0.5, 0.5), &weights(t, a)), "weights must");
        }
        let config = [3, 2, 2, 0, 1, 1, 2];
        corrupt_with(&patch(&payload, &config, &[3, 2, 2, 0, 1, 1, 1]), "core 1 in two groups");
        corrupt_with(&patch(&payload, &config, &[4, 2, 2, 0, 1, 1, 2]), "every core");
        let mut huge = vec![0xff; 9];
        huge.extend_from_slice(&[0x01, 2, 2, 0, 1, 1, 2]);
        corrupt_with(&patch(&payload, &config, &huge), "implausible core count");

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
    fn a_payload_cut_inside_a_record_is_corrupt() {
        let payload = Request::Stats { tenant: "acme".into() }.encode_payload();
        let cut = Request::decode_payload(&payload[..payload.len() - 2]);
        assert!(matches!(cut, Err(WireError::Corrupt(_))), "{cut:?}");
        let payload = Response::Registered { soc_id: 300 }.encode_payload();
        let cut = Response::decode_payload(&payload[..payload.len() - 1]);
        assert!(matches!(cut, Err(WireError::Corrupt(_))), "{cut:?}");
    }
}
