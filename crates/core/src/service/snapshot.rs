//! Snapshot persistence: export the service's fingerprinted schedule
//! cache to a versioned byte format and rebuild a warm service from it in
//! another process.
//!
//! The hermetic build has no serde, so the format is hand-rolled:
//! little-endian, magic + version header, FNV-1a trailer checksum (the
//! same [`StableHasher`] stream the cache keys use). A **v2** snapshot
//! carries the *schedule cache* — solved schedules plus the exact
//! session content and delta jobs each one answers for — the session
//! table those entries reference, and every live session's **checkpoint
//! trie** ([`CheckpointExport`]), so an imported service replays sweeps
//! warm from disk exactly as warm from RAM: schedule-cache hits need no
//! packing at all, and novel candidates restore their longest packed
//! prefix instead of re-packing skeletons.
//!
//! **Session table order.** A cached schedule names its session by
//! [`SessionKey`] only, so its session may have been evicted. The table
//! lists those *schedule-only* keys first, with an empty trie, in the
//! order the schedule records first reference them; the live sessions
//! follow in LRU order (least recently used first), each with its trie. A
//! schedule whose session was evicted and rebuilt references the live
//! session, so every content appears once. The importer hands out ticks
//! in table order, trims each shard to its session cap oldest-first, and
//! restores tries only for the sessions that survive: a snapshot with
//! more sessions than the cap keeps the ones its exporter used most.
//!
//! **v2 compression.** Job contents are interned once in a global
//! deduplicated table (staircases delta-encoded: widths strictly
//! increase, times strictly decrease, so consecutive differences are
//! small positive varints); sessions, tries and schedule records then
//! name jobs by content id. Placements store a **staircase point index**
//! instead of `(width, end)` — the pair is derivable from `start` plus
//! the point — and start coordinates are delta-encoded (trie nodes
//! against their parent checkpoint, schedule entries against the
//! previous entry of the start-sorted schedule) as zigzag varints. The
//! result is sub-linear in schedule count: the per-record cost is a few
//! bytes per entry instead of a re-encoded job vector. The retired v1
//! layout (schedules only, fixed-width integers) no longer decodes: a v1
//! header is [`SnapshotError::UnsupportedVersion`]`(1)`.
//!
//! **Decoding** runs on the shared strict [`Reader`] of the
//! [`codec`](super::codec) module — the same reader the `msoc_net` wire
//! protocol decodes with — so every collection count is checked against
//! the bytes remaining before anything is reserved.
//!
//! **Content verification on import.** Every imported entry is rebuilt
//! from its carried content and checked: the schedule's recorded makespan
//! must match its entries, the schedule must [`validate`] against the
//! problem formed by its session's skeleton plus its delta jobs, and the
//! trailer checksum must match the bytes. Corruption — truncation, bit
//! flips, length-field tampering — surfaces as a structured
//! [`SnapshotError`], never a panic and never a silently wrong cache
//! entry. (The checksum and validation guard *integrity*; a snapshot is
//! trusted to come from a real service for *optimality*, exactly like any
//! other persisted cache.)
//!
//! [`validate`]: msoc_tam::Schedule::validate

use std::error::Error;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use std::collections::{HashMap, HashSet};

use msoc_tam::{
    fingerprint_jobs, CheckpointExport, CheckpointNode, Effort, Engine, JobKind, PackSession,
    Schedule, ScheduledTest, SessionKey, StableHasher, TestJob, TrieExport,
};
use msoc_wrapper::{Staircase, StaircasePoint};

use super::codec::{write_iv, write_uv, DecodeError, Reader};
use super::{PlanService, ScheduleEntry, SessionEntry};

/// Snapshot format magic (8 bytes).
const MAGIC: &[u8; 8] = b"MSOCSNAP";
/// Current snapshot format version (emitted by [`ServiceSnapshot::to_bytes`]).
const VERSION: u32 = 2;

/// An exported view of a service's warm state (see the module docs);
/// serialize with [`Self::to_bytes`], restore with
/// [`PlanService::from_snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSnapshot {
    /// The session table: schedule-only keys, then live sessions in LRU
    /// order (see the [module docs](self)).
    pub(crate) sessions: Vec<Arc<SessionKey>>,
    /// Per-session checkpoint tries, aligned with `sessions` (an empty
    /// export restores its session cold).
    pub(crate) tries: Vec<CheckpointExport>,
    pub(crate) schedules: Vec<ScheduleRecord>,
}

/// One solved schedule plus the exact inputs it answers for.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScheduleRecord {
    /// Index into [`ServiceSnapshot::sessions`].
    pub(crate) session: usize,
    pub(crate) delta: Vec<TestJob>,
    pub(crate) makespan: u64,
    pub(crate) entries: Vec<ScheduledTest>,
}

/// Why a snapshot could not be decoded or imported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended inside a record.
    Truncated,
    /// The magic bytes are not a service snapshot's.
    BadMagic,
    /// The format version is not the one this build reads (the retired
    /// v1 included).
    UnsupportedVersion(u32),
    /// The trailer checksum does not match the bytes.
    ChecksumMismatch,
    /// A record is internally inconsistent (description attached).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::BadMagic => write!(f, "not a service snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads {VERSION})")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => SnapshotError::Truncated,
            DecodeError::Corrupt(what) => SnapshotError::Corrupt(what),
        }
    }
}

/// Record counts and per-section byte accounting of one snapshot
/// encoding, from [`ServiceSnapshot::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Session records carried.
    pub sessions: usize,
    /// Schedule records carried.
    pub schedules: usize,
    /// Checkpoint-trie nodes carried across all sessions.
    pub trie_nodes: usize,
    /// Stored checkpoints (nodes with a restorable pack state) carried.
    pub checkpoints: usize,
    /// Encoded bytes per format section.
    pub sections: SectionSizes,
}

/// Per-section byte accounting of one encoded snapshot, from
/// [`ServiceSnapshot::to_bytes_with_stats`] and [`ServiceSnapshot::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SectionSizes {
    /// Bytes of the global deduplicated job-content table.
    pub content_bytes: usize,
    /// Bytes of the session table.
    pub session_bytes: usize,
    /// Bytes of the checkpoint-trie sections.
    pub trie_bytes: usize,
    /// Bytes of the schedule records.
    pub schedule_bytes: usize,
    /// Total encoded size, header and trailer included.
    pub total_bytes: usize,
}

/// One shard's cached export fragment (see [`ExportCache`]).
#[derive(Debug)]
struct ShardFragment {
    /// The shard mutation tick this fragment was built at.
    tick: u64,
    /// Live sessions homed in this shard:
    /// `(last_used, session key, checkpoint-trie export)`.
    sessions: Vec<(u64, Arc<SessionKey>, CheckpointExport)>,
    /// Schedule tuples in this shard's FIFO memo order:
    /// `(session key, delta, makespan, entries)`.
    #[allow(clippy::type_complexity)]
    schedules: Vec<(Arc<SessionKey>, Vec<TestJob>, u64, Vec<ScheduledTest>)>,
}

/// Reusable differential-export state for
/// [`PlanService::export_snapshot_with_cache`]: one cached fragment per
/// service shard, tagged with the shard's mutation tick. A shard whose
/// tick has not moved since the fragment was built re-exports from the
/// fragment — no session walk, no trie export, no schedule cloning — so
/// a mostly-idle service snapshots in time proportional to its *dirty*
/// shards. Fragments hold session keys, never sessions, so a cache does
/// not keep evicted sessions alive either.
///
/// A cache belongs to **one** service: fragments index shards by
/// position and compare raw tick values, so reusing a cache against a
/// different `PlanService` can alias unrelated ticks. Create one cache
/// per service (the snapshot daemon does this) and never share it.
#[derive(Debug, Default)]
pub struct ExportCache {
    shards: Vec<Option<ShardFragment>>,
}

impl ExportCache {
    /// An empty cache; the first export through it rebuilds every shard.
    pub fn new() -> Self {
        ExportCache::default()
    }
}

impl ServiceSnapshot {
    /// Number of session records carried.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Number of cached schedules carried.
    pub fn schedule_count(&self) -> usize {
        self.schedules.len()
    }

    /// Serializes the snapshot (v2, checksummed; see the module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with_stats().0
    }

    /// [`Self::to_bytes`] plus per-section byte accounting from the same
    /// single encoding pass (use this instead of `to_bytes` + [`stats`]
    /// when both are wanted — [`stats`] re-encodes).
    ///
    /// [`stats`]: Self::stats
    pub fn to_bytes_with_stats(&self) -> (Vec<u8>, SectionSizes) {
        let (mut out, sections) = self.encode();
        let checksum = fnv(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        (out, sections)
    }

    /// Record counts and per-section encoded bytes of this snapshot's
    /// [`Self::to_bytes`] encoding.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            sessions: self.sessions.len(),
            schedules: self.schedules.len(),
            trie_nodes: self.tries.iter().map(CheckpointExport::node_count).sum(),
            checkpoints: self.tries.iter().map(CheckpointExport::checkpoint_count).sum(),
            sections: self.encode().1,
        }
    }

    /// Encodes the v2 body (no trailer), tracking section boundaries;
    /// `total_bytes` counts the trailer the caller appends.
    fn encode(&self) -> (Vec<u8>, SectionSizes) {
        // Pass 1: intern every distinct job content in deterministic
        // walk order (session skeletons, then trie contents, then
        // schedule deltas), so identical snapshots encode identically.
        fn intern<'a>(
            table: &mut Vec<&'a TestJob>,
            ids: &mut HashMap<&'a TestJob, u64>,
            job: &'a TestJob,
        ) {
            if !ids.contains_key(job) {
                ids.insert(job, table.len() as u64);
                table.push(job);
            }
        }
        let mut table: Vec<&TestJob> = Vec::new();
        let mut ids: HashMap<&TestJob, u64> = HashMap::new();
        for s in &self.sessions {
            for job in s.skeleton() {
                intern(&mut table, &mut ids, job);
            }
        }
        for cps in &self.tries {
            for trie in &cps.tries {
                for job in &trie.contents {
                    intern(&mut table, &mut ids, job);
                }
            }
        }
        for r in &self.schedules {
            for job in &r.delta {
                intern(&mut table, &mut ids, job);
            }
        }

        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());

        // Global content table.
        let mark = out.len();
        write_uv(&mut out, table.len() as u64);
        for job in &table {
            write_content(&mut out, job);
        }
        let contents = out.len() - mark;

        // Session table.
        let mark = out.len();
        write_uv(&mut out, self.sessions.len() as u64);
        for s in &self.sessions {
            write_uv(&mut out, u64::from(s.tam_width()));
            out.push(s.effort().code());
            out.push(s.engine().code());
            write_uv(&mut out, s.skeleton().len() as u64);
            for job in s.skeleton() {
                write_uv(&mut out, ids[job]);
            }
        }
        let sessions = out.len() - mark;

        // Checkpoint-trie sections, aligned with the session table.
        let mark = out.len();
        let empty = CheckpointExport::default();
        for (i, s) in self.sessions.iter().enumerate() {
            let cps = self.tries.get(i).unwrap_or(&empty);
            write_uv(&mut out, cps.tries.len() as u64);
            for trie in &cps.tries {
                write_uv(&mut out, trie.contents.len() as u64);
                for job in &trie.contents {
                    write_uv(&mut out, ids[job]);
                }
                write_uv(&mut out, trie.nodes.len() as u64);
                let mut starts: Vec<u64> = Vec::with_capacity(trie.nodes.len());
                for node in &trie.nodes {
                    write_uv(&mut out, node.parent.map_or(0, |p| u64::from(p) + 1));
                    write_uv(&mut out, u64::from(node.job));
                    write_uv(&mut out, node.content.map_or(0, |c| u64::from(c) + 1));
                    let content = node_content(s, trie, node);
                    write_placement(&mut out, content, node.width, node.start, node.end);
                    let parent_start =
                        node.parent.and_then(|p| starts.get(p as usize).copied()).unwrap_or(0);
                    write_iv(&mut out, node.start as i64 - parent_start as i64);
                    starts.push(node.start);
                    out.push(u8::from(node.stored));
                    if node.stored {
                        write_uv(&mut out, u64::from(node.lru));
                    }
                }
            }
        }
        let tries = out.len() - mark;

        // Schedule records.
        let mark = out.len();
        write_uv(&mut out, self.schedules.len() as u64);
        for r in &self.schedules {
            write_uv(&mut out, r.session as u64);
            write_uv(&mut out, r.delta.len() as u64);
            for job in &r.delta {
                write_uv(&mut out, ids[job]);
            }
            write_uv(&mut out, r.makespan);
            write_uv(&mut out, r.entries.len() as u64);
            let skeleton = self.sessions.get(r.session).map(|s| s.skeleton());
            let mut prev_start = 0u64;
            for e in &r.entries {
                write_uv(&mut out, e.job as u64);
                let content = entry_content(skeleton, &r.delta, e.job);
                write_placement(&mut out, content, e.width, e.start, e.end);
                write_iv(&mut out, e.start as i64 - prev_start as i64);
                prev_start = e.start;
            }
        }
        let schedules = out.len() - mark;

        let sections = SectionSizes {
            content_bytes: contents,
            session_bytes: sessions,
            trie_bytes: tries,
            schedule_bytes: schedules,
            total_bytes: out.len() + 8,
        };
        (out, sections)
    }

    /// Decodes a v2 snapshot, verifying the header and trailer checksum.
    ///
    /// # Errors
    ///
    /// Returns the first [`SnapshotError`] the byte stream exhibits.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(SnapshotError::Truncated);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let recorded = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        if fnv(body) != recorded {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut r = Reader::new(body);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let snapshot = decode_v2(&mut r)?;
        r.finish()?;
        Ok(snapshot)
    }
}

/// The job content a trie node's placement refers to, if resolvable:
/// skeleton steps index the session skeleton, delta steps carry a local
/// content id.
fn node_content<'a>(
    session: &'a SessionKey,
    trie: &'a TrieExport,
    node: &CheckpointNode,
) -> Option<&'a TestJob> {
    let job = node.job as usize;
    if job < session.skeleton().len() {
        session.skeleton().get(job)
    } else {
        node.content.and_then(|c| trie.contents.get(c as usize))
    }
}

/// The job content a schedule entry refers to: the combined problem is
/// skeleton jobs followed by delta jobs, in order.
fn entry_content<'a>(
    skeleton: Option<&'a [TestJob]>,
    delta: &'a [TestJob],
    job: usize,
) -> Option<&'a TestJob> {
    let skeleton = skeleton?;
    if job < skeleton.len() {
        skeleton.get(job)
    } else {
        delta.get(job - skeleton.len())
    }
}

/// Encodes one placement: tag `pi + 1` when `(width, end - start)` is
/// staircase point `pi` of `content` (the common case — one varint),
/// else tag `0` followed by raw width and absolute end, so encoding is
/// total even for hand-mutated snapshots.
fn write_placement(out: &mut Vec<u8>, content: Option<&TestJob>, width: u32, start: u64, end: u64) {
    let point = content.and_then(|job| {
        job.staircase
            .points()
            .iter()
            .position(|p| p.width == width && start.checked_add(p.time) == Some(end))
    });
    match point {
        Some(pi) => write_uv(out, pi as u64 + 1),
        None => {
            write_uv(out, 0);
            write_uv(out, u64::from(width));
            write_uv(out, end);
        }
    }
}

/// One job content in the global table: varint label, delta-encoded
/// staircase (widths strictly increase, times strictly decrease), group
/// tag, kind byte.
fn write_content(out: &mut Vec<u8>, job: &TestJob) {
    write_uv(out, job.label.len() as u64);
    out.extend_from_slice(job.label.as_bytes());
    let points = job.staircase.points();
    write_uv(out, points.len() as u64);
    let mut prev: Option<&StaircasePoint> = None;
    for p in points {
        match prev {
            None => {
                write_uv(out, u64::from(p.width));
                write_uv(out, p.time);
            }
            Some(q) => {
                write_uv(out, u64::from(p.width - q.width));
                write_uv(out, q.time - p.time);
            }
        }
        prev = Some(p);
    }
    write_uv(out, job.group.map_or(0, |g| u64::from(g) + 1));
    out.push(match job.kind {
        JobKind::Skeleton => 0,
        JobKind::Delta => 1,
    });
}

/// Decodes the v2 body (content table, sessions, checkpoint tries,
/// schedules); see the [module docs](self) for the layout. Every field of
/// a record takes at least one byte, which gives each collection's
/// minimum element size for the [`Reader::count`] guard.
fn decode_v2(r: &mut Reader) -> Result<ServiceSnapshot, DecodeError> {
    // Content: label length, point count, the first point's width and
    // time, group tag, kind.
    let contents = r.seq(6, read_content)?;
    // Session: width, effort, engine, skeleton length.
    let sessions = r.seq(4, |r| read_session(r, &contents))?;
    let tries = sessions
        .iter()
        .enumerate()
        .map(|(i, session)| read_tries(r, i, session, &contents))
        .collect::<Result<_, _>>()?;
    // Schedule: session, delta length, makespan, entry count.
    let schedules = r.seq(4, |r| read_schedule(r, &sessions, &contents))?;
    Ok(ServiceSnapshot { sessions, tries, schedules })
}

/// Reads one session record (see [`ServiceSnapshot::encode`]).
fn read_session(r: &mut Reader, contents: &[TestJob]) -> Result<Arc<SessionKey>, DecodeError> {
    let tam_width = r.u32()?;
    let code = r.u8()?;
    let effort = Effort::from_code(code)
        .ok_or_else(|| DecodeError::Corrupt(format!("unknown effort code {code}")))?;
    let code = r.u8()?;
    let engine = Engine::from_code(code)
        .ok_or_else(|| DecodeError::Corrupt(format!("unknown engine code {code}")))?;
    let skeleton = r.seq(1, |r| content_ref(contents, r.uv()?))?;
    Ok(Arc::new(SessionKey::new(tam_width, skeleton, effort, engine)))
}

/// Reads session `index`'s checkpoint-trie section: a member count (a
/// session exports at most one trie), then the trie's local contents and
/// its nodes.
fn read_tries(
    r: &mut Reader,
    index: usize,
    session: &SessionKey,
    contents: &[TestJob],
) -> Result<CheckpointExport, DecodeError> {
    let tries = match r.uv()? {
        0 => Vec::new(),
        1 => {
            let local = r.seq(1, |r| content_ref(contents, r.uv()?))?;
            let mut starts: Vec<u64> = Vec::new();
            // Node: parent, job, content tag, placement tag, start delta,
            // stored flag.
            let nodes = r.seq(6, |r| {
                let node = read_node(r, session, &local, &starts)?;
                starts.push(node.start);
                Ok(node)
            })?;
            vec![TrieExport { contents: local, nodes }]
        }
        members => {
            return Err(DecodeError::Corrupt(format!(
                "session {index} tries: {members} checkpoint tries"
            )))
        }
    };
    Ok(CheckpointExport { tries })
}

/// Reads one schedule record.
fn read_schedule(
    r: &mut Reader,
    sessions: &[Arc<SessionKey>],
    contents: &[TestJob],
) -> Result<ScheduleRecord, DecodeError> {
    let index = r.uv()?;
    let session = usize::try_from(index).ok().filter(|&s| s < sessions.len()).ok_or_else(|| {
        DecodeError::Corrupt(format!("schedule references session {index} of {}", sessions.len()))
    })?;
    let skeleton = sessions[session].skeleton();
    let delta = r.seq(1, |r| content_ref(contents, r.uv()?))?;
    let makespan = r.uv()?;
    let mut prev_start = 0u64;
    // Entry: job, placement tag, start delta.
    let entries = r.seq(3, |r| {
        let job = usize::try_from(r.uv()?)
            .map_err(|_| DecodeError::Corrupt("job index overflows usize".into()))?;
        let content = entry_content(Some(skeleton), &delta, job);
        let (width, duration, raw_end) = read_placement(r, content)?;
        let start = shifted(prev_start, r.iv()?)
            .ok_or_else(|| DecodeError::Corrupt("entry start delta out of range".into()))?;
        prev_start = start;
        let end = resolve_end(start, duration, raw_end)
            .ok_or_else(|| DecodeError::Corrupt("entry end overflows".into()))?;
        Ok(ScheduledTest { job, width, start, end })
    })?;
    Ok(ScheduleRecord { session, delta, makespan, entries })
}

/// Looks up (and clones) a global content id.
fn content_ref(contents: &[TestJob], id: u64) -> Result<TestJob, DecodeError> {
    usize::try_from(id)
        .ok()
        .and_then(|id| contents.get(id))
        .cloned()
        .ok_or_else(|| DecodeError::Corrupt(format!("content id {id} of {}", contents.len())))
}

/// Applies a signed varint delta to a base coordinate, rejecting
/// out-of-range results.
fn shifted(base: u64, delta: i64) -> Option<u64> {
    u64::try_from(i128::from(base) + i128::from(delta)).ok()
}

/// Resolves an entry/node end coordinate from either placement form.
fn resolve_end(start: u64, duration: Option<u64>, raw_end: Option<u64>) -> Option<u64> {
    match (duration, raw_end) {
        (Some(d), _) => start.checked_add(d),
        (None, Some(end)) => Some(end),
        (None, None) => None,
    }
}

/// Reads one placement: returns `(width, Some(duration), None)` for the
/// point-indexed form or `(width, None, Some(end))` for the raw form.
fn read_placement(
    r: &mut Reader,
    content: Option<&TestJob>,
) -> Result<(u32, Option<u64>, Option<u64>), DecodeError> {
    let tag = r.uv()?;
    if tag == 0 {
        let width = r.u32()?;
        let end = r.uv()?;
        return Ok((width, None, Some(end)));
    }
    let pi = usize::try_from(tag - 1)
        .map_err(|_| DecodeError::Corrupt("point index overflows usize".into()))?;
    let job = content
        .ok_or_else(|| DecodeError::Corrupt("point index without resolvable content".into()))?;
    let point = job.staircase.points().get(pi).ok_or_else(|| {
        DecodeError::Corrupt(format!(
            "point index {pi} of {} ({})",
            job.staircase.points().len(),
            job.label
        ))
    })?;
    Ok((point.width, Some(point.time), None))
}

/// Reads one checkpoint-trie node; `starts` holds the decoded start
/// coordinates of all earlier nodes (parents precede children).
fn read_node(
    r: &mut Reader,
    session: &SessionKey,
    local: &[TestJob],
    starts: &[u64],
) -> Result<CheckpointNode, DecodeError> {
    let corrupt = DecodeError::Corrupt;
    let index = starts.len();
    let parent = match r.uv()? {
        0 => None,
        tag => {
            let p =
                u32::try_from(tag - 1).map_err(|_| corrupt("parent index overflows u32".into()))?;
            if p as usize >= index {
                return Err(corrupt(format!("parent {p} does not precede node {index}")));
            }
            Some(p)
        }
    };
    let job = r.u32()?;
    let content = match r.uv()? {
        0 => None,
        tag => Some(
            u32::try_from(tag - 1).map_err(|_| corrupt("content index overflows u32".into()))?,
        ),
    };
    let resolved = if (job as usize) < session.skeleton().len() {
        session.skeleton().get(job as usize)
    } else {
        content.and_then(|c| local.get(c as usize))
    };
    let (width, duration, raw_end) = read_placement(r, resolved)?;
    let parent_start = parent.map_or(0, |p| starts[p as usize]);
    let start =
        shifted(parent_start, r.iv()?).ok_or_else(|| corrupt("start delta out of range".into()))?;
    let end =
        resolve_end(start, duration, raw_end).ok_or_else(|| corrupt("end overflows".into()))?;
    let stored = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(corrupt(format!("unknown stored tag {other}"))),
    };
    let lru = if stored { r.u32()? } else { 0 };
    Ok(CheckpointNode { parent, job, content, width, start, end, stored, lru })
}

/// Reads one global-table job content (see [`write_content`]).
fn read_content(r: &mut Reader) -> Result<TestJob, DecodeError> {
    let corrupt = DecodeError::Corrupt;
    let label = r.string()?;
    let mut prev: Option<StaircasePoint> = None;
    let points = r.seq(2, |r| {
        let point = match prev {
            None => StaircasePoint { width: r.u32()?, time: r.uv()? },
            Some(q) => {
                let (dw, dt) = (r.uv()?, r.uv()?);
                if dw == 0 || dt == 0 {
                    return Err(corrupt(format!("job {label} has a non-monotone staircase")));
                }
                let width = u64::from(q.width)
                    .checked_add(dw)
                    .and_then(|w| u32::try_from(w).ok())
                    .ok_or_else(|| corrupt("width overflows u32".into()))?;
                let time = q
                    .time
                    .checked_sub(dt)
                    .ok_or_else(|| corrupt(format!("job {label} time underflows")))?;
                StaircasePoint { width, time }
            }
        };
        prev = Some(point);
        Ok(point)
    })?;
    if points.is_empty() {
        return Err(corrupt(format!("job {label} has no staircase points")));
    }
    let group = match r.uv()? {
        0 => None,
        tag => Some(u32::try_from(tag - 1).map_err(|_| corrupt("group id overflows u32".into()))?),
    };
    let kind = match r.u8()? {
        0 => JobKind::Skeleton,
        1 => JobKind::Delta,
        other => return Err(corrupt(format!("unknown job kind {other}"))),
    };
    Ok(TestJob { label, staircase: Staircase::from_points(points), group, kind })
}

impl PlanService {
    /// Exports the current schedule cache, the keys of the sessions it
    /// references and every live session with its checkpoint trie as a
    /// [`ServiceSnapshot`]: keys that only a cached schedule names come
    /// first, then the live sessions in LRU order. Cache eviction order is
    /// preserved, so an export → import roundtrip at the same caps behaves
    /// like the original service under further traffic.
    pub fn export_snapshot(&self) -> ServiceSnapshot {
        self.export_snapshot_with_cache(&mut ExportCache::new()).0
    }

    /// [`Self::export_snapshot`] through a differential [`ExportCache`]:
    /// shards whose mutation tick has not moved since `cache` last saw
    /// them re-export from their cached fragment instead of re-walking
    /// sessions, re-exporting tries and re-cloning schedules. Returns the
    /// snapshot and how many shards were served from the cache — the
    /// output is **byte-identical** to a fragment-less export of the same
    /// state (fragments only skip work, never change content or order).
    /// Every export also frees the sessions evicted since the previous
    /// one: eviction parks them so that the evicting request does not pay
    /// for freeing their checkpoint tries.
    pub fn export_snapshot_with_cache(&self, cache: &mut ExportCache) -> (ServiceSnapshot, usize) {
        cache.shards.resize_with(self.shards.len(), || None);
        // Hold every shard lock while the fragments are refreshed
        // (acquired in shard index order, the only multi-shard lock site)
        // so the snapshot is one consistent cross-shard view.
        let states: Vec<_> = self.shards.iter().map(|shard| shard.lock()).collect();
        let mut reused = 0usize;
        for ((shard, state), slot) in self.shards.iter().zip(&states).zip(&mut cache.shards) {
            let tick = shard.tick.load(Ordering::Relaxed);
            if slot.as_ref().is_some_and(|f| f.tick == tick) {
                reused += 1;
                continue;
            }
            let mut sessions = Vec::new();
            for bucket in state.sessions.values() {
                for entry in bucket {
                    sessions.push((
                        entry.last_used,
                        Arc::clone(entry.session.key()),
                        entry.session.export_checkpoints(),
                    ));
                }
            }
            // This shard's FIFO eviction order, consuming bucket entries
            // in insertion order (each key may appear once per entry).
            let mut schedules = Vec::new();
            let mut cursors: HashMap<u64, usize> = HashMap::new();
            for &key in &state.memo_order {
                let Some(bucket) = state.schedules.get(&key) else { continue };
                let cursor = cursors.entry(key).or_insert(0);
                let Some(entry) = bucket.get(*cursor) else { continue };
                *cursor += 1;
                schedules.push((
                    Arc::clone(&entry.key),
                    entry.delta.clone(),
                    entry.schedule.makespan(),
                    entry.schedule.entries().to_vec(),
                ));
            }
            *slot = Some(ShardFragment { tick, sessions, schedules });
        }
        drop(states);
        // Assemble the session table (see the module docs): schedule-only
        // keys at first reference in the schedule records' shard-index ×
        // FIFO order, then live sessions sorted by the global LRU tick
        // (unique values from one atomic clock, so the order is the
        // service-wide request order). A schedule names the live session
        // of equal content when there is one.
        let mut live: Vec<&(u64, Arc<SessionKey>, CheckpointExport)> =
            cache.shards.iter().flatten().flat_map(|f| &f.sessions).collect();
        live.sort_by_key(|e| e.0);
        let is_live: HashSet<&SessionKey> = live.iter().map(|(_, key, _)| &**key).collect();
        let schedules = || cache.shards.iter().flatten().flat_map(|f| &f.schedules);
        let mut index: HashMap<&SessionKey, usize> = HashMap::new();
        let mut keys: Vec<Arc<SessionKey>> = Vec::new();
        let mut tries: Vec<CheckpointExport> = Vec::new();
        for (key, ..) in schedules() {
            if !is_live.contains(&**key) && !index.contains_key(&**key) {
                index.insert(key, keys.len());
                keys.push(Arc::clone(key));
                tries.push(CheckpointExport::default());
            }
        }
        for (_, key, checkpoints) in live {
            index.insert(key, keys.len());
            keys.push(Arc::clone(key));
            tries.push(checkpoints.clone());
        }
        let records = schedules()
            .map(|(key, delta, makespan, entries)| ScheduleRecord {
                session: index[&**key],
                delta: delta.clone(),
                makespan: *makespan,
                entries: entries.clone(),
            })
            .collect();
        self.free_retired();
        (ServiceSnapshot { sessions: keys, tries, schedules: records }, reused)
    }

    /// Rebuilds a warm service from a snapshot with the **default** cache
    /// caps, content-verifying every entry: each schedule must validate
    /// against the problem formed by its session's skeleton and its delta
    /// jobs. A planner on the imported service re-hits the schedule cache
    /// exactly where the exporting service would have.
    ///
    /// The snapshot format does not carry the exporter's cache caps: a
    /// snapshot from a service built with larger
    /// [`with_caps`](PlanService::with_caps) bounds imports only the
    /// newest default-cap's worth of entries (the overflow is dropped
    /// oldest-first and counted in the eviction stats) — use
    /// [`Self::from_snapshot_with_caps`] to restore at full size.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] when a record fails
    /// verification.
    pub fn from_snapshot(snapshot: &ServiceSnapshot) -> Result<PlanService, SnapshotError> {
        PlanService::from_snapshot_with_caps(
            snapshot,
            super::SCHEDULE_CACHE_CAP,
            super::SESSION_CACHE_CAP,
        )
    }

    /// [`Self::from_snapshot`] with explicit schedule- and session-cache
    /// bounds (match the exporter's [`with_caps`](PlanService::with_caps)
    /// to keep every snapshot entry live).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] when a record fails
    /// verification.
    pub fn from_snapshot_with_caps(
        snapshot: &ServiceSnapshot,
        schedule_cap: usize,
        session_cap: usize,
    ) -> Result<PlanService, SnapshotError> {
        let service = PlanService::with_caps(schedule_cap, session_cap);
        for (i, record) in snapshot.schedules.iter().enumerate() {
            let corrupt = |what: String| SnapshotError::Corrupt(format!("schedule {i}: {what}"));
            let key = snapshot.sessions.get(record.session).ok_or_else(|| {
                corrupt(format!(
                    "references session {} of {}",
                    record.session,
                    snapshot.sessions.len()
                ))
            })?;
            let schedule =
                Schedule::from_persisted(key.tam_width(), record.makespan, record.entries.clone())
                    .map_err(&corrupt)?;
            let mut delta = record.delta.clone();
            for job in &mut delta {
                job.kind = JobKind::Delta;
            }
            schedule.validate(&key.problem_for(&delta)).map_err(&corrupt)?;
            let mut h = StableHasher::new();
            h.write_u64(key.fingerprint());
            h.write_u64(fingerprint_jobs(&delta));
            let fp = h.finish();
            let mut state = service.shards[super::shard_index(fp)].lock();
            state.schedules.entry(fp).or_default().push(ScheduleEntry {
                key: Arc::clone(key),
                delta,
                schedule: Arc::new(schedule),
            });
            state.memo_order.push_back(fp);
        }
        // Sessions take ticks in table order, so each shard keeps its
        // newest `session_cap` and the older ones count as evicted, like
        // the schedules over the schedule cap: drops are visible in the
        // eviction counters, not silent. Only the surviving sessions are
        // built, and only their checkpoint tries are restored, each
        // restored checkpoint verified against a deterministic re-pack of
        // its own prefix inside `import_checkpoints` (mismatches are
        // dropped and counted, never trusted). Every shard's mutation
        // tick is bumped once so the import is visible to any
        // differential [`ExportCache`] built over this service.
        let mut homed = vec![Vec::new(); service.shards.len()];
        for (i, key) in snapshot.sessions.iter().enumerate() {
            homed[super::shard_index(key.fingerprint())].push(i);
        }
        for (shard, indices) in service.shards.iter().zip(&homed) {
            let mut state = shard.lock();
            shard.tick.fetch_add(1, Ordering::Relaxed);
            state.trim_schedules(service.schedule_cap);
            let (evicted, kept) =
                indices.split_at(indices.len().saturating_sub(service.session_cap));
            state.session_evictions += evicted.len() as u64;
            for &i in kept {
                let key = &snapshot.sessions[i];
                let session = Arc::new(PackSession::from_key(Arc::clone(key)));
                if let Some(checkpoints) = snapshot.tries.get(i) {
                    session.import_checkpoints(checkpoints);
                }
                let entry = SessionEntry { session, last_used: i as u64 + 1 };
                state.sessions.entry(key.fingerprint()).or_default().push(entry);
                state.session_count += 1;
            }
        }
        service.session_tick.store(snapshot.sessions.len() as u64, Ordering::Relaxed);
        Ok(service)
    }
}

pub(crate) fn fnv(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::super::{JobBuilder, PlanService};
    use super::*;
    use crate::soc::MixedSignalSoc;
    use crate::{CostWeights, PlannerOptions};

    fn quick_opts() -> PlannerOptions {
        PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() }
    }

    fn warm_service() -> (PlanService, Vec<super::super::Job>) {
        let service = PlanService::new();
        let jobs: Vec<_> = [16u32, 24]
            .iter()
            .map(|&w| {
                JobBuilder::new(MixedSignalSoc::d695m())
                    .single(w)
                    .weights(CostWeights::balanced())
                    .opts(quick_opts())
                    .build()
                    .unwrap()
            })
            .collect();
        let outcomes = service.submit(&jobs);
        assert!(outcomes.iter().all(|o| o.report().is_some()));
        (service, jobs)
    }

    #[test]
    fn snapshot_roundtrips_through_bytes() {
        let (service, _) = warm_service();
        let snapshot = service.export_snapshot();
        assert!(snapshot.schedule_count() > 0);
        assert!(snapshot.session_count() > 0);
        assert!(
            snapshot.tries.iter().map(CheckpointExport::checkpoint_count).sum::<usize>() > 0,
            "a warm service must export checkpoints"
        );
        let bytes = snapshot.to_bytes();
        let decoded = ServiceSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snapshot);
    }

    #[test]
    fn snapshot_stats_account_for_every_byte() {
        let (service, _) = warm_service();
        let snapshot = service.export_snapshot();
        let stats = snapshot.stats();
        assert_eq!(stats.sessions, snapshot.session_count());
        assert_eq!(stats.schedules, snapshot.schedule_count());
        let (bytes, sections) = snapshot.to_bytes_with_stats();
        assert_eq!(stats.sections, sections);
        assert_eq!(sections.total_bytes, bytes.len());
        let header_and_trailer = MAGIC.len() + 4 + 8;
        assert_eq!(
            sections.content_bytes
                + sections.session_bytes
                + sections.trie_bytes
                + sections.schedule_bytes
                + header_and_trailer,
            sections.total_bytes,
            "sections plus framing must cover the stream: {stats:?}"
        );
        assert!(stats.trie_nodes >= stats.checkpoints);
        assert!(stats.checkpoints > 0, "{stats:?}");
    }

    #[test]
    fn cached_export_is_byte_identical_and_reuses_clean_shards() {
        let (service, _) = warm_service();
        let mut cache = ExportCache::new();
        // Cold cache: every fragment rebuilds, output matches the
        // fragment-less exporter bit for bit.
        let (first, reused) = service.export_snapshot_with_cache(&mut cache);
        assert_eq!(reused, 0, "a cold cache has nothing to reuse");
        assert_eq!(first.to_bytes(), service.export_snapshot().to_bytes());
        // Idle service: every fragment reuses, output unchanged.
        let (idle, reused) = service.export_snapshot_with_cache(&mut cache);
        assert_eq!(reused, service.shards.len());
        assert_eq!(idle.to_bytes(), first.to_bytes());
        // Incremental traffic dirties only the touched shards; the cached
        // export still matches a fresh full export exactly.
        let job = JobBuilder::new(MixedSignalSoc::d695m())
            .single(32)
            .weights(CostWeights::balanced())
            .opts(quick_opts())
            .build()
            .unwrap();
        assert!(service.submit(std::slice::from_ref(&job))[0].report().is_some());
        let (after, reused) = service.export_snapshot_with_cache(&mut cache);
        assert!(reused > 0, "untouched shards must be served from the cache");
        assert!(reused < service.shards.len(), "the new traffic must dirty a shard");
        assert_eq!(after.to_bytes(), service.export_snapshot().to_bytes());
        assert!(after.schedule_count() > first.schedule_count());
    }

    /// Session cap of [`over_cap_service`]: one live session per shard.
    const OVER_CAP_SESSIONS: usize = 1;

    /// A service that planned one single-config job at each of twice as
    /// many widths as it has shards, one job per batch, under a session
    /// cap of one per shard: more distinct sessions than the cap, so some
    /// cached schedules name evicted sessions. Returns the jobs in the
    /// order they ran.
    fn over_cap_service() -> (PlanService, Vec<super::super::Job>) {
        let service = PlanService::with_caps(super::super::SCHEDULE_CACHE_CAP, OVER_CAP_SESSIONS);
        let soc = MixedSignalSoc::d695m();
        let config = crate::SharingConfig::all_shared(soc.analog.len());
        let jobs: Vec<_> = (11..11 + 2 * service.shard_count() as u32)
            .map(|w| {
                JobBuilder::new(soc.clone())
                    .single(w)
                    .configs(vec![config.clone()])
                    .weights(CostWeights::balanced())
                    .opts(quick_opts())
                    .build()
                    .unwrap()
            })
            .collect();
        for job in &jobs {
            assert!(service.submit(std::slice::from_ref(job))[0].report().is_some());
        }
        let stats = service.stats();
        assert!(stats.session_evictions > 0, "{stats:?}");
        (service, jobs)
    }

    #[test]
    fn snapshot_bytes_are_a_fixed_point_of_import_then_export() {
        let inputs = [
            (warm_service().0, super::super::SESSION_CACHE_CAP),
            (over_cap_service().0, OVER_CAP_SESSIONS),
        ];
        for (service, session_cap) in inputs {
            let bytes = service.export_snapshot().to_bytes();
            let imported = PlanService::from_snapshot_with_caps(
                &ServiceSnapshot::from_bytes(&bytes).unwrap(),
                super::super::SCHEDULE_CACHE_CAP,
                session_cap,
            )
            .unwrap();
            let again = imported.export_snapshot().to_bytes();
            assert_eq!(bytes, again, "export → import → export must be bit-identical");
        }
    }

    #[test]
    fn import_keeps_the_sessions_the_exporter_used_most() {
        // More sessions than the cap: the snapshot also names sessions
        // that only a cached schedule still references. Imported with the
        // exporter's caps, those must not displace the live sessions, so
        // every job whose session the exporter still held replays with a
        // session hit.
        let (service, jobs) = over_cap_service();
        let snapshot = service.export_snapshot();
        let live = service.stats().live_sessions as usize;
        assert!(snapshot.session_count() > live, "the snapshot must name evicted sessions");
        let resident: Vec<u32> = service
            .shards
            .iter()
            .flat_map(|shard| {
                let state = shard.lock();
                state
                    .sessions
                    .values()
                    .flatten()
                    .map(|e| e.session.key().tam_width())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(resident.len(), live);
        let imported = PlanService::from_snapshot_with_caps(
            &snapshot,
            super::super::SCHEDULE_CACHE_CAP,
            OVER_CAP_SESSIONS,
        )
        .unwrap();
        let booted = imported.stats();
        assert_eq!(booted.live_sessions as usize, live, "{booted:?}");
        assert!(booted.sessions.import_restored > 0, "{booted:?}");
        // The most recent jobs, newest first, down to the oldest one whose
        // session the exporter still held.
        let recent: Vec<_> = jobs
            .iter()
            .rev()
            .filter(|job| match job.spec() {
                super::super::JobSpec::Single { width } => resident.contains(width),
                other => unreachable!("single jobs: {other:?}"),
            })
            .collect();
        assert_eq!(recent.len(), live);
        for job in recent {
            assert!(imported.submit(std::slice::from_ref(job))[0].report().is_some());
        }
        let replayed = imported.stats();
        assert_eq!(
            replayed.session_misses, booted.session_misses,
            "recent jobs must find their sessions after import: {replayed:?}"
        );
        assert_eq!(replayed.schedule_misses, 0, "{replayed:?}");
    }

    #[test]
    fn imported_sessions_restore_their_checkpoint_tries() {
        let (service, jobs) = warm_service();
        let snapshot = service.export_snapshot();
        let imported = PlanService::from_snapshot(&snapshot).unwrap();
        let warm = imported.stats();
        assert!(
            warm.sessions.import_restored > 0,
            "imported sessions must restore checkpoints: {warm:?}"
        );
        assert_eq!(warm.sessions.import_dropped, 0, "{warm:?}");
        // Replay hits the schedule cache outright; the restored tries are
        // exercised (and proven equal to warm RAM) by the session-level
        // property tests and the bench `snapshot` section.
        let replay = imported.submit(&jobs);
        assert!(replay.iter().all(|o| o.report().is_some()));
        assert_eq!(imported.stats().sessions.skeleton_misses, warm.sessions.skeleton_misses);
    }

    #[test]
    fn tampered_checkpoints_are_dropped_and_counted_not_fatal() {
        let (service, jobs) = warm_service();
        let baseline = service.submit(&jobs);
        let mut snapshot = service.export_snapshot();
        let victim = snapshot
            .tries
            .iter_mut()
            .flat_map(|cps| cps.tries.iter_mut())
            .find(|t| !t.nodes.is_empty())
            .expect("a warm snapshot has trie nodes");
        victim.nodes[0].start += 1;
        // Checkpoints are an optimization, not content: a tampered
        // placement fails its verification re-pack and is dropped, the
        // import itself succeeds.
        let imported = PlanService::from_snapshot(&snapshot).unwrap();
        let stats = imported.stats();
        assert!(stats.sessions.import_dropped > 0, "{stats:?}");
        let replay = imported.submit(&jobs);
        for (a, b) in baseline.iter().zip(&replay) {
            let (a, b) = (a.report().unwrap(), b.report().unwrap());
            assert_eq!(a.result.plan().unwrap(), b.result.plan().unwrap());
        }
    }

    #[test]
    fn imported_services_replay_without_packing_and_bit_identically() {
        let (service, jobs) = warm_service();
        let baseline = service.submit(&jobs);
        let snapshot = service.export_snapshot();
        let bytes = snapshot.to_bytes();
        let imported =
            PlanService::from_snapshot(&ServiceSnapshot::from_bytes(&bytes).unwrap()).unwrap();
        let replay = imported.submit(&jobs);
        for (a, b) in baseline.iter().zip(&replay) {
            let (a, b) = (a.report().unwrap(), b.report().unwrap());
            assert_eq!(a.result.plan().unwrap(), b.result.plan().unwrap());
        }
        let stats = imported.stats();
        assert_eq!(stats.schedule_misses, 0, "imported replay must be pure cache hits: {stats:?}");
        assert!(stats.schedule_hits > 0, "{stats:?}");
    }

    #[test]
    fn import_caps_are_explicit_and_overflow_is_counted_not_silent() {
        // Warm enough widths that the schedule count outnumbers the
        // shards — per-shard caps then evict by pigeonhole.
        let service = PlanService::new();
        let jobs: Vec<_> = [16u32, 20, 24, 28]
            .iter()
            .map(|&w| {
                JobBuilder::new(MixedSignalSoc::d695m())
                    .single(w)
                    .weights(CostWeights::balanced())
                    .opts(quick_opts())
                    .build()
                    .unwrap()
            })
            .collect();
        assert!(service.submit(&jobs).iter().all(|o| o.report().is_some()));
        let snapshot = service.export_snapshot();
        let shards = service.shard_count();
        assert!(snapshot.schedule_count() > shards);
        // A tiny cap (one schedule and one session per shard) keeps only
        // each shard's newest entries and says so.
        let starved = PlanService::from_snapshot_with_caps(&snapshot, 1, 1).unwrap();
        let stats = starved.stats();
        assert!(stats.cached_schedules as usize <= shards, "{stats:?}");
        assert!(stats.schedule_evictions > 0, "{stats:?}");
        assert_eq!(
            (stats.cached_schedules + stats.schedule_evictions) as usize,
            snapshot.schedule_count(),
            "dropped snapshot entries must be visible: {stats:?}"
        );
        // Results stay correct either way — dropped entries just repack.
        let replay = starved.submit(&jobs);
        let baseline = service.submit(&jobs);
        for (a, b) in baseline.iter().zip(&replay) {
            let (a, b) = (a.report().unwrap(), b.report().unwrap());
            assert_eq!(a.result.plan().unwrap(), b.result.plan().unwrap());
        }
        // A cap matching the exporter's keeps everything.
        let roomy = PlanService::from_snapshot_with_caps(&snapshot, 4096, 256).unwrap();
        assert_eq!(roomy.stats().schedule_evictions, 0);
        assert_eq!(roomy.stats().cached_schedules as usize, snapshot.schedule_count());
    }

    #[test]
    fn every_flipped_byte_is_rejected_not_panicking() {
        let (service, _) = warm_service();
        let bytes = service.export_snapshot().to_bytes();
        // Flip a sample of bytes across the whole stream; every mutation
        // must surface a structured error or decode to a snapshot whose
        // import still verifies (a flip confined to, say, a makespan is
        // caught by the checksum first).
        for i in (0..bytes.len()).step_by(41) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match ServiceSnapshot::from_bytes(&bad) {
                Err(_) => {}
                Ok(snapshot) => {
                    // Checksum collision is ~impossible at one flip; but if
                    // decode succeeded the import verification must hold.
                    let _ = PlanService::from_snapshot(&snapshot);
                }
            }
        }
        // Truncations at every prefix length are structured errors too.
        for len in 0..bytes.len().min(64) {
            assert!(ServiceSnapshot::from_bytes(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn tampered_records_fail_import_verification() {
        let (service, _) = warm_service();
        let mut snapshot = service.export_snapshot();
        // A makespan that disagrees with its entries is corrupt.
        snapshot.schedules[0].makespan += 1;
        match PlanService::from_snapshot(&snapshot) {
            Err(SnapshotError::Corrupt(what)) => assert!(what.contains("makespan"), "{what}"),
            other => panic!("expected corruption, got {other:?}"),
        }
        // An entry widened off its staircase fails validation: no job has
        // a `(width + 1, same time)` point (staircases are strictly
        // monotone in both axes).
        let (service, _) = warm_service();
        let mut snapshot = service.export_snapshot();
        snapshot.schedules[0].entries[0].width += 1;
        match PlanService::from_snapshot(&snapshot) {
            Err(SnapshotError::Corrupt(what)) => assert!(what.contains("staircase"), "{what}"),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    /// Rewrites the trailer checksum of hand-patched snapshot bytes, so
    /// decoding reaches the patched field instead of failing the checksum.
    fn reseal(bytes: &mut [u8]) {
        let len = bytes.len();
        let fixed = fnv(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&fixed.to_le_bytes());
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let (service, _) = warm_service();
        let bytes = service.export_snapshot().to_bytes();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        // The checksum sees the magic flip first; patch the checksum to
        // prove the magic check itself fires.
        reseal(&mut wrong_magic);
        assert_eq!(ServiceSnapshot::from_bytes(&wrong_magic), Err(SnapshotError::BadMagic));

        // Version 1 is retired: its tag is refused like any unknown one.
        for version in [1u32, 99] {
            let mut wrong_version = bytes.clone();
            wrong_version[8..12].copy_from_slice(&version.to_le_bytes());
            reseal(&mut wrong_version);
            assert_eq!(
                ServiceSnapshot::from_bytes(&wrong_version),
                Err(SnapshotError::UnsupportedVersion(version))
            );
        }
    }

    #[test]
    fn removed_engine_codes_and_extra_trie_members_are_corrupt() {
        // One session with an empty skeleton and one empty trie: after the
        // header come single-byte varints for the content count, the
        // session count, then the session's width, effort code, engine
        // code and skeleton length, then its trie section's member count.
        let snapshot = ServiceSnapshot {
            sessions: vec![Arc::new(SessionKey::new(
                8,
                Vec::new(),
                Effort::Quick,
                Engine::Skyline,
            ))],
            tries: vec![CheckpointExport { tries: vec![TrieExport::default()] }],
            schedules: Vec::new(),
        };
        let bytes = snapshot.to_bytes();
        assert_eq!(ServiceSnapshot::from_bytes(&bytes), Ok(snapshot));
        let engine_at = MAGIC.len() + 4 + 4;
        let members_at = engine_at + 2;
        assert_eq!((bytes[engine_at], bytes[members_at]), (0, 1), "layout drifted");

        // Codes 2, 3 and 4 named the MaxRects, guillotine and portfolio
        // engines, which no longer exist.
        for code in [2u8, 3, 4] {
            let mut bad = bytes.clone();
            bad[engine_at] = code;
            reseal(&mut bad);
            match ServiceSnapshot::from_bytes(&bad) {
                Err(SnapshotError::Corrupt(what)) => assert!(what.contains("engine"), "{what}"),
                other => panic!("engine code {code} must be corrupt, got {other:?}"),
            }
        }
        // A session exports at most one trie.
        for members in [2u8, 3] {
            let mut bad = bytes.clone();
            bad[members_at] = members;
            reseal(&mut bad);
            match ServiceSnapshot::from_bytes(&bad) {
                Err(SnapshotError::Corrupt(what)) => assert!(what.contains("tries"), "{what}"),
                other => panic!("{members} trie members must be corrupt, got {other:?}"),
            }
        }
    }
}
