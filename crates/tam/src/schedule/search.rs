//! Phase-partitioned multi-start greedy search over a packing engine.
//!
//! The search logic — candidate placement choice, greedy list passes, the
//! rip-up-and-replace improvement loop, multi-start orderings — is written
//! once against the [`PackEngine`] trait. The skyline engine and the naive
//! reference oracle implement the *same* earliest-start policy behind it,
//! so they produce identical schedules and differ only in query speed.
//!
//! # The skeleton → snapshot → delta-pack pipeline
//!
//! Greedy list scheduling places jobs one at a time, so the packing state
//! reached after any order prefix consisting solely of
//! [`Skeleton`](crate::JobKind::Skeleton) jobs depends only on those jobs
//! and their order — never on the candidate's
//! [`Delta`](crate::JobKind::Delta) jobs. [`SessionCore`] exploits this:
//! every distinct skeleton-only prefix it encounters is packed exactly
//! once into a [`PackState`] checkpoint (placed entries, group intervals,
//! the capacity index, and the prune accounting), and any pass whose
//! ordering starts with that prefix clones the checkpoint and continues
//! from there. The multi-start phase pairs per-phase orderings as
//! `skeleton ++ delta`, so its passes reuse full-skeleton checkpoints; a
//! sweep over wrapper-sharing candidates, whose problems all share the
//! digital skeleton, therefore re-packs only the analog delta per
//! candidate. One additional *joint* chains-first pass per candidate (and
//! the improvement loop's global rip-up orders) may interleave delta jobs
//! early; those run from scratch — they are exactly as expensive as the
//! pre-session packer, and they keep chain-dominated candidates (e.g. the
//! all-share normalization baseline) as tightly packed as before. From-
//! scratch scheduling routes through a transient session, which makes
//! session packs and from-scratch packs bit-identical by construction.
//!
//! # The delta-prefix trie
//!
//! Candidates of a sharing sweep differ only in the serialization groups of
//! their delta jobs, and the phase-partitioned orderings enumerate the
//! delta jobs in a *candidate-independent* index order. Two candidates that
//! agree on the groups of their first `k` delta jobs (in that order)
//! therefore reach **bit-identical packing states** after those `k`
//! placements — greedy packing is deterministic, and the state after a
//! prefix depends only on the `(job index, job content)` sequence packed so
//! far. The session exploits this with a prefix *trie*: every step is keyed
//! by the interned `(combined job index, full job content)` pair, skeleton
//! checkpoints live at the skeleton-run nodes (as before), and the phase
//! orderings additionally snapshot after every delta step. A new candidate
//! restores the **longest common packed prefix** with any earlier
//! candidate instead of delta-packing from the bare skeleton. Stored
//! states are LRU-evicted above a cap, and [`SessionStats`] exposes
//! prefix hit/depth/eviction counters.
//!
//! [`SessionStats`]: super::SessionStats
//!
//! The skyline path additionally runs its multi-start delta passes in
//! parallel and abandons passes whose area/width lower bound already
//! exceeds the incumbent; both are result-preserving (the reduction is a
//! deterministic `(makespan, order index)` min and the prune is strict),
//! so effort levels stay bit-for-bit deterministic. Skeleton checkpoints
//! are packed without pruning: a checkpoint is shared by every candidate
//! of the session, so it must not depend on any candidate's incumbent.
//! Delta-step snapshots *may* be taken during pruned passes — a snapshot
//! is the deterministic pack of its own prefix and stays valid even if
//! the pass that minted it is later abandoned.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::problem::{ScheduleProblem, TestJob};

use super::session::{SessionCounters, SessionKey};
use super::{Effort, Schedule, ScheduleError, ScheduledTest, XorShift64};

/// Default upper bound on stored checkpoints per session.
///
/// The canonical multi-start orderings stay far below this; the bound
/// exists because improvement rounds mint candidate-specific rip-up
/// prefixes and every candidate's delta path adds snapshot nodes for the
/// session's whole lifetime. At ~a few KB per checkpoint this caps
/// retention at a few MB per session without affecting results (an
/// evicted checkpoint is simply re-packed on its next use).
pub(crate) const CHECKPOINT_CACHE_CAP: usize = 1024;

/// Upper bound on interned delta-step keys per session.
///
/// Each key retains one delta job's content (label + staircase). A
/// long-lived service session fed ever-changing delta job sets would
/// otherwise grow the interner for its whole lifetime; past the cap, new
/// delta content simply stops being cacheable (trie paths truncate at the
/// first un-interned step — results are unaffected, only reuse).
const INTERNER_CAP: usize = 8192;

/// A packing engine answers "where does this rectangle go" queries for
/// the greedy packer and observes every placement.
///
/// Every engine implements the exact earliest-start policy: candidate
/// starts are time 0, every placed entry's end and every forbidden
/// interval's end, probed in ascending order, and the first start that
/// keeps the job under the TAM capacity over its whole window and
/// overlaps none of the forbidden intervals wins (placing after
/// everything already placed is always legal). `Clone` must snapshot the
/// full incremental state (it is the checkpoint operation of the session
/// pipeline); [`reset`](Self::reset)/[`copy_from`](Self::copy_from) are
/// the allocation-reusing forms of `new`/`clone` that let the session
/// recycle retired engines instead of re-allocating per pass.
pub(crate) trait PackEngine: Clone + Send + Sync {
    /// Reference engines pack serially and without the incumbent prune,
    /// so the oracle shares none of the fast path's machinery beyond the
    /// placement rule.
    const REFERENCE: bool = false;

    /// A fresh engine for an empty schedule.
    fn new() -> Self;

    /// Clears back to the empty-schedule state, keeping allocations.
    /// Must be indistinguishable from a fresh [`Self::new`] engine.
    fn reset(&mut self);

    /// Allocation-reusing checkpoint restore (`clone_from` semantics).
    fn copy_from(&mut self, other: &Self);

    /// The earliest feasible start for a `width × time` rectangle.
    /// `scratch` is a reusable buffer the implementation may clear and
    /// use freely (callers thread one per pass so the hot query
    /// allocates nothing).
    fn place_start(
        &self,
        entries: &[ScheduledTest],
        tam_width: u32,
        width: u32,
        time: u64,
        forbidden: &[(u64, u64)],
        scratch: &mut Vec<u64>,
    ) -> u64;

    /// Observes a committed placement.
    fn on_place(&mut self, placed: &ScheduledTest);
}

/// Reusable per-pass scratch buffers for the packing hot path: the
/// capacity index's candidate-time buffer and the per-job placement
/// candidates. One `PassScratch` is checked out of the session pool per
/// greedy pass, so the inner placement loop performs no allocation after
/// the first few jobs have sized the buffers.
#[derive(Debug, Default)]
pub(crate) struct PassScratch {
    /// Candidate start times / forbidden-interval ends, engine-defined.
    starts: Vec<u64>,
    /// Placement alternatives of the job currently being placed.
    candidates: Vec<Placement>,
}

/// The combined job view of one session pack: the session's skeleton jobs
/// followed by the candidate's delta jobs. Job index `i` addresses the
/// skeleton for `i < skeleton.len()` and the delta otherwise, which is
/// exactly the index space of the emitted [`Schedule`] entries.
#[derive(Clone, Copy)]
pub(crate) struct JobSet<'a> {
    pub(crate) skeleton: &'a [TestJob],
    pub(crate) delta: &'a [TestJob],
}

impl<'a> JobSet<'a> {
    fn len(&self) -> usize {
        self.skeleton.len() + self.delta.len()
    }

    fn get(&self, idx: usize) -> &'a TestJob {
        if idx < self.skeleton.len() {
            &self.skeleton[idx]
        } else {
            &self.delta[idx - self.skeleton.len()]
        }
    }
}

/// A candidate placement for a job.
#[derive(Debug, Clone, Copy)]
struct Placement {
    width: u32,
    time: u64,
    start: u64,
}

/// Incremental packing state: the placed entries, the per-group intervals,
/// the engine's capacity index, and the running prune accounting.
///
/// Cloning a `PackState` is the checkpoint/restore operation of the
/// session pipeline: the state reached after packing a skeleton ordering
/// is cached once and every delta pack continues on a clone.
#[derive(Clone)]
pub(crate) struct PackState<C> {
    entries: Vec<ScheduledTest>,
    /// Placed intervals per serialization group.
    group_intervals: HashMap<u32, Vec<(u64, u64)>>,
    index: C,
    /// Total wire-cycles committed so far (prune accounting).
    placed_area: u64,
    /// Latest end time over the placed entries.
    latest_end: u64,
}

impl<C: PackEngine> PackState<C> {
    fn new(capacity: usize) -> Self {
        PackState {
            entries: Vec::with_capacity(capacity),
            group_intervals: HashMap::new(),
            index: C::new(),
            placed_area: 0,
            latest_end: 0,
        }
    }

    /// Clears a retired state back to empty, keeping every allocation
    /// (entry vector, group-interval vectors, the index's arena).
    /// Indistinguishable from a fresh [`Self::new`] state.
    fn reset(&mut self) {
        self.entries.clear();
        // Keys stay (an empty interval list behaves exactly like an absent
        // one) so the per-group vectors keep their buffers.
        self.group_intervals.values_mut().for_each(Vec::clear);
        self.index.reset();
        self.placed_area = 0;
        self.latest_end = 0;
    }

    /// Allocation-reusing checkpoint restore: field-wise `clone_from`, so
    /// restoring into a recycled state re-fills existing buffers instead
    /// of allocating a fresh treap arena per pass.
    fn copy_from(&mut self, other: &Self) {
        self.entries.clone_from(&other.entries);
        self.group_intervals.clone_from(&other.group_intervals);
        self.index.copy_from(&other.index);
        self.placed_area = other.placed_area;
        self.latest_end = other.latest_end;
    }

    /// Chooses a placement for the job: earliest finish, but among
    /// placements finishing within 2% of the best, the one consuming the
    /// fewest wire-cycles.
    ///
    /// The tolerance matters: wide staircase points often shave only a
    /// marginal amount of time while monopolising the TAM (e.g. a dominant
    /// core whose time flattens once every wrapper chain holds two scan
    /// chains), and taking them greedily starves every other core.
    fn best_placement(
        &self,
        jobs: &JobSet<'_>,
        tam_width: u32,
        job_idx: usize,
        scratch: &mut PassScratch,
    ) -> Placement {
        self.best_placement_for(jobs.get(job_idx), tam_width, scratch)
    }

    /// [`Self::best_placement`] addressed by job content instead of a
    /// combined index — the trie import re-packs persisted steps through
    /// this, so restored checkpoints are the deterministic pack of their
    /// prefix by construction.
    fn best_placement_for(
        &self,
        job: &TestJob,
        tam_width: u32,
        scratch: &mut PassScratch,
    ) -> Placement {
        let forbidden: &[(u64, u64)] =
            job.group.and_then(|g| self.group_intervals.get(&g)).map_or(&[], Vec::as_slice);

        scratch.candidates.clear();
        for p in job.staircase.points() {
            if p.width > tam_width {
                break; // points are sorted by width
            }
            let start = self.index.place_start(
                &self.entries,
                tam_width,
                p.width,
                p.time,
                forbidden,
                &mut scratch.starts,
            );
            scratch.candidates.push(Placement { width: p.width, time: p.time, start });
        }
        let best_finish = scratch
            .candidates
            .iter()
            .map(|c| c.start + c.time)
            .min()
            .expect("job feasibility was checked up front");
        let cutoff = best_finish + best_finish / 50; // +2%
        scratch
            .candidates
            .iter()
            .filter(|c| c.start + c.time <= cutoff)
            .min_by_key(|c| (u64::from(c.width) * c.time, c.start + c.time, c.width))
            .copied()
            .expect("the best-finish candidate survives its own cutoff")
    }

    fn place(&mut self, jobs: &JobSet<'_>, job_idx: usize, p: Placement) -> ScheduledTest {
        self.place_job(job_idx, jobs.get(job_idx), p)
    }

    /// [`Self::place`] addressed by job content (see
    /// [`Self::best_placement_for`]).
    fn place_job(&mut self, job_idx: usize, job: &TestJob, p: Placement) -> ScheduledTest {
        let placed =
            ScheduledTest { job: job_idx, width: p.width, start: p.start, end: p.start + p.time };
        self.entries.push(placed);
        self.index.on_place(&placed);
        if let Some(g) = job.group {
            self.group_intervals.entry(g).or_default().push((p.start, p.start + p.time));
        }
        self.placed_area += u64::from(p.width) * p.time;
        self.latest_end = self.latest_end.max(placed.end);
        placed
    }
}

/// Problem-wide constants for the lower-bound prune.
struct PruneCtx {
    /// Minimum wire-cycles each combined-index job must consume.
    min_area: Vec<u64>,
}

impl PruneCtx {
    fn new(jobs: &JobSet<'_>) -> Self {
        let min_area: Vec<u64> =
            (0..jobs.len()).map(|i| jobs.get(i).staircase.area_lower_bound()).collect();
        PruneCtx { min_area }
    }
}

/// Packs `order` (combined job indices) onto `state`.
///
/// With `prune` set, the pack is abandoned (returns `false`) as soon as
/// its partial lower bound — the latest end so far, or the committed plus
/// remaining wire-cycles spread over the full TAM width — *strictly*
/// exceeds the shared incumbent makespan. A pruned pack provably cannot
/// beat (or even tie) the final best, so pruning never changes the search
/// result, only the time it takes.
///
/// `after_step(pos, state)` observes the state after each placement
/// (before the prune decision for that step) — the session's delta-step
/// snapshots hang off this hook, so the placement/prune logic exists in
/// exactly one place and scratch packs stay bit-identical to session
/// packs by construction.
fn pack_order<C: PackEngine>(
    jobs: &JobSet<'_>,
    tam_width: u32,
    state: &mut PackState<C>,
    order: &[usize],
    prune: Option<(&AtomicU64, &PruneCtx)>,
    scratch: &mut PassScratch,
    mut after_step: impl FnMut(usize, &PackState<C>),
) -> bool {
    let w = u64::from(tam_width.max(1));
    let mut remaining_min_area =
        prune.map_or(0, |(_, ctx)| order.iter().map(|&i| ctx.min_area[i]).sum());

    for (pos, &job_idx) in order.iter().enumerate() {
        let placement = state.best_placement(jobs, tam_width, job_idx, scratch);
        state.place(jobs, job_idx, placement);
        after_step(pos, state);
        if let Some((incumbent, ctx)) = prune {
            remaining_min_area -= ctx.min_area[job_idx];
            let bound = state.latest_end.max((state.placed_area + remaining_min_area).div_ceil(w));
            if bound > incumbent.load(Ordering::Relaxed) {
                return false;
            }
        }
    }
    if let Some((incumbent, _)) = prune {
        incumbent.fetch_min(state.latest_end, Ordering::Relaxed);
    }
    true
}

/// Deterministic job orderings for one phase of the multi-start search.
///
/// `indices` are the combined job indices of the phase; every returned
/// ordering is a permutation of them. The phase always contributes exactly
/// `3 + effort.shuffles()` orderings (degenerate duplicates for empty or
/// ungrouped phases are fine — the session's skeleton cache dedupes them),
/// so the skeleton and delta streams pair 1:1.
fn orders_for_phase(
    jobs: &JobSet<'_>,
    indices: &[usize],
    tam_width: u32,
    effort: Effort,
) -> Vec<Vec<usize>> {
    let min_time = |i: usize| jobs.get(i).staircase.time_at(tam_width);
    let area = |i: usize| jobs.get(i).staircase.area_lower_bound();

    let mut by_time: Vec<usize> = indices.to_vec();
    by_time.sort_by_key(|&i| std::cmp::Reverse(min_time(i)));

    let mut by_area: Vec<usize> = indices.to_vec();
    by_area.sort_by_key(|&i| std::cmp::Reverse(area(i)));

    let mut orders = vec![by_time, by_area, chains_first_order(jobs, indices, tam_width)];
    let mut rng = XorShift64::new(0x9e37_79b9_7f4a_7c15);
    for _ in 0..effort.shuffles() {
        let mut order = indices.to_vec();
        rng.shuffle(&mut order);
        orders.push(order);
    }
    orders
}

/// The chains-first ordering of `indices`: members of the longest
/// serialization chains first (longest total chain time leading),
/// everything else by descending area.
///
/// Used both per phase (the third deterministic multi-start ordering) and
/// over the whole combined job set as the *joint* rescue pass, where a
/// candidate's analog wrapper chains lead ahead of the skeleton — the
/// strongest single ordering for chain-dominated problems such as the
/// all-share normalization baseline, and the one ordering per candidate
/// whose reusable skeleton prefix is empty.
fn chains_first_order(jobs: &JobSet<'_>, indices: &[usize], tam_width: u32) -> Vec<usize> {
    let min_time = |i: usize| jobs.get(i).staircase.time_at(tam_width);
    let area = |i: usize| jobs.get(i).staircase.area_lower_bound();
    let mut group_time: HashMap<u32, u64> = HashMap::new();
    for &i in indices {
        if let Some(g) = jobs.get(i).group {
            *group_time.entry(g).or_insert(0) += min_time(i);
        }
    }
    let mut order: Vec<usize> = indices.to_vec();
    order.sort_by_key(|&i| {
        let chain = jobs.get(i).group.map(|g| group_time[&g]).unwrap_or(0);
        (std::cmp::Reverse(chain), std::cmp::Reverse(area(i)))
    });
    order
}

/// A step on a trie path: the dense id of an interned
/// `(combined job index, job content)` pair.
///
/// Keying by the *pair* is what makes restored states safe to share:
/// entries inside a [`PackState`] record combined job indices, so a state
/// may only be replayed for an order whose steps carry both the same
/// content (same placement decisions) *and* the same indices (same entry
/// labels). Skeleton steps intern to their index directly (the skeleton is
/// fixed per session); delta steps intern through the session's content
/// interner.
type StepId = u32;

/// One node of the prefix trie. Nodes without a stored state are pure
/// structure (a path that was walked but whose checkpoint was evicted or
/// never taken).
struct TrieNode<C> {
    children: HashMap<StepId, usize>,
    state: Option<Arc<PackState<C>>>,
    /// LRU clock value of the last hit or store.
    last_used: u64,
    /// Steps from the root (== packed order prefix length).
    depth: u32,
}

impl<C> TrieNode<C> {
    fn new(depth: u32) -> Self {
        TrieNode { children: HashMap::new(), state: None, last_used: 0, depth }
    }
}

/// The delta-prefix trie: packed checkpoints addressed by step paths, with
/// LRU eviction of stored states above `cap`.
struct PrefixTrie<C> {
    nodes: Vec<TrieNode<C>>,
    /// Nodes currently holding a state.
    stored: usize,
    /// Monotonic LRU clock.
    tick: u64,
    cap: usize,
    evictions: u64,
}

impl<C> PrefixTrie<C> {
    const ROOT: usize = 0;

    fn new(cap: usize) -> Self {
        PrefixTrie { nodes: vec![TrieNode::new(0)], stored: 0, tick: 0, cap, evictions: 0 }
    }

    /// Structural nodes are bounded too: evicted states leave their nodes
    /// behind, and unbounded rip-up paths would otherwise grow the arena
    /// for the session's lifetime. Beyond the bound, paths simply stop
    /// being extended (their checkpoints are re-packed on next use).
    fn node_cap(&self) -> usize {
        self.cap.saturating_mul(4).max(64)
    }

    /// Deepest node along `steps` holding a state; returns a clone of the
    /// `Arc` (the state copy happens outside the lock) and its depth.
    fn deepest_state(&mut self, steps: &[StepId]) -> Option<(Arc<PackState<C>>, u32)> {
        let mut node = Self::ROOT;
        let mut best: Option<usize> = None;
        for step in steps {
            let Some(&child) = self.nodes[node].children.get(step) else { break };
            node = child;
            if self.nodes[node].state.is_some() {
                best = Some(node);
            }
        }
        let best = best?;
        self.tick += 1;
        self.nodes[best].last_used = self.tick;
        let depth = self.nodes[best].depth;
        Some((self.nodes[best].state.as_ref().expect("selected for state").clone(), depth))
    }

    /// Stores `state` at the node for `steps[..depth]`, creating structure
    /// as needed (subject to the node cap) and LRU-evicting above the
    /// state cap. Never overwrites: the first stored state for a prefix is
    /// as good as any later one (packing is deterministic).
    fn store(&mut self, steps: &[StepId], depth: usize, state: Arc<PackState<C>>) {
        if depth == 0 {
            return; // an empty prefix is a fresh state; nothing to cache
        }
        let mut node = Self::ROOT;
        for step in &steps[..depth] {
            if let Some(&child) = self.nodes[node].children.get(step) {
                node = child;
                continue;
            }
            if self.nodes.len() >= self.node_cap() {
                return;
            }
            let d = self.nodes[node].depth + 1;
            let child = self.nodes.len();
            self.nodes.push(TrieNode::new(d));
            self.nodes[node].children.insert(*step, child);
            node = child;
        }
        if self.nodes[node].state.is_some() {
            return;
        }
        if self.stored >= self.cap {
            self.evict_lru_batch();
        }
        self.tick += 1;
        self.nodes[node].state = Some(state);
        self.nodes[node].last_used = self.tick;
        self.stored += 1;
    }

    /// Whether the trie can still grow structure. Saturated tries make
    /// callers skip the per-step snapshot clones entirely instead of
    /// cloning states that `store` would silently drop.
    fn has_node_capacity(&self) -> bool {
        self.nodes.len() < self.node_cap()
    }

    /// Drops a batch of least-recently-used stored states (structure
    /// stays).
    ///
    /// Eviction needs a scan over the node arena, which happens under the
    /// session's trie mutex; evicting a batch per scan amortizes that cost
    /// to ~1/batch per store, so a cap-saturated session does not
    /// serialize its parallel delta passes behind one full scan per
    /// snapshot. Results never depend on which checkpoints survive.
    fn evict_lru_batch(&mut self) {
        let batch = (self.cap / 32).clamp(1, self.stored);
        let mut stored: Vec<(u64, usize)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.state.is_some())
            .map(|(i, n)| (n.last_used, i))
            .collect();
        stored.sort_unstable();
        for &(_, i) in stored.iter().take(batch) {
            self.nodes[i].state = None;
            self.stored -= 1;
            self.evictions += 1;
        }
    }
}

/// One exported trie node: a packing step plus the placement it
/// committed, in parent-before-child order (see [`TrieExport`]).
///
/// The placement is *redundant* with the step sequence — greedy packing is
/// deterministic, so the state after a prefix is fully determined by its
/// `(job index, job content)` steps — and that redundancy is exactly what
/// makes imports verifiable: the importer re-packs every step and keeps a
/// node only when the recomputed placement equals the persisted one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointNode {
    /// Index of the parent node in [`TrieExport::nodes`], always less than
    /// this node's own index; `None` parents at the trie root.
    pub parent: Option<u32>,
    /// Combined job index this step packs (`skeleton ++ delta` space).
    pub job: u32,
    /// Index into [`TrieExport::contents`] for delta steps; `None` for
    /// skeleton steps (the session's own skeleton carries their content).
    pub content: Option<u32>,
    /// TAM lines the committed placement occupies.
    pub width: u32,
    /// Start time of the committed placement.
    pub start: u64,
    /// End time of the committed placement.
    pub end: u64,
    /// Whether a checkpoint state is stored at this node (`false` nodes
    /// are structure on the path to a stored descendant).
    pub stored: bool,
    /// LRU rank among the export's stored nodes (0 = least recently
    /// used); 0 for structure nodes.
    pub lru: u32,
}

/// A session trie's exported checkpoints: the delta-job contents its
/// steps intern plus the kept nodes in parent-before-child order.
///
/// Only paths leading to a stored checkpoint are exported — structure
/// whose states were evicted (or never taken) carries no restorable
/// information.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrieExport {
    /// Interned delta-job contents referenced by [`CheckpointNode::content`].
    pub contents: Vec<TestJob>,
    /// Kept trie nodes, every parent before its children.
    pub nodes: Vec<CheckpointNode>,
}

impl TrieExport {
    /// Stored checkpoint states among the exported nodes.
    pub fn checkpoint_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.stored).count()
    }
}

/// Total order over job contents, intrinsic to the job (label, then
/// staircase points, then group, then kind) — the sibling tie-break for
/// the canonical child ordering of trie exports. Distinct sibling steps
/// sharing a job index always differ in content, so the order is strict
/// where the export needs it to be.
fn content_order(a: &TestJob, b: &TestJob) -> std::cmp::Ordering {
    use crate::problem::JobKind;
    let kind_code = |k: JobKind| match k {
        JobKind::Skeleton => 0u8,
        JobKind::Delta => 1,
    };
    a.label
        .cmp(&b.label)
        .then_with(|| {
            let (ap, bp) = (a.staircase.points(), b.staircase.points());
            let pointwise = ap
                .iter()
                .zip(bp)
                .map(|(x, y)| x.width.cmp(&y.width).then(x.time.cmp(&y.time)))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal);
            pointwise.then(ap.len().cmp(&bp.len()))
        })
        .then_with(|| a.group.cmp(&b.group))
        .then_with(|| kind_code(a.kind).cmp(&kind_code(b.kind)))
}

/// What a checkpoint import kept and what it refused (see
/// [`PackSession::import_checkpoints`]).
///
/// [`PackSession::import_checkpoints`]: crate::PackSession::import_checkpoints
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointImportStats {
    /// Checkpoint states restored into the session's tries.
    pub restored: u64,
    /// Exported checkpoints dropped: their persisted placements did not
    /// equal the deterministic re-pack of their own prefix (or their step
    /// could not be interned / their trie layout was malformed).
    pub dropped: u64,
}

/// The engine-generic heart of a pack session (see the module docs).
///
/// Owns the skeleton jobs of a sweep plus the prefix trie of packed
/// checkpoints: skeleton-run checkpoints exactly as before, plus per-step
/// snapshots along the phase orderings' delta paths so candidates sharing
/// wrapper groups restore their longest common packed prefix. The public
/// wrapper is [`crate::PackSession`]; from-scratch scheduling builds a
/// transient core per call.
pub(crate) struct SessionCore<C> {
    /// The session's immutable content (shared with its `PackSession`).
    key: Arc<SessionKey>,
    /// The checkpoint store. `Arc` so lookups clone a pointer under the
    /// lock and copy the state outside it — concurrent delta passes must
    /// not serialize on a treap-arena memcpy inside the critical section.
    trie: Mutex<PrefixTrie<C>>,
    /// Dense ids for delta-step keys: `(combined index, content) -> id`,
    /// ids starting after the skeleton indices.
    interner: Mutex<HashMap<(u32, TestJob), StepId>>,
    /// Recycled per-pass scratch buffers (candidate times, placement
    /// alternatives), checked out once per greedy pass.
    pass_scratch: Mutex<Vec<PassScratch>>,
    /// Retired pack states whose allocations (entry vectors, treap
    /// arenas) future passes reuse instead of re-allocating.
    retired_states: Mutex<Vec<PackState<C>>>,
}

/// Upper bound on recycled [`PackState`]s retained per session. Each
/// retired state holds an entry vector plus a treap arena (a few KB on
/// real SOCs); the cap keeps a long-lived service session's recycle pool
/// at worst-case a couple hundred KB while still covering the widest
/// realistic multi-start fan-out.
const RETIRED_STATE_CAP: usize = 32;

impl<C: PackEngine> SessionCore<C> {
    pub(crate) fn new(key: Arc<SessionKey>) -> Self {
        Self::with_checkpoint_cap(key, CHECKPOINT_CACHE_CAP)
    }

    pub(crate) fn with_checkpoint_cap(key: Arc<SessionKey>, cap: usize) -> Self {
        SessionCore {
            key,
            trie: Mutex::new(PrefixTrie::new(cap.max(1))),
            interner: Mutex::new(HashMap::new()),
            pass_scratch: Mutex::new(Vec::new()),
            retired_states: Mutex::new(Vec::new()),
        }
    }

    /// Checks a scratch set out of the pool for the duration of `f`.
    /// Scratch contents carry no information across passes (every buffer
    /// is cleared before use) — the pool only recycles allocations.
    fn with_pass_scratch<R>(&self, f: impl FnOnce(&mut PassScratch) -> R) -> R {
        let mut scratch =
            self.pass_scratch.lock().expect("pass scratch lock").pop().unwrap_or_default();
        let out = f(&mut scratch);
        self.pass_scratch.lock().expect("pass scratch lock").push(scratch);
        out
    }

    /// A cleared pack state, recycled from the retired pool when one is
    /// available (keeping its allocations) and freshly allocated otherwise.
    fn take_state(&self, capacity: usize) -> PackState<C> {
        match self.retired_states.lock().expect("retired state lock").pop() {
            Some(mut state) => {
                state.reset();
                state
            }
            None => PackState::new(capacity),
        }
    }

    /// Returns a dead state (pruned pass, losing pass, superseded
    /// incumbent) to the recycle pool so its allocations feed the next
    /// [`Self::take_state`].
    fn retire_state(&self, state: PackState<C>) {
        let mut pool = self.retired_states.lock().expect("retired state lock");
        if pool.len() < RETIRED_STATE_CAP {
            pool.push(state);
        }
    }

    /// Maps an order of combined job indices to its trie step path —
    /// possibly a *prefix* of the order: the path ends at the first delta
    /// step that cannot be interned anymore (see [`INTERNER_CAP`]).
    ///
    /// Skeleton steps are their own index (the skeleton is session-fixed);
    /// delta steps intern the `(index, content)` pair, so equal prefixes
    /// across candidates — same positions, same jobs, same groups — map to
    /// equal paths and *only* those do. Truncating at an un-internable
    /// step (never aliasing it) keeps that exactness: steps beyond the
    /// returned path are simply uncacheable.
    fn steps_for(&self, jobs: &JobSet<'_>, order: &[usize]) -> Vec<StepId> {
        let skeleton_len = self.key.skeleton().len();
        let mut interner = self.interner.lock().expect("step interner lock");
        let mut steps = Vec::with_capacity(order.len());
        for &idx in order {
            if idx < skeleton_len {
                steps.push(idx as StepId);
                continue;
            }
            let key = (idx as u32, jobs.get(idx).clone());
            if let Some(&id) = interner.get(&key) {
                steps.push(id);
            } else if interner.len() < INTERNER_CAP {
                let id = skeleton_len as StepId + interner.len() as StepId;
                interner.insert(key, id);
                steps.push(id);
            } else {
                break;
            }
        }
        steps
    }

    /// Exports the trie's checkpoint paths (see [`TrieExport`]).
    ///
    /// Only nodes on a path to a stored state are kept, emitted in
    /// deterministic pre-order: children are visited in ascending
    /// `(job index, job content)` order, a key intrinsic to the steps
    /// themselves (interner step ids depend on discovery order, which an
    /// import does not replay), so export → import → export is a fixed
    /// point and equal tries export equal byte-for-byte structures. Each
    /// node's committed placement is recovered from a stored descendant's
    /// entry list — entry `depth - 1` of any state below a node is the
    /// placement its step committed.
    pub(crate) fn export_trie(&self) -> TrieExport {
        let trie = self.trie.lock().expect("checkpoint trie lock");
        let interner = self.interner.lock().expect("step interner lock");
        let skeleton_len = self.key.skeleton().len();
        let rev: HashMap<StepId, (u32, &TestJob)> =
            interner.iter().map(|((idx, job), &id)| (id, (*idx, job))).collect();

        // Children always follow their parent in the arena, so one reverse
        // scan folds every subtree into `keep` (on a path to a stored
        // state) and `repr` (a stored node in the subtree, self included).
        let n = trie.nodes.len();
        let mut parent = vec![usize::MAX; n];
        for (i, node) in trie.nodes.iter().enumerate() {
            for &child in node.children.values() {
                parent[child] = i;
            }
        }
        let mut keep = vec![false; n];
        let mut repr: Vec<Option<usize>> = vec![None; n];
        for i in 0..n {
            if trie.nodes[i].state.is_some() {
                keep[i] = true;
                repr[i] = Some(i);
            }
        }
        for i in (1..n).rev() {
            if keep[i] && parent[i] != usize::MAX {
                let p = parent[i];
                keep[p] = true;
                if repr[p].is_none() {
                    repr[p] = repr[i];
                }
            }
        }

        // LRU ranks over the stored nodes (ticks are unique, the index
        // tie-break is belt and braces).
        let mut stored_order: Vec<(u64, usize)> = trie
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| node.state.is_some())
            .map(|(i, node)| (node.last_used, i))
            .collect();
        stored_order.sort_unstable();
        let mut lru_rank = vec![0u32; n];
        for (rank, &(_, i)) in stored_order.iter().enumerate() {
            lru_rank[i] = rank as u32;
        }

        let mut export = TrieExport::default();
        let mut content_ids: HashMap<&TestJob, u32> = HashMap::new();
        // Pre-order DFS from the root over kept nodes; the stack holds
        // `(trie node, step from parent, exported parent index)`.
        let mut stack: Vec<(usize, StepId, Option<u32>)> = Vec::new();
        let step_key = |step: StepId| -> (u32, Option<&TestJob>) {
            if (step as usize) < skeleton_len {
                (step, None)
            } else {
                let (idx, job) = *rev.get(&step).expect("delta steps are interned");
                (idx, Some(job))
            }
        };
        let push_children =
            |stack: &mut Vec<(usize, StepId, Option<u32>)>, node: usize, me: Option<u32>| {
                let mut kids: Vec<(StepId, usize)> = trie.nodes[node]
                    .children
                    .iter()
                    .filter(|&(_, &child)| keep[child])
                    .map(|(&step, &child)| (step, child))
                    .collect();
                kids.sort_unstable_by(|&(a, _), &(b, _)| {
                    let ((ja, ca), (jb, cb)) = (step_key(a), step_key(b));
                    ja.cmp(&jb).then_with(|| match (ca, cb) {
                        (None, None) => std::cmp::Ordering::Equal,
                        (None, Some(_)) => std::cmp::Ordering::Less,
                        (Some(_), None) => std::cmp::Ordering::Greater,
                        (Some(x), Some(y)) => content_order(x, y),
                    })
                });
                for (step, child) in kids.into_iter().rev() {
                    stack.push((child, step, me));
                }
            };
        push_children(&mut stack, PrefixTrie::<C>::ROOT, None);
        while let Some((i, step, parent_idx)) = stack.pop() {
            let node = &trie.nodes[i];
            let depth = node.depth as usize;
            let r = repr[i].expect("kept nodes have a stored representative");
            let entry = trie.nodes[r].state.as_ref().expect("representatives are stored").entries
                [depth - 1];
            let (job, content) = if (step as usize) < skeleton_len {
                (step, None)
            } else {
                let (idx, content_job) = *rev.get(&step).expect("delta steps are interned");
                let cid = *content_ids.entry(content_job).or_insert_with(|| {
                    export.contents.push(content_job.clone());
                    (export.contents.len() - 1) as u32
                });
                (idx, Some(cid))
            };
            debug_assert_eq!(entry.job, job as usize, "step/entry job mismatch in trie export");
            let stored = node.state.is_some();
            let me = export.nodes.len() as u32;
            export.nodes.push(CheckpointNode {
                parent: parent_idx,
                job,
                content,
                width: entry.width,
                start: entry.start,
                end: entry.end,
                stored,
                lru: if stored { lru_rank[i] } else { 0 },
            });
            push_children(&mut stack, i, Some(me));
        }
        export
    }

    /// Imports an exported trie, re-packing every step and verifying the
    /// recomputed placement against the persisted one; returns
    /// `(restored, dropped)` checkpoint counts.
    ///
    /// A restored checkpoint is therefore *equal to the deterministic pack
    /// of its own prefix by construction* — the importer never trusts
    /// persisted coordinates, it only uses them to detect disagreement. A
    /// node that fails verification (or references malformed structure)
    /// invalidates its whole subtree; each stored node lost that way
    /// counts as one drop. Stored states are committed in exported LRU
    /// order, so the imported trie evicts in the same order the exporter
    /// would have.
    pub(crate) fn import_trie(&self, export: &TrieExport) -> (u64, u64) {
        let skeleton_len = self.key.skeleton().len();
        let n = export.nodes.len();
        let mut dropped = 0u64;
        let mut paths: Vec<Vec<StepId>> = Vec::with_capacity(n.min(1 << 16));
        let mut states: Vec<Option<Arc<PackState<C>>>> = Vec::with_capacity(n.min(1 << 16));
        // `(lru rank, node)` of every verified stored node.
        let mut stores: Vec<(u32, usize)> = Vec::new();
        {
            let mut interner = self.interner.lock().expect("step interner lock");
            for (i, node) in export.nodes.iter().enumerate() {
                paths.push(Vec::new());
                states.push(None);
                let drop_stored = |dropped: &mut u64| {
                    if node.stored {
                        *dropped += 1;
                    }
                };
                // A dead parent (malformed index, forward reference, or a
                // dropped subtree) invalidates the node.
                let (base_path, base_state) = match node.parent {
                    None => (Vec::new(), None),
                    Some(p) => {
                        let p = p as usize;
                        match states.get(p).and_then(|s| s.as_ref()) {
                            Some(state) if p < i => (paths[p].clone(), Some(Arc::clone(state))),
                            _ => {
                                drop_stored(&mut dropped);
                                continue;
                            }
                        }
                    }
                };
                let job = node.job as usize;
                let (step, content) = if job < skeleton_len {
                    // An over-wide job has no feasible placement at all —
                    // reject it here (a session built from corrupt bytes
                    // may carry one), the re-pack below assumes
                    // feasibility.
                    if node.content.is_some()
                        || self.key.skeleton()[job].staircase.min_width() > self.key.tam_width()
                    {
                        drop_stored(&mut dropped);
                        continue;
                    }
                    (node.job as StepId, &self.key.skeleton()[job])
                } else {
                    let content = node
                        .content
                        .and_then(|cid| export.contents.get(cid as usize))
                        .filter(|c| c.staircase.min_width() <= self.key.tam_width());
                    let Some(content) = content else {
                        drop_stored(&mut dropped);
                        continue;
                    };
                    let key = (node.job, content.clone());
                    let id = match interner.get(&key) {
                        Some(&id) => id,
                        None if interner.len() < INTERNER_CAP => {
                            let id = skeleton_len as StepId + interner.len() as StepId;
                            interner.insert(key, id);
                            id
                        }
                        None => {
                            drop_stored(&mut dropped);
                            continue;
                        }
                    };
                    (id, content)
                };
                // Re-pack the step on a copy of the parent state and keep
                // the node only if the deterministic placement agrees with
                // the persisted one.
                let mut state = self.take_state(base_path.len() + 1);
                if let Some(base) = &base_state {
                    state.copy_from(base);
                }
                let placement = self.with_pass_scratch(|scratch| {
                    state.best_placement_for(content, self.key.tam_width(), scratch)
                });
                let placed = state.place_job(job, content, placement);
                let expected =
                    ScheduledTest { job, width: node.width, start: node.start, end: node.end };
                if placed != expected {
                    self.retire_state(state);
                    drop_stored(&mut dropped);
                    continue;
                }
                let mut path = base_path;
                path.push(step);
                if node.stored {
                    stores.push((node.lru, i));
                }
                paths[i] = path;
                states[i] = Some(Arc::new(state));
            }
        }
        stores.sort_unstable();
        let restored = stores.len() as u64;
        if restored > 0 {
            let mut trie = self.trie.lock().expect("checkpoint trie lock");
            for &(_, i) in &stores {
                let path = &paths[i];
                let state = Arc::clone(states[i].as_ref().expect("verified nodes keep a state"));
                trie.store(path, path.len(), state);
            }
        }
        (restored, dropped)
    }

    pub(crate) fn key(&self) -> &Arc<SessionKey> {
        &self.key
    }

    /// Pre-packs the base multi-start skeleton checkpoints.
    ///
    /// Idempotent. Sweeps that fan candidate delta-packs out across
    /// threads call this once up front so the concurrent packs find warm
    /// checkpoints instead of all missing the empty cache at once and
    /// re-packing the same orderings in parallel. Warming counts packs
    /// as misses but never counts hits: re-warming a hot session reuses
    /// no packing work at that moment, and the hit counter is the
    /// evidence of *actual* reuse that harnesses assert against.
    pub(crate) fn warm(&self, counters: &SessionCounters) {
        let jobs = JobSet { skeleton: self.key.skeleton(), delta: &[] };
        let indices: Vec<usize> = (0..self.key.skeleton().len()).collect();
        let orders = orders_for_phase(&jobs, &indices, self.key.tam_width(), self.key.effort());
        let mut missing: Vec<Vec<usize>> = Vec::new();
        {
            let mut trie = self.trie.lock().expect("checkpoint trie lock");
            for order in orders {
                let steps: Vec<StepId> = order.iter().map(|&i| i as StepId).collect();
                let full_depth =
                    trie.deepest_state(&steps).is_some_and(|(_, d)| d as usize == order.len());
                if !full_depth && !missing.contains(&order) {
                    missing.push(order);
                }
            }
        }
        if missing.is_empty() {
            return;
        }
        let pack_one = |order: &Vec<usize>| {
            self.with_pass_scratch(|scratch| {
                let mut state = self.take_state(jobs.len());
                pack_order(
                    &jobs,
                    self.key.tam_width(),
                    &mut state,
                    order,
                    None,
                    scratch,
                    |_, _| {},
                );
                Arc::new(state)
            })
        };
        let packed: Vec<Arc<PackState<C>>> = if C::REFERENCE {
            missing.iter().map(pack_one).collect()
        } else {
            msoc_par::map(&missing, |_, order| pack_one(order))
        };
        counters.skeleton_misses.fetch_add(missing.len() as u64, Ordering::Relaxed);
        let mut trie = self.trie.lock().expect("checkpoint trie lock");
        for (order, state) in missing.into_iter().zip(packed) {
            let steps: Vec<StepId> = order.iter().map(|&i| i as StepId).collect();
            trie.store(&steps, steps.len(), state);
        }
        counters.evictions.store(trie.evictions, Ordering::Relaxed);
    }

    /// Packs one full ordering, restoring the deepest cached prefix from
    /// the trie and packing the remainder as a continuation.
    ///
    /// The leading skeleton-only run is packed without pruning (its
    /// checkpoint is shared across candidates and must not depend on any
    /// incumbent) and its endpoint is always stored. With
    /// `snapshot_deltas`, the tail additionally snapshots after every
    /// step — the phase-partitioned orderings pass this, which is what
    /// populates the cross-candidate delta-prefix paths. Snapshots taken
    /// before a prune abandons the pass are kept: each is the
    /// deterministic pack of its own prefix, valid regardless of how the
    /// minting pass ends. Returns `None` when the continuation is
    /// abandoned by the prune.
    fn pack_via_prefix(
        &self,
        jobs: &JobSet<'_>,
        order: &[usize],
        prune: Option<(&AtomicU64, &PruneCtx)>,
        snapshot_deltas: bool,
        counters: &SessionCounters,
    ) -> Option<PackState<C>> {
        let skeleton_len = self.key.skeleton().len();
        let run = order.iter().position(|&i| i >= skeleton_len).unwrap_or(order.len());
        // `steps` may be a strict prefix of `order` (interner cap); depths
        // beyond it are uncacheable.
        let steps = self.steps_for(jobs, order);
        let (restored, can_store) = {
            let mut trie = self.trie.lock().expect("checkpoint trie lock");
            (trie.deepest_state(&steps), trie.has_node_capacity())
        };
        // Recycle a retired state's allocations for this pass; a restored
        // checkpoint copies into the recycled buffers instead of cloning
        // a fresh arena.
        let mut state = self.take_state(jobs.len());
        let start = match restored {
            Some((arc, depth)) => {
                state.copy_from(&arc);
                depth as usize
            }
            None => 0,
        };
        if start > run {
            counters.prefix_hits.fetch_add(1, Ordering::Relaxed);
            counters.prefix_jobs_restored.fetch_add((start - run) as u64, Ordering::Relaxed);
            counters.max_prefix_depth.fetch_max((start - run) as u64, Ordering::Relaxed);
        }
        if run > 0 {
            if start >= run {
                counters.skeleton_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                counters.skeleton_misses.fetch_add(1, Ordering::Relaxed);
            }
        }

        let (completed, snapshots) = self.with_pass_scratch(|scratch| {
            let mut snapshots: Vec<(usize, Arc<PackState<C>>)> = Vec::new();
            if start < run {
                pack_order(
                    jobs,
                    self.key.tam_width(),
                    &mut state,
                    &order[start..run],
                    None,
                    scratch,
                    |_, _| {},
                );
                if can_store {
                    snapshots.push((run, Arc::new(state.clone())));
                }
            }

            // The tail beyond the restored prefix and the skeleton run:
            // pruned when requested, snapshotted per cacheable step when
            // requested (only while the trie can actually accept new paths
            // — a saturated trie must not cost a discarded state clone per
            // step).
            let tail_from = start.max(run);
            let snapshot_to = if snapshot_deltas && can_store {
                steps.len().min(order.len().saturating_sub(1))
            } else {
                0
            };
            let completed = pack_order(
                jobs,
                self.key.tam_width(),
                &mut state,
                &order[tail_from..],
                prune,
                scratch,
                |pos, state| {
                    let depth = tail_from + pos + 1;
                    if depth <= snapshot_to {
                        snapshots.push((depth, Arc::new(state.clone())));
                    }
                },
            );
            (completed, snapshots)
        });
        if !completed {
            counters.pruned_passes.fetch_add(1, Ordering::Relaxed);
        }
        if !snapshots.is_empty() {
            let mut trie = self.trie.lock().expect("checkpoint trie lock");
            for (depth, snap) in snapshots {
                trie.store(&steps, depth, snap);
            }
            counters.evictions.store(trie.evictions, Ordering::Relaxed);
        }
        if completed {
            Some(state)
        } else {
            self.retire_state(state);
            None
        }
    }

    /// Deterministic `(makespan, order index)` reduction over a batch of
    /// multi-start passes. Losing states are retired into the recycle
    /// pool, so a sweep's repeated fan-outs churn through a fixed set of
    /// allocations instead of allocating per pass.
    fn reduce_passes(&self, passes: Vec<Option<PackState<C>>>) -> Option<PackState<C>> {
        let mut best: Option<(usize, PackState<C>)> = None;
        for (i, state) in passes.into_iter().enumerate() {
            let Some(state) = state else { continue };
            match &best {
                Some((_, b)) if state.latest_end >= b.latest_end => self.retire_state(state),
                _ => {
                    if let Some((_, loser)) = best.replace((i, state)) {
                        self.retire_state(loser);
                    }
                }
            }
        }
        best.map(|(_, s)| s)
    }

    /// Keeps the strictly better of an incumbent and a challenger
    /// (incumbent wins ties), retiring the loser's allocations.
    fn keep_better(&self, incumbent: PackState<C>, challenger: PackState<C>) -> PackState<C> {
        if challenger.latest_end < incumbent.latest_end {
            self.retire_state(incumbent);
            challenger
        } else {
            self.retire_state(challenger);
            incumbent
        }
    }

    /// Packs the session skeleton plus `delta` into a full schedule: the
    /// three deterministic base orderings, the seeded shuffles, the joint
    /// passes, then the improvement rounds, each stage pruning against
    /// the best makespan of the stages before it.
    ///
    /// Job indices in the returned schedule address the combined
    /// `skeleton ++ delta` job list. Deterministic for a given
    /// `(session, delta)`; bit-identical to a from-scratch
    /// [`super::schedule_with_engine`] call on the combined problem.
    pub(crate) fn pack(
        &self,
        delta: &[TestJob],
        counters: &SessionCounters,
    ) -> Result<Schedule, ScheduleError> {
        let jobs = JobSet { skeleton: self.key.skeleton(), delta };
        let w = self.key.tam_width();
        for i in 0..jobs.len() {
            let job = jobs.get(i);
            if job.staircase.min_width() > w {
                return Err(ScheduleError::JobTooWide {
                    job: i,
                    min_width: job.staircase.min_width(),
                    tam_width: w,
                });
            }
        }
        counters.delta_packs.fetch_add(1, Ordering::Relaxed);

        let skeleton_indices: Vec<usize> = (0..self.key.skeleton().len()).collect();
        let delta_indices: Vec<usize> =
            (self.key.skeleton().len()..self.key.skeleton().len() + delta.len()).collect();
        let skeleton_orders = orders_for_phase(&jobs, &skeleton_indices, w, self.key.effort());
        let delta_orders = orders_for_phase(&jobs, &delta_indices, w, self.key.effort());
        debug_assert_eq!(skeleton_orders.len(), delta_orders.len());
        let phase_orders: Vec<Vec<usize>> = skeleton_orders
            .into_iter()
            .zip(delta_orders)
            .map(|(mut sk, dl)| {
                sk.extend(dl);
                sk
            })
            .collect();
        let prune_ctx = PruneCtx::new(&jobs);

        // Phase-partitioned orders snapshot their delta steps: their delta
        // sub-orderings are candidate-independent, so the snapshots form
        // the cross-candidate prefix paths of the trie. The deterministic
        // heads run first so the shuffles start against their incumbent.
        let (base, shuffles) = phase_orders.split_at(phase_orders.len().min(3));
        let mut best = None;
        self.run_batch(&jobs, base, true, &prune_ctx, counters, &mut best);
        self.run_batch(&jobs, shuffles, true, &prune_ctx, counters, &mut best);

        // *Joint* passes interleave delta jobs ahead of (or among) the
        // skeleton — coverage the phase-partitioned cached passes cannot
        // provide. The chains-first joint order packs chain-dominated
        // candidates (the all-share normalization baseline in particular)
        // as tightly as the pre-session search did; the shuffled joint
        // orders recover the interleaved random restarts the phase split
        // removed. Their reusable prefixes are empty-to-short — these are
        // the few from-scratch packs per candidate — and the incumbent
        // from the earlier stages prunes them early when they cannot win.
        if !delta.is_empty() && !self.key.skeleton().is_empty() {
            let all_indices: Vec<usize> = (0..jobs.len()).collect();
            let mut joint_orders = vec![chains_first_order(&jobs, &all_indices, w)];
            let mut rng = XorShift64::new(0x2545_f491_4f6c_dd1d);
            for _ in 0..self.key.effort().joint_shuffles() {
                let mut order = all_indices.clone();
                rng.shuffle(&mut order);
                joint_orders.push(order);
            }
            self.run_batch(&jobs, &joint_orders, false, &prune_ctx, counters, &mut best);
        }

        let best = best.expect("an un-pruned base ordering always survives");
        let best = self.improve(&jobs, best, &prune_ctx, counters);
        let mut schedule = Schedule::from_parts(w, best.latest_end, best.entries);
        schedule.sort_entries();
        Ok(schedule)
    }

    /// Runs one batch of orderings against an incumbent seeded with the
    /// best makespan so far and folds the surviving passes into `best`.
    fn run_batch(
        &self,
        jobs: &JobSet<'_>,
        orders: &[Vec<usize>],
        snapshot_deltas: bool,
        prune_ctx: &PruneCtx,
        counters: &SessionCounters,
        best: &mut Option<PackState<C>>,
    ) {
        if orders.is_empty() {
            return;
        }
        let incumbent = AtomicU64::new(best.as_ref().map_or(u64::MAX, |b| b.latest_end));
        let prune = (!C::REFERENCE).then_some((&incumbent, prune_ctx));
        let run_pass = |order: &Vec<usize>| {
            self.pack_via_prefix(jobs, order, prune, snapshot_deltas, counters)
        };
        let passes: Vec<Option<PackState<C>>> = if C::REFERENCE {
            orders.iter().map(run_pass).collect()
        } else {
            msoc_par::map(orders, |_, order| run_pass(order))
        };
        if let Some(state) = self.reduce_passes(passes) {
            *best = Some(match best.take() {
                Some(b) => self.keep_better(b, state),
                None => state,
            });
        }
    }

    /// Local improvement: repeatedly rip up a job that finishes at the
    /// makespan and re-place everything else first; keep any improvement.
    ///
    /// Rounds rotate through *every distinct* critical job (alternating
    /// front-of-order and back-of-order re-insertion), rather than
    /// bouncing between the first two, so long plateaus with several
    /// critical jobs still explore distinct rip-ups each round. Re-insert
    /// orders keep the incumbent's global placement order; whenever such
    /// an order happens to lead with skeleton jobs (every back-insertion
    /// round of a skeleton-first incumbent does), the shared checkpoint
    /// cache restores that prefix instead of re-packing it.
    ///
    /// Orders are memoized across rounds: a greedy pack is deterministic
    /// per order and the incumbent only ever shrinks, so an order that
    /// already ran (and failed to beat the then-incumbent) can never beat
    /// the current one — re-running it is a no-op, and long plateaus
    /// would otherwise spend most of their rounds on exactly those
    /// no-ops.
    fn improve(
        &self,
        jobs: &JobSet<'_>,
        mut best: PackState<C>,
        prune_ctx: &PruneCtx,
        counters: &SessionCounters,
    ) -> PackState<C> {
        let mut tried: std::collections::HashSet<Vec<usize>> = std::collections::HashSet::new();
        for round in 0..self.key.effort().improvement_rounds() {
            let makespan = best.latest_end;
            let mut criticals: Vec<usize> =
                best.entries.iter().filter(|e| e.end == makespan).map(|e| e.job).collect();
            criticals.sort_unstable();
            criticals.dedup();
            let Some(&critical) = criticals.get((round / 2) % criticals.len().max(1)) else {
                break;
            };
            // Re-run the greedy with the critical job moved to the front
            // (it gets first pick of wires) and, alternately, to the back.
            let mut order: Vec<usize> =
                best.entries.iter().map(|e| e.job).filter(|&j| j != critical).collect();
            if round % 2 == 0 {
                order.insert(0, critical);
            } else {
                order.push(critical);
            }
            if !tried.insert(order.clone()) {
                continue;
            }

            let incumbent = AtomicU64::new(makespan);
            let prune = (!C::REFERENCE).then_some((&incumbent, prune_ctx));
            match self.pack_via_prefix(jobs, &order, prune, false, counters) {
                Some(state) if state.latest_end < makespan => {
                    self.retire_state(std::mem::replace(&mut best, state));
                }
                Some(state) => self.retire_state(state),
                None => {}
            }
        }
        best
    }
}

/// Full from-scratch search with engine `C`: builds a transient session
/// for the problem's skeleton jobs and packs its delta jobs once.
///
/// Feasibility is validated against the *original* job order. Problems
/// whose jobs interleave skeleton and delta entries are packed in the
/// session's canonical skeleton-first layout and the resulting entries
/// are mapped back to the original job indices, so the emitted schedule
/// always addresses `problem.jobs`.
pub(crate) fn run<C: PackEngine>(
    problem: &ScheduleProblem,
    effort: Effort,
) -> Result<Schedule, ScheduleError> {
    let w = problem.tam_width;
    for (i, job) in problem.jobs.iter().enumerate() {
        if job.staircase.min_width() > w {
            return Err(ScheduleError::JobTooWide {
                job: i,
                min_width: job.staircase.min_width(),
                tam_width: w,
            });
        }
    }
    if problem.jobs.is_empty() {
        return Ok(Schedule::from_parts(w, 0, Vec::new()));
    }

    let (skeleton_idx, delta_idx) = problem.phase_indices();
    let skeleton: Vec<TestJob> = skeleton_idx.iter().map(|&i| problem.jobs[i].clone()).collect();
    let delta: Vec<TestJob> = delta_idx.iter().map(|&i| problem.jobs[i].clone()).collect();

    let key = Arc::new(SessionKey::new(w, skeleton, effort));
    let schedule = SessionCore::<C>::new(key).pack(&delta, &SessionCounters::default())?;

    // Map combined session indices back to the problem's job indices.
    let combined_to_orig: Vec<usize> =
        skeleton_idx.iter().chain(delta_idx.iter()).copied().collect();
    if combined_to_orig.iter().enumerate().all(|(i, &o)| i == o) {
        return Ok(schedule);
    }
    let entries: Vec<ScheduledTest> = schedule
        .entries()
        .iter()
        .map(|e| ScheduledTest { job: combined_to_orig[e.job], ..*e })
        .collect();
    let mut remapped = Schedule::from_parts(w, schedule.makespan(), entries);
    remapped.sort_entries();
    Ok(remapped)
}
