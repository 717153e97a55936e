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
//! once into a [`PackState`] *anchor* (placed entries, group intervals,
//! the capacity index, and the prune accounting), and any pass whose
//! ordering starts with that prefix copies the anchor and continues from
//! there. The multi-start phase pairs per-phase orderings as
//! `skeleton ++ delta`, so its passes reuse full-skeleton anchors; a
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
//! # The delta-prefix trie: checkpoints as placement logs
//!
//! Candidates of a sharing sweep differ only in the serialization groups of
//! their delta jobs, and the phase-partitioned orderings enumerate the
//! delta jobs in a *candidate-independent* index order. Two candidates that
//! agree on the groups of their first `k` delta jobs (in that order)
//! therefore reach **bit-identical packing states** after those `k`
//! placements — greedy packing is deterministic, and the state after a
//! prefix depends only on the `(job index, job content)` sequence packed so
//! far. The session exploits this with a prefix *trie*: every step is keyed
//! by the interned `(combined job index, full job content)` pair, and the
//! phase orderings store a checkpoint after every delta step. A new
//! candidate restores the **longest common packed prefix** with any
//! earlier candidate instead of delta-packing from the bare skeleton.
//!
//! The trie has one layout in memory and in its export: a flat node arena
//! where each node holds its parent, its step, the placement that step
//! committed, its LRU tick and whether it is *stored* (a restore target),
//! plus one trie-wide `(parent, step) → child` map. Full states are kept
//! only as anchors at stored skeleton-only nodes. A restore picks the
//! deepest stored node on its path under the trie lock, together with the
//! nearest anchor above it and the logged placements in between; outside
//! the lock it copies the anchor (or starts empty when none survives) and
//! commits the logged placements without searching for them. Stored nodes
//! are LRU-evicted above a cap, and [`SessionStats`] exposes prefix
//! hit/depth/eviction counters.
//!
//! [`SessionStats`]: super::SessionStats
//!
//! The skyline path additionally runs its multi-start delta passes in
//! parallel and abandons passes whose area/width lower bound already
//! exceeds the incumbent; both are result-preserving (the reduction is a
//! deterministic `(makespan, order index)` min and the prune is strict),
//! so effort levels stay bit-for-bit deterministic. Skeleton anchors are
//! packed without pruning: an anchor is shared by every candidate of the
//! session, so it must not depend on any candidate's incumbent. Delta
//! steps *may* be stored from pruned passes — each is the deterministic
//! pack of its own prefix and stays valid even if the pass that placed it
//! is later abandoned.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::problem::{ScheduleProblem, TestJob};

use super::session::{SessionCounters, SessionKey};
use super::{Effort, Schedule, ScheduleError, ScheduledTest, XorShift64};

/// Default upper bound on stored checkpoints per session.
///
/// The canonical multi-start orderings stay far below this; the bound
/// exists because improvement rounds mint candidate-specific rip-up
/// prefixes and every candidate's delta path adds stored nodes for the
/// session's whole lifetime. A stored delta step is a logged placement of
/// about 80 bytes (node plus child-map entry); only skeleton-run
/// anchors hold a full state of a few KB. Structure is capped at four
/// nodes per checkpoint, so the cap bounds a session's trie at a few
/// hundred KB plus its anchors, without affecting results (an evicted
/// checkpoint is simply re-packed on its next use).
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
/// Cloning a `PackState` takes a skeleton anchor: the state reached after
/// packing a skeleton ordering is cached once, and every delta pack
/// continues on a copy of it plus the replayed placement log.
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
    /// of allocating fresh event vectors per pass.
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

    /// Commits a logged placement of `job` without searching for it: the
    /// replay half of a trie restore.
    fn commit(&mut self, job: &TestJob, placed: &ScheduledTest) {
        let p =
            Placement { width: placed.width, time: placed.end - placed.start, start: placed.start };
        self.place_job(placed.job, job, p);
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
/// result, only the time it takes. A pruned pack still leaves every step
/// it placed in `state`: each is the deterministic pack of its prefix.
fn pack_order<C: PackEngine>(
    jobs: &JobSet<'_>,
    tam_width: u32,
    state: &mut PackState<C>,
    order: &[usize],
    prune: Option<(&AtomicU64, &PruneCtx)>,
    scratch: &mut PassScratch,
) -> bool {
    let w = u64::from(tam_width.max(1));
    let mut remaining_min_area =
        prune.map_or(0, |(_, ctx)| order.iter().map(|&i| ctx.min_area[i]).sum());

    for &job_idx in order {
        let placement = state.best_placement(jobs, tam_width, job_idx, scratch);
        state.place(jobs, job_idx, placement);
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
/// Keying by the *pair* is what makes logged placements safe to share:
/// a logged [`ScheduledTest`] records a combined job index, so a log may
/// only be replayed for an order whose steps carry both the same content
/// (same placement decisions) *and* the same indices (same entry labels).
/// Skeleton steps intern to their index directly (the skeleton is fixed
/// per session); delta steps intern through the session's content
/// interner.
type StepId = u32;

/// Dense ids for delta-step keys: `(combined index, content) -> id`, ids
/// starting after the skeleton indices and counting up in insertion order.
///
/// The map holds each key's content *hash*, so a lookup borrows the content
/// and only an insert clones it. Different contents with equal hashes take
/// the next free hash value (linear probing; keys are never removed).
struct StepInterner {
    /// The first delta-step id: the session's skeleton length.
    base: StepId,
    /// `(combined index, probed content hash) -> id`.
    slots: HashMap<(u32, u64), StepId>,
    /// Interned keys in id order, from `base`.
    keys: Vec<(u32, TestJob)>,
    /// Randomly keyed, like the map's own hasher, so contents from a
    /// snapshot or the wire cannot be crafted into long probe chains.
    hasher: RandomState,
}

impl StepInterner {
    fn new(skeleton_len: usize) -> Self {
        StepInterner {
            base: skeleton_len as StepId,
            slots: HashMap::new(),
            keys: Vec::new(),
            hasher: RandomState::new(),
        }
    }

    /// The id of `(idx, job)`, interning it when new; `None` when it is new
    /// and the interner is full (see [`INTERNER_CAP`]).
    fn intern(&mut self, idx: u32, job: &TestJob) -> Option<StepId> {
        let mut hash = self.hasher.hash_one(job);
        while let Some(&id) = self.slots.get(&(idx, hash)) {
            if self.keys[(id - self.base) as usize].1 == *job {
                return Some(id);
            }
            hash = hash.wrapping_add(1);
        }
        if self.keys.len() >= INTERNER_CAP {
            return None;
        }
        let id = self.base + self.keys.len() as StepId;
        self.slots.insert((idx, hash), id);
        self.keys.push((idx, job.clone()));
        Some(id)
    }

    /// The `(combined index, content)` of an interned delta-step id.
    fn key(&self, id: StepId) -> Option<(u32, &TestJob)> {
        let (idx, job) = self.keys.get(id.checked_sub(self.base)? as usize)?;
        Some((*idx, job))
    }
}

/// One node of the prefix trie: the step that reaches it from its parent
/// and the placement that step committed. Every node carries its
/// placement, so the state after any path is recoverable by replaying the
/// log from an anchor (or from the empty state); only `stored` nodes are
/// restore targets.
struct TrieNode<C> {
    /// Parent node index (the root points at itself).
    parent: u32,
    /// The step from the parent.
    step: StepId,
    /// The placement this node's step committed.
    placed: ScheduledTest,
    /// LRU clock value of the last hit or store.
    last_used: u64,
    /// Whether the node is a restore target (counted against the cap).
    stored: bool,
    /// Full state, kept only at stored nodes whose whole path is
    /// skeleton steps: the shared skeleton runs every candidate restores.
    anchor: Option<Anchor<C>>,
}

/// A full state kept at a stored skeleton-only node. Shared so a restore
/// clones a pointer under the trie lock and copies the state outside it.
type Anchor<C> = Arc<PackState<C>>;

/// What a restore needs, taken under the trie lock and applied outside
/// it: the nearest anchor at or above the chosen node (or none: replay
/// from the empty state) and the logged placements below that anchor.
struct Restore<C> {
    /// Steps from the root to the restored node.
    depth: usize,
    anchor: Option<Anchor<C>>,
    log: Vec<ScheduledTest>,
}

impl<C: PackEngine> Restore<C> {
    /// Rebuilds the restored node's state into `state` (a reset state):
    /// copies the anchor and commits the logged placements, without
    /// [`PackState::best_placement`]'s search.
    fn apply(&self, state: &mut PackState<C>, jobs: &JobSet<'_>) {
        if let Some(anchor) = &self.anchor {
            state.copy_from(anchor);
        }
        for placed in &self.log {
            state.commit(jobs.get(placed.job), placed);
        }
    }
}

/// The delta-prefix trie: a flat node arena of logged placements plus one
/// trie-wide child map, with LRU eviction of stored nodes above `cap`.
struct PrefixTrie<C> {
    nodes: Vec<TrieNode<C>>,
    /// `(parent, step) -> child`.
    children: HashMap<(u32, StepId), u32>,
    /// Nodes currently stored.
    stored: usize,
    /// Monotonic LRU clock.
    tick: u64,
    cap: usize,
    evictions: u64,
}

impl<C> PrefixTrie<C> {
    const ROOT: usize = 0;

    fn new(cap: usize) -> Self {
        let root = TrieNode {
            parent: Self::ROOT as u32,
            step: 0,
            placed: ScheduledTest { job: 0, width: 0, start: 0, end: 0 },
            last_used: 0,
            stored: false,
            anchor: None,
        };
        PrefixTrie {
            nodes: vec![root],
            children: HashMap::new(),
            stored: 0,
            tick: 0,
            cap,
            evictions: 0,
        }
    }

    /// Structural nodes are bounded too: evicted nodes stay behind as
    /// structure, and unbounded rip-up paths would otherwise grow the arena
    /// for the session's lifetime. Beyond the bound, paths simply stop
    /// being extended (their prefixes are re-packed on next use).
    fn node_cap(&self) -> usize {
        self.cap.saturating_mul(4).max(64)
    }

    fn child(&self, node: usize, step: StepId) -> Option<usize> {
        self.children.get(&(node as u32, step)).map(|&c| c as usize)
    }

    /// Deepest stored node along `steps` and its depth; bumps its LRU
    /// tick.
    fn deepest_stored(&mut self, steps: &[StepId]) -> Option<(usize, usize)> {
        let mut node = Self::ROOT;
        let mut best = None;
        for (depth, &step) in steps.iter().enumerate() {
            let Some(child) = self.child(node, step) else { break };
            node = child;
            if self.nodes[node].stored {
                best = Some((node, depth + 1));
            }
        }
        let (best, depth) = best?;
        self.tick += 1;
        self.nodes[best].last_used = self.tick;
        Some((best, depth))
    }

    /// The restore of the deepest stored node along `steps` (see
    /// [`Restore`]); the state copy and replay happen outside the lock.
    fn restore(&mut self, steps: &[StepId]) -> Option<Restore<C>> {
        let (node, depth) = self.deepest_stored(steps)?;
        Some(self.restore_at(node, depth))
    }

    /// The restore of `node`, which sits `depth` steps below the root.
    fn restore_at(&self, mut node: usize, depth: usize) -> Restore<C> {
        let mut log = Vec::new();
        let anchor = loop {
            if let Some(anchor) = &self.nodes[node].anchor {
                break Some(Arc::clone(anchor));
            }
            if node == Self::ROOT {
                break None;
            }
            log.push(self.nodes[node].placed);
            node = self.nodes[node].parent as usize;
        };
        log.reverse();
        Restore { depth, anchor, log }
    }

    /// Stores a pass's checkpoints in one walk down `steps`: the node for
    /// `steps[..depth]` at the anchor's depth (with the anchor, the full
    /// state there, passed exactly when that prefix is skeleton-only) and
    /// then at every depth of `deltas`, which must all lie deeper. Creates
    /// structure as needed (subject to the node cap; `entries[i]` is the
    /// placement step `i` committed) and LRU-evicts above the cap. Never
    /// overwrites: the first store of a prefix is as good as any later one
    /// (packing is deterministic).
    ///
    /// Nodes are created and marked in the same order as one walk per depth
    /// would create and mark them, and the walk goes no deeper than the
    /// last depth stored, so the trie, its LRU ticks and its evictions do
    /// not depend on how a pass batches its stores.
    fn store(
        &mut self,
        steps: &[StepId],
        entries: &[ScheduledTest],
        anchor: Option<(usize, Anchor<C>)>,
        deltas: RangeInclusive<usize>,
    ) {
        let anchor = anchor.map(|(depth, anchor)| (depth, Some(anchor)));
        let marks = anchor.into_iter().chain(deltas.map(|depth| (depth, None)));
        let (mut node, mut depth) = (Self::ROOT, 0);
        for (target, anchor) in marks {
            if target == 0 {
                continue; // an empty prefix is a fresh state; nothing to cache
            }
            while depth < target {
                let Some(child) = self.child_or_insert(node, steps[depth], entries[depth]) else {
                    return;
                };
                node = child;
                depth += 1;
            }
            self.mark_stored(node, anchor);
        }
    }

    /// The child of `node` along `step`, created with its logged placement
    /// when missing; `None` once the node cap is reached.
    fn child_or_insert(
        &mut self,
        node: usize,
        step: StepId,
        placed: ScheduledTest,
    ) -> Option<usize> {
        if let Some(child) = self.child(node, step) {
            return Some(child);
        }
        if self.nodes.len() >= self.node_cap() {
            return None;
        }
        let child = self.nodes.len();
        self.nodes.push(TrieNode {
            parent: node as u32,
            step,
            placed,
            last_used: 0,
            stored: false,
            anchor: None,
        });
        self.children.insert((node as u32, step), child as u32);
        Some(child)
    }

    /// Makes `node` a restore target holding `anchor`, LRU-evicting first
    /// when the trie is at its cap; a node already stored is left as is.
    fn mark_stored(&mut self, node: usize, anchor: Option<Anchor<C>>) {
        if self.nodes[node].stored {
            return;
        }
        if self.stored >= self.cap {
            self.evict_lru_batch();
        }
        self.tick += 1;
        let target = &mut self.nodes[node];
        target.stored = true;
        target.anchor = anchor;
        target.last_used = self.tick;
        self.stored += 1;
    }

    /// Whether the trie can still grow structure. Saturated tries make
    /// callers skip the anchor clones they would otherwise hand to
    /// `store`.
    fn has_node_capacity(&self) -> bool {
        self.nodes.len() < self.node_cap()
    }

    /// Un-stores a batch of least-recently-used nodes, dropping their
    /// anchors (structure and logged placements stay).
    ///
    /// Eviction needs a scan over the node arena, which happens under the
    /// session's trie mutex; evicting a batch per scan amortizes that cost
    /// to ~1/batch per store, so a cap-saturated session does not
    /// serialize its parallel delta passes behind one full scan per
    /// store. Results never depend on which nodes stay stored.
    fn evict_lru_batch(&mut self) {
        let batch = (self.cap / 32).clamp(1, self.stored);
        let mut stored: Vec<(u64, usize)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.stored)
            .map(|(i, n)| (n.last_used, i))
            .collect();
        stored.sort_unstable();
        for &(_, i) in stored.iter().take(batch) {
            self.nodes[i].stored = false;
            self.nodes[i].anchor = None;
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
    /// Whether the node is a stored checkpoint (`false` nodes are
    /// structure on the path to a stored descendant).
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
    /// Stored checkpoints among the exported nodes.
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
    /// Stored checkpoints restored into the session's tries.
    pub restored: u64,
    /// Exported checkpoints dropped: their persisted placements did not
    /// equal the deterministic re-pack of their own prefix (or their step
    /// could not be interned / their trie layout was malformed).
    pub dropped: u64,
}

/// The engine-generic heart of a pack session (see the module docs).
///
/// Owns the skeleton jobs of a sweep plus the prefix trie of packed
/// checkpoints: skeleton-run anchors, plus per-step placement logs along
/// the phase orderings' delta paths so candidates sharing wrapper groups
/// restore their longest common packed prefix. The public
/// wrapper is [`crate::PackSession`]; from-scratch scheduling builds a
/// transient core per call.
pub(crate) struct SessionCore<C> {
    /// The session's immutable content (shared with its `PackSession`).
    key: Arc<SessionKey>,
    /// The checkpoint store. Anchors are `Arc`s so a restore clones a
    /// pointer and a short log under the lock and copies and replays
    /// outside it — concurrent delta passes must not serialize on a
    /// state memcpy inside the critical section.
    trie: Mutex<PrefixTrie<C>>,
    /// Dense ids for delta-step keys.
    interner: Mutex<StepInterner>,
    /// Recycled per-pass scratch buffers (candidate times, placement
    /// alternatives), checked out once per greedy pass.
    pass_scratch: Mutex<Vec<PassScratch>>,
    /// Retired pack states whose allocations (entry vectors, skyline
    /// event vectors) future passes reuse instead of re-allocating.
    retired_states: Mutex<Vec<PackState<C>>>,
}

/// Upper bound on recycled [`PackState`]s retained per session. Each
/// retired state holds an entry vector plus the skyline's event vectors
/// (a few KB on real SOCs); the cap keeps a long-lived service session's recycle pool
/// at worst-case a couple hundred KB while still covering the widest
/// realistic multi-start fan-out.
const RETIRED_STATE_CAP: usize = 32;

impl<C: PackEngine> SessionCore<C> {
    pub(crate) fn new(key: Arc<SessionKey>) -> Self {
        Self::with_checkpoint_cap(key, CHECKPOINT_CACHE_CAP)
    }

    pub(crate) fn with_checkpoint_cap(key: Arc<SessionKey>, cap: usize) -> Self {
        SessionCore {
            interner: Mutex::new(StepInterner::new(key.skeleton().len())),
            key,
            trie: Mutex::new(PrefixTrie::new(cap.max(1))),
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
            let Some(id) = interner.intern(idx as u32, jobs.get(idx)) else {
                break;
            };
            steps.push(id);
        }
        steps
    }

    /// Exports the trie's stored paths (see [`TrieExport`]).
    ///
    /// Only nodes on a path to a stored node are kept, emitted in
    /// deterministic pre-order: children are visited in ascending
    /// `(job index, job content)` order, a key intrinsic to the steps
    /// themselves (interner step ids depend on discovery order, which an
    /// import does not replay), so export → import → export is a fixed
    /// point and equal tries export equal byte-for-byte structures. Each
    /// node exports the placement it logged.
    pub(crate) fn export_trie(&self) -> TrieExport {
        let trie = self.trie.lock().expect("checkpoint trie lock");
        let interner = self.interner.lock().expect("step interner lock");
        let skeleton_len = self.key.skeleton().len();

        // Children always follow their parent in the arena, so one reverse
        // scan keeps every node on a path to a stored node and lists the
        // kept children of each.
        let n = trie.nodes.len();
        let mut keep: Vec<bool> = trie.nodes.iter().map(|node| node.stored).collect();
        let mut kids: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in (1..n).rev() {
            if keep[i] {
                let p = trie.nodes[i].parent as usize;
                keep[p] = true;
                kids[p].push(i);
            }
        }

        // LRU ranks over the stored nodes (ticks are unique, the index
        // tie-break is belt and braces).
        let mut stored_order: Vec<(u64, usize)> = trie
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| node.stored)
            .map(|(i, node)| (node.last_used, i))
            .collect();
        stored_order.sort_unstable();
        let mut lru_rank = vec![0u32; n];
        for (rank, &(_, i)) in stored_order.iter().enumerate() {
            lru_rank[i] = rank as u32;
        }

        let mut export = TrieExport::default();
        let mut content_ids: HashMap<&TestJob, u32> = HashMap::new();
        let step_key = |step: StepId| -> (u32, Option<&TestJob>) {
            if (step as usize) < skeleton_len {
                (step, None)
            } else {
                let (idx, job) = interner.key(step).expect("delta steps are interned");
                (idx, Some(job))
            }
        };
        for children in &mut kids {
            children.sort_unstable_by(|&a, &b| {
                let ((ja, ca), (jb, cb)) =
                    (step_key(trie.nodes[a].step), step_key(trie.nodes[b].step));
                ja.cmp(&jb).then_with(|| match (ca, cb) {
                    (None, None) => std::cmp::Ordering::Equal,
                    (None, Some(_)) => std::cmp::Ordering::Less,
                    (Some(_), None) => std::cmp::Ordering::Greater,
                    (Some(x), Some(y)) => content_order(x, y),
                })
            });
        }
        // Pre-order DFS from the root over kept nodes; the stack holds
        // `(trie node, exported parent index)`.
        let mut stack: Vec<(usize, Option<u32>)> = Vec::new();
        stack.extend(kids[PrefixTrie::<C>::ROOT].iter().rev().map(|&child| (child, None)));
        while let Some((i, parent_idx)) = stack.pop() {
            let node = &trie.nodes[i];
            let (job, content) = match step_key(node.step) {
                (idx, None) => (idx, None),
                (idx, Some(content_job)) => {
                    let cid = *content_ids.entry(content_job).or_insert_with(|| {
                        export.contents.push(content_job.clone());
                        (export.contents.len() - 1) as u32
                    });
                    (idx, Some(cid))
                }
            };
            debug_assert_eq!(node.placed.job, job as usize, "step/placement job mismatch");
            let me = export.nodes.len() as u32;
            export.nodes.push(CheckpointNode {
                parent: parent_idx,
                job,
                content,
                width: node.placed.width,
                start: node.placed.start,
                end: node.placed.end,
                stored: node.stored,
                lru: if node.stored { lru_rank[i] } else { 0 },
            });
            stack.extend(kids[i].iter().rev().map(|&child| (child, Some(me))));
        }
        export
    }

    /// Imports an exported trie, re-packing every step and verifying the
    /// recomputed placement against the persisted one; returns
    /// `(restored, dropped)` stored-node counts.
    ///
    /// A restored node's log is therefore *the deterministic pack of its
    /// own prefix by construction* — the importer never trusts persisted
    /// coordinates, it only uses them to detect disagreement. A node that
    /// fails verification (or references malformed structure) invalidates
    /// its whole subtree; each stored node lost that way counts as one
    /// drop. Re-packed states live only until their node's last child is
    /// verified (skeleton-only stored nodes keep theirs as anchors), and
    /// stored nodes are committed in exported LRU order, so the imported
    /// trie evicts in the same order the exporter would have.
    pub(crate) fn import_trie(&self, export: &TrieExport) -> (u64, u64) {
        let skeleton = self.key.skeleton();
        let tam_width = self.key.tam_width();
        let nodes = &export.nodes;
        // Parents precede their children, so one pass finds each node's
        // last child.
        let mut last_child: Vec<Option<usize>> = vec![None; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            if let Some(p) = node.parent.map(|p| p as usize).filter(|&p| p < i) {
                last_child[p] = Some(i);
            }
        }
        // `(step, placement, skeleton-only path)` per verified node.
        let mut verified: Vec<Option<(StepId, ScheduledTest, bool)>> =
            Vec::with_capacity(nodes.len());
        // Re-packed states of verified nodes whose last child is pending.
        let mut states: Vec<Option<PackState<C>>> = Vec::with_capacity(nodes.len());
        // `(lru rank, node, anchor)` of every verified stored node.
        let mut stores: Vec<(u32, usize, Option<Anchor<C>>)> = Vec::new();
        let mut dropped = 0u64;
        {
            let mut interner = self.interner.lock().expect("step interner lock");
            let mut scratch = PassScratch::default();
            // Step ids per `(job, content index)`, so each exported content
            // is hashed into the interner once, not once per node.
            let mut step_ids: HashMap<(u32, u32), Option<StepId>> = HashMap::new();
            for (i, node) in nodes.iter().enumerate() {
                let parent = node.parent.map(|p| p as usize);
                // The last child takes its parent's state, whatever its
                // own outcome: nothing else needs it.
                let inherited = parent
                    .filter(|&p| p < i && last_child[p] == Some(i))
                    .and_then(|p| states[p].take());
                let outcome = 'node: {
                    // A dead parent (malformed index, forward reference, or
                    // a dropped subtree) invalidates the node.
                    if parent.is_some_and(|p| p >= i || verified[p].is_none()) {
                        break 'node None;
                    }
                    let job = node.job as usize;
                    let (step, content) = if job < skeleton.len() {
                        // An over-wide job has no feasible placement at all
                        // — reject it here (a session built from corrupt
                        // bytes may carry one), the re-pack below assumes
                        // feasibility.
                        if node.content.is_some() || skeleton[job].staircase.min_width() > tam_width
                        {
                            break 'node None;
                        }
                        (node.job as StepId, &skeleton[job])
                    } else {
                        let Some(cid) = node.content else { break 'node None };
                        let content = export.contents.get(cid as usize);
                        let Some(content) =
                            content.filter(|c| c.staircase.min_width() <= tam_width)
                        else {
                            break 'node None;
                        };
                        let id = *step_ids
                            .entry((node.job, cid))
                            .or_insert_with(|| interner.intern(node.job, content));
                        let Some(id) = id else { break 'node None };
                        (id, content)
                    };
                    // Re-pack the step on the parent's state (inherited by
                    // its last child, copied for the others) and keep the
                    // node only if the deterministic placement agrees with
                    // the persisted one.
                    let mut state = match (inherited, parent) {
                        (Some(state), _) => state,
                        (None, Some(p)) => {
                            let mut state = self.take_state(skeleton.len());
                            state.copy_from(states[p].as_ref().expect("verified parent state"));
                            state
                        }
                        (None, None) => self.take_state(skeleton.len()),
                    };
                    let placement = state.best_placement_for(content, tam_width, &mut scratch);
                    let placed = state.place_job(job, content, placement);
                    let expected =
                        ScheduledTest { job, width: node.width, start: node.start, end: node.end };
                    if placed != expected {
                        self.retire_state(state);
                        break 'node None;
                    }
                    let skeleton_only = job < skeleton.len()
                        && parent.is_none_or(|p| verified[p].is_some_and(|v| v.2));
                    Some((step, placed, skeleton_only, state))
                };
                let Some((step, placed, skeleton_only, state)) = outcome else {
                    if node.stored {
                        dropped += 1;
                    }
                    verified.push(None);
                    states.push(None);
                    continue;
                };
                if node.stored {
                    let anchor = skeleton_only.then(|| Arc::new(state.clone()));
                    stores.push((node.lru, i, anchor));
                }
                verified.push(Some((step, placed, skeleton_only)));
                if last_child[i].is_some() {
                    states.push(Some(state));
                } else {
                    self.retire_state(state);
                    states.push(None);
                }
            }
        }
        stores.sort_unstable_by_key(|&(lru, i, _)| (lru, i));
        let restored = stores.len() as u64;
        if restored > 0 {
            // Commits each stored node as a `store` of its full path would,
            // in the same order, but creates only the suffix of its path
            // that no earlier commit reached: `arena[i]` is the trie node of
            // export node `i` once a commit has walked it.
            let mut trie = self.trie.lock().expect("checkpoint trie lock");
            let mut arena: Vec<Option<usize>> = vec![None; nodes.len()];
            let mut pending = Vec::new();
            'stores: for (_, i, anchor) in stores {
                pending.clear();
                let mut cursor = Some(i);
                let mut node = PrefixTrie::<C>::ROOT;
                while let Some(n) = cursor {
                    if let Some(known) = arena[n] {
                        node = known;
                        break;
                    }
                    pending.push(n);
                    cursor = nodes[n].parent.map(|p| p as usize);
                }
                for &n in pending.iter().rev() {
                    let (step, placed, _) =
                        verified[n].expect("verified nodes have verified parents");
                    let Some(child) = trie.child_or_insert(node, step, placed) else {
                        continue 'stores;
                    };
                    arena[n] = Some(child);
                    node = child;
                }
                trie.mark_stored(node, anchor);
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
                let full_depth = trie.deepest_stored(&steps).is_some_and(|(_, d)| d == order.len());
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
                pack_order(&jobs, self.key.tam_width(), &mut state, order, None, scratch);
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
            // The full skeleton order's anchor, and no delta depths.
            let anchor = Some((steps.len(), Arc::clone(&state)));
            trie.store(&steps, &state.entries, anchor, RangeInclusive::new(1, 0));
        }
        counters.evictions.store(trie.evictions, Ordering::Relaxed);
    }

    /// Packs one full ordering, restoring the deepest stored prefix from
    /// the trie and packing the remainder as a continuation.
    ///
    /// The leading skeleton-only run is packed without pruning (its
    /// anchor is shared across candidates and must not depend on any
    /// incumbent) and its endpoint is always stored, with the full state
    /// as the anchor. With `snapshot_deltas`, every further placed step is
    /// stored too, as the logged placement alone — the phase-partitioned
    /// orderings pass this, which is what populates the cross-candidate
    /// delta-prefix paths. Steps placed before a prune abandons the pass
    /// are stored as well: each is the deterministic pack of its own
    /// prefix, valid regardless of how the minting pass ends. Returns
    /// `None` when the continuation is abandoned by the prune.
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
            (trie.restore(&steps), trie.has_node_capacity())
        };
        // Recycle a retired state's allocations for this pass; a restore
        // copies its anchor into the recycled buffers instead of cloning
        // a fresh arena, then replays the logged placements.
        let mut state = self.take_state(jobs.len());
        let start = match restored {
            Some(restore) => {
                restore.apply(&mut state, jobs);
                restore.depth
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

        let (completed, anchor) = self.with_pass_scratch(|scratch| {
            let mut anchor = None;
            if start < run {
                pack_order(
                    jobs,
                    self.key.tam_width(),
                    &mut state,
                    &order[start..run],
                    None,
                    scratch,
                );
                if can_store {
                    anchor = Some(Arc::new(state.clone()));
                }
            }
            // The tail beyond the restored prefix and the skeleton run,
            // pruned when requested.
            let tail_from = start.max(run);
            let completed = pack_order(
                jobs,
                self.key.tam_width(),
                &mut state,
                &order[tail_from..],
                prune,
                scratch,
            );
            (completed, anchor)
        });
        if !completed {
            counters.pruned_passes.fetch_add(1, Ordering::Relaxed);
        }
        // Stored delta depths: every placed, cacheable step past the
        // restore and the run, short of the full order (only while the
        // trie can still accept new paths).
        let last_delta_depth = if snapshot_deltas && can_store {
            steps.len().min(order.len().saturating_sub(1)).min(state.entries.len())
        } else {
            0
        };
        let delta_depths = start.max(run) + 1..=last_delta_depth;
        if anchor.is_some() || !delta_depths.is_empty() {
            let mut trie = self.trie.lock().expect("checkpoint trie lock");
            trie.store(&steps, &state.entries, anchor.map(|a| (run, a)), delta_depths);
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

#[cfg(test)]
mod tests {
    use super::super::naive::NaiveIndex;
    use super::super::skyline::SkylineIndex;
    use super::*;
    use msoc_itc02::synth::{random_soc, RandomSocParams};
    use msoc_wrapper::{Staircase, StaircasePoint};

    impl<C: PackEngine> SessionCore<C> {
        /// Replays every stored node of the trie and compares it with a
        /// fresh pack of its prefix; asserts that full states sit only at
        /// stored skeleton-only nodes. Returns `(stored nodes, stored
        /// nodes whose restore replays from the root)`.
        fn check_stored_nodes(&self) -> (usize, usize) {
            let trie = self.trie.lock().expect("checkpoint trie lock");
            let interner = self.interner.lock().expect("step interner lock");
            let skeleton = self.key.skeleton();
            let step_job = |step: StepId| match interner.key(step) {
                Some((idx, job)) => (idx as usize, job),
                None => (step as usize, &skeleton[step as usize]),
            };
            let (mut stored, mut from_root) = (0, 0);
            for (i, node) in trie.nodes.iter().enumerate().skip(1) {
                let mut path = Vec::new();
                let mut n = i;
                while n != PrefixTrie::<C>::ROOT {
                    path.push(trie.nodes[n].step);
                    n = trie.nodes[n].parent as usize;
                }
                path.reverse();
                let skeleton_only = path.iter().all(|&step| (step as usize) < skeleton.len());
                assert_eq!(
                    node.anchor.is_some(),
                    node.stored && skeleton_only,
                    "full states sit exactly at stored skeleton-only nodes"
                );
                if !node.stored {
                    continue;
                }
                stored += 1;
                let restore = trie.restore_at(i, path.len());
                if restore.anchor.is_none() {
                    from_root += 1;
                }
                // The delta slots this path uses; the rest are never read.
                let mut delta: Vec<TestJob> = Vec::new();
                for &step in &path {
                    let (idx, job) = step_job(step);
                    if idx >= skeleton.len() {
                        let slot = idx - skeleton.len();
                        if delta.len() <= slot {
                            delta.resize(slot + 1, job.clone());
                        }
                        delta[slot] = job.clone();
                    }
                }
                let jobs = JobSet { skeleton, delta: &delta };
                let mut replayed = PackState::<C>::new(path.len());
                restore.apply(&mut replayed, &jobs);
                let mut fresh = PackState::<C>::new(path.len());
                let mut scratch = PassScratch::default();
                for &step in &path {
                    let (idx, job) = step_job(step);
                    let p = fresh.best_placement_for(job, self.key.tam_width(), &mut scratch);
                    fresh.place_job(idx, job, p);
                }
                assert_eq!(replayed.entries, fresh.entries, "replayed entries at node {i}");
                assert_eq!(replayed.latest_end, fresh.latest_end, "latest end at node {i}");
                assert_eq!(replayed.placed_area, fresh.placed_area, "placed area at node {i}");
            }
            (stored, from_root)
        }
    }

    /// The trie an import of `export` into `core` commits, built the
    /// reference way: one store of each stored node's full path, in
    /// exported LRU order, and without anchors. Every node must verify, and
    /// `core` must have imported `export` already (so its interner holds
    /// every step).
    fn reference_import<C: PackEngine>(
        core: &SessionCore<C>,
        export: &TrieExport,
    ) -> PrefixTrie<C> {
        let mut interner = core.interner.lock().expect("step interner lock");
        let mut trie = PrefixTrie::new(core.trie.lock().expect("checkpoint trie lock").cap);
        let mut stored: Vec<(u32, usize)> = export
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.stored)
            .map(|(i, n)| (n.lru, i))
            .collect();
        stored.sort_unstable();
        for (_, i) in stored {
            let (mut steps, mut entries) = (Vec::new(), Vec::new());
            let mut cursor = Some(i);
            while let Some(n) = cursor {
                let node = &export.nodes[n];
                steps.push(match node.content {
                    None => node.job,
                    Some(cid) => {
                        let content = &export.contents[cid as usize];
                        interner.intern(node.job, content).expect("interned by the import")
                    }
                });
                let (job, width) = (node.job as usize, node.width);
                entries.push(ScheduledTest { job, width, start: node.start, end: node.end });
                cursor = node.parent.map(|p| p as usize);
            }
            steps.reverse();
            entries.reverse();
            trie.store_depth(&steps, steps.len(), &entries, None);
        }
        trie
    }

    /// A random sweep: a synthetic digital skeleton, a TAM width, and
    /// wrapper-sharing candidates that share their analog jobs and differ
    /// only in how those jobs group.
    fn random_sweep(seed: u64) -> (Vec<TestJob>, u32, Vec<Vec<TestJob>>) {
        let mut rng = XorShift64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut below = |n: u64| rng.next_u64() % n;
        let params = RandomSocParams {
            cores: 3 + below(4) as usize,
            chains: (1, 6),
            chain_len: (10, 120),
            patterns: (5, 60),
            terminals: (2, 40),
        };
        let width = 6 + below(12) as u32;
        let soc = random_soc(seed, params);
        let skeleton = crate::ScheduleProblem::from_soc(&soc, width).jobs;
        let analog: Vec<Staircase> = (0..2 + below(4))
            .map(|_| {
                let (w, t) = (1 + below(2) as u32, 200 + below(4000));
                let mut points = vec![StaircasePoint { width: w, time: t }];
                if below(2) == 0 {
                    points.push(StaircasePoint { width: w + 1 + below(2) as u32, time: t / 2 });
                }
                Staircase::from_points(points)
            })
            .collect();
        let candidates = (0..3 + below(4))
            .map(|_| {
                analog
                    .iter()
                    .enumerate()
                    .map(|(i, stairs)| {
                        TestJob::delta_in_group(format!("a{i}"), stairs.clone(), below(3) as u32)
                    })
                    .collect()
            })
            .collect();
        (skeleton, width, candidates)
    }

    /// Packs every candidate of `seed`'s sweep through one session with
    /// engine `C` and checkpoint cap `cap`, checking each pack against a
    /// from-scratch pack and every stored node after each pack, then the
    /// trie's export → import round trip. Returns the schedules and the
    /// replays from the root seen.
    fn sweep_with<C: PackEngine>(seed: u64, effort: Effort, cap: usize) -> (Vec<Schedule>, usize) {
        let (skeleton, width, candidates) = random_sweep(seed);
        let key = Arc::new(SessionKey::new(width, skeleton, effort));
        let core = SessionCore::<C>::with_checkpoint_cap(Arc::clone(&key), cap);
        let counters = SessionCounters::default();
        let mut schedules = Vec::new();
        let mut from_root = 0;
        for round in 0..2 {
            for delta in &candidates {
                let packed = core.pack(delta, &counters).expect("feasible");
                let scratch = run::<C>(&key.problem_for(delta), effort).expect("feasible");
                assert_eq!(
                    packed, scratch,
                    "seed {seed} cap {cap} round {round}: session diverged"
                );
                let (stored, root_replays) = core.check_stored_nodes();
                assert!(stored <= cap, "seed {seed}: {stored} stored nodes above cap {cap}");
                from_root += root_replays;
                schedules.push(packed);
            }
        }
        // The trie survives export → import: nothing is dropped, the
        // imported nodes replay like the originals, and a second export
        // is byte for byte the first.
        let export = core.export_trie();
        let imported = SessionCore::<C>::with_checkpoint_cap(Arc::clone(&key), cap);
        let (restored, dropped) = imported.import_trie(&export);
        assert_eq!((restored as usize, dropped), (export.checkpoint_count(), 0), "seed {seed}");
        imported.check_stored_nodes();
        assert_eq!(imported.export_trie(), export, "seed {seed} cap {cap}: no fixed point");
        // Into a session with a smaller cap (and so a smaller node cap), the
        // import commits what one store per stored node's full path would.
        let small = SessionCore::<C>::with_checkpoint_cap(key, 1);
        small.import_trie(&export);
        let committed = small.trie.lock().expect("checkpoint trie lock").layout();
        let reference = reference_import(&small, &export).layout();
        let unanchored = |(nodes, counts, children): Layout| {
            let nodes: Vec<_> =
                nodes.into_iter().map(|(p, s, e, t, st, _)| (p, s, e, t, st)).collect();
            (nodes, counts, children)
        };
        assert_eq!(unanchored(committed), unanchored(reference), "seed {seed} cap {cap}");
        (schedules, from_root)
    }

    /// Two contents whose hashes collide get distinct ids, and each keeps
    /// its own id on later lookups.
    #[test]
    fn interner_probes_past_hash_collisions() {
        let job = |label: &str| {
            let stairs = Staircase::from_points(vec![StaircasePoint { width: 1, time: 10 }]);
            TestJob::delta_in_group(label, stairs, 0)
        };
        let (a, b) = (job("a"), job("b"));
        let mut interner = StepInterner::new(5);
        assert_eq!(interner.intern(7, &a), Some(5));
        // Make `b`'s hash slot point at `a`, as a collision would.
        let hash_b = interner.hasher.hash_one(&b);
        interner.slots.insert((7, hash_b), 5);
        assert_eq!(interner.intern(7, &b), Some(6));
        assert_eq!(interner.intern(7, &b), Some(6));
        assert_eq!(interner.intern(7, &a), Some(5));
        assert_eq!(interner.intern(8, &a), Some(7), "the index is part of the key");
        assert_eq!(interner.key(6), Some((7, &b)));
        assert_eq!(interner.key(4), None, "skeleton ids are not interned");
    }

    /// Per node `(parent, step, placed, last_used, stored, anchor address)`,
    /// then `[stored, tick, evictions]` and the child-map size.
    type Layout = (Vec<(u32, StepId, ScheduledTest, u64, bool, Option<usize>)>, [u64; 3], usize);

    impl<C> PrefixTrie<C> {
        /// The reference store: one walk from the root per stored depth.
        fn store_depth(
            &mut self,
            steps: &[StepId],
            depth: usize,
            entries: &[ScheduledTest],
            anchor: Option<Anchor<C>>,
        ) {
            if depth == 0 {
                return;
            }
            let mut node = Self::ROOT;
            for (i, &step) in steps[..depth].iter().enumerate() {
                if let Some(child) = self.child(node, step) {
                    node = child;
                    continue;
                }
                if self.nodes.len() >= self.node_cap() {
                    return;
                }
                let child = self.nodes.len();
                self.nodes.push(TrieNode {
                    parent: node as u32,
                    step,
                    placed: entries[i],
                    last_used: 0,
                    stored: false,
                    anchor: None,
                });
                self.children.insert((node as u32, step), child as u32);
                node = child;
            }
            if self.nodes[node].stored {
                return;
            }
            if self.stored >= self.cap {
                self.evict_lru_batch();
            }
            self.tick += 1;
            let target = &mut self.nodes[node];
            target.stored = true;
            target.anchor = anchor;
            target.last_used = self.tick;
            self.stored += 1;
        }

        /// Everything a trie's behaviour depends on, anchors by identity.
        fn layout(&self) -> Layout {
            let nodes = self
                .nodes
                .iter()
                .map(|n| {
                    let anchor = n.anchor.as_ref().map(|a| Arc::as_ptr(a) as usize);
                    (n.parent, n.step, n.placed, n.last_used, n.stored, anchor)
                })
                .collect();
            (nodes, [self.stored as u64, self.tick, self.evictions], self.children.len())
        }
    }

    /// The one-walk store builds the same trie as one walk per stored
    /// depth, through node-cap and stored-cap saturation, including passes
    /// whose delta range is empty.
    #[test]
    fn one_walk_store_matches_per_depth_stores() {
        let mut rng = XorShift64::new(0x0ea1_57e5);
        let mut saturated = (false, false);
        for round in 0..60 {
            let mut below = |n: u64| rng.next_u64() % n;
            let cap = 1 + below(24) as usize;
            let mut batched = PrefixTrie::<SkylineIndex>::new(cap);
            let mut reference = PrefixTrie::<SkylineIndex>::new(cap);
            for pass in 0..200u64 {
                // Few distinct steps per position, so paths share prefixes.
                let len = 1 + below(12) as usize;
                let steps: Vec<StepId> = (0..len).map(|_| below(3) as StepId).collect();
                let entries: Vec<ScheduledTest> = (0..len)
                    .map(|i| ScheduledTest { job: i, width: 1, start: pass, end: pass + 1 })
                    .collect();
                if below(4) == 0 {
                    // A restore between passes reorders the LRU ticks.
                    let probe: Vec<StepId> = (0..len).map(|_| below(3) as StepId).collect();
                    assert_eq!(batched.deepest_stored(&probe), reference.deepest_stored(&probe));
                }
                let run = below(len as u64 + 1) as usize;
                let anchor =
                    (run > 0 && below(2) == 0).then(|| Arc::new(PackState::<SkylineIndex>::new(0)));
                // Delta depths start past the run (or a restored depth) and
                // end anywhere from before their start to the full path.
                let first = run.max(below(len as u64 + 1) as usize) + 1;
                let last = if below(3) == 0 { first - 1 } else { below(len as u64 + 1) as usize };
                if let Some(anchor) = &anchor {
                    reference.store_depth(&steps, run, &entries, Some(Arc::clone(anchor)));
                }
                for depth in first..=last {
                    reference.store_depth(&steps, depth, &entries, None);
                }
                batched.store(&steps, &entries, anchor.map(|a| (run, a)), first..=last);
                assert_eq!(batched.layout(), reference.layout(), "round {round} pass {pass}");
            }
            saturated.0 |= !batched.has_node_capacity();
            saturated.1 |= batched.evictions > 0;
        }
        assert_eq!(saturated, (true, true), "the node cap and the stored cap must both saturate");
    }

    #[test]
    fn random_sweeps_replay_placement_logs_bit_identically() {
        let mut root_replays = 0;
        for seed in 0..10u64 {
            let effort = if seed % 2 == 0 { Effort::Quick } else { Effort::Standard };
            for cap in [CHECKPOINT_CACHE_CAP, 2] {
                let (fast, fast_root) = sweep_with::<SkylineIndex>(seed, effort, cap);
                let (reference, _) = sweep_with::<NaiveIndex>(seed, effort, cap);
                assert_eq!(fast, reference, "seed {seed} cap {cap}: engines diverged");
                if cap == 2 {
                    root_replays += fast_root;
                }
            }
        }
        assert!(root_replays > 0, "cap 2 must evict anchors and replay logs from the root");
    }
}
