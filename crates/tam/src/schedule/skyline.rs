//! The event-based capacity skyline.
//!
//! The packer's hot query is "what is the peak TAM usage over the window
//! `[t, t + d)`?", asked once per candidate start per staircase point per
//! job. The naive packer answers it by scanning (and sorting) every placed
//! entry — O(n log n) per query. This module maintains the capacity
//! profile incrementally instead: a piecewise-constant *skyline* of
//! coordinate-compressed capacity events, stored in a treap keyed by event
//! time, where every node carries
//!
//! * `usage` — wires in use on the segment starting at its event time,
//! * `max_usage` — the maximum `usage` over its subtree, and
//! * `add` — a lazy pending addition for its subtree (range placement).
//!
//! Placing a `w × d` rectangle is a ranged `+w` over `[start, end)`
//! (two point insertions plus an O(log n) expected range update), and a
//! window-peak query is an O(log n) expected range-max descent. Treap
//! priorities come from a deterministic xorshift stream, so schedules are
//! reproducible run to run.
//!
//! # Checkpoint / restore
//!
//! The treap is stored as an index-linked arena (`Vec<Node>` plus a root
//! index), so the whole profile — including the deterministic priority
//! stream — is checkpointed by a plain [`Clone`] and restored by cloning
//! the checkpoint back. [`crate::PackSession`] exploits this: the skeleton
//! jobs of a sweep are packed once per ordering and every candidate
//! configuration delta-packs on a restored snapshot, with the clone cost
//! proportional to the number of capacity events (two per placed job), not
//! to the work of re-packing.

use super::search::PackEngine;
use super::{ScheduledTest, XorShift64};

const NIL: u32 = u32::MAX;

/// Seed of the deterministic treap-priority stream. [`Skyline::reset`]
/// must restart the stream from this exact seed so a recycled arena packs
/// bit-identically to a fresh one.
const PRIO_SEED: u64 = 0x243f_6a88_85a3_08d3;

#[derive(Debug, Clone)]
struct Node {
    /// Event time: this node's segment covers `[time, next event time)`.
    time: u64,
    /// Wires in use on the segment (lazy adds from ancestors excluded).
    usage: u32,
    /// Max `usage` over this subtree (lazy adds from ancestors excluded).
    max_usage: u32,
    /// Pending addition to every segment strictly below this node.
    add: u32,
    /// Treap heap priority.
    prio: u64,
    left: u32,
    right: u32,
}

/// Incremental capacity profile over time (see the module docs).
///
/// `Clone` is the checkpoint operation: the arena layout makes a snapshot
/// a flat memcpy of the node vector.
#[derive(Debug, Clone)]
pub(crate) struct Skyline {
    nodes: Vec<Node>,
    root: u32,
    /// Deterministic treap priorities keep rebuilt schedules identical
    /// across runs.
    prio_rng: XorShift64,
}

impl Skyline {
    /// An empty profile: zero usage everywhere.
    pub(crate) fn new() -> Self {
        let mut s = Skyline {
            nodes: Vec::with_capacity(64),
            root: NIL,
            prio_rng: XorShift64::new(PRIO_SEED),
        };
        s.root = s.alloc(0, 0);
        s
    }

    /// Clears back to the empty profile, keeping the node arena's
    /// allocation. The priority stream restarts from the fixed seed, so a
    /// reset skyline is indistinguishable from [`Skyline::new`].
    pub(crate) fn reset(&mut self) {
        self.nodes.clear();
        self.prio_rng = XorShift64::new(PRIO_SEED);
        self.root = self.alloc(0, 0);
    }

    /// Allocation-reusing checkpoint restore: `clone_from` semantics over
    /// the arena, so a restore into a recycled skyline is a memcpy into
    /// the existing buffer instead of a fresh allocation.
    pub(crate) fn copy_from(&mut self, other: &Self) {
        self.nodes.clone_from(&other.nodes);
        self.root = other.root;
        self.prio_rng = other.prio_rng.clone();
    }

    fn alloc(&mut self, time: u64, usage: u32) -> u32 {
        let prio = self.prio_rng.next_u64();
        let idx = u32::try_from(self.nodes.len()).expect("skyline node count fits u32");
        self.nodes.push(Node {
            time,
            usage,
            max_usage: usage,
            add: 0,
            prio,
            left: NIL,
            right: NIL,
        });
        idx
    }

    fn apply(&mut self, idx: u32, v: u32) {
        if idx == NIL {
            return;
        }
        let n = &mut self.nodes[idx as usize];
        n.usage += v;
        n.max_usage += v;
        n.add += v;
    }

    fn push_down(&mut self, idx: u32) {
        let pending = std::mem::take(&mut self.nodes[idx as usize].add);
        if pending != 0 {
            let (l, r) = {
                let n = &self.nodes[idx as usize];
                (n.left, n.right)
            };
            self.apply(l, pending);
            self.apply(r, pending);
        }
    }

    fn pull_up(&mut self, idx: u32) {
        let (l, r, usage) = {
            let n = &self.nodes[idx as usize];
            (n.left, n.right, n.usage)
        };
        let mut m = usage;
        if l != NIL {
            m = m.max(self.nodes[l as usize].max_usage);
        }
        if r != NIL {
            m = m.max(self.nodes[r as usize].max_usage);
        }
        self.nodes[idx as usize].max_usage = m;
    }

    /// Splits by key: left treap holds `time < key`, right holds `time >= key`.
    fn split(&mut self, idx: u32, key: u64) -> (u32, u32) {
        if idx == NIL {
            return (NIL, NIL);
        }
        self.push_down(idx);
        if self.nodes[idx as usize].time < key {
            let right = self.nodes[idx as usize].right;
            let (a, b) = self.split(right, key);
            self.nodes[idx as usize].right = a;
            self.pull_up(idx);
            (idx, b)
        } else {
            let left = self.nodes[idx as usize].left;
            let (a, b) = self.split(left, key);
            self.nodes[idx as usize].left = b;
            self.pull_up(idx);
            (a, idx)
        }
    }

    /// Joins two treaps where every key in `a` precedes every key in `b`.
    fn join(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.nodes[a as usize].prio > self.nodes[b as usize].prio {
            self.push_down(a);
            let joined = self.join(self.nodes[a as usize].right, b);
            self.nodes[a as usize].right = joined;
            self.pull_up(a);
            a
        } else {
            self.push_down(b);
            let joined = self.join(a, self.nodes[b as usize].left);
            self.nodes[b as usize].left = joined;
            self.pull_up(b);
            b
        }
    }

    /// Usage of the segment containing `t` (the floor event's usage).
    pub(crate) fn usage_at(&self, t: u64) -> u32 {
        let mut idx = self.root;
        let mut acc = 0u32;
        let mut found = 0u32;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            if n.time <= t {
                found = n.usage + acc;
                acc += n.add;
                idx = n.right;
            } else {
                acc += n.add;
                idx = n.left;
            }
        }
        found
    }

    /// Peak usage over the window `[from, to)`.
    ///
    /// The peak is the larger of the segment already covering `from` and
    /// every event segment starting inside the window — an O(log n)
    /// expected descent, never a scan over placed entries.
    pub(crate) fn peak(&self, from: u64, to: u64) -> u32 {
        let base = self.usage_at(from);
        if to <= from.saturating_add(1) {
            return base;
        }
        base.max(self.range_max(self.root, from + 1, to, 0))
    }

    /// Max usage over event nodes with `lo <= time < hi`.
    fn range_max(&self, idx: u32, lo: u64, hi: u64, acc: u32) -> u32 {
        if idx == NIL {
            return 0;
        }
        let n = &self.nodes[idx as usize];
        if n.time < lo {
            return self.range_max(n.right, lo, hi, acc + n.add);
        }
        if n.time >= hi {
            return self.range_max(n.left, lo, hi, acc + n.add);
        }
        let mut m = n.usage + acc;
        m = m.max(self.suffix_max(n.left, lo, acc + n.add));
        m.max(self.prefix_max(n.right, hi, acc + n.add))
    }

    /// Max usage over nodes with `time >= lo`.
    fn suffix_max(&self, idx: u32, lo: u64, acc: u32) -> u32 {
        if idx == NIL {
            return 0;
        }
        let n = &self.nodes[idx as usize];
        if n.time < lo {
            return self.suffix_max(n.right, lo, acc + n.add);
        }
        let mut m = n.usage + acc;
        if n.right != NIL {
            m = m.max(self.nodes[n.right as usize].max_usage + acc + n.add);
        }
        m.max(self.suffix_max(n.left, lo, acc + n.add))
    }

    /// Max usage over nodes with `time < hi`.
    fn prefix_max(&self, idx: u32, hi: u64, acc: u32) -> u32 {
        if idx == NIL {
            return 0;
        }
        let n = &self.nodes[idx as usize];
        if n.time >= hi {
            return self.prefix_max(n.left, hi, acc + n.add);
        }
        let mut m = n.usage + acc;
        if n.left != NIL {
            m = m.max(self.nodes[n.left as usize].max_usage + acc + n.add);
        }
        m.max(self.prefix_max(n.right, hi, acc + n.add))
    }

    /// Ensures an event node exists at exactly `t`.
    fn ensure_event(&mut self, t: u64) {
        // Exact-match probe, accumulating nothing: key comparisons only.
        let mut idx = self.root;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            match t.cmp(&n.time) {
                std::cmp::Ordering::Equal => return,
                std::cmp::Ordering::Less => idx = n.left,
                std::cmp::Ordering::Greater => idx = n.right,
            }
        }
        let usage = self.usage_at(t);
        let fresh = self.alloc(t, usage);
        let (l, r) = self.split(self.root, t);
        let lf = self.join(l, fresh);
        self.root = self.join(lf, r);
    }

    /// Adds `width` wires over `[from, to)` (a placed rectangle).
    pub(crate) fn add(&mut self, from: u64, to: u64, width: u32) {
        if from >= to || width == 0 {
            return;
        }
        self.ensure_event(from);
        self.ensure_event(to);
        let (left, mid_right) = self.split(self.root, from);
        let (mid, right) = self.split(mid_right, to);
        self.apply(mid, width);
        let lm = self.join(left, mid);
        self.root = self.join(lm, right);
    }
}

/// [`PackEngine`] backed by a [`Skyline`] plus a sorted candidate-start
/// list (0 and every placed end), replacing the naive packer's per-query
/// rebuild-sort-scan with O(log n) incremental queries. Cloning snapshots
/// both the event treap and the candidate-start list (checkpoint/restore).
#[derive(Debug, Clone)]
pub(crate) struct SkylineIndex {
    skyline: Skyline,
    /// Sorted, deduplicated candidate starts: 0 plus every placed end.
    starts: Vec<u64>,
}

impl PackEngine for SkylineIndex {
    fn new() -> Self {
        SkylineIndex { skyline: Skyline::new(), starts: vec![0] }
    }

    fn reset(&mut self) {
        self.skyline.reset();
        self.starts.clear();
        self.starts.push(0);
    }

    fn copy_from(&mut self, other: &Self) {
        self.skyline.copy_from(&other.skyline);
        self.starts.clone_from(&other.starts);
    }

    fn place_start(
        &self,
        _entries: &[ScheduledTest],
        tam_width: u32,
        width: u32,
        time: u64,
        forbidden: &[(u64, u64)],
        scratch: &mut Vec<u64>,
    ) -> u64 {
        if time == 0 {
            // A zero-duration rectangle occupies no wires and overlaps no
            // interval; the reference engine's zero-window scan always
            // accepts t = 0, so match it exactly.
            return 0;
        }
        let forbidden_ends = scratch;
        forbidden_ends.clear();
        forbidden_ends.extend(forbidden.iter().map(|&(_, e)| e));
        forbidden_ends.sort_unstable();

        // Merge the two sorted candidate streams, ascending and deduped.
        let mut i = 0;
        let mut j = 0;
        let mut last: Option<u64> = None;
        'candidate: loop {
            let t = match (self.starts.get(i), forbidden_ends.get(j)) {
                (Some(&a), Some(&b)) if a <= b => {
                    i += 1;
                    a
                }
                (_, Some(&b)) => {
                    j += 1;
                    b
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (None, None) => unreachable!("a start after every placement is always feasible"),
            };
            if last == Some(t) {
                continue;
            }
            last = Some(t);
            let end = t + time;
            for &(fs, fe) in forbidden {
                if t < fe && fs < end {
                    continue 'candidate;
                }
            }
            if self.skyline.peak(t, end) + width <= tam_width {
                return t;
            }
        }
    }

    fn on_place(&mut self, placed: &ScheduledTest) {
        self.skyline.add(placed.start, placed.end, placed.width);
        if let Err(pos) = self.starts.binary_search(&placed.end) {
            self.starts.insert(pos, placed.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference profile for differential testing.
    #[derive(Default)]
    struct Reference {
        rects: Vec<(u64, u64, u32)>,
    }

    impl Reference {
        fn add(&mut self, from: u64, to: u64, w: u32) {
            self.rects.push((from, to, w));
        }

        fn usage_at(&self, t: u64) -> u32 {
            self.rects.iter().filter(|&&(s, e, _)| s <= t && t < e).map(|&(_, _, w)| w).sum()
        }

        fn peak(&self, from: u64, to: u64) -> u32 {
            // Only event times matter on a piecewise-constant profile.
            let mut times: Vec<u64> = vec![from];
            times.extend(
                self.rects.iter().flat_map(|&(s, e, _)| [s, e]).filter(|&t| t > from && t < to),
            );
            times.into_iter().map(|t| self.usage_at(t)).max().unwrap_or(0)
        }
    }

    #[test]
    fn empty_skyline_is_zero_everywhere() {
        let s = Skyline::new();
        assert_eq!(s.usage_at(0), 0);
        assert_eq!(s.usage_at(1_000_000), 0);
        assert_eq!(s.peak(0, u64::MAX / 2), 0);
    }

    #[test]
    fn single_rectangle_profile() {
        let mut s = Skyline::new();
        s.add(10, 20, 3);
        assert_eq!(s.usage_at(9), 0);
        assert_eq!(s.usage_at(10), 3);
        assert_eq!(s.usage_at(19), 3);
        assert_eq!(s.usage_at(20), 0);
        assert_eq!(s.peak(0, 10), 0);
        assert_eq!(s.peak(0, 11), 3);
        assert_eq!(s.peak(15, 18), 3);
        assert_eq!(s.peak(20, 30), 0);
    }

    #[test]
    fn overlapping_rectangles_stack() {
        let mut s = Skyline::new();
        s.add(0, 100, 2);
        s.add(50, 150, 4);
        assert_eq!(s.peak(0, 50), 2);
        assert_eq!(s.peak(0, 51), 6);
        assert_eq!(s.usage_at(99), 6);
        assert_eq!(s.usage_at(100), 4);
        assert_eq!(s.peak(100, 150), 4);
        assert_eq!(s.peak(150, 200), 0);
    }

    #[test]
    fn zero_length_window_reads_point_usage() {
        let mut s = Skyline::new();
        s.add(5, 10, 7);
        assert_eq!(s.peak(6, 6), 7);
        assert_eq!(s.peak(10, 10), 0);
    }

    #[test]
    fn reset_and_copy_from_reproduce_fresh_state() {
        let mut recycled = Skyline::new();
        recycled.add(10, 20, 3);
        recycled.add(5, 30, 2);
        recycled.reset();
        let mut fresh = Skyline::new();
        // Identical adds on a reset and a fresh skyline must agree
        // everywhere (the priority stream restarted from the seed).
        let mut rng = XorShift64::new(0xabcd);
        for _ in 0..30 {
            let s = rng.next_u64() % 300;
            let d = 1 + rng.next_u64() % 50;
            let w = 1 + (rng.next_u64() % 5) as u32;
            recycled.add(s, s + d, w);
            fresh.add(s, s + d, w);
        }
        for t in 0..400 {
            assert_eq!(recycled.usage_at(t), fresh.usage_at(t), "diverged at t={t}");
        }
        // copy_from restores a checkpoint into the recycled arena.
        let mut target = Skyline::new();
        target.add(0, 1000, 7);
        target.copy_from(&fresh);
        for t in 0..400 {
            assert_eq!(target.usage_at(t), fresh.usage_at(t), "copy diverged at t={t}");
        }
    }

    #[test]
    fn differential_against_brute_force() {
        let mut rng = XorShift64::new(0xfeed_beef);
        for _round in 0..50 {
            let mut sky = Skyline::new();
            let mut reference = Reference::default();
            for _ in 0..40 {
                let s = rng.next_u64() % 500;
                let d = 1 + rng.next_u64() % 80;
                let w = 1 + (rng.next_u64() % 8) as u32;
                sky.add(s, s + d, w);
                reference.add(s, s + d, w);
            }
            for _ in 0..60 {
                let a = rng.next_u64() % 600;
                let d = rng.next_u64() % 120;
                assert_eq!(
                    sky.peak(a, a + d),
                    reference.peak(a, a + d),
                    "peak([{a}, {})) diverged",
                    a + d
                );
                assert_eq!(sky.usage_at(a), reference.usage_at(a), "usage_at({a}) diverged");
            }
        }
    }
}
