//! The event-based capacity skyline.
//!
//! The packer's hot query is "where is the earliest start `t` whose window
//! `[t, t + d)` stays under the TAM capacity and overlaps no forbidden
//! interval?", asked once per staircase point per job. The naive packer
//! answers it by rebuilding its candidate list and scanning (and sorting)
//! every placed entry per candidate — O(n log n) per probe. This module
//! maintains the capacity profile incrementally instead: a
//! piecewise-constant *skyline* stored as a flat, time-sorted vector of
//! capacity events `(time, usage)`, where `usage` wires are in use from
//! `time` up to the next event. A greedy pass places a few dozen jobs, so
//! the profile holds at most about twice as many events, and inserting one
//! is a short memmove.
//!
//! Placing a `w × d` rectangle splits at most two segments and adds `w` to
//! every segment between them. A query walks the ascending candidate starts
//! (0, every placed end, every forbidden end) and skips blocked ones in
//! bulk:
//!
//! * When a window is over capacity, every candidate before the end of the
//!   window's *last* over-capacity segment is skipped. Such a candidate's
//!   window starts no earlier than the blocked one, so it ends later than
//!   that segment starts, and it starts before that segment ends: it
//!   overlaps the same segment.
//! * When a window overlaps forbidden intervals, every candidate before the
//!   latest of their ends is skipped, by the same argument.
//!
//! Segments are scanned left to right and never rescanned: a skip lands
//! past the last over-capacity segment seen, and every segment scanned
//! after it is known to fit. A query is therefore O(events + candidates),
//! and it returns exactly the first feasible candidate in ascending order —
//! the naive reference engine's answer.
//!
//! # Checkpoint / restore
//!
//! The whole profile is two flat vectors of plain values, so a checkpoint
//! is a [`Clone`] and a restore into a recycled index
//! ([`PackEngine::copy_from`]) is a memcpy into the existing buffers.
//! [`crate::PackSession`] exploits this: the skeleton jobs of a sweep are
//! packed once per ordering and every candidate configuration delta-packs
//! on a restored snapshot, with the copy cost proportional to the number of
//! capacity events (two per placed job), not to the work of re-packing.

use super::search::PackEngine;
use super::ScheduledTest;

/// [`PackEngine`] backed by the capacity skyline plus a sorted
/// candidate-start list (0 and every placed end), replacing the naive
/// packer's per-query rebuild-sort-scan with one forward walk (see the
/// module docs).
#[derive(Debug, Clone)]
pub(crate) struct SkylineIndex {
    /// Capacity events `(time, usage)`, strictly ascending in time and
    /// starting at 0: `usage` wires are in use from `time` up to the next
    /// event. The last segment runs forever with usage 0, since every
    /// placed rectangle ends at an event.
    events: Vec<(u64, u32)>,
    /// Sorted, deduplicated candidate starts: 0 plus every placed end.
    starts: Vec<u64>,
}

impl SkylineIndex {
    /// Adds `width` wires over `[from, to)` (a placed rectangle).
    fn add(&mut self, from: u64, to: u64, width: u32) {
        if from >= to || width == 0 {
            return;
        }
        let lo = self.split_at(from);
        let hi = self.split_at(to);
        for event in &mut self.events[lo..hi] {
            event.1 += width;
        }
    }

    /// The index of the event at exactly `t`, splitting the segment that
    /// covers `t` when no event starts there.
    fn split_at(&mut self, t: u64) -> usize {
        let i = self.events.partition_point(|&(time, _)| time < t);
        if self.events.get(i).is_none_or(|&(time, _)| time != t) {
            // The first event sits at 0 <= t, so a split has a predecessor.
            let usage = self.events[i - 1].1;
            self.events.insert(i, (t, usage));
        }
        i
    }
}

impl PackEngine for SkylineIndex {
    fn new() -> Self {
        SkylineIndex { events: vec![(0, 0)], starts: vec![0] }
    }

    fn reset(&mut self) {
        self.events.clear();
        self.events.push((0, 0));
        self.starts.clear();
        self.starts.push(0);
    }

    fn copy_from(&mut self, other: &Self) {
        self.events.clone_from(&other.events);
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

        let (events, starts) = (&self.events, &self.starts);
        // No candidate below `next` is feasible. Every segment from the one
        // after the last over-capacity segment seen up to `scanned`
        // (exclusive) fits, and no candidate at or above `next` starts
        // before that first fitting segment.
        let (mut next, mut scanned) = (0u64, 0usize);
        let (mut i, mut j) = (0, 0);
        loop {
            // The smallest candidate at or after `next`, from the merge of
            // the two sorted candidate streams.
            while starts.get(i).is_some_and(|&a| a < next) {
                i += 1;
            }
            while forbidden_ends.get(j).is_some_and(|&b| b < next) {
                j += 1;
            }
            let t = match (starts.get(i), forbidden_ends.get(j)) {
                (Some(&a), Some(&b)) => a.min(b),
                (Some(&a), None) => a,
                (None, Some(&b)) => b,
                (None, None) => unreachable!("a start after every placement is always feasible"),
            };
            let end = t + time;
            let blocked_until =
                forbidden.iter().filter(|&&(fs, fe)| t < fe && fs < end).map(|&(_, fe)| fe).max();
            if let Some(fe) = blocked_until {
                next = fe;
                continue;
            }
            // Segments that end by `t` lie before the window.
            while events.get(scanned + 1).is_some_and(|&(et, _)| et <= t) {
                scanned += 1;
            }
            let mut last_over = None;
            while events.get(scanned).is_some_and(|&(et, _)| et < end) {
                if events[scanned].1 + width > tam_width {
                    last_over = Some(scanned);
                }
                scanned += 1;
            }
            match last_over {
                None => return t,
                // The last segment has usage 0, so it is over capacity only
                // for a job wider than the TAM, which has no feasible start.
                Some(k) => next = events.get(k + 1).map_or(u64::MAX, |&(et, _)| et),
            }
        }
    }

    fn on_place(&mut self, placed: &ScheduledTest) {
        self.add(placed.start, placed.end, placed.width);
        if let Err(pos) = self.starts.binary_search(&placed.end) {
            self.starts.insert(pos, placed.end);
        }
    }
}

#[cfg(test)]
impl SkylineIndex {
    /// Usage of the segment containing `t`.
    fn usage_at(&self, t: u64) -> u32 {
        self.events[self.events.partition_point(|&(time, _)| time <= t) - 1].1
    }

    /// Peak usage over the window `[from, to)`; the usage at `from` for an
    /// empty window.
    fn peak(&self, from: u64, to: u64) -> u32 {
        let inside = self.events.iter().filter(|&&(time, _)| from < time && time < to);
        inside.map(|&(_, usage)| usage).fold(self.usage_at(from), u32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::super::naive::NaiveIndex;
    use super::super::XorShift64;
    use super::*;

    /// Randomized rounds of the differential test against the naive
    /// engine: the full size in release builds, fewer in debug builds.
    const ROUNDS: usize = if cfg!(debug_assertions) { 300 } else { 3000 };

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

    fn placed(start: u64, end: u64, width: u32) -> ScheduledTest {
        ScheduledTest { job: 0, width, start, end }
    }

    #[test]
    fn empty_skyline_is_zero_everywhere() {
        let s = SkylineIndex::new();
        assert_eq!(s.usage_at(0), 0);
        assert_eq!(s.usage_at(1_000_000), 0);
        assert_eq!(s.peak(0, u64::MAX / 2), 0);
    }

    #[test]
    fn single_rectangle_profile() {
        let mut s = SkylineIndex::new();
        s.add(10, 20, 3);
        assert_eq!(s.events, [(0, 0), (10, 3), (20, 0)]);
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
        let mut s = SkylineIndex::new();
        s.add(0, 100, 2);
        s.add(50, 150, 4);
        assert_eq!(s.events, [(0, 2), (50, 6), (100, 4), (150, 0)]);
        assert_eq!(s.peak(0, 50), 2);
        assert_eq!(s.peak(0, 51), 6);
        assert_eq!(s.usage_at(99), 6);
        assert_eq!(s.usage_at(100), 4);
        assert_eq!(s.peak(100, 150), 4);
        assert_eq!(s.peak(150, 200), 0);
    }

    #[test]
    fn zero_length_window_reads_point_usage() {
        let mut s = SkylineIndex::new();
        s.add(5, 10, 7);
        assert_eq!(s.peak(6, 6), 7);
        assert_eq!(s.peak(10, 10), 0);
        // A zero-duration job fits at 0 even on a full TAM, like the naive
        // engine's zero-window scan.
        s.on_place(&placed(0, 5, 8));
        assert_eq!(s.place_start(&[], 8, 8, 0, &[(0, 9)], &mut Vec::new()), 0);
    }

    #[test]
    fn reset_and_copy_from_reproduce_fresh_state() {
        let mut recycled = SkylineIndex::new();
        recycled.on_place(&placed(10, 20, 3));
        recycled.on_place(&placed(5, 30, 2));
        recycled.reset();
        let mut fresh = SkylineIndex::new();
        assert_eq!((&recycled.events, &recycled.starts), (&fresh.events, &fresh.starts));
        // Identical placements on a reset and a fresh index agree
        // everywhere.
        let mut rng = XorShift64::new(0xabcd);
        for _ in 0..30 {
            let s = rng.next_u64() % 300;
            let d = 1 + rng.next_u64() % 50;
            let w = 1 + (rng.next_u64() % 5) as u32;
            recycled.on_place(&placed(s, s + d, w));
            fresh.on_place(&placed(s, s + d, w));
        }
        assert_eq!((&recycled.events, &recycled.starts), (&fresh.events, &fresh.starts));
        // copy_from restores a checkpoint into a used index.
        let mut target = SkylineIndex::new();
        target.on_place(&placed(0, 1000, 7));
        target.copy_from(&fresh);
        assert_eq!((&target.events, &target.starts), (&fresh.events, &fresh.starts));
    }

    /// `add` against a brute-force segment reference, zero durations and
    /// zero widths included.
    #[test]
    fn differential_against_brute_force() {
        let mut rng = XorShift64::new(0xfeed_beef);
        for _round in 0..50 {
            let mut sky = SkylineIndex::new();
            let mut reference = Reference::default();
            for _ in 0..40 {
                let s = rng.next_u64() % 500;
                let d = rng.next_u64() % 80;
                let w = (rng.next_u64() % 8) as u32;
                sky.add(s, s + d, w);
                reference.add(s, s + d, w);
            }
            let times: Vec<u64> = sky.events.iter().map(|&(t, _)| t).collect();
            assert_eq!(times[0], 0, "the profile starts at 0");
            assert!(times.windows(2).all(|w| w[0] < w[1]), "events strictly ascend");
            assert_eq!(sky.events.last().map(|e| e.1), Some(0), "the last segment is empty");
            for t in 0..600 {
                assert_eq!(sky.usage_at(t), reference.usage_at(t), "usage_at({t}) diverged");
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
            }
        }
    }

    /// The skyline's earliest start equals the naive reference engine's on
    /// random profiles built through `on_place`, random forbidden sets
    /// (some unrelated to any placement) and zero durations.
    #[test]
    fn place_start_matches_the_naive_reference() {
        let mut rng = XorShift64::new(0x5eed_cafe);
        let mut scratch = Vec::new();
        for round in 0..ROUNDS {
            let mut below = |n: u64| rng.next_u64() % n;
            let tam_width = 1 + below(12) as u32;
            let mut index = SkylineIndex::new();
            let mut entries = Vec::new();
            for _ in 0..below(25) {
                // Mostly arbitrary starts, so profiles also run over
                // capacity.
                let w = 1 + below(u64::from(tam_width)) as u32;
                let d = below(60);
                let s = if below(4) == 0 {
                    index.place_start(&entries, tam_width, w, d, &[], &mut scratch)
                } else {
                    below(300)
                };
                let p = placed(s, s + d, w);
                entries.push(p);
                index.on_place(&p);
            }
            // Forbidden intervals: some copied from placements (a group's
            // own intervals), some anywhere.
            let mut forbidden = Vec::new();
            for _ in 0..below(4) {
                if !entries.is_empty() && below(2) == 0 {
                    let e = entries[below(entries.len() as u64) as usize];
                    forbidden.push((e.start, e.end));
                } else {
                    let s = below(400);
                    forbidden.push((s, s + below(80)));
                }
            }
            for _ in 0..20 {
                let w = 1 + below(u64::from(tam_width)) as u32;
                let d = if below(8) == 0 { 0 } else { 1 + below(120) };
                let fast = index.place_start(&entries, tam_width, w, d, &forbidden, &mut scratch);
                let naive =
                    NaiveIndex.place_start(&entries, tam_width, w, d, &forbidden, &mut scratch);
                assert_eq!(
                    fast, naive,
                    "round {round}: {w} x {d} at W={tam_width}, forbidden {forbidden:?}, \
                     entries {entries:?}"
                );
            }
        }
    }
}
