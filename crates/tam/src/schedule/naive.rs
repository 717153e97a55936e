//! The naive reference capacity index.
//!
//! This is the original packer's query path, kept byte-for-byte in
//! behavior as the reference oracle for the skyline engine: every
//! `place_start` query rebuilds and sorts the candidate list and every
//! capacity probe scans (and sorts) the placed entries. O(n log n) per
//! *query*, and therefore O(n² log n)–O(n³ log n) per greedy pass.
//! Search behavior is shared (see [`super::search`]), so for any problem
//! and effort the two engines return identical schedules; differential
//! tests and the `results` section of the bench report compare them.

use super::search::PackEngine;
use super::ScheduledTest;

/// Reference [`PackEngine`]: no incremental state, linear scans.
/// Stateless, so its checkpoint ([`Clone`]) is free.
#[derive(Clone)]
pub(crate) struct NaiveIndex;

impl PackEngine for NaiveIndex {
    const REFERENCE: bool = true;

    fn new() -> Self {
        NaiveIndex
    }

    fn reset(&mut self) {}

    fn copy_from(&mut self, _other: &Self) {}

    /// Earliest start for a `width × time` rectangle respecting capacity and
    /// the `forbidden` intervals.
    fn place_start(
        &self,
        entries: &[ScheduledTest],
        tam_width: u32,
        width: u32,
        time: u64,
        forbidden: &[(u64, u64)],
        scratch: &mut Vec<u64>,
    ) -> u64 {
        // Candidate starts: 0, every placement end, every forbidden end —
        // assembled in the caller's reusable scratch buffer.
        let candidates = scratch;
        candidates.clear();
        candidates.push(0);
        candidates.extend(entries.iter().map(|e| e.end));
        candidates.extend(forbidden.iter().map(|&(_, e)| e));
        candidates.sort_unstable();
        candidates.dedup();

        'candidate: for &t in candidates.iter() {
            let end = t + time;
            for &(fs, fe) in forbidden {
                if t < fe && fs < end {
                    continue 'candidate;
                }
            }
            if peak_usage(entries, t, end) + width <= tam_width {
                return t;
            }
        }
        unreachable!("a start after every existing placement is always feasible")
    }

    fn on_place(&mut self, _placed: &ScheduledTest) {}
}

/// Peak TAM usage over the window `[from, to)` by scanning `entries`.
fn peak_usage(entries: &[ScheduledTest], from: u64, to: u64) -> u32 {
    let mut events: Vec<(u64, i64)> = Vec::new();
    let mut base = 0i64;
    for e in entries {
        if e.end <= from || e.start >= to {
            continue;
        }
        if e.start <= from {
            base += i64::from(e.width);
        } else {
            events.push((e.start, i64::from(e.width)));
        }
        if e.end < to {
            events.push((e.end, -i64::from(e.width)));
        }
    }
    events.sort_unstable();
    let mut peak = base;
    let mut current = base;
    for (_, delta) in events {
        current += delta;
        peak = peak.max(current);
    }
    u32::try_from(peak.max(0)).unwrap_or(u32::MAX)
}
