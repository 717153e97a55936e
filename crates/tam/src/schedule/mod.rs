//! Multi-start greedy rectangle packing with serialization constraints.
//!
//! The packer is split into four layers:
//!
//! * [`search`] — engine-agnostic, phase-partitioned multi-start greedy
//!   search (orderings, placement choice, rip-up improvement, lower-bound
//!   pruning, parallel restarts) built around the *skeleton → snapshot →
//!   delta-pack* pipeline: sweep-invariant skeleton jobs are packed into
//!   cloneable checkpoints, per-candidate delta jobs continue on restored
//!   snapshots,
//! * [`session`] — [`PackSession`], the public handle that shares packed
//!   skeleton checkpoints across a whole sweep of candidate
//!   configurations, with hit/miss/prune counters,
//! * [`skyline`] — the event-based capacity skyline: O(events +
//!   candidates) placement queries over an incrementally maintained,
//!   time-sorted event vector that checkpoints with a flat clone,
//! * [`naive`] — the original O(n log n)-per-query reference engine, kept
//!   as the oracle differential tests compare against.
//!
//! Both engines share the search layer and therefore return identical
//! schedules. [`Engine`] selects between them for from-scratch packs
//! ([`schedule_with_engine`]) only, which route through a transient
//! session core, so session delta-packs and from-scratch packs are
//! bit-identical by construction. A [`PackSession`] always packs with the
//! skyline.

mod naive;
mod search;
mod session;
mod skyline;

pub use search::{CheckpointImportStats, CheckpointNode, TrieExport};
pub use session::{PackSession, SessionKey, SessionStats};

/// Small deterministic PRNG for the shuffle restarts (keeps `rand` out of
/// the public dependency set of this crate).
#[derive(Debug, Clone)]
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64 { state: seed.max(1) }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            slice.swap(i, j);
        }
    }
}

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::problem::ScheduleProblem;

/// One placed test in a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduledTest {
    /// Index of the job in [`ScheduleProblem::jobs`].
    pub job: usize,
    /// TAM width granted to the test.
    pub width: u32,
    /// Start time in TAM clock cycles.
    pub start: u64,
    /// End time (exclusive) in TAM clock cycles.
    pub end: u64,
}

/// A feasible test schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    tam_width: u32,
    makespan: u64,
    entries: Vec<ScheduledTest>,
}

impl Schedule {
    /// Assembles a schedule from raw parts (used by the fixed-bus
    /// baseline in [`crate::buses`]); callers are responsible for
    /// validity, which [`Schedule::validate`] can confirm.
    pub(crate) fn from_parts(tam_width: u32, makespan: u64, entries: Vec<ScheduledTest>) -> Self {
        Schedule { tam_width, makespan, entries }
    }

    /// Canonical entry order: by start time, then job index.
    pub(crate) fn sort_entries(&mut self) {
        self.entries.sort_by_key(|e| (e.start, e.job));
    }

    /// Reassembles a schedule from persisted parts (snapshot import).
    ///
    /// The recorded makespan must equal the latest entry end (the invariant
    /// every packed schedule satisfies), and entries are re-sorted into the
    /// canonical order, so a faithful export/import roundtrip compares
    /// equal to the original. This checks internal consistency only;
    /// callers restoring cache entries must additionally
    /// [`validate`](Self::validate) against the problem the schedule
    /// claims to solve.
    ///
    /// # Errors
    ///
    /// Returns a description of the inconsistency when the makespan does
    /// not match the entries.
    pub fn from_persisted(
        tam_width: u32,
        makespan: u64,
        entries: Vec<ScheduledTest>,
    ) -> Result<Self, String> {
        let max_end = entries.iter().map(|e| e.end).max().unwrap_or(0);
        if makespan != max_end {
            return Err(format!(
                "persisted makespan {makespan} does not match the latest entry end {max_end}"
            ));
        }
        let mut s = Schedule { tam_width, makespan, entries };
        s.sort_entries();
        Ok(s)
    }

    /// SOC test time: the latest end time over all entries.
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// TAM width the schedule was built for.
    pub fn tam_width(&self) -> u32 {
        self.tam_width
    }

    /// The placed tests, sorted by start time.
    pub fn entries(&self) -> &[ScheduledTest] {
        &self.entries
    }

    /// Fraction of the `W × makespan` strip actually covered by tests.
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        let used: u128 =
            self.entries.iter().map(|e| u128::from(e.end - e.start) * u128::from(e.width)).sum();
        used as f64 / (self.makespan as f64 * f64::from(self.tam_width))
    }

    /// Checks the schedule against its problem: every job placed exactly
    /// once on one of its staircase points, TAM capacity respected at every
    /// instant, and no two same-group tests overlapping.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation found.
    pub fn validate(&self, problem: &ScheduleProblem) -> Result<(), String> {
        let mut seen = vec![false; problem.jobs.len()];
        for e in &self.entries {
            let job = problem
                .jobs
                .get(e.job)
                .ok_or_else(|| format!("entry references unknown job {}", e.job))?;
            if std::mem::replace(&mut seen[e.job], true) {
                return Err(format!("job {} placed twice", e.job));
            }
            let dur = e.end.checked_sub(e.start).ok_or("entry ends before it starts")?;
            let matches_point =
                job.staircase.points().iter().any(|p| p.width == e.width && p.time == dur);
            if !matches_point {
                return Err(format!(
                    "job {} placed as {}x{} which is not a staircase point",
                    e.job, e.width, dur
                ));
            }
            if e.width > problem.tam_width {
                return Err(format!("job {} wider than the TAM", e.job));
            }
            if e.end > self.makespan {
                return Err(format!("job {} ends after the makespan", e.job));
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("job {missing} was never placed"));
        }

        // Capacity check via an event sweep.
        let mut events: Vec<(u64, i64)> = Vec::with_capacity(self.entries.len() * 2);
        for e in &self.entries {
            events.push((e.start, i64::from(e.width)));
            events.push((e.end, -i64::from(e.width)));
        }
        events.sort_unstable();
        let mut used = 0i64;
        for (t, delta) in events {
            used += delta;
            if used > i64::from(self.tam_width) {
                return Err(format!("TAM capacity exceeded at time {t}: {used} wires in use"));
            }
        }

        // Group serialization check.
        let mut by_group: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for e in &self.entries {
            if let Some(g) = problem.jobs[e.job].group {
                by_group.entry(g).or_default().push((e.start, e.end));
            }
        }
        for (g, mut ivals) in by_group {
            ivals.sort_unstable();
            for pair in ivals.windows(2) {
                if pair[1].0 < pair[0].1 {
                    return Err(format!("group {g} tests overlap in time"));
                }
            }
        }
        Ok(())
    }

    /// Renders an ASCII Gantt chart (one row per entry) `cols` columns wide.
    ///
    /// Intended for examples and debugging output; rows are sorted by start
    /// time and labelled with the job label, width and interval.
    pub fn render_gantt(&self, problem: &ScheduleProblem, cols: usize) -> String {
        let cols = cols.max(10);
        let span = self.makespan.max(1);
        let mut out = String::new();
        let label_w = problem.jobs.iter().map(|j| j.label.len()).max().unwrap_or(4).min(24);
        for e in &self.entries {
            let label: String = problem.jobs[e.job].label.chars().take(label_w).collect();
            let from = (e.start as u128 * cols as u128 / span as u128) as usize;
            let to = ((e.end as u128 * cols as u128).div_ceil(span as u128) as usize).min(cols);
            let mut bar = String::with_capacity(cols);
            bar.extend(std::iter::repeat_n(' ', from));
            bar.extend(std::iter::repeat_n('#', to.saturating_sub(from).max(1)));
            out.push_str(&format!(
                "{label:<label_w$} |{bar:<cols$}| w={:<3} [{}, {})\n",
                e.width, e.start, e.end
            ));
        }
        out.push_str(&format!(
            "makespan = {} cycles, utilization = {:.1}%\n",
            self.makespan,
            self.utilization() * 100.0
        ));
        out
    }
}

/// Error returned when a problem cannot be scheduled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A job needs more TAM wires than the SOC-level TAM provides.
    JobTooWide {
        /// Index of the offending job.
        job: usize,
        /// The narrowest staircase point of that job.
        min_width: u32,
        /// The available TAM width.
        tam_width: u32,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ScheduleError::JobTooWide { job, min_width, tam_width } => write!(
                f,
                "job {job} needs at least {min_width} TAM wires but only {tam_width} exist"
            ),
        }
    }
}

impl Error for ScheduleError {}

/// How much work the multi-start optimizer invests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Effort {
    /// The three deterministic orderings only; fastest, good for tests.
    Quick,
    /// Deterministic orderings plus a handful of seeded shuffles.
    #[default]
    Standard,
    /// Many restarts plus a longer improvement phase.
    Thorough,
}

impl Effort {
    /// Every effort in declaration order, so `ALL[e.code() as usize] == e`.
    pub const ALL: [Effort; 3] = [Effort::Quick, Effort::Standard, Effort::Thorough];

    /// The stable one-byte code fingerprints, snapshots and the wire
    /// protocol carry for this effort: its index in [`Self::ALL`].
    pub fn code(self) -> u8 {
        self as u8
    }

    fn shuffles(self) -> u64 {
        match self {
            Effort::Quick => 0,
            Effort::Standard => 6,
            Effort::Thorough => 24,
        }
    }

    /// Shuffled *joint* restarts: orderings interleaving delta jobs among
    /// the skeleton, which the cached phase-partitioned restarts cannot
    /// express. Each one is a from-scratch pack per candidate, so they are
    /// far fewer than the cached shuffles.
    fn joint_shuffles(self) -> u64 {
        match self {
            Effort::Quick => 0,
            Effort::Standard => 2,
            Effort::Thorough => 6,
        }
    }

    fn improvement_rounds(self) -> usize {
        match self {
            Effort::Quick => 8,
            Effort::Standard => 40,
            Effort::Thorough => 160,
        }
    }
}

/// Which packing engine answers placement queries.
///
/// Both engines run the same search (multi-start orderings, the
/// improvement loop) with the identical earliest-start placement rule, so
/// they return bit-identical schedules for any `(problem, effort)`.
/// [`Engine::Naive`] exists only as the reference oracle for differential
/// tests and the bench report's engine comparison; sessions, planners and
/// services always pack with [`Engine::Skyline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Incremental event skyline: O(events + candidates) placement
    /// queries, lower-bound pruning, parallel multi-start.
    Skyline,
    /// The original rebuild-sort-scan reference path, serial and unpruned.
    Naive,
}

/// Schedules `problem` with [`Effort::Standard`].
///
/// # Errors
///
/// Returns [`ScheduleError::JobTooWide`] when some job cannot fit the TAM at
/// any of its staircase points.
pub fn schedule(problem: &ScheduleProblem) -> Result<Schedule, ScheduleError> {
    schedule_with_effort(problem, Effort::Standard)
}

/// Schedules `problem` with an explicit effort level.
///
/// The optimizer is deterministic for a given `(problem, effort)` pair.
///
/// # Errors
///
/// Returns [`ScheduleError::JobTooWide`] when some job cannot fit the TAM at
/// any of its staircase points.
pub fn schedule_with_effort(
    problem: &ScheduleProblem,
    effort: Effort,
) -> Result<Schedule, ScheduleError> {
    schedule_with_engine(problem, effort, Engine::Skyline)
}

/// Schedules `problem` with an explicit effort level and packing engine.
///
/// # Errors
///
/// Returns [`ScheduleError::JobTooWide`] when some job cannot fit the TAM at
/// any of its staircase points.
pub fn schedule_with_engine(
    problem: &ScheduleProblem,
    effort: Effort,
    engine: Engine,
) -> Result<Schedule, ScheduleError> {
    match engine {
        Engine::Skyline => search::run::<skyline::SkylineIndex>(problem, effort),
        Engine::Naive => search::run::<naive::NaiveIndex>(problem, effort),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::TestJob;
    use msoc_wrapper::{Staircase, StaircasePoint};

    fn single(width: u32, time: u64) -> Staircase {
        Staircase::from_points(vec![StaircasePoint { width, time }])
    }

    fn check(problem: &ScheduleProblem) -> Schedule {
        let s = schedule(problem).expect("feasible problem");
        s.validate(problem).expect("schedule must validate");
        s
    }

    #[test]
    fn empty_problem_has_zero_makespan() {
        let p = ScheduleProblem { tam_width: 8, jobs: vec![] };
        assert_eq!(check(&p).makespan(), 0);
    }

    #[test]
    fn single_job_starts_at_zero() {
        let p = ScheduleProblem { tam_width: 8, jobs: vec![TestJob::new("a", single(3, 42))] };
        let s = check(&p);
        assert_eq!(s.makespan(), 42);
        assert_eq!(s.entries()[0].start, 0);
    }

    #[test]
    fn too_wide_job_is_rejected() {
        let p = ScheduleProblem { tam_width: 2, jobs: vec![TestJob::new("a", single(3, 1))] };
        match schedule(&p) {
            Err(ScheduleError::JobTooWide { job: 0, min_width: 3, tam_width: 2 }) => {}
            other => panic!("expected JobTooWide, got {other:?}"),
        }
    }

    #[test]
    fn parallel_fit_is_found() {
        // Two width-2 jobs fit side by side on 4 wires.
        let p = ScheduleProblem {
            tam_width: 4,
            jobs: vec![TestJob::new("a", single(2, 100)), TestJob::new("b", single(2, 100))],
        };
        assert_eq!(check(&p).makespan(), 100);
    }

    #[test]
    fn capacity_forces_serialization() {
        let p = ScheduleProblem {
            tam_width: 4,
            jobs: vec![TestJob::new("a", single(3, 100)), TestJob::new("b", single(3, 50))],
        };
        assert_eq!(check(&p).makespan(), 150);
    }

    #[test]
    fn group_members_never_overlap_even_with_spare_wires() {
        let p = ScheduleProblem {
            tam_width: 16,
            jobs: vec![
                TestJob::in_group("a", single(1, 70), 1),
                TestJob::in_group("b", single(1, 30), 1),
                TestJob::in_group("c", single(1, 50), 1),
            ],
        };
        // Plenty of wires, but the shared wrapper serializes them.
        assert_eq!(check(&p).makespan(), 150);
    }

    #[test]
    fn independent_groups_run_in_parallel() {
        let p = ScheduleProblem {
            tam_width: 4,
            jobs: vec![
                TestJob::in_group("a", single(1, 100), 1),
                TestJob::in_group("b", single(1, 100), 2),
            ],
        };
        assert_eq!(check(&p).makespan(), 100);
    }

    #[test]
    fn staircase_choice_uses_narrower_point_under_contention() {
        // Job `big` can run 4x25 or 2x50. With a 1x100 companion on 5 wires
        // both fit in parallel only if `big` picks a width ≤ 4... both
        // choices fit; but on 4 wires the 2-wide point avoids serialization:
        // makespan 100 instead of 125.
        let stairs = Staircase::from_points(vec![
            StaircasePoint { width: 2, time: 50 },
            StaircasePoint { width: 4, time: 25 },
        ]);
        let p = ScheduleProblem {
            tam_width: 4,
            jobs: vec![TestJob::new("narrow", single(2, 100)), TestJob::new("big", stairs)],
        };
        assert_eq!(check(&p).makespan(), 100);
    }

    #[test]
    fn utilization_and_gantt_render() {
        let p = ScheduleProblem { tam_width: 2, jobs: vec![TestJob::new("a", single(2, 10))] };
        let s = check(&p);
        assert!((s.utilization() - 1.0).abs() < 1e-12);
        let g = s.render_gantt(&p, 40);
        assert!(g.contains("makespan = 10"));
        assert!(g.contains('#'));
    }

    #[test]
    fn validate_catches_capacity_violation() {
        let p = ScheduleProblem {
            tam_width: 2,
            jobs: vec![TestJob::new("a", single(2, 10)), TestJob::new("b", single(2, 10))],
        };
        let bogus = Schedule {
            tam_width: 2,
            makespan: 15,
            entries: vec![
                ScheduledTest { job: 0, width: 2, start: 0, end: 10 },
                ScheduledTest { job: 1, width: 2, start: 5, end: 15 },
            ],
        };
        assert!(bogus.validate(&p).unwrap_err().contains("capacity"));
    }

    #[test]
    fn validate_catches_group_overlap() {
        let p = ScheduleProblem {
            tam_width: 8,
            jobs: vec![
                TestJob::in_group("a", single(1, 10), 9),
                TestJob::in_group("b", single(1, 10), 9),
            ],
        };
        let bogus = Schedule {
            tam_width: 8,
            makespan: 12,
            entries: vec![
                ScheduledTest { job: 0, width: 1, start: 0, end: 10 },
                ScheduledTest { job: 1, width: 1, start: 2, end: 12 },
            ],
        };
        assert!(bogus.validate(&p).unwrap_err().contains("group"));
    }

    #[test]
    fn validate_catches_missing_and_duplicate_jobs() {
        let p = ScheduleProblem {
            tam_width: 8,
            jobs: vec![TestJob::new("a", single(1, 10)), TestJob::new("b", single(1, 10))],
        };
        let missing = Schedule {
            tam_width: 8,
            makespan: 10,
            entries: vec![ScheduledTest { job: 0, width: 1, start: 0, end: 10 }],
        };
        assert!(missing.validate(&p).unwrap_err().contains("never placed"));
        let dup = Schedule {
            tam_width: 8,
            makespan: 20,
            entries: vec![
                ScheduledTest { job: 0, width: 1, start: 0, end: 10 },
                ScheduledTest { job: 0, width: 1, start: 10, end: 20 },
                ScheduledTest { job: 1, width: 1, start: 0, end: 10 },
            ],
        };
        assert!(dup.validate(&p).unwrap_err().contains("twice"));
    }

    #[test]
    fn validate_rejects_non_staircase_placement() {
        let p = ScheduleProblem { tam_width: 8, jobs: vec![TestJob::new("a", single(2, 10))] };
        let bogus = Schedule {
            tam_width: 8,
            makespan: 10,
            entries: vec![ScheduledTest { job: 0, width: 3, start: 0, end: 10 }],
        };
        assert!(bogus.validate(&p).unwrap_err().contains("staircase"));
    }

    #[test]
    fn effort_levels_are_deterministic_and_ordered() {
        let soc = msoc_itc02::synth::d695s();
        let p = ScheduleProblem::from_soc(&soc, 16);
        let quick = schedule_with_effort(&p, Effort::Quick).unwrap();
        let std1 = schedule_with_effort(&p, Effort::Standard).unwrap();
        let std2 = schedule_with_effort(&p, Effort::Standard).unwrap();
        let thorough = schedule_with_effort(&p, Effort::Thorough).unwrap();
        assert_eq!(std1, std2);
        assert!(std1.makespan() <= quick.makespan());
        assert!(thorough.makespan() <= std1.makespan());
    }

    #[test]
    fn d695s_schedule_beats_naive_serialization() {
        let soc = msoc_itc02::synth::d695s();
        let p = ScheduleProblem::from_soc(&soc, 16);
        let s = check(&p);
        let serial: u64 = p.jobs.iter().map(|j| j.staircase.time_at(16)).sum();
        assert!(s.makespan() < serial / 2, "packing should beat serial by 2x");
        assert!(s.utilization() > 0.5);
    }

    #[test]
    fn engines_agree_on_synthetic_socs() {
        for (soc, w) in [
            (msoc_itc02::synth::d695s(), 16),
            (msoc_itc02::synth::d695s(), 24),
            (msoc_itc02::synth::p22810s(), 32),
        ] {
            let p = ScheduleProblem::from_soc(&soc, w);
            for effort in [Effort::Quick, Effort::Standard] {
                let fast = schedule_with_engine(&p, effort, Engine::Skyline).unwrap();
                let reference = schedule_with_engine(&p, effort, Engine::Naive).unwrap();
                assert_eq!(fast, reference, "engines diverged on {} at w={w}", soc.name);
                fast.validate(&p).expect("skyline schedule must validate");
            }
        }
    }

    #[test]
    fn engines_agree_with_serialization_groups() {
        let mixed = |g| {
            vec![
                TestJob::in_group("a", single(2, 120), g),
                TestJob::in_group("b", single(1, 80), g),
                TestJob::new("c", single(4, 60)),
                TestJob::new(
                    "d",
                    Staircase::from_points(vec![
                        StaircasePoint { width: 1, time: 200 },
                        StaircasePoint { width: 2, time: 100 },
                        StaircasePoint { width: 4, time: 55 },
                    ]),
                ),
            ]
        };
        let p = ScheduleProblem { tam_width: 6, jobs: mixed(3) };
        let fast = schedule_with_engine(&p, Effort::Standard, Engine::Skyline).unwrap();
        let reference = schedule_with_engine(&p, Effort::Standard, Engine::Naive).unwrap();
        assert_eq!(fast, reference);
        fast.validate(&p).expect("grouped schedule must validate");
    }

    #[test]
    fn engines_agree_on_zero_duration_jobs() {
        // A core with zero patterns has a zero-time staircase point; both
        // engines must place it identically (at t = 0, occupying nothing).
        let p = ScheduleProblem {
            tam_width: 2,
            jobs: vec![
                TestJob::new("real", single(2, 100)),
                TestJob::new("empty", single(2, 0)),
                TestJob::in_group("grouped", single(1, 50), 7),
                TestJob::in_group("empty2", single(1, 0), 7),
            ],
        };
        for effort in [Effort::Quick, Effort::Standard] {
            let fast = schedule_with_engine(&p, effort, Engine::Skyline).unwrap();
            let reference = schedule_with_engine(&p, effort, Engine::Naive).unwrap();
            assert_eq!(fast, reference);
            fast.validate(&p).expect("zero-duration schedule must validate");
        }
    }

    #[test]
    fn improvement_rotates_over_many_critical_jobs() {
        // Eight identical 1x100 jobs on one wire: every job is critical in
        // turn; the rotation must terminate and keep a valid optimum.
        let p = ScheduleProblem {
            tam_width: 1,
            jobs: (0..8).map(|i| TestJob::new(format!("j{i}"), single(1, 100))).collect(),
        };
        let s = check(&p);
        assert_eq!(s.makespan(), 800);
    }
}
