//! Stable schedule-job identities for wrapped analog tests.
//!
//! A sweep over wrapper-sharing configurations evaluates many scheduling
//! problems whose *digital* jobs never change; only the analog tests'
//! wrapper grouping (and the optional per-wrapper self-test session) moves
//! between candidates. This module builds that per-candidate *delta* job
//! set with identities that are stable across the sweep: job `k` of the
//! delta is always the same physical analog test (core order × test
//! order), with the same label and staircase, and only its serialization
//! group — the wrapper it time-multiplexes — differs per candidate. The
//! planner feeds these deltas to `msoc_tam::PackSession`, which re-packs
//! just the delta on a restored digital-skeleton snapshot.
//!
//! The *positional* stability is what the session's delta-prefix trie
//! keys on: a trie step is the `(job position, job content)` pair, so two
//! candidates share a packed prefix exactly as far as their group
//! assignments agree position by position. Reordering the jobs per
//! candidate (or letting labels or staircases drift with the grouping)
//! would silently destroy all cross-candidate prefix reuse — the
//! [`identities_are_stable_across_assignments`](self) test pins this
//! contract.
//!
//! Because only the groups move, the labels and staircases are built once:
//! an [`AnalogDeltaTemplate`] formats every analog test's label (and each
//! wrapper slot's self-test session) up front, and each candidate's delta
//! is a clone of the template with its groups set. The planner keeps one
//! template per planner, built on first use, so a sweep over ~26
//! candidates formats the float-based test labels once instead of per
//! candidate. [`analog_delta_jobs`] is the one-shot form of the same path.

use msoc_analog::AnalogCoreSpec;
use msoc_tam::TestJob;
use msoc_wrapper::{Staircase, StaircasePoint};

/// The candidate-invariant part of the delta jobs: every analog test's job
/// (core order × test order) and one self-test session per wrapper slot,
/// each with its label and staircase built once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalogDeltaTemplate {
    /// Number of analog cores the template covers.
    cores: usize,
    /// `(analog core index, job)` per analog test; the group is set per
    /// candidate.
    tests: Vec<(usize, TestJob)>,
    /// Self-test session `g` runs in wrapper `g` (empty without
    /// self-test).
    self_tests: Vec<TestJob>,
}

impl AnalogDeltaTemplate {
    /// Builds the template for `cores`. Analog tests keep single-point
    /// staircases: their time does not shrink with extra TAM wires (paper
    /// Section 4). With `self_test_cycles` set, each of the first
    /// `max_wrappers` wrappers additionally runs one converter-BIST
    /// session on one TAM wire, serialized with the wrapper's core tests.
    pub fn new(
        cores: &[AnalogCoreSpec],
        max_wrappers: usize,
        self_test_cycles: Option<u64>,
    ) -> Self {
        let tests = cores
            .iter()
            .enumerate()
            .flat_map(|(idx, core)| {
                core.tests.iter().map(move |test| {
                    let point = StaircasePoint { width: test.tam_width, time: test.cycles };
                    let label = format!("{}:{}", core.id, test.label());
                    (idx, TestJob::delta_in_group(label, Staircase::from_points(vec![point]), 0))
                })
            })
            .collect();
        let self_tests = self_test_cycles
            .map(|cycles| {
                let stairs =
                    Staircase::from_points(vec![StaircasePoint { width: 1, time: cycles }]);
                (0..max_wrappers)
                    .map(|g| {
                        TestJob::delta_in_group(format!("selftest:w{g}"), stairs.clone(), g as u32)
                    })
                    .collect()
            })
            .unwrap_or_default();
        AnalogDeltaTemplate { cores: cores.len(), tests, self_tests }
    }

    /// The delta jobs of one sharing candidate: one
    /// [`JobKind::Delta`](msoc_tam::JobKind::Delta) job per analog test,
    /// grouped by the wrapper its core is assigned to, then (with
    /// self-test) one session per wrapper.
    ///
    /// `assignment[i]` is the wrapper index of analog core `i` (the
    /// planner's `SharingConfig::assignment`), and `wrapper_count` the
    /// number of wrappers the candidate uses.
    ///
    /// # Panics
    ///
    /// Panics when `assignment` is shorter than the template's cores,
    /// names a wrapper `>= wrapper_count`, or (with self-test)
    /// `wrapper_count` exceeds the template's `max_wrappers`.
    pub fn jobs(&self, assignment: &[usize], wrapper_count: usize) -> Vec<TestJob> {
        assert!(assignment.len() >= self.cores, "assignment must cover every analog core");
        assert!(
            self.self_tests.is_empty() || wrapper_count <= self.self_tests.len(),
            "{wrapper_count} wrappers exceed the template's {} self-test sessions",
            self.self_tests.len()
        );
        for (idx, &wrapper) in assignment[..self.cores].iter().enumerate() {
            assert!(wrapper < wrapper_count, "core {idx} assigned to unknown wrapper {wrapper}");
        }
        let mut jobs = Vec::with_capacity(self.tests.len() + wrapper_count);
        jobs.extend(
            self.tests
                .iter()
                .map(|(idx, job)| TestJob { group: Some(assignment[*idx] as u32), ..job.clone() }),
        );
        jobs.extend(self.self_tests.iter().take(wrapper_count).cloned());
        jobs
    }
}

/// Builds the delta jobs of one sharing candidate in one shot: the
/// [`AnalogDeltaTemplate`] of `cores` for `wrapper_count` wrappers,
/// instantiated for `assignment`. Sweeps over many candidates should keep
/// the template instead.
///
/// # Panics
///
/// Panics when `assignment` is shorter than `cores` or names a wrapper
/// `>= wrapper_count`.
pub fn analog_delta_jobs(
    cores: &[AnalogCoreSpec],
    assignment: &[usize],
    wrapper_count: usize,
    self_test_cycles: Option<u64>,
) -> Vec<TestJob> {
    AnalogDeltaTemplate::new(cores, wrapper_count, self_test_cycles).jobs(assignment, wrapper_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msoc_analog::paper_cores;
    use msoc_tam::{fingerprint_jobs, JobKind};

    #[test]
    fn identities_are_stable_across_assignments() {
        let cores = paper_cores();
        let shared = analog_delta_jobs(&cores, &[0, 0, 0, 0, 0], 1, None);
        let split = analog_delta_jobs(&cores, &[0, 1, 2, 3, 4], 5, None);
        assert_eq!(shared.len(), split.len());
        for (a, b) in shared.iter().zip(&split) {
            assert_eq!(a.label, b.label, "job identity must not depend on the grouping");
            assert_eq!(a.staircase, b.staircase);
            assert_eq!(a.kind, JobKind::Delta);
        }
        assert!(shared.iter().all(|j| j.group == Some(0)));
    }

    #[test]
    fn self_test_adds_one_session_per_wrapper() {
        let cores = paper_cores();
        let jobs = analog_delta_jobs(&cores, &[0, 1, 0, 1, 0], 2, Some(1000));
        let selftests: Vec<_> = jobs.iter().filter(|j| j.label.starts_with("selftest")).collect();
        assert_eq!(selftests.len(), 2);
        assert_eq!(selftests[0].group, Some(0));
        assert_eq!(selftests[1].group, Some(1));
    }

    /// The per-call formatter the template replaced, kept as the oracle.
    fn formatted_per_call(
        cores: &[AnalogCoreSpec],
        assignment: &[usize],
        wrapper_count: usize,
        self_test_cycles: Option<u64>,
    ) -> Vec<TestJob> {
        let mut jobs = Vec::new();
        for (idx, core) in cores.iter().enumerate() {
            for test in &core.tests {
                jobs.push(TestJob::delta_in_group(
                    format!("{}:{}", core.id, test.label()),
                    Staircase::from_points(vec![StaircasePoint {
                        width: test.tam_width,
                        time: test.cycles,
                    }]),
                    assignment[idx] as u32,
                ));
            }
        }
        if let Some(cycles) = self_test_cycles {
            for g in 0..wrapper_count {
                jobs.push(TestJob::delta_in_group(
                    format!("selftest:w{g}"),
                    Staircase::from_points(vec![StaircasePoint { width: 1, time: cycles }]),
                    g as u32,
                ));
            }
        }
        jobs
    }

    /// Every set partition of `n` items as a restricted growth string
    /// (`a[0] = 0`, `a[i] <= max(a[..i]) + 1`), with its block count.
    fn set_partitions(n: usize) -> Vec<(Vec<usize>, usize)> {
        let mut out = vec![(vec![0], 1)];
        for _ in 1..n {
            out = out
                .into_iter()
                .flat_map(|(a, blocks)| {
                    (0..=blocks).map(move |b| {
                        let mut next = a.clone();
                        next.push(b);
                        (next, blocks.max(b + 1))
                    })
                })
                .collect();
        }
        out
    }

    #[test]
    fn template_jobs_equal_the_per_call_formatter_on_every_partition() {
        let cores = paper_cores();
        let partitions = set_partitions(cores.len());
        assert_eq!(partitions.len(), 52, "Bell(5)");
        for self_test in [None, Some(1000)] {
            let template = AnalogDeltaTemplate::new(&cores, cores.len(), self_test);
            for (assignment, wrappers) in &partitions {
                let expected = formatted_per_call(&cores, assignment, *wrappers, self_test);
                for jobs in [
                    template.jobs(assignment, *wrappers),
                    analog_delta_jobs(&cores, assignment, *wrappers, self_test),
                ] {
                    assert_eq!(jobs.len(), expected.len());
                    for (got, want) in jobs.iter().zip(&expected) {
                        assert_eq!(got.label, want.label);
                        assert_eq!(got.staircase, want.staircase);
                        assert_eq!(got.group, want.group);
                        assert_eq!(got.kind, want.kind);
                    }
                    assert_eq!(fingerprint_jobs(&jobs), fingerprint_jobs(&expected));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown wrapper")]
    fn out_of_range_assignment_panics() {
        let cores = paper_cores();
        analog_delta_jobs(&cores, &[0, 0, 0, 0, 9], 2, None);
    }
}
