//! Fixed-width TAM buses: the classical baseline architecture.
//!
//! Section 4 of the reproduced paper motivates its flexible-width
//! scheduler by the weakness of fixed TAM buses: "when analog cores are
//! tested serially with digital cores on the same TAM partition, the
//! analog cores do not use all the TAM wires; consequently the overall
//! time taken to test the SOC is not optimized." This module implements
//! that baseline — the SOC TAM is partitioned into a few fixed-width
//! buses, every core is assigned to one bus, and tests on a bus run
//! serially — so the claim is measurable (the `ablation_buses` section of
//! the `paper` report in `msoc-bench`).

use crate::problem::ScheduleProblem;
use crate::schedule::{Schedule, ScheduleError, ScheduledTest};

/// A fixed partition of the SOC TAM into buses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusPartition {
    widths: Vec<u32>,
}

impl BusPartition {
    /// Creates a partition with the given bus widths.
    ///
    /// # Panics
    ///
    /// Panics if no buses are given or any bus has zero width.
    pub fn new(widths: Vec<u32>) -> Self {
        assert!(!widths.is_empty(), "at least one bus is required");
        assert!(widths.iter().all(|&w| w > 0), "buses need nonzero width");
        BusPartition { widths }
    }

    /// Splits `total` wires into `buses` buses as evenly as possible.
    ///
    /// # Panics
    ///
    /// Panics if `buses == 0` or `total < buses`.
    pub fn equal(total: u32, buses: usize) -> Self {
        assert!(buses > 0, "at least one bus is required");
        assert!(total as usize >= buses, "every bus needs at least one wire");
        let base = total / buses as u32;
        let extra = (total % buses as u32) as usize;
        BusPartition::new((0..buses).map(|i| base + u32::from(i < extra)).collect())
    }

    /// The bus widths.
    pub fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// Total wires used by the partition.
    pub fn total_width(&self) -> u32 {
        self.widths.iter().sum()
    }
}

/// Schedules `problem` on fixed buses: jobs are assigned to buses by
/// longest-processing-time-first, tests on one bus run back to back, and
/// jobs sharing a serialization group are pinned to one bus (which
/// enforces their mutual exclusion for free).
///
/// # Errors
///
/// Returns [`ScheduleError::JobTooWide`] when a job fits no bus.
///
/// # Panics
///
/// Panics if the partition is wider than the problem's TAM.
pub fn schedule_fixed_buses(
    problem: &ScheduleProblem,
    partition: &BusPartition,
) -> Result<Schedule, ScheduleError> {
    assert!(
        partition.total_width() <= problem.tam_width,
        "bus partition exceeds the SOC TAM width"
    );
    let widths = partition.widths();

    // Order: longest minimum test time first (LPT).
    let mut order: Vec<usize> = (0..problem.jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(problem.jobs[i].staircase.time_at(problem.tam_width)));

    let mut bus_load = vec![0u64; widths.len()];
    let mut group_bus: std::collections::HashMap<u32, usize> = Default::default();
    let mut entries: Vec<ScheduledTest> = Vec::with_capacity(problem.jobs.len());

    for job_idx in order {
        let job = &problem.jobs[job_idx];
        // Candidate buses: wide enough, and the group's pinned bus if any.
        let pinned = job.group.and_then(|g| group_bus.get(&g).copied());
        let chosen = match pinned {
            Some(b) => {
                if job.staircase.min_width() > widths[b] {
                    return Err(ScheduleError::JobTooWide {
                        job: job_idx,
                        min_width: job.staircase.min_width(),
                        tam_width: widths[b],
                    });
                }
                b
            }
            None => {
                let mut best: Option<(u64, usize)> = None;
                for (b, &w) in widths.iter().enumerate() {
                    let Some(point) = job.staircase.point_at(w) else { continue };
                    let finish = bus_load[b] + point.time;
                    if best.is_none_or(|(f, _)| finish < f) {
                        best = Some((finish, b));
                    }
                }
                best.ok_or(ScheduleError::JobTooWide {
                    job: job_idx,
                    min_width: job.staircase.min_width(),
                    tam_width: *widths.iter().max().expect("non-empty partition"),
                })?
                .1
            }
        };
        let point = job.staircase.point_at(widths[chosen]).expect("width checked above");
        entries.push(ScheduledTest {
            job: job_idx,
            width: point.width,
            start: bus_load[chosen],
            end: bus_load[chosen] + point.time,
        });
        bus_load[chosen] += point.time;
        if let Some(g) = job.group {
            group_bus.insert(g, chosen);
        }
    }

    entries.sort_by_key(|e| (e.start, e.job));
    let makespan = bus_load.iter().copied().max().unwrap_or(0);
    Ok(Schedule::from_parts(problem.tam_width, makespan, entries))
}

/// Tries equal partitions with 1..=`max_buses` buses and returns the best
/// fixed-bus schedule found.
///
/// # Errors
///
/// Returns the last [`ScheduleError`] if no bus count produced a feasible
/// schedule.
pub fn best_fixed_bus_schedule(
    problem: &ScheduleProblem,
    max_buses: usize,
) -> Result<(BusPartition, Schedule), ScheduleError> {
    let mut best: Option<(BusPartition, Schedule)> = None;
    let mut last_err = None;
    for k in 1..=max_buses.max(1) {
        if (problem.tam_width as usize) < k {
            break;
        }
        let partition = BusPartition::equal(problem.tam_width, k);
        match schedule_fixed_buses(problem, &partition) {
            Ok(s) => {
                if best.as_ref().is_none_or(|(_, b)| s.makespan() < b.makespan()) {
                    best = Some((partition, s));
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    best.ok_or_else(|| last_err.expect("either a schedule or an error exists"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::TestJob;
    use crate::schedule;
    use msoc_wrapper::{Staircase, StaircasePoint};

    fn single(width: u32, time: u64) -> Staircase {
        Staircase::from_points(vec![StaircasePoint { width, time }])
    }

    #[test]
    fn equal_partition_distributes_remainder() {
        let p = BusPartition::equal(10, 3);
        assert_eq!(p.widths(), &[4, 3, 3]);
        assert_eq!(p.total_width(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one bus")]
    fn zero_buses_panics() {
        BusPartition::equal(8, 0);
    }

    #[test]
    fn serializes_within_a_bus() {
        let problem = ScheduleProblem {
            tam_width: 4,
            jobs: vec![TestJob::new("a", single(2, 100)), TestJob::new("b", single(2, 50))],
        };
        // One bus of width 4: everything serial even though both fit.
        let s = schedule_fixed_buses(&problem, &BusPartition::new(vec![4])).unwrap();
        s.validate(&problem).unwrap();
        assert_eq!(s.makespan(), 150);
        // Two buses of width 2: parallel.
        let s = schedule_fixed_buses(&problem, &BusPartition::equal(4, 2)).unwrap();
        assert_eq!(s.makespan(), 100);
    }

    #[test]
    fn group_members_share_a_bus_and_serialize() {
        let problem = ScheduleProblem {
            tam_width: 8,
            jobs: vec![
                TestJob::in_group("a", single(1, 60), 0),
                TestJob::in_group("b", single(1, 40), 0),
                TestJob::new("c", single(1, 10)),
            ],
        };
        let s = schedule_fixed_buses(&problem, &BusPartition::equal(8, 4)).unwrap();
        s.validate(&problem).unwrap();
        assert_eq!(s.makespan(), 100); // 60+40 on one bus
    }

    #[test]
    fn job_wider_than_every_bus_errors() {
        let problem =
            ScheduleProblem { tam_width: 8, jobs: vec![TestJob::new("wide", single(6, 10))] };
        let err = schedule_fixed_buses(&problem, &BusPartition::equal(8, 2)).unwrap_err();
        assert!(matches!(err, ScheduleError::JobTooWide { .. }));
        // With one wide bus it fits.
        assert!(schedule_fixed_buses(&problem, &BusPartition::new(vec![8])).is_ok());
    }

    #[test]
    fn flexible_scheduler_beats_fixed_buses_on_a_real_soc() {
        // The paper's §4 argument, measured.
        let soc = msoc_itc02::synth::d695s();
        let problem = ScheduleProblem::from_soc(&soc, 16);
        let flexible = schedule(&problem).unwrap();
        let (_, fixed) = best_fixed_bus_schedule(&problem, 6).unwrap();
        fixed.validate(&problem).unwrap();
        assert!(
            flexible.makespan() < fixed.makespan(),
            "flexible {} vs fixed {}",
            flexible.makespan(),
            fixed.makespan()
        );
    }

    #[test]
    fn best_fixed_bus_picks_the_better_bus_count() {
        let problem = ScheduleProblem {
            tam_width: 8,
            jobs: vec![TestJob::new("a", single(4, 100)), TestJob::new("b", single(4, 100))],
        };
        let (partition, s) = best_fixed_bus_schedule(&problem, 4).unwrap();
        assert_eq!(s.makespan(), 100);
        assert_eq!(partition.widths().len(), 2);
    }
}
