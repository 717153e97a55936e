//! Plan inputs derived from a SOC once and shared by every job that
//! plans it.
//!
//! Every job of one SOC needs the same planning inputs: the candidate
//! sharing configurations, each candidate's analog delta jobs with their
//! schedule-cache fingerprint, and the digital skeleton's staircases. A
//! [`PlanInputs`] memo derives each of them lazily, on first use, and
//! keeps it for the next job. A registered [`SocHandle`] owns one memo
//! for its lifetime (a [revision](SocHandle::revise) starts a fresh one);
//! an owned SOC, and a planner built on a bare SOC, get a fresh one per
//! run.
//!
//! The memo stays bounded by the SOC's size, whatever clients request:
//!
//! - one candidate list per [`Enumeration`];
//! - one analog delta template per `self_test_cycles` value, at most
//!   `VARIANT_CAP` of them (the oldest is dropped beyond that);
//! - delta jobs only for configurations in an enumerated candidate list
//!   (any other configuration is built per call);
//! - one [`StaircaseScan`] per digital module, scanned only as wide as a
//!   request has needed and never past the module's time floor. A
//!   width-`w` skeleton is a truncation of the scans.
//!
//! [`SocHandle`]: crate::SocHandle
//! [`SocHandle::revise`]: crate::SocHandle::revise

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use msoc_awrapper::AnalogDeltaTemplate;
use msoc_tam::{fingerprint_jobs, TestJob};
use msoc_wrapper::StaircaseScan;

use crate::partition::{self, SharingConfig};
use crate::planner::Enumeration;
use crate::soc::MixedSignalSoc;

/// Most `self_test_cycles` variants one memo keeps.
const VARIANT_CAP: usize = 4;

/// One candidate's delta jobs and their fingerprint: the delta half of a
/// schedule-cache key. Cheap to clone.
#[derive(Debug, Clone)]
pub(crate) struct DeltaJobs {
    pub(crate) jobs: Arc<[TestJob]>,
    pub(crate) fingerprint: u64,
}

impl DeltaJobs {
    fn new(jobs: Vec<TestJob>) -> Self {
        let fingerprint = fingerprint_jobs(&jobs);
        DeltaJobs { jobs: jobs.into(), fingerprint }
    }
}

/// The candidate configurations of one [`Enumeration`], with each one's
/// position.
#[derive(Debug)]
pub(crate) struct Candidates {
    pub(crate) configs: Vec<SharingConfig>,
    index: HashMap<SharingConfig, usize>,
}

/// The delta side of one `self_test_cycles` value.
#[derive(Debug)]
struct DeltaVariant {
    self_test_cycles: Option<u64>,
    template: AnalogDeltaTemplate,
    /// Per enumeration slot, one cell per candidate, in candidate order.
    deltas: [OnceLock<Box<[OnceLock<DeltaJobs>]>>; 2],
}

/// One digital module's skeleton label and staircase scan.
#[derive(Debug)]
struct ModuleStairs {
    label: String,
    scan: StaircaseScan,
}

/// The lazily filled plan-inputs memo of one SOC (see the module docs).
///
/// Every method takes the SOC the memo belongs to; passing another SOC
/// is a logic error.
#[derive(Debug, Default)]
pub(crate) struct PlanInputs {
    candidates: [OnceLock<Candidates>; 2],
    variants: Mutex<Vec<Arc<DeltaVariant>>>,
    /// One entry per `soc.digital.cores()` module, in that order; empty
    /// until the first skeleton request.
    stairs: RwLock<Vec<ModuleStairs>>,
}

fn slot(enumeration: Enumeration) -> usize {
    match enumeration {
        Enumeration::Paper => 0,
        Enumeration::All => 1,
    }
}

impl PlanInputs {
    /// The candidate configurations under `enumeration`.
    pub(crate) fn candidates(&self, soc: &MixedSignalSoc, enumeration: Enumeration) -> &Candidates {
        self.candidates[slot(enumeration)].get_or_init(|| {
            let classes = soc.analog_equivalence_classes();
            let configs = match enumeration {
                Enumeration::Paper => partition::enumerate_paper(soc.analog.len(), &classes),
                Enumeration::All => partition::enumerate_bell(soc.analog.len(), &classes),
            };
            let index = configs.iter().enumerate().map(|(i, c)| (c.clone(), i)).collect();
            Candidates { configs, index }
        })
    }

    /// The delta jobs of `config`: one grouped job per analog test plus,
    /// with `self_test_cycles`, one self-test session per wrapper.
    ///
    /// Memoised when `config` is in the `enumeration` candidate list and
    /// that list has already been enumerated; built per call otherwise.
    pub(crate) fn delta(
        &self,
        soc: &MixedSignalSoc,
        enumeration: Enumeration,
        self_test_cycles: Option<u64>,
        config: &SharingConfig,
    ) -> DeltaJobs {
        let variant = self.variant(soc, self_test_cycles);
        let build =
            || DeltaJobs::new(variant.template.jobs(&config.assignment(), config.wrapper_count()));
        let listed = self.candidates[slot(enumeration)]
            .get()
            .and_then(|set| set.index.get(config).map(|&i| (set.configs.len(), i)));
        match listed {
            Some((n, i)) => variant.deltas[slot(enumeration)]
                .get_or_init(|| (0..n).map(|_| OnceLock::new()).collect())[i]
                .get_or_init(build)
                .clone(),
            None => build(),
        }
    }

    /// The delta variant of `self_test_cycles`, created on first use.
    fn variant(&self, soc: &MixedSignalSoc, self_test_cycles: Option<u64>) -> Arc<DeltaVariant> {
        let mut variants = self.variants.lock().expect("plan inputs variants lock");
        if let Some(found) = variants.iter().find(|v| v.self_test_cycles == self_test_cycles) {
            return Arc::clone(found);
        }
        if variants.len() == VARIANT_CAP {
            variants.remove(0);
        }
        let analog = &soc.analog;
        let created = Arc::new(DeltaVariant {
            self_test_cycles,
            template: AnalogDeltaTemplate::new(analog, analog.len(), self_test_cycles),
            deltas: Default::default(),
        });
        variants.push(Arc::clone(&created));
        created
    }

    /// The skeleton of TAM width `w`: one job per digital core, its
    /// staircase up to `w`. Scans each module's staircase only as far as
    /// no earlier request has.
    pub(crate) fn skeleton(&self, soc: &MixedSignalSoc, w: u32) -> Vec<TestJob> {
        let build = |stairs: &[ModuleStairs]| -> Vec<TestJob> {
            stairs.iter().map(|m| TestJob::new(m.label.clone(), m.scan.truncated(w))).collect()
        };
        {
            let stairs = self.stairs.read().expect("plan inputs stairs lock");
            if !stairs.is_empty() && stairs.iter().all(|m| m.scan.covers(w)) {
                return build(&stairs);
            }
        }
        let mut stairs = self.stairs.write().expect("plan inputs stairs lock");
        if stairs.is_empty() {
            *stairs = soc
                .digital
                .cores()
                .map(|m| ModuleStairs { label: format!("m{}", m.id), scan: StaircaseScan::new(m) })
                .collect();
        }
        for (module, m) in soc.digital.cores().zip(stairs.iter_mut()) {
            m.scan.extend_to(module, w);
        }
        build(&stairs)
    }

    /// Staircase points held per digital module, in `cores()` order.
    #[cfg(test)]
    pub(crate) fn stair_points(&self) -> Vec<usize> {
        let stairs = self.stairs.read().expect("plan inputs stairs lock");
        stairs.iter().map(|m| m.scan.points().len()).collect()
    }

    /// Memoised delta-job entries over every variant and enumeration.
    #[cfg(test)]
    pub(crate) fn delta_entries(&self) -> usize {
        let variants = self.variants.lock().expect("plan inputs variants lock");
        variants
            .iter()
            .flat_map(|v| v.deltas.iter())
            .filter_map(OnceLock::get)
            .map(|cells| cells.iter().filter(|c| c.get().is_some()).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{CoreEdit, Job, JobBuilder, JobReport, PlanService, SocHandle};
    use crate::PlannerOptions;
    use msoc_tam::Effort;
    use msoc_wrapper::Staircase;

    fn quick() -> PlannerOptions {
        PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() }
    }

    /// Single, best-width and table jobs on whatever `builder` plans.
    fn jobs(builder: impl Fn() -> JobBuilder, opts: &PlannerOptions) -> Vec<Job> {
        let config = SharingConfig::new(5, vec![vec![0, 1, 4], vec![2, 3]]);
        vec![
            builder().single(16).opts(opts.clone()).build().unwrap(),
            builder()
                .best_width(vec![32, 16, 24])
                .config(config)
                .opts(opts.clone())
                .build()
                .unwrap(),
            builder().table(vec![16, 24]).opts(opts.clone()).build().unwrap(),
            builder().single(24).opts(opts.clone()).build().unwrap(),
        ]
    }

    /// Submits each job on its own, at one thread (so the session counters
    /// are exact), and keeps each outcome's result and stats.
    fn run(service: &PlanService, jobs: &[Job]) -> Vec<(crate::JobResult, crate::PlanStats)> {
        msoc_par::with_threads(1, || {
            jobs.iter()
                .map(|job| match service.submit(std::slice::from_ref(job)).pop().unwrap() {
                    crate::JobOutcome::Completed(JobReport { result, stats, .. }) => {
                        (result, stats)
                    }
                    other => panic!("expected completion, got {other:?}"),
                })
                .collect()
        })
    }

    /// Jobs on `handle`, each run twice on one service (the second pass
    /// reads a warm memo), against the same jobs on the inline SOC.
    fn assert_handle_matches_inline(handle: &SocHandle, opts: &PlannerOptions) {
        let soc = handle.soc().clone();
        let (on_handle, inline) = (PlanService::new(), PlanService::new());
        let handle_jobs = jobs(|| JobBuilder::for_handle(handle), opts);
        let inline_jobs = jobs(|| JobBuilder::new(soc.clone()), opts);
        for pass in 0..2 {
            assert_eq!(
                run(&on_handle, &handle_jobs),
                run(&inline, &inline_jobs),
                "pass {pass} of {opts:?}"
            );
        }
    }

    #[test]
    fn handle_outcomes_and_stats_are_bit_identical_to_inline_socs() {
        let service = PlanService::new();
        assert_handle_matches_inline(&service.register(MixedSignalSoc::d695m()), &quick());
    }

    #[test]
    fn enumerations_and_self_test_variants_share_no_entries_wrongly() {
        // One handle serves every variant in turn, then the first again; a
        // memo entry shared across variants would show as a difference
        // from the inline SOC's fresh per-job memo.
        let handle = PlanService::new().register(MixedSignalSoc::d695m());
        let all = PlannerOptions { enumeration: Enumeration::All, ..quick() };
        let bist = PlannerOptions { self_test_cycles: Some(50_000), ..quick() };
        let both = PlannerOptions { self_test_cycles: Some(50_000), ..all.clone() };
        for opts in [quick(), all, bist, both, quick()] {
            assert_handle_matches_inline(&handle, &opts);
        }
        assert!(handle.inputs().delta_entries() > 0, "the handle's memo was used");
    }

    #[test]
    fn a_revised_handle_never_sees_its_parents_memo() {
        let service = PlanService::new();
        let handle = service.register(MixedSignalSoc::d695m());
        run(&service, &jobs(|| JobBuilder::for_handle(&handle), &quick()));
        assert!(!handle.inputs().stair_points().is_empty());

        // A digital edit changes a skeleton staircase and an analog edit
        // the delta jobs, so a memo carried over would change results.
        let id = handle.soc().digital.cores().next().unwrap().id;
        let mut module = handle.soc().digital.module(id).unwrap().clone();
        module.scan_chains.iter_mut().for_each(|len| *len += 17);
        let mut core = handle.soc().analog[3].clone();
        core.tests[0].cycles += 900;
        let edits =
            [CoreEdit::ReplaceDigital { id, module }, CoreEdit::ReplaceAnalog { index: 3, core }];
        let revised = handle.revise(&edits).unwrap();
        assert!(revised.inputs().stair_points().is_empty(), "a revision starts an empty memo");

        let fresh_service = PlanService::new();
        let fresh = fresh_service.register(revised.soc().clone());
        let got = run(&service, &jobs(|| JobBuilder::for_handle(&revised), &quick()));
        let want = run(&fresh_service, &jobs(|| JobBuilder::for_handle(&fresh), &quick()));
        let results = |v: Vec<(crate::JobResult, crate::PlanStats)>| -> Vec<_> {
            v.into_iter().map(|(result, _)| result).collect()
        };
        assert_eq!(results(got), results(want));
    }

    #[test]
    fn the_memo_stays_bounded_by_the_soc() {
        let soc = MixedSignalSoc::p93791m();
        let inputs = PlanInputs::default();
        // Every width 1..=512, widest first and then upwards: each module
        // keeps at most its floor-width staircase.
        for w in [512].into_iter().chain(1..=511) {
            let skeleton = inputs.skeleton(&soc, w);
            if w % 97 == 0 {
                for (job, m) in skeleton.iter().zip(soc.digital.cores()) {
                    assert_eq!(job.staircase, Staircase::for_module(m, w));
                }
            }
        }
        for (points, m) in inputs.stair_points().into_iter().zip(soc.digital.cores()) {
            let full = Staircase::for_module(m, 512);
            assert_eq!(points, full.points().len());
            assert!(points as u32 <= full.max_useful_width());
        }

        // Delta jobs: only listed candidates are kept, once each.
        let listed = inputs.candidates(&soc, Enumeration::Paper).configs.clone();
        let outsider = SharingConfig::no_sharing(5);
        assert!(!listed.contains(&outsider));
        for _ in 0..3 {
            for config in listed.iter().chain([&outsider]) {
                inputs.delta(&soc, Enumeration::Paper, None, config);
            }
        }
        assert_eq!(inputs.delta_entries(), listed.len());

        // Client-chosen self-test lengths rotate through a fixed number
        // of variants.
        for cycles in 1..=3 * VARIANT_CAP as u64 {
            inputs.delta(&soc, Enumeration::Paper, Some(cycles), &listed[0]);
        }
        assert_eq!(inputs.variants.lock().unwrap().len(), VARIANT_CAP);
    }

    #[test]
    fn a_registration_allocates_an_empty_memo() {
        let handle = PlanService::new().register(MixedSignalSoc::d695m());
        let inputs = handle.inputs();
        assert!(inputs.candidates.iter().all(|c| c.get().is_none()));
        assert!(inputs.variants.lock().unwrap().is_empty());
        assert!(inputs.stair_points().is_empty());
    }
}
