//! Incremental SOC revisions: registered handles, core edits, and
//! subtree fingerprints.
//!
//! Fleet traffic rarely sends *new* SOCs: it re-plans SOCs that changed a
//! couple of cores since the last request. [`PlanService::register`]
//! turns a SOC into a [`SocHandle`] carrying one content fingerprint per
//! core subtree (digital modules and analog cores, hashed with the same
//! [`StableHasher`] stream the cache keys use) plus their
//! [combined](msoc_tam::combine_subtree_fingerprints) SOC fingerprint.
//! [`SocHandle::revise`] applies a batch of [`CoreEdit`]s and re-hashes
//! **only the dirty subtrees** — O(edits) content hashing instead of
//! O(cores) — then recombines the cached leaves.
//!
//! Planning a revised handle needs no special path: the service's session
//! and schedule caches key on content, so every `(config, width)` cell
//! whose problem content an edit did not touch re-hits automatically —
//! an analog-only edit keeps the whole digital skeleton (sessions, packed
//! checkpoints, the delta-prefix trie) warm, and an edit that only moves
//! area-model attributes (resolution, converter specs) re-hits the
//! schedule cache outright, repricing costs without packing anything.
//! Those hits are counted in
//! [`ServiceStats::revision_cache_hits`](super::ServiceStats::revision_cache_hits).

use std::sync::Arc;

use msoc_analog::AnalogCoreSpec;
use msoc_itc02::Module;
use msoc_tam::{combine_subtree_fingerprints, StableHasher};

use crate::planner::{PlanError, PlanInputs};
use crate::soc::MixedSignalSoc;

use super::PlanService;

/// One edit of a registered SOC (applied by [`SocHandle::revise`]).
#[derive(Debug, Clone, PartialEq)]
pub enum CoreEdit {
    /// Replace analog core `index` (the [`SharingConfig`] core index)
    /// with a new spec.
    ///
    /// [`SharingConfig`]: crate::SharingConfig
    ReplaceAnalog {
        /// Index into [`MixedSignalSoc::analog`].
        index: usize,
        /// The replacement core.
        core: AnalogCoreSpec,
    },
    /// Replace the digital module with the given id.
    ReplaceDigital {
        /// The [`Module::id`] to replace.
        id: u32,
        /// The replacement module (its id must match).
        module: Module,
    },
}

/// A registered SOC: the SOC plus cached per-core subtree fingerprints
/// and its revision lineage. Cheap to clone (the content is shared).
#[derive(Debug, Clone)]
pub struct SocHandle {
    inner: Arc<HandleInner>,
}

#[derive(Debug)]
struct HandleInner {
    soc: Arc<MixedSignalSoc>,
    /// One fingerprint per digital module, in `soc.digital.modules` order.
    digital_fps: Vec<u64>,
    /// One fingerprint per analog core, in `soc.analog` order.
    analog_fps: Vec<u64>,
    /// Combined SOC fingerprint (subtree leaves recombined).
    fingerprint: u64,
    /// 0 for a freshly registered SOC; parent revision + 1 after
    /// [`SocHandle::revise`].
    revision: u64,
    /// The plan inputs every job of this handle shares, filled lazily; a
    /// revision starts an empty one.
    inputs: Arc<PlanInputs>,
}

impl PlanService {
    /// Registers a SOC, computing its per-core subtree fingerprints once.
    /// The handle is the cheap way to resubmit (and
    /// [revise](SocHandle::revise)) the same SOC across many jobs.
    pub fn register(&self, soc: MixedSignalSoc) -> SocHandle {
        let digital_fps: Vec<u64> = soc.digital.modules.iter().map(fingerprint_module).collect();
        let analog_fps: Vec<u64> = soc.analog.iter().map(fingerprint_analog_core).collect();
        let fingerprint = combine_soc(&soc.name, &digital_fps, &analog_fps);
        SocHandle {
            inner: Arc::new(HandleInner {
                soc: Arc::new(soc),
                digital_fps,
                analog_fps,
                fingerprint,
                revision: 0,
                inputs: Arc::default(),
            }),
        }
    }
}

impl SocHandle {
    /// The registered SOC.
    pub fn soc(&self) -> &MixedSignalSoc {
        &self.inner.soc
    }

    /// Stable content fingerprint of the whole SOC (combined from the
    /// per-core subtree fingerprints; identical for identical content
    /// regardless of how many revisions produced it).
    pub fn fingerprint(&self) -> u64 {
        self.inner.fingerprint
    }

    /// The handle's plan-inputs memo.
    pub(crate) fn inputs(&self) -> &Arc<PlanInputs> {
        &self.inner.inputs
    }

    /// How many [`revise`](Self::revise) steps produced this handle
    /// (0 = registered directly).
    pub fn revision(&self) -> u64 {
        self.inner.revision
    }

    /// Applies a batch of edits, re-fingerprinting only the dirty core
    /// subtrees, and returns the revised handle (this handle is
    /// untouched — old and new revisions can be planned side by side).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::InvalidRequest`] for an out-of-range analog
    /// index, an unknown digital module id, or a replacement module whose
    /// id does not match the edit's.
    pub fn revise(&self, edits: &[CoreEdit]) -> Result<SocHandle, PlanError> {
        let mut soc = (*self.inner.soc).clone();
        let mut digital_fps = self.inner.digital_fps.clone();
        let mut analog_fps = self.inner.analog_fps.clone();
        for edit in edits {
            match edit {
                CoreEdit::ReplaceAnalog { index, core } => {
                    let slot = soc.analog.get_mut(*index).ok_or_else(|| {
                        PlanError::InvalidRequest(format!(
                            "analog core index {index} out of range ({} cores)",
                            self.inner.analog_fps.len()
                        ))
                    })?;
                    *slot = core.clone();
                    analog_fps[*index] = fingerprint_analog_core(core);
                }
                CoreEdit::ReplaceDigital { id, module } => {
                    if module.id != *id {
                        return Err(PlanError::InvalidRequest(format!(
                            "replacement module carries id {} but the edit names id {id}",
                            module.id
                        )));
                    }
                    let pos =
                        soc.digital.modules.iter().position(|m| m.id == *id).ok_or_else(|| {
                            PlanError::InvalidRequest(format!("no digital module with id {id}"))
                        })?;
                    soc.digital.modules[pos] = module.clone();
                    digital_fps[pos] = fingerprint_module(module);
                }
            }
        }
        let fingerprint = combine_soc(&soc.name, &digital_fps, &analog_fps);
        Ok(SocHandle {
            inner: Arc::new(HandleInner {
                soc: Arc::new(soc),
                digital_fps,
                analog_fps,
                fingerprint,
                revision: self.inner.revision + 1,
                inputs: Arc::default(),
            }),
        })
    }
}

/// Combines the subtree leaves (plus the SOC name) into the handle
/// fingerprint.
fn combine_soc(name: &str, digital_fps: &[u64], analog_fps: &[u64]) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(name);
    h.write_u64(combine_subtree_fingerprints(digital_fps));
    h.write_u64(combine_subtree_fingerprints(analog_fps));
    h.finish()
}

/// Content fingerprint of one digital module (everything that feeds its
/// wrapper design and staircase).
fn fingerprint_module(m: &Module) -> u64 {
    let mut h = StableHasher::new();
    h.write_u32(m.id);
    h.write_u32(m.level);
    h.write_u32(m.inputs);
    h.write_u32(m.outputs);
    h.write_u32(m.bidirs);
    h.write_u64(m.scan_chains.len() as u64);
    for &len in &m.scan_chains {
        h.write_u32(len);
    }
    h.write_u64(m.tests.len() as u64);
    for t in &m.tests {
        h.write_u64(t.patterns);
        h.write_u8(u8::from(t.scan_used));
        h.write_u8(u8::from(t.tam_used));
    }
    h.finish()
}

/// Content fingerprint of one analog core: identity, area-relevant
/// attributes *and* the test set (schedule-relevant content), so any
/// observable change dirties the subtree.
fn fingerprint_analog_core(core: &AnalogCoreSpec) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&core.id.to_string());
    h.write_str(core.name);
    h.write_u8(core.resolution_bits);
    h.write_u64(core.tests.len() as u64);
    for t in &core.tests {
        h.write_str(&t.kind.to_string());
        h.write_u64(t.f_low_hz.to_bits());
        h.write_u64(t.f_high_hz.to_bits());
        h.write_u64(t.sample_rate_hz.to_bits());
        h.write_u64(t.cycles);
        h.write_u32(t.tam_width);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> PlanService {
        PlanService::new()
    }

    #[test]
    fn revised_fingerprints_match_a_from_scratch_registration() {
        let handle = service().register(MixedSignalSoc::p93791m());
        let mut edited_core = handle.soc().analog[4].clone();
        edited_core.tests[0].cycles += 1000;
        let revised = handle
            .revise(&[CoreEdit::ReplaceAnalog { index: 4, core: edited_core.clone() }])
            .unwrap();
        // Incremental re-fingerprinting must agree with hashing the edited
        // SOC from scratch — the cached clean subtrees are trustworthy.
        let mut scratch_soc = MixedSignalSoc::p93791m();
        scratch_soc.analog[4] = edited_core;
        let scratch = service().register(scratch_soc);
        assert_eq!(revised.fingerprint(), scratch.fingerprint());
        assert_ne!(revised.fingerprint(), handle.fingerprint());
        assert_eq!(revised.revision(), 1);
        assert_eq!(scratch.revision(), 0);
    }

    #[test]
    fn identity_edits_keep_the_fingerprint() {
        let handle = service().register(MixedSignalSoc::d695m());
        let same = handle
            .revise(&[CoreEdit::ReplaceAnalog { index: 2, core: handle.soc().analog[2].clone() }])
            .unwrap();
        assert_eq!(same.fingerprint(), handle.fingerprint());
        assert_eq!(same.revision(), 1, "lineage still advances");
    }

    #[test]
    fn digital_edits_re_fingerprint_the_module_subtree() {
        let handle = service().register(MixedSignalSoc::d695m());
        let id = handle.soc().digital.cores().next().unwrap().id;
        let mut module = handle.soc().digital.module(id).unwrap().clone();
        module.tests[0].patterns += 7;
        let revised = handle.revise(&[CoreEdit::ReplaceDigital { id, module }]).unwrap();
        assert_ne!(revised.fingerprint(), handle.fingerprint());
    }

    #[test]
    fn bad_edits_are_invalid_requests() {
        let handle = service().register(MixedSignalSoc::d695m());
        let core = handle.soc().analog[0].clone();
        assert!(matches!(
            handle.revise(&[CoreEdit::ReplaceAnalog { index: 99, core }]),
            Err(PlanError::InvalidRequest(_))
        ));
        let module = handle.soc().digital.cores().next().unwrap().clone();
        assert!(matches!(
            handle.revise(&[CoreEdit::ReplaceDigital { id: 9999, module: module.clone() }]),
            Err(PlanError::InvalidRequest(_))
        ));
        let mismatched = CoreEdit::ReplaceDigital { id: module.id + 1, module };
        // id 9999 missing vs mismatched replacement id are both rejected.
        assert!(matches!(handle.revise(&[mismatched]), Err(PlanError::InvalidRequest(_))));
    }

    #[test]
    fn analog_revisions_re_hit_sessions_and_unchanged_content_re_hits_schedules() {
        use super::super::{JobBuilder, JobOutcome};
        use msoc_tam::Effort;

        let opts =
            || crate::PlannerOptions { effort: Effort::Quick, ..crate::PlannerOptions::default() };
        let service = service();
        let handle = service.register(MixedSignalSoc::d695m());
        let cold = JobBuilder::for_handle(&handle).single(16).opts(opts()).build().unwrap();
        service.submit(std::slice::from_ref(&cold));
        assert_eq!(service.stats().revision_cache_hits, 0, "unrevised traffic is not counted");

        // Edit two analog cores' test lengths: the digital skeleton is
        // untouched, so the revised job re-hits the session cache (warm
        // checkpoints + prefix trie) and only repacks deltas.
        let mut d = handle.soc().analog[3].clone();
        d.tests[0].cycles += 500;
        let mut e = handle.soc().analog[4].clone();
        e.tests[0].cycles += 500;
        let revised = handle
            .revise(&[
                CoreEdit::ReplaceAnalog { index: 3, core: d },
                CoreEdit::ReplaceAnalog { index: 4, core: e },
            ])
            .unwrap();
        let job = JobBuilder::for_handle(&revised).single(16).opts(opts()).build().unwrap();
        let outcome = service.submit(std::slice::from_ref(&job)).pop().unwrap();
        let stats = service.stats();
        assert!(stats.revision_cache_hits > 0, "revision must reuse warm content: {stats:?}");

        // And the revised result is bit-identical to a cold service's.
        let fresh = PlanService::new();
        let fresh_outcome = fresh.submit(std::slice::from_ref(&job)).pop().unwrap();
        match (outcome, fresh_outcome) {
            (JobOutcome::Completed(warm), JobOutcome::Completed(cold)) => {
                assert_eq!(warm.result.plan().unwrap(), cold.result.plan().unwrap());
            }
            other => panic!("both runs must complete: {other:?}"),
        }
    }

    #[test]
    fn area_only_edits_re_hit_the_schedule_cache_outright() {
        use super::super::JobBuilder;
        use msoc_tam::Effort;

        let opts =
            || crate::PlannerOptions { effort: Effort::Quick, ..crate::PlannerOptions::default() };
        let service = service();
        let handle = service.register(MixedSignalSoc::d695m());
        let cold = JobBuilder::for_handle(&handle).single(16).opts(opts()).build().unwrap();
        service.submit(std::slice::from_ref(&cold));
        let misses_cold = service.stats().schedule_misses;

        // Resolution is area-model input only: no schedule problem
        // changes, so the revised job re-plans without packing anything.
        let mut c = handle.soc().analog[2].clone();
        c.resolution_bits += 1;
        let revised = handle.revise(&[CoreEdit::ReplaceAnalog { index: 2, core: c }]).unwrap();
        assert_ne!(revised.fingerprint(), handle.fingerprint());
        let job = JobBuilder::for_handle(&revised).single(16).opts(opts()).build().unwrap();
        service.submit(std::slice::from_ref(&job));
        let stats = service.stats();
        assert_eq!(
            stats.schedule_misses, misses_cold,
            "an area-only revision must not pack: {stats:?}"
        );
        assert!(stats.revision_cache_hits > 0, "{stats:?}");
    }
}
