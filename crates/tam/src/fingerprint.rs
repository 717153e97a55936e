//! Stable content fingerprints for scheduling inputs.
//!
//! A long-lived plan service keys its caches by *what is being scheduled*,
//! not by which in-memory object asked: two `ScheduleProblem`s (or two
//! [`PackSession`](crate::PackSession)s) with the same jobs, TAM width
//! and effort must hash to the same 64-bit fingerprint in every
//! process, on every platform, in every release. The default
//! `std::hash::Hasher` guarantees none of that (`RandomState` is seeded per
//! process), so fingerprints use an explicit FNV-1a stream over the
//! canonical byte encoding of the content.
//!
//! A fingerprint is a *fast discriminator*, not a proof of equality:
//! cache layers that must preserve bit-identical results (the plan
//! service's session and schedule caches) verify full content equality on
//! every fingerprint hit and treat a mismatch as a miss.

use crate::problem::{JobKind, ScheduleProblem, TestJob};
use crate::schedule::Effort;

/// Streaming FNV-1a (64-bit) over canonical little-endian encodings.
///
/// Deterministic across processes and platforms, unlike `DefaultHasher`.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher { state: Self::OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a length-prefixed string (the prefix keeps `["ab","c"]` and
    /// `["a","bc"]` distinct).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

/// Absorbs one job's identity minus the kind byte.
fn write_job_core(h: &mut StableHasher, job: &TestJob) {
    h.write_str(&job.label);
    h.write_u64(job.staircase.points().len() as u64);
    for p in job.staircase.points() {
        h.write_u32(p.width);
        h.write_u64(p.time);
    }
    match job.group {
        Some(g) => {
            h.write_u8(1);
            h.write_u32(g);
        }
        None => h.write_u8(0),
    }
}

/// Absorbs one job's full identity: label, staircase, group, kind.
fn write_job(h: &mut StableHasher, job: &TestJob) {
    write_job_core(h, job);
    h.write_u8(match job.kind {
        JobKind::Skeleton => 0,
        JobKind::Delta => 1,
    });
}

/// Absorbs a job slice (length-prefixed).
fn write_jobs(h: &mut StableHasher, jobs: &[TestJob]) {
    h.write_u64(jobs.len() as u64);
    for job in jobs {
        write_job(h, job);
    }
}

/// Stable content fingerprint of a job slice (labels, staircases, groups,
/// kinds) — the delta-side key of a plan service's schedule cache.
pub fn fingerprint_jobs(jobs: &[TestJob]) -> u64 {
    let mut h = StableHasher::new();
    write_jobs(&mut h, jobs);
    h.finish()
}

/// Combines ordered per-subtree fingerprints into one fingerprint
/// (length-prefixed, order-sensitive).
///
/// This is the incremental-revision primitive: a SOC handle keeps one
/// fingerprint per core subtree and recomputes only the dirty subtrees
/// after an edit; the combined SOC fingerprint is then rebuilt from the
/// cached leaves in O(cores) cheap u64 writes instead of re-hashing every
/// core's full content. The combination is *not* the same stream as
/// hashing the concatenated content — it is its own pinned encoding, so
/// subtree-combined keys and flat content keys never alias by accident.
pub fn combine_subtree_fingerprints(parts: &[u64]) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(parts.len() as u64);
    for &p in parts {
        h.write_u64(p);
    }
    h.finish()
}

/// The fingerprint of a [`SessionKey`](crate::SessionKey) built from
/// `(tam_width, skeleton, effort)`. The key computes it with this
/// function, and a service calls it directly to answer warm session
/// lookups allocation-free. Kinds are hashed as the key normalizes
/// them: every skeleton job becomes
/// [`JobKind::Skeleton`](crate::JobKind::Skeleton).
pub fn session_fingerprint(tam_width: u32, effort: Effort, skeleton: &[TestJob]) -> u64 {
    let mut h = StableHasher::new();
    h.write_u32(tam_width);
    h.write_u8(effort.code());
    h.write_u8(0); // reserved: the retired engine code
    h.write_u64(skeleton.len() as u64);
    for job in skeleton {
        write_job_core(&mut h, job);
        h.write_u8(0); // normalized JobKind::Skeleton
    }
    h.finish()
}

impl ScheduleProblem {
    /// Stable content fingerprint of the problem: TAM width plus every
    /// job's full identity (label, staircase, group, kind).
    ///
    /// Identical problems fingerprint identically in every process;
    /// distinct problems collide with probability ~2⁻⁶⁴. Cache layers that
    /// must stay exact verify content equality on fingerprint hits.
    ///
    /// # Examples
    ///
    /// ```
    /// let soc = msoc_itc02::synth::d695s();
    /// let a = msoc_tam::ScheduleProblem::from_soc(&soc, 16);
    /// let b = msoc_tam::ScheduleProblem::from_soc(&soc, 16);
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    /// assert_ne!(a.fingerprint(), msoc_tam::ScheduleProblem::from_soc(&soc, 24).fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u32(self.tam_width);
        write_jobs(&mut h, &self.jobs);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msoc_wrapper::{Staircase, StaircasePoint};

    fn job(label: &str, w: u32, t: u64, group: Option<u32>) -> TestJob {
        TestJob {
            label: label.into(),
            staircase: Staircase::from_points(vec![StaircasePoint { width: w, time: t }]),
            group,
            kind: JobKind::Skeleton,
        }
    }

    #[test]
    fn fingerprints_are_stable_across_calls_and_pinned() {
        let p = ScheduleProblem { tam_width: 8, jobs: vec![job("a", 2, 100, Some(3))] };
        assert_eq!(p.fingerprint(), p.fingerprint());
        // Pinned value: the encoding is part of the on-disk/cross-process
        // contract; changing it invalidates persisted caches knowingly.
        assert_eq!(p.fingerprint(), 0x5760_96df_7f54_c10f);
    }

    #[test]
    fn every_field_feeds_the_fingerprint() {
        let base = ScheduleProblem { tam_width: 8, jobs: vec![job("a", 2, 100, Some(3))] };
        let fp = base.fingerprint();

        let mut wider = base.clone();
        wider.tam_width = 9;
        assert_ne!(fp, wider.fingerprint());

        let renamed = ScheduleProblem { tam_width: 8, jobs: vec![job("b", 2, 100, Some(3))] };
        assert_ne!(fp, renamed.fingerprint());

        let regrouped = ScheduleProblem { tam_width: 8, jobs: vec![job("a", 2, 100, Some(4))] };
        assert_ne!(fp, regrouped.fingerprint());

        let ungrouped = ScheduleProblem { tam_width: 8, jobs: vec![job("a", 2, 100, None)] };
        assert_ne!(fp, ungrouped.fingerprint());

        let mut delta = base.clone();
        delta.jobs[0].kind = JobKind::Delta;
        assert_ne!(fp, delta.fingerprint());

        let slower = ScheduleProblem { tam_width: 8, jobs: vec![job("a", 2, 101, Some(3))] };
        assert_ne!(fp, slower.fingerprint());
    }

    #[test]
    fn label_boundaries_do_not_alias() {
        let a = ScheduleProblem {
            tam_width: 8,
            jobs: vec![job("ab", 1, 1, None), job("c", 1, 1, None)],
        };
        let b = ScheduleProblem {
            tam_width: 8,
            jobs: vec![job("a", 1, 1, None), job("bc", 1, 1, None)],
        };
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn subtree_combination_is_pinned_order_sensitive_and_length_prefixed() {
        let parts = [0xdead_beefu64, 0x1234_5678];
        assert_eq!(combine_subtree_fingerprints(&parts), combine_subtree_fingerprints(&parts));
        // Pinned value: part of the cross-process fingerprint contract.
        assert_eq!(combine_subtree_fingerprints(&parts), 0xc97a_14b4_3660_9f29);
        let swapped = [parts[1], parts[0]];
        assert_ne!(combine_subtree_fingerprints(&parts), combine_subtree_fingerprints(&swapped));
        // [a, b] must not alias [a] extended by writing b at the caller.
        assert_ne!(combine_subtree_fingerprints(&parts), combine_subtree_fingerprints(&parts[..1]));
        assert_ne!(combine_subtree_fingerprints(&[]), combine_subtree_fingerprints(&[0]));
    }

    #[test]
    fn session_fingerprint_is_stable_across_calls_and_pinned() {
        let mut jobs = vec![job("a", 2, 100, Some(3)), job("b", 1, 50, None)];
        jobs[1].kind = JobKind::Delta;
        let fp = || session_fingerprint(8, Effort::Standard, &jobs);
        assert_eq!(fp(), fp());
        // Pinned value: session shards, snapshot session records and the
        // schedule cache are keyed by it across processes.
        assert_eq!(fp(), 0xe7f0_a876_7a0d_09d0);
    }

    #[test]
    fn session_fingerprint_matches_a_constructed_session() {
        // Even for un-normalized (delta-kind) input: construction
        // normalizes kinds, and the helper hashes the normalized view.
        let mut jobs = vec![job("a", 2, 100, Some(3)), job("b", 1, 50, None)];
        jobs[1].kind = JobKind::Delta;
        for (w, effort) in [(8u32, Effort::Quick), (16, Effort::Thorough)] {
            let direct = session_fingerprint(w, effort, &jobs);
            let built = crate::SessionKey::new(w, jobs.clone(), effort).fingerprint();
            assert_eq!(direct, built, "w={w} {effort:?}");
        }
    }
}
