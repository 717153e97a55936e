//! Wrapper-sharing configurations (set partitions of the analog cores).
//!
//! A [`SharingConfig`] partitions the analog cores into wrapper groups:
//! every group of size ≥ 2 time-multiplexes one shared wrapper, singleton
//! groups keep dedicated wrappers. The paper evaluates 26 configurations
//! for its five cores — every partition of shape `{2,1,1,1}`, `{3,1,1}`,
//! `{4,1}`, `{3,2}` or `{5}`, with the identical cores A and B counted once
//! ([`enumerate_paper`]). [`enumerate_bell`] produces *all* set partitions
//! (including the `{2,2,1}` shapes and the no-sharing partition the paper
//! leaves out) for the extension experiments.

use std::fmt;

/// A wrapper-sharing configuration: a partition of analog-core indices
/// into wrapper groups.
///
/// Stored canonically: each group ascending, groups ordered by descending
/// size then by first member. [`fmt::Display`] renders groups of cores
/// `0..26` with the paper's letters, e.g. `{A,B,E}{C,D}` (singletons are
/// left implicit, matching the paper's tables; the all-singleton partition
/// renders as `no-sharing`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SharingConfig {
    groups: Vec<Vec<usize>>,
    n_cores: usize,
}

impl SharingConfig {
    /// Builds a configuration from groups over cores `0..n_cores`.
    ///
    /// # Panics
    ///
    /// Panics unless `groups` is an exact partition of `0..n_cores` (see
    /// [`Self::try_new`]).
    pub fn new(n_cores: usize, groups: Vec<Vec<usize>>) -> Self {
        SharingConfig::try_new(n_cores, groups).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a configuration from groups over cores `0..n_cores`, or
    /// says why `groups` is not an exact partition of `0..n_cores`: an
    /// empty group, an index out of range, a core in two groups, or a
    /// core in none.
    ///
    /// # Errors
    ///
    /// The violated condition, rendered.
    pub fn try_new(n_cores: usize, groups: Vec<Vec<usize>>) -> Result<Self, String> {
        let mut seen = vec![false; n_cores];
        for g in &groups {
            if g.is_empty() {
                return Err("empty wrapper group".into());
            }
            for &c in g {
                if c >= n_cores {
                    return Err(format!("core index {c} out of range {n_cores}"));
                }
                if std::mem::replace(&mut seen[c], true) {
                    return Err(format!("core {c} in two groups"));
                }
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err("every core needs a wrapper group".into());
        }
        let mut groups: Vec<Vec<usize>> = groups
            .into_iter()
            .map(|mut g| {
                g.sort_unstable();
                g
            })
            .collect();
        groups.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
        Ok(SharingConfig { groups, n_cores })
    }

    /// The partition with every core on its own wrapper (the `C_A = 100`
    /// reference of the paper's eq. 1).
    pub fn no_sharing(n_cores: usize) -> Self {
        SharingConfig::new(n_cores, (0..n_cores).map(|c| vec![c]).collect())
    }

    /// The partition with all cores on one wrapper (the paper's most
    /// time-constrained configuration, used to normalize `C_T`).
    pub fn all_shared(n_cores: usize) -> Self {
        SharingConfig::new(n_cores, vec![(0..n_cores).collect()])
    }

    /// The wrapper groups, canonically ordered.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Number of analog cores the configuration covers.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Number of wrappers used (the paper's *degree of sharing* key:
    /// fewer wrappers = more sharing).
    pub fn wrapper_count(&self) -> usize {
        self.groups.len()
    }

    /// Whether any wrapper is shared by two or more cores.
    pub fn has_sharing(&self) -> bool {
        self.groups.iter().any(|g| g.len() >= 2)
    }

    /// The wrapper-group index of each core: `assignment()[core] = group`.
    pub fn assignment(&self) -> Vec<usize> {
        let mut a = vec![0; self.n_cores];
        for (g_idx, g) in self.groups.iter().enumerate() {
            for &c in g {
                a[c] = g_idx;
            }
        }
        a
    }

    /// The *shape* of the configuration: the sizes of its shared groups
    /// (size ≥ 2), descending. Pairs have shape `[2]`, the paper's
    /// two-wrapper splits `[3, 2]`, the no-sharing partition `[]`.
    ///
    /// Configurations of equal shape have comparable area overhead, which
    /// is the paper's *degree of sharing* grouping key for the
    /// `Cost_Optimizer` heuristic.
    pub fn shape(&self) -> Vec<usize> {
        let mut s: Vec<usize> = self.groups.iter().map(Vec::len).filter(|&len| len >= 2).collect();
        s.sort_unstable_by(|a, b| b.cmp(a));
        s
    }

    /// A canonical signature under exchange of equivalent cores:
    /// `classes[c]` is the equivalence class of core `c` (e.g. identical
    /// cores A and B share a class). Two configurations with equal
    /// signatures are interchangeable for cost purposes.
    ///
    /// # Panics
    ///
    /// Panics if `classes.len() != n_cores()`.
    pub fn signature(&self, classes: &[usize]) -> Vec<Vec<usize>> {
        assert_eq!(classes.len(), self.n_cores, "one class per core");
        let mut sig: Vec<Vec<usize>> = self
            .groups
            .iter()
            .map(|g| {
                let mut s: Vec<usize> = g.iter().map(|&c| classes[c]).collect();
                s.sort_unstable();
                s
            })
            .collect();
        sig.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
        sig
    }
}

impl fmt::Display for SharingConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shared: Vec<&Vec<usize>> = self.groups.iter().filter(|g| g.len() >= 2).collect();
        if shared.is_empty() {
            return write!(f, "no-sharing");
        }
        for g in shared {
            write!(f, "{{")?;
            for (i, &c) in g.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                if c < 26 {
                    write!(f, "{}", (b'A' + c as u8) as char)?;
                } else {
                    write!(f, "#{c}")?;
                }
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// Enumerates all set partitions of `0..n_cores` (Bell-number many),
/// deduplicated under the given core-equivalence `classes`.
///
/// Includes the no-sharing partition. Pass distinct classes (e.g.
/// `[0,1,2,..]`) to disable deduplication.
///
/// # Panics
///
/// Panics if `classes.len() != n_cores` or `n_cores == 0`.
pub fn enumerate_bell(n_cores: usize, classes: &[usize]) -> Vec<SharingConfig> {
    assert!(n_cores > 0, "need at least one analog core");
    assert_eq!(classes.len(), n_cores, "one class per core");
    let mut out: Vec<SharingConfig> = Vec::new();
    let mut seen: std::collections::HashSet<Vec<Vec<usize>>> = Default::default();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    recurse(0, n_cores, &mut groups, &mut |gs| {
        let cfg = SharingConfig::new(n_cores, gs.to_vec());
        if seen.insert(cfg.signature(classes)) {
            out.push(cfg);
        }
    });
    out.sort();
    out
}

fn recurse(
    core: usize,
    n: usize,
    groups: &mut Vec<Vec<usize>>,
    emit: &mut impl FnMut(&[Vec<usize>]),
) {
    if core == n {
        emit(groups);
        return;
    }
    for i in 0..groups.len() {
        groups[i].push(core);
        recurse(core + 1, n, groups, emit);
        groups[i].pop();
    }
    groups.push(vec![core]);
    recurse(core + 1, n, groups, emit);
    groups.pop();
}

/// Enumerates the paper's candidate configurations: every partition whose
/// shape is `{2,1,…}`, `{3,1,…}`, `{4,1,…}`, `{3,2,1,…}` or `{n}`,
/// deduplicated under `classes`.
///
/// For five cores with two equivalent ones this yields exactly the 26
/// combinations of the paper's Table 1. The no-sharing partition and the
/// `{2,2,1}` shapes are excluded, as in the paper.
pub fn enumerate_paper(n_cores: usize, classes: &[usize]) -> Vec<SharingConfig> {
    enumerate_bell(n_cores, classes)
        .into_iter()
        .filter(|cfg| match cfg.shape().as_slice() {
            [s] => (2..=n_cores).contains(s),
            [3, 2] => true,
            _ => false,
        })
        .collect()
}

/// Groups configurations by [`SharingConfig::shape`] — the paper's
/// *degree of sharing* grouping for the `Cost_Optimizer` (Fig. 3, line 1).
///
/// Groups are ordered by their shape key. For the 26-configuration paper
/// set this yields the four groups the paper's evaluation counts imply —
/// pairs (7), triples (7), quads (4) and `{3,2}` splits (7) — plus the
/// singleton all-share group, which the optimizer treats as the
/// normalization baseline.
pub fn group_by_shape(configs: Vec<SharingConfig>) -> Vec<Vec<SharingConfig>> {
    let mut by_shape: std::collections::BTreeMap<Vec<usize>, Vec<SharingConfig>> =
        Default::default();
    for c in configs {
        by_shape.entry(c.shape()).or_default().push(c);
    }
    by_shape.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classes for the paper cores: A ≡ B.
    const PAPER_CLASSES: [usize; 5] = [0, 0, 1, 2, 3];
    /// All-distinct classes.
    const DISTINCT: [usize; 5] = [0, 1, 2, 3, 4];

    #[test]
    fn bell_counts_without_dedup() {
        // Bell numbers: B(1)=1, B(2)=2, B(3)=5, B(4)=15, B(5)=52.
        for (n, bell) in [(1usize, 1usize), (2, 2), (3, 5), (4, 15), (5, 52)] {
            let classes: Vec<usize> = (0..n).collect();
            assert_eq!(enumerate_bell(n, &classes).len(), bell, "B({n})");
        }
    }

    #[test]
    fn paper_enumeration_has_exactly_26_configs() {
        let configs = enumerate_paper(5, &PAPER_CLASSES);
        assert_eq!(configs.len(), 26);
        // Shape census: 7 pairs, 7 triples, 4 quads, 7 {3,2}, 1 all-share.
        let census = |shape: &[usize]| configs.iter().filter(|c| c.shape() == shape).count();
        assert_eq!(census(&[2]), 7);
        assert_eq!(census(&[3]), 7);
        assert_eq!(census(&[4]), 4);
        assert_eq!(census(&[3, 2]), 7);
        assert_eq!(census(&[5]), 1);
    }

    #[test]
    fn dedup_uses_equivalence_classes() {
        // Without dedup there are 10 pairs; with A≡B only 7 remain.
        let all = enumerate_paper(5, &DISTINCT);
        let pairs = |cfgs: &[SharingConfig]| {
            cfgs.iter()
                .filter(|c| {
                    c.groups().iter().filter(|g| g.len() == 2).count() == 1
                        && c.wrapper_count() == 4
                })
                .count()
        };
        assert_eq!(pairs(&all), 10);
        assert_eq!(pairs(&enumerate_paper(5, &PAPER_CLASSES)), 7);
    }

    #[test]
    fn display_matches_paper_notation() {
        let cfg = SharingConfig::new(5, vec![vec![0, 1, 4], vec![2, 3]]);
        assert_eq!(cfg.to_string(), "{A,B,E}{C,D}");
        assert_eq!(SharingConfig::no_sharing(3).to_string(), "no-sharing");
        assert_eq!(SharingConfig::all_shared(5).to_string(), "{A,B,C,D,E}");
    }

    #[test]
    fn canonical_form_is_order_insensitive() {
        let a = SharingConfig::new(4, vec![vec![2, 0], vec![3, 1]]);
        let b = SharingConfig::new(4, vec![vec![1, 3], vec![0, 2]]);
        assert_eq!(a, b);
    }

    #[test]
    fn assignment_inverts_groups() {
        let cfg = SharingConfig::new(5, vec![vec![0, 1, 4], vec![2, 3]]);
        let a = cfg.assignment();
        assert_eq!(a[0], a[1]);
        assert_eq!(a[0], a[4]);
        assert_eq!(a[2], a[3]);
        assert_ne!(a[0], a[2]);
    }

    #[test]
    fn shape_grouping_for_paper_set_matches_evaluation_counts() {
        let groups = group_by_shape(enumerate_paper(5, &PAPER_CLASSES));
        let sizes: Vec<(Vec<usize>, usize)> =
            groups.iter().map(|g| (g[0].shape(), g.len())).collect();
        // Pairs (7), triples (7), {3,2} splits (7), quads (4), all-share
        // (1, the baseline): these group sizes produce the paper's
        // evaluation counts of 10 = 4 + (7−1) and 7 = 4 + (4−1).
        assert_eq!(
            sizes,
            vec![(vec![2], 7), (vec![3], 7), (vec![3, 2], 7), (vec![4], 4), (vec![5], 1),]
        );
    }

    #[test]
    fn shape_of_special_partitions() {
        assert_eq!(SharingConfig::no_sharing(5).shape(), Vec::<usize>::new());
        assert_eq!(SharingConfig::all_shared(5).shape(), vec![5]);
        let cfg = SharingConfig::new(5, vec![vec![0, 1], vec![2, 3], vec![4]]);
        assert_eq!(cfg.shape(), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn overlapping_groups_panic() {
        SharingConfig::new(3, vec![vec![0, 1], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "every core")]
    fn missing_core_panics() {
        SharingConfig::new(3, vec![vec![0, 1]]);
    }

    #[test]
    fn try_new_names_the_violated_condition() {
        let err = |n, groups| SharingConfig::try_new(n, groups).unwrap_err();
        assert_eq!(err(2, vec![vec![0, 1], vec![]]), "empty wrapper group");
        assert_eq!(err(2, vec![vec![0, 2]]), "core index 2 out of range 2");
        assert_eq!(err(3, vec![vec![0, 1], vec![1, 2]]), "core 1 in two groups");
        assert_eq!(err(3, vec![vec![0, 1]]), "every core needs a wrapper group");
        assert_eq!(SharingConfig::try_new(1, vec![vec![0]]), Ok(SharingConfig::no_sharing(1)));
    }

    #[test]
    fn wrapper_count_and_sharing_flags() {
        assert_eq!(SharingConfig::all_shared(5).wrapper_count(), 1);
        assert_eq!(SharingConfig::no_sharing(5).wrapper_count(), 5);
        assert!(!SharingConfig::no_sharing(5).has_sharing());
        assert!(SharingConfig::all_shared(2).has_sharing());
    }
}
