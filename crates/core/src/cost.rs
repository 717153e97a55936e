//! The paper's cost model (eqs. 1–3).
//!
//! * **Area overhead cost** `C_A` (eq. 1): the effective wrapper area of a
//!   sharing configuration — `Σ_j (1+ρ_j)·area_j` over its wrappers —
//!   normalized to the no-sharing total `Σ_i a_i` and scaled to 100.
//! * **Test time cost** `C_T`: SOC test time normalized to the
//!   all-cores-share-one-wrapper configuration (the most constrained
//!   schedule) and scaled to 100.
//! * **Total cost** (eq. 2): `C = W_T·C_T + W_A·C_A` with `W_T + W_A = 1`.
//! * **Preliminary cost** (eq. 3): same blend, with the analog test-time
//!   *lower bound* standing in for the scheduled `C_T` — computable
//!   without running the TAM optimizer, which is what makes the paper's
//!   pruning heuristic cheap.

use msoc_analog::AnalogCoreSpec;
use msoc_awrapper::{AreaModel, IncompatibleSharing, SharedWrapper, SharingPolicy};

use crate::partition::SharingConfig;

/// The cost weighting factors `(W_T, W_A)` of the paper's eq. 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    w_time: f64,
    w_area: f64,
}

impl CostWeights {
    /// Creates weights; they must be non-negative and sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if a weight is negative or `w_time + w_area ≠ 1` (±1e-9)
    /// (see [`Self::try_new`]).
    pub fn new(w_time: f64, w_area: f64) -> Self {
        CostWeights::try_new(w_time, w_area).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates weights, or says why they are invalid: a negative (or
    /// NaN) weight, or `w_time + w_area ≠ 1` (±1e-9).
    ///
    /// # Errors
    ///
    /// The violated condition, rendered.
    pub fn try_new(w_time: f64, w_area: f64) -> Result<Self, String> {
        if !(w_time >= 0.0 && w_area >= 0.0) {
            return Err(format!("weights must be non-negative, got ({w_time}, {w_area})"));
        }
        // Both weights are non-negative numbers here, so the sum is not NaN.
        if ((w_time + w_area) - 1.0).abs() >= 1e-9 {
            return Err(format!("weights must sum to 1, got {w_time} + {w_area}"));
        }
        Ok(CostWeights { w_time, w_area })
    }

    /// `W_T = W_A = 0.5`.
    pub fn balanced() -> Self {
        CostWeights::new(0.5, 0.5)
    }

    /// Time-dominated weighting `(0.8, 0.2)`.
    pub fn time_heavy() -> Self {
        CostWeights::new(0.8, 0.2)
    }

    /// Area-dominated weighting `(0.2, 0.8)`.
    pub fn area_heavy() -> Self {
        CostWeights::new(0.2, 0.8)
    }

    /// Pure-makespan weighting `(1, 0)`: area is ignored entirely, which
    /// lets [`Planner::plan_table`](crate::Planner::plan_table) skip the
    /// all-share baseline packs (lazy baselines).
    pub fn time_only() -> Self {
        CostWeights::new(1.0, 0.0)
    }

    /// The test-time weight `W_T`.
    pub fn time(&self) -> f64 {
        self.w_time
    }

    /// The area weight `W_A`.
    pub fn area(&self) -> f64 {
        self.w_area
    }

    /// Blends the two cost components: `W_T·c_time + W_A·c_area`.
    pub fn blend(&self, c_time: f64, c_area: f64) -> f64 {
        self.w_time * c_time + self.w_area * c_area
    }
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights::balanced()
    }
}

/// Area overhead cost `C_A` of a sharing configuration (paper eq. 1):
/// `100 · Σ_j (1+ρ_j)·area_j / Σ_i a_i`.
///
/// The no-sharing configuration scores exactly 100; configurations whose
/// sharing overhead (larger shared wrappers plus routing) exceeds the
/// dedicated-wrapper total score above 100 and should be pruned by the
/// caller, as the paper prescribes.
///
/// # Errors
///
/// Returns [`IncompatibleSharing`] when a group violates the policy's
/// speed–resolution demand cap.
///
/// # Panics
///
/// Panics if `config.n_cores() != cores.len()`.
pub fn area_cost(
    config: &SharingConfig,
    cores: &[AnalogCoreSpec],
    model: &AreaModel,
    policy: &SharingPolicy,
) -> Result<f64, IncompatibleSharing> {
    assert_eq!(config.n_cores(), cores.len(), "config must cover every analog core");
    let mut shared_total = 0.0;
    for group in config.groups() {
        let members: Vec<&AnalogCoreSpec> = group.iter().map(|&c| &cores[c]).collect();
        let wrapper = SharedWrapper::build(&members, model, policy)?;
        shared_total += wrapper.effective_area();
    }
    let dedicated_total: f64 = cores.iter().map(|c| model.core_area(c)).sum();
    Ok(100.0 * shared_total / dedicated_total)
}

/// Analog test-time lower bound of a configuration, in cycles: the busiest
/// wrapper's serial chain, over *all* wrappers including dedicated ones.
/// This is the true scheduling bound.
pub fn analog_time_bound(config: &SharingConfig, cores: &[AnalogCoreSpec]) -> u64 {
    assert_eq!(config.n_cores(), cores.len(), "config must cover every analog core");
    config
        .groups()
        .iter()
        .map(|g| g.iter().map(|&c| cores[c].total_cycles()).sum())
        .max()
        .unwrap_or(0)
}

/// The paper's `T_LB`: the busiest *shared* wrapper's serial chain, in
/// cycles (0 when nothing is shared).
///
/// The paper's Table 1 tabulates this shared-only variant — its `{D,E}`
/// entry is the D+E chain even though core C's dedicated test is longer —
/// because the quantity ranks how much serialization pressure *sharing*
/// adds; dedicated chains are common to every configuration.
pub fn shared_time_bound(config: &SharingConfig, cores: &[AnalogCoreSpec]) -> u64 {
    assert_eq!(config.n_cores(), cores.len(), "config must cover every analog core");
    config
        .groups()
        .iter()
        .filter(|g| g.len() >= 2)
        .map(|g| g.iter().map(|&c| cores[c].total_cycles()).sum())
        .max()
        .unwrap_or(0)
}

/// [`shared_time_bound`] normalized to the all-share configuration's bound
/// (the total analog cycles) and scaled to 100 — the `T̄_LB` column of the
/// paper's Table 1.
pub fn normalized_time_bound(config: &SharingConfig, cores: &[AnalogCoreSpec]) -> f64 {
    let total: u64 = cores.iter().map(AnalogCoreSpec::total_cycles).sum();
    if total == 0 {
        return 0.0;
    }
    100.0 * shared_time_bound(config, cores) as f64 / total as f64
}

/// Test-time cost `C_T`: the scheduled makespan normalized to the
/// all-share configuration's makespan, scaled to 100.
///
/// # Panics
///
/// Panics if `t_max == 0`.
pub fn time_cost(makespan: u64, t_max: u64) -> f64 {
    assert!(t_max > 0, "normalization time must be positive");
    100.0 * makespan as f64 / t_max as f64
}

/// The paper's preliminary cost (eq. 3): the cost blend with the analog
/// lower bound in place of the scheduled time. Cheap to compute, used to
/// pick each group's representative in the `Cost_Optimizer`.
pub fn preliminary_cost(
    config: &SharingConfig,
    cores: &[AnalogCoreSpec],
    model: &AreaModel,
    policy: &SharingPolicy,
    weights: CostWeights,
) -> Result<f64, IncompatibleSharing> {
    let c_a = area_cost(config, cores, model, policy)?;
    Ok(weights.blend(normalized_time_bound(config, cores), c_a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msoc_analog::paper_cores;

    fn setup() -> (Vec<AnalogCoreSpec>, AreaModel, SharingPolicy) {
        (paper_cores(), AreaModel::paper_calibrated(), SharingPolicy::default())
    }

    fn cfg(groups: &[&[usize]]) -> SharingConfig {
        SharingConfig::new(5, groups.iter().map(|g| g.to_vec()).collect())
    }

    #[test]
    fn weights_validate_and_blend() {
        let w = CostWeights::new(0.25, 0.75);
        assert_eq!(w.time(), 0.25);
        assert!((w.blend(100.0, 50.0) - 62.5).abs() < 1e-12);
        assert_eq!(CostWeights::default(), CostWeights::balanced());
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_weight_sum_panics() {
        CostWeights::new(0.5, 0.6);
    }

    #[test]
    fn no_sharing_area_cost_is_exactly_100() {
        let (cores, model, policy) = setup();
        let c = area_cost(&SharingConfig::no_sharing(5), &cores, &model, &policy).unwrap();
        assert!((c - 100.0).abs() < 1e-9);
    }

    #[test]
    fn calibrated_area_costs_match_hand_computation() {
        let (cores, model, policy) = setup();
        // Areas {A:20,B:20,C:30,D:70,E:24}, Σ = 164, β = 0.2.
        let check = |groups: &[&[usize]], expected: f64| {
            let c = area_cost(&cfg(groups), &cores, &model, &policy).unwrap();
            assert!((c - expected).abs() < 1e-9, "{:?}: {c} vs {expected}", groups);
        };
        // {A,B}: (1.2·20 + 30 + 70 + 24) / 164.
        check(&[&[0, 1], &[2], &[3], &[4]], 100.0 * 148.0 / 164.0);
        // {A,B,E}{C,D}: (1.4·24 + 1.2·70) / 164.
        check(&[&[0, 1, 4], &[2, 3]], 100.0 * 117.6 / 164.0);
        // All shared: 1.8·70 / 164.
        check(&[&[0, 1, 2, 3, 4]], 100.0 * 126.0 / 164.0);
    }

    #[test]
    fn paper_winning_split_is_the_area_optimum() {
        // {A,B,E}{C,D} — the split the paper's Table 4 selects — carries
        // the smallest C_A of the 26 candidates under the calibration.
        let (cores, model, policy) = setup();
        let best = crate::partition::enumerate_paper(5, &[0, 0, 1, 2, 3])
            .into_iter()
            .map(|c| {
                let cost = area_cost(&c, &cores, &model, &policy).unwrap();
                (c, cost)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert_eq!(best.0.to_string(), "{A,B,E}{C,D}");
    }

    #[test]
    fn sharing_reduces_area_cost_below_100_everywhere_in_paper_set() {
        let (cores, model, policy) = setup();
        for config in crate::partition::enumerate_paper(5, &[0, 0, 1, 2, 3]) {
            let c = area_cost(&config, &cores, &model, &policy).unwrap();
            assert!(c < 100.0, "{config}: C_A = {c}");
            assert!(c > 0.0);
        }
    }

    #[test]
    fn time_bounds_reproduce_table1_anchors() {
        let (cores, ..) = setup();
        let t = |groups: &[&[usize]]| normalized_time_bound(&cfg(groups), &cores);
        // The paper's Table 1 values (±0.1 for rounding).
        assert!((t(&[&[0, 2], &[1], &[3], &[4]]) - 68.5).abs() < 0.1); // {A,C}
        assert!((t(&[&[2, 3], &[0], &[1], &[4]]) - 56.0).abs() < 0.1); // {C,D}
        assert!((t(&[&[3, 4], &[0], &[1], &[2]]) - 10.1).abs() < 0.1); // {D,E}
        assert!((t(&[&[0, 1], &[2], &[3], &[4]]) - 42.7).abs() < 0.1); // {A,B}
        assert!((t(&[&[0, 1, 2], &[3, 4]]) - 89.8).abs() < 0.1); // {A,B,C}{D,E}
        assert!((t(&[&[0, 1, 2, 3], &[4]]) - 98.7).abs() < 0.1); // {A,B,C,D}
        assert!((t(&[&[0, 1, 2, 3, 4]]) - 100.0).abs() < 1e-9); // all
    }

    #[test]
    fn analog_time_bound_takes_busiest_wrapper() {
        let (cores, ..) = setup();
        // {A,B}{C,D,E}: max(2·135969, 299785+56490+7900) = 364175.
        let b = analog_time_bound(&cfg(&[&[0, 1], &[2, 3, 4]]), &cores);
        assert_eq!(b, 364_175);
    }

    #[test]
    fn shared_bound_ignores_dedicated_wrappers() {
        let (cores, ..) = setup();
        // {D,E}: shared chain 56490+7900 even though C alone is longer.
        let de = cfg(&[&[3, 4], &[0], &[1], &[2]]);
        assert_eq!(shared_time_bound(&de, &cores), 64_390);
        assert_eq!(analog_time_bound(&de, &cores), 299_785);
        // No sharing: nothing contributes.
        assert_eq!(shared_time_bound(&SharingConfig::no_sharing(5), &cores), 0);
    }

    #[test]
    fn time_cost_normalizes_to_100() {
        assert!((time_cost(500, 1000) - 50.0).abs() < 1e-12);
        assert!((time_cost(1000, 1000) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn preliminary_cost_blends_bound_and_area() {
        let (cores, model, policy) = setup();
        let config = cfg(&[&[0, 1], &[2], &[3], &[4]]);
        let c =
            preliminary_cost(&config, &cores, &model, &policy, CostWeights::balanced()).unwrap();
        let expected = 0.5 * normalized_time_bound(&config, &cores)
            + 0.5 * area_cost(&config, &cores, &model, &policy).unwrap();
        assert!((c - expected).abs() < 1e-12);
    }
}
