//! Deterministic synthetic benchmark generation.
//!
//! The original ITC'02 benchmark files are not redistributable with this
//! workspace, so the experiments run on synthetic stand-ins generated here.
//! [`p93791s`] is calibrated so that its digital-only TAM schedule reproduces
//! the published makespan scale of `p93791` (≈2.0 M cycles at width 16 down
//! to ≈0.5 M cycles at width 64, dominated by a handful of large cores).
//!
//! [`random_soc`] produces arbitrary seeded SOCs for tests and fuzzing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{Module, Soc};

/// Calibrated synthetic stand-in for the ITC'02 `p93791` SOC.
///
/// 32 cores: one dominant core (id 6) holding about two thirds of the test
/// data, three mid-size cores (ids 17, 20, 27) and 28 small cores. The
/// function is deterministic: repeated calls return identical SOCs.
///
/// # Examples
///
/// ```
/// let soc = msoc_itc02::synth::p93791s();
/// assert_eq!(soc.cores().count(), 32);
/// ```
pub fn p93791s() -> Soc {
    let mut modules = Vec::with_capacity(32);

    for id in 1..=32u32 {
        modules.push(match id {
            6 => big_core(id),
            17 | 20 | 27 => mid_core(id),
            _ => small_core(id),
        });
    }

    Soc::new("p93791s", modules)
}

/// The dominant core: 46 near-uniform scan chains, 420 patterns.
fn big_core(id: u32) -> Module {
    let chains: Vec<u32> = (0..46).map(|i| 1060 + jitter(id, i, 70)).collect();
    Module::new_scan_core(id, 109, 32, 72, chains, 420)
}

/// Mid-size cores: 30 chains around 500 bits, 160 patterns.
fn mid_core(id: u32) -> Module {
    let chains: Vec<u32> = (0..30).map(|i| 470 + jitter(id, i, 60)).collect();
    Module::new_scan_core(id, 64 + (id % 5) * 8, 48, 16, chains, 160)
}

/// Small cores: 6–16 chains of 80–260 bits, 40–130 patterns.
fn small_core(id: u32) -> Module {
    let n_chains = 6 + (id * 7 % 11) as usize;
    let base = 80 + (id * 13 % 180);
    let chains: Vec<u32> = (0..n_chains as u32).map(|i| base + jitter(id, i, 40)).collect();
    let patterns = u64::from(40 + id * 11 % 91);
    Module::new_scan_core(id, 16 + id % 40, 12 + id % 30, id % 8, chains, patterns)
}

/// Small deterministic pseudo-jitter in `0..range`, stable across releases.
fn jitter(id: u32, i: u32, range: u32) -> u32 {
    // Weyl-style mix; quality is irrelevant, determinism is everything.
    (id.wrapping_mul(2654435761).wrapping_add(i.wrapping_mul(40503))) % range.max(1)
}

/// Mid-size synthetic stand-in for the ITC'02 `p22810` SOC.
///
/// 28 cores with a flatter test-data distribution than [`p93791s`]: the
/// largest core holds roughly a quarter of the data instead of two
/// thirds. Planning experiments that only ever see one dominance profile
/// can overfit to it; this SOC guards the planner's generality.
pub fn p22810s() -> Soc {
    let mut modules = Vec::with_capacity(28);
    for id in 1..=28u32 {
        modules.push(match id {
            1 => {
                // Largest core: ~25% of the volume.
                let chains: Vec<u32> = (0..24).map(|i| 380 + jitter(id, i, 40)).collect();
                Module::new_scan_core(id, 96, 64, 10, chains, 240)
            }
            5 | 12 | 21 => {
                let chains: Vec<u32> = (0..16).map(|i| 300 + jitter(id, i, 50)).collect();
                Module::new_scan_core(id, 50 + id, 40, 8, chains, 120)
            }
            _ => {
                let n_chains = 4 + (id * 5 % 9) as usize;
                let base = 60 + (id * 17 % 160);
                let chains: Vec<u32> =
                    (0..n_chains as u32).map(|i| base + jitter(id, i, 30)).collect();
                Module::new_scan_core(
                    id,
                    12 + id % 30,
                    10 + id % 24,
                    id % 6,
                    chains,
                    u64::from(30 + id * 7 % 80),
                )
            }
        });
    }
    Soc::new("p22810s", modules)
}

/// Small synthetic stand-in for the ITC'02 `d695` SOC (10 light cores).
///
/// Useful for fast unit and integration tests.
pub fn d695s() -> Soc {
    type CoreSpec = (u32, u32, u32, u32, &'static [u32], u64);
    let specs: [CoreSpec; 10] = [
        (1, 32, 32, 0, &[], 12),
        (2, 207, 108, 0, &[41, 41, 40, 40], 73),
        (3, 34, 1, 32, &[50, 50, 50], 75),
        (4, 36, 39, 0, &[54, 54, 54, 54], 105),
        (5, 38, 70, 0, &[45, 45, 45], 110),
        (6, 62, 152, 0, &[41, 41, 41, 40], 234),
        (7, 77, 150, 0, &[34, 34, 33], 95),
        (8, 35, 49, 0, &[46, 46], 97),
        (9, 55, 120, 0, &[54, 54, 54], 12),
        (10, 18, 30, 0, &[41, 41], 68),
    ];
    let modules = specs
        .iter()
        .map(|&(id, i, o, b, chains, p)| Module::new_scan_core(id, i, o, b, chains.to_vec(), p))
        .collect();
    Soc::new("d695s", modules)
}

/// Parameters for [`random_soc`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomSocParams {
    /// Number of cores to generate.
    pub cores: usize,
    /// Inclusive range of scan-chain counts per core.
    pub chains: (usize, usize),
    /// Inclusive range of scan-chain lengths.
    pub chain_len: (u32, u32),
    /// Inclusive range of pattern counts.
    pub patterns: (u64, u64),
    /// Inclusive range of functional input/output counts.
    pub terminals: (u32, u32),
}

impl Default for RandomSocParams {
    fn default() -> Self {
        RandomSocParams {
            cores: 12,
            chains: (1, 12),
            chain_len: (20, 400),
            patterns: (10, 300),
            terminals: (4, 120),
        }
    }
}

/// Generates a random SOC from a seed; identical seeds give identical SOCs.
///
/// # Examples
///
/// ```
/// use msoc_itc02::synth::{random_soc, RandomSocParams};
/// let a = random_soc(7, RandomSocParams::default());
/// let b = random_soc(7, RandomSocParams::default());
/// assert_eq!(a, b);
/// ```
pub fn random_soc(seed: u64, params: RandomSocParams) -> Soc {
    let mut rng = StdRng::seed_from_u64(seed);
    let modules = (1..=params.cores as u32)
        .map(|id| {
            let n_chains = rng.gen_range(params.chains.0..=params.chains.1);
            let chains: Vec<u32> = (0..n_chains)
                .map(|_| rng.gen_range(params.chain_len.0..=params.chain_len.1))
                .collect();
            Module::new_scan_core(
                id,
                rng.gen_range(params.terminals.0..=params.terminals.1),
                rng.gen_range(params.terminals.0..=params.terminals.1),
                0,
                chains,
                rng.gen_range(params.patterns.0..=params.patterns.1),
            )
        })
        .collect();
    Soc::new(format!("rand{seed}"), modules)
}

/// Generates a deterministic *fleet* of synthetic SOCs for multi-SOC
/// service workloads: `count` SOCs whose seeds derive from `seed` and
/// whose core counts cycle through distinct profiles around
/// `params.cores`, so a fleet exercises several digital-skeleton shapes
/// instead of `count` near-clones.
///
/// # Examples
///
/// ```
/// use msoc_itc02::synth::{random_fleet, RandomSocParams};
/// let fleet = random_fleet(7, 4, RandomSocParams::default());
/// assert_eq!(fleet.len(), 4);
/// assert_eq!(fleet, random_fleet(7, 4, RandomSocParams::default()));
/// let names: std::collections::HashSet<_> = fleet.iter().map(|s| s.name.clone()).collect();
/// assert_eq!(names.len(), 4, "fleet members are distinct SOCs");
/// ```
pub fn random_fleet(seed: u64, count: usize, params: RandomSocParams) -> Vec<Soc> {
    (0..count)
        .map(|i| {
            let mut p = params;
            // Cycle core counts through nearby profiles (never below 1).
            p.cores = (params.cores + i % 5).max(1);
            let mut soc = random_soc(seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64), p);
            soc.name = format!("fleet{seed}-{i}");
            soc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_deterministic_and_varied() {
        let fleet = random_fleet(3, 6, RandomSocParams::default());
        assert_eq!(fleet, random_fleet(3, 6, RandomSocParams::default()));
        let core_counts: std::collections::HashSet<usize> =
            fleet.iter().map(|s| s.cores().count()).collect();
        assert!(core_counts.len() >= 3, "fleet profiles should vary: {core_counts:?}");
        for soc in &fleet {
            assert_eq!(soc, &soc.to_string().parse::<Soc>().unwrap(), "fleet SOCs roundtrip");
        }
    }

    #[test]
    fn p93791s_is_deterministic() {
        assert_eq!(p93791s(), p93791s());
    }

    #[test]
    fn p93791s_has_32_cores_with_expected_dominance() {
        let soc = p93791s();
        assert_eq!(soc.cores().count(), 32);
        let big = soc.module(6).unwrap().test_data_volume();
        let total = soc.total_test_data_volume();
        let share = big as f64 / total as f64;
        assert!(
            (0.55..0.80).contains(&share),
            "dominant core share {share:.3} out of calibration band"
        );
    }

    #[test]
    fn p93791s_total_volume_matches_calibration_band() {
        // ~31 M wire-cycles of test data => ~1 M cycle makespan at width 32.
        let total = p93791s().total_test_data_volume();
        assert!((28_000_000..36_000_000).contains(&total), "total volume {total} out of band");
    }

    #[test]
    fn p93791s_roundtrips_through_format() {
        let soc = p93791s();
        assert_eq!(soc, soc.to_string().parse().unwrap());
    }

    #[test]
    fn p22810s_has_a_flatter_distribution_than_p93791s() {
        let soc = p22810s();
        assert_eq!(soc.cores().count(), 28);
        assert_eq!(soc, soc.to_string().parse().unwrap());
        let top = soc.module(1).unwrap().test_data_volume();
        let total = soc.total_test_data_volume();
        let share = top as f64 / total as f64;
        assert!(
            (0.10..0.45).contains(&share),
            "dominant-core share {share:.3} out of the flat-profile band"
        );
    }

    #[test]
    fn d695s_roundtrips_and_is_light() {
        let soc = d695s();
        assert_eq!(soc.cores().count(), 10);
        assert_eq!(soc, soc.to_string().parse().unwrap());
        assert!(soc.total_test_data_volume() < 1_000_000);
    }

    #[test]
    fn random_soc_is_seed_deterministic_and_in_bounds() {
        let p = RandomSocParams::default();
        let soc = random_soc(42, p);
        assert_eq!(soc, random_soc(42, p));
        for m in soc.cores() {
            assert!(m.scan_chains.len() >= p.chains.0 && m.scan_chains.len() <= p.chains.1);
            for &len in &m.scan_chains {
                assert!((p.chain_len.0..=p.chain_len.1).contains(&len));
            }
        }
    }

    #[test]
    fn random_socs_differ_across_seeds() {
        assert_ne!(
            random_soc(1, RandomSocParams::default()),
            random_soc(2, RandomSocParams::default())
        );
    }
}
