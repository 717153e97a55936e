//! Wrapper area modelling.
//!
//! The paper's area-overhead cost (its eq. 1) needs, for every analog core,
//! the silicon area of a dedicated test wrapper, and for every shared
//! wrapper the area of a wrapper sized for the *most demanding* member
//! requirements (Section 3: resolution and encoder/decoder width are the
//! maxima over the sharing cores). The paper never published its per-core
//! areas, so this module provides two models:
//!
//! * [`AreaModel::physical`] — derives area from converter hardware
//!   (comparator and resistor counts of the modular architectures in
//!   `msoc_analog::converter`) with rate-dependent comparator sizing,
//! * [`AreaModel::paper_calibrated`] — fixed per-core relative areas
//!   `{A:20, B:20, C:30, D:70, E:24}` chosen so the sharing-cost structure
//!   reproduces the paper's qualitative Table 1/Table 4 behaviour (the
//!   `paper` report of `msoc-bench` holds both models' costs).

use msoc_analog::converter::{ModularDac, PipelinedAdc};
use msoc_analog::{AnalogCoreSpec, CoreId};

/// Converter requirements a wrapper must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WrapperRequirements {
    /// ADC/DAC resolution in bits.
    pub resolution_bits: u8,
    /// Fastest sampling rate the converters must sustain, in Hz.
    pub sample_rate_hz: f64,
    /// Widest TAM interface over the supported tests, in wires.
    pub tam_width: u32,
}

impl WrapperRequirements {
    /// Requirements of a dedicated wrapper for one core.
    pub fn of_core(core: &AnalogCoreSpec) -> Self {
        WrapperRequirements {
            resolution_bits: core.resolution_bits,
            sample_rate_hz: core.max_sample_rate_hz(),
            tam_width: core.max_tam_width(),
        }
    }

    /// Merges requirements: a shared wrapper takes the maximum resolution,
    /// rate and width of its members (paper, Section 3).
    pub fn merge(self, other: WrapperRequirements) -> Self {
        WrapperRequirements {
            resolution_bits: self.resolution_bits.max(other.resolution_bits),
            sample_rate_hz: self.sample_rate_hz.max(other.sample_rate_hz),
            tam_width: self.tam_width.max(other.tam_width),
        }
    }

    /// A speed–resolution demand figure (`2^bits × rate`); the sharing
    /// compatibility rule caps it.
    pub fn demand(&self) -> f64 {
        f64::from(1u32 << self.resolution_bits.min(31)) * self.sample_rate_hz
    }
}

/// Parameters of the physically-derived area model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalAreaParams {
    /// Relative area of one comparator at DC.
    pub comparator_area: f64,
    /// Relative area of one ladder/steering resistor.
    pub resistor_area: f64,
    /// Relative area per register bit (input + output registers).
    pub register_area_per_bit: f64,
    /// Fixed overhead: control logic, encoder/decoder, muxes.
    pub base_area: f64,
    /// Corner frequency of comparator speed-sizing: comparator area scales
    /// by `1 + sample_rate / corner`.
    pub speed_corner_hz: f64,
}

impl Default for PhysicalAreaParams {
    fn default() -> Self {
        PhysicalAreaParams {
            comparator_area: 0.25,
            resistor_area: 0.04,
            register_area_per_bit: 0.15,
            base_area: 6.0,
            // Low enough that the 78 MHz down-converter wrapper (core D)
            // out-weighs the 12-bit CODEC wrapper (core C), as the
            // calibrated areas assume.
            speed_corner_hz: 25e6,
        }
    }
}

/// How wrapper areas are obtained.
#[derive(Debug, Clone, PartialEq)]
pub enum AreaModel {
    /// Derive areas from converter hardware counts and sampling rate.
    Physical(PhysicalAreaParams),
    /// Fixed relative per-core areas, indexed by [`CoreId`].
    Calibrated {
        /// Relative area of a dedicated wrapper per core A..E.
        areas: [f64; 5],
    },
}

impl AreaModel {
    /// The physically-derived model with default parameters.
    pub fn physical() -> Self {
        AreaModel::Physical(PhysicalAreaParams::default())
    }

    /// The calibrated per-core areas used by the experiments
    /// (`{A:20, B:20, C:30, D:70, E:24}`; see module docs).
    pub fn paper_calibrated() -> Self {
        AreaModel::Calibrated { areas: [20.0, 20.0, 30.0, 70.0, 24.0] }
    }

    /// Area of a dedicated wrapper for `core`.
    pub fn core_area(&self, core: &AnalogCoreSpec) -> f64 {
        match self {
            AreaModel::Physical(p) => physical_area(p, WrapperRequirements::of_core(core)),
            AreaModel::Calibrated { areas } => areas[core.id.index()],
        }
    }

    /// Area of one wrapper shared by `members` (without routing overhead).
    ///
    /// The physical model sizes the wrapper for the merged requirements;
    /// the calibrated model takes the maximum member area, which is how the
    /// paper estimates shared-wrapper size.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn shared_area(&self, members: &[&AnalogCoreSpec]) -> f64 {
        assert!(!members.is_empty(), "a wrapper needs at least one member core");
        match self {
            AreaModel::Physical(p) => {
                let reqs = members
                    .iter()
                    .map(|c| WrapperRequirements::of_core(c))
                    .reduce(WrapperRequirements::merge)
                    .expect("members is non-empty");
                physical_area(p, reqs)
            }
            AreaModel::Calibrated { areas } => {
                members.iter().map(|c| areas[c.id.index()]).fold(0.0, f64::max)
            }
        }
    }

    /// Calibrated area by [`CoreId`], when available.
    pub fn area_of_id(&self, id: CoreId) -> Option<f64> {
        match self {
            AreaModel::Physical(_) => None,
            AreaModel::Calibrated { areas } => Some(areas[id.index()]),
        }
    }
}

/// Area for the merged requirements under the physical model.
fn physical_area(p: &PhysicalAreaParams, reqs: WrapperRequirements) -> f64 {
    // Round resolution up to the next even value — the modular pipeline
    // operates on half-resolution stages.
    let bits = reqs.resolution_bits.max(2).div_ceil(2) * 2;
    let adc = PipelinedAdc::new(bits.min(16), -1.0, 1.0).hardware_cost();
    let dac = ModularDac::new(bits.min(16), -1.0, 1.0).hardware_cost();
    let speed = 1.0 + reqs.sample_rate_hz / p.speed_corner_hz;
    let comparators = f64::from(adc.comparators) * p.comparator_area * speed;
    let resistors = f64::from(adc.resistors + dac.resistors) * p.resistor_area;
    // Input and output registers each hold one converter word.
    let registers = 2.0 * f64::from(bits) * p.register_area_per_bit;
    comparators + resistors + registers + p.base_area
}

#[cfg(test)]
mod tests {
    use super::*;
    use msoc_analog::paper_cores;

    #[test]
    fn requirements_merge_takes_maxima() {
        let a = WrapperRequirements { resolution_bits: 8, sample_rate_hz: 15e6, tam_width: 4 };
        let b = WrapperRequirements { resolution_bits: 12, sample_rate_hz: 2.5e6, tam_width: 1 };
        let m = a.merge(b);
        assert_eq!(m.resolution_bits, 12);
        assert_eq!(m.sample_rate_hz, 15e6);
        assert_eq!(m.tam_width, 4);
    }

    #[test]
    fn calibrated_areas_match_documented_values() {
        let cores = paper_cores();
        let m = AreaModel::paper_calibrated();
        let areas: Vec<f64> = cores.iter().map(|c| m.core_area(c)).collect();
        assert_eq!(areas, vec![20.0, 20.0, 30.0, 70.0, 24.0]);
        assert_eq!(m.area_of_id(CoreId::D), Some(70.0));
    }

    #[test]
    fn calibrated_shared_area_is_member_maximum() {
        let cores = paper_cores();
        let m = AreaModel::paper_calibrated();
        let cd = m.shared_area(&[&cores[2], &cores[3]]);
        assert_eq!(cd, 70.0);
    }

    #[test]
    fn physical_area_grows_with_resolution_and_speed() {
        let p = PhysicalAreaParams::default();
        let slow8 = physical_area(
            &p,
            WrapperRequirements { resolution_bits: 8, sample_rate_hz: 1e6, tam_width: 1 },
        );
        let fast8 = physical_area(
            &p,
            WrapperRequirements { resolution_bits: 8, sample_rate_hz: 80e6, tam_width: 1 },
        );
        let slow12 = physical_area(
            &p,
            WrapperRequirements { resolution_bits: 12, sample_rate_hz: 1e6, tam_width: 1 },
        );
        assert!(fast8 > slow8);
        assert!(slow12 > slow8);
    }

    #[test]
    fn physical_shared_area_at_least_max_member() {
        let cores = paper_cores();
        let m = AreaModel::physical();
        for i in 0..cores.len() {
            for j in (i + 1)..cores.len() {
                let shared = m.shared_area(&[&cores[i], &cores[j]]);
                let max_alone = m.core_area(&cores[i]).max(m.core_area(&cores[j]));
                assert!(
                    shared >= max_alone - 1e-12,
                    "sharing {}{} shrank the wrapper",
                    cores[i].id,
                    cores[j].id
                );
            }
        }
    }

    #[test]
    fn physical_model_orders_paper_cores_sensibly() {
        // D (10-bit @ 78 MHz) must dominate; A/B are the cheapest.
        let cores = paper_cores();
        let m = AreaModel::physical();
        let area = |i: usize| m.core_area(&cores[i]);
        assert!(area(3) > area(2), "D > C");
        assert!(area(3) > area(4), "D > E");
        assert!(area(2) > area(0), "C > A");
        assert!(area(4) > area(0), "E > A (faster sampling)");
        assert_eq!(area(0), area(1), "A and B are identical");
    }

    #[test]
    fn odd_resolution_rounds_up_to_even() {
        let p = PhysicalAreaParams::default();
        let a9 = physical_area(
            &p,
            WrapperRequirements { resolution_bits: 9, sample_rate_hz: 1e6, tam_width: 1 },
        );
        let a10 = physical_area(
            &p,
            WrapperRequirements { resolution_bits: 10, sample_rate_hz: 1e6, tam_width: 1 },
        );
        assert_eq!(a9, a10);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_share_panics() {
        AreaModel::paper_calibrated().shared_area(&[]);
    }
}
