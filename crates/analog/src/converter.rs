//! Data-converter models.
//!
//! Section 5 of the paper builds its analog test wrapper around an 8-bit
//! DAC–ADC pair with *modular* architectures (its Figure 4): the ADC is a
//! two-stage pipeline of 4-bit flash converters around a 4-bit DAC (32
//! comparators instead of the 255 a monolithic 8-bit flash would need), and
//! the DAC combines two 4-bit voltage-steering sub-DACs (an 8× reduction in
//! resistor count). This module models those architectures behaviorally and
//! accounts for their hardware cost, so the paper's area argument can be
//! regenerated (the `fig4` section of the `paper` report in `msoc-bench`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hardware cost of a converter in primitive components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HardwareCost {
    /// Number of comparators (the dominant ADC area term).
    pub comparators: u32,
    /// Number of resistors in ladders / steering networks.
    pub resistors: u32,
}

impl HardwareCost {
    /// Component-wise sum.
    pub fn plus(self, other: HardwareCost) -> HardwareCost {
        HardwareCost {
            comparators: self.comparators + other.comparators,
            resistors: self.resistors + other.resistors,
        }
    }
}

/// Clamp-and-round quantization shared by every ADC model.
fn quantize(v: f64, bits: u8, v_min: f64, v_max: f64) -> u16 {
    let levels = (1u32 << bits) - 1;
    let x = ((v - v_min) / (v_max - v_min)).clamp(0.0, 1.0);
    (x * f64::from(levels)).round() as u16
}

/// Code-to-voltage conversion shared by every DAC model.
fn unquantize(code: u16, bits: u8, v_min: f64, v_max: f64) -> f64 {
    let levels = (1u32 << bits) - 1;
    v_min + (v_max - v_min) * f64::from(code.min(levels as u16)) / f64::from(levels)
}

/// An ideal flash ADC of `bits` resolution over `[v_min, v_max]`.
///
/// A flash converter needs `2^bits − 1` comparators and `2^bits` ladder
/// resistors — the baseline the modular pipeline improves on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashAdc {
    bits: u8,
    v_min: f64,
    v_max: f64,
}

impl FlashAdc {
    /// Creates a flash ADC.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 16` and `v_min < v_max`.
    pub fn new(bits: u8, v_min: f64, v_max: f64) -> Self {
        assert!((1..=16).contains(&bits), "resolution must be 1..=16 bits");
        assert!(v_min < v_max, "voltage range must be non-empty");
        FlashAdc { bits, v_min, v_max }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Converts a voltage to a code in `0..2^bits`.
    pub fn convert(&self, v: f64) -> u16 {
        quantize(v, self.bits, self.v_min, self.v_max)
    }

    /// One least-significant-bit step in volts.
    pub fn lsb(&self) -> f64 {
        (self.v_max - self.v_min) / f64::from((1u32 << self.bits) - 1)
    }

    /// Hardware cost: `2^bits − 1` comparators, `2^bits` ladder resistors.
    pub fn hardware_cost(&self) -> HardwareCost {
        HardwareCost { comparators: (1u32 << self.bits) - 1, resistors: 1u32 << self.bits }
    }
}

/// An ideal voltage-steering DAC of `bits` resolution over `[v_min, v_max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageSteeringDac {
    bits: u8,
    v_min: f64,
    v_max: f64,
}

impl VoltageSteeringDac {
    /// Creates a DAC.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 16` and `v_min < v_max`.
    pub fn new(bits: u8, v_min: f64, v_max: f64) -> Self {
        assert!((1..=16).contains(&bits), "resolution must be 1..=16 bits");
        assert!(v_min < v_max, "voltage range must be non-empty");
        VoltageSteeringDac { bits, v_min, v_max }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Converts a code in `0..2^bits` to a voltage (codes clamp).
    pub fn convert(&self, code: u16) -> f64 {
        unquantize(code, self.bits, self.v_min, self.v_max)
    }

    /// Hardware cost: a monolithic steering network needs `2^bits` resistors.
    pub fn hardware_cost(&self) -> HardwareCost {
        HardwareCost { comparators: 0, resistors: 1u32 << self.bits }
    }
}

/// The paper's modular pipelined ADC (Fig. 4a): a coarse `bits/2` flash
/// stage, a reconstruction DAC, residue amplification by `2^(bits/2)`, and
/// a fine `bits/2` flash stage.
///
/// With ideal sub-blocks the pipeline is code-identical to a monolithic
/// flash of the same resolution, while using an order of magnitude fewer
/// comparators (e.g. 30 + a 16-resistor DAC instead of 255 for 8 bits).
///
/// # Examples
///
/// ```
/// use msoc_analog::converter::{FlashAdc, PipelinedAdc};
/// let flash = FlashAdc::new(8, 0.0, 4.0);
/// let pipe = PipelinedAdc::new(8, 0.0, 4.0);
/// for code in [0u16, 1, 127, 128, 254, 255] {
///     let v = 4.0 * f64::from(code) / 255.0;
///     assert_eq!(pipe.convert(v), flash.convert(v));
/// }
/// assert!(pipe.hardware_cost().comparators < flash.hardware_cost().comparators / 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PipelinedAdc {
    bits: u8,
    v_min: f64,
    v_max: f64,
    coarse: FlashAdc,
    dac: VoltageSteeringDac,
    fine: FlashAdc,
    /// Deterministic comparator threshold offsets of the coarse stage, in
    /// LSB of the *full* resolution (failure-injection hook; empty = ideal).
    coarse_offsets: Vec<f64>,
}

impl PipelinedAdc {
    /// Creates an ideal pipelined ADC.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is even, `2 <= bits <= 16`, and `v_min < v_max`.
    pub fn new(bits: u8, v_min: f64, v_max: f64) -> Self {
        assert!((2..=16).contains(&bits) && bits % 2 == 0, "bits must be even and 2..=16");
        assert!(v_min < v_max, "voltage range must be non-empty");
        let half = bits / 2;
        PipelinedAdc {
            bits,
            v_min,
            v_max,
            coarse: FlashAdc::new(half, v_min, v_max),
            dac: VoltageSteeringDac::new(half, v_min, v_max),
            fine: FlashAdc::new(half, v_min, v_max),
            coarse_offsets: Vec::new(),
        }
    }

    /// Injects random comparator offsets (standard deviation `sigma_lsb`
    /// full-resolution LSBs) into the coarse stage, seeded for
    /// reproducibility. Models the INL/DNL the paper's self-test mode would
    /// screen for.
    pub fn with_comparator_offsets(mut self, sigma_lsb: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = (1usize << (self.bits / 2)) - 1;
        self.coarse_offsets = (0..n)
            .map(|_| {
                // Sum of uniforms ≈ Gaussian; adequate for offset injection.
                let u: f64 = (0..12).map(|_| rng.gen_range(-0.5..0.5)).sum();
                u * sigma_lsb
            })
            .collect();
        self
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Full-scale LSB step in volts.
    pub fn lsb(&self) -> f64 {
        (self.v_max - self.v_min) / f64::from((1u32 << self.bits) - 1)
    }

    /// Converts a voltage to a code in `0..2^bits` through the two-stage
    /// pipeline.
    pub fn convert(&self, v: f64) -> u16 {
        let half = self.bits / 2;
        let radix = 1u16 << half;
        let span = self.v_max - self.v_min;

        // Coarse stage. The comparator thresholds sit half a full-scale LSB
        // below each radix boundary so that the ideal pipeline reproduces a
        // rounding flash quantizer exactly.
        let x = ((v - self.v_min) / span).clamp(0.0, 1.0);
        let scaled = x * f64::from((1u32 << self.bits) - 1);
        let mut msb = if self.coarse_offsets.is_empty() {
            ((scaled + 0.5) / f64::from(radix)).floor() as i32
        } else {
            // Re-derive the coarse decision from offset comparator
            // thresholds: threshold i sits at (i+1)·radix − ½ LSB + offset_i.
            let mut decision = 0;
            for (i, off) in self.coarse_offsets.iter().enumerate() {
                let threshold = f64::from((i as u16 + 1) * radix) - 0.5 + off;
                if scaled >= threshold {
                    decision = i as i32 + 1;
                }
            }
            decision
        };
        msb = msb.clamp(0, i32::from(radix) - 1);
        let msb = msb as u16;

        // Reconstruction + residue amplification by `radix`.
        let v1 = f64::from(msb * radix); // in full-scale LSB units
        let residue = scaled - v1;
        // With offset comparators the residue can leave the fine stage's
        // range; the clamp models the resulting (real) missing codes.
        let lsb_code = residue.round().clamp(0.0, f64::from(radix - 1)) as u16;

        msb * radix + lsb_code
    }

    /// Hardware cost: two half-resolution flash stages plus the
    /// reconstruction DAC.
    pub fn hardware_cost(&self) -> HardwareCost {
        self.coarse.hardware_cost().plus(self.fine.hardware_cost()).plus(self.dac.hardware_cost())
    }
}

/// The paper's modular DAC (Fig. 4b): an MSB sub-DAC plus an LSB sub-DAC
/// attenuated by `2^(bits/2)`, summed.
///
/// Code-identical to a monolithic DAC of the same resolution, with
/// `2·2^(bits/2)` resistors instead of `2^bits` (an 8× reduction at 8 bits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModularDac {
    bits: u8,
    v_min: f64,
    v_max: f64,
}

impl ModularDac {
    /// Creates a modular DAC.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is even, `2 <= bits <= 16`, and `v_min < v_max`.
    pub fn new(bits: u8, v_min: f64, v_max: f64) -> Self {
        assert!((2..=16).contains(&bits) && bits % 2 == 0, "bits must be even and 2..=16");
        assert!(v_min < v_max, "voltage range must be non-empty");
        ModularDac { bits, v_min, v_max }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Converts a code to a voltage via the MSB/LSB sub-DAC decomposition.
    pub fn convert(&self, code: u16) -> f64 {
        let half = self.bits / 2;
        let radix = 1u16 << half;
        let levels = f64::from((1u32 << self.bits) - 1);
        let code = code.min(((1u32 << self.bits) - 1) as u16);
        let msb = code / radix;
        let lsb = code % radix;
        let span = self.v_max - self.v_min;
        // V = span · (msb·radix + lsb) / levels — the LSB sub-DAC output is
        // attenuated by 1/radix relative to the MSB sub-DAC.
        self.v_min + span * (f64::from(msb) * f64::from(radix) + f64::from(lsb)) / levels
    }

    /// Hardware cost: two half-resolution steering networks.
    pub fn hardware_cost(&self) -> HardwareCost {
        HardwareCost { comparators: 0, resistors: 2 * (1u32 << (self.bits / 2)) }
    }
}

/// A modular DAC with voltage-steering element mismatch.
///
/// Each unit element of the MSB and LSB sub-DACs deviates from nominal by
/// a Gaussian-distributed relative error of standard deviation
/// `sigma_rel`, producing integral nonlinearity (INL). The transfer curve
/// is endpoint-corrected (gain and offset errors removed), so
/// [`inl_lsb`](Self::inl_lsb) is zero at both ends — the convention used
/// when characterizing production DACs.
///
/// # Examples
///
/// ```
/// use msoc_analog::converter::MismatchedDac;
/// let dac = MismatchedDac::new(8, 0.0, 4.0, 0.01, 7);
/// assert!(dac.max_inl_lsb() > 0.0);
/// // Endpoints are exact after correction.
/// assert!((dac.convert(0) - 0.0).abs() < 1e-12);
/// assert!((dac.convert(255) - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MismatchedDac {
    bits: u8,
    v_min: f64,
    v_max: f64,
    lut: Vec<f64>,
}

impl MismatchedDac {
    /// Creates a mismatched modular DAC with element errors of relative
    /// standard deviation `sigma_rel`, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is even, `2 <= bits <= 16`, and `v_min < v_max`.
    pub fn new(bits: u8, v_min: f64, v_max: f64, sigma_rel: f64, seed: u64) -> Self {
        assert!((2..=16).contains(&bits) && bits % 2 == 0, "bits must be even and 2..=16");
        assert!(v_min < v_max, "voltage range must be non-empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let half = bits / 2;
        let radix = 1usize << half;
        let mut gauss = move || -> f64 {
            let u: f64 = (0..12).map(|_| rng.gen_range(-0.5..0.5)).sum();
            u * sigma_rel
        };
        let msb_steps: Vec<f64> = (0..radix - 1).map(|_| 1.0 + gauss()).collect();
        let lsb_steps: Vec<f64> = (0..radix - 1).map(|_| 1.0 + gauss()).collect();

        // Cumulative raw transfer in (mismatched) LSB units, then
        // endpoint correction onto the nominal span.
        let levels = (1usize << bits) - 1;
        let cum = |steps: &[f64], k: usize| -> f64 { steps[..k].iter().sum() };
        let raw = |code: usize| -> f64 {
            let msb = code / radix;
            let lsb = code % radix;
            cum(&msb_steps, msb) * radix as f64 + cum(&lsb_steps, lsb)
        };
        let full = raw(levels);
        let span = v_max - v_min;
        let lut: Vec<f64> = (0..=levels).map(|code| v_min + span * raw(code) / full).collect();
        MismatchedDac { bits, v_min, v_max, lut }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Converts a code to a voltage through the mismatched transfer curve.
    pub fn convert(&self, code: u16) -> f64 {
        let max = self.lut.len() - 1;
        self.lut[usize::from(code).min(max)]
    }

    /// Integral nonlinearity per code, in LSB.
    pub fn inl_lsb(&self) -> Vec<f64> {
        let levels = self.lut.len() - 1;
        let lsb = (self.v_max - self.v_min) / levels as f64;
        self.lut
            .iter()
            .enumerate()
            .map(|(code, &v)| (v - (self.v_min + lsb * code as f64)) / lsb)
            .collect()
    }

    /// Maximum absolute INL over all codes, in LSB.
    pub fn max_inl_lsb(&self) -> f64 {
        self.inl_lsb().into_iter().map(f64::abs).fold(0.0, f64::max)
    }
}

/// A zero-order-hold sampler: holds each input sample for
/// `hold_ratio` output samples, modelling a DAC output observed at a
/// faster system clock.
pub fn zero_order_hold(samples: &[f64], hold_ratio: usize) -> Vec<f64> {
    assert!(hold_ratio > 0, "hold ratio must be at least 1");
    let mut out = Vec::with_capacity(samples.len() * hold_ratio);
    for &s in samples {
        out.extend(std::iter::repeat_n(s, hold_ratio));
    }
    out
}

/// Downsamples by an integer factor (take every `factor`-th sample),
/// modelling an ADC clocked slower than the system clock.
pub fn decimate(samples: &[f64], factor: usize) -> Vec<f64> {
    assert!(factor > 0, "decimation factor must be at least 1");
    samples.iter().step_by(factor).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const VMIN: f64 = 0.0;
    const VMAX: f64 = 4.0;

    #[test]
    fn flash_quantizes_endpoints_and_clamps() {
        let adc = FlashAdc::new(8, VMIN, VMAX);
        assert_eq!(adc.convert(-1.0), 0);
        assert_eq!(adc.convert(0.0), 0);
        assert_eq!(adc.convert(4.0), 255);
        assert_eq!(adc.convert(9.0), 255);
    }

    #[test]
    fn dac_adc_roundtrip_is_exact_on_codes() {
        let adc = FlashAdc::new(8, VMIN, VMAX);
        let dac = VoltageSteeringDac::new(8, VMIN, VMAX);
        for code in 0..=255u16 {
            assert_eq!(adc.convert(dac.convert(code)), code);
        }
    }

    #[test]
    fn quantization_error_is_within_half_lsb() {
        let adc = FlashAdc::new(8, VMIN, VMAX);
        let dac = VoltageSteeringDac::new(8, VMIN, VMAX);
        for i in 0..1000 {
            let v = VMIN + (VMAX - VMIN) * f64::from(i) / 1000.0;
            let err = (dac.convert(adc.convert(v)) - v).abs();
            assert!(err <= adc.lsb() / 2.0 + 1e-12, "v={v}: err {err}");
        }
    }

    #[test]
    fn pipeline_matches_flash_everywhere() {
        let flash = FlashAdc::new(8, VMIN, VMAX);
        let pipe = PipelinedAdc::new(8, VMIN, VMAX);
        for i in 0..=4000 {
            let v = VMIN - 0.1 + 4.2 * f64::from(i) / 4000.0;
            assert_eq!(pipe.convert(v), flash.convert(v), "v={v}");
        }
    }

    #[test]
    fn modular_dac_matches_monolithic_everywhere() {
        let mono = VoltageSteeringDac::new(8, VMIN, VMAX);
        let modular = ModularDac::new(8, VMIN, VMAX);
        for code in 0..=255u16 {
            assert!((mono.convert(code) - modular.convert(code)).abs() < 1e-12);
        }
    }

    #[test]
    fn fig4_hardware_savings() {
        // The paper: an 8-bit flash needs 2^8 comparators-ish (255); the
        // modular approach needs only 32-ish; resistors drop by 8x.
        let flash = FlashAdc::new(8, VMIN, VMAX);
        let pipe = PipelinedAdc::new(8, VMIN, VMAX);
        assert_eq!(flash.hardware_cost().comparators, 255);
        assert_eq!(pipe.hardware_cost().comparators, 30);
        let mono_dac = VoltageSteeringDac::new(8, VMIN, VMAX);
        let mod_dac = ModularDac::new(8, VMIN, VMAX);
        assert_eq!(mono_dac.hardware_cost().resistors / mod_dac.hardware_cost().resistors, 8);
    }

    #[test]
    fn comparator_offsets_perturb_but_small_offsets_are_harmless() {
        let ideal = PipelinedAdc::new(8, VMIN, VMAX);
        let tiny = PipelinedAdc::new(8, VMIN, VMAX).with_comparator_offsets(1e-6, 1);
        let gross = PipelinedAdc::new(8, VMIN, VMAX).with_comparator_offsets(8.0, 1);
        let mut diffs = 0u32;
        // 1999 is prime, so no sweep point lands exactly on a half-LSB
        // comparator threshold (where an infinitesimal offset legitimately
        // flips the decision).
        for i in 0..=1999 {
            let v = VMIN + (VMAX - VMIN) * f64::from(i) / 1999.0;
            assert_eq!(tiny.convert(v), ideal.convert(v));
            if gross.convert(v) != ideal.convert(v) {
                diffs += 1;
            }
        }
        assert!(diffs > 0, "gross offsets must disturb some codes");
    }

    #[test]
    fn offsets_are_seed_deterministic() {
        let a = PipelinedAdc::new(8, VMIN, VMAX).with_comparator_offsets(0.5, 42);
        let b = PipelinedAdc::new(8, VMIN, VMAX).with_comparator_offsets(0.5, 42);
        for i in 0..500 {
            let v = VMIN + (VMAX - VMIN) * f64::from(i) / 500.0;
            assert_eq!(a.convert(v), b.convert(v));
        }
    }

    #[test]
    fn mismatched_dac_with_zero_sigma_is_ideal() {
        let ideal = ModularDac::new(8, VMIN, VMAX);
        let matched = MismatchedDac::new(8, VMIN, VMAX, 0.0, 1);
        for code in 0..=255u16 {
            assert!((ideal.convert(code) - matched.convert(code)).abs() < 1e-12);
        }
        assert!(matched.max_inl_lsb() < 1e-9);
    }

    #[test]
    fn mismatched_dac_is_monotone_in_inl_and_seed_deterministic() {
        let small = MismatchedDac::new(8, VMIN, VMAX, 0.005, 3);
        let large = MismatchedDac::new(8, VMIN, VMAX, 0.05, 3);
        assert!(large.max_inl_lsb() > small.max_inl_lsb());
        let twin = MismatchedDac::new(8, VMIN, VMAX, 0.05, 3);
        assert_eq!(large, twin);
    }

    #[test]
    fn mismatched_dac_endpoints_are_corrected() {
        let dac = MismatchedDac::new(8, -1.0, 3.0, 0.03, 9);
        assert!((dac.convert(0) + 1.0).abs() < 1e-12);
        assert!((dac.convert(255) - 3.0).abs() < 1e-12);
        let inl = dac.inl_lsb();
        assert!(inl[0].abs() < 1e-9 && inl[255].abs() < 1e-9);
    }

    #[test]
    fn mismatched_dac_transfer_stays_monotonic_for_small_sigma() {
        // 1% element mismatch cannot reorder adjacent codes of a
        // voltage-steering ladder.
        let dac = MismatchedDac::new(8, VMIN, VMAX, 0.01, 5);
        for code in 0..255u16 {
            assert!(dac.convert(code + 1) > dac.convert(code), "non-monotone at {code}");
        }
    }

    #[test]
    fn hold_and_decimate_are_inverse_at_matching_ratios() {
        let x = vec![0.1, 0.5, -0.3];
        let held = zero_order_hold(&x, 4);
        assert_eq!(held.len(), 12);
        assert_eq!(decimate(&held, 4), x);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_pipeline_resolution_panics() {
        PipelinedAdc::new(7, VMIN, VMAX);
    }

    #[test]
    fn lsb_is_span_over_levels() {
        let adc = FlashAdc::new(8, 0.0, 2.55);
        assert!((adc.lsb() - 0.01).abs() < 1e-12);
    }
}
