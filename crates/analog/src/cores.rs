//! The five analog cores of the paper's experimental SOC (its Table 2).
//!
//! The paper augments the ITC'02 `p93791` digital SOC with five analog
//! cores taken from a commercial baseband cellular-phone chip:
//!
//! * cores **A** and **B** — an identical pair of I-Q transmit paths
//!   (500 kHz bandwidth, six specification tests each),
//! * core **C** — a CODEC audio path (50 kHz bandwidth, three tests),
//! * core **D** — a baseband down-conversion path (three tests),
//! * core **E** — a general-purpose amplifier (two tests).
//!
//! Every test carries the sampling frequency, the test length in clock
//! cycles, and the TAM width requirement from the paper's Table 2. The
//! per-core cycle totals (A=B=135 969, C=299 785, D=56 490, E=7 900)
//! reproduce all normalized test-time lower bounds of the paper's Table 1.

use std::fmt;

/// Identifier of one of the five paper cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CoreId {
    /// I-Q transmit path (first of the identical pair).
    A,
    /// I-Q transmit path (second of the identical pair).
    B,
    /// CODEC audio path.
    C,
    /// Baseband down converter.
    D,
    /// General-purpose amplifier.
    E,
}

impl CoreId {
    /// All five cores in order.
    pub const ALL: [CoreId; 5] = [CoreId::A, CoreId::B, CoreId::C, CoreId::D, CoreId::E];

    /// Index 0..5 of the core.
    pub fn index(self) -> usize {
        match self {
            CoreId::A => 0,
            CoreId::B => 1,
            CoreId::C => 2,
            CoreId::D => 3,
            CoreId::E => 4,
        }
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            CoreId::A => 'A',
            CoreId::B => 'B',
            CoreId::C => 'C',
            CoreId::D => 'D',
            CoreId::E => 'E',
        };
        write!(f, "{c}")
    }
}

/// The specification a test measures (first column of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalogTestKind {
    /// Pass-band gain `A_PB`.
    PassbandGain,
    /// Cutoff frequency `f_c`.
    CutoffFrequency,
    /// Stop-band attenuation at specified frequencies (`A_1MHz`, `A_2MHz`).
    Attenuation,
    /// Third-order input intercept point `IIP3` (two-tone test).
    Iip3,
    /// DC offset `V_offset`.
    DcOffset,
    /// I/Q phase mismatch `φ_off`.
    PhaseMismatch,
    /// Total harmonic distortion `THD`.
    Thd,
    /// Gain `G_n`.
    Gain,
    /// Dynamic range `DR`.
    DynamicRange,
    /// Slew rate `SR`.
    SlewRate,
}

impl AnalogTestKind {
    /// Every kind in declaration order, so `ALL[kind as usize] == kind`
    /// (the kind's code in encoded SOCs).
    pub const ALL: [AnalogTestKind; 10] = [
        AnalogTestKind::PassbandGain,
        AnalogTestKind::CutoffFrequency,
        AnalogTestKind::Attenuation,
        AnalogTestKind::Iip3,
        AnalogTestKind::DcOffset,
        AnalogTestKind::PhaseMismatch,
        AnalogTestKind::Thd,
        AnalogTestKind::Gain,
        AnalogTestKind::DynamicRange,
        AnalogTestKind::SlewRate,
    ];
}

impl fmt::Display for AnalogTestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AnalogTestKind::PassbandGain => "A_PB",
            AnalogTestKind::CutoffFrequency => "f_c",
            AnalogTestKind::Attenuation => "A_att",
            AnalogTestKind::Iip3 => "IIP3",
            AnalogTestKind::DcOffset => "V_off",
            AnalogTestKind::PhaseMismatch => "phi_off",
            AnalogTestKind::Thd => "THD",
            AnalogTestKind::Gain => "G_n",
            AnalogTestKind::DynamicRange => "DR",
            AnalogTestKind::SlewRate => "SR",
        };
        write!(f, "{s}")
    }
}

/// One row of Table 2: a specification test of an analog core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogTestSpec {
    /// What the test measures.
    pub kind: AnalogTestKind,
    /// Lower stimulus frequency in Hz (0 for DC).
    pub f_low_hz: f64,
    /// Upper stimulus frequency in Hz (0 for DC).
    pub f_high_hz: f64,
    /// Sampling frequency the wrapper's converters run at, in Hz.
    pub sample_rate_hz: f64,
    /// Test length in clock cycles (the paper's sample count column).
    pub cycles: u64,
    /// TAM width requirement in wires.
    pub tam_width: u32,
}

impl AnalogTestSpec {
    /// Short label like `IIP3@8MHz` for schedules and reports.
    pub fn label(&self) -> String {
        format!("{}@{}", self.kind, format_hz(self.sample_rate_hz))
    }
}

/// An analog core with its test set (one block of Table 2) and the
/// converter requirements this workspace derives for the area model.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogCoreSpec {
    /// Which of the five paper cores this is.
    pub id: CoreId,
    /// Human-readable description from the paper.
    pub name: &'static str,
    /// ADC/DAC resolution the core's most demanding test needs, in bits.
    pub resolution_bits: u8,
    /// The core's specification tests.
    pub tests: Vec<AnalogTestSpec>,
}

impl AnalogCoreSpec {
    /// Total test time in clock cycles (sum over tests).
    pub fn total_cycles(&self) -> u64 {
        self.tests.iter().map(|t| t.cycles).sum()
    }

    /// Widest TAM requirement over the core's tests.
    pub fn max_tam_width(&self) -> u32 {
        self.tests.iter().map(|t| t.tam_width).max().unwrap_or(0)
    }

    /// Fastest sampling rate over the core's tests, in Hz.
    pub fn max_sample_rate_hz(&self) -> f64 {
        self.tests.iter().map(|t| t.sample_rate_hz).fold(0.0, f64::max)
    }
}

fn format_hz(hz: f64) -> String {
    if hz >= 1e6 {
        format!("{}MHz", hz / 1e6)
    } else if hz >= 1e3 {
        format!("{}kHz", hz / 1e3)
    } else {
        format!("{hz}Hz")
    }
}

fn spec(
    kind: AnalogTestKind,
    f_low_hz: f64,
    f_high_hz: f64,
    sample_rate_hz: f64,
    cycles: u64,
    tam_width: u32,
) -> AnalogTestSpec {
    AnalogTestSpec { kind, f_low_hz, f_high_hz, sample_rate_hz, cycles, tam_width }
}

/// The five analog cores of the paper's Table 2, verbatim.
///
/// # Examples
///
/// ```
/// let cores = msoc_analog::paper_cores();
/// assert_eq!(cores.len(), 5);
/// // Core totals drive every Table 1 lower bound of the paper.
/// assert_eq!(cores[0].total_cycles(), 135_969);
/// ```
pub fn paper_cores() -> Vec<AnalogCoreSpec> {
    use AnalogTestKind::*;
    let iq_transmit = |id| AnalogCoreSpec {
        id,
        name: "I-Q transmit path",
        resolution_bits: 8,
        tests: vec![
            spec(PassbandGain, 50e3, 50e3, 1.5e6, 50_000, 1),
            spec(CutoffFrequency, 45e3, 55e3, 1.5e6, 13_653, 4),
            spec(Attenuation, 1e6, 2e6, 8e6, 12_643, 2),
            spec(Iip3, 50e3, 250e3, 8e6, 26_973, 2),
            spec(DcOffset, 0.0, 0.0, 10e3, 700, 1),
            spec(PhaseMismatch, 200e3, 400e3, 15e6, 32_000, 4),
        ],
    };
    vec![
        iq_transmit(CoreId::A),
        iq_transmit(CoreId::B),
        AnalogCoreSpec {
            id: CoreId::C,
            name: "CODEC audio path",
            resolution_bits: 12,
            tests: vec![
                spec(PassbandGain, 20e3, 20e3, 640e3, 80_000, 1),
                spec(CutoffFrequency, 45e3, 55e3, 1.5e6, 136_533, 1),
                spec(Thd, 2e3, 31e3, 2.46e6, 83_252, 1),
            ],
        },
        AnalogCoreSpec {
            id: CoreId::D,
            name: "Baseband down converter",
            resolution_bits: 10,
            tests: vec![
                spec(Iip3, 3.25e6, 9.75e6, 78e6, 15_754, 10),
                spec(Gain, 26e6, 26e6, 26e6, 9_228, 4),
                spec(DynamicRange, 26e6, 26e6, 26e6, 31_508, 4),
            ],
        },
        AnalogCoreSpec {
            id: CoreId::E,
            name: "General purpose amplifier",
            resolution_bits: 8,
            tests: vec![
                spec(SlewRate, 69e6, 69e6, 69e6, 5_400, 5),
                spec(Gain, 8e6, 8e6, 8e6, 2_500, 1),
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_core_cycle_totals_match_the_paper() {
        let cores = paper_cores();
        let totals: Vec<u64> = cores.iter().map(AnalogCoreSpec::total_cycles).collect();
        assert_eq!(totals, vec![135_969, 135_969, 299_785, 56_490, 7_900]);
    }

    #[test]
    fn normalized_shares_reproduce_table1_lower_bounds() {
        // The paper's Table 1 T_LB values follow from the per-core shares of
        // the grand total; spot-check three of the table's anchors.
        let cores = paper_cores();
        let total: u64 = cores.iter().map(AnalogCoreSpec::total_cycles).sum();
        let share = |id: CoreId| 100.0 * cores[id.index()].total_cycles() as f64 / total as f64;
        assert!((share(CoreId::A) + share(CoreId::C) - 68.5).abs() < 0.1);
        assert!((share(CoreId::C) + share(CoreId::D) - 56.0).abs() < 0.1);
        assert!((share(CoreId::D) + share(CoreId::E) - 10.1).abs() < 0.1);
        let abcd = share(CoreId::A) * 2.0 + share(CoreId::C) + share(CoreId::D);
        assert!((abcd - 98.7).abs() < 0.1);
    }

    #[test]
    fn cores_a_and_b_are_identical_except_for_id() {
        let cores = paper_cores();
        assert_eq!(cores[0].tests, cores[1].tests);
        assert_ne!(cores[0].id, cores[1].id);
    }

    #[test]
    fn tam_widths_match_table2_maxima() {
        let cores = paper_cores();
        let widths: Vec<u32> = cores.iter().map(AnalogCoreSpec::max_tam_width).collect();
        assert_eq!(widths, vec![4, 4, 1, 10, 5]);
    }

    #[test]
    fn sample_rates_match_table2_maxima() {
        let cores = paper_cores();
        assert_eq!(cores[0].max_sample_rate_hz(), 15e6);
        assert_eq!(cores[2].max_sample_rate_hz(), 2.46e6);
        assert_eq!(cores[3].max_sample_rate_hz(), 78e6);
        assert_eq!(cores[4].max_sample_rate_hz(), 69e6);
    }

    #[test]
    fn labels_are_compact() {
        let cores = paper_cores();
        assert_eq!(cores[0].tests[0].label(), "A_PB@1.5MHz");
        assert_eq!(cores[3].tests[0].label(), "IIP3@78MHz");
        assert_eq!(format!("{}", CoreId::D), "D");
    }

    #[test]
    fn core_ids_index_in_order() {
        for (i, id) in CoreId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        for (i, &kind) in AnalogTestKind::ALL.iter().enumerate() {
            assert_eq!(kind as usize, i);
        }
    }
}
