//! Analog test wrapper model.
//!
//! The reproduced paper wraps each analog core with a reconfigurable test
//! wrapper (its Figure 1): an on-chip DAC drives the core input, an on-chip
//! ADC digitizes the core output, and serial/parallel registers plus an
//! encoder/decoder couple both converters to a *digital* TAM, so the analog
//! core becomes a virtual digital core. A digital test control circuit
//! selects, per test, the TAM clock divide ratio, the serial-to-parallel
//! conversion ratio and the test mode.
//!
//! This crate models:
//!
//! * [`config`] — per-test wrapper configuration (modes, divide ratios,
//!   serial-parallel ratios) derived from the test specifications,
//! * [`area`] — the wrapper area model feeding the paper's area-overhead
//!   cost `C_A` (eq. 1), with both a physically-derived variant and the
//!   calibrated per-core values used in the experiments,
//! * [`sharing`] — shared wrappers: several cores time-multiplexing one
//!   wrapper (the paper's Figure 2), including requirement merging, routing
//!   overhead and the compatibility rule of Section 3,
//! * [`jobs`] — stable schedule-job identities: the per-candidate analog
//!   *delta* job set a sharing sweep re-packs onto the invariant digital
//!   skeleton,
//! * [`datapath`] — a sample-accurate simulation of the
//!   DAC → core → ADC path used to regenerate the paper's Figure 5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod config;
pub mod datapath;
pub mod jobs;
pub mod selftest;
pub mod sharing;
pub mod testbench;

pub use area::{AreaModel, WrapperRequirements};
pub use config::{TestConfig, Transport, WrapperMode};
pub use datapath::{WrappedResponse, WrapperDatapath};
pub use jobs::{analog_delta_jobs, AnalogDeltaTemplate};
pub use selftest::{run_self_test, SelfTestReport};
pub use sharing::{IncompatibleSharing, SharedWrapper, SharingPolicy};
pub use testbench::{ReferenceCore, TestOutcome};
