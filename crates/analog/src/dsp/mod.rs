//! Signal-processing primitives: complex numbers, FFT, Goertzel, windows
//! and magnitude spectra.
//!
//! Everything here is implemented from scratch; the workspace has no DSP
//! dependency. The FFT is an iterative radix-2 Cooley–Tukey transform; the
//! [`goertzel`](goertzel::goertzel) single-bin DFT serves the measurement
//! routines, which probe known tone frequencies that rarely fall on FFT
//! bins.

mod complex;
mod fft;
pub mod goertzel;
mod spectrum;
mod window;

pub use complex::Complex;
pub use fft::{fft, ifft, is_power_of_two, next_power_of_two};
pub use spectrum::{amplitude_spectrum, magnitude_db, Spectrum};
pub use window::Window;
