//! Goertzel single-bin DFT.
//!
//! The measurement routines probe signal content at *known* tone
//! frequencies (the stimulus frequencies of Table 2), which generally do not
//! fall on FFT bins. The Goertzel algorithm evaluates the DFT at an
//! arbitrary normalized frequency in O(N) with excellent numerical
//! behaviour, so it is the workhorse of [`crate::measure`].

use super::complex::Complex;

/// Complex DFT coefficient of `samples` at frequency `freq_hz`, normalized
/// so that a unit-amplitude cosine at `freq_hz` yields magnitude ≈ 1.
///
/// `sample_rate_hz` must be positive and `freq_hz` in `[0, sample_rate/2]`
/// for a meaningful result.
///
/// # Panics
///
/// Panics if `samples` is empty or `sample_rate_hz <= 0`.
///
/// # Examples
///
/// ```
/// use msoc_analog::dsp::goertzel::goertzel;
/// let fs = 1000.0;
/// let x: Vec<f64> = (0..1000)
///     .map(|n| 0.7 * (2.0 * std::f64::consts::PI * 50.0 * n as f64 / fs).cos())
///     .collect();
/// let mag = goertzel(&x, fs, 50.0).abs();
/// assert!((mag - 0.7).abs() < 1e-9);
/// ```
pub fn goertzel(samples: &[f64], sample_rate_hz: f64, freq_hz: f64) -> Complex {
    assert!(!samples.is_empty(), "goertzel needs at least one sample");
    assert!(sample_rate_hz > 0.0, "sample rate must be positive");
    let n = samples.len();
    let omega = 2.0 * std::f64::consts::PI * freq_hz / sample_rate_hz;
    let coeff = 2.0 * omega.cos();
    let (s_prev, s_prev2) = goertzel_state(samples, coeff);
    // Non-integer-bin finalization, phase-aligned to the first sample:
    // a cosine of amplitude A contributes N·A/2 at its own frequency.
    let y = Complex::new(s_prev - s_prev2 * omega.cos(), s_prev2 * omega.sin());
    let result = y * Complex::from_angle(-(omega * (n as f64 - 1.0)));
    let scale = if freq_hz == 0.0 || (freq_hz - sample_rate_hz / 2.0).abs() < f64::EPSILON {
        1.0 / n as f64
    } else {
        2.0 / n as f64
    };
    result.scale(scale)
}

/// The Goertzel state `(s[n-1], s[n-2])` after feeding every sample through
/// the resonator `s[k] = x[k] + coeff·s[k-1] − s[k-2]`.
///
/// The serial form is a 2-term linear recurrence whose ~5-cycle
/// multiply-add dependency chain caps throughput at one sample per chain
/// latency. This implementation advances the state four samples at a time
/// instead: unrolling the recurrence gives
///
/// ```text
/// s[k] = Σ_{j=0..k} u_j·x[k−j] + u_{k+1}·s[-1] − u_k·s[-2]
/// ```
///
/// with Chebyshev-like weights `u_0 = 1, u_1 = coeff,
/// u_{k+1} = coeff·u_k − u_{k−1}` (precomputed once per call), so each
/// 4-sample chunk needs two short independent dot products — instruction-
/// level parallelism the serial chain cannot expose — and the loop-carried
/// dependency shrinks to one chunk-to-chunk state handoff. The weights are
/// bounded (`|u_k| ≤ k+1` for `|coeff| ≤ 2`), so the chunked arithmetic is
/// as well-conditioned as four serial steps.
fn goertzel_state(samples: &[f64], coeff: f64) -> (f64, f64) {
    let u2 = coeff * coeff - 1.0;
    let u3 = coeff * u2 - coeff;
    let u4 = coeff * u3 - u2;

    let (mut s_prev, mut s_prev2) = (0.0f64, 0.0f64);
    let mut chunks = samples.chunks_exact(4);
    for chunk in &mut chunks {
        let [x0, x1, x2, x3] = [chunk[0], chunk[1], chunk[2], chunk[3]];
        let s2 = (x2 + coeff * x1) + (u2 * x0 + u3 * s_prev) - u2 * s_prev2;
        let s3 = (x3 + coeff * x2) + (u2 * x1 + u3 * x0) + (u4 * s_prev - u3 * s_prev2);
        s_prev2 = s2;
        s_prev = s3;
    }
    for &x in chunks.remainder() {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    (s_prev, s_prev2)
}

/// The plain serial resonator: the differential reference for the
/// chunked [`goertzel_state`].
#[cfg(test)]
fn goertzel_state_scalar(samples: &[f64], coeff: f64) -> (f64, f64) {
    let (mut s_prev, mut s_prev2) = (0.0f64, 0.0f64);
    for &x in samples {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    (s_prev, s_prev2)
}

/// Magnitude of the Goertzel coefficient — the amplitude of the tone at
/// `freq_hz` contained in `samples`.
pub fn tone_amplitude(samples: &[f64], sample_rate_hz: f64, freq_hz: f64) -> f64 {
    goertzel(samples, sample_rate_hz, freq_hz).abs()
}

/// Phase (radians) of the tone at `freq_hz`, relative to a cosine starting
/// at the first sample.
pub fn tone_phase(samples: &[f64], sample_rate_hz: f64, freq_hz: f64) -> f64 {
    goertzel(samples, sample_rate_hz, freq_hz).arg()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn cosine(fs: f64, f: f64, amp: f64, phase: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| amp * (2.0 * PI * f * i as f64 / fs + phase).cos()).collect()
    }

    #[test]
    fn amplitude_of_integer_bin_tone() {
        let x = cosine(1024.0, 64.0, 1.3, 0.0, 1024);
        assert!((tone_amplitude(&x, 1024.0, 64.0) - 1.3).abs() < 1e-9);
    }

    #[test]
    fn amplitude_of_non_integer_bin_tone() {
        // 50.37 Hz over 4551 samples at 1.7 kHz: nowhere near a bin.
        let x = cosine(1700.0, 50.37, 0.42, 0.9, 4551);
        let a = tone_amplitude(&x, 1700.0, 50.37);
        assert!((a - 0.42).abs() < 0.42 * 0.01, "got {a}");
    }

    #[test]
    fn phase_is_recovered() {
        for phase in [-1.0, 0.0, 0.5, 1.2] {
            let x = cosine(1000.0, 100.0, 1.0, phase, 1000);
            let p = tone_phase(&x, 1000.0, 100.0);
            assert!((p - phase).abs() < 1e-6, "phase {phase}: got {p}");
        }
    }

    #[test]
    fn rejects_other_frequencies() {
        let x = cosine(1000.0, 100.0, 1.0, 0.0, 1000);
        assert!(tone_amplitude(&x, 1000.0, 250.0) < 1e-9);
    }

    #[test]
    fn dc_measured_with_unity_scale() {
        let x = vec![0.25; 500];
        assert!((tone_amplitude(&x, 1000.0, 0.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn two_tones_are_separable() {
        let fs = 8000.0;
        let n = 8000;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                0.5 * (2.0 * PI * 440.0 * t).cos() + 0.2 * (2.0 * PI * 1000.0 * t).cos()
            })
            .collect();
        assert!((tone_amplitude(&x, fs, 440.0) - 0.5).abs() < 1e-6);
        assert!((tone_amplitude(&x, fs, 1000.0) - 0.2).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_input_panics() {
        goertzel(&[], 1.0, 0.0);
    }

    #[test]
    fn chunked_state_matches_the_serial_resonator() {
        // Pseudo-random signal, every remainder length, several coeffs.
        let x: Vec<f64> =
            (0..1027).map(|i| ((i as f64 * 12.9898).sin() * 43758.5453).fract() - 0.5).collect();
        for len in [1usize, 2, 3, 4, 5, 7, 8, 64, 1023, 1024, 1025, 1026, 1027] {
            for coeff in [-1.9, -0.3, 0.0, 0.7, 1.2, 1.999] {
                let (p, q) = goertzel_state(&x[..len], coeff);
                let (rp, rq) = goertzel_state_scalar(&x[..len], coeff);
                let scale = rp.abs().max(rq.abs()).max(1.0);
                assert!(
                    (p - rp).abs() <= 1e-9 * scale && (q - rq).abs() <= 1e-9 * scale,
                    "len={len} coeff={coeff}: chunked ({p}, {q}) vs serial ({rp}, {rq})"
                );
            }
        }
    }
}
