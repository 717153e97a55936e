//! Low-pass filter models.

use std::f64::consts::{PI, SQRT_2};

/// A second-order IIR section (Direct Form I) with Butterworth low-pass
/// design, modelling the paper's filter core.
///
/// # Examples
///
/// ```
/// use msoc_analog::circuit::Biquad;
/// let mut f = Biquad::butterworth_lowpass(60e3, 1.7e6);
/// // DC passes with unit gain.
/// assert!((f.magnitude_at(0.0) - 1.0).abs() < 1e-9);
/// // The -3 dB point sits at the design cutoff.
/// let g = f.magnitude_at(60e3);
/// assert!((g - 1.0 / 2f64.sqrt()).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Biquad {
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
    sample_rate_hz: f64,
    // Direct Form I state.
    x1: f64,
    x2: f64,
    y1: f64,
    y2: f64,
}

impl Biquad {
    /// Designs a 2nd-order Butterworth low-pass with cutoff `fc_hz` at
    /// sample rate `fs_hz` via the pre-warped bilinear transform.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fc_hz < fs_hz / 2`.
    pub fn butterworth_lowpass(fc_hz: f64, fs_hz: f64) -> Self {
        assert!(
            fc_hz > 0.0 && fc_hz < fs_hz / 2.0,
            "cutoff {fc_hz} Hz must lie in (0, fs/2) for fs = {fs_hz} Hz"
        );
        // Pre-warp the analog cutoff, then bilinear-transform
        // H(s) = 1 / (s^2 + sqrt(2) s + 1).
        let k = (PI * fc_hz / fs_hz).tan();
        let k2 = k * k;
        let q = SQRT_2; // Butterworth: 1/Q = sqrt(2)
        let norm = 1.0 / (1.0 + q * k + k2);
        Biquad {
            b0: k2 * norm,
            b1: 2.0 * k2 * norm,
            b2: k2 * norm,
            a1: 2.0 * (k2 - 1.0) * norm,
            a2: (1.0 - q * k + k2) * norm,
            sample_rate_hz: fs_hz,
            x1: 0.0,
            x2: 0.0,
            y1: 0.0,
            y2: 0.0,
        }
    }

    /// Sample rate the filter was designed for.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// Processes one sample.
    pub fn process_sample(&mut self, x: f64) -> f64 {
        let y = self.b0 * x + self.b1 * self.x1 + self.b2 * self.x2
            - self.a1 * self.y1
            - self.a2 * self.y2;
        self.x2 = self.x1;
        self.x1 = x;
        self.y2 = self.y1;
        self.y1 = y;
        y
    }

    /// Processes a slice, returning the filtered signal.
    ///
    /// Block-processed four samples at a time. The serial Direct Form I
    /// recurrence `y[n] = f[n] − a1·y[n−1] − a2·y[n−2]` (with `f` the
    /// feed-forward FIR part) caps throughput at one sample per
    /// multiply-add chain latency; unrolling it with the companion
    /// weights `u₀ = 1, u₁ = −a1, u_{k+1} = −a1·u_k − a2·u_{k−1}` gives
    ///
    /// ```text
    /// y[n+k] = Σ_{j=0..k} u_j·f[n+k−j] + u_{k+1}·y[n−1] − a2·u_k·y[n−2]
    /// ```
    ///
    /// so each 4-sample chunk is a handful of short independent dot
    /// products (instruction-level parallelism the serial chain cannot
    /// expose) and the loop-carried dependency shrinks to one
    /// chunk-to-chunk state handoff — the same trick as the Goertzel
    /// inner loop in `msoc_analog::dsp::goertzel`. For a stable filter
    /// the weights are bounded by the impulse response, so the chunked
    /// arithmetic is as well-conditioned as four serial steps; results
    /// agree with the per-sample path to floating-point rounding
    /// (differential-tested), not bit-for-bit.
    pub fn process(&mut self, input: &[f64]) -> Vec<f64> {
        let mut out = input.to_vec();
        self.process_in_place(&mut out);
        out
    }

    /// Filters `buf` in place (input overwritten by output), four samples
    /// per chunk.
    ///
    /// This is the zero-allocation form of [`Self::process`]: the wrapped
    /// measurement chain filters a megabyte-class held waveform per call,
    /// and a second buffer per call costs more than the filter itself in
    /// a hot loop (large allocations round-trip through `mmap`). A
    /// two-sample carry preserves the input window across the in-place
    /// overwrite.
    pub fn process_in_place(&mut self, buf: &mut [f64]) {
        let n = buf.len();
        // Lead-in: the first two samples consume the carried x-state.
        let lead = n.min(2);
        for x in buf[..lead].iter_mut() {
            *x = self.process_sample(*x);
        }

        // 4-wide chunks: the feed-forward terms come straight off the
        // input window (independent, vectorizable) and the recurrence
        // advances through the companion weights.
        let a2 = self.a2;
        let u1 = -self.a1;
        let u2 = -self.a1 * u1 - a2;
        let u3 = -self.a1 * u2 - a2 * u1;
        let u4 = -self.a1 * u3 - a2 * u2;
        let (mut xm1, mut xm2) = (self.x1, self.x2);
        let (mut y1, mut y2) = (self.y1, self.y2);
        let mut i = lead;
        while i + 4 <= n {
            let [x0, x1, x2, x3] = [buf[i], buf[i + 1], buf[i + 2], buf[i + 3]];
            let f0 = self.b0 * x0 + self.b1 * xm1 + self.b2 * xm2;
            let f1 = self.b0 * x1 + self.b1 * x0 + self.b2 * xm1;
            let f2 = self.b0 * x2 + self.b1 * x1 + self.b2 * x0;
            let f3 = self.b0 * x3 + self.b1 * x2 + self.b2 * x1;
            let ya = f0 + (u1 * y1 - a2 * y2);
            let yb = (f1 + u1 * f0) + (u2 * y1 - a2 * (u1 * y2));
            let yc = (f2 + u1 * f1) + (u2 * f0 + u3 * y1) - a2 * (u2 * y2);
            let yd = (f3 + u1 * f2) + (u2 * f1 + u3 * f0) + (u4 * y1 - a2 * (u3 * y2));
            buf[i] = ya;
            buf[i + 1] = yb;
            buf[i + 2] = yc;
            buf[i + 3] = yd;
            xm2 = x2;
            xm1 = x3;
            y2 = yc;
            y1 = yd;
            i += 4;
        }

        // Commit the state the serial path would hold, then finish the
        // remainder serially.
        self.x1 = xm1;
        self.x2 = xm2;
        self.y1 = y1;
        self.y2 = y2;
        for x in buf[i..].iter_mut() {
            *x = self.process_sample(*x);
        }
    }

    /// The plain per-sample slice path: the differential reference for
    /// the chunked [`Self::process`].
    #[cfg(test)]
    fn process_scalar(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.process_sample(x)).collect()
    }

    /// Clears the filter state.
    pub fn reset(&mut self) {
        self.x1 = 0.0;
        self.x2 = 0.0;
        self.y1 = 0.0;
        self.y2 = 0.0;
    }

    /// Analytic magnitude response `|H(e^{jω})|` at `freq_hz`.
    pub fn magnitude_at(&self, freq_hz: f64) -> f64 {
        let w = 2.0 * PI * freq_hz / self.sample_rate_hz;
        let (c1, s1) = (w.cos(), w.sin());
        let (c2, s2) = ((2.0 * w).cos(), (2.0 * w).sin());
        let num_re = self.b0 + self.b1 * c1 + self.b2 * c2;
        let num_im = -(self.b1 * s1 + self.b2 * s2);
        let den_re = 1.0 + self.a1 * c1 + self.a2 * c2;
        let den_im = -(self.a1 * s1 + self.a2 * s2);
        (num_re.hypot(num_im)) / (den_re.hypot(den_im))
    }
}

/// A first-order RC low-pass, for single-pole cores and comparison tests.
#[derive(Debug, Clone, PartialEq)]
pub struct FirstOrderLowPass {
    alpha: f64,
    sample_rate_hz: f64,
    fc_hz: f64,
    state: f64,
}

impl FirstOrderLowPass {
    /// Designs a single-pole low-pass with cutoff `fc_hz` at `fs_hz`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fc_hz < fs_hz / 2`.
    pub fn new(fc_hz: f64, fs_hz: f64) -> Self {
        assert!(fc_hz > 0.0 && fc_hz < fs_hz / 2.0, "cutoff must lie in (0, fs/2)");
        let k = (PI * fc_hz / fs_hz).tan();
        FirstOrderLowPass { alpha: k / (1.0 + k), sample_rate_hz: fs_hz, fc_hz, state: 0.0 }
    }

    /// The design cutoff in Hz.
    pub fn cutoff_hz(&self) -> f64 {
        self.fc_hz
    }

    /// Processes one sample.
    pub fn process_sample(&mut self, x: f64) -> f64 {
        // Bilinear single pole: y[n] = y[n-1] + 2α/(1+... ) — implemented as
        // the standard leaky integrator matched at DC.
        self.state += 2.0 * self.alpha * (x - self.state) / (1.0 + self.alpha);
        self.state
    }

    /// Processes a slice.
    pub fn process(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.process_sample(x)).collect()
    }

    /// Sample rate the filter was designed for.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsp::goertzel::tone_amplitude;
    use crate::signal::MultiTone;

    #[test]
    fn dc_gain_is_unity() {
        let mut f = Biquad::butterworth_lowpass(1000.0, 48_000.0);
        let y = f.process(&vec![1.0; 4000]);
        assert!((y.last().unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cutoff_is_minus_3db() {
        let f = Biquad::butterworth_lowpass(60e3, 1.7e6);
        let g = f.magnitude_at(60e3);
        assert!((20.0 * g.log10() + 3.0103).abs() < 0.02, "gain at fc: {g}");
    }

    #[test]
    fn rolloff_is_40db_per_decade() {
        let f = Biquad::butterworth_lowpass(1e3, 10e6);
        let g10 = 20.0 * f.magnitude_at(10e3).log10();
        let g100 = 20.0 * f.magnitude_at(100e3).log10();
        let slope = g100 - g10;
        assert!((slope + 40.0).abs() < 1.5, "slope {slope} dB/decade");
    }

    #[test]
    fn time_domain_attenuation_matches_analytic_response() {
        let fs = 1.7e6;
        let mut f = Biquad::butterworth_lowpass(60e3, fs);
        let x = MultiTone::equal_amplitude(&[120e3], 1.0).generate(fs, 20_000);
        let y = f.process(&x);
        // Skip the transient.
        let measured = tone_amplitude(&y[2000..], fs, 120e3);
        let expected = f.magnitude_at(120e3);
        assert!((measured - expected).abs() / expected < 0.02);
    }

    #[test]
    fn chunked_process_matches_the_scalar_path() {
        // Pseudo-random signal, every remainder length, several designs —
        // the block recurrence must track the serial one to rounding.
        let x: Vec<f64> =
            (0..1031).map(|i| ((i as f64 * 12.9898).sin() * 43758.5453).fract() - 0.5).collect();
        for (fc, fs) in [(61e3, 50e6), (1e3, 48e3), (60e3, 1.7e6), (11.9e3, 48e3)] {
            for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 63, 64, 1024, 1029, 1030, 1031] {
                let mut chunked = Biquad::butterworth_lowpass(fc, fs);
                let mut scalar = Biquad::butterworth_lowpass(fc, fs);
                let a = chunked.process(&x[..len]);
                let b = scalar.process_scalar(&x[..len]);
                for (i, (ya, yb)) in a.iter().zip(&b).enumerate() {
                    let scale = yb.abs().max(1.0);
                    assert!(
                        (ya - yb).abs() <= 1e-9 * scale,
                        "fc={fc} len={len} sample {i}: chunked {ya} vs scalar {yb}"
                    );
                }
                // The carried state must agree too: keep filtering.
                let a2 = chunked.process(&x[..len.min(16)]);
                let b2 = scalar.process_scalar(&x[..len.min(16)]);
                for (ya, yb) in a2.iter().zip(&b2) {
                    assert!((ya - yb).abs() <= 1e-9 * yb.abs().max(1.0), "state diverged");
                }
            }
        }
    }

    #[test]
    fn chunked_process_interleaves_with_process_sample() {
        // Mixing the APIs mid-stream must behave like one serial run.
        let x: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut mixed = Biquad::butterworth_lowpass(5e3, 100e3);
        let mut serial = Biquad::butterworth_lowpass(5e3, 100e3);
        let mut got = Vec::new();
        got.extend(mixed.process(&x[..33]));
        got.extend(x[33..50].iter().map(|&v| mixed.process_sample(v)));
        got.extend(mixed.process(&x[50..]));
        let want = serial.process_scalar(&x);
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "sample {i}: {a} vs {b}");
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut f = Biquad::butterworth_lowpass(1000.0, 48_000.0);
        f.process(&vec![1.0; 100]);
        f.reset();
        let y0 = f.process_sample(0.0);
        assert_eq!(y0, 0.0);
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn cutoff_above_nyquist_panics() {
        Biquad::butterworth_lowpass(30e3, 48e3);
    }

    #[test]
    fn first_order_dc_and_cutoff() {
        let fs = 1.0e6;
        let mut f = FirstOrderLowPass::new(10e3, fs);
        let dc = f.process(&vec![1.0; 5000]);
        assert!((dc.last().unwrap() - 1.0).abs() < 1e-6);

        let mut f = FirstOrderLowPass::new(10e3, fs);
        let x = MultiTone::equal_amplitude(&[10e3], 1.0).generate(fs, 40_000);
        let y = f.process(&x);
        let g = tone_amplitude(&y[4000..], fs, 10e3);
        assert!((20.0 * g.log10() + 3.0).abs() < 0.3, "gain at fc: {g}");
    }

    #[test]
    fn first_order_rolls_off_20db_per_decade() {
        let fs = 10e6;
        let fc = 5e3;
        let probe = |freq: f64| {
            let mut f = FirstOrderLowPass::new(fc, fs);
            let x = MultiTone::equal_amplitude(&[freq], 1.0).generate(fs, 200_000);
            let y = f.process(&x);
            20.0 * tone_amplitude(&y[20_000..], fs, freq).log10()
        };
        let slope = probe(500e3) - probe(50e3);
        assert!((slope + 20.0).abs() < 1.0, "slope {slope} dB/decade");
    }
}
