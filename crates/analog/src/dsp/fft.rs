//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! The butterfly stages use the same explicit 4-wide chunk trick as the
//! Goertzel inner loop and the fig5 biquad: the textbook loop advances one
//! running twiddle `w *= wlen` per butterfly — a serial multiply chain
//! whose latency caps throughput — while [`transform`] keeps **four
//! independent twiddle chains** (`w, w·wlen, w·wlen², w·wlen³`, each
//! advanced by `wlen⁴`) and executes four data-independent butterflies per
//! iteration. The chains shrink the loop-carried dependency to one complex
//! multiply per *four* butterflies and expose the add/sub arithmetic as
//! independent work the CPU can overlap. Each chain also performs 4× fewer
//! recurrence multiplies, so twiddle rounding drift is no worse than the
//! serial form (differential-tested against the textbook loop).

use super::complex::Complex;

/// Whether `n` is a nonzero power of two.
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Smallest power of two `≥ n` (and `≥ 1`).
pub fn next_power_of_two(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// In-place forward FFT.
///
/// Computes `X[k] = Σ_n x[n]·e^{-j2πkn/N}` without normalization.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft(data: &mut [Complex]) {
    transform(data, false);
}

/// In-place inverse FFT, normalized by `1/N` so that `ifft(fft(x)) == x`.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn ifft(data: &mut [Complex]) {
    transform(data, true);
    let n = data.len() as f64;
    for v in data.iter_mut() {
        *v = v.scale(1.0 / n);
    }
}

/// In-place forward FFT through the serial one-twiddle-chain butterflies:
/// the differential reference for the 4-wide chunked [`fft`] hot path.
#[cfg(test)]
fn fft_scalar(data: &mut [Complex]) {
    transform_scalar(data, false);
}

/// Bit-reversal permutation shared by both butterfly paths.
fn bit_reverse(data: &mut [Complex]) {
    let n = data.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            data.swap(i, j);
        }
    }
}

/// The textbook butterfly stages: one running twiddle, one serial
/// multiply per butterfly.
#[cfg(test)]
fn transform_scalar(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(is_power_of_two(n), "FFT length must be a power of two, got {n}");
    if n <= 1 {
        return;
    }
    bit_reverse(data);
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_angle(ang);
        for chunk in data.chunks_mut(len) {
            let mut w = Complex::from_real(1.0);
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half] * w;
                chunk[k] = u + v;
                chunk[k + half] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(is_power_of_two(n), "FFT length must be a power of two, got {n}");
    if n <= 1 {
        return;
    }
    bit_reverse(data);

    // Butterflies, 4-wide chunked (see the module docs). `half` is a
    // power of two, so stages with `half >= 4` split into whole chunks
    // with no remainder; the two smallest stages run serially.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_angle(ang);
        let half = len / 2;
        if half >= 4 {
            let wlen2 = wlen * wlen;
            let wlen4 = wlen2 * wlen2;
            for chunk in data.chunks_mut(len) {
                let (lo, hi) = chunk.split_at_mut(half);
                // Four independent twiddle chains, each stepped by wlen⁴.
                let mut w0 = Complex::from_real(1.0);
                let mut w1 = wlen;
                let mut w2 = wlen2;
                let mut w3 = wlen2 * wlen;
                for k in (0..half).step_by(4) {
                    let (u0, v0) = (lo[k], hi[k] * w0);
                    let (u1, v1) = (lo[k + 1], hi[k + 1] * w1);
                    let (u2, v2) = (lo[k + 2], hi[k + 2] * w2);
                    let (u3, v3) = (lo[k + 3], hi[k + 3] * w3);
                    lo[k] = u0 + v0;
                    hi[k] = u0 - v0;
                    lo[k + 1] = u1 + v1;
                    hi[k + 1] = u1 - v1;
                    lo[k + 2] = u2 + v2;
                    hi[k + 2] = u2 - v2;
                    lo[k + 3] = u3 + v3;
                    hi[k + 3] = u3 - v3;
                    w0 = w0 * wlen4;
                    w1 = w1 * wlen4;
                    w2 = w2 * wlen4;
                    w3 = w3 * wlen4;
                }
            }
        } else {
            for chunk in data.chunks_mut(len) {
                let mut w = Complex::from_real(1.0);
                for k in 0..half {
                    let u = chunk[k];
                    let v = chunk[k + half] * w;
                    chunk[k] = u + v;
                    chunk[k + half] = u - v;
                    w = w * wlen;
                }
            }
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex, b: Complex, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b:?}, got {a:?} (tol {tol})");
    }

    #[test]
    fn power_of_two_helpers() {
        assert!(is_power_of_two(1) && is_power_of_two(1024));
        assert!(!is_power_of_two(0) && !is_power_of_two(12));
        assert_eq!(next_power_of_two(0), 1);
        assert_eq!(next_power_of_two(1000), 1024);
        assert_eq!(next_power_of_two(1024), 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        fft(&mut [Complex::ZERO; 12]);
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::from_real(1.0);
        fft(&mut x);
        for v in x {
            assert_close(v, Complex::from_real(1.0), 1e-12);
        }
    }

    #[test]
    fn dc_transforms_to_bin_zero() {
        let mut x = vec![Complex::from_real(2.0); 16];
        fft(&mut x);
        assert_close(x[0], Complex::from_real(32.0), 1e-9);
        for v in &x[1..] {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn pure_tone_concentrates_in_its_bin() {
        let n = 64;
        let k = 5;
        let mut x: Vec<Complex> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                Complex::from_real((2.0 * std::f64::consts::PI * k as f64 * t).cos())
            })
            .collect();
        fft(&mut x);
        // cos -> N/2 in bins k and N-k.
        assert!((x[k].abs() - n as f64 / 2.0).abs() < 1e-9);
        assert!((x[n - k].abs() - n as f64 / 2.0).abs() < 1e-9);
        for (i, v) in x.iter().enumerate() {
            if i != k && i != n - k {
                assert!(v.abs() < 1e-9, "leakage at bin {i}");
            }
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut y = x.clone();
        fft(&mut y);
        ifft(&mut y);
        for (a, b) in y.iter().zip(&x) {
            assert_close(*a, *b, 1e-10);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x: Vec<Complex> =
            (0..128).map(|i| Complex::from_real(((i * i) as f64 * 0.01).sin())).collect();
        let time_energy: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let mut y = x;
        fft(&mut y);
        let freq_energy: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-10);
    }

    #[test]
    fn length_one_is_identity() {
        let mut x = vec![Complex::new(3.0, 4.0)];
        fft(&mut x);
        assert_eq!(x[0], Complex::new(3.0, 4.0));
    }

    #[test]
    fn chunked_butterflies_match_the_scalar_reference() {
        // Pseudo-random complex data at every stage-mix size: lengths
        // where only the serial small stages run (2, 4), the first
        // chunked stage (8), and deep mixes (up to 2048). The chunked
        // twiddle chains perform *fewer* recurrence multiplies than the
        // serial chain, so agreement must be at rounding-noise level.
        for log2n in 1..=11usize {
            let n = 1 << log2n;
            let x: Vec<Complex> = (0..n)
                .map(|i| {
                    let a = ((i as f64 * 12.9898).sin() * 43758.5453).fract() - 0.5;
                    let b = ((i as f64 * 78.233).sin() * 12543.8567).fract() - 0.5;
                    Complex::new(a, b)
                })
                .collect();
            let mut chunked = x.clone();
            let mut scalar = x.clone();
            fft(&mut chunked);
            fft_scalar(&mut scalar);
            let scale: f64 = scalar.iter().map(|v| v.abs()).fold(1.0, f64::max);
            for (i, (c, s)) in chunked.iter().zip(&scalar).enumerate() {
                assert!(
                    (*c - *s).abs() <= 1e-12 * scale,
                    "n={n} bin {i}: chunked {c:?} vs scalar {s:?}"
                );
            }
        }
    }
}
