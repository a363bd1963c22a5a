//! FFT-based brick-wall low-pass filter.
//!
//! This is the filter TagBreathe uses for breath-signal extraction
//! (Section IV-B): transform the displacement window with an FFT, zero every
//! bin above the cutoff frequency (0.67 Hz by default — the upper bound of
//! plausible human breathing, 40 bpm), and inverse-transform back.

use crate::fft::{fft_in_place, next_pow2, Direction};
use crate::Complex;

/// An FFT-based low-pass filter with a hard cutoff.
///
/// # Examples
///
/// ```
/// use tagbreathe_dsp::filter::FftLowPass;
///
/// let sample_rate = 64.0;
/// let filter = FftLowPass::new(0.67, sample_rate).unwrap();
/// // 0.2 Hz breathing tone + 5 Hz noise tone.
/// let signal: Vec<f64> = (0..1600)
///     .map(|i| {
///         let t = i as f64 / sample_rate;
///         (2.0 * std::f64::consts::PI * 0.2 * t).sin()
///             + 0.5 * (2.0 * std::f64::consts::PI * 5.0 * t).sin()
///     })
///     .collect();
/// let clean = filter.filter(&signal);
/// assert_eq!(clean.len(), signal.len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FftLowPass {
    cutoff_hz: f64,
    sample_rate: f64,
}

/// Error constructing a filter with invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidFilterError {
    what: &'static str,
}

impl std::fmt::Display for InvalidFilterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid filter parameter: {}", self.what)
    }
}

impl std::error::Error for InvalidFilterError {}

impl FftLowPass {
    /// Creates a low-pass filter with the given cutoff.
    ///
    /// # Errors
    ///
    /// Returns an error if the cutoff or sample rate is non-positive or
    /// non-finite, or if the cutoff exceeds the Nyquist frequency.
    pub fn new(cutoff_hz: f64, sample_rate: f64) -> Result<Self, InvalidFilterError> {
        if !cutoff_hz.is_finite() || cutoff_hz <= 0.0 {
            return Err(InvalidFilterError {
                what: "cutoff frequency must be positive and finite",
            });
        }
        if !sample_rate.is_finite() || sample_rate <= 0.0 {
            return Err(InvalidFilterError {
                what: "sample rate must be positive and finite",
            });
        }
        if cutoff_hz > sample_rate / 2.0 {
            return Err(InvalidFilterError {
                what: "cutoff frequency exceeds the Nyquist frequency",
            });
        }
        Ok(FftLowPass {
            cutoff_hz,
            sample_rate,
        })
    }

    /// The paper's default breathing-band filter: 0.67 Hz cutoff (40 bpm).
    ///
    /// # Errors
    ///
    /// Returns an error if `sample_rate < 1.34` Hz (cutoff above Nyquist).
    pub fn breathing_band(sample_rate: f64) -> Result<Self, InvalidFilterError> {
        Self::new(0.67, sample_rate)
    }

    /// The configured cutoff frequency in hertz.
    #[must_use]
    pub fn cutoff_hz(&self) -> f64 {
        self.cutoff_hz
    }

    /// The configured sample rate in hertz.
    #[must_use]
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Filters a signal, returning a vector of the same length.
    ///
    /// The signal is zero-padded to a power of two internally; the mean is
    /// removed before filtering and *not* restored, so the output is a
    /// zero-centred band-limited signal suitable for zero-crossing analysis.
    #[must_use]
    pub fn filter(&self, signal: &[f64]) -> Vec<f64> {
        if signal.is_empty() {
            return Vec::new();
        }
        let mean = signal.iter().sum::<f64>() / signal.len() as f64;
        let n = next_pow2(signal.len());
        let mut data = Vec::with_capacity(n);
        data.extend(signal.iter().map(|&x| Complex::from_real(x - mean)));
        data.resize(n, Complex::ZERO);
        fft_in_place(&mut data, Direction::Forward);

        // Keep bins [0, k_c] and their conjugate mirror [n-k_c, n-1].
        let bin_width = self.sample_rate / n as f64;
        let k_c = (self.cutoff_hz / bin_width).floor() as usize;
        for (k, z) in data.iter_mut().enumerate() {
            let mirrored = if k <= n / 2 { k } else { n - k };
            if mirrored > k_c {
                *z = Complex::ZERO;
            }
        }

        fft_in_place(&mut data, Direction::Inverse);
        data.truncate(signal.len());
        data.into_iter().map(|z| z.re).collect()
    }
}

/// An FFT-based band-pass filter: brick-wall on both edges.
///
/// The breath extraction uses this with the band `[0.05, 0.67]` Hz: the
/// upper edge is the paper's 40 bpm physiological limit; the lower edge
/// rejects sub-breathing disturbances (postural sway, slow drift) that a
/// pure low-pass would let dominate the zero-crossing detector.
#[derive(Debug, Clone, PartialEq)]
pub struct FftBandPass {
    low_hz: f64,
    high_hz: f64,
    sample_rate: f64,
}

impl FftBandPass {
    /// Creates a band-pass filter keeping `[low_hz, high_hz]`.
    ///
    /// # Errors
    ///
    /// Returns an error if the band is empty/invalid or `high_hz` exceeds
    /// the Nyquist frequency.
    pub fn new(low_hz: f64, high_hz: f64, sample_rate: f64) -> Result<Self, InvalidFilterError> {
        if !(low_hz.is_finite() && low_hz >= 0.0) {
            return Err(InvalidFilterError {
                what: "lower band edge must be non-negative and finite",
            });
        }
        if !(high_hz.is_finite() && high_hz > low_hz) {
            return Err(InvalidFilterError {
                what: "upper band edge must exceed the lower edge",
            });
        }
        if !(sample_rate.is_finite() && sample_rate > 0.0) {
            return Err(InvalidFilterError {
                what: "sample rate must be positive and finite",
            });
        }
        if high_hz > sample_rate / 2.0 {
            return Err(InvalidFilterError {
                what: "cutoff frequency exceeds the Nyquist frequency",
            });
        }
        Ok(FftBandPass {
            low_hz,
            high_hz,
            sample_rate,
        })
    }

    /// The paper's breathing band with a 0.05 Hz (3 bpm) lower edge.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FftBandPass::new`].
    pub fn breathing_band(sample_rate: f64) -> Result<Self, InvalidFilterError> {
        Self::new(0.05, 0.67, sample_rate)
    }

    /// Lower band edge, Hz.
    #[must_use]
    pub fn low_hz(&self) -> f64 {
        self.low_hz
    }

    /// Upper band edge, Hz.
    #[must_use]
    pub fn high_hz(&self) -> f64 {
        self.high_hz
    }

    /// Filters a signal, returning a zero-mean band-limited copy of the
    /// same length.
    #[must_use]
    pub fn filter(&self, signal: &[f64]) -> Vec<f64> {
        if signal.is_empty() {
            return Vec::new();
        }
        let mean = signal.iter().sum::<f64>() / signal.len() as f64;
        let n = next_pow2(signal.len());
        let mut data = Vec::with_capacity(n);
        data.extend(signal.iter().map(|&x| Complex::from_real(x - mean)));
        data.resize(n, Complex::ZERO);
        fft_in_place(&mut data, Direction::Forward);
        let bin_width = self.sample_rate / n as f64;
        let k_lo = (self.low_hz / bin_width).ceil() as usize;
        let k_hi = (self.high_hz / bin_width).floor() as usize;
        for (k, z) in data.iter_mut().enumerate() {
            let mirrored = if k <= n / 2 { k } else { n - k };
            if mirrored < k_lo || mirrored > k_hi {
                *z = Complex::ZERO;
            }
        }
        fft_in_place(&mut data, Direction::Inverse);
        data.truncate(signal.len());
        data.into_iter().map(|z| z.re).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn tone(freq: f64, sample_rate: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * PI * freq * i as f64 / sample_rate).sin())
            .collect()
    }

    #[test]
    fn band_pass_rejects_both_edges() -> TestResult {
        let sr = 16.0;
        let bp = FftBandPass::breathing_band(sr)?;
        let n = 2048;
        // In-band 0.25 Hz + sway at 0.03 Hz + noise at 3 Hz.
        let breath = tone(0.25, sr, n);
        let mixed: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / sr;
                breath[i] + 2.0 * (2.0 * PI * 0.03 * t).sin() + 0.5 * (2.0 * PI * 3.0 * t).sin()
            })
            .collect();
        let out = bp.filter(&mixed);
        let err: f64 = out
            .iter()
            .zip(&breath)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / n as f64;
        assert!(err < 0.05, "residual {err}");
        Ok(())
    }

    #[test]
    fn band_pass_validation() -> TestResult {
        assert!(FftBandPass::new(-0.1, 0.5, 16.0).is_err());
        assert!(FftBandPass::new(0.5, 0.5, 16.0).is_err());
        assert!(FftBandPass::new(0.1, 9.0, 16.0).is_err());
        assert!(FftBandPass::new(0.1, 0.5, 0.0).is_err());
        let bp = FftBandPass::breathing_band(16.0)?;
        assert_eq!(bp.low_hz(), 0.05);
        assert_eq!(bp.high_hz(), 0.67);
        Ok(())
    }

    #[test]
    fn band_pass_empty_input() -> TestResult {
        let bp = FftBandPass::breathing_band(16.0)?;
        assert!(bp.filter(&[]).is_empty());
        Ok(())
    }

    #[test]
    fn band_pass_output_is_zero_mean() -> TestResult {
        let sr = 16.0;
        let bp = FftBandPass::breathing_band(sr)?;
        let signal: Vec<f64> = tone(0.2, sr, 1024).iter().map(|x| x + 5.0).collect();
        let out = bp.filter(&signal);
        let mean = out.iter().sum::<f64>() / out.len() as f64;
        assert!(mean.abs() < 1e-6);
        Ok(())
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(FftLowPass::new(0.0, 64.0).is_err());
        assert!(FftLowPass::new(-1.0, 64.0).is_err());
        assert!(FftLowPass::new(f64::NAN, 64.0).is_err());
        assert!(FftLowPass::new(1.0, 0.0).is_err());
        assert!(FftLowPass::new(40.0, 64.0).is_err()); // above Nyquist
        assert!(FftLowPass::new(0.67, 64.0).is_ok());
    }

    #[test]
    fn error_type_displays() {
        assert!(matches!(FftLowPass::new(0.0, 64.0), Err(e) if e.to_string().contains("cutoff")));
    }

    #[test]
    fn passes_in_band_tone() -> TestResult {
        let sr = 64.0;
        let filter = FftLowPass::breathing_band(sr)?;
        let signal = tone(0.25, sr, 2048); // 15 bpm, in band
        let out = filter.filter(&signal);
        let in_energy: f64 = signal.iter().map(|x| x * x).sum();
        let out_energy: f64 = out.iter().map(|x| x * x).sum();
        assert!(
            out_energy > 0.95 * in_energy,
            "in-band tone attenuated: {out_energy} vs {in_energy}"
        );
        Ok(())
    }

    #[test]
    fn rejects_out_of_band_tone() -> TestResult {
        let sr = 64.0;
        let filter = FftLowPass::breathing_band(sr)?;
        let signal = tone(5.0, sr, 2048);
        let out = filter.filter(&signal);
        let out_energy: f64 = out.iter().map(|x| x * x).sum();
        assert!(out_energy < 1e-9, "out-of-band energy leaked: {out_energy}");
        Ok(())
    }

    #[test]
    fn separates_mixture() -> TestResult {
        let sr = 64.0;
        let filter = FftLowPass::breathing_band(sr)?;
        let n = 2048;
        let breath = tone(0.25, sr, n);
        let noise = tone(7.3, sr, n);
        let mixed: Vec<f64> = breath.iter().zip(&noise).map(|(a, b)| a + b).collect();
        let out = filter.filter(&mixed);
        // Compare against the clean breathing tone.
        let err: f64 = out
            .iter()
            .zip(&breath)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / n as f64;
        assert!(err < 0.01, "residual error {err}");
        Ok(())
    }

    #[test]
    fn removes_dc_offset() -> TestResult {
        let sr = 64.0;
        let filter = FftLowPass::breathing_band(sr)?;
        let signal: Vec<f64> = tone(0.2, sr, 1024).iter().map(|x| x + 10.0).collect();
        let out = filter.filter(&signal);
        let mean = out.iter().sum::<f64>() / out.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean} not removed");
        Ok(())
    }

    #[test]
    fn empty_input_gives_empty_output() -> TestResult {
        let filter = FftLowPass::breathing_band(64.0)?;
        assert!(filter.filter(&[]).is_empty());
        Ok(())
    }

    #[test]
    fn output_length_matches_input_length() -> TestResult {
        let filter = FftLowPass::breathing_band(64.0)?;
        for len in [1, 7, 100, 1000, 1024] {
            assert_eq!(filter.filter(&vec![1.0; len]).len(), len);
        }
        Ok(())
    }

    #[test]
    fn accessors_round_trip() -> TestResult {
        let f = FftLowPass::new(0.5, 32.0)?;
        assert_eq!(f.cutoff_hz(), 0.5);
        assert_eq!(f.sample_rate(), 32.0);
        Ok(())
    }
}
