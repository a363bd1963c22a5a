//! Breath-signal extraction (Section IV-B): detrend the fused displacement
//! trajectory, then low-pass it below 0.67 Hz (40 bpm) with the FFT filter
//! (or the FIR alternative) to obtain the clean breathing signal of
//! Figure 8.

use crate::config::{FilterKind, PipelineConfig};
use crate::series::TimeSeries;
use dsp::filter::{detrend_linear, FftBandPass, FirFilter};

/// Error from breath-signal extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// The displacement trajectory holds too few samples for the configured
    /// minimum.
    TooShort {
        /// Samples present.
        have: usize,
        /// Samples required.
        need: usize,
    },
    /// The filter could not be constructed for this sample rate.
    FilterDesign(String),
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::TooShort { have, need } => {
                write!(f, "displacement too short: {have} samples, need {need}")
            }
            ExtractError::FilterDesign(what) => write!(f, "filter design failed: {what}"),
        }
    }
}

impl std::error::Error for ExtractError {}

/// Extracts the breathing signal from a fused displacement trajectory.
///
/// The output series shares the input's time base; it is zero-mean,
/// detrended and band-limited to `[0, cutoff_hz]`.
///
/// # Errors
///
/// Returns [`ExtractError::TooShort`] when fewer than
/// `config.min_samples` samples are available, and
/// [`ExtractError::FilterDesign`] when the cutoff is incompatible with the
/// sample rate.
pub fn extract_breath_signal(
    displacement: &TimeSeries,
    config: &PipelineConfig,
) -> Result<TimeSeries, ExtractError> {
    if displacement.len() < config.min_samples {
        return Err(ExtractError::TooShort {
            have: displacement.len(),
            need: config.min_samples,
        });
    }
    let rate = displacement.sample_rate_hz();
    // A slow random walk from cross-dwell phase noise and any steady drift
    // of the subject sit below the breathing band; remove the linear part
    // before filtering so it cannot dominate the window. The band-pass
    // then also rejects sub-breathing disturbances (postural sway) below
    // `band_min_hz` that a pure low-pass would pass through to the
    // zero-crossing detector.
    let detrended = detrend_linear(displacement.values());
    let filtered = match config.filter {
        FilterKind::Fft => FftBandPass::new(config.band_min_hz, config.cutoff_hz, rate)
            .map_err(|e| ExtractError::FilterDesign(e.to_string()))?
            .filter(&detrended),
        FilterKind::Fir { taps } => {
            FirFilter::band_pass(config.band_min_hz, config.cutoff_hz, rate, taps)
                .map_err(|e| ExtractError::FilterDesign(e.to_string()))?
                .filter(&detrended)
        }
    };
    Ok(displacement.with_values(filtered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::InvalidSeriesError;
    use std::f64::consts::PI;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn displacement_with_noise(
        rate_bpm: f64,
        noise_amp: f64,
        secs: f64,
    ) -> Result<TimeSeries, InvalidSeriesError> {
        let dt = 1.0 / 16.0;
        let n = (secs / dt) as usize;
        let f = rate_bpm / 60.0;
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                0.005 * (2.0 * PI * f * t).sin()
                    + noise_amp * (2.0 * PI * 3.7 * t).sin()
                    + 0.001 * t // slow drift
            })
            .collect();
        TimeSeries::new(0.0, dt, values)
    }

    #[test]
    fn extracts_clean_breathing_tone() -> TestResult {
        let cfg = PipelineConfig::paper_default();
        let disp = displacement_with_noise(12.0, 0.004, 60.0)?;
        let breath = extract_breath_signal(&disp, &cfg)?;
        assert_eq!(breath.len(), disp.len());
        // The extracted signal should correlate strongly with the clean
        // 12 bpm tone.
        let clean: Vec<f64> = (0..disp.len())
            .map(|i| (2.0 * PI * 0.2 * (i as f64 / 16.0)).sin())
            .collect();
        let corr = dsp::stats::pearson(breath.values(), &clean).ok_or("no correlation")?;
        assert!(corr > 0.95, "correlation {corr}");
        Ok(())
    }

    #[test]
    fn removes_drift() -> TestResult {
        let cfg = PipelineConfig::paper_default();
        let disp = displacement_with_noise(10.0, 0.0, 60.0)?;
        let breath = extract_breath_signal(&disp, &cfg)?;
        let mean: f64 = breath.values().iter().sum::<f64>() / breath.len() as f64;
        assert!(mean.abs() < 1e-4, "mean {mean}");
        // Ends should not ramp away (drift removed).
        let head: f64 = breath.values()[..32].iter().map(|x| x.abs()).sum::<f64>() / 32.0;
        let tail: f64 = breath.values()[breath.len() - 32..]
            .iter()
            .map(|x| x.abs())
            .sum::<f64>()
            / 32.0;
        assert!(tail < 3.0 * head + 0.01);
        Ok(())
    }

    #[test]
    fn fir_variant_also_works() -> TestResult {
        let mut cfg = PipelineConfig::paper_default();
        cfg.filter = FilterKind::Fir { taps: 129 };
        let disp = displacement_with_noise(12.0, 0.004, 60.0)?;
        let breath = extract_breath_signal(&disp, &cfg)?;
        let clean: Vec<f64> = (0..disp.len())
            .map(|i| (2.0 * PI * 0.2 * (i as f64 / 16.0)).sin())
            .collect();
        // Skip FIR edge transients.
        let corr = dsp::stats::pearson(&breath.values()[100..860], &clean[100..860])
            .ok_or("no correlation")?;
        assert!(corr > 0.9, "correlation {corr}");
        Ok(())
    }

    #[test]
    fn too_short_input_is_rejected() -> TestResult {
        let cfg = PipelineConfig::paper_default();
        let disp = TimeSeries::new(0.0, 1.0 / 16.0, vec![0.0; 10])?;
        let Err(err) = extract_breath_signal(&disp, &cfg) else {
            return Err("10 samples must be too short".into());
        };
        assert_eq!(err, ExtractError::TooShort { have: 10, need: 64 });
        assert!(err.to_string().contains("too short"));
        Ok(())
    }

    #[test]
    fn incompatible_cutoff_is_reported() -> TestResult {
        let mut cfg = PipelineConfig::paper_default();
        cfg.cutoff_hz = 20.0; // above the 8 Hz Nyquist of 16 Hz bins
        let disp = displacement_with_noise(10.0, 0.0, 30.0)?;
        let err = extract_breath_signal(&disp, &cfg).err();
        assert!(matches!(err, Some(ExtractError::FilterDesign(_))));
        Ok(())
    }

    #[test]
    fn output_preserves_time_base() -> TestResult {
        let cfg = PipelineConfig::paper_default();
        let disp = displacement_with_noise(10.0, 0.001, 30.0)?;
        let breath = extract_breath_signal(&disp, &cfg)?;
        assert_eq!(breath.start_s(), disp.start_s());
        assert_eq!(breath.dt_s(), disp.dt_s());
        Ok(())
    }
}
