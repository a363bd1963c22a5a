//! Pipeline configuration.

use rfchannel::channel_plan::ChannelPlan;

/// Which low-pass filter extracts the breathing band (Section IV-B: the
/// FFT filter is primary; an FIR filter "can also be adopted").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FilterKind {
    /// FFT → zero high bins → IFFT (the paper's method).
    #[default]
    Fft,
    /// Windowed-sinc FIR low-pass with the given tap count.
    Fir {
        /// Number of filter taps (odd recommended).
        taps: usize,
    },
}

/// How phase readings become a displacement trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PreprocessKind {
    /// The paper's method (Eqs. 3–4 + 6–7): per-channel consecutive-pair
    /// increments, binned and integrated.
    #[default]
    IncrementBinning,
    /// Enhanced variant: per-channel unwrapped displacement tracks,
    /// segment-centred and merged across channels, fused as levels.
    /// Retains full breathing amplitude when per-tag read rates are low
    /// (heavy contention, grazing orientations).
    ChannelTrackMerge,
}

/// How multiple antenna ports' data is used per user (Section IV-D.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AntennaStrategy {
    /// The paper's rule: score ports by read rate and RSSI, extract from
    /// the optimal port only.
    #[default]
    BestPort,
    /// Fuse displacement data from every port. Phase offsets differ per
    /// antenna path, but displacement increments are offset-free, so the
    /// streams combine constructively — useful when coverage is split and
    /// no single port sees enough reads.
    MergeAll,
}

/// Configuration of the TagBreathe processing pipeline.
///
/// Defaults follow the paper: 0.67 Hz cutoff (40 bpm), M = 7 buffered zero
/// crossings (3 breaths), the 10-channel hop plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Channel plan in use (for per-channel wavelengths in Eq. 3).
    pub plan: ChannelPlan,
    /// Low-pass cutoff for breath extraction, Hz.
    pub cutoff_hz: f64,
    /// Filter implementation.
    pub filter: FilterKind,
    /// Preprocessing strategy.
    pub preprocess: PreprocessKind,
    /// Multi-antenna handling.
    pub antenna: AntennaStrategy,
    /// Fusion bin width Δt of Eq. (6), seconds.
    pub fusion_bin_s: f64,
    /// Maximum gap between two same-channel phase readings still treated
    /// as consecutive (Eq. 3), seconds.
    pub max_phase_gap_s: f64,
    /// Number of buffered zero crossings M in Eq. (5).
    pub zero_crossing_buffer: usize,
    /// Zero-crossing hysteresis as a fraction of the signal RMS.
    pub hysteresis_rms_fraction: f64,
    /// Lower edge of the breathing band for spectral estimation, Hz.
    pub band_min_hz: f64,
    /// Minimum samples required before estimating a rate.
    pub min_samples: usize,
    /// Optional median despike applied to the fused displacement before
    /// extraction (odd bin count, e.g. 5). Suppresses isolated impulses
    /// from corrupted readings or fidget bumps; `None` (the paper's
    /// processing) applies no despiking.
    pub despike_median: Option<usize>,
    /// Abstention threshold on the raw fused-displacement range, metres.
    /// Breathing (even via the ~`n_channels`× per-channel gain) spans
    /// decimetres; gross locomotion spans many metres — above this limit
    /// the user is reported as in motion rather than estimated.
    pub gross_motion_limit_m: f64,
}

/// Error from validating a pipeline configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfigError {
    pub(crate) what: &'static str,
}

impl std::fmt::Display for InvalidConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid pipeline configuration: {}", self.what)
    }
}

impl std::error::Error for InvalidConfigError {}

impl PipelineConfig {
    /// The paper's defaults.
    pub fn paper_default() -> Self {
        PipelineConfig {
            plan: ChannelPlan::us_10(),
            cutoff_hz: 0.67,
            filter: FilterKind::Fft,
            preprocess: PreprocessKind::IncrementBinning,
            antenna: AntennaStrategy::BestPort,
            fusion_bin_s: 1.0 / 16.0,
            max_phase_gap_s: 5.0,
            zero_crossing_buffer: 7,
            hysteresis_rms_fraction: 0.3,
            band_min_hz: 0.05,
            min_samples: 64,
            despike_median: None,
            gross_motion_limit_m: 1.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error describing the first violated constraint.
    pub fn validate(&self) -> Result<(), InvalidConfigError> {
        if !(self.cutoff_hz > 0.0 && self.cutoff_hz.is_finite()) {
            return Err(InvalidConfigError {
                what: "cutoff frequency must be positive",
            });
        }
        if !(self.fusion_bin_s > 0.0 && self.fusion_bin_s.is_finite()) {
            return Err(InvalidConfigError {
                what: "fusion bin width must be positive",
            });
        }
        if 1.0 / self.fusion_bin_s < 2.0 * self.cutoff_hz {
            return Err(InvalidConfigError {
                what: "fused sample rate must be at least twice the cutoff (Nyquist)",
            });
        }
        if self.max_phase_gap_s <= 0.0 {
            return Err(InvalidConfigError {
                what: "max phase gap must be positive",
            });
        }
        if self.zero_crossing_buffer < 2 {
            return Err(InvalidConfigError {
                what: "zero-crossing buffer must hold at least 2 crossings",
            });
        }
        if !(0.0..1.0).contains(&self.hysteresis_rms_fraction) {
            return Err(InvalidConfigError {
                what: "hysteresis fraction must be in [0, 1)",
            });
        }
        if self.band_min_hz <= 0.0 || self.band_min_hz >= self.cutoff_hz {
            return Err(InvalidConfigError {
                what: "band minimum must be positive and below the cutoff",
            });
        }
        if let Some(w) = self.despike_median {
            if w % 2 == 0 || w < 3 {
                return Err(InvalidConfigError {
                    what: "despike median width must be odd and at least 3",
                });
            }
        }
        if self.gross_motion_limit_m.is_nan() || self.gross_motion_limit_m <= 0.0 {
            return Err(InvalidConfigError {
                what: "gross-motion limit must be positive",
            });
        }
        if let FilterKind::Fir { taps } = self.filter {
            if taps == 0 {
                return Err(InvalidConfigError {
                    what: "FIR filter needs at least one tap",
                });
            }
        }
        Ok(())
    }

    /// Fused sample rate `1/Δt`, Hz.
    pub fn fused_rate_hz(&self) -> f64 {
        1.0 / self.fusion_bin_s
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        assert!(PipelineConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn paper_default_values_match_paper() {
        let c = PipelineConfig::paper_default();
        assert_eq!(c.cutoff_hz, 0.67);
        assert_eq!(c.zero_crossing_buffer, 7);
        assert_eq!(c.plan.len(), 10);
        assert_eq!(c.filter, FilterKind::Fft);
    }

    #[test]
    fn rejects_nyquist_violation() {
        let mut c = PipelineConfig::paper_default();
        c.fusion_bin_s = 1.0; // 1 Hz fused rate < 2 × 0.67 Hz
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_cutoff_and_bins() {
        let mut c = PipelineConfig::paper_default();
        c.cutoff_hz = 0.0;
        assert!(c.validate().is_err());
        let mut c = PipelineConfig::paper_default();
        c.fusion_bin_s = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_small_crossing_buffer() {
        let mut c = PipelineConfig::paper_default();
        c.zero_crossing_buffer = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_band_min_above_cutoff() {
        let mut c = PipelineConfig::paper_default();
        c.band_min_hz = 1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_even_despike_width() {
        let mut c = PipelineConfig::paper_default();
        c.despike_median = Some(4);
        assert!(c.validate().is_err());
        c.despike_median = Some(1);
        assert!(c.validate().is_err());
        c.despike_median = Some(5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_non_positive_motion_limit() {
        let mut c = PipelineConfig::paper_default();
        c.gross_motion_limit_m = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_zero_tap_fir() {
        let mut c = PipelineConfig::paper_default();
        c.filter = FilterKind::Fir { taps: 0 };
        assert!(c.validate().is_err());
        c.filter = FilterKind::Fir { taps: 65 };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fused_rate() {
        assert_eq!(PipelineConfig::paper_default().fused_rate_hz(), 16.0);
    }

    #[test]
    fn error_displays() {
        let mut c = PipelineConfig::paper_default();
        c.cutoff_hz = -1.0;
        assert!(matches!(c.validate(), Err(e) if e.to_string().contains("cutoff")));
    }
}
