//! # tagbreathe-dsp
//!
//! Signal-processing substrate for the [TagBreathe] reproduction: everything
//! the breath-extraction pipeline needs to turn irregular phase readings into
//! a breathing-rate estimate.
//!
//! The paper's pipeline (Section IV) uses:
//!
//! * phase wrapping/differencing ([`phase`]) for the displacement computation
//!   of Eq. (3);
//! * time binning and resampling ([`resample`]) for multi-tag fusion
//!   (Eq. 6) and uniform-grid analysis;
//! * an FFT ([`fft`]) and FFT-based low-pass filter
//!   ([`filter::FftLowPass`], cutoff 0.67 Hz) — or the windowed-sinc FIR
//!   alternative ([`filter::FirFilter`]) — for breath-signal extraction;
//! * zero-crossing detection ([`zero_crossing`]) for the instantaneous rate
//!   of Eq. (5) — batch scans and the incremental
//!   [`zero_crossing::ZeroCrossingStream`] /
//!   [`zero_crossing::CrossingRateEstimator`] share one state machine;
//! * the push-based [`stream::Operator`] layer with causal filter state
//!   ([`filter::FirStream`], [`filter::Biquad`]) for real-time pipelines;
//! * spectral-peak estimation ([`spectrum`]) as the coarser FFT-peak
//!   baseline the paper discusses (resolution `1/w`).
//!
//! [TagBreathe]: https://doi.org/10.1109/ICDCS.2017.270
//!
//! # Examples
//!
//! Extract a 12 bpm tone buried in high-frequency noise:
//!
//! ```
//! use tagbreathe_dsp::filter::FftLowPass;
//! use tagbreathe_dsp::zero_crossing::{find_zero_crossings, rate_from_crossings};
//!
//! let sample_rate = 64.0;
//! let signal: Vec<f64> = (0..(64 * 60))
//!     .map(|i| {
//!         let t = i as f64 / sample_rate;
//!         (2.0 * std::f64::consts::PI * 0.2 * t).sin()
//!             + 0.4 * (2.0 * std::f64::consts::PI * 9.0 * t).sin()
//!     })
//!     .collect();
//!
//! let clean = FftLowPass::breathing_band(sample_rate)?.filter(&signal);
//! let crossings = find_zero_crossings(&clean, 0.0, 1.0 / sample_rate, 0.0);
//! let times: Vec<f64> = crossings.iter().map(|c| c.time).collect();
//! let rate_hz = rate_from_crossings(&times).expect("enough crossings");
//! assert!((rate_hz * 60.0 - 12.0).abs() < 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(
    missing_docs,
    unreachable_pub,
    unsafe_code,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![warn(missing_debug_implementations)]

pub mod autocorr;
mod complex;
pub mod fft;
pub mod filter;
pub mod goertzel;
pub mod phase;
pub mod resample;
pub mod spectrum;
pub mod stats;
pub mod stft;
pub mod stream;
pub mod units;
pub mod window;
pub mod zero_crossing;

pub use complex::Complex;
pub use resample::Sample;
