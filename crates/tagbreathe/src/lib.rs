//! # tagbreathe
//!
//! A full reimplementation of **TagBreathe** (Hou, Wang, Zheng — IEEE ICDCS
//! 2017): breath monitoring of multiple users from the low-level data of a
//! commodity UHF RFID reader.
//!
//! The pipeline (paper Figure 10):
//!
//! 1. **Classify** ([`demux`]) every report by the user-ID / tag-ID carried
//!    in overwritten EPCs;
//! 2. **Preprocess** ([`preprocess`]) each tag's phase stream into
//!    hop-immune displacement increments (Eqs. 3–4);
//! 3. **Fuse** ([`fusion`]) each user's tags at the raw-data level
//!    (Eqs. 6–7);
//! 4. **Extract** ([`extract`]) the breathing signal with a 0.67 Hz
//!    FFT low-pass (or FIR alternative);
//! 5. **Estimate** ([`rate`]) breathing rates from zero crossings
//!    (Eq. 5, M = 7).
//!
//! Stages 2–3 are stateful incremental operators wired into one per-user
//! graph ([`operators::UserStreamState`]), which also picks each user's
//! best antenna (Section IV-D.3); [`BreathMonitor`] (batch) and the
//! real-time [`engine::Engine`] are thin drivers over that same graph, so
//! both paths share a single implementation of the paper's math. The
//! engine is one router over two executors: [`StreamingMonitor`] runs the
//! graphs inline on the caller's thread, [`FleetEngine`] on per-shard
//! worker threads, with bit-identical output.
//! [`baseline`] holds the RSSI/Doppler comparison estimators, and
//! [`flight`] turns the observability layer's flight recorder into
//! anomaly-triggered, replayable diagnostic bundles.
//!
//! # Examples
//!
//! End-to-end over a simulated capture:
//!
//! ```
//! use tagbreathe::BreathMonitor;
//! use epcgen2::mapping::EmbeddedIdentity;
//! use epcgen2::reader::Reader;
//! use epcgen2::world::ScenarioWorld;
//! use breathing::Scenario;
//!
//! let world = ScenarioWorld::new(Scenario::paper_default());
//! let reports = Reader::paper_default().run(&world, 30.0);
//!
//! let monitor = BreathMonitor::paper_default();
//! let analysis = monitor.analyze(&reports, &EmbeddedIdentity::new([1]));
//! let user = analysis.users[&1].as_ref().expect("user analysed");
//! let bpm = user.mean_rate_bpm().expect("rate estimated");
//! assert!((bpm - 10.0).abs() < 2.0);
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

pub mod apnea;
pub mod baseline;
pub mod config;
pub mod demux;
pub mod engine;
pub mod enhancement;
pub mod extract;
pub mod fleet;
pub mod flight;
pub mod fusion;
pub mod metrics;
pub mod monitor;
pub mod operators;
pub mod patterns;
pub mod pipeline;
pub mod preprocess;
pub mod quality;
pub mod rate;
pub mod render;
pub mod series;

pub use apnea::{detect_apnea, ApneaConfig, ApneaEpisode};
pub use config::{AntennaStrategy, FilterKind, PipelineConfig, PreprocessKind};
pub use demux::{ChannelHop, LinkQualityTracker};
pub use enhancement::{enhanced_estimates, Agreement, EnhancedEstimate};
pub use epcgen2::report::TagReport;
pub use fleet::{FleetEngine, FleetError};
pub use flight::{
    Anomaly, AnomalyDetector, AnomalyKind, DiagnosticBundle, FlightDiagnostics, TriggerConfig,
};
pub use monitor::{AnalysisFailure, AnalysisReport, BreathMonitor, UserAnalysis};
pub use operators::{UserSnapshot, UserStreamState};
pub use patterns::{analyze_pattern, Breath, PatternAnalysis, PatternClass};
pub use pipeline::{RateSnapshot, StreamingMonitor};
pub use quality::{assess, assess_observed, Confidence, QualityReport, QualityThresholds};
pub use rate::{RateEstimate, RatePoint};
pub use series::TimeSeries;
