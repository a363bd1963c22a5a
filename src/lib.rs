//! # tagbreathe-suite
//!
//! Meta-crate of the TagBreathe reproduction (Hou, Wang, Zheng — IEEE
//! ICDCS 2017: *TagBreathe: Monitor Breathing with Commodity RFID
//! Systems*). Re-exports the full stack so examples and downstream users
//! need a single dependency:
//!
//! * [`dsp`] — FFT, filters, resampling, zero-crossing analysis;
//! * [`rfchannel`] — the UHF backscatter channel simulator;
//! * [`breathing`] — breathing-subject kinematics and scenarios;
//! * [`epcgen2`] — the EPC C1G2 MAC + reader simulator;
//! * [`tagbreathe`] — the paper's pipeline: preprocessing, fusion,
//!   extraction, rate estimation, streaming;
//! * [`obs`] — counters, gauges, histograms and stage timers behind the
//!   zero-cost [`obs::Recorder`] trait.
//!
//! # Examples
//!
//! ```
//! use tagbreathe_suite::prelude::*;
//!
//! let world = ScenarioWorld::new(Scenario::paper_default());
//! let reports = Reader::paper_default().run(&world, 30.0);
//! let analysis = BreathMonitor::paper_default()
//!     .analyze(&reports, &EmbeddedIdentity::new([1]));
//! assert!(analysis.users[&1].is_ok());
//! ```

pub use breathing;
pub use dsp;
pub use epcgen2;
pub use obs;
pub use rfchannel;
pub use server;
pub use tagbreathe;

/// The most common imports in one place.
pub mod prelude {
    pub use breathing::{
        accuracy, Metronome, Posture, Scenario, ScenarioBuilder, Subject, TagSite, Waveform,
    };
    pub use epcgen2::mapping::{EmbeddedIdentity, IdentityResolver, MappingTable, TagIdentity};
    pub use epcgen2::reader::{Reader, ReaderConfig};
    pub use epcgen2::report::TagReport;
    pub use epcgen2::world::{ScenarioWorld, TagWorld};
    pub use epcgen2::Epc96;
    pub use obs::{NoopRecorder, Recorder, Registry, SharedRecorder, StageTimer};
    pub use rfchannel::antenna::Antenna;
    pub use rfchannel::geometry::Vec3;
    pub use rfchannel::link::{LinkBudget, LinkConfig};
    pub use tagbreathe::fleet::FleetEngine;
    pub use tagbreathe::pipeline::StreamingMonitor;
    pub use tagbreathe::{
        AnalysisFailure, AntennaStrategy, BreathMonitor, FilterKind, PipelineConfig,
        PreprocessKind, RateSnapshot, TimeSeries, UserStreamState,
    };
}
