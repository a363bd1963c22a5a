//! # tagbreathe-breathing
//!
//! Human-subject models for the TagBreathe reproduction: the simulated
//! counterpart of the paper's volunteers.
//!
//! * [`waveform`] — breathing excursion patterns: pure sinusoid (metronome-
//!   paced trials), realistic asymmetric breaths with cycle jitter, and
//!   apnea-interrupted patterns;
//! * [`subject`] — a torso wearing 1–3 passive tags (chest / middle /
//!   abdomen, Section IV-D), with posture-dependent heights and per-site
//!   motion amplitudes; breathing moves tags millimetres along the facing
//!   normal;
//! * [`scenario`] — builders for the paper's experiment layouts: users side
//!   by side (Figure 13), rooms with contending item tags (Figure 14);
//! * [`metronome`] — ground truth schedules and the accuracy metric of
//!   Eq. (8).
//!
//! # Examples
//!
//! ```
//! use tagbreathe_breathing::{Subject, TagSite};
//!
//! let subject = Subject::paper_default(1, 4.0);
//! let rest = subject.tag_position(TagSite::Chest, 0.0);
//! let later = subject.tag_position(TagSite::Chest, 1.5);
//! // Breathing has moved the chest tag by at most a centimetre.
//! assert!(rest.distance_to(later) < 0.01);
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

pub mod metronome;
pub mod motion;
pub mod presets;
pub mod scenario;
pub mod subject;
pub mod waveform;

pub use metronome::{accuracy, Metronome};
pub use motion::BodyMotion;
pub use presets::Demographic;
pub use scenario::{ItemTag, Scenario, ScenarioBuilder};
pub use subject::{Posture, Subject, TagSite};
pub use waveform::Waveform;
