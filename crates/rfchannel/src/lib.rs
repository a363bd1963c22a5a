//! # tagbreathe-rfchannel
//!
//! A UHF RFID backscatter channel simulator: the physical substrate the
//! TagBreathe reproduction runs on in place of real hardware (Impinj R420
//! reader, Alien 9640 tags, 8.5 dBic panel antenna).
//!
//! The model captures every channel effect the paper's pipeline depends on:
//!
//! * **Phase (Eq. 1)** — `θ = (2π/λ · 2d + c) mod 2π` with per-channel
//!   wavelength, per-(channel, tag) constant offsets, Gaussian noise and the
//!   reader's 2π/4096 quantisation ([`observation`]);
//! * **Frequency hopping** — 10-channel plan with 0.2 s dwell as measured in
//!   the paper's Figure 5 ([`channel_plan`]), which makes raw phase
//!   discontinuous at hops (Figure 4);
//! * **Link budget** — forward-limited passive-tag power-up, two-way path
//!   loss, antenna pattern, polarisation loss ([`link`], [`antenna`]);
//! * **Body blockage** — orientation-dependent attenuation reproducing the
//!   read-rate collapse beyond 90° (Figure 15) ([`blockage`]);
//! * **Fading** — static per-channel Rician multipath ([`fading`]);
//! * **RSSI / Doppler reports** — quantised RSSI (0.5 dBm) and the noisy
//!   intra-packet Doppler estimate of Eq. 2 ([`observation`]).
//!
//! # Examples
//!
//! Evaluate whether a tag 4 m from the antenna can be read:
//!
//! ```
//! use tagbreathe_rfchannel::link::{LinkBudget, LinkConfig};
//!
//! let config = LinkConfig::paper_default();
//! let budget = LinkBudget::evaluate(&config, 4.0, 0.3276, 8.5, 0.0, 0.0);
//! assert!(budget.powered);
//! let p = budget.read_probability(&config);
//! assert!(p > 0.5 && p < 1.0);
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

pub mod antenna;
pub mod blockage;
pub mod channel_plan;
pub mod fading;
pub mod geometry;
pub mod link;
pub mod noise;
pub mod observation;
pub mod tworay;
pub mod units;

pub use antenna::Antenna;
pub use blockage::BodyBlockage;
pub use channel_plan::{ChannelPlan, HopSequence};
pub use fading::FadingTable;
pub use geometry::Vec3;
pub use link::{LinkBudget, LinkConfig};
pub use observation::{MeasurementNoise, PhyObservation};
pub use units::{Db, Dbm, Hertz};
