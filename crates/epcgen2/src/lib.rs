//! # tagbreathe-epcgen2
//!
//! An EPC Class-1 Generation-2 MAC and reader simulator: the stand-in for
//! the Impinj Speedway R420 the TagBreathe paper uses.
//!
//! * [`epc`] — 96-bit EPCs with the paper's 64-bit user-ID / 32-bit tag-ID
//!   overwrite layout (Figure 9);
//! * [`mapping`] — identity resolution, including the mapping-table
//!   fallback for readers that cannot rewrite EPCs;
//! * [`q_algorithm`] — the dynamic-Q slotted-ALOHA adaptation;
//! * [`inventory`] — frame-slotted inventory rounds with realistic slot
//!   timing, so read rates emerge from the MAC;
//! * [`world`] — the [`world::TagWorld`] abstraction plus the adapter over
//!   breathing scenarios;
//! * [`reader`] — the full reader loop: frequency hopping (Figure 5),
//!   antenna round-robin, per-read physical-layer observation;
//! * [`report`] — LLRP-style low-level reports and CSV trace replay;
//! * [`wire`] — the TagBreathe ingest wire protocol (TBIP/1) framing;
//! * [`client`] — a reader-side [`client::ReaderClient`] speaking it.
//!
//! # Examples
//!
//! Run a 10-second capture of a single breathing user:
//!
//! ```
//! use tagbreathe_epcgen2::reader::Reader;
//! use tagbreathe_epcgen2::world::ScenarioWorld;
//! use breathing::Scenario;
//!
//! let world = ScenarioWorld::new(Scenario::paper_default());
//! let reports = Reader::paper_default().run(&world, 10.0);
//! assert!(!reports.is_empty());
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

pub mod client;
pub mod epc;
pub mod inventory;
pub mod llrp;
pub mod mapping;
pub mod metrics;
pub mod q_algorithm;
pub mod reader;
pub mod report;
pub mod select;
pub mod session;
pub mod timing;
pub mod wire;
pub mod world;
pub mod writer;

pub use client::{ClientError, ReaderClient};
pub use epc::Epc96;
pub use mapping::{EmbeddedIdentity, IdentityResolver, MappingTable, OpenAdmission, TagIdentity};
pub use reader::{Reader, ReaderConfig};
pub use report::TagReport;
pub use select::SelectMask;
pub use session::Session;
pub use timing::LinkProfile;
pub use world::{ScenarioWorld, TagWorld};
pub use writer::{commission, CommissionPlan, CommissionReport, WriteConfig, WriteOutcome};
