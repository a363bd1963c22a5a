//! # tagbreathe-obs
//!
//! Zero-dependency observability for the TagBreathe pipeline: counters,
//! gauges, fixed log-bucket histograms, trace events and span-style stage
//! timers behind one cheap sink, the [`Recorder`] trait.
//!
//! The design centre is the **disabled path**: every instrumented pipeline
//! stage takes a `&dyn Recorder` (defaulting to [`NoopRecorder`]) and gates
//! all non-trivial metric work behind [`Recorder::enabled`], and all event
//! construction behind [`Recorder::tracing`], so monitoring costs
//! approximately one virtual call per report when nothing is listening —
//! the streaming ingest hot path stays amortised O(1) with no clock reads,
//! no allocation and no floating-point work.
//!
//! When something *is* listening, the concrete sink is a [`Registry`] for
//! metrics or a [`FlightRecorder`] for trace events. The registry is a
//! thread-safe store keyed by `(name, label)` that exposes a
//! Prometheus-style plain-text rendering
//! ([`Registry::render_prometheus`]) and a JSON dump
//! ([`Registry::render_json`]) for machine consumption (the
//! `tagbreathe-cli metrics` subcommand, the server's `/metrics`).
//!
//! * [`recorder`] — the [`Recorder`] trait with its metric and trace
//!   halves, [`NoopRecorder`], and the cloneable [`SharedRecorder`]
//!   handle long-lived stages store;
//! * [`registry`] — the recording [`Registry`] and its renderings;
//! * [`histogram`] — [`LogHistogram`], 64 power-of-two buckets plus an
//!   overflow bucket, integers only on the record path;
//! * [`span`] — [`StageTimer`], a drop guard that records a stage
//!   histogram, emits a span event, or both, and reads the clock only
//!   when a half it feeds is on;
//! * [`freshness`] — ingest→publication lag attribution: the
//!   [`freshness::Stage`] label codes and the [`freshness::WatermarkClock`]
//!   watermark-lag tracker;
//! * [`slo`] — declarative service-level objectives ([`slo::SloTable`])
//!   evaluated by a windowed multi-rate burn-rate state machine
//!   (ok → warning → burning);
//! * [`trace`] — the flight recorder: typed [`trace::TraceEvent`]s
//!   retained in a fixed-capacity overwrite-oldest ring
//!   ([`FlightRecorder`], a trace-only [`Recorder`]) and exportable as
//!   Chrome trace-event JSON;
//! * [`json`] — a minimal JSON well-formedness checker so dependants can
//!   assert that emitted dumps parse without an external JSON crate.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use tagbreathe_obs::{Recorder, Registry, SharedRecorder};
//!
//! let registry = Arc::new(Registry::new());
//! let rec = SharedRecorder::new(registry.clone());
//!
//! // Instrumented code sees only `&dyn Recorder`.
//! rec.count("demo_reports_total", 3);
//! rec.gauge("demo_backlog", 1.5);
//! rec.record("demo_latency_ns", 1200);
//!
//! assert_eq!(registry.counter("demo_reports_total"), 3);
//! let text = registry.render_prometheus();
//! assert!(text.contains("demo_reports_total 3"));
//! tagbreathe_obs::json::validate(&registry.render_json())?;
//! # Ok::<(), tagbreathe_obs::json::JsonError>(())
//! ```
//!
//! And the disabled path — the default for every instrumented API:
//!
//! ```
//! use tagbreathe_obs::{NoopRecorder, Recorder};
//!
//! let rec = NoopRecorder;
//! assert!(!rec.enabled());
//! rec.count("never_stored", 1); // free: no state, no clock, no floats
//! ```

#![forbid(unsafe_code)]
#![deny(
    missing_docs,
    unreachable_pub,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![warn(missing_debug_implementations)]

pub mod freshness;
pub mod histogram;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod slo;
pub mod span;
pub mod trace;

pub use freshness::{Stage, WatermarkClock};
pub use histogram::LogHistogram;
pub use recorder::{Label, NoopRecorder, Recorder, SharedRecorder};
pub use registry::{MetricsSnapshot, Registry};
pub use slo::{BurnRatePolicy, SloSpec, SloState, SloTable, SloTransition};
pub use span::StageTimer;
pub use trace::{FlightRecorder, TraceEvent};
