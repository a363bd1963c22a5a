//! The [`Recorder`] trait — the one observability sink — and its no-op /
//! shared implementations.
//!
//! Instrumented pipeline code never names a concrete sink: it takes
//! `&dyn Recorder`. The sink has two halves, each with its own enable
//! bit and each off and empty unless an implementation overrides it. The
//! metric half ([`Recorder::enabled`]) takes [`Recorder::count`] /
//! [`Recorder::gauge`] / [`Recorder::observe`]; the trace half
//! ([`Recorder::tracing`]) takes [`Recorder::emit`]. The shipped
//! implementations are [`NoopRecorder`] (the default everywhere — both
//! halves off, so instrumentation costs one virtual call),
//! [`crate::registry::Registry`] (metrics only) and
//! [`crate::trace::FlightRecorder`] (trace events only).
//! [`SharedRecorder`] is the cloneable, thread-safe handle long-lived
//! stages store, so a `StreamingMonitor`-style owner stays `Send + Debug`
//! without generic plumbing.

use crate::trace::TraceEvent;
use std::fmt;
use std::sync::Arc;

/// One metric label dimension — e.g. `port="2"` on the per-antenna
/// link-quality gauges. Values are integers so labelled hot-path metrics
/// stay float-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label {
    /// Label name, e.g. `"port"`.
    pub name: &'static str,
    /// Label value.
    pub value: u64,
}

impl Label {
    /// Creates a label.
    #[must_use]
    pub fn new(name: &'static str, value: u64) -> Self {
        Label { name, value }
    }

    /// The conventional antenna-port label.
    #[must_use]
    pub fn port(port: u8) -> Self {
        Label::new("port", u64::from(port))
    }

    /// The conventional fleet-shard label.
    #[must_use]
    pub fn shard(shard: u32) -> Self {
        Label::new("shard", u64::from(shard))
    }

    /// The conventional ingest-reader label (server-side sessions).
    #[must_use]
    pub fn reader(reader: u32) -> Self {
        Label::new("reader", u64::from(reader))
    }

    /// The conventional protocol-error-code label on shed counters.
    #[must_use]
    pub fn code(code: u8) -> Self {
        Label::new("code", u64::from(code))
    }

    /// The conventional pipeline-stage label on the snapshot-lag
    /// histogram (codes documented by `crate::freshness::Stage`).
    #[must_use]
    pub fn stage(code: u8) -> Self {
        Label::new("stage", u64::from(code))
    }
}

/// An observability sink: a metric half and a trace half.
///
/// Each half is off and empty unless an implementation overrides it, so a
/// sink implements only the half it stores. Implementations must be cheap
/// and non-blocking enough to call from the streaming ingest path;
/// instrumented code additionally gates any metric *computation* (clock
/// reads, length sums, EWMA updates) behind [`Recorder::enabled`], and any
/// event *construction* behind [`Recorder::tracing`], so a disabled half
/// costs ~0.
pub trait Recorder: Send + Sync {
    /// Whether the metric half stores anything at all. Instrumented code
    /// checks this once per unit of work and skips metric derivation when
    /// `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to the (optionally labelled) counter `name`.
    fn add(&self, _name: &'static str, _label: Option<Label>, _delta: u64) {}

    /// Sets the (optionally labelled) gauge `name` to `value`.
    fn set_gauge(&self, _name: &'static str, _label: Option<Label>, _value: f64) {}

    /// Records one observation of `value` into the (optionally labelled)
    /// histogram `name`.
    fn observe(&self, _name: &'static str, _label: Option<Label>, _value: u64) {}

    /// Convenience: unlabelled counter add.
    fn count(&self, name: &'static str, delta: u64) {
        self.add(name, None, delta);
    }

    /// Convenience: unlabelled gauge set.
    fn gauge(&self, name: &'static str, value: f64) {
        self.set_gauge(name, None, value);
    }

    /// Convenience: unlabelled histogram observation.
    fn record(&self, name: &'static str, value: u64) {
        self.observe(name, None, value);
    }

    /// Whether the trace half stores anything at all.
    fn tracing(&self) -> bool {
        false
    }

    /// Accepts one trace event.
    fn emit(&self, _event: TraceEvent) {}
}

/// The do-nothing recorder: both halves are off and every sink method is
/// empty. This is the default for every instrumented API, making
/// observability free until a caller opts in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A cloneable, thread-safe recorder handle, forwarding both halves.
///
/// The no-op default allocates nothing, so storing a `SharedRecorder`
/// field in a pipeline struct is free until a sink is attached.
#[derive(Clone, Default)]
pub struct SharedRecorder {
    inner: Option<Arc<dyn Recorder>>,
}

impl SharedRecorder {
    /// A handle that records nothing (the default).
    #[must_use]
    pub fn noop() -> Self {
        SharedRecorder { inner: None }
    }

    /// Wraps a concrete recorder. `Arc<Registry>` and
    /// `Arc<FlightRecorder>` coerce directly:
    /// `SharedRecorder::new(registry.clone())`.
    #[must_use]
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        SharedRecorder {
            inner: Some(recorder),
        }
    }

    /// Borrows the underlying recorder as a trait object.
    #[must_use]
    pub fn as_dyn(&self) -> &dyn Recorder {
        match &self.inner {
            Some(recorder) => recorder.as_ref(),
            None => &NoopRecorder,
        }
    }
}

impl fmt::Debug for SharedRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedRecorder")
            .field("enabled", &self.enabled())
            .field("tracing", &self.tracing())
            .finish()
    }
}

impl Recorder for SharedRecorder {
    fn enabled(&self) -> bool {
        self.as_dyn().enabled()
    }

    fn add(&self, name: &'static str, label: Option<Label>, delta: u64) {
        self.as_dyn().add(name, label, delta);
    }

    fn set_gauge(&self, name: &'static str, label: Option<Label>, value: f64) {
        self.as_dyn().set_gauge(name, label, value);
    }

    fn observe(&self, name: &'static str, label: Option<Label>, value: u64) {
        self.as_dyn().observe(name, label, value);
    }

    fn tracing(&self) -> bool {
        self.as_dyn().tracing()
    }

    fn emit(&self, event: TraceEvent) {
        self.as_dyn().emit(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn noop_is_disabled_and_stateless() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.count("x", 1);
        rec.gauge("y", 2.0);
        rec.record("z", 3);
    }

    #[test]
    fn shared_default_is_noop() {
        let rec = SharedRecorder::default();
        assert!(!rec.enabled());
        assert!(format!("{rec:?}").contains("enabled: false"));
    }

    #[test]
    fn shared_delegates_to_registry() {
        let registry = Arc::new(Registry::new());
        let rec = SharedRecorder::new(registry.clone());
        assert!(rec.enabled());
        rec.count("hits_total", 2);
        rec.add("hits_total", Some(Label::port(3)), 5);
        assert_eq!(registry.counter("hits_total"), 7);
    }

    #[test]
    fn labels_order_and_compare() {
        assert_eq!(Label::port(1), Label::new("port", 1));
        assert!(Label::new("port", 1) < Label::new("port", 2));
    }
}
