//! The flight recorder: typed trace events in a fixed-capacity,
//! overwrite-oldest ring buffer, plus a Chrome trace-event export.
//!
//! Aggregate metrics ([`crate::registry`]) say *how often* something
//! happened; this module records *what happened, in order* — the exact
//! sequence of per-read provenance, phase accepts/rejects, channel hops
//! and stage spans that led to one breathing estimate. Events travel
//! through the trace half of the one sink, [`Recorder`]:
//!
//! * instrumented code takes `&dyn Recorder` and gates all event
//!   construction behind [`Recorder::tracing`], so the
//!   [`NoopRecorder`](crate::NoopRecorder) costs one virtual call;
//! * [`TraceEvent`] is `Copy` and fixed-size — names are `&'static str`,
//!   payloads are plain numbers — so emitting into the preallocated ring
//!   never allocates on the hot path;
//! * the ring overwrites its oldest event when full ([`FlightRecorder`]),
//!   keeping the *most recent* history (the "flight recorder" semantics)
//!   and counting what it dropped.
//!
//! [`chrome_trace`] renders a slice of events as Chrome trace-event JSON
//! (loadable in `chrome://tracing` or Perfetto); the per-user / per-tag /
//! per-port keys on every event make a single user's last-N-seconds
//! history extractable with [`events_for_user`].
//!
//! # Examples
//!
//! ```
//! use tagbreathe_obs::trace::{chrome_trace, FlightRecorder, TraceEvent};
//! use tagbreathe_obs::Recorder;
//!
//! let ring = FlightRecorder::with_capacity(128)?;
//! ring.emit(TraceEvent::instant("snapshot", 5.0).with_user(1));
//! ring.emit(TraceEvent::read(5.01, 1, 2, 1, 7, 1.25, -55.0));
//! assert_eq!(ring.len(), 2);
//! let events = ring.snapshot();
//! tagbreathe_obs::json::validate(&chrome_trace(&events))?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::recorder::Recorder;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What a [`TraceEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A completed span: `dur_ns` holds the elapsed wall time.
    Span,
    /// A point-in-time marker (phase accept/reject, channel hop, anomaly).
    Instant,
    /// Per-read provenance: the payload carries the full report fields
    /// (`channel`, phase in `value_a`, RSSI in `value_b`), enough to
    /// reconstruct the read for deterministic replay.
    Read,
}

/// One fixed-size trace event. `Copy`, no heap: pushing into the ring is
/// allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Event kind.
    pub kind: EventKind,
    /// Event name (static so hot-path emission never allocates).
    pub name: &'static str,
    /// Stream time of the event, seconds.
    pub time_s: f64,
    /// Span duration, nanoseconds (0 for non-span events).
    pub dur_ns: u64,
    /// User the event belongs to (0 = not user-scoped).
    pub user: u64,
    /// Tag ID within the user (0 = not tag-scoped).
    pub tag: u32,
    /// Antenna port (0 = not port-scoped).
    pub port: u8,
    /// RF channel index.
    pub channel: u16,
    /// First payload slot (meaning depends on `name`; phase for reads).
    pub value_a: f64,
    /// Second payload slot (RSSI for reads).
    pub value_b: f64,
}

impl TraceEvent {
    /// An instant event with no scope or payload.
    #[must_use]
    pub fn instant(name: &'static str, time_s: f64) -> Self {
        TraceEvent {
            kind: EventKind::Instant,
            name,
            time_s,
            dur_ns: 0,
            user: 0,
            tag: 0,
            port: 0,
            channel: 0,
            value_a: 0.0,
            value_b: 0.0,
        }
    }

    /// A completed span of `dur_ns` nanoseconds starting at `time_s`.
    #[must_use]
    pub fn span(name: &'static str, time_s: f64, dur_ns: u64) -> Self {
        TraceEvent {
            kind: EventKind::Span,
            dur_ns,
            ..TraceEvent::instant(name, time_s)
        }
    }

    /// A per-read provenance event carrying the full report fields.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        time_s: f64,
        user: u64,
        tag: u32,
        port: u8,
        channel: u16,
        phase_rad: f64,
        rssi_dbm: f64,
    ) -> Self {
        TraceEvent {
            kind: EventKind::Read,
            name: "read",
            time_s,
            dur_ns: 0,
            user,
            tag,
            port,
            channel,
            value_a: phase_rad,
            value_b: rssi_dbm,
        }
    }

    /// Scopes the event to a user.
    #[must_use]
    pub fn with_user(mut self, user: u64) -> Self {
        self.user = user;
        self
    }

    /// Scopes the event to a tag.
    #[must_use]
    pub fn with_tag(mut self, tag: u32) -> Self {
        self.tag = tag;
        self
    }

    /// Scopes the event to an antenna port.
    #[must_use]
    pub fn with_port(mut self, port: u8) -> Self {
        self.port = port;
        self
    }

    /// Attaches the RF channel index.
    #[must_use]
    pub fn with_channel(mut self, channel: u16) -> Self {
        self.channel = channel;
        self
    }

    /// Attaches the payload slots.
    #[must_use]
    pub fn with_values(mut self, value_a: f64, value_b: f64) -> Self {
        self.value_a = value_a;
        self.value_b = value_b;
        self
    }
}

/// Error returned when a [`FlightRecorder`] is configured with zero
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError;

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flight recorder capacity must be at least 1 event")
    }
}

impl std::error::Error for CapacityError {}

/// Interior ring state: a preallocated buffer, a write head, and the live
/// length. `head` always points at the slot the *next* event lands in, so
/// once full the oldest event is at `head`.
#[derive(Debug)]
struct Ring {
    buf: Vec<TraceEvent>,
    head: usize,
    len: usize,
}

/// The flight recorder: a thread-safe, fixed-capacity, overwrite-oldest
/// ring of [`TraceEvent`]s.
///
/// The buffer is allocated once at construction; [`Recorder::emit`] only
/// moves a `Copy` struct into a slot, so recording never allocates. When
/// the ring is full the oldest event is overwritten and counted in
/// [`FlightRecorder::dropped`].
///
/// # Examples
///
/// ```
/// use tagbreathe_obs::trace::{FlightRecorder, TraceEvent};
/// use tagbreathe_obs::Recorder;
///
/// let ring = FlightRecorder::with_capacity(2)?;
/// for i in 0..3 {
///     ring.emit(TraceEvent::instant("tick", f64::from(i)));
/// }
/// // Oldest-first snapshot; the t=0 tick was overwritten.
/// let times: Vec<f64> = ring.snapshot().iter().map(|e| e.time_s).collect();
/// assert_eq!(times, [1.0, 2.0]);
/// assert_eq!(ring.dropped(), 1);
/// # Ok::<(), tagbreathe_obs::trace::CapacityError>(())
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    /// Overwrite counter. A standalone `Relaxed` statistic (declared in
    /// lint.toml `[atomics]`): it synchronises nothing, so readers never
    /// take the ring lock just to poll it.
    dropped: AtomicU64,
    capacity: usize,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] for `capacity == 0` — a zero-length ring
    /// would silently drop every event.
    pub fn with_capacity(capacity: usize) -> Result<Self, CapacityError> {
        if capacity == 0 {
            return Err(CapacityError);
        }
        Ok(FlightRecorder {
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity),
                head: 0,
                len: 0,
            }),
            dropped: AtomicU64::new(0),
            capacity,
        })
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        // A poisoned lock only means another thread panicked mid-emit; the
        // ring contents are still the best history available.
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events overwritten since construction (or the last
    /// [`FlightRecorder::clear`]).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies the retained events out, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let ring = self.lock();
        let mut out = Vec::with_capacity(ring.len);
        if ring.len < self.capacity {
            out.extend_from_slice(ring.buf.get(..ring.len).unwrap_or(&ring.buf));
        } else {
            // Full ring: oldest at head, wrapping.
            out.extend_from_slice(ring.buf.get(ring.head..).unwrap_or_default());
            out.extend_from_slice(ring.buf.get(..ring.head).unwrap_or(&ring.buf));
        }
        out
    }

    /// Records `events` in order under one lock, as if each were passed
    /// to [`Recorder::emit`]: a batch takes the ring lock once, and adds
    /// its overwrites to [`FlightRecorder::dropped`] once.
    pub fn emit_all<I: IntoIterator<Item = TraceEvent>>(&self, events: I) {
        let mut overwritten = 0u64;
        {
            let mut guard = self.lock();
            let ring = &mut *guard;
            for event in events {
                if ring.len < self.capacity {
                    // Still filling the preallocated buffer.
                    ring.buf.push(event);
                    ring.len += 1;
                    ring.head = if ring.len == self.capacity {
                        0
                    } else {
                        ring.len
                    };
                } else {
                    if let Some(slot) = ring.buf.get_mut(ring.head) {
                        *slot = event;
                    }
                    ring.head += 1;
                    if ring.head == self.capacity {
                        ring.head = 0;
                    }
                    overwritten += 1;
                }
            }
        }
        if overwritten > 0 {
            self.dropped.fetch_add(overwritten, Ordering::Relaxed);
        }
    }

    /// Discards all retained events and resets the dropped counter.
    pub fn clear(&self) {
        // The counter is a standalone relaxed statistic — reset it outside
        // the ring guard so no atomic work happens under the lock.
        self.dropped.store(0, Ordering::Relaxed);
        let mut ring = self.lock();
        ring.buf.clear();
        ring.head = 0;
        ring.len = 0;
    }
}

/// A flight recorder is a trace-only sink: its metric half is off.
impl Recorder for FlightRecorder {
    fn tracing(&self) -> bool {
        true
    }

    fn emit(&self, event: TraceEvent) {
        self.emit_all([event]);
    }
}

/// The events of `events` scoped to one user, preserving order.
#[must_use]
pub fn events_for_user(events: &[TraceEvent], user: u64) -> Vec<TraceEvent> {
    events.iter().filter(|e| e.user == user).copied().collect()
}

/// Renders events as Chrome trace-event JSON — one
/// `{"traceEvents": [...]}` object loadable in `chrome://tracing` or
/// Perfetto. Spans become complete (`"ph": "X"`) events with
/// microsecond timestamps and durations; instants and reads become
/// thread-scoped instant (`"ph": "i"`) events. The user maps to `pid`
/// and the antenna port to `tid`, so each user renders as one process
/// row with per-port tracks.
#[must_use]
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        let comma = if i + 1 < events.len() { "," } else { "" };
        let ts = finite_or_zero(e.time_s * 1.0e6);
        let common = format!(
            "\"name\": \"{}\", \"ts\": {}, \"pid\": {}, \"tid\": {}",
            escape(e.name),
            ts,
            e.user,
            e.port
        );
        let args = format!(
            "{{\"tag\": {}, \"channel\": {}, \"a\": {}, \"b\": {}}}",
            e.tag,
            e.channel,
            finite_or_zero(e.value_a),
            finite_or_zero(e.value_b)
        );
        let line = match e.kind {
            EventKind::Span => format!(
                "{{\"ph\": \"X\", \"cat\": \"span\", {common}, \"dur\": {}, \"args\": {args}}}{comma}",
                finite_or_zero(e.dur_ns as f64 / 1.0e3)
            ),
            EventKind::Instant => format!(
                "{{\"ph\": \"i\", \"s\": \"t\", \"cat\": \"instant\", {common}, \"args\": {args}}}{comma}"
            ),
            EventKind::Read => format!(
                "{{\"ph\": \"i\", \"s\": \"t\", \"cat\": \"read\", {common}, \"args\": {args}}}{comma}"
            ),
        };
        let _ = writeln!(out, "{line}");
    }
    out.push_str("]\n}\n");
    out
}

/// JSON has no NaN/Inf literals; clamp non-finite payloads to 0.
fn finite_or_zero(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::recorder::{NoopRecorder, SharedRecorder};
    use crate::span::StageTimer;
    use std::sync::Arc;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn ticks(n: usize) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| TraceEvent::instant("tick", i as f64))
            .collect()
    }

    #[test]
    fn capacity_zero_is_rejected() {
        assert_eq!(FlightRecorder::with_capacity(0).err(), Some(CapacityError));
        let msg = CapacityError.to_string();
        assert!(msg.contains("at least 1"), "{msg}");
    }

    #[test]
    fn capacity_one_keeps_only_the_newest_event() -> TestResult {
        let ring = FlightRecorder::with_capacity(1)?;
        for e in ticks(5) {
            ring.emit(e);
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events.first().map(|e| e.time_s), Some(4.0));
        assert_eq!(ring.dropped(), 4);
        Ok(())
    }

    #[test]
    fn wraparound_at_exact_capacity_drops_nothing() -> TestResult {
        let ring = FlightRecorder::with_capacity(8)?;
        for e in ticks(8) {
            ring.emit(e);
        }
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.dropped(), 0);
        let times: Vec<f64> = ring.snapshot().iter().map(|e| e.time_s).collect();
        assert_eq!(times, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        // One more event crosses the seam: oldest is gone, order holds.
        ring.emit(TraceEvent::instant("tick", 8.0));
        let times: Vec<f64> = ring.snapshot().iter().map(|e| e.time_s).collect();
        assert_eq!(times, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(ring.dropped(), 1);
        Ok(())
    }

    #[test]
    fn ordering_is_preserved_across_many_wraps() -> TestResult {
        let ring = FlightRecorder::with_capacity(7)?;
        for e in ticks(100) {
            ring.emit(e);
        }
        let times: Vec<f64> = ring.snapshot().iter().map(|e| e.time_s).collect();
        let expect: Vec<f64> = (93..100).map(f64::from).collect();
        assert_eq!(times, expect);
        assert_eq!(ring.dropped(), 93);
        assert_eq!(ring.capacity(), 7);
        Ok(())
    }

    #[test]
    fn emit_all_equals_repeated_emit() -> TestResult {
        for capacity in [1usize, 2, 7, 4096] {
            // Runs that fill part way, reach the seam, and straddle it.
            let runs = [capacity / 2, 1, capacity, capacity + 3, 2 * capacity + 1, 0];
            let one = FlightRecorder::with_capacity(capacity)?;
            let batched = FlightRecorder::with_capacity(capacity)?;
            let mut next = 0usize;
            for run in runs {
                let events = ticks(next + run).split_off(next);
                next += run;
                for &e in &events {
                    one.emit(e);
                }
                batched.emit_all(events);
                let times = |r: &FlightRecorder| -> Vec<u64> {
                    r.snapshot().iter().map(|e| e.time_s.to_bits()).collect()
                };
                assert_eq!(times(&batched), times(&one), "capacity {capacity}");
                assert_eq!(batched.len(), one.len(), "capacity {capacity}");
                assert_eq!(batched.dropped(), one.dropped(), "capacity {capacity}");
                // And both keep the newest `capacity` events, oldest first.
                let newest: Vec<u64> = (next.saturating_sub(capacity)..next)
                    .map(|i| (i as f64).to_bits())
                    .collect();
                assert_eq!(times(&batched), newest, "capacity {capacity}");
            }
            assert_eq!(one.dropped() as usize, next.saturating_sub(capacity));
        }
        Ok(())
    }

    #[test]
    fn clear_resets_contents_and_dropped() -> TestResult {
        let ring = FlightRecorder::with_capacity(2)?;
        for e in ticks(5) {
            ring.emit(e);
        }
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        ring.emit(TraceEvent::instant("tick", 9.0));
        assert_eq!(ring.len(), 1);
        Ok(())
    }

    #[test]
    fn noop_tracer_is_disabled_and_spans_skip_the_clock() {
        let sink = NoopRecorder;
        assert!(!sink.tracing());
        sink.emit(TraceEvent::instant("never", 0.0));
        let span = StageTimer::span(&sink, "s", 0.0);
        assert!(!span.is_running());
        drop(span);
    }

    #[test]
    fn shared_tracer_delegates() -> TestResult {
        let ring = Arc::new(FlightRecorder::with_capacity(4)?);
        let shared = SharedRecorder::new(ring.clone());
        assert!(shared.tracing());
        shared.emit(TraceEvent::instant("via_shared", 1.0));
        assert_eq!(ring.len(), 1);
        assert!(!SharedRecorder::default().tracing());
        assert!(format!("{shared:?}").contains("tracing: true"));
        Ok(())
    }

    #[test]
    fn span_guard_emits_duration() -> TestResult {
        let ring = FlightRecorder::with_capacity(4)?;
        {
            let span = StageTimer::span(&ring, "stage", 2.5);
            assert!(span.is_running());
            assert!(format!("{span:?}").contains("stage"));
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 1);
        let e = events.first().copied().ok_or("no event")?;
        assert_eq!(e.kind, EventKind::Span);
        assert_eq!(e.time_s, 2.5);
        Ok(())
    }

    #[test]
    fn events_filter_by_user() {
        let events = vec![
            TraceEvent::instant("a", 0.0).with_user(1),
            TraceEvent::instant("b", 1.0).with_user(2),
            TraceEvent::read(2.0, 1, 3, 1, 7, 0.5, -50.0),
        ];
        let mine = events_for_user(&events, 1);
        assert_eq!(mine.len(), 2);
        assert!(mine.iter().all(|e| e.user == 1));
    }

    #[test]
    fn chrome_trace_is_valid_json_for_all_kinds() -> TestResult {
        let events = vec![
            TraceEvent::span("snapshot", 5.0, 12_345).with_user(1),
            TraceEvent::instant("channel_hop", 5.1)
                .with_user(1)
                .with_port(2)
                .with_values(3.0, 7.0),
            TraceEvent::read(5.2, 1, 0, 1, 7, 1.25, -55.0),
            // Non-finite payloads must not corrupt the JSON.
            TraceEvent::instant("bad", f64::NAN).with_values(f64::INFINITY, f64::NAN),
        ];
        let text = chrome_trace(&events);
        json::validate(&text)?;
        assert!(text.contains("\"ph\": \"X\""), "{text}");
        assert!(text.contains("\"cat\": \"read\""), "{text}");
        assert!(text.contains("\"pid\": 1"), "{text}");
        Ok(())
    }

    #[test]
    fn chrome_trace_of_no_events_is_valid() -> TestResult {
        json::validate(&chrome_trace(&[]))?;
        Ok(())
    }
}
