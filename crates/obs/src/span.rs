//! Span-style stage timers.
//!
//! [`StageTimer`] is a drop guard over both halves of a [`Recorder`]:
//! construct it at the top of a pipeline stage and, when it goes out of
//! scope, the elapsed wall time lands in the named histogram if the metric
//! half is on, and one span event goes to the trace half if that is on.
//! The clock is read only when a half the timer feeds is on, so a timer on
//! the no-op path costs one branch per half.

use crate::freshness::duration_ns;
use crate::recorder::Recorder;
use crate::trace::TraceEvent;
use std::fmt;
use std::time::Instant;

/// Times a stage: on drop, records elapsed nanoseconds into a histogram
/// (metric half) and emits a span event (trace half).
///
/// # Examples
///
/// ```
/// use tagbreathe_obs::{FlightRecorder, Registry, StageTimer};
///
/// let registry = Registry::new();
/// {
///     let _timer = StageTimer::start(&registry, "demo_stage_ns").traced("demo_stage", 12.5);
///     // ... stage work ...
/// }
/// let h = registry.histogram("demo_stage_ns").expect("recorded");
/// assert_eq!(h.count(), 1);
///
/// let ring = FlightRecorder::with_capacity(8)?;
/// {
///     let _span = StageTimer::span(&ring, "demo_stage", 12.5);
/// }
/// assert_eq!(ring.snapshot().first().map(|e| e.name), Some("demo_stage"));
/// # Ok::<(), tagbreathe_obs::trace::CapacityError>(())
/// ```
pub struct StageTimer<'a> {
    sink: &'a dyn Recorder,
    /// The histogram drop records into; `None` when the metric half is off.
    histogram: Option<&'static str>,
    /// The span drop emits, with its stream-time stamp; `None` when the
    /// trace half is off.
    span: Option<(&'static str, f64)>,
    start: Option<Instant>,
}

impl<'a> StageTimer<'a> {
    /// Starts a timer for histogram `name`. When the sink's metric half is
    /// off the clock is never read and drop records nothing.
    #[must_use]
    pub fn start(sink: &'a dyn Recorder, name: &'static str) -> Self {
        let histogram = sink.enabled().then_some(name);
        StageTimer {
            sink,
            histogram,
            span: None,
            start: histogram.map(|_| Instant::now()),
        }
    }

    /// Starts a timer that only emits span `name` stamped at stream time
    /// `time_s`. When the sink's trace half is off the clock is never read
    /// and drop emits nothing.
    #[must_use]
    pub fn span(sink: &'a dyn Recorder, name: &'static str, time_s: f64) -> Self {
        StageTimer {
            sink,
            histogram: None,
            span: None,
            start: None,
        }
        .traced(name, time_s)
    }

    /// Also emits span `name`, stamped at stream time `time_s`, on drop
    /// when the sink's trace half is on. The span times from the timer's
    /// start, or from this call if the metric half is off.
    #[must_use]
    pub fn traced(mut self, name: &'static str, time_s: f64) -> Self {
        if self.sink.tracing() {
            self.span = Some((name, time_s));
            self.start.get_or_insert_with(Instant::now);
        }
        self
    }

    /// Whether the timer is live (a half it feeds was on).
    #[must_use]
    pub fn is_running(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = duration_ns(start.elapsed());
            if let Some(name) = self.histogram {
                self.sink.record(name, ns);
            }
            if let Some((name, time_s)) = self.span {
                self.sink.emit(TraceEvent::span(name, time_s, ns));
            }
        }
    }
}

impl fmt::Debug for StageTimer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageTimer")
            .field("histogram", &self.histogram)
            .field("span", &self.span.map(|(name, _)| name))
            .field("running", &self.is_running())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::NoopRecorder;
    use crate::registry::Registry;

    #[test]
    fn disabled_timer_records_nothing_and_reads_no_clock() {
        let rec = NoopRecorder;
        let timer = StageTimer::start(&rec, "t_ns");
        assert!(!timer.is_running());
        drop(timer);
    }

    #[test]
    fn enabled_timer_records_one_observation() {
        let registry = Registry::new();
        {
            let timer = StageTimer::start(&registry, "t_ns");
            assert!(timer.is_running());
        }
        let count = registry.histogram("t_ns").map(|h| h.count());
        assert_eq!(count, Some(1));
    }

    #[test]
    fn debug_prints_name() {
        let registry = Registry::new();
        let timer = StageTimer::start(&registry, "t_ns");
        assert!(format!("{timer:?}").contains("t_ns"));
    }
}
