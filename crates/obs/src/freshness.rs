//! Ingest→publication freshness attribution.
//!
//! A served snapshot is only as good as it is *fresh*: the paper's
//! real-time monitoring claim is a latency promise, and this module
//! supplies the measurement half of the closed loop (`crate::slo` is the
//! judgement half). Two pieces:
//!
//! * [`Stage`] — the named pipeline boundaries lag is attributed to.
//!   Stages render as the numeric `stage` label on the shared
//!   `tagbreathe_snapshot_lag_ns` histogram (label values are integers by
//!   the repo-wide convention; `docs/METRICS.md` carries the code table).
//! * [`WatermarkClock`] — a bounded queue of `(stream time, wall
//!   instant)` stamps taken at ingest. When a snapshot covering stream
//!   time `W` publishes, [`WatermarkClock::lag`] pops every stamp at or
//!   below `W` and returns the wall age of the *newest* popped stamp: the
//!   time the last report covered by the snapshot spent in flight — the
//!   classic watermark-lag freshness measure.
//!
//! Everything here is wall-clock-reading and therefore **hot-path
//! hostile**: callers must gate every `stamp`/`lag` call behind
//! `Recorder::enabled`, keeping the disabled path free of clock reads and
//! allocation (the `hotpath` lint pass pins this for the fleet router).
//!
//! # Examples
//!
//! ```
//! use std::time::{Duration, Instant};
//! use tagbreathe_obs::freshness::WatermarkClock;
//!
//! let mut clock = WatermarkClock::new(16, 0.5);
//! let t0 = Instant::now();
//! clock.stamp_at(1.0, t0);
//! clock.stamp_at(2.0, t0 + Duration::from_millis(10));
//! // Snapshot covering stream time 2.0 publishes 30 ms after t0: the
//! // newest covered stamp (2.0, t0+10ms) is 20 ms old.
//! let lag = clock.lag_at(2.0, t0 + Duration::from_millis(30));
//! assert_eq!(lag, Some(Duration::from_millis(20)));
//! ```

use std::time::{Duration, Instant};

/// A pipeline boundary that snapshot lag is attributed to.
///
/// The `u8` discriminant is the value of the `stage` label under which
/// the measurement is recorded (`Label::stage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Server engine ingest → snapshot publication (end-to-end).
    Total = 0,
    /// Server engine ingest → release from the reader merge lanes.
    LaneMerge = 1,
    /// Wall time spent handing one report batch onto the shard rings
    /// (routing plus bounded-backpressure spins).
    RingHandoff = 2,
    /// Fleet ingest → emission of the covering merged snapshot (ring
    /// transit, shard processing and cadence wait).
    ShardIngest = 3,
    /// Snapshot-request broadcast → all shard parts absorbed and the
    /// merged snapshot emitted.
    EpochMerge = 4,
    /// HTTP request parsed → response body rendered.
    HttpServe = 5,
}

impl Stage {
    /// Every stage, in label-code order.
    pub const ALL: [Stage; 6] = [
        Stage::Total,
        Stage::LaneMerge,
        Stage::RingHandoff,
        Stage::ShardIngest,
        Stage::EpochMerge,
        Stage::HttpServe,
    ];

    /// The numeric `stage` label value.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Stage::Total => 0,
            Stage::LaneMerge => 1,
            Stage::RingHandoff => 2,
            Stage::ShardIngest => 3,
            Stage::EpochMerge => 4,
            Stage::HttpServe => 5,
        }
    }

    /// Stable lowercase name used in docs and status renderings.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Total => "total",
            Stage::LaneMerge => "lane_merge",
            Stage::RingHandoff => "ring_handoff",
            Stage::ShardIngest => "shard_ingest",
            Stage::EpochMerge => "epoch_merge",
            Stage::HttpServe => "http_serve",
        }
    }

    /// The stage for a label code, if any.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.code() == code)
    }
}

/// Bounded ingest-stamp queue measuring watermark lag.
///
/// Stamps are taken at most once per `resolution_s` of stream time, so a
/// kilohertz report stream costs a handful of retained stamps per second
/// rather than one per report. The queue is a ring allocated once at its
/// bound, so stamping never allocates; when it is full further stamps are
/// skipped — the measurement degrades gracefully instead of growing.
#[derive(Debug, Clone)]
pub struct WatermarkClock {
    /// Ring of `(stream time, ingest instant)` stamps, oldest at `head`.
    stamps: Vec<(f64, Instant)>,
    head: usize,
    len: usize,
    resolution_s: f64,
    last_stamped_s: f64,
    /// Stamps skipped because the queue was full.
    skipped: u64,
}

impl WatermarkClock {
    /// Creates a clock retaining at most `capacity` stamps, stamping at
    /// most once per `resolution_s` of stream time (a non-finite or
    /// negative resolution behaves as zero: every advance stamps).
    #[must_use]
    pub fn new(capacity: usize, resolution_s: f64) -> Self {
        WatermarkClock {
            stamps: vec![(f64::NAN, Instant::now()); capacity.max(1)],
            head: 0,
            len: 0,
            resolution_s: if resolution_s.is_finite() && resolution_s > 0.0 {
                resolution_s
            } else {
                0.0
            },
            last_stamped_s: f64::NEG_INFINITY,
            skipped: 0,
        }
    }

    /// Stamps stream time `time_s` as ingested now. The wall clock is
    /// only read when the stamp would actually be retained, so calling
    /// this per report costs one float compare in the common
    /// (coalesced) case.
    pub fn stamp(&mut self, time_s: f64) {
        if !time_s.is_finite() || time_s < self.last_stamped_s + self.resolution_s {
            return;
        }
        self.stamp_at(time_s, Instant::now());
    }

    /// Stamps stream time `time_s` as ingested at `at` (the testable
    /// seam). Non-finite and non-advancing times are ignored.
    pub fn stamp_at(&mut self, time_s: f64, at: Instant) {
        if !time_s.is_finite() || time_s < self.last_stamped_s + self.resolution_s {
            return;
        }
        let capacity = self.stamps.len();
        if self.len >= capacity {
            self.skipped = self.skipped.saturating_add(1);
            return;
        }
        if let Some(cell) = self.stamps.get_mut((self.head + self.len) % capacity) {
            *cell = (time_s, at);
        }
        self.len += 1;
        self.last_stamped_s = time_s;
    }

    /// Pops every stamp with stream time ≤ `up_to_s` and returns the wall
    /// age of the newest popped stamp — `None` when no stamp is covered.
    pub fn lag(&mut self, up_to_s: f64) -> Option<Duration> {
        self.lag_at(up_to_s, Instant::now())
    }

    /// As [`WatermarkClock::lag`], measured against `now` (the testable
    /// seam).
    pub fn lag_at(&mut self, up_to_s: f64, now: Instant) -> Option<Duration> {
        let mut newest = None;
        while self.len > 0 {
            let Some(&(t, at)) = self.stamps.get(self.head) else {
                break;
            };
            if t <= up_to_s {
                newest = Some(at);
                self.head = (self.head + 1) % self.stamps.len();
                self.len -= 1;
            } else {
                break;
            }
        }
        newest.map(|at| now.saturating_duration_since(at))
    }

    /// Stamps currently awaiting a covering snapshot.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.len
    }

    /// Stamps dropped because the queue was full.
    #[must_use]
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}

/// Saturating nanosecond count of a duration, for histogram recording.
#[must_use]
pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_codes_round_trip_and_names_are_stable() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_code(stage.code()), Some(stage));
            assert!(!stage.as_str().is_empty());
        }
        assert_eq!(Stage::from_code(200), None);
        assert_eq!(Stage::Total.code(), 0);
        assert_eq!(Stage::HttpServe.as_str(), "http_serve");
    }

    #[test]
    fn lag_pops_covered_stamps_and_returns_newest_age() {
        let mut clock = WatermarkClock::new(8, 0.0);
        let t0 = Instant::now();
        clock.stamp_at(1.0, t0);
        clock.stamp_at(2.0, t0 + Duration::from_millis(5));
        clock.stamp_at(3.0, t0 + Duration::from_millis(9));
        let now = t0 + Duration::from_millis(29);
        assert_eq!(clock.lag_at(2.5, now), Some(Duration::from_millis(24)));
        assert_eq!(clock.pending(), 1, "the 3.0 stamp stays queued");
        // Nothing newly covered: no measurement.
        assert_eq!(clock.lag_at(2.5, now), None);
        assert_eq!(clock.lag_at(3.0, now), Some(Duration::from_millis(20)));
    }

    #[test]
    fn resolution_coalesces_and_capacity_bounds() {
        let mut clock = WatermarkClock::new(2, 1.0);
        let t0 = Instant::now();
        clock.stamp_at(0.0, t0);
        clock.stamp_at(0.5, t0); // within resolution: coalesced
        clock.stamp_at(1.0, t0);
        assert_eq!(clock.pending(), 2);
        clock.stamp_at(2.0, t0); // full: skipped, not grown
        assert_eq!(clock.pending(), 2);
        assert_eq!(clock.skipped(), 1);
    }

    #[test]
    fn freed_slots_are_reused_in_stream_order() {
        let mut clock = WatermarkClock::new(2, 0.0);
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        clock.stamp_at(1.0, t0);
        clock.stamp_at(2.0, t0 + ms(1));
        assert_eq!(clock.lag_at(1.0, t0 + ms(10)), Some(ms(10)));
        clock.stamp_at(3.0, t0 + ms(3)); // wraps into the freed slot
        assert_eq!((clock.pending(), clock.skipped()), (2, 0));
        assert_eq!(clock.lag_at(3.0, t0 + ms(10)), Some(ms(7)));
        assert_eq!(clock.pending(), 0);
    }

    #[test]
    fn nan_and_regressing_times_are_ignored() {
        let mut clock = WatermarkClock::new(4, 0.0);
        let t0 = Instant::now();
        clock.stamp_at(f64::NAN, t0);
        clock.stamp_at(5.0, t0);
        clock.stamp_at(4.0, t0); // time went backwards: ignored
        assert_eq!(clock.pending(), 1);
        assert_eq!(clock.lag_at(f64::NAN, t0), None, "NaN covers nothing");
    }

    #[test]
    fn duration_ns_saturates() {
        assert_eq!(duration_ns(Duration::from_nanos(42)), 42);
        assert_eq!(duration_ns(Duration::MAX), u64::MAX);
    }
}
