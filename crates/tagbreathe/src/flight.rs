//! Anomaly-triggered diagnostics over the flight recorder.
//!
//! Aggregate metrics say a user's estimate went wrong; the flight
//! recorder ([`obs::trace::FlightRecorder`], the trace half of the one
//! [`Recorder`] sink) knows the exact sequence of reads, phase
//! accepts/rejects and channel hops that led there. This module closes
//! the loop between the two:
//!
//! * [`AnomalyDetector`] watches the streaming output ([`RateSnapshot`]s,
//!   quality grades, apnea episodes, pattern classes) for the trigger
//!   conditions of [`TriggerConfig`] — a rate jump beyond a configured
//!   delta, a breathing-effort collapse, a low-confidence grade, a
//!   detected apnea;
//! * when one fires, [`FlightDiagnostics`] snapshots the ring into a
//!   [`DiagnosticBundle`]: the anomaly, the trailing window of trace
//!   events, and a JSON rendering validated by `obs::json`. The bundle's
//!   per-read provenance events carry full report fields, so
//!   [`DiagnosticBundle::reports`] reconstructs a replayable
//!   [`TagReport`] stream — push it through a fresh
//!   [`StreamingMonitor`](crate::pipeline::StreamingMonitor) (or write it
//!   with `epcgen2::report::write_csv` for the offline replay path) and
//!   the estimate reproduces deterministically.
//!
//! # Examples
//!
//! ```
//! use tagbreathe::flight::{FlightDiagnostics, TriggerConfig};
//!
//! let mut flight = FlightDiagnostics::new(4096, TriggerConfig::default_config())?;
//! // Attach flight.tracer() to a StreamingMonitor via with_recorder, push
//! // reports, then scan each snapshot it emits:
//! let snap = tagbreathe::RateSnapshot {
//!     time_s: 5.0,
//!     rates_bpm: [(1, 12.0)].into_iter().collect(),
//!     effort_rms: [(1, 1.0e-3)].into_iter().collect(),
//! };
//! let fired = flight.scan(&snap, &obs::NoopRecorder);
//! assert_eq!(fired, 0, "first snapshot has no history to jump from");
//! # Ok::<(), &'static str>(())
//! ```

use crate::apnea::ApneaEpisode;
use crate::metrics;
use crate::pipeline::RateSnapshot;
use crate::quality::{Confidence, QualityReport};
use epcgen2::epc::Epc96;
use epcgen2::report::TagReport;
use obs::trace::{chrome_trace, EventKind, FlightRecorder, TraceEvent};
use obs::{Recorder, SharedRecorder};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Trigger thresholds for anomaly-driven diagnostic dumps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriggerConfig {
    /// Absolute change in a user's windowed rate between consecutive
    /// snapshots that counts as a jump, bpm.
    pub rate_jump_bpm: f64,
    /// A user's breathing-effort RMS falling below this fraction of its
    /// previous snapshot counts as an effort collapse (the live apnea
    /// signature).
    pub effort_collapse_ratio: f64,
    /// Whether a [`Confidence::Low`] quality grade triggers a dump.
    pub trigger_on_low_quality: bool,
    /// Trailing window of trace history captured into each bundle,
    /// seconds.
    pub bundle_window_s: f64,
    /// Maximum bundles retained by [`FlightDiagnostics`]; once full,
    /// further anomalies are counted but capture no new bundle.
    pub max_bundles: usize,
}

impl TriggerConfig {
    /// Calibrated defaults: 6 bpm jump, 35% effort collapse, low-quality
    /// triggering on, 30 s bundles, 8 bundles retained.
    #[must_use]
    pub fn default_config() -> Self {
        TriggerConfig {
            rate_jump_bpm: 6.0,
            effort_collapse_ratio: 0.35,
            trigger_on_low_quality: true,
            bundle_window_s: 30.0,
            max_bundles: 8,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message for a non-positive jump threshold or bundle
    /// window, a collapse ratio outside `(0, 1)`, or zero retained
    /// bundles.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.rate_jump_bpm.is_nan() || self.rate_jump_bpm <= 0.0 {
            return Err("rate jump threshold must be positive");
        }
        if !(self.effort_collapse_ratio > 0.0 && self.effort_collapse_ratio < 1.0) {
            return Err("effort collapse ratio must be in (0, 1)");
        }
        if self.bundle_window_s.is_nan() || self.bundle_window_s <= 0.0 {
            return Err("bundle window must be positive");
        }
        if self.max_bundles == 0 {
            return Err("at least one bundle must be retained");
        }
        Ok(())
    }
}

impl Default for TriggerConfig {
    fn default() -> Self {
        Self::default_config()
    }
}

/// What kind of anomaly fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// The windowed rate changed by more than
    /// [`TriggerConfig::rate_jump_bpm`] between snapshots.
    RateJump,
    /// The breathing-effort RMS collapsed below
    /// [`TriggerConfig::effort_collapse_ratio`] of its previous value.
    EffortCollapse,
    /// The quality assessor graded the estimate [`Confidence::Low`].
    LowQuality,
    /// The apnea detector reported an episode.
    Apnea,
    /// A service-level objective entered the burning state (fired by the
    /// serving layer's burn-rate machine, not by the per-user detector).
    SloBreach,
}

impl AnomalyKind {
    /// Stable lowercase name used in bundle JSON.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            AnomalyKind::RateJump => "rate_jump",
            AnomalyKind::EffortCollapse => "effort_collapse",
            AnomalyKind::LowQuality => "low_quality",
            AnomalyKind::Apnea => "apnea",
            AnomalyKind::SloBreach => "slo_breach",
        }
    }
}

/// One fired trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anomaly {
    /// Which trigger fired.
    pub kind: AnomalyKind,
    /// The affected user.
    pub user: u64,
    /// Stream time at which it was noticed, seconds.
    pub time_s: f64,
    /// The offending value (new rate, new effort, grade code, episode
    /// start).
    pub value: f64,
    /// The reference it was compared against (previous rate or effort,
    /// band SNR, episode end).
    pub reference: f64,
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            AnomalyKind::RateJump => write!(
                f,
                "rate jump for user {} at t={:.1} s: {:.1} bpm (was {:.1})",
                self.user, self.time_s, self.value, self.reference
            ),
            AnomalyKind::EffortCollapse => write!(
                f,
                "effort collapse for user {} at t={:.1} s: {:.2e} (was {:.2e})",
                self.user, self.time_s, self.value, self.reference
            ),
            AnomalyKind::LowQuality => write!(
                f,
                "low-quality estimate for user {} at t={:.1} s (band SNR {:.2})",
                self.user, self.time_s, self.reference
            ),
            AnomalyKind::Apnea => write!(
                f,
                "apnea for user {} from t={:.1} s to t={:.1} s",
                self.user, self.value, self.reference
            ),
            AnomalyKind::SloBreach => write!(
                f,
                "SLO {} burning at t={:.1} s: {:.3} (objective {:.3})",
                self.user, self.time_s, self.value, self.reference
            ),
        }
    }
}

/// Per-user state remembered between snapshots.
#[derive(Debug, Clone, Copy, Default)]
struct UserHistory {
    rate_bpm: Option<f64>,
    effort_rms: Option<f64>,
}

/// Watches the streaming output for the trigger conditions of a
/// [`TriggerConfig`].
///
/// Feed every [`RateSnapshot`] to [`AnomalyDetector::observe_snapshot`];
/// feed quality grades and apnea episodes through their dedicated hooks
/// as the host computes them. The detector is pure observation — it never
/// alters the estimates.
#[derive(Debug, Clone)]
pub struct AnomalyDetector {
    config: TriggerConfig,
    users: BTreeMap<u64, UserHistory>,
}

impl AnomalyDetector {
    /// Creates a detector after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns the [`TriggerConfig::validate`] message, if any.
    pub fn new(config: TriggerConfig) -> Result<Self, &'static str> {
        config.validate()?;
        Ok(AnomalyDetector {
            config,
            users: BTreeMap::new(),
        })
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &TriggerConfig {
        &self.config
    }

    /// Folds one snapshot in; returns the anomalies it revealed (rate
    /// jumps and effort collapses against the previous snapshot).
    pub fn observe_snapshot(&mut self, snap: &RateSnapshot) -> Vec<Anomaly> {
        let mut fired = Vec::new();
        for (&user, &bpm) in &snap.rates_bpm {
            let history = self.users.entry(user).or_default();
            if let Some(prev) = history.rate_bpm {
                if (bpm - prev).abs() >= self.config.rate_jump_bpm {
                    fired.push(Anomaly {
                        kind: AnomalyKind::RateJump,
                        user,
                        time_s: snap.time_s,
                        value: bpm,
                        reference: prev,
                    });
                }
            }
            history.rate_bpm = Some(bpm);
        }
        for (&user, &effort) in &snap.effort_rms {
            let history = self.users.entry(user).or_default();
            if let Some(prev) = history.effort_rms {
                if prev > 0.0 && effort < prev * self.config.effort_collapse_ratio {
                    fired.push(Anomaly {
                        kind: AnomalyKind::EffortCollapse,
                        user,
                        time_s: snap.time_s,
                        value: effort,
                        reference: prev,
                    });
                }
            }
            history.effort_rms = Some(effort);
        }
        fired
    }

    /// Reports a quality grade; returns an anomaly when the grade is
    /// [`Confidence::Low`] and low-quality triggering is enabled.
    pub fn observe_quality(
        &mut self,
        user: u64,
        time_s: f64,
        quality: &QualityReport,
    ) -> Option<Anomaly> {
        (self.config.trigger_on_low_quality && quality.confidence == Confidence::Low).then_some(
            Anomaly {
                kind: AnomalyKind::LowQuality,
                user,
                time_s,
                value: 0.0,
                reference: quality.band_snr,
            },
        )
    }

    /// Reports detected apnea episodes; each becomes an anomaly.
    pub fn observe_apnea(&mut self, user: u64, episodes: &[ApneaEpisode]) -> Vec<Anomaly> {
        episodes
            .iter()
            .map(|e| Anomaly {
                kind: AnomalyKind::Apnea,
                user,
                time_s: e.end_s,
                value: e.start_s,
                reference: e.end_s,
            })
            .collect()
    }
}

/// A diagnostic dump: one anomaly plus the trailing window of flight
/// history behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosticBundle {
    /// The trigger that caused the dump.
    pub anomaly: Anomaly,
    /// Length of trace history requested, seconds.
    pub window_s: f64,
    /// Events overwritten in the ring before the dump — non-zero means
    /// the window is incomplete.
    pub dropped_events: u64,
    /// The captured events, oldest first: everything in the ring from
    /// `anomaly.time_s - window_s` up to the capture moment. The trailing
    /// edge is open so the report that crossed the snapshot cadence (and
    /// so triggered the anomaly) is part of the replay stream.
    pub events: Vec<TraceEvent>,
}

impl DiagnosticBundle {
    /// Snapshots `ring` into a bundle around `anomaly`.
    #[must_use]
    pub fn capture(ring: &FlightRecorder, anomaly: Anomaly, window_s: f64) -> Self {
        let lo = anomaly.time_s - window_s;
        let events = ring
            .snapshot()
            .into_iter()
            .filter(|e| e.time_s >= lo)
            .collect();
        DiagnosticBundle {
            anomaly,
            window_s,
            dropped_events: ring.dropped(),
            events,
        }
    }

    /// Reconstructs the replayable report stream from the bundle's
    /// per-read provenance events, in captured order. Push the result
    /// through a fresh [`StreamingMonitor`](crate::pipeline::StreamingMonitor)
    /// (or write it with `epcgen2::report::write_csv` and feed it to the
    /// offline tooling) to reproduce the anomalous estimate
    /// deterministically. The Doppler field is not carried by read events
    /// and replays as zero; the phase pipeline never consumes it.
    #[must_use]
    pub fn reports(&self) -> Vec<TagReport> {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Read)
            .map(|e| TagReport {
                time_s: e.time_s,
                epc: Epc96::monitor(e.user, e.tag),
                antenna_port: e.port,
                channel_index: e.channel,
                phase_rad: e.value_a,
                rssi_dbm: e.value_b,
                doppler_hz: 0.0,
            })
            .collect()
    }

    /// Renders the bundle as one JSON object (anomaly, window, dropped
    /// count, full event list). The output is valid per `obs::json`
    /// (non-finite payloads become `null`).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let a = &self.anomaly;
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "\"anomaly\": {{\"kind\": \"{}\", \"user\": {}, \"time_s\": {}, \"value\": {}, \"reference\": {}}},",
            a.kind.as_str(),
            a.user,
            json_number(a.time_s),
            json_number(a.value),
            json_number(a.reference)
        );
        let _ = writeln!(out, "\"window_s\": {},", json_number(self.window_s));
        let _ = writeln!(out, "\"dropped_events\": {},", self.dropped_events);
        let _ = writeln!(out, "\"event_count\": {},", self.events.len());
        out.push_str("\"events\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let kind = match e.kind {
                EventKind::Span => "span",
                EventKind::Instant => "instant",
                EventKind::Read => "read",
            };
            let comma = if i + 1 < self.events.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"kind\": \"{kind}\", \"name\": \"{}\", \"time_s\": {}, \"dur_ns\": {}, \
                 \"user\": {}, \"tag\": {}, \"port\": {}, \"channel\": {}, \"a\": {}, \"b\": {}}}{comma}",
                escape_json(e.name),
                json_number(e.time_s),
                e.dur_ns,
                e.user,
                e.tag,
                e.port,
                e.channel,
                json_number(e.value_a),
                json_number(e.value_b)
            );
        }
        out.push_str("]\n}\n");
        out
    }

    /// Renders the captured events as Chrome trace-event JSON (see
    /// [`obs::trace::chrome_trace`]).
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.events)
    }
}

/// JSON has no NaN/Inf literals; render non-finite values as `null`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn escape_json(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The assembled diagnostics driver: one flight-recorder ring, one
/// anomaly detector, and the bundles captured so far.
///
/// Attach [`FlightDiagnostics::tracer`] to the pipeline under watch
/// (e.g. `StreamingMonitor::with_recorder`), then [`FlightDiagnostics::scan`]
/// every snapshot it emits. Fired triggers snapshot the ring into
/// bundles and publish the [`metrics::TRACE_DUMPS`] /
/// [`metrics::TRACE_DROPPED_EVENTS`] counters.
#[derive(Debug)]
pub struct FlightDiagnostics {
    ring: Arc<FlightRecorder>,
    detector: AnomalyDetector,
    bundles: Vec<DiagnosticBundle>,
    suppressed: u64,
    published_dropped: u64,
}

impl FlightDiagnostics {
    /// Creates a driver with a ring of `ring_capacity` events.
    ///
    /// # Errors
    ///
    /// Returns a message for a zero ring capacity or an invalid trigger
    /// configuration.
    pub fn new(ring_capacity: usize, config: TriggerConfig) -> Result<Self, &'static str> {
        let ring = FlightRecorder::with_capacity(ring_capacity)
            .map_err(|_| "flight ring capacity must be at least 1 event")?;
        Ok(FlightDiagnostics {
            ring: Arc::new(ring),
            detector: AnomalyDetector::new(config)?,
            bundles: Vec::new(),
            suppressed: 0,
            published_dropped: 0,
        })
    }

    /// A cloneable sink handle whose trace half writes into this driver's
    /// ring (its metric half is off).
    #[must_use]
    pub fn tracer(&self) -> SharedRecorder {
        SharedRecorder::new(self.ring.clone())
    }

    /// The underlying ring.
    #[must_use]
    pub fn ring(&self) -> &FlightRecorder {
        &self.ring
    }

    /// Scans one snapshot for trigger conditions; every fired anomaly is
    /// captured into a bundle (up to [`TriggerConfig::max_bundles`]) and
    /// the trace counters are published to `rec`. Returns the number of
    /// bundles captured by this call.
    pub fn scan(&mut self, snap: &RateSnapshot, rec: &dyn Recorder) -> usize {
        let anomalies = self.detector.observe_snapshot(snap);
        self.capture_all(&anomalies, rec)
    }

    /// Feeds a quality grade through the detector (see
    /// [`AnomalyDetector::observe_quality`]), capturing a bundle if it
    /// fires. Returns the number of bundles captured.
    pub fn scan_quality(
        &mut self,
        user: u64,
        time_s: f64,
        quality: &QualityReport,
        rec: &dyn Recorder,
    ) -> usize {
        let fired: Vec<Anomaly> = self
            .detector
            .observe_quality(user, time_s, quality)
            .into_iter()
            .collect();
        self.capture_all(&fired, rec)
    }

    /// Records one `apnea_episode` instant per episode in the ring (keyed
    /// by `user`, start/end seconds in the payload slots), then feeds the
    /// episodes through the detector (see
    /// [`AnomalyDetector::observe_apnea`]), capturing bundles for each.
    /// Returns the number of bundles captured.
    pub fn scan_apnea(
        &mut self,
        user: u64,
        episodes: &[ApneaEpisode],
        rec: &dyn Recorder,
    ) -> usize {
        self.ring.emit_all(episodes.iter().map(|e| {
            TraceEvent::instant("apnea_episode", e.start_s)
                .with_user(user)
                .with_values(e.start_s, e.end_s)
        }));
        let fired = self.detector.observe_apnea(user, episodes);
        self.capture_all(&fired, rec)
    }

    /// Captures a bundle for an externally detected anomaly (e.g. an SLO
    /// entering the burning state), bypassing the per-user detector but
    /// respecting the bundle cap and publishing the trace counters.
    /// Returns the number of bundles captured (0 when suppressed).
    pub fn capture_anomaly(&mut self, anomaly: Anomaly, rec: &dyn Recorder) -> usize {
        self.capture_all(&[anomaly], rec)
    }

    fn capture_all(&mut self, anomalies: &[Anomaly], rec: &dyn Recorder) -> usize {
        let mut captured = 0usize;
        for &anomaly in anomalies {
            if self.bundles.len() >= self.detector.config.max_bundles {
                self.suppressed += 1;
                continue;
            }
            let window = self.detector.config.bundle_window_s;
            self.bundles
                .push(DiagnosticBundle::capture(&self.ring, anomaly, window));
            captured += 1;
        }
        if rec.enabled() {
            if captured > 0 {
                rec.count(metrics::TRACE_DUMPS, captured as u64);
            }
            let dropped = self.ring.dropped();
            let delta = dropped.saturating_sub(self.published_dropped);
            if delta > 0 {
                rec.count(metrics::TRACE_DROPPED_EVENTS, delta);
                self.published_dropped = dropped;
            }
        }
        captured
    }

    /// The bundles captured so far, oldest first.
    #[must_use]
    pub fn bundles(&self) -> &[DiagnosticBundle] {
        &self.bundles
    }

    /// Takes ownership of the captured bundles, leaving the driver empty
    /// (and its [`TriggerConfig::max_bundles`] budget refreshed).
    pub fn take_bundles(&mut self) -> Vec<DiagnosticBundle> {
        std::mem::take(&mut self.bundles)
    }

    /// Anomalies that fired while the bundle budget was exhausted.
    #[must_use]
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn snap(time_s: f64, rates: &[(u64, f64)], efforts: &[(u64, f64)]) -> RateSnapshot {
        RateSnapshot {
            time_s,
            rates_bpm: rates.iter().copied().collect(),
            effort_rms: efforts.iter().copied().collect(),
        }
    }

    #[test]
    fn trigger_config_validation() {
        assert!(TriggerConfig::default_config().validate().is_ok());
        let mut c = TriggerConfig::default_config();
        c.rate_jump_bpm = 0.0;
        assert!(c.validate().is_err());
        let mut c = TriggerConfig::default_config();
        c.effort_collapse_ratio = 1.5;
        assert!(c.validate().is_err());
        let mut c = TriggerConfig::default_config();
        c.bundle_window_s = -1.0;
        assert!(c.validate().is_err());
        let mut c = TriggerConfig::default_config();
        c.max_bundles = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rate_jump_fires_and_steady_rate_does_not() -> TestResult {
        let mut det = AnomalyDetector::new(TriggerConfig::default_config())?;
        assert!(det
            .observe_snapshot(&snap(5.0, &[(1, 12.0)], &[]))
            .is_empty());
        assert!(det
            .observe_snapshot(&snap(10.0, &[(1, 13.0)], &[]))
            .is_empty());
        let fired = det.observe_snapshot(&snap(15.0, &[(1, 25.0)], &[]));
        assert_eq!(fired.len(), 1);
        let a = fired.first().copied().ok_or("no anomaly")?;
        assert_eq!(a.kind, AnomalyKind::RateJump);
        assert_eq!(a.user, 1);
        assert!(a.to_string().contains("rate jump"), "{a}");
        Ok(())
    }

    #[test]
    fn effort_collapse_fires() -> TestResult {
        let mut det = AnomalyDetector::new(TriggerConfig::default_config())?;
        assert!(det
            .observe_snapshot(&snap(5.0, &[], &[(1, 1.0e-3)]))
            .is_empty());
        let fired = det.observe_snapshot(&snap(10.0, &[], &[(1, 1.0e-5)]));
        assert_eq!(
            fired.first().map(|a| a.kind),
            Some(AnomalyKind::EffortCollapse)
        );
        Ok(())
    }

    #[test]
    fn quality_and_apnea_hooks_fire() -> TestResult {
        let mut det = AnomalyDetector::new(TriggerConfig::default_config())?;
        let low = QualityReport {
            read_rate_hz: 1.0,
            band_snr: 0.5,
            rate_stability_cv: 2.0,
            confidence: Confidence::Low,
        };
        assert!(det.observe_quality(7, 20.0, &low).is_some());
        let high = QualityReport {
            confidence: Confidence::High,
            ..low
        };
        assert!(det.observe_quality(7, 20.0, &high).is_none());
        let eps = [ApneaEpisode {
            start_s: 30.0,
            end_s: 45.0,
        }];
        let fired = det.observe_apnea(7, &eps);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired.first().map(|a| a.kind), Some(AnomalyKind::Apnea));
        Ok(())
    }

    #[test]
    fn scan_apnea_emits_episode_instants() -> TestResult {
        // 0–30 s breathing, 30–45 s apnea, 45–90 s breathing.
        let dt = 1.0 / 16.0;
        let values = (0..(90.0 / dt) as usize)
            .map(|i| {
                let t = i as f64 * dt;
                if (30.0..45.0).contains(&t) {
                    0.0
                } else {
                    (std::f64::consts::TAU * 0.25 * t).sin()
                }
            })
            .collect();
        let signal = crate::series::TimeSeries::new(0.0, dt, values)?;
        let episodes = crate::apnea::detect_apnea(&signal, &crate::ApneaConfig::default_config())?;
        let mut flight = FlightDiagnostics::new(8, TriggerConfig::default_config())?;
        flight.scan_apnea(3, &episodes, &obs::NoopRecorder);
        let events = flight.ring().snapshot();
        assert_eq!(events.len(), episodes.len());
        let e = events.first().copied().ok_or("no event")?;
        assert_eq!(e.name, "apnea_episode");
        assert_eq!(e.user, 3);
        assert!((e.value_a - 30.0).abs() < 3.0, "start {}", e.value_a);
        Ok(())
    }

    #[test]
    fn bundle_captures_window_and_reconstructs_reports() -> TestResult {
        let ring = FlightRecorder::with_capacity(64)?;
        // Two reads inside the window, one far before it.
        ring.emit(TraceEvent::read(1.0, 1, 2, 1, 7, 0.5, -50.0));
        ring.emit(TraceEvent::read(40.0, 1, 2, 1, 7, 1.5, -51.0));
        ring.emit(TraceEvent::read(41.0, 1, 3, 1, 8, 2.5, -52.0));
        ring.emit(TraceEvent::instant("rate", 42.0).with_user(1));
        let anomaly = Anomaly {
            kind: AnomalyKind::RateJump,
            user: 1,
            time_s: 42.0,
            value: 25.0,
            reference: 12.0,
        };
        let bundle = DiagnosticBundle::capture(&ring, anomaly, 10.0);
        assert_eq!(bundle.events.len(), 3, "{:?}", bundle.events);
        let reports = bundle.reports();
        assert_eq!(reports.len(), 2);
        let r = reports.first().copied().ok_or("no report")?;
        assert_eq!(r.epc, Epc96::monitor(1, 2));
        assert_eq!(r.antenna_port, 1);
        assert_eq!(r.channel_index, 7);
        assert_eq!(r.phase_rad, 1.5);
        assert_eq!(r.rssi_dbm, -51.0);
        Ok(())
    }

    #[test]
    fn bundle_json_and_chrome_trace_validate() -> TestResult {
        let ring = FlightRecorder::with_capacity(16)?;
        ring.emit(TraceEvent::read(40.0, 1, 2, 1, 7, 1.5, -51.0));
        ring.emit(TraceEvent::span("snapshot", 42.0, 9000).with_user(1));
        ring.emit(TraceEvent::instant("bad", 41.0).with_values(f64::NAN, f64::INFINITY));
        let anomaly = Anomaly {
            kind: AnomalyKind::LowQuality,
            user: 1,
            time_s: 42.0,
            value: 0.0,
            reference: f64::INFINITY,
        };
        let bundle = DiagnosticBundle::capture(&ring, anomaly, 30.0);
        obs::json::validate(&bundle.to_json())?;
        obs::json::validate(&bundle.chrome_trace())?;
        assert!(bundle.to_json().contains("\"low_quality\""));
        Ok(())
    }

    #[test]
    fn diagnostics_driver_caps_bundles_and_publishes_metrics() -> TestResult {
        let registry = obs::Registry::new();
        let mut cfg = TriggerConfig::default_config();
        cfg.max_bundles = 1;
        let mut flight = FlightDiagnostics::new(4, cfg)?;
        // Overflow the 4-slot ring so dropped events accumulate.
        for i in 0..10 {
            flight
                .tracer()
                .emit(TraceEvent::instant("tick", f64::from(i)));
        }
        assert_eq!(flight.scan(&snap(5.0, &[(1, 12.0)], &[]), &registry), 0);
        assert_eq!(flight.scan(&snap(10.0, &[(1, 25.0)], &[]), &registry), 1);
        // Budget exhausted: a second jump is suppressed, not captured.
        assert_eq!(flight.scan(&snap(15.0, &[(1, 12.0)], &[]), &registry), 0);
        assert_eq!(flight.suppressed(), 1);
        assert_eq!(registry.counter(metrics::TRACE_DUMPS), 1);
        assert_eq!(registry.counter(metrics::TRACE_DROPPED_EVENTS), 6);
        assert_eq!(flight.bundles().len(), 1);
        assert_eq!(flight.take_bundles().len(), 1);
        assert!(flight.bundles().is_empty());
        Ok(())
    }
}
