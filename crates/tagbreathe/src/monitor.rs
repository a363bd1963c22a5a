//! The top-level batch API: reports in, per-user breathing estimates out.
//!
//! This composes the full TagBreathe workflow of Figure 10: classify the
//! low-level data by user ID (Section IV-C), fold each user's reports into
//! the per-user operator graph the streaming engine also runs
//! ([`UserStreamState`]: Eq. 3–4 preprocessing and Eq. 6–7 fusion), select
//! the best antenna per user (Section IV-D.3), extract the breath signal
//! (low-pass, Section IV-B) and estimate rates (Eq. 5).

use crate::config::PipelineConfig;
use crate::demux::classify;
use crate::extract::{extract_breath_signal, ExtractError};
use crate::metrics;
use crate::operators::{OperatorCounts, UserStreamState};
use crate::rate::{estimate_rate, RateEstimate};
use crate::series::TimeSeries;
use epcgen2::mapping::IdentityResolver;
use epcgen2::report::TagReport;
use obs::trace::TraceEvent;
use obs::{NoopRecorder, Recorder, StageTimer};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Why a user could not be analysed.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisFailure {
    /// Too few usable readings to extract a signal (e.g. blocked
    /// line-of-sight, Section VI-B.4: TagBreathe "does not report"
    /// in such cases rather than guessing).
    InsufficientData(String),
    /// The displacement trajectory spans far more than breathing can —
    /// the subject is walking or otherwise in gross motion, and any rate
    /// estimate would be meaningless.
    GrossMotion {
        /// Observed trajectory range, metres (includes the per-channel
        /// preprocessing gain).
        range_m: f64,
    },
}

impl std::fmt::Display for AnalysisFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisFailure::InsufficientData(what) => {
                write!(f, "insufficient data: {what}")
            }
            AnalysisFailure::GrossMotion { range_m } => {
                write!(f, "gross motion detected: trajectory spans {range_m:.2} m")
            }
        }
    }
}

impl std::error::Error for AnalysisFailure {}

/// Analysis output for one user.
#[derive(Debug, Clone, PartialEq)]
pub struct UserAnalysis {
    /// Antenna port whose data was used.
    pub antenna_port: u8,
    /// Number of low-level reports consumed.
    pub report_count: usize,
    /// Fused displacement trajectory (Eq. 7), metres.
    pub displacement: TimeSeries,
    /// Extracted breath signal (Figure 8).
    pub breath_signal: TimeSeries,
    /// Rate estimate (zero-crossing, Eq. 5).
    pub rate: RateEstimate,
}

impl UserAnalysis {
    /// Mean breathing rate over the window, bpm.
    pub fn mean_rate_bpm(&self) -> Option<f64> {
        self.rate.mean_bpm
    }
}

/// Result of a batch analysis: per-user outcomes plus stream statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Per-user outcomes keyed by user ID.
    pub users: BTreeMap<u64, Result<UserAnalysis, AnalysisFailure>>,
    /// Reports that resolved to no monitored user (item tags etc.).
    pub unknown_reports: usize,
}

impl AnalysisReport {
    /// The successfully analysed users.
    pub fn successes(&self) -> impl Iterator<Item = (u64, &UserAnalysis)> {
        self.users
            .iter()
            .filter_map(|(&id, r)| r.as_ref().ok().map(|a| (id, a)))
    }

    /// A human-readable multi-line summary: one line per user plus a
    /// footer for unrelated tags — what a host application would log.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (id, result) in &self.users {
            match result {
                Ok(a) => {
                    let _ = match a.mean_rate_bpm() {
                        Some(bpm) => writeln!(
                            out,
                            "user {id}: {bpm:.1} bpm (antenna {}, {} reads)",
                            a.antenna_port, a.report_count
                        ),
                        None => writeln!(
                            out,
                            "user {id}: signal present, rate indeterminate (antenna {}, {} reads)",
                            a.antenna_port, a.report_count
                        ),
                    };
                }
                Err(e) => {
                    let _ = writeln!(out, "user {id}: {e}");
                }
            }
        }
        if self.unknown_reports > 0 {
            let _ = writeln!(
                out,
                "({} reports from unrelated tags)",
                self.unknown_reports
            );
        }
        out
    }
}

/// The batch breath monitor.
///
/// # Examples
///
/// ```
/// use tagbreathe::{BreathMonitor, PipelineConfig};
/// use epcgen2::mapping::EmbeddedIdentity;
///
/// let monitor = BreathMonitor::new(PipelineConfig::paper_default())?;
/// let resolver = EmbeddedIdentity::new([1]);
/// let report = monitor.analyze(&[], &resolver);
/// assert_eq!(report.users.len(), 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BreathMonitor {
    config: PipelineConfig,
}

impl BreathMonitor {
    /// Creates a monitor after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration validation error, if any.
    pub fn new(config: PipelineConfig) -> Result<Self, crate::config::InvalidConfigError> {
        config.validate()?;
        Ok(BreathMonitor { config })
    }

    /// A monitor with the paper's default configuration.
    ///
    /// The defaults are valid by construction (covered by
    /// `paper_default_config_validates` below), so no fallible
    /// validation path is needed here.
    pub fn paper_default() -> Self {
        BreathMonitor {
            config: PipelineConfig::paper_default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Analyses a batch of low-level reports.
    pub fn analyze<R: IdentityResolver>(
        &self,
        reports: &[TagReport],
        resolver: &R,
    ) -> AnalysisReport {
        self.analyze_observed(reports, resolver, &NoopRecorder)
    }

    /// [`BreathMonitor::analyze`] observed by `rec`. Its metric half gets
    /// the `demux` / `fold` / `analyze` stage timers and the ingest,
    /// failure and rate counters; its trace half gets the same stages'
    /// spans, the operator graph's per-report events and one `rate`
    /// instant per estimated user. Output is identical to `analyze` — the
    /// rec only observes.
    ///
    /// Each report is classified once; the monitored ones are stable-sorted
    /// by `(time_s, antenna_port, tag_id)` and folded into one
    /// [`UserStreamState`] per user, the graph the streaming engine runs.
    /// Like the engine, the batch drops reports whose timestamp is not
    /// finite.
    pub fn analyze_observed<R: IdentityResolver>(
        &self,
        reports: &[TagReport],
        resolver: &R,
        rec: &dyn Recorder,
    ) -> AnalysisReport {
        let on = rec.enabled();
        let tracing = rec.tracing();
        let watermark = if tracing {
            reports
                .iter()
                .map(|r| r.time_s)
                .filter(|t| t.is_finite())
                .fold(0.0f64, f64::max)
        } else {
            0.0
        };
        let (ordered, unknown_reports) = {
            let _timer = StageTimer::start(rec, metrics::STAGE_DEMUX_NS).traced("demux", watermark);
            let mut unknown = 0usize;
            let mut ordered: Vec<(u64, u32, &TagReport)> = Vec::with_capacity(reports.len());
            for r in reports.iter().filter(|r| r.time_s.is_finite()) {
                match classify(resolver, r) {
                    Some((user_id, tag_id)) => ordered.push((user_id, tag_id, r)),
                    None => unknown += 1,
                }
            }
            ordered.sort_by(|a, b| {
                a.2.time_s
                    .partial_cmp(&b.2.time_s)
                    .unwrap_or(Ordering::Equal)
                    .then(a.2.antenna_port.cmp(&b.2.antenna_port))
                    .then(a.1.cmp(&b.1))
            });
            (ordered, unknown)
        };
        if on {
            rec.count(
                metrics::REPORTS_INGESTED,
                (ordered.len() + unknown_reports) as u64,
            );
            if unknown_reports > 0 {
                rec.count(metrics::REPORTS_UNKNOWN, unknown_reports as u64);
            }
        }
        let states = {
            let _timer = StageTimer::start(rec, metrics::STAGE_FOLD_NS).traced("fold", watermark);
            let mut states: BTreeMap<u64, UserStreamState> = BTreeMap::new();
            let mut counts = OperatorCounts::default();
            for (user_id, tag_id, report) in ordered {
                let state = states.entry(user_id).or_default();
                let outcome = state.push(tag_id, report, &self.config);
                counts.count_push(outcome);
                if tracing {
                    rec.emit(outcome.trace_event(user_id, tag_id, report));
                }
            }
            if on {
                counts.fold(rec);
            }
            states
        };
        let analysed: BTreeMap<u64, Result<UserAnalysis, AnalysisFailure>> = states
            .iter()
            .map(|(&id, state)| (id, self.analyze_user(state, rec)))
            .collect();
        if on {
            let failures = analysed.values().filter(|r| r.is_err()).count();
            if failures > 0 {
                rec.count(metrics::ANALYSIS_FAILURES, failures as u64);
            }
            let rates = analysed
                .values()
                .filter(|r| matches!(r, Ok(a) if a.mean_rate_bpm().is_some()))
                .count();
            if rates > 0 {
                rec.count(metrics::RATES_REPORTED, rates as u64);
            }
        }
        if tracing {
            for (&id, result) in &analysed {
                if let Ok(a) = result {
                    if let Some(bpm) = a.mean_rate_bpm() {
                        rec.emit(
                            TraceEvent::instant("rate", watermark)
                                .with_user(id)
                                .with_port(a.antenna_port)
                                .with_values(bpm, a.rate.instantaneous.len() as f64),
                        );
                    }
                }
            }
        }
        AnalysisReport {
            users: analysed,
            unknown_reports,
        }
    }

    /// Snapshots one user's folded graph and runs the analysis tail on it.
    /// The `analyze` span covers only users whose snapshot succeeds, and
    /// is stamped with the snapshot's last time.
    fn analyze_user(
        &self,
        state: &UserStreamState,
        rec: &dyn Recorder,
    ) -> Result<UserAnalysis, AnalysisFailure> {
        let timer = StageTimer::start(rec, metrics::STAGE_ANALYZE_NS);
        let snap = state
            .snapshot(&self.config)
            .ok_or_else(|| AnalysisFailure::InsufficientData("no displacement data".into()))?;
        let analyze_t = if snap.displacement.is_empty() {
            0.0
        } else {
            snap.displacement.time_at(snap.displacement.len() - 1)
        };
        let _timer = timer.traced("analyze", analyze_t);
        analyze_displacement(
            &self.config,
            snap.antenna_port,
            snap.report_count,
            snap.displacement,
        )
    }
}

/// The analysis tail shared by the batch and streaming drivers: despike →
/// gross-motion gate → breath-signal extraction → rate estimation.
pub(crate) fn analyze_displacement(
    config: &PipelineConfig,
    antenna_port: u8,
    report_count: usize,
    displacement: TimeSeries,
) -> Result<UserAnalysis, AnalysisFailure> {
    let displacement = match config.despike_median {
        Some(width) => {
            let cleaned = dsp::filter::median_filter(displacement.values(), width);
            displacement.with_values(cleaned)
        }
        None => displacement,
    };
    // Gross-motion gate: a walking subject's trajectory spans metres
    // where breathing spans decimetres (Section VI-B.4's "does not
    // report" philosophy applied to locomotion).
    let range_m = {
        let v = displacement.values();
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    };
    if range_m > config.gross_motion_limit_m {
        return Err(AnalysisFailure::GrossMotion { range_m });
    }
    let breath_signal = extract_breath_signal(&displacement, config).map_err(|e| match e {
        ExtractError::TooShort { .. } => AnalysisFailure::InsufficientData(e.to_string()),
        ExtractError::FilterDesign(what) => AnalysisFailure::InsufficientData(what),
    })?;
    let rate = estimate_rate(&breath_signal, config);
    Ok(UserAnalysis {
        antenna_port,
        report_count,
        displacement,
        breath_signal,
        rate,
    })
}

impl Default for BreathMonitor {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use breathing::{Posture, Scenario, Subject, TagSite, Waveform};
    use epcgen2::mapping::EmbeddedIdentity;
    use epcgen2::reader::Reader;
    use epcgen2::world::ScenarioWorld;
    use rfchannel::geometry::Vec3;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn capture(scenario: Scenario, secs: f64) -> Vec<TagReport> {
        Reader::paper_default().run(&ScenarioWorld::new(scenario), secs)
    }

    #[test]
    fn paper_default_config_validates() {
        // `BreathMonitor::paper_default` skips `new`'s validation on the
        // strength of this invariant.
        assert!(BreathMonitor::new(PipelineConfig::paper_default()).is_ok());
    }

    #[test]
    fn end_to_end_single_user_rate() -> TestResult {
        // The headline behaviour: a user at 2 m breathing 10 bpm is
        // estimated within ~1 bpm (the paper reports <1 bpm mean error).
        let scenario = Scenario::builder()
            .subject(Subject::paper_default(1, 2.0))
            .build();
        let reports = capture(scenario, 60.0);
        let monitor = BreathMonitor::paper_default();
        let out = monitor.analyze(&reports, &EmbeddedIdentity::new([1]));
        let analysis = out.users[&1].as_ref().map_err(|e| e.to_string())?;
        let bpm = analysis.mean_rate_bpm().ok_or("rate unavailable")?;
        assert!((bpm - 10.0).abs() < 1.0, "estimated {bpm} bpm");
        assert_eq!(analysis.antenna_port, 1);
        assert!(analysis.report_count > 1000);
        Ok(())
    }

    #[test]
    fn end_to_end_multi_user_separation() -> TestResult {
        // Two users with different rates are estimated independently —
        // the collision-arbitration benefit of Section VI-B.2.
        let scenario = Scenario::builder()
            .users_side_by_side(2, 3.0, &[8.0, 16.0])
            .build();
        let ids: Vec<u64> = scenario.subjects().iter().map(|s| s.user_id()).collect();
        let rates: Vec<f64> = scenario
            .subjects()
            .iter()
            .map(|s| s.nominal_rate_bpm())
            .collect();
        let reports = capture(scenario, 90.0);
        let monitor = BreathMonitor::paper_default();
        let out = monitor.analyze(&reports, &EmbeddedIdentity::new(ids.clone()));
        for (id, want) in ids.iter().zip(&rates) {
            let analysis = out.users[id].as_ref().map_err(|e| e.to_string())?;
            let got = analysis.mean_rate_bpm().ok_or("rate unavailable")?;
            assert!(
                (got - want).abs() < 1.5,
                "user {id}: want {want}, got {got}"
            );
        }
        Ok(())
    }

    #[test]
    fn blocked_user_reports_failure_not_garbage() {
        let antenna = Vec3::new(0.0, 0.0, 1.0);
        let scenario = Scenario::builder()
            .subject(Subject::paper_default(1, 4.0).facing_away_from(antenna, 170.0))
            .build();
        let reports = capture(scenario, 30.0);
        let monitor = BreathMonitor::paper_default();
        let out = monitor.analyze(&reports, &EmbeddedIdentity::new([1]));
        // Either no reads at all (user absent) or present-but-insufficient
        // is acceptable; a successful analysis of a blocked user is not.
        assert!(
            !matches!(out.users.get(&1), Some(Ok(_))),
            "analysed a blocked user"
        );
    }

    #[test]
    fn item_tags_are_counted_as_unknown() {
        let scenario = Scenario::builder()
            .subject(Subject::paper_default(1, 2.0))
            .contending_items(10)
            .build();
        let reports = capture(scenario, 10.0);
        let monitor = BreathMonitor::paper_default();
        let out = monitor.analyze(&reports, &EmbeddedIdentity::new([1]));
        assert!(
            out.unknown_reports > 0,
            "contending tags should be read too"
        );
        assert_eq!(out.successes().count(), 1);
    }

    #[test]
    fn realistic_waveform_is_tracked() -> TestResult {
        let subject = Subject::new(
            1,
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
            Posture::Sitting,
            Waveform::realistic(14.0, 9),
            TagSite::ALL.to_vec(),
        );
        let reports = capture(Scenario::builder().subject(subject).build(), 90.0);
        let monitor = BreathMonitor::paper_default();
        let out = monitor.analyze(&reports, &EmbeddedIdentity::new([1]));
        let bpm = out.users[&1]
            .as_ref()
            .map_err(|e| e.to_string())?
            .mean_rate_bpm()
            .ok_or("rate unavailable")?;
        assert!((bpm - 14.0).abs() < 2.0, "estimated {bpm} bpm");
        Ok(())
    }

    #[test]
    fn input_order_does_not_change_the_analysis() {
        // The fold orders reports by (time, port, tag) itself, so input
        // order cannot change a fusion-bin sum, not even among exact-time
        // ties: every read gets a twin on another tag at the same instant.
        let scenario = Scenario::builder()
            .subject(Subject::paper_default(1, 2.0))
            .build();
        let mut reports = capture(scenario, 30.0);
        let twins: Vec<TagReport> = reports
            .iter()
            .map(|r| TagReport {
                epc: epcgen2::epc::Epc96::monitor(1, r.epc.tag_id() ^ 8),
                phase_rad: (r.phase_rad + 0.7) % std::f64::consts::TAU,
                ..*r
            })
            .collect();
        reports.extend(twins);
        let reversed: Vec<TagReport> = reports.iter().rev().copied().collect();
        let monitor = BreathMonitor::paper_default();
        let resolver = EmbeddedIdentity::new([1]);
        assert_eq!(
            monitor.analyze(&reversed, &resolver),
            monitor.analyze(&reports, &resolver)
        );
    }

    #[test]
    fn empty_input_yields_empty_report() {
        let out = BreathMonitor::paper_default().analyze(&[], &EmbeddedIdentity::new([1]));
        assert!(out.users.is_empty());
        assert_eq!(out.unknown_reports, 0);
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let mut cfg = PipelineConfig::paper_default();
        cfg.cutoff_hz = -1.0;
        assert!(BreathMonitor::new(cfg).is_err());
    }

    #[test]
    fn failure_display_strings() {
        assert!(AnalysisFailure::InsufficientData("x".into())
            .to_string()
            .contains("insufficient"));
    }
}

#[cfg(test)]
mod summary_tests {
    use super::*;
    use breathing::{Scenario, Subject};
    use epcgen2::mapping::EmbeddedIdentity;
    use epcgen2::reader::Reader;
    use epcgen2::world::ScenarioWorld;

    #[test]
    fn summary_lists_users_and_unknowns() {
        let scenario = Scenario::builder()
            .subject(Subject::paper_default(1, 2.0))
            .contending_items(5)
            .build();
        let reports = Reader::paper_default().run(&ScenarioWorld::new(scenario), 40.0);
        let analysis =
            BreathMonitor::paper_default().analyze(&reports, &EmbeddedIdentity::new([1]));
        let text = analysis.summary();
        assert!(text.contains("user 1:"), "{text}");
        assert!(text.contains("bpm"), "{text}");
        assert!(text.contains("unrelated tags"), "{text}");
    }

    #[test]
    fn summary_reports_failures_in_words() {
        let mut report = AnalysisReport {
            users: std::collections::BTreeMap::new(),
            unknown_reports: 0,
        };
        let insufficient = AnalysisFailure::InsufficientData("x".into());
        report.users.insert(9, Err(insufficient));
        report
            .users
            .insert(10, Err(AnalysisFailure::GrossMotion { range_m: 5.0 }));
        let text = report.summary();
        assert!(text.contains("user 9: insufficient data"), "{text}");
        assert!(text.contains("gross motion"), "{text}");
    }

    #[test]
    fn despike_config_path_works_end_to_end() -> Result<(), Box<dyn std::error::Error>> {
        let scenario = Scenario::builder()
            .subject(Subject::paper_default(1, 2.0))
            .build();
        let reports = Reader::paper_default().run(&ScenarioWorld::new(scenario), 60.0);
        let mut cfg = PipelineConfig::paper_default();
        cfg.despike_median = Some(5);
        let analysis = BreathMonitor::new(cfg)?.analyze(&reports, &EmbeddedIdentity::new([1]));
        let bpm = analysis.users[&1]
            .as_ref()
            .map_err(|e| e.to_string())?
            .mean_rate_bpm()
            .ok_or("rate unavailable")?;
        assert!((bpm - 10.0).abs() < 1.0, "despiked estimate {bpm}");
        Ok(())
    }
}
