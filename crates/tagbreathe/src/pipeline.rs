//! Real-time operation: the sliding-window streaming monitor.
//!
//! The paper's prototype processes low-level data "in a pipelined manner"
//! and visualises breathing in real time (Section V). Both real-time
//! shapes are one [`Engine`] — one router, two
//! executors:
//!
//! * [`StreamingMonitor`] — the inline executor: reports are pushed as
//!   they arrive into the per-user operator graph
//!   ([`crate::operators::UserStreamState`], the same graph the batch
//!   [`crate::monitor::BreathMonitor`] drives) on the caller's thread; a
//!   sliding window (default 25 s, the paper's analysis window) is
//!   snapshotted at a fixed cadence;
//! * [`FleetEngine`](crate::fleet::FleetEngine) — the threaded executor:
//!   the same router feeds per-shard worker threads over lock-free rings,
//!   so a slow analysis never back-pressures the reader and many users
//!   spread over many cores.

use crate::engine::{Engine, Inline};
use std::collections::BTreeMap;

/// A point-in-time estimate of every monitored user's breathing rate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RateSnapshot {
    /// Stream time at which the snapshot was produced, seconds.
    pub time_s: f64,
    /// Mean rate per user over the analysis window, bpm. Users present in
    /// the window but not analysable (blocked, too little data) are absent.
    pub rates_bpm: BTreeMap<u64, f64>,
    /// Breathing-effort RMS of the extracted signal per analysed user —
    /// the live input for apnea alarms (effort collapses during a pause
    /// even while the windowed rate still shows the last breaths).
    pub effort_rms: BTreeMap<u64, f64>,
}

/// Single-threaded sliding-window streaming monitor: [`Engine`] over the
/// [`Inline`] executor.
///
/// # Examples
///
/// ```
/// use tagbreathe::pipeline::StreamingMonitor;
/// use tagbreathe::PipelineConfig;
/// use epcgen2::mapping::EmbeddedIdentity;
///
/// let mut sm = StreamingMonitor::new(
///     PipelineConfig::paper_default(),
///     EmbeddedIdentity::new([1]),
///     25.0,
///     5.0,
/// )?;
/// assert!(sm.push(None::<tagbreathe::TagReport>.into_iter()).is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type StreamingMonitor<R> = Engine<R, Inline>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use breathing::{Scenario, Subject};
    use epcgen2::mapping::EmbeddedIdentity;
    use epcgen2::reader::Reader;
    use epcgen2::report::TagReport;
    use epcgen2::world::ScenarioWorld;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn capture(secs: f64) -> Vec<TagReport> {
        let scenario = Scenario::builder()
            .subject(Subject::paper_default(1, 2.0))
            .build();
        Reader::paper_default().run(&ScenarioWorld::new(scenario), secs)
    }

    #[test]
    fn streaming_emits_snapshots_at_cadence() -> TestResult {
        let reports = capture(60.0);
        let mut sm = StreamingMonitor::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1]),
            25.0,
            10.0,
        )?;
        let snaps = sm.push(reports);
        // 60 s at a 10 s cadence → snapshots at 10,20,...,60 (first few may
        // lack data but still emit).
        assert!((5..=7).contains(&snaps.len()), "{} snapshots", snaps.len());
        // Later snapshots (full window) should estimate ~10 bpm.
        let last = snaps.last().ok_or("no snapshots")?;
        let bpm = last.rates_bpm.get(&1).copied().ok_or("user not tracked")?;
        assert!((bpm - 10.0).abs() < 1.5, "streaming estimate {bpm}");
        Ok(())
    }

    #[test]
    fn window_eviction_bounds_memory() -> TestResult {
        let reports = capture(60.0);
        let n = reports.len();
        let mut sm = StreamingMonitor::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1]),
            10.0,
            5.0,
        )?;
        sm.push(reports);
        // Buffer holds at most ~10 s of ~64 Hz data, far less than all 60 s.
        assert!(sm.buffered() < n / 3, "buffered {} of {n}", sm.buffered());
        Ok(())
    }

    #[test]
    fn effort_collapses_during_streamed_apnea() -> TestResult {
        use breathing::{Posture, TagSite, Waveform};
        use rfchannel::geometry::Vec3;
        let subject = breathing::Subject::new(
            1,
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
            Posture::Lying,
            Waveform::WithApnea {
                rate_bpm: 18.0,
                breathe_s: 40.0,
                apnea_s: 20.0,
            },
            TagSite::ALL.to_vec(),
        );
        let scenario = Scenario::builder().subject(subject).build();
        let reports = Reader::paper_default().run(&ScenarioWorld::new(scenario), 60.0);
        let mut sm = StreamingMonitor::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1]),
            15.0,
            5.0,
        )?;
        let snaps = sm.push(reports);
        // Snapshot at t=40 covers breathing (25-40); t=60 covers apnea
        // (45-60).
        let effort_at = |t: f64| {
            snaps
                .iter()
                .filter(|s| (s.time_s - t).abs() < 2.5)
                .find_map(|s| s.effort_rms.get(&1).copied())
        };
        let breathing = effort_at(40.0).ok_or("no breathing-window effort")?;
        let apnea = effort_at(60.0).unwrap_or(0.0);
        assert!(
            apnea < breathing * 0.5,
            "apnea effort {apnea:.2e} vs breathing {breathing:.2e}"
        );
        Ok(())
    }

    #[test]
    fn snapshot_now_on_empty_monitor() -> TestResult {
        let mut sm = StreamingMonitor::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1]),
            25.0,
            5.0,
        )?;
        let snap = sm.snapshot_now();
        assert!(snap.rates_bpm.is_empty());
        Ok(())
    }
}
