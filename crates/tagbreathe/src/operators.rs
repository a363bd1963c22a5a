//! The per-user operator graph shared by the batch and streaming paths.
//!
//! [`UserStreamState`] wires the incremental operators of the lower layers
//! into one push-based stage graph per monitored user:
//!
//! ```text
//! TagReport ──▶ TagStat (read-rate / RSSI, antenna selection)
//!           └─▶ PhaseUnwrapper ──▶ FusionAccumulator (per port or merged)
//!               — or —
//!               TrackAccumulator (per tag, merged on snapshot)
//! ```
//!
//! Both [`BreathMonitor`](crate::monitor::BreathMonitor) (batch: fold a
//! time-sorted slice through the graph, snapshot once) and
//! [`StreamingMonitor`](crate::pipeline::StreamingMonitor) (real time: push
//! reports as they arrive, snapshot at a cadence) are thin drivers over this
//! type, so the Eq. (3)–(7) math and the antenna-quality rule of
//! Section IV-D.3 exist exactly once.
//!
//! State ownership and bounds: each `(antenna_port, tag_id)` key owns one
//! O(1) [`TagStat`] plus per-channel preprocessor state; fused displacement
//! lives in Δt-binned accumulators. [`UserStreamState::evict`] trims
//! everything behind the analysis window and drops tags silent past the
//! phase gap, so memory is bounded by window contents — not stream length.
//!
//! Instrumentation: [`UserStreamState::push_traced`] takes an
//! [`obs::Recorder`] and a [`Tracer`] and counts graph pushes,
//! phase-unwrap accepts/rejects and fusion-bin churn (and traces each
//! accept/reject); [`UserStreamState::evict_observed`] counts evictions.
//! The plain methods delegate with no-op sinks.
//!
//! # Examples
//!
//! Push one tag's phase readings through a user's graph and snapshot the
//! fused displacement trajectory:
//!
//! ```
//! use tagbreathe::operators::UserStreamState;
//! use tagbreathe::PipelineConfig;
//! use epcgen2::report::TagReport;
//! use epcgen2::epc::Epc96;
//!
//! let config = PipelineConfig::paper_default();
//! let mut state = UserStreamState::new();
//! let mk = |t: f64, phase: f64| TagReport {
//!     time_s: t, epc: Epc96::monitor(1, 7), antenna_port: 1,
//!     channel_index: 0, phase_rad: phase, rssi_dbm: -50.0, doppler_hz: 0.0,
//! };
//! for i in 0..40 {
//!     // Slow phase drift — a tag drifting away from the antenna.
//!     state.push(7, &mk(f64::from(i) * 0.1, 1.0 + 0.02 * f64::from(i)), &config);
//! }
//! assert_eq!(state.tag_count(), 1);
//! let snap = state.snapshot(&config).expect("one well-read tag suffices");
//! assert_eq!(snap.antenna_port, 1);
//! assert!(!snap.displacement.is_empty());
//! ```

use crate::config::{AntennaStrategy, PipelineConfig, PreprocessKind};
use crate::fusion::{fuse_level_tracks, FusionAccumulator};
use crate::metrics;
use crate::preprocess::{PhaseUnwrapper, TrackAccumulator};
use crate::series::TimeSeries;
use epcgen2::report::TagReport;
use obs::trace::{NoopTracer, TraceEvent, Tracer};
use obs::{NoopRecorder, Recorder};
use std::collections::BTreeMap;

/// The per-tag slab: slots sorted by `(antenna_port, tag_id)` so
/// iteration order (and therefore float summation order) matches the
/// `BTreeMap` this replaced. Lookup is a binary search behind a
/// last-hit hint — reader traces revisit the same tag in bursts, so the
/// per-report path is usually a single key compare.
type TagSlab = Vec<((u8, u32), TagState)>;

/// Per-port fusion accumulators, sorted by port (a handful of entries).
type PortSlab = Vec<(u8, FusionAccumulator)>;

/// Running read statistics of one `(antenna_port, tag_id)` stream: read
/// count, mean sampling rate and mean RSSI, the inputs of the paper's
/// antenna-quality rule (Section IV-D.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct TagStat {
    count: usize,
    rssi_sum: f64,
    first_t: f64,
    last_t: f64,
}

impl TagStat {
    /// Folds one report into the statistics.
    pub fn observe(&mut self, report: &TagReport) {
        if self.count == 0 {
            self.first_t = report.time_s;
            self.last_t = report.time_s;
        } else {
            self.first_t = self.first_t.min(report.time_s);
            self.last_t = self.last_t.max(report.time_s);
        }
        self.count += 1;
        self.rssi_sum += report.rssi_dbm;
    }

    /// Number of reports observed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Mean sampling rate in Hz (`None` for < 2 reports or a zero span).
    pub fn mean_rate_hz(&self) -> Option<f64> {
        if self.count < 2 {
            return None;
        }
        let span = self.last_t - self.first_t;
        if span <= 0.0 {
            return None;
        }
        Some((self.count - 1) as f64 / span)
    }

    /// Mean RSSI in dBm (`None` before the first report).
    pub fn mean_rssi_dbm(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(self.rssi_sum / self.count as f64)
    }

    /// Time of the newest observed report, seconds.
    pub fn last_seen_s(&self) -> f64 {
        self.last_t
    }
}

/// The preprocessing operator of one tag, matching
/// [`PreprocessKind`](crate::config::PreprocessKind).
#[derive(Debug, Clone)]
enum Preprocessor {
    /// Eq. (3) increments feeding a shared fusion accumulator.
    Increments(PhaseUnwrapper),
    /// Per-channel level tracks merged at snapshot time.
    Tracks(TrackAccumulator),
}

/// One tag's slot in the graph: statistics plus preprocessor state.
#[derive(Debug, Clone)]
struct TagState {
    stat: TagStat,
    pre: Preprocessor,
}

impl TagState {
    fn new(kind: PreprocessKind) -> Self {
        let pre = match kind {
            PreprocessKind::IncrementBinning => Preprocessor::Increments(PhaseUnwrapper::new()),
            PreprocessKind::ChannelTrackMerge => Preprocessor::Tracks(TrackAccumulator::new()),
        };
        TagState {
            stat: TagStat::default(),
            pre,
        }
    }
}

/// One displacement snapshot of the graph — the inputs the analysis tail
/// ([`crate::monitor`]'s despike → gross-motion gate → extraction → rate
/// stages) needs.
#[derive(Debug, Clone, PartialEq)]
pub struct UserSnapshot {
    /// Antenna port whose data was selected (paper Section IV-D.3).
    pub antenna_port: u8,
    /// Reports consumed by the selected streams.
    pub report_count: usize,
    /// Fused displacement trajectory (Eq. 7), metres.
    pub displacement: TimeSeries,
}

/// The full incremental operator graph for one user.
///
/// Push reports in time order with [`UserStreamState::push`]; take an
/// amortised-O(window) [`UserStreamState::snapshot`] at any moment;
/// [`UserStreamState::evict`] keeps state bounded on endless streams.
///
/// **Equivalence invariant** (covered by `tests/equivalence.rs`): the batch
/// pipeline is this graph folded over the time-sorted trace and snapshotted
/// once, so streaming the same time-ordered reports yields bit-identical
/// rates.
#[derive(Debug, Clone, Default)]
pub struct UserStreamState {
    tags: TagSlab,
    /// Hint: slab index of the last slot touched by `push_traced`.
    last_tag: usize,
    /// Per-port fusion accumulators (the `BestPort` layout).
    per_port: PortSlab,
    /// Single cross-port accumulator (the `MergeAll` layout).
    merged: Option<FusionAccumulator>,
}

/// Cold path: first report of a `(antenna_port, tag_id)` key allocates
/// its slot — amortised once per tag, off the per-report path.
fn admit_tag(tags: &mut TagSlab, at: usize, key: (u8, u32), kind: PreprocessKind) {
    tags.insert(at, (key, TagState::new(kind)));
}

/// Cold path: first Eq. (3) increment on a port allocates its fusion
/// accumulator — amortised once per antenna port.
fn admit_port(per_port: &mut PortSlab, at: usize, port: u8, bin_s: f64) {
    per_port.insert(at, (port, FusionAccumulator::new(bin_s)));
}

/// The paper's antenna-quality rule (Section IV-D.3): antennas are judged
/// "in terms of received signal strength and data sampling rate". Scores
/// each port by the summed read rate of its tag streams, breaks ties by
/// their mean RSSI, then by the higher port. `stats` yields one
/// `(antenna_port, statistics)` pair per tag stream, in `(port, tag)`
/// order so float sums are reproducible. `None` when there are no streams.
pub(crate) fn best_port<'a>(stats: impl IntoIterator<Item = (u8, &'a TagStat)>) -> Option<u8> {
    let mut ports: BTreeMap<u8, (f64, f64, usize)> = BTreeMap::new();
    for (port, stat) in stats {
        let entry = ports.entry(port).or_insert((0.0, 0.0, 0));
        if let Some(rate) = stat.mean_rate_hz() {
            entry.0 += rate;
        }
        if let Some(rssi) = stat.mean_rssi_dbm() {
            entry.1 += rssi;
            entry.2 += 1;
        }
    }
    ports
        .into_iter()
        .map(|(port, (rate, rssi_sum, n))| {
            let rssi = if n == 0 {
                f64::NEG_INFINITY
            } else {
                rssi_sum / n as f64
            };
            (port, (rate, rssi))
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(port, _)| port)
}

impl UserStreamState {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes one report through the graph.
    ///
    /// Reports whose channel lies outside the configured plan still update
    /// the tag statistics but produce no displacement.
    pub fn push(&mut self, tag_id: u32, report: &TagReport, config: &PipelineConfig) {
        self.push_traced(0, tag_id, report, config, &NoopRecorder, &NoopTracer);
    }

    /// [`UserStreamState::push`] with per-stage metrics (graph reports,
    /// Eq. (3) increments vs. rejects, track samples and newly-created
    /// fusion bins) and flight-recorder events: every phase accept /
    /// reject and track sample becomes an instant [`TraceEvent`] keyed by
    /// `user_id` / `tag_id` / antenna port / channel. `user_id` only labels
    /// the events (the graph itself is already per-user); a disabled sink
    /// costs one `enabled()` check.
    pub fn push_traced(
        &mut self,
        user_id: u64,
        tag_id: u32,
        report: &TagReport,
        config: &PipelineConfig,
        rec: &dyn Recorder,
        tracer: &dyn Tracer,
    ) {
        let on = rec.enabled();
        let tracing = tracer.enabled();
        let event = |name: &'static str, a: f64, b: f64| {
            TraceEvent::instant(name, report.time_s)
                .with_user(user_id)
                .with_tag(tag_id)
                .with_port(report.antenna_port)
                .with_channel(report.channel_index)
                .with_values(a, b)
        };
        if on {
            rec.count(metrics::GRAPH_REPORTS, 1);
        }
        // Hot slot lookup: last-hit hint, then its successor (readers
        // interrogate a user's tags in bursts or round-robin, and
        // round-robin walks the sorted slab in order), then the search.
        let key = (report.antenna_port, tag_id);
        let succ = self.last_tag.wrapping_add(1);
        if self.tags.get(self.last_tag).is_none_or(|(k, _)| *k != key) {
            if self.tags.get(succ).is_some_and(|(k, _)| *k == key) {
                self.last_tag = succ;
            } else {
                self.last_tag = match self.tags.binary_search_by_key(&key, |slot| slot.0) {
                    Ok(i) => i,
                    Err(i) => {
                        admit_tag(&mut self.tags, i, key, config.preprocess);
                        i
                    }
                };
            }
        }
        let Some((_, state)) = self.tags.get_mut(self.last_tag) else {
            return; // unreachable: the slot above was just found or admitted
        };
        state.stat.observe(report);
        match &mut state.pre {
            Preprocessor::Increments(unwrapper) => {
                if let Some(sample) = unwrapper.push(report, &config.plan, config.max_phase_gap_s) {
                    let acc = match config.antenna {
                        AntennaStrategy::BestPort => {
                            let at = match self
                                .per_port
                                .binary_search_by_key(&report.antenna_port, |slot| slot.0)
                            {
                                Ok(i) => i,
                                Err(i) => {
                                    admit_port(
                                        &mut self.per_port,
                                        i,
                                        report.antenna_port,
                                        config.fusion_bin_s,
                                    );
                                    i
                                }
                            };
                            let Some((_, acc)) = self.per_port.get_mut(at) else {
                                return; // unreachable: admitted above
                            };
                            acc
                        }
                        AntennaStrategy::MergeAll => self
                            .merged
                            .get_or_insert_with(|| FusionAccumulator::new(config.fusion_bin_s)),
                    };
                    if on || tracing {
                        let bins_before = acc.len();
                        acc.push(sample);
                        let created = acc.len().saturating_sub(bins_before);
                        if on {
                            rec.count(metrics::PHASE_INCREMENTS, 1);
                            if created > 0 {
                                rec.count(metrics::FUSION_BINS_CREATED, created as u64);
                            }
                        }
                        if tracing {
                            tracer.emit(event("phase_accept", sample.value, created as f64));
                        }
                    } else {
                        acc.push(sample);
                    }
                } else {
                    if on {
                        rec.count(metrics::PHASE_REJECTS, 1);
                    }
                    if tracing {
                        tracer.emit(event("phase_reject", report.phase_rad, 0.0));
                    }
                }
            }
            Preprocessor::Tracks(tracks) => {
                tracks.push(report, &config.plan, config.max_phase_gap_s);
                if on {
                    rec.count(metrics::TRACK_SAMPLES, 1);
                }
                if tracing {
                    tracer.emit(event("track_sample", report.phase_rad, 0.0));
                }
            }
        }
    }

    /// The optimal antenna per the paper's quality rule (aggregate read
    /// rate, ties broken by mean RSSI, then by higher port) over the held
    /// tag statistics.
    pub fn best_antenna(&self) -> Option<u8> {
        best_port(self.tags.iter().map(|((port, _), tag)| (*port, &tag.stat)))
    }

    /// Snapshots the fused displacement of the currently-held state.
    ///
    /// Returns `None` when no antenna has data or no displacement could be
    /// fused yet. Cost is proportional to retained window contents, never
    /// to total stream length.
    pub fn snapshot(&self, config: &PipelineConfig) -> Option<UserSnapshot> {
        let port = self.best_antenna()?;
        let selected: Vec<&TagState> = self
            .tags
            .iter()
            .filter(|((p, _), _)| matches!(config.antenna, AntennaStrategy::MergeAll) || *p == port)
            .map(|(_, t)| t)
            .collect();
        let report_count = selected.iter().map(|t| t.stat.count()).sum();
        let displacement = match config.preprocess {
            PreprocessKind::IncrementBinning => match config.antenna {
                AntennaStrategy::BestPort => {
                    let at = self
                        .per_port
                        .binary_search_by_key(&port, |slot| slot.0)
                        .ok()?;
                    self.per_port.get(at)?.1.trajectory()?
                }
                AntennaStrategy::MergeAll => self.merged.as_ref()?.trajectory()?,
            },
            PreprocessKind::ChannelTrackMerge => {
                let tracks: Vec<Vec<dsp::Sample>> = selected
                    .iter()
                    .map(|t| match &t.pre {
                        Preprocessor::Tracks(acc) => acc.merged(),
                        Preprocessor::Increments(_) => Vec::new(),
                    })
                    .collect();
                fuse_level_tracks(&tracks, config.fusion_bin_s)?
            }
        };
        Some(UserSnapshot {
            antenna_port: port,
            report_count,
            displacement,
        })
    }

    /// Evicts state behind the sliding window ending at `watermark_s`:
    /// fusion bins and track samples older than `window_s`, per-channel
    /// references silent past `max_phase_gap_s`, and whole tags unseen for
    /// longer than both.
    pub fn evict(&mut self, watermark_s: f64, window_s: f64, config: &PipelineConfig) {
        self.evict_observed(watermark_s, window_s, config, &NoopRecorder);
    }

    /// [`UserStreamState::evict`] with metrics: counts fusion bins and
    /// whole-tag slots dropped by this sweep.
    pub fn evict_observed(
        &mut self,
        watermark_s: f64,
        window_s: f64,
        config: &PipelineConfig,
        rec: &dyn Recorder,
    ) {
        let on = rec.enabled();
        let (bins_before, tags_before) = if on {
            (self.fusion_bin_count(), self.tags.len())
        } else {
            (0, 0)
        };
        let cutoff = watermark_s - window_s;
        for (_, acc) in &mut self.per_port {
            acc.evict_before(cutoff);
        }
        if let Some(acc) = &mut self.merged {
            acc.evict_before(cutoff);
        }
        let horizon = window_s.max(config.max_phase_gap_s);
        self.tags.retain_mut(|(_, tag)| {
            match &mut tag.pre {
                Preprocessor::Increments(unwrapper) => {
                    unwrapper.evict_stale(watermark_s, config.max_phase_gap_s);
                }
                Preprocessor::Tracks(tracks) => {
                    tracks.evict_stale(watermark_s, config.max_phase_gap_s);
                    tracks.evict_before(cutoff);
                }
            }
            watermark_s - tag.stat.last_seen_s() <= horizon
        });
        // Slots may have shifted; the hint re-validates by key compare,
        // but point it off the slab so the next push takes the search.
        self.last_tag = usize::MAX;
        if on {
            let bins_evicted = bins_before.saturating_sub(self.fusion_bin_count());
            if bins_evicted > 0 {
                rec.count(metrics::FUSION_BINS_EVICTED, bins_evicted as u64);
            }
            let tags_evicted = tags_before.saturating_sub(self.tags.len());
            if tags_evicted > 0 {
                rec.count(metrics::TAGS_EVICTED, tags_evicted as u64);
            }
        }
    }

    /// Number of live Δt fusion bins across all accumulators.
    fn fusion_bin_count(&self) -> usize {
        self.per_port
            .iter()
            .map(|(_, acc)| acc.len())
            .sum::<usize>()
            + self.merged.as_ref().map_or(0, FusionAccumulator::len)
    }

    /// Number of `(antenna_port, tag_id)` keys currently holding state.
    pub fn tag_count(&self) -> usize {
        self.tags.len()
    }

    /// Whether the graph holds no per-tag state.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Total retained state cells — tag slots, per-channel references,
    /// buffered track samples and fusion bins. The quantity the
    /// bounded-memory guarantees (and tests) are stated over.
    pub fn state_cells(&self) -> usize {
        let tag_cells: usize = self
            .tags
            .iter()
            .map(|(_, t)| {
                1 + match &t.pre {
                    Preprocessor::Increments(u) => u.tracked_channels(),
                    Preprocessor::Tracks(a) => a.tracked_channels() + a.sample_count(),
                }
            })
            .sum();
        tag_cells + self.fusion_bin_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epcgen2::epc::Epc96;

    fn report(t: f64, tag: u32, port: u8, channel: u16, phase: f64, rssi: f64) -> TagReport {
        TagReport {
            time_s: t,
            epc: Epc96::monitor(1, tag),
            antenna_port: port,
            channel_index: channel,
            phase_rad: phase,
            rssi_dbm: rssi,
            doppler_hz: 0.0,
        }
    }

    fn push_all(state: &mut UserStreamState, reports: &[(u32, TagReport)], cfg: &PipelineConfig) {
        for (tag, r) in reports {
            state.push(*tag, r, cfg);
        }
    }

    #[test]
    fn best_antenna_matches_batch_rule() {
        // Port 1: 10 reads over 1 s; port 2: 3 reads, stronger RSSI.
        let cfg = PipelineConfig::paper_default();
        let mut state = UserStreamState::new();
        let mut reports = Vec::new();
        for i in 0..10 {
            reports.push((0u32, report(i as f64 * 0.1, 0, 1, 0, 0.0, -60.0)));
        }
        for i in 0..3 {
            reports.push((0u32, report(i as f64 * 0.45, 0, 2, 0, 0.0, -40.0)));
        }
        push_all(&mut state, &reports, &cfg);
        assert_eq!(state.best_antenna(), Some(1));
    }

    #[test]
    fn best_antenna_breaks_rate_ties_by_rssi_then_port() {
        // Both ports read the tag at the same instants, so their rates tie.
        let cfg = PipelineConfig::paper_default();
        let pick = |rssi_1: f64, rssi_2: f64| {
            let mut state = UserStreamState::new();
            for i in 0..5 {
                let t = f64::from(i) * 0.1;
                state.push(0, &report(t, 0, 1, 0, 0.0, rssi_1), &cfg);
                state.push(0, &report(t, 0, 2, 0, 0.0, rssi_2), &cfg);
            }
            state.best_antenna()
        };
        assert_eq!(pick(-50.0, -60.0), Some(1));
        assert_eq!(pick(-60.0, -50.0), Some(2));
        assert_eq!(pick(-55.0, -55.0), Some(2), "full tie: higher port");
    }

    #[test]
    fn empty_graph_has_no_antenna_or_snapshot() {
        let cfg = PipelineConfig::paper_default();
        let state = UserStreamState::new();
        assert!(state.best_antenna().is_none());
        assert!(state.snapshot(&cfg).is_none());
        assert!(state.is_empty());
        assert_eq!(state.state_cells(), 0);
    }

    #[test]
    fn snapshot_counts_only_selected_port_reports() -> Result<(), Box<dyn std::error::Error>> {
        let cfg = PipelineConfig::paper_default();
        let mut state = UserStreamState::new();
        let mut reports = Vec::new();
        // Port 1 carries a real phase ramp; port 2 a couple of stray reads.
        for i in 0..200 {
            let t = i as f64 * 0.05;
            reports.push((0u32, report(t, 0, 1, 0, (0.4 * t).sin(), -55.0)));
        }
        reports.push((0u32, report(0.02, 0, 2, 0, 0.0, -80.0)));
        reports.push((0u32, report(0.52, 0, 2, 0, 0.1, -80.0)));
        reports.sort_by(|a, b| {
            a.1.time_s
                .partial_cmp(&b.1.time_s)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        push_all(&mut state, &reports, &cfg);
        let snap = state.snapshot(&cfg).ok_or("no snapshot")?;
        assert_eq!(snap.antenna_port, 1);
        assert_eq!(snap.report_count, 200);
        Ok(())
    }

    #[test]
    fn eviction_drops_silent_tags_and_bins() {
        let cfg = PipelineConfig::paper_default();
        let mut state = UserStreamState::new();
        for i in 0..100 {
            let t = i as f64 * 0.05;
            state.push(0, &report(t, 0, 1, 0, (0.4 * t).sin(), -55.0), &cfg);
        }
        let before = state.state_cells();
        assert!(before > 0);
        // Far-future watermark: everything is stale.
        state.evict(1.0e4, 5.0, &cfg);
        assert!(state.is_empty(), "tags left: {}", state.tag_count());
        assert_eq!(state.state_cells(), 0);
    }

    #[test]
    fn tag_stat_rules_match_stream_statistics() {
        let mut stat = TagStat::default();
        assert!(stat.mean_rate_hz().is_none());
        assert!(stat.mean_rssi_dbm().is_none());
        for (t, rssi) in [(0.0, -50.0), (1.0, -52.0), (2.0, -54.0)] {
            stat.observe(&report(t, 0, 1, 0, 0.0, rssi));
        }
        assert_eq!(stat.count(), 3);
        assert_eq!(stat.mean_rate_hz(), Some(1.0));
        assert_eq!(stat.mean_rssi_dbm(), Some(-52.0));
        assert_eq!(stat.last_seen_s(), 2.0);
    }
}
