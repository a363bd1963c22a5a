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
//! Instrumentation: the graph holds no metric or trace sink.
//! [`UserStreamState::push`] returns a [`PushOutcome`] and
//! [`UserStreamState::evict`] an [`Evicted`]; each caller counts them into
//! a plain `OperatorCounts` block it owns, folds that block into its
//! recorder at points it already has (a shard's snapshot part, the end of
//! a batch fold), and traces the outcomes itself. The per-report path
//! therefore takes no lock.
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
use obs::trace::TraceEvent;
use obs::Recorder;
use std::cmp::Ordering;

/// The per-tag slab: slots sorted by `(antenna_port, tag_id)` so
/// iteration order (and therefore float summation order) matches the
/// `BTreeMap` this replaced. Lookup is a binary search behind a
/// last-hit hint — reader traces revisit the same tag in bursts, so the
/// per-report path is usually a single key compare.
type TagSlab = Vec<((u8, u32), TagState)>;

/// Per-port fusion accumulators, sorted by port (a handful of entries).
type PortSlab = Vec<(u8, FusionAccumulator)>;

/// How far [`UserStreamState::expiry_deadline_s`] moves a deadline
/// early, relative to the magnitudes involved: 10⁻¹² against the ~10⁻¹⁶
/// relative rounding of one float sum, so 1 ms early at a stream time of
/// 10⁹ s.
const DEADLINE_SLACK: f64 = 1e-12;

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
/// [`PreprocessKind`](crate::config::PreprocessKind). The track state is
/// boxed so a paper-default (increment) tag slot stays the unwrapper's
/// size.
#[derive(Debug, Clone)]
enum Preprocessor {
    /// Eq. (3) increments feeding a shared fusion accumulator.
    Increments(PhaseUnwrapper),
    /// Per-channel level tracks merged at snapshot time.
    Tracks(Box<TrackAccumulator>),
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
            PreprocessKind::ChannelTrackMerge => Preprocessor::Tracks(Box::default()),
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

/// What one [`UserStreamState::push`] did with its report, for the caller
/// to count and trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PushOutcome {
    /// The Eq. (3) unwrapper emitted an increment, which was accumulated
    /// into a fusion accumulator.
    Increment {
        /// Value of the increment sample.
        value: f64,
        /// Δt fusion bins the accumulation newly created.
        bins_created: usize,
    },
    /// The unwrapper consumed the report without emitting an increment
    /// (out-of-plan channel, first read of a reference, or a gap restart).
    Reject,
    /// The `ChannelTrackMerge` preprocessor buffered a level-track sample.
    TrackSample,
}

impl PushOutcome {
    /// The flight-recorder instant for this outcome: `phase_accept`
    /// (increment value, bins created), `phase_reject` or `track_sample`
    /// (raw phase), keyed by `user_id`, `tag_id` and the report's antenna
    /// port and channel.
    pub(crate) fn trace_event(self, user_id: u64, tag_id: u32, report: &TagReport) -> TraceEvent {
        let (name, a, b) = match self {
            PushOutcome::Increment {
                value,
                bins_created,
            } => ("phase_accept", value, bins_created as f64),
            PushOutcome::Reject => ("phase_reject", report.phase_rad, 0.0),
            PushOutcome::TrackSample => ("track_sample", report.phase_rad, 0.0),
        };
        TraceEvent::instant(name, report.time_s)
            .with_user(user_id)
            .with_tag(tag_id)
            .with_port(report.antenna_port)
            .with_channel(report.channel_index)
            .with_values(a, b)
    }
}

/// What one [`UserStreamState::evict`] dropped, for the caller to count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Δt fusion bins dropped behind the window.
    pub bins: usize,
    /// `(antenna_port, tag_id)` slots dropped after falling silent.
    pub tags: usize,
}

/// The operator graph's count block: what pushes, evictions and snapshot
/// passes did since the block was last taken. Plain fields owned by one
/// thread (a shard, or the batch fold), folded into a recorder by
/// [`OperatorCounts::fold`] at points the owner already has.
#[derive(Debug, Default)]
pub(crate) struct OperatorCounts {
    graph_reports: u64,
    phase_increments: u64,
    phase_rejects: u64,
    track_samples: u64,
    fusion_bins_created: u64,
    fusion_bins_evicted: u64,
    tags_evicted: u64,
    /// Wall time of each eviction sweep, ns.
    pub(crate) evict_ns: Vec<u64>,
    /// Wall time of the snapshot pass, ns.
    pub(crate) snapshot_ns: Option<u64>,
}

impl OperatorCounts {
    /// Counts one pushed report and what it did.
    pub(crate) fn count_push(&mut self, outcome: PushOutcome) {
        self.graph_reports += 1;
        match outcome {
            PushOutcome::Increment { bins_created, .. } => {
                self.phase_increments += 1;
                self.fusion_bins_created += bins_created as u64;
            }
            PushOutcome::Reject => self.phase_rejects += 1,
            PushOutcome::TrackSample => self.track_samples += 1,
        }
    }

    /// Counts what one user's eviction dropped.
    pub(crate) fn count_evict(&mut self, evicted: Evicted) {
        self.fusion_bins_evicted += evicted.bins as u64;
        self.tags_evicted += evicted.tags as u64;
    }

    /// Adds the block to `rec`: each non-zero count to its counter and
    /// each latency sample to its histogram. An empty block makes no call.
    pub(crate) fn fold(&self, rec: &dyn Recorder) {
        let add = |name: &'static str, delta: u64| metrics::fold_count(rec, name, None, delta);
        add(metrics::GRAPH_REPORTS, self.graph_reports);
        add(metrics::PHASE_INCREMENTS, self.phase_increments);
        add(metrics::PHASE_REJECTS, self.phase_rejects);
        add(metrics::TRACK_SAMPLES, self.track_samples);
        add(metrics::FUSION_BINS_CREATED, self.fusion_bins_created);
        add(metrics::FUSION_BINS_EVICTED, self.fusion_bins_evicted);
        add(metrics::TAGS_EVICTED, self.tags_evicted);
        for &ns in &self.evict_ns {
            rec.record(metrics::EVICT_LATENCY_NS, ns);
        }
        if let Some(ns) = self.snapshot_ns {
            rec.record(metrics::SNAPSHOT_LATENCY_NS, ns);
        }
    }
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
    /// Hint: slab index of the last slot touched by `push`.
    last_tag: usize,
    /// Per-port fusion accumulators (the `BestPort` layout).
    per_port: PortSlab,
    /// Single cross-port accumulator (the `MergeAll` layout), boxed so
    /// the paper-default graph fits one 64-byte slot.
    merged: Option<Box<FusionAccumulator>>,
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
/// order: each port's streams are one run, folded in one pass, and the
/// order keeps float sums reproducible. `None` when there are no streams.
pub(crate) fn best_port<'a>(stats: impl IntoIterator<Item = (u8, &'a TagStat)>) -> Option<u8> {
    let mut best: Option<(u8, (f64, f64))> = None;
    // A finished port replaces the best unless the best scores strictly
    // higher, so a tie (or an incomparable NaN score) goes to the higher
    // port, as under `max_by`.
    let mut close = |(port, rate, rssi_sum, n): (u8, f64, f64, usize)| {
        let rssi = if n == 0 {
            f64::NEG_INFINITY
        } else {
            rssi_sum / n as f64
        };
        if best.is_none_or(|(_, score)| score.partial_cmp(&(rate, rssi)) != Some(Ordering::Greater))
        {
            best = Some((port, (rate, rssi)));
        }
    };
    // The open port's summed rate, summed mean RSSI and RSSI count.
    let mut open: Option<(u8, f64, f64, usize)> = None;
    for (port, stat) in stats {
        if let Some(done) = open.take_if(|sums| sums.0 != port) {
            close(done);
        }
        let sums = open.get_or_insert((port, 0.0, 0.0, 0));
        if let Some(rate) = stat.mean_rate_hz() {
            sums.1 += rate;
        }
        if let Some(rssi) = stat.mean_rssi_dbm() {
            sums.2 += rssi;
            sums.3 += 1;
        }
    }
    if let Some(done) = open {
        close(done);
    }
    best.map(|(port, _)| port)
}

impl UserStreamState {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes one report through the graph and returns what it did: an
    /// Eq. (3) increment (with the fusion bins it created), a reject, or a
    /// buffered track sample. The caller counts and traces the outcome.
    ///
    /// Reports whose channel lies outside the configured plan still update
    /// the tag statistics but produce no displacement.
    pub fn push(
        &mut self,
        tag_id: u32,
        report: &TagReport,
        config: &PipelineConfig,
    ) -> PushOutcome {
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
            return PushOutcome::Reject; // unreachable: the slot above was just found or admitted
        };
        state.stat.observe(report);
        match &mut state.pre {
            Preprocessor::Increments(unwrapper) => {
                let Some(sample) = unwrapper.push(report, &config.plan, config.max_phase_gap_s)
                else {
                    return PushOutcome::Reject;
                };
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
                            return PushOutcome::Reject; // unreachable: admitted above
                        };
                        acc
                    }
                    AntennaStrategy::MergeAll => self.merged.get_or_insert_with(|| {
                        Box::new(FusionAccumulator::new(config.fusion_bin_s))
                    }),
                };
                let bins_before = acc.len();
                acc.push(sample);
                PushOutcome::Increment {
                    value: sample.value,
                    bins_created: acc.len().saturating_sub(bins_before),
                }
            }
            Preprocessor::Tracks(tracks) => {
                tracks.push(report, &config.plan, config.max_phase_gap_s);
                PushOutcome::TrackSample
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
        let selected = || {
            (self.tags.iter())
                .filter(move |((p, _), _)| {
                    matches!(config.antenna, AntennaStrategy::MergeAll) || *p == port
                })
                .map(|(_, t)| t)
        };
        let report_count = selected().map(|t| t.stat.count()).sum();
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
                let tracks: Vec<Vec<dsp::Sample>> = selected()
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
    /// longer than both. Returns how many fusion bins and tag slots it
    /// dropped.
    pub fn evict(&mut self, watermark_s: f64, window_s: f64, config: &PipelineConfig) -> Evicted {
        let (bins_before, tags_before) = (self.fusion_bin_count(), self.tags.len());
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
        Evicted {
            bins: bins_before.saturating_sub(self.fusion_bin_count()),
            tags: tags_before.saturating_sub(self.tags.len()),
        }
    }

    /// A conservative expiry deadline: a watermark below which
    /// [`UserStreamState::evict`] with the same window and configuration
    /// is a no-op. It returns `Evicted { bins: 0, tags: 0 }` and changes
    /// neither [`UserStreamState::state_cells`] nor
    /// [`UserStreamState::snapshot`].
    ///
    /// The deadline is the earliest of: the oldest fusion bin's end plus
    /// `window_s`, the oldest channel reference plus `max_phase_gap_s`,
    /// the oldest buffered track sample plus `window_s`, and each tag's
    /// last sighting plus the eviction horizon. It is then moved earlier
    /// by 10⁻¹² of its magnitude, which dwarfs the rounding of the sums
    /// `evict` compares, so the deadline may come early but never late.
    /// `+∞` for an empty graph; `−∞` (always due) if a sum overflows.
    #[must_use]
    pub fn expiry_deadline_s(&self, window_s: f64, config: &PipelineConfig) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        let gap = config.max_phase_gap_s;
        let horizon = window_s.max(gap);
        let bins = (self.per_port.iter().map(|(_, acc)| acc))
            .chain(self.merged.as_deref())
            .filter_map(FusionAccumulator::oldest_bin_end_s)
            .map(|end| end + window_s);
        let tags = self.tags.iter().flat_map(|(_, tag)| {
            let (reference, sample) = match &tag.pre {
                Preprocessor::Increments(unwrapper) => (unwrapper.oldest_reference_s(), None),
                Preprocessor::Tracks(tracks) => {
                    (tracks.oldest_reference_s(), tracks.oldest_sample_s())
                }
            };
            [
                Some(tag.stat.last_seen_s() + horizon),
                reference.map(|t| t + gap),
                sample.map(|t| t + window_s),
            ]
            .into_iter()
            .flatten()
        });
        let earliest = bins.chain(tags).fold(f64::INFINITY, f64::min);
        if earliest.is_finite() {
            earliest - DEADLINE_SLACK * (1.0 + earliest.abs() + horizon)
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Number of live Δt fusion bins across all accumulators.
    fn fusion_bin_count(&self) -> usize {
        self.per_port
            .iter()
            .map(|(_, acc)| acc.len())
            .sum::<usize>()
            + self.merged.as_deref().map_or(0, FusionAccumulator::len)
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
    use prng::{Rng, Xoshiro256};
    use std::f64::consts::TAU;

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

    /// The antenna rule as a `BTreeMap` fold, the form [`best_port`] had
    /// before its one-pass rewrite: the oracle it must match.
    fn best_port_by_map<'a>(stats: impl IntoIterator<Item = (u8, &'a TagStat)>) -> Option<u8> {
        let mut ports: std::collections::BTreeMap<u8, (f64, f64, usize)> =
            std::collections::BTreeMap::new();
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
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
            .map(|(port, _)| port)
    }

    #[test]
    fn best_port_matches_the_map_rule() {
        let mut rng = Xoshiro256::seed_from_u64(19);
        for trial in 0..3_000 {
            // Port-grouped streams in (port, tag) order, empty in some
            // trials. Reads at shared instants with a shared RSSI make
            // equal rates and full ties common; a stream of 0 or 1 reads
            // has no rate.
            let mut streams: Vec<(u8, TagStat)> = Vec::new();
            let mut port = 0u8;
            for _ in 0..rng.gen_range(0..5) {
                port += if rng.gen_bool() { 1 } else { 2 };
                for tag in 0..rng.gen_range(1..4) {
                    let tag = u32::try_from(tag).unwrap_or(0);
                    let mut stat = TagStat::default();
                    for read in 0..rng.gen_range(0..4) {
                        let t = if rng.gen_bool() {
                            0.5 * read as f64
                        } else {
                            2.0 * rng.gen_f64()
                        };
                        let rssi = if rng.gen_bool() {
                            -55.0
                        } else {
                            -40.0 - 30.0 * rng.gen_f64()
                        };
                        stat.observe(&report(t, tag, port, 0, 0.0, rssi));
                    }
                    streams.push((port, stat));
                }
            }
            let stats = || streams.iter().map(|(port, stat)| (*port, stat));
            assert_eq!(
                best_port(stats()),
                best_port_by_map(stats()),
                "trial {trial}: {streams:?}"
            );
        }
    }

    #[test]
    fn paper_default_slots_fit_a_cache_line() {
        // The paper-default graph and an increment-mode tag slot stay
        // 64 bytes: the merge-all accumulator and the track state, which
        // that path never touches, are boxed.
        assert!(std::mem::size_of::<UserStreamState>() <= 64);
        assert!(std::mem::size_of::<((u8, u32), TagState)>() <= 64);
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

    /// Checks `state` against its expiry deadline: evictions at
    /// watermarks below it change nothing, and one a little past it drops
    /// something. Returns the number of watermarks probed.
    fn probe_deadline(
        state: &UserStreamState,
        window_s: f64,
        cfg: &PipelineConfig,
        rng: &mut Xoshiro256,
    ) -> usize {
        let deadline = state.expiry_deadline_s(window_s, cfg);
        assert!(deadline.is_finite(), "deadline {deadline}");
        let (cells, snapshot) = (state.state_cells(), state.snapshot(cfg));
        let below = [
            deadline.next_down(),
            deadline - 1e-3 * rng.gen_f64(),
            deadline - window_s * rng.gen_f64(),
        ];
        for watermark_s in below {
            let mut copy = state.clone();
            let evicted = copy.evict(watermark_s, window_s, cfg);
            let at = format!("watermark {watermark_s} below deadline {deadline}");
            assert_eq!(evicted, Evicted { bins: 0, tags: 0 }, "{at}");
            assert_eq!(copy.state_cells(), cells, "{at}: cells");
            assert_eq!(copy.snapshot(cfg), snapshot, "{at}: snapshot");
        }
        // The deadline is a real one, not "always due": past it by more
        // than its slack, something goes.
        let horizon = window_s.max(cfg.max_phase_gap_s);
        let past = deadline + 3.0 * DEADLINE_SLACK * (1.0 + deadline.abs() + horizon);
        let mut copy = state.clone();
        copy.evict(past, window_s, cfg);
        assert!(copy.state_cells() < cells, "nothing expired at {past}");
        below.len()
    }

    #[test]
    fn evictions_below_the_expiry_deadline_are_no_ops() {
        let layouts = [
            (PreprocessKind::IncrementBinning, AntennaStrategy::BestPort),
            (PreprocessKind::IncrementBinning, AntennaStrategy::MergeAll),
            (PreprocessKind::ChannelTrackMerge, AntennaStrategy::BestPort),
        ];
        let mut probes = 0;
        let mut seed = 0;
        for (preprocess, antenna) in layouts {
            let cfg = PipelineConfig {
                preprocess,
                antenna,
                ..PipelineConfig::paper_default()
            };
            for t0 in [0.0, 1.0e6, 1.0e9] {
                for window_s in [3.0, 10.0, 25.0] {
                    seed += 1;
                    let mut rng = Xoshiro256::seed_from_u64(seed);
                    let mut state = UserStreamState::new();
                    assert_eq!(state.expiry_deadline_s(window_s, &cfg), f64::INFINITY);
                    let (mut t, mut last_evict) = (t0, t0);
                    for i in 0..400 {
                        // Steady reads, now and then a gap past the phase
                        // gap or a read slightly behind the newest.
                        t += if rng.gen_f64() < 0.02 {
                            6.0
                        } else {
                            0.1 * rng.gen_f64()
                        };
                        let time_s = if rng.gen_f64() < 0.05 {
                            t - 0.3 * rng.gen_f64()
                        } else {
                            t
                        };
                        let tag = u32::try_from(rng.gen_range(0..3)).unwrap_or(0);
                        let port = if rng.gen_bool() { 1 } else { 2 };
                        let channel = u16::try_from(rng.gen_range(0..cfg.plan.len())).unwrap_or(0);
                        let phase = 1.0 + 0.2 * rng.gen_f64();
                        state.push(tag, &report(time_s, tag, port, channel, phase, -55.0), &cfg);
                        if t - last_evict >= 2.0 {
                            state.evict(t, window_s, &cfg);
                            last_evict = t;
                        }
                        if i % 20 == 19 {
                            probes += probe_deadline(&state, window_s, &cfg, &mut rng);
                        }
                    }
                }
            }
        }
        assert!(probes > 1_000, "{probes} watermarks probed");
    }

    #[test]
    fn channel_track_merge_is_deterministic_when_channels_tie() -> Result<(), String> {
        // Two readers with the same port number read one tag, on channels
        // 0 and 1 at the same instants, 20 ms apart: the tag's merged
        // track holds pairs of samples tied in time. Every fresh graph
        // must fuse them into the same bits.
        let cfg = PipelineConfig {
            preprocess: PreprocessKind::ChannelTrackMerge,
            ..PipelineConfig::paper_default()
        };
        let trace: Vec<(u32, TagReport)> = (0..600)
            .flat_map(|i| {
                let t = f64::from(i) * 0.02;
                let d = 0.005 * (2.0 * std::f64::consts::PI * 0.25 * t).sin();
                [0u16, 1].map(|channel| {
                    let lambda = cfg.plan.wavelength_m(usize::from(channel));
                    let phase = 4.0 * std::f64::consts::PI * d / lambda + f64::from(channel);
                    (0, report(t, 0, 1, channel, phase.rem_euclid(TAU), -55.0))
                })
            })
            .collect();
        let mut patterns = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let mut state = UserStreamState::new();
            push_all(&mut state, &trace, &cfg);
            let snap = state.snapshot(&cfg).ok_or("no snapshot")?;
            let bits: Vec<u64> = snap
                .displacement
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            patterns.insert(bits);
        }
        assert_eq!(patterns.len(), 1, "displacement bit patterns");
        Ok(())
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
