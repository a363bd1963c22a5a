//! Phase preprocessing: Eqs. (3)–(4) of the paper.
//!
//! Raw phase is useless across channel hops — wavelength and circuit offset
//! change per channel (Figure 4). So readings are first **grouped by
//! channel index**, then each consecutive same-channel pair yields a
//! displacement increment
//!
//! ```text
//! Δd = λ/(4π) · wrap(θ_{i+1} − θ_i)        (Eq. 3)
//! ```
//!
//! where the wrap into `(−π, π]` is valid because the tag moves far less
//! than λ/4 between readings. Increments telescope within a channel, so
//! integrating them (Eq. 4) reconstructs body displacement without hop
//! discontinuities (Figure 6).
//!
//! The per-channel state machines live in the incremental operators
//! [`PhaseUnwrapper`] (Eq. 3 increments) and [`TrackAccumulator`] (merged
//! per-channel level tracks). The batch functions
//! [`displacement_increments`] / [`displacement_track`] are thin drivers
//! over them, so the recorded-trace and real-time paths share one
//! implementation; the operators additionally support stale-state eviction
//! for bounded-memory streaming.

use dsp::phase::wrap_to_pi;
use dsp::resample::Sample;
use epcgen2::report::TagReport;
use rfchannel::channel_plan::ChannelPlan;

/// Maximum plausible torso speed for a monitored (seated/standing/lying)
/// subject, m/s. Same-channel displacement increments implying a faster
/// motion are treated as corrupted readings and the offending sample is
/// dropped (decoder glitches produce uniformly random phase values whose
/// increments can reach λ/4 ≈ 8 cm).
const MAX_PLAUSIBLE_SPEED_MPS: f64 = 0.06;

/// Floor on the outlier bound so high-rate readings (tiny dt) keep their
/// legitimate noise.
const OUTLIER_FLOOR_M: f64 = 0.01;

fn increment_is_plausible(dd: f64, dt: f64) -> bool {
    dd.abs() <= (MAX_PLAUSIBLE_SPEED_MPS * dt).max(OUTLIER_FLOOR_M)
}

/// Incremental Eq. (3) phase unwrapper for **one tag's** report stream:
/// per-channel last `(time, phase)` references that pair each reading with
/// the previous same-channel reading.
///
/// Push a [`TagReport`], get the displacement increment it completes (or
/// `None` — first visit on a channel, a gap beyond `max_gap_s`, an
/// out-of-order pair, or a corrupted reading).
///
/// Reports on channels outside the plan are ignored (the batch driver
/// [`displacement_increments`] asserts on them instead, preserving its
/// documented contract).
///
/// State is one `(f64, f64)` pair per *recently seen* channel, in a
/// channel-sorted table of at most `plan.len()` entries;
/// [`PhaseUnwrapper::evict_stale`] drops references older than the gap so a
/// silent tag's state cannot outlive its ability to produce increments.
#[derive(Debug, Clone, Default)]
pub struct PhaseUnwrapper {
    /// Last (time, phase) seen per channel, sorted by channel.
    last: Vec<(u16, (f64, f64))>,
}

impl PhaseUnwrapper {
    /// Creates an unwrapper with no channel references.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes one report; returns the Eq. (3) increment it completes, if
    /// any. Mirrors the batch semantics exactly:
    ///
    /// * first same-channel visit → reference stored, no output;
    /// * `0 < dt ≤ max_gap_s` and plausible → increment emitted, reference
    ///   updated;
    /// * implausible increment → dropped **without** updating the reference
    ///   (the next good reading pairs with the previous good one);
    /// * `dt ≤ 0` or `dt > max_gap_s` → no output, reference updated.
    pub fn push(
        &mut self,
        report: &TagReport,
        plan: &ChannelPlan,
        max_gap_s: f64,
    ) -> Option<Sample> {
        let channel = report.channel_index as usize;
        if channel >= plan.len() {
            return None;
        }
        let lambda = plan.wavelength_m(channel);
        let reading = (report.time_s, report.phase_rad);
        let at = match self
            .last
            .binary_search_by_key(&report.channel_index, |entry| entry.0)
        {
            Ok(at) => at,
            Err(at) => {
                // A new channel: store its first reference, keeping the
                // table sorted.
                self.last.insert(at, (report.channel_index, reading));
                return None;
            }
        };
        let Some((_, reference)) = self.last.get_mut(at) else {
            return None; // unreachable: the entry was just found
        };
        let (t_prev, theta_prev) = *reference;
        let mut emitted = None;
        let dt = report.time_s - t_prev;
        if dt > 0.0 && dt <= max_gap_s {
            let dtheta = wrap_to_pi(report.phase_rad - theta_prev);
            let dd = lambda / (4.0 * std::f64::consts::PI) * dtheta;
            if !increment_is_plausible(dd, dt) {
                return None;
            }
            emitted = Some(Sample::new(report.time_s, dd));
        }
        *reference = reading;
        emitted
    }

    /// Drops per-channel references older than `max_gap_s` before
    /// `watermark_s` (the largest time seen by the pipeline).
    ///
    /// For in-order streams this never changes future emissions: a reading
    /// at `t ≥ watermark` paired with a reference older than
    /// `watermark − max_gap_s` would exceed the gap and be discarded anyway.
    /// Only out-of-order readings that jump behind the watermark can observe
    /// the difference.
    pub fn evict_stale(&mut self, watermark_s: f64, max_gap_s: f64) {
        self.last
            .retain(|&(_, (t, _))| watermark_s - t <= max_gap_s);
    }

    /// Drops every channel reference, keeping the table's room.
    pub(crate) fn clear(&mut self) {
        self.last.clear();
    }

    /// Number of channels currently holding a reference.
    pub fn tracked_channels(&self) -> usize {
        self.last.len()
    }

    /// Time of the oldest channel reference: [`PhaseUnwrapper::evict_stale`]
    /// drops it once the watermark passes this time by more than the gap.
    /// `None` while no reference is held.
    #[must_use]
    pub fn oldest_reference_s(&self) -> Option<f64> {
        self.last.iter().map(|&(_, (t, _))| t).reduce(f64::min)
    }

    /// Whether no channel references are held.
    pub fn is_empty(&self) -> bool {
        self.last.is_empty()
    }
}

/// Computes displacement increments from one tag's time-ordered reports.
///
/// Each returned [`Sample`] carries the time of the later reading of the
/// pair and the displacement increment in metres. Pairs further apart than
/// `max_gap_s` are discarded (a subject may have walked between reads).
///
/// This is the batch driver over [`PhaseUnwrapper`].
///
/// # Panics
///
/// Panics if a report's channel index is outside `plan` or `max_gap_s` is
/// not positive.
///
/// # Examples
///
/// ```
/// use tagbreathe::preprocess::displacement_increments;
/// use rfchannel::channel_plan::ChannelPlan;
/// use epcgen2::report::TagReport;
/// use epcgen2::epc::Epc96;
///
/// let plan = ChannelPlan::us_10();
/// let lambda = plan.wavelength_m(0);
/// // Two same-channel readings; phase grows by 0.1 rad → the tag moved
/// // away by λ/(4π) × 0.1.
/// let mk = |t: f64, phase: f64| TagReport {
///     time_s: t, epc: Epc96::monitor(1, 0), antenna_port: 1,
///     channel_index: 0, phase_rad: phase, rssi_dbm: -50.0, doppler_hz: 0.0,
/// };
/// let inc = displacement_increments(&[mk(0.0, 1.0), mk(0.1, 1.1)], &plan, 5.0);
/// assert_eq!(inc.len(), 1);
/// assert!((inc[0].value - lambda / (4.0 * std::f64::consts::PI) * 0.1).abs() < 1e-9);
/// ```
pub fn displacement_increments(
    reports: &[TagReport],
    plan: &ChannelPlan,
    max_gap_s: f64,
) -> Vec<Sample> {
    assert!(max_gap_s > 0.0, "max gap must be positive");
    let mut unwrapper = PhaseUnwrapper::new();
    reports
        .iter()
        .filter_map(|r| {
            let channel = r.channel_index as usize;
            assert!(
                channel < plan.len(),
                "report on channel {channel} outside the {}-channel plan",
                plan.len()
            );
            unwrapper.push(r, plan, max_gap_s)
        })
        .collect()
}

/// Per-channel unwrapped-track state used by [`TrackAccumulator`].
#[derive(Debug, Clone)]
struct ChannelTrack {
    last_t: f64,
    last_theta: f64,
    cum: f64,
    segment: Vec<Sample>,
}

/// Incremental merged-track accumulator for **one tag's** report stream —
/// the streaming form of [`displacement_track`].
///
/// Each channel accumulates an unwrapped displacement track; contiguous
/// segments are closed (mean-centred, removing the unknown per-channel
/// constant of Eq. 1) when a gap larger than `max_gap_s` breaks them, and a
/// snapshot merges closed segments with the centred still-open segments in
/// time order.
///
/// [`TrackAccumulator::evict_before`] trims samples that fell out of the
/// analysis window and [`TrackAccumulator::evict_stale`] closes and drops
/// channel state for channels silent past the gap, bounding memory to the
/// window contents.
///
/// Channel state lives in the same channel-sorted table as
/// [`PhaseUnwrapper`]'s, so open segments are flushed in channel order:
/// samples of two channels at the same instant merge in the same order in
/// every instance, and so do the float sums fused from them.
#[derive(Debug, Clone, Default)]
pub struct TrackAccumulator {
    /// Per-channel track state, sorted by channel.
    channels: Vec<(u16, ChannelTrack)>,
    /// Mean-centred samples of already-closed segments.
    closed: Vec<Sample>,
}

/// Centres a segment and appends it to `out`; segments shorter than two
/// samples carry no motion information and are dropped.
fn flush_segment(segment: &mut Vec<Sample>, out: &mut Vec<Sample>) {
    if segment.len() >= 2 {
        let mean = segment.iter().map(|s| s.value).sum::<f64>() / segment.len() as f64;
        out.extend(segment.iter().map(|s| Sample::new(s.time, s.value - mean)));
    }
    segment.clear();
}

impl TrackAccumulator {
    /// Creates an accumulator with no channel state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes one report, extending (or breaking) its channel's track.
    /// Reports on channels outside the plan are ignored (the batch driver
    /// asserts instead).
    pub fn push(&mut self, report: &TagReport, plan: &ChannelPlan, max_gap_s: f64) {
        let channel = report.channel_index as usize;
        if channel >= plan.len() {
            return;
        }
        let lambda = plan.wavelength_m(channel);
        let at = match self
            .channels
            .binary_search_by_key(&report.channel_index, |entry| entry.0)
        {
            Ok(at) => at,
            Err(at) => {
                let track = ChannelTrack {
                    last_t: report.time_s,
                    last_theta: report.phase_rad,
                    cum: 0.0,
                    segment: vec![Sample::new(report.time_s, 0.0)],
                };
                self.channels.insert(at, (report.channel_index, track));
                return;
            }
        };
        let Some((_, st)) = self.channels.get_mut(at) else {
            return; // unreachable: the entry was just found
        };
        let dt = report.time_s - st.last_t;
        if dt > 0.0 && dt <= max_gap_s {
            let dtheta = wrap_to_pi(report.phase_rad - st.last_theta);
            let dd = lambda / (4.0 * std::f64::consts::PI) * dtheta;
            if !increment_is_plausible(dd, dt) {
                return; // corrupted reading: drop, keep reference
            }
            st.cum += dd;
            st.segment.push(Sample::new(report.time_s, st.cum));
        } else {
            flush_segment(&mut st.segment, &mut self.closed);
            st.cum = 0.0;
            st.segment.push(Sample::new(report.time_s, 0.0));
        }
        st.last_t = report.time_s;
        st.last_theta = report.phase_rad;
    }

    /// Snapshot of the merged track: closed segments plus the centred
    /// contents of every open segment, sorted by time. Matches what the
    /// batch [`displacement_track`] returns for the same pushed reports.
    #[must_use]
    pub fn merged(&self) -> Vec<Sample> {
        let mut out = self.closed.clone();
        for (_, st) in &self.channels {
            let mut open = st.segment.clone();
            flush_segment(&mut open, &mut out);
        }
        out.sort_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }

    /// Consumes the accumulator, flushing open segments — the tail of the
    /// batch driver.
    #[must_use]
    pub fn finish(mut self) -> Vec<Sample> {
        let mut out = std::mem::take(&mut self.closed);
        for (_, st) in &mut self.channels {
            flush_segment(&mut st.segment, &mut out);
        }
        out.sort_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }

    /// Drops samples (closed and in open segments) before `cutoff_s`.
    ///
    /// Note that trimming an open segment shifts the mean it will be
    /// centred with — the usual windowing effect, identical to running the
    /// batch function over only the windowed reports.
    pub fn evict_before(&mut self, cutoff_s: f64) {
        self.closed.retain(|s| s.time >= cutoff_s);
        for (_, st) in &mut self.channels {
            st.segment.retain(|s| s.time >= cutoff_s);
        }
    }

    /// Closes and drops state of channels silent for more than `max_gap_s`
    /// before `watermark_s`. The next reading on such a channel would have
    /// broken the segment anyway, so in-order emissions are unchanged.
    pub fn evict_stale(&mut self, watermark_s: f64, max_gap_s: f64) {
        let closed = &mut self.closed;
        self.channels.retain_mut(|(_, st)| {
            if watermark_s - st.last_t > max_gap_s {
                flush_segment(&mut st.segment, closed);
                false
            } else {
                true
            }
        });
    }

    /// Number of channels currently holding track state.
    pub fn tracked_channels(&self) -> usize {
        self.channels.len()
    }

    /// Last reading of the channel silent longest:
    /// [`TrackAccumulator::evict_stale`] closes that channel once the
    /// watermark passes this time by more than the gap. `None` while no
    /// channel holds state.
    #[must_use]
    pub fn oldest_reference_s(&self) -> Option<f64> {
        self.channels
            .iter()
            .map(|(_, st)| st.last_t)
            .reduce(f64::min)
    }

    /// Time of the oldest buffered sample, closed or open:
    /// [`TrackAccumulator::evict_before`] drops it once its cutoff passes
    /// this time. `None` while no sample is buffered.
    #[must_use]
    pub fn oldest_sample_s(&self) -> Option<f64> {
        let open = self.channels.iter().flat_map(|(_, st)| &st.segment);
        self.closed
            .iter()
            .chain(open)
            .map(|s| s.time)
            .reduce(f64::min)
    }

    /// Total buffered samples (closed plus open segments).
    pub fn sample_count(&self) -> usize {
        self.closed.len()
            + self
                .channels
                .iter()
                .map(|(_, st)| st.segment.len())
                .sum::<usize>()
    }

    /// Whether the accumulator holds no state at all.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty() && self.closed.is_empty()
    }
}

/// Computes a merged per-channel displacement **track** (levels, not
/// increments) from one tag's time-ordered reports.
///
/// Motivation: at low per-tag read rates (heavy contention, grazing
/// orientation) the same-channel revisit interval approaches the breathing
/// period, and Eq. (3) increments lump most of a breath into single
/// samples — the binned-increment trajectory is a sum of per-channel
/// sample-and-holds whose hold time smears fast breathing away. Keeping
/// each channel's *unwrapped displacement track* instead, centring each
/// contiguous segment (removing the unknown per-channel constant of
/// Eq. 1), and merging all channels' samples in time order yields a series
/// that carries the full breathing amplitude at every read instant, at the
/// tag's aggregate read rate.
///
/// Segments are broken at gaps larger than `max_gap_s`.
///
/// This is the batch driver over [`TrackAccumulator`].
///
/// # Panics
///
/// Same conditions as [`displacement_increments`].
pub fn displacement_track(
    reports: &[TagReport],
    plan: &ChannelPlan,
    max_gap_s: f64,
) -> Vec<Sample> {
    assert!(max_gap_s > 0.0, "max gap must be positive");
    let mut acc = TrackAccumulator::new();
    for r in reports {
        let channel = r.channel_index as usize;
        assert!(
            channel < plan.len(),
            "report on channel {channel} outside the {}-channel plan",
            plan.len()
        );
        acc.push(r, plan, max_gap_s);
    }
    acc.finish()
}

/// Integrates displacement increments into a cumulative displacement track
/// (Eq. 4), for single-tag analysis and for reproducing Figure 6.
///
/// Returns `(times, cumulative_displacement_m)`.
pub fn integrate_displacement(increments: &[Sample]) -> (Vec<f64>, Vec<f64>) {
    let mut times = Vec::with_capacity(increments.len());
    let mut cum = Vec::with_capacity(increments.len());
    let mut acc = 0.0;
    for s in increments {
        acc += s.value;
        times.push(s.time);
        cum.push(acc);
    }
    (times, cum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epcgen2::epc::Epc96;
    use std::f64::consts::PI;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn plan() -> ChannelPlan {
        ChannelPlan::us_10()
    }

    fn mk(t: f64, channel: u16, phase: f64) -> TagReport {
        TagReport {
            time_s: t,
            epc: Epc96::monitor(1, 0),
            antenna_port: 1,
            channel_index: channel,
            phase_rad: phase.rem_euclid(2.0 * PI),
            rssi_dbm: -50.0,
            doppler_hz: 0.0,
        }
    }

    /// Synthesises reports of a tag at distance `d(t)` using Eq. (1) with a
    /// per-channel offset, hopping every 0.2 s.
    fn synthesize(d: impl Fn(f64) -> f64, duration: f64, rate_hz: f64) -> Vec<TagReport> {
        let plan = plan();
        let n = (duration * rate_hz) as usize;
        (0..n)
            .map(|i| {
                let t = i as f64 / rate_hz;
                let ch = ((t / 0.2) as usize) % plan.len();
                let lambda = plan.wavelength_m(ch);
                let offset = ch as f64 * 1.234; // arbitrary per-channel c
                let theta = 4.0 * PI * d(t) / lambda + offset;
                mk(t, ch as u16, theta)
            })
            .collect()
    }

    // NOTE on scale: the paper groups readings *per channel* (Section
    // IV-A.3), so every channel independently telescopes the trajectory
    // over its own visits, and the summed increments carry a gain of
    // roughly the number of active channels. The gain is harmless — the
    // paper normalises the displacement (Figure 6) and zero-crossing rate
    // estimation is amplitude-invariant — so these tests assert *shape*
    // (and gain bounds), not absolute scale.

    #[test]
    fn recovers_linear_motion_with_per_channel_gain() {
        // Tag receding at 2 mm/s for 10 s over a 10-channel plan: total
        // integrated displacement ≈ gain × 2 cm with gain in (5, 10].
        let v = 0.002;
        let reports = synthesize(|t| 3.0 + v * t, 10.0, 64.0);
        let inc = displacement_increments(&reports, &plan(), 5.0);
        let total: f64 = inc.iter().map(|s| s.value).sum();
        let gain = total / (v * 10.0);
        assert!((5.0..=10.5).contains(&gain), "gain {gain}");
    }

    #[test]
    fn recovers_sinusoidal_breathing_without_hop_artifacts() {
        // 5 mm amplitude, 10 bpm breathing on top of 3 m standoff: the
        // reconstructed trajectory must correlate strongly with the true
        // motion despite the hopping (Figure 6 vs Figure 4).
        // Each channel holds its last phase for up to one hop period
        // (~2 s), so the per-channel-summed trajectory lags the motion by
        // up to a second; correlate against time-shifted truth.
        let d = |t: f64| 3.0 + 0.005 * (2.0 * PI * (10.0 / 60.0) * t).sin();
        let reports = synthesize(d, 30.0, 64.0);
        let inc = displacement_increments(&reports, &plan(), 5.0);
        let (times, cum) = integrate_displacement(&inc);
        let mut best = f64::MIN;
        for shift_ms in (0..2000).step_by(100) {
            let lag = shift_ms as f64 / 1000.0;
            let truth: Vec<f64> = times.iter().map(|&t| d(t - lag)).collect();
            best = best.max(dsp::stats::pearson(&cum, &truth).unwrap_or(f64::MIN));
        }
        assert!(best > 0.95, "best lagged correlation {best}");
    }

    #[test]
    fn phase_wrap_does_not_break_tracking() {
        // Move the tag enough that the raw phase wraps several times; the
        // wrapped differencing must keep tracking (monotone growth, gain
        // within the per-channel bound).
        let d = |t: f64| 3.0 + 0.02 * t; // 2 cm/s, wraps every ~4 s per channel
        let reports = synthesize(d, 20.0, 64.0);
        let inc = displacement_increments(&reports, &plan(), 5.0);
        let total: f64 = inc.iter().map(|s| s.value).sum();
        let gain = total / 0.4;
        assert!((5.0..=10.5).contains(&gain), "gain {gain}");
        let (_, cum) = integrate_displacement(&inc);
        // Trajectory must be (weakly) monotone: no wrap-induced jumps back.
        for pair in cum.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-6, "tracking jumped backwards");
        }
    }

    #[test]
    fn channel_offsets_cancel() {
        // A static tag must show (near-)zero displacement even though every
        // hop changes the raw phase discontinuously (Figure 4 vs Figure 6).
        let reports = synthesize(|_| 3.0, 10.0, 64.0);
        let inc = displacement_increments(&reports, &plan(), 5.0);
        let total: f64 = inc.iter().map(|s| s.value).sum();
        assert!(total.abs() < 1e-9, "static tag drifted {total}");
    }

    #[test]
    fn cross_channel_pairs_are_never_differenced() {
        // Alternate channels every reading: no same-channel consecutive
        // pair within the gap, except pairs 2 apart (same channel) — those
        // ARE valid and used. Verify no increment mixes wavelengths by
        // checking a static tag stays static despite huge offsets.
        let plan = plan();
        let reports: Vec<TagReport> = (0..100)
            .map(|i| {
                let t = i as f64 * 0.01;
                let ch = (i % 2) as u16;
                let lambda = plan.wavelength_m(ch as usize);
                let offset = if ch == 0 { 0.0 } else { 3.0 };
                mk(t, ch, 4.0 * PI * 2.0 / lambda + offset)
            })
            .collect();
        let inc = displacement_increments(&reports, &plan, 5.0);
        assert!(!inc.is_empty());
        for s in &inc {
            assert!(s.value.abs() < 1e-9, "cross-channel leak: {}", s.value);
        }
    }

    #[test]
    fn gaps_beyond_max_are_dropped() {
        let reports = vec![mk(0.0, 0, 1.0), mk(10.0, 0, 1.2)];
        assert!(displacement_increments(&reports, &plan(), 5.0).is_empty());
        assert_eq!(displacement_increments(&reports, &plan(), 15.0).len(), 1);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(displacement_increments(&[], &plan(), 5.0).is_empty());
        let (t, c) = integrate_displacement(&[]);
        assert!(t.is_empty() && c.is_empty());
    }

    #[test]
    fn integration_is_cumulative() {
        let inc = vec![
            Sample::new(0.0, 1.0),
            Sample::new(1.0, -0.5),
            Sample::new(2.0, 0.25),
        ];
        let (_, cum) = integrate_displacement(&inc);
        assert_eq!(cum, vec![1.0, 0.5, 0.75]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_plan_channel_panics() {
        displacement_increments(&[mk(0.0, 99, 1.0)], &plan(), 5.0);
    }

    #[test]
    fn track_recovers_full_amplitude_at_low_read_rates() {
        // Sparse 4 Hz sampling of 18 bpm breathing (period 3.3 s): the
        // per-channel revisit interval (~2.5 s) smears increments, but the
        // merged track must retain the breathing amplitude.
        let amp = 0.005;
        let freq = 18.0 / 60.0;
        let d = move |t: f64| 3.0 + amp * (2.0 * PI * freq * t).sin();
        let reports = synthesize(d, 60.0, 4.0);
        let track = displacement_track(&reports, &plan(), 5.0);
        assert!(track.len() > 100, "only {} samples", track.len());
        let values: Vec<f64> = track.iter().map(|s| s.value).collect();
        let rms = (values.iter().map(|x| x * x).sum::<f64>() / values.len() as f64).sqrt();
        // A full-amplitude sine has RMS amp/√2 ≈ 3.5 mm.
        assert!(rms > 0.5 * amp / 2f64.sqrt(), "track RMS {rms}");
    }

    #[test]
    fn track_of_static_tag_is_flat() {
        let reports = synthesize(|_| 3.0, 20.0, 32.0);
        let track = displacement_track(&reports, &plan(), 5.0);
        for s in &track {
            assert!(s.value.abs() < 1e-9, "static tag track moved {}", s.value);
        }
    }

    #[test]
    fn track_is_time_sorted_and_segment_centered() {
        let d = |t: f64| 3.0 + 0.005 * (2.0 * PI * 0.2 * t).sin();
        let reports = synthesize(d, 30.0, 64.0);
        let track = displacement_track(&reports, &plan(), 5.0);
        for pair in track.windows(2) {
            assert!(pair[1].time >= pair[0].time);
        }
        let mean = track.iter().map(|s| s.value).sum::<f64>() / track.len() as f64;
        assert!(mean.abs() < 1e-3, "track mean {mean}");
    }

    #[test]
    fn track_correlates_with_true_motion() -> TestResult {
        let d = |t: f64| 3.0 + 0.005 * (2.0 * PI * 0.25 * t).sin();
        let reports = synthesize(d, 40.0, 64.0);
        let track = displacement_track(&reports, &plan(), 5.0);
        let values: Vec<f64> = track.iter().map(|s| s.value).collect();
        let truth: Vec<f64> = track.iter().map(|s| d(s.time)).collect();
        let corr = dsp::stats::pearson(&values, &truth).ok_or("degenerate correlation")?;
        assert!(corr > 0.95, "correlation {corr}");
        Ok(())
    }

    #[test]
    fn track_empty_input() {
        assert!(displacement_track(&[], &plan(), 5.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_gap_panics() {
        displacement_increments(&[], &plan(), 0.0);
    }

    #[test]
    fn unwrapper_push_matches_batch_driver() {
        let d = |t: f64| 3.0 + 0.004 * (2.0 * PI * 0.2 * t).sin();
        let reports = synthesize(d, 20.0, 32.0);
        let batch = displacement_increments(&reports, &plan(), 5.0);
        let mut unwrapper = PhaseUnwrapper::new();
        let streamed: Vec<Sample> = reports
            .iter()
            .filter_map(|r| unwrapper.push(r, &plan(), 5.0))
            .collect();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn unwrapper_ignores_out_of_plan_channels() {
        let mut unwrapper = PhaseUnwrapper::new();
        assert!(unwrapper.push(&mk(0.0, 99, 1.0), &plan(), 5.0).is_none());
        assert!(unwrapper.is_empty(), "out-of-plan report stored state");
    }

    #[test]
    fn unwrapper_out_of_order_pair_emits_nothing_but_moves_reference() {
        let mut unwrapper = PhaseUnwrapper::new();
        assert!(unwrapper.push(&mk(1.0, 0, 1.0), &plan(), 5.0).is_none());
        // Jump backwards: dt < 0 → no increment, reference moves to t=0.5.
        assert!(unwrapper.push(&mk(0.5, 0, 1.2), &plan(), 5.0).is_none());
        // Now a reading at t=0.6 pairs with the t=0.5 reference.
        assert!(unwrapper.push(&mk(0.6, 0, 1.25), &plan(), 5.0).is_some());
    }

    #[test]
    fn unwrapper_evicts_stale_channels() {
        let mut unwrapper = PhaseUnwrapper::new();
        let _ = unwrapper.push(&mk(0.0, 0, 1.0), &plan(), 5.0);
        let _ = unwrapper.push(&mk(4.0, 1, 1.0), &plan(), 5.0);
        assert_eq!(unwrapper.tracked_channels(), 2);
        unwrapper.evict_stale(4.5, 5.0);
        assert_eq!(unwrapper.tracked_channels(), 2, "both within the gap");
        unwrapper.evict_stale(6.0, 5.0);
        assert_eq!(unwrapper.tracked_channels(), 1, "channel 0 is stale");
        unwrapper.evict_stale(20.0, 5.0);
        assert!(unwrapper.is_empty());
    }

    /// The unwrapper over a `HashMap` of channel references, the form
    /// [`PhaseUnwrapper`] had before its channel-sorted table: the oracle
    /// it must match.
    #[derive(Default)]
    struct MapUnwrapper {
        last: std::collections::HashMap<u16, (f64, f64)>,
    }

    impl MapUnwrapper {
        fn push(
            &mut self,
            report: &TagReport,
            plan: &ChannelPlan,
            max_gap_s: f64,
        ) -> Option<Sample> {
            let channel = report.channel_index as usize;
            if channel >= plan.len() {
                return None;
            }
            let lambda = plan.wavelength_m(channel);
            let mut emitted = None;
            if let Some(&(t_prev, theta_prev)) = self.last.get(&report.channel_index) {
                let dt = report.time_s - t_prev;
                if dt > 0.0 && dt <= max_gap_s {
                    let dtheta = wrap_to_pi(report.phase_rad - theta_prev);
                    let dd = lambda / (4.0 * PI) * dtheta;
                    if !increment_is_plausible(dd, dt) {
                        return None;
                    }
                    emitted = Some(Sample::new(report.time_s, dd));
                }
            }
            self.last
                .insert(report.channel_index, (report.time_s, report.phase_rad));
            emitted
        }

        fn evict_stale(&mut self, watermark_s: f64, max_gap_s: f64) {
            self.last
                .retain(|_, &mut (t, _)| watermark_s - t <= max_gap_s);
        }

        fn oldest_reference_s(&self) -> Option<f64> {
            self.last.values().map(|&(t, _)| t).reduce(f64::min)
        }
    }

    #[test]
    fn unwrapper_matches_the_map_form() {
        use prng::{Rng, Xoshiro256};
        let plan = plan();
        let max_gap_s = 5.0;
        let mut emitted = 0;
        for seed in 0..32 {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let (mut table, mut map) = (PhaseUnwrapper::new(), MapUnwrapper::default());
            let mut t = 100.0 * rng.gen_f64();
            for i in 0..1_500 {
                // Hops over the plan and one channel past it, now and then
                // a gap past `max_gap_s`, a read behind the newest (a
                // reversed pair) or a phase jump (an implausible
                // increment).
                t += if rng.gen_f64() < 0.01 {
                    max_gap_s + 2.0 * rng.gen_f64()
                } else {
                    0.05 * rng.gen_f64()
                };
                let time_s = if rng.gen_f64() < 0.05 {
                    t - 0.3 * rng.gen_f64()
                } else {
                    t
                };
                let channel = u16::try_from(rng.gen_range(0..plan.len() + 1)).unwrap_or(0);
                let phase = if rng.gen_f64() < 0.05 {
                    2.0 * PI * rng.gen_f64()
                } else {
                    1.0 + 0.02 * rng.gen_f64()
                };
                let r = mk(time_s, channel, phase);
                let got = table.push(&r, &plan, max_gap_s);
                assert_eq!(got, map.push(&r, &plan, max_gap_s), "seed {seed}, read {i}");
                emitted += usize::from(got.is_some());
                if rng.gen_f64() < 0.03 {
                    let watermark_s = t + 2.0 * max_gap_s * (rng.gen_f64() - 0.25);
                    table.evict_stale(watermark_s, max_gap_s);
                    map.evict_stale(watermark_s, max_gap_s);
                }
                assert_eq!(table.tracked_channels(), map.last.len(), "seed {seed}");
                assert_eq!(
                    table.oldest_reference_s(),
                    map.oldest_reference_s(),
                    "seed {seed}"
                );
            }
        }
        assert!(emitted > 10_000, "only {emitted} increments emitted");
    }

    #[test]
    fn track_accumulator_merged_matches_batch_driver() {
        let d = |t: f64| 3.0 + 0.004 * (2.0 * PI * 0.25 * t).sin();
        let reports = synthesize(d, 30.0, 8.0);
        let batch = displacement_track(&reports, &plan(), 5.0);
        let mut acc = TrackAccumulator::new();
        for r in &reports {
            acc.push(r, &plan(), 5.0);
        }
        let merged = acc.merged();
        assert_eq!(batch.len(), merged.len());
        for (a, b) in batch.iter().zip(&merged) {
            assert!((a.time - b.time).abs() < 1e-12);
            assert!((a.value - b.value).abs() < 1e-12);
        }
        // merged() is a non-destructive snapshot; finish() agrees.
        let finished = acc.finish();
        assert_eq!(merged.len(), finished.len());
    }

    #[test]
    fn track_accumulator_eviction_bounds_samples() {
        let d = |t: f64| 3.0 + 0.004 * (2.0 * PI * 0.25 * t).sin();
        let reports = synthesize(d, 60.0, 16.0);
        let mut acc = TrackAccumulator::new();
        let mut peak = 0;
        for r in &reports {
            acc.push(r, &plan(), 5.0);
            acc.evict_before(r.time_s - 10.0);
            peak = peak.max(acc.sample_count());
        }
        // 16 Hz × 10 s window → ~160 in-window samples; bounded well below
        // the 960 pushed.
        assert!(peak < 200, "peak buffered samples {peak}");
    }

    #[test]
    fn track_accumulator_evict_stale_closes_segments() {
        let mut acc = TrackAccumulator::new();
        for i in 0..4 {
            acc.push(&mk(f64::from(i) * 0.5, 0, 1.0), &plan(), 5.0);
        }
        assert_eq!(acc.tracked_channels(), 1);
        acc.evict_stale(20.0, 5.0);
        assert_eq!(acc.tracked_channels(), 0, "silent channel dropped");
        // The open segment was centred into the closed pool, not lost.
        assert_eq!(acc.merged().len(), 4);
    }
}
