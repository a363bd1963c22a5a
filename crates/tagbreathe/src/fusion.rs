//! Multi-tag low-level sensor fusion: Eqs. (6)–(7) of the paper.
//!
//! Rather than extracting a breathing signal per tag and fusing the
//! *results*, TagBreathe fuses the **raw displacement increments** of all of
//! a user's tags before extraction (Section IV-C): the n streams reinforce
//! each other (the three tags move in phase when the user breathes), which
//! both strengthens weak signals and does the expensive extraction once
//! instead of n times.
//!
//! Mechanically: increments from all tags falling into the same Δt-wide
//! time bin are summed (Eq. 6), and the binned stream is integrated into a
//! displacement trajectory sampled at Δt (Eq. 7).
//!
//! The incremental form is [`FusionAccumulator`]: push increments one at a
//! time, take a trajectory snapshot whenever needed, and evict bins that
//! fell out of the analysis window. For in-order streams a full-trace
//! snapshot reproduces [`fuse_displacement`] bin for bin (the grid anchors
//! at the first increment, which is then the batch `t_min`).

use crate::series::TimeSeries;
use dsp::resample::Sample;
use std::collections::VecDeque;

/// Fuses per-tag displacement-increment streams into one uniformly sampled
/// displacement trajectory.
///
/// * `streams` — one increment stream per tag (from
///   [`crate::preprocess::displacement_increments`]);
/// * `bin_s` — the fusion interval Δt;
/// * `span_s` — optional forced coverage `[start, start+span)`; by default
///   the data's extent is used.
///
/// Returns `None` when every stream is empty.
///
/// # Panics
///
/// Panics if `bin_s` is not positive.
pub fn fuse_displacement(
    streams: &[Vec<Sample>],
    bin_s: f64,
    span_s: Option<f64>,
) -> Option<TimeSeries> {
    assert!(bin_s > 0.0, "fusion bin width must be positive");
    let mut t_min = f64::INFINITY;
    let mut t_max = f64::NEG_INFINITY;
    for s in streams.iter().flatten() {
        t_min = t_min.min(s.time);
        t_max = t_max.max(s.time);
    }
    if !t_min.is_finite() {
        return None;
    }
    let span = span_s.unwrap_or(t_max - t_min);
    let n = ((span / bin_s).ceil() as usize).max(1);

    // Eq. (6): sum every tag's increments per bin.
    let mut bins = vec![0.0; n];
    for s in streams.iter().flatten() {
        let idx = ((s.time - t_min) / bin_s) as usize;
        if let Some(bin) = bins.get_mut(idx) {
            *bin += s.value;
        }
    }

    // Eq. (7): integrate the fused increments.
    let mut acc = 0.0;
    let trajectory: Vec<f64> = bins
        .iter()
        .map(|&b| {
            acc += b;
            acc
        })
        .collect();
    // `bin_s` was validated positive above and `t_min` finite, so this
    // only fails on pathological (non-finite) sample times — propagate as
    // "no fusable data" rather than panicking.
    TimeSeries::new(t_min, bin_s, trajectory).ok()
}

/// Fuses per-tag displacement **tracks** (levels from
/// [`crate::preprocess::displacement_track`]) into one uniformly sampled
/// trajectory.
///
/// Each tag's samples are averaged per Δt bin; empty bins are filled by
/// linear interpolation (edges held); the per-tag grids are then summed —
/// the level-domain analogue of Eq. (6).
///
/// Returns `None` when every stream is empty.
///
/// # Panics
///
/// Panics if `bin_s` is not positive.
pub fn fuse_level_tracks(streams: &[Vec<Sample>], bin_s: f64) -> Option<TimeSeries> {
    assert!(bin_s > 0.0, "fusion bin width must be positive");
    let mut t_min = f64::INFINITY;
    let mut t_max = f64::NEG_INFINITY;
    for s in streams.iter().flatten() {
        t_min = t_min.min(s.time);
        t_max = t_max.max(s.time);
    }
    if !t_min.is_finite() {
        return None;
    }
    let n = (((t_max - t_min) / bin_s).ceil() as usize).max(1);
    let mut fused = vec![0.0; n];
    for stream in streams {
        if stream.is_empty() {
            continue;
        }
        let mut sums = vec![0.0; n];
        let mut counts = vec![0usize; n];
        for s in stream {
            let idx = (((s.time - t_min) / bin_s) as usize).min(n - 1);
            if let (Some(sum), Some(count)) = (sums.get_mut(idx), counts.get_mut(idx)) {
                *sum += s.value;
                *count += 1;
            }
        }
        let filled = fill_gaps(&sums, &counts);
        for (f, v) in fused.iter_mut().zip(&filled) {
            *f += v;
        }
    }
    TimeSeries::new(t_min, bin_s, fused).ok()
}

/// Bin means with empty bins filled by linear interpolation between the
/// nearest occupied neighbours (edges held flat). All-empty input yields
/// zeros.
fn fill_gaps(sums: &[f64], counts: &[usize]) -> Vec<f64> {
    let n = sums.len();
    let mut out = vec![0.0; n];
    let occupied: Vec<usize> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, _)| i)
        .collect();
    let (Some(&first), Some(&last)) = (occupied.first(), occupied.last()) else {
        return out;
    };
    for (o, (&sum, &count)) in out.iter_mut().zip(sums.iter().zip(counts.iter())) {
        if count > 0 {
            *o = sum / count as f64;
        }
    }
    // Leading edge: hold the first occupied value.
    let first_val = out.get(first).copied().unwrap_or(0.0);
    for o in out.iter_mut().take(first) {
        *o = first_val;
    }
    // Trailing edge.
    let last_val = out.get(last).copied().unwrap_or(0.0);
    for o in out.iter_mut().skip(last + 1) {
        *o = last_val;
    }
    // Interior gaps: linear interpolation.
    for pair in occupied.windows(2) {
        let (Some(&a), Some(&b)) = (pair.first(), pair.last()) else {
            continue;
        };
        if b > a + 1 {
            let va = out.get(a).copied().unwrap_or(0.0);
            let vb = out.get(b).copied().unwrap_or(0.0);
            for (off, o) in out.iter_mut().take(b).skip(a + 1).enumerate() {
                let alpha = (off + 1) as f64 / (b - a) as f64;
                *o = va + alpha * (vb - va);
            }
        }
    }
    out
}

/// Incremental Δt-binned fusion accumulator — the streaming form of
/// [`fuse_displacement`] (Eqs. 6–7).
///
/// All of a user's selected tag streams push their increments into one
/// accumulator; each increment lands in the bin
/// `⌊(t − anchor) / Δt⌋` where `anchor` is the time of the first pushed
/// increment. Bins are a deque indexed relative to a moving `base`, so
/// out-of-order increments before the anchor extend the front rather than
/// panicking, and [`FusionAccumulator::evict_before`] pops aged bins from
/// the front in O(evicted).
///
/// A [`trajectory`](FusionAccumulator::trajectory) snapshot integrates the
/// retained bins (Eq. 7) in O(bins) — independent of how many reports were
/// pushed — and for in-order full traces equals the batch
/// [`fuse_displacement`] output exactly (same grid, same `ceil(span/Δt)`
/// bin count, same drop of a final increment landing exactly on the span
/// boundary).
#[derive(Debug, Clone)]
pub struct FusionAccumulator {
    bin_s: f64,
    /// Time of the first pushed increment; the bin grid is anchored here.
    anchor_s: Option<f64>,
    /// Absolute bin index of `bins[0]` relative to the anchor.
    base: i64,
    bins: VecDeque<f64>,
    /// Largest increment time seen (never evicted; bounds the snapshot).
    t_max: f64,
}

impl FusionAccumulator {
    /// Creates an accumulator with fusion interval `bin_s` (Δt).
    ///
    /// # Panics
    ///
    /// Panics if `bin_s` is not positive.
    #[must_use]
    pub fn new(bin_s: f64) -> Self {
        assert!(bin_s > 0.0, "fusion bin width must be positive");
        FusionAccumulator {
            bin_s,
            anchor_s: None,
            base: 0,
            bins: VecDeque::new(),
            t_max: f64::NEG_INFINITY,
        }
    }

    /// Adds one displacement increment to its Δt bin (Eq. 6).
    pub fn push(&mut self, sample: Sample) {
        let anchor = match self.anchor_s {
            Some(a) => a,
            None => {
                self.anchor_s = Some(sample.time);
                sample.time
            }
        };
        let idx = ((sample.time - anchor) / self.bin_s).floor() as i64;
        if self.bins.is_empty() {
            self.base = idx;
            self.bins.push_back(0.0);
        }
        while idx < self.base {
            self.bins.push_front(0.0);
            self.base -= 1;
        }
        while idx - self.base >= self.bins.len() as i64 {
            self.bins.push_back(0.0);
        }
        // Bounded by the loops above; u64→usize cannot truncate here.
        let offset = usize::try_from(idx - self.base).unwrap_or(0);
        if let Some(bin) = self.bins.get_mut(offset) {
            *bin += sample.value;
        }
        if sample.time > self.t_max {
            self.t_max = sample.time;
        }
    }

    /// Drops bins lying entirely before `cutoff_s`, advancing the window.
    pub fn evict_before(&mut self, cutoff_s: f64) {
        while self.oldest_bin_end_s().is_some_and(|end| end <= cutoff_s) {
            self.bins.pop_front();
            self.base += 1;
        }
    }

    /// End of the oldest retained bin: [`FusionAccumulator::evict_before`]
    /// drops that bin once its cutoff reaches this time. `None` while no
    /// bin is retained.
    #[must_use]
    pub fn oldest_bin_end_s(&self) -> Option<f64> {
        let anchor = self.anchor_s?;
        if self.bins.is_empty() {
            return None;
        }
        Some(anchor + (self.base + 1) as f64 * self.bin_s)
    }

    /// Integrates the retained bins into a displacement trajectory
    /// (Eq. 7). Returns `None` until an increment has been pushed or when
    /// every bin has been evicted.
    #[must_use]
    pub fn trajectory(&self) -> Option<TimeSeries> {
        let anchor = self.anchor_s?;
        if self.bins.is_empty() {
            return None;
        }
        let start = anchor + self.base as f64 * self.bin_s;
        // Mirror the batch bin count: ceil(span/Δt) with a 1 floor, so an
        // increment landing exactly on the span boundary is dropped just
        // like fuse_displacement drops idx == n.
        let span = self.t_max - start;
        if span < 0.0 {
            return None;
        }
        let n = (((span / self.bin_s).ceil() as usize).max(1)).min(self.bins.len());
        let mut acc = 0.0;
        let trajectory: Vec<f64> = self
            .bins
            .iter()
            .take(n)
            .map(|&b| {
                acc += b;
                acc
            })
            .collect();
        TimeSeries::new(start, self.bin_s, trajectory).ok()
    }

    /// Number of bins currently retained.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether no bins are retained.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// The fusion interval Δt.
    pub fn bin_s(&self) -> f64 {
        self.bin_s
    }
}

/// Decision-level fusion helper for the ablation study: the *alternative*
/// the paper rejects — estimate a rate per tag, then combine the per-tag
/// estimates (median). Returns `None` when no estimates are available.
pub fn fuse_rates_median(rates_bpm: &[Option<f64>]) -> Option<f64> {
    let mut xs: Vec<f64> = rates_bpm.iter().flatten().copied().collect();
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = xs.len();
    let upper = xs.get(n / 2).copied()?;
    Some(if n % 2 == 1 {
        upper
    } else {
        0.5 * (xs.get(n / 2 - 1).copied()? + upper)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    /// `Option → Result` bridge so tests can use `?` instead of `unwrap`.
    fn fused(ts: Option<TimeSeries>) -> Result<TimeSeries, Box<dyn std::error::Error>> {
        ts.ok_or_else(|| "expected a fused series".into())
    }

    #[test]
    fn single_stream_integration() -> TestResult {
        let stream = vec![
            Sample::new(0.0, 1.0),
            Sample::new(0.3, 1.0),
            Sample::new(0.7, -1.0),
        ];
        let ts = fused(fuse_displacement(&[stream], 0.5, None))?;
        // Bins: [0,0.5): 2.0, [0.5,1.0): wait, span = 0.7 → 2 bins.
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.values()[0], 2.0);
        assert_eq!(ts.values()[1], 1.0); // 2.0 + (−1.0)
        assert_eq!(ts.dt_s(), 0.5);
        assert_eq!(ts.start_s(), 0.0);
        Ok(())
    }

    #[test]
    fn in_phase_streams_reinforce() -> TestResult {
        // Three tags observing the same motion: the fused trajectory is 3×
        // a single tag's.
        let one: Vec<Sample> = (0..20).map(|i| Sample::new(i as f64 * 0.1, 0.5)).collect();
        let triple = fused(fuse_displacement(
            &[one.clone(), one.clone(), one.clone()],
            0.25,
            None,
        ))?;
        let single = fused(fuse_displacement(&[one], 0.25, None))?;
        for (f, s) in triple.values().iter().zip(single.values()) {
            assert!((f - 3.0 * s).abs() < 1e-12);
        }
        Ok(())
    }

    #[test]
    fn uncorrelated_noise_partially_cancels() -> TestResult {
        // Antiphase noise on two tags cancels in the fused stream.
        let a: Vec<Sample> = (0..100)
            .map(|i| Sample::new(i as f64 * 0.05, 1.0))
            .collect();
        let b: Vec<Sample> = (0..100)
            .map(|i| Sample::new(i as f64 * 0.05, -1.0))
            .collect();
        let cancelled = fused(fuse_displacement(&[a, b], 0.2, None))?;
        for v in cancelled.values() {
            assert!(v.abs() < 1e-12);
        }
        Ok(())
    }

    #[test]
    fn all_empty_returns_none() {
        assert!(fuse_displacement(&[vec![], vec![]], 0.1, None).is_none());
        assert!(fuse_displacement(&[], 0.1, None).is_none());
    }

    #[test]
    fn forced_span_pads_with_flat_trajectory() -> TestResult {
        let stream = vec![Sample::new(0.0, 1.0)];
        let ts = fused(fuse_displacement(&[stream], 0.5, Some(2.0)))?;
        assert_eq!(ts.len(), 4);
        // After the single increment, the trajectory holds its value.
        assert_eq!(ts.values(), &[1.0, 1.0, 1.0, 1.0]);
        Ok(())
    }

    #[test]
    fn misaligned_streams_share_bins() -> TestResult {
        let a = vec![Sample::new(0.02, 1.0)];
        let b = vec![Sample::new(0.08, 2.0)];
        let ts = fused(fuse_displacement(&[a, b], 0.1, None))?;
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.values()[0], 3.0);
        Ok(())
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bin_panics() {
        fuse_displacement(&[], 0.0, None);
    }

    #[test]
    fn level_fusion_bins_and_sums() -> TestResult {
        let a = vec![
            Sample::new(0.0, 1.0),
            Sample::new(0.1, 3.0),
            Sample::new(0.6, 5.0),
        ];
        let b = vec![Sample::new(0.05, 10.0), Sample::new(0.55, 20.0)];
        let ts = fused(fuse_level_tracks(&[a, b], 0.5))?;
        assert_eq!(ts.len(), 2);
        // Stream a: bin0 mean (1+3)/2 = 2, bin1 = 5. Stream b: bin0 = 10,
        // bin1 = 20. Sum: [12, 25].
        assert_eq!(ts.values(), &[12.0, 25.0]);
        Ok(())
    }

    #[test]
    fn level_fusion_fills_interior_gaps_linearly() -> TestResult {
        let a = vec![Sample::new(0.0, 0.0), Sample::new(1.0, 4.0)];
        let ts = fused(fuse_level_tracks(&[a], 0.25))?;
        // Occupied bins 0 and 3 (sample at 1.0 clamps into the last bin);
        // bins 1 and 2 interpolate.
        assert_eq!(ts.len(), 4);
        let v = ts.values();
        assert_eq!(v[0], 0.0);
        assert!(v[1] > 0.0 && v[1] < v[2]);
        assert_eq!(v[3], 4.0);
        Ok(())
    }

    #[test]
    fn level_fusion_holds_edges() -> TestResult {
        let a = vec![
            Sample::new(1.0, 7.0),
            Sample::new(1.1, 7.0),
            Sample::new(2.9, 7.0),
        ];
        let ts = fused(fuse_level_tracks(&[a], 0.5))?;
        assert!(ts.values().iter().all(|&v| (v - 7.0).abs() < 1e-12));
        Ok(())
    }

    #[test]
    fn level_fusion_empty_inputs() -> TestResult {
        assert!(fuse_level_tracks(&[], 0.5).is_none());
        assert!(fuse_level_tracks(&[vec![], vec![]], 0.5).is_none());
        // One empty stream alongside one occupied stream is fine.
        let a = vec![Sample::new(0.0, 1.0), Sample::new(0.9, 1.0)];
        let ts = fused(fuse_level_tracks(&[a, vec![]], 0.5))?;
        assert_eq!(ts.values(), &[1.0, 1.0]);
        Ok(())
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn level_fusion_zero_bin_panics() {
        fuse_level_tracks(&[], 0.0);
    }

    #[test]
    fn fill_gaps_all_empty_is_zeros() {
        assert_eq!(fill_gaps(&[0.0; 4], &[0; 4]), vec![0.0; 4]);
    }

    #[test]
    fn accumulator_matches_batch_on_in_order_streams() -> TestResult {
        // Interleave three tags' increments in time order (as the stream
        // demux delivers them) and compare with the batch path.
        let streams: Vec<Vec<Sample>> = (0..3)
            .map(|tag| {
                (0..200)
                    .map(|i| {
                        let t = 0.37 + i as f64 * 0.11;
                        Sample::new(t, ((i + tag) as f64 * 0.7).sin() * 0.001)
                    })
                    .collect()
            })
            .collect();
        let batch = fused(fuse_displacement(&streams, 1.0 / 16.0, None))?;

        let mut interleaved: Vec<Sample> = streams.iter().flatten().copied().collect();
        interleaved.sort_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut acc = FusionAccumulator::new(1.0 / 16.0);
        for s in interleaved {
            acc.push(s);
        }
        let streamed = fused(acc.trajectory())?;

        assert_eq!(batch.len(), streamed.len());
        assert!((batch.start_s() - streamed.start_s()).abs() < 1e-12);
        for (a, b) in batch.values().iter().zip(streamed.values()) {
            assert!((a - b).abs() < 1e-12, "bin mismatch {a} vs {b}");
        }
        Ok(())
    }

    #[test]
    fn accumulator_single_sample() -> TestResult {
        let mut acc = FusionAccumulator::new(0.5);
        assert!(acc.trajectory().is_none());
        acc.push(Sample::new(3.0, 1.0));
        let ts = fused(acc.trajectory())?;
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.values()[0], 1.0);
        assert_eq!(ts.start_s(), 3.0);
        Ok(())
    }

    #[test]
    fn accumulator_accepts_out_of_order_before_anchor() -> TestResult {
        let mut acc = FusionAccumulator::new(0.5);
        acc.push(Sample::new(2.0, 1.0));
        // Late increment from before the anchor extends the grid backwards.
        acc.push(Sample::new(0.9, 2.0));
        // And a later one keeps t_max off the grid boundary so no bin is
        // span-clipped.
        acc.push(Sample::new(2.2, 4.0));
        let ts = fused(acc.trajectory())?;
        assert!(ts.start_s() < 1.0);
        let total: f64 = ts.values().last().copied().unwrap_or(0.0);
        assert_eq!(total, 7.0, "all increments integrated");
        Ok(())
    }

    #[test]
    fn accumulator_eviction_drops_old_bins_only() -> TestResult {
        let mut acc = FusionAccumulator::new(0.5);
        for i in 0..40 {
            acc.push(Sample::new(i as f64 * 0.5, 1.0));
        }
        let before = acc.len();
        acc.evict_before(10.0);
        assert!(acc.len() < before, "eviction freed bins");
        assert!(acc.len() <= 21, "retained {}", acc.len());
        let ts = fused(acc.trajectory())?;
        assert!(ts.start_s() >= 9.5);
        // The retained trajectory still integrates the retained increments.
        assert!(ts.values().iter().all(|v| v.is_finite()));
        Ok(())
    }

    #[test]
    fn accumulator_eviction_of_everything_yields_none() {
        let mut acc = FusionAccumulator::new(0.5);
        acc.push(Sample::new(0.0, 1.0));
        acc.evict_before(100.0);
        assert!(acc.is_empty());
        assert!(acc.trajectory().is_none());
        // The grid survives: a new push re-seeds cleanly.
        acc.push(Sample::new(101.0, 2.0));
        assert_eq!(acc.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn accumulator_zero_bin_panics() {
        let _ = FusionAccumulator::new(0.0);
    }

    #[test]
    fn median_rate_fusion() {
        assert_eq!(
            fuse_rates_median(&[Some(10.0), Some(12.0), Some(11.0)]),
            Some(11.0)
        );
        assert_eq!(
            fuse_rates_median(&[Some(10.0), None, Some(12.0)]),
            Some(11.0)
        );
        assert_eq!(fuse_rates_median(&[None, None]), None);
        assert_eq!(fuse_rates_median(&[]), None);
        // An outlier tag does not drag the median far.
        assert_eq!(
            fuse_rates_median(&[Some(10.0), Some(10.5), Some(40.0)]),
            Some(10.5)
        );
    }
}
