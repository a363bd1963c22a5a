//! Deterministic multi-reader merge.
//!
//! TCP gives no cross-connection ordering: two readers' batches can
//! interleave arbitrarily at the server. To keep served snapshots
//! **bit-identical** to an inline [`tagbreathe::FleetEngine`] run, the
//! engine thread buffers each session's reports in a per-reader FIFO
//! *lane* and only releases a report once every open lane's watermark has
//! passed its timestamp. Released reports are ordered by
//! `(time_s, reader_id)` — a total order that depends only on lane
//! *contents*, never on arrival interleave.
//!
//! A lane's watermark is the maximum of its last report timestamp and the
//! reader clock carried by its Batch/Heartbeat frames; Goodbye (or a
//! dropped connection) closes the lane, which releases everything it
//! still holds. An idle reader therefore stalls the merge until its next
//! heartbeat — by design: releasing early would let a late batch travel
//! backwards in stream time. A reader that reconnects before its closed
//! lane has drained reopens that lane, queued reports and watermark
//! included, so it holds back the merge again.
//!
//! Release pops whole runs, and scans the lanes once per run rather than
//! once per report: the lane with the smallest head gives up reports for
//! as long as its head stays within the safe watermark and below every
//! other lane's head (ties go to the lower reader id). The order is the
//! same as a report-by-report k-way merge; a test-only copy of that merge
//! is the oracle.

use std::cmp::Ordering;
use std::collections::VecDeque;
use tagbreathe::TagReport;

/// One reader's FIFO of not-yet-released reports.
#[derive(Debug)]
struct Lane {
    queue: VecDeque<TagReport>,
    watermark_s: f64,
    closed: bool,
}

impl Lane {
    fn new() -> Self {
        Lane {
            queue: VecDeque::new(),
            watermark_s: f64::NEG_INFINITY,
            closed: false,
        }
    }

    /// Raises the watermark to `time_s` if that is finite and ahead.
    fn advance(&mut self, time_s: f64) {
        if time_s.is_finite() && time_s > self.watermark_s {
            self.watermark_s = time_s;
        }
    }
}

/// The release order: time (IEEE total order, so `-0.0` before `+0.0`),
/// then reader id.
fn release_order(a: (f64, u32), b: (f64, u32)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Watermark-driven k-way merge over per-reader lanes.
#[derive(Debug, Default)]
pub struct LaneMerger {
    /// Lanes by ascending reader id: a handful, one per connected reader.
    lanes: Vec<(u32, Lane)>,
}

impl LaneMerger {
    /// Creates an empty merger.
    #[must_use]
    pub fn new() -> Self {
        LaneMerger::default()
    }

    /// Opens a lane for `reader` (idempotent). Reopening a closed lane
    /// that still holds reports keeps them and its watermark, and makes
    /// the lane hold back the merge again.
    pub fn open(&mut self, reader: u32) {
        self.lane(reader).closed = false;
    }

    /// `reader`'s lane, created open and empty if it does not exist.
    fn lane(&mut self, reader: u32) -> &mut Lane {
        let at = match self.lanes.binary_search_by_key(&reader, |(r, _)| *r) {
            Ok(at) => at,
            Err(at) => {
                self.lanes.insert(at, (reader, Lane::new()));
                at
            }
        };
        &mut self.lanes[at].1
    }

    /// Appends a batch to `reader`'s lane and advances its watermark to
    /// `max(old, reader_clock_s, last report time)`. Reports whose
    /// timestamp is not finite are dropped (NaN cannot be ordered, and
    /// `±inf` would pin the lane's watermark so that it no longer holds
    /// back the merge); the count of dropped reports is returned. A
    /// non-finite reader clock is ignored.
    pub fn push(&mut self, reader: u32, mut reports: Vec<TagReport>, reader_clock_s: f64) -> usize {
        let lane = self.lane(reader);
        let before = reports.len();
        reports.retain(|r| {
            lane.advance(r.time_s);
            r.time_s.is_finite()
        });
        lane.advance(reader_clock_s);
        let dropped = before - reports.len();
        lane.queue.extend(reports);
        dropped
    }

    /// Advances `reader`'s watermark from a heartbeat; a non-finite clock
    /// is ignored.
    pub fn heartbeat(&mut self, reader: u32, reader_clock_s: f64) {
        self.lane(reader).advance(reader_clock_s);
    }

    /// Closes `reader`'s lane: its watermark stops constraining the merge
    /// and its remaining reports release as other lanes allow.
    pub fn close(&mut self, reader: u32) {
        if let Some((_, lane)) = self.lanes.iter_mut().find(|(r, _)| *r == reader) {
            lane.closed = true;
        }
    }

    /// The merge frontier: the smallest watermark over open lanes
    /// (`+∞` when every lane is closed or none exist).
    #[must_use]
    pub fn safe_watermark(&self) -> f64 {
        self.lanes
            .iter()
            .filter(|(_, l)| !l.closed)
            .map(|(_, l)| l.watermark_s)
            .fold(f64::INFINITY, f64::min)
    }

    /// Per-reader watermarks of the **open** lanes, in reader order. The
    /// engine turns these into per-reader lag gauges: a lane's lag is the
    /// furthest-ahead open watermark minus its own.
    #[must_use]
    pub fn lane_watermarks(&self) -> Vec<(u32, f64)> {
        self.lanes
            .iter()
            .filter(|(_, l)| !l.closed)
            .map(|(reader, l)| (*reader, l.watermark_s))
            .collect()
    }

    /// Reports buffered across all lanes.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.lanes.iter().map(|(_, l)| l.queue.len()).sum()
    }

    /// Releases every report at or below the safe watermark, smallest
    /// `(time_s, reader_id)` first, one run per lane at a time. Fully
    /// drained closed lanes are removed.
    pub fn release(&mut self) -> Vec<TagReport> {
        let safe = self.safe_watermark();
        let mut out = Vec::new();
        loop {
            // The smallest releasable head, and the smallest head of any
            // other lane: the run ends where the first lane's reports stop
            // sorting before it.
            let mut best: Option<(f64, u32, usize)> = None;
            let mut bound: Option<(f64, u32)> = None;
            for (at, (reader, lane)) in self.lanes.iter().enumerate() {
                let Some(head) = lane.queue.front() else {
                    continue;
                };
                let key = (head.time_s, *reader);
                if head.time_s <= safe
                    && best.is_none_or(|(t, r, _)| release_order(key, (t, r)).is_lt())
                {
                    // The old best sorts before every other head seen so far.
                    bound = best.map(|(t, r, _)| (t, r)).or(bound);
                    best = Some((head.time_s, *reader, at));
                } else if bound.is_none_or(|b| release_order(key, b).is_lt()) {
                    bound = Some(key);
                }
            }
            let Some((_, reader, at)) = best else {
                break;
            };
            if out.capacity() == 0 {
                // Sized once, and only when something releases.
                out.reserve_exact(self.pending());
            }
            let Some((_, lane)) = self.lanes.get_mut(at) else {
                break;
            };
            while let Some(head) = lane.queue.front() {
                let in_run = head.time_s <= safe
                    && bound.is_none_or(|b| release_order((head.time_s, reader), b).is_lt());
                if !in_run {
                    break;
                }
                if let Some(report) = lane.queue.pop_front() {
                    out.push(report);
                }
            }
        }
        self.lanes
            .retain(|(_, l)| !(l.closed && l.queue.is_empty()));
        out
    }

    /// Closes every lane and releases everything still buffered.
    pub fn drain_all(&mut self) -> Vec<TagReport> {
        for (_, lane) in &mut self.lanes {
            lane.closed = true;
        }
        self.release()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epcgen2::Epc96;
    use std::collections::BTreeMap;

    fn report(reader_hint: u64, t: f64) -> TagReport {
        TagReport {
            time_s: t,
            epc: Epc96::monitor(reader_hint, 1),
            antenna_port: 1,
            channel_index: 0,
            phase_rad: 0.0,
            rssi_dbm: -50.0,
            doppler_hz: 0.0,
        }
    }

    fn times(reports: &[TagReport]) -> Vec<f64> {
        reports.iter().map(|r| r.time_s).collect()
    }

    #[test]
    fn holds_until_all_lanes_pass() {
        let mut m = LaneMerger::new();
        m.open(1);
        m.open(2);
        m.push(1, vec![report(1, 0.5), report(1, 1.5)], 1.5);
        // Lane 2 is open but silent: nothing may release yet.
        assert!(m.release().is_empty());
        m.heartbeat(2, 1.0);
        assert_eq!(times(&m.release()), vec![0.5]);
        m.heartbeat(2, 9.0);
        assert_eq!(times(&m.release()), vec![1.5]);
    }

    #[test]
    fn order_is_independent_of_arrival_interleave() {
        let batches_a = vec![report(1, 0.1), report(1, 0.3)];
        let batches_b = vec![report(2, 0.2), report(2, 0.4)];

        let mut first = LaneMerger::new();
        first.push(1, batches_a.clone(), 1.0);
        first.push(2, batches_b.clone(), 1.0);
        let out_first = first.drain_all();

        let mut second = LaneMerger::new();
        second.push(2, batches_b, 1.0);
        second.push(1, batches_a, 1.0);
        let out_second = second.drain_all();

        assert_eq!(times(&out_first), vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(times(&out_first), times(&out_second));
    }

    #[test]
    fn ties_break_by_reader_id() {
        let mut m = LaneMerger::new();
        m.push(2, vec![report(2, 1.0)], 1.0);
        m.push(1, vec![report(1, 1.0)], 1.0);
        let out = m.drain_all();
        assert_eq!(out.len(), 2);
        assert_eq!(out.first().map(|r| r.epc.user_id()), Some(1));
        assert_eq!(out.last().map(|r| r.epc.user_id()), Some(2));
    }

    #[test]
    fn close_releases_buffered_reports() {
        let mut m = LaneMerger::new();
        m.open(1);
        m.open(2);
        m.push(1, vec![report(1, 5.0)], 5.0);
        assert!(m.release().is_empty());
        m.close(2);
        assert_eq!(times(&m.release()), vec![5.0]);
        assert_eq!(m.pending(), 0);
    }

    #[test]
    fn infinite_times_and_clocks_leave_the_watermark_finite() {
        let mut m = LaneMerger::new();
        let mut out = Vec::new();
        let dropped = m.push(1, vec![report(1, 1.0), report(1, f64::INFINITY)], 1.0);
        assert_eq!(dropped, 1);
        m.heartbeat(1, f64::INFINITY);
        m.push(2, vec![report(2, 5.0)], f64::INFINITY);
        out.extend(m.release());
        assert_eq!(m.lane_watermarks(), vec![(1, 1.0), (2, 5.0)]);
        m.push(1, vec![report(1, 3.0)], 3.0);
        out.extend(m.release());
        assert_eq!(m.lane_watermarks(), vec![(1, 3.0), (2, 5.0)]);
        out.extend(m.drain_all());
        let order: Vec<(f64, u64)> = out.iter().map(|r| (r.time_s, r.epc.user_id())).collect();
        assert!(
            order.windows(2).all(|w| w[0] <= w[1]),
            "release order {order:?}"
        );
        assert_eq!(times(&out), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn nan_timestamps_are_dropped() {
        let mut m = LaneMerger::new();
        let dropped = m.push(1, vec![report(1, f64::NAN), report(1, 1.0)], 1.0);
        assert_eq!(dropped, 1);
        assert_eq!(times(&m.drain_all()), vec![1.0]);
    }

    #[test]
    fn a_reopened_lane_holds_back_the_merge_again() {
        let mut m = LaneMerger::new();
        m.open(1);
        m.open(2);
        m.push(1, vec![report(1, 5.0)], 5.0);
        m.close(1);
        m.open(1);
        m.push(2, vec![report(2, 10.0), report(2, 20.0)], 20.0);
        assert_eq!(times(&m.release()), vec![5.0]);
        assert_eq!(m.lane_watermarks(), vec![(1, 5.0), (2, 20.0)]);
        m.push(1, vec![report(1, 15.0)], 15.0);
        assert_eq!(times(&m.release()), vec![10.0, 15.0]);
    }

    /// The report-at-a-time merge that run release replaced: one lane
    /// scan and one map lookup per released report. Same lane rules,
    /// reopening included.
    #[derive(Default)]
    struct Oracle {
        lanes: BTreeMap<u32, Lane>,
    }

    impl Oracle {
        fn open(&mut self, reader: u32) {
            self.lanes.entry(reader).or_insert_with(Lane::new).closed = false;
        }

        fn push(&mut self, reader: u32, reports: Vec<TagReport>, reader_clock_s: f64) -> usize {
            let lane = self.lanes.entry(reader).or_insert_with(Lane::new);
            let mut dropped = 0;
            for r in reports {
                if !r.time_s.is_finite() {
                    dropped += 1;
                    continue;
                }
                lane.advance(r.time_s);
                lane.queue.push_back(r);
            }
            lane.advance(reader_clock_s);
            dropped
        }

        fn heartbeat(&mut self, reader: u32, reader_clock_s: f64) {
            let lane = self.lanes.entry(reader).or_insert_with(Lane::new);
            lane.advance(reader_clock_s);
        }

        fn close(&mut self, reader: u32) {
            if let Some(lane) = self.lanes.get_mut(&reader) {
                lane.closed = true;
            }
        }

        fn release(&mut self) -> Vec<TagReport> {
            let safe = self
                .lanes
                .values()
                .filter(|l| !l.closed)
                .map(|l| l.watermark_s)
                .fold(f64::INFINITY, f64::min);
            let mut out = Vec::new();
            loop {
                let mut best: Option<(f64, u32)> = None;
                for (&reader, lane) in &self.lanes {
                    let Some(head) = lane.queue.front() else {
                        continue;
                    };
                    if head.time_s > safe {
                        continue;
                    }
                    let key = (head.time_s, reader);
                    if best.is_none_or(|b| release_order(key, b).is_lt()) {
                        best = Some(key);
                    }
                }
                let Some((_, reader)) = best else {
                    break;
                };
                if let Some(report) = self
                    .lanes
                    .get_mut(&reader)
                    .and_then(|l| l.queue.pop_front())
                {
                    out.push(report);
                }
            }
            self.lanes.retain(|_, l| !(l.closed && l.queue.is_empty()));
            out
        }

        fn drain_all(&mut self) -> Vec<TagReport> {
            let readers: Vec<u32> = self.lanes.keys().copied().collect();
            for r in readers {
                self.close(r);
            }
            self.release()
        }
    }

    /// Released reports as bits: time, then the EPC that names the lane
    /// and the report's sequence number.
    fn bits(reports: &[TagReport]) -> Vec<(u64, [u8; 12])> {
        reports
            .iter()
            .map(|r| (r.time_s.to_bits(), r.epc.to_bytes()))
            .collect()
    }

    #[test]
    fn run_release_matches_the_report_at_a_time_oracle() {
        use prng::{Rng, Xoshiro256};
        // Few distinct times, so lanes tie often; both zeros, and the
        // non-finite values the merge must drop or ignore.
        const TIMES: [f64; 11] = [
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            0.5,
            1.0,
            1.5,
            2.0,
            3.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for seed in 0..64u64 {
            let mut rng = Xoshiro256::seed_from_u64(0x6D65_7267_6500 + seed);
            let lanes = 2 + rng.gen_range(0..4) as u32;
            let mut merger = LaneMerger::new();
            let mut oracle = Oracle::default();
            let mut base = 0.0;
            let mut sequence = 0u32;
            let pick = |rng: &mut Xoshiro256, base: f64| {
                let t = TIMES[rng.gen_range(0..TIMES.len())];
                if t.is_finite() && rng.gen_bool() {
                    base + t
                } else {
                    t
                }
            };
            for step in 0..400 {
                let reader = 1 + rng.gen_range(0..lanes as usize) as u32;
                match rng.gen_range(0..10) {
                    0 => {
                        merger.open(reader);
                        oracle.open(reader);
                    }
                    1 => {
                        merger.close(reader);
                        oracle.close(reader);
                    }
                    2 | 3 => {
                        let clock = pick(&mut rng, base);
                        merger.heartbeat(reader, clock);
                        oracle.heartbeat(reader, clock);
                    }
                    _ => {
                        // Times mostly rise with the stream, but a batch
                        // may also go backwards.
                        base += 0.25 * rng.gen_range(0..3) as f64;
                        let n = rng.gen_range(0..12);
                        let batch: Vec<TagReport> = (0..n)
                            .map(|_| {
                                sequence += 1;
                                let mut r = report(u64::from(reader), pick(&mut rng, base));
                                r.epc = Epc96::monitor(u64::from(reader), sequence);
                                r
                            })
                            .collect();
                        let clock = pick(&mut rng, base);
                        let dropped = merger.push(reader, batch.clone(), clock);
                        assert_eq!(dropped, oracle.push(reader, batch, clock));
                    }
                }
                let (got, want) = (merger.release(), oracle.release());
                assert_eq!(bits(&got), bits(&want), "seed {seed} step {step}");
                assert_eq!(
                    merger.pending(),
                    oracle.lanes.values().map(|l| l.queue.len()).sum()
                );
            }
            assert_eq!(
                bits(&merger.drain_all()),
                bits(&oracle.drain_all()),
                "seed {seed}"
            );
        }
    }
}
