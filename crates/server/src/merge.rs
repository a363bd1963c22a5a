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
//! backwards in stream time.

use std::collections::{BTreeMap, VecDeque};
use tagbreathe::TagReport;

/// One reader's FIFO of not-yet-released reports.
#[derive(Debug)]
struct Lane {
    queue: VecDeque<TagReport>,
    watermark_s: f64,
    closed: bool,
}

impl Lane {
    /// Raises the watermark to `time_s` if that is finite and ahead.
    fn advance(&mut self, time_s: f64) {
        if time_s.is_finite() && time_s > self.watermark_s {
            self.watermark_s = time_s;
        }
    }
}

/// Watermark-driven k-way merge over per-reader lanes.
#[derive(Debug, Default)]
pub struct LaneMerger {
    lanes: BTreeMap<u32, Lane>,
}

impl LaneMerger {
    /// Creates an empty merger.
    #[must_use]
    pub fn new() -> Self {
        LaneMerger::default()
    }

    /// Opens a lane for `reader` (idempotent; reopening a closed lane
    /// starts a fresh one).
    pub fn open(&mut self, reader: u32) {
        self.lanes.entry(reader).or_insert(Lane {
            queue: VecDeque::new(),
            watermark_s: f64::NEG_INFINITY,
            closed: false,
        });
    }

    /// Appends a batch to `reader`'s lane and advances its watermark to
    /// `max(old, reader_clock_s, last report time)`. Reports whose
    /// timestamp is not finite are dropped (NaN cannot be ordered, and
    /// `±inf` would pin the lane's watermark so that it no longer holds
    /// back the merge); the count of dropped reports is returned. A
    /// non-finite reader clock is ignored.
    pub fn push(&mut self, reader: u32, reports: Vec<TagReport>, reader_clock_s: f64) -> usize {
        self.open(reader);
        let Some(lane) = self.lanes.get_mut(&reader) else {
            return reports.len();
        };
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

    /// Advances `reader`'s watermark from a heartbeat; a non-finite clock
    /// is ignored.
    pub fn heartbeat(&mut self, reader: u32, reader_clock_s: f64) {
        self.open(reader);
        if let Some(lane) = self.lanes.get_mut(&reader) {
            lane.advance(reader_clock_s);
        }
    }

    /// Closes `reader`'s lane: its watermark stops constraining the merge
    /// and its remaining reports release as other lanes allow.
    pub fn close(&mut self, reader: u32) {
        if let Some(lane) = self.lanes.get_mut(&reader) {
            lane.closed = true;
        }
    }

    /// The merge frontier: the smallest watermark over open lanes
    /// (`+∞` when every lane is closed or none exist).
    #[must_use]
    pub fn safe_watermark(&self) -> f64 {
        self.lanes
            .values()
            .filter(|l| !l.closed)
            .map(|l| l.watermark_s)
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
            .map(|(&reader, l)| (reader, l.watermark_s))
            .collect()
    }

    /// Reports buffered across all lanes.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.lanes.values().map(|l| l.queue.len()).sum()
    }

    /// Releases every report at or below the safe watermark, smallest
    /// `(time_s, reader_id)` first. Fully drained closed lanes are
    /// removed.
    pub fn release(&mut self) -> Vec<TagReport> {
        let safe = self.safe_watermark();
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
                let better = match best {
                    None => true,
                    Some((t, r)) => match head.time_s.total_cmp(&t) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => reader < r,
                        std::cmp::Ordering::Greater => false,
                    },
                };
                if better {
                    best = Some(key);
                }
            }
            let Some((_, reader)) = best else {
                break;
            };
            if let Some(lane) = self.lanes.get_mut(&reader) {
                if let Some(report) = lane.queue.pop_front() {
                    out.push(report);
                }
            }
        }
        self.lanes.retain(|_, l| !(l.closed && l.queue.is_empty()));
        out
    }

    /// Closes every lane and releases everything still buffered.
    pub fn drain_all(&mut self) -> Vec<TagReport> {
        let readers: Vec<u32> = self.lanes.keys().copied().collect();
        for r in readers {
            self.close(r);
        }
        self.release()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epcgen2::Epc96;

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
}
