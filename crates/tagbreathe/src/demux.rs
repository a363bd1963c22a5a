//! Report demultiplexing: the raw report stream → per-user, per-tag,
//! per-antenna streams.
//!
//! TagBreathe classifies every read by the user ID and tag ID carried in
//! the overwritten EPC (Section IV-C), and — because antennas are
//! geographically distributed — keeps per-antenna streams so the best
//! antenna can be selected per user (Section IV-D.3).

use crate::metrics;
use epcgen2::mapping::{IdentityResolver, TagIdentity};
use epcgen2::report::TagReport;
use obs::{Label, Recorder};
use std::collections::BTreeMap;

/// Reports of one tag seen by one antenna, in time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TagStream {
    reports: Vec<TagReport>,
}

impl TagStream {
    /// The reports in time order.
    pub fn reports(&self) -> &[TagReport] {
        &self.reports
    }

    /// Number of reports.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Mean sampling rate in Hz (None for < 2 reports).
    pub fn mean_rate_hz(&self) -> Option<f64> {
        if self.reports.len() < 2 {
            return None;
        }
        let span = self.reports.last()?.time_s - self.reports.first()?.time_s;
        if span <= 0.0 {
            return None;
        }
        Some((self.reports.len() - 1) as f64 / span)
    }

    /// Mean RSSI in dBm (None for an empty stream).
    pub fn mean_rssi_dbm(&self) -> Option<f64> {
        if self.reports.is_empty() {
            return None;
        }
        Some(self.reports.iter().map(|r| r.rssi_dbm).sum::<f64>() / self.reports.len() as f64)
    }
}

/// All streams of one user, keyed by `(antenna_port, tag_id)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UserStreams {
    streams: BTreeMap<(u8, u32), TagStream>,
}

impl UserStreams {
    /// Iterates `(antenna_port, tag_id) → stream`.
    pub fn iter(&self) -> impl Iterator<Item = (&(u8, u32), &TagStream)> {
        self.streams.iter()
    }

    /// Antenna ports that saw this user.
    pub fn antenna_ports(&self) -> Vec<u8> {
        let mut ports: Vec<u8> = self.streams.keys().map(|&(p, _)| p).collect();
        ports.sort_unstable();
        ports.dedup();
        ports
    }

    /// Streams of one antenna, keyed by tag ID.
    pub fn streams_for_antenna(&self, port: u8) -> BTreeMap<u32, &TagStream> {
        self.streams
            .iter()
            .filter(|&(&(p, _), _)| p == port)
            .map(|(&(_, tag), s)| (tag, s))
            .collect()
    }

    /// Data-quality score of an antenna for this user: the paper evaluates
    /// antennas "in terms of received signal strength and data sampling
    /// rate" (Section IV-D.3). We score by aggregate read rate, breaking
    /// ties by mean RSSI.
    pub fn antenna_quality(&self, port: u8) -> (f64, f64) {
        let streams = self.streams_for_antenna(port);
        let rate: f64 = streams.values().filter_map(|s| s.mean_rate_hz()).sum();
        let rssis: Vec<f64> = streams.values().filter_map(|s| s.mean_rssi_dbm()).collect();
        let rssi = if rssis.is_empty() {
            f64::NEG_INFINITY
        } else {
            rssis.iter().sum::<f64>() / rssis.len() as f64
        };
        (rate, rssi)
    }

    /// The optimal antenna for this user per the paper's quality rule.
    pub fn best_antenna(&self) -> Option<u8> {
        self.antenna_ports().into_iter().max_by(|&a, &b| {
            let qa = self.antenna_quality(a);
            let qb = self.antenna_quality(b);
            qa.partial_cmp(&qb).unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Total reports across all streams.
    pub fn report_count(&self) -> usize {
        self.streams.values().map(TagStream::len).sum()
    }
}

/// Resolves one report to its monitored `(user_id, tag_id)` identity, or
/// `None` for unrelated tags — the single classification rule shared by the
/// batch [`demux`] and the streaming engine's admission path.
pub fn classify<R: IdentityResolver>(resolver: &R, report: &TagReport) -> Option<(u64, u32)> {
    match resolver.resolve(report.epc) {
        TagIdentity::Monitor { user_id, tag_id } => Some((user_id, tag_id)),
        TagIdentity::Unknown => None,
    }
}

/// Demultiplexes a report stream by resolved identity.
///
/// Reports resolving to [`TagIdentity::Unknown`] (item tags, other users'
/// equipment) are counted but not grouped. Input need not be sorted;
/// streams are sorted by time on output.
pub fn demux<R: IdentityResolver>(
    reports: &[TagReport],
    resolver: &R,
) -> (BTreeMap<u64, UserStreams>, usize) {
    let mut users: BTreeMap<u64, UserStreams> = BTreeMap::new();
    let mut unknown = 0usize;
    for r in reports {
        match classify(resolver, r) {
            Some((user_id, tag_id)) => {
                users
                    .entry(user_id)
                    .or_default()
                    .streams
                    .entry((r.antenna_port, tag_id))
                    .or_default()
                    .reports
                    .push(*r);
            }
            None => unknown += 1,
        }
    }
    for streams in users.values_mut() {
        for s in streams.streams.values_mut() {
            s.reports.sort_by(|a, b| {
                a.time_s
                    .partial_cmp(&b.time_s)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
    }
    (users, unknown)
}

/// EWMA smoothing factor of [`LinkQualityTracker`]: heavy smoothing so the
/// gauges reflect link trend, not per-slot jitter.
const LINK_EWMA_ALPHA: f64 = 0.05;

/// Per-antenna-port link state held by [`LinkQualityTracker`].
#[derive(Debug, Clone, Copy)]
struct PortLink {
    ewma_rssi_dbm: f64,
    ewma_gap_s: Option<f64>,
    last_t_s: f64,
    reads: u64,
    channel: u16,
}

/// A frequency-hop observed on one antenna port: the regulatory channel
/// changed between consecutive reads. Returned by
/// [`LinkQualityTracker::observe`] so the caller can trace hop seams —
/// the moments the Eq. (3) per-channel unwrapping must restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelHop {
    /// Antenna port the hop was seen on.
    pub port: u8,
    /// Channel of the previous read.
    pub from: u16,
    /// Channel of this read.
    pub to: u16,
}

/// Running link-quality statistics per antenna port: an RSSI EWMA and a
/// smoothed read rate, published as `port`-labelled gauges.
///
/// This is the observability twin of the paper's antenna-quality rule
/// (Section IV-D.3): the same two signals — signal strength and sampling
/// rate — but exported continuously per port instead of reduced to one
/// selection decision per user.
#[derive(Debug, Clone, Default)]
pub struct LinkQualityTracker {
    ports: BTreeMap<u8, PortLink>,
}

impl LinkQualityTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one report into its port's EWMAs. Reports must arrive in
    /// roughly increasing time order (non-positive gaps extend no rate).
    ///
    /// Returns the [`ChannelHop`] this read completed, if the port's
    /// channel changed since its previous read.
    pub fn observe(&mut self, report: &TagReport) -> Option<ChannelHop> {
        match self.ports.get_mut(&report.antenna_port) {
            Some(link) => {
                link.ewma_rssi_dbm += LINK_EWMA_ALPHA * (report.rssi_dbm - link.ewma_rssi_dbm);
                let gap = report.time_s - link.last_t_s;
                if gap > 0.0 {
                    link.ewma_gap_s = Some(match link.ewma_gap_s {
                        Some(g) => g + LINK_EWMA_ALPHA * (gap - g),
                        None => gap,
                    });
                    link.last_t_s = report.time_s;
                }
                link.reads += 1;
                let from = link.channel;
                link.channel = report.channel_index;
                (from != report.channel_index).then_some(ChannelHop {
                    port: report.antenna_port,
                    from,
                    to: report.channel_index,
                })
            }
            None => {
                self.ports.insert(
                    report.antenna_port,
                    PortLink {
                        ewma_rssi_dbm: report.rssi_dbm,
                        ewma_gap_s: None,
                        last_t_s: report.time_s,
                        reads: 1,
                        channel: report.channel_index,
                    },
                );
                None
            }
        }
    }

    /// Smoothed RSSI of a port, dBm. `None` before its first report.
    #[must_use]
    pub fn rssi_ewma_dbm(&self, port: u8) -> Option<f64> {
        self.ports.get(&port).map(|l| l.ewma_rssi_dbm)
    }

    /// Smoothed read rate of a port, Hz (reciprocal of the EWMA inter-read
    /// gap). `None` before the second report.
    #[must_use]
    pub fn read_rate_hz(&self, port: u8) -> Option<f64> {
        self.ports
            .get(&port)
            .and_then(|l| l.ewma_gap_s)
            .map(|g| 1.0 / g)
    }

    /// Total reports folded in for a port.
    #[must_use]
    pub fn reads(&self, port: u8) -> u64 {
        self.ports.get(&port).map_or(0, |l| l.reads)
    }

    /// Ports observed so far, ascending.
    #[must_use]
    pub fn ports(&self) -> Vec<u8> {
        self.ports.keys().copied().collect()
    }

    /// Publishes the per-port gauges
    /// ([`metrics::PORT_RSSI_EWMA_DBM`], [`metrics::PORT_READ_RATE_HZ`]).
    pub fn publish(&self, rec: &dyn Recorder) {
        for (&port, link) in &self.ports {
            let label = Some(Label::port(port));
            rec.set_gauge(metrics::PORT_RSSI_EWMA_DBM, label, link.ewma_rssi_dbm);
            if let Some(gap) = link.ewma_gap_s {
                rec.set_gauge(metrics::PORT_READ_RATE_HZ, label, 1.0 / gap);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epcgen2::epc::Epc96;
    use epcgen2::mapping::EmbeddedIdentity;

    fn report(t: f64, user: u64, tag: u32, port: u8, rssi: f64) -> TagReport {
        TagReport {
            time_s: t,
            epc: Epc96::monitor(user, tag),
            antenna_port: port,
            channel_index: 0,
            phase_rad: 0.0,
            rssi_dbm: rssi,
            doppler_hz: 0.0,
        }
    }

    #[test]
    fn groups_by_user_tag_antenna() {
        let reports = vec![
            report(0.0, 1, 0, 1, -50.0),
            report(0.1, 1, 1, 1, -50.0),
            report(0.2, 2, 0, 1, -55.0),
            report(0.3, 1, 0, 2, -60.0),
            report(0.4, 99, 0, 1, -50.0), // unknown user
        ];
        let resolver = EmbeddedIdentity::new([1, 2]);
        let (users, unknown) = demux(&reports, &resolver);
        assert_eq!(unknown, 1);
        assert_eq!(users.len(), 2);
        assert_eq!(users[&1].report_count(), 3);
        assert_eq!(users[&1].antenna_ports(), vec![1, 2]);
        assert_eq!(users[&2].report_count(), 1);
    }

    #[test]
    fn streams_are_time_sorted() {
        let reports = vec![
            report(0.5, 1, 0, 1, -50.0),
            report(0.1, 1, 0, 1, -50.0),
            report(0.3, 1, 0, 1, -50.0),
        ];
        let (users, _) = demux(&reports, &EmbeddedIdentity::new([1]));
        let stream = &users[&1].streams_for_antenna(1)[&0];
        let times: Vec<f64> = stream.reports().iter().map(|r| r.time_s).collect();
        assert_eq!(times, vec![0.1, 0.3, 0.5]);
    }

    #[test]
    fn stream_statistics() {
        let reports = vec![
            report(0.0, 1, 0, 1, -50.0),
            report(1.0, 1, 0, 1, -52.0),
            report(2.0, 1, 0, 1, -54.0),
        ];
        let (users, _) = demux(&reports, &EmbeddedIdentity::new([1]));
        let s = &users[&1].streams_for_antenna(1)[&0];
        assert_eq!(s.mean_rate_hz(), Some(1.0));
        assert_eq!(s.mean_rssi_dbm(), Some(-52.0));
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_stream_statistics_are_none() {
        let s = TagStream::default();
        assert!(s.mean_rate_hz().is_none());
        assert!(s.mean_rssi_dbm().is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn best_antenna_prefers_higher_read_rate() {
        // Port 1 sees 10 reports over 1 s; port 2 sees 3 over the same
        // second with stronger RSSI — the rate-first rule picks port 1.
        let mut reports = Vec::new();
        for i in 0..10 {
            reports.push(report(i as f64 * 0.1, 1, 0, 1, -60.0));
        }
        for i in 0..3 {
            reports.push(report(i as f64 * 0.45, 1, 0, 2, -40.0));
        }
        let (users, _) = demux(&reports, &EmbeddedIdentity::new([1]));
        assert_eq!(users[&1].best_antenna(), Some(1));
    }

    #[test]
    fn best_antenna_none_for_unseen_user() {
        let (users, _) = demux(&[], &EmbeddedIdentity::new([1]));
        assert!(users.is_empty());
    }

    #[test]
    fn link_quality_tracks_rssi_and_rate_per_port() {
        let mut lq = LinkQualityTracker::new();
        assert!(lq.rssi_ewma_dbm(1).is_none());
        // Steady 10 Hz on port 1 at -50 dBm; sparse port 2.
        for i in 0..50 {
            lq.observe(&report(i as f64 * 0.1, 1, 0, 1, -50.0));
        }
        lq.observe(&report(0.0, 1, 0, 2, -70.0));
        lq.observe(&report(1.0, 1, 0, 2, -70.0));
        let rssi1 = lq.rssi_ewma_dbm(1).unwrap_or(0.0);
        assert!((rssi1 + 50.0).abs() < 1e-9, "rssi {rssi1}");
        let rate1 = lq.read_rate_hz(1).unwrap_or(0.0);
        assert!((rate1 - 10.0).abs() < 1e-6, "rate {rate1}");
        assert_eq!(lq.read_rate_hz(2), Some(1.0));
        assert_eq!(lq.reads(1), 50);
        assert_eq!(lq.ports(), vec![1, 2]);
    }

    #[test]
    fn link_quality_reports_channel_hops() {
        let mut lq = LinkQualityTracker::new();
        let mut r = report(0.0, 1, 0, 1, -50.0);
        assert_eq!(lq.observe(&r), None, "first read is no hop");
        r.time_s = 0.1;
        r.channel_index = 7;
        assert_eq!(
            lq.observe(&r),
            Some(ChannelHop {
                port: 1,
                from: 0,
                to: 7
            })
        );
        r.time_s = 0.2;
        assert_eq!(lq.observe(&r), None, "same channel is no hop");
    }

    #[test]
    fn link_quality_publishes_labelled_gauges() {
        let registry = obs::Registry::new();
        let mut lq = LinkQualityTracker::new();
        lq.observe(&report(0.0, 1, 0, 3, -42.0));
        lq.observe(&report(0.5, 1, 0, 3, -42.0));
        lq.publish(&registry);
        let rssi = registry.labeled_gauge(metrics::PORT_RSSI_EWMA_DBM, Some(Label::port(3)));
        assert_eq!(rssi, Some(-42.0));
        let rate = registry.labeled_gauge(metrics::PORT_READ_RATE_HZ, Some(Label::port(3)));
        assert_eq!(rate, Some(2.0));
    }

    #[test]
    fn antenna_quality_of_absent_port() {
        let reports = vec![report(0.0, 1, 0, 1, -50.0)];
        let (users, _) = demux(&reports, &EmbeddedIdentity::new([1]));
        let (rate, rssi) = users[&1].antenna_quality(3);
        assert_eq!(rate, 0.0);
        assert_eq!(rssi, f64::NEG_INFINITY);
    }
}
