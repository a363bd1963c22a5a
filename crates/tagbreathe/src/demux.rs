//! Report demultiplexing: classifying each read by identity, and the
//! per-antenna link statistics of the raw stream.
//!
//! TagBreathe classifies every read by the user ID and tag ID carried in
//! the overwritten EPC (Section IV-C); [`classify`] is that rule. The
//! per-user, per-antenna streams it feeds live in the operator graph
//! ([`crate::operators::UserStreamState`]), which also selects the best
//! antenna per user (Section IV-D.3).

use crate::metrics;
use epcgen2::mapping::{IdentityResolver, TagIdentity};
use epcgen2::report::TagReport;
use obs::{Label, Recorder};
use std::collections::BTreeMap;

/// Resolves one report to its monitored `(user_id, tag_id)` identity, or
/// `None` for unrelated tags — the single classification rule shared by the
/// batch [`BreathMonitor`](crate::monitor::BreathMonitor), the RSSI/Doppler
/// [`baseline`](crate::baseline)s and the streaming engine's admission path.
pub fn classify<R: IdentityResolver>(resolver: &R, report: &TagReport) -> Option<(u64, u32)> {
    match resolver.resolve(report.epc) {
        TagIdentity::Monitor { user_id, tag_id } => Some((user_id, tag_id)),
        TagIdentity::Unknown => None,
    }
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
}
