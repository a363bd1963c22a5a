//! In-memory spans recorded around calls into each layer, and the
//! per-layer summary (calls, items, busy time, self time, failures).
//!
//! Spans stay in memory for the whole run and are written out once, at
//! exit. A span's self time is its duration minus the part its direct
//! children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// The request a span belongs to: (connection, batch sequence). HTTP
/// requests use connection [`crate::drive::HTTP_CONN`]; replay cadence
/// points use connection 0 and the epoch as sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqId {
    /// Connection (reader id, or a fixed id for HTTP / replay).
    pub conn: u32,
    /// Batch sequence number on that connection.
    pub seq: u64,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `wire.decode`.
    pub name: &'static str,
    /// Start, ns since the collector's epoch.
    pub start_ns: u64,
    /// End, ns since the collector's epoch (0 while open).
    pub end_ns: u64,
    /// Parent span id (0: a root).
    pub parent: usize,
    /// Request the span serves.
    pub req: ReqId,
    /// Work items the call covered (reports, users, requests).
    pub items: u64,
    /// Items that failed, where the call returns failures.
    pub failed: u64,
}

/// Per-layer totals over all spans of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    /// Spans recorded.
    pub calls: u64,
    /// Items covered.
    pub items: u64,
    /// Summed span durations, ns.
    pub busy_ns: u64,
    /// Busy time minus direct children, ns.
    pub self_ns: u64,
    /// Failed items.
    pub failed: u64,
}

impl Layer {
    /// Busy nanoseconds per item (0 when no items).
    pub fn ns_per_item(&self) -> f64 {
        self.busy_ns as f64 / self.items.max(1) as f64
    }
}

/// A thread-safe span collector.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty collector whose clock starts now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn with<T>(&self, f: impl FnOnce(&mut Vec<Span>) -> T) -> T {
        let mut guard = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard)
    }

    /// Opens a span now; returns its id for [`Spans::close`].
    pub fn open(&self, name: &'static str, req: ReqId, parent: usize) -> usize {
        let start_ns = self.ns(Instant::now());
        self.with(|spans| {
            spans.push(Span {
                name,
                start_ns,
                end_ns: 0,
                parent,
                req,
                items: 0,
                failed: 0,
            });
            spans.len()
        })
    }

    /// Closes span `id` now with its item and failure counts.
    pub fn close(&self, id: usize, items: u64, failed: u64) {
        let end_ns = self.ns(Instant::now());
        self.with(|spans| {
            if let Some(s) = spans.get_mut(id.wrapping_sub(1)) {
                s.end_ns = end_ns;
                s.items = items;
                s.failed = failed;
            }
        });
    }

    /// Records a finished span the caller timed over `(start, end)`,
    /// covering `(items, failed)`; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        req: ReqId,
        parent: usize,
        (start, end): (Instant, Instant),
        (items, failed): (u64, u64),
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.with(|spans| {
            spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                req,
                items,
                failed,
            });
            spans.len()
        })
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.with(|spans| spans.len())
    }

    /// Per-name totals, with self time net of direct children.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        self.with(|spans| summarise(spans))
    }

    /// Every span as a JSON array (ids are 1-based positions).
    pub fn to_json(&self) -> String {
        self.with(|spans| {
            let mut out = String::with_capacity(spans.len() * 120 + 2);
            out.push('[');
            for (i, s) in spans.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                let _ = write!(
                    out,
                    "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
                     \"conn\":{},\"seq\":{},\"items\":{},\"failed\":{}}}",
                    i + 1,
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent,
                    s.req.conn,
                    s.req.seq,
                    s.items,
                    s.failed
                );
            }
            out.push_str("]\n");
            out
        })
    }
}

fn summarise(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(c) = child_ns.get_mut(s.parent.wrapping_sub(1)) {
            *c += dur(s);
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let layer = out.entry(s.name).or_default();
        layer.calls += 1;
        layer.items += s.items;
        layer.busy_ns += dur(s);
        layer.self_ns += dur(s).saturating_sub(children);
        layer.failed += s.failed;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = Spans::new();
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        let req = ReqId { conn: 1, seq: 0 };
        let root = spans.record("batch", req, 0, (at(0), at(10)), (100, 0));
        let child = spans.record("decode", req, root, (at(1), at(4)), (100, 2));
        spans.record("crc", req, child, (at(2), at(3)), (100, 0));
        spans.record("merge", req, root, (at(5), at(9)), (100, 0));
        let layers = spans.layers();
        let ms = 1_000_000;
        assert_eq!(layers["batch"].busy_ns, 10 * ms);
        assert_eq!(layers["batch"].self_ns, 3 * ms);
        assert_eq!(layers["decode"].self_ns, 2 * ms);
        assert_eq!(layers["decode"].failed, 2);
        assert_eq!(layers["crc"].self_ns, ms);
        assert_eq!(layers["merge"].calls, 1);
        assert!((layers["merge"].ns_per_item() - 40_000.0).abs() < 1e-9);
        assert!(spans.to_json().contains("\"name\":\"crc\""));
        assert_eq!(spans.len(), 4);
    }

    #[test]
    fn open_close_round_trip() {
        let spans = Spans::new();
        let id = spans.open("http.get", ReqId { conn: 9, seq: 3 }, 0);
        spans.close(id, 1, 1);
        let layer = &spans.layers()["http.get"];
        assert_eq!((layer.calls, layer.items, layer.failed), (1, 1, 1));
    }
}
