//! Turning rounds, spans and server counters into named metrics, and
//! printing them: human-readable lines with units and sample counts,
//! then one JSON object as the last line.

use crate::drive::{HttpSample, Round};
use crate::reference::Reference;
use crate::replay::ReplayCounts;
use crate::span::Layer;
use crate::stats::{self, supports};
use crate::workload::{Input, Kind, Params};
use crate::Args;
use obs::registry::Registry;
use obs::{Label, Stage};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tagbreathe::metrics as tm;

/// The end-to-end metrics `BENCHMARK.json` gates, printed by every
/// `--trace 0` run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("reports_per_s", "1/s"),
    ("cpu_us_per_report", "us"),
    ("setup_s", "s"),
];

/// The per-layer metrics `BENCHMARK.json` lists, printed by every
/// `--trace 1` run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("client.send_p99_us", "us"),
    ("client.late_p99_ms", "ms"),
    ("wire.encode_ns_per_report", "ns"),
    ("wire.decode_ns_per_report", "ns"),
    ("wire.bytes_per_report", "B"),
    ("session.queue_stalls", "count"),
    ("session.reports_shed", "count"),
    ("merge.ns_per_report", "ns"),
    ("freshness.lane_merge_p99_ms", "ms"),
    ("fleet.push_ns_per_report", "ns"),
    ("fleet.first_touch_ns_per_user", "ns"),
    ("fleet.ring_stalls", "count"),
    ("freshness.epoch_merge_p50_ms", "ms"),
    ("freshness.epoch_merge_p99_ms", "ms"),
    ("inline.push_ns_per_report", "ns"),
    ("interner.probe_ns", "ns"),
    ("ring.roundtrip_ns", "ns"),
    ("shard.ring_depth_max", "count"),
    ("operators.push_ns_per_report", "ns"),
    ("operators.evict_ns_per_user", "ns"),
    ("operators.snapshot_us_per_user", "us"),
    ("shard.bytes_per_resident_user", "B"),
    ("freshness.shard_ingest_p99_ms", "ms"),
    ("extract.us_per_user", "us"),
    ("rate.us_per_user", "us"),
    ("analysis.success_ratio", "ratio"),
    ("freshness.total_p50_ms", "ms"),
    ("freshness.total_p99_ms", "ms"),
    ("http.snapshot_p50_ms", "ms"),
    ("http.metrics_p50_ms", "ms"),
    ("http.status_p50_ms", "ms"),
    ("http.slo_p50_ms", "ms"),
    ("freshness.http_serve_p50_ms", "ms"),
    ("obs.overhead_ns_per_report", "ns"),
    ("obs.render_us", "us"),
    ("accounting.unexplained_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// One named figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value (`None`: not measured here, see `note`).
    pub value: Option<f64>,
    /// Samples behind the value.
    pub samples: usize,
    /// Why it is missing, or how to read it.
    pub note: String,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value: Some(value),
            samples,
            note: String::new(),
        }
    }

    fn missing(name: &'static str, unit: &'static str, why: impl Into<String>) -> Self {
        Metric {
            name,
            unit,
            value: None,
            samples: 0,
            note: why.into(),
        }
    }

    fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Requests/reports/points attempted and failed, by component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Reports handed to `send_batch`.
    pub reports_sent: u64,
    /// Sent reports `/metrics` does not count as accepted.
    pub reports_not_accepted: u64,
    /// HTTP requests made by the load.
    pub http_requests: u64,
    /// Of those, failures.
    pub http_errors: u64,
    /// Cadence points expected over HTTP.
    pub points_expected: u64,
    /// Of those, never shown by the deadline.
    pub points_missing: u64,
}

impl Tally {
    fn add(&mut self, round: &Round) {
        self.reports_sent += round.reports_sent;
        self.reports_not_accepted += round.reports_sent.saturating_sub(round.reports_accepted);
        self.http_requests += round.http.len() as u64;
        self.http_errors += round.http.iter().filter(|h| h.failed).count() as u64;
        self.points_expected += round.points_expected;
        self.points_missing += round.points_missing;
    }

    /// Everything attempted.
    pub fn attempted(&self) -> u64 {
        self.reports_sent + self.http_requests + self.points_expected
    }

    /// Everything that failed.
    pub fn failed(&self) -> u64 {
        self.reports_not_accepted + self.http_errors + self.points_missing
    }
}

/// Accepted reports per wall second of one round.
pub fn rate(round: &Round) -> f64 {
    round.reports_accepted as f64 / round.elapsed_s.max(1e-9)
}

/// The whole printed result of one run.
#[derive(Debug)]
pub struct Report {
    trace: bool,
    header: Vec<String>,
    notes: Vec<String>,
    /// Metrics the JSON line carries, in `BENCHMARK.json` order.
    gated: Vec<Metric>,
    /// Further figures, printed as text only.
    extra: Vec<Metric>,
    tally: Tally,
}

fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown (not a git checkout)".into()
    } else {
        rev.to_string()
    }
}

impl Report {
    /// Provenance: host, revision, seed and workload parameters.
    pub fn new(
        params: &Params,
        args: &Args,
        input: &Input,
        generate_s: f64,
        reference_s: f64,
    ) -> Self {
        let reports = input.report_count();
        let (offered, compression) = match params.compression {
            Some(c) => (
                format!("{:.1}", reports as f64 * c / params.stream_s),
                format!("{c}"),
            ),
            None => ("\"closed loop\"".into(), "null".into()),
        };
        let header = vec![
            format!(
                "# perfbench {} seed={} seconds={} trace={}",
                params.name,
                args.seed,
                args.seconds,
                u8::from(args.trace)
            ),
            format!(
                "# provenance {{\"host_parallelism\":{},\"git_rev\":\"{}\",\"seed\":{},\
                 \"workload\":\"{}\",\"users\":{},\"lanes\":{},\"offered_reports_per_s\":{},\
                 \"time_compression\":{},\"window_s\":{},\"cadence_s\":{},\"shards\":{},\
                 \"stream_s\":{},\"rounds\":{},\"input_reports_per_round\":{},\
                 \"generate_input_s\":{:.3},\"reference_s\":{:.3}}}",
                bench::fleet::host_parallelism(),
                git_rev(),
                args.seed,
                params.name,
                params.users,
                params.lanes,
                offered,
                compression,
                params.window_s,
                params.cadence_s,
                params.shards,
                params.stream_s,
                if args.trace { 2 } else { params.rounds },
                reports,
                generate_s,
                reference_s
            ),
        ];
        Report {
            trace: args.trace,
            header,
            notes: Vec::new(),
            gated: Vec::new(),
            extra: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Adds a free-text line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The `--trace 0` metrics over all rounds.
    pub fn end_to_end(
        &mut self,
        params: &Params,
        input: &Input,
        reference: &Reference,
        rounds: &[Round],
        setup_s: &[f64],
    ) {
        let rates: Vec<f64> = rounds.iter().map(rate).collect();
        let cpu: Vec<f64> = rounds.iter().map(|r| r.cpu_us_per_report).collect();

        let n = rounds.len();
        self.gated = vec![
            Metric::new(
                "reports_per_s",
                "1/s",
                stats::median(&rates).unwrap_or(0.0),
                n,
            )
            .with_note(format!("median of {n} round(s): {rates:.0?}")),
            Metric::new(
                "cpu_us_per_report",
                "us",
                stats::median(&cpu).unwrap_or(0.0),
                n,
            )
            .with_note(format!("median of {n} round(s): {cpu:.3?}")),
            Metric::new(
                "setup_s",
                "s",
                stats::median(setup_s).unwrap_or(0.0),
                setup_s.len(),
            )
            .with_note("median of cold starts: server::start → every session Acked → /healthz"),
        ];
        for r in rounds {
            self.tally.add(r);
        }
        self.extra = workload_figures(params, input, reference, rounds);
    }

    /// The `--trace 1` metrics: the traced round, the replay's spans and
    /// the server's registry.
    pub fn per_layer(
        &mut self,
        params: &Params,
        reference: &Reference,
        rounds: (&Round, &Round),
        layers: &BTreeMap<&'static str, Layer>,
        counts: &ReplayCounts,
        input: &Input,
    ) {
        let (untraced, traced) = rounds;
        self.tally.add(untraced);
        self.tally.add(traced);
        let (headline, before, after) = headline(params, untraced, traced);
        // Positive when tracing made the headline worse.
        let worse = if params.kind == Kind::FleetFlood {
            before - after
        } else {
            after - before
        };
        let overhead_pct = 100.0 * worse / before.abs().max(1e-12);
        self.gated = layer_metrics(params, traced, layers, counts, overhead_pct);
        self.extra = vec![
            Metric::new("trace.headline_delta", headline.1, after - before, 1).with_note(format!(
                "{} traced − untraced: {after:.4} − {before:.4}",
                headline.0
            )),
        ];
        self.extra.extend(workload_figures(
            params,
            input,
            reference,
            std::slice::from_ref(traced),
        ));
        if let Some(lag) = self.extra.iter().find(|m| m.name == "snapshot_lag_p50_ms") {
            let total = histogram_ms(&traced.registry, Stage::Total, 0.5);
            let client = http_p50(traced, "snapshot");
            let serve = histogram_ms(&traced.registry, Stage::HttpServe, 0.5);
            if let (Some(l), Some(t), Some(c), Some(s)) = (lag.value, total, client, serve) {
                self.extra.push(
                    Metric::new("transport.delay_p50_ms", "ms", l - t - (c - s), 1).with_note(
                        "lag p50 − freshness.total p50 − HTTP accept wait (client p50 − serve p50); \
                         approximate: stage histograms use power-of-two buckets",
                    ),
                );
            }
        }
    }

    /// Every line before the JSON: header, notes, metrics with units and
    /// sample counts.
    pub fn text_lines(&self) -> Vec<String> {
        let mut out = self.header.clone();
        out.extend(self.notes.iter().map(|n| format!("# {n}")));
        let t = &self.tally;
        out.push(format!(
            "# failures {} of {} attempts: reports not accepted {} of {} sent; \
             HTTP errors {} of {} requests; cadence points not visible {} of {} expected",
            t.failed(),
            t.attempted(),
            t.reports_not_accepted,
            t.reports_sent,
            t.http_errors,
            t.http_requests,
            t.points_missing,
            t.points_expected
        ));
        let gated = if self.trace {
            "per-layer"
        } else {
            "end-to-end"
        };
        for (kind, metrics) in [(gated, &self.gated), ("reported", &self.extra)] {
            for m in metrics.iter() {
                let mut line = format!("{kind} {} = ", m.name);
                match m.value {
                    Some(v) => {
                        let _ = write!(line, "{v} {} (n = {})", m.unit, m.samples);
                    }
                    None => {
                        let _ = write!(line, "not measured ({})", m.unit);
                    }
                }
                if !m.note.is_empty() {
                    let _ = write!(line, " — {}", m.note);
                }
                out.push(line);
            }
        }
        out
    }

    /// The last line: `correct`, `attempted`, `failed` and the gated
    /// metrics. A run only prints when every correctness check passed.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.attempted().max(1),
            self.tally.failed()
        );
        let names: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        for (i, (name, unit)) in names.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = self
                .gated
                .iter()
                .find(|m| m.name == *name)
                .and_then(|m| m.value)
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The workload's headline figure on both runs:
/// `((name, unit), untraced, traced)`.
fn headline(
    params: &Params,
    untraced: &Round,
    traced: &Round,
) -> ((&'static str, &'static str), f64, f64) {
    let pick = |r: &Round| match params.kind {
        Kind::FleetFlood => rate(r),
        Kind::WardPaced => stats::median(&r.lag_ms).unwrap_or(f64::NAN),
        Kind::DashboardScrape => {
            let ms: Vec<f64> = r.http.iter().map(|h| h.ms).collect();
            stats::median(&ms).unwrap_or(f64::NAN)
        }
    };
    let name = match params.kind {
        Kind::FleetFlood => ("reports_per_s", "1/s"),
        Kind::WardPaced => ("snapshot_lag_p50_ms", "ms"),
        Kind::DashboardScrape => ("http_p50_ms", "ms"),
    };
    (name, pick(untraced), pick(traced))
}

/// Percentile figures of one timing series under the ten-beyond rule:
/// the median, then each of `tails` the sample supports. A named tail
/// the sample cannot support is not printed; the line says which
/// percentile is the highest supported instead.
fn timing(
    out: &mut Vec<Metric>,
    series: &[f64],
    names: (&'static str, &[(f64, &'static str)]),
    unit: &'static str,
) {
    let (p50, tails) = names;
    let n = series.len();
    if !supports(n, 0.5) {
        out.push(Metric::missing(
            p50,
            unit,
            format!("{n} samples, the rule needs 20"),
        ));
        return;
    }
    out.push(Metric::new(
        p50,
        unit,
        stats::quantile(series, 0.5).unwrap_or(0.0),
        n,
    ));
    for &(q, name) in tails {
        if supports(n, q) {
            out.push(Metric::new(
                name,
                unit,
                stats::quantile(series, q).unwrap_or(0.0),
                n,
            ));
        } else {
            let highest = 1.0 - stats::MIN_SAMPLES_BEYOND / n as f64;
            out.push(Metric::missing(
                name,
                unit,
                format!(
                    "{n} samples leave {:.1} beyond it, the rule needs 10; highest supported: \
                     p{:.1} = {:.4} {unit}",
                    n as f64 * (1.0 - q),
                    100.0 * highest,
                    stats::quantile(series, highest).unwrap_or(0.0)
                ),
            ));
        }
    }
}

/// The workload-specific end-to-end figures, printed as text: snapshot
/// lag with the generator's lateness beside it (`ward_paced`), HTTP
/// client latency (paced workloads), Eq. 8 accuracy (paced workloads).
fn workload_figures(
    params: &Params,
    input: &Input,
    reference: &Reference,
    rounds: &[Round],
) -> Vec<Metric> {
    let mut out = Vec::new();
    // Only the first round starts from a heap the server has not used
    // yet; later rounds reuse what the allocator kept from earlier ones.
    let rss: Vec<f64> = rounds.iter().map(|r| r.peak_rss_mb).collect();
    out.push(
        Metric::new("peak_rss_mb", "MB", rss.first().copied().unwrap_or(0.0), 1).with_note(
            format!(
                "first round's peak VmRSS, sampled every 5 ms during the load, minus VmRSS just \
                 before its server::start (every round: {rss:.1?})"
            ),
        ),
    );
    let lag: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.lag_ms.iter().copied())
        .collect();
    let late: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    let http: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.http.iter().map(|h| h.ms))
        .collect();
    if params.kind == Kind::WardPaced {
        timing(
            &mut out,
            &lag,
            (
                "snapshot_lag_p50_ms",
                &[(0.9, "snapshot_lag_p90_ms"), (0.99, "snapshot_lag_p99_ms")],
            ),
            "ms",
        );
        let missing: u64 = rounds.iter().map(|r| r.points_missing).sum();
        let expected: u64 = rounds.iter().map(|r| r.points_expected).sum();
        out.push(
            Metric::new(
                "engine.unpublished_at_end",
                "count",
                missing as f64,
                expected as usize,
            )
            .with_note(
                "expected cadence points HTTP had not shown by the deadline after the last batch",
            ),
        );
        if let Some(m) = out.iter_mut().find(|m| m.name == "snapshot_lag_p50_ms") {
            m.note = format!(
                "per cadence point after the first {} s window (warm-up excluded), from the due \
                 time of the batch first carrying it to the first HTTP response showing it",
                params.window_s
            );
        }
    }
    if params.compression.is_some() {
        timing(
            &mut out,
            &late,
            ("client.late_p50_ms", &[(0.99, "client.late_p99_ms")]),
            "ms",
        );
        timing(
            &mut out,
            &http,
            ("http_p50_ms", &[(0.99, "http_p99_ms")]),
            "ms",
        );
        let (acc, pairs) = reference.accuracy_pct(input, 1..=params.users as u64);
        out.push(
            Metric::new("accuracy_pct", "%", acc, pairs).with_note(format!(
                "mean Eq. 8 accuracy over (cadence point, user) pairs after the first {} s window; \
                 a missing rate scores 0",
                params.window_s
            )),
        );
    }
    let bundles: Vec<u64> = rounds
        .iter()
        .map(|r| r.registry.counter(tm::TRACE_DUMPS))
        .collect();
    out.push(
        Metric::new(
            "flight_bundles",
            "count",
            bundles.iter().sum::<u64>() as f64,
            rounds.len(),
        )
        .with_note(format!(
            "anomaly-triggered flight-recorder bundles the server kept, per round {bundles:?}"
        )),
    );
    let t = {
        let mut t = Tally::default();
        rounds.iter().for_each(|r| t.add(r));
        t
    };
    out.push(Metric::new(
        "failed_ratio",
        "ratio",
        t.failed() as f64 / t.attempted().max(1) as f64,
        t.attempted() as usize,
    ));
    out
}

/// Quantile `q` of one `tagbreathe_snapshot_lag_ns{stage}` histogram, ms,
/// interpolated linearly inside its power-of-two bucket the way
/// Prometheus's `histogram_quantile` reads the `/metrics` buckets.
fn histogram_ms(registry: &Registry, stage: Stage, q: f64) -> Option<f64> {
    let h = registry.labeled_histogram(tm::SNAPSHOT_LAG_NS, Some(Label::stage(stage.code())))?;
    let (lo_seen, hi_seen) = (h.min()? as f64, h.max()? as f64);
    let rank = q.clamp(0.0, 1.0) * h.count() as f64;
    let mut below = 0.0;
    for (idx, &n) in h.buckets().iter().enumerate() {
        let n = n as f64;
        if n > 0.0 && below + n >= rank {
            let lower = if idx == 0 {
                0.0
            } else {
                (1u64 << (idx - 1)) as f64
            };
            let upper = obs::LogHistogram::bucket_upper_bound(idx).map_or(hi_seen, |u| u as f64);
            let (lower, upper) = (lower.max(lo_seen), upper.min(hi_seen));
            let ns = lower + (upper - lower) * ((rank - below) / n).clamp(0.0, 1.0);
            return Some(ns / 1e6);
        }
        below += n;
    }
    Some(hi_seen / 1e6)
}

fn histogram_count(registry: &Registry, stage: Stage) -> usize {
    registry
        .labeled_histogram(tm::SNAPSHOT_LAG_NS, Some(Label::stage(stage.code())))
        .map_or(0, |h| h.count() as usize)
}

fn http_samples<'a>(round: &'a Round, endpoint: &str) -> impl Iterator<Item = &'a HttpSample> {
    let endpoint = endpoint.to_string();
    round
        .http
        .iter()
        .chain(&round.probe)
        .filter(move |h| h.endpoint == endpoint)
}

fn http_p50(round: &Round, endpoint: &str) -> Option<f64> {
    let ms: Vec<f64> = http_samples(round, endpoint).map(|h| h.ms).collect();
    stats::median(&ms)
}

/// Builds every [`PER_LAYER`] metric.
fn layer_metrics(
    params: &Params,
    traced: &Round,
    layers: &BTreeMap<&'static str, Layer>,
    counts: &ReplayCounts,
    overhead_pct: f64,
) -> Vec<Metric> {
    let none = Layer::default();
    let l = |name: &str| layers.get(name).unwrap_or(&none);
    let reports = counts.reports.max(1) as f64;
    let reg = &traced.registry;
    let per_shard = |name: &str| -> Vec<f64> {
        (0..u32::try_from(params.shards).unwrap_or(0))
            .map(|s| {
                reg.labeled_gauge(name, Some(Label::shard(s)))
                    .unwrap_or(0.0)
            })
            .collect()
    };
    let resident: f64 = per_shard(tm::FLEET_RESIDENT_BYTES).iter().sum();
    let users: f64 = per_shard(tm::FLEET_SHARD_USERS).iter().sum();
    let depth = per_shard(tm::FLEET_RING_DEPTH)
        .into_iter()
        .fold(0.0, f64::max);
    let hist = |stage: Stage, q: f64, name: &'static str| match histogram_ms(reg, stage, q) {
        Some(v) => Metric::new(name, "ms", v, histogram_count(reg, stage)),
        None => Metric::missing(name, "ms", "no observations"),
    };
    let per_item = |name: &'static str, unit: &'static str, layer: &str, scale: f64| {
        let layer = l(layer);
        Metric::new(
            name,
            unit,
            layer.ns_per_item() / scale,
            layer.items as usize,
        )
    };
    // The analysis tail's stages, per user the snapshot pass walked: what
    // a shard pays for the stage per resident user per cadence point.
    let walked = l("operators.snapshot").items;
    let per_walked = |name: &'static str, layer: &str| {
        let layer = l(layer);
        Metric::new(
            name,
            "us",
            layer.busy_ns as f64 / 1e3 / walked.max(1) as f64,
            walked as usize,
        )
        .with_note(format!("{} calls, {} failed", layer.items, layer.failed))
    };
    let http = |name: &'static str, endpoint: &str| {
        let ms: Vec<f64> = http_samples(traced, endpoint).map(|h| h.ms).collect();
        match stats::median(&ms) {
            Some(v) => Metric::new(name, "ms", v, ms.len()),
            None => Metric::missing(name, "ms", "no requests"),
        }
    };
    let p99 = |name: &'static str, unit: &'static str, series: &[f64]| {
        let m = Metric::new(
            name,
            unit,
            stats::quantile(series, 0.99).unwrap_or(0.0),
            series.len(),
        );
        if supports(series.len(), 0.99) {
            m
        } else {
            m.with_note("fewer than 1000 samples: fewer than 10 lie beyond p99")
        }
    };
    let shard_ns = [
        "operators.push",
        "operators.evict",
        "operators.snapshot",
        "analysis.gate",
        "extract",
        "rate",
    ]
    .iter()
    .map(|n| l(n).self_ns as f64)
    .sum::<f64>()
        + l("ring.roundtrip").busy_ns as f64 / 2.0;
    let covered_ns = l("wire.decode").busy_ns as f64
        + l("merge.push").busy_ns as f64
        + l("merge.release").busy_ns as f64
        + l("fleet.push.observed").busy_ns as f64
        + shard_ns;
    let covered_us = covered_ns / 1e3 / reports;
    let unexplained = (1.0 - covered_us / traced.cpu_us_per_report.max(1e-9)).max(0.0) * 100.0;
    let late_note = if params.compression.is_some() {
        "send start − due time"
    } else {
        "closed loop: time between one send returning and the next starting"
    };
    vec![
        p99("client.send_p99_us", "us", &traced.send_us),
        p99("client.late_p99_ms", "ms", &traced.late_ms).with_note(late_note),
        per_item("wire.encode_ns_per_report", "ns", "wire.encode", 1.0),
        per_item("wire.decode_ns_per_report", "ns", "wire.decode", 1.0),
        Metric::new(
            "wire.bytes_per_report",
            "B",
            counts.wire_bytes as f64 / reports,
            counts.reports as usize,
        ),
        Metric::new(
            "session.queue_stalls",
            "count",
            reg.counter(server::metrics::SERVER_QUEUE_STALLS_TOTAL) as f64,
            1,
        ),
        Metric::new(
            "session.reports_shed",
            "count",
            reg.counter(server::metrics::SERVER_REPORTS_SHED_TOTAL) as f64,
            1,
        ),
        Metric::new(
            "merge.ns_per_report",
            "ns",
            (l("merge.push").busy_ns + l("merge.release").busy_ns) as f64 / reports,
            counts.reports as usize,
        ),
        hist(Stage::LaneMerge, 0.99, "freshness.lane_merge_p99_ms"),
        Metric::new(
            "fleet.push_ns_per_report",
            "ns",
            l("fleet.push.observed").busy_ns as f64 / reports,
            counts.reports as usize,
        ),
        Metric::new(
            "fleet.first_touch_ns_per_user",
            "ns",
            counts.first_touch_ns as f64 / counts.users.max(1) as f64,
            counts.users as usize,
        )
        .with_note(
            "recorded FleetEngine::push time over the batches that admitted users, per user",
        ),
        Metric::new(
            "fleet.ring_stalls",
            "count",
            reg.counter(tm::FLEET_RING_STALLS) as f64,
            1,
        ),
        hist(Stage::EpochMerge, 0.5, "freshness.epoch_merge_p50_ms"),
        hist(Stage::EpochMerge, 0.99, "freshness.epoch_merge_p99_ms"),
        Metric::new(
            "inline.push_ns_per_report",
            "ns",
            l("inline.push").busy_ns as f64 / reports,
            counts.reports as usize,
        ),
        per_item("interner.probe_ns", "ns", "interner.probe", 1.0),
        per_item("ring.roundtrip_ns", "ns", "ring.roundtrip", 1.0),
        Metric::new("shard.ring_depth_max", "count", depth, params.shards)
            .with_note("largest per-shard ring depth gauge at the end of the run"),
        per_item("operators.push_ns_per_report", "ns", "operators.push", 1.0),
        per_item("operators.evict_ns_per_user", "ns", "operators.evict", 1.0),
        per_item(
            "operators.snapshot_us_per_user",
            "us",
            "operators.snapshot",
            1e3,
        ),
        Metric::new(
            "shard.bytes_per_resident_user",
            "B",
            resident / users.max(1.0),
            users as usize,
        ),
        hist(Stage::ShardIngest, 0.99, "freshness.shard_ingest_p99_ms"),
        per_walked("extract.us_per_user", "extract"),
        per_walked("rate.us_per_user", "rate"),
        Metric::new(
            "analysis.success_ratio",
            "ratio",
            counts.rated as f64 / counts.analysed.max(1) as f64,
            counts.analysed as usize,
        )
        .with_note("rates reported ÷ users whose snapshot entered the analysis tail"),
        hist(Stage::Total, 0.5, "freshness.total_p50_ms"),
        hist(Stage::Total, 0.99, "freshness.total_p99_ms"),
        http("http.snapshot_p50_ms", "snapshot"),
        http("http.metrics_p50_ms", "metrics"),
        http("http.status_p50_ms", "status"),
        http("http.slo_p50_ms", "slo"),
        hist(Stage::HttpServe, 0.5, "freshness.http_serve_p50_ms"),
        Metric::new(
            "obs.overhead_ns_per_report",
            "ns",
            (l("fleet.push.observed").busy_ns as f64 - l("fleet.push.noop").busy_ns as f64)
                / reports,
            counts.reports as usize,
        ),
        per_item("obs.render_us", "us", "obs.render", 1e3),
        Metric::new("accounting.unexplained_pct", "%", unexplained, 1).with_note(format!(
            "layers' busy time covers {covered_us:.3} us of {:.3} us CPU per report",
            traced.cpu_us_per_report
        )),
        Metric::new("trace.overhead_pct", "%", overhead_pct, 2).with_note(
            "how much worse the traced run's headline is than the untraced run's, as a share of \
             the untraced",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units of one `BENCHMARK.json` section.
    fn benchmark_section(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .filter_map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\""))?;
                    let rest = &entry[at + key.len() + 2..];
                    let open = rest.find('"')? + 1;
                    let close = rest[open..].find('"')? + open;
                    Some(rest[open..close].to_string())
                };
                Some((field("name")?, field("unit")?))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_the_benchmark_file() {
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(benchmark_section("end_to_end"), own(&END_TO_END));
        assert_eq!(benchmark_section("per_layer"), own(&PER_LAYER));
    }

    fn report_with(gated: Vec<Metric>, trace: bool) -> Report {
        Report {
            trace,
            header: vec!["# header".into()],
            notes: Vec::new(),
            gated,
            extra: vec![Metric::missing(
                "snapshot_lag_p99_ms",
                "ms",
                "too few samples",
            )],
            tally: Tally {
                reports_sent: 10,
                http_requests: 5,
                http_errors: 1,
                ..Tally::default()
            },
        }
    }

    #[test]
    fn printer_emits_every_named_metric_with_its_unit() {
        for (trace, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let gated: Vec<Metric> = list
                .iter()
                .enumerate()
                .map(|(i, &(n, u))| Metric::new(n, u, 1.5 + i as f64, 3))
                .collect();
            let report = report_with(gated, trace);
            let json = report.json_line();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": 15, \"failed\": 1, "));
            assert!(obs::json::validate(&json).is_ok(), "{json}");
            let text = report.text_lines().join("\n");
            for (i, (name, unit)) in list.iter().enumerate() {
                let value = 1.5 + i as f64;
                assert!(
                    json.contains(&format!(
                        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                    )),
                    "{name} missing from {json}"
                );
                assert!(
                    text.contains(&format!("{name} = {value} {unit} (n = 3)")),
                    "{name}"
                );
            }
            assert_eq!(json.matches("\"value\"").count(), list.len());
            assert!(text.contains("snapshot_lag_p99_ms = not measured (ms) — too few samples"));
        }
    }

    #[test]
    fn unsupported_tails_are_not_printed() {
        let mut out = Vec::new();
        let series: Vec<f64> = (0..174).map(f64::from).collect();
        timing(
            &mut out,
            &series,
            ("lag_p50", &[(0.9, "lag_p90"), (0.99, "lag_p99")]),
            "ms",
        );
        assert_eq!(out[0].value, Some(86.0));
        assert_eq!(out[1].value, Some(156.0));
        assert_eq!(out[2].value, None, "174 samples cannot carry a p99");
        assert!(out[2].note.contains("highest supported: p94.3"));
        let mut few = Vec::new();
        timing(&mut few, &series[..19], ("lag_p50", &[]), "ms");
        assert_eq!(few[0].value, None);
    }
}
