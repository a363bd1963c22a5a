//! Observability integration suite.
//!
//! Two guarantees, stated over a realistic replayed capture:
//!
//! 1. **Coverage** — with a `Registry` attached, the reader simulator, the
//!    streaming pipeline, the batch stage timers and the quality assessor
//!    together emit non-zero values for at least 12 distinct metrics, and
//!    both renderings (Prometheus text, JSON) are well-formed.
//! 2. **Non-perturbation** — the no-op recorder and a live registry
//!    produce bit-identical outputs on every path (`PartialEq` over `f64`
//!    fields compares the actual bits of the computed values), so turning
//!    observability on can never change a breathing estimate.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use tagbreathe_suite::obs::trace::NoopTracer;
use tagbreathe_suite::obs::{Label, Registry, SharedRecorder};
use tagbreathe_suite::prelude::*;
use tagbreathe_suite::tagbreathe::engine::{Engine, Executor};
use tagbreathe_suite::tagbreathe::metrics;
use tagbreathe_suite::tagbreathe::quality::{assess, assess_observed, QualityThresholds};

fn capture(secs: f64) -> (Vec<TagReport>, Vec<u64>) {
    let scenario = Scenario::builder()
        .users_side_by_side(2, 3.0, &[10.0, 16.0])
        .contending_items(5)
        .build();
    let ids: Vec<u64> = scenario.subjects().iter().map(|s| s.user_id()).collect();
    let reports = Reader::paper_default().run(&ScenarioWorld::new(scenario), secs);
    (reports, ids)
}

#[test]
fn replayed_scenario_populates_every_instrumented_stage() {
    let scenario = Scenario::builder()
        .users_side_by_side(2, 3.0, &[10.0, 16.0])
        .contending_items(5)
        .build();
    let ids: Vec<u64> = scenario.subjects().iter().map(|s| s.user_id()).collect();
    let registry = Arc::new(Registry::new());

    // Reader-simulator metrics.
    let reports = Reader::paper_default().run_observed(
        &ScenarioWorld::new(scenario),
        40.0,
        registry.as_ref(),
    );
    assert!(!reports.is_empty());

    // Streaming-pipeline metrics (ingest, operators, eviction, snapshots,
    // link quality).
    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new(ids.clone()),
        15.0,
        5.0,
    )
    .expect("valid config")
    .with_recorder(SharedRecorder::new(registry.clone()));
    let snaps = sm.push(reports.iter().copied());
    assert!(!snaps.is_empty());

    // Batch stage timers + quality metrics.
    let analysis = BreathMonitor::paper_default().analyze_observed(
        &reports,
        &EmbeddedIdentity::new(ids),
        registry.as_ref(),
        &NoopTracer,
    );
    for (id, user) in analysis.successes() {
        assess_observed(
            id,
            user,
            &QualityThresholds::default_thresholds(),
            registry.as_ref(),
            &NoopTracer,
        );
    }

    let snapshot = registry.snapshot();
    let names = snapshot.nonzero_names();
    assert!(
        names.len() >= 12,
        "only {} distinct non-zero metrics: {names:?}",
        names.len()
    );

    // Every instrumented subsystem is represented.
    for required in [
        // reader simulator
        "epcgen2_inventory_rounds_total",
        "epcgen2_reads_total",
        "epcgen2_round_participants",
        // streaming ingest + operator graph
        "tagbreathe_reports_ingested_total",
        "tagbreathe_reports_unknown_total",
        "tagbreathe_graph_reports_total",
        "tagbreathe_phase_increments_total",
        "tagbreathe_fusion_bins_created_total",
        "tagbreathe_fusion_bins_evicted_total",
        "tagbreathe_snapshots_total",
        "tagbreathe_snapshot_latency_ns",
        "tagbreathe_evict_latency_ns",
        // link quality gauges (per-port labels stripped by nonzero_names)
        "tagbreathe_port_rssi_ewma_dbm",
        "tagbreathe_port_read_rate_hz",
        // batch stage timers
        "tagbreathe_stage_demux_ns",
        "tagbreathe_stage_fold_ns",
        "tagbreathe_stage_analyze_ns",
        // quality assessor
        "tagbreathe_quality_grades_total",
    ] {
        assert!(names.contains(&required.to_string()), "missing {required}");
    }

    // Both renderings are well-formed and carry the data.
    let prom = registry.render_prometheus();
    assert!(prom.contains("# TYPE tagbreathe_snapshot_latency_ns histogram"));
    assert!(prom.contains("tagbreathe_port_rssi_ewma_dbm{port=\"1\"}"));
    let json = registry.render_json();
    tagbreathe_suite::obs::json::validate(&json).expect("registry JSON parses");
    assert!(json.contains("\"tagbreathe_reports_ingested_total\""));
}

#[test]
fn recording_never_perturbs_streaming_output() {
    let (reports, ids) = capture(45.0);
    let make = || {
        StreamingMonitor::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new(ids.clone()),
            20.0,
            5.0,
        )
        .expect("valid config")
    };

    let mut plain = make();
    let mut observed = make().with_recorder(SharedRecorder::new(Arc::new(Registry::new())));

    let plain_snaps = plain.push(reports.iter().copied());
    let observed_snaps = observed.push(reports.iter().copied());

    // RateSnapshot derives PartialEq over its f64 maps, so this compares
    // the computed rates bit for bit.
    assert_eq!(plain_snaps, observed_snaps);
    assert_eq!(plain.snapshot_now(), observed.snapshot_now());
    assert!(
        plain_snaps.iter().any(|s| !s.rates_bpm.is_empty()),
        "trace produced no rates at all — vacuous equality"
    );
}

#[test]
fn recording_never_perturbs_batch_or_reader_output() {
    let scenario = Scenario::builder()
        .subject(Subject::paper_default(1, 2.0))
        .build();
    let world = ScenarioWorld::new(scenario);
    let registry = Registry::new();

    let plain_reports = Reader::paper_default().run(&world, 20.0);
    let observed_reports = Reader::paper_default().run_observed(&world, 20.0, &registry);
    assert_eq!(plain_reports, observed_reports);

    let resolver = EmbeddedIdentity::new([1]);
    let monitor = BreathMonitor::paper_default();
    let plain = monitor.analyze(&plain_reports, &resolver);
    let observed = monitor.analyze_observed(&plain_reports, &resolver, &registry, &NoopTracer);
    assert_eq!(plain, observed);

    let user = plain.users[&1].as_ref().expect("analysable");
    let q_plain = assess(user, &QualityThresholds::default_thresholds());
    let q_observed = assess_observed(
        1,
        user,
        &QualityThresholds::default_thresholds(),
        &registry,
        &NoopTracer,
    );
    assert_eq!(q_plain, q_observed);
}

#[test]
fn tracing_never_perturbs_streaming_output() {
    use tagbreathe_suite::obs::trace::FlightRecorder;
    use tagbreathe_suite::obs::SharedTracer;

    let (reports, ids) = capture(45.0);
    let make = || {
        StreamingMonitor::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new(ids.clone()),
            20.0,
            5.0,
        )
        .expect("valid config")
    };

    let ring = Arc::new(FlightRecorder::with_capacity(1 << 16).expect("capacity"));
    let mut plain = make();
    let mut traced = make().with_tracer(SharedTracer::new(ring.clone()));

    let plain_snaps = plain.push(reports.iter().copied());
    let traced_snaps = traced.push(reports.iter().copied());

    // Bit-identical estimates: PartialEq over the f64 rate maps.
    assert_eq!(plain_snaps, traced_snaps);
    assert_eq!(plain.snapshot_now(), traced.snapshot_now());
    assert!(
        plain_snaps.iter().any(|s| !s.rates_bpm.is_empty()),
        "trace produced no rates at all — vacuous equality"
    );
    // The flight recorder actually saw the session: reads, accepted phase
    // samples, rate instants.
    let events = ring.snapshot();
    assert!(!events.is_empty(), "tracer recorded nothing");
    for name in ["read", "phase_accept", "rate", "snapshot"] {
        assert!(
            events.iter().any(|e| e.name == name),
            "no {name:?} events in {} recorded",
            events.len()
        );
    }
}

#[test]
fn noop_monitor_reports_disabled_recorder_and_empty_link_quality() {
    let sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new([1]),
        25.0,
        5.0,
    )
    .expect("valid config");
    assert!(!sm.recorder().enabled());
    assert!(sm.link_quality().ports().is_empty());
}

/// Pushes `reports` in chunks of 97, then finishes the engine.
fn drive_in_chunks<X: Executor>(
    mut engine: Engine<EmbeddedIdentity, X>,
    reports: &[TagReport],
) -> Vec<RateSnapshot> {
    let mut snaps = Vec::new();
    for chunk in reports.chunks(97) {
        snaps.extend(engine.push(chunk.iter().copied()));
    }
    snaps.extend(engine.finish());
    snaps
}

/// Every `tagbreathe_*_total` counter outside the fleet-only series, and
/// both port link gauges (as bit patterns), keyed by rendered metric key.
fn folded_series(registry: &Registry) -> BTreeMap<String, u64> {
    let snap = registry.snapshot();
    let name = |key: &str| key.split('{').next().unwrap_or("").to_string();
    let counters = snap.counters.into_iter().filter(|(key, _)| {
        let name = name(key);
        name.starts_with("tagbreathe_")
            && name.ends_with("_total")
            && !name.starts_with("tagbreathe_fleet_")
    });
    let gauges = snap
        .gauges
        .into_iter()
        .filter(|(key, _)| {
            let name = name(key);
            name == metrics::PORT_RSSI_EWMA_DBM || name == metrics::PORT_READ_RATE_HZ
        })
        .map(|(key, value)| (key, value.to_bits()));
    counters.chain(gauges).collect()
}

#[test]
fn every_executor_folds_the_same_counters_and_port_gauges() {
    let scenario = Scenario::builder()
        .users_side_by_side(3, 3.0, &[9.0, 12.0, 16.0])
        .contending_items(5)
        .build();
    let ids: Vec<u64> = scenario.subjects().iter().map(|s| s.user_id()).collect();
    let reports = Reader::paper_default().run(&ScenarioWorld::new(scenario), 60.0);
    let (window_s, cadence_s) = (20.0, 5.0);
    let resolver = || EmbeddedIdentity::new(ids.clone());

    let registry = Arc::new(Registry::new());
    let inline = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        resolver(),
        window_s,
        cadence_s,
    )
    .expect("valid config")
    .with_recorder(SharedRecorder::new(registry.clone()));
    let inline_snaps = drive_in_chunks(inline, &reports);
    let inline_series = folded_series(&registry);
    for name in [
        metrics::REPORTS_INGESTED,
        metrics::REPORTS_UNKNOWN,
        metrics::GRAPH_REPORTS,
        metrics::PHASE_INCREMENTS,
        metrics::FUSION_BINS_EVICTED,
        metrics::SNAPSHOTS,
    ] {
        assert!(inline_series.contains_key(name), "inline run lacks {name}");
    }
    assert_eq!(
        registry.counter(metrics::REPORTS_INGESTED),
        reports.len() as u64
    );
    let port_gauge = registry.labeled_gauge(metrics::PORT_READ_RATE_HZ, Some(Label::port(1)));
    assert!(
        port_gauge.is_some(),
        "inline run lacks the port 1 read rate"
    );

    for shards in [1, 2, 4] {
        let registry = Arc::new(Registry::new());
        let fleet = FleetEngine::observed(
            PipelineConfig::paper_default(),
            resolver(),
            window_s,
            cadence_s,
            shards,
            SharedRecorder::new(registry.clone()),
        )
        .expect("valid config");
        let snaps = drive_in_chunks(fleet, &reports);
        assert_eq!(snaps, inline_snaps, "{shards} shards: snapshot stream");
        assert_eq!(
            folded_series(&registry),
            inline_series,
            "{shards} shards: folded counters and port gauges"
        );
        assert_eq!(
            registry.counter(metrics::FLEET_REPORTS_ROUTED),
            registry.counter(metrics::GRAPH_REPORTS),
            "{shards} shards: every routed report reached a graph"
        );
    }
}

/// A recorder that counts every call made to it and forwards the metric
/// calls to a registry.
#[derive(Debug, Default)]
struct CountingRecorder {
    calls: Mutex<u64>,
    registry: Registry,
}

impl CountingRecorder {
    fn calls(&self) -> u64 {
        *self.calls.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn tick(&self) {
        *self.calls.lock().unwrap_or_else(PoisonError::into_inner) += 1;
    }
}

impl Recorder for CountingRecorder {
    fn enabled(&self) -> bool {
        self.tick();
        true
    }

    fn add(&self, name: &'static str, label: Option<Label>, delta: u64) {
        self.tick();
        self.registry.add(name, label, delta);
    }

    fn set_gauge(&self, name: &'static str, label: Option<Label>, value: f64) {
        self.tick();
        self.registry.set_gauge(name, label, value);
    }

    fn observe(&self, name: &'static str, label: Option<Label>, value: u64) {
        self.tick();
        self.registry.observe(name, label, value);
    }
}

/// One push through `engine`: returns the recorder calls it made, checks
/// that a following empty push makes none, then finishes the engine.
fn calls_during_one_push<X: Executor>(
    mut engine: Engine<EmbeddedIdentity, X>,
    rec: &CountingRecorder,
    reports: &[TagReport],
) -> u64 {
    let before = rec.calls();
    let snaps = engine.push(reports.iter().copied());
    let calls = rec.calls() - before;
    assert!(snaps.is_empty(), "no cadence point lies inside the push");
    let before = rec.calls();
    assert!(engine.push(std::iter::empty()).is_empty());
    assert_eq!(rec.calls(), before, "an empty push makes no recorder call");
    assert!(engine.finish().is_empty());
    calls
}

#[test]
fn a_push_makes_a_bounded_number_of_recorder_calls() {
    // 10,002 reads from 3 users over 4 s of stream: less than both the
    // 25 s window and the 5 s cadence, so no snapshot or eviction fires.
    let reports: Vec<TagReport> = (0..10_002u32)
        .map(|i| {
            let t = f64::from(i) * 0.0004;
            TagReport {
                time_s: t,
                epc: Epc96::monitor(u64::from(i % 3) + 1, 0),
                antenna_port: 1,
                channel_index: 3,
                phase_rad: 1.0 + (0.4 * t).sin() * 0.08,
                rssi_dbm: -52.0,
                doppler_hz: 0.0,
            }
        })
        .collect();
    let n = reports.len() as u64;
    let config = PipelineConfig::paper_default;
    let resolver = || EmbeddedIdentity::new([1, 2, 3]);

    let rec = Arc::new(CountingRecorder::default());
    let inline = StreamingMonitor::new(config(), resolver(), 25.0, 5.0)
        .expect("valid config")
        .with_recorder(SharedRecorder::new(rec.clone()));
    let calls = calls_during_one_push(inline, &rec, &reports);
    assert!(calls <= 32, "inline push made {calls} recorder calls");
    assert_eq!(rec.registry.counter(metrics::REPORTS_INGESTED), n);
    assert_eq!(rec.registry.counter(metrics::GRAPH_REPORTS), n);

    let rec = Arc::new(CountingRecorder::default());
    let fleet = FleetEngine::observed(
        config(),
        resolver(),
        25.0,
        5.0,
        2,
        SharedRecorder::new(rec.clone()),
    )
    .expect("valid config");
    let calls = calls_during_one_push(fleet, &rec, &reports);
    assert!(calls <= 32, "2-shard push made {calls} recorder calls");
    assert_eq!(rec.registry.counter(metrics::REPORTS_INGESTED), n);
    assert_eq!(rec.registry.counter(metrics::FLEET_REPORTS_ROUTED), n);
    assert_eq!(rec.registry.counter(metrics::GRAPH_REPORTS), n);
}
