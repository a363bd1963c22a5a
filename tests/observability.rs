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

use std::sync::Arc;
use tagbreathe_suite::obs::trace::NoopTracer;
use tagbreathe_suite::obs::{Registry, SharedRecorder};
use tagbreathe_suite::prelude::*;
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
