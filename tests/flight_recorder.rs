//! Flight-recorder acceptance suite.
//!
//! The contract of the diagnostics loop, end to end over a simulated
//! capture: an injected anomaly (an apnea waveform whose windowed rate
//! jumps as breathing stops and resumes) must fire a trigger, the trigger
//! must capture a diagnostic bundle, and **replaying the bundle's
//! reconstructed report stream through a fresh streaming monitor must
//! reproduce the anomalous estimate** — within 0.1 bpm — because the
//! bundle's per-read provenance events carry the complete phase stream.
//! Both export formats (diagnostic-bundle JSON, Chrome trace-event JSON)
//! must satisfy the in-tree validator.

use std::sync::Arc;
use tagbreathe_suite::obs::trace::{chrome_trace, FlightRecorder};
use tagbreathe_suite::obs::{json, Registry, SharedTracer};
use tagbreathe_suite::prelude::*;
use tagbreathe_suite::tagbreathe::flight::{AnomalyKind, FlightDiagnostics, TriggerConfig};

/// A 90 s single-user session breathing 15 bpm in 30 s bursts separated by
/// 15 s apneas — the windowed rate collapses and recovers, guaranteeing a
/// rate jump between consecutive snapshots.
fn apnea_capture() -> Vec<TagReport> {
    let subject = Subject::new(
        1,
        Vec3::new(2.5, 0.0, 0.0),
        Vec3::new(-1.0, 0.0, 0.0),
        Posture::Lying,
        Waveform::WithApnea {
            rate_bpm: 15.0,
            breathe_s: 30.0,
            apnea_s: 15.0,
        },
        TagSite::ALL.to_vec(),
    );
    let scenario = Scenario::builder().subject(subject).build();
    Reader::paper_default().run(&ScenarioWorld::new(scenario), 90.0)
}

fn monitor() -> StreamingMonitor<EmbeddedIdentity> {
    StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new([1]),
        25.0,
        5.0,
    )
    .expect("valid config")
}

#[test]
fn injected_rate_jump_dumps_a_replayable_bundle() {
    let reports = apnea_capture();
    // The bundle window spans the whole session so the replay stream is
    // complete from t=0.
    let mut config = TriggerConfig::default_config();
    config.rate_jump_bpm = 5.0;
    config.bundle_window_s = 120.0;
    let mut flight = FlightDiagnostics::new(1 << 17, config).expect("flight setup");
    let registry = Registry::new();

    let mut sm = monitor().with_tracer(flight.tracer());
    let mut snaps = Vec::new();
    for snap in sm.push(reports.iter().copied()) {
        flight.scan(&snap, &registry);
        snaps.push(snap);
    }

    let bundles = flight.take_bundles();
    let bundle = bundles
        .iter()
        .find(|b| b.anomaly.kind == AnomalyKind::RateJump)
        .unwrap_or_else(|| panic!("no rate-jump bundle; fired: {bundles:?}"));
    assert_eq!(bundle.anomaly.user, 1);
    assert!(
        bundle.dropped_events == 0,
        "ring overflowed; bundle incomplete"
    );
    assert_eq!(
        registry.counter(tagbreathe_suite::tagbreathe::metrics::TRACE_DUMPS),
        bundles.len() as u64
    );

    // Replay the reconstructed report stream through a *fresh* monitor.
    let replay_reports = bundle.reports();
    assert!(
        replay_reports.len() > 100,
        "only {} reads reconstructed",
        replay_reports.len()
    );
    let mut replay = monitor();
    let replay_snaps = replay.push(replay_reports);

    // The snapshot that fired the trigger must reappear with the same
    // estimate, within 0.1 bpm.
    let t = bundle.anomaly.time_s;
    let replayed_bpm = replay_snaps
        .iter()
        .find(|s| (s.time_s - t).abs() < 1e-9)
        .and_then(|s| s.rates_bpm.get(&1))
        .copied()
        .unwrap_or_else(|| panic!("no replayed snapshot at t={t}: {replay_snaps:?}"));
    assert!(
        (replayed_bpm - bundle.anomaly.value).abs() < 0.1,
        "replay gave {replayed_bpm} bpm, anomaly recorded {} bpm",
        bundle.anomaly.value
    );

    // Both export formats satisfy the in-tree JSON validator.
    json::validate(&bundle.to_json()).expect("bundle JSON is well-formed");
    json::validate(&bundle.chrome_trace()).expect("bundle Chrome trace is well-formed");
    json::validate(&chrome_trace(&flight.ring().snapshot())).expect("full trace is well-formed");
}

#[test]
fn overflowed_ring_still_exports_a_valid_trace_and_counts_drops() {
    let reports = apnea_capture();
    let ring = Arc::new(FlightRecorder::with_capacity(64).expect("capacity"));
    let mut sm = monitor().with_tracer(SharedTracer::new(ring.clone()));
    let _ = sm.push(reports.iter().copied());

    assert!(ring.dropped() > 0, "64-slot ring should overflow");
    let events = ring.snapshot();
    assert_eq!(events.len(), 64, "ring keeps exactly its capacity");
    // Oldest-first ordering survives the (many) wraps.
    for pair in events.windows(2) {
        assert!(pair[0].time_s <= pair[1].time_s + 1e-9);
    }
    json::validate(&chrome_trace(&events)).expect("overflowed trace is well-formed");
}

#[test]
fn quality_and_apnea_scans_capture_bundles_end_to_end() {
    use tagbreathe_suite::tagbreathe::quality::{assess_observed, QualityThresholds};
    use tagbreathe_suite::tagbreathe::{detect_apnea_traced, ApneaConfig};

    let reports = apnea_capture();
    let mut flight =
        FlightDiagnostics::new(1 << 16, TriggerConfig::default_config()).expect("flight setup");
    let registry = Registry::new();
    let tracer = flight.tracer();

    let analysis = BreathMonitor::paper_default().analyze(&reports, &EmbeddedIdentity::new([1]));
    let user = analysis.users[&1].as_ref().expect("analysable");
    let quality = assess_observed(
        1,
        user,
        &QualityThresholds::default_thresholds(),
        &registry,
        tracer.as_dyn(),
    );
    flight.scan_quality(1, 90.0, &quality, &registry);
    let episodes = detect_apnea_traced(
        &user.breath_signal,
        &ApneaConfig::default_config(),
        1,
        tracer.as_dyn(),
    )
    .expect("valid apnea config");
    assert!(!episodes.is_empty(), "apnea waveform yields episodes");
    let captured = flight.scan_apnea(1, &episodes, &registry);
    assert_eq!(captured, episodes.len().min(8));
    assert!(flight
        .bundles()
        .iter()
        .any(|b| b.anomaly.kind == AnomalyKind::Apnea));
    // The traced twins left their instants in the ring.
    let events = flight.ring().snapshot();
    for name in ["quality_grade", "apnea_episode"] {
        assert!(events.iter().any(|e| e.name == name), "no {name:?} events");
    }
}
