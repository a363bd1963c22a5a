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
use tagbreathe_suite::obs::{json, Registry};
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

    let mut sm = monitor().with_recorder(flight.tracer());
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
    let mut sm = monitor().with_recorder(SharedRecorder::new(ring.clone()));
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
    use tagbreathe_suite::tagbreathe::{detect_apnea, ApneaConfig};

    let reports = apnea_capture();
    let mut flight =
        FlightDiagnostics::new(1 << 16, TriggerConfig::default_config()).expect("flight setup");
    let registry = Registry::new();
    let tracer = flight.tracer();

    let analysis = BreathMonitor::paper_default().analyze(&reports, &EmbeddedIdentity::new([1]));
    let user = analysis.users[&1].as_ref().expect("analysable");
    let quality = assess_observed(1, user, &QualityThresholds::default_thresholds(), &tracer);
    flight.scan_quality(1, 90.0, &quality, &registry);
    let episodes = detect_apnea(&user.breath_signal, &ApneaConfig::default_config())
        .expect("valid apnea config");
    assert!(!episodes.is_empty(), "apnea waveform yields episodes");
    let captured = flight.scan_apnea(1, &episodes, &registry);
    assert_eq!(captured, episodes.len().min(8));
    assert!(flight
        .bundles()
        .iter()
        .any(|b| b.anomaly.kind == AnomalyKind::Apnea));
    // The assessor and the apnea scan left their instants in the ring.
    let events = flight.ring().snapshot();
    for name in ["quality_grade", "apnea_episode"] {
        assert!(events.iter().any(|e| e.name == name), "no {name:?} events");
    }
}

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over every field of every event except `dur_ns` (a wall-clock
/// reading), floats as their bits.
fn event_digest(events: &[tagbreathe_suite::obs::TraceEvent]) -> u64 {
    use tagbreathe_suite::obs::trace::EventKind;
    events.iter().fold(0xcbf2_9ce4_8422_2325, |h, e| {
        let kind: u8 = match e.kind {
            EventKind::Span => 0,
            EventKind::Instant => 1,
            EventKind::Read => 2,
        };
        let h = fnv1a(h, &[kind]);
        let h = fnv1a(h, e.name.as_bytes());
        let h = fnv1a(h, &e.time_s.to_bits().to_le_bytes());
        let h = fnv1a(h, &e.user.to_le_bytes());
        let h = fnv1a(h, &e.tag.to_le_bytes());
        let h = fnv1a(h, &[e.port]);
        let h = fnv1a(h, &e.channel.to_le_bytes());
        let h = fnv1a(h, &e.value_a.to_bits().to_le_bytes());
        fnv1a(h, &e.value_b.to_bits().to_le_bytes())
    })
}

#[test]
fn every_instrumented_stage_writes_a_pinned_event_stream_into_one_ring() {
    use std::collections::BTreeMap;
    use tagbreathe_suite::tagbreathe::patterns::analyze_pattern_observed;
    use tagbreathe_suite::tagbreathe::quality::{assess_observed, QualityThresholds};
    use tagbreathe_suite::tagbreathe::{detect_apnea, ApneaConfig};

    let reports = apnea_capture();
    let resolver = EmbeddedIdentity::new([1]);
    let mut flight =
        FlightDiagnostics::new(1 << 18, TriggerConfig::default_config()).expect("flight setup");
    let tracer = flight.tracer();

    // The inline engine: reads, phase outcomes, channel hops, rate
    // instants, evict and snapshot spans.
    let mut sm = monitor().with_recorder(flight.tracer());
    let _ = sm.push(reports.iter().copied());
    // The batch: demux / fold / analyze spans, phase outcomes, rates.
    let analysis = BreathMonitor::paper_default().analyze_observed(&reports, &resolver, &tracer);
    // Quality, apnea and pattern instants, with their scans.
    for (id, user) in analysis.successes() {
        let quality = assess_observed(id, user, &QualityThresholds::default_thresholds(), &tracer);
        flight.scan_quality(id, 90.0, &quality, &NoopRecorder);
        let episodes = detect_apnea(&user.breath_signal, &ApneaConfig::default_config())
            .expect("valid apnea config");
        flight.scan_apnea(id, &episodes, &NoopRecorder);
        analyze_pattern_observed(&user.breath_signal, id, &tracer);
    }

    assert_eq!(flight.ring().dropped(), 0, "the ring holds the whole run");
    let events = flight.ring().snapshot();
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for e in &events {
        *counts.entry(e.name).or_default() += 1;
    }
    let counts: Vec<(&str, usize)> = counts.into_iter().collect();
    assert_eq!(
        counts,
        [
            ("analyze", 1),
            ("apnea_episode", 2),
            ("channel_hop", 449),
            ("demux", 1),
            ("evict", 17),
            ("fold", 1),
            ("pattern", 1),
            ("phase_accept", 11188),
            ("phase_reject", 116),
            ("quality_grade", 1),
            ("rate", 18),
            ("read", 5652),
            ("snapshot", 17),
        ]
    );
    assert_eq!(event_digest(&events), 0x3283_e68c_5097_ce14);
}
