//! Acceptance tests for the freshness/SLO layer: stage-attributed
//! snapshot-lag histograms after a loopback run, burn-rate machines that
//! reach Burning under an impossible objective (and capture a
//! flight-recorder bundle), and a disabled-recorder path that stays
//! bit-identical and cheap.

use obs::freshness::Stage;
use obs::recorder::{Label, SharedRecorder};
use obs::registry::Registry;
use obs::slo::SloState;
use server::{ServerConfig, ServerHandle, SloConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use tagbreathe_suite::prelude::*;

fn capture(user: u64, seed: u64, secs: f64) -> Vec<TagReport> {
    let scenario = Scenario::builder()
        .subject(Subject::paper_default(user, 2.0))
        .build();
    let reader = Reader::new(
        ReaderConfig::paper_default().with_seed(seed),
        vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
    )
    .unwrap();
    reader.run(&ScenarioWorld::new(scenario), secs)
}

fn test_config() -> ServerConfig {
    ServerConfig {
        window_s: 12.5,
        update_every_s: 2.5,
        shards: 2,
        ..ServerConfig::default()
    }
}

fn http_get(handle: &ServerHandle, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(handle.http_addr()).expect("http connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("http write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("http read");
    let (head, body) = response.split_once("\r\n\r\n").expect("http headers");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Streams `reports` as reader 1, blocks until the server has published
/// every snapshot the inline engine emits for them, and checks that
/// `user` was analysed.
fn feed_and_wait(handle: &ServerHandle, reports: &[TagReport], user: u64) {
    let cfg = test_config();
    let mut inline = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        epcgen2::OpenAdmission,
        cfg.window_s,
        cfg.update_every_s,
    )
    .expect("inline engine");
    let expected = inline.push(reports.to_vec()).len() as u64;
    let ingest = handle.ingest_addr();
    let reports = reports.to_vec();
    std::thread::spawn(move || {
        let stream = TcpStream::connect(ingest).expect("connect");
        let mut client = epcgen2::client::ReaderClient::connect(stream, 1, 0).expect("hello");
        for chunk in reports.chunks(64) {
            let clock = chunk.last().map_or(0.0, |r| r.time_s);
            client.send_batch(chunk, clock).expect("batch");
        }
        client.goodbye().expect("goodbye");
    })
    .join()
    .expect("feeder");
    assert!(
        handle.wait_published(expected, std::time::Duration::from_secs(10)) >= expected,
        "every snapshot of the capture must be published"
    );
    assert!(
        handle.latest_for(user).is_some(),
        "user {user} was never analysed"
    );
}

fn stage_count(registry: &Registry, stage: Stage) -> u64 {
    registry
        .labeled_histogram(
            tagbreathe::metrics::SNAPSHOT_LAG_NS,
            Some(Label::stage(stage.code())),
        )
        .map_or(0, |h| h.count())
}

#[test]
fn snapshot_lag_histograms_are_stage_attributed() {
    let handle = server::start(test_config()).expect("server must start");
    let registry = handle.registry();
    feed_and_wait(&handle, &capture(1, 51, 30.0), 1);

    // Exercise the HTTP surface so the http_serve stage has samples, and
    // pin the new endpoints while we are here.
    let (status, body) = http_get(&handle, "/slo");
    assert!(status.contains("200"), "slo: {status}");
    obs::json::validate(&body).expect("/slo must be valid JSON");
    assert!(body.contains("snapshot_lag_p99"), "{body}");
    assert!(body.contains("\"worst\""), "{body}");

    let (status, body) = http_get(&handle, "/status");
    assert!(status.contains("200"), "status: {status}");
    assert!(body.contains("slo"), "status carries the SLO table: {body}");
    assert!(
        body.contains("stage"),
        "status carries the lag table: {body}"
    );
    assert!(body.contains("shard"), "status carries shards: {body}");

    let (status, body) = http_get(&handle, "/status.html");
    assert!(status.contains("200"), "status.html: {status}");
    assert!(body.contains("<pre"), "html wraps the dashboard: {body}");

    let snapshots = handle.shutdown();
    assert!(!snapshots.is_empty(), "server must emit snapshots");

    for stage in [
        Stage::Total,
        Stage::LaneMerge,
        Stage::RingHandoff,
        Stage::ShardIngest,
        Stage::EpochMerge,
        Stage::HttpServe,
    ] {
        assert!(
            stage_count(&registry, stage) > 0,
            "stage {} must have lag samples",
            stage.as_str()
        );
    }
}

#[test]
fn impossible_objective_burns_and_captures_flight_bundle() {
    // A 0 ns lag objective is breached by every published snapshot, so
    // the burn-rate machine's freshly-filled window is all-bad and the
    // SLO goes straight to Burning — which must capture a bundle.
    let config = ServerConfig {
        slo: SloConfig {
            snapshot_lag_p99_ns: 0,
            ..SloConfig::default()
        },
        ..test_config()
    };
    let handle = server::start(config).expect("server must start");
    let registry = handle.registry();
    feed_and_wait(&handle, &capture(1, 61, 30.0), 1);

    let rows = handle.slo_rows();
    let lag_row = rows
        .iter()
        .find(|r| r.name == "snapshot_lag_p99")
        .expect("lag SLO declared");
    assert_eq!(lag_row.state, SloState::Burning, "{lag_row:?}");
    assert!(lag_row.value.is_some(), "lag must be measured");

    let (status, body) = http_get(&handle, "/slo");
    assert!(status.contains("200"), "slo: {status}");
    assert!(body.contains("\"worst\": \"burning\""), "{body}");

    let (status, body) = http_get(&handle, "/bundle");
    assert!(
        status.contains("200"),
        "breach must produce a bundle: {status}"
    );
    assert!(
        body.contains("slo_breach"),
        "bundle names the anomaly: {body}"
    );

    let transitions = registry.counter(server::metrics::SERVER_SLO_TRANSITIONS_TOTAL);
    assert!(transitions >= 1, "transition counter must tick");
    let state = registry.labeled_gauge(server::metrics::SERVER_SLO_STATE, Some(Label::code(0)));
    assert_eq!(state, Some(2.0), "state gauge carries Burning");

    let _ = handle.shutdown();
}

#[test]
fn clock_skew_gauge_tracks_a_deliberately_skewed_reader() {
    let handle = server::start(test_config()).expect("server must start");
    let registry = handle.registry();
    let reports = capture(1, 71, 10.0);
    let ingest = handle.ingest_addr();
    std::thread::spawn(move || {
        let stream = TcpStream::connect(ingest).expect("connect");
        // Hello at reader clock 0, then frames stamped two minutes ahead
        // of wall time: the min-skew estimator must go strongly negative.
        let mut client = epcgen2::client::ReaderClient::connect(stream, 1, 0).expect("hello");
        for chunk in reports.chunks(64) {
            let clock = chunk.last().map_or(0.0, |r| r.time_s) + 120.0;
            client.send_batch(chunk, clock).expect("batch");
        }
        client.goodbye().expect("goodbye");
    })
    .join()
    .expect("feeder");
    // Shutdown joins the session threads, so every frame has been seen.
    let _ = handle.shutdown();

    let skew = registry.labeled_gauge(
        server::metrics::SERVER_READER_CLOCK_SKEW_S,
        Some(Label::reader(1)),
    );
    assert!(
        skew.is_some_and(|s| s < -60.0),
        "skew gauge must reflect the injected offset, got {skew:?}"
    );
}

#[test]
fn disabled_recorder_is_bit_identical_and_cheap() {
    let reports = capture(1, 81, 30.0);
    let cfg = test_config();

    // Observed run: recording enabled end to end.
    let registry = Arc::new(Registry::new());
    let mut observed = tagbreathe::FleetEngine::observed(
        PipelineConfig::paper_default(),
        epcgen2::OpenAdmission,
        cfg.window_s,
        cfg.update_every_s,
        cfg.shards,
        SharedRecorder::new(registry.clone()),
    )
    .expect("observed fleet");
    let mut observed_snaps = Vec::new();
    for chunk in reports.chunks(64) {
        observed_snaps.extend(observed.push(chunk.to_vec()));
    }
    observed_snaps.extend(observed.finish());

    // Disabled run: the no-op recorder path, timed per pushed report.
    let mut plain = tagbreathe::FleetEngine::new(
        PipelineConfig::paper_default(),
        epcgen2::OpenAdmission,
        cfg.window_s,
        cfg.update_every_s,
        cfg.shards,
    )
    .expect("plain fleet");
    let mut plain_snaps = Vec::new();
    let started = std::time::Instant::now();
    for chunk in reports.chunks(64) {
        plain_snaps.extend(plain.push(chunk.to_vec()));
    }
    let push_elapsed = started.elapsed();
    plain_snaps.extend(plain.finish());

    assert_eq!(observed_snaps.len(), plain_snaps.len(), "snapshot count");
    for (o, p) in observed_snaps.iter().zip(&plain_snaps) {
        assert_eq!(o.time_s.to_bits(), p.time_s.to_bits(), "snapshot time");
        assert_eq!(o.rates_bpm.len(), p.rates_bpm.len(), "user count");
        for ((ou, ov), (pu, pv)) in o.rates_bpm.iter().zip(&p.rates_bpm) {
            assert_eq!(ou, pu, "user set");
            assert_eq!(ov.to_bits(), pv.to_bits(), "rate bits for user {ou}");
        }
    }

    // The per-report push cost on the disabled path sits in a ~50–110 ns
    // band on dev hardware; assert a generous multiple so the test pins
    // gross regressions (per-report allocation, lag bookkeeping leaking
    // past the recording gate) without flaking on loaded CI runners.
    let per_report_ns = push_elapsed.as_nanos() as f64 / reports.len().max(1) as f64;
    assert!(
        per_report_ns < 5_000.0,
        "disabled-path push cost {per_report_ns:.0} ns/report exceeds budget"
    );
}
