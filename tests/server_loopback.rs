//! Loopback integration tests for the ingest server: a simulated reader
//! fleet streams over real TCP and the served snapshots must be
//! bit-identical to an inline `FleetEngine` run. The heavier sweep lives
//! in the `loopback_soak` bench binary (wired into ci.sh); these tests
//! pin the same property at unit-test scale plus the HTTP endpoints.

use server::{LaneMerger, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
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

fn start_server() -> ServerHandle {
    server::start(test_config()).expect("server must start")
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

/// Snapshots the inline engine emits for `reports` — what the server
/// publishes once it has served them all.
fn inline_snapshot_count(reports: &[TagReport]) -> u64 {
    let cfg = test_config();
    let mut inline = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        epcgen2::OpenAdmission,
        cfg.window_s,
        cfg.update_every_s,
    )
    .expect("inline engine");
    inline.push(reports.to_vec()).len() as u64
}

fn feed_and_shutdown(handle: ServerHandle, streams: &[Vec<TagReport>]) -> Vec<RateSnapshot> {
    let ingest = handle.ingest_addr();
    // The server opens a reader's merge lane before it acks the Hello, so
    // once every reader holds its Ack all lanes are open, as in the inline
    // reference; a reader streaming before another connected would be
    // merged ahead of it.
    let handshaken = std::sync::Arc::new(std::sync::Barrier::new(streams.len()));
    let feeders: Vec<_> = streams
        .iter()
        .enumerate()
        .map(|(idx, reports)| {
            let reports = reports.clone();
            let reader_id = idx as u32 + 1;
            let handshaken = handshaken.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(ingest).expect("connect");
                let mut client =
                    epcgen2::client::ReaderClient::connect(stream, reader_id, 0).expect("hello");
                handshaken.wait();
                for chunk in reports.chunks(64) {
                    let clock = chunk.last().map_or(0.0, |r| r.time_s);
                    client.send_batch(chunk, clock).expect("batch");
                }
                client.goodbye().expect("goodbye");
            })
        })
        .collect();
    for f in feeders {
        f.join().expect("feeder");
    }
    handle.shutdown()
}

fn inline_reference(streams: &[Vec<TagReport>]) -> Vec<RateSnapshot> {
    let mut merger = LaneMerger::new();
    for (idx, reports) in streams.iter().enumerate() {
        let reader_id = idx as u32 + 1;
        let last = reports.last().map_or(0.0, |r| r.time_s);
        merger.push(reader_id, reports.clone(), last);
    }
    let merged = merger.drain_all();
    let cfg = test_config();
    let mut fleet = tagbreathe::FleetEngine::new(
        PipelineConfig::paper_default(),
        epcgen2::OpenAdmission,
        cfg.window_s,
        cfg.update_every_s,
        cfg.shards,
    )
    .expect("fleet");
    let mut snapshots = fleet.push(merged);
    snapshots.extend(fleet.finish());
    snapshots
}

fn assert_bit_identical(served: &[RateSnapshot], reference: &[RateSnapshot]) {
    assert_eq!(served.len(), reference.len(), "snapshot count");
    for (s, r) in served.iter().zip(reference) {
        assert_eq!(s.time_s.to_bits(), r.time_s.to_bits(), "snapshot time");
        assert_eq!(s.rates_bpm.len(), r.rates_bpm.len(), "user count");
        for ((su, sv), (ru, rv)) in s.rates_bpm.iter().zip(&r.rates_bpm) {
            assert_eq!(su, ru, "user set");
            assert_eq!(sv.to_bits(), rv.to_bits(), "rate bits for user {su}");
        }
        for ((su, sv), (ru, rv)) in s.effort_rms.iter().zip(&r.effort_rms) {
            assert_eq!(su, ru, "effort user set");
            assert_eq!(sv.to_bits(), rv.to_bits(), "effort bits for user {su}");
        }
    }
}

#[test]
fn single_reader_snapshots_bit_identical_to_inline() {
    let streams = vec![capture(1, 11, 15.0)];
    let reference = inline_reference(&streams);
    let served = feed_and_shutdown(start_server(), &streams);
    assert!(!served.is_empty(), "server must emit snapshots");
    assert_bit_identical(&served, &reference);
}

#[test]
fn two_readers_merge_bit_identical_to_inline() {
    let streams = vec![capture(1, 21, 15.0), capture(2, 22, 15.0)];
    let reference = inline_reference(&streams);
    let served = feed_and_shutdown(start_server(), &streams);
    assert!(!served.is_empty(), "server must emit snapshots");
    assert_bit_identical(&served, &reference);
}

#[test]
fn http_surface_serves_metrics_snapshots_and_health() {
    let handle = start_server();
    let streams = [capture(1, 31, 30.0)];
    let ingest = handle.ingest_addr();

    let reports = streams[0].clone();
    let feeder = std::thread::spawn(move || {
        let stream = TcpStream::connect(ingest).expect("connect");
        let mut client = epcgen2::client::ReaderClient::connect(stream, 1, 0).expect("hello");
        client
            .send_batch(&reports, reports.last().map_or(0.0, |r| r.time_s))
            .expect("batch");
        client.goodbye().expect("goodbye");
    });
    feeder.join().expect("feeder");

    // Wait until the engine has published every snapshot of the capture,
    // so the HTTP surface has something substantive to serve.
    let expected = inline_snapshot_count(&streams[0]);
    assert!(
        handle.wait_published(expected, Duration::from_secs(10)) >= expected,
        "every snapshot of the capture must be published"
    );
    assert!(
        handle.latest_for(1).is_some(),
        "user 1 must be analysed live"
    );

    let (status, body) = http_get(&handle, "/healthz");
    assert!(status.contains("200"), "healthz: {status}");
    assert_eq!(body.trim(), "ok");

    let (status, body) = http_get(&handle, "/metrics");
    assert!(status.contains("200"), "metrics: {status}");
    assert!(
        body.contains("tagbreathe_server_reports_total"),
        "prometheus body must carry server counters"
    );

    let (status, body) = http_get(&handle, "/metrics.json");
    assert!(status.contains("200"), "metrics.json: {status}");
    obs::json::validate(&body).expect("metrics.json must be valid JSON");

    let (status, body) = http_get(&handle, "/snapshots");
    assert!(status.contains("200"), "snapshots: {status}");
    obs::json::validate(&body).expect("/snapshots must be valid JSON");
    assert!(body.contains("rate_bpm_bits"), "bit-faithful floats served");

    // The analysed user is servable; an unknown one is a 404.
    let (status, body) = http_get(&handle, "/snapshot/1");
    assert!(status.contains("200"), "snapshot/1: {status} {body}");
    obs::json::validate(&body).expect("/snapshot/1 must be valid JSON");
    let (status, _) = http_get(&handle, "/snapshot/999");
    assert!(status.contains("404"), "unknown user: {status}");

    // No anomaly fired in a calm capture: /bundle is a 404, not a crash.
    let (status, _) = http_get(&handle, "/bundle");
    assert!(
        status.contains("404") || status.contains("200"),
        "bundle: {status}"
    );

    // Unknown paths and non-GET are clean errors.
    let (status, _) = http_get(&handle, "/nope");
    assert!(status.contains("404"), "unknown path: {status}");

    let snapshots = handle.shutdown();
    assert!(!snapshots.is_empty());
}

#[test]
fn latest_for_matches_final_snapshot() {
    let streams = [capture(1, 41, 30.0)];
    let handle = start_server();
    let ingest = handle.ingest_addr();
    let reports = streams[0].clone();
    std::thread::spawn(move || {
        let stream = TcpStream::connect(ingest).expect("connect");
        let mut client = epcgen2::client::ReaderClient::connect(stream, 1, 0).expect("hello");
        client
            .send_batch(&reports, reports.last().map_or(0.0, |r| r.time_s))
            .expect("batch");
        client.goodbye().expect("goodbye");
    })
    .join()
    .expect("feeder");
    // The live per-user view fills in as the engine catches up.
    let expected = inline_snapshot_count(&streams[0]);
    assert!(
        handle.wait_published(expected, Duration::from_secs(5)) >= expected,
        "every snapshot of the capture must be published"
    );
    let live = handle.latest_for(1);
    let snapshots = handle.shutdown();
    let last_rate = snapshots
        .iter()
        .rev()
        .find_map(|s| s.rates_bpm.get(&1).copied());
    assert!(last_rate.is_some(), "user 1 must be analysed");
    let live = live.expect("live view must surface user 1");
    assert!(
        snapshots
            .iter()
            .any(|s| s.rates_bpm.get(&1).map(|r| r.to_bits()) == Some(live.rate_bpm.to_bits())),
        "live view must match one of the emitted snapshots"
    );
}

#[test]
fn idle_session_still_publishes_the_crossing_snapshot() {
    // End the input on the report that crosses the 10 s cadence point and
    // keep the session open: no Goodbye, no heartbeat, no later batch. The
    // shard parts of that last epoch finish after the push that requested
    // them, so only the engine's own tick can publish it.
    let mut reports = capture(1, 91, 15.0);
    let crossing = reports
        .iter()
        .position(|r| r.time_s >= 10.0)
        .expect("capture reaches the 10 s cadence point");
    reports.truncate(crossing + 1);
    let expected = inline_snapshot_count(&reports);
    assert_eq!(expected, 4, "cadence points at 2.5, 5, 7.5 and 10 s");

    let handle = start_server();
    let stream = TcpStream::connect(handle.ingest_addr()).expect("connect");
    let mut client = epcgen2::client::ReaderClient::connect(stream, 1, 0).expect("hello");
    for chunk in reports.chunks(64) {
        let clock = chunk.last().map_or(0.0, |r| r.time_s);
        client.send_batch(chunk, clock).expect("batch");
    }
    let seen = handle.wait_published(expected, Duration::from_secs(5));
    drop(client);
    let _ = handle.shutdown();
    assert_eq!(
        seen, expected,
        "an idle session must not hold back finished snapshots"
    );
}
