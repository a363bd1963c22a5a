//! Loopback integration tests for the ingest server: a simulated reader
//! fleet streams over real TCP and the served snapshots must be
//! bit-identical to an inline `FleetEngine` run, both in the shutdown log
//! and live over HTTP, with every report accepted and none shed. ci.sh
//! repeats this suite six times in release.

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

/// One reader's frames in send order, each a batch and the reader clock
/// it carries; an empty batch goes out as a Heartbeat.
type Frames = Vec<(Vec<TagReport>, f64)>;

/// Batches of 64 reports, each stamped with its last report's time.
fn chunked(reports: &[TagReport]) -> Frames {
    reports
        .chunks(64)
        .map(|chunk| (chunk.to_vec(), chunk.last().map_or(0.0, |r| r.time_s)))
        .collect()
}

/// Width of the time slices a reader flushes on a timer.
const SLICE_S: f64 = 0.5;

/// Consecutive `SLICE_S` slices, as a reader flushing on a timer sends
/// them: slice `k` holds the reports in `((k-1)·SLICE_S, k·SLICE_S]`, may
/// be empty, and carries the reader clock at its end.
fn time_sliced(reports: &[TagReport]) -> Frames {
    let mut frames: Frames = vec![(Vec::new(), SLICE_S)];
    for r in reports {
        while r.time_s > SLICE_S * frames.len() as f64 {
            frames.push((Vec::new(), SLICE_S * (frames.len() + 1) as f64));
        }
        frames.last_mut().expect("one slice").0.push(*r);
    }
    frames
}

/// Streams each reader's frames over its own TCP session and thread,
/// then says Goodbye.
fn feed(handle: &ServerHandle, readers: Vec<Frames>) {
    let ingest = handle.ingest_addr();
    // The server opens a reader's merge lane before it acks the Hello, so
    // once every reader holds its Ack all lanes are open, as in the inline
    // reference; a reader streaming before another connected would be
    // merged ahead of it.
    let handshaken = std::sync::Arc::new(std::sync::Barrier::new(readers.len()));
    let feeders: Vec<_> = readers
        .into_iter()
        .enumerate()
        .map(|(idx, frames)| {
            let reader_id = idx as u32 + 1;
            let handshaken = handshaken.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(ingest).expect("connect");
                let mut client =
                    epcgen2::client::ReaderClient::connect(stream, reader_id, 0).expect("hello");
                handshaken.wait();
                for (batch, clock) in &frames {
                    if batch.is_empty() {
                        client.send_heartbeat(*clock).expect("heartbeat");
                    } else {
                        client.send_batch(batch, *clock).expect("batch");
                    }
                }
                client.goodbye().expect("goodbye");
            })
        })
        .collect();
    for f in feeders {
        f.join().expect("feeder");
    }
}

fn feed_and_shutdown(handle: ServerHandle, streams: &[Vec<TagReport>]) -> Vec<RateSnapshot> {
    feed(&handle, streams.iter().map(|s| chunked(s)).collect());
    handle.shutdown()
}

/// The per-reader streams in the order the server's lane merge releases
/// them.
fn merged(streams: &[Vec<TagReport>]) -> Vec<TagReport> {
    let mut merger = LaneMerger::new();
    for (idx, reports) in streams.iter().enumerate() {
        let reader_id = idx as u32 + 1;
        let last = reports.last().map_or(0.0, |r| r.time_s);
        merger.push(reader_id, reports.clone(), last);
    }
    merger.drain_all()
}

fn inline_reference(streams: &[Vec<TagReport>]) -> Vec<RateSnapshot> {
    let cfg = test_config();
    let mut fleet = tagbreathe::FleetEngine::new(
        PipelineConfig::paper_default(),
        epcgen2::OpenAdmission,
        cfg.window_s,
        cfg.update_every_s,
        cfg.shards,
    )
    .expect("fleet");
    let mut snapshots = fleet.push(merged(streams));
    snapshots.extend(fleet.finish());
    snapshots
}

/// Every `…_bits` field of a `/snapshots` body in document order: per
/// snapshot its time, then each user's rate and effort.
fn served_bits(body: &str) -> Vec<u64> {
    body.split("_bits\":\"0x")
        .skip(1)
        .map(|rest| {
            let hex: String = rest.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
            u64::from_str_radix(&hex, 16).expect("hex bit pattern")
        })
        .collect()
}

/// The [`served_bits`] sequence of a snapshot stream.
fn snapshot_bits(snapshots: &[RateSnapshot]) -> Vec<u64> {
    let mut bits = Vec::new();
    for snap in snapshots {
        bits.push(snap.time_s.to_bits());
        for (user, rate) in &snap.rates_bpm {
            bits.push(rate.to_bits());
            bits.push(snap.effort_rms.get(user).copied().unwrap_or(0.0).to_bits());
        }
    }
    bits
}

/// Sums every sample of the counter `name` in a Prometheus body, across
/// labels.
fn counter_total(body: &str, name: &str) -> u64 {
    body.lines()
        .filter(|line| {
            line.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with([' ', '{']))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .map(|v| v as u64)
        .sum()
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
fn two_readers_in_time_slices_serve_a_bit_exact_live_surface() {
    // 15.25 s puts the last cadence point crossed live (15 s) at the
    // start of the final slice: that snapshot is published only once both
    // sessions have sent their last Batch, so every report is counted by
    // the time it is.
    let streams = vec![capture(1, 51, 15.25), capture(2, 52, 15.25)];
    let reference = inline_reference(&streams);
    let live = inline_snapshot_count(&merged(&streams));
    let last_live_s = reference[live as usize - 1].time_s;
    let frames: Vec<Frames> = streams.iter().map(|s| time_sliced(s)).collect();
    let slices = frames.iter().map(Vec::len).max().unwrap_or(0);
    assert!(
        last_live_s >= SLICE_S * (slices - 1) as f64,
        "the last live cadence point ({last_live_s} s) must fall in the final slice"
    );
    let sent: usize = streams.iter().map(Vec::len).sum();

    let handle = start_server();
    feed(&handle, frames);
    assert_eq!(
        handle.wait_published(live, Duration::from_secs(10)),
        live,
        "every live snapshot must be published"
    );

    let (_, body) = http_get(&handle, "/snapshots");
    assert_eq!(body.matches("time_s_bits").count() as u64, live);
    assert!(
        snapshot_bits(&reference).starts_with(&served_bits(&body)),
        "/snapshots bits must be a prefix of the inline reference"
    );

    let (_, body) = http_get(&handle, "/slo");
    obs::json::validate(&body).expect("/slo must be valid JSON");
    for objective in ["snapshot_lag_p99", "shed_ratio", "bytes_per_resident_user"] {
        assert!(body.contains(objective), "/slo lacks {objective}: {body}");
    }

    let (_, body) = http_get(&handle, "/status");
    for section in ["SLOs", "snapshot lag by stage", "shards", "ingest"] {
        assert!(body.contains(section), "/status lacks {section:?}: {body}");
    }

    let (_, body) = http_get(&handle, "/metrics");
    assert_eq!(
        counter_total(&body, "tagbreathe_server_reports_total"),
        sent as u64,
        "every sent report must be accepted"
    );
    assert_eq!(
        counter_total(&body, "tagbreathe_server_reports_shed_total"),
        0,
        "no report may be shed"
    );

    assert_bit_identical(&handle.shutdown(), &reference);
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

/// Every long-lived server thread carries its role's name, so per-role
/// CPU can be read from `/proc/<pid>/task/*/{comm,schedstat}`. A thread
/// takes its name when it first runs, so the test first makes each role
/// do work it can see: the session acks the Hello, the engine and the
/// shards publish a snapshot, and the HTTP thread answers a request.
#[cfg(target_os = "linux")]
#[test]
fn server_threads_are_named_by_role() {
    let mut reports = capture(1, 92, 5.0);
    let crossing = reports
        .iter()
        .position(|r| r.time_s >= 2.5)
        .expect("capture reaches the 2.5 s cadence point");
    reports.truncate(crossing + 1);
    let handle = start_server();
    let stream = TcpStream::connect(handle.ingest_addr()).expect("connect");
    let mut client = epcgen2::client::ReaderClient::connect(stream, 1, 0).expect("hello");
    let clock = reports.last().map_or(0.0, |r| r.time_s);
    client.send_batch(&reports, clock).expect("batch");
    let published = handle.wait_published(1, Duration::from_secs(10));
    let (status, _) = http_get(&handle, "/healthz");
    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .collect();
    drop(client);
    let _ = handle.shutdown();
    assert_eq!(published, 1, "a snapshot within 10 s");
    assert!(status.contains("200"), "/healthz: {status}");
    for role in [
        "tb-engine",
        "tb-ingest",
        "tb-http",
        "tb-session-1",
        "tb-shard-0",
        "tb-shard-1",
    ] {
        assert!(names.iter().any(|n| n == role), "no {role} among {names:?}");
    }
}
