//! Loopback soak: a simulated reader fleet streams reports over real TCP
//! into an in-process `tagbreathe-server`, and the snapshots the service
//! serves must be **bit-identical** to an inline `FleetEngine` run over
//! the same per-reader streams.
//!
//! ```text
//! loopback_soak [--smoke] [--out PATH]
//! ```
//!
//! Each simulated reader gets its own TCP session (own thread, so the
//! arrival interleave at the server is real), its reports in stream-time
//! order, chunked into Batch frames with periodic Heartbeats. The
//! reference run feeds the same per-reader streams through the same
//! watermark merge and fleet configuration inline. Three comparisons
//! gate success:
//!
//! 1. every snapshot pulled from `/snapshots` over HTTP (as
//!    `f64::to_bits` hex strings) must be a bit-exact prefix of the
//!    reference snapshot stream;
//! 2. the full snapshot log returned at shutdown must equal the
//!    reference stream bit-for-bit;
//! 3. `/metrics` must show every sent report accepted and none shed.
//!
//! Exits non-zero on any mismatch. Writes a machine-readable JSON
//! summary (validated before writing) to `--out`
//! (default `BENCH_loopback.json`).

use breathing::{Scenario, Subject};
use epcgen2::client::ReaderClient;
use epcgen2::{OpenAdmission, Reader, ReaderConfig, ScenarioWorld, TagReport};
use rfchannel::{Antenna, Vec3};
use server::{LaneMerger, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use tagbreathe::{FleetEngine, PipelineConfig, RateSnapshot};

struct SoakConfig {
    readers: usize,
    duration_s: f64,
    batch_span_s: f64,
    window_s: f64,
    update_every_s: f64,
    shards: usize,
}

impl SoakConfig {
    fn smoke() -> Self {
        SoakConfig {
            readers: 2,
            duration_s: 20.0,
            batch_span_s: 0.5,
            window_s: 12.5,
            update_every_s: 2.0,
            shards: 2,
        }
    }

    fn full() -> Self {
        SoakConfig {
            readers: 4,
            duration_s: 60.0,
            batch_span_s: 0.25,
            window_s: 25.0,
            update_every_s: 2.0,
            shards: 4,
        }
    }
}

/// One simulated reader: a breathing subject captured by its own reader,
/// at a per-reader distance so the streams are not clones of each other.
fn capture_reader(reader_idx: usize, duration_s: f64) -> Vec<TagReport> {
    let user = reader_idx as u64 + 1;
    let scenario = Scenario::builder()
        .subject(Subject::paper_default(user, 1.5 + 0.25 * reader_idx as f64))
        .build();
    let reader = match Reader::new(
        ReaderConfig::paper_default().with_seed(reader_idx as u64 + 7),
        vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: reader construction failed: {e:?}");
            std::process::exit(1);
        }
    };
    reader.run(&ScenarioWorld::new(scenario), duration_s)
}

/// Splits a time-ordered stream into batches spanning `span_s` each.
fn chunk_by_time(reports: &[TagReport], span_s: f64) -> Vec<Vec<TagReport>> {
    let mut out: Vec<Vec<TagReport>> = Vec::new();
    let mut edge = span_s;
    let mut current: Vec<TagReport> = Vec::new();
    for r in reports {
        while r.time_s > edge {
            out.push(std::mem::take(&mut current));
            edge += span_s;
        }
        current.push(*r);
    }
    out.push(current);
    out
}

/// The reference: same per-reader streams, same merge, same fleet
/// configuration, all inline.
fn reference_snapshots(streams: &[Vec<TagReport>], cfg: &SoakConfig) -> Vec<RateSnapshot> {
    let mut merger = LaneMerger::new();
    for (idx, stream) in streams.iter().enumerate() {
        let reader_id = u32::try_from(idx).unwrap_or(u32::MAX).saturating_add(1);
        merger.open(reader_id);
        let last = stream.last().map_or(0.0, |r| r.time_s);
        merger.push(reader_id, stream.clone(), last);
    }
    let merged = merger.drain_all();
    let mut fleet = match FleetEngine::new(
        PipelineConfig::paper_default(),
        OpenAdmission,
        cfg.window_s,
        cfg.update_every_s,
        cfg.shards,
    ) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: reference fleet construction failed: {e}");
            std::process::exit(1);
        }
    };
    let mut snapshots = fleet.push(merged);
    snapshots.extend(fleet.finish());
    snapshots
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let attempt = || -> std::io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: soak\r\nConnection: close\r\n\r\n"
        )?;
        let mut body = String::new();
        stream.read_to_string(&mut body)?;
        Ok(body)
    };
    match attempt() {
        Ok(response) => match response.split_once("\r\n\r\n") {
            Some((_, body)) => body.to_string(),
            None => String::new(),
        },
        Err(e) => {
            eprintln!("error: GET {path} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Pulls every `"<key>":"0x…"` hex bit-string out of a JSON body, in
/// document order.
fn extract_bits(body: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":\"0x");
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find(&needle) {
        let hex_start = at + needle.len();
        let hex: String = rest[hex_start..]
            .chars()
            .take_while(|c| c.is_ascii_hexdigit())
            .collect();
        if let Ok(bits) = u64::from_str_radix(&hex, 16) {
            out.push(bits);
        }
        rest = &rest[hex_start..];
    }
    out
}

/// Flattens a snapshot stream into the same bit sequence `/snapshots`
/// exposes: per snapshot `time_s`, then per user `rate` and `effort`.
fn snapshot_bits(snapshots: &[RateSnapshot]) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let mut times = Vec::new();
    let mut rates = Vec::new();
    let mut efforts = Vec::new();
    for snap in snapshots {
        times.push(snap.time_s.to_bits());
        for (&user, rate) in &snap.rates_bpm {
            rates.push(rate.to_bits());
            efforts.push(snap.effort_rms.get(&user).copied().unwrap_or(0.0).to_bits());
        }
    }
    (times, rates, efforts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_loopback.json".to_string());
    let cfg = if smoke {
        SoakConfig::smoke()
    } else {
        SoakConfig::full()
    };

    eprintln!(
        "# loopback_soak — {} readers × {} s, window {} s, {} shards",
        cfg.readers, cfg.duration_s, cfg.window_s, cfg.shards
    );

    let streams: Vec<Vec<TagReport>> = (0..cfg.readers)
        .map(|i| capture_reader(i, cfg.duration_s))
        .collect();
    let total_reports: usize = streams.iter().map(Vec::len).sum();

    let server_config = ServerConfig {
        window_s: cfg.window_s,
        update_every_s: cfg.update_every_s,
        shards: cfg.shards,
        ..ServerConfig::default()
    };
    let handle = match server::start(server_config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: server start failed: {e}");
            std::process::exit(1);
        }
    };
    let ingest = handle.ingest_addr();
    let http = handle.http_addr();

    // One thread per reader: real TCP, real interleave. The server opens
    // a reader's merge lane before it acks the Hello, so once every reader
    // holds its Ack all lanes are open, as in the reference; a reader that
    // streamed before another had connected would be merged ahead of it.
    let mut feeders = Vec::new();
    let handshaken = Arc::new(Barrier::new(streams.len()));
    for (idx, stream_reports) in streams.iter().enumerate() {
        let reader_id = u32::try_from(idx).unwrap_or(u32::MAX).saturating_add(1);
        let batches = chunk_by_time(stream_reports, cfg.batch_span_s);
        let span = cfg.batch_span_s;
        let handshaken = handshaken.clone();
        feeders.push(std::thread::spawn(move || {
            let stream = match TcpStream::connect(ingest) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: reader {reader_id} connect failed: {e}");
                    std::process::exit(1);
                }
            };
            let mut client = match ReaderClient::connect(stream, reader_id, 0) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: reader {reader_id} handshake failed: {e}");
                    std::process::exit(1);
                }
            };
            handshaken.wait();
            for (b, batch) in batches.iter().enumerate() {
                let clock = span * (b as f64 + 1.0);
                let sent = if batch.is_empty() {
                    client.send_heartbeat(clock).map_err(|e| e.to_string())
                } else {
                    client.send_batch(batch, clock).map_err(|e| e.to_string())
                };
                if let Err(e) = sent {
                    eprintln!("error: reader {reader_id} send failed: {e}");
                    std::process::exit(1);
                }
            }
            if let Err(e) = client.goodbye() {
                eprintln!("error: reader {reader_id} goodbye failed: {e}");
                std::process::exit(1);
            }
        }));
    }
    for f in feeders {
        if f.join().is_err() {
            eprintln!("error: feeder thread panicked");
            std::process::exit(1);
        }
    }

    // Wait until the engine has merged every sent report (session closes
    // release all lanes), so the live HTTP sample covers the whole run.
    for _ in 0..100 {
        let body = http_get(http, "/metrics");
        if handle_metric(&body, "tagbreathe_server_reports_merged_total") >= total_reports as u64 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let served = http_get(http, "/snapshots");
    let metrics_body = http_get(http, "/metrics");
    let health = http_get(http, "/healthz");

    // The operator surface must hold together under live load: /slo is
    // valid JSON with every declared objective, /status renders the
    // dashboard sections.
    let slo_body = http_get(http, "/slo");
    if let Err(e) = obs::json::validate(&slo_body) {
        eprintln!("error: /slo is not valid JSON: {e}");
        std::process::exit(1);
    }
    for name in ["snapshot_lag_p99", "shed_ratio", "bytes_per_resident_user"] {
        if !slo_body.contains(name) {
            eprintln!("error: /slo is missing objective {name}: {slo_body}");
            std::process::exit(1);
        }
    }
    let status_body = http_get(http, "/status");
    for section in ["SLOs", "snapshot lag by stage", "shards", "ingest"] {
        if !status_body.contains(section) {
            eprintln!("error: /status is missing section {section:?}: {status_body}");
            std::process::exit(1);
        }
    }

    let snapshots = handle.shutdown();
    let reference = reference_snapshots(&streams, &cfg);

    // 1. Shutdown log vs reference: full bit equality.
    let (ref_t, ref_r, ref_e) = snapshot_bits(&reference);
    let (got_t, got_r, got_e) = snapshot_bits(&snapshots);
    if (got_t, got_r, got_e) != (ref_t.clone(), ref_r.clone(), ref_e.clone()) {
        eprintln!(
            "error: shutdown snapshots diverged from inline reference \
             ({} served vs {} reference)",
            snapshots.len(),
            reference.len()
        );
        std::process::exit(1);
    }

    // 2. HTTP-served snapshots: bit-exact prefix of the reference.
    let http_t = extract_bits(&served, "time_s_bits");
    let http_r = extract_bits(&served, "rate_bpm_bits");
    let http_e = extract_bits(&served, "effort_rms_bits");
    if http_t.len() > ref_t.len()
        || http_t != ref_t[..http_t.len()]
        || http_r != ref_r[..http_r.len().min(ref_r.len())]
        || http_e != ref_e[..http_e.len().min(ref_e.len())]
    {
        eprintln!("error: /snapshots bits diverged from inline reference");
        std::process::exit(1);
    }

    // 3. Metrics: everything accepted, nothing shed, health green.
    let accepted: u64 = handle_metric(&metrics_body, "tagbreathe_server_reports_total");
    let shed: u64 = handle_metric(&metrics_body, "tagbreathe_server_reports_shed_total");
    if health.trim() != "ok" {
        eprintln!("error: /healthz said {health:?}");
        std::process::exit(1);
    }
    if accepted != total_reports as u64 || shed != 0 {
        eprintln!(
            "error: metrics mismatch — sent {total_reports}, accepted {accepted}, shed {shed}"
        );
        std::process::exit(1);
    }

    eprintln!(
        "# ok: {} snapshots bit-identical (HTTP prefix {}), {} reports accepted, 0 shed",
        snapshots.len(),
        http_t.len(),
        accepted
    );

    let json = format!(
        concat!(
            "{{\"config\":{{\"readers\":{},\"duration_s\":{},\"window_s\":{},",
            "\"update_every_s\":{},\"shards\":{}}},\"reports\":{},",
            "\"snapshots\":{},\"http_snapshots\":{},\"bit_identical\":true,",
            "\"reports_shed\":{}}}"
        ),
        cfg.readers,
        cfg.duration_s,
        cfg.window_s,
        cfg.update_every_s,
        cfg.shards,
        total_reports,
        snapshots.len(),
        http_t.len(),
        shed,
    );
    if let Err(e) = obs::json::validate(&json) {
        eprintln!("error: soak summary is not valid JSON: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("# wrote {out_path}");
}

/// Sums every sample of `name` (across labels) in a Prometheus body.
fn handle_metric(body: &str, name: &str) -> u64 {
    let mut total = 0u64;
    for line in body.lines() {
        if !line.starts_with(name) {
            continue;
        }
        let after = &line[name.len()..];
        // Either `name value` or `name{labels} value`.
        if !(after.starts_with(' ') || after.starts_with('{')) {
            continue;
        }
        if let Some(value) = line.rsplit(' ').next() {
            if let Ok(v) = value.parse::<f64>() {
                total += v as u64;
            }
        }
    }
    total
}
