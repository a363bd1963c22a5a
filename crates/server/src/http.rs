//! Minimal HTTP/1.1 observability surface (std-only).
//!
//! One thread accepts connections and answers each request inline —
//! every response closes the connection, requests are capped at 8 KiB
//! and must arrive within 1 s of accept, and only `GET` is implemented.
//! This is an *operator* surface (curl, Prometheus scrapes, the soak
//! harness), not a general web server.
//!
//! Endpoints (`docs/OPERATIONS.md` documents them for operators):
//!
//! | Path               | Body                                          |
//! |--------------------|-----------------------------------------------|
//! | `/metrics`         | Prometheus text exposition                    |
//! | `/metrics.json`    | The same registry as JSON                     |
//! | `/healthz`         | `ok`                                          |
//! | `/slo`             | SLO table with burn-rate states, JSON         |
//! | `/status`          | Operator dashboard, plain text                |
//! | `/status.html`     | The same dashboard, minimal HTML              |
//! | `/snapshot/{user}` | Latest analysis for the user, JSON            |
//! | `/snapshots`       | Full snapshot log with `f64::to_bits` fields  |
//! | `/bundle`          | Latest flight-recorder bundle, JSON, or 404   |

use crate::engine::{SharedStore, SnapshotStore};
use crate::metrics;
use crate::server::accept_until_stopped;
use obs::freshness::{duration_ns, Stage};
use obs::recorder::{Label, Recorder};
use obs::registry::Registry;
use obs::slo::{render_rows_json, render_rows_text, SloTable};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const MAX_REQUEST: usize = 8 * 1024;
/// Time from accept within which the whole request must arrive, or the
/// connection is dropped unanswered: a client trickling header bytes
/// would otherwise hold the only HTTP thread.
const REQUEST_DEADLINE: Duration = Duration::from_secs(1);
/// Silence after which a request is taken as complete.
const READ_IDLE: Duration = Duration::from_millis(500);

pub(crate) struct HttpState {
    pub registry: Arc<Registry>,
    pub store: Arc<SharedStore>,
    pub slo: Arc<Mutex<SloTable>>,
    pub shards: usize,
}

/// Accept loop; returns once `stop` is set and the blocked `accept` is
/// woken ([`ServerHandle::shutdown`](crate::ServerHandle::shutdown)).
pub(crate) fn run_http(listener: &TcpListener, state: &HttpState, stop: &AtomicBool) {
    accept_until_stopped(listener, stop, |stream| {
        state
            .registry
            .add(metrics::SERVER_HTTP_REQUESTS_TOTAL, None, 1);
        serve_one(stream, state);
    });
}

fn serve_one(mut stream: TcpStream, state: &HttpState) {
    let Some(request) = read_request(&mut stream, Instant::now() + REQUEST_DEADLINE) else {
        return;
    };
    let started = Instant::now();
    let (status, content_type, body) = route(&request, state);
    state.registry.observe(
        tagbreathe::metrics::SNAPSHOT_LAG_NS,
        Some(Label::stage(Stage::HttpServe.code())),
        duration_ns(started.elapsed()),
    );
    // Header and body leave in one write: a second write would go out as
    // a second segment, which Nagle's algorithm holds until the first is
    // acknowledged.
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Reads up to the end of the request headers, or [`READ_IDLE`] of
/// silence, and returns the request line (method + target). `None` once
/// `deadline` passes.
fn read_request(stream: &mut TcpStream, deadline: Instant) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let left = deadline
            .checked_duration_since(Instant::now())
            .filter(|left| !left.is_zero())?;
        let _ = stream.set_read_timeout(Some(left.min(READ_IDLE)));
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
                if buf.len() > MAX_REQUEST {
                    return None;
                }
                if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            // A timeout the deadline set drops the request unanswered.
            Err(_) if left <= READ_IDLE => return None,
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    text.lines().next().map(str::to_string)
}

fn route(request_line: &str, state: &HttpState) -> (&'static str, &'static str, String) {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return ("405 Method Not Allowed", "text/plain", "GET only\n".into());
    }
    match target {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            state.registry.render_prometheus(),
        ),
        "/metrics.json" => ("200 OK", "application/json", state.registry.render_json()),
        "/healthz" => ("200 OK", "text/plain", "ok\n".into()),
        "/slo" => match state.slo.lock() {
            Ok(table) => (
                "200 OK",
                "application/json",
                render_rows_json(&table.rows()),
            ),
            Err(_) => (
                "500 Internal Server Error",
                "text/plain",
                "state poisoned\n".into(),
            ),
        },
        "/status" => ("200 OK", "text/plain", render_status(state)),
        "/status.html" => ("200 OK", "text/html", render_status_html(state)),
        "/bundle" => match state.store.lock() {
            Ok(guard) => match &guard.bundle {
                Some(bundle) => ("200 OK", "application/json", bundle.clone()),
                None => (
                    "404 Not Found",
                    "text/plain",
                    "no bundles captured\n".into(),
                ),
            },
            Err(_) => (
                "500 Internal Server Error",
                "text/plain",
                "state poisoned\n".into(),
            ),
        },
        "/snapshots" => match state.store.lock() {
            Ok(guard) => ("200 OK", "application/json", render_snapshots(&guard)),
            Err(_) => (
                "500 Internal Server Error",
                "text/plain",
                "state poisoned\n".into(),
            ),
        },
        _ => {
            if let Some(user_str) = target.strip_prefix("/snapshot/") {
                if let Ok(user) = user_str.parse::<u64>() {
                    return match state.store.lock() {
                        Ok(guard) => match guard.latest.get(&user) {
                            Some(snap) => ("200 OK", "application/json", render_user(user, snap)),
                            None => ("404 Not Found", "text/plain", "unknown user\n".into()),
                        },
                        Err(_) => (
                            "500 Internal Server Error",
                            "text/plain",
                            "state poisoned\n".into(),
                        ),
                    };
                }
            }
            ("404 Not Found", "text/plain", "no such endpoint\n".into())
        }
    }
}

/// The `/status` dashboard: SLO states, per-stage snapshot-lag
/// quantiles, per-shard depth/occupancy/memory, and the ingest shed
/// counters — everything the SLO-breach runbook asks an operator to
/// look at first, in one std-only page.
fn render_status(state: &HttpState) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(2048);
    out.push_str("tagbreathe server status\n========================\n\n");

    out.push_str("SLOs\n");
    match state.slo.lock() {
        Ok(table) => out.push_str(&render_rows_text(&table.rows())),
        Err(_) => out.push_str("  (state poisoned)\n"),
    }

    out.push_str("\nsnapshot lag by stage (approximate, power-of-two buckets)\n");
    let _ = writeln!(
        out,
        "  {:<14} {:>8} {:>12} {:>12} {:>12}",
        "stage", "count", "p50 ms", "p99 ms", "max ms"
    );
    for stage in Stage::ALL {
        let Some(h) = state.registry.labeled_histogram(
            tagbreathe::metrics::SNAPSHOT_LAG_NS,
            Some(Label::stage(stage.code())),
        ) else {
            continue;
        };
        let ms = |ns: Option<u64>| ns.map_or(0.0, |v| v as f64 / 1e6);
        let _ = writeln!(
            out,
            "  {:<14} {:>8} {:>12.3} {:>12.3} {:>12.3}",
            stage.as_str(),
            h.count(),
            ms(h.quantile(0.5)),
            ms(h.quantile(0.99)),
            ms(h.max()),
        );
    }

    out.push_str("\nshards\n");
    let _ = writeln!(
        out,
        "  {:<6} {:>12} {:>8} {:>16}",
        "shard", "ring_depth", "users", "resident_bytes"
    );
    for shard in 0..u32::try_from(state.shards.max(1)).unwrap_or(u32::MAX) {
        let label = Some(Label::shard(shard));
        let depth = state
            .registry
            .labeled_gauge(tagbreathe::metrics::FLEET_RING_DEPTH, label)
            .unwrap_or(0.0);
        let users = state
            .registry
            .labeled_gauge(tagbreathe::metrics::FLEET_SHARD_USERS, label)
            .unwrap_or(0.0);
        let bytes = state
            .registry
            .labeled_gauge(tagbreathe::metrics::FLEET_RESIDENT_BYTES, label)
            .unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  {:<6} {:>12.0} {:>8.0} {:>16.0}",
            shard, depth, users, bytes
        );
    }

    out.push_str("\ningest\n");
    let counter = |name| state.registry.counter(name);
    let _ = writeln!(
        out,
        "  reports accepted: {}",
        counter(metrics::SERVER_REPORTS_TOTAL)
    );
    let _ = writeln!(
        out,
        "  reports merged:   {}",
        counter(metrics::SERVER_REPORTS_MERGED_TOTAL)
    );
    let _ = writeln!(
        out,
        "  reports shed:     {}",
        counter(metrics::SERVER_REPORTS_SHED_TOTAL)
    );
    let _ = writeln!(
        out,
        "  frames shed:      {}",
        counter(metrics::SERVER_FRAMES_SHED_TOTAL)
    );
    let _ = writeln!(
        out,
        "  queue stalls:     {}",
        counter(metrics::SERVER_QUEUE_STALLS_TOTAL)
    );
    let _ = writeln!(
        out,
        "  snapshots served: {}",
        counter(metrics::SERVER_SNAPSHOTS_TOTAL)
    );
    out
}

/// `/status.html`: the same dashboard wrapped in a minimal HTML page —
/// still std-only, renders in any browser without assets.
fn render_status_html(state: &HttpState) -> String {
    let text = render_status(state)
        .replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;");
    format!(
        concat!(
            "<!DOCTYPE html><html><head><title>tagbreathe status</title>",
            "<style>body{{font-family:monospace;margin:2em}}</style>",
            "</head><body><pre>{}</pre></body></html>\n"
        ),
        text
    )
}

fn render_user(user: u64, snap: &crate::engine::UserSnapshot) -> String {
    format!(
        concat!(
            "{{\"user\":{},\"time_s\":{},\"rate_bpm\":{},\"effort_rms\":{},",
            "\"rate_bpm_bits\":\"{:#018x}\",\"effort_rms_bits\":\"{:#018x}\"}}"
        ),
        user,
        snap.time_s,
        snap.rate_bpm,
        snap.effort_rms,
        snap.rate_bpm.to_bits(),
        snap.effort_rms.to_bits(),
    )
}

/// Renders the snapshot log. Every float also appears as its IEEE-754
/// bit pattern (hex string — JSON numbers cannot carry 64 significant
/// bits), which is what the loopback tests compare for bit-identity.
fn render_snapshots(store: &SnapshotStore) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"trimmed\":");
    out.push_str(&store.trimmed.to_string());
    out.push_str(",\"snapshots\":[");
    for (i, snap) in store.log.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"time_s_bits\":\"");
        out.push_str(&format!("{:#018x}", snap.time_s.to_bits()));
        out.push_str("\",\"users\":[");
        for (j, (&user, rate)) in snap.rates_bpm.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let effort = snap.effort_rms.get(&user).copied().unwrap_or(0.0);
            out.push_str(&format!(
                concat!(
                    "{{\"user\":{},\"rate_bpm\":{},\"effort_rms\":{},",
                    "\"rate_bpm_bits\":\"{:#018x}\",\"effort_rms_bits\":\"{:#018x}\"}}"
                ),
                user,
                rate,
                effort,
                rate.to_bits(),
                effort.to_bits(),
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Publisher;
    use crate::slo::{build_table, SloConfig};
    use obs::freshness::WatermarkClock;
    use obs::recorder::SharedRecorder;
    use std::collections::BTreeMap;
    use tagbreathe::flight::{FlightDiagnostics, TriggerConfig};
    use tagbreathe::RateSnapshot;

    #[test]
    fn store_keeps_and_serves_only_the_newest_bundle() {
        let registry = Arc::new(Registry::new());
        let slo = Arc::new(Mutex::new(build_table(&SloConfig::default())));
        let mut triggers = TriggerConfig::default_config();
        triggers.rate_jump_bpm = 1.0;
        let mut publisher = Publisher {
            flight: FlightDiagnostics::new(64, triggers).expect("valid triggers"),
            recorder: SharedRecorder::noop(),
            registry: registry.clone(),
            slo: slo.clone(),
            shards: 1,
            log_cap: 16,
            total_clock: WatermarkClock::new(16, 1.0),
        };
        let store = Arc::new(SharedStore::default());
        // The rate alternates 10 ↔ 20 bpm, so every publish after the
        // first captures a rate-jump bundle: four captures in all.
        for t in 1..=5u32 {
            let bpm = if t % 2 == 0 { 20.0 } else { 10.0 };
            let snap = RateSnapshot {
                time_s: f64::from(t),
                rates_bpm: BTreeMap::from([(1, bpm)]),
                effort_rms: BTreeMap::new(),
            };
            publisher.publish(&store, snap);
        }
        let state = HttpState {
            registry,
            store: store.clone(),
            slo,
            shards: 1,
        };
        let (status, _, body) = route("GET /bundle HTTP/1.1", &state);
        assert_eq!(status, "200 OK");
        assert!(
            body.contains("\"kind\": \"rate_jump\", \"user\": 1, \"time_s\": 5,"),
            "not the newest bundle: {}",
            body.lines().nth(1).unwrap_or_default()
        );
        let guard = store.lock().expect("store lock");
        assert_eq!(guard.bundle.as_deref(), Some(body.as_str()));
    }
}
