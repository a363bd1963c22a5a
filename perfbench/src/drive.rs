//! The end-to-end run: cold-start the shipped server in-process, drive it
//! over real TBIP/1 sockets with the shipped `ReaderClient` and over real
//! HTTP, and keep every number the report needs.

use crate::reference::Reference;
use crate::span::{ReqId, Spans};
use crate::stats::{self, ms};
use crate::workload::{reader_id, Batch, Input, Kind, Params};
use epcgen2::client::ReaderClient;
use obs::registry::Registry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tagbreathe::RateSnapshot;

/// Cold starts whose median is `setup_s`.
pub const SETUP_STARTS: usize = 15;
/// Bound on every socket read and write the load makes.
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// After the last batch, how long HTTP may take to show every cadence
/// point before the missing ones count as failures.
const VISIBILITY_DEADLINE: Duration = Duration::from_secs(2);
/// Requests per endpoint in the traced run's end-of-load probe.
const PROBE_REQUESTS: usize = 20;
/// How often the main thread samples `VmRSS` during the load.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(5);
/// The connection id traced HTTP requests carry.
pub const HTTP_CONN: u32 = 1000;

/// One HTTP request as the client saw it.
#[derive(Debug, Clone)]
pub struct HttpSample {
    /// Endpoint class: `snapshot`, `metrics`, `status`, `slo`, …
    pub endpoint: &'static str,
    /// Connect to last byte, milliseconds.
    pub ms: f64,
    /// Whether it counts as an HTTP failure.
    pub failed: bool,
}

/// Everything one cold start → load → shutdown round measured.
#[derive(Debug)]
pub struct Round {
    /// Reports handed to `send_batch`.
    pub reports_sent: u64,
    /// Reports the server counted as accepted.
    pub reports_accepted: u64,
    /// First Batch sent → `shutdown()` returned, seconds (minus the
    /// traced probe, which is not load).
    pub elapsed_s: f64,
    /// Server CPU per accepted report, µs.
    pub cpu_us_per_report: f64,
    /// Largest `VmRSS` sampled while the load ran, minus `VmRSS` just
    /// before this round's `server::start`, MB.
    pub peak_rss_mb: f64,
    /// Generator lateness per batch, ms (open loop: send start − due;
    /// closed loop: time between one send returning and the next starting).
    pub late_ms: Vec<f64>,
    /// Time inside each `send_batch`, µs.
    pub send_us: Vec<f64>,
    /// Every HTTP request of the load.
    pub http: Vec<HttpSample>,
    /// Snapshot lag per expected cadence point that became visible, ms.
    pub lag_ms: Vec<f64>,
    /// Cadence points expected over HTTP.
    pub points_expected: u64,
    /// Expected points HTTP never showed by the deadline.
    pub points_missing: u64,
    /// The server's snapshot log as `shutdown()` returned it.
    pub log: Vec<RateSnapshot>,
    /// The registry behind the server's `/metrics`, read after shutdown.
    pub registry: Arc<Registry>,
    /// The traced run's end-of-load probe of every endpoint (not load).
    pub probe: Vec<HttpSample>,
}

/// A failed correctness check, named.
#[derive(Debug)]
pub struct CheckFailed(pub String);

/// A started server with every session holding its Ack.
struct Live {
    handle: server::ServerHandle,
    clients: Vec<ReaderClient<TcpStream>>,
}

/// Opens one reader session exactly as `tagbreathe-cli feed` does —
/// `TcpStream::connect` then `ReaderClient::connect` with no features —
/// plus I/O timeouts so no wait is unbounded.
fn open_session(addr: SocketAddr, reader_id: u32) -> Result<ReaderClient<TcpStream>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("socket timeouts: {e}"))?;
    ReaderClient::connect(stream, reader_id, 0).map_err(|e| format!("handshake: {e}"))
}

/// `server::start` → every session Acked → `/healthz` answers.
fn cold_start(params: &Params) -> Result<(Live, f64), String> {
    let started = Instant::now();
    let handle = server::start(params.server_config()).map_err(|e| format!("server start: {e}"))?;
    let mut clients = Vec::with_capacity(params.lanes);
    for lane in 0..params.lanes {
        clients.push(open_session(handle.ingest_addr(), reader_id(lane))?);
    }
    let health = http_get(handle.http_addr(), "/healthz")?;
    if health.status != 200 || health.body.trim() != "ok" {
        return Err(format!(
            "/healthz answered {} {:?}",
            health.status, health.body
        ));
    }
    let setup_s = started.elapsed().as_secs_f64();
    Ok((Live { handle, clients }, setup_s))
}

/// Measures `extra` throw-away cold starts (each closed cleanly), then
/// the one the run keeps; also returns `VmRSS` just before that start.
fn start_server(
    params: &Params,
    extra: usize,
    setup_s: &mut Vec<f64>,
) -> Result<(Live, f64), String> {
    for _ in 0..extra {
        let (live, s) = cold_start(params)?;
        setup_s.push(s);
        for client in live.clients {
            client.goodbye().map_err(|e| format!("goodbye: {e}"))?;
        }
        let _ = live.handle.shutdown();
    }
    let rss_mb = stats::vm_mb("VmRSS")?;
    let (live, s) = cold_start(params)?;
    setup_s.push(s);
    Ok((live, rss_mb))
}

/// A parsed HTTP response.
#[derive(Debug)]
pub struct Response {
    /// Status code (0 when the status line was unreadable).
    pub status: u16,
    /// Body.
    pub body: String,
}

/// One `GET` with `Connection: close`, bounded by [`IO_TIMEOUT`].
pub fn http_get(addr: SocketAddr, path: &str) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("GET {path}: connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("GET {path}: timeouts: {e}"))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("GET {path}: write: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("GET {path}: read: {e}"))?;
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok(Response {
        status,
        body: body.to_string(),
    })
}

/// A `/snapshot/{user}` body's `(time_s, rate bits, effort bits)`.
pub fn parse_user_snapshot(body: &str) -> Option<(f64, u64, u64)> {
    let field = |key: &str| -> Option<&str> {
        let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = body.get(at..)?;
        let end = rest.find([',', '}'])?;
        rest.get(..end)
    };
    let bits = |key: &str| -> Option<u64> {
        u64::from_str_radix(field(key)?.trim_matches('"').trim_start_matches("0x"), 16).ok()
    };
    Some((
        field("time_s")?.parse().ok()?,
        bits("rate_bpm_bits")?,
        bits("effort_rms_bits")?,
    ))
}

/// Lag bookkeeping of the open loop: expected cadence points in order,
/// each with the due time of the batch that first carried a report at
/// or past it. A response showing time `t` makes every still-pending
/// point `T ≤ t` visible.
#[derive(Debug, Clone)]
pub struct LagBook {
    points: Vec<(f64, Duration)>,
    next: usize,
    /// Lag of each point made visible, ms, in point order.
    pub lag_ms: Vec<f64>,
}

impl LagBook {
    /// `points`: `(cadence time, due offset of its carrying batch)`.
    pub fn new(points: Vec<(f64, Duration)>) -> Self {
        LagBook {
            points,
            next: 0,
            lag_ms: Vec::new(),
        }
    }

    /// A response showing stream time `shown_s` completed `at` (an offset
    /// from the schedule start).
    pub fn observe(&mut self, shown_s: f64, at: Duration) {
        while let Some(&(t, due)) = self.points.get(self.next) {
            if t > shown_s {
                break;
            }
            self.lag_ms.push(ms(at.saturating_sub(due)));
            self.next += 1;
        }
    }

    /// Points expected.
    pub fn expected(&self) -> usize {
        self.points.len()
    }

    /// Whether every point has been seen.
    pub fn complete(&self) -> bool {
        self.next >= self.points.len()
    }
}

/// What the HTTP load thread reports back.
struct HttpOutcome {
    samples: Vec<HttpSample>,
    book: LagBook,
    mismatches: Vec<String>,
    cpu_s: f64,
}

/// What a sender thread reports back.
struct SendOutcome {
    first_send: Instant,
    late_ms: Vec<f64>,
    send_us: Vec<f64>,
    sent: u64,
    cpu_s: f64,
}

/// Runs one round: cold start (plus `extra_starts` measured throw-away
/// starts), the load, shutdown, and the correctness checks.
///
/// # Errors
///
/// `Err(Ok(msg))` for an operational failure (socket, timeout),
/// `Err(Err(CheckFailed))` for a failed correctness check.
pub fn run_round(
    params: &Params,
    input: &Input,
    reference: &Reference,
    extra_starts: usize,
    setup_s: &mut Vec<f64>,
    spans: Option<&Spans>,
) -> Result<Round, Result<String, CheckFailed>> {
    let (live, rss_before_mb) = start_server(params, extra_starts, setup_s).map_err(Ok)?;
    let http_addr = live.handle.http_addr();
    let registry = live.handle.registry();
    let Live { handle, clients } = live;

    let (done_tx, done_rx) = mpsc::channel::<()>();
    let mut peak_rss_mb = rss_before_mb;
    let cpu_before = stats::process_cpu_s().map_err(Ok)?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let (send, http, sampler_cpu) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let out = send_all(params, input, clients, t0, spans);
            drop(done_tx);
            out
        });
        let poller = match params.kind {
            Kind::FleetFlood => None,
            Kind::WardPaced | Kind::DashboardScrape => Some(
                scope.spawn(move || poll_http(params, reference, http_addr, t0, &done_rx, spans)),
            ),
        };
        // The otherwise idle main thread samples resident memory while
        // the load runs; its CPU is the benchmark's, not the server's.
        let sampler_cpu = stats::thread_cpu_s();
        while !(sender.is_finished() && poller.as_ref().is_none_or(|p| p.is_finished())) {
            if let Ok(mb) = stats::vm_mb("VmRSS") {
                peak_rss_mb = peak_rss_mb.max(mb);
            }
            std::thread::sleep(RSS_SAMPLE_EVERY);
        }
        let sampler_cpu = sampler_cpu.and_then(|start| Ok(stats::thread_cpu_s()? - start));
        let send = sender
            .join()
            .unwrap_or_else(|_| Err("sender thread panicked".into()));
        let http = match poller {
            Some(p) => p
                .join()
                .unwrap_or_else(|_| Err("HTTP thread panicked".into()))
                .map(Some),
            None => Ok(None),
        };
        (send, http, sampler_cpu)
    });
    let send = send.map_err(Ok)?;
    let http = http.map_err(Ok)?;

    // Traced runs only: once the load is done, every endpoint a fixed
    // number of times, so each workload has per-endpoint HTTP figures
    // against its own server state. Its time is not load time.
    let mut served_logs = Vec::new();
    let mut probe = Vec::new();
    let mut probe_s = 0.0;
    if let Some(spans) = spans {
        let probe_started = Instant::now();
        let user = reference.watched_user().unwrap_or(1);
        let rated = reference.rated_users().contains(&user);
        let mut seq = 1u64 << 32;
        // `/snapshots` renders the whole log; once is enough for the
        // prefix check.
        for (path, times) in [
            ("/metrics".to_string(), PROBE_REQUESTS),
            ("/status".to_string(), PROBE_REQUESTS),
            ("/slo".to_string(), PROBE_REQUESTS),
            (format!("/snapshot/{user}"), PROBE_REQUESTS),
            ("/snapshots".to_string(), 1),
        ] {
            for _ in 0..times {
                let started = Instant::now();
                let resp = traced_get(spans, http_addr, &path, &mut seq).map_err(Ok)?;
                // A user the reference never rates is a 404 by design.
                let expected = if path.starts_with("/snapshot/") && !rated {
                    404
                } else {
                    200
                };
                probe.push(HttpSample {
                    endpoint: endpoint(&path),
                    ms: ms(started.elapsed()),
                    failed: resp.status != expected,
                });
                if path == "/snapshots" {
                    served_logs.push(resp.body);
                }
            }
        }
        probe_s = probe_started.elapsed().as_secs_f64();
    }

    peak_rss_mb = peak_rss_mb.max(stats::vm_mb("VmRSS").map_err(Ok)?);
    let log = handle.shutdown();
    let elapsed_s = send.first_send.elapsed().as_secs_f64() - probe_s;
    let cpu_after = stats::process_cpu_s().map_err(Ok)?;
    let mut load_cpu = vec![send.cpu_s, sampler_cpu.map_err(Ok)?];
    let (samples, book, mismatches) = match http {
        Some(h) => {
            load_cpu.push(h.cpu_s);
            (h.samples, Some(h.book), h.mismatches)
        }
        None => (Vec::new(), None, Vec::new()),
    };
    let metrics_body = registry.render_prometheus();
    let reports_accepted =
        stats::prom_sum(&metrics_body, server::metrics::SERVER_REPORTS_TOTAL) as u64;

    // The checks that decide whether the run may print at all.
    reference.check_log(&log).map_err(Err)?;
    if let Some(m) = mismatches.first() {
        return Err(Err(CheckFailed(format!(
            "served bits diverged from the reference ({} responses): {m}",
            mismatches.len()
        ))));
    }
    for body in &served_logs {
        reference.check_served_prefix(body).map_err(Err)?;
    }
    if reports_accepted != send.sent {
        return Err(Err(CheckFailed(format!(
            "/metrics shows {reports_accepted} reports accepted, {} sent",
            send.sent
        ))));
    }

    let (lag_ms, points_expected, points_missing) = match book {
        Some(b) => {
            let expected = b.expected() as u64;
            let seen = b.lag_ms.len() as u64;
            (b.lag_ms, expected, expected - seen)
        }
        None => (Vec::new(), 0, 0),
    };
    Ok(Round {
        reports_sent: send.sent,
        reports_accepted,
        elapsed_s,
        cpu_us_per_report: stats::server_cpu_us_per_report(
            cpu_after - cpu_before,
            &load_cpu,
            reports_accepted,
        ),
        peak_rss_mb: peak_rss_mb - rss_before_mb,
        late_ms: send.late_ms,
        send_us: send.send_us,
        http: samples,
        lag_ms,
        points_expected,
        points_missing,
        log,
        registry,
        probe,
    })
}

/// The load generator: every batch of the input on its lane's session,
/// open loop on the schedule (paced) or back to back (flood); then
/// Goodbye on every session.
fn send_all(
    params: &Params,
    input: &Input,
    mut clients: Vec<ReaderClient<TcpStream>>,
    t0: Instant,
    spans: Option<&Spans>,
) -> Result<SendOutcome, String> {
    let cpu_start = stats::thread_cpu_s()?;
    let mut late_ms = Vec::new();
    let mut send_us = Vec::new();
    let mut sent = 0u64;
    let mut error: Option<String> = None;
    let mut first_send: Option<Instant> = None;
    let mut last_end = t0;
    let open_loop = params.compression.is_some();
    input.for_each_batch(|batch: &Batch| {
        if error.is_some() {
            return;
        }
        let Some(client) = clients.get_mut(batch.lane) else {
            error = Some(format!("batch for unknown lane {}", batch.lane));
            return;
        };
        let due = t0 + Duration::from_secs_f64(batch.due_s);
        let mut now = Instant::now();
        if open_loop {
            if due > now {
                std::thread::sleep(due - now);
                now = Instant::now();
            }
            late_ms.push(ms(now.saturating_duration_since(due)));
        } else {
            if now < t0 {
                std::thread::sleep(t0 - now);
                now = Instant::now();
            }
            late_ms.push(ms(now.saturating_duration_since(last_end)));
        }
        let req = ReqId {
            conn: reader_id(batch.lane),
            seq: u64::from(batch.seq),
        };
        let span = spans.map(|s| s.open("client.send_batch", req, 0));
        first_send.get_or_insert(now);
        let result = client.send_batch(&batch.reports, batch.clock_s);
        last_end = Instant::now();
        if let (Some(s), Some(id)) = (spans, span) {
            s.close(id, batch.reports.len() as u64, u64::from(result.is_err()));
        }
        send_us.push((last_end - now).as_secs_f64() * 1e6);
        match result {
            Ok(()) => sent += batch.reports.len() as u64,
            Err(e) => error = Some(format!("send_batch on lane {}: {e}", batch.lane)),
        }
    });
    for (lane, client) in clients.into_iter().enumerate() {
        let req = ReqId {
            conn: reader_id(lane),
            seq: u64::MAX,
        };
        let span = spans.map(|s| s.open("client.goodbye", req, 0));
        let result = client.goodbye();
        if let (Some(s), Some(id)) = (spans, span) {
            s.close(id, 0, u64::from(result.is_err()));
        }
        result.map_err(|e| format!("goodbye on lane {lane}: {e}"))?;
    }
    if let Some(e) = error {
        return Err(e);
    }
    Ok(SendOutcome {
        first_send: first_send.unwrap_or(t0),
        late_ms,
        send_us,
        sent,
        cpu_s: stats::thread_cpu_s()? - cpu_start,
    })
}

/// One GET with a span around it (when tracing) and its client-side time.
fn traced_get(
    spans: &Spans,
    addr: SocketAddr,
    path: &str,
    seq: &mut u64,
) -> Result<Response, String> {
    let id = spans.open(
        "http.get",
        ReqId {
            conn: HTTP_CONN,
            seq: *seq,
        },
        0,
    );
    *seq += 1;
    let resp = http_get(addr, path);
    let ok = resp.as_ref().is_ok_and(|r| r.status == 200);
    spans.close(id, 1, u64::from(!ok));
    resp
}

/// The endpoint class of a path, for per-endpoint latency.
fn endpoint(path: &str) -> &'static str {
    match path {
        "/metrics" => "metrics",
        "/status" => "status",
        "/slo" => "slo",
        "/snapshots" => "snapshots",
        _ => "snapshot",
    }
}

/// The HTTP load thread. `ward_paced` polls the watched user's
/// `/snapshot/{user}`; `dashboard_scrape` cycles `/metrics`, `/status`,
/// `/slo` and `/snapshot/{user}` over every rated user. Runs until the
/// sender is done and every expected point is visible, or the deadline.
fn poll_http(
    params: &Params,
    reference: &Reference,
    addr: SocketAddr,
    t0: Instant,
    sender_done: &mpsc::Receiver<()>,
    spans: Option<&Spans>,
) -> Result<HttpOutcome, String> {
    let cpu_start = stats::thread_cpu_s()?;
    let mut book = LagBook::new(match params.kind {
        Kind::WardPaced => reference.lag_points(),
        Kind::FleetFlood | Kind::DashboardScrape => Vec::new(),
    });
    let rated = reference.rated_users();
    let watched = reference.watched_user();
    let mut samples = Vec::new();
    let mut mismatches = Vec::new();
    let mut seq = 0u64;
    let mut i = 0usize;
    let mut deadline: Option<Instant> = None;
    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
    loop {
        if deadline.is_none() && sender_done.try_recv() == Err(mpsc::TryRecvError::Disconnected) {
            deadline = Some(Instant::now() + VISIBILITY_DEADLINE);
        }
        if let Some(d) = deadline {
            let watching_done = params.kind == Kind::DashboardScrape || book.complete();
            if watching_done || Instant::now() >= d {
                break;
            }
        }
        let (path, user) = match (params.kind, watched) {
            (Kind::WardPaced, Some(u)) => (format!("/snapshot/{u}"), Some(u)),
            _ => {
                let slot = i % 4;
                i += 1;
                match (slot, rated.get((i / 4) % rated.len().max(1))) {
                    (0, _) => ("/metrics".to_string(), None),
                    (1, _) => ("/status".to_string(), None),
                    (2, _) => ("/slo".to_string(), None),
                    (_, Some(&u)) => (format!("/snapshot/{u}"), Some(u)),
                    (_, None) => ("/healthz".to_string(), None),
                }
            }
        };
        let started = Instant::now();
        let resp = match spans {
            Some(s) => traced_get(s, addr, &path, &mut seq),
            None => http_get(addr, &path),
        };
        let finished = Instant::now();
        let mut failed = true;
        if let Ok(resp) = &resp {
            failed = resp.status != 200;
            if let (Some(u), 200) = (user, resp.status) {
                match parse_user_snapshot(&resp.body) {
                    Some((shown_s, rate_bits, effort_bits)) => {
                        if let Err(e) =
                            reference.check_served_user(u, shown_s, rate_bits, effort_bits)
                        {
                            mismatches.push(e);
                        }
                        if Some(u) == watched {
                            book.observe(shown_s, finished.saturating_duration_since(t0));
                        }
                    }
                    None => failed = true,
                }
            }
            if let (Some(u), 404) = (user, resp.status) {
                // Not published yet is expected until the server has had
                // the batch carrying the user's first rated point for a
                // grace second; after that a 404 is a failure.
                let first_due = reference.first_rated_due(u);
                failed = first_due.is_none_or(|due| {
                    started.saturating_duration_since(t0) > due + Duration::from_secs(1)
                });
            }
        }
        samples.push(HttpSample {
            endpoint: endpoint(&path),
            ms: ms(finished - started),
            failed,
        });
    }
    Ok(HttpOutcome {
        samples,
        book,
        mismatches,
        cpu_s: stats::thread_cpu_s()? - cpu_start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_is_timed_from_the_due_time_on_a_late_schedule() {
        // Points at 26 s and 27 s were due 1.3 s and 1.35 s into the run.
        let mut book = LagBook::new(vec![
            (26.0, Duration::from_millis(1300)),
            (27.0, Duration::from_millis(1350)),
        ]);
        assert!(!book.complete());
        // A response still showing 25 s makes nothing visible.
        book.observe(25.0, Duration::from_millis(1400));
        assert!(book.lag_ms.is_empty());
        // The generator ran late: the first response showing 27 s arrives
        // 500 ms after the second point's due time. Both points are timed
        // from their own due times, so the stall counts for both.
        book.observe(27.0, Duration::from_millis(1850));
        assert_eq!(book.lag_ms, vec![550.0, 500.0]);
        assert!(book.complete());
        assert_eq!(book.expected(), 2);
        // A response arriving before a point's due time never goes negative.
        let mut early = LagBook::new(vec![(1.0, Duration::from_millis(100))]);
        early.observe(1.0, Duration::from_millis(50));
        assert_eq!(early.lag_ms, vec![0.0]);
    }

    #[test]
    fn user_snapshot_bodies_parse() {
        let body = "{\"user\":3,\"time_s\":26,\"rate_bpm\":12.5,\"effort_rms\":0.1,\
                    \"rate_bpm_bits\":\"0x4029000000000000\",\"effort_rms_bits\":\"0x3fb999999999999a\"}";
        assert_eq!(
            parse_user_snapshot(body),
            Some((26.0, 12.5f64.to_bits(), 0.1f64.to_bits()))
        );
        assert_eq!(parse_user_snapshot("unknown user\n"), None);
    }
}
