//! Server lifecycle: listeners, threads, shutdown.

use crate::engine::{run_engine, EngineEvent, EngineState, Publisher, SharedStore, UserSnapshot};
use crate::http::{run_http, HttpState};
use crate::metrics;
use crate::session::{run_session, SessionLimits};
use crate::slo::SloConfig;
use epcgen2::mapping::{IdentityResolver, OpenAdmission};
use obs::freshness::WatermarkClock;
use obs::recorder::{Recorder, SharedRecorder};
use obs::registry::Registry;
use obs::slo::{SloRow, SloTable};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::thread::{Builder, JoinHandle};
use std::time::Duration;
use tagbreathe::fleet::FleetError;
use tagbreathe::flight::{FlightDiagnostics, TriggerConfig};
use tagbreathe::{FleetEngine, PipelineConfig, RateSnapshot};

/// Server configuration. `Default` binds both listeners to ephemeral
/// loopback ports — production deployments override the addresses.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Ingest (wire-protocol) listener address.
    pub ingest_addr: String,
    /// HTTP observability listener address.
    pub http_addr: String,
    /// Analysis window, seconds (fleet engine).
    pub window_s: f64,
    /// Snapshot cadence, seconds of stream time (fleet engine).
    pub update_every_s: f64,
    /// Fleet shard worker count.
    pub shards: usize,
    /// Pipeline parameters.
    pub pipeline: PipelineConfig,
    /// Engine event queue depth (bounded; sessions shed past it).
    pub queue_depth: usize,
    /// 1 ms stall steps a session waits on a full queue before shedding.
    pub stall_budget: usize,
    /// Flight-recorder ring capacity (per-read provenance events).
    pub flight_ring: usize,
    /// Anomaly triggers for flight-bundle capture.
    pub triggers: TriggerConfig,
    /// Served snapshot-log bound (oldest trimmed beyond it).
    pub snapshot_log: usize,
    /// SLO objectives and burn-rate policy (evaluated once per published
    /// snapshot; served at `/slo` and `/status`).
    pub slo: SloConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            ingest_addr: "127.0.0.1:0".into(),
            http_addr: "127.0.0.1:0".into(),
            window_s: 30.0,
            update_every_s: 5.0,
            shards: 2,
            pipeline: PipelineConfig::paper_default(),
            queue_depth: 1024,
            stall_budget: 2000,
            flight_ring: 4096,
            triggers: TriggerConfig::default_config(),
            snapshot_log: 4096,
            slo: SloConfig::default(),
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] aborts the threads without draining.
#[derive(Debug)]
pub struct ServerHandle {
    ingest_addr: SocketAddr,
    http_addr: SocketAddr,
    registry: Arc<Registry>,
    slo: Arc<Mutex<SloTable>>,
    store: Arc<SharedStore>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    engine: Option<JoinHandle<()>>,
    http: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound ingest (wire-protocol) address.
    #[must_use]
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// The bound HTTP address.
    #[must_use]
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// The metrics registry backing `/metrics`.
    #[must_use]
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// The current SLO table rows, as served at `/slo`.
    #[must_use]
    pub fn slo_rows(&self) -> Vec<SloRow> {
        self.slo.lock().map(|t| t.rows()).unwrap_or_default()
    }

    /// Latest per-user analysis, as served at `/snapshot/{user}`.
    #[must_use]
    pub fn latest_for(&self, user: u64) -> Option<UserSnapshot> {
        self.store
            .lock()
            .ok()
            .and_then(|g| g.latest.get(&user).copied())
    }

    /// Blocks until at least `snapshots` snapshots have been published
    /// (including any since trimmed from the log) or `timeout` passes, and
    /// returns how many have been published.
    #[must_use]
    pub fn wait_published(&self, snapshots: u64, timeout: Duration) -> u64 {
        self.store.wait_published(snapshots, timeout)
    }

    /// Shuts down a server whose start failed with `e`, and returns `e`.
    fn abandon(self, e: io::Error) -> io::Error {
        let _ = self.shutdown();
        e
    }

    /// Stops accepting, drains open sessions and the merge lanes,
    /// finishes the fleet engine, and returns the full snapshot log in
    /// emission order (minus any trimmed by the log bound).
    #[must_use]
    pub fn shutdown(mut self) -> Vec<RateSnapshot> {
        // Release pairs with the Acquire loads in the accept/session/http
        // loops (declared in lint.toml `[atomics]`): whatever the caller
        // wrote before shutdown is visible to the loops' final laps.
        self.stop.store(true, Ordering::Release);
        // Both acceptors block in `accept`: one connection each wakes them
        // to see the flag.
        wake_acceptor(self.ingest_addr);
        wake_acceptor(self.http_addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Sessions observe the stop flag via their read timeout and hang
        // up their event senders; once the last sender is gone the engine
        // drains and exits.
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
        if let Some(h) = self.http.take() {
            let _ = h.join();
        }
        self.store
            .lock()
            .map(|mut g| Vec::from(std::mem::take(&mut g.log)))
            .unwrap_or_default()
    }
}

/// Pause after a failed `accept` (e.g. `EMFILE`), so a persistent error
/// cannot spin the acceptor.
const ACCEPT_RETRY: Duration = Duration::from_millis(5);

/// Blocks in `accept` and hands each connection to `serve` until
/// `accept_stop` is set. [`ServerHandle::shutdown`] sets it, then connects
/// once ([`wake_acceptor`]) so the blocked call returns and sees it.
pub(crate) fn accept_until_stopped(
    listener: &TcpListener,
    accept_stop: &AtomicBool,
    mut serve: impl FnMut(TcpStream),
) {
    loop {
        let accepted = listener.accept();
        if accept_stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _)) => serve(stream),
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
}

/// Connects once to a listener's bound address to wake its blocked
/// `accept`. A listener on an unspecified address (`0.0.0.0`, `[::]`) is
/// reached through the loopback address of its family.
fn wake_acceptor(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// Starts a server admitting every embedded identity
/// ([`OpenAdmission`]) — the deployment default, where reader hosts
/// commission only monitoring tags.
///
/// Its long-lived threads are named by role: `tb-engine`, `tb-ingest`
/// (the acceptor), `tb-http`, one `tb-session-<id>` per connection and
/// the fleet's `tb-shard-<i>`, so per-role CPU can be read from
/// `/proc/<pid>/task/*/{comm,schedstat}` on Linux.
///
/// # Errors
///
/// Propagates listener bind failures, fleet-engine configuration errors
/// (as [`io::ErrorKind::InvalidInput`]) and the error of a thread that
/// cannot start, after stopping the threads that did.
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    start_with_resolver(config, OpenAdmission)
}

/// Starts a server with an explicit admission policy — the fleet
/// admission seam: the resolver decides which EPCs become monitored
/// users.
///
/// # Errors
///
/// As [`start`].
pub fn start_with_resolver<R>(config: ServerConfig, resolver: R) -> io::Result<ServerHandle>
where
    R: IdentityResolver + Send + 'static,
{
    let registry = Arc::new(Registry::new());
    let recorder = SharedRecorder::new(registry.clone());

    let flight = FlightDiagnostics::new(config.flight_ring.max(16), config.triggers)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let fleet = FleetEngine::observed(
        config.pipeline.clone(),
        resolver,
        config.window_s,
        config.update_every_s,
        config.shards,
        recorder.clone(),
    )
    .map_err(|e| match e {
        FleetError::Spawn(e) => e,
        FleetError::Config(e) => io::Error::new(io::ErrorKind::InvalidInput, e.to_string()),
    })?;

    let ingest = TcpListener::bind(&config.ingest_addr)?;
    let http = TcpListener::bind(&config.http_addr)?;
    let ingest_addr = ingest.local_addr()?;
    let http_addr = http.local_addr()?;

    let store = Arc::new(SharedStore::default());
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = sync_channel::<EngineEvent>(config.queue_depth.max(1));

    let slo_table = Arc::new(Mutex::new(crate::slo::build_table(&config.slo)));

    let engine_store = store.clone();
    let engine_recorder = recorder.clone();
    let engine_registry = registry.clone();
    let engine_slo = slo_table.clone();
    let log_cap = config.snapshot_log;
    let shards = config.shards;
    let total_clock = WatermarkClock::new(1024, config.update_every_s / 8.0);
    let engine = Builder::new().name("tb-engine".into()).spawn(move || {
        let state = EngineState {
            fleet,
            publisher: Publisher {
                flight,
                recorder: engine_recorder,
                registry: engine_registry,
                slo: engine_slo,
                shards,
                log_cap,
                total_clock,
            },
        };
        run_engine(&rx, state, &engine_store);
    })?;
    // From here on, a thread that cannot start shuts down those that did.
    let mut handle = ServerHandle {
        ingest_addr,
        http_addr,
        registry: registry.clone(),
        slo: slo_table.clone(),
        store: store.clone(),
        stop: stop.clone(),
        acceptor: None,
        engine: Some(engine),
        http: None,
    };

    let limits = SessionLimits {
        stall_budget: config.stall_budget,
    };
    let accept_stop = stop.clone();
    let accept_recorder = recorder.clone();
    let acceptor = Builder::new().name("tb-ingest".into()).spawn(move || {
        let open = Arc::new(AtomicU64::new(0));
        let mut sessions: Vec<JoinHandle<()>> = Vec::new();
        let mut next_session: u32 = 1;
        accept_until_stopped(&ingest, &accept_stop, |stream| {
            accept_recorder.add(metrics::SERVER_CONNECTIONS_TOTAL, None, 1);
            let gauge = open.fetch_add(1, Ordering::Relaxed) + 1;
            accept_recorder.set_gauge(metrics::SERVER_SESSIONS_OPEN, None, gauge as f64);
            let tx = tx.clone();
            let rec = accept_recorder.clone();
            let session_stop = accept_stop.clone();
            let session_open = open.clone();
            let session_id = next_session;
            next_session = next_session.wrapping_add(1);
            sessions.retain(|h| !h.is_finished());
            let session = Builder::new()
                .name(format!("tb-session-{session_id}"))
                .spawn(move || {
                    let _ = run_session(stream, &tx, &rec, limits, &session_stop, session_id);
                    let left = session_open
                        .fetch_sub(1, Ordering::Relaxed)
                        .saturating_sub(1);
                    rec.set_gauge(metrics::SERVER_SESSIONS_OPEN, None, left as f64);
                });
            match session {
                Ok(session) => sessions.push(session),
                // The unstarted closure was dropped, closing this one
                // connection; the acceptor keeps its listener.
                Err(_) => {
                    let left = open.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
                    accept_recorder.set_gauge(metrics::SERVER_SESSIONS_OPEN, None, left as f64);
                }
            }
        });
        // Drop our event sender before joining sessions; theirs hang up as
        // they observe the stop flag.
        drop(tx);
        for h in sessions {
            let _ = h.join();
        }
    });
    match acceptor {
        Ok(acceptor) => handle.acceptor = Some(acceptor),
        Err(e) => return Err(handle.abandon(e)),
    }

    let http_state = HttpState {
        registry,
        store,
        slo: slo_table,
        shards: config.shards,
    };
    let http_thread = Builder::new().name("tb-http".into()).spawn(move || {
        run_http(&http, &http_state, &stop);
    });
    match http_thread {
        Ok(http_thread) => handle.http = Some(http_thread),
        Err(e) => return Err(handle.abandon(e)),
    }
    Ok(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn shutdown_wakes_acceptors_bound_to_unspecified_addresses() {
        let config = ServerConfig {
            ingest_addr: "0.0.0.0:0".into(),
            http_addr: "0.0.0.0:0".into(),
            ..ServerConfig::default()
        };
        let handle = start(config).expect("server must start");
        assert!(handle.ingest_addr().ip().is_unspecified());
        assert!(handle.http_addr().ip().is_unspecified());
        // No client ever connects: only the shutdown wake can unblock the
        // acceptors. A lost wake fails here instead of hanging the suite.
        let (done_tx, done) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done_tx.send(handle.shutdown());
        });
        let snapshots = done
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown must return");
        assert!(snapshots.is_empty());
    }
}
