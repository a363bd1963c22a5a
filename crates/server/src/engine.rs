//! The engine thread: single consumer of session events, owner of the
//! merge lanes, the fleet engine, the snapshot log, and the flight
//! recorder.
//!
//! Sessions never touch the [`tagbreathe::FleetEngine`] directly — they
//! enqueue `EngineEvent`s on a bounded channel and the engine thread
//! applies them in arrival order. Because the [`crate::merge`] lanes make
//! the release order independent of arrival interleave, the reports the
//! fleet sees (and therefore every served snapshot) are bit-identical to
//! an inline run over the same per-reader streams.
//!
//! The fleet hands back a snapshot only when a `push` finds all of its
//! shard parts merged, and the last parts of a cadence point usually land
//! after the push that requested them. So the engine never blocks on the
//! queue for longer than `ENGINE_TICK`: when the queue stays quiet it
//! pushes an empty batch, which drains the finished parts, and publishes
//! what completed. An idle publisher therefore never sits on finished
//! work. The shard workers sleep while their rings are empty, so the tick
//! is the only periodic work an idle server does. Every publish notifies
//! the store's condition variable, which `ServerHandle::wait_published`
//! blocks on.

use crate::merge::LaneMerger;
use crate::metrics;
use obs::freshness::{duration_ns, Stage, WatermarkClock};
use obs::recorder::{Label, Recorder, SharedRecorder};
use obs::registry::Registry;
use obs::slo::{SloState, SloTable};
use obs::trace::TraceEvent;
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use tagbreathe::flight::{Anomaly, AnomalyKind, FlightDiagnostics};
use tagbreathe::{FleetEngine, RateSnapshot, TagReport};

use epcgen2::mapping::IdentityResolver;

/// Longest wait for a session event before the engine drains the fleet's
/// finished snapshot parts. It bounds how long a finished snapshot can
/// wait for publication, at the cost of one empty push per quiet tick.
pub(crate) const ENGINE_TICK: Duration = Duration::from_millis(2);

/// A unit of work for the engine thread.
#[derive(Debug)]
pub(crate) enum EngineEvent {
    /// A session completed its Hello: open a merge lane.
    Open {
        /// Reader identity from the Hello.
        reader: u32,
    },
    /// An accepted Batch frame (clock offset already applied).
    Batch {
        /// Reader identity.
        reader: u32,
        /// The decoded reports, session-FIFO order.
        reports: Vec<TagReport>,
        /// The frame's reader clock, seconds.
        reader_clock_s: f64,
    },
    /// A Heartbeat frame: advance the lane watermark.
    Heartbeat {
        /// Reader identity.
        reader: u32,
        /// The frame's reader clock, seconds.
        reader_clock_s: f64,
    },
    /// The session ended (Goodbye, EOF, error): close the lane.
    Close {
        /// Reader identity.
        reader: u32,
    },
}

/// The most recent analysis for one user, served at `/snapshot/{user}`.
#[derive(Debug, Clone, Copy)]
pub struct UserSnapshot {
    /// Stream time of the snapshot that produced it, seconds.
    pub time_s: f64,
    /// Windowed breathing rate, bpm.
    pub rate_bpm: f64,
    /// Breathing-effort RMS of the extracted signal.
    pub effort_rms: f64,
}

/// The served snapshot state, shared by the engine thread, the HTTP
/// surface and the server handle, with the condition variable every
/// publish notifies.
#[derive(Debug, Default)]
pub(crate) struct SharedStore {
    state: Mutex<SnapshotStore>,
    published: Condvar,
}

impl SharedStore {
    /// Locks the snapshot state.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, SnapshotStore>> {
        self.state.lock()
    }

    /// Blocks until at least `snapshots` snapshots have been published or
    /// `timeout` passes, and returns how many have been published.
    pub fn wait_published(&self, snapshots: u64, timeout: Duration) -> u64 {
        // Each publish leaves the state whole, so a panic elsewhere cannot
        // corrupt the count.
        let guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (guard, _) = self
            .published
            .wait_timeout_while(guard, timeout, |s| s.published() < snapshots)
            .unwrap_or_else(PoisonError::into_inner);
        guard.published()
    }
}

/// Snapshot state shared between the engine thread and the HTTP surface.
#[derive(Debug, Default)]
pub(crate) struct SnapshotStore {
    /// Every snapshot emitted, in epoch order (bounded by the server's
    /// `snapshot_log` config; oldest dropped first).
    pub log: VecDeque<RateSnapshot>,
    /// Snapshots dropped from the front of `log` to honour the bound.
    pub trimmed: u64,
    /// Latest per-user analysis.
    pub latest: BTreeMap<u64, UserSnapshot>,
    /// The newest flight-recorder bundle, rendered as JSON. Only the
    /// newest is kept: `/bundle` serves nothing else, and each one is
    /// large.
    pub bundle: Option<String>,
}

impl SnapshotStore {
    /// Snapshots published so far: the log plus those trimmed from it.
    fn published(&self) -> u64 {
        self.log.len() as u64 + self.trimmed
    }

    /// Appends `snap` to the log and trims the oldest entries beyond
    /// `cap` (at least 1).
    fn append(&mut self, snap: RateSnapshot, cap: usize) {
        self.log.push_back(snap);
        while self.log.len() > cap.max(1) {
            self.log.pop_front();
            self.trimmed += 1;
        }
    }
}

/// Everything the engine thread owns, bundled for [`run_engine`].
pub(crate) struct EngineState<R> {
    pub fleet: FleetEngine<R>,
    pub publisher: Publisher,
}

/// The publication half of the engine: flight scanning, freshness
/// attribution, SLO evaluation and the served snapshot log. Split from
/// the fleet so the final drain can finish the fleet (which consumes it)
/// and keep publishing the tail snapshots.
pub(crate) struct Publisher {
    pub flight: FlightDiagnostics,
    pub recorder: SharedRecorder,
    pub registry: Arc<Registry>,
    pub slo: Arc<Mutex<SloTable>>,
    pub shards: usize,
    pub log_cap: usize,
    /// Engine-ingest stamps measured against snapshot publication — the
    /// `total` freshness stage.
    pub total_clock: WatermarkClock,
}

/// Consumes events until every sender hangs up, then drains the lanes,
/// finishes the fleet, and returns. A quiet queue ticks every
/// `ENGINE_TICK` to publish snapshots whose parts finished meanwhile.
pub(crate) fn run_engine<R: IdentityResolver>(
    rx: &Receiver<EngineEvent>,
    mut state: EngineState<R>,
    store: &SharedStore,
) {
    let recording = state.publisher.recorder.as_dyn().enabled();
    let mut merger = LaneMerger::new();
    // Engine-ingest stamps measured against lane release — the
    // `lane_merge` freshness stage.
    let mut lane_clock = WatermarkClock::new(512, 0.05);
    loop {
        let event = match rx.recv_timeout(ENGINE_TICK) {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => {
                for snap in state.fleet.push(Vec::new()) {
                    state.publisher.publish(store, snap);
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        match event {
            EngineEvent::Open { reader } => merger.open(reader),
            EngineEvent::Batch {
                reader,
                reports,
                reader_clock_s,
            } => {
                if recording {
                    let newest = reports
                        .iter()
                        .map(|r| r.time_s)
                        .fold(f64::NEG_INFINITY, f64::max);
                    lane_clock.stamp(newest);
                    state.publisher.total_clock.stamp(newest);
                }
                merger.push(reader, reports, reader_clock_s);
            }
            EngineEvent::Heartbeat {
                reader,
                reader_clock_s,
            } => merger.heartbeat(reader, reader_clock_s),
            EngineEvent::Close { reader } => merger.close(reader),
        }
        let released = merger.release();
        if recording {
            observe_merge(&mut lane_clock, &merger, &state.publisher, &released);
        }
        feed(&mut state, store, released);
    }
    // All sessions and the acceptor are gone: flush everything.
    let rest = merger.drain_all();
    feed(&mut state, store, rest);
    let EngineState {
        fleet,
        mut publisher,
    } = state;
    let tail = fleet.finish();
    for snap in tail {
        publisher.publish(store, snap);
    }
}

/// Records the lane-merge stage lag for a released batch and refreshes
/// the per-reader lag gauges (how far each open lane's watermark trails
/// the furthest-ahead lane, stream seconds).
fn observe_merge(
    lane_clock: &mut WatermarkClock,
    merger: &LaneMerger,
    publisher: &Publisher,
    released: &[TagReport],
) {
    if let Some(last) = released.last() {
        if let Some(lag) = lane_clock.lag(last.time_s) {
            publisher.recorder.observe(
                tagbreathe::metrics::SNAPSHOT_LAG_NS,
                Some(Label::stage(Stage::LaneMerge.code())),
                duration_ns(lag),
            );
        }
    }
    let lanes = merger.lane_watermarks();
    let ahead = lanes
        .iter()
        .map(|&(_, w)| w)
        .fold(f64::NEG_INFINITY, f64::max);
    if !ahead.is_finite() {
        return;
    }
    for (reader, w) in lanes {
        // A lane that has not yet spoken has no finite watermark; its
        // absence from the gauge (rather than a fake zero) is the signal.
        if w.is_finite() {
            publisher.recorder.set_gauge(
                metrics::SERVER_READER_LAG_S,
                Some(Label::reader(reader)),
                (ahead - w).max(0.0),
            );
        }
    }
}

fn feed<R: IdentityResolver>(
    state: &mut EngineState<R>,
    store: &SharedStore,
    released: Vec<TagReport>,
) {
    if released.is_empty() {
        return;
    }
    state.publisher.recorder.add(
        metrics::SERVER_REPORTS_MERGED_TOTAL,
        None,
        released.len() as u64,
    );
    state
        .publisher
        .flight
        .ring()
        .emit_all(released.iter().map(|r| {
            TraceEvent::read(
                r.time_s,
                r.epc.user_id(),
                r.epc.tag_id(),
                r.antenna_port,
                r.channel_index,
                r.phase_rad,
                r.rssi_dbm,
            )
        }));
    let snapshots = state.fleet.push(released);
    for snap in snapshots {
        state.publisher.publish(store, snap);
    }
}

impl Publisher {
    /// Scans, measures, judges and serves one snapshot: flight-recorder
    /// triggers, the `total` freshness stage, the SLO burn-rate machines
    /// (whose Burning transitions also capture a flight bundle), then the
    /// shared snapshot store.
    pub(crate) fn publish(&mut self, store: &SharedStore, snap: RateSnapshot) {
        self.flight.scan(&snap, self.recorder.as_dyn());
        if self.recorder.as_dyn().enabled() {
            if let Some(lag) = self.total_clock.lag(snap.time_s) {
                self.recorder.observe(
                    tagbreathe::metrics::SNAPSHOT_LAG_NS,
                    Some(Label::stage(Stage::Total.code())),
                    duration_ns(lag),
                );
            }
            self.evaluate_slos(snap.time_s);
        }
        let fresh = self.flight.take_bundles().last().map(|b| b.to_json());
        self.recorder.add(metrics::SERVER_SNAPSHOTS_TOTAL, None, 1);
        let Ok(mut guard) = store.lock() else {
            return;
        };
        for (&user, rate) in &snap.rates_bpm {
            let effort = snap.effort_rms.get(&user).copied().unwrap_or(0.0);
            guard.latest.insert(
                user,
                UserSnapshot {
                    time_s: snap.time_s,
                    rate_bpm: *rate,
                    effort_rms: effort,
                },
            );
        }
        if fresh.is_some() {
            guard.bundle = fresh;
        }
        guard.append(snap, self.log_cap);
        drop(guard);
        store.published.notify_all();
    }

    /// One tick of every SLO burn-rate machine against freshly measured
    /// values. Transitions count, re-gauge, emit a trace instant, and —
    /// on entering Burning — capture a flight-recorder bundle so the
    /// evidence window around the breach is preserved.
    fn evaluate_slos(&mut self, time_s: f64) {
        let values = crate::slo::measure(&self.registry, self.shards);
        let Ok(mut table) = self.slo.lock() else {
            return;
        };
        let transitions = table.evaluate(&values);
        for (idx, transition) in transitions {
            self.recorder.add(
                metrics::SERVER_SLO_TRANSITIONS_TOTAL,
                Some(Label::code(transition.to.code())),
                1,
            );
            let row = table.slos().get(idx).map(|s| s.row());
            let value = row.and_then(|r| r.value).unwrap_or(f64::NAN);
            let objective = row.map_or(f64::NAN, |r| r.objective);
            let tracer = self.flight.tracer();
            if tracer.as_dyn().enabled() {
                tracer.as_dyn().emit(
                    TraceEvent::instant("slo_transition", time_s)
                        .with_user(idx as u64)
                        .with_values(value, f64::from(transition.to.code())),
                );
            }
            if transition.to == SloState::Burning {
                self.flight.capture_anomaly(
                    Anomaly {
                        kind: AnomalyKind::SloBreach,
                        user: idx as u64,
                        time_s,
                        value,
                        reference: objective,
                    },
                    self.recorder.as_dyn(),
                );
            }
        }
        for (idx, slo) in table.slos().iter().enumerate() {
            self.recorder.set_gauge(
                metrics::SERVER_SLO_STATE,
                Some(Label::code(u8::try_from(idx).unwrap_or(u8::MAX))),
                f64::from(slo.state().code()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_log_keeps_the_newest_snapshots_and_counts_the_trimmed() {
        let mut store = SnapshotStore::default();
        for i in 0..10u32 {
            let snap = RateSnapshot {
                time_s: f64::from(i),
                ..RateSnapshot::default()
            };
            store.append(snap, 3);
        }
        let times: Vec<f64> = store.log.iter().map(|s| s.time_s).collect();
        assert_eq!(times, vec![7.0, 8.0, 9.0]);
        assert_eq!(store.trimmed, 7);
        assert_eq!(store.published(), 10);
    }
}
