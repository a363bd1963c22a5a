//! The streaming engine: one router over an inline or a threaded executor.
//!
//! TagBreathe's host software processes the reader's low-level stream "in
//! a pipelined manner" and shows breathing in real time (Section V).
//! [`Engine`] is that processor. Its router is written once: it interns
//! each EPC ([`IdentityCache`]), admits a new user to a shard and a dense
//! slot, runs the cadence/eviction clock over the stream watermark, and
//! merges per-shard snapshot parts in epoch order. The [`Executor`]
//! decides where the shards run:
//!
//! * [`Inline`] applies every message to one [`ShardCore`] on the caller's
//!   thread — the [`StreamingMonitor`] shape, for one reader and a handful
//!   of subjects;
//! * [`Threaded`] ships every message over an SPSC ring to one worker
//!   thread per shard — the [`FleetEngine`] shape, for wards of users.
//!
//! Both executors apply a message with the same [`ShardCore`] step, and
//! the router sends control messages in stream order, so the snapshot
//! stream is bit-identical across executors and shard counts (pinned by
//! `tests/fleet_equivalence.rs`).
//!
//! Metrics stay off the per-report path. The router, the executor and
//! each shard count into plain blocks they own; the router alone folds
//! them into its recorder: a shard's block with each snapshot part, and
//! its own and the executor's once per [`Engine::push`] and in
//! [`Engine::finish`].
//!
//! [`StreamingMonitor`]: crate::pipeline::StreamingMonitor
//! [`FleetEngine`]: crate::fleet::FleetEngine
//! [`Threaded`]: crate::fleet::Threaded

use crate::config::{InvalidConfigError, PipelineConfig};
use crate::demux::{classify, LinkQualityTracker};
use crate::fleet::interner::{shard_of_user, IdentityCache, Route};
use crate::fleet::msg::ShardMsg;
use crate::fleet::shard::{ShardCore, ShardEnv, ShardPart};
use crate::metrics;
use crate::pipeline::RateSnapshot;
use epcgen2::mapping::IdentityResolver;
use epcgen2::report::TagReport;
use obs::freshness::{duration_ns, Stage, WatermarkClock};
use obs::trace::{SharedTracer, TraceEvent, Tracer};
use obs::{Label, Recorder, SharedRecorder};
use std::collections::BTreeMap;
use std::time::Instant;

/// Runs the shards the router feeds.
pub trait Executor {
    /// Whether messages cross to worker threads over rings. Gates the
    /// handoff instruments (the `ring_handoff` and `epoch_merge` lag
    /// stages and the handoff latency) so they exist only where a
    /// handoff does.
    const RINGS: bool;

    /// Number of shards (at least one).
    fn shard_count(&self) -> usize;

    /// Delivers one message to `shard`, in stream order; called once per
    /// report. An executor that applies the message on the caller's thread
    /// returns the part a `Snapshot` request produced; one that hands it
    /// off returns `None` and yields the part from [`Executor::poll`].
    fn send(&mut self, shard: u32, msg: ShardMsg, env: &ShardEnv) -> Option<ShardPart>;

    /// Hands the messages sent so far to the shards; called once per
    /// [`Engine::push`] and at each cadence point, before polling. A
    /// threaded executor wakes here the workers that sleep on an empty
    /// ring, so a wake costs one call per shard and batch, not one per
    /// report. An executor that applies messages on send has nothing to do.
    fn flush(&mut self) {}

    /// A snapshot part finished since the last call, without blocking.
    /// An executor that applies messages on the caller's thread has none.
    fn poll(&mut self) -> Option<ShardPart> {
        None
    }

    /// Stops the shards once every message sent so far has been applied.
    /// Idempotent; an inline executor has nothing to stop.
    fn finish(&mut self) {}

    /// Folds into `rec` the counts the executor made since the last call
    /// that no snapshot part carried home. Called by the router once per
    /// [`Engine::push`] and in [`Engine::finish`].
    fn fold(&mut self, rec: &dyn Recorder);
}

/// The inline executor: one [`ShardCore`] driven on the caller's thread.
#[derive(Debug, Default)]
pub struct Inline {
    core: ShardCore,
}

impl Executor for Inline {
    const RINGS: bool = false;

    fn shard_count(&self) -> usize {
        1
    }

    fn send(&mut self, _shard: u32, msg: ShardMsg, env: &ShardEnv) -> Option<ShardPart> {
        self.core.apply(0, msg, env)
    }

    /// Folds the core's block, so an inline engine's counters are exact
    /// after every push.
    fn fold(&mut self, rec: &dyn Recorder) {
        self.core.take_counts().fold(rec);
    }
}

/// The router's own count block since its last fold.
#[derive(Debug, Clone, Copy, Default)]
struct RouterCounts {
    reports_ingested: u64,
    reports_unknown: u64,
}

impl RouterCounts {
    fn fold(self, rec: &dyn Recorder) {
        metrics::fold_count(rec, metrics::REPORTS_INGESTED, None, self.reports_ingested);
        metrics::fold_count(rec, metrics::REPORTS_UNKNOWN, None, self.reports_unknown);
    }
}

/// The streaming engine: push time-ordered reports, get [`RateSnapshot`]s
/// back at the update cadence.
///
/// `R` resolves EPCs to monitored identities and `X` runs the shards. Its
/// public names are the aliases
/// [`StreamingMonitor`](crate::pipeline::StreamingMonitor) (the [`Inline`]
/// executor) and [`FleetEngine`](crate::fleet::FleetEngine) (the
/// [`Threaded`](crate::fleet::Threaded) one); each constructor picks its
/// executor. Per-report work is amortised O(1) — no window
/// re-preprocessing — and memory is bounded by the window contents, not
/// the stream length.
#[derive(Debug)]
pub struct Engine<R, X> {
    resolver: R,
    env: ShardEnv,
    exec: X,
    recorder: SharedRecorder,
    /// Cached `recorder.enabled()`.
    recording: bool,
    counts: RouterCounts,
    /// Hot-path EPC → route cache; consulted before the resolver.
    routes: IdentityCache,
    /// Cold-path user → (shard, slot) assignments, for users wearing
    /// several tags.
    user_slots: BTreeMap<u64, (u32, u32)>,
    /// Next dense user slot per shard.
    next_slot: Vec<u32>,
    update_every_s: f64,
    watermark_s: f64,
    next_update_s: f64,
    last_evict_s: f64,
    /// Per in-flight epoch: parts merged so far, and their merge.
    pending: BTreeMap<u64, (usize, ShardPart)>,
    /// Broadcast instant per in-flight epoch (recorded ring executors only).
    epoch_started: BTreeMap<u64, Instant>,
    next_epoch: u64,
    next_emit: u64,
    /// Merged snapshots ready to hand back, in epoch order.
    done: Vec<RateSnapshot>,
    link_quality: LinkQualityTracker,
    /// Ingest stamps for the shard-ingest freshness stage (recorded runs
    /// only; never touched on the disabled path).
    lag_clock: WatermarkClock,
}

impl<R: IdentityResolver, X: Executor> Engine<R, X> {
    /// The shared constructor: validates the configuration, the window and
    /// the cadence, then builds the executor from the shard environment.
    pub(crate) fn build(
        config: PipelineConfig,
        resolver: R,
        window_s: f64,
        update_every_s: f64,
        recorder: SharedRecorder,
        executor: impl FnOnce(&ShardEnv) -> X,
    ) -> Result<Self, InvalidConfigError> {
        config.validate()?;
        if window_s.is_nan() || window_s <= 0.0 {
            return Err(InvalidConfigError {
                what: "analysis window must be positive",
            });
        }
        if update_every_s.is_nan() || update_every_s <= 0.0 {
            return Err(InvalidConfigError {
                what: "snapshot cadence must be positive",
            });
        }
        let env = ShardEnv::new(config, window_s);
        let exec = executor(&env);
        Ok(Engine {
            resolver,
            recording: recorder.enabled(),
            recorder,
            counts: RouterCounts::default(),
            routes: IdentityCache::new(),
            user_slots: BTreeMap::new(),
            next_slot: vec![0; exec.shard_count()],
            env,
            exec,
            update_every_s,
            watermark_s: 0.0,
            next_update_s: update_every_s,
            last_evict_s: 0.0,
            pending: BTreeMap::new(),
            epoch_started: BTreeMap::new(),
            next_epoch: 0,
            next_emit: 0,
            done: Vec::new(),
            link_quality: LinkQualityTracker::new(),
            lag_clock: WatermarkClock::new(512, update_every_s / 8.0),
        })
    }

    /// Routes a batch of time-ordered reports and returns every merged
    /// snapshot that completed. Reports with a non-finite timestamp are
    /// dropped unseen (the batch [`BreathMonitor`](crate::BreathMonitor)
    /// drops them too). The inline executor completes a cadence
    /// point within the `push` that crosses it; with the threaded one a
    /// snapshot may surface in a later `push` (an empty one will do) or in
    /// [`Engine::finish`]. Snapshots always come back in epoch order.
    pub fn push<I>(&mut self, reports: I) -> Vec<RateSnapshot>
    where
        I: IntoIterator<Item = TagReport>,
    {
        // One clock pair per push call (not per report), ring executors
        // only: the ring-handoff stage is the router-side cost of a batch.
        let handoff_started = (X::RINGS && self.recording).then(Instant::now);
        let mut routed_any = false;
        for r in reports {
            // A report that cannot be placed in stream time is dropped
            // before it can move the watermark: a `+inf` one would leave
            // the cadence clock unable to ever catch up.
            if !r.time_s.is_finite() {
                continue;
            }
            routed_any = true;
            self.counts.reports_ingested += 1;
            self.watermark_s = self.watermark_s.max(r.time_s);
            if self.recording || self.env.tracing {
                self.observe(&r);
            }
            let route = match self.routes.probe(r.epc.user_id(), r.epc.tag_id()) {
                Some(route) => route,
                None => self.admit_report(&r),
            };
            match route {
                Route::User {
                    shard,
                    slot,
                    tag_id,
                } => self.deliver(
                    shard,
                    ShardMsg::Report {
                        slot,
                        tag_id,
                        antenna_port: r.antenna_port,
                        channel_index: r.channel_index,
                        time_s: r.time_s,
                        phase_rad: r.phase_rad,
                        rssi_dbm: r.rssi_dbm,
                        doppler_hz: r.doppler_hz,
                    },
                ),
                Route::Unknown => {
                    self.counts.reports_unknown += 1;
                    if self.env.tracing {
                        self.env.tracer.emit(
                            TraceEvent::instant("unknown_report", r.time_s)
                                .with_port(r.antenna_port)
                                .with_channel(r.channel_index),
                        );
                    }
                }
            }
            if self.watermark_s >= self.next_update_s {
                self.request_due_snapshots();
            }
            // Keep state bounded even when the snapshot cadence is long
            // relative to the window.
            if self.watermark_s - self.last_evict_s >= self.env.window_s.min(self.update_every_s) {
                self.broadcast(ShardMsg::Evict {
                    watermark_s: self.watermark_s,
                });
                self.last_evict_s = self.watermark_s;
            }
        }
        if let (Some(started), true) = (handoff_started, routed_any) {
            self.recorder.observe(
                metrics::SNAPSHOT_LAG_NS,
                Some(Label::stage(Stage::RingHandoff.code())),
                duration_ns(started.elapsed()),
            );
        }
        self.drain();
        self.fold(routed_any);
        std::mem::take(&mut self.done)
    }

    /// Flushes the engine: waits for every in-flight snapshot part, stops
    /// the executor, folds the last counts and returns the remaining
    /// merged snapshots.
    #[must_use]
    pub fn finish(mut self) -> Vec<RateSnapshot> {
        self.exec.finish();
        self.drain();
        self.fold(true);
        std::mem::take(&mut self.done)
    }

    /// Folds the counts made since the last fold that no snapshot part
    /// carried home — the router's and the executor's — into the
    /// recorder, and publishes the port link gauges when `routed`. With
    /// nothing counted this makes no recorder call, so an empty push takes
    /// no lock.
    fn fold(&mut self, routed: bool) {
        let rec = self.recorder.as_dyn();
        std::mem::take(&mut self.counts).fold(rec);
        self.exec.fold(rec);
        if routed {
            self.link_quality.publish(rec);
        }
    }

    /// Recorder and tracer bookkeeping for one report: lag stamp, link
    /// quality and the channel-hop trace.
    fn observe(&mut self, r: &TagReport) {
        if self.recording {
            self.lag_clock.stamp(r.time_s);
        }
        let hop = self.link_quality.observe(r);
        if let (true, Some(hop)) = (self.env.tracing, hop) {
            self.env.tracer.emit(
                TraceEvent::instant("channel_hop", r.time_s)
                    .with_port(hop.port)
                    .with_channel(hop.to)
                    .with_values(f64::from(hop.from), f64::from(hop.to)),
            );
        }
    }

    /// Cold path on a route-cache miss: resolve the EPC, place a new user
    /// on its shard at the next dense slot (telling the shard), and cache
    /// the route. Unknown EPCs are cached too, so item traffic stays one
    /// probe per read.
    fn admit_report(&mut self, r: &TagReport) -> Route {
        let route = match classify(&self.resolver, r) {
            Some((user_id, tag_id)) => {
                let (shard, slot) = match self.user_slots.get(&user_id) {
                    Some(&assigned) => assigned,
                    None => {
                        let shard = shard_of_user(user_id, self.exec.shard_count());
                        let slot = match self.next_slot.get_mut(shard as usize) {
                            Some(next) => {
                                let slot = *next;
                                *next = slot.wrapping_add(1);
                                slot
                            }
                            None => 0,
                        };
                        self.user_slots.insert(user_id, (shard, slot));
                        self.deliver(shard, ShardMsg::Admit { slot, user_id });
                        (shard, slot)
                    }
                };
                Route::User {
                    shard,
                    slot,
                    tag_id,
                }
            }
            None => Route::Unknown,
        };
        self.routes
            .admit_route(r.epc.user_id(), r.epc.tag_id(), route);
        route
    }

    /// Cold path at a cadence boundary: requests a snapshot for every due
    /// cadence point, advancing the update clock.
    fn request_due_snapshots(&mut self) {
        while self.watermark_s >= self.next_update_s {
            self.request_snapshot(self.next_update_s);
            self.next_update_s += self.update_every_s;
        }
        self.drain();
    }

    /// Broadcasts one `Snapshot` request stamped `time_s`. It carries the
    /// current watermark (shards evict to it first) and the next epoch, for
    /// ordered merging.
    fn request_snapshot(&mut self, time_s: f64) {
        self.broadcast(ShardMsg::Snapshot {
            watermark_s: self.watermark_s,
            time_s,
            epoch: self.next_epoch,
        });
        if X::RINGS && self.recording {
            self.epoch_started.insert(self.next_epoch, Instant::now());
        }
        self.next_epoch += 1;
        self.last_evict_s = self.watermark_s;
    }

    fn broadcast(&mut self, msg: ShardMsg) {
        for shard in 0..u32::try_from(self.exec.shard_count()).unwrap_or(0) {
            self.deliver(shard, msg);
        }
    }

    /// Sends one message to `shard`, merging any part the executor hands
    /// straight back.
    fn deliver(&mut self, shard: u32, msg: ShardMsg) {
        if let Some(part) = self.exec.send(shard, msg, &self.env) {
            self.absorb(part);
        }
    }

    fn drain(&mut self) {
        self.exec.flush();
        while let Some(part) = self.exec.poll() {
            self.absorb(part);
        }
    }

    /// Folds one shard's part into its epoch, and its count block and
    /// occupancy gauges into the recorder, then emits every complete
    /// epoch. Cold: once per epoch part.
    fn absorb(&mut self, mut part: ShardPart) {
        if self.recording {
            let rec = self.recorder.as_dyn();
            let label = Some(Label::shard(part.shard));
            rec.set_gauge(metrics::FLEET_SHARD_USERS, label, part.occupancy as f64);
            rec.set_gauge(
                metrics::FLEET_RESIDENT_BYTES,
                label,
                part.resident_bytes as f64,
            );
            if X::RINGS {
                rec.set_gauge(metrics::FLEET_RING_DEPTH, label, part.ring_depth as f64);
            }
            part.counts.fold(rec);
        }
        let (parts, merged) = self.pending.entry(part.epoch).or_default();
        *parts += 1;
        merged.time_s = part.time_s;
        merged.rates_bpm.append(&mut part.rates_bpm);
        merged.effort_rms.append(&mut part.effort_rms);
        merged.occupancy += part.occupancy;
        merged.state_cells += part.state_cells;
        self.flush_ready();
    }

    /// Emits every epoch whose parts have all arrived, in epoch order —
    /// the order-pinned merge that makes the output deterministic.
    fn flush_ready(&mut self) {
        let shards = self.exec.shard_count();
        while self
            .pending
            .get(&self.next_emit)
            .is_some_and(|&(parts, _)| parts == shards)
        {
            let Some((_, epoch)) = self.pending.remove(&self.next_emit) else {
                return;
            };
            if self.recording {
                self.record_epoch(&epoch);
            }
            if self.env.tracing {
                for (&user, &bpm) in &epoch.rates_bpm {
                    let effort = epoch.effort_rms.get(&user).copied().unwrap_or(0.0);
                    self.env.tracer.emit(
                        TraceEvent::instant("rate", epoch.time_s)
                            .with_user(user)
                            .with_values(bpm, effort),
                    );
                }
            }
            self.done.push(RateSnapshot {
                time_s: epoch.time_s,
                rates_bpm: epoch.rates_bpm,
                effort_rms: epoch.effort_rms,
            });
            self.next_emit += 1;
        }
    }

    /// Snapshot bookkeeping metrics of one merged epoch.
    fn record_epoch(&mut self, epoch: &ShardPart) {
        let rec = self.recorder.as_dyn();
        if let Some(lag) = self.lag_clock.lag(epoch.time_s) {
            rec.observe(
                metrics::SNAPSHOT_LAG_NS,
                Some(Label::stage(Stage::ShardIngest.code())),
                duration_ns(lag),
            );
        }
        if let Some(started) = self.epoch_started.remove(&self.next_emit) {
            let ns = duration_ns(started.elapsed());
            rec.record(metrics::FLEET_HANDOFF_LATENCY_NS, ns);
            rec.observe(
                metrics::SNAPSHOT_LAG_NS,
                Some(Label::stage(Stage::EpochMerge.code())),
                ns,
            );
        }
        rec.count(metrics::SNAPSHOTS, 1);
        rec.count(metrics::RATES_REPORTED, epoch.rates_bpm.len() as u64);
        let failures = epoch.occupancy.saturating_sub(epoch.rates_bpm.len());
        if failures > 0 {
            rec.count(metrics::ANALYSIS_FAILURES, failures as u64);
        }
        rec.gauge(metrics::USERS_TRACKED, epoch.occupancy as f64);
        rec.gauge(metrics::STATE_CELLS, epoch.state_cells as f64);
    }
}

impl<R, X: Executor> Engine<R, X> {
    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.env.config
    }

    /// The attached recorder handle (no-op by default).
    #[must_use]
    pub fn recorder(&self) -> &SharedRecorder {
        &self.recorder
    }

    /// Per-antenna-port link statistics (populated only while a recorder
    /// or tracer is attached).
    #[must_use]
    pub fn link_quality(&self) -> &LinkQualityTracker {
        &self.link_quality
    }

    /// Number of shards the executor runs.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.exec.shard_count()
    }

    /// Users admitted (interned and assigned a shard) so far.
    #[must_use]
    pub fn routed_users(&self) -> usize {
        self.user_slots.len()
    }
}

impl<R: IdentityResolver> Engine<R, Inline> {
    /// Creates an inline engine — a
    /// [`StreamingMonitor`](crate::pipeline::StreamingMonitor) — with an
    /// analysis window of `window_s` seconds, snapshotted every
    /// `update_every_s` seconds of stream time.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or the window /
    /// cadence are not positive.
    pub fn new(
        config: PipelineConfig,
        resolver: R,
        window_s: f64,
        update_every_s: f64,
    ) -> Result<Self, InvalidConfigError> {
        Self::build(
            config,
            resolver,
            window_s,
            update_every_s,
            SharedRecorder::noop(),
            |_| Inline::default(),
        )
    }

    /// Attaches a metric sink (builder style). With the default no-op
    /// handle every instrumentation site reduces to one cached boolean
    /// test, so streaming cost is unchanged; with a registry attached the
    /// engine emits the `tagbreathe_*` counters, gauges and latency
    /// histograms listed in [`crate::metrics`].
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use obs::{Registry, SharedRecorder};
    /// use tagbreathe::pipeline::StreamingMonitor;
    /// use tagbreathe::PipelineConfig;
    /// use epcgen2::mapping::EmbeddedIdentity;
    ///
    /// let registry = Arc::new(Registry::new());
    /// let sm = StreamingMonitor::new(
    ///     PipelineConfig::paper_default(),
    ///     EmbeddedIdentity::new([1]),
    ///     25.0,
    ///     5.0,
    /// )?
    /// .with_recorder(SharedRecorder::new(registry.clone()));
    /// # let _ = sm;
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recording = recorder.enabled();
        self.recorder = recorder;
        self
    }

    /// Attaches a flight-recorder tracer (builder style). With the default
    /// no-op handle every emit site reduces to one cached boolean test;
    /// with a tracer attached the engine emits per-read provenance
    /// events, channel-hop / phase accept-reject instants, per-user rate
    /// instants and snapshot / evict spans into the ring. The estimate
    /// stream is bit-identical either way (pinned by
    /// `tests/observability.rs`).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use obs::trace::{FlightRecorder, SharedTracer};
    /// use tagbreathe::pipeline::StreamingMonitor;
    /// use tagbreathe::PipelineConfig;
    /// use epcgen2::mapping::EmbeddedIdentity;
    ///
    /// let ring = Arc::new(FlightRecorder::with_capacity(4096)?);
    /// let sm = StreamingMonitor::new(
    ///     PipelineConfig::paper_default(),
    ///     EmbeddedIdentity::new([1]),
    ///     25.0,
    ///     5.0,
    /// )?
    /// .with_tracer(SharedTracer::new(ring.clone()));
    /// # let _ = sm;
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn with_tracer(mut self, tracer: SharedTracer) -> Self {
        self.env.tracing = tracer.enabled();
        self.env.tracer = tracer;
        self
    }

    /// Forces an immediate snapshot over the current window.
    pub fn snapshot_now(&mut self) -> RateSnapshot {
        self.request_snapshot(self.watermark_s);
        self.done.pop().unwrap_or_default()
    }

    /// Retained state cells across all users — tag slots, per-channel
    /// phase references, buffered track samples and fusion bins. Bounded
    /// by window contents (plus the gap horizon), not stream length.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.exec.core.state_cells()
    }

    /// Number of users currently holding state.
    #[must_use]
    pub fn tracked_users(&self) -> usize {
        self.exec.core.occupancy()
    }

    /// Number of `(antenna_port, tag_id)` slots currently holding state
    /// across all users.
    #[must_use]
    pub fn tracked_tags(&self) -> usize {
        self.exec.core.tag_count()
    }
}

#[cfg(test)]
mod tests {
    use crate::fleet::FleetEngine;
    use crate::pipeline::StreamingMonitor;
    use crate::PipelineConfig;
    use epcgen2::mapping::EmbeddedIdentity;

    #[test]
    fn invalid_window_and_cadence_are_named_by_both_constructors() {
        let cfg = PipelineConfig::paper_default;
        let ids = || EmbeddedIdentity::new([1]);
        for (window_s, cadence_s, what) in [
            (0.0, 5.0, "analysis window must be positive"),
            (f64::NAN, 5.0, "analysis window must be positive"),
            (25.0, -1.0, "snapshot cadence must be positive"),
            (25.0, f64::NAN, "snapshot cadence must be positive"),
        ] {
            let expected = format!("invalid pipeline configuration: {what}");
            let inline = StreamingMonitor::new(cfg(), ids(), window_s, cadence_s);
            let threaded = FleetEngine::new(cfg(), ids(), window_s, cadence_s, 2);
            assert_eq!(inline.err().map(|e| e.to_string()), Some(expected.clone()));
            assert_eq!(threaded.err().map(|e| e.to_string()), Some(expected));
        }
    }
}
