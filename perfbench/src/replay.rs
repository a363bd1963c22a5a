//! The traced replay: the same lane-merged input, in pipeline order,
//! through each layer's public functions, with one span around each
//! call. Calls that cost tens of nanoseconds (`IdentityCache::probe`,
//! ring push + pop, `UserStreamState::push`) are timed per batch, one
//! span per run of calls with the run's length as its item count, so the
//! clock does not dominate what it measures.
//!
//! Four passes, one at a time so no pass's shard workers compete with
//! another's:
//!
//! 1. wire + merge + a layered router: `encode_frame`/`decode_frame`,
//!    `LaneMerger::push`/`release`, then `IdentityCache::probe`, ring
//!    push/pop and the shard's `UserStreamState::push`/`evict`/`snapshot`
//!    with the analysis tail (`extract_breath_signal`, `estimate_rate`)
//!    under `FleetEngine`'s cadence rules;
//! 2. `FleetEngine::push` with a `Registry` recorder, as the server runs it;
//! 3. `FleetEngine::push` with the no-op recorder;
//! 4. `StreamingMonitor::push`, the single-threaded baseline.
//!
//! Each pass's snapshots must equal the server's log bit for bit, which
//! proves the replay did the server's work.

use crate::reference::{compare_logs, merged_stream};
use crate::span::{ReqId, Spans};
use crate::workload::{reader_id, Input, Params};
use bench::fleet::RangeIdentity;
use epcgen2::epc::Epc96;
use epcgen2::wire::{decode_frame, encode_frame, Message};
use obs::recorder::SharedRecorder;
use obs::registry::Registry;
use server::LaneMerger;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use tagbreathe::demux::classify;
use tagbreathe::extract::extract_breath_signal;
use tagbreathe::fleet::interner::{shard_of_user, IdentityCache, Route};
use tagbreathe::fleet::msg::ShardMsg;
use tagbreathe::fleet::ring::{self, RingConsumer, RingProducer};
use tagbreathe::rate::estimate_rate;
use tagbreathe::{
    FleetEngine, PipelineConfig, RateSnapshot, StreamingMonitor, TagReport, UserSnapshot,
    UserStreamState,
};

/// Ring depth of the layered router (the fleet's per-shard default).
const RING_SLOTS: usize = 1024;
/// `render_prometheus` calls timed on the server's registry.
const RENDER_CALLS: usize = 20;

/// Counts the replay gathers outside the spans.
#[derive(Debug, Default, Clone)]
pub struct ReplayCounts {
    /// Reports replayed.
    pub reports: u64,
    /// Encoded frame bytes.
    pub wire_bytes: u64,
    /// Users admitted on first touch.
    pub users: u64,
    /// `FleetEngine::push` (recorded) time over the batches that admitted
    /// users, ns.
    pub first_touch_ns: u64,
    /// Users entering the analysis tail (snapshot returned a trajectory).
    pub analysed: u64,
    /// Of those, users a rate was reported for.
    pub rated: u64,
}

/// Runs all four passes against the server's `log`.
///
/// # Errors
///
/// Names the pass whose snapshots differ from the log, or a frame that
/// failed to round-trip.
pub fn replay(
    params: &Params,
    input: &Input,
    log: &[RateSnapshot],
    registry: &Registry,
    spans: &Spans,
) -> Result<ReplayCounts, String> {
    let config = PipelineConfig::paper_default();
    let resolver = RangeIdentity {
        max_user: params.users as u64,
    };
    let mut counts = ReplayCounts::default();

    // Pass 1: wire, merge and the layered router.
    let mut layered = Layered::new(params, &config, resolver.clone());
    let mut merger = LaneMerger::new();
    for lane in 0..params.lanes {
        merger.open(reader_id(lane));
    }
    let mut failure: Option<String> = None;
    input.for_each_batch(|b| {
        if failure.is_some() {
            return;
        }
        let req = ReqId {
            conn: reader_id(b.lane),
            seq: u64::from(b.seq),
        };
        let n = b.reports.len() as u64;
        let root = spans.open("replay.batch", req, 0);
        let msg = Message::Batch {
            seq: b.seq,
            reader_clock_s: b.clock_s,
            reports: b.reports.clone(),
        };
        let t = Instant::now();
        let frame = encode_frame(&msg);
        spans.record("wire.encode", req, root, (t, Instant::now()), (n, 0));
        counts.wire_bytes += frame.len() as u64;
        counts.reports += n;
        let t = Instant::now();
        let decoded = decode_frame(&frame);
        spans.record(
            "wire.decode",
            req,
            root,
            (t, Instant::now()),
            (n, u64::from(decoded.is_err())),
        );
        let reports = match decoded {
            Ok((Message::Batch { reports, .. }, _)) => reports,
            other => {
                failure = Some(format!("batch {req:?} did not round-trip: {other:?}"));
                return;
            }
        };
        let t = Instant::now();
        merger.push(reader_id(b.lane), reports, b.clock_s);
        spans.record("merge.push", req, root, (t, Instant::now()), (n, 0));
        let t = Instant::now();
        let released = merger.release();
        let end = Instant::now();
        spans.record(
            "merge.release",
            req,
            root,
            (t, end),
            (released.len() as u64, 0),
        );
        layered.feed(&released, spans, root, req);
        spans.close(root, n, 0);
    });
    if let Some(f) = failure {
        return Err(f);
    }
    let req = ReqId {
        conn: 0,
        seq: u64::MAX,
    };
    for lane in 0..params.lanes {
        merger.close(reader_id(lane));
        let t = Instant::now();
        let released = merger.release();
        spans.record(
            "merge.release",
            req,
            0,
            (t, Instant::now()),
            (released.len() as u64, 0),
        );
        layered.feed(&released, spans, 0, req);
    }
    let rest = merger.drain_all();
    layered.feed(&rest, spans, 0, req);
    counts.users = layered.ids.len() as u64;
    counts.analysed = layered.analysed;
    counts.rated = layered.rated;
    compare_logs(&layered.snapshots, log).map_err(|e| format!("layered replay: {e}"))?;
    drop(layered);

    // Pass 2: the fleet engine as the server runs it (recorded).
    let recorder = SharedRecorder::new(Arc::new(Registry::new()));
    let fleet = FleetEngine::observed(
        config.clone(),
        resolver.clone(),
        params.window_s,
        params.cadence_s,
        params.shards,
        recorder,
    )
    .map_err(|e| format!("replay engine: {e}"))?;
    let mut seen: HashSet<u64> = HashSet::new();
    let (out, first_touch_ns) = drive_engine(
        params,
        input,
        spans,
        "fleet.push.observed",
        fleet,
        |batch| {
            let before = seen.len();
            seen.extend(batch.iter().map(|r| r.epc.user_id()));
            seen.len() > before
        },
    );
    counts.first_touch_ns = first_touch_ns;
    compare_logs(&out, log).map_err(|e| format!("recorded fleet replay: {e}"))?;

    // Pass 3: the same engine with the no-op recorder.
    let fleet = FleetEngine::new(
        config.clone(),
        resolver.clone(),
        params.window_s,
        params.cadence_s,
        params.shards,
    )
    .map_err(|e| format!("replay engine: {e}"))?;
    let (out, _) = drive_engine(params, input, spans, "fleet.push.noop", fleet, |_| false);
    compare_logs(&out, log).map_err(|e| format!("no-op fleet replay: {e}"))?;

    // Pass 4: the single-threaded baseline.
    let mut inline = StreamingMonitor::new(config, resolver, params.window_s, params.cadence_s)
        .map_err(|e| format!("inline engine: {e}"))?;
    let mut out = Vec::new();
    let mut seq = 0;
    merged_stream(params, input, |released| {
        let n = released.len() as u64;
        let t = Instant::now();
        let snaps = inline.push(released);
        let req = ReqId { conn: 0, seq };
        spans.record("inline.push", req, 0, (t, Instant::now()), (n, 0));
        seq += 1;
        out.extend(snaps);
    });
    compare_logs(&out, log).map_err(|e| format!("inline replay: {e}"))?;

    // The exposition `/metrics` serves, on the server's own registry.
    for call in 0..RENDER_CALLS {
        let t = Instant::now();
        let body = registry.render_prometheus();
        let req = ReqId {
            conn: 0,
            seq: call as u64,
        };
        spans.record(
            "obs.render",
            req,
            0,
            (t, Instant::now()),
            (1, u64::from(body.is_empty())),
        );
    }
    Ok(counts)
}

/// Pushes the merged stream through `fleet`, one span per push, then
/// finishes it. `admits` says, before each push and off the clock, whether
/// the batch holds a user's first report; the push time of those batches
/// is returned beside the snapshots.
fn drive_engine<R: epcgen2::mapping::IdentityResolver>(
    params: &Params,
    input: &Input,
    spans: &Spans,
    name: &'static str,
    mut fleet: FleetEngine<R>,
    mut admits: impl FnMut(&[TagReport]) -> bool,
) -> (Vec<RateSnapshot>, u64) {
    let mut out = Vec::new();
    let mut first_touch_ns = 0;
    let mut seq = 0;
    merged_stream(params, input, |released| {
        let n = released.len() as u64;
        let first_touch = admits(&released);
        let t = Instant::now();
        let snaps = fleet.push(released);
        let end = Instant::now();
        spans.record(name, ReqId { conn: 0, seq }, 0, (t, end), (n, 0));
        if first_touch {
            first_touch_ns += u64::try_from((end - t).as_nanos()).unwrap_or(u64::MAX);
        }
        seq += 1;
        out.extend(snaps);
    });
    let t = Instant::now();
    out.extend(fleet.finish());
    let req = ReqId {
        conn: 0,
        seq: u64::MAX,
    };
    spans.record(name, req, 0, (t, Instant::now()), (0, 0));
    (out, first_touch_ns)
}

/// A single-threaded replica of the fleet router and its shards built
/// from public parts: the interner's route cache, a real ring, and one
/// slab of per-user operator graphs driven by `FleetEngine`'s cadence
/// rules (snapshot at every cadence point the watermark passes, evict
/// every `min(window, cadence)` of stream).
struct Layered<'a> {
    config: &'a PipelineConfig,
    resolver: RangeIdentity,
    window_s: f64,
    cadence_s: f64,
    shards: usize,
    routes: IdentityCache,
    slots: BTreeMap<u64, u32>,
    states: Vec<UserStreamState>,
    ids: Vec<u64>,
    feed: RingProducer,
    drain: RingConsumer,
    watermark_s: f64,
    next_update_s: f64,
    last_evict_s: f64,
    epoch: u64,
    snapshots: Vec<RateSnapshot>,
    analysed: u64,
    rated: u64,
}

impl<'a> Layered<'a> {
    fn new(params: &Params, config: &'a PipelineConfig, resolver: RangeIdentity) -> Self {
        let (feed, drain) = ring::channel(RING_SLOTS);
        Layered {
            config,
            resolver,
            window_s: params.window_s,
            cadence_s: params.cadence_s,
            shards: params.shards,
            routes: IdentityCache::new(),
            slots: BTreeMap::new(),
            states: Vec::new(),
            ids: Vec::new(),
            feed,
            drain,
            watermark_s: 0.0,
            next_update_s: params.cadence_s,
            last_evict_s: 0.0,
            epoch: 0,
            snapshots: Vec::new(),
            analysed: 0,
            rated: 0,
        }
    }

    /// Cold path on a route-cache miss: resolve, assign a slot, cache.
    fn admit(&mut self, r: &TagReport) -> Route {
        let route = match classify(&self.resolver, r) {
            Some((user_id, tag_id)) => {
                let slot = match self.slots.get(&user_id) {
                    Some(&slot) => slot,
                    None => {
                        let slot = u32::try_from(self.states.len()).unwrap_or(u32::MAX);
                        self.states.push(UserStreamState::default());
                        self.ids.push(user_id);
                        self.slots.insert(user_id, slot);
                        slot
                    }
                };
                Route::User {
                    shard: shard_of_user(user_id, self.shards),
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

    fn feed(&mut self, released: &[TagReport], spans: &Spans, parent: usize, req: ReqId) {
        if released.is_empty() {
            return;
        }
        let n = released.len() as u64;

        // The hot probe and the cold admission of its misses are timed
        // apart: on the flood's first pass nearly half the probes miss.
        let t = Instant::now();
        let probed: Vec<Option<Route>> = released
            .iter()
            .map(|r| self.routes.probe(r.epc.user_id(), r.epc.tag_id()))
            .collect();
        let misses = probed.iter().filter(|p| p.is_none()).count() as u64;
        spans.record(
            "interner.probe",
            req,
            parent,
            (t, Instant::now()),
            (n, misses),
        );
        let t = Instant::now();
        let routes: Vec<Route> = released
            .iter()
            .zip(probed)
            .map(|(r, hit)| {
                // A miss may have been admitted by an earlier report of
                // this batch.
                hit.or_else(|| self.routes.probe(r.epc.user_id(), r.epc.tag_id()))
                    .unwrap_or_else(|| self.admit(r))
            })
            .collect();
        spans.record(
            "interner.admit",
            req,
            parent,
            (t, Instant::now()),
            (misses, 0),
        );

        let t = Instant::now();
        let mut msgs: Vec<Option<ShardMsg>> = Vec::with_capacity(released.len());
        let mut routed = 0;
        for (r, route) in released.iter().zip(&routes) {
            let Route::User { slot, tag_id, .. } = *route else {
                msgs.push(None);
                continue;
            };
            let words = ShardMsg::Report {
                slot,
                tag_id,
                antenna_port: r.antenna_port,
                channel_index: r.channel_index,
                time_s: r.time_s,
                phase_rad: r.phase_rad,
                rssi_dbm: r.rssi_dbm,
                doppler_hz: r.doppler_hz,
            }
            .encode();
            while !self.feed.try_push(&words) {
                std::hint::spin_loop();
            }
            msgs.push(self.drain.pop().and_then(|w| ShardMsg::decode(&w)));
            routed += 1;
        }
        spans.record(
            "ring.roundtrip",
            req,
            parent,
            (t, Instant::now()),
            (routed, 0),
        );

        let mut segment = (Instant::now(), 0u64);
        for (r, msg) in released.iter().zip(msgs) {
            self.watermark_s = self.watermark_s.max(r.time_s);
            if let Some(ShardMsg::Report {
                slot,
                tag_id,
                antenna_port,
                channel_index,
                time_s,
                phase_rad,
                rssi_dbm,
                doppler_hz,
            }) = msg
            {
                // As the shard worker rebuilds it: the router consumed the
                // EPC; the operators read only the measurement fields.
                let report = TagReport {
                    time_s,
                    epc: Epc96::monitor(0, 0),
                    antenna_port,
                    channel_index,
                    phase_rad,
                    rssi_dbm,
                    doppler_hz,
                };
                if let Some(state) = self.states.get_mut(slot as usize) {
                    state.push(tag_id, &report, self.config);
                    segment.1 += 1;
                }
            }
            let snapshot_due = self.watermark_s >= self.next_update_s;
            let evict_due = !snapshot_due
                && self.watermark_s - self.last_evict_s >= self.window_s.min(self.cadence_s);
            if snapshot_due || evict_due {
                spans.record(
                    "operators.push",
                    req,
                    parent,
                    (segment.0, Instant::now()),
                    (segment.1, 0),
                );
                if snapshot_due {
                    self.snapshot_due(spans, parent);
                } else {
                    self.evict_all(spans, parent, req);
                    self.last_evict_s = self.watermark_s;
                }
                segment = (Instant::now(), 0);
            }
        }
        spans.record(
            "operators.push",
            req,
            parent,
            (segment.0, Instant::now()),
            (segment.1, 0),
        );
    }

    /// `ShardCore::evict`: evict every occupied slot, resetting any that
    /// empties.
    fn evict_all(&mut self, spans: &Spans, parent: usize, req: ReqId) {
        let t = Instant::now();
        let mut evicted = 0;
        for state in &mut self.states {
            if state.is_empty() {
                continue;
            }
            state.evict(self.watermark_s, self.window_s, self.config);
            evicted += 1;
            if state.is_empty() {
                *state = UserStreamState::default();
            }
        }
        spans.record(
            "operators.evict",
            req,
            parent,
            (t, Instant::now()),
            (evicted, 0),
        );
    }

    /// Every cadence point the watermark passed: evict, snapshot every
    /// slot, and run the analysis tail (despike → gross-motion gate →
    /// extraction → rate) per user, as `ShardCore::snapshot_into` does.
    fn snapshot_due(&mut self, spans: &Spans, parent: usize) {
        while self.watermark_s >= self.next_update_s {
            let req = ReqId {
                conn: 0,
                seq: self.epoch,
            };
            let cadence = spans.open("replay.cadence", req, parent);
            self.evict_all(spans, cadence, req);

            let t = Instant::now();
            let snaps: Vec<(u64, UserSnapshot)> = self
                .states
                .iter()
                .zip(&self.ids)
                .filter_map(|(s, &id)| s.snapshot(self.config).map(|snap| (id, snap)))
                .collect();
            let walked = self.states.len() as u64;
            spans.record(
                "operators.snapshot",
                req,
                cadence,
                (t, Instant::now()),
                (walked, 0),
            );
            self.analysed += snaps.len() as u64;

            let t = Instant::now();
            let mut gated = 0;
            let passed: Vec<(u64, tagbreathe::TimeSeries)> = snaps
                .into_iter()
                .filter_map(|(id, snap)| {
                    let displacement = match self.config.despike_median {
                        Some(width) => snap.displacement.with_values(dsp::filter::median_filter(
                            snap.displacement.values(),
                            width,
                        )),
                        None => snap.displacement,
                    };
                    let v = displacement.values();
                    let max = v.iter().copied().fold(f64::MIN, f64::max);
                    let min = v.iter().copied().fold(f64::MAX, f64::min);
                    if max - min > self.config.gross_motion_limit_m {
                        gated += 1;
                        return None;
                    }
                    Some((id, displacement))
                })
                .collect();
            let n = (passed.len() + gated) as u64;
            spans.record(
                "analysis.gate",
                req,
                cadence,
                (t, Instant::now()),
                (n, gated as u64),
            );

            let t = Instant::now();
            let mut too_short = 0;
            let signals: Vec<(u64, tagbreathe::TimeSeries)> = passed
                .iter()
                .filter_map(|(id, d)| match extract_breath_signal(d, self.config) {
                    Ok(signal) => Some((*id, signal)),
                    Err(_) => {
                        too_short += 1;
                        None
                    }
                })
                .collect();
            let n = passed.len() as u64;
            spans.record("extract", req, cadence, (t, Instant::now()), (n, too_short));

            let t = Instant::now();
            let rates: Vec<Option<f64>> = signals
                .iter()
                .map(|(_, signal)| estimate_rate(signal, self.config).mean_bpm)
                .collect();
            let n = signals.len() as u64;
            let unrated = rates.iter().filter(|r| r.is_none()).count() as u64;
            spans.record("rate", req, cadence, (t, Instant::now()), (n, unrated));

            let mut rates_bpm = BTreeMap::new();
            let mut effort_rms = BTreeMap::new();
            for ((id, signal), rate) in signals.iter().zip(rates) {
                if let Some(bpm) = rate {
                    rates_bpm.insert(*id, bpm);
                }
                if let Some(effort) = dsp::stats::rms(signal.values()) {
                    effort_rms.insert(*id, effort);
                }
            }
            self.rated += rates_bpm.len() as u64;
            self.snapshots.push(RateSnapshot {
                time_s: self.next_update_s,
                rates_bpm,
                effort_rms,
            });
            spans.close(cadence, walked, 0);
            self.epoch += 1;
            self.last_evict_s = self.watermark_s;
            self.next_update_s += self.cadence_s;
        }
    }
}
