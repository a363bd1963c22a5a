//! Canonical metric names emitted by the pipeline.
//!
//! Every instrumented call site in this crate names its metric through one
//! of these constants, so the full surface is greppable in one place and
//! documented next to the paper stage it measures. The rendered forms
//! (Prometheus text, JSON dump) use these strings verbatim; see
//! `docs/METRICS.md` for the reference table with types and labels.
//!
//! Naming follows Prometheus conventions: counters end in `_total`,
//! histograms carry their unit suffix (`_ns`, `_milli`), gauges are bare.

use obs::{Label, Recorder};

/// Counter: reports with a finite timestamp taken in by the engine's
/// `push` or the batch `analyze_observed`, before classification.
pub const REPORTS_INGESTED: &str = "tagbreathe_reports_ingested_total";

/// Counter: reports whose EPC did not decode as a monitor tag and were
/// dropped at classification.
pub const REPORTS_UNKNOWN: &str = "tagbreathe_reports_unknown_total";

/// Counter: reports pushed into a per-user operator graph.
pub const GRAPH_REPORTS: &str = "tagbreathe_graph_reports_total";

/// Counter: phase increments produced by the Eq. (3) unwrapper — one per
/// report that extended an in-plan, in-gap channel reference.
pub const PHASE_INCREMENTS: &str = "tagbreathe_phase_increments_total";

/// Counter: reports the unwrapper consumed without emitting an increment
/// (out-of-plan channel, first read of a reference, or a gap restart).
pub const PHASE_REJECTS: &str = "tagbreathe_phase_rejects_total";

/// Counter: per-channel level-track samples buffered by the
/// `ChannelTrackMerge` preprocessor.
pub const TRACK_SAMPLES: &str = "tagbreathe_track_samples_total";

/// Counter: Δt fusion bins newly created by Eq. (6)/(7) accumulation.
pub const FUSION_BINS_CREATED: &str = "tagbreathe_fusion_bins_created_total";

/// Counter: fusion bins dropped behind the sliding analysis window.
pub const FUSION_BINS_EVICTED: &str = "tagbreathe_fusion_bins_evicted_total";

/// Counter: `(antenna_port, tag_id)` slots evicted after falling silent
/// past the window / phase-gap horizon.
pub const TAGS_EVICTED: &str = "tagbreathe_tags_evicted_total";

/// Counter: displacement snapshots taken at the streaming cadence.
pub const SNAPSHOTS: &str = "tagbreathe_snapshots_total";

/// Counter: breathing-rate estimates that reached the output stream.
pub const RATES_REPORTED: &str = "tagbreathe_rates_reported_total";

/// Counter: analysis attempts that ended in a failure
/// (no data / insufficient data / gross motion).
pub const ANALYSIS_FAILURES: &str = "tagbreathe_analysis_failures_total";

/// Histogram (ns): wall time of one cadence snapshot across all users.
pub const SNAPSHOT_LATENCY_NS: &str = "tagbreathe_snapshot_latency_ns";

/// Histogram (ns): wall time of one opportunistic eviction sweep.
pub const EVICT_LATENCY_NS: &str = "tagbreathe_evict_latency_ns";

/// Histogram (ns): batch-path stage timer around classifying and ordering
/// the reports.
pub const STAGE_DEMUX_NS: &str = "tagbreathe_stage_demux_ns";

/// Histogram (ns): batch-path stage timer around folding every monitored
/// report into its user's operator graph.
pub const STAGE_FOLD_NS: &str = "tagbreathe_stage_fold_ns";

/// Histogram (ns): batch-path stage timer around one user's displacement
/// snapshot and analysis tail (despike → gross-motion gate → extraction →
/// rate).
pub const STAGE_ANALYZE_NS: &str = "tagbreathe_stage_analyze_ns";

/// Gauge: users currently holding operator-graph state.
pub const USERS_TRACKED: &str = "tagbreathe_users_tracked";

/// Gauge: total retained state cells across all users (the bounded-memory
/// quantity `StreamingMonitor::buffered` reports).
pub const STATE_CELLS: &str = "tagbreathe_state_cells";

/// Gauge, labelled `port`: EWMA of report RSSI per antenna port, dBm.
pub const PORT_RSSI_EWMA_DBM: &str = "tagbreathe_port_rssi_ewma_dbm";

/// Gauge, labelled `port`: EWMA read rate per antenna port, Hz
/// (reciprocal of the smoothed inter-read gap).
pub const PORT_READ_RATE_HZ: &str = "tagbreathe_port_read_rate_hz";

/// Counter, labelled `grade` (0 = low, 1 = medium, 2 = high): confidence
/// grades assigned by the quality assessor.
pub const QUALITY_GRADES: &str = "tagbreathe_quality_grades_total";

/// Counter: anomaly-triggered diagnostic bundles captured from the flight
/// recorder (see [`crate::flight`]).
pub const TRACE_DUMPS: &str = "tagbreathe_trace_dumps_total";

/// Counter: trace events overwritten (lost) in the flight-recorder ring
/// since the last publish — non-zero means the ring is shorter than the
/// diagnostic window being asked of it.
pub const TRACE_DROPPED_EVENTS: &str = "tagbreathe_trace_dropped_events_total";

/// Histogram (dimensionless × 1000): breathing-band SNR of assessed
/// estimates, scaled by 1000 so the integer-valued histogram keeps three
/// decimal places.
pub const QUALITY_BAND_SNR_MILLI: &str = "tagbreathe_quality_band_snr_milli";

/// Counter: reports routed onto shard rings by the fleet engine.
pub const FLEET_REPORTS_ROUTED: &str = "tagbreathe_fleet_reports_routed_total";

/// Counter, labelled `shard`: router stalls on a full shard ring — each
/// stall is one bounded-backpressure yield that would have been a shed
/// report in a lossy design.
pub const FLEET_RING_STALLS: &str = "tagbreathe_fleet_ring_stalls_total";

/// Gauge, labelled `shard`: ring occupancy a shard observed when it took
/// its snapshot part (slots still queued behind the snapshot request).
pub const FLEET_RING_DEPTH: &str = "tagbreathe_fleet_ring_depth";

/// Gauge, labelled `shard`: users holding state on the shard at its last
/// snapshot part.
pub const FLEET_SHARD_USERS: &str = "tagbreathe_fleet_shard_users";

/// Histogram: wall-clock latency from broadcasting a snapshot request to
/// emitting the merged fleet snapshot, nanoseconds.
pub const FLEET_HANDOFF_LATENCY_NS: &str = "tagbreathe_fleet_handoff_latency_ns";

/// Histogram (ns), labelled `stage`: ingest→snapshot-publication lag
/// attributed per pipeline boundary. Stage codes follow
/// `obs::freshness::Stage` (0 total, 1 lane_merge, 2 ring_handoff,
/// 3 shard_ingest, 4 epoch_merge, 5 http_serve); see `docs/METRICS.md`
/// for the per-stage semantics.
pub const SNAPSHOT_LAG_NS: &str = "tagbreathe_snapshot_lag_ns";

/// Gauge, labelled `shard`: estimated bytes of resident per-user stream
/// state on the shard at its last snapshot part (slab plus an 8-byte
/// estimate per buffered cell).
pub const FLEET_RESIDENT_BYTES: &str = "tagbreathe_fleet_resident_bytes";

/// Adds `delta` to the counter `name` unless it is zero. The engine and
/// the batch fold count per-report work in plain blocks and fold each
/// field through this, so an untouched block makes no recorder call (and
/// takes no lock).
pub(crate) fn fold_count(rec: &dyn Recorder, name: &'static str, label: Option<Label>, delta: u64) {
    if delta > 0 {
        rec.add(name, label, delta);
    }
}

/// Every metric name this crate can emit, for the docs drift guard
/// (`tests/metrics_docs.rs` cross-checks this list against
/// `docs/METRICS.md` in both directions).
pub const ALL: &[&str] = &[
    REPORTS_INGESTED,
    REPORTS_UNKNOWN,
    GRAPH_REPORTS,
    PHASE_INCREMENTS,
    PHASE_REJECTS,
    TRACK_SAMPLES,
    FUSION_BINS_CREATED,
    FUSION_BINS_EVICTED,
    TAGS_EVICTED,
    SNAPSHOTS,
    RATES_REPORTED,
    ANALYSIS_FAILURES,
    SNAPSHOT_LATENCY_NS,
    EVICT_LATENCY_NS,
    STAGE_DEMUX_NS,
    STAGE_FOLD_NS,
    STAGE_ANALYZE_NS,
    USERS_TRACKED,
    STATE_CELLS,
    PORT_RSSI_EWMA_DBM,
    PORT_READ_RATE_HZ,
    QUALITY_GRADES,
    TRACE_DUMPS,
    TRACE_DROPPED_EVENTS,
    QUALITY_BAND_SNR_MILLI,
    FLEET_REPORTS_ROUTED,
    FLEET_RING_STALLS,
    FLEET_RING_DEPTH,
    FLEET_SHARD_USERS,
    FLEET_HANDOFF_LATENCY_NS,
    SNAPSHOT_LAG_NS,
    FLEET_RESIDENT_BYTES,
];
