//! A shard's slab of per-user stream state, and the one step that applies
//! a feed message to it.
//!
//! [`ShardCore`] owns the [`UserStreamState`]s of every user routed to one
//! shard, addressed by the dense slot the router assigned at admission.
//! Both executors of the streaming engine drive it through the same
//! `ShardCore::apply`: the inline executor on the caller's thread, the
//! threaded one in each shard worker after popping the message off its
//! ring. Keeping one step is what makes the sharded engine bit-identical
//! to the single-threaded one: a report mutates exactly the same state
//! machine either way.
//!
//! # Synchronisation argument
//!
//! `ShardCore` holds no atomics and needs none: it is owned by exactly
//! one thread at a time. Ownership transfers happen-before through the
//! feed ring's publish/observe edge ([`super::ring::protocol`]) — every
//! message a worker pops, and the shard state it mutates in response,
//! is ordered after the router's writes and before the router observes
//! the shard's snapshot parts. The `atomics` lint pass additionally
//! checks that no `pub` signature of a `[shard]`-rooted type leaks an
//! undeclared atomic, and the `crates/syncmodel` bounded model checker
//! explores the ring edge this argument leans on.

use super::msg::ShardMsg;
use crate::config::PipelineConfig;
use crate::monitor::analyze_displacement;
use crate::operators::{OperatorCounts, UserStreamState};
use epcgen2::epc::Epc96;
use epcgen2::report::TagReport;
use obs::freshness::duration_ns;
use obs::trace::{SharedTracer, TraceEvent, TraceSpan};
use std::collections::BTreeMap;
use std::time::Instant;

/// What every shard step reads besides its message: the pipeline
/// configuration, the analysis window, and the tracer with its cached
/// `enabled()` bit (so a disabled tracer costs one boolean test per
/// site). A shard holds no metric sink: it counts into its own
/// `OperatorCounts` block, which its snapshot parts carry home.
#[derive(Debug, Clone)]
pub struct ShardEnv {
    pub(crate) config: PipelineConfig,
    pub(crate) window_s: f64,
    pub(crate) tracer: SharedTracer,
    pub(crate) tracing: bool,
}

impl ShardEnv {
    pub(crate) fn new(config: PipelineConfig, window_s: f64) -> Self {
        ShardEnv {
            config,
            window_s,
            tracer: SharedTracer::noop(),
            tracing: false,
        }
    }
}

/// One shard's answer to a `Snapshot` request: its users' rates and
/// efforts (keyed by user ID, so parts from disjoint shards merge without
/// collisions), the occupancy figures the router publishes, and the
/// shard's count block since its previous part. The router merges an
/// epoch's parts into one of these.
#[derive(Debug, Default)]
pub struct ShardPart {
    pub(crate) shard: u32,
    pub(crate) epoch: u64,
    pub(crate) time_s: f64,
    pub(crate) rates_bpm: BTreeMap<u64, f64>,
    pub(crate) effort_rms: BTreeMap<u64, f64>,
    pub(crate) occupancy: usize,
    pub(crate) state_cells: usize,
    pub(crate) resident_bytes: u64,
    /// Ring slots still queued behind the request (threaded executor).
    pub(crate) ring_depth: u64,
    pub(crate) counts: OperatorCounts,
}

/// Slab of user stream states owned by one shard.
#[derive(Debug, Default)]
pub struct ShardCore {
    states: Vec<UserStreamState>,
    user_ids: Vec<u64>,
    /// What the shard's graphs did since the block was last taken.
    counts: OperatorCounts,
}

impl ShardCore {
    /// An empty shard.
    #[must_use]
    pub fn new() -> Self {
        ShardCore::default()
    }

    /// Applies one feed message: the step both executors run. Returns the
    /// part a `Snapshot` request produced (stamped with `shard`, carrying
    /// the shard's count block), `None` for every other message.
    pub(crate) fn apply(&mut self, shard: u32, msg: ShardMsg, env: &ShardEnv) -> Option<ShardPart> {
        match msg {
            ShardMsg::Report {
                slot,
                tag_id,
                antenna_port,
                channel_index,
                time_s,
                phase_rad,
                rssi_dbm,
                doppler_hz,
            } => {
                let at = slot as usize;
                let user_id = self.user_ids.get(at).copied().unwrap_or(0);
                let tracer = env.tracer.as_dyn();
                // The per-read provenance event comes first, mirroring the
                // pre-fleet demux ordering.
                if env.tracing {
                    tracer.emit(TraceEvent::read(
                        time_s,
                        user_id,
                        tag_id,
                        antenna_port,
                        channel_index,
                        phase_rad,
                        rssi_dbm,
                    ));
                }
                // The EPC was consumed by the router's interner; per-user
                // operators only read the measurement fields.
                let report = TagReport {
                    time_s,
                    epc: Epc96::monitor(0, 0),
                    antenna_port,
                    channel_index,
                    phase_rad,
                    rssi_dbm,
                    doppler_hz,
                };
                if let Some(state) = self.states.get_mut(at) {
                    let outcome = state.push(tag_id, &report, &env.config);
                    self.counts.count_push(outcome);
                    if env.tracing {
                        tracer.emit(outcome.trace_event(user_id, tag_id, &report));
                    }
                }
                None
            }
            ShardMsg::Admit { slot, user_id } => {
                self.admit_user_at(slot, user_id);
                None
            }
            ShardMsg::Evict { watermark_s } => {
                self.evict(watermark_s, env);
                None
            }
            ShardMsg::Snapshot {
                watermark_s,
                time_s,
                epoch,
            } => {
                self.evict(watermark_s, env);
                Some(self.snapshot_part(shard, epoch, time_s, env))
            }
            ShardMsg::Finish => None,
        }
    }

    /// Binds `user_id` at the router-assigned `slot`, padding the slab if
    /// the admit message for an earlier slot was addressed elsewhere. Cold:
    /// once per user.
    fn admit_user_at(&mut self, slot: u32, user_id: u64) {
        let at = slot as usize;
        while self.states.len() <= at {
            self.states.push(UserStreamState::default());
            self.user_ids.push(0);
        }
        if let Some(cell) = self.user_ids.get_mut(at) {
            *cell = user_id;
        }
    }

    /// Takes the count block: what the shard's graphs did since it was
    /// last taken.
    pub(crate) fn take_counts(&mut self) -> OperatorCounts {
        std::mem::take(&mut self.counts)
    }

    /// Evicts samples older than the window on every occupied slot. A slot
    /// whose state empties is reset to a fresh default, releasing buffers
    /// exactly as the pre-fleet `BTreeMap::retain` dropped the entry.
    /// Cold: once per sweep.
    fn evict(&mut self, watermark_s: f64, env: &ShardEnv) {
        let _span = TraceSpan::start(env.tracer.as_dyn(), "evict", watermark_s);
        let started = Instant::now();
        for state in &mut self.states {
            if state.is_empty() {
                continue;
            }
            let evicted = state.evict(watermark_s, env.window_s, &env.config);
            self.counts.count_evict(evicted);
            if state.is_empty() {
                *state = UserStreamState::default();
            }
        }
        self.counts.evict_ns.push(duration_ns(started.elapsed()));
    }

    /// Analyzes every occupied slot into one snapshot part, summing the
    /// occupancy figures in the same pass, and hands the part the count
    /// block. Cold: once per epoch part.
    fn snapshot_part(&mut self, shard: u32, epoch: u64, time_s: f64, env: &ShardEnv) -> ShardPart {
        let _span = TraceSpan::start(env.tracer.as_dyn(), "snapshot", time_s);
        let started = Instant::now();
        let mut part = ShardPart {
            shard,
            epoch,
            time_s,
            ..ShardPart::default()
        };
        for (state, &id) in self.states.iter().zip(&self.user_ids) {
            part.state_cells += state.state_cells();
            if state.is_empty() {
                continue;
            }
            part.occupancy += 1;
            let Some(snap) = state.snapshot(&env.config) else {
                continue;
            };
            let Ok(analysis) = analyze_displacement(
                &env.config,
                snap.antenna_port,
                snap.report_count,
                snap.displacement,
            ) else {
                continue;
            };
            if let Some(bpm) = analysis.mean_rate_bpm() {
                part.rates_bpm.insert(id, bpm);
            }
            if let Some(effort) = dsp::stats::rms(analysis.breath_signal.values()) {
                part.effort_rms.insert(id, effort);
            }
        }
        part.resident_bytes = self.resident_bytes(part.state_cells);
        self.counts.snapshot_ns = Some(duration_ns(started.elapsed()));
        part.counts = self.take_counts();
        part
    }

    /// Number of slots currently holding buffered samples. Matches the
    /// pre-fleet `users.len()` (the map never held empty states after an
    /// eviction pass).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.states.iter().filter(|s| !s.is_empty()).count()
    }

    /// Total buffered cells across all slots (samples, bins and tracks).
    #[must_use]
    pub fn state_cells(&self) -> usize {
        self.states.iter().map(UserStreamState::state_cells).sum()
    }

    /// Distinct tags currently buffered across all slots.
    #[must_use]
    pub fn tag_count(&self) -> usize {
        self.states.iter().map(UserStreamState::tag_count).sum()
    }

    /// Estimated resident bytes of this shard's stream state holding
    /// `state_cells` cells: the slab itself plus 8 bytes per buffered cell
    /// (samples, bins, tracks are all `f64`-sized). An estimate, not an
    /// allocator measurement — it tracks the bounded-memory quantity the
    /// eviction policy controls, which is what the bytes/resident-user SLO
    /// budgets.
    fn resident_bytes(&self, state_cells: usize) -> u64 {
        let slab = self.states.len() * std::mem::size_of::<UserStreamState>()
            + self.user_ids.len() * std::mem::size_of::<u64>();
        (slab + state_cells * std::mem::size_of::<f64>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(window_s: f64) -> ShardEnv {
        ShardEnv::new(PipelineConfig::paper_default(), window_s)
    }

    fn report(slot: u32, t: f64) -> ShardMsg {
        ShardMsg::Report {
            slot,
            tag_id: 0,
            antenna_port: 1,
            channel_index: 0,
            time_s: t,
            phase_rad: 1.0 + t.sin() * 0.05,
            rssi_dbm: -55.0,
            doppler_hz: 0.0,
        }
    }

    #[test]
    fn admits_pad_the_slab_to_the_assigned_slot() {
        let env = env(1.0);
        let mut core = ShardCore::new();
        for (slot, user_id) in [(0, 10), (4, 50)] {
            assert!(core
                .apply(0, ShardMsg::Admit { slot, user_id }, &env)
                .is_none());
        }
        assert_eq!(core.user_ids, [10, 0, 0, 0, 50]);
        assert_eq!(core.occupancy(), 0);
    }

    #[test]
    fn ingest_buffers_and_evict_resets() {
        let env = env(1.0);
        let mut core = ShardCore::new();
        core.apply(
            0,
            ShardMsg::Admit {
                slot: 0,
                user_id: 1,
            },
            &env,
        );
        for i in 0..50 {
            core.apply(0, report(0, f64::from(i) * 0.03), &env);
        }
        assert_eq!(core.occupancy(), 1);
        assert!(core.state_cells() > 0);
        assert_eq!(core.tag_count(), 1);
        let resident = core.resident_bytes(core.state_cells());
        assert!(
            resident > core.state_cells() as u64 * 8,
            "resident estimate covers cells plus slab: {resident}"
        );
        core.apply(
            0,
            ShardMsg::Evict {
                watermark_s: 1000.0,
            },
            &env,
        );
        assert_eq!(core.occupancy(), 0);
        assert_eq!(core.state_cells(), 0);
        assert!(
            core.resident_bytes(core.state_cells()) < resident,
            "eviction shrinks the estimate"
        );
    }

    #[test]
    fn snapshot_part_carries_occupancy_and_the_count_block() {
        let env = env(10.0);
        let mut core = ShardCore::new();
        for (slot, user_id) in [(0, 1), (2, 3)] {
            core.apply(0, ShardMsg::Admit { slot, user_id }, &env);
        }
        for i in 0..50 {
            core.apply(0, report(0, f64::from(i) * 0.03), &env);
        }
        let snapshot = |epoch| ShardMsg::Snapshot {
            watermark_s: 1.5,
            time_s: 1.5,
            epoch,
        };
        let part = core.apply(1, snapshot(0), &env).unwrap_or_default();
        assert_eq!((part.shard, part.epoch), (1, 0));
        assert_eq!(part.occupancy, core.occupancy());
        assert_eq!(part.state_cells, core.state_cells());
        assert_eq!(part.resident_bytes, core.resident_bytes(core.state_cells()));
        let registry = obs::Registry::new();
        part.counts.fold(&registry);
        assert_eq!(registry.counter(crate::metrics::GRAPH_REPORTS), 50);
        let latency = |name| registry.histogram(name).map(|h| h.count());
        assert_eq!(latency(crate::metrics::EVICT_LATENCY_NS), Some(1));
        assert_eq!(latency(crate::metrics::SNAPSHOT_LATENCY_NS), Some(1));
        // The block went home with the part: the next one starts empty.
        let next = core.apply(1, snapshot(1), &env).unwrap_or_default();
        let registry = obs::Registry::new();
        next.counts.fold(&registry);
        assert_eq!(registry.counter(crate::metrics::GRAPH_REPORTS), 0);
    }

    #[test]
    fn out_of_range_slot_is_ignored() {
        let mut core = ShardCore::new();
        core.apply(0, report(99, 0.0), &env(1.0));
        assert_eq!(core.occupancy(), 0);
    }
}
