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
use crate::config::{PipelineConfig, PreprocessKind};
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

/// Slab of user stream states owned by one shard, with the bookkeeping
/// that keeps its cadence work proportional to the users that changed.
///
/// The `Evict` and `Snapshot` sweeps walk only the live list, and visit
/// (evict) only the live slots that were pushed since their last visit or
/// whose expiry deadline has come. Every other visit would be a no-op, so
/// skipping it changes nothing. A slot's analysis is a pure function of
/// its state, so `snapshot_part` re-runs it only for slots whose state
/// changed since it last ran, and reuses the cached (rate, effort)
/// otherwise. The snapshot stream is therefore bit-identical to a full
/// walk of the slab at every sweep.
#[derive(Debug, Default)]
pub struct ShardCore {
    states: Vec<UserStreamState>,
    user_ids: Vec<u64>,
    /// The slots that hold state.
    live: LiveList,
    /// State cells summed over the live slots at their last visit: exact
    /// after every sweep, since a sweep visits every pushed slot.
    cells: usize,
    /// What the shard's graphs did since the block was last taken.
    counts: OperatorCounts,
    /// Slot visits and analyses made by the sweeps.
    #[cfg(test)]
    work: SweepWork,
}

/// Slot visits and analyses made by the sweeps, for the tests that pin
/// the sweeps' cost to the slots that changed.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
struct SweepWork {
    visits: usize,
    analyses: usize,
}

/// One slot on the live list: what the sweeps need to know about it
/// without touching its state.
#[derive(Debug, Clone, Copy, Default)]
struct LiveSlot {
    slot: u32,
    /// Reports arrived since the slot was last visited.
    pushed: bool,
    /// The state changed since the cached analysis was made.
    stale: bool,
    /// State cells at the last visit.
    cells: usize,
    /// Below this watermark an eviction of the slot is a no-op
    /// ([`UserStreamState::expiry_deadline_s`]).
    deadline_s: f64,
    /// The cached analysis.
    rate_bpm: Option<f64>,
    effort_rms: Option<f64>,
}

/// `LiveList::index_of` marker of a slot that holds no state.
const NOT_LIVE: u32 = u32::MAX;

/// The slots that hold state, densely packed in no particular order.
/// Both vectors hold one entry per admitted slot, sized at admission, so
/// listing a slot on the per-report path writes by index and never
/// allocates.
#[derive(Debug, Default)]
struct LiveList {
    /// `entries[..len]` are the live slots.
    entries: Vec<LiveSlot>,
    len: usize,
    /// Per slot: its index in `entries`, or [`NOT_LIVE`].
    index_of: Vec<u32>,
}

impl LiveList {
    /// Makes room for `slots` slots. Cold: at admission.
    fn grow_to(&mut self, slots: usize) {
        if self.index_of.len() < slots {
            self.entries.resize(slots, LiveSlot::default());
            self.index_of.resize(slots, NOT_LIVE);
        }
    }

    /// Marks `slot` pushed, listing it first if it held no state.
    fn touch(&mut self, slot: u32) {
        let Some(at) = self.index_of.get_mut(slot as usize) else {
            return;
        };
        if *at == NOT_LIVE {
            let (Some(entry), Ok(index)) =
                (self.entries.get_mut(self.len), u32::try_from(self.len))
            else {
                return;
            };
            *entry = LiveSlot {
                slot,
                ..LiveSlot::default()
            };
            *at = index;
            self.len += 1;
        }
        if let Some(entry) = self.entries.get_mut(*at as usize) {
            entry.pushed = true;
        }
    }

    /// Unlists the entry at `index`, moving the last live entry into its
    /// place.
    fn remove(&mut self, index: usize) {
        let Some(last) = self.len.checked_sub(1) else {
            return;
        };
        self.entries.swap(index, last);
        self.len = last;
        // The moved entry first: when `index == last` it is the removed one.
        for (at, listed) in [
            (index, u32::try_from(index).unwrap_or(NOT_LIVE)),
            (last, NOT_LIVE),
        ] {
            let slot = self.entries.get(at).map_or(usize::MAX, |e| e.slot as usize);
            if let Some(cell) = self.index_of.get_mut(slot) {
                *cell = listed;
            }
        }
    }

    fn live(&self) -> &[LiveSlot] {
        self.entries.get(..self.len).unwrap_or_default()
    }

    fn live_mut(&mut self) -> &mut [LiveSlot] {
        self.entries.get_mut(..self.len).unwrap_or_default()
    }
}

/// Analyses one slot's state: its rate and its breathing effort, each
/// `None` when the analysis cannot produce it.
fn analyze(state: &UserStreamState, config: &PipelineConfig) -> (Option<f64>, Option<f64>) {
    let Some(snap) = state.snapshot(config) else {
        return (None, None);
    };
    let Ok(analysis) = analyze_displacement(
        config,
        snap.antenna_port,
        snap.report_count,
        snap.displacement,
    ) else {
        return (None, None);
    };
    (
        analysis.mean_rate_bpm(),
        dsp::stats::rms(analysis.breath_signal.values()),
    )
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
                    self.live.touch(slot);
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

    /// Binds `user_id` at the router-assigned `slot`, padding the slab
    /// (and sizing the live list to match) if the admit message for an
    /// earlier slot was addressed elsewhere. Cold: once per user.
    fn admit_user_at(&mut self, slot: u32, user_id: u64) {
        let at = slot as usize;
        if self.states.len() <= at {
            self.states.resize_with(at + 1, UserStreamState::default);
            self.user_ids.resize(at + 1, 0);
            self.live.grow_to(at + 1);
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

    /// Evicts samples older than the window on every live slot that was
    /// pushed since its last visit or whose deadline has come; on any
    /// other slot the eviction would be a no-op. A visited slot whose
    /// state changed is marked for re-analysis. A slot whose state
    /// empties is reset to a fresh default and unlisted, releasing
    /// buffers exactly as the pre-fleet `BTreeMap::retain` dropped the
    /// entry. Cold: once per sweep.
    fn evict(&mut self, watermark_s: f64, env: &ShardEnv) {
        let _span = TraceSpan::start(env.tracer.as_dyn(), "evict", watermark_s);
        let started = Instant::now();
        let tracks = env.config.preprocess == PreprocessKind::ChannelTrackMerge;
        let mut index = 0;
        while let Some(entry) = self.live.live_mut().get_mut(index) {
            let due = entry.pushed || watermark_s >= entry.deadline_s;
            let Some(state) = self.states.get_mut(entry.slot as usize).filter(|_| due) else {
                index += 1;
                continue;
            };
            #[cfg(test)]
            {
                self.work.visits += 1;
            }
            let evicted = state.evict(watermark_s, env.window_s, &env.config);
            self.counts.count_evict(evicted);
            self.cells -= entry.cells;
            if state.is_empty() {
                *state = UserStreamState::default();
                self.live.remove(index);
                continue;
            }
            let cells = state.state_cells();
            self.cells += cells;
            // Dropped bins and tags change the analysis. In channel-track
            // mode so do closed channels and dropped samples, which only
            // the cell count shows; increment mode's other cells are
            // phase references, which the analysis never reads.
            entry.stale |=
                entry.pushed || evicted.bins + evicted.tags > 0 || (tracks && cells != entry.cells);
            entry.pushed = false;
            entry.cells = cells;
            entry.deadline_s = state.expiry_deadline_s(env.window_s, &env.config);
            index += 1;
        }
        self.counts.evict_ns.push(duration_ns(started.elapsed()));
    }

    /// Puts every live slot's analysis into one snapshot part, re-running
    /// it only for slots whose state changed since it last ran, with the
    /// running occupancy figures, and hands the part the count block.
    /// Cold: once per epoch part.
    fn snapshot_part(&mut self, shard: u32, epoch: u64, time_s: f64, env: &ShardEnv) -> ShardPart {
        let _span = TraceSpan::start(env.tracer.as_dyn(), "snapshot", time_s);
        let started = Instant::now();
        let mut part = ShardPart {
            shard,
            epoch,
            time_s,
            occupancy: self.live.len,
            state_cells: self.cells,
            ..ShardPart::default()
        };
        for entry in self.live.live_mut() {
            let at = entry.slot as usize;
            if entry.stale {
                if let Some(state) = self.states.get(at) {
                    (entry.rate_bpm, entry.effort_rms) = analyze(state, &env.config);
                    #[cfg(test)]
                    {
                        self.work.analyses += 1;
                    }
                }
                entry.stale = false;
            }
            let id = self.user_ids.get(at).copied().unwrap_or(0);
            if let Some(bpm) = entry.rate_bpm {
                part.rates_bpm.insert(id, bpm);
            }
            if let Some(effort) = entry.effort_rms {
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
        self.live.len
    }

    /// Total buffered cells across all slots (samples, bins and tracks).
    #[must_use]
    pub fn state_cells(&self) -> usize {
        self.live_states().map(UserStreamState::state_cells).sum()
    }

    /// Distinct tags currently buffered across all slots.
    #[must_use]
    pub fn tag_count(&self) -> usize {
        self.live_states().map(UserStreamState::tag_count).sum()
    }

    /// The states of the live slots: every slot that holds state.
    fn live_states(&self) -> impl Iterator<Item = &UserStreamState> {
        (self.live.live())
            .iter()
            .filter_map(|entry| self.states.get(entry.slot as usize))
    }

    /// Estimated resident bytes of this shard's stream state holding
    /// `state_cells` cells: the slab and its per-slot bookkeeping (user
    /// id, live-list entry and index) plus 8 bytes per buffered cell
    /// (samples, bins, tracks are all `f64`-sized). An estimate, not an
    /// allocator measurement — it tracks the bounded-memory quantity the
    /// eviction policy controls, which is what the bytes/resident-user SLO
    /// budgets.
    fn resident_bytes(&self, state_cells: usize) -> u64 {
        let per_slot = std::mem::size_of::<UserStreamState>()
            + std::mem::size_of::<u64>()
            + std::mem::size_of::<LiveSlot>()
            + std::mem::size_of::<u32>();
        (self.states.len() * per_slot + state_cells * std::mem::size_of::<f64>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prng::{Rng, Xoshiro256};
    use std::f64::consts::{PI, TAU};

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

    #[test]
    fn a_sparse_sweep_visits_and_analyses_only_the_pushed_slot() {
        let env = env(25.0);
        let mut core = ShardCore::new();
        for slot in 0..10_000 {
            let user_id = u64::from(slot) + 1;
            core.apply(0, ShardMsg::Admit { slot, user_id }, &env);
            core.apply(0, report(slot, 0.0), &env);
        }
        assert_eq!(core.occupancy(), 10_000);
        // One sweep past the horizon empties every slot.
        let snapshot = |t: f64, epoch| ShardMsg::Snapshot {
            watermark_s: t,
            time_s: t,
            epoch,
        };
        core.apply(0, snapshot(100.0, 0), &env);
        assert_eq!((core.occupancy(), core.state_cells()), (0, 0));
        for epoch in 1..=1_000u32 {
            let t = 100.0 + f64::from(epoch) * 0.5;
            core.apply(0, report(7, t), &env);
            let before = core.work;
            let part = core.apply(0, snapshot(t, u64::from(epoch)), &env);
            assert_eq!(part.map(|p| p.occupancy), Some(1));
            let visits = core.work.visits - before.visits;
            let analyses = core.work.analyses - before.analyses;
            assert!(
                visits <= 1 && analyses <= 1,
                "epoch {epoch}: {visits} visits, {analyses} analyses"
            );
        }
    }

    /// The full-slab walk `ShardCore`'s sweeps replaced, kept verbatim as
    /// their oracle: every sweep evicts every occupied slot, and every
    /// snapshot part analyses every occupied slot.
    #[derive(Debug, Default)]
    struct FullWalk {
        states: Vec<UserStreamState>,
        user_ids: Vec<u64>,
        counts: OperatorCounts,
    }

    impl FullWalk {
        fn apply(&mut self, shard: u32, msg: ShardMsg, env: &ShardEnv) -> Option<ShardPart> {
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
                        let outcome = state.push(tag_id, &report, &env.config);
                        self.counts.count_push(outcome);
                    }
                    None
                }
                ShardMsg::Admit { slot, user_id } => {
                    let at = slot as usize;
                    while self.states.len() <= at {
                        self.states.push(UserStreamState::default());
                        self.user_ids.push(0);
                    }
                    if let Some(cell) = self.user_ids.get_mut(at) {
                        *cell = user_id;
                    }
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

        fn snapshot_part(
            &mut self,
            shard: u32,
            epoch: u64,
            time_s: f64,
            env: &ShardEnv,
        ) -> ShardPart {
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
            part.counts = std::mem::take(&mut self.counts);
            part
        }

        fn resident_bytes(&self, state_cells: usize) -> u64 {
            let slab = self.states.len() * std::mem::size_of::<UserStreamState>()
                + self.user_ids.len() * std::mem::size_of::<u64>();
            (slab + state_cells * std::mem::size_of::<f64>()) as u64
        }

        fn occupancy(&self) -> usize {
            self.states.iter().filter(|s| !s.is_empty()).count()
        }

        fn state_cells(&self) -> usize {
            self.states.iter().map(UserStreamState::state_cells).sum()
        }

        fn tag_count(&self) -> usize {
            self.states.iter().map(UserStreamState::tag_count).sum()
        }
    }

    /// A seeded churn stream in the router's message order. 30 users,
    /// each wearing 3 tags read on 2 ports, toggle between reporting and
    /// silence, often for longer than the eviction horizon. The router's
    /// cadence and eviction clocks run over the stream watermark, a few
    /// reads land just behind it, and extra standalone `Evict` sweeps
    /// come at random.
    fn churn(seed: u64, config: &PipelineConfig, window_s: f64, cadence_s: f64) -> Vec<ShardMsg> {
        const USERS: u32 = 30;
        const STREAM_S: f64 = 120.0;
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let horizon_s = window_s.max(config.max_phase_gap_s);
        let channels = config.plan.len();
        // Per user: reporting or silent, until when, and its slot.
        let mut users: Vec<(bool, f64, Option<u32>)> = (0..USERS)
            .map(|_| (rng.gen_bool(), rng.gen_f64() * horizon_s, None))
            .collect();
        let mut msgs = Vec::new();
        let mut next_slot = 0;
        let (mut watermark_s, mut last_evict_s) = (0.0f64, 0.0);
        let (mut next_update_s, mut epoch) = (cadence_s, 0);
        let mut t = 0.0;
        while t < STREAM_S {
            t += 0.01 + 0.04 * rng.gen_f64();
            for (user, (on, until, slot)) in (0..USERS).zip(&mut users) {
                if t >= *until {
                    *on = !*on;
                    let longest = if *on { horizon_s } else { 2.0 * horizon_s };
                    *until = t + longest * rng.gen_f64();
                }
                if !*on || rng.gen_f64() < 0.6 {
                    continue;
                }
                let slot = *slot.get_or_insert_with(|| {
                    let at = next_slot;
                    next_slot += 1;
                    let user_id = 1000 + u64::from(user);
                    msgs.push(ShardMsg::Admit { slot: at, user_id });
                    at
                });
                let channel = rng.gen_range(0..channels);
                let breath = 0.004 * (TAU * (0.15 + 0.01 * f64::from(user)) * t).sin();
                let lambda = config.plan.wavelength_m(channel);
                let glitch = if rng.gen_f64() < 0.01 {
                    6.0 * rng.gen_f64()
                } else {
                    0.0
                };
                let phase = 4.0 * PI * breath / lambda + 1.3 * channel as f64 + glitch;
                let time_s = if rng.gen_f64() < 0.02 {
                    t - 0.1 * rng.gen_f64()
                } else {
                    t
                };
                msgs.push(ShardMsg::Report {
                    slot,
                    tag_id: u32::try_from(rng.gen_range(0..3)).unwrap_or(0),
                    antenna_port: if rng.gen_bool() { 1 } else { 2 },
                    channel_index: u16::try_from(channel).unwrap_or(0),
                    time_s,
                    phase_rad: (phase + 0.05 * rng.gen_f64()).rem_euclid(TAU),
                    rssi_dbm: -50.0 - 10.0 * rng.gen_f64(),
                    doppler_hz: 0.0,
                });
                watermark_s = watermark_s.max(time_s);
                while watermark_s >= next_update_s {
                    msgs.push(ShardMsg::Snapshot {
                        watermark_s,
                        time_s: next_update_s,
                        epoch,
                    });
                    epoch += 1;
                    next_update_s += cadence_s;
                    last_evict_s = watermark_s;
                }
                if watermark_s - last_evict_s >= window_s.min(cadence_s) || rng.gen_f64() < 0.002 {
                    msgs.push(ShardMsg::Evict { watermark_s });
                    last_evict_s = watermark_s;
                }
            }
        }
        msgs
    }

    /// The count block folded into a fresh registry: every counter, and
    /// each latency histogram's sample count.
    fn folded(counts: &OperatorCounts) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
        let registry = obs::Registry::new();
        counts.fold(&registry);
        let snap = registry.snapshot();
        let samples = snap.histograms.into_iter().map(|(k, h)| (k, h.count()));
        (snap.counters, samples.collect())
    }

    fn bits(values: &BTreeMap<u64, f64>) -> Vec<(u64, u64)> {
        values.iter().map(|(&k, v)| (k, v.to_bits())).collect()
    }

    #[test]
    fn sweeps_match_the_full_walk_on_churn() {
        let paper = PipelineConfig::paper_default;
        let configs = [
            ("paper default", paper()),
            (
                "channel-track merge",
                PipelineConfig {
                    preprocess: PreprocessKind::ChannelTrackMerge,
                    ..paper()
                },
            ),
            (
                "merge-all",
                PipelineConfig {
                    antenna: crate::config::AntennaStrategy::MergeAll,
                    ..paper()
                },
            ),
        ];
        let bookkeeping = std::mem::size_of::<LiveSlot>() + std::mem::size_of::<u32>();
        let (mut parts, mut rates, mut seed) = (0, 0, 0);
        for (name, config) in &configs {
            for (window_s, cadence_s) in [(25.0, 5.0), (3.0, 7.0), (10.0, 1.0)] {
                seed += 1;
                let env = ShardEnv::new(config.clone(), window_s);
                let mut core = ShardCore::new();
                let mut oracle = FullWalk::default();
                for (at, msg) in churn(seed, config, window_s, cadence_s)
                    .into_iter()
                    .enumerate()
                {
                    let what =
                        format!("{name}, window {window_s} s, cadence {cadence_s} s, message {at}");
                    let got = core.apply(3, msg, &env);
                    let want = oracle.apply(3, msg, &env);
                    assert_eq!(
                        (core.occupancy(), core.state_cells(), core.tag_count()),
                        (oracle.occupancy(), oracle.state_cells(), oracle.tag_count()),
                        "{what}: accessors"
                    );
                    let (Some(got), Some(want)) = (got, want) else {
                        continue;
                    };
                    assert_eq!(
                        (got.shard, got.epoch, got.time_s.to_bits()),
                        (want.shard, want.epoch, want.time_s.to_bits()),
                        "{what}: stamp"
                    );
                    assert_eq!(bits(&got.rates_bpm), bits(&want.rates_bpm), "{what}: rates");
                    assert_eq!(
                        bits(&got.effort_rms),
                        bits(&want.effort_rms),
                        "{what}: efforts"
                    );
                    assert_eq!(
                        (got.occupancy, got.state_cells),
                        (want.occupancy, want.state_cells),
                        "{what}: occupancy"
                    );
                    let slots = (oracle.states.len() * bookkeeping) as u64;
                    assert_eq!(
                        got.resident_bytes,
                        want.resident_bytes + slots,
                        "{what}: bytes"
                    );
                    assert_eq!(folded(&got.counts), folded(&want.counts), "{what}: counts");
                    parts += 1;
                    rates += got.rates_bpm.len();
                }
                assert_eq!(
                    folded(&core.take_counts()),
                    folded(&std::mem::take(&mut oracle.counts)),
                    "{name}: counts after the last part"
                );
            }
        }
        assert!(
            parts > 400 && rates > 1_000,
            "{parts} parts holding {rates} rates"
        );
    }
}
