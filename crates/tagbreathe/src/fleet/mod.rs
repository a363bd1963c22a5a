//! Sharded multi-core fleet engine: many users, many cores, one stream.
//!
//! The inline executor of [`Engine`] drives every user's operator graph on
//! the caller's thread — the right shape for one reader and a handful of
//! subjects. A hospital-ward deployment inverts the economics: thousands of
//! monitored users behind one LLRP feed, far more analysis work per
//! cadence tick than one core can absorb. [`FleetEngine`] is the same
//! engine over the [`Threaded`] executor, which spreads that work across
//! OS threads without giving up the property that makes the
//! single-threaded engine testable — the estimate stream is
//! **bit-identical** to the inline one.
//!
//! Architecture (std-only: threads + atomics):
//!
//! ```text
//!            ┌────────────┐   SPSC ring    ┌──────────────┐
//!  reports → │   router   │ ═════════════▶ │ shard worker │──┐
//!            │ (caller's  │ ═════════════▶ │ shard worker │──┼─▶ mpsc ─▶ merge
//!            │   thread)  │ ═════════════▶ │ shard worker │──┘   (router)
//!            └────────────┘                └──────────────┘
//! ```
//!
//! * The **router** (shared with the inline executor, [`crate::engine`])
//!   resolves each report to its user, looks the user up in one
//!   user-keyed table ([`interner`]), admits a new user once to the shard
//!   its hash picks ([`interner::shard_of_user`]), and hands every report
//!   to the executor, which forwards it over a bounded lock-free
//!   [`ring`](ring::SpscRing) to the owning shard. It routes a chunk of
//!   reports at a time, looking all of them up before routing any.
//! * Each **shard worker** owns the [`shard::ShardCore`] slab for its
//!   users and applies each popped message with [`shard::ShardCore`]'s
//!   one step; the ring is its only input, so no user state is ever
//!   shared between threads. A worker whose ring stays empty parks; the
//!   router unparks it once per batch (`Executor::flush`), before waiting
//!   on its full ring, and after `Finish`, so an idle fleet costs no CPU
//!   and the per-report path gains only a plain flag store.
//! * A **full ring parks the router** instead of spinning it: the router
//!   announces itself on the ring's wait word, re-checks the ring, and
//!   parks; the worker unparks it once its pops bring the ring down to
//!   half full or empty it ([`ring`] has the handshake). Each park counts
//!   as one ring stall, so a stall stands for up to half a ring of
//!   reports.
//! * **Snapshots** use epoch/watermark handoff: the router broadcasts a
//!   `Snapshot{watermark, time, epoch}` request in-stream, each shard
//!   evicts to the watermark, analyses its users and sends one part back;
//!   the router merges the disjoint per-user maps in epoch order.
//! * **Metrics** never cross threads per report. Each worker counts into
//!   its core's plain block, which rides home in its snapshot parts (and,
//!   for the counts after the last part, in the worker's join value); the
//!   router counts routed reports and ring stalls in plain fields. The
//!   router folds all of them into its recorder, so only it takes the
//!   registry lock, once per push and once per epoch part.
//!
//! Bit-identity holds because control messages are broadcast *in stream
//! order* on every ring: each shard observes exactly the interleaving of
//! its reports, evictions and snapshot points that the single-threaded
//! engine would have applied to the same users.
//!
//! The lock-free protocol itself is machine-checked: every atomic call
//! site spells its ordering through [`ring::protocol`], statically
//! enforced by the `atomics` pass of `tagbreathe-lint` against the
//! `[atomics]` declarations in `lint.toml`, and dynamically explored by
//! the bounded model checker in `crates/syncmodel`, which ports the ring
//! push/pop, the epoch all-parts barrier, the `Finish` drain, the idle
//! worker's park/unpark wake and the full ring's low-water wake onto a
//! store-buffer memory model (see `DESIGN.md` §15).

pub mod interner;
pub mod msg;
pub mod ring;
pub mod shard;

pub use ring::protocol;

use crate::config::{InvalidConfigError, PipelineConfig};
use crate::engine::{Engine, Executor};
use crate::metrics;
use crate::operators::OperatorCounts;
use epcgen2::mapping::IdentityResolver;
use msg::ShardMsg;
use obs::{Label, Recorder, SharedRecorder};
use ring::{RingConsumer, RingProducer};
use shard::{ShardCore, ShardEnv, ShardPart};
use std::sync::mpsc;
use std::thread;

/// Ring capacity per shard, in slots. 1024 six-word slots ≈ 48 KiB per
/// shard: deep enough to ride out a snapshot pause, small enough to stay
/// cache-resident.
const RING_SLOTS: usize = 1024;

/// Empty polls a shard worker spins through before it parks.
const SPINS_BEFORE_PARK: u32 = 64;

// Compile-time thread-safety contract. A user's state must be able to
// move to whichever worker owns its shard, and an engine with either
// executor to whichever thread drives it (the server's engine thread
// owns one), so each of these types is `Send`; both ends of a ring share
// it, so the ring is `Sync` too. An `Rc` or raw pointer in any of them
// fails the build here.
const _: () = {
    const fn send<T: Send>() {}
    const fn sync<T: Sync>() {}
    /// Checked for every `R` and `X`, not only the ones instantiated.
    const fn engine<R: Send, X: Send>() {
        send::<Engine<R, X>>();
    }
    send::<crate::operators::UserStreamState>();
    engine::<(), ()>();
    send::<crate::engine::Inline>();
    send::<Threaded>();
    send::<ShardCore>();
    send::<ring::SpscRing>();
    sync::<ring::SpscRing>();
    send::<RingProducer>();
    send::<RingConsumer>();
};

/// The multi-core streaming engine: [`Engine`] over the [`Threaded`]
/// executor.
///
/// Same contract as [`StreamingMonitor`](crate::pipeline::StreamingMonitor)
/// — push time-ordered reports, get [`RateSnapshot`](crate::RateSnapshot)s
/// back at the cadence — but per-user work runs on `shards` worker
/// threads. Snapshot parts merge in epoch order, so the returned stream is
/// deterministic and bit-identical to the inline engine for any shard count
/// (pinned by `tests/fleet_equivalence.rs`).
///
/// # Examples
///
/// ```
/// use tagbreathe::fleet::FleetEngine;
/// use tagbreathe::PipelineConfig;
/// use epcgen2::mapping::EmbeddedIdentity;
///
/// let mut fleet = FleetEngine::new(
///     PipelineConfig::paper_default(),
///     EmbeddedIdentity::new([1]),
///     25.0,
///     5.0,
///     2,
/// )?;
/// let mut snaps = fleet.push(None::<tagbreathe::TagReport>.into_iter());
/// snaps.extend(fleet.finish());
/// assert!(snaps.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type FleetEngine<R> = Engine<R, Threaded>;

impl<R: IdentityResolver> Engine<R, Threaded> {
    /// Creates a fleet with `shards` worker threads and no metric sink.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid, the window /
    /// cadence are not positive, or a worker thread cannot start.
    pub fn new(
        config: PipelineConfig,
        resolver: R,
        window_s: f64,
        update_every_s: f64,
        shards: usize,
    ) -> Result<Self, FleetError> {
        Self::observed(
            config,
            resolver,
            window_s,
            update_every_s,
            shards,
            SharedRecorder::noop(),
        )
    }

    /// Creates a fleet with `shards` worker threads, recording its metrics
    /// into `recorder`. Workers never touch the recorder: the router folds
    /// their counts in as their snapshot parts arrive and at
    /// [`Engine::finish`]. A fleet traces nothing, so the recorder's
    /// trace half goes unused.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid, the window /
    /// cadence are not positive, or a worker thread cannot start; the
    /// workers already started are stopped and joined first.
    pub fn observed(
        config: PipelineConfig,
        resolver: R,
        window_s: f64,
        update_every_s: f64,
        shards: usize,
        recorder: SharedRecorder,
    ) -> Result<Self, FleetError> {
        Self::build(
            config,
            resolver,
            window_s,
            update_every_s,
            recorder,
            |env| Threaded::spawn(shards, env).map_err(FleetError::Spawn),
        )
    }
}

/// Why a fleet could not be built.
#[derive(Debug)]
pub enum FleetError {
    /// The configuration is invalid, or the window or cadence is not
    /// positive.
    Config(InvalidConfigError),
    /// A shard worker thread could not be started.
    Spawn(std::io::Error),
}

impl From<InvalidConfigError> for FleetError {
    fn from(e: InvalidConfigError) -> Self {
        FleetError::Config(e)
    }
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Config(e) => e.fmt(f),
            FleetError::Spawn(e) => write!(f, "cannot start a shard worker: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Config(e) => Some(e),
            FleetError::Spawn(e) => Some(e),
        }
    }
}

/// The threaded executor: one worker thread per shard, fed over an SPSC
/// ring, answering snapshot requests over a results channel. Workers never
/// touch the sink their shard env carries: its trace bit is off on this
/// executor, so a fleet traces nothing.
#[derive(Debug)]
pub struct Threaded {
    /// One ring per shard, router side, with its worker's wake state.
    feeds: Vec<Feed>,
    /// The running workers, each returning its last count block; emptied
    /// once they are joined.
    workers: Vec<thread::JoinHandle<OperatorCounts>>,
    /// Snapshot parts.
    results: mpsc::Receiver<ShardPart>,
    /// Reports pushed onto the rings since the last fold.
    reports_routed: u64,
    /// The joined workers' last count blocks, not yet folded.
    last_counts: Vec<OperatorCounts>,
}

/// The router's end of one shard: the ring, and the worker to wake when
/// it may be parked on that ring.
#[derive(Debug)]
struct Feed {
    ring: RingProducer,
    worker: thread::Thread,
    /// Messages were pushed since the worker was last woken.
    sent: bool,
    /// Times the router parked on the full ring since the last fold.
    ring_stalls: u64,
}

impl Feed {
    /// Pushes one encoded message. A full ring first wakes the worker,
    /// which may be parked (it empties the ring only once awake), then
    /// parks the router until the worker's pops bring the ring down to
    /// half full or empty it, counting each park.
    fn enqueue(&mut self, words: &[u64; ring::SLOT_WORDS]) {
        if !self.ring.try_push(words) {
            self.wake();
            loop {
                if self.ring.wait_for_room() {
                    self.ring_stalls += 1;
                }
                if self.ring.try_push(words) {
                    break;
                }
            }
        }
        self.sent = true;
    }

    /// Unparks the worker. std's park token turns a wake that lands before
    /// the worker parks into an immediate return from that park, so no
    /// wake is lost.
    fn wake(&mut self) {
        self.sent = false;
        self.worker.unpark();
    }
}

impl Threaded {
    /// Starts one worker thread per shard, named `tb-shard-<i>`. If one
    /// cannot start, the executor is dropped, which stops and joins the
    /// workers already running, and the error is returned.
    fn spawn(shards: usize, env: &ShardEnv) -> std::io::Result<Threaded> {
        let (results_tx, results) = mpsc::channel();
        let mut threaded = Threaded {
            feeds: Vec::new(),
            workers: Vec::new(),
            results,
            reports_routed: 0,
            last_counts: Vec::new(),
        };
        for shard in 0..u32::try_from(shards.max(1)).unwrap_or(u32::MAX) {
            let (ring, consumer) = ring::channel(RING_SLOTS);
            let (env, out) = (env.clone(), results_tx.clone());
            let worker = thread::Builder::new()
                .name(format!("tb-shard-{shard}"))
                .spawn(move || shard_worker(shard, consumer, &env, &out))?;
            threaded.feeds.push(Feed {
                ring,
                worker: worker.thread().clone(),
                sent: false,
                ring_stalls: 0,
            });
            threaded.workers.push(worker);
        }
        Ok(threaded)
    }
}

impl Executor for Threaded {
    const RINGS: bool = true;

    fn shard_count(&self) -> usize {
        self.feeds.len()
    }

    /// Blocking ring send with stall accounting: a full ring applies
    /// bounded backpressure to the router instead of shedding reports.
    /// The worker is woken at the next [`Executor::flush`], or at once if
    /// the ring fills.
    fn send(&mut self, shard: u32, msg: ShardMsg, _env: &ShardEnv) -> Option<ShardPart> {
        let feed = self.feeds.get_mut(shard as usize)?;
        feed.enqueue(&msg.encode());
        if matches!(msg, ShardMsg::Report { .. }) {
            self.reports_routed += 1;
        }
        None
    }

    /// Wakes every worker that was sent messages since its last wake.
    fn flush(&mut self) {
        for feed in &mut self.feeds {
            if feed.sent {
                feed.wake();
            }
        }
    }

    fn poll(&mut self) -> Option<ShardPart> {
        self.results.try_recv().ok()
    }

    /// Broadcasts `Finish`, wakes and joins the workers, keeping each
    /// one's last count block for the next fold; the caller then polls
    /// the remaining parts.
    fn finish(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        let words = ShardMsg::Finish.encode();
        for feed in &mut self.feeds {
            feed.enqueue(&words);
            feed.wake();
        }
        let joined = self.workers.drain(..).filter_map(|w| w.join().ok());
        self.last_counts.extend(joined);
    }

    /// Folds the routed reports, each shard's ring stalls and the joined
    /// workers' last blocks.
    fn fold(&mut self, rec: &dyn Recorder) {
        let routed = std::mem::take(&mut self.reports_routed);
        metrics::fold_count(rec, metrics::FLEET_REPORTS_ROUTED, None, routed);
        for (shard, feed) in (0u32..).zip(&mut self.feeds) {
            let stalls = std::mem::take(&mut feed.ring_stalls);
            let label = Some(Label::shard(shard));
            metrics::fold_count(rec, metrics::FLEET_RING_STALLS, label, stalls);
        }
        for counts in self.last_counts.drain(..) {
            counts.fold(rec);
        }
    }
}

impl Drop for Threaded {
    fn drop(&mut self) {
        self.finish();
    }
}

/// A shard worker's event loop: pop ring messages, apply them to the
/// core, publish snapshot parts. Runs until `Finish` (or a codec mismatch,
/// which cannot happen with a same-version router), then returns the
/// counts made since its last part.
///
/// On an empty ring the worker spins [`SPINS_BEFORE_PARK`] times for
/// latency, then parks until the router wakes it ([`Feed::wake`]): an idle
/// fleet costs no CPU. Its pops wake a router parked on the full ring
/// ([`RingProducer::wait_for_room`]) once the ring is half full or empty.
fn shard_worker(
    shard: u32,
    mut feed: RingConsumer,
    env: &ShardEnv,
    out: &mpsc::Sender<ShardPart>,
) -> OperatorCounts {
    let mut core = ShardCore::new();
    let mut idle: u32 = 0;
    loop {
        let Some(words) = feed.pop() else {
            idle = idle.saturating_add(1);
            if idle > SPINS_BEFORE_PARK {
                thread::park();
            } else {
                std::hint::spin_loop();
            }
            continue;
        };
        idle = 0;
        let msg = match ShardMsg::decode(&words) {
            Some(ShardMsg::Finish) | None => return core.take_counts(),
            Some(msg) => msg,
        };
        if let Some(mut part) = core.apply(shard, msg, env) {
            part.ring_depth = feed.depth_hint();
            if out.send(part).is_err() {
                return core.take_counts();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epcgen2::epc::Epc96;
    use epcgen2::mapping::EmbeddedIdentity;
    use epcgen2::report::TagReport;

    fn report(user: u64, tag: u32, t: f64) -> TagReport {
        TagReport {
            time_s: t,
            epc: Epc96::monitor(user, tag),
            antenna_port: 1,
            channel_index: 3,
            phase_rad: 1.0 + (0.4 * t).sin() * 0.08,
            rssi_dbm: -52.0,
            doppler_hz: 0.0,
        }
    }

    #[test]
    fn routes_users_and_emits_cadence_snapshots() -> Result<(), &'static str> {
        let mut fleet = FleetEngine::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1, 2, 3]),
            10.0,
            5.0,
            2,
        )
        .map_err(|_| "construction failed")?;
        let mut reports = Vec::new();
        let mut t = 0.0;
        while t < 21.0 {
            for user in 1..=3u64 {
                reports.push(report(
                    user,
                    0,
                    t + f64::from(u32::try_from(user).unwrap_or(0)) * 1e-4,
                ));
            }
            t += 0.05;
        }
        let mut snaps = fleet.push(reports);
        assert_eq!(fleet.routed_users(), 3);
        assert_eq!(fleet.shard_count(), 2);
        snaps.extend(fleet.finish());
        assert_eq!(snaps.len(), 4, "cadence points at 5,10,15,20 s");
        let times: Vec<f64> = snaps.iter().map(|s| s.time_s).collect();
        assert_eq!(times, [5.0, 10.0, 15.0, 20.0]);
        Ok(())
    }

    #[test]
    fn a_fleet_traces_nothing_into_an_attached_ring() -> Result<(), &'static str> {
        let ring = std::sync::Arc::new(
            obs::FlightRecorder::with_capacity(64).map_err(|_| "ring capacity")?,
        );
        let mut fleet = FleetEngine::observed(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1, 2]),
            10.0,
            5.0,
            2,
            SharedRecorder::new(ring.clone()),
        )
        .map_err(|_| "construction failed")?;
        // Two monitored users and one unknown, across two cadence points.
        let reports: Vec<TagReport> = (0..400u32)
            .map(|i| report(u64::from(i % 3) + 1, 0, f64::from(i) * 0.03))
            .collect();
        let mut snaps = fleet.push(reports);
        snaps.extend(fleet.finish());
        assert_eq!(snaps.len(), 2);
        assert!(ring.is_empty(), "{} events traced", ring.len());
        Ok(())
    }

    #[test]
    fn unknown_epcs_are_dropped_not_fatal() -> Result<(), &'static str> {
        let mut fleet = FleetEngine::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1]),
            10.0,
            5.0,
            3,
        )
        .map_err(|_| "construction failed")?;
        let stray: Vec<TagReport> = (0..100)
            .map(|i| report(u64::MAX, 7, f64::from(i) * 0.01))
            .collect();
        let snaps = fleet.push(stray);
        assert!(snaps.is_empty());
        assert_eq!(fleet.routed_users(), 0);
        assert!(fleet.finish().is_empty());
        Ok(())
    }

    #[test]
    fn full_ring_wakes_a_parked_worker() -> Result<(), &'static str> {
        let config = PipelineConfig::paper_default;
        let mut fleet = FleetEngine::new(config(), EmbeddedIdentity::new([1]), 10.0, 5.0, 2)
            .map_err(|_| "construction failed")?;
        let mut inline =
            crate::pipeline::StreamingMonitor::new(config(), EmbeddedIdentity::new([1]), 10.0, 5.0)
                .map_err(|_| "construction failed")?;
        // One user, so one shard gets every report: three rings' worth,
        // with no cadence point (whose request also wakes the workers)
        // before the 2500th.
        let reports: Vec<TagReport> = (0..3 * RING_SLOTS)
            .map(|i| report(1, 0, f64::from(u32::try_from(i).unwrap_or(0)) * 0.002))
            .collect();
        // Let the idle workers park. The assertions hold either way; only
        // a parked worker exercises the wake before the router waits on a
        // full ring (without it, this push never returns).
        thread::sleep(std::time::Duration::from_millis(50));
        let (done_tx, done) = mpsc::channel();
        let input = reports.clone();
        thread::spawn(move || {
            let mut snaps = fleet.push(input);
            snaps.extend(fleet.finish());
            let _ = done_tx.send(snaps);
        });
        let snaps = done
            .recv_timeout(std::time::Duration::from_secs(30))
            .map_err(|_| "a full ring must wake its parked worker")?;
        let times: Vec<f64> = snaps.iter().map(|s| s.time_s).collect();
        assert_eq!(times, [5.0]);
        assert_eq!(snaps, inline.push(reports));
        Ok(())
    }

    #[test]
    fn a_lagging_worker_parks_the_router_once_per_half_ring() -> Result<(), &'static str> {
        // 200 users on one shard, all re-analysed at every 1 s cadence
        // point: the worker spends its time in long snapshot parts while
        // the router, which only routes, runs ahead and fills the ring.
        const USERS: u64 = 200;
        let config = PipelineConfig::paper_default;
        let resolver = || EmbeddedIdentity::new(1..=USERS);
        let registry = std::sync::Arc::new(obs::Registry::new());
        let recorder = SharedRecorder::new(registry.clone());
        let mut fleet = FleetEngine::observed(config(), resolver(), 10.0, 1.0, 1, recorder)
            .map_err(|_| "construction failed")?;
        let mut inline = crate::pipeline::StreamingMonitor::new(config(), resolver(), 10.0, 1.0)
            .map_err(|_| "construction failed")?;
        let reports: Vec<TagReport> = (0..40u32)
            .flat_map(|step| {
                let t = f64::from(step) * 0.25;
                (1..=USERS).map(move |user| report(user, 0, t + user as f64 * 1e-4))
            })
            .collect();
        let (done_tx, done) = mpsc::channel();
        let input = reports.clone();
        let router = thread::spawn(move || {
            let mut snaps = fleet.push(input);
            snaps.extend(fleet.finish());
            let _ = done_tx.send(snaps);
        });
        let snaps = done
            .recv_timeout(std::time::Duration::from_secs(60))
            .map_err(|_| "a parked router must be woken as its ring drains")?;
        router.join().map_err(|_| "the router thread panicked")?;
        let mut want = inline.push(reports.clone());
        want.extend(inline.finish());
        assert_eq!(snaps.len(), 9);
        assert_eq!(snaps, want);
        // Each park lasts until the worker has drained the ring to half
        // full, so a park stands for at least half a ring of reports.
        let stalls = registry.counter(metrics::FLEET_RING_STALLS);
        let bound = reports.len() as u64 / (RING_SLOTS as u64 / 2);
        assert!(
            (2..=bound).contains(&stalls),
            "{stalls} parks for {} reports (at most {bound})",
            reports.len()
        );
        Ok(())
    }

    #[test]
    fn drop_without_finish_joins_workers() -> Result<(), &'static str> {
        let fleet = FleetEngine::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1]),
            10.0,
            5.0,
            4,
        )
        .map_err(|_| "construction failed")?;
        drop(fleet); // must not hang or leak threads
        Ok(())
    }
}
