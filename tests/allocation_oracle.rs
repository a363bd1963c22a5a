//! Allocation oracle: counts the heap allocations the streaming engine
//! makes per report and per cadence point, inline and at two shards.
//! It is the workspace's only guard on the cost of the per-report path.
//!
//! A counting global allocator wraps `std::alloc::System` and counts
//! only while armed. The engines are built the way the server builds
//! them, with a metrics registry attached, and fed the paper's shape:
//! every user wears three tags (Fig. 9), read through two antenna ports
//! in turn (Section IV-D), so the Eq. (6) fusion and the best-port rule
//! run on the measured path. Each case warms an engine up, then arms two
//! stretches of stream that span the same cadence points but carry
//! different numbers of reports; the difference in allocations over the
//! difference in reports is what one more report costs, with every
//! per-cadence-point cost (sweeps, snapshot parts, the epoch merge)
//! cancelled out. A stretch ends on the report that crosses its last
//! cadence point, and stays armed until that point's snapshot is back,
//! so a shard worker's allocations for the stretch are counted too. The
//! stretches' own totals then bound that per-point cost.
//!
//! The oracle sees allocations only: a lock or a keyed lookup that
//! allocates nothing is a speed question, for the benchmark's per-layer
//! figures and for `a_push_makes_a_bounded_number_of_recorder_calls`.
//!
//! The counter is process-wide and worker threads allocate too, so the
//! cases run one after another in this binary's only test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tagbreathe_suite::epcgen2::mapping::OpenAdmission;
use tagbreathe_suite::prelude::*;
use tagbreathe_suite::tagbreathe::metrics::REPORTS_INGESTED;

/// Counts allocations (and reallocations) made while [`ARMED`].
struct Counting;

/// Whether allocations are being counted. Arming and disarming need no
/// ordering of their own: the ring and results channel order a worker's
/// allocations against the stretch that caused them.
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller upholds the rest of the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WINDOW_S: f64 = 25.0;
const CADENCE_S: f64 = 5.0;
/// Stream seconds of warm-up, then of each measured stretch (four
/// cadence points).
const WARM_UP_S: f64 = 80.0;
const STRETCH_S: f64 = 20.0;
/// How long a stretch waits for its snapshots before it fails.
const SNAPSHOT_DEADLINE: Duration = Duration::from_secs(60);

/// Tags per user (Fig. 9) and antenna ports the reader takes in turn.
const TAGS: u32 = 3;
const PORTS: u8 = 2;

/// Users of the paced trace.
const PACED_USERS: u64 = 8;
/// Allocations one user may cost per cadence point on the paced trace,
/// inline and at 2 shards: its sweep, its analysis and its share of the
/// snapshot part and the epoch merge. The trace reads about 13.5 and
/// 14.1, so one more allocation per visited user per sweep fails.
const PER_USER_POINT: [u64; 2] = [14, 15];

/// One read of `user`'s tag `tag` at `t` through `port` on `channel`: a
/// slow breathing phase, offset per user, tag and port.
fn read(user: u64, tag: u32, t: f64, port: u8, channel: u16) -> TagReport {
    let breath = (2.0 * std::f64::consts::PI * 0.25 * t + user as f64).sin();
    TagReport {
        time_s: t,
        epc: Epc96::monitor(user, tag),
        antenna_port: port,
        channel_index: channel,
        phase_rad: (1.0
            + 0.2 * breath
            + 0.7 * f64::from(channel)
            + 0.3 * f64::from(tag)
            + 0.5 * f64::from(port))
        .rem_euclid(std::f64::consts::TAU),
        rssi_dbm: -55.0 - f64::from(port),
        doppler_hz: 0.0,
    }
}

/// Ward-shaped: `hz` inventory rounds per second over `(from_s, to_s]`,
/// each reading every tag of the 8 users through the next port, hopping
/// over four channels. Every user reports at every cadence point.
fn paced(hz: f64, from_s: f64, to_s: f64) -> Vec<TagReport> {
    let mut reads = Vec::new();
    let first = (from_s * hz).floor() as u32 + 1;
    let last = (to_s * hz).round() as u32;
    for i in first..=last {
        let port = (i % u32::from(PORTS)) as u8 + 1;
        let channel = (i / u32::from(PORTS) % 4) as u16;
        for user in 1..=PACED_USERS {
            for tag in 0..TAGS {
                let n = (user - 1) * u64::from(TAGS) + u64::from(tag);
                let t = f64::from(i) / hz + n as f64 * 1e-4;
                reads.push(read(user, tag, t, port, channel));
            }
        }
    }
    reads
}

/// Users of the flood trace.
const FLOOD_USERS: u64 = 7_000;

/// Flood-shaped: reads go to 7,000 users in rotation, `hz` per second
/// over `(from_s, to_s]`, continuing the rotation from `next`; each
/// rotation reads the users' next tag through the next port. At 200/s a
/// user returns after 35 s, past the 25 s horizon and the sweep that
/// empties it, so every read lands in an empty user.
fn flood(hz: f64, from_s: f64, to_s: f64, next: &mut u64) -> Vec<TagReport> {
    let first = (from_s * hz).round() as u32 + 1;
    let last = (to_s * hz).round() as u32;
    (first..=last)
        .map(|i| {
            let (rotation, user) = (*next / FLOOD_USERS, *next % FLOOD_USERS + 1);
            *next += 1;
            let tag = (rotation % u64::from(TAGS)) as u32;
            let port = (rotation % u64::from(PORTS)) as u8 + 1;
            read(user, tag, f64::from(i) / hz, port, 0)
        })
        .collect()
}

type Push<'a> = &'a mut dyn FnMut(Vec<TagReport>) -> Vec<RateSnapshot>;

/// Pushes `reports` and waits for the snapshots of the cadence points
/// they cross; returns the allocations made meanwhile if `armed`.
fn stretch(push: Push<'_>, reports: Vec<TagReport>, armed: bool) -> u64 {
    let last_s = reports.last().map_or(0.0, |r| r.time_s);
    let first_s = reports.first().map_or(0.0, |r| r.time_s);
    let points = ((last_s / CADENCE_S).floor() - ((first_s / CADENCE_S).ceil() - 1.0)) as usize;
    let deadline = Instant::now() + SNAPSHOT_DEADLINE;
    ALLOCATIONS.store(0, Ordering::Relaxed);
    ARMED.store(armed, Ordering::Relaxed);
    let mut back = push(reports).len();
    while back < points && Instant::now() < deadline {
        std::thread::yield_now();
        back += push(Vec::new()).len();
    }
    ARMED.store(false, Ordering::Relaxed);
    assert_eq!(back, points, "snapshots back within {SNAPSHOT_DEADLINE:?}");
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// What one engine cost over a trace's two measured stretches.
struct Measured {
    /// Allocations over the fast stretch, then over the slow one.
    stretches: [u64; 2],
    /// Allocations one more report costs.
    per_report: f64,
}

/// Runs `trace`'s warm-up, then its stretches at the fast and the slow
/// rate.
fn measure(push: Push<'_>, trace: [Vec<TagReport>; 3]) -> Measured {
    let [warm_up, fast, slow] = trace;
    let reports = (fast.len() - slow.len()) as f64;
    stretch(push, warm_up, false);
    let stretches = [stretch(push, fast, true), stretch(push, slow, true)];
    Measured {
        stretches,
        per_report: (stretches[0] as f64 - stretches[1] as f64) / reports,
    }
}

fn paced_trace() -> [Vec<TagReport>; 3] {
    let fast_end = WARM_UP_S + STRETCH_S;
    [
        paced(40.0, 0.0, WARM_UP_S),
        paced(40.0, WARM_UP_S, fast_end),
        paced(20.0, fast_end, fast_end + STRETCH_S),
    ]
}

fn flood_trace() -> [Vec<TagReport>; 3] {
    let fast_end = WARM_UP_S + STRETCH_S;
    let mut next = 0;
    [
        flood(200.0, 0.0, WARM_UP_S, &mut next),
        flood(200.0, WARM_UP_S, fast_end, &mut next),
        flood(100.0, fast_end, fast_end + STRETCH_S, &mut next),
    ]
}

/// The inline engine and a 2-shard fleet, each recording into its own
/// registry as the server's engine does, over `trace`.
fn both_executors(trace: fn() -> [Vec<TagReport>; 3]) -> [Measured; 2] {
    let config = PipelineConfig::paper_default;
    let registries = [Arc::new(Registry::new()), Arc::new(Registry::new())];
    let recorder = |i: usize| SharedRecorder::new(registries[i].clone());
    let mut inline = StreamingMonitor::new(config(), OpenAdmission, WINDOW_S, CADENCE_S)
        .unwrap()
        .with_recorder(recorder(0));
    let mut fleet =
        FleetEngine::observed(config(), OpenAdmission, WINDOW_S, CADENCE_S, 2, recorder(1))
            .unwrap();
    let inline = measure(&mut |batch| inline.push(batch), trace());
    let sharded = measure(&mut |batch| fleet.push(batch), trace());
    drop(fleet.finish());
    for registry in &registries {
        assert!(registry.counter(REPORTS_INGESTED) > 0, "registry attached");
    }
    [inline, sharded]
}

#[test]
fn per_report_allocations_stay_pinned() {
    let executors = ["inline", "2 shards"];
    // Ward-shaped traffic allocates nothing per report: every slab,
    // table and ring it touches already has its room after the warm-up.
    // What it allocates per cadence point stays under a fixed count per
    // user per point.
    let paced = both_executors(paced_trace);
    for ((executor, measured), per_user) in executors.iter().zip(&paced).zip(PER_USER_POINT) {
        let allocs = measured.per_report;
        assert!(
            allocs.abs() < 0.01,
            "paced, {executor}: {allocs:.4} per report"
        );
        let ceiling = per_user * PACED_USERS * (STRETCH_S / CADENCE_S) as u64;
        assert!(
            measured.stretches.iter().all(|&n| n <= ceiling),
            "paced, {executor}: {:?} allocations per stretch, ceiling {ceiling}",
            measured.stretches
        );
    }
    // Every flood read lands in an empty user. Its tag slab comes off the
    // shard's spare list, and its tag takes a slot an evicted tag left
    // there, with the Eq. (3) unwrapper's channel table still allocated,
    // so a flood report allocates nothing either.
    for (executor, measured) in executors.iter().zip(both_executors(flood_trace)) {
        let allocs = measured.per_report;
        assert!(
            allocs.abs() < 0.01,
            "flood, {executor}: {allocs:.4} per report"
        );
    }
}
