//! Allocation oracle: counts the heap allocations the streaming engine
//! makes per report, inline and at two shards.
//!
//! A counting global allocator wraps `std::alloc::System` and counts
//! only while armed. Each case warms an engine up, then arms two
//! stretches of stream that span the same cadence points but carry
//! different numbers of reports; the difference in allocations over the
//! difference in reports is what one more report costs, with every
//! per-cadence-point cost (sweeps, snapshot parts, the epoch merge)
//! cancelled out. A stretch ends on the report that crosses its last
//! cadence point, and stays armed until that point's snapshot is back,
//! so a shard worker's allocations for the stretch are counted too.
//!
//! The counter is process-wide and worker threads allocate too, so the
//! cases run one after another in this binary's only test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tagbreathe_suite::epcgen2::mapping::OpenAdmission;
use tagbreathe_suite::prelude::*;

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

/// One read of `user`'s only tag at `t` on `channel`: a slow breathing
/// phase, offset per user.
fn read(user: u64, t: f64, channel: u16) -> TagReport {
    let breath = (2.0 * std::f64::consts::PI * 0.25 * t + user as f64).sin();
    TagReport {
        time_s: t,
        epc: Epc96::monitor(user, 0),
        antenna_port: 1,
        channel_index: channel,
        phase_rad: (1.0 + 0.2 * breath + 0.7 * f64::from(channel))
            .rem_euclid(std::f64::consts::TAU),
        rssi_dbm: -55.0,
        doppler_hz: 0.0,
    }
}

/// Ward-shaped: 8 users each read at `hz` over `(from_s, to_s]`, hopping
/// over four channels. Every user reports at every cadence point.
fn paced(hz: f64, from_s: f64, to_s: f64) -> Vec<TagReport> {
    let mut reads = Vec::new();
    let first = (from_s * hz).floor() as u32 + 1;
    let last = (to_s * hz).round() as u32;
    for i in first..=last {
        for user in 1..=8u64 {
            let t = f64::from(i) / hz + (user - 1) as f64 * 1e-4;
            reads.push(read(user, t, (i % 4) as u16));
        }
    }
    reads
}

/// Users of the flood trace.
const FLOOD_USERS: u64 = 7_000;

/// Flood-shaped: reads go to 7,000 users in rotation, `hz` per second
/// over `(from_s, to_s]`, continuing the rotation from `next_user`. At
/// 200/s a user returns after 35 s, past the 25 s horizon and the sweep
/// that empties it, so every read lands in an empty user.
fn flood(hz: f64, from_s: f64, to_s: f64, next_user: &mut u64) -> Vec<TagReport> {
    let first = (from_s * hz).round() as u32 + 1;
    let last = (to_s * hz).round() as u32;
    (first..=last)
        .map(|i| {
            let user = *next_user % FLOOD_USERS + 1;
            *next_user += 1;
            read(user, f64::from(i) / hz, 0)
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
    ALLOCATIONS.store(0, Ordering::Relaxed);
    ARMED.store(armed, Ordering::Relaxed);
    let mut back = push(reports).len();
    while back < points {
        std::thread::yield_now();
        back += push(Vec::new()).len();
    }
    ARMED.store(false, Ordering::Relaxed);
    assert_eq!(back, points, "snapshots back");
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations per report on `trace`'s warm-up, then its stretches at
/// the fast and the slow rate.
fn per_report(push: Push<'_>, trace: [Vec<TagReport>; 3]) -> f64 {
    let [warm_up, fast, slow] = trace;
    let reports = (fast.len() - slow.len()) as f64;
    stretch(push, warm_up, false);
    let fast = stretch(push, fast, true);
    let slow = stretch(push, slow, true);
    (fast as f64 - slow as f64) / reports
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
    let mut next_user = 0;
    [
        flood(200.0, 0.0, WARM_UP_S, &mut next_user),
        flood(200.0, WARM_UP_S, fast_end, &mut next_user),
        flood(100.0, fast_end, fast_end + STRETCH_S, &mut next_user),
    ]
}

/// Allocations per report of the inline engine and of a 2-shard fleet.
fn both_executors(trace: fn() -> [Vec<TagReport>; 3]) -> [f64; 2] {
    let config = PipelineConfig::paper_default;
    let mut inline = StreamingMonitor::new(config(), OpenAdmission, WINDOW_S, CADENCE_S).unwrap();
    let mut fleet = FleetEngine::new(config(), OpenAdmission, WINDOW_S, CADENCE_S, 2).unwrap();
    let inline = per_report(&mut |batch| inline.push(batch), trace());
    let sharded = per_report(&mut |batch| fleet.push(batch), trace());
    drop(fleet.finish());
    [inline, sharded]
}

#[test]
fn per_report_allocations_stay_pinned() {
    // Ward-shaped traffic allocates nothing per report: every slab,
    // table and ring it touches already has its room after the warm-up.
    for (executor, allocs) in ["inline", "2 shards"]
        .iter()
        .zip(both_executors(paced_trace))
    {
        assert!(
            allocs.abs() < 0.01,
            "paced, {executor}: {allocs:.4} per report"
        );
    }
    // Every flood read lands in an empty user. Its tag slab comes off the
    // shard's spare list, so the one allocation left is the Eq. (3)
    // unwrapper's channel table for the new tag.
    for (executor, allocs) in ["inline", "2 shards"]
        .iter()
        .zip(both_executors(flood_trace))
    {
        assert!(
            (0.99..=1.01).contains(&allocs),
            "flood, {executor}: {allocs:.4} per report"
        );
    }
}
