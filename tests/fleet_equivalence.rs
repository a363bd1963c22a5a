//! Sharded-vs-single-thread equivalence for the fleet engine.
//!
//! The fleet engine's contract is stronger than "statistically close": for
//! any shard count, the merged snapshot stream must be **bit-identical**
//! to what the single-threaded `StreamingMonitor` produces from the same
//! trace. Reports travel to shards as `f64::to_bits` words, each shard
//! drives the same `UserStreamState` operators in the same stream order,
//! and parts merge in epoch order — so equality here is `to_bits`
//! equality, not a tolerance.

use std::collections::BTreeMap;
use std::sync::Arc;
use tagbreathe_suite::obs::Label;
use tagbreathe_suite::prelude::*;
use tagbreathe_suite::tagbreathe::fleet::interner::shard_of_user;
use tagbreathe_suite::tagbreathe::fleet::FleetEngine;
use tagbreathe_suite::tagbreathe::metrics;

const WINDOW_S: f64 = 15.0;
const CADENCE_S: f64 = 5.0;

fn capture_multi_user(secs: f64) -> (Vec<TagReport>, Vec<u64>) {
    let scenario = Scenario::builder()
        .users_side_by_side(3, 3.0, &[9.0, 12.0, 16.0])
        .contending_items(10)
        .build();
    let ids: Vec<u64> = scenario.subjects().iter().map(|s| s.user_id()).collect();
    let reader = Reader::new(
        ReaderConfig::paper_default().with_seed(11),
        vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
    )
    .unwrap();
    (reader.run(&ScenarioWorld::new(scenario), secs), ids)
}

fn single_thread(reports: &[TagReport], ids: &[u64]) -> Vec<RateSnapshot> {
    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new(ids.to_vec()),
        WINDOW_S,
        CADENCE_S,
    )
    .unwrap();
    sm.push(reports.iter().cloned())
}

fn sharded(reports: &[TagReport], ids: &[u64], shards: usize) -> Vec<RateSnapshot> {
    let mut fleet = FleetEngine::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new(ids.to_vec()),
        WINDOW_S,
        CADENCE_S,
        shards,
    )
    .unwrap();
    let mut snaps = fleet.push(reports.iter().cloned());
    snaps.extend(fleet.finish());
    snaps
}

/// `assert_eq!` on `RateSnapshot` compares floats with `==`; make the
/// bit-level claim explicit as well, so `-0.0 == 0.0`-style coincidences
/// cannot mask a real divergence.
fn assert_bit_identical(a: &[RateSnapshot], b: &[RateSnapshot], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: snapshot count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.time_s.to_bits(), y.time_s.to_bits(), "{what}: time");
        let pairs = |m: &std::collections::BTreeMap<u64, f64>| -> Vec<(u64, u64)> {
            m.iter().map(|(&k, v)| (k, v.to_bits())).collect()
        };
        assert_eq!(
            pairs(&x.rates_bpm),
            pairs(&y.rates_bpm),
            "{what}: rates at t={}",
            x.time_s
        );
        assert_eq!(
            pairs(&x.effort_rms),
            pairs(&y.effort_rms),
            "{what}: efforts at t={}",
            x.time_s
        );
    }
}

#[test]
fn sharded_matches_single_thread_at_every_width() {
    let (reports, ids) = capture_multi_user(60.0);
    let reference = single_thread(&reports, &ids);
    assert!(
        reference.iter().any(|s| !s.rates_bpm.is_empty()),
        "reference run produced no rates — test would be vacuous"
    );
    for shards in [1, 2, 4, 8] {
        let fleet = sharded(&reports, &ids, shards);
        assert_bit_identical(&reference, &fleet, &format!("{shards} shards"));
    }
}

#[test]
fn watermark_advances_across_shards_with_disjoint_activity() {
    // User 1 reports only early, user 2 only late. With 2+ shards the two
    // live on (usually) different shards, so the late user's reports must
    // still drive cadence snapshots of the idle shard — the cross-shard
    // watermark handoff.
    let mk = |user: u64, t: f64, phase: f64| TagReport {
        time_s: t,
        epc: Epc96::monitor(user, 0),
        antenna_port: 1,
        channel_index: 0,
        phase_rad: phase.rem_euclid(std::f64::consts::TAU),
        rssi_dbm: -55.0,
        doppler_hz: 0.0,
    };
    let mut reports = Vec::new();
    let mut t = 0.0;
    while t < 10.0 {
        reports.push(mk(
            1,
            t,
            1.0 + (2.0 * std::f64::consts::PI * 0.2 * t).sin() * 0.1,
        ));
        t += 0.03;
    }
    let mut t = 20.0;
    while t < 31.0 {
        reports.push(mk(
            2,
            t,
            1.5 + (2.0 * std::f64::consts::PI * 0.25 * t).sin() * 0.1,
        ));
        t += 0.03;
    }
    let ids = [1u64, 2];
    let reference = single_thread(&reports, &ids);
    assert!(
        reference.len() >= 6,
        "expected cadence points through the idle gap, got {}",
        reference.len()
    );
    for shards in [2, 4, 8] {
        let fleet = sharded(&reports, &ids, shards);
        assert_bit_identical(&reference, &fleet, &format!("watermark/{shards} shards"));
    }
}

#[test]
fn out_of_order_timestamps_are_handled_identically() {
    // Swap adjacent reports pairwise: small local reordering, as an LLRP
    // event stream can deliver. Both engines must process the perturbed
    // stream identically (watermarks are max-monotone, not assumed
    // sorted).
    let (mut reports, ids) = capture_multi_user(40.0);
    for pair in reports.chunks_mut(2) {
        pair.reverse();
    }
    let reference = single_thread(&reports, &ids);
    for shards in [2, 8] {
        let fleet = sharded(&reports, &ids, shards);
        assert_bit_identical(&reference, &fleet, &format!("ooo/{shards} shards"));
    }
}

#[test]
fn fleet_snapshots_drain_on_finish_even_mid_cadence() {
    // Pushing a stream that ends between cadence points: finish() must
    // return exactly the snapshots the single-thread engine produced, no
    // trailing partial epoch.
    let (reports, ids) = capture_multi_user(23.0);
    let reference = single_thread(&reports, &ids);
    let fleet = sharded(&reports, &ids, 4);
    assert_bit_identical(&reference, &fleet, "mid-cadence finish");
}

#[test]
fn non_finite_timestamps_are_dropped_by_both_executors() {
    // NaN and ±inf timestamps (a corrupt reader, or raw TBIP/1 float
    // bits) must neither wedge the cadence clock nor perturb the
    // estimates: every snapshot matches the same trace without them.
    let (clean, ids) = capture_multi_user(30.0);
    let mut spliced = clean.clone();
    for (at, time_s) in [
        (7, f64::INFINITY),
        (300, f64::NAN),
        (900, f64::NEG_INFINITY),
        (1500, f64::INFINITY),
    ] {
        let mut bad = spliced[at];
        bad.time_s = time_s;
        spliced.insert(at, bad);
    }
    let reference = single_thread(&clean, &ids);
    assert!(
        reference.iter().any(|s| !s.rates_bpm.is_empty()),
        "reference run produced no rates — test would be vacuous"
    );
    // A `+inf` report that reaches the cadence clock makes `push` loop
    // forever, so the pushes run on a helper thread: such a build fails
    // here instead of hanging the suite.
    let (done_tx, done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send((single_thread(&spliced, &ids), sharded(&spliced, &ids, 2)));
    });
    let (inline, threaded) = done
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("pushes must return despite non-finite timestamps");
    assert_bit_identical(&reference, &inline, "inline");
    assert_bit_identical(&reference, &threaded, "2 shards");
}

/// One read of `user`'s tag `tag` at `t`: a slow breathing phase on
/// channel 0, offset per user.
fn read(user: u64, tag: u32, t: f64) -> TagReport {
    let breath = (2.0 * std::f64::consts::PI * 0.2 * t + user as f64).sin();
    TagReport {
        time_s: t,
        epc: Epc96::monitor(user, tag),
        antenna_port: 1,
        channel_index: 0,
        phase_rad: (1.0 + 0.1 * breath).rem_euclid(std::f64::consts::TAU),
        rssi_dbm: -55.0,
        doppler_hz: 0.0,
    }
}

/// Reads of `user`'s three tags in turn, one every 30 ms over
/// `[from_s, to_s)`, offset by a per-user sliver so users never tie.
fn burst(user: u64, from_s: f64, to_s: f64) -> Vec<TagReport> {
    let mut reads = Vec::new();
    let mut t = from_s + user as f64 * 1e-5;
    let mut tag = 0;
    while t < to_s {
        reads.push(read(user, tag, t));
        tag = (tag + 1) % 3;
        t += 0.03;
    }
    reads
}

/// Merges per-user read lists into one time-ordered stream.
fn interleave(parts: Vec<Vec<TagReport>>) -> Vec<TagReport> {
    let mut reports: Vec<TagReport> = parts.into_iter().flatten().collect();
    reports.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    reports
}

/// Every counter outside the ring-only fleet series, and both occupancy
/// gauges as bit patterns, keyed by rendered metric key.
fn recorded(registry: &Registry) -> BTreeMap<String, u64> {
    let snap = registry.snapshot();
    let counters = snap
        .counters
        .into_iter()
        .filter(|(key, _)| key.starts_with("tagbreathe_") && !key.starts_with("tagbreathe_fleet_"));
    let gauges = snap
        .gauges
        .into_iter()
        .filter(|(key, _)| key == metrics::USERS_TRACKED || key == metrics::STATE_CELLS)
        .map(|(key, value)| (key, value.to_bits()));
    counters.chain(gauges).collect()
}

/// Runs `reports` through the recorded inline engine and the recorded
/// fleet at 1, 2, 4 and 8 shards. Every snapshot stream must be
/// bit-identical to the inline one; every executor must record the same
/// counters and end on the same occupancy gauges, with the per-shard user
/// gauges summing to the total. Returns the inline stream and every
/// run's registry, keyed by shard count (0 for the inline engine).
fn assert_executors_agree(
    reports: &[TagReport],
    ids: &[u64],
    what: &str,
) -> (Vec<RateSnapshot>, BTreeMap<usize, Arc<Registry>>) {
    let resolver = || EmbeddedIdentity::new(ids.to_vec());
    let registry = Arc::new(Registry::new());
    let mut inline = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        resolver(),
        WINDOW_S,
        CADENCE_S,
    )
    .unwrap()
    .with_recorder(SharedRecorder::new(registry.clone()));
    let mut reference = inline.push(reports.iter().copied());
    reference.extend(inline.finish());
    let expected = recorded(&registry);
    assert!(
        expected.contains_key(metrics::USERS_TRACKED),
        "{what}: no snapshot recorded"
    );
    let mut registries = BTreeMap::from([(0, registry)]);
    for shards in [1, 2, 4, 8] {
        let fleet_registry = Arc::new(Registry::new());
        let mut fleet = FleetEngine::observed(
            PipelineConfig::paper_default(),
            resolver(),
            WINDOW_S,
            CADENCE_S,
            shards,
            SharedRecorder::new(fleet_registry.clone()),
        )
        .unwrap();
        let mut snaps = fleet.push(reports.iter().copied());
        snaps.extend(fleet.finish());
        let at = format!("{what}: {shards} shards");
        assert_bit_identical(&reference, &snaps, &at);
        assert_eq!(recorded(&fleet_registry), expected, "{at}: recorded series");
        let per_shard: f64 = (0..u32::try_from(shards).unwrap())
            .filter_map(|s| {
                fleet_registry.labeled_gauge(metrics::FLEET_SHARD_USERS, Some(Label::shard(s)))
            })
            .sum();
        assert_eq!(
            Some(per_shard),
            fleet_registry.gauge_value(metrics::USERS_TRACKED),
            "{at}: shard users sum to the users tracked"
        );
        registries.insert(shards, fleet_registry);
    }
    (reference, registries)
}

#[test]
fn one_shot_users_match_across_executors() {
    // A steady user keeps the stream moving while 300 others each send
    // one read (every tenth sends a short burst) in the first 75 s and
    // never return: each is admitted, evicted past the horizon, and never
    // seen again.
    let mut parts = vec![burst(1, 0.0, 110.0)];
    for user in 100..400u64 {
        let t = (user - 100) as f64 * 0.25 + 0.011;
        parts.push(if user % 10 == 0 {
            burst(user, t, t + 0.2)
        } else {
            vec![read(user, 0, t)]
        });
    }
    let ids: Vec<u64> = std::iter::once(1).chain(100..400).collect();
    let (reference, registries) =
        assert_executors_agree(&interleave(parts), &ids, "one-shot users");
    assert!(
        reference.iter().any(|s| s.rates_bpm.contains_key(&1)),
        "the steady user never got a rate — test would be vacuous"
    );
    assert_eq!(
        registries[&0].counter(metrics::TAGS_EVICTED),
        300 + 30 * 2,
        "every one-shot user's tags expired"
    );
}

#[test]
fn users_silent_past_the_horizon_come_back_identically() {
    // Users 1–6 report for 20 s, fall silent for 25 s (past the 15 s
    // horizon, so their state empties) and come back, twice, staggered by
    // user; user 7 reports throughout.
    let mut parts = vec![burst(7, 0.0, 120.0)];
    for user in 1..=6u64 {
        let lag = user as f64 * 3.0;
        for start in [0.0, 45.0, 90.0] {
            parts.push(burst(user, start + lag, start + lag + 20.0));
        }
    }
    let ids: Vec<u64> = (1..=7).collect();
    let (reference, _) = assert_executors_agree(&interleave(parts), &ids, "returning users");
    for user in 1..=6u64 {
        let lag = user as f64 * 3.0;
        // Between its state's expiry and its return, a user has no rate.
        let (expired, back) = (lag + 20.0 + WINDOW_S + 0.1, lag + 45.0);
        let silent: Vec<&RateSnapshot> = (reference.iter())
            .filter(|s| s.time_s > expired && s.time_s < back)
            .collect();
        assert!(
            !silent.is_empty(),
            "user {user}: no cadence point while expired"
        );
        assert!(
            silent.iter().all(|s| !s.rates_bpm.contains_key(&user)),
            "user {user} kept a rate after its state expired"
        );
        assert!(
            (reference.iter())
                .any(|s| s.time_s >= 90.0 + lag + WINDOW_S && s.rates_bpm.contains_key(&user)),
            "user {user} got no rate after its second return"
        );
    }
}

#[test]
fn a_shard_whose_users_all_expired_answers_beside_a_busy_one() {
    // At two shards, every user on shard 0 stops at 20 s and expires,
    // while the users on shard 1 keep reporting until 80 s.
    let ids: Vec<u64> = (1..=12).collect();
    let (idle, busy): (Vec<u64>, Vec<u64>) = ids.iter().partition(|&&u| shard_of_user(u, 2) == 0);
    assert!(
        !idle.is_empty() && !busy.is_empty(),
        "both shards need users"
    );
    let parts = (idle.iter().map(|&u| burst(u, 0.0, 20.0)))
        .chain(busy.iter().map(|&u| burst(u, 0.0, 80.0)))
        .collect();
    let (reference, registries) = assert_executors_agree(&interleave(parts), &ids, "idle shard");
    let last = reference
        .last()
        .map(|s| s.rates_bpm.keys().copied().collect::<Vec<_>>());
    assert_eq!(
        last,
        Some(busy.clone()),
        "only the busy shard's users remain"
    );
    let users =
        |shard| registries[&2].labeled_gauge(metrics::FLEET_SHARD_USERS, Some(Label::shard(shard)));
    assert_eq!(users(0), Some(0.0), "shard 0 emptied");
    assert_eq!(users(1), Some(busy.len() as f64), "shard 1 still busy");
}

#[test]
fn channel_tracks_tied_in_time_merge_identically_across_executors() {
    // Two readers with the same port number read each user's tag on
    // channels 0 and 1 at the same instants, 20 ms apart, for 600 steps:
    // the channel-track merge sees samples tied in time, which every
    // executor must fuse in the same order.
    let config = PipelineConfig {
        preprocess: PreprocessKind::ChannelTrackMerge,
        ..PipelineConfig::paper_default()
    };
    let ids: Vec<u64> = (1..=4).collect();
    let parts = (ids.iter())
        .map(|&user| {
            (0..600)
                .flat_map(|step| {
                    let read = read(user, 0, f64::from(step) * 0.02 + user as f64 * 1e-5);
                    [0, 1].map(|channel| TagReport {
                        channel_index: channel,
                        phase_rad: (read.phase_rad + f64::from(channel))
                            .rem_euclid(std::f64::consts::TAU),
                        ..read
                    })
                })
                .collect()
        })
        .collect();
    let reports = interleave(parts);
    let resolver = || EmbeddedIdentity::new(ids.clone());
    let mut inline =
        StreamingMonitor::new(config.clone(), resolver(), WINDOW_S, CADENCE_S).unwrap();
    let mut reference = inline.push(reports.iter().copied());
    reference.extend(inline.finish());
    assert!(
        reference.iter().any(|s| !s.effort_rms.is_empty()),
        "no user got an effort — test would be vacuous"
    );
    for shards in [1, 2, 4, 8] {
        let mut fleet =
            FleetEngine::new(config.clone(), resolver(), WINDOW_S, CADENCE_S, shards).unwrap();
        let mut snaps = fleet.push(reports.iter().copied());
        snaps.extend(fleet.finish());
        assert_bit_identical(
            &reference,
            &snaps,
            &format!("tied channels: {shards} shards"),
        );
    }
}
