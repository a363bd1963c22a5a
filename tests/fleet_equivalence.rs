//! Sharded-vs-single-thread equivalence for the fleet engine.
//!
//! The fleet engine's contract is stronger than "statistically close": for
//! any shard count, the merged snapshot stream must be **bit-identical**
//! to what the single-threaded `StreamingMonitor` produces from the same
//! trace. Reports travel to shards as `f64::to_bits` words, each shard
//! drives the same `UserStreamState` operators in the same stream order,
//! and parts merge in epoch order — so equality here is `to_bits`
//! equality, not a tolerance.

use tagbreathe_suite::prelude::*;
use tagbreathe_suite::tagbreathe::fleet::FleetEngine;

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
