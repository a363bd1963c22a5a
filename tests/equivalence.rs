//! Batch-vs-streaming equivalence suite.
//!
//! `BreathMonitor::analyze` (batch) and `StreamingMonitor::push` (real
//! time) are both thin drivers over the same per-user operator graph
//! (`tagbreathe::operators::UserStreamState`): the batch folds the
//! time-sorted trace into it and snapshots once. Feeding the same
//! time-ordered `TagReport` trace through both paths must therefore
//! produce bit-identical breathing rates (`f64::to_bits` equality) — the
//! refactor's central invariant. Only out-of-order input may differ, and
//! only slightly: see `equivalence_with_out_of_order_timestamps`.

use tagbreathe_suite::prelude::*;

fn capture(secs: f64, seed: u64) -> Vec<TagReport> {
    let scenario = Scenario::builder()
        .subject(Subject::paper_default(1, 3.0))
        .build();
    let reader = Reader::new(
        ReaderConfig::paper_default().with_seed(seed),
        vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
    )
    .unwrap();
    reader.run(&ScenarioWorld::new(scenario), secs)
}

fn batch_rate(cfg: &PipelineConfig, reports: &[TagReport], ids: &[u64], user: u64) -> Option<f64> {
    BreathMonitor::new(cfg.clone())
        .unwrap()
        .analyze(reports, &EmbeddedIdentity::new(ids.to_vec()))
        .users
        .get(&user)?
        .as_ref()
        .ok()?
        .mean_rate_bpm()
}

/// Streams the whole trace with a window wider than the trace (so nothing
/// is evicted) and takes one final snapshot — the configuration in which
/// streaming must reproduce batch.
fn stream_rate(cfg: &PipelineConfig, reports: &[TagReport], ids: &[u64], user: u64) -> Option<f64> {
    let mut sm = StreamingMonitor::new(
        cfg.clone(),
        EmbeddedIdentity::new(ids.to_vec()),
        1.0e4,
        1.0e4,
    )
    .unwrap();
    sm.push(reports.iter().copied());
    sm.snapshot_now().rates_bpm.get(&user).copied()
}

fn assert_equivalent(cfg: &PipelineConfig, reports: &[TagReport], ids: &[u64], user: u64) {
    let batch = batch_rate(cfg, reports, ids, user).expect("batch produced no rate");
    let stream = stream_rate(cfg, reports, ids, user).expect("streaming produced no rate");
    assert_eq!(
        batch.to_bits(),
        stream.to_bits(),
        "batch {batch} bpm vs streaming {stream} bpm ({:?}/{:?})",
        cfg.preprocess,
        cfg.antenna,
    );
}

#[test]
fn equivalence_on_default_configuration() {
    let reports = capture(60.0, 11);
    assert_equivalent(&PipelineConfig::paper_default(), &reports, &[1], 1);
}

#[test]
fn equivalence_across_all_strategy_combinations() {
    let reports = capture(60.0, 12);
    for preprocess in [
        PreprocessKind::IncrementBinning,
        PreprocessKind::ChannelTrackMerge,
    ] {
        for antenna in [AntennaStrategy::BestPort, AntennaStrategy::MergeAll] {
            let mut cfg = PipelineConfig::paper_default();
            cfg.preprocess = preprocess;
            cfg.antenna = antenna;
            assert_equivalent(&cfg, &reports, &[1], 1);
        }
    }
}

#[test]
fn equivalence_with_multiple_users() {
    let scenario = Scenario::builder()
        .users_side_by_side(2, 3.0, &[8.0, 16.0])
        .build();
    let ids: Vec<u64> = scenario.subjects().iter().map(|s| s.user_id()).collect();
    let reports = Reader::new(
        ReaderConfig::paper_default().with_seed(13),
        vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
    )
    .unwrap()
    .run(&ScenarioWorld::new(scenario), 90.0);
    for &user in &ids {
        assert_equivalent(&PipelineConfig::paper_default(), &reports, &ids, user);
    }
}

/// Synthetic trace with hard channel-hop seams: the reader dwells on one
/// channel for 200 reads, then hops (per-channel phase offsets differ, as
/// in paper Figure 4). Both paths must stay hop-immune and agree.
fn hopping_trace() -> Vec<TagReport> {
    let cfg = PipelineConfig::paper_default();
    let n = 32 * 120; // 32 Hz for 120 s
    (0..n)
        .map(|i| {
            let t = f64::from(i) / 32.0;
            let channel = ((i / 200) % 10) as u16;
            let lambda = cfg.plan.wavelength_m(channel as usize);
            // 5 mm breathing displacement at 12 bpm plus a per-channel
            // circuit offset that would wreck a naive unwrap across hops.
            let d = 0.005 * (2.0 * std::f64::consts::PI * 0.2 * t).sin();
            let offset = f64::from(channel) * 1.3;
            TagReport {
                time_s: t,
                epc: Epc96::monitor(1, 0),
                antenna_port: 1,
                channel_index: channel,
                phase_rad: (4.0 * std::f64::consts::PI * d / lambda + offset)
                    .rem_euclid(2.0 * std::f64::consts::PI),
                rssi_dbm: -55.0,
                doppler_hz: 0.0,
            }
        })
        .collect()
}

#[test]
fn equivalence_across_channel_hop_seams() {
    let reports = hopping_trace();
    let cfg = PipelineConfig::paper_default();
    assert_equivalent(&cfg, &reports, &[1], 1);
    let batch = batch_rate(&cfg, &reports, &[1], 1).expect("batch rate");
    assert!((batch - 12.0).abs() < 1.0, "hop-seam estimate {batch} bpm");
}

#[test]
fn equivalence_with_two_antennas_and_item_tags() {
    // Two ports see the user (the batch orders exact-time ties by port,
    // then tag), and item tags must be dropped alike by both paths.
    let scenario = Scenario::builder()
        .subject(Subject::paper_default(1, 3.0))
        .contending_items(5)
        .build();
    let side = Antenna::new(
        Vec3::new(0.0, -1.5, 1.0),
        Vec3::new(1.0, 0.5, 0.0),
        8.5,
        65.0,
        25.0,
    );
    let reports = Reader::new(
        ReaderConfig::paper_default().with_seed(15),
        vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0)), side],
    )
    .unwrap()
    .run(&ScenarioWorld::new(scenario), 60.0);
    for port in [1, 2] {
        assert!(
            reports
                .iter()
                .any(|r| r.antenna_port == port && r.epc.user_id() == 1),
            "port {port} never read the user — the test would be vacuous"
        );
    }
    for antenna in [AntennaStrategy::BestPort, AntennaStrategy::MergeAll] {
        let mut cfg = PipelineConfig::paper_default();
        cfg.antenna = antenna;
        assert_equivalent(&cfg, &reports, &[1], 1);
    }
}

#[test]
fn equivalence_with_out_of_order_timestamps() {
    // Perturb the trace: swap adjacent reports at regular intervals. The
    // batch path re-sorts; the incremental preprocessor must absorb the
    // reversed pairs (dropping the affected increments, never panicking)
    // without moving the estimate. The two paths therefore consume
    // slightly different increments, so this is the one comparison held
    // to a tolerance (0.1 bpm) rather than to bit identity.
    let mut reports = capture(60.0, 14);
    let mut i = 0;
    while i + 1 < reports.len() {
        reports.swap(i, i + 1);
        i += 50;
    }
    let cfg = PipelineConfig::paper_default();
    let batch = batch_rate(&cfg, &reports, &[1], 1).expect("batch rate");
    let stream = stream_rate(&cfg, &reports, &[1], 1).expect("streaming rate");
    assert!(
        (batch - stream).abs() < 0.1,
        "batch {batch} vs streaming {stream}"
    );
}

#[test]
fn equivalence_with_non_finite_timestamps() {
    // Reports stamped NaN or ±inf cannot be placed in stream time: the
    // batch drops them as the engine does, so the spliced trace analyses
    // exactly like the clean one (the engine side is pinned by
    // `tests/fleet_equivalence.rs`).
    let clean = capture(60.0, 16);
    let mut spliced = clean.clone();
    for (at, time_s) in [
        (10, f64::INFINITY),
        (500, f64::NAN),
        (1200, f64::NEG_INFINITY),
    ] {
        let mut bad = spliced[at];
        bad.time_s = time_s;
        spliced.insert(at, bad);
    }
    let cfg = PipelineConfig::paper_default();
    let analyze = |reports: &[TagReport]| {
        BreathMonitor::new(cfg.clone())
            .unwrap()
            .analyze(reports, &EmbeddedIdentity::new([1]))
    };
    assert_eq!(analyze(&spliced), analyze(&clean));
    let batch = batch_rate(&cfg, &spliced, &[1], 1).expect("batch rate");
    let stream = stream_rate(&cfg, &clean, &[1], 1).expect("streaming rate");
    assert_eq!(batch.to_bits(), stream.to_bits());
}

#[test]
fn ten_thousand_distinct_tags_keep_state_bounded() {
    // Satellite guarantee: per-(tag, channel) state is evicted past the
    // gap/window horizon, so an adversarial stream of 10 000 distinct tag
    // IDs cannot grow memory without bound.
    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new([1]),
        5.0,
        5.0,
    )
    .unwrap();
    let mut peak_tags = 0usize;
    let mut peak_cells = 0usize;
    for i in 0..10_000u32 {
        let t = f64::from(i) * 0.01; // one new tag every 10 ms, 100 s total
        let report = TagReport {
            time_s: t,
            epc: Epc96::monitor(1, i),
            antenna_port: 1,
            channel_index: (i % 10) as u16,
            phase_rad: 0.0,
            rssi_dbm: -60.0,
            doppler_hz: 0.0,
        };
        sm.push(std::iter::once(report));
        peak_tags = peak_tags.max(sm.tracked_tags());
        peak_cells = peak_cells.max(sm.buffered());
    }
    // The 5 s gap/window horizon holds ~500 live tags; eviction cadence
    // can at most double that transiently. 10 000 would mean no eviction.
    assert!(peak_tags < 1_500, "peak tag slots {peak_tags}");
    assert!(peak_cells < 5_000, "peak state cells {peak_cells}");
    assert!(
        sm.tracked_tags() < 1_200,
        "final tag slots {}",
        sm.tracked_tags()
    );
}
