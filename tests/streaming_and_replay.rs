//! Integration tests of the real-time modes and the trace record/replay
//! path.

use epcgen2::report::{read_csv, write_csv};
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

#[test]
fn streaming_matches_batch_on_final_window() {
    let reports = capture(60.0, 1);
    let batch = {
        let window: Vec<TagReport> = reports
            .iter()
            .filter(|r| r.time_s >= 60.0 - 30.0)
            .copied()
            .collect();
        BreathMonitor::paper_default()
            .analyze(&window, &EmbeddedIdentity::new([1]))
            .users[&1]
            .as_ref()
            .ok()
            .and_then(|a| a.mean_rate_bpm())
            .expect("batch rate")
    };
    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new([1]),
        30.0,
        60.0,
    )
    .unwrap();
    sm.push(reports);
    let snap = sm.snapshot_now();
    let streamed = snap.rates_bpm[&1];
    assert!(
        (streamed - batch).abs() < 0.5,
        "streaming {streamed} vs batch {batch}"
    );
}

#[test]
fn pipelined_thread_produces_live_estimates() {
    let reports = capture(50.0, 2);
    let mut fleet = FleetEngine::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new([1]),
        25.0,
        10.0,
        2,
    )
    .unwrap();
    let mut snaps = Vec::new();
    for r in &reports {
        snaps.extend(fleet.push([*r]));
    }
    snaps.extend(fleet.finish());
    assert!(snaps.len() >= 3, "only {} snapshots", snaps.len());
    let with_rates = snaps
        .iter()
        .filter(|s| s.rates_bpm.contains_key(&1))
        .count();
    assert!(with_rates >= 2, "only {with_rates} snapshots carried rates");
    for s in &snaps {
        if let Some(&bpm) = s.rates_bpm.get(&1) {
            assert!(
                (bpm - 10.0).abs() < 3.0,
                "live estimate {bpm} at t={}",
                s.time_s
            );
        }
    }
}

#[test]
fn csv_replay_reproduces_the_analysis_exactly() {
    let reports = capture(45.0, 3);
    let mut buf = Vec::new();
    write_csv(&mut buf, &reports).unwrap();
    let replayed = read_csv(buf.as_slice()).unwrap();
    assert_eq!(replayed.len(), reports.len());

    let monitor = BreathMonitor::paper_default();
    let resolver = EmbeddedIdentity::new([1]);
    let live = monitor.analyze(&reports, &resolver);
    let offline = monitor.analyze(&replayed, &resolver);
    let a = live.users[&1].as_ref().unwrap().mean_rate_bpm().unwrap();
    let b = offline.users[&1].as_ref().unwrap().mean_rate_bpm().unwrap();
    // CSV rounds floats; the estimates must agree to well under the
    // paper's 1 bpm error budget.
    assert!((a - b).abs() < 0.05, "live {a} vs replay {b}");
}

#[test]
fn mapping_table_fallback_matches_embedded_identity() {
    let reports = capture(45.0, 4);
    let monitor = BreathMonitor::paper_default();
    let embedded = monitor.analyze(&reports, &EmbeddedIdentity::new([1]));

    let mut table = MappingTable::new();
    for r in &reports {
        if r.epc.user_id() == 1 {
            table.insert(r.epc, 1, r.epc.tag_id());
        }
    }
    let mapped = monitor.analyze(&reports, &table);
    let a = embedded.users[&1]
        .as_ref()
        .unwrap()
        .mean_rate_bpm()
        .unwrap();
    let b = mapped.users[&1].as_ref().unwrap().mean_rate_bpm().unwrap();
    assert_eq!(a, b, "resolvers disagreed");
}

#[test]
fn apnea_suppresses_breathing_effort() {
    let subject = Subject::new(
        1,
        Vec3::new(2.0, 0.0, 0.0),
        Vec3::new(-1.0, 0.0, 0.0),
        Posture::Lying,
        Waveform::WithApnea {
            rate_bpm: 18.0,
            breathe_s: 25.0,
            apnea_s: 15.0,
        },
        TagSite::ALL.to_vec(),
    );
    let scenario = Scenario::builder().subject(subject).build();
    let reader = Reader::new(
        ReaderConfig::paper_default().with_seed(5),
        vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
    )
    .unwrap();
    let reports = reader.run(&ScenarioWorld::new(scenario), 80.0);
    let analysis = BreathMonitor::paper_default().analyze(&reports, &EmbeddedIdentity::new([1]));
    let user = analysis.users[&1].as_ref().expect("analysable");
    let signal = user.breath_signal.values();
    let dt = user.breath_signal.dt_s();
    let rms = |lo: f64, hi: f64| {
        let a = (lo / dt) as usize;
        let b = ((hi / dt) as usize).min(signal.len());
        let w = &signal[a..b];
        (w.iter().map(|x| x * x).sum::<f64>() / w.len() as f64).sqrt()
    };
    // Breathing effort in a mid-breathing window vs a mid-apnea window.
    let breathing = rms(10.0, 20.0);
    let apnea = rms(29.0, 37.0);
    assert!(
        apnea < breathing * 0.5,
        "apnea RMS {apnea:.2e} vs breathing {breathing:.2e}"
    );
}
