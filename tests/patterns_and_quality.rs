//! End-to-end tests of the pattern-analysis extensions through the full
//! RF / MAC / pipeline stack.

use tagbreathe_suite::prelude::*;
use tagbreathe_suite::tagbreathe::patterns::{analyze_pattern, PatternClass};
use tagbreathe_suite::tagbreathe::quality::{assess, Confidence, QualityThresholds};
use tagbreathe_suite::tagbreathe::{detect_apnea, ApneaConfig};

fn analyze_waveform(waveform: Waveform, secs: f64, seed: u64) -> Option<UserAnalysisBox> {
    let subject = Subject::new(
        1,
        Vec3::new(2.5, 0.0, 0.0),
        Vec3::new(-1.0, 0.0, 0.0),
        Posture::Sitting,
        waveform,
        TagSite::ALL.to_vec(),
    );
    let scenario = Scenario::builder().subject(subject).build();
    let reports = Reader::new(
        ReaderConfig::paper_default().with_seed(seed),
        vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
    )
    .unwrap()
    .run(&ScenarioWorld::new(scenario), secs);
    BreathMonitor::paper_default()
        .analyze(&reports, &EmbeddedIdentity::new([1]))
        .users
        .remove(&1)
        .and_then(Result::ok)
}

type UserAnalysisBox = tagbreathe_suite::tagbreathe::UserAnalysis;

#[test]
fn steady_breathing_classifies_regular_end_to_end() {
    let user = analyze_waveform(Waveform::Sinusoid { rate_bpm: 12.0 }, 120.0, 1).unwrap();
    let p = analyze_pattern(&user.breath_signal);
    assert_eq!(p.class, PatternClass::Regular, "rate CV {}", p.rate_cv);
    assert!(p.breaths.len() >= 15, "{} breaths", p.breaths.len());
}

#[test]
fn cheyne_stokes_is_flagged_irregular_end_to_end() {
    let user = analyze_waveform(
        Waveform::CheyneStokes {
            rate_bpm: 18.0,
            cycle_s: 60.0,
            apnea_fraction: 0.3,
        },
        180.0,
        2,
    )
    .unwrap();
    let p = analyze_pattern(&user.breath_signal);
    assert_ne!(
        p.class,
        PatternClass::Regular,
        "Cheyne-Stokes misread as regular (rate CV {}, depth CV {})",
        p.rate_cv,
        p.depth_cv
    );
}

#[test]
fn apnea_episodes_detected_end_to_end() {
    let user = analyze_waveform(
        Waveform::WithApnea {
            rate_bpm: 15.0,
            breathe_s: 30.0,
            apnea_s: 15.0,
        },
        135.0,
        3,
    )
    .unwrap();
    let episodes =
        detect_apnea(&user.breath_signal, &ApneaConfig::default_config()).expect("valid config");
    // Three apnea windows fall inside the capture (30-45, 75-90, 120-135).
    assert!(
        (2..=4).contains(&episodes.len()),
        "found {} episodes: {episodes:?}",
        episodes.len()
    );
    for e in &episodes {
        assert!(e.duration_s() > 5.0 && e.duration_s() < 30.0);
    }
}

#[test]
fn breath_depth_scales_with_physical_amplitude() {
    let run = |amp: f64, seed: u64| {
        let subject = Subject::paper_default(1, 2.5).with_amplitude_m(amp);
        let scenario = Scenario::builder().subject(subject).build();
        let reports = Reader::new(
            ReaderConfig::paper_default().with_seed(seed),
            vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
        )
        .unwrap()
        .run(&ScenarioWorld::new(scenario), 90.0);
        let user = BreathMonitor::paper_default()
            .analyze(&reports, &EmbeddedIdentity::new([1]))
            .users
            .remove(&1)
            .and_then(Result::ok)
            .unwrap();
        analyze_pattern(&user.breath_signal).mean_depth
    };
    let shallow = run(0.003, 10);
    let deep = run(0.009, 10);
    assert!(
        deep > 1.8 * shallow,
        "deep {deep:.2e} vs shallow {shallow:.2e}"
    );
}

#[test]
fn quality_grade_tracks_distance() {
    let grade = |d: f64| {
        let scenario = Scenario::builder()
            .subject(Subject::paper_default(1, d))
            .build();
        let reports = Reader::paper_default().run(&ScenarioWorld::new(scenario), 60.0);
        BreathMonitor::paper_default()
            .analyze(&reports, &EmbeddedIdentity::new([1]))
            .users
            .remove(&1)
            .and_then(Result::ok)
            .map(|a| assess(&a, &QualityThresholds::default_thresholds()).confidence)
    };
    let near = grade(1.5).expect("near analysable");
    assert_eq!(near, Confidence::High);
    if let Some(far) = grade(6.0) {
        assert!(far <= near);
    }
}

#[test]
fn demographic_presets_are_monitorable_end_to_end() {
    use tagbreathe_suite::breathing::Demographic;
    for (demo, seed) in [
        (Demographic::Adult, 31u64),
        (Demographic::Elderly, 32),
        (Demographic::Athlete, 33),
    ] {
        let subject = demo.subject(1, 2.5);
        let truth = subject.nominal_rate_bpm();
        let scenario = Scenario::builder().subject(subject).build();
        let reports = Reader::new(
            ReaderConfig::paper_default().with_seed(seed),
            vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
        )
        .unwrap()
        .run(&ScenarioWorld::new(scenario), 120.0);
        let bpm = BreathMonitor::paper_default()
            .analyze(&reports, &EmbeddedIdentity::new([1]))
            .users[&1]
            .as_ref()
            .unwrap()
            .mean_rate_bpm()
            .unwrap();
        assert!(
            (bpm - truth).abs() < 2.0,
            "{demo:?}: true {truth}, got {bpm}"
        );
        assert!(
            demo.rate_is_normal(bpm),
            "{demo:?}: {bpm} outside normal range"
        );
    }
}

#[test]
fn infant_monitoring_needs_a_wider_band() {
    use tagbreathe_suite::breathing::Demographic;
    // A newborn breathes ~40 bpm — at the very edge of the paper's adult
    // 0.67 Hz cutoff. Raising the cutoff (a config knob) makes the same
    // pipeline work.
    let subject = Demographic::Infant.subject(1, 1.5);
    let truth = subject.nominal_rate_bpm();
    let scenario = Scenario::builder().subject(subject).build();
    let reports = Reader::new(
        ReaderConfig::paper_default().with_seed(34),
        vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
    )
    .unwrap()
    .run(&ScenarioWorld::new(scenario), 120.0);
    let mut cfg = PipelineConfig::paper_default();
    cfg.cutoff_hz = 1.5; // 90 bpm ceiling for neonates
                         // At 40 bpm the breath period (1.5 s) is shorter than the channel
                         // revisit interval (2 s), so the increment path aliases; the
                         // channel-track-merge preprocessing keeps full amplitude at every
                         // read instant instead.
    cfg.preprocess = tagbreathe_suite::tagbreathe::PreprocessKind::ChannelTrackMerge;
    let bpm = BreathMonitor::new(cfg)
        .unwrap()
        .analyze(&reports, &EmbeddedIdentity::new([1]))
        .users[&1]
        .as_ref()
        .unwrap()
        .mean_rate_bpm()
        .unwrap();
    assert!((bpm - truth).abs() < 3.0, "infant: true {truth}, got {bpm}");
}
