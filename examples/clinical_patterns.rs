//! Clinical pattern screening: classify breathing patterns, grade estimate
//! quality, and cross-validate with the secondary observables.
//!
//! Three simulated patients breathe with distinct clinical patterns —
//! regular, Cheyne–Stokes (crescendo–decrescendo with pauses), and
//! realistic-with-jitter — and the analysis reports rate, pattern class,
//! quality grade and multi-modal agreement for each.
//!
//! ```text
//! cargo run --example clinical_patterns --release
//! ```

use tagbreathe_suite::prelude::*;
use tagbreathe_suite::tagbreathe::patterns::analyze_pattern;
use tagbreathe_suite::tagbreathe::quality::{assess, QualityThresholds};
use tagbreathe_suite::tagbreathe::{detect_apnea, enhanced_estimates, ApneaConfig};

fn main() {
    let patients = [
        ("regular (12 bpm)", Waveform::Sinusoid { rate_bpm: 12.0 }),
        (
            "Cheyne-Stokes (18 bpm bursts, 60 s cycle)",
            Waveform::CheyneStokes {
                rate_bpm: 18.0,
                cycle_s: 60.0,
                apnea_fraction: 0.3,
            },
        ),
        ("realistic w/ jitter (14 bpm)", Waveform::realistic(14.0, 5)),
    ];

    for (i, (label, waveform)) in patients.into_iter().enumerate() {
        let user_id = i as u64 + 1;
        let subject = Subject::new(
            user_id,
            Vec3::new(2.5, 0.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
            Posture::Lying,
            waveform,
            TagSite::ALL.to_vec(),
        );
        let scenario = Scenario::builder().subject(subject).build();
        let reports = Reader::new(
            ReaderConfig::paper_default().with_seed(user_id * 100),
            vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
        )
        .expect("reader setup")
        .run(&ScenarioWorld::new(scenario), 180.0);

        println!("── patient {user_id}: {label}");
        let config = PipelineConfig::paper_default();
        let resolver = EmbeddedIdentity::new([user_id]);
        let analysis = BreathMonitor::paper_default().analyze(&reports, &resolver);
        let Ok(user) = &analysis.users[&user_id] else {
            println!("   not analysable");
            continue;
        };

        if let Some(bpm) = user.mean_rate_bpm() {
            println!("   rate        : {bpm:.1} bpm");
        }
        let pattern = analyze_pattern(&user.breath_signal);
        println!(
            "   pattern     : {:?} ({} breaths, rate CV {:.2}, depth CV {:.2})",
            pattern.class,
            pattern.breaths.len(),
            pattern.rate_cv,
            pattern.depth_cv
        );
        let episodes =
            detect_apnea(&user.breath_signal, &ApneaConfig::default_config()).unwrap_or_default();
        println!(
            "   apnea       : {} episode(s){}",
            episodes.len(),
            episodes
                .first()
                .map(|e| format!(" — first {:.0}–{:.0} s", e.start_s, e.end_s))
                .unwrap_or_default()
        );
        let quality = assess(user, &QualityThresholds::default_thresholds());
        println!(
            "   quality     : {:?} (reads {:.0}/s, band SNR {:.1})",
            quality.confidence, quality.read_rate_hz, quality.band_snr
        );
        if let Some(e) = enhanced_estimates(&reports, &resolver, &config)
            .unwrap_or_default()
            .get(&user_id)
        {
            println!(
                "   cross-check : {:?} (RSSI {:?}, Doppler {:?})",
                e.agreement,
                e.rssi_bpm.map(|x| (x * 10.0).round() / 10.0),
                e.doppler_bpm.map(|x| (x * 10.0).round() / 10.0),
            );
        }
        println!();
    }
}
