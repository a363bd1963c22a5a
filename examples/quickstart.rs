//! Quickstart: monitor one person's breathing end to end.
//!
//! Simulates the paper's default setting — a user sitting 4 m from the
//! reader antenna wearing three passive tags, breathing at 10 bpm — then
//! runs the TagBreathe pipeline over the captured low-level reports.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use tagbreathe_suite::prelude::*;

fn main() {
    // 1. A subject wearing three tags (chest / middle / abdomen), 4 m out.
    let scenario = Scenario::builder()
        .subject(Subject::paper_default(1, 4.0))
        .build();

    // 2. Capture 60 seconds of low-level data with the simulated Impinj
    //    R420 (frequency hopping, Q-algorithm MAC, phase/RSSI/Doppler).
    let world = ScenarioWorld::new(scenario);
    let reports = Reader::paper_default().run(&world, 60.0);
    println!(
        "captured {} low-level reports ({:.1} reads/s)",
        reports.len(),
        reports.len() as f64 / 60.0
    );

    // 3. Analyse: classify by user ID → displacement (Eqs. 3-4) → fusion
    //    (Eqs. 6-7) → 0.67 Hz low-pass → zero-crossing rate (Eq. 5).
    let monitor = BreathMonitor::paper_default();
    let analysis = monitor.analyze(&reports, &EmbeddedIdentity::new([1]));

    match &analysis.users[&1] {
        Ok(user) => {
            println!("antenna port used : {}", user.antenna_port);
            println!("reports consumed  : {}", user.report_count);
            println!("zero crossings    : {}", user.rate.crossing_times.len());
            let bpm = user.mean_rate_bpm().expect("rate available");
            println!("estimated rate    : {bpm:.2} bpm (true: 10.00 bpm)");
            println!("accuracy (Eq. 8)  : {:.1}%", accuracy(bpm, 10.0) * 100.0);
        }
        Err(e) => println!("analysis failed: {e}"),
    }
}
