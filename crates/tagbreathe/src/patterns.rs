//! Breathing-pattern analysis beyond the rate.
//!
//! The paper's introduction motivates more than rate counting: deep breaths
//! lower blood pressure and stress, shallow breathing and unconscious
//! breath-holds indicate chronic stress, and clinical patterns alternate
//! fast/slow with pauses. Given the extracted breath signal, this module
//! segments individual breaths, measures their depth and timing, and
//! classifies the pattern.

use crate::series::TimeSeries;
use dsp::zero_crossing::{find_zero_crossings, CrossingDirection};

/// One segmented breath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breath {
    /// Start of inhalation (rising zero crossing), seconds.
    pub start_s: f64,
    /// End of the breath (next rising crossing), seconds.
    pub end_s: f64,
    /// Peak-to-trough excursion of the extracted signal over the breath
    /// (arbitrary displacement units — proportional to physical depth).
    pub depth: f64,
    /// Fraction of the cycle spent above zero (inhalation+early
    /// exhalation); healthy relaxed breathing sits near 0.4–0.5.
    pub inspiratory_fraction: f64,
}

impl Breath {
    /// Breath duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A qualitative classification of the observed pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternClass {
    /// Consistent rate and depth.
    Regular,
    /// Rate varies beyond 25% coefficient of variation.
    IrregularRate,
    /// Depth varies beyond 50% coefficient of variation (e.g.
    /// crescendo–decrescendo envelopes).
    IrregularDepth,
    /// Too few breaths segmented to classify.
    Indeterminate,
}

/// The full pattern analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternAnalysis {
    /// Segmented breaths in time order.
    pub breaths: Vec<Breath>,
    /// Mean breath depth (arbitrary units).
    pub mean_depth: f64,
    /// Coefficient of variation of breath durations.
    pub rate_cv: f64,
    /// Coefficient of variation of breath depths.
    pub depth_cv: f64,
    /// Classification.
    pub class: PatternClass,
}

/// Segments breaths and classifies the pattern from an extracted breath
/// signal (zero-mean, band-limited).
pub fn analyze_pattern(signal: &TimeSeries) -> PatternAnalysis {
    let hysteresis = dsp::stats::rms(signal.values()).unwrap_or(0.0) * 0.3;
    let crossings =
        find_zero_crossings(signal.values(), signal.start_s(), signal.dt_s(), hysteresis);
    let rising: Vec<f64> = crossings
        .iter()
        .filter(|c| c.direction == CrossingDirection::Rising)
        .map(|c| c.time)
        .collect();

    let mut breaths = Vec::new();
    for pair in rising.windows(2) {
        let (start, end) = (pair[0], pair[1]);
        let i0 = ((start - signal.start_s()) / signal.dt_s())
            .floor()
            .max(0.0) as usize;
        let i1 = (((end - signal.start_s()) / signal.dt_s()).ceil() as usize).min(signal.len());
        if i1 <= i0 + 2 {
            continue;
        }
        let window = &signal.values()[i0..i1];
        let max = window.iter().cloned().fold(f64::MIN, f64::max);
        let min = window.iter().cloned().fold(f64::MAX, f64::min);
        let above = window.iter().filter(|&&x| x > 0.0).count();
        breaths.push(Breath {
            start_s: start,
            end_s: end,
            depth: max - min,
            inspiratory_fraction: above as f64 / window.len() as f64,
        });
    }

    let durations: Vec<f64> = breaths.iter().map(Breath::duration_s).collect();
    let depths: Vec<f64> = breaths.iter().map(|b| b.depth).collect();
    let mean_depth = dsp::stats::mean(&depths).unwrap_or(0.0);
    let rate_cv = coefficient_of_variation(&durations);
    let depth_cv = coefficient_of_variation(&depths);
    let class = if breaths.len() < 3 {
        PatternClass::Indeterminate
    } else if rate_cv > 0.25 {
        PatternClass::IrregularRate
    } else if depth_cv > 0.5 {
        PatternClass::IrregularDepth
    } else {
        PatternClass::Regular
    };

    PatternAnalysis {
        breaths,
        mean_depth,
        rate_cv,
        depth_cv,
        class,
    }
}

/// [`analyze_pattern`] observed by `rec`: its trace half gets one
/// `pattern` instant [`obs::TraceEvent`] (class code in `value_a` —
/// 0 regular, 1 irregular rate, 2 irregular depth, 3 indeterminate —
/// breath count in `value_b`, keyed by `user_id`). The analysis itself is
/// identical.
pub fn analyze_pattern_observed(
    signal: &TimeSeries,
    user_id: u64,
    rec: &dyn obs::Recorder,
) -> PatternAnalysis {
    let analysis = analyze_pattern(signal);
    if rec.tracing() {
        let class = match analysis.class {
            PatternClass::Regular => 0.0,
            PatternClass::IrregularRate => 1.0,
            PatternClass::IrregularDepth => 2.0,
            PatternClass::Indeterminate => 3.0,
        };
        let t = if signal.is_empty() {
            0.0
        } else {
            signal.time_at(signal.len() - 1)
        };
        rec.emit(
            obs::TraceEvent::instant("pattern", t)
                .with_user(user_id)
                .with_values(class, analysis.breaths.len() as f64),
        );
    }
    analysis
}

fn coefficient_of_variation(xs: &[f64]) -> f64 {
    match (dsp::stats::mean(xs), dsp::stats::std_dev(xs)) {
        (Some(m), Some(s)) if m.abs() > f64::EPSILON => s / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn series(
        f: impl Fn(f64) -> f64,
        secs: f64,
    ) -> Result<TimeSeries, crate::series::InvalidSeriesError> {
        let dt = 1.0 / 16.0;
        let n = (secs / dt) as usize;
        TimeSeries::new(0.0, dt, (0..n).map(|i| f(i as f64 * dt)).collect())
    }

    #[test]
    fn regular_sine_classifies_regular() -> Result<(), Box<dyn std::error::Error>> {
        let s = series(|t| (2.0 * PI * 0.2 * t).sin(), 120.0)?;
        let p = analyze_pattern(&s);
        assert!(p.breaths.len() >= 20, "{} breaths", p.breaths.len());
        assert_eq!(p.class, PatternClass::Regular);
        assert!(p.rate_cv < 0.05, "rate CV {}", p.rate_cv);
        // All breaths ≈ 5 s, depth ≈ 2.
        for b in &p.breaths {
            assert!((b.duration_s() - 5.0).abs() < 0.3);
            assert!((b.depth - 2.0).abs() < 0.1);
        }
        Ok(())
    }

    #[test]
    fn depth_is_proportional_to_amplitude() -> Result<(), Box<dyn std::error::Error>> {
        let small = analyze_pattern(&series(|t| 0.5 * (2.0 * PI * 0.2 * t).sin(), 60.0)?);
        let large = analyze_pattern(&series(|t| 2.0 * (2.0 * PI * 0.2 * t).sin(), 60.0)?);
        assert!((large.mean_depth / small.mean_depth - 4.0).abs() < 0.2);
        Ok(())
    }

    #[test]
    fn varying_rate_classifies_irregular_rate() -> Result<(), Box<dyn std::error::Error>> {
        // Rate alternates 8 and 20 bpm in 15 s blocks with continuous phase.
        let mut phase = 0.0;
        let dt = 1.0 / 16.0;
        let mut values = Vec::new();
        for i in 0..(120.0 / dt) as usize {
            let t = i as f64 * dt;
            let f = if ((t / 15.0) as usize).is_multiple_of(2) {
                8.0
            } else {
                20.0
            } / 60.0;
            phase += 2.0 * PI * f * dt;
            values.push(phase.sin());
        }
        let s = TimeSeries::new(0.0, dt, values)?;
        let p = analyze_pattern(&s);
        assert_eq!(
            p.class,
            PatternClass::IrregularRate,
            "rate CV {}",
            p.rate_cv
        );
        Ok(())
    }

    #[test]
    fn cheyne_stokes_like_envelope_classifies_irregular_depth(
    ) -> Result<(), Box<dyn std::error::Error>> {
        // Constant rate, amplitude swept 0.2..1.8 over 30 s cycles.
        let s = series(
            |t| {
                let env = 1.0 + 0.8 * (2.0 * PI * t / 30.0).sin();
                env * (2.0 * PI * 0.25 * t).sin()
            },
            120.0,
        )?;
        let p = analyze_pattern(&s);
        assert!(p.depth_cv > 0.3, "depth CV {}", p.depth_cv);
        assert_ne!(p.class, PatternClass::Regular);
        Ok(())
    }

    #[test]
    fn too_short_is_indeterminate() -> Result<(), Box<dyn std::error::Error>> {
        let s = series(|t| (2.0 * PI * 0.2 * t).sin(), 8.0)?;
        let p = analyze_pattern(&s);
        assert_eq!(p.class, PatternClass::Indeterminate);
        Ok(())
    }

    #[test]
    fn inspiratory_fraction_of_symmetric_sine_is_half() -> Result<(), Box<dyn std::error::Error>> {
        let p = analyze_pattern(&series(|t| (2.0 * PI * 0.2 * t).sin(), 60.0)?);
        for b in &p.breaths {
            assert!((b.inspiratory_fraction - 0.5).abs() < 0.1);
        }
        Ok(())
    }

    #[test]
    fn cv_helper_edge_cases() {
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[2.0, 2.0]), 0.0);
        assert!(coefficient_of_variation(&[1.0, 3.0]) > 0.0);
    }
}
