//! Apnea (breathing-pause) detection.
//!
//! The paper's motivating scenarios — newborn monitoring, chronic-stress
//! breath-holds — need pause detection, not just a rate. Breathing effort
//! is the short-window RMS of the extracted breath signal; an episode is a
//! contiguous stretch where effort drops below a fraction of the
//! whole-capture effort.

use crate::series::TimeSeries;

/// A detected apnea episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApneaEpisode {
    /// Episode start, seconds.
    pub start_s: f64,
    /// Episode end, seconds.
    pub end_s: f64,
}

impl ApneaEpisode {
    /// Episode length in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Apnea detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApneaConfig {
    /// RMS window, seconds.
    pub window_s: f64,
    /// Alarm threshold as a fraction of the whole-capture RMS.
    pub threshold_fraction: f64,
    /// Minimum episode length to report, seconds (clinical apnea is
    /// usually defined as ≥ 10 s; we default to 5 s for responsiveness).
    pub min_duration_s: f64,
}

impl ApneaConfig {
    /// Reasonable defaults: 4 s window, 35% threshold, 5 s minimum.
    pub fn default_config() -> Self {
        ApneaConfig {
            window_s: 4.0,
            threshold_fraction: 0.35,
            min_duration_s: 5.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message for non-positive windows/durations or a threshold
    /// outside `(0, 1)`.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.window_s.is_nan() || self.window_s <= 0.0 {
            return Err("apnea RMS window must be positive");
        }
        if !(self.threshold_fraction > 0.0 && self.threshold_fraction < 1.0) {
            return Err("apnea threshold must be in (0, 1)");
        }
        if self.min_duration_s.is_nan() || self.min_duration_s < 0.0 {
            return Err("minimum episode duration must be non-negative");
        }
        Ok(())
    }
}

impl Default for ApneaConfig {
    fn default() -> Self {
        Self::default_config()
    }
}

/// Detects apnea episodes in an extracted breath signal.
///
/// Returns episodes in time order. A capture that is entirely apnea (or
/// entirely noise-free silence) yields one episode spanning it.
///
/// # Errors
///
/// Returns the [`ApneaConfig::validate`] message if `config` is invalid.
pub fn detect_apnea(
    signal: &TimeSeries,
    config: &ApneaConfig,
) -> Result<Vec<ApneaEpisode>, &'static str> {
    config.validate()?;
    let n = signal.len();
    let win = ((config.window_s / signal.dt_s()) as usize).max(1);
    if n < win * 2 {
        return Ok(Vec::new());
    }
    let values = signal.values();
    let global_rms = dsp::stats::rms(values).unwrap_or(0.0);
    if global_rms <= 0.0 {
        return Ok(vec![ApneaEpisode {
            start_s: signal.start_s(),
            end_s: signal.time_at(n - 1),
        }]);
    }
    let threshold = global_rms * config.threshold_fraction;

    // Sliding RMS via prefix sums of squares.
    let mut prefix = Vec::with_capacity(n + 1);
    let mut sum = 0.0;
    prefix.push(0.0);
    for &x in values {
        sum += x * x;
        prefix.push(sum);
    }
    let rms_at = |i: usize| {
        let lo = i.saturating_sub(win / 2);
        let hi = (i + win / 2 + 1).min(n);
        ((prefix[hi] - prefix[lo]) / (hi - lo) as f64).sqrt()
    };

    let mut episodes = Vec::new();
    let mut start: Option<usize> = None;
    for i in 0..n {
        let low = rms_at(i) < threshold;
        match (low, start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                push_episode(signal, config, &mut episodes, s, i);
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        push_episode(signal, config, &mut episodes, s, n);
    }
    Ok(episodes)
}

fn push_episode(
    signal: &TimeSeries,
    config: &ApneaConfig,
    episodes: &mut Vec<ApneaEpisode>,
    start_idx: usize,
    end_idx: usize,
) {
    let start_s = signal.time_at(start_idx);
    let end_s = signal.time_at(end_idx.saturating_sub(1).max(start_idx));
    if end_s - start_s >= config.min_duration_s {
        episodes.push(ApneaEpisode { start_s, end_s });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    /// 0–30 s breathing, 30–45 s apnea, 45–90 s breathing.
    fn apnea_signal() -> Option<TimeSeries> {
        let dt = 1.0 / 16.0;
        let n = (90.0 / dt) as usize;
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                if (30.0..45.0).contains(&t) {
                    0.0
                } else {
                    (2.0 * PI * 0.25 * t).sin()
                }
            })
            .collect();
        TimeSeries::new(0.0, dt, values).ok()
    }

    #[test]
    fn detects_single_episode_with_correct_bounds() -> TestResult {
        let signal = apnea_signal().ok_or("signal")?;
        let episodes = detect_apnea(&signal, &ApneaConfig::default_config())?;
        assert_eq!(episodes.len(), 1, "{episodes:?}");
        let e = *episodes.first().ok_or("no episode")?;
        assert!((e.start_s - 30.0).abs() < 3.0, "start {}", e.start_s);
        assert!((e.end_s - 45.0).abs() < 3.0, "end {}", e.end_s);
        assert!(e.duration_s() > 8.0);
        Ok(())
    }

    #[test]
    fn continuous_breathing_has_no_episodes() -> TestResult {
        let dt = 1.0 / 16.0;
        let values: Vec<f64> = (0..(90.0 / dt) as usize)
            .map(|i| (2.0 * PI * 0.2 * i as f64 * dt).sin())
            .collect();
        let s = TimeSeries::new(0.0, dt, values)?;
        assert!(detect_apnea(&s, &ApneaConfig::default_config())?.is_empty());
        Ok(())
    }

    #[test]
    fn all_flat_signal_is_one_long_episode() -> TestResult {
        let s = TimeSeries::new(0.0, 1.0 / 16.0, vec![0.0; 1600])?;
        let episodes = detect_apnea(&s, &ApneaConfig::default_config())?;
        assert_eq!(episodes.len(), 1);
        assert!(episodes.first().ok_or("no episode")?.duration_s() > 90.0);
        Ok(())
    }

    #[test]
    fn short_pauses_are_filtered_by_min_duration() -> TestResult {
        // A 2 s dip must not be reported with min_duration 5 s.
        let dt = 1.0 / 16.0;
        let values: Vec<f64> = (0..(60.0 / dt) as usize)
            .map(|i| {
                let t = i as f64 * dt;
                if (30.0..32.0).contains(&t) {
                    0.0
                } else {
                    (2.0 * PI * 0.25 * t).sin()
                }
            })
            .collect();
        let s = TimeSeries::new(0.0, dt, values)?;
        assert!(detect_apnea(&s, &ApneaConfig::default_config())?.is_empty());
        Ok(())
    }

    #[test]
    fn repeated_episodes_are_all_found() -> TestResult {
        // Apnea at 20–30, 50–60, 80–90 within 100 s.
        let dt = 1.0 / 16.0;
        let values: Vec<f64> = (0..(100.0 / dt) as usize)
            .map(|i| {
                let t = i as f64 * dt;
                let apnea = (20.0..30.0).contains(&t)
                    || (50.0..60.0).contains(&t)
                    || (80.0..90.0).contains(&t);
                if apnea {
                    0.0
                } else {
                    (2.0 * PI * 0.3 * t).sin()
                }
            })
            .collect();
        let s = TimeSeries::new(0.0, dt, values)?;
        let episodes = detect_apnea(&s, &ApneaConfig::default_config())?;
        assert_eq!(episodes.len(), 3, "{episodes:?}");
        Ok(())
    }

    #[test]
    fn too_short_signal_yields_nothing() -> TestResult {
        let s = TimeSeries::new(0.0, 1.0 / 16.0, vec![1.0; 10])?;
        assert!(detect_apnea(&s, &ApneaConfig::default_config())?.is_empty());
        Ok(())
    }

    #[test]
    fn config_validation() {
        assert!(ApneaConfig::default_config().validate().is_ok());
        let mut c = ApneaConfig::default_config();
        c.window_s = 0.0;
        assert!(c.validate().is_err());
        let mut c = ApneaConfig::default_config();
        c.threshold_fraction = 1.5;
        assert!(c.validate().is_err());
        let mut c = ApneaConfig::default_config();
        c.min_duration_s = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn invalid_config_is_an_error_in_detect() -> TestResult {
        let s = apnea_signal().ok_or("signal")?;
        let mut c = ApneaConfig::default_config();
        c.threshold_fraction = 0.0;
        assert!(detect_apnea(&s, &c).is_err());
        Ok(())
    }
}
