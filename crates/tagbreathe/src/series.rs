//! Uniformly sampled time series — the common currency between pipeline
//! stages.

/// A uniformly sampled scalar time series.
///
/// # Examples
///
/// ```
/// use tagbreathe::series::TimeSeries;
///
/// let ts = TimeSeries::new(10.0, 0.5, vec![1.0, 2.0, 3.0]).unwrap();
/// assert_eq!(ts.time_at(2), 11.0);
/// assert_eq!(ts.duration_s(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    start_s: f64,
    dt_s: f64,
    values: Vec<f64>,
}

/// Error constructing a time series with invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidSeriesError {
    what: &'static str,
}

impl std::fmt::Display for InvalidSeriesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid time series: {}", self.what)
    }
}

impl std::error::Error for InvalidSeriesError {}

impl TimeSeries {
    /// Creates a series starting at `start_s` with sample spacing `dt_s`.
    ///
    /// # Errors
    ///
    /// Returns an error if `dt_s` is not positive/finite or `start_s` is
    /// not finite.
    pub fn new(start_s: f64, dt_s: f64, values: Vec<f64>) -> Result<Self, InvalidSeriesError> {
        if !(dt_s.is_finite() && dt_s > 0.0) {
            return Err(InvalidSeriesError {
                what: "sample spacing must be positive and finite",
            });
        }
        if !start_s.is_finite() {
            return Err(InvalidSeriesError {
                what: "start time must be finite",
            });
        }
        Ok(TimeSeries {
            start_s,
            dt_s,
            values,
        })
    }

    /// Start time, seconds.
    pub fn start_s(&self) -> f64 {
        self.start_s
    }

    /// Sample spacing, seconds.
    pub fn dt_s(&self) -> f64 {
        self.dt_s
    }

    /// Sample rate, hertz.
    pub fn sample_rate_hz(&self) -> f64 {
        1.0 / self.dt_s
    }

    /// The sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Timestamp of sample `index`.
    pub fn time_at(&self, index: usize) -> f64 {
        self.start_s + index as f64 * self.dt_s
    }

    /// Duration covered, seconds (0 for fewer than 2 samples).
    pub fn duration_s(&self) -> f64 {
        if self.values.len() < 2 {
            0.0
        } else {
            (self.values.len() - 1) as f64 * self.dt_s
        }
    }

    /// Returns a copy with the same time base and new values.
    ///
    /// # Panics
    ///
    /// Panics if `values` has a different length.
    pub fn with_values(&self, values: Vec<f64>) -> TimeSeries {
        assert_eq!(
            values.len(),
            self.values.len(),
            "replacement values must have the same length"
        );
        TimeSeries {
            start_s: self.start_s,
            dt_s: self.dt_s,
            values,
        }
    }

    /// Iterates `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (self.time_at(i), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() -> Result<(), InvalidSeriesError> {
        let ts = TimeSeries::new(1.0, 0.25, vec![0.0; 9])?;
        assert_eq!(ts.len(), 9);
        assert!(!ts.is_empty());
        assert_eq!(ts.sample_rate_hz(), 4.0);
        assert_eq!(ts.duration_s(), 2.0);
        assert_eq!(ts.time_at(4), 2.0);
        Ok(())
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(TimeSeries::new(0.0, 0.0, vec![]).is_err());
        assert!(TimeSeries::new(0.0, -1.0, vec![]).is_err());
        assert!(TimeSeries::new(f64::NAN, 1.0, vec![]).is_err());
        assert!(TimeSeries::new(0.0, f64::INFINITY, vec![]).is_err());
    }

    #[test]
    fn empty_series_duration_zero() -> Result<(), InvalidSeriesError> {
        let ts = TimeSeries::new(0.0, 1.0, vec![])?;
        assert!(ts.is_empty());
        assert_eq!(ts.duration_s(), 0.0);
        Ok(())
    }

    #[test]
    fn with_values_preserves_time_base() -> Result<(), InvalidSeriesError> {
        let ts = TimeSeries::new(2.0, 0.5, vec![1.0, 2.0])?;
        let other = ts.with_values(vec![3.0, 4.0]);
        assert_eq!(other.start_s(), 2.0);
        assert_eq!(other.dt_s(), 0.5);
        assert_eq!(other.values(), &[3.0, 4.0]);
        Ok(())
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn with_values_length_mismatch_panics() {
        // A construction failure returns without panicking, which fails the
        // `should_panic` expectation loudly.
        let Ok(ts) = TimeSeries::new(0.0, 1.0, vec![1.0]) else {
            return;
        };
        ts.with_values(vec![1.0, 2.0]);
    }

    #[test]
    fn iter_yields_time_value_pairs() -> Result<(), InvalidSeriesError> {
        let ts = TimeSeries::new(0.0, 2.0, vec![10.0, 20.0])?;
        let pairs: Vec<(f64, f64)> = ts.iter().collect();
        assert_eq!(pairs, vec![(0.0, 10.0), (2.0, 20.0)]);
        Ok(())
    }

    #[test]
    fn error_displays() {
        let err = TimeSeries::new(0.0, 0.0, vec![]).err();
        assert!(err.is_some_and(|e| e.to_string().contains("spacing")));
    }
}
