//! Order statistics, `/proc` readers and Prometheus-text helpers.

use std::time::Duration;

/// Samples a percentile must leave beyond it before it may be printed.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// Whether `n` samples support quantile `q`: at least
/// [`MIN_SAMPLES_BEYOND`] of them must lie above it.
pub fn supports(n: usize, q: f64) -> bool {
    // The tolerance absorbs rounding in `1 - q` (100 × (1 − 0.9) is a
    // hair below 10).
    n as f64 * (1.0 - q) >= MIN_SAMPLES_BEYOND - 1e-9
}

/// Nearest-rank quantile of unsorted `values` (`None` when empty).
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted.get(rank.min(sorted.len()) - 1).copied()
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linux `USER_HZ`: the unit of the CPU-time fields in `/proc/*/stat`.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// user + system CPU seconds from a `/proc/<pid>/stat` line.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    // The command name may hold spaces or parentheses; fields resume
    // after the last ')'. utime and stime are fields 14 and 15, i.e.
    // the 12th and 13th after the name.
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

fn read_cpu_s(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_stat_cpu_s(&text).ok_or_else(|| format!("cannot parse {path}"))
}

/// CPU seconds the whole process has used.
pub fn process_cpu_s() -> Result<f64, String> {
    read_cpu_s("/proc/self/stat")
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> Result<f64, String> {
    read_cpu_s("/proc/thread-self/stat")
}

/// A `VmXxx:` field of `/proc/self/status`, in MB.
pub fn vm_mb(field: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_status_kb(&text, field)
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("/proc/self/status has no {field}"))
}

/// The kB value of `field` (e.g. `VmHWM`) in `/proc/self/status` text.
pub fn parse_status_kb(status: &str, field: &str) -> Option<f64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Server CPU per accepted report: the process's CPU over the measured
/// phase minus what the load threads spent themselves, in microseconds.
pub fn server_cpu_us_per_report(process_s: f64, load_threads_s: &[f64], reports: u64) -> f64 {
    let load: f64 = load_threads_s.iter().sum();
    (process_s - load).max(0.0) * 1e6 / reports.max(1) as f64
}

/// Sums every sample of metric `name`, across labels, in a Prometheus
/// text exposition (the body `/metrics` serves).
pub fn prom_sum(body: &str, name: &str) -> f64 {
    body.lines()
        .filter(|line| {
            line.strip_prefix(name)
                .is_some_and(|after| after.starts_with(' ') || after.starts_with('{'))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn cpu_subtraction_removes_load_threads() {
        // 4 s of process CPU, of which the two load threads used 1.5 s:
        // 2.5 s of server CPU over 1M reports is 2.5 us each.
        let us = server_cpu_us_per_report(4.0, &[1.0, 0.5], 1_000_000);
        assert!((us - 2.5).abs() < 1e-12, "{us}");
        // Never negative, never divides by zero.
        assert_eq!(server_cpu_us_per_report(1.0, &[2.0], 0), 0.0);
    }

    #[test]
    fn stat_and_status_parsing() {
        let stat = "4242 (per (f) bench) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.0));
        let status = "Name:\tperfbench\nVmHWM:\t  20480 kB\nVmRSS:\t  10240 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(20480.0));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(10240.0));
        assert_eq!(parse_status_kb(status, "VmPeak"), None);
        assert!(process_cpu_s().is_ok() && thread_cpu_s().is_ok() && vm_mb("VmRSS").is_ok());
    }

    #[test]
    fn prometheus_sums_across_labels() {
        let body = "# TYPE x counter\nx{reader=\"1\"} 3\nx{reader=\"2\"} 4\nx_total 9\nx 1\n";
        assert_eq!(prom_sum(body, "x"), 8.0);
        assert_eq!(prom_sum(body, "x_total"), 9.0);
        assert_eq!(prom_sum(body, "y"), 0.0);
    }
}
