//! Small shared pieces: order statistics, the result line, correctness checks, memory.

use std::fmt::Write as _;
use std::time::Instant;

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (`NaN` when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Splits `values` (in time order) into up to ten consecutive groups of at least ten and
/// applies `stat` to each group.
pub fn per_group(values: &[f64], stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let groups = (values.len() / 10).clamp(1, 10);
    let size = values.len().div_ceil(groups).max(1);
    values.chunks(size).map(stat).collect()
}

/// The fast quartile of per-group latency statistics: the lower quartile over groups of
/// `q`-quantiles. On a shared host, episodes in which other tenants halve the speed cover
/// parts of some runs; they only ever slow a group, so the faster groups are the steadier
/// estimate of the program's own speed. An episode covering the whole run still shows.
pub fn fast_latency(latency: &[f64], q: f64) -> f64 {
    quantile(&per_group(latency, |group| quantile(group, q)), 0.25)
}

/// The fast quartile of per-group rates, the counterpart of [`fast_latency`]: the upper
/// quartile over groups of `work / time`, with `work` units per latency sample.
pub fn fast_rate(latency: &[f64], work: f64) -> f64 {
    quantile(
        &per_group(latency, |group| work * group.len() as f64 / group.iter().sum::<f64>()),
        0.75,
    )
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Starts the window [`peak_rss_mb`] reports on: returns the heap pages set-up freed to
/// the OS, then resets the peak resident set to the current one. What set-up leaves behind
/// free depends on how often the seed's graph build restarted, which moves the process
/// peak by a quarter between seeds; what stays live (the instance, the server's cache)
/// still counts.
pub fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes a plain integer, touches no caller memory and
    // only hands free heap pages back to the OS.
    unsafe {
        malloc_trim(0);
    }
    // Without the file (not Linux) the peak covers the whole process instead.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// Correctness checks of one run: every check is printed, a failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
    passed: usize,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.passed += 1;
            println!("check ok: {what}");
        } else {
            println!("CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }

    /// Whether every recorded check passed.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The run's result: the metrics in print order plus the attempted/failed counts.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (trials or jobs) attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (budget exhausted, job failed, refused).
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints a human-readable table, then the single-line JSON result.
    pub fn print(&self, checks: &Checks) {
        println!("{:<44} {:>16}  unit", "metric", "value");
        for (name, value, unit) in &self.metrics {
            println!("{name:<44} {value:>16.6}  {unit}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            checks.all_passed(),
            self.attempted.max(1),
            self.failed
        );
        for (index, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if index == 0 { "" } else { ", " };
            // JSON has no NaN/inf; an unmeasurable value is printed as null.
            let value = if value.is_finite() { format!("{value:?}") } else { "null".into() };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert!(median(&[]).is_nan());
        // Slow episodes in a few groups leave the fast quartile where it was.
        let mut latency = vec![1.0; 100];
        latency[..30].iter_mut().for_each(|l| *l = 5.0);
        assert_eq!(fast_latency(&latency, 0.99), 1.0);
        assert_eq!(fast_rate(&latency, 2.0), 2.0);
    }
}
