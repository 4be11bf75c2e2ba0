//! Result bookkeeping shared by every workload: the report printed at
//! the end, order statistics, and process-level probes.

use std::fmt::Write as _;

/// What one benchmark run found.
#[derive(Default)]
pub struct Report {
    /// Correctness checks that failed, in the order they ran.
    failures: Vec<String>,
    /// Operations attempted (requests, or replications plus runs).
    pub attempted: u64,
    /// Operations that ended in an error, a timeout, or a cancellation,
    /// plus failed replications.
    pub failed: u64,
    /// Gate metrics for the final JSON line: name, value, unit.
    metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the JSON line.
    lines: Vec<String>,
}

impl Report {
    /// Records one correctness check; a failure fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("check failed: {what}");
            self.failures.push(what);
        }
    }

    /// Adds a metric to the JSON line and echoes it on a human line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.note(name, value, unit, "");
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    /// Whether a metric of this name was recorded.
    pub fn has_metric(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _, _)| n == name)
    }

    /// A human-readable figure that is not itself a gate metric.
    pub fn note(&mut self, name: &str, value: f64, unit: &str, detail: &str) {
        self.lines.push(format!("  {name:<34} {value:>14.4} {unit:<14} {detail}"));
    }

    /// A free-form human-readable line.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Prints the human lines, then the JSON result as the last line.
    pub fn print(&self, workload: &str, traced: bool) {
        println!("workload {workload} ({})", if traced { "traced" } else { "untraced" });
        for l in &self.lines {
            println!("{l}");
        }
        let mut json = String::new();
        let correct = self.failures.is_empty();
        let _ = write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        println!("{json}");
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a latency sample: the highest order statistic with at
/// least ten samples beyond it. Returns `(value, percentile, samples)`;
/// with ten samples or fewer the maximum stands in (percentile 100).
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, 0.0, 0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0, n);
    }
    let k = n - 11;
    (v[k], 100.0 * (k + 1) as f64 / n as f64, n)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over `bytes`, continuing from `h` (start with [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Worker threads of the benchmark's pools: one per core, as the CLI
/// defaults to.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, pct, n) = tail(&xs);
        assert_eq!((v, n), (90.0, 100));
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
