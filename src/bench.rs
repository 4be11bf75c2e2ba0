//! The reproducible throughput harness behind `coalloc-exp bench`.
//!
//! Trace-driven scheduling studies sweep policies × limits ×
//! utilizations × replications, each a tens-of-thousands-of-jobs run;
//! simulation throughput is the budget every experiment spends. This
//! module measures it the same way every time — fixed seeds, fixed
//! configs, wall-clock around the whole event loop — and appends one
//! `BENCH_<n>.json` per invocation, so the repo accumulates a perf
//! trajectory instead of anecdotes.
//!
//! Methodology (see DESIGN.md for the contract the numbers certify):
//!
//! * One measured run per policy (GS, LS, LP, SC) at seed 2003,
//!   component-size limit 16, offered gross utilization 0.5 — the
//!   workload shape of the paper's Fig 3 sweeps.
//! * An *event* is one iteration of the simulation loop: every arrival
//!   and every departure (each followed by a scheduling pass), i.e.
//!   `arrivals + completed` of the run's outcome.
//! * `reps` repetitions per policy; the **best** wall time is reported
//!   (minimum over reps estimates the noise-free cost; the mean is also
//!   recorded).
//! * Peak RSS is read from `/proc/self/status` (`VmHWM`) after all runs;
//!   on platforms without procfs it is reported as 0.

use std::time::Instant;

use coalloc_core::{PolicyKind, SimBuilder, SimConfig};
use desim::CalendarKind;

/// How large the measured runs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchScale {
    /// CI-sized runs (~seconds total).
    Quick,
    /// Measurement-grade runs (tens of seconds total).
    Full,
}

impl BenchScale {
    /// Arrivals generated per measured run.
    pub fn jobs(self) -> u64 {
        match self {
            BenchScale::Quick => 30_000,
            BenchScale::Full => 150_000,
        }
    }

    /// Repetitions per policy (best wall time wins).
    pub fn reps(self) -> u32 {
        match self {
            BenchScale::Quick => 2,
            BenchScale::Full => 3,
        }
    }

    /// The mode label recorded in the report.
    pub fn label(self) -> &'static str {
        match self {
            BenchScale::Quick => "quick",
            BenchScale::Full => "full",
        }
    }
}

/// Throughput of one policy under the fixed bench config.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct PolicyBench {
    /// Policy label (GS/LS/LP/SC).
    pub policy: String,
    /// Event-calendar label (`heap` or `cq`). Reports from before the
    /// calendar became selectable (BENCH_0/BENCH_1) lack this field;
    /// every run they record used the heap.
    pub calendar: String,
    /// Master seed of every rep.
    pub seed: u64,
    /// Arrivals generated per run.
    pub jobs: u64,
    /// Events processed per run: arrivals + departures.
    pub events: u64,
    /// Best wall time over the reps, in seconds.
    pub best_wall_seconds: f64,
    /// Mean wall time over the reps, in seconds.
    pub mean_wall_seconds: f64,
    /// Throughput at the best wall time.
    pub events_per_sec: f64,
    /// Observation-window mean response (a checksum: must not drift
    /// across perf work at equal seed).
    pub mean_response: f64,
}

/// One `BENCH_<n>.json` record: the full harness output.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct BenchReport {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// `quick` or `full`.
    pub mode: String,
    /// Repetitions per policy.
    pub reps: u32,
    /// Per-policy throughput, in GS/LS/LP/SC order.
    pub results: Vec<PolicyBench>,
    /// Peak resident set size of the whole process, in bytes (0 when
    /// the platform exposes no `/proc/self/status`).
    pub peak_rss_bytes: u64,
}

/// The fixed-seed configuration measured for `policy`: the paper's
/// system at offered gross utilization 0.5, limit 16, seed 2003.
pub fn bench_config(policy: PolicyKind, jobs: u64) -> SimConfig {
    let mut cfg = if policy == PolicyKind::Sc {
        SimConfig::das_single_cluster(0.5)
    } else {
        SimConfig::das(policy, 16, 0.5)
    };
    cfg.total_jobs = jobs;
    cfg.warmup_jobs = jobs / 10;
    cfg.batch_size = (jobs / 50).max(10);
    cfg
}

/// Runs the harness at the given scale over the given calendars, in
/// policy-major order (each policy's calendars are adjacent, so the
/// `mean_response` checksum comparison reads off the report directly).
pub fn run_bench_calendars(scale: BenchScale, calendars: &[CalendarKind]) -> BenchReport {
    let jobs = scale.jobs();
    let reps = scale.reps();
    let mut results = Vec::new();
    for policy in [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Lp, PolicyKind::Sc] {
        for &calendar in calendars {
            let mut cfg = bench_config(policy, jobs);
            cfg.calendar = calendar;
            let mut best = f64::INFINITY;
            let mut total = 0.0;
            let mut events = 0;
            let mut mean_response = 0.0;
            for _ in 0..reps {
                let start = Instant::now();
                let out = SimBuilder::new(&cfg).run();
                let wall = start.elapsed().as_secs_f64();
                events = out.arrivals + out.completed;
                mean_response = out.metrics.mean_response;
                best = best.min(wall);
                total += wall;
            }
            results.push(PolicyBench {
                policy: policy.label().to_string(),
                calendar: calendar.label().to_string(),
                seed: cfg.seed,
                jobs,
                events,
                best_wall_seconds: best,
                mean_wall_seconds: total / f64::from(reps),
                events_per_sec: events as f64 / best,
                mean_response,
            });
        }
    }
    BenchReport {
        schema: "coalloc-bench/1".to_string(),
        mode: scale.label().to_string(),
        reps,
        results,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Peak resident set size of this process in bytes, from
/// `/proc/self/status` (`VmHWM`); 0 where unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// The next free `BENCH_<n>.json` path in `dir`: one past the highest
/// existing index, starting at 0.
pub fn next_bench_path(dir: &std::path::Path) -> std::path::PathBuf {
    let mut next = 0u64;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(n) = name
                .strip_prefix("BENCH_")
                .and_then(|s| s.strip_suffix(".json"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                next = next.max(n + 1);
            }
        }
    }
    dir.join(format!("BENCH_{next}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_configs_are_runnable_and_fixed_seed() {
        for policy in [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Lp, PolicyKind::Sc] {
            let cfg = bench_config(policy, 500);
            assert_eq!(cfg.seed, 2003, "{policy}: bench seeds are pinned");
            let out = SimBuilder::new(&cfg).run();
            assert_eq!(out.arrivals, 500);
        }
    }

    #[test]
    fn bench_path_indexing() {
        let dir = std::env::temp_dir().join(format!("coalloc-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        assert!(next_bench_path(&dir).ends_with("BENCH_0.json"));
        std::fs::write(dir.join("BENCH_0.json"), "{}").expect("write");
        std::fs::write(dir.join("BENCH_7.json"), "{}").expect("write");
        assert!(next_bench_path(&dir).ends_with("BENCH_8.json"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn report_serializes() {
        let report = run_bench_tiny();
        let text = serde_json::to_string_pretty(&report).expect("serializes");
        let back: BenchReport = serde_json::from_str(&text).expect("roundtrips");
        assert_eq!(back.results.len(), 4);
        assert!(back.results.iter().all(|r| r.events_per_sec > 0.0));
    }

    /// A minimal in-test bench run (not a real measurement).
    fn run_bench_tiny() -> BenchReport {
        let mut results = Vec::new();
        for policy in [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Lp, PolicyKind::Sc] {
            let cfg = bench_config(policy, 300);
            let start = Instant::now();
            let out = SimBuilder::new(&cfg).run();
            let wall = start.elapsed().as_secs_f64().max(1e-9);
            results.push(PolicyBench {
                policy: policy.label().to_string(),
                calendar: "heap".to_string(),
                seed: cfg.seed,
                jobs: 300,
                events: out.arrivals + out.completed,
                best_wall_seconds: wall,
                mean_wall_seconds: wall,
                events_per_sec: (out.arrivals + out.completed) as f64 / wall,
                mean_response: out.metrics.mean_response,
            });
        }
        BenchReport {
            schema: "coalloc-bench/1".to_string(),
            mode: "tiny".to_string(),
            reps: 1,
            results,
            peak_rss_bytes: peak_rss_bytes(),
        }
    }
}
