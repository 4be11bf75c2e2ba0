//! `paper-sweep`: the paper's evaluation campaign as a closed batch.
//!
//! One sweep at a time, with no cache and no store: the Fig 3 adaptive
//! sweeps (GS/LS/LP at limit 16, plus SC) over the full-scale grid
//! 0.30–0.85, and Table 3's constant-backlog runs (GS at limits
//! 16/24/32 and SC) between the sweeps for 30 % of the time. Nearly all
//! the time goes to the simulation kernel and the replication
//! queue/pool; the cache, store, serde and serve layers do nothing.
//!
//! The inputs are the paper's, so they are fixed; `--seed` only
//! permutes the order in which sweeps and runs are issued, which must
//! not change any result.

use std::time::{Duration, Instant};

use coalloc::experiments::Scale;
use coalloc::scenario::ScenarioSpec;
use coalloc_core::experiment::{replication_seed, SweepConfig, SweepPoint, WorkerPool};
use coalloc_core::{maximal_utilization, SaturationConfig, SimBuilder, SimConfig};
use desim::RngStream;

use crate::measure::{self, fnv1a, median, tail, Report, FNV_OFFSET};
use crate::trace::Tracer;
use crate::Args;

/// FNV-1a of `serde_json::to_string(&points)` for each Fig 3 sweep, as
/// rendered by this commit (the bytes `coalloc-exp sweep <P> 16 --full
/// --json` prints).
const SWEEP_DIGESTS: [(&str, u64); 4] = [
    ("GS", 0x2150_2b29_5934_f923),
    ("LS", 0xa9af_38f5_16cb_4c05),
    ("LP", 0x5967_d3cf_d7db_f996),
    ("SC", 0xd00d_9100_b542_c044),
];

/// FNV-1a of the Table 3 results (label, then the bits of the maximal
/// gross and net utilization, in label order) at this commit.
const TABLE3_DIGEST: u64 = 0x565b_cb2e_f630_07db;

/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 101;
/// Share of the run spent on Fig 3 sweeps; Table 3 gets the rest.
const SWEEP_SHARE: f64 = 0.7;
/// Floors that keep the medians and the tail meaningful on short runs.
const MIN_SETS: usize = 3;
const MIN_CAMPAIGNS: usize = 21;
/// Untraced/traced set pairs of a traced run, alternated; the tracing
/// overhead is the median of the pairs' differences.
const TRACE_PAIRS: usize = 3;

/// Everything built before the first sweep: the pool and the configs.
struct Setup {
    pool: WorkerPool,
    sweeps: Vec<(&'static str, ScenarioSpec)>,
    sweep_cfg: SweepConfig,
    table3: Vec<(&'static str, SaturationConfig)>,
}

impl Setup {
    fn new(threads: usize) -> Result<Self, String> {
        let pool = WorkerPool::new(threads);
        let mut sweeps = Vec::new();
        for (p, _) in SWEEP_DIGESTS {
            let spec = crate::scenario(p, 16, None, Scale::Full)?;
            sweeps.push((p, spec));
        }
        let mut table3 = Vec::new();
        for (label, limit) in [("GS16", 16), ("GS24", 24), ("GS32", 32)] {
            let mut cfg = SaturationConfig::das_gs(limit);
            cfg.measured_departures = Scale::Full.saturation_departures();
            table3.push((label, cfg));
        }
        let mut sc = SaturationConfig::das_sc();
        sc.measured_departures = Scale::Full.saturation_departures();
        table3.push(("SC", sc));
        Ok(Setup { pool, sweeps, sweep_cfg: Scale::Full.sweep(), table3 })
    }
}

/// What one pass over the four Fig 3 sweeps did.
#[derive(Default)]
struct SetResult {
    wall: Duration,
    executed: u64,
    failed: u64,
    rounds: u64,
    tasks: u64,
    /// `(policy, points)` in policy order.
    points: Vec<(&'static str, Vec<SweepPoint>)>,
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, rng: &mut RngStream) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// Runs the four Fig 3 sweeps in `order`, calling `between` after each
/// with that sweep's wall time. The set's wall time counts the sweeps
/// only.
fn sweep_set(
    setup: &Setup,
    order: &[usize],
    tracer: &Tracer,
    report: &mut Report,
    between: &mut dyn FnMut(Duration, &mut Report),
) -> SetResult {
    let mut res = SetResult::default();
    for &i in order {
        let start = Instant::now();
        let (policy, spec) = &setup.sweeps[i];
        let (points, stats) = tracer.span(&format!("sweep:{policy}"), None, policy, |id| {
            let mut last = Instant::now();
            coalloc_core::sweep_on(&setup.pool, None, spec.make_cfg(), &setup.sweep_cfg, |r| {
                let now = Instant::now();
                tracer.record(&format!("round:{}", r.round), last, now, id, policy);
                last = now;
                res.rounds += 1;
                res.tasks += r.tasks as u64;
                report.check(r.executed + r.cache_hits == r.tasks, || {
                    format!("{policy} round {}: executed + cache_hits != tasks", r.round)
                });
            })
        });
        let wall = start.elapsed();
        res.wall += wall;
        res.executed += stats.executed;
        res.failed += points.iter().map(|p| p.outcome.failures.len() as u64).sum::<u64>();
        res.points.push((policy, points));
        between(wall, report);
    }
    res.points.sort_by_key(|(p, _)| SWEEP_DIGESTS.iter().position(|(q, _)| q == p));
    res
}

fn check_sweeps(set: &SetResult, report: &mut Report) {
    for ((policy, points), (_, want)) in set.points.iter().zip(SWEEP_DIGESTS) {
        let json = serde_json::to_string(points).expect("sweep points serialize");
        let got = fnv1a(FNV_OFFSET, json.as_bytes());
        report.check(got == want, || {
            format!("{policy} sweep points digest {got:#018x}, recorded {want:#018x}")
        });
    }
}

/// One Table 3 campaign; returns its wall time and result digest.
fn table3_campaign(setup: &Setup, order: &[usize], tracer: &Tracer) -> (Duration, u64) {
    let mut results = Vec::new();
    let start = Instant::now();
    for &i in order {
        let (label, cfg) = &setup.table3[i];
        let r = tracer.span(&format!("maxutil:{label}"), None, label, |_| maximal_utilization(cfg));
        results.push((*label, r));
    }
    let wall = start.elapsed();
    results.sort_by_key(|(l, _)| *l);
    let mut h = FNV_OFFSET;
    for (label, r) in &results {
        h = fnv1a(h, label.as_bytes());
        h = fnv1a(h, &r.max_gross_utilization.to_bits().to_le_bytes());
        h = fnv1a(h, &r.max_net_utilization.to_bits().to_le_bytes());
    }
    (wall, h)
}

/// The Table 3 campaigns of a run and what they measured.
#[derive(Default)]
struct Table3 {
    /// Wall time of each untraced campaign, ms.
    ms: Vec<f64>,
    /// Wall time of each traced campaign, ms.
    traced_ms: Vec<f64>,
    runs: u64,
    wall: f64,
}

impl Table3 {
    /// Runs campaigns until `until`, at least one.
    fn run_until(
        &mut self,
        setup: &Setup,
        rng: &mut RngStream,
        until: Instant,
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) {
        loop {
            let order = permutation(setup.table3.len(), rng);
            let quiet = Tracer::new(false);
            let (wall, digest) = table3_campaign(setup, &order, tracer.unwrap_or(&quiet));
            report.check(digest == TABLE3_DIGEST, || {
                format!("Table 3 digest {digest:#018x}, recorded {TABLE3_DIGEST:#018x}")
            });
            let ms = wall.as_secs_f64() * 1e3;
            if tracer.is_some() { &mut self.traced_ms } else { &mut self.ms }.push(ms);
            self.runs += setup.table3.len() as u64;
            self.wall += wall.as_secs_f64();
            report.attempted += setup.table3.len() as u64;
            if Instant::now() >= until {
                break;
            }
        }
    }
}

/// Runs `paper-sweep` (see the module docs).
pub fn run(args: &Args, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let threads = measure::nproc();
    let mut setups = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(Setup::new(threads)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up ran");
    let mut set_rng = RngStream::new(args.seed).labelled("sets");
    let mut t3_rng = RngStream::new(args.seed).labelled("table3");
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();

    // Fig 3 sweep sets, with Table 3 campaigns after each sweep for
    // their share of the time, so both kinds of sample span the whole
    // run. A traced run alternates untraced and traced sets, so the
    // tracing overhead is measured on the same work.
    let mut t3 = Table3::default();
    let t3_per_sweep = (1.0 - SWEEP_SHARE) / SWEEP_SHARE;
    let (mut rates, mut walls) = (Vec::new(), Vec::new());
    let mut last = None;
    while if tracer.enabled() {
        walls.len() < 2 * TRACE_PAIRS
    } else {
        rates.len() < MIN_SETS || start.elapsed() < budget
    } {
        let order = permutation(setup.sweeps.len(), &mut set_rng);
        let traced = tracer.enabled() && walls.len() % 2 == 1;
        let quiet = Tracer::new(false);
        let set_tracer = if traced { tracer } else { &quiet };
        let set = sweep_set(&setup, &order, set_tracer, report, &mut |wall, report| {
            let until = Instant::now() + wall.mul_f64(t3_per_sweep);
            t3.run_until(&setup, &mut t3_rng, until, traced.then_some(tracer), report);
        });
        check_sweeps(&set, report);
        if !traced {
            rates.push(set.executed as f64 / set.wall.as_secs_f64());
        }
        walls.push(set.wall.as_secs_f64());
        report.attempted += set.executed;
        report.failed += set.failed;
        last = Some(set);
    }
    let set = last.expect("at least one sweep set ran");
    while t3.ms.len() < MIN_CAMPAIGNS {
        t3.run_until(&setup, &mut t3_rng, Instant::now(), None, report);
    }

    let (t3_tail, t3_pct, t3_n) = tail(&t3.ms);
    let detail = format!("median of {} sets, {} threads", rates.len(), threads);
    if tracer.enabled() {
        paper_layers(&setup, &set, &walls, tracer, report);
        report.metric("queue.rounds", set.rounds as f64, "count");
        report.metric("queue.executed", set.executed as f64, "count");
        report.metric("queue.tasks_per_round", set.tasks as f64 / set.rounds as f64, "tasks");
        report.note(
            "trace.overhead.table3_p50",
            median(&t3.traced_ms) - median(&t3.ms),
            "ms",
            "traced minus untraced Table 3 campaign median",
        );
    } else {
        report.metric("setup_s", median(&setups), "s");
        report.metric("throughput_per_s", median(&rates), "1/s");
        report.metric("p50_ms", median(&t3.ms), "ms");
        report.metric("tail_ms", t3_tail, "ms");
    }
    report.line("  named figures:".to_string());
    report.note("sweep_reps_per_s", median(&rates), "replications/s", &detail);
    report.note("maxutil_runs_per_s", t3.runs as f64 / t3.wall, "runs/s", "Table 3 runs");
    report.note(
        "table3_campaign_tail_ms",
        t3_tail,
        "ms",
        &format!("p{t3_pct:.1} of {t3_n} campaigns"),
    );
    report.note(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        &format!("{} of {} replications and runs", report.failed, report.attempted),
    );
    Ok(())
}

/// Per-layer figures only a traced paper-sweep can give: the pool's
/// parallel efficiency (every executed replication of the last set
/// re-run alone, serially, against the untraced sets' median wall), the
/// simulated event count, and the tracing overhead over the alternated
/// untraced/traced pairs of `walls`.
fn paper_layers(
    setup: &Setup,
    set: &SetResult,
    walls: &[f64],
    tracer: &Tracer,
    report: &mut Report,
) {
    let mut serial = 0.0;
    let mut events = 0u64;
    tracer.span("pool.serial_rerun", None, "paper-sweep", |_| {
        for (policy, points) in &set.points {
            let spec = &setup.sweeps.iter().find(|(p, _)| p == policy).expect("known policy").1;
            for point in points {
                let template: SimConfig = spec.config(point.target_utilization);
                for (rep, run) in point.outcome.runs.iter().enumerate() {
                    let cfg = template
                        .clone()
                        .with_seed(replication_seed(setup.sweep_cfg.base_seed, rep as u64));
                    let t = Instant::now();
                    let out = SimBuilder::new(&cfg).run();
                    serial += t.elapsed().as_secs_f64();
                    events += out.arrivals + out.completed;
                    report.check(
                        out.metrics.mean_response.to_bits() == run.metrics.mean_response.to_bits(),
                        || {
                            format!(
                                "{policy} u={} rep {rep}: serial re-run differs",
                                point.target_utilization
                            )
                        },
                    );
                }
            }
        }
    });
    let threads = setup.pool.threads() as f64;
    let untraced: Vec<f64> = walls.iter().step_by(2).copied().collect();
    report.metric("pool.efficiency", serial / (threads * median(&untraced)), "ratio");
    report.metric("sim.events", events as f64, "count");
    let pairs: Vec<f64> = walls.chunks_exact(2).map(|p| (p[1] - p[0]) * 1e3).collect();
    report.note(
        "trace.overhead.sweep_set",
        median(&pairs),
        "ms",
        &format!("median over {} pairs of traced minus untraced Fig 3 set wall", pairs.len()),
    );
}
