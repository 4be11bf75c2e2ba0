//! Per-layer rows of the traced run: microbenchmarks of single layers
//! (ported from `crates/bench/benches`, plus the cache, store and serde
//! rows), and the per-policy figures of the BENCH_2 configuration under
//! the benchmark's own [`SimObserver`].
//!
//! Every row is a median over repetitions of a fixed amount of work, so
//! a row moves when its layer does. Rows a workload's traced run does
//! not observe itself (serve rows on paper-sweep, sweep rows on the
//! serve workloads) read 0 and are labelled so.

use std::hint::black_box;
use std::time::Instant;

use coalloc::experiments::Scale;
use coalloc_core::experiment::{ResultStore, ScenarioCache, WorkerPool};
use coalloc_core::job::{ActiveJob, JobId};
use coalloc_core::{
    maximal_utilization, place_unordered, InvariantAuditor, NullObserver, PassTrigger,
    PlacementDecision, PlacementRule, PolicyKind, SaturationConfig, SimBuilder, SimConfig,
    SimObserver,
};
use coalloc_workload::arrival::ArrivalProcess;
use coalloc_workload::Workload;
use desim::stats::{BatchMeans, Welford};
use desim::{
    CalendarQueue, Event, EventCalendar, EventId, Exponential, HeapCalendar, RngStream, SimTime,
    Variate,
};

use crate::measure::{self, median, Report};
use crate::trace::{work_dir, Tracer};

/// Every per-layer metric and its unit, in `BENCHMARK.json` order.
const PER_LAYER: &[(&str, &str)] = &[
    ("calendar.hold_ns.heap.64", "ns"),
    ("calendar.hold_ns.heap.1k", "ns"),
    ("calendar.hold_ns.heap.16k", "ns"),
    ("calendar.hold_ns.cq.64", "ns"),
    ("calendar.hold_ns.cq.1k", "ns"),
    ("calendar.hold_ns.cq.16k", "ns"),
    ("workload.sample_ns", "ns"),
    ("placement.unordered_ns", "ns"),
    ("placement.fail_ratio", "ratio"),
    ("policy.pass_us.GS", "us"),
    ("policy.pass_us.LS", "us"),
    ("policy.pass_us.LP", "us"),
    ("policy.pass_us.SC", "us"),
    ("policy.passes.GS", "count"),
    ("policy.passes.LS", "count"),
    ("policy.passes.LP", "count"),
    ("policy.passes.SC", "count"),
    ("policy.starts_per_pass.GS", "jobs"),
    ("policy.starts_per_pass.LS", "jobs"),
    ("policy.starts_per_pass.LP", "jobs"),
    ("policy.starts_per_pass.SC", "jobs"),
    ("policy.disabled_skips.GS", "count"),
    ("policy.disabled_skips.LS", "count"),
    ("policy.disabled_skips.LP", "count"),
    ("policy.disabled_skips.SC", "count"),
    ("sim.events_per_s.GS", "1/s"),
    ("sim.events_per_s.LS", "1/s"),
    ("sim.events_per_s.LP", "1/s"),
    ("sim.events_per_s.SC", "1/s"),
    ("sim.events", "count"),
    ("ext.overhead_ratio.network", "ratio"),
    ("ext.overhead_ratio.faults", "ratio"),
    ("ext.overhead_ratio.easy", "ratio"),
    ("ext.overhead_ratio.malleable", "ratio"),
    ("audit.overhead_ratio", "ratio"),
    ("stats.welford_ns", "ns"),
    ("stats.batch_means_ns", "ns"),
    ("maxutil.departures_per_s", "1/s"),
    ("queue.rounds", "count"),
    ("queue.executed", "count"),
    ("queue.tasks_per_round", "tasks"),
    ("pool.efficiency", "ratio"),
    ("cache.claim_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.disk_hit_ratio", "ratio"),
    ("cache.dedup_ratio", "ratio"),
    ("store.append_us", "us"),
    ("store.get_us", "us"),
    ("store.open_ms", "ms"),
    ("store.bytes_per_record", "bytes"),
    ("serde.points_us", "us"),
    ("serde.result_bytes", "bytes"),
    ("serde.record_parse_us", "us"),
    ("serve.first_round_ms", "ms"),
    ("serve.rounds_per_request", "rounds"),
    ("serve.generator_late_ms", "ms"),
];

/// BENCH_2's `mean_response` per policy (seed 2003, limit 16, offered
/// gross utilization 0.5, 150 000 jobs, heap calendar): the
/// `sim.events_per_s` rows must reproduce it bit for bit.
const BENCH_2: [(PolicyKind, f64); 4] = [
    (PolicyKind::Gs, 798.866_402_832_436_7),
    (PolicyKind::Ls, 769.060_093_573_537_6),
    (PolicyKind::Lp, 837.154_212_911_099_5),
    (PolicyKind::Sc, 592.007_341_713_864_1),
];

/// Repetitions of each microbenchmark; the median is reported.
const REPS: usize = 7;

/// Median wall time of `reps` runs of `f`, in nanoseconds.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// The classic hold model: `n` pending events; pop the earliest and
/// insert one at a random future offset, `ops` times.
fn hold<C: EventCalendar<u64>>(cal: &mut C, n: usize, ops: usize) -> f64 {
    let mut rng = RngStream::new(7);
    let exp = Exponential::with_mean(100.0);
    let mut next = 0u64;
    let mut now = 0.0;
    let push = |cal: &mut C, t: f64, next: &mut u64| {
        cal.insert(Event { time: SimTime::new(t), id: EventId::from_raw(*next), payload: *next });
        *next += 1;
    };
    for _ in 0..n {
        let t = now + exp.sample(&mut rng);
        push(cal, t, &mut next);
    }
    for _ in 0..ops {
        let ev = cal.pop().expect("hold model never empties");
        now = ev.time.seconds();
        let t = now + exp.sample(&mut rng);
        push(cal, t, &mut next);
    }
    now
}

fn calendar_rows(report: &mut Report) {
    const OPS: usize = 20_000;
    for (label, n) in [("64", 64usize), ("1k", 1024), ("16k", 16_384)] {
        let heap = time_ns(REPS, || {
            black_box(hold(&mut HeapCalendar::new(), n, OPS));
        });
        let cq = time_ns(REPS, || {
            black_box(hold(&mut CalendarQueue::new(), n, OPS));
        });
        // The fill is part of each sample; it is n inserts against
        // 20 000 holds, the same for both calendars.
        report.metric(&format!("calendar.hold_ns.heap.{label}"), heap / OPS as f64, "ns");
        report.metric(&format!("calendar.hold_ns.cq.{label}"), cq / OPS as f64, "ns");
    }
}

fn workload_rows(report: &mut Report) {
    const JOBS: usize = 20_000;
    let w = Workload::das(16);
    let arrivals = ArrivalProcess::new(0.01);
    let ns = time_ns(REPS, || {
        let (mut s, mut t, mut a) = (RngStream::new(1), RngStream::new(2), RngStream::new(3));
        let mut acc = 0.0;
        for _ in 0..JOBS {
            let job = w.sample(&mut s, &mut t);
            acc += f64::from(job.request.total()) + arrivals.next_gap(&mut a).seconds();
        }
        black_box(acc);
    });
    report.metric("workload.sample_ns", ns / JOBS as f64, "ns");

    let mut rng = RngStream::new(42);
    let states: Vec<[u32; 4]> =
        (0..1_000).map(|_| std::array::from_fn(|_| rng.index(33) as u32)).collect();
    let requests: [&[u32]; 5] = [&[16, 16, 16, 16], &[22, 21, 21], &[32, 32], &[8], &[30, 17]];
    let ns = time_ns(REPS, || {
        let mut fits = 0usize;
        for idle in &states {
            for req in requests {
                fits += usize::from(place_unordered(idle, req, PlacementRule::WorstFit).is_some());
            }
        }
        black_box(fits);
    });
    report.metric("placement.unordered_ns", ns / (states.len() * requests.len()) as f64, "ns");

    let mut rng = RngStream::new(11);
    let xs: Vec<f64> = (0..100_000).map(|_| rng.uniform() * 1e4).collect();
    let ns = time_ns(REPS, || {
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        black_box(w.variance());
    });
    report.metric("stats.welford_ns", ns / xs.len() as f64, "ns");
    let ns = time_ns(REPS, || {
        let mut bm = BatchMeans::new(500);
        for &x in &xs {
            bm.add(x);
        }
        black_box(bm.estimate().mean);
    });
    report.metric("stats.batch_means_ns", ns / xs.len() as f64, "ns");
}

/// BENCH_2's configuration for one policy.
fn bench2_config(policy: PolicyKind) -> SimConfig {
    const JOBS: u64 = 150_000;
    let mut cfg = if policy == PolicyKind::Sc {
        SimConfig::das_single_cluster(0.5)
    } else {
        SimConfig::das(policy, 16, 0.5)
    };
    cfg.total_jobs = JOBS;
    cfg.warmup_jobs = JOBS / 10;
    cfg.batch_size = (JOBS / 50).max(10);
    cfg
}

/// The benchmark's observer: counts and times what each layer does.
#[derive(Default)]
struct LayerObserver {
    arrivals: u64,
    completions: u64,
    passes: u64,
    starts: u64,
    placements: u64,
    disabled: u64,
    pass_started: Option<Instant>,
    pass_ns: Vec<f64>,
}

impl SimObserver for LayerObserver {
    fn on_arrival(&mut self, _: SimTime, _: JobId, _: &ActiveJob) {
        self.arrivals += 1;
    }
    fn on_completion(&mut self, _: SimTime, _: JobId, _: &ActiveJob) {
        self.completions += 1;
    }
    fn on_pass(&mut self, _: SimTime, _: PassTrigger) {
        self.pass_started = Some(Instant::now());
    }
    fn on_pass_end(&mut self, _: SimTime, started: &[JobId]) {
        if let Some(t) = self.pass_started.take() {
            self.pass_ns.push(t.elapsed().as_nanos() as f64);
        }
        self.passes += 1;
        self.starts += started.len() as u64;
    }
    fn on_queue_disabled(&mut self, _: SimTime, _: coalloc_core::SubmitQueue) {
        self.disabled += 1;
    }
    fn on_placement(&mut self, _: SimTime, _: &PlacementDecision<'_>) {
        self.placements += 1;
    }
}

fn policy_rows(tracer: &Tracer, parent: Option<usize>, report: &mut Report) {
    let (mut placed, mut failed) = (0u64, 0u64);
    for (policy, want) in BENCH_2 {
        let p = policy.label();
        let cfg = bench2_config(policy);
        let mut best = f64::INFINITY;
        let mut events = 0;
        for _ in 0..3 {
            let t = Instant::now();
            let out = tracer.span(&format!("sim:{p}"), parent, p, |_| SimBuilder::new(&cfg).run());
            best = best.min(t.elapsed().as_secs_f64());
            events = out.arrivals + out.completed;
            report.check(out.metrics.mean_response.to_bits() == want.to_bits(), || {
                format!("{p}: mean_response {} is not BENCH_2's {want}", out.metrics.mean_response)
            });
        }
        report.metric(&format!("sim.events_per_s.{p}"), events as f64 / best, "1/s");

        let mut obs = LayerObserver::default();
        let out = tracer.span(&format!("policy:{p}"), parent, p, |_| {
            SimBuilder::new(&cfg).run_observed(&mut obs)
        });
        report.check(obs.arrivals + obs.completions == out.arrivals + out.completed, || {
            format!(
                "{p}: observer counted {} arrivals + departures, the outcome {}",
                obs.arrivals + obs.completions,
                out.arrivals + out.completed
            )
        });
        report.check(out.metrics.mean_response.to_bits() == want.to_bits(), || {
            format!("{p}: observed run changed mean_response")
        });
        report.metric(&format!("policy.pass_us.{p}"), median(&obs.pass_ns) / 1e3, "us");
        report.metric(&format!("policy.passes.{p}"), obs.passes as f64, "count");
        let per_pass = obs.starts as f64 / obs.passes.max(1) as f64;
        report.metric(&format!("policy.starts_per_pass.{p}"), per_pass, "jobs");
        report.metric(&format!("policy.disabled_skips.{p}"), obs.disabled as f64, "count");
        placed += obs.placements;
        failed += obs.disabled;
    }
    report.metric("placement.fail_ratio", failed as f64 / (placed + failed).max(1) as f64, "ratio");
}

/// One quick-scale replication of GS at limit 16 and utilization 0.5,
/// with at most one extension axis.
fn quick_config(axis: Option<(&str, &str)>) -> SimConfig {
    crate::scenario("GS", 16, axis, Scale::Quick)
        .expect("the benchmark's scenarios parse")
        .config(0.5)
}

/// Median ratio of `a`'s wall time to `b`'s, measured in alternation.
fn ratio(mut a: impl FnMut(), mut b: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            a();
            let ta = t.elapsed().as_secs_f64();
            let t = Instant::now();
            b();
            ta / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn extension_rows(report: &mut Report) {
    let base = quick_config(None);
    for (label, field, value) in crate::EXTENSION_AXES {
        let cfg = quick_config(Some((field, value)));
        let r = ratio(
            || {
                black_box(SimBuilder::new(&cfg).run());
            },
            || {
                black_box(SimBuilder::new(&base).run());
            },
        );
        report.metric(&format!("ext.overhead_ratio.{label}"), r, "ratio");
    }
    let mut clean = true;
    let r = ratio(
        || {
            let mut audit = InvariantAuditor::new(&base);
            black_box(SimBuilder::new(&base).run_observed(&mut audit));
            clean &= audit.is_clean();
        },
        || {
            black_box(SimBuilder::new(&base).run_observed(&mut NullObserver));
        },
    );
    report.check(clean, || "the invariant auditor found violations".to_string());
    report.metric("audit.overhead_ratio", r, "ratio");

    let mut cfg = SaturationConfig::das_gs(16);
    cfg.measured_departures = Scale::Full.saturation_departures();
    let t = Instant::now();
    let r = maximal_utilization(&cfg);
    let per_s = (r.departures + cfg.warmup_departures) as f64 / t.elapsed().as_secs_f64();
    report.metric("maxutil.departures_per_s", per_s, "1/s");
}

fn cache_store_serde_rows(report: &mut Report) -> Result<(), String> {
    // One real quick-scale result: three points, three replications.
    let pool = WorkerPool::new(measure::nproc());
    let spec = crate::scenario("GS", 16, None, Scale::Quick)?;
    let mut sweep = Scale::Quick.sweep();
    sweep.utilizations = vec![0.4, 0.5, 0.6];
    sweep.min_replications = 3;
    sweep.max_replications = 3;
    let (points, _) = coalloc_core::sweep_on(&pool, None, spec.make_cfg(), &sweep, |_| {});
    let outcome = points[0].outcome.runs[0].clone();

    let mut bytes = 0;
    let ns = time_ns(REPS * 3, || {
        bytes = serde_json::to_string(black_box(&points)).expect("points serialize").len();
    });
    report.metric("serde.points_us", ns / 1e3, "us");
    report.metric("serde.result_bytes", bytes as f64, "bytes");

    const KEYS: u64 = 2_000;
    let ns = time_ns(REPS, || {
        let cache = ScenarioCache::new();
        for k in 0..KEYS {
            if let coalloc_core::experiment::cache::Claim::Reserved(r) = cache.claim(k, 2003, 0) {
                r.fulfil(Ok(outcome.clone()));
            }
        }
        black_box(cache.entries());
    });
    report.metric("cache.claim_ns", ns / KEYS as f64, "ns");

    const RECORDS: u64 = 400;
    let dir = work_dir().join("layers");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let t = Instant::now();
    for k in 0..RECORDS {
        store.append(k, 2003, 0, &Ok(outcome.clone()));
    }
    report.metric("store.append_us", t.elapsed().as_secs_f64() * 1e6 / RECORDS as f64, "us");
    drop(store);
    let on_disk: u64 = std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    report.metric("store.bytes_per_record", on_disk as f64 / RECORDS as f64, "bytes");
    let mut store = None;
    let ns = time_ns(REPS, || store = Some(ResultStore::open(&dir).expect("store reopens")));
    let store = store.expect("opened");
    report.check(store.len() == RECORDS as usize, || {
        format!("reopened store holds {} records, wrote {RECORDS}", store.len())
    });
    report.metric("store.open_ms", ns / 1e6, "ms");
    let mut found = 0;
    let ns = time_ns(REPS, || {
        found = (0..RECORDS).filter(|&k| store.get(k, 2003, 0).is_some()).count();
    });
    report.check(found == RECORDS as usize, || format!("store returned {found} of {RECORDS}"));
    report.metric("store.get_us", ns / 1e3 / RECORDS as f64, "us");

    // The first record's payload, as recovery parses it.
    let segment = std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .ok_or("the store wrote no segment")?;
    let raw = std::fs::read(&segment).map_err(|e| e.to_string())?;
    let len = u32::from_le_bytes(raw[8..12].try_into().expect("4 bytes")) as usize;
    let payload = std::str::from_utf8(&raw[20..20 + len]).map_err(|e| e.to_string())?;
    let ns = time_ns(REPS * 3, || {
        black_box(serde::value::parse(black_box(payload)).expect("record parses"));
    });
    report.metric("serde.record_parse_us", ns / 1e3, "us");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Runs every layer row, each inside a span, then labels the rows this
/// workload's traced run did not observe.
pub fn run(tracer: &Tracer, report: &mut Report) {
    let t = Instant::now();
    tracer.span("layer:calendar", None, "layers", |_| calendar_rows(report));
    tracer.span("layer:workload", None, "layers", |_| workload_rows(report));
    tracer.span("layer:policy", None, "layers", |id| policy_rows(tracer, id, report));
    tracer.span("layer:extensions", None, "layers", |_| extension_rows(report));
    if let Err(e) =
        tracer.span("layer:cache_store_serde", None, "layers", |_| cache_store_serde_rows(report))
    {
        report.check(false, || format!("cache/store/serde rows failed: {e}"));
    }
    report.line(format!("  layer rows took {:.2} s", t.elapsed().as_secs_f64()));
    for &(name, unit) in PER_LAYER {
        if !report.has_metric(name) {
            report.metric(name, 0.0, unit);
            report.line(format!("  {name}: not exercised by this workload (0)"));
        }
    }
}
