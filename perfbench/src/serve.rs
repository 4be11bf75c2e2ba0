//! `serve-mixed` and `serve-replay`: the `serve` daemon under an open
//! loop of generated request lines.
//!
//! The daemon is [`coalloc::serve::serve_with`] running in this process
//! on its own thread; its input is a pipe fed only with the generated
//! request lines (after one malformed probe line that marks readiness)
//! and its output a pipe whose lines are timestamped as the daemon
//! writes them. The generator sends each request at its due time
//! (Poisson arrivals from `--seed`), and a request's latency runs from
//! that due time to its `result` event, so a stalled daemon or a late
//! generator both show in the latency.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use coalloc::experiments::Scale;
use coalloc::serve::{serve_with, ServeOptions, ServeSummary};
use coalloc_core::experiment::WorkerPool;
use desim::{Exponential, RngStream, Variate};
use serde::value::{field, Value};

use crate::measure::{self, fnv1a, median, tail, Report, FNV_OFFSET};
use crate::trace::{work_dir, Tracer};
use crate::{Args, EXTENSION_AXES};

/// The latency limit on `tail_ms` that a ladder rate must meet.
const LATENCY_LIMIT_MS: f64 = 250.0;
/// serve-mixed's reference rate (requests/s) for `p50_ms`/`tail_ms`:
/// about a sixth of a 2-core daemon's cold burst capacity, so a
/// request seldom queues behind another and queueing does not amplify
/// the machine's own noise into the latency figures.
const REFERENCE_RPS: f64 = 6.0;
/// Share of `--seconds` the reference passes last.
const REFERENCE_SHARE: f64 = 0.9;
/// Requests per reference pass: the tail is then p87.5.
const REFERENCE_PASS: usize = 80;
/// The fixed ladder (requests/s) for the highest rate meeting the
/// limit: 20 % steps from 20 req/s up.
const LADDER_RPS: [f64; 6] = [20.0, 24.0, 28.8, 34.6, 41.5, 49.8];
/// Bursts of one reference slice each that measure the capacity.
const BURSTS: usize = 6;
/// Daemons started only to time set-up after each round of
/// serve-mixed's passes: six rounds give 30 samples.
const SETUP_BATCH: usize = 5;
/// Requests sent per ladder rate.
const LADDER_REQUESTS: usize = 48;
/// Completed replications kept in memory by serve-mixed's daemon: far
/// below the working set, so LRU eviction and disk fallback both run.
const CACHE_CAP: usize = 48;
/// serve-replay's fixed replay rate (requests/s).
const REPLAY_RPS: f64 = 200.0;
/// Capacity bursts of the whole set per serve-replay restart, one after
/// another; the median over every burst of the run is reported.
const REPLAY_BURSTS: usize = 4;
/// The generator sleeps until this long before a request is due and
/// spins the rest, so its own wake-up latency stays out of the
/// request's latency.
const SPIN_MARGIN: Duration = Duration::from_millis(1);
/// Daemon restarts per serve-replay run, at least.
const MIN_RESTARTS: usize = 3;
/// The utilization grid windows slide along: 0.30..=0.80 in steps of
/// 0.01, so a window meets the windows of its near neighbours only.
const GRID_POINTS: usize = 51;
/// Grid points (from the bottom) that requests with an extension axis
/// draw their windows from: 0.30..=0.55.
const AXIS_GRID_POINTS: usize = 26;
/// Requests per one-step slide of the window.
const SLIDE: usize = 3;
/// The seed of the fixed request design (see [`requests`]).
const DESIGN_SEED: u64 = 2003;

/// One generated request line and what it asks for.
#[derive(Clone)]
struct Request {
    id: String,
    line: String,
    policy: &'static str,
    limit: u32,
    utils: Vec<String>,
    axis: Option<(&'static str, &'static str)>,
    audit: bool,
}

impl Request {
    /// The request without its id: equal keys ask for equal results.
    fn key(&self) -> String {
        let mut k = format!("{} {} {:?} {:?}", self.policy, self.limit, self.utils, self.axis);
        if self.audit {
            k.push_str(" audit");
        }
        k
    }

    /// The isolated `sweep_on` the daemon's answer must equal: same
    /// scenario parser, same quick-scale defaults, no cache.
    fn isolated(&self, pool: &WorkerPool) -> Result<u64, String> {
        let spec = crate::scenario(self.policy, self.limit, self.axis, Scale::Quick)?;
        let mut cfg = Scale::Quick.sweep();
        cfg.utilizations =
            self.utils.iter().map(|u| u.parse().expect("grid values parse")).collect();
        cfg.min_replications = 3;
        cfg.max_replications = 3;
        cfg.audit = self.audit;
        let (points, _) = coalloc_core::sweep_on(pool, None, spec.make_cfg(), &cfg, |_| {});
        let json = serde_json::to_string(&points).expect("sweep points serialize");
        Ok(fnv1a(FNV_OFFSET, json.as_bytes()))
    }
}

/// The request mix: policy × limit × a utilization window that slides
/// along the grid as requests go by, so neighbouring requests overlap;
/// 30 % carry one extension axis (on GS) and 25 % are audited. Within
/// every reference pass of 80 requests each attribute takes its values
/// in fixed proportions. The requests and their order are the same for
/// every seed, as paper-sweep's inputs are; `--seed` draws their
/// Poisson due times ([`arrivals`]). Which request pays for a shared
/// replication and which finds it cached then depends on the order
/// alone, so every pass of every seed asks for the same work, and the
/// seed changes only which requests meet in time.
fn requests(n: usize) -> Vec<Request> {
    // A fixed design, shuffled once: which attributes go together.
    let mut design = RngStream::new(DESIGN_SEED).labelled("requests");
    let mut column = |value: fn(usize) -> usize| {
        let mut col: Vec<usize> = (0..n).map(|i| value(i % REFERENCE_PASS)).collect();
        for block in col.chunks_mut(REFERENCE_PASS) {
            design.shuffle(block);
        }
        col
    };
    let policies = column(|i| i % 4);
    let limits = column(|i| i % 3);
    let widths = column(|i| 2 + i % 3);
    let jitter = column(|i| i % 2);
    let axes = column(|i| if i % 10 < 3 { 1 + i % EXTENSION_AXES.len() } else { 0 });
    let audits = column(|i| usize::from(i % 4 == 0));
    (0..n)
        .map(|i| {
            let axis = axes[i].checked_sub(1).map(|a| (EXTENSION_AXES[a].1, EXTENSION_AXES[a].2));
            // The extension axes ride on GS, as the backfilling and
            // network studies do.
            let policy = if axis.is_some() { "GS" } else { ["GS", "LS", "LP", "SC"][policies[i]] };
            let limit = [16u32, 24, 32][limits[i]];
            let width = widths[i];
            // Windows slide along the grid, wrapping around; requests
            // with an extension axis stay in its lower half, where no
            // axis saturates the system (saturated EASY runs cost ten
            // times the others).
            let span = if axis.is_some() { AXIS_GRID_POINTS } else { GRID_POINTS };
            let start = ((i / SLIDE) % (span - width + 1) + jitter[i]).min(span - width);
            let utils: Vec<String> =
                (start..start + width).map(|k| format!("{:.2}", 0.30 + 0.01 * k as f64)).collect();
            // Audits ride on plain requests, so no request stacks the
            // auditor on top of an extension axis.
            let audit = audits[i] == 1 && axis.is_none();
            let id = format!("r{i}");
            let mut line = format!(
                "{{\"id\":\"{id}\",\"kind\":\"sweep\",\"policy\":\"{policy}\",\"limit\":{limit},\
                 \"utilizations\":[{}],\"min_reps\":3,\"max_reps\":3",
                utils.join(",")
            );
            if let Some((name, value)) = axis {
                line.push_str(&format!(",\"{name}\":\"{value}\""));
            }
            if audit {
                line.push_str(",\"audit\":true");
            }
            line.push('}');
            Request { id, line, policy, limit, utils, axis, audit }
        })
        .collect()
}

/// Due times (seconds from the start of a pass) of `n` arrivals at
/// `rate`, from arrival stream `stream` of the seed: Poisson gaps from the seed, rescaled so the last request is
/// due at exactly `n / rate` and every seed offers the same load.
fn arrivals(seed: u64, stream: u64, n: usize, rate: f64) -> Vec<f64> {
    let mut rng = RngStream::new(seed).labelled("arrivals").substream(stream);
    let gap = Exponential::with_mean(1.0);
    let mut t = 0.0;
    let raw: Vec<f64> = (0..n)
        .map(|_| {
            t += gap.sample(&mut rng);
            t
        })
        .collect();
    raw.iter().map(|x| x / t * n as f64 / rate).collect()
}

/// The read end of the daemon's input pipe.
struct PipeIn {
    rx: mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for PipeIn {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => (self.buf, self.pos) = (chunk, 0),
                Err(mpsc::RecvError) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The write end of the daemon's output pipe: each completed line is
/// timestamped when its newline is written.
struct PipeOut {
    tx: mpsc::Sender<(Instant, String)>,
    buf: Vec<u8>,
}

impl Write for PipeOut {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let mut rest = data;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            self.buf.extend_from_slice(&rest[..nl]);
            let line =
                String::from_utf8(std::mem::take(&mut self.buf)).map_err(std::io::Error::other)?;
            // The receiver outlives the daemon; a send error cannot occur.
            let _ = self.tx.send((Instant::now(), line));
            rest = &rest[nl + 1..];
        }
        self.buf.extend_from_slice(rest);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A running daemon.
struct Daemon {
    input: mpsc::Sender<Vec<u8>>,
    events: mpsc::Receiver<(Instant, String)>,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
    /// Start until the daemon answered the probe line.
    setup: Duration,
}

impl Daemon {
    /// Starts a daemon and waits until it is ready. Serve has no
    /// readiness event, so a malformed probe line's `error` event marks
    /// it; the probe is not a request and counts nowhere.
    fn start(store: Option<&Path>, cache_cap: Option<usize>) -> Result<Daemon, String> {
        let started = Instant::now();
        let (input, rx) = mpsc::channel();
        let (tx, events) = mpsc::channel();
        let opts = ServeOptions {
            threads: measure::nproc(),
            default_scale: Scale::Quick,
            store: store.map(Path::to_path_buf),
            cache_cap,
        };
        let handle = std::thread::spawn(move || {
            let input = BufReader::new(PipeIn { rx, buf: Vec::new(), pos: 0 });
            serve_with(input, PipeOut { tx, buf: Vec::new() }, &opts)
        });
        let _ = input.send(b"probe\n".to_vec());
        let ready = match events.recv_timeout(Duration::from_secs(60)) {
            Ok((t, line))
                if line.contains("\"id\":\"?\"") && line.contains("\"event\":\"error\"") =>
            {
                Ok(t)
            }
            Ok((_, line)) => Err(format!("unexpected first daemon event: {line}")),
            Err(_) => Err("daemon did not answer the probe line".to_string()),
        };
        match ready {
            Ok(t) => Ok(Daemon { input, events, handle, setup: t - started }),
            Err(e) => {
                // EOF lets the daemon drain and exit; wait for it.
                drop(input);
                let _ = handle.join();
                Err(e)
            }
        }
    }

    fn send(&self, line: &str) {
        // The daemon only stops reading at EOF, which `finish` sends.
        let _ = self.input.send(format!("{line}\n").into_bytes());
    }

    /// Closes the input (EOF) and waits for the daemon to drain and
    /// exit; every request was answered before, so it prints nothing
    /// more.
    fn finish(self) -> Result<ServeSummary, String> {
        drop(self.input);
        let summary = self
            .handle
            .join()
            .map_err(|_| "daemon thread panicked")?
            .map_err(|e| format!("daemon failed: {e}"))?;
        match self.events.try_iter().next() {
            Some((_, line)) => Err(format!("daemon printed after its last request: {line}")),
            None => Ok(summary),
        }
    }
}

/// One request's fate in a session.
#[derive(Default)]
struct Fate {
    due: Option<Instant>,
    sent: Option<Instant>,
    first_round: Option<Instant>,
    end: Option<Instant>,
    /// `result`, or `error`/`timeout`/`cancelled`.
    outcome: String,
    /// Replications the result reports as failed (panicked).
    failed_reps: u64,
    rounds: u64,
    executed: u64,
    cache_hits: u64,
    disk_hits: u64,
    tasks: u64,
    /// FNV-1a of the result's `points` bytes, so a run keeps a digest
    /// per result rather than the result itself.
    points: u64,
}

/// What one pass (one batch of requests to one daemon) measured.
struct Session {
    fates: Vec<(String, Fate)>,
    /// Latency of completed requests, ms from due time to result.
    latency_ms: Vec<f64>,
    /// Requests that did not end in a result, plus failed replications
    /// that results carry.
    failed: u64,
    /// How late the generator sent, worst case, in ms.
    late_ms: f64,
}

fn uint(v: &Value, name: &str) -> u64 {
    match field(v, name) {
        Ok(Value::Uint(n)) => *n,
        _ => 0,
    }
}

/// The kind of a daemon event line, read without parsing it: every
/// event starts with its `id`, then its `event`.
fn event_kind(line: &str) -> &str {
    line.split_once("\"event\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .map_or("", |(kind, _)| kind)
}

/// Failed replications recorded in a sweep result's points.
fn failed_replications(v: &Value) -> u64 {
    let Ok(Value::Array(points)) = field(v, "points") else { return 0 };
    points
        .iter()
        .filter_map(|p| match field(p, "outcome").and_then(|o| field(o, "failures")) {
            Ok(Value::Array(failures)) => Some(failures.len() as u64),
            _ => None,
        })
        .sum()
}

/// One yielding spinner thread per core for as long as it lives, so no
/// core goes idle. An idle virtual CPU halts, and waking it again waits
/// on the hypervisor: on a shared host that adds from tens of
/// microseconds to milliseconds to every hand-off between the daemon's
/// threads, which swamps a sub-millisecond request and ties a paced
/// request's latency to how the host wakes idle CPUs. A spinner only
/// yields, so any runnable daemon thread takes its core at once.
struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..measure::nproc())
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Sleeps until shortly before `at`, then spins until it.
fn wait_until(at: Instant) {
    let now = Instant::now();
    if at > now + SPIN_MARGIN {
        std::thread::sleep(at - now - SPIN_MARGIN);
    }
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

impl Daemon {
    /// Sends `reqs` at their due offsets (seconds from now; all zero is
    /// one burst) and waits until every one has a terminal event.
    fn pass(&self, reqs: &[Request], due: &[f64], report: &mut Report) -> Result<Session, String> {
        let t0 = Instant::now() + Duration::from_millis(5);
        let mut fates: Vec<(String, Fate)> =
            reqs.iter().map(|r| (r.id.clone(), Fate::default())).collect();
        let index: HashMap<&str, usize> =
            reqs.iter().enumerate().map(|(i, r)| (r.id.as_str(), i)).collect();
        for ((req, &offset), (_, fate)) in reqs.iter().zip(due).zip(fates.iter_mut()) {
            let at = t0 + Duration::from_secs_f64(offset);
            wait_until(at);
            fate.due = Some(at);
            fate.sent = Some(Instant::now());
            self.send(&req.line);
        }

        // The events are parsed only once every request has its terminal
        // one, so the benchmark's own parsing does not compete with the
        // daemon for the cores while it serves the pass.
        let mut lines = Vec::new();
        let mut open = reqs.len();
        while open > 0 {
            let (t, line) = self
                .events
                .recv_timeout(Duration::from_secs(120))
                .map_err(|_| format!("{open} requests still unanswered after 120 s"))?;
            if event_kind(&line) != "round" {
                open -= 1;
            }
            lines.push((t, line));
        }
        for (t, line) in lines {
            let v =
                serde::value::parse(&line).map_err(|e| format!("daemon printed non-JSON: {e}"))?;
            let (Ok(Value::String(id)), Ok(Value::String(event))) =
                (field(&v, "id"), field(&v, "event"))
            else {
                return Err(format!("event without id or kind: {line}"));
            };
            let Some(&i) = index.get(id.as_str()) else {
                report.check(false, || format!("event for an unknown request: {line}"));
                continue;
            };
            let fate = &mut fates[i].1;
            if event == "round" {
                let (tasks, hits, exec) =
                    (uint(&v, "tasks"), uint(&v, "cache_hits"), uint(&v, "executed"));
                report.check(exec + hits == tasks, || {
                    format!("{id}: round with executed {exec} + cache_hits {hits} != tasks {tasks}")
                });
                fate.first_round.get_or_insert(t);
                fate.tasks += tasks;
                continue;
            }
            report.check(fate.end.is_none(), || format!("{id}: two terminal events"));
            fate.end = Some(t);
            fate.outcome = event.clone();
            if event == "result" {
                fate.failed_reps = failed_replications(&v);
                fate.rounds = uint(&v, "rounds");
                fate.executed = uint(&v, "executed");
                fate.cache_hits = uint(&v, "cache_hits");
                fate.disk_hits = uint(&v, "disk_hits");
                let points =
                    line.find("\"points\":").map_or("", |at| &line[at + 9..line.len() - 1]);
                fate.points = fnv1a(FNV_OFFSET, points.as_bytes());
            }
        }

        let mut latency_ms = Vec::new();
        let mut failed = 0;
        let mut late_ms = 0.0f64;
        for (id, f) in &fates {
            let (due, sent) = (f.due.expect("every request was sent"), f.sent.expect("sent"));
            late_ms = late_ms.max((sent - due).as_secs_f64() * 1e3);
            failed += f.failed_reps;
            report.check(f.failed_reps == 0, || {
                format!("{id}: result carries {} failed replications", f.failed_reps)
            });
            match (f.outcome.as_str(), f.end) {
                ("result", Some(end)) => {
                    latency_ms.push((end - due).as_secs_f64() * 1e3);
                }
                (other, _) => {
                    failed += 1;
                    eprintln!("request {id} ended in `{other}`");
                }
            }
        }
        report.attempted += reqs.len() as u64;
        report.failed += failed;
        Ok(Session { fates, latency_ms, failed, late_ms })
    }
}

/// Closes a daemon and checks that the replications its passes report
/// executed add up to the cache misses the daemon counted.
fn close(daemon: Daemon, passes: &[&Session], report: &mut Report) -> Result<ServeSummary, String> {
    let summary = daemon.finish()?;
    let executed: u64 = passes.iter().flat_map(|s| &s.fates).map(|(_, f)| f.executed).sum();
    report.check(executed == summary.cache_misses, || {
        format!("sum of executed {executed} != daemon cache misses {}", summary.cache_misses)
    });
    Ok(summary)
}

/// One fresh daemon serving one pass.
fn session(
    store: &Path,
    reqs: &[Request],
    due: &[f64],
    report: &mut Report,
) -> Result<(Session, ServeSummary), String> {
    let daemon = Daemon::start(Some(store), Some(CACHE_CAP))?;
    let s = daemon.pass(reqs, due, report)?;
    let summary = close(daemon, &[&s], report)?;
    Ok((s, summary))
}

/// Whether the backlog grew over a pass: the median latency of its last
/// third exceeds that of its first third by half the latency limit,
/// the queueing delay an overloaded daemon piles up.
fn backlog_grew(latency_ms: &[f64]) -> bool {
    let third = latency_ms.len() / 3;
    third > 0
        && median(&latency_ms[latency_ms.len() - third..]) - median(&latency_ms[..third])
            > LATENCY_LIMIT_MS / 2.0
}

/// Checks every served result of a pass against an isolated sweep of
/// the same request (computed once per distinct request).
fn check_isolated(
    reqs: &[Request],
    pass: &Session,
    memo: &mut HashMap<String, u64>,
    pool: &WorkerPool,
    report: &mut Report,
) -> Result<(), String> {
    for (req, (_, fate)) in reqs.iter().zip(&pass.fates) {
        if fate.outcome != "result" {
            continue;
        }
        let key = req.key();
        if !memo.contains_key(&key) {
            memo.insert(key.clone(), req.isolated(pool)?);
        }
        report.check(memo[&key] == fate.points, || {
            format!("{}: served points differ from an isolated sweep_on", req.id)
        });
    }
    Ok(())
}

/// A fresh, empty store directory for one daemon.
fn store_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = work_dir().join(tag);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Records a pass's requests as spans under one session span: each
/// request from its due time to its terminal event, with the wait for
/// its first round as a child.
fn trace_pass(tracer: &Tracer, name: &str, s: &Session) {
    let Some(start) = s.fates.iter().filter_map(|(_, f)| f.due).min() else { return };
    let end = s.fates.iter().filter_map(|(_, f)| f.end).max().unwrap_or(start);
    let root = tracer.record(&format!("serve.pass:{name}"), start, end, None, name);
    for (id, f) in &s.fates {
        let (Some(due), Some(done)) = (f.due, f.end) else { continue };
        let req = tracer.record("serve.request", due, done, root, id);
        if let Some(first) = f.first_round {
            tracer.record("serve.first_round", due, first, req, id);
        }
    }
}

/// Seconds from a pass's first due time to its last terminal event.
fn makespan(pass: &Session) -> f64 {
    let first = pass.fates.iter().filter_map(|(_, f)| f.due).min();
    let last = pass.fates.iter().filter_map(|(_, f)| f.end).max();
    first.zip(last).map_or(f64::NAN, |(a, b)| (b - a).as_secs_f64())
}

/// Checks a pass that a restarted daemon served from a store against
/// the pass `want` that wrote it: no replication executed and the same
/// bytes. The first pass after a restart reads exactly the store's
/// `records` from disk; a later one (`None`) reads nothing.
fn check_replayed(
    name: &str,
    pass: &Session,
    want: &Session,
    records: Option<u64>,
    report: &mut Report,
) {
    for ((id, f), (_, w)) in pass.fates.iter().zip(&want.fates) {
        report.check(f.executed == 0, || format!("{name} pass {id}: executed {}", f.executed));
        report.check(f.points == w.points, || {
            format!("{name} pass {id}: bytes differ from the store-writing pass")
        });
    }
    let disk: u64 = pass.fates.iter().map(|(_, f)| f.disk_hits).sum();
    let want_disk = records.unwrap_or(0);
    report.check(disk == want_disk, || {
        format!("{name} pass read {disk} records from disk, expected {want_disk}")
    });
}

/// Per-layer figures observable from the daemon's events.
fn pass_layers(passes: &[&Session], report: &mut Report) {
    let fates = || passes.iter().flat_map(|s| s.fates.iter().map(|(_, f)| f));
    let sum = |get: fn(&Fate) -> u64| fates().map(get).sum::<u64>();
    let (tasks, rounds, executed) = (sum(|f| f.tasks), sum(|f| f.rounds), sum(|f| f.executed));
    let tasks_f = tasks.max(1) as f64;
    let results = fates().filter(|f| f.outcome == "result").count().max(1) as f64;
    let first: Vec<f64> =
        fates().filter_map(|f| Some((f.first_round? - f.due?).as_secs_f64() * 1e3)).collect();
    report.metric("cache.hit_ratio", sum(|f| f.cache_hits) as f64 / tasks_f, "ratio");
    report.metric("cache.disk_hit_ratio", sum(|f| f.disk_hits) as f64 / tasks_f, "ratio");
    report.metric("cache.dedup_ratio", executed as f64 / tasks_f, "ratio");
    report.metric("queue.rounds", rounds as f64, "count");
    report.metric("queue.executed", executed as f64, "count");
    report.metric("queue.tasks_per_round", tasks as f64 / rounds.max(1) as f64, "tasks");
    report.metric("serve.first_round_ms", median(&first), "ms");
    report.metric("serve.rounds_per_request", rounds as f64 / results, "rounds");
    let late = passes.iter().map(|s| s.late_ms).fold(0.0, f64::max);
    report.metric("serve.generator_late_ms", late, "ms");
}

/// Climbs the ladder of rates, one fresh daemon per step, and returns
/// the highest rate whose tail meets the latency limit without a
/// growing backlog (interpolated towards the first failing step where
/// the tail crossed the limit).
fn ladder<'r>(
    args: &Args,
    reqs: &'r [Request],
    passes: &mut Vec<(&'r [Request], Session)>,
    report: &mut Report,
) -> Result<f64, String> {
    let (mut max_rps, mut last): (f64, Option<(f64, f64)>) = (0.0, None);
    for (k, &rate) in LADDER_RPS.iter().enumerate() {
        let due = arrivals(args.seed, 0, reqs.len(), rate);
        let (s, _) = session(&store_dir(&format!("ladder{k}"))?, reqs, &due, report)?;
        let (t, pct, n) = tail(&s.latency_ms);
        let grew = backlog_grew(&s.latency_ms);
        report.line(format!(
            "  ladder {rate:>5.1} req/s: p50 {:>8.2} ms, tail {t:>8.2} ms (p{pct:.1} of {n}), \
             backlog grew: {grew}",
            median(&s.latency_ms)
        ));
        let failed = s.failed > 0;
        passes.push((reqs, s));
        if t > LATENCY_LIMIT_MS || grew || failed {
            if let Some((r0, t0)) = last.filter(|_| t > LATENCY_LIMIT_MS) {
                max_rps = r0 + (rate - r0) * ((LATENCY_LIMIT_MS - t0) / (t - t0)).clamp(0.0, 1.0);
            }
            break;
        }
        max_rps = rate;
        last = Some((rate, t));
    }
    Ok(max_rps)
}

/// Starts and closes [`SETUP_BATCH`] daemons on an empty store, with
/// the cores kept awake, and returns their set-up times in seconds.
/// serve-mixed times set-up on daemons of their own, so every sample is
/// taken the same way; a batch follows each round of passes, so the
/// samples span the run.
fn set_ups(report: &mut Report) -> Result<Vec<f64>, String> {
    let _awake = KeepAwake::start();
    (0..SETUP_BATCH)
        .map(|_| {
            let daemon = Daemon::start(Some(&store_dir("setup")?), Some(CACHE_CAP))?;
            let setup = daemon.setup.as_secs_f64();
            close(daemon, &[], report)?;
            Ok(setup)
        })
        .collect()
}

/// Runs `serve-mixed`: one cold daemon per pass, `--store` attached
/// and the in-memory cache capped below the working set.
pub fn run_mixed(args: &Args, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let reqs = requests(reference_requests(args));
    let mut setups = Vec::new();
    let mut passes: Vec<(&[Request], Session)> = Vec::new();

    // The reference rate runs consecutive slices of the request set,
    // each on its own cold daemon; tails are taken per pass, so their
    // percentile stays put, and the median over passes is reported.
    // Capacity bursts send a slice at once to a cold daemon. Reference
    // passes, bursts and the ladder take turns, so a slow spell of the
    // shared machine lands on part of each kind of sample, not all of one.
    // The reference passes leave the cores mostly idle, so they run with
    // the cores kept awake; bursts keep them busy by themselves.
    let slices: Vec<&[Request]> = reqs.chunks(REFERENCE_PASS).collect();
    let (mut ref_ms, mut ref_tails, mut capacities) = (Vec::new(), Vec::new(), Vec::new());
    let mut max_rps = 0.0f64;
    let mut first_store = None;
    for k in 0..slices.len().max(BURSTS) {
        if let Some(slice) = slices.get(k) {
            let due = arrivals(args.seed, k as u64, slice.len(), REFERENCE_RPS);
            let dir = store_dir(&format!("reference{k}"))?;
            let (s, summary) = {
                let _awake = KeepAwake::start();
                session(&dir, slice, &due, report)?
            };
            first_store.get_or_insert((dir, summary.cache_misses));
            ref_ms.extend_from_slice(&s.latency_ms);
            let (t, pct, n) = tail(&s.latency_ms);
            ref_tails.push((t, pct, n));
            report.line(format!(
                "  reference pass {k}: p50 {:>8.2} ms, tail {t:>8.2} ms (p{pct:.1} of {n})",
                median(&s.latency_ms)
            ));
            passes.push((slice, s));
        }
        if k < BURSTS {
            let slice = slices[k % slices.len()];
            let burst = vec![0.0; slice.len()];
            let (s, _) = session(&store_dir(&format!("burst{k}"))?, slice, &burst, report)?;
            capacities.push(slice.len() as f64 / makespan(&s));
            passes.push((slice, s));
        }
        if k == 0 && !tracer.enabled() {
            max_rps = ladder(args, &reqs[..LADDER_REQUESTS], &mut passes, report)?;
        }
        setups.extend(set_ups(report)?);
    }
    let ref_p50 = median(&ref_ms);
    let (ref_tail, ref_pct, ref_n) = median_tail(&ref_tails);
    let capacity = median(&capacities);

    if tracer.enabled() {
        trace_pass(tracer, "reference", &passes[0].1);
        post_hoc_overhead(report);
    }

    // Untimed: a daemon restarted on the first reference pass's store
    // answers that pass again from disk alone, with the same bytes.
    let (dir, records) = first_store.expect("at least one reference pass ran");
    let daemon = Daemon::start(Some(&dir), None)?;
    let replayed = daemon.pass(slices[0], &vec![0.0; slices[0].len()], report)?;
    close(daemon, &[&replayed], report)?;
    check_replayed("restart", &replayed, &passes[0].1, Some(records), report);

    let pool = WorkerPool::new(measure::nproc());
    let mut memo = HashMap::new();
    for (reqs, s) in &passes {
        check_isolated(reqs, s, &mut memo, &pool, report)?;
    }
    if tracer.enabled() {
        pass_layers(&[&passes[0].1], report);
    } else {
        report.metric("setup_s", median(&setups), "s");
        report.metric("throughput_per_s", capacity, "1/s");
        report.metric("p50_ms", ref_p50, "ms");
        report.metric("tail_ms", ref_tail, "ms");
    }
    report.line("  named figures:".to_string());
    report.note("cold_p50_ms", ref_p50, "ms", &format!("at {REFERENCE_RPS} req/s"));
    report.note(
        "cold_tail_ms",
        ref_tail,
        "ms",
        &format!("median over {} passes of p{ref_pct:.1} of {ref_n}", ref_tails.len()),
    );
    report.note("cold_max_rps", max_rps, "req/s", &format!("tail limit {LATENCY_LIMIT_MS} ms"));
    report.note(
        "cold_burst_rps",
        capacity,
        "req/s",
        &format!("median over {} bursts of {REFERENCE_PASS} requests", capacities.len()),
    );
    failed_frac(report);
    report.line(format!("  {} distinct requests checked against isolated sweep_on", memo.len()));
    Ok(())
}

/// Requests at serve-mixed's reference rate (and in serve-replay's
/// set): whole passes filling the reference share of the run, at least
/// two.
fn reference_requests(args: &Args) -> usize {
    let passes = (args.seconds * REFERENCE_SHARE * REFERENCE_RPS / REFERENCE_PASS as f64).round();
    REFERENCE_PASS * (passes as usize).max(2)
}

/// The median of per-pass tails, with the first pass's percentile and
/// sample count (every pass has the same size).
fn median_tail(tails: &[(f64, f64, usize)]) -> (f64, f64, usize) {
    let values: Vec<f64> = tails.iter().map(|t| t.0).collect();
    (median(&values), tails.first().map_or(0.0, |t| t.1), tails.first().map_or(0, |t| t.2))
}

/// The tracing overhead of a serve workload. Its spans are recorded
/// after each pass from the timestamps the untraced figures use, so
/// the traced run times exactly the untraced code: zero by construction,
/// not a traced-minus-untraced difference that would be run-to-run drift.
fn post_hoc_overhead(report: &mut Report) {
    report.note(
        "trace.overhead.p50",
        0.0,
        "ms",
        "spans recorded after each pass from its timestamps",
    );
}

fn failed_frac(report: &mut Report) {
    let detail = format!("{} of {} requests", report.failed, report.attempted);
    report.note(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        &detail,
    );
}

/// Runs `serve-replay`: a store written (untimed) with serve-mixed's
/// request set, then daemons restarted on it, each replaying the set
/// twice at a fixed rate and then in a few bursts.
pub fn run_replay(args: &Args, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let reqs = requests(reference_requests(args));
    let dir = store_dir("replay")?;
    let burst = vec![0.0; reqs.len()];
    // Untimed: serve-mixed's request set writes the store, as one burst.
    let (prep, summary) = session(&dir, &reqs, &burst, report)?;
    report.check(prep.failed == 0, || "the store-writing pass had failures".to_string());
    let records = summary.cache_misses;

    let due = arrivals(args.seed, 0, reqs.len(), REPLAY_RPS);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    // p50s per restart, and tails per 80 consecutive requests of a pass
    // as on serve-mixed, so the percentile stays put however many
    // restarts fit in the run; the medians across them are reported.
    let (mut restart_p50s, mut warm_p50s) = (Vec::new(), Vec::new());
    let (mut restart_tails, mut warm_tails) = (Vec::new(), Vec::new());
    let mut last = Vec::new();
    while setups.len() < MIN_RESTARTS || (!tracer.enabled() && start.elapsed() < budget) {
        // Unbounded memory cache, so the second pass is all memory hits.
        let daemon = Daemon::start(Some(&dir), None)?;
        setups.push(daemon.setup.as_secs_f64());
        // The paced passes leave the cores mostly idle, so they run with
        // the cores kept awake; the bursts keep them busy by themselves.
        let (restart, warm) = {
            let _awake = KeepAwake::start();
            (daemon.pass(&reqs, &due, report)?, daemon.pass(&reqs, &due, report)?)
        };
        let mut bursts = Vec::new();
        for _ in 0..REPLAY_BURSTS {
            bursts.push(daemon.pass(&reqs, &burst, report)?);
        }
        let passes: Vec<(&str, &Session)> = [("restart", &restart), ("warm", &warm)]
            .into_iter()
            .chain(bursts.iter().map(|b| ("burst", b)))
            .collect();
        close(daemon, &passes.iter().map(|(_, p)| *p).collect::<Vec<_>>(), report)?;
        for (k, (name, pass)) in passes.iter().enumerate() {
            check_replayed(name, pass, &prep, (k == 0).then_some(records), report);
        }
        rates.extend(bursts.iter().map(|b| reqs.len() as f64 / makespan(b)));
        restart_p50s.push(median(&restart.latency_ms));
        warm_p50s.push(median(&warm.latency_ms));
        restart_tails.extend(restart.latency_ms.chunks(REFERENCE_PASS).map(tail));
        warm_tails.extend(warm.latency_ms.chunks(REFERENCE_PASS).map(tail));
        last = vec![restart, warm];
    }

    let (r_tail, r_pct, r_n) = median_tail(&restart_tails);
    let (w_tail, w_pct, w_n) = median_tail(&warm_tails);
    let (r_p50, w_p50) = (median(&restart_p50s), median(&warm_p50s));
    if tracer.enabled() {
        trace_pass(tracer, "restart", &last[0]);
        trace_pass(tracer, "warm", &last[1]);
        post_hoc_overhead(report);
        pass_layers(&last.iter().collect::<Vec<_>>(), report);
    } else {
        report.metric("setup_s", median(&setups), "s");
        report.metric("throughput_per_s", median(&rates), "1/s");
        report.metric("p50_ms", r_p50, "ms");
        report.metric("tail_ms", r_tail, "ms");
    }
    report.line("  named figures:".to_string());
    let per_restart = format!("at {REPLAY_RPS} req/s, median over restarts");
    report.note("restart_p50_ms", r_p50, "ms", &per_restart);
    report.note(
        "restart_tail_ms",
        r_tail,
        "ms",
        &format!("median over chunks of p{r_pct:.1} of {r_n}"),
    );
    report.note("warm_p50_ms", w_p50, "ms", &per_restart);
    report.note(
        "warm_tail_ms",
        w_tail,
        "ms",
        &format!("median over chunks of p{w_pct:.1} of {w_n}"),
    );
    report.note(
        "warm_burst_rps",
        median(&rates),
        "req/s",
        &format!("median over {} bursts of {} requests at once", rates.len(), reqs.len()),
    );
    failed_frac(report);
    report.line(format!("  {} restarts on a store of {records} records", setups.len()));
    Ok(())
}
