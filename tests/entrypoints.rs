//! Entry-point equivalence: every `SimBuilder` entry point that can
//! express the same run must produce a bit-identical `SimOutcome` — and,
//! where an observer is involved, a byte-identical JSONL event log. The
//! historical free-function `run*` shims delegated one-to-one to these
//! builder paths before their removal, so this suite still pins the
//! builder API against the behaviour the golden regression suite was
//! recorded under.

use coalloc::core::{
    JsonlSink, OccupancyModel, PolicyKind, SimBuilder, SimConfig, SimOutcome, StochasticFeed,
};
use coalloc::desim::RngStream;
use coalloc::trace::{generate_das1_log, DasLogConfig};

/// A quick fixed-seed configuration (fixed warmup so the feed-level
/// entry points, which never resolve auto warmup, are exercised on the
/// same config as the stochastic ones).
fn cfg(policy: PolicyKind) -> SimConfig {
    let mut cfg = SimConfig::das(policy, 16, 0.5);
    cfg.total_jobs = 4_000;
    cfg.warmup_jobs = 400;
    cfg.batch_size = 100;
    cfg
}

/// Bit-identical comparison via the serialized outcome: every field —
/// including each f64's exact bits, rendered by the same formatter —
/// must match.
fn assert_same(a: &SimOutcome, b: &SimOutcome, what: &str) {
    let a = serde_json::to_string(a).expect("SimOutcome serializes");
    let b = serde_json::to_string(b).expect("SimOutcome serializes");
    assert_eq!(a, b, "{what}: entry points disagree");
}

/// The stochastic feed exactly as the builder's `run` path builds it.
fn feed_for(cfg: &SimConfig) -> StochasticFeed {
    StochasticFeed::new(
        cfg.workload.clone(),
        cfg.arrival_rate,
        cfg.arrival_cv2,
        cfg.total_jobs,
        &RngStream::new(cfg.seed),
    )
}

#[test]
fn repeated_runs_are_bit_identical() {
    for policy in [PolicyKind::Gs, PolicyKind::Ls, PolicyKind::Sc] {
        let cfg = cfg(policy);
        assert_same(&SimBuilder::new(&cfg).run(), &SimBuilder::new(&cfg).run(), policy.label());
    }
}

#[test]
fn observers_are_passive_and_event_logs_deterministic() {
    let cfg = cfg(PolicyKind::Ls);
    let plain = SimBuilder::new(&cfg).run();
    let mut sink_a = JsonlSink::new(Vec::new());
    let observed = SimBuilder::new(&cfg).run_observed(&mut sink_a);
    assert_same(&plain, &observed, "run vs run_observed");
    let mut sink_b = JsonlSink::new(Vec::new());
    SimBuilder::new(&cfg).run_observed(&mut sink_b);
    let log_a = sink_a.finish().expect("log written");
    let log_b = sink_b.finish().expect("log written");
    assert!(!log_a.is_empty(), "the observed run must log events");
    assert_eq!(log_a, log_b, "JSONL event logs must be byte-identical");
}

#[test]
fn trace_runs_are_deterministic() {
    let log = generate_das1_log(&DasLogConfig { jobs: 2_000, ..DasLogConfig::default() });
    let cfg = cfg(PolicyKind::Gs);
    let a = SimBuilder::new(&cfg).trace(&log, 10.0).run();
    let b = SimBuilder::new(&cfg).trace(&log, 10.0).run();
    assert_same(&a, &b, "trace");
    let mut sink = JsonlSink::new(Vec::new());
    let observed = SimBuilder::new(&cfg).trace(&log, 10.0).run_observed(&mut sink);
    assert_same(&a, &observed, "trace vs observed trace");
    assert!(!sink.finish().expect("log written").is_empty());
}

#[test]
fn an_explicit_feed_matches_the_all_in_one_stochastic_path() {
    let cfg = cfg(PolicyKind::Gs);
    let offered = cfg.offered_gross_utilization();
    let explicit = SimBuilder::new(&cfg).feed(&mut feed_for(&cfg), offered).run();
    // The all-in-one path builds the identical feed internally.
    assert_same(&explicit, &SimBuilder::new(&cfg).run(), "feed vs run");
    // A builder holds one source: a later setter replaces an earlier one.
    let log = generate_das1_log(&DasLogConfig { jobs: 2_000, ..DasLogConfig::default() });
    let replaced = SimBuilder::new(&cfg).trace(&log, 10.0).feed(&mut feed_for(&cfg), offered).run();
    assert_same(&explicit, &replaced, "trace replaced by feed");
}

#[test]
fn feed_observed_matches_feed_and_logs_deterministically() {
    let cfg = cfg(PolicyKind::Lp);
    let offered = cfg.offered_gross_utilization();
    let plain = SimBuilder::new(&cfg).feed(&mut feed_for(&cfg), offered).run();
    let mut sink_a = JsonlSink::new(Vec::new());
    let observed =
        SimBuilder::new(&cfg).feed(&mut feed_for(&cfg), offered).run_observed(&mut sink_a);
    assert_same(&plain, &observed, "feed vs observed feed");
    let mut sink_b = JsonlSink::new(Vec::new());
    SimBuilder::new(&cfg).feed(&mut feed_for(&cfg), offered).run_observed(&mut sink_b);
    assert_eq!(
        sink_a.finish().expect("log written"),
        sink_b.finish().expect("log written"),
        "JSONL event logs must be byte-identical"
    );
}

#[test]
fn an_explicit_scheduler_reproduces_the_config_built_one() {
    let cfg = cfg(PolicyKind::Gb);
    let offered = cfg.offered_gross_utilization();
    let build_policy = || {
        cfg.policy.build(
            &cfg.system,
            cfg.routing.clone(),
            RngStream::new(cfg.seed).labelled("routing"),
            cfg.rule,
        )
    };
    let mut sink = JsonlSink::new(Vec::new());
    let explicit = SimBuilder::new(&cfg)
        .scheduler(build_policy())
        .occupancy(OccupancyModel::Faithful)
        .feed(&mut feed_for(&cfg), offered)
        .run_observed(&mut sink);
    assert!(!sink.finish().expect("log written").is_empty());
    // The explicit scheduler path reproduces the config-built one.
    assert_same(&explicit, &SimBuilder::new(&cfg).run(), "explicit scheduler vs run");
}
