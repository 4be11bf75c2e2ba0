//! Maximal-utilization measurement (§4, Table 3).
//!
//! "In these simulations, we maintain a constant backlog and observe the
//! time-average fraction of processors being busy, which yields the
//! maximal gross utilization."
//!
//! The queue(s) are never allowed to drain: whenever the backlog falls
//! below a floor, fresh jobs are appended at the current simulation time.
//! After a warm-up period the time-average busy fraction converges to the
//! saturation throughput of the policy. The paper applies the method to
//! the single-global-queue policies (GS and SC); it is implemented for
//! every policy here, but for LS/LP the result depends on the backlog
//! composition, so Table 3 only reports GS and SC.

use coalloc_workload::{QueueRouting, Workload};
use desim::{RngStream, SimTime, Simulation};

use crate::experiment::{CancelReason, CancelToken, WorkerPool};
use crate::job::{ActiveJob, JobId, JobTable};
use crate::placement::PlacementRule;
use crate::policy::{PolicyKind, Scheduler};
use crate::system::{MultiCluster, SystemSpec};

/// Configuration of a constant-backlog saturation run.
#[derive(Clone, Debug)]
pub struct SaturationConfig {
    /// The scheduling policy under test.
    pub policy: PolicyKind,
    /// The workload model.
    pub workload: Workload,
    /// Routing of backlog refills to local queues (LS/LP).
    pub routing: QueueRouting,
    /// The system's shape: cluster count and per-cluster capacities.
    pub system: SystemSpec,
    /// Backlog floor: refill whenever fewer jobs wait.
    pub backlog: usize,
    /// Departures to discard as warm-up.
    pub warmup_departures: u64,
    /// Departures to measure over after warm-up.
    pub measured_departures: u64,
    /// Placement rule.
    pub rule: PlacementRule,
    /// Master seed.
    pub seed: u64,
}

impl SaturationConfig {
    /// Table 3's setup: GS on the 4×32 multicluster under the DAS
    /// workload with the given component-size limit.
    pub fn das_gs(limit: u32) -> Self {
        SaturationConfig {
            policy: PolicyKind::Gs,
            workload: Workload::das(limit),
            routing: QueueRouting::balanced(4),
            system: SystemSpec::das_multicluster(),
            backlog: 50,
            warmup_departures: 3_000,
            measured_departures: 30_000,
            rule: PlacementRule::WorstFit,
            seed: 2003,
        }
    }

    /// The SC baseline: FCFS over one 128-processor cluster with total
    /// requests.
    pub fn das_sc() -> Self {
        SaturationConfig {
            policy: PolicyKind::Sc,
            workload: Workload::single_cluster(),
            routing: QueueRouting::balanced(1),
            system: SystemSpec::das_single_cluster(),
            ..SaturationConfig::das_gs(16)
        }
    }

    fn capacity(&self) -> u32 {
        self.system.total_capacity()
    }
}

/// The outcome of a saturation run.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct SaturationResult {
    /// Maximal gross utilization: time-average busy fraction under
    /// constant backlog.
    pub max_gross_utilization: f64,
    /// Maximal net utilization: gross divided by the workload's
    /// gross/net ratio (§4).
    pub max_net_utilization: f64,
    /// Departures measured.
    pub departures: u64,
    /// Measurement window in simulated seconds.
    pub window_seconds: f64,
}

/// Runs a constant-backlog simulation and returns the maximal
/// utilizations.
pub fn maximal_utilization(cfg: &SaturationConfig) -> SaturationResult {
    assert!(cfg.backlog > 0, "backlog must be positive");
    assert!(cfg.measured_departures > 0);

    let master = RngStream::new(cfg.seed);
    let mut size_rng = master.labelled("sizes");
    let mut service_rng = master.labelled("service");
    let routing_rng = master.labelled("routing");

    let mut system = MultiCluster::from_spec(&cfg.system);
    let mut policy: Box<dyn Scheduler> =
        cfg.policy.build(&cfg.system, cfg.routing.clone(), routing_rng, cfg.rule);
    let mut table = JobTable::new();

    let mut sim: Simulation<JobId> = Simulation::new();
    let mut busy = desim::TimeWeighted::new(SimTime::ZERO, 0.0);
    let mut departures: u64 = 0;
    let mut window_start = SimTime::ZERO;
    let total = cfg.warmup_departures + cfg.measured_departures;

    // Refill the backlog, run a scheduling pass, schedule departures.
    // `started` is the caller-owned scratch of the Scheduler contract,
    // reused across every pass of the run.
    let mut refill_and_schedule = |sim: &mut Simulation<JobId>,
                                   policy: &mut Box<dyn Scheduler>,
                                   system: &mut MultiCluster,
                                   table: &mut JobTable,
                                   busy: &mut desim::TimeWeighted,
                                   started: &mut Vec<JobId>| {
        let now = sim.now();
        while policy.queued() < cfg.backlog {
            let spec = cfg.workload.sample(&mut size_rng, &mut service_rng);
            let queue = policy.route(&spec);
            let id = table.insert(ActiveJob::new(spec, now, queue));
            policy.enqueue(id, queue);
        }
        started.clear();
        policy.schedule_into(now, system, table, &mut crate::audit::NullObserver, started);
        for &id in started.iter() {
            let occupancy = table.get(id).occupancy_in(&cfg.workload);
            busy.add(now, f64::from(table.get(id).spec.request.total()));
            sim.schedule_at(now + occupancy, id);
        }
    };

    let mut started: Vec<JobId> = Vec::new();
    refill_and_schedule(&mut sim, &mut policy, &mut system, &mut table, &mut busy, &mut started);

    while departures < total {
        let Some(ev) = sim.step() else {
            panic!("constant-backlog run starved: no running jobs left");
        };
        let now = sim.now();
        let id = ev.payload;
        // Borrow (not clone) the placement out of the table for release.
        let placement = table.get(id).placement.as_ref().expect("job was started");
        system.release(placement);
        let released = f64::from(placement.total());
        busy.add(now, -released);
        policy.on_departure();
        departures += 1;
        if departures == cfg.warmup_departures {
            busy.reset_window(now);
            window_start = now;
        }
        refill_and_schedule(
            &mut sim,
            &mut policy,
            &mut system,
            &mut table,
            &mut busy,
            &mut started,
        );
    }

    let now = sim.now();
    let gross = busy.average(now) / f64::from(cfg.capacity());
    let ratio = cfg.workload.gross_net_ratio();
    SaturationResult {
        max_gross_utilization: gross,
        max_net_utilization: gross / ratio,
        departures: departures - cfg.warmup_departures,
        window_seconds: (now - window_start).seconds(),
    }
}

/// Replication plan for the open-system probes of
/// [`bisect_max_utilization`]: each probe utilization is classified by
/// a majority vote over `replications` independent runs, executed on
/// the caller's worker pool. Replication seeds are derived from each
/// probe config's own seed via [`crate::experiment::replication_seed`],
/// so every probe utilization sees common random numbers.
#[derive(Clone, Copy, Debug)]
pub struct ProbePlan {
    /// Independent runs per probe (majority vote decides saturation).
    pub replications: u64,
}

impl ProbePlan {
    /// One probe under a cooperative token: `Err` as soon as the token
    /// fires (tasks already running finish; the vote is abandoned).
    fn saturated<F>(
        &self,
        pool: &WorkerPool,
        make_cfg: &F,
        util: f64,
        cancel: Option<&CancelToken>,
    ) -> Result<bool, CancelReason>
    where
        F: Fn(f64) -> crate::sim::SimConfig,
    {
        assert!(self.replications > 0, "probe needs at least one replication");
        let cfgs: Vec<crate::sim::SimConfig> = (0..self.replications)
            .map(|rep| {
                let cfg = make_cfg(util);
                let seed = crate::experiment::replication_seed(cfg.seed, rep);
                cfg.with_seed(seed)
            })
            .collect();
        let results = pool.run_cancellable(cfgs, false, cancel);
        let mut outcomes = Vec::with_capacity(results.len());
        for slot in results {
            match slot {
                Some(result) => outcomes
                    .push(result.unwrap_or_else(|cause| panic!("replication panicked: {cause}"))),
                None => {
                    return Err(cancel
                        .and_then(CancelToken::state)
                        .unwrap_or(CancelReason::Cancelled))
                }
            }
        }
        let votes = outcomes.iter().filter(|o| o.saturated).count();
        Ok(2 * votes > outcomes.len())
    }
}

/// Why [`bisect_max_utilization`] returned no boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BisectError {
    /// The caller's token fired before the search finished.
    Cancelled(CancelReason),
    /// `lo` is already saturated, so the threshold lies below it.
    SaturatedLo(f64),
    /// `hi` is still stable, so the threshold lies above it.
    StableHi(f64),
}

impl From<CancelReason> for BisectError {
    fn from(reason: CancelReason) -> Self {
        BisectError::Cancelled(reason)
    }
}

impl core::fmt::Display for BisectError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BisectError::Cancelled(reason) => write!(f, "bisection {}", reason.label()),
            BisectError::SaturatedLo(lo) => {
                write!(f, "bisection bracket invalid: lo = {lo} is already saturated; lower lo")
            }
            BisectError::StableHi(hi) => write!(
                f,
                "bisection bracket invalid: hi = {hi} is still stable; \
                 the saturation point lies above hi"
            ),
        }
    }
}

impl std::error::Error for BisectError {}

/// Finds the maximal stable utilization of *any* policy by bisection on
/// open-system runs: the paper's constant-backlog method is only valid
/// for single-global-queue policies (GS, SC), while this search works
/// for LS and LP too — the backlog at the end of the arrival process
/// tells stable from unstable.
///
/// Each probe utilization is classified by a majority vote over
/// `plan.replications` runs on substream-derived seeds, executed on
/// `pool`, so one unlucky seed near the threshold cannot flip a
/// bracket. The search narrows `[lo, hi]` until `hi - lo <= tolerance`
/// (or until no double lies strictly between them, so a tolerance
/// below the spacing of doubles still terminates) and returns the last
/// stable utilization found.
///
/// `cancel`, when given, is checked between probes (and between a
/// probe's replications, inside the pool): once it fires the search
/// returns [`BisectError::Cancelled`] instead of a boundary. A later
/// uncancelled search re-probes from scratch and lands on the same
/// deterministic answer.
///
/// `[lo, hi]` must bracket the saturation threshold: `lo` stable and
/// `hi` saturated. Both ends are probed first, also in release builds,
/// and a failed end returns [`BisectError::SaturatedLo`] or
/// [`BisectError::StableHi`] — an unchecked bracket silently converges
/// to the nearest bound and reports it as the saturation point, which
/// is a wrong *number*, not an error.
///
/// # Panics
/// Panics unless `0 < lo < hi <= 2`, `tolerance > 0` and
/// `plan.replications > 0`.
pub fn bisect_max_utilization<F>(
    pool: &WorkerPool,
    make_cfg: F,
    mut lo: f64,
    mut hi: f64,
    tolerance: f64,
    plan: &ProbePlan,
    cancel: Option<&CancelToken>,
) -> Result<f64, BisectError>
where
    F: Fn(f64) -> crate::sim::SimConfig,
{
    assert!(0.0 < lo && lo < hi && hi <= 2.0, "search bounds must satisfy 0 < lo < hi <= 2");
    assert!(tolerance > 0.0);
    // The bounds must bracket the threshold. These probes are the
    // price of a trustworthy answer.
    if plan.saturated(pool, &make_cfg, lo, cancel)? {
        return Err(BisectError::SaturatedLo(lo));
    }
    if !plan.saturated(pool, &make_cfg, hi, cancel)? {
        return Err(BisectError::StableHi(hi));
    }
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        // Adjacent doubles: the midpoint rounds onto a bound and the
        // bracket can narrow no further.
        if !(lo < mid && mid < hi) {
            break;
        }
        if plan.saturated(pool, &make_cfg, mid, cancel)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mut cfg: SaturationConfig) -> SaturationConfig {
        cfg.warmup_departures = 500;
        cfg.measured_departures = 4_000;
        cfg
    }

    #[test]
    fn saturation_is_between_zero_and_one() {
        let r = maximal_utilization(&quick(SaturationConfig::das_gs(16)));
        assert!(
            r.max_gross_utilization > 0.3 && r.max_gross_utilization < 1.0,
            "gross {}",
            r.max_gross_utilization
        );
        assert!(r.max_net_utilization < r.max_gross_utilization);
        assert!(r.window_seconds > 0.0);
        assert_eq!(r.departures, 4_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = quick(SaturationConfig::das_gs(24));
        let a = maximal_utilization(&cfg);
        let b = maximal_utilization(&cfg);
        assert_eq!(a.max_gross_utilization, b.max_gross_utilization);
    }

    #[test]
    fn single_size_jobs_saturate_fully() {
        // Jobs of exactly one cluster each: the backlog keeps every
        // cluster permanently busy -> utilization ≈ 1.
        let mut cfg = quick(SaturationConfig::das_gs(32));
        cfg.workload.sizes = coalloc_workload::JobSizeDist::custom("32s", &[(32, 1.0)]);
        cfg.workload.extension = 1.0;
        let r = maximal_utilization(&cfg);
        assert!(r.max_gross_utilization > 0.999, "gross {}", r.max_gross_utilization);
        assert!((r.max_net_utilization - r.max_gross_utilization).abs() < 1e-9);
    }

    /// An uncancelled search on a fresh pool.
    fn try_search<F: Fn(f64) -> crate::sim::SimConfig>(
        make_cfg: F,
        lo: f64,
        hi: f64,
        tolerance: f64,
        replications: u64,
    ) -> Result<f64, BisectError> {
        let pool = WorkerPool::new(2);
        let plan = ProbePlan { replications };
        bisect_max_utilization(&pool, make_cfg, lo, hi, tolerance, &plan, None)
    }

    /// [`try_search`] on a bracket that brackets.
    fn search<F: Fn(f64) -> crate::sim::SimConfig>(
        make_cfg: F,
        lo: f64,
        hi: f64,
        tolerance: f64,
        replications: u64,
    ) -> f64 {
        try_search(make_cfg, lo, hi, tolerance, replications).expect("a valid bracket")
    }

    #[test]
    fn bisection_matches_constant_backlog_for_gs() {
        // The two methods estimate the same quantity for GS.
        let backlog = {
            let mut cfg = quick(SaturationConfig::das_gs(16));
            cfg.measured_departures = 10_000;
            maximal_utilization(&cfg).max_gross_utilization
        };
        let bisect = search(
            |util| {
                let mut cfg = crate::sim::SimConfig::das(PolicyKind::Gs, 16, util);
                cfg.total_jobs = 12_000;
                cfg.warmup_jobs = 1_200;
                cfg
            },
            0.3,
            1.0,
            0.02,
            1,
        );
        assert!(
            (bisect - backlog).abs() < 0.06,
            "bisection {bisect:.3} vs constant-backlog {backlog:.3}"
        );
    }

    /// A tiny open-system config for the bracket-validation tests.
    fn tiny_cfg(util: f64) -> crate::sim::SimConfig {
        let mut cfg = crate::sim::SimConfig::das(PolicyKind::Gs, 16, util);
        cfg.total_jobs = 400;
        cfg.warmup_jobs = 50;
        cfg
    }

    #[test]
    fn bisection_rejects_a_stable_hi() {
        // Both ends stable: the old code silently converged to ~hi and
        // reported a bound, not a measurement. Now it is an error.
        let err = try_search(tiny_cfg, 0.05, 0.2, 0.05, 1).unwrap_err();
        assert_eq!(err, BisectError::StableHi(0.2));
        assert!(err.to_string().contains("still stable"), "{err}");
    }

    #[test]
    fn bisection_rejects_a_saturated_lo() {
        // Checked unconditionally — the old debug_assert! (with a
        // different message) vanished entirely in release builds.
        let err = try_search(tiny_cfg, 1.5, 1.8, 0.05, 1).unwrap_err();
        assert_eq!(err, BisectError::SaturatedLo(1.5));
        assert!(err.to_string().contains("already saturated"), "{err}");
    }

    #[test]
    fn a_tolerance_below_double_spacing_still_terminates() {
        // Once lo and hi are adjacent doubles the midpoint rounds onto
        // one of them and `hi - lo > 1e-300` never becomes false; the
        // search must stop there instead of probing forever. About 55
        // probes reach adjacency from [0.3, 1.2]; the cap turns a
        // runaway search into a failure instead of a hang.
        let calls = std::cell::Cell::new(0u32);
        let capped = |util: f64| {
            calls.set(calls.get() + 1);
            assert!(calls.get() <= 200, "bisection still probing after 200 configs");
            tiny_cfg(util)
        };
        let r = search(capped, 0.3, 1.2, 1e-300, 1);
        assert!((0.3..1.2).contains(&r), "threshold estimate {r}");
    }

    #[test]
    fn replicated_bisection_brackets_the_threshold() {
        let make = |util: f64| {
            let mut cfg = crate::sim::SimConfig::das(PolicyKind::Gs, 16, util);
            cfg.total_jobs = 3_000;
            cfg.warmup_jobs = 300;
            cfg
        };
        let r = search(make, 0.3, 1.2, 0.1, 3);
        assert!((0.4..1.0).contains(&r), "threshold estimate {r}");
        // Deterministic: the vote and bisection depend only on seeds.
        let again = search(make, 0.3, 1.2, 0.1, 3);
        assert_eq!(r, again);
    }

    #[test]
    fn sc_baseline_runs() {
        let r = maximal_utilization(&quick(SaturationConfig::das_sc()));
        assert!(
            r.max_gross_utilization > 0.4 && r.max_gross_utilization < 1.0,
            "gross {}",
            r.max_gross_utilization
        );
    }
}
