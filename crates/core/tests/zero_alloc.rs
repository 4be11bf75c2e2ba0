//! Proves the Scheduler allocation-free contract with a counting global
//! allocator: in the steady-state event cycle — departure release,
//! queue re-enable, scheduling pass, including passes that *start* jobs
//! — the simulator performs **zero** heap allocations (placements of
//! paper-scale jobs are stored inline in the job's state). The
//! placement kernels are held to the same contract on their own: a
//! failed attempt allocates nothing at any width, and a fitting one of
//! up to four components, whatever the request kind, neither.
//!
//! This is a single `#[test]` in its own integration-test binary on
//! purpose: the counter is process-global, so concurrently running
//! tests would pollute the measured sections.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use coalloc_core::audit::NullObserver;
use coalloc_core::job::{ActiveJob, JobId, JobTable, SubmitQueue};
use coalloc_core::placement::{place_flexible, place_ordered, place_unordered, PlacementRule};
use coalloc_core::policy::PolicyKind;
use coalloc_core::system::{MultiCluster, SystemSpec};
use coalloc_workload::{JobRequest, JobSpec, QueueRouting};
use desim::{Duration, RngStream, SimTime};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns `(result, allocations, frees)` performed by it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let f0 = FREES.load(Ordering::Relaxed);
    let out = f();
    let a1 = ALLOCS.load(Ordering::Relaxed);
    let f1 = FREES.load(Ordering::Relaxed);
    (out, a1 - a0, f1 - f0)
}

fn spec(components: &[u32]) -> JobSpec {
    JobSpec { request: JobRequest::new(components.to_vec()), base_service: Duration::new(100.0) }
}

fn submit(
    table: &mut JobTable,
    policy: &mut Box<dyn coalloc_core::policy::Scheduler>,
    components: &[u32],
    queue: SubmitQueue,
) -> JobId {
    let id = table.insert(ActiveJob::new(spec(components), SimTime::ZERO, queue));
    policy.enqueue(id, queue);
    id
}

/// Releases a started job's processors and runs the departure hook —
/// exactly what the event loop does on `SimEvent::Departure`.
fn depart(
    table: &JobTable,
    system: &mut MultiCluster,
    policy: &mut Box<dyn coalloc_core::policy::Scheduler>,
    id: JobId,
) {
    let placement = table.get(id).placement.as_ref().expect("job was started");
    system.release(placement);
    policy.on_departure();
}

#[test]
fn steady_state_event_cycle_is_allocation_free() {
    let mut obs = NullObserver;
    let now = SimTime::ZERO;

    // ---- GS: global queue over the 4×32 multicluster ----
    let mut system = MultiCluster::new(&[32, 32, 32, 32]);
    let mut policy = PolicyKind::Gs.build(
        &SystemSpec::das_multicluster(),
        QueueRouting::balanced(4),
        RngStream::new(7),
        PlacementRule::WorstFit,
    );
    let mut table = JobTable::new();
    let mut started: Vec<JobId> = Vec::with_capacity(16);

    // Warm-up (allocations allowed): fill the whole system, then queue a
    // job that cannot start; the pass that rejects it disables the queue
    // and warms every internal buffer.
    let filler = submit(&mut table, &mut policy, &[32, 32, 32, 32], SubmitQueue::Global);
    started.clear();
    policy.schedule_into(now, &mut system, &mut table, &mut obs, &mut started);
    assert_eq!(started, vec![filler]);
    let waiting = submit(&mut table, &mut policy, &[8], SubmitQueue::Global);
    started.clear();
    policy.schedule_into(now, &mut system, &mut table, &mut obs, &mut started);
    assert!(started.is_empty());

    // Steady state, section 1: a scheduling pass that starts nothing.
    let ((), a, f) = counted(|| {
        started.clear();
        policy.schedule_into(now, &mut system, &mut table, &mut obs, &mut started);
    });
    assert!(started.is_empty());
    assert_eq!((a, f), (0, 0), "GS no-start pass must not touch the heap");

    // Section 2: departure release + queue re-enable.
    let ((), a, f) = counted(|| depart(&table, &mut system, &mut policy, filler));
    assert_eq!((a, f), (0, 0), "GS departure release must not touch the heap");

    // Section 3: a pass that starts one job is also allocation-free —
    // the Placement is stored inline in the job's state.
    let ((), a, f) = counted(|| {
        started.clear();
        policy.schedule_into(now, &mut system, &mut table, &mut obs, &mut started);
    });
    assert_eq!(started, vec![waiting]);
    assert_eq!((a, f), (0, 0), "GS start pass must not touch the heap");

    // ---- LS: per-cluster local queues, disable/re-enable bookkeeping ----
    let mut system = MultiCluster::new(&[32, 32, 32, 32]);
    let mut policy = PolicyKind::Ls.build(
        &SystemSpec::das_multicluster(),
        QueueRouting::balanced(4),
        RngStream::new(7),
        PlacementRule::WorstFit,
    );
    let mut table = JobTable::new();

    // Warm-up: fill all four clusters from their local queues, then
    // block queue 0 so it gets disabled (warming the disable list).
    let fillers: Vec<JobId> =
        (0..4).map(|q| submit(&mut table, &mut policy, &[32], SubmitQueue::Local(q))).collect();
    started.clear();
    policy.schedule_into(now, &mut system, &mut table, &mut obs, &mut started);
    assert_eq!(started.len(), 4);
    let waiting = submit(&mut table, &mut policy, &[16], SubmitQueue::Local(0));
    started.clear();
    policy.schedule_into(now, &mut system, &mut table, &mut obs, &mut started);
    assert!(started.is_empty(), "queue 0 head does not fit its full cluster");

    // Steady state: departure on cluster 0 re-enables queue 0 in place…
    let ((), a, f) = counted(|| depart(&table, &mut system, &mut policy, fillers[0]));
    assert_eq!((a, f), (0, 0), "LS departure + re-enable must not touch the heap");

    // …and the next pass starts the waiting local job, touching no heap.
    let ((), a, f) = counted(|| {
        started.clear();
        policy.schedule_into(now, &mut system, &mut table, &mut obs, &mut started);
    });
    assert_eq!(started, vec![waiting]);
    assert_eq!((a, f), (0, 0), "LS start pass must not touch the heap");

    // ---- Placement kernels on their own ----
    // A failed six-component attempt on eight clusters: wider than the
    // inline storage, yet it writes no pairs and allocates nothing.
    let idle = [32, 32, 32, 32, 32, 4, 4, 4];
    let (p, a, f) =
        counted(|| place_unordered(&idle, &[16, 16, 16, 16, 16, 16], PlacementRule::WorstFit));
    assert!(p.is_none(), "the sixth component finds no cluster");
    assert_eq!((a, f), (0, 0), "a failed wide attempt must not touch the heap");

    // A fitting ordered placement of four components.
    let (p, a, f) = counted(|| place_ordered(&idle, &[8, 8, 4, 4], &[0, 2, 5, 7]));
    assert_eq!(p.expect("fits").assignments(), &[(0, 8), (2, 8), (5, 4), (7, 4)]);
    assert_eq!((a, f), (0, 0), "a fitting ordered placement must not touch the heap");

    // A fitting flexible placement split over four clusters.
    let idle = [10, 30, 4, 20];
    let (p, a, f) = counted(|| place_flexible(&idle, 62, PlacementRule::WorstFit));
    assert_eq!(p.expect("fits").assignments(), &[(1, 30), (3, 20), (0, 10), (2, 2)]);
    assert_eq!((a, f), (0, 0), "a fitting flexible placement must not touch the heap");
}
