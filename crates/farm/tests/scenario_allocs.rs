//! The allocation budget of one quick scenario: building, booting,
//! running and tearing down a kernel for one `--quick` seed costs a
//! bounded number of allocator calls.
//!
//! Seed expansion happens before the count starts, so every call the
//! count sees is the scenario run's own: the kernel and its T-THREAD
//! records, the engine's events and processes, the measurement sinks
//! and the outcome.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. The count is per thread and `run_scenario` runs the whole
//! simulation on the calling thread, so tests running on other threads
//! cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtk_farm::{run_scenario, RunPlan, ScenarioSpec, Tuning};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made so far on
/// the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down. A const-initialized `Cell` never allocates itself.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract; counting only touches a
// thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
    // is passed on to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller gave us (see above).
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as for `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // `layout`; every block did come from `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: as for `realloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Quick seeds 1..=200 under the default plan (nothing attached) cost
/// fewer than 200 allocation calls per scenario. A run makes about 181.
/// A name string on every engine event and process, five `format!`-made
/// event names per T-THREAD among them, cost about 200 more; a process
/// and two events per cyclic and alarm handler, and two unused events
/// per task and timer record, cost about 35 more; two buffers that
/// staged each tick's due timer actions cost about 2 more.
#[test]
fn quick_scenario_allocates_a_bounded_amount() {
    const SEEDS: u64 = 200;
    let tuning = Tuning {
        quick: true,
        faults: true,
    };
    let specs: Vec<ScenarioSpec> = (1..=SEEDS)
        .map(|seed| ScenarioSpec::generate(seed, &tuning))
        .collect();
    let before = allocs();
    let mut releases = 0;
    for spec in &specs {
        let (outcome, _) = run_scenario(spec, &RunPlan::default());
        releases += outcome.releases;
    }
    let per_scenario = (allocs() - before) as f64 / SEEDS as f64;
    // The runs really did the work the budget is about.
    assert!(releases > 0);
    assert!(
        per_scenario < 200.0,
        "{per_scenario:.1} allocation calls per quick scenario"
    );
}
