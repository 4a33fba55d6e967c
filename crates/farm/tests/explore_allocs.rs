//! The explorer's allocation budget: walking a family's schedule tree
//! costs a bounded number of allocator calls per visited state.
//!
//! An explored state should cost no allocation once the walk is warm:
//! the last candidate of a frontier steps its parent itself, a sibling
//! copy is cloned into a spent state box whose buffers it reuses,
//! event tails and frontier scratch live in buffers the walk reuses,
//! and a spec step allocates nothing. This binary pins that the walker
//! does not copy, rebuild and free state that decides nothing. The
//! count covers the whole run: `mtx` and `irq` also build and run their
//! kernel twin once.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. The count is per thread and `run_exploration` is
//! single-threaded, so tests running on other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtk_farm::{run_exploration, ExploreConfig, Family};

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

/// Allocation calls per visited state of one exploration of `family`
/// (POR on or off), with the state count it divides by.
fn allocs_per_state(family: Family, por: bool) -> (f64, u64) {
    let cfg = ExploreConfig {
        family,
        por,
        ..ExploreConfig::default()
    };
    let before = allocs();
    let out = run_exploration(&cfg, sysc::Runtime::default());
    let made = allocs() - before;
    let states = out.report.states;
    (made as f64 / states as f64, states)
}

/// Allocation calls per visited state stay under 3 on `mtx`, `irq`
/// and `chain`, POR on and off, and under 8 on `deadlock`, whose 8
/// states share the model build, the report and the deadlock
/// counterexample. The whole run counts, kernel twin and report
/// included: about 0.7 on `irq`, 1.1 on `chain`, 1.3 to 1.4 on `mtx`
/// and 6.6 on `deadlock`. A walker that allocates a fresh copy for
/// every sibling candidate makes 1.9 to 2.7 on `mtx` and 4.0 to 4.4 on
/// `irq`, and one that also copies for the last candidate and
/// allocates scratch for each step makes 18 to 23.
#[test]
fn exploration_allocates_a_bounded_amount_per_state() {
    for (family, por, states, bound) in [
        (Family::Mtx, true, 339, 3.0),
        (Family::Mtx, false, 363, 3.0),
        (Family::Irq, true, 1032, 3.0),
        (Family::Irq, false, 1049, 3.0),
        (Family::Chain, true, 44, 3.0),
        (Family::Chain, false, 44, 3.0),
        (Family::Deadlock, true, 8, 8.0),
        (Family::Deadlock, false, 8, 8.0),
    ] {
        let (per_state, seen) = allocs_per_state(family, por);
        // The walk really visited the pinned tree it claims to measure.
        assert_eq!(seen, states, "{family} por={por}: visited states");
        assert!(
            per_state < bound,
            "{family} por={por}: {per_state:.1} allocation calls per visited state"
        );
    }
}
