//! The raw stackful context switch and the recycling stack pool.
//!
//! A coroutine context is nothing but a saved stack pointer: the switch
//! pushes every callee-saved register of the C ABI onto the *current*
//! stack, stores `rsp`/`sp` into the outgoing context's save slot,
//! loads the incoming context's saved stack pointer and pops the same
//! registers back. Caller-saved registers need no treatment — from the
//! compiler's point of view `rtk_sysc_ctx_switch` is an ordinary
//! `extern "C"` call, so it has already spilled everything else.
//!
//! # Bootstrap
//!
//! A coroutine that has never run has no pushed registers yet, so
//! [`init_stack`] forges the frame the switch expects: zeroed register
//! slots and a "return address" pointing at the entry trampoline. The
//! first switch into the context pops the zeros and `ret`s straight
//! into the trampoline, on the fresh stack, with the alignment a
//! normal `call` would have produced (x86-64: `rsp ≡ 8 (mod 16)` at
//! function entry; aarch64: `sp` 16-aligned).
//!
//! # Safety argument
//!
//! * The save slot written by the switch lives in a heap allocation
//!   (`Rc`-pinned) that outlives every switch through it.
//! * Exactly one context per OS thread executes at any instant; the
//!   switch is only ever called by the single-threaded coroutine
//!   runtime ([`super::coro`]), which tracks the current context — so
//!   no stack is ever entered twice concurrently.
//! * Unwinding never crosses a switch frame: every coroutine body runs
//!   under `catch_unwind` *inside* its own stack, and the entry
//!   trampoline is `extern "C"` (unwind past it aborts).
//! * Floating-point *control* state (`MXCSR`/`FPCR`, x87 CW) is not
//!   saved: the simulation never changes rounding or exception modes,
//!   and all FP *data* registers are caller-saved (x86-64 SysV) or
//!   saved explicitly (aarch64 `d8`–`d15`).
//!
//! # Stacks
//!
//! Stacks are plain 16-aligned heap allocations (no guard page: the
//! workspace is `std`-only by design, and `mmap`/`mprotect` are out of
//! reach without `libc`). Two mitigations bound the risk: the stacks
//! are generous ([`STACK_SIZE`]) compared to the shallow simulation
//! bodies, and a canary word at the low end is verified every time a
//! stack is recycled or dropped — an overflow deep enough to matter
//! trips it.
//!
//! The [`StackPool`] recycles stacks across simulations: farm campaigns
//! build thousands of short-lived simulations, and recycling a finished
//! coroutine's stack skips both the allocation and the page faults of
//! first touch.

use std::alloc::{alloc, dealloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Stack size of one coroutine (bytes). Thread-process bodies in this
/// workspace are shallow (RTOS service calls over the sysc wait
/// primitives); 512 KiB leaves two orders of magnitude of headroom.
pub(crate) const STACK_SIZE: usize = 512 * 1024;

/// Idle stacks kept by the global pool after a burst (the cap is about
/// peak-RSS hygiene after huge campaigns).
const MAX_IDLE: usize = 1024;

/// Written at the lowest addresses of every stack; checked on recycle
/// and drop. A coroutine overflowing its stack scribbles here first
/// (frames grow downward), so a tripped canary names the defect
/// instead of silent heap corruption.
const CANARY: u64 = 0x5AFE_57AC_0CA1_7A17_u64;

#[cfg(target_arch = "x86_64")]
core::arch::global_asm!(
    // System V AMD64: callee-saved rbx, rbp, r12-r15. 6 pushes keep
    // rsp ≡ 8 (mod 16) relative to the call, and the forged bootstrap
    // frame reproduces the same shape (see `init_stack`).
    ".text",
    ".globl rtk_sysc_ctx_switch",
    ".p2align 4",
    "rtk_sysc_ctx_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, [rsi]",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
);

#[cfg(target_arch = "aarch64")]
core::arch::global_asm!(
    // AAPCS64: callee-saved x19-x28, fp (x29), lr (x30) and the low 64
    // bits of v8-v15 (d8-d15). 20 slots = 160 bytes, 16-aligned.
    ".text",
    ".globl rtk_sysc_ctx_switch",
    ".p2align 4",
    "rtk_sysc_ctx_switch:",
    "sub sp, sp, #160",
    "stp x19, x20, [sp, #0]",
    "stp x21, x22, [sp, #16]",
    "stp x23, x24, [sp, #32]",
    "stp x25, x26, [sp, #48]",
    "stp x27, x28, [sp, #64]",
    "stp x29, x30, [sp, #80]",
    "stp d8,  d9,  [sp, #96]",
    "stp d10, d11, [sp, #112]",
    "stp d12, d13, [sp, #128]",
    "stp d14, d15, [sp, #144]",
    "mov x9, sp",
    "str x9, [x0]",
    "ldr x9, [x1]",
    "mov sp, x9",
    "ldp x19, x20, [sp, #0]",
    "ldp x21, x22, [sp, #16]",
    "ldp x23, x24, [sp, #32]",
    "ldp x25, x26, [sp, #48]",
    "ldp x27, x28, [sp, #64]",
    "ldp x29, x30, [sp, #80]",
    "ldp d8,  d9,  [sp, #96]",
    "ldp d10, d11, [sp, #112]",
    "ldp d12, d13, [sp, #128]",
    "ldp d14, d15, [sp, #144]",
    "add sp, sp, #160",
    "ret",
);

extern "C" {
    /// Saves the current execution context's stack pointer into
    /// `*save`, restores the one in `*load`, and continues executing
    /// there. Returns (into the *saved* context) only when some later
    /// switch restores it.
    ///
    /// # Safety
    ///
    /// `*load` must hold a stack pointer produced by a previous save
    /// through this function or forged by [`init_stack`], its stack
    /// must be live and not currently executing, and both slots must
    /// stay valid for the whole suspension.
    pub(crate) fn rtk_sysc_ctx_switch(save: *mut *mut u8, load: *const *mut u8);
}

/// One heap-allocated coroutine stack (16-aligned, canary-armed).
pub(crate) struct CoroStack {
    base: *mut u8,
    size: usize,
}

// SAFETY: the stack is plain memory; ownership (and therefore any
// access) moves with the struct.
unsafe impl Send for CoroStack {}

impl CoroStack {
    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 16).expect("stack layout")
    }

    fn new(size: usize) -> Self {
        // SAFETY: non-zero size, valid 16-byte alignment.
        let base = unsafe { alloc(Self::layout(size)) };
        assert!(!base.is_null(), "coroutine stack allocation failed");
        let s = CoroStack { base, size };
        // SAFETY: the first 8 bytes belong to the allocation.
        unsafe { (s.base as *mut u64).write(CANARY) };
        s
    }

    /// One-past-the-highest address (the initial stack pointer grows
    /// down from here).
    pub(crate) fn top(&self) -> *mut u8 {
        // SAFETY: one-past-the-end of the allocation is a valid
        // provenance-carrying pointer.
        unsafe { self.base.add(self.size) }
    }

    /// `false` once the canary word has been overwritten (stack
    /// overflow happened at some point of the stack's tenure).
    pub(crate) fn canary_intact(&self) -> bool {
        // SAFETY: the first 8 bytes belong to the allocation.
        unsafe { (self.base as *const u64).read() == CANARY }
    }
}

impl Drop for CoroStack {
    fn drop(&mut self) {
        // No canary assert here: drop may run during an unwind (e.g.
        // the give-back check just fired) and a panicking destructor
        // aborts. `give_back` is the checked path.
        // SAFETY: `base` came from `alloc` with this exact layout.
        unsafe { dealloc(self.base, Self::layout(self.size)) };
    }
}

/// Forges the bootstrap frame on a fresh stack so the first switch into
/// it `ret`s into `entry`; returns the initial saved stack pointer.
///
/// `entry` must never return: the slot above it holds a null "return
/// address" so an accidental return faults immediately instead of
/// executing garbage.
pub(crate) fn init_stack(stack: &CoroStack, entry: extern "C" fn() -> !) -> *mut u8 {
    let top = stack.top() as *mut u64;
    init_stack_arch(top, entry as usize as u64)
}

// Layout (descending): [top-8] null guard, [top-16] entry, then six
// zeroed callee-saved slots. After the restore sequence pops the
// zeros and `ret`s, execution is at `entry` with rsp = top-8 —
// exactly the alignment a `call entry` would have left.
#[cfg(target_arch = "x86_64")]
fn init_stack_arch(top: *mut u64, entry: u64) -> *mut u8 {
    // SAFETY: all writes land within the topmost 64 bytes of the
    // caller-owned stack allocation.
    unsafe {
        top.sub(1).write(0);
        top.sub(2).write(entry);
        for i in 3..=8 {
            top.sub(i).write(0);
        }
        top.sub(8) as *mut u8
    }
}

// Layout: the 160-byte register frame at [top-160], all zero except
// the x30 (lr) slot at offset 88, which carries `entry`; the final
// `ret` branches there with sp = top (16-aligned). x29 = 0
// terminates backtraces.
#[cfg(target_arch = "aarch64")]
fn init_stack_arch(top: *mut u64, entry: u64) -> *mut u8 {
    // SAFETY: all writes land within the topmost 160 bytes of the
    // caller-owned stack allocation.
    unsafe {
        let sp = top.sub(20);
        for i in 0..20 {
            sp.add(i).write(0);
        }
        sp.add(11).write(entry);
        sp as *mut u8
    }
}

/// Counters of the coroutine stack pool (monotonic since process
/// start; see [`stack_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackPoolStats {
    /// Stacks ever allocated by the pool.
    pub stacks_allocated: u64,
    /// Stack leases served (one per started coroutine).
    pub leases: u64,
    /// Leases served by a recycled stack instead of a fresh allocation.
    pub recycled: u64,
    /// Stacks currently parked in the pool.
    pub idle_now: usize,
}

/// A recycling pool of coroutine stacks.
pub(crate) struct StackPool {
    idle: Mutex<Vec<CoroStack>>,
    allocated: AtomicU64,
    leases: AtomicU64,
    recycled: AtomicU64,
    max_idle: usize,
}

impl StackPool {
    pub(crate) fn new(max_idle: usize) -> Self {
        StackPool {
            idle: Mutex::new(Vec::new()),
            allocated: AtomicU64::new(0),
            leases: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            max_idle,
        }
    }

    /// The idle list. A panic while it was held left it consistent (no
    /// method leaves it half-updated), so a poisoned lock is recovered.
    fn idle(&self) -> MutexGuard<'_, Vec<CoroStack>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Leases a stack: recycled when one is parked, freshly allocated
    /// otherwise.
    pub(crate) fn lease(&self) -> CoroStack {
        self.leases.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = self.idle().pop() {
            self.recycled.fetch_add(1, Ordering::Relaxed);
            return s;
        }
        self.allocated.fetch_add(1, Ordering::Relaxed);
        CoroStack::new(STACK_SIZE)
    }

    /// Returns a stack whose coroutine has permanently exited. Verifies
    /// the canary; stacks beyond the idle cap are freed instead of
    /// parked.
    pub(crate) fn give_back(&self, stack: CoroStack) {
        assert!(
            stack.canary_intact(),
            "coroutine stack overflow detected (canary smashed on recycle)"
        );
        let mut idle = self.idle();
        if idle.len() < self.max_idle {
            idle.push(stack);
        }
        // Beyond the cap: `stack` drops here and the memory is freed.
    }

    /// Allocates idle stacks up front so a campaign's first wave of
    /// coroutines doesn't pay allocation + first-touch latency.
    /// Idempotent: existing idle stacks count toward `n`.
    pub(crate) fn prewarm(&self, n: usize) {
        let mut idle = self.idle();
        while idle.len() < n.min(self.max_idle) {
            self.allocated.fetch_add(1, Ordering::Relaxed);
            idle.push(CoroStack::new(STACK_SIZE));
        }
    }

    pub(crate) fn stats(&self) -> StackPoolStats {
        StackPoolStats {
            stacks_allocated: self.allocated.load(Ordering::Relaxed),
            leases: self.leases.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            idle_now: self.idle().len(),
        }
    }
}

fn global() -> &'static StackPool {
    static GLOBAL: OnceLock<StackPool> = OnceLock::new();
    GLOBAL.get_or_init(|| StackPool::new(MAX_IDLE))
}

/// Leases from the global pool.
pub(crate) fn lease() -> CoroStack {
    global().lease()
}

/// Returns a stack to the global pool.
pub(crate) fn give_back(stack: CoroStack) {
    global().give_back(stack)
}

/// Pre-allocates up to `n` idle stacks on the global pool, so the
/// first wave of simulations does not pay allocation and first-touch
/// latency. Idempotent: existing idle stacks count toward `n`.
pub fn prewarm(n: usize) {
    global().prewarm(n)
}

/// Counters of the global stack pool.
pub fn stack_stats() -> StackPoolStats {
    global().stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stacks_are_recycled_and_canary_checked() {
        let pool = StackPool::new(4);
        let a = pool.lease();
        let a_base = a.base;
        pool.give_back(a);
        let b = pool.lease();
        assert_eq!(b.base, a_base, "lease must reuse the parked stack");
        let s = pool.stats();
        assert_eq!(s.stacks_allocated, 1);
        assert_eq!(s.leases, 2);
        assert_eq!(s.recycled, 1);
        pool.give_back(b);
        assert_eq!(pool.stats().idle_now, 1);
    }

    #[test]
    fn idle_cap_frees_excess_stacks() {
        let pool = StackPool::new(1);
        let a = pool.lease();
        let b = pool.lease();
        pool.give_back(a);
        pool.give_back(b); // beyond the cap: freed, not parked
        assert_eq!(pool.stats().idle_now, 1);
        assert_eq!(pool.stats().stacks_allocated, 2);
    }

    #[test]
    fn prewarm_is_idempotent_and_capped() {
        let pool = StackPool::new(4);
        pool.prewarm(2);
        assert_eq!(pool.stats().idle_now, 2);
        pool.prewarm(2);
        assert_eq!(pool.stats().stacks_allocated, 2);
        pool.prewarm(100);
        assert_eq!(pool.stats().idle_now, 4);
        assert_eq!(pool.stats().stacks_allocated, 4);
    }

    #[test]
    fn a_poisoned_idle_list_is_recovered() {
        let pool = StackPool::new(4);
        pool.prewarm(1);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _idle = pool.idle();
            panic!("a holder of the idle list panics");
        }));
        assert!(pool.idle.is_poisoned());
        let s = pool.lease();
        pool.give_back(s);
        assert_eq!(pool.stats().idle_now, 1);
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    #[should_panic(expected = "canary smashed")]
    fn smashed_canary_is_detected_on_recycle() {
        let pool = StackPool::new(4);
        let s = pool.lease();
        // Simulate an overflow reaching the low end of the stack.
        // SAFETY: the first 8 bytes belong to the leased allocation.
        unsafe { (s.base as *mut u64).write(0) };
        pool.give_back(s);
    }
}
