//! # sysc — a SystemC-inspired discrete-event simulation kernel
//!
//! This crate is the simulation substrate of the RTK-Spec TRON
//! reproduction (DATE 2005). The paper builds its RTOS simulation model
//! on SystemC 2.0; since no SystemC exists for Rust, `sysc` reimplements
//! the subset the paper depends on:
//!
//! * **Thread processes** (`SC_THREAD`): bodies that suspend anywhere
//!   in one of three waits: [`ProcCtx::wait_time`] (`wait(t)`; a zero
//!   duration waits one delta cycle), [`ProcCtx::wait_event`]
//!   (`wait(e)`) and [`ProcCtx::wait_event_timeout`] (`wait(t, e)`).
//!   Each one is a stackful coroutine on a pooled heap stack
//!   ([`runtime`]), and the whole simulation runs on the thread that
//!   drives it: exactly one process executes at any instant, so the
//!   simulation is deterministic like SystemC's evaluator.
//! * **Method processes** (`SC_METHOD`): non-blocking callbacks with
//!   static sensitivity, run on the kernel thread (no stack switch) —
//!   used for clocked hardware models where handoff cost would dominate.
//! * **Events** with immediate, delta and timed notification, the
//!   `sc_event` single-pending-notification override rule, cancellation,
//!   and periodic auto-renotification (clocks).
//! * **Delta cycles** with the evaluate → update → delta-notify →
//!   advance-time loop, and [`Signal`]s with request-update/update
//!   semantics.
//! * **One probe point**: a [`Tracer`] sees every signal change in the
//!   update phase (the paper's Fig. 4 waveform probe).
//!
//! # Quickstart
//!
//! ```
//! use sysc::{Simulation, SimTime, SpawnMode};
//!
//! let mut sim = Simulation::new();
//! let h = sim.handle();
//! let ping = h.create_event();
//! let pong = h.create_event();
//!
//! h.spawn_thread(SpawnMode::Immediate, move |ctx| {
//!     for _ in 0..3 {
//!         ctx.wait_time(SimTime::from_us(10));
//!         ctx.handle().notify(ping);
//!         ctx.wait_event(pong);
//!     }
//! });
//! let h2 = sim.handle();
//! h2.spawn_thread(SpawnMode::WaitEvent(ping), move |ctx| {
//!     loop {
//!         ctx.handle().notify_after(pong, SimTime::from_us(5));
//!         ctx.wait_event(ping);
//!     }
//! });
//!
//! sim.run_until(SimTime::from_ms(1));
//! assert_eq!(sim.handle().event_fire_count(ping), 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Every `unsafe` operation must sit in an explicit `unsafe` block with
// its own `// SAFETY:` justification (mechanically enforced by
// `cargo run -p rtk-analysis --bin unsafe_audit`), even inside
// `unsafe fn` bodies.
#![deny(unsafe_op_in_unsafe_fn)]

// The coroutine context switch is hand-written assembly for these two
// architectures; there is no other process runtime to fall back on.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("sysc needs a coroutine context switch, which exists for x86_64 and aarch64 only");

mod ids;
mod kernel;
pub mod runtime;
mod signal;
mod time;
mod trace;

pub use ids::{EventId, ProcId};
pub use kernel::timed_queue::{TimedEntry, TimedQueue};
pub use kernel::{ProcCtx, RunOutcome, SimHandle, Simulation, SpawnMode, WaitOutcome};
pub use runtime::Runtime;
pub use signal::{Signal, SignalValue};
pub use time::SimTime;
pub use trace::{KernelStats, Tracer};
