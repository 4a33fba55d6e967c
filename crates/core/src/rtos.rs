//! The RTK-Spec TRON facade: building and running a kernel simulation.
//!
//! [`Rtos::new`] assembles the full simulation model of Fig. 1/Fig. 3:
//! the sysc engine, the central module (Boot, Thread Dispatch, Interrupt
//! Dispatch), and the T-Kernel/OS object tables. The user supplies a
//! *main entry* closure which runs as the initialization task — exactly
//! the paper's boot sequence, where Boot "start[s] the initialization
//! task, that will consequently call the user main entry to create &
//! start tasks, handlers and allocate application resources".
//!
//! Inside task and handler bodies, the [`Sys`] context exposes the
//! T-Kernel service calls (`tk_*`), annotated execution
//! ([`Sys::exec`]), and BFM access hooks.

use std::cell::RefCell;
use std::rc::Rc;

use sysc::{ProcCtx, RunOutcome, SimHandle, SimTime, Simulation};

use crate::config::KernelConfig;
use crate::cost::{Cost, Energy, ServiceClass};
use crate::error::{ErCode, KResult};
use crate::ids::{IntNo, TaskId, ThreadRef};
use crate::obs::ObsStream;
use crate::sim_api::scheduler::{PriorityScheduler, Scheduler};
use crate::state::{IntRequest, KernelState, Shared};
use crate::trace::TraceRecord;
use crate::tthread::{ExecContext, TThreadInfo, TThreadKind};

/// A fully assembled RTK-Spec TRON kernel simulation.
///
/// An `Rtos` lives on the thread that built it (its kernel state and the
/// sysc engine underneath are single-threaded), so it is not `Send`. A
/// parallel campaign sends the scenario to a worker and builds the
/// kernel there.
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<rtk_core::Rtos>();
/// ```
///
/// # Examples
///
/// ```
/// use rtk_core::{KernelConfig, Rtos, Timeout};
/// use sysc::SimTime;
///
/// let mut rtos = Rtos::new(KernelConfig::zero_cost(), |sys, _| {
///     let tid = sys
///         .tk_cre_tsk("worker", 10, |sys, _| {
///             sys.exec(SimTime::from_us(100));
///         })
///         .unwrap();
///     sys.tk_sta_tsk(tid, 0).unwrap();
/// });
/// rtos.run_for(SimTime::from_ms(10));
/// ```
pub struct Rtos {
    sim: Simulation,
    shared: Rc<Shared>,
}

impl std::fmt::Debug for Rtos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rtos")
            .field("now", &self.sim.now())
            .finish()
    }
}

impl Rtos {
    /// Builds a kernel with the default priority-preemptive scheduler
    /// (the T-Kernel policy) and the given user main entry.
    pub fn new<F>(cfg: KernelConfig, main: F) -> Self
    where
        F: FnMut(&mut Sys<'_>, i32) + 'static,
    {
        Self::with_scheduler(
            cfg.clone(),
            Box::new(PriorityScheduler::new(cfg.max_priority)),
            main,
        )
    }

    /// Builds a kernel with an explicit scheduler plug-in (the paper's
    /// "external schedulers"; used by RTK-Spec I/II).
    pub fn with_scheduler<F>(cfg: KernelConfig, scheduler: Box<dyn Scheduler>, main: F) -> Self
    where
        F: FnMut(&mut Sys<'_>, i32) + 'static,
    {
        let sim = Simulation::new();
        let h = sim.handle();
        let shared = Rc::new(Shared {
            st: RefCell::new(KernelState::new(cfg, scheduler, &h)),
            h,
        });
        crate::central::install(&shared, Box::new(main));
        Rtos { sim, shared }
    }

    /// Starts recording the execution trace (Gantt slices and
    /// dispatch, preemption and interrupt points; see [`crate::trace`]).
    /// Until this is called the kernel builds no trace record. Calling
    /// it again keeps the records already taken.
    pub fn record_trace(&self) {
        self.shared
            .st
            .borrow_mut()
            .trace
            .get_or_insert_with(Vec::new);
    }

    /// The execution trace recorded so far, in emission order (empty
    /// unless [`Rtos::record_trace`] was called).
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        self.shared.st.borrow().trace.clone().unwrap_or_default()
    }

    /// Attaches an observation stream recording kernel decisions
    /// (dispatches, wakeups, sync-object operations) for differential
    /// checking against a reference model and for trace capture. See
    /// [`crate::obs`].
    pub fn set_obs_sink(&self, stream: Rc<ObsStream>) {
        self.shared.st.borrow_mut().obs = Some(stream);
    }

    /// The underlying sysc simulation handle.
    pub fn sim_handle(&self) -> SimHandle {
        self.sim.handle()
    }

    /// Attaches a sysc engine tracer (signal/waveform probing).
    pub fn set_sim_tracer(&self, tracer: Rc<dyn sysc::Tracer>) {
        self.sim.set_tracer(tracer);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Runs the co-simulation until `limit`.
    pub fn run_until(&mut self, limit: SimTime) -> RunOutcome {
        self.sim.run_until(limit)
    }

    /// Runs the co-simulation for `d` more simulated time.
    pub fn run_for(&mut self, d: SimTime) -> RunOutcome {
        self.sim.run_for(d)
    }

    /// Advances one system tick (the paper's *step mode*).
    pub fn step(&mut self) -> RunOutcome {
        let tick = self.shared.st.borrow_mut().cfg.tick;
        self.sim.run_for(tick)
    }

    /// A handle through which external hardware models (the BFM's
    /// interrupt controller) raise interrupts.
    pub fn int_port(&self) -> IntPort {
        IntPort {
            shared: Rc::clone(&self.shared),
        }
    }

    /// Snapshot of every T-THREAD (SIM_HashTB contents), in
    /// `ThreadRef` order: tasks, cyclics, alarms, ISRs, the timer.
    pub fn threads(&self) -> Vec<TThreadInfo> {
        let st = self.shared.st.borrow();
        st.threads()
            .map(|(who, name, rec)| TThreadInfo {
                who,
                name: name.to_string(),
                kind: match who {
                    ThreadRef::Task(_) => TThreadKind::Task,
                    ThreadRef::Cyclic(_) => TThreadKind::CyclicHandler,
                    ThreadRef::Alarm(_) => TThreadKind::AlarmHandler,
                    ThreadRef::Isr(_) => TThreadKind::InterruptHandler,
                    ThreadRef::Timer => TThreadKind::TimerHandler,
                },
                marking: rec.marking,
                stats: rec.stats.clone(),
            })
            .collect()
    }

    /// Accumulated CPU idle time and idle energy.
    pub fn idle_stats(&self) -> (SimTime, Energy) {
        let mut st = self.shared.st.borrow_mut();
        // Close any open idle span up to "now" for accurate reporting.
        let now = self.sim.now();
        if st.idle_since.is_some() {
            st.leave_idle(now);
            st.enter_idle(now);
        }
        (st.idle_time, st.idle_energy)
    }

    /// The debugger-support interface (T-Kernel/DS).
    pub fn ds(&self) -> crate::ds::Ds {
        crate::ds::Ds::new(Rc::clone(&self.shared))
    }

    /// sysc kernel statistics (event counts etc.).
    pub fn engine_stats(&self) -> sysc::KernelStats {
        self.sim.stats()
    }

    /// A cheap aggregate snapshot of the whole run: one kernel-state
    /// borrow, one pass over the (small) SIM_HashTB. This is the
    /// per-scenario measurement surface of the simulation farm —
    /// everything here is derived from *simulated* quantities, so a
    /// given workload produces an identical snapshot on every host.
    pub fn run_stats(&self) -> RunStats {
        let now = self.sim.now();
        let mut st = self.shared.st.borrow_mut();
        // Close any open idle span up to "now" for accurate reporting.
        if st.idle_since.is_some() {
            st.leave_idle(now);
            st.enter_idle(now);
        }
        let mut out = RunStats {
            now,
            ticks: st.ticks,
            dispatches: st.dispatches,
            idle_time: st.idle_time,
            idle_energy: st.idle_energy,
            ..RunStats::default()
        };
        for (_, _, rec) in st.threads() {
            out.threads += 1;
            out.preemptions += rec.stats.preemptions;
            out.interruptions += rec.stats.interruptions;
            out.activations += rec.stats.cycles;
            out.busy_time += rec.stats.total_cet();
            out.busy_energy += rec.stats.total_cee();
        }
        out
    }
}

impl Drop for Rtos {
    fn drop(&mut self) {
        // A task or handler body may own a device whose interrupt port
        // holds this kernel's state (`Shared` → body → `IntPort` →
        // `Shared`), a cycle that would keep the kernel alive forever.
        // Move the body tables out and drop them outside the borrow:
        // the `Drop` of a captured value may use the kernel. The
        // `Simulation` then ends the processes as usual.
        let tables = {
            let mut st = self.shared.st.borrow_mut();
            (
                std::mem::take(&mut st.tasks),
                std::mem::take(&mut st.cycs),
                std::mem::take(&mut st.alms),
                std::mem::take(&mut st.isrs),
            )
        };
        drop(tables);
    }
}

/// Aggregate statistics of one kernel run, snapshot by
/// [`Rtos::run_stats`]. All quantities live in the simulated domain
/// (simulated time, modeled energy), so they are bit-reproducible
/// across hosts and thread placements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Simulated time of the snapshot.
    pub now: SimTime,
    /// System ticks elapsed since boot.
    pub ticks: u64,
    /// Task dispatches (context switches onto the CPU).
    pub dispatches: u64,
    /// Task preemptions (summed over all T-THREADs).
    pub preemptions: u64,
    /// Interrupt freezes (summed over all T-THREADs).
    pub interruptions: u64,
    /// Completed activation cycles (task activations + handler runs).
    pub activations: u64,
    /// Total consumed execution time over all T-THREADs (ΣCET).
    pub busy_time: SimTime,
    /// Total consumed execution energy over all T-THREADs (ΣCEE).
    pub busy_energy: Energy,
    /// Accumulated CPU idle time.
    pub idle_time: SimTime,
    /// Energy drawn while idle.
    pub idle_energy: Energy,
    /// Number of registered T-THREADs.
    pub threads: u32,
}

impl RunStats {
    /// Total modeled energy: busy plus idle draw.
    pub fn total_energy(&self) -> Energy {
        self.busy_energy + self.idle_energy
    }
}

/// Handle used by hardware models to raise external interrupts into the
/// kernel's Interrupt Dispatch module.
#[derive(Clone)]
pub struct IntPort {
    shared: Rc<Shared>,
}

impl std::fmt::Debug for IntPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntPort").finish_non_exhaustive()
    }
}

impl IntPort {
    /// Queues an interrupt request; the Interrupt Dispatch process picks
    /// it up in the current delta cycle.
    pub fn raise(&self, intno: IntNo, level: u8) {
        self.raise_many(&[(intno, level)]);
    }

    /// Queues a burst of interrupt requests with a single Interrupt
    /// Dispatch wake-up — the fast path for
    /// hardware models that deliver several latched requests at once
    /// (e.g. the interrupt controller flushing on a global enable).
    pub fn raise_many(&self, requests: &[(IntNo, u8)]) {
        if requests.is_empty() {
            return;
        }
        let ev = {
            let mut st = self.shared.st.borrow_mut();
            st.pending_ints.extend(
                requests
                    .iter()
                    .map(|&(intno, level)| IntRequest { intno, level }),
            );
            st.int_req_ev
        };
        if let Some(ev) = ev {
            self.shared.h.notify(ev);
        }
    }
}

/// Service-call context passed to task bodies, handler bodies and the
/// user main entry. All T-Kernel services (`tk_*`) are methods on this
/// type, implemented across the `kernel` submodules.
pub struct Sys<'a> {
    pub(crate) shared: Rc<Shared>,
    pub(crate) proc: &'a mut ProcCtx,
    pub(crate) who: ThreadRef,
}

impl std::fmt::Debug for Sys<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sys")
            .field("who", &self.who)
            .finish_non_exhaustive()
    }
}

impl<'a> Sys<'a> {
    /// Identity of the calling T-THREAD.
    pub fn whoami(&self) -> ThreadRef {
        self.who
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.proc.now()
    }

    /// `true` when called from task context (vs. handler context).
    pub fn in_task_context(&self) -> bool {
        matches!(self.who, ThreadRef::Task(_))
    }

    /// The calling task's ID, or `E_CTX` from handler context.
    pub(crate) fn require_task(&self) -> KResult<TaskId> {
        match self.who {
            ThreadRef::Task(t) => Ok(t),
            _ => Err(ErCode::Ctx),
        }
    }

    /// The service-call bracket (SIM_API, paper §4): charges the
    /// atomic cost of `class`, runs `body`, and ends at the preemption
    /// point where a dispatch request raised during the call takes
    /// effect. Every return passes the preemption point, errors
    /// included.
    pub(crate) fn service<T>(
        &mut self,
        class: ServiceClass,
        name: &'static str,
        body: impl FnOnce(&mut Self) -> KResult<T>,
    ) -> KResult<T> {
        self.service_cost(class, name);
        let r = body(self);
        if let ThreadRef::Task(tid) = self.who {
            self.shared.preemption_point(self.proc, tid);
        }
        r
    }

    /// Consumes the configured cost of a service call (service-call
    /// atomicity: the cost is uninterruptible).
    pub(crate) fn service_cost(&mut self, class: ServiceClass, name: &'static str) {
        let cost = {
            let st = self.shared.st.borrow();
            st.cfg.cost.service(class)
        };
        if !cost.is_zero() {
            let shared = &self.shared;
            shared.sim_wait_atomic(self.proc, self.who, ExecContext::ServiceCall, name, cost);
        }
    }

    // ------------------------------------------------------------------
    // Annotated execution (the "C source level" timing model)
    // ------------------------------------------------------------------

    /// Executes an application basic block of the given duration
    /// (preemptible; energy follows the active-power rating).
    pub fn exec(&mut self, time: SimTime) {
        self.exec_cost("block", Cost::time(time));
    }

    /// Executes an application basic block with an explicit ETM/EEM
    /// annotation and a label (shown in the Fig. 6 trace).
    pub fn exec_cost(&mut self, label: &str, cost: Cost) {
        let ctx = match self.who {
            ThreadRef::Task(_) => ExecContext::TaskBody,
            _ => ExecContext::Handler,
        };
        self.shared.sim_wait(self.proc, self.who, ctx, label, cost);
    }

    /// Performs a BFM access: an uninterruptible bus transaction with a
    /// cycle budget and an energy estimate (paper §5.1 — "each BFM call
    /// will be associated with a cycle budget ... and an estimation on
    /// the energy consumed during that BFM access").
    pub fn bfm_access(&mut self, label: &str, cost: Cost) {
        let shared = &self.shared;
        shared.sim_wait_atomic(self.proc, self.who, ExecContext::BfmAccess, label, cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_runs_main_entry() {
        let ran = Rc::new(std::cell::Cell::new(false));
        let r2 = Rc::clone(&ran);
        let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, stacd| {
            assert_eq!(stacd, 0);
            assert!(sys.in_task_context());
            r2.set(true);
        });
        rtos.run_for(SimTime::from_ms(5));
        assert!(ran.get());
    }

    #[test]
    fn run_stats_snapshot_counts_dispatches() {
        let mut rtos = Rtos::new(KernelConfig::zero_cost(), |sys, _| {
            for pri in [10u8, 20] {
                let t = sys
                    .tk_cre_tsk("t", pri, |sys, _| {
                        sys.exec(SimTime::from_us(100));
                    })
                    .unwrap();
                sys.tk_sta_tsk(t, 0).unwrap();
            }
        });
        rtos.run_for(SimTime::from_ms(5));
        let s = rtos.run_stats();
        // Init task + the two workers were each dispatched at least once.
        assert!(s.dispatches >= 3, "dispatches = {}", s.dispatches);
        assert!(s.activations >= 3);
        assert_eq!(s.busy_time, SimTime::from_us(200));
        assert!(s.threads >= 3);
        assert!(s.idle_time > SimTime::ZERO);
    }

    #[test]
    fn construction_and_run_are_send_safe() {
        // The farm's job shape: the scenario (plain `Send` data plus a
        // `Send` closure) crosses the thread boundary; the kernel is
        // built and run entirely on the worker.
        let handle = std::thread::spawn(|| {
            let mut rtos = Rtos::new(KernelConfig::zero_cost(), |sys, _| {
                let t = sys
                    .tk_cre_tsk("w", 10, |sys, _| {
                        sys.exec(SimTime::from_us(50));
                    })
                    .unwrap();
                sys.tk_sta_tsk(t, 0).unwrap();
            });
            rtos.run_for(SimTime::from_ms(2));
            rtos.run_stats()
        });
        let stats = handle.join().expect("worker thread panicked");
        assert_eq!(stats.busy_time, SimTime::from_us(50));
    }

    #[test]
    fn trace_is_recorded_only_when_started() {
        let run = |record: bool| {
            let mut rtos = Rtos::new(KernelConfig::zero_cost(), |sys, _| {
                let t = sys
                    .tk_cre_tsk("w", 10, |sys, _| {
                        sys.exec(SimTime::from_us(100));
                    })
                    .unwrap();
                sys.tk_sta_tsk(t, 0).unwrap();
            });
            if record {
                rtos.record_trace();
            }
            rtos.run_for(SimTime::from_ms(2));
            (rtos.run_stats(), rtos.trace_records())
        };
        let (off_stats, off_trace) = run(false);
        assert!(off_trace.is_empty());
        let (on_stats, on_trace) = run(true);
        assert_eq!(on_stats, off_stats, "recording changed the run");
        // Emission order: the worker starts, is dispatched, runs its
        // body slice and exits.
        assert!(on_trace.windows(2).all(|w| w[0].start <= w[1].start));
        let worker: Vec<_> = on_trace
            .iter()
            .filter(|r| r.name == "w")
            .map(|r| (r.kind.clone(), r.duration()))
            .collect();
        assert_eq!(
            worker,
            [
                (crate::TraceKind::Startup, SimTime::ZERO),
                (crate::TraceKind::Dispatch, SimTime::ZERO),
                (
                    crate::TraceKind::Slice {
                        context: ExecContext::TaskBody,
                        label: "block".into()
                    },
                    SimTime::from_us(100)
                ),
                (crate::TraceKind::Exit, SimTime::ZERO),
            ]
        );
    }

    #[test]
    fn exec_consumes_simulated_time() {
        let at = Rc::new(std::cell::Cell::new(SimTime::ZERO));
        let a2 = Rc::clone(&at);
        let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
            sys.exec(SimTime::from_us(250));
            a2.set(sys.now());
        });
        rtos.run_for(SimTime::from_ms(5));
        assert_eq!(at.get(), SimTime::from_us(250));
    }
}
