//! Time management: system time, cyclic handlers and alarm handlers
//! (`tk_set_tim`, `tk_cre_cyc` …, `tk_cre_alm` …).
//!
//! Cyclic and alarm handlers are T-THREADs activated by the timer
//! handler inside the Thread Dispatch tick sequence (paper Fig. 3:
//! "the timer handler updates the system clock, checks for cyclic,
//! alarm events, or task resuming events in the timer queue"). They run
//! on Thread Dispatch's own process, each in a frame above the timer
//! frame; nothing nests above that level, so they need no process of
//! their own.

use std::cell::RefCell;
use std::rc::Rc;

use sysc::{ProcCtx, SimTime};

use crate::cost::ServiceClass;
use crate::error::{ErCode, KResult};
use crate::ids::{AlmId, CycId, ThreadRef};
use crate::rtos::Sys;
use crate::state::{HandlerBody, Shared, TThreadRec, TimerAction};
use crate::tthread::{ExecContext, TThreadEvent};

/// Cyclic handler control block.
pub struct Cyc {
    pub(crate) name: String,
    /// Period in ticks.
    pub(crate) cyctim_ticks: u64,
    pub(crate) active: bool,
    /// Bumped on start/stop; stale timer entries are ignored.
    pub(crate) gen: u64,
    /// Completed activations.
    pub(crate) count: u64,
    pub(crate) body: Rc<RefCell<Box<HandlerBody>>>,
    pub(crate) thread: TThreadRec,
}

impl std::fmt::Debug for Cyc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cyc")
            .field("name", &self.name)
            .field("period_ticks", &self.cyctim_ticks)
            .field("active", &self.active)
            .field("count", &self.count)
            .finish()
    }
}

/// Alarm handler control block.
pub struct Alm {
    pub(crate) name: String,
    pub(crate) active: bool,
    pub(crate) gen: u64,
    pub(crate) count: u64,
    pub(crate) body: Rc<RefCell<Box<HandlerBody>>>,
    pub(crate) thread: TThreadRec,
}

impl std::fmt::Debug for Alm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Alm")
            .field("name", &self.name)
            .field("active", &self.active)
            .field("count", &self.count)
            .finish()
    }
}

/// Snapshot returned by `tk_ref_cyc`.
#[derive(Debug, Clone)]
pub struct RefCyc {
    /// Handler name.
    pub name: String,
    /// Whether the cyclic handler is active (`TCYC_STA`).
    pub active: bool,
    /// Period in ticks.
    pub period_ticks: u64,
    /// Completed activations.
    pub count: u64,
}

/// Snapshot returned by `tk_ref_alm`.
#[derive(Debug, Clone)]
pub struct RefAlm {
    /// Handler name.
    pub name: String,
    /// Whether the alarm is armed.
    pub active: bool,
    /// Completed activations.
    pub count: u64,
}

impl<'a> Sys<'a> {
    /// `tk_set_tim` — sets the system time (milliseconds since an
    /// arbitrary epoch).
    pub fn tk_set_tim(&mut self, ms: u64) -> KResult<()> {
        self.service(ServiceClass::Time, "tk_set_tim", |sys| {
            sys.shared.st.borrow_mut().systim_ms = ms;
            Ok(())
        })
    }

    /// `tk_get_tim` — reads the system time in milliseconds.
    pub fn tk_get_tim(&mut self) -> KResult<u64> {
        self.service(ServiceClass::Time, "tk_get_tim", |sys| {
            Ok(sys.shared.st.borrow().systim_ms)
        })
    }

    /// `tk_get_otm` — operating time since boot.
    pub fn tk_get_otm(&mut self) -> KResult<SimTime> {
        self.service(ServiceClass::Time, "tk_get_otm", |sys| Ok(sys.now()))
    }

    /// `tk_cre_cyc` — creates a cyclic handler with period `cyctim` and
    /// phase `cycphs`; `auto_start` is the `TA_STA` attribute.
    ///
    /// # Errors
    ///
    /// `E_PAR` if the period is zero.
    pub fn tk_cre_cyc<F>(
        &mut self,
        name: &str,
        cyctim: SimTime,
        cycphs: SimTime,
        auto_start: bool,
        body: F,
    ) -> KResult<CycId>
    where
        F: FnMut(&mut Sys<'_>) + 'static,
    {
        self.service(ServiceClass::Time, "tk_cre_cyc", |sys| {
            if cyctim.is_zero() {
                return Err(ErCode::Par);
            }
            let mut st = sys.shared.st.borrow_mut();
            let tick = st.cfg.tick;
            let to_ticks = |d: SimTime| d.as_ps().div_ceil(tick.as_ps());
            let period_ticks = to_ticks(cyctim).max(1);
            let phase_ticks = to_ticks(cycphs);
            let id = CycId(st.cycs.insert(Cyc {
                name: name.to_string(),
                cyctim_ticks: period_ticks,
                active: auto_start,
                gen: 0,
                count: 0,
                body: Rc::new(RefCell::new(Box::new(body) as Box<HandlerBody>)),
                thread: TThreadRec::new(&sys.shared.h),
            }));
            let first = if phase_ticks > 0 {
                phase_ticks
            } else {
                period_ticks
            };
            let first_tick = auto_start.then_some(st.ticks + first);
            if let Some(at) = first_tick {
                st.push_timer(at, TimerAction::CyclicFire { id, gen: 0 });
            }
            st.observe(crate::obs::ObsEvent::CycCreate {
                id,
                period_ticks,
                first_tick,
            });
            Ok(id)
        })
    }

    /// `tk_sta_cyc` — (re)starts a cyclic handler; the next activation
    /// is one period from now.
    pub fn tk_sta_cyc(&mut self, id: CycId) -> KResult<()> {
        self.service(ServiceClass::Time, "tk_sta_cyc", |sys| {
            let mut st = sys.shared.st.borrow_mut();
            let ticks = st.ticks;
            let c = st.cycs.get_mut(id.0)?;
            c.active = true;
            c.gen += 1;
            let gen = c.gen;
            let at = ticks + c.cyctim_ticks;
            st.push_timer(at, TimerAction::CyclicFire { id, gen });
            st.observe(crate::obs::ObsEvent::CycStart { id, at_tick: at });
            Ok(())
        })
    }

    /// `tk_stp_cyc` — stops a cyclic handler.
    pub fn tk_stp_cyc(&mut self, id: CycId) -> KResult<()> {
        self.service(ServiceClass::Time, "tk_stp_cyc", |sys| {
            let mut st = sys.shared.st.borrow_mut();
            let c = st.cycs.get_mut(id.0)?;
            c.active = false;
            c.gen += 1;
            st.observe(crate::obs::ObsEvent::CycStop { id });
            Ok(())
        })
    }

    /// `tk_ref_cyc` — reference cyclic-handler state.
    pub fn tk_ref_cyc(&mut self, id: CycId) -> KResult<RefCyc> {
        self.service(ServiceClass::Time, "tk_ref_cyc", |sys| {
            sys.shared.st.borrow().cycs.get(id.0).map(RefCyc::of)
        })
    }

    /// `tk_cre_alm` — creates an (unarmed) alarm handler.
    pub fn tk_cre_alm<F>(&mut self, name: &str, body: F) -> KResult<AlmId>
    where
        F: FnMut(&mut Sys<'_>) + 'static,
    {
        self.service(ServiceClass::Time, "tk_cre_alm", |sys| {
            Ok(AlmId(sys.shared.st.borrow_mut().alms.insert(Alm {
                name: name.to_string(),
                active: false,
                gen: 0,
                count: 0,
                body: Rc::new(RefCell::new(Box::new(body) as Box<HandlerBody>)),
                thread: TThreadRec::new(&sys.shared.h),
            })))
        })
    }

    /// `tk_sta_alm` — arms the alarm to fire `almtim` from now.
    pub fn tk_sta_alm(&mut self, id: AlmId, almtim: SimTime) -> KResult<()> {
        self.service(ServiceClass::Time, "tk_sta_alm", |sys| {
            let mut st = sys.shared.st.borrow_mut();
            let deadline = st.deadline_ticks(almtim);
            let a = st.alms.get_mut(id.0)?;
            a.active = true;
            a.gen += 1;
            let gen = a.gen;
            st.push_timer(deadline, TimerAction::AlarmFire { id, gen });
            st.observe(crate::obs::ObsEvent::AlmArm {
                id,
                at_tick: deadline,
            });
            Ok(())
        })
    }

    /// `tk_stp_alm` — disarms the alarm.
    pub fn tk_stp_alm(&mut self, id: AlmId) -> KResult<()> {
        self.service(ServiceClass::Time, "tk_stp_alm", |sys| {
            let mut st = sys.shared.st.borrow_mut();
            let a = st.alms.get_mut(id.0)?;
            a.active = false;
            a.gen += 1;
            st.observe(crate::obs::ObsEvent::AlmStop { id });
            Ok(())
        })
    }

    /// `tk_ref_alm` — reference alarm-handler state.
    pub fn tk_ref_alm(&mut self, id: AlmId) -> KResult<RefAlm> {
        self.service(ServiceClass::Time, "tk_ref_alm", |sys| {
            sys.shared.st.borrow().alms.get(id.0).map(RefAlm::of)
        })
    }
}

impl RefCyc {
    /// The snapshot of `c` (`tk_ref_cyc`, `td_ref_cyc`).
    pub(crate) fn of(c: &Cyc) -> Self {
        RefCyc {
            name: c.name.clone(),
            active: c.active,
            period_ticks: c.cyctim_ticks,
            count: c.count,
        }
    }
}

impl RefAlm {
    /// The snapshot of `a` (`tk_ref_alm`, `td_ref_alm`).
    pub(crate) fn of(a: &Alm) -> Self {
        RefAlm {
            name: a.name.clone(),
            active: a.active,
            count: a.count,
        }
    }
}

impl Shared {
    /// One handler activation on the calling process: entry cost, body,
    /// exit cost. The caller has mounted the handler's frame and pops
    /// it: the timer handler for cyclic and alarm handlers
    /// ([`run_timer_handler`]), an ISR's own activation loop for itself.
    pub(crate) fn run_handler(self: &Rc<Shared>, proc: &mut ProcCtx, who: ThreadRef) {
        let (entry_cost, exit_cost, body) = {
            let st = self.st.borrow();
            let body = match who {
                ThreadRef::Cyclic(id) => &st.cycs.get(id.0).expect("cyclic exists").body,
                ThreadRef::Alarm(id) => &st.alms.get(id.0).expect("alarm exists").body,
                ThreadRef::Isr(no) => &st.isrs.get(&no).expect("isr defined").body,
                _ => unreachable!("only handlers run here"),
            };
            (st.cfg.cost.int_entry, st.cfg.cost.int_exit, Rc::clone(body))
        };
        if !entry_cost.is_zero() {
            self.sim_wait_atomic(proc, who, ExecContext::Handler, "int_entry", entry_cost);
        }
        {
            let mut body = body.borrow_mut();
            let mut sys = Sys {
                shared: Rc::clone(self),
                proc,
                who,
            };
            (body)(&mut sys);
        }
        if !exit_cost.is_zero() {
            self.sim_wait_atomic(proc, who, ExecContext::Handler, "int_exit", exit_cost);
        }
        // A freeze requested while a body and exit cost took no time is
        // still pending here: acknowledge it before the caller pops the
        // frame, or the freezer waits on `frozen_ev` forever.
        loop {
            let frozen_ev = {
                let mut st = self.st.borrow_mut();
                let rec = st.thread_mut(who);
                if std::mem::take(&mut rec.ctrl_pending) {
                    Some(Self::freeze_ack(&mut st, proc.now(), who))
                } else {
                    rec.marking = ExecContext::Dormant;
                    rec.stats.cycles += 1;
                    None
                }
            };
            let Some(frozen_ev) = frozen_ev else {
                return;
            };
            self.h.notify(frozen_ev);
            self.park_until_granted(proc, who);
        }
    }
}

/// Timer-handler side of a cyclic activation (runs on the Thread
/// Dispatch thread inside the tick sequence).
pub(crate) fn fire_cyclic(shared: &Rc<Shared>, proc: &mut ProcCtx, id: CycId, gen: u64) {
    let valid = {
        let mut st = shared.st.borrow_mut();
        let ticks = st.ticks;
        match st.cycs.get_mut(id.0) {
            Ok(c) if c.active && c.gen == gen => {
                c.count += 1;
                // Schedule the next period before running the body so a
                // long handler does not drift the schedule.
                let at = ticks + c.cyctim_ticks;
                st.push_timer(at, TimerAction::CyclicFire { id, gen });
                st.observe(crate::obs::ObsEvent::CycFire { id, tick: ticks });
                true
            }
            _ => false,
        }
    };
    if valid {
        run_timer_handler(shared, proc, ThreadRef::Cyclic(id));
    }
}

/// Timer-handler side of an alarm activation.
pub(crate) fn fire_alarm(shared: &Rc<Shared>, proc: &mut ProcCtx, id: AlmId, gen: u64) {
    let valid = {
        let mut st = shared.st.borrow_mut();
        let ticks = st.ticks;
        match st.alms.get_mut(id.0) {
            Ok(a) if a.active && a.gen == gen => {
                a.active = false; // one-shot
                a.count += 1;
                st.observe(crate::obs::ObsEvent::AlmFire { id, tick: ticks });
                true
            }
            _ => false,
        }
    };
    if valid {
        run_timer_handler(shared, proc, ThreadRef::Alarm(id));
    }
}

/// Runs one cyclic or alarm activation from inside the timer frame, on
/// the timer handler's own process: mounts the handler's frame at the
/// timer frame's level (running, `Es` fired), runs it and pops the
/// frame.
fn run_timer_handler(shared: &Rc<Shared>, proc: &mut ProcCtx, who: ThreadRef) {
    {
        let mut st = shared.st.borrow_mut();
        let lvl = st.current_int_level().expect("inside the timer frame");
        st.int_stack.push((who, lvl));
        let rec = st.thread_mut(who);
        rec.parked = false;
        rec.marking = ExecContext::Handler;
        rec.stats.sigma.fire(TThreadEvent::Es);
    }
    shared.run_handler(proc, who);
    let mut st = shared.st.borrow_mut();
    let top = st.int_stack.pop().map(|(top, _)| top);
    debug_assert_eq!(top, Some(who));
    st.thread_mut(who).parked = true;
}
