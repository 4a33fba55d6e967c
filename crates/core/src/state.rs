//! Shared kernel state: the task/object tables, the ready queue, the
//! interrupt stack and the timer queue.
//!
//! The tables every kernel decision touches are dense: the task and
//! object tables are `ObjTable`s, slot vectors indexed by the 1-based
//! raw ID, so a lookup is an index, not a search. Only interrupt
//! handlers, whose numbers the caller chooses, are kept in an ordered
//! map. The SIM_HashTB is no table of its own: each T-THREAD record
//! ([`TThreadRec`]) sits in the control block it models, and
//! [`KernelState::thread_mut`] finds it through those tables.
//!
//! Everything lives in one `RefCell` inside [`Shared`]. The sysc engine
//! runs one process at a time on one host thread, so the state needs no
//! lock; it needs only the borrow rule: no borrow may be held across a
//! context switch (any sysc wait) or a user task/handler body. Methods
//! on [`Shared`] are spread across the `sim_api` and `kernel` modules by
//! concern.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use sysc::{EventId, ProcId, SimHandle, SimTime, TimedQueue};

use crate::config::{KernelConfig, Priority};
use crate::cost::Energy;
use crate::error::ErCode;
use crate::ids::*;
use crate::kernel::ObjTable;
use crate::obs::ObsStream;
use crate::sim_api::scheduler::Scheduler;
use crate::trace::TraceRecord;
use crate::tthread::{ExecContext, TThreadStats};

/// Timeout of a blocking service call (µ-ITRON `TMO`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timeout {
    /// `TMO_POL`: fail immediately with `E_TMOUT` instead of waiting.
    Poll,
    /// `TMO_FEVR`: wait forever.
    Forever,
    /// Wait at most this long (rounded up to whole ticks).
    Finite(SimTime),
}

impl Timeout {
    /// Convenience: a finite timeout in milliseconds.
    pub fn ms(v: u64) -> Self {
        Timeout::Finite(SimTime::from_ms(v))
    }
}

/// Wait-queue ordering attribute (`TA_TFIFO` / `TA_TPRI`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueOrder {
    /// First-in first-out.
    #[default]
    Fifo,
    /// Task-priority order (ties FIFO).
    Priority,
}

/// Task state (µ-ITRON task state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Created but not started.
    Dormant,
    /// Eligible to run, waiting for the processor.
    Ready,
    /// Currently owns the processor.
    Running,
    /// Blocked on a wait object / sleep / delay.
    Wait,
    /// Forcibly suspended.
    Suspend,
    /// Both waiting and suspended.
    WaitSuspend,
}

impl TaskState {
    /// Specification mnemonic (`TTS_RUN`, ...).
    pub const fn mnemonic(self) -> &'static str {
        match self {
            TaskState::Dormant => "TTS_DMT",
            TaskState::Ready => "TTS_RDY",
            TaskState::Running => "TTS_RUN",
            TaskState::Wait => "TTS_WAI",
            TaskState::Suspend => "TTS_SUS",
            TaskState::WaitSuspend => "TTS_WAS",
        }
    }
}

/// What a waiting task is blocked on (for DS listings and wait release).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitObj {
    /// `tk_slp_tsk`.
    Sleep,
    /// `tk_dly_tsk`.
    Delay,
    /// Semaphore acquire of `n` counts.
    Sem(SemId, u32),
    /// Event-flag wait for a pattern.
    Flag(FlgId, u32, FlagWaitMode),
    /// Mailbox receive.
    Mbx(MbxId),
    /// Message-buffer send of a given size.
    MbfSend(MbfId, usize),
    /// Message-buffer receive.
    MbfRecv(MbfId),
    /// Mutex lock.
    Mtx(MtxId),
    /// Fixed-pool block acquire.
    Mpf(MpfId),
    /// Variable-pool allocation of a given size.
    Mpl(MplId, usize),
}

impl WaitObj {
    /// Short description for DS listings, e.g. `sem1`.
    pub fn describe(&self) -> String {
        match self {
            WaitObj::Sleep => "slp".into(),
            WaitObj::Delay => "dly".into(),
            WaitObj::Sem(id, _) => id.to_string(),
            WaitObj::Flag(id, _, _) => id.to_string(),
            WaitObj::Mbx(id) => id.to_string(),
            WaitObj::MbfSend(id, _) => format!("{id}(s)"),
            WaitObj::MbfRecv(id) => format!("{id}(r)"),
            WaitObj::Mtx(id) => id.to_string(),
            WaitObj::Mpf(id) => id.to_string(),
            WaitObj::Mpl(id, _) => id.to_string(),
        }
    }
}

/// Event-flag wait mode (`TWF_ANDW`/`TWF_ORW` plus clear options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlagWaitMode {
    /// `true`: all requested bits must be set (`TWF_ANDW`);
    /// `false`: any requested bit suffices (`TWF_ORW`).
    pub and: bool,
    /// Clear the whole flag on release (`TWF_CLR`).
    pub clear_all: bool,
    /// Clear only the released bits (`TWF_BITCLR`).
    pub clear_bits: bool,
}

impl FlagWaitMode {
    /// `TWF_ANDW` without clearing.
    pub const AND: FlagWaitMode = FlagWaitMode {
        and: true,
        clear_all: false,
        clear_bits: false,
    };
    /// `TWF_ORW` without clearing.
    pub const OR: FlagWaitMode = FlagWaitMode {
        and: false,
        clear_all: false,
        clear_bits: false,
    };

    /// Adds `TWF_CLR` (clear whole flag on release).
    pub const fn with_clear(mut self) -> Self {
        self.clear_all = true;
        self
    }

    /// Adds `TWF_BITCLR` (clear released bits on release).
    pub const fn with_bitclear(mut self) -> Self {
        self.clear_bits = true;
        self
    }
}

/// Payload delivered to a task when its wait completes.
#[derive(Debug, Clone, Default)]
pub enum Delivered {
    /// Nothing (plain wakeups).
    #[default]
    None,
    /// Mailbox message.
    Msg(crate::kernel::mbx::MsgPacket),
    /// Event-flag pattern at release time.
    FlagPattern(u32),
    /// Message-buffer message bytes.
    MbfMsg(Vec<u8>),
    /// Fixed-pool block index.
    MpfBlock(usize),
    /// Variable-pool block address (offset into the pool arena).
    MplBlock(usize),
}

impl Delivered {
    /// `Some(())` for a delivery without payload: the unpack of the
    /// waits that deliver nothing.
    pub(crate) fn nothing(self) -> Option<()> {
        matches!(self, Delivered::None).then_some(())
    }
}

/// Control record of one T-THREAD in the SIM_HashTB. It lives in the
/// control block of what it models (`Tcb`, `Cyc`, `Alm`, `IsrRec`; the
/// timer's in [`KernelState`]), which also holds its name.
pub(crate) struct TThreadRec {
    pub marking: ExecContext,
    pub prev_marking: ExecContext,
    pub stats: TThreadStats,
    /// Notified to hand the thread the CPU (dispatch / nested resume).
    /// An ISR's activation loop parks on it between activations.
    pub resume_ev: EventId,
    /// Notified to ask the thread to yield the CPU at its next
    /// preemption point.
    pub ctrl_ev: EventId,
    /// Notified by the thread once it has parked after a ctrl request.
    pub frozen_ev: EventId,
    /// A freeze request is outstanding against this thread.
    pub ctrl_pending: bool,
    /// `true` while the thread is parked (not consuming CPU). A parked
    /// occupant can be "frozen" without a handshake.
    pub parked: bool,
    /// CPU grant token: set by a dispatcher right before notifying
    /// `resume_ev`; the thread only leaves its park loop when set. A
    /// freezer revokes the token of a parked-but-granted thread.
    pub cpu_granted: bool,
}

impl TThreadRec {
    pub(crate) fn new(h: &SimHandle) -> Self {
        TThreadRec {
            marking: ExecContext::Dormant,
            prev_marking: ExecContext::Dormant,
            stats: TThreadStats::default(),
            resume_ev: h.create_event(),
            ctrl_ev: h.create_event(),
            frozen_ev: h.create_event(),
            ctrl_pending: false,
            parked: true,
            cpu_granted: false,
        }
    }
}

/// Task body signature: the task receives its service-call context and
/// the start code passed to `tk_sta_tsk`.
pub type TaskBody = dyn FnMut(&mut crate::rtos::Sys<'_>, i32);

/// Handler body signature (cyclic, alarm and interrupt handlers).
pub type HandlerBody = dyn FnMut(&mut crate::rtos::Sys<'_>);

/// Task control block.
pub(crate) struct Tcb {
    pub name: String,
    /// Creation priority (`TPRI_INI`): the reset target of
    /// `tk_chg_pri(tid, 0)`.
    pub ini_pri: Priority,
    pub base_pri: Priority,
    pub cur_pri: Priority,
    pub state: TaskState,
    pub wupcnt: u32,
    pub suscnt: u32,
    pub wait: Option<WaitObj>,
    /// Bumped on every wait registration; timer entries carry the
    /// generation so stale timeouts are ignored.
    pub wait_gen: u64,
    pub wait_result: Option<(Result<(), ErCode>, Delivered)>,
    pub held_mutexes: Vec<MtxId>,
    pub body: Rc<RefCell<Box<TaskBody>>>,
    /// Start code of the current activation.
    pub stacd: i32,
    /// Total number of activations.
    pub activations: u64,
    /// The task's T-THREAD record.
    pub thread: TThreadRec,
    /// Live sysc process of the current activation, if any.
    pub proc: Option<ProcId>,
}

/// An entry in the kernel's tick-driven timer queue.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum TimerAction {
    /// Wait timeout of a task, or the end of a `tk_dly_tsk` delay
    /// (guarded by the wait generation).
    TaskTimeout { tid: TaskId, wait_gen: u64 },
    /// Fire a cyclic handler (with activation generation).
    CyclicFire { id: CycId, gen: u64 },
    /// Fire an alarm handler (with activation generation).
    AlarmFire { id: AlmId, gen: u64 },
}

/// An external interrupt request queued for delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntRequest {
    /// Interrupt number.
    pub intno: IntNo,
    /// Priority level; higher values preempt lower ones (the 8051 has
    /// two levels, 0 and 1; the timer tick is modeled above both).
    pub level: u8,
}

/// The name of the timer handler's T-THREAD.
const TIMER_NAME: &str = "timer";

/// The whole mutable kernel state.
pub(crate) struct KernelState {
    pub cfg: KernelConfig,
    /// Milliseconds since the epoch set by `tk_set_tim`.
    pub systim_ms: u64,
    /// Ticks since boot.
    pub ticks: u64,
    pub tasks: ObjTable<Tcb>,
    pub scheduler: Box<dyn Scheduler>,
    pub running: Option<TaskId>,
    /// SIM_Stack: nested handler frames, each a handler and its
    /// priority level (the timer frame is level `u8::MAX`); the top
    /// (last) frame owns the CPU when non-empty.
    pub int_stack: Vec<(ThreadRef, u8)>,
    pub pending_ints: VecDeque<IntRequest>,
    pub cpu_locked: bool,
    pub dispatch_disabled: bool,
    /// The system-tick event (created by the central module).
    pub tick_ev: Option<EventId>,
    /// The interrupt-request event that wakes Interrupt Dispatch.
    pub int_req_ev: Option<EventId>,
    /// A tick fired while a handler frame was active (or another
    /// dispatcher was mid-handshake); it is replayed when the interrupt
    /// stack unwinds.
    pub tick_pending: bool,
    /// A dispatcher is mid-handshake taking the CPU; other dispatchers
    /// must defer until the new frame is mounted.
    pub cpu_transfer: bool,
    pub sems: ObjTable<crate::kernel::sem::Sem>,
    pub flags: ObjTable<crate::kernel::flag::Flag>,
    pub mbxs: ObjTable<crate::kernel::mbx::Mbx>,
    pub mbfs: ObjTable<crate::kernel::mbf::Mbf>,
    pub mtxs: ObjTable<crate::kernel::mtx::Mtx>,
    pub mpfs: ObjTable<crate::kernel::mpf::Mpf>,
    pub mpls: ObjTable<crate::kernel::mpl::Mpl>,
    pub cycs: ObjTable<crate::kernel::time::Cyc>,
    pub alms: ObjTable<crate::kernel::time::Alm>,
    pub isrs: BTreeMap<IntNo, crate::kernel::int::IsrRec>,
    /// The timer handler's T-THREAD record.
    pub timer: TThreadRec,
    /// Tick-granular timer queue, on the same `(at, seq)`-ordered
    /// [`TimedQueue`] the sysc event core uses (deadline unit: ticks
    /// since boot): due actions come out in deadline-then-arming order.
    pub timeq: TimedQueue<TimerAction>,
    /// Timer actions already due at the current tick, drained one at a
    /// time by the Thread Dispatch tick sequence.
    due_timers: VecDeque<TimerAction>,
    /// Reused scratch buffer for timer-queue drains (per-tick hot path).
    due_scratch: Vec<sysc::TimedEntry<TimerAction>>,
    /// The Gantt execution trace, kept once recording has started
    /// (`Rtos::record_trace`); `None` builds no record at all.
    pub trace: Option<Vec<TraceRecord>>,
    /// Observation stream for differential (oracle) checking and trace
    /// capture; `None` costs one branch per decision point.
    pub obs: Option<Rc<ObsStream>>,
    /// Total number of task dispatches (context switches onto the CPU).
    pub dispatches: u64,
    /// Accumulated CPU idle time and its energy (idle power draw).
    pub idle_time: SimTime,
    pub idle_energy: Energy,
    /// When the CPU last became idle, if it is idle now.
    pub idle_since: Option<SimTime>,
    /// Set by the Boot module once the init task is started; ticks and
    /// interrupt deliveries before that are ignored.
    pub booted: bool,
}

impl KernelState {
    pub(crate) fn new(cfg: KernelConfig, scheduler: Box<dyn Scheduler>, h: &SimHandle) -> Self {
        KernelState {
            cfg,
            systim_ms: 0,
            ticks: 0,
            tasks: ObjTable::default(),
            scheduler,
            running: None,
            int_stack: Vec::new(),
            pending_ints: VecDeque::new(),
            cpu_locked: false,
            dispatch_disabled: false,
            tick_ev: None,
            int_req_ev: None,
            tick_pending: false,
            cpu_transfer: false,
            sems: ObjTable::default(),
            flags: ObjTable::default(),
            mbxs: ObjTable::default(),
            mbfs: ObjTable::default(),
            mtxs: ObjTable::default(),
            mpfs: ObjTable::default(),
            mpls: ObjTable::default(),
            cycs: ObjTable::default(),
            alms: ObjTable::default(),
            isrs: BTreeMap::new(),
            timer: TThreadRec::new(h),
            timeq: TimedQueue::new(),
            due_timers: VecDeque::new(),
            due_scratch: Vec::new(),
            trace: None,
            obs: None,
            dispatches: 0,
            idle_time: SimTime::ZERO,
            idle_energy: Energy::ZERO,
            idle_since: None,
            booted: false,
        }
    }

    /// The T-THREAD currently occupying the CPU: the top nested handler,
    /// else the running task.
    pub(crate) fn occupant(&self) -> Option<ThreadRef> {
        self.int_stack
            .last()
            .map(|&(who, _)| who)
            .or(self.running.map(ThreadRef::Task))
    }

    /// Priority level of the CPU's current interrupt frame (None when no
    /// handler is active).
    pub(crate) fn current_int_level(&self) -> Option<u8> {
        self.int_stack.last().map(|&(_, level)| level)
    }

    /// `true` while task dispatching is masked: the `tk_dis_dsp` and
    /// `tk_loc_cpu` states are independent (µ-ITRON), but each one
    /// alone forbids dispatching.
    pub(crate) fn dispatch_masked(&self) -> bool {
        self.dispatch_disabled || self.cpu_locked
    }

    pub(crate) fn tcb(&self, tid: TaskId) -> Result<&Tcb, ErCode> {
        self.tasks.get(tid.0)
    }

    pub(crate) fn tcb_mut(&mut self, tid: TaskId) -> Result<&mut Tcb, ErCode> {
        self.tasks.get_mut(tid.0)
    }

    /// The T-THREAD record of `who`, in the control block it models.
    pub(crate) fn thread_mut(&mut self, who: ThreadRef) -> &mut TThreadRec {
        match who {
            ThreadRef::Task(id) => self.tasks.get_mut(id.0).map(|t| &mut t.thread).ok(),
            ThreadRef::Cyclic(id) => self.cycs.get_mut(id.0).map(|c| &mut c.thread).ok(),
            ThreadRef::Alarm(id) => self.alms.get_mut(id.0).map(|a| &mut a.thread).ok(),
            ThreadRef::Isr(no) => self.isrs.get_mut(&no).map(|i| &mut i.thread),
            ThreadRef::Timer => Some(&mut self.timer),
        }
        .expect("unregistered T-THREAD")
    }

    /// The name of `who`, from the control block it models.
    pub(crate) fn thread_name(&self, who: ThreadRef) -> &str {
        match who {
            ThreadRef::Task(id) => self.tasks.get(id.0).map(|t| t.name.as_str()).ok(),
            ThreadRef::Cyclic(id) => self.cycs.get(id.0).map(|c| c.name.as_str()).ok(),
            ThreadRef::Alarm(id) => self.alms.get(id.0).map(|a| a.name.as_str()).ok(),
            ThreadRef::Isr(no) => self.isrs.get(&no).map(|i| i.name.as_str()),
            ThreadRef::Timer => Some(TIMER_NAME),
        }
        .expect("unregistered T-THREAD")
    }

    /// Every T-THREAD with its name and record, in `ThreadRef` order:
    /// tasks, cyclics, alarms, ISRs by number, the timer.
    pub(crate) fn threads(&self) -> impl Iterator<Item = (ThreadRef, &str, &TThreadRec)> {
        let tasks = self
            .tasks
            .iter()
            .map(|(id, t)| (ThreadRef::Task(TaskId(id)), t.name.as_str(), &t.thread));
        let cycs = self
            .cycs
            .iter()
            .map(|(id, c)| (ThreadRef::Cyclic(CycId(id)), c.name.as_str(), &c.thread));
        let alms = self
            .alms
            .iter()
            .map(|(id, a)| (ThreadRef::Alarm(AlmId(id)), a.name.as_str(), &a.thread));
        let isrs = self
            .isrs
            .iter()
            .map(|(&no, i)| (ThreadRef::Isr(no), i.name.as_str(), &i.thread));
        let timer = (ThreadRef::Timer, TIMER_NAME, &self.timer);
        tasks
            .chain(cycs)
            .chain(alms)
            .chain(isrs)
            .chain(std::iter::once(timer))
    }

    /// Reports one observation event to the attached stream, if any.
    #[inline]
    pub(crate) fn observe(&self, ev: crate::obs::ObsEvent) {
        if let Some(obs) = &self.obs {
            // Every event is stamped with the kernel tick counter at
            // emission — the grammar's time model (ordering within a
            // tick is the stream position; see docs/OBS_GRAMMAR.md).
            obs.event_at(self.ticks, ev);
        }
    }

    /// Files a timer-queue entry expiring at `at_tick`.
    pub(crate) fn push_timer(&mut self, at_tick: u64, action: TimerAction) {
        self.timeq.insert(at_tick, action);
    }

    /// Takes the next timer action due at or before the current tick,
    /// in deadline-then-arming order. Refills the due buffer from the
    /// timer queue when it runs dry.
    pub(crate) fn pop_due_timer(&mut self) -> Option<TimerAction> {
        if self.due_timers.is_empty() && self.timeq.next_at().is_some_and(|at| at <= self.ticks) {
            self.timeq.advance_to(self.ticks, &mut self.due_scratch);
            self.due_timers
                .extend(self.due_scratch.drain(..).map(|e| e.action));
        }
        self.due_timers.pop_front()
    }

    /// Converts a timeout duration to an absolute deadline tick
    /// (rounded up; at least one tick in the future; saturating at the
    /// end of representable time for enormous timeouts).
    pub(crate) fn deadline_ticks(&self, d: SimTime) -> u64 {
        let tick = self.cfg.tick;
        let n = d.as_ps().div_ceil(tick.as_ps());
        self.ticks.saturating_add(n.max(1))
    }

    /// Marks the CPU idle starting now (idle-power accounting).
    pub(crate) fn enter_idle(&mut self, now: SimTime) {
        debug_assert!(self.idle_since.is_none());
        self.idle_since = Some(now);
    }

    /// Marks the CPU busy again, accumulating the idle span.
    pub(crate) fn leave_idle(&mut self, now: SimTime) {
        if let Some(since) = self.idle_since.take() {
            let span = now - since;
            self.idle_time += span;
            self.idle_energy += self.cfg.cost.idle_power.energy_over(span);
        }
    }
}

/// The shared kernel: state plus the sysc handle. All SIM_API and
/// T-Kernel service implementations are methods on this type.
pub struct Shared {
    pub(crate) st: RefCell<KernelState>,
    pub(crate) h: SimHandle,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_constructors() {
        assert_eq!(Timeout::ms(5), Timeout::Finite(SimTime::from_ms(5)));
    }

    #[test]
    fn task_state_mnemonics() {
        assert_eq!(TaskState::Running.mnemonic(), "TTS_RUN");
        assert_eq!(TaskState::Dormant.mnemonic(), "TTS_DMT");
        assert_eq!(TaskState::WaitSuspend.mnemonic(), "TTS_WAS");
    }

    #[test]
    fn flag_wait_mode_builders() {
        let m = FlagWaitMode::AND.with_clear();
        assert!(m.and && m.clear_all && !m.clear_bits);
        let m = FlagWaitMode::OR.with_bitclear();
        assert!(!m.and && !m.clear_all && m.clear_bits);
    }

    #[test]
    fn wait_obj_descriptions() {
        assert_eq!(WaitObj::Sleep.describe(), "slp");
        assert_eq!(WaitObj::Sem(SemId(1), 2).describe(), "sem1");
        assert_eq!(WaitObj::MbfSend(MbfId(2), 8).describe(), "mbf2(s)");
    }

    #[test]
    fn timer_wheel_pops_in_tick_then_arming_order() {
        let sim = sysc::Simulation::new();
        let mut st = KernelState::new(
            KernelConfig::zero_cost(),
            Box::new(crate::sim_api::scheduler::PriorityScheduler::new(16)),
            &sim.handle(),
        );
        let act = |n: u32| TimerAction::TaskTimeout {
            tid: TaskId(n),
            wait_gen: 0,
        };
        st.push_timer(6, act(3));
        st.push_timer(5, act(1));
        st.push_timer(5, act(2));
        assert_eq!(st.pop_due_timer(), None); // nothing due at tick 0
        st.ticks = 5;
        assert_eq!(st.pop_due_timer(), Some(act(1)));
        assert_eq!(st.pop_due_timer(), Some(act(2)));
        assert_eq!(st.pop_due_timer(), None);
        st.ticks = 7;
        assert_eq!(st.pop_due_timer(), Some(act(3)));
        assert_eq!(st.pop_due_timer(), None);
    }
}
