//! Shared kernel state: the SIM_HashTB thread table, the task/object
//! tables, the ready queue, the interrupt stack and the timer queue.
//!
//! The tables every kernel decision touches are dense: the task and
//! object tables and the SIM_HashTB ([`ThreadTable`]) are `ObjTable`s,
//! slot vectors indexed by the 1-based raw ID, so a lookup is an index,
//! not a search. Only interrupt handlers, whose numbers the caller
//! chooses, are kept in ordered maps.
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
use crate::tthread::{ExecContext, TThreadKind, TThreadStats};

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

/// Why a parked T-THREAD is being resumed (what transition to record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResumeKind {
    /// First dispatch after activation (record `Es` already done).
    Start,
    /// Wait completed and the task was dispatched (wait path).
    Wakeup,
    /// Was preempted; resuming records `Ex`.
    Preempted,
    /// Was frozen by an interrupt; resuming records `Ei`.
    Interrupted,
}

/// Control record of one T-THREAD in the SIM_HashTB.
pub(crate) struct TThreadRec {
    pub who: ThreadRef,
    pub name: String,
    pub kind: TThreadKind,
    pub marking: ExecContext,
    pub prev_marking: ExecContext,
    pub stats: TThreadStats,
    /// Notified to hand the thread the CPU (dispatch / nested resume).
    pub resume_ev: EventId,
    /// Notified to ask the thread to yield the CPU at its next
    /// preemption point.
    pub ctrl_ev: EventId,
    /// Notified by the thread once it has parked after a ctrl request.
    pub frozen_ev: EventId,
    /// Handlers: notified to start one activation.
    pub activate_ev: EventId,
    /// Handlers: notified when one activation completes.
    pub done_ev: EventId,
    /// A freeze request is outstanding against this thread.
    pub ctrl_pending: bool,
    /// What to record when `resume_ev` next fires.
    pub resume_as: ResumeKind,
    /// `true` while the thread is parked (not consuming CPU). A parked
    /// occupant can be "frozen" without a handshake.
    pub parked: bool,
    /// CPU grant token: set by a dispatcher right before notifying
    /// `resume_ev`; the thread only leaves its park loop when set. A
    /// freezer revokes the token of a parked-but-granted thread.
    pub cpu_granted: bool,
    /// Live sysc process backing this thread, if any.
    pub proc: Option<ProcId>,
}

/// SIM_HashTB: the control record of every registered T-THREAD, found
/// in constant time.
///
/// Tasks, cyclics and alarms each have an [`ObjTable`] indexed by the
/// IDs their object tables issued. ISRs are keyed by their `IntNo`,
/// which the caller chooses and which therefore never sizes a vector;
/// the timer has one slot. Iteration follows `ThreadRef` order: tasks, cyclics, alarms,
/// ISRs, timer.
#[derive(Default)]
pub(crate) struct ThreadTable {
    tasks: ObjTable<TThreadRec>,
    cycs: ObjTable<TThreadRec>,
    alms: ObjTable<TThreadRec>,
    isrs: BTreeMap<IntNo, TThreadRec>,
    timer: Option<TThreadRec>,
    /// Number of registered records.
    len: usize,
}

impl ThreadTable {
    pub(crate) fn get(&self, who: ThreadRef) -> Option<&TThreadRec> {
        match who {
            ThreadRef::Task(id) => self.tasks.get(id.raw()).ok(),
            ThreadRef::Cyclic(id) => self.cycs.get(id.raw()).ok(),
            ThreadRef::Alarm(id) => self.alms.get(id.raw()).ok(),
            ThreadRef::Isr(no) => self.isrs.get(&no),
            ThreadRef::Timer => self.timer.as_ref(),
        }
    }

    pub(crate) fn get_mut(&mut self, who: ThreadRef) -> Option<&mut TThreadRec> {
        match who {
            ThreadRef::Task(id) => self.tasks.get_mut(id.raw()).ok(),
            ThreadRef::Cyclic(id) => self.cycs.get_mut(id.raw()).ok(),
            ThreadRef::Alarm(id) => self.alms.get_mut(id.raw()).ok(),
            ThreadRef::Isr(no) => self.isrs.get_mut(&no),
            ThreadRef::Timer => self.timer.as_mut(),
        }
    }

    /// Registers `rec` under `rec.who`, which must be vacant.
    pub(crate) fn insert(&mut self, rec: TThreadRec) {
        let old = match rec.who {
            ThreadRef::Task(id) => self.tasks.insert_at(id.raw(), rec),
            ThreadRef::Cyclic(id) => self.cycs.insert_at(id.raw(), rec),
            ThreadRef::Alarm(id) => self.alms.insert_at(id.raw(), rec),
            ThreadRef::Isr(no) => self.isrs.insert(no, rec),
            ThreadRef::Timer => self.timer.replace(rec),
        };
        debug_assert!(old.is_none(), "T-THREAD registered twice");
        self.len += 1;
    }

    /// Drops a deleted task's record; a task created on the freed ID
    /// registers afresh.
    pub(crate) fn remove_task(&mut self, tid: TaskId) {
        self.len -= usize::from(self.tasks.remove(tid.raw()).is_ok());
    }

    pub(crate) fn contains(&self, who: ThreadRef) -> bool {
        self.get(who).is_some()
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every record, in `ThreadRef` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &TThreadRec> {
        self.tasks
            .values()
            .chain(self.cycs.values())
            .chain(self.alms.values())
            .chain(self.isrs.values())
            .chain(&self.timer)
    }
}

impl TThreadRec {
    pub(crate) fn new(h: &SimHandle, who: ThreadRef, name: &str, kind: TThreadKind) -> Self {
        TThreadRec {
            who,
            name: name.to_string(),
            kind,
            marking: ExecContext::Dormant,
            prev_marking: ExecContext::Dormant,
            stats: TThreadStats::default(),
            resume_ev: h.create_event(),
            ctrl_ev: h.create_event(),
            frozen_ev: h.create_event(),
            activate_ev: h.create_event(),
            done_ev: h.create_event(),
            ctrl_pending: false,
            resume_as: ResumeKind::Start,
            parked: true,
            cpu_granted: false,
            proc: None,
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

/// The whole mutable kernel state.
pub(crate) struct KernelState {
    pub cfg: KernelConfig,
    /// Milliseconds since the epoch set by `tk_set_tim`.
    pub systim_ms: u64,
    /// Ticks since boot.
    pub ticks: u64,
    /// SIM_HashTB: every registered T-THREAD.
    pub threads: ThreadTable,
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
    pub(crate) fn new(cfg: KernelConfig, scheduler: Box<dyn Scheduler>) -> Self {
        KernelState {
            cfg,
            systim_ms: 0,
            ticks: 0,
            threads: ThreadTable::default(),
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

    pub(crate) fn thread(&self, who: ThreadRef) -> &TThreadRec {
        self.threads.get(who).expect("unregistered T-THREAD")
    }

    pub(crate) fn thread_mut(&mut self, who: ThreadRef) -> &mut TThreadRec {
        self.threads.get_mut(who).expect("unregistered T-THREAD")
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
        let mut st = KernelState::new(
            KernelConfig::zero_cost(),
            Box::new(crate::sim_api::scheduler::PriorityScheduler::new(16)),
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
