//! Kernel observation events for differential (oracle) checking and
//! non-intrusive trace streaming.
//!
//! Where the [`crate::trace`] stream describes *execution* (Gantt
//! slices, energy), this stream describes the kernel's *decisions*: who
//! was dispatched at what priority, who was woken from which object and
//! why, which timeouts fired at which tick, and every semantic
//! operation on a synchronisation object. A sequential reference model
//! of the ITRON semantics (the `rtk-farm` oracle) replays these events
//! in lockstep and reports the first decision that deviates from the
//! specification.
//!
//! The complete event grammar — every variant, its field semantics,
//! the ordering guarantees and which ITRON services emit what — is
//! specified in `docs/OBS_GRAMMAR.md`; the on-disk serialisation of a
//! stream is specified in `docs/TRACE_FORMAT.md` (implemented by
//! `rtk_analysis::trace_codec`). [`GRAMMAR_VERSION`] names the
//! revision both documents describe.
//!
//! Events are emitted inside the kernel state borrow, at the same
//! program point as the state mutation they describe, so the stream is a linear
//! history: the wakeups mandated by a stimulus (`tk_sig_sem`,
//! `tk_set_flg`, a mutex unlock, ...) appear contiguously right after
//! it, which is what lets the oracle check wakeup *order*, not just
//! wakeup *sets*.
//!
//! # Consuming the stream
//!
//! The kernel-facing hook is one concrete [`ObsStream`], attached with
//! [`crate::Rtos::set_obs_sink`]: a bounded ring that batches events
//! and hands each batch to every [`StreamSink`] it was built with (the
//! online oracle checker, the binary trace-file writer, the
//! static-model conformance checker, or a `Vec<StampedEvent>` that
//! keeps the whole stream). Each sink lives in an `Rc<RefCell<_>>`:
//! the stream holds one handle, and the code that built the stream
//! keeps another and reads the sink after [`ObsStream::close`]. The
//! stream itself stays `O(ring)` no matter how long the run is. Only a
//! sink may keep less than the whole stream (the trace writer's cap),
//! and it counts its own drops, deterministically.
//!
//! # Checker scope
//!
//! The stream records every path that produces these events, and the
//! `rtk-farm` replay-checker models the full surface a farm workload
//! can produce: the default priority-preemptive scheduler; waits that
//! end by satisfaction, timeout or forced release (`tk_rel_wai`);
//! task lifecycle (`tk_ter_tsk`/`tk_exd_tsk`/`tk_del_tsk`) including
//! release-all-held-mutexes on forced termination; nested
//! suspend/resume; dispatch-disable and CPU-lock windows; ready-queue
//! rotation; variable-size pools (a first-fit arena shadow); and
//! cyclic/alarm handler fire times. Object deletion with live waiters
//! ([`WakeCode::Deleted`]) and custom schedulers remain outside the
//! modeled subset and are reported as divergences by the checker, not
//! validated.

use std::cell::RefCell;
use std::rc::Rc;

use crate::config::Priority;
use crate::error::ErCode;
use crate::ids::{AlmId, CycId, FlgId, MbfId, MbxId, MpfId, MplId, MtxId, SemId, TaskId};
use crate::kernel::mtx::MtxPolicy;
use crate::state::{FlagWaitMode, WaitObj};

/// Revision of the observation-event grammar described by
/// `docs/OBS_GRAMMAR.md` and serialised by the trace format of
/// `docs/TRACE_FORMAT.md`.
///
/// History: **1** — scheduling/sync decisions (PR 3); **2** — full
/// ITRON service surface: lifecycle, suspend nesting, dispatch-control
/// windows, variable pools, cyclic/alarm (PR 5); **3** — tick-stamped
/// delivery ([`StampedEvent`]) and the streaming sink pipeline.
///
/// The version is recorded in every binary trace header. Adding a
/// variant or a field bumps it; see the forward-compatibility policy
/// in `docs/TRACE_FORMAT.md`.
pub const GRAMMAR_VERSION: u16 = 3;

/// Why a wait completed (collapsed from [`ErCode`] to the classes the
/// oracle distinguishes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeCode {
    /// The wait condition was satisfied.
    Ok,
    /// The wait timed out (`E_TMOUT`).
    Timeout,
    /// Forced release (`tk_rel_wai`, `E_RLWAI`).
    Released,
    /// The waited-on object was deleted (`E_DLT`).
    Deleted,
}

impl WakeCode {
    /// Classifies a wait-completion result.
    pub fn of(result: &Result<(), ErCode>) -> WakeCode {
        match result {
            Ok(()) => WakeCode::Ok,
            Err(ErCode::Tmout) => WakeCode::Timeout,
            Err(ErCode::RlWai) => WakeCode::Released,
            Err(ErCode::Dlt) => WakeCode::Deleted,
            Err(_) => WakeCode::Released,
        }
    }
}

/// One observed kernel decision or semantic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings follow the variant docs
pub enum ObsEvent {
    /// A task control block was created (DORMANT) with this base
    /// priority.
    TaskCreate { tid: TaskId, pri: Priority },
    /// A DORMANT task was started (enters READY at its base priority).
    TaskStart { tid: TaskId },
    /// The running task exited (returns to DORMANT). Ownership-transfer
    /// wakeups for mutexes it held follow. Exiting also re-enables
    /// dispatching if the task had disabled it.
    TaskExit { tid: TaskId },
    /// `tk_ter_tsk` succeeded: the target returns to DORMANT, every
    /// mutex it held transfers to its first waiter (those wakeups
    /// follow), and any wait it was blocked in is abandoned (re-serve
    /// wakeups of now-satisfiable waiters follow).
    TaskTerminate { tid: TaskId },
    /// A DORMANT task control block was deleted (`tk_del_tsk`, or the
    /// deletion half of `tk_exd_tsk` right after its
    /// [`ObsEvent::TaskExit`]).
    TaskDelete { tid: TaskId },
    /// `tk_sus_tsk` accepted (suspend count incremented; a READY or
    /// RUNNING target leaves the dispatchable set).
    Suspend { tid: TaskId },
    /// `tk_rsm_tsk` (`force == false`, one nesting level) or
    /// `tk_frsm_tsk` (`force == true`, all levels) accepted.
    Resume { tid: TaskId, force: bool },
    /// `tk_rel_wai` accepted: the target's wait is forcibly released
    /// (its [`WakeCode::Released`] wakeup follows, then any re-serve
    /// wakeups of waiters that became satisfiable).
    RelWai { tid: TaskId },
    /// `tk_rot_rdq` rotated the ready queue of this (resolved)
    /// priority level.
    RotRdq { pri: Priority },
    /// `tk_wup_tsk` accepted: wakes the target if it sleeps, queues
    /// the request otherwise (the spec decides which from its state).
    WupTsk { tid: TaskId },
    /// `tk_slp_tsk` consumed a queued wakeup request without blocking.
    WupConsume { tid: TaskId },
    /// Task dispatching was disabled (`tk_dis_dsp`/`tk_loc_cpu`) or
    /// re-enabled (`tk_ena_dsp`/`tk_unl_cpu`, task exit/termination).
    /// While disabled, no [`ObsEvent::Dispatch`]/[`ObsEvent::Preempt`]
    /// may appear and the running task may not block.
    DispCtl { disabled: bool },
    /// `tk_chg_pri` succeeded with this new base priority.
    PriChange { tid: TaskId, base: Priority },
    /// A task was dispatched (given the CPU) at this current priority.
    Dispatch { tid: TaskId, pri: Priority },
    /// The running task was preempted (requeued at the head of its
    /// priority level).
    Preempt { tid: TaskId },
    /// The running task blocked on `obj`; `deadline_tick` is the
    /// absolute timeout tick for finite timeouts.
    Block {
        tid: TaskId,
        obj: WaitObj,
        deadline_tick: Option<u64>,
    },
    /// A task's wait on `obj` completed with `code` (it becomes READY).
    Wakeup {
        tid: TaskId,
        obj: WaitObj,
        code: WakeCode,
    },
    /// A wait timeout expired at this tick (the matching
    /// [`ObsEvent::Wakeup`] with [`WakeCode::Timeout`] follows).
    TimerFire { tid: TaskId, tick: u64 },

    /// `tk_cre_sem`.
    SemCreate {
        id: SemId,
        init: u32,
        max: u32,
        pri_order: bool,
    },
    /// `tk_sig_sem` accepted `cnt` counts (wakeups follow).
    SemSignal { id: SemId, cnt: u32 },
    /// `tk_wai_sem` was satisfied immediately (no wait).
    SemTake { id: SemId, tid: TaskId, cnt: u32 },

    /// `tk_cre_flg`.
    FlagCreate {
        id: FlgId,
        init: u32,
        pri_order: bool,
    },
    /// `tk_set_flg` ORed this pattern in (wakeups follow).
    FlagSet { id: FlgId, ptn: u32 },
    /// `tk_clr_flg` ANDed the pattern with this mask.
    FlagClear { id: FlgId, mask: u32 },
    /// `tk_wai_flg` was satisfied immediately (clear applied).
    FlagTake {
        id: FlgId,
        tid: TaskId,
        ptn: u32,
        mode: FlagWaitMode,
    },

    /// `tk_cre_mbx`.
    MbxCreate { id: MbxId, pri_order: bool },
    /// `tk_snd_mbx` succeeded (delivery to a waiter or the queue; the
    /// oracle decides which from its own state).
    MbxSend { id: MbxId },
    /// `tk_rcv_mbx` received a queued message immediately.
    MbxTake { id: MbxId, tid: TaskId },

    /// `tk_cre_mbf`.
    MbfCreate {
        id: MbfId,
        bufsz: usize,
        maxmsz: usize,
        pri_order: bool,
    },
    /// `tk_snd_mbf` succeeded immediately (direct handoff or buffered;
    /// the oracle decides which from its own state).
    MbfSend { id: MbfId, len: usize },
    /// `tk_rcv_mbf` received immediately (from the buffer or by
    /// rendezvous; sender wakeups follow when buffer space frees up).
    MbfRecv { id: MbfId, tid: TaskId },

    /// `tk_cre_mtx`.
    MtxCreate { id: MtxId, policy: MtxPolicy },
    /// `tk_loc_mtx` acquired a free mutex immediately.
    MtxLock { id: MtxId, tid: TaskId },
    /// `tk_unl_mtx` released the mutex (an ownership-transfer wakeup
    /// follows when the wait queue is non-empty).
    MtxUnlock { id: MtxId, tid: TaskId },

    /// `tk_cre_mpf`.
    MpfCreate {
        id: MpfId,
        blocks: usize,
        pri_order: bool,
    },
    /// `tk_get_mpf` acquired a free block immediately.
    MpfTake { id: MpfId, tid: TaskId },
    /// `tk_rel_mpf` returned a block (a handoff wakeup follows when the
    /// wait queue is non-empty).
    MpfRel { id: MpfId },

    /// `tk_cre_mpl` (`size` is the aligned arena size).
    MplCreate {
        id: MplId,
        size: usize,
        pri_order: bool,
    },
    /// `tk_get_mpl` allocated immediately: `size` bytes requested
    /// (pre-alignment), first-fit offset `off`.
    MplTake {
        id: MplId,
        tid: TaskId,
        size: usize,
        off: usize,
    },
    /// `tk_rel_mpl` released the allocation at `off` (re-serve wakeups
    /// of queued waiters whose requests now fit follow, in queue
    /// order).
    MplRel { id: MplId, off: usize },

    /// `tk_cre_cyc` (`first_tick` is the absolute tick of the first
    /// activation when created with `TA_STA`).
    CycCreate {
        id: CycId,
        period_ticks: u64,
        first_tick: Option<u64>,
    },
    /// `tk_sta_cyc`: the next activation is armed for `at_tick`.
    CycStart { id: CycId, at_tick: u64 },
    /// `tk_stp_cyc`.
    CycStop { id: CycId },
    /// A cyclic handler activation began at this tick (the next one is
    /// implicitly armed one period later).
    CycFire { id: CycId, tick: u64 },

    /// `tk_sta_alm`: the (one-shot) alarm is armed for `at_tick`.
    AlmArm { id: AlmId, at_tick: u64 },
    /// `tk_stp_alm`.
    AlmStop { id: AlmId },
    /// An alarm handler activation began at this tick (disarms it).
    AlmFire { id: AlmId, tick: u64 },
}

/// One observation event stamped with the kernel tick counter at
/// emission.
///
/// The kernel's only semantic notion of time is the system tick (the
/// 1 ms BFM clock in the paper configuration): timeouts, cyclic
/// periods and alarms are all tick-granular. The grammar therefore
/// stamps events with the *tick*, and fine-grained ordering within a
/// tick is the stream position itself — exporters that need a denser
/// time axis (VCD, Chrome trace) place intra-tick events ordinally and
/// say so (see `docs/OBS_GRAMMAR.md`, "Time model").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StampedEvent {
    /// Kernel tick counter when the event was emitted (ticks since
    /// boot; the tick period is configuration, `KernelConfig::tick`).
    pub tick: u64,
    /// The observed decision or operation.
    pub ev: ObsEvent,
}

/// How a stream ended, passed to [`StreamSink::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamClose {
    /// The simulation ran to its horizon; the stream is a complete
    /// history and end-of-stream invariants (e.g. "no mandated wakeup
    /// left unobserved") may be checked.
    Clean,
    /// The run aborted (a panic unwound mid-operation); the stream is
    /// truncated at an arbitrary point and end-of-stream invariants
    /// must not be applied.
    Aborted,
}

/// A streaming consumer of stamped observation events, fed in batches
/// by [`ObsStream`] whenever its ring fills and once more at close.
/// A ring flush runs inside the kernel state borrow, so a sink must be
/// cheap and must not call back into the kernel (that would panic with
/// `BorrowMutError`).
///
/// Every sink is offered every event. A sink that keeps less (the
/// `.rtkt` writer under a cap, or after an I/O error) counts what it
/// declined itself. That count must be a pure function of the events
/// consumed so far, never of wall-clock or thread timing, so it is
/// the same on every host and at every worker count.
pub trait StreamSink {
    /// Consumes the next events of the stream, in order.
    fn batch(&mut self, events: &[StampedEvent]);

    /// Called once, after the final batch.
    fn close(&mut self, _how: StreamClose) {}
}

/// Keeps the whole stream (the determinism goldens, and a short
/// history handed to `rtk_farm::check`).
impl StreamSink for Vec<StampedEvent> {
    fn batch(&mut self, events: &[StampedEvent]) {
        self.extend_from_slice(events);
    }
}

/// Bounded-ring fan-out from the kernel's observation hook to the
/// [`StreamSink`]s it was built with.
///
/// The producer side ([`ObsStream::event_at`], called inside the kernel
/// state borrow) appends into a ring of [`ObsStream::RING`] events; a
/// full ring goes as one batch to every sink, and [`ObsStream::close`]
/// hands over the rest. Memory is bounded by the ring regardless of
/// run length. The stream holds one `Rc` of each sink; whoever built
/// it keeps another and reads the sink after `close`.
///
/// # Example
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// use rtk_core::{ObsEvent, ObsStream, StampedEvent, StreamClose, TaskId};
///
/// let kept = Rc::new(RefCell::new(Vec::<StampedEvent>::new()));
/// let stream = ObsStream::new(vec![kept.clone()]);
/// // The kernel (here: by hand) stamps each event with its tick.
/// for tick in 0..3 {
///     stream.event_at(tick, ObsEvent::TaskStart { tid: TaskId::from_raw(1) });
/// }
/// assert!(kept.borrow().is_empty()); // still in the ring
/// stream.close(StreamClose::Clean);
/// assert_eq!(kept.borrow().len(), 3);
/// ```
pub struct ObsStream {
    inner: RefCell<StreamInner>,
}

struct StreamInner {
    ring: Vec<StampedEvent>,
    sinks: Vec<Rc<RefCell<dyn StreamSink>>>,
}

impl ObsStream {
    /// Ring capacity in events. Large enough to amortise the per-batch
    /// fan-out, small enough to keep a campaign worker's footprint in
    /// the hundreds of kilobytes. Handing each event to the sinks
    /// directly instead about doubles the sink path's cost per event
    /// (DESIGN.md, "The streaming trace platform").
    pub const RING: usize = 4096;

    /// A stream feeding every event to each of `sinks`, in order.
    pub fn new(sinks: Vec<Rc<RefCell<dyn StreamSink>>>) -> Self {
        ObsStream {
            inner: RefCell::new(StreamInner {
                ring: Vec::with_capacity(Self::RING),
                sinks,
            }),
        }
    }

    /// Receives one event stamped with the kernel tick at emission (the
    /// kernel calls this inside its state borrow). Hands the ring to
    /// every sink when it is full.
    pub fn event_at(&self, tick: u64, ev: ObsEvent) {
        let mut inner = self.inner.borrow_mut();
        inner.ring.push(StampedEvent { tick, ev });
        if inner.ring.len() == Self::RING {
            inner.flush();
        }
    }

    /// Hands the rest of the ring to every sink, closes each one and
    /// lets go of it. A second call, and any event that arrives after
    /// the first, reaches no sink.
    pub fn close(&self, how: StreamClose) {
        let mut inner = self.inner.borrow_mut();
        inner.flush();
        for sink in std::mem::take(&mut inner.sinks) {
            sink.borrow_mut().close(how);
        }
    }
}

impl StreamInner {
    fn flush(&mut self) {
        for sink in &self.sinks {
            sink.borrow_mut().batch(&self.ring);
        }
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_code_classification() {
        assert_eq!(WakeCode::of(&Ok(())), WakeCode::Ok);
        assert_eq!(WakeCode::of(&Err(ErCode::Tmout)), WakeCode::Timeout);
        assert_eq!(WakeCode::of(&Err(ErCode::RlWai)), WakeCode::Released);
        assert_eq!(WakeCode::of(&Err(ErCode::Dlt)), WakeCode::Deleted);
    }

    fn ev(n: u32) -> ObsEvent {
        ObsEvent::TaskStart { tid: TaskId(n) }
    }

    /// A sink that records batch sizes and closes.
    #[derive(Default)]
    struct Spy {
        batches: Vec<usize>,
        closes: Vec<StreamClose>,
    }

    impl StreamSink for Spy {
        fn batch(&mut self, events: &[StampedEvent]) {
            self.batches.push(events.len());
        }

        fn close(&mut self, how: StreamClose) {
            self.closes.push(how);
        }
    }

    #[test]
    fn ring_flushes_in_capacity_batches() {
        let spy = Rc::new(RefCell::new(Spy::default()));
        let kept = Rc::new(RefCell::new(Vec::new()));
        let stream = ObsStream::new(vec![spy.clone(), kept.clone()]);
        let n = 2 * ObsStream::RING + 1;
        for i in 0..n {
            stream.event_at(i as u64, ev(i as u32));
        }
        assert_eq!(spy.borrow().batches, [ObsStream::RING; 2]);
        stream.close(StreamClose::Aborted);
        assert_eq!(spy.borrow().batches, [ObsStream::RING, ObsStream::RING, 1]);
        assert_eq!(spy.borrow().closes, [StreamClose::Aborted]);
        // Every sink sees the whole stream, stamped and in order.
        let stamp = |i: usize| StampedEvent {
            tick: i as u64,
            ev: ev(i as u32),
        };
        assert_eq!(*kept.borrow(), (0..n).map(stamp).collect::<Vec<_>>());
    }

    #[test]
    fn close_is_idempotent_and_late_events_reach_no_sink() {
        let spy = Rc::new(RefCell::new(Spy::default()));
        let kept = Rc::new(RefCell::new(Vec::new()));
        let stream = ObsStream::new(vec![spy.clone(), kept.clone()]);
        stream.event_at(1, ev(1));
        stream.close(StreamClose::Clean);
        stream.event_at(2, ev(2));
        stream.close(StreamClose::Clean);
        assert_eq!(*kept.borrow(), [StampedEvent { tick: 1, ev: ev(1) }]);
        assert_eq!(spy.borrow().closes, [StreamClose::Clean]);
        // The stream let go of both sinks at the first close.
        assert_eq!((Rc::strong_count(&spy), Rc::strong_count(&kept)), (1, 1));
    }
}
