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
//! [`crate::Rtos::set_obs_sink`]: a bounded ring that batches events and fans
//! them out to pluggable [`StreamSink`] backends (the online oracle
//! checker, the binary trace-file writer, a [`CollectSink`] for tests
//! and for handing a short history to `rtk_farm::check`, ...). Memory
//! stays `O(ring)` no matter how long the run is, and a backend that
//! stops accepting events (bounded capture) produces *deterministic*
//! drop accounting instead of unbounded growth.
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
/// Backpressure is modelled by the return value of
/// [`StreamSink::batch`]: a sink accepts a *prefix* of the offered
/// batch and the stream counts the rest as dropped for that sink.
/// Acceptance must be a pure function of the stream content consumed
/// so far (never of wall-clock or thread timing), which is what keeps
/// drop accounting deterministic and byte-identical across hosts and
/// worker-thread counts.
pub trait StreamSink {
    /// Consumes a batch, returning how many of the offered events were
    /// accepted (`<= events.len()`). Unaccepted events are dropped —
    /// they are *not* offered again.
    fn batch(&mut self, events: &[StampedEvent]) -> usize;

    /// Called exactly once, after the final flush.
    fn close(&mut self, _how: StreamClose) {}
}

/// Totals reported by [`ObsStream::close`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events that entered the stream.
    pub events: u64,
    /// Events some backend declined, summed over backends (an event
    /// dropped by two backends counts twice).
    pub dropped: u64,
}

/// Bounded-ring fan-out from the kernel's observation hook to
/// pluggable [`StreamSink`] backends.
///
/// The producer side ([`ObsStream::event_at`], called inside the kernel
/// state borrow) appends into a fixed-capacity ring; when the ring is
/// full it is flushed as one batch to every backend, and a final flush
/// happens at [`ObsStream::close`]. Memory is bounded by the ring
/// capacity regardless of run length.
///
/// # Example
///
/// ```
/// use rtk_core::{CollectSink, ObsEvent, ObsStream, StreamClose, TaskId};
///
/// let (collect, taken) = CollectSink::with_capacity(2);
/// let stream = ObsStream::with_ring_capacity(4).attach(Box::new(collect));
/// // The kernel (here: by hand) stamps each event with its tick.
/// for tick in 0..3 {
///     stream.event_at(tick, ObsEvent::TaskStart { tid: TaskId::from_raw(1) });
/// }
/// let stats = stream.close(StreamClose::Clean);
/// assert_eq!(stats.events, 3);
/// assert_eq!(stats.dropped, 1); // the collector only kept 2
/// assert_eq!(taken.take().len(), 2);
/// ```
pub struct ObsStream {
    inner: RefCell<StreamInner>,
}

struct StreamInner {
    ring: Vec<StampedEvent>,
    capacity: usize,
    sinks: Vec<Box<dyn StreamSink>>,
    stats: StreamStats,
    closed: bool,
}

impl ObsStream {
    /// Default ring capacity: large enough to amortise the per-batch
    /// fan-out, small enough to keep a campaign worker's footprint in
    /// the hundreds of kilobytes.
    pub const DEFAULT_RING: usize = 4096;

    /// A stream with the default ring capacity and no backends.
    pub fn new() -> Self {
        Self::with_ring_capacity(Self::DEFAULT_RING)
    }

    /// A stream whose ring holds `capacity` events (min 1) between
    /// flushes.
    pub fn with_ring_capacity(capacity: usize) -> Self {
        ObsStream {
            inner: RefCell::new(StreamInner {
                ring: Vec::with_capacity(capacity.max(1)),
                capacity: capacity.max(1),
                sinks: Vec::new(),
                stats: StreamStats::default(),
                closed: false,
            }),
        }
    }

    /// Adds a backend (builder style, before the stream is attached to
    /// the kernel).
    #[must_use]
    pub fn attach(mut self, sink: Box<dyn StreamSink>) -> Self {
        self.inner.get_mut().sinks.push(sink);
        self
    }

    /// Flushes the ring and closes every backend. Idempotent: later
    /// calls return the same totals without re-closing the backends.
    /// Events arriving after close are counted as dropped per backend.
    pub fn close(&self, how: StreamClose) -> StreamStats {
        let mut inner = self.inner.borrow_mut();
        if !inner.closed {
            inner.flush();
            inner.closed = true;
            for sink in &mut inner.sinks {
                sink.close(how);
            }
        }
        inner.stats
    }

    /// Receives one event stamped with the kernel tick at emission (the
    /// kernel calls this inside its state borrow). Flushes the ring to
    /// every backend when it is full.
    pub fn event_at(&self, tick: u64, ev: ObsEvent) {
        let mut inner = self.inner.borrow_mut();
        inner.stats.events += 1;
        if inner.closed {
            let n = inner.sinks.len().max(1) as u64;
            inner.stats.dropped += n;
            return;
        }
        inner.ring.push(StampedEvent { tick, ev });
        if inner.ring.len() >= inner.capacity {
            inner.flush();
        }
    }

    /// Totals so far (without flushing).
    pub fn stats(&self) -> StreamStats {
        self.inner.borrow().stats
    }
}

impl Default for ObsStream {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ObsStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("ObsStream")
            .field("capacity", &inner.capacity)
            .field("sinks", &inner.sinks.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl StreamInner {
    fn flush(&mut self) {
        if self.ring.is_empty() {
            return;
        }
        let nsinks = self.sinks.len() as u64;
        if nsinks == 0 {
            // No backend: the whole batch is dropped (bounded memory
            // beats silent unbounded buffering), one drop per event.
            self.stats.dropped += self.ring.len() as u64;
        }
        for sink in &mut self.sinks {
            let accepted = sink.batch(&self.ring).min(self.ring.len());
            self.stats.dropped += (self.ring.len() - accepted) as u64;
        }
        self.ring.clear();
    }
}

/// A bounded [`StreamSink`] that retains the first `capacity` events
/// and declines the rest (deterministic drop accounting in the owning
/// [`ObsStream`]). The retained prefix is read through the paired
/// [`CollectHandle`] after the stream closes.
#[derive(Debug)]
pub struct CollectSink {
    shared: Rc<RefCell<Vec<StampedEvent>>>,
    capacity: usize,
}

/// Reader side of a [`CollectSink`].
#[derive(Debug, Clone)]
pub struct CollectHandle {
    shared: Rc<RefCell<Vec<StampedEvent>>>,
}

impl CollectSink {
    /// A collector keeping at most `capacity` events, plus the handle
    /// that reads them back.
    pub fn with_capacity(capacity: usize) -> (CollectSink, CollectHandle) {
        let shared = Rc::new(RefCell::new(Vec::new()));
        (
            CollectSink {
                shared: Rc::clone(&shared),
                capacity,
            },
            CollectHandle { shared },
        )
    }

    /// An unbounded collector (test convenience).
    pub fn unbounded() -> (CollectSink, CollectHandle) {
        Self::with_capacity(usize::MAX)
    }
}

impl CollectHandle {
    /// Takes the retained events (the buffer is left empty).
    pub fn take(&self) -> Vec<StampedEvent> {
        self.shared.take()
    }
}

impl StreamSink for CollectSink {
    fn batch(&mut self, events: &[StampedEvent]) -> usize {
        let mut buf = self.shared.borrow_mut();
        let room = self.capacity.saturating_sub(buf.len());
        let n = room.min(events.len());
        buf.extend_from_slice(&events[..n]);
        n
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

    /// A sink that records batch sizes and accepts everything.
    struct BatchSpy(Rc<RefCell<Vec<usize>>>);

    impl StreamSink for BatchSpy {
        fn batch(&mut self, events: &[StampedEvent]) -> usize {
            self.0.borrow_mut().push(events.len());
            events.len()
        }
    }

    #[test]
    fn ring_flushes_in_capacity_batches() {
        let sizes = Rc::new(RefCell::new(Vec::new()));
        let stream = ObsStream::with_ring_capacity(3).attach(Box::new(BatchSpy(Rc::clone(&sizes))));
        for i in 0..7 {
            stream.event_at(i, ev(1));
        }
        let stats = stream.close(StreamClose::Clean);
        assert_eq!(
            stats,
            StreamStats {
                events: 7,
                dropped: 0
            }
        );
        assert_eq!(*sizes.borrow(), vec![3, 3, 1]);
    }

    #[test]
    fn bounded_collector_drop_accounting_is_deterministic() {
        let run = || {
            let (collect, handle) = CollectSink::with_capacity(5);
            let stream = ObsStream::with_ring_capacity(2).attach(Box::new(collect));
            for i in 0..9 {
                stream.event_at(i, ev(i as u32));
            }
            let stats = stream.close(StreamClose::Clean);
            (stats, handle.take())
        };
        let (stats_a, kept_a) = run();
        let (stats_b, kept_b) = run();
        assert_eq!(
            stats_a,
            StreamStats {
                events: 9,
                dropped: 4
            }
        );
        assert_eq!(stats_a, stats_b);
        assert_eq!(kept_a, kept_b);
        assert_eq!(kept_a.len(), 5);
        // The retained prefix is the *first* five events, stamped.
        assert_eq!(kept_a[0], StampedEvent { tick: 0, ev: ev(0) });
        assert_eq!(kept_a[4], StampedEvent { tick: 4, ev: ev(4) });
    }

    #[test]
    fn close_is_idempotent_and_late_events_count_dropped() {
        let (collect, handle) = CollectSink::unbounded();
        let stream = ObsStream::new().attach(Box::new(collect));
        stream.event_at(1, ev(1));
        let first = stream.close(StreamClose::Clean);
        assert_eq!(
            first,
            StreamStats {
                events: 1,
                dropped: 0
            }
        );
        stream.event_at(2, ev(2));
        let second = stream.close(StreamClose::Clean);
        assert_eq!(
            second,
            StreamStats {
                events: 2,
                dropped: 1
            }
        );
        assert_eq!(handle.take().len(), 1);
    }

    #[test]
    fn sinkless_stream_stays_bounded_and_counts_drops() {
        let stream = ObsStream::with_ring_capacity(4);
        for i in 0..10 {
            stream.event_at(i, ev(1));
        }
        let stats = stream.close(StreamClose::Aborted);
        assert_eq!(stats.events, 10);
        assert_eq!(stats.dropped, 10);
    }
}
