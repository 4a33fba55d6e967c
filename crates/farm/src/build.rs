//! Scenario execution: expand a [`ScenarioSpec`] into a kernel
//! instance plus workload, run it to the horizon, and measure.
//!
//! One call = one independent kernel simulation. Everything measured
//! here lives in the simulated domain, so the resulting
//! [`ScenarioOutcome`] (and its digest) is identical no matter which
//! worker thread — or host — executed the job.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use rtk_analysis::static_verify::Conformance;
use rtk_analysis::trace_codec::{encode_trace, TraceHeader, TraceTrailer, TraceTuning};
use rtk_core::{
    AlmId, CycId, ErCode, FlagWaitMode, FlgId, IntNo, KernelConfig, MbfId, MbxId, MpfId, MplId,
    MsgPacket, MtxId, MtxPolicy, ObsStream, Priority, QueueOrder, Rtos, RunStats, SemId,
    StampedEvent, StreamClose, StreamSink, Sys, TaskId, Timeout,
};
use sysc::{RunOutcome, SimTime, SpawnMode};

use crate::model::{static_model, WARMUP_US};
use crate::oracle;
use crate::scenario::{Fnv, ScenarioSpec, Topology};

impl Topology {
    /// Critical section of a lock-taking job body, in µs: the tail of
    /// its execution budget, floored at 10 µs. `MtxChain` and
    /// `DispWindow` jobs spend a quarter of it there, `SemChain` and
    /// `LifecycleChurn` jobs a fifth; other topologies take no lock.
    /// The split is a schedule *choice point*: it decides when the lock
    /// attempt lands relative to competing releases. The workload below
    /// and the static model ([`static_model`]) both read it here.
    pub(crate) fn crit_us(self, exec_us: u64) -> u64 {
        let share = match self {
            Topology::MtxChain { .. } | Topology::DispWindow { .. } => 4,
            _ => 5,
        };
        (exec_us / share).max(10)
    }
}

/// Finite blocking timeout of a job body, in ms: 1/500th of the
/// deadline. The second choice point: it decides which schedules take
/// the timeout branch instead of acquiring. Shared by the `MtxChain`,
/// `MbfPipeline`, `MpfPool` and `MplPressure` bodies.
pub(crate) fn mtx_chain_lock_timeout_ms(deadline_us: u64) -> u64 {
    deadline_us / 500
}

/// Priority of `LifecycleChurn`'s victim task.
pub(crate) const CHURN_VICTIM_PRI: Priority = 105;

/// Length of the victim's mutex critical section, in µs.
pub(crate) const CHURN_VICTIM_CRIT_US: u64 = 400;

/// Binary trace capture settings for a run (CLI `--trace-dir` /
/// `--trace-cap`): one `.rtkt` file per scenario is written into
/// `dir`, named `seed-<seed>.rtkt` (see `docs/TRACE_FORMAT.md`).
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Directory receiving the trace files (must exist).
    pub dir: PathBuf,
    /// Maximum events written per trace; `0` means unlimited. Excess
    /// events are counted in the trace trailer's drop count.
    pub cap: u64,
    /// Generator tuning to record in the trace header so an offline
    /// `--replay --analyze` can regenerate the exact spec from the
    /// seed (the tuning changes the generator's draw sequence).
    pub tuning: Option<TraceTuning>,
}

impl TraceConfig {
    /// The trace file of `seed`: `seed-<seed>.rtkt` in `dir`, the seed
    /// zero-padded to ten digits.
    pub fn path(&self, seed: u64) -> PathBuf {
        self.dir.join(format!("seed-{seed:010}.rtkt"))
    }
}

/// Encodes the collected stream of `spec`'s run as its `.rtkt` file:
/// the first `tc.cap` events (every event when the cap is 0), and a
/// trailer that counts them all and the rest as dropped. The drops go
/// into `out.obs_dropped`. A panicked run's trailer says `Aborted`, so
/// a replay skips the end-of-stream invariants a truncated stream
/// would fail.
pub(crate) fn encode_capture(
    spec: &ScenarioSpec,
    tc: &TraceConfig,
    events: &[StampedEvent],
    out: &mut ScenarioOutcome,
) -> Vec<u8> {
    let header = TraceHeader {
        grammar_version: rtk_core::GRAMMAR_VERSION,
        seed: spec.seed,
        tick_us: KernelConfig::paper().tick.as_us() as u32,
        topology: spec.topology.label().to_string(),
        runtime: sysc::Runtime::default().as_str().to_string(),
        tuning: tc.tuning,
    };
    let kept = match usize::try_from(tc.cap) {
        Ok(0) | Err(_) => events.len(),
        Ok(cap) => events.len().min(cap),
    };
    let trailer = TraceTrailer {
        close: match out.panicked {
            None => StreamClose::Clean,
            Some(_) => StreamClose::Aborted,
        },
        events: events.len() as u64,
        dropped: (events.len() - kept) as u64,
    };
    out.obs_dropped = trailer.dropped;
    encode_trace(&header, &events[..kept], Some(trailer))
}

/// Writes an encoded trace to `path` with one `fs::write`. A file that
/// cannot be created or written keeps none of its stream: the caller
/// counts every event as dropped, after this prints one line naming
/// the file. Returns whether the file was written.
pub(crate) fn write_capture(path: &Path, bytes: &[u8]) -> bool {
    match std::fs::write(path, bytes) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("rtk-farm: cannot write trace {}: {e}", path.display());
            false
        }
    }
}

/// Measured result of one scenario run.
#[derive(Debug, Clone, Default)]
pub struct ScenarioOutcome {
    /// The seed that named the scenario.
    pub seed: u64,
    /// Digest of the expanded spec (see [`ScenarioSpec::digest`]).
    pub spec_digest: u64,
    /// Periodic releases issued by the cyclic handlers.
    pub releases: u64,
    /// Jobs completed by the tasks.
    pub completions: u64,
    /// Jobs whose response latency exceeded the period (implicit
    /// deadline).
    pub deadline_misses: u64,
    /// Response latency of every completed job, release → completion,
    /// in microseconds (order: completion order, which is
    /// deterministic).
    pub latencies_us: Vec<u64>,
    /// Kernel-level aggregate counters at the horizon.
    pub stats: RunStats,
    /// How the engine run ended: `"limit"` (normal), `"starved"`, or
    /// `"delta_limit"` (livelock).
    pub engine_outcome: &'static str,
    /// Panic payload if the scenario panicked.
    pub panicked: Option<String>,
    /// `true` when the kernel as a whole stopped making progress:
    /// zero completions despite releases, or a completion gap longer
    /// than twice the largest period while a backlog existed — the
    /// deadlock indicator the CI smoke gate fails on.
    pub stalled: bool,
    /// Tasks that never completed a single job although ≥4 were
    /// released. Starvation of low-priority tasks under overload is a
    /// legitimate RTOS behaviour (reported, not a health failure).
    pub starved_tasks: u64,
    /// Kernel decisions replayed through the differential oracle
    /// (0 when the oracle was not enabled for this run).
    pub oracle_events: u64,
    /// First spec-vs-kernel divergence the oracle found, if any:
    /// `(event index, rendered account)`.
    pub divergence: Option<(u64, String)>,
    /// Observation events the `.rtkt` capture did not keep: the events
    /// past `--trace-cap`, which its trailer counts as dropped, or every
    /// event of a trace whose file could not be created or written.
    /// Deliberately **excluded from
    /// [`digest`](Self::digest)**: whether and where a trace was
    /// captured is host-side instrumentation and must not change the
    /// simulated-domain identity of the run.
    pub obs_dropped: u64,
    /// Worst observed response latency per task (µs), counting only
    /// jobs released at or after [`WARMUP_US`] — the steady-state
    /// figure the static response-time bounds are checked against.
    /// Populated only on `--analyze` runs and **excluded from
    /// [`digest`](Self::digest)** (host-side verification state; the
    /// campaign digest must not depend on whether analysis ran).
    pub max_latency_by_task: Vec<u64>,
    /// Deadline misses among jobs released at or after [`WARMUP_US`].
    /// `--analyze` runs only; digest-excluded like
    /// [`max_latency_by_task`](Self::max_latency_by_task).
    pub post_warmup_misses: u64,
    /// Lock-order conformance violations the observed stream committed
    /// against the declared static model (see
    /// [`rtk_analysis::static_verify::Conformance`]). `--analyze` runs
    /// only; digest-excluded.
    pub conformance_violations: u64,
    /// Rendered accounts of the first conformance violations.
    pub conformance_details: Vec<String>,
}

impl ScenarioOutcome {
    /// `true` when the scenario neither panicked, stalled, nor ended
    /// abnormally. With the kernel's periodic system tick, the only
    /// normal way for a run to end is hitting the horizon (`"limit"`);
    /// `"starved"` or `"delta_limit"` means the engine itself wedged.
    pub fn healthy(&self) -> bool {
        self.panicked.is_none()
            && !self.stalled
            && self.engine_outcome == "limit"
            && self.divergence.is_none()
    }

    /// FNV-1a digest over every simulated-domain field. Two runs of
    /// the same scenario must produce the same digest — the farm's
    /// determinism tests and the campaign digest build on this.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.seed);
        h.u64(self.spec_digest);
        h.u64(self.releases);
        h.u64(self.completions);
        h.u64(self.deadline_misses);
        h.u64(self.latencies_us.len() as u64);
        for &l in &self.latencies_us {
            h.u64(l);
        }
        h.u64(self.stats.now.as_ps());
        h.u64(self.stats.ticks);
        h.u64(self.stats.dispatches);
        h.u64(self.stats.preemptions);
        h.u64(self.stats.interruptions);
        h.u64(self.stats.activations);
        h.u64(self.stats.busy_time.as_ps());
        h.u64(self.stats.busy_energy.as_pj());
        h.u64(self.stats.idle_time.as_ps());
        h.u64(self.stats.idle_energy.as_pj());
        h.u64(u64::from(self.stats.threads));
        h.bytes(self.engine_outcome.as_bytes());
        h.u64(u64::from(self.panicked.is_some()));
        h.u64(u64::from(self.stalled));
        h.u64(self.starved_tasks);
        h.u64(self.oracle_events);
        match &self.divergence {
            None => h.u64(0),
            Some((index, detail)) => {
                h.u64(1);
                h.u64(*index);
                h.bytes(detail.as_bytes());
            }
        }
        h.finish()
    }
}

/// Per-run measurement shared between the workload closures, which
/// all run inside one single-threaded sysc simulation. A closure
/// borrows it between two service calls, never across one.
#[derive(Default)]
struct Collect {
    /// Release timestamps (µs) not yet consumed, per task.
    pending: Vec<VecDeque<u64>>,
    /// Releases issued, per task.
    releases: Vec<u64>,
    /// Jobs completed, per task.
    completions: Vec<u64>,
    latencies_us: Vec<u64>,
    misses: u64,
    /// Simulated time (µs) of the most recent completion, any task.
    last_completion_us: u64,
    /// Worst response latency per task among jobs released at or
    /// after [`WARMUP_US`] (static-bound cross-check input).
    max_latency_us: Vec<u64>,
    /// Deadline misses among jobs released at or after [`WARMUP_US`].
    post_warmup_misses: u64,
}

impl Collect {
    fn new(ntasks: usize) -> Self {
        Collect {
            pending: vec![VecDeque::new(); ntasks],
            releases: vec![0; ntasks],
            completions: vec![0; ntasks],
            max_latency_us: vec![0; ntasks],
            ..Collect::default()
        }
    }
}

/// What a scenario run attaches to the kernel's observation stream.
/// Every attachment only observes: none changes what the kernel does,
/// so the outcome's [`digest`](ScenarioOutcome::digest) is the same
/// under every plan, apart from the fields the oracle fills in
/// (`oracle_events`, `divergence`). The default plan attaches nothing,
/// and a run with nothing attached builds no stream at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunPlan {
    /// Replay every kernel decision through the sequential ITRON
    /// reference model ([`crate::oracle`]); the first divergence is
    /// reported in the outcome and makes it unhealthy.
    pub oracle: bool,
    /// Return a copy of the stream (every event with the tick it is
    /// stamped with) beside the outcome. `.rtkt` capture encodes this
    /// copy once the run is over, and the determinism goldens pin it.
    pub collect_events: bool,
    /// Feed the stream through the static-model conformance checker and
    /// collect the warmup-filtered measurements the static/dynamic
    /// cross-validation consumes ([`crate::verify`]): per-task worst
    /// post-warmup latency, post-warmup deadline misses and lock-order
    /// conformance violations, all in digest-excluded outcome fields.
    pub analyze: bool,
}

/// [`run_scenario`] with at most the oracle attached. `runtime` is
/// ignored: coroutines are sysc's only process runtime. Kept only
/// because the `farmbench/` benchmark calls this signature; the next
/// change to the benchmark deletes it.
pub fn run_scenario_checked_on(
    spec: &ScenarioSpec,
    oracle: bool,
    _runtime: sysc::Runtime,
) -> ScenarioOutcome {
    run_scenario(
        spec,
        &RunPlan {
            oracle,
            ..RunPlan::default()
        },
    )
    .0
}

/// [`run_scenario`] with at most the oracle attached, its stream
/// captured into `trace.dir` on the calling thread: collected, encoded
/// and written once the run is over. `runtime` is ignored, and the
/// function kept and due for deletion, as [`run_scenario_checked_on`].
pub fn run_scenario_traced(
    spec: &ScenarioSpec,
    oracle: bool,
    _runtime: sysc::Runtime,
    trace: &TraceConfig,
) -> ScenarioOutcome {
    let (mut out, events) = run_scenario(
        spec,
        &RunPlan {
            oracle,
            collect_events: true,
            ..RunPlan::default()
        },
    );
    let bytes = encode_capture(spec, trace, &events, &mut out);
    if !write_capture(&trace.path(spec.seed), &bytes) {
        out.obs_dropped = events.len() as u64;
    }
    out
}

/// [`run_scenario`] with the oracle attached and the stream collected.
/// `runtime` is ignored, and the function kept and due for deletion,
/// as [`run_scenario_checked_on`].
pub fn run_scenario_observed(
    spec: &ScenarioSpec,
    _runtime: sysc::Runtime,
) -> (ScenarioOutcome, Vec<StampedEvent>) {
    run_scenario(
        spec,
        &RunPlan {
            oracle: true,
            collect_events: true,
            ..RunPlan::default()
        },
    )
}

/// Shares `sink` between the stream's sink list and the caller.
fn attach<S: StreamSink + 'static>(
    sinks: &mut Vec<Rc<RefCell<dyn StreamSink>>>,
    sink: S,
) -> Rc<RefCell<S>> {
    let sink = Rc::new(RefCell::new(sink));
    sinks.push(sink.clone());
    sink
}

/// Runs one scenario to its horizon with the attachments `plan` names
/// and returns the measurements, plus the collected stream (empty
/// unless `plan.collect_events`). Panics inside the simulation are
/// caught and reported in the outcome, not propagated — a farm
/// campaign must survive any single bad scenario.
pub fn run_scenario(spec: &ScenarioSpec, plan: &RunPlan) -> (ScenarioOutcome, Vec<StampedEvent>) {
    let mut out = ScenarioOutcome {
        seed: spec.seed,
        spec_digest: spec.digest(),
        engine_outcome: "panicked",
        ..ScenarioOutcome::default()
    };

    let collect = Rc::new(RefCell::new(Collect::new(spec.tasks.len())));

    // Assemble the observation pipeline: every consumer is a sink on
    // one shared stream, so the kernel pays for instrumentation once
    // no matter how many consumers are attached. The run keeps its own
    // `Rc` of each sink and reads it after the stream closes.
    let mut sinks: Vec<Rc<RefCell<dyn StreamSink>>> = Vec::new();
    let checker = plan
        .oracle
        .then(|| attach(&mut sinks, oracle::Checker::new()));
    let collected = plan.collect_events.then(|| attach(&mut sinks, Vec::new()));
    let conformance = plan
        .analyze
        .then(|| attach(&mut sinks, Conformance::from_model(&static_model(spec))));
    // No sink, no stream: its ring is the largest allocation a run
    // would make, and nothing would read it.
    let obs = (!sinks.is_empty()).then(|| Rc::new(ObsStream::new(sinks)));

    let result = {
        let collect = Rc::clone(&collect);
        let obs = obs.clone();
        let spec = spec.clone();
        catch_unwind(AssertUnwindSafe(move || execute(&spec, &collect, obs)))
    };
    // Flush the ring into the sinks. A panic truncates the stream
    // mid-operation, and the close says so.
    if let Some(stream) = &obs {
        stream.close(if result.is_ok() {
            StreamClose::Clean
        } else {
            StreamClose::Aborted
        });
    }
    // On a panicked run the panic itself is the finding — a truncated
    // stream would report a bogus "mandated wakeup never observed", so
    // the oracle verdict is taken from clean runs only.
    if result.is_ok() {
        if let Some(checker) = &checker {
            let verdict = checker.borrow().verdict(true);
            out.oracle_events = verdict.events_checked;
            out.divergence = verdict.divergence.map(|d| (d.index as u64, d.to_string()));
        }
    }
    let events = collected.map(|c| c.take()).unwrap_or_default();
    if let Some(conformance) = &conformance {
        let c = conformance.borrow();
        out.conformance_violations = c.violation_count();
        out.conformance_details = c.violations().to_vec();
    }

    match result {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            out.panicked = Some(msg);
        }
        Ok((engine_outcome, stats)) => {
            out.engine_outcome = engine_outcome;
            out.stats = stats;
            let mut collect = collect.borrow_mut();
            out.latencies_us = std::mem::take(&mut collect.latencies_us);
            out.deadline_misses = collect.misses;
            if plan.analyze {
                out.max_latency_by_task = std::mem::take(&mut collect.max_latency_us);
                out.post_warmup_misses = collect.post_warmup_misses;
            }
            for i in 0..spec.tasks.len() {
                let rel = collect.releases[i];
                let cmp = collect.completions[i];
                out.releases += rel;
                out.completions += cmp;
                if rel >= 4 && cmp == 0 {
                    out.starved_tasks += 1;
                }
            }
            // Kernel-wide progress checks.
            //
            // (a) Tick progress: the system tick fires every 1 ms
            // (paper config) no matter what the workload does, so a
            // tick counter far below the horizon means the interrupt
            // stack jammed — this catches deadlocks from the very
            // first millisecond, before any release happened. Half
            // the horizon is generous slack for boot time and ticks
            // pended behind interrupt storms.
            let horizon_ms = u64::from(spec.horizon_ms);
            if out.stats.ticks < horizon_ms / 2 {
                out.stalled = true;
            }
            // (b) Completion progress: a healthy (even overloaded)
            // scenario keeps completing *some* job; a deadlocked one
            // goes quiet while the backlog stays. The grace window of
            // two maximum periods absorbs end-of-horizon stragglers
            // and deferred-release faults.
            if out.releases >= 2 {
                let horizon_us = horizon_ms * 1000;
                let max_period_us = spec
                    .tasks
                    .iter()
                    .map(|t| u64::from(t.period_ms) * 1000)
                    .max()
                    .unwrap_or(0);
                let last_us = collect.last_completion_us;
                let backlog = out.releases - out.completions;
                out.stalled |= out.completions == 0
                    || (backlog > 0 && last_us + 2 * max_period_us < horizon_us);
            }
        }
    }
    (out, events)
}

/// The kernel objects a job body works with beside its own release
/// gate, one variant per topology. It is `Copy`, so each task body
/// captures its own.
#[derive(Clone, Copy)]
enum Kit {
    Independent,
    SemChain(SemId),
    MbxPipeline(MbxId),
    FlagBarrier(FlgId),
    MtxChain(MtxId),
    MbfPipeline(MbfId),
    MpfPool(MpfId),
    LifecycleChurn(MtxId),
    DispWindow {
        lock_cpu: bool,
    },
    MplPressure(MplId),
    /// The time-event storm before the task loop: the spare cyclic
    /// handler task 0 starts and stops. [`Kit::for_task`] turns it into
    /// each task's [`Kit::AlmCycTask`].
    AlmCycStorm(CycId),
    /// One storm task's kit: the spare cyclic handler, the task's own
    /// alarm and the semaphore that alarm signals.
    AlmCycTask {
        flicker: CycId,
        alarm: AlmId,
        done: SemId,
    },
}

impl Kit {
    /// Creates the topology's shared objects, then its helper tasks.
    fn build(sys: &mut Sys<'_>, spec: &ScenarioSpec, order: QueueOrder) -> Kit {
        let ntasks = spec.tasks.len();
        match spec.topology {
            Topology::Independent => Kit::Independent,
            Topology::SemChain => Kit::SemChain(sys.tk_cre_sem("chain", 1, 1, order).unwrap()),
            Topology::MbxPipeline => {
                Kit::MbxPipeline(sys.tk_cre_mbx("pipe", false, order).unwrap())
            }
            Topology::FlagBarrier => {
                // A low-priority collector waits for the AND of every
                // task's bit, with clear.
                let flg = sys.tk_cre_flg("barrier", 0, false, order).unwrap();
                let all_bits: u32 = (1u32 << ntasks) - 1;
                let mode = FlagWaitMode::AND.with_clear();
                spawn(sys, "collector", 130, move |sys, _| {
                    while sys
                        .tk_wai_flg(flg, all_bits, mode, Timeout::Forever)
                        .is_ok()
                    {}
                });
                Kit::FlagBarrier(flg)
            }
            Topology::MtxChain { ceiling } => {
                // The ceiling is the task set's most urgent base priority.
                let policy = if ceiling {
                    let top_pri = spec.tasks.iter().map(|t| t.priority).min().unwrap_or(1);
                    MtxPolicy::Ceiling(top_pri)
                } else {
                    MtxPolicy::Inherit
                };
                Kit::MtxChain(sys.tk_cre_mtx("chain", policy).unwrap())
            }
            Topology::MbfPipeline => {
                // Room for two maximum-size records: small enough to fill
                // up (blocking senders), big enough to pipeline. A
                // low-priority drain receives in a loop, so senders
                // alternate between buffered sends, blocked sends and
                // direct rendezvous handoffs.
                let mbf = sys.tk_cre_mbf("pipe", 16, 8, order).unwrap();
                spawn(sys, "drain", 131, move |sys, _| {
                    while sys.tk_rcv_mbf(mbf, Timeout::Forever).is_ok() {}
                });
                Kit::MbfPipeline(mbf)
            }
            // Undersized on purpose: roughly half the task count.
            Topology::MpfPool => Kit::MpfPool(
                sys.tk_cre_mpf("pool", (ntasks / 2).max(1), 32, order)
                    .unwrap(),
            ),
            Topology::LifecycleChurn => {
                let mtx = sys.tk_cre_mtx("churn", MtxPolicy::Inherit).unwrap();
                start_churn(sys, mtx, order);
                Kit::LifecycleChurn(mtx)
            }
            Topology::DispWindow { lock_cpu } => Kit::DispWindow { lock_cpu },
            Topology::MplPressure => {
                // Undersized: the hoarder plus a couple of jobs fill it.
                let mpl = sys.tk_cre_mpl("arena", ntasks * 24 + 40, order).unwrap();
                spawn(sys, "hoarder", 132, move |sys, _| hoard(sys, mpl));
                Kit::MplPressure(mpl)
            }
            // A spare cyclic handler the workload starts and stops on the
            // fly.
            Topology::AlmCycStorm => {
                let (period, phase) = (SimTime::from_ms(3), SimTime::from_ms(1));
                let flicker = sys.tk_cre_cyc("flicker", period, phase, true, |sys| {
                    sys.exec(SimTime::from_us(30))
                });
                Kit::AlmCycStorm(flicker.unwrap())
            }
        }
    }

    /// Task `i`'s kit, created right after its release gate: each task
    /// of the time-event storm arms its own alarm, which signals a
    /// completion semaphore of its own.
    fn for_task(self, sys: &mut Sys<'_>, i: usize, order: QueueOrder) -> Kit {
        let Kit::AlmCycStorm(flicker) = self else {
            return self;
        };
        let done = sys
            .tk_cre_sem(&format!("alm_done{i}"), 0, u32::MAX / 2, order)
            .unwrap();
        let alarm = sys.tk_cre_alm(&format!("alm{i}"), move |sys| {
            let _ = sys.tk_sig_sem(done, 1);
        });
        Kit::AlmCycTask {
            flicker,
            alarm: alarm.unwrap(),
            done,
        }
    }

    /// The `jobs`-th job of task `i`, from its release to its
    /// completion. A lock-taking body holds its lock for the last
    /// `crit` of its `exec_us` µs (see [`Topology::crit_us`]).
    fn job(
        self,
        sys: &mut Sys<'_>,
        i: usize,
        jobs: u64,
        exec_us: u64,
        crit: u64,
        deadline_us: u64,
    ) {
        let exec = SimTime::from_us(exec_us);
        // The finite blocking timeout of the lock-taking bodies.
        let timeout = Timeout::ms(mtx_chain_lock_timeout_ms(deadline_us));
        match self {
            Kit::Independent => sys.exec(exec),
            Kit::SemChain(sem) => {
                sys.exec(SimTime::from_us(exec_us - crit));
                if sys.tk_wai_sem(sem, 1, Timeout::Forever).is_ok() {
                    sys.exec(SimTime::from_us(crit));
                    sys.tk_sig_sem(sem, 1).unwrap();
                }
            }
            Kit::MbxPipeline(mbx) => {
                sys.exec(exec);
                if i == 0 {
                    while sys.tk_rcv_mbx(mbx, Timeout::Poll).is_ok() {}
                } else {
                    sys.tk_snd_mbx(mbx, MsgPacket::new(vec![i as u8])).unwrap();
                }
            }
            Kit::FlagBarrier(flg) => {
                sys.exec(exec);
                sys.tk_set_flg(flg, 1 << i).unwrap();
            }
            Kit::MtxChain(mtx) => {
                sys.exec(SimTime::from_us(exec_us - crit));
                // Finite timeout: under heavy inversion the lock attempt
                // may expire, exercising the timer path; the job still
                // completes.
                if sys.tk_loc_mtx(mtx, timeout).is_ok() {
                    sys.exec(SimTime::from_us(crit));
                    sys.tk_unl_mtx(mtx).unwrap();
                }
            }
            Kit::MbfPipeline(mbf) => {
                sys.exec(exec);
                // A full pipeline may time the send out; the record is
                // then dropped, not the job.
                let _ = sys.tk_snd_mbf(mbf, &vec![i as u8; 1 + (i % 8)], timeout);
            }
            // Pool exhausted past the timeout: run without the block.
            Kit::MpfPool(mpf) => match sys.tk_get_mpf(mpf, timeout) {
                Ok(blk) => {
                    sys.exec(exec);
                    sys.tk_rel_mpf(mpf, blk).unwrap();
                }
                Err(_) => sys.exec(exec),
            },
            Kit::LifecycleChurn(mtx) => {
                // Share the churn mutex with the victim so terminations
                // hit live inheritance chains.
                sys.exec(SimTime::from_us(exec_us - crit));
                if sys.tk_loc_mtx(mtx, Timeout::ms(2)).is_ok() {
                    sys.exec(SimTime::from_us(crit));
                    let _ = sys.tk_unl_mtx(mtx);
                }
            }
            Kit::DispWindow { lock_cpu } => {
                sys.exec(SimTime::from_us(exec_us - crit));
                if lock_cpu {
                    let _ = sys.tk_loc_cpu();
                } else {
                    let _ = sys.tk_dis_dsp();
                }
                sys.exec(SimTime::from_us(crit));
                let _ = sys.tk_rot_rdq(0);
                if lock_cpu {
                    let _ = sys.tk_unl_cpu();
                } else {
                    let _ = sys.tk_ena_dsp();
                }
            }
            // Arena exhausted past the timeout: run without the block.
            Kit::MplPressure(mpl) => match sys.tk_get_mpl(mpl, 8 + (i * 12) % 36, timeout) {
                Ok(off) => {
                    sys.exec(exec);
                    let _ = sys.tk_rel_mpl(mpl, off);
                }
                Err(_) => sys.exec(exec),
            },
            Kit::AlmCycTask {
                flicker,
                alarm,
                done,
            } => {
                let _ = sys.tk_sta_alm(alarm, SimTime::from_us((exec_us / 2).max(100)));
                if jobs.is_multiple_of(5) {
                    // Disarm before it fires: the collect wait below must
                    // then time out.
                    let _ = sys.tk_stp_alm(alarm);
                }
                sys.exec(exec);
                let _ = sys.tk_wai_sem(done, 1, Timeout::ms(1));
                if i == 0 {
                    if jobs.is_multiple_of(2) {
                        let _ = sys.tk_stp_cyc(flicker);
                    } else {
                        let _ = sys.tk_sta_cyc(flicker);
                    }
                }
            }
            Kit::AlmCycStorm(_) => unreachable!("Kit::for_task arms every storm task"),
        }
    }
}

/// Builds and runs the kernel; returns the engine outcome label and
/// the final stats snapshot.
fn execute(
    spec: &ScenarioSpec,
    collect: &Rc<RefCell<Collect>>,
    obs: Option<Rc<ObsStream>>,
) -> (&'static str, RunStats) {
    let order = if spec.priority_queues {
        QueueOrder::Priority
    } else {
        QueueOrder::Fifo
    };

    let mut rtos = {
        let collect = Rc::clone(collect);
        let spec = spec.clone();
        Rtos::new(KernelConfig::paper(), move |sys, _| {
            let kit = Kit::build(sys, &spec, order);
            for (i, task) in spec.tasks.iter().enumerate() {
                let gate = sys
                    .tk_cre_sem(&format!("gate{i}"), 0, u32::MAX / 2, order)
                    .unwrap();
                let kit = kit.for_task(sys, i, order);

                // Release side: a cyclic handler stamps the intended
                // release time and opens the gate. The delayed-timer
                // fault defers the *signal* (not the stamp) by one
                // cycle, so the latency of the deferred job includes
                // the full extra period.
                {
                    let collect = Rc::clone(&collect);
                    let delay_nth = spec.faults.delay_every_nth_release;
                    let mut deferred: u32 = 0;
                    sys.tk_cre_cyc(
                        &format!("rel{i}"),
                        SimTime::from_ms(u64::from(task.period_ms)),
                        SimTime::from_ms(u64::from(task.phase_ms)),
                        true,
                        move |sys| {
                            let now_us = sys.now().as_us();
                            let n = {
                                let mut c = collect.borrow_mut();
                                c.pending[i].push_back(now_us);
                                c.releases[i] += 1;
                                c.releases[i]
                            };
                            let defer =
                                delay_nth.is_some_and(|nth| n.is_multiple_of(u64::from(nth)));
                            if defer {
                                deferred += 1;
                            } else {
                                let signals = 1 + std::mem::take(&mut deferred);
                                sys.tk_sig_sem(gate, signals).unwrap();
                            }
                        },
                    )
                    .unwrap();
                }

                // Consumer side: the periodic task.
                let collect = Rc::clone(&collect);
                let exec_us = u64::from(task.exec_us);
                let crit_us = spec.topology.crit_us(exec_us);
                let deadline_us = u64::from(task.period_ms) * 1000;
                let body = move |sys: &mut Sys<'_>, _stacd: i32| {
                    let mut jobs: u64 = 0;
                    while sys.tk_wai_sem(gate, 1, Timeout::Forever).is_ok() {
                        jobs += 1;
                        let release_us = collect.borrow_mut().pending[i]
                            .pop_front()
                            .expect("every gate signal has a release stamp");
                        kit.job(sys, i, jobs, exec_us, crit_us, deadline_us);
                        let now_us = sys.now().as_us();
                        let latency = now_us - release_us;
                        let mut c = collect.borrow_mut();
                        c.latencies_us.push(latency);
                        c.completions[i] += 1;
                        c.last_completion_us = c.last_completion_us.max(now_us);
                        if latency > deadline_us {
                            c.misses += 1;
                        }
                        // Steady-state view for the static analyzer:
                        // jobs released during the boot/creation
                        // transient are exempt (docs/STATIC_ANALYSIS.md).
                        if release_us >= WARMUP_US {
                            c.max_latency_us[i] = c.max_latency_us[i].max(latency);
                            if latency > deadline_us {
                                c.post_warmup_misses += 1;
                            }
                        }
                    }
                };
                spawn(sys, &format!("tsk{i}"), task.priority, body);
            }

            // Interrupt service routines for the storm lines.
            if let Some(storm) = &spec.storm {
                for line in 0..storm.lines {
                    let isr_us = u64::from(storm.isr_us);
                    sys.tk_def_int(
                        IntNo(u32::from(line)),
                        line,
                        &format!("storm{line}"),
                        move |sys| {
                            sys.exec(SimTime::from_us(isr_us));
                        },
                    )
                    .unwrap();
                }
            }
        })
    };

    if let Some(obs) = obs {
        rtos.set_obs_sink(obs);
    }

    // The storm itself: a simulated hardware process outside the
    // kernel raising requests through the BFM interrupt port. The
    // dropped-interrupt fault suppresses every Nth request at the
    // source (a flaky line), deterministically.
    if let Some(storm) = spec.storm.clone() {
        let port = rtos.int_port();
        let horizon = SimTime::from_ms(u64::from(spec.horizon_ms));
        let drop_nth = spec.faults.drop_every_nth_irq;
        rtos.sim_handle()
            .spawn_thread(SpawnMode::Immediate, move |ctx| {
                ctx.wait_time(SimTime::from_us(u64::from(storm.first_us)));
                let mut n: u64 = 0;
                while ctx.now() < horizon {
                    n += 1;
                    let line = (n % u64::from(storm.lines)) as u8;
                    let dropped = drop_nth.is_some_and(|nth| n.is_multiple_of(u64::from(nth)));
                    if !dropped {
                        port.raise(IntNo(u32::from(line)), line);
                    }
                    ctx.wait_time(SimTime::from_us(u64::from(storm.gap_us)));
                }
            });
    }

    let outcome = rtos.run_until(SimTime::from_ms(u64::from(spec.horizon_ms)));
    let label = match outcome {
        RunOutcome::ReachedLimit => "limit",
        RunOutcome::Starved => "starved",
        RunOutcome::DeltaLimitExceeded => "delta_limit",
    };
    (label, rtos.run_stats())
}

/// Creates a task and starts it; returns its ID.
fn spawn(
    sys: &mut Sys<'_>,
    name: &str,
    priority: Priority,
    body: impl FnMut(&mut Sys<'_>, i32) + 'static,
) -> TaskId {
    let tid = sys.tk_cre_tsk(name, priority, body).unwrap();
    sys.tk_sta_tsk(tid, 0).unwrap();
    tid
}

/// `LifecycleChurn`'s victim and saboteur.
fn start_churn(sys: &mut Sys<'_>, mtx: MtxId, order: QueueOrder) {
    // Victim: cycles a timed inheritance-mutex critical section and
    // timed sleeps; every wait class it enters is releasable or
    // terminable mid-flight. It tolerates forced releases — the
    // saboteur supplies them.
    let victim = spawn(sys, "victim", CHURN_VICTIM_PRI, move |sys, _| loop {
        if sys.tk_loc_mtx(mtx, Timeout::ms(4)).is_ok() {
            sys.exec(SimTime::from_us(CHURN_VICTIM_CRIT_US));
            let _ = sys.tk_unl_mtx(mtx);
        }
        match sys.tk_slp_tsk(Timeout::ms(3)) {
            Ok(()) | Err(ErCode::Tmout) | Err(ErCode::RlWai) => {}
            Err(_) => break,
        }
    });
    // Saboteur: released every 5 ms by its own cyclic gate, rotating
    // through terminate/restart, forced wait release, nested
    // suspend/resume and queued wakeups against the victim.
    let sgate = sys.tk_cre_sem("sgate", 0, u32::MAX / 2, order).unwrap();
    let (period, phase) = (SimTime::from_ms(5), SimTime::from_ms(1));
    sys.tk_cre_cyc("sab_rel", period, phase, true, move |sys| {
        let _ = sys.tk_sig_sem(sgate, 1);
    })
    .unwrap();
    spawn(sys, "saboteur", 12, move |sys, _| {
        let mut n: u64 = 0;
        while sys.tk_wai_sem(sgate, 1, Timeout::Forever).is_ok() {
            n += 1;
            match n % 5 {
                0 => {
                    let _ = sys.tk_ter_tsk(victim);
                    let _ = sys.tk_sta_tsk(victim, 0);
                }
                1 => {
                    let _ = sys.tk_rel_wai(victim);
                }
                2 => {
                    let _ = sys.tk_sus_tsk(victim);
                    let _ = sys.tk_sus_tsk(victim);
                    let _ = sys.tk_frsm_tsk(victim);
                }
                3 => {
                    let _ = sys.tk_sus_tsk(victim);
                    let _ = sys.tk_rsm_tsk(victim);
                }
                _ => {
                    let _ = sys.tk_wup_tsk(victim);
                }
            }
        }
    });
}

/// `MplPressure`'s hoarder body: holds several blocks across sleeps and
/// releases them in round-varying permutations, keeping the arena
/// fragmented and the coalescer honest.
fn hoard(sys: &mut Sys<'_>, mpl: MplId) {
    for round in 1usize.. {
        let mut held: Vec<usize> = Vec::new();
        for sz in [8usize, 20, 12] {
            if let Ok(off) = sys.tk_get_mpl(mpl, sz, Timeout::ms(1)) {
                held.push(off);
            }
        }
        let _ = sys.tk_slp_tsk(Timeout::ms(2));
        if round.is_multiple_of(2) {
            held.reverse();
        }
        if round.is_multiple_of(3) && held.len() >= 2 {
            held.swap(0, 1);
        }
        for off in held {
            let _ = sys.tk_rel_mpl(mpl, off);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Tuning;

    #[test]
    fn choice_point_formulas_are_pinned() {
        // Schedule choice points of the kernel workload, read by the
        // static model too: changing one silently shifts every branch
        // instant of its topology. The `--explore` programs do not call
        // them; their tick counts are set by hand.
        assert_eq!(Topology::MtxChain { ceiling: true }.crit_us(2000), 500);
        assert_eq!(Topology::DispWindow { lock_cpu: false }.crit_us(2000), 500);
        assert_eq!(Topology::SemChain.crit_us(2000), 400);
        assert_eq!(Topology::LifecycleChurn.crit_us(2000), 400);
        assert_eq!(Topology::MtxChain { ceiling: false }.crit_us(0), 10); // floor
        assert_eq!(Topology::SemChain.crit_us(49), 10); // floor
        assert_eq!(mtx_chain_lock_timeout_ms(10_000), 20);
        assert_eq!(mtx_chain_lock_timeout_ms(400), 0); // Finite(0): expires next tick
    }

    /// A cap of 3 on a 5-event stream keeps the first 3 events, and the
    /// trailer counts all 5, 2 of them dropped, as does the outcome.
    /// Uncapped, a panicked run keeps every event under an `Aborted`
    /// trailer.
    #[test]
    fn capture_caps_and_accounts_drops() {
        use rtk_analysis::trace_codec::decode_trace;
        let spec = ScenarioSpec::generate(
            5,
            &Tuning {
                quick: true,
                faults: true,
            },
        );
        let events: Vec<StampedEvent> = (1..=5)
            .map(|i| StampedEvent {
                tick: u64::from(i),
                ev: rtk_core::ObsEvent::TaskStart {
                    tid: TaskId::from_raw(i),
                },
            })
            .collect();
        let capped = TraceConfig {
            dir: PathBuf::new(),
            cap: 3,
            tuning: None,
        };
        let mut out = ScenarioOutcome::default();
        let decoded = decode_trace(&encode_capture(&spec, &capped, &events, &mut out)).unwrap();
        assert_eq!(decoded.header.seed, 5);
        assert_eq!(decoded.header.topology, spec.topology.label());
        assert_eq!(decoded.events, events[..3]);
        assert_eq!(
            decoded.trailer,
            Some(TraceTrailer {
                close: StreamClose::Clean,
                events: 5,
                dropped: 2,
            })
        );
        assert_eq!(out.obs_dropped, 2);

        let uncapped = TraceConfig { cap: 0, ..capped };
        out.panicked = Some("boom".into());
        let decoded = decode_trace(&encode_capture(&spec, &uncapped, &events, &mut out)).unwrap();
        assert_eq!(decoded.events, events);
        assert_eq!(
            decoded.trailer,
            Some(TraceTrailer {
                close: StreamClose::Aborted,
                events: 5,
                dropped: 0,
            })
        );
        assert_eq!(out.obs_dropped, 0);
    }

    #[test]
    fn scenario_runs_and_measures() {
        let spec = ScenarioSpec::generate(
            3,
            &Tuning {
                quick: true,
                faults: true,
            },
        );
        let (out, _) = run_scenario(&spec, &RunPlan::default());
        assert!(out.panicked.is_none(), "{:?}", out.panicked);
        assert!(out.releases > 0);
        assert!(out.completions > 0);
        assert_eq!(out.latencies_us.len() as u64, out.completions);
        assert!(out.stats.dispatches > 0);
        assert_eq!(out.engine_outcome, "limit");
    }

    #[test]
    fn same_scenario_same_digest() {
        let t = Tuning {
            quick: true,
            faults: true,
        };
        for seed in [0u64, 7, 19] {
            let spec = ScenarioSpec::generate(seed, &t);
            let (a, _) = run_scenario(&spec, &RunPlan::default());
            let (b, _) = run_scenario(&spec, &RunPlan::default());
            assert_eq!(a.digest(), b.digest(), "seed {seed}");
        }
    }

    #[test]
    fn every_topology_executes() {
        // Scan seeds until each topology variant has run healthily.
        let t = Tuning {
            quick: true,
            faults: false,
        };
        let all = crate::scenario::Topology::ALL_LABELS.len();
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..512 {
            let spec = ScenarioSpec::generate(seed, &t);
            if seen.contains(spec.topology.label()) {
                continue;
            }
            let (out, _) = run_scenario(&spec, &RunPlan::default());
            assert!(out.healthy(), "seed {seed}: {out:?}");
            seen.insert(spec.topology.label());
            if seen.len() == all {
                return;
            }
        }
        panic!("first 512 seeds did not cover all topologies: {seen:?}");
    }
}
