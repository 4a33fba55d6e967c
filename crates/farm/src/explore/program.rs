//! Hand-built exploration topologies: small, fully-specified closed
//! systems (tasks + programs + environment sources) whose entire
//! schedule tree the explorer can walk exhaustively.
//!
//! Unlike campaign scenarios — expanded from a seed and executed on
//! the kernel — an [`ExploreModel`] never touches the kernel: the
//! oracle's [`crate::oracle::SpecState`] is the transition function
//! and the model only contributes the *choices* (task programs,
//! cyclic releases, an interrupt source with a jitter window, fault
//! budgets). Each family mirrors a generator idiom from `build.rs`
//! (gate-semaphore periodic releases with deferred-signal delayed
//! releases, finite-timeout mutex sections), so counterexamples read
//! like campaign traces, and the families with a kernel-executable
//! twin carry a [`ScenarioSpec`] for cross-execution.

use rtk_core::{CycId, MtxId, MtxPolicy, ObsEvent, SemId, TaskId, WaitObj};

use crate::scenario::{FaultPlan, ScenarioSpec, StormSpec, TaskSpec, Topology};

/// Raw id of the per-task release-gate semaphore (task `tid`'s gate is
/// `GATE_BASE + tid`), mirroring the gate-sem release idiom of the
/// campaign builder.
pub(crate) const GATE_BASE: u32 = 100;

/// The exploration families selectable with `rtk-farm --explore`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Two periodic tasks contending for one `TA_INHERIT` mutex with
    /// finite lock timeouts (the priority-inversion surface).
    Mtx,
    /// One event-driven task and one periodic task sharing an
    /// IRQ-signaled counting semaphore; the IRQ has a jitter window
    /// and a droppable-arrival fault budget.
    Irq,
    /// Three periodic tasks and two nested `TA_INHERIT` mutexes — the
    /// transitive priority-inheritance chain.
    Chain,
    /// A deliberate lock-order inversion between two tasks waiting
    /// `TMO_FEVR`: every schedule runs into a real deadlock state.
    /// Demonstration family (exit code 1 by design; not in CI).
    Deadlock,
}

impl Family {
    /// Every selectable family label, in `--explore` help order.
    pub const ALL_LABELS: [&'static str; 4] = ["mtx", "irq", "chain", "deadlock"];

    /// Parses a `--explore` family label.
    pub fn parse(s: &str) -> Option<Family> {
        match s {
            "mtx" => Some(Family::Mtx),
            "irq" => Some(Family::Irq),
            "chain" => Some(Family::Chain),
            "deadlock" => Some(Family::Deadlock),
            _ => None,
        }
    }

    /// The family's stable label (CLI, report JSON, trace topology).
    pub fn label(self) -> &'static str {
        match self {
            Family::Mtx => "mtx",
            Family::Irq => "irq",
            Family::Chain => "chain",
            Family::Deadlock => "deadlock",
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One micro-operation of a task program. Non-`Exec` operations are
/// instantaneous (performed the moment the task runs); `Exec` consumes
/// simulated ticks and is the only point a task can be preempted in.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Micro {
    /// Run for this many ticks.
    Exec(u64),
    /// A blocking service call on one kernel object: `tk_loc_mtx` on a
    /// mutex, `tk_wai_sem` for the counts of a semaphore. `tmo` is
    /// `(ticks, skip_to)`: on timeout the program resumes at
    /// `skip_to`; `None` waits forever (`TMO_FEVR`).
    Wait {
        obj: WaitObj,
        tmo: Option<(u64, usize)>,
    },
    /// `tk_unl_mtx`.
    Unlock { mtx: u32 },
    /// Job done: loop back to the first operation.
    EndJob,
}

/// One task of an exploration model; its id is its position in
/// [`ExploreModel::tasks`] plus one.
#[derive(Debug, Clone)]
pub(crate) struct TaskProg {
    /// Base priority.
    pub pri: u8,
    /// `(period, first)` in ticks for a periodic task, released by the
    /// campaign builder's idiom: a cyclic handler with the task's id
    /// signals the task's gate semaphore (`GATE_BASE + tid`), which
    /// the program waits on. A delayed release (fault) defers the
    /// signal to the next fire, which then signals `1 + owed`.
    pub release: Option<(u64, u64)>,
    /// The program, executed as an infinite loop via [`Micro::EndJob`].
    pub ops: Vec<Micro>,
}

/// An interrupt source with a jitter window: each arrival may land on
/// any tick of `[nominal, nominal + jitter]`, and a budgeted fault may
/// drop it entirely.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IrqSrc {
    /// Semaphore the ISR signals (one count per arrival).
    pub sem: u32,
    /// Nominal tick of the first arrival.
    pub first: u64,
    /// Nominal gap between arrivals, in ticks.
    pub gap: u64,
    /// Jitter window width, in ticks.
    pub jitter: u64,
}

/// A closed exploration model: task programs, the kernel objects they
/// share, environment sources, fault budgets and the horizon.
#[derive(Debug, Clone)]
pub(crate) struct ExploreModel {
    pub family: Family,
    /// Task programs; task `k` is `tasks[k - 1]`.
    pub tasks: Vec<TaskProg>,
    /// Creation events of the objects the programs share, played at
    /// tick 0 after the tasks are created.
    pub objects: Vec<ObsEvent>,
    /// Optional interrupt source.
    pub irq: Option<IrqSrc>,
    /// Last tick explored; paths are cut at the first event past it.
    pub horizon: u64,
    /// Delayed-release fault budget (whole run).
    pub delay_budget: u32,
    /// Dropped-IRQ fault budget (whole run).
    pub drop_budget: u32,
    /// Kernel-executable twin for cross-execution and the `rtk-verify`
    /// certificate cross-check, where one exists.
    pub cross: Option<ScenarioSpec>,
    /// Base seed recorded in counterexample trace headers (one past it
    /// per counterexample); far outside the campaign seed space.
    pub sentinel_seed: u64,
}

impl ExploreModel {
    /// The release sources: each periodic task as `(tid, (period,
    /// first))`, in id order.
    pub(crate) fn releases(&self) -> impl Iterator<Item = (u32, (u64, u64))> + '_ {
        self.tasks
            .iter()
            .zip(1..)
            .filter_map(|(t, tid)| Some((tid, t.release?)))
    }

    /// The events creating and starting the whole system at tick 0:
    /// the tasks, the shared objects, each periodic task's gate
    /// semaphore and then its cyclic handler, and the task starts.
    pub(crate) fn init(&self) -> Vec<ObsEvent> {
        let tids = 1..=self.tasks.len() as u32;
        let mut evs: Vec<ObsEvent> = self
            .tasks
            .iter()
            .zip(tids.clone())
            .map(|(t, tid)| ObsEvent::TaskCreate {
                tid: TaskId::from_raw(tid),
                pri: t.pri,
            })
            .collect();
        evs.extend_from_slice(&self.objects);
        evs.extend(
            self.releases()
                .map(|(tid, _)| sem_create(GATE_BASE + tid, 0, 8)),
        );
        evs.extend(
            self.releases()
                .map(|(tid, (period, first))| ObsEvent::CycCreate {
                    id: CycId::from_raw(tid),
                    period_ticks: period,
                    first_tick: Some(first),
                }),
        );
        evs.extend(tids.map(|tid| ObsEvent::TaskStart {
            tid: TaskId::from_raw(tid),
        }));
        evs
    }
}

/// Task `tid`'s wait, forever, on its release gate.
fn gate(tid: u32) -> Micro {
    Micro::Wait {
        obj: WaitObj::Sem(SemId::from_raw(GATE_BASE + tid), 1),
        tmo: None,
    }
}

/// `tk_loc_mtx` of mutex `mtx`; `tmo` as in [`Micro::Wait`].
fn lock(mtx: u32, tmo: Option<(u64, usize)>) -> Micro {
    Micro::Wait {
        obj: WaitObj::Mtx(MtxId::from_raw(mtx)),
        tmo,
    }
}

/// `tk_wai_sem` for `cnt` counts of semaphore `sem`.
fn wai_sem(sem: u32, cnt: u32, tmo: Option<(u64, usize)>) -> Micro {
    Micro::Wait {
        obj: WaitObj::Sem(SemId::from_raw(sem), cnt),
        tmo,
    }
}

fn sem_create(id: u32, init: u32, max: u32) -> ObsEvent {
    ObsEvent::SemCreate {
        id: SemId::from_raw(id),
        init,
        max,
        pri_order: true,
    }
}

fn mtx_create(id: u32) -> ObsEvent {
    ObsEvent::MtxCreate {
        id: MtxId::from_raw(id),
        policy: MtxPolicy::Inherit,
    }
}

impl Family {
    /// Builds the family's model. `faults` gates the fault budgets
    /// (`--no-faults` zeroes them).
    pub(crate) fn model(self, faults: bool) -> ExploreModel {
        match self {
            Family::Mtx => mtx_model(faults),
            Family::Irq => irq_model(faults),
            Family::Chain => chain_model(),
            Family::Deadlock => deadlock_model(),
        }
    }
}

/// 2-task/1-mutex: the `mtx_chain` idiom in miniature. T1 (pri 10,
/// period 6) and T2 (pri 20, period 9) both take the inheritance
/// mutex with finite timeouts; a delayed-release budget of 1 lets the
/// explorer defer any one release.
fn mtx_model(faults: bool) -> ExploreModel {
    let tasks = vec![
        TaskProg {
            pri: 10,
            release: Some((6, 0)),
            ops: vec![
                gate(1),
                Micro::Exec(1),
                lock(1, Some((3, 5))),
                Micro::Exec(1),
                Micro::Unlock { mtx: 1 },
                Micro::EndJob,
            ],
        },
        TaskProg {
            pri: 20,
            release: Some((9, 0)),
            ops: vec![
                gate(2),
                Micro::Exec(1),
                lock(1, Some((4, 5))),
                Micro::Exec(2),
                Micro::Unlock { mtx: 1 },
                Micro::EndJob,
            ],
        },
    ];
    ExploreModel {
        family: Family::Mtx,
        tasks,
        objects: vec![mtx_create(1)],
        irq: None,
        horizon: 36, // two hyperperiods of lcm(6, 9)
        delay_budget: u32::from(faults),
        drop_budget: 0,
        cross: Some(ScenarioSpec::explore_mtx_cross()),
        sentinel_seed: 9_900_100,
    }
}

/// 2-task/1-IRQ: T1 (pri 10) waits for *two* counts of the
/// IRQ-signaled semaphore with a timeout; T2 (pri 20, period 6,
/// phase 1) consumes single counts. The IRQ arrives every 5 ticks
/// within a 2-tick jitter window, and one arrival may be dropped.
fn irq_model(faults: bool) -> ExploreModel {
    let tasks = vec![
        TaskProg {
            pri: 10,
            release: None,
            ops: vec![wai_sem(1, 2, Some((4, 2))), Micro::Exec(1), Micro::EndJob],
        },
        TaskProg {
            pri: 20,
            release: Some((6, 1)),
            ops: vec![
                gate(2),
                Micro::Exec(1),
                wai_sem(1, 1, Some((2, 4))),
                Micro::Exec(1),
                Micro::EndJob,
            ],
        },
    ];
    ExploreModel {
        family: Family::Irq,
        tasks,
        objects: vec![sem_create(1, 0, 16)],
        irq: Some(IrqSrc {
            sem: 1,
            first: 2,
            gap: 5,
            jitter: 2,
        }),
        horizon: 30,
        delay_budget: 0,
        drop_budget: u32::from(faults),
        cross: Some(ScenarioSpec::explore_irq_cross()),
        sentinel_seed: 9_900_200,
    }
}

/// 3-task/2-mutex transitive inheritance chain: T3 (pri 30) holds m2
/// across a long section; T2 (pri 20) nests m1-then-m2; T1 (pri 10)
/// takes m1 — so T3 must inherit T1's priority *through* T2.
fn chain_model() -> ExploreModel {
    let tasks = vec![
        TaskProg {
            pri: 10,
            release: Some((12, 2)),
            ops: vec![
                gate(1),
                lock(1, Some((6, 4))),
                Micro::Exec(1),
                Micro::Unlock { mtx: 1 },
                Micro::EndJob,
            ],
        },
        TaskProg {
            pri: 20,
            release: Some((12, 1)),
            ops: vec![
                gate(2),
                lock(1, Some((8, 6))),
                lock(2, Some((6, 5))),
                Micro::Exec(1),
                Micro::Unlock { mtx: 2 },
                Micro::Unlock { mtx: 1 },
                Micro::EndJob,
            ],
        },
        TaskProg {
            pri: 30,
            release: Some((12, 0)),
            ops: vec![
                gate(3),
                lock(2, Some((8, 4))),
                Micro::Exec(4),
                Micro::Unlock { mtx: 2 },
                Micro::EndJob,
            ],
        },
    ];
    ExploreModel {
        family: Family::Chain,
        tasks,
        objects: vec![mtx_create(1), mtx_create(2)],
        irq: None,
        horizon: 24,
        delay_budget: 0,
        drop_budget: 0,
        cross: None,
        sentinel_seed: 9_900_300,
    }
}

/// A guaranteed deadlock: T1 sleeps one tick (timed sem wait on a
/// never-signaled semaphore) then locks m1→m2 forever; T2 locks
/// m2, runs, then locks m1 forever. The one-tick stagger makes the
/// cross-acquisition unavoidable.
fn deadlock_model() -> ExploreModel {
    let tasks = vec![
        TaskProg {
            pri: 10,
            release: None,
            ops: vec![
                wai_sem(1, 1, Some((1, 1))),
                lock(1, None),
                lock(2, None),
                Micro::Exec(1),
                Micro::Unlock { mtx: 2 },
                Micro::Unlock { mtx: 1 },
                Micro::EndJob,
            ],
        },
        TaskProg {
            pri: 20,
            release: None,
            ops: vec![
                lock(2, None),
                Micro::Exec(2),
                lock(1, None),
                Micro::Exec(1),
                Micro::Unlock { mtx: 1 },
                Micro::Unlock { mtx: 2 },
                Micro::EndJob,
            ],
        },
    ];
    ExploreModel {
        family: Family::Deadlock,
        tasks,
        objects: vec![mtx_create(1), mtx_create(2), sem_create(1, 0, 1)],
        irq: None,
        horizon: 10,
        delay_budget: 0,
        drop_budget: 0,
        cross: None,
        sentinel_seed: 9_900_400,
    }
}

impl ScenarioSpec {
    /// The kernel-executable twin of the `mtx` exploration family: two
    /// periodic tasks under the `mtx_chain` (inheritance) topology
    /// with the same priorities, periods and rough duty cycle. Used to
    /// cross-execute explore-found counterexample families on the real
    /// kernel and to anchor the `rtk-verify` certificate cross-check.
    pub fn explore_mtx_cross() -> ScenarioSpec {
        ScenarioSpec {
            seed: 9_900_100,
            tasks: vec![
                TaskSpec {
                    priority: 10,
                    period_ms: 6,
                    phase_ms: 0,
                    exec_us: 2000,
                },
                TaskSpec {
                    priority: 20,
                    period_ms: 9,
                    phase_ms: 0,
                    exec_us: 3000,
                },
            ],
            priority_queues: true,
            topology: Topology::MtxChain { ceiling: false },
            storm: None,
            faults: FaultPlan::default(),
            horizon_ms: 60,
        }
    }

    /// The kernel-executable twin of the `irq` exploration family:
    /// two periodic tasks plus a one-line interrupt storm matching the
    /// explore model's nominal arrival cadence.
    pub fn explore_irq_cross() -> ScenarioSpec {
        ScenarioSpec {
            seed: 9_900_200,
            tasks: vec![
                TaskSpec {
                    priority: 10,
                    period_ms: 5,
                    phase_ms: 0,
                    exec_us: 1000,
                },
                TaskSpec {
                    priority: 20,
                    period_ms: 6,
                    phase_ms: 1,
                    exec_us: 2000,
                },
            ],
            priority_queues: true,
            topology: Topology::Independent,
            storm: Some(StormSpec {
                lines: 1,
                first_us: 2000,
                gap_us: 5000,
                isr_us: 50,
            }),
            faults: FaultPlan::default(),
            horizon_ms: 60,
        }
    }
}
