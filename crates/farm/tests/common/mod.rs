//! Observation streams shared by more than one test binary.

use rtk_core::{MtxId, MtxPolicy, ObsEvent, TaskId, WaitObj};

/// Re-creates a task id whose task is still queued on a mutex: create
/// tsk1 and tsk2, tsk1 locks an inheritance mutex and sleeps, tsk2
/// blocks on the mutex, then tsk2 is created again and deleted, and
/// tsk1's base priority changes. The re-create (event 10) must
/// diverge: a spec that accepts it is left with a queued waiter its
/// task table no longer holds.
pub fn recreated_waiter_stream() -> Vec<ObsEvent> {
    let (t1, t2) = (TaskId::from_raw(1), TaskId::from_raw(2));
    let m1 = MtxId::from_raw(1);
    vec![
        ObsEvent::TaskCreate { tid: t1, pri: 10 },
        ObsEvent::TaskCreate { tid: t2, pri: 20 },
        ObsEvent::MtxCreate {
            id: m1,
            policy: MtxPolicy::Inherit,
        },
        ObsEvent::TaskStart { tid: t1 },
        ObsEvent::TaskStart { tid: t2 },
        ObsEvent::Dispatch { tid: t1, pri: 10 },
        ObsEvent::MtxLock { id: m1, tid: t1 },
        ObsEvent::Block {
            tid: t1,
            obj: WaitObj::Sleep,
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t2, pri: 20 },
        ObsEvent::Block {
            tid: t2,
            obj: WaitObj::Mtx(m1),
            deadline_tick: None,
        },
        ObsEvent::TaskCreate { tid: t2, pri: 20 },
        ObsEvent::TaskDelete { tid: t2 },
        ObsEvent::PriChange { tid: t1, base: 30 },
    ]
}
