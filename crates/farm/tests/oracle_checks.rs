//! Oracle sensitivity and soundness tests.
//!
//! Soundness: real kernel runs across every topology replay through the
//! spec with zero divergences. Sensitivity: handcrafted decision
//! streams that encode each bug class the oracle exists to catch
//! (wrong dispatch choice, mis-inherited priority, wrong wakeup order,
//! lost wakeups, queue barging, late timeouts) must each be rejected,
//! which is the in-tree version of the kernel mutation campaigns used
//! during bring-up (disabled priority inheritance, tail-popping wait
//! queues and one-tick-late timers were all detected this way).

mod common;

use rtk_core::{
    AlmId, CycId, FlagWaitMode, FlgId, MbfId, MbxId, MpfId, MplId, MtxId, MtxPolicy, ObsEvent,
    SemId, TaskId, WaitObj, WakeCode,
};
use rtk_farm::{check, run_scenario, FarmRng, RunPlan, ScenarioSpec, SpecState, Topology, Tuning};

fn t(n: u32) -> TaskId {
    TaskId::from_raw(n)
}

fn sem(n: u32) -> SemId {
    SemId::from_raw(n)
}

fn mtx(n: u32) -> MtxId {
    MtxId::from_raw(n)
}

fn mpl(n: u32) -> MplId {
    MplId::from_raw(n)
}

fn mbf(n: u32) -> MbfId {
    MbfId::from_raw(n)
}

/// A minimal healthy prologue: two tasks (pri 10 and 20) started, the
/// more urgent one dispatched.
fn prologue() -> Vec<ObsEvent> {
    vec![
        ObsEvent::TaskCreate { tid: t(1), pri: 10 },
        ObsEvent::TaskCreate { tid: t(2), pri: 20 },
        ObsEvent::TaskStart { tid: t(1) },
        ObsEvent::TaskStart { tid: t(2) },
        ObsEvent::SemCreate {
            id: sem(1),
            init: 0,
            max: 10,
            pri_order: false,
        },
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
    ]
}

#[test]
fn healthy_stream_is_accepted() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::SemSignal { id: sem(1), cnt: 1 },
        ObsEvent::Wakeup {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            code: WakeCode::Ok,
        },
        ObsEvent::Preempt { tid: t(2) },
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
    ]);
    let v = check(&evs);
    assert!(v.divergence.is_none(), "{:?}", v.divergence);
    assert_eq!(v.events_checked, evs.len() as u64);
}

#[test]
fn dispatching_the_wrong_task_diverges() {
    let mut evs = prologue();
    evs.pop(); // drop the correct dispatch of tsk1
    evs.push(ObsEvent::Dispatch { tid: t(2), pri: 20 });
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("tsk1"), "{d}");
}

#[test]
fn dispatching_at_a_stale_priority_diverges() {
    let mut evs = prologue();
    evs.pop();
    // Same task, wrong current priority (as if a boost was not applied
    // or not dropped).
    evs.push(ObsEvent::Dispatch { tid: t(1), pri: 9 });
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("current priority 10"), "{d}");
}

#[test]
fn waking_out_of_queue_order_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::Block {
            tid: t(2),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::SemSignal { id: sem(1), cnt: 2 },
        // tsk1 queued first; waking tsk2 first is a spec violation.
        ObsEvent::Wakeup {
            tid: t(2),
            obj: WaitObj::Sem(sem(1), 1),
            code: WakeCode::Ok,
        },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("tsk1"), "{d}");
}

#[test]
fn lost_wakeup_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::SemSignal { id: sem(1), cnt: 1 },
        // The mandated wakeup of tsk1 never appears.
        ObsEvent::Preempt { tid: t(2) },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("mandates wakeup of tsk1"), "{d}");
}

#[test]
fn lost_wakeup_at_end_of_run_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::SemSignal { id: sem(1), cnt: 1 },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("never observed"), "{d}");
}

#[test]
fn barging_past_waiters_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::SemSignal { id: sem(1), cnt: 1 },
        ObsEvent::Wakeup {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            code: WakeCode::Ok,
        },
        ObsEvent::Block {
            tid: t(2),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        // tsk1 runs again and "immediately" takes a count although
        // tsk2 is queued: no-barging violation.
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
        ObsEvent::SemSignal { id: sem(1), cnt: 1 },
        ObsEvent::Wakeup {
            tid: t(2),
            obj: WaitObj::Sem(sem(1), 1),
            code: WakeCode::Ok,
        },
        ObsEvent::SemTake {
            id: sem(1),
            tid: t(1),
            cnt: 1,
        },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("count 0"), "{d}");
}

#[test]
fn late_timeout_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: Some(5),
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        // One tick late: the bug signature of a timing-wheel re-arm
        // losing the residual.
        ObsEvent::TimerFire { tid: t(1), tick: 6 },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("armed it for tick 5"), "{d}");
}

#[test]
fn timely_timeout_is_accepted() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: Some(5),
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::TimerFire { tid: t(1), tick: 5 },
        ObsEvent::Wakeup {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            code: WakeCode::Timeout,
        },
    ]);
    let v = check(&evs);
    assert!(v.divergence.is_none(), "{:?}", v.divergence);
}

// ---------------------------------------------------------------------
// Adversarial streams over the widened grammar (PR 5). Each stream is
// the signature of a kernel mutation the widened oracle was proven to
// catch live (the campaign flags the seed): skipping
// release-all-held-mutexes in `tk_ter_tsk`, off-by-one mpl coalescing,
// suspended-task dispatch, dispatching inside a dispatch-disabled
// window, and cyclic-handler schedule drift.
// ---------------------------------------------------------------------

/// Kernel mutation: `tk_ter_tsk` skips releasing the victim's held
/// mutexes. Signature (live campaign: seed 15, event #583): a later
/// lock attempt blocks on a mutex the spec released at termination.
#[test]
fn terminate_without_mutex_release_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::MtxCreate {
            id: mtx(1),
            policy: MtxPolicy::Inherit,
        },
        ObsEvent::MtxLock {
            id: mtx(1),
            tid: t(1),
        },
        // tsk1 blocks elsewhere while still holding mtx1.
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        // tsk2 terminates tsk1, which holds mtx1 with no waiters: the
        // spec frees the mutex.
        ObsEvent::TaskTerminate { tid: t(1) },
        // The buggy kernel still thinks tsk1 owns it, so tsk2's lock
        // attempt blocks — the spec says it completes immediately.
        ObsEvent::Block {
            tid: t(2),
            obj: WaitObj::Mtx(mtx(1)),
            deadline_tick: None,
        },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("completes immediately"), "{d}");
}

/// With a waiter queued, the spec mandates the ownership-transfer
/// wakeup right after the termination; a kernel that skips the
/// release never emits it.
#[test]
fn terminate_with_queued_waiter_mandates_transfer_wakeup() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::MtxCreate {
            id: mtx(1),
            policy: MtxPolicy::Inherit,
        },
        ObsEvent::MtxLock {
            id: mtx(1),
            tid: t(1),
        },
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::Block {
            tid: t(2),
            obj: WaitObj::Mtx(mtx(1)),
            deadline_tick: None,
        },
        // tsk3 terminates the owner; the spec hands mtx1 to tsk2 and
        // mandates its wakeup as the very next event.
        ObsEvent::TaskCreate { tid: t(3), pri: 30 },
        ObsEvent::TaskStart { tid: t(3) },
        ObsEvent::Dispatch { tid: t(3), pri: 30 },
        ObsEvent::TaskTerminate { tid: t(1) },
        // ...but the kernel reports something else instead.
        ObsEvent::Preempt { tid: t(3) },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("mandates wakeup of tsk2"), "{d}");
}

/// Kernel mutation: off-by-one coalescing in the mpl arena. Signature
/// (live campaign: seed 13, event #128): after release + re-alloc the
/// kernel's first-fit lands at a different offset than the spec's.
#[test]
fn mpl_coalescing_off_by_one_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::MplCreate {
            id: mpl(1),
            size: 64,
            pri_order: false,
        },
        ObsEvent::MplTake {
            id: mpl(1),
            tid: t(1),
            size: 16,
            off: 0,
        },
        ObsEvent::MplTake {
            id: mpl(1),
            tid: t(1),
            size: 16,
            off: 16,
        },
        ObsEvent::MplRel { id: mpl(1), off: 0 },
        ObsEvent::MplRel {
            id: mpl(1),
            off: 16,
        },
        // Fully coalesced arena: a 32-byte request must land at 0. A
        // kernel whose coalescer lost bytes allocates past the seam.
        ObsEvent::MplTake {
            id: mpl(1),
            tid: t(1),
            size: 32,
            off: 36,
        },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("first-fit mandates offset 0"), "{d}");
}

/// A suspended task must leave the dispatchable set: dispatching it is
/// the signature of a kernel that lost the suspend in its scheduler.
#[test]
fn dispatching_a_suspended_task_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        // tsk1's wait completes while suspended: it becomes SUSPENDED,
        // not READY...
        ObsEvent::Suspend { tid: t(1) },
        ObsEvent::SemSignal { id: sem(1), cnt: 1 },
        ObsEvent::Wakeup {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            code: WakeCode::Ok,
        },
        ObsEvent::Preempt { tid: t(2) },
        // ...so dispatching it without a resume is a spec violation.
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(
        d.detail.contains("tsk2") || d.detail.contains("empty"),
        "{d}"
    );
}

/// Suspend-count nesting: one resume of a twice-suspended task must
/// not make it dispatchable.
#[test]
fn single_resume_of_nested_suspend_stays_suspended() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Preempt { tid: t(1) },
        ObsEvent::Suspend { tid: t(1) },
        ObsEvent::Suspend { tid: t(1) },
        ObsEvent::Resume {
            tid: t(1),
            force: false,
        },
        // Still suspended (count 1): the head of the ready queue is
        // tsk2, so dispatching tsk1 diverges.
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("tsk2"), "{d}");
    // A forced resume clears all nesting in one call: the same prefix
    // with tk_frsm_tsk is accepted.
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Preempt { tid: t(1) },
        ObsEvent::Suspend { tid: t(1) },
        ObsEvent::Suspend { tid: t(1) },
        ObsEvent::Resume {
            tid: t(1),
            force: true,
        },
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
    ]);
    let v = check(&evs);
    assert!(v.divergence.is_none(), "{:?}", v.divergence);
}

/// No dispatch or preemption may be observed inside a
/// `tk_dis_dsp`/`tk_loc_cpu` window.
#[test]
fn dispatch_inside_disabled_window_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::DispCtl { disabled: true },
        ObsEvent::TaskCreate { tid: t(3), pri: 5 },
        ObsEvent::TaskStart { tid: t(3) },
        ObsEvent::Preempt { tid: t(1) },
        ObsEvent::Dispatch { tid: t(3), pri: 5 },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("dispatch-disabled window"), "{d}");
    // The same preemption after the window closes is accepted.
    let mut evs = prologue();
    evs.extend([
        ObsEvent::DispCtl { disabled: true },
        ObsEvent::TaskCreate { tid: t(3), pri: 5 },
        ObsEvent::TaskStart { tid: t(3) },
        ObsEvent::DispCtl { disabled: false },
        ObsEvent::Preempt { tid: t(1) },
        ObsEvent::Dispatch { tid: t(3), pri: 5 },
    ]);
    let v = check(&evs);
    assert!(v.divergence.is_none(), "{:?}", v.divergence);
}

/// A cyclic handler must fire exactly at its armed tick and re-arm one
/// period on; schedule drift is rejected.
#[test]
fn cyclic_schedule_drift_diverges() {
    fn cyc_evs(second_fire: u64) -> Vec<ObsEvent> {
        let mut evs = prologue();
        evs.extend([
            ObsEvent::CycCreate {
                id: CycId::from_raw(1),
                period_ticks: 5,
                first_tick: Some(3),
            },
            ObsEvent::CycFire {
                id: CycId::from_raw(1),
                tick: 3,
            },
            ObsEvent::CycFire {
                id: CycId::from_raw(1),
                tick: second_fire,
            },
        ]);
        evs
    }
    let v = check(&cyc_evs(8));
    assert!(v.divergence.is_none(), "{:?}", v.divergence);
    let d = check(&cyc_evs(9)).divergence.expect("must diverge");
    assert!(d.detail.contains("armed it for tick 8"), "{d}");
}

/// A forced wait release (`tk_rel_wai`) mandates the victim's
/// `E_RLWAI` wakeup and the re-serve of waiters it was holding back.
#[test]
fn rel_wai_mandates_release_and_reserve() {
    let mut evs = prologue();
    evs.extend([
        // tsk1 wants 3 counts, tsk2 wants 1; the count (2) covers only
        // the second request, which queues behind the first.
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 3),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::SemSignal { id: sem(1), cnt: 2 },
        ObsEvent::Block {
            tid: t(2),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        // Releasing the head waiter makes tsk2 satisfiable: the spec
        // mandates tsk1's Released wakeup, then tsk2's Ok wakeup.
        ObsEvent::RelWai { tid: t(1) },
        ObsEvent::Wakeup {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 3),
            code: WakeCode::Released,
        },
        ObsEvent::Wakeup {
            tid: t(2),
            obj: WaitObj::Sem(sem(1), 1),
            code: WakeCode::Ok,
        },
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
    ]);
    let v = check(&evs);
    assert!(v.divergence.is_none(), "{:?}", v.divergence);
    // Dropping the re-serve wakeup (the pre-fix kernel behaviour)
    // leaves the mandate outstanding, which the checker reports.
    let mut evs2 = prologue();
    evs2.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 3),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::SemSignal { id: sem(1), cnt: 2 },
        ObsEvent::Block {
            tid: t(2),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::RelWai { tid: t(1) },
        ObsEvent::Wakeup {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 3),
            code: WakeCode::Released,
        },
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
    ]);
    let d = check(&evs2).divergence.expect("must diverge");
    assert!(d.detail.contains("mandates wakeup of tsk2"), "{d}");
}

// ---------------------------------------------------------------------
// Crafted streams. A trace file can name any id, tick, size or count,
// so every stream must end in a verdict: accepted, or a divergence at
// the offending event. None may panic or wrap around.
// ---------------------------------------------------------------------

/// A task id is free again only once its task is deleted. Accepting
/// the re-create of a queued waiter would overwrite its record and,
/// after the delete, leave a queue entry for a task the table no longer
/// holds.
#[test]
fn recreating_a_queued_task_diverges() {
    let d = check(&common::recreated_waiter_stream())
        .divergence
        .expect("must diverge");
    assert_eq!(d.index, 10, "{d}");
    assert!(d.detail.contains("created again"), "{d}");
}

/// Accepting the re-create of the running task's id would let a delete
/// follow and leave the spec running a task it no longer holds.
#[test]
fn recreating_the_running_task_diverges() {
    let evs = [
        ObsEvent::TaskCreate { tid: t(1), pri: 10 },
        ObsEvent::TaskStart { tid: t(1) },
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
        ObsEvent::TaskCreate { tid: t(1), pri: 10 },
        ObsEvent::TaskDelete { tid: t(1) },
    ];
    let d = check(&evs).divergence.expect("must diverge");
    assert_eq!(d.index, 3, "{d}");
    assert!(d.detail.contains("created again"), "{d}");
}

/// A cyclic handler whose next activation lies past the last tick is a
/// divergence.
#[test]
fn cyclic_rearm_past_the_last_tick_diverges() {
    let cyc = CycId::from_raw(1);
    let evs = [
        ObsEvent::CycCreate {
            id: cyc,
            period_ticks: u64::MAX,
            first_tick: Some(5),
        },
        ObsEvent::CycFire { id: cyc, tick: 5 },
    ];
    let d = check(&evs).divergence.expect("must diverge");
    assert_eq!(d.index, 1, "{d}");
    assert!(d.detail.contains("overflows"), "{d}");
}

/// A message whose length overflows the buffer's byte count cannot
/// fit: sent immediately, it diverges.
#[test]
fn oversized_immediate_mbf_send_diverges() {
    let evs = [
        ObsEvent::MbfCreate {
            id: mbf(1),
            bufsz: 16,
            maxmsz: 8,
            pri_order: false,
        },
        ObsEvent::MbfSend { id: mbf(1), len: 1 },
        ObsEvent::MbfSend {
            id: mbf(1),
            len: usize::MAX,
        },
    ];
    let d = check(&evs).divergence.expect("must diverge");
    assert_eq!(d.index, 2, "{d}");
    assert!(d.detail.contains("must block"), "{d}");
}

/// The same oversized message blocks its sender, and stays blocked
/// when a receive frees buffer space.
#[test]
fn oversized_mbf_send_blocks() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::MbfCreate {
            id: mbf(1),
            bufsz: 16,
            maxmsz: 8,
            pri_order: false,
        },
        ObsEvent::MbfSend { id: mbf(1), len: 1 },
        ObsEvent::MbfSend { id: mbf(1), len: 1 },
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::MbfSend(mbf(1), usize::MAX),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::MbfRecv {
            id: mbf(1),
            tid: t(2),
        },
    ]);
    let v = check(&evs);
    assert!(v.divergence.is_none(), "{:?}", v.divergence);
}

/// A pool request whose alignment overflows fits no pool: taken
/// immediately it diverges, and waited for it blocks.
#[test]
fn oversized_mpl_request_cannot_fit() {
    let mut evs = prologue();
    evs.push(ObsEvent::MplCreate {
        id: mpl(1),
        size: 64,
        pri_order: false,
    });
    let mut take = evs.clone();
    take.push(ObsEvent::MplTake {
        id: mpl(1),
        tid: t(1),
        size: usize::MAX,
        off: 0,
    });
    let d = check(&take).divergence.expect("must diverge");
    assert_eq!(d.index, take.len() - 1, "{d}");
    assert!(d.detail.contains("cannot fit"), "{d}");
    evs.push(ObsEvent::Block {
        tid: t(1),
        obj: WaitObj::Mpl(mpl(1), usize::MAX),
        deadline_tick: None,
    });
    let v = check(&evs);
    assert!(v.divergence.is_none(), "{:?}", v.divergence);
}

/// One of the bounds of `0..=max` half the time, a small value
/// otherwise.
fn edge(rng: &mut FarmRng, max: u64) -> u64 {
    match rng.below(8) {
        0 => 0,
        1 => 1,
        2 => max - 1,
        3 => max,
        _ => rng.below(24),
    }
}

fn id(rng: &mut FarmRng) -> u32 {
    rng.below(4) as u32
}

fn tick(rng: &mut FarmRng) -> u64 {
    edge(rng, u64::MAX)
}

fn size(rng: &mut FarmRng) -> usize {
    edge(rng, usize::MAX as u64) as usize
}

fn count(rng: &mut FarmRng) -> u32 {
    edge(rng, u64::from(u32::MAX)) as u32
}

fn pri(rng: &mut FarmRng) -> u8 {
    rng.range(1, 4) as u8
}

fn flag_mode(rng: &mut FarmRng) -> FlagWaitMode {
    FlagWaitMode {
        and: rng.chance(1, 2),
        clear_all: rng.chance(1, 2),
        clear_bits: rng.chance(1, 2),
    }
}

fn wait_obj(rng: &mut FarmRng) -> WaitObj {
    let n = id(rng);
    match rng.below(10) {
        0 => WaitObj::Sleep,
        1 => WaitObj::Delay,
        2 => WaitObj::Sem(sem(n), count(rng)),
        3 => WaitObj::Flag(FlgId::from_raw(n), count(rng), flag_mode(rng)),
        4 => WaitObj::Mbx(MbxId::from_raw(n)),
        5 => WaitObj::MbfSend(mbf(n), size(rng)),
        6 => WaitObj::MbfRecv(mbf(n)),
        7 => WaitObj::Mtx(mtx(n)),
        8 => WaitObj::Mpf(MpfId::from_raw(n)),
        _ => WaitObj::Mpl(mpl(n), size(rng)),
    }
}

/// One event of any kind, with ids 0 to 3 and boundary-heavy ticks,
/// sizes and counts.
fn random_event(rng: &mut FarmRng) -> ObsEvent {
    let tid = t(id(rng));
    let n = id(rng);
    let pri_order = rng.chance(1, 2);
    match rng.below(47) {
        0 => ObsEvent::TaskCreate { tid, pri: pri(rng) },
        1 => ObsEvent::TaskStart { tid },
        2 => ObsEvent::TaskExit { tid },
        3 => ObsEvent::TaskTerminate { tid },
        4 => ObsEvent::TaskDelete { tid },
        5 => ObsEvent::Suspend { tid },
        6 => ObsEvent::Resume {
            tid,
            force: rng.chance(1, 2),
        },
        7 => ObsEvent::RelWai { tid },
        8 => ObsEvent::RotRdq { pri: pri(rng) },
        9 => ObsEvent::WupTsk { tid },
        10 => ObsEvent::WupConsume { tid },
        11 => ObsEvent::DispCtl {
            disabled: rng.chance(1, 2),
        },
        12 => ObsEvent::PriChange {
            tid,
            base: pri(rng),
        },
        13 => ObsEvent::Dispatch { tid, pri: pri(rng) },
        14 => ObsEvent::Preempt { tid },
        15 => ObsEvent::Block {
            tid,
            obj: wait_obj(rng),
            deadline_tick: rng.chance(1, 2).then(|| tick(rng)),
        },
        16 => ObsEvent::Wakeup {
            tid,
            obj: wait_obj(rng),
            code: WakeCode::Ok,
        },
        17 => ObsEvent::TimerFire {
            tid,
            tick: tick(rng),
        },
        18 => ObsEvent::SemCreate {
            id: sem(n),
            init: count(rng),
            max: count(rng),
            pri_order,
        },
        19 => ObsEvent::SemSignal {
            id: sem(n),
            cnt: count(rng),
        },
        20 => ObsEvent::SemTake {
            id: sem(n),
            tid,
            cnt: count(rng),
        },
        21 => ObsEvent::FlagCreate {
            id: FlgId::from_raw(n),
            init: count(rng),
            pri_order,
        },
        22 => ObsEvent::FlagSet {
            id: FlgId::from_raw(n),
            ptn: count(rng),
        },
        23 => ObsEvent::FlagClear {
            id: FlgId::from_raw(n),
            mask: count(rng),
        },
        24 => ObsEvent::FlagTake {
            id: FlgId::from_raw(n),
            tid,
            ptn: count(rng),
            mode: flag_mode(rng),
        },
        25 => ObsEvent::MbxCreate {
            id: MbxId::from_raw(n),
            pri_order,
        },
        26 => ObsEvent::MbxSend {
            id: MbxId::from_raw(n),
        },
        27 => ObsEvent::MbxTake {
            id: MbxId::from_raw(n),
            tid,
        },
        28 => ObsEvent::MbfCreate {
            id: mbf(n),
            bufsz: size(rng),
            maxmsz: size(rng),
            pri_order,
        },
        29 => ObsEvent::MbfSend {
            id: mbf(n),
            len: size(rng),
        },
        30 => ObsEvent::MbfRecv { id: mbf(n), tid },
        31 => ObsEvent::MtxCreate {
            id: mtx(n),
            policy: match rng.below(4) {
                0 => MtxPolicy::Fifo,
                1 => MtxPolicy::Pri,
                2 => MtxPolicy::Inherit,
                _ => MtxPolicy::Ceiling(pri(rng)),
            },
        },
        32 => ObsEvent::MtxLock { id: mtx(n), tid },
        33 => ObsEvent::MtxUnlock { id: mtx(n), tid },
        34 => ObsEvent::MpfCreate {
            id: MpfId::from_raw(n),
            blocks: size(rng),
            pri_order,
        },
        35 => ObsEvent::MpfTake {
            id: MpfId::from_raw(n),
            tid,
        },
        36 => ObsEvent::MpfRel {
            id: MpfId::from_raw(n),
        },
        37 => ObsEvent::MplCreate {
            id: mpl(n),
            size: size(rng),
            pri_order,
        },
        38 => ObsEvent::MplTake {
            id: mpl(n),
            tid,
            size: size(rng),
            off: size(rng),
        },
        39 => ObsEvent::MplRel {
            id: mpl(n),
            off: size(rng),
        },
        40 => ObsEvent::CycCreate {
            id: CycId::from_raw(n),
            period_ticks: tick(rng),
            first_tick: rng.chance(1, 2).then(|| tick(rng)),
        },
        41 => ObsEvent::CycStart {
            id: CycId::from_raw(n),
            at_tick: tick(rng),
        },
        42 => ObsEvent::CycStop {
            id: CycId::from_raw(n),
        },
        43 => ObsEvent::CycFire {
            id: CycId::from_raw(n),
            tick: tick(rng),
        },
        44 => ObsEvent::AlmArm {
            id: AlmId::from_raw(n),
            at_tick: tick(rng),
        },
        45 => ObsEvent::AlmStop {
            id: AlmId::from_raw(n),
        },
        _ => ObsEvent::AlmFire {
            id: AlmId::from_raw(n),
            tick: tick(rng),
        },
    }
}

/// A random walk through the spec from the empty state: every step
/// feeds the mandated wakeup if one is pending, else a random event,
/// and keeps the event when `apply` accepts it. `visit` sees every
/// state the walk accepts; the walk ends after 80 accepted events or
/// 1,000 tries, and returns its last state.
fn random_walk(seed: u64, mut visit: impl FnMut(&SpecState)) -> SpecState {
    let mut rng = FarmRng::new(seed);
    let mut spec = SpecState::new();
    let mut accepted = 0;
    for _ in 0..1_000 {
        let ev = match spec.pending_wakeup() {
            Some((tid, obj, code)) => ObsEvent::Wakeup {
                tid: t(tid),
                obj,
                code,
            },
            None => random_event(&mut rng),
        };
        let mut next = spec.clone();
        if next.apply(&ev).is_err() {
            continue;
        }
        spec = next;
        visit(&spec);
        accepted += 1;
        if accepted == 80 {
            break;
        }
    }
    spec
}

/// No event the spec accepts or rejects on a random walk may panic
/// it, nor may the closed-system queries on any state it accepted.
#[test]
#[cfg_attr(miri, ignore)] // thousands of walks; the crafted streams above run under Miri
fn random_walks_never_panic_the_spec() {
    for seed in 0..2_000 {
        random_walk(seed, |spec| {
            spec.enabled(&mut Vec::new());
            spec.invariant_violations();
        });
    }
}

/// Cloning a spec state into one that holds other tasks, objects and
/// queue entries gives what `clone` gives: the same `Debug` rendering,
/// which shows every field, and the same canonical digest. The
/// explorer copies states into spent ones this way, so a field that
/// `clone_from` missed would corrupt exploration.
#[test]
#[cfg_attr(miri, ignore)] // hundreds of walks
fn clone_from_a_different_walk_equals_clone() {
    for seed in 0..200 {
        let a = random_walk(seed, |_| {});
        let b = random_walk(seed + 2_000, |_| {});
        for (src, spent) in [(&a, &b), (&b, &a)] {
            let mut copy = spent.clone();
            copy.clone_from(src);
            assert_eq!(
                format!("{copy:?}"),
                format!("{:?}", src.clone()),
                "seed {seed}"
            );
            assert_eq!(copy.canon_digest(), src.canon_digest(), "seed {seed}");
        }
    }
}

/// Soundness over the real kernel: one representative seed per
/// topology replays clean, and actually exercises the oracle.
#[test]
// Live kernel execution (coroutine context switches): outside what
// Miri can interpret; the synthetic-stream tests above cover the
// oracle itself under Miri.
#[cfg_attr(miri, ignore)]
fn real_scenarios_replay_clean_through_the_oracle() {
    let tuning = Tuning {
        quick: true,
        faults: true,
    };
    let plan = RunPlan {
        oracle: true,
        ..RunPlan::default()
    };
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..512 {
        let spec = ScenarioSpec::generate(seed, &tuning);
        if !seen.insert(spec.topology.label()) {
            continue;
        }
        let (out, _) = run_scenario(&spec, &plan);
        assert!(
            out.divergence.is_none(),
            "seed {seed} ({}): {:?}",
            spec.topology.label(),
            out.divergence
        );
        assert!(out.oracle_events > 0, "seed {seed} recorded no events");
    }
    assert_eq!(
        seen.len(),
        Topology::ALL_LABELS.len(),
        "topology coverage shrank: {seen:?}"
    );
}

/// The mutex topologies specifically must put inheritance/ceiling
/// boosts on the wire (the oracle verifies priority at every dispatch,
/// so a scenario where boosts never happen would verify nothing).
#[test]
#[cfg_attr(miri, ignore)] // live kernel execution, see above
fn mutex_scenarios_exercise_contention() {
    let tuning = Tuning {
        quick: true,
        faults: false,
    };
    let plan = RunPlan {
        oracle: true,
        ..RunPlan::default()
    };
    let mut checked = 0u64;
    for seed in 0..512 {
        let spec = ScenarioSpec::generate(seed, &tuning);
        if !matches!(spec.topology, Topology::MtxChain { .. }) {
            continue;
        }
        let (out, _) = run_scenario(&spec, &plan);
        assert!(
            out.divergence.is_none(),
            "seed {seed}: {:?}",
            out.divergence
        );
        checked += out.oracle_events;
        if checked > 10_000 {
            return;
        }
    }
    assert!(checked > 0, "no mutex scenario in the first 512 seeds");
}
