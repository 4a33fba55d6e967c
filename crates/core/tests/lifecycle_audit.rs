//! Audits of the task-lifecycle half of the service surface (PR 5):
//! `tk_rel_wai` against every wait class (with queue re-serve),
//! `tk_ter_tsk` on mutex owners mid-inheritance-chain and inside
//! dispatch-control windows, suspend-count nesting, `tk_chg_pri(0)`
//! reset semantics, and the variable-pool first-fit edge cases.

mod common;

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use common::Log;
use rtk_core::{
    ErCode, FlagWaitMode, KernelConfig, MtxPolicy, QueueOrder, Rtos, Sys, TaskState, Timeout,
};
use sysc::SimTime;

fn ms(v: u64) -> SimTime {
    SimTime::from_ms(v)
}

/// Harness for the per-class `tk_rel_wai` audit: `setup` creates the
/// object(s) and the victim task (which must record its wait result in
/// the shared slot), returns the victim's id; the init task lets it
/// block, forcibly releases it, and the recorded error is returned.
fn rel_wai_result<Setup>(setup: Setup) -> ErCode
where
    Setup: FnOnce(&mut Sys<'_>, Rc<Cell<Option<ErCode>>>) -> rtk_core::TaskId + 'static,
{
    let result: Rc<Cell<Option<ErCode>>> = Rc::default();
    let r2 = Rc::clone(&result);
    let mut setup = Some(setup);
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let victim = (setup.take().expect("runs once"))(sys, Rc::clone(&r2));
        sys.tk_dly_tsk(ms(2)).unwrap();
        sys.tk_rel_wai(victim).unwrap();
        sys.tk_dly_tsk(ms(2)).unwrap();
    });
    rtos.run_for(ms(20));
    result.take().expect("victim recorded a wait result")
}

#[test]
fn rel_wai_releases_every_wait_class() {
    // tk_slp_tsk
    let e = rel_wai_result(|sys, slot| {
        let v = sys
            .tk_cre_tsk("v", 10, move |sys, _| {
                slot.set(sys.tk_slp_tsk(Timeout::Forever).err());
            })
            .unwrap();
        sys.tk_sta_tsk(v, 0).unwrap();
        v
    });
    assert_eq!(e, ErCode::RlWai, "sleep");

    // tk_dly_tsk (releasable only by tk_rel_wai)
    let e = rel_wai_result(|sys, slot| {
        let v = sys
            .tk_cre_tsk("v", 10, move |sys, _| {
                slot.set(sys.tk_dly_tsk(ms(500)).err());
            })
            .unwrap();
        sys.tk_sta_tsk(v, 0).unwrap();
        v
    });
    assert_eq!(e, ErCode::RlWai, "delay");

    // tk_wai_sem
    let e = rel_wai_result(|sys, slot| {
        let s = sys.tk_cre_sem("s", 0, 8, QueueOrder::Fifo).unwrap();
        let v = sys
            .tk_cre_tsk("v", 10, move |sys, _| {
                slot.set(sys.tk_wai_sem(s, 1, Timeout::Forever).err());
            })
            .unwrap();
        sys.tk_sta_tsk(v, 0).unwrap();
        v
    });
    assert_eq!(e, ErCode::RlWai, "semaphore");

    // tk_wai_flg
    let e = rel_wai_result(|sys, slot| {
        let f = sys.tk_cre_flg("f", 0, false, QueueOrder::Fifo).unwrap();
        let v = sys
            .tk_cre_tsk("v", 10, move |sys, _| {
                slot.set(
                    sys.tk_wai_flg(f, 0x1, FlagWaitMode::AND, Timeout::Forever)
                        .err(),
                );
            })
            .unwrap();
        sys.tk_sta_tsk(v, 0).unwrap();
        v
    });
    assert_eq!(e, ErCode::RlWai, "event flag");

    // tk_rcv_mbx
    let e = rel_wai_result(|sys, slot| {
        let m = sys.tk_cre_mbx("m", false, QueueOrder::Fifo).unwrap();
        let v = sys
            .tk_cre_tsk("v", 10, move |sys, _| {
                slot.set(sys.tk_rcv_mbx(m, Timeout::Forever).err());
            })
            .unwrap();
        sys.tk_sta_tsk(v, 0).unwrap();
        v
    });
    assert_eq!(e, ErCode::RlWai, "mailbox");

    // tk_rcv_mbf (empty buffer)
    let e = rel_wai_result(|sys, slot| {
        let m = sys.tk_cre_mbf("m", 16, 8, QueueOrder::Fifo).unwrap();
        let v = sys
            .tk_cre_tsk("v", 10, move |sys, _| {
                slot.set(sys.tk_rcv_mbf(m, Timeout::Forever).err());
            })
            .unwrap();
        sys.tk_sta_tsk(v, 0).unwrap();
        v
    });
    assert_eq!(e, ErCode::RlWai, "message-buffer receive");

    // tk_snd_mbf (full buffer)
    let e = rel_wai_result(|sys, slot| {
        let m = sys.tk_cre_mbf("m", 4, 4, QueueOrder::Fifo).unwrap();
        sys.tk_snd_mbf(m, &[1, 2, 3, 4], Timeout::Poll).unwrap();
        let v = sys
            .tk_cre_tsk("v", 10, move |sys, _| {
                slot.set(sys.tk_snd_mbf(m, &[9; 4], Timeout::Forever).err());
            })
            .unwrap();
        sys.tk_sta_tsk(v, 0).unwrap();
        v
    });
    assert_eq!(e, ErCode::RlWai, "message-buffer send");

    // tk_loc_mtx (owned by init)
    let e = rel_wai_result(|sys, slot| {
        let m = sys.tk_cre_mtx("m", MtxPolicy::Pri).unwrap();
        sys.tk_loc_mtx(m, Timeout::Poll).unwrap();
        let v = sys
            .tk_cre_tsk("v", 10, move |sys, _| {
                slot.set(sys.tk_loc_mtx(m, Timeout::Forever).err());
            })
            .unwrap();
        sys.tk_sta_tsk(v, 0).unwrap();
        v
    });
    assert_eq!(e, ErCode::RlWai, "mutex");

    // tk_get_mpf (exhausted pool) — the pending request must not leak:
    // a later release + get must still work.
    let e = rel_wai_result(|sys, slot| {
        let p = sys.tk_cre_mpf("p", 1, 16, QueueOrder::Fifo).unwrap();
        let blk = sys.tk_get_mpf(p, Timeout::Poll).unwrap();
        let v = sys
            .tk_cre_tsk("v", 10, move |sys, _| {
                slot.set(sys.tk_get_mpf(p, Timeout::Forever).err());
            })
            .unwrap();
        sys.tk_sta_tsk(v, 0).unwrap();
        let _ = blk;
        v
    });
    assert_eq!(e, ErCode::RlWai, "fixed pool");

    // tk_get_mpl (exhausted arena)
    let e = rel_wai_result(|sys, slot| {
        let p = sys.tk_cre_mpl("p", 16, QueueOrder::Fifo).unwrap();
        sys.tk_get_mpl(p, 16, Timeout::Poll).unwrap();
        let v = sys
            .tk_cre_tsk("v", 10, move |sys, _| {
                slot.set(sys.tk_get_mpl(p, 8, Timeout::Forever).err());
            })
            .unwrap();
        sys.tk_sta_tsk(v, 0).unwrap();
        v
    });
    assert_eq!(e, ErCode::RlWai, "variable pool");
}

/// A released (or timed-out, or terminated) head waiter must not keep
/// holding back waiters behind it that its removal makes satisfiable.
/// Pre-fix, the kernel re-served these queues only on signal/release
/// paths, so the waiters starved until the next signal.
#[test]
fn rel_wai_reserves_heldback_sem_waiter() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let s = sys.tk_cre_sem("s", 0, 8, QueueOrder::Fifo).unwrap();
        let l1 = l.clone();
        let w1 = sys
            .tk_cre_tsk("w1", 10, move |sys, _| {
                let r = sys.tk_wai_sem(s, 3, Timeout::Forever);
                l1.push(format!("w1={r:?}"));
            })
            .unwrap();
        let l2 = l.clone();
        let w2 = sys
            .tk_cre_tsk("w2", 11, move |sys, _| {
                let r = sys.tk_wai_sem(s, 1, Timeout::Forever);
                l2.push(format!("w2={r:?}"));
            })
            .unwrap();
        sys.tk_sta_tsk(w1, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        sys.tk_sta_tsk(w2, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        // Two counts: w1 (head, wants 3) stays blocked and holds back
        // w2 (wants 1).
        sys.tk_sig_sem(s, 2).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        // Releasing the head must serve w2 immediately.
        sys.tk_rel_wai(w1).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        let r = sys.tk_ref_sem(s).unwrap();
        l.push(format!("count={} waiting={}", r.count, r.waiting));
    });
    rtos.run_for(ms(30));
    assert_eq!(
        log.take(),
        vec!["w1=Err(RlWai)", "w2=Ok(())", "count=1 waiting=0"]
    );
}

#[test]
fn timeout_of_head_sender_drains_fitting_sender_behind_it() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let m = sys.tk_cre_mbf("m", 8, 8, QueueOrder::Fifo).unwrap();
        sys.tk_snd_mbf(m, &[0; 4], Timeout::Poll).unwrap();
        sys.tk_snd_mbf(m, &[1; 4], Timeout::Poll).unwrap();
        let l1 = l.clone();
        let s1 = sys
            .tk_cre_tsk("s1", 10, move |sys, _| {
                let r = sys.tk_snd_mbf(m, &[2; 6], Timeout::ms(3));
                l1.push(format!("s1={r:?}"));
            })
            .unwrap();
        let l2 = l.clone();
        let s2 = sys
            .tk_cre_tsk("s2", 11, move |sys, _| {
                let r = sys.tk_snd_mbf(m, &[3; 2], Timeout::Forever);
                l2.push(format!("s2={r:?}"));
            })
            .unwrap();
        sys.tk_sta_tsk(s1, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        sys.tk_sta_tsk(s2, 0).unwrap();
        // Receive one 4-byte message: 4 bytes free — not enough for
        // s1's 6, which keeps holding back s2's 2.
        let got = sys.tk_rcv_mbf(m, Timeout::Poll).unwrap();
        assert_eq!(got.len(), 4);
        // After s1's timeout, s2's record must drain by itself.
        sys.tk_dly_tsk(ms(6)).unwrap();
        let r = sys.tk_ref_mbf(m).unwrap();
        l.push(format!(
            "msgs={} senders={} free={}",
            r.msg_count, r.senders_waiting, r.free
        ));
    });
    rtos.run_for(ms(30));
    assert_eq!(
        log.take(),
        vec!["s1=Err(Tmout)", "s2=Ok(())", "msgs=2 senders=0 free=2"]
    );
}

#[test]
fn rel_wai_reserves_heldback_mpl_waiter() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let p = sys.tk_cre_mpl("p", 16, QueueOrder::Fifo).unwrap();
        let a = sys.tk_get_mpl(p, 8, Timeout::Poll).unwrap();
        let b = sys.tk_get_mpl(p, 8, Timeout::Poll).unwrap();
        let l1 = l.clone();
        let w1 = sys
            .tk_cre_tsk("w1", 10, move |sys, _| {
                let r = sys.tk_get_mpl(p, 12, Timeout::Forever);
                l1.push(format!("w1={r:?}"));
            })
            .unwrap();
        let l2 = l.clone();
        let w2 = sys
            .tk_cre_tsk("w2", 11, move |sys, _| {
                let r = sys.tk_get_mpl(p, 4, Timeout::Forever);
                l2.push(format!("w2={r:?}"));
                if let Ok(off) = r {
                    let _ = sys.tk_rel_mpl(p, off);
                }
            })
            .unwrap();
        sys.tk_sta_tsk(w1, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        sys.tk_sta_tsk(w2, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        // Free [0,8): w1 (head, wants 12) cannot fit and holds back w2
        // (wants 4, would fit).
        sys.tk_rel_mpl(p, a).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        sys.tk_rel_wai(w1).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        let _ = b;
    });
    rtos.run_for(ms(30));
    assert_eq!(log.take(), vec!["w1=Err(RlWai)", "w2=Ok(0)"]);
}

/// Terminating a mutex owner mid-inheritance-chain: held mutexes
/// transfer to their head waiters and every boost the dead task
/// carried or caused is re-propagated to fixpoint.
#[test]
fn terminate_mutex_owner_mid_chain() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let m1 = sys.tk_cre_mtx("m1", MtxPolicy::Inherit).unwrap();
        let m2 = sys.tk_cre_mtx("m2", MtxPolicy::Inherit).unwrap();
        // C(30) holds m1.
        let c = sys
            .tk_cre_tsk("c", 30, move |sys, _| {
                sys.tk_loc_mtx(m1, Timeout::Forever).unwrap();
                sys.exec(ms(20));
                sys.tk_unl_mtx(m1).unwrap();
            })
            .unwrap();
        // B(20) holds m2, waits on m1 (boosting C through itself).
        let b = sys
            .tk_cre_tsk("b", 20, move |sys, _| {
                sys.tk_loc_mtx(m2, Timeout::Forever).unwrap();
                let _ = sys.tk_loc_mtx(m1, Timeout::Forever);
                sys.exec(ms(20));
            })
            .unwrap();
        // A(5) waits on m2: the boost chain is A -> B -> C.
        let l_a = l.clone();
        let a = sys
            .tk_cre_tsk("a", 5, move |sys, _| {
                let r = sys.tk_loc_mtx(m2, Timeout::Forever);
                l_a.push(format!("a lock={r:?}"));
            })
            .unwrap();
        sys.tk_sta_tsk(c, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        sys.tk_sta_tsk(b, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        sys.tk_sta_tsk(a, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        let boosted = sys.tk_ref_tsk(c).unwrap().cur_pri;
        // Terminate B: m2 must transfer to A, and C's boost (sourced
        // from B's boosted priority) must drop back to its base.
        sys.tk_ter_tsk(b).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        let after = sys.tk_ref_tsk(c).unwrap().cur_pri;
        let b_state = sys.tk_ref_tsk(b).unwrap().state;
        l.push(format!(
            "c boosted={boosted} after={after} b={}",
            b_state.mnemonic()
        ));
    });
    rtos.run_for(ms(40));
    assert_eq!(
        log.take(),
        vec!["a lock=Ok(())", "c boosted=5 after=30 b=TTS_DMT"]
    );
}

/// An exiting task takes its dispatch-disable window with it: pre-fix
/// the flag survived the exit and wedged dispatching forever.
#[test]
fn exit_inside_dispatch_window_does_not_wedge() {
    let ran = Arc::new(AtomicBool::new(false));
    let r2 = Arc::clone(&ran);
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let w2_ran = Arc::clone(&r2);
        let w1 = sys
            .tk_cre_tsk("w1", 10, move |sys, _| {
                sys.tk_dis_dsp().unwrap();
                sys.exec(ms(1));
                // Implicit tk_ext_tsk on return, still inside the
                // window.
            })
            .unwrap();
        let w2 = sys
            .tk_cre_tsk("w2", 20, move |_sys, _| {
                w2_ran.store(true, Ordering::SeqCst);
            })
            .unwrap();
        sys.tk_sta_tsk(w1, 0).unwrap();
        sys.tk_sta_tsk(w2, 0).unwrap();
    });
    rtos.run_for(ms(20));
    assert!(
        ran.load(Ordering::SeqCst),
        "w2 must be dispatched after w1 exits inside its dis_dsp window"
    );
}

/// The system tick interrupts a dispatch-disabled window on every
/// millisecond; returning from it must hand the CPU back to the window
/// holder even though dispatching is disabled (it is not a dispatch).
/// Pre-fix, `pick_and_switch` refused and the window wedged at the
/// first tick.
#[test]
fn dispatch_window_survives_tick_interrupts() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l1 = l.clone();
        let w = sys
            .tk_cre_tsk("w", 10, move |sys, _| {
                sys.tk_dis_dsp().unwrap();
                sys.exec(ms(3)); // spans several ticks
                sys.tk_ena_dsp().unwrap();
                l1.push("window done");
            })
            .unwrap();
        sys.tk_sta_tsk(w, 0).unwrap();
    });
    rtos.run_for(ms(20));
    assert_eq!(log.take(), vec!["window done"]);
}

/// Handler-context termination of the running task mid-window: the
/// window must die with the task, not wedge the scheduler.
#[test]
fn handler_terminate_of_running_task_clears_window() {
    let ran = Arc::new(AtomicBool::new(false));
    let r2 = Arc::clone(&ran);
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let w2_ran = Arc::clone(&r2);
        let w1 = sys
            .tk_cre_tsk("w1", 10, move |sys, _| {
                sys.tk_dis_dsp().unwrap();
                sys.exec(ms(50)); // terminated long before this ends
            })
            .unwrap();
        let w2 = sys
            .tk_cre_tsk("w2", 20, move |_sys, _| {
                w2_ran.store(true, Ordering::SeqCst);
            })
            .unwrap();
        sys.tk_sta_tsk(w1, 0).unwrap();
        sys.tk_sta_tsk(w2, 0).unwrap();
        let fired = Arc::new(AtomicBool::new(false));
        sys.tk_cre_cyc("killer", ms(2), ms(2), true, move |sys| {
            if !fired.swap(true, Ordering::SeqCst) {
                sys.tk_ter_tsk(w1).unwrap();
            }
        })
        .unwrap();
    });
    rtos.run_for(ms(20));
    assert!(
        ran.load(Ordering::SeqCst),
        "w2 must run after the handler terminates w1 inside its window"
    );
}

/// The CPU-locked and dispatch-disabled states are independent:
/// `tk_unl_cpu` must not cancel a window opened by `tk_dis_dsp`.
#[test]
fn unl_cpu_leaves_independent_dis_dsp_window_in_force() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l1 = l.clone();
        let w = sys
            .tk_cre_tsk("w", 10, move |sys, _| {
                sys.tk_dis_dsp().unwrap();
                sys.tk_loc_cpu().unwrap();
                sys.tk_unl_cpu().unwrap();
                // Still inside the dis_dsp window.
                let stat = sys.tk_ref_sys().unwrap().sysstat;
                l1.push(format!("after unl_cpu: {}", stat.mnemonic()));
                sys.tk_ena_dsp().unwrap();
                let stat = sys.tk_ref_sys().unwrap().sysstat;
                l1.push(format!("after ena_dsp: {}", stat.mnemonic()));
            })
            .unwrap();
        sys.tk_sta_tsk(w, 0).unwrap();
    });
    rtos.run_for(ms(10));
    assert_eq!(
        log.take(),
        vec!["after unl_cpu: TSS_DDSP", "after ena_dsp: TSS_TSK"]
    );
}

#[test]
fn suspend_nesting_saturates_and_force_resume_clears() {
    let counted = Arc::new(AtomicU32::new(0));
    let c2 = Arc::clone(&counted);
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let cnt = Arc::clone(&c2);
        let w = sys
            .tk_cre_tsk("w", 10, move |sys, _| loop {
                cnt.fetch_add(1, Ordering::SeqCst);
                sys.exec(ms(1));
            })
            .unwrap();
        sys.tk_sta_tsk(w, 0).unwrap();
        sys.tk_dly_tsk(ms(2)).unwrap();
        // The worker is READY (or preempted) now, never waiting, so
        // suspension lands in plain SUSPENDED.
        // Saturate the nesting counter: max accepted, one more E_QOVR.
        let max = 127; // cfg.max_suspend_count
        for _ in 0..max {
            sys.tk_sus_tsk(w).unwrap();
        }
        l.push(format!("overflow={:?}", sys.tk_sus_tsk(w)));
        let r = sys.tk_ref_tsk(w).unwrap();
        l.push(format!("suscnt={} state={}", r.suscnt, r.state.mnemonic()));
        // One plain resume is not enough...
        sys.tk_rsm_tsk(w).unwrap();
        let r = sys.tk_ref_tsk(w).unwrap();
        l.push(format!("after rsm suscnt={}", r.suscnt));
        // ...a forced resume clears all nesting in one call.
        sys.tk_frsm_tsk(w).unwrap();
        let r = sys.tk_ref_tsk(w).unwrap();
        l.push(format!("after frsm suscnt={}", r.suscnt));
        // Resuming a non-suspended task is E_OBJ.
        l.push(format!("rsm extra={:?}", sys.tk_rsm_tsk(w)));
        l.push(format!("frsm extra={:?}", sys.tk_frsm_tsk(w)));
    });
    rtos.run_for(ms(30));
    assert_eq!(
        log.take(),
        vec![
            "overflow=Err(QOvr)",
            "suscnt=127 state=TTS_SUS",
            "after rsm suscnt=126",
            "after frsm suscnt=0",
            "rsm extra=Err(Obj)",
            "frsm extra=Err(Obj)",
        ]
    );
    assert!(counted.load(Ordering::SeqCst) > 0);
}

#[test]
fn suspended_task_does_not_run_until_fully_resumed() {
    let beats = Arc::new(AtomicU32::new(0));
    let b2 = Arc::clone(&beats);
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let beat = Arc::clone(&b2);
        let beat_w = Arc::clone(&beat);
        let w = sys
            .tk_cre_tsk("w", 10, move |sys, _| loop {
                beat_w.fetch_add(1, Ordering::SeqCst);
                let _ = sys.tk_slp_tsk(Timeout::ms(1));
            })
            .unwrap();
        sys.tk_sta_tsk(w, 0).unwrap();
        sys.tk_dly_tsk(ms(3)).unwrap();
        sys.tk_sus_tsk(w).unwrap();
        sys.tk_sus_tsk(w).unwrap();
        let frozen_at = beat.load(Ordering::SeqCst);
        sys.tk_dly_tsk(ms(5)).unwrap();
        assert_eq!(
            beat.load(Ordering::SeqCst),
            frozen_at,
            "suspended task must not advance"
        );
        sys.tk_rsm_tsk(w).unwrap(); // one level: still suspended
        sys.tk_dly_tsk(ms(5)).unwrap();
        assert_eq!(beat.load(Ordering::SeqCst), frozen_at);
        sys.tk_rsm_tsk(w).unwrap(); // second level: runnable again
        sys.tk_dly_tsk(ms(5)).unwrap();
        assert!(beat.load(Ordering::SeqCst) > frozen_at);
    });
    rtos.run_for(ms(40));
    assert!(beats.load(Ordering::SeqCst) > 0);
}

#[test]
fn chg_pri_zero_resets_to_creation_priority() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let w = sys
            .tk_cre_tsk("w", 10, move |sys, _| {
                sys.exec(ms(30));
            })
            .unwrap();
        sys.tk_sta_tsk(w, 0).unwrap();
        sys.tk_chg_pri(w, 25).unwrap();
        l.push(format!("base={}", sys.tk_ref_tsk(w).unwrap().base_pri));
        sys.tk_chg_pri(w, 25).unwrap();
        // TPRI_INI: 0 resets to the *creation* priority, not the
        // current base (pre-fix it was a no-op once base had changed).
        sys.tk_chg_pri(w, 0).unwrap();
        l.push(format!("reset={}", sys.tk_ref_tsk(w).unwrap().base_pri));
    });
    rtos.run_for(ms(5));
    assert_eq!(log.take(), vec!["base=25", "reset=10"]);
}

#[test]
fn terminated_waiter_leaves_no_stale_queue_node() {
    // Terminate a task blocked on a semaphore, then signal: the count
    // must accumulate (no ghost waiter consumes it) and a new waiter
    // must be served normally.
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let s = sys.tk_cre_sem("s", 0, 8, QueueOrder::Fifo).unwrap();
        let w = sys
            .tk_cre_tsk("w", 10, move |sys, _| {
                let _ = sys.tk_wai_sem(s, 1, Timeout::Forever);
            })
            .unwrap();
        sys.tk_sta_tsk(w, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        sys.tk_ter_tsk(w).unwrap();
        sys.tk_sig_sem(s, 1).unwrap();
        let r = sys.tk_ref_sem(s).unwrap();
        l.push(format!("count={} waiting={}", r.count, r.waiting));
        // The dormant task is restartable and can wait again.
        sys.tk_sta_tsk(w, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        let r = sys.tk_ref_tsk(w).unwrap();
        l.push(format!("restarted={}", r.state.mnemonic()));
    });
    rtos.run_for(ms(20));
    // After the restart the count from the earlier signal satisfies
    // the new wait immediately, so the task is back in its body.
    let lines = log.take();
    assert_eq!(lines[0], "count=1 waiting=0");
    assert!(lines[1] == "restarted=TTS_DMT" || lines[1] == "restarted=TTS_RDY");
}

// ---------------------------------------------------------------------
// Variable-pool first-fit edge cases
// ---------------------------------------------------------------------

#[test]
fn mpl_exact_fit_and_split() {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), |sys, _| {
        let p = sys.tk_cre_mpl("p", 32, QueueOrder::Fifo).unwrap();
        let a = sys.tk_get_mpl(p, 16, Timeout::Poll).unwrap();
        let b = sys.tk_get_mpl(p, 16, Timeout::Poll).unwrap();
        assert_eq!((a, b), (0, 16), "first-fit from the bottom");
        assert_eq!(sys.tk_ref_mpl(p).unwrap().free, 0);
        // Exhausted: E_TMOUT under Poll, E_PAR for oversize.
        assert_eq!(sys.tk_get_mpl(p, 4, Timeout::Poll), Err(ErCode::Tmout));
        assert_eq!(sys.tk_get_mpl(p, 64, Timeout::Poll), Err(ErCode::Par));
        sys.tk_rel_mpl(p, a).unwrap();
        // Split: an 8-byte cut of the 16-byte hole leaves 8 free.
        let c = sys.tk_get_mpl(p, 8, Timeout::Poll).unwrap();
        assert_eq!(c, 0);
        let r = sys.tk_ref_mpl(p).unwrap();
        assert_eq!((r.free, r.max_block), (8, 8));
        // Double free is E_PAR.
        sys.tk_rel_mpl(p, b).unwrap();
        assert_eq!(sys.tk_rel_mpl(p, b), Err(ErCode::Par));
    });
    rtos.run_for(ms(5));
}

#[test]
fn mpl_release_permutations_recoalesce() {
    // Exhaustive over all release orders of four blocks: whatever the
    // order, the arena must coalesce back into one maximal region.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 1 {
            return vec![vec![0]];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for pos in 0..=p.len() {
                let mut q = p.clone();
                q.insert(pos, n - 1);
                out.push(q);
            }
        }
        out
    }
    for perm in permutations(4) {
        let perm2 = perm.clone();
        let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
            let p = sys.tk_cre_mpl("p", 64, QueueOrder::Fifo).unwrap();
            let offs: Vec<usize> = [8usize, 16, 4, 24]
                .iter()
                .map(|&sz| sys.tk_get_mpl(p, sz, Timeout::Poll).unwrap())
                .collect();
            assert_eq!(sys.tk_ref_mpl(p).unwrap().free, 12);
            for &i in &perm2 {
                sys.tk_rel_mpl(p, offs[i]).unwrap();
            }
            let r = sys.tk_ref_mpl(p).unwrap();
            assert_eq!(
                (r.free, r.max_block),
                (64, 64),
                "release order {perm2:?} failed to re-coalesce"
            );
        });
        rtos.run_for(ms(5));
    }
}

#[test]
fn mpl_waiter_service_order_tfifo_vs_tpri() {
    fn service_order(order: QueueOrder) -> Vec<String> {
        let log = Log::default();
        let l = log.clone();
        let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
            let p = sys.tk_cre_mpl("p", 16, order).unwrap();
            let hold = sys.tk_get_mpl(p, 16, Timeout::Poll).unwrap();
            // Both want 12 of the 16 bytes, so the release can serve
            // only the queue head — the log records *service* order.
            // Low-priority task queues first, high-priority second.
            let l1 = l.clone();
            let lo = sys
                .tk_cre_tsk("lo", 20, move |sys, _| {
                    let r = sys.tk_get_mpl(p, 12, Timeout::Forever);
                    l1.push(format!("lo={}", r.is_ok()));
                    if let Ok(off) = r {
                        sys.exec(ms(1));
                        let _ = sys.tk_rel_mpl(p, off);
                    }
                })
                .unwrap();
            let l2 = l.clone();
            let hi = sys
                .tk_cre_tsk("hi", 10, move |sys, _| {
                    let r = sys.tk_get_mpl(p, 12, Timeout::Forever);
                    l2.push(format!("hi={}", r.is_ok()));
                    if let Ok(off) = r {
                        sys.exec(ms(1));
                        let _ = sys.tk_rel_mpl(p, off);
                    }
                })
                .unwrap();
            sys.tk_sta_tsk(lo, 0).unwrap();
            sys.tk_dly_tsk(ms(1)).unwrap();
            sys.tk_sta_tsk(hi, 0).unwrap();
            sys.tk_dly_tsk(ms(1)).unwrap();
            sys.tk_rel_mpl(p, hold).unwrap();
            sys.tk_dly_tsk(ms(2)).unwrap();
        });
        rtos.run_for(ms(20));
        log.take()
    }
    // TFIFO: arrival order wins; TPRI: priority order wins.
    assert_eq!(service_order(QueueOrder::Fifo), vec!["lo=true", "hi=true"]);
    assert_eq!(
        service_order(QueueOrder::Priority),
        vec!["hi=true", "lo=true"]
    );
}

#[test]
fn terminate_returns_obj_for_dormant_and_self() {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), |sys, _| {
        let w = sys.tk_cre_tsk("w", 10, |sys, _| sys.exec(ms(1))).unwrap();
        // DORMANT target.
        assert_eq!(sys.tk_ter_tsk(w), Err(ErCode::Obj));
        // Self-termination is forbidden.
        let me = sys.tk_get_tid().unwrap();
        assert_eq!(sys.tk_ter_tsk(me), Err(ErCode::Obj));
        // Unknown id.
        assert_eq!(
            sys.tk_ter_tsk(rtk_core::TaskId::from_raw(99)),
            Err(ErCode::NoExs)
        );
        // Sanity: the task state machine still works afterwards.
        sys.tk_sta_tsk(w, 0).unwrap();
        assert_eq!(sys.tk_ref_tsk(w).unwrap().state, TaskState::Ready);
    });
    rtos.run_for(ms(5));
}
