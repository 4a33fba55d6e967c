//! Integration tests for the T-Kernel/OS service semantics: task state
//! machine, scheduling/preemption, every synchronisation object, timeouts
//! and error codes.

mod common;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use common::Log;
use rtk_core::{
    ErCode, FlagWaitMode, KernelConfig, MsgPacket, MtxPolicy, QueueOrder, Rtos, TaskState,
    ThreadRef, Timeout,
};
use sysc::SimTime;

fn ms(v: u64) -> SimTime {
    SimTime::from_ms(v)
}
fn us(v: u64) -> SimTime {
    SimTime::from_us(v)
}

/// Builds an Rtos whose orchestration runs in an "actor" task at
/// priority 50 (unlike the init task at priority 1, the actor *can* be
/// preempted by the higher-priority tasks it starts).
fn scenario<F>(f: F) -> Rtos
where
    F: FnMut(&mut rtk_core::Sys<'_>) + 'static,
{
    let f = Rc::new(RefCell::new(f));
    Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let f = Rc::clone(&f);
        let actor = sys
            .tk_cre_tsk("actor", 50, move |sys, _| {
                (f.borrow_mut())(sys);
            })
            .unwrap();
        sys.tk_sta_tsk(actor, 0).unwrap();
    })
}

// ---------------------------------------------------------------------
// Task management
// ---------------------------------------------------------------------

#[test]
fn task_lifecycle_dormant_ready_running_exit() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l2 = l.clone();
        let t = sys
            .tk_cre_tsk("worker", 10, move |sys, stacd| {
                l2.push(format!("run stacd={stacd}"));
                sys.exec(us(100));
                l2.push("done");
            })
            .unwrap();
        // Before start: DORMANT.
        assert_eq!(sys.tk_ref_tsk(t).unwrap().state, TaskState::Dormant);
        sys.tk_sta_tsk(t, 42).unwrap();
        l.push("started");
    });
    rtos.run_for(ms(5));
    assert_eq!(log.take(), vec!["started", "run stacd=42", "done"]);
    // After exit the worker is DORMANT again and restartable.
    let ds = rtos.ds();
    let tids = ds.td_lst_tsk();
    let worker = tids
        .iter()
        .find(|t| ds.td_ref_tsk(**t).unwrap().name == "worker")
        .copied()
        .unwrap();
    assert_eq!(ds.td_ref_tsk(worker).unwrap().state, TaskState::Dormant);
    assert_eq!(ds.td_ref_tsk(worker).unwrap().activations, 1);
}

#[test]
fn higher_priority_task_preempts_on_start() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = scenario(move |sys| {
        let l_lo = l.clone();
        let l_hi = l.clone();
        let hi = sys
            .tk_cre_tsk("hi", 5, move |sys, _| {
                l_hi.push(format!("hi@{}", sys.now().as_us()));
                sys.exec(us(50));
            })
            .unwrap();
        let lo = sys
            .tk_cre_tsk("lo", 20, move |sys, _| {
                l_lo.push(format!("lo-start@{}", sys.now().as_us()));
                sys.exec(us(100));
                // Starting a higher-priority task preempts us right away.
                sys.tk_sta_tsk(hi, 0).unwrap();
                l_lo.push(format!("lo-end@{}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_sta_tsk(lo, 0).unwrap();
    });
    rtos.run_for(ms(5));
    assert_eq!(log.take(), vec!["lo-start@0", "hi@100", "lo-end@150"]);
}

#[test]
fn preemption_order_is_priority_exact() {
    // lo runs, starts hi mid-body; hi must run to completion before lo
    // continues (priority-preemptive).
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l_hi = l.clone();
        let hi = sys
            .tk_cre_tsk("hi", 5, move |sys, _| {
                l_hi.push(format!("hi-run@{}", sys.now().as_us()));
                sys.exec(us(30));
                l_hi.push(format!("hi-done@{}", sys.now().as_us()));
            })
            .unwrap();
        let l_lo = l.clone();
        let lo = sys
            .tk_cre_tsk("lo", 20, move |sys, _| {
                sys.exec(us(10));
                sys.tk_sta_tsk(hi, 0).unwrap();
                l_lo.push(format!("lo-resumed@{}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_sta_tsk(lo, 0).unwrap();
    });
    rtos.run_for(ms(5));
    assert_eq!(log.take(), vec!["hi-run@10", "hi-done@40", "lo-resumed@40"]);
}

#[test]
fn equal_priority_does_not_preempt() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l_b = l.clone();
        let b = sys
            .tk_cre_tsk("b", 10, move |sys, _| {
                l_b.push(format!("b@{}", sys.now().as_us()));
                sys.exec(us(10));
            })
            .unwrap();
        let l_a = l.clone();
        let a = sys
            .tk_cre_tsk("a", 10, move |sys, _| {
                sys.exec(us(10));
                sys.tk_sta_tsk(b, 0).unwrap();
                sys.exec(us(10));
                l_a.push(format!("a-done@{}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_sta_tsk(a, 0).unwrap();
    });
    rtos.run_for(ms(5));
    // a finishes first (b same priority: no preemption), then b runs.
    assert_eq!(log.take(), vec!["a-done@20", "b@20"]);
}

#[test]
fn sleep_and_wakeup_with_wupcnt() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l_s = l.clone();
        let sleeper = sys
            .tk_cre_tsk("sleeper", 10, move |sys, _| {
                sys.tk_slp_tsk(Timeout::Forever).unwrap();
                l_s.push(format!("woken@{}", sys.now().as_us()));
                // A queued wakeup lets the next sleep return immediately.
                sys.tk_slp_tsk(Timeout::Forever).unwrap();
                l_s.push(format!("woken-again@{}", sys.now().as_us()));
            })
            .unwrap();
        let waker = sys
            .tk_cre_tsk("waker", 20, move |sys, _| {
                sys.exec(us(100));
                sys.tk_wup_tsk(sleeper).unwrap();
                sys.tk_wup_tsk(sleeper).unwrap(); // queued (wupcnt=1)
            })
            .unwrap();
        sys.tk_sta_tsk(sleeper, 0).unwrap();
        sys.tk_sta_tsk(waker, 0).unwrap();
    });
    rtos.run_for(ms(5));
    assert_eq!(log.take(), vec!["woken@100", "woken-again@100"]);
}

#[test]
fn sleep_timeout_returns_e_tmout() {
    let code = Arc::new(AtomicI64::new(0));
    let c = Arc::clone(&code);
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let r = sys.tk_slp_tsk(Timeout::ms(3));
        c.store(r.map_or_else(|e| e.code() as i64, |_| 0), Ordering::SeqCst);
    });
    rtos.run_for(ms(10));
    assert_eq!(code.load(Ordering::SeqCst), ErCode::Tmout.code() as i64);
}

#[test]
fn delay_completes_on_time() {
    let t = Arc::new(AtomicU64::new(0));
    let t2 = Arc::clone(&t);
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        sys.tk_dly_tsk(ms(5)).unwrap();
        t2.store(sys.now().as_ms(), Ordering::SeqCst);
    });
    rtos.run_for(ms(20));
    // Delay rounds up to whole ticks; 5 ms => wakes at the 5 ms tick.
    assert_eq!(t.load(Ordering::SeqCst), 5);
}

#[test]
fn rel_wai_forces_e_rlwai() {
    let code = Arc::new(AtomicI64::new(0));
    let c = Arc::clone(&code);
    let mut rtos = scenario(move |sys| {
        let c2 = Arc::clone(&c);
        let sleeper = sys
            .tk_cre_tsk("sleeper", 10, move |sys, _| {
                let r = sys.tk_slp_tsk(Timeout::Forever);
                c2.store(r.map_or_else(|e| e.code() as i64, |_| 0), Ordering::SeqCst);
            })
            .unwrap();
        // sleeper preempts the actor at start and blocks immediately.
        sys.tk_sta_tsk(sleeper, 0).unwrap();
        sys.exec(us(50));
        sys.tk_rel_wai(sleeper).unwrap();
        sys.exec(us(10));
        // Releasing a non-waiting task is E_OBJ.
        assert_eq!(sys.tk_rel_wai(sleeper), Err(ErCode::Obj));
    });
    rtos.run_for(ms(5));
    assert_eq!(code.load(Ordering::SeqCst), ErCode::RlWai.code() as i64);
}

#[test]
fn suspend_resume_semantics() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = scenario(move |sys| {
        let l_w = l.clone();
        let worker = sys
            .tk_cre_tsk("worker", 10, move |sys, _| {
                for i in 0..3 {
                    l_w.push(format!("w{i}@{}", sys.now().as_us()));
                    if sys.tk_slp_tsk(Timeout::Forever).is_err() {
                        return;
                    }
                }
            })
            .unwrap();
        sys.tk_sta_tsk(worker, 0).unwrap();
        // worker ran (preempting us) and sleeps now.
        sys.exec(us(10));
        sys.tk_sus_tsk(worker).unwrap();
        sys.tk_sus_tsk(worker).unwrap();
        assert_eq!(
            sys.tk_ref_tsk(worker).unwrap().state,
            TaskState::WaitSuspend
        );
        // Wake it: stays suspended (wait released, suspension remains).
        sys.tk_wup_tsk(worker).unwrap();
        assert_eq!(sys.tk_ref_tsk(worker).unwrap().state, TaskState::Suspend);
        sys.exec(us(10));
        // One resume is not enough.
        sys.tk_rsm_tsk(worker).unwrap();
        assert_eq!(sys.tk_ref_tsk(worker).unwrap().state, TaskState::Suspend);
        sys.tk_rsm_tsk(worker).unwrap();
        sys.exec(us(10));
        l.push("actor-done");
    });
    rtos.run_for(ms(5));
    let entries = log.take();
    assert_eq!(entries[0], "w0@0");
    assert!(entries.contains(&"w1@20".to_string()));
    assert!(entries.contains(&"actor-done".to_string()));
}

#[test]
fn terminate_and_restart_task() {
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    let mut rtos = scenario(move |sys| {
        let c2 = Arc::clone(&c);
        // Lower priority than the actor: runs while the actor sleeps.
        let loopy = sys
            .tk_cre_tsk("loopy", 60, move |sys, _| {
                c2.fetch_add(1, Ordering::SeqCst);
                loop {
                    sys.exec(us(10));
                }
            })
            .unwrap();
        sys.tk_sta_tsk(loopy, 0).unwrap();
        sys.tk_dly_tsk(ms(2)).unwrap(); // loopy spins meanwhile
        sys.tk_ter_tsk(loopy).unwrap();
        assert_eq!(sys.tk_ref_tsk(loopy).unwrap().state, TaskState::Dormant);
        // E_OBJ when already dormant.
        assert_eq!(sys.tk_ter_tsk(loopy), Err(ErCode::Obj));
        // Restartable after termination.
        sys.tk_sta_tsk(loopy, 0).unwrap();
        sys.tk_dly_tsk(ms(2)).unwrap();
        sys.tk_ter_tsk(loopy).unwrap();
    });
    rtos.run_for(ms(10));
    assert_eq!(count.load(Ordering::SeqCst), 2);
}

#[test]
fn chg_pri_and_rot_rdq() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        // Three equal-priority tasks; rotation changes who runs next.
        let mk = |sys: &mut rtk_core::Sys<'_>, name: &'static str, l: Log| {
            sys.tk_cre_tsk(name, 10, move |sys, _| {
                l.push(name.to_string());
                sys.exec(us(10));
            })
            .unwrap()
        };
        let a = mk(sys, "a", l.clone());
        let b = mk(sys, "b", l.clone());
        let c = mk(sys, "c", l.clone());
        sys.tk_sta_tsk(a, 0).unwrap();
        sys.tk_sta_tsk(b, 0).unwrap();
        sys.tk_sta_tsk(c, 0).unwrap();
        // Rotate priority level 10: a moves behind b, c.
        sys.tk_rot_rdq(10).unwrap();
        // Raise c's priority so it runs first of all.
        sys.tk_chg_pri(c, 5).unwrap();
        assert_eq!(sys.tk_ref_tsk(c).unwrap().cur_pri, 5);
    });
    rtos.run_for(ms(5));
    assert_eq!(log.take(), vec!["c", "b", "a"]);
}

#[test]
fn bad_ids_return_e_noexs() {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        assert_eq!(
            sys.tk_sta_tsk(rtk_core::TaskId::from_raw(99), 0),
            Err(ErCode::NoExs)
        );
    });
    rtos.run_for(ms(2));
}

// ---------------------------------------------------------------------
// Semaphores
// ---------------------------------------------------------------------

#[test]
fn semaphore_counting_and_blocking() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = scenario(move |sys| {
        let sem = sys.tk_cre_sem("s", 2, 5, QueueOrder::Fifo).unwrap();
        // Immediate acquisition while counts remain.
        sys.tk_wai_sem(sem, 2, Timeout::Poll).unwrap();
        assert_eq!(sys.tk_wai_sem(sem, 1, Timeout::Poll), Err(ErCode::Tmout));
        let l_w = l.clone();
        let waiter = sys
            .tk_cre_tsk("waiter", 10, move |sys, _| {
                sys.tk_wai_sem(sem, 3, Timeout::Forever).unwrap();
                l_w.push(format!("got3@{}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_sta_tsk(waiter, 0).unwrap(); // waiter preempts and blocks
        sys.exec(us(10));
        sys.tk_sig_sem(sem, 1).unwrap(); // not enough (needs 3)
        sys.exec(us(10));
        sys.tk_sig_sem(sem, 2).unwrap(); // now satisfied
        sys.exec(us(10));
        // Counts: 0 after waiter took 3.
        assert_eq!(sys.tk_ref_sem(sem).unwrap().count, 0);
    });
    rtos.run_for(ms(5));
    assert_eq!(log.take(), vec!["got3@20"]);
}

#[test]
fn semaphore_no_barging_strict_order() {
    // First waiter wants 3 (can't be satisfied); second wants 1. A signal
    // of 1 must NOT wake the second (strict queue order).
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let sem = sys.tk_cre_sem("s", 0, 5, QueueOrder::Fifo).unwrap();
        let l_a = l.clone();
        let a = sys
            .tk_cre_tsk("a", 10, move |sys, _| {
                sys.tk_wai_sem(sem, 3, Timeout::Forever).unwrap();
                l_a.push("a-got");
            })
            .unwrap();
        let l_b = l.clone();
        let b = sys
            .tk_cre_tsk("b", 11, move |sys, _| {
                sys.tk_wai_sem(sem, 1, Timeout::Forever).unwrap();
                l_b.push("b-got");
            })
            .unwrap();
        sys.tk_sta_tsk(a, 0).unwrap();
        sys.tk_sta_tsk(b, 0).unwrap();
        sys.exec(us(10));
        sys.tk_sig_sem(sem, 1).unwrap();
        sys.exec(us(10));
        l.push("after-sig1");
        sys.tk_sig_sem(sem, 2).unwrap(); // completes a (3 total); b still waits
        sys.exec(us(10));
        sys.tk_sig_sem(sem, 1).unwrap(); // completes b
        sys.exec(us(10));
    });
    rtos.run_for(ms(5));
    assert_eq!(log.take(), vec!["after-sig1", "a-got", "b-got"]);
}

#[test]
fn semaphore_priority_queue_order() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let sem = sys.tk_cre_sem("s", 0, 5, QueueOrder::Priority).unwrap();
        for (name, pri) in [("low", 30u8), ("high", 5u8), ("mid", 15u8)] {
            let l2 = l.clone();
            let t = sys
                .tk_cre_tsk(name, pri, move |sys, _| {
                    sys.tk_wai_sem(sem, 1, Timeout::Forever).unwrap();
                    l2.push(name);
                })
                .unwrap();
            sys.tk_sta_tsk(t, 0).unwrap();
        }
        sys.exec(us(10));
        sys.tk_sig_sem(sem, 3).unwrap();
        sys.exec(us(10));
    });
    rtos.run_for(ms(5));
    assert_eq!(log.take(), vec!["high", "mid", "low"]);
}

#[test]
fn semaphore_qovr_and_deletion() {
    let code = Arc::new(AtomicI64::new(0));
    let c = Arc::clone(&code);
    let mut rtos = scenario(move |sys| {
        let sem = sys.tk_cre_sem("s", 1, 2, QueueOrder::Fifo).unwrap();
        assert_eq!(sys.tk_sig_sem(sem, 2), Err(ErCode::QOvr));
        sys.tk_sig_sem(sem, 1).unwrap();
        let c2 = Arc::clone(&c);
        let w = sys
            .tk_cre_tsk("w", 10, move |sys, _| {
                // Take everything, then block and get E_DLT on deletion.
                sys.tk_wai_sem(sem, 2, Timeout::Forever).unwrap();
                let r = sys.tk_wai_sem(sem, 1, Timeout::Forever);
                c2.store(r.map_or_else(|e| e.code() as i64, |_| 0), Ordering::SeqCst);
            })
            .unwrap();
        sys.tk_sta_tsk(w, 0).unwrap(); // w preempts, takes 2, blocks
        sys.exec(us(10));
        sys.tk_del_sem(sem).unwrap();
        assert_eq!(sys.tk_ref_sem(sem).unwrap_err(), ErCode::NoExs);
    });
    rtos.run_for(ms(5));
    assert_eq!(code.load(Ordering::SeqCst), ErCode::Dlt.code() as i64);
}

// ---------------------------------------------------------------------
// Event flags
// ---------------------------------------------------------------------

#[test]
fn eventflag_and_or_modes() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = scenario(move |sys| {
        let flg = sys.tk_cre_flg("f", 0, false, QueueOrder::Fifo).unwrap();
        let l_and = l.clone();
        let ta = sys
            .tk_cre_tsk("and", 10, move |sys, _| {
                let p = sys
                    .tk_wai_flg(flg, 0b11, FlagWaitMode::AND, Timeout::Forever)
                    .unwrap();
                l_and.push(format!("and@{} p={p:#b}", sys.now().as_us()));
            })
            .unwrap();
        let l_or = l.clone();
        let to = sys
            .tk_cre_tsk("or", 11, move |sys, _| {
                let p = sys
                    .tk_wai_flg(flg, 0b11, FlagWaitMode::OR, Timeout::Forever)
                    .unwrap();
                l_or.push(format!("or@{} p={p:#b}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_sta_tsk(ta, 0).unwrap();
        sys.tk_sta_tsk(to, 0).unwrap();
        sys.exec(us(10));
        sys.tk_set_flg(flg, 0b01).unwrap(); // satisfies OR only
        sys.exec(us(10));
        sys.tk_set_flg(flg, 0b10).unwrap(); // completes AND
        sys.exec(us(10));
    });
    rtos.run_for(ms(5));
    assert_eq!(log.take(), vec!["or@10 p=0b1", "and@20 p=0b11"]);
}

#[test]
fn eventflag_clear_modes_and_wsgl() {
    let mut rtos = scenario(move |sys| {
        let flg = sys
            .tk_cre_flg("f", 0b1111, false, QueueOrder::Fifo)
            .unwrap();
        // Immediate satisfaction with TWF_BITCLR clears only those bits.
        let p = sys
            .tk_wai_flg(flg, 0b0011, FlagWaitMode::OR.with_bitclear(), Timeout::Poll)
            .unwrap();
        assert_eq!(p, 0b1111);
        assert_eq!(sys.tk_ref_flg(flg).unwrap().pattern, 0b1100);
        // TWF_CLR clears everything.
        let p = sys
            .tk_wai_flg(flg, 0b0100, FlagWaitMode::OR.with_clear(), Timeout::Poll)
            .unwrap();
        assert_eq!(p, 0b1100);
        assert_eq!(sys.tk_ref_flg(flg).unwrap().pattern, 0);
        // tk_clr_flg ANDs with the mask.
        sys.tk_set_flg(flg, 0b1010).unwrap();
        sys.tk_clr_flg(flg, 0b0010).unwrap();
        assert_eq!(sys.tk_ref_flg(flg).unwrap().pattern, 0b0010);

        // TA_WSGL: second waiter gets E_OBJ.
        let wsgl = sys.tk_cre_flg("w", 0, true, QueueOrder::Fifo).unwrap();
        let w1 = sys
            .tk_cre_tsk("w1", 10, move |sys, _| {
                let _ = sys.tk_wai_flg(wsgl, 1, FlagWaitMode::OR, Timeout::Forever);
            })
            .unwrap();
        sys.tk_sta_tsk(w1, 0).unwrap(); // w1 preempts and waits
        sys.exec(us(10));
        assert_eq!(
            sys.tk_wai_flg(wsgl, 2, FlagWaitMode::OR, Timeout::ms(1)),
            Err(ErCode::Obj)
        );
        sys.tk_set_flg(wsgl, 1).unwrap();
    });
    rtos.run_for(ms(5));
}

// ---------------------------------------------------------------------
// Mailboxes
// ---------------------------------------------------------------------

#[test]
fn mailbox_fifo_and_priority_messages() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = scenario(move |sys| {
        let mbx = sys.tk_cre_mbx("m", true, QueueOrder::Fifo).unwrap();
        sys.tk_snd_mbx(mbx, MsgPacket::with_pri(5, b"five".to_vec()))
            .unwrap();
        sys.tk_snd_mbx(mbx, MsgPacket::with_pri(1, b"one".to_vec()))
            .unwrap();
        sys.tk_snd_mbx(mbx, MsgPacket::with_pri(3, b"three".to_vec()))
            .unwrap();
        // Priority ordering on receive.
        for _ in 0..3 {
            let m = sys.tk_rcv_mbx(mbx, Timeout::Poll).unwrap();
            l.push(String::from_utf8(m.data).unwrap());
        }
        assert_eq!(
            sys.tk_rcv_mbx(mbx, Timeout::Poll).unwrap_err(),
            ErCode::Tmout
        );
        // Blocking receive woken by a send.
        let l_rx = l.clone();
        let rx = sys
            .tk_cre_tsk("rx", 10, move |sys, _| {
                let m = sys.tk_rcv_mbx(mbx, Timeout::Forever).unwrap();
                l_rx.push(format!(
                    "rx:{}@{}",
                    String::from_utf8(m.data).unwrap(),
                    sys.now().as_us()
                ));
            })
            .unwrap();
        sys.tk_sta_tsk(rx, 0).unwrap(); // rx preempts and blocks
        sys.exec(us(10));
        sys.tk_snd_mbx(mbx, MsgPacket::new(b"direct".to_vec()))
            .unwrap();
        sys.exec(us(10));
    });
    rtos.run_for(ms(5));
    assert_eq!(log.take(), vec!["one", "three", "five", "rx:direct@10"]);
}

// ---------------------------------------------------------------------
// Message buffers
// ---------------------------------------------------------------------

#[test]
fn message_buffer_blocking_send_and_fifo_integrity() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = scenario(move |sys| {
        let mbf = sys.tk_cre_mbf("b", 8, 8, QueueOrder::Fifo).unwrap();
        // Fill the buffer: 4+4 bytes fit, further sends block.
        sys.tk_snd_mbf(mbf, b"aaaa", Timeout::Poll).unwrap();
        sys.tk_snd_mbf(mbf, b"bbbb", Timeout::Poll).unwrap();
        assert_eq!(
            sys.tk_snd_mbf(mbf, b"cc", Timeout::Poll),
            Err(ErCode::Tmout)
        );
        let l_tx = l.clone();
        let tx = sys
            .tk_cre_tsk("tx", 10, move |sys, _| {
                sys.tk_snd_mbf(mbf, b"cccc", Timeout::Forever).unwrap();
                l_tx.push(format!("sent@{}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_sta_tsk(tx, 0).unwrap(); // tx preempts, blocks on send
        sys.exec(us(10));
        // Receive frees space; the blocked sender completes; order kept.
        let m = sys.tk_rcv_mbf(mbf, Timeout::Poll).unwrap();
        assert_eq!(m, b"aaaa");
        sys.exec(us(10));
        let m = sys.tk_rcv_mbf(mbf, Timeout::Poll).unwrap();
        assert_eq!(m, b"bbbb");
        let m = sys.tk_rcv_mbf(mbf, Timeout::Poll).unwrap();
        assert_eq!(m, b"cccc");
        l.push("drained");
    });
    rtos.run_for(ms(5));
    assert_eq!(log.take(), vec!["sent@10", "drained"]);
}

#[test]
fn zero_size_message_buffer_is_synchronous() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let mbf = sys.tk_cre_mbf("sync", 0, 16, QueueOrder::Fifo).unwrap();
        let l_tx = l.clone();
        let tx = sys
            .tk_cre_tsk("tx", 10, move |sys, _| {
                sys.tk_snd_mbf(mbf, b"hello", Timeout::Forever).unwrap();
                l_tx.push(format!("tx-done@{}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_sta_tsk(tx, 0).unwrap();
        sys.exec(us(50));
        l.push("receiving");
        let m = sys.tk_rcv_mbf(mbf, Timeout::Forever).unwrap();
        assert_eq!(m, b"hello");
    });
    rtos.run_for(ms(5));
    // Sender stays blocked until the rendezvous.
    assert_eq!(log.take(), vec!["receiving", "tx-done@50"]);
}

// ---------------------------------------------------------------------
// Mutexes
// ---------------------------------------------------------------------

#[test]
fn mutex_basic_lock_unlock_and_iluse() {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let mtx = sys.tk_cre_mtx("m", MtxPolicy::Fifo).unwrap();
        sys.tk_loc_mtx(mtx, Timeout::Forever).unwrap();
        // Recursive lock is E_ILUSE.
        assert_eq!(sys.tk_loc_mtx(mtx, Timeout::Poll), Err(ErCode::IlUse));
        sys.tk_unl_mtx(mtx).unwrap();
        // Unlocking an unowned mutex is E_ILUSE.
        assert_eq!(sys.tk_unl_mtx(mtx), Err(ErCode::IlUse));
    });
    rtos.run_for(ms(5));
}

#[test]
fn mutex_priority_inheritance_boosts_owner() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let mtx = sys.tk_cre_mtx("m", MtxPolicy::Inherit).unwrap();
        let l_lo = l.clone();
        let lo = sys
            .tk_cre_tsk("lo", 30, move |sys, _| {
                sys.tk_loc_mtx(mtx, Timeout::Forever).unwrap();
                // Long critical section; hi will queue on the mutex at
                // t=1ms and boost us above mid.
                sys.exec(ms(5));
                let me = sys.tk_get_tid().unwrap();
                let r = sys.tk_ref_tsk(me).unwrap();
                l_lo.push(format!("lo-pri base={} cur={}", r.base_pri, r.cur_pri));
                sys.tk_unl_mtx(mtx).unwrap();
            })
            .unwrap();
        let l_hi = l.clone();
        let hi = sys
            .tk_cre_tsk("hi", 5, move |sys, _| {
                sys.tk_loc_mtx(mtx, Timeout::Forever).unwrap();
                l_hi.push(format!("hi-locked@{}", sys.now().as_ms()));
                sys.tk_unl_mtx(mtx).unwrap();
            })
            .unwrap();
        let l_mid = l.clone();
        let mid = sys
            .tk_cre_tsk("mid", 10, move |sys, _| {
                l_mid.push(format!("mid@{}", sys.now().as_ms()));
            })
            .unwrap();
        // lo runs (and locks) while init sleeps; at 1 ms init wakes and
        // readies hi + mid.
        sys.tk_sta_tsk(lo, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        sys.tk_sta_tsk(hi, 0).unwrap();
        sys.tk_sta_tsk(mid, 0).unwrap();
    });
    rtos.run_for(ms(20));
    let entries = log.take();
    // lo (boosted to 5 by hi's wait) finishes its section before mid
    // (priority 10) ever runs.
    assert_eq!(entries[0], "lo-pri base=30 cur=5");
    assert_eq!(entries[1], "hi-locked@5");
    assert_eq!(entries[2], "mid@5");
}

#[test]
fn mutex_ceiling_protocol() {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let mtx = sys.tk_cre_mtx("m", MtxPolicy::Ceiling(5)).unwrap();
        let t = sys
            .tk_cre_tsk("t", 20, move |sys, _| {
                let me = sys.tk_get_tid().unwrap();
                sys.tk_loc_mtx(mtx, Timeout::Forever).unwrap();
                // Current priority raised to the ceiling while held.
                assert_eq!(sys.tk_ref_tsk(me).unwrap().cur_pri, 5);
                sys.tk_unl_mtx(mtx).unwrap();
                assert_eq!(sys.tk_ref_tsk(me).unwrap().cur_pri, 20);
            })
            .unwrap();
        sys.tk_sta_tsk(t, 0).unwrap();
        // A task whose base priority is above the ceiling gets E_ILUSE.
        let bad = sys
            .tk_cre_tsk("bad", 3, move |sys, _| {
                assert_eq!(sys.tk_loc_mtx(mtx, Timeout::Poll), Err(ErCode::IlUse));
            })
            .unwrap();
        sys.tk_sta_tsk(bad, 0).unwrap();
    });
    rtos.run_for(ms(5));
}

#[test]
fn mutex_released_on_task_exit() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let mtx = sys.tk_cre_mtx("m", MtxPolicy::Fifo).unwrap();
        let holder = sys
            .tk_cre_tsk("holder", 10, move |sys, _| {
                sys.tk_loc_mtx(mtx, Timeout::Forever).unwrap();
                sys.exec(us(20));
                // exits without unlocking
            })
            .unwrap();
        let l_w = l.clone();
        let waiter = sys
            .tk_cre_tsk("waiter", 15, move |sys, _| {
                sys.tk_loc_mtx(mtx, Timeout::Forever).unwrap();
                l_w.push(format!("waiter-locked@{}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_sta_tsk(holder, 0).unwrap();
        sys.tk_sta_tsk(waiter, 0).unwrap();
    });
    rtos.run_for(ms(5));
    assert_eq!(log.take(), vec!["waiter-locked@20"]);
}

// ---------------------------------------------------------------------
// Memory pools
// ---------------------------------------------------------------------

#[test]
fn fixed_pool_alloc_release_and_waiting() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = scenario(move |sys| {
        let mpf = sys.tk_cre_mpf("p", 2, 32, QueueOrder::Fifo).unwrap();
        let b0 = sys.tk_get_mpf(mpf, Timeout::Poll).unwrap();
        let b1 = sys.tk_get_mpf(mpf, Timeout::Poll).unwrap();
        assert_ne!(b0, b1);
        assert_eq!(sys.tk_get_mpf(mpf, Timeout::Poll), Err(ErCode::Tmout));
        let l_w = l.clone();
        let w = sys
            .tk_cre_tsk("w", 10, move |sys, _| {
                let b = sys.tk_get_mpf(mpf, Timeout::Forever).unwrap();
                l_w.push(format!("got{b}@{}", sys.now().as_us()));
                sys.tk_rel_mpf(mpf, b).unwrap();
            })
            .unwrap();
        sys.tk_sta_tsk(w, 0).unwrap(); // w preempts and blocks
        sys.exec(us(10));
        sys.tk_rel_mpf(mpf, b0).unwrap(); // handed to the waiter directly
        sys.exec(us(10));
        assert_eq!(sys.tk_ref_mpf(mpf).unwrap().free_blocks, 1);
        // Double release is E_PAR.
        assert_eq!(sys.tk_rel_mpf(mpf, b1), Ok(()));
        assert_eq!(sys.tk_rel_mpf(mpf, b1), Err(ErCode::Par));
    });
    rtos.run_for(ms(5));
    assert_eq!(log.take(), vec!["got0@10"]);
}

#[test]
fn variable_pool_alloc_and_waiters() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = scenario(move |sys| {
        let mpl = sys.tk_cre_mpl("v", 64, QueueOrder::Fifo).unwrap();
        let a = sys.tk_get_mpl(mpl, 32, Timeout::Poll).unwrap();
        let b = sys.tk_get_mpl(mpl, 32, Timeout::Poll).unwrap();
        assert_eq!(sys.tk_get_mpl(mpl, 8, Timeout::Poll), Err(ErCode::Tmout));
        let l_w = l.clone();
        let w = sys
            .tk_cre_tsk("w", 10, move |sys, _| {
                let c = sys.tk_get_mpl(mpl, 48, Timeout::Forever).unwrap();
                l_w.push(format!("got@{}", sys.now().as_us()));
                sys.tk_rel_mpl(mpl, c).unwrap();
            })
            .unwrap();
        sys.tk_sta_tsk(w, 0).unwrap(); // w preempts and blocks
        sys.exec(us(10));
        sys.tk_rel_mpl(mpl, a).unwrap(); // 32 free, not enough for 48
        sys.exec(us(10));
        l.push("released-a");
        sys.tk_rel_mpl(mpl, b).unwrap(); // coalesced 64 -> waiter served
        sys.exec(us(10));
        assert_eq!(sys.tk_ref_mpl(mpl).unwrap().free, 64);
    });
    rtos.run_for(ms(5));
    assert_eq!(log.take(), vec!["released-a", "got@20"]);
}

// ---------------------------------------------------------------------
// Cyclic and alarm handlers
// ---------------------------------------------------------------------

#[test]
fn cyclic_handler_fires_periodically() {
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let c2 = Arc::clone(&c);
        sys.tk_cre_cyc("cyc", ms(10), SimTime::ZERO, true, move |sys| {
            c2.fetch_add(1, Ordering::SeqCst);
            assert!(!sys.in_task_context());
        })
        .unwrap();
    });
    rtos.run_for(ms(105));
    // Fires at 10,20,...,100 => 10 times.
    assert_eq!(count.load(Ordering::SeqCst), 10);
}

#[test]
fn cyclic_stop_and_restart() {
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let c2 = Arc::clone(&c);
        let cyc = sys
            .tk_cre_cyc("cyc", ms(5), SimTime::ZERO, true, move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        sys.tk_dly_tsk(ms(12)).unwrap(); // 2 fires (5, 10)
        sys.tk_stp_cyc(cyc).unwrap();
        sys.tk_dly_tsk(ms(20)).unwrap(); // none while stopped
        assert_eq!(sys.tk_ref_cyc(cyc).unwrap().count, 2);
        sys.tk_sta_cyc(cyc).unwrap(); // next at +5
        sys.tk_dly_tsk(ms(12)).unwrap(); // 2 more fires
        sys.tk_stp_cyc(cyc).unwrap();
        assert_eq!(sys.tk_ref_cyc(cyc).unwrap().count, 4);
    });
    rtos.run_for(ms(60));
    assert_eq!(count.load(Ordering::SeqCst), 4);
}

#[test]
fn alarm_fires_once() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l2 = l.clone();
        let alm = sys
            .tk_cre_alm("alm", move |sys| {
                l2.push(format!("alarm@{}", sys.now().as_ms()));
            })
            .unwrap();
        sys.tk_sta_alm(alm, ms(7)).unwrap();
        sys.tk_dly_tsk(ms(20)).unwrap();
        assert_eq!(sys.tk_ref_alm(alm).unwrap().count, 1);
        assert!(!sys.tk_ref_alm(alm).unwrap().active);
        // Re-arm.
        sys.tk_sta_alm(alm, ms(5)).unwrap();
    });
    rtos.run_for(ms(40));
    let entries = log.take();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0], "alarm@7");
}

#[test]
fn handler_wakes_task_with_delayed_dispatch() {
    // A cyclic handler wakes a high-priority task; the task must run
    // only after the handler completes (delayed dispatching), then
    // preempt the low-priority task.
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l_hi = l.clone();
        let hi = sys
            .tk_cre_tsk("hi", 5, move |sys, _| loop {
                if sys.tk_slp_tsk(Timeout::Forever).is_err() {
                    return;
                }
                l_hi.push(format!("hi@{}", sys.now().as_us()));
                sys.exec(us(100));
            })
            .unwrap();
        sys.tk_sta_tsk(hi, 0).unwrap();
        sys.tk_cre_cyc("kick", ms(10), SimTime::ZERO, true, move |sys| {
            let _ = sys.tk_wup_tsk(hi);
        })
        .unwrap();
        let l_lo = l.clone();
        let lo = sys
            .tk_cre_tsk("lo", 50, move |sys, _| loop {
                sys.exec(ms(1));
                let _ = &l_lo;
            })
            .unwrap();
        sys.tk_sta_tsk(lo, 0).unwrap();
    });
    rtos.run_for(ms(25));
    let entries = log.take();
    // hi woken at ticks 10 and 20 (timer tick is instantaneous with the
    // zero-cost model).
    assert_eq!(entries, vec!["hi@10000", "hi@20000"]);
}

/// Cyclic and alarm handlers run on Thread Dispatch's own process inside
/// the timer frame, so their activations cost the engine no process run
/// and no event: a kernel whose 1 ms cyclic handler executes 30 µs each
/// tick and whose alarm fires once runs as many processes and fires as
/// many events as one without them.
#[test]
fn timer_handlers_cost_the_engine_no_process_runs_or_events() {
    let run = |handlers: bool| {
        let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
            if handlers {
                sys.tk_cre_cyc("cyc", ms(1), SimTime::ZERO, true, |sys| {
                    sys.exec(us(30));
                })
                .unwrap();
                let alm = sys.tk_cre_alm("alm", |sys| sys.exec(us(30))).unwrap();
                sys.tk_sta_alm(alm, ms(5)).unwrap();
            }
        });
        rtos.run_for(ms(10));
        let handler_runs: u64 = rtos
            .threads()
            .iter()
            .filter(|t| matches!(t.who, ThreadRef::Cyclic(_) | ThreadRef::Alarm(_)))
            .map(|t| t.stats.cycles)
            .sum();
        let s = rtos.engine_stats();
        (handler_runs, s.process_runs, s.events_fired)
    };
    let (none, bare_runs, bare_events) = run(false);
    assert_eq!(none, 0);
    let (handler_runs, runs, events) = run(true);
    // Nine cyclic activations (ticks 1..=9; the run stops at the 10 ms
    // tick) and one alarm.
    assert_eq!(handler_runs, 10);
    assert_eq!((runs, events), (bare_runs, bare_events));
}

// ---------------------------------------------------------------------
// System management
// ---------------------------------------------------------------------

#[test]
fn dispatch_disable_defers_preemption() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = scenario(move |sys| {
        let l_hi = l.clone();
        let hi = sys
            .tk_cre_tsk("hi", 5, move |sys, _| {
                l_hi.push(format!("hi@{}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_dis_dsp().unwrap();
        sys.tk_sta_tsk(hi, 0).unwrap(); // would preempt, but deferred
        sys.exec(us(30));
        l.push(format!("still-actor@{}", sys.now().as_us()));
        sys.tk_ena_dsp().unwrap(); // now hi runs
        l.push(format!("actor-after@{}", sys.now().as_us()));
    });
    rtos.run_for(ms(5));
    assert_eq!(
        log.take(),
        vec!["still-actor@30", "hi@30", "actor-after@30"]
    );
}

#[test]
fn blocking_while_dispatch_disabled_is_e_ctx() {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        sys.tk_dis_dsp().unwrap();
        assert_eq!(sys.tk_slp_tsk(Timeout::Forever), Err(ErCode::Ctx));
        assert_eq!(sys.tk_dly_tsk(ms(1)), Err(ErCode::Ctx));
        sys.tk_ena_dsp().unwrap();
    });
    rtos.run_for(ms(5));
}

#[test]
fn ref_sys_and_ver() {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let rs = sys.tk_ref_sys().unwrap();
        assert_eq!(rs.sysstat.mnemonic(), "TSS_TSK");
        assert!(rs.runtskid.is_some());
        let rv = sys.tk_ref_ver().unwrap();
        assert!(rv.prid.contains("RTK-Spec TRON"));
        let t0 = sys.tk_get_tim().unwrap();
        sys.tk_set_tim(1_000_000).unwrap();
        assert!(sys.tk_get_tim().unwrap() >= 1_000_000);
        let _ = t0;
    });
    rtos.run_for(ms(5));
}

#[test]
fn system_time_advances_with_ticks() {
    let val = Arc::new(AtomicU64::new(0));
    let v = Arc::clone(&val);
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        sys.tk_dly_tsk(ms(20)).unwrap();
        v.store(sys.tk_get_tim().unwrap(), Ordering::SeqCst);
    });
    rtos.run_for(ms(30));
    assert_eq!(val.load(Ordering::SeqCst), 20);
}

// ---------------------------------------------------------------------
// Handler context restrictions
// ---------------------------------------------------------------------

#[test]
fn handler_cannot_block() {
    let code = Arc::new(AtomicI64::new(0));
    let c = Arc::clone(&code);
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let c2 = Arc::clone(&c);
        sys.tk_cre_cyc("cyc", ms(5), SimTime::ZERO, true, move |sys| {
            let r = sys.tk_slp_tsk(Timeout::Forever);
            c2.store(r.map_or_else(|e| e.code() as i64, |_| 0), Ordering::SeqCst);
        })
        .unwrap();
    });
    rtos.run_for(ms(10));
    assert_eq!(code.load(Ordering::SeqCst), ErCode::Ctx.code() as i64);
}

// ---------------------------------------------------------------------
// DS listing
// ---------------------------------------------------------------------

#[test]
fn ds_listing_shows_objects() {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        sys.tk_cre_sem("gate", 1, 4, QueueOrder::Fifo).unwrap();
        sys.tk_cre_flg("evt", 0b101, false, QueueOrder::Fifo)
            .unwrap();
        sys.tk_cre_mbx("box", false, QueueOrder::Fifo).unwrap();
        sys.tk_cre_mtx("lock", MtxPolicy::Inherit).unwrap();
        sys.tk_cre_mpf("pool", 4, 16, QueueOrder::Fifo).unwrap();
        let t = sys.tk_cre_tsk("app", 12, |sys, _| {
            sys.tk_slp_tsk(Timeout::Forever).ok();
        });
        sys.tk_sta_tsk(t.unwrap(), 0).unwrap();
    });
    rtos.run_for(ms(5));
    let listing = rtos.ds().dump_listing();
    assert!(listing.contains("T-Kernel/DS"));
    assert!(listing.contains("gate"));
    assert!(listing.contains("evt"));
    assert!(listing.contains("box"));
    assert!(listing.contains("lock"));
    assert!(listing.contains("pool"));
    assert!(listing.contains("app"));
    assert!(listing.contains("TTS_WAI"));
    assert!(listing.contains("slp"));
}
