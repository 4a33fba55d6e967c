//! Edge-case and stress tests: chained priority inheritance, timeout vs
//! wake races, queue-order attributes under contention, calibration,
//! and restart cycles.

mod common;

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::Log;
use rtk_core::{
    calibrate, AlmId, Cost, CostModel, CycId, ErCode, ExecContext, FlgId, IntNo, KResult,
    KernelConfig, MbfId, MbxId, MpfId, MplId, MsgPacket, MtxId, MtxPolicy, QueueOrder,
    ReferenceProfile, Rtos, SemId, ServiceClass, Sys, TaskId, TaskState, ThreadRef, Timeout,
};
use sysc::SimTime;

fn ms(v: u64) -> SimTime {
    SimTime::from_ms(v)
}
fn us(v: u64) -> SimTime {
    SimTime::from_us(v)
}

#[test]
fn chained_priority_inheritance_propagates_two_levels() {
    // C(30) holds m1. B(20) holds m2 and waits m1. A(5) waits m2.
    // A's priority must propagate through B to C.
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let m1 = sys.tk_cre_mtx("m1", MtxPolicy::Inherit).unwrap();
        let m2 = sys.tk_cre_mtx("m2", MtxPolicy::Inherit).unwrap();
        let l_c = l.clone();
        let c = sys
            .tk_cre_tsk("c", 30, move |sys, _| {
                sys.tk_loc_mtx(m1, Timeout::Forever).unwrap();
                sys.exec(ms(4));
                let me = sys.tk_get_tid().unwrap();
                let r = sys.tk_ref_tsk(me).unwrap();
                l_c.push(format!("c cur_pri={}", r.cur_pri));
                sys.tk_unl_mtx(m1).unwrap();
            })
            .unwrap();
        let b = sys
            .tk_cre_tsk("b", 20, move |sys, _| {
                sys.tk_loc_mtx(m2, Timeout::Forever).unwrap();
                sys.tk_loc_mtx(m1, Timeout::Forever).unwrap(); // blocks on C
                sys.tk_unl_mtx(m1).unwrap();
                sys.tk_unl_mtx(m2).unwrap();
            })
            .unwrap();
        let l_a = l.clone();
        let a = sys
            .tk_cre_tsk("a", 5, move |sys, _| {
                sys.tk_loc_mtx(m2, Timeout::Forever).unwrap(); // blocks on B
                l_a.push(format!("a locked m2 @{}", sys.now().as_ms()));
                sys.tk_unl_mtx(m2).unwrap();
            })
            .unwrap();
        sys.tk_sta_tsk(c, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap(); // c locks m1, starts 4 ms section
        sys.tk_sta_tsk(b, 0).unwrap(); // b locks m2, blocks on m1
        sys.tk_dly_tsk(ms(1)).unwrap();
        sys.tk_sta_tsk(a, 0).unwrap(); // a blocks on m2 -> boosts b -> boosts c
    });
    rtos.run_for(ms(30));
    let entries = log.take();
    // C's current priority was boosted to 5 through the chain.
    assert_eq!(entries[0], "c cur_pri=5", "{entries:?}");
}

#[test]
fn mutex_wait_timeout_restores_inheritance() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let m = sys.tk_cre_mtx("m", MtxPolicy::Inherit).unwrap();
        let l_lo = l.clone();
        let lo = sys
            .tk_cre_tsk("lo", 30, move |sys, _| {
                sys.tk_loc_mtx(m, Timeout::Forever).unwrap();
                sys.exec(ms(10));
                let me = sys.tk_get_tid().unwrap();
                l_lo.push(format!(
                    "lo-pri-after={}",
                    sys.tk_ref_tsk(me).unwrap().cur_pri
                ));
                sys.tk_unl_mtx(m).unwrap();
            })
            .unwrap();
        let l_hi = l.clone();
        let hi = sys
            .tk_cre_tsk("hi", 5, move |sys, _| {
                // Give up after 3 ms: lo's boost must drop back to 30.
                let r = sys.tk_loc_mtx(m, Timeout::ms(3));
                l_hi.push(format!("hi-lock={r:?}@{}", sys.now().as_ms()));
            })
            .unwrap();
        sys.tk_sta_tsk(lo, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        sys.tk_sta_tsk(hi, 0).unwrap();
    });
    rtos.run_for(ms(30));
    let entries = log.take();
    assert_eq!(entries[0], "hi-lock=Err(Tmout)@4");
    // After the timeout, lo ran de-boosted and reports base priority.
    assert_eq!(entries[1], "lo-pri-after=30");
}

#[test]
fn wakeup_and_timeout_race_conserves_wakeups() {
    // A task sleeping with a 5 ms timeout receives tk_wup_tsk at exactly
    // the deadline tick. µ-ITRON semantics: the timeout completes the
    // wait (E_TMOUT) and the wakeup — arriving while the task is READY —
    // is queued, so the *next* sleep returns immediately. Exactly one
    // wakeup is delivered in total (conservation).
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l2 = l.clone();
        let sleeper = sys
            .tk_cre_tsk("sleeper", 10, move |sys, _| {
                let r1 = sys.tk_slp_tsk(Timeout::ms(5));
                l2.push(format!("r1={r1:?}@{}", sys.now().as_ms()));
                let r2 = sys.tk_slp_tsk(Timeout::ms(3));
                l2.push(format!("r2={r2:?}@{}", sys.now().as_ms()));
            })
            .unwrap();
        sys.tk_sta_tsk(sleeper, 0).unwrap();
        sys.tk_dly_tsk(ms(5)).unwrap();
        // Exactly at the timeout tick.
        let _ = sys.tk_wup_tsk(sleeper);
        sys.tk_dly_tsk(ms(10)).unwrap();
        // The sleeper consumed the queued wakeup and exited.
        assert_eq!(sys.tk_ref_tsk(sleeper).unwrap().state, TaskState::Dormant);
        assert_eq!(sys.tk_ref_tsk(sleeper).unwrap().wupcnt, 0);
    });
    rtos.run_for(ms(30));
    let entries = log.take();
    // Deterministic outcome: the timer delivers the timeout first (the
    // sleeper's entry is older in the timer queue), then the init task's
    // wakeup is queued and satisfies the second sleep instantly.
    assert_eq!(
        entries,
        vec!["r1=Err(Tmout)@5", "r2=Ok(())@5"],
        "wakeup/timeout race produced {entries:?}"
    );
}

#[test]
fn priority_wait_queue_vs_fifo_under_contention() {
    // Three tasks of different priority block on two semaphores, one
    // FIFO-ordered and one priority-ordered; release order must differ.
    let fifo_log = Log::default();
    let pri_log = Log::default();
    let (fl, pl) = (fifo_log.clone(), pri_log.clone());
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let s_fifo = sys.tk_cre_sem("fifo", 0, 10, QueueOrder::Fifo).unwrap();
        let s_pri = sys.tk_cre_sem("pri", 0, 10, QueueOrder::Priority).unwrap();
        for (name, pri) in [("low", 30u8), ("high", 10u8), ("mid", 20u8)] {
            let fl = fl.clone();
            let pl = pl.clone();
            let t = sys
                .tk_cre_tsk(name, pri, move |sys, _| {
                    sys.tk_wai_sem(s_fifo, 1, Timeout::Forever).unwrap();
                    fl.push(name);
                    sys.tk_wai_sem(s_pri, 1, Timeout::Forever).unwrap();
                    pl.push(name);
                })
                .unwrap();
            sys.tk_sta_tsk(t, 0).unwrap();
            // Let each task block on s_fifo before starting the next, so
            // the FIFO queue order is the start order.
            sys.tk_dly_tsk(ms(1)).unwrap();
        }
        // Release one count at a time so the queue discipline (not the
        // dispatch order of simultaneously woken tasks) decides.
        for _ in 0..3 {
            sys.tk_sig_sem(s_fifo, 1).unwrap();
            sys.tk_dly_tsk(ms(1)).unwrap();
        }
        for _ in 0..3 {
            sys.tk_sig_sem(s_pri, 1).unwrap();
            sys.tk_dly_tsk(ms(1)).unwrap();
        }
    });
    rtos.run_for(ms(40));
    assert_eq!(fifo_log.take(), vec!["low", "high", "mid"]); // arrival order
    assert_eq!(pri_log.take(), vec!["high", "mid", "low"]); // priority order
}

#[test]
fn task_restart_preserves_statistics_across_cycles() {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let t = sys
            .tk_cre_tsk("worker", 10, |sys, _| {
                sys.exec(us(100));
            })
            .unwrap();
        for _ in 0..5 {
            sys.tk_sta_tsk(t, 0).unwrap();
            sys.tk_dly_tsk(ms(1)).unwrap();
            assert_eq!(sys.tk_ref_tsk(t).unwrap().state, TaskState::Dormant);
        }
        assert_eq!(sys.tk_ref_tsk(t).unwrap().activations, 5);
    });
    rtos.run_for(ms(30));
    // The T-THREAD accumulated CET over all five activation cycles
    // (paper: CET = sum over cycles).
    let threads = rtos.threads();
    let worker = threads.iter().find(|t| t.name == "worker").unwrap();
    assert_eq!(worker.stats.cycles, 5);
    assert_eq!(worker.stats.total_cet(), us(500));
}

#[test]
fn calibrated_cost_model_changes_simulated_timing() {
    // Calibrate the semaphore cost to 2x and verify the simulation's
    // measured service time follows.
    let elapsed = Arc::new(AtomicU64::new(0));
    let base = KernelConfig::paper();
    let sem_time = base.cost.service(ServiceClass::Semaphore).time;
    let mut profile = ReferenceProfile::new();
    profile.observe(ServiceClass::Semaphore, sem_time * 2);
    let calibrated = calibrate(&base.cost, &profile);
    let e = Arc::clone(&elapsed);
    let mut rtos = Rtos::new(base.with_cost(calibrated), move |sys, _| {
        let sem = sys.tk_cre_sem("s", 1, 2, QueueOrder::Fifo).unwrap();
        let t0 = sys.now();
        sys.tk_sig_sem(sem, 1).unwrap();
        e.store((sys.now() - t0).as_ps(), Ordering::SeqCst);
    });
    rtos.run_for(ms(20));
    assert_eq!(
        elapsed.load(Ordering::SeqCst),
        (sem_time * 2).as_ps(),
        "calibrated semaphore cost not applied"
    );
}

#[test]
fn many_tasks_heavy_churn() {
    // 20 tasks sleeping/waking in a ring for 100 ms of simulated time:
    // a stress test of the dispatch machinery.
    let total = Arc::new(AtomicU64::new(0));
    let t2 = Arc::clone(&total);
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let n = 20u32;
        let mut ids = Vec::new();
        for i in 0..n {
            let t2 = Arc::clone(&t2);
            let t = sys
                .tk_cre_tsk(
                    &format!("ring{i}"),
                    10 + (i % 5) as u8,
                    move |sys, _| loop {
                        if sys.tk_slp_tsk(Timeout::Forever).is_err() {
                            return;
                        }
                        t2.fetch_add(1, Ordering::SeqCst);
                        sys.exec(us(50));
                    },
                )
                .unwrap();
            ids.push(t);
        }
        for t in &ids {
            sys.tk_sta_tsk(*t, 0).unwrap();
        }
        //

        let ids2 = ids.clone();
        sys.tk_cre_cyc("kicker", ms(1), SimTime::ZERO, true, move |sys| {
            for t in &ids2 {
                let _ = sys.tk_wup_tsk(*t);
            }
        })
        .unwrap();
    });
    rtos.run_for(ms(100));
    // ~99 cyclic fires x 20 tasks, minus partial last rounds.
    let woken = total.load(Ordering::SeqCst);
    assert!(woken > 1500, "only {woken} wakeups");
}

#[test]
fn exd_tsk_deletes_self() {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let t = sys
            .tk_cre_tsk("ephemeral", 10, |sys, _| {
                sys.exec(us(10));
                sys.tk_exd_tsk();
            })
            .unwrap();
        sys.tk_sta_tsk(t, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        assert_eq!(sys.tk_ref_tsk(t).unwrap_err(), ErCode::NoExs);
    });
    rtos.run_for(ms(10));
}

/// The SIM_HashTB contract seen through `Rtos::threads()` and
/// `run_stats().threads`: T-THREADs are listed in `ThreadRef` order
/// (tasks, cyclics, alarms, ISRs by number, the timer); a task removed
/// by `tk_exd_tsk` or `tk_del_tsk` leaves the table; and a task created
/// on the freed ID starts with fresh statistics.
#[test]
fn deleted_tasks_leave_the_thread_table_and_reused_ids_start_fresh() {
    let tsk = |n| ThreadRef::Task(TaskId::from_raw(n));
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        // Defined out of order; listed by interrupt number. A large
        // caller-chosen number is a valid key like any other.
        sys.tk_def_int(IntNo(1_000_000), 1, "late_irq", |_| {})
            .unwrap();
        sys.tk_cre_alm("alarm", |_| {}).unwrap();
        sys.tk_def_int(IntNo(3), 0, "early_irq", |_| {}).unwrap();
        sys.tk_cre_cyc("cyclic", ms(50), ms(50), false, |_| {})
            .unwrap();
        // Until 2 ms: a task that runs and deletes itself.
        let t = sys
            .tk_cre_tsk("ephemeral", 10, |sys, _| {
                sys.exec(us(10));
                sys.tk_exd_tsk();
            })
            .unwrap();
        assert_eq!(t, TaskId::from_raw(2));
        sys.tk_sta_tsk(t, 0).unwrap();
        sys.tk_dly_tsk(ms(2)).unwrap();
        // Until 4 ms: the freed ID is reused by a task that runs once.
        let again = sys
            .tk_cre_tsk("again", 10, |sys, _| sys.exec(us(20)))
            .unwrap();
        assert_eq!(again, t);
        sys.tk_sta_tsk(again, 0).unwrap();
        sys.tk_dly_tsk(ms(2)).unwrap();
        // Until 6 ms: the dormant task is deleted by another task.
        sys.tk_del_tsk(again).unwrap();
        sys.tk_dly_tsk(ms(2)).unwrap();
        // From 6 ms: the ID is reused once more.
        assert_eq!(sys.tk_cre_tsk("fresh", 10, |_, _| {}).unwrap(), t);
        sys.tk_slp_tsk(Timeout::Forever).unwrap();
    });
    let handlers = [
        ThreadRef::Cyclic(CycId::from_raw(1)),
        ThreadRef::Alarm(AlmId::from_raw(1)),
        ThreadRef::Isr(IntNo(3)),
        ThreadRef::Isr(IntNo(1_000_000)),
        ThreadRef::Timer,
    ];
    let listed = |rtos: &Rtos| -> Vec<ThreadRef> {
        let who: Vec<ThreadRef> = rtos.threads().iter().map(|t| t.who).collect();
        assert_eq!(rtos.run_stats().threads as usize, who.len());
        who
    };
    let with_task = |tasks: &[ThreadRef]| -> Vec<ThreadRef> {
        tasks.iter().chain(handlers.iter()).copied().collect()
    };

    rtos.run_for(ms(1));
    assert_eq!(listed(&rtos), with_task(&[tsk(1)]), "after tk_exd_tsk");

    rtos.run_for(ms(2));
    assert_eq!(listed(&rtos), with_task(&[tsk(1), tsk(2)]));
    let again = rtos
        .threads()
        .into_iter()
        .find(|t| t.who == tsk(2))
        .unwrap();
    assert_eq!(again.name, "again");
    assert_eq!(again.stats.cycles, 1);
    assert_eq!(again.stats.total_cet(), us(20), "only its own slice");
    assert_eq!(again.stats.cet(ExecContext::TaskBody), us(20));

    rtos.run_for(ms(2));
    assert_eq!(listed(&rtos), with_task(&[tsk(1)]), "after tk_del_tsk");

    rtos.run_for(ms(2));
    assert_eq!(listed(&rtos), with_task(&[tsk(1), tsk(2)]));
    let fresh = rtos
        .threads()
        .into_iter()
        .find(|t| t.who == tsk(2))
        .unwrap();
    assert_eq!(fresh.name, "fresh");
    assert_eq!(fresh.marking, ExecContext::Dormant);
    assert_eq!(fresh.stats.cycles, 0);
    assert_eq!(fresh.stats.sigma.total(), 0);
    assert_eq!(fresh.stats.total_cet(), SimTime::ZERO);
    assert_eq!(fresh.stats.iter().count(), 0);
}

/// ID 0 is never issued. Every service that looks an object up answers
/// it with `E_NOEXS`, as `from_raw` promises, in every build profile;
/// the error return pays its class's atomic cost once, like any other.
#[test]
fn id_zero_is_noexs_in_every_object_class() {
    type Call = fn(&mut Sys<'_>) -> KResult<()>;
    let calls: [(&str, ServiceClass, Call); 10] = [
        ("tk_sig_sem", ServiceClass::Semaphore, |s| {
            s.tk_sig_sem(SemId::from_raw(0), 1)
        }),
        ("tk_set_flg", ServiceClass::EventFlag, |s| {
            s.tk_set_flg(FlgId::from_raw(0), 1)
        }),
        ("tk_snd_mbx", ServiceClass::Mailbox, |s| {
            s.tk_snd_mbx(MbxId::from_raw(0), MsgPacket::new([1]))
        }),
        ("tk_snd_mbf", ServiceClass::MessageBuffer, |s| {
            s.tk_snd_mbf(MbfId::from_raw(0), &[1], Timeout::Forever)
        }),
        ("tk_loc_mtx", ServiceClass::Mutex, |s| {
            s.tk_loc_mtx(MtxId::from_raw(0), Timeout::Forever)
        }),
        ("tk_get_mpf", ServiceClass::MemoryPool, |s| {
            s.tk_get_mpf(MpfId::from_raw(0), Timeout::Forever).map(drop)
        }),
        ("tk_get_mpl", ServiceClass::MemoryPool, |s| {
            s.tk_get_mpl(MplId::from_raw(0), 4, Timeout::Forever)
                .map(drop)
        }),
        ("tk_sta_cyc", ServiceClass::Time, |s| {
            s.tk_sta_cyc(CycId::from_raw(0))
        }),
        ("tk_sta_alm", ServiceClass::Time, |s| {
            s.tk_sta_alm(AlmId::from_raw(0), ms(1))
        }),
        ("tk_sta_tsk", ServiceClass::Task, |s| {
            s.tk_sta_tsk(TaskId::from_raw(0), 0)
        }),
    ];
    // Only service calls cost anything, and each class costs a
    // different amount.
    let cost = calls
        .iter()
        .enumerate()
        .fold(CostModel::zero(), |m, (i, &(_, class, _))| {
            m.with_service(class, Cost::time(us(11 + i as u64)))
        });
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    let model = cost.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost().with_cost(cost), move |sys, _| {
        for (name, class, call) in calls {
            let before = sys.now();
            assert_eq!(call(sys), Err(ErCode::NoExs), "{name}");
            assert_eq!(sys.now() - before, model.service(class).time, "{name}");
        }
        d.set(true);
    });
    rtos.run_for(ms(5));
    assert!(done.get(), "the init task did not finish");
    assert_eq!(
        rtos.ds().td_ref_tsk(TaskId::from_raw(0)).unwrap_err(),
        ErCode::NoExs
    );
}

/// `tk_rot_rdq`'s `E_PAR` changes no state, so passing the preemption
/// point on that return changes nothing either. An alarm fires during
/// the call's atomic cost and wakes a higher-priority task: the freeze
/// is honoured when the cost ends, the woken task runs first, and only
/// then does the caller see the error, at the same instant.
#[test]
fn failing_call_sees_its_error_after_the_interrupt_it_deferred() {
    let log = Log::default();
    let l = log.clone();
    let cost = CostModel::zero().with_service(ServiceClass::Task, Cost::time(us(80)));
    let mut rtos = Rtos::new(KernelConfig::zero_cost().with_cost(cost), move |sys, _| {
        let l_high = l.clone();
        let high = sys
            .tk_cre_tsk("high", 5, move |sys, _| {
                sys.tk_slp_tsk(Timeout::Forever).unwrap();
                l_high.push(format!("high woken at {}", sys.now()));
            })
            .unwrap();
        sys.tk_sta_tsk(high, 0).unwrap();
        let alm = sys
            .tk_cre_alm("wake", move |sys| sys.tk_wup_tsk(high).unwrap())
            .unwrap();
        let l_low = l.clone();
        let low = sys
            .tk_cre_tsk("low", 10, move |sys, _| {
                // Resume on a tick, arm the alarm for the next one and
                // make the call so that its 80 us span that tick.
                sys.tk_dly_tsk(ms(1)).unwrap();
                sys.tk_sta_alm(alm, ms(1)).unwrap();
                sys.exec(us(960));
                let r = sys.tk_rot_rdq(200);
                l_low.push(format!("low got {r:?} at {}", sys.now()));
            })
            .unwrap();
        sys.tk_sta_tsk(low, 0).unwrap();
    });
    rtos.run_for(ms(10));
    assert_eq!(
        log.take(),
        ["high woken at 2040 us", "low got Err(Par) at 2040 us"]
    );
}
