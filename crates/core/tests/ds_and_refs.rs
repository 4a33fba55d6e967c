//! Coverage for the reference services (`tk_ref_*`) and the T-Kernel/DS
//! snapshots (`td_ref_*`), plus multi-waiter event-flag release.

mod common;

use std::sync::Arc;

use common::Log;
use rtk_core::{
    ErCode, FlagWaitMode, IntNo, KernelConfig, MsgPacket, MtxPolicy, QueueOrder, Rtos, Timeout,
};
use sysc::SimTime;

fn ms(v: u64) -> SimTime {
    SimTime::from_ms(v)
}
fn us(v: u64) -> SimTime {
    SimTime::from_us(v)
}

#[test]
fn set_flg_wakes_multiple_waiters_in_one_call() {
    // TA_WMUL: one tk_set_flg releases every waiter whose condition
    // holds, in queue order.
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let flg = sys.tk_cre_flg("f", 0, false, QueueOrder::Fifo).unwrap();
        for (name, ptn) in [("w1", 0b001u32), ("w2", 0b010), ("w3", 0b100)] {
            let l2 = l.clone();
            let t = sys
                .tk_cre_tsk(name, 10, move |sys, _| {
                    sys.tk_wai_flg(flg, ptn, FlagWaitMode::OR, Timeout::Forever)
                        .unwrap();
                    l2.push(name);
                })
                .unwrap();
            sys.tk_sta_tsk(t, 0).unwrap();
        }
        sys.tk_dly_tsk(ms(1)).unwrap();
        assert_eq!(sys.tk_ref_flg(flg).unwrap().waiting, 3);
        // One call satisfies w1 and w3 but not w2.
        sys.tk_set_flg(flg, 0b101).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        l.push("mid");
        sys.tk_set_flg(flg, 0b010).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
    });
    rtos.run_for(ms(20));
    assert_eq!(log.take(), vec!["w1", "w3", "mid", "w2"]);
}

#[test]
fn ref_services_report_object_vitals() {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        // Mailbox with queued messages.
        let mbx = sys.tk_cre_mbx("box", false, QueueOrder::Fifo).unwrap();
        sys.tk_snd_mbx(mbx, MsgPacket::new(b"a".to_vec())).unwrap();
        sys.tk_snd_mbx(mbx, MsgPacket::new(b"b".to_vec())).unwrap();
        let r = sys.tk_ref_mbx(mbx).unwrap();
        assert_eq!(r.msg_count, 2);
        assert_eq!(r.waiting, 0);

        // Message buffer accounting.
        let mbf = sys.tk_cre_mbf("buf", 32, 16, QueueOrder::Fifo).unwrap();
        sys.tk_snd_mbf(mbf, b"hello", Timeout::Poll).unwrap();
        let r = sys.tk_ref_mbf(mbf).unwrap();
        assert_eq!(r.free, 27);
        assert_eq!(r.msg_count, 1);

        // Mutex ownership.
        let mtx = sys.tk_cre_mtx("m", MtxPolicy::Pri).unwrap();
        sys.tk_loc_mtx(mtx, Timeout::Poll).unwrap();
        let me = sys.tk_get_tid().unwrap();
        let r = sys.tk_ref_mtx(mtx).unwrap();
        assert_eq!(r.owner, Some(me));
        assert_eq!(r.policy, MtxPolicy::Pri);
        sys.tk_unl_mtx(mtx).unwrap();
        assert_eq!(sys.tk_ref_mtx(mtx).unwrap().owner, None);

        // Fixed pool accounting.
        let mpf = sys.tk_cre_mpf("p", 3, 8, QueueOrder::Fifo).unwrap();
        let b = sys.tk_get_mpf(mpf, Timeout::Poll).unwrap();
        let r = sys.tk_ref_mpf(mpf).unwrap();
        assert_eq!(r.free_blocks, 2);
        assert_eq!(r.total_blocks, 3);
        assert_eq!(r.block_size, 8);
        sys.tk_rel_mpf(mpf, b).unwrap();

        // Variable pool accounting.
        let mpl = sys.tk_cre_mpl("v", 128, QueueOrder::Fifo).unwrap();
        let a = sys.tk_get_mpl(mpl, 40, Timeout::Poll).unwrap();
        let r = sys.tk_ref_mpl(mpl).unwrap();
        assert_eq!(r.free, 128 - 40);
        sys.tk_rel_mpl(mpl, a).unwrap();
        assert_eq!(sys.tk_ref_mpl(mpl).unwrap().max_block, 128);
    });
    rtos.run_for(ms(10));
}

#[test]
fn ds_snapshots_match_service_views() {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let sem = sys.tk_cre_sem("s", 3, 7, QueueOrder::Fifo).unwrap();
        sys.tk_wai_sem(sem, 1, Timeout::Poll).unwrap();
        sys.tk_def_int(IntNo(3), 1, "my_isr", |_| {}).unwrap();
        let cyc = sys
            .tk_cre_cyc("c", ms(10), SimTime::ZERO, false, |_| {})
            .unwrap();
        let _ = cyc;
        sys.tk_slp_tsk(Timeout::ms(50)).ok();
    });
    rtos.run_for(ms(5));
    let ds = rtos.ds();

    // Semaphore snapshot.
    let sem = ds.td_ref_sem(rtk_core::SemId::from_raw(1)).unwrap();
    assert_eq!(sem.count, 2);
    assert_eq!(sem.max, 7);

    // ISR snapshot.
    let isr = ds.td_ref_int(IntNo(3)).unwrap();
    assert_eq!(isr.name, "my_isr");
    assert_eq!(isr.level, 1);
    assert_eq!(isr.count, 0);
    assert_eq!(ds.td_ref_int(IntNo(9)).unwrap_err(), ErCode::NoExs);

    // Cyclic snapshot (created stopped).
    let cyc = ds.td_ref_cyc(rtk_core::CycId::from_raw(1)).unwrap();
    assert!(!cyc.active);
    assert_eq!(cyc.period_ticks, 10);

    // System snapshot: init task is sleeping, nothing running.
    let (running, _ready, nest, ticks) = ds.td_ref_sys();
    assert_eq!(running, None);
    assert_eq!(nest, 0);
    assert!(ticks >= 4);
    assert!(ds.td_ref_tim() >= 4);

    // Task list contains the init task.
    let tasks = ds.td_lst_tsk();
    assert_eq!(tasks.len(), 1);
    let init = ds.td_ref_tsk(tasks[0]).unwrap();
    assert_eq!(init.name, "init");
}

#[test]
fn idle_power_accrues_when_no_task_runs() {
    // No idle task here: after init sleeps, the CPU is genuinely idle
    // and draws the (lower) idle power.
    let cfg = KernelConfig::paper();
    let mut rtos = Rtos::new(cfg, move |sys, _| {
        sys.exec(us(500));
        sys.tk_slp_tsk(Timeout::ms(80)).ok();
    });
    rtos.run_until(ms(100));
    let (idle_time, idle_energy) = rtos.idle_stats();
    assert!(idle_time > ms(70), "idle = {idle_time}");
    // 5 mW for ~90+ ms ≈ 450+ uJ; just check it is non-zero and less
    // than active power would give.
    assert!(!idle_energy.is_zero());
    let active_equiv = rtk_core::Power::from_mw(30).energy_over(idle_time);
    assert!(idle_energy < active_equiv);
}

#[test]
fn interrupts_before_boot_are_deferred() {
    // An IntPort raise before the kernel has booted must not crash and
    // must be delivered after boot completes.
    use std::sync::atomic::{AtomicU64, Ordering};
    let fired = Arc::new(AtomicU64::new(0));
    let f = Arc::clone(&fired);
    let mut rtos = Rtos::new(KernelConfig::paper(), move |sys, _| {
        let f2 = Arc::clone(&f);
        sys.tk_def_int(IntNo(0), 0, "isr", move |_| {
            f2.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    });
    // Raise at t=0, long before the 500 us boot completes and before
    // the ISR is even defined.
    rtos.int_port().raise(IntNo(0), 0);
    rtos.run_for(ms(10));
    assert_eq!(fired.load(std::sync::atomic::Ordering::SeqCst), 1);
}
