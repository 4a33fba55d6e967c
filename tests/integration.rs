//! Workspace-level integration tests: the umbrella crate's re-exports,
//! the paper cost model's timing behaviour, and the full
//! trace → Gantt → energy → VCD analysis pipeline across crates.

use std::rc::Rc;
use std::sync::Arc;

use rtk_spec_tron::analysis::{Battery, EnergyReport, GanttChart, GanttConfig, WaveProbe};
use rtk_spec_tron::bfm::Bfm;
use rtk_spec_tron::core::{
    CostModel, ExecContext, KernelConfig, QueueOrder, Rtos, ServiceClass, Timeout,
};
use rtk_spec_tron::sysc::SimTime;
use rtk_spec_tron::videogame::{build_cosim, Cosim, GameConfig, Gui, PlayerSkill};

fn ms(v: u64) -> SimTime {
    SimTime::from_ms(v)
}

#[test]
fn paper_cost_model_charges_service_calls() {
    // With the 8051 cost model, each service call consumes its class
    // budget; a semaphore signal+wait pair costs 2 x 25 machine cycles.
    use std::sync::atomic::{AtomicU64, Ordering};
    let elapsed = Arc::new(AtomicU64::new(0));
    let e = Arc::clone(&elapsed);
    let cfg = KernelConfig::paper();
    let sem_cost = cfg.cost.service(ServiceClass::Semaphore).time;
    let mut rtos = Rtos::new(cfg, move |sys, _| {
        let sem = sys.tk_cre_sem("s", 1, 2, QueueOrder::Fifo).unwrap();
        let t0 = sys.now();
        sys.tk_sig_sem(sem, 1).unwrap();
        sys.tk_wai_sem(sem, 1, Timeout::Poll).unwrap();
        e.store((sys.now() - t0).as_ps(), Ordering::SeqCst);
    });
    rtos.run_for(ms(20));
    assert_eq!(
        elapsed.load(std::sync::atomic::Ordering::SeqCst),
        (sem_cost * 2).as_ps()
    );
}

#[test]
fn timer_tick_overhead_accumulates_on_timer_thread() {
    let cfg = KernelConfig::paper();
    let tick_cost = cfg.cost.timer_tick.time;
    let mut rtos = Rtos::new(cfg, |sys, _| {
        sys.tk_slp_tsk(Timeout::ms(80)).ok();
    });
    rtos.run_until(ms(100));
    let threads = rtos.threads();
    let timer = threads
        .iter()
        .find(|t| t.name == "timer")
        .expect("timer thread registered");
    // ~100 ticks, each consuming the tick budget in Handler context.
    let cet = timer.stats.cet(ExecContext::Handler);
    assert!(
        cet >= tick_cost * 90 && cet <= tick_cost * 101,
        "timer CET = {cet}"
    );
    assert!(timer.stats.cycles >= 90);
}

#[test]
fn zero_cost_model_makes_services_free() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let elapsed = Arc::new(AtomicU64::new(1));
    let e = Arc::clone(&elapsed);
    let cfg = KernelConfig::paper().with_cost(CostModel::zero());
    let mut rtos = Rtos::new(cfg, move |sys, _| {
        let sem = sys.tk_cre_sem("s", 1, 2, QueueOrder::Fifo).unwrap();
        let t0 = sys.now();
        for _ in 0..100 {
            sys.tk_sig_sem(sem, 1).unwrap();
            sys.tk_wai_sem(sem, 1, Timeout::Poll).unwrap();
        }
        e.store((sys.now() - t0).as_ps(), Ordering::SeqCst);
    });
    rtos.run_for(ms(20));
    assert_eq!(elapsed.load(std::sync::atomic::Ordering::SeqCst), 0);
}

#[test]
fn full_analysis_pipeline_over_the_case_study() {
    let case_study = || {
        build_cosim(
            KernelConfig::paper(),
            GameConfig::default(),
            PlayerSkill::Perfect,
            Gui::Off,
        )
    };
    let mut cosim = case_study();
    cosim.rtos.record_trace();
    let probe = Rc::new(WaveProbe::new());
    cosim.rtos.set_sim_tracer(probe.clone());

    cosim.rtos.run_until(ms(400));

    // Gantt renders with all the context patterns present.
    let chart = GanttChart::new(GanttConfig {
        width: 80,
        show_markers: true,
    });
    let gantt = chart.render(&cosim.rtos.trace_records(), SimTime::ZERO, ms(400));
    assert!(gantt.contains('#'), "handler pattern missing:\n{gantt}");
    assert!(gantt.contains('B'), "bfm pattern missing:\n{gantt}");
    assert!(gantt.contains('$'), "service pattern missing:\n{gantt}");
    assert!(gantt.contains('='), "task pattern missing:\n{gantt}");

    // Energy report: CET totals are consistent with elapsed time (the
    // idle task makes the CPU ~100% busy).
    let report = EnergyReport::build(
        &cosim.rtos.threads(),
        cosim.rtos.idle_stats(),
        ms(400),
        Battery::ten_watt_hours(),
    );
    let total = report.total_cet;
    assert!(
        total >= ms(360) && total <= ms(401),
        "total CET {total} vs elapsed 400 ms"
    );
    assert!(report.battery.remaining_fraction() > 0.99);

    // The kernel consumed energy; the busiest threads ranked first.
    assert!(!report.rows.is_empty());
    assert!(report.rows[0].cee >= report.rows.last().unwrap().cee);

    // Waveform probe saw the BFM port signals (ALE handshake etc.).
    // (The LCD path uses dedicated driver calls; port probing is
    // exercised via the serial/ports example; accept zero-or-more here
    // but the VCD must be syntactically valid.)
    let vcd = probe.to_vcd();
    assert!(vcd.contains("$enddefinitions"));

    // Probe neutrality: the same co-simulation with no trace recording
    // and no engine tracer makes the same kernel decisions and charges
    // every T-THREAD the same CET/CEE per place.
    let mut bare = case_study();
    bare.rtos.run_until(ms(400));
    assert_eq!(bare.rtos.run_stats(), cosim.rtos.run_stats());
    let per_place = |cosim: &Cosim| -> Vec<_> {
        cosim
            .rtos
            .threads()
            .into_iter()
            .map(|t| (t.name, t.stats.iter().collect::<Vec<_>>()))
            .collect()
    };
    assert_eq!(per_place(&bare), per_place(&cosim));
    assert!(bare.rtos.trace_records().is_empty());
}

#[test]
fn bfm_and_kernel_share_one_timeline() {
    // A task that mixes kernel services, BFM accesses and plain
    // execution: every time source must agree (sysc now == kernel otm).
    use std::sync::atomic::{AtomicU64, Ordering};
    let diff = Arc::new(AtomicU64::new(u64::MAX));
    let d = Arc::clone(&diff);
    let (mut rtos, _bfm) = Bfm::boot(KernelConfig::paper(), move |sys, bfm| {
        bfm.lcd.write_line(sys, 0, "hello");
        sys.exec(SimTime::from_us(777));
        let otm = sys.tk_get_otm().unwrap();
        d.store((sys.now() - otm).as_ps(), Ordering::SeqCst);
    });
    rtos.run_for(ms(50));
    assert_eq!(diff.load(std::sync::atomic::Ordering::SeqCst), 0);
}

#[test]
fn back_to_back_isr_requests_chain_without_losing_the_kernel() {
    // Regression: a second request on the same interrupt line, pending
    // when the first activation pops its frame, used to be mounted via
    // an activate-event notification sent from the ISR's own thread —
    // which was not waiting yet, so the wakeup was lost and the mounted
    // frame jammed the interrupt stack forever (ticks stopped, every
    // task frozen). Found by the simulation farm (seed 0).
    use rtk_spec_tron::core::IntNo;
    use rtk_spec_tron::sysc::SpawnMode;

    let mut rtos = Rtos::new(KernelConfig::paper(), |sys, _| {
        sys.tk_def_int(IntNo(0), 0, "isr", |sys| {
            sys.exec(SimTime::from_us(300)); // long body: 2nd raise lands inside
        })
        .unwrap();
        let t = sys
            .tk_cre_tsk("bg", 50, |sys, _| loop {
                sys.exec(SimTime::from_us(100));
                if sys.tk_dly_tsk(SimTime::from_ms(1)).is_err() {
                    break;
                }
            })
            .unwrap();
        sys.tk_sta_tsk(t, 0).unwrap();
    });
    let port = rtos.int_port();
    rtos.sim_handle()
        .spawn_thread(SpawnMode::Immediate, move |ctx| {
            ctx.wait_time(SimTime::from_us(2100));
            port.raise(IntNo(0), 0);
            ctx.wait_time(SimTime::from_us(100)); // first ISR still running
            port.raise(IntNo(0), 0);
        });
    rtos.run_for(ms(20));
    let stats = rtos.run_stats();
    // Both activations ran and the kernel kept ticking afterwards.
    assert!(stats.ticks >= 18, "ticks stalled at {}", stats.ticks);
    let isr_cycles: u64 = rtos
        .threads()
        .iter()
        .filter(|t| t.name == "isr")
        .map(|t| t.stats.cycles)
        .sum();
    assert_eq!(isr_cycles, 2, "both back-to-back requests must run");
}

#[test]
fn umbrella_reexports_are_usable() {
    // The facade crate exposes all five subsystems.
    let _ = rtk_spec_tron::core::KernelConfig::paper();
    let _ = rtk_spec_tron::analysis::Battery::ten_watt_hours();
    let _ = rtk_spec_tron::bfm::BusTiming::mcu_8051_12mhz();
    let _ = rtk_spec_tron::videogame::GameConfig::default();
    let _ = rtk_spec_tron::sysc::SimTime::from_ms(1);
}
