//! End-to-end co-simulation of the paper's case study: kernel + BFM +
//! video game + simulated player, run for one simulated second.

use std::rc::Rc;

use rtk_core::{KernelConfig, TaskState};
use rtk_videogame::{build_cosim, GameConfig, Gui, PlayerSkill};
use sysc::SimTime;

fn sec(v: u64) -> SimTime {
    SimTime::from_secs(v)
}

fn run_one_second(skill: PlayerSkill) -> rtk_videogame::Cosim {
    let mut cosim = build_cosim(
        KernelConfig::paper(),
        GameConfig::default(),
        skill,
        Gui::Off,
    );
    cosim.rtos.run_until(sec(1));
    cosim
}

#[test]
fn one_second_of_gameplay_with_perfect_player() {
    let cosim = run_one_second(PlayerSkill::Perfect);
    let game = cosim.game();
    let state = game.state.borrow().clone();

    // 50 ms frames for 1 s => ~20 frames (minus boot offset).
    assert!(state.frames >= 15, "frames = {}", state.frames);
    // A perfect player catches nearly everything: positive score, alive.
    assert!(state.score > 0, "score = {}", state.score);
    assert!(!state.game_over);

    // The score made it to the seven-segment display.
    let shown = cosim.bfm.ssd.value();
    assert!(shown > 0);
    assert!(shown <= state.score);

    // The LCD framebuffer contains the rendered paddle.
    let snap = cosim.bfm.lcd.snapshot();
    assert!(snap[1].contains('='), "lcd = {snap:?}");

    // Keypad interrupts were raised and consumed.
    assert!(cosim.bfm.keypad.press_count() > 5);

    // Serial log lines were drained by the idle task.
    let log = cosim.bfm.serial.tx_string();
    assert!(log.contains("F8 S"), "serial log = {log:?}");
}

#[test]
fn absent_player_loses_the_game() {
    // With nobody at the keypad the motionless paddle catches only the
    // dips that happen to land on it; three misses end the game. Run in
    // 500 ms steps until that happens (bounded).
    let mut cosim = build_cosim(
        KernelConfig::paper(),
        GameConfig::default(),
        PlayerSkill::Absent,
        Gui::Off,
    );
    let mut over = false;
    for step in 1..=20 {
        cosim.rtos.run_until(SimTime::from_ms(step * 500));
        if cosim.game().state.borrow().game_over {
            over = true;
            break;
        }
    }
    let state = cosim.game().state.borrow().clone();
    assert!(over, "state = {state:?}");
    assert_eq!(state.lives, 0);
    // The LCD shows the game-over screen.
    let snap = cosim.bfm.lcd.snapshot();
    assert!(snap[0].contains("GAME OVER"), "lcd = {snap:?}");
}

#[test]
fn speedup_alarm_fires_and_rearms() {
    let cosim = run_one_second(PlayerSkill::Perfect);
    let game = cosim.game();
    // First at 400 ms, re-armed every 400 ms: 2 firings in 1 s.
    let alarm = cosim.rtos.ds().td_ref_alm(game.h_alarm).unwrap();
    assert_eq!(alarm.count, 2, "alarm fired {} times", alarm.count);
    assert!(game.state.borrow().speed >= 2);
}

#[test]
fn ds_listing_reflects_the_case_study() {
    let cosim = run_one_second(PlayerSkill::Perfect);
    let listing = cosim.rtos.ds().dump_listing();
    for name in [
        "lcd", "keypad", "ssd", "idle", "frame", "score", "keys", "log", "state",
    ] {
        assert!(listing.contains(name), "missing {name} in:\n{listing}");
    }
    assert!(listing.contains("physics"));
    assert!(listing.contains("speedup"));
    assert!(listing.contains("keypad_isr") || listing.contains("int2"));
}

#[test]
fn task_states_are_consistent_after_run() {
    let cosim = run_one_second(PlayerSkill::Perfect);
    let game = cosim.game();
    let ds = cosim.rtos.ds();
    // The LCD task waits for the next frame flag; keypad waits on the
    // mailbox; SSD waits on the semaphore (unless mid-frame).
    let lcd = ds.td_ref_tsk(game.t_lcd).unwrap();
    assert!(
        matches!(
            lcd.state,
            TaskState::Wait | TaskState::Ready | TaskState::Running
        ),
        "lcd state = {:?}",
        lcd.state
    );
    let keypad = ds.td_ref_tsk(game.t_keypad).unwrap();
    assert!(
        matches!(
            keypad.state,
            TaskState::Wait | TaskState::Ready | TaskState::Running
        ),
        "keypad state = {:?}",
        keypad.state
    );
    // The cyclic handler fired about 20 times.
    let cyc = ds.td_ref_cyc(game.h_cyclic).unwrap();
    assert!(
        cyc.count >= 15 && cyc.count <= 21,
        "cyc count = {}",
        cyc.count
    );
}

#[test]
fn gui_widgets_render_during_cosim() {
    let mut cosim = build_cosim(
        KernelConfig::paper(),
        GameConfig::default(),
        PlayerSkill::Perfect,
        Gui::On {
            period: SimTime::from_ms(10),
            cost: rtk_bfm::GuiCost::LIGHT,
        },
    );
    cosim.rtos.run_until(SimTime::from_ms(500));
    let widgets = cosim.widgets.as_ref().unwrap();
    // ~50 refreshes in 500 ms at 10 ms.
    assert!(
        widgets.frame_count() >= 45,
        "frames = {}",
        widgets.frame_count()
    );
    let screen = widgets.screen();
    assert!(screen.contains("== LCD =="));
    assert!(screen.contains("== SSD =="));
    assert!(screen.contains("serial>"));
}

#[test]
fn determinism_same_build_same_outcome() {
    let a = {
        let cosim = run_one_second(PlayerSkill::Random(42));
        let s = cosim.game().state.borrow().clone();
        (s.frames, s.score, s.lives, s.paddle_col, s.ball_col)
    };
    let b = {
        let cosim = run_one_second(PlayerSkill::Random(42));
        let s = cosim.game().state.borrow().clone();
        (s.frames, s.score, s.lives, s.paddle_col, s.ball_col)
    };
    assert_eq!(a, b);
}

#[test]
fn single_cpu_invariant_holds_over_full_run() {
    // Record the trace and verify no two execution slices of different
    // T-THREADs overlap in time (single-CPU invariant).
    use rtk_core::TraceKind;
    let mut cosim = build_cosim(
        KernelConfig::paper(),
        GameConfig::default(),
        PlayerSkill::Perfect,
        Gui::Off,
    );
    cosim.rtos.record_trace();
    cosim.rtos.run_until(SimTime::from_ms(300));
    let mut slices: Vec<(u64, u64, String)> = cosim
        .rtos
        .trace_records()
        .into_iter()
        .filter(|r| matches!(r.kind, TraceKind::Slice { .. }) && r.duration() > SimTime::ZERO)
        .map(|r| (r.start.as_ps(), r.end.as_ps(), r.name))
        .collect();
    assert!(slices.len() > 100, "expected a busy trace");
    slices.sort();
    for w in slices.windows(2) {
        let (_, end_a, name_a) = &w[0];
        let (start_b, _, name_b) = &w[1];
        assert!(
            start_b >= end_a || name_a == name_b,
            "overlapping execution: {name_a} ends {end_a}, {name_b} starts {start_b}"
        );
    }
}

#[test]
fn dropping_a_cosim_frees_its_game_state() {
    // The game's tasks hold device clones whose interrupt ports lead
    // back to the kernel that owns the tasks; the GUI's refresh method
    // holds the widgets. Teardown must break both cycles.
    for gui in [
        Gui::Off,
        Gui::On {
            period: SimTime::from_ms(10),
            cost: rtk_bfm::GuiCost::LIGHT,
        },
    ] {
        let mut cosim = build_cosim(
            KernelConfig::paper(),
            GameConfig::default(),
            PlayerSkill::Perfect,
            gui,
        );
        // Attached to the engine, it lives exactly as long as the kernel.
        struct KernelProbe;
        impl sysc::Tracer for KernelProbe {}
        let tracer = Rc::new(KernelProbe);
        let kernel = Rc::downgrade(&tracer);
        cosim.rtos.set_sim_tracer(tracer);
        cosim.rtos.run_until(SimTime::from_ms(200));
        let state = Rc::downgrade(&cosim.game().state);
        drop(cosim);
        assert!(
            state.upgrade().is_none(),
            "{gui:?}: game state outlived its cosim"
        );
        assert!(
            kernel.upgrade().is_none(),
            "{gui:?}: kernel outlived its cosim"
        );
    }
}
