//! The paper's full case study (§5): RTK-Spec TRON + i8051 BFM + the
//! video-game application (4 tasks, 2 handlers) + GUI widgets, run for
//! one simulated second — then every debug view the paper shows:
//! the virtual-prototype screen, the Gantt trace (Fig. 6), the
//! time/energy distribution with battery (Fig. 7), and the T-Kernel/DS
//! listing (Fig. 8).
//!
//! Run with: `cargo run --example videogame --release`

use rtk_spec_tron::analysis::{Battery, EnergyReport, GanttChart, GanttConfig};
use rtk_spec_tron::bfm::GuiCost;
use rtk_spec_tron::core::KernelConfig;
use rtk_spec_tron::sysc::SimTime;
use rtk_spec_tron::videogame::{build_cosim, GameConfig, Gui, PlayerSkill};

fn main() {
    let mut cosim = build_cosim(
        KernelConfig::paper(),
        GameConfig::default(),
        PlayerSkill::Perfect,
        Gui::On {
            period: SimTime::from_ms(50),
            cost: GuiCost::LIGHT,
        },
    );
    cosim.rtos.record_trace();

    let horizon = SimTime::from_secs(1);
    cosim.rtos.run_until(horizon);

    // The virtual system prototype "screen".
    println!("{}", cosim.widgets.as_ref().unwrap().screen());

    let game = cosim.game();
    let state = game.state.borrow().clone();
    println!(
        "game after 1 s: frames={} score={} lives={} speed={}\n",
        state.frames, state.score, state.lives, state.speed
    );

    // Fig. 6 — execution trace around one physics frame.
    let chart = GanttChart::new(GanttConfig {
        width: 100,
        show_markers: true,
    });
    println!(
        "{}",
        chart.render(
            &cosim.rtos.trace_records(),
            SimTime::from_ms(95),
            SimTime::from_ms(160)
        )
    );

    // Fig. 7 — time/energy distribution + 10 Wh battery.
    let report = EnergyReport::build(
        &cosim.rtos.threads(),
        cosim.rtos.idle_stats(),
        horizon,
        Battery::ten_watt_hours(),
    );
    println!("{}", report.render());

    // Fig. 8 — T-Kernel/DS listing.
    println!("{}", cosim.rtos.ds().dump_listing());
}
