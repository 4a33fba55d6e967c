//! Regenerates **Figure 6** — "Execution Time/Energy Trace": the Gantt
//! chart of the video-game co-simulation in step mode, showing task
//! dispatching, interrupt handling and preemption, with per-context
//! patterns (task body, OS service, BFM access, handler).

use rtk_analysis::{GanttChart, GanttConfig};
use rtk_bench::paper_scenario;
use rtk_videogame::Gui;
use sysc::SimTime;

fn main() {
    let mut cosim = paper_scenario(Gui::Off);
    cosim.rtos.record_trace();

    // Step mode: advance tick by tick (the paper's display mode for the
    // trace widget) up to 160 ms.
    for _ in 0..160 {
        cosim.rtos.step();
    }

    let records = cosim.rtos.trace_records();
    println!("{} trace records captured", records.len());
    let chart = GanttChart::new(GanttConfig {
        width: 110,
        show_markers: true,
    });
    // A 60 ms window around the second physics frame shows dispatches,
    // the cyclic handler, BFM accesses and preemption.
    println!(
        "{}",
        chart.render(&records, SimTime::from_ms(95), SimTime::from_ms(155))
    );
    // And the full startup second for the overall rhythm.
    println!(
        "{}",
        chart.render(&records, SimTime::ZERO, SimTime::from_ms(160))
    );
}
