//! Regenerates **Figure 3** — "Kernel Dynamics & SIM_API Usage": a
//! narrated event listing of the boot sequence, system ticks activating
//! the timer handler, cyclic-handler activation, wait-service sleep and
//! wakeup, and delayed dispatching — the exact flow of the paper's
//! central-module diagram.

use rtk_bench::paper_scenario;
use rtk_core::TraceKind;
use rtk_videogame::Gui;
use sysc::SimTime;

fn main() {
    let mut cosim = paper_scenario(Gui::Off);
    cosim.rtos.record_trace();
    cosim.rtos.run_until(SimTime::from_ms(120));

    println!("Kernel dynamics trace (first 120 ms of the case study)");
    println!("{}", "-".repeat(84));
    let mut shown = 0;
    for r in cosim.rtos.trace_records() {
        let line = match &r.kind {
            TraceKind::Dispatch => format!("dispatch        -> {}", r.name),
            TraceKind::Preempt => format!("preempt            {}", r.name),
            TraceKind::ResumeFromPreempt => format!("resume (Ex)     -> {}", r.name),
            TraceKind::InterruptEnter => format!("interrupt-enter    {}", r.name),
            TraceKind::ResumeFromInterrupt => format!("resume (Ei)     -> {}", r.name),
            TraceKind::Sleep => format!("sleep (Ew wait)    {}", r.name),
            TraceKind::Wakeup => format!("wakeup (Ew)        {}", r.name),
            TraceKind::Startup => format!("startup (Es)       {}", r.name),
            TraceKind::Exit => format!("exit -> DORMANT    {}", r.name),
            TraceKind::Slice { context, label } => {
                if r.duration() >= SimTime::from_us(100) {
                    format!(
                        "run {:<12} {} [{}] for {}",
                        context.label(),
                        r.name,
                        label,
                        r.duration()
                    )
                } else {
                    continue_marker()
                }
            }
        };
        if line.is_empty() {
            continue;
        }
        println!("{:>10}  {line}", r.start.to_string());
        shown += 1;
        if shown > 120 {
            println!("... (truncated)");
            break;
        }
    }
}

fn continue_marker() -> String {
    String::new()
}
