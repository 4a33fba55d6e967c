//! Regenerates **Table 1** — "RTOS Modeling APIs (partial)": the SIM_API
//! programming constructs and their realisation in this reproduction.
//!
//! The paper prints a partial listing of the simulation-library APIs
//! used by kernel simulation models; this binary prints the full
//! construct inventory with the paper-era name, the Rust entry point,
//! and the semantics.

fn main() {
    println!("Table 1: RTOS Modeling APIs (SIM_API library)");
    println!("{}", "=".repeat(100));
    println!(
        "{:<22} {:<42} semantics",
        "SIM_API construct", "this reproduction"
    );
    println!("{}", "-".repeat(100));
    let rows = [
        (
            "SIM_RegisterThread",
            "TThreadRec::new in the control block",
            "record a T-THREAD in SIM_HashTB at creation",
        ),
        (
            "SIM_StartThread",
            "Shared::start_task / handler activate",
            "fire startup event Es; first dispatch",
        ),
        (
            "SIM_Wait",
            "Shared::sim_wait",
            "consume time+energy; preemption points; Ec",
        ),
        (
            "SIM_WaitAtomic",
            "Shared::sim_wait_atomic",
            "service-call atomicity / BFM bus transaction",
        ),
        (
            "SIM_Sleep",
            "Shared::block_current",
            "park on wait object; Ew pending",
        ),
        (
            "SIM_Wakeup",
            "Shared::make_ready",
            "complete a wait; deliver Ew",
        ),
        (
            "SIM_Preempt",
            "Shared::freeze_occupant + demote",
            "freeze handshake; grant-token revocation",
        ),
        (
            "SIM_Dispatch",
            "Shared::dispatch_from_scheduler",
            "scheduler decision; grant CPU",
        ),
        (
            "SIM_DelayedDispatch",
            "Shared::after_frame_pop",
            "dispatch deferred until SIM_Stack empties",
        ),
        (
            "SIM_EnterInt",
            "Shared::mount_isr_frame",
            "push handler frame on SIM_Stack",
        ),
        (
            "SIM_ReturnInt",
            "handler wrapper epilogue",
            "pop frame; chain pendings; resume lower",
        ),
        (
            "SIM_SetScheduler",
            "Rtos::with_scheduler",
            "external scheduler plug-in (RR / priority)",
        ),
        (
            "SIM_HashTB",
            "KernelState::threads",
            "thread table updated on every state change",
        ),
        (
            "SIM_Stack",
            "KernelState::int_stack",
            "nested-interrupt context stack",
        ),
        (
            "SIM_Gantt",
            "rtk_analysis::GanttChart",
            "time GANTT chart debugging output",
        ),
        (
            "SIM_EnergyStats",
            "rtk_analysis::EnergyReport",
            "CET/CEE statistics per T-THREAD",
        ),
    ];
    for (api, rust, sem) in rows {
        println!("{api:<22} {rust:<42} {sem}");
    }
    println!("{}", "-".repeat(100));
    println!("dynamics: dispatching, delayed dispatching, service call atomicity, preemption,");
    println!("          interrupts and nested interrupt handling (paper section 4)");
}
