//! Regenerates **Figure 8** — "T-Kernel/DS Output Listing (sample)":
//! the debugger-support dump of tasks and kernel objects after running
//! the video-game case study.

use rtk_bench::paper_scenario;
use rtk_videogame::Gui;
use sysc::SimTime;

fn main() {
    let mut cosim = paper_scenario(Gui::Off);
    cosim.rtos.run_until(SimTime::from_ms(500));
    println!("{}", cosim.rtos.ds().dump_listing());
    let game = cosim.game();
    let s = game.state.borrow().clone();
    println!(
        "game: frames={} score={} lives={} speed={}",
        s.frames, s.score, s.lives, s.speed
    );
}
