//! One-call assembly of the complete co-simulation framework of Fig. 5:
//! RTK-Spec TRON + the 8051 BFM + the video game + the simulated player
//! + (optionally) the GUI widget manager.

use std::cell::OnceCell;
use std::rc::Rc;

use rtk_bfm::{Bfm, GuiCost, KeypadWidget, LcdWidget, SerialWidget, SsdWidget, WidgetManager};
use rtk_core::{KernelConfig, Rtos};
use sysc::SimTime;

use crate::game::{GameConfig, VideoGame};
use crate::player::{install_player, PlayerSkill};

/// GUI configuration for the co-simulation (Table 2 sweeps this).
#[derive(Debug, Clone, Copy)]
pub enum Gui {
    /// No widgets at all.
    Off,
    /// Widgets refreshed every `period` of simulated time with the given
    /// per-refresh host cost.
    On {
        /// Refresh period (the paper's BFM-access-driven refresh rate).
        period: SimTime,
        /// Host work per refresh.
        cost: GuiCost,
    },
}

/// The assembled co-simulation. Like the [`Rtos`] and [`Bfm`] it holds,
/// it stays on the thread that built it.
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<rtk_videogame::Cosim>();
/// ```
pub struct Cosim {
    /// The kernel simulation (drive with `run_until`/`run_for`/`step`).
    pub rtos: Rtos,
    /// The hardware model.
    pub bfm: Bfm,
    /// Game handles (set during boot; empty until the first run).
    game: Rc<OnceCell<VideoGame>>,
    /// The widget manager, if GUI is enabled.
    pub widgets: Option<WidgetManager>,
}

impl std::fmt::Debug for Cosim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cosim").finish_non_exhaustive()
    }
}

impl Cosim {
    /// Game handles; panics if called before the first `run_*` call
    /// (the game is created by the init task during boot).
    ///
    /// # Panics
    ///
    /// Panics if the simulation has not executed the boot sequence yet.
    pub fn game(&self) -> VideoGame {
        self.game
            .get()
            .cloned()
            .expect("run the simulation past boot before querying the game")
    }
}

/// Builds the complete co-simulation framework.
pub fn build_cosim(
    kernel_cfg: KernelConfig,
    game_cfg: GameConfig,
    skill: PlayerSkill,
    gui: Gui,
) -> Cosim {
    let game_cell = Rc::new(OnceCell::new());
    let game_for_main = Rc::clone(&game_cell);
    let (rtos, bfm) = Bfm::boot(kernel_cfg, move |sys, bfm| {
        let _ = game_for_main.set(crate::game::install(sys, bfm, game_cfg));
    });

    // The simulated player needs the game state; it polls the cell until
    // boot has populated it.
    let handle = rtos.sim_handle();
    let keypad = bfm.keypad.clone();
    let cell_for_player = Rc::clone(&game_cell);
    handle.spawn_thread(sysc::SpawnMode::Immediate, move |ctx| {
        // Wait until the game exists (one tick is plenty after boot).
        loop {
            if let Some(game) = cell_for_player.get() {
                let state = Rc::clone(&game.state);
                install_player(ctx.handle(), keypad, state, SimTime::from_ms(10), skill);
                return;
            }
            ctx.wait_time(SimTime::from_ms(1));
        }
    });

    let widgets = match gui {
        Gui::Off => None,
        Gui::On { period, cost } => {
            let mgr = WidgetManager::new(cost);
            mgr.add(Box::new(LcdWidget::new(bfm.lcd.clone())));
            mgr.add(Box::new(KeypadWidget::new(bfm.keypad.clone())));
            mgr.add(Box::new(SsdWidget::new(bfm.ssd.clone())));
            mgr.add(Box::new(SerialWidget::new(bfm.serial.clone())));
            mgr.start(&rtos.sim_handle(), period);
            Some(mgr)
        }
    };

    Cosim {
        rtos,
        bfm,
        game: game_cell,
        widgets,
    }
}
