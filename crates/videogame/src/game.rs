//! The game logic and its mapping onto kernel objects.
//!
//! A paddle-and-ball game on the 16×2 LCD: the ball bounces across the
//! top row; every few frames it dips to the paddle row, and the player
//! must have the paddle under it. The score shows on the seven-segment
//! display; key presses come in through the keypad interrupt; an alarm
//! handler speeds the game up over time.
//!
//! Kernel object usage (every T-Kernel primitive family is exercised):
//!
//! | object            | role |
//! |-------------------|------|
//! | event flag        | H1 → T1: "frame ready to render" |
//! | semaphore         | H1 → T3: score-changed ticket |
//! | mailbox           | keypad ISR → T2: key events |
//! | message buffer    | T1 → T4: serial log lines |
//! | mutex (inherit)   | T1/T2/T3: game-state critical sections |
//! | fixed memory pool | T1: frame staging buffers (written to XRAM) |
//! | cyclic handler H1 | physics frame tick |
//! | alarm handler H2  | speed-up game event |

use std::cell::{OnceCell, RefCell};
use std::rc::Rc;

use rtk_bfm::{Bfm, IntSource, LCD_COLS};
use rtk_core::{
    AlmId, CycId, FlagWaitMode, FlgId, MbfId, MbxId, MpfId, MsgPacket, MtxId, MtxPolicy,
    QueueOrder, SemId, Sys, TaskId, Timeout,
};
use sysc::SimTime;

/// Pure game state (mutated by the cyclic handler, read by tasks under
/// the kernel mutex).
#[derive(Debug, Clone)]
pub struct GameState {
    /// Ball column (0..16).
    pub ball_col: usize,
    /// Ball direction (+1/-1).
    pub ball_dir: i32,
    /// `true` when the ball is on the paddle row this frame.
    pub ball_low: bool,
    /// Paddle column (0..16).
    pub paddle_col: usize,
    /// Current score.
    pub score: u16,
    /// Remaining lives.
    pub lives: u8,
    /// Frames simulated.
    pub frames: u64,
    /// Game speed level (1..): frames per ball dip.
    pub speed: u8,
    /// Set when the game has ended.
    pub game_over: bool,
}

impl Default for GameState {
    fn default() -> Self {
        GameState {
            ball_col: 3,
            ball_dir: 1,
            ball_low: false,
            paddle_col: LCD_COLS / 2,
            score: 0,
            lives: 3,
            frames: 0,
            speed: 1,
            game_over: false,
        }
    }
}

impl GameState {
    /// Advances one physics frame; returns `true` if the score changed.
    pub fn step(&mut self) -> bool {
        if self.game_over {
            return false;
        }
        self.frames += 1;
        // Every 4th frame the ball dips straight down to the paddle row
        // (no horizontal motion on dip frames, so a tracking player has
        // a fair chance); otherwise it moves horizontally with wall
        // bounces, `speed` cells per frame.
        self.ball_low = self.frames.is_multiple_of(4);
        if self.ball_low {
            let caught = self.paddle_col.abs_diff(self.ball_col) <= 1;
            if caught {
                self.score = self.score.saturating_add(1);
                return true;
            }
            self.lives = self.lives.saturating_sub(1);
            if self.lives == 0 {
                self.game_over = true;
            }
            return true;
        }
        let next = self.ball_col as i32 + self.ball_dir * self.speed as i32;
        if next <= 0 {
            self.ball_col = 0;
            self.ball_dir = 1;
        } else if next >= LCD_COLS as i32 - 1 {
            self.ball_col = LCD_COLS - 1;
            self.ball_dir = -1;
        } else {
            self.ball_col = next as usize;
        }
        false
    }

    /// Moves the paddle one cell (`-1` left, `+1` right).
    pub fn move_paddle(&mut self, dir: i32) {
        let next = self.paddle_col as i32 + dir;
        self.paddle_col = next.clamp(0, LCD_COLS as i32 - 1) as usize;
    }

    /// Renders the two LCD lines.
    pub fn render(&self) -> (String, String) {
        if self.game_over {
            return (
                format!("GAME OVER  {:>4}", self.score),
                "press any key".to_string(),
            );
        }
        let top: String = (0..LCD_COLS)
            .map(|c| {
                if !self.ball_low && c == self.ball_col {
                    'o'
                } else {
                    ' '
                }
            })
            .collect();
        let bottom: String = (0..LCD_COLS)
            .map(|c| {
                if self.ball_low && c == self.ball_col {
                    'o'
                } else if self.paddle_col.abs_diff(c) <= 1 {
                    '='
                } else {
                    ' '
                }
            })
            .collect();
        (top, bottom)
    }
}

/// Keypad scan codes used by the game.
pub mod keys {
    /// Move paddle left.
    pub const LEFT: u8 = 4;
    /// Move paddle right.
    pub const RIGHT: u8 = 6;
}

/// Game timing/configuration.
#[derive(Debug, Clone, Copy)]
pub struct GameConfig {
    /// Physics frame period (cyclic handler H1).
    pub frame_period: SimTime,
    /// When the speed-up alarm (H2) first fires.
    pub speedup_after: SimTime,
    /// Serial log line every N frames (through the message buffer).
    pub log_every_frames: u64,
}

impl Default for GameConfig {
    fn default() -> Self {
        GameConfig {
            frame_period: SimTime::from_ms(50),
            speedup_after: SimTime::from_ms(400),
            log_every_frames: 8,
        }
    }
}

/// Handles to everything the game created (for DS inspection and
/// assertions).
#[derive(Debug, Clone)]
pub struct VideoGame {
    /// Shared game state.
    pub state: Rc<RefCell<GameState>>,
    /// T1: LCD render task.
    pub t_lcd: TaskId,
    /// T2: keypad input task.
    pub t_keypad: TaskId,
    /// T3: SSD score task.
    pub t_ssd: TaskId,
    /// T4: idle/background task.
    pub t_idle: TaskId,
    /// H1: physics cyclic handler.
    pub h_cyclic: CycId,
    /// H2: speed-up alarm handler.
    pub h_alarm: AlmId,
    /// Frame-ready event flag.
    pub frame_flg: FlgId,
    /// Score-change semaphore.
    pub score_sem: SemId,
    /// Key-event mailbox.
    pub key_mbx: MbxId,
    /// Serial-log message buffer.
    pub log_mbf: MbfId,
    /// Game-state mutex.
    pub state_mtx: MtxId,
    /// Frame staging pool.
    pub frame_mpf: MpfId,
}

/// Frame-ready bit in the event flag.
const FRAME_BIT: u32 = 0b1;

/// Creates all kernel objects, tasks and handlers of the case study and
/// starts them. Call from the user main entry.
///
/// # Panics
///
/// Panics if object creation fails (only possible on misconfiguration).
pub fn install(sys: &mut Sys<'_>, bfm: &Bfm, cfg: GameConfig) -> VideoGame {
    let state = Rc::new(RefCell::new(GameState::default()));

    // Kernel objects.
    let frame_flg = sys.tk_cre_flg("frame", 0, false, QueueOrder::Fifo).unwrap();
    let score_sem = sys.tk_cre_sem("score", 0, 1000, QueueOrder::Fifo).unwrap();
    let key_mbx = sys.tk_cre_mbx("keys", false, QueueOrder::Fifo).unwrap();
    let log_mbf = sys.tk_cre_mbf("log", 256, 64, QueueOrder::Fifo).unwrap();
    let state_mtx = sys.tk_cre_mtx("state", MtxPolicy::Inherit).unwrap();
    let frame_mpf = sys
        .tk_cre_mpf("frames", 4, LCD_COLS * 2, QueueOrder::Fifo)
        .unwrap();

    // Enable the interrupt sources the game uses.
    bfm.intc.set_global_enable(true);
    bfm.intc.set_enabled(IntSource::Ext1, true);
    bfm.intc.set_high_priority(IntSource::Ext1, true);
    bfm.intc.set_enabled(IntSource::Serial, true);

    // Keypad ISR: scan the matrix and post the key to T2's mailbox.
    let kp = bfm.keypad.clone();
    sys.tk_def_int(IntSource::Ext1.vector(), 1, "keypad_isr", move |sys| {
        if let Some(key) = kp.scan(sys) {
            let _ = sys.tk_snd_mbx(key_mbx, MsgPacket::new(vec![key]));
        }
    })
    .unwrap();

    // Serial ISR: acknowledge TI (keeps the serial interrupt exercised).
    let ser = bfm.serial.clone();
    sys.tk_def_int(IntSource::Serial.vector(), 0, "serial_isr", move |sys| {
        let _ = ser.take_ti(sys);
    })
    .unwrap();

    // T1 — LCD task: waits for the frame flag, renders under the state
    // mutex, stages the frame in a pool block + XRAM, drives the LCD,
    // and queues periodic log lines into the message buffer.
    let lcd = bfm.lcd.clone();
    let mem = bfm.mem.clone();
    let st1 = Rc::clone(&state);
    let t_lcd = sys
        .tk_cre_tsk("lcd", 10, move |sys, _| loop {
            if sys
                .tk_wai_flg(
                    frame_flg,
                    FRAME_BIT,
                    FlagWaitMode::OR.with_clear(),
                    Timeout::Forever,
                )
                .is_err()
            {
                return;
            }
            sys.tk_loc_mtx(state_mtx, Timeout::Forever).unwrap();
            let (top, bottom, frames, score, over) = {
                let s = st1.borrow();
                let (t, b) = s.render();
                (t, b, s.frames, s.score, s.game_over)
            };
            sys.tk_unl_mtx(state_mtx).unwrap();
            // Stage the frame through the fixed pool into XRAM (models a
            // DMA-style frame buffer hand-off).
            if let Ok(blk) = sys.tk_get_mpf(frame_mpf, Timeout::Poll) {
                let addr = (blk * LCD_COLS * 2) as u16;
                mem.write_xram_block(sys, addr, top.as_bytes());
                mem.write_xram_block(sys, addr + LCD_COLS as u16, bottom.as_bytes());
                sys.tk_rel_mpf(frame_mpf, blk).unwrap();
            }
            lcd.write_line(sys, 0, &top);
            lcd.write_line(sys, 1, &bottom);
            if frames % 8 == 0 {
                let line = format!("F{frames} S{score}\n");
                let _ = sys.tk_snd_mbf(log_mbf, line.as_bytes(), Timeout::Poll);
            }
            if over {
                return;
            }
        })
        .unwrap();

    // T2 — keypad task: consumes key events and moves the paddle.
    let st2 = Rc::clone(&state);
    let t_keypad = sys
        .tk_cre_tsk("keypad", 8, move |sys, _| loop {
            let Ok(msg) = sys.tk_rcv_mbx(key_mbx, Timeout::Forever) else {
                return;
            };
            let key = msg.data.first().copied().unwrap_or(0);
            sys.tk_loc_mtx(state_mtx, Timeout::Forever).unwrap();
            {
                let mut s = st2.borrow_mut();
                match key {
                    keys::LEFT => s.move_paddle(-1),
                    keys::RIGHT => s.move_paddle(1),
                    _ => {}
                }
            }
            sys.tk_unl_mtx(state_mtx).unwrap();
            // Input debounce / processing cost.
            sys.exec(SimTime::from_us(200));
        })
        .unwrap();

    // T3 — SSD task: one semaphore ticket per score change.
    let ssd = bfm.ssd.clone();
    let st3 = Rc::clone(&state);
    let t_ssd = sys
        .tk_cre_tsk("ssd", 12, move |sys, _| loop {
            if sys.tk_wai_sem(score_sem, 1, Timeout::Forever).is_err() {
                return;
            }
            sys.tk_loc_mtx(state_mtx, Timeout::Forever).unwrap();
            let score = st3.borrow().score;
            sys.tk_unl_mtx(state_mtx).unwrap();
            ssd.show_number(sys, score);
        })
        .unwrap();

    // T4 — idle task: lowest priority; drains the log buffer to the
    // serial port in the background.
    let ser = bfm.serial.clone();
    let t_idle = sys
        .tk_cre_tsk("idle", 139, move |sys, _| loop {
            match sys.tk_rcv_mbf(log_mbf, Timeout::Poll) {
                Ok(line) => {
                    for b in line {
                        ser.send(sys, b);
                    }
                }
                Err(_) => {
                    // Idle spin (models the 8051 idle loop).
                    sys.exec(SimTime::from_ms(1));
                }
            }
        })
        .unwrap();

    // H1 — cyclic physics handler.
    let st_h1 = Rc::clone(&state);
    let h_cyclic = sys
        .tk_cre_cyc(
            "physics",
            cfg.frame_period,
            SimTime::ZERO,
            true,
            move |sys| {
                let score_changed = {
                    let mut s = st_h1.borrow_mut();
                    s.step()
                };
                let _ = sys.tk_set_flg(frame_flg, FRAME_BIT);
                if score_changed {
                    let _ = sys.tk_sig_sem(score_sem, 1);
                }
            },
        )
        .unwrap();

    // H2 — speed-up alarm: raises the speed and re-arms itself. The
    // handler closure is created before the alarm ID exists, so the ID
    // travels through a shared cell.
    let st_h2 = Rc::clone(&state);
    let alarm_cell: Rc<OnceCell<AlmId>> = Rc::new(OnceCell::new());
    let alarm_cell2 = Rc::clone(&alarm_cell);
    let h_alarm = sys
        .tk_cre_alm("speedup", move |sys| {
            {
                let mut s = st_h2.borrow_mut();
                if s.speed < 3 {
                    s.speed += 1;
                }
            }
            if let Some(&me) = alarm_cell2.get() {
                let _ = sys.tk_sta_alm(me, SimTime::from_ms(400));
            }
        })
        .unwrap();
    let _ = alarm_cell.set(h_alarm);
    sys.tk_sta_alm(h_alarm, cfg.speedup_after).unwrap();

    sys.tk_sta_tsk(t_lcd, 0).unwrap();
    sys.tk_sta_tsk(t_keypad, 0).unwrap();
    sys.tk_sta_tsk(t_ssd, 0).unwrap();
    sys.tk_sta_tsk(t_idle, 0).unwrap();

    VideoGame {
        state,
        t_lcd,
        t_keypad,
        t_ssd,
        t_idle,
        h_cyclic,
        h_alarm,
        frame_flg,
        score_sem,
        key_mbx,
        log_mbf,
        state_mtx,
        frame_mpf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physics_bounces_and_scores() {
        let mut s = GameState::default();
        s.paddle_col = s.ball_col; // keep paddle near the ball
        let mut score_events = 0;
        for _ in 0..16 {
            s.paddle_col = s.ball_col.min(LCD_COLS - 1);
            if s.step() {
                score_events += 1;
            }
        }
        assert!(score_events >= 3); // every 4th frame dips
        assert!(s.score > 0);
        assert!(!s.game_over);
    }

    #[test]
    fn missing_the_ball_costs_lives() {
        let mut s = GameState {
            paddle_col: 0,
            ball_col: 10,
            ball_dir: 1,
            ..Default::default()
        };
        let mut steps = 0;
        while !s.game_over && steps < 100 {
            s.step();
            // Keep the paddle far away.
            s.paddle_col = if s.ball_col < 8 { 15 } else { 0 };
            steps += 1;
        }
        assert!(s.game_over);
        assert_eq!(s.lives, 0);
    }

    #[test]
    fn render_shows_ball_and_paddle() {
        let s = GameState::default();
        let (top, bottom) = s.render();
        assert_eq!(top.len(), LCD_COLS);
        assert_eq!(bottom.len(), LCD_COLS);
        assert!(top.contains('o'));
        assert!(bottom.contains('='));
    }

    #[test]
    fn paddle_clamps_to_display() {
        let mut s = GameState::default();
        for _ in 0..40 {
            s.move_paddle(-1);
        }
        assert_eq!(s.paddle_col, 0);
        for _ in 0..40 {
            s.move_paddle(1);
        }
        assert_eq!(s.paddle_col, LCD_COLS - 1);
    }

    #[test]
    fn game_over_renders_score() {
        let s = GameState {
            game_over: true,
            score: 42,
            ..Default::default()
        };
        let (top, _) = s.render();
        assert!(top.contains("GAME OVER"));
        assert!(top.contains("42"));
    }
}
