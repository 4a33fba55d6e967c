//! A simulated player: a hardware-side process that presses keypad keys
//! so the co-simulation can "capture user events" deterministically.

use std::cell::RefCell;
use std::rc::Rc;

use rtk_bfm::Keypad;
use sysc::{SimHandle, SimTime, SpawnMode};

use crate::game::{keys, GameState};

/// Strategy of the simulated player.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayerSkill {
    /// Chases the ball (catches almost everything).
    Perfect,
    /// Presses pseudo-random keys from a seed.
    Random(u64),
    /// Never touches the keypad.
    Absent,
}

/// Installs the player as a sysc process that acts every `period`.
/// Returns nothing: the player lives until the simulation ends.
pub fn install_player(
    handle: &SimHandle,
    keypad: Keypad,
    state: Rc<RefCell<GameState>>,
    period: SimTime,
    skill: PlayerSkill,
) {
    handle.spawn_thread(SpawnMode::Immediate, move |ctx| {
        let mut rng = match skill {
            PlayerSkill::Random(seed) => seed | 1,
            _ => 0x9e3779b97f4a7c15,
        };
        loop {
            ctx.wait_time(period);
            match skill {
                PlayerSkill::Absent => {}
                PlayerSkill::Perfect => {
                    let (ball, paddle, over) = {
                        let s = state.borrow();
                        (s.ball_col, s.paddle_col, s.game_over)
                    };
                    if over {
                        return;
                    }
                    if ball < paddle {
                        keypad.press(keys::LEFT);
                    } else if ball > paddle {
                        keypad.press(keys::RIGHT);
                    }
                }
                PlayerSkill::Random(_) => {
                    // xorshift*
                    rng ^= rng >> 12;
                    rng ^= rng << 25;
                    rng ^= rng >> 27;
                    let v = rng.wrapping_mul(0x2545F4914F6CDD1D);
                    if v & 1 == 0 {
                        keypad.press(keys::LEFT);
                    } else {
                        keypad.press(keys::RIGHT);
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skill_variants_are_comparable() {
        assert_eq!(PlayerSkill::Perfect, PlayerSkill::Perfect);
        assert_ne!(PlayerSkill::Random(1), PlayerSkill::Random(2));
        assert_ne!(PlayerSkill::Absent, PlayerSkill::Perfect);
    }
}
