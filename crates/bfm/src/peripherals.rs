//! External peripherals behind the multiplexed parallel interface:
//! a character LCD, a 4×4 matrix keypad, and a 4-digit seven-segment
//! display — the devices of the paper's video-game case study (§5).

use std::cell::RefCell;
use std::rc::Rc;

use rtk_core::Sys;

use crate::intc::{IntController, IntSource};
use crate::timing::{cycles, BusTiming};

// ---------------------------------------------------------------------
// LCD
// ---------------------------------------------------------------------

/// LCD geometry: a 16×2 character display (HD44780-class).
pub const LCD_COLS: usize = 16;
/// Number of LCD rows.
pub const LCD_ROWS: usize = 2;

struct LcdInner {
    fb: [[u8; LCD_COLS]; LCD_ROWS],
    cursor: (usize, usize),
    display_on: bool,
    writes: u64,
}

/// The character LCD; cloneable handle.
#[derive(Clone)]
pub struct Lcd {
    inner: Rc<RefCell<LcdInner>>,
    timing: BusTiming,
}

impl std::fmt::Debug for Lcd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lcd").finish_non_exhaustive()
    }
}

impl Lcd {
    /// Creates a cleared LCD.
    pub fn new(timing: BusTiming) -> Self {
        Lcd {
            inner: Rc::new(RefCell::new(LcdInner {
                fb: [[b' '; LCD_COLS]; LCD_ROWS],
                cursor: (0, 0),
                display_on: true,
                writes: 0,
            })),
            timing,
        }
    }

    /// Clear-display command (long device busy time: ~1.5 ms).
    pub fn clear(&self, sys: &mut Sys<'_>) {
        sys.bfm_access("lcd.clear", self.timing.access(cycles::LCD_CLEAR));
        let mut inner = self.inner.borrow_mut();
        inner.fb = [[b' '; LCD_COLS]; LCD_ROWS];
        inner.cursor = (0, 0);
        inner.writes += 1;
    }

    /// Set-cursor command.
    pub fn set_cursor(&self, sys: &mut Sys<'_>, row: usize, col: usize) {
        sys.bfm_access("lcd.cmd", self.timing.access(cycles::LCD_CMD));
        let mut inner = self.inner.borrow_mut();
        inner.cursor = (row.min(LCD_ROWS - 1), col.min(LCD_COLS - 1));
        inner.writes += 1;
    }

    /// Display on/off command.
    pub fn set_display(&self, sys: &mut Sys<'_>, on: bool) {
        sys.bfm_access("lcd.cmd", self.timing.access(cycles::LCD_CMD));
        let mut inner = self.inner.borrow_mut();
        inner.display_on = on;
        inner.writes += 1;
    }

    /// Writes one character at the cursor and advances it.
    pub fn write_char(&self, sys: &mut Sys<'_>, ch: u8) {
        sys.bfm_access("lcd.data", self.timing.access(cycles::LCD_DATA));
        let mut inner = self.inner.borrow_mut();
        let (r, c) = inner.cursor;
        inner.fb[r][c] = ch;
        inner.cursor = if c + 1 < LCD_COLS { (r, c + 1) } else { (r, c) };
        inner.writes += 1;
    }

    /// Writes a string from the cursor (one timed data write per char).
    pub fn write_str(&self, sys: &mut Sys<'_>, s: &str) {
        for b in s.bytes() {
            self.write_char(sys, b);
        }
    }

    /// Writes a whole line (cursor command + padded data writes).
    pub fn write_line(&self, sys: &mut Sys<'_>, row: usize, s: &str) {
        self.set_cursor(sys, row, 0);
        let mut bytes: Vec<u8> = s.bytes().take(LCD_COLS).collect();
        bytes.resize(LCD_COLS, b' ');
        for b in bytes {
            self.write_char(sys, b);
        }
    }

    /// Host-side: framebuffer snapshot as rows of text. One glyph per
    /// byte, as on a real character LCD: printable ASCII is shown as-is,
    /// anything else as `?` (the controller's undefined-glyph box).
    pub fn snapshot(&self) -> Vec<String> {
        let inner = self.inner.borrow();
        inner
            .fb
            .iter()
            .map(|row| {
                row.iter()
                    .map(|b| {
                        if b.is_ascii_graphic() || *b == b' ' {
                            *b as char
                        } else {
                            '?'
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Host-side: whether the display is on.
    pub fn is_on(&self) -> bool {
        self.inner.borrow().display_on
    }

    /// Host-side: number of controller writes so far.
    pub fn write_count(&self) -> u64 {
        self.inner.borrow().writes
    }
}

// ---------------------------------------------------------------------
// Keypad
// ---------------------------------------------------------------------

struct KeypadInner {
    /// Pressed-key latch (scan code 0..16).
    latch: Option<u8>,
    presses: u64,
}

/// A 4×4 matrix keypad raising `INT1` on key press; cloneable handle.
#[derive(Clone)]
pub struct Keypad {
    inner: Rc<RefCell<KeypadInner>>,
    intc: IntController,
    timing: BusTiming,
}

impl std::fmt::Debug for Keypad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keypad").finish_non_exhaustive()
    }
}

impl Keypad {
    /// Creates an idle keypad wired to the interrupt controller.
    pub fn new(intc: IntController, timing: BusTiming) -> Self {
        Keypad {
            inner: Rc::new(RefCell::new(KeypadInner {
                latch: None,
                presses: 0,
            })),
            intc,
            timing,
        }
    }

    /// Host-side: presses a key (scan code 0..16): latches the code and
    /// raises the external interrupt.
    ///
    /// # Panics
    ///
    /// Panics if `key >= 16`.
    pub fn press(&self, key: u8) {
        assert!(key < 16, "4x4 keypad scan codes are 0..16");
        {
            let mut inner = self.inner.borrow_mut();
            inner.latch = Some(key);
            inner.presses += 1;
        }
        self.intc.raise(IntSource::Ext1);
    }

    /// Task-side: scans the matrix (drive rows, read columns — 4 machine
    /// cycles) returning and clearing the latched key.
    pub fn scan(&self, sys: &mut Sys<'_>) -> Option<u8> {
        sys.bfm_access("keypad.scan", self.timing.access(cycles::KEYPAD_SCAN));
        self.inner.borrow_mut().latch.take()
    }

    /// Host-side: total key presses injected.
    pub fn press_count(&self) -> u64 {
        self.inner.borrow().presses
    }
}

// ---------------------------------------------------------------------
// Seven-segment display
// ---------------------------------------------------------------------

/// Number of SSD digits.
pub const SSD_DIGITS: usize = 4;

struct SsdInner {
    digits: [u8; SSD_DIGITS],
    writes: u64,
}

/// A 4-digit seven-segment display; cloneable handle.
#[derive(Clone)]
pub struct Ssd {
    inner: Rc<RefCell<SsdInner>>,
    timing: BusTiming,
}

impl std::fmt::Debug for Ssd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ssd").finish_non_exhaustive()
    }
}

impl Ssd {
    /// Creates a blank (all zeros) display.
    pub fn new(timing: BusTiming) -> Self {
        Ssd {
            inner: Rc::new(RefCell::new(SsdInner {
                digits: [0; SSD_DIGITS],
                writes: 0,
            })),
            timing,
        }
    }

    /// Task-side: latches one digit (0..=15, hex digits supported).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 4` or `value >= 16`.
    pub fn write_digit(&self, sys: &mut Sys<'_>, pos: usize, value: u8) {
        assert!(pos < SSD_DIGITS && value < 16);
        sys.bfm_access("ssd.wr", self.timing.access(cycles::SSD_WRITE));
        let mut inner = self.inner.borrow_mut();
        inner.digits[pos] = value;
        inner.writes += 1;
    }

    /// Task-side: shows a decimal number (4 digit writes).
    pub fn show_number(&self, sys: &mut Sys<'_>, mut n: u16) {
        n %= 10_000;
        for pos in (0..SSD_DIGITS).rev() {
            self.write_digit(sys, pos, (n % 10) as u8);
            n /= 10;
        }
    }

    /// Host-side: digit values.
    pub fn digits(&self) -> [u8; SSD_DIGITS] {
        self.inner.borrow().digits
    }

    /// Host-side: the displayed value as a decimal number.
    pub fn value(&self) -> u16 {
        let d = self.digits();
        d.iter().fold(0u16, |acc, &x| acc * 10 + x as u16)
    }

    /// Host-side: number of latch writes.
    pub fn write_count(&self) -> u64 {
        self.inner.borrow().writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcd_snapshot_starts_blank() {
        let lcd = Lcd::new(BusTiming::default());
        let snap = lcd.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0], " ".repeat(16));
        assert!(lcd.is_on());
    }

    #[test]
    fn ssd_value_digits() {
        let ssd = Ssd::new(BusTiming::default());
        assert_eq!(ssd.value(), 0);
        assert_eq!(ssd.digits(), [0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "scan codes")]
    fn keypad_rejects_bad_code() {
        let kp = Keypad::new(IntController::new(), BusTiming::default());
        kp.press(16);
    }
}
