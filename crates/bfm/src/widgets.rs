//! Headless GUI widgets wrapping the peripherals — "the look & feel of a
//! virtual system prototype" (paper §5) without a display server.
//!
//! Each widget renders its device into an offscreen text frame. The
//! [`WidgetManager`] refreshes all registered widgets on a period (the
//! paper's "BFM access rate driving the GUI widgets") and burns a
//! configurable amount of *host* work per refresh, so the Table 2
//! co-simulation-speed experiment can measure GUI overhead exactly as
//! the paper did.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sysc::{SimHandle, SimTime};

use crate::peripherals::{Keypad, Lcd, Ssd, SSD_DIGITS};
use crate::serial::Serial;

/// Something that can render itself into a text frame.
pub trait Widget {
    /// Widget name (frame title).
    fn name(&self) -> &str;
    /// Renders the current device state.
    fn render(&self) -> String;
}

/// Renders the LCD framebuffer in a box.
#[derive(Debug, Clone)]
pub struct LcdWidget {
    lcd: Lcd,
}

impl LcdWidget {
    /// Wraps an LCD.
    pub fn new(lcd: Lcd) -> Self {
        LcdWidget { lcd }
    }
}

impl Widget for LcdWidget {
    fn name(&self) -> &str {
        "LCD"
    }

    fn render(&self) -> String {
        let rows = self.lcd.snapshot();
        let mut out = String::new();
        out.push('+');
        out.push_str(&"-".repeat(rows[0].len()));
        out.push_str("+\n");
        for row in rows {
            out.push('|');
            out.push_str(&row);
            out.push_str("|\n");
        }
        out.push('+');
        out.push_str(&"-".repeat(16));
        out.push_str("+\n");
        out
    }
}

/// Renders the last pressed key.
#[derive(Debug, Clone)]
pub struct KeypadWidget {
    keypad: Keypad,
}

impl KeypadWidget {
    /// Wraps a keypad.
    pub fn new(keypad: Keypad) -> Self {
        KeypadWidget { keypad }
    }
}

impl Widget for KeypadWidget {
    fn name(&self) -> &str {
        "Keypad"
    }

    fn render(&self) -> String {
        format!("[keypad: {} presses]\n", self.keypad.press_count())
    }
}

const SEG_ROWS: [[&str; 10]; 3] = [
    [
        " _ ", "   ", " _ ", " _ ", "   ", " _ ", " _ ", " _ ", " _ ", " _ ",
    ],
    [
        "| |", "  |", " _|", " _|", "|_|", "|_ ", "|_ ", "  |", "|_|", "|_|",
    ],
    [
        "|_|", "  |", "|_ ", " _|", "  |", " _|", "|_|", "  |", "|_|", " _|",
    ],
];

/// Renders the seven-segment display as ASCII segments.
#[derive(Debug, Clone)]
pub struct SsdWidget {
    ssd: Ssd,
}

impl SsdWidget {
    /// Wraps an SSD.
    pub fn new(ssd: Ssd) -> Self {
        SsdWidget { ssd }
    }
}

impl Widget for SsdWidget {
    fn name(&self) -> &str {
        "SSD"
    }

    fn render(&self) -> String {
        let digits = self.ssd.digits();
        let mut out = String::new();
        for row in &SEG_ROWS {
            for d in digits.iter().take(SSD_DIGITS) {
                out.push_str(row[(*d % 10) as usize]);
                out.push(' ');
            }
            out.push('\n');
        }
        out
    }
}

/// Renders the serial TX log tail (a terminal widget).
#[derive(Debug, Clone)]
pub struct SerialWidget {
    serial: Serial,
}

impl SerialWidget {
    /// Wraps the serial port.
    pub fn new(serial: Serial) -> Self {
        SerialWidget { serial }
    }
}

impl Widget for SerialWidget {
    fn name(&self) -> &str {
        "Serial"
    }

    fn render(&self) -> String {
        let s = self.serial.tx_string();
        let tail: String = s
            .chars()
            .rev()
            .take(64)
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        format!("serial> {tail}\n")
    }
}

/// GUI overhead configuration: how much host work each refresh costs
/// (emulating the paper's Qt callback + draw overhead).
#[derive(Debug, Clone, Copy)]
pub struct GuiCost {
    /// Iterations of synthetic work per widget refresh.
    pub work_per_refresh: u64,
}

impl GuiCost {
    /// No extra work beyond rendering the text frames.
    pub const LIGHT: GuiCost = GuiCost {
        work_per_refresh: 0,
    };
    /// Heavy GUI emulation (paper-era toolkit cost: enough host work
    /// per refresh that a 10 ms refresh rate roughly halves
    /// co-simulation speed, as in the paper's Table 2).
    pub const HEAVY: GuiCost = GuiCost {
        work_per_refresh: 1_500_000,
    };
}

struct ManagerInner {
    widgets: Vec<Box<dyn Widget>>,
    last_frames: Vec<(String, String)>,
}

/// Periodically refreshes registered widgets, burning configurable host
/// time (Table 2's GUI overhead).
#[derive(Clone)]
pub struct WidgetManager {
    inner: Rc<RefCell<ManagerInner>>,
    frames: Rc<Cell<u64>>,
    cost: GuiCost,
}

impl std::fmt::Debug for WidgetManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WidgetManager")
            .field("frames", &self.frames.get())
            .finish_non_exhaustive()
    }
}

impl WidgetManager {
    /// Creates an empty manager.
    pub fn new(cost: GuiCost) -> Self {
        WidgetManager {
            inner: Rc::new(RefCell::new(ManagerInner {
                widgets: Vec::new(),
                last_frames: Vec::new(),
            })),
            frames: Rc::new(Cell::new(0)),
            cost,
        }
    }

    /// Registers a widget.
    pub fn add(&self, w: Box<dyn Widget>) {
        self.inner.borrow_mut().widgets.push(w);
    }

    /// Starts periodic refreshing driven by the simulation clock
    /// (animate mode). Every `period` of *simulated* time, all widgets
    /// render once on the host.
    pub fn start(&self, handle: &SimHandle, period: SimTime) {
        let ev = handle.create_event();
        handle.make_periodic(ev, period, period);
        let mgr = self.clone();
        handle.spawn_method(&[ev], move || mgr.refresh());
    }

    /// Renders all widgets once (step mode does this explicitly).
    pub fn refresh(&self) {
        let mut inner = self.inner.borrow_mut();
        let mut frames = Vec::with_capacity(inner.widgets.len());
        for w in &inner.widgets {
            let frame = w.render();
            // Synthetic toolkit overhead (layout, damage regions, blits).
            let mut acc: u64 = 0xdead_beef;
            for i in 0..self.cost.work_per_refresh {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            frames.push((w.name().to_string(), frame));
        }
        inner.last_frames = frames;
        self.frames.set(self.frames.get() + 1);
    }

    /// Number of refreshes performed.
    pub fn frame_count(&self) -> u64 {
        self.frames.get()
    }

    /// The most recent frames, concatenated (what a screen would show).
    pub fn screen(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::new();
        for (name, frame) in &inner.last_frames {
            out.push_str(&format!("== {name} ==\n{frame}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::BusTiming;

    #[test]
    fn ssd_widget_renders_digits() {
        let ssd = Ssd::new(BusTiming::default());
        let w = SsdWidget::new(ssd);
        let frame = w.render();
        assert_eq!(frame.lines().count(), 3);
        assert!(frame.contains("|_|")); // zeros
    }

    #[test]
    fn lcd_widget_has_border() {
        let lcd = Lcd::new(BusTiming::default());
        let frame = LcdWidget::new(lcd).render();
        assert!(frame.starts_with('+'));
        assert_eq!(frame.lines().count(), 4);
    }

    #[test]
    fn manager_renders_and_counts() {
        let mgr = WidgetManager::new(GuiCost::LIGHT);
        mgr.add(Box::new(LcdWidget::new(Lcd::new(BusTiming::default()))));
        mgr.add(Box::new(SsdWidget::new(Ssd::new(BusTiming::default()))));
        mgr.refresh();
        mgr.refresh();
        assert_eq!(mgr.frame_count(), 2);
        let screen = mgr.screen();
        assert!(screen.contains("== LCD =="));
        assert!(screen.contains("== SSD =="));
    }
}
