//! Waveform probing (paper Fig. 4: "monitoring H/W by probing signals
//! and variables in a waveform viewer"): a sysc [`Tracer`] that captures
//! signal changes and writes an IEEE-1364 VCD dump plus an ASCII
//! waveform listing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use sysc::{SimTime, Tracer};

/// Captures every signal change seen by the sysc kernel.
#[derive(Debug, Default)]
pub struct WaveProbe {
    changes: RefCell<Vec<(SimTime, String, String)>>,
}

impl WaveProbe {
    /// Creates an empty probe. Attach with
    /// [`sysc::Simulation::set_tracer`] or `rtk_core::Rtos::set_sim_tracer`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of captured value changes.
    pub fn len(&self) -> usize {
        self.changes.borrow().len()
    }

    /// `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.changes.borrow().is_empty()
    }

    /// The captured changes `(time, signal, value)`.
    pub fn snapshot(&self) -> Vec<(SimTime, String, String)> {
        self.changes.borrow().clone()
    }

    /// Writes an IEEE-1364 VCD dump of every captured signal.
    pub fn to_vcd(&self) -> String {
        let changes = self.changes.borrow();
        // Assign short identifiers in order of first change.
        let mut ids: BTreeMap<&str, String> = BTreeMap::new();
        for (_, name, _) in changes.iter() {
            let next = vcd_id(ids.len());
            ids.entry(name.as_str()).or_insert(next);
        }
        let mut out = String::new();
        let _ = writeln!(out, "$timescale 1ps $end");
        let _ = writeln!(out, "$scope module bfm $end");
        for (name, id) in &ids {
            // Width is unknown at this layer; VCD readers accept vectors
            // declared wide enough for the textual values we emit.
            let _ = writeln!(out, "$var wire 32 {id} {name} $end");
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        let mut last_time: Option<SimTime> = None;
        for (t, name, value) in changes.iter() {
            if last_time != Some(*t) {
                let _ = writeln!(out, "#{}", t.as_ps());
                last_time = Some(*t);
            }
            let id = &ids[name.as_str()];
            if value == "0" || value == "1" {
                let _ = writeln!(out, "{value}{id}");
            } else {
                let _ = writeln!(out, "{value} {id}");
            }
        }
        out
    }

    /// Renders an ASCII waveform listing (one row per signal, value
    /// transitions marked along a time axis of `width` columns).
    pub fn render_ascii(&self, from: SimTime, to: SimTime, width: usize) -> String {
        assert!(to > from, "empty waveform window");
        let changes = self.changes.borrow();
        let span = (to - from).as_ps() as f64;
        let col_of = |t: SimTime| -> usize {
            let rel = t.saturating_sub(from).as_ps() as f64 / span;
            ((rel * width as f64) as usize).min(width - 1)
        };
        let mut per_sig: BTreeMap<&str, Vec<(usize, &str)>> = BTreeMap::new();
        for (t, name, value) in changes.iter() {
            if *t < from || *t > to {
                continue;
            }
            per_sig
                .entry(name.as_str())
                .or_default()
                .push((col_of(*t), value.as_str()));
        }
        let name_w = per_sig.keys().map(|n| n.len()).max().unwrap_or(4).max(4);
        let mut out = String::new();
        let _ = writeln!(out, "Waveform  [{from} .. {to}]");
        for (name, points) in per_sig {
            let mut row = vec!['-'; width];
            for (col, value) in &points {
                // Mark the transition and inline the value (truncated).
                row[*col] = '|';
                for (i, ch) in value.chars().take(6).enumerate() {
                    if col + 1 + i < width && row[col + 1 + i] == '-' {
                        row[col + 1 + i] = ch;
                    }
                }
            }
            let _ = writeln!(out, "{name:>name_w$} {}", row.iter().collect::<String>());
        }
        out
    }
}

/// The VCD identifier of the `n`-th signal: bijective base 94 over the
/// printable characters `!`..=`~`, least significant digit first. The
/// first 94 signals get one character (`!`, `"`, ...), the next 94²
/// two, and so on, so every signal gets its own identifier.
fn vcd_id(mut n: usize) -> String {
    let mut id = String::new();
    loop {
        id.push(char::from(b'!' + (n % 94) as u8));
        n /= 94;
        if n == 0 {
            return id;
        }
        n -= 1;
    }
}

impl Tracer for WaveProbe {
    fn signal_changed(&self, now: SimTime, name: &str, value: &str) {
        self.changes
            .borrow_mut()
            .push((now, name.to_string(), value.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcd_structure() {
        let p = WaveProbe::new();
        p.signal_changed(SimTime::from_ns(10), "clk", "1");
        p.signal_changed(SimTime::from_ns(20), "clk", "0");
        p.signal_changed(SimTime::from_ns(20), "data", "b1010");
        let vcd = p.to_vcd();
        assert!(vcd.contains("$timescale 1ps $end"));
        assert!(vcd.contains("$var wire 32 ! clk $end"));
        assert!(vcd.contains("#10000"));
        assert!(vcd.contains("#20000"));
        assert!(vcd.contains("1!"));
        assert!(vcd.contains("b1010 \""));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn identifiers_stay_distinct_and_printable_past_94_signals() {
        let p = WaveProbe::new();
        for i in 0..300 {
            p.signal_changed(SimTime::from_ns(i), &format!("s{i:03}"), "1");
        }
        let vcd = p.to_vcd();
        let ids: Vec<&str> = vcd
            .lines()
            .filter_map(|l| l.strip_prefix("$var wire 32 "))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        assert_eq!(ids.len(), 300);
        // The first 94 keep their one-character identifiers.
        assert_eq!((ids[0], ids[93], ids[94]), ("!", "~", "!!"));
        let distinct: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), 300);
        for id in &ids {
            assert!(id.bytes().all(|b| (b'!'..=b'~').contains(&b)), "{id:?}");
        }
        // Names sort in order of first change here, so the last value
        // change is the last declared identifier's.
        assert!(vcd.ends_with(&format!("#299000\n1{}\n", ids[299])));
    }

    #[test]
    fn ascii_waveform_marks_transitions() {
        let p = WaveProbe::new();
        p.signal_changed(SimTime::from_us(10), "P1", "b101");
        p.signal_changed(SimTime::from_us(50), "P1", "b110");
        let out = p.render_ascii(SimTime::ZERO, SimTime::from_us(100), 60);
        assert!(out.contains("P1"));
        assert_eq!(out.matches('|').count(), 2);
    }

    #[test]
    fn captures_via_tracer_trait() {
        let p = WaveProbe::new();
        Tracer::signal_changed(&p, SimTime::ZERO, "s", "0");
        assert!(!p.is_empty());
        assert_eq!(p.snapshot()[0].1, "s");
    }
}
