//! The host-speed probe: a fixed allocation-churn loop whose wall time
//! tracks how fast the shared host currently runs allocation-heavy code.
//!
//! On a shared VM the same pass can run 1.5x slower for minutes at a
//! time, when neighbours load the machine. The probe slows down with it
//! (its wall time correlates with the pass's at about 0.85, slope about
//! 1), because, like the simulator, it lives on small allocations and
//! short loops. It calls nothing in the repository, so no change there
//! moves it. Dividing a pass's wall time by the probe time measured
//! around it takes most of the host's phase out of the figure, and
//! leaves the program's own speed.

use std::hint::black_box;
use std::time::Instant;

/// Allocation rounds per probe: about 1.5 ms on a 2-vCPU x86_64 VM.
const ROUNDS: usize = 40_000;

/// The probe time the corrected timings are scaled to: a corrected
/// figure reads as the wall time on a host where one probe takes this
/// long.
pub const NOMINAL_S: f64 = 1.5e-3;

/// Wall seconds of one probe.
pub fn measure() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut live: Vec<Vec<u8>> = Vec::with_capacity(65);
    for i in 0..ROUNDS {
        live.push(vec![i as u8; 16 + (next() % 200) as usize]);
        if live.len() > 64 {
            let k = (next() % 64) as usize;
            live.swap_remove(k);
        }
    }
    black_box(&live);
    start.elapsed().as_secs_f64()
}

/// The factor that scales a wall time measured between two probes
/// reading `before` and `after` to the nominal host.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_S / ((before + after) / 2.0)
}
