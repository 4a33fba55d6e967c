//! Byte-for-byte goldens of the paper-figure binaries.
//!
//! Every figure is fully deterministic (simulated time only), so its
//! stdout is pinned against `tests/goldens/<bin>.txt`. A change that
//! alters a figure must regenerate the golden on purpose:
//!
//! ```sh
//! cargo run --release -p rtk-bench --bin fig6_gantt 2>/dev/null \
//!     > crates/bench/tests/goldens/fig6_gantt.txt
//! ```

use std::path::Path;
use std::process::Command;

fn assert_matches_golden(name: &str, exe: &str) {
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {name}: {e}"));
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.txt"));
    let want =
        std::fs::read(&golden).unwrap_or_else(|e| panic!("cannot read {}: {e}", golden.display()));
    if out.stdout != want {
        let got = String::from_utf8_lossy(&out.stdout);
        let want = String::from_utf8_lossy(&want);
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{name} stdout differs from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            golden.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line),
        );
    }
}

#[test]
fn fig2_tthread_matches_golden() {
    assert_matches_golden("fig2_tthread", env!("CARGO_BIN_EXE_fig2_tthread"));
}

#[test]
fn fig3_dynamics_matches_golden() {
    assert_matches_golden("fig3_dynamics", env!("CARGO_BIN_EXE_fig3_dynamics"));
}

#[test]
fn fig4_waveform_matches_golden() {
    assert_matches_golden("fig4_waveform", env!("CARGO_BIN_EXE_fig4_waveform"));
}

#[test]
fn fig6_gantt_matches_golden() {
    assert_matches_golden("fig6_gantt", env!("CARGO_BIN_EXE_fig6_gantt"));
}

#[test]
fn fig7_energy_matches_golden() {
    assert_matches_golden("fig7_energy", env!("CARGO_BIN_EXE_fig7_energy"));
}

#[test]
fn fig8_ds_listing_matches_golden() {
    assert_matches_golden("fig8_ds_listing", env!("CARGO_BIN_EXE_fig8_ds_listing"));
}
