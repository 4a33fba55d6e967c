//! The `rtk-farm` binary's exit codes, where `parse_args` alone cannot
//! decide them.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn replay_of_a_directory_without_traces_is_a_usage_error() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_empty_replay");
    let _ = std::fs::remove_dir_all(&dir);
    let traces = dir.join("traces");
    std::fs::create_dir_all(&traces).unwrap();
    let report = dir.join("REPLAY_farm.json");
    let out = Command::new(env!("CARGO_BIN_EXE_rtk-farm"))
        .arg("--replay")
        .arg(&traces)
        .arg("--out")
        .arg(&report)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("no *.rtkt trace"), "{stderr}");
    assert!(!report.exists(), "a failed replay must write no report");
}
