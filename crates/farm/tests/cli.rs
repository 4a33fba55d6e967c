//! The `rtk-farm` binary's exit codes, where `parse_args` alone cannot
//! decide them.

mod common;

use std::path::PathBuf;
use std::process::Command;

use rtk_analysis::trace_codec::{encode_trace, TraceHeader, TraceTrailer};
use rtk_core::StampedEvent;

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

/// A crafted trace that creates a queued task's id again replays to
/// one divergence and exit 1, not to a panic.
#[test]
fn replay_of_a_recreated_task_id_reports_one_divergence() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_recreated_task");
    let _ = std::fs::remove_dir_all(&dir);
    let traces = dir.join("traces");
    std::fs::create_dir_all(&traces).unwrap();
    let events: Vec<StampedEvent> = common::recreated_waiter_stream()
        .into_iter()
        .map(|ev| StampedEvent { tick: 0, ev })
        .collect();
    let bytes = encode_trace(
        &TraceHeader::new(1, "crafted", "coro"),
        &events,
        Some(TraceTrailer::clean(events.len() as u64)),
    );
    std::fs::write(traces.join("recreated.rtkt"), bytes).unwrap();
    let report = dir.join("REPLAY_farm.json");
    let out = Command::new(env!("CARGO_BIN_EXE_rtk-farm"))
        .arg("--replay")
        .arg(&traces)
        .arg("--out")
        .arg(&report)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(", 1 divergence(s),"), "{stderr}");
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"event_index\": 10,"), "{json}");
}
