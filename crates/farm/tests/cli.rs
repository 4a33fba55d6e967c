//! The `rtk-farm` binary's exit codes, where `parse_args` alone cannot
//! decide them.

mod common;

use std::path::PathBuf;
use std::process::Command;

use rtk_analysis::trace_codec::{encode_trace, read_trace, TraceHeader, TraceTrailer};
use rtk_core::{ObsEvent, StampedEvent, TaskId};
use rtk_farm::{run_scenario, RunPlan, ScenarioSpec, Tuning};

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

/// A crafted trace that dispatches a task at tick 2^40, past the last
/// picosecond the exporters' time axis holds at 1 ms per tick, is
/// refused with exit 2 and a message naming the trace. The refusal
/// comes before anything is written: no export directory, not even the
/// exports of a good trace sorted before it, and no report.
#[test]
fn export_of_ticks_past_the_time_axis_is_refused() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_export_overflow");
    let _ = std::fs::remove_dir_all(&dir);
    let traces = dir.join("traces");
    std::fs::create_dir_all(&traces).unwrap();
    let tid = TaskId::from_raw(1);
    let header = TraceHeader::new(1, "crafted", "coro");
    assert_eq!(header.tick_us, 1000);
    let mut trace = PathBuf::new();
    for (name, last_tick) in [("early.rtkt", 1), ("late.rtkt", 1 << 40)] {
        let events = [
            (0, ObsEvent::TaskCreate { tid, pri: 10 }),
            (0, ObsEvent::TaskStart { tid }),
            (last_tick, ObsEvent::Dispatch { tid, pri: 10 }),
        ]
        .map(|(tick, ev)| StampedEvent { tick, ev });
        let bytes = encode_trace(
            &header,
            &events,
            Some(TraceTrailer::clean(events.len() as u64)),
        );
        trace = traces.join(name);
        std::fs::write(&trace, bytes).unwrap();
    }
    let chrome = dir.join("export-chrome");
    let vcd = dir.join("export-vcd");
    let runs: [&[(&str, &PathBuf)]; 3] = [
        &[("--export-chrome", &chrome)],
        &[("--export-vcd", &vcd)],
        &[("--export-chrome", &chrome), ("--export-vcd", &vcd)],
    ];
    for flags in runs {
        let report = dir.join("REPLAY_farm.json");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_rtk-farm"));
        cmd.arg("--replay").arg(&traces);
        for (flag, exports) in flags {
            cmd.arg(flag).arg(exports);
        }
        let out = cmd.arg("--out").arg(&report).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(
            stderr.contains(&format!("cannot export {}", trace.display())),
            "{flags:?}: {stderr}"
        );
        assert!(stderr.contains("tick 1099511627776"), "{flags:?}: {stderr}");
        assert!(
            !chrome.exists() && !vcd.exists(),
            "{flags:?}: a refused export creates no directory"
        );
        assert!(
            !report.exists(),
            "{flags:?}: a refused replay writes no report"
        );
    }
}

/// A trace file that cannot be created loses its whole stream and
/// nothing else. With a directory standing where seed 2's `.rtkt` goes,
/// the campaign still ends with the untraced digest, the report counts
/// every event of seed 2 as dropped, the other traces are complete, and
/// stderr names the file once, without pointing at `--trace-cap`.
#[test]
fn unwritable_trace_counts_its_events_dropped() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_unwritable_trace");
    let _ = std::fs::remove_dir_all(&dir);
    let traces = dir.join("traces");
    std::fs::create_dir_all(traces.join("seed-0000000002.rtkt")).unwrap();
    let campaign = |report: &PathBuf, trace_dir: Option<&PathBuf>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_rtk-farm"));
        cmd.args(["--seeds", "4", "--quick", "--oracle", "--out"])
            .arg(report);
        if let Some(trace_dir) = trace_dir {
            cmd.arg("--trace-dir").arg(trace_dir);
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        let json = std::fs::read_to_string(report).unwrap();
        (json, stderr)
    };
    let (untraced, _) = campaign(&dir.join("untraced.json"), None);
    let (traced, stderr) = campaign(&dir.join("traced.json"), Some(&traces));

    let digest = |json: &str| {
        json.lines()
            .find(|l| l.contains("\"campaign_digest\""))
            .map(str::to_owned)
    };
    assert!(digest(&untraced).is_some(), "{untraced}");
    assert_eq!(digest(&traced), digest(&untraced));
    let quick = Tuning {
        quick: true,
        faults: true,
    };
    let plan = RunPlan {
        collect_events: true,
        ..RunPlan::default()
    };
    let events = run_scenario(&ScenarioSpec::generate(2, &quick), &plan)
        .1
        .len();
    assert!(events > 0);
    assert!(
        traced.contains(&format!("\"obs_dropped\": {events},")),
        "{events} events: {traced}"
    );
    let lost: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("cannot write trace"))
        .collect();
    assert_eq!(lost.len(), 1, "{stderr}");
    assert!(lost[0].contains("seed-0000000002.rtkt"), "{stderr}");
    assert!(
        stderr.contains(&format!("{events} observation event(s) dropped")),
        "{stderr}"
    );
    assert!(!stderr.contains("--trace-cap"), "{stderr}");
    for seed in [1, 3, 4] {
        let trace = read_trace(&traces.join(format!("seed-{seed:010}.rtkt"))).unwrap();
        assert!(trace.complete(), "seed {seed}");
    }
}
