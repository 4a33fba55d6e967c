//! Trace platform end-to-end properties: golden-fixture stability of
//! the binary format, replay verdict fidelity for a pinned divergent
//! stream, decoder robustness on damaged input, bounded-capture drop
//! accounting, and thread-count invariance of captured trace bytes.
//!
//! The golden fixture (`tests/fixtures/golden_divergent.rtkt`) pins the
//! wire format: if an encoder change alters the bytes, the fixture test
//! fails and `docs/TRACE_FORMAT.md` (plus `FORMAT_VERSION`) must be
//! revisited deliberately. Regenerate with
//! `cargo test -p rtk-farm --test trace_roundtrip -- --ignored`.

use std::path::{Path, PathBuf};

use rtk_analysis::trace_codec::{
    decode_trace, encode_header, encode_trace, read_trace, CodecError, TraceHeader, TraceTrailer,
};
use rtk_core::{ObsEvent, SemId, StampedEvent, TaskId, WaitObj, WakeCode};
use rtk_farm::{
    check, replay_trace, run_campaign, run_scenario_traced, CampaignConfig, CampaignReport,
    ScenarioSpec, TraceConfig, Tuning,
};

fn t(n: u32) -> TaskId {
    TaskId::from_raw(n)
}

fn sem(n: u32) -> SemId {
    SemId::from_raw(n)
}

/// The pinned divergent decision stream: a healthy two-task prologue
/// followed by a priority-inversion bug — after the urgent `tsk1`
/// blocks on the semaphore and is woken, the kernel keeps running the
/// *less* urgent `tsk2`. The reference model mandates a dispatch of
/// `tsk1`, so the oracle diverges at event index 10.
fn divergent_stream() -> Vec<StampedEvent> {
    let evs = vec![
        (0, ObsEvent::TaskCreate { tid: t(1), pri: 10 }),
        (0, ObsEvent::TaskCreate { tid: t(2), pri: 20 }),
        (0, ObsEvent::TaskStart { tid: t(1) }),
        (0, ObsEvent::TaskStart { tid: t(2) }),
        (
            0,
            ObsEvent::SemCreate {
                id: sem(1),
                init: 0,
                max: 10,
                pri_order: false,
            },
        ),
        (0, ObsEvent::Dispatch { tid: t(1), pri: 10 }),
        (
            1,
            ObsEvent::Block {
                tid: t(1),
                obj: WaitObj::Sem(sem(1), 1),
                deadline_tick: None,
            },
        ),
        (1, ObsEvent::Dispatch { tid: t(2), pri: 20 }),
        (3, ObsEvent::SemSignal { id: sem(1), cnt: 1 }),
        (
            3,
            ObsEvent::Wakeup {
                tid: t(1),
                obj: WaitObj::Sem(sem(1), 1),
                code: WakeCode::Ok,
            },
        ),
        // BUG under test: tsk1 (pri 10) is ready again, yet tsk2
        // (pri 20) is dispatched.
        (3, ObsEvent::Dispatch { tid: t(2), pri: 20 }),
    ];
    evs.into_iter()
        .map(|(tick, ev)| StampedEvent { tick, ev })
        .collect()
}

/// Index of the first divergent event in [`divergent_stream`].
const PINNED_DIVERGENCE_INDEX: u64 = 10;

fn golden_header() -> TraceHeader {
    TraceHeader::new(0xD1BE57, "handcrafted", "none")
}

fn golden_bytes() -> Vec<u8> {
    let events = divergent_stream();
    encode_trace(
        &golden_header(),
        &events,
        Some(TraceTrailer::clean(events.len() as u64)),
    )
}

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_divergent.rtkt")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtk_trace_rt_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
#[ignore = "writes the golden fixture; run once after a deliberate format change"]
fn regenerate_golden_fixture() {
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), golden_bytes()).unwrap();
}

/// The committed fixture is byte-for-byte what the current encoder
/// produces — wire-format drift cannot land silently.
#[test]
fn golden_fixture_is_byte_stable() {
    let committed = std::fs::read(fixture_path()).expect(
        "fixture missing; regenerate with `cargo test -p rtk-farm --test \
         trace_roundtrip -- --ignored`",
    );
    assert_eq!(
        committed,
        golden_bytes(),
        "encoder output drifted from the pinned fixture"
    );
}

/// Decode(fixture) returns exactly the original stream, and replaying
/// it reproduces the batch oracle's verdict — including the pinned
/// first-divergence index — from the file alone.
#[test]
fn golden_fixture_round_trips_and_replays_with_pinned_verdict() {
    let decoded = decode_trace(&golden_bytes()).unwrap();
    assert!(decoded.complete());
    assert_eq!(decoded.skipped, 0);
    assert_eq!(decoded.events, divergent_stream());
    assert_eq!(decoded.header, golden_header());

    // The batch oracle over the raw events...
    let raw: Vec<ObsEvent> = divergent_stream().into_iter().map(|se| se.ev).collect();
    let live = check(&raw);
    let live_div = live.divergence.expect("the stream must diverge");
    assert_eq!(live_div.index as u64, PINNED_DIVERGENCE_INDEX);

    // ...and the file-based replay agree exactly.
    let replayed = replay_trace(&fixture_path()).unwrap();
    assert!(replayed.complete && replayed.clean);
    let div = replayed.verdict.divergence.expect("replay must diverge");
    assert_eq!(div.index, live_div.index);
    assert_eq!(div.detail, live_div.detail);
    assert_eq!(replayed.verdict.events_checked, live.events_checked);
    assert_eq!(replayed.verdict.events_checked, PINNED_DIVERGENCE_INDEX);
}

/// Hostile input: every truncation and every single-bit flip of the
/// fixture decodes to `Ok` or a `CodecError`, never a panic.
#[test]
fn damaged_fixture_decodes_or_errs_without_panicking() {
    let golden = std::fs::read(fixture_path()).unwrap();
    let survives = |bytes: &[u8], what: String| {
        std::panic::catch_unwind(|| decode_trace(bytes).is_ok())
            .unwrap_or_else(|_| panic!("decoder panicked on {what}"))
    };
    let decodable = (0..=golden.len())
        .filter(|&n| survives(&golden[..n], format!("a {n}-byte prefix")))
        .count();
    // The intact file and prefixes that end on a record boundary.
    assert!((1..golden.len()).contains(&decodable));
    let mut flipped = golden.clone();
    for bit in 0..golden.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        survives(&flipped, format!("bit {bit} flipped"));
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

/// A record length of 2^56 or more (a 9-byte varint) is refused as
/// truncated. Allocating that much would abort the test process, so
/// the typed error also shows that nothing was sized from it.
#[test]
fn nine_byte_record_length_is_refused() {
    // LEB128 of 2^56 and 2^63 - 1: the smallest and largest 9-byte values.
    for (fill, last) in [(0x80, 0x01), (0xff, 0x7f)] {
        let mut bytes = encode_header(&golden_header());
        bytes.extend([fill; 8]);
        bytes.extend([last, 1, 2, 3]);
        let result = decode_trace(&bytes);
        assert!(
            matches!(result, Err(CodecError::Truncated(_))),
            "{result:?}"
        );
    }
}

/// A campaign with a bounded per-trace cap: the excess is dropped
/// deterministically, accounted in the (digest-excluded) report
/// counter, and the capped traces still replay as far as they go.
#[test]
fn bounded_capture_drop_accounting_is_deterministic() {
    let run = |dir: &Path, threads: usize| {
        let cfg = CampaignConfig {
            base_seed: 700,
            seeds: 6,
            threads,
            tuning: Tuning {
                quick: true,
                faults: true,
            },
            oracle: false,
            topology: None,
            trace: Some(TraceConfig {
                dir: dir.to_path_buf(),
                cap: 40,
                tuning: None,
            }),
            analyze: false,
        };
        let outcomes = run_campaign(&cfg);
        let report = CampaignReport::new(cfg, outcomes);
        let agg = report.aggregate();
        (report, agg.obs_dropped)
    };
    let d1 = tmp_dir("cap1");
    let dn = tmp_dir("capn");
    let (r1, dropped1) = run(&d1, 1);
    let (rn, droppedn) = run(&dn, 4);

    // Real scenarios emit far more than 40 decisions.
    assert!(dropped1 > 0, "cap of 40 must drop events");
    // Drop accounting is simulated-domain deterministic...
    assert_eq!(dropped1, droppedn);
    // ...and excluded from the digest: capped capture never perturbs
    // campaign results.
    assert_eq!(r1.digest(), rn.digest());
    // Surfaced in the timed report, not the digest-bearing one.
    assert!(r1.to_json_timed(1).contains("\"obs_dropped\""));
    assert!(!r1.to_json().contains("obs_dropped"));

    // Capped traces decode: exactly `cap` events, trailer records the
    // drops, and the replay applies no end-of-stream invariant.
    for entry in std::fs::read_dir(&d1).unwrap() {
        let path = entry.unwrap().path();
        let decoded = read_trace(&path).unwrap();
        assert!(decoded.complete());
        assert_eq!(decoded.events.len(), 40);
        let trailer = decoded.trailer.unwrap();
        assert!(trailer.dropped > 0);
        assert_eq!(trailer.events, 40 + trailer.dropped);
        let replayed = replay_trace(&path).unwrap();
        assert!(replayed.verdict.divergence.is_none(), "{:?}", path);
    }
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&dn).ok();
}

/// Captured trace files are byte-identical per seed no matter how many
/// worker threads ran the campaign: the observation stream is part of
/// the simulated domain, and the writer serializes it without any
/// host-schedule leakage.
#[test]
fn trace_bytes_are_thread_count_invariant() {
    let capture = |dir: &Path, threads: usize| {
        let cfg = CampaignConfig {
            base_seed: 900,
            seeds: 8,
            threads,
            tuning: Tuning {
                quick: true,
                faults: true,
            },
            oracle: true,
            topology: None,
            trace: Some(TraceConfig {
                dir: dir.to_path_buf(),
                cap: 0,
                tuning: None,
            }),
            analyze: false,
        };
        run_campaign(&cfg);
    };
    let d1 = tmp_dir("thr1");
    let dn = tmp_dir("thrn");
    capture(&d1, 1);
    capture(&dn, 4);

    let mut names: Vec<String> = std::fs::read_dir(&d1)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names.len(), 8);
    for name in &names {
        let a = std::fs::read(d1.join(name)).unwrap();
        let b = dn.join(name);
        let b = std::fs::read(&b).unwrap_or_else(|e| panic!("{name} missing in N-thread dir: {e}"));
        assert_eq!(a, b, "trace bytes differ for {name}");
    }
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&dn).ok();
}

/// Traces captured while sysc still had a pooled-OS-thread runtime
/// record `threaded` in their header. The field is provenance only:
/// such a trace replays exactly like the `coro` trace of the same run.
#[test]
fn threaded_header_traces_still_replay() {
    let dir = tmp_dir("threaded_header");
    let tuning = Tuning {
        quick: true,
        faults: true,
    };
    let tc = TraceConfig {
        dir: dir.clone(),
        cap: 0,
        tuning: None,
    };
    let live = run_scenario_traced(
        &ScenarioSpec::generate(42, &tuning),
        true,
        sysc::Runtime::default(),
        &tc,
    );
    let mut trace = read_trace(&dir.join("seed-0000000042.rtkt")).unwrap();
    assert_eq!(trace.header.runtime, "coro");
    trace.header.runtime = "threaded".into();
    let old = dir.join("threaded.rtkt");
    std::fs::write(
        &old,
        encode_trace(&trace.header, &trace.events, trace.trailer),
    )
    .unwrap();

    let replayed = replay_trace(&old).unwrap();
    assert_eq!(replayed.header.runtime, "threaded");
    assert!(replayed.complete && replayed.clean);
    assert_eq!(replayed.verdict.events_checked, live.oracle_events);
    assert!(live.oracle_events > 0);
    assert!(replayed.verdict.divergence.is_none());
    std::fs::remove_dir_all(&dir).ok();
}
