//! Trace platform end-to-end properties: golden-fixture stability of
//! the binary format, replay verdict fidelity for a pinned divergent
//! stream, decoder robustness on damaged and out-of-range input,
//! random-stream round trips through both encoders, bounded-capture
//! drop accounting, and thread-count invariance of captured trace
//! bytes.
//!
//! The golden fixture (`tests/fixtures/golden_divergent.rtkt`) pins the
//! wire format: if an encoder change alters the bytes, the fixture test
//! fails and `docs/TRACE_FORMAT.md` (plus `FORMAT_VERSION`) must be
//! revisited deliberately. Regenerate with
//! `cargo test -p rtk-farm --test trace_roundtrip -- --ignored`.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use rtk_analysis::trace_codec::{
    decode_trace, encode_header, encode_trace, read_trace, CodecError, TraceHeader, TraceTrailer,
    TraceWriter,
};
use rtk_core::{
    AlmId, CycId, FlagWaitMode, FlgId, MbfId, MbxId, MpfId, MplId, MtxId, MtxPolicy, ObsEvent,
    SemId, StampedEvent, StreamClose, StreamSink, TaskId, WaitObj, WakeCode,
};
use rtk_farm::{
    check, replay_trace, run_campaign, run_scenario, CampaignConfig, CampaignReport, RunPlan,
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

/// Unsigned LEB128, the varint of `docs/TRACE_FORMAT.md`.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// A record length of 2^56 or more (a 9- or 10-byte varint) is refused
/// as truncated. Allocating that much would abort the test process and
/// adding it to the read position would overflow, so the typed error
/// also shows that nothing was sized or summed from it.
#[test]
fn nine_and_ten_byte_record_lengths_are_refused() {
    // The smallest and largest 9-byte values, then two 10-byte ones.
    for len in [1 << 56, (1 << 63) - 1, u64::MAX - 5, u64::MAX] {
        let mut bytes = encode_header(&golden_header());
        bytes.extend(varint(len));
        bytes.extend([1, 2, 3]);
        let result = decode_trace(&bytes);
        assert!(
            matches!(result, Err(CodecError::Truncated(_))),
            "length {len}: {result:?}"
        );
    }
}

/// A field the decoder would have to narrow or guess is malformed: an
/// id or `u32` count above `u32::MAX`, a priority above 255, a `bool`
/// byte other than 0 or 1, a 10-byte varint wider than 64 bits, and
/// tick deltas that sum past `u64::MAX`.
#[test]
fn out_of_range_fields_are_malformed() {
    let wide = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
    let past_max = [&[2][..], &varint(1 << 63), &[1]].concat();
    let cases: [(&str, Vec<Vec<u8>>); 7] = [
        (
            "TaskCreate tid 2^32+7",
            vec![[&[1, 0][..], &varint((1 << 32) + 7), &varint(300)].concat()],
        ),
        (
            "TaskCreate pri 300",
            vec![[&[1, 0, 7][..], &varint(300)].concat()],
        ),
        (
            "MtxCreate ceiling 256",
            vec![[&[32, 0, 1, 3][..], &varint(256)].concat()],
        ),
        (
            "SemSignal cnt 2^32",
            vec![[&[20, 0, 1][..], &varint(1 << 32)].concat()],
        ),
        ("Resume force byte 2", vec![vec![7, 0, 1, 2]]),
        (
            "TimerFire tick 2^64+2^63-1",
            vec![[&[18, 0, 1][..], &wide].concat()],
        ),
        ("tick stamp 2^64", vec![past_max.clone(), past_max]),
    ];
    for (what, payloads) in cases {
        let mut bytes = encode_header(&golden_header());
        for payload in payloads {
            bytes.extend(varint(payload.len() as u64));
            bytes.extend(payload);
        }
        let result = decode_trace(&bytes);
        assert!(
            matches!(result, Err(CodecError::Malformed(_))),
            "{what}: {result:?}"
        );
    }
}

/// A random `u64` whose magnitude is spread over all 64 bit widths, so
/// every varint length from 1 to 10 bytes is drawn.
fn wide() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift)
}

/// An event of tag `tag + 1` with its fields cut from `a`, `b` and `c`,
/// across each field type's full range.
fn random_event(tag: u8, a: u64, b: u64, c: u64) -> ObsEvent {
    let tid = TaskId::from_raw(a as u32);
    let (pri, flag, size) = (b as u8, c & 1 == 1, b as usize);
    let opt = flag.then_some(b);
    let mode = FlagWaitMode {
        and: c & 2 != 0,
        clear_all: c & 4 != 0,
        clear_bits: c & 8 != 0,
    };
    let obj = match c % 10 {
        0 => WaitObj::Sleep,
        1 => WaitObj::Delay,
        2 => WaitObj::Sem(sem(b as u32), c as u32),
        3 => WaitObj::Flag(FlgId::from_raw(b as u32), c as u32, mode),
        4 => WaitObj::Mbx(MbxId::from_raw(b as u32)),
        5 => WaitObj::MbfSend(MbfId::from_raw(b as u32), c as usize),
        6 => WaitObj::MbfRecv(MbfId::from_raw(b as u32)),
        7 => WaitObj::Mtx(MtxId::from_raw(b as u32)),
        8 => WaitObj::Mpf(MpfId::from_raw(b as u32)),
        _ => WaitObj::Mpl(MplId::from_raw(b as u32), c as usize),
    };
    let code = [
        WakeCode::Ok,
        WakeCode::Timeout,
        WakeCode::Released,
        WakeCode::Deleted,
    ][(c >> 4) as usize % 4];
    let policy = [
        MtxPolicy::Fifo,
        MtxPolicy::Pri,
        MtxPolicy::Inherit,
        MtxPolicy::Ceiling(pri),
    ][(c >> 6) as usize % 4];
    let (id, n, m) = (b as u32, c as u32, (c >> 32) as u32);
    let (sem, flg, mbx, mbf) = (
        sem(id),
        FlgId::from_raw(id),
        MbxId::from_raw(id),
        MbfId::from_raw(id),
    );
    let (mtx, mpf, mpl) = (
        MtxId::from_raw(id),
        MpfId::from_raw(id),
        MplId::from_raw(id),
    );
    let (cyc, alm) = (CycId::from_raw(id), AlmId::from_raw(id));
    match tag + 1 {
        1 => ObsEvent::TaskCreate { tid, pri },
        2 => ObsEvent::TaskStart { tid },
        3 => ObsEvent::TaskExit { tid },
        4 => ObsEvent::TaskTerminate { tid },
        5 => ObsEvent::TaskDelete { tid },
        6 => ObsEvent::Suspend { tid },
        7 => ObsEvent::Resume { tid, force: flag },
        8 => ObsEvent::RelWai { tid },
        9 => ObsEvent::RotRdq { pri },
        10 => ObsEvent::WupTsk { tid },
        11 => ObsEvent::WupConsume { tid },
        12 => ObsEvent::DispCtl { disabled: flag },
        13 => ObsEvent::PriChange { tid, base: pri },
        14 => ObsEvent::Dispatch { tid, pri },
        15 => ObsEvent::Preempt { tid },
        16 => ObsEvent::Block {
            tid,
            obj,
            deadline_tick: opt,
        },
        17 => ObsEvent::Wakeup { tid, obj, code },
        18 => ObsEvent::TimerFire { tid, tick: b },
        19 => ObsEvent::SemCreate {
            id: sem,
            init: n,
            max: m,
            pri_order: flag,
        },
        20 => ObsEvent::SemSignal { id: sem, cnt: n },
        21 => ObsEvent::SemTake {
            id: sem,
            tid,
            cnt: n,
        },
        22 => ObsEvent::FlagCreate {
            id: flg,
            init: n,
            pri_order: flag,
        },
        23 => ObsEvent::FlagSet { id: flg, ptn: n },
        24 => ObsEvent::FlagClear { id: flg, mask: n },
        25 => ObsEvent::FlagTake {
            id: flg,
            tid,
            ptn: n,
            mode,
        },
        26 => ObsEvent::MbxCreate {
            id: mbx,
            pri_order: flag,
        },
        27 => ObsEvent::MbxSend { id: mbx },
        28 => ObsEvent::MbxTake { id: mbx, tid },
        29 => ObsEvent::MbfCreate {
            id: mbf,
            bufsz: size,
            maxmsz: c as usize,
            pri_order: flag,
        },
        30 => ObsEvent::MbfSend { id: mbf, len: size },
        31 => ObsEvent::MbfRecv { id: mbf, tid },
        32 => ObsEvent::MtxCreate { id: mtx, policy },
        33 => ObsEvent::MtxLock { id: mtx, tid },
        34 => ObsEvent::MtxUnlock { id: mtx, tid },
        35 => ObsEvent::MpfCreate {
            id: mpf,
            blocks: size,
            pri_order: flag,
        },
        36 => ObsEvent::MpfTake { id: mpf, tid },
        37 => ObsEvent::MpfRel { id: mpf },
        38 => ObsEvent::MplCreate {
            id: mpl,
            size,
            pri_order: flag,
        },
        39 => ObsEvent::MplTake {
            id: mpl,
            tid,
            size,
            off: c as usize,
        },
        40 => ObsEvent::MplRel {
            id: mpl,
            off: c as usize,
        },
        41 => ObsEvent::CycCreate {
            id: cyc,
            period_ticks: c,
            first_tick: opt,
        },
        42 => ObsEvent::CycStart {
            id: cyc,
            at_tick: c,
        },
        43 => ObsEvent::CycStop { id: cyc },
        44 => ObsEvent::CycFire { id: cyc, tick: c },
        45 => ObsEvent::AlmArm {
            id: alm,
            at_tick: c,
        },
        46 => ObsEvent::AlmStop { id: alm },
        _ => ObsEvent::AlmFire { id: alm, tick: c },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random streams over all 47 tags with monotone ticks: decoding
    /// the encoding gives the stream back, a `TraceWriter` fed the
    /// same stream writes exactly the `encode_trace` bytes, and
    /// truncating or overwriting bytes of the encoding decodes to `Ok`
    /// or a `CodecError`, never a panic.
    #[test]
    fn random_streams_round_trip(
        draws in collection::vec(((0u8..47, wide()), (wide(), wide(), wide())), 0..40),
        cut in any::<usize>(),
        hits in collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut tick = 0u64;
        let stream: Vec<StampedEvent> = draws
            .into_iter()
            .map(|((tag, gap), (a, b, c))| {
                tick = tick.saturating_add(gap);
                StampedEvent {
                    tick,
                    ev: random_event(tag, a, b, c),
                }
            })
            .collect();
        let header = golden_header();
        let trailer = TraceTrailer::clean(stream.len() as u64);
        let bytes = encode_trace(&header, &stream, Some(trailer));
        let decoded = decode_trace(&bytes).unwrap();
        prop_assert_eq!(&decoded.events, &stream);
        prop_assert_eq!(decoded.trailer, Some(trailer));

        let dir = tmp_dir("random_stream");
        let path = dir.join("stream.rtkt");
        let mut writer = TraceWriter::create(&path, &header, 0).unwrap();
        let (first, rest) = stream.split_at(stream.len() / 2);
        writer.batch(first);
        writer.batch(rest);
        writer.close(StreamClose::Clean);
        drop(writer);
        prop_assert_eq!(&std::fs::read(&path).unwrap(), &bytes);
        std::fs::remove_dir_all(&dir).ok();

        let _ = decode_trace(&bytes[..cut % (bytes.len() + 1)]);
        let mut damaged = bytes;
        for (at, byte) in hits {
            let at = at % damaged.len();
            damaged[at] = byte;
            let _ = decode_trace(&damaged);
        }
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
    let plan = RunPlan {
        oracle: true,
        trace: Some(&tc),
        ..RunPlan::default()
    };
    let (live, _) = run_scenario(&ScenarioSpec::generate(42, &tuning), &plan);
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
