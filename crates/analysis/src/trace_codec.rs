//! Binary observation-trace codec: the on-disk form of a
//! `rtk_core::obs` event stream.
//!
//! A trace file is a self-describing, replayable record of every
//! kernel decision of one seed: `rtk-farm --trace-dir` writes one per
//! scenario and `rtk-farm --replay` re-runs the differential oracle
//! from the file alone, so divergence triage never needs to re-execute
//! the seed. The byte-level layout, the versioning rules and the
//! forward-compatibility policy are specified in
//! `docs/TRACE_FORMAT.md`; the event grammar itself (what the events
//! *mean*) is `docs/OBS_GRAMMAR.md`.
//!
//! Layout summary (all multi-byte scalars little-endian, all variable
//! integers unsigned LEB128):
//!
//! ```text
//! "RTKT"  u16 format  u16 grammar  u32 body_len  header-body
//! record* trailer?
//! record  = varint(payload_len >= 1) payload
//! payload = tag:u8  varint(tick_delta)  fields…
//! trailer = 0x00  close:u8  varint(events)  varint(dropped)
//! ```
//!
//! A missing trailer means the writer died mid-run: the file is still
//! decodable up to the truncation point and is reported as incomplete.
//!
//! # Example
//!
//! ```
//! use rtk_analysis::trace_codec::{encode_trace, decode_trace, TraceHeader, TraceTrailer};
//! use rtk_core::{ObsEvent, StampedEvent, StreamClose, TaskId};
//!
//! let header = TraceHeader::new(42, "independent", "coro");
//! let events = vec![StampedEvent {
//!     tick: 3,
//!     ev: ObsEvent::TaskStart { tid: TaskId::from_raw(1) },
//! }];
//! let bytes = encode_trace(&header, &events, Some(TraceTrailer::clean(1)));
//! let decoded = decode_trace(&bytes).unwrap();
//! assert_eq!(decoded.header.seed, 42);
//! assert_eq!(decoded.events, events);
//! assert_eq!(decoded.trailer.unwrap().close, StreamClose::Clean);
//! ```

use std::cell::RefCell;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use rtk_core::{
    AlmId, CycId, FlagWaitMode, FlgId, MbfId, MbxId, MpfId, MplId, MtxId, MtxPolicy, ObsEvent,
    SemId, StampedEvent, StreamClose, StreamSink, TaskId, WaitObj, WakeCode, GRAMMAR_VERSION,
};

/// On-disk container format revision (bumped only when the header or
/// record framing changes; grammar growth bumps
/// [`rtk_core::GRAMMAR_VERSION`] instead).
pub const FORMAT_VERSION: u16 = 1;

/// The file magic, `b"RTKT"`.
pub const MAGIC: [u8; 4] = *b"RTKT";

/// Default tick period recorded in headers (the paper configuration's
/// 1 ms BFM real-time clock).
pub const DEFAULT_TICK_US: u32 = 1000;

/// Decoded trace-file header: run provenance for replay and triage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Grammar revision the events were recorded under.
    pub grammar_version: u16,
    /// The seed that named the scenario.
    pub seed: u64,
    /// Tick period in microseconds (time axis for exporters).
    pub tick_us: u32,
    /// Scenario topology label (e.g. `"sem_chain"`).
    pub topology: String,
    /// Process runtime the run executed on (host metadata; never
    /// affects the event stream).
    pub runtime: String,
    /// Generator tuning the scenario was expanded under, when the
    /// writer recorded it. Required to regenerate the exact spec from
    /// the seed alone (offline `--replay --analyze`); `None` in traces
    /// from writers that predate the field.
    pub tuning: Option<TraceTuning>,
}

/// Scenario-generator tuning flags carried in a trace header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceTuning {
    /// Short-horizon campaign (`--quick`).
    pub quick: bool,
    /// Fault plans enabled in the generator.
    pub faults: bool,
}

impl TraceHeader {
    /// A header for the current grammar with the default tick period.
    pub fn new(seed: u64, topology: &str, runtime: &str) -> Self {
        TraceHeader {
            grammar_version: GRAMMAR_VERSION,
            seed,
            tick_us: DEFAULT_TICK_US,
            topology: topology.to_string(),
            runtime: runtime.to_string(),
            tuning: None,
        }
    }
}

/// Decoded trace-file trailer: how the stream closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceTrailer {
    /// [`StreamClose::Clean`] for a run that reached its horizon,
    /// [`StreamClose::Aborted`] for a panic-truncated one.
    pub close: StreamClose,
    /// Events the writer saw (written + dropped).
    pub events: u64,
    /// Events the writer declined (bounded capture, `--trace-cap`).
    pub dropped: u64,
}

impl TraceTrailer {
    /// A clean trailer over `events` events with nothing dropped.
    pub fn clean(events: u64) -> Self {
        TraceTrailer {
            close: StreamClose::Clean,
            events,
            dropped: 0,
        }
    }
}

/// Decoding failure.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The container format revision is newer than this reader.
    UnsupportedFormat(u16),
    /// The byte stream ended inside a header or record.
    Truncated(&'static str),
    /// A structurally invalid record (bad sub-tag, overlong varint…).
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "trace i/o error: {e}"),
            CodecError::BadMagic => write!(f, "not an RTKT trace (bad magic)"),
            CodecError::UnsupportedFormat(v) => {
                write!(
                    f,
                    "trace format v{v} is newer than this reader (v{FORMAT_VERSION})"
                )
            }
            CodecError::Truncated(what) => write!(f, "trace truncated inside {what}"),
            CodecError::Malformed(why) => write!(f, "malformed trace record: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// varint (unsigned LEB128)
// ---------------------------------------------------------------------------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = *bytes.get(*pos).ok_or(CodecError::Truncated("varint"))?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(CodecError::Malformed("overlong varint".into()))
}

fn put_str8(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let n = bytes.len().min(255);
    buf.push(n as u8);
    buf.extend_from_slice(&bytes[..n]);
}

fn get_str8(bytes: &[u8], pos: &mut usize) -> Result<String, CodecError> {
    let n = *bytes.get(*pos).ok_or(CodecError::Truncated("string"))? as usize;
    *pos += 1;
    let s = bytes
        .get(*pos..*pos + n)
        .ok_or(CodecError::Truncated("string"))?;
    *pos += n;
    String::from_utf8(s.to_vec()).map_err(|_| CodecError::Malformed("non-utf8 string".into()))
}

// ---------------------------------------------------------------------------
// header
// ---------------------------------------------------------------------------

/// Serialises a header (magic + versions + length-prefixed body).
pub fn encode_header(h: &TraceHeader) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    body.extend_from_slice(&h.seed.to_le_bytes());
    body.extend_from_slice(&h.tick_us.to_le_bytes());
    put_str8(&mut body, &h.topology);
    put_str8(&mut body, &h.runtime);
    // Optional trailing tuning flags. Appended only when present so a
    // tuning-free header is byte-identical to what earlier writers
    // produced; readers that predate the field skip it via the body
    // length prefix.
    if let Some(t) = &h.tuning {
        body.push(u8::from(t.quick) | (u8::from(t.faults) << 1));
    }

    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&h.grammar_version.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Parses a header; returns it and the offset of the first record.
/// Unknown trailing header-body bytes (from a future writer) are
/// skipped — the body is length-prefixed exactly for this.
pub fn decode_header(bytes: &[u8]) -> Result<(TraceHeader, usize), CodecError> {
    if bytes.len() < 12 {
        return Err(CodecError::Truncated("header"));
    }
    if bytes[0..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let format = u16::from_le_bytes([bytes[4], bytes[5]]);
    if format > FORMAT_VERSION {
        return Err(CodecError::UnsupportedFormat(format));
    }
    let grammar_version = u16::from_le_bytes([bytes[6], bytes[7]]);
    let body_len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    let body = bytes
        .get(12..12 + body_len)
        .ok_or(CodecError::Truncated("header body"))?;
    let mut pos = 0;
    if body.len() < 12 {
        return Err(CodecError::Truncated("header body"));
    }
    let seed = u64::from_le_bytes(body[0..8].try_into().unwrap());
    let tick_us = u32::from_le_bytes(body[8..12].try_into().unwrap());
    pos += 12;
    let topology = get_str8(body, &mut pos)?;
    let runtime = get_str8(body, &mut pos)?;
    let tuning = body.get(pos).map(|&flags| TraceTuning {
        quick: flags & 1 != 0,
        faults: flags & 2 != 0,
    });
    Ok((
        TraceHeader {
            grammar_version,
            seed,
            tick_us,
            topology,
            runtime,
            tuning,
        },
        12 + body_len,
    ))
}

// ---------------------------------------------------------------------------
// event payloads
// ---------------------------------------------------------------------------

fn put_wait_obj(buf: &mut Vec<u8>, obj: &WaitObj) {
    match obj {
        WaitObj::Sleep => buf.push(0),
        WaitObj::Delay => buf.push(1),
        WaitObj::Sem(id, n) => {
            buf.push(2);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, u64::from(*n));
        }
        WaitObj::Flag(id, ptn, mode) => {
            buf.push(3);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, u64::from(*ptn));
            buf.push(flag_mode_bits(*mode));
        }
        WaitObj::Mbx(id) => {
            buf.push(4);
            put_varint(buf, u64::from(id.raw()));
        }
        WaitObj::MbfSend(id, len) => {
            buf.push(5);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, *len as u64);
        }
        WaitObj::MbfRecv(id) => {
            buf.push(6);
            put_varint(buf, u64::from(id.raw()));
        }
        WaitObj::Mtx(id) => {
            buf.push(7);
            put_varint(buf, u64::from(id.raw()));
        }
        WaitObj::Mpf(id) => {
            buf.push(8);
            put_varint(buf, u64::from(id.raw()));
        }
        WaitObj::Mpl(id, size) => {
            buf.push(9);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, *size as u64);
        }
    }
}

fn get_wait_obj(bytes: &[u8], pos: &mut usize) -> Result<WaitObj, CodecError> {
    let tag = *bytes.get(*pos).ok_or(CodecError::Truncated("wait-obj"))?;
    *pos += 1;
    let id = |pos: &mut usize| -> Result<u32, CodecError> { Ok(get_varint(bytes, pos)? as u32) };
    Ok(match tag {
        0 => WaitObj::Sleep,
        1 => WaitObj::Delay,
        2 => {
            let i = id(pos)?;
            WaitObj::Sem(SemId::from_raw(i), get_varint(bytes, pos)? as u32)
        }
        3 => {
            let i = id(pos)?;
            let ptn = get_varint(bytes, pos)? as u32;
            let bits = *bytes.get(*pos).ok_or(CodecError::Truncated("flag mode"))?;
            *pos += 1;
            WaitObj::Flag(FlgId::from_raw(i), ptn, flag_mode_from_bits(bits))
        }
        4 => WaitObj::Mbx(MbxId::from_raw(id(pos)?)),
        5 => {
            let i = id(pos)?;
            WaitObj::MbfSend(MbfId::from_raw(i), get_varint(bytes, pos)? as usize)
        }
        6 => WaitObj::MbfRecv(MbfId::from_raw(id(pos)?)),
        7 => WaitObj::Mtx(MtxId::from_raw(id(pos)?)),
        8 => WaitObj::Mpf(MpfId::from_raw(id(pos)?)),
        9 => {
            let i = id(pos)?;
            WaitObj::Mpl(MplId::from_raw(i), get_varint(bytes, pos)? as usize)
        }
        other => return Err(CodecError::Malformed(format!("wait-obj tag {other}"))),
    })
}

fn flag_mode_bits(m: FlagWaitMode) -> u8 {
    u8::from(m.and) | (u8::from(m.clear_all) << 1) | (u8::from(m.clear_bits) << 2)
}

fn flag_mode_from_bits(bits: u8) -> FlagWaitMode {
    let mut m = if bits & 1 != 0 {
        FlagWaitMode::AND
    } else {
        FlagWaitMode::OR
    };
    if bits & 2 != 0 {
        m = m.with_clear();
    }
    if bits & 4 != 0 {
        m = m.with_bitclear();
    }
    m
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => buf.push(0),
        Some(v) => {
            buf.push(1);
            put_varint(buf, v);
        }
    }
}

fn get_opt_u64(bytes: &[u8], pos: &mut usize) -> Result<Option<u64>, CodecError> {
    let flag = *bytes.get(*pos).ok_or(CodecError::Truncated("option"))?;
    *pos += 1;
    match flag {
        0 => Ok(None),
        1 => Ok(Some(get_varint(bytes, pos)?)),
        other => Err(CodecError::Malformed(format!("option flag {other}"))),
    }
}

/// Stable wire tags of the event grammar (documented, with payload
/// layouts, in `docs/TRACE_FORMAT.md`). Tags are append-only: a
/// retired variant's tag is never reused.
#[rustfmt::skip]
mod tag {
    pub const TASK_CREATE: u8 = 1;   pub const TASK_START: u8 = 2;
    pub const TASK_EXIT: u8 = 3;     pub const TASK_TERMINATE: u8 = 4;
    pub const TASK_DELETE: u8 = 5;   pub const SUSPEND: u8 = 6;
    pub const RESUME: u8 = 7;        pub const REL_WAI: u8 = 8;
    pub const ROT_RDQ: u8 = 9;       pub const WUP_TSK: u8 = 10;
    pub const WUP_CONSUME: u8 = 11;  pub const DISP_CTL: u8 = 12;
    pub const PRI_CHANGE: u8 = 13;   pub const DISPATCH: u8 = 14;
    pub const PREEMPT: u8 = 15;      pub const BLOCK: u8 = 16;
    pub const WAKEUP: u8 = 17;       pub const TIMER_FIRE: u8 = 18;
    pub const SEM_CREATE: u8 = 19;   pub const SEM_SIGNAL: u8 = 20;
    pub const SEM_TAKE: u8 = 21;     pub const FLAG_CREATE: u8 = 22;
    pub const FLAG_SET: u8 = 23;     pub const FLAG_CLEAR: u8 = 24;
    pub const FLAG_TAKE: u8 = 25;    pub const MBX_CREATE: u8 = 26;
    pub const MBX_SEND: u8 = 27;     pub const MBX_TAKE: u8 = 28;
    pub const MBF_CREATE: u8 = 29;   pub const MBF_SEND: u8 = 30;
    pub const MBF_RECV: u8 = 31;     pub const MTX_CREATE: u8 = 32;
    pub const MTX_LOCK: u8 = 33;     pub const MTX_UNLOCK: u8 = 34;
    pub const MPF_CREATE: u8 = 35;   pub const MPF_TAKE: u8 = 36;
    pub const MPF_REL: u8 = 37;      pub const MPL_CREATE: u8 = 38;
    pub const MPL_TAKE: u8 = 39;     pub const MPL_REL: u8 = 40;
    pub const CYC_CREATE: u8 = 41;   pub const CYC_START: u8 = 42;
    pub const CYC_STOP: u8 = 43;     pub const CYC_FIRE: u8 = 44;
    pub const ALM_ARM: u8 = 45;      pub const ALM_STOP: u8 = 46;
    pub const ALM_FIRE: u8 = 47;
}

fn encode_payload(buf: &mut Vec<u8>, tick_delta: u64, ev: &ObsEvent) {
    use tag::*;
    let t = |buf: &mut Vec<u8>, tag: u8| {
        buf.push(tag);
        put_varint(buf, tick_delta);
    };
    match *ev {
        ObsEvent::TaskCreate { tid, pri } => {
            t(buf, TASK_CREATE);
            put_varint(buf, u64::from(tid.raw()));
            put_varint(buf, u64::from(pri));
        }
        ObsEvent::TaskStart { tid } => {
            t(buf, TASK_START);
            put_varint(buf, u64::from(tid.raw()));
        }
        ObsEvent::TaskExit { tid } => {
            t(buf, TASK_EXIT);
            put_varint(buf, u64::from(tid.raw()));
        }
        ObsEvent::TaskTerminate { tid } => {
            t(buf, TASK_TERMINATE);
            put_varint(buf, u64::from(tid.raw()));
        }
        ObsEvent::TaskDelete { tid } => {
            t(buf, TASK_DELETE);
            put_varint(buf, u64::from(tid.raw()));
        }
        ObsEvent::Suspend { tid } => {
            t(buf, SUSPEND);
            put_varint(buf, u64::from(tid.raw()));
        }
        ObsEvent::Resume { tid, force } => {
            t(buf, RESUME);
            put_varint(buf, u64::from(tid.raw()));
            buf.push(u8::from(force));
        }
        ObsEvent::RelWai { tid } => {
            t(buf, REL_WAI);
            put_varint(buf, u64::from(tid.raw()));
        }
        ObsEvent::RotRdq { pri } => {
            t(buf, ROT_RDQ);
            put_varint(buf, u64::from(pri));
        }
        ObsEvent::WupTsk { tid } => {
            t(buf, WUP_TSK);
            put_varint(buf, u64::from(tid.raw()));
        }
        ObsEvent::WupConsume { tid } => {
            t(buf, WUP_CONSUME);
            put_varint(buf, u64::from(tid.raw()));
        }
        ObsEvent::DispCtl { disabled } => {
            t(buf, DISP_CTL);
            buf.push(u8::from(disabled));
        }
        ObsEvent::PriChange { tid, base } => {
            t(buf, PRI_CHANGE);
            put_varint(buf, u64::from(tid.raw()));
            put_varint(buf, u64::from(base));
        }
        ObsEvent::Dispatch { tid, pri } => {
            t(buf, DISPATCH);
            put_varint(buf, u64::from(tid.raw()));
            put_varint(buf, u64::from(pri));
        }
        ObsEvent::Preempt { tid } => {
            t(buf, PREEMPT);
            put_varint(buf, u64::from(tid.raw()));
        }
        ObsEvent::Block {
            tid,
            obj,
            deadline_tick,
        } => {
            t(buf, BLOCK);
            put_varint(buf, u64::from(tid.raw()));
            put_wait_obj(buf, &obj);
            put_opt_u64(buf, deadline_tick);
        }
        ObsEvent::Wakeup { tid, obj, code } => {
            t(buf, WAKEUP);
            put_varint(buf, u64::from(tid.raw()));
            put_wait_obj(buf, &obj);
            buf.push(wake_code_bits(code));
        }
        ObsEvent::TimerFire { tid, tick } => {
            t(buf, TIMER_FIRE);
            put_varint(buf, u64::from(tid.raw()));
            put_varint(buf, tick);
        }
        ObsEvent::SemCreate {
            id,
            init,
            max,
            pri_order,
        } => {
            t(buf, SEM_CREATE);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, u64::from(init));
            put_varint(buf, u64::from(max));
            buf.push(u8::from(pri_order));
        }
        ObsEvent::SemSignal { id, cnt } => {
            t(buf, SEM_SIGNAL);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, u64::from(cnt));
        }
        ObsEvent::SemTake { id, tid, cnt } => {
            t(buf, SEM_TAKE);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, u64::from(tid.raw()));
            put_varint(buf, u64::from(cnt));
        }
        ObsEvent::FlagCreate {
            id,
            init,
            pri_order,
        } => {
            t(buf, FLAG_CREATE);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, u64::from(init));
            buf.push(u8::from(pri_order));
        }
        ObsEvent::FlagSet { id, ptn } => {
            t(buf, FLAG_SET);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, u64::from(ptn));
        }
        ObsEvent::FlagClear { id, mask } => {
            t(buf, FLAG_CLEAR);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, u64::from(mask));
        }
        ObsEvent::FlagTake { id, tid, ptn, mode } => {
            t(buf, FLAG_TAKE);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, u64::from(tid.raw()));
            put_varint(buf, u64::from(ptn));
            buf.push(flag_mode_bits(mode));
        }
        ObsEvent::MbxCreate { id, pri_order } => {
            t(buf, MBX_CREATE);
            put_varint(buf, u64::from(id.raw()));
            buf.push(u8::from(pri_order));
        }
        ObsEvent::MbxSend { id } => {
            t(buf, MBX_SEND);
            put_varint(buf, u64::from(id.raw()));
        }
        ObsEvent::MbxTake { id, tid } => {
            t(buf, MBX_TAKE);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, u64::from(tid.raw()));
        }
        ObsEvent::MbfCreate {
            id,
            bufsz,
            maxmsz,
            pri_order,
        } => {
            t(buf, MBF_CREATE);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, bufsz as u64);
            put_varint(buf, maxmsz as u64);
            buf.push(u8::from(pri_order));
        }
        ObsEvent::MbfSend { id, len } => {
            t(buf, MBF_SEND);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, len as u64);
        }
        ObsEvent::MbfRecv { id, tid } => {
            t(buf, MBF_RECV);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, u64::from(tid.raw()));
        }
        ObsEvent::MtxCreate { id, policy } => {
            t(buf, MTX_CREATE);
            put_varint(buf, u64::from(id.raw()));
            match policy {
                MtxPolicy::Fifo => buf.push(0),
                MtxPolicy::Pri => buf.push(1),
                MtxPolicy::Inherit => buf.push(2),
                MtxPolicy::Ceiling(pri) => {
                    buf.push(3);
                    put_varint(buf, u64::from(pri));
                }
            }
        }
        ObsEvent::MtxLock { id, tid } => {
            t(buf, MTX_LOCK);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, u64::from(tid.raw()));
        }
        ObsEvent::MtxUnlock { id, tid } => {
            t(buf, MTX_UNLOCK);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, u64::from(tid.raw()));
        }
        ObsEvent::MpfCreate {
            id,
            blocks,
            pri_order,
        } => {
            t(buf, MPF_CREATE);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, blocks as u64);
            buf.push(u8::from(pri_order));
        }
        ObsEvent::MpfTake { id, tid } => {
            t(buf, MPF_TAKE);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, u64::from(tid.raw()));
        }
        ObsEvent::MpfRel { id } => {
            t(buf, MPF_REL);
            put_varint(buf, u64::from(id.raw()));
        }
        ObsEvent::MplCreate {
            id,
            size,
            pri_order,
        } => {
            t(buf, MPL_CREATE);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, size as u64);
            buf.push(u8::from(pri_order));
        }
        ObsEvent::MplTake { id, tid, size, off } => {
            t(buf, MPL_TAKE);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, u64::from(tid.raw()));
            put_varint(buf, size as u64);
            put_varint(buf, off as u64);
        }
        ObsEvent::MplRel { id, off } => {
            t(buf, MPL_REL);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, off as u64);
        }
        ObsEvent::CycCreate {
            id,
            period_ticks,
            first_tick,
        } => {
            t(buf, CYC_CREATE);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, period_ticks);
            put_opt_u64(buf, first_tick);
        }
        ObsEvent::CycStart { id, at_tick } => {
            t(buf, CYC_START);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, at_tick);
        }
        ObsEvent::CycStop { id } => {
            t(buf, CYC_STOP);
            put_varint(buf, u64::from(id.raw()));
        }
        ObsEvent::CycFire { id, tick } => {
            t(buf, CYC_FIRE);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, tick);
        }
        ObsEvent::AlmArm { id, at_tick } => {
            t(buf, ALM_ARM);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, at_tick);
        }
        ObsEvent::AlmStop { id } => {
            t(buf, ALM_STOP);
            put_varint(buf, u64::from(id.raw()));
        }
        ObsEvent::AlmFire { id, tick } => {
            t(buf, ALM_FIRE);
            put_varint(buf, u64::from(id.raw()));
            put_varint(buf, tick);
        }
    }
}

/// Decodes one payload. `Ok(None)` means the tag is unknown to this
/// reader (written by a newer grammar) — the caller skips the record,
/// which is the documented forward-compatibility behaviour.
fn decode_payload(payload: &[u8]) -> Result<Option<(u64, ObsEvent)>, CodecError> {
    use tag::*;
    let mut pos = 0usize;
    let tag = *payload.first().ok_or(CodecError::Truncated("record tag"))?;
    pos += 1;
    let tick_delta = get_varint(payload, &mut pos)?;
    let vu = |pos: &mut usize| get_varint(payload, pos);
    let byte = |pos: &mut usize| -> Result<u8, CodecError> {
        let b = *payload
            .get(*pos)
            .ok_or(CodecError::Truncated("record byte"))?;
        *pos += 1;
        Ok(b)
    };
    let ev = match tag {
        TASK_CREATE => {
            let tid = TaskId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::TaskCreate {
                tid,
                pri: vu(&mut pos)? as u8,
            }
        }
        TASK_START => ObsEvent::TaskStart {
            tid: TaskId::from_raw(vu(&mut pos)? as u32),
        },
        TASK_EXIT => ObsEvent::TaskExit {
            tid: TaskId::from_raw(vu(&mut pos)? as u32),
        },
        TASK_TERMINATE => ObsEvent::TaskTerminate {
            tid: TaskId::from_raw(vu(&mut pos)? as u32),
        },
        TASK_DELETE => ObsEvent::TaskDelete {
            tid: TaskId::from_raw(vu(&mut pos)? as u32),
        },
        SUSPEND => ObsEvent::Suspend {
            tid: TaskId::from_raw(vu(&mut pos)? as u32),
        },
        RESUME => {
            let tid = TaskId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::Resume {
                tid,
                force: byte(&mut pos)? != 0,
            }
        }
        REL_WAI => ObsEvent::RelWai {
            tid: TaskId::from_raw(vu(&mut pos)? as u32),
        },
        ROT_RDQ => ObsEvent::RotRdq {
            pri: vu(&mut pos)? as u8,
        },
        WUP_TSK => ObsEvent::WupTsk {
            tid: TaskId::from_raw(vu(&mut pos)? as u32),
        },
        WUP_CONSUME => ObsEvent::WupConsume {
            tid: TaskId::from_raw(vu(&mut pos)? as u32),
        },
        DISP_CTL => ObsEvent::DispCtl {
            disabled: byte(&mut pos)? != 0,
        },
        PRI_CHANGE => {
            let tid = TaskId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::PriChange {
                tid,
                base: vu(&mut pos)? as u8,
            }
        }
        DISPATCH => {
            let tid = TaskId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::Dispatch {
                tid,
                pri: vu(&mut pos)? as u8,
            }
        }
        PREEMPT => ObsEvent::Preempt {
            tid: TaskId::from_raw(vu(&mut pos)? as u32),
        },
        BLOCK => {
            let tid = TaskId::from_raw(vu(&mut pos)? as u32);
            let obj = get_wait_obj(payload, &mut pos)?;
            ObsEvent::Block {
                tid,
                obj,
                deadline_tick: get_opt_u64(payload, &mut pos)?,
            }
        }
        WAKEUP => {
            let tid = TaskId::from_raw(vu(&mut pos)? as u32);
            let obj = get_wait_obj(payload, &mut pos)?;
            ObsEvent::Wakeup {
                tid,
                obj,
                code: wake_code_from_bits(byte(&mut pos)?)?,
            }
        }
        TIMER_FIRE => {
            let tid = TaskId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::TimerFire {
                tid,
                tick: vu(&mut pos)?,
            }
        }
        SEM_CREATE => {
            let id = SemId::from_raw(vu(&mut pos)? as u32);
            let init = vu(&mut pos)? as u32;
            let max = vu(&mut pos)? as u32;
            ObsEvent::SemCreate {
                id,
                init,
                max,
                pri_order: byte(&mut pos)? != 0,
            }
        }
        SEM_SIGNAL => {
            let id = SemId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::SemSignal {
                id,
                cnt: vu(&mut pos)? as u32,
            }
        }
        SEM_TAKE => {
            let id = SemId::from_raw(vu(&mut pos)? as u32);
            let tid = TaskId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::SemTake {
                id,
                tid,
                cnt: vu(&mut pos)? as u32,
            }
        }
        FLAG_CREATE => {
            let id = FlgId::from_raw(vu(&mut pos)? as u32);
            let init = vu(&mut pos)? as u32;
            ObsEvent::FlagCreate {
                id,
                init,
                pri_order: byte(&mut pos)? != 0,
            }
        }
        FLAG_SET => {
            let id = FlgId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::FlagSet {
                id,
                ptn: vu(&mut pos)? as u32,
            }
        }
        FLAG_CLEAR => {
            let id = FlgId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::FlagClear {
                id,
                mask: vu(&mut pos)? as u32,
            }
        }
        FLAG_TAKE => {
            let id = FlgId::from_raw(vu(&mut pos)? as u32);
            let tid = TaskId::from_raw(vu(&mut pos)? as u32);
            let ptn = vu(&mut pos)? as u32;
            ObsEvent::FlagTake {
                id,
                tid,
                ptn,
                mode: flag_mode_from_bits(byte(&mut pos)?),
            }
        }
        MBX_CREATE => {
            let id = MbxId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::MbxCreate {
                id,
                pri_order: byte(&mut pos)? != 0,
            }
        }
        MBX_SEND => ObsEvent::MbxSend {
            id: MbxId::from_raw(vu(&mut pos)? as u32),
        },
        MBX_TAKE => {
            let id = MbxId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::MbxTake {
                id,
                tid: TaskId::from_raw(vu(&mut pos)? as u32),
            }
        }
        MBF_CREATE => {
            let id = MbfId::from_raw(vu(&mut pos)? as u32);
            let bufsz = vu(&mut pos)? as usize;
            let maxmsz = vu(&mut pos)? as usize;
            ObsEvent::MbfCreate {
                id,
                bufsz,
                maxmsz,
                pri_order: byte(&mut pos)? != 0,
            }
        }
        MBF_SEND => {
            let id = MbfId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::MbfSend {
                id,
                len: vu(&mut pos)? as usize,
            }
        }
        MBF_RECV => {
            let id = MbfId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::MbfRecv {
                id,
                tid: TaskId::from_raw(vu(&mut pos)? as u32),
            }
        }
        MTX_CREATE => {
            let id = MtxId::from_raw(vu(&mut pos)? as u32);
            let policy = match byte(&mut pos)? {
                0 => MtxPolicy::Fifo,
                1 => MtxPolicy::Pri,
                2 => MtxPolicy::Inherit,
                3 => MtxPolicy::Ceiling(vu(&mut pos)? as u8),
                other => return Err(CodecError::Malformed(format!("mutex policy tag {other}"))),
            };
            ObsEvent::MtxCreate { id, policy }
        }
        MTX_LOCK => {
            let id = MtxId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::MtxLock {
                id,
                tid: TaskId::from_raw(vu(&mut pos)? as u32),
            }
        }
        MTX_UNLOCK => {
            let id = MtxId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::MtxUnlock {
                id,
                tid: TaskId::from_raw(vu(&mut pos)? as u32),
            }
        }
        MPF_CREATE => {
            let id = MpfId::from_raw(vu(&mut pos)? as u32);
            let blocks = vu(&mut pos)? as usize;
            ObsEvent::MpfCreate {
                id,
                blocks,
                pri_order: byte(&mut pos)? != 0,
            }
        }
        MPF_TAKE => {
            let id = MpfId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::MpfTake {
                id,
                tid: TaskId::from_raw(vu(&mut pos)? as u32),
            }
        }
        MPF_REL => ObsEvent::MpfRel {
            id: MpfId::from_raw(vu(&mut pos)? as u32),
        },
        MPL_CREATE => {
            let id = MplId::from_raw(vu(&mut pos)? as u32);
            let size = vu(&mut pos)? as usize;
            ObsEvent::MplCreate {
                id,
                size,
                pri_order: byte(&mut pos)? != 0,
            }
        }
        MPL_TAKE => {
            let id = MplId::from_raw(vu(&mut pos)? as u32);
            let tid = TaskId::from_raw(vu(&mut pos)? as u32);
            let size = vu(&mut pos)? as usize;
            ObsEvent::MplTake {
                id,
                tid,
                size,
                off: vu(&mut pos)? as usize,
            }
        }
        MPL_REL => {
            let id = MplId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::MplRel {
                id,
                off: vu(&mut pos)? as usize,
            }
        }
        CYC_CREATE => {
            let id = CycId::from_raw(vu(&mut pos)? as u32);
            let period_ticks = vu(&mut pos)?;
            ObsEvent::CycCreate {
                id,
                period_ticks,
                first_tick: get_opt_u64(payload, &mut pos)?,
            }
        }
        CYC_START => {
            let id = CycId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::CycStart {
                id,
                at_tick: vu(&mut pos)?,
            }
        }
        CYC_STOP => ObsEvent::CycStop {
            id: CycId::from_raw(vu(&mut pos)? as u32),
        },
        CYC_FIRE => {
            let id = CycId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::CycFire {
                id,
                tick: vu(&mut pos)?,
            }
        }
        ALM_ARM => {
            let id = AlmId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::AlmArm {
                id,
                at_tick: vu(&mut pos)?,
            }
        }
        ALM_STOP => ObsEvent::AlmStop {
            id: AlmId::from_raw(vu(&mut pos)? as u32),
        },
        ALM_FIRE => {
            let id = AlmId::from_raw(vu(&mut pos)? as u32);
            ObsEvent::AlmFire {
                id,
                tick: vu(&mut pos)?,
            }
        }
        _ => return Ok(None), // future grammar: skip by record length
    };
    // Trailing payload bytes are tolerated: a future grammar may append
    // fields to an existing variant (docs/TRACE_FORMAT.md, "Evolving
    // the format").
    Ok(Some((tick_delta, ev)))
}

fn wake_code_bits(c: WakeCode) -> u8 {
    match c {
        WakeCode::Ok => 0,
        WakeCode::Timeout => 1,
        WakeCode::Released => 2,
        WakeCode::Deleted => 3,
    }
}

fn wake_code_from_bits(b: u8) -> Result<WakeCode, CodecError> {
    Ok(match b {
        0 => WakeCode::Ok,
        1 => WakeCode::Timeout,
        2 => WakeCode::Released,
        3 => WakeCode::Deleted,
        other => return Err(CodecError::Malformed(format!("wake code {other}"))),
    })
}

// ---------------------------------------------------------------------------
// whole-trace encode / decode
// ---------------------------------------------------------------------------

/// Encodes a complete trace into one byte vector (used by tests and to
/// pin adversarial streams as golden fixtures; the streaming path is
/// [`TraceWriter`]).
pub fn encode_trace(
    header: &TraceHeader,
    events: &[StampedEvent],
    trailer: Option<TraceTrailer>,
) -> Vec<u8> {
    let mut out = encode_header(header);
    let mut payload = Vec::with_capacity(32);
    let mut last_tick = 0u64;
    for se in events {
        payload.clear();
        encode_payload(&mut payload, se.tick.saturating_sub(last_tick), &se.ev);
        last_tick = se.tick;
        put_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
    }
    if let Some(t) = trailer {
        out.push(0);
        out.push(match t.close {
            StreamClose::Clean => 0,
            StreamClose::Aborted => 1,
        });
        put_varint(&mut out, t.events);
        put_varint(&mut out, t.dropped);
    }
    out
}

/// A fully decoded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedTrace {
    /// Run provenance.
    pub header: TraceHeader,
    /// The event stream (records with unknown future tags skipped).
    pub events: Vec<StampedEvent>,
    /// Records skipped because their tag postdates this reader.
    pub skipped: u64,
    /// `None` when the file has no trailer (writer died mid-run).
    pub trailer: Option<TraceTrailer>,
}

impl DecodedTrace {
    /// `true` when the file carries a trailer, i.e. the writer closed
    /// the stream (cleanly or on abort) rather than dying mid-write.
    pub fn complete(&self) -> bool {
        self.trailer.is_some()
    }
}

/// Decodes a whole trace from memory.
pub fn decode_trace(bytes: &[u8]) -> Result<DecodedTrace, CodecError> {
    let (header, mut pos) = decode_header(bytes)?;
    let mut events = Vec::new();
    let mut skipped = 0u64;
    let mut last_tick = 0u64;
    let mut trailer = None;
    while pos < bytes.len() {
        let len = get_varint(bytes, &mut pos)? as usize;
        if len == 0 {
            let close = match bytes.get(pos).copied() {
                Some(0) => StreamClose::Clean,
                Some(1) => StreamClose::Aborted,
                Some(other) => return Err(CodecError::Malformed(format!("close flag {other}"))),
                None => return Err(CodecError::Truncated("trailer")),
            };
            pos += 1;
            let total = get_varint(bytes, &mut pos)?;
            let dropped = get_varint(bytes, &mut pos)?;
            trailer = Some(TraceTrailer {
                close,
                events: total,
                dropped,
            });
            break;
        }
        let payload = bytes
            .get(pos..pos + len)
            .ok_or(CodecError::Truncated("record"))?;
        pos += len;
        match decode_payload(payload)? {
            Some((delta, ev)) => {
                last_tick += delta;
                events.push(StampedEvent {
                    tick: last_tick,
                    ev,
                });
            }
            None => skipped += 1,
        }
    }
    Ok(DecodedTrace {
        header,
        events,
        skipped,
        trailer,
    })
}

/// Reads and decodes a trace file.
pub fn read_trace(path: &Path) -> Result<DecodedTrace, CodecError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    decode_trace(&bytes)
}

// ---------------------------------------------------------------------------
// the streaming writer (an ObsStream backend)
// ---------------------------------------------------------------------------

/// Result of a finished [`TraceWriter`], read through
/// [`TraceWriterHandle`] after the stream closes.
#[derive(Debug, Clone)]
pub struct WriteSummary {
    /// Path of the trace file.
    pub path: PathBuf,
    /// Events written to the file.
    pub written: u64,
    /// Events declined (capacity cap reached, or after an I/O error).
    pub dropped: u64,
    /// First I/O error, if any (the writer stops accepting after one).
    pub error: Option<String>,
}

/// A [`StreamSink`] backend that serialises the stream into a binary
/// trace file as it happens (bounded memory: one encode buffer plus
/// the `BufWriter`).
///
/// With a non-zero `cap`, at most `cap` events are written; the rest
/// are declined and appear in the trailer's (and the owning
/// `ObsStream`'s) drop count — deterministic bounded capture.
pub struct TraceWriter {
    out: BufWriter<File>,
    buf: Vec<u8>,
    last_tick: u64,
    written: u64,
    dropped: u64,
    cap: u64,
    shared: Rc<RefCell<Option<WriteSummary>>>,
    path: PathBuf,
    error: Option<String>,
}

/// Reader side of a [`TraceWriter`]: yields the [`WriteSummary`] once
/// the owning stream has closed.
#[derive(Debug, Clone)]
pub struct TraceWriterHandle {
    shared: Rc<RefCell<Option<WriteSummary>>>,
}

impl TraceWriterHandle {
    /// The summary, once [`StreamSink::close`] has run.
    pub fn summary(&self) -> Option<WriteSummary> {
        self.shared.borrow().clone()
    }
}

impl TraceWriter {
    /// Creates the file, writes the header, and returns the sink plus
    /// its result handle. `cap == 0` means unlimited.
    pub fn create(
        path: &Path,
        header: &TraceHeader,
        cap: u64,
    ) -> io::Result<(TraceWriter, TraceWriterHandle)> {
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        out.write_all(&encode_header(header))?;
        let shared = Rc::new(RefCell::new(None));
        Ok((
            TraceWriter {
                out,
                buf: Vec::with_capacity(64),
                last_tick: 0,
                written: 0,
                dropped: 0,
                cap: if cap == 0 { u64::MAX } else { cap },
                shared: Rc::clone(&shared),
                path: path.to_path_buf(),
                error: None,
            },
            TraceWriterHandle { shared },
        ))
    }

    fn write_event(&mut self, se: &StampedEvent) -> io::Result<()> {
        self.buf.clear();
        encode_payload(
            &mut self.buf,
            se.tick.saturating_sub(self.last_tick),
            &se.ev,
        );
        let mut len = Vec::with_capacity(2);
        put_varint(&mut len, self.buf.len() as u64);
        self.out.write_all(&len)?;
        self.out.write_all(&self.buf)?;
        self.last_tick = se.tick;
        Ok(())
    }
}

impl StreamSink for TraceWriter {
    fn batch(&mut self, events: &[StampedEvent]) -> usize {
        if self.error.is_some() {
            self.dropped += events.len() as u64;
            return 0;
        }
        let room = self.cap.saturating_sub(self.written);
        let n = (room.min(events.len() as u64)) as usize;
        for (i, se) in events[..n].iter().enumerate() {
            if let Err(e) = self.write_event(se) {
                self.error = Some(e.to_string());
                self.dropped += (events.len() - i) as u64;
                return i;
            }
            self.written += 1;
        }
        self.dropped += (events.len() - n) as u64;
        n
    }

    fn close(&mut self, how: StreamClose) {
        if self.error.is_none() {
            let mut tail = vec![
                0u8,
                match how {
                    StreamClose::Clean => 0,
                    StreamClose::Aborted => 1,
                },
            ];
            put_varint(&mut tail, self.written + self.dropped);
            put_varint(&mut tail, self.dropped);
            if let Err(e) = self.out.write_all(&tail).and_then(|()| self.out.flush()) {
                self.error = Some(e.to_string());
            }
        }
        *self.shared.borrow_mut() = Some(WriteSummary {
            path: self.path.clone(),
            written: self.written,
            dropped: self.dropped,
            error: self.error.clone(),
        });
    }
}

impl fmt::Debug for TraceWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceWriter")
            .field("path", &self.path)
            .field("written", &self.written)
            .field("dropped", &self.dropped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<StampedEvent> {
        let tid = TaskId::from_raw(7);
        vec![
            StampedEvent {
                tick: 0,
                ev: ObsEvent::TaskCreate { tid, pri: 10 },
            },
            StampedEvent {
                tick: 0,
                ev: ObsEvent::MtxCreate {
                    id: MtxId::from_raw(1),
                    policy: MtxPolicy::Ceiling(5),
                },
            },
            StampedEvent {
                tick: 2,
                ev: ObsEvent::Block {
                    tid,
                    obj: WaitObj::Flag(FlgId::from_raw(3), 0b101, FlagWaitMode::AND.with_clear()),
                    deadline_tick: Some(17),
                },
            },
            StampedEvent {
                tick: 17,
                ev: ObsEvent::Wakeup {
                    tid,
                    obj: WaitObj::Flag(FlgId::from_raw(3), 0b101, FlagWaitMode::AND.with_clear()),
                    code: WakeCode::Timeout,
                },
            },
            StampedEvent {
                tick: 18,
                ev: ObsEvent::CycCreate {
                    id: CycId::from_raw(2),
                    period_ticks: 5,
                    first_tick: None,
                },
            },
        ]
    }

    #[test]
    fn round_trip_preserves_everything() {
        let header = TraceHeader::new(99, "mtx_inherit", "coro");
        let events = sample_events();
        let bytes = encode_trace(&header, &events, Some(TraceTrailer::clean(5)));
        let decoded = decode_trace(&bytes).unwrap();
        assert_eq!(decoded.header, header);
        assert_eq!(decoded.events, events);
        assert_eq!(decoded.skipped, 0);
        assert_eq!(decoded.trailer, Some(TraceTrailer::clean(5)));
        // Re-encoding the decoded stream is byte-identical.
        let again = encode_trace(&decoded.header, &decoded.events, decoded.trailer);
        assert_eq!(bytes, again);
    }

    #[test]
    fn every_variant_round_trips() {
        // One of each tag, exercising every field codec path.
        let tid = TaskId::from_raw(3);
        let evs = vec![
            ObsEvent::TaskCreate { tid, pri: 1 },
            ObsEvent::TaskStart { tid },
            ObsEvent::TaskExit { tid },
            ObsEvent::TaskTerminate { tid },
            ObsEvent::TaskDelete { tid },
            ObsEvent::Suspend { tid },
            ObsEvent::Resume { tid, force: true },
            ObsEvent::RelWai { tid },
            ObsEvent::RotRdq { pri: 140 },
            ObsEvent::WupTsk { tid },
            ObsEvent::WupConsume { tid },
            ObsEvent::DispCtl { disabled: true },
            ObsEvent::PriChange { tid, base: 9 },
            ObsEvent::Dispatch { tid, pri: 9 },
            ObsEvent::Preempt { tid },
            ObsEvent::Block {
                tid,
                obj: WaitObj::Sleep,
                deadline_tick: None,
            },
            ObsEvent::Wakeup {
                tid,
                obj: WaitObj::MbfSend(MbfId::from_raw(1), 8),
                code: WakeCode::Released,
            },
            ObsEvent::TimerFire { tid, tick: 1 << 40 },
            ObsEvent::SemCreate {
                id: SemId::from_raw(1),
                init: 1,
                max: u32::MAX,
                pri_order: true,
            },
            ObsEvent::SemSignal {
                id: SemId::from_raw(1),
                cnt: 2,
            },
            ObsEvent::SemTake {
                id: SemId::from_raw(1),
                tid,
                cnt: 1,
            },
            ObsEvent::FlagCreate {
                id: FlgId::from_raw(1),
                init: 0,
                pri_order: false,
            },
            ObsEvent::FlagSet {
                id: FlgId::from_raw(1),
                ptn: 0xffff_ffff,
            },
            ObsEvent::FlagClear {
                id: FlgId::from_raw(1),
                mask: 0,
            },
            ObsEvent::FlagTake {
                id: FlgId::from_raw(1),
                tid,
                ptn: 5,
                mode: FlagWaitMode::OR.with_bitclear(),
            },
            ObsEvent::MbxCreate {
                id: MbxId::from_raw(1),
                pri_order: true,
            },
            ObsEvent::MbxSend {
                id: MbxId::from_raw(1),
            },
            ObsEvent::MbxTake {
                id: MbxId::from_raw(1),
                tid,
            },
            ObsEvent::MbfCreate {
                id: MbfId::from_raw(1),
                bufsz: 16,
                maxmsz: 8,
                pri_order: false,
            },
            ObsEvent::MbfSend {
                id: MbfId::from_raw(1),
                len: 3,
            },
            ObsEvent::MbfRecv {
                id: MbfId::from_raw(1),
                tid,
            },
            ObsEvent::MtxCreate {
                id: MtxId::from_raw(1),
                policy: MtxPolicy::Fifo,
            },
            ObsEvent::MtxLock {
                id: MtxId::from_raw(1),
                tid,
            },
            ObsEvent::MtxUnlock {
                id: MtxId::from_raw(1),
                tid,
            },
            ObsEvent::MpfCreate {
                id: MpfId::from_raw(1),
                blocks: 4,
                pri_order: true,
            },
            ObsEvent::MpfTake {
                id: MpfId::from_raw(1),
                tid,
            },
            ObsEvent::MpfRel {
                id: MpfId::from_raw(1),
            },
            ObsEvent::MplCreate {
                id: MplId::from_raw(1),
                size: 256,
                pri_order: false,
            },
            ObsEvent::MplTake {
                id: MplId::from_raw(1),
                tid,
                size: 24,
                off: 8,
            },
            ObsEvent::MplRel {
                id: MplId::from_raw(1),
                off: 8,
            },
            ObsEvent::CycCreate {
                id: CycId::from_raw(1),
                period_ticks: 5,
                first_tick: Some(1),
            },
            ObsEvent::CycStart {
                id: CycId::from_raw(1),
                at_tick: 6,
            },
            ObsEvent::CycStop {
                id: CycId::from_raw(1),
            },
            ObsEvent::CycFire {
                id: CycId::from_raw(1),
                tick: 6,
            },
            ObsEvent::AlmArm {
                id: AlmId::from_raw(1),
                at_tick: 9,
            },
            ObsEvent::AlmStop {
                id: AlmId::from_raw(1),
            },
            ObsEvent::AlmFire {
                id: AlmId::from_raw(1),
                tick: 9,
            },
        ];
        let stamped: Vec<StampedEvent> = evs
            .into_iter()
            .enumerate()
            .map(|(i, ev)| StampedEvent { tick: i as u64, ev })
            .collect();
        let header = TraceHeader::new(1, "independent", "threaded");
        let n = stamped.len() as u64;
        let bytes = encode_trace(&header, &stamped, Some(TraceTrailer::clean(n)));
        let decoded = decode_trace(&bytes).unwrap();
        assert_eq!(decoded.events, stamped);
    }

    #[test]
    fn unknown_event_tags_are_skipped_not_fatal() {
        let header = TraceHeader::new(1, "independent", "coro");
        let mut bytes = encode_header(&header);
        // A record with a tag from the future (200), 3 payload bytes.
        bytes.extend_from_slice(&[3, 200, 0, 0]);
        // Followed by a record this reader knows.
        let mut payload = Vec::new();
        encode_payload(
            &mut payload,
            0,
            &ObsEvent::TaskStart {
                tid: TaskId::from_raw(1),
            },
        );
        put_varint(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(&payload);
        let decoded = decode_trace(&bytes).unwrap();
        assert_eq!(decoded.skipped, 1);
        assert_eq!(decoded.events.len(), 1);
        assert!(!decoded.complete(), "no trailer was written");
    }

    #[test]
    fn truncation_is_detected() {
        let header = TraceHeader::new(1, "independent", "coro");
        let events = sample_events();
        let bytes = encode_trace(&header, &events, Some(TraceTrailer::clean(5)));
        // Chopping inside a record is an error…
        assert!(
            decode_trace(&bytes[..bytes.len() / 2]).is_err() || {
                // …unless the chop landed exactly on a record boundary, in
                // which case the trace decodes but has no trailer.
                let d = decode_trace(&bytes[..bytes.len() / 2]).unwrap();
                !d.complete()
            }
        );
        assert!(matches!(
            decode_trace(b"NOPE"),
            Err(CodecError::BadMagic) | Err(CodecError::Truncated(_))
        ));
    }

    #[test]
    fn writer_caps_and_accounts_drops() {
        let dir = std::env::temp_dir().join(format!("rtk_codec_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("capped.rtkt");
        let header = TraceHeader::new(5, "independent", "coro");
        let (mut w, handle) = TraceWriter::create(&path, &header, 3).unwrap();
        let events = sample_events();
        let accepted = w.batch(&events);
        assert_eq!(accepted, 3);
        w.close(StreamClose::Clean);
        let summary = handle.summary().unwrap();
        assert_eq!((summary.written, summary.dropped), (3, 2));
        assert!(summary.error.is_none());
        let decoded = read_trace(&path).unwrap();
        assert_eq!(decoded.events, events[..3]);
        assert_eq!(
            decoded.trailer,
            Some(TraceTrailer {
                close: StreamClose::Clean,
                events: 5,
                dropped: 2,
            })
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A write that fails after the file was created (here ENOSPC from
    /// `/dev/full`, once the `BufWriter` spills) lands in the summary,
    /// and every offered event is accounted as written or dropped.
    #[test]
    #[cfg(target_os = "linux")]
    #[cfg_attr(miri, ignore)]
    fn write_error_mid_run_is_reported() {
        let header = TraceHeader::new(6, "independent", "coro");
        let (mut w, handle) = TraceWriter::create(Path::new("/dev/full"), &header, 0).unwrap();
        let events = sample_events();
        // Far more than one 8 KiB `BufWriter` worth of records.
        let mut offered = 0u64;
        for _ in 0..2_000 {
            w.batch(&events);
            offered += events.len() as u64;
        }
        w.close(StreamClose::Clean);
        let summary = handle.summary().unwrap();
        assert!(summary.error.is_some(), "{summary:?}");
        assert!(summary.dropped > 0, "{summary:?}");
        assert_eq!(summary.written + summary.dropped, offered);
    }
}
