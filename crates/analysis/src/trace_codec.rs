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

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

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
        if shift == 63 && byte > 1 {
            // The tenth byte holds bit 63 alone: more is a value wider
            // than 64 bits, or an eleventh byte.
            break;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(CodecError::Malformed("varint wider than 64 bits".into()))
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
// fields: one `Wire` impl per row of the "Field encodings" table
// ---------------------------------------------------------------------------

/// The wire form of one field type. The impls below are the rows of
/// the "Field encodings" table in `docs/TRACE_FORMAT.md`. `get` refuses
/// a value its type cannot hold, so no field is narrowed silently.
trait Wire: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError>;
}

fn get_byte(bytes: &[u8], pos: &mut usize, what: &'static str) -> Result<u8, CodecError> {
    let byte = *bytes.get(*pos).ok_or(CodecError::Truncated(what))?;
    *pos += 1;
    Ok(byte)
}

impl Wire for u64 {
    fn put(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }
    fn get(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        get_varint(bytes, pos)
    }
}

#[cold]
fn out_of_range(v: u64, int: &str) -> CodecError {
    CodecError::Malformed(format!("{v} exceeds {int}::MAX"))
}

/// Priorities (`u8`), counts and patterns (`u32`), sizes and offsets
/// (`usize`): a varint that must fit the field's type.
macro_rules! narrow_varint {
    ($($int:ty),+) => {$(
        impl Wire for $int {
            fn put(&self, buf: &mut Vec<u8>) {
                put_varint(buf, *self as u64);
            }
            fn get(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
                let v = get_varint(bytes, pos)?;
                <$int>::try_from(v).map_err(|_| out_of_range(v, stringify!($int)))
            }
        }
    )+};
}
narrow_varint!(u8, u32, usize);

/// Object ids: the raw `u32`.
macro_rules! object_id {
    ($($id:ident),+) => {$(
        impl Wire for $id {
            fn put(&self, buf: &mut Vec<u8>) {
                self.raw().put(buf);
            }
            fn get(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
                u32::get(bytes, pos).map($id::from_raw)
            }
        }
    )+};
}
object_id!(TaskId, SemId, FlgId, MbxId, MbfId, MtxId, MpfId, MplId, CycId, AlmId);

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn get(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        match get_byte(bytes, pos, "bool")? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Malformed(format!("bool byte {other}"))),
        }
    }
}

impl Wire for Option<u64> {
    fn put(&self, buf: &mut Vec<u8>) {
        self.is_some().put(buf);
        if let Some(v) = self {
            v.put(buf);
        }
    }
    fn get(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        if bool::get(bytes, pos)? {
            u64::get(bytes, pos).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl Wire for FlagWaitMode {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(
            u8::from(self.and) | (u8::from(self.clear_all) << 1) | (u8::from(self.clear_bits) << 2),
        );
    }
    fn get(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        let bits = get_byte(bytes, pos, "flag mode")?;
        Ok(FlagWaitMode {
            and: bits & 1 != 0,
            clear_all: bits & 2 != 0,
            clear_bits: bits & 4 != 0,
        })
    }
}

/// Sub-tagged enums: one tag byte, then the variant's fields in order.
/// An unknown tag is malformed.
macro_rules! sub_tagged {
    ($ty:ident, $what:literal: $($tag:literal => $var:ident $(($($f:ident),+))?,)+) => {
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                match *self {
                    $($ty::$var $(($($f),+))? => {
                        buf.push($tag);
                        $($($f.put(buf);)+)?
                    })+
                }
            }
            fn get(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
                Ok(match get_byte(bytes, pos, $what)? {
                    $($tag => $ty::$var $(($({
                        let $f = Wire::get(bytes, pos)?;
                        $f
                    }),+))?,)+
                    other => {
                        return Err(CodecError::Malformed(format!(concat!($what, " {}"), other)))
                    }
                })
            }
        }
    };
}

sub_tagged! { WaitObj, "wait-obj tag":
    0 => Sleep,
    1 => Delay,
    2 => Sem(id, count),
    3 => Flag(id, pattern, mode),
    4 => Mbx(id),
    5 => MbfSend(id, len),
    6 => MbfRecv(id),
    7 => Mtx(id),
    8 => Mpf(id),
    9 => Mpl(id, size),
}
sub_tagged! { MtxPolicy, "mutex policy tag": 0 => Fifo, 1 => Pri, 2 => Inherit, 3 => Ceiling(pri), }
sub_tagged! { WakeCode, "wake code": 0 => Ok, 1 => Timeout, 2 => Released, 3 => Deleted, }
sub_tagged! { StreamClose, "close flag": 0 => Clean, 1 => Aborted, }

impl Wire for TraceTrailer {
    fn put(&self, buf: &mut Vec<u8>) {
        self.close.put(buf);
        self.events.put(buf);
        self.dropped.put(buf);
    }
    fn get(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        Ok(TraceTrailer {
            close: Wire::get(bytes, pos)?,
            events: Wire::get(bytes, pos)?,
            dropped: Wire::get(bytes, pos)?,
        })
    }
}

// ---------------------------------------------------------------------------
// event payloads: the "Event tags" table
// ---------------------------------------------------------------------------

/// Expands the event table into `encode_payload` and `decode_payload`.
/// The encoder's `match` is exhaustive, so an `ObsEvent` variant
/// without a row, or a row missing a field, does not compile.
macro_rules! event_table {
    ($($tag:literal => $var:ident { $($field:ident),+ },)+) => {
        fn encode_payload(buf: &mut Vec<u8>, tick_delta: u64, ev: &ObsEvent) {
            match *ev {
                $(ObsEvent::$var { $($field),+ } => {
                    buf.push($tag);
                    tick_delta.put(buf);
                    $($field.put(buf);)+
                })+
            }
        }

        /// Decodes one payload. `Ok(None)` means the tag is unknown to
        /// this reader (written by a newer grammar): the caller skips
        /// the record, the documented forward-compatibility behaviour.
        /// Trailing payload bytes are tolerated, since a future grammar
        /// may append fields to an existing variant.
        fn decode_payload(payload: &[u8]) -> Result<Option<(u64, ObsEvent)>, CodecError> {
            let mut pos = 0;
            let tag = get_byte(payload, &mut pos, "record tag")?;
            let tick_delta = get_varint(payload, &mut pos)?;
            let ev = match tag {
                $($tag => ObsEvent::$var { $($field: Wire::get(payload, &mut pos)?),+ },)+
                _ => return Ok(None),
            };
            Ok(Some((tick_delta, ev)))
        }
    };
}

// One row per tag of the "Event tags" table in `docs/TRACE_FORMAT.md`,
// fields in wire order. Tags are append-only: a retired variant's tag
// is never reused.
event_table! {
    1 => TaskCreate { tid, pri },
    2 => TaskStart { tid },
    3 => TaskExit { tid },
    4 => TaskTerminate { tid },
    5 => TaskDelete { tid },
    6 => Suspend { tid },
    7 => Resume { tid, force },
    8 => RelWai { tid },
    9 => RotRdq { pri },
    10 => WupTsk { tid },
    11 => WupConsume { tid },
    12 => DispCtl { disabled },
    13 => PriChange { tid, base },
    14 => Dispatch { tid, pri },
    15 => Preempt { tid },
    16 => Block { tid, obj, deadline_tick },
    17 => Wakeup { tid, obj, code },
    18 => TimerFire { tid, tick },
    19 => SemCreate { id, init, max, pri_order },
    20 => SemSignal { id, cnt },
    21 => SemTake { id, tid, cnt },
    22 => FlagCreate { id, init, pri_order },
    23 => FlagSet { id, ptn },
    24 => FlagClear { id, mask },
    25 => FlagTake { id, tid, ptn, mode },
    26 => MbxCreate { id, pri_order },
    27 => MbxSend { id },
    28 => MbxTake { id, tid },
    29 => MbfCreate { id, bufsz, maxmsz, pri_order },
    30 => MbfSend { id, len },
    31 => MbfRecv { id, tid },
    32 => MtxCreate { id, policy },
    33 => MtxLock { id, tid },
    34 => MtxUnlock { id, tid },
    35 => MpfCreate { id, blocks, pri_order },
    36 => MpfTake { id, tid },
    37 => MpfRel { id },
    38 => MplCreate { id, size, pri_order },
    39 => MplTake { id, tid, size, off },
    40 => MplRel { id, off },
    41 => CycCreate { id, period_ticks, first_tick },
    42 => CycStart { id, at_tick },
    43 => CycStop { id },
    44 => CycFire { id, tick },
    45 => AlmArm { id, at_tick },
    46 => AlmStop { id },
    47 => AlmFire { id, tick },
}

// ---------------------------------------------------------------------------
// whole-trace encode / decode
// ---------------------------------------------------------------------------

/// Appends `se` as one record, its tick delta-encoded against
/// `*last_tick`. [`encode_trace`] and [`TraceWriter`] both frame here.
fn put_record(out: &mut Vec<u8>, last_tick: &mut u64, se: &StampedEvent) {
    let at = out.len();
    out.push(0); // the payload length, set below
    encode_payload(out, se.tick.saturating_sub(*last_tick), &se.ev);
    *last_tick = se.tick;
    // Every payload fits a one-byte length varint: the widest, a
    // `Block` on an `Mpl` wait with a deadline, is 43 bytes.
    let len = out.len() - at - 1;
    out[at] = u8::try_from(len)
        .ok()
        .filter(|&len| len < 0x80)
        .expect("a payload is at most 43 bytes");
}

/// Appends the trailer: a zero record length, then the trailer fields.
fn put_trailer(out: &mut Vec<u8>, trailer: &TraceTrailer) {
    out.push(0);
    trailer.put(out);
}

/// Encodes a complete trace into one byte vector (used by tests and to
/// pin adversarial streams as golden fixtures; the streaming path is
/// [`TraceWriter`]).
pub fn encode_trace(
    header: &TraceHeader,
    events: &[StampedEvent],
    trailer: Option<TraceTrailer>,
) -> Vec<u8> {
    let mut out = encode_header(header);
    let mut last_tick = 0u64;
    for se in events {
        put_record(&mut out, &mut last_tick, se);
    }
    if let Some(t) = trailer {
        put_trailer(&mut out, &t);
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
        let len = get_varint(bytes, &mut pos)?;
        if len == 0 {
            trailer = Some(TraceTrailer::get(bytes, &mut pos)?);
            break;
        }
        // Sliced without `pos + len`, which a hostile length overflows.
        let payload = usize::try_from(len)
            .ok()
            .and_then(|len| bytes.get(pos..)?.get(..len))
            .ok_or(CodecError::Truncated("record"))?;
        pos += payload.len();
        match decode_payload(payload)? {
            Some((delta, ev)) => {
                last_tick = last_tick
                    .checked_add(delta)
                    .ok_or_else(|| CodecError::Malformed("tick stamp past u64::MAX".into()))?;
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
// the streaming writer (an ObsStream sink)
// ---------------------------------------------------------------------------

/// What a [`TraceWriter`] did, read with [`TraceWriter::summary`]
/// (final once the stream has closed the writer).
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

/// A [`StreamSink`] that serialises the stream into a binary trace
/// file as it happens (bounded memory: one encode buffer plus the
/// `BufWriter`).
///
/// With a non-zero `cap`, at most `cap` events are written; the rest
/// are declined and counted in [`WriteSummary::dropped`] and the
/// trailer's drop count — deterministic bounded capture. The writer is
/// the only sink that ever declines an event.
pub struct TraceWriter {
    out: BufWriter<File>,
    buf: Vec<u8>,
    last_tick: u64,
    written: u64,
    dropped: u64,
    cap: u64,
    path: PathBuf,
    error: Option<String>,
}

impl TraceWriter {
    /// Creates the file and writes the header. `cap == 0` means
    /// unlimited.
    pub fn create(path: &Path, header: &TraceHeader, cap: u64) -> io::Result<TraceWriter> {
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        out.write_all(&encode_header(header))?;
        Ok(TraceWriter {
            out,
            buf: Vec::with_capacity(64),
            last_tick: 0,
            written: 0,
            dropped: 0,
            cap: if cap == 0 { u64::MAX } else { cap },
            path: path.to_path_buf(),
            error: None,
        })
    }

    /// What the writer has done so far.
    pub fn summary(&self) -> WriteSummary {
        WriteSummary {
            path: self.path.clone(),
            written: self.written,
            dropped: self.dropped,
            error: self.error.clone(),
        }
    }

    fn write_event(&mut self, se: &StampedEvent) -> io::Result<()> {
        self.buf.clear();
        put_record(&mut self.buf, &mut self.last_tick, se);
        self.out.write_all(&self.buf)
    }
}

impl StreamSink for TraceWriter {
    /// Writes the prefix of `events` the cap leaves room for and counts
    /// the rest as dropped; after an I/O error, drops everything.
    fn batch(&mut self, events: &[StampedEvent]) {
        let room = match self.error {
            Some(_) => 0,
            None => self.cap - self.written,
        };
        let mut accepted = 0;
        for se in events.iter().take(room.min(events.len() as u64) as usize) {
            if let Err(e) = self.write_event(se) {
                self.error = Some(e.to_string());
                break;
            }
            accepted += 1;
        }
        self.written += accepted as u64;
        self.dropped += (events.len() - accepted) as u64;
    }

    fn close(&mut self, how: StreamClose) {
        if self.error.is_none() {
            self.buf.clear();
            let trailer = TraceTrailer {
                close: how,
                events: self.written + self.dropped,
                dropped: self.dropped,
            };
            put_trailer(&mut self.buf, &trailer);
            if let Err(e) = self
                .out
                .write_all(&self.buf)
                .and_then(|()| self.out.flush())
            {
                self.error = Some(e.to_string());
            }
        }
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

    /// The every-form fixture: [`every_form`] as encoded when it was
    /// captured. Regenerate with `cargo test -p rtk-analysis --lib --
    /// --ignored regenerate_every_form_fixture`.
    const EVERY_FORM: &[u8] = include_bytes!("../tests/fixtures/every_form.rtkt");

    /// A trace that uses every wire form: all 47 tags, all ten
    /// `WaitObj` sub-tags, four `FlagWaitMode` bit patterns, every
    /// `MtxPolicy` and `WakeCode`, both `Option` forms, both `bool`
    /// values, the maxima of every field type, a 10-byte tick delta,
    /// header tuning flags and an aborted trailer with drops.
    fn every_form() -> (TraceHeader, Vec<StampedEvent>, TraceTrailer) {
        // One of each tag.
        let tid = TaskId::from_raw(3);
        let mut evs = vec![
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
        // Sub-forms and maxima.
        let max_tid = TaskId::from_raw(u32::MAX);
        let flag = |ptn, mode| WaitObj::Flag(FlgId::from_raw(2), ptn, mode);
        let objs = [
            WaitObj::Sleep,
            WaitObj::Delay,
            WaitObj::Sem(SemId::from_raw(u32::MAX), u32::MAX),
            flag(0b101, FlagWaitMode::OR),
            flag(u32::MAX, FlagWaitMode::AND.with_clear()),
            flag(1, FlagWaitMode::OR.with_bitclear()),
            WaitObj::Mbx(MbxId::from_raw(u32::MAX)),
            WaitObj::MbfSend(MbfId::from_raw(u32::MAX), usize::MAX),
            WaitObj::MbfRecv(MbfId::from_raw(u32::MAX)),
            WaitObj::Mtx(MtxId::from_raw(u32::MAX)),
            WaitObj::Mpf(MpfId::from_raw(u32::MAX)),
            WaitObj::Mpl(MplId::from_raw(u32::MAX), usize::MAX),
        ];
        let codes = [
            WakeCode::Ok,
            WakeCode::Timeout,
            WakeCode::Released,
            WakeCode::Deleted,
        ];
        for (i, obj) in objs.into_iter().enumerate() {
            let deadline_tick = [None, Some(u64::MAX)][i % 2];
            evs.push(ObsEvent::Block {
                tid: max_tid,
                obj,
                deadline_tick,
            });
            evs.push(ObsEvent::Wakeup {
                tid: max_tid,
                obj,
                code: codes[i % 4],
            });
        }
        for policy in [MtxPolicy::Pri, MtxPolicy::Inherit, MtxPolicy::Ceiling(255)] {
            evs.push(ObsEvent::MtxCreate {
                id: MtxId::from_raw(u32::MAX),
                policy,
            });
        }
        evs.extend([
            ObsEvent::TaskCreate {
                tid: max_tid,
                pri: 255,
            },
            ObsEvent::Resume {
                tid: max_tid,
                force: false,
            },
            ObsEvent::DispCtl { disabled: false },
            ObsEvent::RotRdq { pri: 255 },
            ObsEvent::TimerFire {
                tid: max_tid,
                tick: u64::MAX,
            },
            ObsEvent::SemTake {
                id: SemId::from_raw(u32::MAX),
                tid: max_tid,
                cnt: u32::MAX,
            },
            ObsEvent::FlagTake {
                id: FlgId::from_raw(u32::MAX),
                tid: max_tid,
                ptn: u32::MAX,
                mode: FlagWaitMode::AND.with_clear().with_bitclear(),
            },
            ObsEvent::MbfCreate {
                id: MbfId::from_raw(u32::MAX),
                bufsz: usize::MAX,
                maxmsz: usize::MAX,
                pri_order: true,
            },
            ObsEvent::MplTake {
                id: MplId::from_raw(u32::MAX),
                tid: max_tid,
                size: usize::MAX,
                off: usize::MAX,
            },
            ObsEvent::CycCreate {
                id: CycId::from_raw(u32::MAX),
                period_ticks: u64::MAX,
                first_tick: None,
            },
            ObsEvent::AlmFire {
                id: AlmId::from_raw(u32::MAX),
                tick: u64::MAX,
            },
        ]);
        let last = evs.len() - 1;
        let events: Vec<StampedEvent> = evs
            .into_iter()
            .enumerate()
            .map(|(i, ev)| StampedEvent {
                tick: if i == last { u64::MAX } else { i as u64 },
                ev,
            })
            .collect();
        let mut header = TraceHeader::new(1, "independent", "threaded");
        header.tuning = Some(TraceTuning {
            quick: true,
            faults: true,
        });
        let trailer = TraceTrailer {
            close: StreamClose::Aborted,
            events: events.len() as u64 + 2,
            dropped: 2,
        };
        (header, events, trailer)
    }

    #[test]
    fn every_variant_round_trips() {
        let (header, events, trailer) = every_form();
        assert_eq!(
            encode_trace(&header, &events, Some(trailer)),
            EVERY_FORM,
            "encoder output drifted from the every-form fixture"
        );
        let decoded = decode_trace(EVERY_FORM).unwrap();
        assert_eq!(
            decoded,
            DecodedTrace {
                header,
                events,
                skipped: 0,
                trailer: Some(trailer),
            }
        );
    }

    #[test]
    #[ignore = "writes the every-form fixture; run once after a deliberate format change"]
    fn regenerate_every_form_fixture() {
        let (header, events, trailer) = every_form();
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/every_form.rtkt");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, encode_trace(&header, &events, Some(trailer))).unwrap();
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
        let mut w = TraceWriter::create(&path, &header, 3).unwrap();
        let events = sample_events();
        w.batch(&events);
        w.close(StreamClose::Clean);
        let summary = w.summary();
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
        let mut w = TraceWriter::create(Path::new("/dev/full"), &header, 0).unwrap();
        let events = sample_events();
        // Far more than one 8 KiB `BufWriter` worth of records.
        let mut offered = 0u64;
        for _ in 0..2_000 {
            w.batch(&events);
            offered += events.len() as u64;
        }
        w.close(StreamClose::Clean);
        let summary = w.summary();
        assert!(summary.error.is_some(), "{summary:?}");
        assert!(summary.dropped > 0, "{summary:?}");
        assert_eq!(summary.written + summary.dropped, offered);
    }
}
