//! Renders a decoded observation stream (`docs/OBS_GRAMMAR.md`)
//! through the crate's existing instruments, so one captured `.rtkt`
//! trace feeds the Gantt chart, the CSV export, the VCD waveform
//! viewer and Chrome's `about:tracing` — without re-running the
//! simulation.
//!
//! # Time axis
//!
//! The observation grammar stamps events with the kernel tick only;
//! ordering *within* a tick is the stream position. Exporters place an
//! event at `tick * tick_us` microseconds plus its intra-tick ordinal
//! in picoseconds (clamped to stay inside the tick), which preserves
//! the stream order visually while keeping tick boundaries exact. The
//! sub-tick offsets are ordinal placement, not measured time.
//!
//! That axis is a [`SimTime`], a `u64` of picoseconds (about 213 days).
//! A stream stamped past its end, which only a crafted or corrupt trace
//! holds, is refused with [`TimeOverflow`] rather than wrapped.

use std::fmt::{self, Write as _};

use rtk_core::{Energy, ObsEvent, StampedEvent, TaskId, ThreadRef, TraceKind, TraceRecord};
use sysc::{SimTime, Tracer};

use crate::vcd::WaveProbe;

/// An event whose tick stamp, at the stream's tick length, lies past
/// the last picosecond a [`SimTime`] can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeOverflow {
    /// The first tick stamp that does not fit.
    pub tick: u64,
    /// The tick length, in µs.
    pub tick_us: u32,
}

impl fmt::Display for TimeOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tick {} at {} us per tick lies past the exporters' picosecond time axis",
            self.tick, self.tick_us
        )
    }
}

impl std::error::Error for TimeOverflow {}

fn stamp_times(events: &[StampedEvent], tick_us: u32) -> Result<Vec<SimTime>, TimeOverflow> {
    let tick_ps = u64::from(tick_us.max(1)) * 1_000_000;
    let mut times = Vec::with_capacity(events.len());
    let mut last_tick = u64::MAX;
    let mut ordinal = 0u64;
    for se in events {
        if se.tick != last_tick {
            last_tick = se.tick;
            ordinal = 0;
        } else {
            ordinal += 1;
        }
        let ps = se
            .tick
            .checked_mul(tick_ps)
            .and_then(|at| at.checked_add(ordinal.min(tick_ps - 1)))
            .ok_or(TimeOverflow {
                tick: se.tick,
                tick_us,
            })?;
        times.push(SimTime::from_ps(ps));
    }
    Ok(times)
}

/// Converts the scheduler decisions in an observation stream into
/// [`TraceRecord`] running-slices, one per continuous occupancy of the
/// CPU by a task (from its `Dispatch` to the next `Preempt`, `Block`,
/// `TaskExit` or `TaskTerminate`). The result feeds
/// [`crate::GanttChart::render`] and [`crate::trace_to_csv`] directly.
///
/// A task still running when the stream ends gets a slice closed at
/// the last event's time.
pub fn decision_slices(
    events: &[StampedEvent],
    tick_us: u32,
) -> Result<Vec<TraceRecord>, TimeOverflow> {
    Ok(slices_at(events, &stamp_times(events, tick_us)?))
}

/// [`decision_slices`] over the stamped `times` of `events`.
fn slices_at(events: &[StampedEvent], times: &[SimTime]) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    let mut running: Option<(TaskId, SimTime)> = None;
    let mut close = |running: &mut Option<(TaskId, SimTime)>, end: SimTime| {
        if let Some((tid, start)) = running.take() {
            out.push(TraceRecord {
                start,
                end,
                who: ThreadRef::Task(tid),
                name: tid.to_string(),
                kind: TraceKind::Slice {
                    context: rtk_core::ExecContext::TaskBody,
                    label: "running".into(),
                },
                energy: Energy::ZERO,
            });
        }
    };
    for (se, &t) in events.iter().zip(times) {
        match se.ev {
            ObsEvent::Dispatch { tid, .. } => {
                close(&mut running, t);
                running = Some((tid, t));
            }
            ObsEvent::Preempt { .. }
            | ObsEvent::Block { .. }
            | ObsEvent::TaskExit { .. }
            | ObsEvent::TaskTerminate { .. } => close(&mut running, t),
            _ => {}
        }
    }
    let end = times.last().copied().unwrap_or(SimTime::ZERO);
    close(&mut running, end);
    out
}

/// Renders an observation stream as an IEEE-1364 VCD dump with one
/// 2-bit state wire per task (`b00` dormant, `b01` ready, `b10`
/// running, `b11` waiting), by feeding the state transitions through
/// [`WaveProbe`] — the same instrument the paper uses for hardware
/// signals (Fig. 4).
pub fn obs_to_vcd(events: &[StampedEvent], tick_us: u32) -> Result<String, TimeOverflow> {
    let times = stamp_times(events, tick_us)?;
    let probe = WaveProbe::new();
    let set = |t: SimTime, tid: TaskId, state: &str| {
        probe.signal_changed(t, &tid.to_string(), state);
    };
    for (se, &t) in events.iter().zip(&times) {
        match se.ev {
            ObsEvent::TaskCreate { tid, .. }
            | ObsEvent::TaskExit { tid }
            | ObsEvent::TaskTerminate { tid } => set(t, tid, "b00"),
            ObsEvent::TaskStart { tid }
            | ObsEvent::Preempt { tid }
            | ObsEvent::Wakeup { tid, .. } => set(t, tid, "b01"),
            ObsEvent::Dispatch { tid, .. } => set(t, tid, "b10"),
            ObsEvent::Block { tid, .. } => set(t, tid, "b11"),
            _ => {}
        }
    }
    Ok(probe.to_vcd())
}

/// Renders an observation stream as a Chrome `about:tracing` /
/// Perfetto JSON document: one `"X"` complete event per running slice
/// (from [`decision_slices`]) and an `"i"` instant per timer, cyclic
/// and alarm firing. Load the output via chrome://tracing or
/// ui.perfetto.dev.
pub fn obs_to_chrome_trace(events: &[StampedEvent], tick_us: u32) -> Result<String, TimeOverflow> {
    let times = stamp_times(events, tick_us)?;
    let mut out = String::from("[");
    let mut first = true;
    let push = |s: String, first: &mut bool, out: &mut String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&s);
    };
    for rec in slices_at(events, &times) {
        let tid = match rec.who {
            ThreadRef::Task(tid) => tid.raw(),
            _ => continue,
        };
        push(
            format!(
                "{{\"name\":\"{}\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
                rec.name,
                ps_to_us(rec.start.as_ps()),
                ps_to_us((rec.end - rec.start).as_ps()),
                tid,
            ),
            &mut first,
            &mut out,
        );
    }
    for (se, &t) in events.iter().zip(&times) {
        let (name, scope_tid) = match se.ev {
            ObsEvent::TimerFire { tid, .. } => (format!("timeout:{tid}"), Some(tid.raw())),
            ObsEvent::CycFire { id, .. } => (format!("fire:{id}"), None),
            ObsEvent::AlmFire { id, .. } => (format!("fire:{id}"), None),
            _ => continue,
        };
        push(
            format!(
                "{{\"name\":\"{}\",\"cat\":\"timer\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
                name,
                ps_to_us(t.as_ps()),
                scope_tid.unwrap_or(0),
            ),
            &mut first,
            &mut out,
        );
    }
    out.push_str("\n]\n");
    Ok(out)
}

fn ps_to_us(ps: u64) -> String {
    let mut s = String::new();
    let whole = ps / 1_000_000;
    let frac = ps % 1_000_000;
    if frac == 0 {
        let _ = write!(s, "{whole}");
    } else {
        let _ = write!(s, "{whole}.{frac:06}");
        while s.ends_with('0') {
            s.pop();
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_core::WakeCode;

    fn ev(tick: u64, ev: ObsEvent) -> StampedEvent {
        StampedEvent { tick, ev }
    }

    fn run_block_stream() -> Vec<StampedEvent> {
        let t1 = TaskId::from_raw(1);
        let t2 = TaskId::from_raw(2);
        vec![
            ev(0, ObsEvent::TaskCreate { tid: t1, pri: 5 }),
            ev(0, ObsEvent::TaskCreate { tid: t2, pri: 9 }),
            ev(0, ObsEvent::TaskStart { tid: t1 }),
            ev(0, ObsEvent::Dispatch { tid: t1, pri: 5 }),
            ev(
                2,
                ObsEvent::Block {
                    tid: t1,
                    obj: rtk_core::WaitObj::Sleep,
                    deadline_tick: Some(7),
                },
            ),
            ev(2, ObsEvent::Dispatch { tid: t2, pri: 9 }),
            ev(7, ObsEvent::TimerFire { tid: t1, tick: 7 }),
            ev(
                7,
                ObsEvent::Wakeup {
                    tid: t1,
                    obj: rtk_core::WaitObj::Sleep,
                    code: WakeCode::Timeout,
                },
            ),
            ev(7, ObsEvent::Preempt { tid: t2 }),
            ev(7, ObsEvent::Dispatch { tid: t1, pri: 5 }),
            ev(9, ObsEvent::TaskExit { tid: t1 }),
        ]
    }

    #[test]
    fn slices_cover_cpu_occupancy() {
        let slices = decision_slices(&run_block_stream(), 1000).unwrap();
        // tsk1 [0..2], tsk2 [2..7], tsk1 [7..9].
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[0].name, "tsk1");
        // The dispatch is the 4th event of tick 0: ordinal placement
        // offsets it 3 ps into the tick.
        assert_eq!(slices[0].start, SimTime::from_ps(3));
        assert_eq!(slices[0].end, SimTime::from_ms(2));
        assert_eq!(slices[1].name, "tsk2");
        assert_eq!(slices[2].name, "tsk1");
        assert_eq!(slices[2].end.as_ms(), 9);
    }

    #[test]
    fn vcd_has_a_state_wire_per_task() {
        let vcd = obs_to_vcd(&run_block_stream(), 1000).unwrap();
        assert!(vcd.contains("tsk1"));
        assert!(vcd.contains("tsk2"));
        assert!(vcd.contains("b10 ")); // someone ran
        assert!(vcd.contains("b11 ")); // someone waited
    }

    #[test]
    fn chrome_trace_is_json_shaped() {
        let json = obs_to_chrome_trace(&run_block_stream(), 1000).unwrap();
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"tsk2\""));
        // Intra-tick ordinal offsets stay sub-microsecond at 1 ms ticks.
        assert!(json.contains("\"ts\":2000"));
    }

    #[test]
    fn empty_stream_renders_empty_documents() {
        assert!(decision_slices(&[], 1000).unwrap().is_empty());
        let json = obs_to_chrome_trace(&[], 1000).unwrap();
        assert!(json.contains("[\n]"));
    }

    /// A tick stamp whose picosecond time does not fit a `u64` is
    /// refused by every exporter instead of wrapping the time axis.
    #[test]
    fn ticks_past_the_time_axis_are_refused() {
        let tid = TaskId::from_raw(1);
        let late = [ev(1 << 40, ObsEvent::Dispatch { tid, pri: 5 })];
        let want = Some(TimeOverflow {
            tick: 1 << 40,
            tick_us: 1000,
        });
        assert_eq!(decision_slices(&late, 1000).err(), want);
        assert_eq!(obs_to_vcd(&late, 1000).err(), want);
        assert_eq!(obs_to_chrome_trace(&late, 1000).err(), want);
        // The last tick that fits at 1 ms per tick, and the next one.
        let last = u64::MAX / 1_000_000_000;
        let at = |tick| [ev(tick, ObsEvent::TaskStart { tid })];
        assert!(obs_to_vcd(&at(last), 1000).is_ok());
        assert!(obs_to_vcd(&at(last + 1), 1000).is_err());
    }
}
