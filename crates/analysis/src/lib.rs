//! # rtk-analysis — trace, Gantt, energy, waveform and speed analysis
//!
//! The debug and measurement instruments of the RTK-Spec TRON
//! reproduction, corresponding to the paper's GUI widgets and evaluation
//! artifacts:
//!
//! * [`GanttChart`] — the execution time/energy trace widget (Fig. 6),
//!   rendered from the records the kernel keeps once
//!   `rtk_core::Rtos::record_trace` has started recording.
//! * [`EnergyReport`] / [`Battery`] — the consumed time/energy
//!   distribution widget with the 10 Wh battery status bar (Fig. 7).
//! * [`WaveProbe`] — signal probing into VCD / ASCII waveforms (Fig. 4),
//!   attached to the sysc engine as its `sysc::Tracer`.
//! * [`SpeedTable`] — the co-simulation speed measure (Table 2).
//!
//! On top of the per-simulation instruments sit the farm-facing
//! observation-stream consumers:
//!
//! * [`trace_codec`] — the binary `.rtkt` trace-file writer/reader
//!   (`docs/TRACE_FORMAT.md`); [`TraceWriter`] plugs into
//!   `rtk_core::ObsStream` so campaigns can capture every kernel
//!   decision for offline replay.
//! * [`obs_export`] — renders a decoded observation stream
//!   (`docs/OBS_GRAMMAR.md`) through the existing instruments: Gantt /
//!   CSV via [`decision_slices`], VCD via [`obs_to_vcd`], and Chrome
//!   `about:tracing` JSON via [`obs_to_chrome_trace`].

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
// This crate is `unsafe`-free; the attribute pins the policy the
// `unsafe_audit` binary enforces across the workspace.

pub mod bench_compare;
pub mod energy;
pub mod export;
pub mod gantt;
pub mod obs_export;
pub mod oracle_report;
pub mod percentile;
pub mod speed;
pub mod static_verify;
pub mod trace_codec;
pub mod vcd;

pub use energy::{average_power, Battery, DistributionRow, EnergyReport};
pub use export::{energy_to_csv, json_escape, speed_to_csv, trace_to_csv};
pub use gantt::{context_pattern, GanttChart, GanttConfig};
pub use obs_export::{decision_slices, obs_to_chrome_trace, obs_to_vcd, TimeOverflow};
pub use oracle_report::{divergences_json, DivergenceRecord};
pub use percentile::Summary;
pub use speed::{measure, SpeedRow, SpeedTable};
pub use static_verify::{analyze, AnalysisOptions, AnalysisResult, Conformance, Verdict};
pub use trace_codec::{
    decode_trace, encode_trace, read_trace, CodecError, DecodedTrace, TraceHeader, TraceTrailer,
    TraceTuning, TraceWriter,
};
pub use vcd::WaveProbe;
