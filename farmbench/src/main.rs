//! `farmbench` — the repository benchmark: three workloads driven
//! through the public `rtk_farm` / `rtk_core` / `sysc` / `rtk_analysis`
//! APIs, every output checked against pinned gates.
//!
//! ```text
//! farmbench --workload <quick_campaign|oracle_capture|explore_sweep>
//!           --seed N --seconds S --trace <0|1> [--base-seed B]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the span recorder
//! off. `--trace 1` is the separate traced run: spans around each call
//! into a layer's public function, from which it derives the per-layer
//! metrics, a Chrome trace and a layer table under `out/<workload>/`.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod campaign;
mod explore;
mod probe;
mod spans;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::{percentile, Layers, Recorder, Span};

const USAGE: &str = "usage: farmbench --workload <quick_campaign|oracle_capture|explore_sweep> \
                     --seed N --seconds S --trace <0|1> [--base-seed B]";

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_ROUNDS: usize = 3;
/// Measured passes (or traced rounds) per run, at the least.
const MIN_PASSES: usize = 3;
/// Input groups a measured run cycles through (seed blocks).
const GROUPS: usize = 4;
const MIN_ROUNDS: usize = 2;

/// End-to-end metrics (`--trace 0`): name, unit.
const END_TO_END: [(&str, &str); 4] = [
    ("items_per_s", "1/s"),
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name, unit. A workload that does
/// not exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 62] = [
    ("scenario.gen_ns_per_seed", "ns"),
    ("build.run_us_p50", "us"),
    ("build.run_us_p99", "us"),
    ("build.run_us_max", "us"),
    ("build.busy_share", "ratio"),
    ("build.ns_per_dispatch", "ns"),
    ("build.sim_speed", "s/s"),
    ("core.dispatches", "count"),
    ("core.preemptions", "count"),
    ("core.interruptions", "count"),
    ("core.ticks", "count"),
    ("core.activations", "count"),
    ("core.threads", "count"),
    ("coro.stack_leases", "count"),
    ("coro.stacks_allocated", "count"),
    ("coro.recycled", "count"),
    ("obs.events", "count"),
    ("obs.events_per_dispatch", "ratio"),
    ("obs.sink_path_ns_per_event", "ns"),
    ("oracle.check_ns_per_event", "ns"),
    ("codec.encode_ns_per_event", "ns"),
    ("codec.decode_ns_per_event", "ns"),
    ("codec.bytes_per_event", "B"),
    ("codec.bytes", "B"),
    ("replay.ns_per_event", "ns"),
    ("report.aggregate_us", "us"),
    ("runner.parallel_efficiency", "ratio"),
    ("runner.overhead_share", "ratio"),
    ("explore.mtx.por.states", "count"),
    ("explore.mtx.por.transitions", "count"),
    ("explore.mtx.por.deduped", "count"),
    ("explore.mtx.por.collapsed", "count"),
    ("explore.mtx.nopor.states", "count"),
    ("explore.mtx.nopor.transitions", "count"),
    ("explore.mtx.nopor.deduped", "count"),
    ("explore.mtx.nopor.collapsed", "count"),
    ("explore.irq.por.states", "count"),
    ("explore.irq.por.transitions", "count"),
    ("explore.irq.por.deduped", "count"),
    ("explore.irq.por.collapsed", "count"),
    ("explore.irq.nopor.states", "count"),
    ("explore.irq.nopor.transitions", "count"),
    ("explore.irq.nopor.deduped", "count"),
    ("explore.irq.nopor.collapsed", "count"),
    ("explore.chain.por.states", "count"),
    ("explore.chain.por.transitions", "count"),
    ("explore.chain.por.deduped", "count"),
    ("explore.chain.por.collapsed", "count"),
    ("explore.chain.nopor.states", "count"),
    ("explore.chain.nopor.transitions", "count"),
    ("explore.chain.nopor.deduped", "count"),
    ("explore.chain.nopor.collapsed", "count"),
    ("explore.deadlock.por.states", "count"),
    ("explore.deadlock.por.transitions", "count"),
    ("explore.deadlock.por.deduped", "count"),
    ("explore.deadlock.por.collapsed", "count"),
    ("explore.deadlock.nopor.states", "count"),
    ("explore.deadlock.nopor.transitions", "count"),
    ("explore.deadlock.nopor.deduped", "count"),
    ("explore.deadlock.nopor.collapsed", "count"),
    ("explore.us_per_state", "us"),
    ("trace.overhead_share", "ratio"),
];

/// Gate bookkeeping: every checked operation, and the ones that failed.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; a `false` outcome is a failure described by `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }
}

/// Timings of one measured pass.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Input group (seed block) the pass ran; the run reports the median
    /// corrected pass of each group, combined over groups.
    pub group: usize,
    /// Work items completed: seeds, or distinct explored states.
    pub items: u64,
    /// Wall seconds of the call that completed them (aggregation included).
    pub items_s: f64,
    /// Wall seconds of the whole pass (adds `replay_path` on oracle_capture).
    pub pass_s: f64,
    /// Oracle events re-checked by `replay_path`, and its wall seconds.
    pub replay: Option<(u64, f64)>,
}

/// What one traced round yields.
#[derive(Debug, Default)]
pub struct Round {
    /// Timing-derived per-layer metrics (the run reports medians).
    pub timed: BTreeMap<&'static str, f64>,
    /// Exact counters: must repeat bit-for-bit across rounds.
    pub exact: BTreeMap<String, u64>,
    /// Spans of the decomposed pass (recorder on).
    pub spans: Vec<Span>,
    /// Worker threads of the decomposed pass.
    pub workers: usize,
    /// Wall seconds of the decomposed pass with the recorder on / off.
    pub on_s: f64,
    pub off_s: f64,
    /// `(id, µs of its farm::build or farm::explore span, label)` per
    /// seed or exploration.
    pub item_us: Vec<(u64, u64, String)>,
}

/// A benchmark workload.
pub trait Workload {
    /// The set-up warm-up: one gated pass over every input group, in a
    /// fixed order, so the process state entering measurement does not
    /// depend on `--seed`.
    fn warm_up(&mut self, tally: &mut Tally);
    /// One measured pass: the workload's user-visible flow, gated.
    fn pass(&mut self, rec: &Recorder, tally: &mut Tally) -> Pass;
    /// One traced round: the workload decomposed into per-layer public
    /// calls, recorder off and on. Campaigns first run one pass with
    /// the recorder on, for the wall of the `run_campaign` call itself.
    /// `on_first` alternates between rounds so that neither recorder
    /// setting always runs second.
    fn round(&mut self, on: &Recorder, off: &Recorder, on_first: bool, tally: &mut Tally) -> Round;
}

/// Runs `f` with the recorder off and with it on, in the order
/// `on_first` gives; returns the recorder-on result and the wall
/// seconds of the on and off runs.
pub fn off_and_on<T>(
    on: &Recorder,
    off: &Recorder,
    on_first: bool,
    mut f: impl FnMut(&Recorder) -> T,
) -> (T, f64, f64) {
    let mut timed = |rec: &Recorder| {
        let t = Instant::now();
        let out = f(rec);
        (out, t.elapsed().as_secs_f64())
    };
    if on_first {
        let (out, on_s) = timed(on);
        let (_, off_s) = timed(off);
        (out, on_s, off_s)
    } else {
        let (_, off_s) = timed(off);
        let (out, on_s) = timed(on);
        (out, on_s, off_s)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Quick,
    Oracle,
    Explore,
}

const KINDS: [(Kind, &str); 3] = [
    (Kind::Quick, "quick_campaign"),
    (Kind::Oracle, "oracle_capture"),
    (Kind::Explore, "explore_sweep"),
];

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        KINDS.iter().find(|k| k.1 == s).map(|k| k.0)
    }

    fn label(self) -> &'static str {
        KINDS.iter().find(|k| k.0 == self).map_or("", |k| k.1)
    }

    /// The README's name for `items_per_s` on this workload.
    fn items_label(self) -> &'static str {
        match self {
            Kind::Explore => "states_per_s",
            _ => "scenarios_per_s",
        }
    }
}

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    base_seed: Option<u64>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut base_seed) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(num(value()?)?),
            "--seconds" => seconds = Some(num(value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--base-seed" => base_seed = Some(num(value()?)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        base_seed,
    })
}

fn make(args: &Args, work: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match args.kind {
        Kind::Quick => Box::new(campaign::Campaign::quick(args.seed, args.base_seed, work)?),
        Kind::Oracle => Box::new(campaign::Campaign::oracle(args.seed, args.base_seed, work)?),
        Kind::Explore => Box::new(explore::Sweep::new(args.seed, work)?),
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn min(v: impl Iterator<Item = f64>) -> f64 {
    v.fold(f64::INFINITY, f64::min)
}

/// Peak resident set (`VmHWM`) in MB; 0 where `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end run: passes with the recorder off until `seconds` elapse,
/// each between two host-speed probes.
fn measured_run(
    bench: &mut dyn Workload,
    kind: Kind,
    seconds: Duration,
    tally: &mut Tally,
) -> BTreeMap<&'static str, f64> {
    let off = Recorder::new(false);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES * GROUPS || start.elapsed() < seconds {
        let before = probe::measure();
        let pass = bench.pass(&off, tally);
        passes.push((pass, probe::scale(before, probe::measure())));
    }
    // Median corrected pass per group, combined over groups: every run
    // covers the same groups, so the figures do not depend on which one
    // `--seed` put first.
    let mut groups: BTreeMap<usize, Vec<(Pass, f64)>> = BTreeMap::new();
    for &(p, k) in &passes {
        groups.entry(p.group).or_default().push((p, k));
    }
    let (mut items, mut items_s, mut pass_s, mut replay_events, mut replay_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut best_wall_s = 0.0;
    for ps in groups.values() {
        let corrected = |f: fn(&Pass) -> Option<f64>| {
            median(ps.iter().filter_map(|(p, k)| f(p).map(|v| v * k)).collect())
        };
        items += ps[0].0.items as f64;
        items_s += corrected(|p| Some(p.items_s));
        pass_s += corrected(|p| Some(p.pass_s));
        best_wall_s += min(ps.iter().map(|(p, _)| p.pass_s));
        if let Some((events, _)) = ps[0].0.replay {
            replay_events += events as f64;
            replay_s += corrected(|p| p.replay.map(|r| r.1));
        }
    }
    let n = groups.len() as f64;
    let mut m = BTreeMap::new();
    m.insert("items_per_s", items / items_s);
    m.insert("pass_s", pass_s / n);
    println!(
        "{} passes over {} input group(s); uncorrected wall: median pass {:.4} s, \
         best pass per group {:.4} s; host-speed scale: median {:.3}",
        passes.len(),
        groups.len(),
        median(passes.iter().map(|(p, _)| p.pass_s).collect()),
        best_wall_s / n,
        median(passes.iter().map(|&(_, k)| k).collect())
    );
    println!("{} = {:.1}", kind.items_label(), items / items_s);
    if replay_s > 0.0 {
        println!("replay_events_per_s = {:.0}", replay_events / replay_s);
    }
    m
}

/// Traced run: rounds until `seconds` elapse; per-layer metrics are the
/// median over rounds, exact counters must agree across rounds.
fn traced_run(
    bench: &mut dyn Workload,
    kind: Kind,
    seconds: Duration,
    out: &Path,
    tally: &mut Tally,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let on = Recorder::new(true);
    let off = Recorder::new(false);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < seconds {
        rounds.push(bench.round(&on, &off, rounds.len() % 2 == 1, tally));
    }

    // Observation neutrality: the exact counters repeat bit-for-bit.
    let first = &rounds[0].exact;
    for (i, r) in rounds.iter().enumerate().skip(1) {
        for (name, v) in first {
            let got = r.exact.get(name).copied();
            tally.check(got == Some(*v), || {
                format!("neutrality: {name} = {got:?} in traced round {i}, {v} in round 0")
            });
        }
    }

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let v = if let Some(v) = first.get(name) {
            *v as f64
        } else {
            let vals: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.timed.get(name).copied())
                .collect();
            if vals.is_empty() {
                0.0
            } else {
                median(vals)
            }
        };
        m.insert(name, v);
    }
    let on_s = min(rounds.iter().map(|r| r.on_s));
    let off_s = min(rounds.iter().map(|r| r.off_s));
    m.insert("trace.overhead_share", on_s / off_s - 1.0);

    let table = layer_table(kind, &rounds, on_s, off_s);
    print!("{table}");
    std::fs::write(out.join("layers.md"), &table).map_err(|e| format!("layers.md: {e}"))?;
    std::fs::write(out.join("spans.trace.json"), on.chrome_json())
        .map_err(|e| format!("spans.trace.json: {e}"))?;
    println!(
        "wrote {} and {}",
        out.join("layers.md").display(),
        out.join("spans.trace.json").display()
    );
    Ok(m)
}

/// The per-workload layer table: self time and share of the decomposed
/// pass per layer (summed over rounds), and the five slowest items.
fn layer_table(kind: Kind, rounds: &[Round], on_s: f64, off_s: f64) -> String {
    use std::fmt::Write as _;
    let mut rows: BTreeMap<&'static str, spans::LayerRow> = BTreeMap::new();
    let mut worker_ns = 0.0;
    for r in rounds {
        for (layer, row) in Layers::new(&r.spans).table() {
            if layer == "bench::pass" {
                worker_ns += row.durs_ns.iter().sum::<u64>() as f64 * r.workers as f64;
                continue;
            }
            let acc = rows.entry(layer).or_default();
            acc.count += row.count;
            acc.self_ns += row.self_ns;
            acc.durs_ns.extend(row.durs_ns);
        }
    }
    let n = rounds.len() as f64;
    let mut t = String::new();
    let _ = writeln!(
        t,
        "## Layer table: {} ({} traced rounds)\n",
        kind.label(),
        rounds.len()
    );
    let _ = writeln!(
        t,
        "Decomposed pass: {:.4} s traced, {:.4} s untraced (best of rounds), {} worker(s).\n",
        on_s, off_s, rounds[0].workers
    );
    let _ = writeln!(
        t,
        "| layer | spans/round | self ms/round | share of pass | p50 us | p99 us |"
    );
    let _ = writeln!(t, "|---|---:|---:|---:|---:|---:|");
    let mut covered = 0.0;
    for (layer, row) in &rows {
        let share = row.self_ns as f64 / worker_ns;
        covered += share;
        let _ = writeln!(
            t,
            "| `{layer}` | {:.0} | {:.3} | {:.1}% | {:.1} | {:.1} |",
            row.count as f64 / n,
            row.self_ns as f64 / n / 1e6,
            share * 100.0,
            percentile(&row.durs_ns, 50) as f64 / 1e3,
            percentile(&row.durs_ns, 99) as f64 / 1e3
        );
    }
    let _ = writeln!(
        t,
        "| (outside any span) | | | {:.1}% | | |\n",
        (1.0 - covered) * 100.0
    );

    // Slowest items by median build time over rounds.
    let mut per: BTreeMap<u64, (Vec<u64>, String)> = BTreeMap::new();
    for r in rounds {
        for (id, us, label) in &r.item_us {
            per.entry(*id)
                .or_insert_with(|| (Vec::new(), label.clone()))
                .0
                .push(*us);
        }
    }
    let mut slow: Vec<(u64, u64, String)> = per
        .into_iter()
        .map(|(id, (us, label))| (id, percentile(&us, 50), label))
        .collect();
    slow.sort_by_key(|&(id, us, _)| (std::cmp::Reverse(us), id));
    let _ = writeln!(
        t,
        "Five slowest seeds or explorations (median us of their `farm::build` or \
         `farm::explore` span over rounds):\n"
    );
    let _ = writeln!(t, "| id | us | label |");
    let _ = writeln!(t, "|---:|---:|---|");
    for (id, us, label) in slow.iter().take(5) {
        let _ = writeln!(t, "| {id} | {us} | {label} |");
    }
    t.push('\n');
    t
}

/// The result line. A non-finite value (a ratio over a layer that did
/// no work) prints as 0, like any layer the workload does not exercise.
fn json_line(
    tally: &Tally,
    metrics: &BTreeMap<&'static str, f64>,
    units: &[(&str, &str)],
) -> String {
    let body: Vec<String> = units
        .iter()
        .filter_map(|(name, unit)| {
            metrics.get(name).map(|&v| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run(args: &Args, t0: Instant) -> Result<(Tally, BTreeMap<&'static str, f64>), String> {
    // Paths stay relative to the package directory and carry no process
    // id: their lengths feed the allocator's heap layout, and with it
    // `peak_rss_mb`, which must not depend on where the checkout lives.
    std::env::set_current_dir(env!("CARGO_MANIFEST_DIR"))
        .map_err(|e| format!("{}: {e}", env!("CARGO_MANIFEST_DIR")))?;
    let out: PathBuf = Path::new("out").join(args.kind.label());
    let work = out.join("work");
    let mut tally = Tally::default();

    // Set-up, repeated: fresh workload state (stack prewarm, scratch
    // directories) plus a gated warm-up pass over every input group.
    // Round 1 counts from process start. Each round is corrected for
    // host speed like a measured pass; the probe's own time is left out.
    let mut setups = Vec::new();
    let mut bench = None;
    for round in 0..SETUP_ROUNDS {
        let start = if round == 0 { t0 } else { Instant::now() };
        let before = probe::measure();
        let mut b = make(args, &work)?;
        b.warm_up(&mut tally);
        let wall = start.elapsed().as_secs_f64() - before;
        setups.push(wall * probe::scale(before, probe::measure()));
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up round");
    println!(
        "workload {} seed {} trace {}: set-up rounds {:?} s (corrected)",
        args.kind.label(),
        args.seed,
        u8::from(args.trace),
        setups
    );

    let seconds = Duration::from_secs(args.seconds);
    let result = if args.trace {
        traced_run(bench.as_mut(), args.kind, seconds, &out, &mut tally)
    } else {
        let mut m = measured_run(bench.as_mut(), args.kind, seconds, &mut tally);
        m.insert("setup_s", median(setups));
        m.insert("peak_rss_mb", peak_rss_mb());
        Ok(m)
    };
    drop(bench);
    let _ = std::fs::remove_dir_all(&work);
    result.map(|m| (tally, m))
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("farmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (tally, metrics) = match run(&args, t0) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("farmbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "failure_ratio = {} ({} of {} operations failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for f in &tally.failures {
        println!("GATE FAILED: {f}");
    }
    // A failed gate means the numbers describe a different program:
    // report the failure, not a throughput.
    let empty = BTreeMap::new();
    let shown = if tally.failed == 0 { &metrics } else { &empty };
    let units: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", json_line(&tally, shown, units));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload oracle_capture --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.kind, Kind::Oracle);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.base_seed),
            (7, 10, true, None)
        );
        let a = args("--workload quick_campaign --seed 0 --seconds 1 --trace 0 --base-seed 5001");
        assert_eq!(a.unwrap().base_seed, Some(5001));
    }

    #[test]
    fn rejects_junk() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload explore_sweep --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload explore_sweep --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload explore_sweep --seed 1 --trace 0").is_err());
        assert!(args("--workload explore_sweep --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--bogus").is_err());
    }

    /// `BENCHMARK.json` at the repository root names exactly these metrics.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return;
        };
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let expected: Vec<&str> = ["quick_campaign", "oracle_capture", "explore_sweep"]
            .into_iter()
            .chain(
                END_TO_END
                    .iter()
                    .filter(|(n, _)| *n != "setup_s")
                    .map(|(n, _)| *n),
            )
            .chain(["setup_s"])
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .collect();
        let mut a = names.clone();
        let mut b = expected.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
