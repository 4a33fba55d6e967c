//! `rtk-farm` — run a seeded scenario campaign and write
//! `BENCH_farm.json`, or replay captured `.rtkt` traces.
//!
//! ```text
//! rtk-farm [--seeds N] [--base-seed S] [--threads T] [--quick]
//!          [--no-faults] [--oracle] [--topology NAME]
//!          [--trace-dir DIR] [--trace-cap N] [--out PATH]
//! rtk-farm --replay PATH [--export-vcd DIR] [--export-chrome DIR]
//!          [--out PATH]
//! rtk-farm --explore FAMILY [--depth N] [--max-states N] [--no-por]
//!          [--adversarial] [--no-faults] [--explore-dir DIR]
//!          [--export-vcd DIR] [--export-chrome DIR] [--out PATH]
//! ```
//!
//! Exit code 0 when every scenario (or replayed trace) is healthy and
//! every explored schedule is violation-free; 1 when any scenario
//! panicked, stalled, livelocked or (with `--oracle` or under
//! `--replay`) diverged from the ITRON reference model, or when
//! `--explore` found a deadlock, invariant break or certificate
//! contradiction (the CI gates); 2 on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rtk_analysis::trace_codec::{TraceTuning, DEFAULT_TICK_US};
use rtk_core::StampedEvent;
use rtk_farm::{
    replay_analysis, replay_path, replay_report_json_analyzed, run_campaign, run_exploration,
    write_counterexamples, CampaignConfig, CampaignReport, ExploreConfig, Family, ReplayedAnalysis,
    Topology, TraceConfig,
};

const USAGE: &str = "usage: rtk-farm [options]

campaign options:
  --seeds N       consecutive seeds, at most 1000000   (default 256)
  --base-seed S   first seed                           (default 1)
  --threads T     worker threads, 1 to 256             (default: all cores)
  --quick         short horizon (120 ms) for smoke campaigns
  --no-faults     disable fault-injection draws
  --oracle        replay every scenario through the differential
                  ITRON oracle; any divergence fails the campaign
  --analyze       run the static scenario analyzer as a pre-pass and
                  cross-validate verdicts against the dynamic run;
                  any static/dynamic contradiction fails the campaign
                  (see docs/STATIC_ANALYSIS.md)
  --topology NAME run only the seeds expanding to this scenario
                  family (one-command divergence repro), one of:
                  independent sem_chain mbx_pipeline flag_barrier
                  mtx_inherit mtx_ceiling mbf_pipeline mpf_pool
                  lifecycle_churn disp_window cpu_lock_window
                  mpl_pressure alm_cyc_storm
  --trace-dir DIR capture one binary .rtkt trace per scenario into DIR
                  (created if missing; see docs/TRACE_FORMAT.md)
  --trace-cap N   cap each trace at N events (excess counted as
                  dropped; default 0 = unlimited)
  --out PATH      report path              (default BENCH_farm.json)

replay options:
  --replay PATH   replay a .rtkt trace file, or every *.rtkt in a
                  directory (which must hold at least one), through
                  the oracle — no kernel execution;
                  verdicts (incl. divergence event indexes) match the
                  live run's. Report goes to --out
                  (default REPLAY_farm.json)
  --export-vcd DIR     also write a per-task state waveform
                       seed-<seed>.vcd per trace into DIR
  --export-chrome DIR  also write a chrome://tracing JSON
                       seed-<seed>.trace.json per trace into DIR
  --analyze       recompute static verdicts from the trace headers and
                  check each decoded stream against its declared lock
                  model; a conformance violation fails the replay
                  (timing cross-checks stay live-campaign-only)

explore options (bounded model checking, see docs/EXPLORATION.md):
  --explore FAMILY walk every schedule of a hand-built topology through
                  the executable ITRON spec — timeout ties, IRQ jitter
                  slots, same-tick release orders and budgeted faults
                  all branch; any deadlock state, spec-invariant break
                  or rtk-verify certificate contradiction fails the
                  run (exit 1). FAMILY is one of:
                  mtx irq chain deadlock
                  Report goes to --out (default EXPLORE_farm.json).
                  Excludes every campaign/replay option except
                  --threads, --quick and --no-faults
  --depth N       DFS depth bound, at least 1        (default 2000)
  --max-states N  distinct-state bound, at least 1   (default 200000)
  --no-por        disable partial-order reduction (explore every
                  order of commuting same-tick choices)
  --adversarial   keep only the preemption-maximizing choices at every
                  branch point (a pruning of the exhaustive tree;
                  implies no POR)
  --no-faults     with --explore: no fault branch points
  --explore-dir DIR  write each violation's replayable counterexample
                  as explore-<family>-<n>.rtkt into DIR
  --export-vcd/--export-chrome  with --explore: render each
                  counterexample like a replayed trace
  --help          this text";

/// Largest `--seeds`: a campaign keeps every outcome in memory, about
/// 1.8 KB per quick seed, so a million seeds need about 1.8 GB.
const MAX_SEEDS: u64 = 1_000_000;
/// Largest `--threads`: each worker is an OS thread.
const MAX_THREADS: usize = 256;

#[derive(Debug)]
struct Cli {
    cfg: CampaignConfig,
    out: Option<String>,
    replay: Option<PathBuf>,
    export_vcd: Option<PathBuf>,
    export_chrome: Option<PathBuf>,
    explore: Option<ExploreConfig>,
    explore_dir: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        cfg: CampaignConfig::default(),
        out: None,
        replay: None,
        export_vcd: None,
        export_chrome: None,
        explore: None,
        explore_dir: None,
    };
    let mut trace_dir: Option<PathBuf> = None;
    let mut trace_cap: Option<u64> = None;
    // --explore knobs, collected order-independently and validated
    // after the loop (so `--depth 10 --explore mtx` parses too).
    let mut explore_family: Option<String> = None;
    let mut depth: Option<usize> = None;
    let mut max_states: Option<usize> = None;
    let mut no_por = false;
    let mut adversarial = false;
    // Campaign-only options seen, for the --explore exclusion check.
    let mut campaign_only: Vec<&'static str> = Vec::new();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--seeds" => {
                campaign_only.push("--seeds");
                cli.cfg.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
                if cli.cfg.seeds > MAX_SEEDS {
                    return Err(format!("--seeds must be at most {MAX_SEEDS}"));
                }
            }
            "--base-seed" => {
                campaign_only.push("--base-seed");
                cli.cfg.base_seed = value("--base-seed")?
                    .parse()
                    .map_err(|e| format!("--base-seed: {e}"))?
            }
            "--threads" => {
                cli.cfg.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if cli.cfg.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
                if cli.cfg.threads > MAX_THREADS {
                    return Err(format!("--threads must be at most {MAX_THREADS}"));
                }
            }
            "--quick" => cli.cfg.tuning.quick = true,
            "--no-faults" => cli.cfg.tuning.faults = false,
            "--oracle" => {
                campaign_only.push("--oracle");
                cli.cfg.oracle = true
            }
            "--analyze" => {
                campaign_only.push("--analyze");
                cli.cfg.analyze = true
            }
            "--topology" => {
                campaign_only.push("--topology");
                let name = value("--topology")?;
                if !Topology::ALL_LABELS.contains(&name.as_str()) {
                    return Err(format!(
                        "--topology: unknown family {name:?} (known: {})",
                        Topology::ALL_LABELS.join(" ")
                    ));
                }
                cli.cfg.topology = Some(name);
            }
            "--trace-dir" => {
                campaign_only.push("--trace-dir");
                trace_dir = Some(PathBuf::from(value("--trace-dir")?))
            }
            "--trace-cap" => {
                campaign_only.push("--trace-cap");
                trace_cap = Some(
                    value("--trace-cap")?
                        .parse()
                        .map_err(|e| format!("--trace-cap: {e}"))?,
                )
            }
            "--replay" => cli.replay = Some(PathBuf::from(value("--replay")?)),
            "--export-vcd" => cli.export_vcd = Some(PathBuf::from(value("--export-vcd")?)),
            "--export-chrome" => cli.export_chrome = Some(PathBuf::from(value("--export-chrome")?)),
            "--out" => cli.out = Some(value("--out")?),
            "--explore" => explore_family = Some(value("--explore")?),
            "--depth" => {
                let n: usize = value("--depth")?
                    .parse()
                    .map_err(|e| format!("--depth: {e}"))?;
                if n == 0 {
                    return Err("--depth must be at least 1".into());
                }
                depth = Some(n);
            }
            "--max-states" => {
                let n: usize = value("--max-states")?
                    .parse()
                    .map_err(|e| format!("--max-states: {e}"))?;
                if n == 0 {
                    return Err("--max-states must be at least 1".into());
                }
                max_states = Some(n);
            }
            "--no-por" => no_por = true,
            "--adversarial" => adversarial = true,
            "--explore-dir" => cli.explore_dir = Some(PathBuf::from(value("--explore-dir")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option: {other}")),
        }
    }
    if trace_cap.is_some() && trace_dir.is_none() {
        return Err("--trace-cap requires --trace-dir".into());
    }
    if let Some(dir) = trace_dir {
        if cli.replay.is_some() {
            return Err(
                "--trace-dir cannot be combined with --replay (capture happens in the live run)"
                    .into(),
            );
        }
        // Record the generator tuning in every trace header, so
        // `--replay --analyze` can regenerate the exact spec offline.
        cli.cfg.trace = Some(TraceConfig {
            dir,
            cap: trace_cap.unwrap_or(0),
            tuning: Some(TraceTuning {
                quick: cli.cfg.tuning.quick,
                faults: cli.cfg.tuning.faults,
            }),
        });
    }
    match explore_family {
        None => {
            let knobs: Vec<&str> = [
                depth.map(|_| "--depth"),
                max_states.map(|_| "--max-states"),
                no_por.then_some("--no-por"),
                adversarial.then_some("--adversarial"),
                cli.explore_dir.as_ref().map(|_| "--explore-dir"),
            ]
            .into_iter()
            .flatten()
            .collect();
            if !knobs.is_empty() {
                return Err(format!("{} require(s) --explore", knobs.join("/")));
            }
        }
        Some(name) => {
            let family = Family::parse(&name).ok_or_else(|| {
                format!(
                    "--explore: unknown family {name:?} (known: {})",
                    Family::ALL_LABELS.join(" ")
                )
            })?;
            if cli.replay.is_some() {
                return Err("--explore cannot be combined with --replay".into());
            }
            if !campaign_only.is_empty() {
                return Err(format!(
                    "--explore cannot be combined with campaign option(s) {}",
                    campaign_only.join("/")
                ));
            }
            let defaults = ExploreConfig::default();
            cli.explore = Some(ExploreConfig {
                family,
                depth: depth.unwrap_or(defaults.depth),
                max_states: max_states.unwrap_or(defaults.max_states),
                por: !no_por,
                adversarial,
                faults: cli.cfg.tuning.faults,
                ..defaults
            });
        }
    }
    if cli.replay.is_none()
        && cli.explore.is_none()
        && (cli.export_vcd.is_some() || cli.export_chrome.is_some())
    {
        return Err("--export-vcd/--export-chrome require --replay or --explore".into());
    }
    let cfg = &cli.cfg;
    if cfg.seeds > 0 && cfg.base_seed.checked_add(cfg.seeds - 1).is_none() {
        return Err(format!(
            "--base-seed {} with --seeds {} runs past the last seed {}",
            cfg.base_seed,
            cfg.seeds,
            u64::MAX
        ));
    }
    Ok(cli)
}

type ExportFn = fn(&[StampedEvent], u32) -> Result<String, rtk_analysis::TimeOverflow>;

/// Writes the `--export-vcd` / `--export-chrome` renderings of each
/// `(source, file stem, events, tick in µs)` stream as `<stem>.vcd` and
/// `<stem>.trace.json`. A failure is reported on stderr and becomes
/// exit code 2. Every stream's time axis is checked before anything is
/// created, so a stream whose ticks do not fit it, named by its source,
/// leaves no directory and no export behind.
fn write_exports<'a>(
    cli: &Cli,
    streams: impl IntoIterator<Item = (String, String, &'a [StampedEvent], u32)>,
) -> Result<(), ExitCode> {
    let exports: [(&Option<PathBuf>, &str, ExportFn); 2] = [
        (&cli.export_vcd, "vcd", rtk_analysis::obs_to_vcd),
        (
            &cli.export_chrome,
            "trace.json",
            rtk_analysis::obs_to_chrome_trace,
        ),
    ];
    if cli.export_vcd.is_none() && cli.export_chrome.is_none() {
        return Ok(());
    }
    let streams: Vec<_> = streams.into_iter().collect();
    for (source, _, events, tick_us) in &streams {
        if let Err(e) = rtk_analysis::check_time_axis(events, *tick_us) {
            eprintln!("rtk-farm: cannot export {source}: {e}");
            return Err(ExitCode::from(2));
        }
    }
    for dir in [&cli.export_vcd, &cli.export_chrome].into_iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("rtk-farm: cannot create {}: {e}", dir.display());
            return Err(ExitCode::from(2));
        }
    }
    for (source, stem, events, tick_us) in streams {
        for (dir, ext, render) in exports {
            if let Some(dir) = dir {
                let text = match render(events, tick_us) {
                    Ok(text) => text,
                    Err(e) => {
                        eprintln!("rtk-farm: cannot export {source}: {e}");
                        return Err(ExitCode::from(2));
                    }
                };
                let file = dir.join(format!("{stem}.{ext}"));
                if let Err(e) = std::fs::write(&file, text) {
                    eprintln!("rtk-farm: cannot write {}: {e}", file.display());
                    return Err(ExitCode::from(2));
                }
            }
        }
    }
    Ok(())
}

/// The `--replay` mode: oracle verdicts (and optional exports) from
/// trace files alone. A directory without a `*.rtkt` file is a usage
/// error, so a mistyped trace directory cannot pass a replay gate.
fn run_replay(cli: &Cli, path: &std::path::Path) -> ExitCode {
    let traces = match replay_path(path) {
        Ok(traces) if traces.is_empty() => {
            eprintln!("rtk-farm: no *.rtkt trace in {}", path.display());
            return ExitCode::from(2);
        }
        Ok(traces) => traces,
        Err(e) => {
            eprintln!("rtk-farm: replay of {} failed: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let streams = traces.iter().map(|t| {
        let stem = format!("seed-{:010}", t.header.seed);
        (
            t.path.display().to_string(),
            stem,
            &t.events[..],
            t.header.tick_us,
        )
    });
    if let Err(code) = write_exports(cli, streams) {
        return code;
    }
    let analyses: Option<Vec<ReplayedAnalysis>> = if cli.cfg.analyze {
        let mut recs = Vec::with_capacity(traces.len());
        for t in &traces {
            match replay_analysis(t) {
                Ok(r) => recs.push(r),
                Err(e) => {
                    eprintln!("rtk-farm: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        Some(recs)
    } else {
        None
    };
    let out = cli.out.clone().unwrap_or_else(|| "REPLAY_farm.json".into());
    if let Err(e) = std::fs::write(
        &out,
        replay_report_json_analyzed(&traces, analyses.as_deref()),
    ) {
        eprintln!("rtk-farm: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    let diverged: Vec<_> = traces
        .iter()
        .filter_map(|t| t.verdict.divergence.as_ref().map(|d| (t.header.seed, d)))
        .collect();
    let incomplete = traces.iter().filter(|t| !t.complete).count();
    eprintln!(
        "rtk-farm: replayed {} trace(s), {} oracle event(s), {} divergence(s), {} incomplete -> {out}",
        traces.len(),
        traces.iter().map(|t| t.verdict.events_checked).sum::<u64>(),
        diverged.len(),
        incomplete,
    );
    for (seed, d) in &diverged {
        eprintln!("rtk-farm: seed {seed} DIVERGED: {d}");
    }
    let mut nonconformant = 0usize;
    if let Some(recs) = &analyses {
        let certified = |v| recs.iter().filter(|r| r.deadlock == v).count();
        eprintln!(
            "rtk-farm: static analysis over {} header(s): deadlock certified {}, \
             schedulable certified {}",
            recs.len(),
            certified(rtk_analysis::static_verify::Verdict::Certified),
            recs.iter()
                .filter(|r| r.schedulable == rtk_analysis::static_verify::Verdict::Certified)
                .count(),
        );
        for r in recs.iter().filter(|r| !r.consistent()) {
            nonconformant += 1;
            eprintln!(
                "rtk-farm: seed {} NONCONFORMANT: {} lock-model violation(s), first: {}",
                r.seed,
                r.conformance_violations,
                r.conformance_details.first().map_or("", String::as_str),
            );
        }
    }
    if diverged.is_empty() && nonconformant == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--explore` mode: exhaust the family's schedule tree, distill
/// violations into replayable counterexamples, write the report.
fn run_explore(cli: &Cli, cfg: &ExploreConfig) -> ExitCode {
    eprintln!(
        "rtk-farm: exploring family {} (depth {}, max-states {}, por {}, \
         adversarial {}, faults {})",
        cfg.family, cfg.depth, cfg.max_states, cfg.por, cfg.adversarial, cfg.faults,
    );
    let t0 = Instant::now();
    let outcome = run_exploration(cfg, sysc::Runtime::default());
    let wall = t0.elapsed();
    let mut written: Vec<PathBuf> = Vec::new();
    if let Some(dir) = &cli.explore_dir {
        match write_counterexamples(&outcome, dir) {
            Ok(paths) => written = paths,
            Err(e) => {
                eprintln!(
                    "rtk-farm: cannot write counterexamples to {}: {e}",
                    dir.display()
                );
                return ExitCode::from(2);
            }
        }
    }
    let streams = outcome.counterexamples.iter().map(|ce| {
        let stem = ce.name.trim_end_matches(".rtkt").to_string();
        (ce.name.clone(), stem, &ce.events[..], DEFAULT_TICK_US)
    });
    if let Err(code) = write_exports(cli, streams) {
        return code;
    }
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| "EXPLORE_farm.json".into());
    if let Err(e) = std::fs::write(&out, outcome.report.to_json()) {
        eprintln!("rtk-farm: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    // Wall time goes to stderr only; the report stays a pure function
    // of the config.
    let r = &outcome.report;
    eprintln!(
        "rtk-farm: explored {} state(s), {} transition(s), {} deduped, {} collapsed, \
         max depth {}, hash {:016x} in {:.4}s ({:.0} states/s) -> {out}",
        r.states,
        r.transitions,
        r.deduped,
        r.collapsed,
        r.max_depth,
        r.state_hash,
        wall.as_secs_f64(),
        r.states as f64 / wall.as_secs_f64().max(1e-9),
    );
    if r.truncated {
        eprintln!("rtk-farm: WARNING: exploration truncated by --depth/--max-states bounds");
    }
    if !written.is_empty() {
        eprintln!("rtk-farm: wrote {} counterexample(s)", written.len());
    }
    for v in &r.violations {
        eprintln!(
            "rtk-farm: {} at tick {} (state {:016x}): {}",
            v.kind, v.tick, v.state_hash, v.detail
        );
    }
    if let Some(msg) = &r.certificate_contradiction {
        eprintln!("rtk-farm: CERTIFICATE CONTRADICTION: {msg}");
    }
    if r.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(v) => v,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("rtk-farm: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &cli.replay {
        return run_replay(&cli, path);
    }
    if let Some(ecfg) = cli.explore.clone() {
        return run_explore(&cli, &ecfg);
    }
    let cfg = cli.cfg;
    let out_path = cli.out.unwrap_or_else(|| "BENCH_farm.json".into());

    if let Some(tc) = &cfg.trace {
        if let Err(e) = std::fs::create_dir_all(&tc.dir) {
            eprintln!("rtk-farm: cannot create {}: {e}", tc.dir.display());
            return ExitCode::from(2);
        }
    }

    let workers = cfg.effective_threads();
    let seed_range = if cfg.seeds == 0 {
        "none".to_string()
    } else {
        format!("{}..{}", cfg.base_seed, cfg.base_seed + cfg.seeds - 1)
    };
    eprintln!(
        "rtk-farm: {} scenarios (seeds {}), {} worker thread(s), {} horizon, faults {}, oracle {}{}{}{}",
        cfg.seeds,
        seed_range,
        workers,
        if cfg.tuning.quick { "quick" } else { "full" },
        if cfg.tuning.faults { "on" } else { "off" },
        if cfg.oracle { "on" } else { "off" },
        if cfg.analyze { ", analyze on" } else { "" },
        match &cfg.topology {
            Some(t) => format!(", topology {t}"),
            None => String::new(),
        },
        match &cfg.trace {
            Some(tc) => format!(", tracing to {}", tc.dir.display()),
            None => String::new(),
        },
    );

    let t0 = Instant::now();
    let outcomes = run_campaign(&cfg);
    let wall = t0.elapsed();
    let report = CampaignReport::new(cfg, outcomes);
    let agg = report.aggregate();

    // The CLI report carries wall-clock throughput (digest-excluded);
    // everything hashed by `campaign_digest` stays simulated-domain.
    let wall_ms = wall.as_millis() as u64;
    if let Err(e) = std::fs::write(&out_path, report.to_json_timed(wall_ms)) {
        eprintln!("rtk-farm: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }

    let n = report.outcomes.len() as f64;
    eprintln!(
        "rtk-farm: done in {:.2}s ({:.1} scenarios/s) -> {out_path}",
        wall.as_secs_f64(),
        n / wall.as_secs_f64().max(1e-9),
    );
    eprintln!(
        "rtk-farm: digest {:016x} | jobs {} | misses {} | latency_us p50/p90/p99 = {}/{}/{}",
        report.digest(),
        agg.completions,
        agg.deadline_misses,
        agg.latency_us.p50,
        agg.latency_us.p90,
        agg.latency_us.p99,
    );
    // Without a cap, only a trace file that could not be written drops
    // events, and its own line above says so.
    if agg.obs_dropped > 0 {
        let capped = report.cfg.trace.as_ref().is_some_and(|tc| tc.cap > 0);
        eprintln!(
            "rtk-farm: {} observation event(s) dropped by trace capture{}",
            agg.obs_dropped,
            if capped { " (see --trace-cap)" } else { "" },
        );
    }

    // The static/dynamic cross-check: contradictions are evidence the
    // analyzer, the model, or the kernel is wrong — campaign-failing.
    let contradictions = report.contradictions();
    if report.cfg.analyze {
        let records = report.analysis_records();
        use rtk_analysis::static_verify::Verdict;
        eprintln!(
            "rtk-farm: static analysis: deadlock certified {}/{}, schedulable certified {}/{}, {} contradiction(s)",
            records.iter().filter(|r| r.deadlock == Verdict::Certified).count(),
            records.len(),
            records.iter().filter(|r| r.schedulable == Verdict::Certified).count(),
            records.len(),
            contradictions.len(),
        );
        for (seed, why) in &contradictions {
            eprintln!("rtk-farm: seed {seed} CONTRADICTION: {why}");
        }
    }

    if report.all_healthy() && contradictions.is_empty() {
        ExitCode::SUCCESS
    } else {
        for (seed, why) in report.failures() {
            eprintln!("rtk-farm: seed {seed} UNHEALTHY: {why}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, Cli, MAX_SEEDS, MAX_THREADS, USAGE};
    use proptest::prelude::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.cfg.seeds, 256);
        assert_eq!(cli.cfg.threads, 0); // auto: all cores
        assert!(!cli.cfg.oracle);
        assert!(cli.cfg.trace.is_none());
        assert!(cli.out.is_none()); // resolved per mode in main()
        assert!(cli.replay.is_none());
    }

    #[test]
    fn oracle_flag_and_values() {
        let cli = parse(&[
            "--oracle",
            "--seeds",
            "12",
            "--base-seed",
            "7",
            "--threads",
            "3",
            "--out",
            "x.json",
        ])
        .unwrap();
        assert!(cli.cfg.oracle);
        assert_eq!(
            (cli.cfg.seeds, cli.cfg.base_seed, cli.cfg.threads),
            (12, 7, 3)
        );
        assert_eq!(cli.out.as_deref(), Some("x.json"));
    }

    #[test]
    fn trace_flags_build_a_trace_config() {
        let cli = parse(&["--trace-dir", "traces", "--trace-cap", "5000"]).unwrap();
        let tc = cli.cfg.trace.expect("trace config");
        assert_eq!(tc.dir, std::path::Path::new("traces"));
        assert_eq!(tc.cap, 5000);
        // Cap defaults to unlimited.
        let cli = parse(&["--trace-dir", "traces"]).unwrap();
        assert_eq!(cli.cfg.trace.unwrap().cap, 0);
    }

    #[test]
    fn analyze_flag_and_trace_tuning() {
        let cli = parse(&["--analyze"]).unwrap();
        assert!(cli.cfg.analyze);
        // Trace headers record the generator tuning regardless of flag
        // order, so `--replay --analyze` regenerates the exact spec.
        let cli = parse(&["--trace-dir", "t", "--quick", "--no-faults"]).unwrap();
        let tuning = cli.cfg.trace.unwrap().tuning.unwrap();
        assert!(tuning.quick);
        assert!(!tuning.faults);
        let cli = parse(&["--quick", "--trace-dir", "t"]).unwrap();
        assert!(cli.cfg.trace.unwrap().tuning.unwrap().quick);
    }

    #[test]
    fn trace_cap_without_dir_is_a_usage_error() {
        let err = parse(&["--trace-cap", "10"]).unwrap_err();
        assert!(err.contains("--trace-dir"), "{err}");
    }

    #[test]
    fn replay_mode_flags() {
        let cli = parse(&[
            "--replay",
            "traces",
            "--export-vcd",
            "w",
            "--export-chrome",
            "c",
        ])
        .unwrap();
        assert_eq!(cli.replay.as_deref(), Some(std::path::Path::new("traces")));
        assert_eq!(cli.export_vcd.as_deref(), Some(std::path::Path::new("w")));
        assert_eq!(
            cli.export_chrome.as_deref(),
            Some(std::path::Path::new("c"))
        );
    }

    #[test]
    fn exports_require_replay() {
        let err = parse(&["--export-vcd", "w"]).unwrap_err();
        assert!(err.contains("--replay"), "{err}");
    }

    #[test]
    fn replay_excludes_capture() {
        let err = parse(&["--replay", "t", "--trace-dir", "d"]).unwrap_err();
        assert!(err.contains("cannot be combined"), "{err}");
    }

    #[test]
    fn zero_seeds_is_accepted() {
        // An empty campaign is valid: the CLI writes an empty-but-valid
        // report and exits 0 (pinned by `report::empty_campaign_report`).
        let cli = parse(&["--seeds", "0"]).unwrap();
        assert_eq!(cli.cfg.seeds, 0);
    }

    #[test]
    fn zero_threads_is_a_usage_error() {
        let err = parse(&["--threads", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn unknown_option_is_a_usage_error() {
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("unknown"));
    }

    #[test]
    fn explore_flags_build_a_config() {
        let cli = parse(&[
            "--explore",
            "irq",
            "--depth",
            "64",
            "--max-states",
            "1000",
            "--no-por",
            "--adversarial",
            "--explore-dir",
            "ces",
        ])
        .unwrap();
        let e = cli.explore.expect("explore config");
        assert_eq!(e.family, super::Family::Irq);
        assert_eq!((e.depth, e.max_states), (64, 1000));
        assert!(!e.por);
        assert!(e.adversarial);
        assert_eq!(
            cli.explore_dir.as_deref(),
            Some(std::path::Path::new("ces"))
        );
    }

    #[test]
    fn explore_defaults_and_knob_order_independence() {
        // Knobs may precede --explore; defaults match ExploreConfig.
        let cli = parse(&["--depth", "10", "--explore", "mtx"]).unwrap();
        let e = cli.explore.unwrap();
        assert_eq!((e.depth, e.max_states), (10, 200_000));
        assert!(e.por && !e.adversarial && e.faults);
        let e = parse(&["--explore", "mtx"]).unwrap().explore.unwrap();
        assert_eq!(e.depth, 2000);
        // --no-faults flows into the explore config.
        let e = parse(&["--explore", "mtx", "--no-faults"])
            .unwrap()
            .explore
            .unwrap();
        assert!(!e.faults);
    }

    #[test]
    fn explore_unknown_family_lists_the_labels() {
        let err = parse(&["--explore", "nope"]).unwrap_err();
        assert!(err.contains("unknown family"), "{err}");
        for label in super::Family::ALL_LABELS {
            assert!(err.contains(label), "{err} missing {label}");
        }
    }

    #[test]
    fn explore_knobs_without_explore_are_a_usage_error() {
        for args in [
            &["--depth", "5"][..],
            &["--max-states", "5"][..],
            &["--no-por"][..],
            &["--adversarial"][..],
            &["--explore-dir", "d"][..],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("--explore"), "{args:?}: {err}");
        }
    }

    #[test]
    fn explore_excludes_campaign_and_replay_modes() {
        let err = parse(&["--explore", "mtx", "--replay", "t"]).unwrap_err();
        assert!(err.contains("--replay"), "{err}");
        for args in [
            &["--explore", "mtx", "--seeds", "9"][..],
            &["--explore", "mtx", "--oracle"][..],
            &["--explore", "mtx", "--analyze"][..],
            &["--explore", "mtx", "--topology", "independent"][..],
            &["--explore", "mtx", "--trace-dir", "t"][..],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("campaign option"), "{args:?}: {err}");
        }
    }

    #[test]
    fn explore_zero_bounds_are_usage_errors() {
        let err = parse(&["--explore", "mtx", "--depth", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&["--explore", "mtx", "--max-states", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&["--explore", "mtx", "--depth", "junk"]).unwrap_err();
        assert!(err.contains("--depth"), "{err}");
    }

    #[test]
    fn seed_ranges_past_the_last_u64_are_usage_errors() {
        let max = "18446744073709551615";
        // The last 1,000,000 seeds start here.
        let last_million = "18446744073708551616";
        for args in [
            &["--seeds", "2", "--base-seed", max, "--quick"][..],
            &["--base-seed", max][..], // 256 seeds by default
            &["--base-seed", "18446744073708551617", "--seeds", "1000000"][..],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("past the last seed"), "{args:?}: {err}");
        }
        // The last representable seed is fine.
        let cli = parse(&["--seeds", "1", "--base-seed", max]).unwrap();
        assert_eq!(cli.cfg.base_seed, u64::MAX);
        let cli = parse(&["--seeds", "1000000", "--base-seed", last_million]).unwrap();
        assert_eq!(cli.cfg.base_seed + (cli.cfg.seeds - 1), u64::MAX);
        assert!(parse(&["--seeds", "0", "--base-seed", max]).is_ok());
    }

    #[test]
    fn seed_counts_above_a_million_are_usage_errors() {
        // Only parses: a campaign of this size is never started here.
        let err = parse(&["--seeds", "1000001", "--quick"]).unwrap_err();
        assert!(err.contains("at most 1000000"), "{err}");
        let err = parse(&["--seeds", "18446744073709551615", "--quick"]).unwrap_err();
        assert!(err.contains("at most 1000000"), "{err}");
        assert_eq!(parse(&["--seeds", "1000000"]).unwrap().cfg.seeds, MAX_SEEDS);
        assert!(USAGE.contains("at most 1000000"));
    }

    #[test]
    fn thread_counts_above_256_are_usage_errors() {
        // Only parses: no worker thread is started here.
        let err = parse(&["--threads", "257", "--seeds", "100000"]).unwrap_err();
        assert!(err.contains("at most 256"), "{err}");
        let err = parse(&["--threads", "100000"]).unwrap_err();
        assert!(err.contains("at most 256"), "{err}");
        assert_eq!(
            parse(&["--threads", "256"]).unwrap().cfg.threads,
            MAX_THREADS
        );
        assert!(USAGE.contains("1 to 256"));
    }

    /// Every option `parse_args` knows, and whether it takes a value.
    const OPTIONS: [(&str, bool); 22] = [
        ("--seeds", true),
        ("--base-seed", true),
        ("--threads", true),
        ("--quick", false),
        ("--no-faults", false),
        ("--oracle", false),
        ("--analyze", false),
        ("--topology", true),
        ("--trace-dir", true),
        ("--trace-cap", true),
        ("--out", true),
        ("--replay", true),
        ("--export-vcd", true),
        ("--export-chrome", true),
        ("--explore", true),
        ("--depth", true),
        ("--max-states", true),
        ("--no-por", false),
        ("--adversarial", false),
        ("--explore-dir", true),
        ("--help", false),
        ("-h", false),
    ];

    /// Option values: edge numbers, known and unknown names, junk.
    const VALUES: [&str; 17] = [
        "",
        "-1",
        "0",
        "1",
        "2",
        "256",
        "257",
        "1000000",
        "1000001",
        "18446744073709551615",
        "18446744073709551616",
        "mtx",
        "sem_chain",
        "nope",
        "--frobnicate",
        "x",
        "d/e",
    ];

    /// Argument vectors: each draw appends an option with its value, the
    /// option alone (a missing value, or one taken from the next token),
    /// or a stray value.
    fn arg_vectors() -> impl Strategy<Value = Vec<String>> {
        let draw = (0..OPTIONS.len(), 0..VALUES.len(), 0u8..8);
        collection::vec(draw, 0..8).prop_map(|draws| {
            let mut args = Vec::new();
            for (o, v, shape) in draws {
                let (option, takes_value) = OPTIONS[o];
                if shape > 0 {
                    args.push(option.to_string());
                }
                if shape == 0 || (shape > 1 && takes_value) {
                    args.push(VALUES[v].to_string());
                }
            }
            args
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        /// `parse_args` never panics, and every configuration it accepts
        /// can run: a seed range that fits in `u64`, at most a million
        /// seeds, 1 to 256 workers, and under `--explore` nonzero
        /// bounds. Only parses; nothing here starts a campaign or a
        /// thread.
        fn accepted_configs_are_runnable(args in arg_vectors()) {
            let Ok(cli) = parse_args(args.iter().cloned()) else {
                return Ok(());
            };
            let cfg = &cli.cfg;
            prop_assert!(
                cfg.seeds == 0 || cfg.base_seed.checked_add(cfg.seeds - 1).is_some(),
                "{args:?}: seeds {} from {}",
                cfg.seeds,
                cfg.base_seed
            );
            prop_assert!(cfg.seeds <= MAX_SEEDS, "{args:?}: {} seeds", cfg.seeds);
            prop_assert!(cfg.threads <= MAX_THREADS, "{args:?}: {} threads", cfg.threads);
            prop_assert!(cfg.effective_threads() >= 1, "{args:?}");
            if let Some(e) = &cli.explore {
                prop_assert!(e.depth >= 1 && e.max_states >= 1, "{args:?}: {e:?}");
            }
        }
    }

    #[test]
    fn exports_are_allowed_with_explore() {
        let cli = parse(&["--explore", "deadlock", "--export-vcd", "w"]).unwrap();
        assert!(cli.explore.is_some());
        assert_eq!(cli.export_vcd.as_deref(), Some(std::path::Path::new("w")));
    }
}
