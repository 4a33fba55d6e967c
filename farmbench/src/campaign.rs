//! The `quick_campaign` and `oracle_capture` workloads, and the
//! per-seed layer decomposition the traced run shares with
//! `explore_sweep`'s kernel twins.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rtk_analysis::trace_codec::{
    decode_trace, encode_trace, CodecError, TraceHeader, TraceTrailer, TraceTuning,
};
use rtk_core::{KernelConfig, ObsEvent, GRAMMAR_VERSION};
use rtk_farm::{
    check, replay_path, replay_trace, run_campaign, run_scenario_checked_on, run_scenario_observed,
    run_scenario_traced, CampaignConfig, CampaignReport, ReplayedTrace, ScenarioOutcome,
    ScenarioSpec, TraceConfig, Tuning,
};

use crate::spans::{percentile, Layers, Recorder};
use crate::{off_and_on, Pass, Round, Tally, Workload};

/// `quick_campaign` seed blocks (`--seed % 4` picks one): base seed and
/// the campaign digest pinned for its 1000 seeds.
const QUICK_BLOCKS: [(u64, u64); 4] = [
    (1, 0x7955_fea8_7e74_a144),
    (1001, 0x2092_4a00_d20d_919e),
    (2001, 0x4ee2_5450_8700_fed3),
    (3001, 0x5bb9_55c1_b81b_0ad7),
];
const QUICK_SEEDS: u64 = 1000;
const QUICK_WORKERS: usize = 2;

/// `oracle_capture` seed blocks: base seed, campaign digest and oracle
/// events pinned for its 256 full-horizon seeds.
const ORACLE_BLOCKS: [(u64, u64, u64); 4] = [
    (1, 0x4b09_97a3_f241_ed5a, 523_508),
    (257, 0xe94b_5ffa_f15a_6018, 480_595),
    (513, 0x5330_e16b_889f_5a7f, 527_499),
    (769, 0x0ee2_47dd_1c07_8c05, 530_077),
];
const ORACLE_SEEDS: u64 = 256;

/// Idle coroutine stacks allocated at set-up: above the peak two
/// workers ever hold at once, so `coro.stacks_allocated` stays exact.
const PREWARM_STACKS: usize = 128;

/// Pre-allocates coroutine stacks (no-op where the coroutine runtime
/// is unavailable).
pub fn prewarm() {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    sysc::runtime::prewarm_stacks(PREWARM_STACKS);
}

/// `(leases, stacks allocated, recycled)` of the global stack pool.
pub fn stack_counts() -> [u64; 3] {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    {
        let s = sysc::runtime::stack_stats();
        [s.leases, s.stacks_allocated, s.recycled]
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    [0; 3]
}

/// `coro.*`: stack-pool deltas between two [`stack_counts`] readings.
pub fn stack_metrics(before: [u64; 3], after: [u64; 3], round: &mut Round) {
    let names = [
        "coro.stack_leases",
        "coro.stacks_allocated",
        "coro.recycled",
    ];
    for i in 0..3 {
        round.exact.insert(names[i].into(), after[i] - before[i]);
    }
}

/// Empties and recreates `dir`.
pub fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("benchmark scratch directory must be creatable");
    dir.to_path_buf()
}

/// A campaign workload: `run_campaign` over four consecutive seed
/// blocks, one block per pass in turn.
pub struct Campaign {
    /// The campaign settings; `base_seed` is set per pass.
    cfg: CampaignConfig,
    /// The blocks, in seed order.
    blocks: Vec<Block>,
    /// The `--seed`-selected block: measured passes start there and
    /// traced rounds run it.
    first: usize,
    /// Block the next pass runs.
    next: usize,
    work: PathBuf,
}

/// One seed block of a campaign workload.
struct Block {
    base: u64,
    /// Pinned campaign digest and (oracle runs) oracle events; `None`
    /// for a held-out block, which is compared between passes instead.
    pinned: Option<(u64, Option<u64>)>,
    /// Per-seed outcome digests of the block's first pass.
    reference: Option<Vec<u64>>,
}

impl Campaign {
    /// `quick_campaign`: blocks of 1000 seeds, `--quick`, faults on, no
    /// sinks, 2 workers.
    pub fn quick(seed: u64, base: Option<u64>, work: &Path) -> Result<Campaign, String> {
        let pinned = QUICK_BLOCKS.map(|(b, digest)| (b, (digest, None)));
        Campaign::new(seed, base, &pinned, QUICK_SEEDS, QUICK_WORKERS, true, work)
    }

    /// `oracle_capture`: blocks of 256 full-horizon seeds, faults on,
    /// oracle plus `.rtkt` capture, 1 worker, then `replay_path` over
    /// the captures.
    pub fn oracle(seed: u64, base: Option<u64>, work: &Path) -> Result<Campaign, String> {
        let pinned = ORACLE_BLOCKS.map(|(b, digest, events)| (b, (digest, Some(events))));
        Campaign::new(seed, base, &pinned, ORACLE_SEEDS, 1, false, work)
    }

    /// Blocks are the pinned ones, or (with `base`) four held-out blocks
    /// from `base` on; `seed % 4` picks the block measured passes start at.
    fn new(
        seed: u64,
        base: Option<u64>,
        pinned: &[(u64, (u64, Option<u64>)); 4],
        seeds: u64,
        threads: usize,
        quick: bool,
        work: &Path,
    ) -> Result<Campaign, String> {
        let blocks: Vec<Block> = match base {
            None => pinned
                .iter()
                .map(|&(base, pin)| Block {
                    base,
                    pinned: Some(pin),
                    reference: None,
                })
                .collect(),
            Some(b) => {
                b.checked_add(4 * seeds)
                    .ok_or("--base-seed too large for four seed blocks")?;
                (0..4)
                    .map(|i| Block {
                        base: b + i * seeds,
                        pinned: None,
                        reference: None,
                    })
                    .collect()
            }
        };
        std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
        prewarm();
        Ok(Campaign {
            cfg: CampaignConfig {
                seeds,
                threads,
                tuning: Tuning {
                    quick,
                    faults: true,
                },
                // The full-horizon workload is the oracle + capture one.
                oracle: !quick,
                ..CampaignConfig::default()
            },
            blocks,
            first: (seed % 4) as usize,
            next: (seed % 4) as usize,
            work: work.to_path_buf(),
        })
    }

    fn capture(&self, name: &str) -> Option<PathBuf> {
        self.cfg.oracle.then(|| fresh_dir(&self.work.join(name)))
    }

    /// One gated pass over block `block`.
    fn run_block(&mut self, block: usize, rec: &Recorder, tally: &mut Tally) -> Pass {
        let live = self.capture("live");
        let mut cfg = self.cfg.clone();
        cfg.base_seed = self.blocks[block].base;
        cfg.trace = live.as_ref().map(|dir| trace_config(dir, &cfg.tuning));
        let t = Instant::now();
        let outcomes = rec.span("farm::runner", 0, None, |_| run_campaign(&cfg));
        let (report, digest) = rec.span("farm::report", 0, None, |_| {
            let report = CampaignReport::new(cfg, outcomes);
            std::hint::black_box(report.aggregate());
            let digest = report.digest();
            (report, digest)
        });
        let items_s = t.elapsed().as_secs_f64();
        self.gate_campaign(block, &report, digest, tally);

        let mut pass = Pass {
            group: block,
            items: self.cfg.seeds,
            items_s,
            pass_s: items_s,
            replay: None,
        };
        if let Some(dir) = live {
            let t = Instant::now();
            let traces = rec.span("farm::replay.path", 0, None, |_| replay_path(&dir));
            let replay_s = t.elapsed().as_secs_f64();
            let events = gate_replay(&report.outcomes, traces, tally);
            pass.pass_s += replay_s;
            pass.replay = Some((events, replay_s));
            let _ = std::fs::remove_dir_all(&dir);
        }
        pass
    }

    fn gate_campaign(
        &mut self,
        block: usize,
        report: &CampaignReport,
        digest: u64,
        tally: &mut Tally,
    ) {
        for o in &report.outcomes {
            tally.check(o.healthy(), || {
                format!("seed {}: unhealthy: {}", o.seed, unhealthy(o))
            });
        }
        let block = &mut self.blocks[block];
        if let Some((want, events)) = block.pinned {
            tally.check(digest == want, || {
                format!("campaign digest {digest:016x}, pinned {want:016x}")
            });
            if let Some(want) = events {
                let got: u64 = report.outcomes.iter().map(|o| o.oracle_events).sum();
                tally.check(got == want, || {
                    format!("oracle events {got}, pinned {want}")
                });
            }
        }
        let per_seed: Vec<u64> = report
            .outcomes
            .iter()
            .map(ScenarioOutcome::digest)
            .collect();
        match &block.reference {
            None => block.reference = Some(per_seed),
            Some(r) => tally.check(*r == per_seed, || {
                format!("campaign digest drifted between passes: now {digest:016x}")
            }),
        }
    }

    /// The traced decomposition of a pass over the selected block. First
    /// the campaign's own per-seed work, one `farm::scenario` and one
    /// `farm::build` call per seed on the campaign's worker count; then,
    /// on oracle_capture, the observed layers seed by seed. Every seed is
    /// checked against the block's first pass.
    fn decompose(&self, rec: &Recorder, tally: &mut Tally) -> Vec<SeedRun> {
        let capture = self.capture("decomposed");
        let tc = capture
            .as_ref()
            .map(|dir| trace_config(dir, &self.cfg.tuning));
        let base = self.blocks[self.first].base;
        let n = self.cfg.seeds as usize;
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<SeedRun>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let runs: Vec<SeedRun> = rec.span("bench::pass", 0, None, |_| {
            std::thread::scope(|s| {
                for _ in 0..self.cfg.threads {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let seed = base + i as u64;
                        let run = rec.span("bench::seed", seed, None, |p| {
                            let spec = rec.span("farm::scenario", seed, p, |_| {
                                ScenarioSpec::generate(seed, &self.cfg.tuning)
                            });
                            build(rec, p, spec, tc.as_ref())
                        });
                        *slots[i].lock().expect("slot poisoned") = Some(run);
                    });
                }
            });
            let mut runs: Vec<SeedRun> = slots
                .into_iter()
                .map(|s| {
                    s.into_inner()
                        .expect("slot poisoned")
                        .expect("every seed ran")
                })
                .collect();
            if let Some(tc) = &tc {
                for run in &mut runs {
                    observe(rec, run, tc);
                }
            }
            runs
        });
        if let Some(dir) = &capture {
            let _ = std::fs::remove_dir_all(dir);
        }
        let reference = self.blocks[self.first]
            .reference
            .as_deref()
            .unwrap_or_default();
        for (i, r) in runs.iter().enumerate() {
            let same = reference.get(i) == Some(&r.out.digest());
            tally.check(same && r.problems.is_empty(), || {
                let mut why = r.problems.join("; ");
                if !same {
                    why.push_str(" traced outcome digest differs from the untraced campaign's");
                }
                format!("seed {}: {why}", r.id)
            });
        }
        runs
    }
}

fn unhealthy(o: &ScenarioOutcome) -> String {
    format!(
        "panicked={:?} stalled={} engine={} divergence={:?}",
        o.panicked, o.stalled, o.engine_outcome, o.divergence
    )
}

/// Compares each replayed verdict with the live one; returns the
/// oracle events replay re-checked.
fn gate_replay(
    outcomes: &[ScenarioOutcome],
    traces: Result<Vec<ReplayedTrace>, CodecError>,
    tally: &mut Tally,
) -> u64 {
    let traces = match traces {
        Ok(t) => t,
        Err(e) => {
            tally.check(false, || format!("replay_path: {e}"));
            return 0;
        }
    };
    tally.check(traces.len() == outcomes.len(), || {
        format!(
            "{} traces replayed for {} seeds",
            traces.len(),
            outcomes.len()
        )
    });
    let mut events = 0;
    for (o, t) in outcomes.iter().zip(&traces) {
        events += t.verdict.events_checked;
        let live = (o.seed, o.oracle_events, o.divergence.as_ref().map(|d| d.0));
        let replayed = (
            t.header.seed,
            t.verdict.events_checked,
            t.verdict.divergence.as_ref().map(|d| d.index as u64),
        );
        tally.check(live == replayed, || {
            format!("replayed verdict {replayed:?} differs from live {live:?}")
        });
    }
    events
}

impl Workload for Campaign {
    /// One pass over every block, in seed order, whatever `--seed` is.
    fn warm_up(&mut self, tally: &mut Tally) {
        for block in 0..self.blocks.len() {
            self.run_block(block, &Recorder::new(false), tally);
        }
    }

    fn pass(&mut self, rec: &Recorder, tally: &mut Tally) -> Pass {
        let block = self.next;
        self.next = (block + 1) % self.blocks.len();
        self.run_block(block, rec, tally)
    }

    /// Traced rounds all run the selected block, so their exact
    /// counters must agree.
    fn round(&mut self, on: &Recorder, off: &Recorder, on_first: bool, tally: &mut Tally) -> Round {
        let mark = on.mark();
        let before = stack_counts();
        self.run_block(self.first, on, tally);
        let after = stack_counts();
        let pass_spans = on.since(mark);
        let span_ns = |layer: &str| {
            pass_spans
                .iter()
                .find(|s| s.layer == layer)
                .map_or(0, |s| s.dur_ns())
        };
        let (runner_ns, report_ns) = (span_ns("farm::runner"), span_ns("farm::report"));

        let mark = on.mark();
        let (runs, on_s, off_s) = off_and_on(on, off, on_first, |rec| self.decompose(rec, tally));
        let mut round = Round {
            workers: self.cfg.threads,
            on_s,
            off_s,
            ..Round::default()
        };
        let spans = on.since(mark);
        let l = Layers::new(&spans);
        seed_metrics(&l, &runs, round.workers, on_s, &mut round);
        let w = round.workers as f64 * runner_ns as f64;
        let build_ns = l.total_ns("farm::build") as f64;
        let gen_ns = l.total_ns("farm::scenario") as f64;
        round
            .timed
            .insert("report.aggregate_us", report_ns as f64 / 1e3);
        round
            .timed
            .insert("runner.parallel_efficiency", build_ns / w);
        round
            .timed
            .insert("runner.overhead_share", 1.0 - (build_ns + gen_ns) / w);
        round
            .timed
            .insert("scenario.gen_ns_per_seed", gen_ns / runs.len() as f64);
        stack_metrics(before, after, &mut round);
        round.spans = spans;
        round
    }
}

/// The `.rtkt` capture settings the CLI's `--trace-dir` uses.
pub fn trace_config(dir: &Path, tuning: &Tuning) -> TraceConfig {
    TraceConfig {
        dir: dir.to_path_buf(),
        cap: 0,
        tuning: Some(TraceTuning {
            quick: tuning.quick,
            faults: tuning.faults,
        }),
    }
}

/// One scenario's pass through the layers, with its own checks.
pub struct SeedRun {
    /// Seed of the scenario.
    pub id: u64,
    spec: ScenarioSpec,
    /// Outcome of the `farm::build` call.
    out: ScenarioOutcome,
    /// Observation events (0 unless the observed layers ran).
    events: u64,
    /// `.rtkt` bytes the streaming writer produced.
    bytes: u64,
    /// Failed per-seed checks.
    pub problems: Vec<String>,
}

/// The campaign's per-seed call in a `farm::build` span: the kernel
/// alone, or (with `tc`) with the oracle sink and the `.rtkt` writer.
pub fn build(
    rec: &Recorder,
    p: Option<usize>,
    spec: ScenarioSpec,
    tc: Option<&TraceConfig>,
) -> SeedRun {
    let rt = sysc::Runtime::default();
    let out = rec.span("farm::build", spec.seed, p, |_| match tc {
        None => run_scenario_checked_on(&spec, false, rt),
        Some(tc) => run_scenario_traced(&spec, true, rt, tc),
    });
    SeedRun {
        id: spec.seed,
        spec,
        out,
        events: 0,
        bytes: 0,
        problems: Vec::new(),
    }
}

/// Runs a built scenario through the observed layers, one public call
/// each: the kernel alone, the kernel with a collected stream, the
/// oracle, the codec both ways, and replay of the file [`build`] wrote
/// into `tc.dir` (named like the farm's `seed-<seed>.rtkt`). Checks
/// that no sink changes the simulation, that the codec round-trips,
/// that the streaming writer and `encode_trace` agree byte for byte,
/// and that every verdict matches the live one.
pub fn observe(rec: &Recorder, run: &mut SeedRun, tc: &TraceConfig) {
    let (spec, out, seed) = (&run.spec, &run.out, run.id);
    let rt = sysc::Runtime::default();
    let path = tc.dir.join(format!("seed-{seed:010}.rtkt"));
    let header = TraceHeader {
        grammar_version: GRAMMAR_VERSION,
        seed,
        tick_us: KernelConfig::paper().tick.as_us() as u32,
        topology: spec.topology.label().to_string(),
        runtime: rt.resolve().as_str().to_string(),
        tuning: tc.tuning,
    };
    let (plain, observed, events, verdict, bytes, decoded, replayed) =
        rec.span("bench::seed", seed, None, |p| {
            let plain = rec.span("farm::build.plain", seed, p, |_| {
                run_scenario_checked_on(spec, false, rt)
            });
            let (observed, events) =
                rec.span("core::obs", seed, p, |_| run_scenario_observed(spec, rt));
            let evs: Vec<ObsEvent> = events.iter().map(|e| e.ev).collect();
            let verdict = rec.span("farm::oracle", seed, p, |_| check(&evs));
            let trailer = Some(TraceTrailer::clean(events.len() as u64));
            let bytes = rec.span("analysis::trace_codec.encode", seed, p, |_| {
                encode_trace(&header, &events, trailer)
            });
            let decoded = rec.span("analysis::trace_codec.decode", seed, p, |_| {
                decode_trace(&bytes)
            });
            let replayed = rec.span("farm::replay", seed, p, |_| replay_trace(&path));
            (plain, observed, events, verdict, bytes, decoded, replayed)
        });

    let live = (out.oracle_events, out.divergence.is_none());
    let mut unchecked = out.clone();
    unchecked.oracle_events = 0;
    let file = std::fs::read(&path).unwrap_or_default();
    let checks = [
        (
            plain.digest() == unchecked.digest(),
            "oracle/trace sinks changed the simulation",
        ),
        (
            observed.digest() == out.digest(),
            "collect sink changed the simulation",
        ),
        (
            (verdict.events_checked, verdict.divergence.is_none()) == live,
            "oracle::check over the recorded stream disagrees with the live verdict",
        ),
        (
            decoded.is_ok_and(|d| d.events == events),
            "decode_trace(encode_trace(stream)) is not the stream",
        ),
        (
            file == bytes,
            "TraceWriter file differs from encode_trace bytes",
        ),
        (
            replayed
                .is_ok_and(|r| (r.verdict.events_checked, r.verdict.divergence.is_none()) == live),
            "replay_trace verdict differs from the live one",
        ),
    ];
    for (ok, what) in checks {
        if !ok {
            run.problems.push(what.to_string());
        }
    }
    run.events = events.len() as u64;
    run.bytes = file.len() as u64;
}

/// Per-layer metrics of a set of [`SeedRun`]s and their spans.
pub fn seed_metrics(l: &Layers, runs: &[SeedRun], workers: usize, wall_s: f64, round: &mut Round) {
    let build: Vec<u64> = l.of("farm::build").map(|s| s.dur_ns()).collect();
    let build_ns = build.iter().sum::<u64>() as f64;
    let sum = |f: fn(&SeedRun) -> u64| runs.iter().map(f).sum::<u64>();
    let dispatches = sum(|r| r.out.stats.dispatches);
    let events = sum(|r| r.events);
    let sim_s: f64 = runs.iter().map(|r| r.out.stats.now.as_secs_f64()).sum();

    let exact: [(&str, u64); 6] = [
        ("core.dispatches", dispatches),
        ("core.preemptions", sum(|r| r.out.stats.preemptions)),
        ("core.interruptions", sum(|r| r.out.stats.interruptions)),
        ("core.ticks", sum(|r| r.out.stats.ticks)),
        ("core.activations", sum(|r| r.out.stats.activations)),
        ("core.threads", sum(|r| u64::from(r.out.stats.threads))),
    ];
    round.exact.extend(exact.map(|(k, v)| (k.to_string(), v)));
    let t = &mut round.timed;
    t.insert("build.run_us_p50", percentile(&build, 50) as f64 / 1e3);
    t.insert("build.run_us_p99", percentile(&build, 99) as f64 / 1e3);
    t.insert("build.run_us_max", percentile(&build, 100) as f64 / 1e3);
    t.insert(
        "build.busy_share",
        build_ns / (workers as f64 * wall_s * 1e9),
    );
    t.insert("build.ns_per_dispatch", build_ns / dispatches.max(1) as f64);
    t.insert("build.sim_speed", sim_s / (build_ns / 1e9));
    if events > 0 {
        let bytes = sum(|r| r.bytes);
        round.exact.insert("obs.events".into(), events);
        round.exact.insert("codec.bytes".into(), bytes);
        let per_event = |ns: u64| ns as f64 / events as f64;
        let sink_path = l
            .total_ns("core::obs")
            .saturating_sub(l.total_ns("farm::build.plain"));
        t.insert(
            "obs.events_per_dispatch",
            events as f64 / dispatches.max(1) as f64,
        );
        t.insert("obs.sink_path_ns_per_event", per_event(sink_path));
        t.insert(
            "oracle.check_ns_per_event",
            per_event(l.total_ns("farm::oracle")),
        );
        t.insert(
            "codec.encode_ns_per_event",
            per_event(l.total_ns("analysis::trace_codec.encode")),
        );
        t.insert(
            "codec.decode_ns_per_event",
            per_event(l.total_ns("analysis::trace_codec.decode")),
        );
        t.insert("codec.bytes_per_event", bytes as f64 / events as f64);
        t.insert("replay.ns_per_event", per_event(l.total_ns("farm::replay")));
    }
    let mut by_id: BTreeMap<u64, u64> = BTreeMap::new();
    for s in l.of("farm::build") {
        *by_id.entry(s.id).or_default() += s.dur_ns();
    }
    round.item_us = runs
        .iter()
        .map(|r| {
            (
                r.id,
                by_id.get(&r.id).copied().unwrap_or(0) / 1000,
                r.spec.topology.label().to_string(),
            )
        })
        .collect();
}
