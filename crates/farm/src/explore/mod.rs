//! `rtk-farm --explore`: a bounded model checker over the executable
//! ITRON spec.
//!
//! The campaign validates the kernel against the oracle one random
//! schedule per seed; this module turns the same oracle state
//! ([`SpecState`]) into a *closed transition system* and walks every
//! schedule of a small hand-built topology ([`Family`]) exhaustively.
//! The nondeterminism is exactly what a real execution resolves by
//! accident of timing:
//!
//! * which armed **timeout** fires first when several tie on a tick,
//! * which tick of its jitter window an **IRQ** arrives on,
//! * whether a budgeted **fault** (dropped IRQ arrival, delayed
//!   release) strikes at a choice point,
//! * interleaving of same-tick **cyclic releases** and the running
//!   task's operation completion.
//!
//! Scheduler choices (dispatch, preemption) are *forced* — the ITRON
//! scheduler is deterministic — so they never branch; the explorer
//! simply plays them.
//!
//! The walk is an explicit-stack DFS with a canonical FNV-1a state
//! hash for revisit dedup and a partial-order reduction: when every
//! candidate at a frontier is pairwise independent (same tick,
//! disjoint object/task footprints) and every pair, executed in both
//! orders, reaches the same state hash, the commuting diamond
//! collapses to one representative order. Violations
//! — deadlock states, broken spec invariants, contradiction of an
//! `rtk-verify` certificate — are distilled into `.rtkt`-replayable
//! event streams, and families with a kernel-executable twin are
//! cross-executed on the real kernel. See `docs/EXPLORATION.md`.

mod program;

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::path::{Path, PathBuf};

use rtk_analysis::static_verify::AnalysisOptions;
use rtk_analysis::trace_codec::{encode_trace, TraceHeader, TraceTrailer};
use rtk_core::{CycId, MtxId, ObsEvent, SemId, StampedEvent, TaskId, WaitObj};

use crate::build::{run_scenario, RunPlan};
use crate::oracle::{SpecMutation, SpecState};
use crate::scenario::Fnv;
use crate::verify::{analyze_spec, explore_certificate_contradiction};

pub use program::Family;
use program::{ExploreModel, Micro, GATE_BASE};

/// Violations whose full event streams are retained as counterexamples;
/// later ones are reported without a stream.
const MAX_COUNTEREXAMPLES: usize = 8;

/// Bounds and switches of one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// The topology family to explore.
    pub family: Family,
    /// Maximum DFS depth (transitions on one path).
    pub depth: usize,
    /// Maximum number of distinct states to visit.
    pub max_states: usize,
    /// Partial-order reduction (collapse commuting frontiers).
    pub por: bool,
    /// Adversarial scheduler mode: at every branch keep only the
    /// choices that maximize preemption (POR is off in this mode —
    /// the selection already prunes).
    pub adversarial: bool,
    /// Fault-injection branch points (budgeted dropped IRQs and
    /// delayed releases). `--no-faults` clears this.
    pub faults: bool,
    /// Explore a deliberately-mutated spec (the mutation-sensitivity
    /// proofs in `crates/farm/tests/explore.rs`). Not CLI-reachable.
    pub mutation: Option<SpecMutation>,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            family: Family::Mtx,
            depth: 2000,
            max_states: 200_000,
            por: true,
            adversarial: false,
            faults: true,
            mutation: None,
        }
    }
}

/// One violation found by exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Violation class: `deadlock`, `invariant` or `spec_error`.
    pub kind: String,
    /// Tick of the violating state.
    pub tick: u64,
    /// Canonical hash of the violating state.
    pub state_hash: u64,
    /// Deterministic counterexample trace file name (written when
    /// `--explore-dir` is given; the name is assigned regardless).
    pub trace: String,
    /// Human-readable account.
    pub detail: String,
}

/// A replayable counterexample: the full observation-event stream
/// from system creation to the violating state. Encoded as a `.rtkt`
/// trace it replays through `rtk-farm --replay` like any captured
/// campaign trace, and exports through `--export-vcd`/
/// `--export-chrome`.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// File name this counterexample is written under (matches the
    /// [`Violation::trace`] it proves).
    pub name: String,
    /// Violation class it reaches.
    pub kind: String,
    /// Trace-header seed (sentinel range, outside the campaign space).
    pub seed: u64,
    /// The event stream, tick-stamped.
    pub events: Vec<StampedEvent>,
}

/// Deterministic summary of one exploration run; rendered to
/// `rtk-farm-explore-v1` JSON by [`ExploreReport::to_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreReport {
    /// Family label.
    pub family: String,
    /// Partial-order reduction was active.
    pub por: bool,
    /// Adversarial scheduler mode was active.
    pub adversarial: bool,
    /// Fault branch points were active.
    pub faults: bool,
    /// Configured DFS depth bound.
    pub depth_limit: usize,
    /// Configured state-count bound.
    pub max_states: usize,
    /// Model horizon in ticks.
    pub horizon: u64,
    /// Distinct states visited.
    pub states: u64,
    /// Transitions taken.
    pub transitions: u64,
    /// Transitions that landed on an already-visited state.
    pub deduped: u64,
    /// Candidates pruned by partial-order reduction.
    pub collapsed: u64,
    /// Deepest DFS path reached.
    pub max_depth: u64,
    /// A bound cut the walk short (the counts are a lower bound).
    pub truncated: bool,
    /// Forced preemptions played.
    pub preemptions: u64,
    /// Deadlock states found.
    pub deadlocks: u64,
    /// States with broken spec invariants.
    pub invariant_violations: u64,
    /// Internal spec-transition failures (always a bug).
    pub spec_errors: u64,
    /// FNV-1a digest folded over visited state hashes in visit order —
    /// the determinism anchor (byte-identical across thread counts and
    /// hosts).
    pub state_hash: u64,
    /// `rtk-verify` deadlock certificate of the kernel-executable twin
    /// (`certified`/`refuted`/`unknown`), or `none` without a twin.
    pub certificate: String,
    /// Certificate contradiction account, if exploration refuted it.
    pub certificate_contradiction: Option<String>,
    /// Cross-execution of the twin on the real kernel (`healthy`,
    /// `diverged: …`, `unhealthy`), or `none` without a twin.
    pub cross_execution: String,
    /// The violations, in discovery order.
    pub violations: Vec<Violation>,
}

impl ExploreReport {
    /// Renders the deterministic `rtk-farm-explore-v1` JSON report.
    pub fn to_json(&self) -> String {
        crate::report::render_explore_json(self)
    }

    /// `true` when exploration found no violation of any class.
    pub fn clean(&self) -> bool {
        self.deadlocks == 0
            && self.invariant_violations == 0
            && self.spec_errors == 0
            && self.certificate_contradiction.is_none()
    }
}

/// An exploration result: the report plus the retained counterexample
/// streams.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// The deterministic report.
    pub report: ExploreReport,
    /// Retained counterexamples: those of the first eight violations.
    pub counterexamples: Vec<Counterexample>,
}

/// Writes every retained counterexample of `outcome` as a `.rtkt`
/// trace into `dir` (created if missing). Returns the written paths.
pub fn write_counterexamples(
    outcome: &ExploreOutcome,
    dir: &Path,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::with_capacity(outcome.counterexamples.len());
    for ce in &outcome.counterexamples {
        let header = TraceHeader::new(
            ce.seed,
            &format!("explore_{}", outcome.report.family),
            "explore",
        );
        let bytes = encode_trace(
            &header,
            &ce.events,
            Some(TraceTrailer::clean(ce.events.len() as u64)),
        );
        let path = dir.join(&ce.name);
        std::fs::write(&path, bytes)?;
        written.push(path);
    }
    Ok(written)
}

/// Runs one bounded exhaustive exploration: walks the family's
/// schedule tree, then anchors the result with the `rtk-verify`
/// certificate cross-check and (when the family has a twin) one
/// cross-execution on the real kernel.
///
/// Exploration itself is single-threaded and a pure function of `cfg`;
/// the report is byte-identical across worker-thread settings and
/// hosts. `runtime` is ignored: coroutines are sysc's only process
/// runtime, and the parameter stays because the `farmbench/` benchmark
/// calls this signature.
pub fn run_exploration(cfg: &ExploreConfig, _runtime: sysc::Runtime) -> ExploreOutcome {
    let model = cfg.family.model(cfg.faults);
    let mut walker = Walker::new(cfg, &model);
    walker.run();
    let Walker {
        mut report,
        frontier,
        counterexamples,
        ..
    } = walker;
    report.state_hash = frontier.finish();

    if let Some(cross) = &model.cross {
        let analysis = analyze_spec(cross, &AnalysisOptions::default());
        report.certificate = analysis.deadlock.to_string();
        report.certificate_contradiction =
            explore_certificate_contradiction(cross, &analysis, report.deadlocks);
        let plan = RunPlan {
            oracle: true,
            ..RunPlan::default()
        };
        let (out, _) = run_scenario(cross, &plan);
        report.cross_execution = match (&out.divergence, out.healthy()) {
            (Some((idx, detail)), _) => format!("diverged: event {idx}: {detail}"),
            (None, false) => "unhealthy".to_string(),
            (None, true) => "healthy".to_string(),
        };
    }

    ExploreOutcome {
        report,
        counterexamples,
    }
}

/// Per-task program position: the op index and, at an [`Micro::Exec`],
/// the remaining ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TaskRt {
    pc: usize,
    rem: u64,
}

/// One explored system state: the spec state plus the environment the
/// spec does not own (clock, program counters, deferred-release debts,
/// IRQ schedule, fault budgets).
#[derive(Debug)]
struct ExpState {
    spec: SpecState,
    now: u64,
    tasks: Vec<TaskRt>,
    owed: Vec<u32>,
    irq_next: u64,
    delays_left: u32,
    drops_left: u32,
}

clone_fields!(ExpState {
    spec,
    now,
    tasks,
    owed,
    irq_next,
    delays_left,
    drops_left,
});

impl ExpState {
    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.spec.canon_digest());
        h.u64(self.now);
        for t in &self.tasks {
            h.u64(t.pc as u64);
            h.u64(t.rem);
        }
        for &o in &self.owed {
            h.u64(u64::from(o));
        }
        h.u64(self.irq_next);
        h.u64(u64::from(self.delays_left));
        h.u64(u64::from(self.drops_left));
        h.finish()
    }
}

/// One resolvable branch at a frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EChoice {
    /// A spec-enabled event: the forced `Dispatch`/`Preempt`
    /// (instantaneous) or an armed `TimerFire` at its tick.
    Spec(ObsEvent),
    /// The running task's current `Exec` burst finishes.
    OpComplete { task: u32, tick: u64 },
    /// Periodic task `tid`'s cyclic handler fires; `idx` is its slot
    /// among the release sources (its deferred-release debt), and
    /// `delayed` defers the gate signal (fault, budgeted).
    CycFire {
        idx: usize,
        tid: u32,
        tick: u64,
        delayed: bool,
    },
    /// The IRQ arrives on tick `tick` of its jitter window; `dropped`
    /// suppresses the signal (fault, budgeted).
    IrqFire { tick: u64, dropped: bool },
}

/// A computed successor: the candidate's child state and where its
/// realized event tail lies in [`Walker::events`]. Every event of a
/// tail happens at the child's clock.
struct Cand {
    choice: EChoice,
    child: Box<ExpState>,
    events: Range<usize>,
}

/// Spent state boxes. A copy is cloned into one with `clone_from`,
/// which keeps the buffers it holds, so copying a state allocates only
/// while the walk's peak number of live states grows. The states stay
/// boxed because a box moves into a candidate and back for the cost of
/// a pointer.
#[derive(Default)]
#[allow(clippy::vec_box)]
struct Spare(Vec<Box<ExpState>>);

impl Spare {
    /// A boxed copy of `st`.
    fn copy_of(&mut self, st: &ExpState) -> Box<ExpState> {
        match self.0.pop() {
            Some(mut spent) => {
                (*spent).clone_from(st);
                spent
            }
            None => Box::new(st.clone()),
        }
    }

    fn put(&mut self, st: Box<ExpState>) {
        self.0.push(st);
    }
}

/// One state on the DFS path.
struct Frame {
    /// [`Walker::cands`] from this index on holds the state's untried
    /// candidates.
    cands_from: usize,
    /// [`Walker::events`] from this index on holds the event tails of
    /// the state's candidates.
    events_from: usize,
    /// The events that led into the state, all at `tick`, in the
    /// parent frame's part of [`Walker::events`].
    incoming: Range<usize>,
    tick: u64,
}

enum Expansion {
    LeafHorizon,
    LeafQuiescent,
    LeafDeadlock,
    /// The candidates are in the buffer given to [`expand`].
    Choices,
}

/// Hashes a key that is already a digest. FNV-1a mixes its input into
/// the high bits of its state, so the high half is folded down into the
/// low bits, which pick the hash-table bucket.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 digests are hashed");
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest ^ (digest >> 32);
    }
}

struct Walker<'a> {
    cfg: &'a ExploreConfig,
    model: &'a ExploreModel,
    visited: HashSet<u64, BuildHasherDefault<Prehashed>>,
    stack: Vec<Frame>,
    /// The untried candidates of every frame on the stack, frame by
    /// frame; each frame's are stored last first, so the next one pops
    /// off the end.
    cands: Vec<Cand>,
    /// The root's creation events, then the event tails of the
    /// candidates of every frame on the stack, frame by frame.
    events: Vec<ObsEvent>,
    /// Scratch for one frontier: the spec-enabled events, the choices
    /// and the candidates built from them.
    enabled: Vec<ObsEvent>,
    choices: Vec<EChoice>,
    built: Vec<Cand>,
    /// Every state the walk is done with: deduped children, leaves,
    /// pruned candidates and the POR check's scratch states.
    spare: Spare,
    /// Visited state hashes folded in visit order; its digest becomes
    /// the report's `state_hash` once the walk ends.
    frontier: Fnv,
    report: ExploreReport,
    counterexamples: Vec<Counterexample>,
}

impl<'a> Walker<'a> {
    fn new(cfg: &'a ExploreConfig, model: &'a ExploreModel) -> Walker<'a> {
        Walker {
            cfg,
            model,
            visited: HashSet::default(),
            stack: Vec::new(),
            cands: Vec::new(),
            events: Vec::new(),
            enabled: Vec::new(),
            choices: Vec::new(),
            built: Vec::new(),
            spare: Spare::default(),
            frontier: Fnv::new(),
            report: ExploreReport {
                family: model.family.label().to_string(),
                por: cfg.por && !cfg.adversarial,
                adversarial: cfg.adversarial,
                faults: cfg.faults,
                depth_limit: cfg.depth,
                max_states: cfg.max_states,
                horizon: model.horizon,
                states: 0,
                transitions: 0,
                deduped: 0,
                collapsed: 0,
                max_depth: 0,
                truncated: false,
                preemptions: 0,
                deadlocks: 0,
                invariant_violations: 0,
                spec_errors: 0,
                state_hash: 0,
                certificate: "none".to_string(),
                certificate_contradiction: None,
                cross_execution: "none".to_string(),
                violations: Vec::new(),
            },
            counterexamples: Vec::new(),
        }
    }

    fn run(&mut self) {
        let root = match self.build_root() {
            Ok(v) => Box::new(v),
            Err(e) => {
                self.record_violation("spec_error", 0, 0, &e, Vec::new());
                return;
            }
        };
        let h = root.digest();
        self.visited.insert(h);
        self.frontier.u64(h);
        self.report.states = 1;
        let root_events = 0..self.events.len();
        if let Some(frame) = self.enter(root, h, root_events) {
            self.stack.push(frame);
        }
        while let Some(top) = self.stack.last() {
            if self.cands.len() == top.cands_from {
                let done = self.stack.pop().expect("non-empty stack");
                self.events.truncate(done.events_from);
                continue;
            }
            let cand = self.cands.pop().expect("the top frame has a candidate");
            let report = &mut self.report;
            report.transitions += 1;
            if matches!(cand.choice, EChoice::Spec(ObsEvent::Preempt { .. })) {
                report.preemptions += 1;
            }
            let h = cand.child.digest();
            if !self.visited.insert(h) {
                report.deduped += 1;
                self.spare.put(cand.child);
                continue;
            }
            self.frontier.u64(h);
            report.states += 1;
            if let Some(frame) = self.enter(cand.child, h, cand.events) {
                self.stack.push(frame);
                self.report.max_depth = self.report.max_depth.max(self.stack.len() as u64);
            }
        }
    }

    /// Visits a freshly-discovered state: checks invariants, applies
    /// the bounds, expands the frontier and pushes its candidates.
    /// Returns the frame to descend into, or `None` for a leaf.
    fn enter(&mut self, st: Box<ExpState>, hash: u64, incoming: Range<usize>) -> Option<Frame> {
        let tick = st.now;
        let broken = st.spec.invariant_violations();
        if !broken.is_empty() {
            self.report.invariant_violations += 1;
            let detail = broken.join("; ");
            let path = self.path_events(&incoming, tick);
            self.record_violation("invariant", tick, hash, &detail, path);
        }
        if self.stack.len() >= self.cfg.depth || self.report.states >= self.cfg.max_states as u64 {
            self.report.truncated = true;
            self.spare.put(st);
            return None;
        }
        match expand(self.model, &st, &mut self.enabled, &mut self.choices) {
            Expansion::LeafHorizon | Expansion::LeafQuiescent => {
                self.spare.put(st);
                return None;
            }
            Expansion::LeafDeadlock => {
                self.report.deadlocks += 1;
                let waiting = st.spec.waiting_tasks();
                let detail = format!(
                    "deadlock: no enabled transition, task(s) {} blocked forever",
                    waiting
                        .iter()
                        .map(|t| format!("tsk{t}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                let path = self.path_events(&incoming, tick);
                self.record_violation("deadlock", tick, hash, &detail, path);
                self.spare.put(st);
                return None;
            }
            Expansion::Choices => {}
        }
        let running_pri = st.spec.running().and_then(|r| st.spec.current_priority(r));
        let events_from = self.events.len();
        let mut built = std::mem::take(&mut self.built);
        // Every candidate but the last steps a copy of the state; the
        // last one steps the state itself.
        let n = self.choices.len();
        let mut parent = Some(st);
        for i in 0..n {
            let ch = self.choices[i];
            let from = if i + 1 < n {
                parent.as_deref().map(|p| self.spare.copy_of(p))
            } else {
                parent.take()
            };
            let mut child = from.expect("the state is held until the last choice");
            let start = self.events.len();
            match apply_choice(self.model, &mut child, &ch, &mut self.events) {
                Ok(()) => built.push(Cand {
                    choice: ch,
                    child,
                    events: start..self.events.len(),
                }),
                Err(e) => {
                    self.spare.put(child);
                    self.report.spec_errors += 1;
                    let detail = format!("spec transition failed on {ch:?}: {e}");
                    let path = self.path_events(&incoming, tick);
                    self.record_violation("spec_error", tick, hash, &detail, path);
                }
            }
        }
        if self.cfg.adversarial && built.len() > 1 {
            let score = |c: &Cand| -> u32 {
                match running_pri {
                    Some(rp) => u32::from(
                        wake_pri(&c.child, &self.events[c.events.clone()]).is_some_and(|p| p < rp),
                    ),
                    None => 0,
                }
            };
            let best = built.iter().map(&score).max().unwrap_or(0);
            for pruned in built.extract_if(.., |c| score(c) != best) {
                self.report.collapsed += 1;
                self.spare.put(pruned.child);
            }
        } else if self.cfg.por && built.len() > 1 && self.frontier_commutes(&built) {
            // The whole frontier commutes: every order reaches the
            // same joint state (verified, not assumed — see
            // `frontier_commutes`) and, footprints being disjoint, any
            // violation on a pruned intermediate state persists into
            // it. One representative order suffices.
            self.report.collapsed += (built.len() - 1) as u64;
            for pruned in built.drain(1..) {
                self.spare.put(pruned.child);
            }
        }
        let cands_from = self.cands.len();
        self.cands.extend(built.drain(..).rev());
        self.built = built;
        Some(Frame {
            cands_from,
            events_from,
            incoming,
            tick,
        })
    }

    /// The partial-order-reduction gate, two layers deep:
    ///
    /// 1. **Static independence** — every candidate is a pure stimulus
    ///    (no CPU-coupled effects) at the same tick, and footprint
    ///    token sets (tasks, objects, sources, budgets) are pairwise
    ///    disjoint. This is the soundness backbone: a violation on an
    ///    intermediate state of a pruned order involves only that
    ///    candidate's footprint, which the disjoint siblings cannot
    ///    repair, so it persists into the joint state the
    ///    representative order visits.
    /// 2. **Verified confluence** — independence of footprints does
    ///    *not* by itself make same-tick stimuli commute: if the CPU
    ///    is idle, the first wakeup's forced dispatch can let the
    ///    woken task run instantaneous ops (take a lock!) before the
    ///    sibling stimulus lands. So every unordered pair is executed
    ///    both ways — through all interposed forced moves — and must
    ///    reach digest-identical joint states. This layer also rejects
    ///    two wakes of equal current priority: they enter the ready
    ///    queue in the order they land, and that order is hashed.
    fn frontier_commutes(&mut self, cands: &[Cand]) -> bool {
        let tail = |c: &Cand| &self.events[c.events.clone()];
        for (i, a) in cands.iter().enumerate() {
            if cpu_coupled(&a.choice, tail(a)) {
                return false;
            }
            for b in &cands[i + 1..] {
                let disjoint = footprint(self.model, &a.choice, tail(a))
                    .all(|x| footprint(self.model, &b.choice, tail(b)).all(|y| x != y));
                if a.child.now != b.child.now || !disjoint {
                    return false;
                }
            }
        }
        let scratch = self.events.len();
        for (i, a) in cands.iter().enumerate() {
            for b in &cands[i + 1..] {
                let mut joint = self.spare.copy_of(&a.child);
                let ab = joint_digest(self.model, &mut joint, &b.choice, &mut self.events);
                joint.clone_from(&b.child);
                let ba = joint_digest(self.model, &mut joint, &a.choice, &mut self.events);
                self.spare.put(joint);
                self.events.truncate(scratch);
                if !matches!((ab, ba), (Some(x), Some(y)) if x == y) {
                    return false;
                }
            }
        }
        true
    }

    /// The stamped event stream from system creation to the state
    /// `incoming` (at `tick`) leads into.
    fn path_events(&self, incoming: &Range<usize>, tick: u64) -> Vec<StampedEvent> {
        let stamp = |range: &Range<usize>, tick: u64| {
            self.events[range.clone()]
                .iter()
                .map(move |&ev| StampedEvent { tick, ev })
        };
        self.stack
            .iter()
            .flat_map(|f| stamp(&f.incoming, f.tick))
            .chain(stamp(incoming, tick))
            .collect()
    }

    fn record_violation(
        &mut self,
        kind: &str,
        tick: u64,
        state_hash: u64,
        detail: &str,
        path: Vec<StampedEvent>,
    ) {
        let idx = self.report.violations.len();
        let name = format!("explore-{}-{idx:02}.rtkt", self.model.family.label());
        if idx < MAX_COUNTEREXAMPLES {
            self.counterexamples.push(Counterexample {
                name: name.clone(),
                kind: kind.to_string(),
                seed: self.model.sentinel_seed + idx as u64,
                events: path,
            });
        }
        self.report.violations.push(Violation {
            kind: kind.to_string(),
            tick,
            state_hash,
            trace: name,
            detail: detail.to_string(),
        });
    }

    /// The initial state; its creation events go to the front of
    /// [`Walker::events`].
    fn build_root(&mut self) -> Result<ExpState, String> {
        let mut spec = match self.cfg.mutation {
            Some(m) => SpecState::with_mutation(m),
            None => SpecState::new(),
        };
        spec.step(&self.model.init(), &mut self.events)?;
        let tasks = self
            .model
            .tasks
            .iter()
            .map(|p| {
                let rem = match p.ops[0] {
                    Micro::Exec(n) => n,
                    _ => 0,
                };
                TaskRt { pc: 0, rem }
            })
            .collect();
        Ok(ExpState {
            spec,
            now: 0,
            tasks,
            owed: vec![0; self.model.releases().count()],
            irq_next: self.model.irq.map_or(0, |i| i.first),
            delays_left: self.model.delay_budget,
            drops_left: self.model.drop_budget,
        })
    }
}

/// Enumerates the candidates at a quiescent state into `out`, in a
/// fixed deterministic order. `enabled` is scratch.
fn expand(
    model: &ExploreModel,
    st: &ExpState,
    enabled: &mut Vec<ObsEvent>,
    out: &mut Vec<EChoice>,
) -> Expansion {
    enabled.clear();
    out.clear();
    st.spec.enabled(enabled);
    if let [ev @ (ObsEvent::Dispatch { .. } | ObsEvent::Preempt { .. })] = enabled.as_slice() {
        out.push(EChoice::Spec(*ev));
        return Expansion::Choices;
    }
    let op_complete = st.spec.running().and_then(|r| {
        let rt = st.tasks[r as usize - 1];
        matches!(model.tasks[r as usize - 1].ops[rt.pc], Micro::Exec(_)).then_some(
            EChoice::OpComplete {
                task: r,
                tick: st.now + rt.rem,
            },
        )
    });
    // The timed candidates: armed timeouts, the running task's burst
    // completion, then the cyclic releases.
    let timed = || {
        enabled
            .iter()
            .map(|&ev| EChoice::Spec(ev))
            .chain(op_complete)
            .chain(model.releases().enumerate().filter_map(|(idx, (tid, _))| {
                st.spec.cyc_next_fire(tid).map(|tick| EChoice::CycFire {
                    idx,
                    tid,
                    tick,
                    delayed: false,
                })
            }))
    };
    let tick_of = |c: &EChoice| match *c {
        EChoice::Spec(ObsEvent::TimerFire { tick, .. }) => tick,
        EChoice::OpComplete { tick, .. } => tick,
        EChoice::CycFire { tick, .. } => tick,
        EChoice::IrqFire { tick, .. } => tick,
        EChoice::Spec(_) => st.now,
    };
    let tmin = timed().map(|c| tick_of(&c)).min();
    let tmin_h = tmin.filter(|&t| t <= model.horizon);
    let irq_window = model.irq.and_then(|irq| {
        let lo = st.irq_next.max(st.now);
        if lo > model.horizon {
            return None;
        }
        Some((lo, (st.irq_next + irq.jitter).max(lo).min(model.horizon)))
    });
    let cut = match (tmin_h, irq_window) {
        (None, None) => {
            return if tmin.is_some() {
                Expansion::LeafHorizon
            } else if st.spec.waiting_tasks().is_empty() {
                Expansion::LeafQuiescent
            } else {
                Expansion::LeafDeadlock
            };
        }
        (Some(t), None) => t,
        (None, Some((_, hi))) => hi,
        (Some(t), Some((_, hi))) => t.min(hi),
    };
    for c in timed() {
        if tick_of(&c) != cut {
            continue;
        }
        out.push(c);
        if let EChoice::CycFire { idx, tid, tick, .. } = c {
            if st.delays_left > 0 {
                out.push(EChoice::CycFire {
                    idx,
                    tid,
                    tick,
                    delayed: true,
                });
            }
        }
    }
    if let Some((lo, hi)) = irq_window {
        if lo <= cut {
            for w in lo..=hi.min(cut) {
                out.push(EChoice::IrqFire {
                    tick: w,
                    dropped: false,
                });
            }
            if st.drops_left > 0 {
                out.push(EChoice::IrqFire {
                    tick: lo,
                    dropped: true,
                });
            }
        }
    }
    Expansion::Choices
}

/// Applies one candidate to `st` in place, making it the successor
/// state. The realized event tail is appended to `events`. On `Err`
/// the state is left partly applied.
fn apply_choice(
    model: &ExploreModel,
    st: &mut ExpState,
    ch: &EChoice,
    events: &mut Vec<ObsEvent>,
) -> Result<(), String> {
    match *ch {
        EChoice::Spec(ev) => {
            if let ObsEvent::TimerFire { tick, .. } = ev {
                advance(model, st, tick)?;
            }
            step_spec(model, st, &[ev], events)?;
            drive(model, st, events)?;
        }
        EChoice::OpComplete { task, tick } => {
            advance(model, st, tick)?;
            let i = task as usize - 1;
            if st.tasks[i].rem != 0 {
                return Err(format!(
                    "tsk{task}: exec completion with {} tick(s) left",
                    st.tasks[i].rem
                ));
            }
            let pc = st.tasks[i].pc;
            set_pc(model, st, task, pc + 1);
            drive(model, st, events)?;
        }
        EChoice::CycFire {
            idx,
            tid,
            tick,
            delayed,
        } => {
            advance(model, st, tick)?;
            let fire = ObsEvent::CycFire {
                id: CycId::from_raw(tid),
                tick,
            };
            if delayed {
                st.owed[idx] += 1;
                st.delays_left -= 1;
                step_spec(model, st, &[fire], events)?;
            } else {
                let signal = ObsEvent::SemSignal {
                    id: SemId::from_raw(GATE_BASE + tid),
                    cnt: 1 + std::mem::take(&mut st.owed[idx]),
                };
                step_spec(model, st, &[fire, signal], events)?;
            }
        }
        EChoice::IrqFire { tick, dropped } => {
            advance(model, st, tick)?;
            let irq = model.irq.expect("irq candidate without a source");
            st.irq_next += irq.gap;
            if dropped {
                st.drops_left -= 1;
            } else {
                let signal = ObsEvent::SemSignal {
                    id: SemId::from_raw(irq.sem),
                    cnt: 1,
                };
                step_spec(model, st, &[signal], events)?;
            }
        }
    }
    Ok(())
}

/// Digest of the state reached from `st` by playing all forced moves,
/// applying `then`, and playing forced moves again, all in place.
/// `None` if the sibling choice is no longer applicable (treated as
/// non-commuting). The events played are appended to `scratch`.
fn joint_digest(
    model: &ExploreModel,
    st: &mut ExpState,
    then: &EChoice,
    scratch: &mut Vec<ObsEvent>,
) -> Option<u64> {
    if !closed(model, st, scratch) {
        return None;
    }
    apply_choice(model, st, then, scratch).ok()?;
    closed(model, st, scratch).then(|| st.digest())
}

/// Plays out the deterministic forced moves (dispatch, preemption) of
/// a state in place. Bounded defensively; `false` means "give up,
/// treat as non-commuting".
fn closed(model: &ExploreModel, st: &mut ExpState, scratch: &mut Vec<ObsEvent>) -> bool {
    for _ in 0..64 {
        let Some(forced) = st.spec.forced() else {
            return true;
        };
        if apply_choice(model, st, &EChoice::Spec(forced), scratch).is_err() {
            return false;
        }
    }
    false
}

/// `true` when a candidate touches the CPU (a dispatch, preemption or
/// burst completion, or an effect beyond waking a semaphore or mutex
/// waiter), which makes it dependent on every sibling.
fn cpu_coupled(choice: &EChoice, events: &[ObsEvent]) -> bool {
    matches!(
        choice,
        EChoice::Spec(ObsEvent::Dispatch { .. } | ObsEvent::Preempt { .. })
            | EChoice::OpComplete { .. }
    ) || events.iter().any(|ev| match ev {
        ObsEvent::Wakeup { obj, .. } => !matches!(obj, WaitObj::Sem(..) | WaitObj::Mtx(..)),
        ObsEvent::TimerFire { .. } | ObsEvent::SemSignal { .. } | ObsEvent::CycFire { .. } => false,
        _ => true,
    })
}

/// Footprint tokens of a candidate for the POR independence check:
/// `(kind, id)` for the tasks (0), mutexes (1), semaphores (2), cyclic
/// sources (3), the IRQ source (4) and the fault budgets (5) its
/// choice and event tail touch. A token may repeat.
fn footprint<'e>(
    model: &ExploreModel,
    choice: &EChoice,
    events: &'e [ObsEvent],
) -> impl Iterator<Item = (u8, u64)> + 'e {
    let of_choice: [Option<(u8, u64)>; 3] = match *choice {
        EChoice::Spec(ObsEvent::TimerFire { tid, .. }) => {
            [Some((0, u64::from(tid.raw()))), None, None]
        }
        EChoice::CycFire { tid, delayed, .. } => [
            Some((3, u64::from(tid))),
            Some((2, u64::from(GATE_BASE + tid))),
            delayed.then_some((5, 0)),
        ],
        EChoice::IrqFire { dropped, .. } => [
            Some((4, 0)),
            model.irq.map(|irq| (2, u64::from(irq.sem))),
            dropped.then_some((5, 1)),
        ],
        _ => [None; 3],
    };
    let of_events = events.iter().flat_map(|ev| match *ev {
        ObsEvent::TimerFire { tid, .. } => [Some((0, u64::from(tid.raw()))), None],
        ObsEvent::Wakeup { tid, obj, .. } => [
            Some((0, u64::from(tid.raw()))),
            match obj {
                WaitObj::Sem(id, _) => Some((2, u64::from(id.raw()))),
                WaitObj::Mtx(id) => Some((1, u64::from(id.raw()))),
                _ => None,
            },
        ],
        ObsEvent::SemSignal { id, .. } => [Some((2, u64::from(id.raw()))), None],
        ObsEvent::CycFire { id, .. } => [Some((3, u64::from(id.raw()))), None],
        _ => [None; 2],
    });
    of_choice.into_iter().chain(of_events).flatten()
}

/// The most urgent current priority, in the successor `child`, among
/// the tasks a candidate's event tail wakes (what `--adversarial`
/// scores).
fn wake_pri(child: &ExpState, events: &[ObsEvent]) -> Option<u8> {
    events
        .iter()
        .filter_map(|ev| match *ev {
            ObsEvent::Wakeup { tid, .. } => child.spec.current_priority(tid.raw()),
            _ => None,
        })
        .min()
}

/// Advances the clock to `to`, charging the elapsed ticks to the
/// running task's current `Exec` burst.
fn advance(model: &ExploreModel, st: &mut ExpState, to: u64) -> Result<(), String> {
    let dt = to
        .checked_sub(st.now)
        .ok_or_else(|| format!("time moved backwards: {} -> {to}", st.now))?;
    if dt > 0 {
        if let Some(r) = st.spec.running() {
            let i = r as usize - 1;
            if matches!(model.tasks[i].ops[st.tasks[i].pc], Micro::Exec(_)) {
                st.tasks[i].rem = st.tasks[i]
                    .rem
                    .checked_sub(dt)
                    .ok_or_else(|| format!("tsk{r}: exec burst overrun by {dt} tick(s)"))?;
            }
        }
    }
    st.now = to;
    Ok(())
}

/// Steps the spec through `evs`, appending the realized events to
/// `out` and advancing the program counter of every woken task.
fn step_spec(
    model: &ExploreModel,
    st: &mut ExpState,
    evs: &[ObsEvent],
    out: &mut Vec<ObsEvent>,
) -> Result<(), String> {
    let start = out.len();
    st.spec.step(evs, out)?;
    for ev in &out[start..] {
        if let ObsEvent::Wakeup { tid, code, .. } = *ev {
            wake_advance(model, st, tid.raw(), code)?;
        }
    }
    Ok(())
}

/// A woken task's program advances past its wait op: `Ok` proceeds,
/// `Timeout` branches to the op's `skip_to`.
fn wake_advance(
    model: &ExploreModel,
    st: &mut ExpState,
    tid: u32,
    code: rtk_core::WakeCode,
) -> Result<(), String> {
    use rtk_core::WakeCode;
    let i = tid as usize - 1;
    let pc = st.tasks[i].pc;
    let (on_ok, on_tmo) = match model.tasks[i].ops[pc] {
        Micro::Wait { tmo, .. } => (pc + 1, tmo.map(|(_, skip_to)| skip_to)),
        ref op => {
            return Err(format!(
                "tsk{tid} woken while at non-wait op {op:?} (pc {pc})"
            ))
        }
    };
    let target = match code {
        WakeCode::Ok => on_ok,
        WakeCode::Timeout => {
            on_tmo.ok_or_else(|| format!("tsk{tid}: timeout wakeup from a TMO_FEVR wait"))?
        }
        other => return Err(format!("tsk{tid}: unexpected wake code {other:?}")),
    };
    set_pc(model, st, tid, target);
    Ok(())
}

/// Moves a task to `pc`, looping `EndJob` back to the program start
/// and arming the remaining-tick counter of an `Exec` op.
fn set_pc(model: &ExploreModel, st: &mut ExpState, tid: u32, pc: usize) {
    let i = tid as usize - 1;
    let ops = &model.tasks[i].ops;
    let mut pc = pc;
    while matches!(ops[pc], Micro::EndJob) {
        pc = 0;
    }
    st.tasks[i].pc = pc;
    if let Micro::Exec(n) = ops[pc] {
        st.tasks[i].rem = n;
    }
}

/// Plays the running task's program forward through its instantaneous
/// operations until it blocks, reaches an `Exec` burst, loses the CPU,
/// or a mandated preemption interposes.
fn drive(model: &ExploreModel, st: &mut ExpState, out: &mut Vec<ObsEvent>) -> Result<(), String> {
    loop {
        let Some(r) = st.spec.running() else {
            return Ok(());
        };
        if st.spec.forced().is_some() {
            // A more urgent task is ready: the preemption is forced
            // before the next program op.
            return Ok(());
        }
        let i = r as usize - 1;
        let pc = st.tasks[i].pc;
        match model.tasks[i].ops[pc] {
            Micro::Exec(_) => return Ok(()),
            Micro::Wait { obj, tmo } => {
                let tid = TaskId::from_raw(r);
                let take = match obj {
                    WaitObj::Mtx(id) => ObsEvent::MtxLock { id, tid },
                    WaitObj::Sem(id, cnt) => ObsEvent::SemTake { id, tid, cnt },
                    _ => return Err(format!("tsk{r}: no program op waits on {}", obj.describe())),
                };
                if st.spec.would_block(r, &obj) {
                    let block = ObsEvent::Block {
                        tid,
                        obj,
                        deadline_tick: tmo.map(|(ticks, _)| st.now + ticks),
                    };
                    step_spec(model, st, &[block], out)?;
                } else {
                    step_spec(model, st, &[take], out)?;
                    set_pc(model, st, r, pc + 1);
                }
            }
            Micro::Unlock { mtx } => {
                let ev = ObsEvent::MtxUnlock {
                    id: MtxId::from_raw(mtx),
                    tid: TaskId::from_raw(r),
                };
                step_spec(model, st, &[ev], out)?;
                set_pc(model, st, r, pc + 1);
            }
            Micro::EndJob => set_pc(model, st, r, pc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The state `steps` moves into `family`'s schedule tree, taking
    /// the first candidate at every frontier.
    fn walked(family: Family, steps: usize) -> ExpState {
        let cfg = ExploreConfig {
            family,
            ..ExploreConfig::default()
        };
        let model = family.model(cfg.faults);
        let mut walker = Walker::new(&cfg, &model);
        let mut st = walker.build_root().expect("the root builds");
        for _ in 0..steps {
            let (enabled, choices) = (&mut walker.enabled, &mut walker.choices);
            if !matches!(expand(&model, &st, enabled, choices), Expansion::Choices) {
                break;
            }
            apply_choice(&model, &mut st, &choices[0], &mut walker.events).expect("a spec step");
        }
        st
    }

    /// Cloning an explored state into one of another shape (other
    /// tasks, objects, debts and queue entries) gives what `clone`
    /// gives, in `Debug` rendering and in both digests.
    #[test]
    fn clone_from_a_differently_shaped_state_equals_clone() {
        let states = [
            walked(Family::Chain, 10),
            walked(Family::Irq, 20),
            walked(Family::Mtx, 0),
        ];
        for (i, src) in states.iter().enumerate() {
            for (j, spent) in states.iter().enumerate() {
                let render = |st: &ExpState| format!("{st:?}");
                assert_eq!(i == j, render(src) == render(spent), "states {i} and {j}");
                let mut copy = spent.clone();
                copy.clone_from(src);
                assert_eq!(render(&copy), render(&src.clone()), "{j} into {i}");
                assert_eq!(
                    copy.spec.canon_digest(),
                    src.spec.canon_digest(),
                    "{j} into {i}"
                );
                assert_eq!(copy.digest(), src.digest(), "{j} into {i}");
            }
        }
    }
}
