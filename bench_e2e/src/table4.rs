//! `table4`: the paper's Table 4 grid — all 18 seeded bug inputs × 15
//! attempts × {Waffle, WaffleBasic with the 50-run cap} — on one worker.
//!
//! Each cell runs its attempts sequentially and is summarized with
//! `waffle_core::summarize`, which is what `ExperimentEngine::run_grid`
//! does for a cell on one worker; the only difference is the attempt
//! ladder, which the workload seed shifts (`run_grid` always starts it at
//! seed 1). At shift 0 the summaries equal `run_grid`'s (see the test).
//!
//! The traced run replays every `Detector::detect` attempt stage by stage
//! with the same seeds, inside layer spans, and must reproduce the
//! attempt's exposing run, site and delay count, and the cell summaries.

use std::collections::BTreeSet;
use std::time::Instant;

use waffle_analysis::analyze_indexed;
use waffle_apps::{all_apps, BugSpec};
use waffle_core::{
    attempt_seed, summarize, BugReport, DetectionOutcome, Detector, DetectorConfig,
    ExperimentSummary, RunSummary, Tool,
};
use waffle_inject::{DecayState, WaffleBasicPolicy, WaffleConfig, WafflePolicy};
use waffle_sim::{MemoryConfig, NullMonitor, RunResult, SimConfig, SimTime, Simulator, Workload};
use waffle_trace::{TraceIndex, TraceRecorder};

use crate::span::{LayerTimes, Tracer, OP, PASS};
use crate::stats::{
    best, median, metric, peak_rss_mb, summarize as sample_summary, time_each, BestMetric, Fnv,
    PartResult, Repeats,
};

/// Attempts per cell (§6.1).
pub(crate) const ATTEMPTS: u32 = 15;
/// WaffleBasic's detection-run cap (§6.2).
pub(crate) const BASIC_CAP: u32 = 50;
/// Distinct attempt ladders the workload seed selects from. Every ladder
/// is a window of [`ATTEMPTS`] consecutive attempt seeds.
pub(crate) const LADDERS: u64 = 64;

/// The grid's inputs: the bug specs in Table 4 order and their
/// bug-triggering workloads.
pub(crate) struct Input {
    /// Bug specs, by id.
    pub specs: Vec<BugSpec>,
    /// The bug-triggering workload of each spec.
    pub workloads: Vec<Workload>,
}

/// The program's set-up: the application suite and the bug workloads.
pub(crate) fn setup() -> Input {
    let apps = all_apps();
    let mut specs: Vec<BugSpec> = apps.iter().flat_map(|a| a.bugs.iter().cloned()).collect();
    specs.sort_by_key(|b| b.id);
    let workloads = specs
        .iter()
        .map(|s| {
            apps.iter()
                .find(|a| a.name == s.app)
                .and_then(|a| a.bug_workload(s.id))
                .expect("every bug has its workload")
                .clone()
        })
        .collect();
    Input { specs, workloads }
}

/// First attempt-seed offset for a workload seed.
pub(crate) fn ladder_shift(seed: u64) -> u64 {
    (seed % LADDERS) * u64::from(ATTEMPTS)
}

/// The two tools and their detector configurations, as `bug_rows`
/// configures them.
pub(crate) fn tool_configs() -> [(Tool, DetectorConfig); 2] {
    [
        (Tool::waffle(), DetectorConfig::default()),
        (
            Tool::waffle_basic(),
            DetectorConfig {
                max_detection_runs: BASIC_CAP,
                ..DetectorConfig::default()
            },
        ),
    ]
}

/// The two detectors built from [`tool_configs`].
pub(crate) fn detectors() -> [Detector; 2] {
    tool_configs().map(|(tool, cfg)| Detector::with_config(tool, cfg))
}

/// One tool's pass over the grid: every cell's outcomes and summary.
#[derive(Default)]
pub(crate) struct ToolPass {
    /// Per-bug attempt outcomes.
    pub outcomes: Vec<Vec<DetectionOutcome>>,
    /// Per-bug summaries.
    pub summaries: Vec<ExperimentSummary>,
    /// Wall seconds of every attempt, in attempt order.
    pub attempt_secs: Vec<f64>,
}

impl ToolPass {
    /// Digest of the summaries (the simulated statistics).
    pub(crate) fn digest(&self) -> String {
        Fnv::hex_of(
            serde_json::to_string(&self.summaries)
                .expect("summaries serialize")
                .as_bytes(),
        )
    }
}

/// Runs every cell of one tool through `Detector::detect` (the
/// end-to-end path).
pub(crate) fn tool_pass(det: &Detector, input: &Input, shift: u64, bugs: usize) -> ToolPass {
    let mut pass = ToolPass::default();
    for w in input.workloads.iter().take(bugs) {
        let outcomes: Vec<DetectionOutcome> = (0..ATTEMPTS)
            .map(|a| {
                let t0 = Instant::now();
                let o = det.detect(w, attempt_seed(a) + shift);
                pass.attempt_secs.push(t0.elapsed().as_secs_f64());
                o
            })
            .collect();
        pass.summaries.push(summarize(det, w, &outcomes));
        pass.outcomes.push(outcomes);
    }
    pass
}

/// Counts gathered by the traced replica.
#[derive(Debug, Clone, Default)]
struct Counts {
    base_ops: u64,
    trace_events: u64,
    examined: u64,
    candidates: u64,
    interference: u64,
    waffle_runs: u64,
    basic_runs: u64,
    injected: u64,
    skipped_interference: u64,
    exposing_runs: u64,
}

/// The detector's run configuration (mirrors `Detector::sim_config`).
fn sim_config(cfg: &DetectorConfig, seed: u64, base: SimTime) -> SimConfig {
    let deadline = if cfg.deadline_factor == 0 || base == SimTime::ZERO {
        None
    } else {
        Some(base * cfg.deadline_factor)
    };
    SimConfig {
        seed,
        timing_noise_pct: cfg.timing_noise_pct,
        deadline,
        memory: cfg.memory,
        ..SimConfig::default()
    }
}

/// Records one detection run into the outcome (mirrors the detector's
/// `absorb`); returns `true` when a bug was exposed.
fn absorb(
    w: &Workload,
    r: &RunResult,
    outcome: &mut DetectionOutcome,
    memory: MemoryConfig,
) -> bool {
    outcome.detection_runs.push(RunSummary::from_run(r));
    if !r.manifested() {
        return false;
    }
    if r.delays.is_empty() {
        outcome.spontaneous = true;
        return false;
    }
    let e = &r.exceptions[0];
    let delayed_sites: BTreeSet<String> = r
        .delays
        .iter()
        .map(|d| w.sites.name(d.site).to_owned())
        .collect();
    outcome.exposed = Some(BugReport {
        workload: w.name.clone(),
        kind: e.error.kind,
        site: w.sites.name(e.error.site).to_owned(),
        obj: e.error.obj,
        time: e.time,
        exposed_in_run: outcome.total_runs(),
        total_runs: outcome.total_runs(),
        delays_in_run: r.delays.len() as u64,
        delayed_sites: delayed_sites.into_iter().collect(),
        thread_contexts: r.thread_contexts.clone(),
        memory_model: memory.model,
    });
    true
}

/// Replays one `Detector::detect` attempt stage by stage inside layer
/// spans. Supports the two Table 4 tools.
fn replay_attempt(
    t: &mut Tracer,
    op: u64,
    parent: usize,
    (tool, cfg): &(Tool, DetectorConfig),
    w: &Workload,
    attempt: u64,
    counts: &mut Counts,
) -> DetectionOutcome {
    let seed_of = |run: u64| attempt.wrapping_mul(10_000).wrapping_add(run);
    let base_cfg = SimConfig {
        seed: seed_of(0),
        timing_noise_pct: cfg.timing_noise_pct,
        deadline: None,
        memory: cfg.memory,
        ..SimConfig::default()
    };
    let base = t.leaf("sim.base", op, parent, || {
        Simulator::run(w, base_cfg, &mut NullMonitor)
    });
    counts.base_ops += base.heap.accesses;
    let mut outcome = DetectionOutcome {
        workload: w.name.clone(),
        base_time: base.end_time,
        ..DetectionOutcome::default()
    };
    match tool {
        Tool::Waffle { analyzer, policy } => {
            let mut rec = TraceRecorder::new(w);
            let prep_cfg = sim_config(cfg, seed_of(1), outcome.base_time);
            let r = t.leaf("trace.record", op, parent, || {
                Simulator::run(w, prep_cfg, &mut rec)
            });
            outcome.prep = Some(RunSummary::from_run(&r));
            if r.manifested() {
                outcome.spontaneous = true;
            }
            let trace = t.leaf("trace.index", op, parent, || rec.into_trace());
            counts.trace_events += trace.events.len() as u64;
            let index = t.leaf("trace.index", op, parent, || TraceIndex::build(&trace));
            let analyzer = analyzer.with_memory(cfg.memory.model);
            let plan = t.leaf("analysis.analyze", op, parent, || {
                analyze_indexed(&index, &analyzer, cfg.analysis_jobs)
            });
            drop(index);
            drop(trace);
            counts.examined += plan.stats.examined;
            counts.candidates += plan.candidates.len() as u64;
            counts.interference += plan.interference.len() as u64;
            let mut decay = DecayState::default();
            for run in 0..cfg.max_detection_runs {
                let seed = seed_of(2 + u64::from(run));
                let run_cfg = sim_config(cfg, seed, base.end_time);
                let policy: WaffleConfig = *policy;
                let plan = &plan;
                let (r, journal, next) = t.leaf("inject.waffle_run", op, parent, || {
                    let mut p = WafflePolicy::with_config(plan.clone(), decay, seed, policy);
                    p.record_events(cfg.telemetry_events);
                    let r = Simulator::run(w, run_cfg, &mut p);
                    let journal = p.take_journal();
                    (r, journal, p.into_decay())
                });
                decay = next;
                counts.waffle_runs += 1;
                counts.injected += journal.counters.injected;
                counts.skipped_interference += journal.counters.skipped_interference;
                outcome.telemetry.push(journal);
                if absorb(w, &r, &mut outcome, cfg.memory) {
                    counts.exposing_runs += 1;
                    return outcome;
                }
            }
        }
        Tool::WaffleBasic { fixed_delay } => {
            let mut state = waffle_inject::BasicState::default();
            for run in 0..cfg.max_detection_runs {
                let seed = seed_of(1 + u64::from(run));
                let run_cfg = sim_config(cfg, seed, base.end_time);
                state.decay = DecayState::default();
                let (r, journal, next) = t.leaf("inject.basic_run", op, parent, || {
                    let mut p = WaffleBasicPolicy::with_params(
                        state,
                        seed,
                        *fixed_delay,
                        WaffleBasicPolicy::DELTA,
                    );
                    p.record_events(cfg.telemetry_events);
                    let r = Simulator::run(w, run_cfg, &mut p);
                    let journal = p.take_journal();
                    (r, journal, p.into_state())
                });
                state = next;
                counts.basic_runs += 1;
                counts.injected += journal.counters.injected;
                counts.skipped_interference += journal.counters.skipped_interference;
                outcome.telemetry.push(journal);
                if absorb(w, &r, &mut outcome, cfg.memory) {
                    counts.exposing_runs += 1;
                    return outcome;
                }
            }
        }
        other => panic!(
            "the Table 4 replica drives Waffle and WaffleBasic, not {}",
            other.name()
        ),
    }
    outcome
}

/// The traced replica of both tool passes: per-layer times, counts and
/// the replayed passes.
struct Replica {
    layers: LayerTimes,
    counts: Counts,
    passes: Vec<ToolPass>,
}

fn replica_pass(
    input: &Input,
    shift: u64,
    bugs: usize,
    cfgs: &[(Tool, DetectorConfig); 2],
) -> Replica {
    let mut t = Tracer::new();
    let mut counts = Counts::default();
    let root = t.open(PASS, 0, None);
    let mut passes = Vec::new();
    let mut op = 0u64;
    for tool_cfg in cfgs {
        let det = Detector::with_config(tool_cfg.0.clone(), tool_cfg.1.clone());
        let mut pass = ToolPass::default();
        for w in input.workloads.iter().take(bugs) {
            let mut outcomes = Vec::with_capacity(ATTEMPTS as usize);
            for a in 0..ATTEMPTS {
                op += 1;
                let span = t.open(OP, op, Some(root));
                outcomes.push(replay_attempt(
                    &mut t,
                    op,
                    span,
                    tool_cfg,
                    w,
                    attempt_seed(a) + shift,
                    &mut counts,
                ));
                t.close(span);
            }
            let summary = t.leaf("core.summarize", op, root, || summarize(&det, w, &outcomes));
            pass.summaries.push(summary);
            pass.outcomes.push(outcomes);
        }
        passes.push(pass);
    }
    t.close(root);
    crate::span::check_structure(t.spans()).expect("replica spans are well formed");
    Replica {
        layers: LayerTimes::from_spans(t.spans()),
        counts,
        passes,
    }
}

/// The attempt fields the replica must reproduce.
fn attempt_key(o: &DetectionOutcome) -> Option<(u32, String, u64)> {
    o.exposed
        .as_ref()
        .map(|b| (b.total_runs, b.site.clone(), b.delays_in_run))
}

/// Correctness checks on one pass of both tools (outside timed regions),
/// by the paper's detection rule (exposed in a majority of attempts):
/// Waffle detects every bug, and WaffleBasic detects exactly the bugs
/// the paper's B column lists. Returns the number of bugs whose Waffle
/// runs-to-expose (majority, else median) equals the paper's, and the
/// number of Waffle attempts that exhausted the run budget.
fn check_outputs(
    res: &mut PartResult,
    input: &Input,
    waffle: &ToolPass,
    basic: &ToolPass,
) -> (u64, u64) {
    let (mut paper_match, mut misses) = (0, 0);
    for (i, spec) in input.specs.iter().enumerate().take(waffle.summaries.len()) {
        let w = &waffle.summaries[i];
        misses += u64::from(w.attempts - w.exposed_attempts);
        if !w.detected() {
            res.fail(
                u64::from(ATTEMPTS),
                format!(
                    "Waffle did not detect Bug-{} ({}/{} attempts)",
                    spec.id, w.exposed_attempts, w.attempts
                ),
            );
        }
        if w.reported_runs() == Some(spec.paper.waffle_runs) {
            paper_match += 1;
        }
        let want = spec.paper.basic_runs.is_some();
        if basic.summaries[i].detected() != want {
            res.fail(
                u64::from(ATTEMPTS),
                format!(
                    "WaffleBasic detected Bug-{} = {}, paper says {want}",
                    spec.id, !want
                ),
            );
        }
    }
    (paper_match, misses)
}

/// Runs the workload: `n.reps` passes of both tools over the first
/// `bugs` bugs (18 for the benchmark, fewer in smoke tests).
pub fn run(seed: u64, n: Repeats, trace: bool, bugs: usize) -> PartResult {
    let mut res = PartResult {
        part: "table4",
        ..PartResult::default()
    };
    if !trace {
        res.setups = time_each(n.setups, setup);
    }
    let input = setup();
    let bugs = bugs.min(input.specs.len());
    let shift = ladder_shift(seed);
    let [waffle_det, basic_det] = detectors();
    let per_pass = f64::from(ATTEMPTS) * bugs as f64;
    let mut digests: Vec<(String, String)> = Vec::new();
    let mut first: Option<(ToolPass, ToolPass)> = None;
    let timed = |det: &Detector| {
        let t0 = Instant::now();
        let pass = tool_pass(det, &input, shift, bugs);
        (pass, t0.elapsed().as_secs_f64())
    };

    if !trace {
        let (mut waffle_s, mut basic_s) = (Vec::new(), Vec::new());
        let mut waffle_best = BestMetric::rate("waffle_attempts_per_s", "1/s", per_pass);
        let mut basic_best = BestMetric::rate("basic_attempts_per_s", "1/s", per_pass);
        for _ in 0..n.reps {
            let (w, ws) = timed(&waffle_det);
            let (b, bs) = timed(&basic_det);
            waffle_s.push(ws);
            basic_s.push(bs);
            waffle_best.add(&w.attempt_secs);
            basic_best.add(&b.attempt_secs);
            digests.push((w.digest(), b.digest()));
            first.get_or_insert((w, b));
        }
        let (first_w, first_b) = first.as_ref().expect("at least one pass");
        let (paper_match, misses) = check_outputs(&mut res, &input, first_w, first_b);
        let runs = |p: &ToolPass| -> u64 {
            p.outcomes
                .iter()
                .flatten()
                .map(|o| u64::from(o.total_runs()))
                .sum()
        };
        res.extra.extend([
            ("waffle_attempts_unexposed", misses.to_string()),
            ("waffle_detection_runs", runs(first_w).to_string()),
            ("basic_detection_runs", runs(first_b).to_string()),
        ]);
        res.attempted = digests.len() as u64 * 2 * per_pass as u64;
        res.metrics = vec![
            metric("setup_s", best(&res.setups), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
            waffle_best.to_metric(),
            basic_best.to_metric(),
            metric("paper_match_bugs", paper_match as f64, "count"),
        ];
        res.best = vec![waffle_best, basic_best];
        res.timings = vec![
            ("table4 setup_s".into(), sample_summary(&res.setups)),
            ("table4 waffle pass s".into(), sample_summary(&waffle_s)),
            ("table4 basic pass s".into(), sample_summary(&basic_s)),
        ];
    } else {
        let cfgs = tool_configs();
        let mut replicas = Vec::new();
        let mut untraced = Vec::new();
        for _ in 0..n.reps {
            let (w, ws) = timed(&waffle_det);
            let (b, bs) = timed(&basic_det);
            untraced.push(ws + bs);
            let rep = replica_pass(&input, shift, bugs, &cfgs);
            for (i, (e2e, rp)) in [&w, &b].into_iter().zip(&rep.passes).enumerate() {
                for (cell, (eo, ro)) in e2e.outcomes.iter().zip(&rp.outcomes).enumerate() {
                    for (a, (x, y)) in eo.iter().zip(ro).enumerate() {
                        if attempt_key(x) != attempt_key(y) {
                            res.fail(
                                1,
                                format!(
                                    "replica attempt {a} of tool {i} on Bug-{} diverged",
                                    input.specs[cell].id
                                ),
                            );
                        }
                    }
                }
                if e2e.digest() != rp.digest() {
                    res.fail(
                        0,
                        format!("replica summaries of tool {i} differ from the detector's"),
                    );
                }
            }
            digests.push((w.digest(), b.digest()));
            first.get_or_insert((w, b));
            replicas.push(rep);
        }
        let (first_w, first_b) = first.as_ref().expect("at least one pass");
        check_outputs(&mut res, &input, first_w, first_b);
        res.attempted = digests.len() as u64 * 2 * per_pass as u64;
        res.metrics = layer_metrics(&replicas, &untraced, &mut res.failures);
    }
    if digests.windows(2).any(|p| p[0] != p[1]) {
        res.fail(0, "table4 outputs differ between passes of the same inputs");
    }
    if let Some((w, b)) = digests.first() {
        let mut h = Fnv::default();
        h.write(w.as_bytes());
        h.write(b.as_bytes());
        res.digest = h.hex();
    }
    res
}

fn layer_metrics(
    replicas: &[Replica],
    untraced: &[f64],
    failures: &mut Vec<String>,
) -> Vec<crate::stats::Metric> {
    let med = |f: &dyn Fn(&Replica) -> f64| median(&replicas.iter().map(f).collect::<Vec<_>>());
    let ns = |name: &'static str| move |r: &Replica| r.layers.ns(name) as f64;
    let c = &replicas[0].counts;
    let coverage = med(&|r| r.layers.coverage());
    if coverage < 0.95 {
        failures.push(format!(
            "table4 layer spans cover {:.1}% of the traced run",
            coverage * 100.0
        ));
    }
    let div = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let detection_runs = (c.waffle_runs + c.basic_runs) as f64;
    vec![
        metric("sim.base_ns", med(&ns("sim.base")), "ns"),
        metric("sim.base_ops", c.base_ops as f64, "count"),
        metric(
            "sim.ns_per_op",
            med(&|r| div(r.layers.ns("sim.base") as f64, r.counts.base_ops as f64)),
            "ns",
        ),
        metric("trace.record_ns", med(&ns("trace.record")), "ns"),
        metric("trace.events", c.trace_events as f64, "count"),
        metric("trace.index_ns", med(&ns("trace.index")), "ns"),
        metric("analysis.analyze_ns", med(&ns("analysis.analyze")), "ns"),
        metric("analysis.examined_pairs", c.examined as f64, "count"),
        metric("analysis.candidates", c.candidates as f64, "count"),
        metric(
            "analysis.interference_pairs",
            c.interference as f64,
            "count",
        ),
        metric(
            "analysis.candidates_per_examined",
            div(c.candidates as f64, c.examined as f64),
            "ratio",
        ),
        metric("inject.waffle_run_ns", med(&ns("inject.waffle_run")), "ns"),
        metric("inject.waffle_runs", c.waffle_runs as f64, "count"),
        metric("inject.basic_run_ns", med(&ns("inject.basic_run")), "ns"),
        metric("inject.basic_runs", c.basic_runs as f64, "count"),
        metric("inject.delays_injected", c.injected as f64, "count"),
        metric(
            "inject.skipped_interference",
            c.skipped_interference as f64,
            "count",
        ),
        metric(
            "inject.exposing_run_ratio",
            div(c.exposing_runs as f64, detection_runs),
            "ratio",
        ),
        metric("core.summarize_ns", med(&ns("core.summarize")), "ns"),
        metric(
            "core.unattributed_ns",
            med(&|r| r.layers.unattributed_ns as f64),
            "ns",
        ),
        metric(
            "tracing_overhead",
            div(med(&|r| r.layers.wall_ns as f64 / 1e9), median(untraced)),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_core::{ExperimentEngine, GridCell};

    #[test]
    fn ladder_at_shift_zero_matches_run_grid() {
        let input = setup();
        let [waffle, basic] = detectors();
        let cells: Vec<GridCell> = [&waffle, &basic]
            .into_iter()
            .map(|d| GridCell {
                workload: input.workloads[0].clone(),
                detector: d.clone(),
                attempts: ATTEMPTS,
            })
            .collect();
        let grid = ExperimentEngine::new(1).run_grid(&cells);
        assert_eq!(tool_pass(&waffle, &input, 0, 1).summaries[0], grid[0]);
        assert_eq!(tool_pass(&basic, &input, 0, 1).summaries[0], grid[1]);
    }

    #[test]
    fn smoke_runs_two_bugs_untraced_and_traced() {
        let one = Repeats { reps: 1, setups: 3 };
        let r = run(3, one, false, 2);
        assert_eq!(r.failed, 0, "{:?}", r.failures);
        // One pass × two tools × two bugs.
        assert_eq!(r.attempted, 2 * 2 * u64::from(ATTEMPTS));
        assert!(r.metrics.iter().all(|m| m.value > 0.0), "{:?}", r.metrics);
        assert_eq!(r.setups.len(), 3);
        let t = run(3, one, true, 2);
        assert_eq!(t.failed, 0, "{:?}", t.failures);
        assert_eq!(
            t.digest, r.digest,
            "traced and untraced runs simulate the same attempts"
        );
        assert!(t
            .metrics
            .iter()
            .any(|m| m.name == "analysis.analyze_ns" && m.value > 0.0));
        crate::stats::assert_listed(&r, "end_to_end");
        crate::stats::assert_listed(&t, "per_layer");
    }
}
