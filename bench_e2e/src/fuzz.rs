//! `fuzz`: the generated differential sweep with `--repair`, through
//! `waffle_fuzz::run_fuzz` on one worker — an sc block and a tso block at
//! preemption bound 3, each swept in calls of [`CHUNK`] seeds. The
//! workload seed shifts both blocks' `seed_base`.
//!
//! The traced run replays `classify_case` for every seed of a block —
//! generate, oracle, plan, the four detectors, repair synthesis — inside
//! layer spans and must reproduce each case's oracle state count, tool
//! outcomes and repair kind.

use std::time::Instant;

use waffle_core::{Detector, DetectorConfig, Tool};
use waffle_fuzz::{
    derive_plan, explore, generate_case_for_model, run_fuzz, synthesize_with_oracle, CaseReport,
    FuzzConfig, GroundTruth, OracleConfig, OracleVerdict,
};
use waffle_sim::{MemoryConfig, MemoryModel};

use crate::span::{LayerTimes, Tracer, OP, PASS};
use crate::stats::{
    best, median, metric, peak_rss_mb, summarize as sample_summary, time_each, BestMetric, Fnv,
    Metric, PartResult, Repeats,
};

/// Oracle preemption bound of both blocks.
pub(crate) const BOUND: u32 = 3;
/// Generator seeds per sc block.
pub const SC_SEEDS: u64 = 400;
/// Generator seeds per tso block (tso cases are about 4× cheaper).
pub const TSO_SEEDS: u64 = 1000;
/// Distinct block positions the workload seed selects from; block `k`
/// starts at generator seed `k × 1000`.
pub(crate) const BLOCKS: u64 = 1000;
/// Seeds per `run_fuzz` call: short calls, so that the per-call best time
/// over sweeps is measured within one host speed regime.
const CHUNK: u64 = 10;

/// The detectors the harness runs on every case, with their span names.
const TOOLS: [(&str, &str); 4] = [
    ("waffle", "core.detect.waffle"),
    ("basic", "core.detect.basic"),
    ("tsvd", "core.detect.tsvd"),
    ("noprep", "core.detect.noprep"),
];

/// One block's harness configuration.
pub(crate) fn config(memory: MemoryModel, seed: u64, seeds: u64) -> FuzzConfig {
    FuzzConfig {
        seeds,
        seed_base: (seed % BLOCKS) * 1000,
        jobs: 1,
        preemption_bound: BOUND,
        memory,
        repair: true,
        ..FuzzConfig::default()
    }
}

/// Model label used as the metric suffix.
fn label(m: MemoryModel) -> &'static str {
    match m {
        MemoryModel::Sc => "sc",
        MemoryModel::Tso => "tso",
        MemoryModel::Pso => "pso",
    }
}

/// Correctness checks on one block's report (outside timed regions):
/// zero disagreements, and every oracle-exposable plant certified.
fn check_report(res: &mut PartResult, memory: MemoryModel, cases: &[CaseReport]) {
    for case in cases {
        if !case.disagreements.is_empty() {
            res.fail(
                1,
                format!(
                    "seed {} ({}): {} disagreements",
                    case.seed,
                    label(memory),
                    case.disagreements.len()
                ),
            );
        } else if case.truth != GroundTruth::Control
            && case.oracle.exposable
            && case.repair.as_ref().and_then(|r| r.repair_kind()).is_none()
        {
            res.fail(
                1,
                format!(
                    "seed {} ({}): exposable plant not certified",
                    case.seed,
                    label(memory)
                ),
            );
        }
    }
}

/// Counts gathered by the traced replica of one block.
#[derive(Debug, Clone, Default)]
struct Counts {
    states: u64,
    memo_hits: u64,
    sleep_prunes: u64,
    revisits: u64,
    detect_runs: [u64; 4],
    candidates_tried: u64,
    certified: u64,
}

/// Replays `classify_case` over one block inside layer spans, comparing
/// each case with the harness's report.
fn replica_block(
    cfg: &FuzzConfig,
    want: &[CaseReport],
    res: &mut PartResult,
) -> (LayerTimes, Counts) {
    let mut t = Tracer::new();
    let mut counts = Counts::default();
    let ocfg = OracleConfig {
        preemption_bound: cfg.preemption_bound,
        max_states: cfg.max_oracle_states,
        memory: cfg.memory,
        reduce: cfg.reduction,
    };
    let dcfg = DetectorConfig {
        max_detection_runs: cfg.max_detection_runs,
        memory: MemoryConfig::from_model(cfg.memory),
        ..DetectorConfig::default()
    };
    let root = t.open(PASS, 0, None);
    for (i, expected) in (0..cfg.seeds).zip(want) {
        let seed = cfg.seed_base + i;
        let span = t.open(OP, seed, Some(root));
        let case = t.leaf("fuzz.gen", seed, span, || {
            generate_case_for_model(seed, cfg.memory)
        });
        let w = &case.workload;
        let oracle = t.leaf("oracle.explore", seed, span, || explore(w, &ocfg));
        let plan = t.leaf("fuzz.plan", seed, span, || derive_plan(w, 1, cfg.memory));
        let mut diverged = oracle.states_explored != expected.oracle.states;
        for (k, (name, span_name)) in TOOLS.iter().enumerate() {
            let det = Detector::with_config(Tool::by_name(name).expect("known tool"), dcfg.clone());
            let o = t.leaf(span_name, seed, span, || det.detect(w, 1));
            counts.detect_runs[k] += u64::from(o.total_runs());
            let got = (
                o.exposed.as_ref().map(|b| (b.kind, b.exposed_in_run)),
                o.total_runs(),
                o.tsv_exposed.is_some(),
                o.spontaneous,
            );
            let e = &expected.tools[k];
            diverged |= got
                != (
                    e.exposed_kind.zip(e.exposed_in_run),
                    e.total_runs,
                    e.tsv,
                    e.spontaneous,
                );
        }
        let repair = match (case.truth, oracle.verdict) {
            (GroundTruth::Planted { .. }, OracleVerdict::Exposable { kind, obj, .. }) => {
                Some(t.leaf("repair.synth", seed, span, || {
                    synthesize_with_oracle(w, &plan, kind, obj, &ocfg)
                }))
            }
            _ => None,
        };
        if let Some(r) = &repair {
            counts.candidates_tried += u64::from(r.candidates_tried);
            counts.certified += u64::from(r.repair_kind().is_some());
        }
        diverged |= repair.as_ref().map(|r| r.repair_kind())
            != expected.repair.as_ref().map(|r| r.repair_kind());
        if diverged {
            res.fail(
                1,
                format!(
                    "replica of seed {seed} ({}) diverged from classify_case",
                    label(cfg.memory)
                ),
            );
        }
        counts.states += oracle.states_explored;
        counts.memo_hits += oracle.memo_hits;
        counts.sleep_prunes += oracle.sleep_prunes;
        counts.revisits += oracle.revisits;
        t.close(span);
    }
    t.close(root);
    crate::span::check_structure(t.spans()).expect("replica spans are well formed");
    (LayerTimes::from_spans(t.spans()), counts)
}

/// One sweep of a block: `run_fuzz` over consecutive chunks of
/// [`CHUNK`] seeds.
struct Sweep {
    cases: Vec<CaseReport>,
    /// Digest of the chunk reports' JSON, in order.
    digest: String,
    /// Wall seconds of each `run_fuzz` call.
    chunk_secs: Vec<f64>,
}

fn sweep(cfg: &FuzzConfig) -> Sweep {
    let mut h = Fnv::default();
    let mut cases = Vec::new();
    let mut chunk_secs = Vec::new();
    let mut lo = 0;
    while lo < cfg.seeds {
        let chunk = FuzzConfig {
            seed_base: cfg.seed_base + lo,
            seeds: CHUNK.min(cfg.seeds - lo),
            ..*cfg
        };
        let t0 = Instant::now();
        let rep = run_fuzz(&chunk);
        chunk_secs.push(t0.elapsed().as_secs_f64());
        h.write(rep.to_json().expect("fuzz report serializes").as_bytes());
        cases.extend(rep.cases);
        lo += chunk.seeds;
    }
    Sweep {
        cases,
        digest: h.hex(),
        chunk_secs,
    }
}

/// Runs the workload: `n.reps` sweeps of blocks of `sc_seeds` and
/// `tso_seeds` seeds.
pub fn run(seed: u64, n: Repeats, trace: bool, sc_seeds: u64, tso_seeds: u64) -> PartResult {
    let mut res = PartResult {
        part: "fuzz",
        ..PartResult::default()
    };
    let blocks = [
        config(MemoryModel::Sc, seed, sc_seeds),
        config(MemoryModel::Tso, seed, tso_seeds),
    ];
    // Set-up: generating the blocks' inputs.
    if !trace {
        res.setups = time_each(n.setups, || {
            for b in &blocks {
                for i in 0..b.seeds {
                    std::hint::black_box(generate_case_for_model(b.seed_base + i, b.memory));
                }
            }
        });
    }
    let mut secs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut rates = [
        BestMetric::rate("sc_cases_per_s", "1/s", blocks[0].seeds as f64),
        BestMetric::rate("tso_cases_per_s", "1/s", blocks[1].seeds as f64),
    ];
    let mut digests: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut layers: [Vec<(LayerTimes, Counts, f64)>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..n.reps {
        for (k, cfg) in blocks.iter().enumerate() {
            let sw = sweep(cfg);
            let s: f64 = sw.chunk_secs.iter().sum();
            secs[k].push(s);
            rates[k].add(&sw.chunk_secs);
            if digests[k].is_empty() {
                check_report(&mut res, cfg.memory, &sw.cases);
            }
            digests[k].push(sw.digest);
            res.attempted += cfg.seeds;
            if trace {
                let (lt, counts) = replica_block(cfg, &sw.cases, &mut res);
                layers[k].push((lt, counts, s));
            }
        }
    }
    for d in &digests {
        if d.windows(2).any(|p| p[0] != p[1]) {
            res.fail(0, "fuzz reports differ between sweeps of the same seeds");
        }
    }
    let mut h = Fnv::default();
    for d in &digests {
        h.write(d[0].as_bytes());
    }
    res.digest = h.hex();
    if !trace {
        res.metrics = vec![
            metric("setup_s", best(&res.setups), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
            rates[0].to_metric(),
            rates[1].to_metric(),
        ];
        res.best = rates.to_vec();
        res.timings = vec![
            ("fuzz setup_s".into(), sample_summary(&res.setups)),
            ("fuzz sc sweep s".into(), sample_summary(&secs[0])),
            ("fuzz tso sweep s".into(), sample_summary(&secs[1])),
        ];
    } else {
        let mut overheads = Vec::new();
        for (k, cfg) in blocks.iter().enumerate() {
            res.metrics.extend(layer_metrics(
                label(cfg.memory),
                &layers[k],
                &mut res.failures,
            ));
            overheads.extend(
                layers[k]
                    .iter()
                    .map(|(lt, _, s)| lt.wall_ns as f64 / 1e9 / s),
            );
        }
        res.metrics
            .push(metric("tracing_overhead", median(&overheads), "ratio"));
    }
    res
}

fn layer_metrics(
    m: &str,
    passes: &[(LayerTimes, Counts, f64)],
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&LayerTimes) -> f64| {
        median(&passes.iter().map(|(lt, _, _)| f(lt)).collect::<Vec<_>>())
    };
    let ns = |name: &'static str| move |lt: &LayerTimes| lt.ns(name) as f64;
    let c = &passes[0].1;
    let coverage = med(&|lt| lt.coverage());
    if coverage < 0.95 {
        failures.push(format!(
            "fuzz {m} layer spans cover {:.1}% of the traced run",
            coverage * 100.0
        ));
    }
    let mut out = vec![
        metric(format!("fuzz.gen_ns.{m}"), med(&ns("fuzz.gen")), "ns"),
        metric(format!("fuzz.plan_ns.{m}"), med(&ns("fuzz.plan")), "ns"),
        metric(
            format!("oracle.explore_ns.{m}"),
            med(&ns("oracle.explore")),
            "ns",
        ),
        metric(format!("oracle.states.{m}"), c.states as f64, "count"),
        metric(format!("oracle.memo_hits.{m}"), c.memo_hits as f64, "count"),
        metric(
            format!("oracle.sleep_prunes.{m}"),
            c.sleep_prunes as f64,
            "count",
        ),
        metric(format!("oracle.revisits.{m}"), c.revisits as f64, "count"),
    ];
    for (k, (tool, span_name)) in TOOLS.iter().enumerate() {
        out.push(metric(
            format!("core.detect_ns.{tool}.{m}"),
            med(&ns(span_name)),
            "ns",
        ));
        out.push(metric(
            format!("core.detect_runs.{tool}.{m}"),
            c.detect_runs[k] as f64,
            "count",
        ));
    }
    let per = if c.candidates_tried == 0 {
        0.0
    } else {
        c.certified as f64 / c.candidates_tried as f64
    };
    out.extend([
        metric(
            format!("repair.synth_ns.{m}"),
            med(&ns("repair.synth")),
            "ns",
        ),
        metric(
            format!("repair.candidates_tried.{m}"),
            c.candidates_tried as f64,
            "count",
        ),
        metric(format!("repair.certified.{m}"), c.certified as f64, "count"),
        metric(format!("repair.certified_per_candidate.{m}"), per, "ratio"),
        metric(
            format!("core.unattributed_ns.{m}"),
            med(&|lt| lt.unattributed_ns as f64),
            "ns",
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_small_blocks_untraced_and_traced() {
        let one = Repeats { reps: 1, setups: 2 };
        let r = run(5, one, false, 6, 30);
        assert_eq!(r.failed, 0, "{:?}", r.failures);
        assert_eq!(r.attempted, 36, "one sweep of both blocks");
        assert!(r.metrics.iter().all(|m| m.value > 0.0), "{:?}", r.metrics);
        let t = run(5, one, true, 6, 30);
        assert!(t.failures.is_empty(), "{:?}", t.failures);
        assert_eq!(t.digest, r.digest);
        assert!(t
            .metrics
            .iter()
            .any(|m| m.name == "oracle.states.tso" && m.value > 0.0));
        crate::stats::assert_listed(&r, "end_to_end");
        crate::stats::assert_listed(&t, "per_layer");
    }
}
