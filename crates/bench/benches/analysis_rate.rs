//! `analysis_rate`: throughput of the columnar trace index and the fused
//! analysis pipeline versus the reference pre-index scanner, written to
//! `BENCH_analysis.json` (`WAFFLE_BENCH_ANALYSIS_OUT` overrides the path).
//!
//! The input is a ≥ 100k-event synthetic trace recorded from a real
//! simulator run: four worker threads cycling over a pool of shared
//! objects, so every object's timeline interleaves cross-thread accesses
//! and the near-miss sweep has genuine window pairs to visit. The indexed
//! measurements *include* the index-build cost — the honest end-to-end
//! comparison, since the unindexed scanner starts from a raw trace too.
//!
//! A counting global allocator tracks peak live heap bytes during each
//! analysis flavor as a peak-RSS proxy (the workspace has no jemalloc-style
//! introspection and the bench must not add dependencies).

use criterion::{black_box, Criterion};
use waffle_analysis::{analyze_indexed, analyze_unindexed, AnalyzerConfig};
use waffle_bench::{alloc_probe, AnalysisBenchReport, AnalysisRate, BenchEntry};
use waffle_sim::{SimConfig, SimTime, Simulator, Workload, WorkloadBuilder};
use waffle_trace::{TraceIndex, TraceRecorder};

/// Worker threads in the synthetic workload.
const THREADS: usize = 4;
/// Shared objects the workers cycle over (the shardable dimension).
const OBJECTS: usize = 64;
/// Passes each worker makes over the whole object pool.
const ROUNDS: usize = 400;

#[global_allocator]
static ALLOC: alloc_probe::CountingAlloc = alloc_probe::CountingAlloc;

/// Builds the synthetic workload: `main` inits every object, forks the
/// workers, joins them, and disposes everything; each worker cycles over
/// the object pool `ROUNDS` times through per-(worker, object) sites.
fn synthetic_workload() -> Workload {
    let mut b = WorkloadBuilder::new("bench.analysis_rate.synthetic");
    let objects = b.objects("o", OBJECTS as u32);
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let objects = objects.clone();
        workers.push(b.script(format!("worker{t}"), move |s| {
            for _ in 0..ROUNDS {
                for (k, o) in objects.iter().enumerate() {
                    s.use_(*o, &format!("W{t}.o{k}.use"), SimTime::from_us(100));
                }
            }
        }));
    }
    let objects_main = objects.clone();
    let main = b.script("main", move |s| {
        for (k, o) in objects_main.iter().enumerate() {
            s.init(*o, &format!("M.o{k}.init"), SimTime::from_us(10));
        }
        for w in &workers {
            s.fork(*w);
        }
        s.join_children();
        for (k, o) in objects_main.iter().enumerate() {
            s.dispose(*o, &format!("M.o{k}.dispose"), SimTime::from_us(10));
        }
    });
    b.main(main);
    b.build()
}

fn main() {
    let mut c = Criterion::default();

    let workload = synthetic_workload();
    let mut rec = TraceRecorder::new(&workload);
    Simulator::run(&workload, SimConfig::with_seed(0), &mut rec);
    let trace = rec.into_trace();
    assert!(
        trace.events.len() >= 100_000,
        "synthetic trace must hold >= 100k events, got {}",
        trace.events.len()
    );

    // δ tightened from the paper's 100 ms so each event's window holds a
    // handful of neighbors, matching the near-miss density of the seeded
    // application traces rather than quadratic all-pairs blowup.
    let config = AnalyzerConfig {
        delta: SimTime::from_ms(2),
        ..AnalyzerConfig::default()
    };

    // Equivalence spot-check before timing anything: both flavors must
    // produce byte-identical plans on this trace or the speedup is fiction.
    let reference = analyze_unindexed(&trace, &config);
    let index = TraceIndex::build(&trace);
    let stats = index.stats();
    for jobs in [1usize, 2] {
        let plan = analyze_indexed(&index, &config, jobs);
        assert_eq!(
            plan.to_json().expect("plan serializes"),
            reference.to_json().expect("plan serializes"),
            "indexed plan (jobs={jobs}) diverged from the reference scanner"
        );
    }
    let window_pairs = reference.stats.window_pairs;
    drop(index);

    c.bench_function("index_build", |b| {
        b.iter(|| TraceIndex::build(black_box(&trace)))
    });
    c.bench_function("analyze_unindexed", |b| {
        b.iter(|| analyze_unindexed(black_box(&trace), black_box(&config)))
    });
    let job_counts = [1usize, 2];
    for &jobs in &job_counts {
        c.bench_function(&format!("analyze_indexed_jobs{jobs}"), |b| {
            b.iter(|| {
                let index = TraceIndex::build(black_box(&trace));
                analyze_indexed(&index, black_box(&config), jobs)
            })
        });
    }

    // Peak-heap watermarks for one pass of each flavor, outside the timed
    // sections so the allocator bookkeeping cannot skew the means.
    alloc_probe::reset_peak();
    let plan = analyze_unindexed(&trace, &config);
    drop(plan);
    let peak_unindexed = alloc_probe::peak();
    alloc_probe::reset_peak();
    let index = TraceIndex::build(&trace);
    let plan = analyze_indexed(&index, &config, 1);
    drop(plan);
    drop(index);
    let peak_indexed = alloc_probe::peak();

    let results = c.results();
    let mean = |name: &str| {
        results
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| *m)
            .expect("bench ran")
    };
    let events = stats.events as f64;
    let unindexed_mean = mean("analyze_unindexed");
    let report = AnalysisBenchReport {
        events: stats.events as u64,
        mem_objects: stats.mem_objects as u64,
        distinct_clocks: stats.distinct_clocks as u64,
        window_pairs,
        index_build_events_per_sec: events * 1e9 / mean("index_build"),
        unindexed_events_per_sec: events * 1e9 / unindexed_mean,
        indexed: job_counts
            .iter()
            .map(|&jobs| {
                let m = mean(&format!("analyze_indexed_jobs{jobs}"));
                AnalysisRate {
                    jobs,
                    events_per_sec: events * 1e9 / m,
                    pairs_per_sec: window_pairs as f64 * 1e9 / m,
                    speedup_vs_unindexed: unindexed_mean / m,
                }
            })
            .collect(),
        peak_alloc_unindexed_bytes: peak_unindexed,
        peak_alloc_indexed_bytes: peak_indexed,
        available_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        benches: results
            .iter()
            .map(|(name, mean_ns)| BenchEntry {
                name: name.clone(),
                mean_ns: *mean_ns,
            })
            .collect(),
    };
    let path = AnalysisBenchReport::default_path();
    report.write(&path).expect("write analysis bench report");
    println!("wrote {}", path.display());
    for r in &report.indexed {
        println!(
            "indexed jobs={}: {:.0} events/sec, {:.0} pairs/sec, {:.2}x vs unindexed",
            r.jobs, r.events_per_sec, r.pairs_per_sec, r.speedup_vs_unindexed
        );
    }
}
