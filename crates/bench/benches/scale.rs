//! `scale`: out-of-core columnar scan throughput, flat-memory growth, and
//! coordinator-free campaign worker scaling, written to `BENCH_scale.json`
//! (`WAFFLE_BENCH_SCALE_OUT` overrides the path).
//!
//! The input is a synthetic ≥10M-event trace built directly (no simulator
//! run — at this size the dispatch loop would dominate the bench): 4096
//! objects round-robined over four threads, per-object site trios, and a
//! clock population shaped like real application traces — a bounded pool
//! of heavily-reused interned snapshots, almost all cross-thread pairs
//! parent-child *ordered* (the §4.1 pruning reality), with a handful of
//! genuinely concurrent objects carrying the candidates. That shape is
//! exactly where the seed-state scanner hurts: it re-groups the raw
//! event vector per pass and re-walks full vector clocks per examined
//! pair, while the columnar sweep reads packed arrays and memo-hits the
//! interned `(ClockId, ClockId)` pairs.
//!
//! Three claims, asserted before the report is written:
//! 1. the indexed scan is ≥10× the unindexed scanner at the 10M size
//!    (the committed-artifact floor; smoke runs at smaller sizes skip it);
//! 2. out-of-core peak heap stays flat (±20%) as the trace grows 10×
//!    under a fixed resident budget;
//! 3. N workers draining a shared campaign directory produce a report
//!    byte-identical to one worker, at every worker count.
//!
//! `WAFFLE_SCALE_EVENTS` scales the trace (default 10_000_000; CI smoke
//! uses 1_000_000).

use std::path::PathBuf;
use std::time::Instant;

use waffle_analysis::{analyze_indexed, analyze_segments, analyze_unindexed, AnalyzerConfig};
use waffle_apps::all_apps;
use waffle_bench::{alloc_probe, ScaleBenchReport, ScaleSweepPoint, WorkerRate};
use waffle_core::{Campaign, CampaignConfig, CellSpec, WorkOptions};
use waffle_mem::{AccessKind, ObjectId, SiteRegistry};
use waffle_sim::{SimTime, ThreadId, Workload};
use waffle_trace::{ClockPool, SegmentReader, Trace, TraceEvent, TraceIndex};
use waffle_vclock::ClockSnapshot;

/// Objects the events round-robin over (the shardable dimension).
const OBJECTS: u64 = 4096;
/// Interned chain snapshots; coprime with [`OBJECTS`] so window pairs
/// cycle through distinct (but bounded) clock-pair keys.
const CHAIN_CLOCKS: u64 = 509;
/// Entries per chain snapshot — wide clocks make the unmemoized
/// comparison honest for a many-thread (thread-pool) application.
const CHAIN_ENTRIES: u32 = 64;

#[global_allocator]
static ALLOC: alloc_probe::CountingAlloc = alloc_probe::CountingAlloc;

/// Builds the synthetic trace directly: event `i` hits object `i %
/// OBJECTS` at `i+1` µs, cycling thread and access kind per round
/// (`Init, Use, Use, Dispose`). Ordinary objects carry chain snapshots
/// (totally ordered, so every cross-thread pair is pruned); the four
/// `obj % 1024 == 0` objects carry single-entry concurrent snapshots and
/// contribute the candidate pairs.
fn synthetic_trace(n: u64) -> Trace {
    let mut sites = SiteRegistry::new();
    let mut trios = Vec::with_capacity(OBJECTS as usize);
    for o in 0..OBJECTS {
        trios.push((
            sites.register(&format!("o{o}.init"), AccessKind::Init),
            sites.register(&format!("o{o}.use"), AccessKind::Use),
            sites.register(&format!("o{o}.dispose"), AccessKind::Dispose),
        ));
    }
    let mut clocks = ClockPool::new();
    let chain: Vec<_> = (0..CHAIN_CLOCKS)
        .map(|j| {
            clocks.intern(ClockSnapshot::from_entries(
                (0..CHAIN_ENTRIES).map(|t| (ThreadId(100 + t), (j + 1) * 8 + t as u64)),
            ))
        })
        .collect();
    let conc: Vec<_> = (0..4)
        .map(|t| clocks.intern(ClockSnapshot::from_entries([(ThreadId(t), 1)])))
        .collect();
    let mut events = Vec::with_capacity(n as usize);
    for i in 0..n {
        let obj = i % OBJECTS;
        let round = i / OBJECTS;
        let lane = (round % 4) as usize;
        let trio = trios[obj as usize];
        let (site, kind) = match lane {
            0 => (trio.0, AccessKind::Init),
            1 | 2 => (trio.1, AccessKind::Use),
            _ => (trio.2, AccessKind::Dispose),
        };
        events.push(TraceEvent {
            time: SimTime::from_us(i + 1),
            thread: ThreadId(lane as u32),
            site,
            obj: ObjectId(obj as u32),
            kind,
            dyn_index: round,
            clock: if obj.is_multiple_of(1024) {
                conc[lane]
            } else {
                chain[(i % CHAIN_CLOCKS) as usize]
            },
        });
    }
    Trace {
        workload: format!("bench.scale.{n}"),
        sites,
        events,
        forks: vec![],
        clocks,
        end_time: SimTime::from_us(n + 2),
    }
}

/// δ covering the three nearest same-object successors (spaced `OBJECTS`
/// µs apart), so the sweep visits ~3 window pairs per event.
fn config() -> AnalyzerConfig {
    AnalyzerConfig {
        delta: SimTime::from_us(OBJECTS * 7 / 2),
        ..AnalyzerConfig::default()
    }
}

/// Minimum wall-clock seconds of `f` over `passes` runs.
fn time_min<T>(passes: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        drop(out);
    }
    best
}

/// Resolves campaign workload names against the seeded application suite.
fn resolve(name: &str) -> Option<Workload> {
    all_apps()
        .into_iter()
        .flat_map(|a| a.tests)
        .find(|t| t.workload.name == name)
        .map(|t| t.workload)
}

/// Runs the shared campaign grid with `workers` concurrent in-process
/// workers; returns (wall seconds, report bytes).
fn run_workers(dir: &PathBuf, cells: Vec<CellSpec>, workers: usize) -> (f64, Vec<u8>) {
    let campaign = Campaign::create(
        dir,
        CampaignConfig {
            max_detection_runs: 4,
            ..CampaignConfig::default()
        },
        cells,
    )
    .expect("campaign dir");
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|k| {
                let c = campaign.clone();
                s.spawn(move || {
                    c.work(
                        &WorkOptions {
                            worker: format!("w{k}"),
                            lease_secs: 3600,
                            poll_ms: 2,
                            ..WorkOptions::default()
                        },
                        resolve,
                    )
                    .expect("worker pass")
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread");
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let report = std::fs::read(dir.join("report.json")).expect("report written");
    (secs, report)
}

fn main() {
    let n: u64 = std::env::var("WAFFLE_SCALE_EVENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000_000);
    assert!(n >= 100_000, "WAFFLE_SCALE_EVENTS must be at least 100000");
    let scratch = std::env::temp_dir().join(format!("waffle-scale-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let config = config();

    // ---- Headline: unindexed scanner vs indexed scan, full size. ----
    println!("generating {n}-event trace…");
    let trace = synthetic_trace(n);
    let reference = analyze_unindexed(&trace, &config);
    let window_pairs = reference.stats.window_pairs;
    let reference_json = reference.to_json().expect("plan serializes");
    assert!(
        !reference.candidates.is_empty(),
        "the synthetic trace must produce candidates or the bench is vacuous"
    );
    drop(reference);
    let unindexed_secs = time_min(2, || analyze_unindexed(&trace, &config));
    println!(
        "unindexed: {:.2}s ({:.0} events/sec, {window_pairs} window pairs)",
        unindexed_secs,
        n as f64 / unindexed_secs
    );

    let index = TraceIndex::build(&trace);
    let istats = index.stats();
    let indexed_json = analyze_indexed(&index, &config, 1)
        .to_json()
        .expect("plan serializes");
    assert_eq!(
        indexed_json, reference_json,
        "indexed plan diverged from the reference scanner"
    );
    let indexed_secs = time_min(3, || analyze_indexed(&index, &config, 1));
    println!(
        "indexed scan: {:.2}s ({:.0} events/sec, {:.1}x)",
        indexed_secs,
        n as f64 / indexed_secs,
        unindexed_secs / indexed_secs
    );
    drop(index);
    drop(trace);

    // ---- Growth sweep: 1× / ~3× / 10×, fixed resident budget. ----
    let sizes = [n / 10, n * 32 / 100, n];
    let mut budget = 0u64;
    let mut sweep = Vec::new();
    let mut ooc_secs_full = 0.0;
    for (k, &size) in sizes.iter().enumerate() {
        let trace = synthetic_trace(size);
        let path = scratch.join(format!("scale-{size}.wseg"));
        TraceIndex::build(&trace).write_segments(&path).expect("segments write");
        drop(trace);
        let file_bytes = std::fs::metadata(&path).expect("segment file").len();
        if k == 0 {
            // Half the smallest size's column payload: every size point
            // streams in multiple batches of (nearly) the same max size,
            // so the resident cost is genuinely budget-shaped, not
            // trace-shaped.
            let reader = SegmentReader::open(&path).expect("segments open");
            let mem_bytes: u64 = reader
                .catalog()
                .class(waffle_trace::SegmentClass::MemOrder)
                .iter()
                .map(|m| m.bytes)
                .sum();
            budget = (mem_bytes / 2).max(1);
        }
        let mut reader = SegmentReader::open(&path).expect("segments open");
        let batches = waffle_analysis::ooc_stats(&reader, budget).batches;
        alloc_probe::reset_peak();
        let t0 = Instant::now();
        let plan = analyze_segments(&mut reader, &config, 1, budget).expect("ooc analysis");
        let secs = t0.elapsed().as_secs_f64();
        let peak = alloc_probe::peak();
        if size == n {
            ooc_secs_full = secs;
            assert_eq!(
                plan.to_json().expect("plan serializes"),
                reference_json,
                "out-of-core plan diverged from the reference scanner"
            );
        }
        drop(plan);
        drop(reader);
        println!(
            "ooc {size} events: {:.2}s ({:.0} events/sec), {batches} batches, peak {:.1} MiB",
            secs,
            size as f64 / secs,
            peak as f64 / (1 << 20) as f64
        );
        sweep.push(ScaleSweepPoint {
            events: size,
            file_bytes,
            batches,
            events_per_sec: size as f64 / secs,
            peak_alloc_bytes: peak,
        });
        std::fs::remove_file(&path).ok();
    }
    let peak_min = sweep.iter().map(|p| p.peak_alloc_bytes).min().unwrap().max(1);
    let peak_max = sweep.iter().map(|p| p.peak_alloc_bytes).max().unwrap();
    let sweep_peak_ratio = peak_max as f64 / peak_min as f64;

    // ---- Campaign worker scaling, byte-identical reports. ----
    let cells: Vec<CellSpec> = all_apps()
        .into_iter()
        .flat_map(|a| a.tests)
        .take(6)
        .map(|t| CellSpec::new(t.workload.name.clone(), "waffle", 2))
        .collect();
    let worker_counts = [1usize, 2, 4];
    let mut workers = Vec::new();
    let mut single_rate = 0.0;
    let mut single_report: Vec<u8> = Vec::new();
    for &w in &worker_counts {
        let dir = scratch.join(format!("campaign-w{w}"));
        let (secs, report) = run_workers(&dir, cells.clone(), w);
        let rate = cells.len() as f64 / secs;
        if w == 1 {
            single_rate = rate;
            single_report = report;
        } else {
            assert_eq!(
                report, single_report,
                "{w}-worker campaign report diverged from the single-worker report"
            );
        }
        println!("workers={w}: {:.2}s ({rate:.1} cells/sec)", secs);
        workers.push(WorkerRate {
            workers: w,
            cells: cells.len(),
            cells_per_sec: rate,
            speedup_vs_single: rate / single_rate,
        });
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&scratch).ok();

    let report = ScaleBenchReport {
        events: n,
        mem_objects: istats.mem_objects as u64,
        window_pairs,
        unindexed_events_per_sec: n as f64 / unindexed_secs,
        indexed_scan_events_per_sec: n as f64 / indexed_secs,
        ooc_scan_events_per_sec: n as f64 / ooc_secs_full,
        scan_speedup_vs_unindexed: unindexed_secs / indexed_secs,
        resident_budget_bytes: budget,
        sweep,
        sweep_peak_ratio,
        workers,
        available_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    };

    assert!(
        report.sweep_peak_ratio <= 1.2,
        "out-of-core peak heap is not flat: max/min = {:.2} across a 10x growth sweep",
        report.sweep_peak_ratio
    );
    if n >= 10_000_000 {
        assert!(
            report.scan_speedup_vs_unindexed >= 10.0,
            "indexed scan is only {:.1}x the unindexed scanner at {n} events (need >= 10x)",
            report.scan_speedup_vs_unindexed
        );
    }

    let path = ScaleBenchReport::default_path();
    report.write(&path).expect("write scale bench report");
    println!("wrote {}", path.display());
}
