//! `waffle` — command-line front end for the detection workflow.
//!
//! ```text
//! waffle list                         # applications and test inputs
//! waffle bugs                         # the 18 seeded Table 4 bugs
//! waffle analyze <test> [--stats]     # preparation run + trace analysis only
//! waffle analyze <test> --spill DIR   # same, out-of-core over an on-disk
//!                                     # segment file under a resident budget
//! waffle detect <test> [options]      # run a tool on one test input
//! waffle step <test> --session DIR    # one process-step of the workflow
//! waffle scan <app> [options]         # run a tool on an app's whole suite
//! waffle report <bug-id> [options]    # expose a seeded bug, full report
//! waffle stats <dir> [--json]         # aggregate saved telemetry journals
//! waffle dot <test>                   # render a workload as Graphviz
//! waffle serve --socket S --dir D     # streaming trace ingestion server
//! waffle ingest --socket S --test T   # stream one test's trace to a server
//! waffle campaign init DIR [options]  # lay out a crash-safe campaign grid
//! waffle campaign run DIR [options]   # run/resume it (checkpoint per cell)
//! waffle campaign work DIR [options]  # join as one coordinator-free worker
//! waffle campaign status DIR [--json] # per-cell state, claims, quarantine
//! waffle bench --all [--out DIR]      # refresh the BENCH_*.json reports
//! waffle fuzz [options]               # differential fuzzing vs the oracle
//! waffle fuzz --repair [options]      # + synthesize a certified repair
//!                                     # for every oracle-confirmed bug
//! waffle fix <test> [options]         # oracle-certified fix synthesis
//!                                     # for one test input
//!
//! options:
//!   --tool waffle|basic|noprep|no-parent-child|fixed-delay|no-interference
//!   --max-runs N     detection-run budget (default 10)
//!   --seed N         attempt seed (default 1)
//!   --attempts N     repetition attempts, summarized per §6.1 (default 1)
//!   --jobs N         worker threads for --attempts and scan (default 1)
//!   --session DIR    persist plan/decay/reports to a session directory
//!   --telemetry DIR  write per-attempt telemetry journals (JSON) to DIR
//!   --json           machine-readable output
//! ```
//!
//! Repetition attempts use the fixed seed ladder 1..=N (see
//! `waffle_core::attempt_seed`), so `--jobs` changes wall-clock time only:
//! the summary is identical at any worker count.

// Everything this binary prints to standard output goes through these
// shadows of `print!`/`println!`: a reader that closes the pipe early
// (`waffle list | head -1`) ends the program quietly with status 0 instead
// of a panic. Any other write error panics with the message `print!`
// itself gives.
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use waffle_repro::apps::{all_apps, all_bugs};
use waffle_repro::core::{
    attempt_seed, summarize, Campaign, CampaignConfig, CellSpec, CellStatus, CheckpointState,
    Detector, DetectorConfig, DetectionOutcome, ExperimentEngine, GridCell, RunOptions, Session,
    Tool, WorkOptions,
};
use waffle_repro::sim::{MemoryConfig, MemoryModel, Workload};
use waffle_repro::telemetry::{AttemptJournal, MetricsRegistry};

struct Options {
    tool: Tool,
    tool_name: String,
    max_runs: u32,
    seed: u64,
    attempts: u32,
    jobs: usize,
    session: Option<String>,
    telemetry: Option<PathBuf>,
    json: bool,
    memory: MemoryModel,
}

fn parse_memory_model(v: &str) -> Result<MemoryModel, String> {
    MemoryModel::parse(v).ok_or_else(|| format!("--memory-model: unknown model {v} (sc|tso|pso)"))
}

fn parse_tool(name: &str) -> Option<Tool> {
    Tool::by_name(name)
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        tool: Tool::waffle(),
        tool_name: "waffle".into(),
        max_runs: 10,
        seed: 1,
        attempts: 1,
        jobs: 1,
        session: None,
        telemetry: None,
        json: false,
        memory: MemoryModel::Sc,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tool" => {
                let v = it.next().ok_or("--tool needs a value")?;
                opts.tool = parse_tool(v).ok_or_else(|| format!("unknown tool {v}"))?;
                opts.tool_name = v.clone();
            }
            "--max-runs" => {
                opts.max_runs = it
                    .next()
                    .ok_or("--max-runs needs a value")?
                    .parse()
                    .map_err(|e| format!("--max-runs: {e}"))?;
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--attempts" => {
                opts.attempts = it
                    .next()
                    .ok_or("--attempts needs a value")?
                    .parse()
                    .map_err(|e| format!("--attempts: {e}"))?;
                if opts.attempts == 0 {
                    return Err("--attempts must be at least 1".into());
                }
            }
            "--jobs" => {
                opts.jobs = it
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if opts.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--session" => {
                opts.session = Some(it.next().ok_or("--session needs a value")?.clone());
            }
            "--telemetry" => {
                opts.telemetry =
                    Some(PathBuf::from(it.next().ok_or("--telemetry needs a value")?));
            }
            "--memory-model" => {
                opts.memory = parse_memory_model(it.next().ok_or("--memory-model needs a value")?)?;
            }
            "--json" => opts.json = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(opts)
}

fn find_test(name: &str) -> Option<Workload> {
    all_apps()
        .into_iter()
        .flat_map(|a| a.tests)
        .find(|t| t.workload.name == name)
        .map(|t| t.workload)
        .or_else(|| waffle_repro::apps::weak_scenario(name).map(|s| s.workload))
}

fn detector(opts: &Options) -> Detector {
    Detector::with_config(
        opts.tool.clone(),
        DetectorConfig {
            max_detection_runs: opts.max_runs,
            // Per-decision event logs are worth recording only when the
            // journals are actually being written out.
            telemetry_events: opts.telemetry.is_some(),
            memory: MemoryConfig::from_model(opts.memory),
            ..DetectorConfig::default()
        },
    )
}

/// Writes one attempt's telemetry journal into `dir` as
/// `<workload>-<tool>-attempt-<seed>.json`; returns the file path.
fn write_attempt_journal(
    dir: &Path,
    w: &Workload,
    opts: &Options,
    seed: u64,
    outcome: &DetectionOutcome,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let journal = AttemptJournal {
        workload: w.name.clone(),
        tool: opts.tool_name.clone(),
        attempt_seed: seed,
        runs: outcome.telemetry.clone(),
    };
    let path = dir.join(format!("{}-{}-attempt-{seed}.json", w.name, opts.tool_name));
    std::fs::write(&path, journal.to_json().map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    Ok(path)
}

/// `detect` with `--attempts N > 1`: the §6.1 repetition methodology,
/// fanned over `--jobs` workers.
fn detect_experiment(w: &Workload, opts: &Options) -> Result<bool, String> {
    let det = detector(opts);
    let outcomes = ExperimentEngine::new(opts.jobs).run_attempts(&det, w, opts.attempts);
    let summary = summarize(&det, w, &outcomes);
    if let Some(dir) = &opts.telemetry {
        // One journal file per attempt, keyed by its fixed seed, so the
        // set of files is identical at any --jobs.
        for (i, outcome) in outcomes.iter().enumerate() {
            write_attempt_journal(dir, w, opts, attempt_seed(i as u32), outcome)?;
        }
        if !opts.json {
            println!(
                "{} telemetry journal(s) written to {}",
                outcomes.len(),
                dir.display()
            );
        }
    }
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "{} [{}]: {}/{} attempts exposed the bug",
            w.name, opts.tool_name, summary.exposed_attempts, summary.attempts
        );
        match summary.reported_runs() {
            Some(runs) => println!(
                "typical exposure in {runs} runs, median slowdown {:.1}x",
                summary.median_slowdown.unwrap_or(1.0)
            ),
            None => println!("no attempt exposed a bug"),
        }
        if summary.tsv_attempts > 0 {
            println!(
                "{} attempts exposed a thread-safety violation",
                summary.tsv_attempts
            );
        }
    }
    Ok(summary.exposed_attempts > 0 || summary.tsv_attempts > 0)
}

fn detect_one(w: &Workload, opts: &Options) -> Result<bool, String> {
    if opts.attempts > 1 {
        return detect_experiment(w, opts);
    }
    let det = detector(opts);
    let outcome = det.detect(w, opts.seed);
    let session = opts
        .session
        .as_ref()
        .map(|d| Session::open(d).map_err(|e| e.to_string()))
        .transpose()?;
    if let Some(dir) = &opts.telemetry {
        let path = write_attempt_journal(dir, w, opts, opts.seed, &outcome)?;
        if !opts.json {
            println!("telemetry journal written to {}", path.display());
        }
    }
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&outcome).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "{} [{}]: base {}, {} runs",
            w.name,
            opts.tool_name,
            outcome.base_time,
            outcome.total_runs()
        );
        match (&outcome.exposed, &outcome.tsv_exposed) {
            (Some(r), _) => {
                print!("{}", r.render(&w.sites));
                println!("slowdown {:.1}x vs uninstrumented", outcome.slowdown());
            }
            (None, Some(v)) => println!(
                "thread-safety violation: {} overlaps {} on {} (run {})",
                v.first_site, v.second_site, v.obj, v.exposed_in_run
            ),
            (None, None) => println!(
                "no bug exposed ({} delays injected across the detection runs)",
                outcome.total_delays()
            ),
        }
    }
    if let (Some(session), Some(report)) = (&session, &outcome.exposed) {
        let path = session
            .save_report(report, &report.render(&w.sites))
            .map_err(|e| e.to_string())?;
        if !opts.json {
            println!("report written to {}", path.display());
        }
    }
    Ok(outcome.exposed.is_some() || outcome.tsv_exposed.is_some())
}

/// `waffle analyze` — run the delay-free preparation run, build the
/// columnar trace index once, and run the fused analysis pipeline over it;
/// `--stats` adds index/scan timings, size statistics and the telemetry
/// counters they feed. With `--spill DIR` the index is written to an
/// on-disk segment file and analyzed out-of-core under a resident-bytes
/// budget (`--budget-mb`, default 64) — the plans are byte-identical to
/// the in-memory path at every budget.
struct AnalyzeOptions {
    jobs: usize,
    seed: u64,
    stats: bool,
    json: bool,
    plan_only: bool,
    spill: Option<PathBuf>,
    budget_mb: Option<u64>,
    memory: MemoryModel,
}

fn analyze_cmd(w: &Workload, opts: &AnalyzeOptions) -> Result<(), String> {
    let AnalyzeOptions {
        jobs,
        seed,
        stats,
        json,
        plan_only,
        ref spill,
        budget_mb,
        memory,
    } = *opts;
    let spill = spill.as_deref();
    use std::time::Instant;
    use waffle_repro::analysis::{
        analyze_indexed, analyze_segments, analyze_tsv_indexed, analyze_tsv_segments, ooc_stats,
        AnalyzerConfig, DEFAULT_RESIDENT_BYTES,
    };
    use waffle_repro::sim::{time::ms, SimConfig, Simulator};
    use waffle_repro::trace::{SegmentReader, TraceIndex, TraceRecorder};

    let mut rec = TraceRecorder::new(w);
    let sim_cfg = SimConfig::with_seed(seed).with_memory(MemoryConfig::from_model(memory));
    let _ = Simulator::run(w, sim_cfg, &mut rec);
    let trace = rec.into_trace();

    let t0 = Instant::now();
    let index = TraceIndex::build(&trace);
    let build_us = (t0.elapsed().as_micros() as u64).max(1);
    let istats = index.stats();

    let config = AnalyzerConfig::default().with_memory(memory);
    let t1 = Instant::now();
    let mut spill_note = None;
    let (plan, tsv) = match spill {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = dir.join(format!("{}.seg", w.name));
            let wstats = index.write_segments(&path).map_err(|e| e.to_string())?;
            let budget = match budget_mb {
                None => DEFAULT_RESIDENT_BYTES,
                // `m << 20` would silently wrap for m > 2^44 and turn a
                // typo into a near-zero budget; reject instead.
                Some(m) => m.checked_mul(1 << 20).ok_or_else(|| {
                    format!("--budget-mb {m} overflows (max {})", u64::MAX >> 20)
                })?,
            };
            let mut reader = SegmentReader::open(&path).map_err(|e| e.to_string())?;
            let ostats = ooc_stats(&reader, budget);
            let plan =
                analyze_segments(&mut reader, &config, jobs, budget).map_err(|e| e.to_string())?;
            let tsv = analyze_tsv_segments(&mut reader, config.delta, ms(1), jobs, budget)
                .map_err(|e| e.to_string())?;
            spill_note = Some((path, wstats, ostats, budget));
            (plan, tsv)
        }
        None => (
            analyze_indexed(&index, &config, jobs),
            analyze_tsv_indexed(&index, config.delta, ms(1), jobs),
        ),
    };
    let scan_us = (t1.elapsed().as_micros() as u64).max(1);

    let mut registry = MetricsRegistry::new();
    registry.observe_us("analysis/index_build", build_us);
    registry.observe_us("analysis/scan", scan_us);

    if plan_only {
        // Exactly the serve-session report shape, for byte-diffing a
        // streamed session's report against the batch path in CI.
        println!(
            "{}",
            waffle_repro::core::session_report_json(&plan, &tsv).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    if json {
        // Composite object: the deterministic plans plus the index shape.
        // Timings are intentionally excluded — they vary run to run.
        println!(
            "{{\n\"index\": {},\n\"plan\": {},\n\"tsv\": {}\n}}",
            serde_json::to_string(&istats).map_err(|e| e.to_string())?,
            plan.to_json().map_err(|e| e.to_string())?,
            tsv.to_json().map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!(
        "{}: {} events indexed ({} MemOrder over {} objects, {} TSV over {})",
        w.name, istats.events, istats.mem_events, istats.mem_objects, istats.tsv_events,
        istats.tsv_objects
    );
    println!(
        "plan: {} candidate pair(s), {} delay site(s), {} interference pair(s), {} TSV candidate(s)",
        plan.candidates.len(),
        plan.delay_len.len(),
        plan.interference.len(),
        tsv.candidates.len()
    );
    for c in &plan.candidates {
        println!(
            "  {} {} -> {} on {} (gap {}, {} obs) delay {}",
            c.kind.label(),
            w.sites.name(c.delay_site),
            w.sites.name(c.other_site),
            c.obj,
            c.max_gap,
            c.observations,
            plan.delay_for(c.delay_site)
        );
    }
    if let Some((path, wstats, ostats, budget)) = &spill_note {
        println!(
            "spill: {} ({} segment(s), {} bytes)",
            path.display(),
            wstats.segments,
            wstats.file_bytes
        );
        println!(
            "out-of-core scan: budget {} MiB -> {} batch(es), max {} resident bytes",
            budget >> 20,
            ostats.batches,
            ostats.max_batch_bytes
        );
    }
    if stats {
        let dedup = istats.events.max(1) as f64 / istats.distinct_clocks.max(1) as f64;
        println!("\nindex: {} distinct clock snapshot(s), {dedup:.1} events/snapshot", istats.distinct_clocks);
        println!(
            "index build: {build_us} µs ({:.0} events/sec)",
            istats.events as f64 / (build_us as f64 / 1e6)
        );
        println!(
            "scan (--jobs {jobs}): {scan_us} µs, {} window pair(s) swept ({:.0} pairs/sec), {} examined, {} pruned",
            plan.stats.window_pairs,
            plan.stats.window_pairs as f64 / (scan_us as f64 / 1e6),
            plan.stats.examined,
            plan.stats.pruned_ordered
        );
        println!("\ntelemetry counters:");
        for (name, value) in registry.counters() {
            println!("  {name:<40} {value}");
        }
    }
    Ok(())
}

/// `waffle campaign <init|run|status>` — the crash-safe, resumable
/// campaign workflow. A campaign directory holds a fingerprinted manifest
/// plus one atomically-written checkpoint per finished cell; `run
/// --resume` skips checkpointed cells and the final report is
/// byte-identical to an uninterrupted run at any `--jobs`.
fn campaign_cmd(args: &[String]) -> Result<(), String> {
    let sub = args
        .first()
        .ok_or("campaign: missing subcommand (init|run|work|status)")?;
    let dir = args.get(1).ok_or("campaign: missing campaign directory")?;
    let rest = &args[2..];
    match sub.as_str() {
        "init" => {
            let mut tests: Vec<String> = Vec::new();
            let mut app: Option<String> = None;
            let mut tools: Vec<String> = vec!["waffle".into()];
            let mut attempts: u32 = 5;
            let mut config = CampaignConfig::default();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--tests" => {
                        tests = it
                            .next()
                            .ok_or("--tests needs a comma-separated list")?
                            .split(',')
                            .map(str::to_owned)
                            .collect();
                    }
                    "--app" => app = Some(it.next().ok_or("--app needs a value")?.clone()),
                    "--tools" => {
                        tools = it
                            .next()
                            .ok_or("--tools needs a comma-separated list")?
                            .split(',')
                            .map(str::to_owned)
                            .collect();
                    }
                    "--attempts" => {
                        attempts = it
                            .next()
                            .ok_or("--attempts needs a value")?
                            .parse()
                            .map_err(|e| format!("--attempts: {e}"))?;
                    }
                    "--max-runs" => {
                        config.max_detection_runs = it
                            .next()
                            .ok_or("--max-runs needs a value")?
                            .parse()
                            .map_err(|e| format!("--max-runs: {e}"))?;
                    }
                    "--retries" => {
                        config.max_retries = it
                            .next()
                            .ok_or("--retries needs a value")?
                            .parse()
                            .map_err(|e| format!("--retries: {e}"))?;
                    }
                    other => return Err(format!("campaign init: unknown option {other}")),
                }
            }
            if let Some(app) = app {
                let app = all_apps()
                    .into_iter()
                    .find(|a| a.name == app)
                    .ok_or_else(|| format!("unknown app {app}"))?;
                tests.extend(app.tests.iter().map(|t| t.workload.name.clone()));
            }
            if tests.is_empty() {
                return Err("campaign init: pass --tests a,b,c and/or --app NAME".into());
            }
            for t in &tests {
                if find_test(t).is_none() {
                    return Err(format!("unknown test {t}"));
                }
            }
            let cells: Vec<CellSpec> = tests
                .iter()
                .flat_map(|w| tools.iter().map(|t| CellSpec::new(w.clone(), t.clone(), attempts)))
                .collect();
            let campaign = Campaign::create(dir, config, cells).map_err(|e| e.to_string())?;
            println!(
                "campaign initialized: {} cells ({} inputs × {} tools, {} attempts each)",
                campaign.manifest().cells.len(),
                tests.len(),
                tools.len(),
                attempts
            );
            println!("manifest fingerprint {:016x}", campaign.manifest().fingerprint);
            println!("run it with: waffle campaign run {dir}");
            Ok(())
        }
        "run" => {
            let mut opts = RunOptions {
                jobs: 1,
                resume: false,
                max_cells: None,
            };
            let mut fresh = false;
            let mut json = false;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--jobs" => {
                        opts.jobs = it
                            .next()
                            .ok_or("--jobs needs a value")?
                            .parse()
                            .map_err(|e| format!("--jobs: {e}"))?;
                        if opts.jobs == 0 {
                            return Err("--jobs must be at least 1".into());
                        }
                    }
                    "--resume" => opts.resume = true,
                    "--fresh" => fresh = true,
                    "--max-cells" => {
                        opts.max_cells = Some(
                            it.next()
                                .ok_or("--max-cells needs a value")?
                                .parse()
                                .map_err(|e| format!("--max-cells: {e}"))?,
                        );
                    }
                    "--json" => json = true,
                    other => return Err(format!("campaign run: unknown option {other}")),
                }
            }
            if opts.resume && fresh {
                return Err("campaign run: --resume and --fresh are mutually exclusive".into());
            }
            let campaign = Campaign::open(dir).map_err(|e| e.to_string())?;
            let done = campaign.manifest().cells.len() - campaign.outstanding().len();
            if done > 0 && !opts.resume && !fresh {
                return Err(format!(
                    "campaign run: {done} checkpointed cell(s) exist; pass --resume to \
                     continue where the last run stopped or --fresh to discard them"
                ));
            }
            let progress = campaign
                .run(&opts, find_test)
                .map_err(|e| e.to_string())?;
            if !json {
                if progress.skipped > 0 {
                    println!(
                        "resume: skipped {} checkpointed cell(s)",
                        progress.skipped
                    );
                }
                for (i, status) in &progress.ran {
                    let spec = &campaign.manifest().cells[*i];
                    println!(
                        "cell [{i:04}] {} / {} -> {}",
                        spec.workload,
                        spec.tool,
                        match status {
                            CellStatus::Completed => "completed",
                            CellStatus::TimedOut => "completed (TimeOut)",
                            CellStatus::Failed => "FAILED (quarantined)",
                        }
                    );
                }
            }
            match progress.report {
                Some(report) => {
                    if json {
                        println!(
                            "{}",
                            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
                        );
                    } else {
                        print!("{}", report.render());
                        println!("report written to {}/report.json", dir);
                    }
                }
                None => {
                    if json {
                        println!(
                            "{{\"outstanding\": {}, \"ran\": {}}}",
                            progress.outstanding,
                            progress.ran.len()
                        );
                    } else {
                        println!(
                            "{} cell(s) still outstanding; continue with: waffle campaign run {dir} --resume",
                            progress.outstanding
                        );
                    }
                }
            }
            Ok(())
        }
        "work" => {
            let mut opts = WorkOptions::default();
            let mut json = false;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--worker" => {
                        opts.worker = it.next().ok_or("--worker needs a name")?.clone();
                    }
                    "--lease-secs" => {
                        opts.lease_secs = it
                            .next()
                            .ok_or("--lease-secs needs a value")?
                            .parse()
                            .map_err(|e| format!("--lease-secs: {e}"))?;
                    }
                    "--max-cells" => {
                        opts.max_cells = Some(
                            it.next()
                                .ok_or("--max-cells needs a value")?
                                .parse()
                                .map_err(|e| format!("--max-cells: {e}"))?,
                        );
                    }
                    "--poll-ms" => {
                        opts.poll_ms = it
                            .next()
                            .ok_or("--poll-ms needs a value")?
                            .parse()
                            .map_err(|e| format!("--poll-ms: {e}"))?;
                    }
                    "--no-wait" => opts.wait = false,
                    "--json" => json = true,
                    other => return Err(format!("campaign work: unknown option {other}")),
                }
            }
            let campaign = Campaign::open(dir).map_err(|e| e.to_string())?;
            let progress = campaign.work(&opts, find_test).map_err(|e| e.to_string())?;
            if !json {
                for (i, status) in &progress.ran {
                    let spec = &campaign.manifest().cells[*i];
                    println!(
                        "cell [{i:04}] {} / {} -> {}",
                        spec.workload,
                        spec.tool,
                        match status {
                            CellStatus::Completed => "completed",
                            CellStatus::TimedOut => "completed (TimeOut)",
                            CellStatus::Failed => "FAILED (quarantined)",
                        }
                    );
                }
                if progress.recovered > 0 {
                    println!("recovered {} stale claim(s)", progress.recovered);
                }
            }
            match progress.report {
                Some(report) => {
                    if json {
                        println!(
                            "{}",
                            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
                        );
                    } else {
                        print!("{}", report.render());
                        println!("report written to {dir}/report.json");
                    }
                }
                None => {
                    if json {
                        println!(
                            "{{\"ran\": {}, \"recovered\": {}, \"outstanding\": {}}}",
                            progress.ran.len(),
                            progress.recovered,
                            progress.outstanding
                        );
                    } else {
                        println!(
                            "{} cell(s) still outstanding (held by other workers or --no-wait/--max-cells)",
                            progress.outstanding
                        );
                    }
                }
            }
            Ok(())
        }
        "status" => {
            let json = rest.iter().any(|a| a == "--json");
            let campaign = Campaign::open(dir).map_err(|e| e.to_string())?;
            let status = campaign.status().map_err(|e| e.to_string())?;
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&status).map_err(|e| e.to_string())?
                );
                return Ok(());
            }
            let mut registry = MetricsRegistry::new();
            for (i, spec) in campaign.manifest().cells.iter().enumerate() {
                let ckpt = campaign.checkpoint_state(i);
                if let CheckpointState::Ready(c) = &ckpt {
                    if let Some(s) = &c.summary {
                        registry.absorb_summary(&spec.workload, &spec.tool, &s.telemetry);
                    }
                }
                let line = &status.cells[i];
                let state = match line.state.as_str() {
                    "completed" => "completed".to_owned(),
                    "timed_out" => "completed (TimeOut)".to_owned(),
                    "failed" => format!(
                        "FAILED (quarantined): {}",
                        line.last_failure.as_deref().unwrap_or("no panic recorded")
                    ),
                    "claimed" => {
                        let c = line.claim.as_ref().expect("claimed cells carry a claim");
                        format!("claimed by {} (pid {}, {}s ago)", c.worker, c.pid, c.age_secs)
                    }
                    _ if matches!(ckpt, CheckpointState::Invalid) => {
                        "invalid checkpoint (will re-run)".to_owned()
                    }
                    _ => "outstanding".to_owned(),
                };
                println!(
                    "[{i:04}] {} / {} ({} attempts): {state}",
                    spec.workload, spec.tool, spec.attempts
                );
            }
            println!(
                "{}/{} cells checkpointed ({} completed, {} timed out, {} quarantined); \
                 {} live claim(s){}",
                status.done,
                status.total,
                status.completed,
                status.timed_out,
                status.quarantined.len(),
                status.claims.len(),
                if status.report_written {
                    "; report.json written"
                } else {
                    ""
                }
            );
            println!(
                "telemetry so far: {} runs, {} delays injected",
                registry.counter("total/runs"),
                registry.counter("total/injected"),
            );
            Ok(())
        }
        other => Err(format!("campaign: unknown subcommand {other}")),
    }
}

/// `waffle fuzz` — run a block of generated workloads through the bounded
/// schedule oracle and all detector configurations, failing (non-zero
/// exit) on any ground-truth disagreement. With `--corpus DIR`, each
/// disagreeing workload is delta-debugged to a minimal op sequence and
/// persisted as a replayable corpus case.
fn fuzz_cmd(args: &[String]) -> Result<(), String> {
    use waffle_repro::fuzz::{classify_case, run_fuzz, shrink_case, CorpusCase, FuzzCase, FuzzConfig};

    let mut cfg = FuzzConfig::default();
    let mut corpus: Option<PathBuf> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                cfg.seeds = it
                    .next()
                    .ok_or("--seeds needs a value")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
            }
            "--seed-base" => {
                cfg.seed_base = it
                    .next()
                    .ok_or("--seed-base needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed-base: {e}"))?;
            }
            "--jobs" => {
                cfg.jobs = it
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if cfg.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--preemption-bound" => {
                cfg.preemption_bound = it
                    .next()
                    .ok_or("--preemption-bound needs a value")?
                    .parse()
                    .map_err(|e| format!("--preemption-bound: {e}"))?;
                if cfg.preemption_bound == 0 {
                    return Err(
                        "--preemption-bound must be at least 1: at bound 0 no access can be \
                         reordered, so every planted bug is vacuously unexposable"
                            .into(),
                    );
                }
            }
            "--max-runs" => {
                cfg.max_detection_runs = it
                    .next()
                    .ok_or("--max-runs needs a value")?
                    .parse()
                    .map_err(|e| format!("--max-runs: {e}"))?;
            }
            "--corpus" => {
                corpus = Some(PathBuf::from(it.next().ok_or("--corpus needs a value")?));
            }
            "--memory-model" => {
                cfg.memory = parse_memory_model(it.next().ok_or("--memory-model needs a value")?)?;
            }
            "--no-reduction" => cfg.reduction = false,
            "--repair" => cfg.repair = true,
            "--json" => json = true,
            other => return Err(format!("fuzz: unknown option {other}")),
        }
    }

    let report = run_fuzz(&cfg);

    if let Some(dir) = &corpus {
        if !report.disagreements.is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        // One minimized corpus case per disagreeing seed. Shrink while the
        // same disagreement kind reproduces under the sweep config AND the
        // case stays clean under the replay config (defaults at the same
        // bound) — without the second conjunct the shrinker can collapse a
        // run-budget miss into a degenerate workload that errors in the
        // preparation run itself and fails replay at any budget.
        let replay_cfg = FuzzConfig {
            preemption_bound: cfg.preemption_bound,
            memory: cfg.memory,
            ..FuzzConfig::default()
        };
        let mut seeds_done: Vec<u64> = Vec::new();
        for d in &report.disagreements {
            if seeds_done.contains(&d.seed) {
                continue;
            }
            seeds_done.push(d.seed);
            let case = waffle_repro::fuzz::generate_case_for_model(d.seed, cfg.memory);
            let kind = d.kind;
            let still_fails = |c: &FuzzCase| {
                classify_case(c, &cfg)
                    .disagreements
                    .iter()
                    .any(|x| x.kind == kind)
                    && classify_case(c, &replay_cfg).disagreements.is_empty()
            };
            let minimized = shrink_case(&case, &still_fails);
            let entry = CorpusCase {
                label: format!("seed {} [{}]: {}", d.seed, d.kind.label(), d.detail),
                preemption_bound: cfg.preemption_bound,
                memory: cfg.memory,
                case: minimized,
            };
            let path = dir.join(format!("s{}-{}.json", d.seed, d.kind.label()));
            std::fs::write(&path, entry.to_json().map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            if !json {
                println!("minimized corpus case written to {}", path.display());
            }
        }
    }

    if json {
        println!("{}", report.to_json().map_err(|e| e.to_string())?);
    } else {
        print!("{}", report.render());
    }
    if report.disagreements.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "fuzz: {} oracle/detector disagreement(s)",
            report.disagreements.len()
        ))
    }
}

/// `waffle fix <test>` — oracle-certified fix synthesis for one test
/// input: confirm the bug with the bounded schedule oracle, enumerate
/// candidate patches (fence, event edge, lock scope) from the analysis
/// plan, and report the cheapest patch the oracle certifies unexposable
/// at the same preemption bound under the same memory model. A test with
/// no exposable bug within the bound needs no repair; a confirmed bug
/// whose fix lies outside the grammar is reported unrepairable rather
/// than patched with an uncertified guess.
fn fix_cmd(args: &[String]) -> Result<(), String> {
    use waffle_repro::fuzz::{
        derive_plan, explore, synthesize_with_oracle, OracleConfig, OracleVerdict,
    };

    let mut name: Option<String> = None;
    let mut cfg = OracleConfig::default();
    let mut seed: u64 = 1;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--memory-model" => {
                cfg.memory = parse_memory_model(it.next().ok_or("--memory-model needs a value")?)?;
            }
            "--preemption-bound" => {
                cfg.preemption_bound = it
                    .next()
                    .ok_or("--preemption-bound needs a value")?
                    .parse()
                    .map_err(|e| format!("--preemption-bound: {e}"))?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--json" => json = true,
            other if name.is_none() && !other.starts_with("--") => {
                name = Some(other.to_owned());
            }
            other => return Err(format!("fix: unknown option {other}")),
        }
    }
    let name = name.ok_or("fix: missing test name")?;
    let w = find_test(&name).ok_or_else(|| format!("unknown test {name}"))?;

    let oracle = explore(&w, &cfg);
    let (kind, obj) = match oracle.verdict {
        OracleVerdict::Exposable { kind, obj, .. } => (kind, obj),
        OracleVerdict::CleanWithinBound => {
            if json {
                println!("{{\"workload\": {:?}, \"exposable\": false}}", w.name);
            } else {
                println!(
                    "{}: no exposable bug within preemption bound {} under {}; nothing to repair",
                    w.name, cfg.preemption_bound, cfg.memory
                );
            }
            return Ok(());
        }
        OracleVerdict::Truncated => {
            return Err(format!(
                "fix: oracle exploration truncated at {} states; raise the state budget \
                 before trusting any certificate",
                oracle.states_explored
            ));
        }
    };
    let plan = derive_plan(&w, seed, cfg.memory);
    let report = synthesize_with_oracle(&w, &plan, kind, obj, &cfg);
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", report.render());
    }
    if report.certified() {
        Ok(())
    } else {
        Err(format!(
            "fix: no certified repair within the candidate grammar ({} candidate(s) tried)",
            report.candidates_tried
        ))
    }
}

/// `waffle bench --all [--out DIR]` — refresh the committed throughput
/// reports by shelling out to the three `waffle-bench` rate harnesses
/// (`engine_rate`, `analysis_rate`, `scale`), steering each one's output
/// into `DIR` (default: the current directory) via its `WAFFLE_BENCH_*`
/// environment variable. The scale harness defaults to a 10M-event trace;
/// set `WAFFLE_SCALE_EVENTS` to shrink it for smoke runs.
fn bench_cmd(args: &[String]) -> Result<(), String> {
    let mut all = false;
    let mut out = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => all = true,
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a directory")?),
            other => return Err(format!("bench: unknown option {other}")),
        }
    }
    if !all {
        return Err(
            "bench: pass --all to refresh BENCH_core.json, BENCH_analysis.json and \
             BENCH_scale.json (optionally --out DIR)"
                .into(),
        );
    }
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let targets = [
        ("engine_rate", "WAFFLE_BENCH_OUT", "BENCH_core.json"),
        ("analysis_rate", "WAFFLE_BENCH_ANALYSIS_OUT", "BENCH_analysis.json"),
        ("scale", "WAFFLE_BENCH_SCALE_OUT", "BENCH_scale.json"),
        ("serve", "WAFFLE_BENCH_SERVE_OUT", "BENCH_serve.json"),
        ("oracle", "WAFFLE_BENCH_ORACLE_OUT", "BENCH_oracle.json"),
    ];
    for (bench, env, file) in targets {
        let path = out.join(file);
        println!("bench {bench} -> {}", path.display());
        let status = std::process::Command::new("cargo")
            .args(["bench", "-p", "waffle-bench", "--bench", bench])
            .env(env, &path)
            .status()
            .map_err(|e| format!("cargo bench --bench {bench}: {e}"))?;
        if !status.success() {
            return Err(format!("bench {bench} failed ({status})"));
        }
    }
    Ok(())
}

/// `waffle serve --socket PATH --dir DIR` — the streaming ingestion
/// server: accepts concurrent client sessions over a Unix socket, builds
/// each session's columnar index incrementally (sealing generation
/// segment files every `--seal-events`), folds sealed generations into a
/// running analysis, and answers each session's Finish with the same
/// report a one-shot `waffle analyze --plan-only` would print for the
/// concatenated trace. Bounded per-session queues (`--queue-events`)
/// provide backpressure: `--policy block` (default) throttles the client
/// through socket flow control, `--policy shed` drops event batches under
/// overload and counts them.
fn serve_cmd(args: &[String]) -> Result<(), String> {
    use waffle_repro::core::{serve, QueuePolicy, ServeOptions};
    let mut socket: Option<PathBuf> = None;
    let mut dir: Option<PathBuf> = None;
    let mut json = false;
    let mut it = args.iter();
    let mut seal_events: Option<usize> = None;
    let mut queue_events: Option<usize> = None;
    let mut policy = QueuePolicy::Block;
    let mut jobs = 1usize;
    let mut max_sessions: Option<usize> = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(PathBuf::from(it.next().ok_or("--socket needs a path")?)),
            "--dir" => dir = Some(PathBuf::from(it.next().ok_or("--dir needs a directory")?)),
            "--seal-events" => {
                let n: usize = it
                    .next()
                    .ok_or("--seal-events needs a value")?
                    .parse()
                    .map_err(|e| format!("--seal-events: {e}"))?;
                if n == 0 {
                    return Err("--seal-events must be at least 1".into());
                }
                seal_events = Some(n);
            }
            "--queue-events" => {
                let n: usize = it
                    .next()
                    .ok_or("--queue-events needs a value")?
                    .parse()
                    .map_err(|e| format!("--queue-events: {e}"))?;
                if n == 0 {
                    return Err("--queue-events must be at least 1".into());
                }
                queue_events = Some(n);
            }
            "--policy" => {
                policy = match it.next().ok_or("--policy needs block|shed")?.as_str() {
                    "block" => QueuePolicy::Block,
                    "shed" => QueuePolicy::Shed,
                    other => return Err(format!("--policy: unknown policy {other}")),
                };
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--max-sessions" => {
                max_sessions = Some(
                    it.next()
                        .ok_or("--max-sessions needs a value")?
                        .parse()
                        .map_err(|e| format!("--max-sessions: {e}"))?,
                );
            }
            "--json" => json = true,
            other => return Err(format!("serve: unknown option {other}")),
        }
    }
    let socket = socket.ok_or("serve: --socket PATH is required")?;
    let dir = dir.ok_or("serve: --dir DIR is required")?;
    let mut opts = ServeOptions::new(socket, dir);
    if let Some(n) = seal_events {
        opts.seal_events = n;
    }
    if let Some(n) = queue_events {
        opts.queue_events = n;
    }
    opts.policy = policy;
    opts.jobs = jobs;
    opts.max_sessions = max_sessions;
    if !json {
        println!(
            "serve: listening on {} (reports under {})",
            opts.socket.display(),
            opts.dir.display()
        );
    }
    let report = serve(&opts).map_err(|e| e.to_string())?;
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report.metrics).map_err(|e| e.to_string())?
        );
    } else {
        println!("serve: {} session(s) handled", report.sessions);
        for (name, value) in report.metrics.counters() {
            println!("  {name:<32} {value}");
        }
    }
    Ok(())
}

/// `waffle ingest --socket PATH --test NAME` — the reference client:
/// records the test's preparation-run trace, streams it to a running
/// `waffle serve` as one session (Events frames of `--batch` events), and
/// prints the server's report JSON.
fn ingest_cmd(args: &[String]) -> Result<(), String> {
    use waffle_repro::core::replay_trace;
    use waffle_repro::sim::{SimConfig, Simulator};
    use waffle_repro::trace::TraceRecorder;
    let mut socket: Option<PathBuf> = None;
    let mut test: Option<String> = None;
    let mut batch = 4096usize;
    let mut seed = 1u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(PathBuf::from(it.next().ok_or("--socket needs a path")?)),
            "--test" => test = Some(it.next().ok_or("--test needs a test name")?.clone()),
            "--batch" => {
                batch = it
                    .next()
                    .ok_or("--batch needs a value")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?;
                if batch == 0 {
                    return Err("--batch must be at least 1".into());
                }
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            other => return Err(format!("ingest: unknown option {other}")),
        }
    }
    let socket = socket.ok_or("ingest: --socket PATH is required")?;
    let name = test.ok_or("ingest: --test NAME is required")?;
    let w = find_test(&name).ok_or_else(|| format!("unknown test {name}"))?;
    let mut rec = TraceRecorder::new(&w);
    let _ = Simulator::run(&w, SimConfig::with_seed(seed), &mut rec);
    let trace = rec.into_trace();
    let json = replay_trace(&socket, &trace, batch).map_err(|e| e.to_string())?;
    println!("{json}");
    // A report carrying a "shed" member means the server (under
    // --policy shed) dropped some of this session's Events batches; the
    // plan above was computed over an incomplete trace.
    if json.contains("\n\"shed\": ") {
        eprintln!("ingest: note: server shed part of this session; the report is lossy");
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err("usage: waffle <list|bugs|detect|scan|report|campaign> …".into());
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            println!("waffle — active delay injection for MemOrder bugs\n");
            println!("commands:");
            println!("  list                        applications and test inputs");
            println!("  bugs                        the 18 seeded Table 4 bugs");
            println!("  analyze <test> [--jobs N] [--seed N] [--stats] [--json] [--plan-only]");
            println!("          [--spill DIR [--budget-mb N]]");
            println!("                              preparation run + trace analysis only;");
            println!("                              --spill analyzes out-of-core from an on-disk");
            println!("                              segment file under a resident-bytes budget;");
            println!("                              --plan-only prints the serve-session report");
            println!("  serve --socket PATH --dir DIR [--seal-events N] [--queue-events N]");
            println!("        [--policy block|shed] [--jobs N] [--max-sessions N] [--json]");
            println!("                              streaming ingestion server: sessions stream");
            println!("                              trace events, reports match batch analyze");
            println!("  ingest --socket PATH --test NAME [--batch N] [--seed N]");
            println!("                              stream one test's trace to a serve socket");
            println!("  detect <test> [options]     run a tool on one test input");
            println!("  step <test> --session DIR   one process-step of the workflow");
            println!("  scan <app> [options]        run a tool on an app's whole suite");
            println!("  report <bug-id> [options]   expose a seeded bug, full report");
            println!("  stats <dir> [--json]        aggregate saved telemetry journals");
            println!("  campaign init DIR [--tests a,b|--app NAME] [--tools t1,t2]");
            println!("                    [--attempts N] [--max-runs N] [--retries N]");
            println!("  campaign run DIR [--jobs N] [--resume|--fresh] [--max-cells N] [--json]");
            println!("  campaign work DIR [--worker NAME] [--lease-secs N] [--max-cells N]");
            println!("                    [--poll-ms N] [--no-wait] [--json]");
            println!("                              join DIR as one coordinator-free worker;");
            println!("                              run several processes to share the grid");
            println!("  campaign status DIR [--json]");
            println!("                              per-cell state, live claims, quarantine");
            println!("  bench --all [--out DIR]     refresh the BENCH_*.json throughput reports");
            println!("  fuzz [--seeds N] [--seed-base N] [--jobs N] [--preemption-bound K]");
            println!("       [--max-runs N] [--corpus DIR] [--memory-model sc|tso|pso]");
            println!("       [--no-reduction] [--json]");
            println!("                              generated workloads vs the schedule oracle;");
            println!("                              non-zero exit on any disagreement");
            println!("\noptions:");
            println!("  --tool waffle|basic|noprep|no-parent-child|fixed-delay|no-interference");
            println!("  --max-runs N     detection-run budget (default 10)");
            println!("  --seed N         attempt seed (default 1)");
            println!("  --attempts N     repetition attempts, summarized (default 1)");
            println!("  --jobs N         worker threads for --attempts/scan (default 1)");
            println!("  --session DIR    persist plan/decay/reports");
            println!("  --telemetry DIR  write per-attempt telemetry journals (JSON)");
            println!("  --memory-model sc|tso|pso");
            println!("                   simulated consistency model (default sc); tso/pso put");
            println!("                   a store buffer under every thread and let injected");
            println!("                   delays stretch store drains (detect/step/analyze/fuzz)");
            println!("  --json           machine-readable output");
            Ok(())
        }
        "list" => {
            for app in all_apps() {
                println!("{} ({} tests)", app.name, app.tests.len());
                for t in &app.tests {
                    let tag = match t.seeded_bug {
                        Some(id) => format!("  [Bug-{id}]"),
                        None => String::new(),
                    };
                    println!("  {}{}", t.workload.name, tag);
                }
            }
            println!("weak-memory scenarios (run with --memory-model):");
            for s in waffle_repro::apps::weak_scenarios() {
                let tag = match s.expected {
                    Some(k) => format!("  [{} under {}]", k.label(), s.model),
                    None => "  [control]".into(),
                };
                println!("  {}{}", s.name, tag);
            }
            Ok(())
        }
        "bugs" => {
            for b in all_bugs() {
                println!(
                    "Bug-{:<3} {:<20} issue {:<6} {:<8} {}",
                    b.id,
                    b.app,
                    b.issue,
                    if b.known { "known" } else { "unknown" },
                    b.summary
                );
            }
            Ok(())
        }
        "analyze" => {
            let name = args.get(1).ok_or("analyze: missing test name")?;
            let mut jobs = 1usize;
            let mut seed = 1u64;
            let mut stats = false;
            let mut json = false;
            let mut plan_only = false;
            let mut spill: Option<PathBuf> = None;
            let mut budget_mb: Option<u64> = None;
            let mut memory = MemoryModel::Sc;
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--jobs" => {
                        jobs = it
                            .next()
                            .ok_or("--jobs needs a value")?
                            .parse()
                            .map_err(|e| format!("--jobs: {e}"))?;
                        if jobs == 0 {
                            return Err("--jobs must be at least 1".into());
                        }
                    }
                    "--seed" => {
                        seed = it
                            .next()
                            .ok_or("--seed needs a value")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?;
                    }
                    "--stats" => stats = true,
                    "--json" => json = true,
                    "--plan-only" => plan_only = true,
                    "--spill" => {
                        spill = Some(PathBuf::from(it.next().ok_or("--spill needs a directory")?));
                    }
                    "--budget-mb" => {
                        let mb: u64 = it
                            .next()
                            .ok_or("--budget-mb needs a value")?
                            .parse()
                            .map_err(|e| format!("--budget-mb: {e}"))?;
                        if mb == 0 {
                            return Err("--budget-mb must be at least 1".into());
                        }
                        budget_mb = Some(mb);
                    }
                    "--memory-model" => {
                        memory = parse_memory_model(
                            it.next().ok_or("--memory-model needs a value")?,
                        )?;
                    }
                    other => return Err(format!("analyze: unknown option {other}")),
                }
            }
            if budget_mb.is_some() && spill.is_none() {
                return Err("analyze: --budget-mb only applies with --spill DIR".into());
            }
            let w = find_test(name).ok_or_else(|| format!("unknown test {name}"))?;
            analyze_cmd(
                &w,
                &AnalyzeOptions {
                    jobs,
                    seed,
                    stats,
                    json,
                    plan_only,
                    spill,
                    budget_mb,
                    memory,
                },
            )
        }
        "serve" => serve_cmd(&args[1..]),
        "ingest" => ingest_cmd(&args[1..]),
        "detect" => {
            let name = args.get(1).ok_or("detect: missing test name")?;
            let opts = parse_options(&args[2..])?;
            let w = find_test(name).ok_or_else(|| format!("unknown test {name}"))?;
            detect_one(&w, &opts)?;
            Ok(())
        }
        "step" => {
            // The real tool's process model: each invocation is one run.
            // The first step (no plan in the session yet) is the
            // preparation run; later steps are detection runs resuming the
            // persisted probabilities.
            let name = args.get(1).ok_or("step: missing test name")?;
            let opts = parse_options(&args[2..])?;
            let dir = opts
                .session
                .clone()
                .ok_or("step requires --session DIR")?;
            let session = Session::open(dir).map_err(|e| e.to_string())?;
            let w = find_test(name).ok_or_else(|| format!("unknown test {name}"))?;
            let det = Detector::with_config(
                opts.tool.clone(),
                DetectorConfig {
                    memory: MemoryConfig::from_model(opts.memory),
                    ..DetectorConfig::default()
                },
            );
            let outcome = det
                .step_with_session(&w, opts.seed, &session)
                .map_err(|e| e.to_string())?;
            if opts.json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&outcome).map_err(|e| e.to_string())?
                );
            } else if outcome.prep.is_some() {
                println!(
                    "preparation run complete; plan saved to {}",
                    session.path().display()
                );
            } else {
                match &outcome.exposed {
                    Some(r) => print!("{}", r.render(&w.sites)),
                    None => println!("detection run complete; no bug this run"),
                }
            }
            Ok(())
        }
        "dot" => {
            let name = args.get(1).ok_or("dot: missing test name")?;
            let w = find_test(name).ok_or_else(|| format!("unknown test {name}"))?;
            print!("{}", waffle_repro::sim::dot::to_dot(&w));
            Ok(())
        }
        "stats" => {
            let dir = args.get(1).ok_or("stats: missing journal directory")?;
            let json = args.iter().any(|a| a == "--json");
            let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
                .map_err(|e| format!("{dir}: {e}"))?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            if names.is_empty() {
                return Err(format!("{dir}: no .json telemetry journals found"));
            }
            // Sorted paths + commutative counters: the aggregate does not
            // depend on directory iteration order.
            names.sort();
            let mut registry = MetricsRegistry::new();
            for path in &names {
                let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                let attempt = AttemptJournal::from_json(&text)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                registry.absorb_attempt(&attempt);
            }
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&registry).map_err(|e| e.to_string())?
                );
                return Ok(());
            }
            println!("{} journal(s) aggregated\n", names.len());
            for (name, value) in registry.counters() {
                println!("{name:<50} {value}");
            }
            if let Some(h) = registry.histogram("total/delay") {
                if !h.is_empty() {
                    println!("\ninjected delay lengths (log2 µs buckets):");
                    for (lo, hi, n) in h.nonzero_buckets() {
                        println!("  [{lo:>9}µs, {hi:>9}µs)  {n}");
                    }
                    println!(
                        "  count {}, mean {:.1}µs, max {}µs",
                        h.count(),
                        h.mean_us(),
                        h.max_us()
                    );
                }
            }
            Ok(())
        }
        "campaign" => campaign_cmd(&args[1..]),
        "bench" => bench_cmd(&args[1..]),
        "fuzz" => fuzz_cmd(&args[1..]),
        "fix" => fix_cmd(&args[1..]),
        "scan" => {
            let name = args.get(1).ok_or("scan: missing app name")?;
            let opts = parse_options(&args[2..])?;
            let app = all_apps()
                .into_iter()
                .find(|a| a.name == *name)
                .ok_or_else(|| format!("unknown app {name}"))?;
            if opts.jobs > 1 {
                // Parallel scan: one grid cell per test input, fanned over
                // the worker pool. Attempt seeds are fixed per index, so
                // the per-input summaries match a sequential scan.
                let det = detector(&opts);
                let cells: Vec<GridCell> = app
                    .tests
                    .iter()
                    .map(|t| GridCell {
                        workload: t.workload.clone(),
                        detector: det.clone(),
                        attempts: opts.attempts,
                    })
                    .collect();
                let summaries = ExperimentEngine::new(opts.jobs).run_grid(&cells);
                let mut found = 0;
                for s in &summaries {
                    if s.exposed_attempts > 0 || s.tsv_attempts > 0 {
                        found += 1;
                    }
                    let runs = s
                        .reported_runs()
                        .map(|r| format!(", typical exposure in {r} runs"))
                        .unwrap_or_default();
                    let tsv = if s.tsv_attempts > 0 {
                        format!(" ({} thread-safety violations)", s.tsv_attempts)
                    } else {
                        String::new()
                    };
                    println!(
                        "{} [{}]: {}/{} attempts exposed{runs}{tsv}",
                        s.workload, opts.tool_name, s.exposed_attempts, s.attempts
                    );
                }
                println!("{found} bug(s) exposed across {} inputs", app.tests.len());
                return Ok(());
            }
            let mut found = 0;
            for t in &app.tests {
                if detect_one(&t.workload, &opts)? {
                    found += 1;
                }
                println!();
            }
            println!("{found} bug(s) exposed across {} inputs", app.tests.len());
            Ok(())
        }
        "report" => {
            let id: u32 = args
                .get(1)
                .ok_or("report: missing bug id")?
                .parse()
                .map_err(|e| format!("bug id: {e}"))?;
            let opts = parse_options(&args[2..])?;
            let spec = all_bugs()
                .into_iter()
                .find(|b| b.id == id)
                .ok_or_else(|| format!("unknown bug id {id}"))?;
            let app = all_apps().into_iter().find(|a| a.name == spec.app).unwrap();
            let w = app
                .bug_workload(id)
                .ok_or("bug workload missing")?
                .clone();
            println!("Bug-{id} ({} issue {}): {}\n", spec.app, spec.issue, spec.summary);
            detect_one(&w, &opts)?;
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("waffle: {e}");
            ExitCode::FAILURE
        }
    }
}
