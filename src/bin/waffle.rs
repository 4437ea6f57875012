//! `waffle` — command-line front end for the detection workflow.
//!
//! `waffle help` lists every subcommand and every flag. It is generated
//! from the flag tables below, the same rows the parser reads, so the two
//! cannot disagree.
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

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use waffle_repro::apps::{all_apps, all_bugs};
use waffle_repro::core::{
    attempt_seed, summarize, Campaign, CampaignConfig, CampaignReport, CellSpec, CellStatus,
    CheckpointState, DetectionOutcome, Detector, DetectorConfig, ExperimentEngine, GridCell,
    QueuePolicy, RunOptions, ServeOptions, Session, Tool, WorkOptions,
};
use waffle_repro::fuzz::{FuzzConfig, OracleConfig};
use waffle_repro::sim::{MemoryConfig, MemoryModel, Workload};
use waffle_repro::telemetry::{AttemptJournal, MetricsRegistry};

/// One flag a subcommand accepts. [`Command::parse`] reads these rows and
/// `waffle help` prints them.
struct Flag<O> {
    name: &'static str,
    /// The value's placeholder in help and what the value is in the
    /// "NAME needs …" error; a switch takes no value.
    takes: Takes,
    /// `Some(reason)` refuses a numeric 0 with "NAME must be at least 1"
    /// followed by the reason.
    at_least_1: Option<&'static str>,
    set: Set<O>,
}

/// How a flag stores what it reads into the subcommand's options.
enum Set<O> {
    Switch(fn(&mut O)),
    Value(Setter<O>),
}

type Setter<O> = fn(&mut O, &Val) -> Result<(), String>;

/// A value's placeholder in help ("N", "DIR", …) and what the value is
/// when it is missing ("a value", "a directory", …).
type Takes = (&'static str, &'static str);

const NUM: Takes = ("N", "a value");
const BOUND: Takes = ("K", "a value");
const NAME: Takes = ("NAME", "a value");
const MODEL: Takes = ("sc|tso|pso", "a value");
// `DIR` and `DIRECTORY` differ only in the missing-value error, whose
// text each flag has always had.
const DIR: Takes = ("DIR", "a value");
const DIRECTORY: Takes = ("DIR", "a directory");
const PATH: Takes = ("PATH", "a path");
const CSV: Takes = ("a,b,…", "a comma-separated list");

impl<O> Flag<O> {
    const fn switch(name: &'static str, set: fn(&mut O)) -> Self {
        Self::new(name, ("", ""), None, Set::Switch(set))
    }

    const fn value(name: &'static str, takes: Takes, set: Setter<O>) -> Self {
        Self::new(name, takes, None, Set::Value(set))
    }

    /// A numeric flag that refuses 0.
    const fn count(name: &'static str, takes: Takes, set: Setter<O>) -> Self {
        Self::new(name, takes, Some(""), Set::Value(set))
    }

    const fn new(
        name: &'static str,
        takes: Takes,
        at_least_1: Option<&'static str>,
        set: Set<O>,
    ) -> Self {
        Self {
            name,
            takes,
            at_least_1,
            set,
        }
    }
}

/// A flag's value as its row's setter receives it.
struct Val<'a> {
    flag: &'static str,
    text: &'a str,
    at_least_1: Option<&'static str>,
}

impl Val<'_> {
    /// Parses a number, path or string, applying the row's "at least 1"
    /// check.
    fn get<T: FromStr + Default + PartialEq>(&self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let flag = self.flag;
        let v: T = self.text.parse().map_err(|e| format!("{flag}: {e}"))?;
        match self.at_least_1 {
            Some(why) if v == T::default() => Err(format!("{flag} must be at least 1{why}")),
            _ => Ok(v),
        }
    }

    fn list(&self) -> Result<Vec<String>, String> {
        Ok(self.text.split(',').map(str::to_owned).collect())
    }

    fn model(&self) -> Result<MemoryModel, String> {
        let (flag, text) = (self.flag, self.text);
        MemoryModel::parse(text).ok_or_else(|| format!("{flag}: unknown model {text} (sc|tso|pso)"))
    }
}

/// A subcommand: how it is called, what it does and the flags it accepts.
struct Command<O: 'static> {
    /// The words that select it ("campaign init").
    name: &'static str,
    /// Its positional arguments, as help shows them ("<test>").
    args: &'static str,
    /// What it does, one help line per text line.
    about: &'static str,
    /// The options before any flag is read.
    init: fn() -> O,
    flags: &'static [Flag<O>],
    /// Reports an unknown option bare, without the subcommand's name, as
    /// detect, scan, report and step always have.
    bare: bool,
    /// Accepts one free-standing argument anywhere among the flags; the
    /// setter returns false when it holds one already.
    free: Option<fn(&mut O, &str) -> bool>,
}

impl<O> Command<O> {
    const fn new(
        name: &'static str,
        args: &'static str,
        about: &'static str,
        init: fn() -> O,
        flags: &'static [Flag<O>],
    ) -> Self {
        Self {
            name,
            args,
            about,
            init,
            flags,
            bare: false,
            free: None,
        }
    }

    const fn bare(self) -> Self {
        Self { bare: true, ..self }
    }

    /// The parsing loop every subcommand shares.
    fn parse(&self, args: &[String]) -> Result<O, String> {
        let mut opts = (self.init)();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(flag) = self.flags.iter().find(|f| f.name == a) else {
                let free = self.free;
                if free.is_some_and(|take| !a.starts_with("--") && take(&mut opts, a)) {
                    continue;
                }
                let cmd = if self.bare { "" } else { self.name };
                let sep = if self.bare { "" } else { ": " };
                return Err(format!("{cmd}{sep}unknown option {a}"));
            };
            match flag.set {
                Set::Switch(set) => set(&mut opts),
                Set::Value(set) => {
                    let (name, (_, noun)) = (flag.name, flag.takes);
                    let text = it.next().ok_or_else(|| format!("{name} needs {noun}"))?;
                    let value = Val {
                        flag: name,
                        text,
                        at_least_1: flag.at_least_1,
                    };
                    set(&mut opts, &value)?;
                }
            }
        }
        Ok(opts)
    }

    /// The command's name and its entry in `waffle help`: how it is
    /// called, every flag it accepts, then what it does.
    fn help(&self) -> (&'static str, String) {
        let call = format!("{} {}", self.name, self.args);
        let mut text = format!("  {}\n", call.trim_end());
        let mut line = String::new();
        for f in self.flags {
            let flag = match f.takes.0 {
                "" => format!("[{}]", f.name),
                meta => format!("[{} {meta}]", f.name),
            };
            if !line.is_empty() && line.len() + flag.len() > 72 {
                text += &format!("      {}\n", line.trim_end());
                line.clear();
            }
            line += &flag;
            line += " ";
        }
        if !line.is_empty() {
            text += &format!("      {}\n", line.trim_end());
        }
        for line in self.about.lines() {
            text += &format!("      {line}\n");
        }
        (self.name, text)
    }
}

/// Every command's name and help entry, in the order `waffle help` lists
/// them.
#[rustfmt::skip]
fn commands() -> [(&'static str, String); 19] {
    [
        LIST.help(), BUGS.help(), DETECT.help(), STEP.help(), SCAN.help(), REPORT.help(),
        ANALYZE.help(), DOT.help(), STATS.help(), SERVE.help(), INGEST.help(),
        CAMPAIGN_INIT.help(), CAMPAIGN_RUN.help(), CAMPAIGN_WORK.help(), CAMPAIGN_STATUS.help(),
        FUZZ.help(), FIX.help(), BENCH.help(), HELP.help(),
    ]
}

/// The usage line a bare `waffle` prints.
fn usage() -> String {
    let mut names: Vec<&str> = commands()
        .iter()
        .map(|(name, _)| name.split(' ').next().unwrap_or(name))
        .collect();
    names.dedup();
    format!("usage: waffle <{}> …", names.join("|"))
}

fn help() -> String {
    let mut text = format!(
        "waffle — active delay injection for MemOrder bugs\n\n{}\n\ncommands:\n",
        usage()
    );
    for (_, entry) in commands() {
        text += &entry;
    }
    text
}

/// Options of detect, scan, report and step.
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

impl Default for Options {
    fn default() -> Self {
        Self {
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
        }
    }
}

// The subcommand tables below are laid out by hand, one flag row per line.

/// The flags of detect, scan and report; step accepts the first five.
#[rustfmt::skip]
const DETECT_FLAGS: &[Flag<Options>] = &[
    Flag::value("--tool", NAME, |o, v| {
        o.tool = Tool::by_name(v.text).ok_or_else(|| format!("unknown tool {}", v.text))?;
        o.tool_name = v.text.to_owned();
        Ok(())
    }),
    Flag::value("--seed", NUM, |o, v| v.get().map(|n| o.seed = n)),
    Flag::value("--session", DIR, |o, v| v.get().map(|d| o.session = Some(d))),
    Flag::value("--memory-model", MODEL, |o, v| v.model().map(|m| o.memory = m)),
    Flag::switch("--json", |o| o.json = true),
    Flag::value("--max-runs", NUM, |o, v| v.get().map(|n| o.max_runs = n)),
    Flag::count("--attempts", NUM, |o, v| v.get().map(|n| o.attempts = n)),
    Flag::count("--jobs", NUM, |o, v| v.get().map(|n| o.jobs = n)),
    Flag::value("--telemetry", DIR, |o, v| v.get().map(|d| o.telemetry = Some(d))),
];

#[rustfmt::skip]
const DETECT: Command<Options> = Command::new("detect", "<test>", "\
    run a tool on one test input\n\
    --tool waffle|basic|tsvd|noprep|no-parent-child|fixed-delay|no-interference (waffle)\n\
    --max-runs: detection-run budget (10); --seed: attempt seed (1); --memory-model (sc)\n\
    --attempts: repetitions summarized per §6.1 (1), over --jobs worker threads (1)\n\
    --session: persist plan, decay and reports; --telemetry: per-attempt journals (JSON)",
    Options::default, DETECT_FLAGS).bare();
#[rustfmt::skip]
const STEP: Command<Options> = Command::new("step", "<test>",
    "one run per process, state kept in --session (required): preparation, then detection",
    Options::default, DETECT_FLAGS.split_at(5).0).bare();
#[rustfmt::skip]
const SCAN: Command<Options> = Command::new("scan", "<app>",
    "run a tool on an application's whole test suite (flags as for detect)",
    Options::default, DETECT_FLAGS).bare();
#[rustfmt::skip]
const REPORT: Command<Options> = Command::new("report", "<bug-id>",
    "expose a seeded bug and print its full report (flags as for detect)",
    Options::default, DETECT_FLAGS).bare();
#[rustfmt::skip]
const LIST: Command<()> = Command::new("list", "",
    "applications, test inputs and weak-memory scenarios", || (), &[]);
const BUGS: Command<()> = Command::new("bugs", "", "the 18 seeded Table 4 bugs", || (), &[]);
const DOT: Command<()> = Command::new("dot", "<test>", "render a workload as Graphviz", || (), &[]);
const HELP: Command<()> = Command::new("help", "", "this reference", || (), &[]);

/// Options of `waffle analyze`.
#[derive(Default)]
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

#[rustfmt::skip]
const ANALYZE: Command<AnalyzeOptions> = Command::new("analyze", "<test>", "\
    preparation run + trace analysis only (--jobs 1, --seed 1); --stats adds timings\n\
    --spill analyzes out-of-core from a segment file in DIR under --budget-mb (64)\n\
    --plan-only prints the report a `waffle serve` session answers",
    || AnalyzeOptions { jobs: 1, seed: 1, ..AnalyzeOptions::default() },
    &[
        Flag::count("--jobs", NUM, |o, v| v.get().map(|n| o.jobs = n)),
        Flag::value("--seed", NUM, |o, v| v.get().map(|n| o.seed = n)),
        Flag::switch("--stats", |o| o.stats = true),
        Flag::switch("--json", |o| o.json = true),
        Flag::switch("--plan-only", |o| o.plan_only = true),
        Flag::value("--spill", DIRECTORY, |o, v| v.get().map(|d| o.spill = Some(d))),
        Flag::count("--budget-mb", NUM, |o, v| v.get().map(|n| o.budget_mb = Some(n))),
        Flag::value("--memory-model", MODEL, |o, v| v.model().map(|m| o.memory = m)),
    ],
);

/// Options of `waffle serve`.
struct ServeCommand {
    socket: Option<PathBuf>,
    dir: Option<PathBuf>,
    /// Everything else; its socket and directory are filled in last.
    opts: ServeOptions,
    json: bool,
}

#[rustfmt::skip]
const SERVE: Command<ServeCommand> = Command::new("serve", "", "\
    streaming ingestion server; each session's report matches `analyze --plan-only`\n\
    required: --socket, --dir; defaults: --seal-events 65536, --queue-events 262144,\n\
    --policy block (shed drops batches on a full queue), --jobs 1, no session limit",
    || ServeCommand { socket: None, dir: None, opts: ServeOptions::new("", ""), json: false },
    &[
        Flag::value("--socket", PATH, |o, v| v.get().map(|p| o.socket = Some(p))),
        Flag::value("--dir", DIRECTORY, |o, v| v.get().map(|d| o.dir = Some(d))),
        Flag::count("--seal-events", NUM, |o, v| v.get().map(|n| o.opts.seal_events = n)),
        Flag::count("--queue-events", NUM, |o, v| v.get().map(|n| o.opts.queue_events = n)),
        Flag::value("--policy", ("block|shed", "block|shed"), |o, v| {
            o.opts.policy = match v.text {
                "block" => QueuePolicy::Block,
                "shed" => QueuePolicy::Shed,
                other => return Err(format!("--policy: unknown policy {other}")),
            };
            Ok(())
        }),
        Flag::count("--jobs", NUM, |o, v| v.get().map(|n| o.opts.jobs = n)),
        Flag::value("--max-sessions", NUM, |o, v| v.get().map(|n| o.opts.max_sessions = Some(n))),
        Flag::switch("--json", |o| o.json = true),
    ],
);

/// Options of `waffle ingest`.
#[derive(Default)]
struct IngestCommand {
    socket: Option<PathBuf>,
    test: Option<String>,
    batch: usize,
    seed: u64,
}

#[rustfmt::skip]
const INGEST: Command<IngestCommand> = Command::new("ingest", "", "\
    stream one test's trace to a `waffle serve` socket and print the report\n\
    required: --socket, --test; defaults: --batch 4096 events, --seed 1",
    || IngestCommand { batch: 4096, seed: 1, ..IngestCommand::default() },
    &[
        Flag::value("--socket", PATH, |o, v| v.get().map(|p| o.socket = Some(p))),
        Flag::value("--test", ("NAME", "a test name"), |o, v| v.get().map(|t| o.test = Some(t))),
        Flag::count("--batch", NUM, |o, v| v.get().map(|n| o.batch = n)),
        Flag::value("--seed", NUM, |o, v| v.get().map(|n| o.seed = n)),
    ],
);

/// Options of the subcommands whose only flag is `--json`.
#[derive(Default)]
struct JsonOnly {
    json: bool,
}

const JSON_ONLY: &[Flag<JsonOnly>] = &[Flag::switch("--json", |o| o.json = true)];
#[rustfmt::skip]
const STATS: Command<JsonOnly> = Command::new("stats", "<dir>",
    "aggregate a directory of saved telemetry journals", JsonOnly::default, JSON_ONLY);
#[rustfmt::skip]
const CAMPAIGN_STATUS: Command<JsonOnly> = Command::new("campaign status", "<dir>",
    "per-cell state, live claims and quarantine", JsonOnly::default, JSON_ONLY);

/// Options of `waffle campaign init`.
struct CampaignInit {
    tests: Vec<String>,
    app: Option<String>,
    tools: Vec<String>,
    attempts: u32,
    config: CampaignConfig,
}

#[rustfmt::skip]
const CAMPAIGN_INIT: Command<CampaignInit> = Command::new("campaign init", "<dir>", "\
    lay out a crash-safe grid: test inputs (--tests, every test of --app) × --tools\n\
    (waffle); defaults: --attempts 5 per cell, --max-runs 50, --retries 2 before quarantine",
    || CampaignInit {
        tests: Vec::new(), app: None, tools: vec!["waffle".into()], attempts: 5,
        config: CampaignConfig::default(),
    },
    &[
        Flag::value("--tests", CSV, |o, v| v.list().map(|l| o.tests = l)),
        Flag::value("--app", NAME, |o, v| v.get().map(|a| o.app = Some(a))),
        Flag::value("--tools", CSV, |o, v| v.list().map(|l| o.tools = l)),
        Flag::value("--attempts", NUM, |o, v| v.get().map(|n| o.attempts = n)),
        Flag::value("--max-runs", NUM, |o, v| v.get().map(|n| o.config.max_detection_runs = n)),
        Flag::value("--retries", NUM, |o, v| v.get().map(|n| o.config.max_retries = n)),
    ],
);

/// Options of `waffle campaign run`.
#[derive(Default)]
struct CampaignRun {
    opts: RunOptions,
    fresh: bool,
    json: bool,
}

#[rustfmt::skip]
const CAMPAIGN_RUN: Command<CampaignRun> = Command::new("campaign run", "<dir>", "\
    run the grid over --jobs workers (1), checkpointing every cell; --resume keeps the\n\
    checkpoints, --fresh discards them; --max-cells stops after N cells",
    CampaignRun::default,
    &[
        Flag::count("--jobs", NUM, |o, v| v.get().map(|n| o.opts.jobs = n)),
        Flag::switch("--resume", |o| o.opts.resume = true),
        Flag::switch("--fresh", |o| o.fresh = true),
        Flag::value("--max-cells", NUM, |o, v| v.get().map(|n| o.opts.max_cells = Some(n))),
        Flag::switch("--json", |o| o.json = true),
    ],
);

/// Options of `waffle campaign work`.
#[derive(Default)]
struct CampaignWork {
    opts: WorkOptions,
    json: bool,
}

#[rustfmt::skip]
const CAMPAIGN_WORK: Command<CampaignWork> = Command::new("campaign work", "<dir>", "\
    join as one coordinator-free worker; run several to share the grid; claims older\n\
    than --lease-secs (60) are stale; --poll-ms (50); --no-wait returns instead of\n\
    waiting for cells that other workers hold",
    CampaignWork::default,
    &[
        Flag::value("--worker", ("NAME", "a name"), |o, v| v.get().map(|w| o.opts.worker = w)),
        Flag::value("--lease-secs", NUM, |o, v| v.get().map(|n| o.opts.lease_secs = n)),
        Flag::value("--max-cells", NUM, |o, v| v.get().map(|n| o.opts.max_cells = Some(n))),
        Flag::value("--poll-ms", NUM, |o, v| v.get().map(|n| o.opts.poll_ms = n)),
        Flag::switch("--no-wait", |o| o.opts.wait = false),
        Flag::switch("--json", |o| o.json = true),
    ],
);

/// Options of `waffle bench`.
#[derive(Default)]
struct BenchCommand {
    all: bool,
    out: Option<PathBuf>,
}

#[rustfmt::skip]
const BENCH: Command<BenchCommand> = Command::new("bench", "",
    "with --all, refresh the five BENCH_*.json reports in --out (default .)",
    BenchCommand::default,
    &[
        Flag::switch("--all", |o| o.all = true),
        Flag::value("--out", DIRECTORY, |o, v| v.get().map(|d| o.out = Some(d))),
    ],
);

/// Options of `waffle fuzz`.
#[derive(Default)]
struct FuzzCommand {
    cfg: FuzzConfig,
    corpus: Option<PathBuf>,
    json: bool,
}

#[rustfmt::skip]
const FUZZ: Command<FuzzCommand> = Command::new("fuzz", "", "\
    differential fuzzing against the schedule oracle; fails on any disagreement\n\
    defaults: --seeds 100 from --seed-base 0, --jobs 1, --preemption-bound 2, --max-runs 16\n\
    --corpus writes minimized cases; --repair certifies a fix for every confirmed bug",
    FuzzCommand::default,
    &[
        Flag::value("--seeds", NUM, |o, v| v.get().map(|n| o.cfg.seeds = n)),
        Flag::value("--seed-base", NUM, |o, v| v.get().map(|n| o.cfg.seed_base = n)),
        Flag::count("--jobs", NUM, |o, v| v.get().map(|n| o.cfg.jobs = n)),
        Flag {
            at_least_1: Some(": at bound 0 no access can be reordered, so every planted bug \
                              is vacuously unexposable"),
            ..Flag::count("--preemption-bound", BOUND, |o, v| v.get().map(|n| o.cfg.preemption_bound = n))
        },
        Flag::value("--max-runs", NUM, |o, v| v.get().map(|n| o.cfg.max_detection_runs = n)),
        Flag::value("--corpus", DIR, |o, v| v.get().map(|d| o.corpus = Some(d))),
        Flag::value("--memory-model", MODEL, |o, v| v.model().map(|m| o.cfg.memory = m)),
        Flag::switch("--no-reduction", |o| o.cfg.reduction = false),
        Flag::switch("--repair", |o| o.cfg.repair = true),
        Flag::switch("--json", |o| o.json = true),
    ],
);

/// Options of `waffle fix`.
#[derive(Default)]
struct FixCommand {
    name: Option<String>,
    cfg: OracleConfig,
    seed: u64,
    json: bool,
}

#[rustfmt::skip]
const FIX: Command<FixCommand> = Command {
    free: Some(|o, a| o.name.is_none() && { o.name = Some(a.to_owned()); true }),
    ..Command::new("fix", "<test>",
        "oracle-certified fix synthesis for one test input (--preemption-bound 2, --seed 1)",
        || FixCommand { seed: 1, ..FixCommand::default() },
        &[
            Flag::value("--memory-model", MODEL, |o, v| v.model().map(|m| o.cfg.memory = m)),
            Flag::value("--preemption-bound", BOUND, |o, v| v.get().map(|n| o.cfg.preemption_bound = n)),
            Flag::value("--seed", NUM, |o, v| v.get().map(|n| o.seed = n)),
            Flag::switch("--json", |o| o.json = true),
        ],
    )
};

/// Splits a subcommand's leading positional argument off its flags.
fn positional<'a>(args: &'a [String], missing: &str) -> Result<(&'a str, &'a [String]), String> {
    let (first, rest) = args.split_first().ok_or_else(|| missing.to_owned())?;
    Ok((first, rest))
}

fn print_json(text: Result<String, serde_json::Error>) -> Result<(), String> {
    println!("{}", text.map_err(|e| e.to_string())?);
    Ok(())
}

fn find_test(name: &str) -> Option<Workload> {
    all_apps()
        .into_iter()
        .flat_map(|a| a.tests)
        .find(|t| t.workload.name == name)
        .map(|t| t.workload)
        .or_else(|| waffle_repro::apps::weak_scenario(name).map(|s| s.workload))
}

fn test_named(name: &str) -> Result<Workload, String> {
    find_test(name).ok_or_else(|| format!("unknown test {name}"))
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
        print_json(serde_json::to_string_pretty(&summary))?;
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
        print_json(serde_json::to_string_pretty(&outcome))?;
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

/// `waffle step` — the real tool's process model: each invocation is one
/// run. The first step (no plan in the session yet) is the preparation
/// run; later steps are detection runs resuming the persisted
/// probabilities.
fn step_cmd(name: &str, opts: &Options) -> Result<(), String> {
    let dir = opts.session.as_ref().ok_or("step requires --session DIR")?;
    let session = Session::open(dir).map_err(|e| e.to_string())?;
    let w = &test_named(name)?;
    let det = Detector::with_config(
        opts.tool.clone(),
        DetectorConfig {
            memory: MemoryConfig::from_model(opts.memory),
            ..DetectorConfig::default()
        },
    );
    let outcome = det
        .step_with_session(w, opts.seed, &session)
        .map_err(|e| e.to_string())?;
    if opts.json {
        print_json(serde_json::to_string_pretty(&outcome))?;
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

/// `waffle scan` — run a tool over every test input of an application.
fn scan_cmd(app_name: &str, opts: &Options) -> Result<(), String> {
    let app = all_apps()
        .into_iter()
        .find(|a| a.name == app_name)
        .ok_or_else(|| format!("unknown app {app_name}"))?;
    if opts.jobs > 1 {
        // Parallel scan: one grid cell per test input, fanned over
        // the worker pool. Attempt seeds are fixed per index, so
        // the per-input summaries match a sequential scan.
        let det = detector(opts);
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
        if detect_one(&t.workload, opts)? {
            found += 1;
        }
        println!();
    }
    println!("{found} bug(s) exposed across {} inputs", app.tests.len());
    Ok(())
}

/// `waffle report` — expose one seeded bug and print its full report.
fn report_cmd(id: u32, opts: &Options) -> Result<(), String> {
    let spec = all_bugs()
        .into_iter()
        .find(|b| b.id == id)
        .ok_or_else(|| format!("unknown bug id {id}"))?;
    let app = all_apps()
        .into_iter()
        .find(|a| a.name == spec.app)
        .ok_or_else(|| format!("Bug-{id}: unknown app {}", spec.app))?;
    let w = app.bug_workload(id).ok_or("bug workload missing")?.clone();
    println!(
        "Bug-{id} ({} issue {}): {}\n",
        spec.app, spec.issue, spec.summary
    );
    detect_one(&w, opts)?;
    Ok(())
}

/// `waffle analyze` — run the delay-free preparation run, build the
/// columnar trace index once, and run the fused analysis pipeline over it;
/// `--stats` adds index/scan timings, size statistics and the telemetry
/// counters they feed. With `--spill DIR` the index is written to an
/// on-disk segment file and analyzed out-of-core under a resident-bytes
/// budget (`--budget-mb`, default 64) — the plans are byte-identical to
/// the in-memory path at every budget.
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

/// `waffle campaign <init|run|work|status>` — the crash-safe, resumable
/// campaign workflow. A campaign directory holds a fingerprinted manifest
/// plus one atomically-written checkpoint per finished cell; `run
/// --resume` skips checkpointed cells and the final report is
/// byte-identical to an uninterrupted run at any `--jobs`.
fn campaign_cmd(args: &[String]) -> Result<(), String> {
    let (sub, args) = positional(args, "campaign: missing subcommand (init|run|work|status)")?;
    let (dir, args) = positional(args, "campaign: missing campaign directory")?;
    match sub {
        "init" => campaign_init(dir, CAMPAIGN_INIT.parse(args)?),
        "run" => {
            let CampaignRun { opts, fresh, json } = CAMPAIGN_RUN.parse(args)?;
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
            let progress = campaign.run(&opts, find_test).map_err(|e| e.to_string())?;
            if !json {
                if progress.skipped > 0 {
                    println!("resume: skipped {} checkpointed cell(s)", progress.skipped);
                }
                print_cells(&campaign, &progress.ran);
            }
            let pending = [
                format!(
                    "{{\"outstanding\": {}, \"ran\": {}}}",
                    progress.outstanding,
                    progress.ran.len()
                ),
                format!(
                    "{} cell(s) still outstanding; continue with: waffle campaign run {dir} \
                     --resume",
                    progress.outstanding
                ),
            ];
            print_report(progress.report, json, dir, pending)
        }
        "work" => {
            let CampaignWork { opts, json } = CAMPAIGN_WORK.parse(args)?;
            let campaign = Campaign::open(dir).map_err(|e| e.to_string())?;
            let progress = campaign.work(&opts, find_test).map_err(|e| e.to_string())?;
            if !json {
                print_cells(&campaign, &progress.ran);
                if progress.recovered > 0 {
                    println!("recovered {} stale claim(s)", progress.recovered);
                }
            }
            let pending = [
                format!(
                    "{{\"ran\": {}, \"recovered\": {}, \"outstanding\": {}}}",
                    progress.ran.len(),
                    progress.recovered,
                    progress.outstanding
                ),
                format!(
                    "{} cell(s) still outstanding (held by other workers or \
                     --no-wait/--max-cells)",
                    progress.outstanding
                ),
            ];
            print_report(progress.report, json, dir, pending)
        }
        "status" => campaign_status(dir, CAMPAIGN_STATUS.parse(args)?.json),
        other => Err(format!("campaign: unknown subcommand {other}")),
    }
}

fn campaign_init(dir: &str, opts: CampaignInit) -> Result<(), String> {
    let (mut tests, tools, attempts) = (opts.tests, opts.tools, opts.attempts);
    if let Some(app) = opts.app {
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
        test_named(t)?;
    }
    let cells: Vec<CellSpec> = tests
        .iter()
        .flat_map(|w| {
            tools
                .iter()
                .map(|t| CellSpec::new(w.clone(), t.clone(), attempts))
        })
        .collect();
    let campaign = Campaign::create(dir, opts.config, cells).map_err(|e| e.to_string())?;
    println!(
        "campaign initialized: {} cells ({} inputs × {} tools, {} attempts each)",
        campaign.manifest().cells.len(),
        tests.len(),
        tools.len(),
        attempts
    );
    println!(
        "manifest fingerprint {:016x}",
        campaign.manifest().fingerprint
    );
    println!("run it with: waffle campaign run {dir}");
    Ok(())
}

/// How a finished cell is labelled by `campaign run`, `work` and `status`.
fn cell_label(status: CellStatus) -> &'static str {
    match status {
        CellStatus::Completed => "completed",
        CellStatus::TimedOut => "completed (TimeOut)",
        CellStatus::Failed => "FAILED (quarantined)",
    }
}

/// Prints the cells one `campaign run` or `work` invocation executed.
fn print_cells(campaign: &Campaign, ran: &[(usize, CellStatus)]) {
    for &(i, status) in ran {
        let spec = &campaign.manifest().cells[i];
        println!(
            "cell [{i:04}] {} / {} -> {}",
            spec.workload,
            spec.tool,
            cell_label(status)
        );
    }
}

/// Prints the campaign report once every cell is checkpointed, or else
/// what is still outstanding (`pending` holds the JSON, then the text).
fn print_report(
    report: Option<CampaignReport>,
    json: bool,
    dir: &str,
    [pending_json, pending_text]: [String; 2],
) -> Result<(), String> {
    match report {
        Some(report) if json => print_json(serde_json::to_string_pretty(&report))?,
        Some(report) => {
            print!("{}", report.render());
            println!("report written to {dir}/report.json");
        }
        None if json => println!("{pending_json}"),
        None => println!("{pending_text}"),
    }
    Ok(())
}

fn campaign_status(dir: &str, json: bool) -> Result<(), String> {
    let campaign = Campaign::open(dir).map_err(|e| e.to_string())?;
    let status = campaign.status().map_err(|e| e.to_string())?;
    if json {
        return print_json(serde_json::to_string_pretty(&status));
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
            "completed" => cell_label(CellStatus::Completed).to_owned(),
            "timed_out" => cell_label(CellStatus::TimedOut).to_owned(),
            "failed" => format!(
                "{}: {}",
                cell_label(CellStatus::Failed),
                line.last_failure.as_deref().unwrap_or("no panic recorded")
            ),
            "claimed" => {
                let c = line.claim.as_ref().ok_or_else(|| {
                    format!("campaign status: cell {i} is claimed but its claim is missing")
                })?;
                format!(
                    "claimed by {} (pid {}, {}s ago)",
                    c.worker, c.pid, c.age_secs
                )
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

/// `waffle fuzz` — run a block of generated workloads through the bounded
/// schedule oracle and all detector configurations, failing (non-zero
/// exit) on any ground-truth disagreement. With `--corpus DIR`, each
/// disagreeing workload is delta-debugged to a minimal op sequence and
/// persisted as a replayable corpus case.
fn fuzz_cmd(opts: FuzzCommand) -> Result<(), String> {
    use waffle_repro::fuzz::{classify_case, run_fuzz, shrink_case, CorpusCase, FuzzCase};

    let FuzzCommand { cfg, corpus, json } = opts;
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
        print_json(report.to_json())?;
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
fn fix_cmd(opts: FixCommand) -> Result<(), String> {
    use waffle_repro::fuzz::{derive_plan, explore, synthesize_with_oracle, OracleVerdict};

    let (cfg, json) = (opts.cfg, opts.json);
    let name = opts.name.ok_or("fix: missing test name")?;
    let w = test_named(&name)?;

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
    let plan = derive_plan(&w, opts.seed, cfg.memory);
    let report = synthesize_with_oracle(&w, &plan, kind, obj, &cfg);
    if json {
        print_json(serde_json::to_string_pretty(&report))?;
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

/// `waffle bench --all [--out DIR]` — refresh the five committed
/// `BENCH_*.json` reports by shelling out to the `waffle-bench` harnesses
/// (`engine_rate`, `analysis_rate`, `scale`, `serve`, `oracle`), steering
/// each one's output into `DIR` (default: the current directory) via its
/// `WAFFLE_BENCH_*` environment variable. The scale harness defaults to a
/// 10M-event trace; set `WAFFLE_SCALE_EVENTS` to shrink it for smoke runs.
fn bench_cmd(opts: BenchCommand) -> Result<(), String> {
    let out = opts.out.unwrap_or_else(|| PathBuf::from("."));
    let all = opts.all;
    if !all {
        return Err(
            "bench: pass --all to refresh BENCH_core.json, BENCH_analysis.json, \
             BENCH_scale.json, BENCH_serve.json and BENCH_oracle.json (optionally --out DIR)"
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
fn serve_cmd(cmd: ServeCommand) -> Result<(), String> {
    let (mut opts, json) = (cmd.opts, cmd.json);
    opts.socket = cmd.socket.ok_or("serve: --socket PATH is required")?;
    opts.dir = cmd.dir.ok_or("serve: --dir DIR is required")?;
    if !json {
        println!(
            "serve: listening on {} (reports under {})",
            opts.socket.display(),
            opts.dir.display()
        );
    }
    let report = waffle_repro::core::serve(&opts).map_err(|e| e.to_string())?;
    if json {
        print_json(serde_json::to_string_pretty(&report.metrics))?;
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
fn ingest_cmd(opts: IngestCommand) -> Result<(), String> {
    use waffle_repro::core::replay_trace;
    use waffle_repro::sim::{SimConfig, Simulator};
    use waffle_repro::trace::TraceRecorder;
    let socket = opts.socket.ok_or("ingest: --socket PATH is required")?;
    let name = opts.test.ok_or("ingest: --test NAME is required")?;
    let w = test_named(&name)?;
    let mut rec = TraceRecorder::new(&w);
    let _ = Simulator::run(&w, SimConfig::with_seed(opts.seed), &mut rec);
    let trace = rec.into_trace();
    let json = replay_trace(&socket, &trace, opts.batch).map_err(|e| e.to_string())?;
    println!("{json}");
    // A report carrying a "shed" member means the server (under
    // --policy shed) dropped some of this session's Events batches; the
    // plan above was computed over an incomplete trace.
    if json.contains("\n\"shed\": ") {
        eprintln!("ingest: note: server shed part of this session; the report is lossy");
    }
    Ok(())
}

fn list_cmd() {
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
}

fn bugs_cmd() {
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
}

/// `waffle stats <dir>` — aggregate a directory of telemetry journals.
fn stats_cmd(dir: &str, json: bool) -> Result<(), String> {
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
        let attempt =
            AttemptJournal::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        registry.absorb_attempt(&attempt);
    }
    if json {
        return print_json(serde_json::to_string_pretty(&registry));
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

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, args)) = args.split_first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            print!("{}", help());
            Ok(())
        }
        "list" => LIST.parse(args).map(|()| list_cmd()),
        "bugs" => BUGS.parse(args).map(|()| bugs_cmd()),
        "analyze" => {
            let (name, args) = positional(args, "analyze: missing test name")?;
            let opts = ANALYZE.parse(args)?;
            if opts.budget_mb.is_some() && opts.spill.is_none() {
                return Err("analyze: --budget-mb only applies with --spill DIR".into());
            }
            analyze_cmd(&test_named(name)?, &opts)
        }
        "serve" => serve_cmd(SERVE.parse(args)?),
        "ingest" => ingest_cmd(INGEST.parse(args)?),
        "detect" => {
            let (name, args) = positional(args, "detect: missing test name")?;
            let opts = DETECT.parse(args)?;
            detect_one(&test_named(name)?, &opts).map(drop)
        }
        "step" => {
            let (name, args) = positional(args, "step: missing test name")?;
            step_cmd(name, &STEP.parse(args)?)
        }
        "dot" => {
            let (name, args) = positional(args, "dot: missing test name")?;
            DOT.parse(args)?;
            print!("{}", waffle_repro::sim::dot::to_dot(&test_named(name)?));
            Ok(())
        }
        "stats" => {
            let (dir, args) = positional(args, "stats: missing journal directory")?;
            stats_cmd(dir, STATS.parse(args)?.json)
        }
        "campaign" => campaign_cmd(args),
        "bench" => bench_cmd(BENCH.parse(args)?),
        "fuzz" => fuzz_cmd(FUZZ.parse(args)?),
        "fix" => fix_cmd(FIX.parse(args)?),
        "scan" => {
            let (name, args) = positional(args, "scan: missing app name")?;
            scan_cmd(name, &SCAN.parse(args)?)
        }
        "report" => {
            let (id, args) = positional(args, "report: missing bug id")?;
            let id: u32 = id.parse().map_err(|e| format!("bug id: {e}"))?;
            report_cmd(id, &REPORT.parse(args)?)
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
