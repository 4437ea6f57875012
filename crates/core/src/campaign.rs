//! Crash-safe, resumable experiment campaigns.
//!
//! The real tool runs every detection run as its own OS process precisely
//! so a crashing run cannot take down the campaign (§5) — the same
//! robustness choice TSVD made for production CI fleets. This module gives
//! the reproduction the equivalent property at the experiment-grid level:
//! a [`Campaign`] is a directory holding a [`CampaignManifest`] (the grid
//! of `(workload, tool, attempts)` cells plus a config fingerprint) and
//! one [`CellCheckpoint`] file per finished cell, all written atomically
//! (temp-file + rename, via the same discipline as
//! [`Session`](crate::storage::Session)). Killing the campaign process at
//! any instant therefore leaves only whole artifacts; rerunning with
//! `resume` skips checkpointed cells and produces a [`CampaignReport`]
//! bit-identical to an uninterrupted run at any worker count.
//!
//! Fault isolation happens at the cell boundary: a panicking attempt is
//! caught ([`std::panic::catch_unwind`]), retried a bounded number of
//! times on fresh seeds ([`retry_seed`]), and — if every retry panics —
//! the cell is quarantined as [`CellStatus::Failed`] in the final report
//! while every other cell's results stand. A cell whose runs exceeded the
//! virtual-time budget is classified [`CellStatus::TimedOut`] (its summary
//! is still recorded; the status makes the budget violation visible at the
//! campaign level).
//!
//! # Coordinator-free multi-process campaigns
//!
//! [`Campaign::work`] scales the same directory across *processes* (and,
//! via a shared filesystem, across machines) with no coordinator: each
//! worker claims outstanding cells through `O_EXCL` claim files
//! (`claim-NNNN.json`, created with
//! [`create_new`](fs::OpenOptions::create_new), the same
//! exclusive-create discipline [`Session::save_report`] uses), runs the
//! cell, checkpoints it, and releases the claim. Because cells are pure in
//! `(spec, workload, config)` and checkpoints are written atomically, the
//! protocol tolerates every failure mode by construction: a worker killed
//! mid-cell leaves a claim whose **lease** (file mtime older than
//! `lease_secs`) lets any other worker atomically take the claim over
//! (rename-then-delete — rename is the atomic arbiter, so exactly one
//! thief wins) and re-run the cell to the byte-identical checkpoint. Even
//! the pathological double-run — thief and a slow-but-alive owner both
//! finishing the same cell — is harmless: both write the same bytes. The
//! final `report.json` is therefore byte-identical to a single-process
//! [`Campaign::run`] no matter how many workers raced, which
//! `tests/campaign.rs` and the CI kill/resume smoke pin down.
//!
//! [`Session::save_report`]: crate::storage::Session::save_report

use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use waffle_sim::Workload;
use waffle_telemetry::TelemetrySummary;
use waffle_trace::fnv1a;

use crate::detector::{Detector, DetectorConfig, Tool};
use crate::engine::{attempt_seed, panic_message};
use crate::experiment::{summarize, ExperimentSummary};
use crate::report::DetectionOutcome;
use crate::storage::{corrupt, write_atomic};

/// Manifest schema version; bumped on incompatible layout changes.
pub const MANIFEST_VERSION: u32 = 1;

const MANIFEST_FILE: &str = "manifest.json";
const REPORT_FILE: &str = "report.json";

/// The seed for `attempt` on its `retry`-th retry. Retry 0 is the
/// standard [`attempt_seed`] ladder, so an unfailing campaign cell is
/// bit-identical to [`ExperimentEngine::run_grid`]; each retry shifts the
/// whole ladder into a disjoint seed range, so a retried cell re-rolls
/// every run while staying fully deterministic (and therefore identical
/// across interrupt/resume).
///
/// [`ExperimentEngine::run_grid`]: crate::engine::ExperimentEngine::run_grid
pub fn retry_seed(attempt: u32, retry: u32) -> u64 {
    attempt_seed(attempt) + (u64::from(retry) << 32)
}

/// Deliberate fault injection for crash-safety tests: the cell's detector
/// panics at the given attempt on the first `panics` tries of the cell
/// (`u32::MAX` ⇒ every retry panics and the cell is quarantined). Stands
/// in for a detection process crashing deterministically.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellFault {
    /// The attempt index (0-based) whose seed triggers the panic.
    pub attempt: u32,
    /// How many tries of the cell (initial run + retries) panic.
    pub panics: u32,
}

/// One `(workload, tool, attempts)` cell of a campaign grid, persisted by
/// name so a fresh process can reconstruct the work from the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Workload (test input) name, resolved at run time.
    pub workload: String,
    /// Tool spelling, resolved via [`Tool::by_name`].
    pub tool: String,
    /// Repetition attempts (§6.1; the paper uses 15).
    pub attempts: u32,
    /// Optional fault injection (crash-safety tests only; `None` in
    /// normal campaigns).
    pub fault: Option<CellFault>,
}

impl CellSpec {
    /// A plain cell with no fault injection.
    pub fn new(workload: impl Into<String>, tool: impl Into<String>, attempts: u32) -> Self {
        Self {
            workload: workload.into(),
            tool: tool.into(),
            attempts,
            fault: None,
        }
    }
}

/// Detector configuration shared by every cell, fingerprinted into the
/// manifest so a resumed campaign cannot silently mix results computed
/// under different configurations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Per-cell detection-run budget (50 in §6.2).
    pub max_detection_runs: u32,
    /// Per-operation timing noise (percent).
    pub timing_noise_pct: u32,
    /// Virtual-time budget factor (a run dies at `factor × base_time`).
    pub deadline_factor: u64,
    /// Bounded retry policy for panicking cells: a cell is retried on
    /// fresh seeds at most this many times before being quarantined.
    pub max_retries: u32,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        let d = DetectorConfig::default();
        Self {
            max_detection_runs: d.max_detection_runs,
            timing_noise_pct: d.timing_noise_pct,
            deadline_factor: d.deadline_factor,
            max_retries: 2,
        }
    }
}

/// The campaign's durable description: what to run and under which
/// configuration. Written once, atomically, as `manifest.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignManifest {
    /// Schema version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// FNV-1a fingerprint over the config and the cell grid; checkpoints
    /// carry it too, so stale checkpoints from an edited manifest are
    /// detected and re-run instead of silently merged.
    pub fingerprint: u64,
    /// Shared detector configuration.
    pub config: CampaignConfig,
    /// The grid, in canonical cell order.
    pub cells: Vec<CellSpec>,
}

fn fingerprint(config: &CampaignConfig, cells: &[CellSpec]) -> u64 {
    use std::fmt::Write as _;
    let mut s = format!(
        "v{MANIFEST_VERSION}|{}|{}|{}|{}",
        config.max_detection_runs, config.timing_noise_pct, config.deadline_factor,
        config.max_retries
    );
    for c in cells {
        let fault = match &c.fault {
            Some(f) => format!("f{}x{}", f.attempt, f.panics),
            None => "-".to_owned(),
        };
        let _ = write!(s, "|{}~{}~{}~{fault}", c.workload, c.tool, c.attempts);
    }
    fnv1a(s.as_bytes())
}

/// How a cell ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellStatus {
    /// All attempts ran within every budget.
    Completed,
    /// All attempts ran, but at least one detection run exceeded the
    /// virtual-time budget (the Table 5/6 "TimeOut" condition), surfaced
    /// at campaign level.
    TimedOut,
    /// Every try (initial + retries) panicked; the cell is quarantined
    /// and its `summary` is absent.
    Failed,
}

/// One recorded panic of a cell try.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellFailure {
    /// Which try panicked (0 = initial run).
    pub retry: u32,
    /// The attempt index that panicked.
    pub attempt: u32,
    /// The seed that attempt ran under.
    pub seed: u64,
    /// The panic message.
    pub message: String,
}

/// The durable record of one finished cell, written atomically as
/// `cell-NNNN.json` the moment the cell completes — the unit of resume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellCheckpoint {
    /// Cell index in the manifest grid.
    pub cell: usize,
    /// Copy of the manifest fingerprint this result was computed under.
    pub fingerprint: u64,
    /// The cell's spec (denormalized for self-describing checkpoints).
    pub spec: CellSpec,
    /// Terminal classification.
    pub status: CellStatus,
    /// The experiment summary — including folded telemetry counters —
    /// for `Completed`/`TimedOut`; `None` for quarantined cells.
    pub summary: Option<ExperimentSummary>,
    /// Every panic observed across the tries, in try order.
    pub failures: Vec<CellFailure>,
    /// Retries consumed before the terminal status (0 = clean first try).
    pub retries_used: u32,
}

/// The durable state of one cell slot on disk.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointState {
    /// No checkpoint file: the cell is outstanding.
    Absent,
    /// A file exists but is unusable (corrupt, or fingerprinted by a
    /// different manifest): treated as outstanding and overwritten.
    Invalid,
    /// A valid checkpoint for the current manifest (boxed: a checkpoint
    /// carries a full summary and dwarfs the other variants).
    Ready(Box<CellCheckpoint>),
}

/// Options for one `run` invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads for the cell fan-out (results are identical at any
    /// count; clamped to at least 1).
    pub jobs: usize,
    /// Keep existing checkpoints and run only outstanding cells. When
    /// `false`, all checkpoints (and any stale report) are cleared first.
    pub resume: bool,
    /// Stop after checkpointing this many cells (used by tests and the CI
    /// smoke job to simulate a kill between cells; `None` = run to the
    /// end).
    pub max_cells: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            jobs: 1,
            resume: false,
            max_cells: None,
        }
    }
}

/// Options for one `work` invocation (a single worker process's loop).
#[derive(Debug, Clone)]
pub struct WorkOptions {
    /// Worker name recorded in claim files (surfaced by `campaign
    /// status`); defaults to `host-pid` style naming in the CLI.
    pub worker: String,
    /// Claim lease in seconds: a claim file whose mtime is at least this
    /// old is considered abandoned and taken over. `0` treats every
    /// existing claim as stale immediately (recovery drills and tests).
    pub lease_secs: u64,
    /// Stop after checkpointing this many cells (`None` = work until no
    /// cell is left for this worker).
    pub max_cells: Option<usize>,
    /// How long to sleep between scans while other workers hold claims.
    pub poll_ms: u64,
    /// When `true`, a worker that finds live claims but no claimable cell
    /// keeps polling until the campaign completes (so it can assemble the
    /// final report); when `false`, it returns with cells outstanding.
    pub wait: bool,
}

impl Default for WorkOptions {
    fn default() -> Self {
        Self {
            worker: format!("worker-{}", std::process::id()),
            lease_secs: 60,
            max_cells: None,
            poll_ms: 50,
            wait: true,
        }
    }
}

/// Keeps a live worker's claim fresh while a long cell runs.
///
/// The lease protocol reads a claim's *mtime* as liveness, but a cell can
/// legitimately run longer than the lease — without a heartbeat, a slow
/// cell's claim is stolen at exactly `lease_secs` and the cell runs
/// twice. The heartbeat thread touches the claim file every ~lease/3.
/// It opens the file **without** `create`: once a thief renames the claim
/// away, the touch quietly fails and the refresh stops — the correct
/// failure mode, since re-creating the file would fight the thief's
/// exclusive-create.
///
/// Dropping the guard stops the thread promptly (condvar wake, not a
/// sleep race), so short cells don't pay the heartbeat period on exit.
pub(crate) struct ClaimHeartbeat {
    state: std::sync::Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ClaimHeartbeat {
    /// Spawns a heartbeat touching `path` every `period`.
    pub(crate) fn spawn(path: PathBuf, period: std::time::Duration) -> Self {
        let state = std::sync::Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let shared = std::sync::Arc::clone(&state);
        let handle = std::thread::spawn(move || {
            let (stopped, wake) = &*shared;
            let mut guard = stopped.lock().expect("heartbeat lock poisoned");
            // The stop flag is re-checked *before* every wait: the guard
            // may be dropped before this thread even takes the lock, and
            // a notify with no waiter is lost — waiting first would then
            // block the join for a whole period.
            while !*guard {
                let (g, timeout) = wake
                    .wait_timeout(guard, period)
                    .expect("heartbeat lock poisoned");
                guard = g;
                if !*guard && timeout.timed_out() {
                    if let Ok(f) = fs::OpenOptions::new().write(true).open(&path) {
                        let _ = f.set_modified(std::time::SystemTime::now());
                    }
                }
            }
        });
        Self {
            state,
            handle: Some(handle),
        }
    }
}

impl Drop for ClaimHeartbeat {
    fn drop(&mut self) {
        *self.state.0.lock().expect("heartbeat lock poisoned") = true;
        self.state.1.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The contents of a `claim-NNNN.json` file: which worker is (or was)
/// running the cell. Purely informational — claim *existence* and mtime
/// drive the protocol, so a torn claim write can never corrupt it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerClaim {
    /// The claimed cell index.
    pub cell: usize,
    /// Manifest fingerprint the claimant was working under.
    pub fingerprint: u64,
    /// Claimant's worker name.
    pub worker: String,
    /// Claimant's OS process id.
    pub pid: u32,
}

/// What one `work` invocation did.
#[derive(Debug, Clone)]
pub struct WorkProgress {
    /// Cells this worker executed (and checkpointed), in execution order,
    /// with their terminal status.
    pub ran: Vec<(usize, CellStatus)>,
    /// Stale claims this worker recovered (taken over via the lease).
    pub recovered: usize,
    /// Cells still outstanding when this worker returned (0 unless
    /// `wait = false` or `max_cells` cut the loop short).
    pub outstanding: usize,
    /// The final report, present when this worker observed the campaign
    /// complete (also written to `report.json` — idempotently, since every
    /// worker computes identical bytes).
    pub report: Option<CampaignReport>,
}

/// One live claim, as reported by [`Campaign::status`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClaimInfo {
    /// The claimed cell.
    pub cell: usize,
    /// Claimant's worker name (`"?"` if the claim file was unreadable —
    /// e.g. scanned mid-write).
    pub worker: String,
    /// Claimant's pid (0 if unreadable).
    pub pid: u32,
    /// Claim age in seconds (mtime-based, the same clock the lease uses).
    pub age_secs: u64,
}

/// One cell's line in [`Campaign::status`]: durable state plus any live
/// claim.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellStatusLine {
    /// Cell index in the manifest grid.
    pub cell: usize,
    /// The cell's workload name.
    pub workload: String,
    /// The cell's tool spelling.
    pub tool: String,
    /// `"completed"`, `"timed_out"`, `"failed"`, `"claimed"`, or
    /// `"outstanding"`.
    pub state: String,
    /// Retries the checkpoint consumed, for checkpointed cells.
    pub retries_used: Option<u32>,
    /// Last recorded panic message, for failed (quarantined) cells.
    pub last_failure: Option<String>,
    /// The live claim, for claimed cells.
    pub claim: Option<ClaimInfo>,
}

/// A point-in-time view of campaign progress across all workers: per-cell
/// states (quarantined cells and their panics included), live claims, and
/// the roll-up counts `campaign status --json` emits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignStatus {
    /// Cells in the grid.
    pub total: usize,
    /// Cells with a valid checkpoint (any terminal status).
    pub done: usize,
    /// Checkpointed cells that completed cleanly.
    pub completed: usize,
    /// Checkpointed cells that hit the virtual-time budget.
    pub timed_out: usize,
    /// Quarantined (failed) cell indices, in order.
    pub quarantined: Vec<usize>,
    /// Cells without a valid checkpoint.
    pub outstanding: usize,
    /// Live worker claims, in cell order.
    pub claims: Vec<ClaimInfo>,
    /// Whether `report.json` has been written.
    pub report_written: bool,
    /// Per-cell detail, in cell order.
    pub cells: Vec<CellStatusLine>,
}

/// What one `run` invocation did.
#[derive(Debug, Clone)]
pub struct CampaignProgress {
    /// Cells executed (and checkpointed) by this invocation, in cell
    /// order, with their terminal status.
    pub ran: Vec<(usize, CellStatus)>,
    /// Cells skipped because a valid checkpoint already existed.
    pub skipped: usize,
    /// Cells still outstanding after this invocation.
    pub outstanding: usize,
    /// The final report, present once every cell is checkpointed (also
    /// written to `report.json`).
    pub report: Option<CampaignReport>,
}

/// The campaign's final, deterministic report: a pure fold of the
/// checkpoints in cell order, so an interrupted-and-resumed campaign
/// renders byte-for-byte the report of an uninterrupted one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Every cell's checkpoint, in manifest order.
    pub cells: Vec<CellCheckpoint>,
    /// Cells that completed cleanly.
    pub completed: u32,
    /// Cells that completed but hit the virtual-time budget.
    pub timed_out: u32,
    /// Quarantined (failed) cell indices, in order.
    pub quarantined: Vec<usize>,
    /// Telemetry folded across all non-quarantined cells in cell order.
    pub telemetry: TelemetrySummary,
}

impl CampaignReport {
    /// Renders the report as a human-readable block, quarantine section
    /// included.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign: {} cells — {} completed, {} timed out, {} quarantined",
            self.cells.len(),
            self.completed,
            self.timed_out,
            self.quarantined.len()
        );
        for c in &self.cells {
            if let Some(s) = &c.summary {
                let runs = s
                    .reported_runs()
                    .map(|r| format!(", typical exposure in {r} runs"))
                    .unwrap_or_default();
                let status = match c.status {
                    CellStatus::TimedOut => " [TimeOut]",
                    _ => "",
                };
                let retried = if c.retries_used > 0 {
                    format!(" [recovered after {} retr{}]", c.retries_used,
                        if c.retries_used == 1 { "y" } else { "ies" })
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "  [{:04}] {} / {}: {}/{} attempts exposed{runs}{status}{retried}",
                    c.cell, c.spec.workload, c.spec.tool, s.exposed_attempts, s.attempts
                );
            }
        }
        if !self.quarantined.is_empty() {
            let _ = writeln!(out, "quarantine:");
            for &i in &self.quarantined {
                let c = &self.cells[i];
                let last = c
                    .failures
                    .last()
                    .map(|f| f.message.as_str())
                    .unwrap_or("unknown panic");
                let _ = writeln!(
                    out,
                    "  [{:04}] {} / {}: {} panic(s), last: {last}",
                    c.cell,
                    c.spec.workload,
                    c.spec.tool,
                    c.failures.len()
                );
            }
        }
        let t = &self.telemetry.counters;
        let _ = writeln!(
            out,
            "telemetry: {} runs, {} injected, {} skipped (probability), {} skipped (interference), {} decay steps, {} instrumented ops",
            self.telemetry.runs,
            t.injected,
            t.skipped_probability,
            t.skipped_interference,
            t.decay_steps,
            t.instrumented_ops
        );
        out
    }
}

/// A campaign directory: manifest + per-cell checkpoints + final report.
#[derive(Debug, Clone)]
pub struct Campaign {
    dir: PathBuf,
    manifest: CampaignManifest,
}

impl Campaign {
    /// Creates a campaign directory with a freshly fingerprinted manifest.
    /// Fails if a manifest already exists (campaigns are immutable once
    /// created; make a new directory instead), if the grid is empty, or if
    /// a cell names an unknown tool.
    pub fn create(
        dir: impl Into<PathBuf>,
        config: CampaignConfig,
        cells: Vec<CellSpec>,
    ) -> io::Result<Self> {
        let dir = dir.into();
        if cells.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a campaign needs at least one cell",
            ));
        }
        for c in &cells {
            if Tool::by_name(&c.tool).is_none() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("cell {}: unknown tool {}", c.workload, c.tool),
                ));
            }
            if c.attempts == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("cell {}: attempts must be at least 1", c.workload),
                ));
            }
        }
        fs::create_dir_all(&dir)?;
        let path = dir.join(MANIFEST_FILE);
        if path.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{}: campaign already initialized", path.display()),
            ));
        }
        let manifest = CampaignManifest {
            version: MANIFEST_VERSION,
            fingerprint: fingerprint(&config, &cells),
            config,
            cells,
        };
        write_atomic(
            &path,
            &serde_json::to_string_pretty(&manifest).map_err(|e| corrupt(MANIFEST_FILE, e))?,
        )?;
        Ok(Self { dir, manifest })
    }

    /// Opens an existing campaign directory, verifying the manifest's
    /// schema version, self-fingerprint, and tool names.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        let path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&path).map_err(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("{}: not a campaign directory (no manifest)", dir.display()),
                )
            } else {
                e
            }
        })?;
        let manifest: CampaignManifest =
            serde_json::from_str(&text).map_err(|e| corrupt(MANIFEST_FILE, e))?;
        if manifest.version != MANIFEST_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{MANIFEST_FILE}: version {} (this build speaks {MANIFEST_VERSION})",
                    manifest.version
                ),
            ));
        }
        if manifest.fingerprint != fingerprint(&manifest.config, &manifest.cells) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{MANIFEST_FILE}: fingerprint mismatch (manifest was edited?)"),
            ));
        }
        for c in &manifest.cells {
            if Tool::by_name(&c.tool).is_none() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{MANIFEST_FILE}: cell {} names unknown tool {}", c.workload, c.tool),
                ));
            }
        }
        Ok(Self { dir, manifest })
    }

    /// The campaign directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest this campaign was created with.
    pub fn manifest(&self) -> &CampaignManifest {
        &self.manifest
    }

    fn checkpoint_path(&self, cell: usize) -> PathBuf {
        self.dir.join(format!("cell-{cell:04}.json"))
    }

    /// The durable state of one cell slot.
    pub fn checkpoint_state(&self, cell: usize) -> CheckpointState {
        let text = match fs::read_to_string(self.checkpoint_path(cell)) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CheckpointState::Absent,
            Err(_) => return CheckpointState::Invalid,
        };
        match serde_json::from_str::<CellCheckpoint>(&text) {
            Ok(c) if c.fingerprint == self.manifest.fingerprint && c.cell == cell => {
                CheckpointState::Ready(Box::new(c))
            }
            // Parse failures (a partial write from a crashed process) and
            // stale fingerprints are both just "outstanding": the cell is
            // deterministic, so re-running reproduces the exact result.
            _ => CheckpointState::Invalid,
        }
    }

    /// Indices of cells without a valid checkpoint, in cell order.
    pub fn outstanding(&self) -> Vec<usize> {
        (0..self.manifest.cells.len())
            .filter(|&i| !matches!(self.checkpoint_state(i), CheckpointState::Ready(_)))
            .collect()
    }

    /// Removes every checkpoint, claim, and any stale report (fresh start).
    pub fn clear_checkpoints(&self) -> io::Result<()> {
        let ignore_missing = |r: io::Result<()>| match r {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        };
        for i in 0..self.manifest.cells.len() {
            ignore_missing(fs::remove_file(self.checkpoint_path(i)))?;
            ignore_missing(fs::remove_file(self.claim_path(i)))?;
        }
        ignore_missing(fs::remove_file(self.dir.join(REPORT_FILE)))
    }

    /// Executes one cell in-process: sequential attempts on the standard
    /// seed ladder, panics caught per attempt, bounded retries on fresh
    /// seed ladders, terminal classification. Pure in `(spec, workload,
    /// config)` — which is what makes checkpoints resumable.
    fn run_cell(&self, index: usize, spec: &CellSpec, workload: &Workload) -> CellCheckpoint {
        let cfg = &self.manifest.config;
        let tool = Tool::by_name(&spec.tool).expect("validated at create/open");
        let mut failures = Vec::new();
        for retry in 0..=cfg.max_retries {
            let panic_on_seed = spec
                .fault
                .as_ref()
                .filter(|f| retry < f.panics)
                .map(|f| retry_seed(f.attempt, retry));
            let det = Detector::with_config(
                tool.clone(),
                DetectorConfig {
                    max_detection_runs: cfg.max_detection_runs,
                    timing_noise_pct: cfg.timing_noise_pct,
                    deadline_factor: cfg.deadline_factor,
                    telemetry_events: false,
                    panic_on_seed,
                    ..DetectorConfig::default()
                },
            );
            let mut outcomes: Vec<DetectionOutcome> = Vec::with_capacity(spec.attempts as usize);
            let mut panicked = None;
            for a in 0..spec.attempts {
                let seed = retry_seed(a, retry);
                match catch_unwind(AssertUnwindSafe(|| det.detect(workload, seed))) {
                    Ok(o) => outcomes.push(o),
                    Err(p) => {
                        panicked = Some(CellFailure {
                            retry,
                            attempt: a,
                            seed,
                            message: panic_message(p.as_ref()),
                        });
                        break;
                    }
                }
            }
            match panicked {
                None => {
                    let summary = summarize(&det, workload, &outcomes);
                    let status = if summary.any_timeout {
                        CellStatus::TimedOut
                    } else {
                        CellStatus::Completed
                    };
                    return CellCheckpoint {
                        cell: index,
                        fingerprint: self.manifest.fingerprint,
                        spec: spec.clone(),
                        status,
                        summary: Some(summary),
                        failures,
                        retries_used: retry,
                    };
                }
                Some(f) => failures.push(f),
            }
        }
        CellCheckpoint {
            cell: index,
            fingerprint: self.manifest.fingerprint,
            spec: spec.clone(),
            status: CellStatus::Failed,
            summary: None,
            failures,
            retries_used: cfg.max_retries,
        }
    }

    fn save_checkpoint(&self, ckpt: &CellCheckpoint) -> io::Result<()> {
        write_atomic(
            &self.checkpoint_path(ckpt.cell),
            &serde_json::to_string_pretty(ckpt).map_err(|e| corrupt("checkpoint", e))?,
        )
    }

    /// Runs outstanding cells across a worker pool, checkpointing each as
    /// it finishes. `resolve` maps a cell's workload name to the workload
    /// (typically the app registry); an unresolvable name fails before any
    /// cell runs. When every cell is checkpointed afterwards, the final
    /// report is assembled and written to `report.json`.
    pub fn run(
        &self,
        opts: &RunOptions,
        resolve: impl Fn(&str) -> Option<Workload>,
    ) -> io::Result<CampaignProgress> {
        if !opts.resume {
            self.clear_checkpoints()?;
        }
        let todo_all = self.outstanding();
        let skipped = self.manifest.cells.len() - todo_all.len();
        let todo: Vec<usize> = match opts.max_cells {
            Some(k) => todo_all.iter().copied().take(k).collect(),
            None => todo_all,
        };
        // Resolve every workload up front: failing after half the grid ran
        // would waste the pool, and the error names the missing input.
        let mut work: Vec<(usize, Workload)> = Vec::with_capacity(todo.len());
        for &i in &todo {
            let name = &self.manifest.cells[i].workload;
            let w = resolve(name).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("cell {i}: unknown workload {name}"),
                )
            })?;
            work.push((i, w));
        }
        let ran: Mutex<Vec<(usize, CellStatus)>> = Mutex::new(Vec::with_capacity(work.len()));
        let first_io_error: Mutex<Option<io::Error>> = Mutex::new(None);
        if !work.is_empty() {
            let jobs = opts.jobs.max(1).min(work.len());
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..jobs {
                    s.spawn(|| loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some((idx, workload)) = work.get(k) else {
                            break;
                        };
                        let ckpt = self.run_cell(*idx, &self.manifest.cells[*idx], workload);
                        let status = ckpt.status;
                        match self.save_checkpoint(&ckpt) {
                            Ok(()) => ran.lock().push((*idx, status)),
                            Err(e) => {
                                let mut g = first_io_error.lock();
                                if g.is_none() {
                                    *g = Some(e);
                                }
                            }
                        }
                    });
                }
            });
        }
        if let Some(e) = first_io_error.into_inner() {
            return Err(e);
        }
        let mut ran = ran.into_inner();
        ran.sort_unstable_by_key(|(i, _)| *i);
        let outstanding = self.outstanding();
        let report = if outstanding.is_empty() {
            let report = self.assemble_report()?;
            write_atomic(
                &self.dir.join(REPORT_FILE),
                &serde_json::to_string_pretty(&report).map_err(|e| corrupt(REPORT_FILE, e))?,
            )?;
            Some(report)
        } else {
            None
        };
        Ok(CampaignProgress {
            ran,
            skipped,
            outstanding: outstanding.len(),
            report,
        })
    }

    fn claim_path(&self, cell: usize) -> PathBuf {
        self.dir.join(format!("claim-{cell:04}.json"))
    }

    /// Age of the claim file at `path`, by mtime. `None` when the claim no
    /// longer exists (released or stolen between scan and stat).
    ///
    /// A *future* mtime (clock skew between NFS hosts, a stepped clock)
    /// is clamped by the lease: skew within one lease reads as a fresh
    /// claim — the lease recovers it one lease later, same as a backwards
    /// step — but skew *beyond* the lease reads as immediately stale,
    /// because no live worker's heartbeat can legitimately produce an
    /// mtime that far ahead. Without the second arm, a single garbage
    /// mtime years in the future would hold the claim forever.
    fn claim_age(
        path: &Path,
        lease: std::time::Duration,
    ) -> io::Result<Option<std::time::Duration>> {
        match fs::metadata(path) {
            Ok(m) => {
                let age = match m.modified()?.elapsed() {
                    Ok(age) => age,
                    Err(skew) if skew.duration() <= lease => std::time::Duration::ZERO,
                    Err(_) => lease,
                };
                Ok(Some(age))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Tries to claim `cell` for `opts.worker`. Returns whether the claim
    /// was won, and whether winning it required recovering a stale claim.
    ///
    /// Exclusive create (`O_EXCL`) is the arbiter for fresh claims; for
    /// stale ones (mtime at or beyond the lease) the takeover renames the
    /// old claim to a worker-unique name first — rename succeeds for
    /// exactly one thief, the rest observe `NotFound` and retry the
    /// exclusive create from scratch. Claim *contents* never gate the
    /// protocol, so scanning a claim mid-write cannot misfire.
    fn try_claim(&self, cell: usize, opts: &WorkOptions) -> io::Result<Option<bool>> {
        use std::io::Write as _;
        let path = self.claim_path(cell);
        let mut recovered = false;
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let claim = WorkerClaim {
                        cell,
                        fingerprint: self.manifest.fingerprint,
                        worker: opts.worker.clone(),
                        pid: std::process::id(),
                    };
                    let text = serde_json::to_string_pretty(&claim)
                        .map_err(|e| corrupt("claim", e))?;
                    f.write_all(text.as_bytes())?;
                    return Ok(Some(recovered));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let lease = std::time::Duration::from_secs(opts.lease_secs);
                    let stale = match Self::claim_age(&path, lease)? {
                        // Released between create_new and stat: retry.
                        None => continue,
                        Some(age) => age >= lease,
                    };
                    if !stale {
                        return Ok(None);
                    }
                    let graveyard = self.dir.join(format!(
                        ".claim-{cell:04}.stale.{}.{}",
                        std::process::id(),
                        opts.worker.len()
                    ));
                    match fs::rename(&path, &graveyard) {
                        Ok(()) => {
                            let _ = fs::remove_file(&graveyard);
                            recovered = true;
                            continue;
                        }
                        // Another thief won the rename (or the owner
                        // released); retry the exclusive create.
                        Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Releases this worker's claim on `cell` (best effort: a missing
    /// claim means a thief already recovered it, which is fine — the
    /// checkpoint bytes are identical either way).
    fn release_claim(&self, cell: usize) {
        let _ = fs::remove_file(self.claim_path(cell));
    }

    /// Works the campaign as one of N independent worker processes sharing
    /// the directory: scan for outstanding cells, claim one through the
    /// `O_EXCL` lease protocol, run it, checkpoint it, release the claim,
    /// repeat. No coordinator exists; the filesystem is the cluster.
    ///
    /// The worker that observes the last checkpoint assembles and writes
    /// `report.json`; racing finishers write byte-identical reports.
    pub fn work(
        &self,
        opts: &WorkOptions,
        resolve: impl Fn(&str) -> Option<Workload>,
    ) -> io::Result<WorkProgress> {
        let mut ran = Vec::new();
        let mut recovered = 0usize;
        'outer: loop {
            let mut progressed = false;
            for i in 0..self.manifest.cells.len() {
                if opts.max_cells.is_some_and(|k| ran.len() >= k) {
                    break 'outer;
                }
                if matches!(self.checkpoint_state(i), CheckpointState::Ready(_)) {
                    continue;
                }
                match self.try_claim(i, opts)? {
                    None => continue,
                    Some(was_stale) => recovered += usize::from(was_stale),
                }
                // Re-check under the claim: the previous owner may have
                // checkpointed the cell right before losing its claim.
                if matches!(self.checkpoint_state(i), CheckpointState::Ready(_)) {
                    self.release_claim(i);
                    continue;
                }
                let spec = &self.manifest.cells[i];
                let Some(workload) = resolve(&spec.workload) else {
                    self.release_claim(i);
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("cell {i}: unknown workload {}", spec.workload),
                    ));
                };
                // Keep the claim's mtime fresh while the cell runs, so a
                // cell longer than the lease isn't stolen mid-run.
                let heartbeat = ClaimHeartbeat::spawn(
                    self.claim_path(i),
                    std::time::Duration::from_secs(opts.lease_secs.max(1)) / 3,
                );
                let ckpt = self.run_cell(i, spec, &workload);
                drop(heartbeat);
                let status = ckpt.status;
                let saved = self.save_checkpoint(&ckpt);
                self.release_claim(i);
                saved?;
                ran.push((i, status));
                progressed = true;
            }
            if self.outstanding().is_empty() {
                break;
            }
            if !progressed {
                // Everything left is claimed by live workers.
                if !opts.wait {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(opts.poll_ms.max(1)));
            }
        }
        let outstanding = self.outstanding();
        let report = if outstanding.is_empty() {
            let report = self.assemble_report()?;
            write_atomic(
                &self.dir.join(REPORT_FILE),
                &serde_json::to_string_pretty(&report).map_err(|e| corrupt(REPORT_FILE, e))?,
            )?;
            Some(report)
        } else {
            None
        };
        Ok(WorkProgress {
            ran,
            recovered,
            outstanding: outstanding.len(),
            report,
        })
    }

    /// A point-in-time progress view across every worker sharing this
    /// directory: per-cell durable state (quarantined cells carry their
    /// last panic), live claims with worker identity and age, and roll-up
    /// counts. This is what `campaign status` (and its `--json` mode)
    /// renders.
    pub fn status(&self) -> io::Result<CampaignStatus> {
        let mut cells = Vec::with_capacity(self.manifest.cells.len());
        let mut claims = Vec::new();
        let (mut done, mut completed, mut timed_out) = (0usize, 0usize, 0usize);
        let mut quarantined = Vec::new();
        for (i, spec) in self.manifest.cells.iter().enumerate() {
            let mut line = CellStatusLine {
                cell: i,
                workload: spec.workload.clone(),
                tool: spec.tool.clone(),
                state: "outstanding".into(),
                retries_used: None,
                last_failure: None,
                claim: None,
            };
            if let CheckpointState::Ready(c) = self.checkpoint_state(i) {
                done += 1;
                line.retries_used = Some(c.retries_used);
                line.state = match c.status {
                    CellStatus::Completed => {
                        completed += 1;
                        "completed".into()
                    }
                    CellStatus::TimedOut => {
                        timed_out += 1;
                        "timed_out".into()
                    }
                    CellStatus::Failed => {
                        quarantined.push(i);
                        line.last_failure =
                            c.failures.last().map(|f| f.message.clone());
                        "failed".into()
                    }
                };
            } else {
                let path = self.claim_path(i);
                let lease = std::time::Duration::from_secs(WorkOptions::default().lease_secs);
                if let Some(age) = Self::claim_age(&path, lease)? {
                    let parsed: Option<WorkerClaim> = fs::read_to_string(&path)
                        .ok()
                        .and_then(|t| serde_json::from_str(&t).ok());
                    let info = ClaimInfo {
                        cell: i,
                        worker: parsed
                            .as_ref()
                            .map(|c| c.worker.clone())
                            .unwrap_or_else(|| "?".into()),
                        pid: parsed.map(|c| c.pid).unwrap_or(0),
                        age_secs: age.as_secs(),
                    };
                    line.state = "claimed".into();
                    line.claim = Some(info.clone());
                    claims.push(info);
                }
            }
            cells.push(line);
        }
        Ok(CampaignStatus {
            total: self.manifest.cells.len(),
            done,
            completed,
            timed_out,
            quarantined,
            outstanding: self.manifest.cells.len() - done,
            claims,
            report_written: self.dir.join(REPORT_FILE).exists(),
            cells,
        })
    }

    /// Assembles the report from the checkpoints on disk (cell order), or
    /// errors if any cell is still outstanding.
    pub fn assemble_report(&self) -> io::Result<CampaignReport> {
        let mut cells = Vec::with_capacity(self.manifest.cells.len());
        for i in 0..self.manifest.cells.len() {
            match self.checkpoint_state(i) {
                CheckpointState::Ready(c) => cells.push(*c),
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("cell {i} has no valid checkpoint; run the campaign first"),
                    ))
                }
            }
        }
        // A pure fold in cell order: folding resumed checkpoints is
        // bit-identical to folding freshly computed ones.
        let mut telemetry = TelemetrySummary::default();
        let mut completed = 0;
        let mut timed_out = 0;
        let mut quarantined = Vec::new();
        for c in &cells {
            match c.status {
                CellStatus::Completed => completed += 1,
                CellStatus::TimedOut => timed_out += 1,
                CellStatus::Failed => quarantined.push(c.cell),
            }
            if let Some(s) = &c.summary {
                telemetry.merge(&s.telemetry);
            }
        }
        Ok(CampaignReport {
            cells,
            completed,
            timed_out,
            quarantined,
            telemetry,
        })
    }

    /// Loads the persisted `report.json`, when one was written.
    pub fn load_report(&self) -> io::Result<Option<CampaignReport>> {
        match fs::read_to_string(self.dir.join(REPORT_FILE)) {
            Ok(t) => serde_json::from_str(&t)
                .map(Some)
                .map_err(|e| corrupt(REPORT_FILE, e)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_sim::{SimTime, WorkloadBuilder};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "waffle-campaign-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn racy(name: &str) -> Workload {
        let mut b = WorkloadBuilder::new(name);
        let o = b.object("o");
        let started = b.event("s");
        let worker = b.script("worker", move |s| {
            s.wait(started)
                .compute(SimTime::from_us(150))
                .use_(o, "W.use:1", SimTime::from_us(10));
        });
        let main = b.script("main", move |s| {
            s.init(o, "M.init:1", SimTime::from_us(10))
                .fork(worker)
                .signal(started)
                .compute(SimTime::from_us(700))
                .dispose(o, "M.dispose:9", SimTime::from_us(10))
                .join_children();
        });
        b.main(main);
        b.build()
    }

    fn resolve(name: &str) -> Option<Workload> {
        name.starts_with("camp.").then(|| racy(name))
    }

    fn small_config() -> CampaignConfig {
        CampaignConfig {
            max_detection_runs: 6,
            ..CampaignConfig::default()
        }
    }

    fn grid(n: usize) -> Vec<CellSpec> {
        (0..n)
            .map(|i| CellSpec::new(format!("camp.w{i}"), "waffle", 3))
            .collect()
    }

    #[test]
    fn manifest_round_trips_and_rejects_edits() {
        let dir = tmpdir("manifest");
        let c = Campaign::create(&dir, small_config(), grid(2)).unwrap();
        let reopened = Campaign::open(&dir).unwrap();
        assert_eq!(reopened.manifest(), c.manifest());
        // A second create on the same directory is refused.
        assert_eq!(
            Campaign::create(&dir, small_config(), grid(2))
                .unwrap_err()
                .kind(),
            io::ErrorKind::AlreadyExists
        );
        // An edited manifest no longer matches its fingerprint.
        let path = dir.join(MANIFEST_FILE);
        let edited = fs::read_to_string(&path).unwrap().replace("\"attempts\": 3", "\"attempts\": 4");
        fs::write(&path, edited).unwrap();
        assert_eq!(
            Campaign::open(&dir).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_tools_and_empty_grids_are_rejected() {
        let dir = tmpdir("reject");
        assert!(Campaign::create(&dir, small_config(), Vec::new()).is_err());
        assert!(Campaign::create(
            &dir,
            small_config(),
            vec![CellSpec::new("camp.w0", "no-such-tool", 3)]
        )
        .is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_checkpoints_every_cell_and_reports() {
        let dir = tmpdir("run");
        let c = Campaign::create(&dir, small_config(), grid(3)).unwrap();
        let progress = c.run(&RunOptions::default(), resolve).unwrap();
        assert_eq!(progress.ran.len(), 3);
        assert_eq!(progress.outstanding, 0);
        let report = progress.report.expect("complete campaign reports");
        assert_eq!(report.completed, 3);
        assert!(report.quarantined.is_empty());
        assert!(report.telemetry.runs > 0, "telemetry folded from cells");
        assert_eq!(c.load_report().unwrap().unwrap(), report);
        for i in 0..3 {
            assert!(matches!(c.checkpoint_state(i), CheckpointState::Ready(_)));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_outstanding_and_rerun_restores_it() {
        let dir = tmpdir("corrupt");
        let c = Campaign::create(&dir, small_config(), grid(2)).unwrap();
        c.run(&RunOptions::default(), resolve).unwrap();
        let intact = fs::read_to_string(c.checkpoint_path(1)).unwrap();
        // Simulate a partial write by a crashed process.
        let full = fs::read_to_string(c.checkpoint_path(0)).unwrap();
        fs::write(c.checkpoint_path(0), &full[..full.len() / 3]).unwrap();
        assert_eq!(c.checkpoint_state(0), CheckpointState::Invalid);
        assert_eq!(c.outstanding(), vec![0]);
        let progress = c
            .run(
                &RunOptions {
                    resume: true,
                    ..RunOptions::default()
                },
                resolve,
            )
            .unwrap();
        assert_eq!(progress.ran, vec![(0, CellStatus::Completed)]);
        assert_eq!(progress.skipped, 1);
        // Determinism: the re-run reproduces the identical checkpoint.
        assert_eq!(fs::read_to_string(c.checkpoint_path(0)).unwrap(), full);
        assert_eq!(fs::read_to_string(c.checkpoint_path(1)).unwrap(), intact);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_cell_recovers_on_a_fresh_seed_retry() {
        let dir = tmpdir("retry");
        let mut cells = grid(2);
        // Panics on the first try only; retry 1's fresh seeds succeed.
        cells[1].fault = Some(CellFault { attempt: 1, panics: 1 });
        let c = Campaign::create(&dir, small_config(), cells).unwrap();
        let report = c
            .run(&RunOptions::default(), resolve)
            .unwrap()
            .report
            .unwrap();
        assert_eq!(report.completed, 2);
        let cell = &report.cells[1];
        assert_eq!(cell.status, CellStatus::Completed);
        assert_eq!(cell.retries_used, 1);
        assert_eq!(cell.failures.len(), 1);
        assert_eq!(cell.failures[0].attempt, 1);
        assert_eq!(cell.failures[0].seed, retry_seed(1, 0));
        assert!(cell.failures[0].message.contains("fault injection"));
        // The recovered summary comes from the retry ladder, not the
        // standard one — but it is still a real summary.
        assert_eq!(cell.summary.as_ref().unwrap().attempts, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistently_panicking_cell_is_quarantined_others_intact() {
        let dir = tmpdir("quarantine");
        let mut cells = grid(3);
        cells[1].fault = Some(CellFault {
            attempt: 0,
            panics: u32::MAX,
        });
        let c = Campaign::create(&dir, small_config(), cells).unwrap();
        let progress = c
            .run(
                &RunOptions {
                    jobs: 4,
                    ..RunOptions::default()
                },
                resolve,
            )
            .unwrap();
        let report = progress.report.expect("campaign completes despite the panic");
        assert_eq!(report.quarantined, vec![1]);
        assert_eq!(report.completed, 2);
        let failed = &report.cells[1];
        assert_eq!(failed.status, CellStatus::Failed);
        assert!(failed.summary.is_none());
        // max_retries = 2 ⇒ 3 tries, each recorded with its panic index.
        assert_eq!(failed.failures.len(), 3);
        assert!(failed.failures.iter().all(|f| f.attempt == 0));
        for (i, f) in failed.failures.iter().enumerate() {
            assert_eq!(f.retry, i as u32);
        }
        // The neighbours' results are intact and identical to a grid that
        // never contained the bad cell.
        let reference = {
            let rdir = tmpdir("quarantine-ref");
            let rc = Campaign::create(&rdir, small_config(), grid(3)).unwrap();
            let r = rc.run(&RunOptions::default(), resolve).unwrap().report.unwrap();
            let _ = fs::remove_dir_all(&rdir);
            r
        };
        assert_eq!(report.cells[0].summary, reference.cells[0].summary);
        assert_eq!(report.cells[2].summary, reference.cells[2].summary);
        assert!(report.render().contains("quarantine:"));
        assert!(report.render().contains("fault injection"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_workers_share_the_grid_and_reproduce_the_single_process_report() {
        // Reference: one process, plain `run`.
        let rdir = tmpdir("work-ref");
        let rc = Campaign::create(&rdir, small_config(), grid(4)).unwrap();
        rc.run(&RunOptions::default(), resolve).unwrap();
        let reference = fs::read(rdir.join(REPORT_FILE)).unwrap();

        // Two concurrent workers on a fresh directory with the same grid.
        let dir = tmpdir("work-pair");
        let c = Campaign::create(&dir, small_config(), grid(4)).unwrap();
        let (pa, pb) = std::thread::scope(|s| {
            let mk = |name: &str| WorkOptions {
                worker: name.into(),
                lease_secs: 3600, // never steal from a live peer here
                poll_ms: 5,
                ..WorkOptions::default()
            };
            let ca = c.clone();
            let cb = c.clone();
            let a = s.spawn(move || ca.work(&mk("a"), resolve).unwrap());
            let b = s.spawn(move || cb.work(&mk("b"), resolve).unwrap());
            (a.join().unwrap(), b.join().unwrap())
        });
        // Between them the workers ran every cell exactly once (live
        // claims were honored), and both observed completion.
        let mut cells: Vec<usize> = pa.ran.iter().chain(&pb.ran).map(|(i, _)| *i).collect();
        cells.sort_unstable();
        assert_eq!(cells, vec![0, 1, 2, 3], "each cell ran exactly once");
        assert_eq!(pa.outstanding, 0);
        assert_eq!(pb.outstanding, 0);
        assert!(pa.report.is_some() && pb.report.is_some());
        // Byte-identical to the single-process campaign.
        assert_eq!(fs::read(dir.join(REPORT_FILE)).unwrap(), reference);
        // All claims released.
        for i in 0..4 {
            assert!(!c.claim_path(i).exists(), "claim {i} released");
        }
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&rdir);
    }

    #[test]
    fn stale_claim_from_a_dead_worker_is_recovered() {
        let dir = tmpdir("work-stale");
        let c = Campaign::create(&dir, small_config(), grid(2)).unwrap();
        // A worker died mid-cell: its claim file survives, no checkpoint.
        fs::write(
            c.claim_path(0),
            serde_json::to_string_pretty(&WorkerClaim {
                cell: 0,
                fingerprint: c.manifest().fingerprint,
                worker: "dead-worker".into(),
                pid: 1,
            })
            .unwrap(),
        )
        .unwrap();
        let progress = c
            .work(
                &WorkOptions {
                    worker: "rescuer".into(),
                    lease_secs: 0, // everything is immediately stale
                    ..WorkOptions::default()
                },
                resolve,
            )
            .unwrap();
        assert_eq!(progress.recovered, 1, "the dead worker's claim was taken over");
        assert_eq!(progress.ran.len(), 2);
        assert!(progress.report.is_some());
        // The recovered cell's checkpoint matches a clean single-process run.
        let rdir = tmpdir("work-stale-ref");
        let rc = Campaign::create(&rdir, small_config(), grid(2)).unwrap();
        rc.run(&RunOptions::default(), resolve).unwrap();
        assert_eq!(
            fs::read(dir.join(REPORT_FILE)).unwrap(),
            fs::read(rdir.join(REPORT_FILE)).unwrap()
        );
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&rdir);
    }

    #[test]
    fn live_claims_are_honored_and_status_reports_them() {
        let dir = tmpdir("work-live");
        let c = Campaign::create(&dir, small_config(), grid(2)).unwrap();
        // Another (live) worker holds cell 0: fresh claim, long lease.
        fs::write(
            c.claim_path(0),
            serde_json::to_string_pretty(&WorkerClaim {
                cell: 0,
                fingerprint: c.manifest().fingerprint,
                worker: "peer".into(),
                pid: 42,
            })
            .unwrap(),
        )
        .unwrap();
        let progress = c
            .work(
                &WorkOptions {
                    worker: "polite".into(),
                    lease_secs: 3600,
                    wait: false, // don't poll for the peer
                    ..WorkOptions::default()
                },
                resolve,
            )
            .unwrap();
        assert_eq!(progress.ran, vec![(1, CellStatus::Completed)]);
        assert_eq!(progress.recovered, 0);
        assert_eq!(progress.outstanding, 1, "the claimed cell is still open");
        assert!(progress.report.is_none());

        // `status` surfaces the live claim and the per-cell states.
        let status = c.status().unwrap();
        assert_eq!(status.total, 2);
        assert_eq!(status.done, 1);
        assert_eq!(status.outstanding, 1);
        assert_eq!(status.claims.len(), 1);
        assert_eq!(status.claims[0].worker, "peer");
        assert_eq!(status.claims[0].pid, 42);
        assert_eq!(status.cells[0].state, "claimed");
        assert_eq!(status.cells[1].state, "completed");
        assert!(!status.report_written);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_surfaces_quarantined_cells_with_their_panics() {
        let dir = tmpdir("status-quarantine");
        let mut cells = grid(2);
        cells[0].fault = Some(CellFault {
            attempt: 0,
            panics: u32::MAX,
        });
        let c = Campaign::create(&dir, small_config(), cells).unwrap();
        c.run(&RunOptions::default(), resolve).unwrap();
        let status = c.status().unwrap();
        assert_eq!(status.quarantined, vec![0]);
        assert_eq!(status.cells[0].state, "failed");
        assert!(status.cells[0]
            .last_failure
            .as_deref()
            .unwrap()
            .contains("fault injection"));
        assert_eq!(status.completed, 1);
        assert!(status.report_written);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_claim_mtimes_are_lease_clamped_not_immortal() {
        use std::time::{Duration, SystemTime};
        let dir = tmpdir("future-claim");
        let c = Campaign::create(&dir, small_config(), grid(2)).unwrap();
        let lease = Duration::from_secs(3600);

        // Skew within one lease: reads fresh (age 0), honored like any
        // live claim.
        let path = c.claim_path(0);
        fs::write(&path, "{}").unwrap();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_modified(SystemTime::now() + lease / 2).unwrap();
        drop(f);
        assert_eq!(
            Campaign::claim_age(&path, lease).unwrap(),
            Some(Duration::ZERO)
        );

        // Skew beyond the lease: no live heartbeat can produce it, so it
        // reads stale immediately — before the fix this claim was
        // unstealable until the wall clock caught up to the mtime.
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_modified(SystemTime::now() + lease * 10).unwrap();
        drop(f);
        let age = Campaign::claim_age(&path, lease).unwrap().unwrap();
        assert!(age >= lease, "far-future mtime must read stale, got {age:?}");

        // And the worker loop actually recovers it.
        let progress = c
            .work(
                &WorkOptions {
                    worker: "thief".into(),
                    lease_secs: lease.as_secs(),
                    wait: false,
                    ..WorkOptions::default()
                },
                resolve,
            )
            .unwrap();
        assert_eq!(progress.ran.len(), 2);
        assert_eq!(progress.recovered, 1, "the garbage-mtime claim was stolen");
        assert!(progress.report.is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_refreshes_the_claim_and_respects_a_steal() {
        use std::time::{Duration, SystemTime};
        let dir = tmpdir("heartbeat");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("claim-0000.json");
        fs::write(&path, "{}").unwrap();
        // Age the file artificially so a refresh is observable.
        let old = SystemTime::now() - Duration::from_secs(500);
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_modified(old).unwrap();
        drop(f);

        let hb = ClaimHeartbeat::spawn(path.clone(), Duration::from_millis(5));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let age = Campaign::claim_age(&path, Duration::from_secs(3600))
                .unwrap()
                .unwrap();
            if age < Duration::from_secs(400) {
                break; // refreshed well past the artificial 500 s age
            }
            assert!(
                std::time::Instant::now() < deadline,
                "heartbeat never refreshed the claim (age {age:?})"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        // A thief renames the claim away: the heartbeat must not
        // resurrect the file.
        fs::remove_file(&path).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert!(!path.exists(), "heartbeat recreated a stolen claim");
        drop(hb); // prompt stop, no lingering touches
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_seeds_are_disjoint_from_the_standard_ladder() {
        // Attempts are u32 and attempt_seed(a) = a + 1 < 2^33; every retry
        // ladder lives in its own upper range.
        assert_eq!(retry_seed(0, 0), attempt_seed(0));
        assert_eq!(retry_seed(5, 0), attempt_seed(5));
        assert!(retry_seed(0, 1) > u64::from(u32::MAX));
        assert_ne!(retry_seed(3, 1), retry_seed(3, 2));
    }
}
