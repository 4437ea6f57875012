//! Bug reports and detection outcomes.

use serde::{Deserialize, Serialize};
use waffle_mem::{NullRefKind, ObjectId};
use waffle_sim::{MemoryModel, RunResult, SimTime, ThreadContext};
use waffle_telemetry::RunJournal;

/// A confirmed MemOrder bug, reported only after it manifested under
/// injected delays (zero false positives by construction, §6.4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BugReport {
    /// Workload (test input) that exposed the bug.
    pub workload: String,
    /// Bug class of the manifestation.
    pub kind: NullRefKind,
    /// Name of the faulting site.
    pub site: String,
    /// The object whose reference was NULL.
    pub obj: ObjectId,
    /// Virtual time of the fault within the exposing run.
    pub time: SimTime,
    /// Which run exposed it: 1 = first run (preparation for Waffle,
    /// detection run for online tools).
    pub exposed_in_run: u32,
    /// Total runs used including the preparation run, when one exists.
    pub total_runs: u32,
    /// Delays injected in the exposing run.
    pub delays_in_run: u64,
    /// Names of the sites delayed in the exposing run (deduplicated).
    pub delayed_sites: Vec<String>,
    /// Every thread's recent-access context at the manifestation (the §5
    /// "stack traces for all threads").
    pub thread_contexts: Vec<ThreadContext>,
    /// Memory model the detection runs simulated. Provenance: a `tso`/
    /// `pso` report is only reproducible under that model. Omitted from
    /// JSON under `Sc` so pre-weak-memory reports keep their bytes.
    #[serde(default, skip_serializing_if = "MemoryModel::is_sc")]
    pub memory_model: MemoryModel,
}

impl BugReport {
    /// Renders the report as a human-readable multi-line block (what the
    /// real tool writes to its bug-report file).
    pub fn render(&self, sites: &waffle_mem::SiteRegistry) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "MemOrder bug: {} at {}", self.kind.label(), self.site);
        if !self.memory_model.is_sc() {
            let _ = writeln!(out, "  memory model: {}", self.memory_model);
        }
        let _ = writeln!(
            out,
            "  workload {} | object {} | time {} | run {}/{}",
            self.workload, self.obj, self.time, self.exposed_in_run, self.total_runs
        );
        let _ = writeln!(
            out,
            "  {} delays in the exposing run at: {}",
            self.delays_in_run,
            self.delayed_sites.join(", ")
        );
        for ctx in &self.thread_contexts {
            let _ = writeln!(
                out,
                "  {} [{}]{}:",
                ctx.thread,
                ctx.script,
                if ctx.faulting { " <- faulted" } else { "" }
            );
            for op in &ctx.recent {
                let _ = writeln!(
                    out,
                    "    {} {} {} @ {}",
                    op.kind,
                    sites.name(op.site),
                    op.obj,
                    op.time
                );
            }
        }
        out
    }
}

/// A thread-safety violation exposed by the TSVD baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TsvReport {
    /// Workload (test input) that exposed the violation.
    pub workload: String,
    /// The earlier call's site name.
    pub first_site: String,
    /// The later (overlapping) call's site name.
    pub second_site: String,
    /// The shared object.
    pub obj: ObjectId,
    /// Virtual time of the overlap.
    pub time: SimTime,
    /// Run in which the overlap was forced.
    pub exposed_in_run: u32,
}

/// One run's summary statistics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RunSummary {
    /// End-to-end virtual time.
    pub time: SimTime,
    /// Delays injected.
    pub delays: u64,
    /// Cumulative injected delay.
    pub delay_total: SimTime,
    /// The §3.3 delay-overlap ratio.
    pub overlap_ratio: f64,
    /// Whether the run hit the deadline.
    pub timed_out: bool,
    /// Whether an unhandled NULL-reference exception occurred.
    pub manifested: bool,
    /// Instrumented accesses executed.
    pub instrumented_ops: u64,
}

impl RunSummary {
    /// Builds a summary from a raw run result.
    pub fn from_run(r: &RunResult) -> Self {
        Self {
            time: r.end_time,
            delays: r.delays.len() as u64,
            delay_total: r.total_delay(),
            overlap_ratio: r.delay_overlap_ratio(),
            timed_out: r.timed_out,
            manifested: r.manifested(),
            instrumented_ops: r.instrumented_ops,
        }
    }
}

/// The outcome of one full detection attempt on one workload.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DetectionOutcome {
    /// Workload name.
    pub workload: String,
    /// Uninstrumented ("base") end-to-end time of the input.
    pub base_time: SimTime,
    /// The preparation run, when the tool uses one.
    pub prep: Option<RunSummary>,
    /// Every detection run performed, in order.
    pub detection_runs: Vec<RunSummary>,
    /// The bug report, when a bug was exposed.
    pub exposed: Option<BugReport>,
    /// A manifestation that occurred with *no* delays injected in the run
    /// (spontaneous — not credited to the tool).
    pub spontaneous: bool,
    /// A thread-safety violation, when the tool is the TSVD baseline.
    pub tsv_exposed: Option<TsvReport>,
    /// Per-detection-run telemetry journals, parallel to
    /// `detection_runs` (empty for tools that are not telemetry-wired).
    pub telemetry: Vec<RunJournal>,
}

impl DetectionOutcome {
    /// Total runs used (preparation + detection).
    pub fn total_runs(&self) -> u32 {
        self.prep.iter().len() as u32 + self.detection_runs.len() as u32
    }

    /// End-to-end slowdown versus running the input once without
    /// instrumentation (the Table 4 metric): total time across all runs,
    /// divided by the base time.
    pub fn slowdown(&self) -> f64 {
        if self.base_time == SimTime::ZERO {
            return 0.0;
        }
        let total: SimTime = self
            .prep
            .iter()
            .map(|r| r.time)
            .chain(self.detection_runs.iter().map(|r| r.time))
            .sum();
        total.as_us() as f64 / self.base_time.as_us() as f64
    }

    /// Cumulative delays injected across all detection runs.
    pub fn total_delays(&self) -> u64 {
        self.detection_runs.iter().map(|r| r.delays).sum()
    }

    /// Cumulative injected delay duration across all detection runs.
    pub fn total_delay_duration(&self) -> SimTime {
        self.detection_runs.iter().map(|r| r.delay_total).sum()
    }

    /// Whether any detection run timed out.
    pub fn any_timeout(&self) -> bool {
        self.detection_runs.iter().any(|r| r.timed_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(time_us: u64, delays: u64) -> RunSummary {
        RunSummary {
            time: SimTime::from_us(time_us),
            delays,
            delay_total: SimTime::from_us(delays * 100),
            ..RunSummary::default()
        }
    }

    #[test]
    fn slowdown_is_total_over_base() {
        let o = DetectionOutcome {
            workload: "w".into(),
            base_time: SimTime::from_us(1_000),
            prep: Some(run(1_100, 0)),
            detection_runs: vec![run(1_400, 3)],
            ..DetectionOutcome::default()
        };
        assert!((o.slowdown() - 2.5).abs() < 1e-9);
        assert_eq!(o.total_runs(), 2);
        assert_eq!(o.total_delays(), 3);
        assert_eq!(o.total_delay_duration(), SimTime::from_us(300));
    }

    #[test]
    fn slowdown_handles_zero_base() {
        let o = DetectionOutcome::default();
        assert_eq!(o.slowdown(), 0.0);
        assert_eq!(o.total_runs(), 0);
    }

    fn report(model: MemoryModel) -> BugReport {
        BugReport {
            workload: "w".into(),
            kind: NullRefKind::UseAfterFree,
            site: "X.use:1".into(),
            obj: ObjectId(0),
            time: SimTime::from_us(5),
            exposed_in_run: 2,
            total_runs: 2,
            delays_in_run: 1,
            delayed_sites: vec!["X.use:1".into()],
            thread_contexts: vec![],
            memory_model: model,
        }
    }

    /// The rendered report names the memory model for weak-memory runs —
    /// without it a `tso` exposure is indistinguishable from an `sc` one
    /// in text output — while `Sc` renders and JSON bytes are unchanged
    /// from the pre-weak-memory layout.
    #[test]
    fn weak_memory_reports_render_their_model_and_sc_stays_byte_stable() {
        let sites = waffle_mem::SiteRegistry::default();
        let sc = report(MemoryModel::Sc);
        let tso = report(MemoryModel::Tso);
        let sc_text = sc.render(&sites);
        let tso_text = tso.render(&sites);
        assert!(sc_text.starts_with("MemOrder bug: use-after-free at X.use:1"));
        assert!(tso_text.starts_with("MemOrder bug: use-after-free at X.use:1"));
        assert!(!sc_text.contains("memory model"));
        assert!(tso_text.contains("memory model: tso"));

        let sc_json = serde_json::to_string(&sc).unwrap();
        assert!(!sc_json.contains("memory_model"), "{sc_json}");
        let tso_json = serde_json::to_string(&tso).unwrap();
        assert!(tso_json.contains("\"memory_model\""), "{tso_json}");
        // Round-trips, and a legacy report with no field reads back as Sc.
        let back: BugReport = serde_json::from_str(&tso_json).unwrap();
        assert_eq!(back.memory_model, MemoryModel::Tso);
        let legacy: BugReport = serde_json::from_str(&sc_json).unwrap();
        assert_eq!(legacy.memory_model, MemoryModel::Sc);
    }
}
