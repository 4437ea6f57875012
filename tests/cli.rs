//! Smoke tests for the `waffle` command-line front end.

use std::process::Command;

fn waffle(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_waffle"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn list_names_all_apps_and_bug_tags() {
    let out = waffle(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for app in ["ApplicationInsights", "NetMQ", "NpgSQL", "SSH.Net"] {
        assert!(text.contains(app), "missing {app}");
    }
    assert!(text.contains("[Bug-11]"));
}

#[test]
fn closed_stdout_ends_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // `waffle list | head -1`: read one line, then close the pipe while
    // the program is still writing.
    let mut child = Command::new(env!("CARGO_BIN_EXE_waffle"))
        .arg("list")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    assert!(!first.is_empty());
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "status {:?}, stderr: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn bugs_lists_all_eighteen() {
    let out = waffle(&["bugs"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 18);
    assert!(text.contains("Bug-18"));
}

#[test]
fn detect_exposes_a_seeded_bug_with_json_output() {
    let out = waffle(&[
        "detect",
        "SshNet.channel_disconnect",
        "--tool",
        "waffle",
        "--json",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
    assert_eq!(v["exposed"]["site"], "Channel.OnData:94");
    assert_eq!(v["exposed"]["total_runs"], 2);
}

#[test]
fn step_workflow_persists_and_resumes() {
    let dir = std::env::temp_dir().join(format!("waffle-cli-step-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().to_string();
    // Step 1: preparation.
    let out = waffle(&["step", "SshNet.channel_disconnect", "--session", &dir_s]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("preparation run complete"));
    assert!(dir.join("plan.json").exists());
    // Step 2: detection (a new "process") exposes the bug and writes the
    // report file.
    let out = waffle(&[
        "step",
        "SshNet.channel_disconnect",
        "--session",
        &dir_s,
        "--seed",
        "2",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("use-after-free"));
    assert!(dir.join("bug-001.txt").exists());
    assert!(dir.join("decay.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `detect --telemetry` writes a per-attempt journal whose counters
/// reconcile exactly with the outcome's run summaries, and `stats`
/// aggregates the directory.
#[test]
fn telemetry_journal_reconciles_with_outcome_and_stats_reads_it() {
    let dir = std::env::temp_dir().join(format!("waffle-cli-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().to_string();
    let out = waffle(&[
        "detect",
        "SshNet.channel_disconnect",
        "--telemetry",
        &dir_s,
        "--json",
    ]);
    assert!(out.status.success());
    let outcome: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid json");

    let journal_path = dir.join("SshNet.channel_disconnect-waffle-attempt-1.json");
    let journal: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&journal_path).unwrap()).unwrap();
    let runs = journal["runs"].as_seq().expect("runs array");
    let detection_runs = outcome["detection_runs"].as_seq().unwrap();
    assert_eq!(runs.len(), detection_runs.len(), "one journal per run");
    let sum = |field: &str| -> u64 {
        runs.iter()
            .map(|r| r["counters"][field].as_u64().unwrap())
            .sum()
    };
    let outcome_sum = |field: &str| -> u64 {
        detection_runs
            .iter()
            .map(|r| r[field].as_u64().unwrap())
            .sum()
    };
    assert_eq!(sum("injected"), outcome_sum("delays"));
    assert_eq!(sum("instrumented_ops"), outcome_sum("instrumented_ops"));
    assert!(
        runs.iter().any(|r| !r["events"].as_seq().unwrap().is_empty()),
        "--telemetry records per-decision events"
    );

    let out = waffle(&["stats", &dir_s]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total/injected"));
    assert!(text.contains("SshNet.channel_disconnect/waffle/injected"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_inputs_fail_cleanly() {
    let out = waffle(&["detect", "No.such_test"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown test"));
    let out = waffle(&["frobnicate"]);
    assert!(!out.status.success());
}

#[test]
fn analyze_rejects_unknown_test() {
    let out = waffle(&["analyze", "No.such_test"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown test"));
}

/// Bound 0 means no access can ever be reordered, so every verdict would
/// be vacuous — the CLI refuses it with an explanation instead of
/// silently reporting "no bugs".
#[test]
fn fuzz_rejects_a_meaningless_preemption_bound() {
    let out = waffle(&["fuzz", "--preemption-bound", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("--preemption-bound must be at least 1"));
}

/// A small fuzz sweep succeeds end-to-end and emits parseable JSON with
/// the aggregate counters.
#[test]
fn fuzz_smoke_emits_json_report() {
    let out = waffle(&["fuzz", "--seeds", "4", "--jobs", "2", "--json"]);
    assert!(
        out.status.success(),
        "fuzz failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid json");
    assert_eq!(v["seeds"], 4);
    assert_eq!(v["disagreements"].as_seq().map(|d| d.len()), Some(0));
    assert_eq!(v["metrics"]["counters"]["fuzz/workloads"], 4);
}

/// `analyze --spill` streams the analysis out-of-core from the on-disk
/// segment file it writes, and the `--json` output (index shape + plans)
/// is byte-identical to the in-memory path even at a 1 MiB budget.
#[test]
fn analyze_spill_matches_the_in_memory_json() {
    let dir = std::env::temp_dir().join(format!("waffle-cli-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().to_string();
    let mem = waffle(&["analyze", "SshNet.channel_disconnect", "--json"]);
    assert!(mem.status.success());
    let ooc = waffle(&[
        "analyze",
        "SshNet.channel_disconnect",
        "--json",
        "--spill",
        &dir_s,
        "--budget-mb",
        "1",
    ]);
    assert!(
        ooc.status.success(),
        "spill analyze failed:\n{}",
        String::from_utf8_lossy(&ooc.stderr)
    );
    assert_eq!(mem.stdout, ooc.stdout, "out-of-core plans must match in-memory");
    assert!(dir.join("SshNet.channel_disconnect.seg").exists());
    // --budget-mb without --spill is meaningless and refused.
    let out = waffle(&["analyze", "SshNet.channel_disconnect", "--budget-mb", "1"]);
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `campaign work` drains cells through the coordinator-free claim
/// protocol, and `campaign status --json` surfaces per-cell state, live
/// claims and quarantine machine-readably at every stage.
#[test]
fn campaign_work_and_status_json_track_the_claim_protocol() {
    let dir = std::env::temp_dir().join(format!("waffle-cli-work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().to_string();
    let out = waffle(&[
        "campaign",
        "init",
        &dir_s,
        "--tests",
        "SshNet.channel_disconnect,ApplicationInsights.telemetry_pool",
        "--attempts",
        "1",
        "--max-runs",
        "4",
    ]);
    assert!(out.status.success());

    let status_json = || -> serde_json::Value {
        let out = waffle(&["campaign", "status", &dir_s, "--json"]);
        assert!(out.status.success());
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid status json")
    };
    let v = status_json();
    assert_eq!(v["total"], 2);
    assert_eq!(v["outstanding"], 2);
    assert_eq!(v["report_written"], false);
    assert_eq!(v["cells"].as_seq().unwrap().len(), 2);
    assert_eq!(v["cells"][0]["state"], "outstanding");

    // Worker 1 takes exactly one cell and stops.
    let out = waffle(&[
        "campaign", "work", &dir_s, "--worker", "w1", "--max-cells", "1",
    ]);
    assert!(
        out.status.success(),
        "work failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("cell [0000]"));
    let v = status_json();
    assert_eq!(v["done"], 1);
    assert_eq!(v["cells"][0]["state"], "completed");
    assert_eq!(v["claims"].as_seq().map(|c| c.len()), Some(0), "claim released");
    assert_eq!(v["quarantined"].as_seq().map(|q| q.len()), Some(0));

    // Worker 2 finishes the grid and assembles the report.
    let out = waffle(&["campaign", "work", &dir_s, "--worker", "w2", "--json"]);
    assert!(out.status.success());
    let report: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid report json");
    assert_eq!(report["cells"].as_seq().map(|c| c.len()), Some(2));
    let v = status_json();
    assert_eq!(v["done"], 2);
    assert_eq!(v["outstanding"], 0);
    assert_eq!(v["report_written"], true);
    assert!(dir.join("report.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-running a campaign over existing checkpoints without an explicit
/// `--resume`/`--fresh` decision refuses rather than clobbering them.
#[test]
fn campaign_bare_rerun_refuses_existing_checkpoints() {
    let dir = std::env::temp_dir().join(format!("waffle-cli-rerun-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().to_string();
    let out = waffle(&[
        "campaign",
        "init",
        &dir_s,
        "--tests",
        "SshNet.channel_disconnect",
        "--attempts",
        "1",
        "--max-runs",
        "4",
    ]);
    assert!(out.status.success());
    let out = waffle(&["campaign", "run", &dir_s, "--max-cells", "1"]);
    assert!(out.status.success());
    let out = waffle(&["campaign", "run", &dir_s]);
    assert!(!out.status.success(), "bare rerun must refuse");
    assert!(String::from_utf8_lossy(&out.stderr).contains("pass --resume"));
    let _ = std::fs::remove_dir_all(&dir);
}
