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

/// How one flag takes its value, as far as the error texts go.
#[derive(Clone, Copy)]
enum Takes {
    /// A switch: no value.
    Switch,
    /// A number: a missing one "needs a value", `x` does not parse.
    Num,
    /// A number that must be at least 1.
    Count,
    /// A number that must be at least 1, refused with this reason.
    CountBecause(&'static str),
    /// Free text such as a path, described by this noun when missing.
    Text(&'static str),
    /// One of a fixed set: the noun when missing, and the error for `x`.
    Choice(&'static str, &'static str),
}

use Takes::*;

/// One subcommand: its words, the positional arguments placed before the
/// flags (flags are parsed before any input is looked up, so these need
/// not exist), the prefix of its "unknown option" error, and its flags.
struct Surface {
    cmd: &'static str,
    pos: &'static [&'static str],
    unknown: &'static str,
    flags: &'static [(&'static str, Takes)],
}

const TOOL: Takes = Choice("a value", "unknown tool x");
const MODEL: Takes = Choice("a value", "--memory-model: unknown model x (sc|tso|pso)");
const DETECT_FLAGS: &[(&str, Takes)] = &[
    ("--tool", TOOL),
    ("--max-runs", Num),
    ("--seed", Num),
    ("--attempts", Count),
    ("--jobs", Count),
    ("--session", Text("a value")),
    ("--telemetry", Text("a value")),
    ("--memory-model", MODEL),
    ("--json", Switch),
];

/// Every subcommand and every flag it accepts.
const SURFACES: &[Surface] = &[
    Surface {
        cmd: "list",
        pos: &[],
        unknown: "list: ",
        flags: &[],
    },
    Surface {
        cmd: "bugs",
        pos: &[],
        unknown: "bugs: ",
        flags: &[],
    },
    Surface {
        cmd: "analyze",
        pos: &["T"],
        unknown: "analyze: ",
        flags: &[
            ("--jobs", Count),
            ("--seed", Num),
            ("--stats", Switch),
            ("--json", Switch),
            ("--plan-only", Switch),
            ("--spill", Text("a directory")),
            ("--budget-mb", Count),
            ("--memory-model", MODEL),
        ],
    },
    Surface {
        cmd: "serve",
        pos: &[],
        unknown: "serve: ",
        flags: &[
            ("--socket", Text("a path")),
            ("--dir", Text("a directory")),
            ("--seal-events", Count),
            ("--queue-events", Count),
            (
                "--policy",
                Choice("block|shed", "--policy: unknown policy x"),
            ),
            ("--jobs", Count),
            ("--max-sessions", Num),
            ("--json", Switch),
        ],
    },
    Surface {
        cmd: "ingest",
        pos: &[],
        unknown: "ingest: ",
        flags: &[
            ("--socket", Text("a path")),
            ("--test", Text("a test name")),
            ("--batch", Count),
            ("--seed", Num),
        ],
    },
    Surface {
        cmd: "detect",
        pos: &["T"],
        unknown: "",
        flags: DETECT_FLAGS,
    },
    Surface {
        cmd: "step",
        pos: &["T"],
        unknown: "",
        flags: &[
            ("--tool", TOOL),
            ("--seed", Num),
            ("--session", Text("a value")),
            ("--memory-model", MODEL),
            ("--json", Switch),
        ],
    },
    Surface {
        cmd: "scan",
        pos: &["A"],
        unknown: "",
        flags: DETECT_FLAGS,
    },
    Surface {
        cmd: "report",
        pos: &["1"],
        unknown: "",
        flags: DETECT_FLAGS,
    },
    Surface {
        cmd: "dot",
        pos: &["T"],
        unknown: "dot: ",
        flags: &[],
    },
    Surface {
        cmd: "stats",
        pos: &["D"],
        unknown: "stats: ",
        flags: &[("--json", Switch)],
    },
    Surface {
        cmd: "campaign init",
        pos: &["D"],
        unknown: "campaign init: ",
        flags: &[
            ("--tests", Text("a comma-separated list")),
            ("--app", Text("a value")),
            ("--tools", Text("a comma-separated list")),
            ("--attempts", Num),
            ("--max-runs", Num),
            ("--retries", Num),
        ],
    },
    Surface {
        cmd: "campaign run",
        pos: &["D"],
        unknown: "campaign run: ",
        flags: &[
            ("--jobs", Count),
            ("--resume", Switch),
            ("--fresh", Switch),
            ("--max-cells", Num),
            ("--json", Switch),
        ],
    },
    Surface {
        cmd: "campaign work",
        pos: &["D"],
        unknown: "campaign work: ",
        flags: &[
            ("--worker", Text("a name")),
            ("--lease-secs", Num),
            ("--max-cells", Num),
            ("--poll-ms", Num),
            ("--no-wait", Switch),
            ("--json", Switch),
        ],
    },
    Surface {
        cmd: "campaign status",
        pos: &["D"],
        unknown: "campaign status: ",
        flags: &[("--json", Switch)],
    },
    Surface {
        cmd: "bench",
        pos: &[],
        unknown: "bench: ",
        flags: &[("--all", Switch), ("--out", Text("a directory"))],
    },
    Surface {
        cmd: "fuzz",
        pos: &[],
        unknown: "fuzz: ",
        flags: &[
            ("--seeds", Num),
            ("--seed-base", Num),
            ("--jobs", Count),
            (
                "--preemption-bound",
                CountBecause(
                    ": at bound 0 no access can be reordered, so every planted bug is \
                     vacuously unexposable",
                ),
            ),
            ("--max-runs", Num),
            ("--corpus", Text("a value")),
            ("--memory-model", MODEL),
            ("--no-reduction", Switch),
            ("--repair", Switch),
            ("--json", Switch),
        ],
    },
    Surface {
        cmd: "fix",
        pos: &[],
        unknown: "fix: ",
        flags: &[
            ("--memory-model", MODEL),
            ("--preemption-bound", Num),
            ("--seed", Num),
            ("--json", Switch),
        ],
    },
];

/// Runs `waffle <cmd> <pos> <tail>` and asserts it fails with exactly
/// `waffle: <want>` on stderr.
fn assert_refused(s: &Surface, tail: &[&str], want: &str) {
    let mut args: Vec<&str> = s.cmd.split(' ').collect();
    args.extend_from_slice(s.pos);
    args.extend_from_slice(tail);
    let out = waffle(&args);
    assert!(
        !out.status.success(),
        "`waffle {}` succeeded",
        args.join(" ")
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!("waffle: {want}\n"),
        "`waffle {}`",
        args.join(" ")
    );
}

/// Every value flag of every subcommand is refused with its exact text
/// when the value is missing or does not parse, every counted flag
/// refuses 0, and an unknown option names the subcommand (detect, scan,
/// report and step print it bare).
#[test]
fn flag_errors_are_pinned_for_every_subcommand() {
    for s in SURFACES {
        for &(flag, takes) in s.flags {
            let needs = match takes {
                Switch => continue,
                Num | Count | CountBecause(_) => "a value",
                Text(noun) | Choice(noun, _) => noun,
            };
            assert_refused(s, &[flag], &format!("{flag} needs {needs}"));
            let unparseable = match takes {
                Choice(_, error) => Some(error.to_owned()),
                Text(_) => None,
                _ => Some(format!("{flag}: invalid digit found in string")),
            };
            if let Some(error) = unparseable {
                assert_refused(s, &[flag, "x"], &error);
            }
            let why = match takes {
                Count => "",
                CountBecause(why) => why,
                _ => continue,
            };
            assert_refused(s, &[flag, "0"], &format!("{flag} must be at least 1{why}"));
        }
        if !s.flags.is_empty() && !matches!(s.cmd, "stats" | "campaign status") {
            assert_refused(
                s,
                &["--bogus"],
                &format!("{}unknown option --bogus", s.unknown),
            );
        }
    }
}

/// `waffle help` documents every subcommand in a block of its own: the
/// block opens with a line holding the subcommand's words and lists
/// every flag the subcommand accepts as `[--flag …]`. A bare `waffle`
/// names every command in its usage line.
#[test]
fn help_names_every_subcommand_and_flag() {
    let out = waffle(&["help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = help.lines().collect();
    let opens_block = |l: &str| l.starts_with("  ") && !l.starts_with("   ");
    for s in SURFACES {
        let start = lines
            .iter()
            .position(|l| {
                opens_block(l)
                    && l.trim_start()
                        .strip_prefix(s.cmd)
                        .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
            })
            .unwrap_or_else(|| panic!("help has no entry for {}:\n{help}", s.cmd));
        let block: Vec<&str> = lines[start + 1..]
            .iter()
            .take_while(|l| !opens_block(l))
            .copied()
            .collect();
        let listed: Vec<&str> = block
            .iter()
            .flat_map(|l| l.split_whitespace())
            .filter_map(|t| t.strip_prefix('['))
            .map(|t| t.trim_end_matches(']'))
            .collect();
        for (flag, _) in s.flags {
            assert!(
                listed.contains(flag),
                "help for {} does not list {flag}:\n{help}",
                s.cmd
            );
        }
    }

    let out = waffle(&[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let names = stderr
        .split_once('<')
        .and_then(|(_, rest)| rest.split_once('>'))
        .map(|(names, _)| names.split('|').collect::<Vec<_>>())
        .unwrap_or_else(|| panic!("no command list in the usage line: {stderr}"));
    for s in SURFACES {
        let top = s.cmd.split(' ').next().unwrap();
        assert!(names.contains(&top), "usage line lacks {top}: {stderr}");
    }
}

/// Each subcommand accepts exactly the flags it reads: `step` has no use
/// for the detection budget, attempts, workers or journals, and `stats`,
/// `campaign status` and the flagless commands refuse whatever they do
/// not know instead of ignoring it.
#[test]
fn subcommands_refuse_flags_they_do_not_read() {
    let step = SURFACES.iter().find(|s| s.cmd == "step").unwrap();
    for flag in ["--max-runs", "--attempts", "--jobs", "--telemetry"] {
        assert_refused(step, &[flag, "2"], &format!("unknown option {flag}"));
    }
    for s in SURFACES {
        if matches!(s.cmd, "stats" | "campaign status" | "list" | "bugs" | "dot") {
            assert_refused(
                s,
                &["--bogus"],
                &format!("{}unknown option --bogus", s.unknown),
            );
        }
    }
}
