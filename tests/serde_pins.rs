//! Byte pins for the five persisted formats that omit a field at its
//! default: `Plan`, `BugReport`, `CaseReport`, `FuzzReport` and
//! `CorpusCase`.
//!
//! Each type is pinned in both branches: the key is absent under `Sc` /
//! `None`, and present in its fixed position under `Tso` / `Some`. JSON
//! without the key (every file written before weak memory or repair)
//! reads back as the default, and the checked-in corpus files re-save to
//! their exact bytes. A reordered, renamed or always-emitted key fails
//! here even when two runs of the same build agree with each other.

use std::collections::BTreeMap;
use std::path::PathBuf;

use waffle_repro::analysis::candidates::NearMissStats;
use waffle_repro::analysis::{InterferenceSet, Plan, RepairReport};
use waffle_repro::core::BugReport;
use waffle_repro::fuzz::harness::OracleSummary;
use waffle_repro::fuzz::{CaseReport, CorpusCase, FuzzReport, GroundTruth};
use waffle_repro::mem::{NullRefKind, ObjectId};
use waffle_repro::sim::{MemoryModel, SimTime};
use waffle_repro::telemetry::MetricsRegistry;

/// One type's pin: its serialization in both branches, the bytes each
/// must equal, and a re-reader that parses JSON back, re-serializes it
/// and says whether the optional field came back at its default.
struct Pin {
    ty: &'static str,
    default: String,
    set: String,
    expected_default: String,
    expected_set: String,
    reread: fn(&str) -> (String, bool),
}

fn plan(memory_model: MemoryModel) -> Plan {
    Plan {
        workload: "w".into(),
        candidates: vec![],
        delay_len: BTreeMap::new(),
        interference: InterferenceSet::new(),
        delta: SimTime::from_ms(100),
        stats: NearMissStats::default(),
        memory_model,
    }
}

fn bug_report(memory_model: MemoryModel) -> BugReport {
    BugReport {
        workload: "w".into(),
        kind: NullRefKind::UseAfterFree,
        site: "X.use:1".into(),
        obj: ObjectId(3),
        time: SimTime::from_us(5),
        exposed_in_run: 2,
        total_runs: 4,
        delays_in_run: 1,
        delayed_sites: vec!["X.use:1".into()],
        thread_contexts: vec![],
        memory_model,
    }
}

fn case_report(repair: Option<RepairReport>) -> CaseReport {
    CaseReport {
        seed: 7,
        name: "fuzz.s7".into(),
        truth: GroundTruth::Control,
        oracle: OracleSummary {
            exposable: false,
            kind: None,
            truncated: false,
            states: 12,
            sleep_prunes: 1,
            memo_hits: 2,
        },
        tools: vec![],
        run_count_anomaly: false,
        disagreements: vec![],
        repair,
    }
}

fn repair_report() -> RepairReport {
    RepairReport {
        workload: "fuzz.s7".into(),
        kind: NullRefKind::UseBeforeInit,
        obj: ObjectId(1),
        memory_model: MemoryModel::Sc,
        preemption_bound: 2,
        candidates_tried: 3,
        patch: None,
        description: None,
        certified_states: 0,
    }
}

fn fuzz_report(memory: MemoryModel) -> FuzzReport {
    let mut metrics = MetricsRegistry::new();
    metrics.inc("fuzz/cases", 1);
    FuzzReport {
        seed_base: 1,
        seeds: 1,
        preemption_bound: 2,
        max_detection_runs: 16,
        memory,
        cases: vec![],
        disagreements: vec![],
        metrics,
    }
}

fn corpus_text(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn pins() -> Vec<Pin> {
    let corpus_sc = corpus_text("s113-false-negative.json");
    let mut corpus_tso = CorpusCase::from_json(&corpus_sc).unwrap();
    corpus_tso.memory = MemoryModel::Tso;
    vec![
        Pin {
            ty: "Plan",
            default: plan(MemoryModel::Sc).to_json().unwrap(),
            set: plan(MemoryModel::Tso).to_json().unwrap(),
            expected_default: PLAN_SC.into(),
            expected_set: PLAN_TSO.into(),
            reread: |s| {
                let p = Plan::from_json(s).unwrap();
                (p.to_json().unwrap(), p.memory_model.is_sc())
            },
        },
        Pin {
            ty: "BugReport",
            default: serde_json::to_string(&bug_report(MemoryModel::Sc)).unwrap(),
            set: serde_json::to_string(&bug_report(MemoryModel::Tso)).unwrap(),
            expected_default: BUG_SC.into(),
            expected_set: BUG_TSO.into(),
            reread: |s| {
                let r: BugReport = serde_json::from_str(s).unwrap();
                (serde_json::to_string(&r).unwrap(), r.memory_model.is_sc())
            },
        },
        Pin {
            ty: "CaseReport",
            default: serde_json::to_string(&case_report(None)).unwrap(),
            set: serde_json::to_string(&case_report(Some(repair_report()))).unwrap(),
            expected_default: CASE_NONE.into(),
            expected_set: CASE_SOME.into(),
            reread: |s| {
                let c: CaseReport = serde_json::from_str(s).unwrap();
                (serde_json::to_string(&c).unwrap(), c.repair.is_none())
            },
        },
        Pin {
            ty: "FuzzReport",
            default: serde_json::to_string(&fuzz_report(MemoryModel::Sc)).unwrap(),
            set: serde_json::to_string(&fuzz_report(MemoryModel::Tso)).unwrap(),
            expected_default: FUZZ_SC.into(),
            expected_set: FUZZ_TSO.into(),
            reread: |s| {
                let r: FuzzReport = serde_json::from_str(s).unwrap();
                (serde_json::to_string(&r).unwrap(), r.memory.is_sc())
            },
        },
        Pin {
            ty: "CorpusCase",
            default: CorpusCase::from_json(&corpus_sc)
                .unwrap()
                .to_json()
                .unwrap(),
            set: corpus_tso.to_json().unwrap(),
            // `memory` sits between `preemption_bound` and `case`.
            expected_set: corpus_sc.replacen(
                "\n  \"case\": {",
                "\n  \"memory\": \"Tso\",\n  \"case\": {",
                1,
            ),
            expected_default: corpus_sc,
            reread: |s| {
                let c = CorpusCase::from_json(s).unwrap();
                (c.to_json().unwrap(), c.memory.is_sc())
            },
        },
    ]
}

const PLAN_SC: &str = concat!(
    r#"{"workload":"w","candidates":[],"delay_len":{},"interference":{"pairs":[]},"#,
    r#""delta":100000,"stats":{"window_pairs":0,"examined":0,"pruned_ordered":0,"admitted":0}}"#,
);
const PLAN_TSO: &str = concat!(
    r#"{"workload":"w","candidates":[],"delay_len":{},"interference":{"pairs":[]},"#,
    r#""delta":100000,"stats":{"window_pairs":0,"examined":0,"pruned_ordered":0,"admitted":0},"#,
    r#""memory_model":"Tso"}"#,
);
const BUG_SC: &str = concat!(
    r#"{"workload":"w","kind":"UseAfterFree","site":"X.use:1","obj":3,"time":5,"#,
    r#""exposed_in_run":2,"total_runs":4,"delays_in_run":1,"delayed_sites":["X.use:1"],"#,
    r#""thread_contexts":[]}"#,
);
const BUG_TSO: &str = concat!(
    r#"{"workload":"w","kind":"UseAfterFree","site":"X.use:1","obj":3,"time":5,"#,
    r#""exposed_in_run":2,"total_runs":4,"delays_in_run":1,"delayed_sites":["X.use:1"],"#,
    r#""thread_contexts":[],"memory_model":"Tso"}"#,
);
const CASE_NONE: &str = concat!(
    r#"{"seed":7,"name":"fuzz.s7","truth":"Control","#,
    r#""oracle":{"exposable":false,"kind":null,"truncated":false,"states":12,"sleep_prunes":1,"memo_hits":2},"#,
    r#""tools":[],"run_count_anomaly":false,"disagreements":[]}"#,
);
const CASE_SOME: &str = concat!(
    r#"{"seed":7,"name":"fuzz.s7","truth":"Control","#,
    r#""oracle":{"exposable":false,"kind":null,"truncated":false,"states":12,"sleep_prunes":1,"memo_hits":2},"#,
    r#""tools":[],"run_count_anomaly":false,"disagreements":[],"#,
    r#""repair":{"workload":"fuzz.s7","kind":"UseBeforeInit","obj":1,"memory_model":"Sc","#,
    r#""preemption_bound":2,"candidates_tried":3,"patch":null,"description":null,"certified_states":0}}"#,
);
const FUZZ_SC: &str = concat!(
    r#"{"seed_base":1,"seeds":1,"preemption_bound":2,"max_detection_runs":16,"#,
    r#""cases":[],"disagreements":[],"metrics":{"counters":{"fuzz/cases":1},"histograms":{}}}"#,
);
const FUZZ_TSO: &str = concat!(
    r#"{"seed_base":1,"seeds":1,"preemption_bound":2,"max_detection_runs":16,"memory":"Tso","#,
    r#""cases":[],"disagreements":[],"metrics":{"counters":{"fuzz/cases":1},"histograms":{}}}"#,
);

#[test]
fn persisted_formats_keep_their_bytes_in_both_branches() {
    for p in pins() {
        assert_ne!(
            p.expected_default, p.expected_set,
            "{}: branches differ",
            p.ty
        );
        assert_eq!(
            p.default, p.expected_default,
            "{}: default-branch bytes",
            p.ty
        );
        assert_eq!(p.set, p.expected_set, "{}: set-branch bytes", p.ty);
        let (again, at_default) = (p.reread)(&p.expected_default);
        assert!(
            at_default,
            "{}: JSON without the key reads back as the default",
            p.ty
        );
        assert_eq!(
            again, p.expected_default,
            "{}: default branch re-saves",
            p.ty
        );
        let (again, at_default) = (p.reread)(&p.expected_set);
        assert!(!at_default, "{}: the key reads back", p.ty);
        assert_eq!(again, p.expected_set, "{}: set branch re-saves", p.ty);
    }
}

#[test]
fn corpus_files_resave_to_their_exact_bytes() {
    for file in ["s113-false-negative.json", "s192-false-negative.json"] {
        let text = corpus_text(file);
        let case = CorpusCase::from_json(&text).unwrap();
        assert!(case.memory.is_sc(), "{file}");
        assert_eq!(case.to_json().unwrap(), text, "{file}");
    }
}
