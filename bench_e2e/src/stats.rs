//! Sample summaries, metric records and the other small helpers every
//! workload shares.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `values` (0 when empty): the best time.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// A timing summary: the median and the highest standard percentile that
/// has at least ten samples beyond it, with the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median sample.
    pub median: f64,
    /// `(percentile, value)` of the highest percentile with ≥ 10 samples
    /// above it, if any.
    pub tail: Option<(f64, f64)>,
}

/// Percentiles the tail is chosen from, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Summarizes `values` (nearest-rank percentiles).
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let tail = TAILS.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
    });
    Summary {
        n,
        median: median(&v),
        tail,
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.6}", self.median)?;
        if let Some((p, v)) = self.tail {
            write!(f, ", p{p} {v:.6}")?;
        }
        write!(f, " (n={})", self.n)
    }
}

/// A metric computed from per-unit best (minimum) wall times over a fixed
/// number of repetitions of the same units.
///
/// The benchmark host alternates between a fast regime and one up to 1.7×
/// slower, in episodes from under a second to over a minute. A median over
/// repetitions measures how much of the run fell in the slow regime; the
/// per-unit minimum, summed over short units, measures the program. The
/// per-unit times are also emitted, so the runner can fold in the
/// repetitions of other processes (rounds) by the same rule. The number
/// of repetitions is fixed by the run's arguments, never by how fast the
/// program or the host runs, so every run's minimum is taken over the
/// same number of samples.
#[derive(Debug, Clone)]
pub struct BestMetric {
    /// Metric name.
    pub name: &'static str,
    /// Metric unit.
    pub unit: &'static str,
    /// Work per repetition: the value is `work / Σ best` when positive.
    pub work: f64,
    /// For a time metric (`work == 0`), the value is `scale × Σ best`.
    pub scale: f64,
    /// Per-unit best seconds.
    pub secs: Vec<f64>,
}

impl BestMetric {
    /// A rate: `work` per second of summed best unit times.
    pub fn rate(name: &'static str, unit: &'static str, work: f64) -> Self {
        Self {
            name,
            unit,
            work,
            scale: 0.0,
            secs: Vec::new(),
        }
    }

    /// A time: summed best unit seconds × `scale`.
    pub fn time(name: &'static str, unit: &'static str, scale: f64) -> Self {
        Self {
            name,
            unit,
            work: 0.0,
            scale,
            secs: Vec::new(),
        }
    }

    /// Folds in one repetition's per-unit times (same units, same order).
    pub fn add(&mut self, times: &[f64]) {
        if self.secs.is_empty() {
            self.secs = times.to_vec();
        } else {
            assert_eq!(
                self.secs.len(),
                times.len(),
                "repetitions time the same units"
            );
            for (b, &t) in self.secs.iter_mut().zip(times) {
                *b = b.min(t);
            }
        }
    }

    /// The metric's value.
    pub fn value(&self) -> f64 {
        let total: f64 = self.secs.iter().sum();
        if self.work > 0.0 {
            self.work / total
        } else {
            self.scale * total
        }
    }

    /// The value as a [`Metric`].
    pub fn to_metric(&self) -> Metric {
        metric(self.name, self.value(), self.unit)
    }
}

/// How many times a workload process repeats its timed operations and its
/// set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repeats {
    /// Timed repetitions of the workload's operations (at least 1).
    pub reps: usize,
    /// Timed set-ups (untraced runs only).
    pub setups: usize,
}

/// Times `f` `n` times; returns the wall seconds of each call.
pub fn time_each<R>(n: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let r = f();
            let s = t0.elapsed().as_secs_f64();
            drop(std::hint::black_box(r));
            s
        })
        .collect()
}

/// Whether `name` is a valid metric name: a letter or digit first, then
/// at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one workload process measured and checked.
#[derive(Debug, Clone, Default)]
pub struct PartResult {
    /// Workload name.
    pub part: &'static str,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// Operations attempted: detection attempts, fuzz cases or sessions.
    pub attempted: u64,
    /// Operations whose outputs failed a correctness check.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// FNV-1a digest of the deterministic outputs, hex.
    pub digest: String,
    /// Timing summaries printed for the reader, `(label, summary)`.
    pub timings: Vec<(String, Summary)>,
    /// Extra string fields for the runner (such as a report digest).
    pub extra: Vec<(&'static str, String)>,
    /// Metrics computed from per-unit best times (also in `metrics`).
    pub best: Vec<BestMetric>,
    /// Every set-up time of this process, seconds, so the runner can take
    /// the median over all of a run's processes.
    pub setups: Vec<f64>,
}

impl PartResult {
    /// Records a failed check (keeps the first few descriptions).
    pub fn fail(&mut self, ops: u64, what: impl Into<String>) {
        self.failed += ops;
        if self.failures.len() < 8 {
            self.failures.push(what.into());
        }
    }

    /// The result as one JSON line.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"part\": {}, \"attempted\": {}, \"failed\": {}",
            json_str(self.part),
            self.attempted,
            self.failed
        );
        let _ = write!(s, ", \"digest\": {}", json_str(&self.digest));
        s.push_str(", \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json_str(f));
        }
        s.push_str("], \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        s.push_str("}, \"best\": {");
        for (i, b) in self.best.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let secs: Vec<String> = b.secs.iter().map(|&v| json_num(v)).collect();
            let _ = write!(
                s,
                "{}: {{\"work\": {}, \"scale\": {}, \"secs\": [{}]}}",
                json_str(b.name),
                json_num(b.work),
                json_num(b.scale),
                secs.join(", ")
            );
        }
        s.push_str("}, \"setups\": [");
        let setups: Vec<String> = self.setups.iter().map(|&v| json_num(v)).collect();
        s.push_str(&setups.join(", "));
        s.push(']');
        for (k, v) in &self.extra {
            let _ = write!(s, ", {}: {}", json_str(k), json_str(v));
        }
        s.push('}');
        s
    }
}

/// A JSON number; non-finite values become 0 (and fail the runner's
/// positivity check instead of producing invalid JSON).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// 64-bit FNV-1a, for output digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Digest of `bytes` alone, hex.
    pub fn hex_of(bytes: &[u8]) -> String {
        let mut h = Fnv::default();
        h.write(bytes);
        h.hex()
    }

    /// The digest so far, hex.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set (VmHWM) of this process in MiB, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64 step: a seeded, dependency-free mixer for input generation.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Metric names `BENCHMARK.json` lists in `section` (`end_to_end` or
/// `per_layer`).
#[cfg(test)]
pub(crate) fn listed_metrics(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let bench: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    bench
        .get(section)
        .and_then(|v| v.as_seq())
        .expect("section is a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("metric has a name")
                .to_owned()
        })
        .collect()
}

/// Test helper: every metric of `r` is listed in `section`.
#[cfg(test)]
pub(crate) fn assert_listed(r: &PartResult, section: &str) {
    let listed = listed_metrics(section);
    for m in &r.metrics {
        assert!(
            listed.contains(&m.name),
            "{} reports unlisted metric {}",
            r.part,
            m.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listed_metric_names_are_valid_and_unique() {
        let mut all = listed_metrics("end_to_end");
        assert_eq!(all.len(), 10);
        all.extend(listed_metrics("per_layer"));
        assert!(all.iter().all(|n| valid_metric_name(n)), "{all:?}");
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "metric names are used once");
    }

    #[test]
    fn best_metrics_keep_the_per_unit_minimum() {
        let mut r = BestMetric::rate("r", "1/s", 8.0);
        r.add(&[3.0, 1.0, 2.0]);
        r.add(&[1.0, 2.0, 2.5]);
        assert_eq!(r.secs, vec![1.0, 1.0, 2.0]);
        assert_eq!(r.value(), 2.0);
        let mut t = BestMetric::time("t", "ms", 1e3);
        t.add(&[0.5]);
        t.add(&[0.25]);
        assert_eq!(t.value(), 250.0);
    }

    #[test]
    fn time_each_times_every_call() {
        let mut calls = 0;
        let t = time_each(4, || calls += 1);
        assert_eq!(calls, 4);
        assert_eq!(t.len(), 4);
        assert!(t.iter().all(|&s| s >= 0.0));
        assert!(time_each(0, || ()).is_empty());
    }

    #[test]
    fn median_and_best_handle_odd_even_and_empty() {
        assert_eq!(best(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(best(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: even p75 leaves only 4 beyond it.
        assert_eq!(summarize(&v(19)).tail, None);
        // 40 samples: p75 is rank 30, 10 beyond.
        assert_eq!(summarize(&v(40)).tail, Some((75.0, 30.0)));
        // 100 samples: p90 (rank 90) has 10 beyond, p95 only 5.
        assert_eq!(summarize(&v(100)).tail, Some((90.0, 90.0)));
        // 1000 samples: p99 (rank 990) has 10 beyond.
        let s = summarize(&v(1000));
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn metric_name_rule_accepts_and_rejects() {
        for ok in ["setup_s", "core.detect_ns.waffle.sc", "a-b", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_line_escapes_and_lists_metrics() {
        let mut b = BestMetric::time("finish_ms", "ms", 1e3);
        b.add(&[0.0015]);
        let mut r = PartResult {
            part: "serve",
            metrics: vec![b.to_metric()],
            digest: "00".into(),
            best: vec![b],
            setups: vec![0.25, 0.5],
            ..PartResult::default()
        };
        r.fail(2, "bad \"quote\"");
        let j = r.to_json();
        assert!(j.contains("\"failed\": 2"), "{j}");
        assert!(j.contains("\\\"quote\\\""), "{j}");
        assert!(
            j.contains("\"finish_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"),
            "{j}"
        );
        assert!(
            j.contains(
                "\"best\": {\"finish_ms\": {\"work\": 0.0, \"scale\": 1000.0, \"secs\": [0.0015]}}"
            ),
            "{j}"
        );
        assert!(j.contains("\"setups\": [0.25, 0.5]"), "{j}");
    }
}
