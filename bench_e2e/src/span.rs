//! Wall-clock spans recorded by the benchmark around its calls into the
//! program's layers.
//!
//! Every span but the root has a parent, and the spans of one detection
//! attempt, fuzz case or serve session share an operation id. A span's
//! *self time* is its duration minus the part of that interval its
//! children cover, so per-layer self times add up to the traced wall time.
//! Spans named [`PASS`] or [`OP`] are structure, not layers: their self
//! time is the part of the run that no layer span covers.

use std::collections::BTreeMap;
use std::time::Instant;

/// Root span of one traced pass over a workload's inputs.
pub const PASS: &str = "pass";
/// Span of one operation: a detection attempt, a fuzz case or a session.
pub const OP: &str = "op";

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, such as `analysis.analyze`.
    pub name: &'static str,
    /// Operation id shared by the spans of one operation.
    pub op: u64,
    /// Index of the parent span; `None` only for the root.
    pub parent: Option<usize>,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin (`u64::MAX` while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. A disabled tracer records nothing, so the
/// same replica code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A tracer that records only when `enabled`.
    pub fn with_enabled(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX - 1)
    }

    /// Opens a span and returns its index (0 when disabled).
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: u64::MAX,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id` returned by [`open`](Self::open).
    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, in span order: its duration minus the union
/// of its children's intervals (children may overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// The checks every recorded pass must meet: exactly one root, every
/// other span parented to an earlier span and nested inside it, every
/// span closed.
pub fn check_structure(spans: &[Span]) -> Result<(), String> {
    let roots = spans.iter().filter(|s| s.parent.is_none()).count();
    if roots != 1 {
        return Err(format!("{roots} root spans, want 1"));
    }
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns == u64::MAX {
            return Err(format!("span {i} ({}) never closed", s.name));
        }
        if let Some(p) = s.parent {
            let ps = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or(format!("span {i} has bad parent {p}"))?;
            if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                return Err(format!("span {i} ({}) escapes its parent", s.name));
            }
        }
    }
    Ok(())
}

/// Per-layer self times of one traced pass, plus the time no layer covers.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Self ns per layer span name (structure spans excluded).
    pub layers: BTreeMap<&'static str, u64>,
    /// Wall ns of the root span.
    pub wall_ns: u64,
    /// Self ns of the structure spans: time no layer span covers.
    pub unattributed_ns: u64,
}

impl LayerTimes {
    /// Splits a pass's self times into layers and unattributed time.
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut out = LayerTimes {
            wall_ns: spans
                .iter()
                .find(|s| s.parent.is_none())
                .map_or(0, Span::dur_ns),
            ..Self::default()
        };
        for (name, t) in self_time_by_name(spans) {
            if name == PASS || name == OP {
                out.unattributed_ns += t;
            } else {
                out.layers.insert(name, t);
            }
        }
        out
    }

    /// Self ns of one layer (0 when it never ran).
    pub fn ns(&self, name: &str) -> u64 {
        self.layers.get(name).copied().unwrap_or(0)
    }

    /// Share of the wall time that layer spans cover.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        1.0 - self.unattributed_ns as f64 / self.wall_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(PASS, None, 0, 100),
            span("a.x", Some(0), 10, 40),
            // Overlaps the first child by 10 ns.
            span("a.y", Some(0), 30, 60),
            // Nested inside a.y: charged to a.y, not to the root.
            span("a.z", Some(2), 35, 45),
            // Runs past its parent's end; clipped.
            span("a.w", Some(0), 90, 120),
        ];
        let t = self_times(&spans);
        // Root: 100 - |[10,60) ∪ [90,100)| = 100 - 60.
        assert_eq!(t[0], 40);
        assert_eq!(t[1], 30);
        assert_eq!(t[2], 20);
        assert_eq!(t[3], 10);
        assert!(check_structure(&spans).is_err(), "a.w escapes its parent");
        let lt = LayerTimes::from_spans(&spans[..4]);
        assert_eq!(lt.wall_ns, 100);
        // Without a.w the root covers [10,60) only.
        assert_eq!(lt.unattributed_ns, 50);
        assert_eq!(lt.ns("a.y"), 20);
    }

    #[test]
    fn structure_check_wants_one_closed_root() {
        let ok = vec![
            span(PASS, None, 0, 10),
            span(OP, Some(0), 1, 9),
            span("l.x", Some(1), 2, 3),
        ];
        assert!(check_structure(&ok).is_ok());
        let two_roots = vec![span(PASS, None, 0, 10), span(PASS, None, 0, 10)];
        assert!(check_structure(&two_roots).is_err());
        let open = vec![span(PASS, None, 0, u64::MAX)];
        assert!(check_structure(&open).is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_work() {
        let mut t = Tracer::with_enabled(false);
        let root = t.open(PASS, 0, None);
        assert_eq!(t.leaf("l.x", 0, root, || 7), 7);
        t.close(root);
        assert!(t.spans().is_empty());
    }
}
