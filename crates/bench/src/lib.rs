//! Shared drivers for the table/figure harnesses.
//!
//! Every table and figure of the paper's evaluation section has a bench
//! target in this crate (`cargo bench -p waffle-bench --bench <name>`);
//! this library holds the measurement drivers they share. The harnesses
//! fan their experiment grids over [`waffle_core::ExperimentEngine`]
//! (worker count from `WAFFLE_JOBS`), and the `engine_rate` target writes
//! throughput figures to `BENCH_core.json` via [`bench_report`]. The
//! benches that measure heap use install the [`alloc_probe`] allocator.

pub mod alloc_probe;
pub mod bench_report;
pub mod drivers;

pub use bench_report::{
    AnalysisBenchReport, AnalysisRate, BenchEntry, BenchReport, EngineRate, OracleBenchReport,
    OracleBenchRow, ScaleBenchReport, ScaleSweepPoint, ServeBenchReport, ServeSweepPoint,
    WorkerRate,
};
pub use drivers::{
    bug_row, bug_rows, engine_from_env, overhead_for_app, overhead_for_app_on, BugRow, OverheadRow,
};
