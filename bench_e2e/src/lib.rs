//! End-to-end benchmark of the Waffle reproduction.
//!
//! Three workloads, each run in its own process by `run.py`: `table4`
//! (the paper's Table 4 grid), `fuzz` (the differential sweep with
//! repair) and `serve` (streamed sessions over a Unix socket). Every layer
//! is measured from outside, by timing calls into the public functions of
//! the `waffle-*` crates; see `NOTES.md` for the layer-to-metric map.

pub mod fuzz;
pub mod serve;
pub mod span;
pub mod stats;
pub mod table4;
