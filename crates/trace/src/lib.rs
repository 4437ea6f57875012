//! Execution traces: what Waffle's preparation run records.
//!
//! During the preparation run, Waffle's runtime "logs all accesses to
//! reference-type variables (heap objects) along with metadata such as
//! timestamps, accessed object id, and access types" (§5). This crate
//! provides:
//!
//! - [`TraceEvent`]/[`Trace`]: the event model, each event stamped with the
//!   accessing thread's vector-clock snapshot (maintained through the
//!   inheritable-TLS fork protocol of §4.1);
//! - [`TraceRecorder`]: the [`Monitor`](waffle_sim::Monitor) that produces a
//!   trace from a simulated run, charging the preparation-run
//!   instrumentation overhead per access;
//! - serialization to/from JSON (traces persist between the preparation and
//!   detection runs, which are separate processes in the real tool);
//! - [`TraceIndex`]: the columnar (struct-of-arrays, object-major) index
//!   every analysis pass shares, with the [`ClockPool`] of interned
//!   vector-clock snapshots the recorder populates;
//! - [`TraceStats`]: per-site statistics backing Table 2 (instrumentation
//!   site counts) and the §3.3 dynamic-instance observations.

pub mod compact;
pub mod event;
pub mod index;
pub mod ingest;
pub mod recorder;
pub mod segment;
pub mod stats;
pub mod wire;

pub use compact::{compact_segments, CompactStats};
pub use event::{Trace, TraceEvent};
pub use index::{
    ClassColumns, ClockId, ClockInterner, ClockPool, IndexArena, IndexStats, TraceIndex,
};
pub use ingest::{SealOutput, SessionIndexBuilder};
pub use segment::{
    fnv1a, ColumnSlice, SegmentCatalog, SegmentClass, SegmentColumns, SegmentMeta, SegmentReader,
    SegmentWriteStats, SegmentWriter,
};
pub use recorder::{ClockProtocol, TraceRecorder};
pub use stats::TraceStats;
pub use wire::{
    encode_frame, read_frame, write_frame, Frame, MAX_FRAME_BYTES, WIRE_EVENT_BYTES,
};
