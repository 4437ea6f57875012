//! The on-disk columnar segment format: traces larger than RAM.
//!
//! [`TraceIndex`] is fast but fully resident — a 100M-event trace costs
//! tens of gigabytes of columns. This module persists an index as a single
//! **segment file** so the analysis sweep can stream object segments
//! through a bounded resident budget instead of holding every column:
//!
//! ```text
//! ┌──────────┬──────────────────────────┬────────────┬─────────────────┐
//! │ 8B magic │ segments (mem*, tsv*)    │ footer     │ 24B trailer + 8B│
//! │ WFLSEG00 │ per-object column bytes  │ (catalog)  │ magic WFLSEGFT  │
//! └──────────┴──────────────────────────┴────────────┴─────────────────┘
//! ```
//!
//! - **Segments**: one per `(class, object)`, in ascending object order —
//!   exactly the order the two-pointer sweep consumes — holding that
//!   object's time-sorted columns as packed little-endian arrays
//!   (`times: u64ⁿ ++ threads: u32ⁿ ++ sites: u32ⁿ ++ kinds: u8ⁿ ++
//!   clocks: u32ⁿ`; the constant `obj` column is stored once, in the
//!   catalog entry, not per event).
//! - **Footer catalog** ([`SegmentCatalog`]): per-segment byte offsets,
//!   lengths, event counts, min/max timestamps, and FNV-1a checksums,
//!   plus the interned [`ClockPool`] and the trace's [`SiteRegistry`]
//!   stored **once** — the happens-before structure is the only part of
//!   the trace that must stay hot (cf. partial-order BMC: keep the
//!   ordering skeleton resident, stream the events).
//! - **Trailer**: `footer_offset u64 | footer_len u64 | footer_fnv u64`
//!   followed by the closing magic, so a reader can locate the footer
//!   from the end of the file and reject truncation before trusting any
//!   offset in it.
//!
//! Corruption discipline matches the PR 3 storage rules: a missing file
//! is the caller's absent case; a present-but-unusable file (bad magic,
//! truncated footer, checksum mismatch, future version) is always a
//! distinct [`io::ErrorKind::InvalidData`] error naming what failed.

use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use waffle_mem::{AccessKind, ObjectId, SiteId, SiteRegistry};
use waffle_sim::{SimTime, ThreadId};

use crate::index::{ClassColumns, ClockId, ClockPool, TraceIndex};

/// Segment file schema version; bumped on incompatible layout changes.
pub const SEGMENT_VERSION: u32 = 1;

const HEAD_MAGIC: &[u8; 8] = b"WFLSEG00";
const FOOT_MAGIC: &[u8; 8] = b"WFLSEGFT";
/// Trailer: footer offset + footer length + footer checksum + magic.
const TRAILER_LEN: u64 = 8 + 8 + 8 + 8;

/// Bytes one event occupies in a segment (8 time + 4 thread + 4 site +
/// 1 kind + 4 clock).
pub const EVENT_BYTES: u64 = 21;

/// 64-bit FNV-1a over a byte slice: the segment checksums (cheap enough
/// to verify on every load) and the campaign manifest fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Which event class a segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentClass {
    /// MemOrder-instrumented events (init/use/dispose).
    MemOrder,
    /// Thread-safety-violation events (unsafe API calls).
    Tsv,
}

/// Catalog entry for one on-disk object segment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// The object every event in the segment touches (the `objs` column,
    /// stored once instead of per event).
    pub object: ObjectId,
    /// Absolute file offset of the segment's first byte.
    pub offset: u64,
    /// Segment payload length in bytes (`events × EVENT_BYTES`).
    pub bytes: u64,
    /// Events in the segment.
    pub events: u32,
    /// Smallest timestamp in the segment (segments are time-sorted).
    pub min_time: SimTime,
    /// Largest timestamp in the segment.
    pub max_time: SimTime,
    /// FNV-1a over the segment payload, verified on load.
    pub checksum: u64,
}

/// The footer catalog: everything a reader needs besides the column bytes.
///
/// The clock pool lives here — stored once for the whole trace — because
/// happens-before checks are the one part of analysis that needs random
/// access while event columns stream through a bounded window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentCatalog {
    /// Schema version ([`SEGMENT_VERSION`]).
    pub version: u32,
    /// Name of the traced workload.
    pub workload: String,
    /// End-to-end virtual time of the traced run.
    pub end_time: SimTime,
    /// MemOrder segments, ascending object order.
    pub mem: Vec<SegmentMeta>,
    /// TSV segments, ascending object order.
    pub tsv: Vec<SegmentMeta>,
    /// The interned clock snapshots, stored once.
    pub clocks: ClockPool,
    /// The trace's site table (for rendering plans without the workload).
    pub sites: SiteRegistry,
}

impl SegmentCatalog {
    /// The catalog's segment list for `class`.
    pub fn class(&self, class: SegmentClass) -> &[SegmentMeta] {
        match class {
            SegmentClass::MemOrder => &self.mem,
            SegmentClass::Tsv => &self.tsv,
        }
    }

    /// Total events across both classes.
    pub fn events(&self) -> u64 {
        self.mem.iter().chain(&self.tsv).map(|s| u64::from(s.events)).sum()
    }
}

/// What [`TraceIndex::write_segments`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentWriteStats {
    /// Segments written across both classes.
    pub segments: usize,
    /// Events written across both classes.
    pub events: u64,
    /// Total file size in bytes, trailer included.
    pub file_bytes: u64,
}

fn invalid(path: &Path, what: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {what}", path.display()),
    )
}

/// On-disk tag for an [`AccessKind`] (shared with the ingest wire format).
pub(crate) fn kind_tag(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::Init => 0,
        AccessKind::Use => 1,
        AccessKind::Dispose => 2,
        AccessKind::UnsafeApiCall => 3,
    }
}

/// Inverse of [`kind_tag`]; `None` for unknown tags.
pub(crate) fn kind_from_tag(tag: u8) -> Option<AccessKind> {
    Some(match tag {
        0 => AccessKind::Init,
        1 => AccessKind::Use,
        2 => AccessKind::Dispose,
        3 => AccessKind::UnsafeApiCall,
        _ => return None,
    })
}

/// Borrowed, equal-length column slices for one object's time-sorted
/// events — the unit [`SegmentWriter::append`] consumes. Built from a
/// resident index slot via [`ColumnSlice::of`], or assembled directly by
/// the compactor from merged vectors.
#[derive(Debug, Clone, Copy)]
pub struct ColumnSlice<'a> {
    /// The object every row touches.
    pub object: ObjectId,
    /// Virtual timestamps (must be non-decreasing).
    pub times: &'a [SimTime],
    /// Accessing threads.
    pub threads: &'a [ThreadId],
    /// Static sites.
    pub sites: &'a [SiteId],
    /// Operation classes.
    pub kinds: &'a [AccessKind],
    /// Pooled clock handles.
    pub clocks: &'a [ClockId],
}

impl<'a> ColumnSlice<'a> {
    /// The slice for object slot `slot` of `cols`.
    pub fn of(cols: &'a ClassColumns, slot: usize) -> Self {
        let r = cols.range(slot);
        Self {
            object: cols.objects[slot],
            times: &cols.times[r.clone()],
            threads: &cols.threads[r.clone()],
            sites: &cols.sites[r.clone()],
            kinds: &cols.kinds[r.clone()],
            clocks: &cols.clocks[r],
        }
    }
}

/// Serializes one object's columns into `buf` (cleared first) and returns
/// its catalog entry with `offset` left at 0 for the writer to fix.
/// `InvalidData` on ragged columns, an empty segment, or an event count
/// past the catalog's u32 field (which a bare cast used to wrap silently).
fn encode_segment(seg: &ColumnSlice<'_>, buf: &mut Vec<u8>) -> io::Result<SegmentMeta> {
    buf.clear();
    let n = seg.times.len();
    let err = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    if n == 0 {
        return Err(err(format!("segment for {} is empty", seg.object)));
    }
    if [seg.threads.len(), seg.sites.len(), seg.kinds.len(), seg.clocks.len()]
        .iter()
        .any(|&l| l != n)
    {
        return Err(err(format!("segment for {} has ragged columns", seg.object)));
    }
    let events = u32::try_from(n).map_err(|_| {
        err(format!(
            "segment for {} holds {n} events (catalog limit is {})",
            seg.object,
            u32::MAX
        ))
    })?;
    buf.reserve(n * EVENT_BYTES as usize);
    for t in seg.times {
        buf.extend_from_slice(&t.as_us().to_le_bytes());
    }
    for t in seg.threads {
        buf.extend_from_slice(&t.0.to_le_bytes());
    }
    for s in seg.sites {
        buf.extend_from_slice(&s.0.to_le_bytes());
    }
    for k in seg.kinds {
        buf.push(kind_tag(*k));
    }
    for c in seg.clocks {
        buf.extend_from_slice(&c.0.to_le_bytes());
    }
    Ok(SegmentMeta {
        object: seg.object,
        offset: 0,
        bytes: buf.len() as u64,
        events,
        min_time: seg.times[0],
        max_time: seg.times[n - 1],
        checksum: fnv1a(buf),
    })
}

/// Incremental segment-file writer: the producer behind
/// [`TraceIndex::write_segments`], streaming-ingest seals, and the
/// compactor. Segments append one object at a time (ascending object order
/// enforced per class); [`finish`](Self::finish) writes the footer catalog
/// and trailer and atomically renames the temp file into place. Dropping
/// an unfinished writer removes the temp file, so an abandoned seal never
/// leaves debris under a visible name.
#[derive(Debug)]
pub struct SegmentWriter {
    file: Option<io::BufWriter<fs::File>>,
    tmp: PathBuf,
    path: PathBuf,
    offset: u64,
    buf: Vec<u8>,
    mem: Vec<SegmentMeta>,
    tsv: Vec<SegmentMeta>,
}

impl SegmentWriter {
    /// Opens a writer targeting `path`, writing to a sibling temp file
    /// until [`finish`](Self::finish).
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path: PathBuf = path.into();
        let tmp = path.with_file_name(format!(
            ".{}.tmp.{}",
            path.file_name()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
                .to_string_lossy(),
            std::process::id()
        ));
        let mut f = io::BufWriter::new(fs::File::create(&tmp)?);
        f.write_all(HEAD_MAGIC)?;
        Ok(Self {
            file: Some(f),
            tmp,
            path,
            offset: HEAD_MAGIC.len() as u64,
            buf: Vec::new(),
            mem: Vec::new(),
            tsv: Vec::new(),
        })
    }

    /// Appends one object segment to `class`. Objects must arrive in
    /// strictly ascending order within each class — the invariant the
    /// streaming sweep's deterministic merge reads back.
    pub fn append(&mut self, class: SegmentClass, seg: ColumnSlice<'_>) -> io::Result<()> {
        let metas = match class {
            SegmentClass::MemOrder => &self.mem,
            SegmentClass::Tsv => &self.tsv,
        };
        if let Some(last) = metas.last() {
            if seg.object <= last.object {
                return Err(invalid(
                    &self.path,
                    format!(
                        "segment for {} appended out of ascending object order (after {})",
                        seg.object, last.object
                    ),
                ));
            }
        }
        let mut meta = encode_segment(&seg, &mut self.buf)?;
        meta.offset = self.offset;
        self.offset += meta.bytes;
        let f = self.file.as_mut().expect("writer already finished");
        f.write_all(&self.buf)?;
        match class {
            SegmentClass::MemOrder => self.mem.push(meta),
            SegmentClass::Tsv => self.tsv.push(meta),
        }
        Ok(())
    }

    /// Writes the footer catalog and trailer, then renames the temp file
    /// into place.
    pub fn finish(
        mut self,
        workload: &str,
        end_time: SimTime,
        clocks: &ClockPool,
        sites: &SiteRegistry,
    ) -> io::Result<SegmentWriteStats> {
        let catalog = SegmentCatalog {
            version: SEGMENT_VERSION,
            workload: workload.to_string(),
            end_time,
            mem: std::mem::take(&mut self.mem),
            tsv: std::mem::take(&mut self.tsv),
            clocks: clocks.clone(),
            sites: sites.clone(),
        };
        let footer = serde_json::to_string(&catalog)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let footer_bytes = footer.as_bytes();
        let mut f = self.file.take().expect("writer already finished");
        f.write_all(footer_bytes)?;
        f.write_all(&self.offset.to_le_bytes())?;
        f.write_all(&(footer_bytes.len() as u64).to_le_bytes())?;
        f.write_all(&fnv1a(footer_bytes).to_le_bytes())?;
        f.write_all(FOOT_MAGIC)?;
        f.flush()?;
        drop(f);
        fs::rename(&self.tmp, &self.path).inspect_err(|_| {
            let _ = fs::remove_file(&self.tmp);
        })?;
        Ok(SegmentWriteStats {
            segments: catalog.mem.len() + catalog.tsv.len(),
            events: catalog.events(),
            file_bytes: self.offset + footer_bytes.len() as u64 + TRAILER_LEN,
        })
    }
}

impl Drop for SegmentWriter {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

impl<'t> TraceIndex<'t> {
    /// Writes this index as a segment file at `path` (atomically: a
    /// sibling temp file renamed into place, so a crash mid-write never
    /// leaves a half file under the final name).
    pub fn write_segments(&self, path: &Path) -> io::Result<SegmentWriteStats> {
        let mut w = SegmentWriter::create(path)?;
        for slot in 0..self.mem.object_count() {
            w.append(SegmentClass::MemOrder, ColumnSlice::of(&self.mem, slot))?;
        }
        for slot in 0..self.tsv.object_count() {
            w.append(SegmentClass::Tsv, ColumnSlice::of(&self.tsv, slot))?;
        }
        w.finish(
            &self.trace.workload,
            self.trace.end_time,
            &self.trace.clocks,
            &self.trace.sites,
        )
    }
}

/// One loaded object segment: the object's columns, resident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentColumns {
    /// The segment's object.
    pub object: ObjectId,
    /// Virtual timestamps (time-sorted).
    pub times: Vec<SimTime>,
    /// Accessing threads.
    pub threads: Vec<ThreadId>,
    /// Static sites.
    pub sites: Vec<SiteId>,
    /// Operation classes.
    pub kinds: Vec<AccessKind>,
    /// Pooled clock handles.
    pub clocks: Vec<ClockId>,
}

impl SegmentColumns {
    /// Events in the segment.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the segment holds no events (never true for written files —
    /// empty objects get no segment).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// Streaming reader over a segment file: the catalog (with the clock pool)
/// stays resident; event columns are loaded per segment on demand and
/// dropped by the caller when its budget window moves on.
#[derive(Debug)]
pub struct SegmentReader {
    file: fs::File,
    catalog: SegmentCatalog,
    path: PathBuf,
}

impl SegmentReader {
    /// Opens and validates a segment file: both magics, the trailer, the
    /// footer checksum, and the schema version. Per-segment payloads are
    /// verified lazily, on [`load`](Self::load).
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let mut file = fs::File::open(&path)?;
        let size = file.metadata()?.len();
        if size < HEAD_MAGIC.len() as u64 + TRAILER_LEN {
            return Err(invalid(&path, "not a segment file (shorter than header + trailer)"));
        }
        let mut head = [0u8; 8];
        file.read_exact(&mut head)?;
        if &head != HEAD_MAGIC {
            return Err(invalid(&path, "bad magic (not a segment file)"));
        }
        file.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.read_exact(&mut trailer)?;
        if &trailer[24..32] != FOOT_MAGIC {
            return Err(invalid(&path, "truncated segment file (trailer magic missing)"));
        }
        let footer_offset = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
        let footer_len = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
        let footer_fnv = u64::from_le_bytes(trailer[16..24].try_into().unwrap());
        let file_end = footer_offset
            .checked_add(footer_len)
            .and_then(|end| end.checked_add(TRAILER_LEN));
        if file_end != Some(size) {
            return Err(invalid(&path, "truncated segment file (footer out of bounds)"));
        }
        file.seek(SeekFrom::Start(footer_offset))?;
        let mut footer = vec![0u8; footer_len as usize];
        file.read_exact(&mut footer)?;
        if fnv1a(&footer) != footer_fnv {
            return Err(invalid(&path, "footer checksum mismatch (corrupt catalog)"));
        }
        let footer_text = std::str::from_utf8(&footer)
            .map_err(|e| invalid(&path, format!("footer is not UTF-8: {e}")))?;
        let catalog: SegmentCatalog = serde_json::from_str(footer_text)
            .map_err(|e| invalid(&path, format!("corrupt footer catalog: {e}")))?;
        if catalog.version != SEGMENT_VERSION {
            return Err(invalid(
                &path,
                format!(
                    "segment format version {} (this build speaks {SEGMENT_VERSION})",
                    catalog.version
                ),
            ));
        }
        for meta in catalog.mem.iter().chain(&catalog.tsv) {
            let end = meta.offset.checked_add(meta.bytes);
            let in_bounds = end.is_some_and(|end| end <= footer_offset);
            if meta.bytes != u64::from(meta.events) * EVENT_BYTES || !in_bounds {
                return Err(invalid(
                    &path,
                    format!("catalog entry for {} out of bounds", meta.object),
                ));
            }
        }
        Ok(Self { file, catalog, path })
    }

    /// The footer catalog.
    pub fn catalog(&self) -> &SegmentCatalog {
        &self.catalog
    }

    /// The resident clock pool.
    pub fn clocks(&self) -> &ClockPool {
        &self.catalog.clocks
    }

    /// Loads segment `k` of `class` into memory, verifying its checksum.
    pub fn load(&mut self, class: SegmentClass, k: usize) -> io::Result<SegmentColumns> {
        let meta = self.catalog.class(class)[k].clone();
        let n = meta.events as usize;
        self.file.seek(SeekFrom::Start(meta.offset))?;
        let mut raw = vec![0u8; meta.bytes as usize];
        self.file.read_exact(&mut raw)?;
        if fnv1a(&raw) != meta.checksum {
            return Err(invalid(
                &self.path,
                format!("segment checksum mismatch for {} (corrupt payload)", meta.object),
            ));
        }
        let (times_b, rest) = raw.split_at(n * 8);
        let (threads_b, rest) = rest.split_at(n * 4);
        let (sites_b, rest) = rest.split_at(n * 4);
        let (kinds_b, clocks_b) = rest.split_at(n);
        let le_u64 = |b: &[u8], i: usize| u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap());
        let le_u32 = |b: &[u8], i: usize| u32::from_le_bytes(b[i * 4..i * 4 + 4].try_into().unwrap());
        let mut kinds = Vec::with_capacity(n);
        for &k in kinds_b {
            kinds.push(kind_from_tag(k).ok_or_else(|| {
                invalid(
                    &self.path,
                    format!("unknown access-kind tag {k} in segment for {}", meta.object),
                )
            })?);
        }
        Ok(SegmentColumns {
            object: meta.object,
            times: (0..n).map(|i| SimTime::from_us(le_u64(times_b, i))).collect(),
            threads: (0..n).map(|i| ThreadId(le_u32(threads_b, i))).collect(),
            sites: (0..n).map(|i| SiteId(le_u32(sites_b, i))).collect(),
            kinds,
            clocks: (0..n).map(|i| ClockId(le_u32(clocks_b, i))).collect(),
        })
    }

    /// Reassembles one class's full [`ClassColumns`] by loading every
    /// segment — the round-trip used by tests and small-trace callers; the
    /// streaming analysis path loads bounded batches instead.
    pub fn read_class_columns(&mut self, class: SegmentClass) -> io::Result<ClassColumns> {
        let metas = self.catalog.class(class).to_vec();
        let total: usize = metas.iter().map(|m| m.events as usize).sum();
        let mut cols = ClassColumns {
            times: Vec::with_capacity(total),
            threads: Vec::with_capacity(total),
            sites: Vec::with_capacity(total),
            objs: Vec::with_capacity(total),
            kinds: Vec::with_capacity(total),
            clocks: Vec::with_capacity(total),
            objects: Vec::with_capacity(metas.len()),
            offsets: Vec::with_capacity(metas.len() + 1),
        };
        cols.offsets.push(0);
        for (k, meta) in metas.iter().enumerate() {
            let mut seg = self.load(class, k)?;
            debug_assert_eq!(seg.len(), meta.events as usize, "catalog entry {k} consistent");
            cols.objs.extend(std::iter::repeat_n(meta.object, seg.len()));
            cols.times.append(&mut seg.times);
            cols.threads.append(&mut seg.threads);
            cols.sites.append(&mut seg.sites);
            cols.kinds.append(&mut seg.kinds);
            cols.clocks.append(&mut seg.clocks);
            cols.objects.push(meta.object);
            cols.offsets.push(cols.times.len() as u32);
        }
        cols.validate()
            .map_err(|e| invalid(&self.path, format!("reassembled columns invalid: {e}")))?;
        Ok(cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Trace, TraceEvent};
    use waffle_vclock::ClockSnapshot;

    fn sample_trace(objects: u32, per_object: u64) -> Trace {
        let mut sites = SiteRegistry::new();
        let si = sites.register("init", AccessKind::Init);
        let su = sites.register("use", AccessKind::Use);
        let sc = sites.register("call", AccessKind::UnsafeApiCall);
        let mut clocks = ClockPool::new();
        let mut events = Vec::new();
        let mut t = 0;
        for round in 0..per_object {
            for o in 0..objects {
                t += 10;
                let kind = match round % 3 {
                    0 => (si, AccessKind::Init),
                    1 => (su, AccessKind::Use),
                    _ => (sc, AccessKind::UnsafeApiCall),
                };
                let clock = clocks.intern(ClockSnapshot::from_entries([(
                    ThreadId(o % 3),
                    round / 2 + 1,
                )]));
                events.push(TraceEvent {
                    time: SimTime::from_us(t),
                    thread: ThreadId(o % 3),
                    site: kind.0,
                    obj: ObjectId(o),
                    kind: kind.1,
                    dyn_index: round,
                    clock,
                });
            }
        }
        Trace {
            workload: "seg.sample".into(),
            sites,
            events,
            forks: vec![],
            clocks,
            end_time: SimTime::from_us(t + 10),
        }
    }

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("waffle-seg-{tag}-{}.wseg", std::process::id()))
    }

    #[test]
    fn write_read_round_trip_is_byte_identical() {
        let trace = sample_trace(5, 9);
        let index = TraceIndex::build(&trace);
        let path = tmpfile("roundtrip");
        let stats = index.write_segments(&path).unwrap();
        assert_eq!(stats.events, trace.events.len() as u64);
        assert_eq!(stats.segments, index.mem.object_count() + index.tsv.object_count());

        let mut reader = SegmentReader::open(&path).unwrap();
        assert_eq!(reader.catalog().workload, "seg.sample");
        assert_eq!(reader.clocks(), &trace.clocks);
        assert_eq!(reader.catalog().events(), trace.events.len() as u64);
        let mem = reader.read_class_columns(SegmentClass::MemOrder).unwrap();
        let tsv = reader.read_class_columns(SegmentClass::Tsv).unwrap();
        assert_eq!(mem, index.mem);
        assert_eq!(tsv, index.tsv);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn catalog_min_max_times_bracket_each_segment() {
        let trace = sample_trace(3, 5);
        let index = TraceIndex::build(&trace);
        let path = tmpfile("minmax");
        index.write_segments(&path).unwrap();
        let mut reader = SegmentReader::open(&path).unwrap();
        for k in 0..reader.catalog().mem.len() {
            let meta = reader.catalog().mem[k].clone();
            let seg = reader.load(SegmentClass::MemOrder, k).unwrap();
            assert_eq!(seg.object, meta.object);
            assert_eq!(*seg.times.first().unwrap(), meta.min_time);
            assert_eq!(*seg.times.last().unwrap(), meta.max_time);
            assert!(seg.times.windows(2).all(|w| w[0] <= w[1]));
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_footer_is_invalid_data() {
        let trace = sample_trace(4, 6);
        let path = tmpfile("truncated");
        TraceIndex::build(&trace).write_segments(&path).unwrap();
        let full = fs::read(&path).unwrap();
        // Chop the file mid-footer: the trailer magic disappears.
        fs::write(&path, &full[..full.len() - 40]).unwrap();
        let err = SegmentReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_segment_payload_fails_checksum_on_load() {
        let trace = sample_trace(4, 6);
        let path = tmpfile("corrupt");
        TraceIndex::build(&trace).write_segments(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip one byte inside the first mem segment's payload.
        let off = SegmentReader::open(&path).unwrap().catalog().mem[0].offset as usize;
        bytes[off + 3] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let mut reader = SegmentReader::open(&path).expect("footer still valid");
        let err = reader.load(SegmentClass::MemOrder, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let _ = fs::remove_file(&path);
    }

    /// Rewrites the footer of the segment file at `path` through `patch`,
    /// fixing up the trailer (offset, length, checksum) so only what the
    /// patch changed can fail.
    fn patch_footer(path: &Path, patch: impl FnOnce(&str) -> String) {
        let bytes = fs::read(path).unwrap();
        let trailer = &bytes[bytes.len() - TRAILER_LEN as usize..];
        let footer_off = u64::from_le_bytes(trailer[0..8].try_into().unwrap()) as usize;
        let footer_len = u64::from_le_bytes(trailer[8..16].try_into().unwrap()) as usize;
        let footer = std::str::from_utf8(&bytes[footer_off..footer_off + footer_len]).unwrap();
        let patched = patch(footer);
        assert_ne!(footer, patched, "the patch changes the footer");
        let mut out = bytes[..footer_off].to_vec();
        out.extend_from_slice(patched.as_bytes());
        out.extend_from_slice(&(footer_off as u64).to_le_bytes());
        out.extend_from_slice(&(patched.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(patched.as_bytes()).to_le_bytes());
        out.extend_from_slice(FOOT_MAGIC);
        fs::write(path, out).unwrap();
    }

    #[test]
    fn future_version_is_rejected() {
        let trace = sample_trace(2, 4);
        let path = tmpfile("version");
        TraceIndex::build(&trace).write_segments(&path).unwrap();
        patch_footer(&path, |f| f.replacen("\"version\":1", "\"version\":99", 1));
        let err = SegmentReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 99"), "{err}");
        let _ = fs::remove_file(&path);
    }

    /// A trailer whose footer ends within `TRAILER_LEN` of `u64::MAX` must
    /// not overflow the bounds check (a panic in debug builds).
    #[test]
    fn trailer_footer_end_near_u64_max_is_out_of_bounds() {
        let path = tmpfile("trailer-overflow");
        TraceIndex::build(&sample_trace(2, 4)).write_segments(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - TRAILER_LEN as usize;
        bytes[at..at + 8].copy_from_slice(&(u64::MAX - 8).to_le_bytes());
        bytes[at + 8..at + 16].copy_from_slice(&0u64.to_le_bytes());
        fs::write(&path, bytes).unwrap();
        let err = SegmentReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("footer out of bounds"), "{err}");
        let _ = fs::remove_file(&path);
    }

    /// A catalog offset near `u64::MAX` must not overflow `offset + bytes`:
    /// in release builds the sum would wrap past the bounds check, and
    /// `load` would then allocate the claimed length.
    #[test]
    fn catalog_offset_near_u64_max_is_out_of_bounds() {
        let path = tmpfile("catalog-overflow");
        TraceIndex::build(&sample_trace(2, 4)).write_segments(&path).unwrap();
        patch_footer(&path, |f| {
            let mut catalog: SegmentCatalog = serde_json::from_str(f).unwrap();
            catalog.mem[0].offset = u64::MAX;
            serde_json::to_string(&catalog).unwrap()
        });
        let err = SegmentReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("out of bounds"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn writer_rejects_out_of_order_objects_and_cleans_up_on_drop() {
        let path = tmpfile("writer-order");
        let times = [SimTime::from_us(1)];
        let threads = [ThreadId(0)];
        let sites = [SiteId(0)];
        let kinds = [AccessKind::Use];
        let clocks = [ClockId::EMPTY];
        let seg = |o: u32| ColumnSlice {
            object: ObjectId(o),
            times: &times,
            threads: &threads,
            sites: &sites,
            kinds: &kinds,
            clocks: &clocks,
        };
        let mut w = SegmentWriter::create(&path).unwrap();
        let tmp = w.tmp.clone();
        w.append(SegmentClass::MemOrder, seg(5)).unwrap();
        let err = w.append(SegmentClass::MemOrder, seg(5)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("ascending object order"), "{err}");
        // A different class keeps its own order cursor.
        w.append(SegmentClass::Tsv, seg(1)).unwrap();
        assert!(tmp.exists());
        drop(w);
        assert!(!tmp.exists(), "abandoned writer must remove its temp file");
        assert!(!path.exists(), "unfinished file must not appear under the final name");
    }

    #[test]
    fn encode_rejects_empty_and_ragged_segments() {
        let path = tmpfile("writer-ragged");
        let mut w = SegmentWriter::create(&path).unwrap();
        let times = [SimTime::from_us(1), SimTime::from_us(2)];
        let threads = [ThreadId(0)];
        let sites = [SiteId(0), SiteId(0)];
        let kinds = [AccessKind::Use, AccessKind::Use];
        let clocks = [ClockId::EMPTY, ClockId::EMPTY];
        let ragged = ColumnSlice {
            object: ObjectId(0),
            times: &times,
            threads: &threads,
            sites: &sites,
            kinds: &kinds,
            clocks: &clocks,
        };
        let err = w.append(SegmentClass::MemOrder, ragged).unwrap_err();
        assert!(err.to_string().contains("ragged"), "{err}");
        let empty = ColumnSlice {
            object: ObjectId(0),
            times: &[],
            threads: &[],
            sites: &[],
            kinds: &[],
            clocks: &[],
        };
        let err = w.append(SegmentClass::MemOrder, empty).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn missing_file_stays_not_found_not_invalid() {
        let err = SegmentReader::open(tmpfile("absent")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn garbage_file_is_invalid_data() {
        let path = tmpfile("garbage");
        fs::write(&path, b"this is not a segment file at all........").unwrap();
        let err = SegmentReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_file(&path);
    }
}
