//! `serve`: back-to-back sessions over a real Unix socket against
//! `waffle_core::serve` with its default options (Block policy, 64k-event
//! seals, one shard), one client connection at a time.
//!
//! Each session gets a fresh server (`max_sessions = 1`), so the returned
//! `ServeReport` closes every session; set-up — the time until the socket
//! accepts — is measured on probe servers closed with empty sessions. The
//! client generates and
//! writes frames batch by batch and never holds a whole trace, so the
//! process's peak RSS is the server's.
//!
//! The stream has the shape of the serve bench: 4096 objects over four
//! threads, interned chain clocks, and four concurrent objects carrying
//! the candidates. The workload seed permutes each object's
//! lane-to-thread assignment.
//!
//! The traced run replays one session in process, fed the same frames:
//! decode → push → seal → absorb → compact → finish → report. Its report
//! must be byte-identical to the served one.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use waffle_analysis::{analyze_jobs, analyze_tsv_indexed, AnalyzerConfig, IncrementalAnalysis};
use waffle_core::{serve, session_report_json, ServeOptions};
use waffle_mem::{AccessKind, ObjectId, SiteId, SiteRegistry};
use waffle_sim::{SimTime, ThreadId};
use waffle_trace::{
    compact_segments, encode_frame, read_frame, write_frame, ClockId, ClockPool, Frame,
    SegmentReader, SessionIndexBuilder, Trace, TraceEvent, TraceIndex,
};
use waffle_vclock::ClockSnapshot;

use crate::span::{LayerTimes, Tracer, OP, PASS};
use crate::stats::{
    best, median, metric, peak_rss_mb, splitmix, summarize as sample_summary, BestMetric, Fnv,
    Metric, PartResult, Repeats,
};

/// Events per session.
pub const EVENTS: u64 = 1 << 19;
/// Objects the events round-robin over.
const OBJECTS: u64 = 4096;
/// Interned chain snapshots; coprime with [`OBJECTS`].
const CHAIN_CLOCKS: u64 = 509;
/// Entries per chain snapshot.
const CHAIN_ENTRIES: u32 = 64;
/// Every `CONCURRENT_EVERY`-th object carries single-entry concurrent
/// clocks, and with them the candidate pairs.
const CONCURRENT_EVERY: u64 = 1024;
/// Simulated µs between consecutive events: same-object events are
/// `OBJECTS × STEP_US` ≈ 28.7 ms apart, so the default 100 ms δ window
/// holds the three nearest successors.
const STEP_US: u64 = 7;
/// Events per `Events` frame (the client batch).
const BATCH: u64 = 4096;
/// Threads of the stream.
const THREADS: u32 = 4;

/// Seeded synthetic event stream, generated on demand.
pub struct Stream {
    n: u64,
    sites: SiteRegistry,
    clocks: ClockPool,
    trios: Vec<(SiteId, SiteId, SiteId)>,
    chain: Vec<ClockId>,
    conc: Vec<ClockId>,
    /// Per object: the thread running each of the four access lanes.
    lanes: Vec<[u32; 4]>,
}

impl Stream {
    /// The `n`-event stream of workload seed `seed`.
    pub fn new(seed: u64, n: u64) -> Self {
        let mut sites = SiteRegistry::new();
        let trios = (0..OBJECTS)
            .map(|o| {
                (
                    sites.register(&format!("o{o}.init"), AccessKind::Init),
                    sites.register(&format!("o{o}.use"), AccessKind::Use),
                    sites.register(&format!("o{o}.dispose"), AccessKind::Dispose),
                )
            })
            .collect();
        let mut clocks = ClockPool::new();
        let chain = (0..CHAIN_CLOCKS)
            .map(|j| {
                clocks.intern(ClockSnapshot::from_entries(
                    (0..CHAIN_ENTRIES).map(|t| (ThreadId(100 + t), (j + 1) * 8 + u64::from(t))),
                ))
            })
            .collect();
        let conc = (0..THREADS)
            .map(|t| clocks.intern(ClockSnapshot::from_entries([(ThreadId(t), 1)])))
            .collect();
        // A seeded Fisher-Yates shuffle of the four threads per object.
        let lanes = (0..OBJECTS)
            .map(|o| {
                let mut p = [0, 1, 2, 3];
                let mut r = splitmix(seed ^ splitmix(o));
                for i in (1..4).rev() {
                    p.swap(i, (r % (i as u64 + 1)) as usize);
                    r /= 4;
                }
                p
            })
            .collect();
        Self {
            n,
            sites,
            clocks,
            trios,
            chain,
            conc,
            lanes,
        }
    }

    /// Event `i`: object `i % OBJECTS`, lanes cycling `Init, Use, Use,
    /// Dispose` per round.
    fn event(&self, i: u64) -> TraceEvent {
        let obj = i % OBJECTS;
        let round = i / OBJECTS;
        let lane = (round % 4) as usize;
        let thread = self.lanes[obj as usize][lane];
        let trio = self.trios[obj as usize];
        let (site, kind) = match lane {
            0 => (trio.0, AccessKind::Init),
            1 | 2 => (trio.1, AccessKind::Use),
            _ => (trio.2, AccessKind::Dispose),
        };
        TraceEvent {
            time: SimTime::from_us((i + 1) * STEP_US),
            thread: ThreadId(thread),
            site,
            obj: ObjectId(obj as u32),
            kind,
            dyn_index: round,
            clock: if obj.is_multiple_of(CONCURRENT_EVERY) {
                self.conc[thread as usize]
            } else {
                self.chain[(i % CHAIN_CLOCKS) as usize]
            },
        }
    }

    fn workload(&self) -> String {
        format!("bench.e2e.serve.{}", self.n)
    }

    fn end_time(&self) -> SimTime {
        SimTime::from_us((self.n + 2) * STEP_US)
    }

    /// Frames before the events: Hello, Sites, Clocks.
    fn head(&self) -> Vec<Frame> {
        let defs = self
            .sites
            .iter()
            .map(|(_, info)| (info.name.clone(), info.kind))
            .collect();
        vec![
            Frame::Hello {
                workload: self.workload(),
            },
            Frame::Sites(defs),
            Frame::Clocks(self.clocks.snapshots()[1..].to_vec()),
        ]
    }

    /// The `k`-th Events frame.
    fn batch(&self, k: u64) -> Frame {
        let lo = k * BATCH;
        Frame::Events(
            (lo..(lo + BATCH).min(self.n))
                .map(|i| self.event(i))
                .collect(),
        )
    }

    fn batches(&self) -> u64 {
        self.n.div_ceil(BATCH)
    }

    /// The whole stream as a [`Trace`], for the batch reference.
    fn trace(&self) -> Trace {
        Trace {
            workload: self.workload(),
            sites: self.sites.clone(),
            events: (0..self.n).map(|i| self.event(i)).collect(),
            forks: vec![],
            clocks: self.clocks.clone(),
            end_time: self.end_time(),
        }
    }
}

/// The batch reference report: `analyze_jobs` plus `analyze_tsv_indexed`
/// over the materialized stream, with the analyzer settings serve uses.
pub fn reference_report(stream: &Stream) -> String {
    let trace = stream.trace();
    let config = AnalyzerConfig::default();
    let plan = analyze_jobs(&trace, &config, 1);
    let tsv = analyze_tsv_indexed(
        &TraceIndex::build(&trace),
        config.delta,
        SimTime::from_ms(1),
        1,
    );
    session_report_json(&plan, &tsv).expect("report serializes")
}

/// Client-side timings of one served session.
struct Session {
    setup_s: f64,
    ingest_s: f64,
    session_s: f64,
    finish_s: f64,
    report: String,
    queue_depth_max: u64,
}

fn other(what: impl Into<String>) -> io::Error {
    io::Error::other(what.into())
}

/// Serves one session: starts a server, streams the frames, reads the
/// report, and joins the server. A set-up probe (`full = false`) sends
/// only Hello and Finish: an empty session, which the server answers with
/// an empty report.
fn served_session(stream: &Stream, dir: &Path, full: bool) -> io::Result<Session> {
    let socket = dir.join("s.sock");
    let mut opts = ServeOptions::new(&socket, dir.join("sessions"));
    opts.max_sessions = Some(1);
    std::thread::scope(|s| {
        let t0 = Instant::now();
        // Set-up is timed from the server thread's start, so the
        // benchmark's own thread spawn is not counted.
        let server = s.spawn(|| (Instant::now(), serve(&opts)));
        // Retry without sleeping: a sleep's granularity would be of the
        // order of the set-up time being measured.
        let mut conn = loop {
            match UnixStream::connect(&socket) {
                Ok(c) => break c,
                Err(_) if !server.is_finished() && t0.elapsed() < Duration::from_secs(30) => {
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        };
        let connected = Instant::now();
        let head = stream.head();
        let head = if full { &head[..] } else { &head[..1] };
        for f in head {
            write_frame(&mut conn, f)?;
        }
        for k in 0..if full { stream.batches() } else { 0 } {
            write_frame(&mut conn, &stream.batch(k))?;
        }
        let last_events = Instant::now();
        write_frame(
            &mut conn,
            &Frame::Finish {
                end_time: stream.end_time(),
            },
        )?;
        let finish_written = Instant::now();
        let reply = read_frame(&mut conn)?;
        let done = Instant::now();
        drop(conn);
        let (started, report) = server.join().map_err(|_| other("server thread panicked"))?;
        let report = report?;
        // Delete the session's files now, before the kernel writes them
        // back under the next measurement.
        std::fs::remove_dir_all(&opts.dir)?;
        let report_json = match reply {
            Some(Frame::Report(json)) => json,
            Some(Frame::Error(e)) => return Err(other(format!("server answered Error: {e}"))),
            other_frame => return Err(other(format!("unexpected reply {other_frame:?}"))),
        };
        if report.metrics.counter("ingest/failed_sessions") != 0 {
            return Err(other("server counted a failed session"));
        }
        Ok(Session {
            setup_s: connected.saturating_duration_since(started).as_secs_f64(),
            ingest_s: (last_events - connected).as_secs_f64(),
            session_s: (done - connected).as_secs_f64(),
            finish_s: (done - finish_written).as_secs_f64(),
            report: report_json,
            queue_depth_max: report
                .metrics
                .histogram("ingest/queue_depth")
                .map_or(0, |h| h.max_us()),
        })
    })
}

/// Counts and times from one in-process replica session.
struct Replica {
    layers: LayerTimes,
    report: String,
    seal_bytes: u64,
    generations: u32,
}

fn decode(bytes: &[u8]) -> Frame {
    read_frame(&mut &bytes[..])
        .expect("frame decodes")
        .expect("frame present")
}

/// Replays the server's per-session work in process over pre-encoded
/// frames, with the serve defaults, inside layer spans.
fn replica_session(frames: &[Vec<u8>], dir: &Path, traced: bool) -> io::Result<Replica> {
    // The serve defaults; this socket is never bound.
    let opts = ServeOptions::new(dir.join("unused.sock"), dir);
    let gen_dir = dir.join("replica.gen");
    std::fs::create_dir_all(&gen_dir)?;
    let mut t = Tracer::with_enabled(traced);
    let root = t.open(PASS, 0, None);
    let span = t.open(OP, 1, Some(root));
    let mut builder: Option<SessionIndexBuilder> = None;
    let mut fold: Option<IncrementalAnalysis> = None;
    let mut generations: Vec<PathBuf> = Vec::new();
    let mut seal_bytes = 0u64;
    let mut seal = |t: &mut Tracer,
                    b: &mut SessionIndexBuilder,
                    fold: &mut IncrementalAnalysis,
                    gens: &mut Vec<PathBuf>|
     -> io::Result<()> {
        let path = gen_dir.join(format!("gen-{}.wseg", b.generations()));
        let out = t.leaf("trace.seal", 1, span, || b.seal(&path))?;
        seal_bytes += out.stats.file_bytes;
        t.leaf("analysis.absorb", 1, span, || {
            fold.absorb(&out.mem, &out.tsv, b.clocks(), b.last_time(), opts.jobs)
        });
        gens.push(path);
        Ok(())
    };
    for bytes in frames {
        match t.leaf("trace.decode", 1, span, || decode(bytes)) {
            Frame::Hello { workload } => {
                builder = Some(SessionIndexBuilder::new(workload));
                fold = Some(IncrementalAnalysis::new(
                    AnalyzerConfig::default(),
                    SimTime::from_ms(1),
                ));
            }
            Frame::Sites(defs) => t.leaf("trace.push", 1, span, || {
                builder.as_mut().expect("Hello first").add_sites(&defs)
            })?,
            Frame::Clocks(snaps) => t.leaf("trace.push", 1, span, || {
                builder.as_mut().expect("Hello first").add_clocks(snaps)
            })?,
            Frame::Events(events) => {
                let b = builder.as_mut().expect("Hello first");
                t.leaf("trace.push", 1, span, || b.push_batch(events))?;
                if b.pending_events() >= opts.seal_events {
                    seal(
                        &mut t,
                        b,
                        fold.as_mut().expect("fold with builder"),
                        &mut generations,
                    )?;
                }
            }
            Frame::Finish { end_time } => {
                let mut b = builder.take().expect("Hello first");
                let mut fold = fold.take().expect("fold with builder");
                b.declare_end_time(end_time);
                if b.pending_events() > 0 || generations.is_empty() {
                    seal(&mut t, &mut b, &mut fold, &mut generations)?;
                }
                let compacted = dir.join("replica.wseg");
                t.leaf("trace.compact", 1, span, || -> io::Result<()> {
                    compact_segments(&generations, &compacted)?;
                    std::fs::remove_dir_all(&gen_dir)
                })?;
                let (plan, tsv) = t.leaf("analysis.finish", 1, span, || {
                    let mut reader = SegmentReader::open(&compacted)?;
                    fold.finish(b.workload(), Some(&mut reader), opts.resident_bytes)
                })?;
                let report = t.leaf("core.report", 1, span, || session_report_json(&plan, &tsv))?;
                std::fs::remove_file(&compacted)?;
                let generations = b.generations();
                t.close(span);
                t.close(root);
                if traced {
                    crate::span::check_structure(t.spans()).expect("replica spans are well formed");
                }
                return Ok(Replica {
                    layers: LayerTimes::from_spans(t.spans()),
                    report,
                    seal_bytes,
                    generations,
                });
            }
            Frame::Report(_) | Frame::Error(_) => return Err(other("client frames only")),
        }
    }
    Err(other("stream ended before Finish"))
}

/// Every frame of the stream, encoded (replica input).
fn encoded_frames(stream: &Stream) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = stream
        .head()
        .iter()
        .map(|f| encode_frame(f).expect("frame encodes"))
        .collect();
    out.extend(
        (0..stream.batches()).map(|k| encode_frame(&stream.batch(k)).expect("frame encodes")),
    );
    out.push(
        encode_frame(&Frame::Finish {
            end_time: stream.end_time(),
        })
        .expect("frame encodes"),
    );
    out
}

/// Runs the workload: `n.reps` sessions of `events` events, after
/// `n.setups` set-up probes (untraced runs only). `scratch` holds the
/// socket and the session files (a short relative path keeps the socket
/// under the platform's path limit).
pub fn run(seed: u64, n: Repeats, trace: bool, events: u64, scratch: &Path) -> PartResult {
    let mut res = PartResult {
        part: "serve",
        ..PartResult::default()
    };
    let stream = Stream::new(seed, events);
    std::fs::create_dir_all(scratch).expect("scratch dir");
    let mut sessions = Vec::new();
    let mut replicas = Vec::new();
    let frames = if trace {
        encoded_frames(&stream)
    } else {
        Vec::new()
    };
    if !trace {
        res.setups = (0..n.setups)
            .map(|_| served_session(&stream, scratch, false).map(|s| s.setup_s))
            .collect::<io::Result<_>>()
            .unwrap_or_else(|e| {
                res.fail(0, format!("set-up probe failed: {e}"));
                Vec::new()
            });
    }
    for _ in 0..n.reps {
        res.attempted += 1;
        match served_session(&stream, scratch, true) {
            Ok(s) => sessions.push(s),
            Err(e) => {
                res.fail(1, format!("session failed: {e}"));
                break;
            }
        }
        if trace {
            let t0 = Instant::now();
            replica_session(&frames, scratch, false).expect("replica session");
            let untraced_s = t0.elapsed().as_secs_f64();
            let traced = replica_session(&frames, scratch, true).expect("replica session");
            replicas.push(TracedSession {
                replica: traced,
                untraced_s,
            });
        }
    }
    let _ = std::fs::remove_dir_all(scratch);
    let reports: Vec<&String> = sessions.iter().map(|s| &s.report).collect();
    if reports.windows(2).any(|p| p[0] != p[1]) {
        res.fail(
            0,
            "session reports differ between sessions of the same stream",
        );
    }
    if let Some(r) = reports.first() {
        res.digest = Fnv::hex_of(r.as_bytes());
        res.extra.push(("report_digest", res.digest.clone()));
        for t in &replicas {
            if t.replica.report != **r {
                res.fail(1, "replica session report differs from the served one");
            }
        }
    }
    if sessions.is_empty() {
        return res;
    }
    let col = |f: fn(&Session) -> f64| sessions.iter().map(f).collect::<Vec<_>>();
    if !trace {
        // The session is the unit: each metric keeps its best session.
        let nf = events as f64;
        let mut rates = [
            BestMetric::rate("ingest_ev_per_s", "1/s", nf),
            BestMetric::rate("session_ev_per_s", "1/s", nf),
            BestMetric::time("finish_ms", "ms", 1e3),
        ];
        for s in &sessions {
            rates[0].add(&[s.ingest_s]);
            rates[1].add(&[s.session_s]);
            rates[2].add(&[s.finish_s]);
        }
        res.metrics = vec![
            metric("setup_s", best(&res.setups), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ];
        res.metrics.extend(rates.iter().map(BestMetric::to_metric));
        res.best = rates.to_vec();
        res.timings = vec![
            ("serve setup_s".into(), sample_summary(&res.setups)),
            (
                "serve session s".into(),
                sample_summary(&col(|s| s.session_s)),
            ),
            (
                "serve finish s".into(),
                sample_summary(&col(|s| s.finish_s)),
            ),
        ];
    } else {
        res.metrics = layer_metrics(&replicas, &sessions, &mut res.failures);
    }
    res
}

/// One traced replica session with the untraced timings it is compared to.
struct TracedSession {
    replica: Replica,
    /// Wall seconds of the same replica with the tracer off, run right
    /// after a served session.
    untraced_s: f64,
}

fn layer_metrics(
    replicas: &[TracedSession],
    sessions: &[Session],
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let med =
        |f: &dyn Fn(&TracedSession) -> f64| median(&replicas.iter().map(f).collect::<Vec<_>>());
    let ns = |name: &'static str| move |t: &TracedSession| t.replica.layers.ns(name) as f64;
    let coverage = med(&|t| t.replica.layers.coverage());
    if coverage < 0.95 {
        failures.push(format!(
            "serve layer spans cover {:.1}% of the traced run",
            coverage * 100.0
        ));
    }
    let first = &replicas[0].replica;
    vec![
        metric("trace.decode_ns", med(&ns("trace.decode")), "ns"),
        metric("trace.push_ns", med(&ns("trace.push")), "ns"),
        metric("trace.seal_ns", med(&ns("trace.seal")), "ns"),
        metric("trace.seal_bytes", first.seal_bytes as f64, "bytes"),
        metric("trace.generations", f64::from(first.generations), "count"),
        metric("analysis.absorb_ns", med(&ns("analysis.absorb")), "ns"),
        metric(
            "core.queue_depth_max",
            median(
                &sessions
                    .iter()
                    .map(|s| s.queue_depth_max as f64)
                    .collect::<Vec<_>>(),
            ),
            "events",
        ),
        // The best served session minus the best untraced replica of the
        // same work, sampled alternately: what the socket, the queue and
        // the client add. (Ingest alone cannot be compared: the 256k-event
        // queue lets the client finish writing while the server still has
        // a queue's worth of events to absorb.)
        metric(
            "core.transport_ns",
            (best(&sessions.iter().map(|s| s.session_s).collect::<Vec<_>>())
                - best(&replicas.iter().map(|t| t.untraced_s).collect::<Vec<_>>()))
                * 1e9,
            "ns",
        ),
        metric("trace.compact_ns", med(&ns("trace.compact")), "ns"),
        metric("analysis.finish_ns", med(&ns("analysis.finish")), "ns"),
        metric("core.report_ns", med(&ns("core.report")), "ns"),
        metric(
            "core.unattributed_ns.serve",
            med(&|t| t.replica.layers.unattributed_ns as f64),
            "ns",
        ),
        metric(
            "tracing_overhead",
            med(&|t| t.replica.layers.wall_ns as f64 / 1e9 / t.untraced_s),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_carries_candidates_and_permutes_threads_by_seed() {
        let a = Stream::new(1, 40_000);
        let b = Stream::new(2, 40_000);
        assert_ne!(a.lanes, b.lanes);
        assert!(a.lanes.iter().all(|p| {
            let mut s = *p;
            s.sort_unstable();
            s == [0, 1, 2, 3]
        }));
        let plan = analyze_jobs(&a.trace(), &AnalyzerConfig::default(), 1);
        assert!(
            !plan.candidates.is_empty(),
            "the stream must produce candidates"
        );
    }

    #[test]
    fn smoke_session_matches_replica_and_reference() {
        let dir = PathBuf::from(format!(".bench_run/smoke-{}", std::process::id()));
        let n = 150_000;
        let one = Repeats { reps: 1, setups: 2 };
        let r = run(7, one, true, n, &dir);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.attempted, 1);
        let want = Fnv::hex_of(reference_report(&Stream::new(7, n)).as_bytes());
        assert_eq!(r.digest, want, "served report equals the batch reference");
        let u = run(7, one, false, n, &dir);
        assert_eq!(u.attempted, 1);
        assert_eq!(u.digest, want);
        crate::stats::assert_listed(&r, "per_layer");
        crate::stats::assert_listed(&u, "end_to_end");
        assert!(u.metrics.iter().all(|m| m.value > 0.0), "{:?}", u.metrics);
    }
}
