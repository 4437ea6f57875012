//! The discrete-event simulation engine: the virtual-time runner of the
//! [`semantics`](crate::semantics) kernel.
//!
//! The kernel decides what each operation does; the engine decides when.
//! It owns the event queue, the virtual clock, timing noise, per-store
//! drain times, monitor calls, injected delays, TSV windows and the
//! [`RunResult`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use waffle_mem::{AccessKind, ObjectId, SiteId};

use crate::ids::ThreadId;
use crate::memory::{DrainPolicy, MemoryConfig, MemoryModel};
use crate::monitor::{AccessCtx, AccessRecord, ActiveDelay, Monitor, PreAction};
use crate::op::Op;
use crate::result::{
    AppException, BlockedBy, BlockedInterval, DelayRecord, ForkEdge, RecentOp, RunResult,
    SimException, ThreadContext, TsvViolation,
};
use crate::semantics::{BufferedStore, Effects, Kernel, Status, Step};
use crate::time::SimTime;
use crate::workload::Workload;

/// Engine configuration for one run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for timing noise (the run-to-run variation real machines have).
    pub seed: u64,
    /// Percentage (0–50) by which operation service times vary uniformly
    /// around their nominal value. Zero makes runs fully deterministic.
    pub timing_noise_pct: u32,
    /// Virtual-time budget; exceeding it marks the run timed out. Models
    /// the paper's test-case timeouts (Table 5/6, MQTT.Net).
    pub deadline: Option<SimTime>,
    /// Cost of a fork operation (charged to the parent; the child starts
    /// once the fork completes).
    pub fork_cost: SimTime,
    /// The memory subsystem: sequential consistency (default, stores
    /// globally visible immediately) or a weak model with per-thread store
    /// buffers (see [`crate::memory`]).
    pub memory: MemoryConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            timing_noise_pct: 3,
            deadline: None,
            fork_cost: SimTime::from_us(20),
            memory: MemoryConfig::default(),
        }
    }
}

impl SimConfig {
    /// A configuration with a specific noise seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Disables timing noise (bit-for-bit deterministic runs).
    pub fn deterministic(mut self) -> Self {
        self.timing_noise_pct = 0;
        self
    }

    /// Selects the memory subsystem configuration.
    pub fn with_memory(mut self, memory: MemoryConfig) -> Self {
        self.memory = memory;
        self
    }
}

#[derive(Debug, Clone)]
struct PendingAccess {
    obj: ObjectId,
    kind: AccessKind,
    site: SiteId,
    dur: SimTime,
    dyn_index: u64,
    delayed_by: SimTime,
}

/// The engine's side of one thread; its control state lives in the kernel.
#[derive(Debug)]
struct ThreadTiming {
    /// Generation of the thread's live queue event; older events are stale.
    gen: u64,
    /// When the thread last blocked.
    blocked_since: SimTime,
    /// An access whose injected delay is running.
    pending: Option<PendingAccess>,
    last_block: Option<BlockedInterval>,
    /// Ring buffer of the last instrumented accesses (bug-report context).
    recent: VecDeque<RecentOp>,
}

/// Depth of the per-thread recent-access ring buffer.
const RECENT_DEPTH: usize = 8;

/// Converts an index into the engine's thread table back into a
/// [`ThreadId`]. Every table entry was created through
/// [`ThreadId::try_new`] at spawn, so this cannot fail — the expect
/// documents the invariant instead of a bare `as u32` silently wrapping.
fn checked_thread_id(index: usize) -> ThreadId {
    ThreadId::try_new(index).expect("thread table index validated at spawn")
}

/// Converts a dense site-counter index back into a
/// [`SiteId`](waffle_mem::SiteId). The counter table is indexed by ids
/// that were already 32-bit, so this cannot fail.
fn checked_site_id(index: usize) -> SiteId {
    SiteId::try_new(index).expect("site counter index validated at registration")
}

/// Applies seeded timing noise of `pct` percent to a nominal duration.
///
/// The result never rounds a nonzero duration down to zero: a 1µs
/// compute at 3% noise used to floor to 0µs on factors below 100,
/// collapsing distinct schedule points onto one timestamp and turning
/// exact end-time assertions into a seed lottery. Real hardware jitter
/// shortens an operation; it does not make it free.
fn noised(rng: &mut SmallRng, pct: u32, dur: SimTime) -> SimTime {
    let pct = pct.min(50);
    if pct == 0 || dur == SimTime::ZERO {
        return dur;
    }
    let span = 2 * pct as u64;
    let factor = 100 - pct as u64 + rng.gen_range(0..=span);
    SimTime::from_us((dur.as_us().saturating_mul(factor) / 100).max(1))
}

#[derive(Debug, Clone, Copy)]
struct TsvWindow {
    thread: ThreadId,
    start: SimTime,
    end: SimTime,
    site: SiteId,
}

/// One kernel call the engine made, recorded in test builds so a
/// conformance test can replay the run on a time-free kernel.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
enum Transition {
    Step(ThreadId),
    Access(ThreadId),
    Commit(ThreadId, usize),
    DrainAll,
}

/// The simulator: executes one [`Workload`] under one [`Monitor`].
pub struct Simulator<'w> {
    workload: &'w Workload,
    config: SimConfig,
    rng: SmallRng,
    /// The execution state; buffered stores carry their drain time.
    kernel: Kernel<SimTime>,
    /// Reused effects record of the last kernel call.
    fx: Effects,
    threads: Vec<ThreadTiming>,
    queue: BinaryHeap<Reverse<(SimTime, u64, ThreadId, u64)>>,
    seq: u64,
    active_delays: Vec<ActiveDelay>,
    tsv_windows: HashMap<ObjectId, Vec<TsvWindow>>,
    /// Dense per-site dynamic-access counters, indexed by `SiteId`. The
    /// dispatch loop bumps these with a plain array index; they fold into
    /// the public `RunResult::site_dyn_counts` map once, at run end.
    site_dyn_counts: Vec<u64>,
    result: RunResult,
    max_time: SimTime,
    #[cfg(test)]
    log: Vec<Transition>,
}

impl<'w> Simulator<'w> {
    /// Creates a simulator for `workload` under `config`.
    pub fn new(workload: &'w Workload, config: SimConfig) -> Self {
        // Capacity hints for the hot structures: at least one thread per
        // script, and a few in-flight events per expected thread. Churn
        // workloads respawn the same scripts, so these are floors, not
        // bounds — but they absorb the growth reallocations of the
        // common case.
        let thread_hint = workload.scripts.len().max(8);
        Self {
            workload,
            rng: SmallRng::seed_from_u64(config.seed),
            kernel: Kernel::new(workload, config.memory.model),
            fx: Effects::default(),
            config,
            threads: Vec::with_capacity(thread_hint),
            queue: BinaryHeap::with_capacity(thread_hint * 4),
            seq: 0,
            active_delays: Vec::new(),
            tsv_windows: HashMap::new(),
            site_dyn_counts: vec![0; workload.sites.len()],
            result: RunResult::default(),
            max_time: SimTime::ZERO,
            #[cfg(test)]
            log: Vec::new(),
        }
    }

    /// Convenience: run `workload` to completion under `monitor`.
    pub fn run(workload: &Workload, config: SimConfig, monitor: &mut dyn Monitor) -> RunResult {
        let sim = Simulator::new(workload, config);
        sim.execute(monitor)
    }

    /// Executes the workload to completion and returns the run result.
    pub fn execute(mut self, monitor: &mut dyn Monitor) -> RunResult {
        self.run_queue(monitor);
        self.finish_run(monitor)
    }

    fn run_queue(&mut self, monitor: &mut dyn Monitor) {
        self.spawn_timing(ThreadId(0), SimTime::ZERO);
        while let Some(Reverse((t, gen, tid, _))) = self.queue.pop() {
            if let Some(deadline) = self.config.deadline {
                if t > deadline {
                    self.result.timed_out = true;
                    self.max_time = deadline;
                    break;
                }
            }
            if self.threads[tid.0 as usize].gen != gen {
                continue; // Stale event.
            }
            // Only a ready thread has a live event: blocking and exiting
            // schedule nothing, and every wake-up bumps the generation.
            debug_assert!(self.kernel.is_ready(tid));
            self.step(tid, t, monitor);
        }
    }

    fn finish_run(&mut self, monitor: &mut dyn Monitor) -> RunResult {
        // Any store still buffered when the run ends drains now: its write
        // already executed, there are no more readers to observe an order,
        // and heap stats must reflect every committed store.
        #[cfg(test)]
        self.log.push(Transition::DrainAll);
        self.kernel.drain_all();
        // Threads still blocked when the queue drains are stranded (e.g.
        // their signaller died from an exception).
        for (i, (th, k)) in self.threads.iter().zip(self.kernel.threads()).enumerate() {
            if let Status::Blocked(by) = k.status {
                let since = th.blocked_since;
                self.result.blocked.push(BlockedInterval {
                    thread: checked_thread_id(i),
                    start: since,
                    end: self.max_time.max(since),
                    by,
                });
                self.result.stranded_threads += 1;
            }
        }
        self.result.end_time = self.max_time;
        self.result.heap = self.kernel.heap().stats();
        self.result.threads_spawned = u32::try_from(self.threads.len())
            .expect("thread count outgrew u32 (checked at spawn, so unreachable)");
        // Fold the dense counters into the public map (accessed sites only,
        // matching the old per-access `entry()` behaviour).
        self.result.site_dyn_counts = self
            .site_dyn_counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (checked_site_id(i), *c))
            .collect();
        let result = std::mem::take(&mut self.result);
        monitor.on_run_end(&result);
        result
    }

    fn schedule(&mut self, tid: ThreadId, at: SimTime) {
        let th = &mut self.threads[tid.0 as usize];
        th.gen += 1;
        let gen = th.gen;
        self.seq += 1;
        self.queue.push(Reverse((at, gen, tid, self.seq)));
    }

    /// Adds the timing side of a thread the kernel just created.
    fn spawn_timing(&mut self, tid: ThreadId, at: SimTime) {
        debug_assert_eq!(tid.0 as usize, self.threads.len());
        self.threads.push(ThreadTiming {
            gen: 0,
            blocked_since: SimTime::ZERO,
            pending: None,
            last_block: None,
            recent: VecDeque::with_capacity(RECENT_DEPTH),
        });
        self.schedule(tid, at);
    }

    fn noised(&mut self, dur: SimTime) -> SimTime {
        noised(&mut self.rng, self.config.timing_noise_pct, dur)
    }

    fn prune_active_delays(&mut self, now: SimTime) {
        self.active_delays.retain(|d| d.end > now);
    }

    fn step(&mut self, tid: ThreadId, t: SimTime, monitor: &mut dyn Monitor) {
        self.max_time = self.max_time.max(t);
        // Commit every store whose drain time has arrived — across all
        // threads, since this thread may be about to read shared memory.
        // Queue pops are globally time-ordered, so draining up to `t` here
        // never commits a store "early" relative to any observer.
        if self.kernel.buffered() > 0 {
            self.drain_due(t);
        }
        // A pending access means the injected delay elapsed; perform it.
        if let Some(pending) = self.threads[tid.0 as usize].pending.take() {
            self.perform_access(tid, t, pending, monitor);
            return;
        }
        let op = self.kernel.op_at(self.workload, tid);
        if op.is_some() {
            self.result.ops_executed += 1;
        }
        if let Some(&Op::Access {
            obj,
            kind,
            site,
            dur,
        }) = op
        {
            self.begin_access(tid, t, obj, kind, site, dur, monitor);
            return;
        }
        #[cfg(test)]
        self.log.push(Transition::Step(tid));
        let step = self.kernel.step(self.workload, tid, &mut self.fx);
        // Join targets that had already exited are joined at once.
        for &done in &self.fx.joined {
            monitor.on_join(tid, done, t);
        }
        match step {
            Step::Advanced => {
                let at = match op {
                    Some(&Op::Compute { dur }) => t + self.noised(dur),
                    Some(&Op::Pad { dur }) => t + dur,
                    _ => t,
                };
                self.wake(t, monitor);
                self.schedule(tid, at);
            }
            Step::Blocked(_) => self.threads[tid.0 as usize].blocked_since = t,
            Step::Exited => {
                if let Some(&Op::Throw { site }) = op {
                    self.result.app_exceptions.push(AppException {
                        site,
                        thread: tid,
                        time: t,
                    });
                }
                self.exited(tid, t, monitor);
            }
            Step::Forked(child) => {
                let start = t + self.config.fork_cost;
                self.spawn_timing(child, start);
                self.result.forks.push(ForkEdge {
                    parent: tid,
                    child,
                    time: t,
                });
                monitor.on_fork(tid, child, t);
                self.schedule(tid, start);
            }
            Step::TaskSpawned(task, parent) => {
                self.result.tasks_spawned = task.0 + 1;
                monitor.on_task_spawn(parent, task, t);
                self.schedule(tid, t);
            }
            Step::TaskStarted(task) => {
                monitor.on_task_start(task, tid, t);
                self.schedule(tid, t);
            }
            Step::TaskEnded(task) => {
                let task = task.expect("a popped frame implies a running task");
                monitor.on_task_end(task, tid, t);
                self.schedule(tid, t);
            }
        }
    }

    /// Commits every store across all buffers whose drain time has
    /// arrived, earliest first (ties broken by thread id), among the
    /// entries the model lets commit next.
    fn drain_due(&mut self, now: SimTime) {
        loop {
            let mut best: Option<(SimTime, ThreadId, usize)> = None;
            for (t, th) in self.kernel.threads().iter().enumerate() {
                if th.buffer.is_empty() {
                    continue;
                }
                let t = ThreadId(t as u32);
                for (i, e) in self.kernel.committable(t) {
                    if e.tag <= now && best.is_none_or(|(bt, bi, _)| (e.tag, t) < (bt, bi)) {
                        best = Some((e.tag, t, i));
                    }
                }
            }
            let Some((_, t, i)) = best else { return };
            self.commit_store(t, i);
        }
    }

    fn commit_store(&mut self, tid: ThreadId, i: usize) {
        #[cfg(test)]
        self.log.push(Transition::Commit(tid, i));
        self.kernel.commit_store(tid, i, &mut self.fx);
    }

    /// Resumes, at time `t`, the threads the last kernel call woke.
    #[inline]
    fn wake(&mut self, t: SimTime, monitor: &mut dyn Monitor) {
        for i in 0..self.fx.woken.len() {
            let (w, by) = self.fx.woken[i];
            let th = &mut self.threads[w.0 as usize];
            // Resume no earlier than the block start (cannot happen under
            // monotone virtual time, but kept safe).
            let resume = t.max(th.blocked_since);
            let interval = BlockedInterval {
                thread: w,
                start: th.blocked_since,
                end: resume,
                by,
            };
            self.result.blocked.push(interval);
            th.last_block = Some(interval);
            self.schedule(w, resume);
            if by == BlockedBy::Join {
                for &joined in &self.kernel.thread(w).join_targets {
                    monitor.on_join(w, joined, t);
                }
            }
        }
    }

    /// Engine side of a thread exit the kernel just performed.
    fn exited(&mut self, tid: ThreadId, t: SimTime, monitor: &mut dyn Monitor) {
        self.max_time = self.max_time.max(t);
        self.wake(t, monitor);
        monitor.on_thread_exit(tid, t);
    }

    #[allow(clippy::too_many_arguments)]
    fn begin_access(
        &mut self,
        tid: ThreadId,
        t: SimTime,
        obj: ObjectId,
        kind: AccessKind,
        site: SiteId,
        dur: SimTime,
        monitor: &mut dyn Monitor,
    ) {
        let dyn_index = {
            let idx = site.0 as usize;
            if idx >= self.site_dyn_counts.len() {
                // Sites are registered up front, so this only triggers for
                // monitors that synthesize sites mid-run.
                self.site_dyn_counts.resize(idx + 1, 0);
            }
            let c = &mut self.site_dyn_counts[idx];
            let dyn_index = *c;
            *c += 1;
            dyn_index
        };
        self.prune_active_delays(t);
        let action = {
            let ctx = AccessCtx {
                time: t,
                thread: tid,
                site,
                obj,
                kind,
                dyn_index,
                task: self.kernel.thread(tid).task,
                active_delays: &self.active_delays,
                last_block: self.threads[tid.0 as usize].last_block.as_ref(),
            };
            monitor.on_access_pre(&ctx)
        };
        let pending = PendingAccess {
            obj,
            kind,
            site,
            dur,
            dyn_index,
            delayed_by: SimTime::ZERO,
        };
        match action {
            PreAction::Proceed => self.perform_access(tid, t, pending, monitor),
            PreAction::Delay(d) => {
                self.result.delays.push(DelayRecord {
                    thread: tid,
                    site,
                    obj,
                    start: t,
                    dur: d,
                });
                self.active_delays.push(ActiveDelay {
                    thread: tid,
                    site,
                    end: t + d,
                });
                let pending = PendingAccess {
                    delayed_by: d,
                    ..pending
                };
                // Under a weak model with a drain window, a delay at a
                // *store* does not pause the thread: it stretches the
                // store's residence in the buffer instead. The thread
                // publishes its downstream signals on time while the
                // store is still invisible — which is how injection
                // widens the stale-read window other threads race into.
                // Loads (and every access under SC or drain-every-store)
                // keep the classical pause semantics.
                let stretches = self.config.memory.delay_stretches_drain()
                    && matches!(kind, AccessKind::Init | AccessKind::Dispose);
                if stretches {
                    self.perform_access(tid, t, pending, monitor);
                } else {
                    self.threads[tid.0 as usize].pending = Some(pending);
                    self.schedule(tid, t + d);
                }
            }
        }
    }

    fn perform_access(
        &mut self,
        tid: ThreadId,
        t: SimTime,
        p: PendingAccess,
        monitor: &mut dyn Monitor,
    ) {
        self.max_time = self.max_time.max(t);
        self.result.instrumented_ops += 1;
        let dur = self.noised(p.dur);
        #[cfg(test)]
        self.log.push(Transition::Access(tid));
        let rng = &mut self.rng;
        let (pct, memory) = (self.config.timing_noise_pct, self.config.memory);
        let drain_at = |buf: &[BufferedStore<SimTime>], obj| {
            // A buffered store drains a noised latency after it completes;
            // an injected delay at it (`delayed_by`, when the delay
            // stretches the drain) lands on the drain time, widening the
            // window in which other threads read the stale value.
            let DrainPolicy::Window { latency } = memory.drain else {
                return SimTime::ZERO;
            };
            let at = t + dur + noised(rng, pct, latency) + p.delayed_by;
            // FIFO preservation: a store never drains before an earlier
            // store it is ordered after — the whole buffer under TSO,
            // same-location entries under PSO. This is what keeps a
            // PSO-only plant unexposable under TSO even with injection.
            let floor = match memory.model {
                MemoryModel::Pso => buf.iter().rev().find(|e| e.obj == obj),
                _ => buf.last(),
            };
            floor.map_or(at, |f| at.max(f.tag))
        };
        let outcome = self
            .kernel
            .commit_access(self.workload, tid, &mut self.fx, drain_at);
        if memory.drain == DrainPolicy::EveryStore && !self.kernel.thread(tid).buffer.is_empty() {
            // Drain-every-store: the buffer holds only this store, and it
            // commits at once.
            self.commit_store(tid, 0);
        }
        if p.kind == AccessKind::UnsafeApiCall && outcome.is_ok() {
            // TSVD trap semantics: a thread paused by an injected delay is
            // conceptually *at* the call boundary for the whole pause, so
            // the conflict window opens when the delay started.
            self.check_tsv(tid, t - p.delayed_by, t + dur, p.obj, p.site);
        }
        {
            let th = &mut self.threads[tid.0 as usize];
            if th.recent.len() == RECENT_DEPTH {
                th.recent.pop_front();
            }
            th.recent.push_back(RecentOp {
                site: p.site,
                kind: p.kind,
                obj: p.obj,
                time: t,
            });
        }
        let rec = AccessRecord {
            time: t,
            thread: tid,
            site: p.site,
            obj: p.obj,
            kind: p.kind,
            dyn_index: p.dyn_index,
            task: self.kernel.thread(tid).task,
            delayed_by: p.delayed_by,
            outcome,
        };
        monitor.on_access_post(&rec);
        match outcome {
            Ok(_) => {
                let overhead = monitor.instr_overhead(p.kind);
                self.schedule(tid, t + dur + overhead);
            }
            Err(error) => {
                if self.result.exceptions.is_empty() {
                    // First manifestation: snapshot every thread's context
                    // (the §5 bug report records "stack traces for all
                    // threads").
                    self.result.thread_contexts = self
                        .threads
                        .iter()
                        .zip(self.kernel.threads())
                        .enumerate()
                        .map(|(i, (th, k))| ThreadContext {
                            thread: checked_thread_id(i),
                            script: self.workload.script(k.script).name.clone(),
                            faulting: checked_thread_id(i) == tid,
                            recent: th.recent.iter().copied().collect(),
                        })
                        .collect();
                }
                self.result.exceptions.push(SimException {
                    error,
                    thread: tid,
                    time: t,
                });
                // The kernel already killed the thread.
                self.exited(tid, t, monitor);
            }
        }
    }

    fn check_tsv(&mut self, tid: ThreadId, start: SimTime, end: SimTime, obj: ObjectId, site: SiteId) {
        let windows = self.tsv_windows.entry(obj).or_default();
        windows.retain(|w| w.end > start);
        for w in windows.iter() {
            if w.thread != tid && w.start < end && w.end > start {
                self.result.tsv_violations.push(TsvViolation {
                    obj,
                    first_site: w.site,
                    second_site: site,
                    threads: (w.thread, tid),
                    time: start,
                });
            }
        }
        windows.push(TsvWindow {
            thread: tid,
            start,
            end,
            site,
        });
    }
}

#[cfg(test)]
mod conformance;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Cond;
    use crate::time::{ms, us};
    use crate::workload::WorkloadBuilder;

    fn det() -> SimConfig {
        SimConfig::with_seed(1).deterministic()
    }

    /// Workload: main inits, forks a worker that uses, joins, disposes.
    fn safe_workload() -> Workload {
        let mut b = WorkloadBuilder::new("safe");
        let o = b.object("o");
        let w = b.script("worker", |s| {
            s.compute(us(10)).use_(o, "W.use:1", us(5));
        });
        let m = b.script("main", |s| {
            s.init(o, "M.init:1", us(10))
                .fork(w)
                .join_children()
                .dispose(o, "M.dispose:9", us(5));
        });
        b.main(m);
        b.build()
    }

    #[test]
    fn safe_workload_runs_clean() {
        let w = safe_workload();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(!r.manifested());
        assert!(!r.timed_out);
        assert_eq!(r.threads_spawned, 2);
        assert_eq!(r.heap.inits, 1);
        assert_eq!(r.heap.uses, 1);
        assert_eq!(r.heap.disposes, 1);
        assert_eq!(r.stranded_threads, 0);
        // Join must have ordered the dispose after the worker's use.
        assert!(r.blocked.iter().any(|b| b.by == BlockedBy::Join));
    }

    #[test]
    fn virtual_time_accumulates_service_times() {
        let mut b = WorkloadBuilder::new("t");
        let m = b.script("main", |s| {
            s.compute(ms(1)).compute(ms(2));
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert_eq!(r.end_time, ms(3));
        assert_eq!(r.ops_executed, 2);
    }

    #[test]
    fn use_before_init_race_depends_on_timing() {
        // Main forks a worker that uses the object after 50µs; main inits
        // at 100µs: the use strikes a NULL reference.
        let mut b = WorkloadBuilder::new("ubi");
        let o = b.object("o");
        let wk = b.script("worker", |s| {
            s.compute(us(50)).use_(o, "W.use:1", us(5));
        });
        let m = b.script("main", |s| {
            s.fork(wk).compute(us(100)).init(o, "M.init:1", us(5));
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(r.manifested());
        assert_eq!(
            r.exceptions[0].error.kind,
            waffle_mem::NullRefKind::UseBeforeInit
        );
        // The faulting thread died; main completed.
        assert_eq!(r.exceptions[0].thread, ThreadId(1));
    }

    #[test]
    fn delay_injection_reorders_accesses() {
        // Init at t=0 (main), use at t=10µs (worker) — safe without delays.
        // A monitor that delays the use... wait, delaying the *use* makes
        // it run later, still after init: safe. Delay the *init* instead,
        // pushing it past the use: use-before-init manifests. This is the
        // paper's Fig. 2 order-violation timing condition.
        struct DelayInit;
        impl Monitor for DelayInit {
            fn on_access_pre(&mut self, ctx: &AccessCtx<'_>) -> PreAction {
                if ctx.kind == AccessKind::Init {
                    PreAction::Delay(ms(1))
                } else {
                    PreAction::Proceed
                }
            }
        }
        let mut b = WorkloadBuilder::new("delayable");
        let o = b.object("o");
        let wk = b.script("worker", |s| {
            s.compute(us(10)).use_(o, "W.use:1", us(5));
        });
        let m = b.script("main", |s| {
            s.fork(wk).init(o, "M.init:1", us(5)).join_children();
        });
        b.main(m);
        let w = b.build();
        // Without delays: clean.
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(!r.manifested());
        // With the init delayed: the worker's use hits NULL.
        let r = Simulator::run(&w, det(), &mut DelayInit);
        assert!(r.manifested());
        assert_eq!(r.delays.len(), 1);
        assert_eq!(r.delays[0].dur, ms(1));
    }

    #[test]
    fn locks_provide_mutual_exclusion_and_fifo_handoff() {
        let mut b = WorkloadBuilder::new("locks");
        let o = b.object("o");
        let lk = b.lock("mu");
        let wk = b.script("worker", |s| {
            s.acquire(lk).compute(ms(1)).release(lk);
        });
        let m = b.script("main", |s| {
            s.init(o, "M.init:1", us(1))
                .fork(wk)
                .fork(wk)
                .acquire(lk)
                .compute(ms(1))
                .release(lk)
                .join_children();
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(!r.manifested());
        // Three 1ms critical sections serialize: end-to-end ≥ 3ms.
        assert!(r.end_time >= ms(3), "end={}", r.end_time);
        // Two of the three threads must have blocked on the lock.
        let lock_blocks = r
            .blocked
            .iter()
            .filter(|b| matches!(b.by, BlockedBy::Lock(_)))
            .count();
        assert_eq!(lock_blocks, 2);
    }

    #[test]
    fn events_are_sticky() {
        let mut b = WorkloadBuilder::new("ev");
        let ev = b.event("done");
        let wk = b.script("worker", |s| {
            s.wait(ev).compute(us(1));
        });
        let m = b.script("main", |s| {
            s.signal(ev).fork(wk).join_children();
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        // The worker waited after the signal: no block recorded for it.
        assert!(r
            .blocked
            .iter()
            .all(|bi| !matches!(bi.by, BlockedBy::Event(_))));
        assert_eq!(r.stranded_threads, 0);
    }

    #[test]
    fn event_wait_blocks_until_signal() {
        let mut b = WorkloadBuilder::new("ev2");
        let ev = b.event("go");
        let wk = b.script("worker", |s| {
            s.wait(ev).compute(us(1));
        });
        let m = b.script("main", |s| {
            s.fork(wk).compute(ms(2)).signal(ev).join_children();
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        let ev_block = r
            .blocked
            .iter()
            .find(|bi| matches!(bi.by, BlockedBy::Event(_)))
            .expect("worker must block on event");
        assert!(ev_block.len() >= ms(1));
    }

    #[test]
    fn faulting_thread_strands_its_joiner_but_run_completes() {
        // The worker faults before signalling; main joins it fine (death
        // wakes joiners), but a second waiter on the event is stranded.
        let mut b = WorkloadBuilder::new("strand");
        let o = b.object("o");
        let ev = b.event("never");
        let waiter = b.script("waiter", |s| {
            s.wait(ev).compute(us(1));
        });
        let faulty = b.script("faulty", |s| {
            s.use_(o, "F.use:1", us(1)).signal(ev);
        });
        let m = b.script("main", |s| {
            s.fork(waiter).fork(faulty).join_script(faulty);
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(r.manifested());
        assert_eq!(r.stranded_threads, 1);
    }

    #[test]
    fn faulting_thread_releases_its_locks() {
        let mut b = WorkloadBuilder::new("unwind");
        let o = b.object("o");
        let lk = b.lock("mu");
        let faulty = b.script("faulty", |s| {
            s.acquire(lk).use_(o, "F.use:1", us(1)).release(lk);
        });
        let m = b.script("main", |s| {
            s.fork(faulty)
                .compute(us(50))
                .acquire(lk)
                .compute(us(1))
                .release(lk)
                .join_children();
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(r.manifested());
        // Main must not be stranded on the lock.
        assert_eq!(r.stranded_threads, 0);
    }

    #[test]
    fn tsv_overlap_detected_only_across_threads() {
        let mut b = WorkloadBuilder::new("tsv");
        let o = b.object("dict");
        let wk = b.script("worker", |s| {
            s.unsafe_call(o, "W.Add:1", ms(1));
        });
        let m = b.script("main", |s| {
            s.init(o, "M.init:1", us(1))
                .fork(wk)
                .unsafe_call(o, "M.Add:5", ms(1))
                .join_children();
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert_eq!(r.tsv_violations.len(), 1);
        let v = r.tsv_violations[0];
        assert_ne!(v.threads.0, v.threads.1);
    }

    #[test]
    fn sequential_unsafe_calls_do_not_violate() {
        let mut b = WorkloadBuilder::new("tsv-seq");
        let o = b.object("dict");
        let m = b.script("main", |s| {
            s.init(o, "M.init:1", us(1))
                .unsafe_call(o, "M.Add:5", ms(1))
                .unsafe_call(o, "M.Add:6", ms(1));
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(r.tsv_violations.is_empty());
    }

    #[test]
    fn deadline_marks_timeout() {
        let mut b = WorkloadBuilder::new("slow");
        let m = b.script("main", |s| {
            s.compute(ms(10)).compute(ms(10));
        });
        b.main(m);
        let w = b.build();
        let cfg = SimConfig {
            deadline: Some(ms(5)),
            ..det()
        };
        let r = Simulator::run(&w, cfg, &mut crate::monitor::NullMonitor);
        assert!(r.timed_out);
        assert_eq!(r.end_time, ms(5));
    }

    #[test]
    fn skip_if_branches_on_heap_state() {
        let mut b = WorkloadBuilder::new("branch");
        let o = b.object("o");
        let flag = b.object("flag");
        let m = b.script("main", |s| {
            // o is NULL: skip the init of flag, then check flag is NULL.
            s.skip_if(o, Cond::IsNull, 1)
                .init(flag, "M.flag:1", us(1))
                .init(o, "M.o:2", us(1))
                .skip_if(flag, Cond::IsNull, 1)
                .use_(flag, "M.useflag:3", us(1)); // skipped (flag NULL)
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(!r.manifested());
        assert_eq!(r.heap.inits, 1); // Only `o` got initialized.
        assert_eq!(r.heap.uses, 0);
    }

    #[test]
    fn timing_noise_perturbs_end_time_but_preserves_safety() {
        let w = safe_workload();
        let r1 = Simulator::run(
            &w,
            SimConfig {
                seed: 1,
                timing_noise_pct: 10,
                ..SimConfig::default()
            },
            &mut crate::monitor::NullMonitor,
        );
        let r2 = Simulator::run(
            &w,
            SimConfig {
                seed: 2,
                timing_noise_pct: 10,
                ..SimConfig::default()
            },
            &mut crate::monitor::NullMonitor,
        );
        assert!(!r1.manifested() && !r2.manifested());
        assert_ne!(r1.end_time, r2.end_time);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let w = safe_workload();
        let cfg = SimConfig {
            seed: 42,
            timing_noise_pct: 10,
            ..SimConfig::default()
        };
        let r1 = Simulator::run(&w, cfg.clone(), &mut crate::monitor::NullMonitor);
        let r2 = Simulator::run(&w, cfg, &mut crate::monitor::NullMonitor);
        assert_eq!(r1.end_time, r2.end_time);
        assert_eq!(r1.ops_executed, r2.ops_executed);
    }

    #[test]
    fn instr_overhead_is_charged_per_access() {
        let mut b = WorkloadBuilder::new("oh");
        let o = b.object("o");
        let m = b.script("main", |s| {
            s.init(o, "a", us(10)).use_(o, "b", us(10)).dispose(o, "c", us(10));
        });
        b.main(m);
        let w = b.build();
        let base = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        let mut oh = crate::monitor::OverheadMonitor { per_access: us(5) };
        let inst = Simulator::run(&w, det(), &mut oh);
        assert_eq!(inst.end_time, base.end_time + us(15));
    }

    // ---- weak-memory (store-buffer) semantics -------------------------

    use crate::memory::{DrainPolicy, MemoryConfig, MemoryModel};

    fn weak_cfg(model: MemoryModel) -> SimConfig {
        det().with_memory(MemoryConfig::weak(model))
    }

    /// The canonical TSO bug shape: publish-by-event without a fence. The
    /// event edge orders the *signal* after the *init instruction*, but the
    /// init's store is still in main's buffer when the consumer wakes.
    fn tso_handoff(with_fence: bool) -> Workload {
        let mut b = WorkloadBuilder::new("tso.handoff");
        let o = b.object("conn");
        let ready = b.event("ready");
        let wk = b.script("consumer", move |s| {
            s.wait(ready).use_(o, "C.use:1", us(5));
        });
        let m = b.script("main", move |s| {
            s.fork(wk).init(o, "M.init:1", us(10));
            if with_fence {
                s.fence();
            }
            s.signal(ready).join_children();
        });
        b.main(m);
        b.build()
    }

    #[test]
    fn tso_store_buffer_exposes_unfenced_event_handoff() {
        let w = tso_handoff(false);
        // Sequentially consistent: the init is globally visible the moment
        // it executes, so the event edge is enough.
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(!r.manifested());
        // TSO: the consumer wakes while the init still sits in main's
        // store buffer (drain window > signal latency) and reads NULL.
        let r = Simulator::run(&w, weak_cfg(MemoryModel::Tso), &mut crate::monitor::NullMonitor);
        assert!(r.manifested(), "consumer must observe the pre-init value");
        assert_eq!(
            r.exceptions[0].error.kind,
            waffle_mem::NullRefKind::UseBeforeInit
        );
    }

    #[test]
    fn fence_restores_the_handoff_under_tso_and_pso() {
        let w = tso_handoff(true);
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let r = Simulator::run(&w, weak_cfg(model), &mut crate::monitor::NullMonitor);
            assert!(!r.manifested(), "fence must drain the buffer under {model}");
        }
    }

    #[test]
    fn drain_at_every_store_is_observationally_sequential() {
        // With the buffer drained inline at every store, Tso/Pso runs are
        // indistinguishable from Sc — the byte-identity invariant the rest
        // of the repo's baselines rest on.
        for wl in [safe_workload(), tso_handoff(false)] {
            let sc = Simulator::run(&wl, det(), &mut crate::monitor::NullMonitor);
            for model in [MemoryModel::Tso, MemoryModel::Pso] {
                let cfg = det().with_memory(MemoryConfig {
                    model,
                    drain: DrainPolicy::EveryStore,
                });
                let weak = Simulator::run(&wl, cfg, &mut crate::monitor::NullMonitor);
                assert_eq!(sc.end_time, weak.end_time);
                assert_eq!(sc.ops_executed, weak.ops_executed);
                assert_eq!(sc.manifested(), weak.manifested());
                assert_eq!(sc.heap, weak.heap);
            }
        }
    }

    #[test]
    fn pso_reorders_per_object_streams_where_tso_keeps_fifo() {
        // Main publishes data then a flag. A delay injected at the data
        // init stretches its drain; under PSO the flag (a different
        // object) drains on time, so the consumer sees flag=Live while
        // data is still NULL. Under TSO the flag's drain is floored at
        // the data's (total FIFO), so the consumer skips cleanly.
        struct DelayDataInit(ObjectId);
        impl Monitor for DelayDataInit {
            fn on_access_pre(&mut self, ctx: &AccessCtx<'_>) -> PreAction {
                if ctx.kind == AccessKind::Init && ctx.obj == self.0 {
                    PreAction::Delay(ms(1))
                } else {
                    PreAction::Proceed
                }
            }
        }
        let mut b = WorkloadBuilder::new("pso.flag");
        let data = b.object("data");
        let flag = b.object("flag");
        let wk = b.script("consumer", move |s| {
            s.compute(us(200))
                .skip_if(flag, Cond::IsNull, 1)
                .use_(data, "C.use:1", us(5));
        });
        let m = b.script("main", move |s| {
            s.fork(wk)
                .init(data, "M.data:1", us(10))
                .init(flag, "M.flag:2", us(10))
                // Keep main busy: join is a flush point, and joining
                // immediately would publish both stores before the
                // consumer's read.
                .compute(ms(2))
                .join_children();
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, weak_cfg(MemoryModel::Pso), &mut DelayDataInit(data));
        assert!(r.manifested(), "PSO must let the flag outrun the data");
        assert_eq!(
            r.exceptions[0].error.kind,
            waffle_mem::NullRefKind::UseBeforeInit
        );
        let r = Simulator::run(&w, weak_cfg(MemoryModel::Tso), &mut DelayDataInit(data));
        assert!(!r.manifested(), "TSO's total store FIFO must protect it");
        let r = Simulator::run(&w, det(), &mut DelayDataInit(data));
        assert!(!r.manifested(), "SC pauses the thread instead");
    }

    #[test]
    fn injected_delay_stretches_the_drain_without_pausing_the_thread() {
        struct DelayInit;
        impl Monitor for DelayInit {
            fn on_access_pre(&mut self, ctx: &AccessCtx<'_>) -> PreAction {
                if ctx.kind == AccessKind::Init {
                    PreAction::Delay(ms(5))
                } else {
                    PreAction::Proceed
                }
            }
        }
        let w = tso_handoff(true); // fenced: clean without injection
        let r = Simulator::run(&w, weak_cfg(MemoryModel::Tso), &mut crate::monitor::NullMonitor);
        assert!(!r.manifested());
        // Under SC the same delay pauses main before the init, which only
        // pushes the whole publish later: still clean.
        let r = Simulator::run(&w, det(), &mut DelayInit);
        assert!(!r.manifested());
        assert_eq!(r.delays.len(), 1);
        // Under TSO the delay lands on the *drain*: main reaches the fence
        // (a flush point) which commits the store, so the fenced variant
        // stays clean — but the unfenced one now has a 5ms stale window.
        let r = Simulator::run(&w, weak_cfg(MemoryModel::Tso), &mut DelayInit);
        assert!(!r.manifested());
        let unfenced = tso_handoff(false);
        let r = Simulator::run(&unfenced, weak_cfg(MemoryModel::Tso), &mut DelayInit);
        assert!(r.manifested());
        // The thread ran ahead: the recorded delay did not shift its clock,
        // so the manifestation happens inside the stale window, well before
        // the 5ms pause would have ended.
        assert!(r.exceptions[0].time < ms(5));
    }

    #[test]
    fn residual_buffers_drain_at_end_of_run() {
        // A store still buffered when its thread exits must land in shared
        // memory: heap stats and final cell state agree with SC.
        let mut b = WorkloadBuilder::new("residual");
        let o = b.object("o");
        let m = b.script("main", move |s| {
            s.init(o, "M.init:1", us(1));
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, weak_cfg(MemoryModel::Tso), &mut crate::monitor::NullMonitor);
        assert!(!r.manifested());
        assert_eq!(r.heap.inits, 1);
    }
}
