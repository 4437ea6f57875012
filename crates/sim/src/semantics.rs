//! The execution semantics of the simulated instruction set, written once.
//!
//! [`Kernel`] is a pure, time-free step machine over one [`Workload`]: it
//! owns every rule that decides *what* an operation does, and nothing that
//! decides *when*. Two callers run it:
//!
//! - the discrete-event engine ([`crate::engine`]) adds the time policy —
//!   event queue, virtual clock, timing noise, per-store drain times,
//!   monitor calls, injected delays and TSV windows;
//! - the schedule oracle in `waffle-fuzz` adds the search — which thread
//!   runs next, when a buffered store commits, and the memo key.
//!
//! The kernel owns per-thread control state (script, pc, task frames,
//! status, held locks, children, join targets), FIFO locks, sticky events,
//! the task queue, the heap (through [`Heap`], whose transition table is
//! the only §3.1 table) and the per-thread store buffers of the weak
//! models. Its three entry points — [`Kernel::step`] (a non-access op),
//! [`Kernel::commit_access`] (the access a thread is parked at) and
//! [`Kernel::commit_store`] (one buffered store) — report what they did
//! through a [`Step`] or the access outcome plus an [`Effects`] record:
//! the threads woken (in a deterministic order), the join targets that
//! had already exited, and the transition's [`Footprint`].

use std::collections::VecDeque;

use waffle_mem::{AccessOutcome, Heap, NullRefError, ObjectId, RefState};

use crate::ids::{EventId, LockId, ScriptId, ThreadId};
use crate::memory::MemoryModel;
use crate::op::{Cond, Op};
use crate::result::BlockedBy;
use crate::tasks::{TaskId, TaskParent};
use crate::workload::Workload;

/// Whether a thread can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Runnable.
    Ready,
    /// Waiting on a lock, an event or other threads' exit.
    Blocked(BlockedBy),
    /// Finished.
    Done,
}

/// A store that executed but is not yet globally visible. `tag` is the
/// caller's bookkeeping for the entry (the engine's drain time; `()` for
/// the oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferedStore<T> {
    /// Object written.
    pub obj: ObjectId,
    /// State the store writes.
    pub to: RefState,
    /// Caller bookkeeping.
    pub tag: T,
}

/// One simulated thread's control state. Callers only ever see it behind
/// a shared reference; the kernel's entry points are the only writers.
#[derive(Debug)]
pub struct Thread<T> {
    /// Script the thread is executing (a pool worker's task script while
    /// it runs one).
    pub script: ScriptId,
    /// Index of the next op in `script`.
    pub pc: u32,
    /// Saved (script, pc) continuations pushed by `RunTasks`, innermost
    /// last.
    pub frames: Vec<(ScriptId, u32)>,
    /// Whether the thread can run.
    pub status: Status,
    /// Locks held, in acquisition order (release order on exit).
    pub held: Vec<LockId>,
    /// Direct children, in fork order.
    pub children: Vec<ThreadId>,
    /// Every thread the most recent join waited for, sorted. Once the
    /// thread resumes these have all exited.
    pub join_targets: Vec<ThreadId>,
    /// Outstanding join targets while blocked on a join.
    join_left: u32,
    /// The task the thread is running, if any.
    pub task: Option<TaskId>,
    /// Buffered stores, oldest first; always empty under `Sc`.
    pub buffer: Vec<BufferedStore<T>>,
}

impl<T> Thread<T> {
    fn new(script: ScriptId) -> Self {
        Self {
            script,
            pc: 0,
            frames: Vec::new(),
            status: Status::Ready,
            held: Vec::new(),
            children: Vec::new(),
            join_targets: Vec::new(),
            join_left: 0,
            task: None,
            buffer: Vec::new(),
        }
    }
}

/// Implements `Clone` field by field, with a `clone_from` that reuses every
/// field's allocation (the derive's `clone_from` falls back to `*self =
/// source.clone()`): the oracle clones a kernel per explored branch and
/// must not allocate doing it.
macro_rules! clone_by_field {
    ($ty:ident $(<$g:ident>)? { $($f:ident),* $(,)? }) => {
        impl$(<$g: Clone>)? Clone for $ty$(<$g>)? {
            fn clone(&self) -> Self {
                Self { $($f: self.$f.clone()),* }
            }

            fn clone_from(&mut self, src: &Self) {
                $(self.$f.clone_from(&src.$f);)*
            }
        }
    };
}

clone_by_field!(Thread<T> {
    script, pc, frames, status, held, children, join_targets, join_left, task, buffer,
});

/// Conservative static footprint of one transition: which objects, locks
/// and events it touched, and whether it is dependent with everything
/// (it changed the thread table or the task queue). Sets are 64-bit
/// Bloom-style masks (`id & 63`); a false overlap only over-approximates
/// dependence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    objs: u64,
    locks: u64,
    events: u64,
    global: bool,
}

impl Footprint {
    /// Records a read or write of `o`.
    pub fn obj(&mut self, o: ObjectId) {
        self.objs |= 1u64 << (o.0 & 63);
    }

    /// Records an acquire, release or handoff of `l`.
    pub fn lock(&mut self, l: LockId) {
        self.locks |= 1u64 << (l.0 & 63);
    }

    /// Records a signal of or wait on `e`.
    pub fn event(&mut self, e: EventId) {
        self.events |= 1u64 << (e.0 & 63);
    }

    /// Marks the transition dependent with everything.
    pub fn mark_global(&mut self) {
        self.global = true;
    }

    /// Whether the transition is dependent with everything.
    pub fn is_global(&self) -> bool {
        self.global
    }

    /// Whether the two footprints share an object, lock or event.
    pub fn overlaps(&self, other: &Footprint) -> bool {
        self.objs & other.objs != 0
            || self.locks & other.locks != 0
            || self.events & other.events != 0
    }
}

/// Side effects of one kernel transition. `woken` and `joined` are cleared
/// at the start of every entry point; `footprint` accumulates until the
/// caller resets it, so a caller can collect the footprint of a whole run
/// segment.
#[derive(Debug, Default)]
pub struct Effects {
    /// Threads the transition made runnable, with what each waited on, in
    /// wake order: lock handoffs, then event waiters in wait order, then
    /// joiners in the order they blocked.
    pub woken: Vec<(ThreadId, BlockedBy)>,
    /// Join targets that had already exited when the join op ran, in the
    /// order the op lists them.
    pub joined: Vec<ThreadId>,
    /// Objects, locks and events touched.
    pub footprint: Footprint,
}

/// What [`Kernel::step`] did to the stepping thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Moved past the op.
    Advanced,
    /// Blocked at the op; it completes when the thread is woken.
    Blocked(BlockedBy),
    /// Finished: `Exit`, `Throw`, or the end of its own script.
    Exited,
    /// Forked the given child and moved past the op.
    Forked(ThreadId),
    /// Queued a task and moved past the op.
    TaskSpawned(TaskId, TaskParent),
    /// Popped a task and switched to its script.
    TaskStarted(TaskId),
    /// Reached the end of a task script and returned to the saved frame.
    /// `None` only for a task run from inside another task, whose id the
    /// inner task replaced.
    TaskEnded(Option<TaskId>),
}

/// Ops that commit the executing thread's whole store buffer before they
/// run: lock operations, fork, join and fences carry full barriers. Event
/// signal and wait deliberately do not — an event publication without a
/// barrier is the store-buffer bug class. Thread exit also flushes.
fn flushes(op: &Op) -> bool {
    matches!(
        op,
        Op::Fork { .. }
            | Op::JoinScript { .. }
            | Op::JoinChildren
            | Op::Acquire { .. }
            | Op::Release { .. }
            | Op::Fence
    )
}

/// A FIFO mutex.
#[derive(Debug, Default)]
struct Lock {
    holder: Option<ThreadId>,
    waiters: VecDeque<ThreadId>,
}

/// A sticky event.
#[derive(Debug, Default)]
struct Event {
    signaled: bool,
    /// Threads blocked on the event, in wait order.
    waiters: Vec<ThreadId>,
}

clone_by_field!(Lock { holder, waiters });
clone_by_field!(Event { signaled, waiters });

/// The state of one execution of a workload, minus time.
#[derive(Debug)]
pub struct Kernel<T = ()> {
    threads: Vec<Thread<T>>,
    locks: Vec<Lock>,
    events: Vec<Event>,
    /// Spawned, not yet started tasks, FIFO.
    tasks: VecDeque<(TaskId, ScriptId)>,
    tasks_spawned: u32,
    /// Threads blocked on a join, in the order they blocked.
    joiners: Vec<ThreadId>,
    /// Stores in all buffers together.
    buffered: usize,
    heap: Heap,
    model: MemoryModel,
}

clone_by_field!(Kernel<T> {
    threads, locks, events, tasks, tasks_spawned, joiners, buffered, heap, model,
});

impl<T: Copy> Kernel<T> {
    /// The initial state: thread 0 ready at the start of `w.main`, every
    /// cell NULL, every lock free, every event unsignaled.
    pub fn new(w: &Workload, model: MemoryModel) -> Self {
        let mut threads = Vec::with_capacity(w.scripts.len().max(8));
        threads.push(Thread::new(w.main));
        Self {
            threads,
            locks: vec![Lock::default(); w.n_locks as usize],
            events: vec![Event::default(); w.n_events as usize],
            tasks: VecDeque::new(),
            tasks_spawned: 0,
            joiners: Vec::new(),
            buffered: 0,
            heap: Heap::new(w.n_objects as usize),
            model,
        }
    }

    /// The memory model stores follow.
    pub fn model(&self) -> MemoryModel {
        self.model
    }

    /// Every thread spawned so far, indexed by id.
    pub fn threads(&self) -> &[Thread<T>] {
        &self.threads
    }

    /// Thread `t`.
    pub(crate) fn thread(&self, t: ThreadId) -> &Thread<T> {
        &self.threads[t.0 as usize]
    }

    /// Whether thread `t` can run.
    pub fn is_ready(&self, t: ThreadId) -> bool {
        matches!(self.threads[t.0 as usize].status, Status::Ready)
    }

    /// Stores buffered across all threads; always zero under `Sc`.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Shared memory (buffered stores excluded).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Each lock's holder and FIFO waiters, by lock id.
    pub fn locks(&self) -> impl Iterator<Item = (Option<ThreadId>, &VecDeque<ThreadId>)> {
        self.locks.iter().map(|l| (l.holder, &l.waiters))
    }

    /// Whether each event has been signaled, by event id.
    pub fn signaled(&self) -> impl Iterator<Item = bool> + '_ {
        self.events.iter().map(|e| e.signaled)
    }

    /// Scripts of the queued tasks, in start order.
    pub fn queued_tasks(&self) -> impl ExactSizeIterator<Item = ScriptId> + '_ {
        self.tasks.iter().map(|&(_, s)| s)
    }

    /// Join targets thread `t` is still waiting for, in id order.
    pub fn join_outstanding(&self, t: ThreadId) -> impl Iterator<Item = ThreadId> + Clone + '_ {
        let th = &self.threads[t.0 as usize];
        let waiting = match th.status {
            Status::Blocked(BlockedBy::Join) => &th.join_targets[..],
            _ => &[],
        };
        waiting
            .iter()
            .copied()
            .filter(|u| self.threads[u.0 as usize].status != Status::Done)
    }

    /// The op thread `t` runs next; `None` at the end of its script.
    pub fn op_at<'w>(&self, w: &'w Workload, t: ThreadId) -> Option<&'w Op> {
        let th = &self.threads[t.0 as usize];
        w.scripts[th.script.0 as usize].ops.get(th.pc as usize)
    }

    /// Whether thread `t` is parked immediately before an `Op::Access`.
    pub fn at_access(&self, w: &Workload, t: ThreadId) -> bool {
        matches!(self.op_at(w, t), Some(Op::Access { .. }))
    }

    /// Whether thread `t`'s next op would commit a non-empty store buffer.
    pub fn flush_pending(&self, w: &Workload, t: ThreadId) -> bool {
        !self.threads[t.0 as usize].buffer.is_empty() && self.op_at(w, t).is_some_and(flushes)
    }

    /// The state thread `t` observes for `obj`: its own newest buffered
    /// store to it if any (store-to-load forwarding), else shared memory.
    fn view(&self, t: ThreadId, obj: ObjectId) -> RefState {
        self.threads[t.0 as usize]
            .buffer
            .iter()
            .rev()
            .find(|e| e.obj == obj)
            .map_or_else(|| self.heap.state(obj), |e| e.to)
    }

    /// The entries of thread `t`'s buffer that may commit next, with their
    /// buffer indices in ascending order: the head under TSO (total store
    /// order), the oldest entry of each object under PSO.
    pub fn committable(&self, t: ThreadId) -> impl Iterator<Item = (usize, &BufferedStore<T>)> {
        let buf = &self.threads[t.0 as usize].buffer;
        let pso = self.model == MemoryModel::Pso;
        let n = if pso { buf.len() } else { buf.len().min(1) };
        buf[..n]
            .iter()
            .enumerate()
            .filter(move |&(i, e)| !pso || buf[..i].iter().all(|p| p.obj != e.obj))
    }

    /// Executes thread `t`'s next op, which must not be an access, or the
    /// end of its script (returning from a task frame, else exiting).
    ///
    /// # Panics
    ///
    /// Panics if `t` is parked at an access; use [`Self::commit_access`].
    #[inline]
    pub fn step(&mut self, w: &Workload, t: ThreadId, fx: &mut Effects) -> Step {
        fx.woken.clear();
        fx.joined.clear();
        let ti = t.0 as usize;
        let Some(op) = self.op_at(w, t) else {
            let th = &mut self.threads[ti];
            return match th.frames.pop() {
                Some((script, pc)) => {
                    th.script = script;
                    th.pc = pc;
                    Step::TaskEnded(th.task.take())
                }
                None => {
                    self.exit(t, fx);
                    Step::Exited
                }
            };
        };
        if flushes(op) {
            self.flush(t, &mut fx.footprint);
        }
        let fp = &mut fx.footprint;
        let th = &mut self.threads[ti];
        match *op {
            Op::Compute { .. } | Op::Pad { .. } | Op::Fence => th.pc += 1,
            Op::Access { .. } => panic!("kernel step at an access: use commit_access"),
            Op::Fork { script } => {
                fp.mark_global();
                let child = ThreadId::try_new(self.threads.len()).unwrap_or_else(|e| {
                    panic!("{e}: workload forks more threads than the simulator can identify")
                });
                self.threads.push(Thread::new(script));
                let th = &mut self.threads[ti];
                th.children.push(child);
                th.pc += 1;
                return Step::Forked(child);
            }
            Op::JoinScript { script } => {
                fp.mark_global();
                // Matches each thread's *current* script, so a pool worker
                // running a task is matched by the task's script.
                let mut targets = std::mem::take(&mut self.threads[ti].join_targets);
                targets.clear();
                for (u, other) in self.threads.iter().enumerate() {
                    if u != ti && other.script == script {
                        let u = ThreadId(u as u32);
                        if other.status == Status::Done {
                            fx.joined.push(u);
                        } else {
                            targets.push(u);
                        }
                    }
                }
                return self.begin_join(t, targets);
            }
            Op::JoinChildren => {
                fp.mark_global();
                let mut targets = std::mem::take(&mut th.join_targets);
                targets.clear();
                for &c in &self.threads[ti].children {
                    if self.threads[c.0 as usize].status == Status::Done {
                        fx.joined.push(c);
                    } else {
                        targets.push(c);
                    }
                }
                return self.begin_join(t, targets);
            }
            Op::Acquire { lock } => {
                fp.lock(lock);
                let l = &mut self.locks[lock.0 as usize];
                if l.holder.is_none() {
                    l.holder = Some(t);
                    th.held.push(lock);
                    th.pc += 1;
                } else {
                    l.waiters.push_back(t);
                    th.status = Status::Blocked(BlockedBy::Lock(lock));
                    return Step::Blocked(BlockedBy::Lock(lock));
                }
            }
            Op::Release { lock } => {
                fp.lock(lock);
                th.pc += 1;
                self.release(t, lock, fx);
            }
            Op::SignalEvent { ev } => {
                fp.event(ev);
                th.pc += 1;
                let e = &mut self.events[ev.0 as usize];
                e.signaled = true;
                for w in e.waiters.drain(..) {
                    let wt = &mut self.threads[w.0 as usize];
                    wt.status = Status::Ready;
                    wt.pc += 1;
                    fx.woken.push((w, BlockedBy::Event(ev)));
                }
            }
            Op::WaitEvent { ev } => {
                fp.event(ev);
                let e = &mut self.events[ev.0 as usize];
                if e.signaled {
                    th.pc += 1;
                } else {
                    e.waiters.push(t);
                    th.status = Status::Blocked(BlockedBy::Event(ev));
                    return Step::Blocked(BlockedBy::Event(ev));
                }
            }
            Op::Throw { .. } | Op::Exit => {
                self.exit(t, fx);
                return Step::Exited;
            }
            Op::SkipIf { obj, cond, skip } => {
                fp.obj(obj);
                let holds = match (cond, self.view(t, obj)) {
                    (Cond::IsLive, RefState::Live)
                    | (Cond::IsNull, RefState::Null)
                    | (Cond::IsDisposed, RefState::Disposed) => skip,
                    _ => 0,
                };
                self.threads[ti].pc += 1 + holds;
            }
            Op::SpawnTask { script } => {
                // Every RunTasks observes the shared queue's order.
                fp.mark_global();
                let task = TaskId(self.tasks_spawned);
                self.tasks_spawned += 1;
                let parent = th.task.map_or(TaskParent::Thread(t), TaskParent::Task);
                th.pc += 1;
                self.tasks.push_back((task, script));
                return Step::TaskSpawned(task, parent);
            }
            Op::RunTasks => {
                fp.mark_global();
                match self.tasks.pop_front() {
                    // Save the continuation *at* RunTasks so the worker
                    // loops back for the next task.
                    Some((task, script)) => {
                        th.frames.push((th.script, th.pc));
                        th.script = script;
                        th.pc = 0;
                        th.task = Some(task);
                        return Step::TaskStarted(task);
                    }
                    None => th.pc += 1,
                }
            }
        }
        Step::Advanced
    }

    /// Commits the access thread `t` is parked at against its view of the
    /// object. A successful store is buffered under a weak model — `tag`
    /// computes the entry's bookkeeping from the buffer so far and the
    /// object — and written to shared memory under `Sc`. A faulting
    /// access (`Err`, a NULL-reference manifestation) kills the thread.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not parked at an access.
    #[inline]
    pub fn commit_access(
        &mut self,
        w: &Workload,
        t: ThreadId,
        fx: &mut Effects,
        tag: impl FnOnce(&[BufferedStore<T>], ObjectId) -> T,
    ) -> Result<AccessOutcome, NullRefError> {
        fx.woken.clear();
        fx.joined.clear();
        let Some(&Op::Access {
            obj, kind, site, ..
        }) = self.op_at(w, t)
        else {
            panic!("commit_access: thread {t} is not parked at an access");
        };
        fx.footprint.obj(obj);
        let outcome = if self.model.is_weak() {
            let view = self.view(t, obj);
            self.heap.apply_buffered(obj, site, kind, view)
        } else {
            self.heap.apply(obj, site, kind)
        };
        match outcome {
            Ok(done) => {
                let th = &mut self.threads[t.0 as usize];
                if let (true, AccessOutcome::Transition { to, .. }) = (self.model.is_weak(), done) {
                    let tag = tag(&th.buffer, obj);
                    th.buffer.push(BufferedStore { obj, to, tag });
                    self.buffered += 1;
                }
                th.pc += 1;
            }
            Err(_) => self.exit(t, fx),
        }
        outcome
    }

    /// Commits entry `i` of thread `t`'s store buffer to shared memory,
    /// returning the object written, or `None` if there is no such entry.
    /// Callers pick `i` from [`Self::committable`].
    pub fn commit_store(&mut self, t: ThreadId, i: usize, fx: &mut Effects) -> Option<ObjectId> {
        let buf = &mut self.threads.get_mut(t.0 as usize)?.buffer;
        if i >= buf.len() {
            return None;
        }
        let e = buf.remove(i);
        self.buffered -= 1;
        self.heap.commit(e.obj, e.to);
        fx.footprint.obj(e.obj);
        Some(e.obj)
    }

    /// Commits every buffered store, thread by thread in buffer order: the
    /// end of a run, when no reader is left to observe an order.
    pub(crate) fn drain_all(&mut self) {
        if self.buffered == 0 {
            return;
        }
        let mut fp = Footprint::default();
        for t in 0..self.threads.len() {
            self.flush(ThreadId(t as u32), &mut fp);
        }
    }

    /// Commits thread `t`'s whole buffer in push order (a flush point).
    fn flush(&mut self, t: ThreadId, fp: &mut Footprint) {
        let buf = &mut self.threads[t.0 as usize].buffer;
        self.buffered -= buf.len();
        for e in buf.drain(..) {
            self.heap.commit(e.obj, e.to);
            fp.obj(e.obj);
        }
    }

    fn begin_join(&mut self, t: ThreadId, targets: Vec<ThreadId>) -> Step {
        let th = &mut self.threads[t.0 as usize];
        th.join_left = targets.len() as u32;
        th.join_targets = targets;
        if th.join_left == 0 {
            th.pc += 1;
            Step::Advanced
        } else {
            th.status = Status::Blocked(BlockedBy::Join);
            self.joiners.push(t);
            Step::Blocked(BlockedBy::Join)
        }
    }

    /// FIFO handoff of `lock` to its next waiter; a no-op unless `t` holds
    /// it.
    fn release(&mut self, t: ThreadId, lock: LockId, fx: &mut Effects) {
        let l = &mut self.locks[lock.0 as usize];
        if l.holder != Some(t) {
            return;
        }
        fx.footprint.lock(lock);
        self.threads[t.0 as usize].held.retain(|&h| h != lock);
        l.holder = l.waiters.pop_front();
        if let Some(next) = l.holder {
            let nt = &mut self.threads[next.0 as usize];
            nt.held.push(lock);
            nt.status = Status::Ready;
            nt.pc += 1;
            fx.woken.push((next, BlockedBy::Lock(lock)));
        }
    }

    /// Thread exit: a full barrier, then every held lock is released
    /// (finally-block semantics) and joiners whose last target this was
    /// resume.
    fn exit(&mut self, t: ThreadId, fx: &mut Effects) {
        // Exits change the thread table joins match against.
        fx.footprint.mark_global();
        self.flush(t, &mut fx.footprint);
        let ti = t.0 as usize;
        self.threads[ti].status = Status::Done;
        let mut held = std::mem::take(&mut self.threads[ti].held);
        for &lock in &held {
            self.release(t, lock, fx);
        }
        held.clear();
        self.threads[ti].held = held;
        let threads = &mut self.threads;
        self.joiners.retain(|&j| {
            let jt = &mut threads[j.0 as usize];
            if jt.join_targets.binary_search(&t).is_err() {
                return true;
            }
            jt.join_left -= 1;
            if jt.join_left > 0 {
                return true;
            }
            jt.status = Status::Ready;
            jt.pc += 1;
            fx.woken.push((j, BlockedBy::Join));
            false
        });
    }
}
