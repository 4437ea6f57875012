//! The oracle's search node: the shared [`waffle_sim::semantics`] kernel,
//! driven under a time-free policy, plus the thread the search has
//! scheduled, the segment runner that advances it to the next decision,
//! and the canonical byte encoding that keys the memo.
//!
//! The kernel executes every transition and records its
//! [`Footprint`](waffle_sim::semantics::Footprint) (objects, locks,
//! events, or global) in its effects, so the explorer
//! learns, as a by-product of executing an edge, what the edge touched —
//! the raw material for the independence relation in
//! [`super::reduction`].

use waffle_sim::semantics::{Effects, Kernel, Status};
use waffle_sim::{BlockedBy, MemoryModel, ThreadId, Workload};

/// A complete scheduler state: the DFS node.
#[derive(Debug)]
pub(crate) struct OState {
    /// Everything the schedule has executed so far.
    pub(crate) k: Kernel,
    /// Thread currently scheduled, parked at an `Op::Access` (or, under a
    /// weak model, a flush-point op with a non-empty buffer); `None` when
    /// the previous thread blocked or exited and the choice is free.
    pub(crate) running: Option<u32>,
}

// Hand-written so `clone_from` reuses the kernel's allocations: the
// explorer clones a node per branch.
impl Clone for OState {
    fn clone(&self) -> Self {
        Self {
            k: self.k.clone(),
            running: self.running,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.k.clone_from(&src.k);
        self.running = src.running;
    }
}

/// What stopped a run segment.
enum SegStop {
    /// The running thread is parked immediately before an `Op::Access`.
    AtAccess,
    /// Weak model only: the running thread is parked immediately before a
    /// flush-point op while its store buffer is non-empty. Other threads
    /// may be scheduled (for free) into the stale window first.
    AtFlush,
    /// The running thread blocked or exited; pick a new thread freely.
    Yield,
}

/// Reused scratch for the canonical state encoding: the byte buffer the
/// state serializes into and the sort area for held-lock normalization.
/// One instance lives for the whole DFS, so the hot loop never allocates
/// for encoding once the buffers reach their working size.
#[derive(Debug, Default)]
pub(crate) struct EncodeScratch {
    pub(crate) buf: Vec<u8>,
    held: Vec<u32>,
}

impl OState {
    pub(crate) fn new(w: &Workload, model: MemoryModel) -> Self {
        Self {
            k: Kernel::new(w, model),
            running: Some(0),
        }
    }

    /// Whether thread `t` is parked immediately before an `Op::Access`.
    pub(crate) fn at_access(&self, w: &Workload, t: u32) -> bool {
        self.k.at_access(w, ThreadId(t))
    }

    /// Whether thread `t` can be scheduled.
    pub(crate) fn ready(&self, t: u32) -> bool {
        self.k.is_ready(ThreadId(t))
    }

    /// Runs the scheduled thread until it parks at an access, blocks, or
    /// exits, accumulating the segment's footprint in `fx`. Never commits
    /// accesses.
    fn run_segment(&mut self, w: &Workload, fx: &mut Effects) -> SegStop {
        let t = ThreadId(self.running.expect("run_segment needs a scheduled thread"));
        loop {
            if !self.k.is_ready(t) {
                return SegStop::Yield;
            }
            if self.k.at_access(w, t) {
                return SegStop::AtAccess;
            }
            if self.k.flush_pending(w, t) {
                // The flush would close this thread's stale window; park
                // here so the scheduler can route readers in first. Never
                // fires under `Sc` (buffers stay empty).
                return SegStop::AtFlush;
            }
            self.k.step(w, t, fx);
        }
    }

    /// Advances past [`Self::run_segment`], normalizing `running` to
    /// `None` on a yield so the node invariant holds.
    pub(crate) fn advance_to_decision(&mut self, w: &Workload, fx: &mut Effects) {
        match self.run_segment(w, fx) {
            SegStop::AtAccess | SegStop::AtFlush => {}
            SegStop::Yield => self.running = None,
        }
    }

    /// The preemption cost of switching away from this node: a thread
    /// parked at an access must be preempted; a flush park or a free
    /// choice switches for nothing.
    pub(crate) fn switch_cost(&self, w: &Workload) -> u32 {
        match self.running {
            Some(t) if self.at_access(w, t) => 1,
            _ => 0,
        }
    }

    /// Canonical byte encoding of the state into `scratch.buf` — the
    /// pre-image of the memo fingerprint. Allocation-free once the
    /// scratch buffers reach their working size. Kernel bookkeeping the
    /// schedule cannot observe (event and join waiter lists, task ids)
    /// is derivable from what is encoded and stays out of the key.
    pub(crate) fn encode_into(&self, scratch: &mut EncodeScratch) {
        fn push(buf: &mut Vec<u8>, v: u32) {
            debug_assert!(v < u16::MAX as u32, "oracle id overflow");
            buf.extend_from_slice(&(v as u16).to_le_bytes());
        }
        let EncodeScratch { buf, held } = scratch;
        let k = &self.k;
        buf.clear();
        push(buf, self.running.map_or(0, |t| t + 1));
        buf.extend(k.heap().cells().iter().map(|&h| h as u8));
        buf.extend(k.signaled().map(|s| s as u8));
        push(buf, k.queued_tasks().len() as u32);
        for s in k.queued_tasks() {
            push(buf, s.0);
        }
        for (holder, waiters) in k.locks() {
            push(buf, holder.map_or(0, |t| t.0 + 1));
            push(buf, waiters.len() as u32);
            for &t in waiters {
                push(buf, t.0);
            }
        }
        push(buf, k.threads().len() as u32);
        for (i, th) in k.threads().iter().enumerate() {
            push(buf, th.script.0);
            push(buf, th.pc);
            let (tag, arg) = match th.status {
                Status::Ready => (0u8, 0),
                Status::Blocked(BlockedBy::Lock(l)) => (1, l.0),
                Status::Blocked(BlockedBy::Event(e)) => (2, e.0),
                Status::Blocked(BlockedBy::Join) => (3, 0),
                Status::Done => (4, 0),
            };
            buf.push(tag);
            push(buf, arg);
            push(buf, th.frames.len() as u32);
            for &(s, p) in &th.frames {
                push(buf, s.0);
                push(buf, p);
            }
            // `held` stays in acquisition order in the thread (exit
            // releases in that order — semantics), so normalize into the
            // reused sort scratch rather than cloning per state.
            held.clear();
            held.extend(th.held.iter().map(|l| l.0));
            held.sort_unstable();
            push(buf, held.len() as u32);
            for &l in held.iter() {
                push(buf, l);
            }
            push(buf, th.children.len() as u32);
            for &c in &th.children {
                push(buf, c.0);
            }
            let outstanding = k.join_outstanding(ThreadId(i as u32));
            push(buf, outstanding.clone().count() as u32);
            for j in outstanding {
                push(buf, j.0);
            }
            if k.model().is_weak() {
                // Buffered stores are scheduler-visible state. Encoded only
                // under a weak model so `Sc` keys stay byte-identical to
                // the pre-weak-memory explorer.
                push(buf, th.buffer.len() as u32);
                for e in &th.buffer {
                    push(buf, e.obj.0);
                    buf.push(e.to as u8);
                }
            }
        }
    }
}
