//! Bounded exhaustive schedule exploration over the simulated instruction
//! set: the ground-truth oracle for differential detector testing.
//!
//! The explorer answers one question about a workload, independently of
//! delay injection: *does any thread schedule make an instrumented access
//! raise a NULL-reference exception?* It drives the same step kernel as
//! the engine, [`waffle_sim::semantics`], under a time-free policy: the
//! kernel executes every transition (heap state machine, FIFO locks,
//! sticky events, join/task rules, store buffers) and the explorer only
//! chooses which thread runs next and when a buffered store commits,
//! enumerating schedules in the CHESS style: context switches are free at blocking points and cost one
//! unit of a *preemption budget* at instrumented accesses.
//!
//! Preemption points are placed **only** at [`Op::Access`](waffle_sim::Op) boundaries
//! because those are exactly the program points where delay injection can
//! hold a thread back: an injected delay pauses the accessing thread
//! immediately before its access commits, so every injection-reachable
//! interleaving is a sequence of access-boundary preemptions. Preempting at
//! more locations would declare bugs "exposable" that no delay placement
//! can reach and charge the detector with spurious false negatives.
//!
//! State explosion is held down by three cooperating mechanisms:
//!
//! * **Memoization** — a 128-bit FNV-1a fingerprint of the canonical
//!   state encoding (computed into a reused scratch buffer) keyed with
//!   the largest remaining budget it was visited with, in a bounded
//!   direct-mapped table. A state revisited with no more budget cannot
//!   reach anything new and is pruned.
//! * **Sleep-set partial-order reduction** — interleavings that differ
//!   only in the order of independent transitions are explored once; see
//!   [`reduction`] for the independence relation and the preemption-
//!   bound conservatism rule. Disable with [`OracleConfig::reduce`].
//! * **Clone-on-branch frames** — the DFS keeps one frame per depth and
//!   materializes a sibling by cloning into a recycled frame (the last
//!   sibling steals the parent's state outright), so the hot loop does
//!   no per-state heap allocation.

mod reduction;
mod state;

use waffle_mem::{NullRefKind, ObjectId};
use waffle_sim::semantics::{Effects, Status};
use waffle_sim::{MemoryModel, ThreadId, Workload};

use reduction::{
    filter_sleep, fnv128, sleep_fingerprint, sleep_get, sleep_insert, sleep_subset, Footprint,
    Probe, SleepEntry, StateMemo, TransId,
};
use state::{EncodeScratch, OState};

/// Tuning knobs for the bounded explorer.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Maximum preemptive context switches per schedule (switches taken
    /// while the running thread could have continued). Switches at
    /// blocking points are free, as in context-bounded model checking.
    pub preemption_bound: u32,
    /// Hard cap on genuine frontier states (distinct state fingerprints);
    /// exceeding it yields [`OracleVerdict::Truncated`] instead of a
    /// clean verdict. Memo-pruned revisits and sleep-set prunes are
    /// counted separately and never charge against this cap.
    pub max_states: u64,
    /// Memory model explored. Under a weak model each thread owns a store
    /// buffer whose *drain points* are additional schedule choices: the
    /// explorer may commit any committable buffered store (TSO: the oldest;
    /// PSO: the oldest per object) at any decision point, and a thread
    /// parked at a flush-point op (lock, fork, join, fence) yields a free
    /// switch first — mirroring how an injected delay at the store lets
    /// other threads run inside the stale window. Under `Sc` (the default)
    /// exploration is bit-for-bit what it always was.
    pub memory: MemoryModel,
    /// Enable sleep-set partial-order reduction (on by default). The
    /// verdict is identical either way — pinned by the differential
    /// equivalence suite — only the states/second differ; turn it off to
    /// cross-check a verdict against the naive explorer.
    pub reduce: bool,
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
            max_states: 2_000_000,
            memory: MemoryModel::Sc,
            reduce: true,
        }
    }
}

/// The oracle's answer for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleVerdict {
    /// Some schedule within the preemption bound raises a NULL-reference
    /// exception.
    Exposable {
        /// Bug class of the witnessing manifestation.
        kind: NullRefKind,
        /// Object whose reference was NULL at the faulting access.
        obj: ObjectId,
        /// Preemptive switches the witness schedule spent.
        preemptions: u32,
    },
    /// Every schedule within the preemption bound completes without a
    /// NULL-reference exception.
    CleanWithinBound,
    /// The state cap was hit before the space was exhausted; no claim.
    Truncated,
}

/// One step of a witness schedule, replayable via [`replay_schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleStep {
    /// The running thread commits its parked op (access or flush).
    Continue,
    /// Schedule the given thread.
    Switch(u32),
    /// Commit buffer entry `idx` of `thread` (weak models only).
    Drain {
        /// Thread whose store buffer drains.
        thread: u32,
        /// Buffer index committed.
        idx: u32,
    },
}

/// Verdict plus exploration statistics.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// The verdict.
    pub verdict: OracleVerdict,
    /// Genuine frontier states: distinct state fingerprints visited. This
    /// — and only this — is charged against [`OracleConfig::max_states`].
    pub states_explored: u64,
    /// Revisits pruned because the state was already seen with at least
    /// as much budget (includes on-path cycle prunes).
    pub memo_hits: u64,
    /// Transitions skipped by sleep-set partial-order reduction.
    pub sleep_prunes: u64,
    /// Known states re-expanded because a revisit arrived with a larger
    /// remaining budget (not new frontier, not prunable).
    pub revisits: u64,
    /// The witness schedule from the initial state to the faulting
    /// access, empty unless the verdict is `Exposable`.
    pub witness: Vec<ScheduleStep>,
    /// Terminal states reached with at least one thread still blocked — a
    /// deadlock introduced by the workload (or by a candidate repair
    /// patch). A `CleanWithinBound` verdict with `deadlocks > 0` must not
    /// be read as "no bug": schedules that deadlock expose nothing by
    /// construction, so repair certification requires this to be zero.
    pub deadlocks: u64,
}

impl OracleReport {
    /// Whether the verdict is [`OracleVerdict::Exposable`].
    pub fn exposable(&self) -> bool {
        matches!(self.verdict, OracleVerdict::Exposable { .. })
    }
}

/// What a witness replay reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Bug class raised at the final step.
    pub kind: NullRefKind,
    /// Object whose reference was NULL.
    pub obj: ObjectId,
    /// Preemptive switches the schedule spent (switches taken at an
    /// access park).
    pub preemptions: u32,
}

/// An edge out of a DFS node. `Drain` carries the committed object so the
/// footprint and the sleep identity need no buffer lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Choice {
    Continue,
    Switch(u32),
    Drain { thread: u32, idx: u32, obj: u32 },
}

impl Choice {
    fn step(self) -> ScheduleStep {
        match self {
            Choice::Continue => ScheduleStep::Continue,
            Choice::Switch(u) => ScheduleStep::Switch(u),
            Choice::Drain { thread, idx, .. } => ScheduleStep::Drain { thread, idx },
        }
    }
}

/// One DFS depth: the node's state, its remaining budget, its sleep set,
/// and the iteration cursor over its outgoing edges. Frames (and the
/// vectors inside them) are recycled across the whole exploration.
struct Frame {
    state: OState,
    budget: u32,
    /// Fingerprint of the state alone (sleep not folded in) — the
    /// on-path cycle guard compares against it.
    state_fp: u128,
    /// Switch cost at this node (1 if the running thread is parked at an
    /// access, else 0); cached because the sleep machinery consults it
    /// for every pruning decision.
    node_cost: u32,
    /// Edge that led here from the parent (unused at the root).
    via: Choice,
    sleep: Vec<SleepEntry>,
    choices: Vec<Choice>,
    next: usize,
}

impl Frame {
    fn new(w: &Workload, model: MemoryModel) -> Self {
        Self {
            state: OState::new(w, model),
            budget: 0,
            state_fp: 0,
            node_cost: 0,
            via: Choice::Continue,
            sleep: Vec::new(),
            choices: Vec::new(),
            next: 0,
        }
    }
}

/// Enumerates a node's outgoing edges in visit order: drain choices
/// (descending thread, then descending buffer index), then preemptive /
/// free switches (descending thread id), then the continue edge last —
/// the exact pop order of the historical stack-of-states explorer, so
/// unreduced exploration reproduces its traversal and witnesses.
fn enumerate_choices(s: &OState, w: &Workload, budget: u32, out: &mut Vec<Choice>) {
    out.clear();
    let n = s.k.threads().len() as u32;
    for t in (0..n).rev().filter(|_| s.k.buffered() > 0) {
        let start = out.len();
        out.extend(s.k.committable(ThreadId(t)).map(|(idx, e)| Choice::Drain {
            thread: t,
            idx: idx as u32,
            obj: e.obj.0,
        }));
        out[start..].reverse();
    }
    match s.running {
        Some(t) => {
            // Switches at an access spend preemption budget; switches at a
            // flush point are free — an injected delay at the buffered
            // store stretches the drain arbitrarily, so any work other
            // threads do before the flush is reachable without a
            // preemption.
            let free = !s.at_access(w, t);
            if free || budget > 0 {
                let others = (0..n).rev().filter(|&u| u != t && s.ready(u));
                out.extend(others.map(Choice::Switch));
            }
            out.push(Choice::Continue);
        }
        None => {
            // Free choice: the previous thread blocked or exited. No ready
            // thread means termination or deadlock — terminal either way,
            // and not a manifestation.
            out.extend((0..n).rev().filter(|&u| s.ready(u)).map(Choice::Switch));
        }
    }
}

/// A terminal state (no outgoing edges: nothing running, nothing ready,
/// nothing committable) is a deadlock iff some thread never finished —
/// blocked on a lock, event, or join that can no longer be satisfied.
fn is_deadlock(s: &OState) -> bool {
    s.k.threads().iter().any(|t| t.status != Status::Done)
}

/// Exhaustively explores schedules of `workload` within the preemption
/// bound, returning the first NULL-reference witness found or a clean /
/// truncated verdict.
pub fn explore(workload: &Workload, config: &OracleConfig) -> OracleReport {
    let mut states_explored: u64;
    let mut memo_hits: u64 = 0;
    let mut sleep_prunes: u64 = 0;
    let mut revisits: u64 = 0;
    let mut memo = StateMemo::new(config.max_states);
    let mut scratch = EncodeScratch::default();
    let mut fx = Effects::default();

    let mut deadlocks: u64 = 0;

    let report = |verdict, states_explored, memo_hits, sleep_prunes, revisits, witness, deadlocks| {
        OracleReport {
            verdict,
            states_explored,
            memo_hits,
            sleep_prunes,
            revisits,
            witness,
            deadlocks,
        }
    };

    let mut frames: Vec<Frame> = Vec::with_capacity(32);
    frames.push(Frame::new(workload, config.memory));
    {
        let root = &mut frames[0];
        root.state.advance_to_decision(workload, &mut fx);
        root.budget = config.preemption_bound;
        root.state.encode_into(&mut scratch);
        root.state_fp = fnv128(&scratch.buf);
        root.node_cost = root.state.switch_cost(workload);
        root.sleep.clear();
        memo.probe(root.state_fp ^ sleep_fingerprint(&[]), root.budget);
        states_explored = 1;
        enumerate_choices(&root.state, workload, root.budget, &mut root.choices);
        if root.choices.is_empty() && is_deadlock(&root.state) {
            deadlocks += 1;
        }
        root.next = 0;
    }

    let mut depth = 0usize;
    'dfs: loop {
        // Advance the cursor at the current frame to its next live edge,
        // popping exhausted frames.
        let (choice, is_last) = {
            let f = &mut frames[depth];
            loop {
                if f.next >= f.choices.len() {
                    if depth == 0 {
                        return report(
                            OracleVerdict::CleanWithinBound,
                            states_explored,
                            memo_hits,
                            sleep_prunes,
                            revisits,
                            Vec::new(),
                            deadlocks,
                        );
                    }
                    depth -= 1;
                    continue 'dfs;
                }
                let c = f.choices[f.next];
                f.next += 1;
                if config.reduce {
                    let id = match c {
                        Choice::Continue => None,
                        Choice::Switch(u) => Some(TransId::Thread(u)),
                        Choice::Drain { thread, obj, .. } => Some(TransId::Drain(thread, obj)),
                    };
                    if let Some(id) = id {
                        // A sleeping edge may only be pruned where its
                        // budget penalty is covered by this node's switch
                        // cost — the mirror schedule justifying the prune
                        // then fits the same preemption budget.
                        if let Some(e) = sleep_get(&f.sleep, id) {
                            if e.penalty <= f.node_cost {
                                sleep_prunes += 1;
                                continue;
                            }
                        }
                    }
                }
                break (c, f.next >= f.choices.len());
            }
        };

        // Materialize the child into the recycled frame at depth + 1. The
        // last sibling steals the parent's state (the parent never needs
        // it again); earlier siblings clone into the child's buffers.
        if frames.len() == depth + 1 {
            frames.push(Frame::new(workload, config.memory));
        }
        let (left, right) = frames.split_at_mut(depth + 1);
        let f = &mut left[depth];
        let child = &mut right[0];
        if is_last {
            std::mem::swap(&mut child.state, &mut f.state);
        } else {
            child.state.clone_from(&f.state);
        }

        let parent_cost = f.node_cost;
        let parent_budget = f.budget;
        fx.footprint = Footprint::default();
        let mut child_budget = parent_budget;
        let edge_thread;
        match choice {
            Choice::Continue => {
                let t = child
                    .state
                    .running
                    .expect("continue edge requires a running thread");
                edge_thread = t;
                if child.state.at_access(workload, t) {
                    match child.state.k.commit_access(workload, ThreadId(t), &mut fx, |_, _| ()) {
                        Err(e) => {
                            let mut witness: Vec<ScheduleStep> = left[1..=depth]
                                .iter()
                                .map(|fr| fr.via.step())
                                .collect();
                            witness.push(ScheduleStep::Continue);
                            return report(
                                OracleVerdict::Exposable {
                                    kind: e.kind,
                                    obj: e.obj,
                                    preemptions: config.preemption_bound - parent_budget,
                                },
                                states_explored,
                                memo_hits,
                                sleep_prunes,
                                revisits,
                                witness,
                                deadlocks,
                            );
                        }
                        Ok(_) => child.state.advance_to_decision(workload, &mut fx),
                    }
                } else {
                    // Parked at a flush point (weak model): continuing
                    // drains the buffer and executes the op.
                    child.state.k.step(workload, ThreadId(t), &mut fx);
                    child.state.advance_to_decision(workload, &mut fx);
                }
            }
            Choice::Switch(u) => {
                edge_thread = u;
                if parent_cost != 0 {
                    child_budget = parent_budget - 1;
                }
                child.state.running = Some(u);
                child.state.advance_to_decision(workload, &mut fx);
            }
            Choice::Drain { thread, idx, .. } => {
                edge_thread = thread;
                child
                    .state
                    .k
                    .commit_store(ThreadId(thread), idx as usize, &mut fx)
                    .expect("enumerated drain choice is committable");
            }
        }
        let fp = fx.footprint;

        // Sleep bookkeeping. The child inherits the parent entries the
        // edge is independent of; the edge itself goes to sleep for the
        // parent's later siblings (unless its footprint is global —
        // dependent with everything, it would be woken immediately). The
        // entry's penalty, `max(switch_cost(here), switch_cost(child))`,
        // records how much budget the justifying mirror schedule may need
        // at the prune site; see [`SleepEntry`] for the argument. Drains
        // never move a park point and carry penalty zero.
        let child_cost = child.state.switch_cost(workload);
        if config.reduce {
            filter_sleep(&f.sleep, edge_thread, &fp, &mut child.sleep);
            if !is_last && !fp.is_global() {
                let entry = match choice {
                    Choice::Continue => None, // visited last; no later siblings
                    Choice::Switch(u) => Some((TransId::Thread(u), parent_cost.max(child_cost))),
                    Choice::Drain { thread, obj, .. } => Some((TransId::Drain(thread, obj), 0)),
                };
                if let Some((id, penalty)) = entry {
                    sleep_insert(
                        &mut f.sleep,
                        SleepEntry {
                            id,
                            thread: edge_thread,
                            fp,
                            penalty,
                        },
                    );
                }
            }
        } else {
            child.sleep.clear();
        }

        // Memoization: fingerprint of (canonical state, sleep identities),
        // keyed with the best remaining budget seen.
        child.state.encode_into(&mut scratch);
        let state_fp = fnv128(&scratch.buf);
        let key = state_fp ^ sleep_fingerprint(&child.sleep);
        match memo.probe(key, child_budget) {
            Probe::Dominated => {
                memo_hits += 1;
                continue 'dfs;
            }
            Probe::Updated => revisits += 1,
            Probe::Inserted => {
                states_explored += 1;
                if states_explored > config.max_states {
                    return report(
                        OracleVerdict::Truncated,
                        states_explored,
                        memo_hits,
                        sleep_prunes,
                        revisits,
                        Vec::new(),
                        deadlocks,
                    );
                }
            }
        }
        // On-path cycle guard: the bounded memo may evict the entry that
        // would normally terminate a free-switch cycle, so a child whose
        // state already appears on the current path with at least as much
        // budget and a no-larger sleep set is pruned outright.
        if left
            .iter()
            .any(|fr| {
                fr.state_fp == state_fp
                    && fr.budget >= child_budget
                    && sleep_subset(&fr.sleep, &child.sleep)
            })
        {
            memo_hits += 1;
            continue 'dfs;
        }

        child.budget = child_budget;
        child.state_fp = state_fp;
        child.node_cost = child_cost;
        child.via = choice;
        enumerate_choices(&child.state, workload, child_budget, &mut child.choices);
        if child.choices.is_empty() && is_deadlock(&child.state) {
            deadlocks += 1;
        }
        child.next = 0;
        depth += 1;
    }
}

/// Deterministically replays a witness schedule produced by [`explore`]
/// through the same (unreduced — a fixed schedule explores nothing)
/// state machine. Returns the manifestation the schedule ends in, or
/// `None` if the schedule is malformed or completes cleanly.
pub fn replay_schedule(
    workload: &Workload,
    memory: MemoryModel,
    steps: &[ScheduleStep],
) -> Option<ReplayOutcome> {
    let mut s = OState::new(workload, memory);
    let mut fx = Effects::default();
    s.advance_to_decision(workload, &mut fx);
    let mut preemptions = 0u32;
    for &step in steps {
        match step {
            ScheduleStep::Continue => {
                let t = s.running?;
                if s.at_access(workload, t) {
                    match s.k.commit_access(workload, ThreadId(t), &mut fx, |_, _| ()) {
                        Err(e) => {
                            return Some(ReplayOutcome {
                                kind: e.kind,
                                obj: e.obj,
                                preemptions,
                            })
                        }
                        Ok(_) => s.advance_to_decision(workload, &mut fx),
                    }
                } else {
                    s.k.step(workload, ThreadId(t), &mut fx);
                    s.advance_to_decision(workload, &mut fx);
                }
            }
            ScheduleStep::Switch(u) => {
                if s.switch_cost(workload) == 1 {
                    preemptions += 1;
                }
                if s.k.threads().get(u as usize)?.status != Status::Ready {
                    return None;
                }
                s.running = Some(u);
                s.advance_to_decision(workload, &mut fx);
            }
            ScheduleStep::Drain { thread, idx } => {
                s.k.commit_store(ThreadId(thread), idx as usize, &mut fx)?;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests;
