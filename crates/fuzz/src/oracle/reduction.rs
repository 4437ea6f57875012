//! Sleep-set partial-order reduction and the allocation-free state memo.
//!
//! Two interleavings that differ only in the order of *independent*
//! transitions reach the same state, so exploring both wastes the budget
//! the oracle needs for weak-memory sweeps. The classic cure is a sleep
//! set (Godefroid): after a transition `c` is fully explored at a node,
//! `c` is put to sleep for the node's remaining siblings, and stays
//! asleep along any path whose transitions are all independent of `c` —
//! every schedule in which `c` fires later is a reordering of one already
//! explored. A dependent transition wakes it (removes it from the set).
//!
//! Independence here is a *conservative static* relation over the
//! footprints recorded while a transition executes:
//!
//! * accesses (and drains, and `SkipIf` guards) to **different objects**
//!   commute;
//! * two transitions touching the **same object**, the **same lock**, or
//!   the **same event** never commute;
//! * fork/join/exit/task-pool transitions are **global** — dependent
//!   with everything — because they change the thread table or the
//!   shared task queue;
//! * two transitions of the **same thread** never commute (program
//!   order).
//!
//! Bounded preemptions interact with POR (the known BPOR pitfall): a
//! sleeping transition is justified by a sibling subtree that replays
//! the same events in a different order, and that replay must not cost
//! *more* preemption budget than the pruned path would have. Each sleep
//! entry therefore carries a budget *penalty* — see [`SleepEntry`] — and
//! is only allowed to prune at nodes whose own switch cost covers it.
//! Everything else is explored in full; soundness is additionally proven
//! by the reduced-vs-unreduced differential suite
//! (`tests/oracle_equivalence.rs`).

pub(crate) use waffle_sim::semantics::Footprint;

/// Identity of a schedule transition for sleep-set membership.
///
/// `Thread(u)` is "schedule thread `u`" (a `Switch` edge — `Continue`
/// edges are visited last at a node and never gain later siblings, so
/// they never enter a sleep set). `Drain(t, o)` is "commit thread `t`'s
/// oldest buffered store to object `o`"; under both TSO (head-only) and
/// PSO (first-per-object) at most one committable entry per `(t, o)`
/// exists, and any transition of `t` itself is dependent with it, so the
/// pair stays a stable identity for as long as the entry may sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum TransId {
    /// Schedule thread `u`.
    Thread(u32),
    /// Commit thread `.0`'s oldest buffered store to object `.1`.
    Drain(u32, u32),
}

/// One sleeping transition: its identity, the thread it belongs to, the
/// footprint recorded when it was explored, and the budget *penalty* that
/// gates pruning.
///
/// The penalty encodes the bounded-preemption/POR conservatism rule.
/// Pruning a slept edge at node `Y` is justified by a mirror schedule in
/// the already-explored sibling subtree that fires the edge first; the
/// mirror's cost differs from the pruned path's by at most
/// `max(switch_cost(origin), switch_cost(child)) - switch_cost(Y)` (the
/// edge pays its origin's cost up front, and the first reordered sibling
/// may newly pay the child's). The edge may therefore only be pruned
/// where `penalty <= switch_cost(Y)` — the mirror then fits the same
/// preemption budget the pruned path had. Drain edges never move a
/// thread's park point, so their penalty is zero and they prune anywhere.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SleepEntry {
    pub(crate) id: TransId,
    pub(crate) thread: u32,
    pub(crate) fp: Footprint,
    pub(crate) penalty: u32,
}

/// The sleeping entry for `id`, if any. `sleep` is kept sorted by id.
pub(crate) fn sleep_get(sleep: &[SleepEntry], id: TransId) -> Option<&SleepEntry> {
    sleep
        .binary_search_by(|e| e.id.cmp(&id))
        .ok()
        .map(|i| &sleep[i])
}

/// Puts `entry` to sleep (no-op if already present).
pub(crate) fn sleep_insert(sleep: &mut Vec<SleepEntry>, entry: SleepEntry) {
    if let Err(i) = sleep.binary_search_by(|e| e.id.cmp(&entry.id)) {
        sleep.insert(i, entry);
    }
}

/// Conservative dependence between a sleeping transition and an executed
/// edge: global on either side, same thread, or overlapping footprints.
pub(crate) fn dependent(entry: &SleepEntry, edge_thread: u32, edge_fp: &Footprint) -> bool {
    entry.fp.is_global()
        || edge_fp.is_global()
        || entry.thread == edge_thread
        || entry.fp.overlaps(edge_fp)
}

/// Child sleep set after taking an edge: the parent entries the edge is
/// independent of. Writes into `dst` (reused across the DFS).
pub(crate) fn filter_sleep(
    src: &[SleepEntry],
    edge_thread: u32,
    edge_fp: &Footprint,
    dst: &mut Vec<SleepEntry>,
) {
    dst.clear();
    dst.extend(
        src.iter()
            .filter(|e| !dependent(e, edge_thread, edge_fp))
            .copied(),
    );
}

/// Whether `a` prunes no more than `b` does: every entry of `a` is
/// matched in `b` by an entry with the same id and a penalty no larger
/// (lower penalty prunes in more contexts). Both are sorted by id.
pub(crate) fn sleep_subset(a: &[SleepEntry], b: &[SleepEntry]) -> bool {
    let mut bi = b.iter();
    'outer: for ea in a {
        for eb in bi.by_ref() {
            match eb.id.cmp(&ea.id) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => {
                    if eb.penalty <= ea.penalty {
                        continue 'outer;
                    }
                    return false;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// 128-bit FNV-1a over `bytes`, continuing from `h` (start from
/// [`fnv128`] for a fresh hash).
fn fnv128_extend(mut h: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// 128-bit FNV-1a fingerprint of a canonical state encoding.
pub(crate) fn fnv128(bytes: &[u8]) -> u128 {
    fnv128_extend(FNV_OFFSET, bytes)
}

/// Order-sensitive fingerprint of a sleep set's identities. Folded into
/// the memo key so a state revisited with a *different* sleep set is a
/// distinct memo entry — pruning a (state, bigger-sleep) visit against a
/// (state, smaller-sleep) record would be sound, but the converse is
/// not, and keying on the pair avoids the subset bookkeeping entirely.
pub(crate) fn sleep_fingerprint(sleep: &[SleepEntry]) -> u128 {
    let mut h = FNV_OFFSET;
    for e in sleep {
        let (tag, a, b) = match e.id {
            TransId::Thread(u) => (1u8, u, 0),
            TransId::Drain(t, o) => (2u8, t, o),
        };
        h = fnv128_extend(h, &[tag, e.penalty as u8]);
        h = fnv128_extend(h, &a.to_le_bytes());
        h = fnv128_extend(h, &b.to_le_bytes());
    }
    h
}

/// Outcome of a memo probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// Seen before with at least as much budget: prune.
    Dominated,
    /// Seen before with less budget: re-expand (not a new frontier state).
    Updated,
    /// New fingerprint (or an evicted slot): a genuine frontier state.
    Inserted,
}

/// Bounded direct-mapped memo of `(state fingerprint, best budget)`
/// pairs, sized like the PR 6 happens-before memo: start small, double
/// while the load factor exceeds 1/2, stop at a cap derived from
/// `max_states`. On an index collision the newcomer overwrites — the
/// evicted state is merely re-explored if revisited, which costs time,
/// never soundness. The hot path allocates nothing; growth rehashes are
/// amortized and bounded by the cap.
pub(crate) struct StateMemo {
    slots: Vec<Slot>,
    mask: usize,
    occupied: usize,
    max_slots: usize,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u128,
    /// `u32::MAX` marks an empty slot (budgets are tiny by comparison).
    budget: u32,
}

const EMPTY: u32 = u32::MAX;

impl StateMemo {
    /// A memo whose growth cap tracks the explorer's state cap.
    pub(crate) fn new(max_states: u64) -> Self {
        let target = (max_states.clamp(1, 1 << 21) as usize * 2).next_power_of_two();
        let max_slots = target.clamp(1 << 12, 1 << 22);
        let cap = (1usize << 12).min(max_slots);
        Self {
            slots: vec![Slot { key: 0, budget: EMPTY }; cap],
            mask: cap - 1,
            occupied: 0,
            max_slots,
        }
    }

    fn index(&self, key: u128) -> usize {
        // Fibonacci-style mix of both halves so the slot index is not a
        // plain truncation of the stored key.
        let mixed = (key as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(((key >> 64) as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        (mixed >> 16) as usize & self.mask
    }

    /// Looks up `key`, recording `budget` as the best known if it wins.
    pub(crate) fn probe(&mut self, key: u128, budget: u32) -> Probe {
        if self.occupied * 2 > self.slots.len() && self.slots.len() < self.max_slots {
            self.grow();
        }
        let i = self.index(key);
        let s = &mut self.slots[i];
        if s.budget != EMPTY && s.key == key {
            if s.budget >= budget {
                Probe::Dominated
            } else {
                s.budget = budget;
                Probe::Updated
            }
        } else {
            if s.budget == EMPTY {
                self.occupied += 1;
            }
            *s = Slot { key, budget };
            Probe::Inserted
        }
    }

    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).min(self.max_slots);
        let old = std::mem::replace(&mut self.slots, vec![Slot { key: 0, budget: EMPTY }; new_len]);
        self.mask = self.slots.len() - 1;
        self.occupied = 0;
        for s in old {
            if s.budget == EMPTY {
                continue;
            }
            let i = self.index(s.key);
            if self.slots[i].budget == EMPTY {
                self.occupied += 1;
                self.slots[i] = s;
            } else if self.slots[i].key == s.key {
                self.slots[i].budget = self.slots[i].budget.max(s.budget);
            } else {
                // Collision in the new table: keep the incumbent; the
                // loser is re-explored on revisit, which is sound.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_mem::ObjectId;

    fn entry(id: TransId) -> SleepEntry {
        SleepEntry {
            id,
            thread: match id {
                TransId::Thread(u) => u,
                TransId::Drain(t, _) => t,
            },
            fp: Footprint::default(),
            penalty: 0,
        }
    }

    #[test]
    fn sleep_set_is_sorted_and_deduplicated() {
        let mut s = Vec::new();
        sleep_insert(&mut s, entry(TransId::Thread(3)));
        sleep_insert(&mut s, entry(TransId::Thread(1)));
        sleep_insert(&mut s, entry(TransId::Drain(1, 0)));
        sleep_insert(&mut s, entry(TransId::Thread(1)));
        assert_eq!(s.len(), 3);
        assert!(sleep_get(&s, TransId::Thread(1)).is_some());
        assert!(sleep_get(&s, TransId::Drain(1, 0)).is_some());
        assert!(sleep_get(&s, TransId::Drain(3, 0)).is_none());
        assert!(s.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn dependence_is_conservative() {
        let mut fp_a = Footprint::default();
        fp_a.obj(ObjectId(7));
        let e = SleepEntry {
            id: TransId::Thread(2),
            thread: 2,
            fp: fp_a,
            penalty: 0,
        };
        let mut same_obj = Footprint::default();
        same_obj.obj(ObjectId(7));
        let mut other_obj = Footprint::default();
        other_obj.obj(ObjectId(8));
        let mut global = Footprint::default();
        global.mark_global();
        assert!(dependent(&e, 5, &same_obj), "same object");
        assert!(dependent(&e, 2, &other_obj), "same thread");
        assert!(dependent(&e, 5, &global), "global edge");
        assert!(!dependent(&e, 5, &other_obj), "disjoint commute");
    }

    #[test]
    fn subset_check_matches_set_semantics() {
        let a = vec![entry(TransId::Thread(1)), entry(TransId::Drain(2, 4))];
        let b = vec![
            entry(TransId::Thread(1)),
            entry(TransId::Thread(3)),
            entry(TransId::Drain(2, 4)),
        ];
        assert!(sleep_subset(&a, &b));
        assert!(!sleep_subset(&b, &a));
        assert!(sleep_subset(&[], &a));
        assert!(sleep_subset(&[], &[]));
    }

    #[test]
    fn memo_budget_dominance() {
        let mut m = StateMemo::new(1000);
        assert_eq!(m.probe(42, 2), Probe::Inserted);
        assert_eq!(m.probe(42, 1), Probe::Dominated);
        assert_eq!(m.probe(42, 2), Probe::Dominated);
        assert_eq!(m.probe(42, 3), Probe::Updated);
        assert_eq!(m.probe(42, 2), Probe::Dominated);
        assert_eq!(m.probe(99, 0), Probe::Inserted);
    }

    #[test]
    fn memo_grows_without_losing_dominance() {
        let mut m = StateMemo::new(1 << 20);
        let n = 20_000u64;
        for k in 0..n {
            // Spread keys across the full 128-bit space.
            m.probe(fnv128(&k.to_le_bytes()), 1);
        }
        // Soundness across growth and eviction: a key never recorded with
        // this much budget must not be reported dominated. Probing every
        // inserted key with a strictly larger budget must come back
        // Updated (still resident) or Inserted (evicted, re-explored) —
        // never Dominated.
        for k in 0..n {
            let p = m.probe(fnv128(&k.to_le_bytes()), 2);
            assert_ne!(p, Probe::Dominated, "false dominance for key {k}");
        }
        // Fresh keys are likewise never dominated.
        for k in n..n + 1000 {
            let p = m.probe(fnv128(&k.to_le_bytes()), 0);
            assert_ne!(p, Probe::Dominated, "false dominance for fresh key {k}");
        }
        // And the table retains enough after growth to be useful: probing
        // the budget-2 keys again at budget 1 should be dominated for a
        // solid majority (only index-collision evictions may miss).
        let dominated = (0..n)
            .filter(|k| m.probe(fnv128(&k.to_le_bytes()), 1) == Probe::Dominated)
            .count() as u64;
        assert!(
            dominated > n / 2,
            "memo retained only {dominated}/{n} keys after growth"
        );
    }

    #[test]
    fn sleep_fingerprint_distinguishes_sets() {
        let a = vec![entry(TransId::Thread(1))];
        let b = vec![entry(TransId::Thread(2))];
        let ab = vec![entry(TransId::Thread(1)), entry(TransId::Thread(2))];
        assert_ne!(sleep_fingerprint(&a), sleep_fingerprint(&b));
        assert_ne!(sleep_fingerprint(&a), sleep_fingerprint(&ab));
        assert_ne!(sleep_fingerprint(&[]), sleep_fingerprint(&a));
        assert_eq!(sleep_fingerprint(&a), sleep_fingerprint(&a.clone()));
    }
}
