//! Engine/kernel conformance: the engine adds ordering and nothing else.
//!
//! Random workloads (fork/join, locks, events, tasks, `SkipIf`, fences)
//! run through the engine under every memory model, with timing noise and
//! randomly injected delays. The kernel transitions the engine took are
//! then replayed, in order, on a fresh time-free [`Kernel`]: the replay
//! must reproduce the engine's access outcomes in order, its final heap
//! and every thread's final control state.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use waffle_mem::{AccessOutcome, NullRefError};

use super::*;
use crate::ids::ScriptId;
use crate::op::Cond;
use crate::semantics::Effects;
use crate::workload::{ScriptBuilder, WorkloadBuilder};

/// One generated op: a tag choosing the op kind and two operands.
type OpSpec = (u8, u32, u32);

/// Injects a random delay before about one access in four and records
/// every access outcome in order.
struct Chaos {
    rng: SmallRng,
    outcomes: Vec<Result<AccessOutcome, NullRefError>>,
}

impl Monitor for Chaos {
    fn on_access_pre(&mut self, _ctx: &AccessCtx<'_>) -> PreAction {
        if self.rng.gen_range(0..4u32) == 0 {
            PreAction::Delay(SimTime::from_us(self.rng.gen_range(1..400u64)))
        } else {
            PreAction::Proceed
        }
    }

    fn on_access_post(&mut self, rec: &AccessRecord) {
        self.outcomes.push(rec.outcome);
    }
}

/// Scripts of up to ten ops: the first is `main`, the last is the task
/// script, the ones between are workers.
fn scripts() -> impl Strategy<Value = Vec<Vec<OpSpec>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..24, 0u32..8, 0u32..4), 1..10),
        3..6,
    )
}

/// Appends generated op `(tag, a, c)`, the `k`-th of script `i` with
/// `left` ops after it, to `s`. Forks only target later worker scripts,
/// and the task script neither spawns nor runs tasks, so every generated
/// workload terminates.
fn emit(
    s: &mut ScriptBuilder<'_>,
    ids: &[ScriptId],
    (i, k, left): (usize, usize, u32),
    (tag, a, c): OpSpec,
) {
    let n = ids.len();
    let is_task = i == n - 1;
    let obj = waffle_mem::ObjectId(a % 3);
    let lock = crate::ids::LockId(a % 2);
    let ev = crate::ids::EventId(a % 2);
    let site = format!("s{i}:{k}");
    let dur = SimTime::from_us(1 + u64::from(a) * 7);
    match tag {
        0 | 1 => s.compute(dur),
        2..=4 => s.init(obj, &site, dur),
        5 => s.use_(obj, &site, dur),
        6 => s.dispose(obj, &site, dur),
        7 => s.unsafe_call(obj, &site, dur),
        8 | 9 if i + 2 < n => s.fork(ids[i + 1 + a as usize % (n - 2 - i)]),
        10 => s.join_children(),
        11 => s.join_script(ids[a as usize % n]),
        12 => s.acquire(lock),
        13 => s.release(lock),
        14 => s.signal(ev),
        15 => s.wait(ev),
        16 => {
            let cond = [Cond::IsLive, Cond::IsNull, Cond::IsDisposed][c as usize % 3];
            s.skip_if(obj, cond, (c % 3).min(left))
        }
        17 if !is_task => s.spawn_task(ids[n - 1]),
        18 if !is_task => s.run_tasks(),
        19 => s.fence(),
        20 => s.throw(&site),
        21 => s.exit(),
        _ => s.pad(dur),
    };
}

fn build(specs: &[Vec<OpSpec>]) -> Workload {
    let mut b = WorkloadBuilder::new("conformance");
    b.objects("o", 3);
    b.lock("l0");
    b.lock("l1");
    b.event("e0");
    b.event("e1");
    let ids: Vec<ScriptId> = (0..specs.len())
        .map(|i| b.declare_script(format!("s{i}")))
        .collect();
    for (i, ops) in specs.iter().enumerate() {
        b.define_script(ids[i], |s| {
            if i == 0 {
                // Main starts every worker, so most cases are concurrent.
                for &worker in &ids[1..ids.len() - 1] {
                    s.fork(worker);
                }
            }
            for (k, &op) in ops.iter().enumerate() {
                emit(s, &ids, (i, k, (ops.len() - k - 1) as u32), op);
            }
        });
    }
    b.main(ids[0]);
    b.build()
}

fn memory(m: u8) -> MemoryConfig {
    let model = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso][m as usize % 3];
    if m < 3 {
        MemoryConfig::from_model(model)
    } else {
        MemoryConfig {
            model,
            drain: DrainPolicy::EveryStore,
        }
    }
}

proptest! {
    #[test]
    fn replaying_the_engine_on_a_time_free_kernel_reproduces_the_run(
        specs in scripts(),
        m in 0u8..5,
        seed in 0u64..1_000_000,
        noise in 0u32..20,
    ) {
        let w = build(&specs);
        let config = SimConfig {
            seed,
            timing_noise_pct: noise,
            memory: memory(m),
            ..SimConfig::default()
        };
        let mut chaos = Chaos { rng: SmallRng::seed_from_u64(seed ^ 0x5eed), outcomes: Vec::new() };
        let mut sim = Simulator::new(&w, config);
        sim.run_queue(&mut chaos);
        sim.finish_run(&mut chaos);

        let mut k: Kernel = Kernel::new(&w, sim.kernel.model());
        let mut fx = Effects::default();
        let mut outcomes = Vec::new();
        for &tr in &sim.log {
            match tr {
                Transition::Step(t) => {
                    k.step(&w, t, &mut fx);
                }
                Transition::Access(t) => outcomes.push(k.commit_access(&w, t, &mut fx, |_, _| ())),
                Transition::Commit(t, i) => {
                    prop_assert!(k.commit_store(t, i, &mut fx).is_some(), "no store {i} of {t}");
                }
                Transition::DrainAll => k.drain_all(),
            }
        }
        prop_assert_eq!(&outcomes, &chaos.outcomes);
        prop_assert_eq!(k.heap().cells(), sim.kernel.heap().cells());
        prop_assert_eq!(k.heap().stats(), sim.kernel.heap().stats());
        prop_assert_eq!(k.threads().len(), sim.kernel.threads().len());
        for (replayed, engine) in k.threads().iter().zip(sim.kernel.threads()) {
            prop_assert_eq!(replayed.status, engine.status);
            prop_assert_eq!((replayed.script, replayed.pc), (engine.script, engine.pc));
            prop_assert!(replayed.buffer.is_empty() && engine.buffer.is_empty());
        }
    }
}
