//! `oracle`: sleep-set partial-order reduction vs the naive bounded
//! explorer, written to `BENCH_oracle.json` (`WAFFLE_BENCH_ORACLE_OUT`
//! overrides the path).
//!
//! Two populations, each explored reduced and naive at bounds 2/3/4 under
//! every memory model:
//!
//! * `generated` — fixed generator seeds, the same distribution the fuzz
//!   sweeps run; small per-case spaces, so this population mostly pins
//!   verdict identity across a broad shape mix;
//! * `grid` — independent per-thread objects, the drain-rich shape where
//!   interleaving explosion actually lives: under a weak model every
//!   thread's buffered stores commute with every other thread's, and the
//!   naive explorer enumerates all their orders.
//!
//! Every single case asserts reduced verdict == naive verdict before the
//! report is written — the ratios are measurements of a
//! verdict-preserving optimization, never of a lossy one.
//!
//! Asserted claims:
//! 1. grid under TSO at bound 3 explores ≥5× fewer frontier states
//!    reduced than naive (the committed-artifact floor);
//! 2. one full exploration performs fewer allocation events than half its
//!    frontier states — the hot loop (clone-on-branch frames, reused
//!    encode scratch, direct-mapped memo) allocates only on depth growth
//!    and table resize, not per state.

use std::time::Instant;

use waffle_bench::{alloc_probe, OracleBenchReport, OracleBenchRow};
use waffle_fuzz::{explore, generate_case_for_model, OracleConfig, OracleReport};
use waffle_sim::time::us;
use waffle_sim::{MemoryModel, Workload, WorkloadBuilder};

#[global_allocator]
static ALLOC: alloc_probe::CountingAlloc = alloc_probe::CountingAlloc;

/// Generator seeds per model for the `generated` population.
const SEEDS: u64 = 10;
/// Worker threads in the `grid` workload.
const GRID_THREADS: u32 = 5;
/// Preemption bounds swept.
const BOUNDS: [u32; 3] = [2, 3, 4];
/// Shared state cap (never reached by these populations; identical on
/// both sides so a hypothetical truncation would still compare equal).
const CAP: u64 = 2_000_000;

fn model_name(m: MemoryModel) -> &'static str {
    match m {
        MemoryModel::Sc => "sc",
        MemoryModel::Tso => "tso",
        MemoryModel::Pso => "pso",
    }
}

/// Independent per-thread objects: `n` workers each init + use their own
/// object, main forks all and joins. Every cross-thread interleaving of
/// accesses (and, weakly, buffered-store drains) commutes.
fn grid(n: u32) -> Workload {
    let mut b = WorkloadBuilder::new("bench.oracle_grid");
    let mut scripts = Vec::new();
    for i in 0..n {
        let o = b.object(&format!("obj{i}"));
        scripts.push(b.script(format!("w{i}"), move |s| {
            s.init(o, "w.init", us(5)).use_(o, "w.use", us(5));
        }));
    }
    let m = b.script("main", move |s| {
        for &sc in &scripts {
            s.fork(sc);
        }
        s.join_children();
    });
    b.main(m);
    b.build()
}

fn run(w: &Workload, model: MemoryModel, bound: u32, reduce: bool) -> OracleReport {
    explore(
        w,
        &OracleConfig {
            preemption_bound: bound,
            max_states: CAP,
            memory: model,
            reduce,
        },
    )
}

fn edges(r: &OracleReport) -> u64 {
    r.states_explored + r.memo_hits + r.revisits
}

/// Explores every workload reduced and naive, asserts verdict identity
/// per case, and aggregates one row.
fn row(
    population: &str,
    workloads: &[Workload],
    model: MemoryModel,
    bound: u32,
    verdicts_checked: &mut u64,
) -> OracleBenchRow {
    let mut r_states = 0u64;
    let mut n_states = 0u64;
    let mut r_edges = 0u64;
    let mut n_edges = 0u64;
    let mut prunes = 0u64;
    let mut hits = 0u64;
    let mut r_wall = 0u64;
    let mut n_wall = 0u64;
    for w in workloads {
        let t0 = Instant::now();
        let r = run(w, model, bound, true);
        r_wall += t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let n = run(w, model, bound, false);
        n_wall += t1.elapsed().as_nanos() as u64;
        assert_eq!(
            r.verdict, n.verdict,
            "verdict diverged on {} ({} bound {bound})",
            w.name,
            model_name(model)
        );
        *verdicts_checked += 1;
        r_states += r.states_explored;
        n_states += n.states_explored;
        r_edges += edges(&r);
        n_edges += edges(&n);
        prunes += r.sleep_prunes;
        hits += r.memo_hits;
    }
    OracleBenchRow {
        population: population.to_string(),
        model: model_name(model).to_string(),
        preemption_bound: bound,
        cases: workloads.len() as u64,
        reduced_states: r_states,
        naive_states: n_states,
        state_ratio: n_states as f64 / r_states as f64,
        reduced_edges: r_edges,
        naive_edges: n_edges,
        edge_ratio: n_edges as f64 / r_edges as f64,
        sleep_prunes: prunes,
        memo_hits: hits,
        reduced_wall_ns: r_wall,
        naive_wall_ns: n_wall,
    }
}

fn main() {
    let models = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];
    let mut rows = Vec::new();
    let mut verdicts_checked = 0u64;
    let mut headline = 0.0f64;

    let grid_w = [grid(GRID_THREADS)];
    for model in models {
        let generated: Vec<Workload> = (0..SEEDS)
            .map(|s| generate_case_for_model(s, model).workload)
            .collect();
        for bound in BOUNDS {
            rows.push(row(
                "generated",
                &generated,
                model,
                bound,
                &mut verdicts_checked,
            ));
            let g = row("grid", &grid_w, model, bound, &mut verdicts_checked);
            if model == MemoryModel::Tso && bound == 3 {
                headline = g.state_ratio;
            }
            rows.push(g);
        }
    }

    assert!(
        headline >= 5.0,
        "grid tso bound-3 state reduction {headline:.2}x is under the 5x floor"
    );

    // Allocation probe: a full naive exploration of the grid under TSO at
    // bound 3 visits thousands of states; the explorer may allocate on
    // depth growth, memo resize, and witness assembly — never per state.
    let before = alloc_probe::events();
    let probe = run(&grid_w[0], MemoryModel::Tso, 3, false);
    let alloc_events = alloc_probe::events() - before;
    assert!(
        alloc_events < probe.states_explored / 2,
        "exploration allocated {alloc_events} times over {} states — the hot loop allocates",
        probe.states_explored
    );

    for r in &rows {
        println!(
            "{:>9} {:>3} b{}: states {} vs {} ({:.2}x), edges {} vs {} ({:.2}x), \
             prunes {}, wall {:.1}ms vs {:.1}ms",
            r.population,
            r.model,
            r.preemption_bound,
            r.reduced_states,
            r.naive_states,
            r.state_ratio,
            r.reduced_edges,
            r.naive_edges,
            r.edge_ratio,
            r.sleep_prunes,
            r.reduced_wall_ns as f64 / 1e6,
            r.naive_wall_ns as f64 / 1e6,
        );
    }
    println!(
        "headline (grid tso b3): {headline:.2}x fewer frontier states; \
         alloc probe: {alloc_events} allocation events over {} states",
        probe.states_explored
    );

    let report = OracleBenchReport {
        rows,
        headline_state_ratio: headline,
        alloc_probe_events: alloc_events,
        alloc_probe_states: probe.states_explored,
        verdicts_checked,
    };
    let path = OracleBenchReport::default_path();
    report.write(&path).expect("write oracle bench report");
    println!("wrote {}", path.display());
}
