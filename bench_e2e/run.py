#!/usr/bin/env python3
"""End-to-end benchmark of the Waffle reproduction.

Usage (from the repository root):

    python3 bench_e2e/run.py --workload table4|fuzz|serve --seed N \
        --seconds S --trace 0|1

Builds `bench_e2e` (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs every workload part in its own process, so
that every metric listed in BENCHMARK.json is reported on every workload.
An untraced run makes one round per ROUND_SECONDS of S (at least
MIN_ROUNDS); each round starts one process per part, which times a fixed
number of repetitions of the part's operations. Rates fold the per-unit
best times of all rounds, so each unit is timed the same number of times,
at moments spread over the whole run (see NOTES.md). `setup_s` is the
best of all set-ups, by the same rule, timed in the named workload's
processes; `peak_rss_mb` and `tracing_overhead` also come from the named
workload's processes. The serve part's report is checked against the
batch reference, computed in a separate process so that it does not
inflate serve's peak RSS.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Earlier lines, starting
with `#`, give the host block, the output digests and timing summaries.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "bench_e2e"
PARTS = ("table4", "fuzz", "serve")
# One round per ROUND_SECONDS of --seconds, at least MIN_ROUNDS. A round
# takes about 4-5 s on a 2-vCPU Xeon host.
ROUND_SECONDS = 4
MIN_ROUNDS = 3
# Timed repetitions of each part per round: a table4 pass of both tools,
# a fuzz sweep of both blocks, a serve session.
REPS_PER_ROUND = {"table4": 1, "fuzz": 2, "serve": 1}
# Set-ups the named workload times per round. A serve set-up takes well
# under a millisecond and jitters with where the kernel places its two
# threads, so it gets more samples.
SETUPS_PER_ROUND = {"table4": 10, "fuzz": 10, "serve": 30}
# Repetitions of each part in a traced run (one round). serve makes more,
# because `core.transport_ns` is the difference of two best times, each
# about 1 s, that differ by a few percent.
TRACE_REPS = {"table4": 2, "fuzz": 2, "serve": 5}
# Single-threaded parts, pinned to a different CPU each round: on a
# shared host one CPU is often slow while another is fast, so each unit's
# best time is taken over all CPUs. serve runs a client and a server
# thread and is never pinned.
PINNED = ("table4", "fuzz")
# Metrics that describe the process they were measured in.
OWN_PROCESS = ("setup_s", "peak_rss_mb", "tracing_overhead")
# A run must end within 180 s (900 s for the first, which builds); the
# processes after the build share this budget.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(PACKAGE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        r = subprocess.run(cmd, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")
    exe = os.path.join(target_dir, "release", "waffle-e2e")
    if not os.path.isfile(exe):
        fail(f"build produced no {exe}")
    return exe


def run_json(cmd, deadline, cpu=None):
    """Runs one benchmark process, on CPU `cpu` alone if given; returns
    (comment lines, last-line JSON)."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, preexec_fn=pin,
                           timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(cmd[1:3])} failed: {e}")
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail(f"{' '.join(cmd[1:3])} exited with {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(cmd[1:3])} printed nothing")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"{' '.join(cmd[1:3])} printed no JSON result: {e}")


def command_output(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"


def host_block(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        "git_revision": command_output(["git", "rev-parse", "HEAD"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def merge_rounds(runs):
    """One part's metrics over its rounds: best-time metrics fold the
    per-unit minimum over every round, `setup_s` is the best of every
    round's set-ups, `peak_rss_mb` the highest, anything else (counts,
    which repeat exactly, and per-layer values) comes from the first."""
    merged = dict(runs[0]["metrics"])
    for name, first in runs[0]["best"].items():
        secs = [min(ts) for ts in zip(*(r["best"][name]["secs"] for r in runs))]
        total = sum(secs)
        value = first["work"] / total if first["work"] > 0 else first["scale"] * total
        merged[name] = {"value": value, "unit": merged[name]["unit"]}
    setups = [t for r in runs for t in r["setups"]]
    if "setup_s" in merged and setups:
        merged["setup_s"] = {"value": min(setups), "unit": "s"}
    if "peak_rss_mb" in merged:
        merged["peak_rss_mb"] = {"value": max(r["metrics"]["peak_rss_mb"]["value"] for r in runs),
                                 "unit": "MiB"}
    return merged


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=PARTS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")
    os.chdir(ROOT)
    exe = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    deadline = time.monotonic() + RUN_BUDGET_S

    print("# host " + json.dumps(host_block(args)))
    order = [args.workload] + [p for p in PARTS if p != args.workload]
    rounds = 1 if args.trace else max(MIN_ROUNDS, round(args.seconds / ROUND_SECONDS))
    results = {p: [] for p in order}
    cpus = sorted(os.sched_getaffinity(0))
    for rnd in range(rounds):
        for i, part in enumerate(order):
            reps = (TRACE_REPS if args.trace else REPS_PER_ROUND)[part]
            setups = SETUPS_PER_ROUND[part] if part == args.workload and not args.trace else 0
            cpu = cpus[(rnd + i) % len(cpus)] if part in PINNED else None
            notes, res = run_json([exe, "part", part, "--seed", str(args.seed),
                                   "--reps", str(reps), "--setups", str(setups),
                                   "--trace", str(args.trace)], deadline, cpu)
            for n in notes:
                print(n)
            results[part].append(res)
    _, ref = run_json([exe, "reference", "serve", "--seed", str(args.seed)], deadline)

    problems = []
    for part in order:
        runs = results[part]
        problems += [f"{part}: {f}" for r in runs for f in r["failures"]]
        if len({r["digest"] for r in runs}) != 1:
            problems.append(f"{part}: outputs differ between rounds")
    if results["serve"][0].get("report_digest") != ref["report_digest"]:
        problems.append("serve: session report differs from the batch reference")
    metrics = {}
    for part in order:
        own = part == args.workload
        for name, m in merge_rounds(results[part]).items():
            if name in OWN_PROCESS and not own:
                continue
            if name in metrics:
                problems.append(f"metric {name} reported twice")
            metrics[name] = m
    want = expected_metrics(args.trace)
    if sorted(metrics) != sorted(want):
        problems.append(f"metric set mismatch: missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    # Counts and ratios may legitimately be 0 in a layer; a timing or rate
    # never is.
    problems += [f"metric {n} is {m['value']}" for n, m in metrics.items()
                 if not args.trace and not m["value"] > 0]
    print("# digests " + json.dumps({p: results[p][0]["digest"] for p in order}))
    for p in problems:
        print(f"# FAILED {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for p in order for r in results[p]),
        "failed": sum(r["failed"] for p in order for r in results[p]),
        "metrics": {n: metrics[n] for n in want if n in metrics},
    }))


if __name__ == "__main__":
    main()
