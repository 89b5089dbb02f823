#!/usr/bin/env python3
"""Host-performance benchmark of the NOCSTAR simulator.

Run from the root of the repository:

    python3 hostbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Builds the `hostbench` binary (a package of its own in this directory;
the target directory is $CARGO_TARGET_DIR, or `.bench_build` in the
current directory), then starts it once per repetition until `--seconds`
have passed (at least three repetitions), each in a fresh process, so
that set-up time and peak RSS belong to that repetition alone. Every
repetition simulates its own workload seed, derived from `--seed`.

With `--trace 0` it reports the end-to-end metrics from medians over
repetitions: simulated accesses per host second and set-up seconds, both
corrected for host speed with a fixed reference kernel timed after every
repetition, and peak RSS. With `--trace 1` it spends half the time on untraced
repetitions, for the median run time the layer shares are taken of, and
then makes one traced run (see `src/traced.rs`).

Every repetition is checked: it fails if the simulation aborts, if its
report covers another number of accesses than the workload asked for, or
if its report's digest differs from the other repetitions of the same
workload and seed. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the exit
code is non-zero when any repetition failed. See README.md.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = (
    "circuit-redis-256",
    "private-gups-256",
    "hier-redis-1024",
    "sampled-redis-256",
)
DEFAULT_SEED = 1
MIN_REPS = 3
# The reference kernel's typical time on the 2-CPU x86-64 VM the bounds
# were tuned on. `sim_accesses_per_s` and `setup_s` read as if the host
# ran the kernel in exactly this time.
REFERENCE_NOMINAL_S = 0.25
# One repetition takes a few seconds; a child that takes this long hangs.
CHILD_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary and returns its path, or exits."""
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"hostbench: build failed: {e}")
        sys.exit(2)
    if done.returncode != 0:
        log(f"hostbench: build failed with exit code {done.returncode}")
        sys.exit(2)
    return os.path.join(target, "release", "hostbench")


def child(binary, args):
    """Runs one repetition; returns its JSON record, or None and why."""
    try:
        p = subprocess.run([binary] + args, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if p.returncode != 0:
        return None, f"exit code {p.returncode}: {p.stderr.strip()[-300:]}"
    try:
        rec = json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "no JSON record on standard output"
    if not rec.get("ok"):
        return None, rec.get("error") or "output check failed"
    return rec, None


def workload_seed(seed, rep):
    """The workload seed of repetition `rep` of a run with `seed`."""
    return seed * 1000 + rep


def untraced_reps(binary, workload, seeds, seconds, min_reps, reference):
    """Untraced repetitions until `seconds` pass and at least `min_reps`
    ran; repetition `i` simulates workload seed `seeds(i)`."""
    deadline = time.monotonic() + seconds
    reps = []
    while len(reps) < min_reps or time.monotonic() < deadline:
        reps.append(rep(binary, workload, seeds(len(reps)), reference))
    return reps


def rep(binary, workload, seed, reference):
    """One repetition, followed by one pass of the reference kernel when
    `reference` is set; the record is None if either failed."""
    rec, err = child(binary, ["run", "--workload", workload, "--seed", str(seed)])
    if rec and reference:
        ref, err = child(binary, ["reference"])
        if ref:
            rec["reference_s"] = ref["reference_s"]
        else:
            rec = None
    if err:
        log(f"hostbench: {workload} workload seed {seed} failed: {err}")
    return seed, rec


def check_digests(reps):
    """The records that passed their own check and whose report digest
    matches the most common digest of their seed, plus one digest per
    seed. Any other digest means the simulation is not deterministic."""
    by_seed = collections.defaultdict(collections.Counter)
    for seed, rec in reps:
        if rec:
            by_seed[seed][rec["report_fnv64"]] += 1
    common = {seed: c.most_common(1)[0][0] for seed, c in by_seed.items()}
    ok = [rec for seed, rec in reps if rec and rec["report_fnv64"] == common[seed]]
    if len(ok) < sum(1 for _, rec in reps if rec):
        log(f"hostbench: reports differ between repetitions of one seed: {dict(by_seed)}")
    return ok, common


def quartiles(values):
    """(first quartile, median, third quartile) of `values`."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    return tuple(statistics.quantiles(values, n=4))


def digests_text(digests):
    return " ".join(f"{seed}:{d}" for seed, d in sorted(digests.items()))


def end_to_end(binary, workload, seed, seconds):
    # Every repetition simulates another workload seed: host time per
    # access differs by up to 1.8x between seeds on the circuit fabric, so
    # a run's median must not rest on one seed. The first seed runs once
    # more at the end, for the determinism check.
    seeds = lambda i: workload_seed(seed, i)
    reps = untraced_reps(binary, workload, seeds, seconds, MIN_REPS, True)
    reps.append(rep(binary, workload, seeds(0), True))
    ok, digests = check_digests(reps)
    failed = len(reps) - len(ok)
    print(f"hostbench {workload} seed={seed} trace=0 runs={len(reps)} "
          f"failed={failed} failed_run_ratio={failed / len(reps):.4f}")
    print(f"  report_fnv64 by workload seed: {digests_text(digests)}")
    if not ok:
        return len(reps), failed, {}
    series = {
        "raw_sim_accesses_per_s": ("1/s", [r["sim_accesses"] / r["run_s"] for r in ok]),
        "raw_setup_s": ("s", [r["setup_s"] for r in ok]),
        "reference_s": ("s", [r["reference_s"] for r in ok]),
        "peak_rss_mb": ("MiB", [r["peak_rss_mb"] for r in ok]),
    }
    medians = {}
    for name, (unit, values) in series.items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:<22} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"(n={len(values)})")
        medians[name] = med
    # Host speed drifts by tens of percent over minutes on a shared host,
    # and the reference kernel drifts with it: scaling both host times by
    # the kernel's median time in this run cancels most of that drift.
    # They then read as on a host that runs the kernel in
    # REFERENCE_NOMINAL_S.
    speed = medians["reference_s"] / REFERENCE_NOMINAL_S
    metrics = {
        "sim_accesses_per_s": {"value": medians["raw_sim_accesses_per_s"] * speed,
                               "unit": "1/s"},
        "setup_s": {"value": medians["raw_setup_s"] / speed, "unit": "s"},
        "peak_rss_mb": {"value": medians["peak_rss_mb"], "unit": "MiB"},
    }
    print(f"  host speed correction: reference_s / {REFERENCE_NOMINAL_S} s = {speed:.4f}")
    for name, m in metrics.items():
        print(f"  {name:<22} {m['value']:.6g} {m['unit']}")
    return len(reps), failed, metrics


def per_layer(binary, workload, seed, seconds):
    traced_seed = workload_seed(seed, 0)
    reps = untraced_reps(binary, workload, lambda i: traced_seed, seconds / 2, 2, False)
    runs = [rec["run_s"] for _, rec in reps if rec]
    if not runs:
        return len(reps), len(reps), {}
    untraced_s = statistics.median(runs)
    rec, err = child(binary, ["trace", "--workload", workload, "--seed", str(traced_seed),
                              "--untraced-run-s", repr(untraced_s)])
    if err:
        log(f"hostbench: {workload} seed {traced_seed} traced run failed: {err}")
    reps.append((traced_seed, rec))
    ok, digests = check_digests(reps)
    failed = len(reps) - len(ok)
    print(f"hostbench {workload} seed={seed} trace=1 runs={len(reps)} failed={failed} "
          f"untraced_run_s={untraced_s:.6g}")
    print(f"  report_fnv64 by workload seed: {digests_text(digests)}")
    metrics = {}
    if rec and rec["report_fnv64"] == digests[traced_seed]:
        for name, value in rec["metrics"].items():
            unit = unit_of(name)
            print(f"  {name:<40} {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    return len(reps), failed, metrics


def unit_of(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ns") or name.endswith(".ns_per_call"):
        return "ns"
    if name.endswith("_cycles"):
        return "cycles"
    return "ratio"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    binary = build()
    measure = per_layer if args.trace else end_to_end
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    any_failed = False
    for workload in workloads:
        attempted, failed, metrics = measure(binary, workload, args.seed, args.seconds)
        any_failed |= failed > 0
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}), flush=True)
    sys.exit(1 if any_failed else 0)


if __name__ == "__main__":
    main()
