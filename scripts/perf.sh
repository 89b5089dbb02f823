#!/usr/bin/env bash
# Wall-clock benchmark for the sequential simulation driver. Runs 64- and
# 256-core systems across the five interconnect fabrics and writes
# bench_results/BENCH_perf.json with wall-clock times, committed
# accesses per second and peak RSS (`peak_rss_mb`, the perf process's
# VmHWM, or null where /proc/self/status is missing); the
# hierarchical-fabric rows are additionally split out into
# bench_results/BENCH_hier.json (DESIGN.md §13). It also
# runs the closed-loop recovery-latency study and publishes it as
# bench_results/BENCH_recovery.json (DESIGN.md §14). The tracked
# bench_results/BENCH_parallel.json is the last measurement of the
# removed domain-parallel driver (DESIGN.md §12); this script no longer
# writes it.
#
# Usage:
#   perf.sh            full sweep (reps=5)
#   perf.sh --quick    mesh + hier, 256 cores only (reps=3)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "usage: perf.sh [--quick]" >&2; exit 2 ;;
  esac
done

if [[ "$QUICK" == "1" ]]; then
  CORE_COUNTS=(256); ORGS=(distributed hier); REPS=3
else
  CORE_COUNTS=(64 256); ORGS=(ideal distributed smart nocstar hier); REPS=5
fi

HOST_CPUS="$(nproc)"
OUT=bench_results/BENCH_perf.json
mkdir -p bench_results

echo "== building perf binary =="
cargo build --release -q -p nocstar-bench --bin perf

LINES="$(mktemp)"
trap 'rm -f "$LINES"' EXIT
for cores in "${CORE_COUNTS[@]}"; do
  for org in "${ORGS[@]}"; do
    echo "== $org, $cores cores (reps=$REPS) =="
    ./target/release/perf --cores "$cores" --org "$org" \
      --reps "$REPS" | tee -a "$LINES"
  done
done

HOST_CPUS="$HOST_CPUS" REPS="$REPS" OUT="$OUT" python3 - "$LINES" <<'EOF'
import json, os, sys

results = [json.loads(line) for line in open(sys.argv[1])]
doc = {
    "generated_by": "scripts/perf.sh",
    "host_cpus": int(os.environ["HOST_CPUS"]),
    "reps": int(os.environ["REPS"]),
    "results": results,
}
out = os.environ["OUT"]
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}")

# The hierarchical fabric gets its own artifact so the scale-up
# dashboards can track it without parsing the whole sweep.
hier = [r for r in results if r["org"] == "hier"]
if hier:
    hier_doc = {
        "generated_by": "scripts/perf.sh",
        "host_cpus": doc["host_cpus"],
        "reps": doc["reps"],
        "results": hier,
    }
    hier_out = os.path.join(os.path.dirname(out), "BENCH_hier.json")
    with open(hier_out, "w") as f:
        json.dump(hier_doc, f, indent=2)
        f.write("\n")
    print(f"wrote {hier_out}")
EOF

echo "== closed-loop recovery-latency study =="
if [[ "$QUICK" == "1" ]]; then
  cargo run --release -q -p nocstar-bench --bin recovery -- --quick >/dev/null
else
  cargo run --release -q -p nocstar-bench --bin recovery >/dev/null
fi
OUT_RECOVERY=bench_results/BENCH_recovery.json
OUT="$OUT_RECOVERY" python3 - bench_results/recovery.csv <<'EOF'
import csv, json, os, sys

with open(sys.argv[1]) as f:
    rows = list(csv.DictReader(f))
doc = {
    "generated_by": "scripts/perf.sh",
    "results": rows,
}
# Headline: the worst (smallest) latency saving across the standard
# outage scenarios — the closed loop must never lose to the open loop.
savings = [float(r["latency saved"].rstrip("%")) for r in rows]
if savings:
    doc["min_latency_saved_pct"] = min(savings)
    doc["max_latency_saved_pct"] = max(savings)
out = os.environ["OUT"]
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
if savings and min(savings) <= 0.0:
    sys.exit(
        "recovery gate: FAILED — the closed loop lost to the open loop "
        f"on at least one scenario (min saving {min(savings)}%)"
    )
print(f"recovery gate: OK (savings {min(savings)}% .. {max(savings)}%)")
EOF
