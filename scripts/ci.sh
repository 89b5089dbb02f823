#!/usr/bin/env bash
# Local CI gate for the workspace. Run from anywhere; it cd's to the
# repo root. Fails fast on the first broken step.
#
# Two modes (ROADMAP "CI timing budget"):
#
#   ci.sh             fast PR gate: fmt + nocstar-lint + clippy + docs +
#                     build (including hostbench, the one consumer of the
#                     simulator's public fields outside the workspace) +
#                     tier-1 tests (including the NCT trace
#                     round-trip/golden-fixture suite and the
#                     hierarchical-fabric unit/property suites).
#                     Target: a few minutes.
#   ci.sh --nightly   everything above plus the slow sweeps: chaos
#                     property suite (including the 1024-core
#                     cluster-outage run), the 1024-core cascading
#                     recovery-chaos smoke and the closed-loop
#                     recovery-latency study, the 512/1024-core hier-vs-mesh
#                     scale-up claim and smoke, fault-sweep smoke, the
#                     fig15/fig11c quick runs (the SMART and contended
#                     mesh consumers of the mesh flit engine, exit code
#                     only), the full golden-report determinism sweep, the
#                     circuit and 1024-core hier host-benchmark smokes
#                     (exit code only), and the
#                     end-to-end trace-replay equivalence check
#                     (record -> replay -> byte-for-byte report diff).
#
# The determinism gate has two halves (DESIGN.md §10). nocstar-lint
# checks the simulator invariants the compiler and clippy cannot express
# (event-time mutation, float reduction order, panic indexing); it writes
# a JSON report to target/lint/ so CI can upload it as a build artifact,
# and exits non-zero on any error-severity finding. The compiler and
# clippy are the other half: with clippy.toml and the
# [workspace.lints.clippy] table every sim crate inherits, `-D warnings`
# fails on hash-ordered collections, host clocks, unwrap/expect outside
# tests, and bare or unfulfilled #[allow]/#[expect] attributes, and the
# non-exhaustive SimReport and Delivery cannot be built outside their
# crates.
set -euo pipefail
cd "$(dirname "$0")/.."

NIGHTLY=0
for arg in "$@"; do
  case "$arg" in
    --nightly) NIGHTLY=1 ;;
    *) echo "usage: ci.sh [--nightly]" >&2; exit 2 ;;
  esac
done

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== nocstar-lint (simulator invariants) =="
rm -rf target/lint
mkdir -p target/lint
cargo run --release -q -p nocstar-lint -- --json-out target/lint/report.json
echo "   lint artifact: target/lint/report.json"

echo "== cargo clippy (deny warnings; the clippy half of the determinism gate) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings: broken links fail the gate) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo build --release =="
cargo build --workspace --release

echo "== hostbench build (out-of-workspace reader of SimReport and Delivery) =="
cargo build --release --manifest-path hostbench/Cargo.toml

echo "== tier-1 tests =="
cargo test -q --workspace

echo "== trace subsystem: round-trip + golden fixture =="
cargo test -q --test trace_replay

if [[ "$NIGHTLY" == "1" ]]; then
  echo "== nightly: chaos property suite =="
  cargo test -q --test chaos

  echo "== nightly: 1024-core hierarchical-fabric chaos (cluster outage) =="
  cargo test -q --test chaos -- --ignored

  echo "== nightly: recovery-chaos smoke (1024-core cascading schedule) =="
  # The test itself asserts a non-empty recovered-translation count and
  # repeat byte-identity; release mode keeps the smoke under a minute.
  cargo test -q --release --test chaos \
    nightly_cascading_recovery_storm_at_1024_cores -- --ignored

  echo "== nightly: recovery-latency study =="
  cargo run --release -q -p nocstar-bench --bin recovery -- --quick

  echo "== nightly: scale-up claim (hier vs flat mesh at 512/1024 cores) =="
  cargo test -q --release --test paper_claims claim_hier_beats_flat_mesh_at_scale -- --ignored

  echo "== nightly: 1024-core scale-up smoke =="
  cargo run --release -q -p nocstar-bench --bin scaleup -- --quick

  echo "== nightly: fault-sweep smoke =="
  cargo run --release -q -p nocstar-bench --bin faultsweep -- --quick

  echo "== nightly: mesh flight engine end to end (fig15, fig11c) =="
  # Both consumers of the shared mesh/SMART flit engine run to completion:
  # fig15 reaches monolithic banks over SMART, fig11c loads the contended
  # mesh with synthetic traffic. Gates on the exit code only.
  ENGINE_OUT="$(mktemp -d)"
  for fig in fig15 fig11c; do
    start=$SECONDS
    NOCSTAR_OUT="$ENGINE_OUT" cargo run --release -q -p nocstar-bench --bin "$fig" -- --quick >/dev/null
    echo "   $fig --quick: $((SECONDS - start)) s"
  done
  rm -rf "$ENGINE_OUT"

  echo "== nightly: golden-report determinism sweep =="
  cargo test -q --test golden_reports
  cargo test -q --test determinism

  echo "== nightly: host-benchmark smoke (circuit fabric) =="
  # Gates on the exit code only: a failed repetition, a report-digest
  # mismatch between runs of one seed, or a wrong access count. No timing
  # threshold: this catches a fabric change that breaks determinism.
  python3 hostbench/run.py --workload circuit-redis-256 --seconds 10 --trace 0

  echo "== nightly: host-benchmark smoke (1024-core hier, data-cache model) =="
  # Same exit-code-only gate on the workload whose footprint and set-up
  # the LLC model dominates: catches a cache change that breaks
  # determinism or the access count at scale.
  python3 hostbench/run.py --workload hier-redis-1024 --seconds 10 --trace 0

  echo "== nightly: trace-replay equivalence (live vs recorded, real binaries) =="
  # Capture the redis preset with the simulator's defaults, then run the
  # replay binary twice — once live, once from the file — and demand
  # byte-identical report JSON. Proves the whole record -> NCT ->
  # FileTrace -> SimReport pipeline outside the test harness.
  TRACE_TMP="$(mktemp -d)"
  trap 'rm -rf "$TRACE_TMP"' EXIT
  cargo run --release -q -p nocstar-trace -- record \
    --preset redis --threads 4 --events 1200 --out "$TRACE_TMP/redis.nct"
  NOCSTAR_OUT="$TRACE_TMP/live" cargo run --release -q -p nocstar-bench --bin replay -- \
    --cores 4 --org nocstar --preset redis --warmup 200 --measure 500 >/dev/null
  NOCSTAR_OUT="$TRACE_TMP/replayed" cargo run --release -q -p nocstar-bench --bin replay -- \
    --cores 4 --org nocstar --warmup 200 --measure 500 \
    --trace-file "$TRACE_TMP/redis.nct" >/dev/null
  diff "$TRACE_TMP/live/replay.report.json" "$TRACE_TMP/replayed/replay.report.json"
  echo "   live and replayed reports are byte-identical"

  echo "== nightly: golden fixture replays to the golden report =="
  NOCSTAR_OUT="$TRACE_TMP/fixture" cargo run --release -q -p nocstar-bench --bin replay -- \
    --cores 4 --org nocstar --warmup 200 --measure 500 \
    --trace-file tests/golden/example.nct >/dev/null
  diff "$TRACE_TMP/fixture/replay.report.json" tests/golden/replay_example.json
  echo "   fixture replay matches tests/golden/replay_example.json"

  echo "Nightly CI gate passed."
else
  echo "PR CI gate passed."
fi
