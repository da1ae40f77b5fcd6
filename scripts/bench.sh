#!/usr/bin/env bash
# Record the platform's perf baseline.
#
# Runs the `scale` experiment (serial vs worker-pool TTI engine, one
# master shard per worker, pinned seed, full durations) plus the criterion
# micro-benchmarks, and snapshots the machine-readable artifacts to the
# repository root:
#
#   BENCH_scale.json      — TTIs/s, per-phase wall-time, allocs/TTI,
#                           TTI latency percentiles (p50/p95/p99/worst)
#                           and max-cells-at-budget from the deadline
#                           monitor, serial and multi-worker series,
#                           steady-state zero-alloc probes,
#                           scheduler zero-alloc probe, determinism check
#
# The experiment sizes its worker pool from the machine's available
# cores; this script surfaces that up front so a committed
# BENCH_scale.json is never mistaken for a multi-core measurement when
# it was recorded on a single-CPU host (where every parallel series
# degenerates to one thread and speedups are ~1.0x by construction).
#
# If the committed BENCH_scale.json was recorded on a multi-core host
# (`parallel_workers > 1`) and this host is single-core, the snapshot is
# REFUSED unless --force is given: a one-thread run would silently
# replace real parallel-speedup numbers with degenerate ~1.0x ones.
# The reverse direction (single-core baseline, any host) always
# proceeds — the committed baseline of this repository is single-core
# because its reference CI box has one CPU; every determinism and
# allocation contract is fully exercised there, only the speedup
# columns are degenerate.
#
# With --sweep, additionally runs the multi-seed campaign sweep
# (`flexran-campaign sweep`): the same scale grid, every point measured
# under independent seeds, written to target/experiments/BENCH_scale_sweep.json
# with per-KPI distributions (mean ± 95% CI, exact p50/p95/p99) instead
# of single-run points. The sweep never replaces the committed
# single-run baseline — the two schemas are complementary.
#
# Usage: scripts/bench.sh [--quick] [--force] [--sweep]
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=()
FORCE=0
SWEEP=0
for arg in "$@"; do
  case "$arg" in
    --quick) MODE=(--quick) ;;
    --force) FORCE=1 ;;
    --sweep) SWEEP=1 ;;
    *) echo "unknown flag '$arg' (flags: --quick --force --sweep)" >&2; exit 2 ;;
  esac
done

CORES=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
echo "bench host: ${CORES} core(s) available"
if [[ "$CORES" -le 1 ]]; then
  echo "WARNING: single-CPU host — the worker-pool series will run on one" \
       "thread; record multi-core numbers on a host with >=2 cores."
fi

# Baseline-protection gate: never downgrade a multi-core baseline to a
# single-core one by accident.
if [[ -f BENCH_scale.json && "$CORES" -le 1 && "$FORCE" -ne 1 ]]; then
  BASELINE_WORKERS=$(sed -n 's/.*"parallel_workers": *\([0-9][0-9]*\).*/\1/p' \
      BENCH_scale.json | head -n1)
  if [[ -n "$BASELINE_WORKERS" && "$BASELINE_WORKERS" -gt 1 ]]; then
    echo "ERROR: committed BENCH_scale.json was recorded with" \
         "${BASELINE_WORKERS} workers but this host has ${CORES} core(s)." >&2
    echo "A single-core run would overwrite real parallel-speedup numbers" \
         "with degenerate ~1.0x ones. Re-run on a multi-core host, or pass" \
         "--force to overwrite anyway." >&2
    exit 1
  fi
fi

OUT=target/experiments
cargo build --release -p flexran-bench
cargo run --release -p flexran-bench --bin experiments -- scale "${MODE[@]}" --out "$OUT"
cp "$OUT/BENCH_scale.json" BENCH_scale.json

# Micro-benchmarks (median/p95 per op, JSON at target/criterion/).
cargo bench -p flexran-bench --bench micro

# Optional seeded sweep: distribution-grade scale points (see
# EXPERIMENTS.md §"Campaign reports").
if [[ "$SWEEP" -eq 1 ]]; then
  SWEEP_OUT="$OUT/sweep"
  cargo run --release -p flexran-campaign -- sweep "${MODE[@]}" --out "$SWEEP_OUT"
  cp "$SWEEP_OUT/BENCH_scale.json" "$OUT/BENCH_scale_sweep.json"
  echo "wrote $(pwd)/$OUT/BENCH_scale_sweep.json (seeded distributions)"
fi

echo
echo "wrote $(pwd)/BENCH_scale.json (cores: ${CORES})"
