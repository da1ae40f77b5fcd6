#!/usr/bin/env bash
# One-stop local CI: formatting, clippy, the workspace invariant checker,
# and the full test suite (including the determinism run with RIB
# single-writer/epoch assertions compiled in).
#
# Usage: scripts/check.sh          # from anywhere inside the repo
set -euo pipefail
cd "$(dirname "$0")/.."

# Our packages only — `--all` would also reformat the vendored deps,
# which we keep byte-identical to their upstream snapshots.
OWN_PKGS=()
for manifest in crates/*/Cargo.toml; do
    OWN_PKGS+=(-p "$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n1)")
done

echo "==> cargo fmt --check"
cargo fmt "${OWN_PKGS[@]}" -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> flexran-lint (gated against lint-baseline.toml)"
cargo run --quiet -p flexran-lint

echo "==> cargo test (workspace)"
cargo test --quiet --workspace

echo "==> determinism + master-recovery tests with debug-invariants assertions"
cargo test --quiet --release -p flexran --features debug-invariants --test determinism
cargo test --quiet --release -p flexran --features debug-invariants --test master_recovery

echo "==> ttibench (its own workspace; builds against the harness and master APIs)"
cargo test --quiet --release --offline --manifest-path ttibench/Cargo.toml

echo "==> allocation-regression gate (2 eNBs x 32 UEs: silent, ceiling 0 allocs; 1 ms stats, ceiling 2 allocs/TTI; 1 ms stats on 2 workers, ceiling 17 allocs/TTI)"
cargo run --quiet --release -p flexran-bench --bin experiments -- \
    allocgate --out target/check-allocgate

echo "==> rollout smoke gate (8 agents, 1 canary, forced regression -> rollback, 2000 TTIs)"
cargo run --quiet --release -p flexran-bench --bin experiments -- \
    rollout --out target/check-rollout

echo "==> chaos campaign gate (8 seeds x 2000 TTIs, 1 and 4 engine workers, parallel)"
# One campaign covers what used to be two sequential experiment runs:
# every seed on the serial engine and on the 4-worker engine (whose
# master has 4 RIB shards), fanned over the campaign pool, failing on
# any violation (exit 1 pins each one).
cargo run --quiet --release -p flexran-campaign -- \
    chaos --seeds 8 --ttis 2000 --configs 1,4 --out target/check-chaos

echo "All checks passed."
