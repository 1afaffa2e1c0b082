#!/usr/bin/env bash
# Two full sets of runs of the same commit, back to back, then the bounds of
# BENCHMARK.json applied to the pair. Exits 0 when no workload x metric row
# reads `worse` and every count-type layer metric repeated exactly.
# RUNS=<n> end-to-end runs per workload and set (default 4: fewer have no
# quartiles, and `unresolved` can then never be told from `same`).
set -euo pipefail
cd "$(dirname "$0")/.."
bench() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
bench --runs "${RUNS:-4}" --out benchmark/out/set-a.json
bench --runs "${RUNS:-4}" --out benchmark/out/set-b.json
bench --compare benchmark/out/set-a.json benchmark/out/set-b.json
