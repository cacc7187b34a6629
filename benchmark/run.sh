#!/usr/bin/env bash
# One full set of runs: builds the repository and the benchmark in
# release mode, runs all six workloads untraced (three times) and then
# traced, and appends one JSON record per run to
# benchmark/out/run-<n>.json (the first free <n>). Two such files are what `acfc-benchmark compare`
# takes.
#
#   benchmark/run.sh [seed]        # default seed 1, the pinned one
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
seed="${1:-1}"

cargo build --release --offline
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/acfc-benchmark"

if ! "$bin" spec | cmp -s - BENCHMARK.json; then
    echo "BENCHMARK.json differs from \`acfc-benchmark spec\`" >&2
    exit 1
fi

mkdir -p benchmark/out
n=1
while [ -e "benchmark/out/run-$n.json" ]; do n=$((n + 1)); done
out="benchmark/out/run-$n.json"

seconds=$(sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p' BENCHMARK.json)
status=0
# Untraced three times over, so that `compare` sets a median against a
# median: a single run now and then lands in a slow minute of the
# machine and reads 10 % off on one metric.
for trace in 0 0 0 1; do
    for workload in analysis_scale sim_msg_bound sim_compute_bound sweep_matrix ckpt_write kill_recover; do
        echo "== $workload trace=$trace seed=$seed"
        report=$("$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --out "$out") || status=1
        printf '%s\n' "$report" | grep -v '^{' || true
        case "$(printf '%s\n' "$report" | tail -n 1)" in
        *'"correct": true'*) ;;
        *) status=1 ;;
        esac
    done
done
echo "wrote $out"
exit $status
