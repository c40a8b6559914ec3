#!/usr/bin/env bash
# The exact-metric gate (ROADMAP item 7): what a run *simulates* is a pure
# function of (workload, seed), so `sim_steps`, `sim_bits_per_node` and
# `ok_ops_share` of one short benchmark pass per workload must equal
# ci/bench_expect.tsv to the last digit. Host-time metrics are not looked
# at here; they stay advisory (`benchmark compare`).
#
#   ci/bench_gate.sh           compare, exit 1 on any difference
#   ci/bench_gate.sh --bless   rewrite the expectations (only in a PR that
#                              means to change what the simulator computes)
set -euo pipefail
cd "$(dirname "$0")/.."

expect=ci/bench_expect.tsv
metrics="sim_steps sim_bits_per_node ok_ops_share"
actual=$(mktemp)
trap 'rm -f "$actual"' EXIT

for workload in $(grep -v '^#' "$expect" | cut -f1 | uniq); do
    result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    for metric in $metrics; do
        # The value as printed, not re-parsed: no float formatting in between.
        value=$(sed -E "s/.*\"$metric\": \{\"value\": ([^,}]+).*/\1/" <<<"$result")
        printf '%s\t%s\t%s\n' "$workload" "$metric" "$value"
    done
done >"$actual"

if [ "${1:-}" = --bless ]; then
    { grep '^#' "$expect"; cat "$actual"; } >"$expect.new"
    mv "$expect.new" "$expect"
    echo "blessed $expect"
elif diff <(grep -v '^#' "$expect") "$actual"; then
    echo "bench gate: $(wc -l <"$actual") exact metrics match $expect"
else
    echo "bench gate: simulated metrics moved ('<' expected, '>' got)" >&2
    exit 1
fi
