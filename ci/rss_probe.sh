#!/usr/bin/env bash
# Peak memory of single large runs: `paperbench scenario --n <n> --seed
# <seed>` for each n, its `VmHWM` polled from /proc/<pid>/status until it
# exits — on this working tree and, with --against, on a revision too.
#
#   ci/rss_probe.sh [--against REV] <n>[,<n>...] [seed=1]
#
# Each side is built once, as ci/bench_pairs.sh builds it: from a copy
# under a scratch directory ($TMPDIR or /tmp) — REV from `git archive`,
# the working tree from its tracked and untracked-but-not-ignored files,
# uncommitted edits included — into a target directory of its own. Prints
# one line per run, `n side VmHWM_kB wall_s` (side `parent` is REV,
# `change` the working tree; per n the parent runs first). `VmHWM` is read
# every 20 ms, so growth in a run's last 20 ms can go unseen. Exits 1 if,
# for some n, the two sides printed different output (the `_(ran in …)_`
# footer aside).
set -euo pipefail
cd "$(dirname "$0")/.."

usage() { sed -n '2,6p' "$0" >&2; exit 1; }
rev=
if [ "${1:-}" = --against ]; then
    [ $# -ge 2 ] || usage
    rev=$2
    shift 2
fi
[ $# -ge 1 ] || usage
sizes=$1 seed=${2:-1}

scratch=$(mktemp -d "${TMPDIR:-/tmp}/rss_probe.XXXXXX")
trap 'rm -rf "$scratch"' EXIT
sides=change
mkdir "$scratch/change"
git ls-files -co --exclude-standard -z |
    tar --null -T - --ignore-failed-read -c 2>/dev/null | tar -x -C "$scratch/change"
if [ -n "$rev" ]; then
    sides="parent change"
    mkdir "$scratch/parent"
    git archive "$rev" | tar -x -C "$scratch/parent"
fi
for side in $sides; do
    echo "building $side ($([ $side = parent ] && echo "$rev" || echo "working tree"))" >&2
    CARGO_TARGET_DIR="$scratch/target-$side" cargo build --release --offline --quiet \
        -p fba-bench --manifest-path "$scratch/$side/Cargo.toml"
done

# One run of `side` at `n`: its output to a file, then its line.
probe() {
    local side=$1 n=$2 pid hwm=0 kb start
    start=$(date +%s.%N)
    "$scratch/target-$side/release/paperbench" scenario --n "$n" --seed "$seed" \
        >"$scratch/out.$side.$n" &
    pid=$!
    while kill -0 "$pid" 2>/dev/null; do
        kb=$(awk '$1 == "VmHWM:" { print $2 }' "/proc/$pid/status" 2>/dev/null || true)
        [ -z "$kb" ] || hwm=$kb
        sleep 0.02
    done
    wait "$pid"
    echo "$n $side $hwm $(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.2f", b - a }')"
}

status=0
for n in ${sizes//,/ }; do
    for side in $sides; do probe "$side" "$n"; done
    [ -n "$rev" ] || continue
    # The output less its `_(ran in …)_` footer, the one host-time line.
    for side in parent change; do
        grep -v '^_(ran in ' "$scratch/out.$side.$n" >"$scratch/cmp.$side.$n" || true
    done
    if ! diff "$scratch/cmp.parent.$n" "$scratch/cmp.change.$n" >&2; then
        echo "n = $n: the two sides' outputs differ" >&2
        status=1
    fi
done
exit "$status"
