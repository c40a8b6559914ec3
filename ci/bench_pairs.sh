#!/usr/bin/env bash
# The alternating-pairs protocol of ROADMAP's constraint notes, as a
# command: workloads of `benchmark/`, a parent revision against this
# working tree, `--trace 0`, BENCHMARK.json's run length.
#
#   ci/bench_pairs.sh <parent-rev> <workload>[,<workload>...|all] [pairs=10] [seed-base=1000]
#
# `all` is every workload BENCHMARK.json lists, in its order. Both sides
# are built once, from copies under a scratch directory ($TMPDIR or
# /tmp) — the parent from `git archive`, the change from the tracked and
# untracked-but-not-ignored files of the working tree, uncommitted edits
# included — each into a target directory of its own, so nothing under
# `benchmark/` (its stale Cargo.lock included) is written here. Then, per
# workload, pair i runs seed `seed-base + i` on both sides, parent first
# on odd pairs, change first on even ones. Printed, one block per
# workload: every pair's host-time metrics, whether `sim_steps` /
# `sim_bits_per_node` / `ok_ops_share` were equal on its seed, then per
# metric the two medians [quartiles], the change's delta and its wins
# (ties count for neither side). A gain is claimed at >= 9/10 wins and a
# median gap above the parent's quartile distance; use seeds no one
# looked at while writing the change. Exits 1 if any workload's exact
# metrics differed on any pair, or at the first pass that exits non-zero,
# naming its workload, side and seed.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || { sed -n '2,7p' "$0" >&2; exit 1; }
rev=$1 workloads=$2 pairs=${3:-10} base=${4:-1000}
[ "$workloads" != all ] ||
    workloads=$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json | paste -sd, -)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
timed="setup_s run_wall_s decisions_per_s peak_rss_mb"
exact="sim_steps sim_bits_per_node ok_ops_share"

scratch=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$scratch"' EXIT
mkdir "$scratch/parent" "$scratch/change"
git archive "$rev" | tar -x -C "$scratch/parent"
git ls-files -co --exclude-standard -z |
    tar --null -T - --ignore-failed-read -c 2>/dev/null | tar -x -C "$scratch/change"
for side in parent change; do
    echo "building $side ($([ $side = parent ] && echo "$rev" || echo "working tree"))" >&2
    CARGO_TARGET_DIR="$scratch/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$scratch/$side/benchmark/Cargo.toml"
done

# One pass of `side` on `workload` and `seed`: "<metric> <value>" lines.
# A pass that exits non-zero (an op failed) ends the script, named.
pass() {
    local line metric code=0
    line=$(cd "$scratch/$1/benchmark" && "$scratch/target-$1/release/benchmark" \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1) || code=$?
    if [ "$code" -ne 0 ]; then
        echo "bench_pairs: $2 $1 seed $3 exited $code" >&2
        exit 1
    fi
    for metric in $timed $exact; do
        # The value as printed, not re-parsed: no float formatting in between.
        echo "$metric $(sed -E "s/.*\"$metric\": \{\"value\": ([^,}]+).*/\1/" <<<"$line")"
    done
}
value() { awk -v m="$2" '$1 == m { print $2 }' "$1"; }

# Median and quartiles (linear interpolation) of the values on stdin.
spread() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,  h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
        END { printf "%.4f [%.4f, %.4f]", q(0.5), q(0.25), q(0.75) }'
}

# Every pair of one workload, then its summary block; sets `status` to 1
# if the exact metrics differed on any pair.
compare() {
    local workload=$1 i seed order label side metric verdict p c same=0
    local out="$scratch/$workload"
    echo "# $workload: parent $rev vs working tree, $pairs pairs, seeds $((base + 1))..$((base + pairs)), --seconds $seconds --trace 0"
    printf '%-5s %-6s %-5s' pair seed order
    for metric in $timed; do printf ' %26s' "$metric (P C)"; done
    printf ' %s\n' exact
    for i in $(seq 1 "$pairs"); do
        seed=$((base + i))
        if [ $((i % 2)) -eq 1 ]; then order="parent change" label="P C"; else order="change parent" label="C P"; fi
        for side in $order; do pass "$side" "$workload" "$seed" >"$out.$side.$i"; done
        verdict=equal
        for metric in $exact; do
            [ "$(value "$out.parent.$i" "$metric")" = "$(value "$out.change.$i" "$metric")" ] ||
                verdict="$metric-differs"
        done
        [ "$verdict" != equal ] || same=$((same + 1))
        printf '%-5s %-6s %-5s' "$i" "$seed" "$label"
        for metric in $timed; do
            printf ' %13.4f%13.4f' "$(value "$out.parent.$i" "$metric")" "$(value "$out.change.$i" "$metric")"
        done
        printf ' %s\n' "$verdict"
    done
    echo
    printf '%-16s %-28s %-28s %8s %6s\n' metric "parent median [q1, q3]" "change median [q1, q3]" delta wins
    for metric in $timed; do
        for side in parent change; do
            for i in $(seq 1 "$pairs"); do value "$out.$side.$i" "$metric"; done >"$out.$side.all"
        done
        p=$(spread <"$out.parent.all") c=$(spread <"$out.change.all")
        # `decisions_per_s` is the one metric where higher is better.
        paste "$out.parent.all" "$out.change.all" |
            awk -v up="$([ "$metric" = decisions_per_s ] && echo 1 || echo 0)" -v n="$pairs" \
                -v name="$metric" -v p="$p" -v c="$c" '
                { if (up ? $2 > $1 : $2 < $1) wins++ }
                END { split(p, pm, " "); split(c, cm, " ")
                      printf "%-16s %-28s %-28s %+7.1f%% %3d/%d\n", name, p, c, 100 * (cm[1] - pm[1]) / pm[1], wins, n }'
    done
    echo "exact metrics ($exact) equal per seed on $same/$pairs pairs"
    echo
    [ "$same" -eq "$pairs" ] || status=1
}

status=0
for workload in ${workloads//,/ }; do
    compare "$workload"
done
exit "$status"
