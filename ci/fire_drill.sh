#!/usr/bin/env bash
# Fire drill for the test suite: planted bugs must be caught. A `git
# archive` of REV must pass every test a drill names; then each drill's
# patch, one hunk, is applied on its own and the test it names must
# fail, with the tree still building.
#
#   ci/fire_drill.sh [REV]      (default HEAD)
#
# The drills are the rows of ci/drills/tests.tsv, tab-separated:
#
#   patch (a file in ci/drills/)   package   test filter
#
# The filter is `cargo test`'s name filter; on the clean tree it must
# select at least one test of the package. Every patch in ci/drills/ has
# exactly one row. Tests run in the dev profile.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
rev="${1:-HEAD}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$work"
cd "$work"
export CARGO_TARGET_DIR="$work/target"
drills=ci/drills

# run PACKAGE FILTER LOG: builds PACKAGE's tests, then runs those FILTER
# selects. Returns 2 if the build fails, 1 if a selected test fails, 3
# if nothing was selected, 0 otherwise.
run() {
    cargo test --offline -q -p "$1" --no-run >"$3" 2>&1 || return 2
    cargo test --offline -p "$1" -- "$2" >>"$3" 2>&1 || return 1
    awk '/^test result:/ { n += $4 } END { exit !(n > 0) }' "$3" || return 3
}

rows="$(grep -v '^#' $drills/tests.tsv | grep -v '^[[:space:]]*$')"

# One row per patch and one patch per row: a patch without a row would
# never be planted, a row without a patch never catches anything.
listed="$(cut -f1 <<<"$rows" | sort)"
present="$(cd "$drills" && ls -- *.patch | sort)"
if [ "$listed" != "$present" ]; then
    diff <(echo "$listed") <(echo "$present") | grep '^[<>]' >&2 || true
    echo "fire drill: tests.tsv rows (<) and ci/drills/*.patch (>) differ" >&2
    exit 1
fi
while IFS=$'\t' read -r patch package filter; do
    status=0
    run "$package" "$filter" "$work/clean.log" || status=$?
    if [ "$status" -ne 0 ]; then
        cat "$work/clean.log"
        echo "fire drill: $rev fails or selects nothing of $package '$filter' unplanted ($status)" >&2
        exit 1
    fi
done <<<"$rows"
echo "clean: $rev passes every named test"

missed=0 total=0
while IFS=$'\t' read -r patch package filter; do
    total=$((total + 1))
    name="${patch%.patch}"
    if [ "$(grep -c '^@@' "$drills/$patch")" -ne 1 ]; then
        echo "$name: MISSED, the patch is not one hunk"
        missed=$((missed + 1))
        continue
    fi
    patch -s -p1 <"$drills/$patch"
    status=0
    run "$package" "$filter" "$work/$name.log" || status=$?
    patch -s -R -p1 <"$drills/$patch"
    case $status in
        1) echo "$name: caught by $package '$filter'" ;;
        2) echo "$name: MISSED, the planted tree does not build"
           missed=$((missed + 1)) ;;
        *) echo "$name: MISSED, $package '$filter' passed with the bug planted"
           missed=$((missed + 1)) ;;
    esac
done <<<"$rows"

if [ "$missed" -ne 0 ]; then
    echo "fire drill: $missed of $total drill(s) went undetected" >&2
    exit 1
fi
echo "fire drill: $total/$total caught"
