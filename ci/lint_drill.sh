#!/usr/bin/env bash
# Fire drill for the determinism rules D1-D7 (README "Static
# guarantees"). A `git archive` of REV must pass clippy with every
# clippy.toml path resolved; then one planted violation per rule, in a
# real file, must fail clippy with the named lint at the planted line.
#
#   ci/lint_drill.sh [REV]      (default HEAD)
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
rev="${1:-HEAD}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$work"
cd "$work"
export CARGO_TARGET_DIR="$work/target"

if ! cargo clippy --offline --workspace --all-targets -- -D warnings >clean.log 2>&1; then
    cat clean.log
    echo "lint drill: $rev does not pass clippy unplanted" >&2
    exit 1
fi
if grep -A3 'does not refer to a reachable' clean.log; then
    echo "lint drill: a clippy.toml entry names nothing" >&2
    exit 1
fi
echo "clean: $rev passes clippy; every clippy.toml path resolves"

missed=0
# plant FILE TEXT: keeps FILE.orig, appends TEXT as a new last line and
# prints that line's number.
plant() {
    cp "$1" "$1.orig"
    printf '%s\n' "$2" >>"$1"
    wc -l <"$1"
}
# drill RULE PACKAGE LINT FILE LINE: clippy on PACKAGE must fail with
# LINT at FILE:LINE. Restores FILE from FILE.orig.
drill() {
    local out="$work/$1.json"
    if cargo clippy --offline -p "$2" --all-targets --message-format=json -- -D warnings \
        >"$out" 2>/dev/null; then
        echo "$1: MISSED, clippy passed with $4:$5 planted"
        missed=$((missed + 1))
    elif jq -en --arg lint "$3" --arg file "$4" --argjson line "$5" '[inputs | .message // empty
        | select(.code.code == $lint) | .spans[]
        | select(.is_primary and .file_name == $file and .line_start == $line)] != []' \
        "$out" >/dev/null; then
        echo "$1: caught, $3 at $4:$5"
    else
        echo "$1: MISSED, clippy failed but not with $3 at $4:$5"
        missed=$((missed + 1))
    fi
    mv "$4.orig" "$4"
}

core=crates/core/src
stub='#[allow(dead_code)] fn planted()'
line=$(plant $core/push.rs 'use std::collections::HashMap;')
drill D1 fba-core clippy::disallowed_types $core/push.rs "$line"
line=$(plant $core/pull.rs "$stub { std::thread::spawn(|| ()); }")
drill D2 fba-core clippy::disallowed_methods $core/pull.rs "$line"
line=$(plant $core/pull.rs "$stub -> std::sync::Mutex<u8> { std::sync::Mutex::new(0) }")
drill D2 fba-core clippy::disallowed_types $core/pull.rs "$line"
line=$(plant crates/sim/src/engine.rs "$stub { let _ = std::time::Instant::now(); }")
drill D3 fba-sim clippy::disallowed_types crates/sim/src/engine.rs "$line"
line=$(plant $core/aer.rs "$stub { use rand::SeedableRng; rand_chacha::ChaCha12Rng::seed_from_u64(7); }")
drill D4 fba-core clippy::disallowed_methods $core/aer.rs "$line"
tuning=crates/sim/src/tuning.rs
cp $tuning $tuning.orig
grep -v '// SAFETY:' $tuning.orig >$tuning
drill D5 fba-sim clippy::undocumented_unsafe_blocks $tuning "$(grep -n 'unsafe {' $tuning | cut -d: -f1)"
line=$(plant $core/lib.rs "$stub { unsafe {} }")
drill D5 fba-core unsafe_code $core/lib.rs "$line"
line=$(plant $core/config.rs "$stub -> bool { std::env::var(\"FBA\").is_ok() }")
drill D6 fba-core clippy::disallowed_methods $core/config.rs "$line"
line=$(plant $core/lib.rs "$stub { println!(\"planted\"); }")
drill D7 fba-core clippy::print_stdout $core/lib.rs "$line"

if [ "$missed" -ne 0 ]; then
    echo "lint drill: $missed plant(s) went undetected" >&2
    exit 1
fi
echo "lint drill: all 9 plants caught"
