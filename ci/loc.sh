#!/usr/bin/env bash
# Non-test Rust lines per workspace member, and their total: the count a
# "line-count delta at equal digests" claim (ROADMAP, the bar for every
# PR) is made with. A file counts up to its first `#[cfg(test)]`; files
# under `tests/`, `fixtures/` and `examples/` do not count; comments and
# blank lines do. The standalone `benchmark/` package is not a member.
#
#   ci/loc.sh          this checkout
#   ci/loc.sh DIR      another one (e.g. a `git archive` of the parent)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() { # non-test lines of every .rs file under the directories given
    find "$@" -name '*.rs' \
        -not -path '*/tests/*' -not -path '*/fixtures/*' -not -path '*/examples/*' \
        -not -path '*/target/*' -print0 |
        xargs -0 -r awk '/#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }'
}

total=0
row() {
    printf '%-20s %6d\n' "$1" "$2"
    total=$((total + $2))
}

row "$(sed -n 's/^name = "\(.*\)"/\1/p' Cargo.toml | head -n 1)" "$(count src)"
for dir in $(sed -n '/^members = \[/,/^\]/p' Cargo.toml | grep -o '"[^"]*"' | tr -d '"'); do
    row "$(sed -n 's/^name = "\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)" "$(count "$dir")"
done
printf '%-20s %6d\n' total "$total"
