#!/usr/bin/env bash
# Non-test Rust lines per workspace member, and their total: the count a
# "line-count delta at equal digests" claim (ROADMAP, the bar for every
# PR) is made with. A file counts up to its first `#[cfg(test)]`
# attribute (a line that starts with it; prose that mentions it does not
# end the file); files under `tests/`, `fixtures/` and `examples/` do not
# count; comments and blank lines do. The standalone `benchmark/` package
# is not a member.
#
#   ci/loc.sh                 this checkout
#   ci/loc.sh DIR             another one
#   ci/loc.sh --against REV   REV (a `git archive` of it) / this checkout / Δ
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

count() { # non-test lines of every .rs file under the directories given
    find "$@" -name '*.rs' \
        -not -path '*/tests/*' -not -path '*/fixtures/*' -not -path '*/examples/*' \
        -not -path '*/target/*' -print0 |
        xargs -0 -r awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }'
}

members() { # "name lines" per member of the checkout in $1, then the total
    (
        cd "$1"
        total=0
        row() {
            printf '%s %d\n' "$1" "$2"
            total=$((total + $2))
        }
        row "$(sed -n 's/^name = "\(.*\)"/\1/p' Cargo.toml | head -n 1)" "$(count src)"
        for dir in $(sed -n '/^members = \[/,/^\]/p' Cargo.toml | grep -o '"[^"]*"' | tr -d '"'); do
            row "$(sed -n 's/^name = "\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)" "$(count "$dir")"
        done
        printf 'total %d\n' "$total"
    )
}

if [ "${1:-}" = --against ]; then
    rev="${2:?usage: ci/loc.sh --against REV}"
    parent="$(mktemp -d)"
    trap 'rm -rf "$parent"' EXIT
    git -C "$root" archive "$rev" | tar -x -C "$parent"
    printf '%-20s %8s %8s %7s\n' member "$rev" change Δ
    # Members are matched by name; one present on a single side counts 0 on the other.
    join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(members "$parent" | sort) <(members "$root" | sort) |
        sort -k1,1 | awk '{ row = sprintf("%-20s %8d %8d %+7d", $1, $2, $3, $3 - $2) }
            $1 == "total" { last = row; next } { print row } END { print last }'
else
    members "${1:-$root}" | awk '{ printf "%-20s %6d\n", $1, $2 }'
fi
