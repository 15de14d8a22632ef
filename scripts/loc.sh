#!/bin/sh
# Non-test Rust lines outside benchmark/: the one line count a change
# states (parent -> change), so no two changes count differently.
#
#   scripts/loc.sh [rev]     # default: the working tree (tracked + untracked)
#
# Method: every .rs file counts from its first line up to (not including)
# its first `#[cfg(test)]`, or to its end if it has none. Excluded: all of
# benchmark/, every tests/ and examples/ directory (the root ones too), and
# two files that are test code although they carry no marker of their own,
# because their parent declares them under `#[cfg(test)]`:
# crates/rdcn/src/bed.rs (rdcn's lib.rs) and crates/flow/src/reference.rs
# (flow's lib.rs; the verbatim pre-slab oracle).
#
# This reads the method literally and gives 21,597 at 910b0cc (21,893
# while reference.rs still counted). The 22,244 quoted for that commit also
# counted the root tests/ directory (351 lines of the umbrella package's
# integration tests); a test directory is test code wherever it sits, so
# this script leaves it out.
set -eu

cd "$(git rev-parse --show-toplevel)"
if [ $# -gt 0 ]; then
    rev=$(git rev-parse --verify "$1^{commit}")
    files() { git ls-tree -r --name-only "$rev"; }
    text() { git show "$rev:$1"; }
else
    files() { git ls-files --cached --others --exclude-standard; }
    text() { if [ -f "$1" ]; then cat "$1"; fi; }
fi

files | grep '\.rs$' |
    grep -v -e '^benchmark/' -e '\(^\|/\)tests/' -e '\(^\|/\)examples/' \
        -e '^crates/rdcn/src/bed\.rs$' -e '^crates/flow/src/reference\.rs$' |
    while read -r f; do
        text "$f" | awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'
    done |
    awk '{ n += $1 } END { print n + 0 }'
