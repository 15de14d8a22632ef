#!/bin/sh
# Hold the figure builtins to the numbers the deleted figure binaries printed.
#
#   scripts/figure_cells.sh [xp=target/release/xp] [golden=crates/scenarios/tests/figure_cells.golden]
#
# Runs every builtin the golden file names once (`xp run <name> --csv - 2>&1`,
# under `timeout 120`: with a `-` destination the CSV is alone on stdout and
# the table is on stderr, and the needles match lines of both) and checks
# each golden line: some output line must contain all of its tab-separated
# needles. Prints every miss; exit 1 on any.
set -eu

xp=${1:-target/release/xp}
golden=${2:-crates/scenarios/tests/figure_cells.golden}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for name in $(grep -v '^#' "$golden" | cut -f1 | sort -u); do
    timeout 120 "$xp" run "$name" --csv - > "$out/$name" 2>&1
done

tab=$(printf '\t')
bad=0
while IFS= read -r line; do
    case $line in '#'* | '') continue ;; esac
    name=${line%%"$tab"*}
    rest=${line#*"$tab"}
    cp "$out/$name" "$out/.hits"
    while [ -n "$rest" ]; do
        needle=${rest%%"$tab"*}
        case $rest in *"$tab"*) rest=${rest#*"$tab"} ;; *) rest= ;; esac
        grep -F -- "$needle" "$out/.hits" > "$out/.next" || true
        mv "$out/.next" "$out/.hits"
    done
    if [ ! -s "$out/.hits" ]; then
        echo "MISSING from xp run $name: $line"
        bad=1
    fi
done < "$golden"
[ "$bad" -eq 0 ] && echo "figure cells: every golden line found"
exit "$bad"
