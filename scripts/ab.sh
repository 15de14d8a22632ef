#!/bin/sh
# A/B the performance ledger: a parent revision against the working tree.
#
#   scripts/ab.sh <parent-rev> <workload> [pairs=10] [seconds=12]
#
# Checks the parent out under ${TMPDIR:-/tmp}/powertcp-ab/<sha>/ (git
# archive: nothing is registered in .git, and a dirty working tree is
# fine; removed on exit unless it was there before the script started, so
# a checkout made beforehand is reused and its build kept across runs).
# Builds the harness in benchmark/ on both sides, each with its own tree
# as the working directory: Cargo reads .cargo/config.toml upward from
# there, so each side builds with its own release codegen, and a parent
# checkout outside this tree cannot inherit this tree's. Runs <pairs>
# parent/change pairs at seeds 1..<pairs>, alternating which side goes
# first, then one more pair at a seed no earlier pair used. One line per
# run, then per metric each side's median [q1, q3], the ratio of medians,
# and the pairs the change won (lower is better; a tie counts for
# neither).
#
# Exit status: 0, or 1 if any run reported "correct": false or failed
# operations.
set -eu

if [ $# -lt 2 ]; then
    sed -n '2,21p' "$0" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-12}

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
parent="${TMPDIR:-/tmp}/powertcp-ab/$sha"

# An offline build rewrites benchmark/Cargo.lock, which is committed and
# read-only outside a benchmark-only change: put it back on any exit, and
# remove the parent checkout if this run made it.
lock=$(mktemp)
runs=$(mktemp)
made=
cp "$root/benchmark/Cargo.lock" "$lock"
trap 'cp "$lock" "$root/benchmark/Cargo.lock"; rm -f "$lock" "$runs"; [ -z "$made" ] || rm -rf "$made"' EXIT
trap 'exit 130' HUP INT TERM
if [ ! -d "$parent" ]; then
    made=$parent
    mkdir -p "$parent"
    git -C "$root" archive "$sha" | tar -x -C "$parent"
fi
for tree in "$parent" "$root"; do
    (cd "$tree" && cargo build --release --quiet --manifest-path benchmark/Cargo.toml)
done
bad=0

# num <metric>: its value in the result object $json.
num() {
    printf '%s\n' "$json" | sed -n "s/.*\"$1\": {\"value\": \([0-9.eE+-]*\).*/\1/p"
}

# one <side> <tree> <seed>: run the workload once, log one line.
one() {
    json=$("$2/benchmark/target/release/ledger" --workload "$workload" \
        --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
    correct=false
    case $json in *'"correct": true'*'"failed": 0,'*) correct=true ;; esac
    [ "$correct" = true ] || bad=1
    line="$1 $3 $correct $(num report_s) $(num peak_rss_mb) $(num setup_s)"
    echo "$line"
    echo "$line" >>"$runs"
}

pair() {
    if [ $(($1 % 2)) -eq 1 ]; then
        one parent "$parent" "$1"
        one change "$root" "$1"
    else
        one change "$root" "$1"
        one parent "$parent" "$1"
    fi
}

echo "# $workload: parent $(git -C "$root" rev-parse --short "$sha") vs working tree," \
    "$pairs pairs + 1 unseen seed, --seconds $seconds"
echo "side seed correct report_s peak_rss_mb setup_s"
i=1
while [ "$i" -le "$pairs" ]; do
    pair "$i"
    i=$((i + 1))
done
unseen=$((pairs + 1))
pair "$unseen"

# quartiles <side> <column>: "median q1 q3" over seeds 1..pairs (linear
# interpolation between order statistics).
quartiles() {
    awk -v side="$1" -v col="$2" -v unseen="$unseen" \
        '$1 == side && $2 != unseen { print $col }' "$runs" | sort -g | awk '
        { v[NR] = $1 }
        function q(p,   h, lo) {
            h = (NR - 1) * p + 1; lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        END { if (NR) printf "%.4g %.4g %.4g", q(0.5), q(0.25), q(0.75) }'
}

echo
echo "metric parent_median [q1, q3] change_median [q1, q3] ratio wins unseen(parent->change)"
col=4
for metric in report_s peak_rss_mb setup_s; do
    set -- $(quartiles parent $col) $(quartiles change $col)
    awk -v col=$col -v unseen="$unseen" -v metric=$metric \
        -v pm="$1" -v p1="$2" -v p3="$3" -v cm="$4" -v c1="$5" -v c3="$6" '
        $1 == "parent" { p[$2] = $col }
        $1 == "change" { c[$2] = $col }
        END {
            for (s in p) if (s != unseen) { n++; if (c[s] < p[s]) wins++ }
            printf "%s %s [%s, %s] %s [%s, %s] %.3fx %d/%d %.4g->%.4g\n",
                metric, pm, p1, p3, cm, c1, c3, cm / pm, wins, n, p[unseen], c[unseen]
        }' "$runs"
    col=$((col + 1))
done

if [ "$bad" -ne 0 ]; then
    echo "FAILED: a run was not correct (see the 'false' lines above)" >&2
    exit 1
fi
