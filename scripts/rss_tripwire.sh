#!/bin/sh
# One short ledger run as a check: the workload must read "correct": true
# and, given a bound, a peak_rss_mb above 0 and below it.
#
#   scripts/rss_tripwire.sh <workload> [bound_mb]
#
# Runs `benchmark/` for 3 s at its default seed with tracing off and
# prints the run's result line. Building `benchmark/` offline rewrites
# benchmark/Cargo.lock; `git checkout benchmark/Cargo.lock` afterwards.
#
# Exit status: 0 when the run is correct (and under the bound), else 1.
set -eu

[ $# -ge 1 ] && [ $# -le 2 ] || { echo "usage: $0 <workload> [bound_mb]" >&2; exit 2; }
workload=$1
cd "$(git rev-parse --show-toplevel)"

result=$(cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seconds 3 --trace 0 | tail -n 1)
echo "$result"
case $result in
*'"correct": true'*) ;;
*) echo "FAIL $workload: the run is not correct" >&2; exit 1 ;;
esac
[ $# -eq 2 ] || exit 0

rss=$(printf '%s\n' "$result" | sed -E 's/.*"peak_rss_mb": \{"value": ([0-9.]+).*/\1/')
if ! awk -v rss="$rss" -v bound="$2" 'BEGIN { exit !(rss + 0 > 0 && rss + 0 < bound + 0) }'; then
    echo "FAIL $workload: peak_rss_mb $rss is not under $2" >&2
    exit 1
fi
echo "ok   $workload: peak_rss_mb $rss < $2"
