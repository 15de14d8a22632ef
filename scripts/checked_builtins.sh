#!/bin/sh
# Run every builtin under the `checked` profile: release speed, integer
# overflow traps and debug assertions (`Simulator::audit()` at the end of
# every scenario) live.
#
#   cargo build --profile checked --bin xp
#   scripts/checked_builtins.sh [xp=target/checked/xp]
#
# Every builtin must exit 0 — except the ones listed in `known` below,
# each of which must FAIL, at the go-back-N sender's `nxt - una` in
# `SendSeq::inflight` (transport/src/host.rs; ROADMAP item 1(a): a
# NACK/RTO rewind followed by a cumulative ACK for pre-rewind data leaves
# `una > nxt`). The fix for 1(a), `SendSeq::ack` lifting `nxt` to the
# ACK, has to empty this list; a new builtin that wraps an integer fails
# here the day it is added. ≈ 7 s for all 31 on a 2-core box.
set -eu

xp=${1:-target/checked/xp}
known="fig8 fig8-50g fig4-large fig7-rate4 fig7-size4 fig7-size6 fig7-size8"
err=$(mktemp)
trap 'rm -f "$err"' EXIT

bad=0
seen=0
for name in $("$xp" list | awk '$3 == "points" { print $1 }'); do
    code=0
    timeout 120 "$xp" run "$name" > /dev/null 2> "$err" || code=$?
    case " $known " in
    *" $name "*)
        seen=$((seen + 1))
        if [ "$code" -ne 0 ] && grep -q 'transport/src/host.rs' "$err" &&
            grep -q 'attempt to subtract with overflow' "$err"; then
            echo "$name: fails as recorded (go-back-N underflow)"
        else
            echo "$name: expected the transport/src/host.rs underflow, got exit $code"
            echo "  if item 1(a) is fixed, take $name off the list in $0"
            bad=1
        fi
        ;;
    *)
        if [ "$code" -eq 0 ]; then
            echo "$name: ok"
        else
            echo "$name: exit $code"
            sed 's/^/  /' "$err" | head -n 12
            bad=1
        fi
        ;;
    esac
done
# A `known` name that never ran means the list (or `xp list`) drifted.
if [ "$seen" -ne "$(echo $known | wc -w)" ]; then
    echo "only $seen of the known-failing builtins were run: $known"
    bad=1
fi
exit "$bad"
