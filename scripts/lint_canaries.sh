#!/bin/sh
# A gate that can fail: plant each hazard the determinism rules forbid, one
# at a time, and require the enforcing tool to reject it by name.
#
#   scripts/lint_canaries.sh [rev=HEAD]
#
# Extracts <rev> under target/lint_canaries/tree (git archive, as ab.sh does:
# nothing is registered in .git and the working tree is never touched) and
# builds it into target/lint_canaries/target, so a second run on the same
# revision is warm. Each canary is planted in a file of the copy, the
# command is run and must exit non-zero *with the named diagnostic* (a build
# broken some other way is not a pass), and the file is restored. Six go
# through cargo clippy / cargo check (clippy.toml and [workspace.lints]),
# three through `cargo test --test workspace_shape` (the workspace-shape
# rules; a registry dependency is refused by the offline resolve first).
#
# Exit status: 0 when all nine were rejected as expected, else 1.
set -eu

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "${1:-HEAD}^{commit}")
work="$root/target/lint_canaries"
tree="$work/tree"
rm -rf "$tree"
mkdir -p "$tree"
git -C "$root" archive "$rev" | tar -x -C "$tree"
CARGO_TARGET_DIR="$work/target"
export CARGO_TARGET_DIR

cd "$tree"
shape() { cargo test --offline -q -p dcn-runner --test workspace_shape; }
# The copy itself must be clean, or a canary's failure proves nothing.
cargo clippy --quiet --offline -p dcn-stats -p powertcp-core --all-targets -- -D warnings
shape

bad=0
# canary [-e <sed script>] <name> <file> <diagnostic> <command...>: append
# stdin to <file> (a new file is removed afterwards), or with -e edit <file>
# in place, then run the command and expect the diagnostic.
canary() {
    script=
    if [ "$1" = -e ]; then
        script=$2
        shift 2
    fi
    name=$1 file=$2 want=$3
    shift 3
    mkdir -p "$(dirname "$file")"
    if [ -f "$file" ]; then cp "$file" "$work/saved"; else rm -f "$work/saved"; fi
    if [ -n "$script" ]; then sed -i "$script" "$file"; else cat >>"$file"; fi
    if "$@" >"$work/log" 2>&1; then
        echo "FAIL $name: the command passed"
        bad=1
    elif ! grep -q -- "$want" "$work/log"; then
        echo "FAIL $name: rejected, but not with '$want':"
        tail -n 20 "$work/log"
        bad=1
    else
        echo "ok   $name: $(grep -m 1 -- "$want" "$work/log")"
    fi
    if [ -f "$work/saved" ]; then cp "$work/saved" "$file"; else rm -f "$file"; fi
}
clippy() { cargo clippy --quiet --offline -p "$1" --all-targets -- -D warnings; }
src=crates/stats/src/lib.rs
manifest=crates/stats/Cargo.toml

canary aliased-clock $src 'disallowed method `std::time::Instant::now`' clippy dcn-stats <<'EOF'
pub fn canary() -> std::time::Instant {
    use std::time::Instant as Clock;
    Clock::now()
}
EOF
canary hash-field-for $src 'disallowed type `std::collections::HashMap`' clippy dcn-stats <<'EOF'
pub struct Holder {
    pub map: std::collections::HashMap<u32, u32>,
}
pub fn canary(holder: &Holder) -> u32 {
    let mut sum = 0;
    for (k, v) in &holder.map {
        sum += k + v;
    }
    sum
}
EOF
canary env-in-src $src 'disallowed method `std::env::var`' clippy dcn-stats <<'EOF'
pub fn canary() -> bool {
    std::env::var("CANARY").is_ok()
}
EOF
canary unsafe-in-tests crates/core/tests/proptests.rs 'usage of an `unsafe` block' \
    cargo check --quiet --offline -p powertcp-core --tests <<'EOF'
#[test]
fn canary() {
    unsafe {}
}
EOF
canary stale-expect $src 'lint expectation is unfulfilled' clippy dcn-stats <<'EOF'
#[expect(clippy::disallowed_methods, reason = "stale: nothing below reads a clock")]
pub fn canary() {}
EOF
canary allow-without-reason $src 'attribute without specifying a reason' clippy dcn-stats <<'EOF'
#[allow(dead_code)]
fn canary() {}
EOF

canary registry-dep $manifest 'package named `serde`' shape <<'EOF'
[target.'cfg(unix)'.dependencies]
serde = "1"
EOF
canary -e '/^\[lints\]$/d; /^workspace = true$/d' no-lints-table $manifest \
    "$manifest:1: rule\\[R8\\]" shape </dev/null
canary unsalted-version $src 'rule\[R5\] engine version salt `FOO_VERSION`' shape <<'EOF'
pub const FOO_VERSION: u32 = 1;
EOF

if [ "$bad" -ne 0 ]; then
    echo "FAILED: a canary survived (see the FAIL lines above)" >&2
    exit 1
fi
echo "all nine canaries were rejected by name"
