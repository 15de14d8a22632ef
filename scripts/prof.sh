#!/bin/sh
# Where an `xp run` spends its CPU time, with no profiler installed:
# a SIGPROF program-counter sampler, preloaded into `xp`.
#
#   scripts/prof.sh <spec.toml|builtin> [runs=10] [xp=target/release/xp]
#
# Compiles a small LD_PRELOAD library with gcc into a temporary
# directory. The library asks for the PC every 100 µs of process CPU
# time, which the kernel delivers once per tick (≈ 250 per CPU second on
# a HZ=250 kernel), so a builtin of tens of ms needs its runs: the tables
# rank the hot paths, and a share under ≈ 1 % is noise. The script runs
# `xp run <spec> --threads 1` <runs> times under it, and symbolizes the
# samples that fall in `xp` with `addr2line -f -i -C -s`. Three tables
# come out, each the top 25 by share of the samples in `xp`:
#   outer  the function the sampled instruction was compiled into;
#   leaf   the innermost inlined function at that instruction;
#   line   the innermost source line (file:line), which tells apart two
#          costs that one inlined function hides.
# A last line gives the samples outside `xp` (libc, the kernel's vdso)
# and the total. The release profile keeps debug info, so `xp` carries
# the inline tables `-i` reads. Build it first (`cargo build --release`).
# Release builds are fat LTO (.cargo/config.toml), so the event queue's
# pop, the dispatch and `Switch::receive` fold into
# `Simulator::run_until`, which then heads the outer table (≈ 46 % on
# the 256-host fat-tree): read the leaf and line tables for where the
# time goes, not the outer one.
#
# Exit status: 0, or 1 if `xp` failed or no sample landed in it.
set -eu

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    sed -n '2,28p' "$0" >&2
    exit 2
fi
spec=$1
runs=${2:-10}
xp=${3:-target/release/xp}
[ -x "$xp" ] || { echo "prof.sh: no $xp (cargo build --release first)" >&2; exit 1; }

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
trap 'exit 130' HUP INT TERM

cat >"$dir/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long pcs[MAX_SAMPLES];
static unsigned long taken;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig;
    (void)si;
    ucontext_t *uc = ctx;
#if defined(__x86_64__)
    unsigned long pc = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    unsigned long pc = uc->uc_mcontext.pc;
#else
#error "prof.sh: unsupported architecture"
#endif
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) pcs[i] = pc;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 100}, {0, 100}};
    setitimer(ITIMER_PROF, &every, NULL);
}

/* The main program is the first object; its segments bound `xp`'s code. */
static unsigned long lo, hi, base;
static int main_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    (void)data;
    base = info->dlpi_addr;
    lo = ~0UL;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X)) continue;
        unsigned long a = base + ph->p_vaddr, b = a + ph->p_memsz;
        if (a < lo) lo = a;
        if (b > hi) hi = b;
    }
    return 1;
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    if (!path) return;
    FILE *f = fopen(path, "a");
    if (!f) return;
    dl_iterate_phdr(main_object, NULL);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES, outside = 0;
    for (unsigned long i = 0; i < n; i++) {
        if (pcs[i] >= lo && pcs[i] < hi)
            fprintf(f, "%lx\n", pcs[i] - base);
        else
            outside++;
    }
    fprintf(f, "outside %lu\n", outside);
    fclose(f);
}
EOF
gcc -O2 -shared -fPIC -o "$dir/sampler.so" "$dir/sampler.c"

i=0
while [ "$i" -lt "$runs" ]; do
    if ! PROF_OUT="$dir/pcs" LD_PRELOAD="$dir/sampler.so" \
        "$xp" run "$spec" --threads 1 >/dev/null 2>"$dir/err"; then
        cat "$dir/err" >&2
        exit 1
    fi
    i=$((i + 1))
done

outside=$(awk '$1 == "outside" { n += $2 } END { print n + 0 }' "$dir/pcs")
grep -v '^outside' "$dir/pcs" | sort | uniq -c >"$dir/counts" || true
inside=$(awk '{ n += $1 } END { print n + 0 }' "$dir/counts")
if [ "$inside" -eq 0 ]; then
    echo "prof.sh: no sample landed in $xp" >&2
    exit 1
fi

# One line per distinct PC: its count, its innermost file:line, then its
# inline chain, leaf first and the outer function last, joined by tabs.
awk '{ print "0x" $2 }' "$dir/counts" | addr2line -e "$xp" -a -f -i -C -s >"$dir/sym"
awk '
    # Drop the legacy mangling hash, `::h0123456789abcdef`.
    function clean(s) { sub(/::h[0-9a-f]{16}$/, "", s); return s }
    function emit() { print count[k] "\t" loc fns }
    NR == FNR { count[FNR] = $1; next }
    /^0x/ { if (k) emit(); k++; loc = ""; fns = ""; odd = 1; next }
    {
        if (odd) fns = fns "\t" clean($0)
        else if (loc == "") { loc = $0; sub(/ \(discriminator [0-9]+\)$/, "", loc) }
        odd = !odd
    }
    END { if (k) emit() }
' "$dir/counts" "$dir/sym" >"$dir/chains"

table() {
    what=function
    [ "$1" != line ] || what=file:line
    printf '\n%-6s %7s  %s\n' "$1" "share" "$what"
    awk -F '\t' -v col="$1" -v total="$inside" '
        { f = (col == "line") ? $2 : (col == "leaf") ? $3 : $NF; n[f] += $1 }
        END { for (f in n) printf "%d\t%s\n", n[f], f }
    ' "$dir/chains" | sort -t "$(printf '\t')" -k1,1nr | head -n 25 |
        awk -F '\t' -v total="$inside" '{ printf "%6d %6.1f%%  %s\n", $1, 100 * $1 / total, $2 }'
}

echo "prof.sh: $spec, $runs run(s) of $xp --threads 1"
table outer
table leaf
table line
printf '\n%d samples in xp, %d outside it\n' "$inside" "$outside"
