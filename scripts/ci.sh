#!/bin/sh
# The tier-1 gate, run three times:
#
#   1. an ASan+UBSan build (catches the memory and UB bugs a fleet of
#      forking workers is good at hiding),
#   2. the regular build with REPRO_SIMD=portable, proving the scalar
#      kernels produce the same bit-identical results the SIMD paths
#      are tested against, and
#   3. a ThreadSanitizer build over the concurrency-heavy labels
#      (parallel campaigns, batched DTA at 2 threads, fleet, daemon,
#      multi-core) and the exact fast path's equivalence test (pool
#      threads share each campaign's lazily recorded golden timeline),
#      proving them free of data races.
#
# Passes 1 and 2 run the full suite; any pass failing fails CI. Named
# gates then rerun single labels so a regression shows as its own line:
# IS calibration, multi-core determinism, cycle-exactness, and the DTA
# oracle gate (the compiled engine against `lanes = 1`, the levelized
# oracle), the latter three under both the sanitizer and regular builds,
# and a source check that only process entry points name the
# process-wide cancel token.
#
# Usage: scripts/ci.sh [jobs]
set -u

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=${1:-$(nproc 2>/dev/null || echo 4)}
fail=0

# run_pass <name> <build-dir> [ctest-label-regex] [cmake args...]
run_pass() {
    name=$1
    build=$2
    labels=$3
    shift 3
    echo "=== ci: configure $name ($build) ==="
    cmake -B "$build" -S "$root" "$@" || return 1
    echo "=== ci: build $name ==="
    cmake --build "$build" -j "$jobs" || return 1
    echo "=== ci: test $name ==="
    if [ -n "$labels" ]; then
        (cd "$build" && ctest -L "$labels" --output-on-failure -j "$jobs") \
            || return 1
    else
        (cd "$build" && ctest --output-on-failure -j "$jobs") || return 1
    fi
}

# Pass 1: sanitizers. ASan needs the leak checker off for the chaos
# tests (SIGKILLed workers exit without unwinding, by design).
if ! ASAN_OPTIONS="detect_leaks=0" run_pass "asan+ubsan" \
        "$root/build-san" "" -DTEA_SANITIZE="address,undefined"; then
    echo "ci: sanitizer pass FAILED"
    fail=1
fi

# Pass 2: portable SIMD on the regular build — results must not
# depend on the ISA level the kernels were dispatched to.
if ! REPRO_SIMD=portable run_pass "portable-simd" "$root/build" ""; then
    echo "ci: portable-SIMD pass FAILED"
    fail=1
fi

# Pass 3: ThreadSanitizer over the labels that exercise shared state
# across threads. halt_on_error turns the first report into a failure.
if ! TSAN_OPTIONS="halt_on_error=1" run_pass "tsan" "$root/build-tsan" \
        'tier1par|tier1dta|tier1fleet|tier1service|tier1mc' \
        -DTEA_SANITIZE=thread; then
    echo "ci: ThreadSanitizer pass FAILED"
    fail=1
elif ! TSAN_OPTIONS="halt_on_error=1" \
        "$root/build-tsan/tests/test_inject" \
        --gtest_filter='InjectFastPath.*'; then
    echo "ci: ThreadSanitizer fast-path pass FAILED"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "ci: FAILED"
    exit 1
fi

# Surrogate calibration gate, called out by name so a regression in
# the importance-sampling stack is visible as its own CI line (the
# tier1is-labeled tests also ran inside both full passes above).
echo "=== ci: surrogate calibration gate (ctest -L tier1is) ==="
if ! (cd "$root/build" && ctest -L tier1is --output-on-failure); then
    echo "ci: surrogate calibration gate FAILED"
    exit 1
fi
# Multi-core determinism gate, likewise named: the N-core interleaving
# and journal byte-identity claims of DESIGN.md §15 run under both the
# sanitizer build and the regular build (tier1mc also ran inside both
# full passes above — this line just makes a regression unmissable).
echo "=== ci: multi-core determinism gate (ctest -L tier1mc) ==="
if ! (cd "$root/build-san" && \
      ASAN_OPTIONS="detect_leaks=0" ctest -L tier1mc --output-on-failure) \
   || ! (cd "$root/build" && ctest -L tier1mc --output-on-failure); then
    echo "ci: multi-core determinism gate FAILED"
    exit 1
fi
# Cycle-exactness gate, likewise named: the OoO core's golden-run,
# N-core and seeded-injection statistics pinned to the original
# pipeline's constants (DESIGN.md §16), plus the machine-shape cases,
# under both the sanitizer build and the regular build.
echo "=== ci: cycle-exactness gate (ctest -L tier1sim) ==="
if ! (cd "$root/build-san" && \
      ASAN_OPTIONS="detect_leaks=0" ctest -L tier1sim --output-on-failure) \
   || ! (cd "$root/build" && ctest -L tier1sim --output-on-failure); then
    echo "ci: cycle-exactness gate FAILED"
    exit 1
fi
# DTA oracle gate, likewise named: the one production DTA engine
# (compiled, SIMD-wide batches) held byte-for-byte to the levelized
# oracle that `lanes = 1` runs, from single batches up to the
# toolflow's cache files (DESIGN.md §11). Nothing else compares them.
echo "=== ci: DTA oracle gate (ctest -L tier1dta) ==="
if ! (cd "$root/build-san" && \
      ASAN_OPTIONS="detect_leaks=0" ctest -L tier1dta --output-on-failure) \
   || ! (cd "$root/build" && ctest -L tier1dta --output-on-failure); then
    echo "ci: DTA oracle gate FAILED"
    exit 1
fi
# Cancellation gate: a campaign stops on the one token its caller
# hands it (Toolflow, runFleetGrid, the daemon's per-campaign token).
# The process-wide token SIGINT/SIGTERM cancel may be named only where
# it is defined and signalled (util/watchdog.cc), at the process entry
# points (tea-daemon's main, the fleet workerMain) and as the default
# arguments of Toolflow and runFleetGrid; a lookup anywhere else would
# let a signal stop what a caller owns.
echo "=== ci: cancellation gate (process-wide token at entry points only) ==="
stray=$(find "$root/src" \( -name '*.cc' -o -name '*.hh' \) -print |
    sort | xargs awk '
    FNR == 1 { fn = "" }
    /^[A-Za-z_][A-Za-z0-9_:~]*\(/ { fn = $0; sub(/\(.*/, "", fn) }
    /CancelToken::processWide\(\)/ {
        f = FILENAME; sub(/.*\/src\//, "src/", f)
        if (f == "src/util/watchdog.cc") next
        if (f == "src/service/tea_daemon_main.cc" && fn == "main") next
        if (f == "src/fleet/worker.cc" && fn == "workerMain") next
        if ((f == "src/core/toolflow.hh" ||
             f == "src/fleet/coordinator.hh") &&
            $0 ~ /const CancelToken &cancel = CancelToken::processWide\(\)\)/)
            next
        print f ":" FNR ": " $0
    }')
if [ -n "$stray" ]; then
    echo "$stray"
    echo "ci: cancellation gate FAILED (process-wide token outside the entry points)"
    exit 1
fi
echo "ci: OK (sanitizer + portable-SIMD + TSan + IS calibration + multi-core + cycle-exactness + DTA oracle + cancellation green)"
