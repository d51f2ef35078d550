#!/usr/bin/env bash
# CI gate, identical locally and hosted: tier-1 verify (configure + build +
# ctest) plus the Table IX cost benchmark as a compile-and-run smoke test of
# the perf-critical path.
#
# Usage: scripts/check.sh [--sanitize[=LIST]] [--coverage] [--perf] [--docs]
#                         [build-dir]
#
#   --sanitize            shorthand for --sanitize=address,undefined
#   --sanitize=LIST       instrument with -fsanitize=LIST; LIST=thread runs
#                         only the threaded tests (PPO smoke + parallel
#                         rollout), matching the hosted TSan job
#   --coverage            instrument for line coverage, run ctest, and print
#                         a per-file + total line-coverage summary (llvm-cov
#                         for clang builds, gcov for gcc); defaults the
#                         build type to Debug and skips the perf smoke
#   --perf                build Release with RLSCHED_INDEX_STATS=ON, run
#                         the six gated benches and compare each report
#                         with bench/baseline.json (docs/benchmarks.md);
#                         skips ctest (the matrix jobs own correctness)
#   --docs                run the documentation gates only (no compiler):
#                         scripts/check_docs.py checks every relative link
#                         in README.md/DESIGN.md/docs/ resolves and that
#                         the bench/test inventory named in the docs
#                         matches the tree in both directions
#   build-dir             defaults to ./build (or ./build-<sanitizers>,
#                         ./build-coverage)
#
# Honors CMAKE_BUILD_TYPE from the environment (the CI matrix sets it);
# otherwise the project default (Release) applies.
set -euo pipefail
cd "$(dirname "$0")/.."

# --- fail-fast coloring: every step is announced, the first failing step is
# --- named in red, and a clean run ends in green. Colors only on a tty
# --- (or when FORCE_COLOR is set) so logs stay clean.
if [ -t 1 ] || [ -n "${FORCE_COLOR:-}" ]; then
  RED=$'\033[1;31m' GREEN=$'\033[1;32m' BLUE=$'\033[1;34m' RESET=$'\033[0m'
else
  RED="" GREEN="" BLUE="" RESET=""
fi
CURRENT_STEP="startup"
step() {
  CURRENT_STEP="$*"
  printf '%s== %s ==%s\n' "$BLUE" "$*" "$RESET"
}
trap 'printf "%sFAILED during: %s%s\n" "$RED" "$CURRENT_STEP" "$RESET" >&2' ERR

SANITIZE=""
COVERAGE=""
PERF=""
DOCS=""
BUILD_DIR=""
for arg in "$@"; do
  case "$arg" in
    --sanitize) SANITIZE="address,undefined" ;;
    --sanitize=*) SANITIZE="${arg#--sanitize=}" ;;
    --coverage) COVERAGE=1 ;;
    --perf) PERF=1 ;;
    --docs) DOCS=1 ;;
    -h|--help)
      sed -n '2,30p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    -*)
      # A typo like --sanitise must not silently become an UNsanitized
      # build directory that then passes green.
      printf '%sunknown option: %s%s\n' "$RED" "$arg" "$RESET" >&2
      exit 2
      ;;
    *) BUILD_DIR="$arg" ;;
  esac
done
if [ -n "$DOCS" ]; then
  # Pure documentation gates: no compiler, no build directory. Refusing the
  # combination keeps "check.sh --docs --perf passed" from meaning less
  # than it reads.
  if [ -n "$SANITIZE" ] || [ -n "$COVERAGE" ] || [ -n "$PERF" ]; then
    printf '%s--docs cannot combine with --sanitize/--coverage/--perf%s\n' \
      "$RED" "$RESET" >&2
    exit 2
  fi
  command -v python3 >/dev/null || {
    printf '%spython3 is required for the docs gate%s\n' "$RED" "$RESET" >&2
    exit 1
  }
  step "docs gate (relative links resolve, bench/test inventory in sync)"
  python3 scripts/check_docs.py
  printf '%s== docs checks passed ==%s\n' "$GREEN" "$RESET"
  exit 0
fi
if [ -z "$BUILD_DIR" ]; then
  if [ -n "$SANITIZE" ]; then
    BUILD_DIR="build-${SANITIZE//,/-}"
  elif [ -n "$COVERAGE" ]; then
    BUILD_DIR="build-coverage"
  else
    BUILD_DIR="build"
  fi
fi
if [ -n "$PERF" ]; then
  # Perf numbers from an instrumented or un-optimized build are noise.
  if [ -n "$SANITIZE" ] || [ -n "$COVERAGE" ]; then
    printf '%s--perf cannot combine with --sanitize/--coverage%s\n' \
      "$RED" "$RESET" >&2
    exit 2
  fi
  CMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-Release}"
fi

CMAKE_ARGS=(-DRLSCHED_SANITIZE="$SANITIZE")
if [ -n "${RLSCHED_SIMD:-}" ]; then
  # Lane-width override (1 = scalar fallback); one CI matrix cell builds
  # with RLSCHED_SIMD=1 so the fallback kernels stay exercised.
  CMAKE_ARGS+=(-DRLSCHED_SIMD="$RLSCHED_SIMD")
fi
if [ -n "${RLSCHED_INDEX_STATS:-}" ]; then
  # Compile the PendingIndex descent counters in (the scalar CI cell sets
  # this so the worst-case-log assertions run without vector units too).
  CMAKE_ARGS+=(-DRLSCHED_INDEX_STATS="$RLSCHED_INDEX_STATS")
fi
if [ -n "$PERF" ]; then
  # The scaling gate pins backfill node visits per query, which needs the
  # instrumented index; the baseline was recorded with it on.
  CMAKE_ARGS+=(-DRLSCHED_INDEX_STATS=ON)
fi
if [ -n "$COVERAGE" ]; then
  CMAKE_ARGS+=(-DRLSCHED_COVERAGE=ON)
  # Coverage numbers on optimized code blame the wrong lines; default to
  # Debug unless the caller insists otherwise.
  CMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-Debug}"
fi
if [ -n "${CMAKE_BUILD_TYPE:-}" ]; then
  CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE="$CMAKE_BUILD_TYPE")
fi

# Make any sanitizer finding fatal so ctest actually fails the pipeline.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

step "configure ($BUILD_DIR${SANITIZE:+, sanitize=$SANITIZE})"
cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"

step "build"
cmake --build "$BUILD_DIR" -j "$(nproc)"

if [ -n "$COVERAGE" ]; then
  COVERAGE_FLAVOR="$(cat "$BUILD_DIR/coverage-flavor.txt")"
  if [ "$COVERAGE_FLAVOR" = llvm ]; then
    # One profile per test process, merged below.
    rm -rf "$BUILD_DIR/profiles"
    mkdir -p "$BUILD_DIR/profiles"
    export LLVM_PROFILE_FILE="$PWD/$BUILD_DIR/profiles/%m-%p.profraw"
  else
    # Stale counters from a previous run would merge into (or, after a
    # rebuild, stamp-mismatch against) this run's data — start clean.
    find "$BUILD_DIR" -name '*.gcda' -delete
  fi
fi

if [ -n "$PERF" ]; then
  command -v python3 >/dev/null || {
    printf '%spython3 is required for the perf gate%s\n' "$RED" "$RESET" >&2
    exit 1
  }
  # Every bench runs and is gated even after a failure, so one run reports
  # every verdict; a bench exits nonzero on a failed check by itself.
  PERF_FAILED=""
  for bench in bench_batch_inference bench_decision_latency \
      bench_sched_scaling "bench_serve_load --sessions 1000,10000 --open-loop" \
      bench_table5_bsld bench_table6_util; do
    name="${bench%% *}"
    step "perf gate: $bench"
    status=0
    # shellcheck disable=SC2086  # the serve bench's flags split on purpose
    "$BUILD_DIR/bench/"$bench --json > "$BUILD_DIR/$name.json" || status=1
    python3 scripts/perf_gate.py bench/baseline.json "$BUILD_DIR/$name.json" ||
      status=1
    [ "$status" = 0 ] || PERF_FAILED+=" $name"
  done
  if [ -n "$PERF_FAILED" ]; then
    printf '%sperf gates failed:%s%s\n' "$RED" "$PERF_FAILED" "$RESET" >&2
    exit 1
  fi
  printf '%s== perf gates passed ==%s\n' "$GREEN" "$RESET"
  exit 0
fi

step "ctest"
if [ "$SANITIZE" = "thread" ]; then
  # TSan job: only the tests that exercise threads — the rollout pool,
  # the serve daemon's dispatcher/client concurrency, the socket
  # server's accept/event/completion threads, and the fault-injection
  # chaos suite (retry/failover races dispatcher threads against
  # injected disconnects) — the rest are single-threaded and already
  # covered by the other jobs.
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
    -R 'test_ppo_smoke|test_parallel_rollout|test_serve_daemon|test_serve_server|test_serve_faults'
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
fi

if [ -n "$COVERAGE" ]; then
  step "line-coverage summary ($COVERAGE_FLAVOR)"
  if [ "$COVERAGE_FLAVOR" = llvm ]; then
    llvm-profdata merge -sparse "$BUILD_DIR"/profiles/*.profraw \
      -o "$BUILD_DIR/coverage.profdata"
    # Report over every test binary (the library is linked statically into
    # each); restrict the listing to the library's own sources.
    OBJECT_ARGS=()
    FIRST_BIN=""
    for t in "$BUILD_DIR"/tests/test_*; do
      [ -x "$t" ] || continue
      if [ -z "$FIRST_BIN" ]; then FIRST_BIN="$t"; else OBJECT_ARGS+=(-object "$t"); fi
    done
    llvm-cov report "$FIRST_BIN" "${OBJECT_ARGS[@]}" \
      -instr-profile="$BUILD_DIR/coverage.profdata" \
      -ignore-filename-regex='(tests|bench|examples)/'
  else
    # gcov flavor: aggregate "Lines executed" over the library's objects.
    (cd "$BUILD_DIR" &&
     find . -path '*rlsched.dir*' -name '*.gcda' -print0 |
       xargs -0 gcov -n 2>/dev/null) |
      awk '/^File /{file=$0; sub(/^File /,"",file); gsub(/\x27/,"",file)}
           /^No executable lines/{file=""}
           /^Lines executed:/{
             # A Lines line with no pending File is gcov'\''s whole-run
             # total — skip it, we aggregate ourselves.
             if (file != "" && file !~ /(tests|bench|examples)\// &&
                 file !~ /^\/usr/) {
               pct=$0; sub(/^Lines executed:/,"",pct); sub(/%.*/,"",pct)
               n=$0; sub(/.*% of /,"",n)
               # Headers appear once per including TU; keep one entry per
               # file — the widest instrumentation, best coverage on ties —
               # so the TOTAL does not weight headers N times (llvm-cov
               # deduplicates these by merging counts; with only per-TU
               # summaries this is the closest approximation).
               n += 0  # force numeric: sub() yields strings, and a
                       # string compare would rank "9" above "120"
               if (!(file in lines)) order[++nfiles]=file
               cov=pct/100.0*n
               if (n > lines[file] ||
                   (n == lines[file] && cov > covered[file])) {
                 lines[file]=n; covered[file]=cov
               }
             }
             file=""
           }
           END{
             for (i=1; i<=nfiles; ++i) {
               f=order[i]
               printf "%7.2f%% of %5d  %s\n",
                      100.0*covered[f]/lines[f], lines[f], f
               c += covered[f]; t += lines[f]
             }
             if (t > 0)
               printf "TOTAL line coverage: %.2f%% (%d of %d lines)\n",
                      100.0*c/t, c, t
             else { print "no coverage data found"; exit 1 }
           }'
  fi
fi

if [ -z "$SANITIZE" ] && [ -z "$COVERAGE" ]; then
  step "Table IX cost smoke (decision latency must stay flat)"
  if [ -x "$BUILD_DIR/bench/bench_table9_cost" ]; then
    # Keep the smoke cheap: short measurement time, skip the training-epoch
    # benchmark (it alone dominates wall clock and is exercised by ctest's
    # PPO smoke test anyway).
    "$BUILD_DIR/bench/bench_table9_cost" \
      --benchmark_min_time=0.01 \
      --benchmark_filter='BM_SjfSortAndPick|BM_RlDecision|BM_PolicyParameterCount'
  else
    echo "bench_table9_cost not built (google-benchmark missing) - skipped"
  fi
fi

printf '%s== all checks passed ==%s\n' "$GREEN" "$RESET"
