#!/bin/sh
# Static checks over the library and tool sources.
#
#   scripts/lint.sh [--warnings-as-errors] [build-dir]
#
# Stage 1 (always runs, no toolchain needed):
#   * no two tracked paths may differ only by case -- they collide on
#     case-insensitive filesystems, where a checkout keeps only one of them;
#   * grep-enforced sync policy: no raw std synchronization primitives
#     outside src/util/sync.hpp (every locking site must go through the
#     annotated relm wrappers so the clang thread-safety build, cmake
#     --preset tsa, sees the whole library), and
#     RELM_NO_THREAD_SAFETY_ANALYSIS may appear only inside util/sync.hpp;
#   * only the pool waits on a condition variable: CondVar appears in src/
#     only in util/sync.hpp and util/thread_pool.cpp, so no model or cache
#     sleeps inside a pool task until another thread's work is done;
#   * production sources (src/ outside src/testing/ and src/tools/) include
#     no testing/ header: the reference algorithms and oracles there are
#     what tests compare production code against, never a dependency of it.
#
# Stage 2: clang-tidy (policy: repo-root .clang-tidy) using the
# compile_commands.json exported by any CMake build dir (default ./build).
# Parallelized through run-clang-tidy when present. When clang-tidy is
# missing the stage is skipped with a notice -- unless RELM_LINT_REQUIRED=1
# (set in CI), in which case a missing clang-tidy is a hard failure instead
# of a silently-green job.
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

WERROR=0
BUILD="$ROOT/build"
for arg in "$@"; do
  case "$arg" in
    --warnings-as-errors) WERROR=1 ;;
    -h|--help) sed -n '2,26p' "$0"; exit 0 ;;
    *) BUILD="$arg" ;;
  esac
done

# --- Stage 1: path case, sync-policy and include greps -------------------

fail=0

if git -C "$ROOT" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  case_dups="$(git -C "$ROOT" ls-files | sort -f | uniq -di)"
  if [ -n "$case_dups" ]; then
    echo "lint: tracked paths differ only by case (they collide on" >&2
    echo "lint: case-insensitive filesystems); rename or merge:" >&2
    echo "$case_dups" >&2
    fail=1
  fi
else
  echo "lint: not a git checkout; skipping the path-case check" >&2
fi

# grep -r returns 1 when nothing matches, which is the good case here.
raw_sync="$(grep -rn -E \
  'std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|shared_lock)\b' \
  "$ROOT/src" --include='*.cpp' --include='*.hpp' \
  | grep -v 'src/util/sync\.hpp' || true)"
if [ -n "$raw_sync" ]; then
  echo "lint: raw std sync primitive outside util/sync.hpp (use relm::Mutex/" >&2
  echo "lint: ScopedLock/CondVar from util/sync.hpp instead):" >&2
  echo "$raw_sync" >&2
  fail=1
fi

condvars="$(grep -rn -w 'CondVar' \
  "$ROOT/src" --include='*.cpp' --include='*.hpp' \
  | grep -v -e 'src/util/sync\.hpp' -e 'src/util/thread_pool\.cpp' || true)"
if [ -n "$condvars" ]; then
  echo "lint: CondVar outside util/sync.hpp and util/thread_pool.cpp (only" >&2
  echo "lint: the pool may wait for another thread's work; a wait inside a" >&2
  echo "lint: pool task holds a lane):" >&2
  echo "$condvars" >&2
  fail=1
fi

escapes="$(grep -rn 'RELM_NO_THREAD_SAFETY_ANALYSIS' \
  "$ROOT/src" --include='*.cpp' --include='*.hpp' \
  | grep -v 'src/util/sync\.hpp' || true)"
if [ -n "$escapes" ]; then
  echo "lint: RELM_NO_THREAD_SAFETY_ANALYSIS outside util/sync.hpp --" >&2
  echo "lint: restructure the code instead of suppressing the analysis:" >&2
  echo "$escapes" >&2
  fail=1
fi

testing_deps="$(grep -rn -E '#include[[:space:]]+"testing/' \
  "$ROOT/src" --include='*.cpp' --include='*.hpp' \
  | grep -v -e '/src/testing/' -e '/src/tools/' || true)"
if [ -n "$testing_deps" ]; then
  echo "lint: production source includes a testing/ header (move the code" >&2
  echo "lint: it needs into production, or the caller into src/testing/):" >&2
  echo "$testing_deps" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "lint: path case, sync policy, condition variables and testing/ includes ok"

# --- Stage 2: clang-tidy -------------------------------------------------

TIDY="${CLANG_TIDY:-}"
if [ -z "$TIDY" ]; then
  for candidate in clang-tidy clang-tidy-18 clang-tidy-17 clang-tidy-16; do
    if command -v "$candidate" >/dev/null 2>&1; then
      TIDY="$candidate"
      break
    fi
  done
fi
if [ -z "$TIDY" ]; then
  if [ "${RELM_LINT_REQUIRED:-0}" = "1" ]; then
    echo "lint: clang-tidy not found but RELM_LINT_REQUIRED=1" >&2
    echo "lint: install clang-tidy or set CLANG_TIDY" >&2
    exit 1
  fi
  echo "lint: clang-tidy not found; skipping (set CLANG_TIDY or install it)" >&2
  exit 0
fi

if [ ! -f "$BUILD/compile_commands.json" ]; then
  echo "lint: $BUILD/compile_commands.json missing; configure first:" >&2
  echo "lint:   cmake --preset default   (or: cmake -B $BUILD -S $ROOT)" >&2
  exit 1
fi

WERROR_ARGS=""
if [ "$WERROR" -eq 1 ]; then
  WERROR_ARGS="--warnings-as-errors=*"
fi

# run-clang-tidy ships with clang-tidy and fans out across cores; fall back
# to one serial clang-tidy invocation when it is absent.
RUNNER="${RUN_CLANG_TIDY:-}"
if [ -z "$RUNNER" ]; then
  for candidate in run-clang-tidy run-clang-tidy-18 run-clang-tidy-17 \
                   run-clang-tidy-16 run-clang-tidy.py; do
    if command -v "$candidate" >/dev/null 2>&1; then
      RUNNER="$candidate"
      break
    fi
  done
fi

FILES="$(find "$ROOT/src" -name '*.cpp' | sort)"
if [ -n "$RUNNER" ]; then
  JOBS="$(nproc 2>/dev/null || echo 4)"
  echo "lint: $RUNNER -j$JOBS ($TIDY) over $(echo "$FILES" | wc -l) files ($BUILD)"
  # run-clang-tidy treats positional args as regexes over the compile db;
  # anchor on the source dir so generated/third-party TUs stay out.
  "$RUNNER" -clang-tidy-binary "$TIDY" -p "$BUILD" -quiet -j "$JOBS" \
    ${WERROR_ARGS:+-warnings-as-errors '*'} "$ROOT/src/.*\.cpp" \
    >/tmp/relm_lint_out 2>&1 || { cat /tmp/relm_lint_out; exit 1; }
  grep -E 'warning:|error:' /tmp/relm_lint_out || true
else
  echo "lint: $TIDY over $(echo "$FILES" | wc -l) files ($BUILD)"
  # shellcheck disable=SC2086 -- word-splitting FILES is intended
  "$TIDY" -p "$BUILD" --quiet $WERROR_ARGS $FILES
fi
echo "lint: ok"
