#!/bin/sh
# Fuzzing driver: builds the fuzz tree (RELM_FUZZERS=ON), replays the checked
# in corpus through the structured fuzz targets, runs each target on seeded
# random inputs, and then runs the differential fuzzer (`relm fuzz`) — the
# oracle-backed random-trial harness described in docs/TESTING.md. Exits
# non-zero on any finding; minimized repro files (fuzz-repro-<seed>.json) and
# a summary land in the output directory.
#   scripts/fuzz.sh [trials]
# Environment:
#   RELM_FUZZ_TRIALS    differential trials (default 500; argv[1] overrides)
#   RELM_FUZZ_SEED      base seed for every stage (default 1)
#   RELM_FUZZ_RUNS      random inputs per structured target (default 20000)
#   RELM_FUZZ_OUT       output directory (default fuzz-out in the repo root)
#   RELM_FUZZ_SANITIZE  RELM_SANITIZE value for the fuzz tree, e.g.
#                       "address;undefined" (default: none)
set -e
cd "$(dirname "$0")/.."
TRIALS="${1:-${RELM_FUZZ_TRIALS:-500}}"
SEED="${RELM_FUZZ_SEED:-1}"
RUNS="${RELM_FUZZ_RUNS:-20000}"
OUT="${RELM_FUZZ_OUT:-fuzz-out}"
BUILD=build-fuzz

if command -v ninja >/dev/null 2>&1; then
  GEN="-G Ninja"; GEN_NAME="Ninja"
else
  GEN=""; GEN_NAME="Unix Makefiles"
fi
if [ -f "$BUILD/CMakeCache.txt" ]; then
  CACHED_GEN=$(sed -n 's/^CMAKE_GENERATOR:INTERNAL=//p' "$BUILD/CMakeCache.txt")
  if [ -n "$CACHED_GEN" ] && [ "$CACHED_GEN" != "$GEN_NAME" ]; then
    echo "[fuzz] $BUILD was configured with '$CACHED_GEN'," \
         "reconfiguring for '$GEN_NAME'"
    rm -rf "$BUILD"
  fi
fi
SANITIZE_FLAG=""
if [ -n "${RELM_FUZZ_SANITIZE:-}" ]; then
  SANITIZE_FLAG="-DRELM_SANITIZE=${RELM_FUZZ_SANITIZE}"
fi
# shellcheck disable=SC2086
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DRELM_FUZZERS=ON \
    $SANITIZE_FLAG $GEN >/dev/null
cmake --build "$BUILD" -j --target \
    relm_cli fuzz_regex_parser fuzz_algebra_compile fuzz_dfa_loader \
    fuzz_artifact_loader \
    fuzz_repro_json fuzz_canonical_settlement fuzz_rule_mask \
    fuzz_distribution_key >/dev/null

mkdir -p "$OUT"

# Structured targets: checked-in corpus first (regressions must stay fixed),
# then seeded random inputs. Under Clang these binaries are real libFuzzer
# targets and this invocation runs their fixed-input fallback equivalent via
# -runs; under GCC the plain-loop driver takes the same corpus paths.
echo "[fuzz] structured targets (runs=$RUNS seed=$SEED)"
for target in fuzz_regex_parser fuzz_algebra_compile fuzz_dfa_loader \
              fuzz_artifact_loader fuzz_repro_json fuzz_canonical_settlement \
              fuzz_rule_mask fuzz_distribution_key; do
  if [ -n "${RELM_FUZZ_LIBFUZZER:-}" ]; then
    "$BUILD/fuzz/$target" -runs="$RUNS" -seed="$SEED" tests/fuzz_corpus
  else
    "$BUILD/fuzz/$target" --runs "$RUNS" --seed "$SEED" \
        tests/fuzz_corpus/*.json tests/fuzz_corpus/*.relmc \
        tests/fuzz_corpus/*.regex
  fi
done

# Differential fuzzing: random trial cases checked against the brute-force
# oracle under every cache configuration. Failing seeds are shrunk and their
# repro files written to $OUT; `relm fuzz` exits 2 on any failure and set -e
# propagates it (after the summary below is already on disk).
echo "[fuzz] differential trials (trials=$TRIALS seed=$SEED)"
STATUS=0
"$BUILD"/src/tools/relm fuzz --trials "$TRIALS" --seed "$SEED" \
    --out "$OUT" | tee "$BUILD/fuzz_diff.txt" || STATUS=$?

# Summary, written atomically (temp file + rename) so a reader — or the CI
# artifact step — never sees a truncated file even when a stage failed.
TMP_OUT=$(mktemp "$BUILD/fuzz_out.XXXXXX")
{
  printf '{\n'
  printf '"date": "%s",\n' "$(date +%Y-%m-%d)"
  printf '"trials": %s,\n' "$TRIALS"
  printf '"seed": %s,\n' "$SEED"
  printf '"structured_runs": %s,\n' "$RUNS"
  printf '"differential_exit": %s,\n' "$STATUS"
  printf '"summary": "%s"\n' "$(tail -1 "$BUILD/fuzz_diff.txt" | tr -d '"')"
  printf '}\n'
} > "$TMP_OUT"
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$TMP_OUT" >/dev/null
fi
mv -f "$TMP_OUT" "$OUT/fuzz-summary.json"
echo "[fuzz] $OUT/fuzz-summary.json"
exit "$STATUS"
