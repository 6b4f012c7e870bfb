#!/bin/sh
# End-to-end smoke test for the relm CLI: build artifacts, reload them, run a
# query, sample, grep, and verify error handling. Invoked by CTest with the
# binary path as $1.
set -e
RELM="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$RELM" build --out "$DIR" --scale 0.15 >/dev/null
test -f "$DIR/tokenizer.relm"
test -f "$DIR/sim-xl.relm"
test -f "$DIR/sim-small.relm"

"$RELM" info --dir "$DIR" | grep -q "sim-xl"

OUT="$("$RELM" query --dir "$DIR" \
  --pattern 'The ((man)|(woman)) was trained in ((art)|(science))' \
  --prefix 'The ((man)|(woman)) was trained in' --results 4 2>/dev/null)"
echo "$OUT" | grep -q "was trained in"
test "$(echo "$OUT" | wc -l)" -eq 4

# The parallel/caching knobs must not change query results: same rows as
# the serial run above, and the cache stats line lands on stderr.
PAR="$("$RELM" query --dir "$DIR" \
  --pattern 'The ((man)|(woman)) was trained in ((art)|(science))' \
  --prefix 'The ((man)|(woman)) was trained in' --results 4 \
  --threads 2 --cache-capacity 1024 2>"$DIR/stderr.txt")"
test "$PAR" = "$OUT"
grep -q "cache:" "$DIR/stderr.txt"

# Observability: `relm run` (alias for query) with tracing and metrics. The
# trace must be Chrome-trace JSON with the compile/executor phase spans; the
# metrics line must carry the registry's cache and executor counters.
RUN_OUT="$("$RELM" run --dir "$DIR" \
  --pattern 'The ((man)|(woman)) was trained in ((art)|(science))' \
  --prefix 'The ((man)|(woman)) was trained in' --results 4 \
  --trace-out "$DIR/trace.json" --trace-jsonl "$DIR/trace.jsonl" \
  --metrics 2>/dev/null)"
test "$(echo "$RUN_OUT" | grep -v '^METRICS ')" = "$OUT"
echo "$RUN_OUT" | grep -q '^METRICS {.*"executor.llm_calls"'
test -f "$DIR/trace.json"
grep -q '"traceEvents"' "$DIR/trace.json"
grep -q '"compile.query"' "$DIR/trace.json"
grep -q '"executor.pump"' "$DIR/trace.json"
grep -q '"relm.search"' "$DIR/trace.json"
grep -q '"name"' "$DIR/trace.jsonl"
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$DIR/trace.json" >/dev/null
fi

"$RELM" analyze --dir "$DIR" --pattern "(cat)|(dog)" | grep -q "finite"

"$RELM" sample --dir "$DIR" --n 3 --seed 1 2>/dev/null | grep -q '"'

"$RELM" grep --dir "$DIR" --pattern 'blorgface' --max 1 | grep -q blorgface

# Structural verification: fresh artifacts are clean.
"$RELM" verify --dir "$DIR" | grep -q "ok"

# Batched multi-stream generation: two streams with a fixed seed emit one
# JSONL line each, identically on every run and at every thread count.
GEN="$("$RELM" generate --dir "$DIR" \
  --pattern 'The ((man)|(woman)) was trained in ((art)|(science))' \
  --streams 2 --seed 7 2>"$DIR/gen.txt")"
test "$(echo "$GEN" | wc -l)" -eq 2
echo "$GEN" | grep -q '"stream":0'
echo "$GEN" | grep -q '"stream":1'
grep -q "generate: 2 streams" "$DIR/gen.txt"
grep -q "masks reused" "$DIR/gen.txt"

GEN_T4="$("$RELM" generate --dir "$DIR" \
  --pattern 'The ((man)|(woman)) was trained in ((art)|(science))' \
  --streams 2 --seed 7 --threads 4 2>/dev/null)"
test "$GEN_T4" = "$GEN"

# A corrupted artifact must fail verification with a diagnostic. Bump the
# first stored n-gram row total (file line 4: "<key> <total> <n> ...") so it
# no longer matches the sum of the row's counts.
CORRUPT="$DIR/corrupt"
mkdir -p "$CORRUPT"
cp "$DIR/tokenizer.relm" "$DIR/sim-xl.relm" "$DIR/meta.txt" "$CORRUPT/"
awk 'NR == 4 { $2 = $2 + 1000 } { print }' "$DIR/sim-small.relm" \
  > "$CORRUPT/sim-small.relm"
if "$RELM" verify --dir "$CORRUPT" 2>/dev/null; then exit 1; fi
"$RELM" verify --dir "$CORRUPT" 2>&1 >/dev/null | grep -q "ngram.row-total"

# Compile-cache lifecycle: a cold compile stores the query's two components
# (prefix and body) on disk, a warm run serves both back (identical results),
# and a corrupted entry falls back to a recompile instead of crashing.
CACHE="$DIR/compile-cache"
COLD="$("$RELM" query --dir "$DIR" \
  --pattern 'The ((man)|(woman)) was trained in ((art)|(science))' \
  --prefix 'The ((man)|(woman)) was trained in' --results 4 \
  --compile-cache "$CACHE" 2>"$DIR/cold.txt")"
test "$COLD" = "$OUT"
grep -q "compile cache: 0 hits / 1 misses" "$DIR/cold.txt"
test "$(ls "$CACHE"/*.relmc | wc -l)" -eq 2
ENTRY="$(ls "$CACHE"/*.relmc | head -n 1)"
test -f "$ENTRY"

WARM="$("$RELM" query --dir "$DIR" \
  --pattern 'The ((man)|(woman)) was trained in ((art)|(science))' \
  --prefix 'The ((man)|(woman)) was trained in' --results 4 \
  --compile-cache "$CACHE" --metrics 2>"$DIR/warm.txt")"
test "$(echo "$WARM" | grep -v '^METRICS ')" = "$OUT"
grep -q "compile cache: 1 hits / 0 misses, 2 disk loads" "$DIR/warm.txt"
echo "$WARM" | grep -q '"compile_cache.hit":1'

# The cache directory passes verification while its entries are intact.
"$RELM" verify --dir "$DIR" --cache "$CACHE" --skip-queries | grep -q "ok"

# Truncate the stored entry: the query must recompile (corrupt counted, same
# results), and verify must flag the directory.
head -c 60 "$ENTRY" > "$ENTRY.tmp" && mv "$ENTRY.tmp" "$ENTRY"
if "$RELM" verify --dir "$DIR" --cache "$CACHE" --skip-queries 2>/dev/null; then exit 1; fi
"$RELM" verify --dir "$DIR" --cache "$CACHE" --skip-queries 2>&1 >/dev/null \
  | grep -q "cache.corrupt-entry"
CORRUPTED="$("$RELM" query --dir "$DIR" \
  --pattern 'The ((man)|(woman)) was trained in ((art)|(science))' \
  --prefix 'The ((man)|(woman)) was trained in' --results 4 \
  --compile-cache "$CACHE" 2>"$DIR/corrupted.txt")"
test "$CORRUPTED" = "$OUT"
grep -q "1 corrupt entries" "$DIR/corrupted.txt"
# The recompile overwrote the bad entry; the cache verifies clean again.
"$RELM" verify --dir "$DIR" --cache "$CACHE" --skip-queries | grep -q "ok"

# --no-compile-cache must run without touching the cache machinery.
NOCACHE="$("$RELM" query --dir "$DIR" \
  --pattern 'The ((man)|(woman)) was trained in ((art)|(science))' \
  --prefix 'The ((man)|(woman)) was trained in' --results 4 \
  --no-compile-cache 2>"$DIR/nocache.txt")"
test "$NOCACHE" = "$OUT"
if grep -q "compile cache:" "$DIR/nocache.txt"; then exit 1; fi

# Error paths: bad flag usage and bad regex exit non-zero with a message.
if "$RELM" query --dir "$DIR" 2>/dev/null; then exit 1; fi
if "$RELM" query --dir "$DIR" --pattern '(((' 2>/dev/null; then exit 1; fi
if "$RELM" info --dir /nonexistent 2>/dev/null; then exit 1; fi
if "$RELM" verify --dir /nonexistent 2>/dev/null; then exit 1; fi

# generate: missing artifacts, a corrupt tokenizer, and a zero stream count
# all fail with a diagnostic instead of generating garbage.
if "$RELM" generate --dir /nonexistent --pattern 'a' 2>/dev/null; then exit 1; fi
TRUNC="$DIR/trunc"
mkdir -p "$TRUNC"
cp "$DIR/sim-xl.relm" "$DIR/sim-small.relm" "$DIR/meta.txt" "$TRUNC/"
head -c 50 "$DIR/tokenizer.relm" > "$TRUNC/tokenizer.relm"
if "$RELM" generate --dir "$TRUNC" --pattern 'a' 2>/dev/null; then exit 1; fi
"$RELM" generate --dir "$TRUNC" --pattern 'a' 2>&1 >/dev/null | grep -q "truncated"
if "$RELM" generate --dir "$DIR" --pattern 'a' --streams 0 2>/dev/null; then exit 1; fi

echo "cli smoke: ok"
