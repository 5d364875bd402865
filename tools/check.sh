#!/bin/sh
# Tier-1 gate: everything must build and every test suite must pass.
# Run before every PR; CI runs exactly this script.
#
#   tools/check.sh                 # every stage, with per-stage timing
#   tools/check.sh --quick         # skip the slow chaos tests
#                                  # (ALCOTEST_QUICK_TESTS)
#   tools/check.sh --stage NAME    # run one stage only (repeatable);
#                                  # names: build, test, verify, chaos,
#                                  # pool-chaos, coordinator-chaos,
#                                  # overload-chaos, scrub-chaos,
#                                  # ingest-chaos, write-chaos,
#                                  # serve-bench, overload-bench,
#                                  # repair-bench, ingest-bench,
#                                  # build-bench
#
# The chaos stages are seeded; set CHAOS_SEED=<n> to replay a failure
# with a specific seed.  The seed in use is printed.
set -eu

cd "$(dirname "$0")/.."

QUICK=
STAGES=
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) QUICK=1 ;;
    --stage)
      [ $# -ge 2 ] || { echo "--stage needs a name" >&2; exit 2; }
      shift
      STAGES="$STAGES $1"
      ;;
    *)
      echo "usage: tools/check.sh [--quick] [--stage NAME]..." >&2
      exit 2
      ;;
  esac
  shift
done

# stage <name> <fn>: run <fn> under a wall-clock timer, unless --stage
# filters it out.  Timing every stage keeps "which stage got slow" a
# one-glance question in CI logs.
RAN_ANY=
stage() {
  _name=$1
  _fn=$2
  if [ -n "$STAGES" ]; then
    case " $STAGES " in
      *" $_name "*) ;;
      *) return 0 ;;
    esac
  fi
  RAN_ANY=1
  echo "== $_name =="
  _t0=$(date +%s)
  "$_fn"
  _t1=$(date +%s)
  echo "-- $_name: $((_t1 - _t0))s"
}

stage_build() {
  dune build @all
}

stage_test() {
  if [ -n "$QUICK" ]; then
    ALCOTEST_QUICK_TESTS=1 dune runtest --force
  else
    dune runtest --force
  fi
}

# Offline fsck through the CLI itself: build a small catalog with live
# ingestion state (snapshot, WAL, level manifest, delta levels), then
# `treesketch verify` must pass every file, fail a missing WAL, and —
# after one byte of two deltas is flipped in place — exit 3 naming the
# rotten delta on stderr, with the manifest that lists both counted as
# one corrupt file.
stage_verify() {
  dune build bin/treesketch.exe
  _ts=_build/default/bin/treesketch.exe
  _dir=$(mktemp -d)
  "$_ts" datagen -d xmark --scale 0.05 -o "$_dir/doc.xml"
  "$_ts" build "$_dir/doc.xml" --budget 2KB -o "$_dir/site.ts" >/dev/null
  {
    for i in 1 2 3 4 5; do
      printf 'INGEST site <item><name>n%d</name></item>\n' "$i"
    done
    printf 'DELETE site item\nQUIT\n'
  } | "$_ts" serve --catalog "$_dir" --flush-every 2 --compact-levels 0 \
      >"$_dir/serve.log" 2>&1
  "$_ts" verify "$_dir"/*.ts "$_dir"/.*.wal "$_dir"/.*.levels "$_dir"/.*.delta
  _rc=0
  "$_ts" verify "$_dir/.absent.wal" 2>/dev/null || _rc=$?
  [ "$_rc" -eq 3 ] || { echo "verify: missing WAL exited $_rc, want 3" >&2; exit 1; }
  for _gen in 1 2; do
    printf '~' | dd of="$_dir/.site.l$_gen.delta" bs=1 seek=40 conv=notrunc \
      2>/dev/null
  done
  _delta="$_dir/.site.l1.delta"
  _rc=0
  "$_ts" verify "$_dir"/*.ts "$_dir"/.*.levels "$_delta" \
    2>"$_dir/verify.err" || _rc=$?
  cat "$_dir/verify.err"
  [ "$_rc" -eq 3 ] || { echo "verify: rotten delta exited $_rc, want 3" >&2; exit 1; }
  grep -q "^corrupt $_delta: " "$_dir/verify.err" ||
    { echo "verify: rotten delta not named on stderr" >&2; exit 1; }
  grep -q "^verify: 2 of 3 file(s) corrupt$" "$_dir/verify.err" ||
    { echo "verify: closing line must count files, not faults" >&2; exit 1; }
  rm -rf "$_dir"
}

# The chaos harness on its own so its seed line and e2e tally are
# visible in the CI log even though dune runtest already exercised it.
# (No pipe: a pipe would mask the exit status under set -e.)
stage_chaos() {
  echo "CHAOS_SEED=${CHAOS_SEED:-default}"
  dune exec test/test_chaos.exe -- -c
}

# Worker-pool acceptance (crash isolation, watchdog, poison quarantine,
# client breaker, 220 hostile requests) under a pinned seed so CI is
# reproducible regardless of the suite's default.
stage_pool_chaos() {
  CHAOS_SEED="${CHAOS_SEED:-721009}" dune exec test/test_pool.exe -- -c
}

# Replica-group acceptance under a pinned seed: 3 forked replicas behind
# the hedged coordinator, one SIGKILLed and one SIGSTOPped mid-run, 500
# client requests — every request must resolve, and the retry-budget
# counter must prove hedge/retry traffic stayed inside the token-bucket
# cap (no retry storm).
stage_coordinator_chaos() {
  CHAOS_SEED="${CHAOS_SEED:-321984}" dune exec test/test_replica.exe -- -c
}

# Brownout acceptance under a pinned seed: an overloaded ladder server
# with --brownout must keep p99 bounded, refuse nothing the coarsest
# tier could still answer, tag every degraded response with tier=, and
# a uniformly browned-out group must suppress coordinator hedges.
stage_overload_chaos() {
  CHAOS_SEED="${CHAOS_SEED:-847211}" dune exec test/test_overload.exe -- -c
}

# Anti-entropy acceptance under a pinned seed: in-place bit-rot on a
# live replica (fingerprint preserved, invisible to reload) must be
# detected by the background scrubber, quarantined without dropping
# the resident copy, and repaired byte-identically from a peer over
# FETCH — including a torn FETCH that must never install a partial
# file and an ENOSPC preflight that defers instead of wedging.
stage_scrub_chaos() {
  CHAOS_SEED="${CHAOS_SEED:-530217}" dune exec test/test_scrub.exe -- -c
}

# Durable-ingestion acceptance under a pinned seed: WAL round-trip,
# torn-tail truncation, exactly-once replay, and the kill-point sweep —
# seeded SIGKILLs across INGEST/flush/compaction on a forked server;
# every restart must replay the WAL and serve 100% of acknowledged
# ingests, zero lost, zero duplicated.
stage_ingest_chaos() {
  CHAOS_SEED="${CHAOS_SEED:-618342}" dune exec test/test_ingest.exe -- -c
}

# Mutation-mix crash acceptance under a pinned seed: seeded SIGKILLs
# across a workload of interleaved INGEST/DELETE/UPDATE with
# backpressure and a hard disk watermark in play; after every restart
# each acknowledged mutation must be applied exactly once, each
# refused mutation must have left no trace, the data directory must
# stay under its byte budget, and the watermark must never be pierced.
stage_write_chaos() {
  CHAOS_SEED="${CHAOS_SEED:-429771}" dune exec test/test_ingest.exe -- \
    test write-chaos
}

# Tail-latency acceptance + regression gate: one replica browns out
# (seeded Io_fault read delay); the hedged group's p99 must beat the
# single-replica p99, and the hedged/single p99 ratio must stay within
# tolerance of the committed BENCH_serve.json baseline.
stage_serve_bench() {
  CHAOS_SEED="${CHAOS_SEED:-24254}" dune exec bench/serve_bench.exe -- \
    --out BENCH_serve.latest.json --assert \
    --baseline BENCH_serve.json --tolerance 0.5
}

# Brownout bench: p99 + answer-ESD vs offered load, with and without
# degradation.  The browned-out p99 at peak load must be strictly
# below the no-brownout p99 at the same load.
stage_overload_bench() {
  CHAOS_SEED="${CHAOS_SEED:-45327}" dune exec bench/overload_bench.exe -- \
    --out BENCH_overload.latest.json --assert
}

# Repair-convergence bench + regression gate: a 3-replica group with a
# 0.25 s scrub period; every round's in-place corruption must be
# detected and repaired, and mean time-to-converge as a multiple of
# the scrub interval must stay within tolerance of the committed
# BENCH_repair.json baseline.
stage_repair_bench() {
  CHAOS_SEED="${CHAOS_SEED:-40522}" dune exec bench/repair_bench.exe -- \
    --out BENCH_repair.latest.json --assert \
    --baseline BENCH_repair.json --tolerance 1.0
}

# Ingest-latency bench + regression gate: per-record durable
# acknowledgement cost (validate + WAL append + fsync), flush cost and
# cold replay speed; mean ack latency must stay within tolerance of
# the committed BENCH_ingest.json baseline.
stage_ingest_bench() {
  CHAOS_SEED="${CHAOS_SEED:-77413}" dune exec bench/ingest_bench.exe -- \
    --out BENCH_ingest.latest.json --assert \
    --baseline BENCH_ingest.json --tolerance 1.0
}

# Build-throughput bench + regression gate: stable-summary build
# nodes/sec over a generated XMark document, compression-to-budget and
# snapshot save/load; throughput must not fall below the committed
# BENCH_build.json baseline's floor.
stage_build_bench() {
  CHAOS_SEED="${CHAOS_SEED:-90125}" dune exec bench/build_bench.exe -- \
    --out BENCH_build.latest.json --assert \
    --baseline BENCH_build.json --tolerance 1.0
}

stage build              stage_build
stage test               stage_test
stage verify             stage_verify
stage chaos              stage_chaos
stage pool-chaos         stage_pool_chaos
stage coordinator-chaos  stage_coordinator_chaos
stage overload-chaos     stage_overload_chaos
stage scrub-chaos        stage_scrub_chaos
stage ingest-chaos       stage_ingest_chaos
stage write-chaos        stage_write_chaos
stage serve-bench        stage_serve_bench
stage overload-bench     stage_overload_bench
stage repair-bench       stage_repair_bench
stage ingest-bench       stage_ingest_bench
stage build-bench        stage_build_bench

if [ -z "$RAN_ANY" ]; then
  echo "no such stage:$STAGES" >&2
  exit 2
fi

echo "== check.sh: OK =="
