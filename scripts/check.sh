#!/usr/bin/env bash
# Tier-1 verify plus robustness passes: fault-injection smoke tests on the
# CLI, ThreadSanitizer on the concurrent code, AddressSanitizer over the
# full tier-1 suite, and UndefinedBehaviorSanitizer over the full suite.
#
#   scripts/check.sh            full check (build + ctest + faults + sanitizers)
#   scripts/check.sh --fast     skip the sanitizer rebuilds
#
# Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

# Hermetic persistent cache: every CLI invocation below (and any child that
# honours $SVA_CACHE_DIR) reads and writes a throwaway directory, never the
# developer's .sva_cache.
CACHE_DIR="$(mktemp -d)"
export SVA_CACHE_DIR="$CACHE_DIR"
trap 'rm -rf "$CACHE_DIR"' EXIT

echo "== tier-1: configure + build + ctest =="
cmake -B build -S .
cmake --build build -j
# --timeout backstops the per-test TIMEOUT property: nothing hangs CI.
(cd build && ctest --output-on-failure -j --timeout 300)

echo "== persistent cache: cold vs warm CLI runs =="
CLI=./build/src/cli/sva-timing
cold_out="$("$CLI" analyze C432 C880 --threads 2 --cache-dir "$CACHE_DIR" --metrics)"
warm_out="$("$CLI" analyze C432 C880 --threads 2 --cache-dir "$CACHE_DIR" --metrics)"
hits="$(echo "$warm_out" | awk '/flow\.setup_disk_hits/ {print $2}')"
if [[ -z "$hits" || "$hits" -le 0 ]]; then
  echo "FAIL: warm run reported no setup-snapshot disk hits"
  echo "$warm_out"
  exit 1
fi
echo "warm run restored the setup snapshot from disk ($hits hit)"
# Only the wall-time line and the metrics section may differ between the
# two runs; the analysis table must be bit-identical.
strip_variance() { sed -e '/circuits, .* threads, .* s)$/d' -e '/^engine metrics:$/,$d'; }
if ! diff <(echo "$cold_out" | strip_variance) \
          <(echo "$warm_out" | strip_variance); then
  echo "FAIL: warm analysis output differs from cold"
  exit 1
fi
echo "cold and warm analysis tables are identical"

echo "== fault injection: graceful degradation under --keep-going =="
# Break the snapshot loads AND every per-cell OPC solve: the run must
# still complete (exit 0), fall back to the uniform drawn-CD cells, and
# say so in the diagnostics report.
degraded_out="$(SVA_FAILPOINTS="flow.setup_load=throw,opc.cell_solve=throw" \
  "$CLI" analyze C432 C880 --threads 2 --cache-dir "$CACHE_DIR" --diagnostics)" || {
  echo "FAIL: degraded --keep-going run exited non-zero"
  exit 1
}
if ! echo "$degraded_out" | grep -q "opc_cell_degraded"; then
  echo "FAIL: degraded run did not report opc_cell_degraded diagnostics"
  echo "$degraded_out"
  exit 1
fi
echo "degraded run completed with opc_cell_degraded warnings"

echo "== fault injection: fail-fast under --strict =="
if SVA_FAILPOINTS="opc.cell_solve=throw" \
   "$CLI" analyze C432 --strict --cache-dir "$CACHE_DIR" >/dev/null 2>&1; then
  echo "FAIL: --strict run with an injected OPC fault exited zero"
  exit 1
fi
echo "--strict run failed fast as required"

echo "== fault injection: transient faults leave the tables bit-identical =="
# Transient/cache-only faults are retried or degrade to a cold start;
# either way the analysis table must match the untroubled run exactly.
faulted_out="$(SVA_FAILPOINTS="serialize.read=prob(0.3),flow.setup_load=throw" \
  "$CLI" analyze C432 C880 --threads 2 --cache-dir "$CACHE_DIR" --metrics)"
if ! diff <(echo "$cold_out" | strip_variance) \
          <(echo "$faulted_out" | strip_variance); then
  echo "FAIL: analysis table changed under transient cache faults"
  exit 1
fi
echo "analysis tables identical under injected cache faults"

echo "== interruptibility: deadline-cancelled analyze resumes bit-identically =="
# Slow every pool task (one per job: 4 jobs on 3 lanes, so the last job
# starts after two delays) so a sub-second deadline lands mid-batch, then
# resume from the written checkpoint: the final table must match the
# uninterrupted run byte for byte, and the exit codes must follow the
# documented contract (4 = cancelled with checkpoint).
ANALYZE_CKPT="$CACHE_DIR/analyze_resume.ckpt"
rc=0
SVA_FAILPOINTS="engine.task=delay(300)" \
  "$CLI" analyze C432 C499 C880 C1355 --threads 2 --cache-dir "$CACHE_DIR" \
  --deadline 0.5 --checkpoint "$ANALYZE_CKPT" >/dev/null 2>&1 || rc=$?
if [[ "$rc" -ne 4 ]]; then
  echo "FAIL: deadline-cancelled analyze exited $rc, expected 4"
  exit 1
fi
if [[ ! -f "$ANALYZE_CKPT" ]]; then
  echo "FAIL: cancelled analyze left no checkpoint at $ANALYZE_CKPT"
  exit 1
fi
uninterrupted_out="$("$CLI" analyze C432 C499 C880 C1355 --threads 2 --cache-dir "$CACHE_DIR")"
resumed_out="$("$CLI" analyze C432 C499 C880 C1355 --threads 2 --cache-dir "$CACHE_DIR" \
  --resume "$ANALYZE_CKPT")"
if ! diff <(echo "$uninterrupted_out" | strip_variance) \
          <(echo "$resumed_out" | strip_variance); then
  echo "FAIL: resumed analyze table differs from the uninterrupted run"
  exit 1
fi
echo "cancelled at deadline (exit 4), resumed to an identical table"

echo "== interruptibility: SIGINT mid-optimize, then --resume =="
# Reference uninterrupted trajectory first, then an interrupted run:
# SIGINT lands while pricing (slowed by the delay failpoint), the
# optimizer winds down between commits and journals its prefix.
OPT_CKPT="$CACHE_DIR/optimize_resume.ckpt"
"$CLI" optimize C880 --max-moves 12 --threads 2 --cache-dir "$CACHE_DIR" \
  --csv "$CACHE_DIR/eco_full.csv" > "$CACHE_DIR/eco_full.txt"
rc=0
SVA_FAILPOINTS="engine.task=delay(100)" \
  "$CLI" optimize C880 --max-moves 12 --threads 2 --cache-dir "$CACHE_DIR" \
  --checkpoint "$OPT_CKPT" --csv "$CACHE_DIR/eco_part.csv" \
  > "$CACHE_DIR/eco_part.txt" 2>&1 &
opt_pid=$!
sleep 0.5
kill -INT "$opt_pid" 2>/dev/null || true
wait "$opt_pid" || rc=$?
if [[ "$rc" -ne 4 ]]; then
  echo "FAIL: SIGINT-interrupted optimize exited $rc, expected 4"
  cat "$CACHE_DIR/eco_part.txt"
  exit 1
fi
if [[ ! -f "$OPT_CKPT" ]]; then
  echo "FAIL: interrupted optimize left no checkpoint at $OPT_CKPT"
  exit 1
fi
"$CLI" optimize C880 --max-moves 12 --threads 2 --cache-dir "$CACHE_DIR" \
  --resume "$OPT_CKPT" --csv "$CACHE_DIR/eco_resumed.csv" \
  > "$CACHE_DIR/eco_resumed.txt"
if ! cmp -s "$CACHE_DIR/eco_full.csv" "$CACHE_DIR/eco_resumed.csv"; then
  echo "FAIL: resumed trajectory CSV differs from the uninterrupted run"
  diff "$CACHE_DIR/eco_full.csv" "$CACHE_DIR/eco_resumed.csv" || true
  exit 1
fi
# The printed summary (table + closure line) must match too; only the
# "wrote <csv>" trailer names a different file.
if ! diff <(grep -v '^wrote ' "$CACHE_DIR/eco_full.txt") \
          <(grep -v '^wrote ' "$CACHE_DIR/eco_resumed.txt"); then
  echo "FAIL: resumed optimize summary differs from the uninterrupted run"
  exit 1
fi
echo "SIGINT-interrupted optimize (exit 4) resumed byte-identically"

echo "== multi-process cache safety: two concurrent runs, one cache dir =="
# Two simultaneous cold CLI runs share a fresh cache directory.  The
# per-file locks and unique temp names must keep the cache uncorrupted:
# both runs exit 0 with bit-identical tables and no quarantine files.
SHARED_CACHE="$(mktemp -d)"
"$CLI" analyze C432 C499 C880 --threads 2 --cache-dir "$SHARED_CACHE" \
  > "$CACHE_DIR/mp_a.txt" 2>&1 &
pid_a=$!
"$CLI" analyze C432 C499 C880 --threads 2 --cache-dir "$SHARED_CACHE" \
  > "$CACHE_DIR/mp_b.txt" 2>&1 &
pid_b=$!
rc_a=0; rc_b=0
wait "$pid_a" || rc_a=$?
wait "$pid_b" || rc_b=$?
if [[ "$rc_a" -ne 0 || "$rc_b" -ne 0 ]]; then
  echo "FAIL: concurrent runs exited $rc_a / $rc_b"
  cat "$CACHE_DIR/mp_a.txt" "$CACHE_DIR/mp_b.txt"
  rm -rf "$SHARED_CACHE"
  exit 1
fi
if ! diff <(strip_variance < "$CACHE_DIR/mp_a.txt") \
          <(strip_variance < "$CACHE_DIR/mp_b.txt"); then
  echo "FAIL: concurrent runs disagree on the analysis table"
  rm -rf "$SHARED_CACHE"
  exit 1
fi
if compgen -G "$SHARED_CACHE/*.corrupt*" >/dev/null; then
  echo "FAIL: concurrent runs quarantined cache files:"
  ls -l "$SHARED_CACHE"
  rm -rf "$SHARED_CACHE"
  exit 1
fi
# A third (warm) run proves the surviving snapshots parse cleanly.
if ! "$CLI" analyze C432 --cache-dir "$SHARED_CACHE" >/dev/null 2>&1; then
  echo "FAIL: cache left unreadable after concurrent runs"
  rm -rf "$SHARED_CACHE"
  exit 1
fi
rm -rf "$SHARED_CACHE"
echo "concurrent runs shared the cache safely (identical tables, no quarantines)"

echo "== cache-gc: size eviction honours the budget =="
gc_out="$("$CLI" cache-gc --cache-dir "$CACHE_DIR" --cache-gc-max-mb 0)"
if compgen -G "$CACHE_DIR/*.svac" >/dev/null; then
  echo "FAIL: cache-gc --cache-gc-max-mb 0 left snapshots behind"
  ls -l "$CACHE_DIR"
  exit 1
fi
echo "$gc_out"

echo "== server mode: 3 concurrent clients byte-identical to direct runs =="
SOCK="$CACHE_DIR/sva.sock"
"$CLI" serve --socket "$SOCK" --threads 2 --cache-dir "$CACHE_DIR" \
  > "$CACHE_DIR/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do [[ -S "$SOCK" ]] && break; sleep 0.1; done
if [[ ! -S "$SOCK" ]]; then
  echo "FAIL: daemon never created $SOCK"
  cat "$CACHE_DIR/serve.log"
  exit 1
fi
direct_out="$("$CLI" analyze C432 C880 --threads 2 --cache-dir "$CACHE_DIR")"
client_pids=()
for i in 1 2 3; do
  "$CLI" analyze C432 C880 --connect "$SOCK" \
    > "$CACHE_DIR/client_$i.txt" 2>&1 &
  client_pids+=($!)
done
for i in 1 2 3; do
  rc=0
  wait "${client_pids[$((i - 1))]}" || rc=$?
  if [[ "$rc" -ne 0 ]]; then
    echo "FAIL: remote client $i exited $rc"
    cat "$CACHE_DIR/client_$i.txt"
    exit 1
  fi
  if ! diff <(echo "$direct_out" | strip_variance) \
            <(strip_variance < "$CACHE_DIR/client_$i.txt"); then
    echo "FAIL: remote client $i output differs from the direct run"
    exit 1
  fi
done
echo "3 concurrent remote analyzes identical to the direct run"

# Optimize through the daemon: printed summary and trajectory CSV must be
# byte-identical to a direct run (only the "wrote <csv>" trailer names a
# different file).
"$CLI" optimize C880 --max-moves 6 --threads 2 --cache-dir "$CACHE_DIR" \
  --csv "$CACHE_DIR/opt_direct.csv" > "$CACHE_DIR/opt_direct.txt"
"$CLI" optimize C880 --max-moves 6 --connect "$SOCK" \
  --csv "$CACHE_DIR/opt_remote.csv" > "$CACHE_DIR/opt_remote.txt"
if ! cmp -s "$CACHE_DIR/opt_direct.csv" "$CACHE_DIR/opt_remote.csv"; then
  echo "FAIL: remote optimize trajectory CSV differs from the direct run"
  diff "$CACHE_DIR/opt_direct.csv" "$CACHE_DIR/opt_remote.csv" || true
  exit 1
fi
if ! diff <(grep -v '^wrote ' "$CACHE_DIR/opt_direct.txt") \
          <(grep -v '^wrote ' "$CACHE_DIR/opt_remote.txt"); then
  echo "FAIL: remote optimize summary differs from the direct run"
  exit 1
fi
echo "remote optimize byte-identical to the direct run"

# A malformed client must not kill the daemon: garbage bytes get the
# connection dropped with a structured error, the next client is served.
# (tests/server_test.cpp covers this in-process too; skip when no python3.)
if command -v python3 >/dev/null 2>&1; then
  printf 'not a frame' | timeout 5 python3 -c '
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(sys.stdin.buffer.read())
s.shutdown(socket.SHUT_WR)
s.recv(4096)
s.close()' "$SOCK" 2>/dev/null || true
  if ! "$CLI" analyze C432 --connect "$SOCK" >/dev/null 2>&1; then
    echo "FAIL: daemon stopped serving after a malformed client frame"
    exit 1
  fi
  echo "daemon survived a malformed client frame"
fi

# Graceful drain: SIGTERM must exit 0 and remove the socket file.
kill -TERM "$serve_pid"
rc=0
wait "$serve_pid" || rc=$?
if [[ "$rc" -ne 0 ]]; then
  echo "FAIL: daemon exited $rc on SIGTERM, expected 0"
  cat "$CACHE_DIR/serve.log"
  exit 1
fi
if [[ -e "$SOCK" ]]; then
  echo "FAIL: daemon left an orphaned socket file at $SOCK"
  exit 1
fi
echo "SIGTERM drained the daemon (exit 0, socket removed)"

echo "== chaos: probabilistic lane faults, retried clients byte-identical =="
# The daemon's executor lanes crash with p=0.3 per job (the connection is
# dropped without a response); clients with --retries must still land the
# exact direct-run bytes.  Result cache off so every query really runs
# the lane gauntlet.
CHAOS_SOCK="$CACHE_DIR/sva_chaos.sock"
SVA_FAILPOINTS="server.lane.run=prob(0.3)" \
  "$CLI" serve --socket "$CHAOS_SOCK" --threads 2 --lanes 2 --result-cache 0 \
  --cache-dir "$CACHE_DIR" > "$CACHE_DIR/serve_chaos.log" 2>&1 &
chaos_pid=$!
for _ in $(seq 1 100); do [[ -S "$CHAOS_SOCK" ]] && break; sleep 0.1; done
if [[ ! -S "$CHAOS_SOCK" ]]; then
  echo "FAIL: chaos daemon never created $CHAOS_SOCK"
  cat "$CACHE_DIR/serve_chaos.log"
  exit 1
fi
chaos_pids=()
for i in 1 2 3; do
  "$CLI" analyze C432 C880 --connect "$CHAOS_SOCK" --retries 25 \
    > "$CACHE_DIR/chaos_$i.txt" 2>&1 &
  chaos_pids+=($!)
done
for i in 1 2 3; do
  rc=0
  wait "${chaos_pids[$((i - 1))]}" || rc=$?
  if [[ "$rc" -ne 0 ]]; then
    echo "FAIL: chaos client $i exited $rc"
    cat "$CACHE_DIR/chaos_$i.txt"
    exit 1
  fi
  if ! diff <(echo "$direct_out" | strip_variance) \
            <(strip_variance < "$CACHE_DIR/chaos_$i.txt"); then
    echo "FAIL: chaos client $i output differs from the direct run"
    exit 1
  fi
done
echo "3 retried clients identical to the direct run under lane faults"

# The health probe answers while the chaos rages, and must eventually
# report at least one poisoned lane (keep poking until a fault lands).
if ! "$CLI" ping --connect "$CHAOS_SOCK" > "$CACHE_DIR/ping.txt"; then
  echo "FAIL: sva ping exited non-zero against a live daemon"
  cat "$CACHE_DIR/ping.txt"
  exit 1
fi
if ! grep -q "daemon healthy" "$CACHE_DIR/ping.txt"; then
  echo "FAIL: sva ping did not report a healthy daemon"
  cat "$CACHE_DIR/ping.txt"
  exit 1
fi
poisoned=0
for _ in $(seq 1 25); do
  poisoned="$(awk -F'lanes poisoned ' '/daemon healthy/ {print $2}' \
    "$CACHE_DIR/ping.txt")"
  [[ "${poisoned:-0}" -gt 0 ]] && break
  "$CLI" analyze C432 --connect "$CHAOS_SOCK" --retries 25 >/dev/null 2>&1 || true
  "$CLI" ping --connect "$CHAOS_SOCK" > "$CACHE_DIR/ping.txt" || true
done
if [[ "${poisoned:-0}" -le 0 ]]; then
  echo "FAIL: no lane was ever poisoned under prob(0.3) faults"
  cat "$CACHE_DIR/ping.txt" "$CACHE_DIR/serve_chaos.log"
  exit 1
fi
echo "health probe live under chaos ($poisoned lane faults survived)"

# After all that abuse, SIGTERM must still drain cleanly.
kill -TERM "$chaos_pid"
rc=0
wait "$chaos_pid" || rc=$?
if [[ "$rc" -ne 0 ]]; then
  echo "FAIL: chaos daemon exited $rc on SIGTERM, expected 0"
  cat "$CACHE_DIR/serve_chaos.log"
  exit 1
fi
if [[ -e "$CHAOS_SOCK" ]]; then
  echo "FAIL: chaos daemon left an orphaned socket file"
  exit 1
fi
# ...and a ping against the drained daemon reports unreachable (exit 1).
if "$CLI" ping --connect "$CHAOS_SOCK" >/dev/null 2>&1; then
  echo "FAIL: sva ping exited zero against a stopped daemon"
  exit 1
fi
echo "chaos daemon drained on SIGTERM; ping reports the gone daemon"

echo "== chaos over TCP: connection faults, retried clients byte-identical =="
# The TCP transport under injected connection faults: each accepted
# connection's first read throws with p=0.3, the daemon drops the peer
# before any response byte, and the client's retry loop must absorb the
# reset transparently -- landing the exact direct-run bytes.  The port is
# kernel-assigned (:0) and discovered from the daemon's announce line.
TCP_LOG="$CACHE_DIR/serve_tcp.log"
SVA_FAILPOINTS="server.conn.read=prob(0.3)" \
  "$CLI" serve --listen 127.0.0.1:0 --threads 2 --lanes 2 \
  --cache-dir "$CACHE_DIR" > "$TCP_LOG" 2>&1 &
tcp_pid=$!
for _ in $(seq 1 100); do
  grep -q 'listening on tcp:' "$TCP_LOG" && break; sleep 0.1
done
PORT="$(sed -n 's/.*listening on tcp:127\.0\.0\.1:\([0-9]*\).*/\1/p' \
  "$TCP_LOG" | head -1)"
if [[ -z "$PORT" ]]; then
  echo "FAIL: TCP daemon never announced its bound port"
  cat "$TCP_LOG"
  exit 1
fi
TCP_URI="tcp:127.0.0.1:$PORT"
tcp_pids=()
for i in 1 2 3; do
  "$CLI" analyze C432 C880 --connect "$TCP_URI" --retries 25 \
    > "$CACHE_DIR/tcp_$i.txt" 2>&1 &
  tcp_pids+=($!)
done
for i in 1 2 3; do
  rc=0
  wait "${tcp_pids[$((i - 1))]}" || rc=$?
  if [[ "$rc" -ne 0 ]]; then
    echo "FAIL: TCP chaos client $i exited $rc"
    cat "$CACHE_DIR/tcp_$i.txt"
    exit 1
  fi
  if ! diff <(echo "$direct_out" | strip_variance) \
            <(strip_variance < "$CACHE_DIR/tcp_$i.txt"); then
    echo "FAIL: TCP chaos client $i output differs from the direct run"
    exit 1
  fi
done
echo "3 retried TCP clients identical to the direct run under connection faults"

# The faults must actually have landed: the daemon logs every injected
# drop.  Keep poking until one does (p=0.3 per connection).
for _ in $(seq 1 25); do
  grep -q 'server: connection dropped' "$TCP_LOG" && break
  "$CLI" ping --connect "$TCP_URI" >/dev/null 2>&1 || true
done
if ! grep -q 'server: connection dropped' "$TCP_LOG"; then
  echo "FAIL: no connection fault ever fired under prob(0.3)"
  cat "$TCP_LOG"
  exit 1
fi
echo "injected connection drops confirmed in the daemon log"

# Batch: every job line ships over ONE connection and the slot outputs,
# headers stripped, must reproduce the concatenated direct runs exactly
# (only the "wrote <csv>" trailers name different files; the CSV
# artifacts themselves must cmp equal).
ssta_direct_tcp="$("$CLI" ssta C432 --clock 3.1 --mc 50 --threads 2 \
  --cache-dir "$CACHE_DIR" --csv "$CACHE_DIR/ssta_tcp_direct.csv")"
printf 'analyze C432 C880\nssta C432 --clock 3.1 --mc 50 --csv %s\n' \
  "$CACHE_DIR/ssta_tcp_batch.csv" > "$CACHE_DIR/jobs.txt"
if ! "$CLI" batch "$CACHE_DIR/jobs.txt" --connect "$TCP_URI" --retries 25 \
     > "$CACHE_DIR/batch_out.txt" 2> "$CACHE_DIR/batch_err.txt"; then
  echo "FAIL: batch client exited non-zero"
  cat "$CACHE_DIR/batch_out.txt" "$CACHE_DIR/batch_err.txt"
  exit 1
fi
if ! diff <({ echo "$direct_out"; echo "$ssta_direct_tcp"; } \
            | strip_variance | grep -v '^wrote ') \
          <(grep -v '^== batch job ' "$CACHE_DIR/batch_out.txt" \
            | strip_variance | grep -v '^wrote '); then
  echo "FAIL: batch slots differ from the concatenated direct runs"
  exit 1
fi
if ! cmp -s "$CACHE_DIR/ssta_tcp_direct.csv" "$CACHE_DIR/ssta_tcp_batch.csv"; then
  echo "FAIL: batch ssta CSV artifact differs from the direct run"
  diff "$CACHE_DIR/ssta_tcp_direct.csv" "$CACHE_DIR/ssta_tcp_batch.csv" || true
  exit 1
fi
echo "batched jobs over one TCP connection identical to the direct runs"

# After the abuse, SIGTERM must still drain the TCP daemon cleanly.
kill -TERM "$tcp_pid"
rc=0
wait "$tcp_pid" || rc=$?
if [[ "$rc" -ne 0 ]]; then
  echo "FAIL: TCP daemon exited $rc on SIGTERM, expected 0"
  cat "$TCP_LOG"
  exit 1
fi
echo "TCP daemon drained on SIGTERM (exit 0)"

echo "== kernel bench smoke: compiled/scalar bit-identity on C432 =="
cmake --build build -j --target bench_sta_kernel
./build/bench/bench_sta_kernel --smoke

if [[ "$FAST" == "1" ]]; then
  echo "== skipping sanitizer passes (--fast) =="
  exit 0
fi

echo "== TSan: engine/sta/opt/server/litho/flow/robustness tests under -fsanitize=thread =="
# engine_test drives parallel_for's claim loop (nested, 0..8 threads) and
# whole batch jobs at several thread counts; sta_test races run_what_if
# calls on one Sta, covering the flat-arena evaluate path and the dirty
# sweep; opt_test prices ECO candidates as concurrent what-ifs on one
# Sta; server_test covers the daemon's lane pool, watchdog, and the
# JobQueue close/drain races under concurrent pushers; litho_test races
# image() calls on one simulator's TCC cache; flow_test runs the
# cold-setup fan-out (concurrent OPC solves on one engine) in every cold
# SvaFlow; and the robustness_test subset drives the pool through
# injected task faults and cancellation.
cmake -B build-tsan -S . -DSVA_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j --target engine_test sta_test opt_test \
  server_test litho_test flow_test robustness_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/engine_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/sta_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/opt_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/server_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/litho_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/flow_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/robustness_test \
  --gtest_filter='BatchFaultTest.*:CancelTest.*'

echo "== ASan: full tier-1 suite + kernel bench smoke under -fsanitize=address =="
cmake -B build-asan -S . -DSVA_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j
(cd build-asan && ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  ctest --output-on-failure -j)
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  ./build-asan/bench/bench_sta_kernel --smoke

echo "== UBSan: full tier-1 suite under -fsanitize=undefined =="
cmake -B build-ubsan -S . -DSVA_SANITIZE=undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-ubsan -j
(cd build-ubsan && UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --output-on-failure -j)

echo "== ssta: cold run byte-identical through the daemon =="
# Block-based SSTA carries no wall-time trailer, so the remote bytes must
# match the direct run exactly -- report, MC cross-check lines, and the
# criticality CSV artifact (only the "wrote <csv>" trailer may differ).
SOCK="$CACHE_DIR/sva_ssta.sock"
"$CLI" serve --socket "$SOCK" --threads 2 --cache-dir "$CACHE_DIR" \
  > "$CACHE_DIR/serve_ssta.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do [[ -S "$SOCK" ]] && break; sleep 0.1; done
if [[ ! -S "$SOCK" ]]; then
  echo "FAIL: daemon never created $SOCK"
  cat "$CACHE_DIR/serve_ssta.log"
  exit 1
fi
"$CLI" ssta C880 --clock 3.1 --mc 200 --threads 2 --cache-dir "$CACHE_DIR" \
  --csv "$CACHE_DIR/ssta_direct.csv" > "$CACHE_DIR/ssta_direct.txt"
"$CLI" ssta C880 --clock 3.1 --mc 200 --connect "$SOCK" \
  --csv "$CACHE_DIR/ssta_remote.csv" > "$CACHE_DIR/ssta_remote.txt"
if ! cmp -s "$CACHE_DIR/ssta_direct.csv" "$CACHE_DIR/ssta_remote.csv"; then
  echo "FAIL: remote ssta criticality CSV differs from the direct run"
  diff "$CACHE_DIR/ssta_direct.csv" "$CACHE_DIR/ssta_remote.csv" || true
  exit 1
fi
if ! diff <(grep -v '^wrote ' "$CACHE_DIR/ssta_direct.txt") \
          <(grep -v '^wrote ' "$CACHE_DIR/ssta_remote.txt"); then
  echo "FAIL: remote ssta report differs from the direct run"
  exit 1
fi
kill -TERM "$serve_pid"
rc=0
wait "$serve_pid" || rc=$?
if [[ "$rc" -ne 0 ]]; then
  echo "FAIL: ssta daemon exited $rc on SIGTERM, expected 0"
  cat "$CACHE_DIR/serve_ssta.log"
  exit 1
fi
echo "remote ssta byte-identical to the direct run"

echo "== all checks passed =="
