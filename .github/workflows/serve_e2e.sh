#!/usr/bin/env bash
# Networked end-to-end check for the concurrent serving layer, shared by
# the Debug/Release, ASan+UBSan, and TSan CI jobs. Three phases:
#
# Phase 1 — single-substrate (the v1 golden snapshot):
#   1. start `pgtool serve --listen` on the golden snapshot (ephemeral
#      port 0 would be cleaner, but a fixed port keeps the script dumb;
#      the value is unregistered and the runners are single-tenant);
#   2. wait until a protocol-free probe connects (client with empty stdin);
#   3. drive 4 concurrent scripted clients from tests/data/serve_session.txt
#      and diff every transcript byte-for-byte against the checked-in
#      expectation (--threads 1 pins the dynamic-schedule reductions);
#   4. SIGTERM the server and require a graceful exit (status 0) — under
#      ASan that is also when the leak check runs.
#
# Phase 2 — multi-substrate (the v2 golden snapshot): one server maps
# golden_v2.pgs (BF/sym + BF/dag + KMV/sym + KMV/dag), then two concurrent
# clients query DIFFERENT substrates of the one mapping — one runs the
# counting script (DAG substrates, kind= switching BF/KMV), the other the
# neighborhood script (symmetric substrates) — and each transcript must
# match its checked-in expectation byte for byte.
#
# Phase 3 — live updates over the wire (`serve --live`): a live server on
# a scratch copy of golden_v2.pgs must (a) serve generation 1 transcripts
# byte-identical to the static expectations, (b) accept update
# insert/delete + seal from a scripted client, and (c) serve post-swap
# transcripts byte-identical to a COLD `pgtool build` of the edited edge
# list — the end-to-end form of the incremental-maintenance invariant
# (live/apply.hpp: patched sketches are bit-identical to a cold rebuild).
# The delta log the server wrote is then replayed offline with
# `pgtool update --apply-log` and must reproduce the same transcripts.
#
# Phase 1 also exercises the observability surface: the server runs with
# --metrics-port, and WHILE the 4 clients are in flight the script scrapes
# GET /metrics (bash /dev/tcp — no curl dependency on minimal runners) and
# requires a Prometheus exposition carrying the query counters. The
# transcript diffs then double as proof that scraping never perturbs reply
# bytes.
#
# Usage: serve_e2e.sh <path-to-pgtool> [port]
set -euo pipefail

PGTOOL="${1:?usage: serve_e2e.sh <path-to-pgtool> [port]}"
PORT="${2:-19777}"
METRICS_PORT=$((PORT + 2))
CLIENTS=4

# One HTTP/1.0 GET against the scrape endpoint via bash's /dev/tcp.
scrape_metrics() {
  local port="$1" out="$2"
  exec 9<>"/dev/tcp/127.0.0.1/$port"
  printf 'GET /metrics HTTP/1.0\r\n\r\n' >&9
  cat <&9 > "$out"
  exec 9>&- 9<&-
}

wait_ready() {
  local port="$1" pid="$2"
  local ready=0
  for _ in $(seq 1 150); do
    if "$PGTOOL" client 127.0.0.1 "$port" </dev/null >/dev/null 2>&1; then
      ready=1
      break
    fi
    sleep 0.2
  done
  if [ "$ready" != 1 ]; then
    echo "server never became ready on port $port" >&2
    kill -KILL "$pid" 2>/dev/null || true
    exit 1
  fi
}

# --- Phase 1: v1 snapshot, 4 identical concurrent sessions, scraped
# --- mid-flight. ---

"$PGTOOL" serve tests/data/golden.pgs --threads 1 --listen "$PORT" \
  --max-conns 8 --metrics-port "$METRICS_PORT" &
SERVE_PID=$!
wait_ready "$PORT" "$SERVE_PID"

pids=""
for i in $(seq 1 "$CLIENTS"); do
  "$PGTOOL" client 127.0.0.1 "$PORT" \
    < tests/data/serve_session.txt > "net_replies_$i.txt" &
  pids="$pids $!"
done

# Scrape while the clients race. Only the always-present families are
# asserted here — the query families register lazily on the first query,
# which this scrape may legitimately beat; the post-session scrape below
# pins those.
scrape_metrics "$METRICS_PORT" metrics_scrape.txt
grep -q '^HTTP/1.0 200 OK' metrics_scrape.txt
grep -q 'probgraph_kernel_dispatch_level' metrics_scrape.txt
echo "mid-flight /metrics scrape is valid Prometheus text"

for p in $pids; do
  wait "$p"
done

for i in $(seq 1 "$CLIENTS"); do
  diff -u tests/data/serve_session.expected "net_replies_$i.txt"
done
echo "all $CLIENTS concurrent transcripts byte-identical (while scraped)"

# One more scrape after the sessions finished: their queries must now be
# visible — per-type counters, latency quantiles, and substrate routing
# (a tc query ran in every transcript).
scrape_metrics "$METRICS_PORT" metrics_final.txt
grep -q '# TYPE probgraph_queries_total counter' metrics_final.txt
grep -q 'probgraph_queries_total{type="tc",mode="sketch"}' metrics_final.txt
grep -q 'probgraph_query_latency_seconds{type="tc",quantile="0.99"}' metrics_final.txt
grep -q 'probgraph_query_substrate_total' metrics_final.txt
echo "post-session scrape carries the query counters, quantiles, and routing"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
echo "server stopped gracefully"

# --- Phase 2: v2 multi-substrate snapshot, two clients on different
# --- substrate families over ONE mapping. ---

MULTI_PORT=$((PORT + 1))
"$PGTOOL" serve tests/data/golden_v2.pgs --threads 1 --listen "$MULTI_PORT" --max-conns 8 &
MULTI_PID=$!
wait_ready "$MULTI_PORT" "$MULTI_PID"

"$PGTOOL" client 127.0.0.1 "$MULTI_PORT" \
  < tests/data/serve_multi_tc.txt > multi_replies_tc.txt &
TC_PID=$!
"$PGTOOL" client 127.0.0.1 "$MULTI_PORT" \
  < tests/data/serve_multi_pair.txt > multi_replies_pair.txt &
PAIR_PID=$!
wait "$TC_PID"
wait "$PAIR_PID"

diff -u tests/data/serve_multi_tc.expected multi_replies_tc.txt
diff -u tests/data/serve_multi_pair.expected multi_replies_pair.txt
echo "multi-substrate transcripts byte-identical (counting + neighborhood clients)"

kill -TERM "$MULTI_PID"
wait "$MULTI_PID"
echo "multi-substrate server stopped gracefully"

# --- Phase 3: live updates over the wire, byte-diffed against a cold
# --- rebuild of the edited graph. ---

LIVE_PORT=$((PORT + 3))
WORK="live_e2e.tmp"
rm -rf "$WORK" && mkdir "$WORK"
# Scratch copy: seals write .genN siblings next to the snapshot and the
# delta log lives beside it, so the checked-in fixture stays untouched.
cp tests/data/golden_v2.pgs "$WORK/live.pgs"

"$PGTOOL" serve "$WORK/live.pgs" --threads 1 --live \
  --delta-log "$WORK/live.pgd" --listen "$LIVE_PORT" --max-conns 8 &
LIVE_PID=$!
wait_ready "$LIVE_PORT" "$LIVE_PID"

# (a) Generation 1 must serve the SAME bytes as the static server.
"$PGTOOL" client 127.0.0.1 "$LIVE_PORT" \
  < tests/data/serve_multi_tc.txt > live_pre_tc.txt
"$PGTOOL" client 127.0.0.1 "$LIVE_PORT" \
  < tests/data/serve_multi_pair.txt > live_pre_pair.txt
diff -u tests/data/serve_multi_tc.expected live_pre_tc.txt
diff -u tests/data/serve_multi_pair.expected live_pre_pair.txt
echo "live server generation 1 transcripts match the static expectations"

# (b) Stage two inserts and one delete, then seal. (0,9) and (3,17) are
# absent from the golden circulant, (0,1) is a chord-1 edge; all ids stay
# inside the existing 32-vertex range so n is unchanged and the cold
# rebuild below sees the identical graph.
printf 'update insert 0 9 3 17\nupdate delete 0 1\nupdate seal\nepoch\nquit\n' |
  "$PGTOOL" client 127.0.0.1 "$LIVE_PORT" > live_update_replies.txt
grep -q $'^ok\tupdate\tsealed\tgeneration=2\t' live_update_replies.txt
grep -q $'^ok\tepoch\tgeneration=2\tpending_inserts=0\tpending_deletes=0$' \
  live_update_replies.txt
echo "update verbs staged and sealed generation 2 over the wire"

# (c) Post-swap transcripts vs a cold build of the edited edge list.
grep -v '^0 1$' tests/data/golden.el > "$WORK/updated.el"
printf '0 9\n3 17\n' >> "$WORK/updated.el"
"$PGTOOL" build "$WORK/updated.el" --kinds bf,kmv --orient both \
  -o "$WORK/cold.pgs"

"$PGTOOL" client 127.0.0.1 "$LIVE_PORT" \
  < tests/data/serve_multi_tc.txt > live_post_tc.txt
"$PGTOOL" client 127.0.0.1 "$LIVE_PORT" \
  < tests/data/serve_multi_pair.txt > live_post_pair.txt
"$PGTOOL" serve "$WORK/cold.pgs" --threads 1 \
  < tests/data/serve_multi_tc.txt > cold_tc.txt
"$PGTOOL" serve "$WORK/cold.pgs" --threads 1 \
  < tests/data/serve_multi_pair.txt > cold_pair.txt
diff -u cold_tc.txt live_post_tc.txt
diff -u cold_pair.txt live_post_pair.txt
# The estimates must actually have moved — equal pre/post transcripts
# would make the cold diff above vacuous.
! diff -q live_pre_tc.txt live_post_tc.txt > /dev/null
echo "post-swap transcripts byte-identical to the cold rebuild"

kill -TERM "$LIVE_PID"
wait "$LIVE_PID"
echo "live server stopped gracefully"

# The delta log must replay to the same serving state offline.
"$PGTOOL" update tests/data/golden_v2.pgs --apply-log "$WORK/live.pgd" \
  -o "$WORK/replay.pgs"
"$PGTOOL" serve "$WORK/replay.pgs" --threads 1 \
  < tests/data/serve_multi_tc.txt > replay_tc.txt
diff -u cold_tc.txt replay_tc.txt
echo "delta-log replay reproduces the sealed generation"

rm -rf "$WORK"
