# Observability end to end: (A) metrics must not perturb responses — with
# the periodic reporter running, answers byte-diff against pane_topk; (B)
# the `metrics` verb of a --local-shards=2 fleet renders a strictly valid
# Prometheus exposition (tools/check_prometheus.py) with real fan-out,
# scan and per-shard hop samples; (C) a forced slow query logs exactly one
# structured `slow_query` line carrying the stage breakdown.
. "$(dirname "$0")/lib.sh"
require_artifact

write_queries > queries.txt
# Metrics are on by default; --metrics-interval-ms runs the periodic
# reporter thread alongside the request path.
"$BIN/pane_server" --embedding="$ARTIFACT" --metrics-interval-ms=50 \
  < queries.txt > server_out.txt
"$BIN/pane_topk" --embedding="$ARTIFACT" < queries.txt > golden_out.txt
diff server_out.txt golden_out.txt

printf 'attr 0 5\nlink 0 5\nattr 1 5\nmetrics\nquit\n' \
  | "$BIN/pane_server" --embedding="$ARTIFACT" --local-shards=2 \
  > verb_out.txt
sed -n '/^# TYPE /,/^# EOF$/p' verb_out.txt > exposition.txt
test -s exposition.txt
python3 "$SRC_ROOT/tools/check_prometheus.py" exposition.txt
# The sharded front recorded real fan-out / merge and (through its local
# shard engines) scan timings.
grep -E '^pane_stage_fanout_us_count [1-9]' exposition.txt
grep -E '^pane_stage_engine_scan_us_count [1-9]' exposition.txt
grep -E '^pane_router_hop_us_count\{shard="1"\} [1-9]' exposition.txt

printf 'attr 0 5\nquit\n' \
  | "$BIN/pane_server" --embedding="$ARTIFACT" --slow-query-us=1 \
  > /dev/null 2> slow_err.txt
test "$(grep -c 'slow_query ' slow_err.txt)" = 1
grep 'slow_query ' slow_err.txt \
  | grep -E 'total_us=[0-9]+ requests=1 decode_us=[0-9]+ .*engine_scan_us=[0-9]+ .*first="attr 0 5"'
