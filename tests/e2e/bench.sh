# The scalability bench's reporting path (including the memory-budget
# section's peak-RSS / throughput rows) at a tiny scale: it must run to
# completion and write a well-formed --json telemetry snapshot.
. "$(dirname "$0")/lib.sh"

PANE_BENCH_SCALE=0.05 "$BIN/bench_fig4_scalability" --json=fig4.json
python3 -m json.tool fig4.json > /dev/null
