# Fixture for every e2e leg that serves: trains the demo artifact once and
# cuts it into 3 shard containers. pane_cli writes its generated demo graph
# under TMPDIR (this leg's directory), where recommendation-mode legs
# reload it as DEMO_GRAPH.
. "$(dirname "$0")/lib.sh"

"$BIN/pane_cli" --mode=train --method=pane --threads=2 --k=32 \
  --out="$ARTIFACT"
test -s "$ARTIFACT"
test -d "$DEMO_GRAPH"

"$BIN/pane_shardctl" --input="$ARTIFACT" --out-prefix="$SHARD_PREFIX" \
  --shards=3
test -s "$SHARD_PREFIX.0"
test -s "$SHARD_PREFIX.1"
test -s "$SHARD_PREFIX.2"
