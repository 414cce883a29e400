# Shared helpers for the end-to-end legs in this directory. ctest runs each
# leg as
#
#   bash tests/e2e/<leg>.sh <bin_dir> <work_root>
#
# where <bin_dir> holds the built pane_* / bench_* binaries and <work_root>
# is a directory inside the build tree. Sourcing this file:
#   - gives the leg its own empty directory <work_root>/<leg> and makes it
#     the working directory and TMPDIR, so no leg writes outside the build
#     tree and legs never share files (safe under `ctest -j`, and beside a
#     second build tree);
#   - points ARTIFACT / SHARD_PREFIX / DEMO_GRAPH at the shared demo
#     artifact that the `artifact` leg (the ctest fixture) trains once;
#   - installs an EXIT trap that kills every server the leg started, on
#     success and on failure alike.
set -Eeuo pipefail

if [ $# -ne 2 ]; then
  echo "usage: bash $0 <bin_dir> <work_root>" >&2
  exit 2
fi
BIN=$(cd "$1" && pwd)
E2E_ROOT=$(mkdir -p "$2" && cd "$2" && pwd)
SRC_ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
LEG=$(basename "$0" .sh)

ARTIFACT_DIR=$E2E_ROOT/artifact
ARTIFACT=$ARTIFACT_DIR/e.ctn
SHARD_PREFIX=$ARTIFACT_DIR/e.shard
DEMO_GRAPH=$ARTIFACT_DIR/pane_cli_demo

WORK=$E2E_ROOT/$LEG
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"
export TMPDIR=$WORK

STARTED_PIDS=()

cleanup() {
  local rc=$?
  local pid
  for pid in "${STARTED_PIDS[@]}"; do
    kill "$pid" 2> /dev/null || true
  done
  for pid in "${STARTED_PIDS[@]}"; do
    wait "$pid" 2> /dev/null || true
  done
  exit "$rc"
}
trap cleanup EXIT
trap 'exit 143' TERM INT HUP
trap 'echo "e2e $LEG: line $LINENO failed: $BASH_COMMAND" >&2' ERR

fail() {
  echo "e2e $LEG: $*" >&2
  exit 1
}

# The artifact the fixture leg trains; legs that serve it call this first.
require_artifact() {
  test -s "$ARTIFACT" || fail "missing $ARTIFACT (run the e2e_artifact test)"
}

# The 25-request conversation the serve, shard and metrics legs replay:
# every query family, and a repeated attr (the cache path).
write_queries() {
  local v
  for v in 0 1 7 42 99; do
    echo "attr $v 5"; echo "link $v 5"; echo "pattr $v 3"
    echo "pair $v 11"; echo "attr $v 5"
  done
}

# start_server LOG ARGS... starts pane_server on a free loopback port in
# the background and waits for its "listening on" line. Sets SERVER_PID
# and SERVER_PORT; the EXIT trap kills the server.
start_server() {
  local log=$1
  shift
  "$BIN/pane_server" --port=0 "$@" > /dev/null 2> "$log" &
  SERVER_PID=$!
  STARTED_PIDS+=("$SERVER_PID")
  SERVER_PORT=
  local attempt
  for attempt in $(seq 1200); do
    SERVER_PORT=$(sed -n \
      's/^pane_server listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
      "$log")
    [ -n "$SERVER_PORT" ] && return 0
    if ! kill -0 "$SERVER_PID" 2> /dev/null; then
      cat "$log" >&2
      fail "pane_server $* exited before listening"
    fi
    sleep 0.05
  done
  fail "pane_server $* did not report a port within 60 s"
}
