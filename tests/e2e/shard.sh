# Sharded serving end to end: the router's answers over the fixture's 3
# shard containers must be byte-identical to pane_topk's offline scan of
# the *unsharded* artifact — over in-process fleets of 1-4 shards and over
# real TCP shard servers. Then one shard dies: fresh queries touching it
# answer `err shard unavailable` (no hang, no partial merge), queries
# owned by live shards keep answering, and the stats line reports it.
. "$(dirname "$0")/lib.sh"
require_artifact

{ write_queries; echo "plan"; } > queries.txt
"$BIN/pane_topk" --embedding="$ARTIFACT" < queries.txt > golden.txt

# Local fleets answer byte-identically to the offline scan.
for s in 1 2 3 4; do
  "$BIN/pane_server" --embedding="$ARTIFACT" --local-shards=$s \
    < queries.txt > local_$s.txt
  diff golden.txt local_$s.txt
done

# A remote fleet of three shard servers.
SHARD_PIDS=()
SHARD_ADDRS=
for i in 0 1 2; do
  start_server shard_$i.log --embedding="$SHARD_PREFIX.$i"
  SHARD_PIDS+=("$SERVER_PID")
  SHARD_ADDRS+="${SHARD_ADDRS:+,}127.0.0.1:$SERVER_PORT"
done

# Leg 1: the remote fleet answers byte-identically to the offline scan
# (stdin router, fresh process, default cache).
"$BIN/pane_server" --shards="$SHARD_ADDRS" < queries.txt > remote.txt
diff golden.txt remote.txt

# Leg 2: a long-lived TCP router; a healthy round first, then the middle
# shard dies. --cache-size=0 so the degradation queries cannot be answered
# from the router's LRU.
start_server router.log --shards="$SHARD_ADDRS" --hop-timeout-ms=1000 \
  --cache-size=0
exec 3<>"/dev/tcp/127.0.0.1/$SERVER_PORT"
printf 'attr 0 3\n' >&3 && read -r -u 3 HEALTHY
case "$HEALTHY" in
  "attr 0 ok "*) ;;
  *) fail "healthy router answered: $HEALTHY" ;;
esac
kill "${SHARD_PIDS[1]}"
wait "${SHARD_PIDS[1]}" || true
sleep 0.5
# A fresh top-k (fans out to every shard) and a pair owned by the dead
# shard degrade with the exact error text, bounded by the hop timeout (so
# `timeout` guards against hangs). A pair owned by a live shard keeps
# answering, and stats reports the death.
printf 'attr 1 3\npattr 0 300\npattr 0 0\nstats\nquit\n' >&3
timeout 30 cat <&3 > dead.txt
exec 3<&-
test "$(sed -n 1p dead.txt)" = "err shard unavailable"
test "$(sed -n 2p dead.txt)" = "err shard unavailable"
sed -n 3p dead.txt | grep -q '^pattr 0 0 ok '
sed -n 4p dead.txt | grep -q 'shard1.alive=0'
sed -n 4p dead.txt | grep -q 'shard0.alive=1'
