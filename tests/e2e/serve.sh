# Serving end to end: pane_server's answers to a scripted conversation
# must be byte-identical to pane_topk, the independent offline scan over
# the same artifact — over the line protocol (plain and recommendation
# mode) and over the binary frame protocol, where the raw frame bytes must
# match too. Then the epoll transport's idle-timeout and connection-cap
# paths over real loopback TCP, pruned mode, and the --stats snapshot.
. "$(dirname "$0")/lib.sh"
require_artifact

write_queries > queries.txt

# Line protocol: the server (mmap store + batched engine + cache) against
# the offline scan.
"$BIN/pane_server" --embedding="$ARTIFACT" --verbose \
  < queries.txt > server_out.txt
"$BIN/pane_topk" --embedding="$ARTIFACT" < queries.txt > golden_out.txt
diff server_out.txt golden_out.txt
# Recommendation mode: exclusion semantics must match too.
"$BIN/pane_server" --embedding="$ARTIFACT" --graph="$DEMO_GRAPH" \
  < queries.txt > server_rec.txt
"$BIN/pane_topk" --embedding="$ARTIFACT" --graph="$DEMO_GRAPH" \
  < queries.txt > golden_rec.txt
diff server_rec.txt golden_rec.txt

# Frame protocol: the framed conversation decodes to the line golden...
"$BIN/pane_frame" --encode < queries.txt \
  | "$BIN/pane_server" --embedding="$ARTIFACT" --protocol=frame \
  | "$BIN/pane_frame" --decode > server_frame_out.txt
diff server_frame_out.txt golden_out.txt
# ...and its raw bytes match pane_topk's independent frame encoding.
"$BIN/pane_frame" --encode < queries.txt \
  | "$BIN/pane_server" --embedding="$ARTIFACT" --protocol=frame \
  > server_frame.bin
"$BIN/pane_frame" --encode < queries.txt \
  | "$BIN/pane_topk" --embedding="$ARTIFACT" --protocol=frame \
  > golden_frame.bin
cmp server_frame.bin golden_frame.bin
# A truncated frame stream must fail the decoder, not hang it.
"$BIN/pane_frame" --encode < queries.txt | head -c 13 > truncated.bin
if "$BIN/pane_frame" --decode < truncated.bin; then
  fail "decoder accepted a truncated frame stream"
fi

# Idle timeout reaps and max-connections refuses, over TCP.
start_server tcp_err.txt --embedding="$ARTIFACT" --idle-timeout-ms=200 \
  --max-connections=1
PORT=$SERVER_PORT
# A silent connection is reaped by the idle sweep: EOF, no hang.
timeout 10 bash -c 'exec 3<>"/dev/tcp/127.0.0.1/$1"; cat <&3' _ "$PORT"
# With the cap at 1, a held connection makes the next one refuse.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'attr 0 1\n' >&3 && read -r -u 3 _admitted
REFUSED=$(timeout 10 bash -c \
  'exec 4<>"/dev/tcp/127.0.0.1/$1"; cat <&4' _ "$PORT")
test "$REFUSED" = "err server busy"
# Both transport counters are visible through the stats request.
printf 'stats\nquit\n' >&3
STATS=$(timeout 10 cat <&3)
exec 3<&-
echo "$STATS" | grep -E ' timeouts=1 ' | grep -E ' rejected=1 '

# Pruned mode serves every request with sane output.
"$BIN/pane_server" --embedding="$ARTIFACT" --pruned --nprobe=8 \
  < queries.txt > pruned_out.txt
test "$(wc -l < pruned_out.txt)" = "$(wc -l < queries.txt)"
if grep -q '^err' pruned_out.txt; then
  fail "pruned mode answered an error"
fi

# The --stats line reports one consistent snapshot.
"$BIN/pane_server" --embedding="$ARTIFACT" --stats \
  < queries.txt > /dev/null 2> stats_err.txt
grep -E 'stats: requests=25 ' stats_err.txt
