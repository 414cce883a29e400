# Artifact container end to end: pane_server's mmap store answers
# byte-identically to pane_topk's offline scan over the checksummed
# container; a restart from a saved IVF index skips k-means and serves the
# same pruned answers; and one flipped byte in the middle of the container
# makes the loader fail loudly with a checksum error instead of serving
# corrupt factors.
. "$(dirname "$0")/lib.sh"
require_artifact

# A private copy: this leg corrupts it.
cp "$ARTIFACT" e.ctn

for v in 0 3 7 42 99; do
  echo "attr $v 5"; echo "link $v 5"; echo "pair $v 11"
done > queries.txt
"$BIN/pane_topk" --embedding=e.ctn < queries.txt > topk_out.txt
"$BIN/pane_server" --embedding=e.ctn < queries.txt > server_out.txt
diff topk_out.txt server_out.txt

# A saved IVF index skips the k-means rebuild.
"$BIN/pane_server" --embedding=e.ctn --pruned --nprobe=8 --ivf=ivf.ctn \
  < queries.txt > pruned_first.txt 2> first_err.txt
grep -q 'ivf: built' first_err.txt
grep -q 'ivf: saved' first_err.txt
test -s ivf.ctn
"$BIN/pane_server" --embedding=e.ctn --pruned --nprobe=8 --ivf=ivf.ctn \
  < queries.txt > pruned_second.txt 2> second_err.txt
grep -q 'k-means skipped' second_err.txt
# Same index either way, so same pruned answers.
diff pruned_first.txt pruned_second.txt

# A flipped byte fails loudly with a checksum error.
size=$(stat -c%s e.ctn)
off=$((size / 2 + 7))
orig=$(dd if=e.ctn bs=1 skip=$off count=1 status=none | od -An -tu1 \
  | tr -d ' ')
printf "\\$(printf '%03o' $(( (orig + 1) % 256 )))" \
  | dd of=e.ctn bs=1 seek=$off count=1 conv=notrunc status=none
if "$BIN/pane_topk" --embedding=e.ctn < queries.txt > /dev/null \
    2> corrupt_err.txt; then
  fail "corrupt container was accepted"
fi
grep -qi 'checksum' corrupt_err.txt
