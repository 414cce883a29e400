# Spill training end to end: a 1 MiB budget makes every n x d factor of
# the demo graph spill, so pane_cli trains through buffer-pool-managed
# mapped slabs (affinity panels, engine-aware init, CCD strips). Run from
# the ASan tree, mapping lifetime or release bugs fail loudly here. Both
# the parallel and the serial trainer must write the same bytes as the
# unbounded run.
. "$(dirname "$0")/lib.sh"
require_artifact

"$BIN/pane_cli" --mode=train --method=pane --threads=2 --k=32 \
  --memory-budget-mb=1 --verbose --out=spill_e.ctn > spill_train.log 2>&1
test -s spill_e.ctn
grep -q 'mmap-spill' spill_train.log
# The fixture trained the same graph with the same options, unbounded.
cmp spill_e.ctn "$ARTIFACT"

"$BIN/pane_cli" --mode=train --method=pane-seq --threads=1 --k=32 \
  --memory-budget-mb=1 --out=spill_seq.ctn
"$BIN/pane_cli" --mode=train --method=pane-seq --threads=1 --k=32 \
  --out=unbounded_seq.ctn
cmp spill_seq.ctn unbounded_seq.ctn
