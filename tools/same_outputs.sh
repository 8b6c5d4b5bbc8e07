#!/usr/bin/env bash
# Byte-for-byte output check of the working tree against a base revision.
#
#   tools/same_outputs.sh BASE
#
# Exports BASE with `git archive` into the git-ignored .bench_build/base-<sha>/
# (as tools/bench_pairs.sh does), builds the same binaries there and in the
# working tree, runs each side in an output directory of its own under
# target/same_outputs/, and diffs:
#
#   * the stdout of `quickstart`, `fig8 --quick` and `ablation_gc --quick`;
#   * the rows of `fault_sweep --smoke`, with the wall-clock `eps=` column
#     stripped, and its `--actions-out` file (the fired-action lines).
#
# Every compared column is a pure function of the code and the seeds, so a
# change that claims to keep executions must show no difference. Exits
# nonzero on any difference, or if a run fails. Nothing is downloaded.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
[ $# -eq 1 ] || { echo "usage: $0 BASE" >&2; exit 2; }

rev=$(git rev-parse --verify "$1^{commit}")
parent=$root/.bench_build/base-${rev:0:12}
if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git archive "$rev" | tar -x -C "$parent"
fi
out=$root/target/same_outputs
rm -rf "$out"

for side in base tree; do
    dir=$root
    [ $side = base ] && dir=$parent
    (cd "$dir" && cargo build --release --offline --quiet \
        --example quickstart --bin fig8 --bin ablation_gc --bin fault_sweep)
    bin=$dir/target/release
    mkdir -p "$out/$side"
    (
        cd "$out/$side"
        "$bin/examples/quickstart" >quickstart.txt
        "$bin/fig8" --quick >fig8.txt
        "$bin/ablation_gc" --quick >ablation_gc.txt
        "$bin/fault_sweep" --smoke --actions-out actions.txt |
            sed -E 's/ eps=[0-9.]+//' >fault_sweep.txt
    )
done

status=0
for f in quickstart.txt fig8.txt ablation_gc.txt fault_sweep.txt actions.txt; do
    if diff -u "$out/base/$f" "$out/tree/$f"; then
        echo "same: $f"
    else
        echo "DIFFERS: $f" >&2
        status=1
    fi
done
exit $status
