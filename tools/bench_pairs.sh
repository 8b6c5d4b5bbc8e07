#!/usr/bin/env bash
# Alternating parent/change benchmark pairs, judged the way the PR driver
# judges them.
#
#   tools/bench_pairs.sh [--base REV] [--pairs N] [--workloads "w1 w2 …"] [--seed S]
#
# Builds flexbench twice — for REV (default HEAD) from a `git archive`
# export under the git-ignored .bench_build/, and for the working tree in
# place — then runs N (default 10) pairs per workload with the command,
# workloads and run length BENCHMARK.json declares, `--trace 0`, result
# files under target/bench_pairs/. Pair i runs both sides at seed S+i-1
# (default S=1) and alternates which side goes first. Nothing is
# downloaded; no file under flexbench/ is touched.
#
# Per workload × end-to-end metric it prints both medians, both quartile
# distances as % of the *parent's* median (the driver's spread rule wants
# the change side within the metric's bound) and as % of each side's *own*
# median (`flexbench compare`'s definition, flexbench/src/stats.rs::spread),
# wins/ties over the pairs, for higher-is-better metrics whether every
# change run is above every parent run (`c>p`: a gain that wide resolves
# whatever the spread), and — for the columns that are a pure function of
# the seed on the simulated workloads — IDENTICAL, or DIFFERS with the
# direction count (`lower 10/10`) and one `parent -> change` line per seed.
# A run that exits nonzero prints its `# PROBLEM` lines as it ends, and
# the summary lists every failed run per workload with its side, pair,
# seed and exit code.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"

base=HEAD pairs=10 seed=1 workloads=
while [ $# -gt 0 ]; do
    case $1 in
        --base) base=$2 ;;
        --pairs) pairs=$2 ;;
        --workloads) workloads=$2 ;;
        --seed) seed=$2 ;;
        *) echo "usage: $0 [--base REV] [--pairs N] [--workloads \"w1 w2 …\"] [--seed S]" >&2; exit 2 ;;
    esac
    shift 2
done

spec() { python3 -c "import json,sys; b=json.load(open('BENCHMARK.json')); print($1)"; }
[ -n "$workloads" ] || workloads=$(spec "' '.join(w['name'] for w in b['workloads'])")
seconds=$(spec "b['run_seconds']")
mapfile -t command < <(spec "'\n'.join(b['command'])")

rev=$(git rev-parse --verify "$base^{commit}")
parent=$root/.bench_build/base-${rev:0:12}
if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git archive "$rev" | tar -x -C "$parent"
fi
out=$root/target/bench_pairs
rm -rf "$out"

echo "# parent $rev ($parent), change = working tree; $pairs pairs, seeds $seed..$((seed + pairs - 1)), $seconds s a run" >&2
for dir in "$parent" "$root"; do
    (cd "$dir" && cargo build --release --offline --quiet --manifest-path flexbench/Cargo.toml)
done

run() { # side dir workload pair
    local dest=$out/$3/$1-$4 status=0
    mkdir -p "$dest"
    (cd "$2" && "${command[@]}" --workload "$3" --seed $((seed + $4 - 1)) \
        --seconds "$seconds" --trace 0 --out "$dest") >"$dest/stdout" || status=$?
    if [ "$status" -ne 0 ]; then
        # Why it failed: flexbench prints one `# PROBLEM` line per reason.
        echo "$status" >"$dest/exit"
        echo "# $1 $3 pair $4 (seed $((seed + $4 - 1))): exit $status" >&2
        grep '^# PROBLEM' "$dest/stdout" >&2 || echo "#   no # PROBLEM line in $dest/stdout" >&2
    fi
}

for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$parent" "$w" "$i"; run change "$root" "$w" "$i"
        else
            run change "$root" "$w" "$i"; run parent "$parent" "$w" "$i"
        fi
        echo "# $w pair $i/$pairs done" >&2
    done
done

python3 - "$out" "$pairs" "$seed" $workloads <<'EOF'
import json, statistics, sys

out, pairs, seed, workloads = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
bench = json.load(open("BENCHMARK.json"))
# Pure functions of the seed wherever the clock is simulated (flexbench/src/spec.rs).
exact = {"model_ops_per_s", "model_lat_p50_ms", "model_lat_global_p90_ms", "wire_bytes_per_op"}


def load(w, side, i):
    try:
        return json.load(open(f"{out}/{w}/{side}-{i}/{w}.e2e.json"))
    except OSError:
        return None


def iqr(xs):
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


print(f"{'workload':13}{'metric':25}{'parent':>12}{'change':>12}{'ratio':>7}"
      f"{'p.iqr%':>8}{'c.iqr%':>8}{'p.own%':>8}{'c.own%':>8}{'bound%':>7}"
      f"  wins/ties  c>p  same-seed columns")
for w in workloads:
    runs = [(seed + i - 1, load(w, "parent", i), load(w, "change", i)) for i in range(1, pairs + 1)]
    seeds = [s for s, p, c in runs if p and c]
    done = [(p, c) for _, p, c in runs if p and c]
    failed = sum(r["failed"] for pc in done for r in pc)
    bad = sum(not r["correct"] for pc in done for r in pc)
    print(f"{w}: {len(done)}/{pairs} pairs complete, failed ops {failed}, incorrect runs {bad}")
    for i in range(1, pairs + 1):
        for side in ("parent", "change"):
            try:
                code = open(f"{out}/{w}/{side}-{i}/exit").read().strip()
            except OSError:
                continue
            print(f"  failed run: {side} pair {i} seed {seed + i - 1} exit {code}")
            for line in open(f"{out}/{w}/{side}-{i}/stdout", errors="replace"):
                if line.startswith("# PROBLEM"):
                    print(f"    {line.rstrip()}")
    if len(done) < 2:
        continue
    for m in bench["end_to_end"]:
        name = m["name"]
        ps = [p["metrics"][name]["value"] for p, _ in done]
        cs = [c["metrics"][name]["value"] for _, c in done]
        pm, cm = statistics.median(ps), statistics.median(cs)
        better = (lambda a, b: b > a) if m["better"] == "higher" else (lambda a, b: b < a)
        wins = sum(better(p, c) for p, c in zip(ps, cs))
        ties = sum(p == c for p, c in zip(ps, cs))
        pct = lambda x: 100 * x / abs(pm) if pm else float("nan")
        own = lambda xs, med: 100 * iqr(xs) / abs(med) if med else float("nan")
        above = ("yes" if min(cs) > max(ps) else "no") if m["better"] == "higher" else "-"
        per_seed = []
        if name in exact and w != "tcp3":
            if ties == len(done):
                cols = "IDENTICAL"
            else:
                moved = {"lower": sum(c < p for p, c in zip(ps, cs)),
                         "higher": sum(c > p for p, c in zip(ps, cs))}
                cols = "DIFFERS: " + ", ".join(f"{d} {k}/{len(done)}" for d, k in moved.items() if k)
                per_seed = [f"{'':38}seed {s}: {p:.6g} -> {c:.6g}" for s, p, c in zip(seeds, ps, cs)]
        else:
            cols = "-"
        flag = " >bound" if pct(iqr(cs)) > 100 * m["bound"] else ""
        print(f"{'':13}{name:25}{pm:12.6g}{cm:12.6g}{cm / pm if pm else float('nan'):7.3f}"
              f"{pct(iqr(ps)):8.1f}{pct(iqr(cs)):8.1f}{own(ps, pm):8.1f}{own(cs, cm):8.1f}"
              f"{100 * m['bound']:7.0f}  {wins:>2}/{ties:<2}      {above:4} {cols}{flag}")
        for line in per_seed:
            print(line)
EOF
