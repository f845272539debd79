#!/usr/bin/env bash
# Runs the repository benchmark in alternating pairs on another commit
# (the base, checked out in a git worktree under .bench_build/) and on
# this checkout (the change), and prints, for every end-to-end metric
# BENCHMARK.json names, each side's median and quartiles, the change in
# percent, the pairs the change won and whether the gain rule holds: at
# least nine tenths of the pairs won, and the medians further apart than
# the base's interquartile range. Pair i runs seed 1000+i on both sides,
# the base first in even pairs and the change first in odd ones. Exits
# non-zero if any run is not correct or has a failed request.
#
#   bash scripts/benchpairs.sh REV [WORKLOAD] [PAIRS] [SECONDS]
#   make bench-pairs REV=HEAD~1 W=engine-decode N=10 SECONDS=30
set -euo pipefail
cd "$(dirname "$0")/.."
rev="${1:?usage: scripts/benchpairs.sh REV [WORKLOAD] [PAIRS] [SECONDS]}"
workload="${2:-engine-decode}"
pairs="${3:-10}"
secs="${4:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"

mkdir -p .bench_build
out="$(mktemp -d "$PWD/.bench_build/pairs.XXXXXX")"
base="$out/base"
git worktree add --quiet --detach "$base" "$rev"
trap 'git worktree remove --force "$base"; git worktree prune' EXIT

run() { # side pair: one run, its JSON line appended to $out/side.jsonl
	local dir=.
	[ "$1" = base ] && dir="$base"
	echo "bench-pairs: pair $(($2 + 1))/$pairs, $1, $workload" >&2
	bash "$dir/bench/run.sh" --workload "$workload" --seed "$((1000 + $2))" --seconds "$secs" --trace 0 \
		2>>"$out/stderr.log" | tail -n 1 >>"$out/$1.jsonl"
}
for i in $(seq 0 $((pairs - 1))); do
	if [ $((i % 2)) -eq 0 ]; then run base "$i"; run change "$i"; else run change "$i"; run base "$i"; fi
done

python3 - "$out" "$rev" "$workload" <<'PY'
import json, statistics, sys
out, rev, workload = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))
runs = {s: [json.loads(l) for l in open(f"{out}/{s}.jsonl")] for s in ("base", "change")}
bad = False
for side, rs in runs.items():
    for i, r in enumerate(rs):
        if not r["correct"] or r["failed"]:
            print(f"bench-pairs: {side} pair {i + 1} not correct ({r['failed']} failed)", file=sys.stderr)
            bad = True

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]

n = len(runs["base"])
print(f"{workload}: {n} pairs, base {rev} vs this checkout; values are median [q1, q3]\n")
print("| metric | unit | base | change | Δ % | pairs won | gain rule |")
print("|---|---|---|---|---|---|---|")
for m in spec["end_to_end"]:
    b = [r["metrics"][m["name"]]["value"] for r in runs["base"]]
    c = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
    sign = 1 if m["better"] == "higher" else -1
    won = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
    mb, mc = statistics.median(b), statistics.median(c)
    (b1, b3), (c1, c3) = quartiles(b), quartiles(c)
    delta = 100 * (mc - mb) / mb if mb else 0.0
    holds = won * 10 >= 9 * n and sign * (mc - mb) > b3 - b1
    print(f"| {m['name']} | {m['unit']} | {mb:.4g} [{b1:.4g}, {b3:.4g}] | {mc:.4g} [{c1:.4g}, {c3:.4g}] "
          f"| {delta:+.1f} | {won}/{n} | {'holds' if holds else 'no'} |")
print(f"\nruns: {out}")
sys.exit(1 if bad else 0)
PY
