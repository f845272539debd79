#!/usr/bin/env bash
# Runs every workload N times on this checkout (default 5), each time with
# another seed, and prints per workload x end-to-end metric the median,
# (max - min)/median and the interquartile spread IQR/median. Exits
# non-zero when a run was not correct or an IQR/median — the figure the
# driver accepts or refuses the benchmark on — exceeds the bound
# BENCHMARK.json gives the metric.
#
#   bash bench/noise.sh [N] > table.md
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-5}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
out="$(mktemp -d .bench_build/noise.XXXXXX 2>/dev/null || { mkdir -p .bench_build; mktemp -d .bench_build/noise.XXXXXX; })"

for seed in $(seq 1 "$runs"); do
	for w in $workloads; do
		echo "noise: run $seed/$runs of $w" >&2
		bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>>"$out/stderr.log" |
			tail -n 1 >>"$out/$w.jsonl"
	done
done

python3 - "$out" <<'EOF'
import json, statistics, sys
out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
bad = False
print("| workload | metric | unit | median | (max-min)/median | IQR/median | bound | runs |")
print("|---|---|---|---|---|---|---|---|")
for w in spec["workloads"]:
    runs = [json.loads(line) for line in open(f"{out}/{w['name']}.jsonl")]
    for r in runs:
        if not r["correct"] or r["failed"]:
            print(f"noise: {w['name']}: a run was not correct: {r['failed']} failed", file=sys.stderr)
            bad = True
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        spread = (max(vals) - min(vals)) / med
        iqr = 0.0
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            iqr = (q[2] - q[0]) / med
        over = iqr > m["bound"]
        bad = bad or over
        print(f"| {w['name']} | {m['name']} | {m['unit']} | {med:.6g} | {100*spread:.1f} % | {100*iqr:.1f} % | {100*m['bound']:.0f} % | {len(vals)}{' OVER' if over else ''} |")
sys.exit(1 if bad else 0)
EOF
