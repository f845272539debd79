#!/usr/bin/env bash
# Takes both sides of BENCH_serving.json in one session: the serving-path
# layer benchmarks (lane iteration, SSE relay, Stats2k, Grow2k, trace
# add/finish) on commit REV (the base, checked out in a git worktree under
# .bench_build/) and on this checkout (the change), one `go test -count 1`
# round of each at a time, the base first in even rounds and the change
# first in odd ones. It then files the two outputs with `gemmbench
# -serving`: the base's medians as the before rows, the change's as the
# after rows. With -short a round is a fixed 2000 iterations and gemmbench
# also fails if a benchmark allocates more per op than its committed
# `after` row.
#
#   bash scripts/benchserving.sh REV ROUNDS JSON [-short]
#   make bench-serving REV=HEAD~1
set -euo pipefail
cd "$(dirname "$0")/.."
usage="usage: scripts/benchserving.sh REV ROUNDS JSON [-short]"
rev="${1:?$usage}"
rounds="${2:?$usage}"
json="${3:?$usage}"
short="${4:-}"
benches='BenchmarkLaneIteration|BenchmarkStreamTokens|BenchmarkStats2k|BenchmarkGrow2k|BenchmarkAddFinish'
pkgs=(./internal/gateway ./internal/api ./internal/prefixcache ./internal/govern ./internal/trace)
benchtime=()
[ "$short" = -short ] && benchtime=(-benchtime 2000x)

mkdir -p .bench_build
out="$(mktemp -d "$PWD/.bench_build/serving.XXXXXX")"
base="$out/base"
git worktree add --quiet --detach "$base" "$rev"
trap 'git worktree remove --force "$base"; git worktree prune' EXIT

run() { # side round: one round, its output appended to $out/side.txt
	local dir=.
	[ "$1" = base ] && dir="$base"
	echo "bench-serving: round $(($2 + 1))/$rounds, $1" >&2
	if ! (cd "$dir" && go test -run '^$' -bench "$benches" -benchmem -count 1 "${benchtime[@]}" "${pkgs[@]}") \
		>>"$out/$1.txt" 2>>"$out/stderr.log"; then
		tail -n 20 "$out/$1.txt" "$out/stderr.log" >&2
		return 1
	fi
}
for i in $(seq 0 $((rounds - 1))); do
	if [ $((i % 2)) -eq 0 ]; then run base "$i"; run change "$i"; else run change "$i"; run base "$i"; fi
done
go run ./cmd/gemmbench -serving $short -json "$json" "$out/base.txt" "$out/change.txt"
