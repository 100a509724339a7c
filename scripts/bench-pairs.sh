#!/bin/bash
# Alternating parent/change runs of the repository benchmark.
#
#   bash scripts/bench-pairs.sh BASE [WORKLOADS] [PAIRS]
#   make bench-pairs BASE=<rev> WORKLOADS="scale-n16 geom-cold" PAIRS=10
#
# BASE is a git revision, exported with `git archive` into a temporary
# directory; the change is this checkout as it stands, uncommitted edits
# included. Every run goes through its own tree's benchmark/run.sh, so each
# side is built exactly as its revision builds it (the build happens before
# the timed window). Each pair runs one workload on both trees for the
# run_seconds of BENCHMARK.json, and the side that runs first alternates
# from pair to pair. WORKLOADS defaults to every workload of BENCHMARK.json,
# PAIRS to 10.
#
# Printed per workload and end-to-end metric of BENCHMARK.json: the median
# of each side, the interquartile range of the base's runs (quartiles as the
# benchmark computes them), how many pairs the change won in the metric's
# better direction, and every pair's values; then each run's correct/failed.
# Needs bash, git and jq; nothing under benchmark/ is edited.
set -eu
base=${1:?usage: bench-pairs.sh BASE [WORKLOADS] [PAIRS]}
root=$(git rev-parse --show-toplevel)
cd "$root"
workloads=${2:-$(jq -r '.workloads[].name' BENCHMARK.json)}
pairs=${3:-10}
secs=$(jq -r '.run_seconds' BENCHMARK.json)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$(git rev-parse --verify "$base^{commit}")" | tar -x -C "$tmp/base"

# run SIDE WORKLOAD: appends the run's contract line (the last line the
# benchmark prints) to $tmp/WORKLOAD.SIDE.jsonl; a run that printed none
# counts as incorrect.
run() {
	local tree=$root line
	[ "$1" = base ] && tree=$tmp/base
	line=$(bash "$tree/benchmark/run.sh" -workload "$2" -seconds "$secs" -out "$tmp/out-$1" 2>>"$tmp/stderr" | tail -n 1) || true
	case $line in
	"{"*) ;;
	*) line='{"correct":false,"failed":null,"metrics":{}}' ;;
	esac
	echo "$line" >>"$tmp/$2.$1.jsonl"
}

for w in $workloads; do
	for ((p = 1; p <= pairs; p++)); do
		if ((p % 2)); then
			run base "$w"
			run change "$w"
		else
			run change "$w"
			run base "$w"
		fi
		echo "$w: pair $p/$pairs done" >&2
	done
done

echo "base $(git rev-parse --short "$base") vs change $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + edits'), $pairs pairs of ${secs}s"
for w in $workloads; do
	jq -rn --arg w "$w" --slurpfile spec BENCHMARK.json \
		--slurpfile b "$tmp/$w.base.jsonl" --slurpfile c "$tmp/$w.change.jsonl" '
	# quartiles: the exclusive method of benchmark/main.go (Python statistics.quantiles, n=4).
	def quartiles: sort as $s | ($s | length) as $n |
		if $n < 2 then [$s[0], $s[0], $s[0]]
		else [1, 2, 3] | map(. as $i
			| ([1, ([($i * ($n + 1) / 4 | floor), $n - 1] | min)] | max) as $j
			| ($i * ($n + 1) - $j * 4) as $d
			| ($s[$j - 1] * (4 - $d) + $s[$j] * $d) / 4)
		end;
	def r: if . == null then "-" else . * 10000 | round / 10000 | tostring end;
	$spec[0].end_to_end[] as $m
	| [$b[] | .metrics[$m.name].value] as $bv
	| [$c[] | .metrics[$m.name].value] as $cv
	| [range(0; [$bv, $cv | length] | min) | select($bv[.] != null and $cv[.] != null)] as $ok
	| ([$bv[] | select(. != null)] | quartiles) as $bq
	| ([$cv[] | select(. != null)] | quartiles) as $cq
	| [$ok[] | select(if $m.better == "lower" then $cv[.] < $bv[.] else $cv[.] > $bv[.] end)] as $wins
	| "\($w) \($m.name) (\($m.better) is better): median \($bq[1] | r) -> \($cq[1] | r), base IQR \(if $bq[0] == null then null else $bq[2] - $bq[0] end | r), change better in \($wins | length)/\($ok | length)\n  pairs base/change: \([$ok[] | "\($bv[.] | r)/\($cv[.] | r)"] | join(" "))"'
	for side in base change; do
		echo "$w $side runs correct/failed: $(jq -rs 'map("\(.correct)/\(.failed)") | join(" ")' "$tmp/$w.$side.jsonl")"
	done
done
if [ -s "$tmp/stderr" ]; then
	echo "benchmark stderr:"
	cat "$tmp/stderr"
fi
