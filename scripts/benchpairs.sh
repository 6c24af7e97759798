#!/usr/bin/env bash
# Paired benchmark runs of a parent checkout against this one: the table
# the choosing-metrics guide (§8) asks a performance claim to rest on.
#
#   scripts/benchpairs.sh PARENT WORKLOAD [PAIRS=10] [SECONDS=15]
#
# PARENT is a checkout's directory or a git revision of this repository
# (HEAD~1, a branch, a sha); a revision is checked out as a detached
# worktree under .bench_build/parent-<short sha> for the run and removed
# when the script exits. Each side is built and run through its own
# bench/run.sh, so each measures the benchmark as committed beside it.
# Pair i runs both sides with seed i; odd pairs run the parent first, even
# pairs this checkout first. Every run's metric lines are kept under
# .bench_build/pairs/ and every run made is in the table: per end-to-end
# metric, each side's median [quartiles], the change of the medians, in
# how many pairs this checkout read better (ties count for neither), and a
# verdict — "gain" when it read better in at least 9 of 10 pairs and the
# medians differ by more than the parent's interquartile range, else "no
# verdict". Nothing under bench/ is touched.
#
# The table is also written as JSON, to .bench_build/pairs/WORKLOAD/pairs.json,
# and .bench_build/pairs/bench.json gathers every workload measured between
# the same two commits on the same machine: the commits (git describe,
# "-dirty" for uncommitted changes), the machine (CPUs, GOMAXPROCS, Go
# version, kernel), and per workload the pairs, their seconds and, per
# metric, each side's median and quartiles, the pairs won and the verdict.
# A performance change commits that file as BENCH_<name>.json.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,27p' "$0" >&2
	exit 2
fi
change=$(cd "$(dirname "$0")/.." && pwd)
if [ -d "$1" ]; then
	parent=$(cd "$1" && pwd)
else
	sha=$(git -C "$change" rev-parse --verify --short "$1^{commit}")
	parent="$change/.bench_build/parent-$sha"
	git -C "$change" worktree add --detach --force "$parent" "$sha" >&2
	trap 'git -C "$change" worktree remove --force "$parent"' EXIT
fi
workload=$2
pairs=${3:-10}
seconds=${4:-15}
out="$change/.bench_build/pairs/$workload"
rm -rf "$out"
mkdir -p "$out"

# What the JSON names: the two commits and the machine.
describe() { git -C "$1" describe --always --dirty --abbrev=12 2>/dev/null || echo unknown; }
labels=$(printf '"commit": "%s", "parent": "%s", "machine": {"cpus": %d, "gomaxprocs": %d, "go": "%s", "kernel": "%s"}' \
	"$(describe "$change")" "$(describe "$parent")" "$(nproc)" "${GOMAXPROCS:-$(nproc)}" \
	"$(go env GOVERSION)" "$(uname -r)")

run() { # side dir pair
	echo "pair $3/$pairs: $1" >&2
	if ! bash "$2/bench/run.sh" -workload "$workload" -seed "$3" -seconds "$seconds" \
		-out "$out/$1-out" >"$out/$1-$3.txt" 2>"$out/$1-$3.err"; then
		echo "$1 pair $3" >>"$out/failed"
	fi
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent" "$i"
		run change "$change" "$i"
	else
		run change "$change" "$i"
		run parent "$parent" "$i"
	fi
done

# One line per run and metric: side pair metric value.
for f in "$out"/parent-*.txt "$out"/change-*.txt; do
	side=${f##*/}
	side=${side%%-*}
	pair=${f##*-}
	pair=${pair%.txt}
	awk -v side="$side" -v pair="$pair" -v w="$workload" \
		'$1 == w && NF == 4 { print side, pair, $2, $3 }' "$f"
done | awk -v w="$workload" -v pairs="$pairs" -v seconds="$seconds" -v json="$out/pairs.json" -v labels="$labels" '
function quantile(a, n, q,    h, lo) { # linear interpolation between order statistics
	h = (n - 1) * q; lo = int(h)
	return lo + 1 >= n ? a[n] : a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1])
}
function summary(side, m,    n, i, j, t, a) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((side, i, m) in v) a[++n] = v[side, i, m]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	med[side] = quantile(a, n, 0.5)
	iqr[side] = quantile(a, n, 0.75) - quantile(a, n, 0.25)
	js[side] = sprintf("{\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}", med[side], quantile(a, n, 0.25), quantile(a, n, 0.75))
	return sprintf("%.4g [%.4g,%.4g]", med[side], quantile(a, n, 0.25), quantile(a, n, 0.75))
}
{ v[$1, $2, $3] = $4 }
END {
	split("setup_s op_p50_ms op_tail_ms ops_per_s alloc_mb_per_op peak_rss_mb", metrics, " ")
	printf "%s, %d pairs, -seconds %s: parent median [quartiles] -> change median [quartiles]\n", w, pairs, seconds
	for (k = 1; k <= 6; k++) {
		m = metrics[k]; wins = 0; both = 0
		for (i = 1; i <= pairs; i++) {
			if (!(("parent", i, m) in v) || !(("change", i, m) in v)) continue
			both++
			p = v["parent", i, m]; c = v["change", i, m]
			if (m == "ops_per_s" ? c > p : c < p) wins++
		}
		ps = summary("parent", m); cs = summary("change", m)
		delta = med["parent"] != 0 ? 100 * (med["change"] - med["parent"]) / med["parent"] : 0
		shift = m == "ops_per_s" ? med["change"] - med["parent"] : med["parent"] - med["change"]
		verdict = both > 0 && 10 * wins >= 9 * both && shift > iqr["parent"] ? "gain" : "no verdict"
		printf "  %-16s %s -> %s (%+.1f%%, change better in %d/%d): %s\n", m, ps, cs, delta, wins, both, verdict
		rows = rows sprintf("%s\n      \"%s\": {\"parent\": %s, \"change\": %s, \"change_pct\": %.2f, \"won\": %d, \"of\": %d, \"verdict\": \"%s\"}",
			k > 1 ? "," : "", m, js["parent"], js["change"], delta, wins, both, verdict)
	}
	printf "{%s,\n  \"workload\": \"%s\", \"pairs\": %d, \"seconds\": %s,\n  \"metrics\": {%s\n  }\n}\n", labels, w, pairs, seconds, rows > json
}'
# Gather every workload measured between the same commits on this machine.
{
	printf '{%s,\n  "workloads": {' "$labels"
	sep=
	for f in "$change"/.bench_build/pairs/*/pairs.json; do
		if [ "$(head -n 1 "$f")" = "{$labels," ]; then
			printf '%s\n    %s' "$sep" "$(sed -n '2s/^  "workload": \("[^"]*"\), /\1: {/p; 3,$p' "$f")"
			sep=,
		fi
	done
	printf '\n  }\n}\n'
} >"$change/.bench_build/pairs/bench.json"
echo "  JSON: .bench_build/pairs/$workload/pairs.json, all workloads in .bench_build/pairs/bench.json"
# bench exits non-zero when an operation failed or an answer was wrong.
if [ -s "$out/failed" ]; then
	echo "  runs that failed or answered wrongly: $(tr '\n' ';' <"$out/failed")"
	exit 1
fi
echo "  runs that failed or answered wrongly: none"
