#!/usr/bin/env bash
# Drives the cmd/fsjoin binary once per algorithm on the golden corpus
# (make cli-smoke):
#   - every -algo self-joins testdata/golden/texts.txt at -theta 0.7, and
#     the five R-S algorithms join rs_queries.txt against texts.txt; each
#     run's stdout must be byte-identical between -par 1 and -par 4, and
#     its -stats line must report verified-candidates=[1-9]...;
#   - -algo massjoin (self-join only) given two files must exit 1, its
#     error prefixed with "fsjoin: " once.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
golden=$root/testdata/golden
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"${GO:-go}" build -o "$tmp/fsjoin" "$root/cmd/fsjoin"

# run LABEL ALGO FILE... checks one join across -par 1 and -par 4.
run() {
	local label=$1 algo=$2
	shift 2
	for par in 1 4; do
		"$tmp/fsjoin" -algo "$algo" -theta 0.7 -par "$par" -stats "$@" \
			>"$tmp/out.$par" 2>"$tmp/err.$par"
	done
	if ! cmp -s "$tmp/out.1" "$tmp/out.4"; then
		echo "cli-smoke: $label: stdout differs between -par 1 and -par 4" >&2
		exit 1
	fi
	if ! grep -q 'verified-candidates=[1-9]' "$tmp/err.1"; then
		echo "cli-smoke: $label: no verified candidates reported:" >&2
		cat "$tmp/err.1" >&2
		exit 1
	fi
	echo "cli-smoke: $label: $(wc -l <"$tmp/out.1") pairs, $(grep -o 'verified-candidates=[0-9]*' "$tmp/err.1")"
}

for algo in fs fs-v ridpairs vsmart massjoin massjoin-light approx; do
	run "$algo self" "$algo" "$golden/texts.txt"
done
for algo in fs fs-v ridpairs vsmart approx; do
	run "$algo rs" "$algo" "$golden/rs_queries.txt" "$golden/texts.txt"
done

status=0
"$tmp/fsjoin" -algo massjoin -theta 0.7 "$golden/rs_queries.txt" "$golden/texts.txt" \
	>/dev/null 2>"$tmp/err" || status=$?
if [ "$status" -ne 1 ]; then
	echo "cli-smoke: massjoin with two files exited $status, want 1:" >&2
	cat "$tmp/err" >&2
	exit 1
fi
if grep -q 'fsjoin: fsjoin:' "$tmp/err"; then
	echo "cli-smoke: massjoin with two files: the error's prefix is doubled:" >&2
	cat "$tmp/err" >&2
	exit 1
fi
echo "cli-smoke: massjoin rs: exit 1 ($(cat "$tmp/err"))"
