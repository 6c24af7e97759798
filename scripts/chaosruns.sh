#!/usr/bin/env bash
# Fails when an alternative of a -run pattern in the Makefile's chaos
# target names no test of the packages its line runs, as go test -list
# finds them. A -run pattern that matches nothing passes silently, so a
# renamed or deleted test would leave the chaos run without a word.
#
#   scripts/chaosruns.sh
set -euo pipefail

cd "$(dirname "$0")/.."
go=${GO:-go}
status=0
checked=0
# Each recipe line of the chaos target, from its -run on: the pattern in
# single quotes (Make's $$ a $), then the packages.
while read -r line; do
	rest=${line#-run \'}
	pattern=${rest%%\'*}
	pattern=${pattern//\$\$/\$}
	read -ra pkgs <<<"${rest#*\'}"
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		checked=$((checked + 1))
		listed=$("$go" test -list "$alt" "${pkgs[@]}")
		if ! grep -q '^\(Test\|Fuzz\|Example\)' <<<"$listed"; then
			echo "chaos: -run alternative '$alt' names no test in ${pkgs[*]}" >&2
			status=1
		fi
	done
done < <(sed -n '/^chaos:/,/^$/p' Makefile | grep -o -- "-run '[^']*'.*")
if [ "$checked" -eq 0 ]; then
	echo "chaos: no -run pattern found in the Makefile's chaos target" >&2
	exit 1
fi
[ "$status" -eq 0 ] && echo "chaos: $checked -run alternatives, each names a test"
exit $status
