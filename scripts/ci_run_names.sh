#!/usr/bin/env bash
# ci_run_names.sh [workflow] — every test a CI step hand-lists must exist.
#
# The race and drill steps of .github/workflows/ci.yml select tests with
# `go test <packages> -run 'TestA|TestB|...'`. `go test` is content with a
# name that matches nothing, so a renamed or deleted test leaves its step
# green and running less than it says. This reads each such step, splits
# the -run alternation, and fails unless every alternative (a regular
# expression, unanchored, as `go test` reads it) matches at least one
# `func Test...` or `func Fuzz...` in the _test.go files of the packages
# that step names (`./dir` is that directory, `./dir/...` the tree).
# `-run '^$'`, which selects no test on purpose, is skipped, and so are
# comment lines.
set -euo pipefail
cd "$(dirname "$0")/.."
workflow=${1:-.github/workflows/ci.yml}

checked=0 missing=0
while IFS= read -r line; do
	if [[ $line =~ -run\ \'([^\']+)\' ]] || [[ $line =~ -run\ ([^\ \']+) ]]; then
		pattern=${BASH_REMATCH[1]}
	else
		continue
	fi
	[ "$pattern" = '^$' ] && continue
	packages=$(grep -oE '(^|[[:space:]])\./[^[:space:]]*' <<<"$line" | tr -d '[:blank:]' | tr '\n' ' ')
	names=$(for pkg in $packages; do
		case $pkg in
		*/...) find "${pkg%/...}" -name '*_test.go' ;;
		*) find "$pkg" -maxdepth 1 -name '*_test.go' ;;
		esac
	done | xargs -r grep -hoE '^func (Test|Fuzz)[A-Za-z0-9_]*' | sed 's/^func //' | sort -u)
	IFS='|' read -ra alternatives <<<"$pattern"
	for alt in "${alternatives[@]}"; do
		checked=$((checked + 1))
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "$workflow: -run names '$alt', which matches no test in $packages" >&2
			missing=$((missing + 1))
		fi
	done
done < <(grep -vE '^[[:space:]]*#' "$workflow" | grep -E 'go test .* -run ')

echo "ci_run_names: $checked name(s) checked, $missing without a test"
[ "$missing" -eq 0 ]
