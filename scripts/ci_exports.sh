#!/usr/bin/env bash
# ci_exports.sh — an exported function in internal/ needs a caller outside
# the tests, or a reason on the list below.
#
# A helper that only its own tests call is code the product carries for
# nothing. This lists every exported function and method declared in a
# non-test .go file under internal/, and every identifier the non-test Go
# files of the repository use anywhere (internal/, cmd/, examples/ and
# bench/ alike), after whole-line comments and the declared name of each
# `func` line are cut away. A function whose name is not among those
# identifiers is flagged. Matching is by name alone, so a method that
# shares its name with a product call is a miss, never a false alarm.
#
# Only files git tracks are read, so build output and benchmark results
# never count. It fails when a flagged name is not on the list, and when
# an entry is stale: its function is gone, or its name now has a product
# caller.
#
#   scripts/ci_exports.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# One entry a line: <package>.[<Type>.]<Name>, one of the five reasons,
# and what the reason rests on.
#   interface   it implements an interface the standard library calls;
#   wire        it is the client side of a wire operation the paper names;
#   experiment  a paper experiment's benchmark calls it;
#   item1       ROADMAP item 1 rebuilds it on an index of termination
#               times, or deletes it;
#   tests       tests in another package call it, and a copy there would
#               be longer than the function (the tests are named).
allowed=$(
	cat <<'EOF'
transport.HTTPHandler.ServeHTTP      interface   net/http.Handler: net/http calls it on the HTTP binding's listener
core.Submission.KillJob              wire        the ES kill operation (paper §4.2)
filesystem.ListDirectory             wire        the FSS List operation (paper §4.1)
resourcedb.Table.QueryProperty       experiment  E3, BenchmarkE3_StateCodecs
wsrf.NewReaper                       item1       the lifetime sweep, rebuilt on an index of termination times
wsrf.Reaper.WithClock                item1       the lifetime sweep, rebuilt on an index of termination times
wsrf.MustService                     tests       transport.TestColocatedCalleeSeesWhatASocketCarries, the wsn harnesses, wsrf.Example_programmingModel
wsn.Consumer.Channel                 tests       newESHarness, newSSHarnessCfg, node.TestJobPathNeverWaitsForNIS, daemon.TestShippedMasterRetriesNotificationDelivery
vfs.FS.Usage                         tests       filesystem.TestDestroyFreesDirectoryBytes
EOF
)

mapfile -t product < <(git ls-files -- '*.go' | grep -v '_test\.go$')
used=$(cat "${product[@]}" |
	sed -E 's#^[[:space:]]*//.*##; s#^func (\([^)]*\) )?[A-Za-z_][A-Za-z0-9_]*##' |
	grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)

# <package>.[<Type>.]<Name> for every exported function in internal/.
declared=$(git ls-files -- 'internal/*.go' | grep -v '_test\.go$' | xargs grep -HE '^func (\([^)]*\) )?[A-Z]' |
	sed -E 's#^(.*/)?([^/]+)/[^/:]+\.go:func (\(([^)]*)\) )?([A-Za-z0-9_]+).*#\2|\4|\5#' |
	awk -F'|' '{
		t = $2; sub(/\[.*/, "", t); n = split(t, w, /[ *]+/); t = w[n]
		print (t == "" ? $1 "." $3 : $1 "." t "." $3)
	}' |
	sort -u)

listed=$(awk '{print $1}' <<<"$allowed")
in_set() { grep -qxF -- "$1" <<<"$2"; }

failed=0 flagged=0
while IFS= read -r fn; do
	in_set "${fn##*.}" "$used" && continue
	flagged=$((flagged + 1))
	if ! in_set "$fn" "$listed"; then
		echo "ci_exports: $fn has no caller outside the tests: delete it, move it into the _test.go file that needs it, or list it with its reason" >&2
		failed=$((failed + 1))
	fi
done <<<"$declared"

while read -r fn reason _; do
	case $reason in
	interface | wire | experiment | item1 | tests) ;;
	*)
		echo "ci_exports: $fn: unknown reason '$reason'" >&2
		failed=$((failed + 1))
		;;
	esac
	if ! in_set "$fn" "$declared"; then
		echo "ci_exports: stale entry $fn: no such exported function in internal/" >&2
		failed=$((failed + 1))
	elif in_set "${fn##*.}" "$used"; then
		echo "ci_exports: stale entry $fn: ${fn##*.} now has a caller outside the tests" >&2
		failed=$((failed + 1))
	fi
done <<<"$allowed"

echo "ci_exports: $(wc -l <<<"$declared") exported function(s), $flagged without a product caller, $(wc -l <<<"$allowed") listed, $failed failure(s)"
[ "$failed" -eq 0 ]
