#!/usr/bin/env bash
# ci_exports.sh — an exported function in internal/ needs a caller outside
# the tests, or a reason on the list below.
#
# A helper that only its own tests call is code the product carries for
# nothing. scripts/exports type-checks the non-test files of both modules
# (the root one and bench/) over the compiler's export data and lists
# every exported function and method declared in a non-test file under
# internal/, each used or unused. A reference counts as the type checker
# resolves it, so a method is matched by its receiver type, not its name:
# a call of codec.Name() is no use of Table.Name. A method that satisfies
# an interface those files can see counts as used.
#
# It fails when an unused function is not on the list, and when an entry
# is stale: its function is gone, or it now has a caller outside the
# tests.
#
# An interface declared under internal/ needs two implementations among
# the non-test types of both modules, or an entry on the second list: an
# interface with one implementation is a layer its callers could skip by
# calling that implementation. scripts/exports counts the named types
# that implement each, as T or *T. An entry is stale
# when its interface is gone or has found a second implementation.
#
#   scripts/ci_exports.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# One entry a line: <package>.[<Type>.]<Name>, one of the four reasons,
# and what the reason rests on.
#   interface   it implements an interface that only code outside both
#               modules calls it through;
#   wire        it is the client side of a wire operation the paper names;
#   experiment  a paper experiment's benchmark calls it;
#   tests       tests in another package call it, and a copy there would
#               be longer than the function (the tests are named).
allowed=$(
	cat <<'EOF'
core.Submission.KillJob              wire        the ES kill operation (paper §4.2)
filesystem.ListDirectory             wire        the FSS List operation (paper §4.1)
resourcedb.Table.QueryProperty       experiment  E3, BenchmarkE3_StateCodecs
wsrf.MustService                     tests       transport.TestColocatedCalleeSeesWhatASocketCarries, the wsn harnesses, wsrf.Example_programmingModel
wsn.Consumer.Channel                 tests       newESHarness, newSSHarnessCfg, node.TestJobPathNeverWaitsForNIS, daemon.TestShippedMasterRetriesNotificationDelivery
vfs.FS.Usage                         tests       filesystem.TestDestroyFreesDirectoryBytes
wsrf.ResourceClient.GetPropertyText  tests       the property reads of the execution, filesystem, scheduler, node, core and wsn tests (about 30 calls)
EOF
)

# One entry a line: <package>.<Interface>, the reason, and what it rests on.
#   fake        a test substitutes a fake for the implementation (named).
single=$(
	cat <<'EOF'
EOF
)

scan=$(go run ./scripts/exports)
declared=$(awk '$2 != "interface" {print $1}' <<<"$scan")
unused=$(awk '$2 == "unused" {print $1}' <<<"$scan")
listed=$(awk '{print $1}' <<<"$allowed")
interfaces=$(awk '$2 == "interface" {print $1}' <<<"$scan")
lonely=$(awk '$2 == "interface" && $3 < 2 {print $1}' <<<"$scan")
singles=$(awk '{print $1}' <<<"$single")
in_set() { grep -qxF -- "$1" <<<"$2"; }

failed=0
while IFS= read -r fn; do
	[ -n "$fn" ] || continue
	if ! in_set "$fn" "$listed"; then
		echo "ci_exports: $fn has no caller outside the tests: delete it, move it into the _test.go file that needs it, or list it with its reason" >&2
		failed=$((failed + 1))
	fi
done <<<"$unused"

while read -r fn reason _; do
	case $reason in
	interface | wire | experiment | tests) ;;
	*)
		echo "ci_exports: $fn: unknown reason '$reason'" >&2
		failed=$((failed + 1))
		;;
	esac
	if ! in_set "$fn" "$declared"; then
		echo "ci_exports: stale entry $fn: no such exported function in internal/" >&2
		failed=$((failed + 1))
	elif ! in_set "$fn" "$unused"; then
		echo "ci_exports: stale entry $fn: it now has a caller outside the tests" >&2
		failed=$((failed + 1))
	fi
done <<<"$allowed"

while IFS= read -r it; do
	[ -n "$it" ] || continue
	if ! in_set "$it" "$singles"; then
		echo "ci_exports: interface $it has fewer than two implementations: call the implementation directly, or list it with its reason" >&2
		failed=$((failed + 1))
	fi
done <<<"$lonely"

while read -r it reason _; do
	[ -n "$it" ] || continue
	if [ "$reason" != fake ]; then
		echo "ci_exports: $it: unknown reason '$reason'" >&2
		failed=$((failed + 1))
	fi
	if ! in_set "$it" "$interfaces"; then
		echo "ci_exports: stale entry $it: no such interface in internal/" >&2
		failed=$((failed + 1))
	elif ! in_set "$it" "$lonely"; then
		echo "ci_exports: stale entry $it: it now has two implementations" >&2
		failed=$((failed + 1))
	fi
done <<<"$single"

echo "ci_exports: $(grep -c . <<<"$declared") exported function(s), $(grep -c . <<<"$unused") without a product caller, $(grep -c . <<<"$listed") listed; $(grep -c . <<<"$interfaces") interface(s), $(grep -c . <<<"$lonely") with fewer than two implementations, $(grep -c . <<<"$singles") listed; $failed failure(s)"
[ "$failed" -eq 0 ]
