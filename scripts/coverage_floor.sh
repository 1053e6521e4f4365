#!/usr/bin/env bash
# Coverage floor for the testbed core: run the internal/services/...
# (scheduler, filesystem — manifest codec, blob layer and replicator
# included — nodeinfo, execution), internal/simgrid and
# internal/admission test suites with -coverprofile and fail when total
# statement coverage drops below the floor. The floor
# trails the current level (~85%) by a margin so routine refactors don't
# flap, but a PR that lands a chunk of untested service, simulator or
# admission code fails loudly.
#
#   scripts/coverage_floor.sh [floor-percent]
set -euo pipefail

FLOOR="${1:-80.0}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
PROFILE="$(mktemp)"
trap 'rm -f "$PROFILE"' EXIT

cd "$ROOT"
go test -coverprofile="$PROFILE" ./internal/services/... ./internal/simgrid ./internal/admission

TOTAL="$(go tool cover -func="$PROFILE" | awk '/^total:/ {gsub(/%/, "", $3); print $3}')"
echo "services+simgrid+admission statement coverage: ${TOTAL}% (floor ${FLOOR}%)"
awk -v got="$TOTAL" -v floor="$FLOOR" 'BEGIN { exit (got+0 < floor+0) ? 1 : 0 }' || {
  echo "coverage ${TOTAL}% is below the ${FLOOR}% floor" >&2
  exit 1
}
