#!/usr/bin/env bash
# Crash-recovery smoke test, two phases over one one-node grid.
#
# 1. The master dies: start the grid with a durable master data
#    directory, submit a two-stage job set, SIGKILL the master while the
#    first job is mid-compute, restart it against the same -data-dir, and
#    require the job set to resume (scheduler.Recover over the replayed
#    store) and complete, outputs fetched — and the job-set resource a
#    client reads afterwards (wsrfget, JobState) to be the whole set:
#    both jobs Completed, each with its directory.
# 2. The client dies: submit the job set again with gridsub -data-dir,
#    SIGKILL gridsub while gen computes, rerun the same command, and
#    require it to resume the journaled submission, sum — whose
#    executable is local://sum.app, dispatched after the restart — to
#    stage from the re-bound file server and complete, and total.txt to
#    be fetched.
#
#   scripts/crash_smoke.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
BIN="$WORK/bin"
DATA="$WORK/master-data"
MASTER_ADDR=:8760
NODE_ADDR=:8761
MASTER_URL=http://localhost:8760

cleanup() {
  # shellcheck disable=SC2046
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

cd "$ROOT"
go build -o "$BIN/" ./cmd/gridmaster ./cmd/gridnode ./cmd/gridsub ./cmd/wsrfget

mkdir -p "$WORK/jobset"
cat >"$WORK/jobset/gen.app" <<'EOF'
#uvacg-job
compute 200000
write data.txt 10 20 30 40
exit 0
EOF
cat >"$WORK/jobset/sum.app" <<'EOF'
#uvacg-job
read data.txt
compute 20000
transform data.txt total.txt sum
exit 0
EOF
cat >"$WORK/jobset/crash.jobset" <<'EOF'
jobset crashsmoke
file gen.app gen.app
file sum.app sum.app

job gen
  exec local://gen.app
  output data.txt

job sum
  exec local://sum.app
  input data.txt gen://data.txt
  output total.txt

fetch sum total.txt
EOF

echo "== starting gridmaster (durable data dir: $DATA)"
"$BIN/gridmaster" -addr "$MASTER_ADDR" -data-dir "$DATA" &
MASTER_PID=$!
sleep 1

echo "== starting gridnode"
"$BIN/gridnode" -name node-a -addr "$NODE_ADDR" -master "$MASTER_URL" &
sleep 1

echo "== submitting job set"
"$BIN/gridsub" -master "$MASTER_URL" -jobset "$WORK/jobset/crash.jobset" \
  -out "$WORK" -timeout 120s 2>"$WORK/submit.log" &
SUB_PID=$!

# gen computes ~5s on the node; kill the master squarely mid-job.
sleep 2.5
echo "== SIGKILL gridmaster ($MASTER_PID) mid-job-set"
kill -9 "$MASTER_PID"
sleep 1

echo "== restarting gridmaster with the same -data-dir"
"$BIN/gridmaster" -addr "$MASTER_ADDR" -data-dir "$DATA" &

if ! wait "$SUB_PID"; then
  cat "$WORK/submit.log" >&2
  echo "FAIL: gridsub did not complete after master restart" >&2
  exit 1
fi
cat "$WORK/submit.log" >&2
if [ ! -s "$WORK/sum.total.txt" ]; then
  echo "FAIL: fetched output sum.total.txt missing or empty" >&2
  exit 1
fi
# What a client reads now was journaled partly before the kill and partly
# after the replay, a job at a time: it must still be the one document.
SET_EPR="$(sed -n 's/.*submitted "crashsmoke" as \(.*\) (topic .*/\1/p' "$WORK/submit.log")"
STATES="$("$BIN/wsrfget" -epr "$SET_EPR" -prop '{urn:uvacg:ss}JobState')"
for job in gen sum; do
  if ! grep "name=\"$job\"" <<<"$STATES" | grep 'status="Completed"' | grep -q 'dir="'; then
    echo "$STATES" >&2
    echo "FAIL: the job-set resource does not show $job Completed with a directory" >&2
    exit 1
  fi
done
echo "OK: job set resumed after SIGKILL; total = $(cat "$WORK/sum.total.txt"); JobState lists gen and sum Completed"

echo "== phase 2: submitting again with a journaled gridsub"
mkdir -p "$WORK/out2"
RESUB=("$BIN/gridsub" -master "$MASTER_URL" -jobset "$WORK/jobset/crash.jobset"
  -data-dir "$WORK/gridsub-data" -out "$WORK/out2" -timeout 120s)
"${RESUB[@]}" &
SUB_PID=$!
sleep 2.5
echo "== SIGKILL gridsub ($SUB_PID) while gen computes"
kill -9 "$SUB_PID"
wait "$SUB_PID" 2>/dev/null || true

echo "== rerunning the same gridsub command"
if ! "${RESUB[@]}" 2>"$WORK/resume.log"; then
  cat "$WORK/resume.log" >&2
  echo "FAIL: rerun gridsub did not complete the job set" >&2
  exit 1
fi
cat "$WORK/resume.log" >&2
if ! grep -q 'resuming job set "crashsmoke"' "$WORK/resume.log"; then
  echo "FAIL: rerun gridsub resubmitted instead of resuming" >&2
  exit 1
fi
if [ ! -s "$WORK/out2/sum.total.txt" ]; then
  echo "FAIL: fetched output out2/sum.total.txt missing or empty" >&2
  exit 1
fi
echo "OK: gridsub resumed after SIGKILL; total = $(cat "$WORK/out2/sum.total.txt")"
