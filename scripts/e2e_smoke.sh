#!/usr/bin/env bash
# End-to-end benchmark smoke run: the harness's arithmetic self-test, then one
# short correctness run of every e2ebench workload.
#
#   scripts/e2e_smoke.sh [results.jsonl]     # run from the repository root
#
# Fails on any non-zero exit, or on a result line without "correct": true.
# That includes exit 3 (RUN INVALID: the harness's generator fell behind its
# send schedule, so the run reports no numbers), which fleet_live, whose
# generator also runs the rollup tick and every compaction pass, must not
# hit. Every result line is appended to the results file (default
# e2e_smoke.jsonl).
set -u

out="${1:-e2e_smoke.jsonl}"
: > "$out"

if ! python3 e2ebench/run.py --self-test; then
  echo "::error::e2ebench self-test failed"
  exit 1
fi

status=0
for workload in ingest_burst fleet_live relay_federation; do
  log="$(mktemp)"
  python3 e2ebench/run.py --workload "$workload" --seed 1 --seconds 6 \
    --trace 0 | tee "$log"
  rc=${PIPESTATUS[0]}
  result="$(tail -n 1 "$log")"
  rm -f "$log"
  if [ "$rc" -eq 3 ]; then
    echo "::error::e2ebench $workload: RUN INVALID (generator fell behind)"
    status=1
    continue
  fi
  if [ "$rc" -ne 0 ]; then
    echo "::error::e2ebench $workload exited $rc"
    status=1
    continue
  fi
  printf '%s\n' "$result" >> "$out"
  if ! printf '%s\n' "$result" | grep -q '"correct": true'; then
    echo "::error::e2ebench $workload: result is not \"correct\": true"
    status=1
  fi
done
exit "$status"
