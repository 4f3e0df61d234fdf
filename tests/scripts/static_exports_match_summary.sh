#!/bin/sh
# The exports of a static design (sas, charm) must describe the run
# the summary reports: the profiled one. For each design, dasdram_run
# writes the result JSONL and the stats JSONL of one point, and the
# core-0 cycle count in the stats must equal the result's cpu_cycles.
#
# Usage: static_exports_match_summary.sh <path-to-dasdram_run>
set -eu

RUN=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail=0
for design in sas charm; do
    "$RUN" --workload mcf --design "$design" --instructions 100000 \
        --json "$WORK/$design.json" \
        --stats-out "$WORK/$design.stats.jsonl" > /dev/null
    summary=$(sed -n 's/.*"cpu_cycles":\([0-9]*\).*/\1/p' \
        "$WORK/$design.json")
    exported=$(sed -n \
        's/.*"name":"system\.core0\.cycles","value":\([0-9]*\).*/\1/p' \
        "$WORK/$design.stats.jsonl")
    if [ -n "$summary" ] && [ "$summary" = "$exported" ]; then
        echo "ok   $design cpu_cycles $summary"
    else
        echo "FAIL $design cpu_cycles '$summary' vs stats '$exported'"
        fail=1
    fi
done
exit $fail
