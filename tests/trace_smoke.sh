#!/usr/bin/env bash
# Trace smoke (ctest `trace_smoke` and `trace_overlap_smoke`, run_tier1.sh
# --profile and --overlap): run an example script with the MLK_TRACE hook
# and check the chrome://tracing file with validate_trace — kernel spans,
# Verlet section regions that never nest on one thread, and at least one
# deep copy. Extra arguments go to validate_trace; the overlap smoke passes
# --require-instance-tracks to demand the compute and comm
# kk::DeviceInstance tracks with spans on them.
#
# Usage: trace_smoke.sh <run_script> <validate_trace> <input> [flags...]
set -euo pipefail

run_script="$1"
validate_trace="$2"
input="$3"
shift 3

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
trace="$scratch/$(basename "$input").trace.json"

(cd "$scratch" && MLK_TRACE="$trace" "$run_script" "$input")
"$validate_trace" "$@" "$trace"
echo "trace smoke: OK ($(basename "$input"))"
