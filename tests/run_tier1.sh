#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full test suite.
#
#   tests/run_tier1.sh            # RelWithDebInfo build in build/
#   tests/run_tier1.sh --asan     # AddressSanitizer build in build-asan/
#   tests/run_tier1.sh --tsan     # ThreadSanitizer build in build-tsan/, full
#                                 # minilmp_tests; any race report fails
#   tests/run_tier1.sh --filter 'BitwiseResume.*'   # subset via gtest filter
#   tests/run_tier1.sh --stress   # ctest -j4 with every entry repeated
#                                 # until it fails, at most 10 times
#   tests/run_tier1.sh --profile  # observability smoke: traced melt run,
#                                 # trace JSON validated with validate_trace
#                                 # (tests/trace_smoke.sh)
#   tests/run_tier1.sh --overlap  # overlapped-Verlet smoke: traced melt with
#                                 # `overlap on` on a device-built list,
#                                 # per-instance tracks required
#   tests/run_tier1.sh --server   # batch-server smoke: 4 jobs multiplexed
#                                 # through the scheduler in lockstep
#                                 # rounds, then the Server* suite (isolation,
#                                 # restart-mid-batch, fairness)
#   tests/run_tier1.sh --telemetry # live-telemetry smoke: melt run with
#                                 # MLK_TELEMETRY streaming snapshots +
#                                 # NDJSON + counter tracks, then the
#                                 # telemetry suites (ring accounting,
#                                 # torn-read impossibility, hub lifecycle)
#   tests/run_tier1.sh --simd     # SIMD smoke: the Simd* and LJLanes
#                                 # suites (each lane kernel's native width
#                                 # against its W = 1) and the sanitized
#                                 # pack-layer build
#   tests/run_tier1.sh --balance  # decomposition smoke: droplet example with
#                                 # sort + balance rcb armed (imbalance
#                                 # breakdown + counter track), then the
#                                 # decomposition/migration property suites,
#                                 # the bitwise sort/balance sweep, and the
#                                 # balance restart round-trip
#
# Extra arguments after the flags are passed to cmake's configure step.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="$repo/build"
cmake_args=()
gtest_filter=""
profile_smoke=0
overlap_smoke=0
server_smoke=0
telemetry_smoke=0
simd_smoke=0
balance_smoke=0
tsan=0
stress=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --asan)
      build_dir="$repo/build-asan"
      cmake_args+=(-DMLK_SANITIZE=address)
      shift
      ;;
    --tsan)
      build_dir="$repo/build-tsan"
      cmake_args+=(-DMLK_SANITIZE=thread)
      # The first race report aborts the process with a non-zero exit.
      export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
      tsan=1
      shift
      ;;
    --filter)
      gtest_filter="$2"
      shift 2
      ;;
    --stress)
      stress=1
      shift
      ;;
    --profile)
      profile_smoke=1
      shift
      ;;
    --overlap)
      overlap_smoke=1
      shift
      ;;
    --server)
      server_smoke=1
      shift
      ;;
    --telemetry)
      telemetry_smoke=1
      shift
      ;;
    --simd)
      simd_smoke=1
      shift
      ;;
    --balance)
      balance_smoke=1
      shift
      ;;
    *)
      cmake_args+=("$1")
      shift
      ;;
  esac
done

cmake -B "$build_dir" -S "$repo" "${cmake_args[@]}"
cmake --build "$build_dir" -j "$(nproc)"

if [[ "$profile_smoke" == 1 ]]; then
  # Run the melt example with the env-var trace hook enabled, then check the
  # emitted chrome://tracing file contains kernel spans, Verlet section
  # regions that never nest, and at least one deep copy.
  bash "$repo/tests/trace_smoke.sh" \
    "$build_dir/examples/run_script" "$build_dir/tests/validate_trace" \
    "$repo/examples/in.melt"
  echo "profile smoke: OK"
elif [[ "$overlap_smoke" == 1 ]]; then
  # Run the melt example through the overlapped Verlet loop with tracing on,
  # then require the per-instance thread tracks (compute + comm
  # kk::DeviceInstance) to show up with spans in the trace.
  bash "$repo/tests/trace_smoke.sh" \
    "$build_dir/examples/run_script" "$build_dir/tests/validate_trace" \
    "$repo/examples/in.melt_overlap" --require-instance-tracks
  echo "overlap smoke: OK"
elif [[ "$server_smoke" == 1 ]]; then
  # Submit 4 jobs through the batch scheduler (server_demo verifies each
  # job's step count and energy-conserving thermo), then the full Server*
  # suite: bitwise per-job isolation (solo vs co-scheduled vs
  # restart-mid-batch), fairness, failure containment.
  "$build_dir/examples/server_demo"
  "$build_dir/tests/minilmp_tests" --gtest_filter='Server*'
  echo "server smoke: OK"
elif [[ "$telemetry_smoke" == 1 ]]; then
  # Live-telemetry smoke (tests/telemetry_smoke.sh): the melt example with
  # MLK_TELEMETRY streaming JSON snapshots + an NDJSON tail + in-situ
  # RDF/MSD, trace counter tracks validated, then the telemetry unit suites
  # (ring drop-oldest exactness, torn-read impossibility, hub lifecycle).
  bash "$repo/tests/telemetry_smoke.sh" \
    "$build_dir/examples/run_script" "$build_dir/tests/validate_trace" \
    "$repo/examples/in.melt"
  "$build_dir/tests/minilmp_tests" \
    --gtest_filter='TelemetryRing*:TelemetryHub*:CoordCapture*:Insitu*'
  echo "telemetry smoke: OK"
elif [[ "$simd_smoke" == 1 ]]; then
  # SIMD smoke (docs/VECTORIZATION.md): lane widths are fixed at compile
  # time, so the Simd* and LJLanes suites compare each lane kernel's native
  # width with its own W = 1 instantiation; then the sanitized standalone
  # build of the pack layer.
  "$build_dir/tests/minilmp_tests" --gtest_filter='Simd*:LJLanes.*'
  bash "$repo/tests/simd_sanitize.sh" "$repo"
  echo "simd smoke: OK"
elif [[ "$balance_smoke" == 1 ]]; then
  # Decomposition smoke (tests/balance_smoke.sh): the droplet example with
  # `sort every 5` + `balance rcb 1.2` armed — end-of-run imbalance
  # breakdown line and the balance.imbalance_ratio counter track — then the
  # randomized decomposition/migration property suites, the bitwise
  # sort x balance x ranks sweep, and the balance-state restart round-trip
  # (docs/DECOMPOSITION.md).
  bash "$repo/tests/balance_smoke.sh" \
    "$build_dir/examples/run_script" "$build_dir/tests/validate_trace" \
    "$repo/examples/in.droplet"
  "$build_dir/tests/minilmp_tests" --gtest_filter='RcbCuts*:UniformCuts*:DomainCuts*:Migrate*:AtomSort*:Balancer*:SortBalanceSweep*:RestartBalance*'
  echo "balance smoke: OK"
elif [[ -n "$gtest_filter" ]]; then
  "$build_dir/tests/minilmp_tests" --gtest_filter="$gtest_filter"
elif [[ "$tsan" == 1 ]]; then
  "$build_dir/tests/minilmp_tests"
  echo "tsan: OK"
elif [[ "$stress" == 1 ]]; then
  ctest --test-dir "$build_dir" -j4 --repeat until-fail:10 --output-on-failure
else
  ctest --test-dir "$build_dir" --output-on-failure
fi
