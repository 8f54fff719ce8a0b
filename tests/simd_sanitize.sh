#!/usr/bin/env bash
# Sanitized build of the kk::simd pack layer (ctest `simd_sanitize`,
# run_tier1.sh --simd): compile tests/simd_sanitize_main.cpp standalone with
# address+undefined sanitizers — the same flag set CMake's MLK_SANITIZE
# option would inject — and run it. The pack layer is header-only, so this
# covers every gather, load/store, remainder chunk, select and where() blend
# without rebuilding the whole tree under sanitizers.
#
# Usage: simd_sanitize.sh <src_dir> [compiler]
set -euo pipefail

src_dir="$1"
cxx="${2:-${CXX:-c++}}"

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
bin="$scratch/simd_sanitize"

"$cxx" -std=c++20 -O1 -g -Wall -Wextra -Werror \
  -fsanitize=address,undefined -fno-omit-frame-pointer \
  -I "$src_dir/src" \
  "$src_dir/tests/simd_sanitize_main.cpp" -o "$bin"

# halt_on_error: make any UBSan finding fail the test, not just print.
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=0 "$bin"
echo "simd_sanitize: pack layer clean under address+undefined"
