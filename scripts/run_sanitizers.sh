#!/usr/bin/env bash
# Drive the sanitizer presets end to end: configure, build, and test each
# requested preset. The tsan preset runs the `threaded`-, `serve`-,
# `relay`-, and `rollup`-labeled tests (the chaos storm battery carries both
# `chaos` and `threaded`, so every seeded storm scenario runs under
# ThreadSanitizer; the serving tier's reactor/writer-pool/slow-client tests
# ride along; the `relay` label pulls in the two-stack relay battery —
# client/server dedupe, the kill-point resume sweep, and the network_storm
# scenario — so the relay worker thread vs reactor vs ingest interleavings
# are all race-checked; and the `rollup` label pulls in the rollup tree's
# concurrent appender/ticker/reader property hammer against the
# epoch-buffered drain and lazily-materialized snapshots); asan runs the
# full suite under AddressSanitizer and UndefinedBehaviorSanitizer with
# every UB finding fatal — which includes the `codec`-labeled adversarial
# sweep (store_codec_property_test): the word-at-a-time Gorilla decoder
# against bit-flipped and truncated frames, where an out-of-bounds read or
# shift-UB would otherwise hide. CI re-asserts that label by name
# (`ctest -L codec`) in the instrumented tree.
#
# Usage:
#   scripts/run_sanitizers.sh              # tsan, then asan
#   scripts/run_sanitizers.sh tsan         # one preset
#   scripts/run_sanitizers.sh asan tsan    # any subset, in order
#
# Each preset builds into its own tree (build-<preset>), so runs are
# incremental and independent of the default build/. Exits nonzero on the
# first preset that fails to configure, build, or pass its tests.
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(tsan asan)
fi

jobs="$(nproc 2>/dev/null || echo 4)"

for preset in "${presets[@]}"; do
  case "$preset" in
    tsan|asan) ;;
    *)
      echo "error: unknown preset '$preset' (expected tsan or asan)" >&2
      exit 2
      ;;
  esac

  echo "==== [$preset] configure ===="
  cmake --preset "$preset"
  echo "==== [$preset] build ===="
  cmake --build --preset "$preset" -j "$jobs"
  echo "==== [$preset] test ===="
  ctest --preset "$preset" -j "$jobs"
  echo "==== [$preset] OK ===="
done

echo "All requested sanitizer presets passed: ${presets[*]}"
