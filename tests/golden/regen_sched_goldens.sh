#!/usr/bin/env bash
# Regenerates tests/golden/sched/*.txt from the legacy scheduler engine.
#
# The legacy engine (ClusterConfig::use_legacy_scheduler) no longer exists in
# the product, so this exports the last commit that still had it, adds the
# scenario library and the sched_goldens dumper from this tree, builds them
# with ECO_GOLDEN_LEGACY (which selects the legacy engine), and writes the
# schedules here.
#
#   tests/golden/regen_sched_goldens.sh [COMMIT] [WORKDIR]
#
# COMMIT defaults to 6b5e40b, the last commit with both engines. WORKDIR
# (default: a fresh temporary directory) receives the exported tree and its
# build; pass an existing one to reuse its build.
set -euo pipefail

commit="${1:-6b5e40bd6501469644bafdc50c06ab33b695873a}"
here="$(cd "$(dirname "$0")" && pwd)"
repo="$(git -C "$here" rev-parse --show-toplevel)"
work="${2:-$(mktemp -d)}"

if [[ ! -f "$work/CMakeLists.txt" ]]; then
  mkdir -p "$work"
  git -C "$repo" archive "$commit" | tar -x -C "$work"
fi
cp "$repo/tests/sched_scenarios.hpp" "$repo/tests/sched_scenarios.cpp" \
   "$repo/tests/sched_goldens_main.cpp" "$work/tests/"
if ! grep -q sched_goldens "$work/tests/CMakeLists.txt"; then
  cat >> "$work/tests/CMakeLists.txt" <<'CMAKE'
add_executable(sched_goldens sched_goldens_main.cpp sched_scenarios.cpp)
target_compile_definitions(sched_goldens PRIVATE ECO_GOLDEN_LEGACY)
target_link_libraries(sched_goldens PRIVATE
  eco_chronus eco_plugin eco_slurm eco_ml eco_hpcg eco_ipmi eco_sysinfo
  eco_hw eco_common)
CMAKE
fi
cmake -B "$work/build" -S "$work" >/dev/null
cmake --build "$work/build" -j "$(nproc)" --target sched_goldens
mkdir -p "$here/sched"
"$work/build/tests/sched_goldens" "$here/sched"
