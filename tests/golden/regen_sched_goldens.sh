#!/usr/bin/env bash
# Regenerates the golden files under tests/golden/ from a named commit.
#
# Scheduler goldens (tests/golden/sched/*.txt) come from the legacy
# scheduler engine. ClusterConfig::use_legacy_scheduler no longer exists in
# the product, so this exports the last commit that still had it, adds the
# scenario library and the sched_goldens dumper from this tree, builds them
# with ECO_GOLDEN_LEGACY (which selects the legacy engine), and writes the
# schedules here:
#
#   tests/golden/regen_sched_goldens.sh [COMMIT] [WORKDIR]
#
# COMMIT defaults to 6b5e40b, the last commit with both engines.
#
# Event goldens (tests/golden/event/*) pin when periodic work fires: the
# time-series sampler, the ingress drain, node ticks and the IPMI sampler.
# They come from the last commit whose event loop hand-rolled each of those
# re-arms. This exports that commit, adds event_goldens.{hpp,cpp} and the
# event_goldens dumper from this tree, builds them as is (no define), and
# writes the files here:
#
#   tests/golden/regen_sched_goldens.sh --event [COMMIT] [WORKDIR]
#
# COMMIT defaults to af8f06f. The committed event goldens are exactly what
# this command writes; `git diff tests/golden/event` after running it shows
# nothing.
#
# WORKDIR (default: a fresh temporary directory) receives the exported tree
# and its build; pass an existing one to reuse its build.
set -euo pipefail

mode=sched
if [[ "${1:-}" == "--event" ]]; then
  mode=event
  shift
fi
if [[ "$mode" == sched ]]; then
  default_commit=6b5e40bd6501469644bafdc50c06ab33b695873a
else
  default_commit=af8f06f7ee4d1e8dee7a9d90ce2ba701c26c6d2b
fi
commit="${1:-$default_commit}"
here="$(cd "$(dirname "$0")" && pwd)"
repo="$(git -C "$here" rev-parse --show-toplevel)"
work="${2:-$(mktemp -d)}"

if [[ ! -f "$work/CMakeLists.txt" ]]; then
  mkdir -p "$work"
  git -C "$repo" archive "$commit" | tar -x -C "$work"
fi

if [[ "$mode" == sched ]]; then
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
else
  cp "$repo/tests/event_goldens.hpp" "$repo/tests/event_goldens.cpp" \
     "$repo/tests/event_goldens_main.cpp" "$work/tests/"
  if ! grep -q event_goldens "$work/tests/CMakeLists.txt"; then
    cat >> "$work/tests/CMakeLists.txt" <<'CMAKE'
add_executable(event_goldens event_goldens_main.cpp event_goldens.cpp)
target_link_libraries(event_goldens PRIVATE eco_sched_ref)
CMAKE
  fi
fi

cmake -B "$work/build" -S "$work" >/dev/null
cmake --build "$work/build" -j "$(nproc)" --target "${mode}_goldens"
mkdir -p "$here/$mode"
"$work/build/tests/${mode}_goldens" "$here/$mode"
