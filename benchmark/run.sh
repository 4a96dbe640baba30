#!/usr/bin/env bash
# End-to-end benchmark: builds build-bench/, runs the selftest once per
# build, then every requested workload (see benchmark/README.md).
#
#   benchmark/run.sh [--workload W]... [--seed N] [--reps R | --seconds S]
#                    [--trace [0|1]] [--smoke]
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"
cd "$root"
mkdir -p "$build"
log="$build/build.log"
# Two pool threads for any code on ThreadPool::Global(); the stock node
# performance model (no measured-kernel calibration from the environment).
export ECO_THREADS=2
unset ECO_PERF_CALIBRATION

jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
  if ! cmake -S benchmark -B "$build" "${generator[@]}" >"$log" 2>&1; then
    tail -n 20 "$log" >&2
    rm -f "$build/CMakeCache.txt"
    echo "run.sh: configure failed (full log: $log)" >&2
    exit 1
  fi
fi
if ! cmake --build "$build" -j "$jobs" --target eco_benchmark selftest \
    >>"$log" 2>&1; then
  tail -n 20 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 1
fi

stamp="$build/selftest.ok"
if [[ ! "$stamp" -nt "$build/eco_benchmark" || ! "$stamp" -nt "$build/selftest" ]]; then
  scratch="$(mktemp -d "$build/selftest.XXXXXX")"
  trap 'rm -rf "$scratch"' EXIT
  if ! python3 benchmark/stats.py >&2 ||
     ! "$build/selftest" --workdir "$scratch" >&2; then
    echo "run.sh: selftest failed" >&2
    exit 1
  fi
  rm -rf "$scratch"
  touch "$stamp"
fi

exec python3 benchmark/harness.py --build "$build" "$@"
