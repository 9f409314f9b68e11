#!/usr/bin/env bash
# Runs every per-figure bench binary of the main build (bench/*.cpp) at one
# STENO_BENCH_SCALE and collects their BENCH_*.json files in OUT_DIR,
# beside host.json recording the machine they ran on.
#
#   cmake -B build -S . && cmake --build build -j
#   stenobench/run_all.sh build out/bench-0.1 0.1
#
# Exit status: 0 when every binary exited 0; otherwise 1, with the
# failing binaries listed on stderr.
set -u

if [ $# -lt 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR [SCALE]" >&2
  exit 2
fi
build=$(cd "$1" && pwd) || exit 2
mkdir -p "$2" && out=$(cd "$2" && pwd) || exit 2
scale=${3:-1}

failed=()
for bin in "$build"/bench/*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  name=$(basename "$bin")
  echo "== $name (scale $scale)" >&2
  if ! STENO_BENCH_SCALE=$scale STENO_BENCH_OUT=$out "$bin" \
      > "$out/$name.log" 2>&1; then
    failed+=("$name")
  fi
done

cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)
cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$build/CMakeCache.txt")
type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$build/CMakeCache.txt")
sha=$(git -C "$(dirname "$0")" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
cat > "$out/host.json" <<EOF
{"cores": $(nproc), "cpu": "$cpu", "compiler": "$("$cxx" --version | head -n 1)",
 "build_type": "$type", "git_sha": "$sha", "scale": $scale}
EOF

if [ ${#failed[@]} -ne 0 ]; then
  echo "failed: ${failed[*]}" >&2
  exit 1
fi
