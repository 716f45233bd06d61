#!/usr/bin/env bash
# moqo_bench's one command: configures build-bench/ (Release, the root's
# tests/examples/benches off), builds moqo_bench, and runs workloads.
#
#   bench/e2e/run.sh                     every workload, untraced
#   bench/e2e/run.sh --trace             every workload, traced (per-layer)
#   bench/e2e/run.sh --repeat K          every workload K times, alternating
#                                        the order; prints the spread report
#   bench/e2e/run.sh --smoke             tiny runs of every workload, traced
#                                        (all code paths), gate on
#   bench/e2e/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                                        one run; its last stdout line is
#                                        the JSON result
#
# --seed (default 1) and --seconds (default 20) apply to every mode but
# --smoke. Results and trace files go to build-bench/results/. Exits
# non-zero when a build fails or any run reports a frontier mismatch.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"
cd "$root"

workload=""
seed=1
seconds=20
trace=0
repeat=0
smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --repeat) repeat="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

mkdir -p "$build"
if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  if ! cmake -S "$here" -B "$build" "${generator[@]}" \
      >"$build/configure.log" 2>&1; then
    cat "$build/configure.log" >&2
    exit 1
  fi
fi
if ! cmake --build "$build" --target moqo_bench -j "$(nproc)" \
    >"$build/build.log" 2>&1; then
  tail -n 50 "$build/build.log" >&2
  exit 1
fi

commit=none
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
  if [ "$commit" != none ] &&
      [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
    commit="$commit+dirty"
  fi
fi

bin="$build/moqo_bench"
out="$build/results"
common=(--seed "$seed" --out "$out" --commit "$commit")

if [ -n "$workload" ]; then
  exec "$bin" --workload "$workload" --seconds "$seconds" --trace "$trace" \
    "${common[@]}"
fi

workloads=(cold10 repeat5_fit repeat5_spill hol_mix)
status=0
if [ "$smoke" = 1 ]; then
  for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --smoke --trace 1 "${common[@]}" || status=1
  done
elif [ "$repeat" -gt 0 ]; then
  lines="$build/repeat"
  rm -rf "$lines"
  mkdir -p "$lines"
  for k in $(seq 1 "$repeat"); do
    order=("${workloads[@]}")
    if [ $((k % 2)) = 0 ]; then
      order=()
      for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do
        order+=("${workloads[$i]}")
      done
    fi
    for w in "${order[@]}"; do
      echo "== $w run $k/$repeat" >&2
      "$bin" --workload "$w" --seconds "$seconds" --trace "$trace" \
        "${common[@]}" >"$lines/$w.$k.log" || status=1
      tail -n 1 "$lines/$w.$k.log" >"$lines/$w.$k.json"
    done
  done
  python3 "$here/spread.py" "$lines" "$root/BENCHMARK.json"
else
  for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --seconds "$seconds" --trace "$trace" \
      "${common[@]}" || status=1
  done
fi
exit "$status"
