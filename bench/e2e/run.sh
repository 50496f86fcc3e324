#!/usr/bin/env bash
# The end-to-end benchmark of cegraph_serve. See bench/e2e/README.md.
#
#   bench/e2e/run.sh [--workload NAME] [--seed S] [--traced]
#                    [--repeat N [--sets K]] [--baseline FILE]
#
# Builds the daemon, the stats tool and the load generator out of
# bench/e2e into .bench_build/e2e (build output goes to stderr), then runs
# the named workload, or all four in turn. Each run prints its metrics by
# name with their units and ends with one JSON line. The exit status is
# non-zero when any check failed.
#
# Every run measures for the run_seconds of BENCHMARK.json. Tools that
# drive benchmarks through BENCHMARK.json call this script with
# `--seconds <run_seconds> --trace <0|1>`; those two flags exist for
# them, and --traced is --trace 1.
#
# --repeat N runs every selected workload N times with seeds S..S+N-1,
# alternating the workload order, and prints each metric's median,
# quartiles and spread next to its bound in BENCHMARK.json. --sets K
# splits the runs into K consecutive sets and compares their medians
# against the bounds. --baseline FILE also makes one traced run per
# workload and writes the summary, per-layer values included, to FILE.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"

workloads=()
seed=1
seconds="$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
trace=0
repeat=0
sets=1
baseline=""
while (($#)); do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    --repeat) repeat="$2"; shift 2 ;;
    --sets) sets="$2"; shift 2 ;;
    --baseline) baseline="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if ((${#workloads[@]} == 0)); then
  workloads=(warm-default batch-feedback cold-classes churn)
fi

{
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" -j "$(nproc)" \
    --target cegraph_serve cegraph_stats e2e_bench
} >&2

one_run() {  # workload seed trace
  "$build/bin/e2e_bench" --bin-dir "$build/bin" --work-dir "$build/work" \
    --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3"
}

if ((repeat == 0)) && [[ -z "$baseline" ]]; then
  status=0
  for w in "${workloads[@]}"; do
    one_run "$w" "$seed" "$trace" || status=1
  done
  exit "$status"
fi

# Repeated runs: one JSON record per run, summarised by summarize.py.
results="$build/results.jsonl"
: > "$results"
status=0
record() {  # workload seed trace
  local out last
  out="$(one_run "$1" "$2" "$3")" || status=1
  printf '%s\n' "$out" >&2
  last="$(tail -n 1 <<<"$out")"
  if [[ "$last" != "{"* ]]; then
    echo "run.sh: $1 seed $2 printed no result" >&2
    status=1
    return
  fi
  printf '{"workload": "%s", "seed": %s, "trace": %s, "result": %s}\n' \
    "$1" "$2" "$3" "$last" >> "$results"
}
for ((r = 0; r < repeat; r++)); do
  order=("${workloads[@]}")
  if ((r % 2 == 1)); then
    order=()
    for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do
      order+=("${workloads[i]}")
    done
  fi
  for w in "${order[@]}"; do record "$w" $((seed + r)) "$trace"; done
done
summary=(python3 "$here/summarize.py" --benchmark "$root/BENCHMARK.json"
         --sets "$sets" --results "$results")
if [[ -n "$baseline" ]]; then
  for w in "${workloads[@]}"; do record "$w" "$seed" 1; done
  sha="$(git -C "$root" describe --always --dirty 2>/dev/null ||
         echo unknown)"
  summary+=(--baseline "$baseline" --seconds "$seconds" --git-sha "$sha"
            --nproc "$(nproc)")
fi
"${summary[@]}" || status=1
exit "$status"
