#!/usr/bin/env bash
# The end-to-end benchmark's one command: build, then run workloads, each in
# a fresh process.
#
#   bash bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       One run. Prints "workload metric value unit" lines and, last, one
#       JSON result line: the end-to-end metrics, or with --trace 1 the
#       per-layer metrics of the traced run (its Chrome trace goes to
#       .bench_out/trace-NAME-N.json).
#   bash bench/e2e/run.sh [--seed N] [--seconds S] [--trace 0|1] [--json FILE] [--smoke]
#       Ten rounds of all four workloads (one round with --smoke), in
#       alternating order, round r with seed N + r. Writes the runs, their
#       summary, the host's core count, the OCaml version and the commit to
#       FILE (default .bench_out/runs.json); bench/e2e/diff.exe compares
#       two such files.
#
# --seconds sets how long the timed part of each run lasts; the default is
# BENCHMARK.json's run_seconds, which is what the benchmark is calibrated at.
# --smoke is the tiny scale: 0.2 s and one set-up. Run from anywhere; builds
# into .bench_build/ and writes only .bench_build/ and .bench_out/.
set -euo pipefail
cd "$(dirname "$0")/../.."

workload="" seed=1 seconds=10 trace=0 json=.bench_out/runs.json smoke=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --json) json=$2; shift 2 ;;
    --smoke) smoke=--smoke; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $(pwd) is not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
build=.bench_build
dune build --root . --build-dir "$build" --cache=disabled \
  ./bench/e2e/main.exe ./bench/e2e/diff.exe 1>&2
main=$build/default/bench/e2e/main.exe
mkdir -p .bench_out

run_one() { # workload seed
  local args=(--workload "$1" --seed "$2" --seconds "$seconds")
  if [ -n "$smoke" ]; then args+=("$smoke"); fi
  if [ "$trace" = 1 ]; then args+=(--trace ".bench_out/trace-$1-$2.json"); fi
  "$main" "${args[@]}"
}

if [ -n "$workload" ]; then
  run_one "$workload" "$seed"
  exit 0
fi

rounds=10
if [ -n "$smoke" ]; then rounds=1; fi
runs=()
for ((r = 0; r < rounds; r++)); do
  order=(p2p-low p2p-hot coin-mm big-poisson)
  if ((r % 2)); then order=(big-poisson coin-mm p2p-hot p2p-low); fi
  for w in "${order[@]}"; do
    s=$((seed + r))
    line=$(run_one "$w" "$s" | tail -n 1)
    echo "run.sh: $w seed $s: $line" >&2
    runs+=("{\"workload\":\"$w\",\"seed\":$s,\"result\":$line}")
  done
done

body=$(IFS=,; echo "${runs[*]}")
printf '{"runs":[%s]}\n' "$body" >"$json.tmp"
summary=$("$build/default/bench/e2e/diff.exe" --json "$json.tmp")
rm -f "$json.tmp"
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
printf '{"clock":"wall","host":{"cores":%d},"ocaml":"%s","domains":2,"commit":"%s","seconds":%s,"first_seed":%d,"rounds":%d,"trace":%d,"runs":[%s],"summary":%s}\n' \
  "$(nproc)" "$(ocamlfind ocamlopt -version)" "$commit" "$seconds" "$seed" "$rounds" \
  "$trace" "$body" "$summary" >"$json"
echo "run.sh: wrote $json" >&2
