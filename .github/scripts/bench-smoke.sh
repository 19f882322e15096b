#!/usr/bin/env bash
# bench-smoke.sh [ROUNDS]
#
# The benchmark run behind the benchgate job, and the one protocol the
# BENCH_*.json baselines are recorded by: every benchmark the job gates, each
# at a fixed iteration count large enough that one sample lasts tens of
# milliseconds or more. Three iterations of a 100 µs operation time its
# warm-up, not the operation; `go test` reports the mean over the
# iterations, and benchgate keeps the minimum over the samples. The whole
# list runs ROUNDS times (default 3, the gate's; a recording passes 10) with
# one sample a round, so the samples of one benchmark are spread over the
# run and a burst of noise on a shared host costs each benchmark one
# sample, not all of them, as -count=N back to back would.
#
#   gate:    .github/scripts/bench-smoke.sh | tee bench.txt
#            go run ./cmd/benchgate -in bench.txt BENCH_analysis.json BENCH_interp.json BENCH_enum.json BENCH_serve.json
#   record:  .github/scripts/bench-smoke.sh 10 > bench.txt
#            go run ./cmd/benchgate -update -in bench.txt BENCH_analysis.json BENCH_interp.json BENCH_enum.json BENCH_serve.json
#
# Record on the host that will gate: absolute ns/op does not carry from one
# machine to another, allocs/op does.
set -euo pipefail

rounds=${1:-3}

bench() { # PKG REGEXP ITERATIONS [FLAGS...]
  go test -run='^$' -bench="$2" -benchtime="$3x" "${@:4}" "$1"
}

for ((round = 0; round < rounds; round++)); do
  # One worker: allocs/op counts per-worker scratch, so it depends on how
  # many parallelFor workers claim a group unless there is one.
  bench ./internal/delay/    'AnalysisDelayCompute' 50 -cpu 1
  bench ./internal/syncanal/ 'AnalysisScaling' 20
  bench ./internal/interp/   'InterpEM3D|InterpOcean|VMEM3D|VMOcean|WalkEM3D|WalkOcean' 200
  bench ./internal/interp/   'VMBigProc|VMCholesky' 10
  bench ./internal/interp/   'EnumerateSC$/' 1000
  bench ./internal/scverify/ 'Verify/' 10
  bench ./internal/vm/       'VMResume' 500
  bench .                    'PassPipeline' 200
  bench .                    'Generate/' 500
  bench ./internal/serve/    'ServeHitHandler' 1000
done
