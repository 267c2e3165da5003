#!/usr/bin/env bash
# Smoke-runs EVERY bench binary with a tiny workload so benchmark bit-rot
# (a bench that no longer builds, crashes on startup, or trips an assert)
# fails CI instead of festering. Timing numbers from these runs are
# meaningless by design; the perf-gate job produces the real ones.
#
# Usage: tools/bench_smoke.sh [BENCH_DIR]   (default: build/bench)
set -u

BENCH_DIR="${1:-build/bench}"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

if ! ls "$BENCH_DIR"/bench_* >/dev/null 2>&1; then
  echo "bench_smoke: no bench binaries in $BENCH_DIR" >&2
  exit 1
fi

failures=0
total=0
for bin in "$BENCH_DIR"/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  case "$name" in
    bench_micro_*)
      # google-benchmark targets: registered benchmarks at minimal
      # min_time. Suffixed form ("0.01s") for benchmark >= 1.8, bare
      # double for older releases.
      if "$bin" --benchmark_list_tests --benchmark_min_time=0.01s \
          >/dev/null 2>&1; then
        args=(--benchmark_min_time=0.01s)
      else
        args=(--benchmark_min_time=0.01)
      fi
      ;;
    bench_pr2_parallel_ranking)
      args=(--threads 2 --entities 300 --max_candidates 400 --dim 8
            --epochs 1 --out "$SCRATCH/pr2.json")
      ;;
    bench_pr6_batch_scoring)
      args=(--entities 500 --relations 7 --dim 16 --queries 8 --repeats 1
            --out "$SCRATCH/pr6.json")
      ;;
    bench_pr8_storage)
      args=(--entities 2000 --relations 7 --dim 16 --queries 8 --repeats 1
            --out "$SCRATCH/pr8.json")
      ;;
    bench_pr9_adaptive)
      # Exits nonzero on its own if the adaptive sweep stops being
      # bit-identical across thread counts, so smoke scale still checks
      # the determinism contract.
      args=(--entities 400 --relations 4 --dim 8 --epochs 1 --top_n 50
            --max_candidates 120 --adaptive_rounds 8 --repeats 1
            --out "$SCRATCH/pr9.json")
      ;;
    bench_rank)
      # Exits nonzero on its own if a batched rank differs from the
      # counting loop's, so one trial still checks exactness.
      args=(--trials 1 --out "$SCRATCH/rank.json")
      ;;
    *)
      # Paper-figure/table harnesses share the bench_common flag set.
      # --scale DIVIDES the paper's dataset sizes, so bigger is smaller.
      args=(--scale 200 --dim 8 --epochs 1 --top_n 20 --max_candidates 30)
      ;;
  esac
  total=$((total + 1))
  printf '== %s %s\n' "$name" "${args[*]}"
  status=0
  "$bin" "${args[@]}" >"$SCRATCH/$name.log" 2>&1 || status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAILED: $name (exit $status)" >&2
    tail -n 30 "$SCRATCH/$name.log" >&2
    failures=$((failures + 1))
    continue
  fi
  # A bench that "succeeds" while producing nothing is a silent gap in
  # coverage, not a pass: demand non-empty stdout, and for benches with a
  # JSON record, a parseable non-empty object (the perf gate reads these —
  # an empty file here would vacuously pass downstream checks).
  if [ ! -s "$SCRATCH/$name.log" ]; then
    echo "FAILED: $name (exit 0 but produced no output)" >&2
    failures=$((failures + 1))
    continue
  fi
  for json in "$SCRATCH"/pr2.json "$SCRATCH"/pr6.json "$SCRATCH"/pr8.json \
              "$SCRATCH"/pr9.json "$SCRATCH"/rank.json; do
    case "${args[*]}" in *"$json"*) ;; *) continue ;; esac
    if ! python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    record = json.load(f)
if not isinstance(record, dict) or not record:
    sys.exit(f"{sys.argv[1]}: empty or non-object JSON record")
' "$json"; then
      echo "FAILED: $name (unusable JSON record $json)" >&2
      failures=$((failures + 1))
    fi
  done
done

# The mmap storage backend gets a dedicated smoke assertion on top of the
# bench_pr8_storage run above (which loads through BOTH backends): its
# JSON record must report the backends bit-identical even at smoke scale.
if [ -f "$SCRATCH/pr8.json" ]; then
  total=$((total + 1))
  printf '== bench_pr8_storage mmap identity check\n'
  if python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    record = json.load(f)
if record.get("mmap_scores_identical") is not True:
    sys.exit("pr8.json: mmap scores diverged from ram")
' "$SCRATCH/pr8.json"; then :; else
    echo "FAILED: bench_pr8_storage mmap identity" >&2
    failures=$((failures + 1))
  fi
fi

echo "bench_smoke: $((total - failures))/$total benches ran clean"
exit "$((failures > 0 ? 1 : 0))"
