#!/bin/sh
# Smoke runs of the benchmark: every workload for 2 s untraced, then for 2 s
# traced.  Each run's last line is its JSON result, which must report
# "correct": true; any other result exits non-zero.  Run from the root of a
# checkout:
#   sh .github/bench_smoke.sh
set -eu

# smoke WORKLOAD TRACE: one 2 s run at seed 0
smoke() {
  last=$(python perfbench/run.py --workload "$1" --seed 0 --seconds 2 --trace "$2" | tail -n 1)
  echo "$1 (trace $2): $last"
  case "$last" in
    *'"correct": true'*) ;;
    *) exit 1 ;;
  esac
}

for w in steer_sweep simulate_export derivative_check moment_verify; do
  smoke "$w" 0
done

# the span wrapper hands write_csv its columns as a one-shot generator
smoke simulate_export 1

# the derivative check runs one batched pass, outside the wrapped propagate
# spans; the traced run also requires the first unit's work counts to repeat
# exactly
smoke derivative_check 1

# the span wrapper of ControlSignal.from_terms counts the terms and samples
# of every exponential-sum control these workloads build
for w in steer_sweep moment_verify; do
  smoke "$w" 1
done
