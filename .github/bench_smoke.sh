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

# the harness clears every package cache it finds before its traced pass
# and before the first-unit repeat; it must find the factored moment
# families and the Filon panel operators, or the traced pass would time and
# count them warm.  The repeat check cannot see that: both of its runs
# would start warm, so their counts would still agree
python - <<'PY'
import sys
sys.path.insert(0, "perfbench")
import layers
import bilinctrl  # noqa: F401  (loads every module the harness searches)
names = {f"{f.__module__}.{f.__name__}" for f in layers.program_caches()}
print("cleared caches:", " ".join(sorted(names)))
need = {"bilinctrl.moments._factored", "bilinctrl.propagator._panel_operator",
        "bilinctrl.propagator._lagrange_basis"}
assert need <= names, need - names
PY
