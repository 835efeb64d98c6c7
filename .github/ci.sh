#!/bin/sh
# Every CI check, in order: the tier-1 tests, the benchmark self-tests, the
# benchmark smoke runs and the console checks.  Run from the root of a
# checkout:
#   sh .github/ci.sh
# The package is read from src.  The console checks run $BILINCTRL, else the
# installed `bilinctrl`, else `python -m bilinctrl.cli`.
set -eu
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
if [ -z "${BILINCTRL:-}" ] && ! command -v bilinctrl >/dev/null 2>&1; then
  export BILINCTRL="python -m bilinctrl.cli"
fi
python -m pytest -q --continue-on-collection-errors
python -m pytest perfbench/tests -q
sh .github/bench_smoke.sh
sh .github/cli_smoke.sh
