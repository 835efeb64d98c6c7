#!/bin/sh
# Console checks of the bilinctrl command.  The command comes from
# $BILINCTRL: the installed `bilinctrl` by default, or for example
#   PYTHONPATH="$PWD/src" BILINCTRL="python -m bilinctrl.cli" sh .github/cli_smoke.sh
# from a checkout.  The checks run in a fresh temporary directory; any failed
# check exits non-zero.
set -eu
BILINCTRL=${BILINCTRL:-bilinctrl}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# run a verb that must exit 1 with a typed error: `error:` and no traceback
fails_cleanly() {
  status=0
  msg=$($BILINCTRL "$@" -o cli-smoke 2>&1) || status=$?
  echo "$msg"
  test "$status" -eq 1
  case "$msg" in
    *Traceback*) exit 1 ;;
    *'error:'*) ;;
    *) exit 1 ;;
  esac
}

# the default moment problem, the README indicator scan and the K = 1e5
# coefficient verbs must exit 0
$BILINCTRL moments-solve -o cli-smoke
printf '%s' '{"potential": {"preset": null, "breakpoints": [0.41421356], "pieces": [[1.0], [0.0]]}}' > indicator.json
$BILINCTRL obstruction-scan --config indicator.json --K 1000 -o cli-smoke
$BILINCTRL bound-check --K 100000 -o cli-smoke
$BILINCTRL gaps --K 100000 -o cli-smoke

# the README neumann_example scan vanishes at k = 1, so it must print no
# ratio to that level
scan=$($BILINCTRL obstruction-scan --model neumann --preset neumann_example --K 1000 -o cli-smoke)
echo "$scan"
case "$scan" in
  *'running minimum / initial level'*) exit 1 ;;
esac

# on T = 0.01 the Gram matrix is singular, so the solve must exit 1 with an
# inf condition
status=0
msg=$($BILINCTRL moments-solve --T 0.01 -o cli-smoke 2>&1) || status=$?
echo "$msg"
test "$status" -eq 1
case "$msg" in
  *inf*) ;;
  *) exit 1 ;;
esac

# a config file that is missing or not UTF-8 is a configuration error
fails_cleanly steer --config missing.json
printf '\377\376{}' > bad.json
fails_cleanly spectrum --config bad.json

# non-finite moment data (Python's json reads NaN) is a domain error
printf '%s' '{"task": {"T": 1.0, "frequencies": [NaN, 2.0], "targets_re": [1.0, 1.0], "targets_im": [0.0, 0.0]}}' > nan.json
fails_cleanly moments-solve --config nan.json

# resonance reads --model: the equally spaced harmonic spectrum resonates
res=$($BILINCTRL resonance --model harmonic --l 2 --K 10 -o cli-smoke)
echo "$res"
case "$res" in
  *'resonance violated'*) ;;
  *) exit 1 ;;
esac

# sqrt(2k + 1) is not finite at negative periodic k, so the periodic model
# rejects that weight
fails_cleanly bound-check --model periodic_magnetic --drift 1 --preset periodic_example --l 0 --weight inverse_sqrt_lambda
