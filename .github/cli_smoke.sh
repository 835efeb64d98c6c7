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
# moments.json reports the extreme Gram eigenvalues beside the condition,
# which is their ratio
python - cli-smoke/moments.json <<'PY'
import json, sys
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
lo, hi, cond = (doc[k] for k in
                ("gram_lambda_min", "gram_lambda_max", "gram_condition"))
print(f"gram lambda_min={lo!r} lambda_max={hi!r} condition={cond!r}")
assert 0.0 < lo <= hi and abs(hi / lo - cond) <= 1e-12 * cond
PY
printf '%s' '{"potential": {"preset": null, "breakpoints": [0.41421356], "pieces": [[1.0], [0.0]]}}' > indicator.json
$BILINCTRL obstruction-scan --config indicator.json --K 1000 -o cli-smoke
$BILINCTRL bound-check --K 100000 -o cli-smoke
$BILINCTRL gaps --K 100000 -o cli-smoke

# the README simulate (N = 64 modes, 4096 steps) must exit 0 with one
# trajectory row per time and mode, one norms row per time, and each time
# written once per mode: the first t cell repeats 64 times
$BILINCTRL simulate --N 64 --T 0.5 -o cli-smoke
test "$(wc -l < cli-smoke/trajectory.csv)" -eq $((2 + 4097 * 64))
test "$(wc -l < cli-smoke/norms.csv)" -eq $((2 + 4097))
first=$(sed -n '3,67p' cli-smoke/trajectory.csv | cut -d, -f1 | uniq -c | head -n 1)
echo "first time: $first"
test "$(echo "$first" | awk '{print $1}')" -eq 64

# the bare steer (Dirichlet, N = 64, K = 20, T = 0.5) controls 20 of 64
# modes; it must exit 0 and report its outcome, converged or not
steer=$($BILINCTRL steer -o cli-smoke)
echo "$steer"
case "$steer" in
  *'converged='*) ;;
  *) exit 1 ;;
esac

# the README steer (N = K = 20, T = 0.4) controls every simulated mode and
# must converge
steer=$($BILINCTRL steer --N 20 --K 20 --T 0.4 --seed 0 -o cli-smoke)
echo "$steer"
case "$steer" in
  *'converged=True'*) ;;
  *) exit 1 ;;
esac

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

# on the periodic model --K 10 is the window -5..5 of every K-verb, so l = 6
# lies outside it; without drift lambda_{-1} = lambda_1, a self-collision
for verb in resonance gaps; do
  fails_cleanly $verb --model periodic_magnetic --drift 1 --preset periodic_example --l 6 --K 10
done
res=$($BILINCTRL resonance --model periodic_magnetic --drift 0 --l 1 --K 10 -o cli-smoke)
echo "$res"
case "$res" in
  *'[(-1, -1)]'*) ;;
  *) exit 1 ;;
esac

# the weight sqrt(lambda_k) vanishes where lambda_k = 0: at k = 0 on the
# periodic and the Neumann model, so both reject it
fails_cleanly bound-check --model periodic_magnetic --drift 1 --preset periodic_example --l 0 --weight inverse_sqrt_lambda
fails_cleanly bound-check --model neumann --preset neumann_example --l 0 --weight inverse_sqrt_lambda

# on the Dirichlet model sqrt(lambda_k) = k pi, so its bound is pi times the
# inverse_k one, with the same worst index
bound=$($BILINCTRL bound-check --weight inverse_sqrt_lambda --K 50 -o cli-smoke)
echo "$bound"
case "$bound" in
  *'worst_constant=1.66667 at k=5'*) ;;
  *) exit 1 ;;
esac

# a config value of the wrong type is a configuration error: ints take no
# float or string, floats no string, tuples only numbers
typed() {
  printf '%s' "$2" > typed.json
  fails_cleanly "$1" --config typed.json
}
for verb in simulate steer spectrum; do
  typed "$verb" '{"numerics": {"N": "abc"}}'
done
typed steer '{"numerics": {"K": 2.5}}'
typed steer '{"task": {"T": "x"}}'
typed coeffs '{"model": {"l": null}}'
typed coeffs '{"potential": {"preset": null, "breakpoints": [0.5], "pieces": [[1.0, "x"], [0.0]]}}'

# a control entry of the wrong type and moment data of different lengths are
# configuration errors too
typed simulate '{"task": {"control": {"type": "terms", "terms": [[1.0, 0.5]]}}}'
typed moments-solve '{"task": {"T": 1.0, "frequencies": [1.0, 2.0], "targets_re": [1.0, 1.0], "targets_im": [0.0, 0.0, 5.0]}}'
