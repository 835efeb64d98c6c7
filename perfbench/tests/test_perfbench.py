"""Tests of the benchmark itself (span arithmetic, wrapper removal, count
repeatability, failure accounting).  Run with

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Recorder, self_times, totals_by_name  # noqa: E402

bc = run.import_program()

import layers  # noqa: E402
import workloads  # noqa: E402
from bilinctrl.errors import NonConvergenceError  # noqa: E402


def tiny_setup(**kw):
    return workloads.SteerSetup("tiny", bc.SpectralModel.dirichlet(),
                                bc.dirichlet_example(), 1, 6, 6,
                                n_steps=256, **kw)


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 7]
    spans = [["root", None, 0.0, 10.0], ["a", 0, 1.0, 4.0],
             ["b", 0, 5.0, 9.0], ["c", 2, 6.0, 7.0], ["a", 2, 7.5, 8.0]]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5])
    totals = totals_by_name(spans)
    assert totals["a"] == pytest.approx({"self_s": 3.5, "total_s": 3.5,
                                         "calls": 2})
    assert totals["b"]["self_s"] == pytest.approx(2.5)
    assert totals["b"]["total_s"] == pytest.approx(4.0)


def test_recorder_nests_spans_with_a_fake_clock():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    rec.close(outer)
    assert rec.spans == [["outer", None, 0.0, 3.0], ["inner", 0, 1.0, 2.0]]
    assert self_times(rec.spans) == [2.0, 1.0]


def _bindings():
    """Every global of every package module, and the wrapped classes'
    attributes, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "bilinctrl"
                                   or name.startswith("bilinctrl.")):
            for key, value in vars(module).items():
                out[(name, key)] = id(value)
    for cls in (bc.Propagator, bc.ControlSignal):
        for key, value in vars(cls).items():
            out[(cls.__name__, key)] = id(value)
    return out


def test_wrappers_removed_after_traced_run():
    before = _bindings()
    rec = Recorder()
    rec.install(layers.targets(), layers.PACKAGE)
    try:
        assert rec.installed
        assert _bindings() != before
        outcome = workloads.run_unit(workloads.SteerUnit(tiny_setup(), 0),
                                     rec)
    finally:
        rec.uninstall()
    assert outcome.ok, outcome.detail
    names = {span[0] for span in rec.spans}
    assert {"unit", "steering.steer", "propagator.propagate",
            "moments.solve", "integrals.poly_exp_integral"} <= names
    assert not rec.installed
    assert _bindings() == before


def _traced_counts(units):
    caches = layers.program_caches()
    run.clear_caches(caches)
    rec = Recorder()
    per_unit = []
    rec.install(layers.targets(), layers.PACKAGE)
    try:
        outcomes = run.timed_pass([units], recorder=rec, per_unit=per_unit)
    finally:
        rec.uninstall()
    assert all(o.ok for o in outcomes)
    return per_unit


def test_counts_identical_across_two_runs():
    units = [workloads.SteerUnit(tiny_setup(), seed) for seed in (0, 1)]
    first = _traced_counts(units)
    second = _traced_counts(units)
    assert first == second
    assert first[0]["propagator.propagate.steps"] > 0
    # the second unit reuses the first unit's coefficient table
    assert first[1].get("potentials.coefficient_table.misses", 0) == 0
    assert first[1]["potentials.coefficient_table.hits"] > 0


class RaisingUnit(workloads.Unit):
    label = "raises"
    may_fail = True

    def call(self):
        raise NonConvergenceError("grew", history=[1e-3, 2e-3, 3e-3])


@pytest.mark.parametrize("may_fail", [True, False])
def test_fail_frac_counts_raised_and_unconverged(may_fail):
    stalls = workloads.SteerUnit(tiny_setup(max_iters=1,
                                            may_fail=may_fail), 0)
    raises = RaisingUnit()
    raises.may_fail = may_fail
    converges = workloads.SteerUnit(tiny_setup(), 0)
    outcomes = [workloads.run_unit(u) for u in (stalls, raises, converges)]
    assert [o.status for o in outcomes] == ["stalled", "raised", "ok"]
    t = workloads.tally(outcomes)
    assert (t["attempted"], t["failed"], t["ok"]) == (3, 2, 1)
    assert t["fail_frac"] == pytest.approx(2 / 3)
    # a known defect is counted but keeps the run correct; anywhere else
    # the same failure makes it incorrect
    assert t["correct"] is may_fail


def test_wrong_output_is_never_allowed():
    class Wrong(workloads.Unit):
        may_fail = True

        def call(self):
            return 1

        def check(self, result):
            raise workloads.Failure("off by one")

    outcome = workloads.run_unit(Wrong())
    assert outcome.status == "failed-check"
    assert not workloads.tally([outcome])["correct"]


def _bench(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_traced_runs_of_one_seed_repeat_their_counts():
    args = ["--workload", "steer_sweep", "--seed", "5", "--seconds", "1",
            "--trace", "1"]
    stamps = []
    for _ in range(2):
        proc = _bench(args, BENCH.parent)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] is True
        assert set(result["metrics"]) == {n for n, _ in layers.PER_LAYER}
        stamp = next(line for line in lines if line.startswith("stamp "))
        stamps.append(json.loads(stamp[len("stamp "):]))
    assert stamps[0]["counts_sha256"] == stamps[1]["counts_sha256"]


def test_exits_without_result_when_source_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "steer_sweep", "--seed", "0",
                   "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not os.path.exists(tmp_path / ".perfbench")
