"""The benchmark's four workloads and the checks on their outputs.

A workload is a list of rounds; a round holds one unit per setup, and a unit
is one experiment: a single call into the package's public API or into the
in-process CLI (``bilinctrl.cli.main``).  Inputs are generated from the
workload seed when the rounds are built, before any timing.  Only the call is
timed; checks run afterwards.

Thresholds, with where they come from:

* steering -- residual <= 1e-8 and >= 10x contraction per iteration while
  above tolerance (acceptance criterion 9);
* ``simulate`` -- L2 drift <= 1e-10 along the stored trajectory (criterion 5),
  config-hash line on every CSV, row counts as configured;
* ``obstruction-scan`` -- K rows, running minimum below 10% of the initial
  level (criterion 10);
* ``derivative-check`` -- slope in [1.8, 2.2] (criterion 8);
* ``moment_verify`` -- parametric round trip <= 1e-8 (criterion 7); from the
  sampled control, moments within 1e-4 and the linearized endpoint within
  1e-2 (relative) of the Duhamel closed form.  These two hold at the
  workload's resolution omega_max * h <= 0.18: linear interpolation of
  e^{i omega s} errs by at most (omega h)^2 / 8 ~ 4e-3, and observed errors
  were <= 6e-6 and <= 1.2e-3.  At Dirichlet K=25 on 4096 steps
  (omega_max * h ~ 0.75) the sampled moments miss by ~0.37, so that setting
  cannot serve as an accuracy gate.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import bilinctrl as bc
from bilinctrl import cli
from bilinctrl.errors import NonConvergenceError

STEPS = 4096


# -- outcomes -----------------------------------------------------------------

class Failure(Exception):
    """A unit's output misses its acceptance threshold."""

    status = "failed-check"


class Stalled(Failure):
    """A solver returned without reaching its tolerance."""

    status = "stalled"


# Statuses a unit marked ``may_fail`` (a known defect) may end with without
# making the run incorrect: the failure is counted, not hidden.
SOLVER_FAILURES = ("raised", "stalled")


@dataclass
class Outcome:
    label: str
    wall_s: float
    status: str          # "ok", "raised", "stalled", "failed-check", "error"
    may_fail: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def allowed(self) -> bool:
        return self.ok or (self.may_fail and self.status in SOLVER_FAILURES)


class Unit:
    """One experiment: ``call`` is timed, the rest is not."""

    label = "unit"
    may_fail = False

    def prepare(self) -> None:
        pass

    def call(self):
        raise NotImplementedError

    def check(self, result) -> None:
        pass

    def cleanup(self) -> None:
        pass


def run_unit(unit: Unit, recorder=None) -> Outcome:
    """Run one unit; with a recorder, its call is the root span "unit" and
    only the call is recorded."""
    unit.prepare()
    try:
        if recorder is not None:
            recorder.recording = True
            root = recorder.open("unit")
        start = time.perf_counter()
        try:
            result = unit.call()
            error = None
        except NonConvergenceError as exc:
            error = ("raised", f"NonConvergenceError: {exc}")
        except Exception as exc:
            error = ("error", f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        if recorder is not None:
            recorder.close(root)
            recorder.recording = False
        if error is not None:
            return Outcome(unit.label, wall, error[0], unit.may_fail, error[1])
        try:
            unit.check(result)
        except Failure as exc:
            return Outcome(unit.label, wall, exc.status, unit.may_fail,
                           str(exc))
        return Outcome(unit.label, wall, "ok", unit.may_fail)
    finally:
        unit.cleanup()


def tally(outcomes) -> dict:
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    return {"attempted": attempted, "failed": failed,
            "ok": attempted - failed,
            "fail_frac": failed / attempted if attempted else 0.0,
            "correct": all(o.allowed for o in outcomes)}


# -- steering -----------------------------------------------------------------

@dataclass
class SteerSetup:
    label: str
    model: object
    mu: object
    l: int
    N: int
    K: int
    may_fail: bool = False
    T: float = 0.4
    delta: float = 1e-2
    tolerance: float = 1e-8
    n_steps: int = STEPS
    max_iters: int = 6              # criterion 9
    _reference: object = None

    def reference(self):
        """Propagator used only by checks, built on first use."""
        if self._reference is None:
            self._reference = bc.Propagator(self.model, self.mu, self.N)
        return self._reference


class SteerUnit(Unit):
    def __init__(self, setup: SteerSetup, target_seed: int):
        self.setup = setup
        self.label = setup.label
        self.may_fail = setup.may_fail
        s = setup
        psi1 = bc.perturbed_target(s.model, s.N, s.l, s.T, s.delta,
                                   target_seed, K=s.K)
        self.problem = bc.SteeringProblem(
            s.model, s.mu, s.l, s.T, bc.basis_state(s.model, s.N, s.l), psi1,
            tolerance=s.tolerance, max_iters=s.max_iters, delta=s.delta)

    def call(self):
        return bc.steer(self.problem, K=self.setup.K, N=self.setup.N,
                        n_steps=self.setup.n_steps)

    def check(self, report) -> None:
        check_steering(report, self.problem, self.setup.reference())


def check_steering(report, problem, propagator) -> None:
    """Criterion 9: converged to the tolerance with >= 10x contraction per
    iteration; the returned control is re-simulated to confirm the
    residual."""
    tol = problem.tolerance
    if not report.converged:
        raise Stalled(f"returned unconverged at {report.final_error:.3e} "
                      f"after {report.iterations} iterations")
    res = report.residuals
    for a, b in zip(res[:-1], res[1:]):
        if a > tol and b > 0.1 * a:
            raise Failure(f"contraction {a / b:.1f}x < 10x ({a:.2e} -> "
                          f"{b:.2e})")
    psi_T = propagator.endpoint(problem.psi0, report.control)
    r = bc.project_tangent(problem.psi1 - psi_T, problem.l, problem.T)
    again = bc.sobolev_norm(r, report.norm)
    if not again <= tol:
        raise Failure(f"re-simulated residual {again:.3e} above {tol:g}")


def steer_sweep_round(rng, workdir, r, setups) -> list[Unit]:
    return [SteerUnit(s, int(rng.integers(2**31))) for s in setups]


def steer_setups() -> list[SteerSetup]:
    D = bc.SpectralModel.dirichlet()
    P = bc.SpectralModel.periodic(1.0)
    return [
        # criterion 9 pair
        SteerSetup("dirichlet-l1-N20-K20", D, bc.dirichlet_example(), 1, 20,
                   20),
        SteerSetup("periodic-l0-N21-K21", P, bc.periodic_example(), 0, 21,
                   21),
        # more modes simulated than controlled: stalls or raises today
        # (ROADMAP item 5), so its failures are counted, not excluded
        SteerSetup("dirichlet-l1-N24-K20", D, bc.dirichlet_example(), 1, 24,
                   20, may_fail=True),
    ]


def steer_warm_up(workdir) -> None:
    D = bc.SpectralModel.dirichlet()
    setup = SteerSetup("warm-up", D, bc.dirichlet_example(), 1, 6, 6,
                       n_steps=256)
    _require_ok(run_unit(SteerUnit(setup, 0)))


# -- CLI units ----------------------------------------------------------------

class CliUnit(Unit):
    """One ``bilinctrl`` verb run in-process on a config file written when
    the inputs are generated; artifacts go to a fresh directory."""

    verb = ""

    def __init__(self, label: str, doc: dict, workdir: str, r: int):
        self.label = label
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "inputs",
                                        f"{label}-r{r}.json")
        os.makedirs(os.path.dirname(self.config_path), exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.config = bc.load_config(doc)
        self.out = None

    def prepare(self) -> None:
        self.out = tempfile.mkdtemp(prefix="unit-", dir=self.workdir)

    def call(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([self.verb, "--config", self.config_path,
                             "-o", self.out])

    def cleanup(self) -> None:
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)
            self.out = None

    def artifact(self, name: str) -> str:
        return os.path.join(self.out, name)

    def read_csv(self, name: str):
        try:
            config_hash, header, rows = cli.read_csv(self.artifact(name))
        except (OSError, bc.ConfigError) as exc:
            raise Failure(f"{name}: {exc}") from None
        if config_hash != self.config.hash():
            raise Failure(f"{name}: config hash {config_hash} != "
                          f"{self.config.hash()}")
        return header, rows

    def check_exit(self, rc) -> None:
        if rc != 0:
            raise Failure(f"bilinctrl {self.verb} exited {rc}")


class SimulateUnit(CliUnit):
    verb = "simulate"

    def check(self, rc) -> None:
        self.check_exit(rc)
        cfg = self.config
        n_times = cfg.numerics.n_steps + 1
        n_modes = bc.index_window(cfg.spectral_model(), cfg.numerics.N).size
        header, rows = self.read_csv("norms.csv")
        if header != ["t", "l2", "h1"] or len(rows) != n_times:
            raise Failure(f"norms.csv: header {header}, {len(rows)} rows")
        drift = max(abs(float(row[1]) - 1.0) for row in rows)
        if not drift <= 1e-10:
            raise Failure(f"L2 drift {drift:.3e} above 1e-10")
        with open(self.artifact("trajectory.csv"), "rb") as fh:
            first = fh.readline()
            lines = 1 + fh.read().count(b"\n")
        if first != f"# config_hash={self.config.hash()}\n".encode():
            raise Failure("trajectory.csv: missing config hash line")
        if lines != 2 + n_times * n_modes:
            raise Failure(f"trajectory.csv: {lines} lines, want "
                          f"{2 + n_times * n_modes}")


class ScanUnit(CliUnit):
    verb = "obstruction-scan"

    def check(self, rc) -> None:
        self.check_exit(rc)
        K = self.config.numerics.K
        header, rows = self.read_csv("obstruction.csv")
        if len(rows) != K or rows[0][0] != "1" or rows[-1][0] != str(K):
            raise Failure(f"obstruction.csv: {len(rows)} rows, want {K}")
        initial, final = float(rows[0][1]), float(rows[-1][2])
        if not final < 0.1 * initial:
            raise Failure(f"running minimum {final:.3e} not below 10% of "
                          f"{initial:.3e}")


class DerivativeUnit(CliUnit):
    verb = "derivative-check"

    def check(self, rc) -> None:
        self.check_exit(rc)
        try:
            doc = cli.read_json(self.artifact("derivative_check.json"))
        except (OSError, ValueError) as exc:
            raise Failure(f"derivative_check.json: {exc}") from None
        if doc.get("config_hash") != self.config.hash():
            raise Failure("derivative_check.json: wrong config hash")
        slope = float(doc.get("slope", "nan"))
        if not 1.8 <= slope <= 2.2:
            raise Failure(f"slope {slope:.4f} outside [1.8, 2.2]")


def _band_limited_terms(rng, n_terms: int = 4, band: float = 30.0):
    """[freq, re, im] rows of a real band-limited exponential sum."""
    terms = []
    for f in rng.uniform(0.0, band, n_terms):
        a = 0.25 * (rng.standard_normal() + 1j * rng.standard_normal())
        terms.append([float(f), a.real, a.imag])
        terms.append([float(-f), a.real, -a.imag])
    return terms


def _unit_potential(breakpoints, pieces):
    return {"preset": None, "breakpoints": [float(b) for b in breakpoints],
            "pieces": [list(p) for p in pieces], "domain": "unit_interval"}


def simulate_export_round(rng, workdir, r, setups=None) -> list[Unit]:
    """Obstruction scan, then one ``simulate`` per model.  Potentials are
    drawn per round, so no two units share a (model, potential, N).  The
    2048-step trajectories keep CSV writing dominant while giving ~1 s units,
    so a run holds enough of them for a steady median."""
    scan = {"model": {"kind": "neumann", "l": 0},
            "potential": _unit_potential([rng.uniform(0.2, 0.45)],
                                         [[1.0], [0.0]]),
            "numerics": {"K": 100_000}}
    d = np.sort(rng.uniform(0.1, 0.9, 3))
    n = np.sort(rng.uniform(0.1, 0.9, 2))
    models = [
        ("dirichlet", 0.0, 1, 128,
         _unit_potential(d, [[1.0], [2.0], [1.0], [0.0]])),
        ("periodic_magnetic", 1.0, 0, 64,
         _unit_potential([rng.uniform(0.3, 0.7)], [[0.0, 1.0], [0.0]])),
        ("neumann", 0.0, 0, 64,
         _unit_potential(n, [[0.0], [1.0], [0.0]])),
        ("harmonic", 0.0, 0, 64,
         {"preset": "half_line_step", "a": float(rng.uniform(0.0, 0.6))}),
    ]
    units = [ScanUnit("obstruction-scan-K100000", scan, workdir, r)]
    for kind, drift, l, N, potential in models:
        doc = {"model": {"kind": kind, "drift": drift, "l": l},
               "potential": potential,
               "numerics": {"N": N, "n_steps": 2048},
               "task": {"T": 0.5, "control": {
                   "type": "terms", "terms": _band_limited_terms(rng)}}}
        units.append(SimulateUnit(f"simulate-{kind}-N{N}", doc, workdir, r))
    return units


def simulate_warm_up(workdir) -> None:
    rng = np.random.default_rng(0)
    doc = {"model": {"kind": "dirichlet", "l": 1},
           "numerics": {"N": 8, "n_steps": 128},
           "task": {"T": 0.1, "control": {
               "type": "terms", "terms": _band_limited_terms(rng)}}}
    scan = {"model": {"kind": "neumann", "l": 0},
            "potential": _unit_potential([0.3], [[1.0], [0.0]]),
            "numerics": {"K": 100}}
    for unit in (SimulateUnit("warm-up-simulate", doc, workdir, 0),
                 ScanUnit("warm-up-scan", scan, workdir, 0)):
        _require_ok(run_unit(unit))


# criterion 8's model/potential pairs, through the CLI at its default size
DERIVATIVE_PAIRS = [
    ("dirichlet", 0.0, 1, {"preset": "dirichlet_example"}),
    ("periodic_magnetic", 1.0, 0, {"preset": "periodic_example"}),
    ("neumann", 0.0, 0, {"preset": "neumann_example"}),
    ("harmonic", 0.0, 0, {"preset": "half_line_step", "a": 0.3}),
]


def derivative_check_round(rng, workdir, r,
                           setups=None) -> list[Unit]:
    units = []
    for kind, drift, l, potential in DERIVATIVE_PAIRS:
        doc = {"model": {"kind": kind, "drift": drift, "l": l},
               "potential": potential,
               "task": {"seed": int(rng.integers(2**31))}}
        units.append(DerivativeUnit(f"derivative-check-{kind}", doc,
                                    workdir, r))
    return units


def derivative_warm_up(workdir) -> None:
    doc = {"numerics": {"N": 8, "n_steps": 128}, "task": {"T": 0.3}}
    _require_ok(run_unit(DerivativeUnit("warm-up", doc, workdir, 0)))


# -- moment problems ----------------------------------------------------------

@dataclass
class MomentSetup:
    """Criterion 7 setup on a 2048-step grid, with K chosen so that
    omega_max * h <= 0.18 (shorter units give more samples per run)."""

    label: str
    model: object
    mu: object
    l: int
    T: float
    K: int
    n_steps: int = 2048
    propagator: object = None

    @property
    def frequencies(self) -> tuple:
        lam_l = bc.eigenvalue(self.model, self.l)
        return tuple(float(bc.eigenvalue(self.model, int(k)) - lam_l)
                     for k in bc.index_window(self.model, self.K))

    def build(self) -> "MomentSetup":
        self.propagator = bc.Propagator(self.model, self.mu, self.K)
        return self


class MomentUnit(Unit):
    def __init__(self, setup: MomentSetup, rng):
        self.setup = setup
        self.label = setup.label
        freqs = setup.frequencies
        targets = tuple(
            complex(rng.standard_normal()) if w == 0.0
            else complex(rng.standard_normal(), rng.standard_normal())
            for w in freqs)
        self.problem = bc.MomentProblem(setup.T, freqs, targets)

    def call(self):
        s = self.setup
        sol = bc.solve(self.problem, n_steps=s.n_steps)
        sampled = bc.ControlSignal(s.T, sol.control.samples)
        got = bc.moments(sampled, np.asarray(self.problem.frequencies))
        xi = s.propagator.propagate_linearized(sampled, s.l)
        return sol, got, xi

    def check(self, result) -> None:
        sol, got, xi = result
        s = self.setup
        freqs = np.asarray(self.problem.frequencies)
        targets = np.asarray(self.problem.targets)
        scale = max(1.0, float(np.max(np.abs(targets))))
        exact = bc.moments(sol.control, freqs)
        err = float(np.max(np.abs(exact - targets)))
        if not err <= 1e-8 * scale:
            raise Failure(f"parametric round trip error {err:.3e}")
        err = float(np.max(np.abs(got - targets)))
        if not err <= 1e-4 * scale:
            raise Failure(f"sampled moments error {err:.3e} above 1e-4")
        duhamel = s.propagator.propagate_linearized(sol.control, s.l)
        ref = duhamel.coefficients
        err = float(np.max(np.abs(xi.coefficients - ref))
                    / np.max(np.abs(ref)))
        if not err <= 1e-2:
            raise Failure(f"sampled linearization error {err:.3e} above "
                          "1e-2 relative")


def moment_setups() -> list[MomentSetup]:
    return [
        MomentSetup("moments-dirichlet-l1-K8", bc.SpectralModel.dirichlet(),
                    bc.dirichlet_example(), 1, 0.5, 8).build(),
        MomentSetup("moments-periodic-l0-K9", bc.SpectralModel.periodic(1.0),
                    bc.periodic_example(), 0, 0.5, 9).build(),
        MomentSetup("moments-harmonic-l0-K25", bc.SpectralModel.harmonic(),
                    bc.half_line_step(0.3), 0, 1.05 * np.pi, 25).build(),
    ]


def moment_verify_round(rng, workdir, r, setups) -> list[Unit]:
    return [MomentUnit(s, rng) for s in setups]


def moment_warm_up(workdir) -> None:
    setup = MomentSetup("warm-up", bc.SpectralModel.dirichlet(),
                        bc.dirichlet_example(), 1, 0.5, 4, n_steps=256)
    _require_ok(run_unit(MomentUnit(setup.build(), np.random.default_rng(0))))


def _require_ok(outcome: Outcome) -> None:
    if not outcome.ok:
        raise RuntimeError(f"warm-up {outcome.label} failed: "
                           f"{outcome.status} {outcome.detail}")


# -- registry -----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    round_s: float        # nominal wall of one round on a 2-core host
    setups: Callable      # () -> shared per-setup state, built once
    build_round: Callable  # (rng, workdir, r, setups) -> list[Unit]
    warm_up: Callable     # (workdir) -> None, a small problem


def _no_setups():
    return None


WORKLOADS = {w.name: w for w in (
    Workload("steer_sweep", 1.5, steer_setups, steer_sweep_round,
             steer_warm_up),
    Workload("simulate_export", 5.5, _no_setups,
             simulate_export_round, simulate_warm_up),
    Workload("derivative_check", 3.1, _no_setups,
             derivative_check_round, derivative_warm_up),
    Workload("moment_verify", 2.6, moment_setups, moment_verify_round,
             moment_warm_up),
)}


def make_rounds(workload: Workload, seed: int, n_rounds: int,
                workdir: str) -> list[list[Unit]]:
    """Inputs for ``n_rounds`` rounds from the seed; a prefix of the rounds
    does not depend on how many are made."""
    rng = np.random.default_rng(seed)
    setups = workload.setups()
    return [workload.build_round(rng, workdir, r, setups)
            for r in range(n_rounds)]
