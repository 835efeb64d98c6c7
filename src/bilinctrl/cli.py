"""Command-line interface: runs one experiment verb per process and writes
plot-ready CSV/JSON artifacts stamped with the configuration hash."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .config import ExperimentConfig, _fits, load_config_file
from .errors import BilinearControlError, ConfigError
from .moments import MomentProblem, moments, solve
from .potentials import (BoundWeight, coefficient_table,
                         harmonic_coefficient_identity,
                         neumann_obstruction_scan, verify_lower_bound,
                         weighted_moduli)
from .propagator import (ControlSignal, Propagator, SobolevNorm, basis_state,
                         sobolev_weights)
from .spectral import (ModelKind, check_resonance, eigenvalue, gap_analysis,
                       hermite_function_values, index_window)
from .steering import (SteeringProblem, endpoint_derivative_check,
                       perturbed_target, steer)

OUTPUT_DIR_ENV = "BILINCTRL_OUT"

# the keys besides "type" that each control type of the task takes
_CONTROL_KEYS = {"zero": (), "constant": ("value",), "terms": ("terms",)}

# weighted coefficients below this count as exact zeros in obstruction-scan
_ZERO = 1e-12

# rows of a CSV artifact formatted and written per block
_CSV_BLOCK = 4096


def write_csv(path: str, header: str, columns, config_hash: str) -> None:
    """Write equal-length 1-D columns as CSV rows below the hash line and
    the header.  Integer columns are written as decimal integers, every other
    column as the shortest round-trip repr of its float64 values; lines end
    in \\n.  Rows are formatted and written _CSV_BLOCK at a time, one template
    per block; within a block, a column made mostly of runs of bit-identical
    values formats each run once (_block_cells).  columns is iterated exactly
    once."""
    columns = [c if np.issubdtype(c.dtype, np.integer)
               else c.astype(np.float64, copy=False)
               for c in map(np.asarray, columns)]
    n_rows = columns[0].size if columns else 0
    if any(c.shape != (n_rows,) for c in columns):
        raise ValueError("write_csv needs equal-length 1-D columns")
    width = len(columns)
    template = ",".join(["%s"] * width) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        fh.write(header + "\n")
        for a in range(0, n_rows, _CSV_BLOCK):
            n = min(_CSV_BLOCK, n_rows - a)
            cells = [None] * (width * n)
            for j, c in enumerate(columns):
                cells[j::width] = _block_cells(c[a:a + n])
            fh.write((template * n) % tuple(cells))


def _block_cells(c) -> list:
    """The cells of one block of a column, as write_csv's template formats
    them.  Runs of bit-identical values (-0.0 and 0.0 differ, NaNs of one
    payload match) are found on the integer view; when they are at most half
    the block, each run head is formatted once and its string repeated,
    otherwise the values go to the template as they are."""
    bits = c.view(np.int64) if c.dtype.kind == "f" else c
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if 2 * starts.size > c.size:
        return c.tolist()
    text = np.array([str(v) for v in c[starts].tolist()], dtype=object)
    return np.repeat(text, np.diff(starts, append=c.size)).tolist()


def read_csv(path: str):
    """Round-trip reader for package CSV artifacts."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        if not first.startswith("# config_hash="):
            raise ConfigError(f"{path}: missing config hash line")
        config_hash = first.split("=", 1)[1]
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return config_hash, header, rows


def write_json(path: str, doc: dict, config_hash: str) -> None:
    doc = dict(doc)
    doc["config_hash"] = config_hash
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _control_from_task(cfg: ExperimentConfig) -> ControlSignal:
    spec = dict(cfg.task.control)
    kind = spec.pop("type", "zero")
    T, n = cfg.task.T, cfg.numerics.n_steps
    if not isinstance(kind, str) or kind not in _CONTROL_KEYS:
        raise ConfigError(f"unknown control type {kind!r}")
    extra = set(spec) - set(_CONTROL_KEYS[kind])
    if extra:
        raise ConfigError(f"unknown control key(s) {sorted(extra)}")
    if kind == "zero":
        return ControlSignal.zero(T, n)
    key = _CONTROL_KEYS[kind][0]
    value = spec.get(key, 0.0 if kind == "constant" else [])
    if kind == "constant" and _fits(value, "float"):
        return ControlSignal.constant(value, T, n)
    if kind == "terms" and isinstance(value, list) and all(
            isinstance(t, list) and len(t) == 3
            and _fits(tuple(t), "tuple[float, ...]") for t in value):
        return ControlSignal.from_terms([(f, complex(re, im))
                                         for f, re, im in value], T, n)
    raise ConfigError(f"bad value {value!r} for key {key!r} in section "
                      "'task.control'")


def _band_limited(rng, T: float, n_steps: int) -> ControlSignal:
    """A real sum of 4 conjugate pairs of terms, frequencies drawn from
    [0, 30)."""
    terms = []
    for f in rng.uniform(0.0, 30.0, 4):
        a = rng.standard_normal() + 1j * rng.standard_normal()
        terms.append((float(f), 0.25 * a))
        terms.append((float(-f), 0.25 * np.conj(a)))
    return ControlSignal.from_terms(terms, T, n_steps)


def _weighted_table(cfg: ExperimentConfig):
    """The config's coefficient table and bound weight; the default weight
    is the model's first."""
    model = cfg.spectral_model()
    table = coefficient_table(cfg.piecewise_potential(), model, cfg.model.l,
                              cfg.numerics.K)
    if cfg.task.weight is None:
        return table, model.kind.laws.weights[0]
    try:
        return table, BoundWeight(cfg.task.weight)
    except ValueError:
        raise ConfigError(f"unknown bound weight {cfg.task.weight!r}")


def _cmd_spectrum(cfg, out):
    model = cfg.spectral_model()
    ks = index_window(model, cfg.numerics.N)
    path = os.path.join(out, "spectrum.csv")
    write_csv(path, "k,lambda", (ks, eigenvalue(model, ks)), cfg.hash())
    print(f"wrote {path} ({ks.size} eigenvalues)")
    return 0


def _cmd_gaps(cfg, out):
    report = gap_analysis(cfg.spectral_model(), cfg.model.l, cfg.numerics.K)
    path = os.path.join(out, "gaps.json")
    write_json(path, dataclasses.asdict(report), cfg.hash())
    print(f"min_gap={report.min_gap:.6g} gamma={report.gamma_estimate:.6g} "
          f"distinct={report.distinct}")
    return 0


def _cmd_resonance(cfg, out):
    report = check_resonance(cfg.model.l, cfg.numerics.K,
                             cfg.spectral_model())
    path = os.path.join(out, "resonance.json")
    write_json(path, {"ok": report.ok, "l": report.l, "window": report.window,
                      "violations": [list(v) for v in report.violations]},
               cfg.hash())
    if report.ok:
        print(f"l={report.l}: no resonant pairs up to K={report.window}")
    else:
        print(f"l={report.l}: resonance violated by pairs "
              f"{list(report.violations)}")
    return 0


def _cmd_coeffs(cfg, out):
    table, weight = _weighted_table(cfg)
    path = os.path.join(out, "coefficients.csv")
    write_csv(path, "k,re,im,abs,weighted_abs",
              (table.indices, table.values.real, table.values.imag,
               *weighted_moduli(table, weight)), cfg.hash())
    print(f"wrote {path} ({table.indices.size} coefficients)")
    return 0


def _cmd_bound_check(cfg, out):
    table, weight = _weighted_table(cfg)
    report = verify_lower_bound(table, weight,
                                threshold=cfg.numerics.bound_threshold)
    path = os.path.join(out, "bound_check.json")
    write_json(path, {"passed": report.passed,
                      "worst_constant": report.worst_constant,
                      "argmin_index": report.argmin_index,
                      "weight": report.weight.value,
                      "threshold": report.threshold}, cfg.hash())
    print(f"passed={report.passed} worst_constant={report.worst_constant:.6g}"
          f" at k={report.argmin_index}")
    return 0


def _cmd_obstruction_scan(cfg, out):
    mu = cfg.piecewise_potential()
    report = neumann_obstruction_scan(mu, cfg.numerics.K)
    path = os.path.join(out, "obstruction.csv")
    write_csv(path, "k,weighted_abs,running_min",
              (report.indices, report.weighted, report.running_min),
              cfg.hash())
    print(f"initial level {report.initial_level:.6g}, running minimum "
          f"{report.final_min:.6g} after K={cfg.numerics.K}")
    if report.initial_level < _ZERO:
        print(f"k = 1 is an exact zero (below {_ZERO:g}), so no ratio to "
              "the initial level")
    else:
        print(f"running minimum / initial level "
              f"{report.final_min / report.initial_level:.3e}")
    zeros = report.weighted < _ZERO
    n_zeros = np.count_nonzero(zeros)
    if n_zeros:
        print(f"{n_zeros} exact zeros, first few: "
              f"{report.indices[zeros][:8].tolist()}")
    else:
        print("no exact zeros found")
    return 0


def _row_norms(rows):
    """np.linalg.norm of each complex row, bit for bit: the sum of the dot
    products of its real and imaginary views, then the square root.  An
    axis=1 norm sums in another order."""
    return np.sqrt([c.real.dot(c.real) + c.imag.dot(c.imag) for c in rows])


def _cmd_simulate(cfg, out):
    model = cfg.spectral_model()
    mu = cfg.piecewise_potential()
    prop = Propagator(model, mu, cfg.numerics.N)
    u = _control_from_task(cfg)
    traj = prop.propagate(basis_state(model, cfg.numerics.N, cfg.model.l), u)
    ks = index_window(model, cfg.numerics.N)
    nt, nm = traj.states.shape
    path = os.path.join(out, "trajectory.csv")
    write_csv(path, "t,k,re,im",
              (np.repeat(traj.times, nm), np.tile(ks, nt),
               traj.states.real.ravel(), traj.states.imag.ravel()),
              cfg.hash())
    weights = sobolev_weights(model, cfg.numerics.N, SobolevNorm.H1)
    l2 = _row_norms(traj.states)
    h1 = _row_norms(weights * c for c in traj.states)
    npath = os.path.join(out, "norms.csv")
    write_csv(npath, "t,l2,h1", (traj.times, l2, h1), cfg.hash())
    drift = float(np.abs(traj.norms() - 1.0).max())
    print(f"wrote {path} and {npath}; max unitarity drift {drift:.3e}")
    return 0


def _transition_family(cfg: ExperimentConfig):
    """Frequencies lambda_k - lambda_l of the model for k in the index window
    of size K, with seeded targets: real N(0,1) at frequency 0, otherwise
    N(0,1) + i N(0,1)."""
    model = cfg.spectral_model()
    lam = eigenvalue(model, index_window(model, cfg.numerics.K))
    freqs = tuple(lam - eigenvalue(model, cfg.model.l))
    rng = np.random.default_rng(cfg.task.seed)
    targets = tuple(complex(rng.standard_normal()) if w == 0.0
                    else rng.standard_normal() + 1j * rng.standard_normal()
                    for w in freqs)
    return freqs, targets


def _cmd_moments_solve(cfg, out):
    task = cfg.task
    if task.frequencies or task.targets_re or task.targets_im:
        freqs = task.frequencies
        lengths = tuple(map(len, (freqs, task.targets_re, task.targets_im)))
        if len(set(lengths)) > 1:
            raise ConfigError("task frequencies, targets_re and targets_im "
                              "have lengths %d, %d and %d" % lengths)
        targets = tuple(complex(re, im) for re, im in
                        zip(task.targets_re, task.targets_im))
    else:
        freqs, targets = _transition_family(cfg)
    problem = MomentProblem(task.T, freqs, targets)
    solution = solve(problem, condition_cap=cfg.numerics.condition_cap,
                     n_steps=cfg.numerics.n_steps)
    doc = json.loads(solution.to_json())
    doc["control_l2_norm"] = solution.control.l2_norm()
    doc["moment_misfit"] = float(np.max(np.abs(
        moments(solution.control, np.asarray(problem.frequencies))
        - np.asarray(problem.targets))))
    path = os.path.join(out, "moments.json")
    write_json(path, doc, cfg.hash())
    print(f"gram condition {solution.gram_condition:.3e}, max residual "
          f"{solution.residual_max:.3e}, moment misfit "
          f"{doc['moment_misfit']:.3e}, control L2 norm "
          f"{doc['control_l2_norm']:.3e}")
    return 0


def _cmd_steer(cfg, out):
    model = cfg.spectral_model()
    mu = cfg.piecewise_potential()
    N, K = cfg.numerics.N, cfg.numerics.K
    psi0 = basis_state(model, N, cfg.model.l)
    psi1 = perturbed_target(model, N, cfg.model.l, cfg.task.T,
                            cfg.task.delta, cfg.task.seed, K=K)
    problem = SteeringProblem(model, mu, cfg.model.l, cfg.task.T, psi0, psi1,
                              tolerance=cfg.numerics.tolerance,
                              max_iters=cfg.task.max_iters,
                              delta=cfg.task.delta)
    report = steer(problem, K=K, N=N, n_steps=cfg.numerics.n_steps)
    path = os.path.join(out, "steering.json")
    write_json(path, json.loads(report.to_json()), cfg.hash())
    print(f"converged={report.converged} after {report.iterations} "
          f"iterations, final error {report.final_error:.3e} (window "
          f"{report.window_residuals[-1]:.3e}, tail "
          f"{report.tail_residuals[-1]:.3e})")
    return 0


def _cmd_derivative_check(cfg, out):
    model = cfg.spectral_model()
    mu = cfg.piecewise_potential()
    rng = np.random.default_rng(cfg.task.seed)
    u = _band_limited(rng, cfg.task.T, cfg.numerics.n_steps)
    v = _band_limited(rng, cfg.task.T, cfg.numerics.n_steps)
    slope = endpoint_derivative_check(u, v, model, mu, cfg.model.l,
                                      cfg.task.T, N=cfg.numerics.N)
    path = os.path.join(out, "derivative_check.json")
    write_json(path, {"slope": slope, "l": cfg.model.l, "T": cfg.task.T,
                      "seed": cfg.task.seed}, cfg.hash())
    print(f"finite-difference slope {slope:.4f}")
    return 0


def _cmd_hermite_check(cfg, out):
    rows = []
    for a in cfg.task.a_values:
        for k in range(1, cfg.task.kmax + 1):
            rep = harmonic_coefficient_identity(float(a), k)
            rows.append((float(a), k, rep.lhs.real, rep.rhs.real,
                         rep.abs_error))
    ipath = os.path.join(out, "hermite_identity.csv")
    write_csv(ipath, "a,k,lhs,rhs,abs_error", zip(*rows), cfg.hash())
    x = np.linspace(-10.0, 10.0, 4001)
    phi = hermite_function_values(500, x)
    bound_rows = [(k, float(k**0.25 * np.abs(phi[k]).max()))
                  for k in range(10, 501)]
    bpath = os.path.join(out, "hermite_bound.csv")
    write_csv(bpath, "k,scaled_max", zip(*bound_rows), cfg.hash())
    worst = max(r[-1] for r in rows)
    print(f"max identity error {worst:.3e}; scaled sup-norm range "
          f"[{min(r[1] for r in bound_rows):.4f}, "
          f"{max(r[1] for r in bound_rows):.4f}]")
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "gaps": _cmd_gaps,
    "resonance": _cmd_resonance,
    "coeffs": _cmd_coeffs,
    "bound-check": _cmd_bound_check,
    "obstruction-scan": _cmd_obstruction_scan,
    "simulate": _cmd_simulate,
    "moments-solve": _cmd_moments_solve,
    "steer": _cmd_steer,
    "derivative-check": _cmd_derivative_check,
    "hermite-check": _cmd_hermite_check,
}


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON experiment configuration")
    parser.add_argument("--model", dest="kind",
                        choices=[m.value for m in ModelKind])
    parser.add_argument("--drift", type=float)
    parser.add_argument("--l", type=int)
    parser.add_argument("--N", type=int)
    parser.add_argument("--K", type=int)
    parser.add_argument("--n-steps", type=int)
    parser.add_argument("--T", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--kmax", type=int)
    parser.add_argument("--weight",
                        choices=[w.value for w in BoundWeight])
    parser.add_argument("--preset", help="potential preset name")
    parser.add_argument("--a", type=float,
                        help="breakpoint of the half-line step potential")
    parser.add_argument("--output-dir", "-o")


# the fields of each config section that the flag of the same name sets
_OVERRIDES = {"model": ("kind", "drift", "l"),
              "numerics": ("N", "K", "n_steps"),
              "task": ("T", "delta", "seed", "kmax", "weight"),
              "potential": ("preset", "a")}


def _apply_overrides(cfg: ExperimentConfig,
                     args: argparse.Namespace) -> ExperimentConfig:
    sections = {}
    for name, fields in _OVERRIDES.items():
        given = {f: getattr(args, f) for f in fields
                 if getattr(args, f) is not None}
        sections[name] = dataclasses.replace(getattr(cfg, name), **given)
    output_dir = (args.output_dir if args.output_dir is not None
                  else os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir)
    return ExperimentConfig(output_dir=output_dir, **sections)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Every verb's parser, built once: parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="bilinctrl",
        description="Spectral experiments for bilinear quantum control: "
                    "spectra, coupling coefficients, unitary simulation, "
                    "moment problems, and local steering.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_overrides(sub.add_parser(name))
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = (load_config_file(args.config) if args.config
               else ExperimentConfig())
        cfg = _apply_overrides(cfg, args)
        os.makedirs(cfg.output_dir, exist_ok=True)
        return _COMMANDS[args.command](cfg, cfg.output_dir)
    except (BilinearControlError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
