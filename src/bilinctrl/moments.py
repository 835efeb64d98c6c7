"""Real-valued trigonometric moment problems.

Given frequencies {omega_k} and targets {x_k}, find a real u in L^2(0, T)
with integral_0^T u(s) e^{i omega_k s} ds = x_k.  The constructive solution
symmetrizes the frequency set to {+-omega_k} (conjugating the targets, so a
real signal can match them), then takes the least-norm exponential sum
u(t) = sum_j c_j e^{-i mu_j t}, whose coefficients solve the Gram system of
the family {e^{-i mu_j t}}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DomainError, IllConditionedError
from .integrals import _exp_integral
from .propagator import DEFAULT_STEPS, ControlSignal, moments
from .spectral import _FREQ_TOL, opposite_pairs


@dataclass(frozen=True)
class MomentProblem:
    horizon: float
    frequencies: tuple
    targets: tuple

    def __post_init__(self):
        if not 0.0 < self.horizon < np.inf:
            raise DomainError("horizon must be positive and finite")
        freqs = tuple(float(f) for f in self.frequencies)
        targets = tuple(complex(x) for x in self.targets)
        if len(freqs) != len(targets):
            raise DomainError("frequency and target counts differ")
        if not freqs:
            raise DomainError("empty moment problem")
        for name, values in (("frequency", freqs), ("target", targets)):
            if not np.all(np.isfinite(values)):
                raise DomainError(f"non-finite moment {name}")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "targets", targets)
        if np.any(np.diff(sorted(freqs)) < _FREQ_TOL):
            raise DegeneracyError("repeated moment frequencies")
        for f, x in zip(freqs, targets):
            if abs(f) < _FREQ_TOL and abs(x.imag) > 1e-12 * max(1.0, abs(x)):
                raise DegeneracyError(
                    "target at frequency zero must be real")


def symmetrize(problem: MomentProblem) -> MomentProblem:
    """Extend to the reflected frequency set with conjugate targets.

    The extended data satisfy y(-omega) = conj(y(omega)) and real y(0), so
    the exponential-sum solution is a real signal.  A collision
    omega_j = -omega_k between distinct input frequencies makes the extended
    family degenerate and is reported as such.
    """
    fs = np.asarray(problem.frequencies)
    i, j = opposite_pairs(fs, _FREQ_TOL)
    off = np.flatnonzero(i != j)
    if off.size:
        raise DegeneracyError(
            f"frequencies {fs[i[off[0]]]:g} and {fs[j[off[0]]]:g} are "
            "opposite; the symmetrized family is degenerate")
    pairs = {}
    for f, x in zip(problem.frequencies, problem.targets):
        if abs(f) < _FREQ_TOL:
            pairs[0.0] = complex(x.real)
        else:
            pairs[f] = x
            pairs[-f] = np.conj(x)
    freqs = tuple(sorted(pairs))
    return MomentProblem(problem.horizon, freqs,
                         tuple(pairs[f] for f in freqs))


def _gram(freqs: np.ndarray, T: float) -> np.ndarray:
    """G[m][j] = integral_0^T e^{i(mu_m - mu_j)s} ds (Hermitian PD)."""
    return _exp_integral(np.subtract.outer(freqs, freqs), T)


def _cholesky_solve(G: np.ndarray, y: np.ndarray) -> np.ndarray:
    L = np.linalg.cholesky(G)
    z = np.linalg.solve(L, y)
    c = np.linalg.solve(L.conj().T, z)
    # one step of iterative refinement recovers digits near the cap
    r = y - G @ c
    z = np.linalg.solve(L, r)
    return c + np.linalg.solve(L.conj().T, z)


@dataclass(frozen=True)
class MomentSolution:
    problem: MomentProblem          # the symmetrized problem actually solved
    control: ControlSignal
    coefficients: np.ndarray
    residuals: np.ndarray
    gram_condition: float

    @property
    def residual_max(self) -> float:
        return float(np.max(np.abs(self.residuals)))

    def to_json(self) -> str:
        return json.dumps({
            "T": self.problem.horizon,
            "frequencies": list(self.problem.frequencies),
            "targets_re": [x.real for x in self.problem.targets],
            "targets_im": [x.imag for x in self.problem.targets],
            "coefficients_re": self.coefficients.real.tolist(),
            "coefficients_im": self.coefficients.imag.tolist(),
            "gram_condition": self.gram_condition,
            "residual_max": self.residual_max,
            "n_steps": self.control.n_steps,
        }, indent=2)

    @staticmethod
    def from_json(text: str) -> "MomentSolution":
        doc = json.loads(text)
        problem = MomentProblem(
            doc["T"], tuple(doc["frequencies"]),
            tuple(np.asarray(doc["targets_re"])
                  + 1j * np.asarray(doc["targets_im"])))
        coeffs = (np.asarray(doc["coefficients_re"])
                  + 1j * np.asarray(doc["coefficients_im"]))
        control = _exponential_sum_control(
            np.asarray(problem.frequencies), coeffs, problem.horizon,
            doc.get("n_steps", DEFAULT_STEPS))
        mom = moments(control, problem.frequencies)
        return MomentSolution(problem=problem, control=control,
                              coefficients=coeffs,
                              residuals=mom - np.asarray(problem.targets),
                              gram_condition=float(doc["gram_condition"]))


def _exponential_sum_control(freqs, coeffs, T, n_steps) -> ControlSignal:
    terms = tuple((-f, c) for f, c in zip(freqs, coeffs))
    return ControlSignal.from_terms(terms, T, n_steps)


def solve(problem: MomentProblem, condition_cap: float = 1e12,
          n_steps: int = DEFAULT_STEPS) -> MomentSolution:
    """Least-norm real exponential-sum solution of the moment problem."""
    sym = symmetrize(problem)
    freqs = np.asarray(sym.frequencies)
    y = np.asarray(sym.targets)
    G = _gram(freqs, sym.horizon)
    eig = np.linalg.eigvalsh(G)
    # a Gram matrix rounded to a non-positive eigenvalue is singular
    condition = float(eig[-1] / eig[0]) if eig[0] > 0.0 else np.inf
    if condition > condition_cap:
        raise IllConditionedError(
            f"Gram condition {condition:.3e} (smallest eigenvalue "
            f"{eig[0]:.3e}) above cap {condition_cap:.1e}; enlarge T or "
            "drop modes", condition=condition)
    c = _cholesky_solve(G, y)
    # roundoff in ill-conditioned solves breaks the exact conjugate pairing
    # c(-mu) = conj(c(mu)) that makes the signal real; the symmetrized
    # frequencies are sorted, so the reflection is a reversal
    c = 0.5 * (c + np.conj(c[::-1]))
    control = _exponential_sum_control(freqs, c, sym.horizon, n_steps)
    return MomentSolution(problem=sym, control=control, coefficients=c,
                          residuals=G @ c - y, gram_condition=condition)


def bessel_diagnostic(frequencies, T: float) -> float:
    """The least constant C(T) with ||moments(u)||_2 <= C ||u||_{L^2(0,T)}
    for every real u: the Bessel (upper frame) constant of the family.

    For real u, ||moments(u)||^2 = sum_k <u, cos w_k s>^2 + <u, sin w_k s>^2,
    so C is sqrt(lambda_max) of the 2K x 2K real Gram matrix of
    {cos w_k s, sin w_k s} on [0, T], whose blocks are halves of the real
    and imaginary parts of E_T(w_j - w_k) +- E_T(w_j + w_k).
    """
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if freqs.size > 1:
        gaps = np.diff(np.sort(freqs))
        if gaps.min() <= 0:
            raise DegeneracyError("frequency gaps must be positive")
    minus = _gram(freqs, T)
    plus = _exp_integral(np.add.outer(freqs, freqs), T)
    cos_sin = (plus - minus).imag
    G = 0.5 * np.block([[(minus + plus).real, cos_sin],
                        [cos_sin.T, (minus - plus).real]])
    return float(np.sqrt(np.linalg.eigvalsh(G)[-1]))
