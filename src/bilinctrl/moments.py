"""Real-valued trigonometric moment problems.

Given frequencies {omega_k} and targets {x_k}, find a real u in L^2(0, T)
with integral_0^T u(s) e^{i omega_k s} ds = x_k.  The constructive solution
reflects the frequency set to {+-omega_k} (conjugating the targets, so a
real signal can match them), then takes the least-norm exponential sum
u(t) = sum_j c_j e^{-i mu_j t}, whose coefficients solve the Gram system of
the family {e^{-i mu_j t}}.

The Gram matrix depends on the frequencies and the horizon only, so
MomentInverse factors a family once for any number of target vectors, and
solve takes it from a bounded LRU cache keyed by the horizon, the float64
bytes of the family and the condition cap: a family is factored once per
process and key, and its arrays are shared read-only.  Its control method is
the one place that turns coefficients into the exponential sum, for solve
and for steer, whose linearization is frozen: a correction then costs two
triangular solves and one sampled grid.
"""

from __future__ import annotations

import functools
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


def _reflect(frequencies):
    """The sorted reflected family {+-omega_k} of the frequencies of a
    MomentProblem (one below _FREQ_TOL is its zero), and the scatter of
    targets x_k onto it: x_k at omega_k, conj(x_k) at -omega_k and Re x_k
    at zero, so the exponential-sum solution is a real signal.  A collision
    omega_j = -omega_k of distinct frequencies makes it degenerate."""
    fs = np.asarray(frequencies, dtype=float)
    i, j = opposite_pairs(fs, _FREQ_TOL)
    off = np.flatnonzero(i != j)
    if off.size:
        raise DegeneracyError(
            f"frequencies {fs[i[off[0]]]:g} and {fs[j[off[0]]]:g} are "
            "opposite; the symmetrized family is degenerate")
    zero = np.abs(fs) < _FREQ_TOL
    away = fs[~zero]
    mu = np.sort(np.concatenate((away, -away, np.zeros(int(zero.any())))))
    f = np.where(zero, 0.0, fs)
    plus, minus = np.searchsorted(mu, f), np.searchsorted(mu, -f)

    def scatter(targets) -> np.ndarray:
        x = np.asarray(targets, dtype=complex)
        x = np.where(plus == minus, x.real, x)
        y = np.empty(mu.size, dtype=complex)
        y[minus], y[plus] = np.conj(x), x
        return y

    return mu, scatter


def _gram(freqs: np.ndarray, T: float) -> np.ndarray:
    """G[m][j] = integral_0^T e^{i(mu_m - mu_j)s} ds (Hermitian PD)."""
    return _exp_integral(np.subtract.outer(freqs, freqs), T)


class MomentInverse:
    """The least-norm inverse of the moment map of one family on (0, T):
    the horizon T, the reflected family mu (frequencies), its Gram matrix
    with the extreme eigenvalues lambda_min and lambda_max, whose ratio is
    the condition checked against the cap, and the Cholesky factor, built
    once into read-only arrays; each target vector then costs two pairs of
    triangular solves.

    For a family without zero, sqrt(lambda_max / 2) is its Bessel (upper
    frame) constant: the least C with ||moments(u)||_2 <= C ||u||_{L^2(0,T)}
    for every real u."""

    def __init__(self, T: float, frequencies, condition_cap: float = 1e12):
        self.horizon = T
        self.frequencies, self.scatter = _reflect(frequencies)
        self.gram = _gram(self.frequencies, T)
        eig = np.linalg.eigvalsh(self.gram)
        self.lambda_min, self.lambda_max = float(eig[0]), float(eig[-1])
        # a Gram matrix rounded to a non-positive eigenvalue is singular
        self.condition = float(eig[-1] / eig[0]) if eig[0] > 0.0 else np.inf
        if self.condition > condition_cap:
            raise IllConditionedError(
                f"Gram condition {self.condition:.3e} (smallest eigenvalue "
                f"{eig[0]:.3e}) above cap {condition_cap:.1e}; enlarge T or "
                "drop modes", condition=self.condition)
        self._L = np.linalg.cholesky(self.gram)
        for a in (self.frequencies, self.gram, self._L):
            a.flags.writeable = False

    def coefficients(self, targets) -> np.ndarray:
        """c with sum_j c_j e^{-i mu_j t} the least-norm real solution for
        the targets of the one-sided family."""
        y = self.scatter(targets)
        L, LH = self._L, self._L.conj().T
        c = np.linalg.solve(LH, np.linalg.solve(L, y))
        # one step of iterative refinement recovers digits near the cap
        c = c + np.linalg.solve(LH, np.linalg.solve(L, y - self.gram @ c))
        # roundoff in ill-conditioned solves breaks the exact conjugate
        # pairing c(-mu) = conj(c(mu)) that makes the signal real; the
        # reflected frequencies are sorted, so the reflection is a reversal
        return 0.5 * (c + np.conj(c[::-1]))

    def control(self, c, n_steps: int) -> ControlSignal:
        """The exponential sum sum_j c_j e^{-i mu_j t} on (0, T), sampled on
        n_steps steps."""
        return ControlSignal.from_terms(zip(-self.frequencies, c),
                                        self.horizon, n_steps)


@functools.lru_cache(maxsize=16)
def _factored(T: float, family: bytes, condition_cap: float) -> MomentInverse:
    """The MomentInverse of the float64 frequencies in family on (0, T),
    shared by every solve with this key.  A family that raises is not
    cached, so a tighter cap than a cached entry's raises again."""
    return MomentInverse(T, np.frombuffer(family), condition_cap)


@dataclass(frozen=True)
class MomentSolution:
    problem: MomentProblem          # the reflected problem actually solved
    control: ControlSignal
    coefficients: np.ndarray
    residuals: np.ndarray
    inverse: MomentInverse          # the shared factored family

    @property
    def gram_condition(self) -> float:
        return self.inverse.condition

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
            "gram_lambda_min": self.inverse.lambda_min,
            "gram_lambda_max": self.inverse.lambda_max,
            "residual_max": self.residual_max,
            "n_steps": self.control.n_steps,
        }, indent=2)


def solve(problem: MomentProblem, condition_cap: float = 1e12,
          n_steps: int = DEFAULT_STEPS) -> MomentSolution:
    """Least-norm real exponential-sum solution of the moment problem; the
    factored family comes from the cache of _factored."""
    inverse = _factored(float(problem.horizon),
                        np.asarray(problem.frequencies, dtype=float).tobytes(),
                        float(condition_cap))
    y = inverse.scatter(problem.targets)
    c = inverse.coefficients(problem.targets)
    return MomentSolution(
        problem=MomentProblem(problem.horizon, tuple(inverse.frequencies),
                              tuple(y)),
        control=inverse.control(c, n_steps),
        coefficients=c, residuals=inverse.gram @ c - y, inverse=inverse)

