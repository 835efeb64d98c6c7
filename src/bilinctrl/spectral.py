"""Spectral models for the four boundary setups.

Whatever differs between the models is one field of the model's row in the
table _LAWS (ModelLaws), which every other module reads.  With the H^1-type
weight w_k of mode k:

* Dirichlet on (0,1):       k >= 1,  lambda_k = k^2 pi^2,  w_k = k,
                            sqrt(2) sin(k pi x)
* Periodic with drift u0:   k in Z,  lambda_k = 4 pi^2 k^2 - 2 pi u0 k,
                            w_k = max(1, |k|),  exp(2 i k pi x)
* Neumann on (0,1):         k >= 0,  lambda_k = k^2 pi^2,  w_k = max(1, k),
                            1 at k = 0 and sqrt(2) cos(k pi x) for k >= 1
* Harmonic oscillator on R: k >= 0,  lambda_k = 2k + 1,  w_k = sqrt(2k + 1),
                            Hermite functions
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


class ModelKind(enum.Enum):
    DIRICHLET = "dirichlet"
    PERIODIC_MAGNETIC = "periodic_magnetic"
    NEUMANN = "neumann"
    HARMONIC = "harmonic"

    @property
    def laws(self) -> "ModelLaws":
        return _LAWS[self]


class BoundWeight(enum.Enum):
    """Multiplier turning |<mu phi_l, phi_k>| into a candidate constant C in
    the lower bounds C/|k|, C/(|k|+1), C/sqrt(lambda_k)."""

    INVERSE_K = "inverse_k"
    INVERSE_K_PLUS_1 = "inverse_k_plus_1"
    INVERSE_SQRT_LAMBDA = "inverse_sqrt_lambda"

    def multiplier(self, k, model: "SpectralModel"):
        """The multiplier at index k (k may be an array) of the model."""
        if self is BoundWeight.INVERSE_K:
            return np.abs(k).astype(float)
        if self is BoundWeight.INVERSE_K_PLUS_1:
            return (np.abs(k) + 1).astype(float)
        return np.sqrt(eigenvalue(model, k))


class SobolevNorm(enum.Enum):
    """Weighted little-l2 norms: L2, or the model's H^1-type space, whose
    weights are the h1_weight law of its row of _LAWS."""

    L2 = "l2"
    H1 = "h1"


@dataclass(frozen=True)
class ModelLaws:
    """A row of _LAWS."""

    lowest: int | None  # the lowest index; None for all of Z
    drift: bool  # whether lambda_k depends on u0
    real_line: bool  # the domain of mu: R, else the unit interval
    eigenvalue: object  # lambda_k as (k, u0) -> array, k a float array
    eigenfunction: object  # phi_k(x) as (k, x) -> array, k an int
    fourier_scale: float | None  # s in the moments of mu e^{i m s x}
    h1_weight: object  # the H^1-type weight w_k as k -> array, k a float array
    weights: tuple  # bound weights finite and > 0 on every k; default first


_LAWS = {
    ModelKind.DIRICHLET: ModelLaws(
        1, False, False, lambda k, u0: k**2 * np.pi**2,
        lambda k, x: np.sqrt(2.0) * np.sin(k * np.pi * x),
        np.pi, lambda k: k,
        (BoundWeight.INVERSE_K, BoundWeight.INVERSE_K_PLUS_1,
         BoundWeight.INVERSE_SQRT_LAMBDA)),
    ModelKind.PERIODIC_MAGNETIC: ModelLaws(
        None, True, False,
        lambda k, u0: 4.0 * np.pi**2 * k**2 - 2.0 * np.pi * u0 * k,
        lambda k, x: np.exp(2j * k * np.pi * x),
        2.0 * np.pi, lambda k: np.maximum(1.0, np.abs(k)),
        (BoundWeight.INVERSE_K_PLUS_1,)),
    ModelKind.NEUMANN: ModelLaws(
        0, False, False, lambda k, u0: k**2 * np.pi**2,
        lambda k, x: (np.ones_like(x) if k == 0
                      else np.sqrt(2.0) * np.cos(k * np.pi * x)),
        np.pi, lambda k: np.maximum(1.0, k), (BoundWeight.INVERSE_K_PLUS_1,)),
    ModelKind.HARMONIC: ModelLaws(
        0, False, True, lambda k, u0: 2.0 * k + 1.0,
        lambda k, x: hermite_function_values(k, x)[k].reshape(np.shape(x)),
        None, lambda k: np.sqrt(2.0 * k + 1.0),
        (BoundWeight.INVERSE_SQRT_LAMBDA, BoundWeight.INVERSE_K_PLUS_1)),
}


@dataclass(frozen=True)
class SpectralModel:
    """One of the four boundary setups; drift is the momentum coupling u0
    and is meaningful only where the model's laws take it."""

    kind: ModelKind
    drift: float = 0.0

    def __post_init__(self):
        if not self.kind.laws.drift and self.drift != 0.0:
            raise DomainError(f"the {self.kind.value} model takes no drift")

    def check_index(self, k) -> None:
        """Raise DomainError naming the first entry of k (a scalar or an
        array) outside the model's index set."""
        lowest = self.kind.laws.lowest
        if lowest is None:
            return
        karr = np.ravel(k)
        bad = np.flatnonzero(karr < lowest)
        if bad.size:
            raise DomainError(f"index {karr[bad[0]]} outside the "
                              f"{self.kind.value} index set")

    @staticmethod
    def dirichlet() -> "SpectralModel":
        return SpectralModel(ModelKind.DIRICHLET)

    @staticmethod
    def periodic(drift: float) -> "SpectralModel":
        return SpectralModel(ModelKind.PERIODIC_MAGNETIC, drift=float(drift))

    @staticmethod
    def neumann() -> "SpectralModel":
        return SpectralModel(ModelKind.NEUMANN)

    @staticmethod
    def harmonic() -> "SpectralModel":
        return SpectralModel(ModelKind.HARMONIC)


def _window_bounds(model: SpectralModel, size: int) -> tuple:
    if size < 1:
        raise DomainError("window size must be positive")
    lowest = model.kind.laws.lowest
    if lowest is None:
        return -(size // 2), size // 2
    return lowest, lowest + size - 1


def index_window(model: SpectralModel, size: int):
    """Contiguous index window of (at least) the requested size.

    For the periodic model the window is symmetric, -M..M with M = size // 2;
    the other models start at their lowest index.
    """
    lo, hi = _window_bounds(model, size)
    return np.arange(lo, hi + 1)


def window_position(model: SpectralModel, size: int, k):
    """Position k - window[0] of index k (a scalar or an array) in
    index_window(model, size); raises DomainError naming the first entry of k
    outside the window."""
    lo, hi = _window_bounds(model, size)
    karr = np.asarray(k)
    outside = np.flatnonzero((karr < lo) | (karr > hi))
    if outside.size:
        raise DomainError(f"index {karr.ravel()[outside[0]]} outside the "
                          "truncation window")
    return karr - lo


def eigenvalue(model: SpectralModel, k) -> float:
    """Closed-form eigenvalue at index k (k may be an array)."""
    model.check_index(k)
    out = model.kind.laws.eigenvalue(np.asarray(k, dtype=float), model.drift)
    return float(out) if np.ndim(k) == 0 else out


def hermite_function_values(kmax: int, x) -> np.ndarray:
    """Normalized Hermite functions phi_0..phi_kmax at the points x.

    Uses the stable recurrence on the normalized functions themselves,
    phi_{k+1} = x sqrt(2/(k+1)) phi_k - sqrt(k/(k+1)) phi_{k-1},
    which avoids the overflow of the raw Hermite polynomials near k ~ 160.
    Computes in the precision of x (at least float64).  Returns an array of
    shape (kmax+1, len(x)).
    """
    x = np.atleast_1d(np.asarray(x))
    x = x.astype(np.result_type(x, np.float64))
    one = x.dtype.type(1)
    out = np.empty((kmax + 1, x.size), dtype=x.dtype)
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * x**2)
    if kmax >= 1:
        out[1] = x * np.sqrt(2 * one) * out[0]
    for k in range(1, kmax):
        out[k + 1] = (x * np.sqrt(2 * one / (k + 1)) * out[k]
                      - np.sqrt(k * one / (k + 1)) * out[k - 1])
    return out


def eigenfunction_value(model: SpectralModel, k: int, x):
    """Eigenfunction phi_k evaluated at x (scalar or array)."""
    model.check_index(k)
    xarr = np.asarray(x, dtype=float)
    if not model.kind.laws.real_line and np.any((xarr < 0.0) | (xarr > 1.0)):
        raise DomainError("x outside the unit interval")
    out = model.kind.laws.eigenfunction(k, xarr)
    return out if np.ndim(x) else complex(out) if np.iscomplexobj(out) else float(out)


@dataclass(frozen=True)
class ResonanceReport:
    ok: bool
    violations: tuple
    l: int
    window: int


def check_resonance(l: int, K: int,
                    model: SpectralModel = SpectralModel.dirichlet()
                    ) -> ResonanceReport:
    """Every pair (j, k), j, k != l, of the window of transition_frequencies
    with lambda_j + lambda_k = 2 lambda_l, a collision nu_j = -nu_k of
    nu_k = lambda_k - lambda_l; sorted by k, then j.  A pass over a finite
    window is necessary at scale, not a proof for all indices."""
    window_position(model, K, l)
    ks, nu = _transition_modes(model, l, K)
    k, j = opposite_pairs(nu, _collision_tol(model, l))
    violations = tuple(zip(ks[j].tolist(), ks[k].tolist()))
    return ResonanceReport(ok=not violations, violations=violations,
                           l=l, window=K)


@dataclass(frozen=True)
class GapReport:
    min_gap: float
    gamma_estimate: float
    distinct: bool
    window: int
    excluded: int


# Absolute scale below which two frequencies count as colliding.
_FREQ_TOL = 1e-9


def _collision_tol(model: SpectralModel, l: int) -> float:
    """Collision scale of mode l: a few ulps of lambda_l pass 1e-9 from 1e7
    on; 1024 ulps stay below the Dirichlet spacing pi^2 to l ~ 2.6e6."""
    return max(_FREQ_TOL, 1024 * float(np.spacing(abs(eigenvalue(model, l)))))


def opposite_pairs(nu, tol: float):
    """Positions (i, j), i = j included, with |nu_i + nu_j| < tol, in
    lexicographic order, from one stable sort (fast on the monotone runs
    of nu_k) and two searchsorted brackets; no len(nu)^2 table."""
    nu = np.asarray(nu, dtype=float)
    order = np.argsort(nu, kind="stable")
    lo = np.searchsorted(nu[order], -nu - tol, side="left")
    count = np.searchsorted(nu[order], -nu + tol, side="right") - lo
    i = np.repeat(np.arange(nu.size), count)
    j = order[np.arange(i.size)
              + np.repeat(lo - np.cumsum(count) + count, count)]
    hit = np.abs(nu[i] + nu[j]) < tol
    i, j = i[hit], j[hit]
    first = np.lexsort((j, i))
    return i[first], j[first]


def _transition_modes(model: SpectralModel, l: int, K: int):
    """The modes k != l of index_window(model, K) and nu_k = lambda_k -
    lambda_l."""
    ks = index_window(model, K)
    ks = ks[ks != l]
    return ks, eigenvalue(model, ks) - eigenvalue(model, l)


def transition_frequencies(model: SpectralModel, l: int, K: int) -> np.ndarray:
    """Merged sorted sequence {0} u {+-(lambda_k - lambda_l)} over the window."""
    _, diffs = _transition_modes(model, l, K)
    # 0.0 - d, not -d: a zero nu_k reflects to +0.0, never to a gap of -0
    return np.sort(np.concatenate(([0.0], diffs, 0.0 - diffs)))


def gap_analysis(model: SpectralModel, l: int, K: int) -> GapReport:
    """Minimum consecutive gap and a gamma estimate for the merged
    transition-frequency sequence around mode l.

    gamma is estimated as the minimum gap after discarding the
    2*ceil(sqrt(K)) smallest gaps (the exact definition takes a supremum
    over excluded finite sets, which is not computable)."""
    if K < 2:
        raise DomainError("need K >= 2")
    window_position(model, K, l)
    nu = transition_frequencies(model, l, K)
    gaps = np.sort(np.diff(nu))
    min_gap = float(gaps[0])
    n_excluded = 2 * int(math.ceil(math.sqrt(K)))
    kept = gaps[n_excluded:] if n_excluded < gaps.size else gaps[-1:]
    return GapReport(
        min_gap=min_gap,
        gamma_estimate=float(kept[0]),
        distinct=min_gap > _collision_tol(model, l),
        window=K,
        excluded=n_excluded,
    )
