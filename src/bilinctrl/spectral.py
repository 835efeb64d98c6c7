"""Spectral models for the four boundary setups.

Each model carries its eigenvalue law, its orthonormal eigenfunction family
and the index convention used everywhere else in the package:

* Dirichlet on (0,1):       k >= 1,  lambda_k = k^2 pi^2,  sqrt(2) sin(k pi x)
* Periodic with drift u0:   k in Z,  lambda_k = 4 pi^2 k^2 - 2 pi u0 k,
                            exp(2 i k pi x)
* Neumann on (0,1):         k >= 0,  lambda_k = k^2 pi^2,  1 at k = 0 and
                            sqrt(2) cos(k pi x) for k >= 1
* Harmonic oscillator on R: k >= 0,  lambda_k = 2k + 1,  Hermite functions
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


# lowest index of each model's index set; None for all of Z
_LOWEST_INDEX = {
    ModelKind.DIRICHLET: 1,
    ModelKind.PERIODIC_MAGNETIC: None,
    ModelKind.NEUMANN: 0,
    ModelKind.HARMONIC: 0,
}


@dataclass(frozen=True)
class SpectralModel:
    """One of the four boundary setups; drift is the momentum coupling u0
    and is meaningful for the periodic model only."""

    kind: ModelKind
    drift: float = 0.0

    def __post_init__(self):
        if self.kind is not ModelKind.PERIODIC_MAGNETIC and self.drift != 0.0:
            raise DomainError("drift is only meaningful for the periodic model")

    def check_index(self, k) -> None:
        """Raise DomainError naming the first entry of k (a scalar or an
        array) outside the model's index set."""
        lowest = _LOWEST_INDEX[self.kind]
        if lowest is None:
            return
        karr = np.ravel(k)
        bad = np.flatnonzero(karr < lowest)
        if bad.size:
            raise DomainError(f"index {karr[bad[0]]} outside the "
                              f"{self.kind.value} index set")

    @property
    def on_unit_interval(self) -> bool:
        return self.kind is not ModelKind.HARMONIC

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
    lowest = _LOWEST_INDEX[model.kind]
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
    karr = np.asarray(k, dtype=float)
    if model.kind is ModelKind.PERIODIC_MAGNETIC:
        out = 4.0 * np.pi**2 * karr**2 - 2.0 * np.pi * model.drift * karr
    elif model.kind is ModelKind.HARMONIC:
        out = 2.0 * karr + 1.0
    else:
        out = karr**2 * np.pi**2
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
    if model.on_unit_interval and (np.any(xarr < 0.0) or np.any(xarr > 1.0)):
        raise DomainError("x outside the unit interval")
    if model.kind is ModelKind.DIRICHLET:
        out = np.sqrt(2.0) * np.sin(k * np.pi * xarr)
    elif model.kind is ModelKind.PERIODIC_MAGNETIC:
        out = np.exp(2j * k * np.pi * xarr)
    elif model.kind is ModelKind.NEUMANN:
        out = (np.ones_like(xarr) if k == 0
               else np.sqrt(2.0) * np.cos(k * np.pi * xarr))
    else:
        out = hermite_function_values(k, xarr)[k]
        out = out.reshape(xarr.shape) if xarr.ndim else out[0]
    return out if np.ndim(x) else complex(out) if np.iscomplexobj(out) else float(out)


@dataclass(frozen=True)
class ResonanceReport:
    ok: bool
    violations: tuple
    l: int
    window: int


def check_resonance(l: int, K: int) -> ResonanceReport:
    """Check j^2 - l^2 != l^2 - k^2 for all j, k in {1..K} \\ {l}.

    A pass over a finite window is necessary at scale, not a proof for all
    indices.  Returns every violating pair found in the window.
    """
    if l < 1 or K < l:
        raise DomainError("need l >= 1 and K >= l")
    violations = []
    squares = {j * j: j for j in range(1, K + 1) if j != l}
    for k in range(1, K + 1):
        if k == l:
            continue
        need = 2 * l * l - k * k
        j = squares.get(need)
        if j is not None:
            violations.append((j, k))
    return ResonanceReport(ok=not violations, violations=tuple(violations),
                           l=l, window=K)


@dataclass(frozen=True)
class GapReport:
    min_gap: float
    gamma_estimate: float
    distinct: bool
    window: int
    excluded: int


# Absolute scale below which two transition frequencies count as colliding.
_GAP_TOL = 1e-9


def transition_frequencies(model: SpectralModel, l: int, K: int) -> np.ndarray:
    """Merged sorted sequence {0} u {+-(lambda_k - lambda_l)} over the window."""
    model.check_index(l)
    ks = index_window(model, 2 * K + 1 if _LOWEST_INDEX[model.kind] is None
                      else K)
    ks = ks[ks != l]
    diffs = eigenvalue(model, ks) - eigenvalue(model, l)
    return np.sort(np.concatenate(([0.0], diffs, -diffs)))


def gap_analysis(model: SpectralModel, l: int, K: int) -> GapReport:
    """Minimum consecutive gap and a gamma estimate for the merged
    transition-frequency sequence around mode l.

    gamma is estimated as the minimum gap after discarding the
    2*ceil(sqrt(K)) smallest gaps (the exact definition takes a supremum
    over excluded finite sets, which is not computable)."""
    if K < 2:
        raise DomainError("need K >= 2")
    nu = transition_frequencies(model, l, K)
    gaps = np.sort(np.diff(nu))
    min_gap = float(gaps[0])
    n_excluded = 2 * int(math.ceil(math.sqrt(K)))
    kept = gaps[n_excluded:] if n_excluded < gaps.size else gaps[-1:]
    return GapReport(
        min_gap=min_gap,
        gamma_estimate=float(kept[0]),
        distinct=min_gap > _GAP_TOL,
        window=K,
        excluded=n_excluded,
    )
