"""Piecewise-polynomial control potentials and their spectral coefficients.

A potential mu is polynomial between breakpoints (H^1 regularity up to the
discontinuities).  Coefficients <mu phi_l, phi_k> are computed in closed form
for all four models: from Fourier moments of mu for the trigonometric bases
and from Hermite tail overlaps for the harmonic oscillator.  Adaptive panel
quadrature remains as the independent oracle (CoefficientMethod.QUADRATURE).
"""

from __future__ import annotations

import enum
import functools
import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .integrals import adaptive_integral, poly_exp_integral
from .spectral import (ModelKind, SpectralModel, eigenfunction_value,
                       hermite_function_values, index_window, window_position)


class PotentialDomain(enum.Enum):
    UNIT_INTERVAL = "unit_interval"
    REAL_LINE = "real_line"


class CoefficientMethod(enum.Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class PiecewisePotential:
    """Polynomial pieces between strictly increasing interior breakpoints.

    pieces[i] holds ascending-degree coefficients on the i-th interval; there
    is one more piece than breakpoints.  On the real line the outermost
    pieces must be constant.
    """

    breakpoints: tuple
    pieces: tuple
    domain: PotentialDomain = PotentialDomain.UNIT_INTERVAL

    def __post_init__(self):
        if not isinstance(self.domain, PotentialDomain):
            try:
                object.__setattr__(self, "domain",
                                   PotentialDomain(self.domain))
            except ValueError:
                raise DomainError(f"unknown domain {self.domain!r}") from None
        bps = tuple(float(b) for b in self.breakpoints)
        pcs = tuple(tuple(float(c) for c in p) for p in self.pieces)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pcs)
        if any(b >= c for b, c in zip(bps, bps[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        if len(pcs) != len(bps) + 1:
            raise DomainError("need exactly one more piece than breakpoints")
        if not all(p for p in pcs):
            raise DomainError("each piece needs at least one coefficient")
        if self.domain is PotentialDomain.UNIT_INTERVAL:
            if bps and not (0.0 < bps[0] and bps[-1] < 1.0):
                raise DomainError("breakpoints must lie inside (0, 1)")
        else:
            for outer in (pcs[0], pcs[-1]):
                if any(c != 0.0 for c in outer[1:]):
                    raise DomainError(
                        "real-line potentials must be constant outside the "
                        "breakpoint window")

    def intervals(self):
        """(a, b, coeffs) triples covering the domain (+-inf on the line)."""
        lo, hi = ((0.0, 1.0) if self.domain is PotentialDomain.UNIT_INTERVAL
                  else (-np.inf, np.inf))
        edges = (lo,) + self.breakpoints + (hi,)
        return list(zip(edges[:-1], edges[1:], self.pieces))

    def __call__(self, x):
        xarr = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.searchsorted(np.asarray(self.breakpoints), xarr, side="right")
        out = np.empty_like(xarr)
        for i, p in enumerate(self.pieces):
            mask = idx == i
            if mask.any():
                out[mask] = np.polynomial.polynomial.polyval(xarr[mask], p)
        return float(out[0]) if np.ndim(x) == 0 else out

    def content_hash(self) -> str:
        blob = struct.pack("<i", len(self.pieces)) + self.domain.value.encode()
        for b in self.breakpoints:
            blob += struct.pack("<d", b)
        for p in self.pieces:
            blob += struct.pack("<i", len(p)) + b"".join(
                struct.pack("<d", c) for c in p)
        return hashlib.sha256(blob).hexdigest()[:16]


def indicator(a: float, b: float,
              domain: PotentialDomain = PotentialDomain.UNIT_INTERVAL
              ) -> PiecewisePotential:
    """The potential 1_{[a,b]}; endpoints on the domain boundary collapse
    the corresponding zero piece."""
    bps, pieces = [], [(0.0,)]
    if domain is not PotentialDomain.UNIT_INTERVAL or a > 0.0:
        bps.append(a)
    else:
        pieces = []
    pieces.append((1.0,))
    if domain is not PotentialDomain.UNIT_INTERVAL or b < 1.0:
        bps.append(b)
        pieces.append((0.0,))
    return PiecewisePotential(tuple(bps), tuple(pieces), domain)


def half_line_step(a: float) -> PiecewisePotential:
    """The potential 1_{[a, infinity)} on the real line."""
    return PiecewisePotential((a,), ((0.0,), (1.0,)),
                              PotentialDomain.REAL_LINE)


def zero_potential(domain: PotentialDomain = PotentialDomain.UNIT_INTERVAL
                   ) -> PiecewisePotential:
    return PiecewisePotential((), ((0.0,),), domain)


def dirichlet_example() -> PiecewisePotential:
    """1_{[0,1/2]} + 1_{[1/4,3/4]}: the two indicators overlap on [1/4,1/2]."""
    return PiecewisePotential((0.25, 0.5, 0.75),
                              ((1.0,), (2.0,), (1.0,), (0.0,)))


def periodic_example() -> PiecewisePotential:
    """x * 1_{[0,1/2]}."""
    return PiecewisePotential((0.5,), ((0.0, 1.0), (0.0,)))


def neumann_example() -> PiecewisePotential:
    """1_{[1/3,2/3]}: rational breakpoints, so infinitely many coefficients
    vanish exactly."""
    return indicator(1.0 / 3.0, 2.0 / 3.0)


def _harmonic_coefficients(mu: PiecewisePotential, l: int,
                           ks: np.ndarray) -> np.ndarray:
    kmax = int(max(int(ks.max()), l))
    # cover the classical turning point sqrt(2 kmax + 1) plus Gaussian margin
    xmax = max(max(map(abs, mu.breakpoints), default=0.0) + 12.0,
               np.sqrt(2.0 * kmax + 1.0) + 8.0)

    def integrand(x):
        phi = hermite_function_values(kmax, x)
        return mu(x) * phi[l] * phi[ks]

    vals = adaptive_integral(integrand, -xmax, xmax,
                             splits=mu.breakpoints + (0.0,),
                             rtol=1e-13, atol=1e-16)
    return vals.astype(complex)


def _tail_overlaps(a: float, rows: np.ndarray, M: int) -> np.ndarray:
    """S[i, m] = integral_a^inf phi_{rows[i]} phi_m dx for m < M, from
    phi(a) alone: 2 (m - j) S_jm = phi_j(a) phi_m'(a) - phi_m(a) phi_j'(a)
    (Wronskian) off the diagonal, S_kk = S_{k-1,k-1} + phi_k(a) phi_{k-1}(a)
    / sqrt(2k) from S_00 = erfc(a) / 2 on it.  Extended precision, because
    p(J) multiplies S by entries growing like (k/2)^(deg/2).
    """
    K = max(int(rows.max()), M - 1) + 1
    phi = hermite_function_values(K, np.longdouble(a))[:, 0]
    k = np.arange(K)
    dphi = (np.sqrt(k / 2.0) * np.concatenate(([0.0], phi[:K - 1]))
            - np.sqrt((k + 1) / 2.0) * phi[1:])
    diag = 0.5 * math.erfc(a) + np.concatenate(([0.0], np.cumsum(
        phi[1:K] * phi[:K - 1] / np.sqrt(2.0 * k[1:]))))
    j, m = rows[:, None], np.arange(M)[None, :]
    same = j == m
    wronskian = phi[j] * dphi[m] - phi[m] * dphi[j]
    return np.where(same, diag[j],
                    wronskian / np.where(same, 1, 2 * (m - j))).astype(float)


def _position_polynomial(p, cols: np.ndarray, M: int) -> np.ndarray:
    """Columns cols of p(J) on modes 0..M-1, J the tridiagonal position
    matrix x phi_k = sqrt(k/2) phi_{k-1} + sqrt((k+1)/2) phi_{k+1}; exact
    while M > max(cols) + deg p."""
    beta = np.sqrt(np.arange(1, M) / 2.0)[:, None]
    unit = (np.arange(M)[:, None] == cols).astype(float)
    P = np.zeros_like(unit)
    for c in reversed(p):
        JP = c * unit
        JP[1:] += beta * P[:-1]
        JP[:-1] += beta * P[1:]
        P = JP
    return P


def _coupling_block(mu: PiecewisePotential, model: SpectralModel, rows,
                    cols) -> np.ndarray:
    """B[i, j] = <mu phi_{cols[j]}, phi_{rows[i]}> in closed form.

    From the Fourier moments c_m = integral mu e^{i m s x} the periodic block
    is c_{j-k} (Toeplitz); with C_m = (c_m + c_{-m})/2 the Dirichlet block is
    C_{|j-k|} - C_{j+k} and the Neumann one nu_j nu_k (C_{|j-k|} + C_{j+k})/2.
    On the line each breakpoint t adds S_t (p_right - p_left)(J).
    """
    _check_domain(mu, model)
    rows, cols = np.asarray(rows), np.asarray(cols)
    if model.kind is ModelKind.HARMONIC:
        M = int(cols.max()) + max(len(p) for p in mu.pieces)
        B = mu.pieces[0][0] * (rows[:, None] == cols[None, :])
        for t, left, right in zip(mu.breakpoints, mu.pieces, mu.pieces[1:]):
            jump = np.polynomial.polynomial.polysub(right, left)
            B = B + _tail_overlaps(t, rows, M) @ _position_polynomial(
                jump, cols, M)
        return B.astype(complex)
    n = int(np.abs(rows).max() + np.abs(cols).max())
    s = 2.0 * np.pi if model.kind is ModelKind.PERIODIC_MAGNETIC else np.pi
    c = sum(poly_exp_integral(p, a, b, s * np.arange(n + 1))
            for a, b, p in mu.intervals())
    c = np.concatenate((c[:0:-1].conj(), c))  # c_{-m} = conj(c_m), mu real
    j, k = cols[None, :], rows[:, None]
    if model.kind is ModelKind.PERIODIC_MAGNETIC:
        return c[n + j - k]
    C = 0.5 * (c[n:] + c[n::-1])
    if model.kind is ModelKind.DIRICHLET:
        return C[np.abs(j - k)] - C[j + k]
    nu = np.where(j == 0, 1.0, np.sqrt(2.0)) * np.where(k == 0, 1.0,
                                                         np.sqrt(2.0))
    return 0.5 * nu * (C[np.abs(j - k)] + C[j + k])


def inner_product(mu: PiecewisePotential, model: SpectralModel, l: int,
                  k: int,
                  method: CoefficientMethod = CoefficientMethod.CLOSED_FORM
                  ) -> complex:
    """The spectral coefficient <mu phi_l, phi_k> =
    integral of mu(x) phi_l(x) conj(phi_k(x)); QUADRATURE is the oracle."""
    model.check_index(l)
    model.check_index(k)
    if method is CoefficientMethod.QUADRATURE:
        _check_domain(mu, model)
        return complex(_quadrature_coefficient(mu, model, l, k))
    return complex(_coupling_block(mu, model, [k], [l])[0, 0])


def _quadrature_coefficient(mu, model, l, k):
    if model.kind is ModelKind.HARMONIC:
        return _harmonic_coefficients(mu, l, np.asarray([k]))[0]

    def integrand(x):
        return (mu(x) * eigenfunction_value(model, l, x)
                * np.conj(eigenfunction_value(model, k, x)))

    return adaptive_integral(integrand, 0.0, 1.0, splits=mu.breakpoints,
                             rtol=1e-13, atol=1e-16)


def _check_domain(mu: PiecewisePotential, model: SpectralModel) -> None:
    want = (PotentialDomain.REAL_LINE if model.kind is ModelKind.HARMONIC
            else PotentialDomain.UNIT_INTERVAL)
    if (mu.domain is PotentialDomain.REAL_LINE) != (want is
                                                    PotentialDomain.REAL_LINE):
        raise DomainError(
            f"potential domain {mu.domain.value} does not match the "
            f"{model.kind.value} model")


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Coefficients <mu phi_l, phi_k> (values) at the indices k of a
    contiguous index window, as read-only arrays."""

    l: int
    indices: np.ndarray
    values: np.ndarray
    model: SpectralModel

    def value(self, k: int) -> complex:
        return complex(self.values[window_position(self.model,
                                                   self.indices.size, k)])


@functools.lru_cache(maxsize=128)
def coefficient_table(mu: PiecewisePotential, model: SpectralModel, l: int,
                      size: int) -> CoefficientTable:
    """Coefficient table over the model's standard index window.

    Cached: the propagator and steering loops reuse tables heavily, and the
    inputs are immutable value objects.  The cache shares each table, so its
    arrays are read-only.
    """
    model.check_index(l)
    ks = index_window(model, size)
    vals = _coupling_block(mu, model, ks, [l])[:, 0]
    ks.flags.writeable = vals.flags.writeable = False
    return CoefficientTable(l=l, indices=ks, values=vals, model=model)


class BoundWeight(enum.Enum):
    """Multiplier turning |<mu phi_l, phi_k>| into a candidate constant C in
    the lower bounds C/k, C/(|k|+1), C/sqrt(2k+1)."""

    INVERSE_K = "inverse_k"
    INVERSE_K_PLUS_1 = "inverse_k_plus_1"
    INVERSE_SQRT_LAMBDA = "inverse_sqrt_lambda"

    def multiplier(self, k):
        """The multiplier at index k (k may be an array)."""
        if self is BoundWeight.INVERSE_K:
            return np.abs(k).astype(float)
        if self is BoundWeight.INVERSE_K_PLUS_1:
            return (np.abs(k) + 1).astype(float)
        return np.sqrt(2.0 * k + 1.0)


def weighted_moduli(table: CoefficientTable, weight: BoundWeight):
    """|b_k| and |b_k| weight.multiplier(k) over the table.  np.hypot of the
    parts is Python's abs(complex) bit for bit; np.abs is not."""
    modulus = np.hypot(table.values.real, table.values.imag)
    return modulus, modulus * weight.multiplier(table.indices)


@dataclass(frozen=True)
class LowerBoundReport:
    passed: bool
    worst_constant: float
    argmin_index: int
    weight: BoundWeight
    threshold: float


def verify_lower_bound(table: CoefficientTable, weight: BoundWeight,
                       threshold: float = 1e-12) -> LowerBoundReport:
    """Smallest weighted coefficient over the table; passes when it stays
    above the threshold separating analytic zeros from roundoff."""
    if not table.indices.size:
        raise DomainError("empty coefficient table")
    _, constants = weighted_moduli(table, weight)
    i = int(np.argmin(constants))
    worst = float(constants[i])
    return LowerBoundReport(passed=worst > threshold, worst_constant=worst,
                            argmin_index=int(table.indices[i]), weight=weight,
                            threshold=threshold)


@dataclass(frozen=True)
class ObstructionReport:
    """Weighted Neumann coefficients (k+1)|<mu, phi_k>| and their running
    minimum; decay of the running minimum exhibits the failure of the
    uniform lower-bound hypothesis."""

    indices: np.ndarray
    weighted: np.ndarray
    running_min: np.ndarray

    @property
    def initial_level(self) -> float:
        return float(self.weighted[0])

    @property
    def final_min(self) -> float:
        return float(self.running_min[-1])


def neumann_obstruction_scan(mu: PiecewisePotential,
                             K: int) -> ObstructionReport:
    """Scan (k+1)|<mu phi_0, phi_k>| for k = 1..K on the Neumann model."""
    if K < 1:
        raise DomainError("need K >= 1")
    ks = np.arange(1, K + 1)
    vals = _coupling_block(mu, SpectralModel.neumann(), ks, [0])[:, 0]
    weighted = (ks + 1) * np.abs(vals)
    return ObstructionReport(indices=ks, weighted=weighted,
                             running_min=np.minimum.accumulate(weighted))


@dataclass(frozen=True)
class IdentityReport:
    lhs: complex
    rhs: complex
    abs_error: float


def harmonic_tail_coefficient(a: float, k: int) -> float:
    """Closed form for the half-line overlap integral_a^inf phi_k phi_0 dx.

    Row 0 of the tail-overlap identity

        2 (k - j) integral_a^inf phi_j phi_k
            = phi_j(a) phi_k'(a) - phi_k(a) phi_j'(a).

    With phi_0' = -x phi_0 and phi_k' = sqrt(2k) phi_{k-1} - x phi_k the
    right-hand side at j = 0 is sqrt(2k) phi_0(a) phi_{k-1}(a), so

        integral_a^inf phi_k phi_0 dx
            = pi^{-1/4} e^{-a^2/2} phi_{k-1}(a) / sqrt(2 k).
    """
    if k < 1:
        raise DomainError("need k >= 1")
    phi_prev = float(hermite_function_values(k - 1, a)[k - 1, 0])
    return (np.pi ** (-0.25) * np.exp(-0.5 * a * a) * phi_prev
            / np.sqrt(2.0 * k))


def harmonic_coefficient_identity(a: float, k: int) -> IdentityReport:
    """Quadrature of integral_a^inf phi_k phi_0 against its closed form."""
    if k < 1:
        raise DomainError("need k >= 1")
    xmax = max(12.0, abs(a) + 12.0, np.sqrt(2.0 * k + 1.0) + 8.0)

    def integrand(x):
        phi = hermite_function_values(k, x)
        return (phi[k] * phi[0])[None, :]

    lhs = complex(adaptive_integral(integrand, a, xmax, rtol=1e-13,
                                    atol=1e-16)[0])
    rhs = complex(harmonic_tail_coefficient(a, k))
    return IdentityReport(lhs=lhs, rhs=rhs, abs_error=abs(lhs - rhs))
