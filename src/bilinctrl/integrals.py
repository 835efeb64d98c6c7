"""Oscillatory integrals: the exponential integral E_T(omega), exact
polynomial-times-exponential integrals, every degree and every polynomial
from one pass, and adaptive Gauss-Legendre panel quadrature."""

from __future__ import annotations

import functools

import numpy as np

from .errors import QuadratureError


def _exp_integral(omega, T: float):
    """E_T(omega) = integral_0^T e^{i omega s} ds = T e^{i omega T/2}
    sinc(omega T / 2 pi), elementwise over an array of omega of any shape.

    Exact at omega = 0 and conjugate under omega -> -omega; off by about
    2 eps T at any omega T (against a 40-digit reference).
    """
    x = 0.5 * T * np.asarray(omega, dtype=float)
    return T * np.exp(1j * x) * np.sinc(x / np.pi)


# frequencies per block: the Taylor power table and the temporaries of the
# recurrence stay small however many frequencies a call brings
_BLOCK = 4096


def _shift_poly(q, m):
    """Coefficients of p(m + s) in powers of s for each column p of q, by
    Horner's rule in (s + m); q itself when m = 0, as on a centered panel."""
    if m == 0:
        return q
    out = np.zeros_like(q)
    for c in q[::-1]:
        out[1:] = m * out[1:] + out[:-1]
        out[0] = m * out[0] + c
    return out


def _centered_moments(q, h, w):
    """sum_n q[n] J_n(w) for each column of q, with J_n(w) = integral_{-h}^{h}
    s^n e^{i w s} ds, for all degrees n = 0..len(q) - 1 in one pass; the
    identity q gives every J_n.  The result has one row per frequency.

    The Taylor series J_n = h^{n+1} sum_m (i w h)^m / m! 2 / (n + m + 1)
    (odd n + m vanish) cancels terms up to ~e^{|w h|}, and the recurrence
    J_n = (h^n e^{iwh} - (-h)^n e^{-iwh} - n J_{n-1}) / (i w) amplifies
    rounding by n / |w h| at each degree n above |w h|; switching at
    |w h| = 1 + degree/2 keeps both within ~3e-14 of the w = 0 scale
    2 h^{n+1} / (n + 1) through degree 12.
    """
    d = len(q) - 1
    out = np.empty((w.size, q.shape[1]), dtype=complex)
    small = np.abs(w) * h < 1.0 + 0.5 * d
    if small.any():
        x = h * w[small, None]
        # terms while r^m / m! > 1e-18, r = max |w h|: the truncation stays
        # below ~1e-18 of the w = 0 scale at every frequency of the set
        r = float(np.max(np.abs(x)))
        M, term = 1, r
        while term > 1e-18:
            M += 1
            term *= r / M
        # the series is one product: the powers (w h)^m / m! times the
        # Hankel table, whose rows carry i^m and whose columns carry h^{n+1}
        p = np.add.outer(np.arange(M), np.arange(d + 1))
        hankel = np.where(p % 2 == 0, 2.0 / (p + 1), 0.0)
        hankel = np.array([1, 1j, -1, -1j])[np.arange(M) % 4, None] * hankel
        coef = hankel @ (h ** np.arange(1.0, d + 2.0)[:, None] * q)
        powers = np.empty((x.size, M))
        powers[:, :1] = 1.0
        np.divide(x, np.arange(1.0, M), out=powers[:, 1:])
        np.cumprod(powers, axis=1, out=powers)
        # the real table times the (re, im) pairs of the complex
        # coefficients, read back as complex
        out[small] = (powers @ coef.view(float)).view(complex)
    big = ~small
    if big.any():
        iw = 1j * w[big]
        eph = np.exp(iw * h)
        emh = np.exp(-iw * h)
        j = (eph - emh) / iw
        res = np.multiply.outer(j, q[0])
        hp = 1.0
        for n in range(1, d + 1):
            hp *= h
            sign = -1.0 if n % 2 else 1.0
            j = (hp * eph - sign * hp * emh) / iw - (n / iw) * j
            res += np.multiply.outer(j, q[n])
        out[big] = res
    return out


def poly_exp_integral(coeffs, a, b, omega):
    """Exact integral of p(x)*exp(i*omega*x) over [a, b].

    coeffs are ascending-degree polynomial coefficients, or a 2-D array
    whose columns are polynomials; omega may be a scalar or an array.  The
    result matches omega's shape, with one trailing column per polynomial
    for 2-D coeffs.  The polynomials are shifted to the interval midpoint,
    and one pass per block of frequencies gives every degree of every
    polynomial: a Taylor series below |omega|*(b-a)/2 = 1 + degree/2 and
    the integration-by-parts recurrence above.
    """
    q = np.asarray(coeffs, dtype=complex)
    w = np.asarray(omega, dtype=float)
    shape = w.shape + q.shape[1:]
    q = q.reshape(len(q), -1)
    out = np.zeros((w.size, q.shape[1]), dtype=complex)
    if b != a and q.any():
        m = 0.5 * (a + b)
        h = 0.5 * (b - a)
        q = _shift_poly(q, m)
        w = w.ravel()
        for lo in range(0, w.size, _BLOCK):
            wb = w[lo:lo + _BLOCK]
            out[lo:lo + _BLOCK] = (_centered_moments(q, h, wb)
                                   * np.exp(1j * wb * m)[:, None])
    out = out.reshape(shape)
    return complex(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=None)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def panel_grid(a, b, splits=(), max_width=0.5, factor=1):
    """Panel boundaries covering [a, b], split at the given interior points.

    factor multiplies the per-piece panel count, guaranteeing a strictly
    finer grid on every refinement regardless of the piece widths.
    """
    pts = [a] + sorted(s for s in splits if a < s < b) + [b]
    edges = [pts[0]]
    for lo, hi in zip(pts[:-1], pts[1:]):
        n = factor * max(1, int(np.ceil((hi - lo) / max_width)))
        edges.extend(np.linspace(lo, hi, n + 1)[1:])
    return np.asarray(edges)


def panel_nodes(edges, n_nodes=20):
    """Gauss-Legendre nodes and weights for each panel, flattened."""
    x, w = _leggauss(n_nodes)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x[None, :]
    weights = 0.5 * (hi - lo) * w[None, :]
    return nodes.ravel(), weights.ravel()


def adaptive_integral(f, a, b, splits=(), rtol=1e-12, atol=1e-15,
                      n_nodes=20, initial_width=0.5, max_refinements=10):
    """Adaptive Gauss-Legendre panel quadrature of a vector-valued f.

    Panels are split at the given breakpoints and halved until two successive
    estimates agree; raises QuadratureError (with both estimates) at the cap.
    """
    factor = 1
    previous = None
    for _ in range(max_refinements):
        nodes, weights = panel_nodes(
            panel_grid(a, b, splits, initial_width, factor), n_nodes)
        est = np.tensordot(f(nodes), weights, axes=([-1], [0]))
        if previous is not None:
            err = np.max(np.abs(est - previous))
            if err <= rtol * max(1.0, float(np.max(np.abs(est)))) + atol:
                return est
        previous = est
        factor *= 2
    raise QuadratureError(
        "panel refinement cap reached without convergence",
        last_estimate=est, previous_estimate=previous)
