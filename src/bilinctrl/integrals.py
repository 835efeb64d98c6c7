"""Oscillatory integrals: the exponential integral E_T(omega), exact
polynomial-times-exponential antiderivatives and adaptive Gauss-Legendre
panel quadrature."""

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


def _shift_poly(coeffs, m):
    """Coefficients of p(m + s) in powers of s."""
    out = [0.0j] * len(coeffs)
    for n, c in enumerate(coeffs):
        c = complex(c)
        binom = 1.0
        power = 1.0
        for j in range(n, -1, -1):
            out[j] += c * binom * power
            binom = binom * j / (n - j + 1)
            power *= m
    return out


def _taylor_terms(q, h, w):
    # integral of s^n e^{iws} over [-h, h]; odd total powers vanish.  The
    # stop is relative: on short intervals all terms of s^n are tiny.
    res = np.zeros(w.shape, dtype=complex)
    for n, c in enumerate(q):
        if c == 0:
            continue
        tm = np.full(w.shape, 1.0 + 0.0j)  # (i w h)^m / m!
        acc = np.zeros(w.shape, dtype=complex)
        for m in range(0, 80):
            p = n + m
            if p % 2 == 0:
                contrib = tm * (2.0 * h ** (n + 1) / (p + 1))
                acc += contrib
                if np.all(np.abs(contrib) <= 1e-18 * np.abs(acc)):
                    break
            tm = tm * (1j * w * h) / (m + 1)
        res += c * acc
    return res


def _parts_terms(q, h, w):
    iw = 1j * w
    eph = np.exp(iw * h)
    emh = np.exp(-iw * h)
    res = np.zeros(w.shape, dtype=complex)
    j_prev = (eph - emh) / iw
    res += q[0] * j_prev
    hp = 1.0
    for n in range(1, len(q)):
        hp *= h
        sign = -1.0 if n % 2 else 1.0
        j_cur = (hp * eph - sign * hp * emh) / iw - (n / iw) * j_prev
        res += q[n] * j_cur
        j_prev = j_cur
    return res


def poly_exp_integral(coeffs, a, b, omega):
    """Exact integral of p(x)*exp(i*omega*x) over [a, b].

    coeffs are ascending-degree polynomial coefficients; omega may be a
    scalar or an array (result matches its shape).  Evaluation is shifted to
    the interval midpoint and switches between a Taylor expansion and the
    integration-by-parts recurrence at |omega|*(b-a)/2 = 1 + degree/2.
    """
    scalar = np.ndim(omega) == 0
    w = np.atleast_1d(np.asarray(omega, dtype=float)).astype(float)
    if b == a or not any(complex(c) != 0 for c in coeffs):
        out = np.zeros(w.shape, dtype=complex)
        return complex(out[0]) if scalar else out
    m = 0.5 * (a + b)
    h = 0.5 * (b - a)
    q = _shift_poly(coeffs, m)
    res = np.zeros(w.shape, dtype=complex)
    # the Taylor sum cancels terms up to ~e^{|w h|}, and the recurrence
    # amplifies rounding by n / |w h| at each degree n above |w h|; switching
    # at 1 + degree/2 keeps both within ~3e-14 of the omega = 0 magnitude
    # through degree 12
    small = np.abs(w) * h < 1.0 + 0.5 * (len(q) - 1)
    if small.any():
        res[small] = _taylor_terms(q, h, w[small])
    big = ~small
    if big.any():
        res[big] = _parts_terms(q, h, w[big])
    res *= np.exp(1j * w * m)
    return complex(res[0]) if scalar else res


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
