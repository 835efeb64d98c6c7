"""Oscillatory-integral primitives against scipy quadrature oracles."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bilinctrl.errors import QuadratureError
from bilinctrl.integrals import (_exp_integral, adaptive_integral,
                                 poly_exp_integral)


def _quad_oracle(coeffs, a, b, omega):
    f = lambda x: np.polynomial.polynomial.polyval(x, coeffs)
    if abs(omega) > 50.0:
        # oscillatory weights keep plain quadrature honest at high frequency
        re = quad(f, a, b, weight="cos", wvar=omega, limit=400)[0]
        im = quad(f, a, b, weight="sin", wvar=omega, limit=400)[0]
    else:
        re = quad(lambda x: f(x) * np.cos(omega * x), a, b, limit=400)[0]
        im = quad(lambda x: f(x) * np.sin(omega * x), a, b, limit=400)[0]
    return re + 1j * im


def test_zero_frequency_is_plain_polynomial_integral():
    # [TRIVIAL] integral of 1 + 2x over [0, 1] = 2
    assert poly_exp_integral((1.0, 2.0), 0.0, 1.0, 0.0) == pytest.approx(2.0)


def test_constant_times_exponential_antiderivative():
    # [TRIVIAL] (e^{i w b} - e^{i w a}) / (i w)
    w = 3.0
    expect = (np.exp(1j * w * 2.0) - np.exp(1j * w * 0.5)) / (1j * w)
    assert poly_exp_integral((1.0,), 0.5, 2.0, w) == pytest.approx(expect)


@pytest.mark.parametrize("omega", [1e-9, 0.1, 3.7, 9.9, 10.1, 45.0, 4000.0])
def test_matches_scipy_quadrature_across_regimes(omega):
    # [DERIVED] oracle: scipy adaptive quadrature of the same integrand
    coeffs = (1.0, -2.0, 0.5, 3.0)
    got = poly_exp_integral(coeffs, -0.3, 1.7, omega)
    want = _quad_oracle(coeffs, -0.3, 1.7, omega)
    assert got == pytest.approx(want, abs=1e-11)


def test_vectorized_omega_matches_scalar_calls():
    coeffs = (0.5, 1.0, -1.0)
    omegas = np.array([-40.0, -2.0, 0.0, 5.0, 123.0])
    vec = poly_exp_integral(coeffs, 0.0, 1.0, omegas)
    for i, w in enumerate(omegas):
        assert vec[i] == pytest.approx(poly_exp_integral(coeffs, 0.0, 1.0,
                                                         float(w)))


def test_many_frequencies_match_short_calls():
    # frequencies are taken in bounded blocks; 10000 of them on both sides
    # of the switch, in a 2-D omega array, against calls on 100 at a time
    coeffs = np.array([[0.5, 0.0], [1.0, 0.0], [-1.0, 2.0], [0.25, -1.0]])
    omegas = np.linspace(-8.0, 8.0, 10000).reshape(100, 100)
    got = poly_exp_integral(coeffs, 0.2, 1.0, omegas)
    assert got.shape == (100, 100, 2)
    for row, w in zip(got, omegas):
        want = poly_exp_integral(coeffs, 0.2, 1.0, w)
        assert np.max(np.abs(row - want)) <= 1e-14 * np.sum(np.abs(coeffs))


def test_negated_frequency_conjugates_real_integrand():
    coeffs = (1.0, 0.3)
    got = poly_exp_integral(coeffs, 0.0, 2.0, -7.0)
    assert got == pytest.approx(np.conj(poly_exp_integral(coeffs, 0.0, 2.0,
                                                          7.0)))


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=5),
    width=st.floats(0.01, 3.0),
    a=st.floats(-2.0, 2.0),
    omega=st.floats(-200.0, 200.0),
)
def test_property_matches_scipy(coeffs, width, a, omega):
    got = poly_exp_integral(tuple(coeffs), a, a + width, omega)
    want = _quad_oracle(coeffs, a, a + width, omega)
    scale = max(1.0, abs(want))
    assert abs(got - want) < 1e-9 * scale


@pytest.mark.parametrize("degree", [0, 4, 8])
def test_monomials_match_mpmath_on_both_sides_of_the_switch(degree):
    # [DERIVED] integral_{-4}^{4} s^n e^{i omega s} ds, the panel-weight
    # integral, against 40-digit mpmath quadrature for |omega| * 4 from 0.1
    # to 16; the Taylor / recurrence switch sits at 1 + degree / 2
    switch = 1.0 + 0.5 * degree
    xs = np.concatenate([np.linspace(0.1, 16.0, 33),
                         switch * (1.0 + np.array([-1e-12, 0.0, 1e-12]))])
    omegas = np.where(np.arange(xs.size) % 2, -1.0, 1.0) * xs / 4.0
    got = poly_exp_integral((0.0,) * degree + (1.0,), -4.0, 4.0, omegas)
    with mpmath.workdps(40):
        for g, w in zip(got, omegas):
            want = complex(mpmath.quad(
                lambda s: s**degree * mpmath.expj(w * s), [-4, 4]))
            assert abs(g - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("h", [4.0, 4e-3])
def test_every_degree_from_one_call_matches_mpmath(h):
    # [DERIVED] J_n(omega) = integral_{-h}^{h} s^n e^{i omega s} ds for
    # n = 0..12 from the identity coefficient matrix, against 40-digit
    # mpmath quadrature; degree 12 switches branches at |omega| h = 7
    xs = np.array([0.0, 0.3, 2.0, 5.5, 6.9, 7.0, 7.1, 9.0, 14.0])
    omegas = np.where(np.arange(xs.size) % 2, -1.0, 1.0) * xs / h
    got = poly_exp_integral(np.eye(13), -h, h, omegas)
    assert got.shape == (xs.size, 13)
    with mpmath.workdps(40):
        for row, w in zip(got, omegas):
            for n, g in enumerate(row):
                want = complex(mpmath.quad(
                    lambda s: s**n * mpmath.expj(w * s), [-h, 0, h]))
                scale = 2.0 * h ** (n + 1) / (n + 1)
                assert abs(g - want) <= 3e-14 * scale


@settings(max_examples=100, deadline=None)
@given(
    degree=st.integers(0, 8),
    columns=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(-2.0, 2.0),
    width=st.floats(1e-3, 3.0),
    omega_h=st.one_of(st.just(0.0), st.floats(-12.0, 12.0)),
    spread=st.floats(0.0, 3.0),
)
def test_columns_of_a_2d_call_match_1d_calls(degree, columns, seed, a,
                                              width, omega_h, spread):
    # one polynomial per column, the last one zero; a scalar omega and an
    # array that straddles the Taylor / recurrence switch at
    # |omega| h = 1 + degree / 2 (h = width / 2)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((degree + 1, columns))
    coeffs[:, -1] = 0.0
    b = a + width
    omega = 2.0 * omega_h / width
    omegas = omega + np.linspace(-spread, spread, 7) * 2.0 / width
    reach = max(abs(a), abs(b))
    for w in (omega, omegas):
        got = poly_exp_integral(coeffs, a, b, w)
        assert got.shape == np.shape(w) + (columns,)
        for j in range(columns):
            want = poly_exp_integral(coeffs[:, j], a, b, w)
            # the omega = 0 scale of sum |c_n| |x|^n over [a, b]
            scale = width * np.sum(np.abs(coeffs[:, j])
                                   * reach ** np.arange(degree + 1))
            assert np.all(np.abs(got[..., j] - want) <= 1e-14 * scale)
    assert np.all(got[:, -1] == 0.0)


def _mp_exp_integral(omega, T):
    """[DERIVED] (e^{i omega T} - 1) / (i omega) in 40-digit arithmetic."""
    if omega == 0.0:
        return complex(T)
    with mpmath.workdps(40):
        w = mpmath.mpf(omega)
        return complex(mpmath.expm1(1j * w * T) / (1j * w))


@settings(max_examples=200, deadline=None)
@given(T=st.floats(1e-3, 10.0),
       omega_T=st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6),
                         st.floats(-1e3, 1e3)))
def test_exp_integral_matches_mpmath(T, omega_T):
    omega = omega_T / T
    got = _exp_integral(omega, T)
    want = _mp_exp_integral(omega, T)
    # |E| <= T; the error stays below 2 eps T at every omega T, inside the
    # floor c eps (1 + |omega| T) T that rounding omega T sets, c = 4
    bound = 4.0 * np.finfo(float).eps * (1.0 + abs(omega) * T) * T
    assert abs(got - want) <= bound


def test_exp_integral_keeps_the_shape_and_the_zero_frequency():
    omegas = np.array([[0.0, -0.0], [1e-300, -2.5]])
    got = _exp_integral(omegas, 1.5)
    assert got.shape == (2, 2)
    assert got[0, 0] == got[0, 1] == 1.5
    assert got[1, 1] == np.conj(_exp_integral(2.5, 1.5))


def test_adaptive_integral_converges_on_smooth_integrand():
    val = adaptive_integral(lambda x: np.sin(3 * x)[None, :], 0.0, 2.0)
    want = (1.0 - np.cos(6.0)) / 3.0
    assert complex(val[0]) == pytest.approx(want, abs=1e-12)


def test_adaptive_integral_reports_both_estimates_on_failure():
    # a genuinely rough integrand never settles within the refinement cap
    rng = np.random.default_rng(0)

    def noisy(x):
        return rng.standard_normal(x.shape)[None, :]

    with pytest.raises(QuadratureError) as err:
        adaptive_integral(noisy, 0.0, 1.0, max_refinements=4)
    assert err.value.last_estimate is not None
    assert err.value.previous_estimate is not None


@pytest.mark.parametrize("h", [1e-2, 1e-3])
@pytest.mark.parametrize("omega_h", [0.2, 2.0])
def test_high_power_on_a_short_interval(h, omega_h):
    # [DERIVED] x^8 on one 8-step panel [-4h, 4h]: every Taylor term lies
    # far below 1e-18, so the series must stop relative to its own sum.
    # Oracle: 40-point Gauss-Legendre, exact for this entire integrand.
    omega = omega_h / h
    x, w = np.polynomial.legendre.leggauss(40)
    s = 4 * h * x
    want = 4 * h * np.sum(w * s**8 * np.exp(1j * omega * s))
    got = poly_exp_integral((0.0,) * 8 + (1.0,), -4 * h, 4 * h, omega)
    assert abs(got - want) <= 1e-12 * abs(want)
