"""Oscillatory-integral primitives against scipy quadrature oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bilinctrl.errors import QuadratureError
from bilinctrl.integrals import adaptive_integral, poly_exp_integral


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
