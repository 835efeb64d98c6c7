"""Piecewise potentials, spectral coefficients, and lower-bound checks.

The published closed-form coefficient families for the Dirichlet example are
printed for unnormalized sine modes; with the L2-normalized eigenfunctions
used throughout this package (sqrt(2) sin, sqrt(2) cos) every coefficient in
those families is exactly twice the printed value.  The oracles below carry
that factor explicitly, and the quadrature cross-checks pin the convention.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bilinctrl.errors import DomainError
from bilinctrl.potentials import (BoundWeight, CoefficientMethod,
                                  PiecewisePotential, PotentialDomain,
                                  coefficient_table, dirichlet_example,
                                  half_line_step,
                                  harmonic_coefficient_identity,
                                  harmonic_tail_coefficient, indicator,
                                  inner_product, neumann_example,
                                  neumann_obstruction_scan, periodic_example,
                                  verify_lower_bound, weighted_moduli)
from bilinctrl.spectral import (ModelKind, SpectralModel, eigenfunction_value,
                                eigenvalue, index_window)

DIRICHLET = SpectralModel.dirichlet()
NEUMANN = SpectralModel.neumann()
HARMONIC = SpectralModel.harmonic()
PERIODIC = SpectralModel.periodic(1.0)

# the sine/cosine normalization factor missing from the printed families
SINE_NORMALIZATION = 2.0


def dirichlet_even_family(k: int) -> float:
    """Printed |<phi_2k, mu phi_1>| family, k >= 1."""
    return abs(2.0 * (-1) ** k * k / (-np.pi + 4 * k**2 * np.pi))


def dirichlet_odd_family(k: int) -> float:
    """Printed |<phi_{2k-1}, mu phi_1>| family; divides by zero at k=1."""
    return abs((k * np.cos(k * np.pi / 2) + (1 - k) * np.sin(k * np.pi / 2))
               / (2 * k * (k - 1) * np.pi))


def periodic_family(k: int) -> complex:
    return ((-1) ** (k + 1) + 1 - 1j * k * np.pi) / (4 * k**2 * np.pi**2)


class TestPiecewisePotential:
    def test_pointwise_values_of_the_overlapping_indicators(self):
        mu = dirichlet_example()
        assert mu(0.1) == 1.0
        assert mu(0.3) == 2.0
        assert mu(0.6) == 1.0
        assert mu(0.9) == 0.0

    def test_breakpoints_must_increase(self):
        with pytest.raises(DomainError):
            PiecewisePotential((0.5, 0.25), ((0.0,), (1.0,), (0.0,)))

    def test_piece_count_must_match(self):
        with pytest.raises(DomainError):
            PiecewisePotential((0.5,), ((1.0,),))

    def test_real_line_outer_pieces_must_be_constant(self):
        with pytest.raises(DomainError):
            PiecewisePotential((0.0,), ((0.0, 1.0), (0.0,)),
                               PotentialDomain.REAL_LINE)


class TestInnerProduct:
    def test_zero_potential_gives_zero(self):
        # [TRIVIAL]
        zero = PiecewisePotential((), ((0.0,),))
        assert inner_product(zero, DIRICHLET, 1, 5) == 0.0

    def test_dirichlet_example_first_even_coefficient(self):
        # printed value 2/(3 pi), times the sine normalization
        got = abs(inner_product(dirichlet_example(), DIRICHLET, 1, 2))
        assert got == pytest.approx(SINE_NORMALIZATION * 2.0 / (3.0 * np.pi),
                                    rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 201))
    def test_dirichlet_even_family_up_to_200(self, k):
        # [PAPER] |2 (-1)^k k / (-pi + 4 k^2 pi)| at index 2k, renormalized
        got = abs(inner_product(dirichlet_example(), DIRICHLET, 1, 2 * k))
        assert got == pytest.approx(
            SINE_NORMALIZATION * dirichlet_even_family(k), rel=1e-10)

    @pytest.mark.parametrize("k", range(2, 201))
    def test_dirichlet_odd_family_up_to_200(self, k):
        # [PAPER] odd family at index 2k-1, valid only for k >= 2
        got = abs(inner_product(dirichlet_example(), DIRICHLET, 1, 2 * k - 1))
        assert got == pytest.approx(
            SINE_NORMALIZATION * dirichlet_odd_family(k), rel=1e-10)

    def test_dirichlet_odd_family_k1_is_a_typo(self):
        # the printed denominator 2k(k-1)pi vanishes at k=1, but the actual
        # coefficient <phi_1, mu phi_1> is finite and nonzero
        with np.errstate(invalid="ignore", divide="ignore"):
            assert not np.isfinite(dirichlet_odd_family(1))
        got = inner_product(dirichlet_example(), DIRICHLET, 1, 1)
        oracle = quad(lambda x: dirichlet_example()(x)
                      * 2 * np.sin(np.pi * x) ** 2, 0, 1, limit=200)[0]
        assert got.real == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("k", [k for k in range(-200, 201) if k != 0])
    def test_periodic_family_up_to_200(self, k):
        # [PAPER] ((-1)^{k+1} + 1 - i k pi) / (4 k^2 pi^2)
        got = abs(inner_product(periodic_example(), PERIODIC, 0, k))
        assert got == pytest.approx(abs(periodic_family(k)), rel=1e-10)

    def test_periodic_first_coefficient_value(self):
        got = abs(inner_product(periodic_example(), PERIODIC, 0, 1))
        assert got == pytest.approx(abs(2 - 1j * np.pi) / (4 * np.pi**2),
                                    rel=1e-12)

    @pytest.mark.parametrize("model,mu", [
        (DIRICHLET, dirichlet_example()),
        (NEUMANN, neumann_example()),
        (PERIODIC, periodic_example()),
        (HARMONIC, half_line_step(0.3)),
    ])
    def test_closed_form_agrees_with_quadrature_up_to_100(self, model, mu):
        l = 1 if model is DIRICHLET else 0
        table = coefficient_table(mu, model, l, 100)
        for k in list(table.indices)[::7]:
            cf = inner_product(mu, model, table.l, int(k),
                               CoefficientMethod.CLOSED_FORM)
            qd = inner_product(mu, model, table.l, int(k),
                               CoefficientMethod.QUADRATURE)
            assert cf == pytest.approx(qd, abs=1e-10)

    def test_dirichlet_and_neumann_coefficients_are_real(self):
        for model, mu, l in ((DIRICHLET, dirichlet_example(), 1),
                             (NEUMANN, neumann_example(), 0)):
            table = coefficient_table(mu, model, l, 50)
            assert max(abs(v.imag) for v in table.values) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(l=st.integers(-6, 6), k=st.integers(-6, 6),
           b1=st.floats(0.1, 0.45), b2=st.floats(0.55, 0.9),
           c=st.floats(-2, 2))
    def test_periodic_conjugate_symmetry(self, l, k, b1, b2, c):
        # <mu phi_l, phi_k> = conj(<mu phi_k, phi_l>) for real mu
        mu = PiecewisePotential((b1, b2), ((c,), (1.0, -0.5), (0.0,)))
        lhs = inner_product(mu, PERIODIC, l, k)
        rhs = inner_product(mu, PERIODIC, k, l)
        assert lhs == pytest.approx(np.conj(rhs), abs=1e-12)

    def test_domain_mismatch_is_rejected(self):
        with pytest.raises(DomainError):
            inner_product(half_line_step(0.0), DIRICHLET, 1, 2)
        with pytest.raises(DomainError):
            inner_product(dirichlet_example(), HARMONIC, 0, 1)

    def test_harmonic_half_line_step_matches_closed_form(self):
        # [DERIVED] the l=0 column of the half-line step potential is the
        # closed-form tail integral
        a = 0.3
        mu = half_line_step(a)
        for k in (1, 2, 5, 10):
            got = inner_product(mu, HARMONIC, 0, k)
            assert got.real == pytest.approx(harmonic_tail_coefficient(a, k),
                                             abs=1e-12)
            assert abs(got.imag) < 1e-14


class TestLowerBounds:
    def test_dirichlet_example_passes_inverse_k(self):
        # [DERIVED] min over k <= 200 of k |coef| stays away from zero
        table = coefficient_table(dirichlet_example(), DIRICHLET, 1, 200)
        report = verify_lower_bound(table, BoundWeight.INVERSE_K)
        assert report.passed
        assert report.worst_constant > 0.1

    def test_periodic_example_passes_inverse_k_plus_1(self):
        table = coefficient_table(periodic_example(), PERIODIC, 0, 401)
        report = verify_lower_bound(table, BoundWeight.INVERSE_K_PLUS_1)
        assert report.passed
        assert report.worst_constant > 0.01

    def test_zero_potential_fails(self):
        # [TRIVIAL]
        zero = PiecewisePotential((), ((0.0,),))
        table = coefficient_table(zero, DIRICHLET, 1, 10)
        report = verify_lower_bound(table, BoundWeight.INVERSE_K)
        assert not report.passed
        assert report.worst_constant == 0.0

    def test_weights_scale_as_documented(self):
        assert BoundWeight.INVERSE_K.multiplier(-3, PERIODIC) == 3.0
        assert BoundWeight.INVERSE_K_PLUS_1.multiplier(3, PERIODIC) == 4.0
        assert BoundWeight.INVERSE_SQRT_LAMBDA.multiplier(4, HARMONIC) == 3.0

    def test_dirichlet_sqrt_lambda_constants_are_pi_times_inverse_k(self):
        # [PAPER] sqrt(lambda_k) = k pi on the Dirichlet model
        table = coefficient_table(dirichlet_example(), DIRICHLET, 1, 50)
        _, by_k = weighted_moduli(table, BoundWeight.INVERSE_K)
        _, by_root = weighted_moduli(table, BoundWeight.INVERSE_SQRT_LAMBDA)
        np.testing.assert_allclose(by_root, np.pi * by_k, rtol=1e-15)
        report = verify_lower_bound(table, BoundWeight.INVERSE_SQRT_LAMBDA)
        assert report.argmin_index == 5
        assert report.worst_constant == pytest.approx(1.666666666666666,
                                                      rel=1e-15)


# each model with a potential on its domain and a mode of its window
_WEIGHT_CASES = [(DIRICHLET, dirichlet_example(), 1),
                 (PERIODIC, periodic_example(), 0),
                 (NEUMANN, neumann_example(), 0),
                 (HARMONIC, half_line_step(0.3), 0)]


class TestBoundWeightRule:
    @pytest.mark.parametrize("model, mu, l", _WEIGHT_CASES,
                             ids=[m.kind.value for m, *_ in _WEIGHT_CASES])
    @pytest.mark.parametrize("weight", list(BoundWeight),
                             ids=lambda w: w.value)
    @pytest.mark.parametrize("size", [2, 3, 40])
    def test_accepted_exactly_where_the_multiplier_is_finite_and_positive(
            self, model, mu, l, weight, size):
        table = coefficient_table(mu, model, l, size)
        with np.errstate(invalid="ignore"):
            m = weight.multiplier(table.indices, model)
        valid = bool(np.all(np.isfinite(m) & (m > 0.0)))
        assert (weight in model.kind.laws.weights) is valid
        if valid:
            modulus, weighted = weighted_moduli(table, weight)
            assert np.array_equal(weighted, modulus * m)
            verify_lower_bound(table, weight)
            return
        pattern = rf"{weight.value} .* {model.kind.value} model"
        with pytest.raises(DomainError, match=pattern):
            weighted_moduli(table, weight)
        with pytest.raises(DomainError, match=pattern):
            verify_lower_bound(table, weight)

    @pytest.mark.parametrize(
        "model", [m for m, *_ in _WEIGHT_CASES
                  if BoundWeight.INVERSE_SQRT_LAMBDA in m.kind.laws.weights],
        ids=lambda m: m.kind.value)
    def test_sqrt_lambda_weight_is_the_root_of_the_eigenvalue(self, model):
        ks = index_window(model, 40)
        got = BoundWeight.INVERSE_SQRT_LAMBDA.multiplier(ks, model)
        assert got.tobytes() == np.sqrt(eigenvalue(model, ks)).tobytes()

    def test_default_weights_come_first(self):
        # the defaults the coeffs and bound-check verbs have always used
        assert [kind.laws.weights[0] for kind in ModelKind] == [
            BoundWeight.INVERSE_K, BoundWeight.INVERSE_K_PLUS_1,
            BoundWeight.INVERSE_K_PLUS_1, BoundWeight.INVERSE_SQRT_LAMBDA]


class TestNeumannObstruction:
    def test_rational_breakpoints_give_exact_zeros(self):
        # [DERIVED] sqrt(2)(sin(2k pi/3) - sin(k pi/3))/(k pi) vanishes on 3N
        report = neumann_obstruction_scan(neumann_example(), 60)
        for k in (3, 6, 9, 30, 60):
            assert report.weighted[k - 1] < 1e-13

    def test_closed_form_coefficients(self):
        report = neumann_obstruction_scan(neumann_example(), 40)
        ks = np.arange(1, 41)
        want = (ks + 1) * np.abs(
            np.sqrt(2.0) * (np.sin(2 * ks * np.pi / 3)
                            - np.sin(ks * np.pi / 3)) / (ks * np.pi))
        assert np.allclose(report.weighted, want, atol=1e-12)

    def test_irrational_breakpoint_decays_below_ten_percent(self):
        # [DERIVED] continued-fraction convergents of sqrt(2)-1 give indices
        # with |sin(k pi r)| <= pi/k, so (k+1)|coef| keeps collapsing
        r = math.sqrt(2.0) - 1.0
        report = neumann_obstruction_scan(indicator(0.0, r), 100000)
        assert report.final_min < 0.1 * report.initial_level
        assert np.all(np.diff(report.running_min) <= 0)

    def test_constant_potential_is_orthogonal_to_all_modes(self):
        # [TRIVIAL]
        mu = PiecewisePotential((), ((1.0,),))
        report = neumann_obstruction_scan(mu, 10)
        assert np.all(report.weighted < 1e-12)


class TestHarmonicIdentity:
    @pytest.mark.parametrize("a", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 5, 17, 50])
    def test_tail_integral_closed_form(self, a, k):
        # [DERIVED] quadrature oracle of integral_a^inf phi_k phi_0
        report = harmonic_coefficient_identity(a, k)
        assert report.abs_error <= 1e-10

    def test_value_at_origin_k1(self):
        # [DERIVED] integral_0^inf phi_1 phi_0 = 1/sqrt(2 pi)
        report = harmonic_coefficient_identity(0.0, 1)
        assert report.lhs.real == pytest.approx(1.0 / np.sqrt(2 * np.pi),
                                                abs=1e-10)

    def test_far_tail_is_negligible(self):
        # [TRIVIAL] Gaussian decay beyond a = 12
        report = harmonic_coefficient_identity(12.0, 1)
        assert abs(report.lhs) < 1e-10
        assert abs(report.rhs) < 1e-10

    def test_printed_half_line_formula_misses_gaussian_factor(self):
        # the published closed form phi_{k-1}(a) / (2 sqrt(k sqrt(pi)))
        # differs from the true tail integral by sqrt(2) e^{-a^2/2}; pin the
        # discrepancy so the corrected form stays flagged
        for a, k in ((0.0, 1), (0.3, 4), (1.0, 7)):
            printed = (eigenfunction_value(HARMONIC, k - 1, a)
                       / (2.0 * np.sqrt(k * np.sqrt(np.pi))))
            true = harmonic_tail_coefficient(a, k)
            assert true == pytest.approx(
                printed * np.sqrt(2.0) * np.exp(-0.5 * a * a), rel=1e-12)
            if a == 0.0:
                assert abs(true - printed) > 0.1 * abs(true)

    def test_index_zero_rejected(self):
        with pytest.raises(DomainError):
            harmonic_coefficient_identity(0.5, 0)


def test_coefficient_table_round_trips_and_caches():
    t1 = coefficient_table(dirichlet_example(), DIRICHLET, 1, 30)
    t2 = coefficient_table(dirichlet_example(), DIRICHLET, 1, 30)
    assert t1 is t2  # cached value objects
    assert t1.values[1] == pytest.approx(
        inner_product(dirichlet_example(), DIRICHLET, 1, 2))


def test_cached_table_refuses_writes_and_keeps_its_values():
    table = coefficient_table(periodic_example(), PERIODIC, 0, 41)
    before = (table.indices.copy(), table.values.copy())
    for arr, value in ((table.indices, 7), (table.values, 1.0 + 0j),
                       (table.values.real, 0.5)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = value
    again = coefficient_table(periodic_example(), PERIODIC, 0, 41)
    assert again is table
    assert np.array_equal(again.indices, before[0])
    assert np.array_equal(again.values, before[1])
