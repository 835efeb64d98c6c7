"""Spectral models: eigenvalue laws, eigenfunctions, resonance, and gaps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_hermite, gammaln

from bilinctrl.errors import DomainError
from bilinctrl.spectral import (SpectralModel, check_resonance,
                                eigenfunction_value, eigenvalue, gap_analysis,
                                hermite_function_values, index_window,
                                opposite_pairs, transition_frequencies,
                                window_position)

DIRICHLET = SpectralModel.dirichlet()
NEUMANN = SpectralModel.neumann()
HARMONIC = SpectralModel.harmonic()
PERIODIC = SpectralModel.periodic(1.0)
MODELS = [DIRICHLET, PERIODIC, NEUMANN, HARMONIC]


class TestEigenvalues:
    def test_dirichlet_ground_state(self):
        # [PAPER] lambda_k = k^2 pi^2
        assert eigenvalue(DIRICHLET, 1) == pytest.approx(np.pi**2)

    def test_periodic_driftfree_symmetry(self):
        # [TRIVIAL] with no drift, lambda_k = lambda_{-k}
        model = SpectralModel.periodic(0.0)
        assert eigenvalue(model, -1) == pytest.approx(4 * np.pi**2)
        assert eigenvalue(model, -1) == eigenvalue(model, 1)

    def test_harmonic_ground_state(self):
        # [PAPER] lambda_k = 2k + 1
        assert eigenvalue(HARMONIC, 0) == 1.0

    @pytest.mark.parametrize("model,law", [
        (DIRICHLET, lambda k: k**2 * np.pi**2),
        (NEUMANN, lambda k: k**2 * np.pi**2),
        (HARMONIC, lambda k: 2.0 * k + 1.0),
        (SpectralModel.periodic(np.sqrt(2)),
         lambda k: 4 * np.pi**2 * k**2 - 2 * np.pi * np.sqrt(2) * k),
    ])
    def test_closed_form_over_500_indices(self, model, law):
        ks = index_window(model, 500)
        got = eigenvalue(model, ks)
        want = law(ks.astype(float))
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("model", [DIRICHLET, NEUMANN, HARMONIC])
    def test_monotone_in_the_index(self, model):
        vals = eigenvalue(model, index_window(model, 300))
        assert np.all(np.diff(vals) > 0)

    def test_index_outside_the_set_is_rejected(self):
        with pytest.raises(DomainError):
            eigenvalue(DIRICHLET, 0)
        with pytest.raises(DomainError):
            eigenvalue(HARMONIC, -1)


class TestEigenfunctions:
    def test_dirichlet_midpoint(self):
        # [TRIVIAL] sqrt(2) sin(pi/2)
        assert eigenfunction_value(DIRICHLET, 1, 0.5) == pytest.approx(
            np.sqrt(2.0))

    def test_neumann_constant_mode(self):
        for x in (0.0, 0.3, 1.0):
            assert eigenfunction_value(NEUMANN, 0, x) == 1.0

    def test_harmonic_ground_state_at_origin(self):
        assert eigenfunction_value(HARMONIC, 0, 0.0) == pytest.approx(
            np.pi ** (-0.25))

    def test_periodic_modulus_one(self):
        val = eigenfunction_value(SpectralModel.periodic(1.0), 3, 0.2)
        assert abs(val) == pytest.approx(1.0)
        assert val == pytest.approx(np.exp(2j * 3 * np.pi * 0.2))

    def test_point_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            eigenfunction_value(DIRICHLET, 1, 1.5)

    @pytest.mark.parametrize("k", range(16))
    def test_hermite_recurrence_matches_direct_formula(self, k):
        # [DERIVED] oracle: phi_k = (sqrt(pi) 2^k k!)^{-1/2} e^{-x^2/2} H_k
        x = np.linspace(-4.0, 4.0, 41)
        lognorm = -0.25 * np.log(np.pi) - 0.5 * (
            k * np.log(2.0) + gammaln(k + 1))
        want = np.exp(lognorm - 0.5 * x**2) * eval_hermite(k, x)
        got = hermite_function_values(k, x)[k]
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_hermite_no_overflow_at_large_index(self):
        vals = hermite_function_values(500, np.linspace(-10, 10, 101))
        assert np.all(np.isfinite(vals))

    def test_hermite_orthonormality_on_quadrature_grid(self):
        from bilinctrl.integrals import panel_grid, panel_nodes
        nodes, weights = panel_nodes(panel_grid(-15.0, 15.0, (), 0.5))
        phi = hermite_function_values(10, nodes)
        gram = (phi * weights) @ phi.T
        assert np.allclose(gram, np.eye(11), atol=1e-12)

    def test_scaled_sup_norm_stable_over_k(self):
        # the k^{-1/4} amplitude law on a fixed compact window
        x = np.linspace(-10.0, 10.0, 4001)
        phi = hermite_function_values(500, x)
        ks = np.arange(10, 501)
        scaled = ks**0.25 * np.abs(phi[10:]).max(axis=1)
        assert scaled.max() < 1.5
        assert scaled.min() > 0.5
        assert scaled.max() / scaled.min() < 2.0


class TestResonance:
    @pytest.mark.parametrize("l", [1, 2, 3, 4, 6, 7, 8, 9])
    def test_valid_modes_pass_over_window_200(self, l):
        # [DERIVED] brute force over all pairs
        report = check_resonance(l, 200)
        assert report.ok
        assert report.violations == ()

    def test_l5_fails_with_witness_7_1(self):
        # [PAPER] 7^2 - 5^2 = 5^2 - 1^2
        report = check_resonance(5, 200)
        assert not report.ok
        assert (7, 1) in report.violations

    def test_matches_brute_force(self):
        K = 60
        for l in range(1, 12):
            want = set()
            for j in range(1, K + 1):
                for k in range(1, K + 1):
                    if j != l and k != l and j * j - l * l == l * l - k * k:
                        want.add((j, k))
            assert set(check_resonance(l, K).violations) == want


def _integer_resonances(l, ks):
    """Pairs j^2 + k^2 = 2 l^2, j, k in ks \\ {l} (ascending), sorted by k,
    then j: the exact integer algorithm, one dictionary lookup per k.  On the
    Dirichlet modes and the drift-free periodic ones these are the pairs with
    lambda_j + lambda_k = 2 lambda_l."""
    roots = {}
    for j in ks:
        if j != l:
            roots.setdefault(j * j, []).append(j)
    return tuple((j, k) for k in ks if k != l
                 for j in roots.get(2 * l * l - k * k, ()))


class TestResonanceOnEveryModel:
    @pytest.mark.parametrize("l", [5, 25, 65, 325, 1105, 5525, 32045])
    def test_dirichlet_matches_the_integer_law_at_K_1e5(self, l):
        # an absolute 1e-9 tolerance on the float frequencies finds only 2 of
        # the 26 pairs at l = 1105: rounding in lambda_j grows with lambda_l
        want = _integer_resonances(l, range(1, 100_001))
        assert want
        assert check_resonance(l, 100_000).violations == want

    @pytest.mark.parametrize("model, l, K, window", [
        # 2 l^2 - 1 = 4556^2 + 44489^2: the sum misses 2 lambda_l by pi^2
        (DIRICHLET, 31623, 100_000, range(1, 100_001)),
        # (l + 1, l - 1) misses it by 8 pi^2
        (SpectralModel.periodic(0.0), 49_000, 100_000,
         range(-50_000, 50_001)),
    ])
    def test_a_near_miss_is_no_pair_at_large_l(self, model, l, K, window):
        # a tolerance of 1e-9 lambda_l (10.0 and 94.8 here) reports 16 and 8
        # such near misses; only the integer law's pairs remain
        want = _integer_resonances(l, window)
        assert check_resonance(l, K, model).violations == want

    def test_harmonic_equal_spacing_resonates(self):
        # lambda_k = 2k + 1: nu_4 = -nu_0 and nu_3 = -nu_1 around l = 2
        report = check_resonance(2, 10, HARMONIC)
        assert not report.ok
        assert report.violations == ((4, 0), (3, 1), (1, 3), (0, 4))

    def test_driftfree_periodic_degeneracy_is_a_self_collision(self):
        # lambda_{-1} = lambda_1 without drift, so nu_{-1} = 0 = -nu_{-1}
        report = check_resonance(1, 10, SpectralModel.periodic(0.0))
        assert report.violations == ((-1, -1),)

    @pytest.mark.parametrize("l", [-3, 0, 1, 4])
    def test_drift_splits_the_periodic_resonances(self, l):
        assert check_resonance(l, 50, PERIODIC).ok

    @pytest.mark.parametrize("model", [NEUMANN, HARMONIC])
    def test_mode_zero_is_accepted(self, model):
        report = check_resonance(0, 50, model)
        assert report.ok and report.l == 0 and report.window == 50

    @pytest.mark.parametrize("model, l", [
        (DIRICHLET, 0), (DIRICHLET, 11), (NEUMANN, 10), (NEUMANN, -1),
        (HARMONIC, 10), (PERIODIC, 11), (PERIODIC, -11), (PERIODIC, 6),
        (PERIODIC, -6)])
    def test_mode_outside_the_window_is_rejected(self, model, l):
        with pytest.raises(DomainError):
            check_resonance(l, 10, model)
        with pytest.raises(DomainError):
            gap_analysis(model, l, 10)

    @settings(max_examples=120, deadline=None)
    @given(model=st.sampled_from(MODELS + [SpectralModel.periodic(0.0),
                                           SpectralModel.periodic(0.5)]),
           K=st.integers(2, 120), data=st.data())
    def test_a_reported_pair_is_a_collision_that_gaps_sees(self, model, K,
                                                          data):
        window = index_window(model, K)
        l = data.draw(st.sampled_from(window.tolist()))
        report = check_resonance(l, K, model)
        lam_l = eigenvalue(model, l)
        for j, k in report.violations:
            assert l not in (j, k) and j in window and k in window
            assert abs(eigenvalue(model, j) + eigenvalue(model, k)
                       - 2 * lam_l) < max(1e-9, 1024 * np.spacing(abs(lam_l)))
        if not report.ok:
            assert not gap_analysis(model, l, K).distinct

    @settings(max_examples=200, deadline=None)
    @given(nu=st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.5, -2.5, 1e-10,
                                        -3e-10, 7.0, 1e9, -1e9]),
                       max_size=12),
           tol=st.sampled_from([1e-9, 1e-6, 0.5, 1.0]))
    def test_opposite_pairs_match_a_full_table(self, nu, tol):
        nu = np.asarray(nu, dtype=float)
        i, j = opposite_pairs(nu, tol)
        want = np.argwhere(np.abs(nu[:, None] + nu[None, :]) < tol)
        assert np.array_equal(np.column_stack((i, j)), want)


class TestGaps:
    def test_harmonic_gap_is_two(self):
        # [PAPER] spectrum 2k+1: consecutive transition frequencies differ by 2
        report = gap_analysis(HARMONIC, 0, 50)
        assert report.min_gap == pytest.approx(2.0)
        assert report.gamma_estimate == pytest.approx(2.0)
        assert report.distinct

    @pytest.mark.parametrize("drift", [1.0, np.sqrt(2.0), np.pi / 3.0])
    def test_periodic_drift_splits_eigenvalues(self, drift):
        model = SpectralModel.periodic(drift)
        for l in (0, 1):
            report = gap_analysis(model, l, 100)
            assert report.distinct
            assert report.min_gap > 0

    def test_driftfree_periodic_has_duplicates(self):
        report = gap_analysis(SpectralModel.periodic(0.0), 0, 5)
        assert not report.distinct
        assert report.min_gap == pytest.approx(0.0)
        # nu_{-1} = 0 around l = 1: its reflection is +0.0, so no gap of -0
        report = gap_analysis(SpectralModel.periodic(0.0), 1, 10)
        assert repr(report.min_gap) == "0.0"

    def test_collision_at_the_rounding_scale_is_not_distinct(self):
        # lambda_j + lambda_k = 2 lambda_l for 8 integer pairs, which round
        # to a gap of a few ulps of lambda_l ~ 2e10, far above 1e-9
        report = gap_analysis(DIRICHLET, 45000, 100000)
        assert 0.0 < report.min_gap < 1e-5
        assert not check_resonance(45000, 100000).ok
        assert not report.distinct

    @pytest.mark.parametrize("model,l", [(DIRICHLET, 1),
                                         (SpectralModel.periodic(1.0), 0),
                                         (SpectralModel.neumann(), 0),
                                         (HARMONIC, 0)])
    def test_small_windows_stay_distinct(self, model, l):
        # the CLI's default window K = 20
        assert gap_analysis(model, l, 20).distinct

    def test_merged_sequence_is_symmetric_and_contains_zero(self):
        nu = transition_frequencies(DIRICHLET, 1, 30)
        assert 0.0 in nu
        assert np.allclose(np.sort(-nu), nu)
        # the periodic window of size 20 is -10..10: 20 modes besides l
        assert transition_frequencies(PERIODIC, 0, 20).size == 41

    @settings(max_examples=30, deadline=None)
    @given(l=st.integers(1, 10), K=st.integers(11, 80))
    def test_gamma_estimate_never_below_min_gap(self, l, K):
        report = gap_analysis(DIRICHLET, l, K)
        assert report.gamma_estimate >= report.min_gap


class TestIndexWindows:
    def test_periodic_window_is_symmetric(self):
        window = index_window(SpectralModel.periodic(1.0), 7)
        assert list(window) == [-3, -2, -1, 0, 1, 2, 3]

    def test_dirichlet_window_starts_at_one(self):
        assert list(index_window(DIRICHLET, 4)) == [1, 2, 3, 4]

    def test_nonnegative_window_starts_at_zero(self):
        assert list(index_window(HARMONIC, 3)) == [0, 1, 2]

    @settings(max_examples=80, deadline=None)
    @given(model=st.sampled_from(MODELS), N=st.integers(1, 200),
           data=st.data())
    def test_window_position_maps_every_window_index(self, model, N, data):
        window = index_window(model, N)
        # an even periodic size names the odd window one longer
        assert window.size == N + (model is PERIODIC and N % 2 == 0)
        assert np.array_equal(window_position(model, N, window),
                              np.arange(window.size))
        k = data.draw(st.sampled_from(window.tolist()))
        assert window_position(model, N, k) == k - window[0]
        # a smaller window (K = 1, K = N, or between) sits inside, in order
        K = data.draw(st.one_of(st.just(1), st.just(N), st.integers(1, N)))
        inner = index_window(model, K)
        assert np.array_equal(window[window_position(model, N, inner)],
                              inner)
        model.check_index(window)

    @settings(max_examples=80, deadline=None)
    @given(model=st.sampled_from(MODELS), N=st.integers(1, 200),
           data=st.data())
    def test_indices_outside_raise_naming_the_first(self, model, N, data):
        window = index_window(model, N)
        outside = st.integers(-500, 500).filter(
            lambda j: j < window[0] or j > window[-1])
        bad = data.draw(st.lists(outside, min_size=1, max_size=4))
        ks = np.concatenate((window[:3], bad, window[-3:]))
        with pytest.raises(DomainError,
                           match=rf"^index {bad[0]} outside the truncation"):
            window_position(model, N, ks)
        with pytest.raises(DomainError, match=rf"^index {bad[0]} outside"):
            window_position(model, N, bad[0])
        below = [j for j in bad if j < window[0]]
        if model is PERIODIC or not below:
            model.check_index(ks)  # all of Z, or only indices above
        else:
            with pytest.raises(DomainError,
                               match=rf"^index {below[0]} outside the "
                                     f"{model.kind.value} index set"):
                model.check_index(ks)
