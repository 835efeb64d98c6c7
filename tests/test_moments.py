"""Trigonometric moment problems: Gram solves, symmetrization,
conditioning, and frame diagnostics."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import BarycentricInterpolator

from bilinctrl.errors import DegeneracyError, DomainError, IllConditionedError
from bilinctrl.moments import (MomentInverse, MomentProblem, _factored,
                               _gram, _reflect, moments, solve)
from bilinctrl.integrals import poly_exp_integral
from bilinctrl.propagator import (ControlSignal, _lagrange_basis,
                                  _panel_operator, _panel_weights)
from bilinctrl.spectral import SpectralModel, transition_frequencies


def _sum(a, b):
    """The control a + b on their shared grid, with both term lists."""
    return ControlSignal(a.horizon, a.samples + b.samples,
                         a.parametric + b.parametric)


def _quad_moment(u, omega):
    """[DERIVED] scipy oracle for integral_0^T e^{i omega s} u(s) ds."""
    T = u.horizon
    if abs(omega) > 50.0:
        re = quad(u, 0.0, T, weight="cos", wvar=omega, limit=400)[0]
        im = quad(u, 0.0, T, weight="sin", wvar=omega, limit=400)[0]
    else:
        re = quad(lambda s: u(s) * np.cos(omega * s), 0.0, T, limit=400)[0]
        im = quad(lambda s: u(s) * np.sin(omega * s), 0.0, T, limit=400)[0]
    return re + 1j * im


def _panel_oracle(u, omegas):
    """[DERIVED] integral_0^T p(s) e^{i omega s} ds for the 8-step panel
    interpolant p of u's samples (the last panel may be shorter): one
    barycentric interpolant per panel, integrated by 30-point
    Gauss-Legendre, which is exact to roundoff for |omega| h <= 2."""
    x, w = np.polynomial.legendre.leggauss(30)
    h = u.step
    out = np.zeros(omegas.shape, dtype=complex)
    for a in range(0, u.n_steps, 8):
        b = min(a + 8, u.n_steps)
        mid, half = 0.5 * (a + b) * h, 0.5 * (b - a) * h
        p = BarycentricInterpolator(np.arange(a, b + 1) * h - mid,
                                    u.samples[a:b + 1])
        local = np.exp(1j * np.multiply.outer(omegas, half * x))
        out += half * np.exp(1j * omegas * mid) * (local @ (w * p(half * x)))
    return out


class TestMoments:
    def test_constant_control_zero_frequency(self):
        # [TRIVIAL] integral of 1 over [0, 3]
        u = ControlSignal.constant(1.0, 3.0, 64)
        assert moments(u, np.array([0.0]))[0] == pytest.approx(3.0)

    def test_constant_control_nonzero_frequency(self):
        # [TRIVIAL] (e^{i w T} - 1) / (i w)
        u = ControlSignal.constant(2.0, 1.5, 64)
        w = 4.0
        want = 2.0 * (np.exp(1j * w * 1.5) - 1.0) / (1j * w)
        assert moments(u, np.array([w]))[0] == pytest.approx(want)

    def test_matched_cosine_over_full_periods(self):
        # [TRIVIAL] integral_0^{2 pi} e^{5is} cos(5s) ds = pi
        u = ControlSignal.from_terms(((5.0, 0.5), (-5.0, 0.5)), 2 * np.pi,
                                     4096)
        assert moments(u, np.array([5.0]))[0] == pytest.approx(np.pi,
                                                               abs=1e-12)

    def test_sampled_moments_match_scipy_oracle(self):
        rng = np.random.default_rng(2)
        # smooth band-limited signal, densely sampled; the chunked
        # polynomial reconstruction should recover the smooth integral
        amps = rng.standard_normal((3, 2))
        bands = (3.0, 11.0, 27.0)

        def smooth(t):
            out = np.zeros_like(np.asarray(t, dtype=float))
            for (ac, ashp), f in zip(amps, bands):
                out = out + ac * np.cos(f * t) + ashp * np.sin(f * t)
            return out

        t = np.linspace(0.0, 1.0, 2049)
        u = ControlSignal(1.0, smooth(t))
        freqs = np.array([0.0, 2.0, -17.0, 80.0, 400.0])
        got = moments(u, freqs)

        class _Smooth:
            horizon = 1.0
            __call__ = staticmethod(smooth)

        for i, w in enumerate(freqs):
            assert got[i] == pytest.approx(_quad_moment(_Smooth(), float(w)),
                                           abs=1e-8)

    @pytest.mark.parametrize("n_steps",
                             [1, 3, 7, 8, 9, 13, 255, 257, 1000, 4096])
    def test_sampled_moments_integrate_the_panel_interpolant(self, n_steps):
        # rough samples, full and partial last panels, |omega| h up to 2
        rng = np.random.default_rng(n_steps)
        for T in (0.5, 1.3, 4.0):
            u = ControlSignal(T, rng.standard_normal(n_steps + 1))
            omegas = np.concatenate([[0.0, 2.0, -2.0],
                                     rng.uniform(-2.0, 2.0, 8)]) / u.step
            got = moments(u, omegas)
            want = _panel_oracle(u, omegas)
            assert (np.max(np.abs(got - want))
                    <= 1e-11 * np.max(np.abs(want)))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_panel_weights_match_a_per_degree_construction(self, k):
        # the weights from one call on the Lagrange columns against one
        # call per monomial, then the Lagrange matrix
        h = 0.01
        omegas = np.linspace(-3.0, 3.0, 61) / h
        nodes = np.arange(k + 1) - 0.5 * k
        lagrange = np.linalg.inv(np.vander(nodes, increasing=True))
        monomials = np.stack(
            [poly_exp_integral((0.0,) * n + (1.0,), nodes[0], nodes[-1],
                               h * omegas) for n in range(k + 1)], axis=-1)
        want = h * (monomials @ lagrange)
        got = _panel_weights(k, h, omegas)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_parametric_moments_match_scipy_oracle(self):
        u = ControlSignal.from_terms(((7.0, 0.5 - 0.25j), (-7.0, 0.5 + 0.25j)),
                                     1.3, 256)
        freqs = np.array([0.0, 7.0, -7.0, 31.0])
        got = moments(u, freqs)
        for i, w in enumerate(freqs):
            assert got[i] == pytest.approx(_quad_moment(u, float(w)),
                                           abs=1e-10)


class TestSymmetrize:
    def test_positive_frequency_reflects_with_conjugate_target(self):
        p = MomentProblem(1.0, (1.0,), (1.0j,))
        s = solve(p).problem
        assert sorted(s.frequencies) == [-1.0, 1.0]
        tgt = dict(zip(s.frequencies, s.targets))
        assert tgt[1.0] == 1.0j
        assert tgt[-1.0] == -1.0j

    def test_dirichlet_ground_mode_transitions_symmetrize_cleanly(self):
        # lambda_k - lambda_1 for k = 1..3: {0, 3 pi^2, 8 pi^2}
        model = SpectralModel.dirichlet()
        from bilinctrl.spectral import eigenvalue
        freqs = tuple(eigenvalue(model, k) - eigenvalue(model, 1)
                      for k in (1, 2, 3))
        p = MomentProblem(1.0, freqs, (0.5, 0.1 + 0.2j, -0.3j))
        s = solve(p).problem
        assert len(s.frequencies) == 5
        assert sorted(s.frequencies) == sorted(
            [0.0, 3 * np.pi**2, -3 * np.pi**2, 8 * np.pi**2, -8 * np.pi**2])

    def test_collision_after_reflection_is_rejected(self):
        # frequencies {1, -1} with inconsistent targets collide on reflection
        p = MomentProblem(1.0, (1.0, -1.0), (1.0j, 1.0j))
        with pytest.raises(DegeneracyError):
            solve(p)

    def test_resonant_dirichlet_mode_five_set_is_degenerate(self):
        # lambda_7 - lambda_5 = -(lambda_1 - lambda_5), so the one-sided
        # transition set around mode 5 collides on reflection
        from bilinctrl.spectral import eigenvalue
        model = SpectralModel.dirichlet()
        freqs = tuple(eigenvalue(model, k) - eigenvalue(model, 5)
                      for k in range(1, 8))
        p = MomentProblem(1.0, freqs, tuple([0.1 + 0.1j] * 4 + [0.0]
                                            + [0.1 + 0.1j] * 2))
        with pytest.raises(DegeneracyError):
            solve(p)

    def test_complex_zero_frequency_target_rejected(self):
        with pytest.raises(DegeneracyError):
            MomentProblem(1.0, (0.0,), (1.0j,))

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(DegeneracyError):
            MomentProblem(1.0, (2.0, 2.0 + 1e-12), (1.0, 1.0))

    @pytest.mark.parametrize("T, freqs, targets, name", [
        (np.nan, (1.0, 2.0), (1.0, 1.0), "horizon"),
        (np.inf, (1.0, 2.0), (1.0, 1.0), "horizon"),
        (1.0, (np.nan, 2.0), (1.0, 1.0), "frequency"),
        (1.0, (1.0, -np.inf), (1.0, 1.0), "frequency"),
        (1.0, (1.0, 2.0), (np.inf, 1.0), "target"),
        (1.0, (1.0, 2.0), (1.0, complex(0.0, np.nan)), "target"),
    ])
    def test_non_finite_data_rejected(self, T, freqs, targets, name):
        with pytest.raises(DomainError, match=name):
            MomentProblem(T, freqs, targets)

    def test_collision_names_the_first_pair_in_row_order(self):
        # row 0 (3) meets -3 before row 1 (2) meets -2
        p = MomentProblem(1.0, (3.0, 2.0, 5.0, -2.0, -3.0), (1.0,) * 5)
        with pytest.raises(DegeneracyError,
                           match="^frequencies 3 and -3 are opposite"):
            solve(p)

    @settings(max_examples=200, deadline=None)
    @given(freqs=st.lists(st.sampled_from([0.0, 1.0, -1.0, 1.0 + 5e-10,
                                           1.0 + 2e-9, 2.5, -2.5, 1e9]),
                          min_size=1, max_size=8))
    def test_repeats_and_collisions_match_a_full_table(self, freqs):
        fs = np.asarray(freqs)
        close = np.abs(fs[:, None] - fs[None, :]) < 1e-9
        np.fill_diagonal(close, False)
        opposite = np.abs(fs[:, None] + fs[None, :]) < 1e-9
        np.fill_diagonal(opposite, False)
        targets = tuple(1.0 if f == 0.0 else 1.0j for f in freqs)
        if close.any():
            with pytest.raises(DegeneracyError, match="repeated"):
                MomentProblem(1.0, tuple(freqs), targets)
            return
        p = MomentProblem(1.0, tuple(freqs), targets)
        if opposite.any():
            j, k = np.argwhere(opposite)[0]
            with pytest.raises(DegeneracyError, match=(
                    f"^frequencies {fs[j]:g} and {fs[k]:g} are opposite")):
                solve(p)
        else:
            _reflect(p.frequencies)


class TestSolve:
    @pytest.mark.parametrize("model,l,T", [
        (SpectralModel.dirichlet(), 1, 0.5),
        (SpectralModel.periodic(1.0), 0, 0.5),
        (SpectralModel.harmonic(), 0, 1.05 * np.pi),
    ])
    def test_round_trip_recovers_targets(self, model, l, T):
        # one-sided transition frequencies lambda_k - lambda_l over the
        # first 25 modes
        from bilinctrl.spectral import eigenvalue, index_window
        freqs = tuple(float(eigenvalue(model, int(k)) - eigenvalue(model, l))
                      for k in index_window(model, 25))
        rng = np.random.default_rng(1)
        targets = []
        for w in freqs:
            if w == 0.0:
                targets.append(complex(rng.standard_normal()))
            else:
                targets.append(rng.standard_normal()
                               + 1j * rng.standard_normal())
        sol = solve(MomentProblem(T, freqs, tuple(targets)))
        got = moments(sol.control, np.asarray(freqs))
        assert np.max(np.abs(got - np.asarray(targets))) < 1e-8
        assert sol.residual_max < 1e-8

    def test_solution_control_is_real(self):
        sol = solve(MomentProblem(1.0, (0.0, 3.0), (0.5, 1.0 - 2.0j)))
        t = np.linspace(0.0, 1.0, 101)
        vals = np.array([sol.control(s) for s in t])
        assert np.all(np.isreal(vals))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_realness_property(self, seed):
        rng = np.random.default_rng(seed)
        # gaps of at least 1 keep the family separated, but on [0, 1] its
        # Gram condition reaches 1.53e12 (seed 156) and 1.06e12 (seed 805),
        # past the default cap; every seed stays below 1e13
        freqs = (0.0,) + tuple(np.cumsum(rng.uniform(1.0, 5.0, 4)))
        targets = (complex(rng.standard_normal()),) + tuple(
            rng.standard_normal() + 1j * rng.standard_normal()
            for _ in range(4))
        sol = solve(MomentProblem(1.0, freqs, targets), condition_cap=1e13)
        vals = sol.control(np.linspace(0.0, 1.0, 50))
        assert np.max(np.abs(np.imag(np.atleast_1d(vals)))) < 1e-12

    def test_gram_matrix_is_positive_definite(self):
        freqs = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        G = _gram(freqs, 1.0)
        assert np.allclose(G, G.conj().T)
        assert np.min(np.linalg.eigvalsh(G)) > 0.0

    def test_minimal_norm_among_exponential_ansatz(self):
        # the Gram solve picks the minimum-L2 control in the span; adding
        # any kernel-orthogonal exponential perturbation only increases norm
        sol = solve(MomentProblem(1.0, (0.0, 2.0), (1.0, 0.5 + 0.5j)))
        base = sol.control.l2_norm()
        rng = np.random.default_rng(4)
        onesided = np.array([0.0, 2.0])
        all_freqs = np.asarray(sol.problem.frequencies)
        for _ in range(5):
            # build a real perturbation with zero moments at the frequencies
            extra = rng.uniform(5.0, 9.0)
            c = rng.standard_normal() + 1j * rng.standard_normal()
            pert = ControlSignal.from_terms(
                ((extra, 0.5 * c), (-extra, 0.5 * np.conj(c))), 1.0, 4096)
            m = moments(pert, onesided)
            # project out the achieved moments so the perturbation is in the
            # kernel of the moment map, then compare norms
            corr = solve(MomentProblem(
                1.0, (0.0, 2.0), (complex(m[0].real) * -1.0, -m[1])),
                n_steps=4096)
            kernel_dir = _sum(pert, corr.control)
            assert np.max(np.abs(moments(kernel_dir, all_freqs))) < 1e-9
            assert _sum(sol.control, kernel_dir).l2_norm() > base - 1e-9

    def test_conditioning_improves_with_longer_horizon(self):
        # [PAPER] harmonic gap-2 frequencies: horizon above the critical
        # length drops the Gram condition number by orders of magnitude
        freqs = tuple(2.0 * k for k in range(40))
        targets = (0.1,) + tuple(0.1 + 0.1j for _ in range(39))
        tight = solve(MomentProblem(0.9 * np.pi, freqs, targets),
                      condition_cap=1e13)
        roomy = solve(MomentProblem(1.2 * np.pi, freqs, targets))
        assert tight.gram_condition / roomy.gram_condition > 10.0

    def test_condition_cap_raises(self):
        freqs = tuple(2.0 * k for k in range(40))
        targets = (0.1,) + tuple(0.1 + 0.1j for _ in range(39))
        with pytest.raises(IllConditionedError) as err:
            solve(MomentProblem(0.9 * np.pi, freqs, targets),
                  condition_cap=1e6)
        assert err.value.condition > 1e6

    def test_gram_constants_are_the_extreme_eigenvalues(self):
        model = SpectralModel.harmonic()
        freqs = tuple(float(w) for w in
                      transition_frequencies(model, 0, 25) if w >= 0.0)
        sol = solve(MomentProblem(1.05 * np.pi, freqs, (1.0,) * len(freqs)))
        inverse = sol.inverse
        lo, hi = np.linalg.eigvalsh(inverse.gram)[[0, -1]]
        assert (inverse.lambda_min, inverse.lambda_max) == (lo, hi)
        assert inverse.lambda_max / inverse.lambda_min == sol.gram_condition
        doc = json.loads(sol.to_json())
        assert doc["gram_lambda_min"] == inverse.lambda_min
        assert doc["gram_lambda_max"] == inverse.lambda_max
        keys = list(doc)
        at = keys.index("gram_condition")
        assert keys[at:at + 3] == ["gram_condition", "gram_lambda_min",
                                   "gram_lambda_max"]


_CACHES = (_factored, _panel_operator, _lagrange_basis)


def _clear_caches():
    for cached in _CACHES:
        cached.cache_clear()


def _misses() -> int:
    return sum(cached.cache_info().misses for cached in _CACHES)


def _dirichlet_problem(T=0.5, K=8, seed=1):
    model = SpectralModel.dirichlet()
    freqs = tuple(float(w) for w in
                  transition_frequencies(model, 1, K) if w >= 0.0)
    rng = np.random.default_rng(seed)
    targets = tuple(complex(rng.standard_normal(), rng.standard_normal())
                    if w else complex(rng.standard_normal()) for w in freqs)
    return MomentProblem(T, freqs, targets)


def _solve_bits(problem, cap=1e12):
    sol = solve(problem, condition_cap=cap, n_steps=512)
    return (sol.coefficients.tobytes(), sol.residuals.tobytes(),
            repr(sol.gram_condition), sol.control.samples.tobytes())


def _moments_bits(T, n_steps, freqs):
    samples = np.sin(np.linspace(0.0, 7.0, n_steps + 1)) + 0.25
    got = moments(ControlSignal(T, samples), freqs)
    return got.shape, got.tobytes()


_FREQS = np.array([0.0, 3.0, -5.0, 40.0, 123.0, -7.5])


class TestSharedPrecomputations:
    """solve and sampled moments() share their per-family work through
    bounded LRU caches; a hit must return what a miss computes."""

    def test_solve_hit_is_bitwise_a_miss(self):
        problem = _dirichlet_problem()
        _clear_caches()
        miss = _solve_bits(problem)
        hit = _solve_bits(problem)
        assert _factored.cache_info().hits >= 1
        _clear_caches()
        assert hit == miss == _solve_bits(problem)

    @pytest.mark.parametrize("n_steps", [2048, 1001])
    def test_sampled_moments_hit_is_bitwise_a_miss(self, n_steps):
        # 1001 steps end in a shorter panel, a second cached operator
        _clear_caches()
        miss = _moments_bits(0.5, n_steps, _FREQS)
        hit = _moments_bits(0.5, n_steps, _FREQS)
        assert _panel_operator.cache_info().hits == 1 + (n_steps % 8 > 0)
        assert hit == miss

    @pytest.mark.parametrize("first,second", [
        (_dirichlet_problem(T=0.5), _dirichlet_problem(T=0.6)),
        # the same family in reverse order scatters the targets differently
        (_dirichlet_problem(),
         MomentProblem(0.5, _dirichlet_problem().frequencies[::-1],
                       _dirichlet_problem().targets[::-1])),
        (MomentProblem(1.0, (0.0, 3.0), (1.0, 2.0j)),
         MomentProblem(1.0, (-0.0, 3.0), (1.0, 2.0j))),
    ], ids=["T", "order", "signed-zero"])
    def test_solve_keys_tell_problems_apart(self, first, second):
        _clear_caches()
        _solve_bits(first)
        got = _solve_bits(second)
        assert _factored.cache_info().misses == 2
        _clear_caches()
        assert got == _solve_bits(second)

    def test_a_tighter_cap_still_raises(self):
        freqs = tuple(2.0 * k for k in range(40))
        problem = MomentProblem(0.9 * np.pi, freqs, (0.1,) * 40)
        _clear_caches()
        loose = _solve_bits(problem, cap=1e13)
        with pytest.raises(IllConditionedError):
            solve(problem, condition_cap=1e6)
        with pytest.raises(IllConditionedError):
            solve(problem, condition_cap=1e6)
        assert _factored.cache_info().currsize == 1
        assert _solve_bits(problem, cap=1e13) == loose

    @pytest.mark.parametrize("first,second", [
        ((0.5, 2048, _FREQS), (0.6, 2048, _FREQS)),            # h
        ((0.5, 2048, _FREQS), (1.0, 4096, _FREQS)),            # n_steps
        ((0.5, 2048, _FREQS), (0.5, 2048, _FREQS[::-1])),      # order
        ((0.5, 2048, _FREQS), (0.5, 2048, np.where(_FREQS == 0.0, -0.0,
                                                   _FREQS))),  # -0.0
        ((0.5, 2048, _FREQS.reshape(2, 3)),
         (0.5, 2048, _FREQS.reshape(3, 2))),                   # shape
    ], ids=["h", "n_steps", "order", "signed-zero", "shape"])
    def test_moments_keys_tell_problems_apart(self, first, second):
        _clear_caches()
        _moments_bits(*first)
        got = _moments_bits(*second)
        assert _panel_operator.cache_info().misses == 2
        _clear_caches()
        assert got == _moments_bits(*second)
        assert got[0] == second[2].shape

    def test_shared_arrays_are_read_only(self):
        _clear_caches()
        inverse = solve(_dirichlet_problem()).inverse
        weights, phases = _panel_operator(8, 0.01, 4, 0, _FREQS.shape,
                                          _FREQS.tobytes())
        for a in (inverse.gram, inverse._L, inverse.frequencies, weights,
                  phases, _lagrange_basis(8)):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_every_cache_is_bounded(self):
        for cached in _CACHES:
            maxsize = cached.cache_parameters()["maxsize"]
            assert isinstance(maxsize, int) and 0 < maxsize <= 64

    def test_lagrange_basis_is_the_vandermonde_inverse(self):
        for k in range(1, 9):
            nodes = np.arange(k + 1) - 0.5 * k
            want = np.linalg.inv(np.vander(nodes, increasing=True))
            assert _lagrange_basis(k).tobytes() == want.tobytes()


def _real_terms(freqs, amps):
    """Conjugate-symmetric terms of sum_k Re(amps_k e^{i freqs_k t})."""
    return tuple(t for f, a in zip(freqs, amps)
                 for t in ((f, 0.5 * a), (-f, 0.5 * np.conj(a))))


def _quad_l2_norm(u):
    """[DERIVED] scipy oracle for ||u||_{L^2(0,T)} of a parametric u."""
    return np.sqrt(quad(lambda s: u(s)**2, 0.0, u.horizon, limit=400,
                        epsabs=0.0, epsrel=1e-13)[0])


def _bessel_constant(freqs, T):
    """[DERIVED] the least C with ||moments(u)||_2 <= C ||u||_{L^2(0,T)} for
    real u: for real u, m(-w) = conj m(w), so ||moments(u)||^2 is half the
    sum of |m|^2 over the multiset {+-w_k} (a zero counted twice), and C is
    sqrt(lambda_max / 2) of its complex Gram matrix."""
    freqs = np.asarray(freqs, dtype=float)
    G = _gram(np.concatenate((freqs, -freqs)), T)
    return float(np.sqrt(np.linalg.eigvalsh(G)[-1] / 2.0))


class TestBesselDiagnostic:
    def test_single_frequency_bounded_by_sqrt_horizon(self):
        # one moment of a unit-L2 signal is at most sqrt(T) by Cauchy-Schwarz
        T = 2.0
        level = _bessel_constant([3.0], T)
        assert level <= np.sqrt(T) + 1e-9
        assert level > 0.5 * np.sqrt(T)

    def test_near_degenerate_pair_inflates_the_level(self):
        T = 1.0
        well_separated = _bessel_constant([2.0, 12.0], T)
        near_degenerate = _bessel_constant([2.0, 2.0 + 1e-3], T)
        assert near_degenerate > 1.3 * well_separated
        # a real test signal concentrates on the cosine/sine pair, so the
        # degenerate level approaches sqrt(T) rather than sqrt(2T)
        assert near_degenerate > 0.95 * np.sqrt(T)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n_freqs=st.integers(1, 6),
           n_terms=st.integers(1, 8), T=st.floats(0.2, 3.0),
           resonant=st.booleans())
    def test_no_real_signal_exceeds_the_constant(self, seed, n_freqs,
                                                 n_terms, T, resonant):
        rng = np.random.default_rng(seed)
        freqs = np.cumsum(rng.uniform(0.05, 6.0, n_freqs))
        level = _bessel_constant(freqs, T)
        # resonant signals sit on the family's own frequencies, where the
        # ratio comes closest to the constant
        thetas = (rng.choice(freqs, n_terms) if resonant
                  else rng.uniform(0.0, 1.5 * freqs.max(), n_terms))
        amps = rng.standard_normal(n_terms) + 1j * rng.standard_normal(
            n_terms)
        u = ControlSignal.from_terms(_real_terms(thetas, amps), T, 64)
        ratio = np.linalg.norm(moments(u, freqs)) / _quad_l2_norm(u)
        assert ratio <= level * (1.0 + 1e-9)

    ROWS = [((3.0,), 2.0), ((0.0, 2.0, 12.0), 1.0), ((2.0, 2.0 + 1e-3), 1.0),
            (tuple(transition_frequencies(SpectralModel.dirichlet(), 1, 4)),
             0.3)]

    @pytest.mark.parametrize("freqs,T", ROWS)
    def test_top_eigenvector_signal_reaches_the_constant(self, freqs, T):
        # [DERIVED] the real Gram matrix of {cos w_k s, sin w_k s} from
        # scipy quadrature; the signal of its top eigenvector attains
        # ||moments(u)|| / ||u|| = sqrt(lambda_max)
        freqs = np.asarray(freqs, dtype=float)
        family = ([lambda s, w=w: np.cos(w * s) for w in freqs]
                  + [lambda s, w=w: np.sin(w * s) for w in freqs])
        G = np.array([[quad(lambda s: f(s) * g(s), 0.0, T, limit=400)[0]
                       for g in family] for f in family])
        v = np.linalg.eigh(G)[1][:, -1]
        K = freqs.size
        u = ControlSignal.from_terms(_real_terms(freqs, v[:K] - 1j * v[K:]),
                                     T, 64)
        # the ratio is stationary at the eigenvector, so quadrature error
        # in G enters squared
        ratio = np.linalg.norm(moments(u, freqs)) / _quad_l2_norm(u)
        assert ratio == pytest.approx(_bessel_constant(freqs, T), rel=1e-9)

    @pytest.mark.parametrize("freqs,T", [
        (freqs, T) for freqs, T in ROWS if 0.0 not in freqs])
    def test_moment_inverse_lambda_max_is_twice_its_square(self, freqs, T):
        # without zero the reflected family {+-w_k} is the multiset of the
        # constant, so MomentInverse's lambda_max is 2 C^2
        level = _bessel_constant(freqs, T)
        assert MomentInverse(T, freqs).lambda_max == pytest.approx(
            2.0 * level**2, rel=1e-12)

    STEER_FAMILY = transition_frequencies(SpectralModel.dirichlet(), 1, 4)

    @pytest.mark.parametrize("freqs,T", [
        ((0.0, 2.0, 12.0), 1.0), ((0.0, 3.0), 2.0),
        (tuple(STEER_FAMILY[STEER_FAMILY >= 0.0]), 0.3)])
    def test_moment_inverse_lambda_max_with_zero_is_below_twice_its_square(
            self, freqs, T):
        # with zero the multiset of the constant counts the constant signal
        # twice, the reflected family once: the frame operators differ by
        # the rank-one projection onto 1, of norm T, so by Weyl
        # lambda_max <= 2 C^2 <= lambda_max + T, the first strictly since
        # the top eigenvector is not orthogonal to 1
        level = _bessel_constant(freqs, T)
        lambda_max = MomentInverse(T, freqs).lambda_max
        assert lambda_max < 2.0 * level**2
        assert 2.0 * level**2 <= (lambda_max + T) * (1.0 + 1e-12)
