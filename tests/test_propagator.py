"""Strang-split propagation: unitarity, reversibility, convergence order,
linearization, and Sobolev norms."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from bilinctrl import propagator
from bilinctrl.errors import DomainError, ModelError, NumericError
from bilinctrl.integrals import poly_exp_integral
from bilinctrl.potentials import (CoefficientMethod, PiecewisePotential,
                                  PotentialDomain, dirichlet_example,
                                  half_line_step, inner_product,
                                  neumann_example, periodic_example)
from bilinctrl.propagator import (_PHASE_BLOCK, DEFAULT_STEPS, ControlSignal,
                                  Propagator, SobolevNorm, StateVector,
                                  basis_state, coupling_matrix, sobolev_norm)
from bilinctrl.spectral import SpectralModel, eigenvalue, index_window

DIRICHLET = SpectralModel.dirichlet()
PERIODIC = SpectralModel.periodic(1.0)
NEUMANN = SpectralModel.neumann()
HARMONIC = SpectralModel.harmonic()


@pytest.fixture(scope="module")
def dirichlet_prop():
    return Propagator(DIRICHLET, dirichlet_example(), 64)


def _ode_endpoint(prop, psi0, value, T):
    """Independent dense ODE integration of the same truncated system."""
    n = psi0.size

    def rhs(t, y):
        c = y[:n] + 1j * y[n:]
        dc = -1j * (prop.lam * c + value * (prop.B @ c))
        return np.concatenate([dc.real, dc.imag])

    y0 = np.concatenate([psi0.coefficients.real, psi0.coefficients.imag])
    sol = solve_ivp(rhs, [0.0, T], y0, method="DOP853", rtol=1e-12,
                    atol=1e-13)
    return sol.y[:n, -1] + 1j * sol.y[n:, -1]


def _unbuffered_phases(prop, u, reverse=False):
    """The phase rows exp(-i theta_m w) of every step as one table."""
    sign = -1.0 if reverse else 1.0
    mids = u.midpoint_values()[::-1] if reverse else u.midpoint_values()
    theta = sign * u.step * mids
    return np.exp(-1j * np.multiply.outer(theta, prop._w))


def _naive_strang(prop, psi0, u, reverse=False):
    """Reference Strang loop: half-phase, dense expm of the coupling step,
    half-phase; returns every state."""
    sign = -1.0 if reverse else 1.0
    mids = u.midpoint_values()[::-1] if reverse else u.midpoint_values()
    half = np.exp(-0.5j * sign * u.step * prop.lam)
    rows = [psi0.coefficients]
    for mid in mids:
        step = expm(-1j * sign * mid * u.step * prop.B)
        rows.append(half * (step @ (half * rows[-1])))
    return np.array(rows)


class TestCouplingMatrix:
    def test_hermitian_and_real_symmetric_for_dirichlet(self):
        B = coupling_matrix(dirichlet_example(), DIRICHLET, 24)
        assert np.max(np.abs(B - B.conj().T)) < 1e-12
        assert np.max(np.abs(B.imag)) < 1e-12

    def test_periodic_matrix_is_toeplitz_in_the_index_difference(self):
        # phi_l conj(phi_k) depends on l - k only
        B = coupling_matrix(periodic_example(), PERIODIC, 9)
        for d in range(-3, 4):
            diag = np.diagonal(B, offset=d)
            assert np.allclose(diag, diag[0])

    def test_harmonic_matrix_matches_closed_form_column(self):
        from bilinctrl.potentials import harmonic_tail_coefficient
        B = coupling_matrix(half_line_step(0.3), HARMONIC, 16)
        for k in range(1, 16):
            assert B[k, 0].real == pytest.approx(
                harmonic_tail_coefficient(0.3, k), abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("model", [DIRICHLET, PERIODIC, NEUMANN,
                                       HARMONIC])
    def test_matches_quadrature_oracle_for_piecewise_polynomials(self, model,
                                                                 data):
        # 1-3 breakpoints, degree <= 3 on every unit-interval piece and every
        # inner real-line piece; the real line always breaks at exactly 0
        n = data.draw(st.integers(1, 3))
        coeff = st.floats(-2.0, 2.0)
        poly = st.lists(coeff, min_size=1, max_size=4).map(tuple)
        if model is HARMONIC:
            others = data.draw(st.lists(st.floats(-3.0, 3.0).filter(bool),
                                        min_size=n - 1, max_size=n - 1,
                                        unique=True))
            breakpoints = sorted(others + [0.0])
            pieces = ([(data.draw(coeff),)]
                      + [data.draw(poly) for _ in range(n - 1)]
                      + [(data.draw(coeff),)])
            domain = PotentialDomain.REAL_LINE
        else:
            breakpoints = sorted(data.draw(st.lists(
                st.floats(0.05, 0.95), min_size=n, max_size=n, unique=True)))
            pieces = [data.draw(poly) for _ in range(n + 1)]
            domain = PotentialDomain.UNIT_INTERVAL
        mu = PiecewisePotential(tuple(breakpoints), tuple(pieces), domain)
        for N in (1, 6):
            B = coupling_matrix(mu, model, N)
            ks = [int(k) for k in index_window(model, N)]
            oracle = np.array([[inner_product(mu, model, j, k,
                                              CoefficientMethod.QUADRATURE)
                                for j in ks] for k in ks])
            assert np.max(np.abs(B - oracle)) <= 1e-10 * max(
                1.0, float(np.max(np.abs(B))))


class TestPropagate:
    def test_free_evolution_is_a_phase(self, dirichlet_prop):
        # [TRIVIAL] phi_1(t) = e^{-i pi^2 t} phi_1
        psi0 = basis_state(DIRICHLET, 64, 1)
        traj = dirichlet_prop.propagate(psi0, ControlSignal.zero(1.0, 512))
        assert traj.final.coefficient(1) == pytest.approx(
            np.exp(-1j * np.pi**2), abs=1e-11)

    def test_periodic_zero_mode_is_stationary(self):
        # [TRIVIAL] lambda_0 = 0
        prop = Propagator(PERIODIC, periodic_example(), 17)
        psi0 = basis_state(PERIODIC, 17, 0)
        traj = prop.propagate(psi0, ControlSignal.zero(0.7, 256))
        assert traj.final.coefficient(0) == pytest.approx(1.0, abs=1e-12)

    def test_constant_control_matches_dense_ode_oracle(self, dirichlet_prop):
        # [DERIVED] independent high-order adaptive integration
        psi0 = basis_state(DIRICHLET, 64, 1)
        u = ControlSignal.constant(0.3, 0.5, 32768)
        got = dirichlet_prop.propagate(psi0, u, store_trajectory=False).final
        ref = _ode_endpoint(dirichlet_prop, psi0, 0.3, 0.5)
        assert np.linalg.norm(got.coefficients - ref) < 1e-6
        assert got.norm() == pytest.approx(1.0, abs=1e-10)

    def test_unitarity_along_a_rough_random_control(self, dirichlet_prop):
        rng = np.random.default_rng(5)
        u = ControlSignal(2.0, rng.standard_normal(4097))
        psi0 = basis_state(DIRICHLET, 64, 1)
        traj = dirichlet_prop.propagate(psi0, u)
        assert np.max(np.abs(traj.norms() - 1.0)) < 1e-10

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), amplitude=st.floats(0.0, 2.0))
    def test_unitarity_property(self, seed, amplitude):
        rng = np.random.default_rng(seed)
        prop = Propagator(DIRICHLET, dirichlet_example(), 16)
        u = ControlSignal(1.0, amplitude * rng.standard_normal(257))
        coeffs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi0 = StateVector(DIRICHLET, coeffs / np.linalg.norm(coeffs))
        traj = prop.propagate(psi0, u)
        assert np.max(np.abs(traj.norms() - 1.0)) < 1e-10

    def test_forward_backward_round_trip(self):
        prop = Propagator(DIRICHLET, dirichlet_example(), 128)
        rng = np.random.default_rng(7)
        u = ControlSignal(1.0, 0.5 * rng.standard_normal(4097))
        psi0 = basis_state(DIRICHLET, 128, 1)
        fwd = prop.propagate(psi0, u, store_trajectory=False).final
        back = prop.propagate(fwd, u, store_trajectory=False,
                              reverse=True).final
        assert (back - psi0).norm() < 1e-8

    def test_second_order_convergence(self):
        # N small enough that every retained mode is resolved at the
        # coarsest step size (asymptotic regime needs h * lambda_max < 1)
        prop = Propagator(DIRICHLET, dirichlet_example(), 16)
        psi0 = basis_state(DIRICHLET, 16, 1)
        ref = prop.propagate(psi0, ControlSignal.constant(0.4, 0.5, 2**19),
                             store_trajectory=False).final
        errs = []
        for n in (2048, 4096, 8192):
            got = prop.propagate(psi0, ControlSignal.constant(0.4, 0.5, n),
                                 store_trajectory=False).final
            errs.append((got - ref).norm())
        for coarse, fine in zip(errs[:-1], errs[1:]):
            assert 3.4 < coarse / fine < 4.6

    def test_truncation_robustness(self):
        # doubling N changes the endpoint of smooth data by less than the
        # spectral tail of the coupling, far below solver tolerances
        u = ControlSignal.constant(0.3, 0.5, 2048)
        finals = {}
        for N in (64, 128):
            prop = Propagator(DIRICHLET, dirichlet_example(), N)
            finals[N] = prop.propagate(basis_state(DIRICHLET, N, 1), u,
                                       store_trajectory=False).final
        small = finals[64].coefficients
        big = finals[128].coefficients[:64]
        assert np.linalg.norm(small - big) < 1e-7

    def test_mismatched_truncation_rejected(self, dirichlet_prop):
        with pytest.raises(DomainError):
            dirichlet_prop.propagate(basis_state(DIRICHLET, 32, 1),
                                     ControlSignal.zero(1.0, 16))

    @settings(max_examples=25, deadline=None)
    @given(model_mu=st.sampled_from([(DIRICHLET, dirichlet_example()),
                                     (PERIODIC, periodic_example())]),
           N=st.sampled_from([1, 2, 7]),
           n_steps=st.sampled_from([1, 2, _PHASE_BLOCK - 1, _PHASE_BLOCK,
                                    _PHASE_BLOCK + 1, 2 * _PHASE_BLOCK + 1]),
           reverse=st.booleans(), store=st.booleans(),
           horizon=st.floats(0.1, 2.0), seed=st.integers(0, 10_000))
    def test_matches_naive_strang_loop(self, model_mu, N, n_steps, reverse,
                                       store, horizon, seed):
        model, mu = model_mu
        prop = Propagator(model, mu, N)
        rng = np.random.default_rng(seed)
        u = ControlSignal(horizon, 2.0 * rng.standard_normal(n_steps + 1))
        size = prop.indices.size
        coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        psi0 = StateVector(model, coeffs / np.linalg.norm(coeffs))
        traj = prop.propagate(psi0, u, store_trajectory=store,
                              reverse=reverse)
        ref = _naive_strang(prop, psi0, u, reverse)
        if not store:
            ref = ref[[0, -1]]
        assert traj.states.shape == ref.shape
        assert np.max(np.abs(traj.states - ref)) < 1e-12
        if not reverse:
            assert np.array_equal(traj.final.coefficients,
                                  prop.endpoint(psi0, u).coefficients)

    @pytest.mark.parametrize("n_steps", [1, _PHASE_BLOCK - 1, _PHASE_BLOCK,
                                         _PHASE_BLOCK + 1,
                                         2 * _PHASE_BLOCK + 3])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_phase_blocks_equal_the_unbuffered_rows(self, dirichlet_prop,
                                                    n_steps, reverse):
        rng = np.random.default_rng(n_steps)
        u = ControlSignal(0.7, rng.standard_normal(n_steps + 1))
        _, _, phase_blocks = dirichlet_prop._split_factors(u, reverse=reverse)
        # the blocks share one buffer, so copy each before the next
        got = np.concatenate([D.copy() for _, D, _ in phase_blocks()])
        assert got.tobytes() == _unbuffered_phases(dirichlet_prop, u,
                                                   reverse).tobytes()

    # three D rows and two G rows a step: _PHASE_BLOCK // 5 steps a block
    @pytest.mark.parametrize("n_steps", [1, _PHASE_BLOCK // 5 - 1,
                                         _PHASE_BLOCK // 5,
                                         _PHASE_BLOCK // 5 + 1, 257])
    @pytest.mark.parametrize("e", [0.3, 1e-9])
    def test_direction_blocks_hold_the_rows_of_each_control(
            self, dirichlet_prop, n_steps, e):
        rng = np.random.default_rng(n_steps)
        u = ControlSignal(0.7, rng.standard_normal(n_steps + 1))
        v = ControlSignal(0.7, rng.standard_normal(n_steps + 1))
        _, _, phase_blocks = dirichlet_prop._split_factors(u, v, (e,))
        blocks = [(m0, D.copy(), G.copy()) for m0, D, G in phase_blocks()]
        assert [m0 for m0, _, _ in blocks] == list(
            range(0, n_steps, _PHASE_BLOCK // 5))
        D = np.concatenate([D for _, D, _ in blocks])
        G = np.concatenate([G for _, _, G in blocks])
        size = dirichlet_prop.indices.size
        assert D.shape == (n_steps, 3, size) and G.shape == (n_steps, 2, size)
        # rows of u, u + e v and u (the tangent row)
        d0 = _unbuffered_phases(dirichlet_prop, u)
        assert D[:, 0].tobytes() == d0.tobytes()
        assert D[:, 2].tobytes() == d0.tobytes()
        de = _unbuffered_phases(dirichlet_prop, u + v.scaled(e))
        assert np.max(np.abs(D[:, 1] - de)) < 1e-14
        # the gap D(u + e v) - D(u) to full relative accuracy, however small
        # e is, and the derivative of D(u) along v
        a = np.multiply.outer(e * u.step * v.midpoint_values(),
                              dirichlet_prop._w)
        gap = d0 * (-2.0 * np.sin(0.5 * a)**2 - 1j * np.sin(a))
        assert np.max(np.abs(G[:, 0] - gap)) <= 1e-15 * np.max(np.abs(gap))
        assert np.max(np.abs(G[:, 1] - -1j * a / e * d0)) < 1e-14

    def test_overflowing_midpoint_names_the_first_bad_step(self,
                                                           dirichlet_prop):
        # the samples are finite, but their midpoint 1e308 + 1e308 is not
        samples = np.zeros(513)
        samples[100:102] = 1e308
        u = ControlSignal(1.0, samples)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"step 100$"):
                dirichlet_prop.propagate(basis_state(DIRICHLET, 64, 1), u,
                                         store_trajectory=False)


def _random_state(prop, seed):
    rng = np.random.default_rng(seed)
    size = prop.indices.size
    coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return StateVector(prop.model, coeffs / np.linalg.norm(coeffs))


@pytest.fixture
def step_calls(monkeypatch):
    """Counts the calls of the Strang step loop."""
    calls = []
    loop = propagator._strang_steps

    def counted(*args, **kwargs):
        calls.append(1)
        return loop(*args, **kwargs)

    monkeypatch.setattr(propagator, "_strang_steps", counted)
    return calls


VANISHING = [("zero", lambda T, n: ControlSignal.zero(T, n)),
             ("zero-samples", lambda T, n: ControlSignal(T, np.zeros(n + 1)))]


class TestVanishingControl:
    """Every phase row of a vanishing control is the identity, so the Strang
    product is H^{2n} = e^{-/+ i Lambda T}: the exact free flow."""

    @pytest.mark.parametrize("make", [m for _, m in VANISHING],
                             ids=[name for name, _ in VANISHING])
    @pytest.mark.parametrize("model,mu,N", [
        (DIRICHLET, dirichlet_example(), 20),
        (PERIODIC, periodic_example(), 21),
    ])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_free_flow_matches_mpmath_and_naive_strang(
            self, make, model, mu, N, reverse, step_calls):
        prop = Propagator(model, mu, N)
        psi0 = _random_state(prop, N)
        sign = 1 if reverse else -1

        def free_flow(times):
            with mpmath.workdps(40):
                return np.array([[complex(mpmath.expj(
                    sign * mpmath.mpf(lam) * mpmath.mpf(t)) * c)
                    for lam, c in zip(prop.lam, psi0.coefficients)]
                    for t in times])

        # the phase lam t rounds to half an ulp of max|lam| T, and the exp
        # and the product with c0 add an ulp or two
        tol = 2 * np.finfo(float).eps * (1.0 + np.max(np.abs(prop.lam)) * 0.7)
        u = make(0.7, 64)
        traj = prop.propagate(psi0, u, reverse=reverse)
        assert np.array_equal(traj.times, u.times)
        assert np.max(np.abs(traj.states - free_flow(u.times))) < tol
        strang = _naive_strang(prop, psi0, u, reverse)
        assert np.max(np.abs(traj.states - strang)) < 1e-12
        # 4096 Strang steps would add their own rounding, a few tol
        ends = prop.propagate(psi0, make(0.7, DEFAULT_STEPS),
                              store_trajectory=False, reverse=reverse)
        assert np.max(np.abs(ends.states - free_flow([0.0, 0.7]))) < tol
        assert not step_calls

    @pytest.mark.parametrize("make", [m for _, m in VANISHING],
                             ids=[name for name, _ in VANISHING])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_final_is_the_endpoint_bitwise(self, dirichlet_prop, make,
                                           reverse):
        psi0 = _random_state(dirichlet_prop, 3)
        u = make(0.7, 300)
        stored = dirichlet_prop.propagate(psi0, u, reverse=reverse)
        ends = dirichlet_prop.propagate(psi0, u, store_trajectory=False,
                                        reverse=reverse)
        assert ends.states.shape == (2, psi0.size)
        assert np.array_equal(ends.times, [0.0, 0.7])
        assert (stored.final.coefficients.tobytes()
                == ends.final.coefficients.tobytes())
        if not reverse:
            assert (dirichlet_prop.endpoint(psi0, u).coefficients.tobytes()
                    == stored.final.coefficients.tobytes())

    @pytest.mark.parametrize("value", [1.0, 1e-300])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_one_nonzero_sample_runs_every_step(self, dirichlet_prop, value,
                                                reverse, step_calls):
        samples = np.zeros(301)
        samples[150] = value
        u = ControlSignal(0.7, samples)
        assert not u.vanishes()
        psi0 = _random_state(dirichlet_prop, 4)
        traj = dirichlet_prop.propagate(psi0, u, reverse=reverse)
        assert len(step_calls) == 1
        strang = _naive_strang(dirichlet_prop, psi0, u, reverse)
        assert np.max(np.abs(traj.states - strang)) < 1e-12

    def test_results_share_no_memory_and_leave_the_state(self,
                                                         dirichlet_prop):
        psi0 = _random_state(dirichlet_prop, 5)
        before = psi0.coefficients.copy()
        rng = np.random.default_rng(6)
        for u in (ControlSignal(0.5, rng.standard_normal(257)),
                  ControlSignal.zero(0.5, 256)):
            out = [dirichlet_prop.endpoint(psi0, u).coefficients,
                   dirichlet_prop.endpoint(psi0, u).coefficients,
                   dirichlet_prop.propagate(psi0, u).states,
                   dirichlet_prop.propagate(psi0, u).states]
            for i, a in enumerate(out):
                assert not np.shares_memory(a, psi0.coefficients)
                for b in out[i + 1:]:
                    assert not np.shares_memory(a, b)
            assert psi0.coefficients.tobytes() == before.tobytes()

    @pytest.mark.parametrize("rows", [None, 1])
    def test_step_loop_leaves_its_initial_state(self, dirichlet_prop, rows):
        rng = np.random.default_rng(7)
        u = ControlSignal(0.5, rng.standard_normal(2 * _PHASE_BLOCK + 2))
        _, WT, phase_blocks = dirichlet_prop._split_factors(u)
        z0 = _random_state(dirichlet_prop, 8).coefficients
        before = z0.copy()
        out = np.empty((u.n_steps, z0.size), dtype=complex) if rows else None
        z = propagator._strang_steps(WT, phase_blocks(), z0, out)
        assert z0.tobytes() == before.tobytes()
        assert not np.shares_memory(z, z0)
        again = propagator._strang_steps(WT, phase_blocks(), z0)
        assert z.tobytes() == again.tobytes()


class TestEndpointDifferences:
    """One batched pass for Psi(u), Psi(u + e v) - Psi(u) for three e and the
    discrete tangent along v, as endpoint_derivative_check runs it."""

    @pytest.mark.parametrize("model,mu,l,N", [
        (DIRICHLET, dirichlet_example(), 1, 32),
        # the periodic window at N = 64 holds 65 modes
        (PERIODIC, periodic_example(), 0, 64),
        (NEUMANN, neumann_example(), 0, 24),
        (HARMONIC, half_line_step(0.3), 0, 20),
    ])
    # five D rows and four G rows a step: _PHASE_BLOCK // 9 = 28 steps a block
    @pytest.mark.parametrize("n_steps", [1, 27, 28, 29, 257])
    def test_rows_match_separate_passes(self, model, mu, l, N, n_steps):
        prop = Propagator(model, mu, N)
        rng = np.random.default_rng(n_steps)
        u = ControlSignal(0.5, 0.3 * rng.standard_normal(n_steps + 1))
        v = ControlSignal(0.5, rng.standard_normal(n_steps + 1))
        psi0 = basis_state(model, N, l)
        epsilons = (1e-2, 1e-3, 1e-4)
        rows = prop._endpoint_differences(psi0, u, v, epsilons)
        assert rows.shape == (5, prop.indices.size)
        base = prop.endpoint(psi0, u).coefficients
        assert np.max(np.abs(rows[0] - base)) <= 1e-13
        for row, e in zip(rows[1:], epsilons):
            want = prop.endpoint(psi0, u + v.scaled(e)).coefficients
            assert np.max(np.abs(rows[0] + row - want)) <= 1e-13
        xi = prop.propagate_linearized(v, l, u_base=u)
        assert np.max(np.abs(rows[-1] - xi.coefficients)) <= 1e-14

    def test_differences_keep_their_digits_below_roundoff(self,
                                                          dirichlet_prop):
        # (Psi(u + e v) - Psi(u)) / e - xi = O(e); two endpoints subtracted
        # would leave about 1e-16 / e of roundoff instead
        rng = np.random.default_rng(4)
        u = ControlSignal(0.5, 0.3 * rng.standard_normal(1025))
        v = ControlSignal(0.5, rng.standard_normal(1025))
        psi0 = basis_state(DIRICHLET, 64, 1)
        e = 1e-10
        _, delta, xi = dirichlet_prop._endpoint_differences(psi0, u, v, (e,))
        assert np.max(np.abs(delta / e - xi)) < 1e-8

    def test_controls_on_different_grids_rejected(self, dirichlet_prop):
        psi0 = basis_state(DIRICHLET, 64, 1)
        u = ControlSignal.zero(0.5, 64)
        for other in (ControlSignal.zero(0.5, 128),
                      ControlSignal.zero(0.7, 64)):
            with pytest.raises(DomainError):
                dirichlet_prop._endpoint_differences(psi0, u, other)

    def test_overflowing_midpoint_names_the_first_bad_step(self,
                                                           dirichlet_prop):
        samples = np.zeros(513)
        samples[100:102] = 1e308
        u = ControlSignal(1.0, samples)
        v = ControlSignal(1.0, np.ones(513))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"step 100$"):
                dirichlet_prop._endpoint_differences(
                    basis_state(DIRICHLET, 64, 1), u, v, (1e-3,))


class TestPropagateLinearized:
    def test_zero_direction_gives_zero(self, dirichlet_prop):
        # [TRIVIAL]
        xi = dirichlet_prop.propagate_linearized(
            ControlSignal.zero(1.0, 256), 1)
        assert xi.norm() == 0.0

    def test_resonant_cosine_matches_analytic_duhamel(self, dirichlet_prop):
        # [DERIVED] integral_0^T e^{iws} cos(ws) ds
        #         = T/2 + (e^{2iwT} - 1)/(4iw)
        w = eigenvalue(DIRICHLET, 2) - eigenvalue(DIRICHLET, 1)
        T = 1.0
        v = ControlSignal.from_terms(((w, 0.5), (-w, 0.5)), T, 1024)
        xi = dirichlet_prop.propagate_linearized(v, 1)
        integral = T / 2 + (np.exp(2j * w * T) - 1.0) / (4j * w)
        b = dirichlet_prop.B[1, 0]
        want = -1j * np.exp(-1j * eigenvalue(DIRICHLET, 2) * T) * b * integral
        assert xi.coefficient(2) == pytest.approx(want, abs=1e-12)

    def test_full_closed_form_for_parametric_control(self, dirichlet_prop):
        rng = np.random.default_rng(9)
        terms = []
        for f in rng.uniform(0.0, 50.0, 5):
            a = rng.standard_normal() + 1j * rng.standard_normal()
            terms += [(float(f), 0.5 * a), (float(-f), 0.5 * np.conj(a))]
        v = ControlSignal.from_terms(terms, 0.8, 1024)
        xi = dirichlet_prop.propagate_linearized(v, 1)
        lam = dirichlet_prop.lam
        integral = np.zeros(64, dtype=complex)
        for f, a in terms:
            integral += a * poly_exp_integral(
                (1.0,), 0.0, 0.8, lam - lam[0] + f)
        want = -1j * np.exp(-1j * lam * 0.8) * dirichlet_prop.B[:, 0] * integral
        assert np.max(np.abs(xi.coefficients - want)) < 1e-12

    def test_sampled_control_close_to_parametric(self, dirichlet_prop):
        w = 11.0
        T = 1.0
        v_param = ControlSignal.from_terms(((w, 0.5), (-w, 0.5)), T, 8192)
        v_sampled = ControlSignal(T, np.cos(w * np.linspace(0.0, T, 8193)))
        a = dirichlet_prop.propagate_linearized(v_param, 1)
        b = dirichlet_prop.propagate_linearized(v_sampled, 1)
        assert (a - b).norm() < 1e-7

    def test_sampled_band_limited_control_matches_parametric(
            self, dirichlet_prop):
        # frequencies below 40 at h = 0.8 / 1024: the 8-step panel
        # interpolant of the samples reproduces the signal to roundoff
        rng = np.random.default_rng(5)
        terms = []
        for f in rng.uniform(0.0, 40.0, 6):
            a = rng.standard_normal() + 1j * rng.standard_normal()
            terms += [(float(f), 0.5 * a), (float(-f), 0.5 * np.conj(a))]
        v_param = ControlSignal.from_terms(terms, 0.8, 1024)
        v_sampled = ControlSignal(0.8, v_param.samples)
        a = dirichlet_prop.propagate_linearized(v_param, 1).coefficients
        b = dirichlet_prop.propagate_linearized(v_sampled, 1).coefficients
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))

    def test_harmonic_half_line_matches_tail_closed_form(self):
        # [DERIVED] Duhamel coefficients with the tail-integral coupling
        prop = Propagator(HARMONIC, half_line_step(0.3), 24)
        T = 1.0
        v = ControlSignal.constant(1.0, T, 512)
        xi = prop.propagate_linearized(v, 0)
        lam = prop.lam
        integral = poly_exp_integral((1.0,), 0.0, T, lam - lam[0])
        want = -1j * np.exp(-1j * lam * T) * prop.B[:, 0] * integral
        assert np.max(np.abs(xi.coefficients - want)) < 1e-12

    def test_discrete_mode_is_the_derivative_of_the_discrete_flow(
            self, dirichlet_prop):
        rng = np.random.default_rng(13)
        u = ControlSignal(0.7, 0.3 * rng.standard_normal(513))
        v = ControlSignal(0.7, rng.standard_normal(513))
        xi = dirichlet_prop.propagate_linearized(v, 1, u_base=u)
        psi0 = basis_state(DIRICHLET, 64, 1)
        eps = 1e-6
        plus = dirichlet_prop.propagate(psi0, u + v.scaled(eps),
                                        store_trajectory=False).final
        minus = dirichlet_prop.propagate(psi0, u + v.scaled(-eps),
                                         store_trajectory=False).final
        fd = (plus - minus).scaled(0.5 / eps)
        assert (fd - xi).norm() < 1e-7

    def test_discrete_mode_matches_naive_tangent_loop(self):
        # reference: the tangent of the half-phase / expm / half-phase step,
        # xi <- S_m xi + H (-i v_m h B) E_m H c
        prop = Propagator(PERIODIC, periodic_example(), 7)
        rng = np.random.default_rng(17)
        n = _PHASE_BLOCK + 1
        u = ControlSignal(0.9, rng.standard_normal(n + 1))
        v = ControlSignal(0.9, rng.standard_normal(n + 1))
        h = u.step
        half = np.exp(-0.5j * h * prop.lam)
        c = basis_state(PERIODIC, 7, 0).coefficients
        xi = np.zeros_like(c)
        for u_m, v_m in zip(u.midpoint_values(), v.midpoint_values()):
            E = expm(-1j * u_m * h * prop.B)
            xi = half * (E @ (half * xi)) + half * (
                -1j * v_m * h * (prop.B @ (E @ (half * c))))
            c = half * (E @ (half * c))
        got = prop.propagate_linearized(v, 0, u_base=u)
        assert np.max(np.abs(got.coefficients - xi)) < 1e-12


class TestStateVector:
    @pytest.mark.parametrize("size", [2, 20, 64])
    def test_even_periodic_count_is_rejected(self, size):
        # the periodic window -M..M holds 2M + 1 modes
        with pytest.raises(DomainError):
            StateVector(PERIODIC, np.arange(size))

    @pytest.mark.parametrize("model, size", [
        *[(m, n) for m in (DIRICHLET, NEUMANN, HARMONIC)
          for n in (1, 2, 20, 21)],
        *[(PERIODIC, n) for n in (1, 3, 21)]],
        ids=lambda x: x.kind.value if isinstance(x, SpectralModel) else None)
    def test_window_edges_hold_the_first_and_last_coefficient(self, model,
                                                              size):
        psi = StateVector(model, np.arange(size) + 1j)
        ks = index_window(model, size)
        assert np.array_equal(psi.indices, ks)
        assert psi.coefficient(int(ks[0])) == 1j
        assert psi.coefficient(int(ks[-1])) == size - 1 + 1j


class TestSobolevNorms:
    def test_single_dirichlet_modes(self):
        # [TRIVIAL]/[PAPER] weight k on mode k
        assert sobolev_norm(basis_state(DIRICHLET, 16, 1),
                            SobolevNorm.H10) == 1.0
        assert sobolev_norm(basis_state(DIRICHLET, 16, 3),
                            SobolevNorm.H10) == 3.0

    def test_harmonic_mode_weight(self):
        # [PAPER] weight sqrt(2k+1)
        assert sobolev_norm(basis_state(HARMONIC, 8, 2),
                            SobolevNorm.H1H) == pytest.approx(np.sqrt(5.0))

    def test_periodic_weight_floors_at_one(self):
        psi = basis_state(PERIODIC, 9, 0)
        assert sobolev_norm(psi, SobolevNorm.H1P) == 1.0
        assert sobolev_norm(basis_state(PERIODIC, 9, -4),
                            SobolevNorm.H1P) == 4.0

    def test_half_line_norm_at_a_hermite_zero_is_rejected(self):
        # phi_1(0) = 0, so the k=2 weight is undefined at a=0
        psi = basis_state(HARMONIC, 8, 2)
        with pytest.raises(DomainError):
            sobolev_norm(psi, SobolevNorm.HHA, a=0.0)

    def test_half_line_norm_generic_point(self):
        psi = basis_state(HARMONIC, 8, 3)
        got = sobolev_norm(psi, SobolevNorm.HHA, a=0.3)
        from bilinctrl.spectral import hermite_function_values
        phi2 = hermite_function_values(2, 0.3)[2, 0]
        assert got == pytest.approx(np.sqrt(3.0) / abs(phi2))

    def test_l2_norm_is_euclidean(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi = StateVector(DIRICHLET, coeffs)
        assert sobolev_norm(psi, SobolevNorm.L2) == pytest.approx(
            np.linalg.norm(coeffs))


class TestControlSignal:
    def test_parametric_signal_must_be_real(self):
        from bilinctrl.errors import NumericError
        with pytest.raises(NumericError):
            ControlSignal.from_terms(((1.0, 1.0 + 0.0j),), 1.0, 64)

    def test_addition_merges_parametric_terms(self):
        a = ControlSignal.from_terms(((2.0, 0.5), (-2.0, 0.5)), 1.0, 64)
        b = ControlSignal.from_terms(((2.0, 0.25), (-2.0, 0.25)), 1.0, 64)
        c = a + b
        assert c.parametric is not None
        assert dict(c.parametric)[2.0] == 0.75

    def test_grid_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ControlSignal.zero(1.0, 64) + ControlSignal.zero(1.0, 128)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.zeros(9)
        samples[4] = bad
        with pytest.raises(NumericError):
            ControlSignal(1.0, samples)

    def test_midpoints_of_sampled_signal(self):
        u = ControlSignal(1.0, np.array([0.0, 2.0, 4.0]))
        assert np.allclose(u.midpoint_values(), [1.0, 3.0])

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_terms_need_a_step(self, n_steps):
        with pytest.raises(DomainError):
            ControlSignal.from_terms(((0.0, 1.0),), 1.0, n_steps)

    def test_complex_midpoints_are_rejected(self):
        # built directly, the constructor never evaluates the terms
        u = ControlSignal(1.0, np.zeros(65), ((1.0, 1.0 + 0.0j),))
        with pytest.raises(NumericError):
            u.midpoint_values()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pairs=st.integers(0, 20),
           dc=st.booleans(), fmax=st.sampled_from([1.0, 1e2, 1e4]),
           T=st.floats(0.05, 4.0),
           # around B^2 and the block boundaries of both grids
           n_steps=st.sampled_from([1, 2, 3, 63, 64, 65, 4095, 4096]))
    def test_grid_values_match_a_per_term_loop(self, seed, pairs, dc, fmax,
                                               T, n_steps):
        rng = np.random.default_rng(seed)
        f = rng.uniform(-fmax, fmax, pairs)
        a = ((rng.standard_normal(pairs) + 1j * rng.standard_normal(pairs))
             * 10.0**rng.uniform(-3.0, 3.0, pairs))
        terms = [(0.0, rng.standard_normal())] if dc or not pairs else []
        terms += list(zip(f, a)) + list(zip(-f, a.conj()))
        u = ControlSignal.from_terms(terms, T, n_steps)
        # the floor set by rounding f t, for any evaluation of the sum
        bound = (8.0 * np.finfo(float).eps
                 * (1.0 + max(abs(fj) for fj, _ in terms) * T)
                 * sum(abs(aj) for _, aj in terms))
        for got, t in ((u.samples, np.linspace(0.0, T, n_steps + 1)),
                       (u.midpoint_values(), u.times[:-1] + 0.5 * u.step)):
            ref = np.zeros(t.size, dtype=complex)
            for fj, aj in terms:
                ref += aj * np.exp(1j * fj * t)
            assert got.shape == t.shape
            assert np.max(np.abs(got - ref.real)) <= bound
