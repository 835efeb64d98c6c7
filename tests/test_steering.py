"""Local steering loop: tangent projection, linearized inversion,
quasi-Newton contraction, and endpoint differentiability."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilinctrl.errors import (ControllabilityDefectError, DegeneracyError,
                              DomainError, NonConvergenceError, NumericError)
from bilinctrl.moments import MomentProblem, solve
from bilinctrl.potentials import (PiecewisePotential, coefficient_table,
                                  dirichlet_example, half_line_step,
                                  neumann_example, periodic_example)
from bilinctrl.propagator import (ControlSignal, Propagator, SobolevNorm,
                                  StateVector, basis_state, sobolev_norm)
from bilinctrl.spectral import SpectralModel, eigenvalue, index_window
from bilinctrl.steering import (SteeringProblem, eigensolution,
                                endpoint_derivative_check, linearized_control,
                                perturbed_target, project_tangent, steer)

DIRICHLET = SpectralModel.dirichlet()
PERIODIC = SpectralModel.periodic(1.0)
NEUMANN = SpectralModel.neumann()
HARMONIC = SpectralModel.harmonic()


def _random_state(model, N, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return StateVector(model, c)


class TestProjectTangent:
    def test_evolved_eigenmode_projects_to_zero(self):
        # [TRIVIAL]
        phi = eigensolution(DIRICHLET, 8, 1, 0.7)
        assert project_tangent(phi, 1, 0.7).norm() < 1e-15

    def test_imaginary_multiple_is_unchanged(self):
        # i phi_l(T) pairs to zero under the real inner product
        phi = eigensolution(DIRICHLET, 8, 1, 0.7).scaled(1j)
        out = project_tangent(phi, 1, 0.7)
        assert (out - phi).norm() < 1e-15

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000), T=st.floats(0.1, 3.0))
    def test_idempotent_and_orthogonal(self, seed, T):
        psi = _random_state(DIRICHLET, 12, seed)
        once = project_tangent(psi, 1, T)
        twice = project_tangent(once, 1, T)
        assert (twice - once).norm() < 1e-12 * max(1.0, psi.norm())
        phi = eigensolution(DIRICHLET, 12, 1, T)
        assert abs(np.real(once.inner(phi))) < 1e-12 * max(1.0, psi.norm())


class TestLinearizedControl:
    @pytest.mark.parametrize("model,mu,l,T", [
        (DIRICHLET, dirichlet_example(), 1, 0.5),
        (PERIODIC, periodic_example(), 0, 0.5),
        (HARMONIC, half_line_step(0.3), 0, 1.05 * np.pi),
    ])
    def test_linearization_consistency(self, model, mu, l, T):
        # the returned control should reproduce the target through the
        # linearized flow itself
        # periodic windows are symmetric and therefore odd-sized
        K = {HARMONIC: 30, PERIODIC: 21}.get(model, 20)
        rng = np.random.default_rng(8)
        raw = StateVector(model, 1e-2 * (rng.standard_normal(K)
                                         + 1j * rng.standard_normal(K)))
        target = project_tangent(raw, l, T)
        v = linearized_control(target, model, mu, l, T, K)
        prop = Propagator(model, mu, K)
        xi = prop.propagate_linearized(v, l)
        err = sobolev_norm(project_tangent(xi - target, l, T), SobolevNorm.H1)
        scale = sobolev_norm(target, SobolevNorm.H1)
        assert err < 1e-6 * scale

    def test_zero_target_gives_zero_control(self):
        target = StateVector(DIRICHLET, np.zeros(10, dtype=complex))
        v = linearized_control(target, DIRICHLET, dirichlet_example(), 1,
                               0.5, 10)
        assert v.l2_norm() == 0.0

    def test_resonant_mode_is_rejected(self):
        # around l = 5 the transition family degenerates
        rng = np.random.default_rng(0)
        target = StateVector(DIRICHLET, 1e-3 * rng.standard_normal(10)
                             + 1e-3j * rng.standard_normal(10))
        with pytest.raises(DegeneracyError):
            linearized_control(project_tangent(target, 5, 0.5), DIRICHLET,
                               dirichlet_example(), 5, 0.5, 10)

    def test_vanishing_coupling_is_a_controllability_defect(self):
        # the symmetric-well coupling vanishes on infinitely many modes
        rng = np.random.default_rng(0)
        target = StateVector(NEUMANN, 1e-3 * rng.standard_normal(10)
                             + 1e-3j * rng.standard_normal(10))
        with pytest.raises(ControllabilityDefectError):
            linearized_control(project_tangent(target, 0, 0.5), NEUMANN,
                               neumann_example(), 0, 0.5, 10)

    def test_defect_names_the_first_vanishing_mode(self):
        table = coefficient_table(neumann_example(), NEUMANN, 0, 10)
        first = next(k for k, b in zip(table.indices, table.values)
                     if abs(b) < 1e-12)
        target = StateVector(NEUMANN, np.full(10, 1e-3 + 0j))
        with pytest.raises(ControllabilityDefectError) as err:
            linearized_control(target, NEUMANN, neumann_example(), 0, 0.5,
                               10)
        assert err.value.index == first

    def test_target_smaller_than_the_window_is_rejected(self):
        target = StateVector(DIRICHLET, np.full(8, 1e-3 + 0j))
        with pytest.raises(DomainError):
            linearized_control(target, DIRICHLET, dirichlet_example(), 1,
                               0.5, 10)

    @pytest.mark.parametrize("model,mu,l,T,K", [
        (DIRICHLET, dirichlet_example(), 1, 0.5, 20),
        (PERIODIC, periodic_example(), 0, 0.5, 21),
        (HARMONIC, half_line_step(0.3), 0, 1.05 * np.pi, 30),
    ])
    def test_moment_targets_match_a_per_mode_loop(self, model, mu, l, T, K):
        rng = np.random.default_rng(4)
        target = project_tangent(StateVector(model, 1e-2 * (
            rng.standard_normal(K) + 1j * rng.standard_normal(K))), l, T)
        table = coefficient_table(mu, model, l, K)
        freqs, targets = [], []
        for k, b in zip(table.indices, table.values):
            lam_k = eigenvalue(model, k)
            freqs.append(lam_k - eigenvalue(model, l))
            targets.append(1j * np.exp(1j * lam_k * T)
                           * target.coefficient(k) / b)
        ref = solve(MomentProblem(T, tuple(freqs), tuple(targets))).control
        got = linearized_control(target, model, mu, l, T, K)
        assert [f for f, _ in got.parametric] == [f for f, _ in ref.parametric]
        a_got = np.asarray([a for _, a in got.parametric])
        a_ref = np.asarray([a for _, a in ref.parametric])
        assert np.max(np.abs(a_got - a_ref)) <= 1e-15 * np.max(np.abs(a_ref))


class TestSteer:
    def test_periodic_control_window_inside_a_wider_truncation(self):
        # the symmetric window -5..5 of K = 11 sits mid-way in -7..7
        N, K, T = 15, 11, 0.5
        psi1 = perturbed_target(PERIODIC, N, 0, T, 1e-3, 2, K=K)
        problem = SteeringProblem(PERIODIC, periodic_example(), 0, T,
                                  basis_state(PERIODIC, N, 0), psi1,
                                  max_iters=1)
        report = steer(problem, K=K, N=N, n_steps=1024)
        assert report.residuals[1] < 1e-2 * report.residuals[0]

    def test_trivial_problem_converges_immediately(self):
        N = 12
        psi0 = basis_state(DIRICHLET, N, 1)
        psi1 = eigensolution(DIRICHLET, N, 1, 0.4)
        report = steer(SteeringProblem(DIRICHLET, dirichlet_example(), 1,
                                       0.4, psi0, psi1), K=N)
        assert report.converged
        assert report.iterations == 0
        assert report.control.l2_norm() == 0.0

    def test_dirichlet_contraction_to_tolerance(self):
        N = 20
        T = 0.4
        psi1 = perturbed_target(DIRICHLET, N, 1, T, delta=1e-2, seed=3)
        problem = SteeringProblem(DIRICHLET, dirichlet_example(), 1, T,
                                  basis_state(DIRICHLET, N, 1), psi1)
        report = steer(problem, K=N)
        assert report.converged
        assert report.final_error <= 1e-8
        res = report.residuals
        for a, b in zip(res[:-1], res[1:]):
            if a > 1e-12:
                assert b < 0.1 * a

    def test_periodic_contraction_to_tolerance(self):
        N = 21
        T = 0.4
        psi1 = perturbed_target(PERIODIC, N, 0, T, delta=1e-2, seed=5)
        problem = SteeringProblem(PERIODIC, periodic_example(), 0, T,
                                  basis_state(PERIODIC, N, 0), psi1)
        report = steer(problem, K=N)
        assert report.converged
        assert report.final_error <= 1e-8

    def test_final_state_keeps_unit_norm(self):
        N = 20
        T = 0.4
        psi1 = perturbed_target(DIRICHLET, N, 1, T, delta=1e-2, seed=7)
        problem = SteeringProblem(DIRICHLET, dirichlet_example(), 1, T,
                                  basis_state(DIRICHLET, N, 1), psi1)
        report = steer(problem, K=N)
        prop = Propagator(DIRICHLET, dirichlet_example(), N)
        final = prop.endpoint(basis_state(DIRICHLET, N, 1), report.control)
        assert abs(final.norm() - 1.0) < 1e-10

    @pytest.mark.parametrize("N", [20, 1])
    def test_one_gram_factorization_per_steer(self, monkeypatch, N):
        # the linearization is frozen at the eigensolution, so every
        # correction reuses the moment family factored for the first one
        calls = {"eigvalsh": 0, "cholesky": 0}
        for name, original in [(n, getattr(np.linalg, n)) for n in calls]:
            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        T = 0.4
        psi1 = perturbed_target(DIRICHLET, N, 1, T, delta=1e-2, seed=0)
        problem = SteeringProblem(DIRICHLET, dirichlet_example(), 1, T,
                                  basis_state(DIRICHLET, N, 1), psi1)
        report = steer(problem, K=N)
        assert report.converged and report.iterations >= 2
        assert calls == {"eigvalsh": 1, "cholesky": 1}

    def test_a_mismatch_outside_the_controlled_modes_stops_at_once(
            self, monkeypatch):
        # psi1 leaves the evolved eigenmode only in mode 4, beyond the K = 2
        # controlled modes, so every moment target is below 1e-15 and no
        # correction can change the control
        N, K, l, T = 4, 2, 1, 0.4
        coeffs = eigensolution(DIRICHLET, N, l, T).coefficients
        coeffs[3] = 1e-3
        psi1 = StateVector(DIRICHLET, coeffs / np.linalg.norm(coeffs))
        problem = SteeringProblem(DIRICHLET, dirichlet_example(), l, T,
                                  basis_state(DIRICHLET, N, l), psi1,
                                  max_iters=5)
        calls = []
        endpoint = Propagator.endpoint

        def counted(self, *args):
            calls.append(1)
            return endpoint(self, *args)

        monkeypatch.setattr(Propagator, "endpoint", counted)
        report = steer(problem, K=K, N=N, n_steps=256)
        assert len(calls) == 1
        assert report.residuals == [report.final_error]
        assert report.final_error > problem.tolerance
        assert not report.converged
        assert report.control.vanishes()

    def test_only_the_tail_left_stops_unconverged(self, monkeypatch):
        # with K = 20 of N = 24 the window converges while the tail modes
        # 21..24, excited at second order, plateau above the tolerance:
        # the loop stops after 2 corrections, not after max_iters
        N, K, T = 24, 20, 0.4
        psi1 = perturbed_target(DIRICHLET, N, 1, T, delta=1e-2, seed=0, K=K)
        problem = SteeringProblem(DIRICHLET, dirichlet_example(), 1, T,
                                  basis_state(DIRICHLET, N, 1), psi1,
                                  max_iters=6)
        calls = []
        endpoint = Propagator.endpoint

        def counted(self, *args):
            calls.append(1)
            return endpoint(self, *args)

        monkeypatch.setattr(Propagator, "endpoint", counted)
        report = steer(problem, K=K, N=N)
        assert len(calls) == 3
        assert report.iterations == 2
        tol = problem.tolerance
        assert report.window_residuals[-1] <= tol < report.tail_residuals[-1]
        assert report.final_error == report.residuals[-1] > tol
        assert not report.converged

    @pytest.mark.parametrize("model,mu,l,N,K", [
        (DIRICHLET, dirichlet_example(), 1, 24, 20),
        (PERIODIC, periodic_example(), 0, 15, 11),
    ])
    def test_window_and_tail_split_the_residual(self, model, mu, l, N, K):
        T = 0.4
        psi1 = perturbed_target(model, N, l, T, delta=1e-2, seed=1, K=K)
        problem = SteeringProblem(model, mu, l, T, basis_state(model, N, l),
                                  psi1, max_iters=3)
        report = steer(problem, K=K, N=N, n_steps=1024)
        assert len(report.window_residuals) == len(report.residuals)
        assert len(report.tail_residuals) == len(report.residuals)
        for r, w, t in zip(report.residuals, report.window_residuals,
                           report.tail_residuals):
            assert abs(w**2 + t**2 - r**2) <= 1e-12 * r**2
        doc = json.loads(report.to_json())
        assert doc["residual_window_h1"] == report.window_residuals
        assert doc["residual_tail_h1"] == report.tail_residuals

    def test_full_window_has_no_tail(self):
        N, T = 20, 0.4
        psi1 = perturbed_target(DIRICHLET, N, 1, T, delta=1e-2, seed=3)
        problem = SteeringProblem(DIRICHLET, dirichlet_example(), 1, T,
                                  basis_state(DIRICHLET, N, 1), psi1)
        report = steer(problem, K=N)
        assert report.converged and report.iterations >= 2
        assert report.tail_residuals == [0.0] * len(report.residuals)
        assert report.window_residuals == report.residuals

    def test_control_window_cannot_exceed_simulation(self):
        N = 10
        psi1 = perturbed_target(DIRICHLET, N, 1, 0.4, delta=1e-2, seed=1)
        problem = SteeringProblem(DIRICHLET, dirichlet_example(), 1, 0.4,
                                  basis_state(DIRICHLET, N, 1), psi1)
        with pytest.raises(DomainError):
            steer(problem, K=12, N=10)

    def test_report_json_is_loadable(self):
        N = 12
        psi1 = perturbed_target(DIRICHLET, N, 1, 0.4, delta=1e-2, seed=2)
        problem = SteeringProblem(DIRICHLET, dirichlet_example(), 1, 0.4,
                                  basis_state(DIRICHLET, N, 1), psi1)
        report = steer(problem, K=N)
        doc = json.loads(report.to_json())
        assert doc["converged"]
        assert len(doc["residual_h1"]) == report.iterations + 1

    def test_nonconvergence_raises_with_history(self):
        # a nearly-vanishing coupling forces enormous corrections, so the
        # frozen linearization overshoots and the residual grows
        N = 12
        T = 0.4
        psi1 = perturbed_target(DIRICHLET, N, 1, T, delta=1e-2, seed=11)
        strong = dirichlet_example()
        weak = PiecewisePotential(strong.breakpoints,
                                  tuple(tuple(1e-6 * c for c in p)
                                        for p in strong.pieces),
                                  domain="unit_interval")
        problem = SteeringProblem(DIRICHLET, weak, 1, T,
                                  basis_state(DIRICHLET, N, 1), psi1,
                                  tolerance=1e-14, max_iters=10)
        try:
            report = steer(problem, K=N)
            assert not report.converged
        except NonConvergenceError as err:
            assert len(err.history) >= 3

    def test_target_outside_delta_ball_rejected(self):
        N = 10
        psi1 = perturbed_target(DIRICHLET, N, 1, 0.4, delta=0.5, seed=1)
        with pytest.raises(DomainError):
            SteeringProblem(DIRICHLET, dirichlet_example(), 1, 0.4,
                            basis_state(DIRICHLET, N, 1), psi1, delta=1e-3)


class TestPerturbedTarget:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_unit_norm_and_proximity(self, seed):
        psi = perturbed_target(DIRICHLET, 16, 1, 0.4, delta=1e-2, seed=seed)
        assert abs(psi.norm() - 1.0) < 1e-12
        drift = (psi - eigensolution(DIRICHLET, 16, 1, 0.4)).norm()
        assert drift <= 1e-2

    def test_seeded_reproducibility(self):
        a = perturbed_target(DIRICHLET, 16, 1, 0.4, delta=1e-2, seed=9)
        b = perturbed_target(DIRICHLET, 16, 1, 0.4, delta=1e-2, seed=9)
        assert (a - b).norm() == 0.0

    @pytest.mark.parametrize("model,l,N,K", [
        (DIRICHLET, 1, 24, 20), (DIRICHLET, 1, 16, 1),
        (PERIODIC, 0, 25, 21), (PERIODIC, 0, 24, 10),
    ])
    def test_matches_a_per_mode_loop_bitwise(self, model, l, N, K):
        rng = np.random.default_rng(17)
        window = index_window(model, N)
        window_k = set(int(k) for k in index_window(model, K))
        coeffs = np.zeros(window.size, dtype=complex)
        for i, k in enumerate(window):
            if int(k) in window_k:
                decay = 1.0 / (1.0 + abs(int(k)))**2
                coeffs[i] = decay * (rng.standard_normal()
                                     + 1j * rng.standard_normal())
        raw = project_tangent(StateVector(model, coeffs), l, 0.4)
        psi = eigensolution(model, N, l, 0.4) + raw.scaled(
            1e-2 / (2.0 * sobolev_norm(raw, SobolevNorm.H1)))
        psi = psi.scaled(1.0 / psi.norm())
        got = perturbed_target(model, N, l, 0.4, 1e-2, 17, K=K)
        assert got.coefficients.tobytes() == psi.coefficients.tobytes()


class TestEndpointDerivative:
    @pytest.mark.parametrize("model,mu,l", [
        (DIRICHLET, dirichlet_example(), 1),
        (PERIODIC, periodic_example(), 0),
        (NEUMANN, neumann_example(), 0),
        (HARMONIC, half_line_step(0.3), 0),
    ])
    def test_quadratic_remainder_slope(self, model, mu, l):
        T = 0.5
        rng = np.random.default_rng(17)
        u = ControlSignal(T, 0.2 * rng.standard_normal(513))
        v = ControlSignal(T, rng.standard_normal(513))
        slope = endpoint_derivative_check(u, v, model, mu, l, T, N=32)
        assert 1.8 < slope < 2.2

    def test_horizon_mismatch_rejected(self):
        u = ControlSignal.zero(0.5, 64)
        v = ControlSignal.zero(0.7, 64)
        with pytest.raises(DomainError):
            endpoint_derivative_check(u, v, DIRICHLET, dirichlet_example(),
                                      1, 0.5)

    def test_slope_is_not_set_by_roundoff(self):
        # a derivative-check input whose remainder at eps = 1e-4 is ~1e-14,
        # the roundoff of a 4096-step endpoint: subtracting two endpoints
        # read a slope of 1.83 here, the endpoint differences read 2
        from bilinctrl.cli import _band_limited
        rng = np.random.default_rng(2078394913)
        u = _band_limited(rng, 0.5, 4096)
        v = _band_limited(rng, 0.5, 4096)
        slope = endpoint_derivative_check(u, v, PERIODIC, periodic_example(),
                                          0, 0.5, N=64)
        assert abs(slope - 2.0) < 1e-3

    def test_overflowing_midpoint_names_the_first_bad_step(self):
        # the samples are finite, but their midpoint 1e308 + 1e308 is not
        samples = np.zeros(513)
        samples[100:102] = 1e308
        u = ControlSignal(0.5, samples)
        v = ControlSignal(0.5, np.ones(513))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"step 100$"):
                endpoint_derivative_check(u, v, DIRICHLET,
                                          dirichlet_example(), 1, 0.5, N=16)

    @pytest.mark.parametrize("epsilons", [
        (1e-2, -1e-3, 1e-4), (1e-3,) * 3, (1e-2,), (), (0.0, 1e-3),
        (1e-2, np.inf), (1e-2, np.nan), [[1e-2, 1e-3]], 1e-3,
    ], ids=["negative", "repeated", "single", "empty", "zero", "inf", "nan",
            "2-D", "scalar"])
    def test_epsilons_must_be_distinct_positive_finite(self, epsilons):
        u = ControlSignal.zero(0.5, 64)
        v = ControlSignal.constant(1.0, 0.5, 64)
        with pytest.raises(DomainError, match="epsilons"):
            endpoint_derivative_check(u, v, DIRICHLET, dirichlet_example(),
                                      1, 0.5, N=8, epsilons=epsilons)

    def test_two_epsilons_suffice(self):
        T = 0.5
        rng = np.random.default_rng(5)
        u = ControlSignal(T, 0.2 * rng.standard_normal(257))
        v = ControlSignal(T, rng.standard_normal(257))
        slope = endpoint_derivative_check(u, v, DIRICHLET,
                                          dirichlet_example(), 1, T, N=16,
                                          epsilons=(1e-2, 1e-3))
        assert 1.8 < slope < 2.2
