"""Local steering of the bilinear system around an eigensolution.

Pipeline: project the error onto the tangent space of the unit sphere at the
evolved eigenmode, invert the linearized endpoint map through the moment
solver, and iterate the correction (a quasi-Newton loop with the
linearization frozen at the eigensolution).  Frozen, the moment family is
factored once per process and key: the first solve of a steer call takes
the factorization from the cache of moments.solve, which computes it only
if no earlier call did, and each later iteration costs two triangular
solves; the coefficients add up in one exponential sum.
The corrections target the K controlled modes (the window); the other N - K
simulated modes (the tail) are reported beside them, not steered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (ControllabilityDefectError, DomainError,
                     NonConvergenceError)
from .moments import MomentProblem, solve
from .potentials import PiecewisePotential, coefficient_table
from .propagator import (DEFAULT_STEPS, ControlSignal, Propagator,
                         SobolevNorm, StateVector, basis_state, sobolev_norm,
                         sobolev_weights)
from .spectral import (SpectralModel, eigenvalue, index_window,
                       window_position)

_COEFFICIENT_FLOOR = 1e-12


def eigensolution(model: SpectralModel, N: int, l: int,
                  t: float) -> StateVector:
    """The free evolution e^{-i lambda_l t} phi_l."""
    return basis_state(model, N, l).scaled(
        np.exp(-1j * eigenvalue(model, l) * t))


def project_tangent(psi: StateVector, l: int, T: float) -> StateVector:
    """Remove the real pairing against the evolved eigenmode:
    psi - Re<psi, phi_l(T)> phi_l(T)."""
    phi = eigensolution(psi.model, psi.size, l, T)
    pairing = float(np.real(psi.inner(phi)))
    return psi - phi.scaled(pairing)


def _moment_targets(model: SpectralModel, mu: PiecewisePotential, l: int,
                    T: float, K: int):
    """The moment family lambda_k - lambda_l of the first K modes, and the
    map from a target state to the moment targets around the eigensolution
    at mode l, x_k = i e^{i lambda_k T} <target, phi_k> / <mu phi_l, phi_k>;
    tail modes carry implicit zero targets."""
    table = coefficient_table(mu, model, l, K)  # checks the index l
    ks, b = table.indices, table.values
    vanishing = np.flatnonzero(np.abs(b) < _COEFFICIENT_FLOOR)
    if vanishing.size:
        k = int(ks[vanishing[0]])
        raise ControllabilityDefectError(
            f"coupling coefficient at mode {k} vanishes; the moment "
            "target is undefined", index=k)
    lam_k = eigenvalue(model, ks)
    phase = 1j * np.exp(1j * lam_k * T)

    def targets(target: StateVector) -> np.ndarray:
        pos = window_position(model, target.size, ks)
        return phase * target.coefficients[pos] / b

    return tuple(lam_k - eigenvalue(model, l)), targets


def linearized_control(target: StateVector, model: SpectralModel,
                       mu: PiecewisePotential, l: int, T: float, K: int,
                       n_steps: int = DEFAULT_STEPS,
                       condition_cap: float = 1e12) -> ControlSignal:
    """Control whose linearized endpoint (around the eigensolution at mode l)
    is the given tangent-space target, from the moment targets over the
    first K modes."""
    freqs, moment_targets = _moment_targets(model, mu, l, T, K)
    x = moment_targets(target)
    if np.all(np.abs(x) < 1e-15):
        return ControlSignal.zero(T, n_steps)
    return solve(MomentProblem(T, freqs, tuple(x)),
                 condition_cap=condition_cap, n_steps=n_steps).control


@dataclass(frozen=True)
class SteeringProblem:
    model: SpectralModel
    mu: PiecewisePotential
    l: int
    T: float
    psi0: StateVector
    psi1: StateVector
    tolerance: float = 1e-8
    max_iters: int = 10
    delta: float = 1e-2

    def __post_init__(self):
        if self.T <= 0.0:
            raise DomainError("horizon must be positive")
        for name, psi in (("psi0", self.psi0), ("psi1", self.psi1)):
            if abs(psi.norm() - 1.0) > 1e-12:
                raise DomainError(f"{name} must have unit L2 norm")
        if (self.psi0 - basis_state(self.model, self.psi0.size,
                                    self.l)).norm() > self.delta + 1e-9:
            raise DomainError("psi0 is not within delta of the eigenmode")
        drift = (self.psi1 - eigensolution(self.model, self.psi1.size, self.l,
                                           self.T)).norm()
        if drift > self.delta + 1e-9:
            raise DomainError(
                "psi1 is not within delta of the evolved eigenmode")


@dataclass(frozen=True)
class SteeringReport:
    control: ControlSignal
    residuals: list
    converged: bool
    final_error: float
    norm: SobolevNorm
    window_residuals: list  # the K controlled modes' part of each residual
    tail_residuals: list    # the other N - K modes' part

    @property
    def iterations(self) -> int:
        return len(self.residuals) - 1

    def to_json(self) -> str:
        return json.dumps({
            "iterations": list(range(len(self.residuals))),
            "residual_h1": [float(r) for r in self.residuals],
            "residual_window_h1": [float(r) for r in self.window_residuals],
            "residual_tail_h1": [float(r) for r in self.tail_residuals],
            "control_l2_norm": self.control.l2_norm(),
            "converged": self.converged,
            "final_error": self.final_error,
        }, indent=2)


def steer(problem: SteeringProblem, K: int, N: int | None = None,
          n_steps: int = DEFAULT_STEPS) -> SteeringReport:
    """Quasi-Newton steering from psi0 to psi1 (up to the tangent
    projection) at time T.

    Each iteration simulates the current control, projects the endpoint
    mismatch to the tangent space, and adds the linearized exact control for
    it, up to max_iters corrections and while a moment target exceeds 1e-15.
    Residuals are in the model's H^1-type norm, each split into the window
    of the K controlled modes and the tail of the rest.  Returns unconverged
    once window <= tolerance < tail, as no correction targets the tail.
    Raises NonConvergenceError (with the residual history) when the residual
    grows twice in a row.
    """
    if N is None:
        N = K
    if K > N:
        raise DomainError("cannot control more modes than simulated")
    model = problem.model
    prop = Propagator(model, problem.mu, N)
    controlled = window_position(model, N, index_window(model, K))
    weights = sobolev_weights(model, N, SobolevNorm.H1)
    u = ControlSignal.zero(problem.T, n_steps)
    moment_targets = inverse = None
    history, windows, tails = [], [], []
    tol = problem.tolerance
    while True:
        psi_T = prop.endpoint(problem.psi0, u)
        r = project_tangent(problem.psi1 - psi_T, problem.l, problem.T)
        wr = weights * r.coefficients  # as sobolev_norm weighs them
        res = float(np.linalg.norm(wr))
        window = float(np.linalg.norm(wr[controlled]))
        tail = float(np.linalg.norm(np.delete(wr, controlled)))
        history.append(res)
        windows.append(window)
        tails.append(tail)
        if (res <= tol or len(history) > problem.max_iters
                or window <= tol < tail):
            break
        if len(history) >= 3 and history[-1] > history[-2] > history[-3]:
            raise NonConvergenceError(
                "steering residual grew two iterations in a row",
                history=history)
        if moment_targets is None:
            freqs, moment_targets = _moment_targets(
                model, problem.mu, problem.l, problem.T, K)
        x = moment_targets(StateVector(model, r.coefficients[controlled]))
        # no correction: the control, and so the residual, cannot change
        if np.all(np.abs(x) < 1e-15):
            break
        if inverse is None:
            # the first solve brings the frozen family's factorization for
            # every later one
            solution = solve(MomentProblem(problem.T, freqs, tuple(x)),
                             n_steps=n_steps)
            inverse, c = solution.inverse, solution.coefficients
            # u = sum_j a_j e^{i f_j t} over the ascending f = -mu, with the
            # zero frequency of the zero start always present
            neg = 0.0 - inverse.frequencies  # -mu, its zero kept +0.0
            f = np.sort(np.append(neg, np.zeros(int(0.0 not in neg))))
            slots = np.searchsorted(f, neg)
            amps = np.zeros(f.size, dtype=complex)
        else:
            c = inverse.coefficients(x)
        amps[slots] += c
        u = ControlSignal.from_terms(zip(f, amps), problem.T, n_steps)
    return SteeringReport(control=u, residuals=history, converged=res <= tol,
                          final_error=res, norm=SobolevNorm.H1,
                          window_residuals=windows, tail_residuals=tails)


def perturbed_target(model: SpectralModel, N: int, l: int, T: float,
                     delta: float, seed: int,
                     K: int | None = None) -> StateVector:
    """Unit-norm target within delta (in the model's H^1-type norm) of the
    evolved eigenmode, with the perturbation in the tangent space and
    supported on the first K modes (those of them inside the window of N).
    Mode k draws re and im from the seed, in window order, and is scaled by
    1 / (1 + |k|)^2."""
    rng = np.random.default_rng(seed)
    ks = index_window(model, N if K is None else min(K, N))
    draws = rng.standard_normal((ks.size, 2))
    coeffs = np.zeros(index_window(model, N).size, dtype=complex)
    decay = 1.0 / (1.0 + np.abs(ks))**2
    coeffs[window_position(model, N, ks)] = decay * (draws[:, 0]
                                                     + 1j * draws[:, 1])
    raw = project_tangent(StateVector(model, coeffs), l, T)
    scale = delta / (2.0 * sobolev_norm(raw, SobolevNorm.H1))
    psi = eigensolution(model, N, l, T) + raw.scaled(scale)
    return psi.scaled(1.0 / psi.norm())


def endpoint_derivative_check(u: ControlSignal, v: ControlSignal,
                              model: SpectralModel, mu: PiecewisePotential,
                              l: int, T: float, N: int = 64,
                              epsilons=(1e-2, 1e-3, 1e-4)) -> float:
    """Log-log slope of e(eps) = ||Psi(u + eps v) - Psi(u) - eps P(xi(T))||
    where Psi is the projected endpoint map from phi_l and xi the
    linearization along v; a C^1 endpoint map gives slope 2.  The endpoint
    differences and xi come from one batched pass of the discrete flow."""
    if abs(u.horizon - T) > 1e-12 or abs(v.horizon - T) > 1e-12:
        raise DomainError("controls must live on the horizon T")
    eps = np.asarray(epsilons, dtype=float)
    if (eps.ndim != 1 or eps.size < 2 or eps.min() == eps.max()
            or not np.all(np.isfinite(eps) & (eps > 0.0))):
        raise DomainError("epsilons must be at least two distinct, positive, "
                          "finite values")
    prop = Propagator(model, mu, N)
    _, *deltas, xi = prop._endpoint_differences(basis_state(model, N, l), u,
                                                v, eps)
    # Psi(u + e v) - Psi(u) - e xi, projected: the projection is real-linear
    errs = np.asarray([project_tangent(StateVector(model, d - e * xi), l,
                                       T).norm()
                       for d, e in zip(deltas, eps)])
    if np.all(errs < 1e-14):
        return 2.0
    slope = np.polyfit(np.log(eps), np.log(errs), 1)[0]
    return float(slope)
